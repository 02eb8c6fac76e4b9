//! The differential harness (`tests/harness.rs`) over its whole workload
//! space: every unit set, link, shard count, placement, fault rate and
//! front end drawn together, with `bench::throughput` batches among the
//! jobs. Each contract's own test file checks its slice of that space.

mod harness;

use bench::throughput::{arith_jobs, xi_jobs};
use fu_host::{Job, LinkModel};
use harness::{check, job_group, Front, Units, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

/// A `bench::throughput` batch of arithmetic and χ-sort jobs.
fn throughput() -> impl Strategy<Value = Vec<Job>> {
    (1usize..10, 1usize..5, any::<u64>()).prop_map(|(total, batch, seed)| {
        let mut jobs = arith_jobs(total, batch, seed);
        jobs.extend(xi_jobs(total.div_ceil(2), batch, seed ^ 1));
        jobs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_cell_matches_the_reference_and_the_reference_matches_the_oracle(
        latency in prop_oneof![Just(None), (1u32..=24, 1u32..=6).prop_map(Some)],
        link in 0usize..4,
        shards in 1usize..=5,
        round_robin: bool,
        faults in prop_oneof![Just(None), Just(Some(0)), Just(Some(80)), Just(Some(160))],
        // A throughput batch as likely as each kind of job group.
        batch in vec(prop_oneof![job_group(), job_group(), job_group(), throughput()], 0..5),
        service: bool,
        session in (3usize..9, prop_oneof![2usize..8, Just(usize::MAX)], 1usize..6),
        seed: u64,
    ) {
        let units = latency.map_or(Units::Standard, |(l, d)| Units::Latency(l, d));
        let front = match service {
            false => Front::Batch(batch.concat()),
            true => Front::Service(session.0, session.1, session.2),
        };
        let link = LinkModel::presets()[link];
        check(&Workload::drawn(units, link, shards, round_robin, faults, seed, front));
    }
}
