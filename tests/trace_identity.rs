//! The observability layer's contract: enabling the typed event trace
//! must not change anything the simulation computes. Over
//! `bench::throughput` arithmetic batches, each traced cell of the
//! differential harness (`tests/harness.rs`) matches its mode's untraced
//! cell in results, per-shard cycles and the full `SimStats`, and keeps
//! the same non-empty event stream serial and parallel.

mod harness;

use bench::throughput::arith_jobs;
use fu_host::LinkModel;
use harness::{check, Front, Units, Workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn tracing_never_perturbs_the_simulation(
        seed: u64,
        shards in 1usize..=3,
        total in 4usize..24,
        batch in 1usize..8,
        link in 0usize..4,
    ) {
        let front = Front::Batch(arith_jobs(total, batch, seed));
        let link = LinkModel::presets()[link];
        check(&Workload::drawn(Units::Standard, link, shards, true, None, seed, front));
    }
}

/// The same property on one pinned workload and shard, a tripwire that
/// does not depend on the proptest case budget.
#[test]
fn traced_system_matches_untraced_system_in_all_modes() {
    let (link, front) = (LinkModel::pcie_like(), Front::Batch(arith_jobs(16, 4, 7)));
    check(&Workload::drawn(
        Units::Standard,
        link,
        1,
        true,
        None,
        7,
        front,
    ));
}
