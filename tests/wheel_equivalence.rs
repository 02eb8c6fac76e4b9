//! The scheduled kernel's contract: `ActivityMode::Scheduled` is an
//! optimisation, never a semantic change. Over link-bound
//! `bench::throughput` batches, with and without link faults, every cell
//! of the differential harness (`tests/harness.rs`) matches the
//! Exhaustive reference on everything the simulation computes, steps no
//! more cycles than it and skips some.

mod harness;

use bench::throughput::{arith_jobs, xi_jobs};
use fu_host::LinkModel;
use harness::{check, Front, Units, Workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn scheduled_mode_is_bit_identical_to_gated_and_exhaustive(
        seed: u64,
        shards in 1usize..=3,
        total in 3usize..14,
        batch in 1usize..5,
        kind in 0usize..3,
        faults in prop_oneof![Just(None), Just(Some(80)), Just(Some(160))],
        round_robin: bool,
    ) {
        let jobs = match kind {
            0 => arith_jobs(total, batch, seed),
            1 => xi_jobs(total, batch, seed),
            _ => {
                let xi = xi_jobs(total.div_ceil(2), batch, seed ^ 1);
                [arith_jobs(total, batch, seed), xi].concat()
            }
        };
        let (link, front) = (LinkModel::pcie_like(), Front::Batch(jobs));
        let w = Workload::drawn(Units::Standard, link, shards, round_robin, faults, seed, front);
        check(&w);
    }
}

/// Deterministic tripwire that does not depend on the proptest case
/// budget: a mixed arithmetic and χ-sort batch over the reliable
/// transport, with and without faults, on one and three shards. Every
/// Scheduled cell skips, the faulty ones while retransmit deadlines are
/// pending.
#[test]
fn pinned_mixed_workload_agrees_in_all_modes() {
    let mut jobs = arith_jobs(8, 3, 0x17);
    jobs.extend(xi_jobs(4, 2, 0x18));
    let (link, front) = (LinkModel::pcie_like(), Front::Batch(jobs));
    for (shards, faults) in [(1, Some(0)), (1, Some(96)), (3, Some(0)), (3, Some(96))] {
        let w = Workload::drawn(
            Units::Standard,
            link,
            shards,
            true,
            faults,
            0x17,
            front.clone(),
        );
        for (cell, o) in check(&w) {
            let retransmitted = faults == Some(0) || o.link.retransmits > 0;
            assert!(retransmitted, "{cell:?}: no retransmit");
        }
    }
}
