//! The farm's headline contract: for any job set, the merged result
//! stream of [`fu_host::Farm::run_parallel`] is bit-identical to
//! `run_serial` — same outputs, tags, errors and per-shard cycle counts —
//! under both activity modes and both placements. Both tests run the
//! workspace's differential harness (`tests/harness.rs` at the
//! repository root), whose guards also require every run to be
//! panic-free and a fault-free farm never to fail over.

#[path = "../../../tests/harness.rs"]
mod harness;

use fu_host::LinkModel;
use harness::{check, job_group, Front, Units, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn parallel_stream_is_bit_identical_to_serial(
        batch in vec(job_group(), 0..8),
        shards in 1usize..=5,
        seed: u64,
        round_robin: bool,
    ) {
        let (link, front) = (LinkModel::pcie_like(), Front::Batch(batch.concat()));
        check(&Workload::drawn(Units::Standard, link, shards, round_robin, None, seed, front));
    }

    /// The activity mode changes host wall-clock, never results, on
    /// every link preset.
    #[test]
    fn gated_and_exhaustive_farms_agree(
        batch in vec(job_group(), 1..5),
        shards in 1usize..=3,
        link in 0usize..4,
    ) {
        let (link, front) = (LinkModel::presets()[link], Front::Batch(batch.concat()));
        check(&Workload::drawn(Units::Standard, link, shards, true, None, 7, front));
    }
}
