//! The fast-forward contract: a system run in the default
//! [`fu_rtm::ActivityMode::Scheduled`] mode (stage gating, quiet-span
//! skipping, batched stepping) is bit-identical to the same run in
//! `Exhaustive` mode, for latency units behind a clock-domain crossing on
//! every link preset. Both tests run the workspace's differential
//! harness (`tests/harness.rs` at the repository root).

#[path = "../../../tests/harness.rs"]
mod harness;

use fu_host::{Job, LinkModel};
use fu_isa::HostMsg;
use fu_rtm::ActivityMode;
use harness::{check, instr, job_group, write, Front, Units, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn gated_equals_exhaustive(
        batch in vec(job_group(), 1..5),
        link in 0usize..4,
        latency in 1u32..=24,
        divider in 1u32..=6,
        shards in 1usize..=3,
        seed: u64,
    ) {
        let (units, link) = (Units::Latency(latency, divider), LinkModel::presets()[link]);
        let front = Front::Batch(batch.concat());
        check(&Workload::drawn(units, link, shards, true, None, seed, front));
    }
}

/// The slow prototyping link must actually trigger skipping, or the
/// equivalence above is vacuous: Scheduled skips most of a short burst.
#[test]
fn prototyping_link_fast_forwards() {
    let mut burst = vec![write(0, 7), write(1, 9), instr("ADD", [2, 0, 1, 0])];
    burst.extend([
        HostMsg::ReadReg { reg: 2, tag: 0 },
        HostMsg::Sync { tag: 1 },
    ]);
    let (units, link) = (Units::Latency(4, 2), LinkModel::prototyping());
    let front = Front::Batch(vec![Job::Requests(burst)]);
    for (cell, o) in check(&Workload::drawn(units, link, 1, true, None, 0x17, front)) {
        let (skipped, cycles) = (o.sim.cycles_skipped, o.sim.cycles_simulated);
        let quiet = cell.mode == ActivityMode::Exhaustive || skipped > cycles / 2;
        assert!(quiet, "{cell:?}: skipped {skipped} of {cycles}");
    }
}
