//! The farm's headline contract: for ANY job set, the merged result
//! stream of [`Farm::run_parallel`] is **bit-identical** to
//! [`Farm::run_serial`] — same outputs, same tags, same errors, same
//! per-shard cycle counts — under both activity modes. Thread scheduling
//! may change wall-clock interleaving; it must never leak into results.
//!
//! The farm catches a panicking job and reports it as identical error
//! data in every mode and on every thread, which would let the equality
//! checks pass over broken kernel code; every run is therefore also
//! checked to be panic-free and to need no failover (the link here is
//! fault-free).

use fu_host::{DriverError, Farm, FarmConfig, Job, JobResult, LinkModel};
use fu_isa::HostMsg;
use fu_rtm::{ActivityMode, CoprocConfig};
use proptest::prelude::*;

/// Strategy for one job. Programs use a closed pool of two-operand ops
/// over r0..r7 so any generated program assembles; request batches mix
/// valid and *invalid* reads so error responses are covered too.
fn job() -> impl Strategy<Value = Job> {
    let op = prop_oneof![
        Just("ADD"),
        Just("SUB"),
        Just("XOR"),
        Just("AND"),
        Just("OR"),
    ];
    let instr = (op, 0u8..8, 0u8..8, 0u8..8, 0u8..4)
        .prop_map(|(op, d, a, b, f)| format!("{op} r{d}, r{a}, r{b}, f{f}"));
    let program = (
        proptest::collection::vec(instr, 1..12),
        proptest::collection::vec(0u8..8, 1..4),
    )
        .prop_map(|(lines, reads)| Job::Program {
            source: lines.join("\n"),
            reads,
        });
    let request = prop_oneof![
        (0u8..8, any::<u32>()).prop_map(|(r, v)| HostMsg::WriteReg {
            reg: r,
            value: fu_isa::Word::from_u64(v as u64, 32),
        }),
        (0u8..8, any::<u16>()).prop_map(|(r, tag)| HostMsg::ReadReg { reg: r, tag }),
        // An out-of-range register: the device answers with an in-band
        // error, which must also merge identically.
        (200u8..=255, any::<u16>()).prop_map(|(r, tag)| HostMsg::ReadReg { reg: r, tag }),
        any::<u16>().prop_map(|tag| HostMsg::Sync { tag }),
    ];
    let requests = proptest::collection::vec(request, 1..6).prop_map(Job::Requests);
    prop_oneof![program, requests]
}

fn run_both(
    jobs: &[Job],
    shards: usize,
    seed: u64,
    mode: ActivityMode,
) -> (Vec<JobResult>, Vec<JobResult>) {
    let cfg = FarmConfig {
        shards,
        queue_depth: 2, // tiny queue: exercise backpressure on every run
        seed,
        activity_mode: mode,
        ..FarmConfig::default()
    };
    let mut farm = Farm::standard(cfg, CoprocConfig::default(), LinkModel::pcie_like());
    let serial = farm.run_serial(jobs).expect("serial run");
    let serial_cycles: Vec<u64> = farm.shard_reports().iter().map(|r| r.cycles).collect();
    let parallel = farm.run_parallel(jobs).expect("parallel run");
    let parallel_cycles: Vec<u64> = farm.shard_reports().iter().map(|r| r.cycles).collect();
    assert_eq!(
        serial_cycles, parallel_cycles,
        "per-shard simulated time must not depend on threading"
    );
    if let Some(r) = serial
        .iter()
        .chain(&parallel)
        .find(|r| matches!(r.output, Err(DriverError::Panicked(_))))
    {
        panic!("{mode:?}: job {} panicked: {:?}", r.job, r.output);
    }
    assert_eq!(
        farm.sim_stats().recovery.jobs_failed_over,
        0,
        "{mode:?}: a fault-free farm failed over"
    );
    (serial, parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_stream_is_bit_identical_to_serial(
        jobs in proptest::collection::vec(job(), 1..20),
        shards in 1usize..6,
        seed: u64,
    ) {
        for mode in [ActivityMode::Scheduled, ActivityMode::Exhaustive] {
            let (serial, parallel) = run_both(&jobs, shards, seed, mode);
            prop_assert_eq!(&serial, &parallel, "mode {:?} diverged", mode);
        }
    }

    #[test]
    fn gated_and_exhaustive_farms_agree(
        jobs in proptest::collection::vec(job(), 1..10),
        shards in 1usize..4,
    ) {
        // The farm must also preserve the PR-1 contract shard-wise: the
        // activity mode changes host wall-clock, never results.
        let (scheduled, _) = run_both(&jobs, shards, 7, ActivityMode::Scheduled);
        let (exhaustive, _) = run_both(&jobs, shards, 7, ActivityMode::Exhaustive);
        prop_assert_eq!(scheduled, exhaustive);
    }
}
