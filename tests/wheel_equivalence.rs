//! The correctness contract of the scheduled kernel:
//! `ActivityMode::Scheduled` is an *optimisation*, never a semantic
//! change. For any workload, shard count, link fault model and seed, a
//! scheduled run must be bit-identical to the exhaustive run in
//! everything the simulation computes — response streams, per-shard
//! cycle counts, pipeline statistics, latency histograms, link
//! statistics and retained trace events.
//!
//! The only permitted differences are the *work* counters that describe
//! how the simulator spent its time (`cycles_stepped` and its step
//! reasons, `cycles_skipped`, `stage_evals`, and the deadline
//! counters); those are exactly what the optimisation exists to reduce,
//! so the harness additionally checks the scheduled run never steps
//! more cycles than the exhaustive run it shadows, and that every
//! stepped cycle carries exactly one step reason.
//!
//! A panic inside a job is caught by the farm and reported as identical
//! error data in every mode, which would let the equality checks pass
//! over broken kernel code; every run is therefore also checked to be
//! panic-free, and fault-free runs to need no failover.

use bench::throughput::{arith_jobs, xi_jobs};
use fu_host::{DriverError, Farm, FarmConfig, FaultModel, Job, JobResult, LinkModel, LinkStats};
use fu_rtm::{ActivityMode, CoprocConfig};
use proptest::prelude::*;
use rtl_sim::{LatencyHistogram, SimStats, TraceEvent};

/// Everything a mode change must leave untouched, plus (separately) the
/// rolled-up scheduler statistics so the caller can compare the
/// mode-independent slices and inspect the work counters.
struct Observed {
    serial: Vec<JobResult>,
    parallel: Vec<JobResult>,
    shard_cycles: Vec<u64>,
    traces: Vec<Vec<TraceEvent>>,
    link: LinkStats,
    sim: SimStats,
}

/// The mode-independent projection of [`SimStats`]: total simulated
/// time, stage busy-ness and the always-on latency histograms. The
/// stepped/skipped/eval/wheel counters are deliberately excluded — they
/// describe simulator effort, not machine behaviour.
fn invariant_slice(s: &SimStats) -> (u64, &Vec<(&'static str, u64)>, [&LatencyHistogram; 3]) {
    (
        s.cycles_simulated,
        &s.stage_busy,
        [
            &s.lat_issue_dispatch,
            &s.lat_dispatch_retire,
            &s.lat_issue_retire,
        ],
    )
}

fn observe(
    jobs: &[Job],
    shards: usize,
    seed: u64,
    mode: ActivityMode,
    faults: Option<FaultModel>,
) -> Observed {
    let build = || {
        Farm::standard_reliable(
            FarmConfig {
                shards,
                seed,
                activity_mode: mode,
                trace_depth: 2048,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
            faults,
        )
    };
    let mut farm = build();
    let serial = farm.run_serial(jobs).expect("serial farm run");
    let mut pfarm = build();
    let parallel = pfarm.run_parallel(jobs).expect("parallel farm run");
    for (f, results) in [(&farm, &serial), (&pfarm, &parallel)] {
        if let Some(r) = results
            .iter()
            .find(|r| matches!(r.output, Err(DriverError::Panicked(_))))
        {
            panic!("{mode:?}: job {} panicked: {:?}", r.job, r.output);
        }
        if faults.is_none() {
            assert_eq!(
                f.sim_stats().recovery.jobs_failed_over,
                0,
                "{mode:?}: a fault-free run failed over"
            );
        }
    }
    // Every stepped cycle is attributed to exactly one step reason.
    let sim = farm.sim_stats();
    assert_eq!(
        sim.step_reasons.total(),
        sim.cycles_stepped,
        "{mode:?}: step reasons {:?}",
        sim.step_reasons
    );
    Observed {
        serial,
        parallel,
        shard_cycles: farm.shard_reports().iter().map(|r| r.cycles).collect(),
        traces: farm
            .shard_reports()
            .iter()
            .map(|r| r.trace.clone())
            .collect(),
        link: farm.link_stats(),
        sim,
    }
}

/// Assert `got` (the scheduled mode) matches `base` (the exhaustive
/// reference) on every mode-independent observable.
fn assert_equivalent(base: &Observed, got: &Observed, label: &str) {
    assert_eq!(base.serial, got.serial, "{label}: job results diverged");
    assert_eq!(
        got.serial, got.parallel,
        "{label}: serial/parallel merge diverged"
    );
    assert_eq!(
        base.shard_cycles, got.shard_cycles,
        "{label}: per-shard cycle counts diverged"
    );
    assert_eq!(base.link, got.link, "{label}: link statistics diverged");
    assert_eq!(
        invariant_slice(&base.sim),
        invariant_slice(&got.sim),
        "{label}: mode-independent SimStats diverged"
    );
    assert_eq!(base.traces, got.traces, "{label}: trace streams diverged");
}

fn fault_model(choice: u64, seed: u64) -> Option<FaultModel> {
    match choice {
        0 => None,
        1 => Some(FaultModel::uniform(seed, 80)),
        _ => Some(FaultModel::uniform(seed ^ 0xDEAD, 160)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scheduled ≡ Exhaustive over random programs, shard counts, batch
    /// sizes and fault models.
    #[test]
    fn scheduled_mode_is_bit_identical_to_gated_and_exhaustive(
        seed in any::<u64>(),
        shards in 1usize..=3,
        total in 3usize..14,
        batch in 1usize..5,
        kind in 0usize..3,
        fault in 0u64..3,
    ) {
        let jobs = match kind {
            0 => arith_jobs(total, batch, seed),
            1 => xi_jobs(total, batch, seed),
            _ => {
                let mut j = arith_jobs(total, batch, seed);
                j.extend(xi_jobs(total.div_ceil(2), batch, seed ^ 1));
                j
            }
        };
        let faults = fault_model(fault, seed);
        let exhaustive =
            observe(&jobs, shards, seed, ActivityMode::Exhaustive, faults);
        let scheduled =
            observe(&jobs, shards, seed, ActivityMode::Scheduled, faults);

        assert_equivalent(&exhaustive, &scheduled, "scheduled");

        // The optimisation direction: skipping may only ever *reduce*
        // the number of cycles run through the full evaluate/commit
        // loop relative to the reference kernel.
        prop_assert!(
            scheduled.sim.cycles_stepped <= exhaustive.sim.cycles_stepped,
            "scheduled stepped more than exhaustive: {} vs {} (seed {:#x})",
            scheduled.sim.cycles_stepped,
            exhaustive.sim.cycles_stepped,
            seed
        );
        // Non-vacuity: the workloads are link-bound enough that some
        // fast-forwarding must actually have happened.
        prop_assert!(scheduled.sim.cycles_skipped > 0);
    }
}

/// Deterministic tripwire that does not depend on the proptest case
/// budget: a mixed arithmetic + χ-sort workload, with and without link
/// faults, across one and three shards.
#[test]
fn pinned_mixed_workload_agrees_in_all_modes() {
    let mut jobs = arith_jobs(8, 3, 0x17);
    jobs.extend(xi_jobs(4, 2, 0x18));
    for shards in [1usize, 3] {
        for fault in [None, Some(FaultModel::uniform(7, 96))] {
            let scheduled = observe(&jobs, shards, 0x17, ActivityMode::Scheduled, fault);
            let exhaustive = observe(&jobs, shards, 0x17, ActivityMode::Exhaustive, fault);
            assert_equivalent(&exhaustive, &scheduled, "scheduled (pinned)");
            // Non-vacuity: the scheduled run skipped, and in the faulty
            // cells it skipped while retransmit deadlines were pending.
            assert!(scheduled.sim.cycles_skipped > 0);
            if fault.is_some() {
                assert!(scheduled.link.retransmits > 0);
            }
        }
    }
}
