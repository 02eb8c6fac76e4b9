//! The non-perturbation harness for the observability layer: enabling
//! the typed event trace must not change *anything* the simulation
//! computes — not the response streams, not the per-shard cycle counts,
//! not the scheduler statistics (which include the always-on latency
//! histograms and busy counters). Tracing observes the machine; it never
//! steers it.
//!
//! The property is checked over random programs, shard counts, batch
//! sizes and all three activity-scheduling modes, because a perturbation bug
//! would most likely hide in an interaction (e.g. a trace-gated branch
//! that also feeds the gating predicate of a stage).

use bench::throughput::arith_jobs;
use fu_host::{Farm, FarmConfig, Job, JobResult, LinkModel};
use fu_rtm::{ActivityMode, CoprocConfig};
use proptest::prelude::*;
use rtl_sim::SimStats;

/// Run `jobs` on a fresh farm and return everything observable:
/// per-job results, the rolled-up scheduler statistics, and per-shard
/// cycle counts.
fn observe(
    jobs: &[Job],
    shards: usize,
    seed: u64,
    mode: ActivityMode,
    trace_depth: usize,
) -> (Vec<JobResult>, SimStats, Vec<u64>) {
    let mut farm = Farm::standard(
        FarmConfig {
            shards,
            seed,
            activity_mode: mode,
            trace_depth,
            ..FarmConfig::default()
        },
        CoprocConfig::default(),
        LinkModel::pcie_like(),
    );
    let results = farm.run_serial(jobs).expect("farm run");
    let cycles = farm.shard_reports().iter().map(|r| r.cycles).collect();
    (results, farm.sim_stats(), cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any workload, shard count and scheduling mode, a trace-enabled
    /// run is bit-identical to the trace-disabled run.
    #[test]
    fn tracing_never_perturbs_the_simulation(
        seed in any::<u64>(),
        shards in 1usize..=3,
        total in 4usize..24,
        batch in 1usize..8,
        mode_idx in 0usize..2,
    ) {
        let mode = match mode_idx {
            0 => ActivityMode::Scheduled,
            _ => ActivityMode::Exhaustive,
        };
        let jobs = arith_jobs(total, batch, seed);
        let (plain_res, plain_sim, plain_cycles) = observe(&jobs, shards, seed, mode, 0);
        let (traced_res, traced_sim, traced_cycles) =
            observe(&jobs, shards, seed, mode, 4096);

        prop_assert_eq!(
            &plain_res, &traced_res,
            "result stream diverged (seed {:#x}, {} shards, {:?})", seed, shards, mode
        );
        prop_assert_eq!(
            &plain_sim, &traced_sim,
            "SimStats diverged (seed {:#x}, {} shards, {:?})", seed, shards, mode
        );
        prop_assert_eq!(
            &plain_cycles, &traced_cycles,
            "per-shard cycles diverged (seed {:#x}, {} shards, {:?})", seed, shards, mode
        );

        // Guard against a vacuous pass: the traced run must actually have
        // retained events, and the always-on histograms must have seen
        // every instruction.
        prop_assert_eq!(traced_sim.lat_issue_retire.count(), total as u64);
        prop_assert!(plain_sim == traced_sim && traced_sim.lat_issue_retire.count() > 0);
    }
}

/// The same property through the single-`System` path (no farm), pinned
/// on one deterministic workload in every mode — a fast regression
/// tripwire that does not depend on the proptest shim's case budget.
#[test]
fn traced_system_matches_untraced_system_in_all_modes() {
    for mode in [ActivityMode::Scheduled, ActivityMode::Exhaustive] {
        let run = |depth: usize| {
            let jobs = arith_jobs(16, 4, 7);
            observe(&jobs, 1, 7, mode, depth)
        };
        let a = run(0);
        let b = run(1 << 16);
        assert_eq!(a, b, "trace on/off diverged in {mode:?}");
    }
}
