//! E14 — pipeline observability: per-stage utilization, instruction
//! latency percentiles, and a Perfetto trace, with the scheduler smokes'
//! work counts.
//!
//! Profiles the arithmetic and χ-sort workloads at batch sizes 1 and 64
//! on a single traced shard. Every traced run is paired with an untraced
//! twin that must match bit for bit (results and `SimStats`) — the
//! non-perturbation rule of `DESIGN.md` §6, enforced at measurement time.
//!
//! The binary also runs two scheduler smokes — the E8 sim-speed
//! configuration (arith batch over the prototyping link, scheduled
//! kernel, tracing off) and the reliable multi-host closed loop — and
//! writes their deterministic work counters and their stepped cycles
//! split by step reason (the first event source that kept each one from
//! being skipped) into the report, where the report diff pins them.
//!
//! ```text
//! cargo run --release -p bench --bin exp_profile
//! ```

use bench::profile::{
    profile_workload, reliable_smoke, sim_speed_smoke, step_reasons, work_counts, ProfileRun,
};
use bench::report::{self, Obj};
use bench::{Table, FPGA_MHZ};
use fu_rtm::ActivityMode;

/// Fixed seed so runs (and the pinned report) are reproducible.
const SEED: u64 = 0x0E14_5EED;
const BATCHES: &[usize] = &[1, 64];

/// Operations per profiled run, per workload.
const ARITH_TOTAL: usize = 256;
const XI_TOTAL: usize = 128;

fn pct(p: rtl_sim::Percentiles) -> String {
    format!("{}/{}/{}", p.p50, p.p95, p.p99)
}

fn pct_obj(p: rtl_sim::Percentiles) -> Obj {
    Obj::default()
        .val("p50", p.p50)
        .val("p95", p.p95)
        .val("p99", p.p99)
}

fn scenario(r: &ProfileRun) -> Obj {
    let util = r
        .utilization
        .iter()
        .fold(Obj::default(), |o, &(stage, u)| o.fixed(stage, u, 4));
    Obj::default()
        .val("workload", r.workload)
        .val("batch", r.batch)
        .val("cycles", r.cycles)
        .val("instructions", r.instructions)
        .obj("utilization", util)
        .obj("issue_to_dispatch", pct_obj(r.latency.issue_to_dispatch))
        .obj("dispatch_to_retire", pct_obj(r.latency.dispatch_to_retire))
        .obj("issue_to_retire", pct_obj(r.latency.issue_to_retire))
        .val("trace_events", r.trace_events)
        .val("identical_untraced", true)
}

fn main() {
    println!("E14 — pipeline profile, batches {BATCHES:?}, seed {SEED:#x}");
    println!("every traced run verified bit-identical to its untraced twin\n");

    // ---- the scheduler smokes ----------------------------------------
    let sim_speed = sim_speed_smoke(ActivityMode::Scheduled);
    let reliable = reliable_smoke(ActivityMode::Scheduled).sim;
    for (name, sim) in [("sim-speed", &sim_speed), ("reliable", &reliable)] {
        println!("{name} smoke: {}", work_counts(sim).render(0));
        println!("  stepped by reason: {}", step_reasons(sim).render(0));
    }
    println!();

    // ---- the profile sweep -------------------------------------------
    let mut runs: Vec<ProfileRun> = Vec::new();
    for &batch in BATCHES {
        runs.push(profile_workload("arith", ARITH_TOTAL, batch, SEED));
        runs.push(profile_workload("xi-sort", XI_TOTAL, batch, SEED));
    }

    let mut t = Table::new([
        "workload",
        "batch",
        "cycles",
        "instrs",
        "iss->disp p50/95/99",
        "disp->ret p50/95/99",
        "iss->ret p50/95/99",
        "disp util",
        "exec util",
        "events",
    ]);
    let util_of = |r: &ProfileRun, stage: &str| {
        r.utilization
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |&(_, u)| u)
    };
    for r in &runs {
        t.row([
            r.workload.to_string(),
            r.batch.to_string(),
            r.cycles.to_string(),
            r.instructions.to_string(),
            pct(r.latency.issue_to_dispatch),
            pct(r.latency.dispatch_to_retire),
            pct(r.latency.issue_to_retire),
            format!("{:.3}", util_of(r, "dispatcher")),
            format!("{:.3}", util_of(r, "execution")),
            r.trace_events.to_string(),
        ]);
    }
    t.print();
    println!();

    // Acceptance sanity: latency populations must match the instruction
    // streams, and batch=64 must overlap instructions (higher dispatcher
    // pressure per cycle than batch=1).
    for r in &runs {
        assert!(
            r.instructions > 0,
            "{}: empty latency histogram",
            r.workload
        );
        assert!(
            r.latency.issue_to_retire.p50 >= r.latency.issue_to_dispatch.p50,
            "{}: retire percentile below dispatch percentile",
            r.workload
        );
    }

    // ---- artifacts ---------------------------------------------------
    let doc = Obj::default()
        .val("bench", "pipeline_profile")
        .val("seed", SEED)
        .fixed("clock_mhz", FPGA_MHZ, 1)
        .obj("work_counts", work_counts(&sim_speed))
        .obj("reliable_work_counts", work_counts(&reliable))
        .obj(
            "step_reasons",
            Obj::default()
                .obj("sim_speed", step_reasons(&sim_speed))
                .obj("reliable", step_reasons(&reliable)),
        )
        .list("scenarios", runs.iter().map(scenario));
    report::write("BENCH_pipeline_profile.json", &doc);

    // The arith batch=64 trace is the interesting one: deep pipelining,
    // overlapping instructions, visible stalls. Open in ui.perfetto.dev.
    let showcase = runs
        .iter()
        .find(|r| r.workload == "arith" && r.batch == 64)
        .expect("swept configuration");
    println!("trace: {} events", showcase.trace_events);
    report::write_text("TRACE_pipeline_profile.json", &showcase.perfetto);
}
