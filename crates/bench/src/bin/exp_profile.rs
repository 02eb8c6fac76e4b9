//! E14 — pipeline observability: per-stage utilization, instruction
//! latency percentiles, and a Perfetto trace, with the work-count
//! regression gate.
//!
//! Profiles the arithmetic and χ-sort workloads at batch sizes 1 and 64
//! on a single traced shard. Every traced run is paired with an untraced
//! twin that must match bit for bit (results and `SimStats`) — the
//! non-perturbation rule of `DESIGN.md` §6, enforced at measurement time.
//!
//! The binary is also CI's work-count gate: it re-runs the E8
//! sim-speed smoke (arith batch over the prototyping link, scheduled
//! kernel, tracing off) and compares its deterministic work counters
//! against `ci/sim_speed_baseline.json`, failing on a >5% regression.
//! The same baseline pins the reliable multi-host smoke's stepped cycles.
//! Both smokes' stepped cycles are also printed split by step reason: the
//! first event source that kept each one from being skipped.
//!
//! ```text
//! cargo run --release -p bench --bin exp_profile
//! cargo run --release -p bench --bin exp_profile -- --write-baseline
//! ```

use bench::profile::{profile_workload, ProfileRun, SmokeBaseline, BASELINE_FILE};
use bench::report::{self, Obj};
use bench::{Table, FPGA_MHZ};

/// Fixed seed so runs (and the CI gate) are reproducible.
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
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");

    println!("E14 — pipeline profile, batches {BATCHES:?}, seed {SEED:#x}");
    println!("every traced run verified bit-identical to its untraced twin\n");

    // ---- the deterministic work-count gate ---------------------------
    let (current, smoke_stats) = SmokeBaseline::measure();
    if write_baseline {
        report::write_text(BASELINE_FILE, &current.to_json());
        return;
    }
    let baseline = SmokeBaseline::load();
    current
        .check_against(&baseline)
        .expect("a smoke regressed against ci/sim_speed_baseline.json");
    println!(
        "gate: sim-speed smoke within its baseline bounds: {} vs baseline {}",
        current.scheduled.to_obj().render(0),
        baseline.scheduled.to_obj().render(0)
    );
    println!(
        "gate: reliable multi-host smoke within its baseline bounds: {} vs baseline {}\n",
        current.reliable.to_obj().render(0),
        baseline.reliable.to_obj().render(0)
    );

    // ---- why each stepped cycle was stepped ----------------------------
    let mut reasons = Table::new([
        "smoke", "stepped", "stage", "unit", "deadline", "host", "direct",
    ]);
    for (name, sim) in &smoke_stats {
        let r = sim.step_reasons;
        reasons.row([
            name.to_string(),
            sim.cycles_stepped.to_string(),
            r.stage.to_string(),
            r.unit.to_string(),
            r.deadline.to_string(),
            r.host.to_string(),
            r.direct.to_string(),
        ]);
    }
    reasons.print();
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
        .obj("work_counts", current.scheduled.to_obj())
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
