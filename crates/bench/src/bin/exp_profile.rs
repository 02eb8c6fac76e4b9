//! E14 — pipeline observability: per-stage utilization, instruction
//! latency percentiles, and a Perfetto trace, with the tracing-overhead
//! regression gate.
//!
//! Profiles the arithmetic and χ-sort workloads at batch sizes 1 and 64
//! on a single traced shard. Every traced run is paired with an untraced
//! twin that must match bit for bit (results and `SimStats`) — the
//! non-perturbation rule of `DESIGN.md` §6, enforced at measurement time.
//!
//! The binary is also CI's tracing-overhead gate: it re-runs the E8
//! sim-speed smoke (arith batch over the prototyping link, scheduled
//! kernel, tracing off) and compares its deterministic work counters
//! against `ci/sim_speed_baseline.json`, failing on a >5% regression.
//! The same baseline pins the reliable multi-host smoke's stepped cycles.
//! Wall-clock for traced vs untraced runs is printed for the record but
//! never gated — a loaded runner can double wall-clock without any real
//! regression. Both smokes' stepped cycles are also printed split by
//! step reason: the first event source that kept each one from being
//! skipped.
//!
//! ```text
//! cargo run --release -p bench --bin exp_profile [-- --smoke]
//! cargo run --release -p bench --bin exp_profile -- --write-baseline
//! ```

use bench::profile::{overhead_wall_ms, profile_workload, ProfileRun, SmokeBaseline};
use bench::Table;
use fu_rtm::ActivityMode;

/// Fixed seed so runs (and the CI gate) are reproducible.
const SEED: u64 = 0x0E14_5EED;
const BATCHES: &[usize] = &[1, 64];

const BASELINE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/sim_speed_baseline.json"
);
const BENCH_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_pipeline_profile.json"
);
const TRACE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../TRACE_pipeline_profile.json"
);

fn pct(p: rtl_sim::Percentiles) -> String {
    format!("{}/{}/{}", p.p50, p.p95, p.p99)
}

fn pct_json(p: rtl_sim::Percentiles) -> String {
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        p.p50, p.p95, p.p99
    )
}

fn util_json(run: &ProfileRun) -> String {
    let fields: Vec<String> = run
        .utilization
        .iter()
        .map(|(s, u)| format!("\"{s}\": {u:.4}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");

    println!(
        "E14 — pipeline profile, batches {BATCHES:?}, seed {SEED:#x}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("every traced run verified bit-identical to its untraced twin\n");

    // ---- the deterministic overhead gate -----------------------------
    let (current, smoke_stats) = SmokeBaseline::measure();
    if write_baseline {
        std::fs::write(BASELINE_PATH, current.to_json()).expect("write baseline");
        println!("wrote {BASELINE_PATH}: {current:?}");
        return;
    }
    let baseline_text = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!("missing {BASELINE_PATH} ({e}); run with --write-baseline to create it")
    });
    let baseline = SmokeBaseline::from_json(&baseline_text).expect("parse baseline");
    current
        .check_against(&baseline)
        .expect("a smoke regressed against ci/sim_speed_baseline.json");
    println!(
        "gate: sim-speed smoke within its baseline bounds: {} vs baseline {}",
        current.scheduled.to_inline_json(),
        baseline.scheduled.to_inline_json()
    );
    println!(
        "gate: reliable multi-host smoke within its baseline bounds: {} vs baseline {}\n",
        current.reliable.to_inline_json(),
        baseline.reliable.to_inline_json()
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

    let (untraced_ms, traced_ms) = overhead_wall_ms(ActivityMode::Scheduled);
    let ratio = if untraced_ms > 0.0 {
        traced_ms / untraced_ms
    } else {
        1.0
    };
    println!(
        "overhead (informational): untraced {untraced_ms:.2} ms, \
         traced {traced_ms:.2} ms, ratio {ratio:.2}\n"
    );

    // ---- the profile sweep -------------------------------------------
    let (arith_total, xi_total) = if smoke { (64, 32) } else { (256, 128) };
    let mut runs: Vec<ProfileRun> = Vec::new();
    for &batch in BATCHES {
        runs.push(profile_workload("arith", arith_total, batch, SEED));
        runs.push(profile_workload("xi-sort", xi_total, batch, SEED));
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
    let scenarios: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"batch\": {}, \"cycles\": {}, ",
                    "\"instructions\": {}, \"utilization\": {}, ",
                    "\"issue_to_dispatch\": {}, \"dispatch_to_retire\": {}, ",
                    "\"issue_to_retire\": {}, \"trace_events\": {}, ",
                    "\"identical_untraced\": true}}"
                ),
                r.workload,
                r.batch,
                r.cycles,
                r.instructions,
                util_json(r),
                pct_json(r.latency.issue_to_dispatch),
                pct_json(r.latency.dispatch_to_retire),
                pct_json(r.latency.issue_to_retire),
                r.trace_events,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pipeline_profile\",\n  \"seed\": {SEED},\n  \"smoke\": {smoke},\n  \
         \"clock_mhz\": 50.0,\n  \"overhead_wall\": {{\"untraced_ms\": {untraced_ms:.3}, \
         \"traced_ms\": {traced_ms:.3}, \"ratio\": {ratio:.3}}},\n  \
         \"work_counts\": {},\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        current.scheduled.to_inline_json(),
        scenarios.join(",\n")
    );
    std::fs::write(BENCH_PATH, &json).expect("write BENCH_pipeline_profile.json");
    println!("wrote {BENCH_PATH}");

    // The arith batch=64 trace is the interesting one: deep pipelining,
    // overlapping instructions, visible stalls. Open in ui.perfetto.dev.
    let showcase = runs
        .iter()
        .find(|r| r.workload == "arith" && r.batch == 64)
        .expect("swept configuration");
    std::fs::write(TRACE_PATH, &showcase.perfetto).expect("write TRACE_pipeline_profile.json");
    println!("wrote {TRACE_PATH} ({} events)", showcase.trace_events);
}
