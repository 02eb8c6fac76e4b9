//! E16 — soft-error resilience: completion rate and the cost of each
//! protection tier as the device-state upset rate rises.
//!
//! The link sweep (E12) asks what wire faults cost; this asks the same
//! about SEUs striking coprocessor state. The dependent-add batch runs
//! under four protection tiers — none, parity-only, DMR+rollback,
//! TMR+rollback — across a grid of strike intervals and checkpoint
//! cadences, over several seeds per point. A run *completes* only when
//! its response stream is bit-identical to the fault-free reference of
//! the same machine. Because rollback rewinds the cycle counter, the
//! recovered clock always matches the reference; the real price is the
//! work thrown away, so overhead is reported as
//! `(cycles + cycles_lost) / clean_cycles − 1`.
//!
//! ```text
//! cargo run --release -p bench --bin exp_soft_errors [-- --smoke]
//! ```

use bench::soft_errors::{resilience_run, soft_error_smoke, Protection};
use bench::Table;
use fu_rtm::SeuConfig;

/// Mean cycles between strikes, coldest first (the workload itself runs
/// ~1.4k cycles, so 50 means roughly thirty strikes per run).
const INTERVALS: &[u64] = &[400, 150, 50];
/// Checkpoint cadences (retired instructions) for the recovery tiers.
const CKPTS: &[u64] = &[4, 16, 64];
/// Base seed; per-point seeds are derived by offset.
const SEED: u64 = 0x0E16_0000;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_seeds, n_adds) = if smoke { (3u64, 96) } else { (8u64, 192) };

    println!(
        "E16 — soft-error resilience sweep{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "workload: {n_adds} dependent ADDs + periodic read-back, {n_seeds} seeds per point\n\
         completion = response stream bit-identical to the fault-free reference\n"
    );

    let mut scenarios: Vec<String> = Vec::new();
    for &interval in INTERVALS {
        println!("strike interval: mean {interval} cycles");
        let mut t = Table::new([
            "protection",
            "ckpt instrs",
            "completed",
            "work overhead",
            "SEU inj/det/corr",
            "rollbacks",
            "mean lost/rollback",
        ]);
        for p in Protection::ALL {
            let ckpts: &[u64] = if p.recovers() { CKPTS } else { &[0] };
            for &ckpt in ckpts {
                let clean = resilience_run(p, None, ckpt.max(1), n_adds);
                assert!(clean.drained, "fault-free reference failed to drain");
                let mut completed = 0u64;
                let mut overhead_sum = 0.0f64;
                let mut inj = 0u64;
                let mut det = 0u64;
                let mut corr = 0u64;
                let mut rollbacks = 0u64;
                let mut lost = 0u64;
                for s in 0..n_seeds {
                    let seu = SeuConfig::all(SEED + s * 7919 + interval, interval);
                    let run = resilience_run(p, Some(seu), ckpt.max(1), n_adds);
                    if run.drained && run.responses == clean.responses {
                        completed += 1;
                    }
                    let work = run.cycles + run.recovery.cycles_lost;
                    overhead_sum += work as f64 / clean.cycles as f64 - 1.0;
                    inj += run.recovery.seus_injected;
                    det += run.recovery.seus_detected;
                    corr += run.recovery.seus_corrected;
                    rollbacks += run.recovery.rollbacks;
                    lost += run.recovery.cycles_lost;
                }
                let overhead = overhead_sum / n_seeds as f64;
                let mean_lost = if rollbacks == 0 {
                    0.0
                } else {
                    lost as f64 / rollbacks as f64
                };
                t.row([
                    p.label().to_string(),
                    if p.recovers() {
                        ckpt.to_string()
                    } else {
                        "—".to_string()
                    },
                    format!("{completed}/{n_seeds}"),
                    format!("{:+.2}%", overhead * 100.0),
                    format!("{inj}/{det}/{corr}"),
                    rollbacks.to_string(),
                    format!("{mean_lost:.0}"),
                ]);
                scenarios.push(format!(
                    concat!(
                        "    {{\"protection\": \"{}\", \"mean_interval\": {}, ",
                        "\"ckpt_interval\": {}, \"seeds\": {}, \"completed\": {}, ",
                        "\"mean_work_overhead\": {:.4}, \"seus_injected\": {}, ",
                        "\"seus_detected\": {}, \"seus_corrected\": {}, ",
                        "\"rollbacks\": {}, \"cycles_lost\": {}, ",
                        "\"mean_cycles_lost_per_rollback\": {:.1}}}"
                    ),
                    p.label(),
                    interval,
                    ckpt,
                    n_seeds,
                    completed,
                    overhead,
                    inj,
                    det,
                    corr,
                    rollbacks,
                    lost,
                    mean_lost,
                ));
            }
        }
        t.print();
        println!();
    }

    // The deterministic CI counters (also gated by exp_profile through
    // ci/sim_speed_baseline.json); recomputed here so the report is
    // self-contained. Panics on any resilience regression.
    let c = soft_error_smoke();
    println!("smoke counters: {}", c.to_inline_json());

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"soft_errors\",\n  \"seed\": {},\n",
            "  \"n_seeds\": {},\n  \"n_adds\": {},\n",
            "  \"smoke_counters\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n}}\n"
        ),
        SEED,
        n_seeds,
        n_adds,
        c.to_inline_json(),
        scenarios.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soft_errors.json");
    std::fs::write(path, &json).expect("write BENCH_soft_errors.json");
    println!(
        "\nEvery recovery-tier completion above means the protected run reproduced\n\
         the fault-free stream bit for bit. Report: BENCH_soft_errors.json"
    );
}
