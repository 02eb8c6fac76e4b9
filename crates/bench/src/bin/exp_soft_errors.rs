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
//! cargo run --release -p bench --bin exp_soft_errors
//! ```

use bench::report::{self, Obj};
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
/// Seeds per sweep point.
const N_SEEDS: u64 = 8;
/// Dependent adds per run.
const N_ADDS: usize = 192;

fn main() {
    println!("E16 — soft-error resilience sweep");
    println!(
        "workload: {N_ADDS} dependent ADDs + periodic read-back, {N_SEEDS} seeds per point\n\
         completion = response stream bit-identical to the fault-free reference\n"
    );

    let mut scenarios = Vec::new();
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
                let clean = resilience_run(p, None, ckpt.max(1), N_ADDS);
                assert!(clean.drained, "fault-free reference failed to drain");
                let mut completed = 0u64;
                let mut overhead_sum = 0.0f64;
                let mut inj = 0u64;
                let mut det = 0u64;
                let mut corr = 0u64;
                let mut rollbacks = 0u64;
                let mut lost = 0u64;
                for s in 0..N_SEEDS {
                    let seu = SeuConfig::all(SEED + s * 7919 + interval, interval);
                    let run = resilience_run(p, Some(seu), ckpt.max(1), N_ADDS);
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
                let overhead = overhead_sum / N_SEEDS as f64;
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
                    format!("{completed}/{N_SEEDS}"),
                    format!("{:+.2}%", overhead * 100.0),
                    format!("{inj}/{det}/{corr}"),
                    rollbacks.to_string(),
                    format!("{mean_lost:.0}"),
                ]);
                scenarios.push(
                    Obj::default()
                        .val("protection", p.label())
                        .val("mean_interval", interval)
                        .val("ckpt_interval", ckpt)
                        .val("seeds", N_SEEDS)
                        .val("completed", completed)
                        .fixed("mean_work_overhead", overhead, 4)
                        .val("seus_injected", inj)
                        .val("seus_detected", det)
                        .val("seus_corrected", corr)
                        .val("rollbacks", rollbacks)
                        .val("cycles_lost", lost)
                        .fixed("mean_cycles_lost_per_rollback", mean_lost, 1),
                );
            }
        }
        t.print();
        println!();
    }

    // The deterministic smoke counters, pinned with the rest of the
    // report. Panics on any resilience regression.
    let c = soft_error_smoke();
    println!("smoke counters: {}", c.render(0));

    let doc = Obj::default()
        .val("bench", "soft_errors")
        .val("seed", SEED)
        .val("n_seeds", N_SEEDS)
        .val("n_adds", N_ADDS)
        .obj("smoke_counters", c)
        .list("scenarios", scenarios);
    report::write("BENCH_soft_errors.json", &doc);
    println!(
        "\nEvery recovery-tier completion above means the protected run reproduced\n\
         the fault-free stream bit for bit."
    );
}
