//! E17 — multi-tenant serving: sustained throughput, per-tier latency
//! and shed fraction as shard count, tenant count and offered load vary.
//!
//! A 10k-client open-loop population (Zipf-skewed across tenants,
//! splitmix64-keyed arrivals) submits self-verifying arithmetic jobs
//! through the `fu_host::serve` front-end: bounded per-tenant queues,
//! in-band load shedding, deficit-round-robin scheduling over the shard
//! farm. Every delivered completion is checked against the generator's
//! ground-truth value, so a scheduling bug cannot hide behind a good
//! throughput number. The sweep reports, per point: sustained ops/sec,
//! p50/p99 latency per weight tier (gold/silver/bronze), and the shed
//! fraction.
//!
//! The binary is also CI's serving gate: it runs the deterministic
//! serving smoke and compares its counters against
//! `ci/sim_speed_baseline.json` (completed/shed pinned exactly,
//! rounds/clock within 5%).
//!
//! ```text
//! cargo run --release -p bench --bin exp_serving [-- --smoke]
//! ```
//! (The baseline itself is rewritten by `exp_profile -- --write-baseline`.)

use bench::serving::{serving_run, serving_smoke, ServingRun};
use bench::{Table, FPGA_MHZ};

/// Fixed seed so runs (and the CI gate) are reproducible.
const SEED: u64 = 0x0E17_5EED;
/// Clients in the full sweep (the acceptance workload).
const CLIENTS: usize = 10_000;
/// Per-tenant queue bound for the sweep.
const QUEUE_DEPTH: usize = 32;
/// Mean per-client inter-arrival gaps, lightest first. Offered rate is
/// `clients × jobs / span ≈ 5000 / gap` jobs per cycle at 10k clients,
/// spanning under-saturation to heavy overload for every shard count.
const GAPS: &[u64] = &[200_000, 50_000, 12_500];

const BASELINE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/sim_speed_baseline.json"
);
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");

fn tier_json(r: &ServingRun) -> String {
    let fields: Vec<String> = r
        .tiers
        .iter()
        .map(|t| {
            let p = t.counters.latency.percentiles();
            format!(
                concat!(
                    "{{\"tier\": \"{}\", \"weight\": {}, \"tenants\": {}, ",
                    "\"submitted\": {}, \"completed\": {}, \"shed\": {}, ",
                    "\"p50_cycles\": {}, \"p99_cycles\": {}, \"shed_rate\": {:.4}}}"
                ),
                t.tier,
                t.weight,
                t.tenants,
                t.counters.submitted,
                t.counters.completed,
                t.counters.shed,
                p.p50,
                p.p99,
                t.counters.shed_rate()
            )
        })
        .collect();
    format!("[{}]", fields.join(", "))
}

fn scenario_json(r: &ServingRun) -> String {
    format!(
        concat!(
            "    {{\"shards\": {}, \"tenants\": {}, \"clients\": {}, ",
            "\"mean_gap_cycles\": {}, \"offered\": {}, \"admitted\": {}, ",
            "\"shed\": {}, \"completed\": {}, \"failed\": {}, ",
            "\"clock_cycles\": {}, \"rounds\": {}, ",
            "\"sustained_ops_per_sec\": {:.0}, \"shed_fraction\": {:.4}, ",
            "\"tiers\": {}}}"
        ),
        r.shards,
        r.tenants,
        r.clients,
        r.mean_gap,
        r.offered,
        r.admitted,
        r.shed,
        r.completed,
        r.failed,
        r.clock_cycles,
        r.rounds,
        r.ops_per_sec,
        r.shed_fraction,
        tier_json(r)
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ---- the deterministic serving gate ------------------------------
    let counts = serving_smoke();
    println!("serving smoke: {}", counts.to_inline_json());
    match std::fs::read_to_string(BASELINE_PATH) {
        Ok(text) => {
            let baseline = bench::profile::SmokeBaseline::from_json(&text).expect("parse baseline");
            counts
                .check_against(&baseline.serving)
                .expect("serving smoke regressed against ci/sim_speed_baseline.json");
            println!(
                "gate: serving smoke within its baseline bounds (baseline {})\n",
                baseline.serving.to_inline_json()
            );
        }
        Err(e) => println!(
            "gate skipped: {BASELINE_PATH} unreadable ({e}); run exp_profile -- --write-baseline\n"
        ),
    }

    // ---- the sweep ---------------------------------------------------
    let clients = if smoke { 500 } else { CLIENTS };
    let shard_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
    let tenant_counts: &[u32] = if smoke { &[4] } else { &[4, 16] };
    println!(
        "E17 — serving sweep, {clients} clients x 2 jobs, seed {SEED:#x}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("every completion verified against the generator's expected value\n");

    let mut runs: Vec<ServingRun> = Vec::new();
    for &shards in shard_counts {
        let mut t = Table::new([
            "tenants",
            "gap cyc",
            "offered",
            "completed",
            "shed %",
            "ops/sec",
            "gold p50/p99",
            "silver p50/p99",
            "bronze p50/p99",
        ]);
        for &tenants in tenant_counts {
            for &gap in GAPS {
                let r = serving_run(shards, tenants, clients, gap, QUEUE_DEPTH, SEED, true);
                let tier_pcts = |name: &str| {
                    r.tiers
                        .iter()
                        .find(|x| x.tier == name)
                        .map_or("—".to_string(), |x| {
                            let p = x.counters.latency.percentiles();
                            format!("{}/{}", p.p50, p.p99)
                        })
                };
                t.row([
                    tenants.to_string(),
                    gap.to_string(),
                    r.offered.to_string(),
                    r.completed.to_string(),
                    format!("{:.1}", r.shed_fraction * 100.0),
                    format!("{:.0}", r.ops_per_sec),
                    tier_pcts("gold"),
                    tier_pcts("silver"),
                    tier_pcts("bronze"),
                ]);
                runs.push(r);
            }
        }
        println!("shards: {shards}");
        t.print();
        println!();
    }

    // Acceptance sanity: conservation at every point; saturation sheds
    // but the lightest load on the widest farm mostly completes.
    for r in &runs {
        assert_eq!(r.offered, r.completed + r.failed + r.shed, "lost jobs");
        assert_eq!(r.failed, 0, "E17 must not fail jobs");
    }
    // Saturation shape is only meaningful at the full 10k-client load
    // (the smoke sweep is deliberately tiny; its shedding is exercised
    // by `serving_smoke` above).
    if !smoke {
        let widest = runs
            .iter()
            .filter(|r| r.shards == *shard_counts.last().unwrap() && r.mean_gap == GAPS[0])
            .max_by_key(|r| r.completed)
            .expect("swept configuration");
        assert!(
            widest.shed_fraction < 0.05,
            "light load on the widest farm should barely shed, got {:.1}%",
            widest.shed_fraction * 100.0
        );
        assert!(
            runs.iter().any(|r| r.shed > 0),
            "the sweep never saturated — offered loads are mis-tuned"
        );
    }

    // ---- artifact ----------------------------------------------------
    let scenarios: Vec<String> = runs.iter().map(scenario_json).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"serving\",\n  \"seed\": {},\n  \"smoke\": {},\n",
            "  \"clock_mhz\": {},\n  \"clients\": {},\n  \"queue_depth\": {},\n",
            "  \"smoke_counters\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n}}\n"
        ),
        SEED,
        smoke,
        FPGA_MHZ,
        clients,
        QUEUE_DEPTH,
        counts.to_inline_json(),
        scenarios.join(",\n")
    );
    std::fs::write(BENCH_PATH, &json).expect("write BENCH_serving.json");
    println!("wrote {BENCH_PATH}");
}
