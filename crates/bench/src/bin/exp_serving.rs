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
//! The binary also runs the deterministic serving smoke, which panics
//! when it loses, fails or mis-verifies a job or never sheds, and writes
//! its completion, shed, round and virtual-clock counts into the report.
//!
//! ```text
//! cargo run --release -p bench --bin exp_serving
//! ```

use bench::report::{self, Obj};
use bench::serving::{serving_run, serving_smoke, ServingRun};
use bench::{Table, FPGA_MHZ};

/// Fixed seed so runs (and the pinned report) are reproducible.
const SEED: u64 = 0x0E17_5EED;
/// Clients in the sweep (the acceptance workload).
const CLIENTS: usize = 10_000;
/// Shard counts swept, narrowest first.
const SHARDS: &[usize] = &[1, 2, 4];
/// Tenant counts swept.
const TENANTS: &[u32] = &[4, 16];
/// Per-tenant queue bound for the sweep.
const QUEUE_DEPTH: usize = 32;
/// Mean per-client inter-arrival gaps, lightest first. Offered rate is
/// `clients × jobs / span ≈ 5000 / gap` jobs per cycle at 10k clients,
/// spanning under-saturation to heavy overload for every shard count.
const GAPS: &[u64] = &[200_000, 50_000, 12_500];

fn scenario(r: &ServingRun) -> Obj {
    let tiers = r.tiers.iter().map(|t| {
        let p = t.counters.latency.percentiles();
        Obj::default()
            .val("tier", t.tier)
            .val("weight", t.weight)
            .val("tenants", t.tenants)
            .val("submitted", t.counters.submitted)
            .val("completed", t.counters.completed)
            .val("shed", t.counters.shed)
            .val("p50_cycles", p.p50)
            .val("p99_cycles", p.p99)
            .fixed("shed_rate", t.counters.shed_rate(), 4)
    });
    Obj::default()
        .val("shards", r.shards)
        .val("tenants", r.tenants)
        .val("clients", r.clients)
        .val("mean_gap_cycles", r.mean_gap)
        .val("offered", r.offered)
        .val("admitted", r.admitted)
        .val("shed", r.shed)
        .val("completed", r.completed)
        .val("failed", r.failed)
        .val("clock_cycles", r.clock_cycles)
        .val("rounds", r.rounds)
        .fixed("sustained_ops_per_sec", r.ops_per_sec, 0)
        .fixed("shed_fraction", r.shed_fraction, 4)
        .list("tiers", tiers)
}

fn main() {
    let counts = serving_smoke();
    println!("serving smoke: {}\n", counts.render(0));

    // ---- the sweep ---------------------------------------------------
    println!("E17 — serving sweep, {CLIENTS} clients x 2 jobs, seed {SEED:#x}");
    println!("every completion verified against the generator's expected value\n");

    let mut runs: Vec<ServingRun> = Vec::new();
    for &shards in SHARDS {
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
        for &tenants in TENANTS {
            for &gap in GAPS {
                let r = serving_run(shards, tenants, CLIENTS, gap, QUEUE_DEPTH, SEED, true);
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
    let widest = runs
        .iter()
        .filter(|r| r.shards == SHARDS[SHARDS.len() - 1] && r.mean_gap == GAPS[0])
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

    // ---- artifact ----------------------------------------------------
    let doc = Obj::default()
        .val("bench", "serving")
        .val("seed", SEED)
        .fixed("clock_mhz", FPGA_MHZ, 0)
        .val("clients", CLIENTS)
        .val("queue_depth", QUEUE_DEPTH)
        .obj("smoke_counters", counts)
        .list("scenarios", runs.iter().map(scenario));
    report::write("BENCH_serving.json", &doc);
}
