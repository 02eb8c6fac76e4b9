//! Two tenants share one coprocessor farm through the serving front-end.
//!
//! `batch` is a weight-4 tenant blasting a heavy burst; `interactive` is
//! a weight-1 tenant trickling requests. Both feed bounded queues in
//! front of a two-shard farm: when the batch burst overruns its queue
//! the service sheds in-band (the submitter is told immediately), and
//! deficit-round-robin keeps the interactive tenant's latency flat even
//! while the batch tenant saturates the shards. The printed SLO snapshot
//! shows the whole story: per-tenant p50/p99 latency, throughput and
//! shed rate.
//!
//! ```text
//! cargo run --release -p bench --example serving_demo
//! ```

use fu_host::serve::workload::client_job;
use fu_host::{
    Admission, Farm, FarmConfig, LinkModel, Placement, ServeConfig, Service, TenantSpec,
};
use fu_rtm::CoprocConfig;

const FPGA_MHZ: f64 = 50.0;

fn main() {
    let farm = Farm::standard(
        FarmConfig {
            shards: 2,
            seed: 0xDE30,
            placement: Placement::LeastLoaded,
            ..FarmConfig::default()
        },
        CoprocConfig::default(),
        LinkModel::pcie_like(),
    );
    let mut svc = Service::new(
        ServeConfig {
            queue_depth: 16,
            quantum: 8,
            round_jobs: 32,
            parallel: true,
        },
        vec![
            TenantSpec::new("batch", 4),
            TenantSpec::new("interactive", 1),
        ],
        farm,
    )
    .expect("valid service");

    // The batch tenant fires bursts of 24 jobs every 10k cycles; the
    // interactive tenant submits one job every 2k cycles. Jobs are the
    // self-verifying add-two-operands workload from the E17 generator.
    let mut shed = 0u64;
    let mut completions = Vec::new();
    for burst in 0u32..12 {
        let t0 = u64::from(burst) * 10_000;
        for k in 0u32..24 {
            let (job, _) = client_job(burst * 100 + k, k, k as u16);
            match svc.submit(0, t0, job).expect("submit") {
                Admission::Admitted { .. } => {}
                Admission::Overloaded { .. } => shed += 1,
                other @ Admission::UnknownTenant { .. } => panic!("{other:?}"),
            }
        }
        for k in 0u32..5 {
            let (job, _) = client_job(7 * burst, k, (200 + k) as u16);
            let tick = t0 + u64::from(k) * 2_000;
            if let Admission::Overloaded { .. } = svc.submit(1, tick, job).expect("submit") {
                shed += 1;
            }
        }
        // An epoll-style front-end collects whatever finished so far.
        completions.extend(svc.poll());
    }
    completions.extend(svc.drain().expect("drain"));

    println!(
        "served {} completions over {} virtual cycles ({} rounds); {shed} submissions shed in-band\n",
        completions.len(),
        svc.clock(),
        svc.stats().rounds
    );
    println!(
        "{:<12} {:>6} {:>9} {:>8} {:>5} {:>10} {:>10} {:>10} {:>8}",
        "tenant",
        "weight",
        "submitted",
        "complete",
        "shed",
        "p50 (cyc)",
        "p99 (cyc)",
        "ops/sec",
        "shed %"
    );
    for slo in svc.slo(FPGA_MHZ) {
        println!(
            "{:<12} {:>6} {:>9} {:>8} {:>5} {:>10} {:>10} {:>10.0} {:>7.1}%",
            slo.name,
            slo.weight,
            slo.submitted,
            slo.completed,
            slo.shed,
            slo.latency.p50,
            slo.latency.p99,
            slo.ops_per_sec,
            slo.shed_rate * 100.0
        );
    }
    println!(
        "\nThe interactive tenant's p99 stays near its p50 — deficit-round-robin\n\
         keeps its queue moving while the batch tenant saturates the farm and\n\
         absorbs the shedding its own burstiness causes."
    );
}
