//! Multi-tenant serving measurement (experiment E17).
//!
//! The farm experiments (E13/E15) measure the shard pool under batch
//! submission: all jobs present at t=0. E17 measures the serving layer
//! (`fu_host::serve`) the way a deployment would see it — an open-loop
//! population of clients, Zipf-skewed across tenants, submitting against
//! per-tenant bounded queues with deficit-round-robin scheduling. The
//! sweep varies shard count, tenant count and offered load, and reports
//! sustained throughput, per-tenant-tier latency percentiles and the
//! shed fraction; every delivered completion is verified against the
//! workload generator's ground-truth expected value.
//!
//! The CI smoke (`serving_smoke`) distils one saturated configuration
//! into deterministic completion, shed, round and virtual-clock counts,
//! which head `BENCH_serving.json`.

use std::collections::HashMap;

use fu_host::serve::workload::{open_loop, WorkloadSpec};
use fu_host::{
    Admission, Farm, FarmConfig, JobOutput, LinkModel, Placement, ServeConfig, Service, TenantSlo,
    TenantSpec,
};
use fu_isa::DevMsg;
use fu_rtm::CoprocConfig;
use rtl_sim::TenantCounters;

use crate::report::Obj;
use crate::FPGA_MHZ;

/// Tenant weight tiers: the first tenant is "gold" (weight 4), the next
/// three "silver" (weight 2), the rest "bronze" (weight 1). Zipf rank
/// order means the heavy tenants are also the big ones — the cruel case
/// for fairness, since the bronze tail must keep its share under a gold
/// flood.
#[must_use]
pub fn tenant_specs(tenants: u32) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|t| {
            let (tier, weight) = tier_of(t);
            TenantSpec::new(format!("{tier}-{t}"), weight)
        })
        .collect()
}

/// `(tier label, DRR weight)` for a tenant rank.
#[must_use]
pub fn tier_of(tenant: u32) -> (&'static str, u32) {
    match tenant {
        0 => ("gold", 4),
        1..=3 => ("silver", 2),
        _ => ("bronze", 1),
    }
}

/// Aggregate SLO for one weight tier of a run.
#[derive(Debug, Clone)]
pub struct TierSlo {
    /// Tier label (`gold` / `silver` / `bronze`).
    pub tier: &'static str,
    /// DRR weight of the tier's tenants.
    pub weight: u32,
    /// Tenants in the tier.
    pub tenants: u32,
    /// Merged counters (histograms merged element-wise).
    pub counters: TenantCounters,
}

/// One sweep point's outcome.
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// Shards in the farm.
    pub shards: usize,
    /// Tenants in the service.
    pub tenants: u32,
    /// Simulated client sessions.
    pub clients: usize,
    /// Mean per-client inter-arrival gap, cycles (offered load knob).
    pub mean_gap: u64,
    /// Jobs offered / admitted / shed / completed / failed.
    pub offered: u64,
    /// Jobs accepted into queues.
    pub admitted: u64,
    /// Jobs rejected in-band at admission.
    pub shed: u64,
    /// Jobs that completed successfully (all verified).
    pub completed: u64,
    /// Jobs that completed with an error.
    pub failed: u64,
    /// Virtual cycles from first arrival to the last round's end.
    pub clock_cycles: u64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Sustained successful operations per second at [`FPGA_MHZ`].
    pub ops_per_sec: f64,
    /// `shed / offered`, in `[0, 1]`.
    pub shed_fraction: f64,
    /// Per-tenant SLO snapshots.
    pub slo: Vec<TenantSlo>,
    /// Per-tier aggregate SLO.
    pub tiers: Vec<TierSlo>,
}

/// Run one E17 sweep point: generate the open-loop arrival sequence,
/// serve it to completion, verify every delivered result against the
/// generator's expected value, and distil the statistics.
///
/// # Panics
/// On a farm orchestration failure, a lost/duplicated completion, or a
/// completion whose payload differs from ground truth — all harness
/// bugs, not measured outcomes.
#[must_use]
pub fn serving_run(
    shards: usize,
    tenants: u32,
    clients: usize,
    mean_gap: u64,
    queue_depth: usize,
    seed: u64,
    parallel: bool,
) -> ServingRun {
    let spec = WorkloadSpec {
        clients,
        tenants,
        jobs_per_client: 2,
        mean_gap,
        seed,
    };
    let arrivals = open_loop(&spec);
    let farm = Farm::standard(
        FarmConfig {
            shards,
            seed,
            placement: Placement::LeastLoaded,
            ..FarmConfig::default()
        },
        CoprocConfig::default(),
        LinkModel::ideal(),
    );
    let mut svc = Service::new(
        ServeConfig {
            queue_depth,
            quantum: 8,
            round_jobs: 64,
            parallel,
        },
        tenant_specs(tenants),
        farm,
    )
    .expect("valid E17 service");

    let mut expected: HashMap<u64, u64> = HashMap::with_capacity(arrivals.len());
    let mut done = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        match svc
            .submit(a.tenant, a.tick, a.job.clone())
            .expect("E17 submit")
        {
            Admission::Admitted { seq } => {
                expected.insert(seq, a.expect);
            }
            Admission::Overloaded { .. } => {}
            other @ Admission::UnknownTenant { .. } => panic!("E17 submit: {other:?}"),
        }
        // Poll as a real front-end would; correctness does not depend on
        // the cadence (the serving test battery proves it).
        done.extend(svc.poll());
    }
    done.extend(svc.drain().expect("E17 drain"));

    for c in &done {
        let want = expected
            .remove(&c.seq)
            .expect("completion for an unadmitted or duplicated seq");
        match &c.output {
            Ok(JobOutput::Msgs(msgs)) => match &msgs[..] {
                [DevMsg::Data { value, .. }] => {
                    assert_eq!(value.as_u64(), want, "seq {} wrong payload", c.seq);
                }
                other => panic!("seq {}: unexpected responses {other:?}", c.seq),
            },
            other => panic!("seq {}: job failed: {other:?}", c.seq),
        }
    }
    assert!(
        expected.is_empty(),
        "{} admitted jobs never completed",
        expected.len()
    );

    let totals = svc.stats().totals();
    let clock = svc.clock();
    let slo = svc.slo(FPGA_MHZ);
    let tiers = tier_slos(&svc, tenants);
    ServingRun {
        shards,
        tenants,
        clients,
        mean_gap,
        offered: totals.submitted,
        admitted: totals.admitted,
        shed: totals.shed,
        completed: totals.completed,
        failed: totals.failed,
        clock_cycles: clock,
        rounds: svc.stats().rounds,
        ops_per_sec: if clock == 0 {
            0.0
        } else {
            totals.completed as f64 / (clock as f64 / (FPGA_MHZ * 1e6))
        },
        shed_fraction: totals.shed_rate(),
        slo,
        tiers,
    }
}

fn tier_slos(svc: &Service, tenants: u32) -> Vec<TierSlo> {
    let mut out: Vec<TierSlo> = Vec::new();
    for t in 0..tenants {
        let (tier, weight) = tier_of(t);
        let Some(c) = svc.stats().tenant(t) else {
            continue;
        };
        match out.iter_mut().find(|x| x.tier == tier) {
            Some(x) => {
                x.tenants += 1;
                x.counters += c;
            }
            None => out.push(TierSlo {
                tier,
                weight,
                tenants: 1,
                counters: c.clone(),
            }),
        }
    }
    out
}

/// Fixed seed for the CI serving smoke.
pub const SMOKE_SEED: u64 = 0x0E17_5EED;
/// Clients in the smoke (kept small; the full sweep runs 10k).
pub const SMOKE_CLIENTS: usize = 300;
/// Mean inter-arrival gap for the smoke: hot enough to saturate the
/// two-shard farm and force shedding through the bounded queues.
pub const SMOKE_GAP: u64 = 2_000;
/// Queue bound for the smoke.
pub const SMOKE_DEPTH: usize = 8;

/// Run the CI serving smoke and distil its deterministic counters.
/// Everything downstream of the seed is a pure function of it, so a
/// change in the completed or shed counts is an admission or scheduling
/// behaviour change, and one in the rounds or the virtual cycles to drain
/// the workload is a scheduler efficiency change.
///
/// # Panics
/// When the smoke loses a job, duplicates a completion, returns a wrong
/// payload, or fails to exercise shedding — each fails the build
/// outright rather than drifting a counter.
pub fn serving_smoke() -> Obj {
    let run = serving_run(
        2,
        4,
        SMOKE_CLIENTS,
        SMOKE_GAP,
        SMOKE_DEPTH,
        SMOKE_SEED,
        false,
    );
    assert!(run.shed > 0, "E17 smoke must exercise load shedding");
    assert!(run.failed == 0, "E17 smoke must not fail jobs");
    assert_eq!(
        run.offered,
        (SMOKE_CLIENTS * 2) as u64,
        "E17 smoke offered-load mismatch"
    );
    assert!(run.completed > 0, "E17 smoke must complete jobs");
    Obj::default()
        .val("jobs_completed", run.completed)
        .val("jobs_shed", run.shed)
        .val("rounds", run.rounds)
        .val("clock_cycles", run.clock_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_counters_are_deterministic() {
        assert_eq!(serving_smoke().render(0), serving_smoke().render(0));
    }

    #[test]
    fn tiers_cover_all_tenants() {
        let specs = tenant_specs(8);
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].weight, 4);
        assert_eq!(specs[1].weight, 2);
        assert_eq!(specs[4].weight, 1);
        let run = serving_run(1, 8, 40, 4_000, 16, 7, false);
        let tier_total: u64 = run.tiers.iter().map(|t| t.counters.submitted).sum();
        assert_eq!(tier_total, run.offered);
        assert_eq!(run.completed + run.shed + run.failed, run.offered);
    }
}
