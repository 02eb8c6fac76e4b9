//! `serve_zipf`: an open-loop, multi-tenant `Service` shaped like E17.
//!
//! Zipf-skewed clients over gold/silver/bronze tenants submit
//! self-checking adds against bounded per-tenant queues; a two-shard
//! standard farm on the ideal link serves them in deficit-round-robin
//! rounds, each round through `Farm::run_serial`. Thousands of tiny
//! rounds make host time mostly per-round orchestration.
//!
//! Rounds run serially (`parallel: false`), which gives bit-identical
//! simulated results. With `parallel: true` every round spawns two
//! threads, and on a two-vCPU VM shared with other tenants that made an
//! iteration's wall time swing 4.5x and its CPU time 1.4x between runs,
//! with the hypervisor rather than the program setting the figure.
//!
//! Open loop: arrivals carry their own simulated ticks, fixed by the
//! seed before the run starts, so the generator can never run late on
//! the host clock and load does not fall when the system slows down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fu_host::{
    Admission, Farm, FarmConfig, Job, JobOutput, LinkModel, Placement, ServeConfig, Service,
    System, TenantSpec,
};
use fu_isa::{funit_codes, ArithOp, DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::{CoprocConfig, FunctionalUnit};

use crate::reference::{splitmix64, Rng};
use crate::trace::{self, wrap_units, Tracer};
use crate::workload::{sim_layer, standard_units_32, Outcome, Workload};

/// The `serve_zipf` shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeZipf {
    /// Client sessions; each submits jobs until `horizon`.
    pub clients: usize,
    /// Last cycle a client may submit at. Fixing the arrival window,
    /// rather than the job count, keeps the modelled makespan from
    /// following the slowest client's random walk.
    pub horizon: u64,
    /// Tenants the clients are spread over (Zipf by rank).
    pub tenants: u32,
    /// Mean per-client inter-arrival gap, in cycles (the load knob).
    pub mean_gap: u64,
    /// Per-tenant queue bound.
    pub queue_depth: usize,
    /// Farm shards (and worker threads).
    pub shards: usize,
    /// Submission → completion latency limit, in cycles.
    pub slo_limit: u64,
    /// The functional units every system is built with.
    pub units: fn() -> Vec<Box<dyn FunctionalUnit>>,
}

impl Default for ServeZipf {
    fn default() -> ServeZipf {
        ServeZipf {
            clients: 2000,
            horizon: 280_000,
            tenants: 16,
            mean_gap: 14_000,
            queue_depth: 32,
            shards: 2,
            slo_limit: 8_000,
            units: standard_units_32,
        }
    }
}

/// One generated submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Arrival tick, in simulated cycles.
    pub tick: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Write x and y, add, read the sum back.
    pub job: Job,
    /// The sum the readback must carry.
    pub expect: u32,
}

/// Generated arrivals for one seed.
#[derive(Debug, Clone)]
pub struct Input {
    /// Farm seed.
    pub seed: u64,
    /// Arrivals in submission order.
    pub arrivals: Vec<Arrival>,
}

/// Tenant rank → DRR weight: gold 4, silver 2, bronze 1.
fn weight(tenant: u32) -> u32 {
    match tenant {
        0 => 4,
        1..=3 => 2,
        _ => 1,
    }
}

fn add_job(x: u32, y: u32, tag: u16) -> Job {
    Job::Requests(vec![
        HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(u64::from(x), 32),
        },
        HostMsg::WriteReg {
            reg: 2,
            value: Word::from_u64(u64::from(y), 32),
        },
        HostMsg::Instr(InstrWord::user(UserInstr {
            func: funit_codes::ARITH,
            variety: ArithOp::Add.variety().0,
            dst_flag: 1,
            dst_reg: 3,
            aux_reg: 0,
            src1: 1,
            src2: 2,
            src3: 0,
        })),
        HostMsg::ReadReg { reg: 3, tag },
    ])
}

impl Workload for ServeZipf {
    type Input = Input;
    /// The service, and a count of the builder closure's calls.
    type Sys = (Service, Arc<AtomicU64>);

    fn prepare(&self, seed: u64) -> Input {
        // Zipf(1) over tenant ranks, as exact client quotas (largest
        // remainder) dealt out in a seeded shuffle: the seed moves clients
        // between tenants, never the tenants' shares of the load.
        let weights: Vec<u64> = (0..u64::from(self.tenants))
            .map(|r| (1u64 << 16) / (r + 1))
            .collect();
        let total: u64 = weights.iter().sum();
        let clients = self.clients as u64;
        let mut quota: Vec<u64> = weights.iter().map(|w| clients * w / total).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by_key(|&t| std::cmp::Reverse(clients * weights[t] % total));
        let short = clients - quota.iter().sum::<u64>();
        for &t in by_remainder.iter().take(short as usize) {
            quota[t] += 1;
        }
        let mut tenant_of: Vec<u32> = quota
            .iter()
            .enumerate()
            .flat_map(|(t, &n)| std::iter::repeat_n(t as u32, n as usize))
            .collect();
        let mut deal = Rng::new(seed, 0x7E4A);
        for i in (1..tenant_of.len()).rev() {
            tenant_of.swap(i, deal.below(i as u64 + 1) as usize);
        }
        let per_client = self.horizon / self.mean_gap.max(1) + 1;
        let mut arrivals = Vec::with_capacity(self.clients * per_client as usize);
        for (c, &tenant) in tenant_of.iter().enumerate() {
            let mut rng = Rng::new(seed, splitmix64(c as u64 ^ 0x5E57_E000));
            let mut tick = 1 + rng.below(2 * self.mean_gap.max(1));
            while tick <= self.horizon {
                let (x, y) = (rng.next_u32(), rng.next_u32());
                arrivals.push(Arrival {
                    tick,
                    tenant,
                    job: add_job(x, y, rng.next_u32() as u16),
                    expect: x.wrapping_add(y),
                });
                tick += 1 + rng.below(2 * self.mean_gap.max(1));
            }
        }
        arrivals.sort_by_key(|a| a.tick);
        Input { seed, arrivals }
    }

    fn build(&self, input: &Input, tracer: Option<&Arc<Tracer>>) -> Self::Sys {
        let cfg = FarmConfig {
            shards: self.shards,
            seed: input.seed,
            placement: Placement::LeastLoaded,
            ..FarmConfig::default()
        };
        let tracer = tracer.cloned();
        let builds = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&builds);
        let units = self.units;
        // The same shard `Farm::standard` builds, with the units wrapped
        // and the build timed when tracing.
        let farm = Farm::new(cfg, move |_ctx| {
            counter.fetch_add(1, Ordering::Relaxed);
            let coproc = CoprocConfig::default();
            match &tracer {
                None => System::new(coproc, units(), LinkModel::ideal()),
                Some(t) => t.span_arg("farm.build_shard", || {
                    (
                        System::new(coproc, wrap_units(units(), t), LinkModel::ideal()),
                        0,
                    )
                }),
            }
        });
        let tenants = (0..self.tenants)
            .map(|t| TenantSpec::new(format!("t{t}"), weight(t)))
            .collect();
        let svc = Service::new(
            ServeConfig {
                queue_depth: self.queue_depth,
                quantum: 8,
                round_jobs: 64,
                parallel: false,
            },
            tenants,
            farm,
        )
        .expect("a two-shard farm is a valid service");
        (svc, builds)
    }

    fn run(&self, input: &Input, sys: Self::Sys, tracer: Option<&Tracer>) -> Outcome {
        let (mut svc, builds) = sys;
        let mut out = Outcome {
            offered: input.arrivals.len() as u64,
            slo_limit: self.slo_limit,
            ..Outcome::default()
        };
        // Expected sum per admitted sequence number (seqs count up from 0).
        let mut expect: Vec<u32> = Vec::with_capacity(input.arrivals.len());
        let mut done = Vec::with_capacity(input.arrivals.len());
        let mut farm_failed = false;
        for a in &input.arrivals {
            let adm = trace::span_arg(tracer, "serve.submit", || {
                let before = svc.stats().rounds;
                let r = svc.submit(a.tenant, a.tick, a.job.clone());
                (r, svc.stats().rounds - before)
            });
            match adm {
                Ok(Admission::Admitted { seq }) if seq == expect.len() as u64 => {
                    expect.push(a.expect);
                }
                Ok(Admission::Overloaded { .. }) => out.shed += 1,
                _ => {
                    farm_failed = true;
                    break;
                }
            }
            done.extend(trace::span(tracer, "serve.poll", || svc.poll()));
        }
        match trace::span_arg(tracer, "serve.drain", || {
            let before = svc.stats().rounds;
            let r = svc.drain();
            (r, svc.stats().rounds - before)
        }) {
            Ok(rest) => done.extend(rest),
            Err(_) => farm_failed = true,
        }

        let mut seen = vec![false; expect.len()];
        let mut waits = Vec::with_capacity(done.len());
        for c in &done {
            let Some(&want) = expect.get(c.seq as usize) else {
                continue;
            };
            if std::mem::replace(&mut seen[c.seq as usize], true) {
                continue; // a duplicate completion: the job stays unverified
            }
            let ok = matches!(
                &c.output,
                Ok(JobOutput::Msgs(m))
                    if matches!(&m[..], [DevMsg::Data { value, .. }] if value.as_u64() == u64::from(want))
            );
            if ok {
                out.verified += 1;
                out.latencies.push(c.completed_at - c.submitted_at);
                waits.push(c.completed_at - c.submitted_at - c.cycles);
            }
        }
        // Admitted jobs that never verified (wrong, failed, lost) and every
        // offered job a failed farm never got to are errors.
        let admitted = if farm_failed {
            out.offered - out.shed
        } else {
            expect.len() as u64
        };
        out.errors = admitted - out.verified;
        out.makespan = svc.clock();

        sim_layer(&mut out, svc.sim_stats());
        let st = svc.stats();
        let l = &mut out.layer;
        l.insert("serve.rounds", st.rounds as f64);
        l.insert(
            "serve.jobs_per_round",
            if st.rounds == 0 {
                0.0
            } else {
                st.dispatched as f64 / st.rounds as f64
            },
        );
        l.insert(
            "serve.wait_p99_cycles",
            crate::stats::percentile(&waits, 0.99).value as f64,
        );
        l.insert("farm.shard_builds", builds.load(Ordering::Relaxed) as f64);
        out
    }
}
