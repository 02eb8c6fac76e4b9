//! `batch_mixed`: one `Farm::run_parallel` call over two heterogeneous
//! shards, every job present at t = 0.
//!
//! Each shard carries the standard units plus a χ-sort adapter on the
//! pcie-like link. Jobs interleave assembly programs (load eight
//! registers, ~64 ALU operations, read the registers back) with 64-value
//! χ-sorts. Orchestration cost is near zero here, so host time goes to
//! the assembler, the RTM pipeline, driver pacing and the χ-sort arena:
//! this is the no-change control for farm and serving optimisations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fu_host::{Farm, FarmConfig, Job, JobOutput, LinkModel, System};
use fu_isa::DevMsg;
use fu_rtm::{CoprocConfig, FunctionalUnit};
use xi_sort::{XiConfig, XiSortAdapter};

use crate::reference::{ArithProgram, Rng, ARITH_REGS};
use crate::trace::{self, wrap_units, Tracer};
use crate::workload::{sim_layer, standard_units_32, Outcome, Workload};

/// The `batch_mixed` shape.
#[derive(Debug, Clone, Copy)]
pub struct BatchMixed {
    /// Assembly-program jobs.
    pub arith_jobs: usize,
    /// χ-sort jobs, spread evenly among the programs.
    pub xi_jobs: usize,
    /// ALU operations per program.
    pub ops_per_job: usize,
    /// Values per sort (also the sorter's cell count).
    pub xi_len: usize,
    /// Farm shards (and worker threads).
    pub shards: usize,
    /// Batch start → completion latency limit, in cycles.
    pub slo_limit: u64,
    /// The functional units every shard is built with, besides the
    /// χ-sort adapter.
    pub units: fn() -> Vec<Box<dyn FunctionalUnit>>,
}

impl Default for BatchMixed {
    fn default() -> BatchMixed {
        BatchMixed {
            arith_jobs: 1600,
            xi_jobs: 400,
            ops_per_job: 64,
            xi_len: 64,
            shards: 2,
            slo_limit: 2_500_000,
            units: standard_units_32,
        }
    }
}

/// What a job must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Register values after the program, and its instruction count.
    Arith([u32; ARITH_REGS], u64),
    /// The sorted values.
    Sorted(Vec<u32>),
}

/// Generated jobs with their expected outputs.
#[derive(Debug, Clone)]
pub struct Input {
    /// Farm seed.
    pub seed: u64,
    /// Jobs in submission order.
    pub jobs: Vec<Job>,
    /// Expected output per job.
    pub expect: Vec<Expect>,
}

fn shard_units(
    units: fn() -> Vec<Box<dyn FunctionalUnit>>,
    xi_len: usize,
) -> Vec<Box<dyn FunctionalUnit>> {
    let mut units = units();
    units.push(Box::new(XiSortAdapter::new(
        XiConfig::new(xi_len as u32),
        32,
    )));
    units
}

impl Workload for BatchMixed {
    type Input = Input;
    /// The farm, and a count of the builder closure's calls.
    type Sys = (Farm, Arc<AtomicU64>);

    fn prepare(&self, seed: u64) -> Input {
        let mut rng = Rng::new(seed, 0xBA7C);
        let total = self.arith_jobs + self.xi_jobs;
        let mut jobs = Vec::with_capacity(total);
        let mut expect = Vec::with_capacity(total);
        for i in 0..total {
            // Bresenham spread: job i is a sort when the running share of
            // sorts steps up at i.
            let is_xi = (i + 1) * self.xi_jobs / total > i * self.xi_jobs / total;
            if is_xi {
                let values: Vec<u32> = (0..self.xi_len).map(|_| rng.next_u32()).collect();
                let mut sorted = values.clone();
                sorted.sort_unstable();
                jobs.push(Job::XiSort(values));
                expect.push(Expect::Sorted(sorted));
            } else {
                let p = ArithProgram::random(&mut rng, self.ops_per_job);
                jobs.push(Job::Program {
                    source: p.source(),
                    reads: (0..ARITH_REGS as u8).collect(),
                });
                expect.push(Expect::Arith(p.expected(), p.instructions()));
            }
        }
        Input { seed, jobs, expect }
    }

    fn build(&self, input: &Input, tracer: Option<&Arc<Tracer>>) -> Self::Sys {
        let cfg = FarmConfig {
            shards: self.shards,
            seed: input.seed,
            ..FarmConfig::default()
        };
        let tracer = tracer.cloned();
        let builds = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&builds);
        let (units, xi_len) = (self.units, self.xi_len);
        let farm = Farm::new(cfg, move |_ctx| {
            counter.fetch_add(1, Ordering::Relaxed);
            let coproc = CoprocConfig::default();
            match &tracer {
                None => System::new(coproc, shard_units(units, xi_len), LinkModel::pcie_like()),
                Some(t) => t.span_arg("farm.build_shard", || {
                    let units = wrap_units(shard_units(units, xi_len), t);
                    (System::new(coproc, units, LinkModel::pcie_like()), 0)
                }),
            }
        });
        (farm, builds)
    }

    fn run(&self, input: &Input, sys: Self::Sys, tracer: Option<&Tracer>) -> Outcome {
        let (mut farm, builds) = sys;
        let mut out = Outcome {
            offered: input.jobs.len() as u64,
            slo_limit: self.slo_limit,
            ..Outcome::default()
        };
        let Ok(results) = trace::span(tracer, "farm.run_parallel", || {
            farm.run_parallel(&input.jobs)
        }) else {
            out.errors = out.offered;
            return out;
        };

        let mut shard_busy = vec![0u64; self.shards];
        let (mut arith_cycles, mut arith_instrs) = (0u64, 0u64);
        let (mut sorts, mut rounds, mut sort_cycles) = (0u64, 0u64, 0u64);
        for r in &results {
            // Shards run their jobs in submission order, so a job ends at
            // the shard-local prefix sum of job cycles.
            shard_busy[r.shard] += r.cycles;
            let ok = match (&input.expect[r.job], &r.output) {
                (Expect::Arith(want, instrs), Ok(JobOutput::Msgs(msgs))) => {
                    arith_cycles += r.cycles;
                    arith_instrs += instrs;
                    msgs.len() == ARITH_REGS
                        && msgs.iter().zip(want).all(|(m, &w)| {
                            matches!(m, DevMsg::Data { value, .. } if value.as_u64() == u64::from(w))
                        })
                }
                (Expect::Sorted(want), Ok(JobOutput::Sorted { rounds: n, values })) => {
                    sorts += 1;
                    rounds += n;
                    sort_cycles += r.cycles;
                    values == want
                }
                _ => false,
            };
            if ok {
                out.verified += 1;
                out.latencies.push(shard_busy[r.shard]);
            }
        }
        out.errors = out.offered - out.verified;
        out.makespan = farm.makespan_cycles();

        sim_layer(&mut out, &farm.sim_stats());
        let total = farm.total_cycles();
        let l = &mut out.layer;
        l.insert("farm.shard_builds", builds.load(Ordering::Relaxed) as f64);
        l.insert(
            "farm.imbalance",
            if total == 0 {
                0.0
            } else {
                (out.makespan * self.shards as u64) as f64 / total as f64
            },
        );
        l.insert(
            "rtm.cpi_arith",
            if arith_instrs == 0 {
                0.0
            } else {
                arith_cycles as f64 / arith_instrs as f64
            },
        );
        l.insert("xi.sorts", sorts as f64);
        l.insert("xi.refine_rounds", rounds as f64);
        l.insert(
            "xi.cycles_per_sort",
            if sorts == 0 {
                0.0
            } else {
                sort_cycles as f64 / sorts as f64
            },
        );
        out
    }
}
