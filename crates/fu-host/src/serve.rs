//! Multi-tenant serving front-end over the coprocessor [`Farm`].
//!
//! The paper's framework assumes many host processes sharing the FPGA's
//! functional units; Lin et al. (PAPERS.md) make the same point for
//! chip-multiprocessor integration — an accelerator earns its area only
//! when *many* clients can share it cheaply. The farm (PR 3) gave us the
//! hardware-facing half of that story: N shards, deterministic batch
//! execution. This module adds the client-facing half — a service that
//! multiplexes thousands of concurrent sessions onto the shard pool:
//!
//! * **Per-tenant submission queues** with a bounded depth. Admission
//!   control is in-band: a full queue returns [`Admission::Overloaded`]
//!   to the caller instead of growing memory or silently dropping work.
//! * **Deficit-round-robin fairness.** Each scheduling round walks the
//!   tenants from a rotating cursor, crediting `quantum × weight` cost
//!   units per visit; a tenant dispatches jobs while its deficit covers
//!   their [`Job::cost`]. Under saturation every backlogged tenant's
//!   admitted-work share converges to its weight share, regardless of
//!   how unevenly traffic arrives.
//! * **Session → job-batch compilation.** The service never touches the
//!   deterministic core: admitted jobs are compiled into ordinary farm
//!   batches and executed through [`Farm::run_parallel`] /
//!   [`Farm::run_serial`] unchanged, so every bit-identity proof about
//!   shards (modes, threading, faults, recovery) carries over verbatim.
//! * **Virtual-clock poll loop.** The service keeps an explicit virtual
//!   clock in simulated cycles: a round *starts* when the farm is free
//!   and work is waiting, and *ends* `makespan` cycles later. Arrivals
//!   carry their own ticks (open-loop), so offered load, queueing delay
//!   and shedding interact exactly as in a real server — but every
//!   decision is a pure function of the submission sequence, never of
//!   host wall-clock or thread timing.
//! * **Per-tenant SLO accounting** on the existing log2-bucket
//!   histograms ([`rtl_sim::TenantCounters`], with the same `Add`/`Sum`
//!   rollups as the farm's shard stats): p50/p99 submission→completion
//!   latency, throughput, shed rate.
//!
//! The [`workload`] submodule provides the seeded open-loop generator
//! (Zipf-skewed tenant sizes, splitmix64-keyed arrivals — the same
//! derivation discipline as the link fault model) used by the E17 bench
//! and the serving test battery.

use std::collections::VecDeque;

use crate::driver::DriverError;
use crate::farm::{Farm, FarmError, Job, JobOutput};
use crate::link::LinkStats;
use rtl_sim::{Percentiles, ServeStats, SimStats, TenantCounters};

/// Tenant identity: an index into the service's tenant table.
pub type TenantId = u32;

/// One tenant of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Human-readable name (reports and demos).
    pub name: String,
    /// Deficit-round-robin weight. Must be ≥ 1; under saturation a
    /// tenant's admitted-work share converges to `weight / Σ weights`.
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant with the given name and weight (clamped to ≥ 1).
    pub fn new(name: impl Into<String>, weight: u32) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight: weight.max(1),
        }
    }
}

/// Service-level knobs. The shard pool itself is configured on the
/// [`Farm`] passed to [`Service::new`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-tenant submission-queue bound. A submit that would exceed it
    /// is rejected in-band with [`Admission::Overloaded`] — that is the
    /// load shedding, not an error.
    pub queue_depth: usize,
    /// Deficit-round-robin quantum: cost units credited per tenant visit
    /// per weight unit. Larger quanta lower scheduling overhead but
    /// coarsen fairness granularity.
    pub quantum: u64,
    /// Maximum jobs dispatched to the farm per scheduling round.
    pub round_jobs: usize,
    /// Execute rounds through [`Farm::run_parallel`] (`true`) or
    /// [`Farm::run_serial`] (`false`). Bit-identical either way — the
    /// farm's core contract — so this only trades host wall-clock.
    pub parallel: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_depth: 64,
            quantum: 8,
            round_jobs: 64,
            parallel: true,
        }
    }
}

/// The in-band answer to a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The job was queued; its completion will carry `seq`.
    Admitted {
        /// Service-wide submission sequence number.
        seq: u64,
    },
    /// The tenant's queue is full; the job was rejected (shed). The
    /// caller may retry later — nothing was enqueued.
    Overloaded {
        /// The tenant whose queue was full.
        tenant: TenantId,
        /// The configured bound that was hit.
        queue_depth: usize,
    },
    /// No tenant has this id; nothing was enqueued or counted.
    UnknownTenant {
        /// The id the caller passed.
        tenant: TenantId,
    },
}

/// One finished job, delivered through [`Service::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The sequence number [`Admission::Admitted`] returned.
    pub seq: u64,
    /// The tenant that submitted the job.
    pub tenant: TenantId,
    /// Submission tick, in virtual cycles.
    pub submitted_at: u64,
    /// Completion time, in virtual cycles (round start + the shard-local
    /// prefix of job execution within the round).
    pub completed_at: u64,
    /// Shard cycles the job's execution consumed.
    pub cycles: u64,
    /// The shard that executed the job.
    pub shard: usize,
    /// Responses, or the driver error the job failed with (errors are
    /// data — a failing job is *completed*, never lost).
    pub output: Result<JobOutput, DriverError>,
}

/// Per-tenant service-level objective snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant id.
    pub tenant: TenantId,
    /// Tenant name.
    pub name: String,
    /// DRR weight.
    pub weight: u32,
    /// Jobs offered / accepted / rejected / completed / failed.
    pub submitted: u64,
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs rejected at admission.
    pub shed: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that completed with an error.
    pub failed: u64,
    /// Submission→completion latency percentiles, in virtual cycles.
    pub latency: Percentiles,
    /// Mean submission→completion latency, in virtual cycles.
    pub mean_latency: f64,
    /// Completed operations per second at `clock_mhz`.
    pub ops_per_sec: f64,
    /// Fraction of submitted jobs shed, in `[0, 1]`.
    pub shed_rate: f64,
}

struct Lane {
    spec: TenantSpec,
    deficit: u64,
    queue: VecDeque<Pending>,
}

struct Pending {
    seq: u64,
    tenant: TenantId,
    arrival: u64,
    cost: u64,
    job: Job,
}

/// The serving front-end. See the module docs for the model.
pub struct Service {
    cfg: ServeConfig,
    farm: Farm,
    lanes: Vec<Lane>,
    /// Virtual clock: the cycle at which the farm becomes free.
    clock: u64,
    /// Highest submission tick seen (ticks must be monotone).
    last_tick: u64,
    next_seq: u64,
    /// Rotating DRR start position, advanced once per round so no tenant
    /// permanently enjoys first-scan advantage.
    cursor: usize,
    completions: Vec<Completion>,
    stats: ServeStats,
    sim: SimStats,
    link: LinkStats,
}

impl Service {
    /// A service multiplexing `tenants` onto `farm`.
    ///
    /// # Errors
    /// [`FarmError::NoShards`] when the farm has no shards, and
    /// [`FarmError::NoTenants`] when `tenants` is empty.
    pub fn new(
        cfg: ServeConfig,
        tenants: Vec<TenantSpec>,
        farm: Farm,
    ) -> Result<Service, FarmError> {
        if farm.config().shards == 0 {
            return Err(FarmError::NoShards);
        }
        if tenants.is_empty() {
            return Err(FarmError::NoTenants);
        }
        let lanes = tenants
            .into_iter()
            .map(|spec| Lane {
                spec: TenantSpec::new(spec.name, spec.weight),
                deficit: 0,
                queue: VecDeque::new(),
            })
            .collect();
        Ok(Service {
            cfg,
            farm,
            lanes,
            clock: 0,
            last_tick: 0,
            next_seq: 0,
            cursor: 0,
            completions: Vec::new(),
            stats: ServeStats::default(),
            sim: SimStats::default(),
            link: LinkStats::default(),
        })
    }

    /// Service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The farm the rounds run on; its shards are the last round's.
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.lanes.len()
    }

    /// The virtual clock, in cycles: when the farm becomes free.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// True when no admitted job is still queued.
    pub fn is_idle(&self) -> bool {
        self.lanes.iter().all(|l| l.queue.is_empty())
    }

    /// Jobs admitted but not yet dispatched, across all tenants.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Completions produced but not yet collected by [`Service::poll`].
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Submit one job for `tenant` at virtual time `tick` (cycles).
    /// Ticks must be non-decreasing across calls; the open-loop contract
    /// is that the *caller* owns the arrival process.
    ///
    /// Before admission the service first runs every scheduling round
    /// that would have started strictly before `tick` — this is what
    /// makes queue state (and therefore shedding) a function of offered
    /// load rather than of call batching.
    ///
    /// # Errors
    /// [`FarmError`] on orchestration failures inside a round. Shedding
    /// is *not* an error: it returns [`Admission::Overloaded`], and an
    /// unknown tenant id returns [`Admission::UnknownTenant`] before any
    /// round runs.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        tick: u64,
        job: Job,
    ) -> Result<Admission, FarmError> {
        if tenant as usize >= self.lanes.len() {
            return Ok(Admission::UnknownTenant { tenant });
        }
        let tick = tick.max(self.last_tick);
        self.last_tick = tick;
        self.advance_to(tick)?;
        let cost = job.cost();
        let counters = self.stats.tenant_mut(tenant);
        counters.submitted += 1;
        let lane = &mut self.lanes[tenant as usize];
        if lane.queue.len() >= self.cfg.queue_depth.max(1) {
            self.stats.tenant_mut(tenant).shed += 1;
            return Ok(Admission::Overloaded {
                tenant,
                queue_depth: self.cfg.queue_depth.max(1),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.tenant_mut(tenant).admitted += 1;
        self.lanes[tenant as usize].queue.push_back(Pending {
            seq,
            tenant,
            arrival: tick,
            cost,
            job,
        });
        Ok(Admission::Admitted { seq })
    }

    /// Collect every completion produced since the last poll, in
    /// dispatch order. Non-blocking; polling is pure observation, so any
    /// interleaving of `poll` with `submit` leaves behaviour unchanged.
    pub fn poll(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Drop everything `tenant` still has queued (a mid-session
    /// disconnect). Cancelled jobs are accounted, never silently lost.
    /// Returns how many jobs were cancelled, or `None` when no tenant has
    /// the id `tenant`, in which case nothing changes.
    pub fn disconnect(&mut self, tenant: TenantId) -> Option<u64> {
        let lane = self.lanes.get_mut(tenant as usize)?;
        let dropped = lane.queue.len() as u64;
        lane.queue.clear();
        lane.deficit = 0;
        self.stats.tenant_mut(tenant).cancelled += dropped;
        Some(dropped)
    }

    /// Run every scheduling round that would start strictly before
    /// `tick`. Splitting one call into many (or interleaving with
    /// `poll`) cannot change any outcome: rounds are replayed in the
    /// same order with the same start times either way.
    ///
    /// # Errors
    /// [`FarmError`] on orchestration failures inside a round.
    pub fn advance_to(&mut self, tick: u64) -> Result<(), FarmError> {
        self.last_tick = self.last_tick.max(tick);
        loop {
            let Some(oldest) = self.oldest_arrival() else {
                return Ok(());
            };
            let start = self.clock.max(oldest);
            if start >= tick {
                return Ok(());
            }
            self.run_round(start)?;
        }
    }

    /// Flush: run rounds until every queue is empty, then return all
    /// uncollected completions.
    ///
    /// # Errors
    /// [`FarmError`] on orchestration failures inside a round.
    pub fn drain(&mut self) -> Result<Vec<Completion>, FarmError> {
        while let Some(oldest) = self.oldest_arrival() {
            let start = self.clock.max(oldest);
            self.run_round(start)?;
        }
        Ok(self.poll())
    }

    /// Tenant-keyed serving statistics (rounds, dispatches, per-tenant
    /// counters with latency histograms). Merges across services with
    /// `+`/`sum()` like every other stats block.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Scheduler statistics summed over every round's farm run.
    pub fn sim_stats(&self) -> &SimStats {
        &self.sim
    }

    /// Link/transport statistics summed over every round's farm run.
    pub fn link_stats(&self) -> LinkStats {
        self.link
    }

    /// Per-tenant SLO snapshot at the FPGA clock `clock_mhz`.
    pub fn slo(&self, clock_mhz: f64) -> Vec<TenantSlo> {
        let elapsed_secs = if self.clock == 0 {
            0.0
        } else {
            self.clock as f64 / (clock_mhz * 1e6)
        };
        self.lanes
            .iter()
            .enumerate()
            .map(|(id, lane)| {
                let id = id as TenantId;
                let empty = TenantCounters::default();
                let c = self.stats.tenant(id).unwrap_or(&empty);
                TenantSlo {
                    tenant: id,
                    name: lane.spec.name.clone(),
                    weight: lane.spec.weight,
                    submitted: c.submitted,
                    admitted: c.admitted,
                    shed: c.shed,
                    completed: c.completed,
                    failed: c.failed,
                    latency: c.latency.percentiles(),
                    mean_latency: c.latency.mean(),
                    ops_per_sec: if elapsed_secs == 0.0 {
                        0.0
                    } else {
                        c.completed as f64 / elapsed_secs
                    },
                    shed_rate: c.shed_rate(),
                }
            })
            .collect()
    }

    fn oldest_arrival(&self) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|l| l.queue.front().map(|p| p.arrival))
            .min()
    }

    /// Deficit-round-robin selection of at most `round_jobs` queued jobs
    /// whose arrival is at or before `start`. Standard DRR: credit
    /// `quantum × weight` per visit, dispatch while the deficit covers
    /// the head-of-line cost, reset the deficit when the queue empties.
    /// Deficits grow every pass, so whenever an eligible job exists the
    /// selection is non-empty and the loop terminates.
    fn drr_select(&mut self, start: u64) -> Vec<Pending> {
        let n = self.lanes.len();
        let max_jobs = self.cfg.round_jobs.max(1);
        let quantum = self.cfg.quantum.max(1);
        let mut out = Vec::new();
        let first = self.cursor % n;
        loop {
            let mut any_eligible = false;
            for k in 0..n {
                let lane = &mut self.lanes[(first + k) % n];
                let eligible = lane.queue.front().is_some_and(|p| p.arrival <= start);
                if !eligible {
                    if lane.queue.is_empty() {
                        lane.deficit = 0;
                    }
                    continue;
                }
                any_eligible = true;
                lane.deficit = lane
                    .deficit
                    .saturating_add(quantum * u64::from(lane.spec.weight));
                while out.len() < max_jobs {
                    match lane.queue.front() {
                        Some(p) if p.arrival <= start && p.cost <= lane.deficit => {
                            lane.deficit -= p.cost;
                            out.push(lane.queue.pop_front().expect("front just matched"));
                        }
                        _ => break,
                    }
                }
                if lane.queue.is_empty() {
                    lane.deficit = 0;
                }
                if out.len() >= max_jobs {
                    break;
                }
            }
            if !any_eligible || out.len() >= max_jobs {
                break;
            }
        }
        self.cursor = (first + 1) % n;
        out
    }

    /// Execute one scheduling round starting at virtual cycle `start`:
    /// DRR-select a batch, run it through the farm (placement and
    /// failover included), timestamp completions by shard-local prefix,
    /// fold the farm's stats into the service rollups and advance the
    /// clock by the round's makespan.
    fn run_round(&mut self, start: u64) -> Result<(), FarmError> {
        let mut selected = self.drr_select(start);
        debug_assert!(
            !selected.is_empty(),
            "run_round called with an eligible job pending"
        );
        if selected.is_empty() {
            return Ok(());
        }
        // The farm takes each job; an empty `Requests` allocates nothing.
        let take = |p: &mut Pending| std::mem::replace(&mut p.job, Job::Requests(Vec::new()));
        let jobs: Vec<Job> = selected.iter_mut().map(take).collect();
        let results = if self.cfg.parallel {
            self.farm.run_parallel(&jobs)?
        } else {
            self.farm.run_serial(&jobs)?
        };
        self.stats.rounds += 1;
        self.stats.dispatched += jobs.len() as u64;
        self.farm.add_sim_stats(&mut self.sim);
        self.link += self.farm.link_stats();
        // Completion times: shards execute their jobs in plan order, so a
        // job finishes at `start` plus the cycles of everything before it
        // on its shard. (Failed-over jobs are timed on their retry shard;
        // the lost first attempt is already counted in the makespan.)
        let mut shard_busy = vec![0u64; self.farm.config().shards];
        for (i, (r, p)) in results.into_iter().zip(selected).enumerate() {
            debug_assert_eq!(r.job, i, "farm returns results in job order");
            shard_busy[r.shard] += r.cycles;
            let completed_at = start + shard_busy[r.shard];
            let counters = self.stats.tenant_mut(p.tenant);
            match &r.output {
                Ok(_) => counters.completed += 1,
                Err(_) => counters.failed += 1,
            }
            counters.work_cycles += r.cycles;
            counters.work_cost += p.cost;
            counters.latency.record(completed_at - p.arrival);
            self.completions.push(Completion {
                seq: p.seq,
                tenant: p.tenant,
                submitted_at: p.arrival,
                completed_at,
                cycles: r.cycles,
                shard: r.shard,
                output: r.output,
            });
        }
        self.clock = start + self.farm.makespan_cycles();
        Ok(())
    }
}

pub mod workload {
    //! Seeded open-loop workload generation for the serving layer.
    //!
    //! Tenant sizes follow a Zipf(1) law computed in pure integer
    //! arithmetic (weight of rank *r* ∝ 1/(r+1)) so the traffic mix is
    //! bit-stable across platforms; per-client arrival processes are
    //! keyed by splitmix64 exactly like the link fault model, so the
    //! same spec always produces the same arrival sequence.

    use super::TenantId;
    use crate::farm::Job;
    use fu_isa::{HostMsg, InstrWord, UserInstr, Word};
    use rtl_sim::splitmix64;

    /// Open-loop workload shape.
    #[derive(Debug, Clone, Copy)]
    pub struct WorkloadSpec {
        /// Simulated client sessions.
        pub clients: usize,
        /// Tenants the clients are distributed over (Zipf-skewed).
        pub tenants: u32,
        /// Jobs each client submits.
        pub jobs_per_client: usize,
        /// Mean inter-arrival gap per client, in cycles. Smaller means
        /// higher offered load.
        pub mean_gap: u64,
        /// Master seed; every derived quantity is keyed off it.
        pub seed: u64,
    }

    impl Default for WorkloadSpec {
        fn default() -> WorkloadSpec {
            WorkloadSpec {
                clients: 10_000,
                tenants: 16,
                jobs_per_client: 2,
                mean_gap: 40_000,
                seed: 0xE17,
            }
        }
    }

    /// One client submission.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Arrival {
        /// Arrival tick, in virtual cycles.
        pub tick: u64,
        /// The tenant this client belongs to.
        pub tenant: TenantId,
        /// Client id (stable across the run).
        pub client: u64,
        /// The compiled job: write two operands, add, read the sum back.
        pub job: Job,
        /// The expected value of the readback — lets tests verify every
        /// completion against ground truth without re-deriving it.
        pub expect: u64,
    }

    /// Integer Zipf(1) tenant weights: rank `r` gets `2^16 / (r+1)`.
    pub fn zipf_weights(tenants: u32) -> Vec<u64> {
        (0..tenants)
            .map(|r| (1u64 << 16) / (u64::from(r) + 1))
            .collect()
    }

    /// The tenant a uniform draw `u` lands on under `weights`.
    fn pick(weights: &[u64], mut u: u64) -> TenantId {
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i as TenantId;
            }
            u -= w;
        }
        (weights.len() - 1) as TenantId
    }

    /// The self-contained arithmetic job every simulated client submits:
    /// write `x` and `y`, add them into r3, read r3 back under `tag`.
    /// Self-contained means the result never depends on what ran on the
    /// shard before it — the property the serving determinism battery
    /// leans on.
    pub fn client_job(x: u32, y: u32, tag: u16) -> (Job, u64) {
        let msgs = vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(u64::from(x), 32),
            },
            HostMsg::WriteReg {
                reg: 2,
                value: Word::from_u64(u64::from(y), 32),
            },
            HostMsg::Instr(InstrWord::user(UserInstr {
                func: fu_isa::funit_codes::ARITH,
                variety: fu_isa::ArithOp::Add.variety().0,
                dst_flag: 1,
                dst_reg: 3,
                aux_reg: 0,
                src1: 1,
                src2: 2,
                src3: 0,
            })),
            HostMsg::ReadReg { reg: 3, tag },
        ];
        let expect = (u64::from(x) + u64::from(y)) & 0xffff_ffff;
        (Job::Requests(msgs), expect)
    }

    /// Generate the full arrival sequence: every client gets a tenant
    /// (Zipf over ranks), an arrival process (uniform gaps with the
    /// configured mean, keyed per client), and a stream of
    /// self-contained jobs. Returned sorted by `(tick, client, k)` — the
    /// submission order a front-end would observe.
    pub fn open_loop(spec: &WorkloadSpec) -> Vec<Arrival> {
        assert!(spec.tenants >= 1, "need at least one tenant");
        let weights = zipf_weights(spec.tenants);
        let total: u64 = weights.iter().sum();
        let mut out = Vec::with_capacity(spec.clients * spec.jobs_per_client);
        for c in 0..spec.clients as u64 {
            let key = splitmix64(spec.seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let tenant = pick(&weights, splitmix64(key) % total);
            let mut tick = 0u64;
            for k in 0..spec.jobs_per_client as u64 {
                let h = splitmix64(key ^ (k + 1).wrapping_mul(0xD129_42E2_96FE_945F));
                // Uniform gap in [1, 2·mean]: mean ≈ mean_gap, strictly
                // positive so per-client submissions are ordered.
                tick += 1 + h % (2 * spec.mean_gap.max(1));
                let x = (splitmix64(h) & 0xffff) as u32;
                let y = ((splitmix64(h) >> 16) & 0xffff) as u32;
                let (job, expect) = client_job(x, y, (h & 0xffff) as u16);
                out.push(Arrival {
                    tick,
                    tenant,
                    client: c,
                    job,
                    expect,
                });
            }
        }
        out.sort_by_key(|a| (a.tick, a.client, a.expect));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::workload::{client_job, open_loop, zipf_weights, WorkloadSpec};
    use super::*;
    use crate::farm::{FarmConfig, Placement};
    use crate::link::LinkModel;
    use fu_rtm::CoprocConfig;

    fn service(shards: usize, tenants: &[u32], cfg: ServeConfig) -> Service {
        let farm = Farm::standard(
            FarmConfig {
                shards,
                placement: Placement::LeastLoaded,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
        );
        let specs = tenants
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantSpec::new(format!("t{i}"), w))
            .collect();
        Service::new(cfg, specs, farm).unwrap()
    }

    #[test]
    fn an_empty_tenant_list_is_an_error() {
        let farm = Farm::standard(
            FarmConfig::default(),
            CoprocConfig::default(),
            LinkModel::pcie_like(),
        );
        let r = Service::new(ServeConfig::default(), Vec::new(), farm);
        assert!(matches!(r, Err(FarmError::NoTenants)));
    }

    #[test]
    fn jobs_complete_with_expected_results() {
        let mut svc = service(2, &[1, 1], ServeConfig::default());
        let (job, expect) = client_job(40, 2, 7);
        let adm = svc.submit(0, 0, job).unwrap();
        assert_eq!(adm, Admission::Admitted { seq: 0 });
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert_eq!(c.seq, 0);
        assert_eq!(c.tenant, 0);
        assert!(c.cycles > 0);
        assert!(c.completed_at >= c.submitted_at + c.cycles);
        match &c.output {
            Ok(JobOutput::Msgs(msgs)) => match &msgs[..] {
                [fu_isa::DevMsg::Data { tag: 7, value }] => {
                    assert_eq!(value.as_u64(), expect);
                }
                other => panic!("unexpected responses {other:?}"),
            },
            other => panic!("job failed: {other:?}"),
        }
        assert!(svc.is_idle());
        assert_eq!(svc.stats().totals().completed, 1);
    }

    #[test]
    fn full_queue_sheds_in_band() {
        let cfg = ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let mut svc = service(1, &[1], cfg);
        // Same tick for all three: no round can run in between.
        for seq in 0..2 {
            let (job, _) = client_job(1, 2, seq as u16);
            assert_eq!(svc.submit(0, 5, job).unwrap(), Admission::Admitted { seq });
        }
        let (job, _) = client_job(1, 2, 9);
        assert_eq!(
            svc.submit(0, 5, job).unwrap(),
            Admission::Overloaded {
                tenant: 0,
                queue_depth: 2
            }
        );
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 2, "shed job must not appear as a completion");
        let c = svc.stats().totals();
        assert_eq!((c.submitted, c.admitted, c.shed), (3, 2, 1));
    }

    #[test]
    fn drr_shares_track_weights_under_saturation() {
        // Three tenants at weights 1/2/4, all fully backlogged at tick 0
        // with equal-cost jobs: admitted work must split ≈ 1:2:4.
        let cfg = ServeConfig {
            queue_depth: 600,
            quantum: 4,
            round_jobs: 16,
            parallel: false,
        };
        let mut svc = service(2, &[1, 2, 4], cfg);
        for i in 0..180 {
            for t in 0..3 {
                let (job, _) = client_job(i, t, (i % 100) as u16);
                svc.submit(t, 0, job).unwrap();
            }
        }
        // Dispatch a fixed number of rounds by advancing time, then look
        // at the split of dispatched work while all lanes are still
        // backlogged.
        while svc.stats().dispatched < 160 {
            // One round per call: the round starting at `clock` is the
            // only one scheduled strictly before `clock + 1`.
            let clock = svc.clock();
            svc.advance_to(clock + 1).unwrap();
        }
        assert!(
            svc.lanes.iter().all(|l| !l.queue.is_empty()),
            "fairness is only defined while every tenant stays backlogged"
        );
        let w = [1.0, 2.0, 4.0];
        let total_w: f64 = w.iter().sum();
        let dispatched: u64 = (0..3)
            .map(|t| svc.stats().tenant(t).unwrap().work_cost)
            .sum();
        for t in 0..3u32 {
            let share = svc.stats().tenant(t).unwrap().work_cost as f64 / dispatched as f64;
            let ideal = w[t as usize] / total_w;
            assert!(
                (share - ideal).abs() < 0.08,
                "tenant {t}: share {share:.3} vs ideal {ideal:.3}"
            );
        }
    }

    #[test]
    fn disconnect_cancels_queued_jobs() {
        let mut svc = service(1, &[1, 1], ServeConfig::default());
        for i in 0..4 {
            let (job, _) = client_job(i, i, i as u16);
            svc.submit(0, 3, job).unwrap();
        }
        let (job, _) = client_job(9, 9, 99);
        svc.submit(1, 3, job).unwrap();
        assert_eq!(svc.disconnect(0), Some(4));
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 1, "only the surviving tenant's job ran");
        assert_eq!(done[0].tenant, 1);
        let c = svc.stats().tenant(0).unwrap();
        assert_eq!(c.cancelled, 4);
        assert_eq!(c.in_queue(), 0);
        assert!(svc.is_idle());
    }

    #[test]
    fn poll_interleaving_is_unobservable() {
        let arrivals = open_loop(&WorkloadSpec {
            clients: 60,
            tenants: 3,
            jobs_per_client: 2,
            mean_gap: 3_000,
            seed: 42,
        });
        let run = |poll_every: usize| {
            let mut svc = service(
                2,
                &[1, 2, 4],
                ServeConfig {
                    queue_depth: 8,
                    ..ServeConfig::default()
                },
            );
            let mut done = Vec::new();
            let mut sheds = Vec::new();
            for (i, a) in arrivals.iter().enumerate() {
                if let Admission::Overloaded { .. } =
                    svc.submit(a.tenant, a.tick, a.job.clone()).unwrap()
                {
                    sheds.push(i);
                }
                if poll_every > 0 && i % poll_every == 0 {
                    done.extend(svc.poll());
                }
            }
            done.extend(svc.drain().unwrap());
            (done, sheds, svc.clock(), svc.stats().clone())
        };
        let a = run(0);
        let b = run(1);
        let c = run(7);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn zipf_weights_are_skewed_and_deterministic() {
        let w = zipf_weights(8);
        assert_eq!(w.len(), 8);
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
        assert_eq!(w[0], 1 << 16);
        assert_eq!(w[1], 1 << 15);
        let spec = WorkloadSpec {
            clients: 500,
            tenants: 8,
            ..WorkloadSpec::default()
        };
        let a = open_loop(&spec);
        assert_eq!(a, open_loop(&spec), "generator must replay exactly");
        assert_eq!(a.len(), 500 * spec.jobs_per_client);
        assert!(a.windows(2).all(|p| p[0].tick <= p[1].tick));
        // The head tenant dominates the tail tenant.
        let count = |t: TenantId| a.iter().filter(|x| x.tenant == t).count();
        assert!(count(0) > 4 * count(7), "Zipf skew missing");
    }

    #[test]
    fn slo_snapshot_is_populated() {
        let mut svc = service(2, &[1, 4], ServeConfig::default());
        let arrivals = open_loop(&WorkloadSpec {
            clients: 40,
            tenants: 2,
            jobs_per_client: 2,
            mean_gap: 2_000,
            seed: 7,
        });
        for a in &arrivals {
            svc.submit(a.tenant, a.tick, a.job.clone()).unwrap();
        }
        svc.drain().unwrap();
        let slo = svc.slo(50.0);
        assert_eq!(slo.len(), 2);
        for s in &slo {
            assert_eq!(s.submitted, s.admitted + s.shed);
            assert_eq!(s.failed, 0);
            if s.completed > 0 {
                assert!(s.latency.p99 >= s.latency.p50);
                assert!(s.ops_per_sec > 0.0);
            }
        }
        assert_eq!(
            slo.iter().map(|s| s.completed).sum::<u64>(),
            arrivals.len() as u64
        );
        assert!(svc.sim_stats().cycles_simulated > 0);
        // A bare fault-free link keeps all transport counters at zero.
        assert_eq!(svc.link_stats(), LinkStats::default());
    }
}
