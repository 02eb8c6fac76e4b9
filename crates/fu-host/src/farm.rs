//! A sharded coprocessor farm: many independent [`System`]s, one worker
//! thread each, each working through its own list of the batch's jobs.
//!
//! The paper lets "one or more host CPUs" drive many functional units;
//! the farm is the host-side scale-out of that picture — N simulated
//! coprocessor boards, each with its own link, stepped concurrently on OS
//! threads. Three properties make it production-shaped rather than a toy
//! thread pool:
//!
//! * **Deterministic assignment.** A placement plan ([`Farm::plan`]),
//!   computed from the job list alone, maps every job to a shard; each
//!   shard executes its jobs in submission order, on a shard built from
//!   the same per-shard seed. Thread scheduling can reorder *when* shards
//!   run, never *what* they compute.
//! * **Bit-identical merging.** [`Farm::run_parallel`] returns exactly
//!   the result vector [`Farm::run_serial`] returns — same responses,
//!   same tags, same errors — because both are one executor that merges
//!   results by walking the plan, not by arrival time. The
//!   `farm_determinism` proptest enforces this.
//! * **Backpressure without queues.** Jobs are borrowed from the caller's
//!   slice, never copied into a queue, so a batch costs no memory beyond
//!   its results. Bounding the work in flight is the serving layer's job
//!   ([`crate::ServeConfig::queue_depth`] sheds at admission).

use std::sync::Arc;

use crate::driver::{Driver, DriverError};
use crate::link::{FaultModel, LinkModel, LinkStats};
use crate::system::System;
use fu_isa::msg::ErrorCode;
use fu_isa::{DevMsg, HostMsg};
use fu_rtm::{ActivityMode, CoprocConfig};
use fu_units::standard_units;
use rtl_sim::{SimError, SimStats};

// Compile-time audit that whole shards can migrate across threads; this
// is what the `Send` bounds on `FunctionalUnit`/`Kernel` buy.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<Driver>();
    assert_send::<Job>();
    assert_send::<JobResult>();
};

/// splitmix64, used to derive independent per-shard seeds from the farm
/// seed (same generator the link fault model uses).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How jobs are assigned to shards. Both policies are pure functions of
/// the job list, computed up front on the calling thread, so serial and
/// parallel runs take bit-identical placement decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Placement {
    /// Job `i` runs on shard `i % shards`. Simple and stable, but blind
    /// to job weight: one heavy job convoys every lighter job that
    /// round-robin lands behind it on the same shard.
    #[default]
    RoundRobin,
    /// Each job (in submission order) goes to the shard with the least
    /// accumulated estimated cost ([`Job::cost`]), ties to the lowest
    /// index. A heavy job claims a shard and subsequent light jobs route
    /// around it instead of queueing behind it.
    LeastLoaded,
}

/// Farm-level knobs. The shard *contents* come from the builder closure
/// passed to [`Farm::new`]; this struct only shapes the orchestration.
#[derive(Debug, Clone, Copy)]
pub struct FarmConfig {
    /// Number of shards (and worker threads). Must be ≥ 1.
    pub shards: usize,
    /// Per-blocking-call cycle budget for every shard's driver.
    pub timeout: u64,
    /// Base seed; shard `k` receives `splitmix64(seed ^ k·φ)` so fault
    /// models (and any other seeded structure) differ across shards but
    /// replay identically run to run.
    pub seed: u64,
    /// Scheduling mode applied to every shard.
    pub activity_mode: ActivityMode,
    /// Event-trace ring depth applied to every shard (`0` = tracing off,
    /// the default). Latency histograms are collected either way.
    pub trace_depth: usize,
    /// Failover retry budget per failed job. A job whose shard panicked,
    /// timed out, or returned an unrecovered soft error is re-executed on
    /// the other shards in round-robin order, up to this many attempts,
    /// by a deterministic second pass on the calling thread, after the
    /// shards finish their lists. `0` (the default) disables failover — failures stay data in
    /// the results; panicked shards are still rebuilt either way.
    pub max_job_retries: u32,
    /// Job→shard assignment policy. The executor splits the same
    /// precomputed plan whether or not it runs threaded, so placement
    /// never breaks serial ≡ parallel.
    pub placement: Placement,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            shards: 4,
            timeout: 20_000_000,
            seed: 0,
            activity_mode: ActivityMode::default(),
            trace_depth: 0,
            max_job_retries: 0,
            placement: Placement::RoundRobin,
        }
    }
}

/// Identity handed to the shard builder.
#[derive(Debug, Clone, Copy)]
pub struct ShardCtx {
    /// Shard index in `0..shards`.
    pub index: usize,
    /// This shard's derived seed (stable across runs for a given farm
    /// seed and shard count).
    pub seed: u64,
    /// Total shard count, for builders that partition resources.
    pub shards: usize,
}

/// One unit of work. Jobs are self-contained: everything a shard needs
/// travels in the job, so any shard with the right units can run it.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Assemble `source`, issue it through the pipelined batch path,
    /// barrier, then read back `reads` (queued, in order).
    Program {
        /// Assembly source text.
        source: String,
        /// Data registers to read back after the barrier.
        reads: Vec<u8>,
    },
    /// Raw pre-tagged host messages; the shard sends them all, runs to
    /// idle and returns every response.
    Requests(Vec<HostMsg>),
    /// Load the values into the shard's χ-sort unit, sort, and read the
    /// sorted array back.
    XiSort(Vec<u32>),
}

impl Job {
    /// Estimated cost of the job in abstract work units, used by
    /// [`Placement::LeastLoaded`] and by the serving layer's
    /// deficit-round-robin scheduler. A pure function of the job payload
    /// (instruction/message counts, element counts), never of runtime
    /// state — placement planned from it is deterministic.
    #[must_use]
    pub fn cost(&self) -> u64 {
        let c = match self {
            // One unit per instruction line plus the readback traffic.
            Job::Program { source, reads } => {
                let instrs = source
                    .lines()
                    .filter(|l| {
                        let t = l.trim();
                        !t.is_empty() && !t.starts_with(';')
                    })
                    .count();
                (instrs + reads.len()) as u64
            }
            Job::Requests(msgs) => msgs.len() as u64,
            // A sort costs load + sort rounds + element-wise readback.
            Job::XiSort(values) => 4 * values.len() as u64,
        };
        c.max(1)
    }
}

/// What a job produced.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Response messages, in device order.
    Msgs(Vec<DevMsg>),
    /// χ-sort refinement-round count and the sorted array.
    Sorted {
        /// Refinement rounds the sort took.
        rounds: u64,
        /// The sorted values.
        values: Vec<u32>,
    },
}

/// One job's outcome, tagged with its index and the shard that ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Index of the job in the submitted slice.
    pub job: usize,
    /// Shard that produced this output: the planned shard on first
    /// execution, the retry shard when the failover pass re-ran the job.
    pub shard: usize,
    /// Simulated cycles the shard spent executing this job (the delta of
    /// the shard's cycle counter across the job; `0` when the shard
    /// panicked under it). Bit-identical between serial and parallel
    /// runs, like the output itself.
    pub cycles: u64,
    /// Responses, or the driver error the job died with. Errors are data
    /// here — a failing job must not take the farm down, and the error
    /// itself must be bit-identical between serial and parallel runs.
    pub output: Result<JobOutput, DriverError>,
}

/// Per-shard accounting from the most recent run.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Jobs this shard executed.
    pub jobs: u64,
    /// Simulated cycles the shard's system consumed.
    pub cycles: u64,
    /// Scheduler statistics rollup source.
    pub sim: SimStats,
    /// Link/transport statistics rollup source.
    pub link: LinkStats,
    /// The shard's retained trace events (pipeline + link, cycle order),
    /// empty unless [`FarmConfig::trace_depth`] was set.
    pub trace: Vec<rtl_sim::TraceEvent>,
}

/// Orchestration-level failures. Per-job failures travel inside
/// [`JobResult::output`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum FarmError {
    /// The shard builder failed.
    Build(SimError),
    /// A worker thread panicked (a bug in a unit or the framework, not a
    /// device-visible error).
    WorkerPanicked {
        /// The shard whose worker died.
        shard: usize,
    },
    /// `shards == 0`.
    NoShards,
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Build(e) => write!(f, "shard build failed: {e:?}"),
            FarmError::WorkerPanicked { shard } => write!(f, "worker for shard {shard} panicked"),
            FarmError::NoShards => write!(f, "a farm needs at least one shard"),
        }
    }
}

impl std::error::Error for FarmError {}

type ShardBuilder = Arc<dyn Fn(&ShardCtx) -> Result<System, SimError> + Send + Sync>;

/// The farm itself. Shards are rebuilt from the builder at the start of
/// every run, so `run_serial` and `run_parallel` observe identical
/// initial state — that is what makes them comparable bit for bit.
pub struct Farm {
    cfg: FarmConfig,
    builder: ShardBuilder,
    reports: Vec<ShardReport>,
    /// Jobs the failover pass re-executed in the last run.
    failed_over: u64,
    /// Retry attempts the failover pass consumed in the last run.
    job_retries: u64,
}

impl Farm {
    /// A farm whose shards are produced by `builder`.
    pub fn new(
        cfg: FarmConfig,
        builder: impl Fn(&ShardCtx) -> Result<System, SimError> + Send + Sync + 'static,
    ) -> Farm {
        Farm {
            cfg,
            builder: Arc::new(builder),
            reports: Vec::new(),
            failed_over: 0,
            job_retries: 0,
        }
    }

    /// A farm of standard-unit coprocessors on bare `link`s — the
    /// arithmetic workhorse configuration.
    pub fn standard(cfg: FarmConfig, coproc: CoprocConfig, link: LinkModel) -> Farm {
        Farm::new(cfg, move |_ctx| {
            System::new(coproc.clone(), standard_units(coproc.word_bits), link)
        })
    }

    /// As [`Farm::standard`] but over the reliable transport with a fault
    /// model whose seed is re-derived per shard: every shard sees an
    /// independent — but reproducible — fault stream.
    pub fn standard_reliable(
        cfg: FarmConfig,
        coproc: CoprocConfig,
        link: LinkModel,
        faults: Option<FaultModel>,
    ) -> Farm {
        Farm::new(cfg, move |ctx| {
            let tcfg = fu_isa::transport::TransportConfig::for_link(
                link.latency_cycles,
                link.cycles_per_frame,
            );
            System::new_reliable(
                coproc.clone(),
                standard_units(coproc.word_bits),
                link,
                tcfg,
                faults.map(|m| m.with_seed(ctx.seed)),
            )
        })
    }

    /// Farm configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The job→shard plan for `jobs` under the configured placement
    /// policy — the exact assignment `run_serial` and `run_parallel` use.
    pub fn plan(&self, jobs: &[Job]) -> Vec<usize> {
        plan_assignment(&self.cfg, jobs)
    }

    /// The derived seed shard `index` is built with.
    pub fn shard_seed(&self, index: usize) -> u64 {
        shard_seed_for(self.cfg.seed, index)
    }

    fn build_shard(&self, index: usize) -> Result<Driver, FarmError> {
        build_shard_from(&self.builder, &self.cfg, index)
    }

    fn report(drv: &Driver, jobs: u64) -> ShardReport {
        let sys = drv.system();
        ShardReport {
            jobs,
            cycles: sys.cycle(),
            sim: sys.sim_stats(),
            link: sys.link_stats(),
            trace: if sys.coproc().trace().is_enabled() || sys.link_trace().is_enabled() {
                drv.dump_trace()
            } else {
                Vec::new()
            },
        }
    }

    /// Run `jobs` on this thread: every shard is built exactly as in
    /// [`Farm::run_parallel`] and executes the same jobs in the same
    /// order, so this is the reference the parallel path is compared to
    /// (and a useful zero-thread mode in its own right).
    ///
    /// # Errors
    /// [`FarmError`] on orchestration failures; per-job errors are data
    /// inside the returned results.
    pub fn run_serial(&mut self, jobs: &[Job]) -> Result<Vec<JobResult>, FarmError> {
        self.run(jobs, false)
    }

    /// Run `jobs` across one worker thread per shard, merging results by
    /// job index. The merged vector is **bit-identical** to
    /// [`Farm::run_serial`] on the same jobs.
    ///
    /// # Errors
    /// [`FarmError`] on orchestration failures (including worker panics);
    /// per-job errors are data inside the returned results.
    pub fn run_parallel(&mut self, jobs: &[Job]) -> Result<Vec<JobResult>, FarmError> {
        self.run(jobs, true)
    }

    /// The one executor: build every shard, split the placement plan into
    /// per-shard job lists (submission order), run each list through
    /// [`run_on_shard`] — inline, or on one scoped thread per shard — then
    /// merge back into job order, run the failover pass and write the
    /// reports. Shards share no state, so whether they run one after
    /// another or concurrently changes no result, cycle count or trace.
    fn run(&mut self, jobs: &[Job], threaded: bool) -> Result<Vec<JobResult>, FarmError> {
        if self.cfg.shards == 0 {
            return Err(FarmError::NoShards);
        }
        let mut drivers = (0..self.cfg.shards)
            .map(|s| self.build_shard(s))
            .collect::<Result<Vec<_>, _>>()?;
        let plan = plan_assignment(&self.cfg, jobs);
        let mut lists = vec![Vec::new(); self.cfg.shards];
        for (i, &s) in plan.iter().enumerate() {
            lists[s].push(i);
        }
        let (builder, cfg) = (&self.builder, &self.cfg);
        let run_list = |s: usize, drv: &mut Driver, list: &[usize]| -> Vec<JobResult> {
            list.iter()
                .map(|&i| run_on_shard(builder, cfg, drv, s, i, &jobs[i]))
                .collect()
        };
        let per_shard: Vec<Vec<JobResult>> = if threaded {
            std::thread::scope(|scope| {
                let handles: Vec<_> = drivers
                    .iter_mut()
                    .zip(&lists)
                    .enumerate()
                    .map(|(s, (drv, list))| scope.spawn(move || run_list(s, drv, list)))
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(s, h)| h.join().map_err(|_| FarmError::WorkerPanicked { shard: s }))
                    .collect::<Result<_, _>>()
            })?
        } else {
            drivers
                .iter_mut()
                .zip(&lists)
                .enumerate()
                .map(|(s, (drv, list))| run_list(s, drv, list))
                .collect()
        };
        // Each shard's results are in submission order, so walking the
        // plan with one cursor per shard restores job order.
        let mut cursors: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
        let mut results: Vec<JobResult> = plan
            .iter()
            .map(|&s| cursors[s].next().expect("one result per planned job"))
            .collect();
        let mut counts: Vec<u64> = lists.iter().map(|l| l.len() as u64).collect();
        let (failed_over, retries) = failover_pass(
            &self.cfg,
            &self.builder,
            &mut drivers,
            &mut counts,
            &mut results,
            jobs,
            &plan,
        );
        self.failed_over = failed_over;
        self.job_retries = retries;
        self.reports = drivers
            .iter()
            .zip(&counts)
            .map(|(d, &n)| Farm::report(d, n))
            .collect();
        Ok(results)
    }

    /// Per-shard accounting from the most recent run.
    pub fn shard_reports(&self) -> &[ShardReport] {
        &self.reports
    }

    /// Scheduler statistics summed over all shards of the last run, with
    /// the failover pass's job accounting folded into the recovery block.
    pub fn sim_stats(&self) -> SimStats {
        let mut s: SimStats = self.reports.iter().map(|r| &r.sim).sum();
        s.recovery.jobs_failed_over += self.failed_over;
        s.recovery.job_retries += self.job_retries;
        s
    }

    /// Link/transport statistics summed over all shards of the last run.
    pub fn link_stats(&self) -> LinkStats {
        self.reports.iter().map(|r| r.link).sum()
    }

    /// Simulated makespan of the last run: shards run concurrently in
    /// simulated time, so the farm finishes when its slowest shard does.
    pub fn makespan_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).max().unwrap_or(0)
    }

    /// Total simulated cycles summed over shards (the serial-equivalent
    /// cost of the last run).
    pub fn total_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    /// Per-instruction latency percentiles aggregated over every shard of
    /// the last run (the histograms merge exactly, so farm-level
    /// percentiles are as precise as a single shard's).
    pub fn latency_snapshot(&self) -> rtl_sim::LatencySnapshot {
        self.sim_stats().latency_snapshot()
    }

    /// One shard's retained trace as a Chrome-trace (Perfetto) JSON
    /// document. `None` when the shard index is out of range or tracing
    /// was off for the last run.
    pub fn shard_perfetto(&self, shard: usize) -> Option<String> {
        let r = self.reports.get(shard)?;
        if r.trace.is_empty() {
            return None;
        }
        Some(rtl_sim::trace::perfetto::export(r.trace.iter()))
    }
}

/// Compute the job→shard assignment for `jobs` under `cfg.placement`.
/// A pure function of the job list (never of runtime state), shared by
/// the executor and the failover pass — the placement half of the
/// serial ≡ parallel determinism argument.
fn plan_assignment(cfg: &FarmConfig, jobs: &[Job]) -> Vec<usize> {
    let shards = cfg.shards.max(1);
    match cfg.placement {
        Placement::RoundRobin => (0..jobs.len()).map(|i| i % shards).collect(),
        Placement::LeastLoaded => {
            let mut load = vec![0u64; shards];
            jobs.iter()
                .map(|job| {
                    let s = load
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &l)| (l, i))
                        .map(|(i, _)| i)
                        .expect("shards >= 1");
                    load[s] += job.cost();
                    s
                })
                .collect()
        }
    }
}

/// Derive shard `index`'s seed from the farm seed (splitmix64 over a
/// golden-ratio stride, the scheme [`FarmConfig::seed`] documents).
fn shard_seed_for(farm_seed: u64, index: usize) -> u64 {
    splitmix64(farm_seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Build (or rebuild) shard `index` exactly as the farm first built it —
/// same derived seed, same activity mode, same trace depth — so a shard
/// replaced after a panic is indistinguishable from a fresh one.
fn build_shard_from(
    builder: &ShardBuilder,
    cfg: &FarmConfig,
    index: usize,
) -> Result<Driver, FarmError> {
    let ctx = ShardCtx {
        index,
        seed: shard_seed_for(cfg.seed, index),
        shards: cfg.shards,
    };
    let mut sys = builder(&ctx).map_err(FarmError::Build)?;
    sys.set_activity_mode(cfg.activity_mode);
    if cfg.trace_depth > 0 {
        sys.set_trace_depth(cfg.trace_depth);
    }
    Ok(Driver::new(sys, cfg.timeout))
}

/// [`run_job`] behind a panic guard: a panic inside the shard (a
/// poisoned simulation — e.g. an upset that corrupted control state into
/// an impossible configuration) becomes [`DriverError::Panicked`] data
/// instead of killing the worker. The caller must treat the driver as
/// lost and rebuild the shard.
fn run_job_guarded(drv: &mut Driver, job: &Job) -> Result<JobOutput, DriverError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(drv, job)))
        .unwrap_or_else(|p| Err(DriverError::Panicked(panic_message(p.as_ref()))))
}

/// Run job `idx` on shard `s`: the guarded run, a rebuild of the shard
/// when it panicked under the job (later jobs then run on a fresh build),
/// and the job's cycle delta. The one per-job body shared by the
/// executor's shard lists and the failover pass.
fn run_on_shard(
    builder: &ShardBuilder,
    cfg: &FarmConfig,
    drv: &mut Driver,
    s: usize,
    idx: usize,
    job: &Job,
) -> JobResult {
    let before = drv.cycles();
    let output = run_job_guarded(drv, job);
    let cycles = if matches!(output, Err(DriverError::Panicked(_))) {
        *drv = build_shard_from(builder, cfg, s)
            .expect("shard builder already succeeded for this index");
        0
    } else {
        drv.cycles() - before
    };
    JobResult {
        job: idx,
        shard: s,
        cycles,
        output,
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Failures the failover pass may re-execute elsewhere: the shard died
/// under the job, hung past its budget, or reported a soft error no
/// protection level could repair. Deterministic outcomes (protocol or
/// assembly errors, other device errors) would fail identically on every
/// shard and are not retried.
fn retryable(out: &Result<JobOutput, DriverError>) -> bool {
    matches!(
        out,
        Err(DriverError::Panicked(_))
            | Err(DriverError::Timeout(_))
            | Err(DriverError::Device {
                code: ErrorCode::SoftError,
                ..
            })
    )
}

/// Pass 2 of the executor: re-execute failed jobs on the surviving
/// shards. Runs on the calling thread in job-index order with a
/// round-robin shard choice starting after the job's home shard, so
/// serial and parallel runs take bit-identical failover decisions.
/// Returns `(jobs re-executed, retry attempts consumed)`.
#[allow(clippy::too_many_arguments)]
fn failover_pass(
    cfg: &FarmConfig,
    builder: &ShardBuilder,
    drivers: &mut [Driver],
    counts: &mut [u64],
    results: &mut [JobResult],
    jobs: &[Job],
    plan: &[usize],
) -> (u64, u64) {
    if cfg.max_job_retries == 0 {
        return (0, 0);
    }
    let shards = drivers.len();
    let (mut failed_over, mut retries) = (0u64, 0u64);
    for i in 0..results.len() {
        if !retryable(&results[i].output) {
            continue;
        }
        failed_over += 1;
        let home = plan[results[i].job];
        for attempt in 0..cfg.max_job_retries as usize {
            retries += 1;
            let s = (home + 1 + attempt) % shards;
            counts[s] += 1;
            let job = results[i].job;
            results[i] = run_on_shard(builder, cfg, &mut drivers[s], s, job, &jobs[job]);
            if !retryable(&results[i].output) {
                break;
            }
        }
    }
    (failed_over, retries)
}

/// Execute one job on a shard's driver. This function is the *only* code
/// path jobs run through — serial and parallel runs share it, which is
/// half of the determinism argument (the other half is identical shard
/// construction and per-shard job order).
fn run_job(drv: &mut Driver, job: &Job) -> Result<JobOutput, DriverError> {
    match job {
        Job::Program { source, reads } => {
            drv.submit_program(source)?;
            drv.sync()?;
            if reads.is_empty() {
                return Ok(JobOutput::Msgs(Vec::new()));
            }
            let mut last = 0;
            for &r in reads {
                last = drv.read_reg_async(r);
            }
            Ok(JobOutput::Msgs(drv.wait_tag(last)?))
        }
        Job::Requests(msgs) => {
            for m in msgs {
                drv.send_raw(m);
            }
            Ok(JobOutput::Msgs(drv.drain_idle()?))
        }
        Job::XiSort(values) => {
            drv.xi_load(values, 1)?;
            let rounds = drv.xi_sort(2)?;
            let values = drv.xi_read_sorted(values.len(), 1, 2)?;
            Ok(JobOutput::Sorted { rounds, values })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::Program {
                source: format!(
                    "ADD r3, r1, r2, f1\n INC r4, r3, f2\n ; job {i}\n ADD r5, r4, r3, f3"
                ),
                reads: vec![3, 4, 5],
            })
            .collect()
    }

    fn farm(shards: usize) -> Farm {
        Farm::standard(
            FarmConfig {
                shards,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
        )
    }

    #[test]
    fn parallel_matches_serial_on_a_small_batch() {
        let jobs = add_jobs(10);
        let mut f = farm(3);
        let serial = f.run_serial(&jobs).unwrap();
        let serial_reports: Vec<u64> = f.shard_reports().iter().map(|r| r.cycles).collect();
        let parallel = f.run_parallel(&jobs).unwrap();
        let parallel_reports: Vec<u64> = f.shard_reports().iter().map(|r| r.cycles).collect();
        assert_eq!(serial, parallel);
        assert_eq!(serial_reports, parallel_reports);
    }

    #[test]
    fn assignment_is_round_robin_and_stable() {
        let f = farm(4);
        let plan = f.plan(&add_jobs(32));
        assert_eq!(plan, (0..32).map(|i| i % 4).collect::<Vec<_>>());
        assert_eq!(f.shard_seed(2), f.shard_seed(2));
        assert_ne!(f.shard_seed(0), f.shard_seed(1));
    }

    #[test]
    fn job_errors_are_data_not_crashes() {
        let jobs = vec![
            Job::Program {
                source: "ADD r1, r1, r1, f0".into(),
                reads: vec![1],
            },
            Job::Requests(vec![HostMsg::ReadReg { reg: 200, tag: 7 }]),
        ];
        let mut f = farm(2);
        let out = f.run_parallel(&jobs).unwrap();
        assert!(out[0].output.is_ok());
        // An in-band device error surfaces as the response stream, not a
        // farm failure (drain_idle collects the Error message).
        match &out[1].output {
            Ok(JobOutput::Msgs(msgs)) => {
                assert!(matches!(msgs[0], DevMsg::Error { .. }), "{msgs:?}");
            }
            other => panic!("expected in-band error response, got {other:?}"),
        }
    }

    #[test]
    fn rollups_sum_over_shards() {
        let jobs = add_jobs(8);
        let mut f = farm(4);
        f.run_parallel(&jobs).unwrap();
        let reports = f.shard_reports();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.jobs).sum::<u64>(), 8);
        let sim = f.sim_stats();
        assert_eq!(
            sim.cycles_simulated,
            reports.iter().map(|r| r.sim.cycles_simulated).sum::<u64>()
        );
        assert_eq!(f.total_cycles(), reports.iter().map(|r| r.cycles).sum());
        assert!(f.makespan_cycles() <= f.total_cycles());
        assert!(f.makespan_cycles() > 0);
    }

    #[test]
    fn reliable_farm_shards_see_independent_fault_streams() {
        let jobs = add_jobs(6);
        let mut f = Farm::standard_reliable(
            FarmConfig {
                shards: 2,
                seed: 0xFA12,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
            Some(FaultModel::uniform(0, 100)),
        );
        let a = f.run_parallel(&jobs).unwrap();
        let ls = f.link_stats();
        assert!(
            ls.frames_dropped + ls.frames_corrupted + ls.frames_duplicated > 0,
            "faults must fire: {ls:?}"
        );
        // Reproducible run to run…
        let b = f.run_parallel(&jobs).unwrap();
        assert_eq!(a, b);
        // …and correct despite the faults.
        for r in &a {
            let msgs = match &r.output {
                Ok(JobOutput::Msgs(m)) => m,
                other => panic!("job failed under faults: {other:?}"),
            };
            // r3 = 0+0, r4 = r3+1, r5 = r4+r3.
            let values: Vec<u64> = msgs
                .iter()
                .map(|m| match m {
                    DevMsg::Data { value, .. } => value.as_u64(),
                    other => panic!("expected Data, got {other:?}"),
                })
                .collect();
            assert_eq!(values, vec![0, 1, 1]);
        }
    }

    #[test]
    fn scheduled_mode_agrees_with_gated_across_shard_counts() {
        // Reliable links with injected faults: idle shards wait on
        // retransmit deadlines, which the scheduled kernel must skip to
        // without changing a single response or cycle count.
        let jobs = add_jobs(6);
        let run = |mode: ActivityMode, shards: usize| {
            let mut f = Farm::standard_reliable(
                FarmConfig {
                    shards,
                    seed: 0x51ED,
                    activity_mode: mode,
                    ..FarmConfig::default()
                },
                CoprocConfig::default(),
                LinkModel::pcie_like(),
                Some(FaultModel::uniform(3, 120)),
            );
            let out = f.run_parallel(&jobs).unwrap();
            (out, f.total_cycles(), f.link_stats())
        };
        for shards in [1usize, 2, 3] {
            let exhaustive = run(ActivityMode::Exhaustive, shards);
            let sched = run(ActivityMode::Scheduled, shards);
            assert_eq!(exhaustive, sched, "modes diverge at {shards} shards");
        }
    }

    /// A farm whose shard 1 hosts an armed [`PoisonFu`]: any job that
    /// dispatches with `0xDEAD` as its first operand kills that shard.
    /// Every other shard runs the identical unit unarmed.
    fn poisoned_farm(shards: usize, max_job_retries: u32) -> Farm {
        Farm::new(
            FarmConfig {
                shards,
                max_job_retries,
                ..FarmConfig::default()
            },
            |ctx| {
                let trigger = (ctx.index == 1).then_some(0xDEAD);
                System::new(
                    CoprocConfig::default(),
                    vec![Box::new(fu_rtm::testing::PoisonFu::new(
                        "poison", 1, 1, trigger,
                    ))],
                    LinkModel::ideal(),
                )
            },
        )
    }

    fn poison_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::Requests(vec![
                    HostMsg::WriteReg {
                        reg: 1,
                        value: fu_isa::Word::from_u64(0xDEAD, 32),
                    },
                    HostMsg::Instr(fu_isa::InstrWord::user(fu_isa::UserInstr {
                        func: 1,
                        variety: 0,
                        dst_flag: 1,
                        dst_reg: 3,
                        aux_reg: 0,
                        src1: 1,
                        src2: 1,
                        src3: 0,
                    })),
                    HostMsg::ReadReg {
                        reg: 3,
                        tag: i as u16,
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn panicked_shard_is_contained_and_rebuilt() {
        // No retry budget: the poisoned jobs fail as data, the farm
        // survives, and later jobs on the rebuilt shard still die to the
        // same trigger (the rebuild re-arms the poison) while every other
        // shard's jobs succeed.
        let jobs = poison_jobs(9);
        let mut f = poisoned_farm(3, 0);
        let out = f.run_parallel(&jobs).unwrap();
        for r in &out {
            if r.job % 3 == 1 {
                assert!(
                    matches!(r.output, Err(DriverError::Panicked(_))),
                    "job {} should have died on the poisoned shard: {:?}",
                    r.job,
                    r.output
                );
            } else {
                assert!(r.output.is_ok(), "job {} failed: {:?}", r.job, r.output);
            }
        }
        assert_eq!(f.sim_stats().recovery.jobs_failed_over, 0);
    }

    #[test]
    fn failover_reruns_poisoned_jobs_on_healthy_shards() {
        let jobs = poison_jobs(9);
        let mut f = poisoned_farm(3, 2);
        let out = f.run_parallel(&jobs).unwrap();
        for r in &out {
            assert!(r.output.is_ok(), "job {} failed: {:?}", r.job, r.output);
            if r.job % 3 == 1 {
                assert_eq!(r.shard, 2, "retry goes to the next shard round-robin");
            } else {
                assert_eq!(r.shard, r.job % 3);
            }
            match &r.output {
                Ok(JobOutput::Msgs(msgs)) => {
                    // r3 = 0xDEAD + 0xDEAD, computed wherever the job ran.
                    let last = msgs.last().expect("read response present");
                    assert!(
                        matches!(last, DevMsg::Data { value, .. } if value.as_u64() == 2 * 0xDEAD),
                        "job {}: {last:?}",
                        r.job
                    );
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
        let rec = f.sim_stats().recovery;
        assert_eq!(rec.jobs_failed_over, 3, "jobs 1, 4, 7 were re-executed");
        assert_eq!(rec.job_retries, 3, "each needed exactly one retry");
    }

    #[test]
    fn failover_keeps_parallel_bit_identical_to_serial() {
        let jobs = poison_jobs(10);
        let mut f = poisoned_farm(3, 2);
        let serial = f.run_serial(&jobs).unwrap();
        let serial_rec = f.sim_stats().recovery;
        let serial_cycles: Vec<u64> = f.shard_reports().iter().map(|r| r.cycles).collect();
        let parallel = f.run_parallel(&jobs).unwrap();
        let parallel_rec = f.sim_stats().recovery;
        let parallel_cycles: Vec<u64> = f.shard_reports().iter().map(|r| r.cycles).collect();
        assert_eq!(serial, parallel);
        assert_eq!(serial_rec, parallel_rec);
        assert_eq!(serial_cycles, parallel_cycles);
    }

    #[test]
    fn retry_budget_bounds_attempts_on_persistent_failures() {
        // A single poisoned shard: every retry lands back on the rebuilt
        // (still armed) home shard and re-dies, so the job fails after
        // consuming its whole budget.
        let jobs = poison_jobs(2);
        let mut f = Farm::new(
            FarmConfig {
                shards: 1,
                max_job_retries: 3,
                ..FarmConfig::default()
            },
            |_ctx| {
                System::new(
                    CoprocConfig::default(),
                    vec![Box::new(fu_rtm::testing::PoisonFu::new(
                        "poison",
                        1,
                        1,
                        Some(0xDEAD),
                    ))],
                    LinkModel::ideal(),
                )
            },
        );
        let out = f.run_serial(&jobs).unwrap();
        for r in &out {
            assert!(
                matches!(r.output, Err(DriverError::Panicked(_))),
                "{:?}",
                r.output
            );
        }
        let rec = f.sim_stats().recovery;
        assert_eq!(rec.jobs_failed_over, 2);
        assert_eq!(rec.job_retries, 6, "every attempt of the budget consumed");
    }

    #[test]
    fn retryable_classification() {
        use rtl_sim::SimError;
        assert!(retryable(&Err(DriverError::Panicked("boom".into()))));
        assert!(retryable(&Err(DriverError::Timeout(SimError::Timeout {
            cycles: 1,
            waiting_for: "x".into()
        }))));
        assert!(retryable(&Err(DriverError::Device {
            code: ErrorCode::SoftError,
            info: 0
        })));
        assert!(!retryable(&Err(DriverError::Device {
            code: ErrorCode::FuTimeout,
            info: 0
        })));
        assert!(!retryable(&Err(DriverError::Protocol("p".into()))));
        assert!(!retryable(&Ok(JobOutput::Msgs(Vec::new()))));
    }

    /// One heavy program plus a stream of light ones. Under round-robin
    /// the heavy job's shard also receives every `shards`-th light job
    /// and convoys them; least-loaded placement parks the heavy job on
    /// its own shard and spreads the light jobs across the rest.
    fn convoy_jobs() -> Vec<Job> {
        let heavy: String = (0..240)
            .map(|i| format!("ADD r{}, r4, r5, f{}\n", i % 4, i % 4))
            .collect();
        let mut jobs = vec![Job::Program {
            source: heavy,
            reads: vec![0],
        }];
        for _ in 0..12 {
            jobs.push(Job::Program {
                source: "ADD r0, r4, r5, f0\n ADD r1, r4, r5, f1".into(),
                reads: vec![0],
            });
        }
        jobs
    }

    #[test]
    fn job_cost_tracks_payload_size() {
        assert_eq!(convoy_jobs()[0].cost(), 241);
        assert_eq!(convoy_jobs()[1].cost(), 3);
        assert_eq!(Job::Requests(vec![]).cost(), 1, "cost is never zero");
        assert_eq!(Job::XiSort(vec![1, 2, 3]).cost(), 12);
        // Comment and blank lines don't count as work.
        let j = Job::Program {
            source: "; comment\n\nADD r0, r1, r2, f0".into(),
            reads: Vec::new(),
        };
        assert_eq!(j.cost(), 1);
    }

    #[test]
    fn least_loaded_plan_isolates_the_heavy_job() {
        let jobs = convoy_jobs();
        let f = Farm::standard(
            FarmConfig {
                shards: 3,
                placement: Placement::LeastLoaded,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
        );
        let plan = f.plan(&jobs);
        assert_eq!(plan[0], 0, "first job claims the least-loaded shard");
        // The heavy job outweighs all light jobs together, so no light
        // job may be queued behind it.
        assert!(
            plan[1..].iter().all(|&s| s != 0),
            "light jobs routed onto the heavy shard: {plan:?}"
        );
    }

    #[test]
    fn least_loaded_breaks_the_round_robin_convoy() {
        let jobs = convoy_jobs();
        let mut makespans = Vec::new();
        for placement in [Placement::RoundRobin, Placement::LeastLoaded] {
            let mut f = Farm::standard(
                FarmConfig {
                    shards: 3,
                    placement,
                    ..FarmConfig::default()
                },
                CoprocConfig::default(),
                LinkModel::pcie_like(),
            );
            let out = f.run_parallel(&jobs).unwrap();
            for r in &out {
                assert!(r.output.is_ok(), "job {} failed: {:?}", r.job, r.output);
                assert!(r.cycles > 0, "per-job cycle accounting missing");
            }
            makespans.push(f.makespan_cycles());
        }
        assert!(
            makespans[1] < makespans[0],
            "least-loaded {} should beat round-robin {} on a convoyed batch",
            makespans[1],
            makespans[0]
        );
    }

    #[test]
    fn least_loaded_parallel_matches_serial() {
        let jobs = convoy_jobs();
        let mut f = Farm::standard(
            FarmConfig {
                shards: 3,
                placement: Placement::LeastLoaded,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::pcie_like(),
        );
        let serial = f.run_serial(&jobs).unwrap();
        let parallel = f.run_parallel(&jobs).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn per_job_cycles_sum_to_shard_cycles() {
        let jobs = add_jobs(9);
        let mut f = farm(3);
        let out = f.run_parallel(&jobs).unwrap();
        let mut per_shard = vec![0u64; 3];
        for r in &out {
            per_shard[r.shard] += r.cycles;
        }
        for (report, expect) in f.shard_reports().iter().zip(&per_shard) {
            assert_eq!(
                report.cycles, *expect,
                "shard cycle counter must equal the sum of its job deltas"
            );
        }
    }

    #[test]
    fn zero_shards_is_an_error() {
        let mut f = Farm::standard(
            FarmConfig {
                shards: 0,
                ..FarmConfig::default()
            },
            CoprocConfig::default(),
            LinkModel::ideal(),
        );
        assert_eq!(f.run_serial(&[]), Err(FarmError::NoShards));
        assert_eq!(f.run_parallel(&[]), Err(FarmError::NoShards));
    }
}
