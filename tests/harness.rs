//! The differential harness: one check for everything the simulator
//! claims cannot change what it computes.
//!
//! A workload (a farm batch or a `Service` session; a unit set, a link, a
//! shard count, a placement and a fault rate) runs in every cell of one
//! list: activity mode × serial/parallel × trace on/off, plus poll
//! cadence for a session. Every cell must match the reference cell
//! (Exhaustive, serial, untraced) on the mode-independent projection and
//! its mode's base cell on everything but the traces, and traced cells
//! must keep the same events. A bug every cell shares passes those
//! comparisons, so the reference cell is also checked against independent
//! models: the golden register model over each shard's jobs in plan order,
//! the sorted input of a χ-sort and `Arrival::expect` for a completion.
//! The farm turns a panicking job into identical error data in every
//! cell, so every run is also checked to be panic-free.
//!
//! Each contract's test file draws its own slice of workloads and runs
//! [`check`] on it (`mod harness;`, or a `#[path]` module from a crate's
//! own tests); `tests/differential.rs` draws from the whole space.
#![allow(dead_code)]

#[path = "golden.rs"]
mod golden;
#[path = "util.rs"]
mod util;

use fu_host::serve::workload::{open_loop, Arrival, WorkloadSpec};
use fu_host::{
    Admission, Completion, DriverError, Farm, FarmConfig, FaultModel, Job, JobOutput, JobResult,
    LinkModel, LinkStats, Placement, ServeConfig, Service, System, TenantSpec,
};
use fu_isa::asm::{assemble_line, disassemble};
use fu_isa::funit_codes::{ARITH, LOGIC};
use fu_isa::msg::ErrorCode;
use fu_isa::transport::TransportConfig;
use fu_isa::variety::{ArithOp, LogicOp};
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, CoprocStats, FunctionalUnit};
use fu_units::{standard_units, ClockDomainFu};
use golden::Golden;
use proptest::collection::vec;
use proptest::prelude::*;
use rtl_sim::{ServeStats, SimStats, TraceEvent};
use util::invariant_slice;
use xi_sort::{XiConfig, XiSortAdapter};

/// The χ-sort unit's cell count, and so the longest sort drawn.
const XI_CELLS: usize = 8;

/// The units every shard carries.
#[derive(Debug, Clone, Copy)]
pub enum Units {
    /// `standard_units` plus a χ-sort unit.
    Standard,
    /// `(latency, divider)`: a `LatencyFu` at the arithmetic unit's code
    /// and one behind a `ClockDomainFu` at the logic unit's; both add,
    /// whatever the op.
    Latency(u32, u32),
}

impl Units {
    fn build(self) -> Vec<Box<dyn FunctionalUnit>> {
        match self {
            Units::Standard => {
                let mut units = standard_units(32);
                let xi = XiSortAdapter::new(XiConfig::new(XI_CELLS as u32), 32);
                units.push(Box::new(xi));
                units
            }
            Units::Latency(latency, divider) => {
                let slow = LatencyFu::new("slowadd", LOGIC, latency);
                let fast = Box::new(LatencyFu::new("add", ARITH, latency));
                vec![fast, Box::new(ClockDomainFu::new(slow, divider))]
            }
        }
    }
}

#[derive(Debug, Clone)]
pub enum Front {
    Batch(Vec<Job>),
    /// `(clients, queue_depth, poll_every)`: `open_loop` arrivals of
    /// `clients` from the workload's seed, fed to a three-tenant
    /// `Service`; a polled cell polls every `poll_every` submissions.
    Service(usize, usize, usize),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub units: Units,
    pub link: LinkModel,
    pub shards: usize,
    pub placement: Placement,
    /// `None`: a bare link; `Some(‰)`: the reliable transport over a link
    /// faulting that share of frames.
    pub faults: Option<u32>,
    pub seed: u64,
    pub front: Front,
}

impl Workload {
    /// A drawn workload, less what a draw may produce but the cells
    /// cannot run: faults on the prototyping link, where a lost segment
    /// backs off for up to 10⁵ cycles that every Exhaustive cell steps
    /// through one by one, and χ-sorts with the latency units, which have
    /// no χ-sort unit.
    pub fn drawn(
        units: Units,
        link: LinkModel,
        shards: usize,
        round_robin: bool,
        faults: Option<u32>,
        seed: u64,
        mut front: Front,
    ) -> Workload {
        let faults = faults.filter(|&rate| rate == 0 || link.name != "prototyping");
        if let (Units::Latency(..), Front::Batch(jobs)) = (units, &mut front) {
            jobs.retain(|j| !matches!(j, Job::XiSort(_)));
        }
        let placement = match round_robin {
            true => Placement::RoundRobin,
            false => Placement::LeastLoaded,
        };
        Workload {
            units,
            link,
            shards,
            placement,
            faults,
            seed,
            front,
        }
    }

    fn farm(&self, cell: Cell) -> Farm {
        let cfg = FarmConfig {
            shards: self.shards,
            seed: self.seed,
            activity_mode: cell.mode,
            trace_depth: if cell.traced { 4096 } else { 0 },
            placement: self.placement,
            ..FarmConfig::default()
        };
        let (units, link, faults) = (self.units, self.link, self.faults);
        Farm::new(cfg, move |ctx| {
            let (coproc, units) = (CoprocConfig::default(), units.build());
            let Some(rate) = faults else {
                return System::new(coproc, units, link);
            };
            let t = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
            let faults = (rate > 0).then(|| FaultModel::uniform(ctx.seed, rate));
            System::new_reliable(coproc, units, link, t, faults)
        })
    }

    fn arrivals(&self, clients: usize) -> Vec<Arrival> {
        open_loop(&WorkloadSpec {
            clients,
            tenants: 3,
            jobs_per_client: 2,
            mean_gap: 2_500,
            seed: self.seed,
        })
    }
}

/// One configuration a workload runs in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub mode: ActivityMode,
    pub parallel: bool,
    pub traced: bool,
    pub polled: bool,
}

impl Cell {
    const fn new(mode: ActivityMode, parallel: bool, traced: bool, polled: bool) -> Cell {
        Cell {
            mode,
            parallel,
            traced,
            polled,
        }
    }

    /// A mode's base cell: serial, untraced and unpolled. Exhaustive's is
    /// the reference cell.
    const fn base(mode: ActivityMode) -> Cell {
        Cell::new(mode, false, false, false)
    }
}

/// The cell list, the reference cell first; the polled cells run only
/// for a session.
fn cells(w: &Workload) -> Vec<Cell> {
    let mut cells = Vec::new();
    for mode in [ActivityMode::Exhaustive, ActivityMode::Scheduled] {
        for (parallel, traced) in [(false, false), (true, false), (false, true), (true, true)] {
            cells.push(Cell::new(mode, parallel, traced, false));
        }
        if let Front::Service(..) = w.front {
            let parallel = mode == ActivityMode::Scheduled;
            cells.push(Cell::new(mode, parallel, false, true));
        }
    }
    cells
}

#[derive(Debug, PartialEq)]
pub enum Output {
    Batch(Vec<JobResult>),
    /// Completions, indices of the arrivals shed, final clock and stats.
    Service(Vec<Completion>, Vec<usize>, u64, ServeStats),
}

/// Everything a run shows.
pub struct Observed {
    pub output: Output,
    pub shard_cycles: Vec<u64>,
    pub shard_stats: Vec<CoprocStats>,
    pub link: LinkStats,
    pub sim: SimStats,
    pub traces: Vec<Vec<TraceEvent>>,
}

impl Observed {
    /// What no activity mode may change.
    fn projection(&self) -> impl PartialEq + '_ {
        let o = self;
        let sim = invariant_slice(&o.sim);
        (&o.output, &o.shard_cycles, &o.shard_stats, &o.link, sim)
    }
}

/// Run `w` in `cell`.
fn observe(w: &Workload, cell: Cell) -> Observed {
    let mut farm = w.farm(cell);
    let capture = |output, farm: &Farm, sim, link| {
        let shards = farm.shards();
        Observed {
            output,
            shard_cycles: shards.iter().map(|d| d.cycles()).collect(),
            shard_stats: shards.iter().map(|d| d.system().coproc().stats()).collect(),
            link,
            sim,
            traces: shards.iter().map(|d| d.dump_trace()).collect(),
        }
    };
    let (clients, queue_depth, poll_every) = match w.front {
        Front::Batch(ref jobs) => {
            let results = match cell.parallel {
                true => farm.run_parallel(jobs),
                false => farm.run_serial(jobs),
            };
            let output = Output::Batch(results.expect("farm run"));
            return capture(output, &farm, farm.sim_stats(), farm.link_stats());
        }
        Front::Service(clients, queue_depth, poll_every) => (clients, queue_depth, poll_every),
    };
    let cfg = ServeConfig {
        queue_depth,
        parallel: cell.parallel,
        ..ServeConfig::default()
    };
    let tenants = (0..3).map(|t| TenantSpec::new(format!("t{t}"), 1 << t));
    let mut svc = Service::new(cfg, tenants.collect(), farm).expect("valid service");
    let (mut done, mut shed) = (Vec::new(), Vec::new());
    for (i, a) in w.arrivals(clients).into_iter().enumerate() {
        match svc.submit(a.tenant, a.tick, a.job).expect("submit") {
            Admission::Admitted { .. } => {}
            Admission::Overloaded { .. } => shed.push(i),
            other => panic!("arrival {i}: {other:?}"),
        }
        if cell.polled && i % poll_every == 0 {
            done.extend(svc.poll());
        }
    }
    done.extend(svc.drain().expect("drain"));
    let output = Output::Service(done, shed, svc.clock(), svc.stats().clone());
    let (sim, link) = (svc.sim_stats().clone(), svc.link_stats());
    capture(output, svc.farm(), sim, link)
}

/// Run `w` in every cell, check each against the reference, its mode's
/// base cell and the guards, and the reference against the oracle.
pub fn check(w: &Workload) -> Vec<(Cell, Observed)> {
    let label = format!("{w:?}");
    let runs: Vec<(Cell, Observed)> = cells(w).into_iter().map(|c| (c, observe(w, c))).collect();
    let reference = &runs[0].1;
    oracle(w, reference, &label);
    let observed = |c| &runs.iter().find(|r| r.0 == c).expect("a base cell").1;
    let most = reference.sim.cycles_stepped; // Exhaustive's steps
    let traced = runs.iter().find(|(c, _)| c.traced).map(|(_, o)| &o.traces);
    for (cell, got) in &runs {
        let at = format!("{cell:?} on {label}");
        let outputs: Vec<_> = match &got.output {
            Output::Batch(results) => results.iter().map(|r| &r.output).collect(),
            Output::Service(done, ..) => done.iter().map(|c| &c.output).collect(),
        };
        let panicked = outputs
            .iter()
            .find(|o| matches!(o, Err(DriverError::Panicked(_))));
        assert!(panicked.is_none(), "{at}: {panicked:?}");
        let (sim, fault_free) = (&got.sim, w.faults.unwrap_or(0) == 0);
        let failed_over = sim.recovery.jobs_failed_over;
        assert!(!fault_free || failed_over == 0, "{at}: failed over");
        let (stepped, skipped) = (sim.cycles_stepped, sim.cycles_skipped);
        let reasons = sim.step_reasons;
        assert_eq!(reasons.total(), stepped, "{at}: {reasons:?}");
        if cell.mode == ActivityMode::Scheduled {
            assert!(stepped <= most, "{at}: stepped {stepped} > {most}");
            // Non-vacuity: a slow link leaves quiet spans to skip.
            let slow = w.link.latency_cycles >= 64 && sim.cycles_simulated > 0;
            assert!(!slow || skipped > 0, "{at}: nothing skipped");
        } else {
            assert_eq!(skipped, 0, "{at}: skipped cycles");
        }
        let same = reference.projection() == got.projection();
        assert!(same, "{at}: diverged from the reference");
        let base = observed(Cell::base(cell.mode));
        let same = base.projection() == got.projection() && base.sim == got.sim;
        assert!(same, "{at}: diverged from its mode's base cell");
        if cell.traced {
            assert_eq!(traced, Some(&got.traces), "{at}: trace diverged");
            let kept = got.traces.iter().any(|t| !t.is_empty());
            assert!(kept || sim.cycles_simulated == 0, "{at}: no events");
        }
    }
    runs
}

/// Check the reference cell against the golden model, the sorted inputs
/// and `Arrival::expect`, and its latency histogram against the user
/// instructions the workload issues.
fn oracle(w: &Workload, reference: &Observed, label: &str) {
    let mut instrs = 0;
    match (&w.front, &reference.output) {
        (Front::Batch(jobs), Output::Batch(results)) => {
            let plan = w.farm(Cell::base(ActivityMode::Exhaustive)).plan(jobs);
            let mut shards = vec![Golden::new(32, 8); w.shards];
            for (i, (job, r)) in jobs.iter().zip(results).enumerate() {
                let want = predict(&mut shards[plan[i]], w.units, job, &mut instrs);
                assert_eq!((r.job, r.shard), (i, plan[i]), "{label}: job {i} placement");
                let got = normalize(job, &r.output);
                assert_eq!(got, Ok(want), "{label}: job {i} against the golden model");
            }
        }
        (&Front::Service(clients, depth, _), Output::Service(done, shed, ..)) => {
            assert!(depth < usize::MAX || shed.is_empty(), "{label}: shed");
            let arrivals = w.arrivals(clients);
            let admitted: Vec<&Arrival> = (arrivals.iter().enumerate())
                .filter_map(|(i, a)| (!shed.contains(&i)).then_some(a))
                .collect();
            let mut seqs: Vec<u64> = done.iter().map(|c| c.seq).collect();
            seqs.sort_unstable();
            let all: Vec<u64> = (0..admitted.len() as u64).collect();
            assert_eq!(seqs, all, "{label}: every admitted job completes once");
            for c in done {
                let a = admitted[c.seq as usize];
                let Job::Requests(msgs) = &a.job else {
                    unreachable!()
                };
                let Some(&HostMsg::ReadReg { tag, .. }) = msgs.last() else {
                    unreachable!()
                };
                let value = Word::from_u64(a.expect, 32);
                let want = Ok(JobOutput::Msgs(vec![DevMsg::Data { tag, value }]));
                assert_eq!(c.output, want, "{label}: seq {} against its arrival", c.seq);
            }
            instrs = done.len() as u64;
        }
        _ => unreachable!("a front end yields its own output"),
    }
    let retired = reference.sim.lat_issue_retire.count();
    assert_eq!(retired, instrs, "{label}: instructions retired");
}

/// What `job` returns, as [`normalize`] leaves it, on a shard whose state
/// `g` models; moves `g` past the job and counts the user instructions
/// the job issues.
fn predict(g: &mut Golden, units: Units, job: &Job, instrs: &mut u64) -> JobOutput {
    let data = |tag, v: u32| {
        let value = Word::from_u64(v.into(), 32);
        DevMsg::Data { tag, value }
    };
    match job {
        Job::Program { source, reads } => {
            for line in source.lines() {
                *instrs += exec(g, units, line);
            }
            JobOutput::Msgs(reads.iter().map(|&r| data(0, g.regs[r as usize])).collect())
        }
        Job::Requests(msgs) => {
            let mut out = Vec::new();
            for m in msgs {
                match *m {
                    HostMsg::WriteReg { reg, value } => {
                        g.regs[reg as usize] = value.as_u64() as u32
                    }
                    HostMsg::ReadReg { reg, tag } => out.push(match g.regs.get(reg as usize) {
                        Some(&v) => data(tag, v),
                        None => {
                            let (code, info) = (ErrorCode::BadRegister, reg.into());
                            DevMsg::Error { code, info }
                        }
                    }),
                    HostMsg::Sync { tag } => out.push(DevMsg::SyncAck { tag }),
                    HostMsg::Instr(w) => {
                        *instrs += exec(g, units, &disassemble(w));
                    }
                    ref other => panic!("the harness sends no {other:?}"),
                }
            }
            JobOutput::Msgs(out)
        }
        Job::XiSort(values) => {
            // The farm stages through r1 and reads back through r2 (Reset,
            // n Pushes, InitBounds, Sort, n ReadAts): r1 ends on the last
            // index, r2 on the largest value.
            *instrs += 2 * values.len() as u64 + 3;
            let mut values = values.clone();
            values.sort_unstable();
            g.regs[1] = values.len() as u32 - 1;
            g.regs[2] = *values.last().expect("a sort has values");
            JobOutput::Sorted { rounds: 0, values }
        }
    }
}

/// The golden model executing `line`, `OP rD, rA, rB, fF` (a further
/// operand is ignored; the latency units add, whatever the op) or
/// `LOADI rD, #N`; returns the user instructions it counts.
fn exec(g: &mut Golden, units: Units, line: &str) -> u64 {
    let (op, args) = line.trim().split_once(' ').expect("op and operands");
    let n: Vec<u32> = (args.split(','))
        .map(|a| a.trim()[1..].parse().expect("rN, fN or #N"))
        .collect();
    if op == "LOADI" {
        g.regs[n[0] as usize] = n[1];
        return 0; // a management instruction
    }
    let [d, a, b, f] = [n[0], n[1], n[2], n[3]].map(|r| r as usize);
    let (arith, logic) = (ArithOp::from_mnemonic(op), LogicOp::from_mnemonic(op));
    match (units, arith, logic) {
        (Units::Latency(..), ..) => g.arith(ArithOp::Add, d, a, b, f, 0),
        (_, Some(op), _) => g.arith(op, d, a, b, f, 0),
        (_, _, Some(op)) => g.logic(op, d, a, b, f),
        _ => panic!("the harness issues no {line}"),
    }
    1
}

/// `out` with what the golden model leaves open cleared: the tags the
/// driver gives a program's reads and a sort's round count.
fn normalize(job: &Job, out: &Result<JobOutput, DriverError>) -> Result<JobOutput, DriverError> {
    let untag = |m: &DevMsg| match *m {
        DevMsg::Data { value, .. } => DevMsg::Data { tag: 0, value },
        ref other => other.clone(),
    };
    match (job, out) {
        (Job::Program { .. }, Ok(JobOutput::Msgs(msgs))) => {
            Ok(JobOutput::Msgs(msgs.iter().map(untag).collect()))
        }
        (Job::XiSort(_), Ok(JobOutput::Sorted { values, .. })) => {
            let values = values.clone();
            Ok(JobOutput::Sorted { rounds: 0, values })
        }
        _ => out.clone(),
    }
}

/// `op rD, rA, rB, fF`, the one instruction shape the harness issues.
pub fn line(op: &str, [d, a, b, f]: [u8; 4]) -> String {
    format!("{op} r{d}, r{a}, r{b}, f{f}")
}

pub fn instr(op: &str, regs: [u8; 4]) -> HostMsg {
    let word = assemble_line(&line(op, regs), 1).expect("assembles");
    HostMsg::Instr(word.expect("an instruction"))
}

pub fn write(reg: u8, v: u32) -> HostMsg {
    let value = Word::from_u64(v.into(), 32);
    HostMsg::WriteReg { reg, value }
}

/// One job: a program, a request batch or a χ-sort. Programs draw from
/// a closed pool of two-operand ops and loads over r0..r7 so any program
/// assembles; request batches mix valid and
/// out-of-range reads, so in-band errors are covered too.
pub fn job_group() -> impl Strategy<Value = Vec<Job>> {
    let regs = || (0u8..8, 0u8..8, 0u8..8, 0u8..4).prop_map(|(d, a, b, f)| [d, a, b, f]);
    let op = (0usize..5).prop_map(|i| ["ADD", "SUB", "XOR", "AND", "OR"][i]);
    let load = (0u8..8, any::<u32>()).prop_map(|(d, v)| format!("LOADI r{d}, #{v}"));
    let step = prop_oneof![(op, regs()).prop_map(|(op, r)| line(op, r)), load];
    let lines = vec(step, 1..8);
    let program = (lines, vec(0u8..8, 1..4)).prop_map(|(lines, reads)| {
        let source = lines.join("\n");
        vec![Job::Program { source, reads }]
    });
    let request = prop_oneof![
        (0u8..8, any::<u32>()).prop_map(|(reg, v)| write(reg, v)),
        (0u8..8, any::<u16>()).prop_map(|(reg, tag)| HostMsg::ReadReg { reg, tag }),
        (200u8..=255, any::<u16>()).prop_map(|(reg, tag)| HostMsg::ReadReg { reg, tag }),
        any::<u16>().prop_map(|tag| HostMsg::Sync { tag }),
        regs().prop_map(|r| instr("ADD", r)),
        regs().prop_map(|r| instr("XOR", r)),
    ];
    let requests = vec(request, 1..8).prop_map(|msgs| vec![Job::Requests(msgs)]);
    let sort = vec(any::<u32>(), 1..=XI_CELLS).prop_map(|v| vec![Job::XiSort(v)]);
    prop_oneof![program, requests, sort]
}
