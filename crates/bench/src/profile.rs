//! Pipeline profiling measurement (experiment E14).
//!
//! Uses the observability layer — always-on latency histograms plus the
//! typed event trace — to profile the arithmetic and χ-sort workloads:
//! per-stage utilization, issue→dispatch→retire latency percentiles, and
//! a Perfetto-loadable trace of one run. Every traced measurement is
//! paired with an untraced twin and the two must agree bit for bit
//! (results *and* `SimStats`): tracing observes the machine, it never
//! steers it.
//!
//! The module also holds the two scheduler smokes whose work counts
//! `exp_profile` writes into `BENCH_pipeline_profile.json`: the E8
//! sim-speed configuration and a reliable multi-host run, whose stepped
//! cycles show whether the scheduler still skips to each host's transmit
//! event.

use fu_host::{Farm, FarmConfig, Job, LinkModel, LinkStats, MultiHostSystem};
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::{ActivityMode, CoprocConfig};
use rtl_sim::{LatencySnapshot, SimStats};

use crate::links::arith_batch_mode;
use crate::report::Obj;
use crate::throughput::{arith_jobs, xi_jobs};

/// Trace ring depth used for profiled runs — deep enough that an E14
/// workload's full event stream is retained.
pub const TRACE_DEPTH: usize = 1 << 16;

/// One profiled workload configuration.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Workload label (`"arith"` or `"xi-sort"`).
    pub workload: &'static str,
    /// Operations per job.
    pub batch: usize,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// User instructions retired (the latency histogram population).
    pub instructions: u64,
    /// Per-stage utilization: fraction of simulated cycles the stage had
    /// work, in pipeline order.
    pub utilization: Vec<(&'static str, f64)>,
    /// Latency percentiles for the three instruction legs.
    pub latency: LatencySnapshot,
    /// Typed events retained in the trace ring.
    pub trace_events: usize,
    /// Events evicted from the ring (0 means the trace is complete).
    pub trace_dropped: u64,
    /// The Perfetto JSON document for this run's trace.
    pub perfetto: String,
}

fn profile_farm(workload: &'static str, seed: u64, trace_depth: usize) -> Farm {
    let cfg = FarmConfig {
        shards: 1,
        seed,
        trace_depth,
        ..FarmConfig::default()
    };
    match workload {
        "arith" => Farm::standard(cfg, CoprocConfig::default(), LinkModel::pcie_like()),
        "xi-sort" => Farm::new(cfg, move |_ctx| {
            let coproc = CoprocConfig::default();
            let units: Vec<Box<dyn fu_rtm::FunctionalUnit>> = vec![Box::new(
                xi_sort::XiSortAdapter::new(xi_sort::XiConfig::new(64), coproc.word_bits),
            )];
            fu_host::System::new(coproc, units, LinkModel::pcie_like())
        }),
        other => panic!("unknown workload {other}"),
    }
}

fn jobs_for(workload: &'static str, total: usize, batch: usize, seed: u64) -> Vec<Job> {
    match workload {
        "arith" => arith_jobs(total, batch, seed),
        "xi-sort" => xi_jobs(total, batch.min(64), seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Profile one workload at one batch size: run it traced, run the
/// identical untraced twin, verify non-perturbation, and distil the
/// traced run's statistics.
///
/// # Panics
/// Panics when the traced run's results or `SimStats` differ from the
/// untraced twin — tracing must never perturb the simulation — or when
/// the trace ring evicted an event, so the trace would be incomplete.
pub fn profile_workload(
    workload: &'static str,
    total: usize,
    batch: usize,
    seed: u64,
) -> ProfileRun {
    let jobs = jobs_for(workload, total, batch, seed);

    let mut traced = profile_farm(workload, seed, TRACE_DEPTH);
    let traced_out = traced.run_serial(&jobs).expect("traced farm run");
    let traced_sim = traced.sim_stats();

    let mut plain = profile_farm(workload, seed, 0);
    let plain_out = plain.run_serial(&jobs).expect("untraced farm run");
    let plain_sim = plain.sim_stats();

    assert_eq!(
        traced_out, plain_out,
        "tracing perturbed the {workload} result stream"
    );
    assert_eq!(
        traced_sim, plain_sim,
        "tracing perturbed the {workload} simulation statistics"
    );

    let shard = &traced.shards()[0];
    assert_eq!(
        shard.trace_dropped(),
        0,
        "the {workload} trace overflowed its {TRACE_DEPTH}-event ring"
    );
    ProfileRun {
        workload,
        batch,
        cycles: traced_sim.cycles_simulated,
        instructions: traced_sim.lat_issue_retire.count(),
        utilization: traced_sim.utilization(),
        latency: traced_sim.latency_snapshot(),
        trace_events: shard.dump_trace().len(),
        trace_dropped: shard.trace_dropped(),
        perfetto: traced
            .shard_perfetto(0)
            .expect("tracing was enabled on shard 0"),
    }
}

/// The E8-style sim-speed smoke configuration whose work counts the
/// profile report pins: the arithmetic batch over the slow prototyping
/// link.
pub fn sim_speed_smoke(mode: ActivityMode) -> SimStats {
    arith_batch_mode(LinkModel::prototyping(), 64, mode).sim
}

/// A smoke's work counters as a report object. They hold no wall clock,
/// so the pinned report cannot flake on a loaded runner. A scheduler that
/// silently starts stepping or waking too often changes them even when
/// the results stay bit-identical.
pub fn work_counts(sim: &SimStats) -> Obj {
    Obj::default()
        .val("cycles_simulated", sim.cycles_simulated)
        .val("cycles_stepped", sim.cycles_stepped)
        .val(
            "stage_evals_total",
            sim.stage_evals.iter().map(|&(_, n)| n).sum::<u64>(),
        )
        .val("wheel_wakes_scheduled", sim.wheel.wakes_scheduled)
        .val("wheel_wakes_fired", sim.wheel.wakes_fired)
}

/// A smoke's stepped cycles split by step reason (the first event source
/// that kept each one from being skipped), as a report object.
pub fn step_reasons(sim: &SimStats) -> Obj {
    let r = sim.step_reasons;
    Obj::default()
        .val("stage", r.stage)
        .val("unit", r.unit)
        .val("deadline", r.deadline)
        .val("host", r.host)
        .val("direct", r.direct)
}

/// Hosts in the reliable multi-host smoke.
pub const RELIABLE_HOSTS: usize = 4;
/// Round trips each host makes in the reliable multi-host smoke.
pub const RELIABLE_TRIPS: u16 = 50;

/// What the reliable multi-host smoke leaves observable, plus its
/// scheduler statistics.
#[derive(Debug, Clone)]
pub struct ReliableRun {
    /// Every reply, in the order the hosts observed them.
    pub replies: Vec<DevMsg>,
    /// Simulated cycles at the last reply.
    pub cycle: u64,
    /// Each host port's link statistics.
    pub links: Vec<LinkStats>,
    /// Scheduler statistics of the shared coprocessor.
    pub sim: SimStats,
}

/// The reliable multi-host smoke: [`RELIABLE_HOSTS`] closed-loop hosts
/// on reliable prototyping-link ports, fault-free. Each host writes an
/// operand, adds a per-host constant to it and reads the sum back before
/// its next trip. Nearly every cycle waits on a bandwidth gate (50
/// cycles per frame) or on a frame in flight, so the stepped cycles
/// measure how exactly the scheduler finds each port's next event.
///
/// # Panics
/// When a reply is missing or carries the wrong sum.
pub fn reliable_smoke(mode: ActivityMode) -> ReliableRun {
    let link = LinkModel::prototyping();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let units = fu_units::standard_units(32);
    let mut sys = MultiHostSystem::new_reliable(
        CoprocConfig::default(),
        units,
        link,
        RELIABLE_HOSTS,
        tcfg,
        None,
    )
    .expect("four hosts fit the tag space");
    sys.set_activity_mode(mode);
    let word = |v: u64| Word::from_u64(v, 32);
    let regs = |h: usize| (1 + 3 * h as u8, 2 + 3 * h as u8, 3 + 3 * h as u8);
    let trip = |sys: &mut MultiHostSystem, h: usize, t: u16| {
        let (ra, rb, rd) = regs(h);
        if t == 0 {
            let value = word(1000 * h as u64);
            sys.send(h, &HostMsg::WriteReg { reg: rb, value });
        }
        let value = word(u64::from(t));
        sys.send(h, &HostMsg::WriteReg { reg: ra, value });
        let add = format!("ADD r{rd}, r{ra}, r{rb}, f{h}");
        let instr = fu_isa::asm::assemble_line(&add, 1)
            .expect("assembles")
            .expect("one instruction");
        sys.send(h, &HostMsg::Instr(instr));
        let tag = sys.brand_tag(h, t);
        sys.send(h, &HostMsg::ReadReg { reg: rd, tag });
    };
    for h in 0..RELIABLE_HOSTS {
        trip(&mut sys, h, 0);
    }
    let mut replies = Vec::new();
    for t in 0..RELIABLE_TRIPS {
        for h in 0..RELIABLE_HOSTS {
            let reply = sys.recv_blocking(h, 1_000_000).expect("reply");
            let want = 1000 * h as u64 + u64::from(t);
            assert!(
                matches!(&reply, DevMsg::Data { value, .. } if value.as_u64() == want),
                "host {h} trip {t}: {reply:?}"
            );
            replies.push(reply);
            if t + 1 < RELIABLE_TRIPS {
                trip(&mut sys, h, t + 1);
            }
        }
    }
    ReliableRun {
        replies,
        cycle: sys.cycle(),
        links: (0..RELIABLE_HOSTS).map(|h| sys.link_stats(h)).collect(),
        sim: sys.sim_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_smoke_counters_show_the_wheel_working() {
        let m = sim_speed_smoke(ActivityMode::Scheduled);
        let reference = sim_speed_smoke(ActivityMode::Exhaustive);
        assert_eq!(m.cycles_simulated, reference.cycles_simulated);
        assert_eq!(
            reference.wheel.wakes_scheduled, 0,
            "the reference kernel never skips"
        );
        assert!(
            m.cycles_stepped < reference.cycles_stepped,
            "skipping must reduce stepping: {} vs {}",
            m.cycles_stepped,
            reference.cycles_stepped
        );
    }

    #[test]
    fn traced_sim_speed_smoke_matches_its_untraced_twin() {
        for mode in [ActivityMode::Scheduled, ActivityMode::Exhaustive] {
            let link = LinkModel::prototyping();
            let plain = arith_batch_mode(link, 64, mode);
            let traced = crate::links::arith_batch_mode_traced(link, 64, mode, TRACE_DEPTH);
            assert_eq!(
                plain.cycles, traced.cycles,
                "{mode:?}: tracing changed the cycles"
            );
            assert_eq!(
                plain.sim, traced.sim,
                "{mode:?}: tracing changed the SimStats"
            );
        }
    }

    #[test]
    fn profiled_arith_run_is_unperturbed_and_populated() {
        let run = profile_workload("arith", 16, 8, 0xE14);
        assert_eq!(run.instructions, 16);
        assert!(run.trace_events > 0, "traced run must retain events");
        assert!(run.latency.issue_to_retire.p50 > 0);
        let dispatcher = run
            .utilization
            .iter()
            .find(|(s, _)| *s == "dispatcher")
            .expect("dispatcher utilization present");
        assert!(dispatcher.1 > 0.0 && dispatcher.1 <= 1.0);
        assert!(run.perfetto.contains("\"ph\":\"X\""), "spans expected");
    }
}
