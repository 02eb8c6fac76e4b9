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
//! The module also carries CI's work-count gate: a deterministic
//! baseline (`ci/sim_speed_baseline.json`) for the E8 sim-speed smoke
//! configuration that the `exp_profile` binary refuses to exceed by more
//! than 5%. A second work-count section pins the reliable multi-host
//! smoke, whose stepped cycles show whether the scheduler still skips to
//! each host's transmit event.

use fu_host::{Farm, FarmConfig, Job, LinkModel, LinkStats, MultiHostSystem};
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::{ActivityMode, CoprocConfig};
use rtl_sim::{LatencySnapshot, SimStats};

use crate::gate::{Bound, Counters, Spec};
use crate::links::arith_batch_mode;
use crate::report::{self, Obj};
use crate::serving::{serving_smoke, SERVE_COUNTS};
use crate::soft_errors::{soft_error_smoke, SOFT_COUNTS};
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
/// untraced twin — tracing must never perturb the simulation.
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

    let report = &traced.shard_reports()[0];
    ProfileRun {
        workload,
        batch,
        cycles: traced_sim.cycles_simulated,
        instructions: traced_sim.lat_issue_retire.count(),
        utilization: traced_sim.utilization(),
        latency: traced_sim.latency_snapshot(),
        trace_events: report.trace.len(),
        trace_dropped: 0,
        perfetto: traced
            .shard_perfetto(0)
            .expect("tracing was enabled on shard 0"),
    }
}

/// The E8-style sim-speed smoke configuration whose work counts the CI
/// baseline pins: the arithmetic batch over the slow prototyping link.
pub fn sim_speed_smoke(mode: ActivityMode) -> SimStats {
    arith_batch_mode(LinkModel::prototyping(), 64, mode).sim
}

/// The sim-speed smoke's work counters (no wall clock, so the gate
/// cannot flake on a loaded runner). Simulated cycles are pinned: the
/// workload is deterministic, so a cycle-count change is a behaviour
/// change, not a slowdown. Stepped cycles, stage evaluations and the
/// scheduler's deadline counts may grow by 5% — a scheduler that
/// silently starts waking too often is a perf regression even when the
/// results stay bit-identical.
pub const WORK_COUNTS: Spec = &[
    ("cycles_simulated", Bound::Exact),
    ("cycles_stepped", Bound::Within5Pct),
    ("stage_evals_total", Bound::Within5Pct),
    ("wheel_wakes_scheduled", Bound::Within5Pct),
    ("wheel_wakes_fired", Bound::Within5Pct),
];

/// Distil the [`WORK_COUNTS`] from a stats snapshot.
#[must_use]
pub fn work_counts(sim: &SimStats) -> Counters {
    Counters::new(
        WORK_COUNTS,
        [
            sim.cycles_simulated,
            sim.cycles_stepped,
            sim.stage_evals.iter().map(|&(_, n)| n).sum(),
            sim.wheel.wakes_scheduled,
            sim.wheel.wakes_fired,
        ],
    )
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

/// The reliable multi-host smoke's work counters. Simulated cycles are
/// pinned; stepped cycles and stage evaluations may grow by 5%. A host
/// port that reports work while its bandwidth gate is closed multiplies
/// the stepped cycles, so it fails this gate.
pub const RELIABLE_COUNTS: Spec = &[
    ("cycles_simulated", Bound::Exact),
    ("cycles_stepped", Bound::Within5Pct),
    ("stage_evals_total", Bound::Within5Pct),
];

/// Distil the [`RELIABLE_COUNTS`] from a stats snapshot.
#[must_use]
pub fn reliable_counts(sim: &SimStats) -> Counters {
    Counters::new(
        RELIABLE_COUNTS,
        [
            sim.cycles_simulated,
            sim.cycles_stepped,
            sim.stage_evals.iter().map(|&(_, n)| n).sum(),
        ],
    )
}

/// The CI baseline document under the repository root.
pub const BASELINE_FILE: &str = "ci/sim_speed_baseline.json";

/// The CI baseline document: one pinned-counter section per smoke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmokeBaseline {
    /// [`WORK_COUNTS`] from the scheduled-mode sim-speed smoke.
    pub scheduled: Counters,
    /// Deterministic counters from the E16 soft-error smoke (a protected
    /// run that must stay bit-identical to its fault-free reference,
    /// plus a farm-failover run).
    pub soft: Counters,
    /// Deterministic counters from the E17 serving smoke (a saturated
    /// multi-tenant run whose admission and completion behaviour is
    /// pinned exactly, with 5% headroom on scheduler efficiency).
    pub serving: Counters,
    /// [`RELIABLE_COUNTS`] from the scheduled reliable multi-host smoke.
    pub reliable: Counters,
}

impl SmokeBaseline {
    /// Section keys and specs, in document order.
    const SECTIONS: [(&'static str, Spec); 4] = [
        ("scheduled", WORK_COUNTS),
        ("soft_errors", SOFT_COUNTS),
        ("serving", SERVE_COUNTS),
        ("reliable", RELIABLE_COUNTS),
    ];

    /// Measure the current smoke counters. Also returns, by name, the
    /// full scheduler statistics of the sim-speed and reliable smokes the
    /// `scheduled` and `reliable` sections were distilled from.
    pub fn measure() -> (SmokeBaseline, [(&'static str, SimStats); 2]) {
        let sim_speed = sim_speed_smoke(ActivityMode::Scheduled);
        let reliable = reliable_smoke(ActivityMode::Scheduled).sim;
        let baseline = SmokeBaseline {
            scheduled: work_counts(&sim_speed),
            soft: soft_error_smoke(),
            serving: serving_smoke(),
            reliable: reliable_counts(&reliable),
        };
        (baseline, [("sim-speed", sim_speed), ("reliable", reliable)])
    }

    fn sections(&self) -> [&Counters; 4] {
        [&self.scheduled, &self.soft, &self.serving, &self.reliable]
    }

    /// Serialize as the baseline JSON document.
    pub fn to_json(&self) -> String {
        let doc = Self::SECTIONS.iter().zip(self.sections()).fold(
            Obj::default().val("bench", "sim_speed_smoke"),
            |doc, ((key, _), c)| doc.obj(key, c.to_obj()),
        );
        doc.render(2) + "\n"
    }

    /// Read and parse the checked-in baseline, [`BASELINE_FILE`].
    ///
    /// # Panics
    /// When it is unreadable or malformed, saying how to rewrite it.
    #[must_use]
    pub fn load() -> SmokeBaseline {
        std::fs::read_to_string(report::path(BASELINE_FILE))
            .map_err(|e| e.to_string())
            .and_then(|text| SmokeBaseline::from_json(&text))
            .unwrap_or_else(|e| panic!("{BASELINE_FILE}: {e}; run exp_profile -- --write-baseline"))
    }

    /// Parse the baseline JSON document (sections in document order).
    ///
    /// # Errors
    /// Returns a description of the missing/malformed section or field.
    pub fn from_json(text: &str) -> Result<SmokeBaseline, String> {
        let mut starts = Vec::new();
        for (key, _) in Self::SECTIONS {
            let at = text
                .find(&format!("\"{key}\":"))
                .ok_or_else(|| format!("baseline is missing the {key} section"))?;
            if starts.last().is_some_and(|&prev| at < prev) {
                return Err(
                    "baseline sections out of order (scheduled, soft_errors, serving, \
                     reliable)"
                        .into(),
                );
            }
            starts.push(at);
        }
        starts.push(text.len());
        let section =
            |i: usize| Counters::from_json(Self::SECTIONS[i].1, &text[starts[i]..starts[i + 1]]);
        Ok(SmokeBaseline {
            scheduled: section(0)?,
            soft: section(1)?,
            serving: section(2)?,
            reliable: section(3)?,
        })
    }

    /// Gate every section against the baseline.
    ///
    /// # Errors
    /// Returns a description of the first violated bound.
    pub fn check_against(&self, baseline: &SmokeBaseline) -> Result<(), String> {
        for (((key, _), c), base) in Self::SECTIONS
            .iter()
            .zip(self.sections())
            .zip(baseline.sections())
        {
            c.check_against(base).map_err(|e| format!("{key}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(cycles_stepped: u64, stage_evals_total: u64) -> Counters {
        Counters::new(
            WORK_COUNTS,
            [1000, cycles_stepped, stage_evals_total, 40, 30],
        )
    }

    #[test]
    fn smoke_baseline_roundtrips_through_json() {
        let b = SmokeBaseline {
            scheduled: counts(1234, 8765),
            soft: Counters::new(SOFT_COUNTS, [33, 7, 6, 1, 3]),
            serving: Counters::new(SERVE_COUNTS, [500, 100, 40, 900_000]),
            reliable: Counters::new(RELIABLE_COUNTS, [60_000, 4_000, 2_500]),
        };
        assert_eq!(SmokeBaseline::from_json(&b.to_json()), Ok(b));
    }

    #[test]
    fn checked_in_baseline_roundtrips_byte_for_byte() {
        let text = include_str!("../../../ci/sim_speed_baseline.json");
        let parsed = SmokeBaseline::from_json(text).expect("parse the checked-in baseline");
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn gate_accepts_identical_and_rejects_regressions() {
        let base = counts(100, 400);
        assert!(base.check_against(&base).is_ok());
        // 5% over is allowed, more is not.
        let ok = base.with("stage_evals_total", 420);
        assert!(ok.check_against(&base).is_ok());
        let bad = base.with("stage_evals_total", 421);
        assert!(bad.check_against(&base).is_err());
        let drift = base.with("cycles_simulated", 1001);
        assert!(drift.check_against(&base).is_err());
        // A scheduler that wakes too often is a regression too.
        let chatty = base.with("wheel_wakes_fired", 32);
        assert!(chatty.check_against(&base).is_err());
    }

    #[test]
    fn measured_smoke_counters_show_the_wheel_working() {
        let m = SmokeBaseline::measure().0.scheduled;
        let reference = work_counts(&sim_speed_smoke(ActivityMode::Exhaustive));
        assert_eq!(m.get("cycles_simulated"), reference.get("cycles_simulated"));
        assert_eq!(
            reference.get("wheel_wakes_scheduled"),
            0,
            "the reference kernel never skips"
        );
        assert!(
            m.get("cycles_stepped") < reference.get("cycles_stepped"),
            "skipping must reduce stepping: {} vs {}",
            m.get("cycles_stepped"),
            reference.get("cycles_stepped")
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
