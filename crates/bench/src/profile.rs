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
//! The module also carries the CI regression gate for tracing overhead:
//! a deterministic work-count baseline for the E8 sim-speed smoke
//! configuration (`ci/sim_speed_baseline.json`) that the `exp_profile`
//! binary refuses to exceed by more than 5%.

use std::time::Instant;

use fu_host::{Farm, FarmConfig, Job, LinkModel};
use fu_rtm::{ActivityMode, CoprocConfig};
use rtl_sim::{LatencySnapshot, SimStats};

use crate::links::arith_batch_mode;
use crate::serving::{serving_smoke, ServeCounts};
use crate::soft_errors::{soft_error_smoke, SoftCounts};
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

/// Deterministic work counters distilled from a [`SimStats`] — the
/// quantities the 5% CI gate compares (no wall clock, so the gate cannot
/// flake on a loaded runner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    /// Simulated cycles (must match the baseline exactly).
    pub cycles_simulated: u64,
    /// Cycles actually stepped (the scheduled mode skips quiet
    /// stretches).
    pub cycles_stepped: u64,
    /// Stage evaluations summed over all stages.
    pub stage_evals_total: u64,
    /// Deadlines registered by scheduling decisions (0 outside
    /// scheduled mode).
    pub wheel_wakes_scheduled: u64,
    /// Deadlines a quiet-span skip reached (0 outside scheduled mode).
    pub wheel_wakes_fired: u64,
}

impl WorkCounts {
    /// Distil the work counters from a stats snapshot.
    pub fn of(sim: &SimStats) -> WorkCounts {
        WorkCounts {
            cycles_simulated: sim.cycles_simulated,
            cycles_stepped: sim.cycles_stepped,
            stage_evals_total: sim.stage_evals.iter().map(|&(_, n)| n).sum(),
            wheel_wakes_scheduled: sim.wheel.wakes_scheduled,
            wheel_wakes_fired: sim.wheel.wakes_fired,
        }
    }

    /// Serialize as one baseline JSON object (no surrounding document).
    fn json_fields(&self, indent: &str) -> String {
        format!(
            "{{\n{indent}  \"cycles_simulated\": {},\n\
             {indent}  \"cycles_stepped\": {},\n\
             {indent}  \"stage_evals_total\": {},\n\
             {indent}  \"wheel_wakes_scheduled\": {},\n\
             {indent}  \"wheel_wakes_fired\": {}\n{indent}}}",
            self.cycles_simulated,
            self.cycles_stepped,
            self.stage_evals_total,
            self.wheel_wakes_scheduled,
            self.wheel_wakes_fired
        )
    }

    /// Parse one mode's counters out of a JSON fragment (hand-rolled:
    /// the document is integer fields we wrote ourselves; no JSON
    /// dependency needed).
    ///
    /// # Errors
    /// Returns a description of the missing/malformed field.
    pub fn from_json(text: &str) -> Result<WorkCounts, String> {
        let field = |name: &str| -> Result<u64, String> {
            let key = format!("\"{name}\":");
            let at = text
                .find(&key)
                .ok_or_else(|| format!("baseline is missing {name}"))?;
            let rest = text[at + key.len()..].trim_start();
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits
                .parse()
                .map_err(|e| format!("bad value for {name}: {e}"))
        };
        Ok(WorkCounts {
            cycles_simulated: field("cycles_simulated")?,
            cycles_stepped: field("cycles_stepped")?,
            stage_evals_total: field("stage_evals_total")?,
            wheel_wakes_scheduled: field("wheel_wakes_scheduled")?,
            wheel_wakes_fired: field("wheel_wakes_fired")?,
        })
    }

    /// The 5% regression gate: simulated cycles must match the baseline
    /// exactly (the workload is deterministic — a cycle-count change is a
    /// behaviour change, not a slowdown) and the work counters may not
    /// exceed the baseline by more than 5%.
    ///
    /// # Errors
    /// Returns a description of the first violated bound.
    pub fn check_against(&self, baseline: &WorkCounts) -> Result<(), String> {
        if self.cycles_simulated != baseline.cycles_simulated {
            return Err(format!(
                "cycles_simulated changed: {} vs baseline {} (behaviour change, re-baseline deliberately)",
                self.cycles_simulated, baseline.cycles_simulated
            ));
        }
        let within = |name: &str, got: u64, base: u64| -> Result<(), String> {
            // got <= base * 1.05, in integers.
            if got * 20 > base * 21 {
                Err(format!("{name} regressed >5%: {got} vs baseline {base}"))
            } else {
                Ok(())
            }
        };
        within(
            "cycles_stepped",
            self.cycles_stepped,
            baseline.cycles_stepped,
        )?;
        within(
            "stage_evals_total",
            self.stage_evals_total,
            baseline.stage_evals_total,
        )?;
        within(
            "wheel_wakes_scheduled",
            self.wheel_wakes_scheduled,
            baseline.wheel_wakes_scheduled,
        )?;
        within(
            "wheel_wakes_fired",
            self.wheel_wakes_fired,
            baseline.wheel_wakes_fired,
        )
    }
}

/// The CI baseline document: the smoke workload's work counters in the
/// scheduled mode (stepped cycles *and* deadline counts — a scheduler
/// that silently starts waking too often is a perf regression even when
/// the results stay bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmokeBaseline {
    /// Counters from the scheduled-mode smoke run.
    pub scheduled: WorkCounts,
    /// Deterministic counters from the E16 soft-error smoke (a protected
    /// run that must stay bit-identical to its fault-free reference,
    /// plus a farm-failover run).
    pub soft: SoftCounts,
    /// Deterministic counters from the E17 serving smoke (a saturated
    /// multi-tenant run whose admission and completion behaviour is
    /// pinned exactly, with 5% headroom on scheduler efficiency).
    pub serving: ServeCounts,
}

impl SmokeBaseline {
    /// Measure the current smoke counters.
    pub fn measure() -> SmokeBaseline {
        SmokeBaseline {
            scheduled: WorkCounts::of(&sim_speed_smoke(ActivityMode::Scheduled)),
            soft: soft_error_smoke(),
            serving: serving_smoke(),
        }
    }

    /// Serialize as the baseline JSON document (the parser relies on the
    /// section order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"sim_speed_smoke\",\n  \"scheduled\": {},\n  \"soft_errors\": {},\n  \"serving\": {}\n}}\n",
            self.scheduled.json_fields("  "),
            self.soft.json_fields("  "),
            self.serving.json_fields("  ")
        )
    }

    /// Parse the baseline JSON document.
    ///
    /// # Errors
    /// Returns a description of the missing/malformed section or field.
    pub fn from_json(text: &str) -> Result<SmokeBaseline, String> {
        let s_at = text
            .find("\"scheduled\":")
            .ok_or("baseline is missing the scheduled section")?;
        let soft_at = text
            .find("\"soft_errors\":")
            .ok_or("baseline is missing the soft_errors section")?;
        let serving_at = text
            .find("\"serving\":")
            .ok_or("baseline is missing the serving section")?;
        if soft_at < s_at || serving_at < soft_at {
            return Err("baseline sections out of order (scheduled, soft_errors, serving)".into());
        }
        Ok(SmokeBaseline {
            scheduled: WorkCounts::from_json(&text[s_at..soft_at])?,
            soft: SoftCounts::from_json(&text[soft_at..serving_at])?,
            serving: ServeCounts::from_json(&text[serving_at..])?,
        })
    }

    /// Gate every section against the baseline.
    ///
    /// # Errors
    /// Returns a description of the first violated bound.
    pub fn check_against(&self, baseline: &SmokeBaseline) -> Result<(), String> {
        self.scheduled
            .check_against(&baseline.scheduled)
            .map_err(|e| format!("scheduled: {e}"))?;
        self.soft
            .check_against(&baseline.soft)
            .map_err(|e| format!("soft_errors: {e}"))?;
        self.serving
            .check_against(&baseline.serving)
            .map_err(|e| format!("serving: {e}"))
    }
}

/// Measure wall-clock for the sim-speed smoke with tracing off and on.
/// Returns `(untraced_ms, traced_ms)`. Reported for the record; the CI
/// gate uses the deterministic [`WorkCounts`] instead, because a loaded
/// runner can double any wall-clock number without a real regression.
pub fn overhead_wall_ms(mode: ActivityMode) -> (f64, f64) {
    let t0 = Instant::now();
    let a = arith_batch_mode(LinkModel::prototyping(), 64, mode);
    let untraced = t0.elapsed().as_secs_f64() * 1e3;

    // Same workload on a traced system: System-level, not Farm, to stay
    // identical to the untraced path above.
    let t1 = Instant::now();
    let b = crate::links::arith_batch_mode_traced(LinkModel::prototyping(), 64, mode, TRACE_DEPTH);
    let traced = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(a.cycles, b.cycles, "tracing changed the smoke cycle count");
    assert_eq!(a.sim, b.sim, "tracing changed the smoke SimStats");
    (untraced, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft() -> SoftCounts {
        SoftCounts {
            seus_injected: 33,
            seus_detected: 7,
            seus_corrected: 6,
            rollbacks: 1,
            jobs_failed_over: 3,
        }
    }

    fn serving() -> ServeCounts {
        ServeCounts {
            jobs_completed: 500,
            jobs_shed: 100,
            rounds: 40,
            clock_cycles: 900_000,
        }
    }

    fn counts(cycles_stepped: u64, stage_evals_total: u64) -> WorkCounts {
        WorkCounts {
            cycles_simulated: 1000,
            cycles_stepped,
            stage_evals_total,
            wheel_wakes_scheduled: 40,
            wheel_wakes_fired: 30,
        }
    }

    #[test]
    fn smoke_baseline_roundtrips_through_json() {
        let b = SmokeBaseline {
            scheduled: counts(1234, 8765),
            soft: soft(),
            serving: serving(),
        };
        assert_eq!(SmokeBaseline::from_json(&b.to_json()), Ok(b));
    }

    #[test]
    fn gate_accepts_identical_and_rejects_regressions() {
        let base = counts(100, 400);
        assert!(base.check_against(&base).is_ok());
        // 5% over is allowed, more is not.
        let ok = WorkCounts {
            stage_evals_total: 420,
            ..base
        };
        assert!(ok.check_against(&base).is_ok());
        let bad = WorkCounts {
            stage_evals_total: 421,
            ..base
        };
        assert!(bad.check_against(&base).is_err());
        let drift = WorkCounts {
            cycles_simulated: 1001,
            ..base
        };
        assert!(drift.check_against(&base).is_err());
        // A scheduler that wakes too often is a regression too.
        let chatty = WorkCounts {
            wheel_wakes_fired: 32,
            ..base
        };
        assert!(chatty.check_against(&base).is_err());
    }

    #[test]
    fn measured_smoke_counters_show_the_wheel_working() {
        let m = SmokeBaseline::measure().scheduled;
        let reference = WorkCounts::of(&sim_speed_smoke(ActivityMode::Exhaustive));
        assert_eq!(m.cycles_simulated, reference.cycles_simulated);
        assert_eq!(
            reference.wheel_wakes_scheduled, 0,
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
