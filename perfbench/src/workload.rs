//! What one iteration of a workload produces, and the interface every
//! workload implements.

use std::collections::BTreeMap;
use std::sync::Arc;

use fu_rtm::FunctionalUnit;
use rtl_sim::SimStats;

use crate::stats::percentile;
use crate::trace::Tracer;

/// Modelled FPGA clock, MHz: the paper's prototype runs at about 50 MHz.
pub const FPGA_MHZ: f64 = 50.0;

/// The repository's standard 32-bit unit set, the default for every
/// workload.
#[must_use]
pub fn standard_units_32() -> Vec<Box<dyn FunctionalUnit>> {
    fu_units::standard_units(32)
}

/// A workload: inputs from a seed, a fresh system per iteration, and one
/// iteration that runs and checks every job.
pub trait Workload {
    /// Generated inputs, with the expected answers.
    type Input;
    /// The freshly built system one iteration runs on.
    type Sys;

    /// Generate the inputs for `seed`.
    fn prepare(&self, seed: u64) -> Self::Input;

    /// Construct the system. With a tracer, every functional unit is
    /// wrapped in a [`crate::trace::TimedUnit`] and shard builds are timed.
    fn build(&self, input: &Self::Input, tracer: Option<&Arc<Tracer>>) -> Self::Sys;

    /// Run every job once and check every output.
    fn run(&self, input: &Self::Input, sys: Self::Sys, tracer: Option<&Tracer>) -> Outcome;
}

/// Everything simulated one iteration produced. All of it is a pure
/// function of the seed, so two iterations — traced or not — must agree
/// exactly; [`PartialEq`] is that check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Jobs offered (attempted).
    pub offered: u64,
    /// Jobs whose output matched the reference.
    pub verified: u64,
    /// Jobs refused at admission.
    pub shed: u64,
    /// Jobs that failed or returned a wrong output.
    pub errors: u64,
    /// Per-job latency of every verified job, in cycles.
    pub latencies: Vec<u64>,
    /// The latency limit behind the SLO count, in cycles.
    pub slo_limit: u64,
    /// Modelled time to finish everything, in cycles.
    pub makespan: u64,
    /// Instructions the pipelines retired.
    pub instructions: u64,
    /// Simulated cycles, summed over shards.
    pub cycles_simulated: u64,
    /// Cycles run through the full evaluate/commit loop.
    pub cycles_stepped: u64,
    /// Deterministic per-layer counts, by metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Jobs that were shed, failed, or finished over the latency limit.
    #[must_use]
    pub fn slo_misses(&self) -> u64 {
        let late = self
            .latencies
            .iter()
            .filter(|&&l| l > self.slo_limit)
            .count() as u64;
        self.shed + self.errors + late
    }

    /// Fraction of offered jobs that failed or were wrong.
    #[must_use]
    pub fn error_frac(&self) -> f64 {
        frac(self.errors, self.offered)
    }

    /// Fraction of offered jobs refused at admission.
    #[must_use]
    pub fn shed_frac(&self) -> f64 {
        frac(self.shed, self.offered)
    }

    /// Fraction of offered jobs shed, failed, or over the latency limit.
    #[must_use]
    pub fn slo_miss_frac(&self) -> f64 {
        frac(self.slo_misses(), self.offered)
    }

    /// Verified jobs per simulated second at [`FPGA_MHZ`].
    #[must_use]
    pub fn sim_jobs_per_s(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.verified as f64 / (self.makespan as f64 / (FPGA_MHZ * 1e6))
    }

    /// Latency percentile `q` over verified jobs.
    #[must_use]
    pub fn latency(&self, q: f64) -> crate::stats::Pct {
        percentile(&self.latencies, q)
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The per-layer counts every workload reports from the scheduler
/// statistics it gathered (summed over shards and rounds).
pub fn sim_layer(out: &mut Outcome, sim: &SimStats) {
    out.cycles_simulated = sim.cycles_simulated;
    out.cycles_stepped = sim.cycles_stepped;
    out.instructions = sim.lat_issue_retire.count();
    let l = &mut out.layer;
    l.insert("sim.cycles_simulated", sim.cycles_simulated as f64);
    l.insert("sim.cycles_stepped", sim.cycles_stepped as f64);
    l.insert(
        "sim.skip_frac",
        frac(sim.cycles_skipped, sim.cycles_simulated),
    );
    l.insert(
        "sim.stage_evals_total",
        sim.stage_evals.iter().map(|&(_, n)| n).sum::<u64>() as f64,
    );
    l.insert("wheel.wakes_fired", sim.wheel.wakes_fired as f64);
    l.insert("rtm.instructions", out.instructions as f64);
    l.insert(
        "rtm.issue_retire_p99_cycles",
        sim.lat_issue_retire.percentiles().p99 as f64,
    );
    l.insert(
        "farm.jobs_failed_over",
        sim.recovery.jobs_failed_over as f64,
    );
    for (name, busy) in &sim.stage_busy {
        if let Some(key) = util_key(name) {
            l.insert(key, frac(*busy, sim.cycles_simulated));
        }
    }
}

/// `rtm.util.<stage>` for a pipeline stage name.
fn util_key(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "msgbuf" => "rtm.util.msgbuf",
        "decoder" => "rtm.util.decoder",
        "dispatcher" => "rtm.util.dispatcher",
        "execution" => "rtm.util.execution",
        "arbiter" => "rtm.util.arbiter",
        "encoder" => "rtm.util.encoder",
        "serializer" => "rtm.util.serializer",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_misses_count_shed_failed_and_late_once() {
        let o = Outcome {
            offered: 10,
            shed: 2,
            errors: 1,
            latencies: vec![5, 50, 500, 5000],
            slo_limit: 100,
            ..Outcome::default()
        };
        // 2 shed + 1 failed + 2 verified but late.
        assert_eq!(o.slo_misses(), 5);
        assert!((o.shed_frac() - 0.2).abs() < 1e-12);
        assert!((o.error_frac() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn every_stage_has_a_util_key() {
        let stages = [
            "msgbuf",
            "decoder",
            "dispatcher",
            "execution",
            "arbiter",
            "encoder",
            "serializer",
        ];
        for s in stages {
            assert_eq!(util_key(s), Some(format!("rtm.util.{s}").as_str()));
        }
    }
}
