//! Self-tests: every workload at a tiny size through the same code path
//! the benchmark measures, an injected wrong result, and the metric
//! catalogue against `BENCHMARK.json`.

use std::sync::Arc;

use fu_isa::Word;
use fu_rtm::{AuxRole, DispatchPacket, FuOutput, FunctionalUnit, SoftEvent};
use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

use super::*;

fn tiny_serve() -> ServeZipf {
    ServeZipf {
        clients: 40,
        horizon: 800,
        mean_gap: 200,
        queue_depth: 4,
        ..ServeZipf::default()
    }
}

fn tiny_batch() -> BatchMixed {
    BatchMixed {
        arith_jobs: 6,
        xi_jobs: 2,
        ops_per_job: 16,
        xi_len: 16,
        ..BatchMixed::default()
    }
}

fn tiny_multihost() -> MultihostLossy {
    MultihostLossy {
        trips_per_host: 12,
        corrupt_permille: 40,
        ..MultihostLossy::default()
    }
}

/// Run `w` untraced and traced; both must agree exactly and check out.
fn traced_equals_untraced<W: Workload>(w: &W, seed: u64) -> Outcome {
    let input = w.prepare(seed);
    let plain = iterate(w, &input, None).out;
    let t = Arc::new(Tracer::default());
    let traced = iterate(w, &input, Some(&t)).out;
    assert_eq!(plain, traced, "tracing perturbed the simulation");
    assert_eq!(plain.errors, 0, "{plain:?}");
    assert_eq!(plain.verified + plain.shed, plain.offered);
    assert!(plain.makespan > 0 && plain.cycles_simulated > 0);
    assert!(!t.spans().is_empty(), "traced run recorded no spans");
    assert!(
        t.fu_times().get("arith").is_some_and(|f| f.calls > 0),
        "functional-unit wrapper saw no calls"
    );
    plain
}

#[test]
fn serve_zipf_tiny() {
    let o = traced_equals_untraced(&tiny_serve(), 3);
    assert!(o.shed > 0, "the tiny shape should overload its queues");
    assert!(o.layer["serve.rounds"] > 0.0);
    assert_eq!(o.layer["farm.shard_builds"], 2.0 * o.layer["serve.rounds"]);
}

#[test]
fn batch_mixed_tiny() {
    let o = traced_equals_untraced(&tiny_batch(), 3);
    assert_eq!(o.layer["xi.sorts"], 2.0);
    assert_eq!(o.layer["farm.shard_builds"], 2.0);
    assert!(o.layer["rtm.cpi_arith"] > 0.0);
}

#[test]
fn multihost_lossy_tiny() {
    let o = traced_equals_untraced(&tiny_multihost(), 3);
    assert!(o.layer["link.frames_corrupted"] > 0.0);
    assert!(o.layer["link.retransmits"] > 0.0);
    assert!(o.layer["link.goodput"] > 0.0 && o.layer["link.goodput"] < 1.0);
}

#[test]
fn inputs_replay_per_seed() {
    let w = tiny_serve();
    let a = iterate(&w, &w.prepare(5), None).out;
    let b = iterate(&w, &w.prepare(5), None).out;
    let c = iterate(&w, &w.prepare(6), None).out;
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// A unit that flips bit 0 of its first operand: every result it computes
/// from an odd/even-sensitive operation is wrong.
struct Skewed(Box<dyn FunctionalUnit>);

impl Clocked for Skewed {
    fn commit(&mut self) {
        self.0.commit();
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

impl FunctionalUnit for Skewed {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn func_code(&self) -> u8 {
        self.0.func_code()
    }
    fn aux_role(&self) -> AuxRole {
        self.0.aux_role()
    }
    fn can_dispatch(&self) -> bool {
        self.0.can_dispatch()
    }
    fn dispatch(&mut self, mut pkt: DispatchPacket) {
        pkt.ops[0] = Word::from_u64(pkt.ops[0].as_u64() ^ 1, 32);
        self.0.dispatch(pkt);
    }
    fn peek_output(&self) -> Option<&FuOutput> {
        self.0.peek_output()
    }
    fn ack_output(&mut self) -> FuOutput {
        self.0.ack_output()
    }
    fn is_idle(&self) -> bool {
        self.0.is_idle()
    }
    fn needs_clock_when_idle(&self) -> bool {
        self.0.needs_clock_when_idle()
    }
    fn advance_idle(&mut self, cycles: u64) {
        self.0.advance_idle(cycles);
    }
    fn wake_hint(&self) -> Option<u64> {
        self.0.wake_hint()
    }
    fn advance_busy(&mut self, cycles: u64) {
        self.0.advance_busy(cycles);
    }
    fn variety_writes_data(&self, v: u8) -> bool {
        self.0.variety_writes_data(v)
    }
    fn variety_writes_flags(&self, v: u8) -> bool {
        self.0.variety_writes_flags(v)
    }
    fn variety_reads_flags(&self, v: u8) -> bool {
        self.0.variety_reads_flags(v)
    }
    fn variety_reads_srcs(&self, v: u8) -> [bool; 3] {
        self.0.variety_reads_srcs(v)
    }
    fn take_soft_event(&mut self) -> Option<SoftEvent> {
        self.0.take_soft_event()
    }
    fn area(&self) -> AreaEstimate {
        self.0.area()
    }
    fn critical_path(&self) -> CriticalPath {
        self.0.critical_path()
    }
}

/// Standard units with the adder skewed.
fn skewed_units() -> Vec<Box<dyn FunctionalUnit>> {
    workload::standard_units_32()
        .into_iter()
        .map(|u| {
            if u.name() == "arith" {
                Box::new(Skewed(u)) as Box<dyn FunctionalUnit>
            } else {
                u
            }
        })
        .collect()
}

fn injected_errors<W: Workload>(w: &W) -> Outcome {
    let input = w.prepare(4);
    let o = iterate(w, &input, None).out;
    assert!(o.errors > 0, "a wrong result went unnoticed");
    assert!(o.error_frac() > 0.0);
    assert_eq!(o.verified + o.shed + o.errors, o.offered);
    o
}

#[test]
fn injected_wrong_result_raises_error_frac() {
    let serve = injected_errors(&ServeZipf {
        units: skewed_units,
        ..tiny_serve()
    });
    // Every add is off by one, so no admitted job verifies.
    assert_eq!(serve.verified, 0);
    injected_errors(&BatchMixed {
        units: skewed_units,
        ..tiny_batch()
    });
    let mh = injected_errors(&MultihostLossy {
        units: skewed_units,
        ..tiny_multihost()
    });
    assert_eq!(mh.verified, 0);
}

#[test]
fn report_has_every_declared_metric() {
    let args = |trace| Args {
        workload: "serve_zipf".into(),
        seed: 2,
        seconds: 0.0,
        trace,
        trace_dir: None,
    };
    let e2e = measure("serve_zipf", &tiny_serve(), &args(false));
    assert!(e2e.correct);
    assert_eq!(e2e.failed, 0);
    assert!(e2e.attempted > 0);
    let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    assert!(e2e.metrics.iter().all(|m| m.1 > 0.0), "{:?}", e2e.metrics);
    let json = e2e.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains("\"setup_s\": {\"value\": "));

    let layers = measure("serve_zipf", &tiny_serve(), &args(true));
    assert!(layers.correct);
    let names: Vec<&str> = layers.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    let get = |n: &str| layers.metrics.iter().find(|m| m.0 == n).unwrap().1;
    assert_eq!(get("farm.shard_builds_per_round"), 2.0);
    assert!(get("farm.shard_build_s") > 0.0);
    assert!(get("trace.overhead") > 0.0);
}

#[test]
fn benchmark_json_declares_the_same_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let compact: String = text.split_whitespace().collect();
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{w}\"")),
            "workload {w}"
        );
    }
    for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            compact.contains(&format!("\"name\":\"{n}\",\"unit\":\"{u}\"")),
            "metric {n} ({u})"
        );
    }
    let declared = compact.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn command_line_parses_the_contract() {
    let a = parse(
        [
            "--workload",
            "batch_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(String::from)
        .into_iter(),
    )
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("batch_mixed", 7, 10.0, true)
    );
    let bad = |v: &[&str]| parse(v.iter().map(|s| s.to_string())).is_err();
    assert!(bad(&["--workload", "nope"]));
    assert!(bad(&["--workload", "serve_zipf", "--trace", "2"]));
    assert!(bad(&["--workload", "serve_zipf", "--seed"]));
    assert!(bad(&["--workload", "serve_zipf", "--bogus", "1"]));
}
