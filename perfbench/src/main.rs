//! One benchmark for both clocks of the FPGA functional-unit framework.
//!
//! ```text
//! perfbench --workload <serve_zipf|batch_mixed|multihost_lossy>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Each workload generates its inputs from the seed, builds a fresh
//! system per iteration, runs every job and checks every output against
//! the benchmark's own reference. After one warm-up iteration it repeats
//! iterations until `--seconds` of host time have passed.
//!
//! * `--trace 0` prints the end-to-end metrics. Host times are CPU time
//!   of the whole process, measured between two timings of a fixed
//!   [`yardstick`] and reported as CPU seconds on the yardstick's
//!   reference host; host rates (`host_*`) come from the median
//!   iteration, set-up time is the median of several set-up samples, and
//!   `sim_*` metrics are exact counts on the simulated clock.
//! * `--trace 1` alternates untraced and traced iterations, asserts that
//!   every simulated counter is bit-identical between them, and prints
//!   the per-layer metrics, the layer self-time table and the tracing
//!   overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Tables
//! for people go to standard error.

mod batch_mixed;
mod clock;
mod multihost_lossy;
mod reference;
mod serve_zipf;
mod stats;
mod trace;
mod workload;
mod yardstick;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use batch_mixed::BatchMixed;
use multihost_lossy::MultihostLossy;
use serve_zipf::ServeZipf;
use stats::median;
use trace::{LayerTime, Tracer};
use workload::{Outcome, Workload, FPGA_MHZ};

/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Shortest set-up sample, in CPU seconds; quicker set-ups are repeated
/// within a sample and averaged.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERS: usize = 3;

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["serve_zipf", "batch_mixed", "multihost_lossy"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("host_jobs_per_cpu_s", "1/cpu_s"),
    ("host_sim_cycles_per_cpu_s", "cycles/cpu_s"),
    ("host_instrs_per_cpu_s", "instrs/cpu_s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_cycles", "cycles"),
    ("sim_jobs_per_s", "1/sim_s"),
    ("sim_p50_latency_cycles", "cycles"),
    ("sim_p99_latency_cycles", "cycles"),
    ("admitted_frac", "ratio"),
    ("slo_met_frac", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("serve.rounds", "count"),
    ("serve.jobs_per_round", "ratio"),
    ("serve.round_ns_p50", "ns"),
    ("serve.admit_ns_p50", "ns"),
    ("serve.wait_p99_cycles", "cycles"),
    ("farm.shard_builds", "count"),
    ("farm.shard_build_s", "s"),
    ("farm.shard_builds_per_round", "ratio"),
    ("farm.shard_build_ns_per_round", "ns"),
    ("farm.run_s", "s"),
    ("farm.imbalance", "ratio"),
    ("farm.jobs_failed_over", "count"),
    ("sim.cycles_simulated", "cycles"),
    ("sim.cycles_stepped", "cycles"),
    ("sim.skip_frac", "ratio"),
    ("sim.stage_evals_total", "count"),
    ("wheel.wakes_fired", "count"),
    ("sim.host_ns_per_stepped_cycle", "ns"),
    ("sim.latency_samples", "count"),
    ("link.frames_to_dev", "count"),
    ("link.frames_to_host", "count"),
    ("link.segments_sent", "count"),
    ("link.retransmits", "count"),
    ("link.acks_sent", "count"),
    ("link.goodput", "ratio"),
    ("link.frames_dropped", "count"),
    ("link.frames_corrupted", "count"),
    ("rtm.instructions", "count"),
    ("rtm.util.msgbuf", "ratio"),
    ("rtm.util.decoder", "ratio"),
    ("rtm.util.dispatcher", "ratio"),
    ("rtm.util.execution", "ratio"),
    ("rtm.util.arbiter", "ratio"),
    ("rtm.util.encoder", "ratio"),
    ("rtm.util.serializer", "ratio"),
    ("rtm.cpi_arith", "cycles"),
    ("rtm.issue_retire_p99_cycles", "cycles"),
    ("xi.sorts", "count"),
    ("xi.refine_rounds", "count"),
    ("xi.cycles_per_sort", "cycles"),
    ("xi.unit_host_s", "s"),
    ("fu.arith.host_s", "s"),
    ("fu.logic.host_s", "s"),
    ("fu.shift.host_s", "s"),
    ("fu.mul.host_s", "s"),
    ("fu.popcount.host_s", "s"),
    ("fu.div.host_s", "s"),
    ("fu.xi-sort.host_s", "s"),
    ("fu.host_s", "s"),
    ("host.layer_calls_s", "s"),
    ("host.framework_self_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <serve_zipf|batch_mixed|multihost_lossy> \
--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {val:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => a.trace_dir = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

/// A finished run: the contract's summary plus the metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output checked out and every iteration agreed exactly.
    pub correct: bool,
    /// Jobs attempted over the measured iterations.
    pub attempted: u64,
    /// Jobs that failed or returned a wrong output.
    pub failed: u64,
    /// Metric name → (value, unit), in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON summary.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// One measured iteration.
struct Iter {
    wall_s: f64,
    cpu_s: f64,
    out: Outcome,
}

fn iterate<W: Workload>(w: &W, input: &W::Input, tracer: Option<&Arc<Tracer>>) -> Iter {
    let t0 = Instant::now();
    let c0 = clock::process_cpu_s();
    let sys = w.build(input, tracer);
    let out = w.run(input, sys, tracer.map(|t| &**t));
    Iter {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: clock::process_cpu_s() - c0,
        out,
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run workload `w` as `args` asks and build the report.
fn measure<W: Workload>(name: &str, w: &W, args: &Args) -> Report {
    // Set-up: input generation plus system construction, in CPU seconds.
    // One untimed set-up warms the caches and sizes the samples: each
    // sample averages enough set-ups in a row to last SETUP_SAMPLE_S, and
    // sits between two yardstick timings.
    let setup_once = || {
        let c0 = clock::process_cpu_s();
        let inp = w.prepare(args.seed);
        let sys = w.build(&inp, None);
        let cpu_s = clock::process_cpu_s() - c0;
        drop(sys);
        (cpu_s, inp)
    };
    let (first, input) = setup_once();
    let reps = (SETUP_SAMPLE_S / first).ceil().clamp(1.0, 10_000.0) as usize;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut before = yardstick::measure();
    for _ in 0..SETUPS {
        let cpu_s: f64 = (0..reps).map(|_| setup_once().0).sum();
        let after = yardstick::measure();
        setups.push(yardstick::scale(cpu_s / reps as f64, before, after));
        before = after;
    }

    // Warm-up; its outcome is the reference every later iteration must
    // reproduce exactly.
    let reference = iterate(w, &input, None).out;
    let mut correct = reference.errors == 0;
    let mut untraced: Vec<f64> = Vec::new();
    // The same iterations in CPU seconds on the yardstick's reference host.
    let mut scaled: Vec<f64> = Vec::new();
    let mut before = yardstick::measure();
    // Per traced iteration: wall time and host-time layer figures. Only
    // the last iteration's spans are kept, for the table and the trace
    // file.
    let mut traced: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut last_tracer = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while untraced.len() < MIN_ITERS || start.elapsed().as_secs_f64() < args.seconds {
        let it = iterate(w, &input, None);
        correct &= check(name, "untraced", &it.out, &reference);
        attempted += it.out.offered;
        failed += it.out.errors;
        let after = yardstick::measure();
        scaled.push(yardstick::scale(it.cpu_s, before, after));
        before = after;
        untraced.push(it.wall_s);
        if args.trace {
            let t = Arc::new(Tracer::default());
            let it = iterate(w, &input, Some(&t));
            correct &= check(name, "traced", &it.out, &reference);
            attempted += it.out.offered;
            failed += it.out.errors;
            traced.push((it.wall_s, host_layers(&t)));
            last_tracer = Some(t);
            before = yardstick::measure();
        }
    }
    correct &= failed == 0;

    let o = &reference;
    // Host rates use the median iteration on the reference host.
    let host_s = median(&scaled);
    let rate = |n: u64| n as f64 / host_s;
    let p50 = o.latency(0.50);
    let p99 = o.latency(0.99);
    print_e2e_table(name, args, o, &untraced, &scaled, &setups);
    eprintln!(
        "latency samples: {} (p99 rests on {} jobs beyond it)",
        p99.samples,
        p99.beyond(0.99)
    );

    let metrics = if args.trace {
        let mut m = layer_metrics(o, &traced, median(&untraced), host_s);
        if let Some(t) = &last_tracer {
            let overhead = m["trace.overhead"];
            print_layer_table(t, median(&untraced), overhead);
            if m.get("serve.rounds").is_some_and(|&r| r > 0.0) {
                eprintln!(
                    "farm per round: {} shard builds over {} rounds = {:.2} builds and {:.0} ns of building per round",
                    m["farm.shard_builds"],
                    m["serve.rounds"],
                    m["farm.shard_builds_per_round"],
                    m["farm.shard_build_ns_per_round"]
                );
            }
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, name, args.seed, t);
            }
        }
        m.insert("sim.latency_samples", p99.samples as f64);
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, m.get(n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        let values = [
            median(&setups),
            rate(o.verified),
            rate(o.cycles_simulated),
            rate(o.instructions),
            peak_rss_mb(),
            o.makespan as f64,
            o.sim_jobs_per_s(),
            p50.value as f64,
            p99.value as f64,
            1.0 - o.shed_frac(),
            1.0 - o.slo_miss_frac(),
            1.0 - o.error_frac(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    Report {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// True when `out` reproduces `reference` exactly; reports otherwise.
fn check(name: &str, kind: &str, out: &Outcome, reference: &Outcome) -> bool {
    if out == reference {
        return true;
    }
    eprintln!("{name}: a {kind} iteration diverged from the warm-up iteration");
    for (k, v) in &out.layer {
        if reference.layer.get(k) != Some(v) {
            eprintln!("  {k}: {v} vs {:?}", reference.layer.get(k));
        }
    }
    false
}

fn print_e2e_table(
    name: &str,
    args: &Args,
    o: &Outcome,
    walls: &[f64],
    scaled: &[f64],
    setups: &[f64],
) {
    eprintln!(
        "perfbench {name} seed {} — {} measured iterations of {} jobs, host cores {}",
        args.seed,
        walls.len(),
        o.offered,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!(
        "  host clock : iteration wall median {:.4} s (spread (max-min)/median {:.3}); CPU on the reference host median {:.4} s (spread {:.3}); set-up median {:.6} CPU s",
        median(walls),
        stats::spread(walls),
        median(scaled),
        stats::spread(scaled),
        median(setups)
    );
    eprintln!(
        "  sim clock  : makespan {} cycles = {:.3} ms at {FPGA_MHZ} MHz; {} cycles simulated over all shards",
        o.makespan,
        o.makespan as f64 / (FPGA_MHZ * 1e3),
        o.cycles_simulated
    );
    eprintln!(
        "  jobs       : offered {} verified {} shed {} ({:.4}) errors {} ({:.4}) SLO misses {} ({:.4}, limit {} cycles)",
        o.offered,
        o.verified,
        o.shed,
        o.shed_frac(),
        o.errors,
        o.error_frac(),
        o.slo_misses(),
        o.slo_miss_frac(),
        o.slo_limit
    );
    if name == "serve_zipf" {
        eprintln!(
            "  open loop  : arrivals carry simulated ticks fixed by the seed, so the generator never runs late on the host clock (lateness 0)"
        );
    }
}

/// Per-layer metrics from the traced iterations (host times are medians
/// over them) and the reference outcome's counts. `host_s` is the median
/// untraced iteration in CPU seconds on the reference host.
fn layer_metrics(
    o: &Outcome,
    traced: &[(f64, BTreeMap<&'static str, f64>)],
    untraced_wall: f64,
    host_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = o.layer.clone();
    if let Some((_, first)) = traced.first() {
        for &k in first.keys() {
            let v: Vec<f64> = traced.iter().map(|(_, h)| h[k]).collect();
            m.insert(k, median(&v));
        }
    }
    let rounds = o.layer.get("serve.rounds").copied().unwrap_or(0.0);
    if rounds > 0.0 {
        let builds = m.get("farm.shard_builds").copied().unwrap_or(0.0);
        let build_s = m.get("farm.shard_build_s").copied().unwrap_or(0.0);
        m.insert("farm.shard_builds_per_round", builds / rounds);
        m.insert("farm.shard_build_ns_per_round", build_s * 1e9 / rounds);
    }
    if o.cycles_stepped > 0 {
        m.insert(
            "sim.host_ns_per_stepped_cycle",
            host_s * 1e9 / o.cycles_stepped as f64,
        );
    }
    let traced_wall = median(&traced.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    let overhead = if untraced_wall > 0.0 {
        traced_wall / untraced_wall
    } else {
        0.0
    };
    m.insert("trace.overhead", overhead);
    m
}

/// Host-time layer figures of one traced iteration.
fn host_layers(t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let spans = t.spans();
    let ns_of = |pred: &dyn Fn(&trace::Span) -> bool| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(trace::Span::ns)
            .collect()
    };
    let sum_s = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
    let rounds = ns_of(&|s| s.name.starts_with("serve.") && s.arg == 1);
    let admits = ns_of(&|s| s.name == "serve.submit" && s.arg == 0);
    m.insert(
        "serve.round_ns_p50",
        stats::percentile(&rounds, 0.5).value as f64,
    );
    m.insert(
        "serve.admit_ns_p50",
        stats::percentile(&admits, 0.5).value as f64,
    );
    m.insert(
        "farm.shard_build_s",
        sum_s(&ns_of(&|s| s.name == "farm.build_shard")),
    );
    // The farm runs inside the Service calls that ran a round, and is
    // called directly in batch_mixed.
    m.insert(
        "farm.run_s",
        sum_s(&ns_of(&|s| {
            s.name == "farm.run_parallel" || (s.name.starts_with("serve.") && s.arg >= 1)
        })),
    );
    let top = sum_s(&ns_of(&|s| s.parent.is_none()));
    m.insert("host.layer_calls_s", top);
    let fu = t.fu_times();
    let mut fu_total = 0.0;
    for (name, ft) in &fu {
        let s = ft.ns as f64 / 1e9;
        fu_total += s;
        if let Some(key) = fu_key(name) {
            m.insert(key, s);
        }
    }
    m.insert(
        "xi.unit_host_s",
        fu.get("xi-sort").map_or(0.0, |f| f.ns as f64 / 1e9),
    );
    m.insert("fu.host_s", fu_total);
    m.insert("host.framework_self_s", top - fu_total);
    m
}

/// `fu.<unit>.host_s` for a unit name.
fn fu_key(unit: &str) -> Option<&'static str> {
    Some(match unit {
        "arith" => "fu.arith.host_s",
        "logic" => "fu.logic.host_s",
        "shift" => "fu.shift.host_s",
        "mul" => "fu.mul.host_s",
        "popcount" => "fu.popcount.host_s",
        "div" => "fu.div.host_s",
        "xi-sort" => "fu.xi-sort.host_s",
        _ => return None,
    })
}

fn print_layer_table(t: &Tracer, untraced_wall: f64, overhead: f64) {
    let traced_wall = untraced_wall * overhead;
    eprintln!(
        "per-layer host time, last traced iteration (self = span minus child spans on its thread):"
    );
    eprintln!(
        "  {:<26} {:>9} {:>12} {:>12} {:>8}",
        "layer call", "calls", "total_s", "self_s", "share"
    );
    let layers: BTreeMap<&'static str, LayerTime> = t.layer_times();
    for (name, l) in &layers {
        eprintln!(
            "  {:<26} {:>9} {:>12.6} {:>12.6} {:>7.1}%",
            name,
            l.calls,
            l.total_ns as f64 / 1e9,
            l.self_ns as f64 / 1e9,
            100.0 * l.self_ns as f64 / 1e9 / traced_wall.max(1e-12)
        );
    }
    for (name, f) in t.fu_times() {
        eprintln!(
            "  {:<26} {:>9} {:>12.6} {:>12.6} {:>7.1}%  (summed over worker threads)",
            format!("fu.{name}"),
            f.calls,
            f.ns as f64 / 1e9,
            f.ns as f64 / 1e9,
            100.0 * f.ns as f64 / 1e9 / traced_wall.max(1e-12)
        );
    }
    eprintln!(
        "tracing overhead: traced iteration {traced_wall:.4} s vs untraced {untraced_wall:.4} s (x{overhead:.3}); simulated counters bit-identical"
    );
}

fn write_trace(dir: &std::path::Path, name: &str, seed: u64, t: &Tracer) {
    let path = dir.join(format!("{name}-seed{seed}.trace.json"));
    let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.chrome_json()));
    match res {
        Ok(()) => eprintln!("host-clock spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "serve_zipf" => measure("serve_zipf", &ServeZipf::default(), args),
        "batch_mixed" => measure("batch_mixed", &BatchMixed::default(), args),
        _ => measure("multihost_lossy", &MultihostLossy::default(), args),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
