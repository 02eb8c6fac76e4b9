//! Wall-clock speed of the simulation kernel itself: the scheduled
//! kernel (stage gating plus quiet-span skipping) against exhaustive
//! per-cycle evaluation. Simulated results are bit-identical in both
//! modes (asserted here and property-tested in `ff_equivalence` /
//! `wheel_equivalence`); only host wall-clock time differs.
//!
//! Besides the criterion samples, this harness writes
//! `BENCH_sim_speed.json` at the workspace root with simulated
//! cycles/second per scenario and mode. The `fu_latency_burn` scenario
//! is the latency-bound case quiet-span skipping targets: the reference
//! kernel steps every cycle of every unit burn, the scheduler jumps them.

use bench::links::{arith_batch_mode, latency_burn_mode, LinkRun};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fu_host::{LinkModel, MultiHostSystem};
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// E8's slow-link arithmetic batch: 64 dependent adds over the
/// prototyping link (500-cycle latency, 50 cycles/frame) — dominated by
/// idle link waits.
fn e8_slow_link(mode: ActivityMode) -> LinkRun {
    arith_batch_mode(LinkModel::prototyping(), 64, mode)
}

/// The latency-burn round trips: 8 synchronous instructions on a
/// 20000-cycle unit over the prototyping link. Quiet (unit busy) for
/// ~95% of simulated time — the reference kernel steps all of it, the
/// scheduler skips it.
fn fu_latency_burn(mode: ActivityMode) -> LinkRun {
    latency_burn_mode(LinkModel::prototyping(), 8, 20_000, mode)
}

/// An idle-heavy multi-host trace: four hosts doing synchronous
/// write+read round trips over the prototyping link, each waiting out
/// the full link latency before issuing the next request.
fn multihost_idle(mode: ActivityMode) -> (u64, u64) {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
    let mut s = MultiHostSystem::new(CoprocConfig::default(), units, LinkModel::prototyping(), 4)
        .expect("valid configuration");
    s.set_activity_mode(mode);
    for round in 0..8u64 {
        for host in 0..4usize {
            let reg = host as u8 + 1;
            let tag = s.brand_tag(host, round as u16);
            s.send(
                host,
                &HostMsg::WriteReg {
                    reg,
                    value: Word::from_u64(round, 32),
                },
            );
            s.send(host, &HostMsg::ReadReg { reg, tag });
        }
        for host in 0..4usize {
            let resp = s.recv_blocking(host, 10_000_000).expect("round trip");
            assert!(matches!(resp, DevMsg::Data { .. }));
        }
    }
    (s.cycle(), s.sim_stats().cycles_skipped)
}

/// Best-of-N wall time of `f`, with one warmup run. Returns the minimum
/// duration and the last result.
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut out = f();
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed());
    }
    (best, out)
}

fn rate(cycles: u64, wall: Duration) -> f64 {
    cycles as f64 / wall.as_secs_f64()
}

/// Wall times of both modes for one scenario.
struct ModeTimes {
    exhaustive: Duration,
    scheduled: Duration,
}

/// One scenario's JSON fragment.
fn scenario_json(name: &str, cycles: u64, skipped: u64, t: &ModeTimes) -> String {
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"link\": \"prototyping\", ",
            "\"simulated_cycles\": {}, \"skipped_cycles\": {}, ",
            "\"exhaustive\": {{\"wall_ns\": {}, \"cycles_per_sec\": {:.0}}}, ",
            "\"scheduled\": {{\"wall_ns\": {}, \"cycles_per_sec\": {:.0}}}, ",
            "\"speedup\": {:.2}}}"
        ),
        name,
        cycles,
        skipped,
        t.exhaustive.as_nanos(),
        rate(cycles, t.exhaustive),
        t.scheduled.as_nanos(),
        rate(cycles, t.scheduled),
        t.exhaustive.as_secs_f64() / t.scheduled.as_secs_f64(),
    )
}

/// Time one `LinkRun` scenario in both modes, asserting that the
/// simulated cycle counts agree.
fn measure_link_run(name: &str, f: impl Fn(ActivityMode) -> LinkRun) -> (u64, u64, ModeTimes) {
    let (t_exh, r_exh) = time_best(5, || f(ActivityMode::Exhaustive));
    let (t_sched, r_sched) = time_best(5, || f(ActivityMode::Scheduled));
    assert_eq!(r_exh.cycles, r_sched.cycles, "modes diverged on {name}");
    (
        r_sched.cycles,
        r_sched.sim.cycles_skipped,
        ModeTimes {
            exhaustive: t_exh,
            scheduled: t_sched,
        },
    )
}

fn write_report() {
    let (e8_cycles, e8_skipped, e8_times) = measure_link_run("e8_slow_link_arith", e8_slow_link);
    let (burn_cycles, burn_skipped, burn_times) =
        measure_link_run("fu_latency_burn", fu_latency_burn);

    let (t_mh_exh, (mh_cycles_exh, _)) = time_best(5, || multihost_idle(ActivityMode::Exhaustive));
    let (t_mh_sched, (mh_cycles, mh_skipped)) =
        time_best(5, || multihost_idle(ActivityMode::Scheduled));
    assert_eq!(mh_cycles, mh_cycles_exh, "modes diverged on multihost");
    let mh_times = ModeTimes {
        exhaustive: t_mh_exh,
        scheduled: t_mh_sched,
    };

    let json = format!(
        "{{\n  \"bench\": \"sim_speed\",\n  \"scenarios\": [\n{},\n{},\n{}\n  ]\n}}\n",
        scenario_json("e8_slow_link_arith", e8_cycles, e8_skipped, &e8_times),
        scenario_json("fu_latency_burn", burn_cycles, burn_skipped, &burn_times),
        scenario_json("multihost_idle", mh_cycles, mh_skipped, &mh_times),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_speed.json");
    std::fs::write(path, &json).expect("write BENCH_sim_speed.json");
    eprintln!(
        "sim_speed: scheduled over exhaustive: e8 {:.2}x, burn {:.2}x, \
         multihost {:.2}x (report: BENCH_sim_speed.json)",
        e8_times.exhaustive.as_secs_f64() / e8_times.scheduled.as_secs_f64(),
        burn_times.exhaustive.as_secs_f64() / burn_times.scheduled.as_secs_f64(),
        mh_times.exhaustive.as_secs_f64() / mh_times.scheduled.as_secs_f64(),
    );
}

fn bench_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_speed");
    for (label, mode) in [
        ("exhaustive", ActivityMode::Exhaustive),
        ("scheduled", ActivityMode::Scheduled),
    ] {
        g.bench_with_input(BenchmarkId::new("e8_slow_link", label), &mode, |b, &m| {
            b.iter(|| black_box(e8_slow_link(m)))
        });
        g.bench_with_input(
            BenchmarkId::new("fu_latency_burn", label),
            &mode,
            |b, &m| b.iter(|| black_box(fu_latency_burn(m))),
        );
        g.bench_with_input(BenchmarkId::new("multihost_idle", label), &mode, |b, &m| {
            b.iter(|| black_box(multihost_idle(m)))
        });
    }
    g.finish();
    write_report();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_modes
}
criterion_main!(benches);
