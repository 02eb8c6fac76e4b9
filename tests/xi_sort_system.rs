//! Full-system χ-sort tests: host driver → link → RTM → χ-sort adapter →
//! SIMD cell array, against the software reference and `sort_unstable`.

mod util;

use fu_host::baseline::workload;
use fu_host::{Driver, Job, JobOutput, LinkModel, System};
use fu_isa::msg::ErrorCode;
use fu_isa::{funit_codes, DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit};
use fu_units::ClockDomainFu;
use xi_sort::reference::SoftwareXiSort;
use xi_sort::{XiConfig, XiOp, XiSortAdapter};

fn xi_driver(n_cells: u32, link: LinkModel) -> Driver {
    let sys = System::new(
        CoprocConfig::default(),
        vec![Box::new(XiSortAdapter::new(XiConfig::new(n_cells), 32))],
        link,
    )
    .unwrap();
    Driver::new(sys, 200_000_000)
}

#[test]
fn sorts_across_sizes() {
    for n in [1usize, 2, 3, 8, 33, 100] {
        let values = workload(n as u64, n, 10_000);
        let mut d = xi_driver(128, LinkModel::tightly_coupled());
        d.xi_load(&values, 1).unwrap();
        d.xi_sort(2).unwrap();
        let got = d.xi_read_sorted(n, 1, 2).unwrap();
        let mut expect = values.clone();
        expect.sort_unstable();
        assert_eq!(got, expect, "n = {n}");
    }
}

#[test]
fn sorts_with_heavy_duplicates() {
    let values = workload(5, 64, 4); // values in 0..4 — massive duplication
    let mut d = xi_driver(64, LinkModel::tightly_coupled());
    d.xi_load(&values, 1).unwrap();
    d.xi_sort(2).unwrap();
    let got = d.xi_read_sorted(64, 1, 2).unwrap();
    let mut expect = values.clone();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn selection_across_ranks() {
    let n = 48;
    let values = workload(11, n, 1_000);
    let mut sorted = values.clone();
    sorted.sort_unstable();
    for k in [0usize, 1, n / 2, n - 1] {
        let mut d = xi_driver(64, LinkModel::tightly_coupled());
        d.xi_load(&values, 1).unwrap();
        assert_eq!(d.xi_select(k as u32, 1, 2).unwrap(), sorted[k], "k = {k}");
    }
}

#[test]
fn hardware_rounds_match_software_reference() {
    // The hardware refines the leftmost imprecise *cell* group; the
    // software the leftmost *element* group. Loading through the shift
    // chain reverses the array, so feed the software the reversed input
    // to align pivots exactly.
    let values = workload(21, 40, 100_000);
    let mut d = xi_driver(64, LinkModel::tightly_coupled());
    d.xi_load(&values, 1).unwrap();
    let hw_rounds = d.xi_sort(2).unwrap();

    let reversed: Vec<u32> = values.iter().rev().copied().collect();
    let mut sw = SoftwareXiSort::new(&reversed);
    let sw_rounds = sw.sort() as u64;
    assert_eq!(
        hw_rounds, sw_rounds,
        "identical pivot policy must use identical round counts"
    );
}

#[test]
fn sort_works_over_the_slow_prototyping_link() {
    let values = workload(31, 12, 500);
    let mut d = xi_driver(16, LinkModel::prototyping());
    d.xi_load(&values, 1).unwrap();
    d.xi_sort(2).unwrap();
    let got = d.xi_read_sorted(12, 1, 2).unwrap();
    let mut expect = values.clone();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn per_op_cycles_are_constant_in_n_through_the_full_stack() {
    // E6 at system level: a single SortStep instruction costs the same
    // FPGA cycles for n=8 and n=512 (combinational tree).
    let step_cycles = |n: usize| {
        let values = workload(7, n, 1 << 20);
        let mut d = xi_driver(512, LinkModel::ideal());
        d.xi_load(&values, 1).unwrap();
        d.xi_op(XiOp::SortStep, 0, 2);
        d.read_reg(2).unwrap();
        d.into_system().cycle()
    };
    // Measure the controller directly for the precise per-step count.
    let core_step = |n: u32| {
        let mut core = xi_sort::XiSortCore::new(XiConfig::new(n));
        core.dispatch(XiOp::Reset, 0);
        for v in workload(7, n as usize, 1 << 20) {
            core.dispatch(XiOp::Push, v);
        }
        core.dispatch(XiOp::InitBounds, 0);
        core.run_to_completion(10_000);
        core.dispatch(XiOp::SortStep, 0);
        core.run_to_completion(10_000);
        core.op_cycles()
    };
    assert_eq!(core_step(8), core_step(512));
    // And the full-stack cost should be dominated by load (Θ(n)), with
    // the step itself adding a fixed tail.
    let total_small = step_cycles(8);
    let total_big = step_cycles(512);
    assert!(
        total_big > total_small,
        "loading 512 elements costs more overall"
    );
}

#[test]
fn registered_tree_adapter_through_full_system() {
    // Ablation A4 at system level: the registered-tree engine is slower
    // per operation but produces identical results.
    let mk = |registered: bool| {
        let cfg = XiConfig::new(64).with_registered_tree(registered);
        let sys = System::new(
            CoprocConfig::default(),
            vec![Box::new(XiSortAdapter::new(cfg, 32))],
            LinkModel::tightly_coupled(),
        )
        .unwrap();
        Driver::new(sys, 400_000_000)
    };
    let values = workload(77, 48, 100_000);
    let mut expect = values.clone();
    expect.sort_unstable();

    let mut comb = mk(false);
    comb.xi_load(&values, 1).unwrap();
    comb.xi_sort(2).unwrap();
    assert_eq!(comb.xi_read_sorted(48, 1, 2).unwrap(), expect);
    let comb_cycles = comb.cycles();

    let mut reg = mk(true);
    reg.xi_load(&values, 1).unwrap();
    reg.xi_sort(2).unwrap();
    assert_eq!(reg.xi_read_sorted(48, 1, 2).unwrap(), expect);
    assert!(
        reg.cycles() > comb_cycles,
        "registered tree pays fold latency: {} vs {comb_cycles}",
        reg.cycles()
    );
}

#[test]
fn reset_allows_reuse() {
    let mut d = xi_driver(16, LinkModel::tightly_coupled());
    d.xi_load(&[3, 1, 2], 1).unwrap();
    d.xi_sort(2).unwrap();
    assert_eq!(d.xi_read_sorted(3, 1, 2).unwrap(), vec![1, 2, 3]);
    // Second run on the same hardware.
    d.xi_load(&[9, 9, 1, 5], 1).unwrap();
    d.xi_sort(2).unwrap();
    assert_eq!(d.xi_read_sorted(4, 1, 2).unwrap(), vec![1, 5, 9, 9]);
}

#[test]
fn overflow_reports_error_flag() {
    let mut d = xi_driver(4, LinkModel::tightly_coupled());
    d.xi_op(XiOp::Reset, 1, 0);
    for v in 0..5u32 {
        d.write_reg(1, v as u64);
        d.xi_op(XiOp::Push, 1, 0);
    }
    d.sync().unwrap();
    let flags = d.read_flags(0).unwrap();
    assert!(
        flags.error(),
        "fifth push into 4 cells must set the error flag"
    );
}

/// Messages that issue one χ-sort operation of `variety` on `operand`
/// (staged in r1, result to r2, flags to f0) and read r2 under `tag`,
/// then, as a second batch, read f0 under `tag + 1`. A read waits at the
/// dispatcher for the operation's lock; a message queued behind it would
/// keep the pipeline busy and leave nothing for the scheduler to skip.
fn xi_request(variety: u8, operand: u32, tag: u16) -> [Vec<HostMsg>; 2] {
    [
        vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(u64::from(operand), 32),
            },
            HostMsg::Instr(InstrWord::user(UserInstr {
                func: funit_codes::XI_SORT,
                variety,
                dst_flag: 0,
                dst_reg: 2,
                aux_reg: 0,
                src1: 1,
                src2: 0,
                src3: 0,
            })),
            HostMsg::ReadReg { reg: 2, tag },
        ],
        vec![HostMsg::ReadFlags {
            reg: 0,
            tag: tag + 1,
        }],
    ]
}

/// A script that reaches every χ-sort operation: loads, the step and full
/// programs for sorting and selection, readouts, counts, an unknown
/// variety, and a reset followed by a second, partial load. Batches of
/// messages, each to be settled before the next is sent.
fn every_op_script(n: u32) -> Vec<Vec<HostMsg>> {
    let values = workload(u64::from(n), n as usize, 1_000);
    let mut ops = vec![(XiOp::Reset.variety(), 0)];
    ops.extend(values.iter().map(|&v| (XiOp::Push.variety(), v)));
    ops.extend([
        (XiOp::InitBounds.variety(), 0),
        (XiOp::CountImprecise.variety(), 0),
        (XiOp::SelectStep.variety(), n / 2),
        (XiOp::SortStep.variety(), 0),
        (XiOp::SelectK.variety(), n / 3),
        (XiOp::Sort.variety(), 0),
        (XiOp::ReadAt.variety(), 0),
        (XiOp::ReadAt.variety(), n - 1),
        (XiOp::CountImprecise.variety(), 0),
        (0x7f, 0),
        (XiOp::Reset.variety(), 0),
    ]);
    ops.extend(
        values[..n as usize / 2]
            .iter()
            .map(|&v| (XiOp::Push.variety(), v)),
    );
    ops.extend([
        (XiOp::InitBounds.variety(), 0),
        (XiOp::SelectK.variety(), 0),
        (XiOp::Sort.variety(), 0),
    ]);
    ops.into_iter()
        .zip((0u16..).step_by(2))
        .flat_map(|((variety, operand), tag)| xi_request(variety, operand, tag))
        .collect()
}

/// What a mode change must leave untouched: the response stream, the
/// final cycle, stage busy-ness and the latency histograms.
#[derive(Debug, PartialEq)]
struct XiRun {
    replies: Vec<DevMsg>,
    cycle: u64,
    stage_busy: Vec<(&'static str, u64)>,
    latencies: [rtl_sim::LatencyHistogram; 3],
}

fn run_script(
    cfg: XiConfig,
    divider: u32,
    max_busy_cycles: Option<u64>,
    mode: ActivityMode,
) -> XiRun {
    let adapter = XiSortAdapter::new(cfg, 32);
    let unit: Box<dyn FunctionalUnit> = if divider > 1 {
        Box::new(ClockDomainFu::new(adapter, divider))
    } else {
        Box::new(adapter)
    };
    let coproc = CoprocConfig {
        max_busy_cycles,
        ..CoprocConfig::default()
    };
    let mut sys = System::new(coproc, vec![unit], LinkModel::pcie_like()).unwrap();
    sys.set_activity_mode(mode);
    // Each batch settles before the next is sent, so the pipeline's
    // stages drain while the unit runs and the scheduled kernel skips on
    // the unit's hint.
    let mut replies = Vec::new();
    for batch in every_op_script(cfg.n_cells) {
        for m in &batch {
            sys.send(m);
        }
        util::settle(&mut sys, 1_000_000);
        replies.extend(std::iter::from_fn(|| sys.recv()));
    }
    let sim = sys.sim_stats();
    XiRun {
        replies,
        cycle: sys.cycle(),
        stage_busy: sim.stage_busy,
        latencies: [
            sim.lat_issue_dispatch,
            sim.lat_dispatch_retire,
            sim.lat_issue_retire,
        ],
    }
}

#[test]
fn scheduled_matches_exhaustive_on_every_op() {
    // The adapter hints a whole operation at dispatch; the scheduled
    // kernel must still reproduce the per-cycle reference bit for bit,
    // bare or behind a clock-domain crossing, and a watchdog shorter than
    // a sort must still quarantine the unit on the same cycle.
    let mut cells: Vec<(u32, bool, u32, Option<u64>)> = Vec::new();
    for n in [2, 16, 64] {
        for registered in [false, true] {
            for divider in [1, 3] {
                cells.push((n, registered, divider, None));
            }
        }
    }
    cells.push((64, false, 1, Some(300)));
    cells.push((64, true, 3, Some(300)));
    for (n, registered, divider, watchdog) in cells {
        let label =
            format!("n {n}, registered {registered}, divider {divider}, watchdog {watchdog:?}");
        let cfg = XiConfig::new(n).with_registered_tree(registered);
        let scheduled = run_script(cfg, divider, watchdog, ActivityMode::Scheduled);
        let exhaustive = run_script(cfg, divider, watchdog, ActivityMode::Exhaustive);
        assert_eq!(scheduled, exhaustive, "{label}: activity modes diverged");
        let timed_out = scheduled.replies.iter().any(|m| {
            matches!(
                m,
                DevMsg::Error {
                    code: ErrorCode::FuTimeout,
                    ..
                }
            )
        });
        assert_eq!(
            timed_out,
            watchdog.is_some(),
            "{label}: {:?}",
            scheduled.replies
        );
    }
}

#[test]
fn a_sort_fires_one_wake_per_operation() {
    // Every χ-sort operation's length is fixed at dispatch, so the
    // scheduled kernel wakes at most once per operation instead of once
    // per microinstruction. A 64-value sort dispatches Reset, 64 Push,
    // InitBounds, Sort and 64 ReadAt; the 66 that run a program each
    // fire one wake.
    let values = workload(5, 64, 1 << 20);
    let mut farm = bench::throughput::xi_farm(1, 64, 5);
    let results = farm.run_serial(&[Job::XiSort(values.clone())]).unwrap();
    let mut expect = values.clone();
    expect.sort_unstable();
    assert!(
        matches!(&results[0].output, Ok(JobOutput::Sorted { values, .. }) if *values == expect),
        "{:?}",
        results[0].output
    );
    let dispatched = 1 + 64 + 1 + 1 + 64;
    let fired = farm.sim_stats().wheel.wakes_fired;
    assert!(
        fired <= dispatched,
        "{fired} wakes for {dispatched} operations"
    );
    assert_eq!(fired, 66, "one wake per program-running operation");
}
