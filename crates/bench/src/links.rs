//! Link-sensitivity measurement (experiment E8).
//!
//! "The speed of the system is determined by two factors: the latency of
//! the communication interface to the host computer, and the clock speed
//! of the FPGA. … only a very slow connection from the FPGA board to the
//! processor was available. However, this is not a limitation of the
//! approach."
//!
//! The measurement runs identical workloads over each link preset and
//! splits total time into link-dominated and compute-dominated parts.

use fu_host::baseline::workload;
use fu_host::{Driver, LinkModel, System};
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit};
use fu_units::standard_units;
use rtl_sim::SimStats;
use xi_sort::{XiConfig, XiSortAdapter};

/// Result of one link run.
#[derive(Debug, Clone)]
pub struct LinkRun {
    /// Total FPGA cycles to complete the workload.
    pub cycles: u64,
    /// Frames moved to the device.
    pub frames_to_dev: u64,
    /// Frames moved to the host.
    pub frames_to_host: u64,
    /// Scheduler statistics (fast-forward ratio, stage evaluations).
    pub sim: SimStats,
}

/// Workload 1: an arithmetic batch — write 2 operands, run `n` dependent
/// adds, read the result (one round trip).
pub fn arith_batch(link: LinkModel, n: usize) -> LinkRun {
    arith_batch_mode(link, n, ActivityMode::Scheduled)
}

/// [`arith_batch`] with an explicit scheduling mode (the wall-clock
/// benchmark compares the two; results are identical by construction).
pub fn arith_batch_mode(link: LinkModel, n: usize, mode: ActivityMode) -> LinkRun {
    arith_batch_mode_traced(link, n, mode, 0)
}

/// [`arith_batch_mode`] with event tracing enabled at `trace_depth`
/// (`0` = off). The profiling experiment (E14) uses this to measure the
/// overhead of a traced run against the identical untraced one.
pub fn arith_batch_mode_traced(
    link: LinkModel,
    n: usize,
    mode: ActivityMode,
    trace_depth: usize,
) -> LinkRun {
    let mut sys =
        System::new(CoprocConfig::default(), standard_units(32), link).expect("valid config");
    sys.set_activity_mode(mode);
    sys.set_trace_depth(trace_depth);
    let mut d = Driver::new(sys, 1_000_000_000);
    d.write_reg(1, 3);
    d.write_reg(2, 0);
    for _ in 0..n {
        d.exec_asm("ADD r2, r2, r1, f1").expect("assembles");
    }
    let v = d.read_reg(2).expect("result").as_u64();
    assert_eq!(v, 3 * n as u64);
    let sys = d.into_system();
    let (to_dev, to_host) = sys.frames_carried();
    LinkRun {
        cycles: sys.cycle(),
        frames_to_dev: to_dev,
        frames_to_host: to_host,
        sim: sys.sim_stats(),
    }
}

/// Workload 2: χ-sort `n` elements end to end (load, sort, read back).
pub fn xi_batch(link: LinkModel, n: usize) -> LinkRun {
    xi_batch_mode(link, n, ActivityMode::Scheduled)
}

/// [`xi_batch`] with an explicit scheduling mode.
pub fn xi_batch_mode(link: LinkModel, n: usize, mode: ActivityMode) -> LinkRun {
    let mut sys = System::new(
        CoprocConfig::default(),
        vec![Box::new(XiSortAdapter::new(XiConfig::new(n as u32), 32))],
        link,
    )
    .expect("valid config");
    sys.set_activity_mode(mode);
    let mut d = Driver::new(sys, 4_000_000_000);
    let values = workload(3, n, 1 << 20);
    d.xi_load(&values, 1).expect("load");
    d.xi_sort(2).expect("sort");
    let got = d.xi_read_sorted(n, 1, 2).expect("readout");
    let mut expect = values;
    expect.sort_unstable();
    assert_eq!(got, expect);
    let sys = d.into_system();
    let (to_dev, to_host) = sys.frames_carried();
    LinkRun {
        cycles: sys.cycle(),
        frames_to_dev: to_dev,
        frames_to_host: to_host,
        sim: sys.sim_stats(),
    }
}

/// Workload 3: a latency burn — `n` synchronous round trips to a unit
/// with a `latency`-cycle fixed execution time, over `link`. The host
/// waits out each burn before issuing the next instruction (the
/// synchronous offload pattern of the paper's E8 discussion).
///
/// This is the scenario quiet-span skipping exists for. While the unit
/// burns its latency the coprocessor is *quiet* but never *idle*, so
/// [`ActivityMode::Exhaustive`] steps every single cycle of every burn
/// (`≈ n × latency` steps). [`ActivityMode::Scheduled`] takes the unit's
/// completion cycle as a deadline and jumps straight to it, paying a
/// handful of steps per round trip instead.
pub fn latency_burn_mode(link: LinkModel, n: usize, latency: u32, mode: ActivityMode) -> LinkRun {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("burn", 1, latency))];
    let mut sys = System::new(CoprocConfig::default(), units, link).expect("valid config");
    sys.set_activity_mode(mode);
    sys.send(&HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(21, 32),
    });
    for _ in 0..n {
        sys.send(&HostMsg::Instr(fu_isa::InstrWord::user(
            fu_isa::UserInstr {
                func: 1,
                variety: 0,
                dst_flag: 1,
                dst_reg: 2,
                aux_reg: 0,
                src1: 1,
                src2: 1,
                src3: 0,
            },
        )));
        sys.run_until(4_000_000_000, |s| s.is_idle())
            .expect("burn completes");
    }
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 3 });
    sys.send(&HostMsg::Sync { tag: 4 });
    sys.run_until(4_000_000_000, |s| s.pending_responses() >= 2 && s.is_idle())
        .expect("readback completes");
    let responses: Vec<DevMsg> = std::iter::from_fn(|| sys.recv()).collect();
    assert!(
        matches!(
            responses.as_slice(),
            [DevMsg::Data { .. }, DevMsg::SyncAck { .. }]
        ),
        "unexpected burn responses: {responses:?}"
    );
    let (to_dev, to_host) = sys.frames_carried();
    LinkRun {
        cycles: sys.cycle(),
        frames_to_dev: to_dev,
        frames_to_host: to_host,
        sim: sys.sim_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_ordering_holds_for_arith() {
        let slow = arith_batch(LinkModel::prototyping(), 20);
        let mid = arith_batch(LinkModel::pcie_like(), 20);
        let fast = arith_batch(LinkModel::tightly_coupled(), 20);
        assert!(slow.cycles > mid.cycles);
        assert!(mid.cycles > fast.cycles);
        // The same frames move regardless of the link.
        assert_eq!(slow.frames_to_dev, fast.frames_to_dev);
    }

    #[test]
    fn scheduling_mode_does_not_change_results() {
        for link in [LinkModel::prototyping(), LinkModel::pcie_like()] {
            let g = arith_batch_mode(link, 16, ActivityMode::Scheduled);
            let e = arith_batch_mode(link, 16, ActivityMode::Exhaustive);
            assert_eq!(g.cycles, e.cycles, "{}", link.name);
            assert_eq!(g.frames_to_dev, e.frames_to_dev);
            assert_eq!(g.frames_to_host, e.frames_to_host);
            assert_eq!(e.sim.cycles_skipped, 0, "exhaustive must not skip");
        }
    }

    #[test]
    fn slow_link_run_is_mostly_fast_forwarded() {
        let r = arith_batch_mode(LinkModel::prototyping(), 16, ActivityMode::Scheduled);
        assert!(
            r.sim.cycles_skipped > r.sim.cycles_simulated / 3,
            "expected >33% skipped, got {} of {}",
            r.sim.cycles_skipped,
            r.sim.cycles_simulated
        );
    }

    #[test]
    fn latency_burn_agrees_across_modes_and_scheduled_skips_the_burn() {
        let e = latency_burn_mode(LinkModel::prototyping(), 3, 2_000, ActivityMode::Exhaustive);
        let s = latency_burn_mode(LinkModel::prototyping(), 3, 2_000, ActivityMode::Scheduled);
        assert_eq!(e.cycles, s.cycles, "exhaustive vs scheduled diverged");
        assert_eq!(e.frames_to_dev, s.frames_to_dev);
        assert_eq!(e.frames_to_host, s.frames_to_host);
        // Exhaustive steps through every cycle of every burn; the
        // scheduler jumps them, so its work is an order of magnitude less.
        assert!(
            e.sim.cycles_stepped >= 3 * 2_000,
            "exhaustive stepped only {} cycles",
            e.sim.cycles_stepped
        );
        assert!(
            s.sim.cycles_stepped * 10 < e.sim.cycles_stepped,
            "scheduled stepped {} vs exhaustive {}",
            s.sim.cycles_stepped,
            e.sim.cycles_stepped
        );
        assert!(s.sim.wheel.wakes_fired > 0, "no deadline reached");
    }

    #[test]
    fn xi_batch_runs_on_two_links() {
        let fast = xi_batch(LinkModel::tightly_coupled(), 16);
        let slow = xi_batch(LinkModel::pcie_like(), 16);
        assert!(slow.cycles > fast.cycles);
    }
}
