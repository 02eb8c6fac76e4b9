//! Fault-injection sweep (experiment E12): completion time and goodput of
//! the reliable transport as the injected fault rate rises.
//!
//! The paper's framing layer assumes an error-free transceiver; the
//! reliable transport drops in where that assumption fails. This module
//! measures what reliability costs: the same arithmetic batch runs over
//! each link preset while the fault model drops, corrupts and duplicates
//! wire frames at a swept rate, and every run's response stream must be
//! **bit-identical** to the fault-free baseline — the protocol may only
//! cost time, never correctness. The CI fault smoke job runs the sweep at
//! a fixed seed and fails on any divergence.

use fu_host::{FaultModel, LinkModel, LinkStats, System};
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{CoprocConfig, FunctionalUnit};

/// Result of one fault-rate point.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// FPGA cycles until the system fully drained (including acks).
    pub cycles: u64,
    /// Every response the host received, in order.
    pub responses: Vec<DevMsg>,
    /// Aggregated fault and transport counters.
    pub stats: LinkStats,
    /// Wire frames carried to the device and to the host.
    pub wire_to_dev: u64,
    /// See `wire_to_dev`.
    pub wire_to_host: u64,
}

impl FaultRun {
    /// Payload frames delivered per thousand cycles — the headline
    /// goodput figure (falls as retransmissions eat link time).
    pub fn goodput_per_kcycle(&self) -> f64 {
        self.stats.delivered as f64 * 1000.0 / self.cycles as f64
    }

    /// Payload frames delivered per wire frame carried — the protocol's
    /// efficiency (up to 8/10 of a full data segment, less the header,
    /// CRC and ack frames of shorter ones, when nothing goes wrong).
    pub fn efficiency(&self) -> f64 {
        self.stats.delivered as f64 / (self.wire_to_dev + self.wire_to_host) as f64
    }
}

fn dependent_add() -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func: 1,
        variety: 0,
        dst_flag: 1,
        dst_reg: 2,
        aux_reg: 0,
        src1: 2,
        src2: 1,
        src3: 0,
    }))
}

/// Run the sweep workload — `n` dependent adds bracketed by register
/// writes, a result read-back and a final sync — over `link` with a
/// uniform fault model at `permille` per fault class (0 = fault-free).
///
/// Panics if the system fails to drain or computes a wrong result, so
/// every caller doubles as a correctness check.
pub fn fault_batch(link: LinkModel, permille: u32, seed: u64, n: usize) -> FaultRun {
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let faults = (permille > 0).then(|| FaultModel::uniform(seed, permille));
    let mut sys = System::new_reliable(
        CoprocConfig::default(),
        vec![Box::new(LatencyFu::new("add", 1, 1)) as Box<dyn FunctionalUnit>],
        link,
        tcfg,
        faults,
    )
    .expect("valid config");
    sys.send(&HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(3, 32),
    });
    sys.send(&HostMsg::WriteReg {
        reg: 2,
        value: Word::from_u64(0, 32),
    });
    for _ in 0..n {
        sys.send(&dependent_add());
    }
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 1 });
    sys.send(&HostMsg::Sync { tag: 2 });
    sys.run_until(500_000_000, |s| s.is_idle())
        .expect("reliable system must drain");
    let responses: Vec<DevMsg> = std::iter::from_fn(|| sys.recv()).collect();
    assert!(
        responses.contains(&DevMsg::Data {
            tag: 1,
            value: Word::from_u64(3 * n as u64, 32)
        }),
        "wrong arithmetic result at {permille}permille on {}: {responses:?}",
        link.name
    );
    assert_eq!(responses.last(), Some(&DevMsg::SyncAck { tag: 2 }));
    let (wire_to_dev, wire_to_host) = sys.frames_carried();
    FaultRun {
        cycles: sys.cycle(),
        responses,
        stats: sys.link_stats(),
        wire_to_dev,
        wire_to_host,
    }
}

/// Sweep `rates` (permille per fault class) over one link, asserting that
/// every faulty run's response stream is bit-identical to the fault-free
/// baseline. Returns one [`FaultRun`] per rate, in order.
pub fn fault_sweep_verified(
    link: LinkModel,
    seed: u64,
    n: usize,
    rates: &[u32],
) -> Vec<(u32, FaultRun)> {
    let baseline = fault_batch(link, 0, seed, n);
    rates
        .iter()
        .map(|&rate| {
            let run = if rate == 0 {
                baseline.clone()
            } else {
                fault_batch(link, rate, seed, n)
            };
            assert_eq!(
                run.responses, baseline.responses,
                "response stream diverged at {rate}permille on {}",
                link.name
            );
            (rate, run)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_never_retransmits() {
        let r = fault_batch(LinkModel::tightly_coupled(), 0, 1, 8);
        assert_eq!(r.stats.retransmits, 0);
        assert_eq!(r.stats.frames_dropped, 0);
        assert!(!r.stats.gave_up);
    }

    #[test]
    fn faulty_run_matches_baseline_and_costs_cycles() {
        let sweep = fault_sweep_verified(LinkModel::tightly_coupled(), 42, 8, &[0, 100]);
        let (_, clean) = &sweep[0];
        let (_, faulty) = &sweep[1];
        assert!(
            faulty.cycles > clean.cycles,
            "recovery must cost time: {} vs {}",
            faulty.cycles,
            clean.cycles
        );
        assert!(faulty.stats.retransmits > 0);
        assert!(faulty.goodput_per_kcycle() < clean.goodput_per_kcycle());
    }

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let a = fault_batch(LinkModel::pcie_like(), 150, 7, 8);
        let b = fault_batch(LinkModel::pcie_like(), 150, 7, 8);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }
}
