//! Acceptance properties for the reliability work: under arbitrary seeds
//! and fault rates up to 20% per class, the reliable transport must hide
//! every injected fault from the application, and the dispatch watchdog
//! must convert a hung functional unit into an in-band error while the
//! rest of the machine keeps executing.

mod util;

use bench::faults::fault_batch;
use fu_host::{FaultModel, LinkModel, System};
use fu_isa::msg::ErrorCode;
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::{LatencyFu, StuckFu};
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit};
use proptest::prelude::*;

fn pick_link(index: usize) -> LinkModel {
    match index {
        0 => LinkModel::tightly_coupled(),
        _ => LinkModel::pcie_like(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The reliable transport may cost cycles, never answers: for any
    /// seed and any fault rate up to 200 permille per class, the faulty
    /// run's response stream is bit-identical to the fault-free one.
    #[test]
    fn faulty_stream_is_bit_identical(
        seed in any::<u64>(),
        permille in 1u32..=200,
        link_index in 0usize..2,
        n in 1usize..8,
    ) {
        let clean = fault_batch(pick_link(link_index), 0, seed, n);
        let faulty = fault_batch(pick_link(link_index), permille, seed, n);
        prop_assert_eq!(
            &clean.responses, &faulty.responses,
            "stream diverged at {} permille, seed {:#x}", permille, seed
        );
        prop_assert!(!faulty.stats.gave_up);
    }
}

fn stuck_instr(dst: u8) -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func: 9,
        variety: 0,
        dst_flag: 3,
        dst_reg: dst,
        aux_reg: 0,
        src1: 1,
        src2: 1,
        src3: 0,
    }))
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

/// One stuck unit, one healthy unit, a lossy reliable link: run the
/// watchdog workload to completion and return the full response stream
/// (quarantine phase included).
fn watchdog_run(seed: u64, permille: u32, max_busy: u64, mode: ActivityMode) -> Vec<DevMsg> {
    let link = LinkModel::tightly_coupled();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let cfg = CoprocConfig {
        max_busy_cycles: Some(max_busy),
        ..CoprocConfig::default()
    };
    let units: Vec<Box<dyn FunctionalUnit>> = vec![
        Box::new(StuckFu::new("hang", 9)),
        Box::new(LatencyFu::new("add", 1, 2)),
    ];
    let faults = (permille > 0).then(|| FaultModel::uniform(seed, permille));
    let mut sys = System::new_reliable(cfg, units, link, tcfg, faults).expect("valid config");
    sys.set_activity_mode(mode);
    sys.send(&HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(3, 32),
    });
    sys.send(&HostMsg::WriteReg {
        reg: 2,
        value: Word::from_u64(0, 32),
    });
    sys.send(&stuck_instr(5));
    for _ in 0..4 {
        sys.send(&dependent_add());
    }
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 1 });
    // Register 5 is locked by the hung dispatch; this read can only
    // answer once the watchdog releases the lock.
    sys.send(&HostMsg::ReadReg { reg: 5, tag: 2 });
    sys.send(&HostMsg::Sync { tag: 3 });
    util::settle(&mut sys, 200_000_000);
    let mut out: Vec<DevMsg> = std::iter::from_fn(|| sys.recv()).collect();
    // The quarantined unit must now fail fast, and the machine must still
    // serve the healthy path.
    sys.send(&stuck_instr(6));
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 4 });
    sys.send(&HostMsg::Sync { tag: 5 });
    util::settle(&mut sys, 200_000_000);
    out.extend(std::iter::from_fn(|| sys.recv()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A hung unit degrades gracefully under any fault rate: the workload
    /// completes, the timeout is reported in band, healthy units keep
    /// executing, and both activity modes agree bit for bit.
    #[test]
    fn hung_unit_degrades_gracefully(
        seed in any::<u64>(),
        permille in 0u32..=200,
        max_busy in 40u64..200,
    ) {
        let scheduled = watchdog_run(seed, permille, max_busy, ActivityMode::Scheduled);
        let exhaustive = watchdog_run(seed, permille, max_busy, ActivityMode::Exhaustive);
        prop_assert_eq!(&scheduled, &exhaustive, "activity modes diverged");

        let out = scheduled;
        prop_assert!(
            out.contains(&DevMsg::Error { code: ErrorCode::FuTimeout, info: 9 }),
            "no in-band timeout in {:?}", out
        );
        // Healthy unit finished its adds despite the hang.
        prop_assert!(out.contains(&DevMsg::Data { tag: 1, value: Word::from_u64(12, 32) }));
        // The hung dispatch's register lock was released.
        prop_assert!(out.contains(&DevMsg::Data { tag: 2, value: Word::from_u64(0, 32) }));
        prop_assert!(out.contains(&DevMsg::SyncAck { tag: 3 }));
        // Phase two: dispatching to the quarantined unit fails fast while
        // the healthy unit still answers.
        prop_assert!(
            out.contains(&DevMsg::Error { code: ErrorCode::FuQuarantined, info: 9 }),
            "no fail-fast error in {:?}", out
        );
        prop_assert!(out.contains(&DevMsg::Data { tag: 4, value: Word::from_u64(12, 32) }));
        prop_assert_eq!(out.last(), Some(&DevMsg::SyncAck { tag: 5 }));
    }
}

/// As [`watchdog_run`] but in `Scheduled` mode and paced by the drain
/// helpers instead of one settle: each phase pulls its exact response
/// count with [`util::drain_responses`] while faults are still being
/// injected, then the system must park fully idle with nothing left in
/// the host queue.
fn watchdog_drain_scheduled(seed: u64, permille: u32, max_busy: u64) -> Vec<DevMsg> {
    let link = LinkModel::tightly_coupled();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let cfg = CoprocConfig {
        max_busy_cycles: Some(max_busy),
        ..CoprocConfig::default()
    };
    let units: Vec<Box<dyn FunctionalUnit>> = vec![
        Box::new(StuckFu::new("hang", 9)),
        Box::new(LatencyFu::new("add", 1, 2)),
    ];
    let faults = (permille > 0).then(|| FaultModel::uniform(seed, permille));
    let mut sys = System::new_reliable(cfg, units, link, tcfg, faults).expect("valid config");
    sys.set_activity_mode(ActivityMode::Scheduled);
    sys.send(&HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(3, 32),
    });
    sys.send(&HostMsg::WriteReg {
        reg: 2,
        value: Word::from_u64(0, 32),
    });
    sys.send(&stuck_instr(5));
    for _ in 0..4 {
        sys.send(&dependent_add());
    }
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 1 });
    sys.send(&HostMsg::ReadReg { reg: 5, tag: 2 });
    sys.send(&HostMsg::Sync { tag: 3 });
    // Phase 1 answers with exactly four messages: the in-band timeout,
    // both reads, and the sync ack.
    let mut out = util::drain_responses(&mut sys, 4, util::STREAM_BUDGET);
    sys.send(&stuck_instr(6));
    sys.send(&HostMsg::ReadReg { reg: 2, tag: 4 });
    sys.send(&HostMsg::Sync { tag: 5 });
    // Phase 2: the quarantine fail-fast, the healthy read, the ack.
    out.extend(util::drain_responses(&mut sys, 3, util::STREAM_BUDGET));
    // With the stream fully claimed the system must park: idle within
    // the settle budget (acks included) and no dangling response.
    util::settle(&mut sys, util::STREAM_BUDGET);
    assert!(sys.is_idle(), "settle returned before idle");
    assert!(
        sys.recv().is_none(),
        "drained system still had a queued response"
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The scheduled mode under the combined stress — link faults plus
    /// a hung unit driven through watchdog quarantine — agrees bit for
    /// bit with exhaustive stepping, and `is_idle`/the drain helpers behave:
    /// each phase's responses can be pulled exactly while faults are
    /// live, after which the system parks clean.
    #[test]
    fn scheduled_mode_quarantine_drains_and_parks_idle(
        seed in any::<u64>(),
        permille in 0u32..=200,
        max_busy in 40u64..200,
    ) {
        let exhaustive = watchdog_run(seed, permille, max_busy, ActivityMode::Exhaustive);
        let scheduled = watchdog_drain_scheduled(seed, permille, max_busy);
        prop_assert_eq!(&exhaustive, &scheduled, "scheduled mode diverged under faults");
    }
}

/// Run the arithmetic round trip on a reliable, traced system with the
/// given fault model; return the response stream and the system for
/// trace/stats inspection.
fn traced_faulty_run(faults: Option<FaultModel>, n: usize) -> (Vec<DevMsg>, System) {
    let link = LinkModel::pcie_like();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 2))];
    let mut sys =
        System::new_reliable(CoprocConfig::default(), units, link, tcfg, faults).expect("config");
    sys.set_trace_depth(1 << 16);
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
    util::settle(&mut sys, 200_000_000);
    let out: Vec<DevMsg> = std::iter::from_fn(|| sys.recv()).collect();
    (out, sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three fault classes at once: go-back-N still hides every fault
    /// from the application, and the link trace's retransmission events
    /// account for exactly the retransmissions the transport counted —
    /// Σ `LinkRetransmit.segments` == `link_stats().retransmits`.
    #[test]
    fn combined_faults_recover_and_trace_accounts_retransmits(
        seed in any::<u64>(),
        drop in 0u32..=120,
        corrupt in 0u32..=120,
        duplicate in 0u32..=120,
        n in 1usize..6,
    ) {
        let faults = FaultModel {
            seed,
            drop_permille: drop,
            corrupt_permille: corrupt,
            duplicate_permille: duplicate,
            burst_permille: 0,
            burst_len: 1,
        };
        let (clean_out, _clean_sys) = traced_faulty_run(None, n);
        let (faulty_out, faulty_sys) = traced_faulty_run(Some(faults), n);
        prop_assert_eq!(
            &clean_out, &faulty_out,
            "stream diverged under drop={} corrupt={} dup={} seed={:#x}",
            drop, corrupt, duplicate, seed
        );
        prop_assert!(faulty_out.contains(&DevMsg::Data {
            tag: 1,
            value: Word::from_u64(3 * n as u64, 32),
        }));

        let stats = faulty_sys.link_stats();
        prop_assert!(!stats.gave_up);
        let traced_retx: u64 = faulty_sys
            .link_trace()
            .events()
            .map(|e| match e.kind {
                rtl_sim::TraceEventKind::LinkRetransmit { segments } => u64::from(segments),
                _ => 0,
            })
            .sum();
        prop_assert_eq!(
            faulty_sys.link_trace().dropped(), 0,
            "link trace ring overflowed; the accounting below would be partial"
        );
        prop_assert_eq!(
            traced_retx, stats.retransmits,
            "trace accounting diverged from transport counters"
        );
        if drop > 0 || corrupt > 0 {
            // With faults injected on both directions the transport almost
            // surely retransmitted; if it did, the trace must show it.
            prop_assert_eq!(traced_retx > 0, stats.retransmits > 0);
        }
    }
}
