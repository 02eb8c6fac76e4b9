//! Stage-level tests of the dispatcher's stall accounting: every stall
//! cause the paper's design implies (register locks, busy units, a full
//! execution stage, fences) must be observable and correctly attributed,
//! because the experiments use these counters as evidence.
//!
//! Every scenario runs in both activity modes. Under `Scheduled` the
//! host jumps quiet spans with `Coprocessor::skip_to_next_event`, so a
//! stalled head's cycles are recorded for a whole skipped span at once;
//! the two runs must reach the same cycle with the same statistics and
//! the same traced dispatcher events.

use fu_isa::msg::DevDeframer;
use fu_isa::{DevMsg, HostMsg, InstrWord, MgmtOp, UserInstr, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, Coprocessor};
use rtl_sim::{TraceEvent, TraceEventKind};
use std::collections::VecDeque;

/// Exhaustive first: the reference the scheduled run must match.
const MODES: [ActivityMode; 2] = [ActivityMode::Exhaustive, ActivityMode::Scheduled];

/// Cycle budget for a run; a machine still busy past it is wedged.
const BUDGET: u64 = 1_000_000;

fn config() -> CoprocConfig {
    CoprocConfig {
        rx_frames_per_cycle: 8,
        rx_fifo_depth: 64,
        trace_depth: 4096,
        ..CoprocConfig::default()
    }
}

fn machine(latency: u32) -> Coprocessor {
    Coprocessor::new(config(), vec![Box::new(LatencyFu::new("u", 1, latency))]).unwrap()
}

fn frames_of(msgs: &[HostMsg]) -> VecDeque<u32> {
    msgs.iter().flat_map(|m| m.to_frames(32)).collect()
}

/// One host turn: push what the receive FIFO accepts, then jump the
/// quiet span ahead (never past cycle `horizon`), or step one cycle when
/// there is none. Pending frames are the host's only events.
fn advance(coproc: &mut Coprocessor, frames: &mut VecDeque<u32>, horizon: u64) {
    while let Some(&f) = frames.front() {
        if coproc.push_frame(f) {
            frames.pop_front();
        } else {
            break;
        }
    }
    let now = coproc.cycle();
    let pending = !frames.is_empty();
    if coproc.skip_to_next_event(horizon - now, || pending.then_some(now)) == 0 {
        coproc.step();
    }
}

/// Drive `msgs` through the machine in `mode` until it drains, reading
/// every response.
fn run(coproc: &mut Coprocessor, msgs: &[HostMsg], mode: ActivityMode) -> Vec<DevMsg> {
    coproc.set_activity_mode(mode);
    let mut frames = frames_of(msgs);
    let mut deframer = DevDeframer::new(32);
    let mut out = Vec::new();
    while !(frames.is_empty() && coproc.is_idle()) {
        assert!(coproc.cycle() < BUDGET, "machine wedged");
        advance(coproc, &mut frames, BUDGET);
        while let Some(f) = coproc.pop_frame() {
            if let Some(m) = deframer.push(f).unwrap() {
                out.push(m);
            }
        }
    }
    out
}

/// The dispatcher's trace events: its stalls, lock acquisitions and
/// dispatches.
fn dispatcher_events(m: &Coprocessor) -> Vec<TraceEvent> {
    m.trace()
        .events()
        .filter(|e| match e.kind {
            TraceEventKind::StageStall { stage, .. } => stage == "dispatcher",
            TraceEventKind::FuBusy { .. }
            | TraceEventKind::LockAcquire { .. }
            | TraceEventKind::FuDispatch { .. } => true,
            _ => false,
        })
        .copied()
        .collect()
}

/// The two modes' machines reached the same cycle with the same
/// statistics and the same traced dispatcher events.
fn assert_modes_agree([exhaustive, scheduled]: &[Coprocessor; 2]) {
    assert_eq!(exhaustive.cycle(), scheduled.cycle(), "final cycle");
    assert_eq!(exhaustive.stats(), scheduled.stats(), "CoprocStats");
    assert_eq!(
        dispatcher_events(exhaustive),
        dispatcher_events(scheduled),
        "traced dispatcher events"
    );
    assert!(
        !dispatcher_events(scheduled).is_empty(),
        "the trace must record the dispatcher"
    );
}

/// Run `msgs` on a fresh machine from `build` in each mode and check
/// the runs agree. Returns both machines, exhaustive first, so a test
/// can check its bounds in each.
fn run_both(build: impl Fn() -> Coprocessor, msgs: &[HostMsg]) -> [Coprocessor; 2] {
    let [(a, out_a), (b, out_b)] = MODES.map(|mode| {
        let mut m = build();
        let out = run(&mut m, msgs, mode);
        (m, out)
    });
    assert_eq!(out_a, out_b, "responses");
    let machines = [a, b];
    assert_modes_agree(&machines);
    machines
}

/// The scheduled run crossed part of the stall in a skipped span, so the
/// span's stall recording is what the agreement checks exercised.
fn assert_skipped([_, scheduled]: &[Coprocessor; 2]) {
    assert!(
        scheduled.sim_stats().cycles_skipped > 0,
        "the scheduled run must skip the stall"
    );
}

fn add(dst: u8, s1: u8, s2: u8, flag: u8) -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func: 1,
        variety: 0,
        dst_flag: flag,
        dst_reg: dst,
        aux_reg: 0,
        src1: s1,
        src2: s2,
        src3: 0,
    }))
}

fn write_r1() -> HostMsg {
    HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(1, 32),
    }
}

#[test]
fn raw_hazard_attributed_to_lock_stalls() {
    let machines = run_both(
        || machine(20),
        &[
            write_r1(),
            add(2, 1, 1, 1), // 20-cycle producer of r2
            add(3, 2, 2, 2), // consumer: must wait on r2's lock
        ],
    );
    assert_skipped(&machines);
    for m in &machines {
        let s = m.stats();
        assert!(
            s.dispatch.stall_lock >= 15,
            "the consumer should stall ~20 cycles on the lock, saw {}",
            s.dispatch.stall_lock
        );
        assert_eq!(m.peek_reg(3).as_u64(), 4);
    }
}

#[test]
fn busy_unit_attributed_to_fu_stalls() {
    // Two *independent* instructions to one single-occupancy unit: the
    // second stalls on the unit, not on any lock.
    let machines = run_both(
        || machine(20),
        &[
            write_r1(),
            add(2, 1, 1, 1),
            add(3, 1, 1, 2), // independent registers and flags
        ],
    );
    assert_skipped(&machines);
    for m in &machines {
        let s = m.stats();
        assert!(
            s.dispatch.stall_fu_busy >= 15,
            "expected unit-busy stalls, saw {}",
            s.dispatch.stall_fu_busy
        );
        assert!(
            s.dispatch.stall_lock <= 2,
            "independent instructions may only catch the brief RAW window \
             behind the host's register write, saw {}",
            s.dispatch.stall_lock
        );
    }
}

#[test]
fn waw_on_flags_attributed_to_lock_stalls() {
    // Same destination *flag* register with independent data registers:
    // the flag-file WAW interlock is the only dependency.
    let machines = run_both(
        || machine(20),
        &[
            write_r1(),
            add(2, 1, 1, 1),
            add(3, 1, 1, 1), // same f1
        ],
    );
    assert_skipped(&machines);
    for m in &machines {
        let s = m.stats();
        assert!(s.dispatch.stall_lock + s.dispatch.stall_fu_busy >= 15);
        assert!(
            s.dispatch.stall_lock > 0,
            "the flag WAW must contribute lock stalls"
        );
    }
}

#[test]
fn fence_attributed_to_fence_stalls() {
    let machines = run_both(
        || machine(25),
        &[
            write_r1(),
            add(2, 1, 1, 1),
            HostMsg::Instr(MgmtOp::Fence.encode()),
        ],
    );
    assert_skipped(&machines);
    for m in &machines {
        let s = m.stats();
        assert!(
            s.dispatch.stall_fence >= 20,
            "the fence should wait out the unit, saw {}",
            s.dispatch.stall_fence
        );
    }
}

#[test]
fn sync_behind_busy_unit_attributed_to_fence_stalls() {
    // SYNC checks exec room before quiescence, FENCE does not; with the
    // execution stage free, both wait out the unit as fence stalls.
    let machines = run_both(
        || machine(25),
        &[write_r1(), add(2, 1, 1, 1), HostMsg::Sync { tag: 3 }],
    );
    assert_skipped(&machines);
    for m in &machines {
        let s = m.stats();
        assert!(
            s.dispatch.stall_fence >= 20,
            "the sync should wait out the unit, saw {}",
            s.dispatch.stall_fence
        );
        assert_eq!(s.dispatch.stall_exec_full, 0);
        assert_eq!(s.dispatch.responses, 1, "one SyncAck");
    }
}

#[test]
fn sync_checks_exec_room_before_quiescence_fence_does_not() {
    // Behind a busy unit, four reads fill the response path of a
    // never-drained depth-1 tx FIFO, so the next head sees both a full
    // execution stage and a machine that is not quiescent.
    let clogged_head = |head: HostMsg| {
        let mut msgs = vec![write_r1(), add(2, 1, 1, 1)];
        msgs.extend((0..4u16).map(|t| HostMsg::ReadReg { reg: 0, tag: t }));
        msgs.push(head);
        let machines = MODES.map(|mode| {
            let mut m = Coprocessor::new(
                CoprocConfig {
                    tx_fifo_depth: 1,
                    ..config()
                },
                vec![Box::new(LatencyFu::new("u", 1, 40))],
            )
            .unwrap();
            m.set_activity_mode(mode);
            let mut frames = frames_of(&msgs);
            while m.cycle() < 35 {
                advance(&mut m, &mut frames, 35);
            }
            m
        });
        assert_modes_agree(&machines);
        machines.map(|m| m.stats().dispatch)
    };
    for s in clogged_head(HostMsg::Instr(MgmtOp::Fence.encode())) {
        assert_eq!(s.responses, 4, "the reads must fill the response path");
        assert!(s.stall_fence >= 20, "FENCE waits on the unit: {s:?}");
        assert_eq!(s.stall_exec_full, 0, "FENCE needs no exec room: {s:?}");
    }
    for s in clogged_head(HostMsg::Sync { tag: 9 }) {
        assert_eq!(s.responses, 4, "the reads must fill the response path");
        assert!(s.stall_exec_full >= 20, "SYNC waits on exec room: {s:?}");
        assert_eq!(s.stall_fence, 0, "exec room is checked first: {s:?}");
    }
}

#[test]
fn exec_backpressure_attributed_to_exec_stalls() {
    // A tx FIFO of depth 1 that is never drained clogs serialiser →
    // encoder → execution; subsequent responses stall at the dispatcher
    // with the exec-full cause.
    let build = || {
        Coprocessor::new(
            CoprocConfig {
                tx_fifo_depth: 1,
                ..config()
            },
            vec![],
        )
        .unwrap()
    };
    let msgs: Vec<HostMsg> = (0..6u16)
        .map(|t| HostMsg::ReadReg { reg: 0, tag: t })
        .collect();
    let clogged = MODES.map(|mode| {
        let mut m = build();
        m.set_activity_mode(mode);
        let mut frames = frames_of(&msgs);
        // Never pop tx frames; just run a while.
        while m.cycle() < 200 {
            advance(&mut m, &mut frames, 200);
        }
        m
    });
    assert_modes_agree(&clogged);
    let drained = clogged.map(|mut m| {
        let s = m.stats();
        assert!(
            s.dispatch.stall_exec_full > 50,
            "undrained responses must back-pressure the dispatcher, saw {}",
            s.dispatch.stall_exec_full
        );
        // Nothing was lost: drain now and count the responses.
        let mode = m.activity_mode();
        assert_eq!(run(&mut m, &[], mode).len(), 6);
        m
    });
    assert_modes_agree(&drained);
}

#[test]
fn counters_are_disjoint_on_a_clean_run() {
    let machines = run_both(
        || machine(1),
        &[
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(7, 32),
            },
            add(2, 1, 1, 1),
            HostMsg::ReadReg { reg: 2, tag: 0 },
        ],
    );
    for m in &machines {
        let s = m.stats();
        assert_eq!(s.dispatch.user_dispatched, 1);
        assert_eq!(s.dispatch.stall_fu_busy, 0);
        assert_eq!(s.dispatch.stall_fence, 0);
        assert_eq!(s.decode_errors, 0);
    }
}
