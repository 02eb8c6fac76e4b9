//! The busy-cycle shortcut of the scheduled kernel. Each step notes
//! whether stage work remains, and while it does a scheduling decision
//! steps for `StepReason::Stage` without running the verdict. Every
//! decision must still be the one `Coprocessor::quiet_verdict` gives on a
//! copy of the machine, also right after a rollback to a checkpoint taken
//! mid-burst and after a reset of a busy machine.

mod util;

use std::collections::VecDeque;

use fu_host::{LinkModel, System};
use fu_isa::msg::DevDeframer;
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, Coprocessor, FunctionalUnit, QuietVerdict};
use rtl_sim::{SimStats, StallFuzzer, StepReason, StepReasons};
use util::invariant_slice;

/// Clone-capable units of three latencies, so bursts mix back-to-back
/// stage work with quiet spans the kernel skips.
fn checked_units() -> Vec<Box<dyn FunctionalUnit>> {
    vec![
        Box::new(LatencyFu::new("quick", 1, 1)),
        Box::new(LatencyFu::new("mid", 2, 4)),
        Box::new(LatencyFu::new("slow", 3, 40)),
    ]
}

/// `n` random host messages: register writes, instructions on the three
/// units, reads and syncs (tagged from `tag0` on).
fn random_burst(fz: &mut StallFuzzer, n: usize, tag0: u16) -> Vec<HostMsg> {
    let mut reg = || fz.below(8) as u8;
    let regs: Vec<u8> = (0..4 * n).map(|_| reg()).collect();
    (0..n)
        .map(|i| {
            let r = &regs[4 * i..4 * i + 4];
            let tag = tag0 + i as u16;
            match fz.below(8) {
                0 | 1 => HostMsg::WriteReg {
                    reg: r[0],
                    value: Word::from_u64(fz.below(1 << 32), 32),
                },
                2..=5 => HostMsg::Instr(InstrWord::user(UserInstr {
                    func: 1 + (r[1] % 3),
                    variety: 0,
                    dst_flag: 1 + r[2] % 3,
                    dst_reg: r[0],
                    aux_reg: 0,
                    src1: r[1],
                    src2: r[2],
                    src3: 0,
                })),
                6 => HostMsg::ReadReg { reg: r[3], tag },
                _ => HostMsg::Sync { tag },
            }
        })
        .collect()
}

/// Checks each decision a scheduled host takes against the verdict on a
/// copy of its machine taken just before it.
struct DecisionCheck {
    replica: Coprocessor,
    /// The verdict before the pending decision, with the stepped and
    /// skipped counts and step reasons it started from.
    pending: Option<(QuietVerdict, u64, u64, StepReasons)>,
    /// Decisions checked whose verdict was `Busy(Stage)` (the shortcut's
    /// case) and whose verdict was quiet.
    stage: u64,
    quiet: u64,
}

impl DecisionCheck {
    fn new() -> DecisionCheck {
        DecisionCheck {
            replica: Coprocessor::new(CoprocConfig::default(), checked_units()).unwrap(),
            pending: None,
            stage: 0,
            quiet: 0,
        }
    }

    /// Called before each potential decision on `c`: checks what the
    /// previous decision did, then, if `decides`, takes the verdict for
    /// the next one.
    fn observe(&mut self, c: &Coprocessor, decides: bool) {
        let s = c.sim_stats();
        if let Some((verdict, stepped, skipped, reasons)) = self.pending.take() {
            let (dstep, dskip) = (s.cycles_stepped - stepped, s.cycles_skipped - skipped);
            let mut want = reasons;
            match verdict {
                QuietVerdict::Busy(r) => {
                    assert_eq!((dstep, dskip), (1, 0), "a busy verdict steps once");
                    want.record(r);
                    self.stage += u64::from(r == StepReason::Stage);
                }
                QuietVerdict::Until(_) | QuietVerdict::Indefinite => {
                    self.quiet += 1;
                    if let QuietVerdict::Until(t) = verdict {
                        assert!(c.cycle() <= t, "skipped past the wake at {t}");
                    }
                    if dskip == 0 {
                        assert_eq!(dstep, 1);
                        want.record(StepReason::Host);
                    }
                }
            }
            assert_eq!(s.step_reasons, want, "decision differs from {verdict:?}");
        }
        if decides {
            self.replica
                .restore(&c.snapshot().expect("clone-capable units"));
            let verdict = self.replica.quiet_verdict();
            self.pending = Some((verdict, s.cycles_stepped, s.cycles_skipped, s.step_reasons));
        }
    }
}

/// `System::run_until(pred)` with every decision checked under
/// `Scheduled`.
fn drive(sys: &mut System, check: &mut DecisionCheck, pred: impl Fn(&System) -> bool) {
    let scheduled = sys.coproc().activity_mode() == ActivityMode::Scheduled;
    sys.run_until(1_000_000, |s| {
        let done = pred(s);
        if scheduled {
            check.observe(s.coproc(), !done);
        }
        done
    })
    .expect("session settles");
}

type Outcome = (Vec<DevMsg>, u64, SimStats);

/// Two random bursts over `link`, with a checkpoint taken once a third
/// of the first burst's replies are in, a rollback to it after the burst
/// drains (the replies taken since are suppressed on the replay), and
/// the second burst sent to the restored machine.
fn checked_session(link: LinkModel, reliable: bool, seed: u64, mode: ActivityMode) -> Outcome {
    let (cfg, units) = (CoprocConfig::default(), checked_units());
    let mut sys = if reliable {
        let t = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
        System::new_reliable(cfg, units, link, t, None).unwrap()
    } else {
        System::new(cfg, units, link).unwrap()
    };
    sys.set_activity_mode(mode);
    let mut check = DecisionCheck::new();
    let mut fz = StallFuzzer::new(seed, 0.0);
    let first = random_burst(&mut fz, 40, 0);
    let replies = first
        .iter()
        .filter(|m| matches!(m, HostMsg::ReadReg { .. } | HostMsg::Sync { .. }))
        .count();
    for m in &first {
        sys.send(m);
    }
    drive(&mut sys, &mut check, |s| {
        s.pending_responses() >= replies / 3
    });
    let snap = sys.checkpoint().expect("clone-capable units");
    assert!(!sys.is_idle(), "the checkpoint is taken mid-burst");
    let mut out: Vec<DevMsg> = std::iter::from_fn(|| sys.recv()).collect();
    drive(&mut sys, &mut check, System::is_idle);
    out.extend(std::iter::from_fn(|| sys.recv()));
    sys.restore(&snap);
    drive(&mut sys, &mut check, System::is_idle);
    assert_eq!(
        sys.pending_responses(),
        0,
        "replayed replies are suppressed"
    );
    for m in random_burst(&mut fz, 40, 1000) {
        sys.send(&m);
    }
    drive(&mut sys, &mut check, System::is_idle);
    out.extend(std::iter::from_fn(|| sys.recv()));
    if mode == ActivityMode::Scheduled {
        assert!(check.stage > 0 && check.quiet > 0, "both kinds of decision");
    }
    (out, sys.cycle(), sys.sim_stats())
}

/// A coprocessor driven directly by a host loop: a random burst is cut
/// off half way by a reset of the busy machine, one decision is taken on
/// the reset machine before any frame arrives, and a second burst runs
/// to completion.
fn reset_session(seed: u64, mode: ActivityMode) -> Outcome {
    let mut c = Coprocessor::new(CoprocConfig::default(), checked_units()).unwrap();
    c.set_activity_mode(mode);
    let scheduled = mode == ActivityMode::Scheduled;
    let mut check = DecisionCheck::new();
    let mut fz = StallFuzzer::new(seed, 0.0);
    let mut rx = DevDeframer::new(32);
    let mut out = Vec::new();
    for (burst, tag0) in [(30, 0), (30, 1000)] {
        let mut frames: VecDeque<u32> = random_burst(&mut fz, burst, tag0)
            .iter()
            .flat_map(|m| m.frames(32))
            .collect();
        let cut = (tag0 == 0).then_some(frames.len() / 2);
        let total = frames.len();
        loop {
            while let Some(&f) = frames.front() {
                if !c.push_frame(f) {
                    break;
                }
                frames.pop_front();
            }
            if cut.is_some_and(|n| total - frames.len() >= n) {
                assert!(!c.is_idle(), "the reset hits a busy machine");
                c.reset();
                check.pending = None; // the clock and counters restart
                if scheduled {
                    check.observe(&c, true);
                }
                if c.skip_to_next_event(1, || None) == 0 {
                    c.step();
                }
                break;
            }
            if frames.is_empty() && c.is_idle() {
                break;
            }
            if scheduled {
                check.observe(&c, true);
            }
            let now = c.cycle();
            let host = (!frames.is_empty()).then_some(now);
            if c.skip_to_next_event(1_000_000, || host) == 0 {
                c.step();
            }
            while let Some(f) = c.pop_frame() {
                out.extend(rx.push(f).expect("well-formed device frames"));
            }
        }
    }
    if scheduled {
        check.observe(&c, false);
        assert!(check.stage > 0 && check.quiet > 0, "both kinds of decision");
    }
    (out, c.cycle(), c.sim_stats())
}

fn assert_same_outcome(sched: &Outcome, exh: &Outcome, label: &str) {
    assert_eq!(sched.0, exh.0, "{label}: replies");
    assert_eq!(sched.1, exh.1, "{label}: final cycle");
    assert_eq!(
        invariant_slice(&sched.2),
        invariant_slice(&exh.2),
        "{label}: stage busy and latency histograms"
    );
}

#[test]
fn busy_cycle_shortcut_matches_the_verdict_on_bare_and_reliable_links() {
    for seed in 1..=4u64 {
        for link in [
            LinkModel::ideal(),
            LinkModel::pcie_like(),
            LinkModel::prototyping(),
        ] {
            for reliable in [false, true] {
                let label = format!("seed {seed} {} reliable {reliable}", link.name);
                let run = |mode| checked_session(link, reliable, seed, mode);
                let sched = run(ActivityMode::Scheduled);
                assert_same_outcome(&sched, &run(ActivityMode::Exhaustive), &label);
            }
        }
    }
}

#[test]
fn busy_cycle_shortcut_is_cleared_by_a_reset() {
    for seed in 1..=8u64 {
        let sched = reset_session(seed, ActivityMode::Scheduled);
        let exh = reset_session(seed, ActivityMode::Exhaustive);
        assert_same_outcome(&sched, &exh, &format!("seed {seed}"));
    }
}
