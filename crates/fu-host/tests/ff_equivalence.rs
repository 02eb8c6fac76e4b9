//! The skipping/activity-gating correctness contract: a system run in
//! the default [`ActivityMode::Scheduled`] mode (stage gating, quiet-span
//! skipping, batched stepping) must be **bit-identical** to the same
//! run in [`ActivityMode::Exhaustive`] mode — same simulated cycle
//! counts, same response stream, same frame accounting, same machine
//! statistics. The optimisation changes how fast wall-clock time passes,
//! never what the simulation computes.

use fu_host::{LinkModel, System};
use fu_isa::instr::{InstrWord, UserInstr};
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, CoprocStats, FunctionalUnit};
use fu_units::ClockDomainFu;
use proptest::prelude::*;

/// One host-side action in a generated workload.
#[derive(Debug, Clone)]
enum Step {
    Write(u8, u32),
    Read(u8),
    /// `Add(dst, src1, src2)` on the fast unit (func 1).
    Add(u8, u8, u8),
    /// Same operation on the clock-domain-wrapped unit (func 2).
    SlowAdd(u8, u8, u8),
    Sync,
}

impl Step {
    fn expects_response(&self) -> bool {
        matches!(self, Step::Read(_) | Step::Sync)
    }
}

fn add_instr(func: u8, dst: u8, s1: u8, s2: u8) -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func,
        variety: 0,
        dst_flag: 0,
        dst_reg: dst,
        aux_reg: 0,
        src1: s1,
        src2: s2,
        src3: 0,
    }))
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..8, any::<u32>()).prop_map(|(r, v)| Step::Write(r, v)),
            (0u8..8).prop_map(Step::Read),
            (0u8..8, 0u8..8, 0u8..8).prop_map(|(d, a, b)| Step::Add(d, a, b)),
            (0u8..8, 0u8..8, 0u8..8).prop_map(|(d, a, b)| Step::SlowAdd(d, a, b)),
            Just(Step::Sync),
        ],
        1..12,
    )
}

#[derive(Debug, PartialEq)]
struct Outcome {
    cycle: u64,
    responses: Vec<DevMsg>,
    frames: (u64, u64),
    stats: CoprocStats,
    skipped: u64,
}

/// Drive the burst schedule through a fresh system in `mode`. Bursts are
/// sent back-to-back and their responses collected before the next burst
/// starts, so slow links leave long idle stretches for the scheduler to
/// skip.
fn run(
    mode: ActivityMode,
    bursts: &[Vec<Step>],
    link: LinkModel,
    latency: u32,
    divider: u32,
) -> Outcome {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![
        Box::new(LatencyFu::new("add", 1, latency)),
        Box::new(ClockDomainFu::new(
            LatencyFu::new("slowadd", 2, latency),
            divider,
        )),
    ];
    let mut sys = System::new(CoprocConfig::default(), units, link).unwrap();
    sys.set_activity_mode(mode);
    let wb = sys.word_bits();
    let mut responses = Vec::new();
    let mut tag = 0u16;
    for burst in bursts {
        let expected = burst.iter().filter(|s| s.expects_response()).count();
        for step in burst {
            match *step {
                Step::Write(r, v) => sys.send(&HostMsg::WriteReg {
                    reg: r,
                    value: Word::from_u64(v as u64, wb),
                }),
                Step::Read(r) => {
                    sys.send(&HostMsg::ReadReg { reg: r, tag });
                    tag = tag.wrapping_add(1);
                }
                Step::Add(d, a, b) => sys.send(&add_instr(1, d, a, b)),
                Step::SlowAdd(d, a, b) => sys.send(&add_instr(2, d, a, b)),
                Step::Sync => {
                    sys.send(&HostMsg::Sync { tag });
                    tag = tag.wrapping_add(1);
                }
            }
        }
        for _ in 0..expected {
            responses.push(sys.recv_blocking(3_000_000).expect("response overdue"));
        }
    }
    sys.run_until(3_000_000, |s| s.is_idle()).expect("drain");
    let stats = sys.coproc().stats();
    let skipped = sys.sim_stats().cycles_skipped;
    Outcome {
        cycle: sys.cycle(),
        responses,
        frames: sys.frames_carried(),
        stats,
        skipped,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn gated_equals_exhaustive(
        bursts in proptest::collection::vec(steps(), 1..5),
        link_sel in 0usize..4,
        latency in 1u32..24,
        divider in 1u32..6,
    ) {
        let link = LinkModel::presets()[link_sel];
        let scheduled = run(ActivityMode::Scheduled, &bursts, link, latency, divider);
        let exhaustive = run(ActivityMode::Exhaustive, &bursts, link, latency, divider);
        prop_assert_eq!(scheduled.cycle, exhaustive.cycle, "simulated time diverged");
        prop_assert_eq!(&scheduled.responses, &exhaustive.responses, "response stream diverged");
        prop_assert_eq!(scheduled.frames, exhaustive.frames, "frame accounting diverged");
        prop_assert_eq!(scheduled.stats, exhaustive.stats, "machine statistics diverged");
        prop_assert_eq!(exhaustive.skipped, 0, "exhaustive mode must not skip cycles");
    }
}

/// The slow prototyping link must actually trigger skipping — otherwise
/// the equivalence above is vacuous.
#[test]
fn prototyping_link_fast_forwards() {
    let bursts = vec![vec![
        Step::Write(0, 7),
        Step::Write(1, 9),
        Step::Add(2, 0, 1),
        Step::Read(2),
        Step::Sync,
    ]];
    let out = run(
        ActivityMode::Scheduled,
        &bursts,
        LinkModel::prototyping(),
        4,
        2,
    );
    assert_eq!(
        out.responses,
        vec![
            DevMsg::Data {
                tag: 0,
                value: Word::from_u64(16, 32)
            },
            DevMsg::SyncAck { tag: 1 }
        ]
    );
    assert!(
        out.skipped > out.cycle / 2,
        "most of a slow-link run should be skipped: {} of {}",
        out.skipped,
        out.cycle
    );
}
