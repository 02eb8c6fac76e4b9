//! A unit that demands a free-running clock (`needs_clock_when_idle`, as
//! the clock-domain wrapper does) must see every clock edge, including
//! the edges at which no unit is active and `Scheduled` would otherwise
//! leave the unit clock loop out. The probe unit answers each
//! instruction with the number of edges it has seen, so one missed edge
//! changes a result; the check is `Scheduled` ≡ `Exhaustive` on results,
//! cycles and the mode-independent `SimStats`.

use fu_isa::msg::DevDeframer;
use fu_isa::{DevMsg, Flags, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::protocol::{DispatchPacket, FuOutput, FunctionalUnit};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, Coprocessor};
use rtl_sim::{AreaEstimate, Clocked, CriticalPath, LatencyHistogram, SimStats};

/// Counts every clock edge; an instruction is answered one edge after
/// dispatch with the count at that edge.
#[derive(Debug, Clone, Default)]
struct EdgeCounter {
    edges: u64,
    busy: Option<DispatchPacket>,
    out: Option<FuOutput>,
}

impl Clocked for EdgeCounter {
    fn commit(&mut self) {
        self.edges += 1;
        if let Some(pkt) = self.busy.take() {
            self.out = Some(FuOutput {
                data: Some((pkt.dst_reg, Word::from_u64(self.edges, 32))),
                data2: None,
                flags: Some((pkt.dst_flag, Flags::NONE)),
                ticket: pkt.ticket,
                seq: pkt.seq,
            });
        }
    }

    fn reset(&mut self) {
        *self = EdgeCounter::default();
    }
}

impl FunctionalUnit for EdgeCounter {
    fn name(&self) -> &'static str {
        "edges"
    }

    fn func_code(&self) -> u8 {
        2
    }

    fn can_dispatch(&self) -> bool {
        self.busy.is_none() && self.out.is_none()
    }

    fn dispatch(&mut self, pkt: DispatchPacket) {
        assert!(self.can_dispatch(), "dispatch to busy EdgeCounter");
        self.busy = Some(pkt);
    }

    fn peek_output(&self) -> Option<&FuOutput> {
        self.out.as_ref()
    }

    fn ack_output(&mut self) -> FuOutput {
        self.out.take().expect("ack with no pending output")
    }

    fn is_idle(&self) -> bool {
        self.busy.is_none() && self.out.is_none()
    }

    fn needs_clock_when_idle(&self) -> bool {
        true
    }

    fn advance_idle(&mut self, cycles: u64) {
        self.edges += cycles;
    }

    fn area(&self) -> AreaEstimate {
        AreaEstimate::register(64)
    }

    fn critical_path(&self) -> CriticalPath {
        CriticalPath::adder(64)
    }
}

fn instr(func: u8, dst: u8) -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func,
        variety: 0,
        dst_flag: 0,
        dst_reg: dst,
        aux_reg: 0,
        src1: 1,
        src2: 1,
        src3: 0,
    }))
}

/// Rounds of: an add on the ordinary unit, a quiet gap in which no unit
/// is active, then the edge count read back.
fn rounds() -> Vec<(Vec<HostMsg>, u64)> {
    [3u64, 40, 1, 250, 17]
        .iter()
        .enumerate()
        .map(|(k, &gap)| {
            let tag = k as u16;
            let msgs = vec![
                instr(1, 3),
                HostMsg::Sync { tag },
                instr(2, 4),
                HostMsg::ReadReg { reg: 4, tag },
            ];
            (msgs, gap)
        })
        .collect()
}

/// Drive every round through a fresh machine in `mode`, stepping every
/// cycle, or (with `skip`) jumping quiet spans with
/// `skip_to_next_event`. Returns the responses, the final cycle and the
/// scheduler statistics.
fn run(mode: ActivityMode, skip: bool) -> (Vec<DevMsg>, u64, SimStats) {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![
        Box::new(LatencyFu::new("add", 1, 4)),
        Box::new(EdgeCounter::default()),
    ];
    let mut m = Coprocessor::new(CoprocConfig::default(), units).unwrap();
    m.set_activity_mode(mode);
    let mut deframer = DevDeframer::new(32);
    let mut out = Vec::new();
    let mut collect = |m: &mut Coprocessor, out: &mut Vec<DevMsg>| {
        while let Some(f) = m.pop_frame() {
            if let Some(msg) = deframer.push(f).unwrap() {
                out.push(msg);
            }
        }
    };
    for (msgs, gap) in rounds() {
        let mut frames: Vec<u32> = msgs.iter().flat_map(|msg| msg.to_frames(32)).collect();
        frames.reverse();
        while !(frames.is_empty() && m.is_idle()) {
            assert!(m.cycle() < 100_000, "machine wedged");
            while let Some(&f) = frames.last() {
                if !m.push_frame(f) {
                    break;
                }
                frames.pop();
            }
            m.step();
            collect(&mut m, &mut out);
        }
        let until = m.cycle() + gap;
        while m.cycle() < until {
            if !skip || m.skip_to_next_event(until - m.cycle(), || None) == 0 {
                m.step();
            }
            collect(&mut m, &mut out);
        }
    }
    let cycle = m.cycle();
    (out, cycle, m.sim_stats())
}

/// Total simulated time, stage busy-ness and the latency histograms: the
/// `SimStats` that describe the machine, not the simulator's effort.
fn invariant(s: &SimStats) -> (u64, &Vec<(&'static str, u64)>, [&LatencyHistogram; 3]) {
    (
        s.cycles_simulated,
        &s.stage_busy,
        [
            &s.lat_issue_dispatch,
            &s.lat_dispatch_retire,
            &s.lat_issue_retire,
        ],
    )
}

#[test]
fn free_running_unit_sees_every_edge_while_nothing_else_is_active() {
    let (out, cycle, stats) = run(ActivityMode::Exhaustive, false);
    let counts: Vec<u64> = out
        .iter()
        .filter_map(|m| match m {
            DevMsg::Data { value, .. } => Some(value.as_u64()),
            _ => None,
        })
        .collect();
    assert_eq!(counts.len(), rounds().len(), "one edge count per round");
    assert!(
        counts.windows(2).all(|w| w[1] > w[0]),
        "edge counts must grow: {counts:?}"
    );
    for skip in [false, true] {
        let (s_out, s_cycle, s_stats) = run(ActivityMode::Scheduled, skip);
        assert_eq!(s_out, out, "responses (skip: {skip})");
        assert_eq!(s_cycle, cycle, "final cycle (skip: {skip})");
        assert_eq!(
            invariant(&s_stats),
            invariant(&stats),
            "SimStats (skip: {skip})"
        );
        if skip {
            assert!(s_stats.cycles_skipped > 0, "the quiet gaps must be skipped");
        }
    }
}
