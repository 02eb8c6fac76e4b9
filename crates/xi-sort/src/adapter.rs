//! The functional-unit adapter (thesis Figure 3.13/3.14).
//!
//! "The functional unit connected to the coprocessor components is
//! realised using a functional unit adapter component. This adapter module
//! connects the actual ξ-Sort core to the dispatcher and the write arbiter
//! … The idea behind the design is to separate the ξ-Sort controller logic
//! from the interface logic required by the framework. … the adapter
//! buffers the output of the ξ-Sort core since it may be required to wait
//! for the write arbiter to acknowledge output data written to the
//! register file. … Currently, the adapter uses 32-bit data records and
//! transcodes data as needed."
//!
//! [`XiSortAdapter`] implements [`fu_rtm::FunctionalUnit`]: the variety
//! code selects the [`XiOp`], `src1` carries the operand (data word or
//! index k), and the result — when the operation produces one — lands in
//! the destination register, transcoded from the core's 32-bit records to
//! the framework's word size. Load overflow raises the error flag
//! ("if this flag is set, the contents of the destination registers are
//! undefined by specification").
//!
//! While an operation runs the unit is locked and nothing outside the
//! core can see its cells, so its result and its length are both fixed
//! at dispatch. The adapter therefore runs the whole microprogram in the
//! dispatch cycle and then counts down the operation's cycles before the
//! result appears at its interface, exactly when a per-cycle run would
//! have produced it; [`FunctionalUnit::wake_hint`] reports the whole
//! remaining countdown. [`XiSortAdapter::core`] (its cells and counters)
//! thus shows the post-operation state from the dispatch cycle on.

use crate::controller::{XiConfig, XiOp, XiSortCore};
use fu_isa::{funit_codes, Flags, Word};
use fu_rtm::protocol::{AuxRole, DispatchPacket, FuOutput, FunctionalUnit};
use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

/// Adapter FSM states (Figure 3.14 simplified to its observable shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdapterState {
    /// Ready for a dispatch.
    Idle,
    /// Operation running: its result appears after this many more
    /// commits (`None`: the program overran its cycle bound and never
    /// completes).
    Busy(Option<u64>),
    /// Result buffered, waiting for the write arbiter.
    Output,
}

/// The χ-sort functional unit.
#[derive(Debug, Clone)]
pub struct XiSortAdapter {
    core: XiSortCore,
    word_bits: u32,
    state: AdapterState,
    pending: Option<DispatchPacket>,
    out: Option<FuOutput>,
}

impl XiSortAdapter {
    /// Wrap a core for a framework with `word_bits`-wide registers.
    pub fn new(cfg: XiConfig, word_bits: u32) -> XiSortAdapter {
        XiSortAdapter {
            core: XiSortCore::new(cfg),
            word_bits,
            state: AdapterState::Idle,
            pending: None,
            out: None,
        }
    }

    /// The wrapped core (diagnostics, experiment measurements). Its
    /// cells and counters show the post-operation state from the cycle
    /// an operation is dispatched, not only once its result appears.
    pub fn core(&self) -> &XiSortCore {
        &self.core
    }

    fn finish(&mut self) {
        let pkt = self.pending.take().expect("packet held while busy");
        let op = XiOp::from_variety(pkt.variety).expect("validated at dispatch");
        let result = self.core.take_result();
        let error = self.core.overflow();
        let data = if op.returns_data() {
            // Transcode the core's 32-bit record to the register word.
            result.map(|v| (pkt.dst_reg, Word::from_u64(v as u64, self.word_bits)))
        } else {
            None
        };
        let mut flags = Flags::from_parts(false, result == Some(0), false, false);
        flags.set(Flags::ERROR, error);
        self.out = Some(FuOutput {
            data,
            data2: None,
            flags: Some((pkt.dst_flag, flags)),
            ticket: pkt.ticket,
            seq: pkt.seq,
        });
        self.state = AdapterState::Output;
    }
}

impl Clocked for XiSortAdapter {
    fn commit(&mut self) {
        self.advance_busy(1);
    }

    fn reset(&mut self) {
        self.core = XiSortCore::new(*self.core.config());
        self.state = AdapterState::Idle;
        self.pending = None;
        self.out = None;
    }
}

impl FunctionalUnit for XiSortAdapter {
    fn name(&self) -> &'static str {
        "xi-sort"
    }

    fn func_code(&self) -> u8 {
        funit_codes::XI_SORT
    }

    fn aux_role(&self) -> AuxRole {
        AuxRole::Unused
    }

    fn can_dispatch(&self) -> bool {
        self.state == AdapterState::Idle
    }

    fn dispatch(&mut self, pkt: DispatchPacket) {
        assert!(self.can_dispatch(), "dispatch to busy χ-sort adapter");
        let Some(op) = XiOp::from_variety(pkt.variety) else {
            // Unknown variety: complete immediately with the error flag.
            let mut flags = Flags::NONE;
            flags.set(Flags::ERROR, true);
            self.out = Some(FuOutput {
                data: None,
                data2: None,
                flags: Some((pkt.dst_flag, flags)),
                ticket: pkt.ticket,
                seq: pkt.seq,
            });
            self.state = AdapterState::Output;
            return;
        };
        // Transcode the operand down to the core's 32-bit records.
        let operand = pkt.ops[0].resize(32).as_u64() as u32;
        self.core.dispatch(op, operand);
        // Run the microprogram to its Halt now; the countdown replays its
        // length (Reset and Push take one cycle and run no program). A
        // program past the core's bound never halts: it stays busy with
        // no finite wake, so a watchdog quarantines it in band.
        self.core.step_n(self.core.cycle_bound());
        let left = (!self.core.is_running()).then(|| self.core.op_cycles().max(1));
        self.pending = Some(pkt);
        self.state = AdapterState::Busy(left);
    }

    fn peek_output(&self) -> Option<&FuOutput> {
        self.out.as_ref()
    }

    fn ack_output(&mut self) -> FuOutput {
        let out = self.out.take().expect("ack with no pending output");
        self.state = AdapterState::Idle;
        out
    }

    fn is_idle(&self) -> bool {
        self.state == AdapterState::Idle && self.out.is_none()
    }

    fn wake_hint(&self) -> Option<u64> {
        match self.state {
            AdapterState::Busy(left) => Some(left.unwrap_or(u64::MAX)),
            _ => None,
        }
    }

    fn advance_busy(&mut self, cycles: u64) {
        match self.state {
            AdapterState::Busy(Some(left)) if cycles >= left => self.finish(),
            AdapterState::Busy(Some(left)) => self.state = AdapterState::Busy(Some(left - cycles)),
            _ => {}
        }
    }

    fn variety_writes_data(&self, variety: u8) -> bool {
        XiOp::from_variety(variety).is_some_and(|op| op.returns_data())
    }

    fn variety_reads_srcs(&self, _variety: u8) -> [bool; 3] {
        [true, false, false]
    }

    fn clone_unit(&self) -> Option<Box<dyn FunctionalUnit>> {
        Some(Box::new(self.clone()))
    }

    fn area(&self) -> AreaEstimate {
        self.core.area()
            + AreaEstimate::register(self.word_bits as u64 + 8 + 2)
            + AreaEstimate {
                les: 24,
                ffs: 2,
                bram_bits: 0,
            }
    }

    fn critical_path(&self) -> CriticalPath {
        self.core.critical_path().max(CriticalPath::of(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fu_rtm::protocol::LockTicket;

    fn pkt(op: XiOp, operand: u32) -> DispatchPacket {
        DispatchPacket {
            variety: op.variety(),
            ops: [
                Word::from_u64(operand as u64, 32),
                Word::zero(32),
                Word::zero(32),
            ],
            flags_in: Flags::NONE,
            dst_reg: 1,
            dst2_reg: None,
            dst_flag: 0,
            imm8: 0,
            ticket: LockTicket::new(Some(1), None, Some(0)),
            seq: 0,
        }
    }

    fn run_op(fu: &mut XiSortAdapter, op: XiOp, operand: u32) -> (Option<u64>, Flags) {
        assert!(fu.can_dispatch(), "adapter busy before {op:?}");
        fu.dispatch(pkt(op, operand));
        let mut budget = 5_000_000;
        while fu.peek_output().is_none() {
            fu.commit();
            budget -= 1;
            assert!(budget > 0, "{op:?} never completed");
        }
        let out = fu.ack_output();
        (out.data.map(|(_, v)| v.as_u64()), out.flags.unwrap().1)
    }

    #[test]
    fn sort_through_the_adapter() {
        let mut fu = XiSortAdapter::new(XiConfig::new(8), 32);
        run_op(&mut fu, XiOp::Reset, 0);
        for v in [50u32, 20, 40, 10, 30] {
            run_op(&mut fu, XiOp::Push, v);
        }
        run_op(&mut fu, XiOp::InitBounds, 0);
        run_op(&mut fu, XiOp::Sort, 0);
        let sorted: Vec<u64> = (0..5)
            .map(|k| run_op(&mut fu, XiOp::ReadAt, k).0.unwrap())
            .collect();
        assert_eq!(sorted, vec![10, 20, 30, 40, 50]);
        assert!(fu.is_idle());
    }

    #[test]
    fn selection_through_the_adapter() {
        let mut fu = XiSortAdapter::new(XiConfig::new(8), 64);
        run_op(&mut fu, XiOp::Reset, 0);
        for v in [9u32, 1, 8, 2, 7, 3] {
            run_op(&mut fu, XiOp::Push, v);
        }
        run_op(&mut fu, XiOp::InitBounds, 0);
        let (median, flags) = run_op(&mut fu, XiOp::SelectK, 2);
        assert_eq!(median, Some(3));
        assert!(!flags.error());
    }

    #[test]
    fn overflow_raises_error_flag() {
        let mut fu = XiSortAdapter::new(XiConfig::new(2), 32);
        run_op(&mut fu, XiOp::Push, 1);
        run_op(&mut fu, XiOp::Push, 2);
        let (_, f) = run_op(&mut fu, XiOp::Push, 3);
        assert!(f.error(), "third push into a 2-cell array must error");
    }

    #[test]
    fn unknown_variety_errors_immediately() {
        let mut fu = XiSortAdapter::new(XiConfig::new(2), 32);
        let mut p = pkt(XiOp::Reset, 0);
        p.variety = 0x7f;
        fu.dispatch(p);
        let out = fu.ack_output();
        assert!(out.flags.unwrap().1.error());
        assert!(out.data.is_none());
    }

    #[test]
    fn busy_while_program_runs() {
        let mut fu = XiSortAdapter::new(XiConfig::new(8), 32);
        run_op(&mut fu, XiOp::Reset, 0);
        for v in [3u32, 1, 2] {
            run_op(&mut fu, XiOp::Push, v);
        }
        run_op(&mut fu, XiOp::InitBounds, 0);
        fu.dispatch(pkt(XiOp::Sort, 0));
        assert!(!fu.can_dispatch());
        assert!(!fu.is_idle());
        fu.commit();
        assert!(!fu.can_dispatch(), "still busy after one cycle");
    }

    #[test]
    fn push_reports_no_data_write() {
        let fu = XiSortAdapter::new(XiConfig::new(2), 32);
        assert!(!fu.variety_writes_data(XiOp::Push.variety()));
        assert!(!fu.variety_writes_data(XiOp::Reset.variety()));
        assert!(fu.variety_writes_data(XiOp::Sort.variety()));
        assert!(fu.variety_writes_data(XiOp::ReadAt.variety()));
    }

    /// Per-cycle reference: dispatch `op` to a bare core and clock it
    /// with [`XiSortCore::step`] once per commit. Returns the commit on
    /// which the result becomes available and the output the adapter
    /// must present then.
    fn per_cycle(core: &mut XiSortCore, op: XiOp, operand: u32) -> (u64, FuOutput) {
        core.dispatch(op, operand);
        let mut commits = 1;
        core.step();
        while core.is_running() {
            core.step();
            commits += 1;
        }
        let result = core.take_result();
        let mut flags = Flags::from_parts(false, result == Some(0), false, false);
        flags.set(Flags::ERROR, core.overflow());
        let p = pkt(op, operand);
        let data = result
            .filter(|_| op.returns_data())
            .map(|v| (p.dst_reg, Word::from_u64(v as u64, 32)));
        let out = FuOutput {
            data,
            data2: None,
            flags: Some((p.dst_flag, flags)),
            ticket: p.ticket,
            seq: p.seq,
        };
        (commits, out)
    }

    #[test]
    fn wake_hint_and_advance_busy_match_commits() {
        // Every operation runs whole at dispatch; its hint, a bulk
        // advance and plain commits must all complete on the cycle the
        // per-cycle core reaches Halt, with the same output and the same
        // operation cycle count. Covers the one-cycle operations (Reset,
        // Push, InitBounds on an empty array, an overflowing Push), every
        // program, and both tree configurations.
        for registered in [false, true] {
            let cfg = XiConfig::new(4).with_registered_tree(registered);
            let mut reference = XiSortCore::new(cfg);
            let (mut hinted, mut clocked) =
                (XiSortAdapter::new(cfg, 32), XiSortAdapter::new(cfg, 32));
            let script = [
                (XiOp::Reset, 0),
                (XiOp::InitBounds, 0),
                (XiOp::Push, 7),
                (XiOp::Push, 3),
                (XiOp::Push, 7),
                (XiOp::InitBounds, 0),
                (XiOp::CountImprecise, 0),
                (XiOp::SelectStep, 1),
                (XiOp::SortStep, 0),
                (XiOp::SelectK, 2),
                (XiOp::Sort, 0),
                (XiOp::ReadAt, 0),
                (XiOp::ReadAt, 2),
                (XiOp::CountImprecise, 0),
                (XiOp::Push, 1),
                (XiOp::Push, 9),
                (XiOp::InitBounds, 0),
                (XiOp::Sort, 0),
                (XiOp::Reset, 0),
            ];
            for (op, operand) in script {
                let label = format!("{op:?}({operand}), registered {registered}");
                let (commits, want) = per_cycle(&mut reference, op, operand);
                hinted.dispatch(pkt(op, operand));
                assert_eq!(hinted.wake_hint(), Some(commits), "{label}: hint");
                hinted.advance_busy(commits - 1);
                assert!(hinted.peek_output().is_none(), "{label}: early output");
                hinted.advance_busy(1);
                clocked.dispatch(pkt(op, operand));
                for _ in 1..commits {
                    clocked.commit();
                    assert!(clocked.peek_output().is_none(), "{label}: early output");
                }
                clocked.commit();
                assert_eq!(hinted.ack_output(), want, "{label}: hinted output");
                assert_eq!(clocked.ack_output(), want, "{label}: clocked output");
                for fu in [&hinted, &clocked] {
                    assert_eq!(fu.core().op_cycles(), reference.op_cycles(), "{label}");
                    assert_eq!(fu.core().cells(), reference.cells(), "{label}: cells");
                }
            }
            // An unknown variety completes in the dispatch cycle itself.
            let mut p = pkt(XiOp::Reset, 0);
            p.variety = 0x7f;
            hinted.dispatch(p);
            assert_eq!(hinted.wake_hint(), None);
            let out = hinted.ack_output();
            assert!(out.flags.unwrap().1.error() && out.data.is_none());
        }
    }

    #[test]
    fn transcodes_wide_words() {
        // A 128-bit framework word is truncated to the 32-bit record on
        // the way in and zero-extended on the way out.
        let mut fu = XiSortAdapter::new(XiConfig::new(4), 128);
        run_op(&mut fu, XiOp::Reset, 0);
        run_op(&mut fu, XiOp::Push, 7);
        run_op(&mut fu, XiOp::Push, 5);
        run_op(&mut fu, XiOp::InitBounds, 0);
        run_op(&mut fu, XiOp::Sort, 0);
        let (v, _) = run_op(&mut fu, XiOp::ReadAt, 1);
        assert_eq!(v, Some(7));
    }
}
