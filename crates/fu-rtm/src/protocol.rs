//! The functional-unit protocol: the fixed contract between the framework
//! and user-designed hardware.
//!
//! "Each functional unit is designed to interact with the central interface
//! using a standard signal protocol, which is defined by the framework."
//! The signals of the minimal-unit schematic (Figure 5) map to this trait
//! as follows:
//!
//! | VHDL signal            | Rust equivalent                                |
//! |------------------------|------------------------------------------------|
//! | `dispatch` + operand buses | [`FunctionalUnit::dispatch`] with a [`DispatchPacket`] |
//! | `idle` (towards dispatcher) | [`FunctionalUnit::can_dispatch`]          |
//! | `data_ready`, `data_output`, `data_output_reg` | [`FunctionalUnit::peek_output`] returning a [`FuOutput`] |
//! | `data_acknowledge` (from write arbiter) | [`FunctionalUnit::ack_output`] |
//! | `clock`                | [`rtl_sim::Clocked::commit`]                   |
//! | `reset`                | [`rtl_sim::Clocked::reset`]                    |
//!
//! A unit is free in its internal structure ("the designer has complete
//! freedom in the internal structure of a functional unit") — the three
//! published skeletons live in the `fu-units` crate.

use fu_isa::{Flags, RegNum, Word};
use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

/// What the instruction's *aux register* field means for a given unit
/// (see `fu_isa::instr` for the field layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxRole {
    /// The unit ignores the field.
    Unused,
    /// The field names the *source flag register*; the dispatcher reads it
    /// and forwards the flags in [`DispatchPacket::flags_in`] (ADC/SBB/
    /// CMPB consume the carry this way).
    FlagSource,
    /// The field names a *second destination register* ("up to two results
    /// may be loaded into the register file") — e.g. the widening
    /// multiplier's high half.
    SecondDest,
}

/// Registers locked on behalf of one in-flight instruction.
///
/// The dispatcher acquires the ticket from the lock manager at dispatch
/// time; it travels with the instruction through the functional unit and
/// returns to the write arbiter in the [`FuOutput`], which releases it —
/// regardless of which results the unit actually produced (a compare
/// writes no data register but still unlocks its destinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockTicket {
    /// Locked main registers (destination #1, destination #2).
    pub data: [Option<RegNum>; 2],
    /// Locked flag register (destination flag register).
    pub flag: Option<RegNum>,
}

impl LockTicket {
    /// Ticket locking one data register and one flag register.
    pub fn new(data: Option<RegNum>, data2: Option<RegNum>, flag: Option<RegNum>) -> LockTicket {
        LockTicket {
            data: [data, data2],
            flag,
        }
    }

    /// True when the ticket locks nothing.
    pub fn is_empty(&self) -> bool {
        self.data.iter().all(Option::is_none) && self.flag.is_none()
    }
}

/// Operands and control forwarded to a unit by the dispatcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchPacket {
    /// The 8-bit variety code from the instruction word.
    pub variety: u8,
    /// Up to three operand values read from the register file ("the RTM
    /// instructions may have up to three operands").
    pub ops: [Word; 3],
    /// Input flag vector (from the source flag register when the unit's
    /// [`AuxRole`] is `FlagSource`, otherwise all clear).
    pub flags_in: Flags,
    /// Destination register for the (first) data result.
    pub dst_reg: RegNum,
    /// Destination register for the second data result, when the unit
    /// produces one.
    pub dst2_reg: Option<RegNum>,
    /// Destination flag register.
    pub dst_flag: RegNum,
    /// The raw `src3` field of the instruction word, forwarded as an
    /// 8-bit immediate for units that use it that way (e.g. shift
    /// amounts) instead of as a register number.
    pub imm8: u8,
    /// Locks held for this instruction (returned via [`FuOutput`]).
    pub ticket: LockTicket,
    /// Dispatch sequence number (diagnostics and ordering checks).
    pub seq: u64,
}

/// A completed instruction, pending acknowledgement by the write arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuOutput {
    /// Data result for the first destination register, if produced
    /// (compare varieties produce none).
    pub data: Option<(RegNum, Word)>,
    /// Second data result, if produced.
    pub data2: Option<(RegNum, Word)>,
    /// Output flag vector for the destination flag register, if produced.
    pub flags: Option<(RegNum, Flags)>,
    /// The locks to release on acknowledgement.
    pub ticket: LockTicket,
    /// Sequence number copied from the dispatch packet.
    pub seq: u64,
}

/// A soft-error event latched by a redundancy wrapper, polled by the
/// coprocessor after the write arbiter retires the affected instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftEvent {
    /// A majority vote repaired a replica disagreement (TMR): the retired
    /// output is correct, no architectural damage.
    Corrected,
    /// Dual replicas disagreed (DMR): the error is detected but the
    /// retired output may be corrupt. The coprocessor reports an in-band
    /// `SoftError` so the host can roll back.
    Detected,
}

/// The framework-side view of a functional unit.
///
/// Call discipline within one evaluate phase (the coprocessor evaluates
/// sink-to-source):
///
/// 1. the write arbiter calls [`FunctionalUnit::peek_output`] /
///    [`FunctionalUnit::ack_output`];
/// 2. the dispatcher calls [`FunctionalUnit::can_dispatch`] /
///    [`FunctionalUnit::dispatch`];
/// 3. at the clock edge, `commit` advances the unit's internal pipeline.
///
/// Because acknowledgements are evaluated *before* dispatches, a unit may
/// combinationally forward the acknowledgement into its `can_dispatch`
/// ("this combinational forward mechanism … allows the functional unit to
/// theoretically accept a new instruction every clock cycle"), at the cost
/// of a longer combinational path — exactly the trade-off the thesis
/// describes.
///
/// Units must be [`Send`]: a coprocessor (and the `System` wrapping it) is
/// owned by exactly one simulation thread at a time, and the farm moves
/// whole shards onto worker threads. Units are plain state machines, so
/// this costs nothing; it only forbids `Rc`/raw-pointer internals.
pub trait FunctionalUnit: Clocked + Send {
    /// Display name for traces and reports.
    fn name(&self) -> &'static str;

    /// The function code this unit answers to (entry in the functional
    /// unit table).
    fn func_code(&self) -> u8;

    /// How this unit interprets the instruction's aux field.
    fn aux_role(&self) -> AuxRole {
        AuxRole::Unused
    }

    /// `idle` towards the dispatcher: can the unit accept a dispatch this
    /// cycle?
    fn can_dispatch(&self) -> bool;

    /// Deliver one instruction.
    ///
    /// # Panics
    /// Implementations panic when `can_dispatch` is false; dispatching to
    /// a busy unit is a framework bug.
    fn dispatch(&mut self, pkt: DispatchPacket);

    /// Completed output pending acknowledgement, if any (`data_ready`).
    fn peek_output(&self) -> Option<&FuOutput>;

    /// Acknowledge and remove the pending output (`data_acknowledge`).
    ///
    /// # Panics
    /// Implementations panic when no output is pending.
    fn ack_output(&mut self) -> FuOutput;

    /// True when the unit holds no work at all (used by FENCE/SYNC and by
    /// drain checks).
    fn is_idle(&self) -> bool;

    // ----- activity-aware scheduling --------------------------------
    // The coprocessor's scheduled mode clocks only busy units and skips
    // whole quiet spans. Units whose state evolves even while idle (e.g. a
    // free-running clock-domain divider phase) opt out of the
    // optimisation via these two hooks.

    /// True when the unit's `commit` must run every cycle even while the
    /// unit is idle. The default (`false`) is correct for any unit whose
    /// idle `commit` is a no-op on observable state.
    fn needs_clock_when_idle(&self) -> bool {
        false
    }

    /// Account for `cycles` fast-forwarded cycles during which the unit
    /// was idle. Must be observably equivalent to calling `commit` that
    /// many times while idle. Called only on units that
    /// [`FunctionalUnit::needs_clock_when_idle`], so a unit overrides both
    /// hooks or neither; the default no-op is correct exactly when an idle
    /// `commit` changes nothing.
    fn advance_idle(&mut self, _cycles: u64) {}

    // ----- quiet-span scheduling ------------------------------------
    // The scheduled kernel (`ActivityMode::Scheduled`) skips whole
    // spans while units are *busy*, not just idle — a unit burning a
    // fixed latency is the canonical case. The contract is phrased in
    // terms of the interface the pipeline observes.

    /// A lower bound on the unit's next observable change, in cycles.
    ///
    /// `Some(h)` promises that for the next `h` commits the unit's
    /// *observable interface* is constant: `peek_output` stays `None`
    /// (no new output appears), `can_dispatch` keeps its current value,
    /// and `is_idle` keeps its current value. The scheduler may then
    /// replace up to `h` commits with one [`FunctionalUnit::advance_busy`]
    /// call. `None` means the unit cannot bound its next change and must
    /// be clocked every cycle (always safe).
    ///
    /// Only queried while the unit is active with no pending output; an
    /// output already waiting for the write arbiter pins the scheduler to
    /// per-cycle stepping regardless of the hint.
    fn wake_hint(&self) -> Option<u64> {
        None
    }

    /// Advance the unit's internal state by `cycles` commits at once.
    ///
    /// Must be bit-identical to calling `commit` `cycles` times. The
    /// scheduler only calls this with `cycles` no larger than the last
    /// [`FunctionalUnit::wake_hint`]. The default literally runs the
    /// commits; units with cheap closed-form state (a latency counter, a
    /// divider phase) override it to make long skips O(1).
    fn advance_busy(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.commit();
        }
    }

    // ----- decode lookup tables -------------------------------------
    // "Lookup tables are implicitly synthesised into Decoder" (Fig. 4):
    // per-variety facts the dispatcher needs to form lock tickets and
    // operand reads. Defaults describe a unit that always reads two
    // operands and writes one data result plus flags.

    /// Does this variety produce a data result? (CMP/CMPB do not.)
    fn variety_writes_data(&self, _variety: u8) -> bool {
        true
    }

    /// Does this variety produce an output flag vector?
    fn variety_writes_flags(&self, _variety: u8) -> bool {
        true
    }

    /// Does this variety consume the source flag register? Only
    /// meaningful when [`FunctionalUnit::aux_role`] is
    /// [`AuxRole::FlagSource`].
    fn variety_reads_flags(&self, _variety: u8) -> bool {
        matches!(self.aux_role(), AuxRole::FlagSource)
    }

    /// Which of the three source-register fields this variety actually
    /// reads (unread fields must not create false RAW dependencies).
    fn variety_reads_srcs(&self, _variety: u8) -> [bool; 3] {
        [true, true, false]
    }

    // ----- soft-error resilience ------------------------------------
    // The SEU model strikes functional-unit result latches, redundancy
    // wrappers replicate whole units, and checkpointing clones the
    // architectural state. All three hooks default to "unsupported" so
    // existing units keep working unchanged.

    /// A deep copy of this unit, state included. `None` (the default)
    /// means the unit cannot be replicated: it is skipped by redundancy
    /// wrapping and makes the enclosing coprocessor non-checkpointable.
    fn clone_unit(&self) -> Option<Box<dyn FunctionalUnit>> {
        None
    }

    /// Flip bit `bit` of the unit's pending result latch, if it holds
    /// one. Returns `true` when a flip landed; `false` (the default)
    /// when the unit has no live result state to corrupt, letting the
    /// SEU model fall back to another target.
    fn seu_flip_result(&mut self, _bit: u8) -> bool {
        false
    }

    /// Drain the unit's latched soft-error event, if any. Only
    /// redundancy wrappers ever report one; the default is `None`.
    fn take_soft_event(&mut self) -> Option<SoftEvent> {
        None
    }

    /// Resource estimate for area reports.
    fn area(&self) -> AreaEstimate;

    /// Combinational depth estimate for clock-period reports.
    fn critical_path(&self) -> CriticalPath;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_emptiness() {
        assert!(LockTicket::default().is_empty());
        assert!(!LockTicket::new(Some(3), None, None).is_empty());
        assert!(!LockTicket::new(None, None, Some(0)).is_empty());
        assert!(!LockTicket::new(None, Some(1), None).is_empty());
    }

    #[test]
    fn ticket_layout() {
        let t = LockTicket::new(Some(1), Some(2), Some(3));
        assert_eq!(t.data, [Some(1), Some(2)]);
        assert_eq!(t.flag, Some(3));
    }
}
