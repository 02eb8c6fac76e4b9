//! The dispatcher stage.
//!
//! "Reads from the register file take place in the dispatcher stage, and
//! instructions that initiate a functional unit operation transmit data to
//! the functional unit through a register in this stage."
//!
//! The dispatcher is where the framework's concurrency policy lives:
//!
//! * operands are read here (so WAR hazards cannot occur);
//! * the lock manager is consulted for RAW hazards on sources and WAW
//!   hazards on destinations; a conflicting instruction **stalls locally**
//!   without blocking the stages behind it from filling;
//! * destination registers are locked and the instruction is handed to its
//!   functional unit, after which it may complete out of order;
//! * management primitives and host reads are resolved to
//!   [`crate::execute::ExecOp`] micro-operations that stay in the in-order
//!   pipeline — which is precisely why the response stream keeps issue
//!   order;
//! * `FENCE`/`SYNC` hold the dispatcher until the machine is quiescent.
//!
//! The policy is written once, in `Dispatcher::decide`: a pure function
//! of the decoded head and the machine state that says whether the head
//! makes progress this cycle, and under which plan, or stalls, and why.
//! `Dispatcher::eval` acts on that decision, and the event-scheduled
//! kernel asks the same function when it judges a span quiet and when it
//! skips one. Every stall, one stepped cycle or a skipped span, is
//! recorded by one routine, `Dispatcher::note_stalled_span`.

use crate::decoder::DecodedOp;
use crate::encoder::SequencedResponse;
use crate::execute::ExecOp;
use crate::flagfile::FlagFile;
use crate::futable::FuTable;
use crate::lock::LockManager;
use crate::protocol::{AuxRole, DispatchPacket, FunctionalUnit, LockTicket};
use crate::regfile::RegFile;
use fu_isa::msg::ErrorCode;
use fu_isa::{DevMsg, Flags, MgmtOp, UserInstr, Word};
use rtl_sim::{HandshakeSlot, StallCause, TraceBuffer, TraceEventKind};

/// Stall-cause and throughput counters for the dispatcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// User instructions dispatched to functional units.
    pub user_dispatched: u64,
    /// Management micro-operations forwarded to the execution stage.
    pub mgmt_forwarded: u64,
    /// Responses generated (reads, syncs, errors).
    pub responses: u64,
    /// Cycles stalled on a register lock (RAW/WAW hazard).
    pub stall_lock: u64,
    /// Cycles stalled because the target unit was busy.
    pub stall_fu_busy: u64,
    /// Cycles stalled because the execution stage was full.
    pub stall_exec_full: u64,
    /// Cycles stalled waiting for quiescence (FENCE/SYNC).
    pub stall_fence: u64,
}

/// Why the decoded head stalls this cycle, as decided by
/// [`Dispatcher::decide`]. A stall found at the start of a quiet span
/// holds for the whole span: nothing that could end it (an arbiter
/// release, an execution-slot drain, an FU completion) happens during a
/// span the scheduler deemed quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallClass {
    /// The execution stage cannot take a push.
    ExecFull,
    /// A register lock (RAW/WAW hazard).
    Lock,
    /// Waiting for quiescence (FENCE/SYNC).
    Fence,
    /// A busy functional unit (the unit's index).
    FuBusy(usize),
}

/// How the decoded head makes progress, as decided by
/// [`Dispatcher::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plan {
    /// Hand the user instruction to its unit under this hazard plan.
    Dispatch(Hazards),
    /// Lock the ticket and forward the register write (COPY, LOADI,
    /// COPYF, SETF, host WriteReg/WriteFlags) to the execution stage.
    Write(LockTicket),
    /// Answer with an in-band error: a decode error, a quarantined unit,
    /// or one register named as both destinations.
    Error(ErrorCode, u32),
    /// NOP, FENCE, host reads and SYNC: the op's own progress path.
    Pass,
}

/// A user instruction's hazard plan, from one round of its unit's
/// variety queries: the sources it reads, whether it reads its aux flag
/// register, its second destination and the ticket locking its
/// destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hazards {
    reads: [bool; 3],
    reads_flags: bool,
    dst2: Option<u8>,
    ticket: LockTicket,
}

impl Hazards {
    fn of(instr: &UserInstr, unit: &dyn FunctionalUnit) -> Hazards {
        let v = instr.variety;
        let aux_role = unit.aux_role();
        let writes_data = unit.variety_writes_data(v);
        let dst2 = (aux_role == AuxRole::SecondDest && writes_data).then_some(instr.aux_reg);
        Hazards {
            reads: unit.variety_reads_srcs(v),
            reads_flags: aux_role == AuxRole::FlagSource && unit.variety_reads_flags(v),
            dst2,
            ticket: LockTicket::new(
                writes_data.then_some(instr.dst_reg),
                dst2,
                unit.variety_writes_flags(v).then_some(instr.dst_flag),
            ),
        }
    }

    /// A RAW hazard on a source actually read, or a destination the lock
    /// manager cannot grant.
    fn blocked(&self, instr: &UserInstr, lock: &LockManager) -> bool {
        [instr.src1, instr.src2, instr.src3]
            .iter()
            .zip(self.reads)
            .any(|(r, used)| used && lock.data_locked(*r))
            || (self.reads_flags && lock.flag_locked(instr.aux_reg))
            || !lock.can_acquire(&self.ticket)
    }
}

/// The dispatcher stage.
#[derive(Debug, Clone, Default)]
pub struct Dispatcher {
    next_seq: u64,
    next_resp_seq: u64,
    /// Public statistics.
    pub stats: DispatchStats,
    word_bits: u32,
}

impl Dispatcher {
    /// A dispatcher for a machine with `word_bits`-wide registers.
    pub fn new(word_bits: u32) -> Dispatcher {
        Dispatcher {
            word_bits,
            ..Dispatcher::default()
        }
    }

    pub(crate) fn respond(&mut self, exec_out: &mut HandshakeSlot<ExecOp>, msg: DevMsg) {
        let seq = self.next_resp_seq;
        self.next_resp_seq += 1;
        self.stats.responses += 1;
        exec_out.push(ExecOp::Respond(SequencedResponse { seq, msg }));
    }

    /// True when every unit is idle and no instruction is in flight —
    /// the FENCE/SYNC condition. Quarantined units are exempt: they will
    /// never become idle again, and their in-flight work was already
    /// abandoned (locks released, error reported) by the watchdog.
    fn quiescent(lock: &LockManager, fus: &[Box<dyn FunctionalUnit>], futable: &FuTable) -> bool {
        lock.quiescent()
            && fus
                .iter()
                .enumerate()
                .all(|(i, f)| f.is_idle() || futable.is_quarantined(i))
    }

    /// The dispatcher's policy: does the decoded head `op` make progress
    /// this cycle, and how, or does it stall, and why? Pure, so the
    /// event-scheduled kernel asks it too, both to judge a span quiet and
    /// to replay the span's stalls. `exec_room` says whether the
    /// execution stage can take a push this cycle.
    ///
    /// The checks keep the hardware's order. An error answer needs exec
    /// room. A user dispatch checks locks, then unit occupancy, and never
    /// exec room. Register writes, host reads and SYNC check exec room
    /// before locks or quiescence. FENCE checks quiescence only.
    pub(crate) fn decide(
        op: &DecodedOp,
        exec_room: bool,
        fus: &[Box<dyn FunctionalUnit>],
        lock: &LockManager,
        futable: &FuTable,
    ) -> Result<Plan, StallClass> {
        let room = || exec_room.then_some(()).ok_or(StallClass::ExecFull);
        let quiet = || {
            Self::quiescent(lock, fus, futable)
                .then_some(Plan::Pass)
                .ok_or(StallClass::Fence)
        };
        let unlocked = |locked: bool, plan: Plan| {
            room()?;
            (!locked).then_some(plan).ok_or(StallClass::Lock)
        };
        let write = |ticket: LockTicket, src_locked: bool| {
            unlocked(
                src_locked || !lock.can_acquire(&ticket),
                Plan::Write(ticket),
            )
        };
        let data = |dst| LockTicket::new(Some(dst), None, None);
        let flag = |dst| LockTicket::new(None, None, Some(dst));
        match *op {
            DecodedOp::User { instr, fu_index } => {
                if futable.is_quarantined(fu_index) {
                    // The unit was quarantined while this instruction was
                    // in flight past the decoder; fail fast instead of
                    // stalling on a unit that will never accept work again.
                    room()?;
                    return Ok(Plan::Error(ErrorCode::FuQuarantined, instr.func as u32));
                }
                let hazards = Hazards::of(&instr, &*fus[fu_index]);
                if let Some(d2) = hazards.dst2.filter(|&d2| d2 == instr.dst_reg) {
                    // One register cannot take both results; report instead
                    // of wedging the lock manager.
                    room()?;
                    return Ok(Plan::Error(ErrorCode::BadRegister, d2 as u32));
                }
                if hazards.blocked(&instr, lock) {
                    Err(StallClass::Lock)
                } else if !fus[fu_index].can_dispatch() {
                    Err(StallClass::FuBusy(fu_index))
                } else {
                    Ok(Plan::Dispatch(hazards))
                }
            }
            DecodedOp::Mgmt(MgmtOp::Nop) => Ok(Plan::Pass),
            DecodedOp::Mgmt(MgmtOp::Fence) => quiet(),
            DecodedOp::Sync { .. } => room().and_then(|()| quiet()),
            DecodedOp::ReadReg { reg, .. } => unlocked(lock.data_locked(reg), Plan::Pass),
            DecodedOp::ReadFlags { reg, .. } => unlocked(lock.flag_locked(reg), Plan::Pass),
            DecodedOp::Error { code, info } => room().map(|()| Plan::Error(code, info)),
            DecodedOp::Mgmt(MgmtOp::Copy { dst, src }) => write(data(dst), lock.data_locked(src)),
            DecodedOp::Mgmt(MgmtOp::LoadImm { dst, .. }) | DecodedOp::WriteReg { reg: dst, .. } => {
                write(data(dst), false)
            }
            DecodedOp::Mgmt(MgmtOp::CopyFlags { dst, src }) => {
                write(flag(dst), lock.flag_locked(src))
            }
            DecodedOp::Mgmt(MgmtOp::SetFlags { dst, .. })
            | DecodedOp::WriteFlags { reg: dst, .. } => write(flag(dst), false),
        }
    }

    /// One evaluate phase: handle at most one decoded operation. The
    /// head's fate is `Dispatcher::decide`'s: a stall is recorded
    /// through `Dispatcher::note_stalled_span`, progress takes the op
    /// and runs its progress path.
    ///
    /// Returns the index of the functional unit that received a user
    /// dispatch, the lock ticket it carries and its dispatch sequence
    /// number, if a dispatch happened — the coprocessor's activity
    /// tracker marks that unit busy, the watchdog remembers the ticket so
    /// a hung unit's locks can be force-released, and the latency
    /// profiler keys on the seq.
    #[allow(clippy::too_many_arguments)] // the stage's port list, as in hardware
    pub fn eval(
        &mut self,
        input: &mut HandshakeSlot<DecodedOp>,
        exec_out: &mut HandshakeSlot<ExecOp>,
        fus: &mut [Box<dyn FunctionalUnit>],
        lock: &mut LockManager,
        regfile: &mut RegFile,
        flagfile: &mut FlagFile,
        futable: &FuTable,
        cycle: u64,
        trace: &mut TraceBuffer,
    ) -> Option<(usize, LockTicket, u64)> {
        let plan = match Self::decide(input.peek()?, exec_out.can_push(), fus, lock, futable) {
            Ok(plan) => plan,
            Err(class) => {
                self.note_stalled_span(class, cycle, 1, lock, trace);
                return None;
            }
        };
        let op = input.take().expect("the head was peeked above");
        match (op, plan) {
            (DecodedOp::User { instr, fu_index }, Plan::Dispatch(hazards)) => {
                return Some(self.dispatch_user(
                    instr, fu_index, hazards, fus, lock, regfile, flagfile, cycle, trace,
                ));
            }
            (op, Plan::Write(ticket)) => {
                let write = match op {
                    DecodedOp::Mgmt(MgmtOp::Copy { dst, src }) => ExecOp::WriteData {
                        reg: dst,
                        value: regfile.read(src),
                        ticket,
                    },
                    DecodedOp::Mgmt(MgmtOp::LoadImm { dst, imm }) => ExecOp::WriteData {
                        reg: dst,
                        value: Word::from_u64(imm as u64, self.word_bits),
                        ticket,
                    },
                    DecodedOp::WriteReg { reg, value } => ExecOp::WriteData { reg, value, ticket },
                    DecodedOp::Mgmt(MgmtOp::CopyFlags { dst, src }) => ExecOp::WriteFlags {
                        reg: dst,
                        flags: flagfile.read(src),
                        ticket,
                    },
                    DecodedOp::Mgmt(MgmtOp::SetFlags { dst, imm }) => ExecOp::WriteFlags {
                        reg: dst,
                        flags: Flags(imm),
                        ticket,
                    },
                    DecodedOp::WriteFlags { reg, flags } => {
                        ExecOp::WriteFlags { reg, flags, ticket }
                    }
                    op => unreachable!("{op:?} writes no register"),
                };
                Self::acquire(lock, ticket, cycle, trace);
                exec_out.push(write);
                self.stats.mgmt_forwarded += 1;
            }
            (_, Plan::Error(code, info)) => self.respond(exec_out, DevMsg::Error { code, info }),
            (DecodedOp::Mgmt(MgmtOp::Nop), _) => {}
            (DecodedOp::Mgmt(MgmtOp::Fence), _) => self.stats.mgmt_forwarded += 1,
            (DecodedOp::ReadReg { reg, tag }, _) => {
                let value = regfile.read(reg);
                self.respond(exec_out, DevMsg::Data { tag, value });
            }
            (DecodedOp::ReadFlags { reg, tag }, _) => {
                let flags = flagfile.read(reg);
                self.respond(exec_out, DevMsg::Flags { tag, flags });
            }
            (DecodedOp::Sync { tag }, _) => self.respond(exec_out, DevMsg::SyncAck { tag }),
            (op, plan) => unreachable!("{plan:?} does not apply to {op:?}"),
        }
        None
    }

    /// Record `n` stall cycles of class `class` starting at
    /// `start_cycle`: the stall counters, the lock manager's stall count
    /// and one trace event per cycle. The one place a stall is recorded,
    /// for a stepped cycle (`n == 1`) and a skipped span alike.
    pub(crate) fn note_stalled_span(
        &mut self,
        class: StallClass,
        start_cycle: u64,
        n: u64,
        lock: &mut LockManager,
        trace: &mut TraceBuffer,
    ) {
        let stage_stall = |cause| TraceEventKind::StageStall {
            stage: "dispatcher",
            cause,
        };
        let (kind, bump): (TraceEventKind, &mut u64) = match class {
            StallClass::ExecFull => (
                stage_stall(StallCause::ExecFull),
                &mut self.stats.stall_exec_full,
            ),
            StallClass::Lock => {
                lock.note_stalls(n);
                (stage_stall(StallCause::Lock), &mut self.stats.stall_lock)
            }
            StallClass::Fence => (stage_stall(StallCause::Fence), &mut self.stats.stall_fence),
            StallClass::FuBusy(unit) => (
                TraceEventKind::FuBusy { unit: unit as u8 },
                &mut self.stats.stall_fu_busy,
            ),
        };
        *bump += n;
        if trace.is_enabled() {
            for i in 0..n {
                trace.record(start_cycle + i, kind);
            }
        }
    }

    /// Lock a ticket's registers and trace the acquisition.
    fn acquire(lock: &mut LockManager, ticket: LockTicket, cycle: u64, trace: &mut TraceBuffer) {
        lock.acquire(&ticket);
        trace.record(
            cycle,
            TraceEventKind::LockAcquire {
                data: ticket.data,
                flag: ticket.flag,
            },
        );
    }

    /// Hand a user instruction to its unit under its hazard plan: read
    /// the operands it uses, lock its destinations and send the packet.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_user(
        &mut self,
        instr: UserInstr,
        fu_index: usize,
        hazards: Hazards,
        fus: &mut [Box<dyn FunctionalUnit>],
        lock: &mut LockManager,
        regfile: &mut RegFile,
        flagfile: &mut FlagFile,
        cycle: u64,
        trace: &mut TraceBuffer,
    ) -> (usize, LockTicket, u64) {
        let Hazards {
            reads,
            reads_flags,
            dst2,
            ticket,
        } = hazards;
        let zero = Word::zero(self.word_bits);
        let srcs = [instr.src1, instr.src2, instr.src3];
        let ops = std::array::from_fn(|i| {
            if reads[i] {
                regfile.read(srcs[i])
            } else {
                zero
            }
        });
        let flags_in = if reads_flags {
            flagfile.read(instr.aux_reg)
        } else {
            Flags::NONE
        };
        Self::acquire(lock, ticket, cycle, trace);
        let seq = self.next_seq;
        self.next_seq += 1;
        trace.record(
            cycle,
            TraceEventKind::FuDispatch {
                unit: fu_index as u8,
                seq,
            },
        );
        fus[fu_index].dispatch(DispatchPacket {
            variety: instr.variety,
            ops,
            flags_in,
            dst_reg: instr.dst_reg,
            dst2_reg: dst2,
            dst_flag: instr.dst_flag,
            imm8: instr.src3,
            ticket,
            seq,
        });
        self.stats.user_dispatched += 1;
        (fu_index, ticket, seq)
    }

    /// Return to the power-on state.
    pub fn reset(&mut self) {
        let word_bits = self.word_bits;
        *self = Dispatcher::new(word_bits);
    }
}
