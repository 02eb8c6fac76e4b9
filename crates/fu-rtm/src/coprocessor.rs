//! The top-level coprocessor: Figure 2/3 of the paper, assembled.
//!
//! [`Coprocessor`] owns the whole on-FPGA design — interface FIFOs,
//! message buffer, decoder, dispatcher, execution stage, write arbiter,
//! message encoder/serialiser, both register files, the lock manager, the
//! functional unit table and the attached functional units — and clocks it
//! one cycle per [`Coprocessor::step`].
//!
//! Within a cycle the stages are evaluated **sink to source** so that the
//! local handshakes achieve full throughput (a pipeline register freed in
//! cycle *t* accepts new data in cycle *t*), exactly the behaviour of the
//! combinational ready chains in the VHDL original:
//!
//! ```text
//! serializer → encoder → write arbiter → execution → dispatcher → decoder → message buffer
//! ```
//!
//! after which every registered element commits simultaneously (the clock
//! edge).

use crate::arbiter::WriteArbiter;
use crate::config::CoprocConfig;
use crate::decoder::{DecodedOp, Decoder};
use crate::dispatcher::{DispatchStats, Dispatcher, StallClass};
use crate::encoder::{MessageEncoder, SequencedResponse};
use crate::execute::{ExecOp, Execution};
use crate::flagfile::FlagFile;
use crate::futable::FuTable;
use crate::lock::LockManager;
use crate::msgbuf::{MessageBuffer, MsgBufOut};
use crate::protocol::{FunctionalUnit, LockTicket, SoftEvent};
use crate::redundant::{protect_units, Redundancy};
use crate::regfile::RegFile;
use crate::serializer::MessageSerializer;
use crate::seu::{SeuModel, SeuTarget, Strike};
use crate::transceiver::DeviceTransceiver;
use fu_isa::msg::ErrorCode;
use fu_isa::transport::TransportStats;
use fu_isa::{DevMsg, Flags, Word};
use rtl_sim::area::log2_ceil;
use rtl_sim::{
    AreaEstimate, Clocked, CriticalPath, Fifo, HandshakeSlot, LatencyHistogram, RecoveryStats,
    SimError, SimStats, TraceBuffer, TraceEventKind, WheelStats,
};
use std::collections::VecDeque;

/// How the scheduler treats provably inactive structure.
///
/// Both modes produce **bit-identical architectural behaviour** — the same
/// simulated cycle counts, the same response streams, the same statistics.
/// They only change which host work the simulator performs to get there.
/// `Scheduled` skips evaluation of stages whose inputs are empty, does not
/// clock idle functional units, and lets the driving host jump the clock
/// over every provably quiet span — an idle machine, a fixed-latency
/// burn, a link retransmit wait, a stalled dispatcher head — straight to
/// the earliest deadline ([`Coprocessor::skip_to_next_event`]).
/// `Exhaustive` is the original evaluate-everything-every-cycle loop, kept
/// as the reference the equivalence tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivityMode {
    /// Gate inactive structure and skip quiet spans (the default).
    #[default]
    Scheduled,
    /// Evaluate every stage and clock every unit every cycle.
    Exhaustive,
}

/// Scheduling verdict — can the machine's observable state change this
/// cycle, and if not, when can it next change? Produced by
/// [`Coprocessor::quiet_verdict`]; [`Coprocessor::skip_to_next_event`]
/// combines it with the driving host's own event set (link arrival
/// times, endpoint retransmit deadlines) before calling
/// [`Coprocessor::skip_quiet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuietVerdict {
    /// Observable work exists this cycle; the machine must step.
    Busy,
    /// Provably quiet strictly before the given absolute cycle — the
    /// earliest registered wake. Skipping any number of cycles that
    /// lands at or before it is bit-identical to stepping them.
    Until(u64),
    /// Quiet with no internal wake registered (e.g. only a hung unit and
    /// no watchdog configured): external events alone bound the skip.
    Indefinite,
}

/// The deadlines one scheduling decision registers, reduced on the fly
/// to the earliest and the number of deadlines tied at it.
#[derive(Debug, Clone, Copy, Default)]
struct Deadlines {
    registered: u64,
    earliest: Option<u64>,
    ties: u64,
}

impl Deadlines {
    fn add(&mut self, at: u64) {
        self.registered += 1;
        match self.earliest {
            Some(e) if e < at => {}
            Some(e) if e == at => self.ties += 1,
            _ => {
                self.earliest = Some(at);
                self.ties = 1;
            }
        }
    }
}

/// Per-stage evaluate counters (how often each evaluate function ran).
#[derive(Debug, Clone, Copy, Default)]
struct StageEvals {
    msgbuf: u64,
    decoder: u64,
    dispatcher: u64,
    execution: u64,
    arbiter: u64,
    encoder: u64,
    serializer: u64,
}

/// Aggregated machine statistics (see the per-stage counters for
/// definitions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoprocStats {
    /// Clock cycles since reset.
    pub cycles: u64,
    /// Frames consumed from the receive FIFO.
    pub frames_in: u64,
    /// Host messages assembled by the message buffer.
    pub msgs_in: u64,
    /// Messages decoded (including errors).
    pub decoded: u64,
    /// Decode errors converted to in-band error responses.
    pub decode_errors: u64,
    /// Dispatcher throughput and stall breakdown.
    pub dispatch: DispatchStats,
    /// Functional-unit completions retired by the write arbiter.
    pub fu_completions: u64,
    /// Data-register writes performed by the write arbiter.
    pub arb_data_writes: u64,
    /// Flag-register writes performed by the write arbiter.
    pub arb_flag_writes: u64,
    /// Cycles in which a ready completion was denied a write port.
    pub arb_contention: u64,
    /// Data-register writes through the execution stage's high-priority
    /// port.
    pub exec_data_writes: u64,
    /// Flag-register writes through the high-priority port.
    pub exec_flag_writes: u64,
    /// Responses forwarded to the host.
    pub responses: u64,
    /// Frames emitted into the transmit FIFO.
    pub frames_out: u64,
    /// Functional units quarantined by the dispatch watchdog.
    pub fu_timeouts: u64,
}

/// One-cycle snapshot of the machine's observable signals (see
/// [`Coprocessor::probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoprocProbe {
    /// Receive-FIFO occupancy.
    pub rx_level: u32,
    /// Message-buffer output register holds a message.
    pub msg_valid: bool,
    /// Decoder output register holds an operation.
    pub decoded_valid: bool,
    /// Execution input register holds a micro-operation.
    pub exec_valid: bool,
    /// Response register holds a response.
    pub resp_valid: bool,
    /// Serialiser input register holds a message.
    pub dev_valid: bool,
    /// Transmit-FIFO occupancy.
    pub tx_level: u32,
    /// Instructions dispatched but not retired (scoreboard).
    pub in_flight: u32,
    /// Functional units currently holding work.
    pub fus_busy: u32,
}

/// The assembled coprocessor.
pub struct Coprocessor {
    cfg: CoprocConfig,
    // pipeline stages
    msgbuf: MessageBuffer,
    decoder: Decoder,
    dispatcher: Dispatcher,
    execution: Execution,
    arbiter: WriteArbiter,
    encoder: MessageEncoder,
    serializer: MessageSerializer,
    // architectural state
    regfile: RegFile,
    flagfile: FlagFile,
    lock: LockManager,
    futable: FuTable,
    fus: Vec<Box<dyn FunctionalUnit>>,
    // inter-stage registers
    rx_fifo: Fifo<u32>,
    msg_slot: HandshakeSlot<MsgBufOut>,
    decoded_slot: HandshakeSlot<DecodedOp>,
    exec_slot: HandshakeSlot<ExecOp>,
    resp_slot: HandshakeSlot<SequencedResponse>,
    dev_slot: HandshakeSlot<DevMsg>,
    tx_fifo: Fifo<u32>,
    // bookkeeping
    cycle: u64,
    trace: TraceBuffer,
    // activity-aware scheduling
    activity: ActivityMode,
    /// Units that may hold work. Maintained in both modes so `is_idle`
    /// is O(1); `Scheduled` also uses it to skip evaluation.
    fu_active: Vec<bool>,
    n_active_fus: usize,
    /// Units whose `commit` must run even while idle
    /// ([`FunctionalUnit::needs_clock_when_idle`]).
    fu_always_clock: Vec<bool>,
    skipped_cycles: u64,
    stage_evals: StageEvals,
    /// Cycles each stage had work (pipeline utilization). Unlike
    /// `stage_evals` this is counted identically in both scheduling
    /// modes, so it is part of `SimStats` equality.
    stage_busy: StageEvals,
    // per-instruction latency profiling (always on; see `sim_stats`)
    /// Cycle the current decoded head became visible to the dispatcher —
    /// the instruction's issue time.
    decoded_since: Option<u64>,
    /// Dispatched-but-not-retired instructions:
    /// `(seq, unit, issue_cycle, dispatch_cycle)`.
    lat_inflight: Vec<(u64, usize, u64, u64)>,
    lat_issue_dispatch: LatencyHistogram,
    lat_dispatch_retire: LatencyHistogram,
    lat_issue_retire: LatencyHistogram,
    // reliable transport (None = bare frame port, the default)
    transceiver: Option<DeviceTransceiver>,
    // dispatch watchdog (active when cfg.max_busy_cycles is Some)
    /// Last cycle each unit made observable progress (accepted a dispatch
    /// or had a completion granted by the arbiter).
    fu_last_progress: Vec<u64>,
    /// Lock tickets of dispatches not yet retired by the arbiter, per
    /// unit — what the watchdog force-releases on quarantine.
    fu_outstanding: Vec<Vec<LockTicket>>,
    /// Units quarantined by the watchdog (mirror of the FU table's flag,
    /// consulted in the commit loop). A quarantined unit is never clocked.
    fu_quarantined: Vec<bool>,
    /// `FuTimeout` error responses awaiting a free execution slot.
    watchdog_errors: VecDeque<DevMsg>,
    fu_timeouts: u64,
    /// The deadlines registered by the last [`Coprocessor::quiet_verdict`]
    /// and the cycle it was taken at; the skip that follows it at that
    /// cycle counts the deadlines it reaches.
    armed: Option<(u64, Deadlines)>,
    /// Deadline counters accumulated across decisions, surfaced in
    /// [`Coprocessor::sim_stats`].
    wakes: WheelStats,
    /// Seeded SEU strike schedule (`cfg.seu`). Deliberately excluded from
    /// checkpoints: the schedule position must survive a rollback, or the
    /// replay would take the identical strikes and never converge.
    seu: Option<SeuModel>,
    /// Soft-error bookkeeping (strike outcomes); the rollback and farm
    /// counters are filled in by the host layers.
    recovery: RecoveryStats,
}

impl Coprocessor {
    /// Assemble a coprocessor from a configuration and a set of
    /// functional units.
    ///
    /// # Errors
    /// Fails when the configuration violates a generic constraint or two
    /// units claim the same function code.
    pub fn new(cfg: CoprocConfig, fus: Vec<Box<dyn FunctionalUnit>>) -> Result<Self, SimError> {
        cfg.validate()?;
        // Redundant execution wraps each clone-capable unit in lock-step
        // replicas *before* the FU table is built, so the table sees one
        // entry per function code exactly as in the unprotected machine.
        let fus = protect_units(fus, cfg.redundancy);
        let futable = FuTable::build(&fus)?;
        let mut regfile = RegFile::new(cfg.data_regs, cfg.word_bits);
        let mut flagfile = FlagFile::new(cfg.flag_regs);
        if cfg.parity {
            regfile.set_parity_enabled(true);
            flagfile.set_parity_enabled(true);
        }
        Ok(Coprocessor {
            msgbuf: MessageBuffer::new(cfg.word_bits, cfg.rx_frames_per_cycle),
            decoder: Decoder::new(cfg.data_regs, cfg.flag_regs, cfg.word_bits),
            dispatcher: Dispatcher::new(cfg.word_bits),
            execution: Execution::new(),
            arbiter: WriteArbiter::new(cfg.write_ports),
            encoder: MessageEncoder::new(),
            serializer: MessageSerializer::new(cfg.word_bits, cfg.tx_frames_per_cycle),
            regfile,
            flagfile,
            lock: LockManager::new(cfg.data_regs, cfg.flag_regs),
            futable,
            rx_fifo: Fifo::new(cfg.rx_fifo_depth),
            msg_slot: HandshakeSlot::new(),
            decoded_slot: HandshakeSlot::new(),
            exec_slot: HandshakeSlot::new(),
            resp_slot: HandshakeSlot::new(),
            dev_slot: HandshakeSlot::new(),
            tx_fifo: Fifo::new(cfg.tx_fifo_depth),
            cycle: 0,
            trace: if cfg.trace_depth > 0 {
                TraceBuffer::new(cfg.trace_depth)
            } else {
                TraceBuffer::disabled()
            },
            activity: ActivityMode::default(),
            fu_active: vec![false; fus.len()],
            n_active_fus: 0,
            fu_always_clock: fus.iter().map(|f| f.needs_clock_when_idle()).collect(),
            skipped_cycles: 0,
            stage_evals: StageEvals::default(),
            stage_busy: StageEvals::default(),
            decoded_since: None,
            lat_inflight: Vec::new(),
            lat_issue_dispatch: LatencyHistogram::default(),
            lat_dispatch_retire: LatencyHistogram::default(),
            lat_issue_retire: LatencyHistogram::default(),
            transceiver: cfg.transport.map(DeviceTransceiver::new),
            fu_last_progress: vec![0; fus.len()],
            fu_outstanding: vec![Vec::new(); fus.len()],
            fu_quarantined: vec![false; fus.len()],
            watchdog_errors: VecDeque::new(),
            fu_timeouts: 0,
            armed: None,
            wakes: WheelStats::default(),
            seu: cfg.seu.map(SeuModel::new),
            recovery: RecoveryStats::default(),
            fus,
            cfg,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &CoprocConfig {
        &self.cfg
    }

    /// Cycles elapsed since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Can the receive FIFO accept another frame this cycle?
    pub fn rx_ready(&self) -> bool {
        self.rx_fifo.can_push()
    }

    /// Free space in the receive FIFO this cycle.
    pub fn rx_space(&self) -> usize {
        self.rx_fifo.space()
    }

    /// Deliver one frame from the link (receiver → receive FIFO).
    /// Returns `false` (frame not accepted) when the FIFO is full — the
    /// link must retry, as real flow control would.
    ///
    /// With a reliable transceiver fitted the frame is a *wire* frame
    /// (data segment or ack) and is always accepted: loss recovery is the
    /// transport's job, and validated payloads trickle into the receive
    /// FIFO as space frees up.
    pub fn push_frame(&mut self, frame: u32) -> bool {
        if let Some(t) = self.transceiver.as_mut() {
            t.on_wire_frame(self.cycle, frame);
            return true;
        }
        if self.rx_fifo.can_push() {
            self.rx_fifo.push(frame);
            true
        } else {
            false
        }
    }

    /// Remove one frame from the transmit FIFO (transmitter → link).
    /// With a reliable transceiver fitted this emits wire frames (data
    /// segments and acks) instead of bare payload frames.
    pub fn pop_frame(&mut self) -> Option<u32> {
        if let Some(t) = self.transceiver.as_mut() {
            return t.pull_wire_frame(self.cycle);
        }
        self.tx_fifo.pop()
    }

    /// Advance the design by one clock cycle.
    ///
    /// In [`ActivityMode::Scheduled`] a stage's evaluate only runs when
    /// its inputs could make it do something: every skipped evaluate is
    /// one whose body would have been a guaranteed no-op (each stage's
    /// first action on an empty input is to return). Idle functional
    /// units are neither scanned by the arbiter nor clocked at the edge,
    /// except units that demand a free-running clock. Architectural
    /// behaviour is identical in both modes, cycle for cycle.
    pub fn step(&mut self) {
        let gated = self.activity == ActivityMode::Scheduled;

        // ---- reliable transceiver: timer + rx delivery ----
        if let Some(t) = self.transceiver.as_mut() {
            // Advance the retransmit timer, then move validated in-order
            // payloads into the receive FIFO while it has space (staged;
            // the message buffer sees them after the clock edge, exactly
            // like frames pushed by a bare link).
            t.poll(self.cycle);
            while self.rx_fifo.can_push() && t.has_deliverable() {
                let f = t.deliver().expect("has_deliverable implies a frame");
                self.rx_fifo.push(f);
            }
        }

        // ---- per-instruction latency: a decoded head's issue time is the
        // cycle it first becomes visible to the dispatcher ----
        if self.decoded_since.is_none() && self.decoded_slot.has_data() {
            self.decoded_since = Some(self.cycle);
        }

        // ---- evaluate, sink to source ----
        // Each stage's activity predicate is computed once: it feeds the
        // busy-cycle counters unconditionally (so utilization is identical
        // in both scheduling modes) and, under `Scheduled`, decides whether
        // the evaluate runs at all.
        let cycle = self.cycle;
        let serializer_busy = self.dev_slot.has_data() || !self.serializer.is_idle();
        if serializer_busy {
            self.stage_busy.serializer += 1;
        }
        if !gated || serializer_busy {
            self.stage_evals.serializer += 1;
            self.serializer.eval(
                &mut self.dev_slot,
                &mut self.tx_fifo,
                cycle,
                &mut self.trace,
            );
        }
        let encoder_busy = self.resp_slot.has_data();
        if encoder_busy {
            self.stage_busy.encoder += 1;
        }
        if !gated || encoder_busy {
            self.stage_evals.encoder += 1;
            self.encoder.eval(
                &mut self.resp_slot,
                &mut self.dev_slot,
                cycle,
                &mut self.trace,
            );
        }
        let arbiter_busy = self.n_active_fus > 0 || !self.arbiter.is_idle();
        if arbiter_busy {
            self.stage_busy.arbiter += 1;
        }
        if !gated || arbiter_busy {
            self.stage_evals.arbiter += 1;
            let mask = gated.then_some(self.fu_active.as_slice());
            self.arbiter.eval(
                &mut self.fus,
                &mut self.regfile,
                &mut self.flagfile,
                &mut self.lock,
                mask,
                cycle,
                &mut self.trace,
            );
            // Watchdog bookkeeping: a granted completion is progress, and
            // its ticket is no longer outstanding. Processed only when the
            // arbiter actually evaluated — the grant list is rebuilt each
            // eval, so reading it outside this gate would replay stale
            // grants. A grant also retires the instruction's latency
            // record.
            for &(idx, ticket, seq) in self.arbiter.acked() {
                self.fu_last_progress[idx] = self.cycle;
                if let Some(pos) = self.fu_outstanding[idx].iter().position(|&t| t == ticket) {
                    self.fu_outstanding[idx].swap_remove(pos);
                }
                if let Some(pos) = self.lat_inflight.iter().position(|e| e.0 == seq) {
                    let (_, _, issue, disp) = self.lat_inflight.swap_remove(pos);
                    self.lat_dispatch_retire.record(self.cycle - disp);
                    self.lat_issue_retire.record(self.cycle - issue);
                }
                // A redundant unit votes at the grant; collect the verdict.
                // TMR out-votes the upset silently (corrected); a DMR
                // disagreement means the retired result is suspect — report
                // it in band so the host can roll back.
                match self.fus[idx].take_soft_event() {
                    Some(SoftEvent::Corrected) => {
                        self.recovery.seus_detected += 1;
                        self.recovery.seus_corrected += 1;
                        self.trace
                            .record(cycle, TraceEventKind::SeuCorrected { unit: idx as u8 });
                    }
                    Some(SoftEvent::Detected) => {
                        self.recovery.seus_detected += 1;
                        let func = u32::from(self.fus[idx].func_code());
                        self.trace
                            .record(cycle, TraceEventKind::SeuDetected { reg: idx as u8 });
                        self.watchdog_errors.push_back(DevMsg::Error {
                            code: ErrorCode::SoftError,
                            info: func,
                        });
                    }
                    None => {}
                }
            }
        }
        let execution_busy = self.exec_slot.has_data() || !self.execution.is_idle();
        if execution_busy {
            self.stage_busy.execution += 1;
        }
        if !gated || execution_busy {
            self.stage_evals.execution += 1;
            self.execution.eval(
                &mut self.exec_slot,
                &mut self.resp_slot,
                &mut self.regfile,
                &mut self.flagfile,
                &mut self.lock,
                cycle,
                &mut self.trace,
            );
        }
        // In-band watchdog errors take the execution slot ahead of new
        // dispatches: a quarantine must be reported even when the decode
        // pipeline has gone quiet.
        if !self.watchdog_errors.is_empty() && self.exec_slot.can_push() {
            let msg = self.watchdog_errors.pop_front().expect("checked non-empty");
            self.dispatcher.respond(&mut self.exec_slot, msg);
        }
        let dispatcher_busy = self.decoded_slot.has_data();
        if dispatcher_busy {
            self.stage_busy.dispatcher += 1;
        }
        if !gated || dispatcher_busy {
            self.stage_evals.dispatcher += 1;
            let dispatched = self.dispatcher.eval(
                &mut self.decoded_slot,
                &mut self.exec_slot,
                &mut self.fus,
                &mut self.lock,
                &mut self.regfile,
                &mut self.flagfile,
                &self.futable,
                cycle,
                &mut self.trace,
            );
            if let Some((idx, ticket, seq)) = dispatched {
                if !self.fu_active[idx] {
                    self.fu_active[idx] = true;
                    self.n_active_fus += 1;
                }
                self.fu_last_progress[idx] = self.cycle;
                self.fu_outstanding[idx].push(ticket);
                let issue = self.decoded_since.take().unwrap_or(self.cycle);
                self.lat_issue_dispatch.record(self.cycle - issue);
                self.lat_inflight.push((seq, idx, issue, self.cycle));
            }
            if !self.decoded_slot.has_data() {
                // Head consumed (dispatched, or a management op executed
                // in place): the next head's issue clock starts when it
                // becomes visible after a commit.
                self.decoded_since = None;
            }
        }
        let decoder_busy = self.msg_slot.has_data();
        if decoder_busy {
            self.stage_busy.decoder += 1;
        }
        if !gated || decoder_busy {
            self.stage_evals.decoder += 1;
            self.decoder.eval(
                &mut self.msg_slot,
                &mut self.decoded_slot,
                &self.futable,
                cycle,
                &mut self.trace,
            );
        }
        let msgbuf_busy = !self.rx_fifo.is_empty();
        if msgbuf_busy {
            self.stage_busy.msgbuf += 1;
        }
        if !gated || msgbuf_busy {
            self.stage_evals.msgbuf += 1;
            self.msgbuf.eval(
                &mut self.rx_fifo,
                &mut self.msg_slot,
                cycle,
                &mut self.trace,
            );
        }

        // ---- SEU strikes due this cycle ----
        // Latch and scoreboard strikes land before the clock edge (they
        // hit datapath/control state); register/flag cell strikes are
        // deferred until after the commit so the parity bits — computed
        // from the staged value at the edge — go stale, which is exactly
        // how a memory-cell upset escapes a write-time check.
        let mut cell_strikes: Vec<Strike> = Vec::new();
        while let Some(s) = self.seu.as_mut().and_then(|m| m.take(cycle)) {
            if let Some(cell) = self.apply_strike_pre_commit(s) {
                cell_strikes.push(cell);
            }
        }
        // ---- parity checks tripped by this cycle's reads ----
        if self.cfg.parity {
            self.drain_parity_errors();
        }

        // ---- clock edge ----
        self.rx_fifo.commit();
        self.msg_slot.commit();
        self.decoded_slot.commit();
        self.exec_slot.commit();
        self.resp_slot.commit();
        self.dev_slot.commit();
        self.tx_fifo.commit();
        self.regfile.commit();
        self.flagfile.commit();
        for s in cell_strikes {
            self.apply_cell_strike(s);
        }
        for (i, fu) in self.fus.iter_mut().enumerate() {
            // Quarantined units lose their clock in *both* modes: a merely
            // slow (not truly hung) unit must not complete after its locks
            // were force-released, or the release would happen twice.
            if self.fu_quarantined[i] {
                continue;
            }
            if !gated || self.fu_active[i] || self.fu_always_clock[i] {
                fu.commit();
            }
        }
        // Retire units that drained this cycle from the active set.
        if self.n_active_fus > 0 {
            for i in 0..self.fus.len() {
                if self.fu_active[i] && self.fus[i].is_idle() {
                    self.fu_active[i] = false;
                    self.n_active_fus -= 1;
                }
            }
        }
        // ---- dispatch watchdog ----
        if let Some(max) = self.cfg.max_busy_cycles {
            if self.n_active_fus > 0 {
                for i in 0..self.fus.len() {
                    // A unit with a completion waiting at the arbiter is
                    // making progress even if contention delays the grant.
                    if self.fu_active[i]
                        && !self.fu_quarantined[i]
                        && self.fus[i].peek_output().is_none()
                        && self.cycle - self.fu_last_progress[i] >= max
                    {
                        self.quarantine_unit(i);
                    }
                }
            }
        }
        // ---- reliable transceiver: collect serialised output ----
        if let Some(t) = self.transceiver.as_mut() {
            while let Some(f) = self.tx_fifo.pop() {
                t.send_payload(f);
            }
        }
        self.cycle += 1;
    }

    /// Quarantine a hung unit: mark it failed in the FU table (later
    /// dispatches are refused with `FuQuarantined`), stop clocking it,
    /// force-release every lock its outstanding dispatches hold, and queue
    /// one in-band `FuTimeout` error per abandoned dispatch so the host
    /// learns which results will never arrive.
    fn quarantine_unit(&mut self, i: usize) {
        self.futable.quarantine(i);
        self.fu_quarantined[i] = true;
        if self.fu_active[i] {
            self.fu_active[i] = false;
            self.n_active_fus -= 1;
        }
        self.fu_timeouts += 1;
        let tickets = std::mem::take(&mut self.fu_outstanding[i]);
        let func = self
            .futable
            .entries()
            .iter()
            .find(|e| e.index == i)
            .map_or(i as u32, |e| u32::from(e.func_code));
        if tickets.is_empty() {
            self.watchdog_errors.push_back(DevMsg::Error {
                code: ErrorCode::FuTimeout,
                info: func,
            });
        }
        let cycle = self.cycle;
        for t in tickets {
            self.lock.release(&t);
            self.trace.record(
                cycle,
                TraceEventKind::LockRelease {
                    data: t.data,
                    flag: t.flag,
                },
            );
            self.watchdog_errors.push_back(DevMsg::Error {
                code: ErrorCode::FuTimeout,
                info: func,
            });
        }
        // Abandoned dispatches never retire; drop their latency records
        // rather than let them linger as in-flight forever.
        self.lat_inflight.retain(|e| e.1 != i);
        self.trace
            .record(cycle, TraceEventKind::FuQuarantined { unit: i as u8 });
    }

    /// Record one strike and apply it if it lands before the clock edge.
    /// Stored-cell strikes are returned to flip after the commit instead.
    fn apply_strike_pre_commit(&mut self, s: Strike) -> Option<Strike> {
        self.recovery.seus_injected += 1;
        self.trace.record(
            self.cycle,
            TraceEventKind::SeuInjected {
                target: s.target.label(),
                index: s.index,
                bit: s.bit,
            },
        );
        match s.target {
            SeuTarget::RegFile | SeuTarget::FlagFile => Some(s),
            SeuTarget::ResultLatch => {
                self.apply_latch_strike(s);
                None
            }
            SeuTarget::Scoreboard => {
                // The scoreboard is duplicated with comparison: the flip
                // is caught against the shadow copy and repaired in place
                // before any interlock decision can observe it.
                let slot = self.lock.seu_strike(s.index as usize);
                self.recovery.seus_detected += 1;
                self.recovery.seus_corrected += 1;
                self.trace
                    .record(self.cycle, TraceEventKind::SeuCorrected { unit: slot });
                None
            }
        }
    }

    /// A result-latch strike: prefer an in-flight unit result (where a
    /// redundancy vote can judge it at retire), then a write staged
    /// toward the register file this cycle. The staged path is the write
    /// datapath: a triplicated machine out-votes the flip, a duplicated
    /// one detects it and reports in band (the rollback recovers), and a
    /// bare machine commits the corruption silently — parity cannot see
    /// it because the parity bit is computed from the corrupted value.
    fn apply_latch_strike(&mut self, s: Strike) {
        if !self.fus.is_empty() {
            let i = s.index as usize % self.fus.len();
            if !self.fu_quarantined[i] && self.fus[i].seu_flip_result(s.bit) {
                return;
            }
        }
        if !self.regfile.has_staged_write() {
            self.recovery.seus_absorbed += 1;
            return;
        }
        match self.cfg.redundancy {
            Redundancy::Tmr => {
                self.recovery.seus_detected += 1;
                self.recovery.seus_corrected += 1;
                self.trace
                    .record(self.cycle, TraceEventKind::SeuCorrected { unit: s.index });
            }
            Redundancy::Dmr => {
                self.regfile.seu_flip_staged(s.bit);
                self.recovery.seus_detected += 1;
                self.trace
                    .record(self.cycle, TraceEventKind::SeuDetected { reg: s.index });
                self.watchdog_errors.push_back(DevMsg::Error {
                    code: ErrorCode::SoftError,
                    info: u32::from(s.index),
                });
            }
            Redundancy::None => {
                self.regfile.seu_flip_staged(s.bit);
            }
        }
    }

    /// Flip a stored register/flag cell after the clock edge. Parity
    /// (when fitted) was computed from the committed value, so the flip
    /// leaves it stale and the next read of the entry trips the check.
    fn apply_cell_strike(&mut self, s: Strike) {
        match s.target {
            SeuTarget::RegFile => {
                let r = (u16::from(s.index) % self.cfg.data_regs) as u8;
                self.regfile.seu_flip(r, s.bit);
            }
            SeuTarget::FlagFile => {
                let r = (u16::from(s.index) % self.cfg.flag_regs) as u8;
                self.flagfile.seu_flip(r, s.bit);
            }
            SeuTarget::ResultLatch | SeuTarget::Scoreboard => {
                unreachable!("pre-commit strike classes are applied in place")
            }
        }
    }

    /// Move parity mismatches caught by this cycle's reads into the
    /// in-band error queue (one `SoftError` per corrupted entry; the
    /// check scrubs the parity bit so each upset reports once).
    fn drain_parity_errors(&mut self) {
        for r in self.regfile.take_parity_errors() {
            self.recovery.seus_detected += 1;
            self.trace
                .record(self.cycle, TraceEventKind::SeuDetected { reg: r });
            self.watchdog_errors.push_back(DevMsg::Error {
                code: ErrorCode::SoftError,
                info: u32::from(r),
            });
        }
        for r in self.flagfile.take_parity_errors() {
            self.recovery.seus_detected += 1;
            self.trace
                .record(self.cycle, TraceEventKind::SeuDetected { reg: r });
            self.watchdog_errors.push_back(DevMsg::Error {
                code: ErrorCode::SoftError,
                info: u32::from(r),
            });
        }
    }

    /// Apply every strike that fell inside a just-skipped span (due at or
    /// before `self.cycle - 1`). Cell strikes flip directly — nothing
    /// read the entry during the provably-quiet span, so span-end
    /// application is bit-identical to per-cycle stepping. Latch strikes
    /// hit any unit still holding in-flight work (the pending flip is
    /// judged at the next retire, exactly as in the stepped path); a
    /// quiet span stages no register writes, so the fallback only ever
    /// absorbs.
    fn apply_span_strikes(&mut self) {
        let end = self.cycle - 1;
        while let Some(s) = self.seu.as_mut().and_then(|m| m.take(end)) {
            if let Some(cell) = self.apply_strike_pre_commit(s) {
                self.apply_cell_strike(cell);
            }
        }
    }

    /// Advance up to `n` cycles, stopping early when the machine drains.
    /// Returns the number of cycles actually stepped. Never skips cycles;
    /// [`Coprocessor::skip_to_next_event`] does that.
    pub fn step_n(&mut self, n: u64) -> u64 {
        let mut stepped = 0;
        while stepped < n && !self.is_idle() {
            self.step();
            stepped += 1;
        }
        stepped
    }

    /// Scheduling decision: is the machine provably quiet this cycle,
    /// and if so, when is its next internal wake?
    ///
    /// "Quiet" is weaker than [`Coprocessor::is_idle`]: units may be
    /// busy and the dispatcher head may be resident, as long as nothing
    /// *observable* can happen. Concretely, every inter-stage register
    /// except the decoded slot is empty, no unit holds an unretired
    /// completion, every active unit can bound its next change with a
    /// [`FunctionalUnit::wake_hint`], and a resident decoded head
    /// provably stalls on a cause that cannot change during the span
    /// (locks, quiescence and unit occupancy only change through arbiter
    /// or execution activity, which quietness excludes).
    ///
    /// On a quiet verdict the machine's deadlines — each active unit's
    /// next change, each active unit's watchdog deadline, the
    /// transceiver's retransmit deadline — are registered, and the
    /// earliest becomes the verdict. The caller combines it with its own
    /// external events and then either steps (something is due now) or
    /// calls [`Coprocessor::skip_quiet`];
    /// [`Coprocessor::skip_to_next_event`] does both.
    pub fn quiet_verdict(&mut self) -> QuietVerdict {
        self.armed = None;
        // Stage inputs and outputs must be empty: any resident item makes
        // a stage do observable work on the next step. A partial message
        // in the deframe buffer is frozen while the receive FIFO is
        // empty; the decoded head is dry-run classified below.
        if !(self.rx_fifo.is_idle()
            && self.msg_slot.is_idle()
            && self.exec_slot.is_idle()
            && self.resp_slot.is_idle()
            && self.dev_slot.is_idle()
            && self.tx_fifo.is_idle()
            && self.serializer.is_idle()
            && self.execution.is_idle()
            && self.arbiter.is_idle()
            && self.watchdog_errors.is_empty()
            && self
                .transceiver
                .as_ref()
                .is_none_or(|t| !t.has_deliverable() && !t.has_tx_work()))
        {
            return QuietVerdict::Busy;
        }
        let mut deadlines = Deadlines::default();
        // With no unit holding work and no head waiting, only the
        // transport can wake the machine: skip the per-unit scan.
        if self.n_active_fus > 0 || self.decoded_slot.has_data() {
            // A unit holding a completion gives the write arbiter work.
            for (i, fu) in self.fus.iter().enumerate() {
                if self.fu_active[i] && !self.fu_quarantined[i] && fu.peek_output().is_some() {
                    return QuietVerdict::Busy;
                }
            }
            // The decoded head must provably stall; a head that would
            // advance is work.
            if let Some(op) = self.decoded_slot.peek() {
                if Dispatcher::classify_head(op, &self.fus, &self.lock, &self.futable)
                    == StallClass::Progress
                {
                    return QuietVerdict::Busy;
                }
            }
            for i in 0..self.fus.len() {
                if !self.fu_active[i] || self.fu_quarantined[i] {
                    continue;
                }
                let Some(hint) = self.fus[i].wake_hint() else {
                    // The unit cannot bound its next change: step it.
                    self.wakes.wakes_scheduled += deadlines.registered;
                    return QuietVerdict::Busy;
                };
                deadlines.add(self.cycle.saturating_add(hint.max(1)));
                if let Some(max) = self.cfg.max_busy_cycles {
                    // The watchdog fires at the end of the step whose cycle
                    // reaches the deadline; that step must run for real.
                    deadlines.add(self.fu_last_progress[i].saturating_add(max));
                }
            }
        }
        if let Some(t) = self.transport_next_event() {
            deadlines.add(t);
        }
        self.wakes.wakes_scheduled += deadlines.registered;
        match deadlines.earliest {
            Some(t) if t <= self.cycle => QuietVerdict::Busy,
            Some(u64::MAX) | None => QuietVerdict::Indefinite,
            Some(t) => {
                self.armed = Some((self.cycle, deadlines));
                QuietVerdict::Until(t)
            }
        }
    }

    /// Jump the clock forward `cycles` through a span the last
    /// [`Coprocessor::quiet_verdict`] proved quiet, replaying exactly the
    /// bookkeeping the stepped cycles would have produced: storage
    /// lifetime statistics, busy-cycle counters, the dispatcher's
    /// per-cycle stall accounting (stats, lock counters and trace
    /// events), and each unit's internal progress
    /// ([`FunctionalUnit::advance_busy`] for active units,
    /// [`FunctionalUnit::advance_idle`] otherwise).
    ///
    /// `cycles` must not pass the verdict's wake (nor any external event
    /// the caller tracks); the caller picks the minimum.
    pub fn skip_quiet(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let k = cycles;
        let start = self.cycle;
        self.rx_fifo.note_idle_cycles(k);
        self.msg_slot.note_idle_cycles(k);
        if self.decoded_slot.has_data() {
            // A waiting head's issue clock starts when it first becomes
            // visible — the first cycle of the span if not already set.
            if self.decoded_since.is_none() {
                self.decoded_since = Some(start);
            }
            self.decoded_slot.note_held_cycles(k);
            self.stage_busy.dispatcher += k;
            let class = Dispatcher::classify_head(
                self.decoded_slot.peek().expect("head checked above"),
                &self.fus,
                &self.lock,
                &self.futable,
            );
            self.dispatcher
                .note_stalled_span(class, start, k, &mut self.lock, &mut self.trace);
        } else {
            self.decoded_slot.note_idle_cycles(k);
        }
        self.exec_slot.note_idle_cycles(k);
        self.resp_slot.note_idle_cycles(k);
        self.dev_slot.note_idle_cycles(k);
        self.tx_fifo.note_idle_cycles(k);
        if self.n_active_fus > 0 {
            // The arbiter's busy predicate holds whenever units are
            // active, even though its eval is a no-op with no completion
            // pending — identical accounting to the stepped path.
            self.stage_busy.arbiter += k;
        }
        for (i, fu) in self.fus.iter_mut().enumerate() {
            if self.fu_quarantined[i] {
                continue;
            }
            if self.fu_active[i] {
                fu.advance_busy(k);
            } else {
                fu.advance_idle(k);
            }
        }
        // Count the deadlines the span reaches. Only a verdict taken at
        // this very cycle registered any for it.
        if let Some((at, d)) = self.armed.take() {
            if at == start && d.earliest.is_some_and(|t| t <= start + k) {
                self.wakes.wakes_fired += d.ties;
            }
        }
        self.cycle += k;
        self.skipped_cycles += k;
        if self.seu.is_some() {
            self.apply_span_strikes();
        }
    }

    /// One scheduling decision for a host driving this machine: jump the
    /// clock over the quiet span ahead and return its length (0 means
    /// step normally; always 0 under [`ActivityMode::Exhaustive`]).
    ///
    /// The span ends at the earliest of the machine's next wake
    /// ([`Coprocessor::quiet_verdict`]), the host's next event and
    /// `budget` cycles. `host_next` is asked only when the machine is
    /// quiet; it returns the host's earliest pending event as an absolute
    /// cycle (link arrivals, a bandwidth gate reopening, endpoint
    /// retransmit deadlines), where an event at or before the current
    /// cycle means the host has work now. With no event anywhere the
    /// whole budget is skipped, so a timeout fires exactly when per-cycle
    /// stepping would fire it.
    pub fn skip_to_next_event(
        &mut self,
        budget: u64,
        host_next: impl FnOnce() -> Option<u64>,
    ) -> u64 {
        if self.activity == ActivityMode::Exhaustive {
            return 0;
        }
        let own = match self.quiet_verdict() {
            QuietVerdict::Busy => return 0,
            QuietVerdict::Until(t) => Some(t),
            QuietVerdict::Indefinite => None,
        };
        let skip = match own.into_iter().chain(host_next()).min() {
            Some(t) => t.saturating_sub(self.cycle).min(budget),
            None => budget,
        };
        self.skip_quiet(skip);
        skip
    }

    /// The current scheduling mode.
    pub fn activity_mode(&self) -> ActivityMode {
        self.activity
    }

    /// Select the scheduling mode. Safe at any time — both modes maintain
    /// the same bookkeeping and produce identical behaviour.
    pub fn set_activity_mode(&mut self, mode: ActivityMode) {
        self.activity = mode;
    }

    /// Scheduler statistics: how much work the simulator did to produce
    /// the simulated cycles so far.
    pub fn sim_stats(&self) -> SimStats {
        let e = &self.stage_evals;
        let b = &self.stage_busy;
        SimStats {
            cycles_simulated: self.cycle,
            cycles_stepped: self.cycle - self.skipped_cycles,
            cycles_skipped: self.skipped_cycles,
            stage_evals: vec![
                ("msgbuf", e.msgbuf),
                ("decoder", e.decoder),
                ("dispatcher", e.dispatcher),
                ("execution", e.execution),
                ("arbiter", e.arbiter),
                ("encoder", e.encoder),
                ("serializer", e.serializer),
            ],
            stage_busy: vec![
                ("msgbuf", b.msgbuf),
                ("decoder", b.decoder),
                ("dispatcher", b.dispatcher),
                ("execution", b.execution),
                ("arbiter", b.arbiter),
                ("encoder", b.encoder),
                ("serializer", b.serializer),
            ],
            lat_issue_dispatch: self.lat_issue_dispatch.clone(),
            lat_dispatch_retire: self.lat_dispatch_retire.clone(),
            lat_issue_retire: self.lat_issue_retire.clone(),
            wheel: self.wakes,
            recovery: self.recovery,
        }
    }

    /// Soft-error bookkeeping so far (strike outcomes; the rollback and
    /// farm counters stay zero at this layer — the host fills them in).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// True when neither register file holds a latent (not yet read)
    /// parity violation. Checkpoint logic uses this to refuse capturing a
    /// state with a silently corrupted memory cell — rolling back to such
    /// a checkpoint could never converge, because the replay would
    /// rediscover the same corruption. Trivially true with parity off.
    pub fn parity_clean(&self) -> bool {
        self.regfile.parity_clean() && self.flagfile.parity_clean()
    }

    /// True when no work is anywhere in the machine (including unread
    /// transmit frames).
    ///
    /// A fitted transceiver that is merely waiting on its retransmit
    /// timer *is* idle — nothing changes until the deadline, which
    /// [`Coprocessor::transport_next_event`] exposes so hosts can bound
    /// their fast-forwards. Pending deliveries, unsent wire frames and
    /// queued watchdog errors are work and hold the machine awake.
    pub fn is_idle(&self) -> bool {
        !self.msgbuf.mid_message() && self.pipeline_drained()
    }

    /// Every stage empty except possibly a partial message sitting in the
    /// deframe buffer. With a live peer more frames will arrive and the
    /// machine is merely between frames; if the sender gave up mid-message
    /// the machine is permanently stalled here, which hosts with a dead
    /// reliable link treat as settled (see `System::is_idle`).
    pub fn stalled_mid_message(&self) -> bool {
        self.msgbuf.mid_message() && self.pipeline_drained()
    }

    fn pipeline_drained(&self) -> bool {
        self.rx_fifo.is_idle()
            && self.msg_slot.is_idle()
            && self.decoded_slot.is_idle()
            && self.exec_slot.is_idle()
            && self.resp_slot.is_idle()
            && self.dev_slot.is_idle()
            && self.serializer.is_idle()
            && self.tx_fifo.is_idle()
            && self.lock.quiescent()
            && self.execution.is_idle()
            && self.arbiter.is_idle()
            && self.no_fu_activity()
            && self.watchdog_errors.is_empty()
            && self
                .transceiver
                .as_ref()
                .is_none_or(|t| !t.has_deliverable() && !t.has_tx_work())
    }

    /// O(1) stand-in for scanning every unit: the active set is exact
    /// after each step (units are registered at dispatch and retired in
    /// the post-commit sweep), so an empty set means every unit is idle.
    /// Quarantined units are exempt — a hung unit stays busy forever by
    /// definition, but it is unclocked and off the scoreboard.
    fn no_fu_activity(&self) -> bool {
        debug_assert_eq!(
            self.n_active_fus == 0,
            self.fus
                .iter()
                .enumerate()
                .all(|(i, f)| f.is_idle() || self.fu_quarantined[i]),
            "active-unit bookkeeping diverged from unit state"
        );
        self.n_active_fus == 0
    }

    /// Transport statistics, when a reliable transceiver is fitted.
    pub fn transport_stats(&self) -> Option<TransportStats> {
        self.transceiver.as_ref().map(|t| t.stats())
    }

    /// True when the fitted transceiver (if any) has delivered and had
    /// acknowledged all traffic. Distinct from [`Coprocessor::is_idle`]:
    /// an endpoint waiting for a peer's ack is idle but not quiescent.
    pub fn transport_quiescent(&self) -> bool {
        self.transceiver.as_ref().is_none_or(|t| t.is_quiescent())
    }

    /// The transceiver's retransmit deadline, for event-driven hosts:
    /// fast-forwarding past it would delay a retransmission.
    pub fn transport_next_event(&self) -> Option<u64> {
        self.transceiver.as_ref().and_then(|t| t.next_event_cycle())
    }

    /// Step until idle, with a cycle budget.
    ///
    /// # Errors
    /// Returns [`SimError::Timeout`] when the budget is exhausted — the
    /// usual symptom of a deadlocked handshake or an unserviced read.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        let start = self.cycle;
        loop {
            if self.is_idle() {
                return Ok(self.cycle - start);
            }
            let elapsed = self.cycle - start;
            if elapsed >= max_cycles {
                return Err(SimError::Timeout {
                    cycles: max_cycles,
                    waiting_for: "coprocessor idle".into(),
                });
            }
            // Batched stepping: step_n stops exactly at the first idle
            // cycle, so the drain cycle count matches per-cycle stepping.
            self.step_n((max_cycles - elapsed).min(64));
        }
    }

    /// Convenience harness: feed a message batch through the frame port,
    /// run to idle, and return the responses — the loop every host-less
    /// test and experiment would otherwise re-implement. Respects frame
    /// flow control; does not model link timing (use `fu-host` for that).
    ///
    /// # Errors
    /// [`SimError::Timeout`] when `max_cycles` elapse before the machine
    /// drains.
    pub fn run_messages(
        &mut self,
        msgs: &[fu_isa::HostMsg],
        max_cycles: u64,
    ) -> Result<Vec<DevMsg>, SimError> {
        let word_bits = self.cfg.word_bits;
        // One queue allocation for the whole batch; `frames()` serialises
        // each message without a per-message Vec.
        let mut frames: std::collections::VecDeque<u32> =
            msgs.iter().flat_map(|m| m.frames(word_bits)).collect();
        let mut deframer = fu_isa::msg::DevDeframer::new(word_bits);
        let mut out = Vec::new();
        let start = self.cycle;
        loop {
            while let Some(&f) = frames.front() {
                if self.push_frame(f) {
                    frames.pop_front();
                } else {
                    break;
                }
            }
            self.step();
            while let Some(f) = self.pop_frame() {
                if let Some(m) = deframer
                    .push(f)
                    .expect("the serialiser emits well-formed frames")
                {
                    out.push(m);
                }
            }
            if frames.is_empty() && self.is_idle() {
                return Ok(out);
            }
            if self.cycle - start >= max_cycles {
                return Err(SimError::Timeout {
                    cycles: max_cycles,
                    waiting_for: "message batch to drain".into(),
                });
            }
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> CoprocStats {
        let (frames_in, msgs_in) = self.msgbuf.counters();
        let (decoded, decode_errors) = self.decoder.counters();
        let (fu_completions, arb_data_writes, arb_flag_writes, arb_contention) =
            self.arbiter.counters();
        let (exec_data_writes, exec_flag_writes, _resp, _stall) = self.execution.counters();
        let (d, f, s, e) = self.encoder.counters();
        let (_msgs, frames_out) = self.serializer.counters();
        CoprocStats {
            cycles: self.cycle,
            frames_in,
            msgs_in,
            decoded,
            decode_errors,
            dispatch: self.dispatcher.stats,
            fu_completions,
            arb_data_writes,
            arb_flag_writes,
            arb_contention,
            exec_data_writes,
            exec_flag_writes,
            responses: d + f + s + e,
            frames_out,
            fu_timeouts: self.fu_timeouts,
        }
    }

    /// Snapshot of the machine's observable signals this cycle — the
    /// probe points a waveform viewer would attach to (see the
    /// `waveform_trace` example for VCD export).
    pub fn probe(&self) -> CoprocProbe {
        CoprocProbe {
            rx_level: self.rx_fifo.len() as u32,
            msg_valid: self.msg_slot.has_data(),
            decoded_valid: self.decoded_slot.has_data(),
            exec_valid: self.exec_slot.has_data(),
            resp_valid: self.resp_slot.has_data(),
            dev_valid: self.dev_slot.has_data(),
            tx_level: self.tx_fifo.len() as u32,
            in_flight: self.lock.in_flight() as u32,
            fus_busy: self.fus.iter().filter(|f| !f.is_idle()).count() as u32,
        }
    }

    /// Diagnostic read of a data register (not a simulated port).
    pub fn peek_reg(&self, r: u8) -> Word {
        self.regfile.peek(r)
    }

    /// Diagnostic read of a flag register.
    pub fn peek_flags(&self, r: u8) -> Flags {
        self.flagfile.peek(r)
    }

    /// The functional unit table.
    pub fn futable(&self) -> &FuTable {
        &self.futable
    }

    /// Attached units (for diagnostics/experiments).
    pub fn units(&self) -> &[Box<dyn FunctionalUnit>] {
        &self.fus
    }

    /// The retained trace, if tracing was enabled.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Resize (or enable/disable) the event trace at run time. `0`
    /// disables tracing; any other value installs a fresh ring buffer of
    /// that capacity, discarding previously retained events. Latency
    /// histograms and busy counters are unaffected — they are always on,
    /// which is what keeps [`Coprocessor::sim_stats`] identical whether
    /// or not tracing is enabled.
    pub fn set_trace_depth(&mut self, depth: usize) {
        self.cfg.trace_depth = depth;
        self.trace = if depth > 0 {
            TraceBuffer::new(depth)
        } else {
            TraceBuffer::disabled()
        };
    }

    /// Total area estimate: framework plus attached units.
    pub fn area(&self) -> AreaEstimate {
        self.framework_area() + self.fus.iter().map(|f| f.area()).sum()
    }

    /// Area of the framework alone (the reusable part).
    pub fn framework_area(&self) -> AreaEstimate {
        let w = self.cfg.word_bits as u64;
        let nfu = self.fus.len().max(1) as u64;
        self.regfile.area()
            + self.flagfile.area()
            + AreaEstimate::fifo(32, self.cfg.rx_fifo_depth as u64)
            + AreaEstimate::fifo(32, self.cfg.tx_fifo_depth as u64)
            // message buffer / serialiser shift structures
            + AreaEstimate::register(2 * w + 64)
            // decoder LUTs + pipeline registers
            + AreaEstimate {
                les: 150,
                ffs: 80 + w,
                bram_bits: 0,
            }
            // dispatcher: operand muxes and lock checks
            + AreaEstimate::mux2(3 * w)
            + AreaEstimate::register(3 * w + 32)
            // lock manager: one bit per register plus decode
            + AreaEstimate {
                les: (self.cfg.data_regs + self.cfg.flag_regs) as u64 / 2,
                ffs: (self.cfg.data_regs + self.cfg.flag_regs) as u64,
                bram_bits: 0,
            }
            // write arbiter: grant tree and result muxes
            + AreaEstimate::mux2(nfu * w)
            + AreaEstimate {
                les: 8 * nfu,
                ffs: 16,
                bram_bits: 0,
            }
    }

    /// Worst combinational depth per stage (the design's clock-period
    /// profile; E5).
    pub fn stage_critical_paths(&self) -> Vec<(&'static str, CriticalPath)> {
        let regs = self.cfg.data_regs.max(self.cfg.flag_regs) as u64;
        let nfu = self.fus.len().max(1) as u64;
        let mut v = vec![
            ("message buffer", CriticalPath::of(4)),
            ("decoder", CriticalPath::of(5)),
            (
                "dispatcher",
                // register-file read mux + lock lookup + handshake
                CriticalPath::of(log2_ceil(regs) + 3),
            ),
            ("execution", CriticalPath::of(3)),
            (
                "write arbiter",
                CriticalPath::tree(nfu, 2).then(CriticalPath::of(2)),
            ),
            ("message encoder", CriticalPath::of(3)),
            ("message serialiser", CriticalPath::of(3)),
        ];
        for fu in &self.fus {
            v.push((fu.name(), fu.critical_path()));
        }
        v
    }

    /// The design's overall critical path (worst stage).
    pub fn critical_path(&self) -> CriticalPath {
        self.stage_critical_paths()
            .into_iter()
            .map(|(_, p)| p)
            .fold(CriticalPath::of(0), CriticalPath::max)
    }

    /// Synchronous reset of the entire design.
    pub fn reset(&mut self) {
        self.msgbuf.reset();
        self.decoder.reset();
        self.dispatcher.reset();
        self.execution.reset();
        self.arbiter.reset();
        self.encoder.reset();
        self.serializer.reset();
        self.regfile.reset();
        self.flagfile.reset();
        self.lock.reset();
        self.rx_fifo.reset();
        self.msg_slot.reset();
        self.decoded_slot.reset();
        self.exec_slot.reset();
        self.resp_slot.reset();
        self.dev_slot.reset();
        self.tx_fifo.reset();
        for fu in &mut self.fus {
            fu.reset();
        }
        self.trace.clear();
        self.cycle = 0;
        self.fu_active.fill(false);
        self.n_active_fus = 0;
        self.skipped_cycles = 0;
        self.stage_evals = StageEvals::default();
        self.stage_busy = StageEvals::default();
        self.decoded_since = None;
        self.lat_inflight.clear();
        self.lat_issue_dispatch = LatencyHistogram::default();
        self.lat_dispatch_retire = LatencyHistogram::default();
        self.lat_issue_retire = LatencyHistogram::default();
        if let Some(t) = self.transceiver.as_mut() {
            t.reset();
        }
        self.futable.clear_quarantine();
        self.armed = None;
        self.wakes = WheelStats::default();
        self.fu_last_progress.fill(0);
        for v in &mut self.fu_outstanding {
            v.clear();
        }
        self.fu_quarantined.fill(false);
        self.watchdog_errors.clear();
        self.fu_timeouts = 0;
        self.seu = self.cfg.seu.map(SeuModel::new);
        self.recovery = RecoveryStats::default();
    }

    /// Deep-copy the whole machine. `None` when an attached unit does not
    /// implement [`FunctionalUnit::clone_unit`].
    fn clone_state(&self) -> Option<Coprocessor> {
        let mut fus = Vec::with_capacity(self.fus.len());
        for f in &self.fus {
            fus.push(f.clone_unit()?);
        }
        Some(Coprocessor {
            cfg: self.cfg.clone(),
            msgbuf: self.msgbuf.clone(),
            decoder: self.decoder.clone(),
            dispatcher: self.dispatcher.clone(),
            execution: self.execution.clone(),
            arbiter: self.arbiter.clone(),
            encoder: self.encoder.clone(),
            serializer: self.serializer.clone(),
            regfile: self.regfile.clone(),
            flagfile: self.flagfile.clone(),
            lock: self.lock.clone(),
            futable: self.futable.clone(),
            fus,
            rx_fifo: self.rx_fifo.clone(),
            msg_slot: self.msg_slot.clone(),
            decoded_slot: self.decoded_slot.clone(),
            exec_slot: self.exec_slot.clone(),
            resp_slot: self.resp_slot.clone(),
            dev_slot: self.dev_slot.clone(),
            tx_fifo: self.tx_fifo.clone(),
            cycle: self.cycle,
            trace: self.trace.clone(),
            activity: self.activity,
            fu_active: self.fu_active.clone(),
            n_active_fus: self.n_active_fus,
            fu_always_clock: self.fu_always_clock.clone(),
            skipped_cycles: self.skipped_cycles,
            stage_evals: self.stage_evals,
            stage_busy: self.stage_busy,
            decoded_since: self.decoded_since,
            lat_inflight: self.lat_inflight.clone(),
            lat_issue_dispatch: self.lat_issue_dispatch.clone(),
            lat_dispatch_retire: self.lat_dispatch_retire.clone(),
            lat_issue_retire: self.lat_issue_retire.clone(),
            transceiver: self.transceiver.clone(),
            fu_last_progress: self.fu_last_progress.clone(),
            fu_outstanding: self.fu_outstanding.clone(),
            fu_quarantined: self.fu_quarantined.clone(),
            watchdog_errors: self.watchdog_errors.clone(),
            fu_timeouts: self.fu_timeouts,
            armed: self.armed,
            wakes: self.wakes,
            seu: self.seu.clone(),
            recovery: self.recovery,
        })
    }

    /// Capture a restorable checkpoint of the full device state —
    /// architectural registers, every pipeline latch, in-flight unit
    /// work, the transceiver and the scheduler bookkeeping. `None` when
    /// an attached unit cannot be cloned (see
    /// [`FunctionalUnit::clone_unit`]).
    pub fn snapshot(&self) -> Option<CoprocSnapshot> {
        self.clone_state().map(|c| CoprocSnapshot(Box::new(c)))
    }

    /// Roll the machine back to `snap`. The SEU strike schedule and the
    /// recovery counters deliberately survive the restore: rewinding the
    /// schedule would replay the identical strikes into every retry and
    /// the rollback loop would never converge, and the counters describe
    /// history, not machine state.
    pub fn restore(&mut self, snap: &CoprocSnapshot) {
        let mut fresh = snap
            .0
            .clone_state()
            .expect("snapshot was built from clonable units");
        fresh.seu = self.seu.take();
        fresh.recovery = self.recovery;
        *self = fresh;
    }
}

/// A restorable deep copy of a [`Coprocessor`] (see
/// [`Coprocessor::snapshot`]). Opaque: it can only be fed back to
/// [`Coprocessor::restore`], any number of times.
pub struct CoprocSnapshot(Box<Coprocessor>);

impl Clone for CoprocSnapshot {
    fn clone(&self) -> Self {
        CoprocSnapshot(Box::new(
            self.0
                .clone_state()
                .expect("snapshot was built from clonable units"),
        ))
    }
}

impl std::fmt::Debug for Coprocessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coprocessor")
            .field("cycle", &self.cycle)
            .field("config", &self.cfg)
            .field("units", &self.fus.len())
            .field("idle", &self.is_idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{LatencyFu, StuckFu};
    use fu_isa::msg::DevDeframer;
    use fu_isa::transport::{Endpoint, TransportConfig};
    use fu_isa::{HostMsg, InstrWord, MgmtOp, UserInstr};

    fn machine(units: Vec<Box<dyn FunctionalUnit>>) -> Coprocessor {
        let cfg = CoprocConfig {
            data_regs: 16,
            flag_regs: 4,
            rx_frames_per_cycle: 4,
            tx_frames_per_cycle: 4,
            ..CoprocConfig::default()
        };
        Coprocessor::new(cfg, units).unwrap()
    }

    /// Feed a message stream, run to idle, return the responses.
    fn run(coproc: &mut Coprocessor, msgs: Vec<HostMsg>) -> Vec<DevMsg> {
        let word_bits = coproc.config().word_bits;
        let mut frames: std::collections::VecDeque<u32> =
            msgs.iter().flat_map(|m| m.to_frames(word_bits)).collect();
        let mut deframer = DevDeframer::new(word_bits);
        let mut out = Vec::new();
        let mut budget = 100_000;
        loop {
            while let Some(&f) = frames.front() {
                if coproc.push_frame(f) {
                    frames.pop_front();
                } else {
                    break;
                }
            }
            coproc.step();
            while let Some(f) = coproc.pop_frame() {
                if let Some(m) = deframer.push(f).unwrap() {
                    out.push(m);
                }
            }
            if frames.is_empty() && coproc.is_idle() {
                break;
            }
            budget -= 1;
            assert!(budget > 0, "machine failed to drain");
        }
        out
    }

    fn add_instr(dst: u8, s1: u8, s2: u8) -> HostMsg {
        // LatencyFu ignores its variety; any value works.
        HostMsg::Instr(InstrWord::user(UserInstr {
            func: 1,
            variety: 0,
            dst_flag: 1,
            dst_reg: dst,
            aux_reg: 0,
            src1: s1,
            src2: s2,
            src3: 0,
        }))
    }

    #[test]
    fn write_read_roundtrip_without_units() {
        let mut m = machine(vec![]);
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 3,
                    value: Word::from_u64(42, 32),
                },
                HostMsg::ReadReg { reg: 3, tag: 7 },
            ],
        );
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 7,
                value: Word::from_u64(42, 32)
            }]
        );
    }

    #[test]
    fn user_instruction_computes_through_unit() {
        let mut m = machine(vec![Box::new(LatencyFu::new("add", 1, 2))]);
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(30, 32),
                },
                HostMsg::WriteReg {
                    reg: 2,
                    value: Word::from_u64(12, 32),
                },
                add_instr(3, 1, 2),
                HostMsg::ReadReg { reg: 3, tag: 1 },
                HostMsg::ReadFlags { reg: 1, tag: 2 },
            ],
        );
        assert_eq!(
            out[0],
            DevMsg::Data {
                tag: 1,
                value: Word::from_u64(42, 32)
            }
        );
        // 30 + 12: no carry, not zero, not negative.
        assert_eq!(
            out[1],
            DevMsg::Flags {
                tag: 2,
                flags: Flags::NONE
            }
        );
        let stats = m.stats();
        assert_eq!(stats.dispatch.user_dispatched, 1);
        assert_eq!(stats.fu_completions, 1);
    }

    #[test]
    fn read_after_use_waits_for_completion() {
        // The ReadReg must stall on the lock until the 20-cycle unit
        // completes — the host never sees a stale value.
        let mut m = machine(vec![Box::new(LatencyFu::new("slow", 1, 20))]);
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(5, 32),
                },
                add_instr(2, 1, 1),
                HostMsg::ReadReg { reg: 2, tag: 9 },
            ],
        );
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 9,
                value: Word::from_u64(10, 32)
            }]
        );
        assert!(
            m.stats().dispatch.stall_lock > 0,
            "the read must have stalled"
        );
    }

    #[test]
    fn sync_acks_after_quiescence() {
        let mut m = machine(vec![Box::new(LatencyFu::new("slow", 1, 10))]);
        let out = run(&mut m, vec![add_instr(2, 1, 1), HostMsg::Sync { tag: 4 }]);
        assert_eq!(out, vec![DevMsg::SyncAck { tag: 4 }]);
        assert!(m.stats().dispatch.stall_fence > 0);
    }

    #[test]
    fn errors_are_reported_in_stream_order() {
        let mut m = machine(vec![Box::new(LatencyFu::new("u", 1, 1))]);
        let out = run(
            &mut m,
            vec![
                HostMsg::ReadReg { reg: 0, tag: 1 },
                // unknown unit
                HostMsg::Instr(InstrWord::user(UserInstr {
                    func: 77,
                    variety: 0,
                    dst_flag: 0,
                    dst_reg: 0,
                    aux_reg: 0,
                    src1: 0,
                    src2: 0,
                    src3: 0,
                })),
                HostMsg::ReadReg { reg: 0, tag: 2 },
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], DevMsg::Data { tag: 1, .. }));
        assert!(matches!(
            out[1],
            DevMsg::Error {
                code: fu_isa::msg::ErrorCode::NoSuchUnit,
                info: 77
            }
        ));
        assert!(matches!(out[2], DevMsg::Data { tag: 2, .. }));
    }

    #[test]
    fn mgmt_copy_and_fence() {
        let mut m = machine(vec![]);
        let out = run(
            &mut m,
            vec![
                HostMsg::Instr(
                    MgmtOp::LoadImm {
                        dst: 1,
                        imm: 0xbeef,
                    }
                    .encode(),
                ),
                HostMsg::Instr(MgmtOp::Copy { dst: 2, src: 1 }.encode()),
                HostMsg::Instr(MgmtOp::Fence.encode()),
                HostMsg::ReadReg { reg: 2, tag: 0 },
            ],
        );
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 0,
                value: Word::from_u64(0xbeef, 32)
            }]
        );
    }

    #[test]
    fn copy_chain_respects_data_hazards() {
        // r1 <- 7; r2 <- r1; r3 <- r2; read r3. Each copy depends on the
        // previous one's write; the interlocks must serialise correctly.
        let mut m = machine(vec![]);
        let out = run(
            &mut m,
            vec![
                HostMsg::Instr(MgmtOp::LoadImm { dst: 1, imm: 7 }.encode()),
                HostMsg::Instr(MgmtOp::Copy { dst: 2, src: 1 }.encode()),
                HostMsg::Instr(MgmtOp::Copy { dst: 3, src: 2 }.encode()),
                HostMsg::ReadReg { reg: 3, tag: 0 },
            ],
        );
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 0,
                value: Word::from_u64(7, 32)
            }]
        );
    }

    #[test]
    fn out_of_order_completion_preserves_architectural_state() {
        // Unit 1 is slow, unit 2 fast; issue slow-then-fast with distinct
        // destinations. The fast result is written first internally, but
        // both reads observe correct values.
        let mut m = machine(vec![
            Box::new(LatencyFu::new("slow", 1, 30)),
            Box::new(LatencyFu::new("fast", 2, 1)),
        ]);
        let fast_instr = HostMsg::Instr(InstrWord::user(UserInstr {
            func: 2,
            variety: 0,
            dst_flag: 2,
            dst_reg: 4,
            aux_reg: 0,
            src1: 1,
            src2: 1,
            src3: 0,
        }));
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(3, 32),
                },
                add_instr(3, 1, 1), // slow: r3 = 6
                fast_instr,         // fast: r4 = 6
                HostMsg::ReadReg { reg: 4, tag: 1 },
                HostMsg::ReadReg { reg: 3, tag: 2 },
            ],
        );
        assert_eq!(
            out,
            vec![
                DevMsg::Data {
                    tag: 1,
                    value: Word::from_u64(6, 32)
                },
                DevMsg::Data {
                    tag: 2,
                    value: Word::from_u64(6, 32)
                },
            ]
        );
    }

    #[test]
    fn waw_interlock_orders_same_destination() {
        // Two instructions target r3: slow first, fast second. Without the
        // WAW interlock the fast unit would write first and the slow write
        // would clobber it; the lock manager must serialise them.
        let mut m = machine(vec![
            Box::new(LatencyFu::new("slow", 1, 25)),
            Box::new(LatencyFu::new("fast", 2, 1)),
        ]);
        let fast_to_r3 = HostMsg::Instr(InstrWord::user(UserInstr {
            func: 2,
            variety: 0,
            dst_flag: 2,
            dst_reg: 3,
            aux_reg: 0,
            src1: 2,
            src2: 2,
            src3: 0,
        }));
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(10, 32),
                },
                HostMsg::WriteReg {
                    reg: 2,
                    value: Word::from_u64(50, 32),
                },
                add_instr(3, 1, 1), // slow: r3 = 20
                fast_to_r3,         // fast: r3 = 100 — must come second
                HostMsg::ReadReg { reg: 3, tag: 0 },
            ],
        );
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 0,
                value: Word::from_u64(100, 32)
            }]
        );
    }

    #[test]
    fn bad_register_is_reported() {
        let mut m = machine(vec![]);
        let out = run(&mut m, vec![HostMsg::ReadReg { reg: 200, tag: 0 }]);
        assert_eq!(
            out,
            vec![DevMsg::Error {
                code: fu_isa::msg::ErrorCode::BadRegister,
                info: 200
            }]
        );
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut m = machine(vec![Box::new(LatencyFu::new("u", 1, 3))]);
        let _ = run(
            &mut m,
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(9, 32),
                },
                add_instr(2, 1, 1),
                HostMsg::Sync { tag: 0 },
            ],
        );
        m.reset();
        assert!(m.is_idle());
        assert_eq!(m.cycle(), 0);
        assert!(m.peek_reg(1).is_zero());
        assert_eq!(m.stats(), CoprocStats::default());
    }

    #[test]
    fn probe_reflects_pipeline_activity() {
        let mut m = machine(vec![Box::new(LatencyFu::new("slow", 1, 30))]);
        let idle = m.probe();
        assert_eq!(idle.rx_level, 0);
        assert_eq!(idle.in_flight, 0);
        assert_eq!(idle.fus_busy, 0);
        // Inject work and observe the scoreboard and unit occupancy.
        let msgs = vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(2, 32),
            },
            add_instr(2, 1, 1),
        ];
        for msg in &msgs {
            for f in msg.to_frames(32) {
                assert!(m.push_frame(f));
            }
        }
        let mut saw_busy = false;
        for _ in 0..10 {
            m.step();
            let p = m.probe();
            if p.in_flight > 0 && p.fus_busy > 0 {
                saw_busy = true;
            }
        }
        assert!(saw_busy, "the probe must expose in-flight work");
        m.run_until_idle(1000).unwrap();
        let done = m.probe();
        assert_eq!(done.in_flight, 0);
        assert_eq!(done.fus_busy, 0);
    }

    #[test]
    fn trace_records_dispatches_when_enabled() {
        let cfg = CoprocConfig {
            rx_frames_per_cycle: 8,
            trace_depth: 64,
            ..CoprocConfig::default()
        };
        let mut m = Coprocessor::new(cfg, vec![Box::new(LatencyFu::new("u", 1, 1))]).unwrap();
        let msgs = vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(1, 32),
            },
            add_instr(2, 1, 1),
            add_instr(3, 1, 1),
        ];
        let _ = m.run_messages(&msgs, 10_000).unwrap();
        let dispatches = m
            .trace()
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::FuDispatch { .. }))
            .count();
        assert_eq!(dispatches, 2, "one trace event per user dispatch");
        // Disabled tracing records nothing.
        let mut quiet = machine(vec![Box::new(LatencyFu::new("u", 1, 1))]);
        let _ = quiet.run_messages(&[add_instr(2, 1, 1)], 10_000).unwrap();
        assert_eq!(quiet.trace().events().count(), 0);
    }

    #[test]
    fn area_and_critical_path_reports() {
        let m = machine(vec![Box::new(LatencyFu::new("u", 1, 1))]);
        let area = m.area();
        assert!(area.les > 0 && area.ffs > 0);
        assert!(area.components() > m.framework_area().components());
        let paths = m.stage_critical_paths();
        assert!(paths.iter().any(|(n, _)| *n == "dispatcher"));
        assert!(m.critical_path().levels >= 5);
        // The pipelined controller should permit tens of MHz, the band the
        // paper's Cyclone prototype reports.
        assert!(m.critical_path().fmax_mhz() > 30.0);
    }

    fn stuck_instr(dst: u8) -> HostMsg {
        HostMsg::Instr(InstrWord::user(UserInstr {
            func: 9,
            variety: 0,
            dst_flag: 3,
            dst_reg: dst,
            aux_reg: 0,
            src1: 0,
            src2: 0,
            src3: 0,
        }))
    }

    fn watchdog_machine() -> Coprocessor {
        let cfg = CoprocConfig {
            data_regs: 16,
            flag_regs: 4,
            rx_frames_per_cycle: 4,
            tx_frames_per_cycle: 4,
            max_busy_cycles: Some(40),
            ..CoprocConfig::default()
        };
        Coprocessor::new(
            cfg,
            vec![
                Box::new(StuckFu::new("hang", 9)),
                Box::new(LatencyFu::new("add", 1, 2)),
            ],
        )
        .unwrap()
    }

    fn watchdog_workload() -> Vec<HostMsg> {
        vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(30, 32),
            },
            HostMsg::WriteReg {
                reg: 2,
                value: Word::from_u64(12, 32),
            },
            stuck_instr(5),
            add_instr(3, 1, 2),
            HostMsg::ReadReg { reg: 3, tag: 1 },
            HostMsg::Sync { tag: 4 },
        ]
    }

    #[test]
    fn watchdog_quarantines_hung_unit_and_reports_in_band() {
        let mut m = watchdog_machine();
        let out = run(&mut m, watchdog_workload());
        // The hung dispatch is reported in band; the healthy unit's
        // result and the fence both still complete.
        assert!(out.contains(&DevMsg::Error {
            code: ErrorCode::FuTimeout,
            info: 9
        }));
        assert!(out.contains(&DevMsg::Data {
            tag: 1,
            value: Word::from_u64(42, 32)
        }));
        assert!(out.contains(&DevMsg::SyncAck { tag: 4 }));
        assert_eq!(m.stats().fu_timeouts, 1);
        assert!(m.futable().is_quarantined(0));
        // Later dispatches to the quarantined unit fail fast, and the
        // rest of the machine keeps working.
        let out2 = run(
            &mut m,
            vec![stuck_instr(6), HostMsg::ReadReg { reg: 3, tag: 7 }],
        );
        assert_eq!(
            out2[0],
            DevMsg::Error {
                code: ErrorCode::FuQuarantined,
                info: 9
            }
        );
        assert!(matches!(out2[1], DevMsg::Data { tag: 7, .. }));
        // Reset restores the quarantined unit.
        m.reset();
        assert!(!m.futable().is_quarantined(0));
        assert_eq!(m.stats().fu_timeouts, 0);
    }

    #[test]
    fn watchdog_releases_locks_of_the_hung_dispatch() {
        let mut m = watchdog_machine();
        // The read of the stuck instruction's destination stalls on its
        // lock; the quarantine must release it so the read completes
        // (with the stale register value) instead of wedging forever.
        let out = run(
            &mut m,
            vec![stuck_instr(5), HostMsg::ReadReg { reg: 5, tag: 2 }],
        );
        assert!(out.contains(&DevMsg::Error {
            code: ErrorCode::FuTimeout,
            info: 9
        }));
        assert!(matches!(out[1], DevMsg::Data { tag: 2, .. }));
    }

    #[test]
    fn watchdog_behaviour_is_identical_in_all_activity_modes() {
        let run_mode = |mode: ActivityMode| {
            let mut m = watchdog_machine();
            m.set_activity_mode(mode);
            let out = run(&mut m, watchdog_workload());
            (out, m.cycle(), m.stats().fu_timeouts)
        };
        assert_eq!(
            run_mode(ActivityMode::Scheduled),
            run_mode(ActivityMode::Exhaustive)
        );
    }

    /// Drive a coprocessor the way the event-scheduled kernel does:
    /// consult [`Coprocessor::quiet_verdict`] whenever no input is
    /// pending and jump quiet spans with [`Coprocessor::skip_quiet`],
    /// stepping everything else cycle by cycle.
    fn run_scheduled(coproc: &mut Coprocessor, msgs: Vec<HostMsg>) -> Vec<DevMsg> {
        let word_bits = coproc.config().word_bits;
        let mut frames: std::collections::VecDeque<u32> =
            msgs.iter().flat_map(|m| m.to_frames(word_bits)).collect();
        let mut deframer = DevDeframer::new(word_bits);
        let mut out = Vec::new();
        let mut budget = 100_000;
        loop {
            while let Some(&f) = frames.front() {
                if coproc.push_frame(f) {
                    frames.pop_front();
                } else {
                    break;
                }
            }
            let skip = if frames.is_empty() {
                match coproc.quiet_verdict() {
                    QuietVerdict::Until(t) => t - coproc.cycle(),
                    QuietVerdict::Busy | QuietVerdict::Indefinite => 0,
                }
            } else {
                0
            };
            if skip > 0 {
                coproc.skip_quiet(skip);
            } else {
                coproc.step();
            }
            while let Some(f) = coproc.pop_frame() {
                if let Some(m) = deframer.push(f).unwrap() {
                    out.push(m);
                }
            }
            if frames.is_empty() && coproc.is_idle() {
                break;
            }
            budget -= 1;
            assert!(budget > 0, "machine failed to drain");
        }
        out
    }

    #[test]
    fn scheduled_kernel_matches_stepped_gated_execution() {
        // A long-latency unit plus a RAW-dependent follow-up: the skip
        // path must cross both a plain busy span and a span in which the
        // dispatcher head stalls on a lock, replaying stall statistics
        // and trace events identically.
        let mk = || {
            let cfg = CoprocConfig {
                data_regs: 16,
                flag_regs: 4,
                rx_frames_per_cycle: 4,
                tx_frames_per_cycle: 4,
                trace_depth: 512,
                ..CoprocConfig::default()
            };
            Coprocessor::new(cfg, vec![Box::new(LatencyFu::new("slow", 1, 37)) as _]).unwrap()
        };
        // Two phases: the compute batch first (so nothing queues up
        // behind the stalled head and spoils quietness — a message
        // waiting in the pipe is work), then the readback.
        let compute = || {
            vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(30, 32),
                },
                HostMsg::WriteReg {
                    reg: 2,
                    value: Word::from_u64(12, 32),
                },
                add_instr(3, 1, 2),
                add_instr(4, 3, 3),
            ]
        };
        let readback = || {
            vec![
                HostMsg::ReadReg { reg: 4, tag: 9 },
                HostMsg::Sync { tag: 5 },
            ]
        };
        // `run` steps every cycle; `run_scheduled` skips quiet spans.
        let mut stepped = mk();
        let mut out_st = run(&mut stepped, compute());
        out_st.extend(run(&mut stepped, readback()));
        let mut sched = mk();
        let mut out_s = run_scheduled(&mut sched, compute());
        out_s.extend(run_scheduled(&mut sched, readback()));

        assert_eq!(out_st, out_s);
        assert_eq!(stepped.cycle(), sched.cycle());
        assert_eq!(stepped.stats(), sched.stats(), "CoprocStats incl. stalls");
        let (sg, ss) = (stepped.sim_stats(), sched.sim_stats());
        assert_eq!(sg.stage_busy, ss.stage_busy);
        assert_eq!(sg.lat_issue_dispatch, ss.lat_issue_dispatch);
        assert_eq!(sg.lat_dispatch_retire, ss.lat_dispatch_retire);
        assert_eq!(sg.lat_issue_retire, ss.lat_issue_retire);
        let tg: Vec<_> = stepped.trace().events().collect();
        let ts: Vec<_> = sched.trace().events().collect();
        assert_eq!(tg, ts, "trace streams identical across kernels");
        assert!(
            ss.cycles_skipped > 30,
            "the busy span was actually skipped (skipped {})",
            ss.cycles_skipped
        );
        assert!(ss.wheel.wakes_scheduled > 0 && ss.wheel.wakes_fired > 0);
    }

    #[test]
    fn scheduled_kernel_handles_watchdog_deadline() {
        // The hung unit hints "forever"; only the watchdog deadline
        // bounds the skip, and the deadline cycle itself must be stepped
        // so quarantine fires exactly as in stepped execution.
        let mut stepped = watchdog_machine();
        let out_st = run(&mut stepped, watchdog_workload());
        let mut sched = watchdog_machine();
        let out_s = run_scheduled(&mut sched, watchdog_workload());
        assert_eq!(out_st, out_s);
        assert_eq!(stepped.cycle(), sched.cycle());
        assert_eq!(stepped.stats(), sched.stats());
        assert_eq!(stepped.stats().fu_timeouts, 1, "watchdog actually fired");
    }

    #[test]
    fn transceiver_port_carries_messages_over_wire_segments() {
        let tcfg = TransportConfig::default();
        let cfg = CoprocConfig {
            rx_frames_per_cycle: 4,
            tx_frames_per_cycle: 4,
            transport: Some(tcfg),
            ..CoprocConfig::default()
        };
        let mut m = Coprocessor::new(cfg, vec![]).unwrap();
        let mut host = Endpoint::new(tcfg);
        let msgs = [
            HostMsg::WriteReg {
                reg: 3,
                value: Word::from_u64(42, 32),
            },
            HostMsg::ReadReg { reg: 3, tag: 7 },
        ];
        for msg in &msgs {
            for f in msg.to_frames(32) {
                host.send(f);
            }
        }
        let mut deframer = DevDeframer::new(32);
        let mut out = Vec::new();
        for now in 0..5_000u64 {
            host.poll(now);
            while let Some(f) = host.pull_frame(now) {
                assert!(m.push_frame(f), "wire frames are always accepted");
            }
            m.step();
            while let Some(f) = m.pop_frame() {
                host.on_frame(now, f);
            }
            while let Some(p) = host.deliver() {
                if let Some(msg) = deframer.push(p).unwrap() {
                    out.push(msg);
                }
            }
            if !out.is_empty() && m.is_idle() && m.transport_quiescent() && host.is_quiescent() {
                break;
            }
        }
        assert_eq!(
            out,
            vec![DevMsg::Data {
                tag: 7,
                value: Word::from_u64(42, 32)
            }]
        );
        let stats = m.transport_stats().expect("transceiver fitted");
        assert!(stats.delivered > 0 && stats.acks_sent > 0);
        assert!(!stats.gave_up);
    }

    #[test]
    fn wide_word_machine_roundtrips() {
        let cfg = CoprocConfig {
            word_bits: 128,
            rx_frames_per_cycle: 8,
            tx_frames_per_cycle: 8,
            ..CoprocConfig::default()
        };
        let mut m = Coprocessor::new(cfg, vec![]).unwrap();
        let v = Word::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff, 128);
        let out = run(
            &mut m,
            vec![
                HostMsg::WriteReg { reg: 1, value: v },
                HostMsg::ReadReg { reg: 1, tag: 5 },
            ],
        );
        assert_eq!(out, vec![DevMsg::Data { tag: 5, value: v }]);
    }
}
