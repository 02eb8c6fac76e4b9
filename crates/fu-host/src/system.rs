//! The full-system co-simulation: host queue ↔ link ↔ coprocessor.
//!
//! One [`System::step`] advances the whole arrangement by one FPGA clock
//! cycle: host-bound frames drain from the device, device-bound frames
//! enter the coprocessor's receive FIFO (with link latency and bandwidth
//! applied in both directions), and the coprocessor itself is clocked.
//! A reliable link ends at the device edge of the host port, in front of
//! the coprocessor's frame port, so the coprocessor only sees payload.

use std::collections::VecDeque;

use crate::link::{FaultModel, HostPort, LinkEnd, LinkModel, LinkStats};
use fu_isa::msg::ErrorCode;
use fu_isa::transport::{Endpoint, TransportConfig};
use fu_isa::{DevMsg, HostMsg};
use fu_rtm::{ActivityMode, CoprocConfig, CoprocSnapshot, Coprocessor, FunctionalUnit};
use rtl_sim::{LinkDir, RecoveryStats, SimError, SimStats, TraceBuffer, TraceEventKind};

/// A complete host+link+device state capture, taken by
/// [`System::checkpoint`] and rewound by [`System::restore`]. The SEU
/// strike schedule and the soft-error counters deliberately live outside
/// the snapshot, so restoring never replays a strike already applied (a
/// rollback would otherwise rediscover the same fault forever).
#[derive(Clone)]
pub struct SystemSnapshot {
    coproc: CoprocSnapshot,
    port: HostPort,
    responses: VecDeque<DevMsg>,
    cycle: u64,
    last_retransmits: u64,
    /// Lifetime responses enqueued at capture time (replay dedup basis).
    resp_seq: u64,
    /// Lifetime responses the consumer had taken at capture time.
    delivered: u64,
    /// Decoded-instruction count at capture time (checkpoint cadence).
    decoded: u64,
}

impl SystemSnapshot {
    /// Cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Automatic checkpoint/rollback state (see [`System::enable_recovery`]).
struct RecoveryState {
    /// Re-checkpoint after this many further decoded instructions.
    interval: u64,
    ckpt: SystemSnapshot,
    /// Host messages sent since the checkpoint, replayed after a rollback.
    journal: Vec<HostMsg>,
    /// Uncorrected soft-error detections already answered by a rollback.
    /// Checkpointing pauses while the device's counter is ahead of this —
    /// a detected fault is in flight and the state is suspect.
    soft_handled: u64,
    rollbacks: u64,
    cycles_lost: u64,
}

/// Host + link + coprocessor.
pub struct System {
    coproc: Coprocessor,
    /// The link pair and its two bare-or-reliable ends.
    port: HostPort,
    /// Responses fully received by the host.
    responses: VecDeque<DevMsg>,
    cycle: u64,
    word_bits: u32,
    /// Total transport retransmits observed through the previous step;
    /// per-step deltas become [`TraceEventKind::LinkRetransmit`] events.
    last_retransmits: u64,
    /// Lifetime count of responses enqueued toward the consumer. Rewound
    /// by [`System::restore`], so a replayed response carries the same
    /// sequence number as its first delivery.
    resp_seq: u64,
    /// Lifetime count of responses the consumer actually took via
    /// [`System::recv`]. Never rewound: it is the consumer's knowledge,
    /// which no rollback can undo. Replayed responses with a sequence
    /// number below this are suppressed.
    resp_delivered: u64,
    /// Automatic rollback recovery; `None` means soft errors surface to
    /// the consumer in band (parity-only / detection-only operation).
    recovery: Option<RecoveryState>,
    /// A soft error arrived this step; rollback fires at the end of
    /// [`System::step`], after the pipeline finishes the cycle.
    pending_rollback: bool,
}

impl System {
    /// Assemble a system over the bare frame link.
    pub fn new(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
    ) -> Result<System, SimError> {
        System::assemble(cfg, units, link, None, None)
    }

    /// Assemble a system with the reliable transport enabled on both ends
    /// of the link, optionally with a fault model injecting errors into
    /// each direction (the host→device direction uses the model's seed as
    /// given; device→host derives a distinct seed so the two directions
    /// see independent fault streams).
    pub fn new_reliable(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        transport: TransportConfig,
        faults: Option<FaultModel>,
    ) -> Result<System, SimError> {
        System::assemble(cfg, units, link, Some(transport), faults)
    }

    /// The one assembler behind both constructors. The link model's port
    /// width is applied to the coprocessor configuration; the port's two
    /// ends share one transport, so they always agree.
    ///
    /// # Errors
    /// [`SimError::Config`] for an invalid coprocessor or transport
    /// configuration.
    fn assemble(
        mut cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        transport: Option<TransportConfig>,
        faults: Option<FaultModel>,
    ) -> Result<System, SimError> {
        cfg.rx_frames_per_cycle = link.port_frames_per_cycle;
        cfg.tx_frames_per_cycle = link.port_frames_per_cycle;
        let word_bits = cfg.word_bits;
        let mut port = HostPort::new(link, word_bits, transport)?;
        if let Some(m) = faults {
            port.to_dev.install_faults(m);
            port.to_host
                .install_faults(m.with_seed(m.seed.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15));
        }
        Ok(System {
            coproc: Coprocessor::new(cfg, units)?,
            port,
            responses: VecDeque::new(),
            cycle: 0,
            word_bits,
            last_retransmits: 0,
            resp_seq: 0,
            resp_delivered: 0,
            recovery: None,
            pending_rollback: false,
        })
    }

    /// The coprocessor (diagnostics and experiment measurements).
    pub fn coproc(&self) -> &Coprocessor {
        &self.coproc
    }

    /// Elapsed FPGA cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Word size of the machine.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Timing model of the interconnect (both directions share one).
    pub fn link_model(&self) -> &LinkModel {
        self.port.to_dev.model()
    }

    /// Queue a message for transmission.
    pub fn send(&mut self, msg: &HostMsg) {
        if let Some(rec) = self.recovery.as_mut() {
            rec.journal.push(msg.clone());
        }
        self.port.end.send(msg.frames(self.word_bits));
    }

    /// Select the coprocessor's scheduling mode (see [`ActivityMode`]).
    pub fn set_activity_mode(&mut self, mode: ActivityMode) {
        self.coproc.set_activity_mode(mode);
    }

    /// Scheduler statistics for the embedded coprocessor, with the host's
    /// rollback counters folded into the recovery block.
    pub fn sim_stats(&self) -> SimStats {
        let mut s = self.coproc.sim_stats();
        s.recovery = self.recovery_stats();
        s
    }

    /// Soft-error bookkeeping: the device's strike counters plus the
    /// host's rollback counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut r = self.coproc.recovery_stats();
        if let Some(rec) = &self.recovery {
            r.rollbacks += rec.rollbacks;
            r.cycles_lost += rec.cycles_lost;
        }
        r
    }

    /// Enable (or resize) event tracing on both the coprocessor pipeline
    /// and the host-side link; `0` disables both. The two traces are
    /// separate ring buffers — see [`System::link_trace`].
    pub fn set_trace_depth(&mut self, depth: usize) {
        self.coproc.set_trace_depth(depth);
        self.port.trace = if depth > 0 {
            TraceBuffer::new(depth)
        } else {
            TraceBuffer::disabled()
        };
    }

    /// The host-side link trace (frame tx/rx and retransmit deltas).
    pub fn link_trace(&self) -> &TraceBuffer {
        &self.port.trace
    }

    /// Take the next fully-received response, if any.
    pub fn recv(&mut self) -> Option<DevMsg> {
        let msg = self.responses.pop_front();
        if msg.is_some() {
            self.resp_delivered += 1;
        }
        msg
    }

    /// Responses waiting to be taken.
    pub fn pending_responses(&self) -> usize {
        self.responses.len()
    }

    /// Advance one FPGA clock cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        // Host side: the host end paces its frames onto the link.
        self.port.transmit(now);
        // Device edge, inbound: up to a port width of wire frames per
        // cycle. A bare edge pushes each into the receive FIFO (with real
        // flow control on overflow); a reliable one takes every frame,
        // then hands validated payloads to the FIFO while it has space.
        let port = &mut self.port;
        let width = port.to_dev.model().port_frames_per_cycle;
        for _ in 0..width {
            let Some(f) = port.to_dev.recv(now) else {
                break;
            };
            match &mut port.edge {
                LinkEnd::Bare(_) => {
                    if !self.coproc.push_frame(f) {
                        port.to_dev.unrecv(now, f);
                        break;
                    }
                }
                LinkEnd::Reliable(ep) => ep.on_frame(now, f),
            }
            let dir = LinkDir::ToDevice;
            port.trace.record(now, TraceEventKind::LinkRx { dir });
        }
        if let LinkEnd::Reliable(ep) = &mut port.edge {
            ep.poll(now);
            while self.coproc.rx_ready() {
                let Some(p) = ep.deliver() else {
                    break;
                };
                self.coproc.push_frame(p);
            }
        }
        // Clock the FPGA.
        self.coproc.step();
        // Device edge, outbound: a bare edge moves up to a port width of
        // serialiser frames per cycle. A reliable edge queues everything
        // the serialiser produced and, when the host-bound gate is open,
        // puts its next segment on the link; the segment is staged after
        // the clock edge, stamped with the cycle that edge starts.
        match &mut port.edge {
            LinkEnd::Bare(_) => {
                for _ in 0..width {
                    if !port.to_host.can_send(now) {
                        break;
                    }
                    let Some(f) = self.coproc.pop_frame() else {
                        break;
                    };
                    port.to_host.send(now, f);
                    let dir = LinkDir::ToHost;
                    port.trace.record(now, TraceEventKind::LinkTx { dir });
                }
            }
            LinkEnd::Reliable(ep) => {
                while let Some(f) = self.coproc.pop_frame() {
                    ep.send(f);
                }
                if port.to_host.can_send(now) {
                    let (segment, dir) = (ep.pull_segment(now + 1), LinkDir::ToHost);
                    port.to_host.send_paced(now, segment, &mut port.trace, dir);
                }
            }
        }
        // Host receives, and each response goes toward the consumer under
        // the recovery policy: with rollback enabled an in-band soft error
        // is consumed as the rollback trigger (it never surfaces), and
        // replayed responses the consumer already took before a rollback
        // are suppressed, so the observable stream carries no duplicates.
        let recovering = self.recovery.is_some();
        port.receive(now, |msg| {
            if recovering {
                if let DevMsg::Error {
                    code: ErrorCode::SoftError,
                    ..
                } = msg
                {
                    self.pending_rollback = true;
                    return;
                }
            }
            let seq = self.resp_seq;
            self.resp_seq += 1;
            if seq >= self.resp_delivered {
                self.responses.push_back(msg);
            }
        });
        // Retransmissions happen inside the endpoints; surface each
        // step's delta as one trace event so fault-injection tests can
        // reconcile trace totals against `link_stats`. A bare port has none.
        if let (Some(end), Some(edge)) = (port.end.endpoint(), port.edge.endpoint()) {
            let retx = end.stats().retransmits + edge.stats().retransmits;
            if retx > self.last_retransmits {
                let segments = (retx - self.last_retransmits) as u32;
                port.trace
                    .record(now, TraceEventKind::LinkRetransmit { segments });
                self.last_retransmits = retx;
            }
        }
        self.cycle += 1;
        if self.pending_rollback {
            self.rollback();
        } else if self.recovery.is_some() {
            self.maybe_checkpoint();
        }
    }

    /// Capture the complete host+link+device state. `None` when an
    /// attached functional unit does not support state cloning (see
    /// [`FunctionalUnit::clone_unit`]).
    pub fn checkpoint(&self) -> Option<SystemSnapshot> {
        Some(SystemSnapshot {
            coproc: self.coproc.snapshot()?,
            port: self.port.clone(),
            responses: self.responses.clone(),
            cycle: self.cycle,
            last_retransmits: self.last_retransmits,
            resp_seq: self.resp_seq,
            delivered: self.resp_delivered,
            decoded: self.coproc.stats().decoded,
        })
    }

    /// Rewind the system to `snap`. The SEU strike schedule and the
    /// soft-error counters survive the rewind (a strike already applied
    /// is never replayed), as does the consumer's position in the
    /// response stream: responses taken since the snapshot are dropped
    /// from the restored queue and suppressed on regeneration.
    pub fn restore(&mut self, snap: &SystemSnapshot) {
        self.coproc.restore(&snap.coproc);
        self.port = snap.port.clone();
        self.cycle = snap.cycle;
        self.last_retransmits = snap.last_retransmits;
        self.resp_seq = snap.resp_seq;
        self.pending_rollback = false;
        let mut q = snap.responses.clone();
        let consumed = self.resp_delivered.saturating_sub(snap.delivered);
        for _ in 0..consumed.min(q.len() as u64) {
            q.pop_front();
        }
        self.responses = q;
    }

    /// Enable automatic rollback recovery: take a checkpoint now and a
    /// fresh one every `interval_instrs` further decoded instructions
    /// (deferred while the captured state would be suspect — a latent
    /// parity violation or a detected fault still in flight). From then
    /// on an in-band [`ErrorCode::SoftError`] triggers a rewind to the
    /// last checkpoint and a replay of every host message sent since;
    /// replayed responses the consumer already took are suppressed, so at
    /// survivable fault rates the observable stream is exactly the
    /// fault-free one.
    ///
    /// # Errors
    /// [`SimError::Config`] when an attached functional unit does not
    /// support state cloning ([`FunctionalUnit::clone_unit`]).
    pub fn enable_recovery(&mut self, interval_instrs: u64) -> Result<(), SimError> {
        let ckpt = self.checkpoint().ok_or_else(|| {
            SimError::Config("checkpoint/rollback needs clone-capable functional units".into())
        })?;
        let r = self.coproc.recovery_stats();
        self.recovery = Some(RecoveryState {
            interval: interval_instrs.max(1),
            ckpt,
            journal: Vec::new(),
            soft_handled: r.seus_detected - r.seus_corrected,
            rollbacks: 0,
            cycles_lost: 0,
        });
        Ok(())
    }

    /// True when automatic rollback recovery is active.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    fn rollback(&mut self) {
        self.pending_rollback = false;
        let mut rec = self.recovery.take().expect("rollback requires recovery");
        let to_cycle = rec.ckpt.cycle;
        let lost = self.cycle.saturating_sub(to_cycle);
        self.restore(&rec.ckpt);
        rec.rollbacks += 1;
        rec.cycles_lost += lost;
        // Every uncorrected detection so far is answered by this rewind;
        // checkpointing may resume once the counters agree again.
        let r = self.coproc.recovery_stats();
        rec.soft_handled = r.seus_detected - r.seus_corrected;
        self.port.trace.record(
            self.cycle,
            TraceEventKind::Rollback {
                to_cycle,
                lost_cycles: lost,
            },
        );
        // Replay the host traffic sent since the checkpoint. `recovery`
        // is still `None` here, so the replay is not re-journaled; the
        // journal is put back afterwards, ready for a further rollback to
        // the same checkpoint.
        let journal = std::mem::take(&mut rec.journal);
        for m in &journal {
            self.send(m);
        }
        rec.journal = journal;
        self.recovery = Some(rec);
    }

    fn maybe_checkpoint(&mut self) {
        let Some(rec) = self.recovery.as_ref() else {
            return;
        };
        if self.coproc.stats().decoded < rec.ckpt.decoded + rec.interval {
            return;
        }
        // Never capture suspect state: a latent parity violation or a
        // detected-but-not-yet-rolled-back fault baked into the snapshot
        // would make every rollback rediscover the same fault forever.
        let r = self.coproc.recovery_stats();
        if r.seus_detected - r.seus_corrected != rec.soft_handled || !self.coproc.parity_clean() {
            return;
        }
        let Some(snap) = self.checkpoint() else {
            return;
        };
        let rec = self.recovery.as_mut().expect("checked above");
        rec.ckpt = snap;
        rec.journal.clear();
    }

    /// Step until `pred` holds, with a cycle budget.
    ///
    /// In [`ActivityMode::Scheduled`] (the default), stretches where
    /// nothing observable can happen — an idle machine waiting on
    /// in-flight link frames, units burning known latencies,
    /// provably-stalled dispatch heads — are skipped: the cycle counter
    /// jumps straight to the next event instead of stepping per cycle.
    /// The predicate is then evaluated once per event instead of once per
    /// cycle, which is equivalent as long as `pred` is a function of the
    /// observable message-level state (responses, idleness) — nothing it
    /// can see changes during a skipped stretch.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget runs out.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&System) -> bool,
    ) -> Result<u64, SimError> {
        let start = self.cycle;
        while !pred(self) {
            // A rollback may rewind `cycle` below `start`; saturating
            // keeps the budget arithmetic (and the return value) sane.
            let elapsed = self.cycle.saturating_sub(start);
            if elapsed >= max_cycles {
                return Err(SimError::Timeout {
                    cycles: max_cycles,
                    waiting_for: "system condition".into(),
                });
            }
            if self.idle_skip(max_cycles - elapsed) == 0 {
                self.step();
            }
        }
        Ok(self.cycle.saturating_sub(start))
    }

    /// Jump over cycles in which nothing can happen. Returns the number
    /// of cycles skipped (0 means: step normally). The host's event set
    /// is its port's, device edge included (see `HostPort::next_event`);
    /// the edge takes at most a port width of frames per cycle, so every
    /// frame arriving at it is an event.
    fn idle_skip(&mut self, budget: u64) -> u64 {
        let now = self.cycle;
        let port = &self.port;
        let skip = self
            .coproc
            .skip_to_next_event(budget, || port.next_event(now, false));
        self.cycle += skip;
        skip
    }

    /// Step until the next response arrives and return it.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget runs out first.
    pub fn recv_blocking(&mut self, max_cycles: u64) -> Result<DevMsg, SimError> {
        self.run_until(max_cycles, |s| !s.responses.is_empty())?;
        Ok(self.recv().expect("predicate guaranteed"))
    }

    /// True when no work remains anywhere (host queue, links, FPGA). With
    /// the reliable transport this additionally requires the device edge
    /// to have nothing to deliver or send, and both endpoints to be
    /// quiescent — all traffic delivered *and acknowledged* — unless one
    /// has exhausted its retries (a dead endpoint will never drain, so
    /// waiting on it would hang every caller).
    pub fn is_idle(&self) -> bool {
        // A sender that gave up mid-message leaves a partial message in the
        // deframe buffer for good: with the link dead, that is settled.
        let coproc_idle = self.coproc.is_idle();
        if !coproc_idle && !self.coproc.stalled_mid_message() {
            return false;
        }
        let gave_up = self.transport_gave_up();
        let edge = self.port.edge.endpoint();
        self.port.is_quiet()
            && edge.is_none_or(|ep| !ep.has_deliverable() && !ep.has_tx_work())
            && (coproc_idle || gave_up)
            && (gave_up || edge.is_none_or(Endpoint::is_quiescent))
    }

    /// Did either endpoint exhaust its retransmit budget?
    pub fn transport_gave_up(&self) -> bool {
        [&self.port.end, &self.port.edge]
            .into_iter()
            .filter_map(LinkEnd::endpoint)
            .any(Endpoint::is_dead)
    }

    /// Aggregate reliability statistics: injected faults on both link
    /// directions plus transport counters from both endpoints. All zeros
    /// on a bare, fault-free system.
    pub fn link_stats(&self) -> LinkStats {
        self.port.link_stats()
    }

    /// Total frames moved in each direction: `(to device, to host)`.
    pub fn frames_carried(&self) -> (u64, u64) {
        let p = &self.port;
        (p.to_dev.frames_carried(), p.to_host.frames_carried())
    }

    /// Convert a cycle count to microseconds at `clock_mhz`.
    pub fn cycles_to_us(cycles: u64, clock_mhz: f64) -> f64 {
        cycles as f64 / clock_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fu_isa::Word;
    use fu_rtm::testing::LatencyFu;

    fn sys(link: LinkModel) -> System {
        System::new(
            CoprocConfig::default(),
            vec![Box::new(LatencyFu::new("add", 1, 1))],
            link,
        )
        .unwrap()
    }

    #[test]
    fn write_read_roundtrip_over_ideal_link() {
        let mut s = sys(LinkModel::ideal());
        s.send(&HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(99, 32),
        });
        s.send(&HostMsg::ReadReg { reg: 1, tag: 5 });
        let resp = s.recv_blocking(10_000).unwrap();
        assert_eq!(
            resp,
            DevMsg::Data {
                tag: 5,
                value: Word::from_u64(99, 32)
            }
        );
        s.run_until(1000, |s| s.is_idle()).unwrap();
    }

    #[test]
    fn slow_link_costs_more_cycles_for_the_same_work() {
        let work = |mut s: System| {
            s.send(&HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(7, 32),
            });
            s.send(&HostMsg::ReadReg { reg: 1, tag: 0 });
            s.recv_blocking(1_000_000).unwrap();
            s.cycle()
        };
        let fast = work(sys(LinkModel::tightly_coupled()));
        let slow = work(sys(LinkModel::prototyping()));
        assert!(
            slow > 5 * fast,
            "prototyping link should dominate: {slow} vs {fast}"
        );
    }

    #[test]
    fn flow_control_survives_a_tiny_rx_fifo() {
        let cfg = CoprocConfig {
            rx_fifo_depth: 2,
            ..CoprocConfig::default()
        };
        let mut s = System::new(cfg, vec![], LinkModel::ideal()).unwrap();
        // Many back-to-back writes against a 2-deep FIFO: flow control
        // must deliver all of them.
        for i in 0..20u8 {
            s.send(&HostMsg::WriteReg {
                reg: i % 8,
                value: Word::from_u64(i as u64, 32),
            });
        }
        s.send(&HostMsg::ReadReg { reg: 7, tag: 1 });
        let resp = s.recv_blocking(100_000).unwrap();
        assert_eq!(
            resp,
            DevMsg::Data {
                tag: 1,
                value: Word::from_u64(15, 32)
            }
        );
    }

    #[test]
    fn sync_over_link() {
        let mut s = sys(LinkModel::pcie_like());
        s.send(&HostMsg::Sync { tag: 3 });
        assert_eq!(s.recv_blocking(10_000).unwrap(), DevMsg::SyncAck { tag: 3 });
    }

    #[test]
    fn frames_accounting() {
        let mut s = sys(LinkModel::ideal());
        s.send(&HostMsg::Sync { tag: 0 });
        s.recv_blocking(10_000).unwrap();
        let (to_dev, to_host) = s.frames_carried();
        assert_eq!(to_dev, 1);
        assert_eq!(to_host, 1);
    }

    #[test]
    fn cycles_to_us_at_50mhz() {
        assert_eq!(System::cycles_to_us(500, 50.0), 10.0);
    }

    fn reliable_sys(link: LinkModel, faults: Option<crate::link::FaultModel>) -> System {
        let tcfg = fu_isa::transport::TransportConfig::for_link(
            link.latency_cycles,
            link.cycles_per_frame,
        );
        System::new_reliable(
            CoprocConfig::default(),
            vec![Box::new(LatencyFu::new("add", 1, 1))],
            link,
            tcfg,
            faults,
        )
        .unwrap()
    }

    fn roundtrip_workload(s: &mut System) -> Vec<DevMsg> {
        for i in 0..8u8 {
            s.send(&HostMsg::WriteReg {
                reg: i % 8,
                value: Word::from_u64(100 + i as u64, 32),
            });
        }
        s.send(&HostMsg::ReadReg { reg: 3, tag: 1 });
        s.send(&HostMsg::ReadReg { reg: 7, tag: 2 });
        s.send(&HostMsg::Sync { tag: 9 });
        s.run_until(5_000_000, |s| s.pending_responses() >= 3 && s.is_idle())
            .unwrap();
        std::iter::from_fn(|| s.recv()).collect()
    }

    #[test]
    fn reliable_link_roundtrips_without_faults() {
        let mut s = reliable_sys(LinkModel::pcie_like(), None);
        let out = roundtrip_workload(&mut s);
        assert_eq!(
            out,
            vec![
                DevMsg::Data {
                    tag: 1,
                    value: Word::from_u64(103, 32)
                },
                DevMsg::Data {
                    tag: 2,
                    value: Word::from_u64(107, 32)
                },
                DevMsg::SyncAck { tag: 9 },
            ]
        );
        let ls = s.link_stats();
        assert_eq!(ls.retransmits, 0, "healthy link must not retransmit");
        assert_eq!(ls.frames_dropped, 0);
        assert!(ls.delivered > 0 && ls.acks_received > 0);
        assert!(!ls.gave_up);
    }

    #[test]
    fn reliable_link_masks_injected_faults() {
        let bare = {
            let mut s = sys(LinkModel::pcie_like());
            roundtrip_workload(&mut s)
        };
        let faults = crate::link::FaultModel::uniform(0xFA_175, 100);
        let mut s = reliable_sys(LinkModel::pcie_like(), Some(faults));
        let out = roundtrip_workload(&mut s);
        assert_eq!(out, bare, "faulty reliable stream must match bare link");
        let ls = s.link_stats();
        assert!(
            ls.frames_dropped > 0 || ls.frames_corrupted > 0 || ls.frames_duplicated > 0,
            "the fault model must actually have fired: {ls:?}"
        );
        assert!(ls.retransmits > 0, "recovery requires retransmission");
    }

    #[test]
    fn reliable_link_faults_are_deterministic() {
        let run_once = || {
            let faults = crate::link::FaultModel::uniform(77, 150);
            let mut s = reliable_sys(LinkModel::tightly_coupled(), Some(faults));
            let out = roundtrip_workload(&mut s);
            (out, s.cycle(), s.link_stats())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn all_activity_modes_agree_over_slow_link_with_long_latency_unit() {
        // Long unit latency over a slow link is the scheduled kernel's
        // target scenario: the scheduled run must produce the same responses in
        // the same number of cycles while skipping most of them.
        let run_mode = |mode: ActivityMode| {
            let mut s = System::new(
                CoprocConfig::default(),
                vec![Box::new(LatencyFu::new("slow", 1, 500))],
                LinkModel::prototyping(),
            )
            .unwrap();
            s.set_activity_mode(mode);
            s.send(&HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(21, 32),
            });
            s.send(&HostMsg::Instr(fu_isa::InstrWord::user(
                fu_isa::UserInstr {
                    func: 1,
                    variety: 0,
                    dst_flag: 1,
                    dst_reg: 2,
                    aux_reg: 0,
                    src1: 1,
                    src2: 1,
                    src3: 0,
                },
            )));
            // Wait out the 500-cycle burn before sending the readback so
            // nothing queues up behind it — the span is then quiet and
            // the scheduled kernel can jump it.
            s.run_until(5_000_000, |s| s.is_idle()).unwrap();
            s.send(&HostMsg::ReadReg { reg: 2, tag: 3 });
            s.send(&HostMsg::Sync { tag: 4 });
            s.run_until(5_000_000, |s| s.pending_responses() >= 2 && s.is_idle())
                .unwrap();
            let out: Vec<DevMsg> = std::iter::from_fn(|| s.recv()).collect();
            (out, s.cycle(), s.sim_stats())
        };
        let exhaustive = run_mode(ActivityMode::Exhaustive);
        let scheduled = run_mode(ActivityMode::Scheduled);
        assert_eq!(exhaustive.0, scheduled.0);
        assert_eq!(exhaustive.1, scheduled.1, "cycle counts agree");
        assert_eq!(exhaustive.2.stage_busy, scheduled.2.stage_busy);
        assert_eq!(exhaustive.2.lat_issue_retire, scheduled.2.lat_issue_retire);
        assert!(
            scheduled.2.cycles_stepped < exhaustive.2.cycles_stepped / 2,
            "scheduled steps far fewer cycles: {} vs exhaustive {}",
            scheduled.2.cycles_stepped,
            exhaustive.2.cycles_stepped,
        );
    }

    fn seu_workload(s: &mut System) -> (Vec<DevMsg>, u64) {
        for i in 0..8u8 {
            s.send(&HostMsg::WriteReg {
                reg: i % 8,
                value: Word::from_u64(100 + u64::from(i), 32),
            });
        }
        // A couple of user instructions so result latches carry live
        // in-flight work (the latch strike class needs a target).
        for (dst, src) in [(2u8, 1u8), (4, 3)] {
            s.send(&HostMsg::Instr(fu_isa::InstrWord::user(
                fu_isa::UserInstr {
                    func: 1,
                    variety: 0,
                    dst_flag: 1,
                    dst_reg: dst,
                    aux_reg: 0,
                    src1: src,
                    src2: src,
                    src3: 0,
                },
            )));
        }
        for t in 0..16u8 {
            s.send(&HostMsg::ReadReg {
                reg: t % 8,
                tag: u16::from(t),
            });
        }
        s.send(&HostMsg::Sync { tag: 99 });
        s.run_until(10_000_000, |s| s.pending_responses() >= 17 && s.is_idle())
            .unwrap();
        (std::iter::from_fn(|| s.recv()).collect(), s.cycle())
    }

    fn protected_sys(mean_interval: u64, seed: u64) -> System {
        let cfg = CoprocConfig::default()
            .with_parity()
            .with_redundancy(fu_rtm::Redundancy::Dmr)
            .with_seu(fu_rtm::SeuConfig::all(seed, mean_interval));
        System::new(
            cfg,
            vec![Box::new(LatencyFu::new("add", 1, 3))],
            LinkModel::pcie_like(),
        )
        .unwrap()
    }

    #[test]
    fn rollback_recovery_masks_device_seus() {
        // Fault-free reference: same machine, radiation off.
        let clean = {
            let mut s = System::new(
                CoprocConfig::default()
                    .with_parity()
                    .with_redundancy(fu_rtm::Redundancy::Dmr),
                vec![Box::new(LatencyFu::new("add", 1, 3))],
                LinkModel::pcie_like(),
            )
            .unwrap();
            seu_workload(&mut s)
        };
        let mut s = protected_sys(300, 0xBEEF);
        s.enable_recovery(4).unwrap();
        let protected = seu_workload(&mut s);
        assert_eq!(
            protected, clean,
            "rollback recovery must reproduce the fault-free stream and timing"
        );
        let r = s.recovery_stats();
        assert!(
            r.seus_injected > 0,
            "strikes must actually have landed: {r:?}"
        );
    }

    #[test]
    fn parity_only_surfaces_soft_errors_in_band() {
        // Detection without recovery: the consumer sees the soft error.
        let mut hit = false;
        for seed in 0..20u64 {
            let mut s = protected_sys(150, seed);
            for i in 0..8u8 {
                s.send(&HostMsg::WriteReg {
                    reg: i,
                    value: Word::from_u64(u64::from(i), 32),
                });
            }
            for t in 0..32u8 {
                s.send(&HostMsg::ReadReg {
                    reg: t % 8,
                    tag: u16::from(t),
                });
            }
            s.send(&HostMsg::Sync { tag: 7 });
            s.run_until(10_000_000, |s| s.is_idle()).unwrap();
            let out: Vec<DevMsg> = std::iter::from_fn(|| s.recv()).collect();
            if out.iter().any(|m| {
                matches!(
                    m,
                    DevMsg::Error {
                        code: ErrorCode::SoftError,
                        ..
                    }
                )
            }) {
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed produced an in-band soft error");
    }

    #[test]
    fn manual_restore_suppresses_replayed_responses() {
        let mut s = sys(LinkModel::ideal());
        s.send(&HostMsg::Sync { tag: 1 });
        s.recv_blocking(10_000).unwrap();
        let snap = s.checkpoint().expect("LatencyFu is clone-capable");
        s.send(&HostMsg::Sync { tag: 2 });
        assert_eq!(s.recv_blocking(10_000).unwrap(), DevMsg::SyncAck { tag: 2 });
        s.restore(&snap);
        // Manual replay of the consumed message: its response must be
        // suppressed — the consumer already holds it.
        s.send(&HostMsg::Sync { tag: 2 });
        s.run_until(10_000, |s| s.is_idle()).unwrap();
        assert_eq!(s.pending_responses(), 0, "replayed SyncAck must dedup");
        // New traffic flows normally again.
        s.send(&HostMsg::Sync { tag: 3 });
        assert_eq!(s.recv_blocking(10_000).unwrap(), DevMsg::SyncAck { tag: 3 });
    }

    #[test]
    fn recovery_composes_with_reliable_transport_and_link_faults() {
        let link = LinkModel::pcie_like();
        let tcfg = fu_isa::transport::TransportConfig::for_link(
            link.latency_cycles,
            link.cycles_per_frame,
        );
        let base = CoprocConfig::default()
            .with_parity()
            .with_redundancy(fu_rtm::Redundancy::Dmr);
        let build = |cfg: CoprocConfig, faults: Option<crate::link::FaultModel>| {
            System::new_reliable(
                cfg,
                vec![Box::new(LatencyFu::new("add", 1, 3))],
                link,
                tcfg,
                faults,
            )
            .unwrap()
        };
        let clean = {
            let mut s = build(base.clone(), None);
            seu_workload(&mut s)
        };
        let faults = crate::link::FaultModel::uniform(0xFA_175, 100);
        let mut s = build(
            base.with_seu(fu_rtm::SeuConfig::all(0xD00D, 500)),
            Some(faults),
        );
        s.enable_recovery(4).unwrap();
        let protected = seu_workload(&mut s);
        assert_eq!(
            protected.0, clean.0,
            "device SEUs + wire faults must both be masked"
        );
    }

    #[test]
    fn scheduled_mode_agrees_under_transport_faults() {
        let run_mode = |mode: ActivityMode| {
            let faults = crate::link::FaultModel::uniform(0xFA_175, 100);
            let mut s = reliable_sys(LinkModel::pcie_like(), Some(faults));
            s.set_activity_mode(mode);
            let out = roundtrip_workload(&mut s);
            (out, s.cycle(), s.link_stats())
        };
        assert_eq!(
            run_mode(ActivityMode::Exhaustive),
            run_mode(ActivityMode::Scheduled)
        );
    }
}
