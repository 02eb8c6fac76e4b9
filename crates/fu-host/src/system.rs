//! The full-system co-simulation: host CPUs ↔ links ↔ one coprocessor.
//!
//! The paper's interface is "accessible by one or more host CPUs"
//! (Figure 1.1). [`System`] is that interface with m ≥ 1 host ports,
//! stepped one FPGA clock cycle at a time; its one-host calls speak for
//! host 0, and [`crate::MultiHostSystem`] adds a call per host. In a
//! cycle, each port with an event transmits and takes what has arrived;
//! once a port is ready, an arbiter feeds the coprocessor, locked to one
//! host from a message's header frame to its last; the coprocessor is
//! clocked; a router forwards each response frame to the host its header
//! names; and each port with an event delivers to its host. A reliable
//! link ends at its port's device edge, so the coprocessor sees payload.

use std::collections::VecDeque;

use crate::link::{earliest, FaultModel, HostPort, LinkEnd, LinkModel, LinkStats};
use fu_isa::msg::{ErrorCode, WireMsg};
use fu_isa::transport::{Endpoint, TransportConfig};
use fu_isa::{DevMsg, HostMsg};
use fu_rtm::{ActivityMode, CoprocConfig, CoprocSnapshot, Coprocessor, FunctionalUnit};
use rtl_sim::area::log2_ceil;
use rtl_sim::{RecoveryStats, SimError, SimStats, TraceBuffer, TraceEventKind};

/// One attached host: its port and the responses it has received.
#[derive(Clone)]
pub(crate) struct Host {
    pub(crate) port: HostPort,
    pub(crate) responses: VecDeque<DevMsg>,
    /// Responses ever enqueued. Rewound by [`System::restore`], so a
    /// replayed response carries the sequence number of its first
    /// delivery.
    resp_seq: u64,
    /// Responses the consumer took. Never rewound, since no rollback
    /// undoes what the consumer knows: replays below it are suppressed.
    delivered: u64,
    /// The port's next event as of its last pump or send, or the current
    /// cycle once the router hands it a frame: nothing else changes the
    /// port, so it is never late.
    wake: Option<u64>,
}

/// Who holds the coprocessor's two frame ports: the host offered the
/// receive port first, the hosts holding each port with the frames of
/// their message still to come (`None`: every host), and the hosts whose
/// malformed headers the coprocessor has yet to answer, oldest first.
#[derive(Clone, Default)]
struct Arbiter {
    rr: usize,
    rx: Option<(usize, usize)>,
    tx: Option<(Option<usize>, usize)>,
    bad_from: VecDeque<usize>,
}

/// A complete host+link+device state capture, taken by
/// [`System::checkpoint`] and rewound by [`System::restore`]. The SEU
/// strike schedule and the soft-error counters deliberately live outside
/// the snapshot, so restoring never replays a strike already applied (a
/// rollback would otherwise rediscover the same fault forever); so do the
/// link traces, which observe the run rather than belong to its state.
#[derive(Clone)]
pub struct SystemSnapshot {
    coproc: CoprocSnapshot,
    hosts: Vec<Host>,
    arb: Arbiter,
    cycle: u64,
    /// Decoded-instruction count at capture time (checkpoint cadence).
    decoded: u64,
}

/// Automatic checkpoint/rollback state (see [`System::enable_recovery`]).
struct RecoveryState {
    /// Re-checkpoint after this many further decoded instructions.
    interval: u64,
    ckpt: SystemSnapshot,
    /// Messages sent since the checkpoint, replayed after a rollback.
    journal: Vec<(usize, HostMsg)>,
    /// Uncorrected soft-error detections already answered by a rollback.
    /// Checkpointing pauses while the device's counter is ahead of this —
    /// a detected fault is in flight and the state is suspect.
    soft_handled: u64,
    rollbacks: u64,
    cycles_lost: u64,
}

/// Host `i`'s fault models, device-bound then host-bound: host 0's
/// device-bound stream keeps the model's seed, other hosts offset it, and
/// each host-bound stream derives from its port's device-bound seed.
fn port_faults(m: FaultModel, i: usize) -> [FaultModel; 2] {
    let seed = m.seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let back = seed.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    [m.with_seed(seed), m.with_seed(back)]
}

/// Host ports + links + one coprocessor.
pub struct System {
    coproc: Coprocessor,
    pub(crate) hosts: Vec<Host>,
    /// Each host's link trace. It lives outside the hosts, so a
    /// checkpoint copies no ring and a rollback rewinds none.
    pub(crate) traces: Vec<TraceBuffer>,
    arb: Arbiter,
    cycle: u64,
    word_bits: u32,
    /// Tag bits that carry the issuing host's index.
    pub(crate) host_bits: u32,
    /// The earliest of the hosts' wakes, or earlier (a send only lowers
    /// it): no port has an event before it.
    wake: Option<u64>,
    /// The earliest cycle a port is [ready](HostPort::ready), or earlier.
    ready: Option<u64>,
    /// Automatic rollback recovery; `None` means soft errors surface to
    /// the consumer in band (parity-only / detection-only operation).
    recovery: Option<RecoveryState>,
}

impl System {
    /// Assemble a one-host system over the bare frame link.
    pub fn new(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
    ) -> Result<System, SimError> {
        System::assemble(cfg, units, link, 1, None, None)
    }

    /// Assemble a one-host system with the reliable transport enabled on
    /// both ends of the link, optionally with a fault model injecting
    /// errors into each direction (the host→device direction uses the
    /// model's seed as given; device→host derives a distinct seed so the
    /// two directions see independent fault streams).
    pub fn new_reliable(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        transport: TransportConfig,
        faults: Option<FaultModel>,
    ) -> Result<System, SimError> {
        System::assemble(cfg, units, link, 1, Some(transport), faults)
    }

    /// The one assembler: `n_hosts` identical ports over `link`. The link
    /// model's port width is applied to the coprocessor configuration;
    /// each port's two ends share one transport, so they always agree.
    ///
    /// # Errors
    /// [`SimError::Config`] for no host, hosts beyond the tag space, or an
    /// invalid coprocessor or transport configuration.
    pub(crate) fn assemble(
        mut cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        n_hosts: usize,
        transport: Option<TransportConfig>,
        faults: Option<FaultModel>,
    ) -> Result<System, SimError> {
        if n_hosts == 0 {
            return Err(SimError::Config("at least one host required".into()));
        }
        let host_bits = log2_ceil(n_hosts.max(2) as u64) as u32;
        if host_bits > 8 {
            return Err(SimError::Config("too many hosts for the tag space".into()));
        }
        cfg.rx_frames_per_cycle = link.port_frames_per_cycle;
        cfg.tx_frames_per_cycle = link.port_frames_per_cycle;
        let word_bits = cfg.word_bits;
        let host = Host {
            port: HostPort::new(link, word_bits, transport)?,
            responses: VecDeque::new(),
            resp_seq: 0,
            delivered: 0,
            wake: None,
        };
        let mut hosts = vec![host; n_hosts];
        for (i, h) in hosts.iter_mut().enumerate() {
            if let Some([to_dev, to_host]) = faults.map(|m| port_faults(m, i)) {
                h.port.to_dev.install_faults(to_dev);
                h.port.to_host.install_faults(to_host);
            }
        }
        Ok(System {
            coproc: Coprocessor::new(cfg, units)?,
            hosts,
            traces: (0..n_hosts).map(|_| TraceBuffer::disabled()).collect(),
            arb: Arbiter::default(),
            cycle: 0,
            word_bits,
            host_bits,
            wake: None,
            ready: None,
            recovery: None,
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

    /// Timing model of the interconnect (every link shares one).
    pub fn link_model(&self) -> &LinkModel {
        self.hosts[0].port.to_dev.model()
    }

    /// Queue a message from host 0.
    pub fn send(&mut self, msg: &HostMsg) {
        self.send_from(0, msg);
    }

    /// Queue a message from `host`.
    pub(crate) fn send_from(&mut self, host: usize, msg: &HostMsg) {
        if let Some(rec) = self.recovery.as_mut() {
            rec.journal.push((host, msg.clone()));
        }
        let (now, h) = (self.cycle, &mut self.hosts[host]);
        h.port
            .send(now, msg.frames(self.word_bits), &mut self.traces[host]);
        h.wake = h.port.next_event(now);
        self.wake = earliest(self.wake, h.wake);
        self.ready = earliest(self.ready, h.port.ready(now));
    }

    /// Select the coprocessor's scheduling mode (see [`ActivityMode`]).
    /// `Exhaustive` pumps every port every cycle and keeps no wakes, so
    /// they are recomputed here.
    pub fn set_activity_mode(&mut self, mode: ActivityMode) {
        self.coproc.set_activity_mode(mode);
        self.rewake();
    }

    fn rewake(&mut self) {
        let now = self.cycle;
        for h in &mut self.hosts {
            h.wake = h.port.next_event(now);
        }
        self.wake = self.hosts.iter().filter_map(|h| h.wake).min();
        self.ready = self.hosts.iter().filter_map(|h| h.port.ready(now)).min();
    }

    /// Scheduler statistics for the embedded coprocessor, with the host's
    /// rollback counters folded into the recovery block.
    pub fn sim_stats(&self) -> SimStats {
        let mut s = SimStats::default();
        self.add_sim_stats(&mut s);
        s
    }

    /// Add [`System::sim_stats`] into the roll-up `s` in place.
    pub fn add_sim_stats(&self, s: &mut SimStats) {
        self.coproc.add_sim_stats(s);
        if let Some(rec) = &self.recovery {
            s.recovery.rollbacks += rec.rollbacks;
            s.recovery.cycles_lost += rec.cycles_lost;
        }
    }

    /// Soft-error bookkeeping: the device's strike counters plus the
    /// host's rollback counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.sim_stats().recovery
    }

    /// Enable (or resize) event tracing on both the coprocessor pipeline
    /// and every host's link; `0` disables both. The traces are separate
    /// ring buffers — see [`System::link_trace`].
    pub fn set_trace_depth(&mut self, depth: usize) {
        self.coproc.set_trace_depth(depth);
        for t in &mut self.traces {
            *t = TraceBuffer::new(depth);
        }
    }

    /// Host 0's link trace (frame tx/rx, retransmit deltas, rollbacks).
    pub fn link_trace(&self) -> &TraceBuffer {
        &self.traces[0]
    }

    /// Take host 0's next fully-received response, if any.
    pub fn recv(&mut self) -> Option<DevMsg> {
        self.take(0)
    }

    /// Take `host`'s next fully-received response, if any.
    pub(crate) fn take(&mut self, host: usize) -> Option<DevMsg> {
        let h = &mut self.hosts[host];
        let msg = h.responses.pop_front();
        h.delivered += u64::from(msg.is_some());
        msg
    }

    /// Responses waiting for host 0.
    pub fn pending_responses(&self) -> usize {
        self.hosts[0].responses.len()
    }

    /// Advance one FPGA clock cycle. Under `Scheduled` only the ports
    /// whose cached wake is due, and those the router hands a frame this
    /// cycle, are pumped: every other port would do nothing, since its
    /// wake is its earliest event. The arbiter runs only once some port
    /// is ready. `Exhaustive` pumps every port and feeds every cycle, so
    /// it stays the per-cycle reference the marks are checked against.
    pub fn step(&mut self) {
        let now = self.cycle;
        let all = self.coproc.activity_mode() == ActivityMode::Exhaustive;
        let due = |wake: Option<u64>| all || wake.is_some_and(|t| t <= now);
        if due(self.wake) {
            let hosts = self.hosts.iter_mut().zip(&mut self.traces);
            for (h, trace) in hosts.filter(|(h, _)| due(h.wake)) {
                h.port.pump_in(now, trace);
                self.ready = earliest(self.ready, h.port.ready(now));
            }
        }
        if due(self.ready) {
            self.feed(now);
            self.ready = self.hosts.iter().filter_map(|h| h.port.ready(now)).min();
        }
        self.coproc.step();
        self.route(now);
        // Each host receives. With rollback enabled an in-band soft error
        // is consumed as the rollback trigger, and replayed responses the
        // consumer took before a rollback are suppressed.
        let recovering = self.recovery.is_some();
        let mut rollback = false;
        // The router woke every port it handed a frame.
        if due(self.wake) {
            let hosts = self.hosts.iter_mut().zip(&mut self.traces);
            for (h, trace) in hosts.filter(|(h, _)| due(h.wake)) {
                let (responses, seq, delivered) = (&mut h.responses, &mut h.resp_seq, h.delivered);
                h.port.pump_out(now, trace, |msg| {
                    let soft = ErrorCode::SoftError;
                    if recovering && matches!(msg, DevMsg::Error { code, .. } if code == soft) {
                        rollback = true;
                        return;
                    }
                    *seq += 1;
                    if *seq > delivered {
                        responses.push_back(msg);
                    }
                });
                if !all {
                    h.wake = h.port.next_event(now + 1);
                }
            }
            self.wake = self.hosts.iter().filter_map(|h| h.wake).min();
        }
        self.cycle += 1;
        if rollback {
            self.rollback();
        } else if self.recovery.is_some() {
            self.maybe_checkpoint();
        }
    }

    /// The arbiter: feed the coprocessor's receive port while it has
    /// room. The port stays locked to one host from a message's header
    /// frame to its last, and the next message comes from the first host
    /// after the last one served that has a frame ready. A header the
    /// coprocessor cannot size is passed on as a message of one frame:
    /// its message buffer answers it with a `BadFrame` error, which the
    /// router returns to this host.
    fn feed(&mut self, now: u64) {
        let n = self.hosts.len();
        let (mut host, mut left) = self.arb.rx.unwrap_or((self.arb.rr, 0));
        while self.coproc.rx_ready() {
            let frame = if left > 0 {
                match self.hosts[host].port.pull(now, &mut self.traces[host]) {
                    Some(f) => f,
                    None => break,
                }
            } else {
                // The first host from `rr` on with a frame ready; a plain
                // loop, as this is on the busy-cycle path.
                let mut next = None;
                for k in 0..n {
                    let i = self.arb.rr + k - if self.arb.rr + k < n { 0 } else { n };
                    if let Some(f) = self.hosts[i].port.pull(now, &mut self.traces[i]) {
                        next = Some((i, f));
                        break;
                    }
                }
                let Some((i, f)) = next else {
                    break;
                };
                (host, self.arb.rr) = (i, if i + 1 == n { 0 } else { i + 1 });
                left = HostMsg::frame_count(f, self.word_bits).unwrap_or_else(|| {
                    self.arb.bad_from.push_back(i);
                    1
                });
                f
            };
            self.coproc.push_frame(frame);
            left -= 1;
        }
        self.arb.rx = (left > 0).then_some((host, left));
    }

    /// The router: forward serialiser frames to the host a response's
    /// header names, holding it until the response's last frame. A frame
    /// leaves the coprocessor only when its hosts' device edges can take
    /// it, so a bare link's bandwidth backs up into the transmit FIFO as
    /// the hardware's would.
    fn route(&mut self, now: u64) {
        while let Some(f) = self.coproc.peek_frame() {
            let (to, left) = match self.arb.tx {
                Some(lock) => lock,
                None => {
                    // A tag's top `host_bits` bits name its host. A soft
                    // error concerns the shared machine: every host hears
                    // of it, on the link that carries its own responses.
                    let to = match DevMsg::header_tag(f) {
                        Ok(tag) => Some((tag >> (16 - self.host_bits)) as usize % self.hosts.len()),
                        Err(Some(ErrorCode::BadFrame)) => self.arb.bad_from.pop_front().or(Some(0)),
                        Err(Some(ErrorCode::SoftError)) => None,
                        Err(_) => Some(0), // the management CPU
                    };
                    let len =
                        DevMsg::frame_count(f, self.word_bits).expect("device frames well-formed");
                    self.arb.tx = Some((to, len));
                    (to, len)
                }
            };
            let span = match to {
                Some(h) => h..h + 1,
                None => 0..self.hosts.len(),
            };
            if !self.hosts[span.clone()].iter().all(|h| h.port.accepts(now)) {
                break;
            }
            self.coproc.pop_frame();
            let traces = &mut self.traces[span.clone()];
            for (h, trace) in self.hosts[span].iter_mut().zip(traces) {
                h.port.forward(now, f, trace);
                h.wake = Some(now);
            }
            self.wake = Some(now);
            self.arb.tx = (left > 1).then_some((to, left - 1));
        }
    }

    /// Capture the complete host+link+device state. `None` when an
    /// attached functional unit does not support state cloning (see
    /// [`FunctionalUnit::clone_unit`]).
    pub fn checkpoint(&self) -> Option<SystemSnapshot> {
        Some(SystemSnapshot {
            coproc: self.coproc.snapshot()?,
            hosts: self.hosts.clone(),
            arb: self.arb.clone(),
            cycle: self.cycle,
            decoded: self.coproc.stats().decoded,
        })
    }

    /// Rewind the system to `snap`. The SEU strike schedule and the
    /// soft-error counters survive the rewind (a strike already applied
    /// is never replayed), as does each consumer's position in its
    /// response stream: responses taken since the snapshot are dropped
    /// from the restored queue and suppressed on regeneration. The link
    /// traces are not part of the snapshot, so they keep every event.
    pub fn restore(&mut self, snap: &SystemSnapshot) {
        self.coproc.restore(&snap.coproc);
        self.arb = snap.arb.clone();
        self.cycle = snap.cycle;
        for (h, s) in self.hosts.iter_mut().zip(&snap.hosts) {
            let delivered = h.delivered;
            *h = s.clone();
            let consumed = delivered.saturating_sub(s.delivered);
            let n = consumed.min(h.responses.len() as u64) as usize;
            h.responses.drain(..n);
            h.delivered = delivered;
        }
        self.rewake();
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

    fn rollback(&mut self) {
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
        self.traces[0].record(
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
        for (host, m) in &journal {
            self.send_from(*host, m);
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
            // Jump over the cycles in which nothing can happen: the
            // hosts' next event is their earliest wake or readiness.
            let wake = earliest(self.wake, self.ready);
            match self
                .coproc
                .skip_to_next_event(max_cycles - elapsed, || wake)
            {
                0 => self.step(),
                skip => self.cycle += skip,
            }
        }
        Ok(self.cycle.saturating_sub(start))
    }

    /// Step until host 0's next response arrives and return it.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget runs out first.
    pub fn recv_blocking(&mut self, max_cycles: u64) -> Result<DevMsg, SimError> {
        self.run_until(max_cycles, |s| s.pending_responses() > 0)?;
        Ok(self.recv().expect("predicate guaranteed"))
    }

    /// True when no work remains anywhere (host queues, links, FPGA).
    /// With the reliable transport this additionally requires every
    /// device edge to have nothing to deliver or send, and every endpoint
    /// to be quiescent — all traffic delivered *and acknowledged* —
    /// unless one has exhausted its retries (a dead endpoint will never
    /// drain, so waiting on it would hang every caller).
    pub fn is_idle(&self) -> bool {
        // A sender that gave up mid-message leaves a partial message in the
        // deframe buffer for good: with the link dead, that is settled.
        let coproc_idle = self.coproc.is_idle();
        if !coproc_idle && !self.coproc.stalled_mid_message() {
            return false;
        }
        let gave_up = self.transport_gave_up();
        (coproc_idle || gave_up)
            && self.hosts.iter().all(|h| {
                let edge = h.port.edge.endpoint();
                h.port.is_quiet()
                    && edge.is_none_or(|ep| !ep.has_deliverable() && !ep.has_tx_work())
                    && (gave_up || edge.is_none_or(Endpoint::is_quiescent))
            })
    }

    /// Did any endpoint exhaust its retransmit budget?
    pub fn transport_gave_up(&self) -> bool {
        self.hosts
            .iter()
            .flat_map(|h| [&h.port.end, &h.port.edge])
            .filter_map(LinkEnd::endpoint)
            .any(Endpoint::is_dead)
    }

    /// Aggregate reliability statistics over every port: injected faults
    /// on both link directions plus transport counters from both
    /// endpoints. All zeros on a bare, fault-free system.
    pub fn link_stats(&self) -> LinkStats {
        self.hosts.iter().map(|h| h.port.link_stats()).sum()
    }

    /// Total frames host 0's links moved: `(to device, to host)`.
    pub fn frames_carried(&self) -> (u64, u64) {
        let p = &self.hosts[0].port;
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
    fn two_rollbacks_to_one_checkpoint_leave_two_trace_events() {
        let mut s = sys(LinkModel::pcie_like());
        s.set_trace_depth(256);
        s.enable_recovery(1_000).unwrap();
        s.send(&HostMsg::Sync { tag: 1 });
        for _ in 0..2 {
            assert!(s.run_until(40, |_| false).is_err(), "runs out its budget");
            s.rollback();
        }
        let events = s.link_trace().events();
        let rollbacks = events
            .filter(|e| matches!(e.kind, TraceEventKind::Rollback { .. }))
            .count();
        assert_eq!((rollbacks as u64, s.recovery_stats().rollbacks), (2, 2));
        assert_eq!(s.recv_blocking(10_000).unwrap(), DevMsg::SyncAck { tag: 1 });
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
