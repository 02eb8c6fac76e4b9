//! Interconnect models.
//!
//! A link carries 32-bit frames with a per-frame delivery latency and a
//! minimum spacing between frames (the inverse bandwidth). Both are in
//! FPGA clock cycles, so a link is characterised relative to the
//! coprocessor clock — exactly how the paper discusses the trade-off
//! ("the speed of the system is determined by two factors: the latency of
//! the communication interface to the host computer, and the clock speed
//! of the FPGA").
//!
//! The module also holds the link pump of every host port:
//! `LinkEnd` makes the bare-or-reliable choice for one end of a link
//! pair, and `HostPort` bundles a host's link pair with both of its ends
//! (the host's and the device edge's) and the response deframer; each of
//! its pumps records into the link trace its caller hands it. A port
//! works only at its events: a bare end sends a whole
//! message at once, an idle end leaves the transport alone, and the
//! arbiter's readiness is kept apart from the pump's events.

use std::collections::VecDeque;

use fu_isa::msg::{DevDeframer, ErrorCode};
use fu_isa::transport::{Endpoint, TransportConfig};
use fu_isa::DevMsg;
use rtl_sim::{splitmix64, LinkDir, SimError, TraceBuffer, TraceEventKind};

/// A seeded, deterministic per-frame fault model for a [`Link`].
///
/// Every fault decision is a pure function of `(seed, frame index)` — the
/// index counts `send` calls on the link — so a fault pattern replays
/// bit-identically for a given seed regardless of how the simulation is
/// scheduled. Faults are applied at *injection* time: a dropped frame never
/// enters the in-flight queue, so delivery timestamps (and therefore
/// [`Link::next_event_cycle`] fast-forwarding) stay deterministic.
///
/// Rates are in permille (1/1000) of frames, drawn without replacement in
/// the order drop → corrupt → duplicate → burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultModel {
    /// PRNG seed; two links should use different seeds.
    pub seed: u64,
    /// Probability (‰) a frame is silently dropped.
    pub drop_permille: u32,
    /// Probability (‰) a single bit of the frame is flipped.
    pub corrupt_permille: u32,
    /// Probability (‰) a frame is delivered twice.
    pub duplicate_permille: u32,
    /// Probability (‰) a frame starts a burst loss: this frame and the
    /// next `burst_len - 1` frames are dropped.
    pub burst_permille: u32,
    /// Length of a burst loss in frames (≥ 1 when `burst_permille > 0`).
    pub burst_len: u32,
}

enum Fault {
    None,
    Drop,
    Corrupt(u32),
    Duplicate,
    Burst,
}

impl FaultModel {
    /// A model that injects no faults (useful as a baseline that still
    /// exercises the fault-model plumbing).
    pub fn none(seed: u64) -> FaultModel {
        FaultModel {
            seed,
            drop_permille: 0,
            corrupt_permille: 0,
            duplicate_permille: 0,
            burst_permille: 0,
            burst_len: 1,
        }
    }

    /// Drop, corrupt and duplicate each at `permille`‰, plus bursts of 4 at
    /// one tenth of that rate — a convenient single-knob severity dial.
    pub fn uniform(seed: u64, permille: u32) -> FaultModel {
        assert!(
            permille * 3 + permille / 10 <= 1000,
            "uniform fault rate too high: {permille}‰ per class"
        );
        FaultModel {
            seed,
            drop_permille: permille,
            corrupt_permille: permille,
            duplicate_permille: permille,
            burst_permille: permille / 10,
            burst_len: 4,
        }
    }

    /// The same model keyed by a different seed (e.g. for the reverse
    /// direction of a link pair).
    pub fn with_seed(self, seed: u64) -> FaultModel {
        FaultModel { seed, ..self }
    }

    fn decide(&self, index: u64) -> Fault {
        let rates = self.drop_permille | self.corrupt_permille | self.duplicate_permille;
        if rates | self.burst_permille == 0 {
            return Fault::None; // an inert model draws nothing
        }
        let r = splitmix64(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = (r % 1000) as u32;
        let mut threshold = self.drop_permille;
        if roll < threshold {
            return Fault::Drop;
        }
        threshold += self.corrupt_permille;
        if roll < threshold {
            return Fault::Corrupt((r >> 32) as u32 % 32);
        }
        threshold += self.duplicate_permille;
        if roll < threshold {
            return Fault::Duplicate;
        }
        threshold += self.burst_permille;
        if roll < threshold {
            return Fault::Burst;
        }
        Fault::None
    }
}

/// Per-link fault counters, surfaced alongside `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped (individually or as part of a burst).
    pub dropped: u64,
    /// Frames delivered with a flipped bit.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
}

/// Aggregate reliability statistics for one host↔device connection:
/// injected faults summed over both link directions plus transport-layer
/// counters summed over both endpoints. Surfaced alongside `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames the fault model dropped (either direction).
    pub frames_dropped: u64,
    /// Frames delivered with a flipped bit.
    pub frames_corrupted: u64,
    /// Frames delivered twice.
    pub frames_duplicated: u64,
    /// Data segments transmitted (first transmissions + retransmits).
    pub segments_sent: u64,
    /// Go-back-N retransmissions.
    pub retransmits: u64,
    /// Ack segments transmitted.
    pub acks_sent: u64,
    /// Ack segments accepted.
    pub acks_received: u64,
    /// Payload frames delivered in order to an application.
    pub delivered: u64,
    /// Segments rejected (bad CRC, duplicate, out of order).
    pub rejected: u64,
    /// Wire frames the endpoints emitted: data and ack segments,
    /// resends included.
    pub wire_frames: u64,
    /// An endpoint exhausted its retries and stopped retransmitting.
    pub gave_up: bool,
}

impl LinkStats {
    /// Fold one link direction's fault counters in.
    pub fn add_faults(&mut self, f: &FaultStats) {
        self.frames_dropped += f.dropped;
        self.frames_corrupted += f.corrupted;
        self.frames_duplicated += f.duplicated;
    }

    /// Fold one endpoint's transport counters in.
    pub fn add_transport(&mut self, t: &fu_isa::transport::TransportStats) {
        self.segments_sent += t.segments_sent;
        self.retransmits += t.retransmits;
        self.acks_sent += t.acks_sent;
        self.acks_received += t.acks_received;
        self.delivered += t.delivered;
        self.rejected += t.rejected;
        self.wire_frames += t.wire_frames;
        self.gave_up |= t.gave_up;
    }
}

// Shard-level rollups: a farm sums the per-connection statistics of all
// its shards. `gave_up` is sticky — one dead shard marks the rollup.
impl std::ops::AddAssign for LinkStats {
    fn add_assign(&mut self, rhs: LinkStats) {
        self.frames_dropped += rhs.frames_dropped;
        self.frames_corrupted += rhs.frames_corrupted;
        self.frames_duplicated += rhs.frames_duplicated;
        self.segments_sent += rhs.segments_sent;
        self.retransmits += rhs.retransmits;
        self.acks_sent += rhs.acks_sent;
        self.acks_received += rhs.acks_received;
        self.delivered += rhs.delivered;
        self.rejected += rhs.rejected;
        self.wire_frames += rhs.wire_frames;
        self.gave_up |= rhs.gave_up;
    }
}

impl std::ops::Add for LinkStats {
    type Output = LinkStats;

    fn add(mut self, rhs: LinkStats) -> LinkStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for LinkStats {
    fn sum<I: Iterator<Item = LinkStats>>(iter: I) -> LinkStats {
        iter.fold(LinkStats::default(), |acc, s| acc + s)
    }
}

/// Link timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Cycles between a frame entering the link and becoming deliverable.
    pub latency_cycles: u64,
    /// Minimum cycles between successive frame injections (≥ 1).
    pub cycles_per_frame: u64,
    /// Frames the coprocessor port moves per cycle (wired to the
    /// `rx/tx_frames_per_cycle` configuration).
    pub port_frames_per_cycle: u8,
}

impl LinkModel {
    /// The paper's prototyping-board link: high latency, low bandwidth
    /// ("only a very slow connection … was available").
    pub fn prototyping() -> LinkModel {
        LinkModel {
            name: "prototyping",
            latency_cycles: 500,
            cycles_per_frame: 50,
            port_frames_per_cycle: 1,
        }
    }

    /// A PCIe-class peripheral link: moderate latency, good bandwidth.
    pub fn pcie_like() -> LinkModel {
        LinkModel {
            name: "pcie-like",
            latency_cycles: 64,
            cycles_per_frame: 2,
            port_frames_per_cycle: 2,
        }
    }

    /// A tightly-coupled FPGA/CPU fabric ("there are FPGAs that are
    /// tightly integrated with processors, offering extremely high
    /// transfer rates").
    pub fn tightly_coupled() -> LinkModel {
        LinkModel {
            name: "tightly-coupled",
            latency_cycles: 2,
            cycles_per_frame: 1,
            port_frames_per_cycle: 4,
        }
    }

    /// An ideal link (zero latency, one frame per cycle) for isolating
    /// on-FPGA behaviour in experiments.
    pub fn ideal() -> LinkModel {
        LinkModel {
            name: "ideal",
            latency_cycles: 0,
            cycles_per_frame: 1,
            port_frames_per_cycle: 8,
        }
    }

    /// All presets, slowest first.
    pub fn presets() -> [LinkModel; 4] {
        [
            LinkModel::prototyping(),
            LinkModel::pcie_like(),
            LinkModel::tightly_coupled(),
            LinkModel::ideal(),
        ]
    }
}

/// One direction of a link: frames in flight with delivery timestamps.
#[derive(Debug, Clone)]
pub struct Link {
    model: LinkModel,
    in_flight: VecDeque<(u64, u32)>,
    next_injection: u64,
    frames_carried: u64,
    faults: Option<FaultModel>,
    fault_index: u64,
    burst_remaining: u32,
    fault_stats: FaultStats,
    /// `Some(width)`: deliver at most `width` frames per cycle, in order,
    /// as a receiving port that takes no more would (a duplicate arriving
    /// with its original waits its turn). The last delivery cycle handed
    /// out and the frames it holds.
    pace: Option<u64>,
    last_delivery: (u64, u64),
}

impl Link {
    /// An empty link with the given timing.
    pub fn new(model: LinkModel) -> Link {
        assert!(model.cycles_per_frame >= 1, "bandwidth must be finite");
        Link {
            model,
            in_flight: VecDeque::new(),
            next_injection: 0,
            frames_carried: 0,
            faults: None,
            fault_index: 0,
            burst_remaining: 0,
            fault_stats: FaultStats::default(),
            pace: None,
            last_delivery: (0, 0),
        }
    }

    /// The cycle a frame arriving at `arrival` is delivered.
    fn delivery(&mut self, arrival: u64) -> u64 {
        let Some(width) = self.pace else {
            return arrival;
        };
        let (last, n) = self.last_delivery;
        let at = arrival.max(last + u64::from(n >= width));
        self.last_delivery = (at, if at == last { n + 1 } else { 1 });
        at
    }

    /// A link with a seeded fault model installed.
    pub fn with_faults(model: LinkModel, faults: FaultModel) -> Link {
        let mut l = Link::new(model);
        l.install_faults(faults);
        l
    }

    /// Install (or replace) the fault model. Fault decisions restart from
    /// the current frame index, not from zero.
    pub fn install_faults(&mut self, faults: FaultModel) {
        if faults.burst_permille > 0 {
            assert!(faults.burst_len >= 1, "burst length must be at least 1");
        }
        self.faults = Some(faults);
    }

    /// Fault counters (all zero when no fault model is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The timing model.
    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Can a frame be injected at cycle `now`? (Bandwidth gate.)
    pub fn can_send(&self, now: u64) -> bool {
        now >= self.next_injection
    }

    /// Inject a frame at cycle `now`.
    ///
    /// # Panics
    /// Panics when the bandwidth gate is closed — callers check
    /// [`Link::can_send`] first.
    pub fn send(&mut self, now: u64, frame: u32) {
        assert!(self.can_send(now), "link send before bandwidth window");
        self.next_injection = now + self.model.cycles_per_frame;
        self.frames_carried += 1;
        let mut frame = frame;
        if let Some(fm) = self.faults {
            let idx = self.fault_index;
            self.fault_index += 1;
            if self.burst_remaining > 0 {
                self.burst_remaining -= 1;
                self.fault_stats.dropped += 1;
                return;
            }
            match fm.decide(idx) {
                Fault::None => {}
                Fault::Drop => {
                    self.fault_stats.dropped += 1;
                    return;
                }
                Fault::Burst => {
                    self.burst_remaining = fm.burst_len.saturating_sub(1);
                    self.fault_stats.dropped += 1;
                    return;
                }
                Fault::Corrupt(bit) => {
                    frame ^= 1 << bit;
                    self.fault_stats.corrupted += 1;
                }
                Fault::Duplicate => {
                    self.fault_stats.duplicated += 1;
                    let at = self.delivery(now + self.model.latency_cycles);
                    self.in_flight.push_back((at, frame));
                }
            }
        }
        let at = self.delivery(now + self.model.latency_cycles);
        self.in_flight.push_back((at, frame));
    }

    /// Inject `frames` back to back from `now` on, each at the cycle the
    /// bandwidth gate opens for it (`now` for the first), and record each
    /// in `trace` at that cycle. The link carries them exactly as if they
    /// had been sent one per reopening.
    ///
    /// # Panics
    /// Panics when the gate is closed at `now`.
    pub(crate) fn send_paced(
        &mut self,
        now: u64,
        frames: impl IntoIterator<Item = u32>,
        trace: &mut TraceBuffer,
        dir: LinkDir,
    ) {
        let mut at = now;
        for f in frames {
            self.send(at, f);
            trace.record(at, TraceEventKind::LinkTx { dir });
            at = self.next_injection;
        }
    }

    /// Take the next frame whose delivery time has arrived.
    pub fn recv(&mut self, now: u64) -> Option<u32> {
        self.recv_stamped(now).map(|(_, f)| f)
    }

    /// [`Link::recv`], with the cycle the frame became deliverable.
    fn recv_stamped(&mut self, now: u64) -> Option<(u64, u32)> {
        if self.in_flight.front().is_some_and(|(t, _)| *t <= now) {
            self.in_flight.pop_front()
        } else {
            None
        }
    }

    /// Frames still travelling.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Cycle at which the head in-flight frame becomes deliverable, if
    /// any frame is travelling, clamped to be no earlier than `now` (a
    /// frame its receiver has not taken yet, as flow control holds it on
    /// the link, arrived in the past). Delivery times are deterministic, so
    /// an idle-system scheduler can jump straight to this cycle.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        self.in_flight.front().map(|(t, _)| (*t).max(now))
    }

    /// Earliest cycle at which the bandwidth gate reopens. Only a future
    /// event if the sender has a frame to send.
    pub fn next_send_cycle(&self) -> u64 {
        self.next_injection
    }

    /// Total frames ever injected.
    pub fn frames_carried(&self) -> u64 {
        self.frames_carried
    }
}

/// The earlier of two optional event cycles (`None` is "never").
#[inline]
pub(crate) fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One end of a link pair: the host's, or the device edge's in front of
/// the coprocessor. The bare-or-reliable choice is made here and nowhere
/// else:
/// a bare end puts application frames straight on the wire, a reliable
/// end hands them to a transport [`Endpoint`] that segments, paces,
/// acknowledges and retransmits them.
#[derive(Debug, Clone)]
pub(crate) enum LinkEnd {
    /// Frames go on the wire as they are sent; nothing is held here.
    Bare,
    /// Boxed: an endpoint is large, and a bare end holds nothing.
    Reliable(Box<Endpoint>),
}

impl LinkEnd {
    pub(crate) fn new(transport: Option<TransportConfig>) -> LinkEnd {
        match transport {
            Some(t) => LinkEnd::Reliable(Box::new(Endpoint::new(t))),
            None => LinkEnd::Bare,
        }
    }

    /// Put a reliable end's frames on `link` and record each in `trace`:
    /// with a segment to stage and the gate open, stage it, arming the
    /// retransmit deadline from `stamp`, and put every frame of it on the
    /// link at once, each at the cycle its gate opens, so the next call
    /// is due at the gate after the segment's last frame. A bare end sent
    /// its frames when they were handed over.
    #[inline]
    pub(crate) fn transmit(
        &mut self,
        now: u64,
        stamp: u64,
        link: &mut Link,
        trace: &mut TraceBuffer,
        dir: LinkDir,
    ) {
        if let LinkEnd::Reliable(ep) = self {
            if ep.has_tx_work() && link.can_send(now) {
                link.send_paced(now, ep.pull_segment(stamp), trace, dir);
            }
        }
    }

    /// This end's earliest pending transmit or timer event, given the
    /// link it transmits on. A bare end has none. A reliable end with a
    /// segment to stage waits for the earlier of the gate and its
    /// retransmit deadline, and otherwise for the deadline alone. That is
    /// exact: [`LinkEnd::transmit`] stages nothing while the gate is
    /// closed (until the previous segment's last frame has gone out), and
    /// the deadline is the only cycle at which `poll` acts.
    #[inline]
    pub(crate) fn next_event(&self, now: u64, tx: &Link) -> Option<u64> {
        match self {
            LinkEnd::Bare => None,
            LinkEnd::Reliable(ep) if ep.has_tx_work() => {
                earliest(Some(tx.next_send_cycle().max(now)), ep.next_event_cycle())
            }
            LinkEnd::Reliable(ep) => ep.next_event_cycle(),
        }
    }

    /// When this end, taking every arrived frame at once, must next take
    /// the frames on `rx`. A bare end passes each frame on, so every
    /// arrival is an event. A reliable end waits for the frame
    /// [`Endpoint::first_effect`] names, or for the last frame in flight
    /// when none acts, so the link empties on time. It remembers that
    /// frame until it next takes frames ([`Endpoint::next_effect`]), so
    /// the wire is not scanned at every call.
    #[inline]
    pub(crate) fn next_arrival(&mut self, now: u64, rx: &Link) -> Option<u64> {
        match self {
            LinkEnd::Bare => rx.next_event_cycle(now),
            LinkEnd::Reliable(ep) => {
                let &(_, head) = rx.in_flight.front()?;
                let n = rx.in_flight.len();
                let i = ep.next_effect(head, n);
                let frames = rx.in_flight.iter().map(|&(_, f)| f);
                debug_assert_eq!(i, ep.first_effect(frames), "stale remembered wake");
                Some(rx.in_flight[i.unwrap_or(n - 1)].0.max(now))
            }
        }
    }

    /// May this end take the frames that have arrived on `rx`? A bare end
    /// takes each as it arrives; a reliable one only once its
    /// [`LinkEnd::next_arrival`] has come, in every activity mode, so a
    /// per-cycle run records each arrival in the same order as one that
    /// wakes only for it.
    #[inline]
    pub(crate) fn due(&mut self, now: u64, rx: &Link) -> bool {
        // Nothing is due before the first frame in flight has arrived.
        let arrived = || rx.in_flight.front().is_some_and(|&(t, _)| t <= now);
        match self {
            LinkEnd::Bare => true,
            LinkEnd::Reliable(_) => {
                arrived() && self.next_arrival(now, rx).is_some_and(|t| t <= now)
            }
        }
    }

    /// The transport endpoint, `None` when bare.
    #[inline]
    pub(crate) fn endpoint(&self) -> Option<&Endpoint> {
        match self {
            LinkEnd::Bare => None,
            LinkEnd::Reliable(ep) => Some(ep),
        }
    }
}

/// A host's attachment to the coprocessor: the link pair, the host's and
/// the device edge's [`LinkEnd`] (sharing one transport, so the
/// coprocessor only sees payload) and the response deframer. The link
/// trace is the caller's: kept apart from the pipeline's, so a chatty
/// pipeline cannot evict link events from the ring, and apart from the
/// port, so a snapshot of the port copies no ring.
#[derive(Clone)]
pub(crate) struct HostPort {
    pub(crate) to_dev: Link,
    pub(crate) to_host: Link,
    pub(crate) end: LinkEnd,
    pub(crate) edge: LinkEnd,
    rx: DevDeframer,
    /// Both endpoints' retransmits already recorded in the trace.
    retransmits_traced: u64,
}

impl HostPort {
    /// A port over `link` whose two ends share `transport` (`None`:
    /// bare).
    ///
    /// # Errors
    /// [`SimError::Config`] when `transport` is one an [`Endpoint`]
    /// cannot run: a zero window or ack timeout, or a window too wide for
    /// 16-bit sequence numbers to stay unambiguous.
    pub(crate) fn new(
        link: LinkModel,
        word_bits: u32,
        transport: Option<TransportConfig>,
    ) -> Result<HostPort, SimError> {
        if let Some(t) = transport {
            if !(1..1 << 14).contains(&t.window) || t.ack_timeout == 0 {
                return Err(SimError::Config(format!(
                    "transport window must be in 1..16384 and ack_timeout at least 1, \
                     got window {} and ack_timeout {}",
                    t.window, t.ack_timeout
                )));
            }
        }
        Ok(HostPort {
            to_dev: Link {
                pace: transport.map(|_| link.port_frames_per_cycle.into()),
                ..Link::new(link)
            },
            to_host: Link::new(link),
            end: LinkEnd::new(transport),
            edge: LinkEnd::new(transport),
            rx: DevDeframer::new(word_bits),
            retransmits_traced: 0,
        })
    }

    /// Hand the host end a message at `now`: a bare end puts every frame on
    /// the link at the cycle its gate opens; a reliable one queues them.
    #[inline]
    pub(crate) fn send(
        &mut self,
        now: u64,
        frames: impl IntoIterator<Item = u32>,
        trace: &mut TraceBuffer,
    ) {
        match &mut self.end {
            LinkEnd::Bare => {
                let at = now.max(self.to_dev.next_send_cycle());
                self.to_dev.send_paced(at, frames, trace, LinkDir::ToDevice);
            }
            LinkEnd::Reliable(ep) => frames.into_iter().for_each(|f| ep.send(f)),
        }
    }

    /// The port's part of a cycle before the clock edge: the host end
    /// advances its timer and puts frames on the device-bound link, and a
    /// due reliable edge takes every wire frame that has arrived, then
    /// advances its own timer. A bare edge leaves its frames on the link
    /// until [`HostPort::pull`] takes them: that is the link's flow
    /// control.
    #[inline]
    pub(crate) fn pump_in(&mut self, now: u64, trace: &mut TraceBuffer) {
        if let LinkEnd::Reliable(ep) = &mut self.end {
            ep.poll(now);
        }
        let dir = LinkDir::ToDevice;
        self.end.transmit(now, now, &mut self.to_dev, trace, dir);
        let due = self.edge.due(now, &self.to_dev);
        if let LinkEnd::Reliable(ep) = &mut self.edge {
            while let Some((at, f)) = due.then(|| self.to_dev.recv_stamped(now)).flatten() {
                trace.record(at, TraceEventKind::LinkRx { dir });
                ep.on_frame(now, f);
            }
            ep.poll(now);
        }
    }

    /// The cycle from which [`HostPort::pull`] has a frame: the next
    /// arrival on a bare edge, `now` while a reliable one has payload.
    #[inline]
    pub(crate) fn ready(&self, now: u64) -> Option<u64> {
        match &self.edge {
            LinkEnd::Bare => self.to_dev.next_event_cycle(now),
            LinkEnd::Reliable(ep) => ep.has_deliverable().then_some(now),
        }
    }

    /// The device edge's next payload frame for the coprocessor: off the
    /// link on a bare edge, from the endpoint's in-order deliveries on a
    /// reliable one.
    #[inline]
    pub(crate) fn pull(&mut self, now: u64, trace: &mut TraceBuffer) -> Option<u32> {
        match &mut self.edge {
            LinkEnd::Bare => {
                let f = self.to_dev.recv(now)?;
                let dir = LinkDir::ToDevice;
                trace.record(now, TraceEventKind::LinkRx { dir });
                Some(f)
            }
            LinkEnd::Reliable(ep) => ep.deliver(),
        }
    }

    /// Can the device edge take a response frame now? A bare edge puts it
    /// on the link, so only while the bandwidth gate is open.
    #[inline]
    pub(crate) fn accepts(&self, now: u64) -> bool {
        matches!(self.edge, LinkEnd::Reliable(_)) || self.to_host.can_send(now)
    }

    /// Hand the device edge a response frame it [accepts](Self::accepts).
    #[inline]
    pub(crate) fn forward(&mut self, now: u64, frame: u32, trace: &mut TraceBuffer) {
        match &mut self.edge {
            LinkEnd::Bare => {
                self.to_host.send(now, frame);
                let dir = LinkDir::ToHost;
                trace.record(now, TraceEventKind::LinkTx { dir });
            }
            LinkEnd::Reliable(ep) => ep.send(frame),
        }
    }

    /// The port's part of a cycle after the clock edge. The device edge
    /// puts frames on the host-bound link (a segment staged now arms its
    /// retransmit deadline from the cycle the edge starts). The host end,
    /// once due, takes every frame that has arrived, recording each at its
    /// arrival cycle, and hands each response the deframer completes to
    /// `on_msg`; a malformed frame becomes an in-band `BadFrame` error
    /// carrying its header, as the device's message buffer reports one.
    /// The retransmits both endpoints made go into the trace as one event,
    /// so trace totals reconcile with [`HostPort::link_stats`].
    #[inline]
    pub(crate) fn pump_out(
        &mut self,
        now: u64,
        trace: &mut TraceBuffer,
        mut on_msg: impl FnMut(DevMsg),
    ) {
        let dir = LinkDir::ToHost;
        self.edge
            .transmit(now, now + 1, &mut self.to_host, trace, dir);
        let rx = &mut self.rx;
        let mut on_frame = |f: u32| match rx.push(f) {
            Ok(Some(msg)) => on_msg(msg),
            Ok(None) => {}
            Err(e) => on_msg(DevMsg::Error {
                code: ErrorCode::BadFrame,
                info: e.header,
            }),
        };
        let due = self.end.due(now, &self.to_host);
        while let Some((at, f)) = due.then(|| self.to_host.recv_stamped(now)).flatten() {
            trace.record(at, TraceEventKind::LinkRx { dir });
            match &mut self.end {
                LinkEnd::Bare => on_frame(f),
                LinkEnd::Reliable(ep) => ep.on_frame(now, f),
            }
        }
        if let LinkEnd::Reliable(ep) = &mut self.end {
            std::iter::from_fn(|| ep.deliver()).for_each(on_frame);
        }
        if let (Some(end), Some(edge)) = (self.end.endpoint(), self.edge.endpoint()) {
            let retx = end.stats().retransmits + edge.stats().retransmits;
            if retx > self.retransmits_traced {
                let segments = (retx - self.retransmits_traced) as u32;
                trace.record(now, TraceEventKind::LinkRetransmit { segments });
                self.retransmits_traced = retx;
            }
        }
    }

    /// This port's earliest pump work: either end's transmit or timer
    /// event (see [`LinkEnd::next_event`]) or an arrival either receiver
    /// must take. Both ends take every arrived frame at once, so each
    /// wakes per [`LinkEnd::next_arrival`]: a reliable one at the frame
    /// that completes a segment, a bare host end at every frame (a bare
    /// edge's arrivals are the arbiter's, see [`HostPort::ready`]).
    #[inline]
    pub(crate) fn next_event(&mut self, now: u64) -> Option<u64> {
        if let LinkEnd::Bare = self.end {
            return self.end.next_arrival(now, &self.to_host);
        }
        let host = self.end.next_event(now, &self.to_dev);
        if host.is_some_and(|t| t <= now) {
            return host; // work this cycle: nothing can be earlier
        }
        let edge = self.edge.next_event(now, &self.to_host);
        if edge.is_some_and(|t| t <= now) {
            return edge;
        }
        let host_rx = self.end.next_arrival(now, &self.to_host);
        let arrivals = earliest(self.edge.next_arrival(now, &self.to_dev), host_rx);
        earliest(earliest(host, edge), arrivals)
    }

    /// No frame is travelling either way, and the host end is bare or
    /// its endpoint quiescent (all traffic delivered and acknowledged) or
    /// dead.
    pub(crate) fn is_quiet(&self) -> bool {
        let quiet = |ep: &Endpoint| ep.is_quiescent() || ep.is_dead();
        self.end.endpoint().is_none_or(quiet)
            && self.to_dev.in_flight() == 0
            && self.to_host.in_flight() == 0
    }

    /// Injected faults on both directions plus both ends' transport
    /// counters.
    pub(crate) fn link_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        s.add_faults(&self.to_dev.fault_stats());
        s.add_faults(&self.to_host.fault_stats());
        for ep in [&self.end, &self.edge]
            .into_iter()
            .filter_map(LinkEnd::endpoint)
        {
            s.add_transport(ep.stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_delays_delivery() {
        let mut l = Link::new(LinkModel {
            name: "t",
            latency_cycles: 10,
            cycles_per_frame: 1,
            port_frames_per_cycle: 1,
        });
        l.send(0, 42);
        assert_eq!(l.recv(9), None);
        assert_eq!(l.recv(10), Some(42));
        assert_eq!(l.recv(11), None, "delivered exactly once");
    }

    #[test]
    fn bandwidth_spaces_injections() {
        let mut l = Link::new(LinkModel {
            name: "t",
            latency_cycles: 0,
            cycles_per_frame: 4,
            port_frames_per_cycle: 1,
        });
        assert!(l.can_send(0));
        l.send(0, 1);
        assert!(!l.can_send(1));
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
        l.send(4, 2);
        assert_eq!(l.frames_carried(), 2);
    }

    #[test]
    fn frames_keep_order() {
        let mut l = Link::new(LinkModel::ideal());
        l.send(0, 1);
        l.send(1, 2);
        l.send(2, 3);
        assert_eq!(l.recv(5), Some(1));
        assert_eq!(l.recv(5), Some(2));
        assert_eq!(l.recv(5), Some(3));
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let p = LinkModel::presets();
        for w in p.windows(2) {
            assert!(
                w[0].latency_cycles >= w[1].latency_cycles,
                "{} should be slower than {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    #[should_panic(expected = "before bandwidth window")]
    fn early_send_panics() {
        let mut l = Link::new(LinkModel::prototyping());
        l.send(0, 1);
        l.send(1, 2);
    }

    #[test]
    fn a_message_sent_in_one_call_leaves_one_frame_per_gate() {
        let model = LinkModel::prototyping();
        let frames = [1, 2, 3, 4];
        // Sent at 10, behind a frame holding the gate until 57, and at
        // 100, with the gate open.
        for start in [10, 100] {
            // The reference: one frame each time the gate reopens.
            let mut per_gate = Link::new(model);
            per_gate.send(7, 0);
            let mut sent_at = Vec::new();
            for f in frames {
                let at = per_gate.next_send_cycle().max(start);
                per_gate.send(at, f);
                sent_at.push(at);
            }
            let mut port = HostPort::new(model, 32, None).unwrap();
            let mut trace = TraceBuffer::new(16);
            port.to_dev.send(7, 0);
            port.send(start, frames, &mut trace);
            assert_eq!(port.to_dev.in_flight, per_gate.in_flight, "start {start}");
            let traced: Vec<u64> = trace.events().map(|e| e.cycle).collect();
            assert_eq!(traced, sent_at, "start {start}");
        }
    }

    #[test]
    fn next_event_cycle_clamps_a_frame_left_waiting() {
        let mut l = Link::new(LinkModel::ideal());
        l.send(5, 7);
        // The frame arrived at t = 5 and is still on the link (its receiver
        // held it off); at now = 9 the link must not report an event in
        // the past.
        assert_eq!(l.next_event_cycle(9), Some(9));
        assert_eq!(l.next_event_cycle(5), Some(5));
        assert_eq!(l.recv(9), Some(7), "the waiting frame is still delivered");
        // A genuinely future delivery is reported untouched.
        let mut l2 = Link::new(LinkModel::pcie_like());
        l2.send(0, 1);
        assert_eq!(l2.next_event_cycle(3), Some(64));
    }

    fn run_faulty(seed: u64, n: u64) -> (Vec<u32>, FaultStats) {
        let mut l = Link::with_faults(
            LinkModel::ideal(),
            FaultModel {
                seed,
                drop_permille: 100,
                corrupt_permille: 100,
                duplicate_permille: 100,
                burst_permille: 20,
                burst_len: 3,
            },
        );
        for (i, now) in (0..n).enumerate() {
            l.send(now, i as u32);
        }
        let mut got = Vec::new();
        while let Some(f) = l.recv(n) {
            got.push(f);
        }
        (got, l.fault_stats())
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let (a1, s1) = run_faulty(0xFEED, 2_000);
        let (a2, s2) = run_faulty(0xFEED, 2_000);
        assert_eq!(a1, a2, "same seed must replay the same fault pattern");
        assert_eq!(s1, s2);
        let (b, _) = run_faulty(0xBEEF, 2_000);
        assert_ne!(a1, b, "different seeds should differ");
    }

    #[test]
    fn fault_rates_land_in_the_right_ballpark() {
        let (got, stats) = run_faulty(42, 10_000);
        // ~10% drop + ~2%·3 burst ≈ 1400–1800 dropped, ~10% each of the
        // others; keep the bounds loose — this guards plumbing, not the
        // PRNG's quality.
        assert!(
            stats.dropped > 800 && stats.dropped < 2500,
            "dropped = {}",
            stats.dropped
        );
        assert!(
            stats.corrupted > 500 && stats.corrupted < 1800,
            "corrupted = {}",
            stats.corrupted
        );
        assert!(
            stats.duplicated > 500 && stats.duplicated < 1800,
            "duplicated = {}",
            stats.duplicated
        );
        assert_eq!(
            got.len() as u64,
            10_000 - stats.dropped + stats.duplicated,
            "conservation: delivered = sent - dropped + duplicated"
        );
    }

    #[test]
    fn fault_free_model_is_transparent() {
        let mut l = Link::with_faults(LinkModel::ideal(), FaultModel::none(1));
        for i in 0..100u32 {
            l.send(i as u64, i);
        }
        let mut got = Vec::new();
        while let Some(f) = l.recv(200) {
            got.push(f);
        }
        assert_eq!(got, (0..100u32).collect::<Vec<_>>());
        assert_eq!(l.fault_stats(), FaultStats::default());
    }

    #[test]
    fn an_inert_model_delivers_as_no_model_does() {
        let model = LinkModel::pcie_like();
        let mut bare = Link::new(model);
        let mut inert = Link::with_faults(model, FaultModel::none(7));
        for f in 0..100u32 {
            for l in [&mut bare, &mut inert] {
                l.send(l.next_send_cycle(), f);
            }
        }
        assert_eq!(inert.in_flight, bare.in_flight);
        assert_eq!(inert.fault_stats(), FaultStats::default());
    }

    #[test]
    fn an_inert_model_still_counts_its_frames() {
        // A model installed later draws from the frame index the inert
        // one left, as if it had been drawing all along.
        let mut l = Link::with_faults(LinkModel::ideal(), FaultModel::none(3));
        (0..50u32).for_each(|f| l.send(f.into(), f));
        assert_eq!(l.fault_index, 50);
    }

    /// A CRC-valid data segment starting at `seq`, built by hand.
    fn data_segment(seq: u16, words: &[u32]) -> Vec<u32> {
        use fu_isa::transport::DATA_MAGIC;
        let mut seg = vec![DATA_MAGIC << 24 | (words.len() as u32) << 16 | u32::from(seq)];
        seg.extend(words);
        seg.push(fu_isa::crc::crc32_frames(&seg));
        seg
    }

    #[test]
    fn a_remembered_wake_takes_frames_as_per_call_scans_do() {
        use fu_isa::transport::DATA_MAGIC;
        // Wire faults scripted by hand, each of which moves the frame that
        // acts: a drop, a corrupted header, a duplicate, and a
        // magic-looking payload that swallows the next header, so only a
        // frame-by-frame resync finds it.
        let a = data_segment(0, &[1, 2, 3]);
        let b = data_segment(3, &[4, 5]);
        let c = data_segment(5, &[6]);
        let p = DATA_MAGIC << 24 | 1 << 16 | 9;
        let d = data_segment(6, &[p, 8]);
        let wire: Vec<u32> = [&a[..2], &a[3..], &a]
            .into_iter()
            .chain([&[b[0] ^ 0x4000_0000][..], &b[1..], &b])
            .chain([&c[..2], &c[1..], &c, &c])
            .chain([&[p][..], &d])
            .flatten()
            .copied()
            .collect();
        // Frames land one a cycle, so the receivers look while the
        // segments they wait for are still arriving.
        let model = LinkModel {
            name: "t",
            latency_cycles: 3,
            cycles_per_frame: 1,
            port_frames_per_cycle: 1,
        };
        let ep = || Endpoint::new(TransportConfig::default());
        let (mut end, mut fresh) = (LinkEnd::Reliable(Box::new(ep())), ep());
        let (mut rx, mut fresh_rx) = (Link::new(model), Link::new(model));
        let (mut took, mut fresh_took) = (Vec::new(), Vec::new());
        for now in 0..wire.len() as u64 + 8 {
            if let Some(&f) = wire.get(now as usize) {
                rx.send(now, f);
                fresh_rx.send(now, f);
            }
            // The per-call scan the remembered wake stands in for.
            let frames = fresh_rx.in_flight.iter().map(|&(_, f)| f);
            let wake = fresh_rx.in_flight.len().checked_sub(1).map(|last| {
                let i = fresh.first_effect(frames).unwrap_or(last);
                fresh_rx.in_flight[i].0.max(now)
            });
            assert_eq!(end.next_arrival(now, &rx), wake, "cycle {now}");
            if end.due(now, &rx) {
                let LinkEnd::Reliable(ep) = &mut end else {
                    unreachable!()
                };
                while let Some((at, f)) = rx.recv_stamped(now) {
                    took.push((now, at, f));
                    ep.on_frame(now, f);
                }
            }
            let arrived = fresh_rx.in_flight.front().is_some_and(|&(t, _)| t <= now);
            if arrived && wake.is_some_and(|t| t <= now) {
                while let Some((at, f)) = fresh_rx.recv_stamped(now) {
                    fresh_took.push((now, at, f));
                    fresh.on_frame(now, f);
                }
            }
        }
        assert_eq!(took, fresh_took);
        assert_eq!(took.len(), wire.len());
        let LinkEnd::Reliable(ep) = &mut end else {
            unreachable!()
        };
        let got: Vec<u32> = std::iter::from_fn(|| ep.deliver()).collect();
        assert_eq!(got, [1, 2, 3, 4, 5, 6, p, 8], "{:?}", ep.stats());
        assert_eq!(ep.stats(), fresh.stats());
        assert!(ep.stats().rejected >= 8, "{:?}", ep.stats());
    }

    #[test]
    fn bad_transport_configs_are_config_errors() {
        use crate::{MultiHostSystem, System};
        use fu_rtm::testing::LatencyFu;
        use fu_rtm::CoprocConfig;
        let ok = TransportConfig::default();
        let bad = [
            TransportConfig { window: 0, ..ok },
            TransportConfig {
                ack_timeout: 0,
                ..ok
            },
            TransportConfig {
                window: 1 << 14,
                ..ok
            },
        ];
        let link = LinkModel::pcie_like();
        let units = || vec![Box::new(LatencyFu::new("add", 1, 1)) as Box<_>];
        for t in bad {
            let single = System::new_reliable(CoprocConfig::default(), units(), link, t, None);
            assert!(
                matches!(single, Err(SimError::Config(_))),
                "System accepted {t:?}"
            );
            let multi =
                MultiHostSystem::new_reliable(CoprocConfig::default(), units(), link, 2, t, None);
            assert!(
                matches!(multi, Err(SimError::Config(_))),
                "MultiHostSystem accepted {t:?}"
            );
        }
        assert!(System::new_reliable(CoprocConfig::default(), units(), link, ok, None).is_ok());
    }

    #[test]
    fn malformed_device_frames_become_in_band_errors() {
        let mut port = HostPort::new(LinkModel::ideal(), 32, None).unwrap();
        let bad_code = 0x8f99_0000; // an error header with no such code
        let stream = [0x7700_0000, bad_code, 7]
            .into_iter()
            .chain(DevMsg::SyncAck { tag: 3 }.frames(32));
        for (now, f) in stream.enumerate() {
            port.to_host.send(now as u64, f);
        }
        let mut got = Vec::new();
        for now in 0..8 {
            port.pump_out(now, &mut TraceBuffer::disabled(), |m| got.push(m));
        }
        let bad = |info| DevMsg::Error {
            code: ErrorCode::BadFrame,
            info,
        };
        assert_eq!(
            got,
            [bad(0x7700_0000), bad(bad_code), DevMsg::SyncAck { tag: 3 }]
        );
    }
}
