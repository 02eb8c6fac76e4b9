//! Reliable link transport: go-back-N framing with per-segment sequence
//! numbers, CRC-32 protection and cumulative acknowledgements.
//!
//! The paper's framing layer assumes the transceiver delivers every 32-bit
//! frame intact; this module is the drop-in replacement for lossy links.
//! Each application frame (one 32-bit word of the normal host↔device wire
//! protocol) is wrapped into a three-frame *data segment*:
//!
//! ```text
//! [ 0xD5 << 24 | seq:u16 ]  [ payload:u32 ]  [ crc32(header, payload) ]
//! ```
//!
//! and acknowledged by a two-frame *ack segment* on the reverse link:
//!
//! ```text
//! [ 0xAC << 24 | cum_seq:u16 ]  [ crc32(header) ]
//! ```
//!
//! Both directions run one [`Endpoint`] each; an endpoint transmits its own
//! data segments *and* the acks for the segments it receives, so the
//! protocol is fully symmetric between host and device. Receivers deliver
//! payloads strictly in sequence order and answer every data segment
//! (in-order or not) with a cumulative ack; transmitters resend the whole
//! unacked window on an ack timeout (go-back-N) with exponential backoff,
//! giving up after a configurable retry cap.
//!
//! Everything here is deterministic: no randomness, and the only notion of
//! time is the cycle number threaded in by the caller, so a simulation may
//! fast-forward across an idle span as long as it never skips past
//! [`Endpoint::next_event_cycle`].

use crate::crc::crc32_frames;
use std::collections::VecDeque;

/// Marker byte (bits 31..24) of a data-segment header frame.
pub const DATA_MAGIC: u32 = 0xD5;
/// Marker byte (bits 31..24) of an ack-segment header frame.
pub const ACK_MAGIC: u32 = 0xAC;
/// Frames per data segment: header, payload, CRC.
pub const DATA_SEGMENT_FRAMES: usize = 3;
/// Frames per ack segment: header, CRC.
pub const ACK_SEGMENT_FRAMES: usize = 2;

/// Tuning knobs for one reliable endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum unacked data segments in flight (go-back-N window). Must be
    /// far below 2^15 so 16-bit sequence comparisons stay unambiguous.
    pub window: usize,
    /// Cycles to wait for an ack before resending the window.
    pub ack_timeout: u64,
    /// Cap on the exponential-backoff shift applied to `ack_timeout`.
    pub max_backoff_exp: u32,
    /// Consecutive timeouts without receiving any valid ack before the
    /// endpoint gives up and reports a dead link via
    /// [`TransportStats::gave_up`].
    pub max_retries: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            window: 8,
            ack_timeout: 256,
            max_backoff_exp: 5,
            // Generous: with backoff capped, declaring a peer dead is
            // cheap to delay and expensive to get wrong — a retry round
            // on a 20%-loss link still misses every ack once in ~15
            // rounds, and go-back-N recovers as long as we keep trying.
            max_retries: 512,
        }
    }
}

impl TransportConfig {
    /// A timeout sized for a link with the given one-way latency and
    /// per-frame injection interval: one round trip plus the serialisation
    /// time of a full window, with headroom so a healthy link never
    /// retransmits spuriously.
    pub fn for_link(latency_cycles: u64, cycles_per_frame: u64) -> Self {
        let window = TransportConfig::default().window;
        let serialise = cycles_per_frame * (window as u64) * (DATA_SEGMENT_FRAMES as u64 + 1);
        TransportConfig {
            ack_timeout: 2 * latency_cycles + serialise + 64,
            ..TransportConfig::default()
        }
    }
}

/// Counters exposed alongside `SimStats` for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data segments sent for the first time.
    pub segments_sent: u64,
    /// Data segments re-sent after an ack timeout (go-back-N resends).
    pub retransmits: u64,
    /// Ack segments emitted.
    pub acks_sent: u64,
    /// Valid ack segments received (including duplicates).
    pub acks_received: u64,
    /// In-order data segments accepted and delivered.
    pub delivered: u64,
    /// Segments discarded: CRC mismatch, bad magic, or out-of-sequence.
    pub rejected: u64,
    /// Consecutive ack timeouts exceeded `max_retries`; the endpoint has
    /// stopped retransmitting.
    pub gave_up: bool,
}

/// One direction-pair of the reliable protocol: transmits data segments for
/// the local application, receives data segments from the peer, and
/// multiplexes acks for the peer's data onto its own outgoing frame stream.
#[derive(Debug, Clone)]
pub struct Endpoint {
    cfg: TransportConfig,

    // --- transmit side -------------------------------------------------
    /// Unacked payloads, oldest first, tagged with their 64-bit sequence
    /// number (only the low 16 bits travel on the wire).
    unacked: VecDeque<(u64, u32)>,
    /// Sequence number for the next *new* payload.
    next_seq: u64,
    /// Index into `unacked` of the next segment to (re)transmit. Entries
    /// below the cursor have been sent at least once this round.
    send_cursor: usize,
    /// Retransmit deadline, armed while any segment is outstanding.
    deadline: Option<u64>,
    backoff_exp: u32,
    retries: u32,
    dead: bool,

    // --- receive side --------------------------------------------------
    /// Next in-order sequence number expected from the peer.
    expected: u64,
    /// Partially assembled incoming segment (header first).
    rx_buf: Vec<u32>,
    /// A cumulative ack owed to the peer (low 16 bits of the highest
    /// in-order sequence received, i.e. `expected - 1`).
    pending_ack: Option<u16>,
    /// Validated in-order payloads awaiting the application.
    delivered: VecDeque<u32>,

    /// Wire frames staged for transmission (whole segments at a time).
    out_buf: VecDeque<u32>,

    stats: TransportStats,
}

impl Endpoint {
    pub fn new(cfg: TransportConfig) -> Self {
        assert!(cfg.window >= 1, "transport window must be at least 1");
        assert!(
            cfg.window < (1 << 14),
            "transport window must stay far below the 16-bit sequence space"
        );
        assert!(cfg.ack_timeout >= 1, "ack timeout must be at least 1 cycle");
        Endpoint {
            cfg,
            unacked: VecDeque::new(),
            next_seq: 0,
            send_cursor: 0,
            deadline: None,
            backoff_exp: 0,
            retries: 0,
            dead: false,
            expected: 0,
            rx_buf: Vec::with_capacity(DATA_SEGMENT_FRAMES),
            pending_ack: None,
            delivered: VecDeque::new(),
            out_buf: VecDeque::new(),
            stats: TransportStats::default(),
        }
    }

    /// Queue one application frame for reliable delivery to the peer.
    pub fn send(&mut self, payload: u32) {
        self.unacked.push_back((self.next_seq, payload));
        self.next_seq += 1;
    }

    /// Advance the retransmit timer to `now`. On expiry the whole unacked
    /// window is rewound for retransmission (go-back-N) and the timeout
    /// doubles, up to the backoff cap; `max_retries` consecutive timeouts
    /// without ack progress mark the endpoint dead.
    pub fn poll(&mut self, now: u64) {
        if self.unacked.is_empty() {
            self.deadline = None;
            return;
        }
        if self.dead {
            return;
        }
        if let Some(d) = self.deadline {
            if now >= d {
                self.retries += 1;
                if self.retries > self.cfg.max_retries {
                    self.dead = true;
                    self.stats.gave_up = true;
                    self.deadline = None;
                } else {
                    self.send_cursor = 0;
                    self.backoff_exp = (self.backoff_exp + 1).min(self.cfg.max_backoff_exp);
                    self.deadline = Some(now.saturating_add(self.backoff_timeout()));
                }
            }
        }
    }

    /// Next wire frame to put on the outgoing link, if any. Acks take
    /// priority over data so the peer's window reopens as fast as possible.
    pub fn pull_frame(&mut self, now: u64) -> Option<u32> {
        if self.out_buf.is_empty() {
            self.refill(now);
        }
        self.out_buf.pop_front()
    }

    fn refill(&mut self, now: u64) {
        if let Some(ack) = self.pending_ack.take() {
            let header = (ACK_MAGIC << 24) | ack as u32;
            self.out_buf.push_back(header);
            self.out_buf.push_back(crc32_frames(&[header]));
            self.stats.acks_sent += 1;
            return;
        }
        if self.dead {
            return;
        }
        if self.send_cursor < self.unacked.len().min(self.cfg.window) {
            let (seq, payload) = self.unacked[self.send_cursor];
            if seq < self.high_water() {
                self.stats.retransmits += 1;
            } else {
                self.stats.segments_sent += 1;
            }
            let header = (DATA_MAGIC << 24) | (seq as u16) as u32;
            let crc = crc32_frames(&[header, payload]);
            self.out_buf.push_back(header);
            self.out_buf.push_back(payload);
            self.out_buf.push_back(crc);
            self.send_cursor += 1;
            if self.deadline.is_none() {
                self.deadline = Some(now.saturating_add(self.backoff_timeout()));
            }
        }
    }

    /// The current ack timeout with exponential backoff applied. A shift
    /// would overflow once `backoff_exp` (bounded only by the configured
    /// `max_backoff_exp`) reaches 64 minus the timeout's bit width, so the
    /// doubling saturates instead: past that point the deadline clamps to
    /// "never", which is indistinguishable from an astronomically long
    /// backoff and keeps `poll` monotone.
    fn backoff_timeout(&self) -> u64 {
        let scale = 1u64.checked_shl(self.backoff_exp).unwrap_or(u64::MAX);
        self.cfg.ack_timeout.saturating_mul(scale)
    }

    /// Highest sequence number ever transmitted, plus one (i.e. the first
    /// never-sent sequence).
    fn high_water(&self) -> u64 {
        // stats.segments_sent counts exactly the first transmissions, and
        // sequence numbers are allocated densely from zero.
        self.stats.segments_sent
    }

    /// Feed one frame received from the peer's link.
    pub fn on_frame(&mut self, now: u64, frame: u32) {
        if self.rx_buf.is_empty() {
            match frame >> 24 {
                m if m == DATA_MAGIC || m == ACK_MAGIC => self.rx_buf.push(frame),
                _ => self.stats.rejected += 1, // resync: skip until a magic
            }
        } else {
            self.rx_buf.push(frame);
        }
        let want = match self.rx_buf.first() {
            Some(h) if h >> 24 == ACK_MAGIC => ACK_SEGMENT_FRAMES,
            Some(_) => DATA_SEGMENT_FRAMES,
            None => return,
        };
        if self.rx_buf.len() < want {
            return;
        }
        let seg: Vec<u32> = self.rx_buf.drain(..).collect();
        let (body, crc) = seg.split_at(want - 1);
        if crc32_frames(body) != crc[0] {
            // Resync one frame at a time: the buffered "header" may be a
            // payload or CRC frame whose top byte only looks like a magic.
            // Dropping the whole buffer would misframe the same way on every
            // go-back-N resend, so drop just that frame and re-feed the rest.
            self.stats.rejected += 1;
            for &f in &seg[1..] {
                self.on_frame(now, f);
            }
            return;
        }
        let header = body[0];
        if header >> 24 == ACK_MAGIC {
            self.on_ack(now, header as u16);
        } else {
            self.on_data(header as u16, body[1]);
        }
    }

    fn on_ack(&mut self, now: u64, ack16: u16) {
        self.stats.acks_received += 1;
        // Any CRC-valid ack is proof the peer is alive and the reverse
        // path works, even when it acknowledges nothing new (its cumulative
        // ack for our retransmission of data it already holds). The retry
        // cap exists to detect an unreachable peer, so it counts only
        // consecutive timeouts with *no* valid ack in between.
        self.retries = 0;
        let Some(&(base, _)) = self.unacked.front() else {
            return; // duplicate ack for an already-drained window
        };
        let delta = ack16.wrapping_sub(base as u16) as usize;
        if delta >= self.unacked.len() {
            return; // stale duplicate: no progress
        }
        let n_acked = delta + 1;
        self.unacked.drain(..n_acked);
        self.send_cursor = self.send_cursor.saturating_sub(n_acked);
        self.backoff_exp = 0;
        // A late ack revives a declared-dead endpoint, and the give-up
        // flag follows: it reports the endpoint's current state, and idle
        // detection must not treat a revived link as abandoned.
        self.dead = false;
        self.stats.gave_up = false;
        self.deadline = if self.unacked.is_empty() {
            None
        } else {
            Some(now + self.cfg.ack_timeout)
        };
    }

    fn on_data(&mut self, seq16: u16, payload: u32) {
        if seq16 == self.expected as u16 {
            self.delivered.push_back(payload);
            self.expected += 1;
            self.stats.delivered += 1;
        } else {
            self.stats.rejected += 1; // duplicate or out-of-order: re-ack only
        }
        // Cumulative ack for the highest in-order sequence seen. At start
        // of day this is `0u16.wrapping_sub(1)`, which the peer ignores.
        self.pending_ack = Some((self.expected.wrapping_sub(1)) as u16);
    }

    /// Next validated in-order payload for the application.
    pub fn deliver(&mut self) -> Option<u32> {
        self.delivered.pop_front()
    }

    /// True when a call to [`Endpoint::pull_frame`] would emit a frame right
    /// now (staged frames, an owed ack, or sendable window).
    pub fn has_tx_work(&self) -> bool {
        !self.out_buf.is_empty()
            || self.pending_ack.is_some()
            || (!self.dead && self.send_cursor < self.unacked.len().min(self.cfg.window))
    }

    /// True when payloads are waiting in the delivery queue.
    pub fn has_deliverable(&self) -> bool {
        !self.delivered.is_empty()
    }

    /// The retransmit deadline, for event-driven fast-forwarding. A
    /// simulator may skip idle cycles as long as it steps this endpoint at
    /// or before the returned cycle.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.deadline
    }

    /// All data delivered and acknowledged, nothing staged, nothing owed.
    /// (A partially received segment does not block quiescence: its sender
    /// still holds the unacked payload and will retransmit or give up.)
    pub fn is_quiescent(&self) -> bool {
        self.unacked.is_empty()
            && self.out_buf.is_empty()
            && self.pending_ack.is_none()
            && self.delivered.is_empty()
    }

    /// The retry cap was exceeded; the endpoint no longer retransmits.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    pub fn config(&self) -> &TransportConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransportConfig {
        TransportConfig {
            window: 4,
            ack_timeout: 16,
            max_backoff_exp: 3,
            max_retries: 8,
        }
    }

    /// Shuttle frames between two endpoints over perfect zero-latency
    /// wires, with an optional per-frame mutator for fault injection.
    fn shuttle(
        a: &mut Endpoint,
        b: &mut Endpoint,
        cycles: u64,
        mut fault: impl FnMut(u64, u32) -> Option<u32>,
    ) {
        let mut idx = 0u64;
        for now in 0..cycles {
            a.poll(now);
            b.poll(now);
            if let Some(f) = a.pull_frame(now) {
                if let Some(f) = fault(idx, f) {
                    b.on_frame(now, f);
                }
                idx += 1;
            }
            if let Some(f) = b.pull_frame(now) {
                // faults only on the a→b direction in these tests
                a.on_frame(now, f);
            }
        }
    }

    #[test]
    fn lossless_roundtrip_in_order() {
        let mut a = Endpoint::new(cfg());
        let mut b = Endpoint::new(cfg());
        for v in 0..20u32 {
            a.send(v * 3);
        }
        shuttle(&mut a, &mut b, 400, |_, f| Some(f));
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..20u32).map(|v| v * 3).collect::<Vec<_>>());
        assert!(a.is_quiescent(), "all segments acked: {:?}", a.stats());
        assert!(b.is_quiescent());
        assert_eq!(a.stats().retransmits, 0, "no loss, no retransmit");
        assert_eq!(b.stats().delivered, 20);
    }

    #[test]
    fn dropped_frames_are_retransmitted() {
        let mut a = Endpoint::new(cfg());
        let mut b = Endpoint::new(cfg());
        for v in 0..10u32 {
            a.send(0x1000 + v);
        }
        // Drop every 7th frame on the forward wire.
        shuttle(&mut a, &mut b, 4_000, |i, f| (i % 7 != 3).then_some(f));
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..10u32).map(|v| 0x1000 + v).collect::<Vec<_>>());
        assert!(a.stats().retransmits > 0, "loss must force resends");
        assert!(a.is_quiescent());
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        let mut a = Endpoint::new(cfg());
        let mut b = Endpoint::new(cfg());
        for v in 0..10u32 {
            a.send(0xAB00 + v);
        }
        // Flip one bit in every 5th frame.
        shuttle(&mut a, &mut b, 4_000, |i, f| {
            Some(if i % 5 == 2 { f ^ 0x0001_0000 } else { f })
        });
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..10u32).map(|v| 0xAB00 + v).collect::<Vec<_>>());
        assert!(b.stats().rejected > 0, "corrupt segments must be rejected");
        assert!(a.is_quiescent());
    }

    #[test]
    fn misaligned_receiver_resyncs_past_a_magic_looking_crc() {
        // A payload whose CRC frame starts with the ack magic. A receiver
        // that joins mid-segment buffers that CRC as an ack header, and the
        // next frame (the resent header) fails its CRC check; resync must
        // then restart from the header, not drop it with the bad frame.
        let header = DATA_MAGIC << 24;
        let (payload, crc) = (0u32..)
            .map(|p| (p, crc32_frames(&[header, p])))
            .find(|&(_, c)| c >> 24 == ACK_MAGIC)
            .expect("some payload's CRC carries the ack magic");
        let mut b = Endpoint::new(cfg());
        b.on_frame(0, payload);
        b.on_frame(0, crc);
        for resend in 1..=5u64 {
            for f in [header, payload, crc] {
                b.on_frame(resend, f);
            }
        }
        assert_eq!(b.deliver(), Some(payload), "{:?}", b.stats());
        assert_eq!(b.deliver(), None, "resends are duplicates");
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut a = Endpoint::new(cfg());
        let mut b = Endpoint::new(cfg());
        for v in 0..8u32 {
            a.send(v);
        }
        // Stash a copy of every 6th forward frame and replay the copies
        // after the run: stale duplicates must be rejected, not redelivered.
        let mut extra: Vec<u32> = Vec::new();
        shuttle(&mut a, &mut b, 4_000, |i, f| {
            if i % 6 == 1 {
                extra.push(f);
            }
            Some(f)
        });
        for f in extra {
            b.on_frame(4_000, f);
        }
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..8u32).collect::<Vec<_>>());
    }

    #[test]
    fn retry_cap_kills_the_endpoint() {
        let mut a = Endpoint::new(cfg());
        a.send(42);
        // Black-hole wire: pull frames, never deliver, never ack.
        for now in 0..1_000_000u64 {
            a.poll(now);
            let _ = a.pull_frame(now);
            if a.is_dead() {
                break;
            }
        }
        assert!(a.is_dead());
        assert!(a.stats().gave_up);
        assert!(!a.is_quiescent(), "undelivered data is not quiescence");
    }

    #[test]
    fn backoff_saturates_past_32_doublings() {
        // With the backoff cap lifted past 64 the shift `ack_timeout <<
        // backoff_exp` used to overflow (and in release builds wrap to a
        // deadline in the past, retransmitting every cycle). Drive the
        // retry loop far beyond 32 doublings on a black-hole wire and
        // check the deadline stays monotone and saturates instead.
        let cfg = TransportConfig {
            window: 1,
            ack_timeout: 16,
            max_backoff_exp: 90,
            max_retries: u32::MAX,
        };
        let mut a = Endpoint::new(cfg);
        a.send(7);
        let _ = (a.pull_frame(0), a.pull_frame(0), a.pull_frame(0));
        let mut doublings = 0u32;
        let mut last_deadline = a.next_event_cycle().expect("armed");
        while doublings < 70 {
            let d = a.next_event_cycle().expect("still armed");
            assert!(
                d >= last_deadline,
                "deadline went backwards: {last_deadline} -> {d}"
            );
            last_deadline = d;
            a.poll(d); // expire the timer: rewind window, double backoff
            while a.pull_frame(d).is_some() {}
            doublings += 1;
        }
        // 16 << 59 fits in u64; 16 << 60 does not. Past saturation the
        // deadline pins at u64::MAX and the endpoint stays alive.
        assert_eq!(a.next_event_cycle(), Some(u64::MAX));
        assert!(!a.is_dead());
        assert!(a.stats().retransmits >= 32);
        // A late ack still revives the exchange after saturation.
        let header = ACK_MAGIC << 24;
        a.on_frame(last_deadline, header);
        a.on_frame(last_deadline, crc32_frames(&[header]));
        assert!(
            a.is_quiescent(),
            "saturated endpoint must still accept acks"
        );
    }

    #[test]
    fn timer_exposes_next_event_for_fast_forward() {
        let mut a = Endpoint::new(cfg());
        assert_eq!(a.next_event_cycle(), None);
        a.send(1);
        let _ = a.pull_frame(100); // header
        assert_eq!(a.next_event_cycle(), Some(100 + 16));
        // Fast-forward straight to the deadline, then poll: the window
        // rewinds and the segment is retransmitted.
        a.poll(116);
        let _ = (a.pull_frame(116), a.pull_frame(116), a.pull_frame(116));
        // drain the original segment's remaining frames plus the resend
        let mut frames = 0;
        while a.pull_frame(117).is_some() {
            frames += 1;
        }
        let _ = frames;
        assert!(a.stats().retransmits >= 1);
    }

    #[test]
    fn ack_wraps_cleanly_past_u16() {
        let tight = TransportConfig { window: 2, ..cfg() };
        let mut a = Endpoint::new(tight);
        let mut b = Endpoint::new(tight);
        // Push enough traffic through to wrap the 16-bit wire sequence.
        let total = 70_000u32;
        let mut sent = 0u32;
        let mut got = 0u32;
        let mut now = 0u64;
        while got < total {
            while sent < total && sent < got + 64 {
                a.send(sent);
                sent += 1;
            }
            a.poll(now);
            b.poll(now);
            if let Some(f) = a.pull_frame(now) {
                b.on_frame(now, f);
            }
            if let Some(f) = b.pull_frame(now) {
                a.on_frame(now, f);
            }
            while let Some(p) = b.deliver() {
                assert_eq!(p, got);
                got += 1;
            }
            now += 1;
            assert!(now < 3_000_000, "wrap test wedged at {got}/{total}");
        }
        // Let the final acks travel back before checking quiescence.
        for _ in 0..16 {
            a.poll(now);
            b.poll(now);
            if let Some(f) = a.pull_frame(now) {
                b.on_frame(now, f);
            }
            if let Some(f) = b.pull_frame(now) {
                a.on_frame(now, f);
            }
            now += 1;
        }
        assert!(a.is_quiescent());
    }
}
