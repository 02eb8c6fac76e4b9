//! Reliable link transport: go-back-N framing with per-word sequence
//! numbers, CRC-32 protection and cumulative acknowledgements.
//!
//! The paper's framing layer assumes the transceiver delivers every 32-bit
//! frame intact; this module is the drop-in replacement for lossy links.
//! Application frames (32-bit words of the normal host↔device wire
//! protocol) travel in *data segments* of one header, `len` payload words
//! and a CRC, in the style of HGum's header/payload/CRC messages:
//!
//! ```text
//! [ 0xD5 << 24 | len:u8 << 16 | seq:u16 ]  [ payload:u32 ] × len  [ crc32(header, payloads) ]
//! ```
//!
//! `seq` numbers the first payload word; the words that follow take the
//! next sequence numbers in turn. Segments are acknowledged by a
//! two-frame *ack segment* on the reverse link:
//!
//! ```text
//! [ 0xAC << 24 | cum_seq:u16 ]  [ crc32(header) ]
//! ```
//!
//! Both directions run one [`Endpoint`] each; an endpoint transmits its own
//! data segments *and* the acks for the segments it receives, so the
//! protocol is fully symmetric between host and device. A data segment
//! carries every sendable unacked word, up to half the window, so two
//! segments can be in flight at once. Receivers deliver payloads strictly
//! in sequence order and answer every data segment (in-order or not) with
//! a cumulative ack; transmitters resend the whole unacked window on an
//! ack timeout (go-back-N) with exponential backoff, giving up after a
//! configurable retry cap. Each timeout also halves the segment length
//! (down to one word, so a lossy link still gets short segments through)
//! and each ack that makes progress doubles it again, up to its maximum.
//!
//! Everything here is deterministic: no randomness, and the only notion of
//! time is the cycle number threaded in by the caller, so a simulation may
//! fast-forward across an idle span as long as it never skips past
//! [`Endpoint::next_event_cycle`], the bandwidth gate after a segment it
//! sent, or the arrival of the frame [`Endpoint::first_effect`] names.

use crate::crc::crc32_frames;
use std::collections::VecDeque;

/// Marker byte (bits 31..24) of a data-segment header frame.
pub const DATA_MAGIC: u32 = 0xD5;
/// Marker byte (bits 31..24) of an ack-segment header frame.
pub const ACK_MAGIC: u32 = 0xAC;
/// Frames per one-word data segment: header, payload, CRC. A segment of
/// `len` words takes `DATA_SEGMENT_FRAMES - 1 + len` frames.
pub const DATA_SEGMENT_FRAMES: usize = 3;
/// Frames per ack segment: header, CRC.
pub const ACK_SEGMENT_FRAMES: usize = 2;

/// Tuning knobs for one reliable endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum unacked payload words in flight (go-back-N window). One
    /// data segment carries at most half of it (at least one word). Must
    /// be far below 2^15 so 16-bit sequence comparisons stay unambiguous.
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
            window: 16,
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
    /// time of a full window (its payload words, and the header, CRC and
    /// ack of each segment), with headroom so a healthy link never
    /// retransmits spuriously.
    pub fn for_link(latency_cycles: u64, cycles_per_frame: u64) -> Self {
        let cfg = TransportConfig::default();
        let segments = cfg.window.div_ceil(cfg.max_segment_words());
        let per_segment = DATA_SEGMENT_FRAMES - 1 + ACK_SEGMENT_FRAMES;
        let serialise = cycles_per_frame * (cfg.window + per_segment * segments) as u64;
        TransportConfig {
            ack_timeout: 2 * latency_cycles + serialise + 64,
            ..cfg
        }
    }

    /// The most payload words one data segment may carry: half the
    /// window, never fewer than one and never more than the 8-bit length
    /// field holds.
    fn max_segment_words(&self) -> usize {
        (self.window / 2).clamp(1, u8::MAX as usize)
    }
}

/// Counters exposed alongside `SimStats` for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data segments whose first word was sent for the first time.
    pub segments_sent: u64,
    /// Data segments re-sent after an ack timeout (go-back-N resends).
    pub retransmits: u64,
    /// Ack segments emitted.
    pub acks_sent: u64,
    /// Valid ack segments received (including duplicates).
    pub acks_received: u64,
    /// In-order payload words accepted and delivered.
    pub delivered: u64,
    /// Frames skipped while hunting for a header, and segments discarded
    /// for a CRC mismatch or for carrying no new in-sequence word.
    pub rejected: u64,
    /// Wire frames emitted: data and ack segments, resends included.
    pub wire_frames: u64,
    /// Consecutive ack timeouts exceeded `max_retries`; the endpoint has
    /// stopped retransmitting.
    pub gave_up: bool,
}

/// One direction-pair of the reliable protocol: transmits data segments for
/// the local application, receives data segments from the peer, and
/// multiplexes acks for the peer's data onto its own outgoing frame stream.
///
/// It works a segment at a time on both sides: [`Endpoint::pull_segment`]
/// hands over a whole segment or ack for the caller to pace onto the
/// link, and [`Endpoint::first_effect`] names the frame in flight that
/// completes one, the only arrival that changes anything outside the
/// endpoint, so a simulator may wake a receiver there and not at every
/// frame. [`Endpoint::next_effect`] finds that frame from the segment's
/// header alone and remembers it until the endpoint takes a frame.
#[derive(Debug, Clone)]
pub struct Endpoint {
    cfg: TransportConfig,

    // --- transmit side -------------------------------------------------
    /// Unacked payloads, oldest first.
    unacked: VecDeque<u32>,
    /// Sequence number of `unacked[0]` (only the low 16 bits travel on
    /// the wire).
    base: u64,
    /// First sequence number never transmitted.
    high_water: u64,
    /// Index into `unacked` of the next word to (re)transmit. Entries
    /// below the cursor have been sent at least once this round.
    send_cursor: usize,
    /// Payload words the next data segment may carry: halved by each ack
    /// timeout, doubled by each ack that makes progress.
    seg_cap: usize,
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
    /// [`Endpoint::next_effect`]'s answer: the index, in the peer's
    /// frames in flight, of the one that acts. `None` until asked and
    /// once a frame is taken, as that moves the queue it indexes.
    effect_at: Option<usize>,

    /// The segment being staged by [`Endpoint::pull_segment`]; empty
    /// between calls, kept only to reuse its buffer.
    out_buf: Vec<u32>,

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
            base: 0,
            high_water: 0,
            send_cursor: 0,
            seg_cap: cfg.max_segment_words(),
            deadline: None,
            backoff_exp: 0,
            retries: 0,
            dead: false,
            expected: 0,
            rx_buf: Vec::new(),
            pending_ack: None,
            delivered: VecDeque::new(),
            effect_at: None,
            out_buf: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Queue one application frame for reliable delivery to the peer.
    pub fn send(&mut self, payload: u32) {
        self.unacked.push_back(payload);
    }

    /// Advance the retransmit timer to `now`. On expiry the whole unacked
    /// window is rewound for retransmission (go-back-N), the segment cap
    /// halves and the timeout doubles, up to the backoff cap;
    /// `max_retries` consecutive timeouts without ack progress mark the
    /// endpoint dead.
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
                    self.seg_cap = (self.seg_cap / 2).max(1);
                    self.backoff_exp = (self.backoff_exp + 1).min(self.cfg.max_backoff_exp);
                    self.deadline = Some(now.saturating_add(self.backoff_timeout()));
                }
            }
        }
    }

    /// Stage the next segment at `now` and hand over all of its wire
    /// frames: an owed ack before any data, so the peer's window reopens
    /// as fast as possible, else the next data segment of the window
    /// (which arms the retransmit deadline from `now`). Empty when there
    /// is nothing to send. The caller paces the frames onto the link, so
    /// the next call belongs at the bandwidth gate after the last one.
    pub fn pull_segment(&mut self, now: u64) -> std::vec::Drain<'_, u32> {
        self.refill(now);
        self.stats.wire_frames += self.out_buf.len() as u64;
        self.out_buf.drain(..)
    }

    fn refill(&mut self, now: u64) {
        if let Some(ack) = self.pending_ack.take() {
            let header = (ACK_MAGIC << 24) | ack as u32;
            self.out_buf.extend([header, crc32_frames(&[header])]);
            self.stats.acks_sent += 1;
            return;
        }
        if self.dead {
            return;
        }
        let sendable = self.unacked.len().min(self.cfg.window);
        if self.send_cursor < sendable {
            let start = self.send_cursor;
            let len = (sendable - start).min(self.seg_cap);
            let seq = self.base + start as u64;
            if seq < self.high_water {
                self.stats.retransmits += 1;
            } else {
                self.stats.segments_sent += 1;
            }
            let header = (DATA_MAGIC << 24) | (len as u32) << 16 | (seq as u16) as u32;
            self.out_buf.push(header);
            self.out_buf.extend(self.unacked.range(start..start + len));
            self.out_buf.push(crc32_frames(&self.out_buf));
            self.send_cursor += len;
            self.high_water = self.high_water.max(seq + len as u64);
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

    /// Frames in the segment that `header` starts, or `None` when it is
    /// no header: a wrong magic, or a data length of 0 or above the
    /// segment maximum. Bounding the length keeps one corrupt length byte
    /// from swallowing the resends that follow it.
    fn segment_frames(&self, header: u32) -> Option<usize> {
        match header >> 24 {
            ACK_MAGIC => Some(ACK_SEGMENT_FRAMES),
            DATA_MAGIC => {
                let len = (header >> 16) as u8 as usize;
                (1..=self.cfg.max_segment_words())
                    .contains(&len)
                    .then_some(DATA_SEGMENT_FRAMES - 1 + len)
            }
            _ => None,
        }
    }

    /// Index of the first of `frames` (the peer's frames on the wire, in
    /// arrival order) that [`Endpoint::on_frame`] would do more with than
    /// buffer: the frame that fills a segment, valid or not, or one
    /// skipped while hunting for a header. The frames before it only fill
    /// the segment buffer, which nothing outside sees, so a receiver may
    /// take them all when that frame arrives. `None` when no frame acts.
    pub fn first_effect(&self, frames: impl IntoIterator<Item = u32>) -> Option<usize> {
        let mut header = self.rx_buf.first().copied();
        let mut len = self.rx_buf.len();
        for (i, frame) in frames.into_iter().enumerate() {
            let Some(want) = self.segment_frames(*header.get_or_insert(frame)) else {
                return Some(i); // skipped while hunting for a header
            };
            len += 1;
            if len == want {
                return Some(i);
            }
        }
        None
    }

    /// [`Endpoint::first_effect`] over the peer's `in_flight` frames,
    /// `head` first, in a queue that grows at its back and loses frames
    /// at its front only to [`Endpoint::on_frame`]. The frame that acts
    /// follows from the segment header alone (the one buffered, else
    /// `head`), so it is found in one step and remembered while frames
    /// land behind it, until the endpoint next takes a frame.
    pub fn next_effect(&mut self, head: u32, in_flight: usize) -> Option<usize> {
        let at = self.effect_at.unwrap_or_else(|| {
            let header = self.rx_buf.first().copied().unwrap_or(head);
            self.segment_frames(header)
                .map_or(0, |want| want - self.rx_buf.len() - 1)
        });
        self.effect_at = Some(at);
        (at < in_flight).then_some(at)
    }

    /// Feed one frame received from the peer's link.
    pub fn on_frame(&mut self, now: u64, frame: u32) {
        self.effect_at = None;
        let header = self.rx_buf.first().copied().unwrap_or(frame);
        let Some(want) = self.segment_frames(header) else {
            self.stats.rejected += 1; // resync: skip until a header
            return;
        };
        self.rx_buf.push(frame);
        if self.rx_buf.len() < want {
            return;
        }
        let (body, crc) = self.rx_buf.split_at(want - 1);
        if crc32_frames(body) != crc[0] {
            // Resync one frame at a time: the buffered "header" may be a
            // payload or CRC frame whose top byte only looks like a magic.
            // Dropping the whole buffer would misframe the same way on every
            // go-back-N resend, so drop just that frame and re-feed the rest.
            self.stats.rejected += 1;
            let seg = std::mem::take(&mut self.rx_buf);
            for &f in &seg[1..] {
                self.on_frame(now, f);
            }
            return;
        }
        if header >> 24 == ACK_MAGIC {
            self.on_ack(now, header as u16);
        } else {
            self.on_data(header as u16);
        }
        self.rx_buf.clear();
    }

    fn on_ack(&mut self, now: u64, ack16: u16) {
        self.stats.acks_received += 1;
        // Any CRC-valid ack is proof the peer is alive and the reverse
        // path works, even when it acknowledges nothing new (its cumulative
        // ack for our retransmission of data it already holds). The retry
        // cap exists to detect an unreachable peer, so it counts only
        // consecutive timeouts with *no* valid ack in between.
        self.retries = 0;
        let delta = ack16.wrapping_sub(self.base as u16) as usize;
        if delta >= self.unacked.len() {
            return; // duplicate for a drained window, or stale: no progress
        }
        let n_acked = delta + 1;
        self.unacked.drain(..n_acked);
        self.base += n_acked as u64;
        self.send_cursor = self.send_cursor.saturating_sub(n_acked);
        self.seg_cap = (self.seg_cap * 2).min(self.cfg.max_segment_words());
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

    /// Accept the CRC-valid data segment in `rx_buf` that starts at
    /// `seq16`. A resend overlapping words already delivered delivers only
    /// its new tail; a segment with no word at `expected` is dropped.
    fn on_data(&mut self, seq16: u16) {
        let payload = &self.rx_buf[1..self.rx_buf.len() - 1];
        let offset = (self.expected as u16).wrapping_sub(seq16) as usize;
        if offset < payload.len() {
            let fresh = &payload[offset..];
            self.delivered.extend(fresh);
            self.expected += fresh.len() as u64;
            self.stats.delivered += fresh.len() as u64;
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

    /// True when a call to [`Endpoint::pull_segment`] would stage a
    /// segment right now (an owed ack, or sendable window).
    pub fn has_tx_work(&self) -> bool {
        self.pending_ack.is_some()
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

    /// All data delivered and acknowledged, nothing owed.
    /// (A partially received segment does not block quiescence: its sender
    /// still holds the unacked payload and will retransmit or give up.)
    pub fn is_quiescent(&self) -> bool {
        self.unacked.is_empty() && self.pending_ack.is_none() && self.delivered.is_empty()
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

    /// Paces an endpoint's segments onto a wire one frame per cycle, as a
    /// link with a one-cycle bandwidth gate does: the next segment is
    /// staged in the cycle after the last frame of the one before.
    #[derive(Default)]
    struct Pacer(VecDeque<u32>);

    impl Pacer {
        fn next(&mut self, ep: &mut Endpoint, now: u64) -> Option<u32> {
            if self.0.is_empty() {
                self.0.extend(ep.pull_segment(now));
            }
            self.0.pop_front()
        }
    }

    /// Every frame `ep` has to send at `now`, segment after segment.
    fn pull_all(ep: &mut Endpoint, now: u64) -> Vec<u32> {
        let mut frames = Vec::new();
        loop {
            let before = frames.len();
            frames.extend(ep.pull_segment(now));
            if frames.len() == before {
                return frames;
            }
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
        let (mut to_b, mut to_a) = (Pacer::default(), Pacer::default());
        let mut idx = 0u64;
        for now in 0..cycles {
            a.poll(now);
            b.poll(now);
            if let Some(f) = to_b.next(a, now) {
                if let Some(f) = fault(idx, f) {
                    b.on_frame(now, f);
                }
                idx += 1;
            }
            if let Some(f) = to_a.next(b, now) {
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
    fn corruption_shrinks_segments_until_they_get_through() {
        // Flip a quarter of the frames along a golden-ratio sequence: hits
        // are 2, 3 or 5 frames apart, so every segment of 5 or more frames
        // (3 or more words) is hit and only shorter resends get through.
        // (A strictly periodic pattern could line up with go-back-N's
        // resend rounds the same way every round.)
        let (mut a, mut b) = (Endpoint::new(wide()), Endpoint::new(wide()));
        for v in 0..20u32 {
            a.send(0xCD00 + v);
        }
        shuttle(&mut a, &mut b, 20_000, |i, f| {
            let hit = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0;
            Some(if hit { f ^ 0x0001_0000 } else { f })
        });
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..20u32).map(|v| 0xCD00 + v).collect::<Vec<_>>());
        assert!(a.is_quiescent(), "{:?}", a.stats());
    }

    #[test]
    fn misaligned_receiver_resyncs_past_a_magic_looking_crc() {
        // A payload whose CRC frame starts with the ack magic. A receiver
        // that joins mid-segment buffers that CRC as an ack header, and the
        // next frame (the resent header) fails its CRC check; resync must
        // then restart from the header, not drop it with the bad frame.
        let header = DATA_MAGIC << 24 | 1 << 16;
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
    fn a_failed_check_resyncs_frame_by_frame_onto_the_next_segment() {
        // A corrupt frame that still reads as a two-word data header
        // swallows a magic-looking payload word of a lost segment and the
        // first two frames of a valid one. When its CRC check fails,
        // resync drops only the corrupt frame and re-feeds the rest: the
        // payload word is taken as a header and fails its own check in
        // turn, and the valid segment is then taken whole. Dropping the
        // buffer would lose that segment until a resend.
        let words = [0x0101_0101, 0x0202_0202];
        let seg = data_segment(0, &words);
        let corrupt = DATA_MAGIC << 24 | 2 << 16 | 0x0bad;
        for magic in [DATA_MAGIC, ACK_MAGIC] {
            let stray = magic << 24 | 1 << 16 | 0x77;
            let mut b = Endpoint::new(cfg());
            for &f in [corrupt, stray].iter().chain(&seg) {
                b.on_frame(0, f);
            }
            let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
            assert_eq!(got, words, "stray {stray:#x}: {:?}", b.stats());
            assert_eq!(b.stats().rejected, 2, "two failed checks");
            // A go-back-N resend is a duplicate; the next segment is new.
            let next = data_segment(2, &[0x0303_0303]);
            for &f in seg.iter().chain(&next) {
                b.on_frame(1, f);
            }
            let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
            assert_eq!(got, [0x0303_0303], "stray {stray:#x}: {:?}", b.stats());
        }
    }

    /// `cfg()` with room for 8-word segments.
    fn wide() -> TransportConfig {
        TransportConfig {
            window: 16,
            ..cfg()
        }
    }

    /// A CRC-valid data segment starting at `seq`, built by hand.
    fn data_segment(seq: u16, words: &[u32]) -> Vec<u32> {
        let mut seg = vec![DATA_MAGIC << 24 | (words.len() as u32) << 16 | seq as u32];
        seg.extend(words);
        seg.push(crc32_frames(&seg));
        seg
    }

    #[test]
    fn a_message_goes_out_as_one_segment() {
        let (mut a, mut b) = (Endpoint::new(wide()), Endpoint::new(wide()));
        let msg = [11, 22, 33, 44, 55, 66];
        msg.iter().for_each(|&w| a.send(w));
        let frames = pull_all(&mut a, 0);
        assert_eq!(frames, data_segment(0, &msg));
        assert_eq!(frames.len(), 8);
        assert_eq!(a.stats().segments_sent, 1);
        assert_eq!(a.stats().wire_frames, 8);
        frames.iter().for_each(|&f| b.on_frame(0, f));
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, msg);
        assert_eq!(b.stats().delivered, 6);
        // One cumulative ack covers the whole segment.
        pull_all(&mut b, 0).iter().for_each(|&f| a.on_frame(0, f));
        assert_eq!(b.stats().acks_sent, 1);
        assert!(a.is_quiescent(), "{:?}", a.stats());
    }

    #[test]
    fn a_resend_after_a_lost_ack_delivers_only_new_words() {
        let (mut a, mut b) = (Endpoint::new(wide()), Endpoint::new(wide()));
        a.send(10);
        a.send(11);
        pull_all(&mut a, 0).iter().for_each(|&f| b.on_frame(0, f));
        pull_all(&mut b, 0); // the ack is lost
        a.send(12);
        a.send(13);
        // The timeout rewinds the window: one resend carries all four
        // words, two of which the receiver already holds.
        a.poll(16);
        pull_all(&mut a, 16).iter().for_each(|&f| b.on_frame(16, f));
        assert_eq!(a.stats().retransmits, 1);
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, [10, 11, 12, 13]);
        assert_eq!(b.stats().delivered, 4);
        pull_all(&mut b, 16).iter().for_each(|&f| a.on_frame(16, f));
        assert!(a.is_quiescent(), "{:?}", a.stats());
        // A stale resend of the first segment delivers nothing.
        data_segment(0, &[10, 11])
            .iter()
            .for_each(|&f| b.on_frame(17, f));
        assert_eq!(b.deliver(), None);
        assert_eq!(b.stats().delivered, 4);
    }

    #[test]
    fn first_effect_is_the_frame_that_fills_a_segment() {
        let mut b = Endpoint::new(wide());
        let seg = data_segment(0, &[1, 2]);
        assert_eq!(b.first_effect(seg.iter().copied()), Some(3));
        assert_eq!(b.first_effect(seg[..3].iter().copied()), None);
        assert_eq!(b.first_effect([]), None);
        // A frame skipped while hunting for a header acts at once.
        assert_eq!(b.first_effect([7].into_iter().chain(seg.clone())), Some(0));
        // The walk starts from the partial segment already buffered.
        seg[..2].iter().for_each(|&f| b.on_frame(0, f));
        assert_eq!(b.first_effect(seg[2..].iter().copied()), Some(1));
        assert_eq!(b.stats().rejected, 0);
        seg[2..].iter().for_each(|&f| b.on_frame(0, f));
        assert_eq!(b.stats().delivered, 2);
    }

    #[test]
    fn a_header_with_a_bad_length_is_never_buffered() {
        // window 4: a segment carries at most 2 words.
        let mut b = Endpoint::new(cfg());
        let empty = DATA_MAGIC << 24;
        let long = data_segment(0, &[1, 2, 3]);
        for f in std::iter::once(empty).chain(long.iter().copied()) {
            b.on_frame(0, f);
            assert!(b.rx_buf.is_empty(), "buffered {f:#x}");
        }
        assert_eq!(b.stats().rejected, 1 + long.len() as u64);
        assert_eq!(b.deliver(), None);
        // The next valid segment is taken as usual.
        data_segment(0, &[1, 2])
            .iter()
            .for_each(|&f| b.on_frame(0, f));
        assert_eq!(b.stats().delivered, 2);
    }

    #[test]
    fn segment_cap_halves_per_timeout_and_regrows_per_ack() {
        let mut a = Endpoint::new(wide());
        (0..16).for_each(|w| a.send(w));
        let first_len = |a: &mut Endpoint, now| {
            let header = pull_all(a, now)[0];
            (header >> 16) as u8
        };
        assert_eq!(first_len(&mut a, 0), 8);
        // Black hole: every timeout halves the segment, down to one word.
        for want in [4, 2, 1, 1] {
            let d = a.next_event_cycle().expect("armed");
            a.poll(d);
            assert_eq!(first_len(&mut a, d), want);
        }
        let ack = |a: &mut Endpoint, seq: u32| {
            let header = ACK_MAGIC << 24 | seq;
            a.on_frame(0, header);
            a.on_frame(0, crc32_frames(&[header]));
        };
        // Each ack that makes progress doubles the cap once, up to half
        // the window; a duplicate ack does not.
        for (seq, want) in [(0, 2), (0, 2), (1, 4), (2, 8), (3, 8)] {
            ack(&mut a, seq);
            assert_eq!(a.seg_cap, want, "after the ack for {seq}");
        }
    }

    #[test]
    fn a_wide_window_caps_segments_at_the_length_field() {
        let huge = TransportConfig {
            window: 1024,
            ..cfg()
        };
        let (mut a, mut b) = (Endpoint::new(huge), Endpoint::new(huge));
        (0..600u32).for_each(|v| a.send(v));
        let first: Vec<u32> = a.pull_segment(0).collect();
        assert_eq!(first[0] >> 24, DATA_MAGIC);
        assert_eq!((first[0] >> 16) as u8, u8::MAX);
        assert_eq!(first.len(), DATA_SEGMENT_FRAMES - 1 + u8::MAX as usize);
        first.iter().for_each(|&f| b.on_frame(0, f));
        shuttle(&mut a, &mut b, 4_000, |_, f| Some(f));
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..600u32).collect::<Vec<_>>());
        assert!(a.is_quiescent(), "{:?}", a.stats());
    }

    #[test]
    fn window_of_one_sends_one_word_segments() {
        let one = TransportConfig { window: 1, ..cfg() };
        let (mut a, mut b) = (Endpoint::new(one), Endpoint::new(one));
        for v in 0..10u32 {
            a.send(0x500 + v);
        }
        shuttle(&mut a, &mut b, 4_000, |i, f| (i % 7 != 3).then_some(f));
        let got: Vec<u32> = std::iter::from_fn(|| b.deliver()).collect();
        assert_eq!(got, (0..10u32).map(|v| 0x500 + v).collect::<Vec<_>>());
        assert!(a.is_quiescent());
        let sent = a.stats().segments_sent + a.stats().retransmits;
        let data_frames = a.stats().wire_frames - ACK_SEGMENT_FRAMES as u64 * a.stats().acks_sent;
        assert_eq!(data_frames, DATA_SEGMENT_FRAMES as u64 * sent);
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
            pull_all(&mut a, now);
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
        assert_eq!(pull_all(&mut a, 0).len(), DATA_SEGMENT_FRAMES);
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
            pull_all(&mut a, d);
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
        assert_eq!(pull_all(&mut a, 100).len(), DATA_SEGMENT_FRAMES);
        assert_eq!(a.next_event_cycle(), Some(100 + 16));
        // Fast-forward straight to the deadline, then poll: the window
        // rewinds and the segment is retransmitted.
        a.poll(116);
        assert_eq!(pull_all(&mut a, 116).len(), DATA_SEGMENT_FRAMES);
        assert_eq!(a.stats().retransmits, 1);
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
        let (mut to_b, mut to_a) = (Pacer::default(), Pacer::default());
        let mut now = 0u64;
        while got < total {
            while sent < total && sent < got + 64 {
                a.send(sent);
                sent += 1;
            }
            a.poll(now);
            b.poll(now);
            if let Some(f) = to_b.next(&mut a, now) {
                b.on_frame(now, f);
            }
            if let Some(f) = to_a.next(&mut b, now) {
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
            if let Some(f) = to_b.next(&mut a, now) {
                b.on_frame(now, f);
            }
            if let Some(f) = to_a.next(&mut b, now) {
                a.on_frame(now, f);
            }
            now += 1;
        }
        assert!(a.is_quiescent());
    }
}
