//! Host ↔ coprocessor messages and their 32-bit wire framing.
//!
//! "To perform an accelerated operation, the host sends one or more packets
//! of data to the controller on the FPGA. The controller then coordinates
//! the execution of the operations and returns the final results to the
//! processor." The RTM's first pipeline stage is a *message buffer* that
//! "receives data from the FPGA input port connected to the host processor
//! and converts it to a form usable by the decoder"; symmetrically a
//! *message encoder* multiplexes "several types of message that can be sent
//! from the RTM to the host, including data records and flag vectors" and a
//! *message serialiser* converts them "to the form required by the
//! communication port".
//!
//! This module defines the message types and one concrete wire protocol
//! over 32-bit frames (a header frame followed by payload frames). The
//! framing layer is exactly what a different transceiver would replace;
//! everything above it is framework-fixed.

use std::marker::PhantomData;

use crate::flags::Flags;
use crate::instr::{InstrWord, RegNum};
use crate::word::Word;

/// Sequence tag correlating host requests with device responses. The RTM
/// releases responses in tag order so that "the stream of results returned
/// to the processor will be consistent with the stream of instructions
/// that were issued".
pub type Tag = u16;

/// Messages travelling host → coprocessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostMsg {
    /// Write a data register.
    WriteReg {
        /// Destination register.
        reg: RegNum,
        /// Value (must match the configured word size).
        value: Word,
    },
    /// Write a flag register.
    WriteFlags {
        /// Destination flag register.
        reg: RegNum,
        /// Flag vector.
        flags: Flags,
    },
    /// Execute an instruction (user or management).
    Instr(InstrWord),
    /// Read a data register; answered by [`DevMsg::Data`] with `tag`.
    ReadReg {
        /// Source register.
        reg: RegNum,
        /// Correlation tag.
        tag: Tag,
    },
    /// Read a flag register; answered by [`DevMsg::Flags`] with `tag`.
    ReadFlags {
        /// Source flag register.
        reg: RegNum,
        /// Correlation tag.
        tag: Tag,
    },
    /// Barrier + acknowledgement: answered by [`DevMsg::SyncAck`] once all
    /// earlier messages have fully completed.
    Sync {
        /// Correlation tag.
        tag: Tag,
    },
}

/// Messages travelling coprocessor → host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevMsg {
    /// A data record (response to [`HostMsg::ReadReg`]).
    Data {
        /// Correlation tag of the read.
        tag: Tag,
        /// Register contents.
        value: Word,
    },
    /// A flag vector (response to [`HostMsg::ReadFlags`]).
    Flags {
        /// Correlation tag of the read.
        tag: Tag,
        /// Flag register contents.
        flags: Flags,
    },
    /// Barrier acknowledgement.
    SyncAck {
        /// Correlation tag of the sync.
        tag: Tag,
    },
    /// The coprocessor rejected a message (unknown opcode, unknown
    /// functional unit, out-of-range register).
    Error {
        /// Error class.
        code: ErrorCode,
        /// Additional information (e.g. the offending opcode).
        info: u32,
    },
}

/// Error classes reported by [`DevMsg::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Management opcode not recognised by the decoder.
    BadOpcode = 1,
    /// User instruction names a function code with no attached unit.
    NoSuchUnit = 2,
    /// Register number outside the configured file size.
    BadRegister = 3,
    /// Malformed frame stream.
    BadFrame = 4,
    /// A functional unit exceeded its dispatch watchdog budget
    /// (`max_busy_cycles`); its in-flight work was abandoned, its register
    /// locks released, and the unit quarantined.
    FuTimeout = 5,
    /// Instruction named a functional unit that was previously quarantined
    /// by the watchdog; it fails fast instead of wedging the dispatcher.
    FuQuarantined = 6,
    /// A soft error (single-event upset) was detected in device state —
    /// a parity mismatch on a register/flag file read or a redundant
    /// execution (DMR) disagreement. `info` carries the register number or
    /// function code involved. When recovery is enabled the host rolls the
    /// system back to the last checkpoint instead of surfacing this.
    SoftError = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadOpcode,
            2 => ErrorCode::NoSuchUnit,
            3 => ErrorCode::BadRegister,
            4 => ErrorCode::BadFrame,
            5 => ErrorCode::FuTimeout,
            6 => ErrorCode::FuQuarantined,
            7 => ErrorCode::SoftError,
            _ => return None,
        })
    }
}

// Wire type codes (header bits 31..24).
mod wire {
    pub const WRITE_REG: u8 = 0x01;
    pub const WRITE_FLAGS: u8 = 0x02;
    pub const INSTR: u8 = 0x03;
    pub const READ_REG: u8 = 0x04;
    pub const READ_FLAGS: u8 = 0x05;
    pub const SYNC: u8 = 0x06;
    pub const DATA: u8 = 0x81;
    pub const FLAGS: u8 = 0x82;
    pub const SYNC_ACK: u8 = 0x86;
    pub const ERROR: u8 = 0x8f;
}

fn header(ty: u8, reg: u8, low: u16) -> u32 {
    (ty as u32) << 24 | (reg as u32) << 16 | low as u32
}

/// Allocation-free iterator over a message's wire frames.
///
/// The longest message on either direction of the wire is one header frame
/// plus [`crate::word::MAX_LIMBS`] payload limbs, so the frames fit in a
/// small inline buffer; serialising a message in a per-cycle hot loop
/// (link injection, the RTM serialiser) costs no heap traffic.
#[derive(Debug, Clone)]
pub struct Frames {
    buf: [u32; Frames::MAX],
    len: u8,
    pos: u8,
}

impl Frames {
    /// Upper bound on frames per message (header + maximum payload limbs).
    pub const MAX: usize = 1 + crate::word::MAX_LIMBS;

    fn new(head: u32) -> Frames {
        let mut f = Frames {
            buf: [0; Frames::MAX],
            len: 0,
            pos: 0,
        };
        f.push(head);
        f
    }

    fn push(&mut self, frame: u32) {
        self.buf[self.len as usize] = frame;
        self.len += 1;
    }

    fn extend(&mut self, frames: &[u32]) {
        for &f in frames {
            self.push(f);
        }
    }
}

impl Iterator for Frames {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos < self.len {
            let f = self.buf[self.pos as usize];
            self.pos += 1;
            Some(f)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.len - self.pos) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Frames {}

impl HostMsg {
    /// Serialise to 32-bit frames. `word_bits` is the coprocessor's
    /// configured word size ([`HostMsg::WriteReg`] payload length depends
    /// on it).
    ///
    /// # Panics
    /// Panics when a `WriteReg` value's width disagrees with `word_bits` —
    /// the driver must transcode before transmission.
    pub fn to_frames(&self, word_bits: u32) -> Vec<u32> {
        self.frames(word_bits).collect()
    }

    /// Serialise to 32-bit frames without allocating; see
    /// [`HostMsg::to_frames`] for semantics and panics.
    pub fn frames(&self, word_bits: u32) -> Frames {
        match self {
            HostMsg::WriteReg { reg, value } => {
                assert_eq!(value.bits(), word_bits, "WriteReg width mismatch");
                let mut f = Frames::new(header(wire::WRITE_REG, *reg, 0));
                f.extend(value.limbs());
                f
            }
            HostMsg::WriteFlags { reg, flags } => {
                Frames::new(header(wire::WRITE_FLAGS, *reg, flags.0 as u16))
            }
            HostMsg::Instr(w) => {
                let mut f = Frames::new(header(wire::INSTR, 0, 0));
                f.push((w.0 >> 32) as u32);
                f.push(w.0 as u32);
                f
            }
            HostMsg::ReadReg { reg, tag } => Frames::new(header(wire::READ_REG, *reg, *tag)),
            HostMsg::ReadFlags { reg, tag } => Frames::new(header(wire::READ_FLAGS, *reg, *tag)),
            HostMsg::Sync { tag } => Frames::new(header(wire::SYNC, 0, *tag)),
        }
    }

    /// Number of frames this message occupies on the wire.
    pub fn frame_len(&self, word_bits: u32) -> usize {
        match self {
            HostMsg::WriteReg { .. } => 1 + (word_bits / 32) as usize,
            HostMsg::Instr(_) => 3,
            _ => 1,
        }
    }
}

impl DevMsg {
    /// Serialise to 32-bit frames.
    pub fn to_frames(&self, word_bits: u32) -> Vec<u32> {
        self.frames(word_bits).collect()
    }

    /// Serialise to 32-bit frames without allocating; see
    /// [`DevMsg::to_frames`] for semantics and panics.
    pub fn frames(&self, word_bits: u32) -> Frames {
        match self {
            DevMsg::Data { tag, value } => {
                assert_eq!(value.bits(), word_bits, "Data width mismatch");
                let mut f = Frames::new(header(wire::DATA, 0, *tag));
                f.extend(value.limbs());
                f
            }
            DevMsg::Flags { tag, flags } => Frames::new(header(wire::FLAGS, flags.0, *tag)),
            DevMsg::SyncAck { tag } => Frames::new(header(wire::SYNC_ACK, 0, *tag)),
            DevMsg::Error { code, info } => {
                let mut f = Frames::new(header(wire::ERROR, *code as u8, 0));
                f.push(*info);
                f
            }
        }
    }
}

impl DevMsg {
    /// The tag a response's header frame carries. An error report carries
    /// none: `Err` holds its code instead (`None` for an unknown code).
    #[inline]
    pub fn header_tag(header: u32) -> Result<Tag, Option<ErrorCode>> {
        match (header >> 24) as u8 {
            wire::ERROR => Err(ErrorCode::from_u8((header >> 16) as u8)),
            _ => Ok(header as u16),
        }
    }
}

/// Framing error: the stream contained an unknown type code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// The header frame that could not be interpreted.
    pub header: u32,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown frame header {:#010x}", self.header)
    }
}

impl std::error::Error for FrameError {}

/// A message type of one wire direction, as a [`Deframer`] reads it.
pub trait WireMsg: Sized {
    /// Frames in the message whose header frame is `header`, `None` for
    /// an unknown type code. A frame-level router sizes a message with
    /// this before its payload has arrived.
    fn frame_count(header: u32, word_bits: u32) -> Option<usize>;

    /// Decode the frames of one message received so far (`frames[0]` is
    /// its header): `Ok(None)` while frames are still missing.
    fn decode(frames: &[u32], word_bits: u32) -> Result<Option<Self>, FrameError>;
}

impl WireMsg for HostMsg {
    #[inline]
    fn frame_count(header: u32, word_bits: u32) -> Option<usize> {
        match (header >> 24) as u8 {
            wire::WRITE_REG => Some(1 + (word_bits / 32) as usize),
            wire::INSTR => Some(3),
            wire::WRITE_FLAGS | wire::READ_REG | wire::READ_FLAGS | wire::SYNC => Some(1),
            _ => None,
        }
    }

    fn decode(f: &[u32], word_bits: u32) -> Result<Option<HostMsg>, FrameError> {
        let (ty, reg, low) = ((f[0] >> 24) as u8, (f[0] >> 16) as u8, f[0] as u16);
        let need = Self::frame_count(f[0], word_bits).ok_or(FrameError { header: f[0] })?;
        if f.len() < need {
            return Ok(None);
        }
        Ok(Some(match ty {
            wire::WRITE_REG => HostMsg::WriteReg {
                reg,
                value: Word::from_limbs(&f[1..]),
            },
            wire::WRITE_FLAGS => HostMsg::WriteFlags {
                reg,
                flags: Flags(low as u8),
            },
            wire::INSTR => HostMsg::Instr(InstrWord((f[1] as u64) << 32 | f[2] as u64)),
            wire::READ_REG => HostMsg::ReadReg { reg, tag: low },
            wire::READ_FLAGS => HostMsg::ReadFlags { reg, tag: low },
            _ => HostMsg::Sync { tag: low },
        }))
    }
}

impl WireMsg for DevMsg {
    #[inline]
    fn frame_count(header: u32, word_bits: u32) -> Option<usize> {
        match (header >> 24) as u8 {
            wire::DATA => Some(1 + (word_bits / 32) as usize),
            wire::ERROR => Some(2),
            wire::FLAGS | wire::SYNC_ACK => Some(1),
            _ => None,
        }
    }

    fn decode(f: &[u32], word_bits: u32) -> Result<Option<DevMsg>, FrameError> {
        let (ty, mid, low) = ((f[0] >> 24) as u8, (f[0] >> 16) as u8, f[0] as u16);
        let need = Self::frame_count(f[0], word_bits).ok_or(FrameError { header: f[0] })?;
        if f.len() < need {
            return Ok(None);
        }
        Ok(Some(match ty {
            wire::DATA => DevMsg::Data {
                tag: low,
                value: Word::from_limbs(&f[1..]),
            },
            wire::FLAGS => DevMsg::Flags {
                tag: low,
                flags: Flags(mid),
            },
            wire::SYNC_ACK => DevMsg::SyncAck { tag: low },
            _ => DevMsg::Error {
                code: ErrorCode::from_u8(mid).ok_or(FrameError { header: f[0] })?,
                info: f[1],
            },
        }))
    }
}

/// Streaming, allocation-free deserialiser for one wire direction. It
/// holds a message's frames in an inline buffer the size of the longest
/// message ([`Frames::MAX`]) until they decode. A decoded message and a
/// framing error both empty it, so the next frame is read as a header.
#[derive(Debug, Clone)]
pub struct Deframer<M> {
    word_bits: u32,
    buf: [u32; Frames::MAX],
    len: u8,
    msg: PhantomData<fn() -> M>,
}

/// Host → coprocessor deframer (the stateful part of the RTM's
/// message-buffer stage).
pub type HostDeframer = Deframer<HostMsg>;

/// Coprocessor → host deframer (lives in the host driver).
pub type DevDeframer = Deframer<DevMsg>;

impl<M: WireMsg> Deframer<M> {
    /// A deframer for a coprocessor configured with `word_bits`-wide
    /// registers.
    pub fn new(word_bits: u32) -> Self {
        Deframer {
            word_bits,
            buf: [0; Frames::MAX],
            len: 0,
            msg: PhantomData,
        }
    }

    /// True while a message is partially received.
    pub fn mid_message(&self) -> bool {
        self.len > 0
    }

    /// Feed one frame; returns a complete message when one finishes.
    pub fn push(&mut self, frame: u32) -> Result<Option<M>, FrameError> {
        self.buf[self.len as usize] = frame;
        self.len += 1;
        let got = M::decode(&self.buf[..self.len as usize], self.word_bits);
        if !matches!(got, Ok(None)) {
            self.len = 0;
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_host(m: HostMsg, word_bits: u32) {
        let frames = m.to_frames(word_bits);
        assert_eq!(frames.len(), m.frame_len(word_bits));
        let mut d = HostDeframer::new(word_bits);
        let mut out = None;
        for (i, f) in frames.iter().enumerate() {
            let r = d.push(*f).expect("frame accepted");
            if i + 1 < frames.len() {
                assert!(r.is_none(), "message completed early");
                assert!(d.mid_message());
            } else {
                out = r;
            }
        }
        assert_eq!(out, Some(m));
        assert!(!d.mid_message());
    }

    #[test]
    fn host_messages_roundtrip_32() {
        roundtrip_host(
            HostMsg::WriteReg {
                reg: 5,
                value: Word::from_u64(0xdead_beef, 32),
            },
            32,
        );
        roundtrip_host(
            HostMsg::WriteFlags {
                reg: 2,
                flags: Flags(0x1f),
            },
            32,
        );
        roundtrip_host(HostMsg::Instr(InstrWord(0x8010_2030_4050_6070)), 32);
        roundtrip_host(HostMsg::ReadReg { reg: 7, tag: 0xabc }, 32);
        roundtrip_host(HostMsg::ReadFlags { reg: 1, tag: 3 }, 32);
        roundtrip_host(HostMsg::Sync { tag: 0xffff }, 32);
    }

    #[test]
    fn host_write_roundtrips_at_wide_words() {
        for bits in [64, 96, 128] {
            roundtrip_host(
                HostMsg::WriteReg {
                    reg: 0,
                    value: Word::from_u128(0x0123_4567_89ab_cdef_1122_3344, bits),
                },
                bits,
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn write_reg_width_checked() {
        HostMsg::WriteReg {
            reg: 0,
            value: Word::from_u64(1, 64),
        }
        .to_frames(32);
    }

    #[test]
    fn dev_messages_roundtrip() {
        let msgs = vec![
            DevMsg::Data {
                tag: 9,
                value: Word::from_u64(0x1234_5678, 32),
            },
            DevMsg::Flags {
                tag: 1,
                flags: Flags(0b10101),
            },
            DevMsg::SyncAck { tag: 0 },
            DevMsg::Error {
                code: ErrorCode::NoSuchUnit,
                info: 42,
            },
        ];
        for m in msgs {
            let frames = m.to_frames(32);
            let mut d = DevDeframer::new(32);
            let mut out = None;
            for f in &frames {
                out = d.push(*f).unwrap();
            }
            assert_eq!(out, Some(m));
        }
    }

    #[test]
    fn unknown_header_is_rejected() {
        let mut d = HostDeframer::new(32);
        let err = d.push(0xff00_0000).unwrap_err();
        assert_eq!(err.header, 0xff00_0000);
        assert!(err.to_string().contains("0xff000000"));
        let mut d = DevDeframer::new(32);
        assert!(d.push(0x7700_0000).is_err());
    }

    #[test]
    fn interleaved_messages_parse_in_sequence() {
        // A realistic stream: write two registers, an instruction, a read.
        let word_bits = 64;
        let stream: Vec<HostMsg> = vec![
            HostMsg::WriteReg {
                reg: 1,
                value: Word::from_u64(10, 64),
            },
            HostMsg::WriteReg {
                reg: 2,
                value: Word::from_u64(20, 64),
            },
            HostMsg::Instr(InstrWord(0x8010_0000_0000_0000)),
            HostMsg::ReadReg { reg: 3, tag: 1 },
        ];
        let mut frames = Vec::new();
        for m in &stream {
            frames.extend(m.to_frames(word_bits));
        }
        let mut d = HostDeframer::new(word_bits);
        let mut parsed = Vec::new();
        for f in frames {
            if let Some(m) = d.push(f).unwrap() {
                parsed.push(m);
            }
        }
        assert_eq!(parsed, stream);
    }

    proptest! {
        #[test]
        fn prop_host_roundtrip_any(sel in 0u8..6, reg: u8, tag: u16, v: u64, raw: u64) {
            let m = match sel {
                0 => HostMsg::WriteReg { reg, value: Word::from_u64(v, 64) },
                1 => HostMsg::WriteFlags { reg, flags: Flags(v as u8) },
                2 => HostMsg::Instr(InstrWord(raw)),
                3 => HostMsg::ReadReg { reg, tag },
                4 => HostMsg::ReadFlags { reg, tag },
                _ => HostMsg::Sync { tag },
            };
            let mut d = HostDeframer::new(64);
            let mut out = None;
            for f in m.to_frames(64) {
                out = d.push(f).unwrap();
            }
            prop_assert_eq!(out, Some(m));
        }

        #[test]
        fn prop_dev_roundtrip_any(sel in 0u8..4, tag: u16, v: u128, info: u32) {
            let m = match sel {
                0 => DevMsg::Data { tag, value: Word::from_u128(v, 96) },
                1 => DevMsg::Flags { tag, flags: Flags(v as u8) },
                2 => DevMsg::SyncAck { tag },
                _ => DevMsg::Error { code: ErrorCode::BadFrame, info },
            };
            let mut d = DevDeframer::new(96);
            let mut out = None;
            for f in m.to_frames(96) {
                out = d.push(f).unwrap();
            }
            prop_assert_eq!(out, Some(m));
        }
    }

    /// A frame whose type byte is, for `sel` below 10, one of the ten
    /// type codes of either direction (the rest of it random), and
    /// otherwise fully random — so an arbitrary stream reaches every
    /// decode path, not only the unknown-header error.
    fn biased_frame(sel: u8, raw: u32) -> u32 {
        const TYPES: [u8; 10] = [1, 2, 3, 4, 5, 6, 0x81, 0x82, 0x86, 0x8f];
        match TYPES.get(sel as usize) {
            Some(&ty) => (ty as u32) << 24 | raw & 0x00ff_ffff,
            None => raw,
        }
    }

    /// Feed `stream` to a fresh deframer, checking `mid_message` after
    /// every frame; returns the messages it completed.
    fn feed<M: WireMsg>(word_bits: u32, stream: &[u32]) -> Vec<M> {
        let mut d = Deframer::<M>::new(word_bits);
        let mut out = Vec::new();
        for &f in stream {
            match d.push(f) {
                Ok(None) => assert!(d.mid_message(), "an unfinished message is held"),
                Ok(Some(m)) => {
                    assert!(!d.mid_message(), "a completed message leaves nothing");
                    out.push(m);
                }
                Err(_) => assert!(!d.mid_message(), "an error leaves nothing"),
            }
        }
        out
    }

    fn host_msg(sel: u8, v: u128, word_bits: u32) -> HostMsg {
        let (reg, tag) = (v as u8, (v >> 8) as u16);
        match sel % 6 {
            0 => HostMsg::WriteReg {
                reg,
                value: Word::from_u128(v, word_bits),
            },
            1 => HostMsg::WriteFlags {
                reg,
                flags: Flags(v as u8),
            },
            2 => HostMsg::Instr(InstrWord(v as u64)),
            3 => HostMsg::ReadReg { reg, tag },
            4 => HostMsg::ReadFlags { reg, tag },
            _ => HostMsg::Sync { tag },
        }
    }

    fn dev_msg(sel: u8, v: u128, word_bits: u32) -> DevMsg {
        let tag = (v >> 8) as u16;
        match sel % 4 {
            0 => DevMsg::Data {
                tag,
                value: Word::from_u128(v, word_bits),
            },
            1 => DevMsg::Flags {
                tag,
                flags: Flags(v as u8),
            },
            2 => DevMsg::SyncAck { tag },
            _ => DevMsg::Error {
                code: ErrorCode::from_u8(1 + sel % 7).expect("codes 1..=7 exist"),
                info: v as u32,
            },
        }
    }

    proptest! {
        #[test]
        fn prop_deframers_take_any_stream(
            limbs in 1u32..5,
            raw in proptest::collection::vec((0u8..14, any::<u32>()), 0..48),
        ) {
            let stream: Vec<u32> = raw.into_iter().map(|(s, r)| biased_frame(s, r)).collect();
            feed::<HostMsg>(32 * limbs, &stream);
            feed::<DevMsg>(32 * limbs, &stream);
        }

        #[test]
        fn prop_well_formed_streams_roundtrip(
            limbs in 1u32..5,
            picks in proptest::collection::vec((any::<u8>(), any::<u128>()), 1..12),
        ) {
            let bits = 32 * limbs;
            let host: Vec<HostMsg> = picks.iter().map(|&(s, v)| host_msg(s, v, bits)).collect();
            let frames: Vec<u32> = host.iter().flat_map(|m| m.frames(bits)).collect();
            prop_assert_eq!(feed::<HostMsg>(bits, &frames), host);
            let dev: Vec<DevMsg> = picks.iter().map(|&(s, v)| dev_msg(s, v, bits)).collect();
            let frames: Vec<u32> = dev.iter().flat_map(|m| m.frames(bits)).collect();
            prop_assert_eq!(feed::<DevMsg>(bits, &frames), dev);
        }
    }

    #[test]
    fn widest_messages_fill_the_inline_buffer_exactly() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        let host = host_msg(0, v, 128);
        let frames = host.to_frames(128);
        assert_eq!(frames.len(), Frames::MAX);
        assert_eq!(feed::<HostMsg>(128, &frames), vec![host]);
        let dev = dev_msg(0, v, 128);
        let frames = dev.to_frames(128);
        assert_eq!(frames.len(), Frames::MAX);
        assert_eq!(feed::<DevMsg>(128, &frames), vec![dev]);
    }
}
