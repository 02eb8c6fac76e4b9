//! The message buffer — first stage of the RTM pipeline.
//!
//! "The first stage receives data from the FPGA input port connected to the
//! host processor, and converts it to a form usable by the decoder. This
//! stage needs to be implemented according to the communication protocol
//! used by the host processor."
//!
//! Here the communication protocol is the 32-bit framing of
//! [`fu_isa::msg`]; the stage consumes up to `frames_per_cycle` frames per
//! cycle from the receive FIFO (modelling the input port width) and emits
//! at most one complete [`fu_isa::HostMsg`] per cycle to the decoder.
//! Framing errors are forwarded as errors so the decoder can report them
//! to the host instead of silently desynchronising.

use fu_isa::msg::{FrameError, HostDeframer};
use fu_isa::HostMsg;
use rtl_sim::{Fifo, HandshakeSlot, SatCounter, TraceBuffer, TraceEventKind};

/// Output of the message buffer: a parsed message or a framing error
/// (carrying the offending header frame).
pub type MsgBufOut = Result<HostMsg, FrameError>;

/// The message-buffer stage.
#[derive(Debug, Clone)]
pub struct MessageBuffer {
    deframer: HostDeframer,
    frames_per_cycle: u8,
    word_bits: u32,
    frames_consumed: SatCounter,
    msgs_produced: SatCounter,
}

impl MessageBuffer {
    /// A message buffer for `word_bits`-wide registers consuming up to
    /// `frames_per_cycle` frames per cycle.
    pub fn new(word_bits: u32, frames_per_cycle: u8) -> MessageBuffer {
        assert!(
            frames_per_cycle >= 1,
            "input port must carry at least one frame/cycle"
        );
        MessageBuffer {
            deframer: HostDeframer::new(word_bits),
            frames_per_cycle,
            word_bits,
            frames_consumed: SatCounter::default(),
            msgs_produced: SatCounter::default(),
        }
    }

    /// One evaluate phase: pull frames from `rx`, push at most one
    /// complete message into `out`.
    pub fn eval(
        &mut self,
        rx: &mut Fifo<u32>,
        out: &mut HandshakeSlot<MsgBufOut>,
        cycle: u64,
        trace: &mut TraceBuffer,
    ) {
        if !out.can_push() {
            return; // local stall: downstream register still occupied
        }
        for _ in 0..self.frames_per_cycle {
            let Some(frame) = rx.pop() else { break };
            self.frames_consumed.bump();
            match self.deframer.push(frame) {
                Ok(None) => continue,
                Ok(Some(msg)) => {
                    self.msgs_produced.bump();
                    trace.record(cycle, TraceEventKind::StagePush { stage: "msgbuf" });
                    out.push(Ok(msg));
                    break; // one message per cycle
                }
                Err(e) => {
                    trace.record(cycle, TraceEventKind::StagePush { stage: "msgbuf" });
                    // The deframer dropped its partial state with the
                    // error: it resynchronises on the next frame.
                    out.push(Err(e));
                    break;
                }
            }
        }
    }

    /// True while a message is partially assembled.
    pub fn mid_message(&self) -> bool {
        self.deframer.mid_message()
    }

    /// `(frames consumed, messages produced)` since reset.
    pub fn counters(&self) -> (u64, u64) {
        (self.frames_consumed.get(), self.msgs_produced.get())
    }

    /// Return to the power-on state.
    pub fn reset(&mut self) {
        self.deframer = HostDeframer::new(self.word_bits);
        self.frames_consumed = SatCounter::default();
        self.msgs_produced = SatCounter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fu_isa::{InstrWord, Word};
    use rtl_sim::Clocked;

    fn run_cycle(mb: &mut MessageBuffer, rx: &mut Fifo<u32>, out: &mut HandshakeSlot<MsgBufOut>) {
        mb.eval(rx, out, 0, &mut TraceBuffer::disabled());
        rx.commit();
        out.commit();
    }

    #[test]
    fn single_frame_message_takes_one_cycle() {
        let mut mb = MessageBuffer::new(32, 1);
        let mut rx = Fifo::new(8);
        let mut out = HandshakeSlot::new();
        let msg = HostMsg::ReadReg { reg: 3, tag: 7 };
        for f in msg.to_frames(32) {
            rx.push(f);
        }
        rx.commit();
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(msg)));
    }

    #[test]
    fn multi_frame_message_at_one_frame_per_cycle() {
        let mut mb = MessageBuffer::new(32, 1);
        let mut rx = Fifo::new(8);
        let mut out = HandshakeSlot::new();
        let msg = HostMsg::Instr(InstrWord(0x8010_aabb_ccdd_eeff));
        for f in msg.to_frames(32) {
            rx.push(f);
        }
        rx.commit();
        // Three frames -> three cycles until the message appears.
        run_cycle(&mut mb, &mut rx, &mut out);
        assert!(out.peek().is_none());
        assert!(mb.mid_message());
        run_cycle(&mut mb, &mut rx, &mut out);
        assert!(out.peek().is_none());
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(msg)));
        assert!(!mb.mid_message());
        assert_eq!(mb.counters(), (3, 1));
    }

    #[test]
    fn wide_port_completes_in_one_cycle() {
        let mut mb = MessageBuffer::new(32, 4);
        let mut rx = Fifo::new(8);
        let mut out = HandshakeSlot::new();
        let msg = HostMsg::Instr(InstrWord(42));
        for f in msg.to_frames(32) {
            rx.push(f);
        }
        rx.commit();
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(msg)));
    }

    #[test]
    fn stalled_decoder_backpressures_frames() {
        let mut mb = MessageBuffer::new(32, 4);
        let mut rx = Fifo::new(8);
        let mut out: HandshakeSlot<MsgBufOut> = HandshakeSlot::new();
        for f in (HostMsg::Sync { tag: 1 }).to_frames(32) {
            rx.push(f);
        }
        for f in (HostMsg::Sync { tag: 2 }).to_frames(32) {
            rx.push(f);
        }
        rx.commit();
        run_cycle(&mut mb, &mut rx, &mut out);
        // Slot now holds Sync#1 and is never taken: no further frames may
        // be consumed.
        run_cycle(&mut mb, &mut rx, &mut out);
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(rx.len(), 1, "second message must stay in the FIFO");
        assert_eq!(out.take(), Some(Ok(HostMsg::Sync { tag: 1 })));
    }

    #[test]
    fn framing_error_is_reported_and_resyncs() {
        let mut mb = MessageBuffer::new(32, 1);
        let mut rx = Fifo::new(8);
        let mut out = HandshakeSlot::new();
        rx.push(0xdead_0000); // unknown type code 0xde
        for f in (HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(5, 32),
        })
        .to_frames(32)
        {
            rx.push(f);
        }
        rx.commit();
        run_cycle(&mut mb, &mut rx, &mut out);
        assert!(matches!(out.take(), Some(Err(e)) if e.header == 0xdead_0000));
        run_cycle(&mut mb, &mut rx, &mut out);
        run_cycle(&mut mb, &mut rx, &mut out);
        assert!(matches!(
            out.take(),
            Some(Ok(HostMsg::WriteReg { reg: 1, .. }))
        ));
    }

    #[test]
    fn one_message_per_cycle_even_on_wide_port() {
        let mut mb = MessageBuffer::new(32, 8);
        let mut rx = Fifo::new(16);
        let mut out = HandshakeSlot::new();
        for t in 0..3u16 {
            for f in (HostMsg::Sync { tag: t }).to_frames(32) {
                rx.push(f);
            }
        }
        rx.commit();
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(HostMsg::Sync { tag: 0 })));
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(HostMsg::Sync { tag: 1 })));
        run_cycle(&mut mb, &mut rx, &mut out);
        assert_eq!(out.take(), Some(Ok(HostMsg::Sync { tag: 2 })));
    }
}
