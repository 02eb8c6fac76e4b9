//! The device-side reliable transceiver.
//!
//! The paper places a *message buffer* behind "the FPGA input port
//! connected to the host processor" and a *message serialiser* in front of
//! the output port, and notes the framing layer "is exactly what a
//! different transceiver would replace". This module is that replacement
//! for lossy links: it sits between the external frame port and the
//! rx/tx frame FIFOs, packing outgoing frames into go-back-N data
//! segments and unpacking/acknowledging incoming ones (see
//! [`fu_isa::transport`] for the protocol itself).
//!
//! When no transceiver is configured the coprocessor keeps the bare port:
//! frames pass straight through, as all existing benches assume.

use fu_isa::transport::{Endpoint, TransportConfig, TransportStats};

/// Reliable-transport shim for the coprocessor's frame port.
#[derive(Debug, Clone)]
pub struct DeviceTransceiver {
    ep: Endpoint,
}

impl DeviceTransceiver {
    pub fn new(cfg: TransportConfig) -> DeviceTransceiver {
        DeviceTransceiver {
            ep: Endpoint::new(cfg),
        }
    }

    /// A wire frame arrived on the input port.
    pub fn on_wire_frame(&mut self, now: u64, frame: u32) {
        self.ep.on_frame(now, frame);
    }

    /// Next validated in-order payload frame for the rx FIFO.
    pub fn deliver(&mut self) -> Option<u32> {
        self.ep.deliver()
    }

    /// Payload frames waiting for rx-FIFO space.
    pub fn has_deliverable(&self) -> bool {
        self.ep.has_deliverable()
    }

    /// Queue one serialiser output frame for reliable delivery.
    pub fn send_payload(&mut self, frame: u32) {
        self.ep.send(frame);
    }

    /// Next wire frame for the output port (acks and data segments).
    pub fn pull_wire_frame(&mut self, now: u64) -> Option<u32> {
        self.ep.pull_frame(now)
    }

    /// Advance the retransmit timer.
    pub fn poll(&mut self, now: u64) {
        self.ep.poll(now);
    }

    /// True when `pull_wire_frame` would emit a frame right now. While this
    /// holds the coprocessor is *not* idle for fast-forward purposes.
    pub fn has_tx_work(&self) -> bool {
        self.ep.has_tx_work()
    }

    /// Retransmit deadline, for event-driven fast-forwarding.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.ep.next_event_cycle()
    }

    /// All traffic delivered and acknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.ep.is_quiescent()
    }

    pub fn stats(&self) -> TransportStats {
        *self.ep.stats()
    }

    /// Return to the power-on state.
    pub fn reset(&mut self) {
        self.ep = Endpoint::new(*self.ep.config());
    }
}
