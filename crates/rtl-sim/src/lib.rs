//! `rtl-sim` — a synchronous, cycle-accurate RTL-style simulation kernel.
//!
//! This crate is the substrate on which the FPGA coprocessor framework of
//! Koltes & O'Donnell (IPDPS 2010) is reproduced in Rust. The original
//! system is a set of generic VHDL modules; here we provide the handful of
//! hardware idioms those modules are built from:
//!
//! * **Two-phase simulation** — every stateful element separates *evaluate*
//!   (compute next state from the currently visible state of the design)
//!   from *commit* (latch next state at the clock edge). A simulation cycle
//!   evaluates all components and then commits all components, exactly like
//!   a synchronous netlist.
//! * **Elastic handshake registers** ([`HandshakeSlot`]) — the paper places
//!   "most registers at the end of the pipeline stages" and uses local
//!   valid/ready handshaking so that "there is no global control for
//!   stalling the pipeline". A `HandshakeSlot` is one such pipeline
//!   register: a single-entry buffer with `push`/`take` semantics that gives
//!   full throughput when stages are evaluated sink-to-source.
//! * **FIFOs** ([`Fifo`]) — the performance-optimised functional-unit
//!   skeleton of the paper buffers operands and results in on-chip SRAM
//!   FIFOs.
//! * **Registers and counters** ([`Reg`], [`SatCounter`]).
//! * **Tracing** ([`trace`]) — an event trace and a minimal VCD writer for
//!   debugging pipelines.
//! * **Area and critical-path model** ([`area`]) — coarse Cyclone-class
//!   LE/FF/BRAM estimates so experiments can report the component counts
//!   and combinational depths the paper reasons about.
//! * **Backpressure fuzzing** ([`stall`]) — seeded random stall generators
//!   used by tests to exercise the local handshake protocol.
//!
//! The kernel deliberately contains **no threads and no global scheduler
//! magic**: a design is an ordinary Rust struct owning its registers, and
//! its `step` method evaluates its stages in an explicit, documented order.
//! This keeps simulations deterministic and borrow-checker friendly while
//! remaining faithful to the cycle-level behaviour of the VHDL original.

pub mod area;
pub mod component;
pub mod fifo;
pub mod handshake;
pub mod reg;
pub mod stall;
pub mod stats;
pub mod trace;

pub use area::{AreaEstimate, CriticalPath};
pub use component::{Clocked, SimError};
pub use fifo::Fifo;
pub use handshake::HandshakeSlot;
pub use reg::{Reg, SatCounter};
pub use stall::StallFuzzer;
pub use stats::{
    LatencyHistogram, LatencySnapshot, Percentiles, RecoveryStats, ServeStats, SimStats, SlotStats,
    TenantCounters, WheelStats,
};
pub use trace::{LinkDir, StallCause, TraceBuffer, TraceEvent, TraceEventKind, VcdWriter};
