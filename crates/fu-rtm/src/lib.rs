//! `fu-rtm` — the generic coprocessor framework (the paper's primary
//! contribution).
//!
//! This crate implements, as a cycle-accurate simulation, the generic
//! interface of Koltes & O'Donnell (IPDPS 2010): a *Register Transfer
//! Machine* (RTM) that sits between a host CPU and a set of user-designed
//! functional units on an FPGA.
//!
//! > "These requirements are satisfied by organising the interface as a
//! > register transfer machine. This is a simple programmable datapath that
//! > contains a register file, and that has an instruction set for
//! > communications." — §II
//!
//! The pipeline (Figure 4 of the paper) comprises:
//!
//! * [`msgbuf::MessageBuffer`] — converts link frames into decoded host
//!   messages;
//! * [`decoder::Decoder`] — turns messages into control vectors
//!   ([`decoder::DecodedOp`]);
//! * [`dispatcher`] — reads the register files, enforces the
//!   lock-manager/register-usage-table interlocks, and dispatches user
//!   instructions to functional units;
//! * the execution stage ([`execute`]) — runs management primitives
//!   directly in the main pipeline;
//! * [`arbiter::WriteArbiter`] — collects out-of-order functional-unit
//!   completions into the register files (with a high-priority port for
//!   the execution stage);
//! * [`encoder::MessageEncoder`] and [`serializer::MessageSerializer`] —
//!   multiplex responses and convert them to link frames.
//!
//! Functional units attach through the dispatch/acknowledge protocol in
//! [`protocol`]; the whole machine is assembled and clocked by
//! [`coprocessor::Coprocessor`], parameterised by [`config::CoprocConfig`]
//! (the Rust stand-in for the VHDL generics).

pub mod arbiter;
pub mod config;
pub mod coprocessor;
pub mod decoder;
pub mod dispatcher;
pub mod encoder;
pub mod execute;
pub mod flagfile;
pub mod futable;
pub mod lock;
pub mod msgbuf;
pub mod protocol;
pub mod redundant;
pub mod regfile;
pub mod serializer;
pub mod seu;
pub mod testing;

pub use config::CoprocConfig;
pub use coprocessor::{ActivityMode, CoprocSnapshot, CoprocStats, Coprocessor, QuietVerdict};
pub use protocol::{AuxRole, DispatchPacket, FuOutput, FunctionalUnit, LockTicket, SoftEvent};
pub use redundant::{protect_units, Redundancy, RedundantFu};
pub use seu::{SeuConfig, SeuModel, SeuTarget};
