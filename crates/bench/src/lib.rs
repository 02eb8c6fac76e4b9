//! Shared measurement harness for the reproduction's experiments.
//!
//! Every table and figure of the evaluation (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`) is regenerated by a binary in `src/bin/`: the
//! paper's own experiments (E1–E11 and the extensions X1, X4–X6) by
//! `exp_paper`, which asserts each claimed shape and writes
//! `BENCH_paper.txt`, and E12–E17 by a binary each. This library holds
//! their measurement code, and [`report`] writes every checked-in report.
//! Each binary has one mode, and its output is a pure function of its
//! seed: simulated cycles and counts, never host time. Host time is
//! measured in one place, the `perfbench/` harness.

pub mod cpi;
pub mod faults;
pub mod links;
pub mod ooo;
pub mod profile;
pub mod report;
pub mod serving;
pub mod soft_errors;
pub mod table;
pub mod throughput;
pub mod xi;

pub use table::Table;

/// The FPGA clock of the paper's prototype ("a clock speed of
/// approximately 50 MHz" on an Altera Cyclone).
pub const FPGA_MHZ: f64 = 50.0;
