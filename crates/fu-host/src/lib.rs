//! `fu-host` — the host-side model and full-system co-simulation harness.
//!
//! The paper's system spans a host CPU and the FPGA: "the main program is
//! written in C or any other programming language, and runs in one or more
//! CPUs which communicate via the interface with a set of functional
//! units." This crate provides everything on the CPU side of that
//! boundary:
//!
//! * [`link::Link`] — latency/bandwidth models of the physical
//!   interconnect. The paper's prototype had "only a very slow connection
//!   from the FPGA board to the processor", but argues "this is not a
//!   limitation of the approach: there are FPGAs that are tightly
//!   integrated with processors, offering extremely high transfer rates";
//!   the presets span that spectrum (experiment E8).
//! * [`system::System`] — the co-simulation of host queues ↔ links ↔
//!   coprocessor, stepped one FPGA clock cycle at a time, for one host
//!   port or many; [`multihost::MultiHostSystem`] is the same system with
//!   a call per host.
//! * [`driver::Driver`] — the programmer-facing API ("typically the FPGA
//!   would be treated as a fast I/O device"): register reads/writes,
//!   instruction issue, synchronisation, and χ-sort convenience calls.
//! * [`baseline`] — conventional-CPU baselines and the clock-rate cost
//!   model used to convert simulated FPGA cycles into time (the paper's
//!   prototype runs at "approximately 50 MHz").

pub mod baseline;
pub mod driver;
pub mod farm;
pub mod link;
pub mod multihost;
pub mod serve;
pub mod system;

pub use baseline::CpuModel;
pub use driver::{Driver, DriverError};
pub use farm::{Farm, FarmConfig, FarmError, Job, JobOutput, JobResult, Placement, ShardCtx};
pub use link::{FaultModel, FaultStats, Link, LinkModel, LinkStats};
pub use multihost::MultiHostSystem;
pub use serve::{Admission, Completion, ServeConfig, Service, TenantId, TenantSlo, TenantSpec};
pub use system::{System, SystemSnapshot};
