//! The host-side driver API.
//!
//! "An application program running on a host computer uses the FPGA, with
//! its functional units, similarly to the way it would use any
//! conventional coprocessor … Typically the FPGA would be treated as a
//! fast I/O device."
//!
//! [`Driver`] is that device interface: blocking register reads/writes,
//! instruction issue (including from assembly text), synchronisation, and
//! convenience calls for the χ-sort unit. Every blocking call advances
//! the co-simulated system until the response arrives, so driver code
//! reads exactly like the C host program the paper envisages.

use crate::system::System;
use fu_isa::msg::ErrorCode;
use fu_isa::{DevMsg, Flags, HostMsg, InstrWord, Tag, Word};
use rtl_sim::SimError;
use xi_sort::XiOp;

/// Errors surfaced to driver callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The simulation did not produce the expected response in time.
    Timeout(SimError),
    /// The device reported an error response.
    Device {
        /// Error class.
        code: ErrorCode,
        /// Extra information.
        info: u32,
    },
    /// A response arrived with an unexpected tag or type.
    Protocol(String),
    /// Assembly-source error (from [`Driver::exec_asm`]).
    Asm(String),
    /// The shard panicked while executing the job (a poisoned
    /// simulation — e.g. an upset in unprotected control state). The
    /// shard is rebuilt afterwards; the farm's failover pass may retry
    /// the job on a healthy shard.
    Panicked(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Timeout(e) => write!(f, "timeout: {e}"),
            DriverError::Device { code, info } => {
                write!(f, "device error {code:?} (info {info})")
            }
            DriverError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DriverError::Asm(m) => write!(f, "assembly error: {m}"),
            DriverError::Panicked(m) => write!(f, "shard panicked: {m}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// The blocking driver.
///
/// ```
/// use fu_host::{Driver, LinkModel, System};
/// use fu_rtm::CoprocConfig;
/// use fu_units::standard_units;
///
/// let system = System::new(
///     CoprocConfig::default(),
///     standard_units(32),
///     LinkModel::pcie_like(),
/// ).unwrap();
/// let mut dev = Driver::new(system, 1_000_000);
///
/// dev.write_reg(1, 40);
/// dev.write_reg(2, 2);
/// dev.exec_asm("ADD r3, r1, r2, f1").unwrap();
/// assert_eq!(dev.read_reg(3).unwrap().as_u64(), 42);
/// ```
pub struct Driver {
    sys: System,
    next_tag: Tag,
    timeout: u64,
}

impl Driver {
    /// Wrap a system; `timeout` bounds every blocking call (in FPGA
    /// cycles).
    pub fn new(sys: System, timeout: u64) -> Driver {
        Driver {
            sys,
            next_tag: 0,
            timeout,
        }
    }

    /// The underlying system (for cycle counts and statistics).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Enable typed event tracing on the coprocessor pipeline and the
    /// link, retaining up to `depth` events in each ring. `0` disables.
    /// Latency histograms (see [`Driver::latency_snapshot`]) are always
    /// collected regardless of this setting.
    pub fn enable_tracing(&mut self, depth: usize) {
        self.sys.set_trace_depth(depth);
    }

    /// Per-instruction latency percentiles (issue→dispatch,
    /// dispatch→retire, issue→retire) over everything executed so far.
    pub fn latency_snapshot(&self) -> rtl_sim::LatencySnapshot {
        self.sys.sim_stats().latency_snapshot()
    }

    /// Every retained trace event — coprocessor pipeline and host link —
    /// merged into one stream ordered by cycle (ties keep pipeline events
    /// first). Empty unless [`Driver::enable_tracing`] was called.
    pub fn dump_trace(&self) -> Vec<rtl_sim::TraceEvent> {
        let mut all: Vec<rtl_sim::TraceEvent> = self
            .sys
            .coproc()
            .trace()
            .events()
            .chain(self.sys.link_trace().events())
            .copied()
            .collect();
        all.sort_by_key(|e| e.cycle);
        all
    }

    /// Events the pipeline and link trace rings evicted to make room; 0
    /// means [`Driver::dump_trace`] is the full event stream.
    pub fn trace_dropped(&self) -> u64 {
        self.sys.coproc().trace().dropped() + self.sys.link_trace().dropped()
    }

    /// The merged trace serialized as a Chrome-trace (Perfetto) JSON
    /// document — write it to a file and open it in `ui.perfetto.dev`.
    pub fn perfetto_trace(&self) -> String {
        rtl_sim::trace::perfetto::export(self.dump_trace().iter())
    }

    /// Consume the driver, returning the system.
    pub fn into_system(self) -> System {
        self.sys
    }

    /// Elapsed FPGA cycles.
    pub fn cycles(&self) -> u64 {
        self.sys.cycle()
    }

    fn tag(&mut self) -> Tag {
        let t = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        t
    }

    fn expect(&mut self) -> Result<DevMsg, DriverError> {
        match self.sys.recv_blocking(self.timeout) {
            Ok(DevMsg::Error { code, info }) => Err(DriverError::Device { code, info }),
            Ok(m) => Ok(m),
            Err(e) => Err(DriverError::Timeout(e)),
        }
    }

    /// Queue an arbitrary pre-built host message (fire-and-forget). The
    /// caller owns tag allocation for tagged messages sent this way;
    /// mixing raw tagged reads with the driver's own blocking calls will
    /// confuse response matching.
    pub fn send_raw(&mut self, msg: &HostMsg) {
        self.sys.send(msg);
    }

    /// Write a data register (fire-and-forget; ordering is guaranteed by
    /// the in-order pipeline).
    pub fn write_reg(&mut self, reg: u8, value: u64) {
        let w = Word::from_u64(value, self.sys.word_bits());
        self.sys.send(&HostMsg::WriteReg { reg, value: w });
    }

    /// Write a full-width word to a data register.
    pub fn write_reg_word(&mut self, reg: u8, value: Word) {
        self.sys.send(&HostMsg::WriteReg { reg, value });
    }

    /// Issue an instruction (user or management).
    pub fn exec(&mut self, instr: InstrWord) {
        self.sys.send(&HostMsg::Instr(instr));
    }

    /// Assemble and issue a one-line instruction.
    ///
    /// # Errors
    /// Returns [`DriverError::Asm`] on a source error.
    pub fn exec_asm(&mut self, line: &str) -> Result<(), DriverError> {
        let instr = fu_isa::asm::assemble_line(line, 1)
            .map_err(|e| DriverError::Asm(e.to_string()))?
            .ok_or_else(|| DriverError::Asm("blank line".into()))?;
        self.exec(instr);
        Ok(())
    }

    /// Assemble and issue a whole program.
    ///
    /// # Errors
    /// Returns [`DriverError::Asm`] on a source error.
    pub fn exec_program(&mut self, source: &str) -> Result<usize, DriverError> {
        let prog = fu_isa::asm::assemble(source).map_err(|e| DriverError::Asm(e.to_string()))?;
        let n = prog.len();
        for instr in prog {
            self.exec(instr);
        }
        Ok(n)
    }

    // ---- pipelined batch issue ---------------------------------------
    //
    // A real host program never writes the device FIFO one register at a
    // time and then sits down to wait: it streams a whole batch through
    // the link while the device is already executing the front of it, and
    // drains whatever responses appear along the way. `exec_batch` models
    // exactly that: instruction messages are packed into the link as
    // bandwidth allows and the system is clocked *while* issuing, so
    // issue, execution and response draining overlap instead of paying a
    // full host↔device round-trip per instruction.

    /// Issue a batch of instructions, overlapping issue with execution.
    ///
    /// Every instruction is queued onto the link and the system is
    /// stepped at link pace during issue, so by the time the last
    /// instruction leaves the host the device is already deep into the
    /// batch. Any responses produced meanwhile accumulate in the system's
    /// response queue (see [`Driver::poll`] / [`Driver::wait_tag`]).
    pub fn exec_batch(&mut self, instrs: &[InstrWord]) {
        let wb = self.sys.word_bits();
        let pace = self.sys.link_model().cycles_per_frame;
        for &instr in instrs {
            let msg = HostMsg::Instr(instr);
            let wire_cycles = msg.frame_len(wb) as u64 * pace;
            self.sys.send(&msg);
            // Clock the co-simulation for as long as this message
            // occupies the outbound link, draining responses as they
            // appear — the "pipelined" part of batch issue.
            for _ in 0..wire_cycles {
                self.sys.step();
            }
        }
    }

    /// Assemble a whole program and issue it through the pipelined batch
    /// path. Returns the number of instructions issued.
    ///
    /// # Errors
    /// Returns [`DriverError::Asm`] on a source error.
    pub fn submit_program(&mut self, source: &str) -> Result<usize, DriverError> {
        let prog = fu_isa::asm::assemble(source).map_err(|e| DriverError::Asm(e.to_string()))?;
        self.exec_batch(&prog);
        Ok(prog.len())
    }

    /// Run the system until it is completely idle and return every
    /// response received along the way (including any already pending).
    ///
    /// # Errors
    /// [`DriverError::Timeout`] when the driver's cycle budget expires
    /// before the system drains.
    pub fn drain_idle(&mut self) -> Result<Vec<DevMsg>, DriverError> {
        self.sys
            .run_until(self.timeout, |s| s.is_idle())
            .map_err(DriverError::Timeout)?;
        Ok(std::iter::from_fn(|| self.sys.recv()).collect())
    }

    /// Blocking read of a data register.
    ///
    /// # Errors
    /// Times out, reports device errors, or flags protocol violations.
    pub fn read_reg(&mut self, reg: u8) -> Result<Word, DriverError> {
        let tag = self.tag();
        self.sys.send(&HostMsg::ReadReg { reg, tag });
        match self.expect()? {
            DevMsg::Data { tag: t, value } if t == tag => Ok(value),
            other => Err(DriverError::Protocol(format!(
                "expected Data tag {tag}, got {other:?}"
            ))),
        }
    }

    /// Blocking read of a flag register.
    ///
    /// # Errors
    /// As [`Driver::read_reg`].
    pub fn read_flags(&mut self, reg: u8) -> Result<Flags, DriverError> {
        let tag = self.tag();
        self.sys.send(&HostMsg::ReadFlags { reg, tag });
        match self.expect()? {
            DevMsg::Flags { tag: t, flags } if t == tag => Ok(flags),
            other => Err(DriverError::Protocol(format!(
                "expected Flags tag {tag}, got {other:?}"
            ))),
        }
    }

    /// Blocking barrier: returns once every previously issued operation
    /// has fully completed.
    ///
    /// # Errors
    /// As [`Driver::read_reg`].
    pub fn sync(&mut self) -> Result<(), DriverError> {
        let tag = self.tag();
        self.sys.send(&HostMsg::Sync { tag });
        match self.expect()? {
            DevMsg::SyncAck { tag: t } if t == tag => Ok(()),
            other => Err(DriverError::Protocol(format!(
                "expected SyncAck tag {tag}, got {other:?}"
            ))),
        }
    }

    // ---- queued (non-blocking) API -----------------------------------
    //
    // Over a high-latency link, one blocking read costs a full round
    // trip; queueing many tagged reads and collecting the responses later
    // hides the latency — the batch style a real host program would use
    // against the paper's slow prototyping link.

    /// Queue a register read; returns the tag its response will carry.
    pub fn read_reg_async(&mut self, reg: u8) -> Tag {
        let tag = self.tag();
        self.sys.send(&HostMsg::ReadReg { reg, tag });
        tag
    }

    /// Queue a flag-register read; returns the response tag.
    pub fn read_flags_async(&mut self, reg: u8) -> Tag {
        let tag = self.tag();
        self.sys.send(&HostMsg::ReadFlags { reg, tag });
        tag
    }

    /// Advance one cycle and return a response if one completed.
    pub fn poll(&mut self) -> Option<DevMsg> {
        self.sys.step();
        self.sys.recv()
    }

    /// Collect responses until the one tagged `tag` arrives; responses
    /// always arrive in issue order, so everything before it is returned
    /// too (in order).
    ///
    /// # Errors
    /// Times out or surfaces a device error.
    pub fn wait_tag(&mut self, tag: Tag) -> Result<Vec<DevMsg>, DriverError> {
        let mut collected = Vec::new();
        loop {
            let msg = self.expect()?;
            let done = matches!(
                &msg,
                DevMsg::Data { tag: t, .. } | DevMsg::Flags { tag: t, .. } | DevMsg::SyncAck { tag: t }
                    if *t == tag
            );
            collected.push(msg);
            if done {
                return Ok(collected);
            }
        }
    }

    // ---- χ-sort convenience layer -----------------------------------

    /// Issue a χ-sort operation: operand staged via `operand_reg`, result
    /// (if any) into `result_reg`, flags into f0.
    pub fn xi_op(&mut self, op: XiOp, operand_reg: u8, result_reg: u8) {
        self.exec(InstrWord::user(fu_isa::UserInstr {
            func: fu_isa::funit_codes::XI_SORT,
            variety: op.variety(),
            dst_flag: 0,
            dst_reg: result_reg,
            aux_reg: 0,
            src1: operand_reg,
            src2: 0,
            src3: 0,
        }));
    }

    /// Load `values` into the χ-sort unit (Reset, Push×n, InitBounds),
    /// staging each value through `staging_reg`.
    ///
    /// # Errors
    /// Propagates read/sync failures.
    pub fn xi_load(&mut self, values: &[u32], staging_reg: u8) -> Result<(), DriverError> {
        self.xi_op(XiOp::Reset, staging_reg, 0);
        for &v in values {
            self.write_reg(staging_reg, v as u64);
            // The write and the push are ordered by the pipeline's
            // interlocks; no round trip needed per element.
            self.xi_op(XiOp::Push, staging_reg, 0);
        }
        self.xi_op(XiOp::InitBounds, staging_reg, 0);
        self.sync()
    }

    /// Run a full sort on the loaded array; returns the refinement-round
    /// count.
    ///
    /// # Errors
    /// Propagates read failures.
    pub fn xi_sort(&mut self, result_reg: u8) -> Result<u64, DriverError> {
        self.xi_op(XiOp::Sort, 0, result_reg);
        Ok(self.read_reg(result_reg)?.as_u64())
    }

    /// Read back the sorted array of length `n`.
    ///
    /// # Errors
    /// Propagates read failures.
    pub fn xi_read_sorted(
        &mut self,
        n: usize,
        staging_reg: u8,
        result_reg: u8,
    ) -> Result<Vec<u32>, DriverError> {
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            self.write_reg(staging_reg, k as u64);
            self.xi_op(XiOp::ReadAt, staging_reg, result_reg);
            out.push(self.read_reg(result_reg)?.as_u64() as u32);
        }
        Ok(out)
    }

    /// Select the k-th smallest of the loaded array.
    ///
    /// # Errors
    /// Propagates read failures.
    pub fn xi_select(
        &mut self,
        k: u32,
        staging_reg: u8,
        result_reg: u8,
    ) -> Result<u32, DriverError> {
        self.write_reg(staging_reg, k as u64);
        self.xi_op(XiOp::SelectK, staging_reg, result_reg);
        Ok(self.read_reg(result_reg)?.as_u64() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;
    use fu_rtm::CoprocConfig;
    use fu_units::standard_units;
    use xi_sort::{XiConfig, XiSortAdapter};

    fn driver_with_units() -> Driver {
        let sys = System::new(
            CoprocConfig::default(),
            standard_units(32),
            LinkModel::tightly_coupled(),
        )
        .unwrap();
        Driver::new(sys, 2_000_000)
    }

    fn driver_with_xi(n_cells: u32) -> Driver {
        let sys = System::new(
            CoprocConfig::default(),
            vec![Box::new(XiSortAdapter::new(XiConfig::new(n_cells), 32))],
            LinkModel::tightly_coupled(),
        )
        .unwrap();
        Driver::new(sys, 20_000_000)
    }

    #[test]
    fn arithmetic_program_via_assembly() {
        let mut d = driver_with_units();
        d.write_reg(1, 100);
        d.write_reg(2, 42);
        d.exec_program(
            "; add then subtract
             ADD r3, r1, r2, f1
             SUB r4, r3, r2, f2",
        )
        .unwrap();
        assert_eq!(d.read_reg(3).unwrap().as_u64(), 142);
        assert_eq!(d.read_reg(4).unwrap().as_u64(), 100);
        assert!(!d.read_flags(1).unwrap().carry());
    }

    #[test]
    fn multi_word_add_with_carry_chain() {
        // 64-bit addition on a 32-bit machine via ADD/ADC — the use case
        // Table 3.1 names for the external carry.
        let a: u64 = 0xffff_ffff_0000_0005;
        let b: u64 = 0x0000_0001_0000_0003;
        let mut d = driver_with_units();
        d.write_reg(1, a & 0xffff_ffff);
        d.write_reg(2, a >> 32);
        d.write_reg(3, b & 0xffff_ffff);
        d.write_reg(4, b >> 32);
        d.exec_program(
            "ADD r5, r1, r3, f1
             ADC r6, r2, r4, f2, f1",
        )
        .unwrap();
        let lo = d.read_reg(5).unwrap().as_u64();
        let hi = d.read_reg(6).unwrap().as_u64();
        assert_eq!((hi << 32) | lo, a.wrapping_add(b));
    }

    #[test]
    fn widening_multiply_uses_two_destinations() {
        let mut d = driver_with_units();
        d.write_reg(1, 0xffff_ffff);
        d.write_reg(2, 0x1000_0000);
        d.exec_asm("MUL r3, r4, r1, r2").unwrap();
        let expect = 0xffff_ffffu64 * 0x1000_0000;
        assert_eq!(d.read_reg(3).unwrap().as_u64(), expect & 0xffff_ffff);
        assert_eq!(d.read_reg(4).unwrap().as_u64(), expect >> 32);
    }

    #[test]
    fn device_errors_surface() {
        let mut d = driver_with_units();
        match d.read_reg(200) {
            Err(DriverError::Device {
                code: ErrorCode::BadRegister,
                info: 200,
            }) => {}
            other => panic!("expected BadRegister, got {other:?}"),
        }
        // The machine keeps working after an error.
        d.write_reg(1, 5);
        assert_eq!(d.read_reg(1).unwrap().as_u64(), 5);
    }

    #[test]
    fn asm_errors_surface() {
        let mut d = driver_with_units();
        assert!(matches!(d.exec_asm("FROB r1"), Err(DriverError::Asm(_))));
    }

    #[test]
    fn xi_sort_end_to_end() {
        let mut d = driver_with_xi(16);
        let values = [55u32, 11, 44, 22, 33];
        d.xi_load(&values, 1).unwrap();
        let rounds = d.xi_sort(2).unwrap();
        assert!(rounds >= 1);
        assert_eq!(
            d.xi_read_sorted(values.len(), 1, 2).unwrap(),
            vec![11, 22, 33, 44, 55]
        );
    }

    #[test]
    fn xi_select_median() {
        let mut d = driver_with_xi(16);
        let values = [9u32, 2, 7, 4, 5, 6, 3, 8, 1];
        d.xi_load(&values, 1).unwrap();
        assert_eq!(d.xi_select(4, 1, 2).unwrap(), 5);
    }

    #[test]
    fn queued_reads_hide_link_latency() {
        // 16 reads over the slow prototyping link: blocking pays 16 round
        // trips, the queued API roughly one.
        let mk = || {
            let sys = System::new(
                CoprocConfig::default(),
                standard_units(32),
                LinkModel::prototyping(),
            )
            .unwrap();
            Driver::new(sys, 100_000_000)
        };
        // Blocking.
        let mut d = mk();
        for r in 0..8u8 {
            d.write_reg(r, r as u64 * 3);
        }
        for r in 0..8u8 {
            assert_eq!(d.read_reg(r).unwrap().as_u64(), r as u64 * 3);
        }
        let blocking = d.cycles();
        // Queued.
        let mut d = mk();
        for r in 0..8u8 {
            d.write_reg(r, r as u64 * 3);
        }
        let mut last = 0;
        for r in 0..8u8 {
            last = d.read_reg_async(r);
        }
        let flag_tag = d.read_flags_async(0);
        let _ = flag_tag; // collected below after the data responses
        let responses = d.wait_tag(last).unwrap();
        assert_eq!(responses.len(), 8);
        for (r, msg) in responses.iter().enumerate() {
            assert_eq!(
                *msg,
                DevMsg::Data {
                    tag: r as Tag,
                    value: Word::from_u64(r as u64 * 3, 32)
                }
            );
        }
        // The queued flag read follows the data responses in order.
        let tail = d.wait_tag(flag_tag).unwrap();
        assert!(matches!(tail.last(), Some(DevMsg::Flags { .. })));
        let queued = d.cycles();
        assert!(
            blocking > 3 * queued,
            "batching should hide most round trips: blocking={blocking}, queued={queued}"
        );
    }

    #[test]
    fn poll_drives_the_system_one_cycle() {
        let mut d = driver_with_units();
        d.write_reg(1, 9);
        let tag = d.read_reg_async(1);
        let mut polls = 0;
        let msg = loop {
            if let Some(m) = d.poll() {
                break m;
            }
            polls += 1;
            assert!(polls < 100_000);
        };
        assert_eq!(
            msg,
            DevMsg::Data {
                tag,
                value: Word::from_u64(9, 32)
            }
        );
        assert!(polls > 0, "a response takes at least a few cycles");
    }

    #[test]
    fn sync_then_idle() {
        let mut d = driver_with_units();
        d.write_reg(1, 1);
        d.exec_asm("INC r2, r1").unwrap();
        d.sync().unwrap();
        let mut sys = d.into_system();
        sys.run_until(1000, |s| s.is_idle()).unwrap();
    }
}
