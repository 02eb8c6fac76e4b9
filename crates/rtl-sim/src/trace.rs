//! Event tracing and a minimal VCD (value change dump) writer.
//!
//! Debugging an elastic pipeline is an exercise in watching handshakes; the
//! original framework was debugged with waveform viewers, so the
//! reproduction keeps an equivalent facility. [`TraceBuffer`] is a bounded
//! in-memory event log any component can append to; [`VcdWriter`] emits a
//! standard `.vcd` file that external waveform viewers (GTKWave et al.) can
//! open, and [`perfetto`] renders a trace as Chrome-trace JSON that opens
//! directly in `ui.perfetto.dev`.
//!
//! Events are a closed enum ([`TraceEventKind`]) of `Copy` payloads rather
//! than free-text strings: recording is a branch plus a fixed-size move
//! into a pre-sized ring, so an *enabled* trace never allocates on the hot
//! path and a *disabled* trace costs a single predictable branch.
//!
//! **Non-perturbation rule:** tracing observes the simulation, it never
//! steers it. No component may branch on trace state, and nothing recorded
//! here feeds back into architecturally visible behaviour — a run with
//! tracing enabled is bit-identical to the same run with tracing disabled
//! (the differential harness, `tests/harness.rs`, holds this as a
//! property test).

pub mod perfetto;

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Direction of a host-link event, viewed from the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Host → coprocessor.
    ToDevice,
    /// Coprocessor → host.
    ToHost,
}

impl LinkDir {
    /// Stable lower-case label, used by exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LinkDir::ToDevice => "to_device",
            LinkDir::ToHost => "to_host",
        }
    }
}

/// Why a pipeline stage could not make progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// A destination (or source, RAW) register is locked in the scoreboard.
    Lock,
    /// The execution-op slot toward the encoder is full.
    ExecFull,
    /// A fence is waiting for the machine to drain.
    Fence,
    /// The response path toward the encoder/serialiser is full.
    RespFull,
    /// The write arbiter ran out of register-file ports this cycle.
    WritePort,
}

impl StallCause {
    /// Stable lower-case label, used by exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Lock => "lock",
            StallCause::ExecFull => "exec_full",
            StallCause::Fence => "fence",
            StallCause::RespFull => "resp_full",
            StallCause::WritePort => "write_port",
        }
    }
}

/// What happened. Every variant is plain-old-data so a [`TraceEvent`] is
/// `Copy` and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A stage produced an item into its output register.
    StagePush {
        /// Stage name (static, matches `SimStats::stage_evals`).
        stage: &'static str,
    },
    /// A stage consumed the item at its input register.
    StageTake {
        /// Stage name.
        stage: &'static str,
    },
    /// A stage wanted to make progress but could not.
    StageStall {
        /// Stage name.
        stage: &'static str,
        /// Why it could not proceed.
        cause: StallCause,
    },
    /// The dispatcher issued a user instruction to a functional unit.
    FuDispatch {
        /// Functional-unit index.
        unit: u8,
        /// Global dispatch sequence number.
        seq: u64,
    },
    /// A dispatch was blocked because the target unit could not accept it.
    FuBusy {
        /// Functional-unit index.
        unit: u8,
    },
    /// The write arbiter retired a completed instruction.
    FuRetire {
        /// Functional-unit index.
        unit: u8,
        /// Dispatch sequence number of the retired instruction.
        seq: u64,
    },
    /// The watchdog quarantined a hung functional unit.
    FuQuarantined {
        /// Functional-unit index.
        unit: u8,
    },
    /// The scoreboard granted a lock ticket (destination registers).
    LockAcquire {
        /// Up to two data-register destinations.
        data: [Option<u8>; 2],
        /// Flag-register destination.
        flag: Option<u8>,
    },
    /// A lock ticket was released (results visible, registers free).
    LockRelease {
        /// Up to two data-register destinations.
        data: [Option<u8>; 2],
        /// Flag-register destination.
        flag: Option<u8>,
    },
    /// The write arbiter granted write ports to a unit this cycle.
    ArbGrant {
        /// Functional-unit index.
        unit: u8,
        /// Data-register ports consumed by the grant (0, 1 or 2).
        data_writes: u8,
    },
    /// The encoder forwarded a sequenced response toward the serialiser.
    RespForward {
        /// Response sequence number (must be monotone).
        seq: u64,
    },
    /// A frame was presented to the link for transmission.
    LinkTx {
        /// Direction of travel.
        dir: LinkDir,
    },
    /// A frame arrived from the link.
    LinkRx {
        /// Direction of travel.
        dir: LinkDir,
    },
    /// The reliable transport retransmitted `segments` segments.
    LinkRetransmit {
        /// Segments re-sent since the previous retransmit event.
        segments: u32,
    },
    /// The SEU model flipped one bit of device state.
    SeuInjected {
        /// Target class label (static: `"regfile"`, `"flagfile"`,
        /// `"latch"`, `"scoreboard"`).
        target: &'static str,
        /// Register / unit index within the target class.
        index: u8,
        /// Bit position flipped.
        bit: u8,
    },
    /// A parity check caught a corrupted register/flag file entry on read.
    SeuDetected {
        /// Register number that failed its parity check.
        reg: u8,
    },
    /// Redundant state repaired a soft error in place (TMR majority vote
    /// or scoreboard shadow restore) — no rollback needed.
    SeuCorrected {
        /// Functional-unit index (voting) or scoreboard slot (shadow).
        unit: u8,
    },
    /// The host rolled the system back to its last checkpoint after an
    /// uncorrected soft error.
    Rollback {
        /// Cycle the restored checkpoint was taken at.
        to_cycle: u64,
        /// Cycles of work discarded by the rollback.
        lost_cycles: u64,
    },
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ticket(
            f: &mut fmt::Formatter<'_>,
            verb: &str,
            data: &[Option<u8>; 2],
            flag: &Option<u8>,
        ) -> fmt::Result {
            write!(f, "{verb}")?;
            for r in data.iter().flatten() {
                write!(f, " r{r}")?;
            }
            if let Some(r) = flag {
                write!(f, " f{r}")?;
            }
            Ok(())
        }
        match self {
            TraceEventKind::StagePush { stage } => write!(f, "{stage}: push"),
            TraceEventKind::StageTake { stage } => write!(f, "{stage}: take"),
            TraceEventKind::StageStall { stage, cause } => {
                write!(f, "{stage}: stall ({})", cause.label())
            }
            TraceEventKind::FuDispatch { unit, seq } => {
                write!(f, "fu{unit}: dispatch seq {seq}")
            }
            TraceEventKind::FuBusy { unit } => write!(f, "fu{unit}: busy"),
            TraceEventKind::FuRetire { unit, seq } => write!(f, "fu{unit}: retire seq {seq}"),
            TraceEventKind::FuQuarantined { unit } => write!(f, "fu{unit}: quarantined"),
            TraceEventKind::LockAcquire { data, flag } => ticket(f, "lock: acquire", data, flag),
            TraceEventKind::LockRelease { data, flag } => ticket(f, "lock: release", data, flag),
            TraceEventKind::ArbGrant { unit, data_writes } => {
                write!(f, "arbiter: grant fu{unit} ({data_writes} data ports)")
            }
            TraceEventKind::RespForward { seq } => write!(f, "encoder: forward seq {seq}"),
            TraceEventKind::LinkTx { dir } => write!(f, "link {}: tx", dir.label()),
            TraceEventKind::LinkRx { dir } => write!(f, "link {}: rx", dir.label()),
            TraceEventKind::LinkRetransmit { segments } => {
                write!(f, "link: retransmit {segments} segment(s)")
            }
            TraceEventKind::SeuInjected { target, index, bit } => {
                write!(f, "seu: flip {target}[{index}] bit {bit}")
            }
            TraceEventKind::SeuDetected { reg } => write!(f, "seu: parity mismatch r{reg}"),
            TraceEventKind::SeuCorrected { unit } => write!(f, "seu: corrected at {unit}"),
            TraceEventKind::Rollback {
                to_cycle,
                lost_cycles,
            } => write!(f, "rollback: to cycle {to_cycle} ({lost_cycles} lost)"),
        }
    }
}

/// One traced event: a cycle stamp plus a typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {}", self.cycle, self.kind)
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// When full, the oldest events are discarded and counted in
/// [`TraceBuffer::dropped`]: the interesting part of a failed simulation is
/// almost always its tail. A disabled buffer (capacity 0) rejects every
/// record with a single branch, so components can call [`TraceBuffer::record`]
/// unconditionally.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl TraceBuffer {
    /// A trace buffer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: std::collections::VecDeque::with_capacity(capacity.min(65_536)),
            capacity,
            enabled: capacity > 0,
            dropped: 0,
        }
    }

    /// A disabled buffer: every `record` is a no-op. Benchmarks use this so
    /// tracing costs nothing on the hot path.
    pub fn disabled() -> Self {
        TraceBuffer::new(0)
    }

    /// True when events are being retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event, dropping the oldest when at capacity. The payload
    /// is `Copy` and the ring is pre-sized, so an enabled record is a
    /// branch plus a fixed-size move — no allocation, no formatting.
    #[inline]
    pub fn record(&mut self, cycle: u64, kind: TraceEventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { cycle, kind });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events discarded due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the retained events as one line per event.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(s, "{e}");
        }
        s
    }

    /// Discard all retained events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

/// A minimal VCD writer supporting scalar and vector signals.
///
/// Usage: declare signals before the first [`VcdWriter::change`], then feed
/// `(cycle, signal, value)` updates; [`VcdWriter::finish`] returns the
/// complete file contents. Values are deduplicated per signal as VCD
/// requires only changes to be dumped.
#[derive(Debug)]
pub struct VcdWriter {
    header: String,
    body: String,
    ids: HashMap<String, (String, u32)>, // name -> (id code, width)
    last: HashMap<String, u64>,
    next_id: u32,
    declared: bool,
    cur_time: Option<u64>,
}

impl VcdWriter {
    /// Start a VCD document with a `timescale` of 1 ns per cycle.
    pub fn new(top_module: &str) -> Self {
        let mut header = String::new();
        let _ = writeln!(header, "$date reproduction run $end");
        let _ = writeln!(header, "$version rtl-sim 0.1 $end");
        let _ = writeln!(header, "$timescale 1ns $end");
        let _ = writeln!(header, "$scope module {top_module} $end");
        VcdWriter {
            header,
            body: String::new(),
            ids: HashMap::new(),
            last: HashMap::new(),
            next_id: 0,
            declared: false,
            cur_time: None,
        }
    }

    fn id_code(mut n: u32) -> String {
        // VCD identifier codes: printable ASCII 33..=126, base-94.
        let mut s = String::new();
        loop {
            s.push((33 + (n % 94)) as u8 as char);
            n /= 94;
            if n == 0 {
                break;
            }
        }
        s
    }

    /// Declare a signal of `width` bits. Must precede the first `change`.
    ///
    /// # Panics
    /// Panics if called after value changes have been emitted, or when
    /// `width` is 0 or exceeds 64.
    pub fn declare(&mut self, name: &str, width: u32) {
        assert!(!self.declared, "declare() after first change()");
        assert!((1..=64).contains(&width), "signal width must be 1..=64");
        let code = Self::id_code(self.next_id);
        self.next_id += 1;
        let kind = if width == 1 { "wire" } else { "reg" };
        let _ = writeln!(self.header, "$var {kind} {width} {code} {name} $end");
        self.ids.insert(name.to_string(), (code, width));
    }

    /// Record a value change at `cycle`. Unknown signals panic (declare
    /// first); unchanged values are skipped.
    pub fn change(&mut self, cycle: u64, name: &str, value: u64) {
        if !self.declared {
            let _ = writeln!(self.header, "$upscope $end");
            let _ = writeln!(self.header, "$enddefinitions $end");
            self.declared = true;
        }
        let (code, width) = self
            .ids
            .get(name)
            .unwrap_or_else(|| panic!("undeclared VCD signal {name}"))
            .clone();
        if self.last.get(name) == Some(&value) {
            return;
        }
        if self.cur_time != Some(cycle) {
            let _ = writeln!(self.body, "#{cycle}");
            self.cur_time = Some(cycle);
        }
        if width == 1 {
            let _ = writeln!(self.body, "{}{}", value & 1, code);
        } else {
            let _ = writeln!(self.body, "b{:b} {}", value, code);
        }
        self.last.insert(name.to_string(), value);
    }

    /// Complete the document and return its text.
    pub fn finish(mut self) -> String {
        if !self.declared {
            let _ = writeln!(self.header, "$upscope $end");
            let _ = writeln!(self.header, "$enddefinitions $end");
        }
        self.header.push_str(&self.body);
        self.header
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buffer_retains_tail() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5u64 {
            t.record(i, TraceEventKind::StagePush { stage: "decoder" });
        }
        let kept: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(t.dropped(), 2);
        assert!(t.dump().contains("decoder: push"));
        t.clear();
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut t = TraceBuffer::disabled();
        assert!(!t.is_enabled());
        t.record(1, TraceEventKind::FuDispatch { unit: 0, seq: 0 });
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn wraparound_dropped_accounting_is_exact() {
        // Multi-wrap: dropped must equal exactly (recorded - capacity) and
        // the retained window must be the contiguous tail.
        let mut t = TraceBuffer::new(8);
        let total = 1000u64;
        for i in 0..total {
            t.record(i, TraceEventKind::RespForward { seq: i });
        }
        assert_eq!(t.dropped(), total - 8);
        assert_eq!(t.events().count(), 8);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, (total - 8..total).collect::<Vec<_>>());
        // Totals reconcile: retained + dropped == recorded.
        assert_eq!(t.events().count() as u64 + t.dropped(), total);
    }

    #[test]
    fn event_display_is_stable() {
        let e = TraceEvent {
            cycle: 7,
            kind: TraceEventKind::LockAcquire {
                data: [Some(3), None],
                flag: Some(1),
            },
        };
        assert_eq!(e.to_string(), "[       7] lock: acquire r3 f1");
        let s = TraceEvent {
            cycle: 12,
            kind: TraceEventKind::StageStall {
                stage: "dispatcher",
                cause: StallCause::Lock,
            },
        };
        assert_eq!(s.to_string(), "[      12] dispatcher: stall (lock)");
    }

    #[test]
    fn vcd_structure_is_valid() {
        let mut v = VcdWriter::new("coproc");
        v.declare("clk", 1);
        v.declare("instr", 64);
        v.change(0, "clk", 0);
        v.change(0, "instr", 0xdead);
        v.change(1, "clk", 1);
        v.change(2, "clk", 1); // unchanged -> skipped
        let text = v.finish();
        assert!(text.contains("$enddefinitions"));
        assert!(text.contains("$var wire 1"));
        assert!(text.contains("$var reg 64"));
        assert!(text.contains("#0"));
        assert!(text.contains("#1"));
        assert!(
            !text.contains("#2"),
            "unchanged values must not emit time marks"
        );
        assert!(text.contains("b1101111010101101"));
    }

    #[test]
    fn vcd_golden_output_is_stable() {
        // Byte-exact golden file for a fixed 3-change trace. If this test
        // fails the VCD emitter changed observably — update deliberately.
        let mut v = VcdWriter::new("top");
        v.declare("valid", 1);
        v.declare("data", 8);
        v.change(0, "valid", 1);
        v.change(0, "data", 0xa5);
        v.change(3, "valid", 0);
        let expect = "$date reproduction run $end\n\
                      $version rtl-sim 0.1 $end\n\
                      $timescale 1ns $end\n\
                      $scope module top $end\n\
                      $var wire 1 ! valid $end\n\
                      $var reg 8 \" data $end\n\
                      $upscope $end\n\
                      $enddefinitions $end\n\
                      #0\n\
                      1!\n\
                      b10100101 \"\n\
                      #3\n\
                      0!\n";
        assert_eq!(v.finish(), expect);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn vcd_unknown_signal_panics() {
        let mut v = VcdWriter::new("t");
        v.change(0, "nope", 1);
    }

    #[test]
    fn vcd_id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let code = VcdWriter::id_code(n);
            assert!(code.bytes().all(|b| (33..=126).contains(&b)));
            assert!(seen.insert(code));
        }
    }

    #[test]
    fn vcd_empty_document_still_closes_header() {
        let v = VcdWriter::new("empty");
        let text = v.finish();
        assert!(text.contains("$enddefinitions"));
    }
}
