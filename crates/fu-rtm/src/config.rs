//! Framework configuration — the Rust stand-in for the VHDL generics.
//!
//! "The architecture of the controller is specified as a set of generics in
//! VHDL. … the word size used for the register file is adjustable, so the
//! interface can meet the requirements of the functional units while
//! requiring as small a portion of the FPGA as possible."

use crate::redundant::Redundancy;
use crate::seu::SeuConfig;
use rtl_sim::SimError;

/// Configuration of one coprocessor instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoprocConfig {
    /// Register word size in bits; must be a multiple of 32 in `32..=128`
    /// ("configurable in multiples of 32 bits").
    pub word_bits: u32,
    /// Number of main data registers (2..=256).
    pub data_regs: u16,
    /// Number of flag registers (1..=256).
    pub flag_regs: u16,
    /// Register-file write ports available to the write arbiter per cycle,
    /// *excluding* the execution stage's high-priority port ("up to two
    /// results may be loaded into the register file").
    pub write_ports: u8,
    /// Input-port width: frames the message buffer may consume per cycle
    /// (1 models the paper's narrow prototyping link port; 4 a tightly
    /// coupled 128-bit bus).
    pub rx_frames_per_cycle: u8,
    /// Output-port width: frames the serialiser may emit per cycle.
    pub tx_frames_per_cycle: u8,
    /// Depth of the inbound frame FIFO between the receiver and the
    /// message buffer.
    pub rx_fifo_depth: usize,
    /// Depth of the outbound frame FIFO between the serialiser and the
    /// transmitter.
    pub tx_fifo_depth: usize,
    /// Number of trace events retained (0 disables tracing).
    pub trace_depth: usize,
    /// Dispatch watchdog: a functional unit that is busy for this many
    /// cycles without making progress (no dispatch accepted, no output
    /// produced) is declared hung — its register locks are force-released,
    /// an in-band [`fu_isa::msg::ErrorCode::FuTimeout`] error is emitted,
    /// and the unit is quarantined in the FU table so later dispatches fail
    /// fast. `None` disables the watchdog (the default).
    pub max_busy_cycles: Option<u64>,
    /// Seeded single-event-upset injection into device state (register/
    /// flag file cells, result latches, scoreboard bits). `None` (the
    /// default) models radiation-free hardware.
    pub seu: Option<SeuConfig>,
    /// Per-entry parity on the register and flag files, checked on read.
    /// Detects memory-cell upsets (reported as in-band
    /// [`fu_isa::msg::ErrorCode::SoftError`]); cannot see datapath
    /// upsets, which need redundant execution.
    pub parity: bool,
    /// Redundant execution: every clone-capable functional unit runs as
    /// 2 (DMR, detect) or 3 (TMR, detect + majority-correct) lock-step
    /// replicas with a vote at retire.
    pub redundancy: Redundancy,
}

impl Default for CoprocConfig {
    fn default() -> Self {
        CoprocConfig {
            word_bits: 32,
            data_regs: 32,
            flag_regs: 8,
            write_ports: 2,
            rx_frames_per_cycle: 1,
            tx_frames_per_cycle: 1,
            rx_fifo_depth: 16,
            tx_fifo_depth: 16,
            trace_depth: 0,
            max_busy_cycles: None,
            seu: None,
            parity: false,
            redundancy: Redundancy::None,
        }
    }
}

impl CoprocConfig {
    /// Validate the same constraints the VHDL generics impose.
    pub fn validate(&self) -> Result<(), SimError> {
        let err = |m: String| Err(SimError::Config(m));
        if !self.word_bits.is_multiple_of(32) || !(32..=128).contains(&self.word_bits) {
            return err(format!(
                "word_bits must be a multiple of 32 in 32..=128, got {}",
                self.word_bits
            ));
        }
        if !(2..=256).contains(&self.data_regs) {
            return err(format!(
                "data_regs must be in 2..=256, got {}",
                self.data_regs
            ));
        }
        if !(1..=256).contains(&self.flag_regs) {
            return err(format!(
                "flag_regs must be in 1..=256, got {}",
                self.flag_regs
            ));
        }
        if self.write_ports == 0 {
            return err("write_ports must be at least 1".into());
        }
        if self.rx_fifo_depth == 0 || self.tx_fifo_depth == 0 {
            return err("frame FIFO depths must be at least 1".into());
        }
        if self.rx_frames_per_cycle == 0 || self.tx_frames_per_cycle == 0 {
            return err("port widths must be at least one frame per cycle".into());
        }
        if self.max_busy_cycles == Some(0) {
            return err("max_busy_cycles must be at least 1 when enabled".into());
        }
        if let Some(s) = &self.seu {
            if s.mean_interval_cycles == 0 {
                return err("seu mean_interval_cycles must be at least 1".into());
            }
            if !(s.regfile || s.flagfile || s.result_latch || s.scoreboard) {
                return err("seu injection enabled with no target class".into());
            }
        }
        Ok(())
    }

    /// Builder-style word size override.
    pub fn with_word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }

    /// Builder-style register count override.
    pub fn with_data_regs(mut self, n: u16) -> Self {
        self.data_regs = n;
        self
    }

    /// Builder-style flag register count override.
    pub fn with_flag_regs(mut self, n: u16) -> Self {
        self.flag_regs = n;
        self
    }

    /// Builder-style SEU injection enable.
    pub fn with_seu(mut self, seu: SeuConfig) -> Self {
        self.seu = Some(seu);
        self
    }

    /// Builder-style register/flag file parity enable.
    pub fn with_parity(mut self) -> Self {
        self.parity = true;
        self
    }

    /// Builder-style redundant execution mode.
    pub fn with_redundancy(mut self, redundancy: Redundancy) -> Self {
        self.redundancy = redundancy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CoprocConfig::default().validate().is_ok());
    }

    #[test]
    fn all_supported_word_sizes_validate() {
        for bits in [32, 64, 96, 128] {
            assert!(CoprocConfig::default()
                .with_word_bits(bits)
                .validate()
                .is_ok());
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            CoprocConfig::default().with_word_bits(48),
            CoprocConfig::default().with_word_bits(0),
            CoprocConfig::default().with_word_bits(160),
            CoprocConfig::default().with_data_regs(1),
            CoprocConfig::default().with_flag_regs(0),
            CoprocConfig {
                write_ports: 0,
                ..CoprocConfig::default()
            },
            CoprocConfig {
                rx_fifo_depth: 0,
                ..CoprocConfig::default()
            },
            CoprocConfig {
                max_busy_cycles: Some(0),
                ..CoprocConfig::default()
            },
            CoprocConfig {
                seu: Some(SeuConfig {
                    mean_interval_cycles: 0,
                    ..SeuConfig::all(1, 1)
                }),
                ..CoprocConfig::default()
            },
            CoprocConfig {
                seu: Some(SeuConfig {
                    regfile: false,
                    flagfile: false,
                    result_latch: false,
                    scoreboard: false,
                    ..SeuConfig::all(1, 100)
                }),
                ..CoprocConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }

    #[test]
    fn error_messages_name_the_parameter() {
        let e = CoprocConfig::default()
            .with_word_bits(48)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("word_bits"));
        let e = CoprocConfig::default()
            .with_data_regs(0)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("data_regs"));
    }
}
