//! The secondary flag register file.
//!
//! "There is a secondary register file holding vectors of flags, which are
//! often useful for controlling the functional units." Same port
//! discipline as [`crate::regfile::RegFile`], but over 8-bit
//! [`fu_isa::Flags`] vectors.

use fu_isa::Flags;
use rtl_sim::{AreaEstimate, Clocked, SatCounter};

/// A file of `n` flag vectors.
#[derive(Debug, Clone)]
pub struct FlagFile {
    regs: Vec<Flags>,
    staged: Vec<(u8, Flags)>,
    reads: SatCounter,
    writes: SatCounter,
    /// Per-entry even-parity bit, maintained at commit time (see
    /// [`crate::regfile::RegFile`] for the detection model).
    parity: Vec<bool>,
    parity_enabled: bool,
    parity_errors: Vec<u8>,
}

impl FlagFile {
    /// A zero-initialised flag file.
    pub fn new(n: u16) -> FlagFile {
        assert!(
            (1..=256).contains(&n),
            "flag register count must be in 1..=256"
        );
        FlagFile {
            regs: vec![Flags::NONE; n as usize],
            staged: Vec::with_capacity(4),
            reads: SatCounter::default(),
            writes: SatCounter::default(),
            parity: vec![false; n as usize],
            parity_enabled: false,
            parity_errors: Vec::new(),
        }
    }

    /// Enable or disable parity protection, recomputing stored parity.
    pub fn set_parity_enabled(&mut self, enabled: bool) {
        self.parity_enabled = enabled;
        for (i, r) in self.regs.iter().enumerate() {
            self.parity[i] = r.0.count_ones() & 1 == 1;
        }
    }

    /// Flip bit `bit % 8` of flag register `r`, leaving parity stale.
    pub fn seu_flip(&mut self, r: u8, bit: u8) {
        self.regs[r as usize].0 ^= 1 << (bit % 8);
    }

    /// Drain flag registers that failed their parity check.
    pub fn take_parity_errors(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.parity_errors)
    }

    /// True when every flag register agrees with its parity bit (no
    /// latent upset); trivially true with parity disabled.
    pub fn parity_clean(&self) -> bool {
        if !self.parity_enabled {
            return true;
        }
        self.regs
            .iter()
            .zip(&self.parity)
            .all(|(r, p)| (r.0.count_ones() & 1 == 1) == *p)
    }

    /// Number of flag registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when empty (construction enforces at least one).
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// True when `r` names an existing flag register.
    pub fn in_range(&self, r: u8) -> bool {
        (r as usize) < self.regs.len()
    }

    /// Combinational read port.
    pub fn read(&mut self, r: u8) -> Flags {
        self.reads.bump();
        if self.parity_enabled {
            let got = self.regs[r as usize].0.count_ones() & 1 == 1;
            if got != self.parity[r as usize] {
                self.parity_errors.push(r);
                self.parity[r as usize] = got;
            }
        }
        self.regs[r as usize]
    }

    /// Read without counting.
    pub fn peek(&self, r: u8) -> Flags {
        self.regs[r as usize]
    }

    /// Registered write port.
    ///
    /// # Panics
    /// Panics on out-of-range registers or a double write in one cycle.
    pub fn write(&mut self, r: u8, v: Flags) {
        assert!(self.in_range(r), "flag register {r} out of range");
        assert!(
            !self.staged.iter().any(|(sr, _)| *sr == r),
            "double write to f{r} in one cycle"
        );
        self.writes.bump();
        self.staged.push((r, v));
    }

    /// `(reads, writes)` since reset.
    pub fn port_counts(&self) -> (u64, u64) {
        (self.reads.get(), self.writes.get())
    }

    /// Area estimate.
    pub fn area(&self) -> AreaEstimate {
        AreaEstimate::regfile(self.regs.len() as u64, 8, 2, 2)
    }
}

impl Clocked for FlagFile {
    fn commit(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        for (r, v) in self.staged.drain(..) {
            if self.parity_enabled {
                self.parity[r as usize] = v.0.count_ones() & 1 == 1;
            }
            self.regs[r as usize] = v;
        }
    }

    fn reset(&mut self) {
        for r in &mut self.regs {
            *r = Flags::NONE;
        }
        self.staged.clear();
        self.reads = SatCounter::default();
        self.writes = SatCounter::default();
        self.parity.fill(false);
        self.parity_errors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_write() {
        let mut ff = FlagFile::new(4);
        ff.write(1, Flags::CARRY);
        assert_eq!(ff.read(1), Flags::NONE);
        ff.commit();
        assert_eq!(ff.read(1), Flags::CARRY);
    }

    #[test]
    #[should_panic(expected = "double write")]
    fn double_write_panics() {
        let mut ff = FlagFile::new(4);
        ff.write(1, Flags::CARRY);
        ff.write(1, Flags::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut ff = FlagFile::new(4);
        ff.write(4, Flags::NONE);
    }

    #[test]
    fn reset_and_counters() {
        let mut ff = FlagFile::new(2);
        ff.write(0, Flags::ERROR);
        ff.commit();
        let _ = ff.read(0);
        assert_eq!(ff.port_counts(), (1, 1));
        ff.reset();
        assert_eq!(ff.peek(0), Flags::NONE);
        assert_eq!(ff.port_counts(), (0, 0));
    }

    #[test]
    fn parity_catches_flag_flip() {
        let mut ff = FlagFile::new(4);
        ff.set_parity_enabled(true);
        ff.write(2, Flags::CARRY);
        ff.commit();
        let _ = ff.read(2);
        assert!(ff.take_parity_errors().is_empty());
        ff.seu_flip(2, 3);
        let _ = ff.read(2);
        assert_eq!(ff.take_parity_errors(), vec![2]);
        let _ = ff.read(2);
        assert!(ff.take_parity_errors().is_empty(), "scrubbed: reports once");
    }

    #[test]
    fn single_flag_register_config() {
        let ff = FlagFile::new(1);
        assert!(ff.in_range(0));
        assert!(!ff.in_range(1));
        assert_eq!(ff.len(), 1);
    }
}
