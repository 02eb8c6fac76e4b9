//! The main register file.
//!
//! "The main register file holds data, and its word size is configurable in
//! multiples of 32 bits. … up to three operands to be fetched from the
//! register file, and up to two results may be loaded into the register
//! file."
//!
//! Reads are combinational (the dispatcher reads operands within its
//! stage); writes are registered and become visible at the next clock
//! edge. Multiple writes per cycle are legal as long as they target
//! distinct registers — the lock manager guarantees the write arbiter and
//! the execution stage never collide on the same register.

use fu_isa::Word;
use rtl_sim::{AreaEstimate, Clocked, SatCounter};

/// A register file of `n` words of `word_bits` each.
#[derive(Debug, Clone)]
pub struct RegFile {
    regs: Vec<Word>,
    staged: Vec<(u8, Word)>,
    word_bits: u32,
    reads: SatCounter,
    writes: SatCounter,
    /// Per-entry even-parity bit, maintained at commit time. Only checked
    /// on read when `parity_enabled`; an SEU cell flip leaves it stale,
    /// which is exactly how the mismatch is detected.
    parity: Vec<bool>,
    parity_enabled: bool,
    /// Registers whose parity check failed, awaiting collection by the
    /// coprocessor (which reports them as in-band soft errors).
    parity_errors: Vec<u8>,
}

impl RegFile {
    /// A zero-initialised register file.
    pub fn new(n: u16, word_bits: u32) -> RegFile {
        assert!((2..=256).contains(&n), "register count must be in 2..=256");
        RegFile {
            regs: vec![Word::zero(word_bits); n as usize],
            staged: Vec::with_capacity(4),
            word_bits,
            reads: SatCounter::default(),
            writes: SatCounter::default(),
            parity: vec![false; n as usize],
            parity_enabled: false,
            parity_errors: Vec::new(),
        }
    }

    /// Enable or disable the per-entry parity protection. Parity bits are
    /// recomputed from the current contents, so enabling never reports
    /// pre-existing state as corrupt.
    pub fn set_parity_enabled(&mut self, enabled: bool) {
        self.parity_enabled = enabled;
        for (i, r) in self.regs.iter().enumerate() {
            self.parity[i] = r.popcount() & 1 == 1;
        }
    }

    /// Flip bit `bit % word_bits` of register `r` in place, leaving the
    /// parity bit stale — the SEU model's memory-cell strike.
    pub fn seu_flip(&mut self, r: u8, bit: u8) {
        let w = &mut self.regs[r as usize];
        let bit = u32::from(bit) % w.bits();
        let mut limbs: Vec<u32> = w.limbs().to_vec();
        limbs[(bit / 32) as usize] ^= 1 << (bit % 32);
        *w = Word::from_limbs(&limbs);
    }

    /// Flip bit `bit` of a staged (not yet committed) write, if one
    /// exists — the SEU model's datapath-latch strike. The corrupted
    /// value flows into the parity computation at commit, so parity
    /// cannot catch it; only redundant execution can. Returns whether a
    /// staged write was hit.
    pub fn seu_flip_staged(&mut self, bit: u8) -> bool {
        let Some((_, w)) = self.staged.first_mut() else {
            return false;
        };
        let bit = u32::from(bit) % w.bits();
        let mut limbs: Vec<u32> = w.limbs().to_vec();
        limbs[(bit / 32) as usize] ^= 1 << (bit % 32);
        *w = Word::from_limbs(&limbs);
        true
    }

    /// Drain the registers that failed their parity check since the last
    /// call. Each scrubbed entry reports once.
    pub fn take_parity_errors(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.parity_errors)
    }

    /// True when at least one write is staged toward this cycle's commit
    /// — whether a datapath-latch strike has anything to corrupt.
    pub fn has_staged_write(&self) -> bool {
        !self.staged.is_empty()
    }

    /// True when every stored word agrees with its parity bit, i.e. no
    /// latent (not yet read) memory-cell upset is present. Checkpoint
    /// logic refuses to snapshot while this is false; trivially true with
    /// parity disabled.
    pub fn parity_clean(&self) -> bool {
        if !self.parity_enabled {
            return true;
        }
        self.regs
            .iter()
            .zip(&self.parity)
            .all(|(r, p)| (r.popcount() & 1 == 1) == *p)
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when the file has no registers (never: construction enforces
    /// at least two, but the method completes the container contract).
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Configured word size in bits.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// True when `r` names an existing register.
    pub fn in_range(&self, r: u8) -> bool {
        (r as usize) < self.regs.len()
    }

    /// Combinational read port.
    ///
    /// # Panics
    /// Panics on out-of-range registers — the decoder validates register
    /// numbers before they reach a read port.
    pub fn read(&mut self, r: u8) -> Word {
        self.reads.bump();
        if self.parity_enabled {
            let got = self.regs[r as usize].popcount() & 1 == 1;
            if got != self.parity[r as usize] {
                self.parity_errors.push(r);
                // Scrub: a single upset reports once, not on every read.
                self.parity[r as usize] = got;
            }
        }
        self.regs[r as usize]
    }

    /// Read without counting (diagnostics, test assertions).
    pub fn peek(&self, r: u8) -> Word {
        self.regs[r as usize]
    }

    /// Registered write port: the value is visible from the next cycle.
    ///
    /// # Panics
    /// Panics on out-of-range registers, width mismatches, or two writes
    /// to the same register in one cycle (the lock manager must prevent
    /// the latter; hitting it is a framework bug).
    pub fn write(&mut self, r: u8, v: Word) {
        assert!(self.in_range(r), "register {r} out of range");
        assert_eq!(v.bits(), self.word_bits, "register write width mismatch");
        assert!(
            !self.staged.iter().any(|(sr, _)| *sr == r),
            "double write to r{r} in one cycle"
        );
        self.writes.bump();
        self.staged.push((r, v));
    }

    /// `(reads, writes)` since reset.
    pub fn port_counts(&self) -> (u64, u64) {
        (self.reads.get(), self.writes.get())
    }

    /// Area estimate: a register-based file with 3 read and 2+1 write
    /// ports, as the paper's operand/result counts require.
    pub fn area(&self) -> AreaEstimate {
        AreaEstimate::regfile(self.regs.len() as u64, self.word_bits as u64, 3, 3)
    }
}

impl Clocked for RegFile {
    fn commit(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        for (r, v) in self.staged.drain(..) {
            if self.parity_enabled {
                self.parity[r as usize] = v.popcount() & 1 == 1;
            }
            self.regs[r as usize] = v;
        }
    }

    fn reset(&mut self) {
        for r in &mut self.regs {
            *r = Word::zero(self.word_bits);
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
    fn write_is_registered() {
        let mut rf = RegFile::new(8, 32);
        rf.write(3, Word::from_u64(77, 32));
        assert!(rf.read(3).is_zero(), "write must not be visible this cycle");
        rf.commit();
        assert_eq!(rf.read(3).as_u64(), 77);
    }

    #[test]
    fn distinct_registers_may_write_same_cycle() {
        let mut rf = RegFile::new(8, 32);
        rf.write(1, Word::from_u64(1, 32));
        rf.write(2, Word::from_u64(2, 32));
        rf.write(3, Word::from_u64(3, 32));
        rf.commit();
        assert_eq!(rf.peek(1).as_u64(), 1);
        assert_eq!(rf.peek(2).as_u64(), 2);
        assert_eq!(rf.peek(3).as_u64(), 3);
    }

    #[test]
    #[should_panic(expected = "double write")]
    fn same_register_double_write_panics() {
        let mut rf = RegFile::new(8, 32);
        rf.write(1, Word::from_u64(1, 32));
        rf.write(1, Word::from_u64(2, 32));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut rf = RegFile::new(8, 32);
        rf.write(1, Word::from_u64(1, 64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut rf = RegFile::new(8, 32);
        rf.write(8, Word::from_u64(1, 32));
    }

    #[test]
    fn range_check() {
        let rf = RegFile::new(8, 32);
        assert!(rf.in_range(7));
        assert!(!rf.in_range(8));
    }

    #[test]
    fn counters_and_reset() {
        let mut rf = RegFile::new(4, 64);
        rf.write(0, Word::from_u64(5, 64));
        rf.commit();
        let _ = rf.read(0);
        let _ = rf.read(1);
        assert_eq!(rf.port_counts(), (2, 1));
        rf.reset();
        assert_eq!(rf.port_counts(), (0, 0));
        assert!(rf.peek(0).is_zero());
    }

    #[test]
    fn wide_word_configuration() {
        let mut rf = RegFile::new(4, 128);
        let v = Word::from_u128(u128::MAX - 5, 128);
        rf.write(2, v);
        rf.commit();
        assert_eq!(rf.peek(2), v);
        assert_eq!(rf.word_bits(), 128);
    }

    #[test]
    fn parity_catches_cell_flip_and_reports_once() {
        let mut rf = RegFile::new(8, 32);
        rf.set_parity_enabled(true);
        rf.write(3, Word::from_u64(0b1011, 32));
        rf.commit();
        assert_eq!(rf.read(3).as_u64(), 0b1011);
        assert!(rf.take_parity_errors().is_empty(), "clean read, no error");
        rf.seu_flip(3, 1);
        assert_eq!(rf.read(3).as_u64(), 0b1001, "corrupt value still served");
        assert_eq!(rf.take_parity_errors(), vec![3]);
        let _ = rf.read(3);
        assert!(rf.take_parity_errors().is_empty(), "scrubbed: reports once");
    }

    #[test]
    fn parity_misses_staged_flip() {
        // A strike on the write datapath corrupts the value *before* the
        // parity bit is computed, so the stored word is self-consistent:
        // detection requires redundant execution, not parity.
        let mut rf = RegFile::new(8, 32);
        rf.set_parity_enabled(true);
        rf.write(2, Word::from_u64(0xF0, 32));
        assert!(rf.seu_flip_staged(0));
        rf.commit();
        assert_eq!(rf.read(2).as_u64(), 0xF1);
        assert!(rf.take_parity_errors().is_empty());
        assert!(!rf.seu_flip_staged(5), "no staged write to hit");
    }

    #[test]
    fn parity_disabled_is_free() {
        let mut rf = RegFile::new(8, 32);
        rf.write(1, Word::from_u64(7, 32));
        rf.commit();
        rf.seu_flip(1, 0);
        let _ = rf.read(1);
        assert!(rf.take_parity_errors().is_empty());
    }

    #[test]
    fn area_scales_with_size() {
        let small = RegFile::new(8, 32).area();
        let big = RegFile::new(64, 32).area();
        assert!(big.ffs > small.ffs);
        assert_eq!(small.ffs, 8 * 32);
    }
}
