//! Register-file data words.
//!
//! "The main register file holds data, and its word size is configurable in
//! multiples of 32 bits." [`Word`] models such a value: 1–4 limbs of 32
//! bits (covering the 32/64/96/128-bit configurations the thesis's generics
//! allow without heap allocation). All arithmetic is performed exactly as
//! the hardware adder of the arithmetic unit would: limb-serial with a
//! rippled carry, producing carry-out and signed-overflow indications.

use std::fmt;

/// Maximum number of 32-bit limbs a register word may have.
pub const MAX_LIMBS: usize = 4;

/// A fixed-width data word of 1..=4 × 32 bits.
///
/// Limbs are little-endian (`limbs[0]` is bits 31..0). Two words may only
/// be combined when their widths agree — mixing widths is a wiring error
/// in hardware, and the operations assert accordingly.
///
/// ```
/// use fu_isa::Word;
///
/// // A 64-bit register value on a 64-bit framework configuration.
/// let a = Word::from_u64(0xffff_ffff_ffff_fffe, 64);
/// let b = Word::from_u64(3, 64);
/// let (sum, carry_out, _overflow) = a.adc(&b, false);
/// assert_eq!(sum.as_u64(), 1);
/// assert!(carry_out);
///
/// // Subtraction is addition of the complement with carry-in — the
/// // identity the SUB variety bit-pattern encodes.
/// let (diff, no_borrow, _) = a.adc(&b.not(), true);
/// assert_eq!(diff.as_u64(), 0xffff_ffff_ffff_fffb);
/// assert!(no_borrow);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word {
    limbs: [u32; MAX_LIMBS],
    n_limbs: u8,
}

impl Word {
    /// A zero word of `bits` width.
    ///
    /// # Panics
    /// Panics unless `bits` is a multiple of 32 in `32..=128` — the same
    /// constraint the VHDL generic imposes.
    pub fn zero(bits: u32) -> Word {
        assert!(
            bits.is_multiple_of(32) && (32..=128).contains(&bits),
            "word size must be a multiple of 32 in 32..=128, got {bits}"
        );
        Word {
            limbs: [0; MAX_LIMBS],
            n_limbs: (bits / 32) as u8,
        }
    }

    /// A word of `bits` width holding the low bits of `v` (truncating).
    pub fn from_u64(v: u64, bits: u32) -> Word {
        let mut w = Word::zero(bits);
        w.limbs[0] = v as u32;
        if w.n_limbs > 1 {
            w.limbs[1] = (v >> 32) as u32;
        }
        w
    }

    /// A word of `bits` width holding the low bits of `v` (truncating).
    pub fn from_u128(v: u128, bits: u32) -> Word {
        let mut w = Word::zero(bits);
        for i in 0..w.n_limbs as usize {
            w.limbs[i] = (v >> (32 * i)) as u32;
        }
        w
    }

    /// A word built from explicit little-endian limbs.
    pub fn from_limbs(limbs: &[u32]) -> Word {
        assert!(
            (1..=MAX_LIMBS).contains(&limbs.len()),
            "1..=4 limbs required"
        );
        let mut w = Word::zero(32 * limbs.len() as u32);
        w.limbs[..limbs.len()].copy_from_slice(limbs);
        w
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        self.n_limbs as u32 * 32
    }

    /// Number of 32-bit limbs.
    pub fn n_limbs(&self) -> usize {
        self.n_limbs as usize
    }

    /// The little-endian limbs.
    pub fn limbs(&self) -> &[u32] {
        &self.limbs[..self.n_limbs as usize]
    }

    /// Value as `u64` (truncates words wider than 64 bits).
    pub fn as_u64(&self) -> u64 {
        let lo = self.limbs[0] as u64;
        if self.n_limbs > 1 {
            lo | ((self.limbs[1] as u64) << 32)
        } else {
            lo
        }
    }

    /// Value as `u128` (exact for every supported width).
    pub fn as_u128(&self) -> u128 {
        let mut v = 0u128;
        for i in (0..self.n_limbs as usize).rev() {
            v = (v << 32) | self.limbs[i] as u128;
        }
        v
    }

    /// True when every bit is zero (drives the Z flag).
    pub fn is_zero(&self) -> bool {
        self.limbs().iter().all(|&l| l == 0)
    }

    /// The most significant bit (drives the N flag).
    pub fn msb(&self) -> bool {
        self.limbs[self.n_limbs as usize - 1] & 0x8000_0000 != 0
    }

    /// The word's value as one `u128`, read branch-free from all four
    /// limbs — valid for every width because the construction invariant
    /// keeps limbs beyond `n_limbs` zero.
    #[inline]
    fn as_u128_full(&self) -> u128 {
        (self.limbs[0] as u128)
            | ((self.limbs[1] as u128) << 32)
            | ((self.limbs[2] as u128) << 64)
            | ((self.limbs[3] as u128) << 96)
    }

    /// Full-adder over the word: `self + other + carry_in`.
    ///
    /// Returns `(sum, carry_out, signed_overflow)` exactly as the
    /// arithmetic unit's adder produces them. This single primitive,
    /// combined with the variety bits (zeroing / complementing inputs,
    /// carry selection), yields the whole Table 3.1 instruction family.
    ///
    /// The hot path of every arithmetic workload: one `u128` carry chain
    /// instead of a limb-serial ripple. `adc_ripple` (built only under
    /// `cfg(test)`) keeps the hardware-shaped loop as the test oracle.
    pub fn adc(&self, other: &Word, carry_in: bool) -> (Word, bool, bool) {
        assert_eq!(self.n_limbs, other.n_limbs, "word width mismatch");
        let bits = self.bits();
        let (partial, c1) = self.as_u128_full().overflowing_add(other.as_u128_full());
        let (wide, c2) = partial.overflowing_add(carry_in as u128);
        let (sum, carry) = if bits == 128 {
            (wide, c1 | c2)
        } else {
            (wide & ((1u128 << bits) - 1), wide >> bits != 0)
        };
        // Masked high bits keep the zero-limb invariant for narrow widths.
        let out = Word {
            limbs: [
                sum as u32,
                (sum >> 32) as u32,
                (sum >> 64) as u32,
                (sum >> 96) as u32,
            ],
            n_limbs: self.n_limbs,
        };
        let overflow = {
            // Signed overflow: operands share a sign that differs from the
            // result's sign.
            let a = self.msb();
            let b = other.msb();
            let r = out.msb();
            a == b && a != r
        };
        (out, carry, overflow)
    }

    /// The original limb-serial adder, shaped like the VHDL ripple chain.
    /// Kept as the differential oracle for [`Word::adc`].
    #[cfg(test)]
    fn adc_ripple(&self, other: &Word, carry_in: bool) -> (Word, bool, bool) {
        assert_eq!(self.n_limbs, other.n_limbs, "word width mismatch");
        let mut out = Word::zero(self.bits());
        let mut carry = carry_in as u64;
        for i in 0..self.n_limbs as usize {
            let s = self.limbs[i] as u64 + other.limbs[i] as u64 + carry;
            out.limbs[i] = s as u32;
            carry = s >> 32;
        }
        let overflow = {
            let a = self.msb();
            let b = other.msb();
            let r = out.msb();
            a == b && a != r
        };
        (out, carry != 0, overflow)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Word {
        let mut out = *self;
        for i in 0..self.n_limbs as usize {
            out.limbs[i] = !self.limbs[i];
        }
        out
    }

    /// Limb-wise binary operation (AND/OR/XOR and friends).
    pub fn zip(&self, other: &Word, f: impl Fn(u32, u32) -> u32) -> Word {
        assert_eq!(self.n_limbs, other.n_limbs, "word width mismatch");
        let mut out = Word::zero(self.bits());
        for i in 0..self.n_limbs as usize {
            out.limbs[i] = f(self.limbs[i], other.limbs[i]);
        }
        out
    }

    /// Logical shift left by `sh` bits (`sh >= width` yields zero).
    pub fn shl(&self, sh: u32) -> Word {
        let mut out = Word::zero(self.bits());
        if sh >= self.bits() {
            return out;
        }
        let v = self.as_u128() << sh;
        for i in 0..self.n_limbs as usize {
            out.limbs[i] = (v >> (32 * i)) as u32;
        }
        out
    }

    /// Logical shift right by `sh` bits.
    pub fn shr(&self, sh: u32) -> Word {
        if sh >= self.bits() {
            return Word::zero(self.bits());
        }
        Word::from_u128(self.as_u128() >> sh, self.bits())
    }

    /// Arithmetic shift right by `sh` bits (sign-extending).
    pub fn sar(&self, sh: u32) -> Word {
        let bits = self.bits();
        if sh == 0 {
            return *self;
        }
        let fill = if self.msb() { u128::MAX } else { 0 };
        if sh >= bits {
            return Word::from_u128(fill, bits);
        }
        let mask = if bits == 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        };
        let shifted = (self.as_u128() >> sh) | (fill << (bits - sh));
        Word::from_u128(shifted & mask, bits)
    }

    /// Rotate left by `sh` bits.
    pub fn rol(&self, sh: u32) -> Word {
        let bits = self.bits();
        let sh = sh % bits;
        if sh == 0 {
            return *self;
        }
        let mask = if bits == 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        };
        let v = self.as_u128();
        Word::from_u128(((v << sh) | (v >> (bits - sh))) & mask, bits)
    }

    /// Number of set bits (the popcount functional unit).
    pub fn popcount(&self) -> u32 {
        self.limbs().iter().map(|l| l.count_ones()).sum()
    }

    /// Unsigned comparison.
    pub fn cmp_unsigned(&self, other: &Word) -> std::cmp::Ordering {
        assert_eq!(self.n_limbs, other.n_limbs, "word width mismatch");
        for i in (0..self.n_limbs as usize).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Reinterpret at a different width: truncates or zero-extends.
    /// This is the transcoding the χ-sort functional-unit adapter performs
    /// ("the adapter uses 32-bit data records and transcodes as needed").
    pub fn resize(&self, bits: u32) -> Word {
        let mut out = Word::zero(bits);
        let n = out.n_limbs.min(self.n_limbs) as usize;
        out.limbs[..n].copy_from_slice(&self.limbs[..n]);
        out
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word{}#", self.bits())?;
        for i in (0..self.n_limbs as usize).rev() {
            write!(f, "{:08x}", self.limbs[i])?;
            if i > 0 {
                write!(f, "_")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.as_u128())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_views() {
        let w = Word::from_u64(0xdead_beef_cafe_f00d, 64);
        assert_eq!(w.bits(), 64);
        assert_eq!(w.as_u64(), 0xdead_beef_cafe_f00d);
        assert_eq!(w.limbs(), &[0xcafe_f00d, 0xdead_beef]);
        assert_eq!(format!("{w:?}"), "Word64#deadbeef_cafef00d");
        assert_eq!(w.to_string(), "0xdeadbeefcafef00d");
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn odd_width_rejected() {
        Word::zero(40);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn oversize_width_rejected() {
        Word::zero(160);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_rejected() {
        let a = Word::zero(32);
        let b = Word::zero(64);
        let _ = a.adc(&b, false);
    }

    #[test]
    fn adc_32_matches_native() {
        let a = Word::from_u64(0xffff_ffff, 32);
        let b = Word::from_u64(1, 32);
        let (s, c, v) = a.adc(&b, false);
        assert_eq!(s.as_u64(), 0);
        assert!(c, "carry out of the top limb");
        assert!(!v, "0xffffffff + 1 does not overflow signed (-1 + 1 = 0)");
    }

    #[test]
    fn adc_signed_overflow() {
        let a = Word::from_u64(0x7fff_ffff, 32);
        let b = Word::from_u64(1, 32);
        let (s, c, v) = a.adc(&b, false);
        assert_eq!(s.as_u64(), 0x8000_0000);
        assert!(!c);
        assert!(v, "INT_MAX + 1 overflows");
    }

    #[test]
    fn adc_ripples_across_limbs() {
        let a = Word::from_u128(0x0000_0001_ffff_ffff_ffff_ffff, 96);
        let b = Word::from_u128(1, 96);
        let (s, c, _) = a.adc(&b, false);
        assert_eq!(s.as_u128(), 0x0000_0002_0000_0000_0000_0000);
        assert!(!c);
    }

    #[test]
    fn subtraction_via_complement_identity() {
        // a - b == a + !b + 1, the identity the SUB variety uses.
        let a = Word::from_u64(1000, 32);
        let b = Word::from_u64(337, 32);
        let (d, c, _) = a.adc(&b.not(), true);
        assert_eq!(d.as_u64(), 663);
        assert!(c, "no borrow => carry out set");
        let (d2, c2, _) = b.adc(&a.not(), true);
        assert_eq!(d2.as_u64(), (337u64.wrapping_sub(1000)) as u32 as u64);
        assert!(!c2, "borrow => carry out clear");
    }

    #[test]
    fn flags_sources() {
        assert!(Word::zero(64).is_zero());
        assert!(!Word::from_u64(1, 64).is_zero());
        assert!(Word::from_u64(0x8000_0000, 32).msb());
        assert!(
            !Word::from_u64(0x8000_0000, 64).msb(),
            "msb is of the full width"
        );
    }

    #[test]
    fn shifts_and_rotates() {
        let w = Word::from_u64(0x8000_0001, 32);
        assert_eq!(w.shl(1).as_u64(), 2);
        assert_eq!(w.shr(1).as_u64(), 0x4000_0000);
        assert_eq!(w.sar(1).as_u64(), 0xc000_0000);
        assert_eq!(w.rol(1).as_u64(), 3);
        assert_eq!(w.rol(32).as_u64(), w.as_u64(), "full rotate is identity");
        assert_eq!(w.shl(32).as_u64(), 0);
        assert_eq!(w.shl(99).as_u64(), 0);
        assert_eq!(w.sar(40).as_u64(), 0xffff_ffff);
    }

    #[test]
    fn sar_128_bit_edges() {
        let w = Word::from_u128(1u128 << 127, 128);
        assert_eq!(w.sar(127).as_u128(), u128::MAX);
        let p = Word::from_u128(1u128 << 100, 128);
        assert_eq!(p.sar(100).as_u128(), 1);
    }

    #[test]
    fn popcount_counts_all_limbs() {
        let w = Word::from_limbs(&[0xff, 0xff, 0, 0x1]);
        assert_eq!(w.popcount(), 17);
    }

    #[test]
    fn resize_truncates_and_extends() {
        let w = Word::from_u64(0xdead_beef_1234_5678, 64);
        assert_eq!(w.resize(32).as_u64(), 0x1234_5678);
        assert_eq!(w.resize(128).as_u128(), 0xdead_beef_1234_5678);
    }

    #[test]
    fn unsigned_comparison() {
        use std::cmp::Ordering::*;
        let a = Word::from_u128(0x1_0000_0000, 96);
        let b = Word::from_u128(0xffff_ffff, 96);
        assert_eq!(a.cmp_unsigned(&b), Greater);
        assert_eq!(b.cmp_unsigned(&a), Less);
        assert_eq!(a.cmp_unsigned(&a), Equal);
    }

    proptest! {
        #[test]
        fn prop_adc_matches_ripple_oracle_at_every_width(
            a: u128,
            b: u128,
            cin: bool,
            w in 1u32..=4,
        ) {
            // The u128 fast path must be indistinguishable from the
            // hardware-shaped ripple loop on (sum, carry, overflow) for
            // all four register-file widths.
            let bits = w * 32;
            let wa = Word::from_u128(a, bits);
            let wb = Word::from_u128(b, bits);
            prop_assert_eq!(wa.adc(&wb, cin), wa.adc_ripple(&wb, cin));
        }

        #[test]
        fn prop_adc_matches_u64_arithmetic(a: u64, b: u64, cin: bool) {
            let wa = Word::from_u64(a, 64);
            let wb = Word::from_u64(b, 64);
            let (s, c, _) = wa.adc(&wb, cin);
            let (expect, c1) = a.overflowing_add(b);
            let (expect, c2) = expect.overflowing_add(cin as u64);
            prop_assert_eq!(s.as_u64(), expect);
            prop_assert_eq!(c, c1 | c2);
        }

        #[test]
        fn prop_adc_matches_u128_at_128_bits(a: u128, b: u128) {
            let wa = Word::from_u128(a, 128);
            let wb = Word::from_u128(b, 128);
            let (s, c, _) = wa.adc(&wb, false);
            let (expect, carry) = a.overflowing_add(b);
            prop_assert_eq!(s.as_u128(), expect);
            prop_assert_eq!(c, carry);
        }

        #[test]
        fn prop_signed_overflow_matches_i64(a: i64, b: i64) {
            let wa = Word::from_u64(a as u64, 64);
            let wb = Word::from_u64(b as u64, 64);
            let (_, _, v) = wa.adc(&wb, false);
            prop_assert_eq!(v, a.checked_add(b).is_none());
        }

        #[test]
        fn prop_sub_identity(a: u64, b: u64) {
            // a + !b + 1 == a - b (mod 2^64), carry == no-borrow.
            let wa = Word::from_u64(a, 64);
            let wb = Word::from_u64(b, 64);
            let (d, c, _) = wa.adc(&wb.not(), true);
            prop_assert_eq!(d.as_u64(), a.wrapping_sub(b));
            prop_assert_eq!(c, a >= b);
        }

        #[test]
        fn prop_cmp_matches_u128(a: u128, b: u128) {
            let wa = Word::from_u128(a, 128);
            let wb = Word::from_u128(b, 128);
            prop_assert_eq!(wa.cmp_unsigned(&wb), a.cmp(&b));
        }

        #[test]
        fn prop_shift_roundtrip(v: u32, sh in 0u32..32) {
            let w = Word::from_u64(v as u64, 32);
            prop_assert_eq!(w.shl(sh).shr(sh).as_u64(), ((v << sh) >> sh) as u64);
        }

        #[test]
        fn prop_rol_preserves_popcount(v: u64, sh in 0u32..64) {
            let w = Word::from_u64(v, 64);
            prop_assert_eq!(w.rol(sh).popcount(), w.popcount());
        }

        #[test]
        fn prop_not_is_involution(v: u128) {
            let w = Word::from_u128(v, 128);
            prop_assert_eq!(w.not().not(), w);
        }

        #[test]
        fn prop_zip_xor_self_is_zero(v: u128) {
            let w = Word::from_u128(v, 96);
            prop_assert!(w.zip(&w, |a, b| a ^ b).is_zero());
        }
    }
}
