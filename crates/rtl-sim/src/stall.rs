//! Deterministic backpressure fuzzing.
//!
//! The paper's pipeline uses purely local handshakes, so its correctness
//! argument is that *any* pattern of stage stalls preserves the instruction
//! stream. Tests exercise that claim by injecting random stalls at module
//! boundaries with a [`StallFuzzer`]: a small, seeded PRNG (SplitMix64 /
//! xorshift*) so the kernel itself needs no external dependencies and every
//! failure is reproducible from its seed.

/// A seeded Bernoulli stall generator.
#[derive(Debug, Clone)]
pub struct StallFuzzer {
    state: u64,
    /// Probability of stalling in a given cycle, as numerator over 2^16.
    stall_num: u32,
}

impl StallFuzzer {
    /// A fuzzer that stalls with probability `p` (clamped to `[0, 1]`).
    pub fn new(seed: u64, p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        StallFuzzer {
            // SplitMix64 seeding avoids the all-zeros fixed point.
            state: splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15),
            stall_num: (p * 65536.0) as u32,
        }
    }

    /// A fuzzer that never stalls.
    pub fn never() -> Self {
        StallFuzzer::new(0, 0.0)
    }

    /// Draw the next raw 64-bit value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// True when this cycle should stall.
    pub fn stall(&mut self) -> bool {
        if self.stall_num == 0 {
            return false;
        }
        ((self.next_u64() >> 16) & 0xffff) < self.stall_num as u64
    }

    /// A uniformly random value in `[0, bound)` (for workload generators).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Multiply-shift range reduction; bias is negligible for the test
        // workloads this drives.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// splitmix64: a stateless 64-bit mixer, used as a seedable hash and
/// PRNG by every seeded generator in the workspace (this fuzzer, link
/// fault models, SEU strike schedules, farm shard seeds, serving
/// workloads). Keyed by a frame or strike index, it gives the same
/// pattern however the simulation is scheduled.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_stalls() {
        let mut f = StallFuzzer::never();
        assert!((0..1000).all(|_| !f.stall()));
    }

    #[test]
    fn always_always_stalls() {
        let mut f = StallFuzzer::new(42, 1.0);
        assert!((0..1000).all(|_| f.stall()));
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let mut f = StallFuzzer::new(7, 0.25);
        let stalls = (0..100_000).filter(|_| f.stall()).count();
        let rate = stalls as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed stall rate {rate}");
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StallFuzzer::new(123, 0.5);
        let mut b = StallFuzzer::new(123, 0.5);
        for _ in 0..100 {
            assert_eq!(a.stall(), b.stall());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StallFuzzer::new(1, 0.5);
        let mut b = StallFuzzer::new(2, 0.5);
        let same = (0..256).filter(|_| a.stall() == b.stall()).count();
        assert!(
            same < 256,
            "distinct seeds must not produce identical streams"
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut f = StallFuzzer::new(9, 0.0);
        for _ in 0..10_000 {
            assert!(f.below(17) < 17);
        }
        // All residues should occur for a small bound.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[f.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut f = StallFuzzer::new(0, 0.5);
        let v: Vec<u64> = (0..8).map(|_| f.next_u64()).collect();
        assert!(
            v.iter().any(|&x| x != 0),
            "seed 0 must not collapse to zeros"
        );
    }
}
