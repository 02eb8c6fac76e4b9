//! Seeded single-event-upset (SEU) injection for device state.
//!
//! The wire already has a deterministic fault model (`fu_host::Link`);
//! this is its device-state counterpart: a seeded strike schedule that
//! flips bits in the coprocessor's architectural and micro-architectural
//! state — register/flag file cells, in-flight result latches, scoreboard
//! lock bits — so the resilience machinery (parity, redundant execution,
//! checkpoint rollback) can be exercised reproducibly.
//!
//! Determinism contract: the cycle of the i-th strike and its target are
//! pure functions of `(seed, i)`. Strikes are *scheduled* (gap-sampled)
//! rather than Bernoulli-per-cycle, so an event-driven kernel that skips
//! a million quiet cycles pays O(strikes-in-span), not O(cycles), to stay
//! bit-identical with per-cycle stepping.

use rtl_sim::splitmix64;

/// Which class of device state a strike lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeuTarget {
    /// A stored word in the main register file (post-commit memory cell).
    RegFile,
    /// A stored vector in the flag register file.
    FlagFile,
    /// A functional unit's pending result latch, or failing that, a write
    /// staged toward the register file this cycle (datapath state —
    /// invisible to parity, caught only by redundant execution).
    ResultLatch,
    /// A scoreboard lock bit (protected by duplication-with-comparison,
    /// so always detected and repaired in place).
    Scoreboard,
}

impl SeuTarget {
    /// Stable label for trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SeuTarget::RegFile => "regfile",
            SeuTarget::FlagFile => "flagfile",
            SeuTarget::ResultLatch => "latch",
            SeuTarget::Scoreboard => "scoreboard",
        }
    }
}

/// Configuration for the SEU injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeuConfig {
    /// Seed for the strike schedule (strike cycles and targets are pure
    /// functions of this and the strike index).
    pub seed: u64,
    /// Mean cycles between strikes. Gaps are sampled uniformly from
    /// `1..=2*mean - 1`, so the long-run strike rate is `1/mean`.
    pub mean_interval_cycles: u64,
    /// Strike stored register-file words.
    pub regfile: bool,
    /// Strike stored flag-file vectors.
    pub flagfile: bool,
    /// Strike FU result latches / staged register writes.
    pub result_latch: bool,
    /// Strike scoreboard lock bits.
    pub scoreboard: bool,
}

impl SeuConfig {
    /// A config striking every state class at the given mean interval.
    #[must_use]
    pub fn all(seed: u64, mean_interval_cycles: u64) -> SeuConfig {
        SeuConfig {
            seed,
            mean_interval_cycles,
            regfile: true,
            flagfile: true,
            result_latch: true,
            scoreboard: true,
        }
    }

    fn enabled_targets(&self) -> [Option<SeuTarget>; 4] {
        let mut out = [None; 4];
        let mut n = 0;
        for (on, t) in [
            (self.regfile, SeuTarget::RegFile),
            (self.flagfile, SeuTarget::FlagFile),
            (self.result_latch, SeuTarget::ResultLatch),
            (self.scoreboard, SeuTarget::Scoreboard),
        ] {
            if on {
                out[n] = Some(t);
                n += 1;
            }
        }
        out
    }
}

/// One scheduled upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strike {
    /// The state class hit.
    pub target: SeuTarget,
    /// Register / unit selector within the class (reduced modulo the
    /// class size by the applier).
    pub index: u8,
    /// Bit position within the struck word (reduced modulo its width).
    pub bit: u8,
}

/// The strike scheduler. Holds only the next strike's cycle and index;
/// everything else is recomputed, so cloning or *not* cloning it across a
/// checkpoint restore is a policy choice (the coprocessor deliberately
/// keeps it out of snapshots — replaying the same strikes after every
/// rollback would re-poison every replay and never converge).
#[derive(Debug, Clone)]
pub struct SeuModel {
    cfg: SeuConfig,
    /// Cycle of the upcoming strike.
    next_strike: u64,
    /// Index of the upcoming strike (schedule position).
    strike_idx: u64,
}

impl SeuModel {
    pub fn new(cfg: SeuConfig) -> SeuModel {
        assert!(
            cfg.mean_interval_cycles >= 1,
            "mean SEU interval must be at least 1 cycle"
        );
        assert!(
            cfg.regfile || cfg.flagfile || cfg.result_latch || cfg.scoreboard,
            "SEU injection enabled with no target class"
        );
        let mut m = SeuModel {
            cfg,
            next_strike: 0,
            strike_idx: 0,
        };
        m.next_strike = m.gap(0);
        m
    }

    /// The sampled gap before strike `i`: uniform in `1..=2*mean - 1`.
    fn gap(&self, i: u64) -> u64 {
        let h = splitmix64(self.cfg.seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
        1 + h % (2 * self.cfg.mean_interval_cycles - 1).max(1)
    }

    /// Cycle of the next strike not yet taken — the scheduling kernel
    /// must not skip past it without calling [`SeuModel::take`].
    #[must_use]
    pub fn next_strike_cycle(&self) -> u64 {
        self.next_strike
    }

    /// Consume and return the strike due at or before `cycle`, if any.
    /// Call in a loop when a span of cycles is retired at once.
    pub fn take(&mut self, cycle: u64) -> Option<Strike> {
        if cycle < self.next_strike {
            return None;
        }
        let h = splitmix64(
            self.cfg.seed ^ 0x5345_5f55 ^ self.strike_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let targets = self.cfg.enabled_targets();
        let n = targets.iter().flatten().count();
        let target = targets[(h % n as u64) as usize].expect("class count checked");
        let strike = Strike {
            target,
            index: (h >> 8) as u8,
            bit: (h >> 16) as u8,
        };
        self.strike_idx += 1;
        self.next_strike = self.next_strike.saturating_add(self.gap(self.strike_idx));
        Some(strike)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_rate_accurate() {
        let cfg = SeuConfig::all(42, 1000);
        let run = |span: u64| {
            let mut m = SeuModel::new(cfg);
            let mut strikes = Vec::new();
            while m.next_strike_cycle() <= span {
                let c = m.next_strike_cycle();
                strikes.push((c, m.take(c).expect("due")));
            }
            strikes
        };
        let a = run(1_000_000);
        let b = run(1_000_000);
        assert_eq!(a, b, "same seed, same schedule");
        // Mean gap is `mean_interval_cycles`: expect ~1000 strikes ±20%.
        assert!((800..=1200).contains(&a.len()), "got {} strikes", a.len());
    }

    #[test]
    fn span_replay_equals_per_cycle_polling() {
        // Taking strikes cycle-by-cycle and draining them at a span
        // boundary yields the same sequence — the property the
        // event-scheduled kernel relies on.
        let cfg = SeuConfig::all(7, 50);
        let mut per_cycle = SeuModel::new(cfg);
        let mut stepped = Vec::new();
        for c in 0..10_000u64 {
            while let Some(s) = per_cycle.take(c) {
                stepped.push(s);
            }
        }
        let mut spanned = SeuModel::new(cfg);
        let mut skipped = Vec::new();
        for c in (0..=10_000u64).step_by(777) {
            while let Some(s) = spanned.take(c.saturating_sub(1)) {
                skipped.push(s);
            }
        }
        // The spanned run covers 0..=9999 via uneven chunks.
        while let Some(s) = spanned.take(9_999) {
            skipped.push(s);
        }
        assert_eq!(stepped, skipped);
    }

    #[test]
    fn respects_enabled_classes() {
        let cfg = SeuConfig {
            regfile: false,
            flagfile: false,
            result_latch: false,
            scoreboard: true,
            ..SeuConfig::all(3, 10)
        };
        let mut m = SeuModel::new(cfg);
        for _ in 0..100 {
            let c = m.next_strike_cycle();
            let s = m.take(c).expect("due");
            assert_eq!(s.target, SeuTarget::Scoreboard);
        }
    }

    #[test]
    #[should_panic(expected = "no target class")]
    fn rejects_empty_target_set() {
        let _ = SeuModel::new(SeuConfig {
            regfile: false,
            flagfile: false,
            result_latch: false,
            scoreboard: false,
            ..SeuConfig::all(1, 10)
        });
    }
}
