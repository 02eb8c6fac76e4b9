//! Conventional-CPU baselines and the clock-rate cost model.
//!
//! Experiments compare the simulated coprocessor against software by
//! cycle/visit counts: simulated FPGA cycles versus the software
//! reference's element visits, converted to time through [`CpuModel`]
//! (the paper's framing: 50 MHz FPGA against a GHz-class CPU). Nothing
//! here is timed on the host; host time is measured by the `perfbench/`
//! harness alone.

use xi_sort::reference::{quicksort, SoftwareXiSort};

/// A simple CPU timing model: visits/instructions per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Display name.
    pub name: &'static str,
    /// Clock rate in GHz.
    pub ghz: f64,
    /// Average machine instructions per element visit (load, compare,
    /// branch, index update).
    pub instrs_per_visit: f64,
    /// Sustained instructions per cycle.
    pub ipc: f64,
}

impl CpuModel {
    /// A 2010-era desktop CPU, the class of host the paper pairs with its
    /// Cyclone board.
    pub fn desktop_2010() -> CpuModel {
        CpuModel {
            name: "desktop-2010",
            ghz: 2.5,
            instrs_per_visit: 6.0,
            ipc: 1.5,
        }
    }

    /// An embedded-class host.
    pub fn embedded() -> CpuModel {
        CpuModel {
            name: "embedded",
            ghz: 0.4,
            instrs_per_visit: 7.0,
            ipc: 0.9,
        }
    }

    /// Time, in microseconds, for `visits` element visits.
    pub fn visits_to_us(&self, visits: u64) -> f64 {
        visits as f64 * self.instrs_per_visit / (self.ipc * self.ghz * 1000.0)
    }
}

/// Result of one software χ-sort run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwXiResult {
    /// Refinement rounds used.
    pub rounds: u32,
    /// Element visits performed.
    pub visits: u64,
}

/// Run the software χ-sort to completion; returns counts and verifies the
/// output against `sort_unstable`.
pub fn software_xi_sort(values: &[u32]) -> SwXiResult {
    let mut s = SoftwareXiSort::new(values);
    let rounds = s.sort();
    let visits = s.visits;
    let sorted = s.into_sorted();
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    SwXiResult { rounds, visits }
}

/// Run the software χ-sort selection; returns `(value, counts)`.
pub fn software_xi_select(values: &[u32], k: u32) -> (u32, SwXiResult) {
    let mut s = SoftwareXiSort::new(values);
    let (v, rounds) = s.select_k(k);
    (
        v,
        SwXiResult {
            rounds,
            visits: s.visits,
        },
    )
}

/// Sort with the plain quicksort baseline; returns comparison count.
pub fn software_quicksort(values: &[u32]) -> u64 {
    let mut v = values.to_vec();
    quicksort(&mut v)
}

/// Software arithmetic baseline: the element-at-a-time loop a CPU runs
/// for a vector add-with-carry chain, instrumented with an operation
/// count. Used by the throughput experiments as the "long sequence of
/// ordinary instructions" the paper contrasts against one FU dispatch.
pub fn software_multiword_add(a: &[u32], b: &[u32]) -> (Vec<u32>, u64) {
    assert_eq!(a.len(), b.len());
    let mut carry = 0u64;
    let mut ops = 0u64;
    let out = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let s = x as u64 + y as u64 + carry;
            carry = s >> 32;
            ops += 3; // add, add-carry, extract
            s as u32
        })
        .collect();
    (out, ops)
}

/// Deterministic pseudo-random workload generator shared by benches and
/// experiments (seeded, so paper-table rows are reproducible).
pub fn workload(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    let mut fz = rtl_sim::StallFuzzer::new(seed, 0.0);
    (0..n)
        .map(|_| fz.below(bound.max(1) as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_times_scale() {
        let cpu = CpuModel::desktop_2010();
        let t1 = cpu.visits_to_us(1000);
        let t2 = cpu.visits_to_us(2000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(cpu.visits_to_us(0) == 0.0);
        assert!(
            CpuModel::embedded().visits_to_us(1000) > t1,
            "slower CPU, more time"
        );
    }

    #[test]
    fn software_xi_runs_and_counts() {
        let values = workload(1, 200, 10_000);
        let r = software_xi_sort(&values);
        assert!(r.rounds >= 1);
        assert!(r.visits as usize > values.len(), "visits dominate n");
        let (v, sel) = software_xi_select(&values, 100);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(v, sorted[100]);
        assert!(sel.visits < r.visits);
    }

    #[test]
    fn multiword_add_matches_u128() {
        let a = [0xffff_ffffu32, 0xffff_ffff, 1];
        let b = [1u32, 0, 0];
        let (sum, ops) = software_multiword_add(&a, &b);
        assert_eq!(sum, vec![0, 0, 2]);
        assert_eq!(ops, 9);
    }

    #[test]
    fn workload_is_deterministic_and_bounded() {
        let w1 = workload(7, 100, 50);
        let w2 = workload(7, 100, 50);
        assert_eq!(w1, w2);
        assert!(w1.iter().all(|&v| v < 50));
        let w3 = workload(8, 100, 50);
        assert_ne!(w1, w3);
    }
}
