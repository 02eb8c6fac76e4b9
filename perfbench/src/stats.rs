//! Order statistics over measured samples.
//!
//! Every percentile carries the number of samples it was taken from, so
//! no tail figure is ever printed without saying how many observations
//! lie beyond it.

/// A percentile of a sample set, with the set's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    /// The percentile value (nearest-rank; 0 for an empty set).
    pub value: u64,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Pct {
    /// Samples strictly above the percentile's rank: how many
    /// observations the tail figure rests on.
    #[must_use]
    pub fn beyond(&self, q: f64) -> usize {
        self.samples - rank(self.samples, q).min(self.samples)
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples (0 when `n == 0`).
fn rank(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`. Sorts a copy,
/// so callers may pass samples in any order.
#[must_use]
pub fn percentile(values: &[u64], q: f64) -> Pct {
    let mut v = values.to_vec();
    v.sort_unstable();
    let r = rank(v.len(), q);
    Pct {
        value: if r == 0 { 0 } else { v[r - 1] },
        samples: v.len(),
    }
}

/// Median of host-time samples (mean of the middle pair for even counts,
/// which keeps all digits of the measurement).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Relative spread of host-time samples: (max − min) ÷ median.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let v: Vec<u64> = (1..=200).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!(p99.samples, 200);
        assert_eq!(p99.value, 198);
        assert_eq!(p99.beyond(0.99), 2);
        let p50 = percentile(&v, 0.50);
        assert_eq!((p50.value, p50.samples), (100, 200));
        let empty = percentile(&[], 0.99);
        assert_eq!((empty.value, empty.samples), (0, 0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5, 1, 4, 2, 3];
        assert_eq!(percentile(&a, 0.5).value, 3);
        assert_eq!(percentile(&a, 1.0).value, 5);
        assert_eq!(percentile(&a, 0.0).value, 1);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
