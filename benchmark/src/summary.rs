//! Arithmetic on samples: percentiles, window medians and spreads.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The run's own noise, reported beside every metric: `(max − min) /
/// median` of the window values — of the middle three, when there are
/// five. Every metric is the median of its five values, which one odd
/// window (a burst of interference from the host) cannot move; so one
/// odd window does not widen the spread either. Two odd ones do.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 5 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    (kept[kept.len() - 1] - kept[0]) / m
}

/// Medians of up to five consecutive runs of `values`: repetitions
/// (set-ups, kill-and-restart cycles) folded into as many values as a
/// timed run has windows, so their `spread` reads on the same scale.
pub fn fifths(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    values
        .chunks(values.len().div_ceil(5))
        .map(median)
        .collect()
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Latency samples in nanoseconds, with the figures the result reports.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// `(p50, p95)` in microseconds.
    pub fn p50_p95_us(&self) -> (f64, f64) {
        let mut s = self.ns.clone();
        s.sort_unstable();
        (
            percentile(&s, 0.50) as f64 / 1e3,
            percentile(&s, 0.95) as f64 / 1e3,
        )
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_p95_us().0
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 20 samples: p95 is the 19th, leaving exactly one beyond it.
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&s, 0.95), 19);
    }

    #[test]
    fn window_median_and_spread() {
        let w = [100.0, 90.0, 110.0, 105.0, 95.0];
        assert_eq!(median(&w), 100.0);
        // The middle three of five: 95 to 105.
        assert!((spread(&w) - 0.1).abs() < 1e-12);
        // One odd window moves neither the median nor the spread.
        assert!((spread(&[100.0, 90.0, 300.0, 105.0, 95.0]) - 0.1).abs() < 1e-12);
        // Fewer than five values: all of them.
        assert!((spread(&[100.0, 90.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fifths_fold_repetitions_into_at_most_five_medians() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fifths(&v), [1.5, 3.5, 5.5, 7.5, 9.5]);
        // Eleven values: chunks of three, the last one short.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(fifths(&v), [2.0, 5.0, 8.0, 10.5]);
        assert_eq!(fifths(&[4.0, 2.0]), [4.0, 2.0]);
        assert!(fifths(&[]).is_empty());
    }
}
