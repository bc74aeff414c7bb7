//! Log-bucketed latency histogram.
//!
//! Latencies in the Sherman evaluation span three orders of magnitude (a few
//! microseconds for uncontended operations, tens of milliseconds for the
//! FG-style lock collapse under skew), so a fixed-width histogram would either
//! be enormous or inaccurate.  We use base-2 major buckets with a fixed number
//! of linear sub-buckets per octave, giving a bounded relative error of
//! `1/SUB_BUCKETS` (≈1.6 %) with a few KiB of memory — the same idea as HDR
//! histograms, implemented here to stay within the allowed dependency set.

/// Number of linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 64;
/// Number of octaves covered (2^48 ns ≈ 78 hours, far beyond any experiment).
const OCTAVES: usize = 48;

/// A log-bucketed histogram of non-negative `u64` samples (nanoseconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0u64; SUB_BUCKETS * OCTAVES],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as usize; // floor(log2(value))
        let shift = octave - (SUB_BUCKETS.trailing_zeros() as usize);
        let sub = (value >> shift) as usize - SUB_BUCKETS;
        let idx = (octave - SUB_BUCKETS.trailing_zeros() as usize + 1) * SUB_BUCKETS + sub;
        idx.min(SUB_BUCKETS * OCTAVES - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = index / SUB_BUCKETS - 1 + SUB_BUCKETS.trailing_zeros() as usize;
        let sub = (index % SUB_BUCKETS) as u64 + SUB_BUCKETS as u64;
        // Representative value: the lower edge of the bucket.
        sub << (octave - SUB_BUCKETS.trailing_zeros() as usize)
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (lower-edge approximation).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).max(self.min()).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        // Latencies from 1 µs to ~20 ms, uniformly spread.
        let samples: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * 2_000).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel < 0.05,
                "quantile {q}: approx {approx} vs exact {exact} (rel err {rel})"
            );
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [1_000_000u64, 2_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 2_000_000);
        assert!(a.p99() >= 1_000_000);
    }

    #[test]
    fn mean_matches_sum() {
        let mut h = LatencyHistogram::new();
        for v in [5u64, 15, 25, 35] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }
}
