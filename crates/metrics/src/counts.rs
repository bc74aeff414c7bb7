//! An exact histogram for small counts (round trips, retries) and byte sizes.
//!
//! Figure 14 of the paper reports the distribution of read retries, the CDF of
//! round trips per write operation, and the distribution of written bytes per
//! write operation.  These are exact maps rather than approximations because
//! the domains are tiny.

use std::collections::BTreeMap;

/// Exact histogram over small unsigned integers.
#[derive(Debug, Clone, Default)]
pub struct CountHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl CountHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations equal to `value` (0 when empty).
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&value).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Fraction of observations less than or equal to `value`.
    pub fn cdf(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cum: u64 = self
            .counts
            .range(..=value)
            .map(|(_, c)| *c)
            .sum();
        cum as f64 / self.total as f64
    }

    /// Fraction of observations greater than or equal to `value` (0 when
    /// empty).
    pub fn fraction_at_least(&self, value: u64) -> f64 {
        match (self.total, value) {
            (0, _) => 0.0,
            (_, 0) => 1.0,
            (_, v) => 1.0 - self.cdf(v - 1),
        }
    }

    /// Smallest value whose CDF reaches `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= target {
                return v;
            }
        }
        *self.counts.keys().next_back().unwrap_or(&0)
    }

    /// Iterate over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &CountHistogram) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u128 = self.counts.iter().map(|(&v, &c)| v as u128 * c as u128).sum();
        sum as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_histogram_fraction_and_cdf() {
        let mut h = CountHistogram::new();
        for v in [3u64, 3, 3, 4, 2] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert!((h.fraction(3) - 0.6).abs() < 1e-9);
        assert!((h.cdf(3) - 0.8).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 4);
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn count_histogram_merge() {
        let mut a = CountHistogram::new();
        a.record(1);
        let mut b = CountHistogram::new();
        b.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!((a.fraction(1) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.quantile(1.0), 9);
    }

    #[test]
    fn size_histogram_reports_write_amplification_shape() {
        // Mimics Figure 14(c): most writes are entry-sized, a few are node-sized.
        let mut h = CountHistogram::new();
        for _ in 0..996 {
            h.record(18);
        }
        for _ in 0..4 {
            h.record(1024);
        }
        assert_eq!(h.total(), 1000);
        assert!(h.cdf(64) > 0.99);
        assert!((h.fraction_at_least(1024) - 0.004).abs() < 1e-9);
        assert!((h.fraction_at_least(19) - 0.004).abs() < 1e-9);
        assert_eq!(h.fraction_at_least(0), 1.0);
        assert!((h.mean() - (996.0 * 18.0 + 4.0 * 1024.0) / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histograms_are_safe() {
        let h = CountHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.cdf(10), 0.0);
        assert_eq!(h.fraction_at_least(0), 0.0);
        assert_eq!(h.fraction_at_least(1), 0.0);
    }
}
