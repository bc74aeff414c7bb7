//! Order statistics over exact samples.

/// A percentile needs this many samples in its class, else it is absent.
pub const MIN_PERCENTILE_SAMPLES: usize = 1_000;

/// Nearest-rank percentile (`p` in 0..=1) of `sorted`; `None` below
/// [`MIN_PERCENTILE_SAMPLES`].
pub fn percentile<T: Copy + PartialOrd + Into<f64>>(sorted: &[T], p: f64) -> Option<f64> {
    if sorted.len() < MIN_PERCENTILE_SAMPLES {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1].into())
}

/// Mean of the slowest 1 % of `sorted` (at least one sample): a tail figure
/// that, unlike a percentile of a deterministic model's few distinct
/// latencies, moves with every sample in the tail.  `None` below
/// [`MIN_PERCENTILE_SAMPLES`].
pub fn tail_mean(sorted: &[u32]) -> Option<f64> {
    if sorted.len() < MIN_PERCENTILE_SAMPLES {
        return None;
    }
    mean(&sorted[sorted.len() - sorted.len().div_ceil(100)..])
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(samples: &[u32]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().map(|&s| s as u64).sum::<u64>() as f64 / samples.len() as f64)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Distance between the first and third quartile as a share of the median —
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the rule
/// the benchmark contract judges steadiness by.  `None` under two values or
/// for a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Position k * (n + 1) / 4, 1-based, linearly interpolated and
        // clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u32> = (1..=1_000).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted, 0.999), Some(999.0));
        assert_eq!(percentile(&sorted, 1.0), Some(1_000.0));
        // 5 440 and 5 441 stay distinct: no bucketing.
        let mut close = vec![5_440u32; 600];
        close.extend(vec![5_441u32; 600]);
        assert_eq!(percentile(&close, 0.5), Some(5_440.0));
        assert_eq!(percentile(&close, 0.51), Some(5_441.0));
    }

    #[test]
    fn a_class_with_under_a_thousand_samples_has_no_percentile() {
        let sorted: Vec<u32> = (1..1_000).collect();
        assert_eq!(sorted.len(), 999);
        assert_eq!(percentile(&sorted, 0.99), None);
        assert_eq!(percentile::<u32>(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2, 4]), Some(3.0));
        assert_eq!(tail_mean(&sorted), None);
        let sorted: Vec<u32> = (1..=2_000).collect();
        assert_eq!(
            tail_mean(&sorted),
            Some((1_981..=2_000).sum::<u32>() as f64 / 20.0)
        );
    }

    #[test]
    fn median_and_quartile_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
