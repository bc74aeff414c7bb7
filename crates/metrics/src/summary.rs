//! Aggregation of per-thread measurements into paper-style result rows.

use crate::latency::LatencyHistogram;

/// Measurements collected by one client thread during a run.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Operations completed by this thread.
    pub ops: u64,
    /// Latency histogram of those operations (virtual nanoseconds).
    pub latency: LatencyHistogram,
}

/// Combines [`ThreadReport`]s from all client threads of a run.
#[derive(Debug, Default)]
pub struct ThroughputAggregator {
    ops: u64,
    latency: LatencyHistogram,
    threads: usize,
}

impl ThroughputAggregator {
    /// Create an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one thread's report.
    pub fn add(&mut self, report: &ThreadReport) {
        self.ops += report.ops;
        self.latency.merge(&report.latency);
        self.threads += 1;
    }

    /// Finalize into a [`RunSummary`], given the virtual duration of the run.
    pub fn finish(self, elapsed_ns: u64) -> RunSummary {
        let secs = elapsed_ns as f64 / 1e9;
        let throughput = if secs > 0.0 { self.ops as f64 / secs } else { 0.0 };
        RunSummary {
            threads: self.threads,
            ops: self.ops,
            elapsed_ns,
            throughput_ops: throughput,
            p50_ns: self.latency.p50(),
            p90_ns: self.latency.p90(),
            p99_ns: self.latency.p99(),
            mean_ns: self.latency.mean(),
        }
    }
}

/// One result row: the numbers the paper reports per configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Number of client threads.
    pub threads: usize,
    /// Total completed operations.
    pub ops: u64,
    /// Virtual duration of the measured window in nanoseconds.
    pub elapsed_ns: u64,
    /// Operations per (virtual) second.
    pub throughput_ops: f64,
    /// Median latency in virtual nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency in virtual nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency in virtual nanoseconds.
    pub p99_ns: u64,
    /// Mean latency in virtual nanoseconds.
    pub mean_ns: f64,
}

impl RunSummary {
    /// Throughput in million operations per second, as the paper reports it.
    pub fn mops(&self) -> f64 {
        self.throughput_ops / 1e6
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: u64, base_latency: u64) -> ThreadReport {
        let mut latency = LatencyHistogram::new();
        for i in 0..ops {
            latency.record(base_latency + i % 7);
        }
        ThreadReport { ops, latency }
    }

    #[test]
    fn aggregates_threads_and_computes_mops() {
        let mut agg = ThroughputAggregator::new();
        agg.add(&report(1_000, 5_000));
        agg.add(&report(2_000, 10_000));
        // 3000 ops over 1 virtual millisecond = 3 Mops.
        let s = agg.finish(1_000_000);
        assert_eq!(s.threads, 2);
        assert_eq!(s.ops, 3_000);
        assert!((s.mops() - 3.0).abs() < 1e-9);
        assert!(s.p50_ns >= 5_000);
        assert!(s.p99_ns >= 9_000);
        assert!(s.p50_us() > 4.0);
    }

    #[test]
    fn zero_duration_gives_zero_throughput() {
        let mut agg = ThroughputAggregator::new();
        agg.add(&report(10, 100));
        let s = agg.finish(0);
        assert_eq!(s.throughput_ops, 0.0);
    }
}
