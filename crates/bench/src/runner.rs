//! End-to-end tree experiments: bulkload, multi-threaded workload drive,
//! aggregation — plus the **pipelined** experiments that sweep the
//! split-phase scheduler's in-flight depth over read-only and mixed
//! read/write workloads.

use sherman::{
    Cluster, ClusterConfig, OpStats, PipelineOp, PipelinedResult, TreeConfig, TreeOptions,
};
use sherman_metrics::{
    CountHistogram, LatencyHistogram, OverlapGauges, RunSummary, SizeHistogram, ThreadReport,
    ThroughputAggregator,
};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::FabricConfig;
use sherman_workload::{KeyDistribution, Mix, Op, WorkloadSpec};
use std::sync::Arc;
use std::thread;

/// A fully-specified tree experiment.
#[derive(Debug, Clone)]
pub struct TreeExperiment {
    /// Human-readable label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads (spread round-robin over compute servers).
    pub threads: usize,
    /// Key-space size.
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Operations issued by each client thread during the measured phase.
    pub ops_per_thread: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Key popularity.
    pub distribution: KeyDistribution,
    /// Entries returned per range query.
    pub range_size: u64,
    /// Technique selection (the ablation axis).
    pub options: TreeOptions,
    /// Operations each thread keeps in flight: `1` drives the blocking entry
    /// points, anything deeper `TreeClient::run_pipelined` at that depth.
    pub depth: usize,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl TreeExperiment {
    /// A write-intensive, skewed experiment at the harness's default scale.
    pub fn default_scaled(name: impl Into<String>, options: TreeOptions) -> Self {
        TreeExperiment {
            name: name.into(),
            memory_servers: 4,
            compute_servers: 2,
            threads: 8,
            key_space: 1 << 18,
            bulkload_fraction: 0.8,
            ops_per_thread: 400,
            mix: Mix::WRITE_INTENSIVE,
            distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
            range_size: 100,
            options,
            depth: 1,
            tree: TreeConfig::default(),
            seed: 0x5EED,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(4);
        self.key_space = self.key_space.min(1 << 15);
        self.ops_per_thread = self.ops_per_thread.min(100);
        // Large scans dominate smoke runs of the range benches; cap them too.
        self.range_size = self.range_size.min(100);
        self
    }

    /// The workload specification this experiment drives.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            mix: self.mix,
            distribution: self.distribution,
            range_size: self.range_size,
            seed: self.seed,
            update_fraction: 2.0 / 3.0,
        }
    }
}

/// Which execution path `run_tree_experiment`'s measured phase used — the
/// result reports it so a depth that silently degraded to blocking (the old
/// behaviour for any workload containing writes) can no longer hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrivePath {
    /// One blocking operation at a time (pipeline depth 1).
    Blocking,
    /// The split-phase scheduler with the given in-flight depth.
    Pipelined(usize),
}

impl std::fmt::Display for DrivePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrivePath::Blocking => write!(f, "blocking"),
            DrivePath::Pipelined(d) => write!(f, "pipelined(depth={d})"),
        }
    }
}

/// What one tree experiment produced.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Experiment label.
    pub name: String,
    /// How the measured phase drove the workload (blocking loop or the
    /// pipelined scheduler) — writes pipeline like reads, so
    /// `TreeExperiment::depth > 1` always selects the scheduler.
    pub drive: DrivePath,
    /// Throughput / latency summary.
    pub summary: RunSummary,
    /// Round trips per *write* operation (Figure 14(b)).
    pub write_round_trips: CountHistogram,
    /// Consistency-check retries per *read* operation (Figure 14(a)).
    pub read_retries: CountHistogram,
    /// Bytes written per *write* operation (Figure 14(c)).
    pub write_sizes: SizeHistogram,
    /// Fraction of operations whose leaf address came from the index cache.
    pub cache_hit_ratio: f64,
    /// Fraction of write operations whose lock was obtained via handover.
    pub handover_fraction: f64,
    /// Fabric-wide verb counters accumulated during the measured phase.
    pub fabric: MetricsSnapshot,
}

#[derive(Default)]
struct ThreadOutcome {
    ops: u64,
    latency: LatencyHistogram,
    write_round_trips: CountHistogram,
    read_retries: CountHistogram,
    write_sizes: SizeHistogram,
    cache_hits: u64,
    cache_lookups: u64,
    handovers: u64,
    writes: u64,
}

impl ThreadOutcome {
    fn record(&mut self, op: &Op, stats: &OpStats) {
        self.ops += 1;
        self.latency.record(stats.latency_ns);
        self.cache_lookups += 1;
        if stats.cache_hit {
            self.cache_hits += 1;
        }
        if op.is_write() {
            self.writes += 1;
            self.write_round_trips.record(stats.round_trips);
            self.write_sizes.record(stats.bytes_written);
            if stats.handed_over {
                self.handovers += 1;
            }
        } else {
            self.read_retries.record(stats.read_retries);
        }
    }

    /// Fold one scheduler result in — the pipelined twin of [`Self::record`],
    /// fed from the op-id-tagged per-operation counters instead of a
    /// blocking stats delta.
    fn record_pipelined(&mut self, r: &PipelinedResult) {
        self.ops += 1;
        self.latency.record(r.latency_ns);
        self.cache_lookups += 1;
        if r.cache_hit {
            self.cache_hits += 1;
        }
        match r.op {
            PipelineOp::Insert { .. } | PipelineOp::Delete { .. } => {
                self.writes += 1;
                self.write_round_trips.record(r.round_trips);
                self.write_sizes.record(r.bytes_written);
                if r.handed_over {
                    self.handovers += 1;
                }
            }
            PipelineOp::Lookup { .. } | PipelineOp::Range { .. } => {
                self.read_retries.record(r.read_retries);
            }
        }
    }
}

/// Map a workload operation onto its pipelined-scheduler form.
pub(crate) fn to_pipeline_op(op: Op) -> PipelineOp {
    match op {
        Op::Lookup { key } => PipelineOp::Lookup { key },
        Op::Insert { key, value } => PipelineOp::Insert { key, value },
        Op::Delete { key } => PipelineOp::Delete { key },
        Op::Range { start_key, count } => PipelineOp::Range {
            start_key,
            count: count as usize,
        },
    }
}

/// Run one tree experiment to completion and aggregate the results.
pub fn run_tree_experiment(exp: &TreeExperiment) -> ExperimentResult {
    let spec = exp.workload();
    spec.validate().expect("invalid workload");

    let cluster_config = ClusterConfig {
        fabric: FabricConfig {
            memory_servers: exp.memory_servers,
            compute_servers: exp.compute_servers,
            ..FabricConfig::default()
        },
        tree: exp.tree.clone(),
    };
    let cluster = Cluster::new(cluster_config, exp.options);
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");

    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();

    // Workers must all register with the virtual clock before the measured
    // phase begins, so that their operations genuinely overlap.
    let barrier = Arc::new(std::sync::Barrier::new(exp.threads));
    let mut handles = Vec::new();
    for t in 0..exp.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        let cs = (t % exp.compute_servers) as u16;
        let ops_per_thread = exp.ops_per_thread;
        let depth = exp.depth;
        handles.push(thread::spawn(move || {
            let mut client = cluster.client(cs);
            barrier.wait();
            let mut gen = spec.generator(t as u64);
            let mut outcome = ThreadOutcome::default();
            if depth > 1 {
                // Mixed read/write workloads go through the split-phase
                // scheduler like everything else — no silent fallback to the
                // blocking loop just because the mix contains writes.
                let ops: Vec<PipelineOp> = (0..ops_per_thread)
                    .map(|_| to_pipeline_op(gen.next_op()))
                    .collect();
                let report = client.run_pipelined(ops, depth).expect("pipelined run");
                for r in &report.results {
                    outcome.record_pipelined(r);
                }
            } else {
                for _ in 0..ops_per_thread {
                    let op = gen.next_op();
                    let stats = match op {
                        Op::Lookup { key } => client.lookup(key).map(|(_, s)| s),
                        Op::Insert { key, value } => client.insert(key, value),
                        Op::Delete { key } => client.delete(key).map(|(_, s)| s),
                        Op::Range { start_key, count } => {
                            client.range(start_key, count as usize).map(|(_, s)| s)
                        }
                    };
                    match stats {
                        Ok(stats) => outcome.record(&op, &stats),
                        Err(e) => panic!("operation failed: {e}"),
                    }
                }
            }
            outcome
        }));
    }

    let outcomes: Vec<ThreadOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let fabric = cluster
        .fabric()
        .metrics()
        .snapshot()
        .delta_since(&baseline_metrics);

    let mut agg = ThroughputAggregator::new();
    let mut write_round_trips = CountHistogram::new();
    let mut read_retries = CountHistogram::new();
    let mut write_sizes = SizeHistogram::new();
    let mut cache_hits = 0u64;
    let mut cache_lookups = 0u64;
    let mut handovers = 0u64;
    let mut writes = 0u64;
    for o in &outcomes {
        agg.add(&ThreadReport {
            ops: o.ops,
            latency: o.latency.clone(),
        });
        write_round_trips.merge(&o.write_round_trips);
        read_retries.merge(&o.read_retries);
        write_sizes.merge(&o.write_sizes);
        cache_hits += o.cache_hits;
        cache_lookups += o.cache_lookups;
        handovers += o.handovers;
        writes += o.writes;
    }

    ExperimentResult {
        name: exp.name.clone(),
        drive: if exp.depth > 1 {
            DrivePath::Pipelined(exp.depth)
        } else {
            DrivePath::Blocking
        },
        summary: agg.finish(elapsed),
        write_round_trips,
        read_retries,
        write_sizes,
        cache_hit_ratio: if cache_lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / cache_lookups as f64
        },
        handover_fraction: if writes == 0 {
            0.0
        } else {
            handovers as f64 / writes as f64
        },
        fabric,
    }
}

// ----------------------------------------------------------------------
// Pipelined experiments
// ----------------------------------------------------------------------

/// An experiment driven through the pipelined scheduler: every thread
/// multiplexes `depth` logical operations (uniform lookups, scans, and —
/// when `insert_pct > 0` — inserts) over one fabric context.
///
/// `depth == 0` selects the **blocking reference** implementation (the plain
/// `TreeClient::lookup`/`range`/`insert` loop) so the depth-1 scheduler can
/// be validated against it; `depth >= 1` runs `TreeClient::run_pipelined` at
/// that depth.
#[derive(Debug, Clone)]
pub struct PipelineExperiment {
    /// Label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads.
    pub threads: usize,
    /// Key-space size.
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Logical operations issued per thread.
    pub ops_per_thread: usize,
    /// Percentage of operations that are range scans (the rest are uniform
    /// lookups; the acceptance workload uses 0).
    pub range_pct: u8,
    /// Percentage of operations that are inserts (half of them updates of
    /// bulkloaded keys).  The write-path pipelining gate uses 50.
    pub insert_pct: u8,
    /// Entries per range scan.
    pub range_size: u64,
    /// In-flight depth (0 = blocking reference, see type docs).
    pub depth: usize,
    /// Technique selection.
    pub options: TreeOptions,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl PipelineExperiment {
    /// The uniform-lookup experiment at the harness's default scale.
    pub fn default_scaled(name: impl Into<String>, depth: usize) -> Self {
        PipelineExperiment {
            name: name.into(),
            memory_servers: 4,
            compute_servers: 2,
            threads: 4,
            key_space: 1 << 18,
            bulkload_fraction: 0.8,
            ops_per_thread: 2_000,
            range_pct: 0,
            insert_pct: 0,
            range_size: 50,
            depth,
            options: TreeOptions::sherman(),
            tree: TreeConfig::default(),
            seed: 0x9196_5EED,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick` / `--smoke`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(2);
        self.key_space = self.key_space.min(1 << 15);
        self.ops_per_thread = self.ops_per_thread.min(500);
        self.range_size = self.range_size.min(20);
        self
    }

    /// The workload specification this experiment draws keys from.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            mix: Mix {
                insert_pct: self.insert_pct,
                lookup_pct: 100 - self.range_pct - self.insert_pct,
                delete_pct: 0,
                range_pct: self.range_pct,
            },
            distribution: KeyDistribution::Uniform,
            range_size: self.range_size,
            seed: self.seed,
            update_fraction: if self.insert_pct > 0 { 0.5 } else { 0.0 },
        }
    }
}

/// What one pipelined experiment produced.
#[derive(Debug)]
pub struct PipelineResult {
    /// Experiment label.
    pub name: String,
    /// In-flight depth the run used (0 = blocking reference).
    pub depth: usize,
    /// Throughput / latency summary.
    pub summary: RunSummary,
    /// Aggregated overlap gauges across every thread.
    pub overlap: OverlapGauges,
    /// Fraction of operations whose leaf address came from the index cache.
    pub cache_hit_ratio: f64,
    /// Fabric-wide verb counters accumulated during the measured phase.
    pub fabric: MetricsSnapshot,
}

/// Run one pipelined (or blocking-reference) read experiment.
pub fn run_pipeline_experiment(exp: &PipelineExperiment) -> PipelineResult {
    let spec = exp.workload();
    spec.validate().expect("invalid pipeline workload");

    let cluster_config = ClusterConfig {
        fabric: FabricConfig {
            memory_servers: exp.memory_servers,
            compute_servers: exp.compute_servers,
            ..FabricConfig::default()
        },
        tree: exp.tree.clone(),
    };
    let cluster = Cluster::new(cluster_config, exp.options);
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");

    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();
    let barrier = Arc::new(std::sync::Barrier::new(exp.threads));
    let mut handles = Vec::new();
    for t in 0..exp.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        let cs = (t % exp.compute_servers) as u16;
        let ops_per_thread = exp.ops_per_thread;
        let depth = exp.depth;
        handles.push(thread::spawn(move || {
            let mut client = cluster.client(cs);
            let mut gen = spec.generator(t as u64);
            let ops: Vec<PipelineOp> = (0..ops_per_thread)
                .map(|_| to_pipeline_op(gen.next_op()))
                .collect();
            barrier.wait();

            let mut latency = LatencyHistogram::new();
            let mut cache_hits = 0u64;
            let before = client.fabric_stats();
            let t0 = client.now();
            let overlap = if depth == 0 {
                for op in &ops {
                    let stats = match *op {
                        PipelineOp::Lookup { key } => client.lookup(key).expect("lookup").1,
                        PipelineOp::Range { start_key, count } => {
                            client.range(start_key, count).expect("range").1
                        }
                        PipelineOp::Insert { key, value } => {
                            client.insert(key, value).expect("insert")
                        }
                        PipelineOp::Delete { key } => client.delete(key).expect("delete").1,
                    };
                    latency.record(stats.latency_ns);
                    if stats.cache_hit {
                        cache_hits += 1;
                    }
                }
                let stats = client.fabric_stats().delta_since(&before);
                sherman::overlap_from_stats(&stats, client.now().saturating_sub(t0))
            } else {
                let report = client
                    .run_pipelined(ops.iter().copied(), depth)
                    .expect("pipelined run");
                for r in &report.results {
                    latency.record(r.latency_ns);
                    if r.cache_hit {
                        cache_hits += 1;
                    }
                }
                report.overlap
            };
            (
                ThreadReport {
                    ops: ops_per_thread as u64,
                    latency,
                },
                overlap,
                cache_hits,
            )
        }));
    }

    let mut agg = ThroughputAggregator::new();
    let mut overlap = OverlapGauges::default();
    let mut cache_hits = 0u64;
    for h in handles {
        let (report, thread_overlap, hits) = h.join().expect("pipeline worker panicked");
        agg.add(&report);
        overlap.merge(&thread_overlap);
        cache_hits += hits;
    }
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let total_ops = (exp.threads * exp.ops_per_thread) as u64;
    PipelineResult {
        name: exp.name.clone(),
        depth: exp.depth,
        summary: agg.finish(elapsed),
        overlap,
        cache_hit_ratio: if total_ops == 0 {
            0.0
        } else {
            cache_hits as f64 / total_ops as f64
        },
        fabric: cluster
            .fabric()
            .metrics()
            .snapshot()
            .delta_since(&baseline_metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(options: TreeOptions) -> TreeExperiment {
        TreeExperiment {
            memory_servers: 2,
            compute_servers: 2,
            threads: 2,
            key_space: 1 << 12,
            ops_per_thread: 40,
            tree: TreeConfig {
                cache_bytes: 1 << 20,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            ..TreeExperiment::default_scaled("tiny", options)
        }
    }

    #[test]
    fn sherman_experiment_produces_sane_numbers() {
        let result = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert_eq!(result.summary.ops, 80);
        assert!(result.summary.throughput_ops > 0.0);
        assert!(result.summary.p99_ns >= result.summary.p50_ns);
        assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
        // Write ops exist in a write-intensive mix and their sizes are
        // entry-granular for Sherman.
        assert!(result.write_sizes.total() > 0);
        assert!(result.write_sizes.mean() < 200.0);
    }

    #[test]
    fn baseline_writes_whole_nodes() {
        let result = run_tree_experiment(&tiny(TreeOptions::fg_plus()));
        assert!(result.write_sizes.mean() >= 1024.0);
        // FG+ needs at least one more round trip per write than Sherman.
        let sherman = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert!(
            result.write_round_trips.mean() > sherman.write_round_trips.mean(),
            "FG+ {} vs Sherman {}",
            result.write_round_trips.mean(),
            sherman.write_round_trips.mean()
        );
    }

    fn tiny_pipeline(depth: usize) -> PipelineExperiment {
        PipelineExperiment {
            memory_servers: 2,
            compute_servers: 2,
            threads: 2,
            key_space: 1 << 12,
            ops_per_thread: 150,
            tree: TreeConfig {
                cache_bytes: 1 << 20,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            ..PipelineExperiment::default_scaled(format!("pipe-d{depth}"), depth)
        }
    }

    #[test]
    fn depth_one_pipeline_matches_the_blocking_reference() {
        let blocking = run_pipeline_experiment(&tiny_pipeline(0));
        let depth1 = run_pipeline_experiment(&tiny_pipeline(1));
        let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "depth-1 must reproduce the blocking path within 5%, ratio {ratio:.3}"
        );
        assert_eq!(depth1.overlap.max_in_flight, 1);
        assert_eq!(depth1.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn depth_four_pipeline_overlaps_and_outperforms() {
        let depth1 = run_pipeline_experiment(&tiny_pipeline(1));
        let depth4 = run_pipeline_experiment(&tiny_pipeline(4));
        let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
        assert!(
            speedup >= 1.5,
            "depth 4 should beat depth 1 by 1.5x on uniform lookups, got {speedup:.2}x"
        );
        assert!(
            depth4.overlap.mean_in_flight() > 1.5,
            "mean in-flight {:.2}",
            depth4.overlap.mean_in_flight()
        );
        assert!(depth4.overlap.overlapped_round_trips > 0);
        assert!(depth4.overlap.overlap_factor() > depth1.overlap.overlap_factor());
    }

    #[test]
    fn tree_experiment_reports_its_drive_path_and_pipelines_writes() {
        let blocking = run_tree_experiment(&tiny(TreeOptions::sherman()));
        assert_eq!(blocking.drive, DrivePath::Blocking);

        let piped = run_tree_experiment(&TreeExperiment {
            depth: 4,
            ..tiny(TreeOptions::sherman())
        });
        assert_eq!(piped.drive, DrivePath::Pipelined(4));
        // The mixed write-intensive workload really ran (and through the
        // scheduler): same op count, write histograms populated.
        assert_eq!(piped.summary.ops, 80);
        assert!(piped.write_sizes.total() > 0);
        assert!(piped.write_round_trips.total() > 0);
    }

    #[test]
    fn mixed_depth_one_matches_blocking_and_depth_four_overlaps() {
        let mixed = |depth: usize| {
            let mut exp = tiny_pipeline(depth);
            exp.insert_pct = 50;
            exp
        };
        let blocking = run_pipeline_experiment(&mixed(0));
        let depth1 = run_pipeline_experiment(&mixed(1));
        let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "depth-1 mixed must reproduce the blocking path within 5%, ratio {ratio:.3}"
        );
        let depth4 = run_pipeline_experiment(&mixed(4));
        let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
        assert!(
            speedup >= 1.3,
            "depth 4 should beat depth 1 by 1.3x on 50% inserts, got {speedup:.2}x"
        );
        assert!(depth4.overlap.overlapped_round_trips > 0);
    }

    #[test]
    fn pipeline_experiment_supports_scans() {
        let mut exp = tiny_pipeline(4);
        exp.range_pct = 20;
        let result = run_pipeline_experiment(&exp);
        assert_eq!(result.summary.ops, 300);
        assert!(result.summary.throughput_ops > 0.0);
        assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
    }

    #[test]
    fn quick_shrinks_the_experiment() {
        let mut exp = TreeExperiment::default_scaled("x", TreeOptions::sherman());
        exp.range_size = 1_000; // as fig12's large-scan rows configure
        let exp = exp.quick();
        assert!(exp.threads <= 4);
        assert!(exp.ops_per_thread <= 100);
        assert!(exp.range_size <= 100, "quick runs must cap scan size");
        exp.workload().validate().unwrap();
    }
}
