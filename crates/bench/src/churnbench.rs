//! Churn experiments: sliding-window insert/delete workloads that measure
//! structural deletes, memory reclamation and space amplification.
//!
//! The paper's figures never shrink the tree; this harness drives the
//! [`sherman_workload::ChurnSpec`] family instead and reports, besides
//! throughput, how well the allocator's footprint tracks the live tree:
//!
//! * **space amplification** — node addresses ever carved out of chunks,
//!   divided by the nodes reachable from the root at the end of the run.
//!   With structural deletes the carved count pins to the steady-state live
//!   tree.  A grow-only tree (merges disabled) keeps its garbage *reachable*,
//!   so there the leak shows directly in the carved/reachable node counts,
//!   which grow without bound as the window turns over,
//! * the merge / rebalance / root-collapse counters, and the free-list
//!   retire / reuse counters,
//! * **reclaim latency** — the virtual-time distance from a node address's
//!   retirement to its reuse.  Under epoch-based reclamation this tracks the
//!   workload's own allocation cadence (near-zero when idle).

use sherman::{Cluster, ClusterConfig, NodeCensus, ShapeAudit, TreeConfig, TreeOptions};
use sherman_memserver::FreeListStats;
use sherman_metrics::{
    CoherenceGauges, LatencyHistogram, RunSummary, SpaceSnapshot, ThreadReport,
    ThroughputAggregator,
};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::{Fabric, FabricBackend, FabricConfig};
use sherman_workload::{ChurnSpec, Op};
use std::sync::Arc;
use std::thread;

/// A fully-specified churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnExperiment {
    /// Label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads.
    pub threads: usize,
    /// Live keys once the window is full.
    pub window: u64,
    /// How many times the key window must turn over (the acceptance runs use
    /// ≥ 10×).
    pub turnover: f64,
    /// Percentage of lookups / range scans (the rest are write waves).
    pub lookup_pct: u8,
    /// Percentage of range scans.
    pub range_pct: u8,
    /// Entries per range scan.
    pub range_size: u64,
    /// Technique selection.
    pub options: TreeOptions,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl ChurnExperiment {
    /// A churn experiment at the harness's default scale.  The chunk size is
    /// kept small so the footprint reflects node-level reuse rather than
    /// chunk-granularity slack.
    pub fn default_scaled(name: impl Into<String>, options: TreeOptions) -> Self {
        ChurnExperiment {
            name: name.into(),
            memory_servers: 2,
            compute_servers: 2,
            threads: 4,
            window: 8_000,
            turnover: 10.0,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 50,
            options,
            tree: TreeConfig {
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            },
            seed: 0xC0FFEE,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick`).  The turnover target
    /// is preserved — it is the point of the experiment — but the window (and
    /// with it the total op count) shrinks.
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(2);
        self.window = self.window.min(2_000);
        self.range_size = self.range_size.min(20);
        self
    }

    /// The workload specification this experiment drives.
    pub fn workload(&self) -> ChurnSpec {
        ChurnSpec {
            window: self.window,
            threads: self.threads as u64,
            lookup_pct: self.lookup_pct,
            range_pct: self.range_pct,
            range_size: self.range_size,
            bidirectional: true,
            seed: self.seed,
        }
    }
}

/// What one churn experiment produced.
#[derive(Debug)]
pub struct ChurnResult {
    /// Experiment label.
    pub name: String,
    /// Throughput / latency summary.
    pub summary: RunSummary,
    /// Window turnovers actually completed (minimum across threads).
    pub turnovers: f64,
    /// Structural-delete counters (merges, rebalances, root collapses).
    pub space: SpaceSnapshot,
    /// Free-list counters (retired / reused / quarantined) plus the
    /// retire→reuse latency figures (`mean_reclaim_latency_ns()`,
    /// `reclaim_latency_min_ns`, `reclaim_latency_max_ns`).
    pub reclaim: FreeListStats,
    /// Node addresses ever carved out of chunks (the remote-memory
    /// footprint's node count).
    pub nodes_carved: u64,
    /// Nodes currently allocated to the tree (carved + reissued − retired).
    pub nodes_outstanding: u64,
    /// Nodes reachable from the root after the run.
    pub census: NodeCensus,
    /// `nodes_carved / census.total()` — how much remote memory the run
    /// claimed per live node.
    pub space_amplification: f64,
    /// Balance-shape audit of the final tree: persistently underfull
    /// rightmost children / internal nodes that a same-parent partner could
    /// fix (zero under direction-complete merging).
    pub audit: ShapeAudit,
    /// Mid-run shape samples (`Cluster::shape_audit_sampled`, rotating
    /// windows) taken by thread 0 while the churn was still running: the
    /// continuous shape-health signal, advisory rather than a gate (samples
    /// race in-flight merges; the quiesced `audit` is authoritative).
    pub shape_timeline: Vec<ShapeAudit>,
    /// Type-❷ cache entries refreshed in place across every compute server
    /// (structural-change refresh + lazy traversal repair).
    pub cache_refreshes: u64,
    /// Aggregate type-❷ hit ratio across every compute server's cache.
    pub top_hit_ratio: f64,
    /// Fabric-delivered cache-coherence gauges, snapshotted after every
    /// compute server quiesced its inbox: posted/applied message counts, the
    /// post→apply stale-window lag, and stale hits served mid-run.
    pub coherence: CoherenceGauges,
    /// Stale cache hits recorded during the post-quiesce verification pass
    /// (a full-window read sweep after every inbox drained).  Any nonzero
    /// value means a coherence message failed to scrub its route.
    pub stale_hits_after_drain: u64,
    /// Fabric-wide verb counters accumulated during the measured phase
    /// (before the post-run quiesce and verification sweep).
    pub fabric: MetricsSnapshot,
}

/// Run one churn experiment to completion and aggregate the results on the
/// default virtual-time simulator backend.
pub fn run_churn_experiment(exp: &ChurnExperiment) -> ChurnResult {
    run_churn_experiment_on::<Fabric>(exp)
}

/// Run one churn experiment on an arbitrary [`FabricBackend`].
///
/// The harness itself is backend-agnostic: it spawns one OS thread per
/// logical client, drives the churn generator to the turnover target, then
/// quiesces coherence and audits the final tree.  On the simulator the
/// latency figures are virtual nanoseconds; on [`sherman_sim::ThreadedFabric`]
/// they are wall-clock nanoseconds, so compare throughput/latency rows only
/// within one backend — the structural counters (merges, reclaim, census,
/// space amplification, stale hits) are comparable across backends.
pub fn run_churn_experiment_on<B: FabricBackend>(exp: &ChurnExperiment) -> ChurnResult {
    let spec = exp.workload();
    spec.validate().expect("invalid churn workload");
    let ops_per_thread = spec.ops_per_thread_for_turnover(exp.turnover);

    let cluster_config = ClusterConfig {
        fabric: FabricConfig {
            memory_servers: exp.memory_servers,
            compute_servers: exp.compute_servers,
            ..FabricConfig::default()
        },
        tree: exp.tree.clone(),
    };
    let cluster = Cluster::<B>::new_on(cluster_config, exp.options);
    // Churn starts from an empty tree: the warm-up phase of every generator
    // fills the window through the ordinary insert path.
    cluster.bulkload(std::iter::empty()).expect("bulkload");

    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();
    let barrier = Arc::new(std::sync::Barrier::new(exp.threads));
    let mut handles = Vec::new();
    for t in 0..exp.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        let cs = (t % exp.compute_servers) as u16;
        handles.push(thread::spawn(move || {
            let mut client = cluster.client(cs);
            let mut gen = spec.generator(t as u64);
            barrier.wait();
            let mut ops = 0u64;
            let mut latency = LatencyHistogram::new();
            // Thread 0 doubles as the shape monitor: every so often it takes
            // an incremental (per-level sampled, rotating-window) audit so
            // the bench can report shape health *during* the churn, not just
            // after quiesce.  God-mode reads charge no virtual time, so the
            // monitoring does not perturb the measured run.
            const SHAPE_SAMPLES: usize = 8;
            const SHAPE_WINDOW: usize = 16;
            let sample_every = (ops_per_thread / SHAPE_SAMPLES).max(1);
            let mut shape_timeline = Vec::new();
            for i in 0..ops_per_thread {
                if t == 0 && i > 0 && i % sample_every == 0 {
                    let skip = shape_timeline.len() * SHAPE_WINDOW;
                    if let Ok(sample) = cluster.shape_audit_sampled(SHAPE_WINDOW, skip) {
                        shape_timeline.push(sample);
                    }
                }
                let op = gen.next_op();
                let stats = match op {
                    Op::Lookup { key } => {
                        let (value, s) = client.lookup(key).expect("lookup");
                        assert!(value.is_some(), "live key {key} must be present");
                        s
                    }
                    Op::Insert { key, value } => client.insert(key, value).expect("insert"),
                    Op::Delete { key } => {
                        let (existed, s) = client.delete(key).expect("delete");
                        assert!(existed, "windowed key {key} deleted twice");
                        s
                    }
                    Op::Range { start_key, count } => {
                        client.range(start_key, count as usize).expect("range").1
                    }
                };
                ops += 1;
                latency.record(stats.latency_ns);
            }
            (ThreadReport { ops, latency }, gen.turnovers(), shape_timeline)
        }));
    }

    let mut agg = ThroughputAggregator::new();
    let mut min_turnovers = f64::INFINITY;
    let mut shape_timeline = Vec::new();
    for h in handles {
        let (report, turnovers, timeline) = h.join().expect("churn worker panicked");
        agg.add(&report);
        min_turnovers = min_turnovers.min(turnovers);
        if !timeline.is_empty() {
            shape_timeline = timeline;
        }
    }
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let fabric = cluster
        .fabric()
        .metrics()
        .snapshot()
        .delta_since(&baseline_metrics);

    // Close the stale window: every compute server waits out and applies its
    // in-flight coherence backlog, then re-reads the whole key space.  Stale
    // hits recorded during this pass mean an `Invalidate` failed to scrub a
    // route — the smoke gate turns that into a failure.  Clients are created
    // one at a time so each advances the virtual clock alone.
    for cs in 0..exp.compute_servers as u16 {
        let mut settle = cluster.client(cs);
        settle.quiesce_coherence();
    }
    let stale_before_verify = cluster.coherence_stats().stale_hits;
    for cs in 0..exp.compute_servers as u16 {
        let mut verifier = cluster.client(cs);
        let (_, _) = verifier
            .range(0, exp.window as usize * 2)
            .expect("post-drain verification scan");
    }
    let stale_hits_after_drain =
        cluster.coherence_stats().stale_hits - stale_before_verify;

    let census = cluster.node_census().expect("census");
    let nodes_carved = cluster.pool().nodes_carved();
    let audit = cluster.shape_audit().expect("shape audit");
    let (mut cache_refreshes, mut top_hits, mut top_misses) = (0u64, 0u64, 0u64);
    for cs in 0..exp.compute_servers as u16 {
        let stats = cluster.cache(cs).stats();
        cache_refreshes += stats.refreshes();
        top_hits += stats.top_hits();
        top_misses += stats.top_misses();
    }
    ChurnResult {
        name: exp.name.clone(),
        summary: agg.finish(elapsed),
        turnovers: min_turnovers,
        space: cluster.space_stats(),
        reclaim: cluster.reclaim_stats(),
        nodes_carved,
        nodes_outstanding: cluster.nodes_outstanding(),
        census,
        space_amplification: nodes_carved as f64 / census.total().max(1) as f64,
        audit,
        shape_timeline,
        cache_refreshes,
        top_hit_ratio: if top_hits + top_misses == 0 {
            0.0
        } else {
            top_hits as f64 / (top_hits + top_misses) as f64
        },
        coherence: cluster.coherence_stats(),
        stale_hits_after_drain,
        fabric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(options: TreeOptions) -> ChurnExperiment {
        ChurnExperiment {
            window: 1_500,
            threads: 2,
            tree: TreeConfig {
                node_size: 256,
                cache_bytes: 1 << 20,
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            },
            ..ChurnExperiment::default_scaled("tiny-churn", options)
        }
    }

    #[test]
    fn churn_with_merges_bounds_space_amplification() {
        let on = run_churn_experiment(&tiny(TreeOptions::sherman()));
        assert!(
            on.turnovers >= 10.0,
            "acceptance requires ≥10× turnover, got {:.1}",
            on.turnovers
        );
        assert!(on.space.leaf_merges > 0, "churn must trigger merges");
        assert!(on.reclaim.retired > 0);
        assert!(on.reclaim.reused > 0, "retired nodes must be recycled");
        // The acceptance bar: total allocated node addresses stay within 2×
        // of the steady-state live tree.
        assert!(
            on.space_amplification < 2.0,
            "space amplification {:.2} (carved {} vs live {})",
            on.space_amplification,
            on.nodes_carved,
            on.census.total()
        );
        // Book-keeping agrees with the reachability walk.
        assert_eq!(on.nodes_outstanding, on.census.total());
        assert!(on.summary.throughput_ops > 0.0);
        // The monitor thread sampled the shape while the churn ran.
        assert!(
            !on.shape_timeline.is_empty(),
            "thread 0 must collect mid-run shape samples"
        );
        // Merges publish coherence messages toward the other compute server,
        // the post-run quiesce drains them all, and the verification sweep
        // finds no route left pointing at a retired node.
        assert!(
            on.coherence.invalidations_posted > 0,
            "merges must post invalidations: {:?}",
            on.coherence
        );
        assert_eq!(on.coherence.pending(), 0, "quiesce left messages in flight");
        assert_eq!(
            on.stale_hits_after_drain, 0,
            "post-drain verification sweep served a stale route"
        );

        // The same churn without structural deletes leaks without bound: its
        // garbage stays reachable, so both the carved footprint and the
        // reachable-node count grow with the turnover instead of pinning to
        // the live tree size.  (The bar is 3× rather than strictly
        // turnover-proportional: bidirectional churn re-walks a quarter
        // window per turnover, and re-deleting already-empty key space does
        // not carve new nodes in grow-only mode.)
        let off = run_churn_experiment(&tiny(
            TreeOptions::sherman().without_structural_deletes(),
        ));
        assert_eq!(off.space.merges(), 0);
        assert_eq!(off.reclaim.retired, 0);
        assert!(
            off.nodes_carved > 3 * on.nodes_carved,
            "grow-only churn should leak: carved {} vs {} with merges",
            off.nodes_carved,
            on.nodes_carved
        );
        assert!(
            off.census.total() > 3 * on.census.total(),
            "grow-only churn retains garbage nodes: {} vs {} reachable",
            off.census.total(),
            on.census.total()
        );
    }

    #[test]
    fn quick_shrinks_but_preserves_turnover() {
        let exp = ChurnExperiment::default_scaled("q", TreeOptions::sherman()).quick();
        assert!(exp.threads <= 2);
        assert!(exp.window <= 2_000);
        assert_eq!(exp.turnover, 10.0);
        exp.workload().validate().unwrap();
    }
}
