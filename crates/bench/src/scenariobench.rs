//! Hostile-scenario experiments: adversarial access shapes under adaptive
//! memory pressure.
//!
//! Where [`churnbench`](crate::churnbench) measures one pathology (window
//! churn), this harness drives the whole [`sherman_workload::ScenarioSpec`]
//! family — shifting hot spots, flash crowds, right-edge sequential appends,
//! scans racing churn — through **both** execution paths (the blocking client
//! loop and the split-phase pipelined scheduler), optionally while the
//! cluster's memory is squeezed:
//!
//! * [`MemoryPressure::PoolExhaustion`] — the fabric is configured with so
//!   little host DRAM that the two-stage allocator runs out of chunks
//!   mid-run.  The run must *complete*: allocation failure surfaces as the
//!   typed [`sherman_memserver::AllocError`] (counted here as backpressured
//!   operations), never as a panic, and reads keep being served.
//! * [`MemoryPressure::CacheShrink`] — at the midpoint of the run every
//!   compute server's index cache is re-budgeted to `1/factor` of its
//!   configured capacity ([`sherman::Cluster::set_cache_budget`]).  The
//!   harness reports the hit ratio of each half so the smoke gate can verify
//!   the degradation is graceful rather than a cliff.

use crate::runner::{to_pipeline_op, DrivePath};
use sherman::{
    Cluster, ClusterConfig, NodeCensus, PipelineOp, ShapeAudit, TreeConfig, TreeError,
    TreeOptions,
};
use sherman_metrics::{
    BackpressureSnapshot, EpochGauges, LatencyHistogram, OverlapGauges, RunSummary,
    ThreadReport, ThroughputAggregator,
};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::{Fabric, FabricBackend, FabricConfig};
use sherman_workload::{Mix, Op, ScenarioShape, ScenarioSpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

/// The memory-pressure regime applied while a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPressure {
    /// No pressure: the cluster is provisioned generously.
    None,
    /// The memory servers are provisioned so small that chunk allocation
    /// fails mid-run; the harness counts backpressured operations instead of
    /// panicking.
    PoolExhaustion,
    /// At the run's midpoint the index-cache budget shrinks to `1/factor` of
    /// its configured capacity.
    CacheShrink {
        /// Divisor applied to the configured cache budget (4 = keep 25 %).
        factor: usize,
    },
}

impl std::fmt::Display for MemoryPressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryPressure::None => write!(f, "none"),
            MemoryPressure::PoolExhaustion => write!(f, "pool-exhaustion"),
            MemoryPressure::CacheShrink { factor } => write!(f, "cache/{factor}"),
        }
    }
}

/// A fully-specified hostile-scenario experiment.
#[derive(Debug, Clone)]
pub struct ScenarioExperiment {
    /// Label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads.
    pub threads: usize,
    /// The hostile access shape under test.
    pub shape: ScenarioShape,
    /// Key-space size (sequential appends land above it).
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Operations issued per thread.
    pub ops_per_thread: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Entries per range query (non-churn shapes).
    pub range_size: u64,
    /// In-flight depth: 0 drives the blocking client loop, `>= 1` drives
    /// [`sherman::TreeClient::run_pipelined`] at that depth.
    pub depth: usize,
    /// Memory-pressure regime.
    pub pressure: MemoryPressure,
    /// Host DRAM per memory server; `None` keeps the fabric default.
    /// Pool-exhaustion scenarios set this very low.
    pub host_bytes_per_ms: Option<usize>,
    /// Technique selection.
    pub options: TreeOptions,
    /// Tree geometry.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl ScenarioExperiment {
    /// A scenario experiment at the harness's default scale.
    pub fn default_scaled(name: impl Into<String>, shape: ScenarioShape) -> Self {
        ScenarioExperiment {
            name: name.into(),
            memory_servers: 2,
            compute_servers: 2,
            threads: 4,
            shape,
            key_space: 1 << 15,
            bulkload_fraction: 0.8,
            ops_per_thread: 3_000,
            mix: Mix::WRITE_INTENSIVE,
            range_size: 50,
            depth: 0,
            pressure: MemoryPressure::None,
            host_bytes_per_ms: None,
            options: TreeOptions::sherman(),
            tree: TreeConfig {
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            },
            seed: 0x5C_E7A5,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick` / `--smoke`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(2);
        self.key_space = self.key_space.min(1 << 13);
        self.ops_per_thread = self.ops_per_thread.min(1_200);
        self.range_size = self.range_size.min(20);
        self
    }

    /// The scenario specification this experiment drives.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            shape: self.shape,
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            threads: self.threads as u64,
            ops_per_thread: self.ops_per_thread as u64,
            mix: self.mix,
            range_size: self.range_size,
            seed: self.seed,
        }
    }
}

/// The six-scenario hostile suite the acceptance gate runs: the four access
/// shapes unpressured, plus sequential appends against an exhaustible memory
/// pool and a shifting hot spot under a 4× mid-run cache shrink.
pub fn hostile_suite(depth: usize) -> Vec<ScenarioExperiment> {
    let mut suite = Vec::new();

    let mut hotspot = ScenarioExperiment::default_scaled(
        "shifting-hotspot",
        ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 8,
        },
    );
    hotspot.mix = Mix::WRITE_INTENSIVE;
    suite.push(hotspot);

    let mut flash = ScenarioExperiment::default_scaled(
        "flash-crowd",
        ScenarioShape::FlashCrowd { hot_pct: 60 },
    );
    flash.mix = Mix::WRITE_INTENSIVE;
    suite.push(flash);

    let mut append =
        ScenarioExperiment::default_scaled("sequential-append", ScenarioShape::SequentialAppend);
    append.mix = Mix {
        insert_pct: 60,
        lookup_pct: 25,
        delete_pct: 10,
        range_pct: 5,
    };
    suite.push(append);

    let mut scan = ScenarioExperiment::default_scaled(
        "scan-churn",
        ScenarioShape::ScanChurn {
            scan_pct: 10,
            scan_size: 200,
        },
    );
    // Churn fills its own window through the insert path; the mix only
    // contributes the lookup share.
    scan.bulkload_fraction = 0.0;
    scan.key_space = 1 << 13;
    scan.mix = Mix {
        insert_pct: 70,
        lookup_pct: 20,
        delete_pct: 0,
        range_pct: 10,
    };
    suite.push(scan);

    let mut exhaustion =
        ScenarioExperiment::default_scaled("pool-exhaustion", ScenarioShape::SequentialAppend);
    exhaustion.pressure = MemoryPressure::PoolExhaustion;
    // One 48 KiB chunk of 256-byte nodes per server (the superblock eats the
    // first 4 KiB): 384 carve-able nodes in total.  The bulkload takes most
    // of them and the appends run the rest dry mid-run, which is the point.
    exhaustion.host_bytes_per_ms = Some(52 << 10);
    exhaustion.tree = TreeConfig {
        node_size: 256,
        chunk_bytes: 48 << 10,
        ..TreeConfig::default()
    };
    exhaustion.key_space = 1 << 11;
    exhaustion.bulkload_fraction = 0.5;
    exhaustion.mix = Mix {
        insert_pct: 70,
        lookup_pct: 28,
        delete_pct: 0,
        range_pct: 2,
    };
    suite.push(exhaustion);

    let mut shrink = ScenarioExperiment::default_scaled(
        "cache-shrink",
        ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 4,
        },
    );
    shrink.pressure = MemoryPressure::CacheShrink { factor: 4 };
    shrink.mix = Mix::READ_INTENSIVE;
    // Small nodes and a deliberately tight cache budget (64 level-1 entries)
    // so the tree's level-1 footprint exceeds the post-shrink budget and the
    // mid-run re-budgeting has something to evict.
    shrink.tree = TreeConfig {
        node_size: 256,
        cache_bytes: 16 << 10,
        chunk_bytes: 64 << 10,
        ..TreeConfig::default()
    };
    suite.push(shrink);

    suite.into_iter().map(|mut e| {
        e.depth = depth;
        e
    }).collect()
}

/// What one scenario run produced.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Experiment label.
    pub name: String,
    /// Memory-pressure regime the run applied.
    pub pressure: MemoryPressure,
    /// How the measured phase drove the workload.
    pub drive: DrivePath,
    /// Throughput / latency summary over the operations that completed.
    pub summary: RunSummary,
    /// Aggregated overlap gauges across every thread (in-flight depth,
    /// overlapped round trips).
    pub overlap: OverlapGauges,
    /// Epoch-reclamation gauges at the end of the run (lag must return to
    /// zero at quiescence).
    pub epoch: EpochGauges,
    /// Nodes reachable from the root after the run.
    pub census: NodeCensus,
    /// Node addresses ever carved out of chunks.
    pub nodes_carved: u64,
    /// Nodes currently allocated to the tree.
    pub nodes_outstanding: u64,
    /// `nodes_carved / census.total()`.
    pub space_amplification: f64,
    /// Balance-shape audit of the final tree.
    pub audit: ShapeAudit,
    /// Balance-shape audit right after the bulkload, before any hostile
    /// traffic.  Tiny-node configurations legitimately bulkload with a few
    /// underfull rightmost tails; gates compare against this baseline so
    /// only defects *added* by the run count.
    pub audit_baseline: ShapeAudit,
    /// Operations that failed with the typed allocation-backpressure error
    /// (pool exhaustion) instead of completing.
    pub backpressure_ops: u64,
    /// Allocator backpressure counters (chunk denials, exhaustion events,
    /// free-list rescues).
    pub backpressure: BackpressureSnapshot,
    /// Pressure evictions across every compute server's cache (nonzero only
    /// under [`MemoryPressure::CacheShrink`]).
    pub pressure_evictions: u64,
    /// Type-❶ cache hit ratio over the first half of the run.
    pub hit_before: f64,
    /// Type-❶ cache hit ratio over the second half (after the shrink, when
    /// one is configured).
    pub hit_after: f64,
    /// Errors other than allocation backpressure (the smoke gate requires
    /// zero).
    pub op_errors: Vec<String>,
    /// Fabric-wide verb counters accumulated during the measured phase.
    pub fabric: MetricsSnapshot,
}

/// Sum of (hits, misses) across every compute server's type-❶ cache.
fn cache_counts<B: FabricBackend>(cluster: &Cluster<B>, compute_servers: usize) -> (u64, u64) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for cs in 0..compute_servers as u16 {
        let stats = cluster.cache(cs).stats();
        hits += stats.hits();
        misses += stats.misses();
    }
    (hits, misses)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What each worker thread reports back.
struct WorkerOutcome {
    ops: u64,
    latency: LatencyHistogram,
    overlap: OverlapGauges,
    backpressure_ops: u64,
    errors: Vec<String>,
}

impl WorkerOutcome {
    fn new() -> Self {
        WorkerOutcome {
            ops: 0,
            latency: LatencyHistogram::new(),
            overlap: OverlapGauges::default(),
            backpressure_ops: 0,
            errors: Vec::new(),
        }
    }
}

/// Run one hostile-scenario experiment to completion and aggregate the
/// results on the default virtual-time simulator backend.  Allocation
/// backpressure is *expected* under [`MemoryPressure::PoolExhaustion`] and
/// never panics the run.
pub fn run_scenario_experiment(exp: &ScenarioExperiment) -> ScenarioResult {
    run_scenario_experiment_on::<Fabric>(exp)
}

/// Run one hostile-scenario experiment on an arbitrary [`FabricBackend`].
///
/// The midpoint rendezvous polls with [`sherman::TreeClient::idle`], which
/// works on both the virtual clock and a real one, so the whole suite runs
/// unmodified on [`sherman_sim::ThreadedFabric`].  Latency/throughput rows
/// are only comparable within one backend; the correctness gates (op errors,
/// shape audit, census, backpressure accounting) hold on every backend.
pub fn run_scenario_experiment_on<B: FabricBackend>(exp: &ScenarioExperiment) -> ScenarioResult {
    let spec = exp.spec();
    spec.validate().expect("invalid scenario");

    let mut fabric = FabricConfig {
        memory_servers: exp.memory_servers,
        compute_servers: exp.compute_servers,
        ..FabricConfig::default()
    };
    if let Some(host) = exp.host_bytes_per_ms {
        fabric.host_bytes_per_ms = host;
    }
    let cluster = Cluster::<B>::new_on(
        ClusterConfig {
            fabric,
            tree: exp.tree.clone(),
        },
        exp.options,
    );
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");
    let audit_baseline = cluster.shape_audit().expect("shape audit");

    let initial_budget = cluster.cache(0).capacity_bytes();
    let shrink_to = match exp.pressure {
        MemoryPressure::CacheShrink { factor } => Some(initial_budget / factor.max(1)),
        _ => None,
    };

    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();
    // The start line is an OS barrier (no virtual time has passed yet); the
    // *midpoint* rendezvous cannot be — a thread parked on an OS primitive
    // would freeze the conservative virtual clock for every other
    // participant.  It is instead a pair of atomic flags polled with
    // `TreeClient::idle`, which parks on the clock and lets everyone else
    // keep running.
    let start = Arc::new(Barrier::new(exp.threads));
    let mid_arrived = Arc::new(AtomicUsize::new(0));
    let mid_released = Arc::new(AtomicBool::new(false));
    let mid_counts = Arc::new(Mutex::new((0u64, 0u64)));

    let mut handles = Vec::new();
    for t in 0..exp.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        let start = Arc::clone(&start);
        let mid_arrived = Arc::clone(&mid_arrived);
        let mid_released = Arc::clone(&mid_released);
        let mid_counts = Arc::clone(&mid_counts);
        let cs = (t % exp.compute_servers) as u16;
        let ops_per_thread = exp.ops_per_thread;
        let depth = exp.depth;
        let compute_servers = exp.compute_servers;
        let threads = exp.threads;
        handles.push(thread::spawn(move || {
            let mut client = cluster.client(cs);
            let mut gen = spec.generator(t as u64);
            let first_half = ops_per_thread / 2;
            start.wait();
            let before = client.fabric_stats();
            let t0 = client.now();
            let mut outcome = WorkerOutcome::new();
            for (phase, budget) in [(0usize, first_half), (1, ops_per_thread - first_half)] {
                if phase == 1 {
                    // Midpoint rendezvous: thread 0 snapshots the cache
                    // counters and applies the configured budget squeeze
                    // before anyone proceeds into the second half.  All
                    // waiting idles on the virtual clock (see above).
                    mid_arrived.fetch_add(1, Ordering::SeqCst);
                    if t == 0 {
                        while mid_arrived.load(Ordering::SeqCst) < threads {
                            client.idle(1_000);
                        }
                        *mid_counts.lock().unwrap() =
                            cache_counts(&cluster, compute_servers);
                        if let Some(bytes) = shrink_to {
                            cluster.set_cache_budget(bytes);
                        }
                        mid_released.store(true, Ordering::SeqCst);
                    } else {
                        while !mid_released.load(Ordering::SeqCst) {
                            client.idle(1_000);
                        }
                    }
                }
                if depth >= 1 {
                    drive_pipelined(&mut client, &mut gen, budget, depth, &mut outcome);
                } else {
                    drive_blocking(&mut client, &mut gen, budget, &mut outcome);
                }
            }
            if depth == 0 {
                // The blocking path computes overlap from the fabric's verb
                // counters over the whole run (the pipelined path gets it from
                // the scheduler's reports instead).
                let stats = client.fabric_stats().delta_since(&before);
                let elapsed = client.now().saturating_sub(t0);
                outcome.overlap = sherman::overlap_from_stats(&stats, elapsed);
            }
            outcome
        }));
    }

    let mut agg = ThroughputAggregator::new();
    let mut overlap = OverlapGauges::default();
    let mut backpressure_ops = 0u64;
    let mut op_errors = Vec::new();
    for h in handles {
        let outcome = h.join().expect("scenario worker panicked");
        agg.add(&ThreadReport {
            ops: outcome.ops,
            latency: outcome.latency,
        });
        overlap.merge(&outcome.overlap);
        backpressure_ops += outcome.backpressure_ops;
        op_errors.extend(outcome.errors);
    }
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let fabric = cluster
        .fabric()
        .metrics()
        .snapshot()
        .delta_since(&baseline_metrics);

    let (end_hits, end_misses) = cache_counts(&cluster, exp.compute_servers);
    let (mid_hits, mid_misses) = *mid_counts.lock().unwrap();
    let mut pressure_evictions = 0u64;
    for cs in 0..exp.compute_servers as u16 {
        pressure_evictions += cluster.cache(cs).stats().pressure_evictions();
    }

    let census = cluster.node_census().expect("census");
    let nodes_carved = cluster.pool().nodes_carved();
    ScenarioResult {
        name: exp.name.clone(),
        pressure: exp.pressure,
        drive: if exp.depth >= 1 {
            DrivePath::Pipelined(exp.depth)
        } else {
            DrivePath::Blocking
        },
        summary: agg.finish(elapsed),
        overlap,
        epoch: cluster.epoch_stats(),
        nodes_outstanding: cluster.nodes_outstanding(),
        space_amplification: nodes_carved as f64 / census.total().max(1) as f64,
        census,
        nodes_carved,
        audit: cluster.shape_audit().expect("shape audit"),
        audit_baseline,
        backpressure_ops,
        backpressure: cluster.pool().backpressure().snapshot(),
        pressure_evictions,
        hit_before: ratio(mid_hits, mid_misses),
        hit_after: ratio(
            end_hits.saturating_sub(mid_hits),
            end_misses.saturating_sub(mid_misses),
        ),
        op_errors,
        fabric,
    }
}

/// Drive `budget` operations through the blocking client loop.  Allocation
/// failures count as backpressure and the loop continues; any other error is
/// recorded for the zero-errors gate.
fn drive_blocking<B: FabricBackend>(
    client: &mut sherman::TreeClient<B>,
    gen: &mut sherman_workload::ScenarioGenerator,
    budget: usize,
    outcome: &mut WorkerOutcome,
) {
    for _ in 0..budget {
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
            Ok(stats) => {
                outcome.ops += 1;
                outcome.latency.record(stats.latency_ns);
            }
            Err(TreeError::Allocation(_)) => outcome.backpressure_ops += 1,
            Err(e) => outcome.errors.push(format!("{op:?}: {e}")),
        }
    }
}

/// Drive `budget` operations through the pipelined scheduler in bounded
/// batches.  `run_pipelined` aborts its whole batch on the first failed
/// operation, so batches are kept small (`depth * 8`) — one allocation
/// failure then costs at most one batch, which is tallied as backpressure
/// rather than killing the run.
fn drive_pipelined<B: FabricBackend>(
    client: &mut sherman::TreeClient<B>,
    gen: &mut sherman_workload::ScenarioGenerator,
    budget: usize,
    depth: usize,
    outcome: &mut WorkerOutcome,
) {
    let batch_len = (depth * 8).max(1);
    let mut remaining = budget;
    while remaining > 0 {
        let n = remaining.min(batch_len);
        remaining -= n;
        let ops: Vec<PipelineOp> = (0..n).map(|_| to_pipeline_op(gen.next_op())).collect();
        match client.run_pipelined(ops, depth) {
            Ok(report) => {
                for r in &report.results {
                    outcome.ops += 1;
                    outcome.latency.record(r.latency_ns);
                }
                outcome.overlap.merge(&report.overlap);
            }
            Err(TreeError::Allocation(_)) => outcome.backpressure_ops += n as u64,
            Err(e) => outcome.errors.push(format!("pipelined batch: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shape: ScenarioShape) -> ScenarioExperiment {
        ScenarioExperiment {
            threads: 2,
            key_space: 1 << 12,
            ops_per_thread: 600,
            tree: TreeConfig {
                node_size: 256,
                cache_bytes: 1 << 18,
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            },
            ..ScenarioExperiment::default_scaled("tiny", shape)
        }
    }

    #[test]
    fn hotspot_scenario_runs_on_both_drive_paths() {
        let blocking = run_scenario_experiment(&tiny(ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 4,
        }));
        assert_eq!(blocking.drive, DrivePath::Blocking);
        assert_eq!(blocking.summary.ops, 1_200);
        assert!(blocking.op_errors.is_empty(), "{:?}", blocking.op_errors);
        assert_eq!(blocking.backpressure_ops, 0);
        assert_eq!(blocking.census.total(), blocking.nodes_outstanding);
        assert_eq!(blocking.epoch.epoch_lag, 0, "quiesced run must unpin");

        let mut piped = tiny(ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 4,
        });
        piped.depth = 4;
        let piped = run_scenario_experiment(&piped);
        assert_eq!(piped.drive, DrivePath::Pipelined(4));
        assert_eq!(piped.summary.ops, 1_200);
        assert!(piped.op_errors.is_empty(), "{:?}", piped.op_errors);
        assert!(piped.overlap.mean_in_flight() > 1.0);
    }

    #[test]
    fn pool_exhaustion_backpressures_instead_of_panicking() {
        let exp = hostile_suite(0)
            .into_iter()
            .find(|e| e.pressure == MemoryPressure::PoolExhaustion)
            .unwrap()
            .quick();
        let r = run_scenario_experiment(&exp);
        assert!(
            r.backpressure_ops > 0,
            "the tiny pool must run dry (carved {})",
            r.nodes_carved
        );
        assert!(r.backpressure.saw_pressure());
        assert!(r.backpressure.exhaustion_events > 0);
        assert!(r.op_errors.is_empty(), "{:?}", r.op_errors);
        assert!(r.summary.ops > 0, "reads keep completing under exhaustion");
    }

    #[test]
    fn cache_shrink_rebudgets_mid_run_without_a_cliff() {
        let exp = hostile_suite(0)
            .into_iter()
            .find(|e| matches!(e.pressure, MemoryPressure::CacheShrink { .. }))
            .unwrap()
            .quick();
        let r = run_scenario_experiment(&exp);
        assert!(r.op_errors.is_empty(), "{:?}", r.op_errors);
        assert!(r.pressure_evictions > 0, "the shrink must evict");
        assert!(r.hit_before > 0.0);
        assert!(
            r.hit_before - r.hit_after <= 0.5,
            "hit ratio fell off a cliff: {:.2} -> {:.2}",
            r.hit_before,
            r.hit_after
        );
    }

    #[test]
    fn suite_covers_all_shapes_and_pressures() {
        let suite = hostile_suite(4);
        assert_eq!(suite.len(), 6);
        assert!(suite.iter().all(|e| e.depth == 4));
        assert!(suite
            .iter()
            .any(|e| e.pressure == MemoryPressure::PoolExhaustion));
        assert!(suite
            .iter()
            .any(|e| matches!(e.pressure, MemoryPressure::CacheShrink { .. })));
        let shapes: Vec<&str> = suite.iter().map(|e| e.shape.name()).collect();
        for s in [
            "shifting-hotspot",
            "flash-crowd",
            "sequential-append",
            "scan-churn",
        ] {
            assert!(shapes.contains(&s), "missing {s}");
        }
        for e in &suite {
            e.spec().validate().unwrap();
            e.clone().quick().spec().validate().unwrap();
        }
    }
}
