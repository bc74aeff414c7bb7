//! The one experiment driver: every tree figure, sweep and gate of this crate
//! is an [`Experiment`] handed to [`run`].
//!
//! An experiment is a cluster (fabric, tree geometry, technique selection), a
//! number of client threads spread round-robin over the compute servers, a
//! [`Source`] of operations, and a [`DrivePath`].  `run` builds the cluster,
//! bulkloads it, lines the clients up, drives each client's stream to the
//! end, and returns one [`RunReport`]: throughput and latency, the internal
//! distributions of Figure 14, the overlap gauges, and a snapshot of the
//! cluster taken once the run is over (census, allocator and shape audits,
//! reclamation / coherence / epoch / offload / backpressure gauges, cache
//! totals, and the stale hits a full re-read serves after every coherence
//! inbox drained).
//!
//! Operations are allowed to fail: an allocation refused by an exhausted pool
//! is counted ([`RunReport::backpressure_ops`]), anything else is collected
//! ([`RunReport::errors`]).  Callers that expect a clean run say so with
//! [`RunReport::expect_clean`].
//!
//! On the simulator the latency figures are virtual nanoseconds; on
//! [`ThreadedFabric`] they are wall-clock nanoseconds, so compare throughput
//! and latency only within one backend.  The structural figures (merges,
//! reclamation, census, audits, stale hits, backpressure) hold across both.

use crate::Args;
use sherman::{
    overlap_from_stats, run_clients, Cluster, ClusterConfig, NodeCensus, OpOutput, OpStats,
    PipelineOp, PipelineReport, PipelinedResult, Session, ShapeAudit, TreeClient, TreeConfig,
    TreeError, TreeOptions, TreeResult,
};
use sherman_memserver::FreeListStats;
use sherman_metrics::{
    BackpressureSnapshot, CoherenceGauges, CountHistogram, EpochGauges, LatencyHistogram,
    OffloadGauges, OverlapGauges, RunSummary, SizeHistogram, SpaceSnapshot, ThreadReport,
    ThroughputAggregator,
};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::{Fabric, FabricBackend, FabricConfig, ThreadedFabric};
use sherman_workload::{
    ChurnGenerator, ChurnSpec, Op, ScenarioGenerator, ScenarioSpec, WorkloadGenerator, WorkloadSpec,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::thread;

/// How each client issues its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrivePath {
    /// One blocking operation at a time through `TreeClient::lookup` /
    /// `insert` / `delete` / `range`.
    Blocking,
    /// `TreeClient::run_pipelined` with this many operations in flight
    /// (`>= 1`; depth 1 is the scheduler's own serial path, which the
    /// `pipeline` gate holds within 5 % of `Blocking`).
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

/// Where a client's operations come from.
///
/// The `threads` (and `ops_per_thread`) fields *inside* a churn or scenario
/// spec are overwritten by [`run`] with the experiment's own, so a source can
/// be re-scaled by editing the [`Experiment`] alone.
#[derive(Debug, Clone)]
pub enum Source {
    /// A YCSB-style mix over a bulkloaded key space.
    Workload(WorkloadSpec),
    /// A sliding key window, driven from an empty tree until the window has
    /// turned over `turnover` times.  The turnover target, not
    /// [`Experiment::ops_per_thread`], sets the length of the run.
    Churn {
        /// The window and its read share.
        spec: ChurnSpec,
        /// How many times the live key set must be replaced.
        turnover: f64,
    },
    /// A hostile access shape over a bulkloaded key space.
    Scenario(ScenarioSpec),
}

/// One client's operation stream.
enum Stream {
    Workload(WorkloadGenerator),
    Churn(ChurnGenerator),
    Scenario(ScenarioGenerator),
}

impl Stream {
    fn next_op(&mut self) -> PipelineOp {
        let op = match self {
            Stream::Workload(g) => g.next_op(),
            Stream::Churn(g) => g.next_op(),
            Stream::Scenario(g) => g.next_op(),
        };
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

    /// Window turnovers completed so far (zero for anything but churn).
    fn turnovers(&self) -> f64 {
        match self {
            Stream::Churn(g) => g.turnovers(),
            _ => 0.0,
        }
    }
}

impl Source {
    /// This source with the experiment's thread (and operation) count filled
    /// in — checked — and the operations each client issues.
    fn sized(&self, threads: usize, ops_per_thread: usize) -> Result<(Source, usize), String> {
        match self.clone() {
            Source::Workload(spec) => {
                spec.validate()?;
                Ok((Source::Workload(spec), ops_per_thread))
            }
            Source::Churn { mut spec, turnover } => {
                spec.threads = threads as u64;
                spec.validate()?;
                let ops = spec.ops_per_thread_for_turnover(turnover);
                Ok((Source::Churn { spec, turnover }, ops))
            }
            Source::Scenario(mut spec) => {
                spec.threads = threads as u64;
                spec.ops_per_thread = ops_per_thread as u64;
                spec.validate()?;
                Ok((Source::Scenario(spec), ops_per_thread))
            }
        }
    }

    /// Whether this is a hostile scenario, which is driven differently in two
    /// ways.  Its operations are allowed to fail (an exhausted pool refuses
    /// allocations) and the executor fails a whole batch on its first
    /// failure, so it is fed `depth * 8` operations at a time — one refusal
    /// then costs one small batch — where everything else hands over the
    /// whole stream.  And it is a schedule its clients walk together (a
    /// shifting hot spot moves by operation index), so they wait for each
    /// other at the run's midpoint: the before/after split of the hit ratio is
    /// then a split of the run, not of client 0's stream.
    fn is_scenario(&self) -> bool {
        matches!(self, Source::Scenario(_))
    }

    /// Whether every lookup must find its key and every delete remove one: a
    /// churn stream only ever reads and deletes keys of its own live window.
    fn must_find(&self) -> bool {
        matches!(self, Source::Churn { .. })
    }

    /// An upper bound on the keys the tree can hold at the end of the run,
    /// which is what the post-run re-read asks a scan for.
    fn live_key_bound(&self, threads: usize, ops_per_thread: usize) -> usize {
        match self {
            Source::Workload(spec) => spec.key_space as usize,
            Source::Churn { spec, .. } => spec.window as usize * 2,
            Source::Scenario(spec) => spec.key_space as usize + threads * ops_per_thread,
        }
    }

    /// Keys in the tree before the first client starts (a churn window fills
    /// itself through the insert path).
    fn bulkload_keys(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            Source::Workload(spec) => Box::new(spec.bulkload_iter()),
            Source::Churn { .. } => Box::new(std::iter::empty()),
            Source::Scenario(spec) => Box::new(spec.bulkload_iter()),
        }
    }

    fn stream(&self, thread: u64) -> Stream {
        match self {
            Source::Workload(spec) => Stream::Workload(spec.generator(thread)),
            Source::Churn { spec, .. } => Stream::Churn(spec.generator(thread)),
            Source::Scenario(spec) => Stream::Scenario(spec.generator(thread)),
        }
    }

    /// The spec's key space (for churn, its live window), its bulkloaded key
    /// count if it has one, and its range-scan size.
    fn scale_mut(&mut self) -> (&mut u64, Option<&mut u64>, &mut u64) {
        match self {
            Source::Workload(s) => (
                &mut s.key_space,
                Some(&mut s.bulkload_keys),
                &mut s.range_size,
            ),
            Source::Churn { spec: s, .. } => (&mut s.window, None, &mut s.range_size),
            Source::Scenario(s) => (
                &mut s.key_space,
                Some(&mut s.bulkload_keys),
                &mut s.range_size,
            ),
        }
    }

    /// Resize the key space, keeping the bulkloaded share of it (to the
    /// nearest percent, which every preset's share is).
    pub fn set_key_space(&mut self, key_space: u64) {
        let (space, bulkloaded, _) = self.scale_mut();
        if let Some(bulkloaded) = bulkloaded {
            let percent = (*bulkloaded as f64 * 100.0 / (*space).max(1) as f64).round();
            *bulkloaded = (key_space as f64 * (percent / 100.0)) as u64;
        }
        *space = key_space;
    }

    /// The YCSB-style spec of a [`Source::Workload`].
    ///
    /// # Panics
    /// Panics on any other source.
    pub fn workload_mut(&mut self) -> &mut WorkloadSpec {
        match self {
            Source::Workload(spec) => spec,
            other => panic!("not a workload source: {other:?}"),
        }
    }
}

/// Upper bounds a `--quick` run puts on an experiment's scale.
#[derive(Debug, Clone, Copy)]
pub struct QuickCaps {
    /// Most client threads.
    pub threads: usize,
    /// Largest key space (churn: live window).
    pub key_space: u64,
    /// Most operations per thread.
    pub ops_per_thread: usize,
    /// Most entries per range scan.
    pub range_size: u64,
}

/// A fully-specified experiment.  See the constructors in
/// [`presets`](crate::presets) for the scales the binaries start from.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Label printed in result rows.
    pub name: String,
    /// The fabric: server counts, memory per server, link model.
    pub fabric: FabricConfig,
    /// Tree geometry and index-cache budget.
    pub tree: TreeConfig,
    /// Technique selection (the ablation axis), offload policy included.
    pub options: TreeOptions,
    /// Client threads, spread round-robin over the compute servers.
    pub threads: usize,
    /// Where the operations come from.
    pub source: Source,
    /// Operations each thread issues (a churn source sets its own length).
    pub ops_per_thread: usize,
    /// How each client issues them.
    pub drive: DrivePath,
    /// Clear every compute server's index cache after the bulkload, so the
    /// measured phase starts with no cached route.
    pub cold_start: bool,
    /// At the run's midpoint, once every client has arrived there, cut every
    /// index cache's budget to `1/factor` of its configured capacity.
    pub rebudget: Option<usize>,
}

impl Experiment {
    /// Shrink to at most `caps` (what `--quick` and `--smoke` do).
    pub fn capped(mut self, caps: &QuickCaps) -> Self {
        self.threads = self.threads.min(caps.threads);
        self.ops_per_thread = self.ops_per_thread.min(caps.ops_per_thread);
        let (key_space, _, range_size) = self.source.scale_mut();
        *range_size = (*range_size).min(caps.range_size);
        let key_space = (*key_space).min(caps.key_space);
        self.source.set_key_space(key_space);
        self
    }
}

/// What one experiment produced.
#[derive(Debug)]
pub struct RunReport {
    /// Experiment label.
    pub name: String,
    /// How the clients issued their operations.
    pub drive: DrivePath,
    /// Throughput / latency summary over the operations that completed.
    pub summary: RunSummary,
    /// Fabric-wide verb counters accumulated between the start line and the
    /// last client's exit (the post-run re-read is not in them).
    pub fabric: MetricsSnapshot,
    /// Operations refused with the typed allocation error (an exhausted
    /// pool) instead of completing.
    pub backpressure_ops: u64,
    /// Every other failure: operation errors, a churn read or delete that
    /// missed a live key, a post-run check that could not run.
    pub errors: Vec<String>,
    /// Round trips per *write* operation (Figure 14(b)).
    pub write_round_trips: CountHistogram,
    /// Consistency-check retries per *read* operation (Figure 14(a)).
    pub read_retries: CountHistogram,
    /// Bytes written per *write* operation (Figure 14(c)).
    pub write_sizes: SizeHistogram,
    /// Latency of the *write* operations, one histogram per class of
    /// round-trip count: two is the cached-leaf floor, what a split or a
    /// merge posts on top shows as classes of their own.
    pub write_classes: BTreeMap<u64, LatencyHistogram>,
    /// Fraction of operations whose leaf address came from the index cache.
    pub cache_hit_ratio: f64,
    /// Fraction of write operations whose lock was obtained via handover.
    pub handover_fraction: f64,
    /// Overlap gauges merged over every client (in-flight depth, overlapped
    /// round trips).
    pub overlap: OverlapGauges,
    /// Window turnovers completed, the minimum across clients (churn only).
    pub turnovers: f64,
    /// Shape samples (`Cluster::shape_audit_sampled`, rotating windows) taken
    /// by client 0 while the run was going: advisory, since a sample races
    /// in-flight merges; `audit` is authoritative.
    pub shape_timeline: Vec<ShapeAudit>,
    /// Level-1 cache hit ratio up to the run's midpoint (zero when the whole
    /// stream went to the scheduler in one call and there was no midpoint).
    pub hit_before: f64,
    /// Level-1 cache hit ratio after the midpoint (after the re-budget, when
    /// one is configured).
    pub hit_after: f64,
    /// Shape audit right after the bulkload.  Tiny-node trees legitimately
    /// bulkload with a few underfull rightmost tails; gates compare `audit`
    /// against this so only defects the run added count.
    pub audit_baseline: ShapeAudit,
    /// Shape audit of the final tree.
    pub audit: ShapeAudit,
    /// Nodes reachable from the root after the run.
    pub census: NodeCensus,
    /// Node addresses ever carved out of chunks.
    pub nodes_carved: u64,
    /// Nodes currently allocated to the tree (carved + reissued − retired).
    pub nodes_outstanding: u64,
    /// Structural-delete counters (merges, rebalances, root collapses).
    pub space: SpaceSnapshot,
    /// Free-list counters and the retire→eligible / retire→reuse latencies.
    pub reclaim: FreeListStats,
    /// Coherence gauges after every compute server quiesced its inbox.
    pub coherence: CoherenceGauges,
    /// Epoch-reclamation gauges (lag returns to zero at quiescence).
    pub epoch: EpochGauges,
    /// Offload placement decisions and outcomes of the measured phase.
    pub offload: OffloadGauges,
    /// Allocator backpressure counters (chunk denials, exhaustion events).
    pub backpressure: BackpressureSnapshot,
    /// Cache entries evicted by the mid-run re-budget.
    pub pressure_evictions: u64,
    /// Cached images refreshed in place (structural-change refresh plus lazy
    /// traversal repair), every compute server.
    pub cache_refreshes: u64,
    /// Top-level (pinned window) cache hit ratio, every compute server.
    pub top_hit_ratio: f64,
    /// Stale cache hits served by a full re-read *after* every coherence
    /// inbox drained: nonzero means an invalidation failed to scrub a route.
    pub stale_hits_after_drain: u64,
}

impl RunReport {
    /// Mean fabric round trips per operation (every round trip of the
    /// measured phase belongs to one).
    pub fn round_trips_per_op(&self) -> f64 {
        self.fabric.round_trips as f64 / self.summary.ops.max(1) as f64
    }

    /// Latency of every write operation, whatever it posted.
    pub fn write_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for class in self.write_classes.values() {
            all.merge(class);
        }
        all
    }

    /// Node addresses carved per node reachable at the end.
    pub fn space_amplification(&self) -> f64 {
        self.nodes_carved as f64 / self.census.total().max(1) as f64
    }

    /// The report of a run in which nothing may fail.
    ///
    /// # Panics
    /// Panics, listing them, if any operation failed or was backpressured.
    pub fn expect_clean(self) -> Self {
        assert!(
            self.errors.is_empty() && self.backpressure_ops == 0,
            "{}: {} backpressured operations, errors {:?}",
            self.name,
            self.backpressure_ops,
            self.errors
        );
        self
    }
}

/// Run `body(t, start)` on `n` client threads and return what each produced,
/// in thread order: the lock and fabric microbenchmarks, which drive the
/// lock manager and the verbs from blocking OS threads on the thread clock
/// (tree experiments go through [`run`]).
///
/// `start` is the line the clients wait at once they have registered with
/// the virtual clock, so that no one runs its workload uncontended while the
/// others are still being created.  It is an OS barrier and may only be used
/// there, before any virtual time has passed: a thread parked on an OS
/// primitive mid-run would freeze the conservative clock for everyone else.
pub fn spawn_clients<T, F>(n: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, &Barrier) -> T + Send + Sync + 'static,
{
    let shared = Arc::new((body, Barrier::new(n)));
    let clients: Vec<_> = (0..n)
        .map(|t| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || (shared.0)(t, &shared.1))
        })
        .collect();
    clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked"))
        .collect()
}

fn is_write(op: &PipelineOp) -> bool {
    matches!(op, PipelineOp::Insert { .. } | PipelineOp::Delete { .. })
}

/// A scheduler result as the blocking entry points report an operation:
/// whether a lookup found its key (a delete removed one), and the stats.
fn as_blocking(r: &PipelinedResult) -> (bool, OpStats) {
    let found = !matches!(r.output, OpOutput::Lookup(None) | OpOutput::Delete(false));
    let stats = OpStats {
        latency_ns: r.latency_ns,
        round_trips: r.round_trips,
        bytes_written: r.bytes_written,
        read_retries: r.read_retries,
        handed_over: r.handed_over,
        cache_hit: r.cache_hit,
        ..OpStats::default()
    };
    (found, stats)
}

/// What one client reports back.
#[derive(Default)]
struct ClientOutcome {
    latency: LatencyHistogram,
    write_round_trips: CountHistogram,
    read_retries: CountHistogram,
    write_sizes: SizeHistogram,
    write_classes: BTreeMap<u64, LatencyHistogram>,
    cache_hits: u64,
    handovers: u64,
    overlap: OverlapGauges,
    backpressure_ops: u64,
    errors: Vec<String>,
    turnovers: f64,
    shape_timeline: Vec<ShapeAudit>,
    /// Level-1 (hits, misses) over every cache at the midpoint (client 0).
    mid_cache_counts: (u64, u64),
}

impl ClientOutcome {
    /// Fold in one completed operation, whichever path drove it.
    fn record(&mut self, op: &PipelineOp, (found, s): (bool, OpStats), must_find: bool) {
        self.latency.record(s.latency_ns);
        self.cache_hits += s.cache_hit as u64;
        if is_write(op) {
            self.write_round_trips.record(s.round_trips);
            self.write_sizes.record(s.bytes_written);
            self.write_classes.entry(s.round_trips).or_default().record(s.latency_ns);
            self.handovers += s.handed_over as u64;
        } else {
            self.read_retries.record(s.read_retries);
        }
        if must_find && !found {
            self.errors
                .push(format!("{op:?}: the key is live but was not found"));
        }
    }

    /// Tally a failed call that carried `n` operations: a refused allocation
    /// is backpressure, anything else an error.
    fn failed(&mut self, n: usize, what: impl std::fmt::Display, e: TreeError) {
        match e {
            TreeError::Allocation(_) => self.backpressure_ops += n as u64,
            e => self.errors.push(format!("{what}: {e}")),
        }
    }
}

/// One client's stream as the executor runs it ([`Session`]): batch by batch,
/// each one folded into the client's [`ClientOutcome`].
struct Feed<B: FabricBackend> {
    stream: Stream,
    /// Operations per batch: one for the blocking drive.
    batch: usize,
    blocking: bool,
    must_find: bool,
    /// Operations left in the current half of the stream, and the halves
    /// after it.  A run whose clients meet at the midpoint runs each half in
    /// an executor call of its own and sets `left` between them.
    left: usize,
    halves: VecDeque<usize>,
    /// The operations of the batch in flight, and its one operation when
    /// driven blocking (to name a failed operation).
    in_flight: (usize, Option<PipelineOp>),
    issued: usize,
    /// Client 0 samples the tree's shape every `sample_every` operations and
    /// reads the cache counters at its half-way point.
    sampler: Option<Arc<Cluster<B>>>,
    sample_every: usize,
    next_sample: usize,
    out: ClientOutcome,
}

impl<B: FabricBackend> Session for Feed<B> {
    type Batch = Vec<PipelineOp>;

    fn next_batch(&mut self) -> Option<Vec<PipelineOp>> {
        while self.left == 0 {
            self.left = self.halves.pop_front()?;
            if let Some(cluster) = &self.sampler {
                self.out.mid_cache_counts = cache_counts(cluster);
            }
        }
        if let Some(cluster) = self.sampler.as_ref().filter(|_| self.issued >= self.next_sample) {
            self.next_sample += self.sample_every;
            let skip = self.out.shape_timeline.len() * SHAPE_WINDOW;
            if let Ok(sample) = cluster.shape_audit_sampled(SHAPE_WINDOW, skip) {
                self.out.shape_timeline.push(sample);
            }
        }
        let n = self.left.min(self.batch);
        self.left -= n;
        self.issued += n;
        let ops: Vec<PipelineOp> = (0..n).map(|_| self.stream.next_op()).collect();
        self.in_flight = (n, self.blocking.then(|| ops[0]));
        Some(ops)
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        let report = match (report, self.in_flight) {
            (Ok(report), _) => report,
            (Err(e), (n, Some(op))) => return self.out.failed(n, format_args!("{op:?}"), e),
            (Err(e), (n, None)) => return self.out.failed(n, "pipelined batch", e),
        };
        for r in &report.results {
            let (found, mut stats) = as_blocking(r);
            if self.blocking {
                // A batch of one is a blocking call: the batch's latency and
                // verb counts are the operation's.
                stats.latency_ns = report.elapsed_ns;
                stats.round_trips = report.stats.round_trips;
                stats.bytes_written = report.stats.bytes_written;
            }
            self.out.record(&r.op, (found, stats), self.must_find);
        }
        // The blocking path's overlap window is the whole call, tail included.
        self.out.overlap.merge(&match self.blocking {
            true => overlap_from_stats(&report.stats, report.elapsed_ns),
            false => report.overlap,
        });
    }
}

/// Sum of level-1 (hits, misses) over every compute server's cache.
fn cache_counts<B: FabricBackend>(cluster: &Cluster<B>) -> (u64, u64) {
    let (mut hits, mut misses) = (0, 0);
    for cs in 0..cluster.fabric().compute_servers() as u16 {
        let stats = cluster.cache(cs).stats();
        hits += stats.hits();
        misses += stats.misses();
    }
    (hits, misses)
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Shape samples client 0 takes over a run, and the parents per level each
/// one audits.  God-mode reads charge no virtual time, so sampling does not
/// perturb the run.
const SHAPE_SAMPLES: usize = 8;
const SHAPE_WINDOW: usize = 16;

/// Run one experiment to completion on backend `B`.
///
/// # Panics
/// Panics on an invalid experiment (a spec that fails its own `validate`, a
/// pipeline depth of zero, a re-budget on a run that has no midpoint) and if the bulkload itself
/// fails; operations of the measured phase never panic the run.
pub fn run<B: FabricBackend>(exp: &Experiment) -> RunReport {
    let threads = exp.threads;
    let (source, ops_per_thread) = exp
        .source
        .sized(threads, exp.ops_per_thread)
        .unwrap_or_else(|e| panic!("{}: invalid source: {e}", exp.name));
    let drive = exp.drive;
    assert!(
        drive != DrivePath::Pipelined(0),
        "{}: pipeline depth must be at least 1",
        exp.name
    );
    let batch = match drive {
        DrivePath::Blocking => 1,
        DrivePath::Pipelined(depth) if source.is_scenario() => depth * 8,
        DrivePath::Pipelined(_) => ops_per_thread,
    };
    // A stream handed to the scheduler whole has no midpoint to stop at.
    let halves = if batch >= ops_per_thread {
        vec![ops_per_thread]
    } else {
        vec![ops_per_thread / 2, ops_per_thread - ops_per_thread / 2]
    };
    assert!(
        exp.rebudget.is_none() || halves.len() == 2,
        "{}: a stream pipelined in one call has no midpoint to re-budget at",
        exp.name
    );

    let cluster = Cluster::<B>::new_on(
        ClusterConfig {
            fabric: exp.fabric.clone(),
            tree: exp.tree.clone(),
        },
        exp.options,
    );
    cluster
        .bulkload(source.bulkload_keys().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");
    let audit_baseline = cluster.shape_audit().expect("shape audit");
    let compute_servers = exp.fabric.compute_servers;
    if exp.cold_start {
        for cs in 0..compute_servers as u16 {
            cluster.cache(cs).clear();
        }
    }
    let rebudget_to = exp
        .rebudget
        .map(|factor| cluster.cache(0).capacity_bytes() / factor.max(1));

    let depth = match drive {
        DrivePath::Blocking => 1,
        DrivePath::Pipelined(depth) => depth,
    };
    // Clients meet at the midpoint between two executor calls; otherwise the
    // whole stream is one call, and client 0 reads the cache counters as it
    // passes its own half-way point.
    let meet = source.is_scenario() || rebudget_to.is_some();
    let sample_every = (ops_per_thread / SHAPE_SAMPLES).max(1);
    let feeds = (0..threads).map(|t| Feed {
        stream: source.stream(t as u64),
        batch,
        blocking: drive == DrivePath::Blocking,
        must_find: source.must_find(),
        left: 0,
        halves: match meet {
            true => VecDeque::new(),
            false => halves[1..].iter().copied().collect(),
        },
        in_flight: (0, None),
        issued: 0,
        sampler: (t == 0).then(|| Arc::clone(&cluster)),
        sample_every,
        next_sample: sample_every,
        out: ClientOutcome::default(),
    });
    let calls = match meet {
        true => halves.clone(),
        false => vec![halves[0]],
    };
    // Each executor call runs one half of every stream (the whole of it when
    // nobody meets); between two, client 0 takes the midpoint's readings.
    let run_halves = |mut clients: Vec<TreeClient<B>>,
                      mut feeds: Vec<Feed<B>>,
                      meet: &dyn Fn(&mut Feed<B>)| {
        for (call, &budget) in calls.iter().enumerate() {
            if call == 1 {
                meet(&mut feeds[0]);
            }
            for feed in &mut feeds {
                feed.left = budget;
            }
            run_clients(&mut clients, &mut feeds, depth);
        }
        let finish = |mut feed: Feed<B>| {
            feed.out.turnovers = feed.stream.turnovers();
            feed.out
        };
        feeds.into_iter().map(finish).collect::<Vec<_>>()
    };
    let midpoint = |feed: &mut Feed<B>| {
        feed.out.mid_cache_counts = cache_counts(&cluster);
        if let Some(bytes) = rebudget_to {
            cluster.set_cache_budget(bytes);
        }
    };
    let client = |t: usize| cluster.client((t % compute_servers) as u16);

    let fabric_before = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();
    let outcomes: Vec<ClientOutcome> = if B::VIRTUAL_CLOCK {
        // Every client on one executor, on this thread.
        run_halves((0..threads).map(client).collect(), feeds.collect(), &midpoint)
    } else {
        // One OS thread per client, each driving its own executor; they meet
        // at an OS barrier, which a real clock can afford.
        let (start, mid) = (Barrier::new(threads), Barrier::new(threads));
        let (run_halves, midpoint, client) = (&run_halves, &midpoint, &client);
        thread::scope(|scope| {
            let threads: Vec<_> = feeds
                .enumerate()
                .map(|(t, feed)| {
                    let (start, mid) = (&start, &mid);
                    scope.spawn(move || {
                        let client = client(t);
                        start.wait();
                        let meet = |feed: &mut Feed<B>| {
                            mid.wait();
                            if t == 0 {
                                midpoint(feed);
                            }
                            mid.wait();
                        };
                        run_halves(vec![client], vec![feed], &meet).remove(0)
                    })
                })
                .collect();
            let joined = threads.into_iter().map(|t| t.join().expect("client thread panicked"));
            joined.collect()
        })
    };
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let fabric = cluster
        .fabric()
        .metrics()
        .snapshot()
        .delta_since(&fabric_before);

    let mut agg = ThroughputAggregator::new();
    let mut total = ClientOutcome {
        turnovers: f64::INFINITY,
        ..ClientOutcome::default()
    };
    for (t, o) in outcomes.into_iter().enumerate() {
        agg.add(&ThreadReport {
            ops: o.latency.count(),
            latency: o.latency,
        });
        total.write_round_trips.merge(&o.write_round_trips);
        total.read_retries.merge(&o.read_retries);
        total.write_sizes.merge(&o.write_sizes);
        for (round_trips, class) in &o.write_classes {
            total.write_classes.entry(*round_trips).or_default().merge(class);
        }
        total.cache_hits += o.cache_hits;
        total.handovers += o.handovers;
        total.overlap.merge(&o.overlap);
        total.backpressure_ops += o.backpressure_ops;
        total.errors.extend(o.errors);
        total.turnovers = total.turnovers.min(o.turnovers);
        if t == 0 {
            total.shape_timeline = o.shape_timeline;
            total.mid_cache_counts = o.mid_cache_counts;
        }
    }

    // What the measured phase left in the caches and the offload gauges is
    // read before the re-read below adds its own hits and placements.
    let (mid_hits, mid_misses) = total.mid_cache_counts;
    let (end_hits, end_misses) = cache_counts(&cluster);
    let offload = cluster.offload_stats();

    // Close the stale window: every compute server waits out and applies its
    // coherence backlog, then re-reads the whole key space.  A stale hit in
    // that pass means an invalidation failed to scrub a route.  Clients are
    // created one at a time so each advances the virtual clock alone.
    for cs in 0..compute_servers as u16 {
        cluster.client(cs).quiesce_coherence();
    }
    let stale_before = cluster.coherence_stats().stale_hits;
    let span = source.live_key_bound(threads, ops_per_thread);
    for cs in 0..compute_servers as u16 {
        if let Err(e) = cluster.client(cs).range(0, span) {
            total
                .errors
                .push(format!("post-drain re-read on server {cs}: {e}"));
        }
    }
    let stale_hits_after_drain = cluster.coherence_stats().stale_hits - stale_before;

    let (mut pressure_evictions, mut cache_refreshes) = (0, 0);
    let (mut top_hits, mut top_misses) = (0, 0);
    for cs in 0..compute_servers as u16 {
        let stats = cluster.cache(cs).stats();
        pressure_evictions += stats.pressure_evictions();
        cache_refreshes += stats.refreshes();
        top_hits += stats.top_hits();
        top_misses += stats.top_misses();
    }
    let summary = agg.finish(elapsed);
    RunReport {
        name: exp.name.clone(),
        drive,
        summary,
        fabric,
        backpressure_ops: total.backpressure_ops,
        cache_hit_ratio: total.cache_hits as f64 / summary.ops.max(1) as f64,
        handover_fraction: total.handovers as f64 / total.write_round_trips.total().max(1) as f64,
        write_round_trips: total.write_round_trips,
        read_retries: total.read_retries,
        write_sizes: total.write_sizes,
        write_classes: total.write_classes,
        overlap: total.overlap,
        turnovers: total.turnovers,
        shape_timeline: total.shape_timeline,
        hit_before: ratio(mid_hits, mid_misses),
        hit_after: ratio(
            end_hits.saturating_sub(mid_hits),
            end_misses.saturating_sub(mid_misses),
        ),
        audit_baseline,
        audit: cluster.shape_audit().expect("shape audit"),
        census: cluster.node_census().expect("census"),
        nodes_carved: cluster.pool().nodes_carved(),
        nodes_outstanding: cluster.nodes_outstanding(),
        space: cluster.space_stats(),
        reclaim: cluster.reclaim_stats(),
        coherence: cluster.coherence_stats(),
        epoch: cluster.epoch_stats(),
        offload,
        backpressure: cluster.pool().backpressure().snapshot(),
        pressure_evictions,
        cache_refreshes,
        top_hit_ratio: ratio(top_hits, top_misses),
        stale_hits_after_drain,
        errors: total.errors,
    }
}

/// [`run`] on the backend `--backend sim|threaded` names (default `sim`, the
/// virtual-time simulator).
pub fn run_with_backend(args: &Args, exp: &Experiment) -> RunReport {
    match args.get_or("backend", "sim".to_string()).as_str() {
        "sim" => run::<Fabric>(exp),
        "threaded" => run::<ThreadedFabric>(exp),
        other => Args::fail(&format!(
            "unknown --backend {other} (expected sim|threaded)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile_spec;
    use sherman_workload::ScenarioShape;

    /// One small experiment per kind of source, two clients each.
    fn one_per_source() -> Vec<Experiment> {
        let mut paper = Experiment::paper("workload", TreeOptions::sherman());
        paper.source.set_key_space(1 << 12);
        paper.ops_per_thread = 200;
        paper.drive = DrivePath::Pipelined(4);
        let mut churn = Experiment::churn("churn", TreeOptions::sherman());
        if let Source::Churn { spec, turnover } = &mut churn.source {
            spec.window = 400;
            *turnover = 2.0;
        }
        let shape = ScenarioShape::FlashCrowd { hot_pct: 60 };
        let mut scenario =
            Experiment::scenario("scenario", hostile_spec(shape), DrivePath::Blocking);
        scenario.source.set_key_space(1 << 12);
        scenario.ops_per_thread = 300;
        scenario.rebudget = Some(2);
        let mut all = vec![paper, churn, scenario];
        for exp in &mut all {
            exp.threads = 2;
        }
        all
    }

    #[test]
    fn one_client_runs_repeat_exactly() {
        for mut exp in one_per_source() {
            exp.threads = 1;
            let (a, b) = (run::<Fabric>(&exp), run::<Fabric>(&exp));
            let summary = |r: &RunReport| format!("{:?}", r.summary);
            assert_eq!(summary(&a), summary(&b), "{}", exp.name);
            assert_eq!(a.fabric, b.fabric, "{}", exp.name);
            assert!(a.summary.ops > 0 && a.errors.is_empty(), "{:?}", a.errors);
        }
    }

    #[test]
    fn every_source_completes_on_the_threaded_backend() {
        for exp in one_per_source() {
            let sim = run::<Fabric>(&exp).expect_clean();
            let threaded = run::<ThreadedFabric>(&exp).expect_clean();
            assert_eq!(threaded.summary.ops, sim.summary.ops, "{}", exp.name);
            assert_eq!(threaded.census.total(), threaded.nodes_outstanding);
            assert_eq!(threaded.stale_hits_after_drain, 0, "{}", exp.name);
        }
    }

    /// Many clients on the simulator run on one executor, so their run is a
    /// pure function of the experiment: 22 clients of the paper's mix report
    /// the same figures twice, and again when run from another thread.
    #[test]
    fn a_run_of_many_clients_repeats_exactly() {
        let report = |options| {
            let mut exp = Experiment::paper("many", options);
            exp.threads = 22;
            exp.ops_per_thread = 100;
            format!("{:?}", run::<Fabric>(&exp).expect_clean())
        };
        for options in [TreeOptions::sherman(), TreeOptions::fg_plus()] {
            let first = report(options);
            assert_eq!(report(options), first);
            let spawned = thread::spawn(move || report(options)).join();
            assert_eq!(spawned.expect("the run completes"), first);
        }
    }

    #[test]
    #[should_panic(expected = "no midpoint to re-budget at")]
    fn a_rebudget_needs_a_midpoint() {
        let mut exp = Experiment::paper("whole-stream", TreeOptions::sherman());
        exp.drive = DrivePath::Pipelined(4);
        exp.rebudget = Some(4);
        run::<Fabric>(&exp);
    }

    #[test]
    fn resizing_the_key_space_keeps_the_bulkloaded_share() {
        let mut exp = Experiment::paper("resize", TreeOptions::sherman());
        for key_space in [1u64 << 15, 100_000, 1 << 19] {
            exp.source.set_key_space(key_space);
            let spec = exp.source.workload_mut();
            assert_eq!(spec.key_space, key_space);
            assert_eq!(spec.bulkload_keys, (key_space as f64 * 0.8) as u64);
        }
    }
}
