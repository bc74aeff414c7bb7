//! Runs one workload in this process: set-up, warm-up, the measured phase,
//! the checks on the final tree, and (traced runs) the layer probes.
//!
//! Everything here reaches the system through public items only: operations
//! through `TreeClient`, counters through the accessors on `Cluster`, host
//! time by timing the calls.  Two clocks are kept apart throughout — *fabric*
//! time (`TreeClient::now()`: virtual ns on `Fabric`, real ns on
//! `ThreadedFabric`) and *host* time (`Instant`).

use crate::calib::Kernel;
use crate::probes;
use crate::report::{Metrics, RunResult};
use crate::spec::{Backend, Drive, WorkloadDef};
use crate::stats;
use crate::stream::{self, BitSet, Kind, Streams};
use crate::sys::{self, Usage};
use crate::trace::{self, host_ns, Span, SpanRing, RUN_SPAN};
use sherman_repro::sherman::{
    overlap_from_stats, Cluster, ClusterConfig, OpOutput, OpStats, PipelineOp, PipelinedResult,
    TreeClient, TreeOptions,
};
use sherman_repro::sherman_sim::{ClientStats, Fabric, FabricBackend, ThreadedFabric};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Fresh clusters built, loaded and warmed per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// A blocking worker looks at the host clock every this many operations.
const CHECK_EVERY: usize = 64;
/// Host throughput is the median over windows of this length; a traced run
/// records spans in every other window.
const WINDOW: Duration = Duration::from_millis(250);
/// Spans kept per worker (the latest ones).
const SPAN_RING: usize = 20_000;
/// Entries asked for per call when the final tree is scanned.
const VERIFY_SCAN: usize = 8_192;

/// How long a phase of client threads lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until the host clock says so (the driver's `--seconds`).
    Seconds(f64),
    /// A fixed number of operations per thread, so that counts and fabric
    /// time repeat exactly (`--smoke`, `selfcheck`).
    Ops(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct RunRequest {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    pub budget: Budget,
    /// Record spans and report the per-layer table instead of the
    /// end-to-end one.  A traced run on a [`Budget::Seconds`] also runs the
    /// layer probes; a smoke run (`Budget::Ops`) skips them.
    pub trace: bool,
}

/// Where trace files go: `results/` beside the benchmark's manifest.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

pub fn run_workload(req: RunRequest) -> Result<RunResult, String> {
    // A two-client simulator run is bimodal when its threads float between
    // CPUs (the clock hand-off then crosses cores); pinned, it is steady.
    let pinned_cpu = match req.def.backend {
        Backend::Sim => Some(sys::pin_to_one_cpu().map_err(|e| format!("pinned=false: {e}"))?),
        Backend::Threaded => None,
    };
    // A time-bounded run gets a stream it cannot outrun (the cap is about
    // three times what the reference box gets through): a run that reaches
    // the end of its stream stops there, and `workload.stream_used_share`
    // says so.
    let run_ops = match req.budget {
        Budget::Seconds(s) => (s * req.def.ops_per_second_cap as f64).ceil() as usize,
        Budget::Ops(n) => n,
    };
    let streams = stream::generate(req.def, req.seed, run_ops);
    let mut result = match req.def.backend {
        Backend::Sim => run_on::<Fabric>(&req, &streams),
        Backend::Threaded => run_on::<ThreadedFabric>(&req, &streams),
    };
    result.pinned_cpu = pinned_cpu;
    Ok(result)
}

fn build_cluster<B: FabricBackend>(def: &WorkloadDef) -> Arc<Cluster<B>> {
    let mut config = ClusterConfig::paper_scaled(2, 2);
    config.tree.node_size = def.geometry.node_size;
    config.tree.chunk_bytes = def.geometry.chunk_bytes;
    config.tree.cache_bytes = def.geometry.cache_bytes;
    // No technique flag is set: whatever `sherman()` defaults to is measured.
    Cluster::new_on(config, TreeOptions::sherman())
}

// ----------------------------------------------------------------------
// One phase of client threads
// ----------------------------------------------------------------------

/// Per-thread sums over the operations of one phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed operations by kind (`Kind as usize`).
    failed_kinds: [u64; 4],
    /// Fabric-time latency samples: lookups, writes, scans.
    latency: [Vec<u32>; 3],
    write_round_trips: Vec<u16>,
    inserts: u64,
    fresh_inserts: u64,
    /// Keys the issuing thread relies on that its scans passed over.
    scan_missed_keys: u64,
    round_trips: u64,
    write_bytes: u64,
    lock_retries: u64,
    read_retries: u64,
    handovers: u64,
    /// Host ns and count of traced calls per kind (`Kind as usize`), and of
    /// pipelined batches per operation in slot 4.
    host_ns: [u64; 5],
    host_calls: [u64; 5],
}

const PIPELINED_SLOT: usize = 4;

/// `Vec::push` that grows a full vector by a quarter instead of doubling it:
/// a time-bounded run ends at an unknown sample count, and doubling would make
/// `peak_rss_mb` jump by the size of the whole vector when a faster run crosses
/// a power of two.
fn push_sample<T>(samples: &mut Vec<T>, value: T) {
    if samples.len() == samples.capacity() {
        samples.reserve_exact(samples.len() / 4 + 1_024);
    }
    samples.push(value);
}

fn class_of(kind: Kind) -> usize {
    match kind {
        Kind::Lookup => 0,
        Kind::Insert | Kind::Delete => 1,
        Kind::Range => 2,
    }
}

impl Tally {
    fn with_capacity(ops: usize) -> Self {
        Tally {
            latency: [
                Vec::with_capacity(ops),
                Vec::with_capacity(ops),
                Vec::with_capacity(ops / 8),
            ],
            write_round_trips: Vec::with_capacity(ops),
            ..Tally::default()
        }
    }

    fn record(&mut self, kind: Kind, ok: bool, stats: &OpStats) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.failed_kinds[kind as usize] += u64::from(!ok);
        self.round_trips += stats.round_trips;
        self.read_retries += stats.read_retries;
        push_sample(
            &mut self.latency[class_of(kind)],
            stats.latency_ns.min(u32::MAX as u64) as u32,
        );
        if matches!(kind, Kind::Insert | Kind::Delete) {
            push_sample(
                &mut self.write_round_trips,
                stats.round_trips.min(u16::MAX as u64) as u16,
            );
            self.write_bytes += stats.bytes_written;
            self.lock_retries += stats.lock_retries;
            self.handovers += u64::from(stats.handed_over);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (mine, theirs) in self.failed_kinds.iter_mut().zip(other.failed_kinds) {
            *mine += theirs;
        }
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.extend(theirs);
        }
        self.write_round_trips.extend(other.write_round_trips);
        self.inserts += other.inserts;
        self.fresh_inserts += other.fresh_inserts;
        self.scan_missed_keys += other.scan_missed_keys;
        self.round_trips += other.round_trips;
        self.write_bytes += other.write_bytes;
        self.lock_retries += other.lock_retries;
        self.read_retries += other.read_retries;
        self.handovers += other.handovers;
        for i in 0..self.host_ns.len() {
            self.host_ns[i] += other.host_ns[i];
            self.host_calls[i] += other.host_calls[i];
        }
    }
}

/// One closed host-time window of a phase: what all its workers did in it.
#[derive(Debug, Clone, Copy)]
struct Window {
    index: u64,
    ops: u64,
    /// Wall-clock length.
    ns: u64,
    /// CPU the process used in it, all threads together.
    cpu_ns: u64,
    /// The box's speed in it ([`Kernel::speed`]): the mean of a reading taken
    /// just before it and one taken just after.
    speed: f64,
}

impl Window {
    /// Operations per reference second.  Seconds of CPU time when `by_cpu` (a
    /// pinned run, whose threads share one CPU: on a quiet box both clocks
    /// agree, on a busy one only the wall clock counts the time others took),
    /// of wall time otherwise; either way divided by the box's speed.
    fn rate(&self, by_cpu: bool) -> f64 {
        let ns = if by_cpu { self.cpu_ns } else { self.ns };
        self.ops as f64 * 1e9 / ns.max(1) as f64 / self.speed
    }
}

/// Splits a worker's phase into [`WINDOW`]-long pieces of host time.  Every
/// worker follows the window index (tracing switches on it); worker 0 also
/// keeps the phase's windows, and reads the box's speed between them.
struct WindowClock {
    start: Instant,
    current: u64,
    /// This worker's operations already added to the phase's count.
    reported: usize,
    keeper: Option<WindowKeeper>,
}

/// The open window and the closed ones.
struct WindowKeeper {
    kernel: Kernel,
    opened_ns: u64,
    opened_cpu_ns: u64,
    opened_ops: u64,
    opened_speed: f64,
    closed: Vec<Window>,
}

impl WindowKeeper {
    /// Close the window `index` and open the next.  The speed reading between
    /// the two is in neither.
    fn close(&mut self, index: u64, start: Instant, phase_ops: &AtomicU64) {
        let ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = sys::process_cpu_ns();
        let ops = phase_ops.load(Ordering::Relaxed);
        let speed = self.kernel.speed();
        // The window a phase ends in can be empty.
        if ops > self.opened_ops {
            self.closed.push(Window {
                index,
                ops: ops - self.opened_ops,
                ns: ns - self.opened_ns,
                cpu_ns: cpu_ns - self.opened_cpu_ns,
                speed: (self.opened_speed + speed) / 2.0,
            });
        }
        self.opened_ns = start.elapsed().as_nanos() as u64;
        self.opened_cpu_ns = sys::process_cpu_ns();
        self.opened_ops = phase_ops.load(Ordering::Relaxed);
        self.opened_speed = speed;
    }
}

impl WindowClock {
    fn new(start: Instant, keeper: bool) -> Self {
        WindowClock {
            start,
            current: 0,
            reported: 0,
            keeper: keeper.then(|| {
                let mut kernel = Kernel::new();
                let opened_speed = kernel.speed();
                WindowKeeper {
                    kernel,
                    opened_ns: start.elapsed().as_nanos() as u64,
                    opened_cpu_ns: sys::process_cpu_ns(),
                    opened_ops: 0,
                    opened_speed,
                    closed: Vec::with_capacity(1_024),
                }
            }),
        }
    }

    /// Note that `done` operations of this worker were complete at `now`, by
    /// adding the new ones to `phase_ops`; returns the index of the window
    /// `now` falls in.
    fn tick(&mut self, now: Instant, done: usize, phase_ops: &AtomicU64) -> u64 {
        phase_ops.fetch_add((done - self.reported) as u64, Ordering::Relaxed);
        self.reported = done;
        let ns = now.duration_since(self.start).as_nanos() as u64;
        let index = ns / WINDOW.as_nanos() as u64;
        if index != self.current {
            if let Some(keeper) = &mut self.keeper {
                keeper.close(self.current, self.start, phase_ops);
            }
            self.current = index;
        }
        index
    }

    /// The phase's windows, the one still open included (worker 0 only).
    fn finish(mut self, done: usize, phase_ops: &AtomicU64) -> Vec<Window> {
        phase_ops.fetch_add(done.saturating_sub(self.reported) as u64, Ordering::Relaxed);
        match self.keeper.take() {
            Some(mut keeper) => {
                keeper.close(self.current, self.start, phase_ops);
                keeper.closed
            }
            None => Vec::new(),
        }
    }
}

struct WorkerOut {
    tally: Tally,
    /// Stream position after the phase.
    position: usize,
    windows: Vec<Window>,
    host: Duration,
    fabric_start: u64,
    fabric_end: u64,
    fabric: ClientStats,
    spans: Option<SpanRing>,
    /// Host ns at which the worker began and ended, for its own span.
    host_span: (u64, u64),
}

struct PhaseOut {
    workers: Vec<WorkerOut>,
}

impl PhaseOut {
    fn positions(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.position).collect()
    }

    fn fabric_span_ns(&self) -> u64 {
        let start = self
            .workers
            .iter()
            .map(|w| w.fabric_start)
            .min()
            .unwrap_or(0);
        let end = self.workers.iter().map(|w| w.fabric_end).max().unwrap_or(0);
        end.saturating_sub(start)
    }
}

/// What every worker of a phase shares.
struct PhaseCtx<'a> {
    def: &'a WorkloadDef,
    streams: &'a Streams,
    bulkloaded: &'a BitSet,
    budget: Budget,
    stop: AtomicBool,
    /// Operations complete so far, all workers together, as of each one's
    /// latest look at the clock.
    ops_done: AtomicU64,
    /// Host-time zero of the run and whether spans are recorded.
    origin: Instant,
    trace: bool,
}

/// What one worker knows about which keys are in the tree.  Other threads
/// never remove a key it relies on: YCSB streams have no deletes, and churn
/// threads own disjoint keys.
struct Presence {
    /// Bulkloaded keys this worker relies on and has not deleted: all of
    /// them under YCSB, its own share of the window under churn.
    loaded: BitSet,
    /// Keys this worker inserted and has not deleted.
    inserted: BitSet,
    /// Keys no other worker inserts or deletes (churn): one of them that this
    /// worker does not hold must not be answered.
    owned: Option<BitSet>,
    /// Whether an own insert can be relied on by a later lookup.  Not under
    /// pipelining: results arrive in completion order, so a lookup can have
    /// read the leaf before an insert that completed first.
    rely_on_own: bool,
}

impl Presence {
    /// What worker `thread` knows when it stands at `position` of its stream.
    fn new(cx: &PhaseCtx<'_>, thread: usize, position: usize, rely_on_own: bool) -> Self {
        let stream = &cx.streams.per_thread[thread];
        let mut loaded = cx.bulkloaded.clone();
        let owned = cx.streams.disjoint.then(|| {
            let mut owned = BitSet::with_capacity(cx.streams.key_bound);
            stream
                .iter()
                .filter(|op| op.kind() == Kind::Insert)
                .for_each(|op| owned.insert(op.key()));
            loaded.intersect_with(&owned);
            owned
        });
        let mut presence = Presence {
            loaded,
            inserted: BitSet::with_capacity(cx.streams.key_bound),
            owned,
            rely_on_own,
        };
        // What an earlier phase (the warm-up) did.
        for op in &stream[cx.streams.start..position] {
            match op.kind() {
                Kind::Insert => {
                    presence.note_insert(op.key());
                }
                Kind::Delete => presence.note_delete(op.key()),
                Kind::Lookup | Kind::Range => {}
            }
        }
        presence
    }

    fn must_exist(&self, key: u64) -> bool {
        self.loaded.contains(key) || (self.rely_on_own && self.inserted.contains(key))
    }

    /// An own key this worker deleted, or has yet to insert.
    fn must_not_exist(&self, key: u64) -> bool {
        self.rely_on_own
            && self.owned.as_ref().is_some_and(|o| o.contains(key))
            && !self.loaded.contains(key)
            && !self.inserted.contains(key)
    }

    /// Records an insert; returns whether the key was new to this worker and
    /// to bulkload.
    fn note_insert(&mut self, key: u64) -> bool {
        let fresh = !self.loaded.contains(key) && !self.inserted.contains(key);
        self.inserted.insert(key);
        fresh
    }

    fn note_delete(&mut self, key: u64) {
        self.loaded.remove(key);
        self.inserted.remove(key);
    }

    fn lookup_ok(&self, key: u64, value: Option<u64>) -> bool {
        match value {
            Some(v) => stream::value_ok(key, v) && !self.must_not_exist(key),
            None => !self.must_exist(key),
        }
    }

    /// A well-formed scan answer that holds no key this worker has deleted.
    fn scan_ok(&self, start: u64, count: usize, rows: &[(u64, u64)]) -> bool {
        stream::scan_ok(start, count, rows) && !rows.iter().any(|r| self.must_not_exist(r.0))
    }

    /// Keys this worker relies on that lie in the stretch a scan from `start`
    /// covered and are not in its answer.  A full answer covers up to its
    /// last key, a short one up to `key_bound` (the end of the tree).  Not a
    /// failed operation: at this commit scans routed by a cached level-1
    /// copy that outlived a merge do pass keys over (README, "Findings"), and
    /// a workload must not fail on what its parent commit does.  Counted, and
    /// `compare` calls any increase worse.
    fn scan_missed(&self, start: u64, count: usize, rows: &[(u64, u64)], key_bound: u64) -> u64 {
        let end = match rows.last() {
            Some(&(last, _)) if rows.len() == count => last + 1,
            _ => key_bound,
        };
        (start..end)
            .filter(|&k| self.must_exist(k) && rows.binary_search_by_key(&k, |r| r.0).is_err())
            .count() as u64
    }
}

fn run_phase<B: FabricBackend>(
    cluster: &Arc<Cluster<B>>,
    cx: &PhaseCtx<'_>,
    start: &[usize],
) -> PhaseOut {
    let barrier = Barrier::new(cx.def.threads);
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cx.def.threads)
            .map(|t| {
                let barrier = &barrier;
                let position = start[t];
                scope.spawn(move || {
                    // Created on the thread that uses it: the handle
                    // registers this thread with the simulator's clock.
                    let mut client = cluster.client((t % 2) as u16);
                    // Every worker registers before any starts, so that
                    // their operations overlap on the clock from the first.
                    barrier.wait();
                    let out = match cx.def.drive {
                        Drive::Blocking => blocking_worker(&mut client, cx, t, position),
                        Drive::Pipelined { depth, batch } => {
                            pipelined_worker(&mut client, cx, t, position, depth, batch)
                        }
                    };
                    // Dropped here, before the join: a registered client that
                    // has stopped waiting would stall the clock for the rest.
                    drop(client);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    PhaseOut { workers }
}

/// State common to both worker loops.
struct WorkerState {
    tally: Tally,
    presence: Presence,
    windows: WindowClock,
    spans: Option<SpanRing>,
    next_span_id: u32,
    lane: u32,
    began: Instant,
    deadline: Option<Instant>,
    tracing: bool,
}

impl WorkerState {
    fn new(cx: &PhaseCtx<'_>, thread: usize, position: usize, rely_on_own: bool) -> Self {
        let began = Instant::now();
        let expected = match cx.budget {
            Budget::Ops(n) => n,
            Budget::Seconds(_) => cx.streams.per_thread[thread].len().min(1 << 20),
        };
        WorkerState {
            tally: Tally::with_capacity(expected),
            presence: Presence::new(cx, thread, position, rely_on_own),
            windows: WindowClock::new(began, thread == 0),
            spans: cx.trace.then(|| SpanRing::new(SPAN_RING)),
            // Worker `t` is span `2 + t`; its operations count up from a
            // range of their own.
            next_span_id: (thread as u32 + 1) << 24,
            lane: thread as u32 + 1,
            began,
            deadline: match cx.budget {
                Budget::Seconds(s) => Some(began + Duration::from_secs_f64(s)),
                Budget::Ops(_) => None,
            },
            tracing: false,
        }
    }

    /// Look at the host clock.  Returns whether the phase is over.
    fn check(&mut self, cx: &PhaseCtx<'_>, done: usize) -> bool {
        let now = Instant::now();
        let window = self.windows.tick(now, done, &cx.ops_done);
        self.tracing = cx.trace && window % 2 == 1;
        if cx.stop.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| now >= d) {
            cx.stop.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn span_id(&mut self) -> u32 {
        self.next_span_id += 1;
        self.next_span_id
    }

    fn finish<B: FabricBackend>(
        self,
        cx: &PhaseCtx<'_>,
        client: &TreeClient<B>,
        position: usize,
        fabric_start: u64,
        stats_before: &ClientStats,
    ) -> WorkerOut {
        let windows = self
            .windows
            .finish(self.tally.attempted as usize, &cx.ops_done);
        WorkerOut {
            tally: self.tally,
            position,
            windows,
            host: self.began.elapsed(),
            fabric_start,
            fabric_end: client.now(),
            fabric: client.fabric_stats().delta_since(stats_before),
            spans: self.spans,
            host_span: (
                self.began.duration_since(cx.origin).as_nanos() as u64,
                host_ns(cx.origin),
            ),
        }
    }
}

fn worker_span_id(thread: usize) -> u32 {
    RUN_SPAN + 1 + thread as u32
}

fn blocking_worker<B: FabricBackend>(
    client: &mut TreeClient<B>,
    cx: &PhaseCtx<'_>,
    thread: usize,
    start: usize,
) -> WorkerOut {
    let stream = &cx.streams.per_thread[thread];
    let range_size = cx.streams.range_size;
    let mut st = WorkerState::new(cx, thread, start, true);
    let stats_before = client.fabric_stats();
    let fabric_start = client.now();
    let mut position = start;
    let mut done = 0usize;
    loop {
        if done.is_multiple_of(CHECK_EVERY) && st.check(cx, done) {
            break;
        }
        if matches!(cx.budget, Budget::Ops(n) if done == n) {
            break;
        }
        if position == stream.len() {
            cx.stop.store(true, Ordering::Relaxed);
            break;
        }
        let op = stream[position];
        let (kind, key) = (op.kind(), op.key());
        let traced = st.tracing.then(|| (host_ns(cx.origin), client.now()));
        let outcome: Result<(bool, OpStats), _> = match kind {
            Kind::Lookup => client
                .lookup(key)
                .map(|(value, s)| (st.presence.lookup_ok(key, value), s)),
            Kind::Insert => client
                .insert(key, stream::value_for(key, position as u64))
                .map(|s| (true, s)),
            // Only churn streams delete, and only keys they hold.
            Kind::Delete => client.delete(key),
            Kind::Range => client.range(key, range_size).map(|(rows, s)| {
                let ok = st.presence.scan_ok(key, range_size, &rows);
                if ok {
                    st.tally.scan_missed_keys +=
                        st.presence
                            .scan_missed(key, range_size, &rows, cx.streams.key_bound);
                }
                (ok, s)
            }),
        };
        match kind {
            Kind::Insert => {
                st.tally.inserts += 1;
                st.tally.fresh_inserts += u64::from(st.presence.note_insert(key));
            }
            Kind::Delete => st.presence.note_delete(key),
            Kind::Lookup | Kind::Range => {}
        }
        let stats = match outcome {
            Ok((ok, s)) => {
                st.tally.record(kind, ok, &s);
                s
            }
            Err(_) => {
                st.tally.attempted += 1;
                st.tally.failed += 1;
                st.tally.failed_kinds[kind as usize] += 1;
                OpStats::default()
            }
        };
        if let Some((host_start, fabric_at)) = traced {
            let host_end = host_ns(cx.origin);
            st.tally.host_ns[kind as usize] += host_end - host_start;
            st.tally.host_calls[kind as usize] += 1;
            let name = match kind {
                Kind::Lookup => "lookup",
                Kind::Insert => "insert",
                Kind::Delete => "delete",
                Kind::Range => "range",
            };
            let span = Span {
                fabric_start_ns: fabric_at,
                fabric_end_ns: fabric_at + stats.latency_ns,
                round_trips: stats.round_trips as u32,
                bytes_read: stats.bytes_read as u32,
                bytes_written: stats.bytes_written as u32,
                retries: (stats.read_retries + stats.lock_retries) as u32,
                ..Span::host_only(
                    name,
                    st.span_id(),
                    worker_span_id(thread),
                    st.lane,
                    (host_start, host_end),
                )
            };
            st.spans
                .as_mut()
                .expect("tracing implies a ring")
                .push(span);
        }
        position += 1;
        done += 1;
    }
    st.finish(cx, client, position, fabric_start, &stats_before)
}

fn pipelined_worker<B: FabricBackend>(
    client: &mut TreeClient<B>,
    cx: &PhaseCtx<'_>,
    thread: usize,
    start: usize,
    depth: usize,
    batch: usize,
) -> WorkerOut {
    let stream = &cx.streams.per_thread[thread];
    let range_size = cx.streams.range_size;
    let mut st = WorkerState::new(cx, thread, start, false);
    let stats_before = client.fabric_stats();
    let fabric_start = client.now();
    let mut position = start;
    let mut done = 0usize;
    loop {
        if st.check(cx, done) {
            break;
        }
        let n = match cx.budget {
            Budget::Ops(total) => batch.min(total - done),
            Budget::Seconds(_) => batch,
        }
        .min(stream.len() - position);
        if n == 0 {
            cx.stop.store(true, Ordering::Relaxed);
            break;
        }
        let feed = (position..position + n).map(|p| {
            let op = stream[p];
            let key = op.key();
            match op.kind() {
                Kind::Lookup => PipelineOp::Lookup { key },
                Kind::Insert => PipelineOp::Insert {
                    key,
                    value: stream::value_for(key, p as u64),
                },
                Kind::Delete => PipelineOp::Delete { key },
                Kind::Range => PipelineOp::Range {
                    start_key: key,
                    count: range_size,
                },
            }
        });
        let traced = st.tracing.then(|| (host_ns(cx.origin), client.now()));
        match client.run_pipelined(feed, depth) {
            Ok(report) => {
                for r in &report.results {
                    record_pipelined(&mut st, r, cx.streams.key_bound);
                }
                if let Some((host_start, fabric_at)) = traced {
                    let host_end = host_ns(cx.origin);
                    st.tally.host_ns[PIPELINED_SLOT] += host_end - host_start;
                    st.tally.host_calls[PIPELINED_SLOT] += n as u64;
                    let span = Span {
                        fabric_start_ns: fabric_at,
                        fabric_end_ns: fabric_at + report.elapsed_ns,
                        round_trips: report.stats.round_trips as u32,
                        bytes_read: report.stats.bytes_read.min(u32::MAX as u64) as u32,
                        bytes_written: report.stats.bytes_written.min(u32::MAX as u64) as u32,
                        retries: report.stats.retries as u32,
                        ..Span::host_only(
                            "run_pipelined",
                            st.span_id(),
                            worker_span_id(thread),
                            st.lane,
                            (host_start, host_end),
                        )
                    };
                    st.spans
                        .as_mut()
                        .expect("tracing implies a ring")
                        .push(span);
                }
            }
            Err(_) => {
                st.tally.attempted += n as u64;
                st.tally.failed += n as u64;
            }
        }
        position += n;
        done += n;
    }
    st.finish(cx, client, position, fabric_start, &stats_before)
}

fn record_pipelined(st: &mut WorkerState, r: &PipelinedResult, key_bound: u64) {
    let (kind, ok) = match (&r.op, &r.output) {
        (PipelineOp::Lookup { key }, OpOutput::Lookup(value)) => {
            (Kind::Lookup, st.presence.lookup_ok(*key, *value))
        }
        (PipelineOp::Insert { key, .. }, OpOutput::Insert) => {
            st.tally.inserts += 1;
            st.tally.fresh_inserts += u64::from(st.presence.note_insert(*key));
            (Kind::Insert, true)
        }
        (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
            st.presence.note_delete(*key);
            (Kind::Delete, *found)
        }
        (PipelineOp::Range { start_key, count }, OpOutput::Range(rows)) => {
            let ok = st.presence.scan_ok(*start_key, *count, rows);
            if ok {
                st.tally.scan_missed_keys +=
                    st.presence.scan_missed(*start_key, *count, rows, key_bound);
            }
            (Kind::Range, ok)
        }
        // An answer of another kind than the question.
        (PipelineOp::Lookup { .. }, _) => (Kind::Lookup, false),
        (PipelineOp::Insert { .. }, _) => (Kind::Insert, false),
        (PipelineOp::Delete { .. }, _) => (Kind::Delete, false),
        (PipelineOp::Range { .. }, _) => (Kind::Range, false),
    };
    // `PipelinedResult` carries no lock-retry count.
    let stats = OpStats {
        latency_ns: r.latency_ns,
        round_trips: r.round_trips,
        bytes_written: r.bytes_written,
        read_retries: r.read_retries,
        handed_over: r.handed_over,
        ..OpStats::default()
    };
    st.tally.record(kind, ok, &stats);
}

// ----------------------------------------------------------------------
// A whole run
// ----------------------------------------------------------------------

/// Declares [`Counters`] and its field-wise difference in one place.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Cluster-wide counters that only ever grow, read before and after
        /// the measured phase; the difference is the phase's own.
        #[derive(Debug, Clone, Copy, Default)]
        struct Counters { $($field: u64),* }

        impl Counters {
            fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field),* }
            }
        }
    };
}

counters!(
    cache_hits,
    cache_misses,
    cache_top_hits,
    cache_top_misses,
    cache_evictions,
    cache_pressure_evictions,
    cache_invalidations,
    cache_stale_rejections,
    cache_refreshes,
    round_trips,
    atomics,
    onchip_atomics,
    bytes_written,
    leaf_merges,
    left_merges,
    internal_merges,
    rebalances,
    root_collapses,
    coherence_posted,
    coherence_applied,
    coherence_lag_ns,
    coherence_stale_hits,
    offload_decisions,
    offloaded,
    offload_declined,
    offload_stale_rejects,
    retired,
    reused,
    chunk_denials,
    exhaustion_events,
);

impl Counters {
    fn read<B: FabricBackend>(cluster: &Cluster<B>) -> Self {
        let caches = |get: fn(&sherman_repro::sherman_cache::CacheStats) -> u64| -> u64 {
            (0..2u16).map(|cs| get(cluster.cache(cs).stats())).sum()
        };
        let verbs = cluster.fabric().metrics().snapshot();
        let space = cluster.space_stats();
        let coherence = cluster.coherence_stats();
        let offload = cluster.offload_stats();
        let reclaim = cluster.reclaim_stats();
        let backpressure = cluster.pool().backpressure().snapshot();
        Counters {
            cache_hits: caches(|s| s.hits()),
            cache_misses: caches(|s| s.misses()),
            cache_top_hits: caches(|s| s.top_hits()),
            cache_top_misses: caches(|s| s.top_misses()),
            cache_evictions: caches(|s| s.evictions()),
            cache_pressure_evictions: caches(|s| s.pressure_evictions()),
            cache_invalidations: caches(|s| s.invalidations()),
            cache_stale_rejections: caches(|s| s.stale_rejections()),
            cache_refreshes: caches(|s| s.refreshes()),
            round_trips: verbs.round_trips,
            atomics: verbs.atomics,
            onchip_atomics: verbs.onchip_atomics,
            bytes_written: verbs.bytes_written,
            leaf_merges: space.leaf_merges,
            left_merges: space.left_merges,
            internal_merges: space.internal_merges,
            rebalances: space.rebalances + space.internal_rebalances,
            root_collapses: space.root_collapses,
            coherence_posted: coherence.posted(),
            coherence_applied: coherence.applied,
            coherence_lag_ns: coherence.apply_lag_ns_total,
            coherence_stale_hits: coherence.stale_hits,
            offload_decisions: offload.decisions,
            offloaded: offload.offloaded,
            offload_declined: offload.declined,
            offload_stale_rejects: offload.stale_rejects,
            retired: reclaim.retired,
            reused: reclaim.reused,
            chunk_denials: backpressure.chunk_denials,
            exhaustion_events: backpressure.exhaustion_events,
        }
    }
}

/// Levels (not totals) as the measured phase left them.  Read before the
/// probes and the final checks, which clear and refill client 0's cache and
/// quiesce coherence.
struct Gauges {
    cache_entries: usize,
    nodes_carved: u64,
    coherence_max_lag_ns: u64,
    mean_reclaim_latency_ns: f64,
    mean_eligible_latency_ns: f64,
    epoch_lag: u64,
    pinned_buckets: u64,
}

impl Gauges {
    fn read<B: FabricBackend>(cluster: &Cluster<B>) -> Self {
        let reclaim = cluster.reclaim_stats();
        let epochs = cluster.epoch_stats();
        Gauges {
            cache_entries: (0..2u16).map(|cs| cluster.cache(cs).len()).sum(),
            nodes_carved: cluster.pool().nodes_carved(),
            coherence_max_lag_ns: cluster.coherence_stats().apply_lag_ns_max,
            mean_reclaim_latency_ns: reclaim.mean_reclaim_latency_ns(),
            mean_eligible_latency_ns: reclaim.mean_eligible_latency_ns(),
            epoch_lag: epochs.epoch_lag,
            pinned_buckets: epochs.pinned_buckets,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median over a phase's closed windows of operations per second, for the
/// windows `keep` selects.
fn window_rate(windows: &[Window], by_cpu: bool, keep: impl Fn(&Window) -> bool) -> Option<f64> {
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| keep(w))
        .map(|w| w.rate(by_cpu))
        .collect();
    stats::median(&rates)
}

/// The measured phase, folded over its workers.
struct Measured {
    /// Sums over every worker; latency samples sorted.
    tally: Tally,
    fabric: ClientStats,
    fabric_span_ns: u64,
    host_s: f64,
    positions: Vec<usize>,
    /// How far the furthest worker got through its stream; at 1 the run
    /// ended early because the stream did.
    stream_used_share: f64,
    /// Operations per host second ([`Window::rate`]), all threads together:
    /// the median over all windows, over the traced ones, over the untraced
    /// ones.
    rate: f64,
    rate_traced: f64,
    rate_untraced: f64,
    /// Every window's rate, for the spread inside the run.
    window_rates: Vec<f64>,
    /// Median over the windows of the box's speed, and of operations per
    /// second of wall time as the clock read them (`rate` undone).
    box_speed: f64,
    wall_rate: f64,
    rings: Vec<SpanRing>,
    worker_spans: Vec<Span>,
}

fn fold(phase: PhaseOut, streams: &Streams, by_cpu: bool) -> Measured {
    let mut m = Measured {
        tally: Tally::default(),
        fabric: ClientStats::default(),
        fabric_span_ns: phase.fabric_span_ns(),
        host_s: phase
            .workers
            .iter()
            .map(|w| w.host.as_secs_f64())
            .fold(0.0, f64::max),
        positions: phase.positions(),
        stream_used_share: phase
            .workers
            .iter()
            .zip(&streams.per_thread)
            .map(|(w, stream)| {
                (w.position - streams.start) as f64 / (stream.len() - streams.start) as f64
            })
            .fold(0.0, f64::max),
        rate: 0.0,
        rate_traced: 0.0,
        rate_untraced: 0.0,
        window_rates: Vec::new(),
        box_speed: 0.0,
        wall_rate: 0.0,
        rings: Vec::new(),
        worker_spans: Vec::new(),
    };
    // Worker 0 kept the windows: at least the one the phase ended in.
    let windows = &phase.workers[0].windows;
    m.rate = window_rate(windows, by_cpu, |_| true).unwrap_or(0.0);
    m.rate_traced = window_rate(windows, by_cpu, |w| w.index % 2 == 1).unwrap_or(m.rate);
    m.rate_untraced = window_rate(windows, by_cpu, |w| w.index % 2 == 0).unwrap_or(m.rate);
    m.window_rates = windows.iter().map(|w| w.rate(by_cpu)).collect();
    let over_windows = |f: fn(&Window) -> f64| {
        stats::median(&windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    m.box_speed = over_windows(|w| w.speed);
    m.wall_rate = over_windows(|w| w.rate(false) * w.speed);
    for (t, w) in phase.workers.into_iter().enumerate() {
        m.fabric = sum_client_stats(&m.fabric, &w.fabric);
        m.tally.merge(w.tally);
        m.worker_spans.push(Span {
            fabric_start_ns: w.fabric_start,
            fabric_end_ns: w.fabric_end,
            round_trips: w.fabric.round_trips.min(u32::MAX as u64) as u32,
            ..Span::host_only(
                "worker",
                worker_span_id(t),
                RUN_SPAN,
                t as u32 + 1,
                w.host_span,
            )
        });
        m.rings.extend(w.spans);
    }
    m.tally.latency.iter_mut().for_each(|l| l.sort_unstable());
    m.tally.write_round_trips.sort_unstable();
    m
}

/// The quiesced tree after the run.
struct TreeCheck {
    /// Keys the executed operations leave behind.
    live_keys: u64,
    /// Of those, the ones a scan through client 0's warm cache passed over.
    warm_scan_missed_keys: u64,
    live_nodes: Option<u64>,
    outstanding: u64,
    fixable: Option<u64>,
}

/// Hold the final tree against the model key set, the allocator's books and
/// its own shape before the run.
fn check_tree<B: FabricBackend>(
    cluster: &Arc<Cluster<B>>,
    streams: &Streams,
    bulkloaded: &BitSet,
    positions: &[usize],
    fixable_before: u64,
    problems: &mut Vec<String>,
) -> TreeCheck {
    let (live_keys, warm_scan_missed_keys) =
        verify(cluster, streams, bulkloaded, positions, problems);
    let outstanding = cluster.nodes_outstanding();
    let live_nodes = match cluster.node_census() {
        Ok(census) => {
            if census.total() != outstanding {
                problems.push(format!(
                    "census reaches {} nodes, the allocator has {outstanding} outstanding",
                    census.total()
                ));
            }
            Some(census.total())
        }
        Err(e) => {
            problems.push(format!("node census failed: {e}"));
            None
        }
    };
    let fixable = match fixable_underfull(cluster) {
        Ok(n) => {
            if n > fixable_before {
                problems.push(format!(
                    "shape audit: {n} underfull nodes a sibling could fix, {fixable_before} before the run"
                ));
            }
            Some(n)
        }
        Err(e) => {
            problems.push(format!("shape audit failed: {e}"));
            None
        }
    };
    TreeCheck {
        live_keys,
        warm_scan_missed_keys,
        live_nodes,
        outstanding,
        fixable,
    }
}

fn micros(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e3)
}

/// The end-to-end table (an untraced run).
fn end_to_end<B: FabricBackend>(
    cluster: &Cluster<B>,
    run: &Measured,
    tree: &TreeCheck,
    gauges: &Gauges,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let tally = &run.tally;
    let ops = tally.attempted;
    let writes = tally.latency[1].len() as u64;
    let config = cluster.config();
    m.set(
        "fabric_mops",
        ops as f64 * 1e3 / run.fabric_span_ns.max(1) as f64,
    );
    m.set_opt("lookup_mean_us", micros(stats::mean(&tally.latency[0])));
    m.set_opt("write_mean_us", micros(stats::mean(&tally.latency[1])));
    m.set("round_trips_per_op", ratio(tally.round_trips, ops));
    m.set("write_bytes_per_write", ratio(tally.write_bytes, writes));
    m.set(
        "space_amp",
        (gauges.nodes_carved * config.node_size as u64) as f64
            / (tree.live_keys.max(1) * (config.key_size + config.value_size) as u64) as f64,
    );
    m.set("host_kops_per_s", run.rate / 1e3);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set_opt("setup_s", stats::median(setup_s));
    m
}

/// The per-layer table less the probes (a traced run): counters read through
/// the cluster's accessors, the workers' sums, and the process's own usage.
fn per_layer(
    threads: usize,
    run: &Measured,
    tree: &TreeCheck,
    d: &Counters,
    gauges: &Gauges,
    usage: (Usage, Usage),
    bulkload_ns_per_key: Option<f64>,
) -> Metrics {
    let mut m = Metrics::default();
    let tally = &run.tally;
    let fabric = &run.fabric;
    let ops = tally.attempted;
    let opsf = ops.max(1) as f64;
    let writes = tally.latency[1].len() as u64;
    let [lookups, write_lat, scans] = &tally.latency;

    m.set("core.reads_per_op", fabric.reads as f64 / opsf);
    m.set("core.writes_per_op", fabric.writes as f64 / opsf);
    m.set("core.atomics_per_op", fabric.atomics as f64 / opsf);
    m.set("core.rpcs_per_op", fabric.rpcs as f64 / opsf);
    m.set("core.bytes_read_per_op", fabric.bytes_read as f64 / opsf);
    m.set(
        "core.read_retries_per_kop",
        tally.read_retries as f64 * 1e3 / opsf,
    );
    m.set_opt(
        "core.write_round_trips_p99",
        stats::percentile(&tally.write_round_trips, 0.99),
    );
    m.set_opt(
        "core.lookup_p50_us",
        micros(stats::percentile(lookups, 0.5)),
    );
    m.set_opt(
        "core.write_p50_us",
        micros(stats::percentile(write_lat, 0.5)),
    );
    m.set_opt(
        "core.lookup_p99_us",
        micros(stats::percentile(lookups, 0.99)),
    );
    m.set_opt(
        "core.write_p99_us",
        micros(stats::percentile(write_lat, 0.99)),
    );
    m.set_opt(
        "core.lookup_p999_us",
        micros(stats::percentile(lookups, 0.999)),
    );
    m.set_opt(
        "core.write_p999_us",
        micros(stats::percentile(write_lat, 0.999)),
    );
    m.set_opt("core.lookup_tail_us", micros(stats::tail_mean(lookups)));
    m.set_opt("core.write_tail_us", micros(stats::tail_mean(write_lat)));
    m.set_opt("core.scan_p99_us", micros(stats::percentile(scans, 0.99)));
    m.set("core.scan_missed_keys", tally.scan_missed_keys as f64);
    m.set(
        "core.warm_scan_missed_keys",
        tree.warm_scan_missed_keys as f64,
    );
    m.set("core.leaf_merges", d.leaf_merges as f64);
    m.set("core.left_merges", d.left_merges as f64);
    m.set("core.internal_merges", d.internal_merges as f64);
    m.set("core.rebalances", d.rebalances as f64);
    m.set("core.root_collapses", d.root_collapses as f64);
    m.set_opt("core.live_nodes", tree.live_nodes.map(|n| n as f64));
    m.set_opt("core.underfull_fixable", tree.fixable.map(|n| n as f64));
    // Verb time is summed over threads, so the elapsed time is too.
    let overlap = overlap_from_stats(fabric, run.fabric_span_ns * threads as u64);
    m.set("core.sched.mean_in_flight", overlap.mean_in_flight());
    m.set("core.sched.max_in_flight", overlap.max_in_flight as f64);
    m.set("core.sched.overlap_factor", overlap.overlap_factor());
    m.set(
        "core.sched.overlapped_rt_ratio",
        overlap.overlapped_fraction(),
    );
    m.set("core.coherence.posted", d.coherence_posted as f64);
    m.set("core.coherence.applied", d.coherence_applied as f64);
    m.set(
        "core.coherence.mean_lag_ns",
        ratio(d.coherence_lag_ns, d.coherence_applied),
    );
    m.set(
        "core.coherence.max_lag_ns",
        gauges.coherence_max_lag_ns as f64,
    );
    m.set("core.coherence.stale_hits", d.coherence_stale_hits as f64);
    m.set(
        "core.offload.offloaded_ratio",
        ratio(d.offloaded, d.offload_decisions),
    );
    m.set("core.offload.declined", d.offload_declined as f64);
    m.set("core.offload.stale_rejects", d.offload_stale_rejects as f64);
    let per_call = |slot: usize| {
        (tally.host_calls[slot] > 0)
            .then(|| tally.host_ns[slot] as f64 / tally.host_calls[slot] as f64)
    };
    m.set_opt("core.host_ns_per_lookup", per_call(Kind::Lookup as usize));
    m.set_opt("core.host_ns_per_insert", per_call(Kind::Insert as usize));
    m.set_opt("core.host_ns_per_delete", per_call(Kind::Delete as usize));
    m.set_opt("core.host_ns_per_scan", per_call(Kind::Range as usize));
    m.set_opt("core.host_ns_per_pipelined_op", per_call(PIPELINED_SLOT));
    m.set_opt("core.host_ns_per_bulkload_key", bulkload_ns_per_key);

    m.set("sim.round_trips", d.round_trips as f64);
    m.set(
        "sim.onchip_atomic_ratio",
        ratio(d.onchip_atomics, d.atomics),
    );
    m.set("sim.bytes_written_per_op", d.bytes_written as f64 / opsf);
    m.set(
        "sim.verb_ns_per_round_trip",
        ratio(fabric.verb_ns, fabric.round_trips),
    );

    m.set("locks.handover_ratio", ratio(tally.handovers, writes));
    m.set(
        "locks.retries_per_kwrite",
        ratio(tally.lock_retries * 1_000, writes),
    );

    m.set(
        "cache.hit_ratio",
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
    );
    m.set(
        "cache.top_hit_ratio",
        ratio(d.cache_top_hits, d.cache_top_hits + d.cache_top_misses),
    );
    m.set(
        "cache.evictions_per_kop",
        d.cache_evictions as f64 * 1e3 / opsf,
    );
    m.set(
        "cache.pressure_evictions",
        d.cache_pressure_evictions as f64,
    );
    m.set("cache.invalidations", d.cache_invalidations as f64);
    m.set("cache.stale_rejections", d.cache_stale_rejections as f64);
    m.set("cache.refreshes", d.cache_refreshes as f64);
    m.set("cache.entries", gauges.cache_entries as f64);

    m.set("memserver.nodes_carved", gauges.nodes_carved as f64);
    m.set("memserver.nodes_outstanding", tree.outstanding as f64);
    m.set("memserver.retired", d.retired as f64);
    m.set("memserver.reused", d.reused as f64);
    m.set(
        "memserver.mean_reclaim_latency_us",
        gauges.mean_reclaim_latency_ns / 1e3,
    );
    m.set(
        "memserver.mean_eligible_latency_us",
        gauges.mean_eligible_latency_ns / 1e3,
    );
    m.set("memserver.epoch_lag", gauges.epoch_lag as f64);
    m.set("memserver.pinned_buckets", gauges.pinned_buckets as f64);
    m.set("memserver.chunk_denials", d.chunk_denials as f64);
    m.set("memserver.exhaustion_events", d.exhaustion_events as f64);

    m.set("workload.write_share", ratio(writes, ops));
    m.set(
        "workload.fresh_insert_share",
        ratio(tally.fresh_inserts, tally.inserts),
    );
    m.set("workload.stream_used_share", run.stream_used_share);

    let (before, after) = usage;
    let user = (after.user - before.user).as_secs_f64();
    let sys = (after.sys - before.sys).as_secs_f64();
    m.set("host.user_us_per_op", user * 1e6 / opsf);
    m.set("host.sys_us_per_op", sys * 1e6 / opsf);
    m.set(
        "host.sys_share",
        if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
    );
    m.set(
        "host.ctx_switches_per_kop",
        (after.ctx_switches - before.ctx_switches) as f64 * 1e3 / opsf,
    );
    m.set("host.measured_s", run.host_s);
    m.set("host.box_speed", run.box_speed);
    m.set("host.wall_kops_per_s", run.wall_rate / 1e3);
    m.set(
        "trace.overhead_pct",
        (1.0 - run.rate_traced / run.rate_untraced.max(1e-9)) * 100.0,
    );
    m.set(
        "trace.spans",
        run.rings.iter().map(SpanRing::recorded).sum::<u64>() as f64,
    );
    m
}

fn run_on<B: FabricBackend>(req: &RunRequest, streams: &Streams) -> RunResult {
    let def = req.def;
    let origin = Instant::now();
    let mut problems = Vec::new();
    let mut bulkloaded = BitSet::with_capacity(streams.key_bound);
    streams.bulkload.iter().for_each(|&k| bulkloaded.insert(k));
    let phase = |budget: Budget, trace: bool| PhaseCtx {
        def,
        streams,
        bulkloaded: &bulkloaded,
        budget,
        stop: AtomicBool::new(false),
        ops_done: AtomicU64::new(0),
        origin,
        trace,
    };

    // ---- set-up: build, bulkload (which warms the caches), warm-up ops ----
    let start = vec![streams.start; def.threads];
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bulkload_ns_per_key = None;
    let mut built: Option<(Arc<Cluster<B>>, PhaseOut)> = None;
    // Host time as the measured phase reads it ([`Window::rate`]): CPU time
    // of a pinned run, divided by the box's speed while it passed.
    let by_cpu = def.backend == Backend::Sim;
    let mut kernel = Kernel::new();
    let mut speed = kernel.speed();
    for _ in 0..SETUP_REPS {
        // Freed before the next is built, so peak memory is one cluster's.
        drop(built.take());
        let began = Instant::now();
        let cpu_began = sys::process_cpu_ns();
        let cluster = build_cluster::<B>(def);
        let load_began = Instant::now();
        cluster
            .bulkload(
                streams
                    .bulkload
                    .iter()
                    .map(|&k| (k, stream::value_for(k, 0))),
            )
            .expect("bulkload of a generated key set");
        if !streams.bulkload.is_empty() {
            bulkload_ns_per_key =
                Some(load_began.elapsed().as_nanos() as f64 / streams.bulkload.len() as f64);
        }
        let warm = run_phase(&cluster, &phase(Budget::Ops(def.warmup_ops), false), &start);
        let host_s = if by_cpu {
            (sys::process_cpu_ns() - cpu_began) as f64 / 1e9
        } else {
            began.elapsed().as_secs_f64()
        };
        let speed_before = std::mem::replace(&mut speed, kernel.speed());
        setup_s.push(host_s * (speed_before + speed) / 2.0);
        built = Some((cluster, warm));
    }
    let (cluster, warm) = built.expect("SETUP_REPS is at least one");
    let warm_failed: u64 = warm.workers.iter().map(|w| w.tally.failed).sum();
    if warm_failed > 0 {
        problems.push(format!("{warm_failed} warm-up operations failed"));
    }

    // ---- the measured phase ----
    // Bulkload may leave the last node of a level underfull; only what the
    // run adds to that is the merge engine's doing.
    let fixable_before = fixable_underfull(&cluster).unwrap_or(0);
    let counters_before = Counters::read(&cluster);
    let usage_before = Usage::now();
    let measured_began = host_ns(origin);
    let run = fold(
        run_phase(&cluster, &phase(req.budget, req.trace), &warm.positions()),
        streams,
        by_cpu,
    );
    let measured_ended = host_ns(origin);
    let usage_after = Usage::now();
    let counters = Counters::read(&cluster).since(&counters_before);
    let gauges = Gauges::read(&cluster);
    if run.tally.failed > 0 {
        let [lookups, inserts, deletes, ranges] = run.tally.failed_kinds;
        problems.push(format!(
            "{} operations failed or answered wrongly: {lookups} lookups, {inserts} inserts, \
             {deletes} deletes, {ranges} ranges (the rest: whole pipelined batches)",
            run.tally.failed
        ));
    }

    // ---- the probes: on the cluster as the run left it, so before the
    // final checks wipe and refill client 0's cache ----
    let probed = (req.trace && matches!(req.budget, Budget::Seconds(_))).then(|| {
        // The keys thread 0 touched last: whatever else happened, those are
        // in the tree and near what its cache holds.
        let stream = &streams.per_thread[0];
        let end = run.positions[0].clamp(streams.start + 1, stream.len());
        let input = probes::ProbeInput {
            origin,
            keys: &stream[end.saturating_sub(4_096).max(streams.start)..end],
            node_size: def.geometry.node_size,
        };
        let out = probes::run(&cluster, &input);
        (out, host_ns(origin))
    });

    let tree = check_tree(
        &cluster,
        streams,
        &bulkloaded,
        &run.positions,
        fixable_before,
        &mut problems,
    );

    // ---- metrics and the trace file ----
    let mut metrics = if req.trace {
        per_layer(
            def.threads,
            &run,
            &tree,
            &counters,
            &gauges,
            (usage_before, usage_after),
            bulkload_ns_per_key,
        )
    } else {
        end_to_end(
            &cluster,
            &run,
            &tree,
            &gauges,
            &setup_s,
            usage_after.peak_rss_mb,
        )
    };
    if req.trace {
        let mut spans = vec![Span {
            fabric_end_ns: run.fabric_span_ns,
            ..Span::host_only("run", RUN_SPAN, 0, 0, (measured_began, measured_ended))
        }];
        spans.extend_from_slice(&run.worker_spans);
        if let Some(((probe_metrics, probe_spans), probes_ended)) = probed {
            metrics.set_opt(
                "core.host_self_ns_per_op",
                self_ns_per_op(&run, &probe_metrics),
            );
            metrics.extend(probe_metrics);
            // The run span grows to cover its probe child.
            spans[0].host_end_ns = probes_ended;
            spans.extend(probe_spans);
        }
        run.rings
            .iter()
            .for_each(|ring| spans.extend_from_slice(ring.spans()));
        if let Err(e) = trace::write(&results_dir(), def.name, &spans) {
            problems.push(format!("cannot write the trace: {e}"));
        }
    }

    RunResult {
        workload: def.name,
        seed: req.seed,
        traced: req.trace,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        problems,
        metrics,
        host_spread: stats::quartile_spread(&run.window_rates),
        box_speed: run.box_speed,
        wall_kops_per_s: run.wall_rate / 1e3,
        pinned_cpu: None,
        stream_hash: stream::hash(streams),
        samples: [0, 1, 2].map(|c| run.tally.latency[c].len() as u64),
    }
}

/// The operation's own share of its host time: its span less what the reads,
/// the cache look-up and the lock pair it made would cost by the probes.
fn self_ns_per_op(run: &Measured, probes: &Metrics) -> Option<f64> {
    let calls: u64 = run.tally.host_calls.iter().sum();
    if calls == 0 {
        return None;
    }
    let op_ns = run.tally.host_ns.iter().sum::<u64>() as f64 / calls as f64;
    let ops = run.tally.attempted.max(1) as f64;
    let writes = run.tally.latency[1].len() as f64;
    Some(
        op_ns
            - run.fabric.reads as f64 / ops * probes.get("sim.host_ns_per_read_node")?
            - probes.get("cache.host_ns_per_lookup_leaf")?
            - writes / ops * probes.get("locks.host_ns_per_acquire_release")?,
    )
}

/// Underfull nodes that a same-parent sibling could absorb or refill.
fn fixable_underfull<B: FabricBackend>(cluster: &Cluster<B>) -> Result<u64, String> {
    cluster
        .shape_audit()
        .map(|a| a.underfull_rightmost_fixable + a.underfull_internals_fixable)
        .map_err(|e| e.to_string())
}

fn sum_client_stats(a: &ClientStats, b: &ClientStats) -> ClientStats {
    ClientStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        atomics: a.atomics + b.atomics,
        rpcs: a.rpcs + b.rpcs,
        round_trips: a.round_trips + b.round_trips,
        overlapped_round_trips: a.overlapped_round_trips + b.overlapped_round_trips,
        max_in_flight: a.max_in_flight.max(b.max_in_flight),
        in_flight_posts: a.in_flight_posts + b.in_flight_posts,
        verb_ns: a.verb_ns + b.verb_ns,
        bytes_written: a.bytes_written + b.bytes_written,
        bytes_read: a.bytes_read + b.bytes_read,
        retries: a.retries + b.retries,
        last_completion_at: a.last_completion_at.max(b.last_completion_at),
    }
}

/// Every key a client finds by scanning the tree from end to end, and how
/// many of its answers were malformed.
fn scan_all<B: FabricBackend>(
    client: &mut TreeClient<B>,
    key_bound: u64,
    problems: &mut Vec<String>,
) -> (BitSet, u64) {
    let mut scanned = BitSet::with_capacity(key_bound);
    let (mut next, mut malformed) = (0u64, 0u64);
    loop {
        let rows = match client.range(next, VERIFY_SCAN) {
            Ok((rows, _)) => rows,
            Err(e) => {
                problems.push(format!("final scan failed at key {next}: {e}"));
                break;
            }
        };
        malformed += u64::from(!stream::scan_ok(next, VERIFY_SCAN, &rows));
        rows.iter()
            .filter(|r| r.0 < key_bound)
            .for_each(|r| scanned.insert(r.0));
        match rows.last() {
            Some(&(last, _)) if rows.len() == VERIFY_SCAN => next = last + 1,
            _ => break,
        }
    }
    (scanned, malformed)
}

/// Scan the whole tree twice and hold it against the keys the executed
/// operations leave behind: once through client 0's cache as the run left it,
/// once with that cache cleared.  Returns the number of live keys by the
/// model, and of those the number the warm scan passed over.
fn verify<B: FabricBackend>(
    cluster: &Arc<Cluster<B>>,
    streams: &Streams,
    bulkloaded: &BitSet,
    positions: &[usize],
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let mut model = bulkloaded.clone();
    for (stream, &end) in streams.per_thread.iter().zip(positions) {
        for op in &stream[streams.start..end] {
            match op.kind() {
                Kind::Insert => model.insert(op.key()),
                Kind::Delete => model.remove(op.key()),
                Kind::Lookup | Kind::Range => {}
            }
        }
    }
    let mut client = cluster.client(0);
    client.quiesce_coherence();
    // A scan routed by level-1 copies that outlived merges can pass over
    // keys that lookups still find (seen about once in eight `churn_scan`
    // runs at this commit; README, "Findings").  The warm scan counts them,
    // so that the fault and any change to it show; the cold scan goes by the
    // leaf chain alone and is the gate, so that whether a run is correct does
    // not depend on cache luck.
    let mut warm_missed = 0;
    for warm in [true, false] {
        if !warm {
            cluster.cache(0).clear();
        }
        let which = if warm { "warm" } else { "cold" };
        let (scanned, malformed) = scan_all(&mut client, streams.key_bound, problems);
        let missing: Vec<u64> = model.iter().filter(|&k| !scanned.contains(k)).collect();
        let extra = scanned.iter().filter(|&k| !model.contains(k)).count();
        if warm {
            warm_missed = missing.len() as u64;
        }
        if malformed > 0 || extra > 0 || (!warm && !missing.is_empty()) {
            // Tell a scan that skipped keys from a tree that lost them.
            let found = missing
                .iter()
                .filter(
                    |&&k| matches!(client.lookup(k), Ok((Some(v), _)) if stream::value_ok(k, v)),
                )
                .count();
            problems.push(format!(
                "final {which} scan: {} model keys not scanned ({found} of them found by lookup, \
                 first {:?}), {extra} scanned keys not in the model, {malformed} malformed answers",
                missing.len(),
                missing.first()
            ));
        }
    }
    (model.len(), warm_missed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn a_window_rate_is_per_reference_second_on_the_chosen_clock() {
        let window = Window {
            index: 0,
            ops: 1_000,
            ns: 2_000_000,
            cpu_ns: 1_000_000,
            speed: 0.5,
        };
        // 1 000 operations in 1 ms of CPU on a box at half speed: the
        // reference box would have taken 0.5 ms.
        assert_eq!(window.rate(true), 2e6);
        assert_eq!(window.rate(false), 1e6);
    }

    /// A whole run in miniature, in this process and unpinned (pinning is
    /// per process and the test harness shares it): every check passes, and
    /// the debug assertions in `Metrics::set` see every metric name.
    fn smoke(workload: &str, trace: bool) -> RunResult {
        let def = spec::workload(workload).unwrap();
        let streams = stream::generate(def, 1, 600);
        let req = RunRequest {
            def,
            seed: 1,
            budget: Budget::Ops(600),
            trace,
        };
        match def.backend {
            Backend::Sim => run_on::<Fabric>(&req, &streams),
            Backend::Threaded => run_on::<ThreadedFabric>(&req, &streams),
        }
    }

    #[test]
    fn a_small_run_of_each_kind_of_workload_is_correct() {
        for (workload, trace) in [
            ("hot_leaf_writes", false),
            ("churn_scan", true),
            ("threaded_write_skew", false),
        ] {
            let result = smoke(workload, trace);
            assert!(result.correct(), "{workload}: {:?}", result.problems);
            assert_eq!(result.attempted, 1_200, "{workload}");
            let table = if trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            let line = crate::json::parse(&result.driver_line()).unwrap();
            let metrics = line.get("metrics").and_then(|m| m.as_obj()).unwrap();
            assert_eq!(metrics.len(), table.len(), "{workload}");
        }
    }

    #[test]
    fn a_wrong_answer_is_a_failed_operation() {
        let set = |keys: &[u64]| {
            let mut s = BitSet::with_capacity(64);
            keys.iter().for_each(|&k| s.insert(k));
            s
        };
        let row = |k: u64| (k, stream::value_for(k, 0));
        // A churn worker that owns 7, 9 and 11, holds 7 and 9, and has
        // deleted (or not yet inserted) 11.
        let presence = Presence {
            loaded: set(&[7]),
            inserted: set(&[9]),
            owned: Some(set(&[7, 9, 11])),
            rely_on_own: true,
        };
        assert!(presence.lookup_ok(7, Some(stream::value_for(7, 3))));
        assert!(
            !presence.lookup_ok(7, Some(stream::value_for(8, 3))),
            "another key's value"
        );
        assert!(!presence.lookup_ok(7, None), "a bulkloaded key is gone");
        assert!(presence.lookup_ok(8, None), "a key nobody inserted");
        assert!(
            !presence.lookup_ok(11, Some(stream::value_for(11, 3))),
            "an own deleted key is back"
        );
        assert!(presence.scan_ok(7, 4, &[row(7), row(8), row(9)]));
        assert!(
            !presence.scan_ok(7, 4, &[row(7), row(9), row(11)]),
            "an own deleted key in a scan"
        );
        // A full answer covers up to its last key, a short one to the end.
        assert_eq!(presence.scan_missed(7, 2, &[row(7), row(8)], 64), 0);
        assert_eq!(presence.scan_missed(7, 2, &[row(8), row(10)], 64), 2);
        assert_eq!(presence.scan_missed(7, 4, &[row(7), row(8)], 64), 1);
        assert_eq!(presence.scan_missed(7, 4, &[row(8), row(9)], 64), 1);
    }
}
