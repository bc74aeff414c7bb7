//! The executor: the tree operations of N clients, up to `depth` of them in
//! flight on each, on one thread.
//!
//! The split-phase fabric fixes a verb's completion time at post time and
//! lets the poster keep going, but a single tree operation is inherently
//! sequential — it cannot post its next read before the previous one
//! resolves.  Throughput therefore comes from *operation-level* parallelism:
//! each client keeps up to `depth` independent operations (each the future
//! of an `async fn` from the `ops` module, boxed in its slot) in flight on
//! its one `ClientCtx`, resuming whichever operation's verb completes first.
//! One client then overlaps up to `depth` network round trips, which is how
//! Sherman's evaluation (and DEX, more aggressively) hides RDMA latency with
//! multiple coroutines per client thread.
//!
//! ## One heap across clients
//!
//! Each client's scheduling loop is itself an `async fn` (`Run`), and
//! [`run_clients`] hands every client's loop to the simulator's executor
//! (`sherman_sim::run`): each loop parks on the instant its next step is due
//! (`Parking::until`), and a heap keyed by (that instant, client index)
//! resumes the earliest — the lower client index on a tie.  Within a client
//! the next step is the one the loop picks: the earliest completion on its
//! completion queue; a finished operation's slot immediately pulls the next
//! operation from the feed.  A client is one CPU, so what an operation waits
//! for *holding* its client — CPU time, the few waits that block inside an
//! operation (`Parking::hold`) — lets other clients run but none of its
//! siblings.  Run alone — one client, [`TreeClient::run_pipelined`] — every
//! wait is answered at once, the clock moved by the poll that follows, and a
//! `depth` of 1 degenerates to exactly the blocking path (post one verb, poll
//! it): the equivalence the `pipelined_equivalence` and `write_pipelining`
//! suites pin down.
//!
//! Nothing but the heap moves the simulator's clock while the executor runs,
//! so a run of several clients is a pure function of its inputs.
//!
//! ## Writes pipeline too — parked on their lock, under one rule
//!
//! Inserts and deletes join the pipeline: their *location* phase is the same
//! lock-free descent a lookup uses and overlaps freely with every other
//! in-flight operation — and so do both round trips of their commit.  The
//! head of the commit posts the lock acquisition (CAS + READ in one doorbell
//! batch) and parks on it like on any read; its completion runs the body of
//! the critical section without yielding — validate the locked image, pick
//! the slot, post write-back + release — and the operation parks once more on
//! that verb, whose memory effect applied at post time.  Between a write's
//! two round trips the client steps whatever completes first (HOCL's
//! "threads *and coroutines*", DEX-style lock-conscious pipelining).  A
//! split's separator and a merge are more of the same operation: each of
//! their lock steps parks as a `Park::Lock`, each other wait as a
//! `Park::Verb`, among the siblings' parks.
//!
//! Operations of one context that park while a lock is involved could wait
//! for each other.  One rule rules that out: **an operation that finds its
//! lock taken waits in the lock's local queue, and the release resumes
//! it.**  The lock manager's acquisition never blocks: a lost global attempt
//! is re-posted as another parked verb, and a lock word held by a sibling
//! operation of this very client — the same node, or a node whose lock
//! aliases it in the table — is waited for in the compute server's FIFO
//! queue, parked on a completion the sibling's release fires.  That release
//! hands the global lock over (bounded by `MAX_HANDOVER_DEPTH`), so the
//! successor skips the CAS and posts a plain READ.  (That is Sherman's rung,
//! `LockStrategy::Hocl`; on the rungs without a wait queue siblings race for
//! the local lock, or spin on the global word, instead.)  The queue is the
//! one the other clients of the compute server share, and what it guarantees
//! them it guarantees siblings: a leaf write holds one lock and needs only
//! its own completions to let go of it, a separator insertion holds at most
//! one lock while it waits, and a merge waits for a lock only in the lock
//! manager's rank order — so no wait closes a cycle.
//!
//! An operation's commit may leave verbs in flight that it is not parked on
//! (`OpMeta::in_flight`), so the loop resumes the slot whose *parked*
//! completion is due first (`ClientCtx::next_due`), a tie broken as
//! `ClientCtx::poll` breaks it.
//!
//! **A failed batch finishes what has begun a lock acquisition.**  When an
//! operation fails, every sibling that ever parked on a lock step — it may
//! hold a lock, wait in a queue, or owe the tree a separator — runs to its
//! end, its own failure ignored; the others are dropped, every completion
//! outstanding observed, and the batch returns the first error.
//!
//! At depth 1 there is no sibling: the rule is vacuous and the run posts and
//! polls exactly the blocking path's verbs.
//!
//! ## Attributing completions to operations
//!
//! All in-flight operations of a client share one completion queue.  Every
//! posted verb and CPU charge is tagged with its operation's id
//! (`ClientCtx::set_current_op`), so each lands in that operation's one cost
//! record (`sherman_sim::OpVerbStats`) — the record the blocking entry points
//! report through too, as a batch's first operation.  A
//! [`PipelinedResult::latency_ns`] is the union of the op's own verb windows,
//! CPU charges and waits: at depth 1 exactly its elapsed time, and at depth
//! > 1 without the time spent advancing *other* operations.

use crate::client::TreeClient;
use crate::exec::OpCx;
use crate::ops::{self, OpMeta, OpOutput};
use crate::{OpStats, TreeResult};
use sherman_memserver::{EpochPin, ReaderHandle};
use sherman_metrics::OverlapGauges;
use sherman_sim::{ClientStats, Completion, FabricBackend, Park};
use std::future::Future;
use std::pin::Pin;

/// One operation for the pipelined driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOp {
    /// Point lookup of `key`.
    Lookup {
        /// Target key.
        key: u64,
    },
    /// Scan `count` entries starting from the smallest key `>= start_key`.
    Range {
        /// First key of the scan.
        start_key: u64,
        /// Number of entries requested.
        count: usize,
    },
    /// Insert (or update) `key → value`.
    Insert {
        /// Target key.
        key: u64,
        /// Value to install.
        value: u64,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// One completed pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedResult {
    /// The operation that ran.
    pub op: PipelineOp,
    /// Its result.
    pub output: OpOutput,
    /// This operation's own time: the union of its verb windows, CPU
    /// charges and waits — each counts only the part past the op's latest
    /// busy instant (`sherman_sim::OpVerbStats`).  At depth 1 this equals
    /// the blocking path's latency, the time that passed; at depth > 1 it
    /// excludes time spent advancing other in-flight operations.
    pub latency_ns: u64,
    /// Round trips this operation's tagged verbs completed.
    pub round_trips: u64,
    /// Bytes this operation's tagged verbs wrote to remote memory.
    pub bytes_written: u64,
    /// Consistency-check retries this operation performed.
    pub read_retries: u64,
    /// Global lock attempts of this operation that lost their CAS — each one
    /// a round trip of its own among `round_trips` (saturating; 32 bits keep
    /// a result, of which a run holds one per operation, at 88 bytes).
    pub lock_retries: u32,
    /// Whether a write operation obtained its lock via local handover.
    pub handed_over: bool,
    /// Whether the operation's leaf address came from the index cache.
    pub cache_hit: bool,
}

/// What one pipelined run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-operation results, in completion order.
    pub results: Vec<PipelinedResult>,
    /// Elapsed virtual time of the whole run.
    pub elapsed_ns: u64,
    /// Fabric counters accumulated by the run (delta over the client).
    pub stats: ClientStats,
    /// Overlap gauges derived from `stats` and `elapsed_ns`.
    pub overlap: OverlapGauges,
}

/// Build the overlap gauges for one run from its fabric-stats delta and
/// elapsed virtual time — the single place the `ClientStats` counters map
/// onto [`OverlapGauges`], shared by the scheduler and the blocking
/// reference driver in the bench harness.
pub fn overlap_from_stats(stats: &ClientStats, elapsed_ns: u64) -> OverlapGauges {
    OverlapGauges {
        round_trips: stats.round_trips,
        overlapped_round_trips: stats.overlapped_round_trips,
        max_in_flight: stats.max_in_flight,
        in_flight_posts: stats.in_flight_posts,
        serial_verb_ns: stats.verb_ns,
        elapsed_ns,
    }
}

/// One operation's future: it borrows the context it runs against.
type OpFuture<'f> = Pin<Box<dyn Future<Output = TreeResult<(OpOutput, OpMeta)>> + 'f>>;

/// One in-flight operation: its future and what it is parked on.
struct Slot<'f> {
    /// Scheduler-assigned operation id; every verb the op posts carries it,
    /// which is how the shared completion queue attributes completions.
    id: u64,
    op: PipelineOp,
    future: OpFuture<'f>,
    /// What the operation is parked on: the verb (or wait) it posted; `None`
    /// before its first poll.
    parked: Option<Park>,
    /// It has parked on a lock step: a failed batch runs it to its end.
    locking: bool,
    /// Pins the reclamation epoch for this operation's whole lifetime, like
    /// the blocking entry points do.  Pins on one reader handle nest, so N
    /// concurrent operations hold the oldest epoch — conservative and safe.
    _pin: EpochPin,
}

/// One client's batch in progress: the context it multiplexes, the slots,
/// the feed that refills them and the results so far.
struct Run<'f, 'a, B: FabricBackend, I> {
    cx: &'f OpCx<'a, B>,
    reader: &'f ReaderHandle,
    slots: Vec<Option<Slot<'f>>>,
    feed: I,
    next_id: u64,
    results: Vec<PipelinedResult>,
}

impl<'f, B: FabricBackend, I: Iterator<Item = PipelineOp>> Run<'f, '_, B, I> {
    /// Pull operations from the feed into slot `idx` until one parks (an
    /// operation that finishes without ever parking frees the slot again).
    async fn refill(&mut self, idx: usize) -> TreeResult<()> {
        while self.slots[idx].is_none() {
            let Some(op) = self.feed.next() else {
                return Ok(());
            };
            let id = self.next_id;
            self.next_id += 1;
            // Operation boundary: apply any delivered coherence messages
            // before the op routes through the cache — the same drain point
            // the blocking entry points use, so depth 1 stays byte-for-byte
            // identical to blocking.
            self.cx.drain_coherence();
            let _pin = self.reader.pin();
            let future = Box::pin(ops::run(self.cx, op));
            self.slots[idx] = Some(Slot {
                id,
                op,
                future,
                parked: None,
                locking: false,
                _pin,
            });
            self.step_slot(idx, None).await?;
        }
        Ok(())
    }

    /// Poll the operation in slot `idx`, `completion` answering its park,
    /// until it parks on something that yields the client or finishes (its
    /// result is recorded and the slot left empty; on an error the slot is
    /// emptied too).  A hold is waited out here, its siblings parked
    /// meanwhile.
    async fn step_slot(&mut self, idx: usize, completion: Option<Completion>) -> TreeResult<()> {
        let cx = self.cx;
        let slot = self.slots[idx]
            .as_mut()
            .expect("stepping an in-flight operation");
        // Tag every verb (and CPU charge) of this operation with its id so
        // the shared completion queue can attribute it.
        cx.ctx().set_current_op(Some(slot.id));
        if let Some(completion) = completion {
            cx.resume(completion);
        }
        let polled = loop {
            match cx.poll(slot.future.as_mut()) {
                Err(Park::Hold(token)) => {
                    let completion = cx.complete(token).await;
                    cx.resume(completion);
                }
                polled => break polled,
            }
        };
        cx.ctx().set_current_op(None);
        match polled {
            Err(park) => {
                slot.locking |= matches!(park, Park::Lock(_));
                slot.parked = Some(park);
                Ok(())
            }
            Ok(ran) => {
                let finished = self.slots[idx].take().expect("active slot");
                let record = cx.ctx().take_op_stats(finished.id);
                let (output, meta) = ran?;
                let stats = OpStats::new(&record, &meta);
                self.results.push(PipelinedResult {
                    op: finished.op,
                    output,
                    latency_ns: stats.latency_ns,
                    round_trips: stats.round_trips,
                    bytes_written: stats.bytes_written,
                    read_retries: stats.read_retries,
                    lock_retries: u32::try_from(stats.lock_retries).unwrap_or(u32::MAX),
                    handed_over: stats.handed_over,
                    cache_hit: stats.cache_hit,
                });
                Ok(())
            }
        }
    }

    /// Resume the operation, among those `pick` accepts, whose parked
    /// completion is due first.  `false` when `pick` accepts none.
    async fn step_next(&mut self, pick: impl Fn(&Slot<'f>) -> bool) -> TreeResult<bool> {
        if !self.slots.iter().flatten().any(&pick) {
            return Ok(false);
        }
        let parked_on = |token| {
            let on = |slot: &Slot<'f>| pick(slot) && slot.parked.map(Park::token) == Some(token);
            self.slots.iter().position(|s| s.as_ref().is_some_and(on))
        };
        let (due, token) = self
            .cx
            .ctx()
            .next_due(|token| parked_on(token).is_some())
            .expect("the operations of one client wait for each other");
        let idx = parked_on(token).expect("a parked completion");
        self.cx.until(due).await;
        let completion = self.cx.ctx().poll_token(token);
        self.step_slot(idx, Some(completion)).await?;
        Ok(true)
    }

    /// Run the feed to its end and return every result.  On a failure,
    /// leave the context — and the locks, and the tree — clean first: run
    /// every operation that has begun a lock acquisition to its end (their
    /// own failures no longer matter), then observe every outstanding
    /// completion.
    async fn finish(mut self) -> TreeResult<Vec<PipelinedResult>> {
        if let Err(e) = self.run_feed().await {
            while self.step_next(|slot| slot.locking).await.unwrap_or(true) {}
            loop {
                let next = self.cx.ctx().next_due(|_| true);
                let Some((due, token)) = next else {
                    break;
                };
                self.cx.until(due).await;
                self.cx.ctx().poll_token(token);
            }
            // What is left are waits nothing can wake any more, and the
            // cost records of the operations dropped (the next batch reuses
            // their ids).
            self.cx.ctx().drain();
            return Err(e);
        }
        Ok(self.results)
    }

    /// Completion-driven loop: the operation whose parked completion is due
    /// first advances; a finished operation's slot pulls the next one from
    /// the feed before anything else runs.
    async fn run_feed(&mut self) -> TreeResult<()> {
        loop {
            for idx in 0..self.slots.len() {
                self.refill(idx).await?;
            }
            if !self.step_next(|_| true).await? {
                return Ok(());
            }
        }
    }
}

/// Run `ops` with up to `depth` operations in flight on `cx`: one batch of a
/// client, reported as [`TreeClient::run_pipelined`] reports it.
async fn run_batch<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    reader: &ReaderHandle,
    ops: impl IntoIterator<Item = PipelineOp>,
    depth: usize,
) -> TreeResult<PipelineReport> {
    let (before, t0) = {
        let mut ctx = cx.ctx();
        // The in-flight high-water mark is a lifetime gauge on the client;
        // make it per-run so a reused client reports this run's depth.
        ctx.reset_max_in_flight();
        (ctx.stats(), ctx.now())
    };
    let mut slots = Vec::new();
    slots.resize_with(depth.max(1), || None);
    let run = Run {
        cx,
        reader,
        slots,
        feed: ops.into_iter(),
        next_id: 0,
        results: Vec::new(),
    };
    let results = run.finish().await?;

    let ctx = cx.ctx();
    let now = ctx.now();
    let stats = ctx.stats().delta_since(&before);
    // The overlap window ends at the run's *last completion*, not at the
    // current clock: the tail between the final completion and the
    // driver's return (result bookkeeping, trailing CPU charges) has no
    // verbs in flight by definition and used to dilute the gauges.
    let window_ns = stats.last_completion_at.clamp(t0, now).saturating_sub(t0);
    let overlap = overlap_from_stats(&stats, window_ns);
    Ok(PipelineReport {
        results,
        elapsed_ns: now.saturating_sub(t0),
        stats,
        overlap,
    })
}

/// One client's part in [`run_clients`]: the batches it runs one after the
/// other, and what it makes of each one's report.
pub trait Session {
    /// The operations of one batch.
    type Batch: IntoIterator<Item = PipelineOp>;

    /// The next batch, or `None` when the client is done.  Called at the
    /// instant the previous batch ended (the run's start, first).
    fn next_batch(&mut self) -> Option<Self::Batch>;

    /// What the batch just run produced.  A failed batch fails alone: the
    /// client goes on with its next one.
    fn report(&mut self, report: TreeResult<PipelineReport>);
}

/// Run every client's [`Session`] — `sessions[i]` on `clients[i]`, each batch
/// with up to `depth` operations in flight — on one executor, and return
/// when every session is done.
///
/// The clients' loops share one heap of the instants they wait for (see the
/// module docs): a client's next step runs when it is the earliest of all,
/// and nothing else moves the clock, so the run is a pure function of the
/// clients and their sessions.  Batches are per client, with no barrier
/// between clients.  A single client is driven alone, each wait answered in
/// place; that is the only form for a real-clock backend
/// ([`FabricBackend::VIRTUAL_CLOCK`] false), whose clients each need an OS
/// thread of their own.  Create the clients on the thread that calls this
/// (as [`Cluster::client`](crate::Cluster::client) asks): they share its
/// participant in the simulator's clock, which the executor's polls move.
///
/// # Panics
/// When `sessions` and `clients` differ in length, or several clients run on
/// a real-clock backend.
pub fn run_clients<B: FabricBackend, S: Session>(
    clients: &mut [TreeClient<B>],
    sessions: &mut [S],
    depth: usize,
) {
    assert_eq!(clients.len(), sessions.len(), "one session per client");
    let cxs: Vec<_> = clients.iter_mut().map(TreeClient::op_cx_and_reader).collect();
    sherman_sim::run(
        cxs.iter()
            .zip(sessions)
            .map(|((cx, reader), session)| (&cx.parking, serve(cx, reader, session, depth))),
    );
}

/// One client's part in [`run_clients`]: its session's batches, one after
/// the other.
async fn serve<B: FabricBackend, S: Session>(
    cx: &OpCx<'_, B>,
    reader: &ReaderHandle,
    session: &mut S,
    depth: usize,
) {
    while let Some(ops) = session.next_batch() {
        session.report(run_batch(cx, reader, ops, depth).await);
    }
}

/// A session of one batch — its operations, then its report: what
/// [`TreeClient::run_pipelined`] runs.
struct OneBatch<I>(Option<I>, Option<TreeResult<PipelineReport>>);

impl<I: IntoIterator<Item = PipelineOp>> Session for OneBatch<I> {
    type Batch = I;

    fn next_batch(&mut self) -> Option<I> {
        self.0.take()
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        self.1 = Some(report);
    }
}

impl<B: FabricBackend> TreeClient<B> {
    /// Run `ops` with up to `depth` operations in flight on this client's
    /// single fabric context, returning every result plus the run's overlap
    /// gauges: [`run_clients`] with this one client and one batch.  `depth
    /// == 1` executes exactly the blocking path.
    ///
    /// All four operation kinds pipeline.  Reads are lock-free throughout;
    /// writes overlap their location phase, their lock + read round trip and
    /// their write-back + release round trip with the other operations (see
    /// the module docs for the rule that makes that safe).
    pub fn run_pipelined(
        &mut self,
        ops: impl IntoIterator<Item = PipelineOp>,
        depth: usize,
    ) -> TreeResult<PipelineReport> {
        let mut batch = OneBatch(Some(ops), None);
        run_clients(std::slice::from_mut(self), std::slice::from_mut(&mut batch), depth);
        batch.1.expect("the batch ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::TreeOptions;
    use std::sync::Arc;

    fn loaded_cluster(n: u64) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..n).map(|k| (k, k * 2 + 1))).unwrap();
        cluster
    }

    fn lookups(keys: impl IntoIterator<Item = u64>) -> Vec<PipelineOp> {
        keys.into_iter().map(|key| PipelineOp::Lookup { key }).collect()
    }

    #[test]
    fn pipelined_lookups_return_correct_values_at_every_depth() {
        let cluster = loaded_cluster(2_000);
        for depth in [1usize, 2, 4, 8] {
            let mut client = cluster.client(0);
            let keys: Vec<u64> = (0..200u64).map(|i| (i * 37) % 2_500).collect();
            let report = client.run_pipelined(lookups(keys.clone()), depth).unwrap();
            assert_eq!(report.results.len(), keys.len());
            for r in &report.results {
                let PipelineOp::Lookup { key } = r.op else { panic!() };
                let expect = (key < 2_000).then_some(key * 2 + 1);
                assert_eq!(r.output, OpOutput::Lookup(expect), "depth {depth} key {key}");
            }
        }
    }

    #[test]
    fn depth_one_matches_the_blocking_path_exactly() {
        let keys: Vec<u64> = (0..150u64).map(|i| (i * 101) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let mut blocking = cluster.client(0);
        let tb0 = blocking.now();
        for &k in &keys {
            blocking.lookup(k).unwrap();
        }
        let blocking_elapsed = blocking.now() - tb0;
        drop(blocking);

        let cluster = loaded_cluster(2_000);
        let mut pipelined = cluster.client(0);
        let report = pipelined.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(
            report.elapsed_ns, blocking_elapsed,
            "depth 1 must execute the same verbs at the same virtual times"
        );
        assert_eq!(report.overlap.max_in_flight, 1);
        assert_eq!(report.overlap.overlapped_round_trips, 0);

        // A mix that splits and merges: op by op, depth 1 reports what the
        // blocking path reports.
        let mut ops = Vec::new();
        for i in 0..1_200u64 {
            let k = (i * 37) % 6_000;
            ops.push(match i % 6 {
                0 => PipelineOp::Lookup { key: k },
                1 | 2 => PipelineOp::Insert { key: k | 1, value: i },
                3 => PipelineOp::Insert { key: k - k % 3, value: i },
                4 => PipelineOp::Delete { key: k },
                _ => PipelineOp::Range { start_key: k, count: 25 },
            });
        }
        ops.extend((0..600u64).map(|k| PipelineOp::Delete { key: k * 3 }));
        let cost = |s: &crate::OpStats| (s.latency_ns, s.round_trips, s.bytes_written);
        let every_third = || {
            let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
            cluster.bulkload((0..2_000u64).map(|k| (k * 3, k * 7 + 1))).unwrap();
            cluster
        };

        let cluster = every_third();
        let carved = cluster.pool().nodes_carved();
        let mut blocking = cluster.client(0);
        let want: Vec<_> = ops
            .iter()
            .map(|&op| match op {
                PipelineOp::Lookup { key } => cost(&blocking.lookup(key).unwrap().1),
                PipelineOp::Insert { key, value } => cost(&blocking.insert(key, value).unwrap()),
                PipelineOp::Delete { key } => cost(&blocking.delete(key).unwrap().1),
                PipelineOp::Range { start_key, count } => {
                    cost(&blocking.range(start_key, count).unwrap().1)
                }
            })
            .collect();
        assert!(cluster.pool().nodes_carved() > carved, "no split happened");
        assert!(cluster.space_stats().leaf_merges > 0, "no merge happened");
        drop(blocking);

        let cluster = every_third();
        let report = cluster.client(0).run_pipelined(ops, 1).unwrap();
        assert_eq!(report.results.len(), want.len());
        let diverged: Vec<_> = report
            .results
            .iter()
            .map(|r| (r.op, (r.latency_ns, r.round_trips, r.bytes_written)))
            .zip(want)
            .filter(|((_, got), want)| got != want)
            .collect();
        assert!(
            diverged.is_empty(),
            "{} ops cost otherwise at depth 1, (latency, round trips, bytes) against \
             blocking: {:?}",
            diverged.len(),
            &diverged[..diverged.len().min(4)]
        );
    }

    #[test]
    fn deeper_pipelines_overlap_and_speed_up_uniform_lookups() {
        let keys: Vec<u64> = (0..400u64).map(|i| (i * 997) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let d1 = cluster.client(0).run_pipelined(lookups(keys.clone()), 1).unwrap();

        let cluster = loaded_cluster(2_000);
        let d4 = cluster.client(0).run_pipelined(lookups(keys), 4).unwrap();

        assert!(
            d4.elapsed_ns * 3 < d1.elapsed_ns * 2,
            "depth 4 ({}) should be at least 1.5x faster than depth 1 ({})",
            d4.elapsed_ns,
            d1.elapsed_ns
        );
        assert!(d4.overlap.mean_in_flight() > 1.5, "mean in-flight {}", d4.overlap.mean_in_flight());
        assert!(d4.overlap.max_in_flight >= 3);
        assert!(d4.overlap.overlap_factor() > 1.5);
        assert!(d4.stats.overlapped_round_trips > 0);
    }

    #[test]
    fn pipelined_range_scans_work_alongside_lookups() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(PipelineOp::Lookup { key: i * 40 });
            ops.push(PipelineOp::Range {
                start_key: i * 40,
                count: 10,
            });
        }
        let report = client.run_pipelined(ops, 4).unwrap();
        assert_eq!(report.results.len(), 80);
        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    assert_eq!(*v, Some(key * 2 + 1));
                }
                (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                    assert_eq!(scan.len(), *count);
                    assert_eq!(scan[0].0, *start_key);
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
                }
                other => panic!("mismatched op/output {other:?}"),
            }
        }
    }

    #[test]
    fn scheduler_is_deterministic() {
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 31) % 2_000).collect();
        let run = || {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let report = client.run_pipelined(lookups(keys.clone()), 4).unwrap();
            (report.elapsed_ns, report.stats, report.results)
        };
        let (e1, s1, r1) = run();
        let (e2, s2, r2) = run();
        assert_eq!(e1, e2, "virtual-time totals must be identical");
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn reused_client_reports_per_run_in_flight_highwater() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 17 % 2_000).collect();
        let deep = client.run_pipelined(lookups(keys.clone()), 8).unwrap();
        assert!(deep.overlap.max_in_flight >= 4);
        // A later depth-1 run on the *same* client must not inherit the
        // earlier run's high-water mark.
        let shallow = client.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(shallow.overlap.max_in_flight, 1);
        assert_eq!(shallow.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn pipelined_writes_commit_at_every_depth() {
        for depth in [1usize, 4, 8] {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let mut ops = Vec::new();
            for i in 0..120u64 {
                ops.push(PipelineOp::Insert {
                    key: 10_000 + i,
                    value: i + 1,
                });
                ops.push(PipelineOp::Delete { key: i * 3 });
                ops.push(PipelineOp::Lookup { key: i * 5 + 1 });
            }
            let report = client.run_pipelined(ops, depth).unwrap();
            assert_eq!(report.results.len(), 360);
            for r in &report.results {
                match (&r.op, &r.output) {
                    (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
                    (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                        assert!(*found, "depth {depth}: delete {key} missed its key");
                    }
                    (PipelineOp::Lookup { .. }, OpOutput::Lookup(_)) => {}
                    other => panic!("mismatched op/output {other:?}"),
                }
                assert!(r.round_trips > 0, "depth {depth}: untagged op {:?}", r.op);
            }
            // Every tagged round trip is attributed to exactly one result.
            let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
            assert_eq!(attributed, report.stats.round_trips, "depth {depth}");
            // Post-state: inserts visible, deleted keys gone.
            for i in 0..120u64 {
                assert_eq!(client.lookup(10_000 + i).unwrap().0, Some(i + 1), "depth {depth}");
                assert_eq!(client.lookup(i * 3).unwrap().0, None, "depth {depth}");
            }
        }
    }

    #[test]
    fn a_result_stays_eighty_eight_bytes() {
        // A driver keeps one per operation of a batch (65 536 in the
        // benchmark): eight bytes more each moved that run's peak RSS by 6 %.
        assert_eq!(std::mem::size_of::<PipelinedResult>(), 88);
    }

    #[test]
    fn empty_feed_returns_an_empty_report() {
        let cluster = loaded_cluster(100);
        let mut client = cluster.client(0);
        let report = client.run_pipelined(std::iter::empty(), 8).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.stats.round_trips, 0);
    }
}
