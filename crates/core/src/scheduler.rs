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
//! [`run_clients`] drives every client's loop on one thread: each loop
//! parks on the instant its next step is due (`OpCx::until`), and a heap
//! keyed by (that instant, client index) resumes the earliest — the lower
//! client index on a tie.  Within a client the next step is the one the loop
//! picks: the earliest completion on its completion queue; a finished
//! operation's slot immediately pulls the next operation from the feed.  A
//! client is one CPU, so what an operation waits for *holding* its client —
//! CPU time, the few waits that block inside an operation (`crate::exec`) —
//! lets other clients run but none of its siblings.  Run alone — one client,
//! [`TreeClient::run_pipelined`] — every wait is answered at once, the clock
//! moved by the poll that follows, and a `depth` of 1 degenerates to exactly
//! the blocking path (post one verb, poll it): the equivalence the
//! `pipelined_equivalence` and `write_pipelining` suites pin down.
//!
//! Nothing but the heap moves the simulator's clock while the executor runs,
//! so a run of several clients is a pure function of its inputs.
//!
//! ## Writes pipeline too — parked on their lock, under two rules
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
//! "threads *and coroutines*", DEX-style lock-conscious pipelining).
//!
//! Operations of one context that park while a lock is involved could wait
//! for each other.  Two rules rule that out:
//!
//! 1. **An operation that finds its lock taken waits in the lock's local
//!    queue, and the release resumes it.**  The lock manager's acquisition
//!    machine never blocks (each step of it parks as a `Park::Lock`): a lost
//!    global attempt is re-posted as another parked verb, and a lock word
//!    held by a sibling operation of this very client — the same leaf, or a
//!    leaf whose lock aliases it in the table — is waited for in the compute
//!    server's FIFO queue, parked on a completion the sibling's release
//!    fires.  That release hands the global lock over (bounded by
//!    `MAX_HANDOVER_DEPTH`), so the successor skips the CAS and posts a
//!    plain READ.  (That is Sherman's rung, `LockStrategy::Hocl`; on the
//!    rungs without a wait queue siblings race for the local lock, or spin on
//!    the global word, instead.)  The holder of a lock needs nothing but its
//!    own completion to let go of it, so these waits form no cycle.
//! 2. **A commit that needs further locks starts only once no other
//!    operation of this client is inside a lock acquisition.**  The
//!    separator of a split and a structural merge lock a parent, or a pair
//!    and their parent, and wait for them.  They run with the leaf lock
//!    already released, after the operation parks on `Park::Exclusive`: the
//!    client first steps every sibling that holds a lock, has an attempt in
//!    flight or sits in a queue through to its release post
//!    (`Run::settle_acquisitions` — nothing new is started meanwhile), then
//!    drives the follow-up alone, answering each park with its own
//!    completion (`OpCx::drive`).  Both are states of the client on the
//!    heap: other clients run meanwhile, so a follow-up waiting for a lock
//!    another client holds sees it released.  Whatever those acquisitions
//!    meet is held by another client, which makes progress on its own:
//!    lock-word aliasing can never deadlock a client against itself.  The
//!    same settling runs before a failed batch returns, so an abandoned
//!    operation never leaves a lock behind.
//!
//! At depth 1 there is no sibling: both rules are vacuous and the run posts
//! and polls exactly the blocking path's verbs.
//!
//! ## Attributing completions to operations
//!
//! All in-flight operations of a client share one completion queue.  Every
//! posted verb is tagged with its operation's id (`ClientCtx::set_current_op`),
//! so the fabric can attribute each completion's round trip and wait to the
//! op that posted it.  A [`PipelinedResult::latency_ns`] is the sum of the
//! op's own verb waits and CPU charges — its serial service demand — which at
//! depth 1 equals wall-clock latency exactly and at depth > 1 excludes time
//! spent advancing *other* operations.

use crate::client::TreeClient;
use crate::exec::{OpCx, Park};
use crate::ops::{self, OpMeta, OpOutput};
use crate::TreeResult;
use sherman_memserver::{EpochPin, ReaderHandle};
use sherman_metrics::OverlapGauges;
use sherman_sim::{ClientStats, Completion, FabricBackend};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

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
    /// This operation's own service time: the verb waits and CPU charges
    /// attributed to it through its op-id-tagged completions.  At depth 1
    /// this equals the wall-clock latency of the blocking path; at depth > 1
    /// it deliberately excludes time spent advancing other in-flight
    /// operations (which the old wall-clock measurement wrongly included).
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

impl PipelineReport {
    /// Operations completed per virtual second.
    pub fn throughput_ops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.results.len() as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
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
    /// What the operation is parked on: the verb (or wait) it posted, or —
    /// before its first poll and while it is settling the others' lock
    /// acquisitions — [`Park::Exclusive`].
    parked: Park,
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
                parked: Park::Exclusive,
                _pin,
            });
            self.step_slot(idx, None).await?;
        }
        Ok(())
    }

    /// Refill every empty slot.  Starting an operation can run an exclusive
    /// drive, which can finish operations in slots already visited: go round
    /// until a pass starts nothing.
    async fn refill_all(&mut self) -> TreeResult<()> {
        loop {
            let started = self.next_id;
            for idx in 0..self.slots.len() {
                if self.slots[idx].is_none() {
                    self.refill(idx).await?;
                }
            }
            if self.next_id == started {
                return Ok(());
            }
        }
    }

    /// Poll the operation in slot `idx` until it parks on something that
    /// yields the client, or finishes: a hold is waited out here, its
    /// siblings parked meanwhile.
    async fn poll_slot(&mut self, idx: usize) -> Result<TreeResult<(OpOutput, OpMeta)>, Park> {
        loop {
            let slot = self.slots[idx]
                .as_mut()
                .expect("stepping an in-flight operation");
            match self.cx.poll(slot.future.as_mut()) {
                Err(Park::Hold(token)) => {
                    let completion = self.cx.complete(token).await;
                    self.cx.resume(completion);
                }
                polled => return polled,
            }
        }
    }

    /// Poll the operation in slot `idx`, `completion` answering its park,
    /// until it parks on something it posted or finishes (its result is
    /// recorded and the slot left empty; on an error the slot is emptied
    /// too).
    async fn step_slot(&mut self, idx: usize, completion: Option<Completion>) -> TreeResult<()> {
        let cx = self.cx;
        // Tag every verb (and CPU charge) of this operation with its id so
        // the shared completion queue can attribute it.
        let id = self.slots[idx]
            .as_ref()
            .expect("stepping an in-flight operation")
            .id;
        cx.ctx().set_current_op(Some(id));
        if let Some(completion) = completion {
            cx.resume(completion);
        }
        let mut polled = self.poll_slot(idx).await;
        if let Err(Park::Exclusive) = polled {
            // Boxed: rare, and every step would otherwise carry its state.
            polled = Ok(Box::pin(self.drive_alone(idx, id)).await?);
        }
        cx.ctx().set_current_op(None);
        match polled {
            Err(park) => {
                self.slots[idx].as_mut().expect("a parked operation").parked = park;
                Ok(())
            }
            Ok(Ok((output, meta))) => {
                let finished = self.slots[idx].take().expect("active slot");
                let op_stats = cx.ctx().take_op_stats(finished.id);
                self.results.push(PipelinedResult {
                    op: finished.op,
                    output,
                    latency_ns: op_stats.latency_ns(),
                    round_trips: op_stats.round_trips,
                    bytes_written: op_stats.bytes_written,
                    read_retries: meta.read_retries,
                    lock_retries: u32::try_from(meta.lock_retries).unwrap_or(u32::MAX),
                    handed_over: meta.handed_over,
                    cache_hit: meta.cache_hit,
                });
                Ok(())
            }
            Ok(Err(e)) => {
                self.slots[idx] = None;
                Err(e)
            }
        }
    }

    /// Rule two: the operation in slot `idx` (id `id`) takes further locks,
    /// and waits for them, only with every sibling out of its acquisition —
    /// and then alone.
    async fn drive_alone(
        &mut self,
        idx: usize,
        id: u64,
    ) -> TreeResult<TreeResult<(OpOutput, OpMeta)>> {
        let slot = self.slots[idx].as_mut().expect("an exclusive operation");
        slot.parked = Park::Exclusive;
        self.cx.ctx().set_current_op(None);
        self.settle_acquisitions(Some(idx)).await?;
        let slot = self.slots[idx].as_mut().expect("an exclusive operation waits");
        self.cx.ctx().set_current_op(Some(id));
        Ok(self.cx.drive(slot.future.as_mut()).await)
    }

    /// Run the feed to its end and return every result.  On a failure,
    /// leave the context — and the locks — clean first: let every operation
    /// that is acquiring a lock release it again (their own failures no
    /// longer matter), then observe every outstanding completion.
    async fn finish(mut self) -> TreeResult<Vec<PipelinedResult>> {
        if let Err(e) = self.run_feed().await {
            while self.settle_acquisitions(None).await.is_err() {}
            loop {
                let Some(due) = self.cx.ctx().next_due() else {
                    break;
                };
                self.cx.until(due).await;
                self.cx.ctx().poll(None);
            }
            // What is left are waits nothing can wake any more.
            self.cx.ctx().drain();
            return Err(e);
        }
        Ok(self.results)
    }

    /// Completion-driven loop: the earliest outstanding completion decides
    /// which operation advances; a finished operation's slot pulls the next
    /// one from the feed before anything else runs.
    async fn run_feed(&mut self) -> TreeResult<()> {
        self.refill_all().await?;
        while self.slots.iter().any(Option::is_some) {
            let due = self
                .cx
                .ctx()
                .next_due()
                .expect("every in-flight operation has an outstanding verb");
            self.cx.until(due).await;
            let completion = self
                .cx
                .ctx()
                .poll(None)
                .expect("the completion that was due is outstanding");
            let idx = self
                .slots
                .iter()
                .position(|s| {
                    s.as_ref()
                        .is_some_and(|slot| slot.parked.token() == Some(completion.token))
                })
                .expect("completion token belongs to an in-flight operation");
            self.step_slot(idx, Some(completion)).await?;
            self.refill_all().await?;
        }
        Ok(())
    }

    /// Step every operation other than `except` that is inside a lock
    /// acquisition — holding a lock, an attempt in flight, or queued for one
    /// — until it has posted its release, earliest completion first.  No slot
    /// is refilled meanwhile, so this ends: each such operation needs nothing
    /// but its own completions (and releases of the others, which wake it)
    /// to get there.
    async fn settle_acquisitions(&mut self, except: Option<usize>) -> TreeResult<()> {
        loop {
            let next = self
                .slots
                .iter()
                .enumerate()
                .filter(|&(idx, _)| Some(idx) != except)
                .filter_map(|(idx, slot)| match slot.as_ref()?.parked {
                    Park::Lock(token) => Some((self.cx.ctx().completes_at(token), idx, token)),
                    _ => None,
                })
                .min_by_key(|&(due, idx, _)| (due, idx));
            let Some((due, idx, token)) = next else {
                return Ok(());
            };
            assert!(due != u64::MAX, "lock acquisitions of one client wait for each other");
            let completion = self.cx.complete(token).await;
            self.step_slot(idx, Some(completion)).await?;
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
    let alone = clients.len() == 1;
    assert!(
        alone || B::VIRTUAL_CLOCK,
        "several clients share one executor only on a virtual clock"
    );
    let cxs: Vec<_> = clients.iter_mut().map(|c| c.op_cx_and_reader(alone)).collect();
    let mut loops: Vec<_> = cxs
        .iter()
        .zip(sessions)
        .map(|((cx, reader), session)| Box::pin(serve(cx, reader, session, depth)))
        .collect();
    // The instant each client's loop waits for, earliest first, the lower
    // client index on a tie; every loop starts now, in client order.
    let mut heap: BinaryHeap<_> = (0..loops.len()).map(|idx| Reverse((0, idx))).collect();
    while let Some(Reverse((_, idx))) = heap.pop() {
        let polled = loops[idx].as_mut().poll(&mut Context::from_waker(Waker::noop()));
        if polled.is_pending() {
            assert!(!alone, "a client alone never waits for the executor");
            heap.push(Reverse((cxs[idx].0.take_due(), idx)));
        }
    }
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
    /// the module docs for the two rules that make that safe).
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
