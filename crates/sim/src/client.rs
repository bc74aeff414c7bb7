//! Per-thread client context: the compute-server side of the fabric.
//!
//! A [`ClientCtx`] exposes the one-sided verb set Sherman relies on, plus the
//! two doorbell batches used by the command-combination technique (§4.5) —
//! the write list at the tail of a write, CAS+READ at its head — and a
//! two-sided RPC used only for chunk allocation (§4.2.4).
//!
//! The context is generic over a [`FabricChannel`] — the per-backend verb
//! executor (see [`crate::channel`]).  The channel fixes each verb's
//! post→completion window around the memory effect, which
//! [`MemServerSim`](crate::server::MemServerSim) applies the same way on
//! every backend; everything else here — the completion queue, overlap
//! accounting, per-op attribution, critical-section tracking, tracing, the
//! blocking wrappers, the coherence drain/quiesce surface — is
//! backend-independent and behaves identically on the virtual-time simulator
//! ([`SimChannel`]) and the real-thread backend
//! ([`ThreadedChannel`](crate::threaded::ThreadedChannel)).
//!
//! ## Split-phase post/poll
//!
//! The fabric is **split-phase**: every verb is *posted* (`post_read`,
//! [`ClientCtx::post_write_batch`], `post_cas`, …), which charges the
//! request-side port time, applies the memory effect, fixes the verb's
//! completion time and enqueues a [`Completion`] on the client's completion
//! queue — without blocking the calling thread.  The caller later *polls*:
//! [`ClientCtx::poll`] waits for the **earliest** outstanding completion (the
//! clock's multi-completion rule, see
//! [`Participant::wait_until_earliest`](crate::clock::Participant::wait_until_earliest)),
//! while [`ClientCtx::poll_token`] waits for one specific verb.  One thread can
//! therefore keep many verbs in flight and overlap their round trips — the
//! latency-hiding lever behind the pipelined tree-operation scheduler.
//!
//! The classic blocking verbs ([`ClientCtx::read`], [`ClientCtx::post_writes`],
//! [`ClientCtx::cas`], …) have no body of their own: each is its `post_*`,
//! [`ClientCtx::poll_token`] and one `VerbResult::into_*`, so a blocking
//! caller gets exactly the pre-split-phase behaviour and timing.
//!
//! Posting applies the verb's memory effect immediately (at the *post*
//! instant), just as the blocking path always did; the completion only carries
//! the time at which the response arrives back at the client.
//!
//! ## Waits
//!
//! Not everything a pipelined operation parks on is a verb.  A **wait**
//! ([`ClientCtx::post_wait`]) is a completion-queue entry that costs no round
//! trip: it fires at a deadline (a timer — the local poll interval of a lock
//! queue), when another operation of the same context calls
//! [`ClientCtx::wake`] on it (a lock release resuming its successor), or
//! whichever comes first.  A wait without a deadline never fires by itself.
//! Waits are polled like verbs but appear in none of the round-trip or
//! in-flight counters; the time an operation spent parked on one is charged
//! to it as CPU time, like the polling it replaces.

use crate::addr::{GlobalAddress, MemSpace};
use crate::channel::{FabricBackend, FabricChannel, VerbWindow};
use crate::coherence::CoherenceMsg;
use crate::fabric::SimChannel;
use crate::rpc::{RpcDecline, RpcRequest, RpcResponse, RpcWork};
use crate::server::AtomicOp;
use crate::SimResult;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single write command inside a doorbell batch.
#[derive(Debug, Clone)]
pub struct WriteCmd {
    /// Destination address.
    pub addr: GlobalAddress,
    /// Payload to write.
    pub data: Vec<u8>,
}

impl WriteCmd {
    /// Convenience constructor.
    pub fn new(addr: GlobalAddress, data: Vec<u8>) -> Self {
        WriteCmd { addr, data }
    }
}

/// Per-client verb counters; snapshot/diff these around an index operation to
/// obtain per-operation round trips, byte counts and retries (Figure 14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// One-sided reads issued.
    pub reads: u64,
    /// One-sided writes issued (each entry of a batch counts).
    pub writes: u64,
    /// Atomic verbs issued.
    pub atomics: u64,
    /// Two-sided RPCs issued.
    pub rpcs: u64,
    /// Network round trips (a doorbell batch or parallel read batch counts once).
    pub round_trips: u64,
    /// Round trips posted while at least one other verb of this client was
    /// still in flight — i.e. whose service window overlapped another
    /// outstanding verb's window on the virtual clock.  Blocking callers
    /// (post + poll per verb) never overlap; a pipelined caller's overlap
    /// ratio is the direct measure of how much latency it is hiding.
    pub overlapped_round_trips: u64,
    /// High-water mark of simultaneously outstanding verbs.  Not a
    /// monotonically accumulating counter: [`ClientStats::delta_since`]
    /// reports the later snapshot's high-water mark verbatim.
    pub max_in_flight: u64,
    /// Sum over posted round trips of the in-flight depth right after the
    /// post (including the new verb): `in_flight_posts / round_trips` is the
    /// mean in-flight depth seen by this client's verbs.
    pub in_flight_posts: u64,
    /// Sum of every verb's post→completion window in nanoseconds: the
    /// *serial* time the verbs would have cost end-to-end.  Comparing it
    /// with the elapsed time of a run quantifies the overlap.
    pub verb_ns: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Retries recorded by higher layers (failed CAS, version mismatch, …).
    pub retries: u64,
    /// Latest `completed_at` over every verb posted so far (ns).
    /// Like `max_in_flight` this is a high-water mark, not a counter:
    /// [`ClientStats::delta_since`] carries the later snapshot's value.  A
    /// pipelined driver uses it to end its overlap window at the moment the
    /// last verb completed, excluding any post-drain scheduler time.
    pub last_completion_at: u64,
}

impl ClientStats {
    /// Difference between two snapshots (`self` taken after `earlier`).
    ///
    /// `max_in_flight` is a high-water mark, not a counter; the delta carries
    /// the later snapshot's value.
    pub fn delta_since(&self, earlier: &ClientStats) -> ClientStats {
        ClientStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            atomics: self.atomics - earlier.atomics,
            rpcs: self.rpcs - earlier.rpcs,
            round_trips: self.round_trips - earlier.round_trips,
            overlapped_round_trips: self.overlapped_round_trips - earlier.overlapped_round_trips,
            max_in_flight: self.max_in_flight,
            in_flight_posts: self.in_flight_posts - earlier.in_flight_posts,
            verb_ns: self.verb_ns - earlier.verb_ns,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            retries: self.retries - earlier.retries,
            last_completion_at: self.last_completion_at,
        }
    }
}

/// Lock-free cells behind a client's [`ClientStats`].
///
/// Every counter is an `AtomicU64` updated with relaxed read-modify-write
/// operations, so the cells can be shared (`Arc`) with a concurrent observer
/// — the threaded backend's poll path reads them from other OS threads
/// without taking a lock, and a monitor thread can watch a live client's
/// counters mid-run.  [`SharedClientStats::snapshot`] materializes the plain
/// [`ClientStats`] view.
#[derive(Debug, Default)]
pub struct SharedClientStats {
    reads: AtomicU64,
    writes: AtomicU64,
    atomics: AtomicU64,
    rpcs: AtomicU64,
    round_trips: AtomicU64,
    overlapped_round_trips: AtomicU64,
    max_in_flight: AtomicU64,
    in_flight_posts: AtomicU64,
    verb_ns: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    retries: AtomicU64,
    last_completion_at: AtomicU64,
}

impl SharedClientStats {
    /// A coherent-enough snapshot of every counter (individual loads are
    /// relaxed; the snapshot is exact whenever the owning client is between
    /// verbs, which is when drivers read it).
    pub fn snapshot(&self) -> ClientStats {
        ClientStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            overlapped_round_trips: self.overlapped_round_trips.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            in_flight_posts: self.in_flight_posts.load(Ordering::Relaxed),
            verb_ns: self.verb_ns.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            last_completion_at: self.last_completion_at.load(Ordering::Relaxed),
        }
    }

    /// Current overlap counters `(in_flight_posts, overlapped_round_trips)` —
    /// the pair the pipelined scheduler's gauges are built from, readable
    /// without a lock from any thread.
    pub fn overlap_counters(&self) -> (u64, u64) {
        (
            self.in_flight_posts.load(Ordering::Relaxed),
            self.overlapped_round_trips.load(Ordering::Relaxed),
        )
    }
}

/// Per-operation verb accounting, keyed by the op id a pipelined driver set
/// with [`ClientCtx::set_current_op`] before posting.  `verb_ns + cpu_ns` is
/// the operation's serial service demand: at depth 1 it equals the op's
/// wall-clock latency exactly (every clock advance in a blocking op is either
/// a verb window or a CPU charge), and at depth > 1 it stays the op's own
/// time — overlapping ops no longer double-count each other's round trips,
/// and an op that keeps several verbs of its own in flight is charged the
/// time it had *any* of them outstanding, not each window separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpVerbStats {
    /// Round trips posted while this op was current.
    pub round_trips: u64,
    /// Time this op had a verb of its own in flight: the union of its verbs'
    /// post→completion windows (ns) — their sum unless it overlapped them.
    pub verb_ns: u64,
    /// Latest completion among this op's verbs so far: where `verb_ns`'s
    /// union ends.
    busy_until: u64,
    /// Client-side CPU time charged while this op was current (ns).
    pub cpu_ns: u64,
    /// Payload bytes read by this op's verbs.
    pub bytes_read: u64,
    /// Payload bytes written by this op's verbs.
    pub bytes_written: u64,
    /// Two-sided RPCs posted while this op was current (offloaded traversal
    /// steps and control RPCs alike).
    pub rpcs: u64,
}

impl OpVerbStats {
    /// The op's serial service demand: verb time plus CPU time.
    pub fn latency_ns(&self) -> u64 {
        self.verb_ns + self.cpu_ns
    }
}

/// One entry of the verb trace recorded by [`ClientCtx::enable_trace`]:
/// every post is tagged with the op id that issued it and whether that op
/// held a lock at the time, and every lock critical section names its lock
/// word — so a test (or a reader of the ARCHITECTURE diagram) can replay
/// exactly how the shared completion queue routed completions back to
/// in-flight operations, and which operation held which lock meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A verb was posted (blocking wrappers record their post too).
    Post {
        /// Op id current at post time (`None` for untagged/blocking drivers).
        op: Option<u64>,
        /// CQ token id.
        token: u64,
        /// Whether the posting op had a lock critical section open.
        critical: bool,
    },
    /// An op learned it holds a lock: its critical section on `lock` opened.
    CriticalBegin {
        /// Op id current when the section opened.
        op: Option<u64>,
        /// The lock word's rank (see `sherman_locks::LockOrder::lock_rank`).
        lock: u128,
    },
    /// The release of `lock` was posted: the section closed.
    CriticalEnd {
        /// Op id current when the section closed.
        op: Option<u64>,
        /// The lock word's rank.
        lock: u128,
    },
}

/// Outcome of an atomic compare-and-swap verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasResult {
    /// Whether the swap took effect.
    pub succeeded: bool,
    /// The value observed at the destination before the operation.
    pub previous: u64,
}

/// Token identifying one outstanding posted verb on a client's completion
/// queue.  Returned by the `post_*` verbs; redeemed with
/// [`ClientCtx::poll_token`] or matched against [`Completion::token`].
///
/// Every token carries the op id that was current (via
/// [`ClientCtx::set_current_op`]) when the verb posted, so a pipelined
/// driver sharing one CQ across many in-flight operations can attribute
/// each completion to its operation without a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingVerb(u64, Option<u64>);

impl PendingVerb {
    /// The raw token id (stable within one `ClientCtx`).
    pub fn id(&self) -> u64 {
        self.0
    }

    /// The op id current when this verb posted, if any.
    pub fn op(&self) -> Option<u64> {
        self.1
    }
}

/// What a completed verb produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbResult {
    /// Data fetched by a `post_read`.
    Read(Vec<u8>),
    /// Data fetched by a `post_read_batch`, in request order.
    ReadBatch(Vec<Vec<u8>>),
    /// A write or doorbell write batch (only the last command is signalled).
    Write,
    /// Outcome of a `post_cas` / `post_masked_cas`.
    Cas(CasResult),
    /// Outcome of a `post_cas_read`: the swap's result and the bytes the
    /// batch's READ fetched (speculative when the swap lost).
    CasRead(CasResult, Vec<u8>),
    /// Previous value returned by a `post_faa`.
    Faa(u64),
    /// A two-sided RPC round trip carrying the server's typed response
    /// (control RPCs complete as [`RpcResponse::Ack`]).
    Rpc(RpcResponse),
    /// A [`ClientCtx::post_wait`] fired or was woken: no verb, no payload.
    Wait,
}

impl VerbResult {
    /// Unwrap a read completion's data.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::Read`] — polling a
    /// token with the wrong expectation is a harness bug, not a runtime
    /// condition.
    pub fn into_read(self) -> Vec<u8> {
        match self {
            VerbResult::Read(data) => data,
            other => panic!("expected a read completion, got {other:?}"),
        }
    }

    /// Unwrap a read-batch completion's data.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::ReadBatch`].
    pub fn into_read_batch(self) -> Vec<Vec<u8>> {
        match self {
            VerbResult::ReadBatch(bufs) => bufs,
            other => panic!("expected a read-batch completion, got {other:?}"),
        }
    }

    /// Unwrap an RPC completion's typed response.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::Rpc`].
    pub fn into_rpc(self) -> RpcResponse {
        match self {
            VerbResult::Rpc(resp) => resp,
            other => panic!("expected an RPC completion, got {other:?}"),
        }
    }

    /// Unwrap a CAS completion's outcome.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::Cas`].
    pub fn into_cas(self) -> CasResult {
        match self {
            VerbResult::Cas(cas) => cas,
            other => panic!("expected a CAS completion, got {other:?}"),
        }
    }

    /// Unwrap a fetch-and-add completion's previous value.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::Faa`].
    pub fn into_faa(self) -> u64 {
        match self {
            VerbResult::Faa(previous) => previous,
            other => panic!("expected an FAA completion, got {other:?}"),
        }
    }

    /// Unwrap a CAS+READ completion's outcome and image.
    ///
    /// # Panics
    /// Panics when the completion is not a [`VerbResult::CasRead`].
    pub fn into_cas_read(self) -> (CasResult, Vec<u8>) {
        match self {
            VerbResult::CasRead(cas, image) => (cas, image),
            other => panic!("expected a CAS+READ completion, got {other:?}"),
        }
    }
}

/// One completion-queue entry: the verb's token, its service window on the
/// backend's clock, and its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Token returned by the `post_*` call.
    pub token: PendingVerb,
    /// Time at which the verb was posted.
    pub posted_at: u64,
    /// Time at which the response arrived back at the client.
    pub completed_at: u64,
    /// The verb's result payload.
    pub result: VerbResult,
}

impl Completion {
    /// Whether this is a [`ClientCtx::post_wait`] entry rather than a verb.
    fn is_wait(&self) -> bool {
        matches!(self.result, VerbResult::Wait)
    }
}

// ======================================================================
// ClientCtx: the backend-independent client
// ======================================================================

/// The compute-server-side handle used by one client thread.
///
/// Generic over the backend's [`FabricChannel`]; defaults to the virtual-time
/// simulator so existing `ClientCtx` mentions keep meaning the deterministic
/// backend.
pub struct ClientCtx<C: FabricChannel = SimChannel> {
    chan: C,
    /// Process-unique identity of this context (see [`ClientCtx::id`]).
    id: u64,
    stats: Arc<SharedClientStats>,
    next_token: u64,
    /// Outstanding completions, unordered; every verb's `completed_at` was
    /// fixed at post time, a wait's is its deadline (`u64::MAX`: none) until
    /// it is woken.
    cq: Vec<Completion>,
    /// Op id stamped onto every post until changed (pipelined drivers).
    current_op: Option<u64>,
    /// Per-op verb accounting, populated only while `current_op` is set.
    op_stats: HashMap<u64, OpVerbStats>,
    /// Open lock critical sections: the op that opened each and its lock
    /// word (see `begin_critical`).
    sections: Vec<(Option<u64>, u128)>,
    /// Verb/critical-section trace, recorded only when enabled.
    trace: Option<Vec<TraceEvent>>,
}

impl<C: FabricChannel> fmt::Debug for ClientCtx<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientCtx")
            .field("cs_id", &self.chan.cs_id())
            .field("now", &self.chan.now())
            .field("outstanding", &self.cq.len())
            .finish()
    }
}

impl<C: FabricChannel> ClientCtx<C> {
    /// Wrap a backend channel in a full client context.
    pub fn with_channel(chan: C) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ClientCtx {
            chan,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            stats: Arc::new(SharedClientStats::default()),
            next_token: 0,
            cq: Vec::new(),
            current_op: None,
            op_stats: HashMap::new(),
            sections: Vec::new(),
            trace: None,
        }
    }

    /// An identity no other context of this process shares.  Shared tables
    /// (a compute server's local lock table) use it to tell the operations
    /// multiplexed on one context — which can wake each other — from those
    /// of other threads, which poll.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The backend this client belongs to.
    pub fn fabric(&self) -> &Arc<C::Backend> {
        self.chan.backend()
    }

    /// The raw verb channel (mainly for backend-specific tests).
    pub fn channel(&self) -> &C {
        &self.chan
    }

    /// Compute-server id of this client.
    pub fn cs_id(&self) -> u16 {
        self.chan.cs_id()
    }

    /// Current time in nanoseconds on this backend's clock.
    pub fn now(&self) -> u64 {
        self.chan.now()
    }

    /// Per-client verb counters (a snapshot of the shared atomic cells).
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    /// The lock-free cells behind [`ClientCtx::stats`]; clone the `Arc` to
    /// watch a live client's counters from another thread.
    pub fn shared_stats(&self) -> &Arc<SharedClientStats> {
        &self.stats
    }

    /// Record `n` higher-level retries (failed lock acquisitions, version
    /// mismatches) against this client.
    pub fn note_retries(&mut self, n: u64) {
        self.stats.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Back off before re-posting a verb that observed contention — see
    /// [`FabricChannel::contention_backoff`].  A no-op on the simulator.
    pub fn contention_backoff(&self, attempt: u32) {
        self.chan.contention_backoff(attempt);
    }

    /// Charge `ns` of client-side CPU time.
    pub fn charge_cpu(&mut self, ns: u64) {
        self.chan.advance(ns);
        if let Some(op) = self.current_op {
            self.op_stats.entry(op).or_default().cpu_ns += ns;
        }
    }

    /// Charge CPU time proportional to scanning `bytes` of fetched data.
    pub fn charge_scan(&mut self, bytes: usize) {
        let ns = self.chan.backend().config().cpu_scan_ns(bytes);
        if ns > 0 {
            self.charge_cpu(ns);
        }
    }

    // ------------------------------------------------------------------
    // Per-op attribution, critical sections and tracing
    // ------------------------------------------------------------------

    /// Tag every subsequent post (and CPU charge) with `op` until changed.
    /// Pipelined drivers set this before stepping each in-flight operation so
    /// the shared completion queue can attribute completions per op; pass
    /// `None` to stop tagging (the blocking entry points never tag).
    pub fn set_current_op(&mut self, op: Option<u64>) {
        self.current_op = op;
    }

    /// The op id posts are currently tagged with, if any.
    pub fn current_op(&self) -> Option<u64> {
        self.current_op
    }

    /// Remove and return the accumulated per-op accounting for `op`
    /// (zeroes when the op never posted a tagged verb).
    pub fn take_op_stats(&mut self, op: u64) -> OpVerbStats {
        self.op_stats.remove(&op).unwrap_or_default()
    }

    /// Mark the opening of the current op's critical section on `lock`: it
    /// learned that it holds that lock word.  One context may have several
    /// sections open at once — a merge holds three node locks, and pipelined
    /// operations each hold their own.
    pub fn begin_critical(&mut self, lock: u128) {
        self.sections.push((self.current_op, lock));
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent::CriticalBegin {
                op: self.current_op,
                lock,
            });
        }
    }

    /// Mark the closing of the critical section on `lock` (its release was
    /// posted).  An unbalanced call is ignored rather than panicking.
    pub fn end_critical(&mut self, lock: u128) {
        if let Some(i) = self.sections.iter().position(|&(_, l)| l == lock) {
            self.sections.swap_remove(i);
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent::CriticalEnd {
                op: self.current_op,
                lock,
            });
        }
    }

    /// Whether the current op has a lock critical section open.
    pub fn in_critical(&self) -> bool {
        self.sections.iter().any(|&(op, _)| op == self.current_op)
    }

    /// Start recording a [`TraceEvent`] per post and per critical-section
    /// transition (drops any previously recorded trace).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stop tracing and return the recorded events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Attribute payload bytes to the current op, if one is set.
    fn attribute_bytes(&mut self, read: u64, written: u64) {
        if let Some(op) = self.current_op {
            let e = self.op_stats.entry(op).or_default();
            e.bytes_read += read;
            e.bytes_written += written;
        }
    }

    /// Block until time `t` on this backend's clock.
    pub fn wait_until(&self, t: u64) {
        self.chan.wait_until(t);
    }

    // ------------------------------------------------------------------
    // Completion queue
    // ------------------------------------------------------------------

    /// Enqueue a completed-at-post verb on the CQ, with the round-trip,
    /// overlap and per-op accounting every posted verb shares, and trace it.
    /// One call = one network round trip (a doorbell batch or a parallel
    /// read batch posts once).
    fn enqueue(&mut self, window: VerbWindow, result: VerbResult) -> PendingVerb {
        let VerbWindow {
            posted_at,
            completed_at,
        } = window;
        let overlapped = self
            .cq
            .iter()
            .any(|e| e.completed_at > posted_at && !e.is_wait());
        let m = self.chan.backend().metrics();
        m.round_trips.fetch_add(1, Ordering::Relaxed);
        if overlapped {
            m.overlapped_round_trips.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.round_trips.fetch_add(1, Ordering::Relaxed);
        if overlapped {
            self.stats
                .overlapped_round_trips
                .fetch_add(1, Ordering::Relaxed);
        }
        let in_flight = self.outstanding() as u64 + 1;
        self.stats.max_in_flight.fetch_max(in_flight, Ordering::Relaxed);
        self.stats.in_flight_posts.fetch_add(in_flight, Ordering::Relaxed);
        self.stats
            .verb_ns
            .fetch_add(completed_at.saturating_sub(posted_at), Ordering::Relaxed);
        self.stats
            .last_completion_at
            .fetch_max(completed_at, Ordering::Relaxed);
        if let Some(op) = self.current_op {
            let e = self.op_stats.entry(op).or_default();
            e.round_trips += 1;
            e.verb_ns += completed_at.saturating_sub(posted_at.max(e.busy_until));
            e.busy_until = e.busy_until.max(completed_at);
        }
        self.next_token += 1;
        let token = PendingVerb(self.next_token, self.current_op);
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent::Post {
                op: token.op(),
                token: token.id(),
                critical: self
                    .sections
                    .iter()
                    .any(|&(holder, _)| holder == token.op()),
            });
        }
        self.cq.push(Completion {
            token,
            posted_at,
            completed_at,
            result,
        });
        token
    }

    /// Reset the in-flight high-water mark to the current outstanding count.
    /// `ClientStats::max_in_flight` is a lifetime high-water otherwise, so a
    /// driver that reuses one client across runs calls this at run start to
    /// make the gauge per-run.
    pub fn reset_max_in_flight(&mut self) {
        self.stats
            .max_in_flight
            .store(self.outstanding() as u64, Ordering::Relaxed);
    }

    /// Number of verbs currently outstanding (posted, not yet polled);
    /// waits are not verbs.
    pub fn outstanding(&self) -> usize {
        self.cq.iter().filter(|e| !e.is_wait()).count()
    }

    // ------------------------------------------------------------------
    // Waits
    // ------------------------------------------------------------------

    /// Park on something that is not a verb: enqueue a completion that fires
    /// at `deadline` (never by itself when `None`) or as soon as another
    /// operation of this context [`wake`](ClientCtx::wake)s it.  Costs no
    /// round trip and no port time.
    pub fn post_wait(&mut self, deadline: Option<u64>) -> PendingVerb {
        self.next_token += 1;
        let token = PendingVerb(self.next_token, self.current_op);
        self.cq.push(Completion {
            token,
            posted_at: self.chan.now(),
            completed_at: deadline.unwrap_or(u64::MAX),
            result: VerbResult::Wait,
        });
        token
    }

    /// Fire the outstanding wait `token` now (no-op when it already fired or
    /// was polled).
    pub fn wake(&mut self, token: PendingVerb) {
        let now = self.chan.now();
        if let Some(e) = self.cq.iter_mut().find(|e| e.token == token) {
            debug_assert!(e.is_wait(), "only waits can be woken");
            e.completed_at = e.completed_at.min(now);
        }
    }

    /// When the outstanding completion `token` is due: fixed at post time
    /// for a verb, `u64::MAX` for a wait that only a wake can fire.
    ///
    /// # Panics
    /// Panics when `token` is not outstanding on this client.
    pub fn completes_at(&self, token: PendingVerb) -> u64 {
        self.cq
            .iter()
            .find(|e| e.token == token)
            .unwrap_or_else(|| panic!("verb {token:?} is not outstanding on this client"))
            .completed_at
    }

    /// Dequeue entry `idx`; the time an op spent parked on a wait is charged
    /// to it as CPU time, like the local polling the wait replaces.
    fn dequeue(&mut self, idx: usize) -> Completion {
        let c = self.cq.swap_remove(idx);
        if let (true, Some(op)) = (c.is_wait(), c.token.op()) {
            self.op_stats.entry(op).or_default().cpu_ns +=
                c.completed_at.saturating_sub(c.posted_at);
        }
        c
    }

    /// Wait for the **earliest** outstanding completion and dequeue it.
    ///
    /// With `deadline: Some(t)` the wait is bounded: when the earliest
    /// completion lies beyond `t` the clock advances to `t` and `None` is
    /// returned with the queue untouched.  Returns `None` immediately when
    /// nothing is outstanding.
    ///
    /// # Panics
    /// Panics when every outstanding completion is a wait that only a wake
    /// can fire: nothing on this context can make progress any more.
    pub fn poll(&mut self, deadline: Option<u64>) -> Option<Completion> {
        let earliest = self.cq.iter().map(|e| e.completed_at).min()?;
        assert!(
            earliest != u64::MAX,
            "every outstanding completion waits for a wake that cannot come"
        );
        if let Some(d) = deadline {
            if earliest > d {
                self.chan.wait_until(d);
                return None;
            }
        }
        // The clock's multi-completion rule: hand *every* outstanding
        // completion time to the clock and wake at the earliest.
        let targets: Vec<u64> = self.cq.iter().map(|e| e.completed_at).collect();
        let reached = self
            .chan
            .wait_until_earliest(&targets)
            .expect("queue checked non-empty above");
        let idx = self
            .cq
            .iter()
            .position(|e| e.completed_at == reached)
            .expect("reached time belongs to an outstanding completion");
        Some(self.dequeue(idx))
    }

    /// Wait for one specific outstanding verb and dequeue its completion.
    ///
    /// Polling a token whose completion time lies beyond other outstanding
    /// completions is allowed (their times are already fixed; they are simply
    /// observed in the past when polled later).
    ///
    /// # Panics
    /// Panics when `token` is not outstanding on this client — double-polling
    /// or polling a foreign token is a harness bug.
    pub fn poll_token(&mut self, token: PendingVerb) -> Completion {
        let idx = self
            .cq
            .iter()
            .position(|e| e.token == token)
            .unwrap_or_else(|| panic!("verb {token:?} is not outstanding on this client"));
        let due = self.cq[idx].completed_at;
        assert!(due != u64::MAX, "wait {token:?} polled before anything woke it");
        self.chan.wait_until(due);
        self.dequeue(idx)
    }

    /// Poll every outstanding completion and discard the results (error-path
    /// cleanup for pipelined drivers: leaves the queue empty and the clock at
    /// the latest completion).
    pub fn drain(&mut self) {
        // A wait nobody will wake any more is simply dropped.
        self.cq.retain(|e| e.completed_at != u64::MAX);
        while self.poll(None).is_some() {}
    }

    // ------------------------------------------------------------------
    // Coherence channel
    // ------------------------------------------------------------------

    /// Post a one-way coherence message of `wire_bytes` toward compute server
    /// `to_cs`'s inbox (see [`crate::coherence`]) and return its delivery
    /// time.
    ///
    /// The send charges the request path — the sender's CS NIC port serializes
    /// the message like any other outbound verb, delaying this client's next
    /// post — and the message becomes visible to the target's drains half a
    /// round trip later.  Being one-way, it produces **no** completion-queue
    /// entry and no round-trip accounting: the committer does not wait for
    /// remote caches to acknowledge, which is exactly the stale window the
    /// coherence gauges measure.
    pub fn post_coherence(
        &mut self,
        to_cs: u16,
        wire_bytes: usize,
        payload: Arc<dyn std::any::Any + Send + Sync>,
    ) -> u64 {
        let window = self.chan.coherence_send(wire_bytes);
        let hub = self.chan.backend().coherence();
        let msg = CoherenceMsg {
            seq: hub.next_seq(),
            from_cs: self.chan.cs_id(),
            posted_at: window.posted_at,
            deliver_at: window.completed_at,
            payload,
        };
        hub.deposit(to_cs, msg);
        window.completed_at
    }

    /// Remove and return every coherence message addressed to this client's
    /// compute server whose delivery time has passed, in deterministic
    /// `(deliver_at, seq)` order.  Costs no fabric time — checking the inbox
    /// is a local memory read; the caller applies the messages itself.
    pub fn drain_coherence(&mut self) -> Vec<CoherenceMsg> {
        let now = self.chan.now();
        self.chan
            .backend()
            .coherence()
            .drain_ready(self.chan.cs_id(), now)
    }

    /// Wait until every coherence message currently in flight toward this
    /// compute server has been delivered, then drain them all.  Test and
    /// shutdown helper: after this returns, the inbox is empty of everything
    /// posted before the call.
    ///
    /// The wait is backend-agnostic: it targets the hub's **acked-delivery
    /// count** (messages deposited vs. messages handed to a drain) rather
    /// than any virtual-time horizon, so it terminates on backends with no
    /// conservative clock.  Each backend only decides how to wait in between
    /// ([`FabricChannel::wait_for_coherence`]): the simulator jumps to the
    /// pending delivery horizon — deterministic, and timing-identical to the
    /// pre-trait behaviour — while the threaded backend yields the OS thread.
    pub fn quiesce_coherence(&mut self) -> Vec<CoherenceMsg> {
        let cs = self.chan.cs_id();
        let target = self.chan.backend().coherence().posted_count(cs);
        let mut msgs = self.drain_coherence();
        while self.chan.backend().coherence().acked_count(cs) < target {
            let horizon = self.chan.backend().coherence().pending_horizon(cs);
            self.chan.wait_for_coherence(horizon);
            msgs.extend(self.drain_coherence());
        }
        msgs
    }

    // ------------------------------------------------------------------
    // Accounting helpers shared by post and blocking paths
    // ------------------------------------------------------------------

    fn account_read(&mut self, count: u64, bytes: u64) {
        self.stats.reads.fetch_add(count, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.attribute_bytes(bytes, 0);
        let m = self.chan.backend().metrics();
        m.reads.fetch_add(count, Ordering::Relaxed);
        m.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    fn account_write(&mut self, count: u64, bytes: u64) {
        self.stats.writes.fetch_add(count, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.attribute_bytes(0, bytes);
        let m = self.chan.backend().metrics();
        m.writes.fetch_add(count, Ordering::Relaxed);
        m.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    fn account_atomic(&mut self, space: MemSpace) {
        self.stats.atomics.fetch_add(1, Ordering::Relaxed);
        let m = self.chan.backend().metrics();
        m.atomics.fetch_add(1, Ordering::Relaxed);
        if space == MemSpace::OnChip {
            m.onchip_atomics.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn account_rpc(&mut self, request_bytes: u64, response_bytes: u64) {
        self.stats.rpcs.fetch_add(1, Ordering::Relaxed);
        let m = self.chan.backend().metrics();
        m.rpcs.fetch_add(1, Ordering::Relaxed);
        // Fold the RPC into the tagged per-op attribution: the request is
        // written to the wire, the response read back, and the op's RPC count
        // keeps offloaded round trips visible at pipeline depth > 1.
        self.attribute_bytes(response_bytes, request_bytes);
        if let Some(op) = self.current_op {
            self.op_stats.entry(op).or_default().rpcs += 1;
        }
    }

    // ------------------------------------------------------------------
    // One-sided verbs
    // ------------------------------------------------------------------

    /// Post an `RDMA_READ` of `len` bytes from `addr`; the completion carries
    /// the data as [`VerbResult::Read`].
    pub fn post_read(&mut self, addr: GlobalAddress, len: usize) -> SimResult<PendingVerb> {
        let mut buf = vec![0u8; len];
        let window = self.chan.read(addr, &mut buf)?;
        self.account_read(1, buf.len() as u64);
        Ok(self.enqueue(window, VerbResult::Read(buf)))
    }

    /// Blocking `RDMA_READ` of `buf.len()` bytes from `addr` into `buf`.
    pub fn read(&mut self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<()> {
        let token = self.post_read(addr, buf.len())?;
        buf.copy_from_slice(&self.poll_token(token).result.into_read());
        Ok(())
    }

    /// `RDMA_WRITE` of `data` to `addr`.
    pub fn write(&mut self, addr: GlobalAddress, data: &[u8]) -> SimResult<()> {
        self.post_writes(&[WriteCmd::new(addr, data.to_vec())])
    }

    /// Post a doorbell batch of dependent `RDMA_WRITE` commands on one queue
    /// pair (command combination, §4.5) without waiting for the completion.
    ///
    /// All commands must target the same memory server — in Sherman a node and
    /// the lock protecting it are co-located precisely so this is possible.
    /// The writes are applied in post order (RC in-order delivery) and the
    /// whole batch costs a single round trip; only the last command is
    /// signalled, so the batch completes as one [`VerbResult::Write`].
    pub fn post_write_batch(&mut self, cmds: &[WriteCmd]) -> SimResult<PendingVerb> {
        let total_bytes: u64 = cmds.iter().map(|c| c.data.len() as u64).sum();
        let window = self.chan.write_batch(cmds)?;
        self.account_write(cmds.len() as u64, total_bytes);
        Ok(self.enqueue(window, VerbResult::Write))
    }

    /// Blocking doorbell batch (post + poll); see
    /// [`ClientCtx::post_write_batch`].
    pub fn post_writes(&mut self, cmds: &[WriteCmd]) -> SimResult<()> {
        let token = self.post_write_batch(cmds)?;
        self.poll_token(token);
        Ok(())
    }

    /// Post several independent `RDMA_READ`s in parallel (used by range
    /// queries, §4.4) as one token; costs one round trip of latency plus the
    /// queueing of the individual responses.  The completion carries every
    /// buffer in request order as [`VerbResult::ReadBatch`].
    pub fn post_read_batch(&mut self, reqs: &[(GlobalAddress, usize)]) -> SimResult<PendingVerb> {
        let (window, bufs) = self.chan.read_batch(reqs)?;
        let total_bytes: u64 = reqs.iter().map(|&(_, len)| len as u64).sum();
        self.account_read(reqs.len() as u64, total_bytes);
        Ok(self.enqueue(window, VerbResult::ReadBatch(bufs)))
    }

    // ------------------------------------------------------------------
    // Atomic verbs
    // ------------------------------------------------------------------

    /// Post one atomic verb on the aligned 8-byte word at `addr`; the
    /// completion carries [`VerbResult::Cas`] for a CAS and
    /// [`VerbResult::Faa`] for a fetch-and-add.
    pub fn post_atomic(&mut self, addr: GlobalAddress, op: AtomicOp) -> SimResult<PendingVerb> {
        let (window, outcome) = self.chan.atomic(addr, op)?;
        self.account_atomic(addr.space);
        let result = match op {
            AtomicOp::Cas { .. } => VerbResult::Cas(outcome),
            AtomicOp::Faa { .. } => VerbResult::Faa(outcome.previous),
        };
        Ok(self.enqueue(window, result))
    }

    /// Post an `RDMA_CAS`; the completion carries [`VerbResult::Cas`].
    pub fn post_cas(
        &mut self,
        addr: GlobalAddress,
        expected: u64,
        new: u64,
    ) -> SimResult<PendingVerb> {
        self.post_masked_cas(addr, expected, new, u64::MAX)
    }

    /// Blocking `RDMA_CAS`: atomically swap the 8-byte word at `addr` from
    /// `expected` to `new` (post + poll).
    pub fn cas(&mut self, addr: GlobalAddress, expected: u64, new: u64) -> SimResult<CasResult> {
        let token = self.post_cas(addr, expected, new)?;
        Ok(self.poll_token(token).result.into_cas())
    }

    /// Post an `RDMA_FAA`; the completion carries the previous value as
    /// [`VerbResult::Faa`].
    pub fn post_faa(&mut self, addr: GlobalAddress, add: u64) -> SimResult<PendingVerb> {
        self.post_atomic(addr, AtomicOp::Faa { add })
    }

    /// Blocking `RDMA_FAA`: atomically add `add` to the 8-byte word at `addr`,
    /// returning the previous value (post + poll).
    pub fn faa(&mut self, addr: GlobalAddress, add: u64) -> SimResult<u64> {
        let token = self.post_faa(addr, add)?;
        Ok(self.poll_token(token).result.into_faa())
    }

    /// Post a masked `RDMA_CAS` (Mellanox "enhanced atomics"): only the bits
    /// selected by `mask` participate in the comparison and the swap.
    pub fn post_masked_cas(
        &mut self,
        addr: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
    ) -> SimResult<PendingVerb> {
        self.post_atomic(
            addr,
            AtomicOp::Cas {
                expected,
                new,
                mask,
            },
        )
    }

    /// Blocking masked `RDMA_CAS` (post + poll).
    pub fn masked_cas(
        &mut self,
        addr: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
    ) -> SimResult<CasResult> {
        let token = self.post_masked_cas(addr, expected, new, mask)?;
        Ok(self.poll_token(token).result.into_cas())
    }

    /// Post a doorbell batch of one masked `RDMA_CAS` on the word at `lock`
    /// followed by one `RDMA_READ` of `len` bytes from `addr`, on one queue
    /// pair (command combination at the *head* of a write, §4.5): **one**
    /// round trip, one atomic and one read.  `mask == u64::MAX` is the plain
    /// 64-bit CAS.  The read executes — and its bytes are accounted —
    /// whether or not the swap took effect; see [`FabricChannel::cas_read`].
    /// The completion carries both as [`VerbResult::CasRead`].
    pub fn post_cas_read(
        &mut self,
        lock: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
        addr: GlobalAddress,
        len: usize,
    ) -> SimResult<PendingVerb> {
        let mut buf = vec![0u8; len];
        let op = AtomicOp::Cas {
            expected,
            new,
            mask,
        };
        let (window, cas) = self.chan.cas_read(lock, op, addr, &mut buf)?;
        self.account_atomic(lock.space);
        self.account_read(1, len as u64);
        Ok(self.enqueue(window, VerbResult::CasRead(cas, buf)))
    }

    /// Blocking CAS+READ batch into `buf` (post + poll); see
    /// [`ClientCtx::post_cas_read`].
    pub fn cas_read(
        &mut self,
        lock: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<CasResult> {
        let token = self.post_cas_read(lock, expected, new, mask, addr, buf.len())?;
        let (cas, image) = self.poll_token(token).result.into_cas_read();
        buf.copy_from_slice(&image);
        Ok(cas)
    }

    /// `RDMA_READ` of a single aligned 8-byte word.
    pub fn read_u64(&mut self, addr: GlobalAddress) -> SimResult<u64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// `RDMA_WRITE` of a single aligned 8-byte word.
    pub fn write_u64(&mut self, addr: GlobalAddress, value: u64) -> SimResult<()> {
        self.write(addr, &value.to_le_bytes())
    }

    // ------------------------------------------------------------------
    // Two-sided RPC (control path only)
    // ------------------------------------------------------------------

    /// Post the fabric cost of a two-sided RPC to memory server `ms`.  The
    /// actual request handling is performed synchronously by the caller (see
    /// `sherman-memserver`), which keeps the wimpy MS management core off the
    /// simulated data path.
    pub fn post_rpc(
        &mut self,
        ms: u16,
        request_bytes: usize,
        response_bytes: usize,
    ) -> SimResult<PendingVerb> {
        let window = self
            .chan
            .rpc(ms, request_bytes, response_bytes, RpcWork::NONE)?;
        self.account_rpc(request_bytes as u64, response_bytes as u64);
        Ok(self.enqueue(window, VerbResult::Rpc(RpcResponse::Ack)))
    }

    /// Blocking two-sided RPC round trip (post + poll).
    pub fn rpc_round_trip(
        &mut self,
        ms: u16,
        request_bytes: usize,
        response_bytes: usize,
    ) -> SimResult<()> {
        let token = self.post_rpc(ms, request_bytes, response_bytes)?;
        self.poll_token(token);
        Ok(())
    }

    /// Post a typed index RPC (offloaded traversal / leaf search / leaf
    /// range, see [`RpcRequest`]) to the request's home memory server.
    ///
    /// The backend's registered [`RpcHandler`](crate::RpcHandler) interprets
    /// the request synchronously against the shared memory-server state —
    /// under the same word-atomic access rules as one-sided verbs — and the
    /// fabric charge scales with the work it reports
    /// ([`crate::FabricConfig::rpc_cost_ns`]).  The completion carries the
    /// typed [`RpcResponse`] and is op-tagged like every other verb, so
    /// offloaded steps pipeline and attribute exactly like one-sided reads.
    /// Without a registered handler the RPC completes as
    /// [`RpcResponse::Declined`] with [`RpcDecline::NoHandler`] at flat cost.
    pub fn post_index_rpc(&mut self, req: &RpcRequest) -> SimResult<PendingVerb> {
        let backend = Arc::clone(self.chan.backend());
        let ms = req.home_ms();
        backend.server(ms)?;
        let response = match backend.rpc_handler() {
            Some(handler) => handler.handle(backend.servers(), ms, req),
            None => RpcResponse::Declined {
                reason: RpcDecline::NoHandler,
                work: RpcWork::NONE,
            },
        };
        let request_bytes = req.wire_bytes();
        let response_bytes = response.wire_bytes();
        let window = self
            .chan
            .rpc(ms, request_bytes, response_bytes, response.work())?;
        self.account_rpc(request_bytes as u64, response_bytes as u64);
        Ok(self.enqueue(window, VerbResult::Rpc(response)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::fabric::Fabric;
    use crate::SimError;

    fn test_fabric() -> Arc<Fabric> {
        Fabric::new(FabricConfig::small_test())
    }

    #[test]
    fn read_write_roundtrip_charges_time() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let addr = GlobalAddress::host(0, 1024);
        client.write(addr, &[7u8; 64]).unwrap();
        let t_after_write = client.now();
        assert!(t_after_write >= fabric.config().base_rtt_ns);

        let mut buf = [0u8; 64];
        client.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert!(client.now() > t_after_write);

        let s = client.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.bytes_written, 64);
        assert_eq!(s.bytes_read, 64);
        // Blocking wrappers never overlap: each verb is polled before the
        // next posts.
        assert_eq!(s.overlapped_round_trips, 0);
        assert_eq!(s.max_in_flight, 1);
        assert_eq!(s.in_flight_posts, 2);
        assert!(s.verb_ns >= 2 * fabric.config().base_rtt_ns);
    }

    #[test]
    fn doorbell_batch_costs_one_round_trip() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let a = GlobalAddress::host(1, 0);
        let b = GlobalAddress::host(1, 4096);
        let before = client.now();
        client
            .post_writes(&[
                WriteCmd::new(a, vec![1u8; 128]),
                WriteCmd::new(b, vec![2u8; 8]),
            ])
            .unwrap();
        let elapsed = client.now() - before;
        // Both writes landed.
        assert_eq!(fabric.god_read_u64(a).unwrap() as u8, 1);
        assert_eq!(fabric.god_read_u64(b).unwrap() as u8, 2);
        // One round trip only.
        assert_eq!(client.stats().round_trips, 1);
        assert_eq!(client.stats().writes, 2);
        // The batch costs roughly one RTT, far less than two sequential writes.
        assert!(elapsed < 2 * fabric.config().base_rtt_ns);
    }

    /// A write-back sent as the ranges that changed is billed for those
    /// ranges: the bytes are the payloads' sum, each command pays the NIC's
    /// per-command floor at both ports — a handful of small commands is
    /// cheaper than the node, a node's worth of 8-byte commands is not — and
    /// the commands apply in post order.
    #[test]
    fn a_batch_of_ranges_is_billed_by_the_range() {
        let fabric = test_fabric();
        let node = GlobalAddress::host(1, 8192);
        let timed = |cmds: &[WriteCmd]| {
            let mut client = fabric.client(0);
            let before = (client.now(), client.stats());
            client.post_writes(cmds).unwrap();
            let spent = client.stats().delta_since(&before.1);
            assert_eq!((spent.round_trips, spent.writes), (1, cmds.len() as u64));
            (spent.bytes_written, client.now() - before.0)
        };
        let (whole_bytes, whole_ns) = timed(&[WriteCmd::new(node, vec![1u8; 1024])]);
        let ranges = [
            WriteCmd::new(node, vec![2u8; 8]),
            WriteCmd::new(node.add(688), vec![2u8; 16]),
            WriteCmd::new(node.add(1016), vec![2u8; 8]),
            WriteCmd::new(node.add(1016), vec![3u8; 8]),
        ];
        let (range_bytes, range_ns) = timed(&ranges);
        assert_eq!((whole_bytes, range_bytes), (1024, 40));
        assert!(range_ns < whole_ns, "{range_ns} ns for 40 bytes, {whole_ns} ns for 1024");
        let mut image = vec![0u8; 1024];
        fabric.god_read(node, &mut image).unwrap();
        assert_eq!((image[0], image[8], image[688], image[1016]), (2, 1, 2, 3));

        let words: Vec<WriteCmd> =
            (0..128).map(|w| WriteCmd::new(node.add(8 * w), vec![4u8; 8])).collect();
        let (word_bytes, word_ns) = timed(&words);
        assert_eq!(word_bytes, 1024);
        assert!(word_ns > whole_ns, "128 commands in {word_ns} ns, one in {whole_ns}");
    }

    #[test]
    fn mixed_server_batch_is_rejected() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let err = client
            .post_writes(&[
                WriteCmd::new(GlobalAddress::host(0, 0), vec![0u8; 8]),
                WriteCmd::new(GlobalAddress::host(1, 0), vec![0u8; 8]),
            ])
            .unwrap_err();
        assert_eq!(err, SimError::MixedBatch);
        assert!(matches!(
            client.post_writes(&[]).unwrap_err(),
            SimError::EmptyBatch
        ));
    }

    #[test]
    fn cas_and_faa_semantics() {
        let fabric = test_fabric();
        let mut client = fabric.client(1);
        let addr = GlobalAddress::host(0, 2048);
        let r = client.cas(addr, 0, 99).unwrap();
        assert!(r.succeeded);
        assert_eq!(r.previous, 0);
        let r = client.cas(addr, 0, 5).unwrap();
        assert!(!r.succeeded);
        assert_eq!(r.previous, 99);
        assert_eq!(client.faa(addr, 1).unwrap(), 99);
        assert_eq!(fabric.god_read_u64(addr).unwrap(), 100);
    }

    #[test]
    fn onchip_atomics_are_faster_than_host_atomics() {
        let fabric = test_fabric();
        let mut host_client = fabric.client(0);
        let host_addr = GlobalAddress::host(0, 512);
        let t0 = host_client.now();
        for _ in 0..32 {
            host_client.faa(host_addr, 1).unwrap();
        }
        let host_elapsed = host_client.now() - t0;
        drop(host_client);

        let mut chip_client = fabric.client(0);
        let chip_addr = GlobalAddress::on_chip(0, 512);
        let t0 = chip_client.now();
        for _ in 0..32 {
            chip_client.faa(chip_addr, 1).unwrap();
        }
        let chip_elapsed = chip_client.now() - t0;

        assert!(
            host_elapsed > chip_elapsed,
            "host atomics ({host_elapsed} ns) should be slower than on-chip ({chip_elapsed} ns)"
        );
    }

    #[test]
    fn masked_cas_verb_swaps_sixteen_bit_lock() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let addr = GlobalAddress::on_chip(0, 64);
        let mask = 0xFFFFu64 << 16;
        let r = client.masked_cas(addr, 0, 7 << 16, mask).unwrap();
        assert!(r.succeeded);
        let r = client.masked_cas(addr, 0, 9 << 16, mask).unwrap();
        assert!(!r.succeeded, "lock already held");
        assert_eq!(fabric.god_read_u64(addr).unwrap(), 7 << 16);
    }

    #[test]
    fn cas_read_batch_costs_one_round_trip() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let mask = 0xFFFFu64 << 16;
        let node = GlobalAddress::host(0, 8192);
        fabric.god_write(node, &[5u8; 1024]).unwrap();
        let mut buf = vec![0u8; 1024];

        // Reference: the two verbs as dependent round trips.
        let t0 = client.now();
        client
            .masked_cas(GlobalAddress::on_chip(0, 128), 0, 1 << 16, mask)
            .unwrap();
        let cas_ns = client.now() - t0;
        client.read(node, &mut buf).unwrap();
        let read_ns = client.now() - t0 - cas_ns;

        buf.fill(0);
        client.enable_trace();
        client.set_current_op(Some(3));
        let before = client.stats();
        let t1 = client.now();
        let lock = GlobalAddress::on_chip(0, 64);
        let r = client
            .cas_read(lock, 0, 7 << 16, mask, node, &mut buf)
            .unwrap();
        let batch_ns = client.now() - t1;
        assert_eq!((r.succeeded, r.previous), (true, 0));
        assert_eq!(fabric.god_read_u64(lock).unwrap(), 7 << 16);
        assert_eq!(buf, vec![5u8; 1024]);

        // The READ rides the CAS's round trip: the window closes on the READ
        // response, which cannot leave before the CAS executed.
        assert!(
            batch_ns >= cas_ns.max(read_ns) && batch_ns < cas_ns + read_ns,
            "batch {batch_ns} ns vs cas {cas_ns} + read {read_ns}"
        );
        let d = client.stats().delta_since(&before);
        assert_eq!((d.round_trips, d.atomics, d.reads), (1, 1, 1));
        assert_eq!(d.bytes_read, 1024);
        let op = client.take_op_stats(3);
        assert_eq!((op.round_trips, op.bytes_read), (1, 1024));
        assert_eq!(op.verb_ns, batch_ns);
        assert!(matches!(
            client.take_trace()[..],
            [TraceEvent::Post {
                op: Some(3),
                critical: false,
                ..
            }]
        ));
    }

    #[test]
    fn lost_cas_read_still_reads_and_leaves_the_word_untouched() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        // A 64-bit host lock word held by someone else (full mask = plain CAS).
        let lock = GlobalAddress::host(1, 2048);
        let node = GlobalAddress::host(1, 16 << 10);
        fabric.god_write_u64(lock, 42).unwrap();
        fabric.god_write(node, &[9u8; 256]).unwrap();
        let mut buf = vec![0u8; 256];
        let r = client
            .cas_read(lock, 0, 7, u64::MAX, node, &mut buf)
            .unwrap();
        assert_eq!((r.succeeded, r.previous), (false, 42));
        assert_eq!(fabric.god_read_u64(lock).unwrap(), 42);
        // A NIC has no conditional: the speculative read executed and is paid for.
        assert_eq!(buf, vec![9u8; 256]);
        let s = client.stats();
        assert_eq!((s.round_trips, s.atomics, s.reads, s.bytes_read), (1, 1, 1, 256));
    }

    #[test]
    fn cas_read_across_servers_is_rejected() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let lock = GlobalAddress::on_chip(0, 64);
        let mut buf = [0u8; 64];
        assert_eq!(
            client
                .cas_read(lock, 0, 1, u64::MAX, GlobalAddress::host(1, 0), &mut buf)
                .unwrap_err(),
            SimError::MixedBatch
        );
        assert_eq!(
            client
                .cas_read(lock, 0, 1, u64::MAX, GlobalAddress::host(0, 0), &mut [])
                .unwrap_err(),
            SimError::EmptyBatch
        );
        // So is a batch whose READ leaves its region — before the CAS runs.
        let end = fabric.config().host_bytes_per_ms as u64;
        assert!(matches!(
            client
                .cas_read(lock, 0, 1, u64::MAX, GlobalAddress::host(0, end - 8), &mut buf)
                .unwrap_err(),
            SimError::OutOfBounds { .. }
        ));
        // A rejected batch has no effect and costs nothing.
        assert_eq!(fabric.god_read_u64(lock).unwrap(), 0);
        assert_eq!(client.stats(), ClientStats::default());
    }

    #[test]
    fn read_batch_overlaps_round_trips() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        for i in 0..4u64 {
            fabric
                .god_write_u64(GlobalAddress::host(0, 8192 + i * 1024), i + 1)
                .unwrap();
        }
        let reqs: Vec<(GlobalAddress, usize)> = (0..4u64)
            .map(|i| (GlobalAddress::host(0, 8192 + i * 1024), 8))
            .collect();
        let before = client.now();
        let token = client.post_read_batch(&reqs).unwrap();
        let bufs = client.poll_token(token).result.into_read_batch();
        let elapsed = client.now() - before;
        for (i, b) in bufs.into_iter().enumerate() {
            assert_eq!(u64::from_le_bytes(b.try_into().unwrap()), i as u64 + 1);
        }
        // Four reads in parallel cost far less than four sequential RTTs.
        assert!(elapsed < 3 * fabric.config().base_rtt_ns);
        assert_eq!(client.stats().round_trips, 1);
        assert_eq!(client.stats().reads, 4);
    }

    #[test]
    fn rpc_charges_more_than_a_one_sided_verb() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let t0 = client.now();
        // A control RPC reports no index work, so it pays exactly the flat
        // dispatch cost on top of the round trip.
        client.rpc_round_trip(0, 64, 64).unwrap();
        let rpc_elapsed = client.now() - t0;
        assert!(rpc_elapsed >= fabric.config().base_rtt_ns + fabric.config().rpc_service_ns);
        assert!(
            rpc_elapsed < fabric.config().base_rtt_ns + fabric.config().rpc_cost_ns(RpcWork {
                levels_stepped: 4,
                entries_scanned: 0,
            })
        );
        assert_eq!(client.stats().rpcs, 1);
    }

    /// Stub interpreter: answers every request as declined after pretending
    /// to step a fixed number of levels.
    #[derive(Debug)]
    struct FixedWorkHandler(u32);

    impl crate::rpc::RpcHandler for FixedWorkHandler {
        fn handle(
            &self,
            servers: &[Arc<crate::server::MemServerSim>],
            home_ms: u16,
            _req: &RpcRequest,
        ) -> RpcResponse {
            assert!(!servers.is_empty());
            assert!((home_ms as usize) < servers.len());
            RpcResponse::Declined {
                reason: RpcDecline::BudgetExhausted,
                work: RpcWork {
                    levels_stepped: self.0,
                    entries_scanned: 0,
                },
            }
        }
    }

    #[test]
    fn index_rpc_cost_scales_with_reported_server_work() {
        let fabric = test_fabric();
        let req = RpcRequest::LeafSearch {
            leaf_addr: GlobalAddress::host(0, 4096),
            key: 7,
        };

        let mut client = fabric.client(0);
        // No handler registered: declined at flat cost.
        let t0 = client.now();
        let token = client.post_index_rpc(&req).unwrap();
        let resp = client.poll_token(token).result.into_rpc();
        assert_eq!(
            resp,
            RpcResponse::Declined {
                reason: RpcDecline::NoHandler,
                work: RpcWork::NONE,
            }
        );
        let flat = client.now() - t0;

        fabric.set_rpc_handler(Arc::new(FixedWorkHandler(6)));
        let t1 = client.now();
        let token = client.post_index_rpc(&req).unwrap();
        let resp = client.poll_token(token).result.into_rpc();
        assert!(matches!(resp, RpcResponse::Declined { work, .. } if work.levels_stepped == 6));
        let worked = client.now() - t1;
        // Six stepped levels must charge visibly more than the flat decline.
        assert!(
            worked >= flat + 6 * fabric.config().rpc_step_ns,
            "worked={worked} flat={flat}"
        );
        assert_eq!(client.stats().rpcs, 2);
    }

    #[test]
    fn index_rpc_completions_are_op_tagged() {
        let fabric = test_fabric();
        fabric.set_rpc_handler(Arc::new(FixedWorkHandler(2)));
        let mut client = fabric.client(0);
        client.set_current_op(Some(41));
        let req = RpcRequest::LeafSearch {
            leaf_addr: GlobalAddress::host(0, 0),
            key: 1,
        };
        let token = client.post_index_rpc(&req).unwrap();
        assert_eq!(token.op(), Some(41));
        let completion = client.poll_token(token);
        assert!(matches!(completion.result, VerbResult::Rpc(_)));
        let ops = client.take_op_stats(41);
        assert_eq!(ops.rpcs, 1);
        assert_eq!(ops.round_trips, 1);
        assert_eq!(ops.bytes_written, req.wire_bytes() as u64);
        assert!(ops.bytes_read >= 16);
        assert!(ops.verb_ns > 0);
    }

    #[test]
    fn out_of_bounds_read_is_reported() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let len = fabric.config().host_bytes_per_ms;
        let mut buf = [0u8; 16];
        let err = client
            .read(GlobalAddress::host(0, len as u64 - 4), &mut buf)
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    // ------------------------------------------------------------------
    // Split-phase post/poll
    // ------------------------------------------------------------------

    #[test]
    fn split_phase_reads_overlap_their_round_trips() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        for i in 0..4u64 {
            fabric
                .god_write_u64(GlobalAddress::host(0, 16 * 1024 + i * 1024), i + 10)
                .unwrap();
        }
        let t0 = client.now();
        let tokens: Vec<PendingVerb> = (0..4u64)
            .map(|i| {
                client
                    .post_read(GlobalAddress::host(0, 16 * 1024 + i * 1024), 8)
                    .unwrap()
            })
            .collect();
        assert_eq!(client.outstanding(), 4);
        // Posting does not advance the posting thread's virtual time.
        assert_eq!(client.now(), t0);

        let mut seen = Vec::new();
        while let Some(c) = client.poll(None) {
            seen.push(c);
        }
        assert_eq!(client.outstanding(), 0);
        // poll(None) delivers completions in completion-time order.
        assert!(seen.windows(2).all(|w| w[0].completed_at <= w[1].completed_at));
        // Every token came back with its data.
        for (i, token) in tokens.iter().enumerate() {
            let c = seen.iter().find(|c| c.token == *token).unwrap();
            let data = c.result.clone().into_read();
            assert_eq!(u64::from_le_bytes(data.try_into().unwrap()), i as u64 + 10);
        }
        // Four overlapped reads cost far less than four serial round trips.
        let elapsed = client.now() - t0;
        assert!(elapsed < 2 * fabric.config().base_rtt_ns);

        let s = client.stats();
        assert_eq!(s.round_trips, 4);
        assert_eq!(s.overlapped_round_trips, 3, "posts 2..4 overlap post 1");
        assert_eq!(s.max_in_flight, 4);
        assert_eq!(s.in_flight_posts, 1 + 2 + 3 + 4);
        assert!(
            s.verb_ns > elapsed,
            "serial verb time {} must exceed the overlapped elapsed {}",
            s.verb_ns,
            elapsed
        );
    }

    #[test]
    fn poll_token_out_of_order_is_allowed() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let a = client.post_read(GlobalAddress::host(0, 0), 8).unwrap();
        let b = client.post_read(GlobalAddress::host(0, 1024), 8).unwrap();
        // Poll the *later* verb first: the earlier completion is then observed
        // in the past.
        let cb = client.poll_token(b);
        let ca = client.poll_token(a);
        assert!(ca.completed_at <= cb.completed_at);
        assert!(client.now() >= cb.completed_at);
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn poll_deadline_bounds_the_wait() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        assert!(client.poll(None).is_none(), "empty queue polls nothing");
        let t0 = client.now();
        let token = client.post_read(GlobalAddress::host(0, 0), 8).unwrap();
        // A deadline before the completion advances only to the deadline.
        let deadline = t0 + 10;
        assert!(client.poll(Some(deadline)).is_none());
        assert_eq!(client.now(), deadline);
        assert_eq!(client.outstanding(), 1);
        // Without a deadline the completion is delivered.
        let c = client.poll(None).unwrap();
        assert_eq!(c.token, token);
        assert_eq!(client.now(), c.completed_at);
    }

    #[test]
    fn op_tagging_attributes_verbs_cpu_and_trace() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        client.enable_trace();

        // Op 7 posts two overlapping reads; op 9 posts one inside a critical
        // section; an untagged blocking read runs in between.
        client.set_current_op(Some(7));
        let a = client.post_read(GlobalAddress::host(0, 0), 8).unwrap();
        let b = client.post_read(GlobalAddress::host(0, 1024), 16).unwrap();
        assert_eq!(a.op(), Some(7));
        assert_eq!(b.op(), Some(7));
        client.charge_cpu(50);

        client.set_current_op(None);
        let mut buf = [0u8; 8];
        client.read(GlobalAddress::host(0, 2048), &mut buf).unwrap();

        client.set_current_op(Some(9));
        client.begin_critical(77);
        assert!(client.in_critical());
        let c = client.post_read(GlobalAddress::host(0, 4096), 8).unwrap();
        // Another op's post is not flagged by op 9's open section.
        client.set_current_op(Some(7));
        assert!(!client.in_critical());
        client.set_current_op(Some(9));
        client.end_critical(77);
        assert!(!client.in_critical());
        client.set_current_op(None);

        let last = [a, b, c]
            .iter()
            .map(|t| client.poll_token(*t).completed_at)
            .max()
            .unwrap();
        assert_eq!(client.stats().last_completion_at, last);

        let s7 = client.take_op_stats(7);
        assert_eq!(s7.round_trips, 2);
        assert_eq!(s7.bytes_read, 24);
        assert_eq!(s7.cpu_ns, 50);
        assert!(s7.verb_ns > 0);
        let s9 = client.take_op_stats(9);
        assert_eq!(s9.round_trips, 1);
        // Untagged verbs attribute to no op.
        assert_eq!(client.take_op_stats(0), OpVerbStats::default());

        let trace = client.take_trace();
        let expect = [
            TraceEvent::Post {
                op: Some(7),
                token: a.id(),
                critical: false,
            },
            TraceEvent::Post {
                op: Some(7),
                token: b.id(),
                critical: false,
            },
            // A blocking read parks on the CQ like every other verb.
            TraceEvent::Post {
                op: None,
                token: b.id() + 1,
                critical: false,
            },
            TraceEvent::CriticalBegin {
                op: Some(9),
                lock: 77,
            },
            TraceEvent::Post {
                op: Some(9),
                token: c.id(),
                critical: true,
            },
            TraceEvent::CriticalEnd {
                op: Some(9),
                lock: 77,
            },
        ];
        assert_eq!(trace, expect);
    }

    #[test]
    fn split_phase_cas_read_carries_outcome_and_image() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let lock = GlobalAddress::on_chip(0, 64);
        let node = GlobalAddress::host(0, 8192);
        let mask = 0xFFFFu64 << 16;
        fabric.god_write(node, &[5u8; 256]).unwrap();
        let t0 = client.now();
        let won = client.post_cas_read(lock, 0, 7 << 16, mask, node, 256).unwrap();
        // Posting does not block; the swap is already visible.
        assert_eq!(client.now(), t0);
        assert_eq!(fabric.god_read_u64(lock).unwrap(), 7 << 16);
        let lost = client.post_cas_read(lock, 0, 9 << 16, mask, node, 256).unwrap();
        assert_eq!(client.outstanding(), 2);
        for (token, expect) in [(won, true), (lost, false)] {
            match client.poll_token(token).result {
                VerbResult::CasRead(cas, image) => {
                    assert_eq!(cas.succeeded, expect);
                    assert_eq!(image, vec![5u8; 256]);
                }
                other => panic!("unexpected completion {other:?}"),
            }
        }
        let s = client.stats();
        assert_eq!((s.round_trips, s.atomics, s.reads), (2, 2, 2));
        assert_eq!(s.overlapped_round_trips, 1);
    }

    #[test]
    fn waits_fire_at_their_deadline_or_when_woken_and_cost_no_round_trip() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        client.set_current_op(Some(4));
        let t0 = client.now();
        let timer = client.post_wait(Some(t0 + 200));
        let parked = client.post_wait(None);
        let read = client.post_read(GlobalAddress::host(0, 0), 8).unwrap();
        // Waits are not verbs: no round trip, no in-flight depth.
        assert_eq!(client.outstanding(), 1);
        let s = client.stats();
        assert_eq!((s.round_trips, s.max_in_flight, s.overlapped_round_trips), (1, 1, 0));
        assert_eq!(client.completes_at(parked), u64::MAX);

        // The timer is the earliest completion; the parked wait never is.
        let c = client.poll(None).unwrap();
        assert_eq!((c.token, c.result, client.now()), (timer, VerbResult::Wait, t0 + 200));
        assert_eq!(client.poll(None).unwrap().token, read);
        // Woken, it completes at the instant of the wake.
        let woken_at = client.now();
        client.wake(parked);
        assert_eq!(client.poll(None).unwrap().completed_at, woken_at);
        assert!(client.poll(None).is_none());

        // Parked time is the op's: charged like the polling it replaces.
        let op = client.take_op_stats(4);
        assert_eq!(op.round_trips, 1);
        assert_eq!(op.cpu_ns, 200 + (woken_at - t0));
        // An abandoned wait does not wedge the error-path drain.
        client.post_wait(None);
        client.drain();
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn post_errors_surface_at_post_time() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let len = fabric.config().host_bytes_per_ms;
        let err = client
            .post_read(GlobalAddress::host(0, len as u64 - 4), 16)
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
        assert_eq!(client.outstanding(), 0, "failed posts enqueue nothing");
        assert!(matches!(
            client.post_read(GlobalAddress::host(0, 0), 0).unwrap_err(),
            SimError::EmptyBatch
        ));
    }

    #[test]
    fn shared_stats_are_readable_from_another_thread() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let shared = Arc::clone(client.shared_stats());
        client.write(GlobalAddress::host(0, 0), &[1u8; 16]).unwrap();
        // A concurrent observer reads the same counters without a lock and
        // without borrowing the client.
        let observer = std::thread::spawn(move || shared.snapshot());
        let snap = observer.join().unwrap();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.bytes_written, 16);
        assert_eq!(snap, client.stats());
        let (in_flight_posts, overlapped) = client.shared_stats().overlap_counters();
        assert_eq!(in_flight_posts, 1);
        assert_eq!(overlapped, 0);
    }
}
