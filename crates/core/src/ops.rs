//! Resumable state machines for the tree operations.
//!
//! The split-phase fabric (`sherman_sim`) lets one thread keep many verbs in
//! flight; to exploit it, the tree operations are expressed as explicit state
//! machines that **yield** whenever they post a verb instead of blocking on
//! it:
//!
//! * [`ReadNodeSM`] — the node-image consistency loop (post a node read,
//!   validate versions/checksum on completion, repost on a torn image),
//! * [`TraverseSM`] — the root/cache-seeded descent to a target level,
//! * [`LookupSM`] — point lookup: locate the leaf, validate, chase siblings,
//! * [`RangeSM`] — range scan: the cached parallel leaf batch plus the
//!   sibling-chain walk with tombstone re-location,
//! * [`WriteSM`] — insert, update and delete, which differ only in what they
//!   do to the locked leaf ([`WriteKind`]): locate the leaf (yielding freely,
//!   like a lookup), yield on the lock + read round trip at the head of the
//!   commit, run the body of the critical section in one step, and yield
//!   once more on the deferred final release verb,
//! * [`OpSM`] — the tagged union the pipelined scheduler multiplexes.
//!
//! Every machine steps against the same context, [`OpCx`]: the cluster plus
//! one logical thread's fabric context and node allocator.  The commit code
//! the write machine runs under the lock — leaf write-back, split, merge —
//! is a set of functions on that context too (`crate::commit`).
//!
//! Every `step` call consumes at most one [`Completion`] (the result of the
//! verb the machine posted last) and runs until it either posts the next verb
//! ([`Step::Pending`]) or finishes ([`Step::Done`]).  The machines are the
//! *only* implementation of the operations: the blocking `TreeClient` entry
//! points drive them one verb at a time ([`drive_blocking`]), so a pipelined
//! run at depth 1 and the classic blocking path execute byte-for-byte the
//! same verbs in the same order.
//!
//! ## What a write may and may not wait for
//!
//! A write is parked twice around its critical section: on the acquisition
//! of the leaf lock (the lock manager's resumable machine — a CAS+READ round
//! trip, a re-post after a lost race, a place in the local queue behind a
//! sibling operation) and on the final release verb, whose memory effect
//! applied at post time.  In between, the body — validate, pick the slot,
//! post write-back + release — is one step.  So an operation waits *for* a
//! lock while parked, but the only lock it ever *holds* while parked is the
//! one leaf lock whose acquisition is completing, and it needs no other lock
//! to let go of it: a lock word that several in-flight operations of one
//! client want (the same leaf, or an aliased slot of the lock table) is
//! passed along the local queue, never waited for in a cycle.
//!
//! A commit that needs further locks — the separator of a split, a merge —
//! gives the step back with [`OpStep::Exclusive`] first, holding nothing, and
//! takes those locks — in one synchronous step that posts and polls, waiting
//! only for what the commit depends on (`crate::commit`) — once the driver
//! has stepped every other operation of the client out of its lock
//! acquisition.
//!
//! Rare control-path reads (the remote root pointer refresh on a distrusted
//! restart) stay blocking inside a step: they occur only after a lost race
//! under structural churn, and a blocking sub-poll merely observes other
//! outstanding completions later — it never stalls the clock (completion
//! times are fixed at post time).

use crate::cluster::Cluster;
use crate::commit::Followup;
use crate::config::{LeafFormat, OffloadPolicy};
use crate::error::TreeError;
use crate::node::{InternalNode, LeafNode, NodeHeader};
use crate::scheduler::PipelineOp;
use crate::TreeResult;
use sherman_cache::{CachedInternal, ChildRef};
use sherman_locks::{AcquireStep, Acquisition};
use sherman_memserver::{ClientAllocator, ServerLayout};
use sherman_sim::{
    ClientCtx, Completion, Fabric, FabricBackend, GlobalAddress, PendingVerb, RpcLeafReply,
    RpcLevel1Image, RpcNodeInfo, RpcRangeReply, RpcRequest, RpcResponse,
};
use std::sync::Arc;

/// Where a leaf address came from (used for cache invalidation decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeafSource {
    /// Named by a cached level-1 image without reading a node; holds the
    /// image's lower fence key so it can be invalidated on a mismatch.
    Cache {
        /// Lower fence of the cached parent (the cache's invalidation key).
        fence_low: u64,
    },
    /// Found by traversing internal nodes.
    Traversal,
    /// Reached by following a sibling pointer.
    Sibling,
}

/// Book-keeping accumulated while executing one operation.
#[derive(Debug, Default)]
pub(crate) struct OpMeta {
    pub read_retries: u64,
    pub lock_retries: u64,
    pub handed_over: bool,
    pub cache_hit: bool,
    /// Verbs the operation's commit posted and has not waited for yet: the
    /// write-back + release of its leaf, a split's cross-server right half.
    /// The follow-up overlaps them with its own first round trip and
    /// observes them (`OpCx::observe`) before anything that depends on them,
    /// and at the latest before the operation ends.
    pub in_flight: Vec<PendingVerb>,
}

/// What one `step` call produced: either the token of a freshly posted verb
/// (resume with its completion) or the operation's result.
pub(crate) enum Step<T> {
    /// A verb was posted; feed its [`Completion`] to the next `step` call.
    Pending(PendingVerb),
    /// The machine finished.
    Done(T),
}

/// What one `step` call of a whole operation produced: a [`Step`], or the
/// one request only an operation that commits can make.
pub(crate) enum OpStep<T> {
    /// A verb (or a wait) was posted; feed its [`Completion`] to the next
    /// `step` call.
    Pending(PendingVerb),
    /// The operation is about to take further locks and wait for them.  Step it
    /// again (without a completion) once no other operation multiplexed on
    /// this context is inside a lock acquisition — see [`OpSM::acquiring`].
    Exclusive,
    /// The operation finished.
    Done(T),
}

impl<T> From<Step<T>> for OpStep<T> {
    fn from(step: Step<T>) -> Self {
        match step {
            Step::Pending(token) => OpStep::Pending(token),
            Step::Done(value) => OpStep::Done(value),
        }
    }
}

impl<T> OpStep<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> OpStep<U> {
        match self {
            OpStep::Pending(token) => OpStep::Pending(token),
            OpStep::Exclusive => OpStep::Exclusive,
            OpStep::Done(value) => OpStep::Done(f(value)),
        }
    }
}

/// What the body of one leaf commit (run inside a single `step` call, from
/// the locked image to the release of the leaf lock) produced.
pub(crate) enum WriteCommit {
    /// The modification committed.  `found` reports whether the key was
    /// present (meaningful for deletes).  `release` carries the deferred
    /// final lock-release verb when the fast path posted it split-phase —
    /// the machine parks on it as its last yield; `None` means the release
    /// was purely local (lock handover).
    Committed {
        found: bool,
        release: Option<PendingVerb>,
    },
    /// The modification committed (the key was, or now is, present) and the
    /// leaf lock's release was posted (it is in `OpMeta::in_flight`, or
    /// already observed without command combination), but the tree is still
    /// owed a separator or a merge.
    Structural(Followup),
    /// The locked leaf did not cover the key; the lock was released untouched
    /// (`release` as above) and the operation must retry at `next` (re-locate
    /// when `None`).
    Retry {
        next: Option<(GlobalAddress, LeafSource)>,
        release: Option<PendingVerb>,
    },
}

/// The shared-state window every state machine — reads and writes — steps
/// against: the cluster plus this logical thread's fabric context and node
/// allocator.  Multiple machines multiplexed on one thread all step against
/// the *same* `OpCx` (that is the point).
pub(crate) struct OpCx<'a, B: FabricBackend = Fabric> {
    pub cluster: &'a Arc<Cluster<B>>,
    pub ctx: &'a mut ClientCtx<B::Channel>,
    pub allocator: &'a mut ClientAllocator<B>,
    pub cs_id: u16,
}

impl<B: FabricBackend> OpCx<'_, B> {
    pub(crate) fn leaf_format(&self) -> LeafFormat {
        self.cluster.options().leaf_format
    }

    pub(crate) fn node_image_consistent(&self, buf: &[u8]) -> bool {
        self.cluster.node_image_ok(buf)
    }

    /// Current root address and level, from the local hint or the remote
    /// superblock.
    pub(crate) fn root(&mut self) -> TreeResult<(GlobalAddress, u8)> {
        if let Some(hint) = self.cluster.root_hint() {
            return Ok((hint.addr, hint.level));
        }
        self.root_remote()
    }

    /// Re-read the root pointer and level hint from the remote superblock,
    /// refreshing the local hint (used when a restart suggests the hint may be
    /// stale — e.g. after a racing root growth or root collapse).  Blocking:
    /// restarts are rare and never on the pipelined hot path.
    pub(crate) fn root_remote(&mut self) -> TreeResult<(GlobalAddress, u8)> {
        let packed = self.ctx.read_u64(self.cluster.root_ptr_addr())?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let level = self.ctx.read_u64(ServerLayout::level_hint_addr())? as u8;
        let addr = GlobalAddress::unpack(packed);
        self.cluster.set_root_hint(addr, level);
        Ok((addr, level))
    }

    /// Drain this compute server's coherence inbox and apply every message
    /// whose delivery time has been reached.  Called at operation
    /// boundaries — the blocking entry points and the pipelined scheduler's
    /// slot admission, the same points, which keeps depth-1 pipelining
    /// byte-for-byte identical to blocking.  Costs no virtual time.
    pub(crate) fn drain_coherence(&mut self) {
        let msgs = self.ctx.drain_coherence();
        self.apply_coherence(&msgs);
    }

    /// Apply drained coherence messages to this compute server's cache.
    pub(crate) fn apply_coherence(&mut self, msgs: &[sherman_sim::CoherenceMsg]) {
        if !msgs.is_empty() {
            let now = self.ctx.now();
            crate::coherence::apply(self.cluster, self.cs_id, now, msgs);
        }
    }

    /// Mid-operation drain, right before a cache consult that feeds an
    /// offload placement decision, so the decision — and the tombstone floor
    /// its reply is validated against — sees the freshest cache state.
    /// Nothing to do once the operation has offloaded, or under `Never`.
    fn drain_for_placement(&mut self, offload_done: bool) {
        if !offload_done && self.cluster.options().offload.may_offload() {
            self.drain_coherence();
        }
    }
}

/// Build the cacheable image of a decoded internal node.
pub(crate) fn cached_from_internal(addr: GlobalAddress, node: &InternalNode) -> CachedInternal {
    CachedInternal {
        addr,
        fence_low: node.header.fence_low,
        fence_high: node.header.fence_high,
        level: node.header.level,
        version: node.header.front_version,
        leftmost: node.header.leftmost.unwrap_or_else(GlobalAddress::null),
        children: node
            .entries
            .iter()
            .map(|e| ChildRef {
                separator: e.key,
                child: e.child,
            })
            .collect(),
    }
}

/// Handle a leaf (`header` its header) that turned out not to cover `key`:
/// invalidate the stale cache entry and either follow the sibling pointer or
/// ask for a fresh traversal.  Returns the next address to try, or `None` to
/// re-locate.
///
/// Observing a tombstone always scrubs every local cached route to it
/// (`invalidate_addr`), whatever routed the operation here: with coherence
/// messages in flight rather than applied synchronously, this local
/// self-heal is what keeps a stale route from being retried forever before
/// the `Invalidate` message lands.
pub(crate) fn next_after_mismatch<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
    addr: GlobalAddress,
    header: &NodeHeader,
    source: LeafSource,
) -> Option<GlobalAddress> {
    let cache = cx.cluster.cache(cx.cs_id);
    if let LeafSource::Cache { fence_low } = source {
        cache.invalidate(fence_low);
    }
    if header.free {
        cache.invalidate_addr(addr);
        return None;
    }
    if key >= header.fence_high {
        if let Some(sib) = header.sibling {
            return Some(sib);
        }
    }
    None
}

/// Outcome of the synchronous half of leaf location: either the index cache
/// answered immediately, or a traversal must run.
pub(crate) enum LocateStart {
    Cached(GlobalAddress, LeafSource),
    Traverse(TraverseSM),
}

/// Begin locating the leaf that should hold `key` from the deepest cached
/// image covering it: a level-1 image names the leaf at once, a higher one
/// shortens the traversal to the uncached suffix of the path (no verb is
/// posted here; a returned [`TraverseSM`] posts them).
pub(crate) fn locate_start<B: FabricBackend>(cx: &mut OpCx<'_, B>, meta: &mut OpMeta, key: u64) -> LocateStart {
    let start = cx.cluster.cache(cx.cs_id).deepest(key, 1);
    match start {
        Some(cached) if cached.level == 1 => {
            meta.cache_hit = true;
            LocateStart::Cached(
                cached.child_for(key),
                LeafSource::Cache {
                    fence_low: cached.fence_low,
                },
            )
        }
        start => LocateStart::Traverse(TraverseSM::from_lookup(cx, key, start)),
    }
}

/// How many more times an operation may start over before it is reported as
/// failed — the ladder every restarting machine climbs the same way.
struct RestartBudget(u32);

impl RestartBudget {
    fn new<B: FabricBackend>(cx: &OpCx<'_, B>) -> Self {
        RestartBudget(cx.cluster.config().max_restarts)
    }

    /// Spend one attempt.  Every attempt after the first lost a race (root
    /// growth, a concurrent split or merge moving the key range) and is paced
    /// so the winner can finish.
    fn begin<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        context: &'static str,
    ) -> TreeResult<()> {
        let attempts = cx.cluster.config().max_restarts;
        if self.0 == 0 {
            return Err(TreeError::RetriesExhausted { context, attempts });
        }
        if self.0 < attempts {
            cx.ctx.contention_backoff(attempts - self.0);
        }
        self.0 -= 1;
        Ok(())
    }
}

/// Drive a state-machine step function to completion with one verb in flight
/// at a time: post, poll, resume.  This *is* the blocking path — and also
/// exactly what a pipelined run at depth 1 executes, which is why the two are
/// equivalent by construction.
pub(crate) fn drive_blocking<B: FabricBackend, T, S: Into<OpStep<T>>>(
    cx: &mut OpCx<'_, B>,
    meta: &mut OpMeta,
    mut step: impl FnMut(&mut OpCx<'_, B>, &mut OpMeta, Option<Completion>) -> TreeResult<S>,
) -> TreeResult<T> {
    let mut completion = None;
    loop {
        match step(cx, meta, completion.take())?.into() {
            OpStep::Pending(token) => completion = Some(cx.ctx.poll_token(token)),
            // One operation at a time: nobody else is acquiring anything.
            OpStep::Exclusive => {}
            OpStep::Done(value) => return Ok(value),
        }
    }
}

// ----------------------------------------------------------------------
// Server-side traversal offload
// ----------------------------------------------------------------------

/// The placement decision for a cache-missed descent toward `key`: where an
/// offloaded walk would start (below the deepest cached image covering the
/// key, or at the root) and how many dependent reads the local path would
/// need from there — the uncached suffix of the path, not the tree height.
/// Records the decision; returns `None` when the op should stay local.
fn offload_decision<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
) -> Option<(GlobalAddress, u8)> {
    let policy = cx.cluster.options().offload;
    if !policy.may_offload() {
        return None;
    }
    let (root_addr, root_level) = cx.root().ok()?;
    let (from_addr, remaining) = match cx.cluster.cache(cx.cs_id).search_top(key) {
        Some((child, child_level)) => (child, child_level.saturating_add(1)),
        None => (root_addr, root_level.saturating_add(1)),
    };
    let counters = cx.cluster.offload_counters(cx.cs_id);
    let offload = crate::offload::should_offload(
        policy,
        remaining,
        counters.ewma_read_ns(),
        counters.ewma_rpc_ns(),
        cx.cluster.fabric().config(),
    );
    counters.record_decision(offload);
    offload.then_some((from_addr, remaining))
}

/// The traverse RPC a cache-missed point op posts when the placement
/// decision says to offload.
fn offload_traverse_request<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
) -> Option<RpcRequest> {
    let (from_addr, remaining) = offload_decision(cx, key)?;
    Some(RpcRequest::TraverseStep {
        from_addr,
        key,
        // Headroom over the estimate: the walk may chase B-link siblings,
        // and the tree may have grown since the root hint was cached.
        max_levels: remaining.saturating_add(3).min(16),
    })
}

/// The offloaded descent of a cache-missed point op, if the placement
/// decision picks it.  One-shot per operation (`done`), so a declined or
/// stale RPC can never loop back into another RPC.
fn offload_descent<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
    done: &mut bool,
) -> Option<OffloadSM> {
    if *done {
        return None;
    }
    let req = offload_traverse_request(cx, key)?;
    *done = true;
    Some(OffloadSM::new(req))
}

/// The range RPC a cache-missed scan posts when the placement decision says
/// to offload.
fn offload_range_request<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    start_key: u64,
    max_entries: u32,
    max_leaves: u8,
) -> Option<RpcRequest> {
    let (from_addr, _) = offload_decision(cx, start_key)?;
    Some(RpcRequest::LeafRange {
        from_addr,
        start_key,
        max_entries,
        max_leaves,
    })
}

/// What an offloaded step resolved to.
pub(crate) enum OffloadOutcome {
    /// A validated leaf reply (traverse / leaf search).
    Leaf(RpcLeafReply),
    /// A validated range reply.
    Range(RpcRangeReply),
    /// Decline, unexpected payload, or a tombstone-floor rejection: the op
    /// falls back to its local one-sided path.
    Fallback,
}

/// One offloaded traversal step: post the typed RPC, yield, then validate
/// the reply against the local tombstone admission floor before anyone
/// trusts it.  The server's answer is a *hint* — a reply carrying a node
/// image at or below a recorded tombstone version is a freed/recycled node
/// and is rejected here, exactly the admission rule the index cache applies
/// to its own fills.  Validated level-1 images are offered to the cache (the
/// offer re-checks the floor internally).
pub(crate) struct OffloadSM {
    req: RpcRequest,
    posted: bool,
}

impl OffloadSM {
    pub(crate) fn new(req: RpcRequest) -> Self {
        OffloadSM { req, posted: false }
    }

    /// Tombstone-floor admission for one server-returned node image.
    fn admit<B: FabricBackend>(cx: &mut OpCx<'_, B>, info: &RpcNodeInfo) -> bool {
        let cache = cx.cluster.cache(cx.cs_id);
        if let Some(floor) = cache.tombstoned(info.addr) {
            if !CachedInternal::version_newer(info.version, floor) {
                cx.cluster
                    .offload_counters(cx.cs_id)
                    .record_stale_reject();
                return false;
            }
        }
        true
    }

    /// Offer the cache a level-1 image the server's walk passed through, as
    /// a local traversal reading that node would have.
    fn warm_level1<B: FabricBackend>(cx: &mut OpCx<'_, B>, img: &RpcLevel1Image) {
        if img.info.level != 1 {
            return;
        }
        cx.cluster.cache(cx.cs_id).insert_level1(CachedInternal {
            addr: img.info.addr,
            fence_low: img.info.fence_low,
            fence_high: img.info.fence_high,
            level: img.info.level,
            version: img.info.version,
            leftmost: img.leftmost,
            children: img
                .children
                .iter()
                .map(|&(separator, child)| ChildRef { separator, child })
                .collect(),
        });
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        completion: Option<Completion>,
    ) -> TreeResult<Step<OffloadOutcome>> {
        let Some(c) = completion else {
            debug_assert!(!self.posted, "an offload attempt posts exactly one RPC");
            self.posted = true;
            let token = cx.ctx.post_index_rpc(&self.req)?;
            return Ok(Step::Pending(token));
        };
        // Feed the observed round trip — queueing at the home server's wimpy
        // core included — back into the placement estimator.
        cx.cluster
            .offload_counters(cx.cs_id)
            .observe_rpc_ns(c.completed_at.saturating_sub(c.posted_at));
        let outcome = match c.result.into_rpc() {
            RpcResponse::Leaf(reply) => {
                if !Self::admit(cx, &reply.leaf) {
                    // Scrub any cached route to the rejected address too:
                    // the server just proved something lives there that our
                    // floor says is stale.
                    cx.cluster.cache(cx.cs_id).invalidate_addr(reply.leaf.addr);
                    OffloadOutcome::Fallback
                } else {
                    if let Some(img) = &reply.level1 {
                        Self::warm_level1(cx, img);
                    }
                    OffloadOutcome::Leaf(reply)
                }
            }
            RpcResponse::Range(reply) => {
                // Every scanned leaf must pass the floor before any of the
                // collected entries are accepted.
                if reply.leaves.iter().any(|l| !Self::admit(cx, l)) {
                    OffloadOutcome::Fallback
                } else {
                    if let Some(img) = &reply.level1 {
                        Self::warm_level1(cx, img);
                    }
                    OffloadOutcome::Range(reply)
                }
            }
            RpcResponse::Declined { .. } => {
                cx.cluster.offload_counters(cx.cs_id).record_declined();
                OffloadOutcome::Fallback
            }
            RpcResponse::Ack => OffloadOutcome::Fallback,
        };
        Ok(Step::Done(outcome))
    }
}

// ----------------------------------------------------------------------
// Node-read consistency loop
// ----------------------------------------------------------------------

/// The lock-free node-image read: post `RDMA_READ`s of the node until an
/// image passes the node-level consistency check (version pair or checksum),
/// bounded by `max_read_retries`.
pub(crate) struct ReadNodeSM {
    addr: GlobalAddress,
    attempts_left: u32,
}

impl ReadNodeSM {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>, addr: GlobalAddress) -> Self {
        ReadNodeSM {
            addr,
            attempts_left: cx.cluster.config().max_read_retries,
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        completion: Option<Completion>,
    ) -> TreeResult<Step<Vec<u8>>> {
        let node_size = cx.cluster.layout().node_size();
        if let Some(c) = completion {
            if cx.cluster.options().offload.may_offload() {
                // Feed the adaptive placement policy's latency estimate from
                // real completions of the reads it is trying to replace.
                cx.cluster
                    .offload_counters(cx.cs_id)
                    .observe_read_ns(c.completed_at.saturating_sub(c.posted_at));
            }
            let buf = c.result.into_read();
            if cx.node_image_consistent(&buf) {
                cx.ctx.charge_scan(node_size);
                return Ok(Step::Done(buf));
            }
            meta.read_retries += 1;
            cx.ctx.note_retries(1);
            let attempt = cx.cluster.config().max_read_retries - self.attempts_left;
            cx.ctx.contention_backoff(attempt);
        }
        if self.attempts_left == 0 {
            return Err(TreeError::RetriesExhausted {
                context: "node-level consistency check",
                attempts: cx.cluster.config().max_read_retries,
            });
        }
        self.attempts_left -= 1;
        let token = cx.ctx.post_read(self.addr, node_size)?;
        Ok(Step::Pending(token))
    }
}

// ----------------------------------------------------------------------
// Traversal
// ----------------------------------------------------------------------

/// One traversal attempt's cursor (reset on every restart).
struct TraverseAttempt {
    root_level: u8,
    addr: GlobalAddress,
    /// `(level, fence_low)` of the cached image that routed the attempt to
    /// `addr`, until a freshly read parent supersedes it.  A cached route is
    /// believed only once the node it names validates: landing on a freed
    /// node is a *stale hit* (an in-flight coherence invalidation had
    /// already retired it), landing beside the key drops the image.
    route: Option<(u8, u64)>,
    expect_level: u8,
    read: Option<ReadNodeSM>,
}

/// Walk down from the deepest cached image covering `key` (or the root) to
/// the node at `target_level` whose key interval contains `key` — the
/// resumable form of the traversal loop, yielding one posted node read at a
/// time.  Every internal node it reads is offered to the index cache at the
/// node's own level.
pub(crate) struct TraverseSM {
    key: u64,
    target_level: u8,
    restarts: RestartBudget,
    first_attempt: bool,
    /// The cache's answer when the caller already asked it (the first
    /// attempt then does not ask again).
    looked_up: Option<Option<Arc<CachedInternal>>>,
    attempt: Option<TraverseAttempt>,
}

impl TraverseSM {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>, key: u64, target_level: u8) -> Self {
        TraverseSM {
            key,
            target_level,
            restarts: RestartBudget::new(cx),
            first_attempt: true,
            looked_up: None,
            attempt: None,
        }
    }

    /// A leaf-bound traversal whose caller already holds the cache's answer
    /// for `key` (`None`: nothing cached covers it).
    fn from_lookup<B: FabricBackend>(
        cx: &OpCx<'_, B>,
        key: u64,
        start: Option<Arc<CachedInternal>>,
    ) -> Self {
        TraverseSM {
            looked_up: Some(start),
            ..TraverseSM::new(cx, key, 0)
        }
    }

    /// Start a fresh attempt below the deepest usable cached image, or at
    /// the root.  With structural deletes enabled, a restart may mean a
    /// cached route went stale (a freed node or a collapsed root): after the
    /// first failed attempt, re-read the root from the superblock and skip
    /// the cache.  In grow-only mode (the paper's behaviour) neither can
    /// happen, so restarts keep their shortcuts and cost profile.
    fn begin_attempt<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>) -> TreeResult<Option<GlobalAddress>> {
        let distrust_shortcuts = cx.cluster.options().structural_deletes_enabled();
        let use_shortcuts = self.first_attempt || !distrust_shortcuts;
        self.first_attempt = false;
        let (root_addr, root_level) = if use_shortcuts {
            cx.root()?
        } else {
            cx.root_remote()?
        };
        let looked_up = self.looked_up.take();
        let start = if use_shortcuts {
            let cache = cx.cluster.cache(cx.cs_id);
            // Only an image above `target_level` can route this traversal.
            // Inside the pinned window the cache answers with its deepest
            // image, as the paper's always-cached set does: a target right
            // under the root finds that image too deep and walks from the
            // root pointer (the verbs `tests/ablation_matrix.rs` pins).
            let min_level = (self.target_level + 1).min(root_level.saturating_sub(1));
            let start = looked_up
                .unwrap_or_else(|| cache.deepest(self.key, min_level))
                .filter(|image| image.level > self.target_level);
            if start.is_some() {
                cache.stats().record_top_hit();
            } else {
                cache.stats().record_top_miss();
            }
            start
        } else {
            None
        };
        let (addr, expect_level, route) = match start {
            Some(image) => (
                image.child_for(self.key),
                image.level - 1,
                Some((image.level, image.fence_low)),
            ),
            None => (root_addr, root_level, None),
        };
        if expect_level < self.target_level {
            // The tree is shallower than the requested level; the caller
            // handles root growth.
            return Ok(Some(root_addr));
        }
        self.attempt = Some(TraverseAttempt {
            root_level,
            addr,
            route,
            expect_level,
            read: None,
        });
        Ok(None)
    }

    /// Where the leaf address the traversal finished on came from: straight
    /// out of a cached level-1 image when the attempt bottomed out without
    /// reading a node (the caller must invalidate that image on a mismatch),
    /// a freshly read parent otherwise.
    pub(crate) fn leaf_source(&self) -> LeafSource {
        match self.attempt.as_ref().and_then(|a| a.route) {
            Some((_, fence_low)) => LeafSource::Cache { fence_low },
            None => LeafSource::Traversal,
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<GlobalAddress>> {
        loop {
            if self.attempt.is_none() {
                self.restarts.begin(cx, "tree traversal")?;
                if let Some(shallow) = self.begin_attempt(cx)? {
                    return Ok(Step::Done(shallow));
                }
            }
            let attempt = self.attempt.as_mut().expect("attempt just ensured");
            if attempt.expect_level == self.target_level {
                return Ok(Step::Done(attempt.addr));
            }
            let addr = attempt.addr;
            let read = attempt
                .read
                .get_or_insert_with(|| ReadNodeSM::new(cx, addr));
            match read.step(cx, meta, completion.take())? {
                Step::Pending(token) => return Ok(Step::Pending(token)),
                Step::Done(buf) => {
                    attempt.read = None;
                    let cache = cx.cluster.cache(cx.cs_id);
                    let node = cx.cluster.layout().decode_internal(&buf);
                    let route = attempt.route.take();
                    if node.header.free || node.header.is_leaf || !node.header.covers(self.key) {
                        if node.header.free {
                            // Local self-heal: drop every cached route to
                            // the observed tombstone (the fabric-delivered
                            // `Invalidate` may still be in flight).
                            cache.invalidate_addr(addr);
                            if route.is_some() {
                                // A cached route led to a retired node
                                // before its invalidation was drained.
                                cx.cluster.coherence_counters().record_stale_hit();
                            }
                        } else if let Some((level, fence_low)) = route {
                            // The routing image no longer describes the
                            // tree (its child split, or the address was
                            // recycled): drop it so the next pass re-reads
                            // the parent instead of hopping again.
                            cache.invalidate_at(level, fence_low);
                        }
                        let hop = (!node.header.free && !node.header.is_leaf)
                            .then_some(node.header.sibling)
                            .flatten()
                            .filter(|_| self.key >= node.header.fence_high);
                        match hop {
                            Some(sibling) => attempt.addr = sibling,
                            None => self.attempt = None,
                        }
                        continue;
                    }
                    attempt.expect_level = node.header.level;
                    cache.offer(
                        Arc::new(cached_from_internal(addr, &node)),
                        attempt.root_level,
                    );
                    if attempt.expect_level == self.target_level {
                        return Ok(Step::Done(addr));
                    }
                    attempt.addr = node.child_for(self.key);
                    attempt.expect_level = node.header.level - 1;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Lookup
// ----------------------------------------------------------------------

enum LookupPhase {
    /// Decide where to read next (consume `pending`, consult the cache, or
    /// start a traversal).
    Restart,
    Locate(TraverseSM),
    /// A server-side traversal RPC is in flight.  `fallback` holds the
    /// cache-served leaf route the RPC replaced (`Always` on a warm cache);
    /// on a decline the lookup resumes there instead of re-locating.
    Offload {
        sm: OffloadSM,
        fallback: Option<(GlobalAddress, LeafSource)>,
    },
    Leaf {
        addr: GlobalAddress,
        source: LeafSource,
        reads_left: u32,
        read: ReadNodeSM,
    },
}

/// Point lookup as a resumable machine: descend → leaf read posted →
/// validate (node- and entry-level) / chase a sibling / retry → done.
pub(crate) struct LookupSM {
    key: u64,
    restarts: RestartBudget,
    pending: Option<(GlobalAddress, LeafSource)>,
    /// One-shot: a lookup offloads at most once (see [`offload_descent`]).
    offload_done: bool,
    phase: LookupPhase,
}

impl LookupSM {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>, key: u64) -> Self {
        LookupSM {
            key,
            restarts: RestartBudget::new(cx),
            pending: None,
            offload_done: false,
            phase: LookupPhase::Restart,
        }
    }

    fn leaf_phase<B: FabricBackend>(&self, cx: &OpCx<'_, B>, addr: GlobalAddress, source: LeafSource) -> LookupPhase {
        LookupPhase::Leaf {
            addr,
            source,
            reads_left: cx.cluster.config().max_read_retries,
            read: ReadNodeSM::new(cx, addr),
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<Option<u64>>> {
        loop {
            match &mut self.phase {
                LookupPhase::Restart => {
                    self.restarts.begin(cx, "lookup")?;
                    if let Some((addr, source)) = self.pending.take() {
                        self.phase = self.leaf_phase(cx, addr, source);
                        continue;
                    }
                    cx.drain_for_placement(self.offload_done);
                    self.phase = match locate_start(cx, meta, self.key) {
                        LocateStart::Cached(addr, source)
                            if !self.offload_done
                                && cx.cluster.options().offload == OffloadPolicy::Always =>
                        {
                            // `Always` trades even the warm single read for
                            // an RPC (its loss region — the regime the
                            // adaptive policy exists to avoid).
                            self.offload_done = true;
                            cx.cluster.offload_counters(cx.cs_id).record_decision(true);
                            LookupPhase::Offload {
                                sm: OffloadSM::new(RpcRequest::LeafSearch {
                                    leaf_addr: addr,
                                    key: self.key,
                                }),
                                fallback: Some((addr, source)),
                            }
                        }
                        LocateStart::Cached(addr, source) => self.leaf_phase(cx, addr, source),
                        LocateStart::Traverse(sm) => {
                            match offload_descent(cx, self.key, &mut self.offload_done) {
                                Some(rpc) => LookupPhase::Offload {
                                    sm: rpc,
                                    fallback: None,
                                },
                                None => LookupPhase::Locate(sm),
                            }
                        }
                    };
                }
                LookupPhase::Offload { sm, fallback } => {
                    let fallback = *fallback;
                    match sm.step(cx, completion.take())? {
                        Step::Pending(token) => return Ok(Step::Pending(token)),
                        Step::Done(OffloadOutcome::Leaf(reply)) => {
                            let counters = cx.cluster.offload_counters(cx.cs_id);
                            if reply.chase_sibling {
                                // The RPC still collapsed the descent; chase
                                // the B-link locally like any other reader.
                                counters.record_win();
                                self.pending =
                                    reply.leaf.sibling.map(|s| (s, LeafSource::Sibling));
                                self.phase = LookupPhase::Restart;
                            } else if reply.entry_conflict {
                                // Entry-granular write mid-flight on the
                                // server's image: re-read the leaf locally.
                                counters.record_loss();
                                meta.read_retries += 1;
                                self.phase =
                                    self.leaf_phase(cx, reply.leaf.addr, LeafSource::Traversal);
                            } else {
                                counters.record_win();
                                return Ok(Step::Done(reply.found));
                            }
                        }
                        Step::Done(_) => {
                            cx.cluster.offload_counters(cx.cs_id).record_loss();
                            match fallback {
                                Some((addr, source)) => {
                                    self.phase = self.leaf_phase(cx, addr, source);
                                }
                                None => self.phase = LookupPhase::Restart,
                            }
                        }
                    }
                }
                LookupPhase::Locate(sm) => match sm.step(cx, meta, completion.take())? {
                    Step::Pending(token) => return Ok(Step::Pending(token)),
                    Step::Done(addr) => {
                        let source = sm.leaf_source();
                        self.phase = self.leaf_phase(cx, addr, source);
                    }
                },
                LookupPhase::Leaf {
                    addr,
                    source,
                    reads_left,
                    read,
                } => match read.step(cx, meta, completion.take())? {
                    Step::Pending(token) => return Ok(Step::Pending(token)),
                    Step::Done(buf) => {
                        let leaf = cx.cluster.layout().decode_leaf(&buf);
                        if leaf.header.free || !leaf.header.is_leaf || !leaf.header.covers(self.key)
                        {
                            let (addr, source) = (*addr, *source);
                            if leaf.header.free && matches!(source, LeafSource::Cache { .. }) {
                                // The index cache routed to a retired leaf:
                                // its invalidation is still in flight.
                                cx.cluster.coherence_counters().record_stale_hit();
                            }
                            self.pending =
                                next_after_mismatch(cx, self.key, addr, &leaf.header, source)
                                    .map(|a| (a, LeafSource::Sibling));
                            self.phase = LookupPhase::Restart;
                            continue;
                        }
                        // Entry-level validation (two-level versions only).
                        let found = leaf
                            .entries
                            .iter()
                            .find(|e| e.present && e.key == self.key)
                            .copied();
                        match (cx.leaf_format(), found) {
                            (LeafFormat::UnsortedTwoLevel, Some(e)) if !e.versions_match() => {
                                meta.read_retries += 1;
                                cx.ctx.note_retries(1);
                                *reads_left -= 1;
                                if *reads_left == 0 {
                                    // The entry-validation budget is spent:
                                    // restart the whole location attempt.
                                    self.phase = LookupPhase::Restart;
                                    continue;
                                }
                                *read = ReadNodeSM::new(cx, *addr);
                            }
                            (_, found) => return Ok(Step::Done(found.map(|e| e.value))),
                        }
                    }
                },
            }
        }
    }
}

// ----------------------------------------------------------------------
// Range scan
// ----------------------------------------------------------------------

enum RangePhase {
    /// Decide between the cached parallel batch and the sequential fallback.
    Start,
    /// A server-side range RPC is in flight (cache-missed start only).
    Offload(OffloadSM),
    /// The parallel leaf batch named by the cached level-1 image with lower
    /// fence `route` is in flight.
    Batch {
        addrs: Vec<GlobalAddress>,
        route: u64,
    },
    /// Scanning the fetched batch; `repair` re-reads a torn leaf in place.
    BatchScan {
        addrs: Vec<GlobalAddress>,
        bufs: Vec<Vec<u8>>,
        idx: usize,
        repair: Option<ReadNodeSM>,
        route: u64,
    },
    /// Decide how to reach the leaf covering the frontier.
    Seek,
    /// Traversal toward the leaf covering the frontier.
    Locate(TraverseSM),
    /// Loop-condition check before reading the leaf at `addr`.
    ChainNext {
        addr: GlobalAddress,
        source: LeafSource,
    },
    /// A chain leaf read is in flight.
    Chain {
        read: ReadNodeSM,
        source: LeafSource,
    },
    /// Sort, truncate.
    Finish,
}

/// Range scan as a resumable machine.
///
/// Like the paper (and FG), the scan is not atomic with respect to concurrent
/// writers; each leaf is individually validated.  Phase 1 uses the cached
/// level-1 node to read several target leaves with one parallel batch (§4.4);
/// phase 2 continues along sibling pointers.
///
/// **Continuity is the scan's invariant, not the cache's.**  The scan keeps a
/// *frontier*: every key in `[start_key, frontier)` has been collected from a
/// leaf that covered it when it was read.  A leaf is consumed only if its
/// fence interval contains the frontier, and consuming it moves the frontier
/// to the leaf's upper fence — so a stale child list (a split's new leaf
/// missing, a retired child recycled elsewhere), a merge or a rebalance
/// racing the walk shows up as a leaf that does not cover the frontier,
/// never as a silently skipped key range.  Such a leaf is not consumed: the
/// scan drops the cached image that named it and re-locates the frontier.
pub(crate) struct RangeSM {
    start_key: u64,
    count: usize,
    results: Vec<(u64, u64)>,
    /// Everything in `[start_key, frontier)` is collected.
    frontier: u64,
    /// Right sibling of the leaf that moved the frontier last; `None` before
    /// the first leaf and whenever the frontier must be re-located.
    next: Option<GlobalAddress>,
    /// The rightmost leaf was consumed.
    exhausted: bool,
    hops: u32,
    /// One-shot: a scan offloads at most once (see [`LookupSM`]).
    offload_done: bool,
    phase: RangePhase,
}

impl RangeSM {
    pub(crate) fn new(start_key: u64, count: usize) -> Self {
        RangeSM {
            start_key,
            count,
            results: Vec::with_capacity(count),
            frontier: start_key,
            next: None,
            exhausted: false,
            hops: 0,
            offload_done: false,
            phase: RangePhase::Start,
        }
    }

    /// Consume `leaf` if it is live and covers the frontier: collect its
    /// entries from the frontier up and advance to its upper fence.
    fn take_leaf(&mut self, leaf: &LeafNode) -> bool {
        let header = &leaf.header;
        if header.free || !header.is_leaf || !header.covers(self.frontier) {
            return false;
        }
        for e in &leaf.entries {
            if e.present && e.key >= self.frontier && e.versions_match() {
                self.results.push((e.key, e.value));
            }
        }
        self.frontier = header.fence_high;
        self.next = header.sibling;
        self.exhausted = header.sibling.is_none();
        true
    }

    /// Begin locating the leaf covering the frontier; transitions the phase.
    fn locate_frontier<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>, meta: &mut OpMeta) {
        self.phase = match locate_start(cx, meta, self.frontier) {
            LocateStart::Cached(addr, source) => RangePhase::ChainNext { addr, source },
            LocateStart::Traverse(sm) => RangePhase::Locate(sm),
        };
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<Vec<(u64, u64)>>> {
        let layout = *cx.cluster.layout();
        loop {
            match &mut self.phase {
                RangePhase::Start => {
                    cx.drain_for_placement(self.offload_done);
                    let per_leaf = (layout.leaf_capacity() as f64
                        * cx.cluster.config().leaf_fill) as usize;
                    let wanted_leaves = self.count / per_leaf.max(1) + 1;
                    if let Some(cached) =
                        cx.cluster.cache(cx.cs_id).lookup_covering(self.start_key)
                    {
                        meta.cache_hit = true;
                        let addrs: Vec<GlobalAddress> = cached
                            .children_in_range(self.start_key, u64::MAX)
                            .into_iter()
                            .take(wanted_leaves)
                            .collect();
                        if !addrs.is_empty() {
                            let reqs: Vec<(GlobalAddress, usize)> = addrs
                                .iter()
                                .map(|&a| (a, layout.node_size()))
                                .collect();
                            let token = cx.ctx.post_read_batch(&reqs)?;
                            self.phase = RangePhase::Batch {
                                addrs,
                                route: cached.fence_low,
                            };
                            return Ok(Step::Pending(token));
                        }
                    }
                    if !self.offload_done {
                        let max_leaves = (wanted_leaves + 2).min(64) as u8;
                        let max_entries = self.count.min(u32::MAX as usize) as u32;
                        if let Some(req) = offload_range_request(
                            cx,
                            self.start_key,
                            max_entries.max(1),
                            max_leaves,
                        ) {
                            self.offload_done = true;
                            self.phase = RangePhase::Offload(OffloadSM::new(req));
                            continue;
                        }
                    }
                    self.phase = RangePhase::Seek;
                }
                RangePhase::Offload(sm) => match sm.step(cx, completion.take())? {
                    Step::Pending(token) => return Ok(Step::Pending(token)),
                    Step::Done(OffloadOutcome::Range(reply)) => {
                        // Every returned leaf passed the tombstone floor;
                        // adopt the server's walk as far as its leaves are
                        // continuous from the frontier, exactly as if the
                        // chain walk had consumed those leaves itself.
                        let mut frontier = Some(self.frontier);
                        for info in &reply.leaves {
                            frontier = frontier
                                .filter(|&f| {
                                    info.fence_low <= f
                                        && (info.fence_high == u64::MAX || f < info.fence_high)
                                })
                                .map(|_| info.fence_high);
                        }
                        let counters = cx.cluster.offload_counters(cx.cs_id);
                        match frontier {
                            Some(frontier) if !reply.leaves.is_empty() => {
                                counters.record_win();
                                self.results.extend(reply.entries.iter().copied());
                                self.frontier = frontier;
                                self.next = reply.next;
                                self.exhausted = reply.next.is_none();
                            }
                            _ => counters.record_loss(),
                        }
                        self.phase = RangePhase::Seek;
                    }
                    Step::Done(_) => {
                        cx.cluster.offload_counters(cx.cs_id).record_loss();
                        self.phase = RangePhase::Seek;
                    }
                },
                RangePhase::Batch { addrs, route } => {
                    let c = completion.take().expect("batch completion expected");
                    let bufs = c.result.into_read_batch();
                    self.phase = RangePhase::BatchScan {
                        addrs: std::mem::take(addrs),
                        bufs,
                        idx: 0,
                        repair: None,
                        route: *route,
                    };
                }
                RangePhase::BatchScan { .. } => {
                    // Take the scan state out of the phase so the `&mut self`
                    // helpers below can run; it is put back on every yield.
                    let RangePhase::BatchScan {
                        addrs,
                        bufs,
                        mut idx,
                        mut repair,
                        route,
                    } = std::mem::replace(&mut self.phase, RangePhase::Seek)
                    else {
                        unreachable!("phase checked above");
                    };
                    // The batch is adjacent only as far as the cached child
                    // list is current: the first leaf must cover the
                    // frontier and every next one must begin exactly where
                    // its predecessor ended.  Anything else stops the batch
                    // (phase is already `Seek`: the sibling chain takes over
                    // from the last verified leaf) and drops the image.
                    let take = |this: &mut Self, cx: &mut OpCx<'_, B>, idx: usize, leaf: &LeafNode| {
                        let adjacent = idx == 0 || leaf.header.fence_low == this.frontier;
                        if adjacent && this.take_leaf(leaf) {
                            return true;
                        }
                        let cache = cx.cluster.cache(cx.cs_id);
                        if leaf.header.free {
                            // The fabric-delivered `Invalidate` may still be
                            // in flight: scrub every route to the tombstone.
                            cache.invalidate_addr(addrs[idx]);
                        }
                        cache.invalidate(route);
                        cache.stats().record_scan_fallback();
                        false
                    };
                    if let Some(mut sm) = repair.take() {
                        // Torn image: this leaf is being re-read individually.
                        match sm.step(cx, meta, completion.take())? {
                            Step::Pending(token) => {
                                self.phase = RangePhase::BatchScan {
                                    addrs,
                                    bufs,
                                    idx,
                                    repair: Some(sm),
                                    route,
                                };
                                return Ok(Step::Pending(token));
                            }
                            Step::Done(fresh) => {
                                let leaf = layout.decode_leaf(&fresh);
                                if !take(self, cx, idx, &leaf) {
                                    continue;
                                }
                                idx += 1;
                            }
                        }
                    }
                    while idx < addrs.len() {
                        let buf = &bufs[idx];
                        if !cx.node_image_consistent(buf) {
                            // Re-read this leaf individually: re-enter the arm
                            // with no completion so the repair machine posts.
                            self.phase = RangePhase::BatchScan {
                                repair: Some(ReadNodeSM::new(cx, addrs[idx])),
                                addrs,
                                bufs,
                                idx,
                                route,
                            };
                            break;
                        }
                        let leaf = layout.decode_leaf(buf);
                        if !take(self, cx, idx, &leaf) {
                            // No scan CPU charged for an image not consumed.
                            break;
                        }
                        idx += 1;
                        cx.ctx.charge_scan(layout.node_size());
                    }
                }
                RangePhase::Seek => {
                    if self.results.len() >= self.count || self.exhausted {
                        self.phase = RangePhase::Finish;
                    } else if let Some(addr) = self.next.take() {
                        self.phase = RangePhase::ChainNext {
                            addr,
                            source: LeafSource::Sibling,
                        };
                    } else {
                        self.locate_frontier(cx, meta);
                    }
                }
                RangePhase::Locate(sm) => match sm.step(cx, meta, completion.take())? {
                    Step::Pending(token) => return Ok(Step::Pending(token)),
                    Step::Done(addr) => {
                        self.phase = RangePhase::ChainNext {
                            addr,
                            source: sm.leaf_source(),
                        };
                    }
                },
                RangePhase::ChainNext { addr, source } => {
                    if self.hops > cx.cluster.config().max_restarts {
                        self.phase = RangePhase::Finish;
                        continue;
                    }
                    self.hops += 1;
                    self.phase = RangePhase::Chain {
                        read: ReadNodeSM::new(cx, *addr),
                        source: *source,
                    };
                }
                RangePhase::Chain { read, source } => {
                    match read.step(cx, meta, completion.take())? {
                        Step::Pending(token) => return Ok(Step::Pending(token)),
                        Step::Done(buf) => {
                            let (addr, source) = (read.addr, *source);
                            let leaf = layout.decode_leaf(&buf);
                            if self.take_leaf(&leaf) {
                                self.phase = RangePhase::Seek;
                                continue;
                            }
                            // Not the leaf covering the frontier — tombstoned
                            // by a concurrent merge (its entries moved into a
                            // left neighbour), rebalanced, or named by a
                            // stale route: drop the route, then hop right or
                            // re-locate the frontier (bounded by `hops`).
                            let header = &leaf.header;
                            match next_after_mismatch(cx, self.frontier, addr, header, source) {
                                Some(sibling) => {
                                    self.phase = RangePhase::ChainNext {
                                        addr: sibling,
                                        source: LeafSource::Sibling,
                                    };
                                }
                                None => self.locate_frontier(cx, meta),
                            }
                        }
                    }
                }
                RangePhase::Finish => {
                    let mut results = std::mem::take(&mut self.results);
                    results.sort_unstable_by_key(|&(k, _)| k);
                    results.truncate(self.count);
                    return Ok(Step::Done(results));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The write path: insert, update and delete
// ----------------------------------------------------------------------

/// What a write does to its locked leaf — the one line in which insert,
/// update and delete differ (§4.2–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// Install `key → value`, overwriting in place or taking a vacant slot;
    /// a full leaf splits.
    Insert { value: u64 },
    /// Clear the key's slot; a leaf left underfull merges or rebalances.
    Delete,
}

/// The phase ladder of the write machine.  Location yields freely (it is the
/// same lock-free descent a lookup uses); the commit yields on its lock
/// acquisition, runs its body in one step, and yields on the deferred release.
enum WritePhase {
    /// Decide where to commit next (consume `pending`, consult the cache, or
    /// start a traversal).
    Restart,
    Locate(TraverseSM),
    /// A server-side traversal RPC is locating the commit leaf.  Only the
    /// lock-free location phase offloads — the lock critical section always
    /// runs client-side under the usual HOCL rules.
    Offload(OffloadSM),
    /// Head of the commit: the acquisition of the leaf lock (with the leaf
    /// READ riding it) is in progress — posted, re-posted after a lost race,
    /// or queued behind a sibling operation.  Its completion runs the body.
    Lock {
        source: LeafSource,
        acq: Acquisition,
    },
    /// The leaf did not cover the key and its release is in flight; the
    /// completion restarts the write at `pending`.
    Released,
    /// The leaf is committed and released; the tree is owed `Followup`,
    /// which runs on the step after [`OpStep::Exclusive`] was returned.
    Structural(Followup),
    /// The deferred final release verb is in flight; its completion finishes
    /// the operation (the memory effect already applied at post time).
    AwaitRelease,
}

/// A write as a resumable machine: locate the leaf → acquire its lock and
/// read it, parked → the locked commit ([`OpCx::leaf_commit`]) → park on the
/// deferred release.  A split's separator and a structural merge run to
/// completion in a step of their own, after [`OpStep::Exclusive`].  Finishes
/// with whether the key was present (always `true` for an insert).
pub(crate) struct WriteSM {
    key: u64,
    kind: WriteKind,
    /// Recorded at commit time: the machine may still park on the deferred
    /// release afterwards.
    found: bool,
    restarts: RestartBudget,
    pending: Option<(GlobalAddress, LeafSource)>,
    /// One-shot: a write offloads its location at most once (see
    /// [`offload_descent`]).
    offload_done: bool,
    phase: WritePhase,
}

impl WriteSM {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>, key: u64, kind: WriteKind) -> Self {
        WriteSM {
            key,
            kind,
            found: false,
            restarts: RestartBudget::new(cx),
            pending: None,
            offload_done: false,
            phase: WritePhase::Restart,
        }
    }

    /// The head of a commit on the leaf at `addr`.
    fn lock_phase<B: FabricBackend>(
        cx: &OpCx<'_, B>,
        addr: GlobalAddress,
        source: LeafSource,
    ) -> WritePhase {
        WritePhase::Lock {
            source,
            acq: cx.lock_and_read_start(addr),
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<OpStep<bool>> {
        loop {
            match &mut self.phase {
                WritePhase::Restart => {
                    let context = match self.kind {
                        WriteKind::Insert { .. } => "insert",
                        WriteKind::Delete => "delete",
                    };
                    self.restarts.begin(cx, context)?;
                    if let Some((addr, source)) = self.pending.take() {
                        self.phase = Self::lock_phase(cx, addr, source);
                        continue;
                    }
                    cx.drain_for_placement(self.offload_done);
                    self.phase = match locate_start(cx, meta, self.key) {
                        LocateStart::Cached(addr, source) => Self::lock_phase(cx, addr, source),
                        LocateStart::Traverse(sm) => {
                            match offload_descent(cx, self.key, &mut self.offload_done) {
                                Some(rpc) => WritePhase::Offload(rpc),
                                None => WritePhase::Locate(sm),
                            }
                        }
                    };
                }
                WritePhase::Locate(sm) => match sm.step(cx, meta, completion.take())? {
                    Step::Pending(token) => return Ok(OpStep::Pending(token)),
                    Step::Done(addr) => {
                        self.phase = Self::lock_phase(cx, addr, sm.leaf_source());
                    }
                },
                WritePhase::Offload(sm) => match sm.step(cx, completion.take())? {
                    Step::Pending(token) => return Ok(OpStep::Pending(token)),
                    Step::Done(OffloadOutcome::Leaf(reply)) => {
                        cx.cluster.offload_counters(cx.cs_id).record_win();
                        if reply.chase_sibling {
                            self.pending = reply.leaf.sibling.map(|s| (s, LeafSource::Sibling));
                            self.phase = WritePhase::Restart;
                        } else {
                            self.phase =
                                Self::lock_phase(cx, reply.leaf.addr, LeafSource::Traversal);
                        }
                    }
                    Step::Done(_) => {
                        cx.cluster.offload_counters(cx.cs_id).record_loss();
                        self.phase = WritePhase::Restart;
                    }
                },
                WritePhase::Lock { source, acq } => {
                    let mgr = cx.cluster.lock_manager();
                    let (outcome, image) = match mgr.step_acquire(cx.ctx, acq, completion.take())? {
                        AcquireStep::Pending(token) => return Ok(OpStep::Pending(token)),
                        AcquireStep::Done { outcome, image } => (outcome, image),
                        AcquireStep::Lost => unreachable!("a write waits for its leaf lock"),
                    };
                    let (addr, source) = (acq.node(), *source);
                    let buf = cx.lock_and_read_finish(addr, outcome, image, meta)?;
                    match cx.leaf_commit(addr, source, self.key, self.kind, &buf, meta)? {
                        WriteCommit::Committed { found, release } => {
                            let Some(token) = release else {
                                return Ok(OpStep::Done(found));
                            };
                            self.found = found;
                            self.phase = WritePhase::AwaitRelease;
                            return Ok(OpStep::Pending(token));
                        }
                        WriteCommit::Structural(followup) => {
                            self.phase = WritePhase::Structural(followup);
                            return Ok(OpStep::Exclusive);
                        }
                        WriteCommit::Retry { next, release } => {
                            self.pending = next;
                            self.phase = WritePhase::Restart;
                            if let Some(token) = release {
                                self.phase = WritePhase::Released;
                                return Ok(OpStep::Pending(token));
                            }
                        }
                    }
                }
                WritePhase::Released => {
                    completion = None;
                    self.phase = WritePhase::Restart;
                }
                WritePhase::Structural(_) => {
                    let WritePhase::Structural(followup) =
                        std::mem::replace(&mut self.phase, WritePhase::AwaitRelease)
                    else {
                        unreachable!("phase checked above");
                    };
                    cx.run_followup(followup, meta)?;
                    return Ok(OpStep::Done(true));
                }
                WritePhase::AwaitRelease => {
                    debug_assert!(
                        completion.take().is_some(),
                        "AwaitRelease resumes on the release completion"
                    );
                    return Ok(OpStep::Done(self.found));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The union the scheduler multiplexes
// ----------------------------------------------------------------------

/// One operation's state machine.
pub(crate) enum OpSM {
    Lookup(LookupSM),
    Range(RangeSM),
    Write(WriteSM),
}

/// One operation's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// Result of a lookup: the value, if the key was present.
    Lookup(Option<u64>),
    /// Result of a range scan: the collected `(key, value)` pairs.
    Range(Vec<(u64, u64)>),
    /// An insert (or update) committed.
    Insert,
    /// Result of a delete: whether the key was present.
    Delete(bool),
}

impl OpSM {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>, op: PipelineOp) -> Self {
        match op {
            PipelineOp::Lookup { key } => OpSM::Lookup(LookupSM::new(cx, key)),
            PipelineOp::Range { start_key, count } => OpSM::Range(RangeSM::new(start_key, count)),
            PipelineOp::Insert { key, value } => {
                OpSM::Write(WriteSM::new(cx, key, WriteKind::Insert { value }))
            }
            PipelineOp::Delete { key } => OpSM::Write(WriteSM::new(cx, key, WriteKind::Delete)),
        }
    }

    /// Whether the operation is inside a lock acquisition: it holds a lock,
    /// has an attempt on one in flight, or waits in a lock's local queue.
    pub(crate) fn acquiring(&self) -> bool {
        matches!(self, OpSM::Write(sm) if matches!(sm.phase, WritePhase::Lock { .. }))
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        completion: Option<Completion>,
    ) -> TreeResult<OpStep<OpOutput>> {
        Ok(match self {
            OpSM::Lookup(sm) => OpStep::from(sm.step(cx, meta, completion)?).map(OpOutput::Lookup),
            OpSM::Range(sm) => OpStep::from(sm.step(cx, meta, completion)?).map(OpOutput::Range),
            OpSM::Write(sm) => {
                let kind = sm.kind;
                sm.step(cx, meta, completion)?.map(|found| match kind {
                    WriteKind::Insert { .. } => OpOutput::Insert,
                    WriteKind::Delete => OpOutput::Delete(found),
                })
            }
        })
    }
}
