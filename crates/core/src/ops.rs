//! The tree operations, each an `async fn` over the shared context
//! ([`OpCx`], `crate::exec`):
//!
//! * [`read_node`] — the node-image consistency loop (read the node,
//!   validate the version pair, re-read a torn image),
//! * [`traverse`] — the root/cache-seeded descent to a target level,
//! * [`lookup`] — point lookup: locate the leaf, validate, chase siblings,
//! * [`range`] — range scan: the cached parallel leaf batch plus the
//!   sibling-chain walk with tombstone re-location,
//! * [`write`] — insert, update and delete, which differ only in what they
//!   do to the locked leaf ([`WriteKind`]): locate the leaf (like a lookup),
//!   acquire its lock with the leaf read riding it, run the body of the
//!   critical section, and wait for the deferred final release verb,
//! * [`offload`] — one server-side traversal RPC, validated against the
//!   local tombstone floor.
//!
//! An operation posts a verb and awaits it (`cx.wait(token).await`); the
//! driver decides what else runs meanwhile.  The operations are the *only*
//! implementation: the blocking `TreeClient` entry points drive them one
//! verb at a time (`Parking::block_on`), so a pipelined run at depth 1 and
//! the classic blocking path execute byte-for-byte the same verbs in the
//! same order.  The code a write runs under a lock — leaf write-back, split,
//! merge — is `crate::commit`.
//!
//! ## What a write may and may not wait for
//!
//! A write parks twice around its critical section: on the acquisition of
//! the leaf lock (the lock manager's `async fn` acquisition — a CAS+READ
//! round trip, a re-post after a lost race, a place in the local queue behind
//! a sibling operation; each a [`Park::Lock`](sherman_sim::Park::Lock)) and on the
//! final release verb, whose memory effect applied at post time.  In
//! between, the body — validate, pick the slot, post write-back + release —
//! does not yield: what it waits for (its CPU time, an uncombined read or
//! release) it waits for holding the client (`Parking::hold`), so no sibling
//! runs meanwhile.
//!
//! A commit that owes the tree more — the separator of a split, a merge —
//! goes on as a follow-up of the same operation (`crate::commit`), once the
//! leaf lock is released: its lock steps park as `Park::Lock` and its other
//! waits as `Park::Verb`, interleaved with its siblings like any operation's.
//! A separator insertion holds at most one lock while it waits, and a merge
//! waits for a lock only in the lock manager's rank order, so the local lock
//! queue the siblings share never closes a cycle.
//!
//! Rare control-path reads (the remote root pointer refresh on a distrusted
//! restart) hold the client too: they occur only after a lost race under
//! structural churn.

use crate::commit::Followup;
use crate::config::{LeafFormat, OffloadPolicy};
use crate::error::TreeError;
use crate::node::{InternalNode, LeafNode, NodeHeader, Step};
use crate::offload::{RpcLeafReply, RpcNodeInfo, RpcRangeReply, RpcRequest, RpcResponse};
use crate::scheduler::PipelineOp;
use crate::TreeResult;
use sherman_cache::{CachedInternal, ChildRef};
use sherman_memserver::ServerLayout;
use sherman_sim::{FabricBackend, GlobalAddress, PendingVerb};
use std::sync::Arc;

pub(crate) use crate::exec::OpCx;

/// How a walk came to an address: what a mismatch there drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Named by a cached image one level up without a node being read;
    /// holds the image's lower fence, the cache's key for it.
    Cached {
        /// Lower fence of the cached image.
        fence_low: u64,
    },
    /// Named by what the walk read: a parent, a left sibling, the root
    /// pointer or a server's reply.
    Read,
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

/// What the body of one leaf commit (from the locked image to the release
/// of the leaf lock, with no await in between) produced.
pub(crate) enum WriteCommit {
    /// The modification committed.  `found` reports whether the key was
    /// present (meaningful for deletes).  `release` carries the deferred
    /// final lock-release verb when the fast path posted it split-phase —
    /// the write waits for it last; `None` means the release was purely
    /// local (lock handover).
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
        next: Option<GlobalAddress>,
        release: Option<PendingVerb>,
    },
}

impl<B: FabricBackend> OpCx<'_, B> {
    pub(crate) fn leaf_format(&self) -> LeafFormat {
        self.cluster.options().leaf_format
    }

    /// Current root address and level, from the local hint or the remote
    /// superblock.
    pub(crate) async fn root(&self) -> TreeResult<(GlobalAddress, u8)> {
        if let Some(hint) = self.cluster.root_hint() {
            return Ok((hint.addr, hint.level));
        }
        Box::pin(self.root_remote()).await
    }

    /// Re-read the root pointer and level hint from the remote superblock,
    /// refreshing the local hint (used when a restart suggests the hint may be
    /// stale — e.g. after a racing root growth or root collapse).  Holds the
    /// client: restarts are rare and never on the pipelined hot path.
    pub(crate) async fn root_remote(&self) -> TreeResult<(GlobalAddress, u8)> {
        let packed = self.hold_word(self.cluster.root_ptr_addr()).await?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let level = self.hold_word(ServerLayout::level_hint_addr()).await? as u8;
        let addr = GlobalAddress::unpack(packed);
        self.cluster.set_root_hint(addr, level);
        Ok((addr, level))
    }

    /// `RDMA_READ` the 8-byte word at `addr`, holding the client.
    async fn hold_word(&self, addr: GlobalAddress) -> TreeResult<u64> {
        let token = self.ctx().post_read(addr, 8)?;
        let bytes = self.hold(token).await.result.into_read();
        Ok(u64::from_le_bytes(bytes.try_into().expect("an 8-byte read")))
    }

    /// Drain this compute server's coherence inbox and apply every message
    /// whose delivery time has been reached.  Called at operation
    /// boundaries — the blocking entry points and the pipelined scheduler's
    /// slot admission, the same points, which keeps depth-1 pipelining
    /// byte-for-byte identical to blocking.  Costs no virtual time.
    pub(crate) fn drain_coherence(&self) {
        let msgs = self.ctx().drain_coherence();
        self.apply_coherence(&msgs);
    }

    /// Apply drained coherence messages to this compute server's cache.
    pub(crate) fn apply_coherence(&self, msgs: &[sherman_sim::CoherenceMsg]) {
        if !msgs.is_empty() {
            let now = self.ctx().now();
            crate::coherence::apply(self.cluster, self.cs_id, now, msgs);
        }
    }

    /// Mid-operation drain, right before a cache consult that feeds an
    /// offload placement decision, so the decision — and the tombstone floor
    /// its reply is validated against — sees the freshest cache state.
    /// Nothing to do once the operation has offloaded, or under `Never`.
    fn drain_for_placement(&self, offload_done: bool) {
        if !offload_done && self.cluster.options().offload.may_offload() {
            self.drain_coherence();
        }
    }

    /// One step of a walk toward `key` at `level`, from the node at `addr`
    /// (header `header`) that `route` led to: [`NodeHeader::step`], and for
    /// any outcome but [`Step::Here`] the local self-heal every walk owes.
    /// The cached image that named the node is dropped, so the next attempt
    /// reads the level above instead of following it again.  Every cached
    /// route to a tombstone is scrubbed: the fabric-delivered `Invalidate`
    /// may still be in flight, and until it lands nothing else stops a stale
    /// route from being retried.  A cached route that led to a tombstone is
    /// a stale hit.
    pub(crate) fn step(
        &self,
        key: u64,
        level: u8,
        addr: GlobalAddress,
        header: &NodeHeader,
        route: Route,
    ) -> Step {
        let step = header.step(key, level);
        if step == Step::Here {
            return step;
        }
        let cache = self.cluster.cache(self.cs_id);
        if let Route::Cached { fence_low } = route {
            cache.invalidate_at(level + 1, fence_low);
            if header.free {
                self.cluster.coherence_counters().stale_hits.inc();
            }
        }
        if header.free {
            cache.invalidate_addr(addr);
        }
        step
    }
}

/// Build the cacheable image of a decoded internal node.
pub(crate) fn cached_from_internal(addr: GlobalAddress, node: &InternalNode) -> CachedInternal {
    let header = &node.header;
    CachedInternal::new(
        addr,
        header.level,
        header.front_version,
        header.fence_low,
        header.fence_high,
        header.leftmost.unwrap_or_else(GlobalAddress::null),
        node.entries.iter().map(|e| ChildRef {
            separator: e.key,
            child: e.child,
        }),
    )
}

/// The synchronous half of leaf location: either the index cache answered
/// immediately, or a traversal must run, seeded with the cache's answer.
enum LocateStart {
    Cached(GlobalAddress, Route),
    Traverse(Option<Arc<CachedInternal>>),
}

/// Begin locating the leaf that should hold `key` from the deepest cached
/// image covering it: a level-1 image names the leaf at once, a higher one
/// shortens the traversal to the uncached suffix of the path.
fn locate_start<B: FabricBackend>(cx: &OpCx<'_, B>, meta: &mut OpMeta, key: u64) -> LocateStart {
    match cx.cluster.cache(cx.cs_id).deepest(key, 1) {
        Some(cached) if cached.level == 1 => {
            meta.cache_hit = true;
            let fence_low = cached.fence_low;
            LocateStart::Cached(cached.child_for(key), Route::Cached { fence_low })
        }
        start => LocateStart::Traverse(start),
    }
}

/// Locate the leaf that should hold `key`: the cache's answer, or a
/// traversal below it.
async fn locate<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    key: u64,
) -> TreeResult<(GlobalAddress, Route)> {
    match locate_start(cx, meta, key) {
        LocateStart::Cached(addr, route) => Ok((addr, route)),
        LocateStart::Traverse(start) => traverse(cx, meta, key, 0, Some(start)).await,
    }
}

/// How many more times an operation may start over before it is reported as
/// failed — the ladder every restarting operation climbs the same way.
pub(crate) struct RestartBudget(u32);

impl RestartBudget {
    pub(crate) fn new<B: FabricBackend>(cx: &OpCx<'_, B>) -> Self {
        RestartBudget(cx.cluster.config().max_restarts)
    }

    /// Spend one attempt.  Every attempt after the first lost a race (root
    /// growth, a concurrent split or merge moving the key range) or followed
    /// a stale cached route, and is paced so the winner can finish.
    pub(crate) fn begin<B: FabricBackend>(
        &mut self,
        cx: &OpCx<'_, B>,
        context: &'static str,
    ) -> TreeResult<()> {
        let attempts = cx.cluster.config().max_restarts;
        if self.0 == 0 {
            return Err(TreeError::RetriesExhausted { context, attempts });
        }
        if self.0 < attempts {
            cx.ctx().contention_backoff(attempts - self.0);
        }
        self.0 -= 1;
        Ok(())
    }
}

/// One operation, whatever its kind, with the book-keeping it accumulated.
pub(crate) async fn run<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    op: PipelineOp,
) -> TreeResult<(OpOutput, OpMeta)> {
    let mut meta = OpMeta::default();
    let output = match op {
        PipelineOp::Lookup { key } => OpOutput::Lookup(lookup(cx, &mut meta, key).await?),
        PipelineOp::Range { start_key, count } => {
            OpOutput::Range(range(cx, &mut meta, start_key, count).await?)
        }
        PipelineOp::Insert { key, value } => {
            write(cx, &mut meta, key, WriteKind::Insert { value }).await?;
            OpOutput::Insert
        }
        PipelineOp::Delete { key } => {
            OpOutput::Delete(write(cx, &mut meta, key, WriteKind::Delete).await?)
        }
    };
    Ok((output, meta))
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

// ----------------------------------------------------------------------
// Server-side traversal offload
// ----------------------------------------------------------------------

/// The placement decision for a cache-missed descent toward `key`: where an
/// offloaded walk would start (below the deepest cached image covering the
/// key, or at the root) and how many dependent reads the local path would
/// need from there — the uncached suffix of the path, not the tree height.
/// Records the decision; returns `None` when the op should stay local.
async fn offload_decision<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    key: u64,
) -> Option<(GlobalAddress, u8)> {
    let policy = cx.cluster.options().offload;
    if !policy.may_offload() {
        return None;
    }
    let (root_addr, root_level) = cx.root().await.ok()?;
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

/// The traverse RPC a cache-missed point op posts, if the placement decision
/// picks it.  One-shot per operation (`done`), so a declined or stale RPC
/// can never loop back into another RPC.
async fn offload_descent<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    key: u64,
    done: &mut bool,
) -> Option<RpcRequest> {
    if *done {
        return None;
    }
    let (from_addr, remaining) = offload_decision(cx, key).await?;
    *done = true;
    Some(RpcRequest::TraverseStep {
        from_addr,
        key,
        // Headroom over the estimate: the walk may chase B-link siblings,
        // and the tree may have grown since the root hint was cached.
        max_levels: remaining.saturating_add(3).min(16),
    })
}

/// What an offloaded step resolved to.
enum OffloadOutcome {
    /// A validated leaf reply (traverse / leaf search).
    Leaf(RpcLeafReply),
    /// A validated range reply.
    Range(RpcRangeReply),
    /// Decline, unexpected payload, or a tombstone-floor rejection: the op
    /// falls back to its local one-sided path.
    Fallback,
}

/// Tombstone-floor admission for one server-returned node image.
fn admit<B: FabricBackend>(cx: &OpCx<'_, B>, info: &RpcNodeInfo) -> bool {
    let cache = cx.cluster.cache(cx.cs_id);
    if let Some(floor) = cache.tombstoned(info.addr) {
        if !CachedInternal::version_newer(info.version, floor) {
            cx.cluster.offload_counters(cx.cs_id).stale_rejects.inc();
            return false;
        }
    }
    true
}

/// Offer the cache the level-1 image a server's walk passed through, if
/// any, as a local traversal reading that node would have.
fn warm_level1<B: FabricBackend>(cx: &OpCx<'_, B>, level1: &mut Option<CachedInternal>) {
    if let Some(img) = level1.take() {
        cx.cluster.cache(cx.cs_id).insert_level1(img);
    }
}

/// One offloaded traversal step: post the RPC, with the interpreter
/// ([`crate::Cluster::serve_rpc`]) as its server-side work, wait, then
/// validate the reply against the local tombstone admission floor before
/// anyone trusts it.  The server's answer is a *hint* — a reply carrying a
/// node image at or below a recorded tombstone version is a freed/recycled
/// node and is rejected here, exactly the admission rule the index cache
/// applies to its own fills.  Validated level-1 images are offered to the
/// cache (the offer re-checks the floor internally).
async fn offload<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    req: RpcRequest,
) -> TreeResult<OffloadOutcome> {
    let (token, response) = cx.ctx().post_rpc(req.home_ms(), req.wire_bytes(), || {
        let response = cx.cluster.serve_rpc(&req);
        let served = response.served();
        (response, served)
    })?;
    let c = cx.wait(token).await;
    // Feed the observed round trip — queueing at the home server's wimpy
    // core included — back into the placement estimator.
    cx.cluster
        .offload_counters(cx.cs_id)
        .observe_rpc_ns(c.completed_at.saturating_sub(c.posted_at));
    Ok(match response {
        RpcResponse::Leaf(mut reply) => {
            if !admit(cx, &reply.leaf) {
                // Scrub any cached route to the rejected address too: the
                // server just proved something lives there that our floor
                // says is stale.
                cx.cluster.cache(cx.cs_id).invalidate_addr(reply.leaf.addr);
                OffloadOutcome::Fallback
            } else {
                warm_level1(cx, &mut reply.level1);
                OffloadOutcome::Leaf(reply)
            }
        }
        RpcResponse::Range(mut reply) => {
            // Every scanned leaf must pass the floor before any of the
            // collected entries are accepted.
            if reply.leaves.iter().any(|l| !admit(cx, l)) {
                OffloadOutcome::Fallback
            } else {
                warm_level1(cx, &mut reply.level1);
                OffloadOutcome::Range(reply)
            }
        }
        RpcResponse::Declined { .. } => {
            cx.cluster.offload_counters(cx.cs_id).declined.inc();
            OffloadOutcome::Fallback
        }
    })
}

// ----------------------------------------------------------------------
// Node reads and traversal
// ----------------------------------------------------------------------

/// The lock-free node-image read: `RDMA_READ` the node until an image passes
/// the node-level consistency check (the version pair), bounded by
/// `max_read_retries`.  The caller charges the CPU of what it reads of the
/// image: a lookup the slots its search examined (as a point write does of
/// the image its lock read, [`OpCx::leaf_commit`]), every other reader the
/// node.
pub(crate) async fn read_node<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    addr: GlobalAddress,
) -> TreeResult<Vec<u8>> {
    let node_size = cx.cluster.layout().node_size();
    let attempts = cx.cluster.config().max_read_retries;
    for attempt in 1..=attempts {
        let token = cx.ctx().post_read(addr, node_size)?;
        let c = cx.wait(token).await;
        if cx.cluster.options().offload.may_offload() {
            // Feed the adaptive placement policy's latency estimate from
            // real completions of the reads it is trying to replace.
            cx.cluster
                .offload_counters(cx.cs_id)
                .observe_read_ns(c.completed_at.saturating_sub(c.posted_at));
        }
        let buf = c.result.into_read();
        if cx.cluster.layout().node_versions_match(&buf) {
            return Ok(buf);
        }
        meta.read_retries += 1;
        let mut ctx = cx.ctx();
        ctx.note_retries(1);
        ctx.contention_backoff(attempt);
    }
    Err(TreeError::RetriesExhausted {
        context: "node-level consistency check",
        attempts,
    })
}

/// Walk down from the deepest cached image covering `key` (or the root) to
/// the node at `target_level` whose key interval contains `key`, offering
/// every internal node it reads to the index cache at the node's own level.
/// `looked_up` is the cache's answer when the caller already asked it (the
/// first attempt then does not ask again).
///
/// Returns the node's address and the route to it, for the caller's own
/// step there: [`Route::Cached`] when the walk ended without reading a node.
pub(crate) async fn traverse<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    key: u64,
    target_level: u8,
    mut looked_up: Option<Option<Arc<CachedInternal>>>,
) -> TreeResult<(GlobalAddress, Route)> {
    let mut restarts = RestartBudget::new(cx);
    // With structural deletes enabled, a restart may mean a cached route
    // went stale (a freed node or a collapsed root): after the first failed
    // attempt, re-read the root from the superblock and skip the cache.  In
    // grow-only mode (the paper's behaviour) neither can happen, so restarts
    // keep their shortcuts and cost profile.
    let distrust_shortcuts = cx.cluster.options().structural_deletes_enabled();
    let mut first_attempt = true;
    'attempt: loop {
        restarts.begin(cx, "tree traversal")?;
        let use_shortcuts = first_attempt || !distrust_shortcuts;
        first_attempt = false;
        let (root_addr, root_level) = match use_shortcuts {
            true => cx.root().await?,
            false => Box::pin(cx.root_remote()).await?,
        };
        let looked_up = looked_up.take();
        let start = if use_shortcuts {
            let cache = cx.cluster.cache(cx.cs_id);
            // Only an image above `target_level` can route this traversal.
            // Inside the pinned window the cache answers with its deepest
            // image, as the paper's always-cached set does: a target right
            // under the root finds that image too deep and walks from the
            // root pointer (the verbs `tests/ablation_matrix.rs` pins).
            let min_level = (target_level + 1).min(root_level.saturating_sub(1));
            let start = looked_up
                .unwrap_or_else(|| cache.deepest(key, min_level))
                .filter(|image| image.level > target_level);
            if start.is_some() {
                cache.stats().top_hits.inc();
            } else {
                cache.stats().top_misses.inc();
            }
            start
        } else {
            None
        };
        // A cached route is believed only once the node it names validates
        // (`OpCx::step`): a freshly read parent supersedes it.
        let (mut addr, mut expect_level, mut route) = match start {
            Some(image) => (
                image.child_for(key),
                image.level - 1,
                Route::Cached {
                    fence_low: image.fence_low,
                },
            ),
            None => (root_addr, root_level, Route::Read),
        };
        if expect_level < target_level {
            // The tree is shallower than the requested level; the caller
            // handles root growth.
            return Ok((root_addr, Route::Read));
        }
        while expect_level != target_level {
            let buf = read_node(cx, meta, addr).await?;
            cx.scan_cpu(buf.len()).await;
            let node = cx.cluster.layout().decode_internal(&buf);
            match cx.step(key, expect_level, addr, &node.header, route) {
                Step::Here => {}
                Step::Right(sibling) => {
                    (addr, route) = (sibling, Route::Read);
                    continue;
                }
                Step::Lost => continue 'attempt,
            }
            let cache = cx.cluster.cache(cx.cs_id);
            cache.offer(Arc::new(cached_from_internal(addr, &node)), root_level);
            (addr, route) = (node.child_for(key), Route::Read);
            expect_level -= 1;
        }
        return Ok((addr, route));
    }
}

// ----------------------------------------------------------------------
// Lookup
// ----------------------------------------------------------------------

/// Point lookup: locate the leaf → read it → validate (node- and
/// entry-level) / chase a sibling / retry.
async fn lookup<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    key: u64,
) -> TreeResult<Option<u64>> {
    let mut restarts = RestartBudget::new(cx);
    let mut pending: Option<GlobalAddress> = None;
    // One-shot: a lookup offloads at most once (see `offload_descent`).
    let mut offload_done = false;
    'restart: loop {
        restarts.begin(cx, "lookup")?;
        let (addr, route) = 'located: {
            if let Some(next) = pending.take() {
                break 'located (next, Route::Read);
            }
            cx.drain_for_placement(offload_done);
            // `fallback`: the cache-served leaf route an RPC replaced
            // (`Always` on a warm cache); on a decline the lookup resumes
            // there instead of re-locating.
            let (req, fallback) = match locate_start(cx, meta, key) {
                LocateStart::Cached(addr, route)
                    if !offload_done && cx.cluster.options().offload == OffloadPolicy::Always =>
                {
                    // `Always` trades even the warm single read for an RPC
                    // (its loss region — the regime the adaptive policy
                    // exists to avoid).
                    offload_done = true;
                    cx.cluster.offload_counters(cx.cs_id).record_decision(true);
                    (
                        RpcRequest::LeafSearch {
                            leaf_addr: addr,
                            key,
                        },
                        Some((addr, route)),
                    )
                }
                LocateStart::Cached(addr, route) => break 'located (addr, route),
                LocateStart::Traverse(start) => {
                    match offload_descent(cx, key, &mut offload_done).await {
                        Some(req) => (req, None),
                        None => break 'located traverse(cx, meta, key, 0, Some(start)).await?,
                    }
                }
            };
            let counters = cx.cluster.offload_counters(cx.cs_id);
            match offload(cx, req).await? {
                OffloadOutcome::Leaf(reply) if reply.chase_sibling => {
                    // The RPC still collapsed the descent; chase the B-link
                    // locally like any other reader.
                    counters.wins.inc();
                    pending = reply.leaf.sibling;
                    continue 'restart;
                }
                OffloadOutcome::Leaf(reply) if reply.entry_conflict => {
                    // Entry-granular write mid-flight on the server's image:
                    // re-read the leaf locally.
                    counters.losses.inc();
                    meta.read_retries += 1;
                    (reply.leaf.addr, Route::Read)
                }
                OffloadOutcome::Leaf(reply) => {
                    counters.wins.inc();
                    return Ok(reply.found);
                }
                _ => {
                    counters.losses.inc();
                    match fallback {
                        Some(route) => route,
                        None => continue 'restart,
                    }
                }
            }
        };
        let mut reads_left = cx.cluster.config().max_read_retries;
        loop {
            let buf = read_node(cx, meta, addr).await?;
            let layout = cx.cluster.layout();
            let leaf = layout.decode_leaf(&buf);
            let header = &leaf.header;
            let live = header.step(key, 0) == Step::Here;
            let search = live.then(|| leaf.search(key, cx.leaf_format()));
            // The CPU of what the lookup read: the header, the tags up to the
            // match and the keys behind matching tags.
            cx.scan_cpu(layout.leaf_search_bytes(&search.unwrap_or_default())).await;
            let Some(search) = search else {
                pending = cx.step(key, 0, addr, header, route).right();
                continue 'restart;
            };
            // A torn match (two-level versions only): read the leaf again.
            if !search.torn {
                return Ok(search.value());
            }
            meta.read_retries += 1;
            cx.ctx().note_retries(1);
            reads_left -= 1;
            if reads_left == 0 {
                // The entry-validation budget is spent: restart the whole
                // location attempt.
                continue 'restart;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Range scan
// ----------------------------------------------------------------------

/// What a range scan collected so far.
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
/// Nor is a leaf with a torn entry the scan needs: it is read again.
struct Scan {
    results: Vec<(u64, u64)>,
    /// Everything in `[start_key, frontier)` is collected.
    frontier: u64,
    /// Right sibling of the leaf that moved the frontier last; `None` before
    /// the first leaf and whenever the frontier must be re-located.
    next: Option<GlobalAddress>,
    /// The rightmost leaf was consumed.
    exhausted: bool,
}

impl Scan {
    /// Consume `leaf`, the live leaf covering the frontier, unless a present
    /// entry from the frontier up is torn (an entry-granular write in
    /// flight): collect those entries and advance to its upper fence.
    /// Returns whether it was consumed.
    fn take_leaf(&mut self, leaf: &LeafNode) -> bool {
        let Some(needed) = leaf.entries_from(self.frontier) else {
            return false;
        };
        let header = &leaf.header;
        self.results.extend(needed);
        self.frontier = header.fence_high;
        self.next = header.sibling;
        self.exhausted = header.sibling.is_none();
        true
    }

    /// Read the leaves `addrs` a cached level-1 image (lower fence `fence_low`)
    /// names with one parallel batch (§4.4) and consume them in order.  The
    /// batch is adjacent only as far as the child list is current: each leaf
    /// must cover the frontier its predecessor moved.  Anything else stops
    /// the batch (the sibling chain takes over from the last verified leaf)
    /// and drops the image ([`OpCx::step`]).  A torn image is re-read
    /// individually; a leaf with a torn entry stops the batch and is read
    /// again by the chain walk, the image kept.
    async fn batch<B: FabricBackend>(
        &mut self,
        cx: &OpCx<'_, B>,
        meta: &mut OpMeta,
        addrs: &[GlobalAddress],
        fence_low: u64,
    ) -> TreeResult<()> {
        let layout = cx.cluster.layout();
        let node_size = layout.node_size();
        let reqs: Vec<(GlobalAddress, usize)> = addrs.iter().map(|&a| (a, node_size)).collect();
        let token = cx.ctx().post_read_batch(&reqs)?;
        let bufs = cx.wait(token).await.result.into_read_batch();
        let route = Route::Cached { fence_low };
        for (&addr, buf) in addrs.iter().zip(&bufs) {
            let consistent = layout.node_versions_match(buf);
            let leaf = match consistent {
                true => layout.decode_leaf(buf),
                false => layout.decode_leaf(&read_node(cx, meta, addr).await?),
            };
            let here = cx.step(self.frontier, 0, addr, &leaf.header, route) == Step::Here;
            let taken = here && self.take_leaf(&leaf);
            if taken || !consistent {
                // A re-read leaf is charged whether consumed or not; an
                // image of the batch not consumed is charged nothing.
                cx.scan_cpu(node_size).await;
            }
            if !here {
                cx.cluster.cache(cx.cs_id).stats().scan_fallbacks.inc();
                return Ok(());
            }
            if !taken {
                meta.read_retries += 1;
                cx.ctx().note_retries(1);
                self.next = Some(addr);
                return Ok(());
            }
        }
        Ok(())
    }

    /// Adopt an offloaded walk (every returned leaf passed the tombstone
    /// floor) as far as its leaves are continuous from the frontier, exactly
    /// as if the chain walk had consumed those leaves itself.
    fn adopt<B: FabricBackend>(&mut self, cx: &OpCx<'_, B>, reply: &RpcRangeReply) {
        let mut frontier = Some(self.frontier);
        for info in &reply.leaves {
            frontier = frontier
                .filter(|&f| info.covers(f))
                .map(|_| info.fence_high);
        }
        let counters = cx.cluster.offload_counters(cx.cs_id);
        match frontier {
            Some(frontier) if !reply.leaves.is_empty() => {
                counters.wins.inc();
                self.results.extend(reply.entries.iter().copied());
                self.frontier = frontier;
                self.next = reply.next;
                self.exhausted = reply.next.is_none();
            }
            _ => counters.losses.inc(),
        }
    }
}

/// Range scan: `count` entries from the smallest key `>= start_key`.
///
/// Like the paper (and FG), the scan is not atomic with respect to concurrent
/// writers; each leaf is individually validated (see [`Scan`]).  Phase 1
/// uses the cached level-1 node to read several target leaves with one
/// parallel batch (§4.4), or offloads a cache-missed start; phase 2
/// continues along sibling pointers.  A leaf with a torn entry the scan
/// needs is read again, up to `max_read_retries` times, as a lookup re-reads
/// a torn match.  A leaf the walk reads but cannot consume — a mismatch it
/// hops past or re-locates from, or a leaf still torn after those re-reads —
/// spends one of `max_restarts`; running out fails the scan rather than
/// truncating it.
async fn range<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    start_key: u64,
    count: usize,
) -> TreeResult<Vec<(u64, u64)>> {
    let mut scan = Scan {
        results: Vec::with_capacity(count),
        frontier: start_key,
        next: None,
        exhausted: false,
    };
    cx.drain_for_placement(false);
    let layout = cx.cluster.layout();
    let per_leaf = (layout.leaf_capacity() as f64 * cx.cluster.config().leaf_fill) as usize;
    let wanted_leaves = count / per_leaf.max(1) + 1;
    let mut batched = false;
    if let Some(cached) = cx.cluster.cache(cx.cs_id).lookup_covering(start_key) {
        meta.cache_hit = true;
        let children = cached.children_in_range(start_key, u64::MAX);
        let addrs: Vec<GlobalAddress> = children.into_iter().take(wanted_leaves).collect();
        if !addrs.is_empty() {
            scan.batch(cx, meta, &addrs, cached.fence_low).await?;
            batched = true;
        }
    }
    if !batched {
        if let Some((from_addr, _)) = offload_decision(cx, start_key).await {
            let req = RpcRequest::LeafRange {
                from_addr,
                start_key,
                max_entries: (count.min(u32::MAX as usize) as u32).max(1),
                max_leaves: (wanted_leaves + 2).min(64) as u8,
            };
            match offload(cx, req).await? {
                OffloadOutcome::Range(reply) => scan.adopt(cx, &reply),
                _ => cx.cluster.offload_counters(cx.cs_id).losses.inc(),
            }
        }
    }
    let budget = cx.cluster.config().max_restarts;
    let rereads = cx.cluster.config().max_read_retries;
    let mut missed = 0;
    while scan.results.len() < count && !scan.exhausted {
        let (mut addr, mut route) = match scan.next.take() {
            Some(sibling) => (sibling, Route::Read),
            None => locate(cx, meta, scan.frontier).await?,
        };
        let mut reads_left = rereads;
        loop {
            let buf = read_node(cx, meta, addr).await?;
            cx.scan_cpu(buf.len()).await;
            let leaf = layout.decode_leaf(&buf);
            let step = cx.step(scan.frontier, 0, addr, &leaf.header, route);
            if step == Step::Here {
                if scan.take_leaf(&leaf) {
                    break;
                }
                if reads_left > 1 {
                    reads_left -= 1;
                    meta.read_retries += 1;
                    cx.ctx().note_retries(1);
                    continue;
                }
            }
            reads_left = rereads;
            // Not the leaf covering the frontier — tombstoned by a
            // concurrent merge (its entries moved into a left neighbour),
            // rebalanced, or named by a stale route, and the route dropped —
            // or a leaf still torn after its re-reads: hop right or
            // re-locate the frontier.
            missed += 1;
            if missed > budget {
                return Err(TreeError::RetriesExhausted {
                    context: "range scan",
                    attempts: budget,
                });
            }
            (addr, route) = match step.right() {
                Some(sibling) => (sibling, Route::Read),
                None => locate(cx, meta, scan.frontier).await?,
            };
        }
    }
    let mut results = scan.results;
    results.sort_unstable_by_key(|&(k, _)| k);
    results.truncate(count);
    Ok(results)
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

/// A write: locate the leaf (like a lookup; only this lock-free part
/// offloads) → acquire its lock and read it → the locked commit
/// ([`OpCx::leaf_commit`]) → wait for the deferred release, or run the
/// follow-up a split or a merge owes the tree.  Returns whether the key was
/// present (always `true` for an insert).
async fn write<B: FabricBackend>(
    cx: &OpCx<'_, B>,
    meta: &mut OpMeta,
    key: u64,
    kind: WriteKind,
) -> TreeResult<bool> {
    let context = match kind {
        WriteKind::Insert { .. } => "insert",
        WriteKind::Delete => "delete",
    };
    let mut restarts = RestartBudget::new(cx);
    let mut pending: Option<GlobalAddress> = None;
    // One-shot: a write offloads its location at most once.
    let mut offload_done = false;
    'restart: loop {
        restarts.begin(cx, context)?;
        let (addr, route) = 'located: {
            if let Some(next) = pending.take() {
                break 'located (next, Route::Read);
            }
            cx.drain_for_placement(offload_done);
            let start = match locate_start(cx, meta, key) {
                LocateStart::Cached(addr, route) => break 'located (addr, route),
                LocateStart::Traverse(start) => start,
            };
            let Some(req) = offload_descent(cx, key, &mut offload_done).await else {
                break 'located traverse(cx, meta, key, 0, Some(start)).await?;
            };
            let counters = cx.cluster.offload_counters(cx.cs_id);
            match offload(cx, req).await? {
                OffloadOutcome::Leaf(reply) => {
                    counters.wins.inc();
                    if !reply.chase_sibling {
                        break 'located (reply.leaf.addr, Route::Read);
                    }
                    pending = reply.leaf.sibling;
                }
                _ => counters.losses.inc(),
            }
            continue 'restart;
        };
        // The head of the commit: the leaf lock, its read riding it.
        let buf = cx.lock_and_read_head(addr, meta).await?;
        match cx.leaf_commit(addr, route, key, kind, &buf, meta).await? {
            WriteCommit::Committed { found, release } => {
                if let Some(token) = release {
                    cx.wait(token).await;
                }
                return Ok(found);
            }
            WriteCommit::Structural(followup) => {
                // Boxed: follow-ups are rare, and every operation's future
                // would otherwise be the size of the largest one.
                Box::pin(cx.run_followup(followup, meta)).await?;
                return Ok(true);
            }
            WriteCommit::Retry { next, release } => {
                pending = next;
                if let Some(token) = release {
                    cx.wait(token).await;
                }
            }
        }
    }
}
