//! Cluster bootstrap: fabric, memory pool, lock service, caches, bulkload.

use crate::client::TreeClient;
use crate::config::{LockStrategy, TreeConfig, TreeOptions};
use crate::error::TreeError;
use crate::layout::{NodeLayout, HEADER_BYTES};
use crate::node::{InternalNode, LeafEntry, NodeHeader};
use crate::TreeResult;
use parking_lot::{Mutex, RwLock};
use sherman_cache::{CachedInternal, ChildRef, IndexCache, IndexCacheConfig};
use sherman_locks::{
    GlobalLockKind, GlobalLockTable, HoclManager, NodeLockManager, RemoteLockManager,
};
use sherman_memserver::{EpochRegistry, FreeListStats, MemoryPool, ServerLayout};
use sherman_metrics::{
    CoherenceCounters, CoherenceGauges, EpochGauges, OffloadCounters, OffloadGauges,
    SpaceCounters, SpaceSnapshot,
};
use sherman_sim::{Fabric, FabricBackend, FabricConfig, GlobalAddress};
use std::sync::Arc;

/// Everything needed to stand up a simulated Sherman deployment.
#[derive(Debug, Clone, PartialEq)]
#[derive(Default)]
pub struct ClusterConfig {
    /// Shape and timing of the simulated fabric.
    pub fabric: FabricConfig,
    /// Tree geometry.
    pub tree: TreeConfig,
}


impl ClusterConfig {
    /// A tiny cluster for unit tests and doc examples.
    pub fn small() -> Self {
        ClusterConfig {
            fabric: FabricConfig::small_test(),
            tree: TreeConfig::small_test(),
        }
    }

    /// A cluster shaped like the paper's testbed, scaled to simulation size:
    /// every server is both a memory server and a compute server.
    pub fn paper_scaled(memory_servers: usize, compute_servers: usize) -> Self {
        ClusterConfig {
            fabric: FabricConfig {
                memory_servers,
                compute_servers,
                ..FabricConfig::default()
            },
            tree: TreeConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RootHint {
    pub addr: GlobalAddress,
    pub level: u8,
}

/// A running (simulated) Sherman deployment.
///
/// The `Cluster` owns the shared state — fabric, memory pool, lock service and
/// per-compute-server index caches — and hands out [`TreeClient`] handles, one
/// per client thread.
pub struct Cluster<B: FabricBackend = Fabric> {
    fabric: Arc<B>,
    pool: Arc<MemoryPool<B>>,
    lock_mgr: Arc<dyn NodeLockManager<B::Channel>>,
    config: TreeConfig,
    options: TreeOptions,
    layout: NodeLayout,
    caches: Vec<Arc<IndexCache>>,
    root_hint: RwLock<Option<RootHint>>,
    space: SpaceCounters,
    coherence: CoherenceCounters,
    offload: Vec<OffloadCounters>,
    /// Cache heals whose publish found no root hint (mid root-collapse):
    /// queued here instead of dropped, drained by the next publish that
    /// observes a hint (see `crate::coherence::publish`).
    pending_refreshes: Mutex<Vec<Arc<CachedInternal>>>,
}

impl<B: FabricBackend> std::fmt::Debug for Cluster<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("memory_servers", &self.fabric.memory_servers())
            .field("compute_servers", &self.fabric.compute_servers())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Build a cluster on the default virtual-time simulator backend.
    ///
    /// # Panics
    /// Panics on invalid configuration (the same fail-fast policy as
    /// [`Fabric::new`]).
    pub fn new(config: ClusterConfig, options: TreeOptions) -> Arc<Self> {
        Self::new_on(config, options)
    }
}

impl<B: FabricBackend> Cluster<B> {
    /// Build a cluster on backend `B` ([`Fabric`] for virtual time,
    /// [`sherman_sim::ThreadedFabric`] for real threads on a real clock).
    ///
    /// # Panics
    /// Panics on invalid configuration (the same fail-fast policy as
    /// [`Fabric::new`]).
    pub fn new_on(config: ClusterConfig, options: TreeOptions) -> Arc<Self> {
        config.tree.validate().expect("invalid tree configuration");
        let fabric = B::build(config.fabric.clone());
        let pool = MemoryPool::new(Arc::clone(&fabric), config.tree.chunk_bytes);
        let lock_mgr = Self::build_lock_manager(&pool, &config.fabric, &options);
        let layout = NodeLayout::new(&config.tree);
        let cache_cfg = IndexCacheConfig::new(config.tree.cache_bytes, config.tree.node_size);
        let caches = (0..config.fabric.compute_servers)
            .map(|_| Arc::new(IndexCache::new(cache_cfg)))
            .collect();
        let offload = (0..config.fabric.compute_servers)
            .map(|_| OffloadCounters::default())
            .collect();
        // The memory-side traversal interpreter is always registered —
        // whether it runs is a per-client placement decision
        // (`TreeOptions::offload`); under `Never` no index RPC is ever
        // posted, so registration alone changes nothing.
        fabric.set_rpc_handler(Arc::new(crate::offload::OffloadInterpreter::new(
            layout,
            options.leaf_format,
        )));
        Arc::new(Cluster {
            fabric,
            pool,
            lock_mgr,
            config: config.tree,
            options,
            layout,
            caches,
            root_hint: RwLock::new(None),
            space: SpaceCounters::new(),
            coherence: CoherenceCounters::default(),
            offload,
            pending_refreshes: Mutex::new(Vec::new()),
        })
    }

    fn build_lock_manager(
        pool: &Arc<MemoryPool<B>>,
        fabric_cfg: &FabricConfig,
        options: &TreeOptions,
    ) -> Arc<dyn NodeLockManager<B::Channel>> {
        match options.lock_strategy {
            LockStrategy::HostCasFaa => Arc::new(RemoteLockManager::new(GlobalLockTable::new_host(
                pool,
                GlobalLockKind::HostCasFaa,
            ))),
            LockStrategy::HostCasWrite => Arc::new(RemoteLockManager::new(
                GlobalLockTable::new_host(pool, GlobalLockKind::HostCasWrite),
            )),
            LockStrategy::OnChip => Arc::new(RemoteLockManager::new(GlobalLockTable::new_on_chip(
                pool,
            ))),
            LockStrategy::Hocl { .. } => Arc::new(HoclManager::new(
                GlobalLockTable::new_on_chip(pool),
                fabric_cfg.compute_servers,
                options.lock_strategy.hocl_options(),
            )),
        }
    }

    /// The fabric backend this deployment runs on.
    pub fn fabric(&self) -> &Arc<B> {
        &self.fabric
    }

    /// The cluster-wide memory pool.
    pub fn pool(&self) -> &Arc<MemoryPool<B>> {
        &self.pool
    }

    /// The exclusive-lock service.
    pub fn lock_manager(&self) -> &Arc<dyn NodeLockManager<B::Channel>> {
        &self.lock_mgr
    }

    /// Tree geometry.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Enabled techniques.
    pub fn options(&self) -> &TreeOptions {
        &self.options
    }

    /// Node layout helper.
    pub fn layout(&self) -> &NodeLayout {
        &self.layout
    }

    /// The index cache of compute server `cs`.
    pub fn cache(&self, cs: u16) -> &Arc<IndexCache> {
        &self.caches[cs as usize % self.caches.len()]
    }

    /// Re-budget **every** compute server's index cache to `capacity_bytes`
    /// at runtime.  Shrinking evicts each cache down to the new budget with
    /// the usual two-choice rule, the leaves of the cached paths first
    /// (tallied as pressure evictions); growing takes effect lazily as
    /// traversals refill.  This is the hook a memory-pressure controller (or
    /// the hostile-scenario harness) uses to squeeze the cache mid-run
    /// without restarting clients.
    pub fn set_cache_budget(&self, capacity_bytes: usize) {
        for cache in &self.caches {
            cache.set_capacity_bytes(capacity_bytes);
        }
    }

    /// Current locally-cached root hint, if the tree has been initialized.
    pub(crate) fn root_hint(&self) -> Option<RootHint> {
        *self.root_hint.read()
    }

    /// Update the locally-cached root hint.
    pub(crate) fn set_root_hint(&self, addr: GlobalAddress, level: u8) {
        *self.root_hint.write() = Some(RootHint { addr, level });
    }

    /// Address of the remote root-pointer slot.
    pub(crate) fn root_ptr_addr(&self) -> GlobalAddress {
        ServerLayout::root_ptr_addr()
    }

    /// Create a client handle for a thread running on compute server `cs`.
    pub fn client(self: &Arc<Self>, cs: u16) -> TreeClient<B> {
        TreeClient::new(Arc::clone(self), cs)
    }

    // ------------------------------------------------------------------
    // Structural deletes: counters, reclamation, census
    // ------------------------------------------------------------------

    /// Counters for structural-delete events (merges, rebalances, root
    /// collapses), shared by every client of this cluster.
    pub(crate) fn space_counters(&self) -> &SpaceCounters {
        &self.space
    }

    /// Snapshot of the structural-delete counters.
    pub fn space_stats(&self) -> SpaceSnapshot {
        self.space.snapshot()
    }

    /// Aggregated free-list counters (retired / reused / quarantined nodes,
    /// retire→reuse latency) across every memory server.
    pub fn reclaim_stats(&self) -> FreeListStats {
        self.pool.reclaim_stats()
    }

    /// The reader-epoch registry of this deployment.  Every [`TreeClient`]
    /// registers a reader; tests and external observers may register their
    /// own to hold a pin (e.g. to model a stalled reader).
    pub fn epoch_registry(&self) -> &Arc<EpochRegistry> {
        self.pool.epoch_registry()
    }

    /// Epoch-reclamation gauges: global epoch, lag of the oldest pinned
    /// reader, and the quarantined addresses that pin is blocking.
    pub fn epoch_stats(&self) -> EpochGauges {
        self.pool.epoch_gauges()
    }

    /// Node addresses currently allocated to the tree (carved + reissued −
    /// retired).  Compare against [`Cluster::node_census`] for a
    /// space-amplification figure.
    pub fn nodes_outstanding(&self) -> u64 {
        self.pool.nodes_outstanding()
    }

    // ------------------------------------------------------------------
    // Cache coherence (see `crate::coherence` for the protocol)
    // ------------------------------------------------------------------

    /// Number of compute servers (= per-CS index caches and coherence
    /// inboxes) in this deployment.
    pub(crate) fn compute_servers(&self) -> usize {
        self.caches.len()
    }

    /// Shared counters behind [`Cluster::coherence_stats`], bumped by the
    /// publish (post) and drain (apply) paths.
    pub(crate) fn coherence_counters(&self) -> &CoherenceCounters {
        &self.coherence
    }

    /// Snapshot of the coherence channel's gauges: messages posted/applied,
    /// post→apply lag in virtual ns, and stale hits served while messages
    /// were in flight.
    pub fn coherence_stats(&self) -> CoherenceGauges {
        self.coherence.snapshot()
    }

    /// The offload decision/outcome counters of compute server `cs` (wraps
    /// around like [`Cluster::cache`]).
    pub(crate) fn offload_counters(&self, cs: u16) -> &OffloadCounters {
        &self.offload[cs as usize % self.offload.len()]
    }

    /// Snapshot of the server-side traversal-offload gauges, merged across
    /// every compute server: placement decisions, win/loss outcomes,
    /// interpreter declines, tombstone-floor rejections, and the
    /// dependent-read latency EWMA the adaptive policy thresholds against.
    pub fn offload_stats(&self) -> OffloadGauges {
        let mut merged = OffloadGauges::default();
        for counters in &self.offload {
            merged.merge(&counters.snapshot());
        }
        merged
    }

    /// Take every cache heal queued while the root hint was unavailable.
    pub(crate) fn take_pending_refreshes(&self) -> Vec<Arc<CachedInternal>> {
        std::mem::take(&mut *self.pending_refreshes.lock())
    }

    /// Queue a cache heal that could not publish (no root hint to place the
    /// pinned window, mid root-collapse); the next publish retries it.
    pub(crate) fn queue_pending_refresh(&self, node: Arc<CachedInternal>) {
        self.pending_refreshes.lock().push(node);
    }

    /// Count the nodes reachable from the current root by walking each level's
    /// B-link sibling chain (god-mode reads, no simulated time charged).
    ///
    /// The walk is only meaningful on a quiesced tree; concurrent structural
    /// changes may be double-counted or missed.
    pub fn node_census(&self) -> TreeResult<NodeCensus> {
        let mut census = NodeCensus::default();
        let Some(hint) = self.root_hint() else {
            return Ok(census);
        };
        let node_size = self.layout.node_size();
        let mut level_head = hint.addr;
        loop {
            // Walk this level's sibling chain.
            let mut cursor = Some(level_head);
            let mut first_child = None;
            let mut buf = vec![0u8; node_size];
            while let Some(addr) = cursor {
                self.fabric.god_read(addr, &mut buf)?;
                let header = self.layout.decode_header(&buf);
                if header.free {
                    break;
                }
                if header.is_leaf {
                    census.leaves += 1;
                } else {
                    census.internals += 1;
                    if first_child.is_none() {
                        first_child = self.layout.decode_internal(&buf).header.leftmost;
                    }
                }
                cursor = header.sibling;
            }
            match first_child {
                Some(child) => level_head = child,
                None => break,
            }
        }
        Ok(census)
    }

    /// Audit the balance *shape* of a quiesced tree (god-mode reads, no
    /// simulated time charged): for every parent, check each child's
    /// occupancy against the merge floor and report the children that are
    /// underfull **even though a same-parent partner could fix them** — a
    /// merge that fits in one node, or a sibling with spare entries above
    /// the floor to rebalance from.
    ///
    /// A direction-complete merge engine leaves both `fixable` counts at
    /// zero after any quiesced workload: an underfull child with a right
    /// sibling under the same parent absorbs it, a rightmost child folds
    /// into its left sibling, and redistribution covers the pairs that do
    /// not fit.  Children without a viable partner (an only child, or a
    /// neighbour already at the floor with nothing to spare when the pair
    /// does not fit) are excluded — no local operation could help them.
    pub fn shape_audit(&self) -> TreeResult<ShapeAudit> {
        self.shape_audit_sampled(usize::MAX, 0)
    }

    /// Per-level **sampled** variant of [`Cluster::shape_audit`]: on every
    /// level, skip the first `skip` parents of the sibling chain, audit the
    /// children of at most `max_parents_per_level` parents, then stop walking
    /// the level.  Rotating `skip` across successive calls covers the whole
    /// chain incrementally, which is what lets a running churn workload
    /// report shape health continuously instead of paying a full god-mode
    /// walk at quiesce (`shape_audit()` is this with an unbounded sample).
    ///
    /// Unlike the full audit, the sampled walk tolerates concurrent writers:
    /// a node image that fails the node-level consistency check (a write was
    /// in flight) ends the level's walk early rather than being decoded, so
    /// mid-run samples are a conservative, advisory signal — gate on the
    /// quiesced full audit, trend on the samples.
    pub fn shape_audit_sampled(
        &self,
        max_parents_per_level: usize,
        skip: usize,
    ) -> TreeResult<ShapeAudit> {
        let mut audit = ShapeAudit::default();
        let Some(hint) = self.root_hint() else {
            return Ok(audit);
        };
        if hint.level == 0 || max_parents_per_level == 0 {
            return Ok(audit);
        }
        let node_size = self.layout.node_size();
        let leaf_cap = self.layout.leaf_capacity();
        let internal_cap = self.layout.internal_capacity();
        let leaf_floor = (leaf_cap as f64 * self.options.merge_threshold).floor() as usize;
        let internal_floor =
            (internal_cap as f64 * self.options.merge_threshold).floor() as usize;

        let mut level_head = hint.addr;
        loop {
            let mut cursor = Some(level_head);
            let mut first_child = None;
            let mut position = 0usize;
            let mut audited = 0usize;
            let mut buf = vec![0u8; node_size];
            let mut child_buf = vec![0u8; node_size];
            while let Some(addr) = cursor {
                self.fabric.god_read(addr, &mut buf)?;
                if !self.node_image_ok(&buf) {
                    // A concurrent write is mid-flight: end this level's walk
                    // rather than decode a torn image.
                    break;
                }
                let header = self.layout.decode_header(&buf);
                if header.free || header.is_leaf {
                    break;
                }
                let parent = self.layout.decode_internal(&buf);
                if first_child.is_none() {
                    first_child = parent.header.leftmost;
                }
                let sampled = position >= skip && audited < max_parents_per_level;
                position += 1;
                if !sampled {
                    // Once past the sample window (and with the next level's
                    // head in hand), the rest of the chain adds nothing.
                    if audited >= max_parents_per_level && first_child.is_some() {
                        break;
                    }
                    cursor = header.sibling;
                    continue;
                }
                audited += 1;
                audit.parents += 1;

                // Occupancy of every child under this parent, in key order.
                let children = parent.children();
                let mut occupancy = Vec::with_capacity(children.len());
                let mut torn_child = false;
                for child in &children {
                    self.fabric.god_read(*child, &mut child_buf)?;
                    if !self.node_image_ok(&child_buf) {
                        torn_child = true;
                        break;
                    }
                    let ch = self.layout.decode_header(&child_buf);
                    let occ = if ch.is_leaf {
                        self.layout.decode_leaf(&child_buf).live_count()
                    } else {
                        self.layout.decode_internal(&child_buf).entries.len()
                    };
                    occupancy.push(occ);
                }
                if torn_child {
                    // Skip this parent's verdict; its children are in motion.
                    cursor = header.sibling;
                    continue;
                }
                let children_are_leaves = header.level == 1;
                let (floor, cap) = if children_are_leaves {
                    (leaf_floor, leaf_cap)
                } else {
                    (internal_floor, internal_cap)
                };
                // A `(a, b)` sibling pair is a viable fix for an underfull
                // node when the pair merges into one node or the partner can
                // donate without dropping below the floor itself.
                let fix = |underfull: usize, partner: usize| {
                    let merge_fits = if children_are_leaves {
                        underfull + partner <= cap
                    } else {
                        underfull + 1 + partner <= cap
                    };
                    merge_fits || partner > floor
                };
                for (i, &occ) in occupancy.iter().enumerate() {
                    if occ >= floor {
                        continue;
                    }
                    let fixable = (i > 0 && fix(occ, occupancy[i - 1]))
                        || (i + 1 < occupancy.len() && fix(occ, occupancy[i + 1]));
                    if children_are_leaves {
                        audit.underfull_leaves += 1;
                    } else {
                        audit.underfull_internals += 1;
                        if fixable {
                            audit.underfull_internals_fixable += 1;
                        }
                    }
                    if i + 1 == occupancy.len() && fixable {
                        audit.underfull_rightmost_fixable += 1;
                    }
                }
                cursor = header.sibling;
            }
            match first_child {
                Some(child) => level_head = child,
                None => break,
            }
        }
        Ok(audit)
    }

    /// Node-level consistency check on a node image: version pair, or
    /// checksum for the FG baseline layout.  The read path's state machines
    /// and the shape audit share this single dispatch.
    pub(crate) fn node_image_ok(&self, buf: &[u8]) -> bool {
        match self.options.leaf_format {
            crate::config::LeafFormat::SortedChecksum => self.layout.checksum_matches(buf),
            _ => self.layout.node_versions_match(buf),
        }
    }
}

/// Reachable-node counts produced by [`Cluster::node_census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCensus {
    /// Reachable leaf nodes.
    pub leaves: u64,
    /// Reachable internal nodes.
    pub internals: u64,
}

impl NodeCensus {
    /// Total reachable nodes.
    pub fn total(&self) -> u64 {
        self.leaves + self.internals
    }
}

/// Balance-shape counts produced by [`Cluster::shape_audit`].
///
/// The `*_fixable` fields are the acceptance criteria of direction-complete
/// merging: both stay zero on a quiesced tree, because every underfull child
/// with a viable same-parent partner is merged or rebalanced at delete time
/// regardless of which side the partner is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeAudit {
    /// Internal nodes visited (each is some child's parent).
    pub parents: u64,
    /// Rightmost children (of any level) below the merge floor whose left
    /// sibling could absorb or refill them — the shape leak a right-only
    /// merge engine accumulates.
    pub underfull_rightmost_fixable: u64,
    /// Underfull internal nodes (any position) with a viable same-parent
    /// partner — zero means internal occupancy stays above the threshold
    /// wherever a rebalance partner exists.
    pub underfull_internals_fixable: u64,
    /// All leaves below the merge floor (informational; an underfull leaf
    /// without a viable partner is legitimate).
    pub underfull_leaves: u64,
    /// All internal nodes below the merge floor (informational).
    pub underfull_internals: u64,
}

/// Writes the leaf level of a bulkload from ascending pairs as they arrive,
/// one leaf behind its input (a leaf's upper fence and sibling pointer are its
/// successor's first key and address).
///
/// Nothing but the leaf being filled is held: staging the input — in one
/// block or in a vector per leaf — is not free of after-effects in a process
/// that lives on.  Freeing one 13 MB block raises glibc's mmap threshold to
/// its size, and from then on the process's other multi-megabyte vectors live
/// in arena heaps, grow by copying and leave their old copies resident;
/// freeing a hundred thousand small blocks leaves their 15 MB in the heap.
struct LeafWriter<'a, B: FabricBackend> {
    cluster: &'a Cluster<B>,
    alloc: BulkAllocator<'a, B>,
    per_leaf: usize,
    /// Address of every leaf begun so far; kept across [`Self::take_back`].
    addrs: Vec<GlobalAddress>,
    written: Vec<BuiltChild>,
    /// Entries of the leaf at `addrs[written.len()]`.
    filling: Vec<(u64, u64)>,
    /// The node image every leaf is encoded into, in place.
    image: Vec<u8>,
}

impl<'a, B: FabricBackend> LeafWriter<'a, B> {
    fn addr_of(&mut self, leaf: usize) -> TreeResult<GlobalAddress> {
        while self.addrs.len() <= leaf {
            self.addrs.push(self.alloc.alloc()?);
        }
        Ok(self.addrs[leaf])
    }

    /// Append the next pair (its key above every key pushed before).
    fn push(&mut self, pair: (u64, u64)) -> TreeResult<()> {
        if self.filling.len() == self.per_leaf {
            let sibling = self.addr_of(self.written.len() + 1)?;
            self.write_leaf(pair.0, Some(sibling))?;
        }
        self.filling.push(pair);
        Ok(())
    }

    fn write_leaf(&mut self, fence_high: u64, sibling: Option<GlobalAddress>) -> TreeResult<()> {
        let cluster = self.cluster;
        let addr = self.addr_of(self.written.len())?;
        let fence_low = match self.written.is_empty() {
            true => 0,
            false => self.filling[0].0,
        };
        let layout = &cluster.layout;
        let mut header = NodeHeader::new(true, 0, fence_low, fence_high);
        header.sibling = sibling;
        header.count = self.filling.len();
        self.image.fill(0);
        layout.encode_header(&mut self.image, &header);
        let slots = self.image[HEADER_BYTES..].chunks_exact_mut(layout.leaf_entry_bytes());
        for (slot, &(k, v)) in slots.zip(&self.filling) {
            let mut entry = LeafEntry::empty();
            entry.install(k, v);
            layout.encode_leaf_entry_into(slot, &entry);
        }
        if cluster.options.leaf_format == crate::config::LeafFormat::SortedChecksum {
            layout.stamp_checksum(&mut self.image);
        }
        cluster.fabric.god_write(addr, &self.image)?;
        self.written.push(BuiltChild {
            addr,
            fence_low,
            fence_high,
        });
        self.filling.clear();
        Ok(())
    }

    /// The input turned out not to be ascending: hand back every pair pushed
    /// so far (reading the written leaves back) and start over on the same
    /// addresses.
    fn take_back(&mut self) -> TreeResult<Vec<(u64, u64)>> {
        let layout = &self.cluster.layout;
        let mut pairs = Vec::new();
        let mut image = vec![0u8; layout.node_size()];
        for leaf in self.written.drain(..) {
            self.cluster.fabric.god_read(leaf.addr, &mut image)?;
            let entries = layout.decode_leaf(&image).entries;
            pairs.extend(
                entries
                    .iter()
                    .filter(|e| e.present)
                    .map(|e| (e.key, e.value)),
            );
        }
        pairs.append(&mut self.filling);
        Ok(pairs)
    }

    /// Write the last leaf (an empty one if nothing was pushed) and return
    /// the level with the allocator.
    fn finish(mut self) -> TreeResult<(Vec<BuiltChild>, BulkAllocator<'a, B>)> {
        self.write_leaf(u64::MAX, None)?;
        Ok((self.written, self.alloc))
    }
}

impl<B: FabricBackend> Cluster<B> {
    // ------------------------------------------------------------------
    // Bulkload
    // ------------------------------------------------------------------

    /// Bulk-load the tree with `pairs` (they are sorted and de-duplicated
    /// internally), writing nodes directly into the memory servers without
    /// charging simulated time, then warm the compute-server caches.
    ///
    /// This mirrors the paper's setup phase: "we bulkload the tree with
    /// 1 billion entries 80 % full, then perform specified workloads".
    pub fn bulkload(&self, pairs: impl IntoIterator<Item = (u64, u64)>) -> TreeResult<()> {
        // ---- Level 0: leaves ----
        let leaf_cap = self.layout.leaf_capacity();
        let per_leaf = ((leaf_cap as f64 * self.config.leaf_fill).floor() as usize)
            .clamp(1, leaf_cap);
        let mut leaves = LeafWriter {
            cluster: self,
            alloc: BulkAllocator::new(&self.pool, self.config.node_size as u64),
            per_leaf,
            addrs: Vec::new(),
            written: Vec::new(),
            filling: Vec::with_capacity(per_leaf),
            image: vec![0u8; self.config.node_size],
        };
        let mut pairs = pairs.into_iter();
        let mut last_key = None;
        while let Some((key, value)) = pairs.next() {
            if last_key.is_some_and(|last| key <= last) {
                let mut staged = leaves.take_back()?;
                staged.push((key, value));
                staged.extend(pairs);
                staged.sort_by_key(|&(k, _)| k);
                staged.dedup_by_key(|&mut (k, _)| k);
                for pair in staged {
                    leaves.push(pair)?;
                }
                break;
            }
            last_key = Some(key);
            leaves.push((key, value))?;
        }
        let (mut level_nodes, mut alloc) = leaves.finish()?;

        // ---- Internal levels ----
        let internal_cap = self.layout.internal_capacity();
        let per_internal = ((internal_cap as f64 * self.config.leaf_fill).floor() as usize)
            .clamp(2, internal_cap);
        let mut all_internals: Vec<BuiltNode> = Vec::new();
        let mut level: u8 = 0;
        while level_nodes.len() > 1 {
            level += 1;
            let child_groups: Vec<&[BuiltChild]> =
                level_nodes.chunks(per_internal.max(2)).collect();
            let addrs: Vec<GlobalAddress> = (0..child_groups.len())
                .map(|_| alloc.alloc())
                .collect::<Result<_, _>>()?;
            let mut next_level = Vec::with_capacity(child_groups.len());
            for (i, group) in child_groups.iter().enumerate() {
                let fence_low = group[0].fence_low;
                let fence_high = group.last().unwrap().fence_high;
                let mut node = InternalNode::new(level, fence_low, fence_high, group[0].addr);
                for child in &group[1..] {
                    node.insert_separator(child.fence_low, child.addr);
                }
                node.header.sibling = addrs.get(i + 1).copied();
                let mut bytes = self.layout.encode_internal(&node);
                if self.options.leaf_format == crate::config::LeafFormat::SortedChecksum {
                    self.layout.stamp_checksum(&mut bytes);
                }
                self.fabric.god_write(addrs[i], &bytes)?;
                next_level.push(BuiltChild {
                    addr: addrs[i],
                    fence_low,
                    fence_high,
                });
                all_internals.push(BuiltNode {
                    addr: addrs[i],
                    fence_low,
                    fence_high,
                    level,
                    separators: group[1..]
                        .iter()
                        .map(|c| (c.fence_low, c.addr))
                        .collect(),
                    leftmost: group[0].addr,
                });
            }
            level_nodes = next_level;
        }

        let root = level_nodes[0].addr;
        self.fabric
            .god_write_u64(self.root_ptr_addr(), root.pack())?;
        self.fabric
            .god_write_u64(ServerLayout::level_hint_addr(), level as u64)?;
        self.set_root_hint(root, level);

        self.warm_caches(&all_internals, level);
        Ok(())
    }

    /// Populate every compute server's index cache from the bulkloaded
    /// internal nodes, spending the budget top-down: the top two levels are
    /// pinned, then each level below is admitted in key order until the
    /// budget is full.  When level 1 fits, that is every internal node.
    fn warm_caches(&self, internals: &[BuiltNode], root_level: u8) {
        let budget = self
            .caches
            .first()
            .map_or(0, |cache| cache.config().max_entries());
        // Highest level first; the stable sort keeps key order within one.
        let mut nodes: Vec<&BuiltNode> = internals.iter().collect();
        nodes.sort_by_key(|n| std::cmp::Reverse(n.level));
        let pinned = nodes
            .iter()
            .take_while(|n| n.level + 1 >= root_level.max(1))
            .count();
        // One shared image per node: every compute server's cache holds the
        // same `Arc`, not a per-server deep clone.
        let images: Vec<Arc<CachedInternal>> = nodes
            .into_iter()
            .take(pinned + budget)
            .map(|n| {
                Arc::new(CachedInternal {
                    addr: n.addr,
                    fence_low: n.fence_low,
                    fence_high: n.fence_high,
                    level: n.level,
                    // Bulkloaded images are written at the version-pair seed.
                    version: 1,
                    leftmost: n.leftmost,
                    children: n
                        .separators
                        .iter()
                        .map(|&(k, a)| ChildRef {
                            separator: k,
                            child: a,
                        })
                        .collect(),
                })
            })
            .collect();
        for cache in &self.caches {
            cache.set_top_levels(images[..pinned].to_vec());
            for node in &images[pinned..] {
                cache.offer(Arc::clone(node), root_level);
            }
        }
    }
}

/// What a bulkloaded node's parent needs to know of it.
struct BuiltChild {
    addr: GlobalAddress,
    fence_low: u64,
    fence_high: u64,
}

/// A bulkloaded internal node, kept to warm the caches from.
struct BuiltNode {
    addr: GlobalAddress,
    fence_low: u64,
    fence_high: u64,
    level: u8,
    separators: Vec<(u64, GlobalAddress)>,
    leftmost: GlobalAddress,
}

/// Minimal bump allocator over untimed pool chunks, used only by bulkload.
struct BulkAllocator<'a, B: FabricBackend> {
    pool: &'a Arc<MemoryPool<B>>,
    node_bytes: u64,
    next_ms: u16,
    current: Option<(GlobalAddress, u64)>,
}

impl<'a, B: FabricBackend> BulkAllocator<'a, B> {
    fn new(pool: &'a Arc<MemoryPool<B>>, node_bytes: u64) -> Self {
        BulkAllocator {
            pool,
            node_bytes,
            next_ms: 0,
            current: None,
        }
    }

    fn alloc(&mut self) -> Result<GlobalAddress, TreeError> {
        if let Some((base, used)) = &mut self.current {
            if *used + self.node_bytes <= self.pool.chunk_bytes() {
                let addr = base.add(*used);
                *used += self.node_bytes;
                self.pool.note_node_carved();
                return Ok(addr);
            }
        }
        let servers = self.pool.servers() as u16;
        let mut last_err: Option<TreeError> = None;
        for _ in 0..servers {
            let ms = self.next_ms;
            self.next_ms = (self.next_ms + 1) % servers;
            match self.pool.alloc_chunk_untimed(ms) {
                Ok(base) => {
                    self.current = Some((base, self.node_bytes));
                    self.pool.note_node_carved();
                    return Ok(base);
                }
                Err(e) => last_err = Some(e.into()),
            }
        }
        Err(last_err.unwrap_or_else(|| TreeError::Allocation("no memory servers".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_bootstrap_and_empty_bulkload() {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        assert!(cluster.root_hint().is_none());
        cluster.bulkload(std::iter::empty()).unwrap();
        let hint = cluster.root_hint().unwrap();
        assert_eq!(hint.level, 0, "empty tree's root is a single leaf");
        // The remote root pointer matches the hint.
        let packed = cluster
            .fabric()
            .god_read_u64(cluster.root_ptr_addr())
            .unwrap();
        assert_eq!(GlobalAddress::unpack(packed), hint.addr);
    }

    #[test]
    fn bulkload_sorts_and_deduplicates_what_does_not_arrive_ascending() {
        let ascending: Vec<(u64, u64)> = (0..403u64).map(|k| (k * 3, k)).collect();
        // Out of order from the first pair, from the middle of a leaf, from
        // the last pair on, and only after many leaves were written; a
        // repeated key counts as out of order.
        let mut reversed = ascending.clone();
        reversed.reverse();
        let mut early = ascending.clone();
        early.swap(5, 6);
        let mut late = ascending.clone();
        late.swap(357, 358);
        let mut tail = ascending.clone();
        tail.push((5 * 3, 5));
        let mut loaded = Vec::new();
        for input in [Vec::new(), ascending.clone(), reversed, early, late, tail] {
            let expect = match input.is_empty() {
                true => Vec::new(),
                false => ascending.clone(),
            };
            let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
            cluster.bulkload(input).unwrap();
            let (scan, _) = cluster.client(0).range(0, 1_000).unwrap();
            assert_eq!(scan, expect);
            // Starting over reuses the addresses it had taken: nothing leaks,
            // and the tree is the one ascending input builds.
            let census = cluster.node_census().unwrap();
            assert_eq!(cluster.nodes_outstanding(), census.total());
            loaded.push(census);
        }
        assert!(loaded[1..].iter().all(|census| *census == loaded[1]));
    }

    #[test]
    fn bulkload_builds_multiple_levels_and_warms_caches() {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..2_000u64).map(|k| (k, k + 1))).unwrap();
        let hint = cluster.root_hint().unwrap();
        assert!(hint.level >= 2, "2000 keys in 256-byte nodes need >= 3 levels");
        // Caches are warm: the top window is pinned and level-1 lookups hit.
        let cache = cluster.cache(0);
        assert!(cache.top_len() > 0);
        assert!(cache.lookup_leaf(1_000).is_some());
    }

    #[test]
    fn bulkload_spreads_nodes_across_memory_servers() {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..5_000u64).map(|k| (k, k))).unwrap();
        let remaining = cluster.pool().remaining_chunks();
        // Both memory servers contributed chunks.
        let total: Vec<u64> = remaining.clone();
        assert_eq!(total.len(), 2);
        let cfg = cluster.fabric().config();
        let full = (cfg.host_bytes_per_ms as u64 - 4096) / cluster.config().chunk_bytes;
        assert!(remaining.iter().all(|&r| r < full));
    }

    #[test]
    fn node_census_matches_allocation_accounting() {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        assert_eq!(cluster.node_census().unwrap().total(), 0, "no root yet");
        cluster.bulkload((0..2_000u64).map(|k| (k, k))).unwrap();
        let census = cluster.node_census().unwrap();
        assert!(census.leaves > 10, "2000 keys need many 256-byte leaves");
        assert!(census.internals > 0);
        // Nothing has been deleted, so every carved node is reachable.
        assert_eq!(cluster.nodes_outstanding(), census.total());
        assert_eq!(cluster.space_stats(), Default::default());
    }

    #[test]
    fn sampled_shape_audit_windows_tile_the_full_audit() {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..4_000u64).map(|k| (k, k))).unwrap();
        let full = cluster.shape_audit().unwrap();
        assert!(full.parents > 8, "need a wide tree for sampling to matter");

        // An unbounded sample is exactly the full audit.
        assert_eq!(cluster.shape_audit_sampled(usize::MAX, 0).unwrap(), full);

        // A bounded sample audits at most the window, and rotating the skip
        // across calls tiles the whole parent set.
        let window = 4usize;
        let parent_levels = cluster.root_hint().unwrap().level as u64;
        let first = cluster.shape_audit_sampled(window, 0).unwrap();
        assert!(
            first.parents <= parent_levels * window as u64,
            "bounded per level: {} parents over {parent_levels} levels",
            first.parents
        );
        assert!(first.parents > 0);
        let mut covered = 0u64;
        let mut skip = 0usize;
        loop {
            let sample = cluster.shape_audit_sampled(window, skip).unwrap();
            if sample.parents == 0 {
                break;
            }
            covered += sample.parents;
            skip += window;
        }
        assert!(
            covered >= full.parents,
            "rotating windows must cover every parent: {covered} < {}",
            full.parents
        );

        // A zero-parent window is an empty audit.
        assert_eq!(
            cluster.shape_audit_sampled(0, 0).unwrap(),
            ShapeAudit::default()
        );
    }

    #[test]
    fn lock_strategies_construct() {
        for options in [
            TreeOptions::fg(),
            TreeOptions::fg_plus(),
            TreeOptions::plus_combine(),
            TreeOptions::plus_onchip(),
            TreeOptions::plus_hierarchical(),
            TreeOptions::sherman(),
        ] {
            let cluster = Cluster::new(ClusterConfig::small(), options);
            cluster.bulkload((0..100u64).map(|k| (k, k))).unwrap();
            assert!(cluster.root_hint().is_some());
        }
    }
}
