//! The per-thread tree client: lookup, insert, delete and range query.
//!
//! Each simulated client thread owns a [`TreeClient`].  The client performs
//! every index operation with one-sided verbs against the memory servers, as
//! described in §4 of the paper:
//!
//! * **lookup / range** — lock-free: read the leaf with `RDMA_READ`, validate
//!   node-level (and, for Sherman's unsorted leaves, entry-level) versions and
//!   retry on a torn image,
//! * **insert / delete** — acquire the node's exclusive lock, read the leaf,
//!   modify it locally, then write back either the single affected entry
//!   (two-level versions) or the whole node (baselines); with command
//!   combination the read rides the lock acquisition and the lock release
//!   rides the write-back, one doorbell batch each,
//! * **split** — sort the leaf, move the upper half to a freshly allocated
//!   sibling, link it B-link style, and insert the separator into the parent
//!   (growing a new root when the split reaches the top).

use crate::cluster::Cluster;
use crate::coherence::{self, PublishedCommit, StructuralCommit};
use crate::config::LeafFormat;
use crate::error::TreeError;
use crate::layout::NodeLayout;
use crate::node::{InternalEntry, InternalNode, LeafNode};
use crate::ops::{
    self, drive_blocking, DeleteSM, InsertSM, LeafSource, LookupSM, OpCx, OpMeta, RangeSM,
    ReadNodeSM, Step, TraverseSM, WriteCommit,
};
use crate::stats::OpStats;
use crate::TreeResult;
use sherman_locks::AcquireOutcome;
use sherman_memserver::{ClientAllocator, ReaderHandle, ServerLayout};
use sherman_sim::{
    ClientCtx, ClientStats, Completion, Fabric, FabricBackend, GlobalAddress, PendingVerb,
    TraceEvent, WriteCmd,
};
use std::sync::Arc;

/// Which sibling a structural delete pairs the underfull node with.
///
/// The commit always operates on an adjacent `(left, right)` pair under one
/// parent and always retires the *right* node of the pair on a full merge
/// (B-link safety: the survivor's sibling pointer skips the tombstone).  The
/// direction records which side the *underfull* node is on:
///
/// * [`MergeDirection::Right`] — the underfull node is the left of the pair
///   and absorbs its right B-link sibling (the PR 2 behaviour),
/// * [`MergeDirection::Left`] — the underfull node has no right sibling under
///   its parent (it is the rightmost child), so it becomes the right of the
///   pair and folds into its **left** sibling, which the parent identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeDirection {
    Right,
    Left,
}

/// The same-parent neighbourhood of an underfull node, discovered lock-free
/// by one parent resolution in `find_merge_pair`: the parent plus whichever
/// adjacent siblings live under it (both `None` for an only child).
struct MergePartners {
    parent: GlobalAddress,
    right_sibling: Option<GlobalAddress>,
    left_sibling: Option<GlobalAddress>,
}

/// What a structural-delete attempt decided to commit (the encoded node
/// images that will ride the lock releases, plus the decoded survivor state
/// the post-commit bookkeeping needs — carried here so the commit path does
/// not re-decode bytes the planner just encoded).
enum MergeOutcome {
    /// The left node absorbed its right sibling; the sibling image is the
    /// freed (free-bit set, version-bumped) tombstone whose node-level
    /// version is `right_version` (recorded with the retirement so the next
    /// writer of the address stamps its image above it).  `survivor_live` is
    /// the surviving left node's occupancy (live entries for leaves,
    /// separators for internals) for the still-underfull chase.
    Merge {
        left_bytes: Vec<u8>,
        right_bytes: Vec<u8>,
        right_version: u8,
        survivor_live: usize,
        left_image: Option<InternalNode>,
    },
    /// Entries moved between the siblings (neither node is freed); the
    /// parent's separator for the right node must move to `new_sep`.
    Rebalance {
        left_bytes: Vec<u8>,
        right_bytes: Vec<u8>,
        new_sep: u64,
        left_image: Option<InternalNode>,
    },
}

/// A per-thread handle to the tree.
///
/// Create one with [`Cluster::client`] *on the thread that will use it*: the
/// handle registers the calling thread with the simulation's virtual clock.
pub struct TreeClient<B: FabricBackend = Fabric> {
    pub(crate) cluster: Arc<Cluster<B>>,
    pub(crate) ctx: ClientCtx<B::Channel>,
    allocator: ClientAllocator<B>,
    /// This client's slot in the epoch registry: every public operation pins
    /// the global epoch on entry and unpins on exit, which is what lets
    /// epoch-based reclamation recycle freed node addresses the moment no
    /// pre-retirement reader is left.
    pub(crate) reader: ReaderHandle,
    pub(crate) cs_id: u16,
}

impl<B: FabricBackend> std::fmt::Debug for TreeClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeClient")
            .field("cs_id", &self.cs_id)
            .finish_non_exhaustive()
    }
}

impl<B: FabricBackend> TreeClient<B> {
    pub(crate) fn new(cluster: Arc<Cluster<B>>, cs_id: u16) -> Self {
        let ctx = cluster.fabric().client(cs_id);
        let allocator = ClientAllocator::new(
            Arc::clone(cluster.pool()),
            cluster.config().node_size as u64,
            cs_id,
        );
        let reader = cluster.pool().epoch_registry().register();
        TreeClient {
            cluster,
            ctx,
            allocator,
            reader,
            cs_id,
        }
    }

    /// The cluster this client operates on.
    pub fn cluster(&self) -> &Arc<Cluster<B>> {
        &self.cluster
    }

    /// Compute-server id of this client.
    pub fn cs_id(&self) -> u16 {
        self.cs_id
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ctx.now()
    }

    /// Let `ns` of virtual time pass without issuing any fabric work.
    ///
    /// This parks the client on the conservative virtual clock
    /// (`Participant::wait_until`), so other threads' operations keep
    /// making progress while this client sits idle.  Harnesses use it to
    /// build mid-run rendezvous points: blocking on an OS primitive instead
    /// would freeze the clock for every other participant (see the clock's
    /// module docs), so polling a shared flag with `idle` between checks is
    /// the only safe way to wait for another simulated thread.
    pub fn idle(&mut self, ns: u64) {
        let target = self.ctx.now().saturating_add(ns);
        self.ctx.wait_until(target);
    }

    /// Raw fabric counters of this client (cumulative).
    pub fn fabric_stats(&self) -> ClientStats {
        self.ctx.stats()
    }

    /// Start recording a verb trace: every posted verb (tagged with its
    /// operation id and whether it was posted inside a lock critical
    /// section) plus the critical-section begin/end markers.
    pub fn enable_verb_trace(&mut self) {
        self.ctx.enable_trace();
    }

    /// Drain the verb trace recorded since [`Self::enable_verb_trace`].
    pub fn take_verb_trace(&mut self) -> Vec<TraceEvent> {
        self.ctx.take_trace()
    }

    fn layout(&self) -> &NodeLayout {
        self.cluster.layout()
    }

    fn leaf_format(&self) -> LeafFormat {
        self.cluster.options().leaf_format
    }

    fn combine(&self) -> bool {
        self.cluster.options().combine_commands
    }

    /// Acquire the exclusive lock on `addr`, folding the outcome into `meta`.
    /// Marks the context as inside a critical section from the moment the
    /// lock is held (the fabric trace pins down that no other operation's
    /// verbs interleave until the matching release).
    fn acquire_lock(&mut self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<()> {
        let mgr = Arc::clone(self.cluster.lock_manager());
        let acq = mgr.acquire(&mut self.ctx, addr)?;
        self.note_acquired(acq, meta);
        Ok(())
    }

    /// Fold one lock acquisition into `meta` and open its critical section.
    /// Sections nest (a merge holds several node locks): the outermost one
    /// opens with the first lock and closes with the last release.
    fn note_acquired(&mut self, acq: AcquireOutcome, meta: &mut OpMeta) {
        meta.lock_retries += acq.remote_retries;
        meta.handed_over |= acq.handed_over;
        self.ctx.begin_critical();
    }

    /// Acquire the exclusive lock on `addr` and read the node under it — the
    /// head of every single-node commit.  With command combination the READ
    /// rides the acquiring CAS's doorbell batch (the lock word is co-located
    /// with its node, hence on the same queue pair), so the head costs one
    /// round trip; without it, the lock and the read are two dependent ones.
    fn lock_and_read(&mut self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<Vec<u8>> {
        if !self.combine() {
            self.acquire_lock(addr, meta)?;
            return self.read_node_locked(addr);
        }
        let node_size = self.layout().node_size();
        let mut buf = vec![0u8; node_size];
        let mgr = Arc::clone(self.cluster.lock_manager());
        let acq = mgr.acquire_and_read(&mut self.ctx, addr, &mut buf)?;
        self.note_acquired(acq, meta);
        self.ctx.charge_scan(node_size);
        Ok(buf)
    }

    /// Release the exclusive lock on `addr`, flushing `writes` according to
    /// the command-combination setting.  Blocking: the release completion is
    /// observed before returning.
    fn release_lock(&mut self, addr: GlobalAddress, writes: Vec<WriteCmd>) -> TreeResult<()> {
        let combine = self.combine();
        let mgr = Arc::clone(self.cluster.lock_manager());
        mgr.release(&mut self.ctx, addr, writes, combine)?;
        self.ctx.end_critical();
        Ok(())
    }

    /// Release the exclusive lock on `addr` with the *final* release verb
    /// posted split-phase: its memory effect (lock word cleared, write-backs
    /// applied) lands at post time, so the critical section ends here even
    /// though the completion is still outstanding.  Returns the deferred verb
    /// to park on (`None` when a local handover made the release purely
    /// local).
    fn release_lock_deferred(
        &mut self,
        addr: GlobalAddress,
        writes: Vec<WriteCmd>,
    ) -> TreeResult<Option<PendingVerb>> {
        let combine = self.combine();
        let mgr = Arc::clone(self.cluster.lock_manager());
        let (_, deferred) = mgr.release_deferred(&mut self.ctx, addr, writes, combine, true)?;
        self.ctx.end_critical();
        Ok(deferred)
    }

    /// The state-machine stepping context for this client's thread.
    pub(crate) fn op_cx(&mut self) -> OpCx<'_, B> {
        OpCx {
            cluster: &self.cluster,
            ctx: &mut self.ctx,
            cs_id: self.cs_id,
        }
    }

    // ------------------------------------------------------------------
    // Root management
    // ------------------------------------------------------------------

    /// Current root address and level, from the local hint or the remote
    /// superblock.
    fn root(&mut self) -> TreeResult<(GlobalAddress, u8)> {
        self.op_cx().root()
    }

    // ------------------------------------------------------------------
    // Node reads
    // ------------------------------------------------------------------

    /// Read a node image with the lock-free consistency loop (node-level
    /// check only; entry-level checks are done by the caller where relevant).
    /// Blocking wrapper over [`ReadNodeSM`].
    fn read_node_consistent(&mut self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<Vec<u8>> {
        let mut cx = self.op_cx();
        let mut sm = ReadNodeSM::new(&cx, addr);
        drive_blocking(&mut cx, meta, |cx, meta, c| sm.step(cx, meta, c))
    }

    /// Read a node image while holding its exclusive lock (no retry loop
    /// needed: writers are excluded, readers never modify).
    fn read_node_locked(&mut self, addr: GlobalAddress) -> TreeResult<Vec<u8>> {
        let node_size = self.layout().node_size();
        let mut buf = vec![0u8; node_size];
        self.ctx.read(addr, &mut buf)?;
        self.ctx.charge_scan(node_size);
        Ok(buf)
    }

    /// Read three node images whose locks are all held.  The reads are
    /// independent, so with command combination they are posted together and
    /// share a round trip; without it each waits for the one before, like
    /// every other command of an uncombined preset.
    fn read_nodes_locked(&mut self, addrs: [GlobalAddress; 3]) -> TreeResult<[Vec<u8>; 3]> {
        if !self.combine() {
            let [a, b, c] = addrs;
            return Ok([
                self.read_node_locked(a)?,
                self.read_node_locked(b)?,
                self.read_node_locked(c)?,
            ]);
        }
        let node_size = self.layout().node_size();
        let mut bufs = addrs.map(|_| vec![0u8; node_size]);
        let mut reqs: Vec<(GlobalAddress, &mut [u8])> = addrs
            .into_iter()
            .zip(bufs.iter_mut().map(Vec::as_mut_slice))
            .collect();
        self.ctx.read_batch(&mut reqs)?;
        self.ctx.charge_scan(addrs.len() * node_size);
        Ok(bufs)
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Walk down from the root (or the cached top levels) to the node at
    /// `target_level` whose key interval contains `key`.  Blocking wrapper
    /// over [`TraverseSM`], used by the write paths.
    fn traverse_to_level(
        &mut self,
        key: u64,
        target_level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<GlobalAddress> {
        let mut cx = self.op_cx();
        let mut sm = TraverseSM::new(&cx, key, target_level);
        drive_blocking(&mut cx, meta, |cx, meta, c| sm.step(cx, meta, c))
    }

    /// Handle a leaf that turned out not to cover `key`: invalidate the stale
    /// cache entry and either follow the sibling pointer or ask for a fresh
    /// traversal.  Returns the next address to try, or `None` to re-locate.
    fn next_after_mismatch(
        &mut self,
        key: u64,
        addr: GlobalAddress,
        leaf: &LeafNode,
        source: LeafSource,
    ) -> Option<GlobalAddress> {
        ops::next_after_mismatch(&mut self.op_cx(), key, addr, leaf, source)
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Look up `key`, returning its value if present.
    ///
    /// Blocking form of the lookup state machine: one verb in flight at a time, which is
    /// exactly what a pipelined run at depth 1 executes.
    pub fn lookup(&mut self, key: u64) -> TreeResult<(Option<u64>, OpStats)> {
        self.drain_coherence();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let _pin = self.reader.pin();
        let mut meta = OpMeta::default();

        let mut cx = self.op_cx();
        let mut sm = LookupSM::new(&cx, key);
        let value = drive_blocking(&mut cx, &mut meta, |cx, meta, c| sm.step(cx, meta, c))?;
        Ok((value, self.finish(before, t0, meta)))
    }

    // ------------------------------------------------------------------
    // Insert / update
    // ------------------------------------------------------------------

    /// Drive a write state machine's step function to completion with one
    /// verb in flight at a time — the write-path twin of [`drive_blocking`],
    /// taking the whole client because the commit step needs the allocator
    /// and lock manager.  A pipelined run at depth 1 executes exactly this.
    fn drive_write<T>(
        &mut self,
        meta: &mut OpMeta,
        mut step: impl FnMut(&mut TreeClient<B>, &mut OpMeta, Option<Completion>) -> TreeResult<Step<T>>,
    ) -> TreeResult<T> {
        let mut completion = None;
        loop {
            match step(self, meta, completion.take())? {
                Step::Pending(token) => completion = Some(self.ctx.poll_token(token)),
                Step::Done(value) => return Ok(value),
            }
        }
    }

    /// Insert `key → value`, overwriting any existing value.
    ///
    /// Blocking form of the insert state machine: one verb in flight at a
    /// time, which is exactly what a pipelined run at depth 1 executes.
    pub fn insert(&mut self, key: u64, value: u64) -> TreeResult<OpStats> {
        self.drain_coherence();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let _pin = self.reader.pin();
        let mut meta = OpMeta::default();
        let mut sm = InsertSM::new(&self.op_cx(), key, value);
        self.drive_write(&mut meta, |client, meta, c| sm.step(client, meta, c))?;
        Ok(self.finish(before, t0, meta))
    }

    /// The insert critical section, run synchronously against the leaf at
    /// `addr`: acquire its lock, read and revalidate it, install the entry
    /// (or split), and release.  On the fast path the combined
    /// write-back + release verb is posted split-phase and returned for the
    /// caller to park on; every other exit observes its release inline so
    /// depth-1 pipelining stays verb-for-verb identical to blocking.
    pub(crate) fn insert_commit(
        &mut self,
        addr: GlobalAddress,
        source: LeafSource,
        key: u64,
        value: u64,
        meta: &mut OpMeta,
    ) -> TreeResult<WriteCommit> {
        let buf = self.lock_and_read(addr, meta)?;
        let mut leaf = self.layout().decode_leaf(&buf);
        if leaf.header.free || !leaf.header.is_leaf || !leaf.header.covers(key) {
            if leaf.header.free
                && matches!(source, LeafSource::Cache { .. })
            {
                // The cache routed this write to a retired leaf: its
                // invalidation is still in flight.
                self.cluster.coherence_counters().record_stale_hit();
            }
            self.release_lock(addr, Vec::new())?;
            let next = self
                .next_after_mismatch(key, addr, &leaf, source)
                .map(|a| (a, LeafSource::Sibling));
            return Ok(WriteCommit::Retry { next });
        }

        // Update in place or take a vacant slot.
        let slot = leaf.slot_of(key).or_else(|| leaf.vacant_slot());
        if let Some(slot) = slot {
            leaf.entries[slot].install(key, value);
            let writes = self.leaf_writeback(addr, &mut leaf, slot);
            let release = self.release_lock_deferred(addr, writes)?;
            return Ok(WriteCommit::Committed {
                found: true,
                release,
            });
        }

        // Leaf full: the split and its separator propagation run to
        // completion inside this step (further locks are taken, so nothing
        // may stay deferred across them).
        self.split_leaf(addr, leaf, key, value, meta)?;
        Ok(WriteCommit::Committed {
            found: true,
            release: None,
        })
    }

    /// Build the write-back command(s) for a point modification of `slot`.
    fn leaf_writeback(
        &mut self,
        addr: GlobalAddress,
        leaf: &mut LeafNode,
        slot: usize,
    ) -> Vec<WriteCmd> {
        match self.leaf_format() {
            LeafFormat::UnsortedTwoLevel => {
                // Entry-granular write-back: only the touched entry travels.
                let entry_bytes = self.layout().encode_leaf_entry(&leaf.entries[slot]);
                let entry_addr = addr.add(self.layout().leaf_entry_offset(slot) as u64);
                vec![WriteCmd::new(entry_addr, entry_bytes)]
            }
            LeafFormat::SortedNodeVersion | LeafFormat::SortedChecksum => {
                // Sorted layouts shift entries and write the whole node back.
                let pairs = leaf.sorted_pairs();
                leaf.repack_sorted(&pairs);
                leaf.header.bump_versions();
                self.ctx.charge_scan(self.layout().node_size());
                let mut bytes = self.layout().encode_leaf(leaf);
                if self.leaf_format() == LeafFormat::SortedChecksum {
                    self.layout().stamp_checksum(&mut bytes);
                }
                vec![WriteCmd::new(addr, bytes)]
            }
        }
    }

    fn encode_leaf_for_write(&self, leaf: &LeafNode) -> Vec<u8> {
        let mut bytes = self.layout().encode_leaf(leaf);
        if self.leaf_format() == LeafFormat::SortedChecksum {
            self.layout().stamp_checksum(&mut bytes);
        }
        bytes
    }

    fn encode_internal_for_write(&self, node: &InternalNode) -> Vec<u8> {
        let mut bytes = self.layout().encode_internal(node);
        if self.leaf_format() == LeafFormat::SortedChecksum {
            self.layout().stamp_checksum(&mut bytes);
        }
        bytes
    }

    fn split_leaf(
        &mut self,
        addr: GlobalAddress,
        mut leaf: LeafNode,
        key: u64,
        value: u64,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let layout = *self.layout();
        // Sorting the (possibly unsorted) leaf before the split costs local
        // CPU time (Figure 7, line 21).
        self.ctx.charge_scan(layout.node_size());
        let (split_key, mut right) = leaf.split(&layout);

        // Place the new key into the correct half.
        let target = if key >= split_key { &mut right } else { &mut leaf };
        let slot = target
            .vacant_slot()
            .expect("post-split halves have vacant slots");
        target.entries[slot].install(key, value);
        if self.leaf_format().is_sorted() {
            let pairs = target.sorted_pairs();
            target.repack_sorted(&pairs);
        }

        let sibling = match self.allocator.alloc_node(&mut self.ctx) {
            Ok(a) => a,
            Err(e) => {
                // Do not leak the node lock when the cluster is out of memory.
                self.release_lock(addr, Vec::new())?;
                return Err(e.into());
            }
        };
        let sibling_addr = sibling.addr;
        leaf.header.sibling = Some(sibling_addr);

        // A recycled address still holds its tombstone; the first image
        // written there must be stamped above the tombstone's version so
        // versions bump across reuse (fresh carves seed at version 1, the
        // same value the pre-reuse code produced).
        right.header.set_versions(sibling.first_version());
        let right_bytes = self.encode_leaf_for_write(&right);
        let left_bytes = self.encode_leaf_for_write(&leaf);

        let mut writes = Vec::new();
        if sibling_addr.ms == addr.ms {
            // Same memory server: the sibling write-back joins the combined
            // batch (write sibling, write node, release lock — one round trip).
            writes.push(WriteCmd::new(sibling_addr, right_bytes));
        } else {
            self.ctx.write(sibling_addr, &right_bytes)?;
        }
        writes.push(WriteCmd::new(addr, left_bytes));
        self.release_lock(addr, writes)?;

        // Propagate the separator into the parent level.
        self.insert_separator_at(split_key, sibling_addr, 1, meta)
    }

    // ------------------------------------------------------------------
    // Internal-node insertion / root growth
    // ------------------------------------------------------------------

    fn insert_separator_at(
        &mut self,
        sep_key: u64,
        child: GlobalAddress,
        parent_level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let restarts = self.cluster.config().max_restarts;
        let mut pending: Option<GlobalAddress> = None;
        for attempt in 0..restarts {
            if attempt > 0 {
                // Lost a race (root growth, a concurrent split moving the
                // key range): pace the retry so the winner can finish.
                self.ctx.contention_backoff(attempt);
            }
            let (_, root_level) = self.root()?;
            if root_level < parent_level {
                if self.try_grow_root(sep_key, child, parent_level)? {
                    return Ok(());
                }
                continue;
            }
            let addr = match pending.take() {
                Some(a) => a,
                None => self.traverse_to_level(sep_key, parent_level, meta)?,
            };
            let buf = self.lock_and_read(addr, meta)?;
            let mut node = self.layout().decode_internal(&buf);
            let usable = !node.header.free
                && !node.header.is_leaf
                && node.header.level == parent_level
                && node.header.covers(sep_key);
            if !usable {
                self.release_lock(addr, Vec::new())?;
                if !node.header.free
                    && node.header.level == parent_level
                    && sep_key >= node.header.fence_high
                {
                    pending = node.header.sibling;
                }
                continue;
            }

            if !node.is_full(self.layout()) {
                node.insert_separator(sep_key, child);
                node.header.bump_versions();
                let bytes = self.encode_internal_for_write(&node);
                self.release_lock(addr, vec![WriteCmd::new(addr, bytes)])?;
                self.offer_written(&[(addr, &node)], root_level);
                return Ok(());
            }

            // Split the internal node and propagate upward.
            let (promoted, mut right) = node.split();
            if sep_key >= promoted {
                right.insert_separator(sep_key, child);
            } else {
                node.insert_separator(sep_key, child);
            }
            let right_alloc = match self.allocator.alloc_node(&mut self.ctx) {
                Ok(a) => a,
                Err(e) => {
                    self.release_lock(addr, Vec::new())?;
                    return Err(e.into());
                }
            };
            let right_addr = right_alloc.addr;
            node.header.sibling = Some(right_addr);

            // Stamp the new sibling above any tombstone left at a recycled
            // address (versions bump across reuse).
            right.header.set_versions(right_alloc.first_version());
            let right_bytes = self.encode_internal_for_write(&right);
            let left_bytes = self.encode_internal_for_write(&node);
            let mut writes = Vec::new();
            if right_addr.ms == addr.ms {
                writes.push(WriteCmd::new(right_addr, right_bytes));
            } else {
                self.ctx.write(right_addr, &right_bytes)?;
            }
            writes.push(WriteCmd::new(addr, left_bytes));
            self.release_lock(addr, writes)?;

            // The right half first: it adopts the cached children it took
            // along before the narrowed left image stops covering them.
            self.offer_written(&[(right_addr, &right), (addr, &node)], root_level);
            return self.insert_separator_at(promoted, right_addr, parent_level + 1, meta);
        }
        Err(TreeError::RetriesExhausted {
            context: "separator insertion",
            attempts: restarts,
        })
    }

    /// Offer the index cache the fresh image of every internal node a commit
    /// just wrote back, whatever its level: the committer holds the only
    /// up-to-date copy, and an image already cached is healed in place.
    fn offer_written(&self, written: &[(GlobalAddress, &InternalNode)], root_level: u8) {
        let cache = self.cluster.cache(self.cs_id);
        for &(addr, node) in written {
            cache.offer(Arc::new(ops::cached_from_internal(addr, node)), root_level);
        }
    }

    /// Attempt to install a new root above the current one.  Returns `false`
    /// if another client won the race (the caller then retries the normal
    /// separator insertion).
    fn try_grow_root(
        &mut self,
        sep_key: u64,
        right_child: GlobalAddress,
        new_level: u8,
    ) -> TreeResult<bool> {
        let root_ptr = self.cluster.root_ptr_addr();
        let packed = self.ctx.read_u64(root_ptr)?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let old_root = GlobalAddress::unpack(packed);
        // Verify the old root really is one level below the root we intend to
        // create; otherwise someone else already grew the tree.
        let mut meta = OpMeta::default();
        let buf = self.read_node_consistent(old_root, &mut meta)?;
        let header = self.layout().decode_header(&buf);
        if header.free || header.level + 1 != new_level {
            return Ok(false);
        }

        let new_root_alloc = self.allocator.alloc_node(&mut self.ctx)?;
        let new_root_addr = new_root_alloc.addr;
        let mut new_root = InternalNode::new(new_level, 0, u64::MAX, old_root);
        new_root.insert_separator(sep_key, right_child);
        // Stamp above any tombstone left at a recycled address (versions bump
        // across reuse).
        new_root.header.set_versions(new_root_alloc.first_version());
        let bytes = self.encode_internal_for_write(&new_root);
        // The new root is not reachable yet, so no lock is needed for this
        // write; the root-pointer CAS is the linearization point.
        self.ctx.write(new_root_addr, &bytes)?;

        let cas = self
            .ctx
            .cas(root_ptr, packed, new_root_addr.pack())?;
        if cas.succeeded {
            self.ctx
                .write_u64(ServerLayout::level_hint_addr(), new_level as u64)?;
            self.cluster.set_root_hint(new_root_addr, new_level);
            self.offer_written(&[(new_root_addr, &new_root)], new_level);
            return Ok(true);
        }
        // Lost the race: mark our orphan node free so later readers that
        // stumble on it via stale pointers reject it.
        let mut free_flag = [0u8; 1];
        free_flag[0] = crate::layout::FLAG_FREE;
        self.ctx.write(new_root_addr.add(1), &free_flag)?;
        // The orphan was never reachable, so its address can be retired right
        // away under the reclamation scheme instead of leaking — independent
        // of whether structural deletes are on (the
        // `TreeOptions::reclaim_root_orphans` escape hatch restores the
        // paper's leak-on-loss behaviour).
        if self.cluster.options().reclaim_root_orphans {
            // Even a never-reachable orphan goes through the publish →
            // retire protocol: a racing reader may have cached the stale
            // root pointer's target, and the invariant "every retirement
            // posted its invalidations" stays uniform.
            let mut commit = StructuralCommit::new();
            commit.invalidate(new_root_addr, new_root.header.front_version);
            let published = self.publish_commit(commit);
            published.retire_all(&self.cluster, self.ctx.now());
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Delete `key`.  Returns whether the key was present.
    ///
    /// Blocking form of the delete state machine: one verb in flight at a
    /// time, which is exactly what a pipelined run at depth 1 executes.
    pub fn delete(&mut self, key: u64) -> TreeResult<(bool, OpStats)> {
        self.drain_coherence();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let _pin = self.reader.pin();
        let mut meta = OpMeta::default();
        let mut sm = DeleteSM::new(&self.op_cx(), key);
        let deleted = self.drive_write(&mut meta, |client, meta, c| sm.step(client, meta, c))?;
        Ok((deleted, self.finish(before, t0, meta)))
    }

    /// The delete critical section, run synchronously against the leaf at
    /// `addr` — the write-path twin of [`TreeClient::insert_commit`].  A
    /// delete that leaves the leaf underfull runs the structural-merge
    /// machinery inside this same step (after observing the leaf release
    /// inline), so no deferral crosses the merge's own critical sections.
    pub(crate) fn delete_commit(
        &mut self,
        addr: GlobalAddress,
        source: LeafSource,
        key: u64,
        meta: &mut OpMeta,
    ) -> TreeResult<WriteCommit> {
        let buf = self.lock_and_read(addr, meta)?;
        let mut leaf = self.layout().decode_leaf(&buf);
        if leaf.header.free || !leaf.header.is_leaf || !leaf.header.covers(key) {
            if leaf.header.free
                && matches!(source, LeafSource::Cache { .. })
            {
                // The cache routed this write to a retired leaf: its
                // invalidation is still in flight.
                self.cluster.coherence_counters().record_stale_hit();
            }
            self.release_lock(addr, Vec::new())?;
            let next = self
                .next_after_mismatch(key, addr, &leaf, source)
                .map(|a| (a, LeafSource::Sibling));
            return Ok(WriteCommit::Retry { next });
        }

        let Some(slot) = leaf.slot_of(key) else {
            let release = self.release_lock_deferred(addr, Vec::new())?;
            return Ok(WriteCommit::Committed {
                found: false,
                release,
            });
        };
        leaf.entries[slot].clear();
        let writes = match self.leaf_format() {
            LeafFormat::UnsortedTwoLevel => {
                let entry_bytes = self.layout().encode_leaf_entry(&leaf.entries[slot]);
                let entry_addr = addr.add(self.layout().leaf_entry_offset(slot) as u64);
                vec![WriteCmd::new(entry_addr, entry_bytes)]
            }
            _ => {
                let pairs = leaf.sorted_pairs();
                leaf.repack_sorted(&pairs);
                leaf.header.bump_versions();
                self.ctx.charge_scan(self.layout().node_size());
                vec![WriteCmd::new(addr, self.encode_leaf_for_write(&leaf))]
            }
        };

        // Structural deletes (§ beyond the paper): once the leaf drops
        // below the merge threshold, pair it with a sibling — its right
        // B-link sibling when one exists under the same parent, its left
        // sibling otherwise (direction-complete) — and merge or
        // rebalance.  Best-effort — the delete itself has already
        // committed, so a merge that loses its races (retry budgets
        // included) must not fail the operation; a later delete will
        // retry it.  The merge takes further locks, so the leaf release is
        // observed inline instead of deferred.
        if self.cluster.options().structural_deletes_enabled()
            && leaf.live_count() < self.leaf_merge_floor()
        {
            self.release_lock(addr, writes)?;
            match self.try_merge(addr, 0, Some(&leaf.header), meta) {
                Ok(()) | Err(TreeError::RetriesExhausted { .. }) => {}
                Err(e) => return Err(e),
            }
            return Ok(WriteCommit::Committed {
                found: true,
                release: None,
            });
        }
        let release = self.release_lock_deferred(addr, writes)?;
        Ok(WriteCommit::Committed {
            found: true,
            release,
        })
    }

    // ------------------------------------------------------------------
    // Structural deletes: merge, rebalance, root collapse, reclamation
    // ------------------------------------------------------------------

    /// Live-entry count below which a leaf becomes a merge candidate.
    fn leaf_merge_floor(&self) -> usize {
        let cap = self.layout().leaf_capacity() as f64;
        (cap * self.cluster.options().merge_threshold).floor() as usize
    }

    /// Separator count below which an internal node becomes a merge candidate.
    fn internal_merge_floor(&self) -> usize {
        let cap = self.layout().internal_capacity() as f64;
        (cap * self.cluster.options().merge_threshold).floor() as usize
    }

    /// Acquire the locks guarding `nodes` in the manager's deadlock-safe
    /// order, returning the acquired lock-word representatives.
    fn acquire_plan(
        &mut self,
        nodes: &[GlobalAddress],
        meta: &mut OpMeta,
    ) -> TreeResult<Vec<GlobalAddress>> {
        let mgr = Arc::clone(self.cluster.lock_manager());
        let plan = mgr.lock_plan(nodes);
        for &rep in &plan {
            let acq = mgr.acquire(&mut self.ctx, rep)?;
            self.note_acquired(acq, meta);
        }
        Ok(plan)
    }

    /// Release every lock of `plan` (in reverse acquisition order), flushing
    /// each node's write-backs with the release of the lock word guarding it.
    ///
    /// Demands proof that the commit's coherence messages were posted: a
    /// [`PublishedCommit`] only exists after [`coherence::publish`] ran, so a
    /// commit path that skips publishing does not compile (see the
    /// `crate::coherence` module docs for the protocol).
    fn release_plan(
        &mut self,
        plan: &[GlobalAddress],
        mut writes: Vec<(GlobalAddress, WriteCmd)>,
        _published: &PublishedCommit,
    ) -> TreeResult<()> {
        let mgr = Arc::clone(self.cluster.lock_manager());
        let combine = self.combine();
        for &rep in plan.iter().rev() {
            let mut batch = Vec::new();
            writes.retain_mut(|(node, cmd)| {
                if mgr.same_lock(rep, *node) {
                    batch.push(std::mem::replace(cmd, WriteCmd::new(*node, Vec::new())));
                    false
                } else {
                    true
                }
            });
            mgr.release(&mut self.ctx, rep, batch, combine)?;
            self.ctx.end_critical();
        }
        debug_assert!(writes.is_empty(), "write-back without a guarding lock");
        Ok(())
    }

    /// Resolve the node's parent **once** (lock-free) and derive both
    /// candidate merge partners from its image: the same-parent right sibling
    /// (the child routed right after the node, sanity-checked against the
    /// node's own B-link pointer and fence) and the same-parent left sibling
    /// (the preceding child, or the parent's leftmost).  Returns
    /// [`MergePartners`]; the answer is `None` when the node cannot be
    /// located under the covering parent (a stale header or a lost discovery
    /// race — the merge is opportunistic either way).
    fn find_merge_pair(
        &mut self,
        node_addr: GlobalAddress,
        hdr: &crate::node::NodeHeader,
        level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<Option<MergePartners>> {
        let (_, root_level) = self.root()?;
        if root_level < level + 1 {
            return Ok(None);
        }
        let restarts = self.cluster.config().max_restarts;
        let mut pending: Option<GlobalAddress> = None;
        for _ in 0..restarts {
            let addr = match pending.take() {
                Some(a) => a,
                None => match self.traverse_to_level(hdr.fence_low, level + 1, meta) {
                    Ok(a) => a,
                    Err(TreeError::RetriesExhausted { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                },
            };
            let buf = self.read_node_consistent(addr, meta)?;
            let parent = self.layout().decode_internal(&buf);
            if parent.header.free || parent.header.is_leaf || parent.header.level != level + 1 {
                continue;
            }
            if !parent.header.covers(hdr.fence_low) {
                if hdr.fence_low >= parent.header.fence_high {
                    pending = parent.header.sibling;
                }
                continue;
            }
            // The child routed right after the node is its same-parent right
            // sibling — but only trust it when it agrees with the node's own
            // B-link pointer and upper fence (any disagreement is a racing
            // split/merge that the under-lock revalidation would reject).
            let right_of = |next: Option<&InternalEntry>| {
                next.filter(|e| e.key == hdr.fence_high && Some(e.child) == hdr.sibling)
                    .map(|e| e.child)
            };
            if parent.header.leftmost == Some(node_addr) {
                return Ok(Some(MergePartners {
                    parent: addr,
                    right_sibling: right_of(parent.entries.first()),
                    left_sibling: None,
                }));
            }
            let Some(pos) = parent
                .entries
                .iter()
                .position(|e| e.key == hdr.fence_low && e.child == node_addr)
            else {
                return Ok(None);
            };
            let left = if pos == 0 {
                parent.header.leftmost
            } else {
                Some(parent.entries[pos - 1].child)
            };
            return Ok(Some(MergePartners {
                parent: addr,
                right_sibling: right_of(parent.entries.get(pos + 1)),
                left_sibling: left,
            }));
        }
        Ok(None)
    }

    /// Try to merge the underfull node at `node_addr` (level `level`) with an
    /// adjacent sibling under the same parent, or rebalance entries across
    /// the pair when a full merge does not fit.  The pairing is
    /// direction-complete (see [`MergeDirection`]): a node with a right
    /// B-link sibling under its parent absorbs it, the rightmost child folds
    /// into its left sibling instead — so no underfull node is ever skipped
    /// for lack of a partner direction.  Merged-away nodes are unlinked,
    /// their separator is removed from the parent (collapsing the root when
    /// it runs out of separators), and their address is retired to the memory
    /// server's quarantined free list; every cached image the change scrubs
    /// is refreshed from the surviving images.
    ///
    /// Best-effort and all-or-nothing: no remote write happens until the left
    /// node, the right node and the parent are all locked (in the lock
    /// manager's global rank order) and re-validated; any mismatch releases
    /// the locks untouched.
    ///
    /// `known_hdr` lets the delete path pass the leaf header it already holds
    /// (saving a remote read); the cascade path passes `None`.  Either way the
    /// header only seeds discovery — phase 2 re-validates under the locks.
    fn try_merge(
        &mut self,
        node_addr: GlobalAddress,
        level: u8,
        known_hdr: Option<&crate::node::NodeHeader>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        // Phase 1 (lock-free): resolve the parent once and pair the node
        // with a same-parent sibling.  Prefer the right B-link sibling; fall
        // through to the parent-guided left pairing when there is none under
        // this parent *or* when the right attempt declined (e.g. at
        // aggressive merge thresholds the right pair may neither fit nor
        // have spare while the left sibling could still absorb or donate).
        let hdr = match known_hdr {
            Some(h) => h.clone(),
            None => {
                let buf = self.read_node_consistent(node_addr, meta)?;
                self.layout().decode_header(&buf)
            }
        };
        if hdr.free || hdr.level != level {
            return Ok(());
        }
        let Some(partners) = self.find_merge_pair(node_addr, &hdr, level, meta)? else {
            return Ok(());
        };
        let parent = partners.parent;
        if let Some(right) = partners.right_sibling {
            if self
                .try_merge_pair(node_addr, right, parent, MergeDirection::Right, level, meta)?
            {
                return Ok(());
            }
        }
        if let Some(left) = partners.left_sibling {
            self.try_merge_pair(left, node_addr, parent, MergeDirection::Left, level, meta)?;
        }
        Ok(())
    }

    /// Lock, re-validate, plan and commit one `(left, right, parent)` merge
    /// pair (phases 2–5 of the structural delete).  Returns whether a merge
    /// or rebalance actually committed; `false` means the locks were released
    /// untouched (revalidation failed, or the planner declined).
    fn try_merge_pair(
        &mut self,
        left_addr: GlobalAddress,
        right_addr: GlobalAddress,
        parent_addr: GlobalAddress,
        direction: MergeDirection,
        level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<bool> {
        // Phase 2: lock all three nodes, re-read, re-validate.  The same
        // predicate covers both directions: the pair must be fence-adjacent
        // B-link siblings whose separator lives in this parent.
        let plan = self.acquire_plan(&[left_addr, right_addr, parent_addr], meta)?;
        let [left_buf, right_buf, parent_buf] =
            self.read_nodes_locked([left_addr, right_addr, parent_addr])?;
        let lh = self.layout().decode_header(&left_buf);
        let rh = self.layout().decode_header(&right_buf);
        let mut parent = self.layout().decode_internal(&parent_buf);
        let sep = rh.fence_low;
        let is_leaf = level == 0;
        let structure_ok = left_addr != right_addr
            && !lh.free
            && !rh.free
            && !parent.header.free
            && lh.level == level
            && rh.level == level
            && lh.is_leaf == is_leaf
            && rh.is_leaf == is_leaf
            && !parent.header.is_leaf
            && parent.header.level == level + 1
            && lh.sibling == Some(right_addr)
            && lh.fence_high == sep
            && parent.header.covers(sep)
            && parent.entries.iter().any(|e| e.key == sep && e.child == right_addr);
        if !structure_ok {
            let published = self.publish_commit(StructuralCommit::new());
            self.release_plan(&plan, Vec::new(), &published)?;
            published.retire_all(&self.cluster, self.ctx.now());
            return Ok(false);
        }

        // Phase 3: decide merge vs rebalance and build the new images.
        let outcome = if is_leaf {
            self.plan_leaf_merge(&left_buf, &right_buf, direction)
        } else {
            self.plan_internal_merge(&left_buf, &right_buf, direction)
        };
        let Some(outcome) = outcome else {
            let published = self.publish_commit(StructuralCommit::new());
            self.release_plan(&plan, Vec::new(), &published)?;
            published.retire_all(&self.cluster, self.ctx.now());
            return Ok(false);
        };

        // Phase 4: commit.  The parent update decides between separator
        // removal (merge), separator retargeting (rebalance) and root
        // collapse; every write rides its lock's release.
        let mut writes: Vec<(GlobalAddress, WriteCmd)> = Vec::new();
        // The coherence side of the commit: every freed address becomes an
        // `Invalidate` message and, once published, a retirement; the
        // tombstone's node-level version rides along (the eventual reuser
        // stamps its first image above it, and subscribers reject any
        // cached copy at or below it).
        let mut commit = StructuralCommit::new();
        // The surviving left node's decoded image (internal levels only,
        // produced by the planner), kept for the cache refresh; the
        // occupancy drives the still-underfull chase after a merge.
        let left_image: Option<InternalNode>;
        let mut survivor_live = usize::MAX;
        let mut cascade = false;
        let mut merged = false;
        match outcome {
            MergeOutcome::Merge {
                left_bytes,
                right_bytes,
                right_version,
                survivor_live: live,
                left_image: image,
            } => {
                merged = true;
                survivor_live = live;
                left_image = image;
                assert!(parent.remove_separator(sep, right_addr));
                writes.push((left_addr, WriteCmd::new(left_addr, left_bytes)));
                writes.push((right_addr, WriteCmd::new(right_addr, right_bytes)));
                commit.invalidate(right_addr, right_version);

                let collapsed = parent.entries.is_empty()
                    && self.try_collapse_root(parent_addr, &parent, level)?;
                if collapsed {
                    parent.header.free = true;
                } else {
                    cascade = parent.entries.len() < self.internal_merge_floor();
                }
                parent.header.bump_versions();
                if collapsed {
                    commit.invalidate(parent_addr, parent.header.front_version);
                }
                let parent_bytes = self.encode_internal_for_write(&parent);
                writes.push((parent_addr, WriteCmd::new(parent_addr, parent_bytes)));
                let counters = self.cluster.space_counters();
                if is_leaf {
                    counters.record_leaf_merge();
                } else {
                    counters.record_internal_merge();
                }
                if direction == MergeDirection::Left {
                    counters.record_left_merge();
                }
            }
            MergeOutcome::Rebalance { left_bytes, right_bytes, new_sep, left_image: image } => {
                left_image = image;
                assert!(parent.retarget_separator(sep, new_sep, right_addr));
                parent.header.bump_versions();
                let parent_bytes = self.encode_internal_for_write(&parent);
                writes.push((left_addr, WriteCmd::new(left_addr, left_bytes)));
                writes.push((right_addr, WriteCmd::new(right_addr, right_bytes)));
                writes.push((parent_addr, WriteCmd::new(parent_addr, parent_bytes)));
                if is_leaf {
                    self.cluster.space_counters().record_rebalance();
                } else {
                    self.cluster.space_counters().record_internal_rebalance();
                }
            }
        }
        // Phase 4½ (still under the locks): build each surviving image
        // **once** — the same `Arc` fans out to every subscriber's message
        // and the own-cache heal, no per-server deep clones — and publish
        // the commit.  The typestate makes the release below uncompilable
        // without this step, and retirement is only reachable through the
        // proof it returns.
        let parent_image = (!parent.header.free)
            .then(|| Arc::new(ops::cached_from_internal(parent_addr, &parent)));
        if let Some(image) = &parent_image {
            commit.refresh(Arc::clone(image));
        }
        let left_arc = left_image
            .as_ref()
            .map(|node| Arc::new(ops::cached_from_internal(left_addr, node)));
        if let Some(image) = &left_arc {
            commit.refresh(Arc::clone(image));
        }
        let published = self.publish_commit(commit);
        self.release_plan(&plan, writes, &published)?;

        // Phase 5: post-commit bookkeeping (no locks held).  Retirement
        // consumes the published commit, so the freed addresses are exactly
        // the invalidations that were posted; remote caches heal when the
        // `RefreshTop` messages are drained, the committer's own cache was
        // healed synchronously at publish (both at the images' own levels).
        published.retire_all(&self.cluster, self.ctx.now());
        // A merge of two tiny nodes can leave the survivor itself below the
        // floor with no delete ever landing on it again; chase it now so no
        // node stays persistently underfull while a partner exists (bounded:
        // every merge removes one node from the level).
        let floor = if is_leaf {
            self.leaf_merge_floor()
        } else {
            self.internal_merge_floor()
        };
        if merged && survivor_live < floor {
            self.try_merge(left_addr, level, None, meta)?;
        }
        if cascade {
            // The parent itself dropped below the merge threshold: recurse
            // one level up (bounded by the tree height).
            self.try_merge(parent_addr, level + 1, None, meta)?;
        }
        Ok(true)
    }

    /// Build the post-merge (or post-rebalance) images for two adjacent
    /// leaves, or `None` when the initiating node — the left of the pair for
    /// [`MergeDirection::Right`], the right for [`MergeDirection::Left`] — is
    /// no longer a merge candidate.
    fn plan_leaf_merge(
        &mut self,
        left_buf: &[u8],
        right_buf: &[u8],
        direction: MergeDirection,
    ) -> Option<MergeOutcome> {
        let layout = *self.layout();
        let mut left = layout.decode_leaf(left_buf);
        let mut right = layout.decode_leaf(right_buf);
        let floor = self.leaf_merge_floor();
        let (live_l, live_r) = (left.live_count(), right.live_count());
        let underfull = match direction {
            MergeDirection::Right => live_l,
            MergeDirection::Left => live_r,
        };
        if underfull >= floor {
            return None;
        }
        // Local CPU cost of re-packing the nodes (same accounting as splits).
        self.ctx.charge_scan(layout.node_size());
        if live_l + live_r <= layout.leaf_capacity() {
            left.absorb_right(&right);
            right.header.free = true;
            right.header.bump_versions();
            Some(MergeOutcome::Merge {
                survivor_live: left.live_count(),
                left_bytes: self.encode_leaf_for_write(&left),
                right_bytes: self.encode_leaf_for_write(&right),
                right_version: right.header.front_version,
                left_image: None,
            })
        } else {
            // The siblings cannot fit in one node: top the underfull leaf up
            // to the merge floor instead, without draining the donor below it.
            let want = floor - underfull;
            let donor = match direction {
                MergeDirection::Right => live_r,
                MergeDirection::Left => live_l,
            };
            let spare = donor.saturating_sub(floor);
            let move_n = want.min(spare);
            if move_n == 0 {
                return None;
            }
            let new_sep = match direction {
                MergeDirection::Right => left.take_from_right(&mut right, move_n),
                MergeDirection::Left => right.take_from_left(&mut left, move_n),
            };
            Some(MergeOutcome::Rebalance {
                left_bytes: self.encode_leaf_for_write(&left),
                right_bytes: self.encode_leaf_for_write(&right),
                new_sep,
                left_image: None,
            })
        }
    }

    /// Build the post-merge (or post-rebalance) images for two adjacent
    /// internal nodes, or `None` when the initiating node is no longer a
    /// merge candidate.  When the combined separators do not fit in one node,
    /// separators are redistributed toward the underfull side by rotating
    /// children through the pair's boundary (the parent's separator is then
    /// retargeted in the same critical section, mirroring the leaf rebalance
    /// path).
    fn plan_internal_merge(
        &mut self,
        left_buf: &[u8],
        right_buf: &[u8],
        direction: MergeDirection,
    ) -> Option<MergeOutcome> {
        let layout = *self.layout();
        let mut left = layout.decode_internal(left_buf);
        let mut right = layout.decode_internal(right_buf);
        let floor = self.internal_merge_floor();
        let (len_l, len_r) = (left.entries.len(), right.entries.len());
        let underfull = match direction {
            MergeDirection::Right => len_l,
            MergeDirection::Left => len_r,
        };
        if underfull >= floor {
            return None;
        }
        self.ctx.charge_scan(layout.node_size());
        if len_l + 1 + len_r <= layout.internal_capacity() {
            left.absorb_right(&right);
            right.header.free = true;
            right.header.bump_versions();
            return Some(MergeOutcome::Merge {
                survivor_live: left.entries.len(),
                left_bytes: self.encode_internal_for_write(&left),
                right_bytes: self.encode_internal_for_write(&right),
                right_version: right.header.front_version,
                left_image: Some(left),
            });
        }
        // Two underfull internals whose separators do not fit: redistribute
        // from the fuller sibling until the underfull side reaches the floor,
        // keeping the donor at or above it.
        let want = floor - underfull;
        let donor = match direction {
            MergeDirection::Right => len_r,
            MergeDirection::Left => len_l,
        };
        let spare = donor.saturating_sub(floor);
        let headroom = layout.internal_capacity() - underfull;
        let move_n = want.min(spare).min(headroom);
        if move_n == 0 {
            return None;
        }
        let new_sep = match direction {
            MergeDirection::Right => left.take_from_right(&mut right, move_n),
            MergeDirection::Left => right.take_from_left(&mut left, move_n),
        };
        Some(MergeOutcome::Rebalance {
            left_bytes: self.encode_internal_for_write(&left),
            right_bytes: self.encode_internal_for_write(&right),
            new_sep,
            left_image: Some(left),
        })
    }

    /// If `parent` (now empty of separators) is the current root, replace the
    /// root pointer with its single remaining child.  Returns whether the
    /// collapse happened; the caller then frees the old root.  Called with the
    /// parent's lock held, so no separator can be inserted concurrently; a
    /// racing root *growth* is detected by the CAS.
    fn try_collapse_root(
        &mut self,
        parent_addr: GlobalAddress,
        parent: &InternalNode,
        child_level: u8,
    ) -> TreeResult<bool> {
        debug_assert!(parent.entries.is_empty());
        let root_ptr = self.cluster.root_ptr_addr();
        let packed = self.ctx.read_u64(root_ptr)?;
        if packed != parent_addr.pack() {
            // Not the root (or no longer): an empty internal node with one
            // leftmost child is still a valid router, so just leave it.
            return Ok(false);
        }
        let child = parent
            .header
            .leftmost
            .expect("internal node has leftmost child");
        let cas = self.ctx.cas(root_ptr, packed, child.pack())?;
        if !cas.succeeded {
            return Ok(false);
        }
        self.ctx
            .write_u64(ServerLayout::level_hint_addr(), child_level as u64)?;
        self.cluster.set_root_hint(child, child_level);
        self.cluster.space_counters().record_root_collapse();
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Range query
    // ------------------------------------------------------------------

    /// Scan `count` entries starting from the smallest key `>= start_key`.
    ///
    /// Like the paper (and FG), the scan is not atomic with respect to
    /// concurrent writers; each leaf is individually validated.
    ///
    /// Blocking form of the range-scan state machine: one verb (or one parallel leaf batch) in
    /// flight at a time, exactly what a pipelined run at depth 1 executes.
    pub fn range(&mut self, start_key: u64, count: usize) -> TreeResult<(Vec<(u64, u64)>, OpStats)> {
        self.drain_coherence();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let _pin = self.reader.pin();
        let mut meta = OpMeta::default();
        let mut cx = self.op_cx();
        let mut sm = RangeSM::new(start_key, count);
        let results = drive_blocking(&mut cx, &mut meta, |cx, meta, c| sm.step(cx, meta, c))?;
        Ok((results, self.finish(before, t0, meta)))
    }

    // ------------------------------------------------------------------
    // Cache coherence (see `crate::coherence` for the protocol)
    // ------------------------------------------------------------------

    /// Publish a structural commit's coherence messages, trading the
    /// builder for the [`PublishedCommit`] proof that `release_plan` and
    /// retirement demand.  Runs under the commit's locks.
    fn publish_commit(&mut self, commit: StructuralCommit) -> PublishedCommit {
        coherence::publish(&self.cluster, &mut self.ctx, self.cs_id, commit)
    }

    /// Drain this compute server's coherence inbox and apply every message
    /// whose delivery time has been reached.  Called at operation
    /// boundaries — the blocking entry points and the pipelined scheduler's
    /// slot admission, the same points, which keeps depth-1 pipelining
    /// byte-for-byte identical to blocking.  Costs no virtual time.
    pub(crate) fn drain_coherence(&mut self) {
        let msgs = self.ctx.drain_coherence();
        if !msgs.is_empty() {
            let now = self.ctx.now();
            coherence::apply(&self.cluster, self.cs_id, now, &msgs);
        }
    }

    /// Wait (in virtual time) until every coherence message already posted
    /// toward this compute server is deliverable, then drain and apply the
    /// inbox.  After this returns — and provided no other client commits
    /// concurrently — this server's cache serves no stale structural state.
    pub fn quiesce_coherence(&mut self) {
        let msgs = self.ctx.quiesce_coherence();
        if !msgs.is_empty() {
            let now = self.ctx.now();
            coherence::apply(&self.cluster, self.cs_id, now, &msgs);
        }
    }

    // ------------------------------------------------------------------
    // Stats plumbing
    // ------------------------------------------------------------------

    fn finish(&self, before: ClientStats, t0: u64, meta: OpMeta) -> OpStats {
        let after = self.ctx.stats();
        let mut stats = OpStats::from_delta(&before, &after, self.ctx.now() - t0);
        stats.lock_retries = meta.lock_retries;
        stats.read_retries = meta.read_retries;
        stats.handed_over = meta.handed_over;
        stats.cache_hit = meta.cache_hit;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::TreeOptions;

    fn small_cluster(options: TreeOptions) -> Arc<Cluster> {
        Cluster::new(ClusterConfig::small(), options)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..500u64).map(|k| (k, k * 2))).unwrap();
        let mut client = cluster.client(0);

        assert_eq!(client.lookup(250).unwrap().0, Some(500));
        assert_eq!(client.lookup(10_000).unwrap().0, None);

        client.insert(10_000, 7).unwrap();
        assert_eq!(client.lookup(10_000).unwrap().0, Some(7));

        // Update overwrites.
        client.insert(250, 99).unwrap();
        assert_eq!(client.lookup(250).unwrap().0, Some(99));

        let (deleted, _) = client.delete(250).unwrap();
        assert!(deleted);
        assert_eq!(client.lookup(250).unwrap().0, None);
        let (deleted, _) = client.delete(250).unwrap();
        assert!(!deleted);
    }

    #[test]
    fn inserts_force_splits_and_root_growth() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload(std::iter::empty()).unwrap();
        let mut client = cluster.client(0);
        let n = 3_000u64;
        for k in 0..n {
            // Scrambled order to exercise both halves of splits.
            let key = (k * 7919) % n;
            client.insert(key, key + 1).unwrap();
        }
        let hint = cluster.root_hint().unwrap();
        assert!(hint.level >= 2, "expected multi-level tree, got {}", hint.level);
        for k in (0..n).step_by(97) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn range_returns_sorted_prefix() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..1_000u64).map(|k| (k * 2, k))).unwrap();
        let mut client = cluster.client(0);
        let (scan, stats) = client.range(100, 20).unwrap();
        assert_eq!(scan.len(), 20);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan[0].0, 100);
        assert_eq!(scan[19].0, 138);
        assert!(stats.reads > 0);

        // Range starting beyond every key is empty.
        let (empty, _) = client.range(10_000, 5).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn every_ablation_configuration_is_correct() {
        for (name, options) in TreeOptions::ablation_ladder() {
            let cluster = small_cluster(options);
            cluster.bulkload((0..400u64).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            for k in 400..800u64 {
                client.insert(k, k * 3).unwrap();
            }
            for k in (0..800).step_by(37) {
                let expected = if k < 400 { k } else { k * 3 };
                assert_eq!(
                    client.lookup(k).unwrap().0,
                    Some(expected),
                    "{name}: key {k}"
                );
            }
            let (scan, _) = client.range(0, 50).unwrap();
            assert_eq!(scan.len(), 50, "{name}");
        }
    }

    #[test]
    fn two_level_versions_write_entry_sized_payloads() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..200u64).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        // In-place update of an existing key: only the 19-byte entry travels.
        let stats = client.insert(100, 42).unwrap();
        assert!(
            stats.bytes_written < 64,
            "expected entry-granular write-back, wrote {} bytes",
            stats.bytes_written
        );

        // The FG+ baseline writes the whole node back.
        let baseline = small_cluster(TreeOptions::fg_plus());
        baseline.bulkload((0..200u64).map(|k| (k, k))).unwrap();
        let mut bclient = baseline.client(0);
        let bstats = bclient.insert(100, 42).unwrap();
        assert!(
            bstats.bytes_written >= baseline.config().node_size as u64,
            "baseline should write back the node, wrote {} bytes",
            bstats.bytes_written
        );
    }

    #[test]
    fn command_combination_halves_a_cached_leaf_write() {
        // Round trips, reads, writes and atomics of an insert and a delete
        // routed by the warm cache straight to their leaf.
        let verbs = |options: TreeOptions| {
            let cluster = small_cluster(options);
            cluster.bulkload((0..200u64).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            let insert = client.insert(50, 1).unwrap();
            let (found, delete) = client.delete(51).unwrap();
            assert!(found);
            [insert, delete].map(|s| (s.round_trips, s.reads, s.writes, s.atomics))
        };
        // Combined: the READ rides the lock CAS, the release rides the
        // write-back — head and tail are one round trip each.
        assert_eq!(verbs(TreeOptions::sherman()), [(2, 1, 2, 1); 2]);
        assert_eq!(verbs(TreeOptions::plus_combine()), [(2, 1, 2, 1); 2]);
        // Uncombined: lock, read, write-back, release — the same verbs, each
        // waiting for the one before.
        let uncombined = TreeOptions {
            combine_commands: false,
            ..TreeOptions::sherman()
        };
        assert_eq!(verbs(uncombined), [(4, 1, 2, 1); 2]);
        assert_eq!(verbs(TreeOptions::fg_plus()), [(4, 1, 2, 1); 2]);
    }

    #[test]
    fn lookup_stats_report_cache_hits() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..2_000u64).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        let (_, stats) = client.lookup(1_234).unwrap();
        assert!(stats.cache_hit, "bulkload warms the index cache");
        // A cache hit costs a single leaf read: one round trip.
        assert_eq!(stats.round_trips, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn deletes_merge_underfull_leaves_and_reclaim_nodes() {
        let cluster = small_cluster(TreeOptions::sherman());
        let n = 2_000u64;
        cluster.bulkload((0..n).map(|k| (k, k + 1))).unwrap();
        let mut client = cluster.client(0);
        let before = cluster.node_census().unwrap();

        // Delete everything except every 100th key: leaves drain and merge.
        for k in 0..n {
            if k % 100 != 0 {
                client.delete(k).unwrap();
            }
        }
        let space = cluster.space_stats();
        assert!(space.leaf_merges > 0, "draining 99% of keys must trigger merges");
        let reclaim = cluster.reclaim_stats();
        assert!(reclaim.retired > 0, "merged siblings must be retired");

        let after = cluster.node_census().unwrap();
        assert!(
            after.total() < before.total() / 4,
            "census should shrink: {} -> {}",
            before.total(),
            after.total()
        );
        // Book-keeping agrees with the walk: every allocated node is either
        // reachable or still quarantined/ready in a free list.
        assert_eq!(cluster.nodes_outstanding(), after.total());

        // Survivors are intact, victims are gone.
        for k in (0..n).step_by(100) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k + 1), "survivor {k}");
        }
        for k in (1..n).step_by(97) {
            if k % 100 != 0 {
                assert_eq!(client.lookup(k).unwrap().0, None, "victim {k}");
            }
        }
        // Range scans cross the merge boundaries correctly.
        let (scan, _) = client.range(0, 10).unwrap();
        let expect: Vec<(u64, u64)> = (0..10).map(|i| (i * 100, i * 100 + 1)).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn full_drain_collapses_the_root() {
        let cluster = small_cluster(TreeOptions::sherman());
        let n = 3_000u64;
        cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
        assert!(cluster.root_hint().unwrap().level >= 2);
        let mut client = cluster.client(0);
        for k in 0..n {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert!(space.root_collapses > 0, "draining the tree must collapse the root");
        assert!(space.internal_merges > 0, "internal levels must merge too");
        assert!(
            cluster.root_hint().unwrap().level < 2,
            "root level should shrink, still {}",
            cluster.root_hint().unwrap().level
        );
        // The empty tree still works.
        assert_eq!(client.lookup(500).unwrap().0, None);
        client.insert(500, 7).unwrap();
        assert_eq!(client.lookup(500).unwrap().0, Some(7));
        let (scan, _) = client.range(0, 10).unwrap();
        assert_eq!(scan, vec![(500, 7)]);
    }

    #[test]
    fn retired_addresses_are_recycled_by_later_inserts() {
        // Zero grace period so reuse is immediate and deterministic.
        let mut config = ClusterConfig::small();
        config.tree.reclaim_grace_ns = 0;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        let n = 2_000u64;
        cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        for k in 0..n {
            client.delete(k).unwrap();
        }
        assert!(cluster.reclaim_stats().retired > 0);
        // Grow the tree again: the allocator must prefer recycled addresses
        // over fresh chunks.
        for k in 0..n {
            client.insert(k, k * 2).unwrap();
        }
        assert!(
            cluster.reclaim_stats().reused > 0,
            "re-growing after a drain should reuse retired nodes"
        );
        for k in (0..n).step_by(83) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k * 2));
        }
    }

    #[test]
    fn underfull_leaf_next_to_full_sibling_rebalances() {
        // Bulkload 100% full so the right sibling cannot absorb a merge;
        // draining the left leaf must *rebalance* (move entries, keep both
        // nodes) instead.
        let mut config = ClusterConfig::small();
        config.tree.leaf_fill = 1.0;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        let leaf_cap = cluster.layout().leaf_capacity() as u64;
        let n = leaf_cap * 30;
        cluster.bulkload((0..n).map(|k| (k, k + 7))).unwrap();
        let mut client = cluster.client(0);

        // Drain the first leaf down to a single key.
        for k in 1..leaf_cap {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert!(space.rebalances > 0, "full sibling should force a rebalance");
        assert_eq!(space.merges(), 0, "nothing can merge at 100% fill");
        assert_eq!(cluster.reclaim_stats().retired, 0);

        // Every surviving key is still reachable with its value.
        assert_eq!(client.lookup(0).unwrap().0, Some(7));
        for k in leaf_cap..n {
            if k % 7 == 0 {
                assert_eq!(client.lookup(k).unwrap().0, Some(k + 7), "key {k}");
            }
        }
        let (scan, _) = client.range(0, leaf_cap as usize * 2).unwrap();
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan[0], (0, 7));
    }

    #[test]
    fn disabling_structural_deletes_reproduces_grow_only_paper_behaviour() {
        let cluster = small_cluster(TreeOptions::sherman().without_structural_deletes());
        cluster.bulkload((0..2_000u64).map(|k| (k, k))).unwrap();
        let before = cluster.node_census().unwrap();
        let mut client = cluster.client(0);
        for k in 0..2_000u64 {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert_eq!(space.merges(), 0);
        assert_eq!(cluster.reclaim_stats().retired, 0);
        assert_eq!(cluster.node_census().unwrap(), before, "grow-only: no node freed");
    }

    #[test]
    fn merges_work_for_every_ablation_configuration() {
        for (name, options) in TreeOptions::ablation_ladder() {
            let cluster = small_cluster(options);
            let n = 1_200u64;
            cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            for k in 0..n {
                if k % 10 != 0 {
                    client.delete(k).unwrap();
                }
            }
            assert!(cluster.space_stats().leaf_merges > 0, "{name}: no merges");
            for k in (0..n).step_by(10) {
                assert_eq!(client.lookup(k).unwrap().0, Some(k), "{name}: survivor {k}");
            }
            let (scan, _) = client.range(0, 30).unwrap();
            assert_eq!(scan.len(), 30, "{name}");
            assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "{name}");
        }
    }

    #[test]
    fn operations_on_uninitialized_tree_fail_cleanly() {
        let cluster = small_cluster(TreeOptions::sherman());
        let mut client = cluster.client(0);
        assert!(matches!(
            client.lookup(1),
            Err(TreeError::NotInitialized)
        ));
    }
}
