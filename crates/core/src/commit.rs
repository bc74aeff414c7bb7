//! The write path's commit code: everything a write does between taking a
//! node lock and releasing it, as functions on the context ([`OpCx`]) the
//! operations share.
//!
//! * **leaf commit** ([`OpCx::leaf_commit`]) — acquire the leaf's exclusive
//!   lock, read and revalidate it, then write back either what changed of
//!   the single affected entry (two-level versions: all of it for an insert
//!   or update, its tag byte for a delete), planned on the image as read
//!   with no decoded leaf ([`PointWrite`]), or the whole node (sorted
//!   baselines);
//!   with command combination the read rides the lock acquisition and the
//!   lock release rides the write-back, one doorbell batch each,
//! * **split** — sort the leaf, move the upper half to a freshly allocated
//!   sibling, link it B-link style, and insert the separator into the parent
//!   (growing a new root when the split reaches the top),
//! * **merge** — pair an underfull node with a same-parent sibling, lock the
//!   pair and the parent in the lock manager's rank order, and merge or
//!   rebalance (collapsing the root when it runs out of separators).  A node
//!   is underfull below `merge_threshold` of its capacity, a level's first
//!   leaf only once empty (`OpCx::merge_floor`): a draining window deletes
//!   the pairs left there next, so they are not moved, and at most that one
//!   leaf of a tree sits below the threshold.
//!
//! A write (`crate::ops`) acquires the leaf lock itself
//! ([`OpCx::lock_and_read_head`], over `sherman_locks::LockManager::lock`)
//! and calls [`OpCx::leaf_commit`] with the image read under it.  The leaf
//! commit does not yield (it only holds the client, `Parking::hold`): the
//! leaf lock's release is posted before `leaf_commit` returns, and at most
//! that verb is left outstanding for the write to wait for.  What needs
//! *further* locks — the separator of a split, a merge — is handed back as a
//! [`Followup`] and run by the same operation ([`OpCx::run_followup`]), its
//! waits parked among its siblings' like any other: a separator insertion
//! holds at most one lock while it waits, and a merge waits for a lock only
//! in rank order (rule 3 below), so the local lock queue the client shares
//! with its siblings and the other clients of its compute server never
//! closes a cycle.
//!
//! ## A follow-up waits for what it depends on
//!
//! The follow-up is an `async fn`: every wait in it is an `.await` the
//! scheduler answers with its own completion.  With command
//! combination (`combine_commands`; without it every command waits for the
//! one before, as the baselines do) it posts independent commands together
//! and awaits a completion only where something depends on it, under three
//! ordering rules:
//!
//! 1. **Queue-pair order.**  Commands to one memory server apply in post
//!    order, so a write-back + release needs no wait before the next command
//!    to that server: a split's leaf write-back overlaps the traversal to the
//!    parent and the parent's lock + read, a delete's overlaps the merge's
//!    lock round, a merge's three write-back + release batches go out
//!    together.  Such verbs sit in `OpMeta::in_flight` until observed.
//! 2. **Right half before separator.**  The separator that makes a new right
//!    half reachable from its parent is written only after the right half's
//!    own write completed — it may live on another memory server, where
//!    queue-pair order says nothing (the B-link invariant: a node is
//!    reachable through its left sibling before it is through its parent).
//! 3. **Never wait out of rank.**  A merge first *tries* its three locks at
//!    once, each with its node read folded in, whatever their rank; a try
//!    never waits.  If any is lost, every lock won is given back and the
//!    locks are taken one after the other in the lock manager's rank order —
//!    the only way a lock is ever waited for while another is held.
//!
//! ## A structural write-back carries what changed
//!
//! Every structural commit holds the image it read under the lock when it
//! builds the new one, and most of a node survives a split's left half, a
//! separator's insertion, a merge or a tombstone — of an unsorted leaf every
//! slot whose key stays, because such a leaf is edited in place, never
//! re-packed ([`LeafNode::set_pairs`]; the leaf format alone decides), and
//! with command combination every slot whose key leaves too: a leaf owns the
//! keys between its fences alone, so such a slot stays as it was, stale, and
//! the tail word's bit for it is all that travels ([`LeafEdit::Lazy`]).  With
//! command combination the write-back of such a node (`OpCx::write_back`) is
//! planned from the two images ([`NodeLayout::plan_write_back`]): the changed
//! 8-byte words, runs fewer than a work-queue entry apart coalesced, as
//! ranges in the lock's one doorbell batch, so no commit gains a round trip.
//! They are posted as a
//! sequence lock ([`NodeLayout::post_order`]): the tail word with the rear
//! version first, the body, the word with the front version last.  A reader
//! that sees the pair equal therefore loaded the node wholly before or wholly
//! after the batch, however the two are paced — which the ascending order of
//! a single `RDMA_WRITE` (§4.4) promises only to a reader the writer never
//! catches up with, and a writer that skips unchanged words does catch up.
//! Of an internal node the header, the window of slots its separators fill
//! and the tail word are compared; no decoder reads the other slots.  A new
//! right half is planned against what its address holds
//! ([`AllocatedNode::holds`]): a fresh chunk's zeroes, so it travels as what
//! it holds; or, for an unsorted leaf, a tombstone a merge retired, whose
//! tag bytes are zero outside the *stale slots* recorded on the free list
//! ([`NodeLayout::tagged_slots`]: of a leaf the slots it left live, of an
//! internal node the leaf slots whose tag offset its bytes fill) — so the
//! right half sends its header, its tail, the slots it fills and the tag
//! word of each stale slot it leaves vacant
//! ([`NodeLayout::recycled_leaf_pre_image`]): a vacant slot is its tag to a
//! reader.  Its pairs land in key order on the stale slots, and the slots
//! nearest them, when that sends fewer bytes
//! ([`NodeLayout::place_recycled_leaf`]): a pair overwrites a stale tag.  An
//! internal right half sends its header, window and tail whatever its
//! address held ([`NodeLayout::internal_pre_image`]).  A node without a
//! pre-image (a new root, a leaf right half at an address of unknown
//! contents), a node that changed nearly all over, and
//! every node of an uncombined preset travel whole; so do the *point* writes
//! of sorted leaves, which "+2-Level Ver" is there to ablate.
//! A write-back is keyed by its node ([`WriteBack`]): the node's address, not
//! the address a range starts at, names the lock whose release it rides.

use crate::coherence::{self, PublishedCommit, StructuralCommit};
use crate::error::TreeError;
use crate::layout::{NodeLayout, FLAG_FREE};
use crate::node::{InternalNode, LeafEdit, LeafEntry, LeafNode, LeafSearch, NodeHeader, Step};
use crate::ops::{
    cached_from_internal, read_node, traverse, OpCx, OpMeta, RestartBudget, Route, WriteCommit,
    WriteKind,
};
use crate::TreeResult;
use sherman_cache::{CachedInternal, ChildRef};
use sherman_locks::AcquireOutcome;
use sherman_memserver::{AllocatedNode, Holds, ServerLayout, Tombstone};
use sherman_metrics::StructuralKind;
use sherman_sim::{FabricBackend, GlobalAddress, PendingVerb, WriteCmd};
use std::sync::Arc;

/// What the split tail and the merge planner need from a node, so that each
/// is written once for the tree's two node layouts.
trait TreeNode: Sized {
    /// Entries a merge adds beyond the two nodes' own: an internal merge
    /// pulls the pair's separator down from the parent, a leaf merge nothing.
    const JOIN: usize;
    fn decode(layout: &NodeLayout, buf: &[u8]) -> Self;
    fn encode(&self, layout: &NodeLayout) -> Vec<u8>;
    fn header_mut(&mut self) -> &mut NodeHeader;
    fn capacity(layout: &NodeLayout) -> usize;
    /// Live entries of a leaf, separators of an internal node.
    fn occupancy(&self) -> usize;
    /// The structural edits: take a retired sibling's contents, or re-divide
    /// a pair at one boundary, a leaf's slots rewritten as `edit` says
    /// ([`LeafNode::set_pairs`]).  Internal nodes are always sorted.
    fn absorb(&mut self, other: &Self, edit: LeafEdit);
    fn rebalance(&mut self, right: &mut Self, left_len: usize, edit: LeafEdit) -> u64;
    /// The image the index cache keeps of this node at `addr` (leaves are
    /// not cached).
    fn cached(&self, addr: GlobalAddress) -> Option<CachedInternal>;
}

impl TreeNode for LeafNode {
    const JOIN: usize = 0;
    fn decode(layout: &NodeLayout, buf: &[u8]) -> Self {
        layout.decode_leaf(buf)
    }
    fn encode(&self, layout: &NodeLayout) -> Vec<u8> {
        layout.encode_leaf(self)
    }
    fn header_mut(&mut self) -> &mut NodeHeader {
        &mut self.header
    }
    fn capacity(layout: &NodeLayout) -> usize {
        layout.leaf_capacity()
    }
    fn occupancy(&self) -> usize {
        self.live_count()
    }
    fn absorb(&mut self, other: &Self, edit: LeafEdit) {
        LeafNode::absorb(self, other, edit)
    }
    fn rebalance(&mut self, right: &mut Self, left_len: usize, edit: LeafEdit) -> u64 {
        LeafNode::rebalance(self, right, left_len, edit)
    }
    fn cached(&self, _addr: GlobalAddress) -> Option<CachedInternal> {
        None
    }
}

impl TreeNode for InternalNode {
    const JOIN: usize = 1;
    fn decode(layout: &NodeLayout, buf: &[u8]) -> Self {
        layout.decode_internal(buf)
    }
    fn encode(&self, layout: &NodeLayout) -> Vec<u8> {
        layout.encode_internal(self)
    }
    fn header_mut(&mut self) -> &mut NodeHeader {
        &mut self.header
    }
    fn capacity(layout: &NodeLayout) -> usize {
        layout.internal_capacity()
    }
    fn occupancy(&self) -> usize {
        self.entries.len()
    }
    fn absorb(&mut self, other: &Self, _edit: LeafEdit) {
        InternalNode::absorb(self, other)
    }
    fn rebalance(&mut self, right: &mut Self, left_len: usize, _edit: LeafEdit) -> u64 {
        InternalNode::rebalance(self, right, left_len)
    }
    fn cached(&self, addr: GlobalAddress) -> Option<CachedInternal> {
        Some(cached_from_internal(addr, self))
    }
}

/// What a committed leaf write still owes the tree: work that takes further
/// locks, started only with the leaf lock released and no sibling operation
/// of this client inside a lock acquisition (see the module docs).
pub(crate) enum Followup {
    /// The leaf split: `sibling`, its new right half, needs the separator
    /// `split_key` in the parent level.
    Separator {
        split_key: u64,
        sibling: GlobalAddress,
    },
    /// A delete left the leaf at `addr` (header as written back) below the
    /// merge floor.
    Merge {
        addr: GlobalAddress,
        header: NodeHeader,
    },
}

/// Which sibling a structural delete pairs the underfull node with.
///
/// The commit always operates on an adjacent `(left, right)` pair under one
/// parent.  A full merge retires the *right* node of the pair (B-link
/// safety: the survivor's sibling pointer skips the tombstone) — except at
/// a level's left edge, where an empty first leaf is retired in favour of its
/// right sibling: nothing but its parent's `leftmost` points at it
/// ([`OpCx::plan_merge`]).  The direction records which side the
/// *underfull* node is on:
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
/// from one image of its parent — the index cache's, or one read remotely by
/// `find_merge_pair`: the parent plus whichever adjacent siblings live under
/// it (both `None` for an only child).
struct MergePartners {
    parent: GlobalAddress,
    right_sibling: Option<GlobalAddress>,
    left_sibling: Option<GlobalAddress>,
}

impl MergePartners {
    /// Derive both candidate partners of the node at `node_addr` (header
    /// `hdr`) from `parent`'s image: the child routed right after the node
    /// (sanity-checked against the node's own B-link pointer and fence — any
    /// disagreement is a racing split or merge that the under-lock
    /// revalidation would reject) and the preceding child, or the parent's
    /// leftmost.  `None` when the image does not list the node.
    fn under(parent: &CachedInternal, node_addr: GlobalAddress, hdr: &NodeHeader) -> Option<Self> {
        let right_of = |next: Option<ChildRef>| {
            next.filter(|c| c.separator == hdr.fence_high && Some(c.child) == hdr.sibling)
                .map(|c| c.child)
        };
        let mut children = parent.children();
        if parent.leftmost() == node_addr {
            return Some(MergePartners {
                parent: parent.addr,
                right_sibling: right_of(children.next()),
                left_sibling: None,
            });
        }
        let mut left = parent.leftmost();
        while let Some(c) = children.next() {
            if c.separator == hdr.fence_low && c.child == node_addr {
                return Some(MergePartners {
                    parent: parent.addr,
                    right_sibling: right_of(children.next()),
                    left_sibling: (!left.is_null()).then_some(left),
                });
            }
            left = c.child;
        }
        None
    }
}

/// How one attempt on a `(left, right, parent)` triple ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairOutcome {
    /// A merge or a rebalance committed.
    Committed,
    /// The triple is what discovery said it was, but the planner had nothing
    /// to do; the locks were released untouched.
    Declined,
    /// Under the locks the triple turned out not to be a pair under that
    /// parent (discovery was stale, or lost a race); released untouched.
    Mismatch,
}

/// The write-back of one node: the commands that turn the image in memory
/// into the node's new one, in the order they are posted in.  It is the node,
/// not the address a command happens to start at, that names the lock word
/// whose release the commands ride.
struct WriteBack {
    node: GlobalAddress,
    cmds: Vec<WriteCmd>,
}

impl WriteBack {
    fn bytes(&self) -> u64 {
        self.cmds.iter().map(|c| c.data.len() as u64).sum()
    }
}

/// A point write planned on the image its leaf lock read: the slot it takes,
/// the entry it writes there, and the live entries it leaves the leaf.
struct PointWrite {
    slot: usize,
    entry: LeafEntry,
    live: usize,
}

impl PointWrite {
    /// Plan `kind` on `key` in the leaf image `image` with one pass over its
    /// slots ([`NodeLayout::probe_leaf`]): the first slot holding the key,
    /// else — an insert — the first vacant one, that entry alone decoded and
    /// installed, its versions bumped, or — a delete — vacated, its tag alone
    /// set to 0 ([`LeafEntry::vacate`]).  `None` for an insert into a full
    /// leaf, which splits, and for a delete of an absent key.  Beside the
    /// plan, what the probe read, as a lookup's search reports it
    /// ([`NodeLayout::leaf_search_bytes`] prices both): every slot's tag, the
    /// keys behind the matching ones, and the chosen slot's entry.
    fn plan(
        layout: &NodeLayout,
        image: &[u8],
        key: u64,
        kind: WriteKind,
    ) -> (Option<Self>, LeafSearch) {
        let probe = layout.probe_leaf(image, key);
        let slot = match kind {
            WriteKind::Insert { .. } => probe.slot.or(probe.vacant),
            WriteKind::Delete => probe.slot,
        };
        let read_at = |slot: usize| layout.decode_leaf_entry(&image[layout.leaf_entry_range(slot)]);
        let read = LeafSearch {
            entry: slot.map(read_at),
            torn: false,
            scanned: layout.leaf_capacity(),
            compared: probe.compared,
        };
        let write = slot.zip(read.entry).map(|(slot, mut entry)| {
            let live = match kind {
                WriteKind::Insert { value } => {
                    entry.install(key, value);
                    probe.live + usize::from(probe.slot.is_none())
                }
                WriteKind::Delete => {
                    entry.vacate();
                    probe.live - 1
                }
            };
            PointWrite { slot, entry, live }
        });
        (write, read)
    }

    /// The entry-granular write-back (two-level versions, §4.4) on the leaf
    /// at `leaf`, `image` its bytes: the span of the entry's bytes that
    /// changed travels — the whole entry of an insert or an update, whose
    /// versions bump, the tag byte alone of a delete.  An insert over a stale
    /// slot then clears its stale bit: the tail byte that holds it, a second
    /// command of the same batch.
    fn commands(&self, layout: &NodeLayout, leaf: GlobalAddress, image: &[u8]) -> Vec<WriteCmd> {
        let at = layout.leaf_entry_offset(self.slot);
        let new = layout.encode_leaf_entry(&self.entry);
        let mut changed = (0..new.len()).filter(|&i| new[i] != image[at + i]);
        let start = changed.next().unwrap_or(0);
        let end = changed.next_back().unwrap_or(start) + 1;
        let mut cmds = vec![WriteCmd::new(leaf.add((at + start) as u64), new[start..end].to_vec())];
        if layout.marked_stale(image, self.slot) {
            let (at, bit) = layout.stale_bit(self.slot);
            cmds.push(WriteCmd::new(leaf.add(at as u64), vec![image[at] & !bit]));
        }
        cmds
    }
}

/// What a structural-delete attempt decided to commit: the new images of the
/// pair, whose write-backs ride the lock releases, plus the decoded survivor
/// state the post-commit bookkeeping needs — carried here so the commit path
/// does not re-decode bytes the planner just encoded.
struct MergePlan {
    left_bytes: Vec<u8>,
    right_bytes: Vec<u8>,
    /// The left node's cacheable image (internal levels only).
    left_image: Option<CachedInternal>,
    change: PairChange,
}

enum PairChange {
    /// One node of the pair absorbed the other, whose image is now the freed
    /// (free-bit set, version-bumped) `tombstone` (recorded with the
    /// retirement: the next writer of the address stamps its image above the
    /// tombstone's version, and clears the tags the tombstone left non-zero).
    /// The left node survives unless `kept_right`: at its level's left edge
    /// an empty first leaf was retired in favour of its right sibling.
    /// `still_underfull`: the survivor itself ended up below the merge floor.
    Merge {
        tombstone: Tombstone,
        kept_right: bool,
        still_underfull: bool,
    },
    /// Entries moved between the siblings (neither node is freed); the
    /// parent's separator for the right node must move to `new_sep`.
    Rebalance { new_sep: u64 },
}

impl<B: FabricBackend> OpCx<'_, B> {
    fn layout(&self) -> &NodeLayout {
        self.cluster.layout()
    }

    fn combine(&self) -> bool {
        self.cluster.options().combine_commands
    }

    /// How a structural edit rewrites a leaf's slots: re-packed in a sorted
    /// format; in place otherwise, the slots of the keys that leave left
    /// stale where the write-back is planned, and cleared where it travels
    /// whole and a cleared slot costs nothing.
    fn leaf_edit(&self) -> LeafEdit {
        match (self.leaf_format().is_sorted(), self.combine()) {
            (true, _) => LeafEdit::Repack,
            (false, false) => LeafEdit::Clear,
            (false, true) => LeafEdit::Lazy,
        }
    }

    /// Plan the write-back of the node at `node`, whose new image is `new`.
    /// With command combination and `pre`, the image the commit read under
    /// the node's lock, only what changed travels
    /// ([`NodeLayout::plan_write_back`]): a multi-range write-back *is*
    /// command combination, the ranges ride the one doorbell batch that
    /// releases the lock, rear version first and front version last
    /// ([`NodeLayout::post_order`]).  The whole node travels without
    /// combination and when there is no pre-image (an address of unknown
    /// contents).
    fn write_back(&self, node: GlobalAddress, pre: Option<&[u8]>, new: Vec<u8>) -> WriteBack {
        let planned = pre
            .filter(|_| self.combine())
            .map(|pre| self.layout().plan_write_back(pre, &new));
        let cmds = match planned {
            Some(mut ranges) if ranges.iter().all(|r| r.len() < new.len()) => {
                NodeLayout::post_order(&mut ranges);
                let cmd = |r: std::ops::Range<usize>| {
                    WriteCmd::new(node.add(r.start as u64), new[r].to_vec())
                };
                ranges.into_iter().map(cmd).collect()
            }
            _ => vec![WriteCmd::new(node, new)],
        };
        WriteBack { node, cmds }
    }

    /// Occupancy below which the node `header` heads becomes a merge
    /// candidate: `merge_threshold` of its capacity, except that its level's
    /// first leaf (lower fence 0) merges only once empty.  A draining window
    /// deletes the pairs left in that leaf next, so freed at empty it moves
    /// none of them (Johnson and Shasha's free-at-empty); being one leaf, it
    /// is the one node of a tree below the floor by this rule.
    fn merge_floor(&self, header: &NodeHeader) -> usize {
        let cap = match header.is_leaf {
            true => self.layout().leaf_capacity(),
            false => self.layout().internal_capacity(),
        };
        let floor = (cap as f64 * self.cluster.options().merge_threshold).floor() as usize;
        match header.is_leaf && header.fence_low == 0 {
            true => floor.min(1),
            false => floor,
        }
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Acquire the exclusive lock on `addr`, folding the outcome into `meta`.
    async fn acquire_lock(&self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<()> {
        let mgr = self.cluster.lock_manager();
        let (acq, _) = mgr.lock(&self.parking, addr, None).await?;
        Self::note_acquired(acq, meta);
        Ok(())
    }

    /// Fold one lock acquisition into `meta`.
    fn note_acquired(acq: AcquireOutcome, meta: &mut OpMeta) {
        meta.lock_retries += acq.remote_retries;
        meta.handed_over |= acq.handed_over;
    }

    /// The head of every single-node commit: the lock on `addr`, each step
    /// of its acquisition a lock park, and the node under it.  With command
    /// combination the READ rides the acquiring CAS's doorbell batch (the
    /// lock word is co-located with its node, hence on the same queue pair),
    /// so the head costs one round trip; without it, the lock and the read
    /// are two dependent ones, the READ waiting like every other command of
    /// an uncombined preset.  Returns the node image.  The caller charges the
    /// CPU of what it reads of the image: a point write what its probe read
    /// ([`OpCx::leaf_commit`]), a separator insertion the whole node.
    pub(crate) async fn lock_and_read_head(
        &self,
        addr: GlobalAddress,
        meta: &mut OpMeta,
    ) -> TreeResult<Vec<u8>> {
        let read = self.combine().then(|| self.layout().node_size());
        let (acq, image) = self.cluster.lock_manager().lock(&self.parking, addr, read).await?;
        Self::note_acquired(acq, meta);
        if !self.combine() {
            return self.read_node_locked(addr).await;
        }
        Ok(image)
    }

    /// [`OpCx::lock_and_read_head`] for the separator insertion a
    /// [`Followup`] runs, charged the whole node.
    async fn lock_and_read(&self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<Vec<u8>> {
        let image = self.lock_and_read_head(addr, meta).await?;
        self.scan_cpu(image.len()).await;
        Ok(image)
    }

    /// Release the exclusive lock on `addr`, flushing `writes` according to
    /// the command-combination setting ([`sherman_locks::LockManager::unlock`]),
    /// holding the client for every verb the release waits for — the final
    /// one too when `wait_final`.  Otherwise the final verb is returned, in
    /// flight: its memory effect (lock word cleared, write-backs applied)
    /// landed at post time, so the critical section ends here even though the
    /// completion is still outstanding (`None` when a local handover made the
    /// release purely local).
    async fn unlock(
        &self,
        addr: GlobalAddress,
        writes: Vec<WriteCmd>,
        wait_final: bool,
    ) -> TreeResult<Option<PendingVerb>> {
        let mgr = self.cluster.lock_manager();
        let (_, last) = mgr
            .unlock(&self.parking, addr, writes, self.combine(), wait_final)
            .await?;
        Ok(last)
    }

    /// Release the exclusive lock on `addr`, its completion observed before
    /// returning.
    async fn release_lock(&self, addr: GlobalAddress, writes: Vec<WriteCmd>) -> TreeResult<()> {
        self.unlock(addr, writes, true).await?;
        Ok(())
    }

    /// Release the lock on `addr` ahead of a follow-up.  With command
    /// combination the write-back + release is posted and left in
    /// `meta.in_flight` (ordering rule 1 of the module docs); without it the
    /// completion is observed here, like that of every other command.
    async fn release_lock_ahead(
        &self,
        addr: GlobalAddress,
        writes: Vec<WriteCmd>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let last = self.unlock(addr, writes, !self.combine()).await?;
        meta.in_flight.extend(last);
        Ok(())
    }

    /// Allocate a node, holding the client while a chunk request is in
    /// flight.
    async fn alloc_node(&self) -> TreeResult<AllocatedNode> {
        Ok(self.allocator.alloc(&self.parking).await?)
    }

    /// Wait for every verb the operation's commit left in flight.
    async fn observe(&self, meta: &mut OpMeta) {
        for token in std::mem::take(&mut meta.in_flight) {
            self.wait(token).await;
        }
    }

    /// Lock `nodes` — a merge's `(left, right, parent)` — and read them under
    /// their locks.  Returns the lock plan (the lock-word representatives, in
    /// the manager's rank order) and the three images.  With command
    /// combination the plan is first tried in one round trip
    /// ([`OpCx::try_plan`]); the rank-ordered acquisition is the fallback,
    /// and the whole of it without.  An `Err` leaves no lock held.
    async fn lock_and_read_plan(
        &self,
        nodes: [GlobalAddress; 3],
        meta: &mut OpMeta,
    ) -> TreeResult<(Vec<GlobalAddress>, [Vec<u8>; 3])> {
        let plan = self.cluster.lock_manager().lock_plan(&nodes);
        let tried = match self.combine() {
            true => self.try_plan(&plan, meta).await?,
            false => None,
        };
        let mut read: Vec<(GlobalAddress, Vec<u8>)> = match tried {
            Some(images) => plan.iter().copied().zip(images).collect(),
            None => {
                self.acquire_plan(&plan, meta).await?;
                Vec::new()
            }
        };
        // What the attempt did not read: everything on the fallback, and on a
        // won attempt the nodes that share a representative's lock word.
        let unread: Vec<GlobalAddress> = nodes
            .into_iter()
            .filter(|node| !read.iter().any(|(rep, _)| rep == node))
            .collect();
        match self.read_nodes_locked(&unread).await {
            Ok(images) => read.extend(unread.into_iter().zip(images)),
            Err(e) => {
                self.abandon_plan(&plan).await?;
                return Err(e);
            }
        }
        let image_of = |node| {
            let found = read.iter().find(|(addr, _)| *addr == node);
            found.expect("every node of the plan was read").1.clone()
        };
        Ok((plan, nodes.map(image_of)))
    }

    /// One optimistic attempt at every lock of `plan` at once: the attempts —
    /// each a CAS with the READ of its node folded in — are posted together
    /// and awaited together, one round trip for the lot, which whatever the
    /// commit left in flight overlaps too.  An attempt never queues and is
    /// never re-posted, so the order of the words does not matter (ordering
    /// rule 3 of the module docs).  Returns the images in plan order, or
    /// `None` — every word won given back — if any word was lost; an `Err`
    /// leaves no lock held either.
    async fn try_plan(
        &self,
        plan: &[GlobalAddress],
        meta: &mut OpMeta,
    ) -> TreeResult<Option<Vec<Vec<u8>>>> {
        let mgr = self.cluster.lock_manager();
        let node_size = self.layout().node_size();
        let counters = self.cluster.space_counters();
        counters.optimistic_plans.inc();
        // Post: a word that is lost (or rejected) on the spot ends the plan.
        let mut attempts = Vec::with_capacity(plan.len());
        let mut failed = None;
        for &rep in plan {
            match mgr.try_lock(&self.parking, rep, Some(node_size)) {
                Ok(Some(attempt)) => attempts.push((rep, attempt)),
                Ok(None) => break,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.observe(meta).await;
        // Await: learn which words were won (a word lost is one retry).
        let mut won = Vec::with_capacity(plan.len());
        for (rep, attempt) in attempts {
            match attempt.await {
                Some(image) => won.push((rep, image)),
                None => meta.lock_retries += 1,
            }
        }
        if won.len() == plan.len() {
            self.scan_cpu(plan.len() * node_size).await;
            return Ok(Some(won.into_iter().map(|(_, image)| image).collect()));
        }
        counters.plan_fallbacks.inc();
        let held: Vec<GlobalAddress> = won.into_iter().map(|(rep, _)| rep).collect();
        self.abandon_plan(&held).await?;
        failed.map_or(Ok(None), |e| Err(e.into()))
    }

    /// Acquire the locks of `plan` one after the other, in its (rank) order:
    /// the only place a lock is waited for while others are held.  An `Err`
    /// gives back the locks acquired before it.
    async fn acquire_plan(&self, plan: &[GlobalAddress], meta: &mut OpMeta) -> TreeResult<()> {
        for (held, &rep) in plan.iter().enumerate() {
            if let Err(e) = self.acquire_lock(rep, meta).await {
                self.abandon_plan(&plan[..held]).await?;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Release every lock of `plan` (in reverse acquisition order), flushing
    /// each node's write-back with the release of the lock word guarding it.
    /// With command combination the batches are posted together and awaited
    /// once; a release that fails does not keep the others from going out.
    ///
    /// Demands proof that the commit's coherence messages were posted: a
    /// [`PublishedCommit`] only exists after [`coherence::publish`] ran, so a
    /// commit path that skips publishing does not compile (see the
    /// `crate::coherence` module docs for the protocol).
    async fn release_plan(
        &self,
        plan: &[GlobalAddress],
        mut writes: Vec<WriteBack>,
        _published: &PublishedCommit,
    ) -> TreeResult<()> {
        let mgr = self.cluster.lock_manager();
        let combine = self.combine();
        let mut posted = Vec::with_capacity(plan.len());
        let mut failed = None;
        for &rep in plan.iter().rev() {
            let (batch, rest): (Vec<_>, Vec<_>) =
                writes.into_iter().partition(|w| mgr.same_lock(rep, w.node));
            writes = rest;
            let batch = batch.into_iter().flat_map(|w| w.cmds).collect();
            // Uncombined, every command waits for the one before it.
            match self.unlock(rep, batch, !combine).await {
                Ok(last) => posted.extend(last),
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        assert!(writes.is_empty(), "write-back without a guarding lock");
        for token in posted {
            self.wait(token).await;
        }
        failed.map_or(Ok(()), Err)
    }

    /// Release an untouched lock plan: nothing was written, so the commit
    /// published is the empty one.
    async fn abandon_plan(&self, plan: &[GlobalAddress]) -> TreeResult<()> {
        let published = self.publish_commit(StructuralCommit::new());
        self.release_plan(plan, Vec::new(), &published).await?;
        published.retire_all(self.cluster, self.ctx().now());
        Ok(())
    }

    /// Publish a structural commit's coherence messages, trading the
    /// builder for the [`PublishedCommit`] proof that `release_plan` and
    /// retirement demand.  Runs under the commit's locks.
    fn publish_commit(&self, commit: StructuralCommit) -> PublishedCommit {
        coherence::publish(self.cluster, &mut self.ctx(), self.cs_id, commit)
    }

    // ------------------------------------------------------------------
    // Node reads
    // ------------------------------------------------------------------

    /// Read a node image while holding its exclusive lock (no retry loop
    /// needed: writers are excluded, readers never modify), holding the
    /// client: the body of a leaf commit does not yield.  The caller charges
    /// the CPU of what it reads of the image.
    async fn read_node_locked(&self, addr: GlobalAddress) -> TreeResult<Vec<u8>> {
        let token = self.ctx().post_read(addr, self.layout().node_size())?;
        Ok(self.hold(token).await.result.into_read())
    }

    /// Read node images whose locks are all held.  The reads are
    /// independent, so with command combination they are posted together and
    /// share a round trip; without it each waits for the one before, like
    /// every other command of an uncombined preset.
    async fn read_nodes_locked(&self, addrs: &[GlobalAddress]) -> TreeResult<Vec<Vec<u8>>> {
        let node_size = self.layout().node_size();
        if !self.combine() {
            let mut images = Vec::with_capacity(addrs.len());
            for &addr in addrs {
                images.push(self.read_node_locked(addr).await?);
                self.scan_cpu(node_size).await;
            }
            return Ok(images);
        }
        if addrs.is_empty() {
            return Ok(Vec::new());
        }
        let reqs: Vec<(GlobalAddress, usize)> = addrs.iter().map(|&a| (a, node_size)).collect();
        let token = self.ctx().post_read_batch(&reqs)?;
        let images = self.wait(token).await.result.into_read_batch();
        self.scan_cpu(addrs.len() * node_size).await;
        Ok(images)
    }

    /// Read the 8-byte word at `addr`.
    async fn read_word(&self, addr: GlobalAddress) -> TreeResult<u64> {
        let token = self.ctx().post_read(addr, 8)?;
        let bytes = self.wait(token).await.result.into_read();
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("an 8-byte read"),
        ))
    }

    /// Write `data` at `addr`.
    async fn write_at(&self, addr: GlobalAddress, data: Vec<u8>) -> TreeResult<()> {
        let token = self.ctx().post_write_batch(&[WriteCmd::new(addr, data)])?;
        self.wait(token).await;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Leaf commit
    // ------------------------------------------------------------------

    /// The body of the write critical section, run without yielding on the
    /// leaf at `addr` with its lock held and `buf` its image as read under the
    /// lock: revalidate its header, apply `kind` to the key's slot, write
    /// back and release.  The image is not decoded: one pass over its slots
    /// finds the key's slot, the first vacant one and the live count
    /// ([`PointWrite::plan`]), and only a leaf that splits, or one of a sorted
    /// format whose point write re-packs it, is decoded whole.  On the fast
    /// path the combined write-back + release verb is posted split-phase and
    /// returned for the caller to park on.  A full leaf is split here — new
    /// right half and both images written with the release — and a leaf left
    /// underfull is written back as is; what either still owes the tree
    /// takes further locks and is returned as a [`Followup`], which finds the
    /// leaf's release in `meta.in_flight` (posted; observed already without
    /// command combination).
    pub(crate) async fn leaf_commit(
        &self,
        addr: GlobalAddress,
        route: Route,
        key: u64,
        kind: WriteKind,
        buf: &[u8],
        meta: &mut OpMeta,
    ) -> TreeResult<WriteCommit> {
        let layout = self.layout();
        // Read whole: a sorted leaf, which a point write re-packs, and any
        // leaf without command combination, whose presets cost what they did
        // before a commit was planned on the image.
        let whole = self.leaf_format().is_sorted() || !self.combine();
        let header = layout.decode_header(buf);
        if header.step(key, 0) != Step::Here {
            self.scan_cpu(match whole {
                true => buf.len(),
                false => layout.leaf_search_bytes(&LeafSearch::default()),
            })
            .await;
            let release = self.unlock(addr, Vec::new(), false).await?;
            let next = self.step(key, 0, addr, &header, route).right();
            return Ok(WriteCommit::Retry { next, release });
        }

        // Insert, update and delete differ in the slot they pick, in what
        // they do to it, and in what happens when there is none.
        let (write, read) = PointWrite::plan(layout, buf, key, kind);
        // The CPU of what the commit read of the image: what the probe read,
        // unless the leaf is read whole or splits — a split reads the whole
        // leaf, and sorts it (`split_leaf`).
        let splits = write.is_none() && kind != WriteKind::Delete;
        self.scan_cpu(match whole || splits {
            true => buf.len(),
            false => layout.leaf_search_bytes(&read),
        })
        .await;
        let Some(write) = write else {
            return Ok(match kind {
                // Boxed, like the follow-ups: splits are rare, and every
                // operation's future would otherwise be the size of this one.
                WriteKind::Insert { value } => WriteCommit::Structural(
                    Box::pin(self.split_leaf(addr, buf, key, value, meta)).await?,
                ),
                WriteKind::Delete => WriteCommit::Committed {
                    found: false,
                    release: self.unlock(addr, Vec::new(), false).await?,
                },
            });
        };
        let writes = self.leaf_writeback(addr, buf, &write).await;

        // Structural deletes (§ beyond the paper): once a delete drops the
        // leaf below the merge threshold, pair it with a sibling and merge or
        // rebalance.
        if kind == WriteKind::Delete
            && self.cluster.options().structural_deletes_enabled()
            && write.live < self.merge_floor(&header)
        {
            Box::pin(self.release_lock_ahead(addr, writes, meta)).await?;
            return Ok(WriteCommit::Structural(Followup::Merge { addr, header }));
        }
        Ok(WriteCommit::Committed {
            found: true,
            release: self.unlock(addr, writes, false).await?,
        })
    }

    /// Pay what a committed leaf write still owes the tree.  Takes further
    /// locks, and waits for them, holding at most one or waiting in rank
    /// order.  Nothing the commit posted is left in flight when this returns.
    pub(crate) async fn run_followup(
        &self,
        followup: Followup,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let paid = match followup {
            Followup::Separator { split_key, sibling } => {
                self.insert_separator_at(split_key, sibling, 1, meta).await
            }
            // Best-effort — the delete itself has already committed, so a
            // merge that loses its races (retry budgets included) must not
            // fail the operation; a later delete will retry it.
            Followup::Merge { addr, header } => {
                match self.try_merge(addr, 0, Some(&header), meta).await {
                    Ok(()) | Err(TreeError::RetriesExhausted { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            }
        };
        self.observe(meta).await;
        paid
    }

    /// Build the write-back of `write` on the leaf at `addr`, `pre` its image.
    async fn leaf_writeback(
        &self,
        addr: GlobalAddress,
        pre: &[u8],
        write: &PointWrite,
    ) -> Vec<WriteCmd> {
        if !self.leaf_format().is_sorted() {
            return write.commands(self.layout(), addr, pre);
        }
        // Sorted layouts shift entries and write the whole node back.
        let mut leaf = self.layout().decode_leaf(pre);
        leaf.entries[write.slot] = write.entry;
        let pairs = leaf.sorted_pairs();
        leaf.repack_sorted(&pairs);
        leaf.header.bump_versions();
        self.scan_cpu(self.layout().node_size()).await;
        vec![WriteCmd::new(addr, leaf.encode(self.layout()))]
    }

    // ------------------------------------------------------------------
    // Splits, separator insertion, root growth
    // ------------------------------------------------------------------

    /// Split the full, locked leaf at `addr` (`pre` its image) around the new
    /// `key`: both halves are written back with the release of its lock; the
    /// new right half still needs its separator in the parent level.
    async fn split_leaf(
        &self,
        addr: GlobalAddress,
        pre: &[u8],
        key: u64,
        value: u64,
        meta: &mut OpMeta,
    ) -> TreeResult<Followup> {
        let layout = *self.layout();
        let mut leaf = layout.decode_leaf(pre);
        let edit = self.leaf_edit();
        // Sorting the (possibly unsorted) leaf before the split costs local
        // CPU time (Figure 7, line 21).
        self.scan_cpu(layout.node_size()).await;
        let (split_key, mut right) = leaf.split(&layout, edit);

        // Place the new key into the correct half.
        let target = if key >= split_key {
            &mut right
        } else {
            &mut leaf
        };
        let slot = target
            .vacant_slot()
            .expect("post-split halves have vacant slots");
        target.entries[slot].install(key, value);
        if edit == LeafEdit::Repack {
            let pairs = target.sorted_pairs();
            target.repack_sorted(&pairs);
        }
        let sibling = self.install_right_half(addr, pre, &mut leaf, &mut right, meta).await?;
        Ok(Followup::Separator { split_key, sibling })
    }

    /// The tail of every split, run under the lock on `addr` (`pre` the image
    /// read under it): allocate the right half's node, link it behind `left`
    /// B-link style, and write both halves back with the release of the lock
    /// — of the left half what the split changed, of the right half what it
    /// holds when its memory is fresh (all zero) or, for an unsorted leaf, a
    /// merge's tombstone (what it holds, on the tombstone's stale slots when
    /// that sends fewer bytes, and the tags of the stale slots it leaves
    /// vacant: [`NodeLayout::place_recycled_leaf`]); of an internal node its
    /// header, window and tail whatever its address held
    /// ([`NodeLayout::internal_pre_image`]); else the whole node.
    /// Returns the new node's address; with command combination the writes
    /// are left in `meta.in_flight` for the separator insertion to overlap
    /// and — the right half's — to observe before it writes (ordering rule 2).
    async fn install_right_half<N: TreeNode>(
        &self,
        addr: GlobalAddress,
        pre: &[u8],
        left: &mut N,
        right: &mut N,
        meta: &mut OpMeta,
    ) -> TreeResult<GlobalAddress> {
        let alloc = match self.alloc_node().await {
            Ok(a) => a,
            Err(e) => {
                // Do not leak the node lock when the cluster is out of memory.
                self.release_lock(addr, Vec::new()).await?;
                return Err(e);
            }
        };
        left.header_mut().sibling = Some(alloc.addr);
        // A recycled address still holds its tombstone; the first image
        // written there must be stamped above the tombstone's version so
        // versions bump across reuse (fresh carves seed at version 1, the
        // same value the pre-reuse code produced).
        right.header_mut().set_versions(alloc.first_version());
        let new = right.encode(self.layout());
        let is_leaf = right.header_mut().is_leaf;
        let unsorted_leaf = is_leaf && !self.leaf_format().is_sorted();
        let (held, new) = match &alloc.holds {
            Holds::Zeroes => (Some(vec![0u8; new.len()]), new),
            Holds::LeafTombstone(stale) if unsorted_leaf && self.combine() => {
                let (placed, pre) = self.layout().place_recycled_leaf(new, stale);
                (Some(pre), placed)
            }
            // A decoder reads an internal node's header, window and tail
            // alone, whatever the rest of its address holds.
            _ if !is_leaf => (Some(self.layout().internal_pre_image(&new)), new),
            _ => (None, new),
        };
        let right_half = self.write_back(alloc.addr, held.as_deref(), new);
        let left_half = self.write_back(addr, Some(pre), left.encode(self.layout()));
        let written_back = right_half.bytes() + left_half.bytes();
        let mut writes = Vec::with_capacity(1 + left_half.cmds.len());
        if alloc.addr.ms == addr.ms {
            // Same memory server: the sibling write-back joins the combined
            // batch (write sibling, write node, release lock — one round trip).
            writes.extend(right_half.cmds);
        } else {
            // Another queue pair: posted first, beside the batch.
            let sent = self.ctx().post_write_batch(&right_half.cmds);
            match sent {
                Ok(token) if self.combine() => meta.in_flight.push(token),
                Ok(token) => {
                    self.hold(token).await;
                }
                Err(e) => {
                    // Neither the node lock nor the carved node may leak.
                    self.release_lock(addr, Vec::new()).await?;
                    self.retire_unlinked(alloc.addr, alloc.version_floor);
                    return Err(e.into());
                }
            }
        }
        writes.extend(left_half.cmds);
        self.cluster.space_counters().record_structural_commit(StructuralKind::Split, written_back);
        self.release_lock_ahead(addr, writes, meta).await?;
        Ok(alloc.addr)
    }

    /// Retire a node that never became reachable (its image, if one was
    /// written, has node-level version `version`) — through the same publish
    /// → retire protocol as every other retirement: a racing reader may have
    /// cached a stale pointer to the address, and the invariant "every
    /// retirement posted its invalidations" stays uniform.
    fn retire_unlinked(&self, addr: GlobalAddress, version: u8) {
        let mut commit = StructuralCommit::new();
        commit.invalidate(addr, Tombstone::unknown(version));
        let published = self.publish_commit(commit);
        published.retire_all(self.cluster, self.ctx().now());
    }

    /// Insert the separator `sep_key → child` at `parent_level`, splitting
    /// upward as far as it takes.  The traversal and the parent's lock + read
    /// overlap whatever the split below left in flight.
    async fn insert_separator_at(
        &self,
        sep_key: u64,
        child: GlobalAddress,
        parent_level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let mut restarts = RestartBudget::new(self);
        let mut pending: Option<GlobalAddress> = None;
        loop {
            restarts.begin(self, "separator insertion")?;
            let (_, root_level) = self.root().await?;
            if root_level < parent_level {
                // The new root makes `child` reachable from above.
                self.observe(meta).await;
                if self.try_grow_root(sep_key, child, parent_level).await? {
                    return Ok(());
                }
                continue;
            }
            let (addr, route) = match pending.take() {
                Some(sibling) => (sibling, Route::Read),
                None => traverse(self, meta, sep_key, parent_level, None).await?,
            };
            let buf = self.lock_and_read(addr, meta).await?;
            let mut node = self.layout().decode_internal(&buf);
            let step = self.step(sep_key, parent_level, addr, &node.header, route);
            if step != Step::Here {
                self.release_lock(addr, Vec::new()).await?;
                pending = step.right();
                continue;
            }
            // Either branch below makes `child` reachable from this node:
            // `child`'s own write must have completed first.  (The lock +
            // read round trip that just ended was its overlap.)
            self.observe(meta).await;

            if !node.is_full(self.layout()) {
                node.insert_separator(sep_key, child, self.layout());
                node.header.bump_versions();
                let write_back = self.write_back(addr, Some(&buf), node.encode(self.layout()));
                let counters = self.cluster.space_counters();
                counters.record_structural_commit(StructuralKind::Separator, write_back.bytes());
                self.release_lock(addr, write_back.cmds).await?;
                self.offer_written(&[(addr, &node)], root_level);
                return Ok(());
            }

            // Split the internal node and propagate upward.
            let (promoted, mut right) = node.split();
            if sep_key >= promoted {
                right.insert_separator(sep_key, child, self.layout());
            } else {
                node.insert_separator(sep_key, child, self.layout());
            }
            let installed = self.install_right_half(addr, &buf, &mut node, &mut right, meta);
            let right_addr = installed.await?;
            // The right half first: it adopts the cached children it took
            // along before the narrowed left image stops covering them.
            self.offer_written(&[(right_addr, &right), (addr, &node)], root_level);
            // Boxed: a future cannot contain itself.
            return Box::pin(self.insert_separator_at(
                promoted,
                right_addr,
                parent_level + 1,
                meta,
            ))
            .await;
        }
    }

    /// Offer the index cache the fresh image of every internal node a commit
    /// just wrote back, whatever its level: the committer holds the only
    /// up-to-date copy, and an image already cached is healed in place.
    fn offer_written(&self, written: &[(GlobalAddress, &InternalNode)], root_level: u8) {
        let cache = self.cluster.cache(self.cs_id);
        for &(addr, node) in written {
            cache.offer(Arc::new(cached_from_internal(addr, node)), root_level);
        }
    }

    /// Swing the root pointer from `packed` to `new_root` (the linearization
    /// point of root growth and root collapse) and, on success, update the
    /// level hint remotely and locally.  Returns whether the CAS won.
    async fn swing_root(
        &self,
        packed: u64,
        new_root: GlobalAddress,
        new_level: u8,
    ) -> TreeResult<bool> {
        let root_ptr = self.cluster.root_ptr_addr();
        let token = self.ctx().post_cas(root_ptr, packed, new_root.pack())?;
        if !self.wait(token).await.result.into_cas().succeeded {
            return Ok(false);
        }
        let level = (new_level as u64).to_le_bytes().to_vec();
        self.write_at(ServerLayout::level_hint_addr(), level)
            .await?;
        self.cluster.set_root_hint(new_root, new_level);
        Ok(true)
    }

    /// Attempt to install a new root above the current one.  Returns `false`
    /// if another client won the race (the caller then retries the normal
    /// separator insertion).
    async fn try_grow_root(
        &self,
        sep_key: u64,
        right_child: GlobalAddress,
        new_level: u8,
    ) -> TreeResult<bool> {
        let packed = self.read_word(self.cluster.root_ptr_addr()).await?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let old_root = GlobalAddress::unpack(packed);
        // Verify the old root really is one level below the root we intend to
        // create; otherwise someone else already grew the tree.
        let buf = read_node(self, &mut OpMeta::default(), old_root).await?;
        self.scan_cpu(buf.len()).await;
        let header = self.layout().decode_header(&buf);
        if header.free || header.level + 1 != new_level {
            return Ok(false);
        }

        let alloc = self.alloc_node().await?;
        let mut new_root = InternalNode::new(new_level, 0, u64::MAX, old_root);
        new_root.insert_separator(sep_key, right_child, self.layout());
        // Stamp above any tombstone left at a recycled address (versions bump
        // across reuse).
        new_root.header.set_versions(alloc.first_version());
        // The new root is not reachable yet, so no lock is needed for this
        // write; the root-pointer CAS is the linearization point.
        let image = new_root.encode(self.layout());
        let written = image.len() as u64;
        self.write_at(alloc.addr, image).await?;
        if self.swing_root(packed, alloc.addr, new_level).await? {
            let counters = self.cluster.space_counters();
            counters.record_structural_commit(StructuralKind::RootGrowth, written);
            self.offer_written(&[(alloc.addr, &new_root)], new_level);
            return Ok(true);
        }
        // Lost the race: mark our orphan node free so later readers that
        // stumble on it via stale pointers reject it.
        self.write_at(alloc.addr.add(1), vec![FLAG_FREE]).await?;
        // The orphan was never reachable, so its address is retired right
        // away instead of leaking.
        self.retire_unlinked(alloc.addr, new_root.header.front_version);
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Structural deletes: merge, rebalance, root collapse, reclamation
    // ------------------------------------------------------------------

    /// Resolve the node's parent (lock-free, one remote read of it) and derive
    /// both candidate merge partners from its image
    /// ([`MergePartners::under`]).  The answer is `None` when the node cannot
    /// be located under the covering parent (a stale header or a lost
    /// discovery race — the merge is opportunistic either way).
    async fn find_merge_pair(
        &self,
        node_addr: GlobalAddress,
        hdr: &NodeHeader,
        level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<Option<MergePartners>> {
        let (_, root_level) = self.root().await?;
        if root_level < level + 1 {
            return Ok(None);
        }
        let mut restarts = RestartBudget::new(self);
        let mut pending: Option<GlobalAddress> = None;
        while restarts.begin(self, "merge discovery").is_ok() {
            let (addr, route) = match pending.take() {
                Some(sibling) => (sibling, Route::Read),
                None => match traverse(self, meta, hdr.fence_low, level + 1, None).await {
                    Ok(found) => found,
                    Err(TreeError::RetriesExhausted { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                },
            };
            let buf = read_node(self, meta, addr).await?;
            self.scan_cpu(buf.len()).await;
            let parent = self.layout().decode_internal(&buf);
            match self.step(hdr.fence_low, level + 1, addr, &parent.header, route) {
                Step::Here => {
                    let image = cached_from_internal(addr, &parent);
                    return Ok(MergePartners::under(&image, node_addr, hdr));
                }
                step => pending = step.right(),
            }
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
    /// node, the right node and the parent are all locked and re-validated;
    /// any mismatch releases the locks untouched.
    ///
    /// `known_hdr` lets the delete path pass the leaf header it already holds
    /// (saving a remote read); the cascade path passes `None`.  Either way the
    /// header only seeds discovery — phase 2 re-validates under the locks.
    async fn try_merge(
        &self,
        node_addr: GlobalAddress,
        level: u8,
        known_hdr: Option<&NodeHeader>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        let hdr = match known_hdr {
            Some(h) => h.clone(),
            None => {
                let buf = read_node(self, meta, node_addr).await?;
                self.scan_cpu(buf.len()).await;
                self.layout().decode_header(&buf)
            }
        };
        if hdr.free || hdr.level != level {
            return Ok(());
        }
        // Phase 1 (lock-free): pair the node with a same-parent sibling.
        // With command combination the index cache's image of the parent
        // routes the first pass, when it has one: phase 2 re-validates
        // everything under the locks anyway, so a stale image costs a
        // released plan, after which the image is dropped and the parent
        // read remotely — as it is on a miss, and always without combination.
        let cache = self.cluster.cache(self.cs_id);
        let counters = self.cluster.space_counters();
        let mut cached = match self.combine() {
            true => cache.peek(level + 1, hdr.fence_low),
            false => None,
        };
        loop {
            let partners = match &cached {
                Some(image) => MergePartners::under(image, node_addr, &hdr),
                None => self.find_merge_pair(node_addr, &hdr, level, meta).await?,
            };
            // Discovery that cannot place the node is as stale as a pair
            // that does not validate.
            let mut stale = partners.is_none();
            if let Some(partners) = partners {
                counters.record_merge_route(cached.is_some());
                // Prefer the right B-link sibling; fall through to the
                // parent-guided left pairing when there is none under this
                // parent *or* when the right attempt did not commit (e.g. at
                // aggressive merge thresholds the right pair may neither fit
                // nor have spare while the left sibling could still absorb or
                // donate).
                let pairs = [
                    partners.right_sibling.map(|right| (node_addr, right, MergeDirection::Right)),
                    partners.left_sibling.map(|left| (left, node_addr, MergeDirection::Left)),
                ];
                for pair in pairs.into_iter().flatten() {
                    match self
                        .try_merge_pair(pair, partners.parent, level, meta)
                        .await?
                    {
                        PairOutcome::Committed => return Ok(()),
                        PairOutcome::Declined => {}
                        PairOutcome::Mismatch => stale = true,
                    }
                }
            }
            match cached.take() {
                Some(image) if stale => cache.invalidate_at(image.level, image.fence_low),
                _ => return Ok(()),
            }
        }
    }

    /// Lock, re-validate, plan and commit one merge pair — `(left, right)` and
    /// the side of it the underfull node is on — under `parent_addr` (phases
    /// 2–5 of the structural delete).
    async fn try_merge_pair(
        &self,
        (left_addr, right_addr, direction): (GlobalAddress, GlobalAddress, MergeDirection),
        parent_addr: GlobalAddress,
        level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<PairOutcome> {
        // Phase 2: lock all three nodes, re-read, re-validate.  The same
        // predicate covers both directions: the pair must be fence-adjacent
        // B-link siblings whose separator lives in this parent.
        let (plan, [left_buf, right_buf, parent_buf]) = self
            .lock_and_read_plan([left_addr, right_addr, parent_addr], meta)
            .await?;
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
            && parent
                .entries
                .iter()
                .any(|e| e.key == sep && e.child == right_addr);

        // Phase 3: decide merge vs rebalance and build the new images.
        let merge = if !structure_ok {
            None
        } else if is_leaf {
            let edge = direction == MergeDirection::Right
                && lh.fence_low == 0
                && parent.header.leftmost == Some(left_addr);
            self.plan_merge::<LeafNode>(left_addr, &left_buf, &right_buf, direction, edge)
                .await
        } else {
            self.plan_merge::<InternalNode>(left_addr, &left_buf, &right_buf, direction, false)
                .await
        };
        let Some(merge) = merge else {
            self.abandon_plan(&plan).await?;
            return Ok(match structure_ok {
                true => PairOutcome::Declined,
                false => PairOutcome::Mismatch,
            });
        };

        // Phase 4: commit.  The parent update decides between separator
        // removal (merge), separator retargeting (rebalance) and root
        // collapse; every write rides its lock's release.  The coherence
        // side of the commit: every freed address becomes an `Invalidate`
        // message and, once published, a retirement; the tombstone's
        // node-level version rides along (the eventual reuser stamps its
        // first image above it, and subscribers reject any cached copy at or
        // below it).
        let mut commit = StructuralCommit::new();
        let (mut chase, mut cascade, mut kind) = (None, false, StructuralKind::Merge);
        let counters = self.cluster.space_counters();
        match merge.change {
            PairChange::Merge {
                tombstone,
                kept_right,
                still_underfull,
            } => {
                assert!(parent.remove_separator(sep, right_addr));
                // The first node's survivor takes its place as the parent's
                // leftmost child: nothing else points at a level's first node.
                let (survivor, retired) = match kept_right {
                    true => {
                        parent.header.leftmost = Some(right_addr);
                        counters.edge_merges.inc();
                        kind = StructuralKind::EdgeMerge;
                        (right_addr, left_addr)
                    }
                    false => (left_addr, right_addr),
                };
                commit.invalidate(retired, tombstone);
                parent.header.free = parent.entries.is_empty()
                    && match self.try_collapse_root(parent_addr, &parent, level).await {
                        Ok(collapsed) => collapsed,
                        Err(e) => {
                            self.abandon_plan(&plan).await?;
                            return Err(e);
                        }
                    };
                chase = still_underfull.then_some(survivor);
                cascade = !parent.header.free
                    && parent.entries.len() < self.merge_floor(&parent.header);
                if is_leaf {
                    counters.leaf_merges.inc();
                } else {
                    counters.internal_merges.inc();
                }
                if direction == MergeDirection::Left {
                    counters.left_merges.inc();
                }
            }
            PairChange::Rebalance { new_sep } => {
                assert!(parent.retarget_separator(sep, new_sep, right_addr, self.layout()));
                kind = StructuralKind::Rebalance;
                if is_leaf {
                    counters.rebalances.inc();
                } else {
                    counters.internal_rebalances.inc();
                }
            }
        }
        parent.header.bump_versions();
        if parent.header.free {
            commit.invalidate(parent_addr, Tombstone::unknown(parent.header.front_version));
        }
        let writes = vec![
            self.write_back(left_addr, Some(&left_buf), merge.left_bytes),
            self.write_back(right_addr, Some(&right_buf), merge.right_bytes),
            self.write_back(parent_addr, Some(&parent_buf), parent.encode(self.layout())),
        ];
        counters.record_structural_commit(kind, writes.iter().map(WriteBack::bytes).sum());
        // Phase 4½ (still under the locks): build each surviving image
        // **once** — the same `Arc` fans out to every subscriber's message
        // and the own-cache heal, no per-server deep clones — and publish
        // the commit.  The typestate makes the release below uncompilable
        // without this step, and retirement is only reachable through the
        // proof it returns.
        if !parent.header.free {
            commit.refresh(Arc::new(cached_from_internal(parent_addr, &parent)));
        }
        if let Some(image) = merge.left_image {
            commit.refresh(Arc::new(image));
        }
        let published = self.publish_commit(commit);
        self.release_plan(&plan, writes, &published).await?;

        // Phase 5: post-commit bookkeeping (no locks held).  Retirement
        // consumes the published commit, so the freed addresses are exactly
        // the invalidations that were posted; remote caches heal when the
        // `RefreshTop` messages are drained, the committer's own cache was
        // healed synchronously at publish (both at the images' own levels).
        published.retire_all(self.cluster, self.ctx().now());
        // A merge of two tiny nodes can leave the survivor itself below the
        // floor with no delete ever landing on it again; chase it now so no
        // node stays persistently underfull while a partner exists (bounded:
        // every merge removes one node from the level).  The recursions are
        // boxed: a future cannot contain itself.
        if let Some(survivor) = chase {
            Box::pin(self.try_merge(survivor, level, None, meta)).await?;
        }
        if cascade {
            // The parent itself dropped below the merge threshold: recurse
            // one level up (bounded by the tree height).
            Box::pin(self.try_merge(parent_addr, level + 1, None, meta)).await?;
        }
        Ok(PairOutcome::Committed)
    }

    /// Build the post-merge (or post-rebalance) images for two adjacent
    /// nodes, or `None` when the initiating node — the left of the pair for
    /// [`MergeDirection::Right`], the right for [`MergeDirection::Left`] — is
    /// no longer a merge candidate: no longer below its merge floor, which
    /// for a level's first leaf is empty ([`OpCx::merge_floor`]).  A merge
    /// keeps the left node and retires the right one, except at the `edge`:
    /// when the left node is its level's first leaf (empty, or it would not
    /// be merging) and is edited in place (a sorted leaf is re-packed
    /// whichever node survives), the first leaf is retired and its sibling
    /// kept.  No pair moves, the survivor writes back its header and tail,
    /// and its parent's `leftmost` is the one pointer to repoint.  A survivor
    /// left below its own floor is chased (`still_underfull`); a kept-right
    /// one is the new first leaf, held to the first leaf's floor.  When the
    /// pair does not fit in one node, its boundary moves toward the donor
    /// until the underfull side reaches the merge floor, without draining the
    /// donor below it; the parent's separator is then retargeted in the same
    /// critical section.
    async fn plan_merge<N: TreeNode>(
        &self,
        left_addr: GlobalAddress,
        left_buf: &[u8],
        right_buf: &[u8],
        direction: MergeDirection,
        edge: bool,
    ) -> Option<MergePlan> {
        let layout = *self.layout();
        let mut left = N::decode(&layout, left_buf);
        let mut right = N::decode(&layout, right_buf);
        let (underfull, donor) = match direction {
            MergeDirection::Right => (&mut left, &right),
            MergeDirection::Left => (&mut right, &left),
        };
        let floor = self.merge_floor(underfull.header_mut());
        let (underfull, donor) = (underfull.occupancy(), donor.occupancy());
        if underfull >= floor {
            return None;
        }
        // Local CPU cost of sorting the pairs that move (same accounting as
        // splits).
        self.scan_cpu(layout.node_size()).await;
        let edit = self.leaf_edit();
        let capacity = N::capacity(&layout);
        let change = if underfull + N::JOIN + donor <= capacity {
            let kept_right = edge && edit != LeafEdit::Repack;
            let (survivor, retired, image) = match kept_right {
                true => (&mut right, &mut left, left_buf),
                false => (&mut left, &mut right, right_buf),
            };
            survivor.absorb(retired, edit);
            let tombstone = retired.header_mut();
            tombstone.free = true;
            tombstone.bump_versions();
            PairChange::Merge {
                tombstone: Tombstone {
                    version: tombstone.front_version,
                    stale: Some(layout.tagged_slots(image)),
                },
                kept_right,
                still_underfull: survivor.occupancy() < self.merge_floor(survivor.header_mut()),
            }
        } else {
            let spare = donor.saturating_sub(floor);
            let move_n = (floor - underfull).min(spare).min(capacity - underfull);
            if move_n == 0 {
                return None;
            }
            let left_len = match direction {
                MergeDirection::Right => left.occupancy() + move_n,
                MergeDirection::Left => left.occupancy() - move_n,
            };
            PairChange::Rebalance {
                new_sep: left.rebalance(&mut right, left_len, edit),
            }
        };
        Some(MergePlan {
            left_bytes: left.encode(self.layout()),
            right_bytes: right.encode(self.layout()),
            left_image: left.cached(left_addr),
            change,
        })
    }

    /// If `parent` (now empty of separators) is the current root, replace the
    /// root pointer with its single remaining child.  Returns whether the
    /// collapse happened; the caller then frees the old root.  Called with the
    /// parent's lock held, so no separator can be inserted concurrently; a
    /// racing root *growth* is detected by the CAS.
    async fn try_collapse_root(
        &self,
        parent_addr: GlobalAddress,
        parent: &InternalNode,
        child_level: u8,
    ) -> TreeResult<bool> {
        debug_assert!(parent.entries.is_empty());
        let packed = self.read_word(self.cluster.root_ptr_addr()).await?;
        if packed != parent_addr.pack() {
            // Not the root (or no longer): an empty internal node with one
            // leftmost child is still a valid router, so just leave it.
            return Ok(false);
        }
        let child = parent
            .header
            .leftmost
            .expect("internal node has leftmost child");
        let collapsed = self.swing_root(packed, child, child_level).await?;
        if collapsed {
            self.cluster.space_counters().root_collapses.inc();
        }
        Ok(collapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::{LeafFormat, TreeConfig, TreeOptions};
    use crate::layout::key_tag;
    use proptest::prelude::*;
    use sherman_sim::Parking;

    /// One generated slot: `(live, key, front version, rear version)`.  Live
    /// if the first byte is below the leaf's density; vacant slots keep the
    /// versions of whatever they held last.
    type Slot = (u8, u64, u8, u8);

    /// An unsorted leaf over `[low, ∞)` holding keys of `[0, 64)` in the
    /// slots `slots` put them in (cycled over the leaf's capacity) — stale
    /// where they lie below `low`; every slot is tagged when `full`.
    fn leaf_of(layout: &NodeLayout, slots: &[Slot], density: u8, full: bool, low: u64) -> LeafNode {
        let mut leaf = LeafNode::empty(layout, NodeHeader::new(true, 0, low, u64::MAX));
        let slots = slots.iter().cycle();
        for (entry, &(live, key, front, rear)) in leaf.entries.iter_mut().zip(slots) {
            *entry = LeafEntry {
                key: key % 64,
                ..LeafEntry::empty()
            };
            if full || live < density {
                entry.install(key % 64, key);
            }
            (entry.front_version, entry.rear_version) = (front, rear);
        }
        leaf.header.count = leaf.live_count();
        leaf
    }

    /// The slot a point write takes, the leaf it leaves, and its live count.
    type Planned = (usize, LeafNode, usize);

    /// What the commit did before it probed the image: decode the leaf, pick
    /// the slot with `slot_of` / `vacant_slot`, `install` or `clear` it, count
    /// with `live_count`.
    fn decoded_reference(
        layout: &NodeLayout,
        image: &[u8],
        key: u64,
        kind: WriteKind,
    ) -> Option<Planned> {
        let mut leaf = layout.decode_leaf(image);
        let slot = match kind {
            WriteKind::Insert { .. } => leaf.slot_of(key).or_else(|| leaf.vacant_slot()),
            WriteKind::Delete => leaf.slot_of(key),
        }?;
        match kind {
            WriteKind::Insert { value } => leaf.entries[slot].install(key, value),
            WriteKind::Delete => leaf.entries[slot].clear(),
        }
        let live = leaf.live_count();
        Some((slot, leaf, live))
    }

    /// A leaf's slots as a reader takes them: a live entry whole, a vacant
    /// or stale one not at all.
    fn as_read(leaf: &LeafNode) -> Vec<Option<LeafEntry>> {
        leaf.entries
            .iter()
            .map(|e| leaf.owns(e).then_some(*e))
            .collect()
    }

    /// Apply the point write of `kind` on `key` to the leaf image `image` at
    /// `addr` as memory would: each command's bytes at its offset, in order.
    /// Returns the slot and the byte ranges written.
    fn apply_point_write(
        layout: &NodeLayout,
        image: &mut [u8],
        addr: GlobalAddress,
        key: u64,
        kind: WriteKind,
    ) -> (usize, Vec<std::ops::Range<usize>>) {
        let (write, _) = PointWrite::plan(layout, image, key, kind);
        let write = write.expect("a slot");
        let cmds = write.commands(layout, addr, image);
        let spans = cmds.iter().map(|cmd| {
            let at = (cmd.addr.offset - addr.offset) as usize;
            image[at..at + cmd.data.len()].copy_from_slice(&cmd.data);
            at..at + cmd.data.len()
        });
        (write.slot, spans.collect())
    }

    /// A point delete writes its slot's tag byte and nothing else: the key,
    /// the value and the version pair stay in memory, yet the slot reads as
    /// vacant to a lookup's search, to a scan and to a write's probe.  The
    /// insert that takes the slot next writes the whole entry, its pair
    /// bumped from what memory holds, and a reader that catches it half
    /// written — front version bumped, rear not yet — finds it torn.
    #[test]
    fn a_deleted_slot_is_its_tag_and_a_reinsert_bumps_from_memory() {
        let layout = NodeLayout::new(&TreeConfig::default());
        let mut leaf = LeafNode::empty(&layout, NodeHeader::new(true, 0, 0, u64::MAX));
        for (slot, key) in [10u64, 20, 30].into_iter().enumerate() {
            leaf.entries[slot].front_version = 6 * slot as u8;
            leaf.entries[slot].install(key, key * 100);
        }
        let mut image = layout.encode_leaf(&leaf);
        let addr = GlobalAddress::host(1, 1 << 20);
        let entry = layout.leaf_entry_range(1);

        let before = image.clone();
        let written = apply_point_write(&layout, &mut image, addr, 20, WriteKind::Delete);
        let tag_byte = entry.start + 1..entry.start + 2;
        assert_eq!(written, (1, vec![tag_byte]));
        let changed: Vec<usize> = (0..image.len())
            .filter(|&i| image[i] != before[i])
            .collect();
        assert_eq!(changed, [entry.start + 1]);
        let held = layout.decode_leaf_entry(&image[entry.clone()]);
        let pair = (held.front_version, held.rear_version);
        assert_eq!((pair, held.key), ((7, 7), 20));
        let decoded = layout.decode_leaf(&image);
        let search = decoded.search(20, LeafFormat::UnsortedTwoLevel);
        assert_eq!(search.entry, None);
        assert_eq!((search.torn, search.compared), (false, 0));
        let scanned: Vec<_> = decoded.entries_from(0).expect("no torn entry").collect();
        assert_eq!(scanned, [(10, 1_000), (30, 3_000)]);
        let probe = layout.probe_leaf(&image, 20);
        assert_eq!((probe.slot, probe.vacant, probe.live), (None, Some(1), 2));

        let insert = WriteKind::Insert { value: 2_500 };
        let written = apply_point_write(&layout, &mut image, addr, 25, insert);
        assert_eq!(written, (1, vec![entry.clone()]));
        let held = layout.decode_leaf_entry(&image[entry.clone()]);
        let pair = (held.front_version, held.rear_version);
        assert_eq!((pair, held.key), ((8, 8), 25));
        let mut torn = image.clone();
        torn[entry.end - 1] = 7;
        let torn = layout.decode_leaf(&torn);
        let search = torn.search(25, LeafFormat::UnsortedTwoLevel);
        assert!(search.torn && search.value().is_none(), "{search:?}");
        assert!(torn.entries_from(0).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

        /// A point write planned on the locked image agrees with the decoded
        /// leaf on the slot, on the live count — hence on the merge decision —
        /// on whether there is a slot at all, "must split" for an insert, and
        /// on the leaf a reader takes from the image once the commands are
        /// applied, stale bits included; the commands write the whole entry
        /// of an insert — and the byte of its stale bit, cleared, when it
        /// takes a stale slot — and the tag byte alone of a delete: on 256 B
        /// and 1 KB unsorted leaves with holes and stale slots anywhere and
        /// arbitrary entry versions, for an insert of a present key, of an
        /// absent one into a leaf with a hole and into a full leaf, and a
        /// delete of a present and of an absent key.  Live slots the mask
        /// `collide` picks hold other keys built to share the written key's
        /// tag, and the probe reads the key of every live slot it passed
        /// whose tag matched, and of no other.
        #[test]
        fn a_point_write_on_the_image_is_the_decoded_one(
            slots in prop::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u8>(), any::<u8>()),
                1..64,
            ),
            density in any::<u8>(),
            node_size in prop::sample::select(vec![256usize, 1024]),
            case in 0u8..5,
            draw in (any::<usize>(), any::<u64>(), any::<u64>(), 0u64..24),
        ) {
            let (pick, value, collide, low) = draw;
            let layout = NodeLayout::new(&TreeConfig { node_size, ..TreeConfig::default() });
            // A full leaf has no stale slot either.
            let low = if case == 2 { 0 } else { low };
            let mut leaf = leaf_of(&layout, &slots, density, case == 2, low);
            if case == 1 {
                let hole = pick % leaf.entries.len();
                leaf.entries[hole].tag = 0;
            }
            let live = leaf.entries.iter().filter(|e| leaf.owns(e));
            let held: Vec<u64> = live.map(|e| e.key).collect();
            let absent = 64 + value % 64;
            let insert = WriteKind::Insert { value };
            // 0: insert a present key, 1: an absent one into a leaf with a
            // hole, 2: into a full leaf; 3: delete a present key, 4: an absent
            // one.
            let (key, kind) = match (case, held.is_empty()) {
                (0, false) => (held[pick % held.len()], insert),
                (3, false) => (held[pick % held.len()], WriteKind::Delete),
                (0 | 3, true) => return,
                (1 | 2, _) => (absent, insert),
                _ => (absent, WriteKind::Delete),
            };
            let tag = key_tag(key);
            let mut colliding = (key + 1..).filter(|&k| key_tag(k) == tag);
            for (i, entry) in leaf.entries.iter_mut().enumerate() {
                let owned = entry.present() && entry.key >= low;
                if collide >> (i % 64) & 1 == 1 && owned && entry.key != key {
                    entry.install(colliding.next().unwrap(), value);
                }
            }
            let image = layout.encode_leaf(&leaf);

            let addr = GlobalAddress::host(1, 1 << 20);
            let (write, read) = PointWrite::plan(&layout, &image, key, kind);
            let planned = write.map(|write| {
                let mut after = image.clone();
                let (slot, spans) = apply_point_write(&layout, &mut after, addr, key, kind);
                let entry = layout.leaf_entry_range(slot);
                let (bit_at, _) = layout.stale_bit(slot);
                // An insert's entry from its front version, which always
                // bumps, to the last byte that changed: all of it unless a
                // generated rear version already held the bumped front one.
                let last = entry.clone().rev().find(|&i| after[i] != image[i]);
                let installed = entry.start..last.map_or(entry.start, |i| i + 1);
                let wanted = match kind {
                    WriteKind::Insert { .. } if layout.marked_stale(&image, slot) => {
                        vec![installed, bit_at..bit_at + 1]
                    }
                    WriteKind::Insert { .. } => vec![installed],
                    WriteKind::Delete => {
                        let tag_byte = entry.start + 1..entry.start + 2;
                        vec![tag_byte]
                    }
                };
                assert_eq!(spans, wanted, "{kind:?}");
                // The tail marks what the fences make stale, and nothing else.
                let decoded = layout.decode_leaf(&after);
                let tail = layout.rear_version_offset()..node_size;
                assert_eq!(after[tail.clone()], layout.encode_leaf(&decoded)[tail]);
                (write.slot, decoded, write.live)
            });
            let reference = decoded_reference(&layout, &image, key, kind);
            let seen = |p: &Option<Planned>| {
                p.as_ref().map(|(slot, leaf, live)| (*slot, as_read(leaf), *live))
            };
            prop_assert_eq!(seen(&planned), seen(&reference));
            // A full leaf splits and an absent key is not deleted; every
            // other case takes a slot.
            prop_assert_eq!(planned.is_none(), matches!(case, 2 | 4));
            let capacity = layout.leaf_capacity() as f64;
            let floor = (capacity * TreeOptions::DEFAULT_MERGE_THRESHOLD) as usize;
            let merges = |p: &Option<Planned>| {
                kind == WriteKind::Delete && p.as_ref().is_some_and(|p| p.2 < floor)
            };
            prop_assert_eq!(merges(&planned), merges(&reference));
            // The keys read: up to the key's slot, or through the leaf.
            let passed = leaf.slot_of(key).map_or(leaf.entries.len(), |slot| slot + 1);
            let matching = leaf.entries[..passed].iter().filter(|e| leaf.owns(e) && e.tag == tag);
            prop_assert_eq!(read.compared, matching.count());
            prop_assert_eq!(read.scanned, leaf.entries.len());
        }
    }

    /// A write-back joins the release batch of the lock that guards its
    /// *node*: ranges that start inside a node hash to some other lock word,
    /// or to none of the plan.  Parent and children on different memory
    /// servers, three lock words; every write-back two ranges, the second at
    /// the node's tail.  Three batches go out — one round trip each, nothing
    /// beside them — and each carries both ranges and the release.
    #[test]
    fn sub_node_ranges_ride_the_release_of_their_nodes_lock() {
        let mut config = ClusterConfig::small();
        config.tree.chunk_bytes = 4 << 10;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        cluster.bulkload((0..4_000u64).map(|k| (k * 2, k))).unwrap();
        let cache = cluster.cache(0);
        let mgr = cluster.lock_manager();
        let [left, right, parent] = (0..3_900u64)
            .step_by(16)
            .find_map(|key| {
                let (left, _) = cache.lookup_leaf(key)?;
                let (right, _) = cache.lookup_leaf(key + 16)?;
                let parent = cache.peek(1, key)?.addr;
                let distinct = mgr.lock_plan(&[left, right, parent]).len() == 3;
                (left != right && parent.ms != left.ms && distinct).then_some([left, right, parent])
            })
            .expect("a pair of leaves whose parent lives on the other server");

        let mut client = cluster.client(0);
        let mut meta = OpMeta::default();
        let cx = client.op_cx();
        let planned = cx.block_on(cx.lock_and_read_plan([left, right, parent], &mut meta));
        let (plan, images) = planned.unwrap();
        let rear = cluster.layout().rear_version_offset();
        let writes: Vec<WriteBack> = [left, right, parent]
            .into_iter()
            .zip(&images)
            .map(|(node, pre)| {
                let mut new = pre.clone();
                new[0] = pre[0].wrapping_add(1);
                new[rear] = new[0];
                cx.write_back(node, Some(pre), new)
            })
            .collect();
        for write_back in &writes {
            let starts: Vec<u64> = write_back.cmds.iter().map(|c| c.addr.offset).collect();
            let node = write_back.node.offset;
            assert_eq!(starts, [node + rear as u64, node], "rear version first");
        }
        let before = cx.ctx().stats();
        let published = cx.publish_commit(StructuralCommit::new());
        cx.block_on(cx.release_plan(&plan, writes, &published))
            .unwrap();
        published.retire_all(&cluster, cx.ctx().now());
        let spent = cx.ctx().stats().delta_since(&before);
        assert_eq!((spent.round_trips, spent.writes), (3, 9), "{spent:?}");
        for (node, pre) in [left, right, parent].into_iter().zip(&images) {
            let mut now = vec![0u8; pre.len()];
            cluster.fabric().god_read(node, &mut now).unwrap();
            assert_eq!((now[0], now[rear]), (pre[0].wrapping_add(1), pre[0].wrapping_add(1)));
        }
    }

    /// A merge whose third node cannot be read — its image would run past the
    /// end of the region — fails with every lock of its plan given back: the
    /// combined attempt is rejected at the post (the words won beside it are
    /// released), the uncombined read fails with all three locks held.  The
    /// other compute server then wins each word at its first attempt, and so
    /// does this one (the local lock table kept nothing either).
    #[test]
    fn a_failed_merge_leaves_no_lock_behind() {
        let uncombined = |options| TreeOptions {
            combine_commands: false,
            ..options
        };
        for options in [
            TreeOptions::sherman(),
            uncombined(TreeOptions::sherman()),
            TreeOptions::plus_onchip(),
            TreeOptions::fg_plus(),
        ] {
            let cluster = Cluster::new(ClusterConfig::small(), options);
            cluster.bulkload((0..400u64).map(|k| (k, k))).unwrap();
            let (left, _) = cluster.cache(0).lookup_leaf(0).unwrap();
            let (right, _) = cluster.cache(0).lookup_leaf(8).unwrap();
            assert_ne!(left, right);
            let end = cluster.fabric().config().host_bytes_per_ms as u64;
            let beyond = GlobalAddress::host(0, end - 8);

            let mut client = cluster.client(0);
            let mut meta = OpMeta::default();
            let pair = (left, right, MergeDirection::Right);
            let cx = client.op_cx();
            let failed = cx.block_on(cx.try_merge_pair(pair, beyond, 0, &mut meta));
            drop(cx);
            assert!(matches!(failed, Err(TreeError::Fabric(_))), "{failed:?}");
            assert_eq!(client.ctx.outstanding(), 0);

            // One attempt each, so that a leaked lock fails the test instead
            // of hanging it.
            let mgr = cluster.lock_manager();
            let mut other = cluster.fabric().client(1);
            for ctx in [&mut other, &mut client.ctx] {
                let cx = Parking::new(ctx);
                for node in [left, right, beyond] {
                    let attempt = mgr.try_lock(&cx, node, None).unwrap();
                    let held = || panic!("the local lock on {node:?} is still held");
                    let attempt = attempt.unwrap_or_else(held);
                    assert!(cx.block_on(attempt).is_some(), "{node:?} is still locked");
                    cx.block_on(mgr.unlock(&cx, node, Vec::new(), true, true)).unwrap();
                    assert_eq!(cx.ctx().outstanding(), 0);
                }
            }
        }
    }
}
