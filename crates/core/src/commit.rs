//! The write path's commit code: everything a write does between taking a
//! node lock and releasing it, as functions on the stepping context
//! ([`OpCx`]) the state machines share.
//!
//! * **leaf commit** ([`OpCx::leaf_commit`]) — acquire the leaf's exclusive
//!   lock, read and revalidate it, then write back either the single
//!   affected entry (two-level versions), planned on the image as read with
//!   no decoded leaf ([`PointWrite`]), or the whole node (sorted baselines);
//!   with command combination the read rides the lock acquisition and the
//!   lock release rides the write-back, one doorbell batch each,
//! * **split** — sort the leaf, move the upper half to a freshly allocated
//!   sibling, link it B-link style, and insert the separator into the parent
//!   (growing a new root when the split reaches the top),
//! * **merge** — pair an underfull node with a same-parent sibling, lock the
//!   pair and the parent in the lock manager's rank order, and merge or
//!   rebalance (collapsing the root when it runs out of separators).
//!
//! The write machine (`crate::ops::WriteSM`) acquires the leaf lock itself —
//! that is the one thing a write yields on while a lock is involved — and
//! calls [`OpCx::leaf_commit`] with the image read under it.  Nothing here
//! yields: the leaf lock's release is posted before `leaf_commit` returns,
//! and at most that verb is left outstanding for the machine to park on.
//! What needs *further* locks — the separator of a split, a merge — is
//! handed back as a [`Followup`] and run ([`OpCx::run_followup`]) once the
//! scheduler has driven every other in-flight operation of this client out
//! of its own lock acquisition, so the acquisitions below can only ever wait
//! for other clients.
//!
//! ## A follow-up waits for what it depends on
//!
//! The follow-up is one synchronous step that posts and polls.  With command
//! combination (`combine_commands`; without it every command waits for the
//! one before, as the baselines do) it posts independent commands together
//! and polls a completion only where something depends on it, under three
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
//! re-packed ([`LeafNode::set_pairs`]; the leaf format alone decides).  With
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
//! What an internal node holds past its `count` is never written.  A node without a
//! pre-image (a new right half, a new root), a node that changed nearly all
//! over, and every node of an uncombined preset travel whole; so do the
//! *point* writes of sorted leaves, which "+2-Level Ver" is there to ablate.
//! A write-back is keyed by its node ([`WriteBack`]): the node's address, not
//! the address a range starts at, names the lock whose release it rides.

use crate::coherence::{self, PublishedCommit, StructuralCommit};
use crate::config::LeafFormat;
use crate::error::TreeError;
use crate::layout::{NodeLayout, FLAG_FREE};
use crate::node::{InternalNode, LeafEntry, LeafNode, NodeHeader};
use crate::ops::{
    cached_from_internal, drive_blocking, next_after_mismatch, LeafSource, OpCx, OpMeta,
    ReadNodeSM, TraverseSM, WriteCommit, WriteKind,
};
use crate::TreeResult;
use sherman_cache::{CachedInternal, ChildRef};
use sherman_locks::{AcquireOutcome, AcquireStep, Acquisition};
use sherman_memserver::ServerLayout;
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
    /// The structural edits.  `dense`: the leaf format keeps leaves sorted
    /// and densely packed, so a leaf is re-packed; an unsorted leaf is edited
    /// in place ([`LeafNode::set_pairs`]).  Internal nodes are always sorted.
    fn absorb_right(&mut self, right: &Self, dense: bool);
    fn take_from_right(&mut self, right: &mut Self, count: usize, dense: bool) -> u64;
    fn take_from_left(&mut self, left: &mut Self, count: usize, dense: bool) -> u64;
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
    fn absorb_right(&mut self, right: &Self, dense: bool) {
        LeafNode::absorb_right(self, right, dense)
    }
    fn take_from_right(&mut self, right: &mut Self, count: usize, dense: bool) -> u64 {
        LeafNode::take_from_right(self, right, count, dense)
    }
    fn take_from_left(&mut self, left: &mut Self, count: usize, dense: bool) -> u64 {
        LeafNode::take_from_left(self, left, count, dense)
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
    fn absorb_right(&mut self, right: &Self, _dense: bool) {
        InternalNode::absorb_right(self, right)
    }
    fn take_from_right(&mut self, right: &mut Self, count: usize, _dense: bool) -> u64 {
        InternalNode::take_from_right(self, right, count)
    }
    fn take_from_left(&mut self, left: &mut Self, count: usize, _dense: bool) -> u64 {
        InternalNode::take_from_left(self, left, count)
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
        let right_of = |next: Option<&ChildRef>| {
            next.filter(|c| c.separator == hdr.fence_high && Some(c.child) == hdr.sibling)
                .map(|c| c.child)
        };
        if parent.leftmost == node_addr {
            return Some(MergePartners {
                parent: parent.addr,
                right_sibling: right_of(parent.children.first()),
                left_sibling: None,
            });
        }
        let pos = parent
            .children
            .iter()
            .position(|c| c.separator == hdr.fence_low && c.child == node_addr)?;
        let left = match pos {
            0 => parent.leftmost,
            _ => parent.children[pos - 1].child,
        };
        Some(MergePartners {
            parent: parent.addr,
            right_sibling: right_of(parent.children.get(pos + 1)),
            left_sibling: (!left.is_null()).then_some(left),
        })
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
    /// installed or cleared, its versions bumped.  `None` for an insert into
    /// a full leaf, which splits, and for a delete of an absent key.
    fn plan(layout: &NodeLayout, image: &[u8], key: u64, kind: WriteKind) -> Option<Self> {
        let probe = layout.probe_leaf(image, key);
        let (slot, live) = match kind {
            WriteKind::Insert { .. } => match probe.slot {
                Some(slot) => (slot, probe.live),
                None => (probe.vacant?, probe.live + 1),
            },
            WriteKind::Delete => (probe.slot?, probe.live - 1),
        };
        let at = layout.leaf_entry_offset(slot);
        let mut entry = layout.decode_leaf_entry(&image[at..at + layout.leaf_entry_bytes()]);
        match kind {
            WriteKind::Insert { value } => entry.install(key, value),
            WriteKind::Delete => entry.clear(),
        }
        Some(PointWrite { slot, entry, live })
    }

    /// The entry-granular write-back (two-level versions, §4.4) on the leaf
    /// at `leaf`: only the touched entry travels.
    fn command(&self, layout: &NodeLayout, leaf: GlobalAddress) -> WriteCmd {
        let at = leaf.add(layout.leaf_entry_offset(self.slot) as u64);
        WriteCmd::new(at, layout.encode_leaf_entry(&self.entry))
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
    /// The left node absorbed its right sibling, whose image is now the freed
    /// (free-bit set, version-bumped) tombstone with node-level version
    /// `right_version` (recorded with the retirement so the next writer of
    /// the address stamps its image above it).  `still_underfull`: the
    /// survivor itself ended up below the merge floor.
    Merge {
        right_version: u8,
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

    /// Encode a node for write-back (checksummed under the FG format).
    fn encode<N: TreeNode>(&self, node: &N) -> Vec<u8> {
        let mut bytes = node.encode(self.layout());
        if self.leaf_format() == LeafFormat::SortedChecksum {
            self.layout().stamp_checksum(&mut bytes);
        }
        bytes
    }

    /// Plan the write-back of the node at `node`, whose new image is `new`.
    /// With command combination and `pre`, the image the commit read under
    /// the node's lock, only what changed travels
    /// ([`NodeLayout::plan_write_back`]): a multi-range write-back *is*
    /// command combination, the ranges ride the one doorbell batch that
    /// releases the lock, rear version first and front version last
    /// ([`NodeLayout::post_order`]).  The whole node travels without combination, when
    /// nothing was read (a freshly allocated node), and under the checksum
    /// format, whose checksum covers bytes no decoder reads.
    fn write_back(&self, node: GlobalAddress, pre: Option<&[u8]>, new: Vec<u8>) -> WriteBack {
        let planned = pre
            .filter(|_| self.combine() && self.leaf_format() != LeafFormat::SortedChecksum)
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

    /// Occupancy below which a node becomes a merge candidate.
    fn merge_floor<N: TreeNode>(&self) -> usize {
        let cap = N::capacity(self.layout()) as f64;
        (cap * self.cluster.options().merge_threshold).floor() as usize
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Acquire the exclusive lock on `addr`, folding the outcome into `meta`.
    fn acquire_lock(&mut self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<()> {
        let acq = self.cluster.lock_manager().acquire(self.ctx, addr)?;
        Self::note_acquired(acq, meta);
        Ok(())
    }

    /// Fold one lock acquisition into `meta`.
    fn note_acquired(acq: AcquireOutcome, meta: &mut OpMeta) {
        meta.lock_retries += acq.remote_retries;
        meta.handed_over |= acq.handed_over;
    }

    /// The acquisition at the head of every single-node commit: the lock on
    /// `addr` and the node under it.  With command combination the READ
    /// rides the acquiring CAS's doorbell batch (the lock word is co-located
    /// with its node, hence on the same queue pair), so the head costs one
    /// round trip; without it, the lock and the read are two dependent ones.
    pub(crate) fn lock_and_read_start(&self, addr: GlobalAddress) -> Acquisition {
        Acquisition::new(addr, self.combine().then(|| self.layout().node_size()))
    }

    /// The lock on `addr` is held; `image` is what the acquisition read under
    /// it.  Returns the node image — without command combination that is a
    /// READ of its own, which waits like every other command of an
    /// uncombined preset.
    pub(crate) fn lock_and_read_finish(
        &mut self,
        addr: GlobalAddress,
        acq: AcquireOutcome,
        image: Vec<u8>,
        meta: &mut OpMeta,
    ) -> TreeResult<Vec<u8>> {
        Self::note_acquired(acq, meta);
        if !self.combine() {
            return self.read_node_locked(addr);
        }
        self.ctx.charge_scan(image.len());
        Ok(image)
    }

    /// [`OpCx::lock_and_read_start`] to [`OpCx::lock_and_read_finish`],
    /// blocking (separator insertion, which runs as a [`Followup`]).
    fn lock_and_read(&mut self, addr: GlobalAddress, meta: &mut OpMeta) -> TreeResult<Vec<u8>> {
        let start = self.lock_and_read_start(addr);
        let mgr = self.cluster.lock_manager();
        let (acq, image) = mgr.drive_acquire(self.ctx, start)?;
        self.lock_and_read_finish(addr, acq, image, meta)
    }

    /// Release the exclusive lock on `addr`, flushing `writes` according to
    /// the command-combination setting.  Blocking: the release completion is
    /// observed before returning.
    fn release_lock(&mut self, addr: GlobalAddress, writes: Vec<WriteCmd>) -> TreeResult<()> {
        let mgr = self.cluster.lock_manager();
        mgr.release(self.ctx, addr, writes, self.combine())?;
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
        let mgr = self.cluster.lock_manager();
        let (_, deferred) = mgr.release_deferred(self.ctx, addr, writes, self.combine(), true)?;
        Ok(deferred)
    }

    /// Release the lock on `addr` ahead of a follow-up.  With command
    /// combination the write-back + release is posted and left in
    /// `meta.in_flight` (ordering rule 1 of the module docs); without it the
    /// completion is observed here, like that of every other command.
    fn release_lock_ahead(
        &mut self,
        addr: GlobalAddress,
        writes: Vec<WriteCmd>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        if !self.combine() {
            return self.release_lock(addr, writes);
        }
        meta.in_flight.extend(self.release_lock_deferred(addr, writes)?);
        Ok(())
    }

    /// Wait for every verb the operation's commit left in flight.
    fn observe(&mut self, meta: &mut OpMeta) {
        for token in meta.in_flight.drain(..) {
            self.ctx.poll_token(token);
        }
    }

    /// Lock `nodes` — a merge's `(left, right, parent)` — and read them under
    /// their locks.  Returns the lock plan (the lock-word representatives, in
    /// the manager's rank order) and the three images.  With command
    /// combination the plan is first tried in one round trip
    /// ([`OpCx::try_plan`]); the rank-ordered acquisition is the fallback,
    /// and the whole of it without.  An `Err` leaves no lock held.
    fn lock_and_read_plan(
        &mut self,
        nodes: [GlobalAddress; 3],
        meta: &mut OpMeta,
    ) -> TreeResult<(Vec<GlobalAddress>, [Vec<u8>; 3])> {
        let plan = self.cluster.lock_manager().lock_plan(&nodes);
        let tried = match self.combine() {
            true => self.try_plan(&plan, meta)?,
            false => None,
        };
        let mut read: Vec<(GlobalAddress, Vec<u8>)> = match tried {
            Some(images) => plan.iter().copied().zip(images).collect(),
            None => {
                self.acquire_plan(&plan, meta)?;
                Vec::new()
            }
        };
        // What the attempt did not read: everything on the fallback, and on a
        // won attempt the nodes that share a representative's lock word.
        let unread: Vec<GlobalAddress> = nodes
            .into_iter()
            .filter(|node| !read.iter().any(|(rep, _)| rep == node))
            .collect();
        match self.read_nodes_locked(&unread) {
            Ok(images) => read.extend(unread.into_iter().zip(images)),
            Err(e) => {
                self.abandon_plan(&plan)?;
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
    /// and polled together, one round trip for the lot, which whatever the
    /// commit left in flight overlaps too.  An attempt never queues and is
    /// never re-posted, so the order of the words does not matter (ordering
    /// rule 3 of the module docs).  Returns the images in plan order, or
    /// `None` — every word won given back — if any word was lost; an `Err`
    /// leaves no lock held either.
    fn try_plan(
        &mut self,
        plan: &[GlobalAddress],
        meta: &mut OpMeta,
    ) -> TreeResult<Option<Vec<Vec<u8>>>> {
        let mgr = self.cluster.lock_manager();
        let node_size = self.layout().node_size();
        let counters = self.cluster.space_counters();
        counters.record_optimistic_plan();
        let mut attempts: Vec<Acquisition> = plan
            .iter()
            .map(|&rep| Acquisition::try_once(rep, Some(node_size)))
            .collect();
        // Post: a word that is lost (or rejected) on the spot ends the plan.
        let mut steps = Vec::with_capacity(plan.len());
        for attempt in &mut attempts {
            let step = mgr.step_acquire(self.ctx, attempt, None);
            let open = matches!(step, Ok(AcquireStep::Pending(_) | AcquireStep::Done { .. }));
            steps.push(step);
            if !open {
                break;
            }
        }
        self.observe(meta);
        // Poll: learn which words were won.
        let mut won = Vec::with_capacity(plan.len());
        let mut failed = None;
        for ((step, attempt), &rep) in steps.into_iter().zip(&mut attempts).zip(plan) {
            let step = match step {
                Ok(AcquireStep::Pending(token)) => {
                    let completion = self.ctx.poll_token(token);
                    mgr.step_acquire(self.ctx, attempt, Some(completion))
                }
                settled => settled,
            };
            match step {
                Ok(AcquireStep::Done { outcome, image }) => {
                    Self::note_acquired(outcome, meta);
                    won.push((rep, image));
                }
                Ok(AcquireStep::Lost) => meta.lock_retries += attempt.retries(),
                Ok(AcquireStep::Pending(_)) => unreachable!("an attempt is never re-posted"),
                Err(e) => failed = Some(e),
            }
        }
        if won.len() == plan.len() {
            self.ctx.charge_scan(plan.len() * node_size);
            return Ok(Some(won.into_iter().map(|(_, image)| image).collect()));
        }
        counters.record_plan_fallback();
        let held: Vec<GlobalAddress> = won.into_iter().map(|(rep, _)| rep).collect();
        self.abandon_plan(&held)?;
        failed.map_or(Ok(None), |e| Err(e.into()))
    }

    /// Acquire the locks of `plan` one after the other, in its (rank) order:
    /// the only place a lock is waited for while others are held.  An `Err`
    /// gives back the locks acquired before it.
    fn acquire_plan(&mut self, plan: &[GlobalAddress], meta: &mut OpMeta) -> TreeResult<()> {
        for (held, &rep) in plan.iter().enumerate() {
            if let Err(e) = self.acquire_lock(rep, meta) {
                self.abandon_plan(&plan[..held])?;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Release every lock of `plan` (in reverse acquisition order), flushing
    /// each node's write-back with the release of the lock word guarding it.
    /// With command combination the batches are posted together and polled
    /// once; a release that fails does not keep the others from going out.
    ///
    /// Demands proof that the commit's coherence messages were posted: a
    /// [`PublishedCommit`] only exists after [`coherence::publish`] ran, so a
    /// commit path that skips publishing does not compile (see the
    /// `crate::coherence` module docs for the protocol).
    fn release_plan(
        &mut self,
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
            match mgr.release_deferred(self.ctx, rep, batch, combine, combine) {
                Ok((_, deferred)) => posted.extend(deferred),
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        assert!(writes.is_empty(), "write-back without a guarding lock");
        for token in posted {
            self.ctx.poll_token(token);
        }
        failed.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Release an untouched lock plan: nothing was written, so the commit
    /// published is the empty one.
    fn abandon_plan(&mut self, plan: &[GlobalAddress]) -> TreeResult<()> {
        let published = self.publish_commit(StructuralCommit::new());
        self.release_plan(plan, Vec::new(), &published)?;
        published.retire_all(self.cluster, self.ctx.now());
        Ok(())
    }

    /// Publish a structural commit's coherence messages, trading the
    /// builder for the [`PublishedCommit`] proof that `release_plan` and
    /// retirement demand.  Runs under the commit's locks.
    fn publish_commit(&mut self, commit: StructuralCommit) -> PublishedCommit {
        coherence::publish(self.cluster, self.ctx, self.cs_id, commit)
    }

    // ------------------------------------------------------------------
    // Node reads and traversal (blocking, for use inside a commit step)
    // ------------------------------------------------------------------

    /// Read a node image with the lock-free consistency loop (node-level
    /// check only).
    fn read_node_consistent(
        &mut self,
        addr: GlobalAddress,
        meta: &mut OpMeta,
    ) -> TreeResult<Vec<u8>> {
        let mut sm = ReadNodeSM::new(self, addr);
        drive_blocking(self, meta, |cx, meta, c| sm.step(cx, meta, c))
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

    /// Read node images whose locks are all held.  The reads are
    /// independent, so with command combination they are posted together and
    /// share a round trip; without it each waits for the one before, like
    /// every other command of an uncombined preset.
    fn read_nodes_locked(&mut self, addrs: &[GlobalAddress]) -> TreeResult<Vec<Vec<u8>>> {
        if !self.combine() {
            return addrs.iter().map(|&a| self.read_node_locked(a)).collect();
        }
        if addrs.is_empty() {
            return Ok(Vec::new());
        }
        let node_size = self.layout().node_size();
        let reqs: Vec<(GlobalAddress, usize)> = addrs.iter().map(|&a| (a, node_size)).collect();
        let token = self.ctx.post_read_batch(&reqs)?;
        let images = self.ctx.poll_token(token).result.into_read_batch();
        self.ctx.charge_scan(addrs.len() * node_size);
        Ok(images)
    }

    /// Walk down from the root (or the cached top levels) to the node at
    /// `target_level` whose key interval contains `key`.
    fn traverse_to_level(
        &mut self,
        key: u64,
        target_level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<GlobalAddress> {
        let mut sm = TraverseSM::new(self, key, target_level);
        drive_blocking(self, meta, |cx, meta, c| sm.step(cx, meta, c))
    }

    // ------------------------------------------------------------------
    // Leaf commit
    // ------------------------------------------------------------------

    /// The body of the write critical section, run synchronously on the leaf
    /// at `addr` with its lock held and `buf` its image as read under the
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
    pub(crate) fn leaf_commit(
        &mut self,
        addr: GlobalAddress,
        source: LeafSource,
        key: u64,
        kind: WriteKind,
        buf: &[u8],
        meta: &mut OpMeta,
    ) -> TreeResult<WriteCommit> {
        let header = self.layout().decode_header(buf);
        if header.free || !header.is_leaf || !header.covers(key) {
            if header.free && matches!(source, LeafSource::Cache { .. }) {
                // The cache routed this write to a retired leaf: its
                // invalidation is still in flight.
                self.cluster.coherence_counters().record_stale_hit();
            }
            let release = self.release_lock_deferred(addr, Vec::new())?;
            let next = next_after_mismatch(self, key, addr, &header, source)
                .map(|a| (a, LeafSource::Sibling));
            return Ok(WriteCommit::Retry { next, release });
        }

        // Insert, update and delete differ in the slot they pick, in what
        // they do to it, and in what happens when there is none.
        let Some(write) = PointWrite::plan(self.layout(), buf, key, kind) else {
            return Ok(match kind {
                WriteKind::Insert { value } => {
                    WriteCommit::Structural(self.split_leaf(addr, buf, key, value, meta)?)
                }
                WriteKind::Delete => WriteCommit::Committed {
                    found: false,
                    release: self.release_lock_deferred(addr, Vec::new())?,
                },
            });
        };
        let writes = self.leaf_writeback(addr, buf, &write);

        // Structural deletes (§ beyond the paper): once a delete drops the
        // leaf below the merge threshold, pair it with a sibling and merge or
        // rebalance.
        if kind == WriteKind::Delete
            && self.cluster.options().structural_deletes_enabled()
            && write.live < self.merge_floor::<LeafNode>()
        {
            self.release_lock_ahead(addr, writes, meta)?;
            return Ok(WriteCommit::Structural(Followup::Merge { addr, header }));
        }
        Ok(WriteCommit::Committed {
            found: true,
            release: self.release_lock_deferred(addr, writes)?,
        })
    }

    /// Pay what a committed leaf write still owes the tree.  Takes further
    /// locks, and waits for them: the caller has made sure no other operation
    /// of this client is inside a lock acquisition.  Nothing the commit
    /// posted is left in flight when this returns.
    pub(crate) fn run_followup(&mut self, followup: Followup, meta: &mut OpMeta) -> TreeResult<()> {
        let paid = match followup {
            Followup::Separator { split_key, sibling } => {
                self.insert_separator_at(split_key, sibling, 1, meta)
            }
            // Best-effort — the delete itself has already committed, so a
            // merge that loses its races (retry budgets included) must not
            // fail the operation; a later delete will retry it.
            Followup::Merge { addr, header } => {
                match self.try_merge(addr, 0, Some(&header), meta) {
                    Ok(()) | Err(TreeError::RetriesExhausted { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            }
        };
        self.observe(meta);
        paid
    }

    /// Build the write-back of `write` on the leaf at `addr`, `pre` its image.
    fn leaf_writeback(
        &mut self,
        addr: GlobalAddress,
        pre: &[u8],
        write: &PointWrite,
    ) -> Vec<WriteCmd> {
        let layout = *self.layout();
        if !self.leaf_format().is_sorted() {
            return vec![write.command(&layout, addr)];
        }
        // Sorted layouts shift entries and write the whole node back.
        let mut leaf = layout.decode_leaf(pre);
        leaf.entries[write.slot] = write.entry;
        let pairs = leaf.sorted_pairs();
        leaf.repack_sorted(&pairs);
        leaf.header.bump_versions();
        self.ctx.charge_scan(layout.node_size());
        vec![WriteCmd::new(addr, self.encode(&leaf))]
    }

    // ------------------------------------------------------------------
    // Splits, separator insertion, root growth
    // ------------------------------------------------------------------

    /// Split the full, locked leaf at `addr` (`pre` its image) around the new
    /// `key`: both halves are written back with the release of its lock; the
    /// new right half still needs its separator in the parent level.
    fn split_leaf(
        &mut self,
        addr: GlobalAddress,
        pre: &[u8],
        key: u64,
        value: u64,
        meta: &mut OpMeta,
    ) -> TreeResult<Followup> {
        let layout = *self.layout();
        let mut leaf = layout.decode_leaf(pre);
        let dense = self.leaf_format().is_sorted();
        // Sorting the (possibly unsorted) leaf before the split costs local
        // CPU time (Figure 7, line 21).
        self.ctx.charge_scan(layout.node_size());
        let (split_key, mut right) = leaf.split(&layout, dense);

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
        if dense {
            let pairs = target.sorted_pairs();
            target.repack_sorted(&pairs);
        }
        let sibling = self.install_right_half(addr, pre, &mut leaf, &mut right, meta)?;
        Ok(Followup::Separator { split_key, sibling })
    }

    /// The tail of every split, run under the lock on `addr` (`pre` the image
    /// read under it): allocate the right half's node, link it behind `left`
    /// B-link style, and write both halves back with the release of the lock
    /// — the right half whole, of the left half what the split changed.
    /// Returns the new node's address; with command combination the writes
    /// are left in `meta.in_flight` for the separator insertion to overlap
    /// and — the right half's — to observe before it writes (ordering rule 2).
    fn install_right_half<N: TreeNode>(
        &mut self,
        addr: GlobalAddress,
        pre: &[u8],
        left: &mut N,
        right: &mut N,
        meta: &mut OpMeta,
    ) -> TreeResult<GlobalAddress> {
        let alloc = match self.allocator.alloc_node(self.ctx) {
            Ok(a) => a,
            Err(e) => {
                // Do not leak the node lock when the cluster is out of memory.
                self.release_lock(addr, Vec::new())?;
                return Err(e.into());
            }
        };
        left.header_mut().sibling = Some(alloc.addr);
        // A recycled address still holds its tombstone; the first image
        // written there must be stamped above the tombstone's version so
        // versions bump across reuse (fresh carves seed at version 1, the
        // same value the pre-reuse code produced).
        right.header_mut().set_versions(alloc.first_version());
        let right_half = self.write_back(alloc.addr, None, self.encode(right));
        let left_half = self.write_back(addr, Some(pre), self.encode(left));
        let written_back = right_half.bytes() + left_half.bytes();
        let mut writes = Vec::with_capacity(1 + left_half.cmds.len());
        if alloc.addr.ms == addr.ms {
            // Same memory server: the sibling write-back joins the combined
            // batch (write sibling, write node, release lock — one round trip).
            writes.extend(right_half.cmds);
        } else {
            // Another queue pair: posted first, beside the batch.
            let sent = match self.combine() {
                true => self.ctx.post_write_batch(&right_half.cmds).map(|token| meta.in_flight.push(token)),
                false => self.ctx.post_writes(&right_half.cmds),
            };
            if let Err(e) = sent {
                // Neither the node lock nor the carved node may leak.
                self.release_lock(addr, Vec::new())?;
                self.retire_unlinked(alloc.addr, alloc.version_floor);
                return Err(e.into());
            }
        }
        writes.extend(left_half.cmds);
        self.cluster.space_counters().record_structural_commit(written_back);
        self.release_lock_ahead(addr, writes, meta)?;
        Ok(alloc.addr)
    }

    /// Retire a node that never became reachable (its image, if one was
    /// written, has node-level version `version`) — through the same publish
    /// → retire protocol as every other retirement: a racing reader may have
    /// cached a stale pointer to the address, and the invariant "every
    /// retirement posted its invalidations" stays uniform.
    fn retire_unlinked(&mut self, addr: GlobalAddress, version: u8) {
        let mut commit = StructuralCommit::new();
        commit.invalidate(addr, version);
        let published = self.publish_commit(commit);
        published.retire_all(self.cluster, self.ctx.now());
    }

    /// Insert the separator `sep_key → child` at `parent_level`, splitting
    /// upward as far as it takes.  The traversal and the parent's lock + read
    /// overlap whatever the split below left in flight.
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
                // The new root makes `child` reachable from above.
                self.observe(meta);
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
                if node.header.free {
                    // A cached route led to a retired node whose invalidation
                    // has not been drained (operations drain at their start
                    // only): scrub the route here, or every retry follows it.
                    self.cluster.cache(self.cs_id).invalidate_addr(addr);
                }
                self.release_lock(addr, Vec::new())?;
                if !node.header.free
                    && node.header.level == parent_level
                    && sep_key >= node.header.fence_high
                {
                    pending = node.header.sibling;
                }
                continue;
            }
            // Either branch below makes `child` reachable from this node:
            // `child`'s own write must have completed first.  (The lock +
            // read round trip that just ended was its overlap.)
            self.observe(meta);

            if !node.is_full(self.layout()) {
                node.insert_separator(sep_key, child);
                node.header.bump_versions();
                let write_back = self.write_back(addr, Some(&buf), self.encode(&node));
                let counters = self.cluster.space_counters();
                counters.record_structural_commit(write_back.bytes());
                self.release_lock(addr, write_back.cmds)?;
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
            let right_addr = self.install_right_half(addr, &buf, &mut node, &mut right, meta)?;
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
            cache.offer(Arc::new(cached_from_internal(addr, node)), root_level);
        }
    }

    /// Swing the root pointer from `packed` to `new_root` (the linearization
    /// point of root growth and root collapse) and, on success, update the
    /// level hint remotely and locally.  Returns whether the CAS won.
    fn swing_root(
        &mut self,
        packed: u64,
        new_root: GlobalAddress,
        new_level: u8,
    ) -> TreeResult<bool> {
        let root_ptr = self.cluster.root_ptr_addr();
        if !self.ctx.cas(root_ptr, packed, new_root.pack())?.succeeded {
            return Ok(false);
        }
        self.ctx
            .write_u64(ServerLayout::level_hint_addr(), new_level as u64)?;
        self.cluster.set_root_hint(new_root, new_level);
        Ok(true)
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
        let packed = self.ctx.read_u64(self.cluster.root_ptr_addr())?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let old_root = GlobalAddress::unpack(packed);
        // Verify the old root really is one level below the root we intend to
        // create; otherwise someone else already grew the tree.
        let buf = self.read_node_consistent(old_root, &mut OpMeta::default())?;
        let header = self.layout().decode_header(&buf);
        if header.free || header.level + 1 != new_level {
            return Ok(false);
        }

        let alloc = self.allocator.alloc_node(self.ctx)?;
        let mut new_root = InternalNode::new(new_level, 0, u64::MAX, old_root);
        new_root.insert_separator(sep_key, right_child);
        // Stamp above any tombstone left at a recycled address (versions bump
        // across reuse).
        new_root.header.set_versions(alloc.first_version());
        // The new root is not reachable yet, so no lock is needed for this
        // write; the root-pointer CAS is the linearization point.
        let image = self.encode(&new_root);
        self.ctx.write(alloc.addr, &image)?;
        if self.swing_root(packed, alloc.addr, new_level)? {
            let counters = self.cluster.space_counters();
            counters.record_structural_commit(image.len() as u64);
            self.offer_written(&[(alloc.addr, &new_root)], new_level);
            return Ok(true);
        }
        // Lost the race: mark our orphan node free so later readers that
        // stumble on it via stale pointers reject it.
        self.ctx.write(alloc.addr.add(1), &[FLAG_FREE])?;
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
    fn find_merge_pair(
        &mut self,
        node_addr: GlobalAddress,
        hdr: &NodeHeader,
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
            if parent.header.free {
                // As in `insert_separator_at`: scrub the route that led here.
                self.cluster.cache(self.cs_id).invalidate_addr(addr);
            }
            if parent.header.free || parent.header.is_leaf || parent.header.level != level + 1 {
                continue;
            }
            if !parent.header.covers(hdr.fence_low) {
                if hdr.fence_low >= parent.header.fence_high {
                    pending = parent.header.sibling;
                }
                continue;
            }
            let image = cached_from_internal(addr, &parent);
            return Ok(MergePartners::under(&image, node_addr, hdr));
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
    fn try_merge(
        &mut self,
        node_addr: GlobalAddress,
        level: u8,
        known_hdr: Option<&NodeHeader>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
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
                None => self.find_merge_pair(node_addr, &hdr, level, meta)?,
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
                    match self.try_merge_pair(pair, partners.parent, level, meta)? {
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
    fn try_merge_pair(
        &mut self,
        (left_addr, right_addr, direction): (GlobalAddress, GlobalAddress, MergeDirection),
        parent_addr: GlobalAddress,
        level: u8,
        meta: &mut OpMeta,
    ) -> TreeResult<PairOutcome> {
        // Phase 2: lock all three nodes, re-read, re-validate.  The same
        // predicate covers both directions: the pair must be fence-adjacent
        // B-link siblings whose separator lives in this parent.
        let (plan, [left_buf, right_buf, parent_buf]) =
            self.lock_and_read_plan([left_addr, right_addr, parent_addr], meta)?;
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
            self.plan_merge::<LeafNode>(left_addr, &left_buf, &right_buf, direction)
        } else {
            self.plan_merge::<InternalNode>(left_addr, &left_buf, &right_buf, direction)
        };
        let Some(merge) = merge else {
            self.abandon_plan(&plan)?;
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
        let (mut chase, mut cascade) = (false, false);
        let counters = self.cluster.space_counters();
        match merge.change {
            PairChange::Merge {
                right_version,
                still_underfull,
            } => {
                assert!(parent.remove_separator(sep, right_addr));
                commit.invalidate(right_addr, right_version);
                parent.header.free = parent.entries.is_empty()
                    && match self.try_collapse_root(parent_addr, &parent, level) {
                        Ok(collapsed) => collapsed,
                        Err(e) => {
                            self.abandon_plan(&plan)?;
                            return Err(e);
                        }
                    };
                chase = still_underfull;
                cascade = !parent.header.free
                    && parent.entries.len() < self.merge_floor::<InternalNode>();
                if is_leaf {
                    counters.record_leaf_merge();
                } else {
                    counters.record_internal_merge();
                }
                if direction == MergeDirection::Left {
                    counters.record_left_merge();
                }
            }
            PairChange::Rebalance { new_sep } => {
                assert!(parent.retarget_separator(sep, new_sep, right_addr));
                if is_leaf {
                    counters.record_rebalance();
                } else {
                    counters.record_internal_rebalance();
                }
            }
        }
        parent.header.bump_versions();
        if parent.header.free {
            commit.invalidate(parent_addr, parent.header.front_version);
        }
        let writes = vec![
            self.write_back(left_addr, Some(&left_buf), merge.left_bytes),
            self.write_back(right_addr, Some(&right_buf), merge.right_bytes),
            self.write_back(parent_addr, Some(&parent_buf), self.encode(&parent)),
        ];
        counters.record_structural_commit(writes.iter().map(WriteBack::bytes).sum());
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
        self.release_plan(&plan, writes, &published)?;

        // Phase 5: post-commit bookkeeping (no locks held).  Retirement
        // consumes the published commit, so the freed addresses are exactly
        // the invalidations that were posted; remote caches heal when the
        // `RefreshTop` messages are drained, the committer's own cache was
        // healed synchronously at publish (both at the images' own levels).
        published.retire_all(self.cluster, self.ctx.now());
        // A merge of two tiny nodes can leave the survivor itself below the
        // floor with no delete ever landing on it again; chase it now so no
        // node stays persistently underfull while a partner exists (bounded:
        // every merge removes one node from the level).
        if chase {
            self.try_merge(left_addr, level, None, meta)?;
        }
        if cascade {
            // The parent itself dropped below the merge threshold: recurse
            // one level up (bounded by the tree height).
            self.try_merge(parent_addr, level + 1, None, meta)?;
        }
        Ok(PairOutcome::Committed)
    }

    /// Build the post-merge (or post-rebalance) images for two adjacent
    /// nodes, or `None` when the initiating node — the left of the pair for
    /// [`MergeDirection::Right`], the right for [`MergeDirection::Left`] — is
    /// no longer a merge candidate.  When the pair does not fit in one node,
    /// entries move toward the underfull side until it reaches the merge
    /// floor, without draining the donor below it (internal nodes rotate
    /// children through the pair's boundary); the parent's separator is then
    /// retargeted in the same critical section.
    fn plan_merge<N: TreeNode>(
        &mut self,
        left_addr: GlobalAddress,
        left_buf: &[u8],
        right_buf: &[u8],
        direction: MergeDirection,
    ) -> Option<MergePlan> {
        let layout = *self.layout();
        let mut left = N::decode(&layout, left_buf);
        let mut right = N::decode(&layout, right_buf);
        let floor = self.merge_floor::<N>();
        let (underfull, donor) = match direction {
            MergeDirection::Right => (left.occupancy(), right.occupancy()),
            MergeDirection::Left => (right.occupancy(), left.occupancy()),
        };
        if underfull >= floor {
            return None;
        }
        // Local CPU cost of sorting the pairs that move (same accounting as
        // splits).
        self.ctx.charge_scan(layout.node_size());
        let dense = self.leaf_format().is_sorted();
        let capacity = N::capacity(&layout);
        let change = if underfull + N::JOIN + donor <= capacity {
            left.absorb_right(&right, dense);
            let tombstone = right.header_mut();
            tombstone.free = true;
            tombstone.bump_versions();
            PairChange::Merge {
                right_version: tombstone.front_version,
                still_underfull: left.occupancy() < floor,
            }
        } else {
            let spare = donor.saturating_sub(floor);
            let move_n = (floor - underfull).min(spare).min(capacity - underfull);
            if move_n == 0 {
                return None;
            }
            let new_sep = match direction {
                MergeDirection::Right => left.take_from_right(&mut right, move_n, dense),
                MergeDirection::Left => right.take_from_left(&mut left, move_n, dense),
            };
            PairChange::Rebalance { new_sep }
        };
        Some(MergePlan {
            left_bytes: self.encode(&left),
            right_bytes: self.encode(&right),
            left_image: left.cached(left_addr),
            change,
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
        let packed = self.ctx.read_u64(self.cluster.root_ptr_addr())?;
        if packed != parent_addr.pack() {
            // Not the root (or no longer): an empty internal node with one
            // leftmost child is still a valid router, so just leave it.
            return Ok(false);
        }
        let child = parent
            .header
            .leftmost
            .expect("internal node has leftmost child");
        let collapsed = self.swing_root(packed, child, child_level)?;
        if collapsed {
            self.cluster.space_counters().record_root_collapse();
        }
        Ok(collapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::{TreeConfig, TreeOptions};
    use proptest::prelude::*;

    /// One generated slot: `(live, key, front version, rear version)`.  Live
    /// if the first byte is below the leaf's density; vacant slots keep the
    /// versions of whatever they held last.
    type Slot = (u8, u64, u8, u8);

    /// An unsorted leaf holding keys of `[0, 64)` in the slots `slots` put
    /// them in (cycled over the leaf's capacity); every slot is live when
    /// `full`.
    fn leaf_of(layout: &NodeLayout, slots: &[Slot], density: u8, full: bool) -> LeafNode {
        let mut leaf = LeafNode::empty(layout, NodeHeader::new(true, 0, 0, u64::MAX));
        let slots = slots.iter().cycle();
        for (entry, &(live, key, front, rear)) in leaf.entries.iter_mut().zip(slots) {
            *entry = LeafEntry {
                front_version: front,
                rear_version: rear,
                present: full || live < density,
                key: key % 64,
                value: key,
            };
        }
        leaf.header.count = leaf.live_count();
        leaf
    }

    /// The slot, the command and the live count a point write on the leaf
    /// at `addr` ends with.
    type Planned = (usize, (GlobalAddress, Vec<u8>), usize);

    /// What the commit did before it probed the image: decode the leaf, pick
    /// the slot with `slot_of` / `vacant_slot`, `install` or `clear` it, send
    /// it as `encode_leaf_entry`, count with `live_count`.
    fn decoded_reference(
        layout: &NodeLayout,
        image: &[u8],
        addr: GlobalAddress,
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
        let at = addr.add(layout.leaf_entry_offset(slot) as u64);
        let bytes = layout.encode_leaf_entry(&leaf.entries[slot]);
        Some((slot, (at, bytes), leaf.live_count()))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

        /// A point write planned on the locked image agrees with the decoded
        /// leaf on the slot, the command's address and bytes and the live
        /// count — hence on the merge decision — and on whether there is a
        /// slot at all, "must split" for an insert: on 256 B and 1 KB unsorted
        /// leaves with holes anywhere and arbitrary entry versions, for an
        /// insert of a present key, of an absent one into a leaf with a hole
        /// and into a full leaf, and a delete of a present and of an absent
        /// key.
        #[test]
        fn a_point_write_on_the_image_is_the_decoded_one(
            slots in prop::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u8>(), any::<u8>()),
                1..64,
            ),
            density in any::<u8>(),
            node_size in prop::sample::select(vec![256usize, 1024]),
            case in 0u8..5,
            draw in (any::<usize>(), any::<u64>()),
        ) {
            let (pick, value) = draw;
            let layout = NodeLayout::new(&TreeConfig { node_size, ..TreeConfig::default() });
            let mut leaf = leaf_of(&layout, &slots, density, case == 2);
            if case == 1 {
                let hole = pick % leaf.entries.len();
                leaf.entries[hole].present = false;
            }
            let image = layout.encode_leaf(&leaf);
            let live = leaf.entries.iter().filter(|e| e.present);
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

            let addr = GlobalAddress::host(1, 1 << 20);
            let planned = PointWrite::plan(&layout, &image, key, kind).map(|write| {
                let cmd = write.command(&layout, addr);
                (write.slot, (cmd.addr, cmd.data), write.live)
            });
            let reference = decoded_reference(&layout, &image, addr, key, kind);
            prop_assert_eq!(&planned, &reference);
            // A full leaf splits and an absent key is not deleted; every
            // other case takes a slot.
            prop_assert_eq!(planned.is_none(), matches!(case, 2 | 4));
            let capacity = layout.leaf_capacity() as f64;
            let floor = (capacity * TreeOptions::DEFAULT_MERGE_THRESHOLD) as usize;
            let merges = |p: &Option<Planned>| {
                kind == WriteKind::Delete && p.as_ref().is_some_and(|p| p.2 < floor)
            };
            prop_assert_eq!(merges(&planned), merges(&reference));
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
        let mut cx = client.op_cx();
        let (plan, images) = cx.lock_and_read_plan([left, right, parent], &mut meta).unwrap();
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
        let before = cx.ctx.stats();
        let published = cx.publish_commit(StructuralCommit::new());
        cx.release_plan(&plan, writes, &published).unwrap();
        published.retire_all(&cluster, cx.ctx.now());
        let spent = cx.ctx.stats().delta_since(&before);
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
            let failed = client.op_cx().try_merge_pair(pair, beyond, 0, &mut meta);
            assert!(matches!(failed, Err(TreeError::Fabric(_))), "{failed:?}");
            assert_eq!(client.ctx.outstanding(), 0);

            // One attempt each, so that a leaked lock fails the test instead
            // of hanging it.
            let mgr = cluster.lock_manager();
            let mut other = cluster.fabric().client(1);
            for ctx in [&mut other, &mut client.ctx] {
                for node in [left, right, beyond] {
                    let mut attempt = Acquisition::try_once(node, None);
                    let AcquireStep::Pending(token) =
                        mgr.step_acquire(ctx, &mut attempt, None).unwrap()
                    else {
                        panic!("the local lock on {node:?} is still held");
                    };
                    let completion = ctx.poll_token(token);
                    let won = mgr.step_acquire(ctx, &mut attempt, Some(completion)).unwrap();
                    assert!(matches!(won, AcquireStep::Done { .. }), "{node:?} is still locked");
                    mgr.release(ctx, node, Vec::new(), true).unwrap();
                }
            }
        }
    }
}
