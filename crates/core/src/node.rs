//! In-memory node representations and the pure (network-free) node logic:
//! entry search, sorted/unsorted insertion, splits.
//!
//! Keeping this logic free of fabric calls makes it directly unit- and
//! property-testable; the client in [`crate::client`] glues it to RDMA verbs,
//! locks and the cache.

use crate::config::LeafFormat;
use crate::layout::{key_tag, NodeLayout};
use sherman_sim::GlobalAddress;

/// Decoded node header (common to leaves and internal nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHeader {
    /// Front node-level version (first byte of the node).
    pub front_version: u8,
    /// Rear node-level version (in the node's tail word).
    pub rear_version: u8,
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Whether this node has been freed (§4.2.4: deallocation clears a free
    /// bit instead of running a GC protocol).
    pub free: bool,
    /// Level in the tree; leaves are level 0.
    pub level: u8,
    /// Number of valid entries (authoritative for sorted layouts).
    pub count: usize,
    /// Inclusive lower bound of keys that may appear in this node.
    pub fence_low: u64,
    /// Exclusive upper bound (`u64::MAX` = +∞).
    pub fence_high: u64,
    /// Right sibling (B-link pointer).
    pub sibling: Option<GlobalAddress>,
    /// Leftmost child (internal nodes only).
    pub leftmost: Option<GlobalAddress>,
}

impl NodeHeader {
    /// A fresh header covering `[fence_low, fence_high)` at `level`.
    pub fn new(is_leaf: bool, level: u8, fence_low: u64, fence_high: u64) -> Self {
        NodeHeader {
            front_version: 0,
            rear_version: 0,
            is_leaf,
            free: false,
            level,
            count: 0,
            fence_low,
            fence_high,
            sibling: None,
            leftmost: None,
        }
    }

    /// Whether `key` belongs to this node's key interval.
    pub fn covers(&self, key: u64) -> bool {
        key >= self.fence_low && (self.fence_high == u64::MAX || key < self.fence_high)
    }

    /// Where a walk toward `key` at `level` goes from this node: the one
    /// B-link move-right rule (Lehman and Yao), for every walk of the client
    /// and of the offload interpreter.
    pub fn step(&self, key: u64, level: u8) -> Step {
        if self.free || self.level != level || self.is_leaf != (level == 0) {
            return Step::Lost;
        }
        if self.covers(key) {
            return Step::Here;
        }
        match self.sibling {
            Some(sibling) if key >= self.fence_high => Step::Right(sibling),
            _ => Step::Lost,
        }
    }

    /// Whether the node-level version pair is consistent.
    pub fn versions_match(&self) -> bool {
        self.front_version == self.rear_version
    }

    /// Bump both node-level versions (done while holding the node lock, before
    /// a whole-node write-back).
    pub fn bump_versions(&mut self) {
        self.front_version = self.front_version.wrapping_add(1);
        self.rear_version = self.front_version;
    }

    /// The header of an empty right half for a split of this node: an empty
    /// interval at this node's upper fence and its B-link pointer.  A
    /// rebalance into it sets its lower fence ([`LeafNode::rebalance`],
    /// [`InternalNode::rebalance`]).
    pub fn empty_right(&self) -> NodeHeader {
        NodeHeader {
            sibling: self.sibling,
            ..NodeHeader::new(self.is_leaf, self.level, self.fence_high, self.fence_high)
        }
    }

    /// Grow this interval over `other`'s, a fence-adjacent sibling's: up to
    /// its upper fence, taking its B-link pointer, when it lies right; down
    /// to its lower fence when it lies left.  Both versions are bumped.
    fn absorb(&mut self, other: &NodeHeader) {
        if self.fence_high == other.fence_low {
            self.fence_high = other.fence_high;
            self.sibling = other.sibling;
        } else {
            self.fence_low = other.fence_low;
        }
        self.bump_versions();
    }

    /// Move the shared fence of this node and `right`, its B-link sibling, to
    /// `sep`, bumping both nodes' versions.  Returns `sep`.
    fn move_boundary(&mut self, right: &mut NodeHeader, sep: u64) -> u64 {
        self.fence_high = sep;
        right.fence_low = sep;
        self.bump_versions();
        right.bump_versions();
        sep
    }

    /// Set both node-level versions to `v`.
    ///
    /// Used when a node image is written to a **recycled** address: the first
    /// image must be stamped strictly above the tombstone's version
    /// ([`sherman_memserver::AllocatedNode::first_version`]) so that a torn
    /// read mixing tombstone and fresh bytes can never present a matching
    /// version pair — versions always bump across reuse.
    pub fn set_versions(&mut self, v: u8) {
        self.front_version = v;
        self.rear_version = v;
    }
}

/// What a walk makes of a node it reached ([`NodeHeader::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A live node of the walk's level whose interval holds the key.
    Here,
    /// The key lies at or past the node's upper fence: a split moved it to
    /// the right sibling, which the walk reads next.
    Right(GlobalAddress),
    /// A tombstone, a node of another level, or a node whose interval lies
    /// right of the key: the route that led here is stale, and the walk
    /// starts over from above.
    Lost,
}

impl Step {
    /// The sibling to move to, if the step moves right.
    pub fn right(self) -> Option<GlobalAddress> {
        match self {
            Step::Right(sibling) => Some(sibling),
            _ => None,
        }
    }
}

/// One leaf entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafEntry {
    /// Front entry-level version.
    pub front_version: u8,
    /// Rear entry-level version.
    pub rear_version: u8,
    /// The key tag as stored: 0 for a vacant slot, [`key_tag`] of the key
    /// for a live one.  Only [`LeafEntry::install`] makes a slot live, so an
    /// entry built here carries its key's tag; a decoded one carries whatever
    /// byte the image held.
    pub(crate) tag: u8,
    /// The key.
    pub key: u64,
    /// The value.
    pub value: u64,
}

impl LeafEntry {
    /// An empty slot: every byte 0.
    pub fn empty() -> Self {
        LeafEntry::default()
    }

    /// Whether the slot holds a live record (its tag is not 0).
    pub fn present(&self) -> bool {
        self.tag != 0
    }

    /// Whether the entry-level version pair is consistent.
    pub fn versions_match(&self) -> bool {
        self.front_version == self.rear_version
    }

    /// Install `key → value` into this slot, bumping the entry versions
    /// (two-level version write path).
    pub fn install(&mut self, key: u64, value: u64) {
        self.key = key;
        self.value = value;
        self.tag = key_tag(key);
        self.front_version = self.front_version.wrapping_add(1);
        self.rear_version = self.front_version;
    }

    /// Vacate this slot for a point delete: its tag becomes 0 and nothing
    /// else changes, so the write-back is that one byte.  A reader of a
    /// vacant slot heeds the tag alone — its key, value and version pair are
    /// never read — and the next [`LeafEntry::install`] bumps the pair from
    /// what the slot holds, so a torn re-insert is still caught.
    pub fn vacate(&mut self) {
        self.tag = 0;
    }

    /// Clear this slot in a structural edit ([`LeafNode::set_pairs`],
    /// [`LeafNode::repack_sorted`]), bumping the entry versions: the image
    /// travels as planned from the whole node, where a point delete sends
    /// its tag byte alone ([`LeafEntry::vacate`]).
    pub fn clear(&mut self) {
        self.tag = 0;
        self.front_version = self.front_version.wrapping_add(1);
        self.rear_version = self.front_version;
    }
}

/// What one point search of a leaf found ([`LeafNode::search`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafSearch {
    /// The first present slot holding the key.
    pub entry: Option<LeafEntry>,
    /// The matched entry's version pair is torn: an entry-granular write is
    /// in flight and the reader must read the leaf again.
    pub torn: bool,
    /// Slots whose tag was examined, the matched one included.
    pub scanned: usize,
    /// Slots whose key was read: those whose stored tag matched the key's.
    pub compared: usize,
}

impl LeafSearch {
    /// The key's value, unless the search missed it or found it torn.
    pub fn value(&self) -> Option<u64> {
        self.entry.filter(|_| !self.torn).map(|e| e.value)
    }
}

/// How a structural edit rewrites a leaf's slots ([`LeafNode::set_pairs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafEdit {
    /// Re-pack the pairs densely from slot 0 in key order: the sorted
    /// formats.
    Repack,
    /// Edit in place and clear the slot of every key that leaves: an unsorted
    /// leaf whose write-back travels whole, where a cleared slot costs
    /// nothing more and spares later inserts a second command.
    Clear,
    /// Edit in place and leave the slot of a key that leaves beyond the new
    /// fences as it is, stale: an unsorted leaf whose write-back is planned,
    /// where the slot then costs no byte.
    Lazy,
}

/// A decoded leaf node: a fixed array of slots (dense for sorted layouts,
/// sparse for the unsorted two-level-version layout).  A slot holds one of
/// the leaf's pairs when its tag is set and its key lies within the fences
/// ([`LeafNode::owns`]); a tagged slot outside them is stale and reads as
/// vacant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNode {
    /// Node header.
    pub header: NodeHeader,
    /// All slots, `layout.leaf_capacity()` of them.
    pub entries: Vec<LeafEntry>,
}

impl LeafNode {
    /// An empty leaf with every slot vacant.
    pub fn empty(layout: &NodeLayout, header: NodeHeader) -> Self {
        LeafNode {
            header,
            entries: vec![LeafEntry::empty(); layout.leaf_capacity()],
        }
    }

    /// Whether `entry`, one of this leaf's slots, holds one of its pairs: its
    /// tag is set and its key lies within the fences.
    pub fn owns(&self, entry: &LeafEntry) -> bool {
        entry.present() && self.header.covers(entry.key)
    }

    /// Number of live entries.
    pub fn live_count(&self) -> usize {
        self.entries.iter().filter(|e| self.owns(e)).count()
    }

    /// Find the slot holding `key` behind its [`key_tag`], if any: a slot
    /// whose stored tag is not its key's is one no point operation finds, and
    /// a key outside the fences is in no slot of this leaf.
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        let tag = key_tag(key);
        let held = |e: &LeafEntry| e.tag == tag && e.key == key;
        self.entries.iter().position(held).filter(|_| self.header.covers(key))
    }

    /// Find a vacant slot — its tag 0, or stale — if any.
    pub fn vacant_slot(&self) -> Option<usize> {
        self.entries.iter().position(|e| !self.owns(e))
    }

    /// Search for `key` as a point lookup reads a leaf of `format`: slot by
    /// slot up to the first present slot holding it — through every slot of
    /// an unsorted leaf, through the first `count` of a sorted one (what lies
    /// past them is not the leaf's).  A slot's key is read only where its
    /// stored tag is the key's [`key_tag`]; a vacant slot's tag, 0, matches
    /// no key.  Only two-level versions check the matched entry's own
    /// version pair.  A key outside the fences is not searched for: no slot
    /// of this leaf holds it, and a stale one may.
    pub fn search(&self, key: u64, format: LeafFormat) -> LeafSearch {
        if !self.header.covers(key) {
            return LeafSearch::default();
        }
        let slots = match format.is_sorted() {
            true => &self.entries[..self.header.count.min(self.entries.len())],
            false => &self.entries[..],
        };
        let tag = key_tag(key);
        let mut compared = 0;
        for (slot, entry) in slots.iter().enumerate() {
            if entry.tag != tag {
                continue;
            }
            compared += 1;
            if entry.key == key {
                return LeafSearch {
                    entry: Some(*entry),
                    torn: format == LeafFormat::UnsortedTwoLevel && !entry.versions_match(),
                    scanned: slot + 1,
                    compared,
                };
            }
        }
        LeafSearch {
            entry: None,
            torn: false,
            scanned: slots.len(),
            compared,
        }
    }

    /// What a scan takes from this leaf from `from` up: the live entries
    /// holding a key at or past `from`, as `(key, value)` in slot order — or
    /// `None` when any of them is torn (an entry-granular write in flight),
    /// and the leaf must be read again.
    pub fn entries_from(&self, from: u64) -> Option<impl Iterator<Item = (u64, u64)> + '_> {
        let needed = self
            .entries
            .iter()
            .filter(move |e| self.owns(e) && e.key >= from);
        if needed.clone().any(|e| !e.versions_match()) {
            return None;
        }
        Some(needed.map(|e| (e.key, e.value)))
    }

    /// All live `(key, value)` pairs in ascending key order.
    pub fn sorted_pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|e| self.owns(e))
            .map(|e| (e.key, e.value))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// Re-pack the node with `pairs` stored densely in sorted order (the
    /// sorted leaf formats, and a fresh leaf's first image).  Versions of
    /// rewritten slots are bumped; surplus slots are cleared.
    pub fn repack_sorted(&mut self, pairs: &[(u64, u64)]) {
        assert!(pairs.len() <= self.entries.len());
        for (i, slot) in self.entries.iter_mut().enumerate() {
            match pairs.get(i) {
                Some(&(k, v)) => slot.install(k, v),
                None => {
                    if slot.present() {
                        slot.clear();
                    }
                }
            }
        }
        self.header.count = pairs.len();
    }

    /// Make this leaf hold exactly `pairs` (ascending by key, inside the
    /// fences of `header`; a key it already holds keeps its value) under
    /// `header`.  [`LeafEdit::Repack`] re-packs it
    /// ([`LeafNode::repack_sorted`]).  Otherwise it is edited in place: every
    /// slot that keeps its pair — owned under the old fences, still wanted —
    /// is left as it was, entry versions included.  Of the other slots, one
    /// still tagged must be cleared, unless the edit is [`LeafEdit::Lazy`]
    /// and its key lies outside the new fences: it stays, stale.  The pairs
    /// the leaf does not hold yet are installed over the slots that must be
    /// cleared, then into the rest, lowest first.  So a write-back planned
    /// from the two images carries the slots that changed, and a stale slot
    /// the new fences take back in is overwritten or cleared — never read as
    /// live again.
    ///
    /// # Panics
    /// Panics if `pairs` do not fit.
    pub fn set_pairs(&mut self, pairs: &[(u64, u64)], header: NodeHeader, edit: LeafEdit) {
        let old = std::mem::replace(&mut self.header, header);
        self.header.count = pairs.len();
        if edit == LeafEdit::Repack {
            return self.repack_sorted(pairs);
        }
        let wanted = |key: u64| pairs.binary_search_by_key(&key, |&(k, _)| k).is_ok();
        let kept = |e: &LeafEntry| e.present() && old.covers(e.key) && wanted(e.key);
        let held: Vec<u64> = self.entries.iter().filter(|e| kept(e)).map(|e| e.key).collect();
        let mut arriving = pairs.iter().filter(|(k, _)| !held.contains(k));
        let new = &self.header;
        let (clear, spare): (Vec<_>, Vec<_>) = self
            .entries
            .iter_mut()
            .filter(|e| !kept(e))
            .partition(|e| e.present() && (edit == LeafEdit::Clear || new.covers(e.key)));
        for slot in clear {
            match arriving.next() {
                Some(&(k, v)) => slot.install(k, v),
                None => slot.clear(),
            }
        }
        for (slot, &(k, v)) in spare.into_iter().zip(&mut arriving) {
            slot.install(k, v);
        }
        assert!(arriving.next().is_none(), "a slot for every pair");
    }

    /// The pair's live pairs in key order: this leaf's, then those of
    /// `right`, its fence-adjacent B-link sibling.
    fn joined(&self, right: &LeafNode) -> Vec<(u64, u64)> {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "siblings must be fence-adjacent"
        );
        let mut pairs = self.sorted_pairs();
        pairs.extend(right.sorted_pairs());
        pairs
    }

    /// Take every live pair of `other`, a fence-adjacent sibling this leaf
    /// survives, by [`LeafNode::set_pairs`] (re-packed in sorted order or
    /// into vacant slots, as `edit` says), and grow over its interval: up to
    /// its upper fence, taking its B-link pointer, when it lies right; down
    /// to its lower fence when it lies left.  Versions are bumped.  `other`
    /// is left as it was: the caller's tombstone.
    ///
    /// # Panics
    /// Panics if the pairs do not fit or the leaves are not fence-adjacent.
    pub fn absorb(&mut self, other: &LeafNode, edit: LeafEdit) {
        let pairs = match self.header.fence_high == other.header.fence_low {
            true => self.joined(other),
            false => other.joined(self),
        };
        assert!(pairs.len() <= self.entries.len(), "merged leaf overflows");
        let mut header = self.header.clone();
        header.absorb(&other.header);
        self.set_pairs(&pairs, header, edit);
    }

    /// Re-divide this leaf and `right`, its fence-adjacent B-link sibling, at
    /// one boundary: of their live pairs in key order the first `left_len`
    /// stay here, the rest go right, each side rewritten by
    /// [`LeafNode::set_pairs`] as `edit` says and version-bumped.  Returns
    /// the new separator, the smallest key `right` holds, at which their
    /// shared fence now lies.  A split is a rebalance into an empty right
    /// half.
    ///
    /// # Panics
    /// Panics if either side would be left empty or overflows, or if the
    /// leaves are not fence-adjacent.
    pub fn rebalance(&mut self, right: &mut LeafNode, left_len: usize, edit: LeafEdit) -> u64 {
        let pairs = self.joined(right);
        assert!(0 < left_len && left_len < pairs.len(), "both sides keep a pair");
        let (low, high) = pairs.split_at(left_len);
        let (mut left_header, mut right_header) = (self.header.clone(), right.header.clone());
        let sep = left_header.move_boundary(&mut right_header, high[0].0);
        self.set_pairs(low, left_header, edit);
        right.set_pairs(high, right_header, edit);
        sep
    }

    /// Split this (full) leaf: the upper half of its keys move to a new leaf
    /// covering `[split_key, old_fence_high)`.  Returns the new sibling's
    /// contents; the caller allocates its address and links
    /// `self.header.sibling` to it.
    ///
    /// The paper sorts unsorted leaves before splitting (Figure 7, line 21)
    /// to find the median.  The new leaf fills from slot 0 in key order; this
    /// one is rewritten by [`LeafNode::set_pairs`] as `edit` says: re-packed,
    /// or the slots of the keys that moved cleared, or — lazily — left stale.
    pub fn split(&mut self, layout: &NodeLayout, edit: LeafEdit) -> (u64, LeafNode) {
        let mut right = LeafNode::empty(layout, self.header.empty_right());
        let split_key = self.rebalance(&mut right, self.live_count() / 2, edit);
        (split_key, right)
    }
}

/// One separator entry of an internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalEntry {
    /// Separator key: keys `>= key` (and below the next separator) are routed
    /// to `child`.
    pub key: u64,
    /// Child node address.
    pub child: GlobalAddress,
}

/// A decoded internal node (sorted separators plus the leftmost child in the
/// header).
///
/// The separators fill a **window** of the node's slots, `start..start +
/// entries.len()`, that slides: an edit shifts whichever side of the window is
/// shorter, so removing the first separator moves `start` and no entry.  An
/// insert whose side has run out of slots recenters the window; a window that
/// a merge grew past the last slot is recentered when the node is encoded
/// ([`NodeLayout::encode_internal`]) — both by [`NodeLayout::centered_start`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalNode {
    /// Node header (holds the leftmost child pointer).
    pub header: NodeHeader,
    /// The slot of the first separator.
    pub start: usize,
    /// Sorted separator entries.
    pub entries: Vec<InternalEntry>,
}

impl InternalNode {
    /// A fresh internal node at `level` with the given leftmost child.
    pub fn new(level: u8, fence_low: u64, fence_high: u64, leftmost: GlobalAddress) -> Self {
        let mut header = NodeHeader::new(false, level, fence_low, fence_high);
        header.leftmost = Some(leftmost);
        InternalNode {
            header,
            start: 0,
            entries: Vec::new(),
        }
    }

    /// The child a traversal for `key` descends into.
    pub fn child_for(&self, key: u64) -> GlobalAddress {
        match self.entries.partition_point(|e| e.key <= key) {
            0 => self.header.leftmost.expect("internal node has leftmost child"),
            n => self.entries[n - 1].child,
        }
    }

    /// Insert a separator (keeping entries sorted), shifting the shorter side
    /// of the window.  When that side has no slot left — the front at the
    /// node's first slot, the back at its last — the window is recentered
    /// ([`NodeLayout::centered_start`]) instead, so a run of inserts at either
    /// edge rewrites the node once and then one slot an insert.  Returns
    /// `false` if the separator already exists (idempotent re-insertion after
    /// a retried split).
    pub fn insert_separator(&mut self, key: u64, child: GlobalAddress, layout: &NodeLayout) -> bool {
        let Err(pos) = self.entries.binary_search_by_key(&key, |e| e.key) else {
            return false;
        };
        let front = pos < self.entries.len() - pos;
        self.entries.insert(pos, InternalEntry { key, child });
        self.header.count = self.entries.len();
        match front {
            true if self.start > 0 => self.start -= 1,
            false if self.start + self.entries.len() <= layout.internal_capacity() => {}
            _ => self.start = layout.centered_start(self.entries.len()),
        }
        true
    }

    /// Whether another separator still fits.
    pub fn is_full(&self, layout: &NodeLayout) -> bool {
        self.entries.len() >= layout.internal_capacity()
    }

    /// Split this (full) internal node.  The median separator moves up; the
    /// upper half becomes a new right sibling.  Returns `(promoted_key,
    /// right_node)`.
    pub fn split(&mut self) -> (u64, InternalNode) {
        assert!(self.entries.len() >= 3, "internal split needs >= 3 separators");
        let mut right = InternalNode {
            header: self.header.empty_right(),
            start: 0,
            entries: Vec::new(),
        };
        let promoted = self.rebalance(&mut right, self.entries.len() / 2);
        (promoted, right)
    }

    /// Remove the separator `key` if (and only if) it routes to `child`,
    /// shifting the shorter side of the window.  Returns whether the entry
    /// was removed.  The child check makes the operation idempotent under
    /// races: a stale retry cannot remove a separator that was re-inserted
    /// for a different node.
    pub fn remove_separator(&mut self, key: u64, child: GlobalAddress) -> bool {
        match self.entries.binary_search_by_key(&key, |e| e.key) {
            Ok(pos) if self.entries[pos].child == child => {
                if pos < self.entries.len() - 1 - pos {
                    self.start += 1;
                }
                self.entries.remove(pos);
                self.header.count = self.entries.len();
                true
            }
            _ => false,
        }
    }

    /// Replace the separator `old_key → child` with `new_key → child`
    /// (sibling rebalance: the boundary between two children moved).  Returns
    /// whether the entry was found and retargeted.
    pub fn retarget_separator(
        &mut self,
        old_key: u64,
        new_key: u64,
        child: GlobalAddress,
        layout: &NodeLayout,
    ) -> bool {
        if !self.remove_separator(old_key, child) {
            return false;
        }
        self.insert_separator(new_key, child, layout)
    }

    /// The pair's children in key order, each behind the key it starts at:
    /// this node's separators, then `right`'s leftmost child at its lower
    /// fence (a fresh right half has none) and `right`'s separators.  `right`
    /// is this node's fence-adjacent B-link sibling.
    fn joined(&self, right: &InternalNode) -> Vec<InternalEntry> {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "siblings must be fence-adjacent"
        );
        let leftmost = right.header.leftmost.map(|child| InternalEntry {
            key: right.header.fence_low,
            child,
        });
        let mut entries = self.entries.clone();
        entries.extend(leftmost.into_iter().chain(right.entries.iter().copied()));
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        entries
    }

    /// Take every child of `other`, a fence-adjacent sibling this node
    /// survives, and grow over its interval as [`LeafNode::absorb`] does.  A
    /// node that gains entries at its front slides its window back over
    /// them.  `other` is left as it was: the caller's tombstone.
    pub fn absorb(&mut self, other: &InternalNode) {
        let kept = self.entries.len();
        if self.header.fence_high == other.header.fence_low {
            self.entries = self.joined(other);
        } else {
            self.entries = other.joined(self);
            self.header.leftmost = other.header.leftmost;
            self.start = self.start.saturating_sub(self.entries.len() - kept);
        }
        self.header.count = self.entries.len();
        self.header.absorb(&other.header);
    }

    /// Re-divide this node and `right`, its fence-adjacent B-link sibling, at
    /// one boundary.  Of the pair's children in key order — this node's
    /// separators, `right`'s leftmost child at its lower fence, `right`'s
    /// separators — the first `left_len` separators stay here, the next
    /// one's child becomes `right`'s leftmost and its key the new separator,
    /// which is returned and at which their shared fence now lies.  `right`'s
    /// window front advances by the entries it loses, or slides back over
    /// those it gains.  A split is a rebalance into a fresh right half.
    ///
    /// # Panics
    /// Panics if no child is left for `right`, or if the nodes are not
    /// fence-adjacent.
    pub fn rebalance(&mut self, right: &mut InternalNode, left_len: usize) -> u64 {
        let mut entries = self.joined(right);
        assert!(left_len < entries.len(), "the right node keeps a leftmost child");
        let kept = right.entries.len();
        right.entries = entries.split_off(left_len + 1);
        let promoted = entries.pop().expect("the entry at the cut");
        self.entries = entries;
        right.header.leftmost = Some(promoted.child);
        right.start = match right.entries.len().checked_sub(kept) {
            Some(gained) => right.start.saturating_sub(gained),
            None => right.start + kept - right.entries.len(),
        };
        self.header.count = self.entries.len();
        right.header.count = right.entries.len();
        self.header.move_boundary(&mut right.header, promoted.key)
    }

    /// All children of this node in key order (leftmost first).
    pub fn children(&self) -> Vec<GlobalAddress> {
        let mut out = Vec::with_capacity(self.entries.len() + 1);
        if let Some(l) = self.header.leftmost {
            out.push(l);
        }
        out.extend(self.entries.iter().map(|e| e.child));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;

    const UNSORTED: LeafFormat = LeafFormat::UnsortedTwoLevel;

    fn layout() -> NodeLayout {
        NodeLayout::new(&TreeConfig::default())
    }

    fn addr(n: u64) -> GlobalAddress {
        GlobalAddress::host(0, 1024 * (n + 1))
    }

    #[test]
    fn header_covers_and_versions() {
        let mut h = NodeHeader::new(true, 0, 10, 20);
        assert!(h.covers(10) && h.covers(19) && !h.covers(20) && !h.covers(9));
        assert!(h.versions_match());
        h.bump_versions();
        assert_eq!(h.front_version, 1);
        assert!(h.versions_match());

        let inf = NodeHeader::new(true, 0, 0, u64::MAX);
        assert!(inf.covers(u64::MAX - 1));
    }

    #[test]
    fn a_walk_stays_moves_right_or_is_lost() {
        let mut h = NodeHeader::new(false, 2, 10, 20);
        assert_eq!(h.step(15, 2), Step::Here);
        assert_eq!(h.step(25, 2), Step::Lost, "no sibling to move to");
        h.sibling = Some(addr(7));
        assert_eq!(h.step(20, 2), Step::Right(addr(7)));
        assert_eq!(h.step(9, 2), Step::Lost, "left of the lower fence");
        assert_eq!(h.step(15, 1), Step::Lost, "another level");
        h.free = true;
        assert_eq!(h.step(15, 2), Step::Lost, "a tombstone");
        let leaf = NodeHeader::new(true, 0, 10, 20);
        assert_eq!(leaf.step(15, 0), Step::Here);
        let mislabelled = NodeHeader::new(false, 0, 10, 20);
        assert_eq!(mislabelled.step(15, 0), Step::Lost);
    }

    #[test]
    fn leaf_insert_lookup_delete_via_slots() {
        let l = layout();
        let mut leaf = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, u64::MAX));
        assert_eq!(leaf.search(5, UNSORTED).value(), None);
        let slot = leaf.vacant_slot().unwrap();
        leaf.entries[slot].install(5, 50);
        // Key 0 is storable and distinguishable from empty slots.
        let slot0 = leaf.vacant_slot().unwrap();
        leaf.entries[slot0].install(0, 99);
        assert_eq!(leaf.search(5, UNSORTED).value(), Some(50));
        assert_eq!(leaf.search(0, UNSORTED).value(), Some(99));
        assert_eq!(leaf.live_count(), 2);
        assert_eq!(leaf.slot_of(5), Some(slot));

        leaf.entries[slot].clear();
        assert_eq!(leaf.search(5, UNSORTED).value(), None);
        assert_eq!(leaf.live_count(), 1);
        // Entry versions were bumped by install and clear.
        assert_eq!(leaf.entries[slot].front_version, 2);
        assert!(leaf.entries[slot].versions_match());
    }

    const FORMATS: [LeafFormat; 2] = [LeafFormat::SortedNodeVersion, LeafFormat::UnsortedTwoLevel];

    /// Ten pairs `2k → 2k + 1`, densely packed from slot 0 (`count` 10) in a
    /// 1 KB leaf of 50 slots.
    fn ten_pair_leaf(l: &NodeLayout) -> LeafNode {
        let mut leaf = LeafNode::empty(l, NodeHeader::new(true, 0, 0, u64::MAX));
        let pairs: Vec<(u64, u64)> = (0..10).map(|k| (2 * k, 2 * k + 1)).collect();
        leaf.repack_sorted(&pairs);
        leaf
    }

    #[test]
    fn a_search_examines_the_slots_up_to_its_match() {
        let l = layout();
        for format in FORMATS {
            let leaf = ten_pair_leaf(&l);
            for slot in 0..10 {
                let key = 2 * slot as u64;
                let hit = leaf.search(key, format);
                assert_eq!(
                    (hit.value(), hit.torn, hit.scanned),
                    (Some(key + 1), false, slot + 1),
                    "{format:?}: a hit at slot {slot}"
                );
            }
            // A miss reads every slot of an unsorted leaf, the first `count`
            // of a sorted one.
            let extent = match format.is_sorted() {
                true => 10,
                false => l.leaf_capacity(),
            };
            let miss = leaf.search(3, format);
            assert_eq!((miss.entry, miss.torn, miss.scanned), (None, false, extent));
        }
    }

    #[test]
    fn only_two_level_versions_report_a_torn_match() {
        let l = layout();
        for format in FORMATS {
            let mut leaf = ten_pair_leaf(&l);
            leaf.entries[4].front_version = leaf.entries[4].front_version.wrapping_add(1);
            let found = leaf.search(8, format);
            let torn = format == LeafFormat::UnsortedTwoLevel;
            assert_eq!((found.torn, found.scanned), (torn, 5), "{format:?}");
            assert_eq!(found.entry.map(|e| e.key), Some(8), "{format:?}");
            assert_eq!(found.value(), (!torn).then_some(9), "{format:?}");
        }
    }

    #[test]
    fn a_key_in_two_slots_is_found_in_the_first() {
        let l = layout();
        for format in FORMATS {
            let mut leaf = ten_pair_leaf(&l);
            leaf.entries[6].install(2, 77);
            let found = leaf.search(2, format);
            assert_eq!((found.value(), found.scanned), (Some(3), 2), "{format:?}");
        }
    }

    #[test]
    fn a_sorted_search_ignores_slots_past_count() {
        let l = layout();
        let mut leaf = ten_pair_leaf(&l);
        leaf.entries[12].install(41, 42);
        for format in FORMATS {
            let found = leaf.search(41, format);
            match format.is_sorted() {
                true => assert_eq!(
                    (found.entry, found.scanned, found.compared),
                    (None, 10, 0),
                    "{format:?}"
                ),
                false => assert_eq!(
                    (found.value(), found.scanned, found.compared),
                    (Some(42), 13, 1)
                ),
            }
        }
    }

    /// A key other than `key` with the same tag.
    fn colliding_key(key: u64) -> u64 {
        (key + 1..)
            .find(|&other| key_tag(other) == key_tag(key))
            .unwrap()
    }

    #[test]
    fn a_slot_whose_tag_differs_is_skipped_unread() {
        let l = layout();
        for format in FORMATS {
            let mut leaf = ten_pair_leaf(&l);
            // Every slot of the ten-pair leaf holds a different tag, so a hit
            // reads one key: its own.
            for slot in 0..10 {
                let hit = leaf.search(2 * slot as u64, format);
                assert_eq!((hit.scanned, hit.compared), (slot + 1, 1), "{format:?}");
            }
            // Key 8 (slot 4) behind a tag that is not its own: its slot is
            // passed over with its key unread, and the search misses.
            leaf.entries[4].tag = key_tag(8).wrapping_add(1).max(1);
            let miss = leaf.search(8, format);
            assert_eq!((miss.entry, miss.compared), (None, 0), "{format:?}");
        }
    }

    #[test]
    fn a_tag_collision_reads_the_key_and_moves_on() {
        let l = layout();
        let other = colliding_key(8);
        for format in FORMATS {
            let mut leaf = ten_pair_leaf(&l);
            leaf.entries[2].install(other, 1);
            let hit = leaf.search(8, format);
            assert_eq!(
                (hit.value(), hit.scanned, hit.compared),
                (Some(9), 5, 2),
                "{format:?}"
            );
            let hit = leaf.search(other, format);
            assert_eq!((hit.value(), hit.scanned, hit.compared), (Some(1), 3, 1));
        }
    }

    #[test]
    fn a_vacant_slot_matches_no_key() {
        // Key 0 hashes to 0 and is mapped to 1, as is every key that does.
        assert_eq!(key_tag(0), 1);
        let zeroes = (1..).filter(|&k: &u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56 == 0);
        assert!(zeroes.take(8).all(|k| key_tag(k) == 1));
        assert!((0..1 << 16).chain([u64::MAX]).all(|k| key_tag(k) != 0));
        let l = layout();
        for format in FORMATS {
            // A cleared slot keeps its key but not its tag.
            let mut leaf = ten_pair_leaf(&l);
            leaf.entries[4].clear();
            let miss = leaf.search(8, format);
            assert_eq!((miss.entry, miss.compared), (None, 0), "{format:?}");
            assert_eq!(leaf.entries[4].key, 8);
            // An empty leaf holds key 0's bytes in every slot and matches none.
            let empty = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, u64::MAX));
            let miss = empty.search(0, format);
            assert_eq!((miss.entry, miss.compared), (None, 0), "{format:?}");
        }
    }

    #[test]
    fn leaf_split_partitions_keys_and_fences() {
        let l = layout();
        let mut leaf = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, u64::MAX));
        // Insert keys in a scrambled order to exercise the pre-split sort.
        for (i, k) in [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 100].iter().enumerate() {
            leaf.entries[i].install(*k, k * 2);
        }
        let (split_key, right) = leaf.split(&l, LeafEdit::Clear);
        assert_eq!(split_key, 60);
        assert_eq!(leaf.header.fence_high, 60);
        assert_eq!(right.header.fence_low, 60);
        assert_eq!(right.header.fence_high, u64::MAX);
        let left_keys: Vec<u64> = leaf.sorted_pairs().iter().map(|&(k, _)| k).collect();
        let right_keys: Vec<u64> = right.sorted_pairs().iter().map(|&(k, _)| k).collect();
        assert_eq!(left_keys, vec![10, 20, 30, 40, 50]);
        assert_eq!(right_keys, vec![60, 70, 80, 90, 100]);
        // Values follow their keys.
        assert_eq!(right.search(70, UNSORTED).value(), Some(140));
        // Node-level versions were bumped on both halves.
        assert_eq!(leaf.header.front_version, 1);
        assert_eq!(right.header.front_version, 1);
    }

    #[test]
    fn internal_routing_and_insert() {
        let mut node = InternalNode::new(1, 0, u64::MAX, addr(0));
        assert!(node.insert_separator(100, addr(1), &layout()));
        assert!(node.insert_separator(50, addr(2), &layout()));
        assert!(node.insert_separator(200, addr(3), &layout()));
        assert!(!node.insert_separator(100, addr(9), &layout()), "duplicate separator");
        assert_eq!(node.entries.len(), 3);
        assert!(node.entries.windows(2).all(|w| w[0].key < w[1].key));

        assert_eq!(node.child_for(10), addr(0));
        assert_eq!(node.child_for(50), addr(2));
        assert_eq!(node.child_for(99), addr(2));
        assert_eq!(node.child_for(100), addr(1));
        assert_eq!(node.child_for(1_000), addr(3));
        assert_eq!(node.children().len(), 4);
    }

    #[test]
    fn internal_split_promotes_median() {
        let mut node = InternalNode::new(1, 0, u64::MAX, addr(0));
        for i in 1..=7u64 {
            node.insert_separator(i * 10, addr(i), &layout());
        }
        let (promoted, right) = node.split();
        assert_eq!(promoted, 40);
        // Left keeps separators below the promoted key.
        assert!(node.entries.iter().all(|e| e.key < 40));
        assert_eq!(node.header.fence_high, 40);
        // Right's leftmost child is the promoted entry's child and its
        // separators are those above the promoted key.
        assert_eq!(right.header.leftmost, Some(addr(4)));
        assert!(right.entries.iter().all(|e| e.key > 40));
        assert_eq!(right.header.fence_low, 40);
        assert_eq!(right.header.fence_high, u64::MAX);
        // Routing still works across the split pair.
        assert_eq!(node.child_for(15), addr(1));
        assert_eq!(right.child_for(45), addr(4));
        assert_eq!(right.child_for(75), addr(7));
    }

    #[test]
    fn internal_split_keeps_keys_sorted() {
        // Separators inserted in adversarial (descending, then interleaved)
        // order; after a split both halves must remain strictly sorted and
        // partitioned around the promoted key.
        let mut node = InternalNode::new(1, 0, u64::MAX, addr(0));
        for i in (1..=20u64).rev() {
            node.insert_separator(i * 7, addr(i), &layout());
        }
        for i in 21..=25u64 {
            node.insert_separator(i * 7 - 3, addr(i), &layout());
        }
        let total = node.entries.len();
        let (promoted, right) = node.split();

        let sorted = |entries: &[InternalEntry]| entries.windows(2).all(|w| w[0].key < w[1].key);
        assert!(sorted(&node.entries), "left half lost sortedness");
        assert!(sorted(&right.entries), "right half lost sortedness");
        assert!(node.entries.iter().all(|e| e.key < promoted));
        assert!(right.entries.iter().all(|e| e.key > promoted));
        // No separator is lost: left + promoted + right == original count.
        assert_eq!(node.entries.len() + 1 + right.entries.len(), total);
        // Counts stay authoritative for the encoded form.
        assert_eq!(node.header.count, node.entries.len());
        assert_eq!(right.header.count, right.entries.len());
        // Fences partition at the promoted key.
        assert_eq!(node.header.fence_high, promoted);
        assert_eq!(right.header.fence_low, promoted);
    }

    #[test]
    fn leaf_split_produces_sorted_halves_from_unsorted_slots() {
        let l = layout();
        let mut leaf = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, u64::MAX));
        // Reverse order with a gap pattern, as an unsorted Sherman leaf may hold.
        let keys: Vec<u64> = (0..12u64).map(|i| 1000 - i * 13).collect();
        for (i, &k) in keys.iter().enumerate() {
            leaf.entries[i * 2].install(k, k + 1); // every other slot: sparse
        }
        for edit in [LeafEdit::Repack, LeafEdit::Clear, LeafEdit::Lazy] {
            let mut left = leaf.clone();
            let (split_key, right) = left.split(&l, edit);
            let left_keys: Vec<u64> = left.sorted_pairs().iter().map(|&(k, _)| k).collect();
            let right_keys: Vec<u64> = right.sorted_pairs().iter().map(|&(k, _)| k).collect();
            assert!(left_keys.iter().all(|&k| k < split_key));
            assert!(right_keys.iter().all(|&k| k >= split_key));
            assert_eq!(left_keys.len() + right_keys.len(), keys.len());
            // The new right half is sorted and densely packed from slot 0
            // (the paper sorts unsorted leaves before splitting, Figure 7).
            let in_slots = |n: &LeafNode| -> Vec<u64> {
                n.entries.iter().filter(|e| e.present()).map(|e| e.key).collect()
            };
            assert_eq!(in_slots(&right), right_keys);
            assert!(right.entries[..right_keys.len()].iter().all(|e| e.present()));
            // The left half is re-packed too when dense; otherwise its keys
            // stay in the slots they were in.
            if edit == LeafEdit::Repack {
                assert_eq!(in_slots(&left), left_keys);
                assert!(left.entries[..left_keys.len()].iter().all(|e| e.present()));
            } else {
                for (slot, entry) in left.entries.iter().enumerate().filter(|(_, e)| e.present()) {
                    assert_eq!(leaf.entries[slot], *entry, "slot {slot} moved");
                }
            }
        }
    }

    #[test]
    fn leaf_absorb_right_merges_pairs_and_fences() {
        let l = layout();
        let mut left = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, 50));
        let mut right_header = NodeHeader::new(true, 0, 50, 200);
        right_header.sibling = Some(addr(9));
        let mut right = LeafNode::empty(&l, right_header);
        for (i, k) in [40u64, 10, 30].iter().enumerate() {
            left.entries[i].install(*k, k * 2);
        }
        for (i, k) in [90u64, 60].iter().enumerate() {
            right.entries[i].install(*k, k * 2);
        }
        left.header.sibling = Some(addr(1));
        left.absorb(&right, LeafEdit::Repack);

        assert_eq!(left.live_count(), 5);
        assert_eq!(
            left.sorted_pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![10, 30, 40, 60, 90]
        );
        assert_eq!(left.header.fence_high, 200);
        assert_eq!(left.header.sibling, Some(addr(9)), "B-link skips the merged node");
        assert_eq!(left.header.front_version, 1);
        assert!(left.header.versions_match());
        // Dense packing from slot 0.
        assert!(left.entries[..5].iter().all(|e| e.present()));
        assert!(left.entries[5..].iter().all(|e| !e.present()));
    }

    #[test]
    fn leaf_take_from_right_moves_smallest_keys() {
        let l = layout();
        let mut left = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, 100));
        let mut right = LeafNode::empty(&l, NodeHeader::new(true, 0, 100, u64::MAX));
        left.entries[0].install(5, 1);
        for (i, k) in [100u64, 140, 120, 160, 180].iter().enumerate() {
            right.entries[i].install(*k, k + 1);
        }
        let sep = left.rebalance(&mut right, 3, LeafEdit::Clear);
        assert_eq!(sep, 140, "separator is the smallest key left in the donor");
        assert_eq!(left.header.fence_high, 140);
        assert_eq!(right.header.fence_low, 140);
        assert_eq!(
            left.sorted_pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![5, 100, 120]
        );
        assert_eq!(
            right.sorted_pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![140, 160, 180]
        );
        assert_eq!(
            right.search(160, UNSORTED).value(),
            Some(161),
            "values follow their keys"
        );
    }

    #[test]
    fn leaf_take_from_left_moves_largest_keys() {
        let l = layout();
        let mut left = LeafNode::empty(&l, NodeHeader::new(true, 0, 0, 100));
        let mut right = LeafNode::empty(&l, NodeHeader::new(true, 0, 100, u64::MAX));
        for (i, k) in [10u64, 40, 20, 30, 50].iter().enumerate() {
            left.entries[i].install(*k, k + 1);
        }
        right.entries[0].install(200, 201);
        let sep = left.rebalance(&mut right, 3, LeafEdit::Clear);
        assert_eq!(sep, 40, "separator is the smallest key moved");
        assert_eq!(left.header.fence_high, 40);
        assert_eq!(right.header.fence_low, 40);
        assert_eq!(
            left.sorted_pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(
            right.sorted_pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![40, 50, 200]
        );
        assert_eq!(
            right.search(50, UNSORTED).value(),
            Some(51),
            "values follow their keys"
        );
    }

    #[test]
    fn internal_take_from_right_rotates_children_through_the_boundary() {
        let mut left = InternalNode::new(1, 0, 100, addr(0));
        left.insert_separator(50, addr(1), &layout());
        let mut right = InternalNode::new(1, 100, u64::MAX, addr(2));
        right.insert_separator(150, addr(3), &layout());
        right.insert_separator(200, addr(4), &layout());
        right.insert_separator(250, addr(5), &layout());

        let sep = left.rebalance(&mut right, 3);
        assert_eq!(sep, 200, "separator is the donor's new lower fence");
        assert_eq!(left.header.fence_high, 200);
        assert_eq!(right.header.fence_low, 200);
        // Left gained right's old leftmost (at 100) and the child at 150.
        assert_eq!(left.children(), vec![addr(0), addr(1), addr(2), addr(3)]);
        assert_eq!(right.children(), vec![addr(4), addr(5)]);
        // Routing is preserved across the pair.
        assert_eq!(left.child_for(120), addr(2));
        assert_eq!(left.child_for(160), addr(3));
        assert_eq!(right.child_for(210), addr(4));
        assert_eq!(right.child_for(300), addr(5));
        assert_eq!(left.header.count, left.entries.len());
        assert_eq!(right.header.count, right.entries.len());
    }

    #[test]
    fn internal_take_from_left_mirrors_the_rotation() {
        let mut left = InternalNode::new(1, 0, 300, addr(0));
        left.insert_separator(100, addr(1), &layout());
        left.insert_separator(200, addr(2), &layout());
        let mut right = InternalNode::new(1, 300, u64::MAX, addr(3));
        right.insert_separator(400, addr(4), &layout());

        let sep = left.rebalance(&mut right, 0);
        assert_eq!(sep, 100, "separator is the recipient's new lower fence");
        assert_eq!(left.header.fence_high, 100);
        assert_eq!(right.header.fence_low, 100);
        assert_eq!(left.children(), vec![addr(0)]);
        assert_eq!(right.children(), vec![addr(1), addr(2), addr(3), addr(4)]);
        // Every moved child still routes the keys it covered before.
        assert_eq!(left.child_for(50), addr(0));
        assert_eq!(right.child_for(150), addr(1));
        assert_eq!(right.child_for(250), addr(2));
        assert_eq!(right.child_for(350), addr(3));
        assert_eq!(right.child_for(500), addr(4));
    }

    #[test]
    fn internal_remove_and_retarget_separator() {
        let mut node = InternalNode::new(1, 0, u64::MAX, addr(0));
        node.insert_separator(50, addr(1), &layout());
        node.insert_separator(100, addr(2), &layout());
        // Wrong child: refused (idempotence under races).
        assert!(!node.remove_separator(50, addr(9)));
        assert!(node.remove_separator(50, addr(1)));
        assert_eq!(node.entries.len(), 1);
        assert_eq!(node.header.count, 1);
        assert_eq!(node.child_for(60), addr(0), "keys re-route to the left child");

        assert!(node.retarget_separator(100, 120, addr(2), &layout()));
        assert_eq!(node.child_for(110), addr(0));
        assert_eq!(node.child_for(120), addr(2));
        assert!(!node.retarget_separator(100, 130, addr(2), &layout()), "stale retarget is a no-op");
    }

    #[test]
    fn internal_absorb_right_reattaches_leftmost() {
        let mut left = InternalNode::new(1, 0, 100, addr(0));
        left.insert_separator(50, addr(1), &layout());
        let mut right = InternalNode::new(1, 100, u64::MAX, addr(2));
        right.insert_separator(150, addr(3), &layout());
        right.header.sibling = Some(addr(7));

        // The mirror: the right node survives and grows down, its window
        // sliding back over the entries it gains at its front.
        let mut survivor = right.clone();
        survivor.start = 5;
        survivor.absorb(&left);
        assert_eq!(survivor.children(), vec![addr(0), addr(1), addr(2), addr(3)]);
        assert_eq!((survivor.start, survivor.header.count), (3, 3));
        assert_eq!(survivor.header.fence_low, 0);
        assert_eq!(survivor.header.sibling, Some(addr(7)), "its own link stays");

        left.absorb(&right);
        assert_eq!(left.entries.len(), 3);
        assert_eq!(left.header.count, 3);
        assert_eq!(left.header.fence_high, u64::MAX);
        assert_eq!(left.header.sibling, Some(addr(7)));
        // Routing covers the whole combined interval.
        assert_eq!(left.child_for(10), addr(0));
        assert_eq!(left.child_for(60), addr(1));
        assert_eq!(left.child_for(120), addr(2), "right's leftmost child re-enters");
        assert_eq!(left.child_for(200), addr(3));
        assert_eq!(left.header.front_version, 1);
    }

    #[test]
    fn is_full_matches_capacity() {
        let l = layout();
        let mut node = InternalNode::new(1, 0, u64::MAX, addr(0));
        let cap = l.internal_capacity();
        for i in 0..cap as u64 {
            assert!(!node.is_full(&l));
            node.insert_separator(i + 1, addr(i), &l);
        }
        assert!(node.is_full(&l));
    }

    // -----------------------------------------------------------------------
    // Structural leaf edits: in place on unsorted leaves, repacks on sorted
    // -----------------------------------------------------------------------

    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// One generated slot: `(live, key, version)`.  Live if the first byte is
    /// below the leaf's density; vacant slots keep the versions of whatever
    /// they held last.
    type Slot = (u8, u64, u8);

    /// A leaf over `[low, low + 1000)` with the keys of `slots` in the slots
    /// they were generated for (a key generated twice is held once), its
    /// sibling at `addr(sibling)`.
    fn leaf_of(l: &NodeLayout, low: u64, density: u8, slots: &[Slot], sibling: u64) -> LeafNode {
        let mut header = NodeHeader::new(true, 0, low, low + 1_000);
        header.sibling = Some(addr(sibling));
        let mut leaf = LeafNode::empty(l, header);
        let mut held = BTreeSet::new();
        for (entry, &(live, key, version)) in leaf.entries.iter_mut().zip(slots) {
            entry.front_version = version;
            entry.rear_version = version;
            let key = low + key % 1_000;
            if live < density && held.insert(key) {
                entry.install(key, key ^ u64::from(version));
            }
        }
        leaf.header.count = held.len();
        leaf
    }

    fn pairs_of(leaves: &[&LeafNode]) -> BTreeMap<u64, u64> {
        leaves.iter().flat_map(|n| n.sorted_pairs()).collect()
    }

    /// Hold `after` against `before`, slot by slot: a slot is untouched and
    /// encodes byte for byte as it did, or it is the clear of a key in `out`,
    /// or the install of a pair of `into` into a vacant slot — each with the
    /// slot's entry versions bumped once.  Every key of `out` the leaf held
    /// is cleared, every pair of `into` installed.
    fn moved_slots_only(
        l: &NodeLayout,
        before: &LeafNode,
        after: &LeafNode,
        out: &BTreeSet<u64>,
        into: &BTreeMap<u64, u64>,
    ) {
        let (mut cleared, mut installed) = (BTreeSet::new(), BTreeMap::new());
        for (slot, (b, a)) in before.entries.iter().zip(&after.entries).enumerate() {
            if l.encode_leaf_entry(b) == l.encode_leaf_entry(a) {
                assert!(
                    !a.present() || !out.contains(&a.key),
                    "slot {slot}: {a:?} should have moved"
                );
                continue;
            }
            let bumped = b.front_version.wrapping_add(1);
            assert_eq!(
                (a.front_version, a.rear_version),
                (bumped, bumped),
                "slot {slot}"
            );
            match (b.present(), a.present()) {
                (true, false) => {
                    assert!(out.contains(&b.key), "slot {slot}: {b:?} stays");
                    cleared.insert(b.key);
                }
                (false, true) => {
                    assert_eq!(into.get(&a.key), Some(&a.value), "slot {slot}");
                    installed.insert(a.key, a.value);
                }
                _ => panic!("slot {slot} rewritten: {b:?} → {a:?}"),
            }
        }
        let held: BTreeSet<u64> = before.sorted_pairs().iter().map(|&(k, _)| k).collect();
        assert_eq!(cleared, out & &held);
        assert_eq!(&installed, into);
    }

    /// What the sorted formats' edits write: the pre-image re-packed with the
    /// pairs the node ends up holding, the edit's header.
    fn repacked(l: &NodeLayout, before: &LeafNode, after: &LeafNode) -> Vec<u8> {
        let mut expect = before.clone();
        expect.repack_sorted(&after.sorted_pairs());
        expect.header = after.header.clone();
        l.encode_leaf(&expect)
    }

    /// Two leaves after an edit, and the pairs that left and that arrived.
    type Edited = (LeafNode, LeafNode, [BTreeMap<u64, u64>; 2]);

    /// The five structural edits of a leaf pair, `[0, 1000)` and
    /// `[1000, 2000)`: split the left leaf, absorb the right into it, move
    /// `n` pairs right → left, move `n` pairs left → right, absorb the left
    /// into the right (a level's first leaf merging at the left edge).
    /// Returns the two nodes after the edit (for a split, the left leaf and
    /// its new right half), the pairs that left `left` and `right` and those
    /// that arrived — or `None` when the pair does not admit the edit.
    fn edit(
        l: &NodeLayout,
        mut left: LeafNode,
        mut right: LeafNode,
        op: u8,
        n: usize,
        edit: LeafEdit,
    ) -> Option<Edited> {
        let (ln, rn) = (left.live_count(), right.live_count());
        let cap = left.entries.len();
        let old = (left.header.clone(), right.header.clone());
        let moved = |pairs: &[(u64, u64)]| pairs.iter().copied().collect::<BTreeMap<_, _>>();
        match op % 5 {
            0 if ln >= 2 => {
                let pairs = left.sorted_pairs();
                let (split_key, half) = left.split(l, edit);
                assert_eq!(split_key, pairs[pairs.len() / 2].0);
                assert_eq!(
                    (left.header.fence_low, left.header.fence_high),
                    (old.0.fence_low, split_key)
                );
                assert_eq!(
                    (half.header.fence_low, half.header.fence_high),
                    (split_key, old.0.fence_high)
                );
                // The caller links the new half; it inherits the old sibling.
                assert_eq!(
                    (left.header.sibling, half.header.sibling),
                    (old.0.sibling, old.0.sibling)
                );
                let out = moved(&pairs[pairs.len() / 2..]);
                Some((left, half, [out, BTreeMap::new()]))
            }
            1 if ln + rn <= cap => {
                let arriving = moved(&right.sorted_pairs());
                left.absorb(&right, edit);
                assert_eq!(left.header.fence_high, old.1.fence_high);
                assert_eq!(
                    left.header.sibling, old.1.sibling,
                    "B-link skips the absorbed leaf"
                );
                Some((left, right, [BTreeMap::new(), arriving]))
            }
            2 if rn >= 2 && ln < cap => {
                let count = 1 + n % (rn - 1).min(cap - ln);
                let arriving = moved(&right.sorted_pairs()[..count]);
                let sep = left.rebalance(&mut right, ln + count, edit);
                assert_eq!(Some(&sep), right.sorted_pairs().first().map(|(k, _)| k));
                assert_eq!((left.header.fence_high, right.header.fence_low), (sep, sep));
                assert_eq!(left.header.sibling, old.0.sibling);
                Some((left, right, [BTreeMap::new(), arriving]))
            }
            3 if ln >= 2 && rn < cap => {
                let count = 1 + n % (ln - 1).min(cap - rn);
                let pairs = left.sorted_pairs();
                let leaving = moved(&pairs[pairs.len() - count..]);
                let sep = left.rebalance(&mut right, ln - count, edit);
                assert_eq!(Some(&sep), leaving.keys().next());
                assert_eq!((left.header.fence_high, right.header.fence_low), (sep, sep));
                assert_eq!(left.header.sibling, old.0.sibling);
                Some((left, right, [leaving, BTreeMap::new()]))
            }
            4 if ln + rn <= cap => {
                let arriving = moved(&left.sorted_pairs());
                right.absorb(&left, edit);
                assert_eq!(right.header.fence_low, old.0.fence_low);
                assert_eq!(right.header.sibling, old.1.sibling, "the survivor's link stays");
                Some((left, right, [BTreeMap::new(), arriving]))
            }
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

        /// On an unsorted leaf every structural edit keeps the pairs, sets
        /// fences and sibling right, and touches the slots that moved and no
        /// other: each a clear of a key that left or an install of one that
        /// arrived, every slot that stayed byte-identical, entry versions
        /// included.
        #[test]
        fn unsorted_edits_touch_only_the_slots_that_moved(
            left in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..64),
            right in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..64),
            density in (any::<u8>(), any::<u8>()),
            op in 0u8..5,
            n in 0usize..64,
        ) {
            let l = layout();
            let left = leaf_of(&l, 0, density.0, &left, 1);
            let right = leaf_of(&l, 1_000, density.1, &right, 2);
            let before = pairs_of(&[&left, &right]);
            let Some((new_left, new_right, [out, into])) =
                edit(&l, left.clone(), right.clone(), op, n, LeafEdit::Clear)
            else {
                return;
            };
            match op % 5 {
                // Split: the new half is fresh, dense and holds what left.
                0 => {
                    moved_slots_only(&l, &left, &new_left, &out.keys().copied().collect(), &BTreeMap::new());
                    prop_assert_eq!(pairs_of(&[&new_right]), out);
                    prop_assert_eq!(pairs_of(&[&new_left, &new_right, &right]), before);
                }
                // Absorb: the survivor gains its sibling's pairs; the sibling
                // itself is left untouched, as the caller's tombstone.
                1 | 4 => {
                    let (survivor, retired) = match op % 5 {
                        1 => ((&left, &new_left), (&right, &new_right)),
                        _ => ((&right, &new_right), (&left, &new_left)),
                    };
                    moved_slots_only(&l, survivor.0, survivor.1, &BTreeSet::new(), &into);
                    prop_assert_eq!(pairs_of(&[survivor.1]), before);
                    prop_assert_eq!(retired.0, retired.1);
                }
                // Rebalance: installs in the receiver, clears in the donor.
                _ => {
                    let moving = if out.is_empty() { &into } else { &out };
                    let keys: BTreeSet<u64> = moving.keys().copied().collect();
                    let (receiver, donor) = match op % 5 {
                        2 => ((&left, &new_left), (&right, &new_right)),
                        _ => ((&right, &new_right), (&left, &new_left)),
                    };
                    moved_slots_only(&l, receiver.0, receiver.1, &BTreeSet::new(), moving);
                    moved_slots_only(&l, donor.0, donor.1, &keys, &BTreeMap::new());
                    prop_assert_eq!(pairs_of(&[&new_left, &new_right]), before);
                }
            }
            for node in [&new_left, &new_right] {
                prop_assert_eq!(node.header.count, node.live_count());
                prop_assert!(node.sorted_pairs().iter().all(|&(k, _)| node.header.covers(k)));
            }
        }

        /// On a sorted leaf the same edits produce, byte for byte, the images
        /// the repacking edits did: every node the edit keeps holds its pairs
        /// re-packed from slot 0 in key order.
        #[test]
        fn sorted_edits_repack_as_before(
            left in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..64),
            right in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 0..64),
            density in (any::<u8>(), any::<u8>()),
            op in 0u8..5,
            n in 0usize..64,
        ) {
            let l = layout();
            let left = leaf_of(&l, 0, density.0, &left, 1);
            let right = leaf_of(&l, 1_000, density.1, &right, 2);
            let edited = edit(&l, left.clone(), right.clone(), op, n, LeafEdit::Repack);
            let Some((new_left, new_right, _)) = edited else {
                return;
            };
            // A split's new half starts from vacant slots; an absorbed leaf
            // is left untouched, as the caller's tombstone.
            let fresh = LeafNode::empty(&l, new_right.header.clone());
            let right_pre = match op % 5 {
                0 => &fresh,
                _ => &right,
            };
            for (side, pre, post) in [(0, &left, &new_left), (1, right_pre, &new_right)] {
                match (op % 5, side) {
                    (1, 1) | (4, 0) => prop_assert_eq!(pre, post),
                    _ => prop_assert_eq!(l.encode_leaf(post), repacked(&l, pre, post)),
                }
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        /// A row of unsorted leaves edited lazily through their images, as
        /// the commits edit them — point inserts and deletes on the slot the
        /// write probe picks, splits (a full leaf's, and any leaf's), merges
        /// either way and rebalances — keeps, after every step and on every
        /// leaf, the stale bits of its image exactly the tagged slots whose
        /// keys lie outside its fences, and agrees with a `BTreeMap` model:
        /// its search, its scan from its lower fence, its live count and the
        /// write probe of its image see the model's pairs in its fences and
        /// nothing else.  With [`LeafEdit::Clear`] no slot is ever stale.
        #[test]
        fn stale_bits_mark_the_tagged_slots_outside_the_fences(
            node_size in prop::sample::select(vec![256usize, 1024]),
            lazy in any::<bool>(),
            steps in prop::collection::vec((0u8..8, 0u64..300, any::<u64>()), 1..150),
        ) {
            let l = NodeLayout::new(&TreeConfig { node_size, ..TreeConfig::default() });
            let edit = if lazy { LeafEdit::Lazy } else { LeafEdit::Clear };
            let cap = l.leaf_capacity();
            let mut leaves = vec![LeafNode::empty(&l, NodeHeader::new(true, 0, 0, u64::MAX))];
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (kind, key, draw) in steps {
                // Every leaf goes through its image, as a commit reads it.
                for leaf in leaves.iter_mut() {
                    *leaf = l.decode_leaf(&l.encode_leaf(leaf));
                }
                let i = leaves.iter().position(|n| n.header.covers(key)).unwrap();
                let j = draw as usize % leaves.len();
                let live = |n: &LeafNode| n.live_count();
                match kind {
                    0..=2 => {
                        let probe = l.probe_leaf(&l.encode_leaf(&leaves[i]), key);
                        let slot = probe.slot.or(probe.vacant);
                        let at = match slot {
                            Some(slot) => (i, slot),
                            None => {
                                let (sep, right) = leaves[i].split(&l, edit);
                                leaves.insert(i + 1, right);
                                let half = i + usize::from(key >= sep);
                                (half, leaves[half].vacant_slot().unwrap())
                            }
                        };
                        leaves[at.0].entries[at.1].install(key, draw);
                        model.insert(key, draw);
                    }
                    3 => {
                        if let Some(slot) = leaves[i].slot_of(key) {
                            leaves[i].entries[slot].vacate();
                            model.remove(&key);
                        }
                    }
                    4 if live(&leaves[j]) >= 2 => {
                        let (_, right) = leaves[j].split(&l, edit);
                        leaves.insert(j + 1, right);
                    }
                    5 if j + 1 < leaves.len() && live(&leaves[j]) + live(&leaves[j + 1]) <= cap => {
                        let mut right = leaves.remove(j + 1);
                        match draw % 2 {
                            0 => leaves[j].absorb(&right, edit),
                            _ => {
                                right.absorb(&leaves[j], edit);
                                leaves[j] = right;
                            }
                        }
                    }
                    6 | 7 if j + 1 < leaves.len() => {
                        let total = live(&leaves[j]) + live(&leaves[j + 1]);
                        let left_len = 1 + (draw >> 1) as usize % total.max(2).saturating_sub(1);
                        if total >= 2 && left_len <= cap && total - left_len <= cap {
                            let (head, tail) = leaves.split_at_mut(j + 1);
                            head[j].rebalance(&mut tail[0], left_len, edit);
                        }
                    }
                    _ => {}
                }
                for leaf in &leaves {
                    let image = l.encode_leaf(leaf);
                    let h = &leaf.header;
                    let marked: Vec<usize> =
                        (0..cap).filter(|&s| l.marked_stale(&image, s)).collect();
                    let stale: Vec<usize> = (0..cap)
                        .filter(|&s| leaf.entries[s].present() && !h.covers(leaf.entries[s].key))
                        .collect();
                    prop_assert_eq!(&marked, &stale);
                    prop_assert!(lazy || stale.is_empty());
                    let upper = if h.fence_high == u64::MAX { u64::MAX } else { h.fence_high };
                    let want: Vec<(u64, u64)> =
                        model.range(h.fence_low..upper).map(|(&k, &v)| (k, v)).collect();
                    let read = l.decode_leaf(&image);
                    prop_assert_eq!(read.sorted_pairs(), want.clone());
                    prop_assert_eq!(read.live_count(), want.len());
                    let mut scanned: Vec<(u64, u64)> = read.entries_from(h.fence_low).unwrap().collect();
                    scanned.sort_unstable();
                    prop_assert_eq!(&scanned, &want);
                    for k in (h.fence_low..upper.min(300)).step_by(11).chain(want.iter().map(|p| p.0)) {
                        let value = model.get(&k).copied();
                        prop_assert_eq!(read.search(k, LeafFormat::UnsortedTwoLevel).value(), value);
                        let probe = l.probe_leaf(&image, k);
                        prop_assert_eq!(probe.slot.map(|s| read.entries[s].key), value.map(|_| k));
                        prop_assert_eq!(probe.vacant, read.vacant_slot());
                        prop_assert_eq!(probe.live, want.len());
                    }
                }
            }
            prop_assert_eq!(leaves.iter().map(|n| n.live_count()).sum::<usize>(), model.len());
        }
    }
}
