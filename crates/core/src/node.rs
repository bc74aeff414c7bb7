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
    /// Whole-node checksum (only used by the FG checksum format).
    pub checksum: u32,
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
            checksum: 0,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// An empty slot.
    pub fn empty() -> Self {
        LeafEntry {
            front_version: 0,
            rear_version: 0,
            tag: 0,
            key: 0,
            value: 0,
        }
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

    /// Clear this slot (delete), bumping the entry versions.
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

/// A decoded leaf node: a fixed array of slots (dense for sorted layouts,
/// sparse for the unsorted two-level-version layout).
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

    /// Number of live entries.
    pub fn live_count(&self) -> usize {
        self.entries.iter().filter(|e| e.present()).count()
    }

    /// Find the slot holding `key` behind its [`key_tag`], if any: a slot
    /// whose stored tag is not its key's is one no point operation finds.
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        let tag = key_tag(key);
        self.entries.iter().position(|e| e.tag == tag && e.key == key)
    }

    /// Find a vacant slot, if any.
    pub fn vacant_slot(&self) -> Option<usize> {
        self.entries.iter().position(|e| !e.present())
    }

    /// Search for `key` as a point lookup reads a leaf of `format`: slot by
    /// slot up to the first present slot holding it — through every slot of
    /// an unsorted leaf, through the first `count` of a sorted one (what lies
    /// past them is not the leaf's).  A slot's key is read only where its
    /// stored tag is the key's [`key_tag`]; a vacant slot's tag, 0, matches
    /// no key.  Only two-level versions check the matched entry's own
    /// version pair.
    pub fn search(&self, key: u64, format: LeafFormat) -> LeafSearch {
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

    /// What a scan takes from this leaf from `from` up: the present entries
    /// holding a key at or past `from`, as `(key, value)` in slot order — or
    /// `None` when any of them is torn (an entry-granular write in flight),
    /// and the leaf must be read again.
    pub fn entries_from(&self, from: u64) -> Option<impl Iterator<Item = (u64, u64)> + '_> {
        let needed = self
            .entries
            .iter()
            .filter(move |e| e.present() && e.key >= from);
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
            .filter(|e| e.present())
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

    /// Make this leaf hold exactly `pairs` (ascending by key; a key it
    /// already holds keeps its value).  A `dense` leaf — the sorted formats —
    /// is re-packed ([`LeafNode::repack_sorted`]).  Any other is edited in
    /// place: the slot of every key not in `pairs` is cleared, every pair it
    /// does not hold yet is installed into a vacant slot, lowest first, and
    /// every other slot is left as it was, entry versions included — so a
    /// write-back planned from the two images carries the slots that moved
    /// and nothing else.
    ///
    /// # Panics
    /// Panics if `pairs` do not fit.
    pub fn set_pairs(&mut self, pairs: &[(u64, u64)], dense: bool) {
        if dense {
            return self.repack_sorted(pairs);
        }
        let wanted = |key: u64| pairs.binary_search_by_key(&key, |&(k, _)| k).is_ok();
        for slot in self
            .entries
            .iter_mut()
            .filter(|e| e.present() && !wanted(e.key))
        {
            slot.clear();
        }
        let arriving: Vec<(u64, u64)> = pairs
            .iter()
            .copied()
            .filter(|&(k, _)| self.slot_of(k).is_none())
            .collect();
        let mut vacant = self.entries.iter_mut().filter(|e| !e.present());
        for (k, v) in arriving {
            vacant.next().expect("a slot for every pair").install(k, v);
        }
        self.header.count = pairs.len();
    }

    /// Absorb the contents of `right` (this leaf's B-link sibling): every live
    /// pair of `right` moves into this node ([`LeafNode::set_pairs`]: re-packed
    /// in sorted order when `dense`, into vacant slots otherwise), and the
    /// fence / sibling metadata is extended to cover `right`'s interval.
    /// Versions of this header and of every rewritten entry are bumped; the
    /// caller frees `right`'s address.
    ///
    /// # Panics
    /// Panics if the combined live entries exceed this node's slot count or if
    /// the two nodes are not fence-adjacent.
    pub fn absorb_right(&mut self, right: &LeafNode, dense: bool) {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "absorb_right requires fence-adjacent leaves"
        );
        let mut pairs = self.sorted_pairs();
        pairs.extend(right.sorted_pairs());
        assert!(pairs.len() <= self.entries.len(), "merged leaf overflows");
        self.set_pairs(&pairs, dense);
        self.header.fence_high = right.header.fence_high;
        self.header.sibling = right.header.sibling;
        self.header.bump_versions();
    }

    /// Absorb the contents of `left`, the leaf whose B-link sibling this one
    /// is — the mirror of [`LeafNode::absorb_right`]: every live pair of
    /// `left` moves into this node, whose interval grows down to `left`'s
    /// lower fence; its sibling pointer stays.  Versions of this header and
    /// of every rewritten entry are bumped; the caller frees `left`'s address
    /// and repoints what routed to it.
    ///
    /// # Panics
    /// Panics if the combined live entries exceed this node's slot count or if
    /// the two nodes are not fence-adjacent.
    pub fn absorb_left(&mut self, left: &LeafNode, dense: bool) {
        assert_eq!(
            left.header.fence_high, self.header.fence_low,
            "absorb_left requires fence-adjacent leaves"
        );
        let mut pairs = left.sorted_pairs();
        pairs.extend(self.sorted_pairs());
        assert!(pairs.len() <= self.entries.len(), "merged leaf overflows");
        self.set_pairs(&pairs, dense);
        self.header.fence_low = left.header.fence_low;
        self.header.bump_versions();
    }

    /// Move the `count` smallest live pairs of `right` into this leaf
    /// (rebalancing two siblings that cannot fully merge).  Returns the new
    /// separator key — the smallest key remaining in `right` — which the
    /// caller must install in the parent.  Both nodes are rewritten by
    /// [`LeafNode::set_pairs`] — sorted and densely packed when `dense`, the
    /// moved slots alone otherwise — and version-bumped, with their shared
    /// fence moved to the new separator.
    ///
    /// # Panics
    /// Panics if `right` would be drained completely, if this leaf cannot hold
    /// the moved pairs, or if the nodes are not fence-adjacent.
    pub fn take_from_right(&mut self, right: &mut LeafNode, count: usize, dense: bool) -> u64 {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "take_from_right requires fence-adjacent leaves"
        );
        let right_pairs = right.sorted_pairs();
        assert!(count < right_pairs.len(), "rebalance must not drain the donor");
        let mut pairs = self.sorted_pairs();
        pairs.extend(&right_pairs[..count]);
        assert!(pairs.len() <= self.entries.len(), "rebalanced leaf overflows");
        let new_sep = right_pairs[count].0;

        self.set_pairs(&pairs, dense);
        self.header.fence_high = new_sep;
        self.header.bump_versions();

        right.set_pairs(&right_pairs[count..], dense);
        right.header.fence_low = new_sep;
        right.header.bump_versions();
        new_sep
    }

    /// Move the `count` **largest** live pairs of `left` into this leaf
    /// (the mirror of [`LeafNode::take_from_right`], used when the underfull
    /// node is the rightmost child of its parent and must be topped up from
    /// its left sibling).  Returns the new separator key — the smallest key
    /// now held by this leaf — which the caller must retarget in the parent.
    /// Both nodes are rewritten as [`LeafNode::take_from_right`] rewrites
    /// them and version-bumped, with their shared fence moved to the new
    /// separator.
    ///
    /// # Panics
    /// Panics if `left` would be drained completely, if this leaf cannot hold
    /// the moved pairs, or if the nodes are not fence-adjacent.
    pub fn take_from_left(&mut self, left: &mut LeafNode, count: usize, dense: bool) -> u64 {
        assert_eq!(
            left.header.fence_high, self.header.fence_low,
            "take_from_left requires fence-adjacent leaves"
        );
        let left_pairs = left.sorted_pairs();
        assert!(count < left_pairs.len(), "rebalance must not drain the donor");
        let split = left_pairs.len() - count;
        let new_sep = left_pairs[split].0;
        let mut pairs: Vec<(u64, u64)> = left_pairs[split..].to_vec();
        pairs.extend(self.sorted_pairs());
        assert!(pairs.len() <= self.entries.len(), "rebalanced leaf overflows");

        self.set_pairs(&pairs, dense);
        self.header.fence_low = new_sep;
        self.header.bump_versions();

        left.set_pairs(&left_pairs[..split], dense);
        left.header.fence_high = new_sep;
        left.header.bump_versions();
        new_sep
    }

    /// Split this (full) leaf: the upper half of its keys move to a new leaf
    /// covering `[split_key, old_fence_high)`.  Returns the new sibling's
    /// contents; the caller allocates its address and links
    /// `self.header.sibling` to it.
    ///
    /// The paper sorts unsorted leaves before splitting (Figure 7, line 21)
    /// to find the median.  The new leaf is sorted and densely packed; this
    /// one is rewritten by [`LeafNode::set_pairs`]: re-packed when `dense`,
    /// otherwise only the slots of the keys that moved are cleared.
    pub fn split(&mut self, layout: &NodeLayout, dense: bool) -> (u64, LeafNode) {
        let pairs = self.sorted_pairs();
        assert!(pairs.len() >= 2, "cannot split a leaf with fewer than 2 keys");
        let mid = pairs.len() / 2;
        let split_key = pairs[mid].0;

        let mut right_header = NodeHeader::new(true, 0, split_key, self.header.fence_high);
        right_header.sibling = self.header.sibling;
        let mut right = LeafNode::empty(layout, right_header);
        right.repack_sorted(&pairs[mid..]);
        right.header.bump_versions();

        self.set_pairs(&pairs[..mid], dense);
        self.header.fence_high = split_key;
        self.header.bump_versions();
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
/// shorter — the front only while there is a slot before it — so removing the
/// first separator moves `start` and no entry.  A window that no longer fits
/// behind `start` is recentered when the node is encoded
/// ([`NodeLayout::encode_internal`]).
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
    /// of the window — the front only when a slot before it is free.  Returns
    /// `false` if the separator already exists (idempotent re-insertion after
    /// a retried split).
    pub fn insert_separator(&mut self, key: u64, child: GlobalAddress) -> bool {
        match self.entries.binary_search_by_key(&key, |e| e.key) {
            Ok(_) => false,
            Err(pos) => {
                if self.start > 0 && pos < self.entries.len() - pos {
                    self.start -= 1;
                }
                self.entries.insert(pos, InternalEntry { key, child });
                self.header.count = self.entries.len();
                true
            }
        }
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
        let mid = self.entries.len() / 2;
        let promoted = self.entries[mid];

        let mut right = InternalNode::new(
            self.header.level,
            promoted.key,
            self.header.fence_high,
            promoted.child,
        );
        right.entries = self.entries.split_off(mid + 1);
        right.header.count = right.entries.len();
        right.header.sibling = self.header.sibling;
        right.header.bump_versions();

        self.entries.truncate(mid);
        self.header.count = self.entries.len();
        self.header.fence_high = promoted.key;
        self.header.bump_versions();
        (promoted.key, right)
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
    pub fn retarget_separator(&mut self, old_key: u64, new_key: u64, child: GlobalAddress) -> bool {
        if !self.remove_separator(old_key, child) {
            return false;
        }
        self.insert_separator(new_key, child)
    }

    /// Absorb the contents of `right` (this node's B-link sibling): `right`'s
    /// leftmost child re-enters as a separator at `right`'s lower fence, and
    /// the fence / sibling metadata is extended.  Versions are bumped; the
    /// caller frees `right`'s address.
    ///
    /// # Panics
    /// Panics if the combined separators do not fit (check with
    /// [`InternalNode::is_full`]-style capacity math first) or if the nodes
    /// are not fence-adjacent.
    pub fn absorb_right(&mut self, right: &InternalNode) {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "absorb_right requires fence-adjacent nodes"
        );
        let right_leftmost = right
            .header
            .leftmost
            .expect("internal node has leftmost child");
        self.entries.push(InternalEntry {
            key: right.header.fence_low,
            child: right_leftmost,
        });
        self.entries.extend(right.entries.iter().copied());
        debug_assert!(self.entries.windows(2).all(|w| w[0].key < w[1].key));
        self.header.count = self.entries.len();
        self.header.fence_high = right.header.fence_high;
        self.header.sibling = right.header.sibling;
        self.header.bump_versions();
    }

    /// Move the `count` **smallest** children of `right` (this node's B-link
    /// sibling) into this node, rotating each child's routing key through the
    /// shared boundary: `right`'s leftmost child re-enters here as a separator
    /// at `right`'s lower fence, and `right`'s first separator becomes its new
    /// leftmost child.  Returns the new separator key — `right`'s new lower
    /// fence — which the caller must retarget in the parent.  Versions of both
    /// headers are bumped.
    ///
    /// The donor always keeps at least one child — its (rotated) leftmost —
    /// so `count` may equal its separator count, leaving a separator-less but
    /// still-valid router; callers that must respect an occupancy floor cap
    /// `count` themselves.
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds `right`'s separator count, or if
    /// the nodes are not fence-adjacent.
    pub fn take_from_right(&mut self, right: &mut InternalNode, count: usize) -> u64 {
        assert_eq!(
            self.header.fence_high, right.header.fence_low,
            "take_from_right requires fence-adjacent nodes"
        );
        assert!(
            count > 0 && count <= right.entries.len(),
            "rotation count must leave the donor its leftmost child"
        );
        for _ in 0..count {
            let child = right
                .header
                .leftmost
                .expect("internal node has leftmost child");
            self.entries.push(InternalEntry {
                key: right.header.fence_low,
                child,
            });
            let first = right.entries.remove(0);
            right.start += 1;
            right.header.leftmost = Some(first.child);
            right.header.fence_low = first.key;
        }
        debug_assert!(self.entries.windows(2).all(|w| w[0].key < w[1].key));
        let new_sep = right.header.fence_low;
        self.header.fence_high = new_sep;
        self.header.count = self.entries.len();
        self.header.bump_versions();
        right.header.count = right.entries.len();
        right.header.bump_versions();
        new_sep
    }

    /// Move the `count` **largest** children of `left` (whose B-link sibling
    /// is this node) into this node — the mirror of
    /// [`InternalNode::take_from_right`], used when the underfull node is the
    /// rightmost child of its parent.  Each rotation demotes this node's
    /// leftmost child to an ordinary separator at the old lower fence and
    /// promotes `left`'s last child to the new leftmost.  Returns the new
    /// separator key — this node's new lower fence — for the parent retarget.
    ///
    /// The donor always keeps at least one child — its leftmost — so `count`
    /// may equal its separator count; callers that must respect an occupancy
    /// floor cap `count` themselves.
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds `left`'s separator count, or if
    /// the nodes are not fence-adjacent.
    pub fn take_from_left(&mut self, left: &mut InternalNode, count: usize) -> u64 {
        assert_eq!(
            left.header.fence_high, self.header.fence_low,
            "take_from_left requires fence-adjacent nodes"
        );
        assert!(
            count > 0 && count <= left.entries.len(),
            "rotation count must leave the donor its leftmost child"
        );
        for _ in 0..count {
            let old_leftmost = self
                .header
                .leftmost
                .expect("internal node has leftmost child");
            self.entries.insert(
                0,
                InternalEntry {
                    key: self.header.fence_low,
                    child: old_leftmost,
                },
            );
            self.start = self.start.saturating_sub(1);
            let last = left.entries.pop().expect("donor keeps at least one entry");
            self.header.leftmost = Some(last.child);
            self.header.fence_low = last.key;
        }
        debug_assert!(self.entries.windows(2).all(|w| w[0].key < w[1].key));
        let new_sep = self.header.fence_low;
        left.header.fence_high = new_sep;
        left.header.count = left.entries.len();
        left.header.bump_versions();
        self.header.count = self.entries.len();
        self.header.bump_versions();
        new_sep
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

    const FORMATS: [LeafFormat; 3] = [
        LeafFormat::SortedNodeVersion,
        LeafFormat::SortedChecksum,
        LeafFormat::UnsortedTwoLevel,
    ];

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
        let (split_key, right) = leaf.split(&l, false);
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
        assert!(node.insert_separator(100, addr(1)));
        assert!(node.insert_separator(50, addr(2)));
        assert!(node.insert_separator(200, addr(3)));
        assert!(!node.insert_separator(100, addr(9)), "duplicate separator");
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
            node.insert_separator(i * 10, addr(i));
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
            node.insert_separator(i * 7, addr(i));
        }
        for i in 21..=25u64 {
            node.insert_separator(i * 7 - 3, addr(i));
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
        for dense in [true, false] {
            let mut left = leaf.clone();
            let (split_key, right) = left.split(&l, dense);
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
            if dense {
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
        left.absorb_right(&right, true);

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
        let sep = left.take_from_right(&mut right, 2, false);
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
        let sep = right.take_from_left(&mut left, 2, false);
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
        left.insert_separator(50, addr(1));
        let mut right = InternalNode::new(1, 100, u64::MAX, addr(2));
        right.insert_separator(150, addr(3));
        right.insert_separator(200, addr(4));
        right.insert_separator(250, addr(5));

        let sep = left.take_from_right(&mut right, 2);
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
        left.insert_separator(100, addr(1));
        left.insert_separator(200, addr(2));
        let mut right = InternalNode::new(1, 300, u64::MAX, addr(3));
        right.insert_separator(400, addr(4));

        let sep = right.take_from_left(&mut left, 2);
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
        node.insert_separator(50, addr(1));
        node.insert_separator(100, addr(2));
        // Wrong child: refused (idempotence under races).
        assert!(!node.remove_separator(50, addr(9)));
        assert!(node.remove_separator(50, addr(1)));
        assert_eq!(node.entries.len(), 1);
        assert_eq!(node.header.count, 1);
        assert_eq!(node.child_for(60), addr(0), "keys re-route to the left child");

        assert!(node.retarget_separator(100, 120, addr(2)));
        assert_eq!(node.child_for(110), addr(0));
        assert_eq!(node.child_for(120), addr(2));
        assert!(!node.retarget_separator(100, 130, addr(2)), "stale retarget is a no-op");
    }

    #[test]
    fn internal_absorb_right_reattaches_leftmost() {
        let mut left = InternalNode::new(1, 0, 100, addr(0));
        left.insert_separator(50, addr(1));
        let mut right = InternalNode::new(1, 100, u64::MAX, addr(2));
        right.insert_separator(150, addr(3));
        right.header.sibling = Some(addr(7));

        left.absorb_right(&right);
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
            node.insert_separator(i + 1, addr(i));
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

    /// The four structural edits of a leaf pair, `[0, 1000)` and
    /// `[1000, 2000)`: split the left leaf, absorb the right into it, move
    /// `n` pairs right → left, move `n` pairs left → right.  Returns the two
    /// nodes after the edit (for a split, the left leaf and its new right
    /// half), the pairs that left `left` and `right` and those that arrived —
    /// or `None` when the pair does not admit the edit.
    fn edit(
        l: &NodeLayout,
        mut left: LeafNode,
        mut right: LeafNode,
        op: u8,
        n: usize,
        dense: bool,
    ) -> Option<Edited> {
        let (ln, rn) = (left.live_count(), right.live_count());
        let cap = left.entries.len();
        let old = (left.header.clone(), right.header.clone());
        let moved = |pairs: &[(u64, u64)]| pairs.iter().copied().collect::<BTreeMap<_, _>>();
        match op % 4 {
            0 if ln >= 2 => {
                let pairs = left.sorted_pairs();
                let (split_key, half) = left.split(l, dense);
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
                left.absorb_right(&right, dense);
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
                let sep = left.take_from_right(&mut right, count, dense);
                assert_eq!(Some(&sep), right.sorted_pairs().first().map(|(k, _)| k));
                assert_eq!((left.header.fence_high, right.header.fence_low), (sep, sep));
                assert_eq!(left.header.sibling, old.0.sibling);
                Some((left, right, [BTreeMap::new(), arriving]))
            }
            3 if ln >= 2 && rn < cap => {
                let count = 1 + n % (ln - 1).min(cap - rn);
                let pairs = left.sorted_pairs();
                let leaving = moved(&pairs[pairs.len() - count..]);
                let sep = right.take_from_left(&mut left, count, dense);
                assert_eq!(Some(&sep), leaving.keys().next());
                assert_eq!((left.header.fence_high, right.header.fence_low), (sep, sep));
                assert_eq!(left.header.sibling, old.0.sibling);
                Some((left, right, [leaving, BTreeMap::new()]))
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
            op in 0u8..4,
            n in 0usize..64,
        ) {
            let l = layout();
            let left = leaf_of(&l, 0, density.0, &left, 1);
            let right = leaf_of(&l, 1_000, density.1, &right, 2);
            let before = pairs_of(&[&left, &right]);
            let Some((new_left, new_right, [out, into])) =
                edit(&l, left.clone(), right.clone(), op, n, false)
            else {
                return;
            };
            match op % 4 {
                // Split: the new half is fresh, dense and holds what left.
                0 => {
                    moved_slots_only(&l, &left, &new_left, &out.keys().copied().collect(), &BTreeMap::new());
                    prop_assert_eq!(pairs_of(&[&new_right]), out);
                    prop_assert_eq!(pairs_of(&[&new_left, &new_right, &right]), before);
                }
                // Absorb: the survivor gains the right leaf's pairs; the
                // right leaf itself becomes the caller's tombstone.
                1 => {
                    moved_slots_only(&l, &left, &new_left, &BTreeSet::new(), &into);
                    prop_assert_eq!(pairs_of(&[&new_left]), before);
                }
                // Rebalance: installs in the receiver, clears in the donor.
                _ => {
                    let moving = if out.is_empty() { &into } else { &out };
                    let keys: BTreeSet<u64> = moving.keys().copied().collect();
                    let (receiver, donor) = match op % 4 {
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
            op in 0u8..4,
            n in 0usize..64,
        ) {
            let l = layout();
            let left = leaf_of(&l, 0, density.0, &left, 1);
            let right = leaf_of(&l, 1_000, density.1, &right, 2);
            let Some((new_left, new_right, _)) = edit(&l, left.clone(), right.clone(), op, n, true)
            else {
                return;
            };
            prop_assert_eq!(l.encode_leaf(&new_left), repacked(&l, &left, &new_left));
            // A split's new half starts from vacant slots; an absorbed leaf
            // is left to the caller's tombstone.
            let fresh = LeafNode::empty(&l, new_right.header.clone());
            let right_pre = match op % 4 {
                0 => &fresh,
                1 => return,
                _ => &right,
            };
            prop_assert_eq!(l.encode_leaf(&new_right), repacked(&l, right_pre, &new_right));
        }
    }
}
