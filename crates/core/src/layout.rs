//! Byte-level node layout (Figure 8 of the paper).
//!
//! Every node occupies exactly `node_size` bytes in a memory server's host
//! DRAM.  The layout is designed around the reproduction's two consistency
//! mechanisms:
//!
//! * a pair of **node-level versions** — `FNV` in the first header byte and
//!   `RNV` in the first byte of the tail — that a lock-free reader compares to
//!   detect a torn read of the whole node,
//! * for Sherman's unsorted leaves, a pair of **entry-level versions**
//!   (`FEV`/`REV`) bracketing every leaf entry, so that an entry-granular
//!   write-back can be detected without touching the node-level pair.
//!
//! The paper packs versions into 4 bits; this implementation uses full bytes
//! so that the layout stays byte-addressable (see `docs/ARCHITECTURE.md`), and
//! additionally stores a per-entry **key tag** byte: 0 marks a vacant slot
//! (so deleted entries are distinguishable from live entries holding key 0),
//! and a live slot holds [`key_tag`] of its key — never 0 — so a point search
//! reads a slot's key only where the tag matches (FPTree's fingerprints, kept
//! inside each entry's version bracket).
//!
//! ```text
//! offset  field
//! 0       FNV  (front node version)
//! 1       flags (bit0 = leaf, bit1 = free)
//! 2       level (leaves are level 0)
//! 4..8    count (valid entries; authoritative for sorted layouts)
//! 8..16   fence_low  (inclusive)
//! 16..24  fence_high (exclusive; u64::MAX = +inf)
//! 24..32  sibling pointer (packed GlobalAddress, 0 = none)
//! 32..40  leftmost child  (internal nodes only)
//! 40..44  reserved (zero)
//! 44..46  start (internal nodes only: the slot of the first separator)
//! 48..    entry area
//! size-t  tail: RNV (rear node version) in its first byte, then one stale
//!         bit per leaf slot (t = 8 unless a leaf has more than 56 slots)
//!
//! leaf entry (key_size + value_size + 3 bytes)
//! 0       FEV (front entry version)
//! 1       key tag (0 = vacant)
//! 2..     key (key_size bytes; the first eight hold the key)
//! ..      value (value_size bytes; the first eight hold the value)
//! last    REV (rear entry version)
//! ```
//!
//! A point insert or update writes back the whole entry (19 bytes for 8-byte
//! keys and values), its version pair bumped; a point delete writes the tag
//! byte alone, set to 0.  Of a vacant slot a reader heeds the tag alone: the
//! key, value and version pair a delete leaves behind are never read, and the
//! next insert there bumps the pair from what memory holds.
//!
//! A leaf owns the keys between its fences alone (Lehman and Yao), so a
//! tagged slot whose key lies outside them is *stale*: every reader takes it
//! for vacant.  A split or rebalance with a planned write-back leaves the
//! slots of the keys it moves out as they are, and [`NodeLayout::encode_leaf`]
//! sets their stale bits in the tail, derived from the fences; a write probe
//! reads the bits and no key (`NodeLayout::probe_leaf`).  An insert that
//! takes a stale slot writes its entry, then the bit's byte, cleared.

use crate::config::TreeConfig;
use crate::node::{InternalEntry, InternalNode, LeafEntry, LeafNode, LeafSearch, NodeHeader};
use sherman_memserver::StaleSlots;
use sherman_sim::GlobalAddress;
use std::ops::Range;

/// Size of the fixed node header in bytes.
pub const HEADER_BYTES: usize = 48;
/// Size of one internal entry (8-byte separator + 8-byte child pointer).
pub const INTERNAL_ENTRY_BYTES: usize = 16;

/// Unchanged bytes a write-back plan writes anyway rather than start another
/// range, and what it prices a further range at when it weighs a plan against
/// the whole node: a work-queue entry is 64 bytes itself, so skipping fewer
/// moves more bytes to the NIC than it keeps off the wire.
pub const COALESCE_GAP_BYTES: usize = 64;

/// Flag bit: the node is a leaf.
pub const FLAG_LEAF: u8 = 0b01;
/// Flag bit: the node has been freed.
pub const FLAG_FREE: u8 = 0b10;

/// The multiplier [`key_tag`] hashes a key with (Fibonacci hashing: the top
/// byte of the product depends on every bit of the key).
const TAG_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// The key tag a live leaf slot holding `key` stores in its tag byte: the top
/// byte of `key × TAG_HASH`, with 0 — the vacant slot's byte — mapped to 1.
pub fn key_tag(key: u64) -> u8 {
    ((key.wrapping_mul(TAG_HASH) >> 56) as u8).max(1)
}

/// What a point write needs to know of a leaf image ([`NodeLayout::probe_leaf`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LeafProbe {
    /// The first slot whose tag and key are the key's.
    pub(crate) slot: Option<usize>,
    /// The first vacant slot.
    pub(crate) vacant: Option<usize>,
    /// Live entries.
    pub(crate) live: usize,
    /// Keys read: those of the slots up to `slot` (all of them on a miss)
    /// whose tag matched the key's.
    pub(crate) compared: usize,
}

/// Byte-level encoder/decoder for a particular tree geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    node_size: usize,
    key_size: usize,
    value_size: usize,
    tail_bytes: usize,
}

impl NodeLayout {
    /// Build the layout from a tree configuration.  The tail is one 8-byte
    /// word — the rear version and 56 stale bits — unless a leaf has more
    /// slots than that, when it grows by words until every slot has a bit.
    pub fn new(config: &TreeConfig) -> Self {
        let mut layout = NodeLayout {
            node_size: config.node_size,
            key_size: config.key_size,
            value_size: config.value_size,
            tail_bytes: 8,
        };
        while 1 + layout.leaf_capacity().div_ceil(8) > layout.tail_bytes {
            layout.tail_bytes = (1 + layout.leaf_capacity().div_ceil(8)).next_multiple_of(8);
        }
        layout
    }

    /// Node size in bytes.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Size of one leaf entry: front version, key tag, key, value, rear
    /// version.
    pub fn leaf_entry_bytes(&self) -> usize {
        self.key_size + self.value_size + 3
    }

    /// Bytes of a leaf image the point search `search` reads: the header and
    /// the tail word, the tag of every slot it examined, the key of every
    /// slot whose tag matched, and the value and version pair of its match.
    /// A search that never reached the slots (a freed node, a fence miss) is
    /// [`LeafSearch::default`]: the header and the tail word.  A point write's
    /// probe of the image its lock read is priced by the same rule.
    pub fn leaf_search_bytes(&self, search: &LeafSearch) -> usize {
        let matched = search.entry.map_or(0, |_| self.value_size + 2);
        HEADER_BYTES + self.tail_bytes + search.scanned + search.compared * self.key_size + matched
    }

    /// Number of entries a leaf can hold.
    pub fn leaf_capacity(&self) -> usize {
        (self.node_size - HEADER_BYTES - self.tail_bytes) / self.leaf_entry_bytes()
    }

    /// Number of separator/child pairs an internal node can hold (excluding
    /// the leftmost child stored in the header).
    pub fn internal_capacity(&self) -> usize {
        (self.node_size - HEADER_BYTES - self.tail_bytes) / INTERNAL_ENTRY_BYTES
    }

    /// Byte offset of leaf entry `idx` within the node.
    pub fn leaf_entry_offset(&self, idx: usize) -> usize {
        debug_assert!(idx < self.leaf_capacity());
        HEADER_BYTES + idx * self.leaf_entry_bytes()
    }

    /// Bytes of leaf entry `idx` within the node.
    pub fn leaf_entry_range(&self, idx: usize) -> Range<usize> {
        let at = self.leaf_entry_offset(idx);
        at..at + self.leaf_entry_bytes()
    }

    /// Byte offset of internal entry `idx` within the node.
    pub fn internal_entry_offset(&self, idx: usize) -> usize {
        debug_assert!(idx < self.internal_capacity());
        HEADER_BYTES + idx * INTERNAL_ENTRY_BYTES
    }

    /// Offset of the rear node version byte, the tail's first.
    pub fn rear_version_offset(&self) -> usize {
        self.node_size - self.tail_bytes
    }

    /// The byte of the tail that holds leaf slot `slot`'s stale bit, and the
    /// bit.
    pub fn stale_bit(&self, slot: usize) -> (usize, u8) {
        (self.rear_version_offset() + 1 + slot / 8, 1 << (slot % 8))
    }

    /// Whether the leaf image `image` marks slot `slot` stale.
    pub fn marked_stale(&self, image: &[u8], slot: usize) -> bool {
        let (at, bit) = self.stale_bit(slot);
        image[at] & bit != 0
    }

    // ------------------------------------------------------------------
    // Header
    // ------------------------------------------------------------------

    pub(crate) fn encode_header(&self, buf: &mut [u8], header: &NodeHeader) {
        buf[0] = header.front_version;
        let mut flags = 0u8;
        if header.is_leaf {
            flags |= FLAG_LEAF;
        }
        if header.free {
            flags |= FLAG_FREE;
        }
        buf[1] = flags;
        buf[2] = header.level;
        buf[3] = 0;
        buf[4..8].copy_from_slice(&(header.count as u32).to_le_bytes());
        buf[8..16].copy_from_slice(&header.fence_low.to_le_bytes());
        buf[16..24].copy_from_slice(&header.fence_high.to_le_bytes());
        buf[24..32].copy_from_slice(&header.sibling.map_or(0, |a| a.pack()).to_le_bytes());
        buf[32..40].copy_from_slice(&header.leftmost.map_or(0, |a| a.pack()).to_le_bytes());
        buf[40..48].fill(0);
        buf[self.rear_version_offset()] = header.rear_version;
    }

    /// Decode just the header (and rear version) of a node image.
    pub fn decode_header(&self, buf: &[u8]) -> NodeHeader {
        let word = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let sibling_raw = word(24);
        let leftmost_raw = word(32);
        NodeHeader {
            front_version: buf[0],
            rear_version: buf[self.rear_version_offset()],
            is_leaf: buf[1] & FLAG_LEAF != 0,
            free: buf[1] & FLAG_FREE != 0,
            level: buf[2],
            count: u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize,
            fence_low: word(8),
            fence_high: word(16),
            sibling: if sibling_raw == 0 {
                None
            } else {
                Some(GlobalAddress::unpack(sibling_raw))
            },
            leftmost: if leftmost_raw == 0 {
                None
            } else {
                Some(GlobalAddress::unpack(leftmost_raw))
            },
        }
    }

    // ------------------------------------------------------------------
    // Leaf nodes
    // ------------------------------------------------------------------

    /// Encode one leaf entry into its wire representation (what an
    /// entry-granular write-back sends of it: all of an insert's, the tag
    /// byte of a delete's).
    pub fn encode_leaf_entry(&self, entry: &LeafEntry) -> Vec<u8> {
        let mut buf = vec![0u8; self.leaf_entry_bytes()];
        self.encode_leaf_entry_into(&mut buf, entry);
        buf
    }

    /// Encode one leaf entry in place: `buf` is the entry's
    /// [`NodeLayout::leaf_entry_bytes`] inside a node image (or on their
    /// own), zeroed — the padding of keys and values wider than eight bytes
    /// is not written.  A live entry's tag byte is written from its key
    /// ([`key_tag`]), a vacant one's is 0.
    pub fn encode_leaf_entry_into(&self, buf: &mut [u8], entry: &LeafEntry) {
        debug_assert_eq!(buf.len(), self.leaf_entry_bytes());
        buf[0] = entry.front_version;
        buf[1] = match entry.present() {
            true => key_tag(entry.key),
            false => 0,
        };
        buf[2..10].copy_from_slice(&entry.key.to_le_bytes());
        let value_off = 2 + self.key_size;
        buf[value_off..value_off + 8].copy_from_slice(&entry.value.to_le_bytes());
        buf[self.leaf_entry_bytes() - 1] = entry.rear_version;
    }

    /// Decode one leaf entry from its wire representation (the tag as
    /// stored).
    pub fn decode_leaf_entry(&self, buf: &[u8]) -> LeafEntry {
        debug_assert_eq!(buf.len(), self.leaf_entry_bytes());
        let value_off = 2 + self.key_size;
        LeafEntry {
            front_version: buf[0],
            tag: buf[1],
            key: u64::from_le_bytes(buf[2..10].try_into().unwrap()),
            value: u64::from_le_bytes(buf[value_off..value_off + 8].try_into().unwrap()),
            rear_version: buf[self.leaf_entry_bytes() - 1],
        }
    }

    /// Encode a whole leaf node, the stale bit of every tagged slot whose key
    /// lies outside its fences set.
    pub fn encode_leaf(&self, node: &LeafNode) -> Vec<u8> {
        assert!(node.entries.len() <= self.leaf_capacity());
        let mut buf = vec![0u8; self.node_size];
        self.encode_header(&mut buf, &node.header);
        let slots = buf[HEADER_BYTES..].chunks_exact_mut(self.leaf_entry_bytes());
        for (slot, entry) in slots.zip(&node.entries) {
            self.encode_leaf_entry_into(slot, entry);
        }
        for (slot, entry) in node.entries.iter().enumerate() {
            if entry.present() && !node.owns(entry) {
                let (at, bit) = self.stale_bit(slot);
                buf[at] |= bit;
            }
        }
        buf
    }

    /// Decode a whole leaf node (all slots, including empty ones; the stale
    /// bits are not read — a decoded leaf judges a slot by its fences).
    pub fn decode_leaf(&self, buf: &[u8]) -> LeafNode {
        let header = self.decode_header(buf);
        let entries = (0..self.leaf_capacity())
            .map(|i| self.decode_leaf_entry(&buf[self.leaf_entry_range(i)]))
            .collect();
        LeafNode { header, entries }
    }

    /// One pass over the slots of the leaf image `buf` for a point write on
    /// `key`: what [`LeafNode::slot_of`], [`LeafNode::vacant_slot`] and
    /// [`LeafNode::live_count`] answer of the decoded leaf, without decoding
    /// it.  Every slot's tag is read — the first vacant slot and the live
    /// count need them all — and its stale bit, which makes a tagged slot
    /// vacant; a slot's key only where its tag is the key's [`key_tag`], and
    /// none once the key is found.
    pub(crate) fn probe_leaf(&self, buf: &[u8], key: u64) -> LeafProbe {
        let entry_bytes = self.leaf_entry_bytes();
        let area = &buf[HEADER_BYTES..HEADER_BYTES + self.leaf_capacity() * entry_bytes];
        let (tag, key) = (key_tag(key), key.to_le_bytes());
        let mut probe = LeafProbe::default();
        // The tag (0 = vacant) and the key, where `decode_leaf_entry` reads
        // them.
        for (i, entry) in area.chunks_exact(entry_bytes).enumerate() {
            if entry[1] == 0 || self.marked_stale(buf, i) {
                probe.vacant.get_or_insert(i);
                continue;
            }
            probe.live += 1;
            if entry[1] != tag || probe.slot.is_some() {
                continue;
            }
            probe.compared += 1;
            if entry[2..10] == key {
                probe.slot = Some(i);
            }
        }
        probe
    }

    // ------------------------------------------------------------------
    // Internal nodes
    // ------------------------------------------------------------------

    /// The first slot of a window of `count` separators recentered in an
    /// internal node: the free slots split evenly around it.  A window goes
    /// there when an insert finds no slot on the side it shifts
    /// ([`InternalNode::insert_separator`]) or a merge grew it past the last
    /// slot ([`NodeLayout::encode_internal`]).
    pub fn centered_start(&self, count: usize) -> usize {
        (self.internal_capacity() - count) / 2
    }

    /// Encode a whole internal node: its separators in the slots of its
    /// window from `start` on — recentered ([`NodeLayout::centered_start`])
    /// when they no longer fit behind it — every other slot zero.
    pub fn encode_internal(&self, node: &InternalNode) -> Vec<u8> {
        let (capacity, count) = (self.internal_capacity(), node.entries.len());
        assert!(count <= capacity);
        let start = match node.start + count <= capacity {
            true => node.start,
            false => self.centered_start(count),
        };
        let mut buf = vec![0u8; self.node_size];
        let mut header = node.header.clone();
        header.count = count;
        header.is_leaf = false;
        self.encode_header(&mut buf, &header);
        let start_word = u16::try_from(start).expect("a validated node's slots fit 16 bits");
        buf[44..46].copy_from_slice(&start_word.to_le_bytes());
        for (i, entry) in (start..).zip(&node.entries) {
            let off = self.internal_entry_offset(i);
            buf[off..off + 8].copy_from_slice(&entry.key.to_le_bytes());
            buf[off + 8..off + 16].copy_from_slice(&entry.child.pack().to_le_bytes());
        }
        buf
    }

    /// The window of an internal node image: its first slot and its number
    /// of separators, clamped to the node's slots (a torn image may hold
    /// anything).
    fn internal_window(&self, buf: &[u8]) -> (usize, usize) {
        let capacity = self.internal_capacity();
        let count = self.decode_header(buf).count.min(capacity);
        let start = u16::from_le_bytes([buf[44], buf[45]]) as usize;
        (start.min(capacity - count), count)
    }

    /// Decode a whole internal node: the header and the window.
    pub fn decode_internal(&self, buf: &[u8]) -> InternalNode {
        let header = self.decode_header(buf);
        let (start, count) = self.internal_window(buf);
        let entries = (start..start + count)
            .map(|i| {
                let off = self.internal_entry_offset(i);
                InternalEntry {
                    key: u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
                    child: GlobalAddress::unpack(u64::from_le_bytes(
                        buf[off + 8..off + 16].try_into().unwrap(),
                    )),
                }
            })
            .collect();
        InternalNode {
            header,
            start,
            entries,
        }
    }

    // ------------------------------------------------------------------
    // Write-back planning
    // ------------------------------------------------------------------

    /// The bytes of the entry area a decoder reads of `image`: every slot of
    /// a leaf, the window of an internal node.  Beside them a decoder reads
    /// the header and the tail word, and nothing else: an internal node's
    /// slots outside its window are never read.
    pub fn decoded_extent(&self, image: &[u8]) -> Range<usize> {
        if image[1] & FLAG_LEAF != 0 {
            return HEADER_BYTES..self.rear_version_offset();
        }
        let (start, count) = self.internal_window(image);
        let at = HEADER_BYTES + start * INTERNAL_ENTRY_BYTES;
        at..at + count * INTERNAL_ENTRY_BYTES
    }

    /// Plan the write-back that turns the node image `pre` — as read under
    /// the node's lock — into `new`: the byte ranges of `new` to write, in
    /// ascending order and disjoint, after which the node decodes as `new`
    /// does.  Post them in [`NodeLayout::post_order`].
    ///
    /// The images are compared in 8-byte words over what a decoder reads of
    /// `new` — the header, [`NodeLayout::decoded_extent`] and the tail word;
    /// an internal node's slots outside its window are not compared, and what
    /// they hold after the write is unspecified.  The word with the front
    /// version and the tail word are ranges of their own; between them,
    /// changed words fewer than [`COALESCE_GAP_BYTES`] apart share a range.
    /// When the ranges, each beyond the first priced at that many bytes, cost
    /// what the whole node does, the plan is the whole node.
    pub fn plan_write_back(&self, pre: &[u8], new: &[u8]) -> Vec<Range<usize>> {
        assert_eq!((pre.len(), new.len()), (self.node_size, self.node_size));
        let tail = self.rear_version_offset();
        let words = |area: Range<usize>| {
            let end = area.end;
            area.step_by(8).map(move |at| at..(at + 8).min(end))
        };
        let body_words = words(0..HEADER_BYTES).chain(words(self.decoded_extent(new)));
        let mut ranges: Vec<Range<usize>> = Vec::new();
        for word in body_words.chain(std::iter::once(tail..self.node_size)) {
            if pre[word.clone()] == new[word.clone()] {
                continue;
            }
            match ranges.last_mut() {
                Some(last)
                    if last.start > 0
                        && word.start < tail
                        && word.start - last.end < COALESCE_GAP_BYTES =>
                {
                    last.end = word.end
                }
                _ => ranges.push(word),
            }
        }
        let bytes: usize = ranges.iter().map(|r| r.len()).sum();
        if bytes + ranges.len().saturating_sub(1) * COALESCE_GAP_BYTES >= self.node_size {
            ranges.clear();
            ranges.push(0..self.node_size);
        }
        ranges
    }

    /// The leaf slots whose tag byte is not 0 in the node image `image`: of
    /// a leaf its live slots; of an internal node the leaf slots a leaf
    /// written at its address would read as live until their tags are
    /// cleared.  Only the tag offsets are read, so either kind will do.
    pub fn tagged_slots(&self, image: &[u8]) -> StaleSlots {
        let capacity = self.leaf_capacity();
        (0..capacity).filter(|&slot| image[self.leaf_entry_offset(slot) + 1] != 0).collect()
    }

    /// The image to plan ([`NodeLayout::plan_write_back`]) the first image
    /// `new` of an unsorted leaf against, at an address whose tombstone left
    /// a tag in the slots `stale` alone.  Every other slot there reads as
    /// vacant, its tag byte 0, and of a vacant slot a reader heeds the tag
    /// alone.  So the image differs from `new` where memory may: in the
    /// header, the tail word, each slot `new` fills, and the tag byte of each
    /// stale slot `new` leaves vacant.
    pub fn recycled_leaf_pre_image(&self, new: &[u8], stale: &StaleSlots) -> Vec<u8> {
        let mut pre = new.to_vec();
        let mut flip = |bytes: Range<usize>| pre[bytes].iter_mut().for_each(|b| *b = !*b);
        flip(0..HEADER_BYTES);
        flip(self.rear_version_offset()..self.node_size);
        for slot in 0..self.leaf_capacity() {
            let at = self.leaf_entry_offset(slot);
            match new[at + 1] {
                0 if stale.contains(slot) => flip(at + 1..at + 2),
                0 => {}
                _ => flip(at..at + self.leaf_entry_bytes()),
            }
        }
        pre
    }

    /// The image to plan ([`NodeLayout::plan_write_back`]) the first image
    /// `new` of an internal node against, at an address of any contents:
    /// `new` with every byte a decoder reads of it flipped — its header, its
    /// window ([`NodeLayout::decoded_extent`]) and its tail — so the plan
    /// writes those and leaves the rest of the address as it was.
    pub fn internal_pre_image(&self, new: &[u8]) -> Vec<u8> {
        let mut pre = new.to_vec();
        let read = [0..HEADER_BYTES, self.decoded_extent(new), self.rear_version_offset()..self.node_size];
        for bytes in read {
            pre[bytes].iter_mut().for_each(|b| *b = !*b);
        }
        pre
    }

    /// Where the first image of an unsorted leaf lands at an address whose
    /// tombstone left a tag in the slots `stale` alone: `new` as encoded, or
    /// its pairs moved in key order onto the slots the tombstone tags — its
    /// stale slots, then the vacant slots between them, then those above
    /// the last, then those below the first, nearest first — whichever
    /// write-back sends fewer bytes.  A pair on a stale slot overwrites the
    /// tag there; a pair elsewhere leaves that tag to be cleared apart.
    /// Returns the image and the pre-image to plan it against
    /// ([`NodeLayout::recycled_leaf_pre_image`]).
    pub fn place_recycled_leaf(&self, new: Vec<u8>, stale: &StaleSlots) -> (Vec<u8>, Vec<u8>) {
        let (capacity, entry) = (self.leaf_capacity(), self.leaf_entry_bytes());
        let planned = |image: Vec<u8>| {
            let pre = self.recycled_leaf_pre_image(&image, stale);
            let ranges = self.plan_write_back(&pre, &image);
            ((ranges.iter().map(Range::len).sum::<usize>(), ranges.len()), image, pre)
        };
        let unplaced = planned(new);
        let tagged = || (0..capacity).filter(|&slot| stale.contains(slot));
        let (Some(first), Some(last)) = (tagged().next(), tagged().next_back()) else {
            return (unplaced.1, unplaced.2);
        };
        let mut slots: Vec<usize> = (0..capacity).collect();
        slots.sort_unstable_by_key(|&slot| match slot {
            _ if stale.contains(slot) => (0, slot),
            _ if slot < first => (3, first - slot),
            _ if slot < last => (1, slot),
            _ => (2, slot),
        });
        let area = HEADER_BYTES..HEADER_BYTES + capacity * entry;
        let mut pairs: Vec<&[u8]> =
            unplaced.1[area.clone()].chunks_exact(entry).filter(|e| e[1] != 0).collect();
        pairs.sort_unstable_by_key(|e| u64::from_le_bytes(e[2..10].try_into().unwrap()));
        slots.truncate(pairs.len());
        slots.sort_unstable();
        let mut placed = unplaced.1.clone();
        placed[area].fill(0);
        for (slot, pair) in slots.into_iter().zip(pairs) {
            let at = self.leaf_entry_offset(slot);
            placed[at..at + entry].copy_from_slice(pair);
        }
        let placed = planned(placed);
        let (_, image, pre) = if placed.0 <= unplaced.0 { placed } else { unplaced };
        (image, pre)
    }

    /// Put the ranges of a plan in the order their commands are posted in,
    /// all in the one doorbell batch that releases the node's lock: the tail
    /// word first, the body ascending, the front-version word last — a
    /// sequence lock.  A lock-free reader loads a node in ascending order and
    /// accepts it when front and rear version are equal: if it sees the new
    /// front version, every store of the batch came before its first load; if
    /// it sees the old rear version, every one of its loads came before the
    /// first store; anything else it rejects, however reader and writer are
    /// paced.
    ///
    /// Ascending order — what a single `RDMA_WRITE` does (§4.4) — does not
    /// give that: its torn-read argument needs a reader that has got ahead of
    /// the writer inside the node to stay ahead up to the tail, and a writer
    /// that skips what did not change catches up with it for free.  Measured
    /// on `ThreadedFabric`, ranges posted in ascending order quadrupled the
    /// mixed images a reader accepted (CHANGES.md, PR 24).
    pub fn post_order(ranges: &mut [Range<usize>]) {
        if let [first, .., last] = ranges {
            std::mem::swap(first, last);
        }
    }

    // ------------------------------------------------------------------
    // Consistency checks
    // ------------------------------------------------------------------

    /// Whether the node-level version pair matches (lock-free readers retry
    /// when it does not).
    pub fn node_versions_match(&self, buf: &[u8]) -> bool {
        buf[0] == buf[self.rear_version_offset()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeHeader;

    fn layout() -> NodeLayout {
        NodeLayout::new(&TreeConfig::default())
    }

    fn sample_header(is_leaf: bool) -> NodeHeader {
        NodeHeader {
            front_version: 7,
            rear_version: 7,
            is_leaf,
            free: false,
            level: if is_leaf { 0 } else { 2 },
            count: 3,
            fence_low: 100,
            fence_high: 900,
            sibling: Some(GlobalAddress::host(1, 4096)),
            leftmost: if is_leaf {
                None
            } else {
                Some(GlobalAddress::host(2, 8192))
            },
        }
    }

    #[test]
    fn capacities_match_paper_scale() {
        let l = layout();
        // 1 KB nodes with 8-byte keys/values: ~50 leaf entries, ~60 separators.
        assert!(l.leaf_capacity() >= 40 && l.leaf_capacity() <= 60);
        assert!(l.internal_capacity() >= 55 && l.internal_capacity() <= 62);
        assert_eq!(l.leaf_entry_bytes(), 19);

        // Growing the key size (Figure 15) shrinks capacity.
        let big_keys = NodeLayout::new(&TreeConfig {
            key_size: 128,
            ..TreeConfig::default()
        });
        assert!(big_keys.leaf_capacity() < 10);
    }

    /// A leaf with more slots than the tail word has spare bits gets a
    /// longer tail, a bit for every slot: a 2 KB leaf has 104 slots and a
    /// 16-byte tail; every geometry of 56 slots or fewer keeps the 8-byte
    /// word.
    #[test]
    fn a_larger_leaf_gets_a_longer_tail() {
        assert_eq!(layout().rear_version_offset(), 1024 - 8);
        let l = NodeLayout::new(&TreeConfig { node_size: 2048, ..TreeConfig::default() });
        let capacity = l.leaf_capacity();
        assert_eq!((capacity, l.rear_version_offset()), (104, 2048 - 16));
        let mut leaf = LeafNode::empty(&l, NodeHeader::new(true, 0, 100, 200));
        leaf.entries[0].install(150, 1);
        leaf.entries[capacity - 1].install(7, 7);
        let image = l.encode_leaf(&leaf);
        let marked: Vec<usize> = (0..capacity).filter(|&s| l.marked_stale(&image, s)).collect();
        assert_eq!(marked, [capacity - 1]);
        assert_eq!(l.decode_header(&image), leaf.header);
        let probe = l.probe_leaf(&image, 150);
        assert_eq!((probe.slot, probe.vacant, probe.live), (Some(0), Some(1), 1));
    }

    #[test]
    fn header_roundtrip() {
        let l = layout();
        for is_leaf in [true, false] {
            let header = sample_header(is_leaf);
            let mut buf = vec![0u8; l.node_size()];
            l.encode_header(&mut buf, &header);
            let decoded = l.decode_header(&buf);
            assert_eq!(decoded, header);
        }
    }

    #[test]
    fn leaf_roundtrip_preserves_entries_and_versions() {
        let l = layout();
        let mut node = LeafNode::empty(&l, sample_header(true));
        node.entries[0] = LeafEntry {
            front_version: 3,
            rear_version: 3,
            tag: key_tag(123),
            key: 123,
            value: 456,
        };
        node.entries[5] = LeafEntry {
            front_version: 1,
            rear_version: 1,
            tag: key_tag(0),
            key: 0, // key 0 is a legal key, distinguishable by its tag
            value: 9,
        };
        let buf = l.encode_leaf(&node);
        assert_eq!(buf.len(), l.node_size());
        let decoded = l.decode_leaf(&buf);
        assert_eq!(decoded.header, node.header);
        assert_eq!(decoded.entries[0], node.entries[0]);
        assert_eq!(decoded.entries[5], node.entries[5]);
        assert!(!decoded.entries[1].present());
        assert_eq!(decoded.entries.len(), l.leaf_capacity());
    }

    #[test]
    fn leaf_entry_wire_format_is_entry_sized() {
        let l = layout();
        let entry = LeafEntry {
            front_version: 9,
            rear_version: 9,
            tag: key_tag(u64::MAX - 1),
            key: u64::MAX - 1,
            value: 77,
        };
        let bytes = l.encode_leaf_entry(&entry);
        // 19 bytes for 8-byte keys and values: the entry-granular write that
        // two-level versions enable (the paper reports 17 B with 4-bit
        // versions).
        assert_eq!(bytes.len(), 19);
        assert_eq!(l.decode_leaf_entry(&bytes), entry);
        // The second byte is the key's tag; a vacant slot's is 0.
        assert_eq!(bytes[1], key_tag(u64::MAX - 1));
        let mut cleared = entry;
        cleared.clear();
        assert_eq!(l.encode_leaf_entry(&cleared)[1], 0);
    }

    #[test]
    fn in_place_entry_encoding_is_the_wire_format() {
        // Wide keys and values: the padding between the fields stays zero.
        let l = NodeLayout::new(&TreeConfig {
            key_size: 16,
            value_size: 24,
            ..TreeConfig::default()
        });
        let mut node = LeafNode::empty(&l, sample_header(true));
        for (i, entry) in node.entries.iter_mut().enumerate().step_by(3) {
            entry.install(1_000 + i as u64, 7 * i as u64);
        }
        let image = l.encode_leaf(&node);
        assert_eq!(l.decode_leaf(&image), node);
        for (i, entry) in node.entries.iter().enumerate() {
            let off = l.leaf_entry_offset(i);
            let wire = l.encode_leaf_entry(entry);
            assert_eq!(image[off..off + l.leaf_entry_bytes()], wire[..], "slot {i}");
            let mut slot = vec![0u8; l.leaf_entry_bytes()];
            l.encode_leaf_entry_into(&mut slot, entry);
            assert_eq!(slot, wire);
        }
    }

    #[test]
    fn leaf_entry_version_pairs_roundtrip_all_values() {
        let l = layout();
        // Every version byte value — including wraparound values and pairs
        // caught mid-update (front != rear) — survives the wire format intact.
        for fv in [0u8, 1, 7, 127, 128, 254, 255] {
            for rv in [fv, fv.wrapping_sub(1), fv.wrapping_add(1)] {
                let entry = LeafEntry {
                    front_version: fv,
                    rear_version: rv,
                    tag: key_tag(0xDEAD_BEEF),
                    key: 0xDEAD_BEEF,
                    value: 42,
                };
                let decoded = l.decode_leaf_entry(&l.encode_leaf_entry(&entry));
                assert_eq!(decoded, entry);
                assert_eq!(decoded.versions_match(), fv == rv);
            }
        }
        // The version pair also round-trips through a whole-node image.
        let mut node = LeafNode::empty(&l, sample_header(true));
        node.entries[2] = LeafEntry {
            front_version: 200,
            rear_version: 199, // torn entry write, must be visible after decode
            tag: key_tag(5),
            key: 5,
            value: 6,
        };
        let decoded = l.decode_leaf(&l.encode_leaf(&node));
        assert_eq!(decoded.entries[2], node.entries[2]);
        assert!(!decoded.entries[2].versions_match());
    }

    #[test]
    fn internal_roundtrip() {
        let l = layout();
        let node = InternalNode {
            header: sample_header(false),
            start: 0,
            entries: vec![
                InternalEntry {
                    key: 200,
                    child: GlobalAddress::host(0, 1 << 20),
                },
                InternalEntry {
                    key: 300,
                    child: GlobalAddress::host(3, 2 << 20),
                },
            ],
        };
        let buf = l.encode_internal(&node);
        let decoded = l.decode_internal(&buf);
        assert_eq!(decoded.entries, node.entries);
        assert_eq!(decoded.header.count, 2);
        assert_eq!(decoded.header.leftmost, node.header.leftmost);
    }

    /// The index cache charges an image its header and its packed children,
    /// at most 16 B a separator: never more than this layout's used prefix
    /// of the internal node the image copies, and exactly that when every
    /// separator and child needs all 8 bytes (separators 2^40 apart, children
    /// on two servers).
    #[test]
    fn a_cached_image_is_charged_no_more_than_the_used_prefix_of_its_node() {
        for node_size in [256, 1024] {
            let l = NodeLayout::new(&TreeConfig {
                node_size,
                ..TreeConfig::default()
            });
            for separators in [0, 1, l.internal_capacity() / 2, l.internal_capacity()] {
                for (step, far) in [(4, 0), (1 << 40, 1)] {
                    let mut node = InternalNode::new(1, 0, u64::MAX, GlobalAddress::host(0, 64));
                    for i in 1..=separators as u64 {
                        let child = GlobalAddress::host((i % 2) as u16 * far, 64 * (i + 1));
                        node.insert_separator(i * step, child, &l);
                    }
                    let addr = GlobalAddress::host(1, 4_096);
                    let charge = crate::ops::cached_from_internal(addr, &node).charge();
                    let prefix = HEADER_BYTES + l.decoded_extent(&l.encode_internal(&node)).len();
                    assert_eq!(prefix, HEADER_BYTES + INTERNAL_ENTRY_BYTES * separators);
                    if far == 1 || separators == 0 {
                        assert_eq!(charge, prefix, "{node_size} B, {separators}");
                    } else {
                        assert_eq!(charge, HEADER_BYTES + 2 * separators);
                    }
                    assert!(
                        prefix <= l.rear_version_offset(),
                        "{node_size} B, {separators}"
                    );
                }
            }
        }
    }

    /// The bytes the write-back planned from `pre` to `image` sends.
    fn planned_bytes(l: &NodeLayout, pre: &[u8], image: &[u8]) -> usize {
        l.plan_write_back(pre, image).iter().map(Range::len).sum()
    }

    /// A run of front inserts and a run of back inserts, each into a window
    /// with no free slot on its side: the first insert of each recenters the
    /// window and rewrites the node, every later one writes the count word,
    /// its slot and — at the front — the start word: at most 32 bytes (the
    /// version words a commit bumps besides are not counted here).  The node
    /// is the image it encodes to throughout.
    #[test]
    fn a_run_of_inserts_at_either_edge_rewrites_the_node_once() {
        let l = layout();
        let capacity = l.internal_capacity();
        let child = |key: u64| GlobalAddress::host(0, 64 * (key + 1));
        let ten = || (0..10).map(|i| InternalEntry { key: 1_000 + 10 * i, child: child(i) });
        let header = NodeHeader::new(false, 1, 0, u64::MAX);
        let at_front = InternalNode { header: header.clone(), start: 0, entries: ten().collect() };
        let at_back = InternalNode { header, start: capacity - 10, entries: ten().collect() };
        let front_run: Vec<u64> = (0..20).map(|i| 999 - i).collect();
        let back_run: Vec<u64> = (0..20).map(|i| 2_000 + i).collect();
        for (edge, mut node, run) in [("front", at_front, front_run), ("back", at_back, back_run)] {
            let mut rewrites = 0;
            for key in run {
                let before = l.encode_internal(&node);
                assert!(node.insert_separator(key, child(key), &l));
                let after = l.encode_internal(&node);
                assert_eq!(l.decode_internal(&after), node, "{edge}: key {key}");
                if planned_bytes(&l, &before, &after) > 32 {
                    rewrites += 1;
                }
            }
            assert_eq!(rewrites, 1, "{edge}");
        }
    }

    /// A 25-pair right half, its pairs out of key order in its first slots,
    /// at a 1 KB leaf tombstone that left its top twelve slots live: it lands
    /// on those twelve and the thirteen just below them, in key order, and
    /// sends fewer bytes than in its own slots, beside which the twelve
    /// stale tags would have to be cleared.
    #[test]
    fn a_right_half_lands_on_its_tombstones_stale_slots() {
        let l = layout();
        let capacity = l.leaf_capacity();
        let stale: StaleSlots = (capacity - 12..capacity).collect();
        let mut right = LeafNode::empty(&l, sample_header(true));
        for (slot, key) in (0..25u64).rev().enumerate() {
            right.entries[slot].install(2 * key, key);
        }
        let new = l.encode_leaf(&right);
        let (image, pre) = l.place_recycled_leaf(new.clone(), &stale);
        let placed = l.decode_leaf(&image);
        let slots: Vec<usize> = (0..capacity).filter(|&s| placed.entries[s].present()).collect();
        assert_eq!(slots, (capacity - 25..capacity).collect::<Vec<_>>());
        let keys: Vec<u64> = slots.iter().map(|&s| placed.entries[s].key).collect();
        assert_eq!(keys, (0..25).map(|k| 2 * k).collect::<Vec<_>>());
        assert_eq!(placed.sorted_pairs(), right.sorted_pairs());
        let own = planned_bytes(&l, &l.recycled_leaf_pre_image(&new, &stale), &new);
        let landed = planned_bytes(&l, &pre, &image);
        assert!(landed < own, "{landed} B on the stale slots, {own} B in its own");
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Separators inserted and removed at random — the first one, one
        /// anywhere, or a key that may already be there — each on the node as
        /// decoded from the image before and encoded again, as a commit does,
        /// keep the window inside the node's slots and decode to a sorted
        /// model of the separators.
        #[test]
        fn a_sliding_window_decodes_as_its_model(
            node_size in prop::sample::select(vec![256usize, 1024]),
            edits in prop::collection::vec((0u8..4, 0u64..1_000), 1..300),
        ) {
            let l = NodeLayout::new(&TreeConfig { node_size, ..TreeConfig::default() });
            let child = |key: u64| GlobalAddress::host(0, 64 * (key + 1));
            let mut image = l.encode_internal(&InternalNode::new(1, 0, u64::MAX, child(0)));
            let mut model: BTreeMap<u64, GlobalAddress> = BTreeMap::new();
            for (kind, key) in edits {
                let mut node = l.decode_internal(&image);
                let held: Vec<u64> = model.keys().copied().collect();
                match (kind, held.is_empty()) {
                    (0 | 1, _) if !node.is_full(&l) => {
                        let inserted = model.insert(key, child(key)).is_none();
                        prop_assert_eq!(node.insert_separator(key, child(key), &l), inserted);
                    }
                    (2, false) => {
                        prop_assert!(node.remove_separator(held[0], child(held[0])));
                        model.remove(&held[0]);
                    }
                    (3, false) => {
                        let victim = held[key as usize % held.len()];
                        prop_assert!(node.remove_separator(victim, child(victim)));
                        model.remove(&victim);
                    }
                    _ => {}
                }
                image = l.encode_internal(&node);
                let decoded = l.decode_internal(&image);
                prop_assert!(decoded.start + decoded.entries.len() <= l.internal_capacity());
                let expect: Vec<InternalEntry> =
                    model.iter().map(|(&key, &child)| InternalEntry { key, child }).collect();
                prop_assert_eq!(decoded.entries, expect);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// A right half at a recycled address, its pairs in its first slots in
        /// any order, over memory that holds the tombstone — of a leaf: any
        /// header and tail, any non-zero tag and bytes in each stale slot, any
        /// bytes behind a zero tag in every other slot; of an internal node:
        /// a window of separators anywhere, its stale slots the leaf slots
        /// whose tag offset it fills ([`NodeLayout::tagged_slots`]), any bytes
        /// outside the window where a merge's write-back left them (here
        /// zero, as the encoder leaves them) — the write-back planned
        /// for the image [`NodeLayout::place_recycled_leaf`] chooses reads
        /// back as the right half's pairs, fences and sibling, and sends no
        /// more bytes than the right half in its own slots would.
        #[test]
        fn a_placed_right_half_reads_back_over_any_tombstone(
            node_size in prop::sample::select(vec![256usize, 1024]),
            density in 0u8..10,
            draws in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 50..51),
            pairs in 1usize..51,
            garbage in prop::collection::vec(any::<u8>(), 1024..1025),
        ) {
            // Half the cases over an internal node's tombstone.
            let (density, internal) = (density % 5, density >= 5);
            let l = NodeLayout::new(&TreeConfig { node_size, ..TreeConfig::default() });
            let capacity = l.leaf_capacity();
            let mut stale: StaleSlots = (0..capacity).filter(|&s| draws[s].0 < density).collect();
            let mut keys: Vec<u64> = draws.iter().map(|d| d.1).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.truncate(1 + (pairs - 1) % capacity);
            let (low, high) = (keys[0], keys[keys.len() - 1].saturating_add(1));
            // The first slots in any order: sorted by a second draw.
            let mut order: Vec<(u64, u64)> = keys.iter().zip(&draws).map(|(&k, d)| (d.2, k)).collect();
            order.sort_unstable();
            let mut header = NodeHeader::new(true, 0, low, high);
            header.sibling = Some(GlobalAddress::host(1, 64 * (draws[0].2 % 1_000 + 1)));
            header.set_versions(draws[1].2 as u8);
            let mut right = LeafNode::empty(&l, header);
            for (slot, &(_, key)) in order.iter().enumerate() {
                right.entries[slot].install(key, !key);
            }
            let new = l.encode_leaf(&right);

            let mut memory = garbage[..node_size].to_vec();
            for slot in 0..capacity {
                let tag = &mut memory[l.leaf_entry_offset(slot) + 1];
                *tag = if stale.contains(slot) { (*tag).max(1) } else { 0 };
            }
            if internal {
                let child = |word: u64| GlobalAddress::host(1, 64 * (word % 100_000 + 1));
                let mut node = InternalNode::new(1, 0, u64::MAX, child(draws[2].1));
                for d in &draws[..pairs % l.internal_capacity()] {
                    node.insert_separator(d.1, child(d.2), &l);
                }
                node.header.free = true;
                memory = l.encode_internal(&node);
                stale = l.tagged_slots(&memory);
            }
            let (image, pre) = l.place_recycled_leaf(new.clone(), &stale);
            for range in l.plan_write_back(&pre, &image) {
                memory[range.clone()].copy_from_slice(&image[range]);
            }
            let read = l.decode_leaf(&memory);
            prop_assert!(l.node_versions_match(&memory));
            prop_assert_eq!(&read.header, &right.header);
            prop_assert_eq!(read.sorted_pairs(), right.sorted_pairs());
            prop_assert!(read.entries.iter().all(|e| !e.present() || e.versions_match()));
            let own = planned_bytes(&l, &l.recycled_leaf_pre_image(&new, &stale), &new);
            prop_assert!(planned_bytes(&l, &pre, &image) <= own);
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let l = layout();
        let node = LeafNode::empty(&l, sample_header(true));
        let mut buf = l.encode_leaf(&node);
        assert!(l.node_versions_match(&buf));
        // A torn write: front version bumped, rear not yet visible.
        buf[0] = buf[0].wrapping_add(1);
        assert!(!l.node_versions_match(&buf));
    }
}
