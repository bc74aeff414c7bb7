//! Byte-level node layout (Figure 8 of the paper).
//!
//! Every node occupies exactly `node_size` bytes in a memory server's host
//! DRAM.  The layout is designed around the reproduction's two consistency
//! mechanisms:
//!
//! * a pair of **node-level versions** — `FNV` in the first header byte and
//!   `RNV` in the last eight-byte tail — that a lock-free reader compares to
//!   detect a torn read of the whole node,
//! * for Sherman's unsorted leaves, a pair of **entry-level versions**
//!   (`FEV`/`REV`) bracketing every leaf entry, so that an entry-granular
//!   write-back can be detected without touching the node-level pair,
//! * alternatively (original FG) a **checksum** over the node.
//!
//! The paper packs versions into 4 bits; this implementation uses full bytes
//! so that the layout stays byte-addressable (see `docs/ARCHITECTURE.md`), and
//! additionally stores a per-entry `present` flag byte so that deleted entries
//! are distinguishable from live entries holding key 0.
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
//! 40..44  checksum (FG's checksum mode only)
//! 48..    entry area
//! size-8  RNV (rear node version) in the first byte of the tail word
//! ```

use crate::config::TreeConfig;
use crate::node::{InternalEntry, InternalNode, LeafEntry, LeafNode, NodeHeader};
use sherman_sim::GlobalAddress;
use std::ops::Range;

/// Size of the fixed node header in bytes.
pub const HEADER_BYTES: usize = 48;
/// Size of the tail (rear node version word) in bytes.
pub const TAIL_BYTES: usize = 8;
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

/// What a point write needs to know of a leaf image ([`NodeLayout::probe_leaf`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LeafProbe {
    /// The first slot holding the key.
    pub(crate) slot: Option<usize>,
    /// The first vacant slot.
    pub(crate) vacant: Option<usize>,
    /// Live entries.
    pub(crate) live: usize,
}

/// Byte-level encoder/decoder for a particular tree geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    node_size: usize,
    key_size: usize,
    value_size: usize,
}

impl NodeLayout {
    /// Build the layout from a tree configuration.
    pub fn new(config: &TreeConfig) -> Self {
        NodeLayout {
            node_size: config.node_size,
            key_size: config.key_size,
            value_size: config.value_size,
        }
    }

    /// Node size in bytes.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Size of one leaf entry: front version, present flag, key, value, rear
    /// version.
    pub fn leaf_entry_bytes(&self) -> usize {
        self.key_size + self.value_size + 3
    }

    /// Number of entries a leaf can hold.
    pub fn leaf_capacity(&self) -> usize {
        (self.node_size - HEADER_BYTES - TAIL_BYTES) / self.leaf_entry_bytes()
    }

    /// Number of separator/child pairs an internal node can hold (excluding
    /// the leftmost child stored in the header).
    pub fn internal_capacity(&self) -> usize {
        (self.node_size - HEADER_BYTES - TAIL_BYTES) / INTERNAL_ENTRY_BYTES
    }

    /// Byte offset of leaf entry `idx` within the node.
    pub fn leaf_entry_offset(&self, idx: usize) -> usize {
        debug_assert!(idx < self.leaf_capacity());
        HEADER_BYTES + idx * self.leaf_entry_bytes()
    }

    /// Byte offset of internal entry `idx` within the node.
    pub fn internal_entry_offset(&self, idx: usize) -> usize {
        debug_assert!(idx < self.internal_capacity());
        HEADER_BYTES + idx * INTERNAL_ENTRY_BYTES
    }

    /// Offset of the rear node version byte.
    pub fn rear_version_offset(&self) -> usize {
        self.node_size - TAIL_BYTES
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
        buf[40..44].copy_from_slice(&header.checksum.to_le_bytes());
        buf[44..48].copy_from_slice(&[0u8; 4]);
        buf[self.rear_version_offset()] = header.rear_version;
    }

    /// Decode just the header (and rear version) of a node image.
    pub fn decode_header(&self, buf: &[u8]) -> NodeHeader {
        let read_u64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let sibling_raw = read_u64(24);
        let leftmost_raw = read_u64(32);
        NodeHeader {
            front_version: buf[0],
            rear_version: buf[self.rear_version_offset()],
            is_leaf: buf[1] & FLAG_LEAF != 0,
            free: buf[1] & FLAG_FREE != 0,
            level: buf[2],
            count: u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize,
            fence_low: read_u64(8),
            fence_high: read_u64(16),
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
            checksum: u32::from_le_bytes(buf[40..44].try_into().unwrap()),
        }
    }

    // ------------------------------------------------------------------
    // Leaf nodes
    // ------------------------------------------------------------------

    /// Encode one leaf entry into its wire representation (what an
    /// entry-granular write-back sends).
    pub fn encode_leaf_entry(&self, entry: &LeafEntry) -> Vec<u8> {
        let mut buf = vec![0u8; self.leaf_entry_bytes()];
        self.encode_leaf_entry_into(&mut buf, entry);
        buf
    }

    /// Encode one leaf entry in place: `buf` is the entry's
    /// [`NodeLayout::leaf_entry_bytes`] inside a node image (or on their
    /// own), zeroed — the padding of keys and values wider than eight bytes
    /// is not written.
    pub fn encode_leaf_entry_into(&self, buf: &mut [u8], entry: &LeafEntry) {
        debug_assert_eq!(buf.len(), self.leaf_entry_bytes());
        buf[0] = entry.front_version;
        buf[1] = entry.present as u8;
        buf[2..10].copy_from_slice(&entry.key.to_le_bytes());
        let value_off = 2 + self.key_size;
        buf[value_off..value_off + 8].copy_from_slice(&entry.value.to_le_bytes());
        buf[self.leaf_entry_bytes() - 1] = entry.rear_version;
    }

    /// Decode one leaf entry from its wire representation.
    pub fn decode_leaf_entry(&self, buf: &[u8]) -> LeafEntry {
        debug_assert_eq!(buf.len(), self.leaf_entry_bytes());
        let value_off = 2 + self.key_size;
        LeafEntry {
            front_version: buf[0],
            present: buf[1] != 0,
            key: u64::from_le_bytes(buf[2..10].try_into().unwrap()),
            value: u64::from_le_bytes(buf[value_off..value_off + 8].try_into().unwrap()),
            rear_version: buf[self.leaf_entry_bytes() - 1],
        }
    }

    /// Encode a whole leaf node.
    pub fn encode_leaf(&self, node: &LeafNode) -> Vec<u8> {
        assert!(node.entries.len() <= self.leaf_capacity());
        let mut buf = vec![0u8; self.node_size];
        self.encode_header(&mut buf, &node.header);
        let slots = buf[HEADER_BYTES..].chunks_exact_mut(self.leaf_entry_bytes());
        for (slot, entry) in slots.zip(&node.entries) {
            self.encode_leaf_entry_into(slot, entry);
        }
        buf
    }

    /// Decode a whole leaf node (all slots, including empty ones).
    pub fn decode_leaf(&self, buf: &[u8]) -> LeafNode {
        let header = self.decode_header(buf);
        let entries = (0..self.leaf_capacity())
            .map(|i| {
                let off = self.leaf_entry_offset(i);
                self.decode_leaf_entry(&buf[off..off + self.leaf_entry_bytes()])
            })
            .collect();
        LeafNode { header, entries }
    }

    /// One pass over the slots of the leaf image `buf` for a point write on
    /// `key`: what [`LeafNode::slot_of`], [`LeafNode::vacant_slot`] and
    /// [`LeafNode::live_count`] answer of the decoded leaf, without decoding
    /// it.
    pub(crate) fn probe_leaf(&self, buf: &[u8], key: u64) -> LeafProbe {
        let entry_bytes = self.leaf_entry_bytes();
        let area = &buf[HEADER_BYTES..HEADER_BYTES + self.leaf_capacity() * entry_bytes];
        let key = key.to_le_bytes();
        let mut probe = LeafProbe::default();
        // The present flag and the key, where `decode_leaf_entry` reads them.
        for (i, entry) in area.chunks_exact(entry_bytes).enumerate() {
            if entry[1] == 0 {
                probe.vacant.get_or_insert(i);
                continue;
            }
            probe.live += 1;
            if entry[2..10] == key && probe.slot.is_none() {
                probe.slot = Some(i);
            }
        }
        probe
    }

    // ------------------------------------------------------------------
    // Internal nodes
    // ------------------------------------------------------------------

    /// Encode a whole internal node.
    pub fn encode_internal(&self, node: &InternalNode) -> Vec<u8> {
        assert!(node.entries.len() <= self.internal_capacity());
        let mut buf = vec![0u8; self.node_size];
        let mut header = node.header.clone();
        header.count = node.entries.len();
        header.is_leaf = false;
        self.encode_header(&mut buf, &header);
        for (i, entry) in node.entries.iter().enumerate() {
            let off = self.internal_entry_offset(i);
            buf[off..off + 8].copy_from_slice(&entry.key.to_le_bytes());
            buf[off + 8..off + 16].copy_from_slice(&entry.child.pack().to_le_bytes());
        }
        buf
    }

    /// Decode a whole internal node.
    pub fn decode_internal(&self, buf: &[u8]) -> InternalNode {
        let header = self.decode_header(buf);
        let count = header.count.min(self.internal_capacity());
        let entries = (0..count)
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
        InternalNode { header, entries }
    }

    // ------------------------------------------------------------------
    // Write-back planning
    // ------------------------------------------------------------------

    /// Where the bytes a decoder reads of `image` end, the tail word aside:
    /// every slot of a leaf, the `count` entries of an internal node.  What
    /// lies between there and the tail word is never read.
    pub fn decoded_extent(&self, image: &[u8]) -> usize {
        if image[1] & FLAG_LEAF != 0 {
            return self.rear_version_offset();
        }
        let count = self.decode_header(image).count.min(self.internal_capacity());
        HEADER_BYTES + count * INTERNAL_ENTRY_BYTES
    }

    /// Plan the write-back that turns the node image `pre` — as read under
    /// the node's lock — into `new`: the byte ranges of `new` to write, in
    /// ascending order and disjoint, after which the node decodes as `new`
    /// does.  Post them in [`NodeLayout::post_order`].
    ///
    /// The images are compared in 8-byte words over what a decoder reads of
    /// `new` ([`NodeLayout::decoded_extent`]) and the tail word; whatever an
    /// internal node holds past its `count` is neither compared nor zeroed.
    /// The word with the front version and the tail word are ranges of their
    /// own; between them, changed words fewer than [`COALESCE_GAP_BYTES`]
    /// apart share a range.  When the ranges, each beyond the first priced at
    /// that many bytes, cost what the whole node does, the plan is the whole
    /// node.
    pub fn plan_write_back(&self, pre: &[u8], new: &[u8]) -> Vec<Range<usize>> {
        assert_eq!((pre.len(), new.len()), (self.node_size, self.node_size));
        let tail = self.rear_version_offset();
        let body_end = self.decoded_extent(new).min(tail);
        let body_words = (0..body_end).step_by(8).map(|at| at..(at + 8).min(body_end));
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

    /// FNV-1a checksum over the node image, excluding the checksum field
    /// itself (FG's consistency mechanism).
    pub fn compute_checksum(&self, buf: &[u8]) -> u32 {
        const OFFSET: u32 = 0x811c_9dc5;
        const PRIME: u32 = 0x0100_0193;
        let mut hash = OFFSET;
        for (i, &byte) in buf.iter().enumerate().take(self.node_size) {
            if (40..44).contains(&i) {
                continue;
            }
            hash ^= byte as u32;
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    /// Whether the stored checksum matches the node contents.
    pub fn checksum_matches(&self, buf: &[u8]) -> bool {
        let stored = u32::from_le_bytes(buf[40..44].try_into().unwrap());
        stored == self.compute_checksum(buf)
    }

    /// Stamp the checksum field of an encoded node.
    pub fn stamp_checksum(&self, buf: &mut [u8]) {
        let sum = self.compute_checksum(buf);
        buf[40..44].copy_from_slice(&sum.to_le_bytes());
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
            checksum: 0,
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
            present: true,
            key: 123,
            value: 456,
        };
        node.entries[5] = LeafEntry {
            front_version: 1,
            rear_version: 1,
            present: true,
            key: 0, // key 0 is a legal key, distinguishable via `present`
            value: 9,
        };
        let buf = l.encode_leaf(&node);
        assert_eq!(buf.len(), l.node_size());
        let decoded = l.decode_leaf(&buf);
        assert_eq!(decoded.header, node.header);
        assert_eq!(decoded.entries[0], node.entries[0]);
        assert_eq!(decoded.entries[5], node.entries[5]);
        assert!(!decoded.entries[1].present);
        assert_eq!(decoded.entries.len(), l.leaf_capacity());
    }

    #[test]
    fn leaf_entry_wire_format_is_entry_sized() {
        let l = layout();
        let entry = LeafEntry {
            front_version: 9,
            rear_version: 9,
            present: true,
            key: u64::MAX - 1,
            value: 77,
        };
        let bytes = l.encode_leaf_entry(&entry);
        // 19 bytes for 8-byte keys and values: the entry-granular write that
        // two-level versions enable (the paper reports 17 B with 4-bit
        // versions).
        assert_eq!(bytes.len(), 19);
        assert_eq!(l.decode_leaf_entry(&bytes), entry);
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
                    present: true,
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
            present: true,
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

    #[test]
    fn checksum_detects_corruption() {
        let l = layout();
        let node = LeafNode::empty(&l, sample_header(true));
        let mut buf = l.encode_leaf(&node);
        l.stamp_checksum(&mut buf);
        assert!(l.checksum_matches(&buf));
        buf[HEADER_BYTES + 4] ^= 0xFF;
        assert!(!l.checksum_matches(&buf));
    }
}
