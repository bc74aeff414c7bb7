//! The index cache proper: one level-aware cache of internal-node images.

use crate::stats::CacheStats;
use parking_lot::RwLock;
use sherman_sim::GlobalAddress;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// One child pointer inside a cached internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildRef {
    /// Smallest key routed to this child (separator key).
    pub separator: u64,
    /// The child node's address.
    pub child: GlobalAddress,
}

/// A compute-server-side copy of an internal tree node.
///
/// The separators and their children are kept packed in one buffer, two
/// columns of fixed-width little-endian integers: each separator as its
/// offset from the lower fence the image was built with, then each child as
/// its signed distance from `leftmost` in units of the largest power of two
/// that divides every distance (the node size or more: nodes are allocated
/// node-aligned).  Each column is as wide as its widest value needs, 1, 2, 4
/// or 8 bytes.  An image whose children lie on more than one memory server
/// (or memory space) keeps them as whole packed addresses, 8 bytes each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedInternal {
    /// Remote address of the internal node this copy was made from.
    pub addr: GlobalAddress,
    /// Lower fence key (inclusive).
    pub fence_low: u64,
    /// Upper fence key (exclusive; `u64::MAX` means +∞).
    pub fence_high: u64,
    /// Level of the node (leaves are level 0, so a level-1 image routes
    /// straight to a leaf address).
    pub level: u8,
    /// Node-level version (`front_version`) of the remote image this copy was
    /// made from.  Cache admission compares it against the tombstone version
    /// carried by coherence invalidations: a copy read *before* a retire must
    /// not be re-inserted *after* the invalidation was applied.
    pub version: u8,
    /// Child routed to for keys below the first separator, and the origin of
    /// the children's distances.
    leftmost: GlobalAddress,
    /// The key the separators are offsets from: the lower fence the image
    /// was built with (`fence_low` is public and may be moved after).
    key_base: u64,
    /// Bytes of one separator offset.
    key_width: u8,
    /// Bytes of one child.
    child_width: u8,
    /// Each child's distance from `leftmost` is stored shifted right by this
    /// many bits; `None` when the children span servers and each is stored
    /// as a whole packed address.
    child_shift: Option<u8>,
    /// The separator column, then the child column.
    packed: Box<[u8]>,
}

/// The narrowest of 1, 2, 4 and 8 bytes that holds `value`.
fn width_of(value: u64) -> u8 {
    match value {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// The narrowest of 1, 2, 4 and 8 bytes that holds `value` as a two's
/// complement integer.
fn signed_width_of(value: i64) -> u8 {
    let magnitude = if value < 0 { !value } else { value } as u64;
    width_of(magnitude << 1)
}

/// Fill `column` with the low `width` bytes of each of `values`,
/// little-endian.
fn fill(column: &mut [u8], width: usize, values: impl Iterator<Item = u64>) {
    fn of<const W: usize>(column: &mut [u8], values: impl Iterator<Item = u64>) {
        for (at, value) in column.chunks_exact_mut(W).zip(values) {
            at.copy_from_slice(&value.to_le_bytes()[..W]);
        }
    }
    match width {
        1 => of::<1>(column, values),
        2 => of::<2>(column, values),
        4 => of::<4>(column, values),
        _ => of::<8>(column, values),
    }
}

/// The `index`-th `width`-byte little-endian integer of `column`.
fn read(column: &[u8], width: usize, index: usize) -> u64 {
    fn word<const N: usize>(bytes: &[u8]) -> [u8; N] {
        bytes[..N].try_into().expect("N bytes")
    }
    let bytes = &column[index * width..];
    match width {
        1 => bytes[0].into(),
        2 => u16::from_le_bytes(word(bytes)).into(),
        4 => u32::from_le_bytes(word(bytes)).into(),
        _ => u64::from_le_bytes(word(bytes)),
    }
}

impl CachedInternal {
    /// The image of the level-`level` node at `addr`, stamped `version`,
    /// over `[fence_low, fence_high)`, routing keys below the first
    /// separator to `leftmost` and the others by `children`, in separator
    /// order.
    pub fn new<I>(
        addr: GlobalAddress,
        level: u8,
        version: u8,
        fence_low: u64,
        fence_high: u64,
        leftmost: GlobalAddress,
        children: I,
    ) -> Self
    where
        I: IntoIterator<Item = ChildRef>,
        I::IntoIter: Clone,
    {
        let children = children.into_iter();
        let distance = |c: &ChildRef| c.child.offset.wrapping_sub(leftmost.offset) as i64;
        let (mut len, mut key_width, mut spans) = (0, 1, false);
        let (mut bits, mut nearest, mut farthest) = (0u64, 0i64, 0i64);
        for c in children.clone() {
            len += 1;
            key_width = key_width.max(width_of(c.separator.wrapping_sub(fence_low)));
            spans |= c.child.ms != leftmost.ms || c.child.space != leftmost.space;
            let d = distance(&c);
            (bits, nearest, farthest) = (bits | d as u64, nearest.min(d), farthest.max(d));
        }
        // Every distance is a multiple of `1 << shift` (0 when all are 0).
        let child_shift = (!spans).then(|| bits.trailing_zeros() as u8 % 64);
        let child_width = match child_shift {
            Some(shift) => {
                signed_width_of(nearest >> shift).max(signed_width_of(farthest >> shift))
            }
            None => 8,
        };
        let child_value = |c: &ChildRef| match child_shift {
            Some(shift) => (distance(c) >> shift) as u64,
            None => c.child.pack(),
        };
        let (kw, cw) = (key_width as usize, child_width as usize);
        let mut packed = vec![0u8; len * (kw + cw)].into_boxed_slice();
        let (keys, childs) = packed.split_at_mut(len * kw);
        let offset = |c: ChildRef| c.separator.wrapping_sub(fence_low);
        fill(keys, kw, children.clone().map(offset));
        fill(childs, cw, children.map(|c| child_value(&c)));
        CachedInternal {
            addr,
            fence_low,
            fence_high,
            level,
            version,
            leftmost,
            key_base: fence_low,
            key_width,
            child_width,
            child_shift,
            packed,
        }
    }

    /// Whether `version` is strictly newer than `floor` under the node
    /// header's wrapping `u8` version arithmetic (serial-number comparison:
    /// newer means `version - floor` lands in `1..=127` mod 256).
    pub fn version_newer(version: u8, floor: u8) -> bool {
        let d = version.wrapping_sub(floor);
        (1..=127).contains(&d)
    }

    /// Whether `key` falls inside this node's fence interval.
    pub fn covers(&self, key: u64) -> bool {
        key >= self.fence_low && (self.fence_high == u64::MAX || key < self.fence_high)
    }

    /// Child routed to for keys below the first separator.
    pub fn leftmost(&self) -> GlobalAddress {
        self.leftmost
    }

    /// Number of separators (children besides the leftmost one).
    pub fn len(&self) -> usize {
        self.packed.len() / (self.key_width + self.child_width) as usize
    }

    /// Whether the image keeps no separator: every key goes to the leftmost
    /// child.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    fn separator(&self, index: usize) -> u64 {
        let offset = read(&self.packed, self.key_width as usize, index);
        self.key_base.wrapping_add(offset)
    }

    fn child(&self, index: usize) -> GlobalAddress {
        let width = self.child_width as usize;
        let column = &self.packed[self.len() * self.key_width as usize..];
        let raw = read(column, width, index);
        let Some(shift) = self.child_shift else {
            return GlobalAddress::unpack(raw);
        };
        let unused = 64 - 8 * width as u32;
        let distance = ((raw << unused) as i64 >> unused) << shift;
        GlobalAddress {
            offset: self.leftmost.offset.wrapping_add(distance as u64),
            ..self.leftmost
        }
    }

    /// The separators with their children, in key order.
    pub fn children(&self) -> impl ExactSizeIterator<Item = ChildRef> + Clone + '_ {
        (0..self.len()).map(|i| ChildRef {
            separator: self.separator(i),
            child: self.child(i),
        })
    }

    /// The child of the `rank`-th separator, the leftmost one for rank 0.
    fn child_of_rank(&self, rank: usize) -> GlobalAddress {
        rank.checked_sub(1).map_or(self.leftmost, |i| self.child(i))
    }

    /// Number of separators at or below `key`.
    fn rank(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.separator(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The child a traversal for `key` descends into.
    pub fn child_for(&self, key: u64) -> GlobalAddress {
        debug_assert!(self.covers(key));
        self.child_of_rank(self.rank(key))
    }

    /// Children whose key ranges may intersect `[start, end]` (inclusive),
    /// in key order.  Used by range queries to read several leaves in one
    /// parallel batch.
    pub fn children_in_range(&self, start: u64, end: u64) -> Vec<GlobalAddress> {
        let first = self.rank(start);
        let head = self.child_of_rank(first);
        let rest = (first..self.len())
            .take_while(|&i| self.separator(i) <= end)
            .map(|i| self.child(i));
        std::iter::once(head).chain(rest).collect()
    }

    /// The bytes this copy keeps, what the budget charges it: a node header
    /// and the packed children.  Never more than the used prefix of the node
    /// it copies.
    pub fn charge(&self) -> usize {
        IMAGE_HEADER_BYTES + self.packed.len()
    }

    /// Whether this image is a copy of `addr` or routes to it as a child.
    fn refers_to(&self, addr: GlobalAddress) -> bool {
        self.addr == addr || self.leftmost == addr || self.children().any(|c| c.child == addr)
    }
}

/// Bytes of an internal node's header, charged to every cached image.
const IMAGE_HEADER_BYTES: usize = 48;

/// Capacity configuration of the index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCacheConfig {
    /// Total budget for the images below the pinned top-two window, in
    /// bytes: each image is charged what [`CachedInternal::charge`] says it
    /// keeps, not a whole node.
    pub capacity_bytes: usize,
    /// Size of a whole node image (the tree's node size).  Not what an image
    /// is charged: the budget counts as full, and counts start to move, once
    /// it has no room left for an image this large.
    pub entry_bytes: usize,
}

impl IndexCacheConfig {
    /// A cache of `capacity_bytes` of node images, sized for whole nodes of
    /// `entry_bytes`.
    pub fn new(capacity_bytes: usize, entry_bytes: usize) -> Self {
        assert!(entry_bytes > 0);
        IndexCacheConfig {
            capacity_bytes,
            entry_bytes,
        }
    }
}

/// The key range `[lo, hi)` of a node as map bounds (`u64::MAX` is +∞).
fn span(lo: u64, hi: u64) -> (Bound<u64>, Bound<u64>) {
    let upper = if hi == u64::MAX {
        Bound::Unbounded
    } else {
        Bound::Excluded(hi)
    };
    (Bound::Included(lo), upper)
}

#[derive(Debug)]
struct Slot {
    node: Arc<CachedInternal>,
    /// Lookups routed through this image while counts move: it starts at
    /// the image's sketch estimate and halves with every aging.  A count, not
    /// a ledger: two lookups racing on one image under the read lock may
    /// count once.
    uses: AtomicU32,
}

/// Identity of an offered image: its level and lower fence key.
type FenceKey = (u8, u64);

/// One-byte counters of the frequency sketch per image the budget held when
/// it filled: 8 B per image, an eighth of the 64 B a packed level-1 image of
/// 256 B nodes keeps.  Per image, not per whole node: a sketch a quarter as
/// wide as the images it tells apart overestimates them, and level-1 images
/// of equal traffic evict each other (on `tests/cache_paths.rs`'s deep tree,
/// 248 evictions per 1 000 lookups instead of 3.7).
const SKETCH_COUNTERS_PER_ENTRY: usize = 8;

/// Hashes of the sketch, one row of counters each.
const SKETCH_ROWS: usize = 4;

/// Recordings between two halvings of every count, per image the sketch was
/// sized for.  The period must be long enough for a level-2 image's tenfold
/// traffic over each of its level-1 children to show before the counts
/// halve.  Where the budget's edge lies in level 2, the round trips fall
/// until `32 ×` and are flat beyond: on the benchmark's `lookup_cold_deep`
/// with images charged their node's used prefix, on compute server 0 after
/// 2 M operations, `2 ×` left 360 level-1 images cached over 969 level-2
/// ones at 2.266 round trips per operation, `10 ×` 101 over 1 228 at 2.052,
/// `32 ×` 84 over 1 245 at 2.047, `1 000 ×` the same.  With images packed,
/// warm-up fills that 256 KB with levels 4 to 2 whole (16 + 144 + 1 295
/// images) and 2 433 level-1 images, 3 885 images size the sketch, and the
/// same run ends with all of level 2 and 2 433 – 2 440 level-1 images at
/// 1.8406 – 1.8411 round trips whatever the period from `2 ×` to `1 000 ×`;
/// only the level-1 churn falls as the period grows (344 k evictions at
/// `2 ×`, 134 k at `10 ×`, 65 k at `32 ×`, 24 k at `1 000 ×`).  The knee
/// did not move, this budget no longer reaches it, so the period stays at
/// `32 ×`: the counts must still fade for a hot set that moved to get in.
const AGING_PERIOD_PER_ENTRY: usize = 32;

/// One step of splitmix64: advance `state`, return a well-mixed word.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Candidate counts: a count-min sketch of the offers of images that are not
/// resident, with conservative update (only the counters at the key's
/// minimum move) and one-byte saturating counters.
#[derive(Debug)]
struct Sketch {
    /// `SKETCH_ROWS` rows of `width` counters, row after row.
    counters: Vec<u8>,
    width: usize,
    /// The images the budget held when the sketch was sized.
    entries: usize,
    /// The budget, in bytes, the sketch was sized under.
    capacity: usize,
}

impl Sketch {
    fn new(entries: usize, capacity: usize) -> Self {
        let counters = vec![0; entries * SKETCH_COUNTERS_PER_ENTRY];
        let width = counters.len() / SKETCH_ROWS;
        Sketch {
            counters,
            width,
            entries,
            capacity,
        }
    }

    /// The counter of `key` in each row.
    fn cells(&self, (level, fence_low): FenceKey) -> [usize; SKETCH_ROWS] {
        let hash = splitmix(&mut (fence_low ^ u64::from(level) << 56));
        std::array::from_fn(|row| {
            let h = hash.rotate_left(16 * row as u32);
            row * self.width + ((u128::from(h) * self.width as u128) >> 64) as usize
        })
    }

    fn min_at(&self, cells: &[usize; SKETCH_ROWS]) -> u8 {
        cells.iter().map(|&c| self.counters[c]).min().unwrap_or(0)
    }

    fn estimate(&self, key: FenceKey) -> u8 {
        self.min_at(&self.cells(key))
    }

    /// Count one more offer of `key`; returns its new estimate.
    fn record(&mut self, key: FenceKey) -> u8 {
        let cells = self.cells(key);
        let min = self.min_at(&cells);
        if min == u8::MAX {
            return min;
        }
        for c in cells {
            if self.counters[c] == min {
                self.counters[c] = min + 1;
            }
        }
        min + 1
    }
}

/// Everything behind the cache's one lock.
#[derive(Debug, Default)]
struct Inner {
    /// Every cached image, dense: removal swaps the last slot into the hole,
    /// so a uniformly random index is a uniformly random entry.
    slots: Vec<Slot>,
    /// `levels[l]` maps the lower fence key of each level-`l` image to its
    /// slot (index 0, the leaves, stays empty).
    levels: Vec<BTreeMap<u64, usize>>,
    /// The tree's root level as last reported by a caller (0 until one did).
    /// Levels `root_level - 1 ..= root_level` are the pinned window.
    root_level: u8,
    /// Bytes charged to the budget: the charges of the images below the
    /// pinned window.
    budgeted: usize,
    /// Images in the pinned window, outside the budget.
    top: usize,
    /// Addresses invalidated by a coherence message, with the tombstone's
    /// node-level version.  Admission rejects copies not strictly newer than
    /// the tombstone, closing the race where a traversal that read the node
    /// *before* the retire re-inserts it *after* the scrub.  A legitimately
    /// recycled address arrives with a newer version and clears its entry.
    tombstones: HashMap<GlobalAddress, u8>,
    /// Counts of the offers of images not resident.  Allocated the first
    /// time the budget is full; until then no count moves.
    sketch: Option<Sketch>,
    /// Offers recorded since every count last halved.
    recorded: usize,
    /// Splitmix state of the victim draws.  Seeded with zero, so a cache
    /// (and a cleared one) draws the same victims whatever thread drives it.
    rng: u64,
}

impl Inner {
    /// Whether `level` lies in the paper's always-cached top-two window.
    fn pinned(&self, level: u8) -> bool {
        self.root_level >= 1 && level + 1 >= self.root_level
    }

    /// Whether an image at `level` may only be cached under a cached parent.
    fn needs_parent(&self, level: u8) -> bool {
        self.root_level >= 1 && !self.pinned(level)
    }

    fn map(&self, level: u8) -> Option<&BTreeMap<u64, usize>> {
        self.levels.get(level as usize)
    }

    /// Slot of the level-`level` image whose fence interval contains `key`.
    fn covering(&self, level: u8, key: u64) -> Option<usize> {
        let (_, &slot) = self.map(level)?.range(..=key).next_back()?;
        self.slots[slot].node.covers(key).then_some(slot)
    }

    fn has_parent(&self, level: u8, fence_low: u64) -> bool {
        self.covering(level + 1, fence_low).is_some()
    }

    /// Whether any image one level down starts inside `[lo, hi)`.
    fn has_child(&self, level: u8, lo: u64, hi: u64) -> bool {
        level >= 2
            && self
                .map(level - 1)
                .is_some_and(|m| m.range(span(lo, hi)).next().is_some())
    }

    fn evictable(&self, slot: usize) -> bool {
        let node = &self.slots[slot].node;
        !self.pinned(node.level) && !self.has_child(node.level, node.fence_low, node.fence_high)
    }

    fn insert(&mut self, node: Arc<CachedInternal>, uses: u32) {
        let level = node.level as usize;
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, BTreeMap::new);
        }
        self.levels[level].insert(node.fence_low, self.slots.len());
        if self.pinned(node.level) {
            self.top += 1;
        } else {
            self.budgeted += node.charge();
        }
        self.slots.push(Slot {
            node,
            uses: AtomicU32::new(uses),
        });
    }

    fn remove(&mut self, level: u8, fence_low: u64) -> Option<Arc<CachedInternal>> {
        let slot = self.levels.get_mut(level as usize)?.remove(&fence_low)?;
        let removed = self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot) {
            self.levels[moved.node.level as usize].insert(moved.node.fence_low, slot);
        }
        if self.pinned(level) {
            self.top -= 1;
        } else {
            self.budgeted -= removed.node.charge();
        }
        Some(removed.node)
    }

    /// Remove the image at `(level, fence_low)` and every cached descendant
    /// it leaves without a cached parent.  Returns the number removed.
    fn remove_with_orphans(&mut self, level: u8, fence_low: u64) -> u64 {
        match self.remove(level, fence_low) {
            Some(node) => 1 + self.drop_orphans(level, node.fence_low, node.fence_high),
            None => 0,
        }
    }

    /// Restore closure after the level-`parent_level` cover of `[lo, hi)`
    /// went away: drop every image one level down that starts in the range
    /// and no longer has a cached parent, recursively.
    fn drop_orphans(&mut self, parent_level: u8, lo: u64, hi: u64) -> u64 {
        if parent_level < 2 || !self.needs_parent(parent_level - 1) {
            return 0;
        }
        let level = parent_level - 1;
        let orphans: Vec<u64> = self.map(level).map_or_else(Vec::new, |m| {
            m.range(span(lo, hi))
                .map(|(&k, _)| k)
                .filter(|&k| !self.has_parent(level, k))
                .collect()
        });
        orphans
            .into_iter()
            .map(|k| self.remove_with_orphans(level, k))
            .sum()
    }

    /// Adopt a newly reported root level: the budget is re-counted for the
    /// shifted window, images above the root can only mis-route and are
    /// pruned, and images the shift left without a parent are dropped.
    fn set_root_level(&mut self, root_level: u8) {
        if root_level == self.root_level {
            return;
        }
        self.root_level = root_level;
        (self.top, self.budgeted) = (0, 0);
        for slot in &self.slots {
            if self.pinned(slot.node.level) {
                self.top += 1;
            } else {
                self.budgeted += slot.node.charge();
            }
        }
        if root_level >= 1 {
            for level in (root_level as usize + 1)..self.levels.len() {
                for fence_low in self.levels[level].keys().copied().collect::<Vec<_>>() {
                    self.remove(level as u8, fence_low);
                }
            }
        }
        self.sweep_orphans();
    }

    /// Drop, top-down, every image that must have a cached parent and has
    /// none (after the pinned window moved or was replaced).
    fn sweep_orphans(&mut self) {
        for level in (2..self.levels.len() as u8).rev() {
            self.drop_orphans(level, 0, u64::MAX);
        }
    }

    fn uses(&self, slot: usize) -> u32 {
        self.slots[slot].uses.load(Ordering::Relaxed)
    }

    /// Count a lookup routed through `slot` (a load and a store, not a
    /// read-modify-write: the read lock is shared).
    fn bump(&self, slot: usize) {
        let uses = &self.slots[slot].uses;
        let n = uses.load(Ordering::Relaxed).saturating_add(1);
        uses.store(n, Ordering::Relaxed);
    }

    /// The sketch for a budget of `capacity` bytes, allocated the first time
    /// the budget is full (from then on counts move) and again when the
    /// budget changed, sized for the images the budget then holds.  The
    /// sketch's counters and the residents' counts are one scale, so a new
    /// sketch restarts them all: kept across a 4× shrink, the survivors'
    /// counts locked a shifting hot spot out of the smaller budget.
    fn sketch_for(&mut self, capacity: usize) -> &mut Sketch {
        if self.sketch.as_ref().is_none_or(|s| s.capacity != capacity) {
            for slot in &mut self.slots {
                *slot.uses.get_mut() = 0;
            }
            self.recorded = 0;
            let images = self.slots.len() - self.top;
            self.sketch = Some(Sketch::new(images.max(1), capacity));
        }
        self.sketch.as_mut().expect("allocated above")
    }

    /// What the sketch knows of `key` (0 before counts move).
    fn estimate(&self, key: FenceKey) -> u32 {
        self.sketch.as_ref().map_or(0, |s| s.estimate(key).into())
    }

    /// Record an offer of the image `key`, not resident, at a full budget of
    /// `capacity` bytes; returns its estimate.  Every `AGING_PERIOD_PER_ENTRY`
    /// recordings per image the sketch was sized for, every resident count
    /// and every sketch counter halves first, so what the traffic did long
    /// ago fades.
    fn record_offer(&mut self, key: FenceKey, capacity: usize) -> u32 {
        let period = AGING_PERIOD_PER_ENTRY * self.sketch_for(capacity).entries;
        self.recorded += 1;
        if self.recorded >= period {
            self.recorded = 0;
            for slot in &mut self.slots {
                *slot.uses.get_mut() /= 2;
            }
            let sketch = self.sketch_for(capacity);
            sketch.counters.iter_mut().for_each(|c| *c /= 2);
        }
        self.sketch_for(capacity).record(key).into()
    }

    /// One power-of-two-choices candidate: a uniformly random slot,
    /// re-drawn while the pick is pinned, still has cached children or is
    /// `taken` already.
    fn sample_evictable(&mut self, taken: &[usize]) -> Option<usize> {
        let free = |inner: &Self, slot| inner.evictable(slot) && !taken.contains(&slot);
        // Childless budgeted entries are the large majority of any cache
        // (every parent has several children), so a handful of draws almost
        // always suffices; the scan only backs up a pathological shape.
        for _ in 0..64 {
            let slot = (splitmix(&mut self.rng) % self.slots.len() as u64) as usize;
            if free(self, slot) {
                return Some(slot);
            }
        }
        (0..self.slots.len()).find(|&slot| free(self, slot))
    }

    /// Power of two choices (§4.2.3): the less used of two random evictable
    /// entries not `taken` already.
    fn pick_victim(&mut self, taken: &[usize]) -> Option<usize> {
        let a = self.sample_evictable(taken)?;
        let b = self.sample_evictable(taken)?;
        Some(if self.uses(b) < self.uses(a) { b } else { a })
    }

    /// The victims an admission of the level-`level` image at `lo`, offered
    /// `uses` times, must evict to free `need` bytes: two-choice picks until
    /// their charges cover `need`.  `None` — evict nothing — when a victim
    /// routed as many lookups as the image was offered, is the image's own
    /// parent (childless until this admission), or no evictable image is
    /// left.
    fn victims(&mut self, need: usize, uses: u32, (level, lo): FenceKey) -> Option<Vec<FenceKey>> {
        let (mut taken, mut freed) = (Vec::new(), 0);
        while freed < need {
            let victim = self.pick_victim(&taken)?;
            let node = &self.slots[victim].node;
            if self.uses(victim) >= uses || (node.level == level + 1 && node.covers(lo)) {
                return None;
            }
            freed += node.charge();
            taken.push(victim);
        }
        Some(taken.iter().map(|&slot| self.key(slot)).collect())
    }

    fn key(&self, slot: usize) -> FenceKey {
        let node = &self.slots[slot].node;
        (node.level, node.fence_low)
    }

    fn evict(&mut self, slot: usize) {
        let (level, fence_low) = self.key(slot);
        self.remove(level, fence_low);
    }
}

/// The per-compute-server index cache.
///
/// One structure holds internal-node images of every level.  The tree's top
/// two levels are pinned (the paper's type-❷ set, outside the budget); every
/// level below shares one byte budget, spent top-down along the paths the
/// traffic uses:
///
/// * **charge** — an image costs the bytes it keeps, a node header and its
///   children packed to the widths they need ([`CachedInternal::charge`]:
///   64 – 72 B for most bulkloaded images of 256 B nodes, whose used prefix
///   is 176 B), not a whole node;
/// * **closure** — an image is admitted only under a cached (or pinned)
///   parent, and only an image with no cached child is evicted, so the cached
///   set is always a top-down prefix of root-to-leaf paths and a miss pays
///   only the uncached suffix;
/// * **admission by frequency** — while the budget has room every offer is
///   admitted; once full, an image is admitted only over victims that each
///   routed strictly fewer lookups — as many as its charge needs, all or
///   none evicted — so one-touch traffic cannot flush the
///   budget and a level-1 image cannot push out a level-2 image, which
///   routes the traffic of all its children (TinyLFU admission: Einziger,
///   Friedman and Manes, ACM TOS 2017).  A cached image counts the lookups
///   it answered or lay above; an image not cached counts its offers in a
///   count-min sketch of 4 hashes and 8 one-byte counters per image the
///   budget held when it filled.  Every 32 recorded offers per such image
///   every count halves, and a changed budget restarts them;
/// * **eviction** — power of two choices: the less used of two random
///   evictable entries, drawn from a splitmix state of the cache's own, so a
///   run repeats exactly whatever thread drives it.
///
/// Nothing is counted until the budget is first full.  Whenever level 1 fits
/// the budget this is exactly the paper's cache: all of level 1 (type ❶) plus
/// the top two levels (type ❷), with no sketch allocated.
#[derive(Debug)]
pub struct IndexCache {
    /// Per-entry cost used for capacity accounting (fixed at construction).
    entry_bytes: usize,
    /// The **live** capacity budget in bytes.  Atomic so that an external
    /// memory-pressure controller can re-budget the cache mid-run
    /// ([`IndexCache::set_capacity_bytes`]) while lookups proceed.
    capacity_bytes: AtomicUsize,
    inner: RwLock<Inner>,
    stats: CacheStats,
}

impl IndexCache {
    /// Create an empty cache.
    pub fn new(config: IndexCacheConfig) -> Self {
        IndexCache {
            entry_bytes: config.entry_bytes,
            capacity_bytes: AtomicUsize::new(config.capacity_bytes),
            inner: RwLock::new(Inner::default()),
            stats: CacheStats::default(),
        }
    }

    /// The cache's current configuration: the fixed per-entry cost plus the
    /// **live** capacity budget (which [`IndexCache::set_capacity_bytes`] may
    /// have changed since construction).
    pub fn config(&self) -> IndexCacheConfig {
        IndexCacheConfig {
            capacity_bytes: self.capacity_bytes(),
            entry_bytes: self.entry_bytes,
        }
    }

    /// The live capacity budget in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    /// Re-budget the cache at runtime ("Breaking Down Memory Walls" style
    /// adaptive memory management): install the new byte budget, then — if
    /// it shrank below the current working set — evict down to it, leaves of
    /// the cached paths first, with the same power-of-two-choices rule the
    /// admission path uses, recording each forced removal as a **pressure
    /// eviction** ([`CacheStats::pressure_evictions`]) on top of the ordinary
    /// eviction tally.  Growing the budget is instantaneous (entries refill
    /// lazily).
    pub fn set_capacity_bytes(&self, capacity_bytes: usize) {
        self.capacity_bytes.store(capacity_bytes, Ordering::Relaxed);
        self.evict_to_budget(&mut self.inner.write(), true);
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of images charged to the budget (everything below the pinned
    /// top-two window).
    pub fn len(&self) -> usize {
        let inner = self.inner.read();
        inner.slots.len() - inner.top
    }

    /// Bytes charged to the budget: the sum of the budgeted images'
    /// [`CachedInternal::charge`]s, never above the live capacity.
    pub fn budgeted_bytes(&self) -> usize {
        self.inner.read().budgeted
    }

    /// Whether no entry is charged to the budget.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pinned entries (the top-two window, outside the budget).
    pub fn top_len(&self) -> usize {
        self.inner.read().top
    }

    /// Drop every cached route, the tombstones and the counts, returning the
    /// cache to its freshly-constructed cold state.  Benchmarks use this to
    /// measure cold-start traversal cost without rebuilding the cluster;
    /// nothing on the hot path calls it.
    pub fn clear(&self) {
        *self.inner.write() = Inner::default();
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// The **deepest** cached image at level `min_level` or above whose fence
    /// interval contains `key`: a level-1 answer names the leaf, a level-ℓ
    /// answer lets the traversal start at level ℓ−1.  Once counts move, the
    /// answer and every budgeted image on the path above it count the lookup,
    /// so an image's count is the traffic it routes.  A search from level 1
    /// counts as a hit when a level-1 image answered and a miss otherwise.
    pub fn deepest(&self, key: u64, min_level: u8) -> Option<Arc<CachedInternal>> {
        let inner = self.inner.read();
        let from = min_level.max(1);
        let found = (from..inner.levels.len() as u8).find_map(|l| inner.covering(l, key));
        if from == 1 {
            match found {
                Some(slot) if inner.slots[slot].node.level == 1 => self.stats.hits.inc(),
                _ => self.stats.misses.inc(),
            }
        }
        let slot = found?;
        let node = Arc::clone(&inner.slots[slot].node);
        self.stats
            .levels_skipped
            .add((inner.root_level + 1).saturating_sub(node.level) as u64);
        if inner.sketch.is_some() {
            inner.bump(slot);
            for level in (node.level + 1..).take_while(|&l| inner.needs_parent(l)) {
                if let Some(ancestor) = inner.covering(level, key) {
                    inner.bump(ancestor);
                }
            }
        }
        Some(node)
    }

    /// Look up the cached level-1 node covering `key` and return the leaf
    /// address a traversal for `key` would descend into, together with the
    /// cached node's remote address (needed for invalidation).
    pub fn lookup_leaf(&self, key: u64) -> Option<(GlobalAddress, GlobalAddress)> {
        self.deepest(key, 1)
            .filter(|node| node.level == 1)
            .map(|node| (node.child_for(key), node.addr))
    }

    /// Look up and clone the cached level-1 node covering `key`.
    pub fn lookup_covering(&self, key: u64) -> Option<CachedInternal> {
        self.deepest(key, 1)
            .filter(|node| node.level == 1)
            .map(|node| (*node).clone())
    }

    /// The deepest cached node covering `key`, as the child to continue the
    /// traversal from and that child's level (the cached node's level minus
    /// one).  A pure view: nothing is touched and nothing is counted, so
    /// placement decisions and probes can ask without disturbing the cache.
    pub fn search_top(&self, key: u64) -> Option<(GlobalAddress, u8)> {
        let inner = self.inner.read();
        (1..inner.levels.len() as u8)
            .find_map(|l| inner.covering(l, key))
            .map(|slot| {
                let node = &inner.slots[slot].node;
                (node.child_for(key), node.level - 1)
            })
    }

    /// The cached image of exactly `level` covering `key`, if there is one.
    /// A pure view like [`IndexCache::search_top`]: a structural commit asks
    /// it for the parent of the node it is about to merge, which is not a
    /// lookup the hit ratio or the counts should learn from.
    pub fn peek(&self, level: u8, key: u64) -> Option<Arc<CachedInternal>> {
        let inner = self.inner.read();
        let slot = inner.covering(level, key)?;
        Some(Arc::clone(&inner.slots[slot].node))
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    /// The tombstone version recorded against `addr`, if it is currently
    /// barred from admission.
    pub fn tombstoned(&self, addr: GlobalAddress) -> Option<u8> {
        self.inner.read().tombstones.get(&addr).copied()
    }

    /// Whether a copy of `addr` stamped `version` may enter the cache, given
    /// any tombstone recorded by [`IndexCache::apply_invalidate`].  A copy
    /// strictly newer than the tombstone clears it (the address was
    /// legitimately recycled); anything else is the retire/re-cache race and
    /// is rejected (recorded as a stale rejection).
    fn admits(&self, inner: &mut Inner, addr: GlobalAddress, version: u8) -> bool {
        match inner.tombstones.get(&addr).copied() {
            None => true,
            Some(floor) if CachedInternal::version_newer(version, floor) => {
                inner.tombstones.remove(&addr);
                true
            }
            Some(_) => {
                self.stats.stale_rejections.inc();
                false
            }
        }
    }

    /// Offer the image of an internal node a traversal or a commit holds
    /// anyway.  `root_level` is the tree's root level as the caller knows it
    /// (it places the pinned window).  An image already cached is replaced in
    /// place — that is how a stale route heals; a new one is admitted if it
    /// lies in the pinned window, or under a cached parent while the budget
    /// has room for its charge, has been offered more often than each of the
    /// victims its charge needs routed lookups, or already has cached
    /// children to route to.  An image charged more than the whole budget is
    /// not admitted below the window.
    /// Copies at or below a recorded tombstone version are rejected (the
    /// retire/re-cache race; see [`IndexCache::apply_invalidate`]).  Returns
    /// whether the image is cached now.
    pub fn offer(&self, node: Arc<CachedInternal>, root_level: u8) -> bool {
        self.offer_at(node, Some(root_level))
    }

    fn offer_at(&self, node: Arc<CachedInternal>, root_level: Option<u8>) -> bool {
        if node.level == 0 {
            return false;
        }
        let mut inner = self.inner.write();
        if !self.admits(&mut inner, node.addr, node.version) {
            return false;
        }
        if let Some(root_level) = root_level {
            inner.set_root_level(root_level);
        }
        if inner.root_level >= 1 && node.level > inner.root_level {
            // Above the root (a collapse lowered it): it can only mis-route.
            return false;
        }
        let (level, lo, hi) = (node.level, node.fence_low, node.fence_high);
        if let Some(&slot) = inner.map(level).and_then(|m| m.get(&lo)) {
            let old = Arc::clone(&inner.slots[slot].node);
            if old.addr == node.addr && CachedInternal::version_newer(old.version, node.version) {
                // A slower reader's older image of the same node.
                return true;
            }
            if !inner.pinned(level) {
                inner.budgeted = inner.budgeted - old.charge() + node.charge();
            }
            inner.slots[slot].node = node;
            if hi < old.fence_high {
                // The node split: what its right half took with it needs a
                // cached parent of its own.
                for _ in 0..inner.drop_orphans(level, hi, old.fence_high) {
                    self.stats.invalidations.inc();
                }
            }
            // A copy that grew may have pushed the budget over.
            self.evict_to_budget(&mut inner, false);
            return inner.map(level).is_some_and(|m| m.contains_key(&lo));
        }
        let mut uses = inner.estimate((level, lo));
        if !inner.pinned(level) {
            if inner.needs_parent(level) && !inner.has_parent(level, lo) {
                return false;
            }
            let (capacity, charge) = (self.capacity_bytes(), node.charge());
            if charge > capacity {
                self.stats.deferred_admissions.inc();
                return false;
            }
            if inner.budgeted + charge > capacity && !inner.has_child(level, lo, hi) {
                // Admitting would evict: the image must have been offered
                // more often than every victim its charge needs routed
                // lookups.
                uses = inner.record_offer((level, lo), capacity);
                let need = inner.budgeted + charge - capacity;
                let Some(victims) = inner.victims(need, uses, (level, lo)) else {
                    self.stats.deferred_admissions.inc();
                    return false;
                };
                for (level, fence_low) in victims {
                    inner.remove(level, fence_low);
                    self.stats.evictions.inc();
                }
            }
        }
        inner.insert(node, uses);
        self.stats.inserts.inc();
        self.evict_to_budget(&mut inner, false);
        true
    }

    /// Offer a level-1 node copy (see [`IndexCache::offer`]); the pinned
    /// window stays where the last caller that knew the root level put it.
    pub fn insert_level1(&self, node: CachedInternal) {
        debug_assert_eq!(node.level, 1, "insert_level1 takes level-1 nodes");
        self.offer_at(Arc::new(node), None);
    }

    /// Offer a surviving image from a structural commit, at the image's own
    /// level (see [`IndexCache::offer`]).
    ///
    /// This is the **self-healing** half of the cache: structural changes
    /// that scrub an entry (`invalidate_addr`) call this with the surviving
    /// sibling/parent image instead of leaving a hole.  The image is shared:
    /// a structural commit builds one `Arc` and every subscriber's refresh
    /// stores the same allocation.
    pub fn refresh_top(&self, node: Arc<CachedInternal>, root_level: u8) {
        if self.offer(node, root_level) {
            self.stats.refreshes.inc();
        }
    }

    /// Replace the pinned copy of the tree's top levels; the highest level
    /// among `nodes` is taken as the root level.  The images are shared
    /// (`Arc`): a warm-up builds each node once and every compute server's
    /// cache points at the same allocation.
    pub fn set_top_levels(&self, nodes: Vec<Arc<CachedInternal>>) {
        let root_level = nodes.iter().map(|n| n.level).max().unwrap_or(0);
        {
            let mut inner = self.inner.write();
            inner.set_root_level(root_level);
            let pinned: Vec<FenceKey> = inner
                .slots
                .iter()
                .filter(|s| inner.pinned(s.node.level))
                .map(|s| (s.node.level, s.node.fence_low))
                .collect();
            for (level, fence_low) in pinned {
                inner.remove(level, fence_low);
            }
        }
        for node in nodes {
            self.offer(node, root_level);
        }
        self.inner.write().sweep_orphans();
    }

    /// Evict with the power-of-two-choices rule until the budgeted bytes fit
    /// the live budget (after a shrink, a window shift, a cached copy that
    /// grew, or the admission of an image that arrived with cached
    /// children), and start counting once the budget is full: once it has
    /// no room left for a whole node's image.  `pressure` marks evictions
    /// forced by a runtime budget shrink (they are tallied as *both*
    /// ordinary evictions and [`CacheStats::pressure_evictions`]).
    fn evict_to_budget(&self, inner: &mut Inner, pressure: bool) {
        let config = self.config();
        while inner.budgeted > config.capacity_bytes {
            let Some(victim) = inner.pick_victim(&[]) else {
                break;
            };
            inner.evict(victim);
            self.stats.evictions.inc();
            if pressure {
                self.stats.pressure_evictions.inc();
            }
        }
        if inner.budgeted + config.entry_bytes > config.capacity_bytes {
            inner.sketch_for(config.capacity_bytes);
        }
    }

    // ------------------------------------------------------------------
    // Invalidation
    // ------------------------------------------------------------------

    /// Remove the cached level-1 node whose lower fence key is `fence_low`
    /// (called when a fetched leaf's fence keys or level disagree with the
    /// cached pointer that led to it).
    pub fn invalidate(&self, fence_low: u64) {
        self.invalidate_at(1, fence_low);
    }

    /// Remove the cached image at `(level, fence_low)` — the routing image a
    /// traversal found stale — together with whatever it leaves without a
    /// cached parent.
    pub fn invalidate_at(&self, level: u8, fence_low: u64) {
        let removed = self.inner.write().remove_with_orphans(level, fence_low);
        for _ in 0..removed {
            self.stats.invalidations.inc();
        }
    }

    /// Remove every cached node, at any level, that references `addr` as a
    /// child or is a copy of `addr` itself (used after node frees), together
    /// with whatever that leaves without a cached parent.  A stale copy would
    /// otherwise route traversals to the freed node forever; later
    /// traversals simply start higher up.
    pub fn invalidate_addr(&self, addr: GlobalAddress) {
        let mut inner = self.inner.write();
        let stale: Vec<FenceKey> = inner
            .slots
            .iter()
            .filter(|s| s.node.refers_to(addr))
            .map(|s| (s.node.level, s.node.fence_low))
            .collect();
        for (level, fence_low) in stale {
            for _ in 0..inner.remove_with_orphans(level, fence_low) {
                self.stats.invalidations.inc();
            }
        }
    }

    /// Apply a coherence `Invalidate(addr, tombstone_version)` message:
    /// record the tombstone so the admission gate rejects any copy of `addr`
    /// at or below `tombstone_version`, then scrub every entry referencing
    /// the address (exactly [`IndexCache::invalidate_addr`]).  Recording the
    /// tombstone *before* scrubbing closes the retire/re-cache race — once
    /// this returns, a traversal that read the node before the retire can no
    /// longer re-insert it.
    pub fn apply_invalidate(&self, addr: GlobalAddress, tombstone_version: u8) {
        {
            let mut inner = self.inner.write();
            let floor = inner.tombstones.entry(addr).or_insert(tombstone_version);
            // Keep the newest floor: a later retire of a recycled address
            // supersedes the older tombstone.
            if CachedInternal::version_newer(tombstone_version, *floor) {
                *floor = tombstone_version;
            }
        }
        self.invalidate_addr(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> GlobalAddress {
        GlobalAddress::host(0, n)
    }

    /// A level-`level` image over `[lo, hi)` whose children split the range
    /// at `seps` (child addresses are arbitrary but distinct per node).
    fn image(level: u8, lo: u64, hi: u64, seps: &[u64]) -> CachedInternal {
        let base = (level as u64) << 36 | (lo & 0xFF_FFFF) << 8;
        let children = seps.iter().enumerate().map(|(i, &separator)| ChildRef {
            separator,
            child: addr(base + 1 + i as u64),
        });
        CachedInternal::new(addr(base + 255), level, 1, lo, hi, addr(base), children)
    }

    /// The `i`-th separator's child of `node`.
    fn nth_child(node: &CachedInternal, i: usize) -> GlobalAddress {
        node.children().nth(i).expect("a separator").child
    }

    fn level1(lo: u64, hi: u64) -> CachedInternal {
        image(1, lo, hi, &[lo + (hi - lo) / 2])
    }

    /// The charge of the one-separator images these tests offer: the header,
    /// a one-byte separator offset and a one-byte child distance.
    const ONE: usize = IMAGE_HEADER_BYTES + 2;

    /// A cache whose budget holds `entries` one-separator images.
    fn cache_of(entries: usize) -> IndexCache {
        IndexCache::new(IndexCacheConfig::new(entries * ONE, ONE))
    }

    /// A four-level top (root level 4: levels 4 and 3 pinned) over
    /// `[0, 1000)`, with levels 2 and 1 left to the budget.
    fn pin_top(cache: &IndexCache) {
        cache.set_top_levels(vec![
            Arc::new(image(4, 0, u64::MAX, &[1_000])),
            Arc::new(image(3, 0, 1_000, &[500])),
        ]);
    }

    /// One lookup of `key < 1000` under [`pin_top`], over ten level-2 images
    /// of ten level-1 children each: the deepest cached image answers and
    /// the traversal offers every image it reads below it.
    fn traverse(cache: &IndexCache, key: u64) {
        let start = cache.deepest(key, 1).expect("the pinned window").level;
        for level in (1..start).rev() {
            let width = 10u64.pow(level.into());
            let lo = key / width * width;
            cache.offer(Arc::new(image(level, lo, lo + width, &[lo + width / 2])), 4);
        }
    }

    /// The lookups the cached image of exactly `level` covering `key` routed.
    fn uses(cache: &IndexCache, level: u8, key: u64) -> u32 {
        let inner = cache.inner.read();
        inner.uses(inner.covering(level, key).expect("cached"))
    }

    #[test]
    fn child_routing_follows_separators() {
        let node = image(1, 100, 200, &[120, 150, 180]);
        assert!(node.covers(100) && node.covers(199) && !node.covers(200) && !node.covers(99));
        assert_eq!(node.child_for(100), node.leftmost());
        assert_eq!(node.child_for(119), node.leftmost());
        assert_eq!(node.child_for(120), nth_child(&node, 0));
        assert_eq!(node.child_for(179), nth_child(&node, 1));
        assert_eq!(node.child_for(199), nth_child(&node, 2));
    }

    #[test]
    fn children_in_range_returns_key_ordered_cover() {
        let node = image(1, 0, u64::MAX, &[10, 20, 30]);
        let child = |i: usize| nth_child(&node, i);
        assert_eq!(node.children_in_range(12, 25), vec![child(0), child(1)]);
        assert_eq!(node.children_in_range(0, 5), vec![node.leftmost()]);
        assert_eq!(
            node.children_in_range(0, 100),
            vec![node.leftmost(), child(0), child(1), child(2)]
        );
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let cache = cache_of(1024);
        let a = level1(0, 100);
        cache.insert_level1(a.clone());
        cache.insert_level1(level1(100, 200));

        let (leaf, from) = cache.lookup_leaf(60).unwrap();
        assert_eq!(leaf, nth_child(&a, 0));
        assert_eq!(from, a.addr);
        assert!(cache.lookup_leaf(120).is_some());
        // A key outside every cached interval misses.
        assert!(cache.lookup_leaf(500).is_none());
        assert_eq!(cache.stats().hits(), 2);
        assert_eq!(cache.stats().misses(), 1);
        assert!((cache.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn the_deepest_covering_image_answers_and_its_path_is_touched() {
        let cache = cache_of(4);
        pin_top(&cache);
        assert!(cache.offer(Arc::new(image(2, 0, 500, &[250])), 4));
        assert!(cache.offer(Arc::new(image(2, 500, 1_000, &[750])), 4));
        assert!(cache.offer(Arc::new(level1(0, 250)), 4));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.top_len(), 2);

        // Level 1 answers where it is cached, level 2 where it is not, the
        // pinned window beyond the budgeted levels' reach.
        assert_eq!(cache.deepest(10, 1).unwrap().level, 1);
        assert_eq!(cache.deepest(300, 1).unwrap().level, 2);
        assert_eq!(cache.deepest(5_000, 1).unwrap().level, 4);
        assert_eq!(cache.deepest(10, 2).unwrap().level, 2);
        assert_eq!(cache.deepest(10, 3).unwrap().level, 3);
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(
            cache.stats().misses(),
            2,
            "only searches from level 1 count"
        );
        // Root level 4: a level-1 answer skips 4 reads, a level-2 answer 3, ...
        assert_eq!(cache.stats().levels_skipped(), 4 + 3 + 1 + 3 + 2);
        // `search_top` is the same answer as a route, counting nothing.
        let (child, level) = cache.search_top(300).unwrap();
        assert_eq!((child, level), (nth_child(&image(2, 0, 500, &[250]), 0), 1));
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 3);
        // `peek` answers for one level exactly, counting nothing either.
        assert_eq!(cache.peek(1, 10).unwrap().fence_high, 250);
        assert_eq!(cache.peek(2, 300).unwrap().fence_high, 500);
        assert!(cache.peek(1, 300).is_none() && cache.peek(7, 300).is_none());
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 3);
        assert_eq!(cache.stats().levels_skipped(), 4 + 3 + 1 + 3 + 2);

        // Nothing counts until the budget is full.  Once it is, a lookup
        // counts for the image that answered and for every budgeted image
        // above it — not for the pinned window, not for images beside it.
        assert_eq!(uses(&cache, 1, 10), 0);
        assert!(cache.offer(Arc::new(level1(250, 500)), 4));
        assert_eq!(cache.len(), 4);
        for _ in 0..10 {
            cache.deepest(10, 1);
        }
        assert_eq!((uses(&cache, 1, 10), uses(&cache, 2, 10)), (10, 10));
        assert_eq!((uses(&cache, 1, 300), uses(&cache, 2, 600)), (0, 0));
        assert_eq!(uses(&cache, 3, 10), 0);

        // At a full budget an offer admits only over a victim that routed
        // fewer lookups than the image was offered — never over an inner
        // node of a cached path, never over the image's own parent: the idle
        // [250, 500) goes, the busy [0, 250) stays.
        while !cache.offer(Arc::new(level1(500, 750)), 4) {}
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.deepest(600, 2).unwrap().level, 2, "its parent stayed");
        assert_eq!(cache.peek(1, 10).unwrap().fence_high, 250, "busy, stayed");
        assert!(cache.peek(1, 300).is_none());
        assert_eq!(cache.stats().evictions(), 1);
        // The newcomer starts at its offers' count: one offer of a third
        // image makes room in neither level-1 image.
        assert!(uses(&cache, 1, 600) >= 1);
        assert!(!cache.offer(Arc::new(level1(750, 1_000)), 4));
        assert_eq!(cache.stats().evictions(), 1);
    }

    #[test]
    fn admission_needs_a_cached_parent_and_eviction_spares_parents() {
        let cache = cache_of(3);
        pin_top(&cache);
        // No level-2 image covers 600 yet: a level-1 image there is an
        // orphan and is not admitted, room or not.
        assert!(!cache.offer(Arc::new(level1(500, 750)), 4));
        assert!(cache.offer(Arc::new(image(2, 500, 1_000, &[750])), 4));
        assert!(cache.offer(Arc::new(level1(500, 750)), 4));
        assert!(cache.offer(Arc::new(level1(750, 1_000)), 4));
        assert_eq!(cache.len(), 3);

        // Shrinking evicts the path's leaves first: with one entry left it is
        // the parent, and every removal was a pressure eviction.
        cache.set_capacity_bytes(ONE);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.deepest(600, 1).unwrap().level, 2);
        assert_eq!(cache.stats().pressure_evictions(), 2);
        assert_eq!(cache.stats().evictions(), 2);
        // The pinned window is outside the budget.
        assert_eq!(cache.top_len(), 2);
    }

    /// Offer `image` until it is admitted; returns the offers it took.
    fn offers_to_admit(cache: &IndexCache, image: CachedInternal) -> usize {
        let image = Arc::new(image);
        (1..=64)
            .find(|_| cache.offer(Arc::clone(&image), 0))
            .expect("admitted within 64 offers")
    }

    #[test]
    fn a_full_budget_admits_only_over_a_less_used_victim() {
        let cache = cache_of(8);
        for i in 0..8u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        assert_eq!((cache.len(), cache.stats().deferred_admissions()), (8, 0));
        // Every resident routes eight lookups.
        for _ in 0..8 {
            for i in 0..8u64 {
                assert!(cache.lookup_leaf(i * 100 + 50).is_some());
            }
        }

        // One-touch traffic: 24 more distinct images change nothing.
        for i in 8..32u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions(), 0);
        assert_eq!(cache.stats().deferred_admissions(), 24);
        assert!(cache.lookup_leaf(50).is_some() && cache.lookup_leaf(3_150).is_none());

        // An image offered more often than a victim routed lookups gets in —
        // not on its second offer, by its ninth at the latest (the sketch
        // may overestimate it, never under).
        let offers = offers_to_admit(&cache, level1(3_100, 3_200));
        assert!((3..=9).contains(&offers), "admitted on offer {offers}");
        assert!(cache.lookup_leaf(3_150).is_some());
        assert_eq!((cache.len(), cache.stats().evictions()), (8, 1));
    }

    #[test]
    fn capacity_is_enforced_with_two_choice_eviction() {
        // Room for 8 entries, each routing three lookups, the first a hundred.
        let cache = cache_of(8);
        for i in 0..8u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        for i in 0..8u64 {
            for _ in 0..if i == 0 { 100 } else { 3 } {
                cache.lookup_leaf(i * 100 + 50);
            }
        }
        // 56 more images, each offered until it is admitted: every admission
        // evicts one entry, and the budget holds.
        for i in 8..64u64 {
            offers_to_admit(&cache, level1(i * 100, (i + 1) * 100));
            assert_eq!(cache.len(), 8);
        }
        assert_eq!(cache.stats().evictions(), 56);
        // The victim is the less used of two draws, so the busy first image
        // survived all 56 evictions.
        assert!(cache.lookup_leaf(50).is_some());
        assert!(cache.lookup_leaf(6_350).is_some());
    }

    /// A level-1 image over `[lo, lo + 100)` keeping four separators: 56 B,
    /// more than one one-separator image frees.
    fn wide(lo: u64) -> CachedInternal {
        image(1, lo, lo + 100, &[lo + 20, lo + 40, lo + 60, lo + 80])
    }

    #[test]
    fn an_image_that_needs_two_victims_beats_both_or_evicts_neither() {
        let cache = cache_of(2);
        cache.insert_level1(level1(0, 100));
        cache.insert_level1(level1(100, 200));
        for _ in 0..5 {
            assert!(cache.lookup_leaf(150).is_some());
        }
        assert_eq!((uses(&cache, 1, 50), uses(&cache, 1, 150)), (0, 5));
        // 56 B needs both residents gone.  The idle one alone is no room:
        // while the busy one routed as many lookups as the image was
        // offered, neither goes.
        for offer in 1..=5 {
            assert!(!cache.offer_at(Arc::new(wide(200)), None), "offer {offer}");
            assert_eq!((cache.len(), cache.stats().evictions()), (2, 0));
        }
        assert!(cache.offer_at(Arc::new(wide(200)), None));
        assert_eq!((cache.len(), cache.stats().evictions()), (1, 2));
        assert_eq!(cache.budgeted_bytes(), wide(200).charge());
        assert!(cache.lookup_leaf(250).is_some());
    }

    #[test]
    fn an_image_charged_more_than_the_budget_stays_out_of_it() {
        let cache = cache_of(1);
        assert!(!cache.offer(Arc::new(wide(0)), 0));
        assert_eq!((cache.len(), cache.stats().deferred_admissions()), (0, 1));
        // Not even one that arrives with a cached child to route to.
        cache.insert_level1(level1(0, 100));
        let parent = image(2, 0, 1_000, &[200, 400, 600, 800]);
        assert!(!cache.offer(Arc::new(parent), 0));
        assert_eq!((cache.len(), cache.stats().evictions()), (1, 0));
        cache.invalidate(0);
        // The pinned window is outside the budget: there it is cached.
        cache.set_top_levels(vec![Arc::new(image(2, 0, u64::MAX, &[100]))]);
        assert!(cache.offer(Arc::new(wide(0)), 2));
        assert_eq!((cache.len(), cache.top_len()), (0, 2));
    }

    #[test]
    fn a_cache_that_never_fills_admits_every_offer_and_counts_nothing() {
        let cache = cache_of(1_024);
        for i in 0..200u64 {
            let seps: Vec<u64> = (1..=i % 8 + 1).map(|j| i * 100 + j * 10).collect();
            assert!(cache.offer_at(Arc::new(image(1, i * 100, (i + 1) * 100, &seps)), None));
        }
        for i in 0..2_000u64 {
            assert!(cache.lookup_leaf(i * 10).is_some());
        }
        assert_eq!(cache.len(), 200);
        let stats = cache.stats();
        assert_eq!((stats.evictions(), stats.deferred_admissions()), (0, 0));
        let inner = cache.inner.read();
        assert!(inner.sketch.is_none());
        assert!((0..inner.slots.len()).all(|slot| inner.uses(slot) == 0));
    }

    /// The sketch is sized by the images the budget holds once it is full,
    /// not by whole nodes: 256 B nodes, 50 B images, a budget of ten nodes.
    #[test]
    fn the_sketch_is_sized_by_the_images_a_full_budget_holds() {
        let cache = IndexCache::new(IndexCacheConfig::new(10 * 256, 256));
        let mut i = 0;
        while cache.inner.read().sketch.is_none() {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
            i += 1;
        }
        let inner = cache.inner.read();
        // 47 images leave no room for a whole node.
        assert_eq!(inner.slots.len(), 47);
        assert_eq!(inner.sketch.as_ref().map(|s| s.entries), Some(47));
    }

    /// Seeded random offers of images of one to six separators, lookups,
    /// invalidations, retirements and re-budgets under [`pin_top`]: after
    /// every step the budget holds the charges of exactly the images below
    /// the window, and never more than the live capacity.
    #[test]
    fn the_budgeted_bytes_never_exceed_the_capacity() {
        let cache = cache_of(12);
        pin_top(&cache);
        let mut rng = 11u64;
        for step in 0..20_000 {
            let r = splitmix(&mut rng);
            let key = r % 1_000;
            match r >> 60 {
                0 => cache.set_capacity_bytes((r >> 32) as usize % (24 * ONE)),
                1 => cache.invalidate_at(1 + (r >> 40) as u8 % 2, key / 100 * 100),
                2 => cache.apply_invalidate(image(1, key / 10 * 10, 0, &[]).addr, 1),
                3..=5 => drop(cache.deepest(key, 1)),
                _ => {
                    let level = 1 + (r >> 40) as u8 % 2;
                    let width = 10u64.pow(level.into());
                    let lo = key / width * width;
                    let n = 1 + (r >> 48) % 6;
                    let seps: Vec<u64> = (1..=n).map(|j| lo + j * width / (n + 1)).collect();
                    cache.offer(Arc::new(image(level, lo, lo + width, &seps)), 4);
                }
            }
            let inner = cache.inner.read();
            let charged: usize = (inner.slots.iter())
                .filter(|s| !inner.pinned(s.node.level))
                .map(|s| s.node.charge())
                .sum();
            assert_eq!(inner.budgeted, charged, "step {step}");
            assert!(inner.budgeted <= cache.capacity_bytes(), "step {step}");
            let pinned = inner.slots.iter().filter(|s| inner.pinned(s.node.level));
            assert_eq!(inner.top, pinned.count(), "step {step}");
        }
        assert!(cache.stats().evictions() > 100);
    }

    /// Cost of one evicting admission into a full cache of `entries`: the
    /// sketch record, the two victim draws, the eviction and the insertion
    /// (whether the offer wins is one comparison on top).
    fn evicting_insert_ns(entries: u64) -> f64 {
        let cache = IndexCache::new(IndexCacheConfig::new(entries as usize * 256, 256));
        let node = |i: u64| Arc::new(level1(i * 100, (i + 1) * 100));
        for i in 0..entries {
            cache.offer_at(node(i), None);
        }
        let rounds = 4_000u64;
        let fresh: Vec<_> = (entries..entries + rounds).map(node).collect();
        let mut inner = cache.inner.write();
        let started = std::time::Instant::now();
        for image in fresh {
            let uses = inner.record_offer((1, image.fence_low), cache.capacity_bytes());
            let victim = inner.pick_victim(&[]).expect("a full cache has a victim");
            inner.evict(victim);
            inner.insert(image, uses);
        }
        let ns = started.elapsed().as_nanos() as f64 / rounds as f64;
        assert_eq!(inner.slots.len(), entries as usize);
        ns
    }

    #[test]
    fn victim_sampling_does_not_grow_with_the_cache() {
        // The two-choice candidates are drawn by slot, not by walking the
        // index: a full 16 MB cache of 256 B entries evicts at the price of a
        // 64-entry one (deeper maps, a wider sketch and colder memory only).
        // Best of five each, the two sizes taking turns, so that a preempted
        // round or a machine state that comes and goes does not decide it.
        let (mut small, mut large) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            small = small.min(evicting_insert_ns(64));
            large = large.min(evicting_insert_ns(16_384));
        }
        assert!(
            large < 3.0 * small,
            "evicting insert: {small:.0} ns at 64 entries, {large:.0} ns at 16 384"
        );
    }

    /// Uniform traffic through [`traverse`] under a budget of six entries,
    /// which cannot even hold level 2.  A level-2 image routes ten times the
    /// lookups of any level-1 image, so once the first thousand lookups have
    /// filled the budget no level-1 image is cached, checked every hundred
    /// lookups to the end.  (Admitted on a second offer inside a window of
    /// recent ones, one or two of them were.)
    #[test]
    fn a_level1_image_never_displaces_a_busier_level2_image() {
        let cache = cache_of(6);
        pin_top(&cache);
        let mut rng = 1u64;
        for i in 1..=20_000 {
            traverse(&cache, splitmix(&mut rng) % 1_000);
            if i >= 1_000 && i % 100 == 0 {
                let level1 = (0..100u64).filter(|i| cache.peek(1, i * 10).is_some());
                assert_eq!(level1.count(), 0, "after {i} lookups");
            }
        }
        assert_eq!(cache.len(), 6);
        assert!(cache.stats().evictions() > 0);
    }

    /// The victim draws are the cache's own: two caches fed one sequence of
    /// offers, lookups and a shrink, each from a thread of its own, end with
    /// the same images and the same counts.
    #[test]
    fn victim_draws_repeat_whatever_thread_drives_the_cache() {
        fn drive() -> (Vec<(u8, u64, u32)>, u64) {
            let cache = cache_of(12);
            pin_top(&cache);
            let mut rng = 7u64;
            for i in 0..4_000 {
                if i == 2_000 {
                    cache.set_capacity_bytes(8 * ONE);
                }
                traverse(&cache, splitmix(&mut rng) % 1_000);
            }
            let inner = cache.inner.read();
            let mut contents: Vec<_> = (0..inner.slots.len())
                .map(|s| (&inner.slots[s].node, inner.uses(s)))
                .map(|(node, uses)| (node.level, node.fence_low, uses))
                .collect();
            contents.sort_unstable();
            (contents, cache.stats().evictions())
        }
        let (a, b) = (std::thread::spawn(drive), std::thread::spawn(drive));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert!(a.1 > 4, "{} evictions", a.1);
        assert_eq!(a, b);
    }

    #[test]
    fn invalidation_removes_stale_entries_and_what_hung_below_them() {
        let cache = cache_of(1024);
        cache.insert_level1(level1(0, 100));
        assert!(cache.lookup_leaf(10).is_some());
        cache.invalidate(0);
        assert!(cache.lookup_leaf(10).is_none());
        assert_eq!(cache.stats().invalidations(), 1);

        let node = level1(200, 300);
        cache.insert_level1(node.clone());
        cache.invalidate_addr(nth_child(&node, 0));
        assert!(cache.lookup_leaf(260).is_none());

        // Dropping a routing image drops the images only it made reachable.
        pin_top(&cache);
        cache.offer(Arc::new(image(2, 0, 500, &[250])), 4);
        cache.offer(Arc::new(level1(0, 250)), 4);
        cache.offer(Arc::new(level1(250, 500)), 4);
        assert_eq!(cache.len(), 3);
        cache.invalidate_at(2, 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.deepest(10, 1).unwrap().level, 3);
    }

    #[test]
    fn an_image_cached_already_is_replaced_in_place() {
        let cache = cache_of(1024);
        let old = level1(0, 100);
        let moved = [ChildRef {
            separator: 50,
            child: addr(77),
        }];
        let new = CachedInternal::new(old.addr, 1, 2, 0, 100, old.leftmost(), moved);
        cache.insert_level1(old.clone());
        cache.insert_level1(new);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup_leaf(60).unwrap().0, addr(77));
        // A slower reader's older image of the same node does not undo it.
        cache.insert_level1(old);
        assert_eq!(cache.lookup_leaf(60).unwrap().0, addr(77));

        // A split narrows the image; the right half's cached children are
        // kept if the right half is offered first, dropped otherwise.
        pin_top(&cache);
        cache.offer(Arc::new(image(2, 0, 500, &[250])), 4);
        for (lo, hi) in [(0, 100), (100, 250), (250, 400), (400, 500)] {
            assert!(cache.offer(Arc::new(level1(lo, hi)), 4));
        }
        cache.offer(Arc::new(image(2, 250, 500, &[400])), 4);
        cache.offer(Arc::new(image(2, 0, 250, &[100])), 4);
        assert_eq!(cache.len(), 6, "right half first: nothing is orphaned");
        cache.offer(Arc::new(image(2, 250, 400, &[300])), 4);
        assert_eq!(
            cache.len(),
            5,
            "left half alone: [400, 500) lost its parent"
        );
        assert_eq!(cache.deepest(450, 1).unwrap().level, 3);
        assert!(!cache.offer(Arc::new(level1(400, 500)), 4), "no parent yet");
    }

    #[test]
    fn the_window_follows_the_root_level() {
        let cache = cache_of(2);
        // Root level 2: both internal levels are pinned, nothing is budgeted.
        cache.set_top_levels(vec![Arc::new(image(2, 0, u64::MAX, &[500]))]);
        for i in 0..5u64 {
            assert!(cache.offer(Arc::new(level1(i * 100, (i + 1) * 100)), 2));
        }
        assert_eq!((cache.len(), cache.top_len()), (0, 6));

        // The tree grows a level: level 1 falls out of the window, into the
        // budget, and is evicted down to it.
        cache.refresh_top(Arc::new(image(3, 0, u64::MAX, &[10_000])), 3);
        assert_eq!((cache.len(), cache.top_len()), (2, 2));
        assert_eq!(cache.stats().evictions(), 3);
        assert_eq!(cache.stats().refreshes(), 1);

        // The root collapses again: images above it can only mis-route.
        cache.refresh_top(Arc::new(image(2, 0, u64::MAX, &[600])), 2);
        assert_eq!((cache.len(), cache.top_len()), (0, 3));
        assert_eq!(cache.search_top(20_000), None.or(cache.search_top(20_000)));
        assert!(!cache.offer(Arc::new(image(3, 0, u64::MAX, &[10_000])), 2));
    }

    #[test]
    fn tombstones_reject_stale_reinserts_until_a_newer_version_arrives() {
        let cache = cache_of(1024);
        let node = level1(0, 100);
        cache.insert_level1(node.clone());
        assert_eq!(cache.len(), 1);

        // A coherence invalidation scrubs the entry and records the
        // tombstone's version (the retired image bumped to 2).
        cache.apply_invalidate(node.addr, 2);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.tombstoned(node.addr), Some(2));

        // The retire/re-cache race: a traversal that read the node before
        // the retire tries to re-insert its stale copy — rejected.
        cache.insert_level1(node.clone());
        assert_eq!(cache.len(), 0, "stale copy must not re-enter the cache");
        assert_eq!(cache.stats().stale_rejections(), 1);

        // A stale refresh is rejected by the same gate.
        cache.refresh_top(
            Arc::new(CachedInternal {
                level: 2,
                ..node.clone()
            }),
            2,
        );
        assert_eq!(cache.top_len(), 0);
        assert_eq!(cache.stats().stale_rejections(), 2);

        // The address is recycled: the first image written there is stamped
        // above the tombstone and is admitted, clearing the tombstone.
        let recycled = CachedInternal { version: 3, ..node };
        cache.insert_level1(recycled.clone());
        assert_eq!(cache.len() + cache.top_len(), 1);
        assert_eq!(cache.tombstoned(recycled.addr), None);
    }

    #[test]
    fn version_comparison_wraps_like_the_node_header() {
        assert!(CachedInternal::version_newer(3, 2));
        assert!(!CachedInternal::version_newer(2, 2));
        assert!(!CachedInternal::version_newer(1, 2));
        // Wrap-around: 0 is newer than 255, 255 is not newer than 0.
        assert!(CachedInternal::version_newer(0, 255));
        assert!(!CachedInternal::version_newer(255, 0));
    }

    #[test]
    fn runtime_shrink_evicts_down_to_the_new_budget() {
        // Room for 16 entries, filled exactly to capacity; image i then
        // routes i + 1 lookups.
        let cache = cache_of(16);
        for i in 0..16u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        for i in 0..16u64 {
            for _ in 0..=i {
                cache.lookup_leaf(i * 100 + 50);
            }
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.stats().evictions(), 0);

        // A 4x budget shrink forces the working set down immediately.
        cache.set_capacity_bytes(4 * ONE);
        assert_eq!(cache.capacity_bytes(), 4 * ONE);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().pressure_evictions(), 12);
        assert_eq!(
            cache.stats().evictions(),
            12,
            "pressure evictions are also ordinary evictions"
        );
        // A changed budget restarts every count: the survivors count nothing
        // and a newcomer gets in on its first offer.
        {
            let inner = cache.inner.read();
            assert!((0..inner.slots.len()).all(|slot| inner.uses(slot) == 0));
        }
        assert_eq!(offers_to_admit(&cache, level1(1_600, 1_700)), 1);

        // Later admissions keep honouring the shrunken budget, and those
        // evictions are *not* pressure evictions.
        for i in 17..24u64 {
            offers_to_admit(&cache, level1(i * 100, (i + 1) * 100));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().pressure_evictions(), 12);
        assert_eq!(cache.stats().evictions(), 20);
    }

    #[test]
    fn runtime_grow_is_instant_and_evicts_nothing() {
        let cache = cache_of(4);
        for i in 0..4u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        cache.set_capacity_bytes(64 * ONE);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions(), 0);
        assert_eq!(cache.stats().pressure_evictions(), 0);
        // The enlarged budget admits more entries without eviction.
        for i in 4..32u64 {
            cache.insert_level1(level1(i * 100, (i + 1) * 100));
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.stats().evictions(), 0);
        assert_eq!(cache.stats().deferred_admissions(), 0);
    }

    #[test]
    fn clear_forgets_everything() {
        let cache = cache_of(8);
        pin_top(&cache);
        cache.offer(Arc::new(image(2, 0, 500, &[250])), 4);
        cache.apply_invalidate(addr(9), 1);
        cache.clear();
        assert_eq!((cache.len(), cache.top_len()), (0, 0));
        assert_eq!(cache.search_top(10), None);
        assert_eq!(cache.tombstoned(addr(9)), None);
    }

    /// Five separators `span / 5` apart above key 1 000, their children
    /// `step` 256 B nodes apart from a leftmost child on server 1 (the last
    /// one on server `far` instead).
    fn five(span: u64, step: u64, far: u16) -> CachedInternal {
        let node = |i: u64, ms| GlobalAddress::host(ms, (1 << 30) + i * step * 256);
        let children = (1..=5u64).map(|i| ChildRef {
            separator: 1_000 + i * span / 5,
            child: node(i, if i == 5 { far } else { 1 }),
        });
        CachedInternal::new(addr(7), 1, 1, 1_000, u64::MAX, node(0, 1), children)
    }

    #[test]
    fn an_image_is_charged_its_header_and_its_one_buffer() {
        // (separator span, child step in nodes, server of the last child):
        // bytes of one separator offset + one child distance in node units.
        let cases = [
            ((200, 1, 1), 1 + 1),
            // 125 nodes away still fits a byte: distances count nodes.
            ((200, 25, 1), 1 + 1),
            ((60_000, 201, 1), 2 + 2),
            ((3_000_000, 1, 1), 4 + 1),
            ((1 << 40, 40_001, 1), 8 + 4),
            ((200, (1 << 34) + 1, 1), 1 + 8),
            // Children on two servers keep whole packed addresses.
            ((200, 1, 2), 1 + 8),
        ];
        for ((span, step, far), per_entry) in cases {
            let image = five(span, step, far);
            assert_eq!(image.charge(), IMAGE_HEADER_BYTES + image.packed.len());
            assert_eq!(image.charge(), 48 + 5 * per_entry, "{span} {step} {far}");
            assert_eq!(image.len(), 5);
        }
        let empty = image(1, 0, 100, &[]);
        assert_eq!(
            (empty.charge(), empty.len(), empty.is_empty()),
            (48, 0, true)
        );
    }

    /// What a packed image must answer, computed over a plain list of its
    /// children.
    struct Model {
        addr: GlobalAddress,
        leftmost: GlobalAddress,
        children: Vec<ChildRef>,
    }

    impl Model {
        fn child_for(&self, key: u64) -> GlobalAddress {
            match self.children.partition_point(|c| c.separator <= key) {
                0 => self.leftmost,
                n => self.children[n - 1].child,
            }
        }

        fn children_in_range(&self, start: u64, end: u64) -> Vec<GlobalAddress> {
            let first = self.children.partition_point(|c| c.separator <= start);
            let head = match first {
                0 => self.leftmost,
                n => self.children[n - 1].child,
            };
            let rest = self.children[first..]
                .iter()
                .take_while(|c| c.separator <= end);
            std::iter::once(head).chain(rest.map(|c| c.child)).collect()
        }

        fn refers_to(&self, addr: GlobalAddress) -> bool {
            self.addr == addr
                || self.leftmost == addr
                || self.children.iter().any(|c| c.child == addr)
        }
    }

    /// Lower bound of each width class: values from one bound up to the next
    /// need 1, 2, 4 and 8 bytes.
    const CLASS: [u64; 5] = [0, 1 << 8, 1 << 16, 1 << 32, 1 << 62];

    /// A random image of up to `n` separators whose widest separator offset
    /// is drawn from width class `key_class` and whose first child's
    /// distance (in node units; the others' are smaller, of either sign)
    /// from `child_class`; on two servers when bit 0 of `shape` is set,
    /// unbounded above when bit 1 is.
    fn arbitrary_image(
        (key_class, child_class, n, shape, mut rng): ImageParams,
    ) -> (CachedInternal, Model) {
        let (two_servers, unbounded) = (shape & 1 == 1, shape & 2 == 2);
        let mut draw = |lo: u64, hi: u64| lo + splitmix(&mut rng) % (hi - lo);
        let fence_low = draw(0, 1 << 62);
        let widest = draw(CLASS[key_class].max(1), CLASS[key_class + 1]);
        let mut offsets: Vec<u64> = (1..n)
            .map(|_| draw(1, widest + 1))
            .chain([widest])
            .collect();
        offsets.truncate(n);
        offsets.sort_unstable();
        offsets.dedup();
        let unit = 64 << draw(0, 6);
        let leftmost = GlobalAddress::host(3, 1 << 46);
        let far = CLASS[child_class].max(1) / 2;
        let children: Vec<ChildRef> = (offsets.iter().enumerate())
            .map(|(i, &offset)| {
                let units = draw(0, far.max(1) * 2).max(if i == 0 { far } else { 0 });
                let sign = if i > 0 && draw(0, 2) == 0 { -1 } else { 1 };
                let distance = (units * unit) as i64 * sign;
                let ms = if two_servers && draw(0, 2) == 0 { 4 } else { 3 };
                ChildRef {
                    separator: fence_low + offset,
                    child: GlobalAddress::host(ms, leftmost.offset.wrapping_add(distance as u64)),
                }
            })
            .collect();
        let last = children.last().map_or(fence_low, |c| c.separator);
        let fence_high = if unbounded {
            u64::MAX
        } else {
            last + 1 + draw(0, 1_000)
        };
        let addr = GlobalAddress::host(5, 1 << 20);
        let image = CachedInternal::new(
            addr,
            1,
            1,
            fence_low,
            fence_high,
            leftmost,
            children.clone(),
        );
        let model = Model {
            addr,
            leftmost,
            children,
        };
        (image, model)
    }

    /// Key width class, child width class, separators, shape bits, seed.
    type ImageParams = (usize, usize, usize, u8, u64);

    fn image_params() -> impl proptest::strategy::Strategy<Value = ImageParams> {
        use proptest::prelude::*;
        (0usize..4, 0usize..4, 0usize..40, 0u8..4, any::<u64>())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// The packed image routes, lists and refers exactly as a plain list
        /// of its children does.
        #[test]
        fn a_packed_image_answers_as_its_plain_children_do(params in image_params()) {
            let (image, model) = arbitrary_image(params);
            proptest::prop_assert_eq!(image.children().collect::<Vec<_>>(), model.children.clone());
            proptest::prop_assert_eq!(image.len(), model.children.len());
            proptest::prop_assert_eq!(image.leftmost(), model.leftmost);
            proptest::prop_assert_eq!(image.charge(), IMAGE_HEADER_BYTES + image.packed.len());
            let mut keys = vec![image.fence_low, image.fence_high - 1];
            for c in &model.children {
                keys.extend([c.separator - 1, c.separator, c.separator.saturating_add(1)]);
            }
            let mut rng = params.4;
            let span = image.fence_high - image.fence_low;
            keys.extend((0..16).map(|_| image.fence_low + splitmix(&mut rng) % span));
            keys.retain(|&k| image.covers(k));
            for &key in &keys {
                proptest::prop_assert_eq!(image.child_for(key), model.child_for(key), "key {}", key);
                for &end in &keys {
                    if end >= key {
                        proptest::prop_assert_eq!(
                            image.children_in_range(key, end),
                            model.children_in_range(key, end)
                        );
                    }
                }
            }
            let mut probes = vec![model.addr, model.leftmost, GlobalAddress::host(3, 64)];
            probes.extend(model.children.iter().map(|c| c.child));
            probes.extend(model.children.iter().map(|c| c.child.add(64)));
            for addr in probes {
                proptest::prop_assert_eq!(image.refers_to(addr), model.refers_to(addr));
            }
        }
    }

    /// The random images above reach every width of both columns, both
    /// signs of child distance, children on two servers, an unbounded upper
    /// fence, and images of no and of one separator.
    #[test]
    fn the_random_images_cover_every_width_and_shape() {
        let mut rng = 3u64;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            let r = splitmix(&mut rng);
            let params = (
                (r % 4) as usize,
                (r >> 8) as usize % 4,
                (r >> 16) as usize % 40,
                (r >> 32) as u8 % 4,
                r,
            );
            let (image, model) = arbitrary_image(params);
            seen.insert(("key width", image.key_width));
            seen.insert(("child width", image.child_width));
            seen.insert(("separators", image.len().min(2) as u8));
            seen.insert(("spans servers", image.child_shift.is_none() as u8));
            seen.insert(("unbounded", (image.fence_high == u64::MAX) as u8));
            for c in &model.children {
                let below = c.child.offset < model.leftmost.offset;
                seen.insert(("below leftmost", below as u8));
            }
        }
        for width in [1, 2, 4, 8] {
            assert!(seen.contains(&("key width", width)), "key width {width}");
            assert!(
                seen.contains(&("child width", width)),
                "child width {width}"
            );
        }
        for shape in ["separators", "spans servers", "unbounded", "below leftmost"] {
            for flag in 0..2 {
                assert!(seen.contains(&(shape, flag)), "{shape} {flag}");
            }
        }
        assert!(seen.contains(&("separators", 2)));
    }
}
