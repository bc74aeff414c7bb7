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
    /// Child routed to for keys below the first separator.
    pub leftmost: GlobalAddress,
    /// Separator keys with their children, sorted by separator.
    pub children: Vec<ChildRef>,
    /// Node-level version (`front_version`) of the remote image this copy was
    /// made from.  Cache admission compares it against the tombstone version
    /// carried by coherence invalidations: a copy read *before* a retire must
    /// not be re-inserted *after* the invalidation was applied.
    pub version: u8,
}

impl CachedInternal {
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

    /// The child a traversal for `key` descends into.
    pub fn child_for(&self, key: u64) -> GlobalAddress {
        debug_assert!(self.covers(key));
        match self.children.partition_point(|c| c.separator <= key) {
            0 => self.leftmost,
            n => self.children[n - 1].child,
        }
    }

    /// Children whose key ranges may intersect `[start, end]` (inclusive),
    /// in key order.  Used by range queries to read several leaves in one
    /// parallel batch.
    pub fn children_in_range(&self, start: u64, end: u64) -> Vec<GlobalAddress> {
        let mut out = Vec::new();
        let first = self.children.partition_point(|c| c.separator <= start);
        if first == 0 {
            out.push(self.leftmost);
        } else {
            out.push(self.children[first - 1].child);
        }
        for c in &self.children[first..] {
            if c.separator > end {
                break;
            }
            out.push(c.child);
        }
        out
    }

    /// Whether this image is a copy of `addr` or routes to it as a child.
    fn refers_to(&self, addr: GlobalAddress) -> bool {
        self.addr == addr || self.leftmost == addr || self.children.iter().any(|c| c.child == addr)
    }
}

/// Capacity configuration of the index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCacheConfig {
    /// Total budget for the images below the pinned top-two window, in bytes.
    pub capacity_bytes: usize,
    /// Approximate cost of one cached internal node (typically the tree's node
    /// size); used for capacity accounting.
    pub entry_bytes: usize,
}

impl IndexCacheConfig {
    /// A cache holding roughly `capacity_bytes / entry_bytes` nodes.
    pub fn new(capacity_bytes: usize, entry_bytes: usize) -> Self {
        assert!(entry_bytes > 0);
        IndexCacheConfig {
            capacity_bytes,
            entry_bytes,
        }
    }

    /// Maximum number of budgeted entries.
    pub fn max_entries(&self) -> usize {
        (self.capacity_bytes / self.entry_bytes).max(1)
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

/// One-byte counters of the frequency sketch per budgeted entry: 8 B per
/// entry, 3 % of a 256 B image.
const SKETCH_COUNTERS_PER_ENTRY: usize = 8;

/// Hashes of the sketch, one row of counters each.
const SKETCH_ROWS: usize = 4;

/// Recordings between two halvings of every count, per budgeted entry.  The
/// period must be long enough for a level-2 image's tenfold traffic over each
/// of its level-1 children to show before the counts halve.  On the
/// benchmark's `lookup_cold_deep` (a 1 024-entry budget of which levels 4 and
/// 3 take 160, and the 864 left cannot hold level 2), on compute server 0
/// after 2 M operations, halving every `2 ×` recordings left 114 level-1
/// images cached and 2.460 round trips per operation, every `4 ×` 21 and
/// 2.395, every `10 ×` 1 and 2.383; beyond that the figure is flat (`32 ×`:
/// none, 2.383; `1 000 ×`: none, 2.382).  The counts must still fade for a
/// hot set that moved to get in, so the period stays a small multiple past
/// the knee: `32 ×` is about 28 000 offers there, about 20 000 operations.
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
    /// The budget, in entries, the sketch was sized for.
    entries: usize,
}

impl Sketch {
    fn new(entries: usize) -> Self {
        let counters = vec![0; entries * SKETCH_COUNTERS_PER_ENTRY];
        let width = counters.len() / SKETCH_ROWS;
        Sketch {
            counters,
            width,
            entries,
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
    /// Entries below the pinned window, i.e. charged to the byte budget.
    budgeted: usize,
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
        if !self.pinned(node.level) {
            self.budgeted += 1;
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
        if !self.pinned(level) {
            self.budgeted -= 1;
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

    /// Adopt a newly reported root level: images above the root can only
    /// mis-route and are pruned, the budget is re-counted for the shifted
    /// window, and images the shift left without a parent are dropped.
    fn set_root_level(&mut self, root_level: u8) {
        if root_level == self.root_level {
            return;
        }
        self.root_level = root_level;
        if root_level >= 1 {
            for level in (root_level as usize + 1)..self.levels.len() {
                for fence_low in self.levels[level].keys().copied().collect::<Vec<_>>() {
                    self.remove(level as u8, fence_low);
                }
            }
        }
        self.budgeted = (1..self.levels.len())
            .filter(|&l| !self.pinned(l as u8))
            .map(|l| self.levels[l].len())
            .sum();
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

    /// The sketch for a budget of `max` entries, allocated the first time the
    /// budget is full (from then on counts move) and again when the budget
    /// changed.  The sketch's counters and the residents' counts are one
    /// scale, so a new sketch restarts them all: kept across a 4× shrink, the
    /// survivors' counts locked a shifting hot spot out of the smaller budget.
    fn sketch_for(&mut self, max: usize) -> &mut Sketch {
        if self.sketch.as_ref().is_none_or(|s| s.entries != max) {
            for slot in &mut self.slots {
                *slot.uses.get_mut() = 0;
            }
            self.recorded = 0;
            self.sketch = Some(Sketch::new(max));
        }
        self.sketch.as_mut().expect("allocated above")
    }

    /// What the sketch knows of `key` (0 before counts move).
    fn estimate(&self, key: FenceKey) -> u32 {
        self.sketch.as_ref().map_or(0, |s| s.estimate(key).into())
    }

    /// Record an offer of the image `key`, not resident, at a full budget of
    /// `max` entries; returns its estimate.  Every `AGING_PERIOD_PER_ENTRY ×
    /// max` recordings every resident count and every sketch counter halves
    /// first, so what the traffic did long ago fades.
    fn record_offer(&mut self, key: FenceKey, max: usize) -> u32 {
        self.recorded += 1;
        if self.recorded >= AGING_PERIOD_PER_ENTRY * max {
            self.recorded = 0;
            for slot in &mut self.slots {
                *slot.uses.get_mut() /= 2;
            }
            if let Some(sketch) = &mut self.sketch {
                sketch.counters.iter_mut().for_each(|c| *c /= 2);
            }
        }
        self.sketch_for(max).record(key).into()
    }

    /// One power-of-two-choices candidate: a uniformly random slot,
    /// re-drawn while the pick is pinned or still has cached children.
    fn sample_evictable(&mut self) -> Option<usize> {
        // Childless budgeted entries are the large majority of any cache
        // (every parent has several children), so a handful of draws almost
        // always suffices; the scan only backs up a pathological shape.
        for _ in 0..64 {
            let slot = (splitmix(&mut self.rng) % self.slots.len() as u64) as usize;
            if self.evictable(slot) {
                return Some(slot);
            }
        }
        (0..self.slots.len()).find(|&slot| self.evictable(slot))
    }

    /// Power of two choices (§4.2.3): the less used of two random evictable
    /// entries.
    fn pick_victim(&mut self) -> Option<usize> {
        let a = self.sample_evictable()?;
        let b = self.sample_evictable()?;
        Some(if self.uses(b) < self.uses(a) { b } else { a })
    }

    fn evict(&mut self, slot: usize) {
        let node = &self.slots[slot].node;
        self.remove(node.level, node.fence_low);
    }
}

/// The per-compute-server index cache.
///
/// One structure holds internal-node images of every level.  The tree's top
/// two levels are pinned (the paper's type-❷ set, outside the budget); every
/// level below shares one byte budget, spent top-down along the paths the
/// traffic uses:
///
/// * **closure** — an image is admitted only under a cached (or pinned)
///   parent, and only an image with no cached child is evicted, so the cached
///   set is always a top-down prefix of root-to-leaf paths and a miss pays
///   only the uncached suffix;
/// * **admission by frequency** — while the budget has room every offer is
///   admitted; once full, an image is admitted only over a victim that
///   routed strictly fewer lookups, so one-touch traffic cannot flush the
///   budget and a level-1 image cannot push out a level-2 image, which
///   routes the traffic of all its children (TinyLFU admission: Einziger,
///   Friedman and Manes, ACM TOS 2017).  A cached image counts the lookups
///   it answered or lay above; an image not cached counts its offers in a
///   count-min sketch of 4 hashes and 8 one-byte counters per budgeted
///   entry — 8 B per entry, 3 % of a 256 B image.  Every `32 × max_entries`
///   recorded offers every count halves, and a changed budget restarts them;
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

    /// Number of entries charged to the budget (everything below the pinned
    /// top-two window).
    pub fn len(&self) -> usize {
        self.inner.read().budgeted
    }

    /// Whether no entry is charged to the budget.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pinned entries (the top-two window, outside the budget).
    pub fn top_len(&self) -> usize {
        let inner = self.inner.read();
        inner.slots.len() - inner.budgeted
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
    /// has room, has been offered more often than the would-be victim routed
    /// lookups, or already has cached children to route to.
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
            inner.slots[slot].node = node;
            if hi < old.fence_high {
                // The node split: what its right half took with it needs a
                // cached parent of its own.
                for _ in 0..inner.drop_orphans(level, hi, old.fence_high) {
                    self.stats.invalidations.inc();
                }
            }
            return true;
        }
        let mut uses = inner.estimate((level, lo));
        if !inner.pinned(level) {
            if inner.needs_parent(level) && !inner.has_parent(level, lo) {
                return false;
            }
            let max = self.config().max_entries();
            if inner.budgeted >= max && !inner.has_child(level, lo, hi) {
                // Admitting would evict: the image must have been offered
                // more often than the would-be victim routed lookups.  A
                // victim as busy stays; so does the image's own parent,
                // childless until this admission.
                uses = inner.record_offer((level, lo), max);
                let victim = inner.pick_victim().filter(|&victim| {
                    let node = &inner.slots[victim].node;
                    inner.uses(victim) < uses && !(node.level == level + 1 && node.covers(lo))
                });
                let Some(victim) = victim else {
                    self.stats.deferred_admissions.inc();
                    return false;
                };
                inner.evict(victim);
                self.stats.evictions.inc();
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

    /// Evict with the power-of-two-choices rule until the budgeted entry
    /// count fits the live budget (after a shrink, a window shift, or the
    /// admission of an image that arrived with cached children), and start
    /// counting once the budget is full.  `pressure` marks evictions forced
    /// by a runtime budget shrink (they are tallied as *both* ordinary
    /// evictions and [`CacheStats::pressure_evictions`]).
    fn evict_to_budget(&self, inner: &mut Inner, pressure: bool) {
        let max = self.config().max_entries();
        while inner.budgeted > max {
            let Some(victim) = inner.pick_victim() else {
                break;
            };
            inner.evict(victim);
            self.stats.evictions.inc();
            if pressure {
                self.stats.pressure_evictions.inc();
            }
        }
        if inner.budgeted >= max {
            inner.sketch_for(max);
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
        CachedInternal {
            addr: addr(base + 255),
            fence_low: lo,
            fence_high: hi,
            level,
            leftmost: addr(base),
            children: seps
                .iter()
                .enumerate()
                .map(|(i, &separator)| ChildRef {
                    separator,
                    child: addr(base + 1 + i as u64),
                })
                .collect(),
            version: 1,
        }
    }

    fn level1(lo: u64, hi: u64) -> CachedInternal {
        image(1, lo, hi, &[lo + (hi - lo) / 2])
    }

    fn cache_of(entries: usize) -> IndexCache {
        IndexCache::new(IndexCacheConfig::new(entries * 1024, 1024))
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
        assert_eq!(node.child_for(100), node.leftmost);
        assert_eq!(node.child_for(119), node.leftmost);
        assert_eq!(node.child_for(120), node.children[0].child);
        assert_eq!(node.child_for(179), node.children[1].child);
        assert_eq!(node.child_for(199), node.children[2].child);
    }

    #[test]
    fn children_in_range_returns_key_ordered_cover() {
        let node = image(1, 0, u64::MAX, &[10, 20, 30]);
        let child = |i: usize| node.children[i].child;
        assert_eq!(node.children_in_range(12, 25), vec![child(0), child(1)]);
        assert_eq!(node.children_in_range(0, 5), vec![node.leftmost]);
        assert_eq!(
            node.children_in_range(0, 100),
            vec![node.leftmost, child(0), child(1), child(2)]
        );
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let cache = cache_of(1024);
        let a = level1(0, 100);
        cache.insert_level1(a.clone());
        cache.insert_level1(level1(100, 200));

        let (leaf, from) = cache.lookup_leaf(60).unwrap();
        assert_eq!(leaf, a.children[0].child);
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
        assert_eq!(
            (child, level),
            (image(2, 0, 500, &[250]).children[0].child, 1)
        );
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
        cache.set_capacity_bytes(1024);
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
            let uses = inner.record_offer((1, image.fence_low), entries as usize);
            let victim = inner.pick_victim().expect("a full cache has a victim");
            inner.evict(victim);
            inner.insert(image, uses);
        }
        let ns = started.elapsed().as_nanos() as f64 / rounds as f64;
        assert_eq!(inner.budgeted, entries as usize);
        ns
    }

    #[test]
    fn victim_sampling_does_not_grow_with_the_cache() {
        // The two-choice candidates are drawn by slot, not by walking the
        // index: a full 16 MB cache of 256 B entries evicts at the price of a
        // 64-entry one (deeper maps, a wider sketch and colder memory only).
        // Best of five, so a preempted round does not decide it.
        let best = |entries| {
            (0..5)
                .map(|_| evicting_insert_ns(entries))
                .fold(f64::MAX, f64::min)
        };
        let (small, large) = (best(64), best(16_384));
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
                    cache.set_capacity_bytes(8 * 1024);
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
        cache.invalidate_addr(node.children[0].child);
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
        let mut new = old.clone();
        new.children[0].child = addr(77);
        new.version = 2;
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
        cache.set_capacity_bytes(4 * 1024);
        assert_eq!(cache.capacity_bytes(), 4 * 1024);
        assert_eq!(cache.config().max_entries(), 4);
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
        cache.set_capacity_bytes(64 * 1024);
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
}
