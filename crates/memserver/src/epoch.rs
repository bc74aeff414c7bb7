//! Epoch-based reclamation (EBR): the per-compute-server reader registry.
//!
//! A fixed quarantine window for freed node addresses is unsafe in principle
//! — a reader stalled longer than any constant can still hold a pointer into
//! the freed node — and wasteful in practice, because addresses idle long
//! after the last reader retires.  This module tracks reader epochs instead:
//!
//! * a global **epoch counter** advances on every retirement, so each retired
//!   address is stamped with the epoch of its retirement,
//! * every tree operation **pins** the current epoch on entry (storing it in
//!   its registered [`ReaderHandle`] slot) and unpins on exit,
//! * an address stamped with epoch `e` may be recycled only once every pinned
//!   reader has pinned an epoch **greater than `e`** — i.e. every operation
//!   that could have observed a pointer to the node before it was unlinked
//!   has finished.
//!
//! The safety argument mirrors classic EBR: a reader that pins *after* a
//! retirement can only discover the node through the current structure, where
//! it is already unlinked and tombstoned (free bit set, versions bumped), so
//! it retries; a reader that pinned *before* the retirement blocks recycling
//! until it unpins.  Under no contention the quarantine is empty the moment
//! the retiring operation completes — reuse is immediate — while a stalled
//! reader defers exactly the addresses retired since it pinned, no more.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel stored in a reader slot that is not currently pinned.
pub const UNPINNED_EPOCH: u64 = u64::MAX;

/// Default number of reader-group shards in an [`EpochRegistry`].
pub const DEFAULT_EPOCH_SHARDS: usize = 8;

/// One reader group: a subset of the registered readers plus its own cached
/// minimum.  Sharding keeps the pin/unpin critical section — a few loads and
/// stores, but previously serialized across *every* reader on one registry
/// mutex — contended only among the readers of one group, which is what a
/// very large client count needs.
#[derive(Debug, Default)]
struct ReaderShard {
    /// The shard's registered readers (`UNPINNED_EPOCH` when a reader is
    /// between operations).
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    /// Cached result of this shard's reader scan, so that the reclaim path's
    /// [`EpochRegistry::min_pinned`] is O(shards) instead of O(readers) per
    /// pass.
    ///
    /// Maintenance is event-driven: an outermost **pin** at epoch `e` folds
    /// `min(cached, e)` into a valid cache (a new pin can only lower the
    /// minimum, and never below any existing pin, because pins always take
    /// the current global epoch); an outermost **unpin** or a reader
    /// deregistration *invalidates* the cache (removing the minimum cannot
    /// be patched in O(1)), and the next `min_pinned` call rescans the shard
    /// once and revalidates.  Every slot `pinned` store happens *inside* this
    /// mutex together with its cache transition, so a shard scan (which also
    /// holds it) always sees slots and cache in agreement — that is what
    /// makes the debug cross-check in `min_pinned` sound.
    min_cache: Mutex<MinPinnedCache>,
}

/// See [`ReaderShard::min_cache`].
#[derive(Debug, Default)]
struct MinPinnedCache {
    /// Whether `min` reflects the shard's current reader set.
    valid: bool,
    /// The shard's oldest pinned epoch, `None` when no reader is pinned.
    min: Option<u64>,
}

/// The per-deployment epoch registry: one global epoch counter plus one slot
/// per registered reader, the readers partitioned into shards.
///
/// Cheap to share (`Arc`); the memory pool owns one and every tree client
/// registers a [`ReaderHandle`] with it.
///
/// **Why the cross-shard minimum is safe without a global lock:** the pin
/// protocol stores the pinned epoch into its slot (under its *own* shard's
/// mutex, together with that shard's cache fold) and then re-checks that the
/// global epoch has not moved — retrying the store if it has.  A successful
/// re-check therefore orders every retirement stamped at or above the pinned
/// epoch *after* the pin's store.  A reclaim pass only consults the boundary
/// for an address *after* that address was retired, so its read of the pin's
/// shard (cached or scanned, under the same shard mutex the store used)
/// happens after the store and must observe the pin.  The argument is
/// per-slot and per-shard; no atomicity across shards is needed, so taking
/// the minimum over shard minima read one at a time is sound.
#[derive(Debug)]
pub struct EpochRegistry {
    /// The next epoch a retirement will be stamped with.
    global: AtomicU64,
    /// The reader groups; a reader's shard is fixed at registration
    /// (round-robin assignment keeps the groups balanced).
    shards: Box<[ReaderShard]>,
    /// Round-robin cursor for shard assignment.
    next_shard: AtomicUsize,
}

#[derive(Debug)]
struct ReaderSlot {
    pinned: AtomicU64,
    /// Nesting depth of live [`EpochPin`] guards on this slot; the slot
    /// unpins only when the count returns to zero, so guards may be dropped
    /// in any order without losing protection or wedging the slot.
    depth: AtomicU64,
}

impl EpochRegistry {
    /// Create a registry with [`DEFAULT_EPOCH_SHARDS`] reader groups.
    /// Epochs start at 1 so that epoch 0 never appears as a retirement stamp.
    pub fn new() -> Arc<Self> {
        Self::with_shards(DEFAULT_EPOCH_SHARDS)
    }

    /// Create a registry with `shards` reader groups (at least 1).
    pub fn with_shards(shards: usize) -> Arc<Self> {
        let shards = shards.max(1);
        let mut groups = Vec::with_capacity(shards);
        groups.resize_with(shards, ReaderShard::default);
        Arc::new(EpochRegistry {
            global: AtomicU64::new(1),
            shards: groups.into_boxed_slice(),
            next_shard: AtomicUsize::new(0),
        })
    }

    /// Number of reader-group shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The epoch the next retirement will be stamped with.
    pub fn current(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Stamp one retirement: returns the epoch for the retired address and
    /// advances the global epoch past it.
    pub fn retire_epoch(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst)
    }

    /// Register a new reader with an unpinned slot, assigning it to the next
    /// shard round-robin.
    pub fn register(self: &Arc<Self>) -> ReaderHandle {
        let slot = Arc::new(ReaderSlot {
            pinned: AtomicU64::new(UNPINNED_EPOCH),
            depth: AtomicU64::new(0),
        });
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].readers.lock().push(Arc::clone(&slot));
        ReaderHandle {
            registry: Arc::clone(self),
            slot,
            shard,
        }
    }

    /// The oldest epoch any registered reader is currently pinned at, or
    /// `None` when no reader is pinned.
    ///
    /// O(shards) between unpins: each shard serves its cached minimum and is
    /// only rescanned after an invalidation (outermost unpin or
    /// deregistration in that shard, or a pin that had to retry its epoch).
    /// Debug builds re-scan each shard on the fast path too and assert that
    /// the cached and scanned values agree — sound because every slot store
    /// happens under the same shard mutex the scan holds.
    pub fn min_pinned(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|shard| self.shard_min(shard))
            .min()
    }

    /// One shard's oldest pinned epoch (cached, revalidating on demand).
    fn shard_min(&self, shard: &ReaderShard) -> Option<u64> {
        let mut cache = shard.min_cache.lock();
        if cache.valid {
            let cached = cache.min;
            #[cfg(debug_assertions)]
            {
                let scanned = Self::scan_shard(shard);
                debug_assert_eq!(
                    cached, scanned,
                    "cached min-pinned epoch diverged from the shard's reader scan"
                );
            }
            return cached;
        }
        let scanned = Self::scan_shard(shard);
        cache.min = scanned;
        cache.valid = true;
        scanned
    }

    /// Full O(shard readers) scan of one shard's pinned-epoch slots.
    fn scan_shard(shard: &ReaderShard) -> Option<u64> {
        shard
            .readers
            .lock()
            .iter()
            .map(|s| s.pinned.load(Ordering::SeqCst))
            .filter(|&e| e != UNPINNED_EPOCH)
            .min()
    }

    /// Store `epoch` into `slot` and update its shard's cached minimum in the
    /// same critical section.  A first (outermost) pin only ever *lowers* the
    /// minimum, so it folds in O(1); a retry raises this slot's own earlier
    /// store, which cannot be patched in O(1) — invalidate and let the next
    /// `min_pinned` rescan the shard (retries only happen when a retirement
    /// raced the pin, so this stays off the common path).
    fn store_pin(&self, shard: usize, slot: &ReaderSlot, epoch: u64, first_attempt: bool) {
        let mut cache = self.shards[shard].min_cache.lock();
        slot.pinned.store(epoch, Ordering::SeqCst);
        if cache.valid {
            if first_attempt {
                cache.min = Some(cache.min.map_or(epoch, |m| m.min(epoch)));
            } else {
                cache.valid = false;
            }
        }
    }

    /// Clear `slot` (outermost unpin) and invalidate its shard's cached
    /// minimum in the same critical section.
    fn store_unpin(&self, shard: usize, slot: &ReaderSlot) {
        let mut cache = self.shards[shard].min_cache.lock();
        slot.pinned.store(UNPINNED_EPOCH, Ordering::SeqCst);
        cache.valid = false;
    }

    /// Invalidate one shard's cached minimum (reader deregistration).
    fn invalidate_min(&self, shard: usize) {
        self.shards[shard].min_cache.lock().valid = false;
    }

    /// First epoch that is **not** safe to recycle: every address stamped
    /// strictly below this boundary has no pre-retirement reader left.
    pub fn safe_boundary(&self) -> u64 {
        self.min_pinned().unwrap_or(u64::MAX)
    }

    /// Number of registered readers.
    pub fn registered_readers(&self) -> usize {
        self.shards.iter().map(|s| s.readers.lock().len()).sum()
    }

    /// Number of readers currently inside a pinned section.
    pub fn pinned_readers(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .readers
                    .lock()
                    .iter()
                    .filter(|s| s.pinned.load(Ordering::SeqCst) != UNPINNED_EPOCH)
                    .count()
            })
            .sum()
    }
}

/// A registered reader's handle: owns this reader's pinned-epoch slot.
///
/// One per tree client (or per explicitly-registered observer).  Dropping the
/// handle deregisters the reader; any retired addresses it was blocking
/// become recyclable.
#[derive(Debug)]
pub struct ReaderHandle {
    registry: Arc<EpochRegistry>,
    slot: Arc<ReaderSlot>,
    shard: usize,
}

impl ReaderHandle {
    /// Pin the current global epoch for the duration of the returned guard.
    ///
    /// Pins nest by depth counting: only the outermost pin records an epoch,
    /// inner pins leave the (older) value in place — an operation that pins
    /// inside an already-pinned section must not advance its own slot, or the
    /// outer operation's references would lose protection.  The slot unpins
    /// when the last guard drops, in whatever order the guards are dropped.
    ///
    /// The store-and-recheck loop closes the registration race: once the
    /// store is visible and the global epoch has not moved past it, every
    /// later retirement is stamped at or above the pinned epoch and therefore
    /// cannot be recycled under this pin.  Each store updates the cached
    /// minimum in the same critical section (`store_pin`), *inside* the loop
    /// and before the recheck: if a reclaim pass consulted the stale cache
    /// while a retirement advanced the epoch past our store, the recheck
    /// fails and the pin re-establishes above everything that pass could
    /// have recycled — nothing this operation will read was freed under it.
    pub fn pin(&self) -> EpochPin {
        if self.slot.depth.fetch_add(1, Ordering::SeqCst) == 0 {
            let mut first_attempt = true;
            loop {
                let e = self.registry.current();
                self.registry
                    .store_pin(self.shard, &self.slot, e, first_attempt);
                first_attempt = false;
                if self.registry.current() == e {
                    break;
                }
            }
        }
        EpochPin {
            registry: Arc::clone(&self.registry),
            slot: Arc::clone(&self.slot),
            shard: self.shard,
        }
    }

    /// The epoch this reader is currently pinned at, if any.
    pub fn pinned_epoch(&self) -> Option<u64> {
        match self.slot.pinned.load(Ordering::SeqCst) {
            UNPINNED_EPOCH => None,
            e => Some(e),
        }
    }

    /// The registry this reader is registered with.
    pub fn registry(&self) -> &Arc<EpochRegistry> {
        &self.registry
    }
}

impl Drop for ReaderHandle {
    fn drop(&mut self) {
        {
            let mut readers = self.registry.shards[self.shard].readers.lock();
            if let Some(i) = readers.iter().position(|s| Arc::ptr_eq(s, &self.slot)) {
                readers.swap_remove(i);
            }
        }
        // The departed slot may have carried its shard's cached minimum (its
        // pin, if any, no longer counts once deregistered); rescan on demand.
        self.registry.invalidate_min(self.shard);
    }
}

/// Guard for one pinned section; the slot unpins when the last guard drops.
///
/// Owns its slot, so it does not borrow the [`ReaderHandle`] (a client can
/// keep mutating itself while pinned).  Nested guards may be dropped in any
/// order: the slot stays pinned at the outermost epoch until every guard is
/// gone.
#[derive(Debug)]
pub struct EpochPin {
    registry: Arc<EpochRegistry>,
    slot: Arc<ReaderSlot>,
    shard: usize,
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        if self.slot.depth.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Clearing the slot and invalidating its shard's cached minimum
            // happen in one critical section; removing a pin can only *raise*
            // the true minimum, and the next `min_pinned` rescan catches up.
            self.registry.store_unpin(self.shard, &self.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_tracks_the_global_epoch() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        assert_eq!(reg.current(), 1);
        assert_eq!(reg.min_pinned(), None);

        let pin = reader.pin();
        assert_eq!(reader.pinned_epoch(), Some(1));
        assert_eq!(reg.min_pinned(), Some(1));
        assert_eq!(reg.pinned_readers(), 1);

        // Retirements advance the global epoch; the pin stays put.
        assert_eq!(reg.retire_epoch(), 1);
        assert_eq!(reg.retire_epoch(), 2);
        assert_eq!(reg.current(), 3);
        assert_eq!(reg.min_pinned(), Some(1));

        drop(pin);
        assert_eq!(reg.min_pinned(), None);
        assert_eq!(reg.pinned_readers(), 0);

        // A fresh pin lands on the advanced epoch.
        let pin2 = reader.pin();
        assert_eq!(reader.pinned_epoch(), Some(3));
        drop(pin2);
    }

    #[test]
    fn min_pinned_is_the_oldest_reader() {
        let reg = EpochRegistry::new();
        let a = reg.register();
        let b = reg.register();
        let pin_a = a.pin(); // epoch 1
        reg.retire_epoch();
        reg.retire_epoch();
        let pin_b = b.pin(); // epoch 3
        assert_eq!(reg.min_pinned(), Some(1));
        drop(pin_a);
        assert_eq!(reg.min_pinned(), Some(3));
        drop(pin_b);
        assert_eq!(reg.min_pinned(), None);
    }

    #[test]
    fn nested_pins_keep_the_outer_epoch() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        let outer = reader.pin();
        assert_eq!(reader.pinned_epoch(), Some(1));
        reg.retire_epoch();
        {
            let _inner = reader.pin();
            // The inner pin must not advance the slot past the outer pin.
            assert_eq!(reader.pinned_epoch(), Some(1));
        }
        assert_eq!(reader.pinned_epoch(), Some(1), "inner drop keeps the outer pin");
        drop(outer);
        assert_eq!(reader.pinned_epoch(), None);
    }

    #[test]
    fn nested_pins_survive_out_of_order_drops() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        let outer = reader.pin();
        let inner = reader.pin();
        // Dropping the *outer* guard first must neither unpin the slot (the
        // inner section still needs protection) nor wedge it pinned forever.
        drop(outer);
        assert_eq!(reader.pinned_epoch(), Some(1), "inner guard keeps the pin");
        drop(inner);
        assert_eq!(reader.pinned_epoch(), None, "last guard out unpins");
        // The slot is reusable afterwards.
        reg.retire_epoch();
        let again = reader.pin();
        assert_eq!(reader.pinned_epoch(), Some(2));
        drop(again);
    }

    #[test]
    fn cached_minimum_tracks_pins_unpins_and_interleavings() {
        let reg = EpochRegistry::new();
        let a = reg.register();
        let b = reg.register();

        // Warm the cache while idle, then pin: the fold must land without an
        // invalidation in between (debug builds cross-check every fast-path
        // read against a full scan).
        assert_eq!(reg.min_pinned(), None);
        let pin_a = a.pin();
        assert_eq!(reg.min_pinned(), Some(1));
        reg.retire_epoch();
        reg.retire_epoch();
        // A later pin folds in above the existing minimum.
        let pin_b = b.pin();
        assert_eq!(reg.min_pinned(), Some(1));
        // Unpinning the minimum invalidates; the rescan finds the survivor.
        drop(pin_a);
        assert_eq!(reg.min_pinned(), Some(3));
        // Re-pinning after a validated rescan folds correctly again.
        let pin_a2 = a.pin();
        assert_eq!(reg.min_pinned(), Some(3));
        drop(pin_b);
        assert_eq!(reg.min_pinned(), Some(3), "a's re-pin still holds epoch 3");
        drop(pin_a2);
        assert_eq!(reg.min_pinned(), None);
    }

    #[test]
    fn deregistration_releases_the_pin() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        let pin = reader.pin();
        assert_eq!(reg.registered_readers(), 1);
        // Dropping the handle (even with a live pin guard) deregisters: the
        // guard only touches its own slot, which the registry no longer
        // consults.
        drop(reader);
        assert_eq!(reg.registered_readers(), 0);
        assert_eq!(reg.min_pinned(), None);
        drop(pin);
    }

    #[test]
    fn readers_spread_across_shards_and_minimum_spans_them() {
        let reg = EpochRegistry::with_shards(2);
        assert_eq!(reg.shards(), 2);
        // Four readers land two per shard (round-robin).
        let readers: Vec<_> = (0..4).map(|_| reg.register()).collect();
        assert_eq!(reg.registered_readers(), 4);
        for shard in reg.shards.iter() {
            assert_eq!(shard.readers.lock().len(), 2);
        }
        // Pins in different shards all feed the cross-shard minimum.
        let pin_a = readers[0].pin(); // shard 0, epoch 1
        reg.retire_epoch();
        let pin_b = readers[1].pin(); // shard 1, epoch 2
        reg.retire_epoch();
        let pin_c = readers[2].pin(); // shard 0, epoch 3
        assert_eq!(reg.min_pinned(), Some(1));
        assert_eq!(reg.pinned_readers(), 3);
        // Unpinning the oldest promotes the next-oldest across shards.
        drop(pin_a);
        assert_eq!(reg.min_pinned(), Some(2));
        drop(pin_b);
        assert_eq!(reg.min_pinned(), Some(3));
        drop(pin_c);
        assert_eq!(reg.min_pinned(), None);
    }

    #[test]
    fn single_shard_registry_still_works() {
        let reg = EpochRegistry::with_shards(1);
        let a = reg.register();
        let b = reg.register();
        let pin_a = a.pin();
        reg.retire_epoch();
        let pin_b = b.pin();
        assert_eq!(reg.min_pinned(), Some(1));
        drop(pin_a);
        assert_eq!(reg.min_pinned(), Some(2));
        drop(pin_b);
        // Zero-shard requests clamp to one.
        assert_eq!(EpochRegistry::with_shards(0).shards(), 1);
    }

    #[test]
    fn safe_boundary_is_unbounded_when_idle() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        assert_eq!(reg.safe_boundary(), u64::MAX);
        let pin = reader.pin();
        assert_eq!(reg.safe_boundary(), 1);
        drop(pin);
        assert_eq!(reg.safe_boundary(), u64::MAX);
    }
}
