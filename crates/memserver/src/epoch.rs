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
//!
//! The registry is one flat list of reader slots.  A pin or an unpin is a
//! store into the reader's own slot and takes no lock; only registering and
//! deregistering a reader write the list, and a reclaim pass reads it to scan
//! the slots — which it does only when a free list's quarantine is non-empty.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel stored in a reader slot that is not currently pinned.
pub const UNPINNED_EPOCH: u64 = u64::MAX;

/// The per-deployment epoch registry: one global epoch counter plus one slot
/// per registered reader.
///
/// Cheap to share (`Arc`); the memory pool owns one and every tree client
/// registers a [`ReaderHandle`] with it.
///
/// **Why a scan without a lock on the slots is safe:** every epoch access is
/// `SeqCst`, so all of them fall into one total order.  The pin protocol
/// stores the pinned epoch into its slot and then re-checks that the global
/// epoch has not moved — retrying the store if it has.  A successful re-check
/// read the global epoch *before* any retirement that stamped an epoch at or
/// above the pinned one advanced it, so the pin's store precedes every such
/// retirement.  A reclaim pass consults the boundary for an address only
/// *after* that address was retired, so its load of the pin's slot comes after
/// the store and observes the pin (or a later unpin, once the reader is done).
/// The argument is per slot; no atomicity across slots is needed, so a scan
/// that loads the slots one at a time is sound.  A reader's slot joins the
/// list in [`EpochRegistry::register`], before its first pin.
#[derive(Debug)]
pub struct EpochRegistry {
    /// The next epoch a retirement will be stamped with.
    global: AtomicU64,
    /// Every registered reader's slot.  Written only by `register` and by a
    /// handle's `Drop`; pins and unpins store into their slot without it.
    readers: RwLock<Vec<Arc<ReaderSlot>>>,
}

#[derive(Debug)]
struct ReaderSlot {
    /// The pinned epoch, `UNPINNED_EPOCH` between operations.
    pinned: AtomicU64,
    /// Nesting depth of live [`EpochPin`] guards on this slot; the slot
    /// unpins only when the count returns to zero, so guards may be dropped
    /// in any order without losing protection or wedging the slot.
    depth: AtomicU64,
}

impl EpochRegistry {
    /// Create an empty registry.  Epochs start at 1 so that epoch 0 never
    /// appears as a retirement stamp.
    pub fn new() -> Arc<Self> {
        Arc::new(EpochRegistry {
            global: AtomicU64::new(1),
            readers: RwLock::new(Vec::new()),
        })
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

    /// Register a new reader with an unpinned slot.
    pub fn register(self: &Arc<Self>) -> ReaderHandle {
        let slot = Arc::new(ReaderSlot {
            pinned: AtomicU64::new(UNPINNED_EPOCH),
            depth: AtomicU64::new(0),
        });
        self.readers.write().push(Arc::clone(&slot));
        ReaderHandle {
            registry: Arc::clone(self),
            slot,
        }
    }

    /// The oldest epoch any registered reader is currently pinned at, or
    /// `None` when no reader is pinned.  A scan of every slot.
    pub fn min_pinned(&self) -> Option<u64> {
        self.readers
            .read()
            .iter()
            .map(|s| s.pinned.load(Ordering::SeqCst))
            .filter(|&e| e != UNPINNED_EPOCH)
            .min()
    }

    /// First epoch that is **not** safe to recycle: every address stamped
    /// strictly below this boundary has no pre-retirement reader left.
    pub fn safe_boundary(&self) -> u64 {
        self.min_pinned().unwrap_or(u64::MAX)
    }

    /// Number of registered readers.
    pub fn registered_readers(&self) -> usize {
        self.readers.read().len()
    }

    /// Number of readers currently inside a pinned section.
    pub fn pinned_readers(&self) -> usize {
        self.readers
            .read()
            .iter()
            .filter(|s| s.pinned.load(Ordering::SeqCst) != UNPINNED_EPOCH)
            .count()
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
    /// The store-and-recheck loop closes the race with retirement: once the
    /// store is made and the global epoch has not moved past it, every later
    /// retirement is stamped at or above the pinned epoch and a reclaim pass
    /// that could recycle it sees the pin (see [`EpochRegistry`]).  If a
    /// retirement moved the epoch between the load and the store, a reclaim
    /// pass may have scanned the slot before the store and recycled what that
    /// retirement freed; the recheck fails and the pin re-establishes above
    /// it — nothing this operation will read was freed under it.
    pub fn pin(&self) -> EpochPin {
        if self.slot.depth.fetch_add(1, Ordering::SeqCst) == 0 {
            loop {
                let e = self.registry.current();
                self.slot.pinned.store(e, Ordering::SeqCst);
                if self.registry.current() == e {
                    break;
                }
            }
        }
        EpochPin {
            slot: Arc::clone(&self.slot),
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
        let mut readers = self.registry.readers.write();
        if let Some(i) = readers.iter().position(|s| Arc::ptr_eq(s, &self.slot)) {
            readers.swap_remove(i);
        }
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
    slot: Arc<ReaderSlot>,
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        if self.slot.depth.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.slot.pinned.store(UNPINNED_EPOCH, Ordering::SeqCst);
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
    fn safe_boundary_is_unbounded_when_idle() {
        let reg = EpochRegistry::new();
        let reader = reg.register();
        assert_eq!(reg.safe_boundary(), u64::MAX);
        let pin = reader.pin();
        assert_eq!(reg.safe_boundary(), 1);
        drop(pin);
        assert_eq!(reg.safe_boundary(), u64::MAX);
    }

    #[test]
    fn pins_on_real_threads_race_retirement_and_reuse() {
        use crate::alloc::{NodeFreeList, Tombstone};
        use sherman_sim::GlobalAddress;
        use std::collections::HashMap;
        use std::sync::atomic::AtomicBool;

        const READERS: usize = 4;
        const REUSES: u64 = 10_000;
        let reg = EpochRegistry::new();
        // The epoch each reader holds a pin at: set after the pin is taken,
        // cleared before it is dropped, so a value here is a live pin.
        let held: Vec<AtomicU64> = (0..READERS)
            .map(|_| AtomicU64::new(UNPINNED_EPOCH))
            .collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for slot in &held {
                let reader = reg.register();
                let done = &done;
                scope.spawn(move || {
                    while !done.load(Ordering::SeqCst) {
                        let pin = reader.pin();
                        slot.store(reader.pinned_epoch().expect("pinned"), Ordering::SeqCst);
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                        slot.store(UNPINNED_EPOCH, Ordering::SeqCst);
                        drop(pin);
                    }
                });
            }
            scope.spawn(|| {
                let mut free_list = NodeFreeList::new(Arc::clone(&reg));
                let mut stamps = HashMap::new();
                let mut violations = Vec::new();
                let (mut now, mut reused) = (0u64, 0u64);
                while reused < REUSES {
                    now += 1;
                    let addr = GlobalAddress::host(0, (now % 64) << 10);
                    stamps
                        .entry(addr)
                        .or_insert_with(|| free_list.retire(addr, Tombstone::unknown(1), now));
                    let Some(node) = free_list.reuse(now) else {
                        continue;
                    };
                    reused += 1;
                    let stamp = stamps.remove(&node.addr).expect("retired before reuse");
                    // A pin taken after this reuse lands above `stamp`, so a
                    // held epoch at or below it was pinned before the
                    // retirement and is still live.
                    for h in &held {
                        let e = h.load(Ordering::SeqCst);
                        if e != UNPINNED_EPOCH && e <= stamp {
                            violations.push((stamp, e));
                        }
                    }
                }
                done.store(true, Ordering::SeqCst);
                assert!(
                    violations.is_empty(),
                    "addresses reused under a live pin (stamp, pinned epoch): {violations:?}"
                );
            });
        });
    }
}
