//! Per-server fixed-size chunk allocator and the node-grained free list.
//!
//! The memory thread on each memory server divides host DRAM into fixed-length
//! chunks (8 MB in the paper) and hands them to compute servers on request
//! (§4.2.4).  Because every allocation is chunk-sized, the allocator is a bump
//! pointer plus a free list; there is no fragmentation to manage.
//!
//! The paper stops there — deallocation only clears a node's free bit and the
//! space is never reused.  [`NodeFreeList`] goes further: node addresses
//! retired by structural deletes (leaf/internal merges, root collapses) are
//! quarantined until no lock-free reader can still hold a pointer into them,
//! then become allocatable again.  Epoch-based reclamation decides when that
//! is: addresses are bucketed by retirement epoch (see [`crate::epoch`]) and
//! a bucket is recycled only once every pinned reader has advanced past it.
//! Reuse is immediate under no contention and provably deferred while a
//! pre-retirement reader is still pinned.
//!
//! The retired node is written as a tombstone first — free bit set, versions
//! bumped — so any reader that raced the unlinking fails validation and
//! restarts.  The free list additionally remembers each
//! tombstone's node-level version so that the next writer of the address can
//! seed its image *above* it: versions always bump across reuse, which keeps
//! torn old/new images distinguishable (the ABA hazard).

use crate::epoch::EpochRegistry;
use crate::layout::ALLOC_START_OFFSET;
use sherman_sim::GlobalAddress;
use std::collections::VecDeque;
use std::sync::Arc;

/// Allocator state owned by one memory server's management thread.
#[derive(Debug)]
pub struct ChunkAllocator {
    chunk_bytes: u64,
    limit: u64,
    next: u64,
    free: Vec<u64>,
    allocated: u64,
}

impl ChunkAllocator {
    /// Create an allocator over `host_bytes` of server memory, carving
    /// `chunk_bytes` chunks starting after the superblock.
    pub fn new(host_bytes: u64, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        ChunkAllocator {
            chunk_bytes,
            limit: host_bytes,
            next: ALLOC_START_OFFSET,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Number of chunks currently handed out.
    pub fn allocated_chunks(&self) -> u64 {
        self.allocated
    }

    /// Number of additional chunks that can still be handed out.
    pub fn remaining_chunks(&self) -> u64 {
        let fresh = (self.limit.saturating_sub(self.next)) / self.chunk_bytes;
        fresh + self.free.len() as u64
    }

    /// Allocate one chunk, returning its starting offset, or `None` when the
    /// server is out of memory.
    pub fn alloc(&mut self) -> Option<u64> {
        if let Some(offset) = self.free.pop() {
            self.allocated += 1;
            return Some(offset);
        }
        if self.next + self.chunk_bytes > self.limit {
            return None;
        }
        let offset = self.next;
        self.next += self.chunk_bytes;
        self.allocated += 1;
        Some(offset)
    }

    /// Return a chunk to the allocator.
    ///
    /// Only whole chunks previously returned by [`ChunkAllocator::alloc`] may
    /// be freed; the offset is validated in debug builds.
    pub fn free(&mut self, offset: u64) {
        debug_assert!(offset >= ALLOC_START_OFFSET);
        debug_assert_eq!((offset - ALLOC_START_OFFSET) % self.chunk_bytes, 0);
        debug_assert!(offset + self.chunk_bytes <= self.limit);
        self.allocated = self.allocated.saturating_sub(1);
        self.free.push(offset);
    }
}

/// Summary of one server's node free list (observability and tests).
///
/// Reclaim latency is reported as **two** figures because a retired address
/// passes two gates on its way back into circulation:
///
/// * **retire→eligible** — from retirement to the moment the last
///   pre-retirement epoch pin is gone.  This isolates the scheme's own
///   contribution,
/// * **retire→reuse** — from retirement to the address actually being handed
///   to an allocator.  This is *demand-inclusive*: an address can sit ready
///   for a long time simply because nobody allocated, so this figure bounds
///   the first from above but also reflects the workload's cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeListStats {
    /// Node addresses retired so far.
    pub retired: u64,
    /// Retired addresses handed back out to allocators.
    pub reused: u64,
    /// Addresses still quarantined (not yet cleared for reuse).
    pub quarantined: u64,
    /// Addresses cleared for reuse but not yet handed out.
    pub ready: u64,
    /// Sum of retire→reuse distances (virtual ns) over every reuse.
    pub reclaim_latency_sum_ns: u64,
    /// Largest retire→reuse distance (virtual ns) seen so far.
    pub reclaim_latency_max_ns: u64,
    /// Smallest retire→reuse distance (virtual ns) seen so far
    /// (`u64::MAX` until something was reused).
    pub reclaim_latency_min_ns: u64,
    /// Sum of retire→eligible distances (virtual ns) over every address that
    /// cleared quarantine (`reused + ready` of them).
    pub eligible_latency_sum_ns: u64,
    /// Largest retire→eligible distance (virtual ns) seen so far.
    pub eligible_latency_max_ns: u64,
    /// Smallest retire→eligible distance (virtual ns) seen so far
    /// (`u64::MAX` until something cleared quarantine).
    pub eligible_latency_min_ns: u64,
}

impl Default for FreeListStats {
    fn default() -> Self {
        FreeListStats {
            retired: 0,
            reused: 0,
            quarantined: 0,
            ready: 0,
            reclaim_latency_sum_ns: 0,
            reclaim_latency_max_ns: 0,
            reclaim_latency_min_ns: u64::MAX,
            eligible_latency_sum_ns: 0,
            eligible_latency_max_ns: 0,
            eligible_latency_min_ns: u64::MAX,
        }
    }
}

impl FreeListStats {
    /// Merge per-server stats into a cluster-wide total.
    pub fn merge(&mut self, other: &FreeListStats) {
        self.retired += other.retired;
        self.reused += other.reused;
        self.quarantined += other.quarantined;
        self.ready += other.ready;
        self.reclaim_latency_sum_ns += other.reclaim_latency_sum_ns;
        self.reclaim_latency_max_ns = self.reclaim_latency_max_ns.max(other.reclaim_latency_max_ns);
        self.reclaim_latency_min_ns = self.reclaim_latency_min_ns.min(other.reclaim_latency_min_ns);
        self.eligible_latency_sum_ns += other.eligible_latency_sum_ns;
        self.eligible_latency_max_ns =
            self.eligible_latency_max_ns.max(other.eligible_latency_max_ns);
        self.eligible_latency_min_ns =
            self.eligible_latency_min_ns.min(other.eligible_latency_min_ns);
    }

    /// Addresses that have cleared quarantine (eligible for reuse), whether
    /// or not an allocator has taken them yet.
    pub fn eligible(&self) -> u64 {
        self.reused + self.ready
    }

    /// Mean retire→reuse distance in virtual ns (zero when nothing was
    /// reused yet).  Demand-inclusive; see the type-level docs.
    pub fn mean_reclaim_latency_ns(&self) -> f64 {
        if self.reused == 0 {
            0.0
        } else {
            self.reclaim_latency_sum_ns as f64 / self.reused as f64
        }
    }

    /// Mean retire→eligible distance in virtual ns (zero when nothing has
    /// cleared quarantine yet).  Isolates the reclamation scheme from the
    /// workload's allocation demand.
    pub fn mean_eligible_latency_ns(&self) -> f64 {
        if self.eligible() == 0 {
            0.0
        } else {
            self.eligible_latency_sum_ns as f64 / self.eligible() as f64
        }
    }
}

/// One retired node address awaiting reclamation (or, in the ready pool,
/// awaiting demand).
#[derive(Debug, Clone, Copy)]
struct Retired {
    addr: GlobalAddress,
    /// Retirement epoch.  Monotone within the queue, so the front is always
    /// first to clear quarantine.
    stamp: u64,
    /// Virtual time of retirement (for the retire→reuse latency figure).
    retired_at_ns: u64,
    /// Node-level version of the tombstone written at the address; the next
    /// writer must seed its image above this so versions bump across reuse.
    tombstone_version: u8,
}

/// A node address cleared for reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReusedNode {
    /// The recycled address.
    pub addr: GlobalAddress,
    /// Node-level version of the tombstone currently stored there; new
    /// images written at `addr` must use a version strictly above it.
    pub tombstone_version: u8,
}

/// A per-memory-server free list of retired node addresses.
///
/// `retire` stamps the address with its retirement epoch; `reuse` only hands
/// an address back once every lock-free reader that could still hold a
/// pointer to the node is gone.
#[derive(Debug)]
pub struct NodeFreeList {
    registry: Arc<EpochRegistry>,
    quarantine: VecDeque<Retired>,
    ready: Vec<Retired>,
    retired: u64,
    reused: u64,
    latency_sum_ns: u64,
    latency_max_ns: u64,
    latency_min_ns: u64,
    eligible_sum_ns: u64,
    eligible_max_ns: u64,
    eligible_min_ns: u64,
}

impl NodeFreeList {
    /// Create an empty free list whose quarantine follows `registry`'s
    /// reader epochs.
    pub fn new(registry: Arc<EpochRegistry>) -> Self {
        NodeFreeList {
            registry,
            quarantine: VecDeque::new(),
            ready: Vec::new(),
            retired: 0,
            reused: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
            latency_min_ns: u64::MAX,
            eligible_sum_ns: 0,
            eligible_max_ns: 0,
            eligible_min_ns: u64::MAX,
        }
    }

    /// Retire a node address at virtual time `now`.  `tombstone_version` is
    /// the node-level version of the tombstone image written at the address.
    /// Returns the retirement epoch the address was quarantined under.
    pub fn retire(&mut self, addr: GlobalAddress, tombstone_version: u8, now: u64) -> u64 {
        self.retired += 1;
        let stamp = self.registry.retire_epoch();
        self.quarantine.push_back(Retired {
            addr,
            stamp,
            retired_at_ns: now,
            tombstone_version,
        });
        // Sweep the quarantine on retire as well as on reuse, so the
        // retire→eligible figure is stamped close to the moment the last pin
        // actually goes rather than when demand next asks (with no pinned
        // reader the just-retired address becomes eligible right here, at
        // latency zero).
        self.reclaim(now);
        stamp
    }

    /// Move every quarantined address no pinned reader can still reach into
    /// the ready pool.
    fn reclaim(&mut self, now: u64) {
        // This sits on the per-allocation hot path: bail before touching the
        // epoch registry when there is nothing to reclaim.
        if self.quarantine.is_empty() {
            return;
        }
        // Everything stamped strictly below the oldest pin is safe.  The
        // boundary is read once per reclaim pass; that is sound because it
        // can only have *grown* since any earlier pass (a reader pinning
        // later lands at or above the current global epoch, which is above
        // every existing stamp).
        let boundary = self.registry.safe_boundary();
        while self.quarantine.front().is_some_and(|r| r.stamp < boundary) {
            let r = self.quarantine.pop_front().expect("front exists");
            let eligible_latency = now.saturating_sub(r.retired_at_ns);
            self.eligible_sum_ns += eligible_latency;
            self.eligible_max_ns = self.eligible_max_ns.max(eligible_latency);
            self.eligible_min_ns = self.eligible_min_ns.min(eligible_latency);
            self.ready.push(r);
        }
    }

    /// Take one reusable node address, if any has cleared quarantine (`now`,
    /// the caller's virtual time, only feeds the latency figures).
    pub fn reuse(&mut self, now: u64) -> Option<ReusedNode> {
        self.reclaim(now);
        let r = self.ready.pop()?;
        self.reused += 1;
        let latency = now.saturating_sub(r.retired_at_ns);
        self.latency_sum_ns += latency;
        self.latency_max_ns = self.latency_max_ns.max(latency);
        self.latency_min_ns = self.latency_min_ns.min(latency);
        Some(ReusedNode {
            addr: r.addr,
            tombstone_version: r.tombstone_version,
        })
    }

    /// Quarantined addresses whose recycling is currently blocked by a pinned
    /// reader.
    pub fn pinned_buckets(&self) -> u64 {
        let boundary = self.registry.safe_boundary();
        self.quarantine.iter().filter(|r| r.stamp >= boundary).count() as u64
    }

    /// Current counters.
    pub fn stats(&self) -> FreeListStats {
        FreeListStats {
            retired: self.retired,
            reused: self.reused,
            quarantined: self.quarantine.len() as u64,
            ready: self.ready.len() as u64,
            reclaim_latency_sum_ns: self.latency_sum_ns,
            reclaim_latency_max_ns: self.latency_max_ns,
            reclaim_latency_min_ns: self.latency_min_ns,
            eligible_latency_sum_ns: self.eligible_sum_ns,
            eligible_latency_max_ns: self.eligible_max_ns,
            eligible_latency_min_ns: self.eligible_min_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_chunk_aligned_and_disjoint() {
        let mut a = ChunkAllocator::new(1 << 20, 64 << 10);
        let mut seen = Vec::new();
        while let Some(off) = a.alloc() {
            assert!(off >= ALLOC_START_OFFSET);
            assert_eq!((off - ALLOC_START_OFFSET) % (64 << 10), 0);
            assert!(!seen.contains(&off));
            seen.push(off);
        }
        // 1 MiB minus the superblock yields 15 full 64 KiB chunks.
        assert_eq!(seen.len(), 15);
        assert_eq!(a.remaining_chunks(), 0);
        assert_eq!(a.allocated_chunks(), 15);
    }

    #[test]
    fn freed_chunks_are_reused() {
        let mut a = ChunkAllocator::new(1 << 20, 256 << 10);
        let first = a.alloc().unwrap();
        let _second = a.alloc().unwrap();
        a.free(first);
        assert_eq!(a.alloc().unwrap(), first);
    }

    #[test]
    fn exhaustion_returns_none_not_panic() {
        let mut a = ChunkAllocator::new(8 << 10, 8 << 10);
        // Chunk does not fit after the superblock.
        assert!(a.alloc().is_none());
        assert_eq!(a.remaining_chunks(), 0);
    }

    #[test]
    fn remaining_counts_both_fresh_and_freed() {
        let mut a = ChunkAllocator::new((64 << 10) * 4 + ALLOC_START_OFFSET, 64 << 10);
        assert_eq!(a.remaining_chunks(), 4);
        let x = a.alloc().unwrap();
        assert_eq!(a.remaining_chunks(), 3);
        a.free(x);
        assert_eq!(a.remaining_chunks(), 4);
    }

    #[test]
    fn node_free_list_enforces_grace_period() {
        // The grace period of epoch-based reclamation: it lasts exactly as
        // long as a reader pinned before the retirement stays pinned.
        let registry = EpochRegistry::new();
        let reader = registry.register();
        let pin = reader.pin();
        let mut fl = NodeFreeList::new(Arc::clone(&registry));
        let a = GlobalAddress::host(0, 8 << 10);
        let b = GlobalAddress::host(0, 16 << 10);
        fl.retire(a, 1, 100);
        fl.retire(b, 1, 200);
        // Inside the grace period nothing is reusable.
        assert_eq!(fl.reuse(500), None);
        assert_eq!(fl.stats().quarantined, 2);
        // After it both become available (LIFO from the ready pool keeps
        // recently-hot addresses warm).
        drop(pin);
        assert_eq!(fl.reuse(1_100).map(|r| r.addr), Some(b));
        assert_eq!(fl.reuse(1_300).map(|r| r.addr), Some(a));
        assert_eq!(fl.reuse(10_000), None);
        let s = fl.stats();
        assert_eq!((s.retired, s.reused, s.quarantined, s.ready), (2, 2, 0, 0));
        // Retire→reuse latencies: 1_100-200 and 1_300-100.
        assert_eq!(s.reclaim_latency_sum_ns, 900 + 1_200);
        assert_eq!(s.reclaim_latency_max_ns, 1_200);
        assert_eq!(s.reclaim_latency_min_ns, 900);
        assert!((s.mean_reclaim_latency_ns() - 1_050.0).abs() < 1e-9);
        // Both cleared quarantine in the sweep at 1_100, the first one after
        // the pin went.
        assert_eq!(s.eligible(), 2);
        assert_eq!(s.eligible_latency_sum_ns, 900 + 1_000);
        assert_eq!(s.eligible_latency_max_ns, 1_000);
        assert_eq!(s.eligible_latency_min_ns, 900);
        // The demand-inclusive figure always dominates the eligibility one.
        assert!(s.reclaim_latency_sum_ns >= s.eligible_latency_sum_ns);
    }

    #[test]
    fn eligible_latency_isolates_the_scheme_from_demand() {
        // Epoch policy, nobody pinned: an address is eligible the moment it
        // retires, however long demand takes to arrive.
        let mut fl = NodeFreeList::new(EpochRegistry::new());
        fl.retire(GlobalAddress::host(0, 8 << 10), 1, 1_000);
        let s = fl.stats();
        assert_eq!((s.quarantined, s.ready), (0, 1), "eligible at retire time");
        assert_eq!(s.eligible_latency_max_ns, 0);
        // Demand arrives much later: retire→reuse records the wait, the
        // retire→eligible figure stays at zero.
        assert!(fl.reuse(50_000).is_some());
        let s = fl.stats();
        assert_eq!(s.reclaim_latency_min_ns, 49_000);
        assert_eq!(s.eligible_latency_max_ns, 0);
    }

    #[test]
    fn node_free_list_tolerates_out_of_order_timestamps() {
        // Two clients can observe slightly different virtual times, so an
        // address may be reused "before" it was retired: order comes from
        // the epochs, and the latency figures saturate at zero.
        let mut fl = NodeFreeList::new(EpochRegistry::new());
        fl.retire(GlobalAddress::host(0, 8 << 10), 1, 5_000);
        fl.retire(GlobalAddress::host(0, 16 << 10), 1, 4_000);
        assert!(fl.reuse(4_500).is_some());
        assert!(fl.reuse(4_500).is_some());
        let s = fl.stats();
        assert_eq!((s.reclaim_latency_min_ns, s.reclaim_latency_max_ns), (0, 500));
        assert_eq!(s.eligible_latency_max_ns, 0);
    }

    #[test]
    fn epoch_policy_reuses_immediately_when_no_reader_is_pinned() {
        let mut fl = NodeFreeList::new(EpochRegistry::new());
        let a = GlobalAddress::host(0, 8 << 10);
        let stamp = fl.retire(a, 7, 1_000);
        assert_eq!(stamp, 1, "first retirement is stamped with epoch 1");
        // No pinned reader: the very next reuse attempt succeeds, regardless
        // of how little virtual time has passed.
        let reused = fl.reuse(1_000).expect("idle reclamation is immediate");
        assert_eq!(reused.addr, a);
        assert_eq!(reused.tombstone_version, 7);
        assert_eq!(fl.stats().reclaim_latency_max_ns, 0, "retire→reuse distance is zero");
    }

    #[test]
    fn epoch_policy_defers_reuse_behind_a_pinned_reader() {
        let registry = EpochRegistry::new();
        let reader = registry.register();
        let mut fl = NodeFreeList::new(Arc::clone(&registry));
        let a = GlobalAddress::host(0, 8 << 10);
        let b = GlobalAddress::host(0, 16 << 10);

        // `a` retires before the reader pins: recyclable even during the pin.
        fl.retire(a, 1, 100);
        let pin = reader.pin();
        // `b` retires while the reader is pinned: blocked until it unpins.
        fl.retire(b, 1, 200);
        assert_eq!(fl.pinned_buckets(), 1);
        assert_eq!(fl.reuse(10_000).map(|r| r.addr), Some(a));
        assert_eq!(fl.reuse(1 << 40), None, "no amount of virtual time unblocks b");
        drop(pin);
        assert_eq!(fl.reuse(1 << 40).map(|r| r.addr), Some(b));
        assert_eq!(fl.pinned_buckets(), 0);
    }

    #[test]
    fn free_list_stats_merge_adds_fields() {
        let mut a = FreeListStats {
            retired: 1,
            reused: 2,
            quarantined: 3,
            ready: 4,
            reclaim_latency_sum_ns: 100,
            reclaim_latency_max_ns: 60,
            reclaim_latency_min_ns: 40,
            eligible_latency_sum_ns: 50,
            eligible_latency_max_ns: 30,
            eligible_latency_min_ns: 20,
        };
        a.merge(&FreeListStats {
            retired: 10,
            reused: 20,
            quarantined: 30,
            ready: 40,
            reclaim_latency_sum_ns: 1_000,
            reclaim_latency_max_ns: 900,
            reclaim_latency_min_ns: 12,
            eligible_latency_sum_ns: 500,
            eligible_latency_max_ns: 450,
            eligible_latency_min_ns: 6,
        });
        assert_eq!(a.retired, 11);
        assert_eq!(a.reused, 22);
        assert_eq!(a.quarantined, 33);
        assert_eq!(a.ready, 44);
        assert_eq!(a.reclaim_latency_sum_ns, 1_100);
        assert_eq!(a.reclaim_latency_max_ns, 900, "max latency merges by maximum");
        assert_eq!(a.reclaim_latency_min_ns, 12, "min latency merges by minimum");
        assert_eq!(a.mean_reclaim_latency_ns(), 50.0);
        assert_eq!(a.eligible_latency_sum_ns, 550);
        assert_eq!(a.eligible_latency_max_ns, 450);
        assert_eq!(a.eligible_latency_min_ns, 6);
        assert_eq!(a.eligible(), 66);
        assert!((a.mean_eligible_latency_ns() - 550.0 / 66.0).abs() < 1e-9);
        // An idle server's sentinel min does not perturb the merge.
        a.merge(&FreeListStats::default());
        assert_eq!(a.reclaim_latency_min_ns, 12);
        assert_eq!(a.eligible_latency_min_ns, 6);
    }
}
