//! # sherman-locks — remote exclusive locks for disaggregated memory
//!
//! Sherman resolves write-write conflicts with node-grained exclusive locks.
//! This crate implements the ladder of lock designs the paper evaluates
//! (Figure 2, Figure 16 and the ablation of §5.2) as one [`LockManager`]
//! configured by one [`LockStrategy`], a rung per value:
//!
//! * a **baseline RDMA spinlock** — lock words in MS *host* memory, acquired
//!   with `RDMA_CAS` and released with `RDMA_FAA` (original FG,
//!   [`LockStrategy::HostCasFaa`]) or `RDMA_WRITE` (the strengthened FG+
//!   baseline, [`LockStrategy::HostCasWrite`]),
//! * an **on-chip lock** — 16-bit lock words packed into the NIC's device
//!   memory and acquired with masked `RDMA_CAS`, eliminating PCIe transactions
//!   on the memory server ([`LockStrategy::OnChip`]),
//! * **HOCL**, the hierarchical on-chip lock — on-chip global lock tables
//!   (GLT) behind per-compute-server local lock tables (LLT) where conflicting
//!   threads wait locally ([`LockStrategy::Hierarchical`]), in FIFO order
//!   ([`LockStrategy::WaitQueue`]), and are handed a held lock directly,
//!   saving the remote acquisition round trip (bounded by
//!   [`MAX_HANDOVER_DEPTH`]; [`LockStrategy::Hocl`], §4.3, Figure 6).
//!
//! The manager also cooperates with command combination: a lock release that
//! is expressible as an `RDMA_WRITE` is appended to the node write-back
//! doorbell batch so that write-back and unlock cost a single round trip
//! ([`LockManager::post_release`]), and the acquiring CAS can carry the read
//! of the node it guards ([`LockManager::acquire_and_read`]) so that lock and
//! read do too.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod global;
mod hocl;
mod manager;

pub use hocl::{LocalLockTable, MAX_HANDOVER_DEPTH};
pub use manager::{
    AcquireOutcome, AcquireStep, Acquisition, LockManager, LockStrategy, Release, ReleaseOutcome,
    ReleaseStep,
};

/// Hash a packed global address into a lock-table slot.
///
/// Both the global lock tables (on the memory servers) and the local lock
/// tables (on the compute servers) must agree on this mapping, so it lives at
/// the crate root.  FNV-1a over the packed address gives a good spread for the
/// node-size-aligned addresses produced by the chunk allocator.
pub fn slot_hash(addr: sherman_sim::GlobalAddress, slots: u64) -> u64 {
    debug_assert!(slots > 0);
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = OFFSET;
    for byte in addr.pack().to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash % slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_sim::GlobalAddress;

    #[test]
    fn slot_hash_is_stable_and_in_range() {
        let a = GlobalAddress::host(1, 4096);
        assert_eq!(slot_hash(a, 1024), slot_hash(a, 1024));
        for i in 0..1000u64 {
            let addr = GlobalAddress::host(2, 4096 + i * 1024);
            assert!(slot_hash(addr, 131_072) < 131_072);
        }
    }

    #[test]
    fn node_aligned_addresses_spread_over_slots() {
        let slots = 4096u64;
        let mut used = std::collections::HashSet::new();
        for i in 0..2048u64 {
            used.insert(slot_hash(GlobalAddress::host(0, i * 1024), slots));
        }
        // At least half of the addresses land in distinct slots.
        assert!(used.len() > 1024, "only {} distinct slots", used.len());
    }
}
