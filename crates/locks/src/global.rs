//! The global lock table: the lock words on the memory servers.
//!
//! A node's lock word lives on the node's own memory server, in one of two
//! places, matching the designs compared in the paper:
//!
//! * **host memory** — 64-bit words acquired with `RDMA_CAS`, released with
//!   `RDMA_FAA` (original FG, [`LockStrategy::HostCasFaa`]) or a plain
//!   `RDMA_WRITE` (the strengthened FG+ baseline of §5.1.2,
//!   [`LockStrategy::HostCasWrite`]);
//! * **the NIC's on-chip memory** — 16-bit words acquired with masked
//!   `RDMA_CAS` and released with a 2-byte `RDMA_WRITE` (§4.3, every other
//!   rung).

use crate::{slot_hash, LockStrategy};
use sherman_memserver::{MemoryPool, ServerLayout};
use sherman_sim::{
    ClientCtx, Completion, FabricBackend, FabricChannel, GlobalAddress, PendingVerb, SimResult,
    VerbResult, WriteCmd,
};

/// Where a particular node's lock lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LockLocation {
    /// Address of the 8-byte word holding (or containing) the lock.
    pub word: GlobalAddress,
    /// Bit shift of the lock within the word (0 for 64-bit host locks).
    pub shift: u32,
    /// Width of the lock in bits (64 or 16).
    pub bits: u32,
}

impl LockLocation {
    /// Bit mask selecting the lock inside its word.
    pub fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            ((1u64 << self.bits) - 1) << self.shift
        }
    }

    /// This lock's place in the multi-node acquisition order (see
    /// [`crate::LockManager::lock_rank`]): the word address is globally
    /// unique and the shift separates the locks sharing a word.
    pub fn rank(&self) -> u128 {
        ((self.word.pack() as u128) << 32) | self.shift as u128
    }
}

/// A cluster-wide global lock table (one slice per memory server).
#[derive(Debug)]
pub(crate) struct GlobalLockTable {
    /// Released with `RDMA_FAA` rather than a write (original FG).
    faa_release: bool,
    slots_per_ms: u64,
    layouts: Vec<ServerLayout>,
    /// Base address of the host-memory lock array on each server (empty for
    /// on-chip lock words).
    host_bases: Vec<GlobalAddress>,
}

impl GlobalLockTable {
    /// Build the table `strategy` asks for over every memory server of
    /// `pool`.  On-chip words occupy the NIC's device memory exclusively, so
    /// they need no allocation; host words take one allocator chunk per
    /// server, claimed at bootstrap, outside measured time.
    pub fn new<B: FabricBackend>(pool: &MemoryPool<B>, strategy: LockStrategy) -> Self {
        let layouts: Vec<ServerLayout> = (0..pool.servers())
            .map(|ms| pool.layout(ms as u16).expect("layout exists"))
            .collect();
        let (slots_per_ms, host_bases) = match strategy.on_chip() {
            true => (layouts[0].glt_slots(), Vec::new()),
            false => (
                (pool.chunk_bytes() / 8).min(131_072),
                (0..pool.servers())
                    .map(|ms| {
                        pool.alloc_chunk_untimed(ms as u16)
                            .expect("bootstrap chunk for host lock table")
                    })
                    .collect(),
            ),
        };
        GlobalLockTable {
            faa_release: strategy == LockStrategy::HostCasFaa,
            slots_per_ms,
            layouts,
            host_bases,
        }
    }

    /// Slot index protecting `node` (on the node's own memory server).
    pub fn slot_of(&self, node: GlobalAddress) -> u64 {
        slot_hash(node, self.slots_per_ms)
    }

    /// Physical location of the lock for `node`.
    pub fn location_of(&self, node: GlobalAddress) -> LockLocation {
        let slot = self.slot_of(node);
        if self.host_bases.is_empty() {
            let (word, shift) = self.layouts[node.ms as usize].glt_slot_addr(slot);
            return LockLocation {
                word,
                shift,
                bits: 16,
            };
        }
        LockLocation {
            word: self.host_bases[node.ms as usize].add(slot * 8),
            shift: 0,
            bits: 64,
        }
    }

    fn owner_value(loc: &LockLocation, owner: u16) -> u64 {
        ((owner as u64) + 1) << loc.shift
    }

    /// Post one attempt to acquire the lock at `loc` for compute server
    /// `owner` without waiting for it: a (masked) `RDMA_CAS`, and with `read`
    /// the `RDMA_READ` of the node the lock guards in the same doorbell batch
    /// (one round trip; the lock word and its node share a memory server,
    /// hence a queue pair).  The swap applies at the post instant; redeem the
    /// completion with [`GlobalLockTable::attempt_outcome`].
    pub fn post_acquire_at<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        loc: LockLocation,
        owner: u16,
        read: Option<(GlobalAddress, usize)>,
    ) -> SimResult<PendingVerb> {
        let value = Self::owner_value(&loc, owner);
        match read {
            Some((node, len)) => client.post_cas_read(loc.word, 0, value, loc.mask(), node, len),
            None if loc.bits == 64 => client.post_cas(loc.word, 0, value),
            None => client.post_masked_cas(loc.word, 0, value, loc.mask()),
        }
    }

    /// What an attempt posted by [`GlobalLockTable::post_acquire_at`]
    /// completed with: whether it won the lock, and the image its READ
    /// fetched (empty without one; speculative when the attempt lost — a NIC
    /// has no conditional).
    pub fn attempt_outcome(completion: Completion) -> (bool, Vec<u8>) {
        match completion.result {
            VerbResult::Cas(cas) => (cas.succeeded, Vec::new()),
            VerbResult::CasRead(cas, image) => (cas.succeeded, image),
            other => panic!("expected a lock attempt's completion, got {other:?}"),
        }
    }

    /// The `RDMA_WRITE` command that releases the lock at `loc`.
    ///
    /// # Panics
    /// On the FAA flavour, whose release is not a write and so cannot join
    /// a doorbell batch of write-backs.
    pub fn release_write_cmd(&self, loc: LockLocation) -> WriteCmd {
        assert!(
            !self.faa_release,
            "an FAA release is not expressible as a write"
        );
        if loc.bits == 64 {
            WriteCmd::new(loc.word, vec![0u8; 8])
        } else {
            // 2-byte write clearing the 16-bit lock inside its word.
            let byte_off = (loc.shift / 8) as u64;
            WriteCmd::new(loc.word.add(byte_off), vec![0u8; 2])
        }
    }

    /// Post the standalone release verb for the lock at `loc` without polling
    /// its completion: the FAA that brings the word back to zero, or the
    /// release write alone.  The lock's memory effect applies at the post
    /// instant, so the word is free to other clients immediately; the
    /// returned token carries only the time at which the acknowledgement
    /// arrives back.
    pub fn post_release_at<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        loc: LockLocation,
        owner: u16,
    ) -> SimResult<PendingVerb> {
        if self.faa_release {
            // FG releases by adding the two's complement of the owner tag.
            let value = Self::owner_value(&loc, owner);
            return client.post_faa(loc.word, value.wrapping_neg());
        }
        client.post_write_batch(&[self.release_write_cmd(loc)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_sim::{Fabric, FabricConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<MemoryPool>, ClientCtx) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let client = fabric.client(0);
        (pool, client)
    }

    impl GlobalLockTable {
        /// One blocking attempt at the lock at `loc`: whether it won.
        pub(crate) fn try_acquire_at(
            &self,
            client: &mut ClientCtx,
            loc: LockLocation,
            owner: u16,
        ) -> bool {
            let token = self.post_acquire_at(client, loc, owner, None).unwrap();
            Self::attempt_outcome(client.poll_token(token)).0
        }

        /// The standalone release of the lock at `loc`, blocking.
        pub(crate) fn release_at(&self, client: &mut ClientCtx, loc: LockLocation, owner: u16) {
            let token = self.post_release_at(client, loc, owner).unwrap();
            client.poll_token(token);
        }
    }

    #[test]
    fn on_chip_table_has_paper_slot_count_per_256kb() {
        let fabric = Fabric::new(FabricConfig {
            onchip_bytes_per_ms: 256 << 10,
            ..FabricConfig::small_test()
        });
        let pool = MemoryPool::new(fabric, 64 << 10);
        let glt = GlobalLockTable::new(&pool, LockStrategy::OnChip);
        assert_eq!(glt.slots_per_ms, 131_072);
        assert!(glt.host_bases.is_empty() && !glt.faa_release);
    }

    #[test]
    fn lock_location_is_on_same_server_as_node() {
        let (pool, _c) = setup();
        let glt = GlobalLockTable::new(&pool, LockStrategy::OnChip);
        let node = GlobalAddress::host(1, 8 << 10);
        let loc = glt.location_of(node);
        assert_eq!(loc.word.ms, 1);
        assert_eq!(loc.bits, 16);
        assert!(loc.shift.is_multiple_of(16) && loc.shift < 64);
    }

    #[test]
    fn acquire_release_cycle_on_chip() {
        let (pool, mut client) = setup();
        let glt = GlobalLockTable::new(&pool, LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 64 << 10);
        let loc = glt.location_of(node);

        assert!(glt.try_acquire_at(&mut client, loc, 3));
        // Someone else (or ourselves again) cannot acquire while held.
        assert!(!glt.try_acquire_at(&mut client, loc, 4));
        glt.release_at(&mut client, loc, 3);
        assert!(glt.try_acquire_at(&mut client, loc, 4));
    }

    #[test]
    fn acquire_release_cycle_host_faa_and_write() {
        for strategy in [LockStrategy::HostCasFaa, LockStrategy::HostCasWrite] {
            let (pool, mut client) = setup();
            let glt = GlobalLockTable::new(&pool, strategy);
            let node = GlobalAddress::host(1, 128 << 10);
            let loc = glt.location_of(node);
            assert_eq!(loc.bits, 64);
            assert!(glt.try_acquire_at(&mut client, loc, 0));
            assert!(!glt.try_acquire_at(&mut client, loc, 1));
            glt.release_at(&mut client, loc, 0);
            assert!(glt.try_acquire_at(&mut client, loc, 1));
        }
    }

    #[test]
    fn spinning_acquire_counts_retries() {
        let (pool, mut client) = setup();
        let glt = GlobalLockTable::new(&pool, LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 3 << 10);
        let loc = glt.location_of(node);
        // Pre-hold the lock directly in memory, then release it out-of-band
        // after a few failed attempts by spinning in a second context.
        assert!(glt.try_acquire_at(&mut client, loc, 1));
        // A bounded manual spin: three failures, then release, then success.
        let mut retries = 0;
        for _ in 0..3 {
            if !glt.try_acquire_at(&mut client, loc, 2) {
                retries += 1;
            }
        }
        glt.release_at(&mut client, loc, 1);
        assert_eq!(retries, 3);
        assert!(glt.try_acquire_at(&mut client, loc, 2));
    }

    #[test]
    fn combined_attempt_reads_the_node_in_the_acquiring_round_trip() {
        for strategy in [LockStrategy::OnChip, LockStrategy::HostCasWrite] {
            let (pool, mut client) = setup();
            let glt = GlobalLockTable::new(&pool, strategy);
            let node = GlobalAddress::host(1, 128 << 10);
            pool.fabric().god_write(node, &[3u8; 32]).unwrap();
            let loc = glt.location_of(node);
            let mut attempt = |owner| {
                let token = glt
                    .post_acquire_at(&mut client, loc, owner, Some((node, 32)))
                    .unwrap();
                GlobalLockTable::attempt_outcome(client.poll_token(token))
            };
            assert_eq!(attempt(0), (true, vec![3u8; 32]));
            // Held: a second combined attempt loses (its payload is speculative).
            assert!(!attempt(1).0);
            assert_eq!(client.stats().round_trips, 2);
            glt.release_at(&mut client, loc, 0);
            assert!(glt.try_acquire_at(&mut client, loc, 1));
        }
    }

    #[test]
    fn release_write_cmd_targets_lock_bytes_only() {
        let (pool, mut client) = setup();
        let glt = GlobalLockTable::new(&pool, LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 9 << 10);
        let loc = glt.location_of(node);
        assert!(glt.try_acquire_at(&mut client, loc, 7));
        let cmd = glt.release_write_cmd(loc);
        assert_eq!(cmd.data.len(), 2, "16-bit lock release writes two bytes");
        client.post_writes(&[cmd]).unwrap();
        assert!(glt.try_acquire_at(&mut client, loc, 8));
    }

    #[test]
    #[should_panic(expected = "not expressible as a write")]
    fn faa_release_cannot_be_combined() {
        let (pool, _client) = setup();
        let glt = GlobalLockTable::new(&pool, LockStrategy::HostCasFaa);
        let loc = glt.location_of(GlobalAddress::host(0, 4096));
        let _ = glt.release_write_cmd(loc);
    }
}
