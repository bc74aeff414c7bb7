//! Compute-side stage of the two-stage allocation scheme.
//!
//! Each client thread owns a [`ClientAllocator`]: it picks a memory server in
//! round-robin order, obtains an 8 MB chunk from that server's memory thread
//! via RPC, and then carves fixed-size tree nodes out of the chunk locally
//! (§4.2.4).  The paper stops at a free bit ("we do not need complex garbage
//! collection strategies"); this implementation additionally recycles node
//! addresses that structural deletes retired to the pool's per-server
//! [`crate::NodeFreeList`]s — allocation prefers a quarantine-cleared retired
//! address over carving fresh chunk space, which pins the remote-memory
//! footprint to the steady-state tree size under delete-heavy churn.
//!
//! An allocation is one `async fn` ([`ClientAllocator::alloc`]) that awaits
//! its chunk requests through the simulator's waiting interface
//! ([`sherman_sim::Waits`]): the tree awaits it holding its client, and
//! [`ClientAllocator::alloc_node`] is the same call run in place.

use crate::alloc::StaleSlots;
use crate::pool::{GrantedChunk, MemoryPool, PoolError};
use sherman_sim::{ClientCtx, Fabric, FabricBackend, GlobalAddress, Parking, Waits};
use std::cell::Cell;
use std::sync::Arc;

/// What an allocated address holds, as far as its first writer needs to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Holds {
    /// All zero: carved from a chunk granted for the first time, nothing was
    /// ever written there.  A tombstone version can wrap to 0 and a chunk can
    /// come back through [`MemoryPool::free_chunk`], so neither a floor of 0
    /// nor a carve alone says as much.
    Zeroes,
    /// A tombstone — a leaf's or an internal node's — that reads as a leaf
    /// whose slots outside these are vacant.
    LeafTombstone(StaleSlots),
    /// Anything: a carve from a chunk returned before, or a retirement that
    /// recorded nothing.
    Unknown,
}

/// One allocated node address plus the version floor the caller must respect
/// when writing the node's first image.
///
/// Freshly carved addresses have floor 0 (any version is fine); recycled
/// addresses carry the tombstone's node-level version, and the new image must
/// be stamped **above** it (see [`AllocatedNode::first_version`]) so that
/// versions always bump across reuse — a reader that raced the recycling can
/// then never mistake a torn old/new image mix for a consistent node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocatedNode {
    /// The allocated node address.
    pub addr: GlobalAddress,
    /// Node-level version currently stored at the address (0 for fresh
    /// carves, the tombstone version for recycled addresses).
    pub version_floor: u8,
    /// What the address holds.
    pub holds: Holds,
}

impl AllocatedNode {
    /// The node-level version the first image written at this address must
    /// use.
    pub fn first_version(&self) -> u8 {
        self.version_floor.wrapping_add(1)
    }
}

/// Per-client-thread node allocator, generic over the fabric backend like
/// the [`MemoryPool`] it draws from.  Its state sits in cells, so that an
/// allocation ([`ClientAllocator::alloc`]) borrows it shared across the
/// chunk request it awaits.
#[derive(Debug)]
pub struct ClientAllocator<B: FabricBackend = Fabric> {
    pool: Arc<MemoryPool<B>>,
    node_bytes: u64,
    next_ms: Cell<u16>,
    current: Cell<Option<Chunk>>,
    chunks_acquired: Cell<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    base: GlobalAddress,
    used: u64,
    /// Granted for the first time: every node carved from it is fresh.
    fresh: bool,
}

impl<B: FabricBackend> ClientAllocator<B> {
    /// Create an allocator carving nodes of `node_bytes` from `pool`'s chunks.
    /// `first_ms` staggers the round-robin start so that concurrent clients do
    /// not all hit memory server 0 first.
    pub fn new(pool: Arc<MemoryPool<B>>, node_bytes: u64, first_ms: u16) -> Self {
        assert!(node_bytes > 0);
        assert!(
            node_bytes <= pool.chunk_bytes(),
            "node size {node_bytes} exceeds chunk size {}",
            pool.chunk_bytes()
        );
        ClientAllocator {
            next_ms: Cell::new(first_ms % pool.servers() as u16),
            pool,
            node_bytes,
            current: Cell::new(None),
            chunks_acquired: Cell::new(0),
        }
    }

    /// Node size in bytes.
    pub fn node_bytes(&self) -> u64 {
        self.node_bytes
    }

    /// Number of chunks this client has acquired so far.
    pub fn chunks_acquired(&self) -> u64 {
        self.chunks_acquired.get()
    }

    /// The next memory server in round-robin order.
    fn next_server(&self) -> u16 {
        let ms = self.next_ms.get();
        self.next_ms.set((ms + 1) % self.pool.servers() as u16);
        ms
    }

    /// Carve from a chunk just obtained.
    fn install(&self, granted: GrantedChunk) -> AllocatedNode {
        self.current.set(Some(Chunk {
            base: granted.base,
            used: 0,
            fresh: granted.fresh,
        }));
        self.chunks_acquired.set(self.chunks_acquired.get() + 1);
        self.carve().expect("fresh chunk must fit at least one node")
    }

    fn carve(&self) -> Option<AllocatedNode> {
        let mut chunk = self.current.get()?;
        if chunk.used + self.node_bytes > self.pool.chunk_bytes() {
            return None;
        }
        let addr = chunk.base.add(chunk.used);
        chunk.used += self.node_bytes;
        self.current.set(Some(chunk));
        self.pool.note_node_carved();
        Some(AllocatedNode {
            addr,
            version_floor: 0,
            holds: match chunk.fresh {
                true => Holds::Zeroes,
                false => Holds::Unknown,
            },
        })
    }

    /// Take a retired node address whose quarantine has cleared, trying every
    /// server in round-robin order starting at this allocator's cursor.  The
    /// lock-free `reusable_nodes` guard keeps allocation scan-free until a
    /// structural delete has actually retired something.
    fn reuse(&self, now: u64) -> Option<AllocatedNode> {
        if self.pool.reusable_nodes() == 0 {
            return None;
        }
        let servers = self.pool.servers() as u16;
        for i in 0..servers {
            let ms = (self.next_ms.get() + i) % servers;
            if let Some(reused) = self.pool.reuse_node(ms, now) {
                return Some(AllocatedNode {
                    addr: reused.addr,
                    version_floor: reused.tombstone.version,
                    holds: reused.tombstone.stale.map_or(Holds::Unknown, Holds::LeafTombstone),
                });
            }
        }
        None
    }

    /// A node without asking any server: a retired address whose quarantine
    /// has cleared, else one carved from the local chunk.
    fn take_local(&self, now: u64) -> Option<AllocatedNode> {
        self.reuse(now).or_else(|| self.carve())
    }

    /// Every server denied a chunk.  Rescan the free lists once more — an
    /// epoch may have advanced (or another client retired a node) since the
    /// fast-path reuse check, and under pool-near-exhaustion that rescue is
    /// what keeps a full cluster serving writes at its steady-state
    /// footprint — else surface the typed [`PoolError::Exhausted`]
    /// backpressure error.
    fn rescue(&self, now: u64) -> Result<AllocatedNode, PoolError> {
        if let Some(node) = self.reuse(now) {
            self.pool.backpressure().reuse_rescues.inc();
            return Ok(node);
        }
        self.pool.backpressure().exhaustion_events.inc();
        Err(PoolError::Exhausted(self.pool.alloc_error()))
    }

    /// Allocate one node: recycle a retired address when the reclamation
    /// policy has cleared one (keeping the remote-memory footprint at the
    /// steady-state tree size under churn), else carve from the local chunk,
    /// else request a new chunk — the allocation RPC, awaited holding the
    /// client ([`MemoryPool::request_chunk`]) — from each server in
    /// round-robin order until one grants it.  A server that is full is
    /// skipped, matching the paper's "choose an MS in a round-robin manner";
    /// when every server denies the request, the free lists are rescanned
    /// once before the typed [`PoolError::Exhausted`] is returned.
    pub async fn alloc<W: Waits<Channel = B::Channel>>(
        &self,
        cx: &W,
    ) -> Result<AllocatedNode, PoolError> {
        if let Some(node) = self.take_local(cx.ctx().now()) {
            return Ok(node);
        }
        for _ in 0..self.pool.servers() {
            match self.pool.request_chunk(cx, self.next_server()).await {
                Ok(granted) => return Ok(self.install(granted)),
                Err(PoolError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        // The request round trips took virtual time: a retirement may have
        // cleared quarantine meanwhile.
        self.rescue(cx.ctx().now())
    }

    /// Allocate one node, blocking: [`ClientAllocator::alloc`] with each
    /// chunk request polled in place.
    pub fn alloc_node(
        &mut self,
        client: &mut ClientCtx<B::Channel>,
    ) -> Result<AllocatedNode, PoolError> {
        let cx = Parking::new(client);
        cx.block_on(self.alloc(&cx))
    }

    /// Allocate one node without charging fabric time (bulkload / setup) at
    /// virtual time `now`: [`ClientAllocator::alloc`] with every chunk taken
    /// from its server directly, no request posted.
    pub fn alloc_untimed(&self, now: u64) -> Result<AllocatedNode, PoolError> {
        if let Some(node) = self.take_local(now) {
            return Ok(node);
        }
        for _ in 0..self.pool.servers() {
            match self.pool.grant_chunk_untimed(self.next_server()) {
                Ok(granted) => return Ok(self.install(granted)),
                Err(PoolError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.rescue(now)
    }

    /// [`ClientAllocator::alloc_untimed`] at `client`'s time.
    pub fn alloc_node_untimed(
        &mut self,
        client: &mut ClientCtx<B::Channel>,
    ) -> Result<AllocatedNode, PoolError> {
        self.alloc_untimed(client.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochPin, Tombstone};
    use sherman_sim::{Completion, FabricConfig, PendingVerb, SimChannel};
    use std::cell::{RefCell, RefMut};
    use std::future::Future;

    fn setup() -> (Arc<MemoryPool>, ClientCtx) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let client = fabric.client(0);
        (pool, client)
    }

    #[test]
    fn nodes_come_from_local_chunk_without_rpcs() {
        let (pool, mut client) = setup();
        let mut alloc = ClientAllocator::new(pool, 1024, 0);
        let first = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(first.version_floor, 0, "fresh carves have no version floor");
        let rpcs_after_first = client.stats().rpcs;
        // The rest of the chunk (64 KiB / 1 KiB = 64 nodes) is carved locally:
        // no further RPCs.
        for _ in 0..63 {
            alloc.alloc_node(&mut client).unwrap();
        }
        assert_eq!(client.stats().rpcs, rpcs_after_first);
        assert_eq!(alloc.chunks_acquired(), 1);
        // The 65th node needs a new chunk.
        let sixty_fifth = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(alloc.chunks_acquired(), 2);
        assert_ne!(first.addr, sixty_fifth.addr);
    }

    #[test]
    fn round_robin_spreads_chunks_over_servers() {
        let (pool, mut client) = setup();
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        // Each chunk holds 2 nodes; allocate 8 nodes = 4 chunks.
        let mut servers_seen = Vec::new();
        for _ in 0..8 {
            let node = alloc.alloc_node(&mut client).unwrap();
            if !servers_seen.contains(&node.addr.ms) {
                servers_seen.push(node.addr.ms);
            }
        }
        assert_eq!(servers_seen.len(), pool.servers());
    }

    #[test]
    fn allocations_are_node_aligned_and_disjoint() {
        let (pool, mut client) = setup();
        let mut alloc = ClientAllocator::new(pool, 512, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let node = alloc.alloc_node_untimed(&mut client).unwrap();
            assert_eq!(node.addr.offset % 512, 0);
            assert!(seen.insert(node.addr.pack()), "duplicate address {}", node.addr);
        }
    }

    #[test]
    fn exhausted_chunk_prefers_retired_nodes_over_new_chunks() {
        let (pool, mut client) = setup();
        // Chunks hold exactly two 32 KiB nodes.
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let a = alloc.alloc_node(&mut client).unwrap();
        let _b = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(alloc.chunks_acquired(), 1);
        // Retire the first node; the next allocation (chunk now full) must
        // recycle it instead of paying another chunk RPC.  No reader is
        // pinned, so under epoch reclamation reuse is immediate.
        pool.retire_node(a.addr, Tombstone::unknown(9), client.now());
        client.charge_cpu(1);
        let c = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(c.addr, a.addr, "retired address is recycled");
        assert_eq!(c.version_floor, 9, "the tombstone version rides the reuse");
        assert_eq!(c.first_version(), 10, "new images must be stamped above it");
        assert_eq!(alloc.chunks_acquired(), 1, "no new chunk was requested");
        assert_eq!(pool.reclaim_stats().reused, 1);
    }

    /// A node holds zeroes only when carved from a chunk granted for the
    /// first time: not a recycled address, even one whose tombstone version
    /// wrapped to 0, and not one carved from a chunk that came back through
    /// `free_chunk`.
    #[test]
    fn only_a_first_grant_carves_fresh_nodes() {
        let (pool, mut client) = setup();
        // Chunks hold exactly two 32 KiB nodes.
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let a = alloc.alloc_node(&mut client).unwrap();
        let b = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((&a.holds, &b.holds), (&Holds::Zeroes, &Holds::Zeroes));
        pool.retire_node(a.addr, Tombstone::unknown(255), client.now());
        client.charge_cpu(1);
        let c = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((c.addr, c.version_floor, &c.holds), (a.addr, 255, &Holds::Unknown));
        assert_eq!(c.first_version(), 0, "the version wraps");
        // A chunk returned to its server is not fresh when granted again.
        let returned = GlobalAddress::host(1, crate::ALLOC_START_OFFSET);
        let chunk = pool.grant_chunk_untimed(1).unwrap();
        assert_eq!((chunk.base, chunk.fresh), (returned, true));
        pool.free_chunk(returned).unwrap();
        let d = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((d.addr, d.holds), (returned, Holds::Unknown));
        let e = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((e.addr.ms, e.holds), (1, Holds::Unknown), "the rest of that chunk");
        let f = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((f.addr.ms, f.holds), (0, Holds::Zeroes), "a chunk never granted");
    }

    /// A leaf tombstone's stale slots ride its address through quarantine
    /// to the allocation that reuses it; an address retired without them
    /// comes back holding something unknown.
    #[test]
    fn a_tombstones_stale_slots_survive_quarantine_to_reuse() {
        let (pool, mut client) = setup();
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let a = alloc.alloc_node(&mut client).unwrap();
        let b = alloc.alloc_node(&mut client).unwrap();
        let stale: StaleSlots = [3, 40, 64, 129].into_iter().collect();
        assert!([3, 40, 64, 129].iter().all(|&slot| stale.contains(slot)));
        assert!([0, 39, 63, 65, 128, 130, 1_000].iter().all(|&slot| !stale.contains(slot)));
        let reader = pool.epoch_registry().register();
        let pin = reader.pin();
        let tombstone = Tombstone { version: 4, stale: Some(stale.clone()) };
        pool.retire_node(a.addr, tombstone, client.now());
        assert_eq!(pool.reuse_node(a.addr.ms, client.now()), None, "quarantined");
        drop(pin);
        client.charge_cpu(1);
        let c = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((c.addr, c.version_floor), (a.addr, 4));
        assert_eq!(c.holds, Holds::LeafTombstone(stale));
        pool.retire_node(b.addr, Tombstone::unknown(7), client.now());
        client.charge_cpu(1);
        let d = alloc.alloc_node(&mut client).unwrap();
        assert_eq!((d.addr, d.holds), (b.addr, Holds::Unknown));
    }

    #[test]
    fn pool_exhaustion_is_a_typed_error_not_a_panic() {
        let fabric = Fabric::new(FabricConfig {
            host_bytes_per_ms: 256 << 10,
            ..FabricConfig::small_test()
        });
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mut client = fabric.client(0);
        // 256 KiB per server minus the 4 KiB superblock page = 3 chunks of
        // 64 KiB each; 32 KiB nodes = 2 per chunk = 12 nodes total.
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let mut got = Vec::new();
        let err = loop {
            match alloc.alloc_node(&mut client) {
                Ok(node) => got.push(node),
                Err(e) => break e,
            }
        };
        assert_eq!(got.len(), 12, "every carvable node is handed out first");
        let PoolError::Exhausted(details) = err else {
            panic!("expected typed exhaustion, got {err}");
        };
        assert_eq!(details.servers_tried, 2);
        assert_eq!(pool.backpressure().exhaustion_events(), 1);
        assert!(pool.backpressure().chunk_denials() >= 2);

        // Free-list reuse rescues allocation under pressure: retire one node
        // and the next request succeeds again (recording the rescue).
        pool.retire_node(got[0].addr, Tombstone::unknown(5), client.now());
        client.charge_cpu(1);
        let rescued = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(rescued.addr, got[0].addr);
        assert_eq!(rescued.version_floor, 5);
        // The fast-path reuse at the top of alloc_node may serve it before
        // the pressure retry; either way the pool stays usable.
        assert_eq!(pool.reclaim_stats().reused, 1);
    }

    #[test]
    fn pressure_retry_rescues_via_the_free_list() {
        let fabric = Fabric::new(FabricConfig {
            host_bytes_per_ms: 256 << 10,
            ..FabricConfig::small_test()
        });
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mut client = fabric.client(0);
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let mut got = Vec::new();
        while let Ok(node) = alloc.alloc_node(&mut client) {
            got.push(node);
        }
        // Simulate a racing retirement that lands *after* the fast-path
        // reuse check would have run: the guard counter says zero until the
        // retire, so exhaust first, then retire and allocate again.
        pool.retire_node(got[3].addr, Tombstone::unknown(2), client.now());
        client.charge_cpu(1);
        let node = alloc.alloc_node(&mut client).expect("free list rescues");
        assert_eq!(node.addr, got[3].addr);
        assert_eq!(node.first_version(), 3);
    }

    /// Waits in place, dropping a reader's epoch pin at its first hold.
    struct UnpinOnHold<'a> {
        inner: Parking<'a, SimChannel>,
        pin: &'a RefCell<Option<EpochPin>>,
    }

    impl Waits for UnpinOnHold<'_> {
        type Channel = SimChannel;

        fn ctx(&self) -> RefMut<'_, ClientCtx> {
            self.inner.ctx()
        }

        fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion> {
            self.inner.wait_lock(token)
        }

        fn hold(&self, token: PendingVerb) -> impl Future<Output = Completion> {
            self.pin.borrow_mut().take();
            self.inner.hold(token)
        }
    }

    #[test]
    fn a_node_freed_while_every_server_denies_a_chunk_rescues_the_allocation() {
        let fabric = Fabric::new(FabricConfig {
            host_bytes_per_ms: 256 << 10,
            ..FabricConfig::small_test()
        });
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mut client = fabric.client(0);
        let mut alloc = ClientAllocator::new(Arc::clone(&pool), 32 << 10, 0);
        let mut got = Vec::new();
        while let Ok(node) = alloc.alloc_node(&mut client) {
            got.push(node);
        }
        // A pinned reader keeps the retired node in quarantine past the
        // allocation's first look, and leaves during its chunk requests.
        let reader = pool.epoch_registry().register();
        let pin = RefCell::new(Some(reader.pin()));
        pool.retire_node(got[1].addr, Tombstone::unknown(6), client.now());
        let cx = UnpinOnHold {
            inner: Parking::new(&mut client),
            pin: &pin,
        };
        let node = cx.inner.block_on(alloc.alloc(&cx)).unwrap();
        assert_eq!(node.addr, got[1].addr);
        assert_eq!(node.first_version(), 7);
        assert_eq!(pool.backpressure().reuse_rescues(), 1);
    }

    #[test]
    fn oversized_node_is_rejected_at_construction() {
        let (pool, _client) = setup();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ClientAllocator::new(pool, 128 << 10, 0)
        }));
        assert!(result.is_err());
    }
}
