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

use crate::pool::{MemoryPool, PoolError};
use sherman_sim::{ClientCtx, Fabric, FabricBackend, GlobalAddress, PendingVerb};
use std::sync::Arc;

/// One allocated node address plus the version floor the caller must respect
/// when writing the node's first image.
///
/// Freshly carved addresses have floor 0 (any version is fine); recycled
/// addresses carry the tombstone's node-level version, and the new image must
/// be stamped **above** it (see [`AllocatedNode::first_version`]) so that
/// versions always bump across reuse — a reader that raced the recycling can
/// then never mistake a torn old/new image mix for a consistent node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatedNode {
    /// The allocated node address.
    pub addr: GlobalAddress,
    /// Node-level version currently stored at the address (0 for fresh
    /// carves, the tombstone version for recycled addresses).
    pub version_floor: u8,
}

impl AllocatedNode {
    /// The node-level version the first image written at this address must
    /// use.
    pub fn first_version(&self) -> u8 {
        self.version_floor.wrapping_add(1)
    }
}

/// What one [`ClientAllocator::step_alloc`] call produced.
#[derive(Debug)]
pub enum AllocStep {
    /// The allocated node.
    Done(AllocatedNode),
    /// A chunk request is in flight: step the allocation again once it
    /// completed.
    Chunk(PendingVerb),
}

/// Per-client-thread node allocator, generic over the fabric backend like
/// the [`MemoryPool`] it draws from.
#[derive(Debug)]
pub struct ClientAllocator<B: FabricBackend = Fabric> {
    pool: Arc<MemoryPool<B>>,
    node_bytes: u64,
    next_ms: u16,
    current: Option<Chunk>,
    chunks_acquired: u64,
    /// The chunk request in flight: the server asked and how many servers
    /// are still to be asked after it.
    request: Option<(u16, u16)>,
}

#[derive(Debug)]
struct Chunk {
    base: GlobalAddress,
    used: u64,
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
            next_ms: first_ms % pool.servers() as u16,
            pool,
            node_bytes,
            current: None,
            chunks_acquired: 0,
            request: None,
        }
    }

    /// Node size in bytes.
    pub fn node_bytes(&self) -> u64 {
        self.node_bytes
    }

    /// Number of chunks this client has acquired so far.
    pub fn chunks_acquired(&self) -> u64 {
        self.chunks_acquired
    }

    /// The next memory server in round-robin order.
    fn next_server(&mut self) -> u16 {
        let ms = self.next_ms;
        self.next_ms = (self.next_ms + 1) % self.pool.servers() as u16;
        ms
    }

    /// Carve from a chunk just obtained.
    fn install(&mut self, base: GlobalAddress) -> AllocatedNode {
        self.current = Some(Chunk { base, used: 0 });
        self.chunks_acquired += 1;
        let addr = self.carve().expect("fresh chunk must fit at least one node");
        AllocatedNode {
            addr,
            version_floor: 0,
        }
    }

    fn carve(&mut self) -> Option<GlobalAddress> {
        let chunk = self.current.as_mut()?;
        if chunk.used + self.node_bytes > self.pool.chunk_bytes() {
            return None;
        }
        let addr = chunk.base.add(chunk.used);
        chunk.used += self.node_bytes;
        self.pool.note_node_carved();
        Some(addr)
    }

    /// Take a retired node address whose quarantine has cleared, trying every
    /// server in round-robin order starting at this allocator's cursor.  The
    /// lock-free `reusable_nodes` guard keeps allocation scan-free until a
    /// structural delete has actually retired something.
    fn reuse(&mut self, now: u64) -> Option<AllocatedNode> {
        if self.pool.reusable_nodes() == 0 {
            return None;
        }
        let servers = self.pool.servers() as u16;
        for i in 0..servers {
            let ms = (self.next_ms + i) % servers;
            if let Some(reused) = self.pool.reuse_node(ms, now) {
                return Some(AllocatedNode {
                    addr: reused.addr,
                    version_floor: reused.tombstone_version,
                });
            }
        }
        None
    }

    /// A node without asking any server: a retired address whose quarantine
    /// has cleared, else one carved from the local chunk.
    fn take_local(&mut self, now: u64) -> Option<AllocatedNode> {
        self.reuse(now).or_else(|| {
            self.carve().map(|addr| AllocatedNode {
                addr,
                version_floor: 0,
            })
        })
    }

    /// Every server denied a chunk.  Rescan the free lists once more — an
    /// epoch may have advanced (or another client retired a node) since the
    /// fast-path reuse check, and under pool-near-exhaustion that rescue is
    /// what keeps a full cluster serving writes at its steady-state
    /// footprint — else surface the typed [`PoolError::Exhausted`]
    /// backpressure error.
    fn rescue(&mut self, now: u64) -> Result<AllocatedNode, PoolError> {
        if let Some(node) = self.reuse(now) {
            self.pool.backpressure().reuse_rescues.inc();
            return Ok(node);
        }
        self.pool.backpressure().exhaustion_events.inc();
        Err(PoolError::Exhausted(self.pool.alloc_error()))
    }

    /// Allocate one node, blocking: the allocation machine
    /// ([`ClientAllocator::step_alloc`]), each chunk request polled at once.
    pub fn alloc_node(
        &mut self,
        client: &mut ClientCtx<B::Channel>,
    ) -> Result<AllocatedNode, PoolError> {
        loop {
            match self.step_alloc(client)? {
                AllocStep::Done(node) => return Ok(node),
                AllocStep::Chunk(token) => {
                    client.poll_token(token);
                }
            }
        }
    }

    /// Advance the allocation of one node as far as it goes without waiting:
    /// recycle a retired address when the reclamation policy has cleared one
    /// (keeping the remote-memory footprint at the steady-state tree size
    /// under churn), else carve from the local chunk, else request a new
    /// chunk — the allocation RPC, which the caller waits for before it steps
    /// again — from each server in round-robin order until one grants it.  A
    /// server that is full is skipped, matching the paper's "choose an MS in
    /// a round-robin manner"; when every server denies the request, the
    /// free lists are rescanned once before the typed
    /// [`PoolError::Exhausted`] is returned.
    pub fn step_alloc(
        &mut self,
        client: &mut ClientCtx<B::Channel>,
    ) -> Result<AllocStep, PoolError> {
        let mut left = match self.request.take() {
            Some((ms, left)) => match self.pool.alloc_chunk_untimed(ms) {
                Ok(base) => return Ok(AllocStep::Done(self.install(base))),
                Err(PoolError::OutOfMemory { .. }) => left,
                Err(e) => return Err(e),
            },
            None => match self.take_local(client.now()) {
                Some(node) => return Ok(AllocStep::Done(node)),
                None => self.pool.servers() as u16,
            },
        };
        if left == 0 {
            // The request round trips took virtual time: a retirement may
            // have cleared quarantine meanwhile.
            return self.rescue(client.now()).map(AllocStep::Done);
        }
        left -= 1;
        let ms = self.next_server();
        let token = self.pool.post_chunk_request(client, ms)?;
        self.request = Some((ms, left));
        Ok(AllocStep::Chunk(token))
    }

    /// Allocate one node without charging fabric time (bulkload / setup).
    pub fn alloc_node_untimed(
        &mut self,
        client: &mut ClientCtx<B::Channel>,
    ) -> Result<AllocatedNode, PoolError> {
        if let Some(node) = self.take_local(client.now()) {
            return Ok(node);
        }
        for _ in 0..self.pool.servers() {
            let ms = self.next_server();
            match self.pool.alloc_chunk_untimed(ms) {
                Ok(base) => return Ok(self.install(base)),
                Err(PoolError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.rescue(client.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_sim::{Fabric, FabricConfig};

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
        pool.retire_node(a.addr, 9, client.now());
        client.charge_cpu(1);
        let c = alloc.alloc_node(&mut client).unwrap();
        assert_eq!(c.addr, a.addr, "retired address is recycled");
        assert_eq!(c.version_floor, 9, "the tombstone version rides the reuse");
        assert_eq!(c.first_version(), 10, "new images must be stamped above it");
        assert_eq!(alloc.chunks_acquired(), 1, "no new chunk was requested");
        assert_eq!(pool.reclaim_stats().reused, 1);
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
        pool.retire_node(got[0].addr, 5, client.now());
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
        pool.retire_node(got[3].addr, 2, client.now());
        client.charge_cpu(1);
        let node = alloc.alloc_node(&mut client).expect("free list rescues");
        assert_eq!(node.addr, got[3].addr);
        assert_eq!(node.first_version(), 3);
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
