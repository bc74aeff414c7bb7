//! Cluster-wide memory pool: the compute-server view of all memory servers'
//! allocation services.
//!
//! The pool owns one [`ChunkAllocator`] per memory server.  A compute-server
//! thread requests a chunk with [`MemoryPool::alloc_chunk`], which charges the
//! two-sided RPC round trip on the simulated fabric (the memory thread's work)
//! and then performs the allocation.  This mirrors §4.2.4: allocation RPCs are
//! rare (one per 8 MB of new tree nodes), so the wimpy MS cores stay off the
//! data path.

use crate::alloc::{ChunkAllocator, FreeListStats, NodeFreeList, ReusedNode};
use crate::epoch::EpochRegistry;
use crate::layout::{ServerLayout, ROOT_PTR_OFFSET, SUPERBLOCK_MAGIC, TREE_LEVEL_HINT_OFFSET};
use parking_lot::Mutex;
use sherman_metrics::{BackpressureCounters, EpochGauges};
use sherman_sim::{ClientCtx, Fabric, FabricBackend, GlobalAddress};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from the allocation control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The targeted memory server has no free chunks left.
    OutOfMemory {
        /// Server that was asked.
        ms: u16,
    },
    /// The targeted memory server does not exist.
    NoSuchServer {
        /// Offending id.
        ms: u16,
    },
    /// The whole pool is exhausted: every server denied a chunk request *and*
    /// no retired address was reusable.  Unlike [`PoolError::OutOfMemory`]
    /// (one server, one request) this is the terminal backpressure signal a
    /// caller should surface to the operation that needed the node.
    Exhausted(AllocError),
    /// The underlying fabric reported an error.
    Fabric(sherman_sim::SimError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfMemory { ms } => write!(f, "memory server {ms} is out of chunks"),
            PoolError::NoSuchServer { ms } => write!(f, "memory server {ms} does not exist"),
            PoolError::Exhausted(e) => write!(f, "{e}"),
            PoolError::Fabric(e) => write!(f, "fabric error: {e}"),
        }
    }
}

/// The typed description of a pool-wide allocation failure: how much of the
/// cluster was tried and what (if anything) is still quarantined.  Carried by
/// [`PoolError::Exhausted`] so callers can turn exhaustion into backpressure
/// (reject the operation, keep serving reads) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Memory servers that denied a chunk request.
    pub servers_tried: usize,
    /// Retired addresses still waiting for the reclamation policy to clear
    /// them (a later retry may succeed once readers unpin).
    pub quarantined: u64,
    /// Retired addresses nominally available (all quarantined or racing other
    /// allocators at the time of the failure).
    pub reusable: u64,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory pool exhausted: {} servers out of chunks, {} addresses quarantined, \
             {} retired-but-unreusable",
            self.servers_tried, self.quarantined, self.reusable
        )
    }
}

impl std::error::Error for AllocError {}

impl std::error::Error for PoolError {}

impl From<sherman_sim::SimError> for PoolError {
    fn from(e: sherman_sim::SimError) -> Self {
        PoolError::Fabric(e)
    }
}

/// Size in bytes of the allocation RPC request and response messages.
const ALLOC_RPC_REQ_BYTES: usize = 16;
const ALLOC_RPC_RESP_BYTES: usize = 16;

/// The cluster-wide allocation service.
///
/// Generic over the fabric backend: the pool only needs configuration, god
/// access for the superblock stamp, and a client to charge allocation RPCs
/// on, all of which the [`FabricBackend`] trait provides.  Defaults to the
/// virtual-time simulator.
#[derive(Debug)]
pub struct MemoryPool<B: FabricBackend = Fabric> {
    fabric: Arc<B>,
    chunk_bytes: u64,
    allocators: Vec<Mutex<ChunkAllocator>>,
    layouts: Vec<ServerLayout>,
    /// Node addresses retired by structural deletes, one list per server.
    free_nodes: Vec<Mutex<NodeFreeList>>,
    /// The reader-epoch registry every free list consults; tree clients
    /// register their reader slots here.
    epochs: Arc<EpochRegistry>,
    /// Tree nodes carved out of chunks by all client allocators.
    nodes_carved: AtomicU64,
    /// Retired addresses not yet reissued (fast-path guard: allocators skip
    /// the free-list scan entirely while this is zero, keeping the common
    /// insert/split path free of per-server lock traffic).
    retired_available: AtomicU64,
    /// Allocation-backpressure counters (chunk denials, rescue reuses,
    /// exhaustion events), shared by every client allocator.
    backpressure: BackpressureCounters,
}

impl<B: FabricBackend> MemoryPool<B> {
    /// Create the pool for `fabric`, using `chunk_bytes` chunks, and stamp the
    /// superblock (magic, null root pointer) on memory server 0.
    pub fn new(fabric: Arc<B>, chunk_bytes: u64) -> Arc<Self> {
        let cfg = fabric.config().clone();
        let mut allocators = Vec::new();
        let mut layouts = Vec::new();
        for ms in 0..cfg.memory_servers {
            allocators.push(Mutex::new(ChunkAllocator::new(
                cfg.host_bytes_per_ms as u64,
                chunk_bytes,
            )));
            layouts.push(ServerLayout {
                ms: ms as u16,
                host_bytes: cfg.host_bytes_per_ms as u64,
                onchip_bytes: cfg.onchip_bytes_per_ms as u64,
                chunk_bytes,
            });
        }
        fabric
            .god_write_u64(ServerLayout::magic_addr(), SUPERBLOCK_MAGIC)
            .expect("superblock must fit");
        fabric
            .god_write_u64(GlobalAddress::host(0, ROOT_PTR_OFFSET), 0)
            .expect("superblock must fit");
        fabric
            .god_write_u64(GlobalAddress::host(0, TREE_LEVEL_HINT_OFFSET), 0)
            .expect("superblock must fit");
        let servers = allocators.len();
        let epochs = EpochRegistry::new();
        let mut free_nodes = Vec::with_capacity(servers);
        free_nodes.resize_with(servers, || {
            Mutex::new(NodeFreeList::new(Arc::clone(&epochs)))
        });
        Arc::new(MemoryPool {
            fabric,
            chunk_bytes,
            allocators,
            layouts,
            free_nodes,
            epochs,
            nodes_carved: AtomicU64::new(0),
            retired_available: AtomicU64::new(0),
            backpressure: BackpressureCounters::default(),
        })
    }

    /// The fabric the pool is bound to.
    pub fn fabric(&self) -> &Arc<B> {
        &self.fabric
    }

    /// Chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Number of memory servers in the pool.
    pub fn servers(&self) -> usize {
        self.allocators.len()
    }

    /// Layout description for memory server `ms`.
    pub fn layout(&self, ms: u16) -> Result<ServerLayout, PoolError> {
        self.layouts
            .get(ms as usize)
            .copied()
            .ok_or(PoolError::NoSuchServer { ms })
    }

    /// Request a chunk from memory server `ms` over the (simulated) allocation
    /// RPC, returning the chunk's starting address.
    pub fn alloc_chunk(
        &self,
        client: &mut ClientCtx<B::Channel>,
        ms: u16,
    ) -> Result<GlobalAddress, PoolError> {
        let allocator = self
            .allocators
            .get(ms as usize)
            .ok_or(PoolError::NoSuchServer { ms })?;
        client.rpc_round_trip(ms, ALLOC_RPC_REQ_BYTES, ALLOC_RPC_RESP_BYTES)?;
        let offset = allocator.lock().alloc().ok_or_else(|| {
            self.backpressure.record_chunk_denial();
            PoolError::OutOfMemory { ms }
        })?;
        Ok(GlobalAddress::host(ms, offset))
    }

    /// Allocate a chunk without charging fabric time (bulkload / test setup).
    pub fn alloc_chunk_untimed(&self, ms: u16) -> Result<GlobalAddress, PoolError> {
        let allocator = self
            .allocators
            .get(ms as usize)
            .ok_or(PoolError::NoSuchServer { ms })?;
        let offset = allocator.lock().alloc().ok_or_else(|| {
            self.backpressure.record_chunk_denial();
            PoolError::OutOfMemory { ms }
        })?;
        Ok(GlobalAddress::host(ms, offset))
    }

    /// Return a chunk to its memory server (no RPC is charged: deallocation is
    /// a local free-bit clear in Sherman and chunk returns only happen on
    /// shutdown paths).
    pub fn free_chunk(&self, addr: GlobalAddress) -> Result<(), PoolError> {
        let allocator = self
            .allocators
            .get(addr.ms as usize)
            .ok_or(PoolError::NoSuchServer { ms: addr.ms })?;
        allocator.lock().free(addr.offset);
        Ok(())
    }

    /// Remaining chunks on each server (for observability and tests).
    pub fn remaining_chunks(&self) -> Vec<u64> {
        self.allocators
            .iter()
            .map(|a| a.lock().remaining_chunks())
            .collect()
    }

    // ------------------------------------------------------------------
    // Node-grained free / reuse (structural deletes)
    // ------------------------------------------------------------------

    /// The reader-epoch registry of this deployment.  Tree clients register
    /// here so that epoch-based reclamation can track their pins.
    pub fn epoch_registry(&self) -> &Arc<EpochRegistry> {
        &self.epochs
    }

    /// Retire a node address freed by a structural delete at virtual time
    /// `now`.  `tombstone_version` is the node-level version of the tombstone
    /// image written at the address; the eventual reuser seeds its image
    /// above it.  The address stays quarantined until every reader pinned at
    /// or before its retirement has unpinned, then
    /// [`MemoryPool::reuse_node`] hands it out again.
    ///
    /// No fabric time is charged: like the paper's free-bit deallocation, the
    /// free-list bookkeeping is compute-side metadata.
    pub fn retire_node(&self, addr: GlobalAddress, tombstone_version: u8, now: u64) {
        if let Some(fl) = self.free_nodes.get(addr.ms as usize) {
            fl.lock().retire(addr, tombstone_version, now);
            self.retired_available.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retired addresses not yet handed back out (includes addresses still in
    /// quarantine).  Zero means a free-list scan cannot possibly succeed.
    pub fn reusable_nodes(&self) -> u64 {
        self.retired_available.load(Ordering::Relaxed)
    }

    /// Take one reusable node address from server `ms`'s free list, if any
    /// has cleared quarantine.
    pub fn reuse_node(&self, ms: u16, now: u64) -> Option<ReusedNode> {
        let reused = self.free_nodes.get(ms as usize)?.lock().reuse(now)?;
        self.retired_available.fetch_sub(1, Ordering::Relaxed);
        Some(reused)
    }

    /// Snapshot of the epoch-reclamation gauges: epoch lag of the oldest
    /// pinned reader and the quarantined addresses it is blocking.
    pub fn epoch_gauges(&self) -> EpochGauges {
        let (mut pinned_buckets, mut quarantined) = (0u64, 0u64);
        for fl in &self.free_nodes {
            let fl = fl.lock();
            pinned_buckets += fl.pinned_buckets();
            quarantined += fl.stats().quarantined;
        }
        EpochGauges::from_raw(
            self.epochs.current(),
            self.epochs.min_pinned(),
            self.epochs.registered_readers() as u64,
            self.epochs.pinned_readers() as u64,
            pinned_buckets,
            quarantined,
        )
    }

    /// Allocation-backpressure counters: chunk denials, free-list rescue
    /// reuses under pressure, and typed exhaustion events.
    pub fn backpressure(&self) -> &BackpressureCounters {
        &self.backpressure
    }

    /// Build the typed exhaustion error describing the pool's state right
    /// now (how many servers are dry, what is still quarantined).  Called by
    /// client allocators when every fallback failed.
    pub fn alloc_error(&self) -> AllocError {
        let (mut quarantined, mut total) = (0u64, 0u64);
        for fl in &self.free_nodes {
            let s = fl.lock().stats();
            quarantined += s.quarantined;
            total += s.retired.saturating_sub(s.reused);
        }
        AllocError {
            servers_tried: self.servers(),
            quarantined,
            reusable: total,
        }
    }

    /// Record that a client allocator carved one fresh node out of a chunk.
    pub fn note_node_carved(&self) {
        self.nodes_carved.fetch_add(1, Ordering::Relaxed);
    }

    /// Nodes carved out of chunks so far (fresh allocations, not reuses).
    pub fn nodes_carved(&self) -> u64 {
        self.nodes_carved.load(Ordering::Relaxed)
    }

    /// Aggregated free-list counters across every memory server.
    pub fn reclaim_stats(&self) -> FreeListStats {
        let mut total = FreeListStats::default();
        for fl in &self.free_nodes {
            total.merge(&fl.lock().stats());
        }
        total
    }

    /// Node addresses currently allocated to the tree: everything ever carved
    /// or re-issued, minus addresses sitting retired in the free lists.
    pub fn nodes_outstanding(&self) -> u64 {
        let s = self.reclaim_stats();
        (self.nodes_carved() + s.reused).saturating_sub(s.retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_sim::FabricConfig;

    fn pool() -> Arc<MemoryPool> {
        let fabric = Fabric::new(FabricConfig::small_test());
        MemoryPool::new(fabric, 64 << 10)
    }

    #[test]
    fn superblock_is_stamped() {
        let p = pool();
        assert_eq!(
            p.fabric().god_read_u64(ServerLayout::magic_addr()).unwrap(),
            SUPERBLOCK_MAGIC
        );
        assert_eq!(
            p.fabric()
                .god_read_u64(ServerLayout::root_ptr_addr())
                .unwrap(),
            0
        );
    }

    #[test]
    fn alloc_chunk_charges_rpc_and_returns_distinct_chunks() {
        let p = pool();
        let mut client = p.fabric().client(0);
        let a = p.alloc_chunk(&mut client, 0).unwrap();
        let b = p.alloc_chunk(&mut client, 0).unwrap();
        let c = p.alloc_chunk(&mut client, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.ms, 0);
        assert_eq!(c.ms, 1);
        assert_eq!(client.stats().rpcs, 3);
        assert!(client.now() > 0, "RPC must cost virtual time");
    }

    #[test]
    fn exhaustion_and_free() {
        let fabric = Fabric::new(FabricConfig::small_test());
        // 4 MiB host, 1 MiB chunks => 3 chunks after the superblock page.
        let p = MemoryPool::new(fabric, 1 << 20);
        let mut client = p.fabric().client(0);
        let mut got = Vec::new();
        loop {
            match p.alloc_chunk(&mut client, 0) {
                Ok(addr) => got.push(addr),
                Err(PoolError::OutOfMemory { ms: 0 }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(got.len(), 3);
        p.free_chunk(got[0]).unwrap();
        assert_eq!(p.alloc_chunk(&mut client, 0).unwrap(), got[0]);
    }

    #[test]
    fn retired_nodes_reappear_only_after_grace() {
        let p = pool();
        let reader = p.epoch_registry().register();
        let pin = reader.pin();
        let addr = GlobalAddress::host(1, 32 << 10);
        p.retire_node(addr, 1, 1_000);
        assert_eq!(p.reuse_node(1, 5_000), None, "still quarantined");
        drop(pin);
        assert_eq!(p.reuse_node(0, 50_000), None, "wrong server");
        assert_eq!(p.reuse_node(1, 11_000).map(|r| r.addr), Some(addr));
        let s = p.reclaim_stats();
        assert_eq!((s.retired, s.reused), (1, 1));
    }

    #[test]
    fn epoch_reclamation_tracks_pins_across_the_pool() {
        let p = pool();
        let reader = p.epoch_registry().register();
        let a = GlobalAddress::host(0, 8 << 10);
        let b = GlobalAddress::host(1, 8 << 10);
        p.retire_node(a, 3, 100);
        let pin = reader.pin();
        p.retire_node(b, 5, 200);

        let g = p.epoch_gauges();
        assert_eq!(g.pinned_readers, 1);
        assert!(g.epoch_lag > 0, "a retirement happened past the pin");
        assert_eq!(g.pinned_buckets, 1, "only the post-pin retirement is blocked");
        // The pre-pin retirement cleared quarantine at retire time (eager
        // sweep); only the pinned one still waits.
        assert_eq!(g.quarantined, 1);

        // The pre-pin retirement recycles immediately; the post-pin one waits.
        let r = p.reuse_node(0, 300).expect("pre-pin address recycles");
        assert_eq!((r.addr, r.tombstone_version), (a, 3));
        assert_eq!(p.reuse_node(1, 1 << 40), None);
        drop(pin);
        assert_eq!(p.reuse_node(1, 1 << 40).map(|r| r.addr), Some(b));
        let g = p.epoch_gauges();
        assert_eq!((g.epoch_lag, g.pinned_buckets, g.quarantined), (0, 0, 0));
    }

    #[test]
    fn outstanding_counts_carves_and_retirements() {
        let p = pool();
        p.note_node_carved();
        p.note_node_carved();
        assert_eq!(p.nodes_outstanding(), 2);
        p.retire_node(GlobalAddress::host(0, 8 << 10), 1, 100);
        assert_eq!(p.nodes_outstanding(), 1);
        let reused = p.reuse_node(0, 200).unwrap();
        assert_eq!(reused.addr.offset, 8 << 10);
        assert_eq!(p.nodes_outstanding(), 2);
    }

    #[test]
    fn unknown_server_is_rejected() {
        let p = pool();
        let mut client = p.fabric().client(0);
        assert_eq!(
            p.alloc_chunk(&mut client, 7).unwrap_err(),
            PoolError::NoSuchServer { ms: 7 }
        );
        assert!(p.layout(7).is_err());
        assert_eq!(p.layout(1).unwrap().ms, 1);
    }
}
