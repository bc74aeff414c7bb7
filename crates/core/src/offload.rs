//! Server-side traversal offload: the request and reply types, the bounded
//! interpreter that answers them, and the adaptive placement policy.
//!
//! Sherman's client-side traversal pays one dependent fabric round trip per
//! uncached tree level — a cold lookup on a depth-4 tree is 4 serialized
//! RTTs.  FlexKV- and Outback-style systems move that walk to the memory
//! side: the client posts one RPC carrying an [`RpcRequest`] and a bounded
//! interpreter on the memory server executes the descent locally, so the
//! cold lookup costs O(1) round trips.
//!
//! The interpreter here is that memory-side program, with one entry,
//! [`Cluster::serve_rpc`]: the tree's offload arm (`crate::ops`) runs it as
//! the server-side work of the fabric's one two-sided verb
//! ([`sherman_sim::ClientCtx::post_rpc`]), inside the verb's window.  It
//! runs under exactly the one-sided rules: node images are read through the
//! word-atomic [`sherman_sim::Region`], so a walk racing a writer can
//! observe torn images and must validate every node (version pair, free
//! bit, fences) just as a client-side traversal would.  It
//! is **bounded** — a fixed torn-read retry budget per node and the
//! request's `max_levels` / `max_leaves` caps — and it never takes locks;
//! anything it cannot resolve becomes an [`RpcDecline`] and the client
//! falls back to its local path.  Results are *hints*, not authority: the
//! client re-validates every returned node against its tombstone admission
//! floor before trusting it, so a reply carrying a freed-and-recycled node
//! image can never be served (see `crate::ops`'s offload arm).
//!
//! The placement policy ([`should_offload`]) decides per operation which
//! arm runs.  `Always`/`Never` are the fixed endpoints the regime map
//! benchmarks; `Adaptive` offloads only when the modeled cost of the
//! remaining dependent-read chain (at the observed per-read latency EWMA)
//! exceeds the modeled cost of one RPC round trip plus the server's
//! per-level service charge.

use crate::cluster::Cluster;
use crate::config::OffloadPolicy;
use crate::layout::{HEADER_BYTES, INTERNAL_ENTRY_BYTES};
use crate::node::{NodeHeader, Step};
use crate::ops::cached_from_internal;
use sherman_cache::CachedInternal;
use sherman_sim::{FabricBackend, GlobalAddress, RpcServed, RpcWork};

/// Torn-image retries per node before the interpreter declines.  The
/// interpreter must never spin unboundedly on the server's CPU: a writer
/// parked mid-write (threaded backend) would otherwise wedge the RPC.
const TORN_RETRIES: usize = 48;

/// Internal levels a range descent may visit before declining (ranges have
/// no client-supplied level budget; this matches the deepest tree the
/// simulator can realistically hold).
const RANGE_DESCENT_BUDGET: u8 = 16;

/// A request the memory server's interpreter executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcRequest {
    /// Descend from `from_addr` toward the leaf covering `key`, visiting at
    /// most `max_levels` nodes, and search the leaf if one is reached.  This
    /// is the cold-lookup collapser: one RPC replaces an O(depth) chain of
    /// dependent one-sided reads.
    TraverseStep {
        /// Node to start from (the root, or a type-❷ routing hint).
        from_addr: GlobalAddress,
        /// Key whose leaf the walk descends toward.
        key: u64,
        /// Budget on node visits; the interpreter declines past it.
        max_levels: u8,
    },
    /// Search a single known leaf for `key` (the type-❶-hit analogue: the
    /// client knows the leaf address and trades its one-sided read + local
    /// search for one RPC).
    LeafSearch {
        /// Address of the leaf to search.
        leaf_addr: GlobalAddress,
        /// Key to search for.
        key: u64,
    },
    /// Descend from `from_addr` to the leaf covering `start_key`, then scan
    /// forward along the B-link sibling chain collecting live entries with
    /// key ≥ `start_key`, visiting at most `max_leaves` leaves and returning
    /// at most `max_entries` entries.
    LeafRange {
        /// Node to start the descent from.
        from_addr: GlobalAddress,
        /// Inclusive lower bound of the scan.
        start_key: u64,
        /// Cap on entries returned.
        max_entries: u32,
        /// Cap on leaves scanned.
        max_leaves: u8,
    },
}

impl RpcRequest {
    /// Estimated wire size of the request (fixed-size header + operands).
    pub fn wire_bytes(&self) -> usize {
        match self {
            RpcRequest::TraverseStep { .. } => 32,
            RpcRequest::LeafSearch { .. } => 24,
            RpcRequest::LeafRange { .. } => 32,
        }
    }

    /// The memory server that executes this request (where the starting
    /// node lives — the interpreter may follow pointers onto sibling
    /// servers' regions, modeling a memory-side compute pool with
    /// fabric-local access).
    pub fn home_ms(&self) -> u16 {
        match self {
            RpcRequest::TraverseStep { from_addr, .. } => from_addr.ms,
            RpcRequest::LeafSearch { leaf_addr, .. } => leaf_addr.ms,
            RpcRequest::LeafRange { from_addr, .. } => from_addr.ms,
        }
    }
}

/// Header facts about one node the interpreter visited, returned so the
/// client can run the same fence / B-link / tombstone validation it applies
/// to its own one-sided reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcNodeInfo {
    /// The node's address.
    pub addr: GlobalAddress,
    /// Node level (0 = leaf).
    pub level: u8,
    /// Node-level `front_version` of the image the interpreter validated.
    /// The client checks this against its tombstone admission floor: a
    /// result at or below a recorded tombstone version is a freed/recycled
    /// image and must be rejected.
    pub version: u8,
    /// Lower fence key (inclusive).
    pub fence_low: u64,
    /// Upper fence key (exclusive; `u64::MAX` = +∞).
    pub fence_high: u64,
    /// Right B-link sibling, if any.
    pub sibling: Option<GlobalAddress>,
}

impl RpcNodeInfo {
    fn of(addr: GlobalAddress, header: &NodeHeader) -> Self {
        RpcNodeInfo {
            addr,
            level: header.level,
            version: header.front_version,
            fence_low: header.fence_low,
            fence_high: header.fence_high,
            sibling: header.sibling,
        }
    }

    /// Whether `key` falls inside this node's fence interval.
    pub fn covers(&self, key: u64) -> bool {
        key >= self.fence_low && (self.fence_high == u64::MAX || key < self.fence_high)
    }
}

/// Why the interpreter declined to produce a result; the client falls back
/// to its local one-sided path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcDecline {
    /// A node image stayed torn (version mismatch) past the
    /// interpreter's bounded retry budget — a writer is mid-flight.
    TornRead {
        /// The node whose image would not settle.
        addr: GlobalAddress,
    },
    /// The walk reached a node whose free bit is set; the client must
    /// invalidate any cache entry referencing it and re-locate.
    FreedNode {
        /// The freed node.
        addr: GlobalAddress,
    },
    /// An internal node's fences did not cover the key (a concurrent split
    /// or merge moved it); the client retries with its local B-link logic.
    FenceMiss {
        /// The non-covering node.
        addr: GlobalAddress,
    },
    /// The walk ran out of its `max_levels` / `max_leaves` budget.
    BudgetExhausted,
}

/// Result of a [`RpcRequest::TraverseStep`] or [`RpcRequest::LeafSearch`]:
/// the reached leaf plus the search outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcLeafReply {
    /// The reached (or searched) leaf's header facts.
    pub leaf: RpcNodeInfo,
    /// Value found for the key, if present with consistent entry versions.
    pub found: Option<u64>,
    /// The key lies at/after the leaf's upper fence: the server returns the
    /// sibling-chase hint ([`RpcNodeInfo::sibling`]) and the client chases
    /// locally — B-link semantics are preserved, not bypassed.
    pub chase_sibling: bool,
    /// The key was present but its entry-version pair mismatched (an
    /// entry-granular write was mid-flight); the client re-reads locally.
    pub entry_conflict: bool,
    /// Cacheable image of the level-1 node the walk passed through, for
    /// type-❶ cache warming (`None` for a direct [`RpcRequest::LeafSearch`]
    /// or a one-level tree).
    pub level1: Option<CachedInternal>,
    /// Server-side work performed (drives the simulator's cost model).
    pub work: RpcWork,
}

/// Result of a [`RpcRequest::LeafRange`]: collected entries plus the scan
/// frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcRangeReply {
    /// Live `(key, value)` entries with key ≥ `start_key`, in scan order
    /// (unsorted within a leaf for unsorted layouts; the client sorts).
    pub entries: Vec<(u64, u64)>,
    /// Header facts of every leaf scanned, in chain order — the client
    /// validates **each** against its tombstone floor before accepting any
    /// of the entries.
    pub leaves: Vec<RpcNodeInfo>,
    /// Where the scan stopped: the next sibling to continue from locally,
    /// or `None` when the chain ended.
    pub next: Option<GlobalAddress>,
    /// Cacheable image of the level-1 node the descent passed through, for
    /// type-❶ cache warming.
    pub level1: Option<CachedInternal>,
    /// Server-side work performed.
    pub work: RpcWork,
}

/// The interpreter's answer to one [`RpcRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcResponse {
    /// Reply to a traverse/leaf-search request.
    Leaf(RpcLeafReply),
    /// Reply to a range request.
    Range(RpcRangeReply),
    /// The interpreter declined; the client retries on its local one-sided
    /// path.  Declines carry the work already spent so it is still charged.
    Declined {
        /// Why the interpreter gave up.
        reason: RpcDecline,
        /// Work spent before declining.
        work: RpcWork,
    },
}

impl RpcResponse {
    /// Estimated wire size of the response.  A level-1 image travels as the
    /// used prefix of the node the server read (its header and one entry per
    /// separator), whatever the client's cache will charge it once packed.
    pub fn wire_bytes(&self) -> usize {
        let level1_bytes = |l: &Option<CachedInternal>| {
            l.as_ref()
                .map_or(0, |img| HEADER_BYTES + img.len() * INTERNAL_ENTRY_BYTES)
        };
        match self {
            RpcResponse::Leaf(r) => 64 + level1_bytes(&r.level1),
            RpcResponse::Range(r) => {
                32 + r.entries.len() * 16 + r.leaves.len() * 40 + level1_bytes(&r.level1)
            }
            RpcResponse::Declined { .. } => 16,
        }
    }

    /// What this response costs the fabric to carry (its wire size) and
    /// the server to produce (its work, drives the simulator's cost model).
    pub fn served(&self) -> RpcServed {
        let work = match self {
            RpcResponse::Leaf(r) => r.work,
            RpcResponse::Range(r) => r.work,
            RpcResponse::Declined { work, .. } => *work,
        };
        RpcServed {
            response_bytes: self.wire_bytes(),
            work,
        }
    }
}

impl<B: FabricBackend> Cluster<B> {
    /// The memory side's bounded traversal interpreter: execute `req`
    /// against the memory servers' state and answer it.
    ///
    /// The whole memory pool is in reach: node pointers round-robin across
    /// memory servers, so a walk started on the request's home server
    /// follows children onto its siblings' regions (a memory-side compute
    /// pool with fabric-local access between memory servers).  Bounded and
    /// lock-free: it never blocks.
    pub fn serve_rpc(&self, req: &RpcRequest) -> RpcResponse {
        match *req {
            RpcRequest::TraverseStep {
                from_addr,
                key,
                max_levels,
            } => traverse(self, from_addr, key, max_levels),
            RpcRequest::LeafSearch { leaf_addr, key } => leaf_search(self, leaf_addr, key),
            RpcRequest::LeafRange {
                from_addr,
                start_key,
                max_entries,
                max_leaves,
            } => range(self, from_addr, start_key, max_entries, max_leaves),
        }
    }
}

/// Read and validate one node image into `buf`: bounded torn-read retries,
/// then free-bit check.  All reads go through [`sherman_sim::Region`], so
/// both backends see identical word-atomic semantics.
fn read_node<B: FabricBackend>(
    cluster: &Cluster<B>,
    addr: GlobalAddress,
    buf: &mut [u8],
) -> Result<NodeHeader, RpcDecline> {
    let Some(server) = cluster.fabric().servers().get(addr.ms as usize) else {
        return Err(RpcDecline::TornRead { addr });
    };
    for _ in 0..TORN_RETRIES {
        if server
            .region(addr.space)
            .read_bytes(addr.offset, buf)
            .is_err()
        {
            return Err(RpcDecline::TornRead { addr });
        }
        if cluster.layout().node_versions_match(buf) {
            let header = cluster.layout().decode_header(buf);
            if header.free {
                return Err(RpcDecline::FreedNode { addr });
            }
            return Ok(header);
        }
        std::hint::spin_loop();
    }
    Err(RpcDecline::TornRead { addr })
}

/// Where a descent ended: the leaf's address and header, and a cacheable
/// image of the level-1 internal passed on the way, for client cache
/// warming.
type Reached = (GlobalAddress, NodeHeader, Option<CachedInternal>);

/// Descend from `from` toward the leaf covering `key`, visiting at most
/// `budget` nodes (sibling chases included), tallying the steps in `work`.
/// On success the reached leaf's image is left in `buf`.
fn descend<B: FabricBackend>(
    cluster: &Cluster<B>,
    from: GlobalAddress,
    key: u64,
    budget: u8,
    work: &mut RpcWork,
    buf: &mut [u8],
) -> Result<Reached, RpcDecline> {
    let mut addr = from;
    let mut level1 = None;
    for _ in 0..budget {
        let header = read_node(cluster, addr, buf)?;
        work.levels_stepped += 1;
        if header.is_leaf {
            return Ok((addr, header, level1));
        }
        // B-link: the key moved right past this node's fence; chase the
        // sibling (it costs a step) or give up to the client.  The server's
        // walk has no level to expect: it takes each node's own.
        match header.step(key, header.level) {
            Step::Here => {}
            Step::Right(sibling) => {
                addr = sibling;
                continue;
            }
            Step::Lost => return Err(RpcDecline::FenceMiss { addr }),
        }
        let internal = cluster.layout().decode_internal(buf);
        work.entries_scanned += internal.entries.len() as u32;
        if header.level == 1 {
            level1 = Some(cached_from_internal(addr, &internal));
        }
        addr = internal.child_for(key);
    }
    Err(RpcDecline::BudgetExhausted)
}

fn traverse<B: FabricBackend>(
    cluster: &Cluster<B>,
    from_addr: GlobalAddress,
    key: u64,
    max_levels: u8,
) -> RpcResponse {
    let mut work = RpcWork::NONE;
    let mut buf = vec![0u8; cluster.layout().node_size()];
    match descend(cluster, from_addr, key, max_levels, &mut work, &mut buf) {
        Ok((addr, header, level1)) => leaf_reply(cluster, addr, header, &buf, key, level1, work),
        Err(reason) => RpcResponse::Declined { reason, work },
    }
}

fn leaf_search<B: FabricBackend>(
    cluster: &Cluster<B>,
    leaf_addr: GlobalAddress,
    key: u64,
) -> RpcResponse {
    let mut work = RpcWork::NONE;
    let mut buf = vec![0u8; cluster.layout().node_size()];
    let header = match read_node(cluster, leaf_addr, &mut buf) {
        Ok(h) => h,
        Err(reason) => return RpcResponse::Declined { reason, work },
    };
    work.levels_stepped += 1;
    if !header.is_leaf {
        // The client's cached route pointed at something that is no longer
        // a leaf; its local fallback will re-locate and heal.
        return RpcResponse::Declined {
            reason: RpcDecline::FenceMiss { addr: leaf_addr },
            work,
        };
    }
    leaf_reply(cluster, leaf_addr, header, &buf, key, None, work)
}

/// Build the reply for a reached leaf: fence check (sibling-chase hint),
/// then entry search.
fn leaf_reply<B: FabricBackend>(
    cluster: &Cluster<B>,
    addr: GlobalAddress,
    header: NodeHeader,
    buf: &[u8],
    key: u64,
    level1: Option<CachedInternal>,
    mut work: RpcWork,
) -> RpcResponse {
    let info = RpcNodeInfo::of(addr, &header);
    match header.step(key, 0) {
        Step::Here => {}
        // The leaf split under us: hand the sibling hint back and let the
        // client chase with its own B-link logic.
        Step::Right(_) => {
            return RpcResponse::Leaf(RpcLeafReply {
                leaf: info,
                found: None,
                chase_sibling: true,
                entry_conflict: false,
                level1,
                work,
            });
        }
        Step::Lost => {
            return RpcResponse::Declined {
                reason: RpcDecline::FenceMiss { addr },
                work,
            };
        }
    }
    // A torn matched entry (an entry-granular write in flight) sends the
    // client back to read the leaf itself.
    let search = cluster
        .layout()
        .decode_leaf(buf)
        .search(key, cluster.options().leaf_format);
    work.entries_scanned += search.scanned as u32;
    RpcResponse::Leaf(RpcLeafReply {
        leaf: info,
        found: search.value(),
        chase_sibling: false,
        entry_conflict: search.torn,
        level1,
        work,
    })
}

fn range<B: FabricBackend>(
    cluster: &Cluster<B>,
    from_addr: GlobalAddress,
    start_key: u64,
    max_entries: u32,
    max_leaves: u8,
) -> RpcResponse {
    let mut work = RpcWork::NONE;
    let mut buf = vec![0u8; cluster.layout().node_size()];
    let descended = descend(
        cluster,
        from_addr,
        start_key,
        RANGE_DESCENT_BUDGET,
        &mut work,
        &mut buf,
    );
    let (mut addr, mut header, level1) = match descended {
        Ok(reached) => reached,
        Err(reason) => return RpcResponse::Declined { reason, work },
    };

    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut leaves: Vec<RpcNodeInfo> = Vec::new();
    let next;
    loop {
        // `buf` holds `addr`'s validated image.
        let leaf = cluster.layout().decode_leaf(&buf);
        work.entries_scanned += leaf.entries.len() as u32;
        let Some(needed) = leaf.entries_from(start_key) else {
            // An entry-granular write is in flight on a key the walk needs:
            // end the walk before this leaf, as at a torn sibling, and let
            // the client read it itself.
            next = Some(addr);
            break;
        };
        entries.extend(needed);
        leaves.push(RpcNodeInfo::of(addr, &header));
        if entries.len() >= max_entries as usize {
            next = header.sibling;
            break;
        }
        match header.sibling {
            None => {
                next = None;
                break;
            }
            Some(sib) if leaves.len() >= max_leaves as usize => {
                next = Some(sib);
                break;
            }
            Some(sib) => match read_node(cluster, sib, &mut buf) {
                Ok(h) if h.is_leaf => {
                    work.levels_stepped += 1;
                    addr = sib;
                    header = h;
                }
                // A torn/freed/mutated sibling mid-chain: stop here and let
                // the client continue locally from the frontier — everything
                // collected so far is still individually validated.
                _ => {
                    next = Some(sib);
                    break;
                }
            },
        }
    }
    RpcResponse::Range(RpcRangeReply {
        entries,
        leaves,
        next,
        level1,
        work,
    })
}

/// The per-operation placement decision: should this traversal run as one
/// server-side RPC instead of `remaining_reads` dependent one-sided reads?
///
/// `remaining_reads` is the client's estimate of the dependent read chain
/// left below its deepest cached image covering the key (an image routing
/// to child level `L` leaves `L + 1` reads; a full miss leaves
/// `root_level + 1`).
/// `ewma_read_ns` is the observed per-read service time
/// ([`sherman_metrics::OffloadCounters::ewma_read_ns`]); `fabric` supplies
/// the cost model's constants.
///
/// The adaptive arm compares the two placements' costs directly.  The local
/// path pays `remaining_reads` dependent round trips at the observed
/// per-read latency (the EWMA captures queueing and transfer time; the
/// configured unloaded RTT is its floor before any observation lands).  The
/// RPC pays one round trip plus the server's flat service time and per-level
/// stepping charge — but the *observed* RPC EWMA overrides that unloaded
/// model when it is worse, because every cold client routes its RPC to the
/// same home server and the wimpy core's service time serializes there:
/// queueing the model cannot see, the completion times can.  With the
/// default cost model the crossover sits around a 4–5 level descent on an
/// uncontended fabric, and backs off toward the client when RPC completions
/// start stretching.
pub(crate) fn should_offload(
    policy: OffloadPolicy,
    remaining_reads: u8,
    ewma_read_ns: u64,
    ewma_rpc_ns: u64,
    fabric: &sherman_sim::FabricConfig,
) -> bool {
    match policy {
        OffloadPolicy::Never => false,
        OffloadPolicy::Always => true,
        OffloadPolicy::Adaptive => {
            let read_ns = ewma_read_ns.max(fabric.base_rtt_ns);
            let local_ns = read_ns.saturating_mul(remaining_reads as u64);
            let rpc_model_ns = fabric.base_rtt_ns
                + fabric.rpc_service_ns
                + fabric.rpc_step_ns.saturating_mul(remaining_reads as u64);
            let rpc_ns = rpc_model_ns.max(ewma_rpc_ns);
            local_ns > rpc_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::TreeOptions;
    use std::sync::Arc;

    fn cluster_with_keys(n: u64) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..n).map(|k| (k, k + 7))).unwrap();
        cluster
    }

    fn root_of(cluster: &Cluster) -> GlobalAddress {
        cluster
            .fabric()
            .god_read_u64(sherman_memserver::ServerLayout::root_ptr_addr())
            .map(GlobalAddress::unpack)
            .unwrap()
    }

    #[test]
    fn home_server_follows_the_starting_address() {
        let req = RpcRequest::TraverseStep {
            from_addr: GlobalAddress::host(3, 64),
            key: 7,
            max_levels: 4,
        };
        assert_eq!(req.home_ms(), 3);
        assert!(req.wire_bytes() > 0);
    }

    #[test]
    fn response_wire_bytes_scale_with_payload() {
        let leaf = RpcNodeInfo {
            addr: GlobalAddress::host(0, 0),
            level: 0,
            version: 1,
            fence_low: 0,
            fence_high: u64::MAX,
            sibling: None,
        };
        let small = RpcResponse::Range(RpcRangeReply {
            entries: vec![],
            leaves: vec![leaf],
            next: None,
            level1: None,
            work: RpcWork::NONE,
        });
        let big = RpcResponse::Range(RpcRangeReply {
            entries: (0..100).map(|i| (i, i)).collect(),
            leaves: vec![leaf; 4],
            next: None,
            level1: None,
            work: RpcWork::NONE,
        });
        assert!(big.wire_bytes() > small.wire_bytes());
        let declined = RpcResponse::Declined {
            reason: RpcDecline::BudgetExhausted,
            work: RpcWork::NONE,
        };
        assert_eq!(declined.wire_bytes(), 16);
    }

    /// A reply carries a level-1 image as the node prefix the server read,
    /// 48 B of header and 16 B per separator, not as its packed charge.
    #[test]
    fn a_level1_image_travels_as_its_node_prefix() {
        let children = (1..=9u64).map(|i| sherman_cache::ChildRef {
            separator: 100 * i,
            child: GlobalAddress::host(0, 4_096 + 256 * i),
        });
        let image = CachedInternal::new(
            GlobalAddress::host(0, 1 << 20),
            1,
            1,
            0,
            1_000,
            GlobalAddress::host(0, 4_096),
            children,
        );
        assert!(image.charge() < 48 + 9 * 16, "packed: {} B", image.charge());
        let leaf = RpcNodeInfo {
            addr: GlobalAddress::host(0, 4_096),
            level: 0,
            version: 1,
            fence_low: 0,
            fence_high: 100,
            sibling: None,
        };
        let reply = |level1| {
            RpcResponse::Leaf(RpcLeafReply {
                leaf,
                found: None,
                chase_sibling: false,
                entry_conflict: false,
                level1,
                work: RpcWork::NONE,
            })
        };
        assert_eq!(reply(None).wire_bytes(), 64);
        assert_eq!(reply(Some(image.clone())).wire_bytes(), 64 + 48 + 9 * 16);
        let range = RpcResponse::Range(RpcRangeReply {
            entries: vec![(1, 1)],
            leaves: vec![leaf],
            next: None,
            level1: Some(image),
            work: RpcWork::NONE,
        });
        assert_eq!(range.wire_bytes(), 32 + 16 + 40 + 48 + 9 * 16);
    }

    #[test]
    fn traverse_finds_present_and_absent_keys() {
        let cluster = cluster_with_keys(2_000);
        let root = root_of(&cluster);
        for key in [0u64, 999, 1_999] {
            let resp = cluster.serve_rpc(&RpcRequest::TraverseStep {
                from_addr: root,
                key,
                max_levels: 16,
            });
            let RpcResponse::Leaf(reply) = resp else {
                panic!("expected a leaf reply for key {key}, got {resp:?}");
            };
            assert_eq!(reply.found, Some(key + 7));
            assert!(!reply.chase_sibling);
            assert!(reply.leaf.covers(key));
            assert!(reply.work.levels_stepped >= 2, "walked more than one level");
            assert!(
                reply.level1.is_some(),
                "multi-level descent passes a level-1 node"
            );
        }
        let resp = cluster.serve_rpc(&RpcRequest::TraverseStep {
            from_addr: root,
            key: 5_000,
            max_levels: 16,
        });
        let RpcResponse::Leaf(reply) = resp else {
            panic!("expected a leaf reply, got {resp:?}");
        };
        assert_eq!(reply.found, None, "absent key is a clean miss");
    }

    #[test]
    fn traverse_respects_its_level_budget() {
        let cluster = cluster_with_keys(2_000);
        let resp = cluster.serve_rpc(&RpcRequest::TraverseStep {
            from_addr: root_of(&cluster),
            key: 999,
            max_levels: 1,
        });
        assert!(
            matches!(
                resp,
                RpcResponse::Declined {
                    reason: RpcDecline::BudgetExhausted,
                    ..
                }
            ),
            "a one-level budget cannot reach a depth>=2 leaf: {resp:?}"
        );
    }

    #[test]
    fn leaf_search_on_an_internal_node_declines() {
        let cluster = cluster_with_keys(2_000);
        let root = root_of(&cluster);
        let resp = cluster.serve_rpc(&RpcRequest::LeafSearch {
            leaf_addr: root,
            key: 10,
        });
        assert!(
            matches!(
                resp,
                RpcResponse::Declined {
                    reason: RpcDecline::FenceMiss { .. },
                    ..
                }
            ),
            "the root of a deep tree is not a leaf: {resp:?}"
        );
    }

    #[test]
    fn range_collects_across_the_sibling_chain() {
        let cluster = cluster_with_keys(2_000);
        let root = root_of(&cluster);
        let resp = cluster.serve_rpc(&RpcRequest::LeafRange {
            from_addr: root,
            start_key: 500,
            max_entries: 40,
            max_leaves: 16,
        });
        let RpcResponse::Range(reply) = resp else {
            panic!("expected a range reply, got {resp:?}");
        };
        assert!(reply.entries.len() >= 40, "filled the entry budget");
        let mut keys: Vec<u64> = reply.entries.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert!(keys.iter().all(|&k| k >= 500));
        assert_eq!(keys[..5], [500, 501, 502, 503, 504]);
        assert!(reply.entries.iter().all(|&(k, v)| v == k + 7));
        assert!(
            reply.leaves.len() > 1,
            "40 entries span multiple small leaves"
        );
        assert!(reply.next.is_some(), "truncated scan reports its frontier");
    }

    #[test]
    fn adaptive_policy_offloads_deep_misses_and_slow_fabrics_only() {
        // Default cost model: rtt 1600, flat service 2500, 600/level — the
        // crossover sits between a 4- and a 5-read descent.
        let fab = sherman_sim::FabricConfig::default();
        // Fixed endpoints.
        assert!(!should_offload(OffloadPolicy::Never, 9, u64::MAX, 0, &fab));
        assert!(should_offload(OffloadPolicy::Always, 0, 0, u64::MAX, &fab));
        // Adaptive: depth rule.  5 reads at the unloaded RTT (8000ns) lose
        // to one RPC (7100ns); 4 reads (6400ns) beat it (6500ns).
        assert!(should_offload(OffloadPolicy::Adaptive, 5, 0, 0, &fab));
        assert!(!should_offload(OffloadPolicy::Adaptive, 4, 0, 0, &fab));
        assert!(!should_offload(OffloadPolicy::Adaptive, 1, 1_600, 0, &fab));
        // Adaptive: read-latency rule.  A congested fabric inflates the
        // observed per-read EWMA and drags the crossover shallower.
        assert!(should_offload(OffloadPolicy::Adaptive, 2, 5_000, 0, &fab));
        assert!(should_offload(OffloadPolicy::Adaptive, 1, 10_000, 0, &fab));
        // Adaptive: RPC-latency rule.  Observed RPC completions stretching
        // past the unloaded model (server-side queueing) back placement off
        // toward the client even on a deep descent.
        assert!(!should_offload(OffloadPolicy::Adaptive, 5, 0, 9_000, &fab));
        assert!(should_offload(OffloadPolicy::Adaptive, 5, 0, 7_900, &fab));
    }
}
