//! Server-side traversal offload: the bounded RPC interpreter and the
//! adaptive placement policy.
//!
//! Sherman's client-side traversal pays one dependent fabric round trip per
//! uncached tree level — a cold lookup on a depth-4 tree is 4 serialized
//! RTTs.  FlexKV- and Outback-style systems move that walk to the memory
//! side: the client posts one typed RPC ([`sherman_sim::RpcRequest`]) and a
//! bounded interpreter on the memory server executes the descent locally,
//! so the cold lookup costs O(1) round trips.
//!
//! The interpreter here is that memory-side program.  It is registered on
//! the fabric backend at cluster bootstrap ([`crate::Cluster::new_on`]) and
//! runs under exactly the one-sided rules: node images are read through the
//! word-atomic [`sherman_sim::Region`], so a walk racing a writer can
//! observe torn images and must validate every node (version pair or
//! checksum, free bit, fences) just as a client-side traversal would.  It
//! is **bounded** — a fixed torn-read retry budget per node and the
//! request's `max_levels` / `max_leaves` caps — and it never takes locks;
//! anything it cannot resolve becomes an [`sherman_sim::RpcDecline`] and
//! the client falls back to its local path.  Results are *hints*, not
//! authority: the client re-validates every returned node against its
//! tombstone admission floor before trusting it, so a reply carrying a
//! freed-and-recycled node image can never be served (see
//! [`crate::ops`]'s offload arm).
//!
//! The placement policy ([`should_offload`]) decides per operation which
//! arm runs.  `Always`/`Never` are the fixed endpoints the regime map
//! benchmarks; `Adaptive` offloads only when the modeled cost of the
//! remaining dependent-read chain (at the observed per-read latency EWMA)
//! exceeds the modeled cost of one RPC round trip plus the server's
//! per-level service charge.

use crate::config::LeafFormat;
use crate::layout::NodeLayout;
use crate::node::{InternalNode, NodeHeader};
use crate::config::OffloadPolicy;
use sherman_sim::{
    GlobalAddress, MemServerSim, RpcDecline, RpcHandler, RpcLeafReply, RpcLevel1Image,
    RpcNodeInfo, RpcRangeReply, RpcRequest, RpcResponse, RpcWork,
};
use std::sync::Arc;

/// Torn-image retries per node before the interpreter declines.  The
/// interpreter must never spin unboundedly on the server's CPU: a writer
/// parked mid-write (threaded backend) would otherwise wedge the RPC.
const TORN_RETRIES: usize = 48;

/// Internal levels a range descent may visit before declining (ranges have
/// no client-supplied level budget; this matches the deepest tree the
/// simulator can realistically hold).
const RANGE_DESCENT_BUDGET: u8 = 16;

/// The memory-side bounded traversal interpreter.
///
/// One instance serves the whole cluster: it is stateless apart from the
/// node geometry, so concurrent RPCs (threaded backend) share it freely.
pub(crate) struct OffloadInterpreter {
    layout: NodeLayout,
    leaf_format: LeafFormat,
}

/// Mutable state one request threads through its descent: the work tally,
/// the level-1 capture for client cache warming, and the node-image buffer.
struct DescentScratch<'a> {
    work: &'a mut RpcWork,
    level1: &'a mut Option<RpcLevel1Image>,
    buf: &'a mut [u8],
}

impl OffloadInterpreter {
    pub(crate) fn new(layout: NodeLayout, leaf_format: LeafFormat) -> Self {
        OffloadInterpreter {
            layout,
            leaf_format,
        }
    }

    /// Node-level image consistency, same dispatch as
    /// `Cluster::node_image_ok`.
    fn image_ok(&self, buf: &[u8]) -> bool {
        match self.leaf_format {
            LeafFormat::SortedChecksum => self.layout.checksum_matches(buf),
            _ => self.layout.node_versions_match(buf),
        }
    }

    /// Read and validate one node image into `buf`: bounded torn-read
    /// retries, then free-bit check.  All reads go through [`sherman_sim::Region`],
    /// so both backends see identical word-atomic semantics.
    fn read_node(
        &self,
        servers: &[Arc<MemServerSim>],
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> Result<NodeHeader, RpcDecline> {
        let Some(server) = servers.get(addr.ms as usize) else {
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
            if self.image_ok(buf) {
                let header = self.layout.decode_header(buf);
                if header.free {
                    return Err(RpcDecline::FreedNode { addr });
                }
                return Ok(header);
            }
            std::hint::spin_loop();
        }
        Err(RpcDecline::TornRead { addr })
    }

    fn node_info(addr: GlobalAddress, header: &NodeHeader) -> RpcNodeInfo {
        RpcNodeInfo {
            addr,
            level: header.level,
            version: header.front_version,
            fence_low: header.fence_low,
            fence_high: header.fence_high,
            sibling: header.sibling,
        }
    }

    fn level1_image(info: RpcNodeInfo, node: &InternalNode) -> RpcLevel1Image {
        RpcLevel1Image {
            info,
            leftmost: node
                .header
                .leftmost
                .unwrap_or_else(GlobalAddress::null),
            children: node.entries.iter().map(|e| (e.key, e.child)).collect(),
        }
    }

    /// Descend from `from` toward the leaf covering `key`, visiting at most
    /// `budget` nodes (sibling chases included).  On success the reached
    /// leaf's header is returned with its image left in `scratch.buf`; a
    /// level-1 internal passed on the way is captured into `scratch.level1`
    /// for client cache warming.
    fn descend(
        &self,
        servers: &[Arc<MemServerSim>],
        from: GlobalAddress,
        key: u64,
        budget: u8,
        scratch: &mut DescentScratch<'_>,
    ) -> Result<(GlobalAddress, NodeHeader), RpcDecline> {
        let mut addr = from;
        for _ in 0..budget {
            let header = self.read_node(servers, addr, scratch.buf)?;
            scratch.work.levels_stepped += 1;
            if header.is_leaf {
                return Ok((addr, header));
            }
            if !header.covers(key) {
                // B-link: the key moved right past this node's fence; chase
                // the sibling (it costs a step) or give up to the client.
                if key >= header.fence_high {
                    if let Some(sib) = header.sibling {
                        addr = sib;
                        continue;
                    }
                }
                return Err(RpcDecline::FenceMiss { addr });
            }
            let internal = self.layout.decode_internal(scratch.buf);
            scratch.work.entries_scanned += internal.entries.len() as u32;
            if header.level == 1 {
                *scratch.level1 = Some(Self::level1_image(
                    Self::node_info(addr, &header),
                    &internal,
                ));
            }
            addr = internal.child_for(key);
        }
        Err(RpcDecline::BudgetExhausted)
    }

    fn handle_traverse(
        &self,
        servers: &[Arc<MemServerSim>],
        from_addr: GlobalAddress,
        key: u64,
        max_levels: u8,
    ) -> RpcResponse {
        let mut work = RpcWork::NONE;
        let mut level1 = None;
        let mut buf = vec![0u8; self.layout.node_size()];
        let descended = self.descend(
            servers,
            from_addr,
            key,
            max_levels,
            &mut DescentScratch {
                work: &mut work,
                level1: &mut level1,
                buf: &mut buf,
            },
        );
        let (addr, header) = match descended {
            Ok(reached) => reached,
            Err(reason) => return RpcResponse::Declined { reason, work },
        };
        self.leaf_reply(addr, header, &buf, key, level1, work)
    }

    fn handle_leaf_search(
        &self,
        servers: &[Arc<MemServerSim>],
        leaf_addr: GlobalAddress,
        key: u64,
    ) -> RpcResponse {
        let mut work = RpcWork::NONE;
        let mut buf = vec![0u8; self.layout.node_size()];
        let header = match self.read_node(servers, leaf_addr, &mut buf) {
            Ok(h) => h,
            Err(reason) => return RpcResponse::Declined { reason, work },
        };
        work.levels_stepped += 1;
        if !header.is_leaf {
            // The client's cached route pointed at something that is no
            // longer a leaf; its local fallback will re-locate and heal.
            return RpcResponse::Declined {
                reason: RpcDecline::FenceMiss { addr: leaf_addr },
                work,
            };
        }
        self.leaf_reply(leaf_addr, header, &buf, key, None, work)
    }

    /// Build the reply for a reached leaf: fence check (sibling-chase hint),
    /// then entry search.
    fn leaf_reply(
        &self,
        addr: GlobalAddress,
        header: NodeHeader,
        buf: &[u8],
        key: u64,
        level1: Option<RpcLevel1Image>,
        mut work: RpcWork,
    ) -> RpcResponse {
        let info = Self::node_info(addr, &header);
        if !header.covers(key) {
            if key >= header.fence_high {
                // The leaf split under us: hand the sibling hint back and
                // let the client chase with its own B-link logic.
                return RpcResponse::Leaf(RpcLeafReply {
                    leaf: info,
                    found: None,
                    chase_sibling: true,
                    entry_conflict: false,
                    level1,
                    work,
                });
            }
            return RpcResponse::Declined {
                reason: RpcDecline::FenceMiss { addr },
                work,
            };
        }
        // A torn matched entry (an entry-granular write in flight) sends the
        // client back to read the leaf itself.
        let search = self.layout.decode_leaf(buf).search(key, self.leaf_format);
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

    fn handle_range(
        &self,
        servers: &[Arc<MemServerSim>],
        from_addr: GlobalAddress,
        start_key: u64,
        max_entries: u32,
        max_leaves: u8,
    ) -> RpcResponse {
        let mut work = RpcWork::NONE;
        let mut level1 = None;
        let mut buf = vec![0u8; self.layout.node_size()];
        let descended = self.descend(
            servers,
            from_addr,
            start_key,
            RANGE_DESCENT_BUDGET,
            &mut DescentScratch {
                work: &mut work,
                level1: &mut level1,
                buf: &mut buf,
            },
        );
        let (mut addr, mut header) = match descended {
            Ok(reached) => reached,
            Err(reason) => return RpcResponse::Declined { reason, work },
        };

        let mut entries: Vec<(u64, u64)> = Vec::new();
        let mut leaves: Vec<RpcNodeInfo> = Vec::new();
        let next;
        loop {
            // `buf` holds `addr`'s validated image.
            let leaf = self.layout.decode_leaf(&buf);
            work.entries_scanned += leaf.entries.len() as u32;
            let needed = leaf
                .entries
                .iter()
                .filter(|e| e.present() && e.key >= start_key);
            if needed.clone().any(|e| !e.versions_match()) {
                // An entry-granular write is in flight on a key the walk
                // needs: end the walk before this leaf, as at a torn
                // sibling, and let the client read it itself.
                next = Some(addr);
                break;
            }
            entries.extend(needed.map(|e| (e.key, e.value)));
            leaves.push(Self::node_info(addr, &header));
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
                Some(sib) => match self.read_node(servers, sib, &mut buf) {
                    Ok(h) if h.is_leaf => {
                        work.levels_stepped += 1;
                        addr = sib;
                        header = h;
                    }
                    // A torn/freed/mutated sibling mid-chain: stop here and
                    // let the client continue locally from the frontier —
                    // everything collected so far is still individually
                    // validated.
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
}

impl RpcHandler for OffloadInterpreter {
    fn handle(
        &self,
        servers: &[Arc<MemServerSim>],
        _home_ms: u16,
        req: &RpcRequest,
    ) -> RpcResponse {
        match *req {
            RpcRequest::TraverseStep {
                from_addr,
                key,
                max_levels,
            } => self.handle_traverse(servers, from_addr, key, max_levels),
            RpcRequest::LeafSearch { leaf_addr, key } => {
                self.handle_leaf_search(servers, leaf_addr, key)
            }
            RpcRequest::LeafRange {
                from_addr,
                start_key,
                max_entries,
                max_leaves,
            } => self.handle_range(servers, from_addr, start_key, max_entries, max_leaves),
        }
    }
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
    use sherman_sim::FabricBackend;

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
    fn interpreter_is_registered_at_bootstrap() {
        let cluster = cluster_with_keys(100);
        assert!(cluster.fabric().rpc_handler().is_some());
    }

    #[test]
    fn traverse_finds_present_and_absent_keys() {
        let cluster = cluster_with_keys(2_000);
        let handler = cluster.fabric().rpc_handler().unwrap();
        let servers = cluster.fabric().servers();
        let root = root_of(&cluster);
        for key in [0u64, 999, 1_999] {
            let resp = handler.handle(
                servers,
                root.ms,
                &RpcRequest::TraverseStep {
                    from_addr: root,
                    key,
                    max_levels: 16,
                },
            );
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
        let resp = handler.handle(
            servers,
            root.ms,
            &RpcRequest::TraverseStep {
                from_addr: root,
                key: 5_000,
                max_levels: 16,
            },
        );
        let RpcResponse::Leaf(reply) = resp else {
            panic!("expected a leaf reply, got {resp:?}");
        };
        assert_eq!(reply.found, None, "absent key is a clean miss");
    }

    #[test]
    fn traverse_respects_its_level_budget() {
        let cluster = cluster_with_keys(2_000);
        let handler = cluster.fabric().rpc_handler().unwrap();
        let resp = handler.handle(
            cluster.fabric().servers(),
            0,
            &RpcRequest::TraverseStep {
                from_addr: root_of(&cluster),
                key: 999,
                max_levels: 1,
            },
        );
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
        let handler = cluster.fabric().rpc_handler().unwrap();
        let root = root_of(&cluster);
        let resp = handler.handle(
            cluster.fabric().servers(),
            root.ms,
            &RpcRequest::LeafSearch {
                leaf_addr: root,
                key: 10,
            },
        );
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
        let handler = cluster.fabric().rpc_handler().unwrap();
        let root = root_of(&cluster);
        let resp = handler.handle(
            cluster.fabric().servers(),
            root.ms,
            &RpcRequest::LeafRange {
                from_addr: root,
                start_key: 500,
                max_entries: 40,
                max_leaves: 16,
            },
        );
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
