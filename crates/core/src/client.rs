//! The per-thread tree client: lookup, insert, delete and range query.
//!
//! Each simulated client thread owns a [`TreeClient`].  The client performs
//! every index operation with one-sided verbs against the memory servers, as
//! described in §4 of the paper:
//!
//! * **lookup / range** — lock-free: read the leaf with `RDMA_READ`, validate
//!   node-level (and, for Sherman's unsorted leaves, entry-level) versions and
//!   retry on a torn image,
//! * **insert / delete** — acquire the node's exclusive lock, read the leaf,
//!   modify it locally, write back and release, splitting a full leaf and
//!   merging an underfull one.
//!
//! The client itself is a façade.  The operations are the `async fn`s of
//! `crate::ops`, the code they run under a lock is `crate::commit`, and both
//! run against the context this handle owns (its fabric context and node
//! allocator, shared through `crate::exec::OpCx`); what is left here is
//! construction, the blocking entry points — each operation driven one verb
//! at a time — and the bookkeeping around an operation: the coherence drain,
//! the epoch pin, the statistics.  `crate::scheduler` adds the pipelined
//! entry point.

use crate::cluster::Cluster;
use crate::ops::{self, OpCx, OpOutput};
use crate::scheduler::PipelineOp;
use crate::stats::OpStats;
use crate::TreeResult;
use sherman_memserver::{ClientAllocator, ReaderHandle};
use sherman_sim::{ClientCtx, ClientStats, Fabric, FabricBackend, Parking, TraceEvent};
use std::sync::Arc;

/// A per-thread handle to the tree.
///
/// Create one with [`Cluster::client`] *on the thread that will use it*: the
/// handle registers the calling thread with the simulation's virtual clock.
pub struct TreeClient<B: FabricBackend = Fabric> {
    pub(crate) cluster: Arc<Cluster<B>>,
    pub(crate) ctx: ClientCtx<B::Channel>,
    allocator: ClientAllocator<B>,
    /// This client's slot in the epoch registry: every public operation pins
    /// the global epoch on entry and unpins on exit, which is what lets
    /// epoch-based reclamation recycle freed node addresses the moment no
    /// pre-retirement reader is left.
    pub(crate) reader: ReaderHandle,
    pub(crate) cs_id: u16,
}

impl<B: FabricBackend> std::fmt::Debug for TreeClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeClient")
            .field("cs_id", &self.cs_id)
            .finish_non_exhaustive()
    }
}

impl<B: FabricBackend> TreeClient<B> {
    pub(crate) fn new(cluster: Arc<Cluster<B>>, cs_id: u16) -> Self {
        let ctx = cluster.fabric().client(cs_id);
        let allocator = ClientAllocator::new(
            Arc::clone(cluster.pool()),
            cluster.config().node_size as u64,
            cs_id,
        );
        let reader = cluster.pool().epoch_registry().register();
        TreeClient {
            cluster,
            ctx,
            allocator,
            reader,
            cs_id,
        }
    }

    /// The cluster this client operates on.
    pub fn cluster(&self) -> &Arc<Cluster<B>> {
        &self.cluster
    }

    /// Compute-server id of this client.
    pub fn cs_id(&self) -> u16 {
        self.cs_id
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ctx.now()
    }

    /// Raw fabric counters of this client (cumulative).
    pub fn fabric_stats(&self) -> ClientStats {
        self.ctx.stats()
    }

    /// Start recording a verb trace: every posted verb (tagged with its
    /// operation id and whether it was posted inside a lock critical
    /// section) plus the critical-section begin/end markers.
    pub fn enable_verb_trace(&mut self) {
        self.ctx.enable_trace();
    }

    /// Drain the verb trace recorded since [`Self::enable_verb_trace`].
    pub fn take_verb_trace(&mut self) -> Vec<TraceEvent> {
        self.ctx.take_trace()
    }

    /// The context this client's operations run against.
    pub(crate) fn op_cx(&mut self) -> OpCx<'_, B> {
        self.op_cx_and_reader().0
    }

    /// The context this client's operations run against and the epoch reader
    /// handle beside it.
    pub(crate) fn op_cx_and_reader(&mut self) -> (OpCx<'_, B>, &ReaderHandle) {
        let cx = OpCx {
            cluster: &self.cluster,
            allocator: &self.allocator,
            cs_id: self.cs_id,
            parking: Parking::new(&mut self.ctx),
        };
        (cx, &self.reader)
    }

    // ------------------------------------------------------------------
    // The blocking entry points
    // ------------------------------------------------------------------

    /// Run one operation to completion with one verb in flight at a time —
    /// which is exactly what a pipelined run at depth 1 executes, operation
    /// boundary and cost record included: drain the coherence inbox, pin the
    /// reclamation epoch, tag the operation as a batch's first, run until
    /// done and report its record.
    fn run(&mut self, op: PipelineOp) -> TreeResult<(OpOutput, OpStats)> {
        self.drain_coherence();
        let t0 = self.ctx.now();
        let _pin = self.reader.pin();
        self.ctx.set_current_op(Some(0));
        let ran = {
            let cx = self.op_cx();
            cx.block_on(ops::run(&cx, op))
        };
        self.ctx.set_current_op(None);
        let record = self.ctx.take_op_stats(0);
        let (output, meta) = ran?;
        let elapsed = self.ctx.now() - t0;
        // A lone operation's time, the union of its intervals, is exactly the
        // time that passed on a virtual clock.  On a real clock that time
        // also holds host work no interval covers, and is the call's latency.
        if B::VIRTUAL_CLOCK {
            debug_assert_eq!(record.latency_ns(), elapsed, "{op:?}: {record:?}");
        }
        Ok((output, OpStats { latency_ns: elapsed, ..OpStats::new(&record, &meta) }))
    }

    /// Look up `key`, returning its value if present.
    pub fn lookup(&mut self, key: u64) -> TreeResult<(Option<u64>, OpStats)> {
        match self.run(PipelineOp::Lookup { key })? {
            (OpOutput::Lookup(value), stats) => Ok((value, stats)),
            (other, _) => unreachable!("a lookup produced {other:?}"),
        }
    }

    /// Insert `key → value`, overwriting any existing value.
    pub fn insert(&mut self, key: u64, value: u64) -> TreeResult<OpStats> {
        Ok(self.run(PipelineOp::Insert { key, value })?.1)
    }

    /// Delete `key`.  Returns whether the key was present.
    pub fn delete(&mut self, key: u64) -> TreeResult<(bool, OpStats)> {
        match self.run(PipelineOp::Delete { key })? {
            (OpOutput::Delete(found), stats) => Ok((found, stats)),
            (other, _) => unreachable!("a delete produced {other:?}"),
        }
    }

    /// Scan `count` entries starting from the smallest key `>= start_key`.
    ///
    /// Like the paper (and FG), the scan is not atomic with respect to
    /// concurrent writers; each leaf is individually validated.
    pub fn range(
        &mut self,
        start_key: u64,
        count: usize,
    ) -> TreeResult<(Vec<(u64, u64)>, OpStats)> {
        match self.run(PipelineOp::Range { start_key, count })? {
            (OpOutput::Range(entries), stats) => Ok((entries, stats)),
            (other, _) => unreachable!("a range scan produced {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Cache coherence (see `crate::coherence` for the protocol)
    // ------------------------------------------------------------------

    /// Drain this compute server's coherence inbox and apply every message
    /// whose delivery time has been reached (see [`OpCx::drain_coherence`]).
    pub(crate) fn drain_coherence(&mut self) {
        self.op_cx().drain_coherence();
    }

    /// Wait (in virtual time) until every coherence message already posted
    /// toward this compute server is deliverable, then drain and apply the
    /// inbox.  After this returns — and provided no other client commits
    /// concurrently — this server's cache serves no stale structural state.
    pub fn quiesce_coherence(&mut self) {
        let msgs = self.ctx.quiesce_coherence();
        self.op_cx().apply_coherence(&msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::TreeOptions;
    use crate::error::TreeError;

    fn small_cluster(options: TreeOptions) -> Arc<Cluster> {
        Cluster::new(ClusterConfig::small(), options)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..500u64).map(|k| (k, k * 2))).unwrap();
        let mut client = cluster.client(0);

        assert_eq!(client.lookup(250).unwrap().0, Some(500));
        assert_eq!(client.lookup(10_000).unwrap().0, None);

        client.insert(10_000, 7).unwrap();
        assert_eq!(client.lookup(10_000).unwrap().0, Some(7));

        // Update overwrites.
        client.insert(250, 99).unwrap();
        assert_eq!(client.lookup(250).unwrap().0, Some(99));

        let (deleted, _) = client.delete(250).unwrap();
        assert!(deleted);
        assert_eq!(client.lookup(250).unwrap().0, None);
        let (deleted, _) = client.delete(250).unwrap();
        assert!(!deleted);
    }

    #[test]
    fn inserts_force_splits_and_root_growth() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload(std::iter::empty()).unwrap();
        let mut client = cluster.client(0);
        let n = 3_000u64;
        for k in 0..n {
            // Scrambled order to exercise both halves of splits.
            let key = (k * 7919) % n;
            client.insert(key, key + 1).unwrap();
        }
        let hint = cluster.root_hint().unwrap();
        assert!(hint.level >= 2, "expected multi-level tree, got {}", hint.level);
        for k in (0..n).step_by(97) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn range_returns_sorted_prefix() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..1_000u64).map(|k| (k * 2, k))).unwrap();
        let mut client = cluster.client(0);
        let (scan, stats) = client.range(100, 20).unwrap();
        assert_eq!(scan.len(), 20);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan[0].0, 100);
        assert_eq!(scan[19].0, 138);
        assert!(stats.reads > 0);

        // Range starting beyond every key is empty.
        let (empty, _) = client.range(10_000, 5).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn a_long_scan_is_not_cut_short_by_the_restart_budget() {
        // The budget bounds the leaves a scan reads but cannot consume, not
        // the leaves it consumes: 2 000 entries span far more than 4 + 1.
        let mut config = ClusterConfig::small();
        config.tree.max_restarts = 4;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        cluster.bulkload((0..3_000u64).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        let (scan, _) = client.range(0, 2_000).unwrap();
        assert_eq!(scan, (0..2_000u64).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn every_ablation_configuration_is_correct() {
        for (name, options) in TreeOptions::ablation_ladder() {
            let cluster = small_cluster(options);
            cluster.bulkload((0..400u64).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            for k in 400..800u64 {
                client.insert(k, k * 3).unwrap();
            }
            for k in (0..800).step_by(37) {
                let expected = if k < 400 { k } else { k * 3 };
                assert_eq!(
                    client.lookup(k).unwrap().0,
                    Some(expected),
                    "{name}: key {k}"
                );
            }
            let (scan, _) = client.range(0, 50).unwrap();
            assert_eq!(scan.len(), 50, "{name}");
        }
    }

    #[test]
    fn two_level_versions_write_entry_sized_payloads() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..200u64).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        // In-place update of an existing key: only the 19-byte entry travels.
        let stats = client.insert(100, 42).unwrap();
        assert!(
            stats.bytes_written < 64,
            "expected entry-granular write-back, wrote {} bytes",
            stats.bytes_written
        );

        // The FG+ baseline writes the whole node back.
        let baseline = small_cluster(TreeOptions::fg_plus());
        baseline.bulkload((0..200u64).map(|k| (k, k))).unwrap();
        let mut bclient = baseline.client(0);
        let bstats = bclient.insert(100, 42).unwrap();
        assert!(
            bstats.bytes_written >= baseline.config().node_size as u64,
            "baseline should write back the node, wrote {} bytes",
            bstats.bytes_written
        );
    }

    #[test]
    fn command_combination_halves_a_cached_leaf_write() {
        // Round trips, reads, writes and atomics of an insert and a delete
        // routed by the warm cache straight to their leaf.
        let verbs = |options: TreeOptions| {
            let cluster = small_cluster(options);
            cluster.bulkload((0..200u64).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            let insert = client.insert(50, 1).unwrap();
            let (found, delete) = client.delete(51).unwrap();
            assert!(found);
            [insert, delete].map(|s| (s.round_trips, s.reads, s.writes, s.atomics))
        };
        // Combined: the READ rides the lock CAS, the release rides the
        // write-back — head and tail are one round trip each.
        assert_eq!(verbs(TreeOptions::sherman()), [(2, 1, 2, 1); 2]);
        assert_eq!(verbs(TreeOptions::plus_combine()), [(2, 1, 2, 1); 2]);
        // Uncombined: lock, read, write-back, release — the same verbs, each
        // waiting for the one before.
        let uncombined = TreeOptions {
            combine_commands: false,
            ..TreeOptions::sherman()
        };
        assert_eq!(verbs(uncombined), [(4, 1, 2, 1); 2]);
        assert_eq!(verbs(TreeOptions::fg_plus()), [(4, 1, 2, 1); 2]);
    }

    #[test]
    fn lookup_stats_report_cache_hits() {
        let cluster = small_cluster(TreeOptions::sherman());
        cluster.bulkload((0..2_000u64).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        let (_, stats) = client.lookup(1_234).unwrap();
        assert!(stats.cache_hit, "bulkload warms the index cache");
        // A cache hit costs a single leaf read: one round trip.
        assert_eq!(stats.round_trips, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn deletes_merge_underfull_leaves_and_reclaim_nodes() {
        let cluster = small_cluster(TreeOptions::sherman());
        let n = 2_000u64;
        cluster.bulkload((0..n).map(|k| (k, k + 1))).unwrap();
        let mut client = cluster.client(0);
        let before = cluster.node_census().unwrap();

        // Delete everything except every 100th key: leaves drain and merge.
        for k in 0..n {
            if k % 100 != 0 {
                client.delete(k).unwrap();
            }
        }
        let space = cluster.space_stats();
        assert!(space.leaf_merges > 0, "draining 99% of keys must trigger merges");
        let reclaim = cluster.reclaim_stats();
        assert!(reclaim.retired > 0, "merged siblings must be retired");

        let after = cluster.node_census().unwrap();
        assert!(
            after.total() < before.total() / 4,
            "census should shrink: {} -> {}",
            before.total(),
            after.total()
        );
        // Book-keeping agrees with the walk: every allocated node is either
        // reachable or still quarantined/ready in a free list.
        assert_eq!(cluster.nodes_outstanding(), after.total());

        // Survivors are intact, victims are gone.
        for k in (0..n).step_by(100) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k + 1), "survivor {k}");
        }
        for k in (1..n).step_by(97) {
            if k % 100 != 0 {
                assert_eq!(client.lookup(k).unwrap().0, None, "victim {k}");
            }
        }
        // Range scans cross the merge boundaries correctly.
        let (scan, _) = client.range(0, 10).unwrap();
        let expect: Vec<(u64, u64)> = (0..10).map(|i| (i * 100, i * 100 + 1)).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn full_drain_collapses_the_root() {
        let cluster = small_cluster(TreeOptions::sherman());
        let n = 3_000u64;
        cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
        assert!(cluster.root_hint().unwrap().level >= 2);
        let mut client = cluster.client(0);
        for k in 0..n {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert!(space.root_collapses > 0, "draining the tree must collapse the root");
        assert!(space.internal_merges > 0, "internal levels must merge too");
        assert!(
            cluster.root_hint().unwrap().level < 2,
            "root level should shrink, still {}",
            cluster.root_hint().unwrap().level
        );
        // The empty tree still works.
        assert_eq!(client.lookup(500).unwrap().0, None);
        client.insert(500, 7).unwrap();
        assert_eq!(client.lookup(500).unwrap().0, Some(7));
        let (scan, _) = client.range(0, 10).unwrap();
        assert_eq!(scan, vec![(500, 7)]);
    }

    #[test]
    fn retired_addresses_are_recycled_by_later_inserts() {
        let cluster = small_cluster(TreeOptions::sherman());
        let n = 2_000u64;
        cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
        let mut client = cluster.client(0);
        for k in 0..n {
            client.delete(k).unwrap();
        }
        assert!(cluster.reclaim_stats().retired > 0);
        // Grow the tree again: the allocator must prefer recycled addresses
        // over fresh chunks.
        for k in 0..n {
            client.insert(k, k * 2).unwrap();
        }
        assert!(
            cluster.reclaim_stats().reused > 0,
            "re-growing after a drain should reuse retired nodes"
        );
        for k in (0..n).step_by(83) {
            assert_eq!(client.lookup(k).unwrap().0, Some(k * 2));
        }
    }

    #[test]
    fn underfull_leaf_next_to_full_sibling_rebalances() {
        // Bulkload 100% full so the siblings cannot absorb a merge; draining
        // the second leaf (the first merges only once empty) must *rebalance*
        // (move entries, keep both nodes) instead.
        let mut config = ClusterConfig::small();
        config.tree.leaf_fill = 1.0;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        let leaf_cap = cluster.layout().leaf_capacity() as u64;
        let n = leaf_cap * 30;
        cluster.bulkload((0..n).map(|k| (k, k + 7))).unwrap();
        let mut client = cluster.client(0);

        // Drain the second leaf down to a single key.
        for k in leaf_cap + 1..2 * leaf_cap {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert!(space.rebalances > 0, "full sibling should force a rebalance");
        assert_eq!(space.merges(), 0, "nothing can merge at 100% fill");
        assert_eq!(cluster.reclaim_stats().retired, 0);

        // Every surviving key is still reachable with its value.
        assert_eq!(client.lookup(leaf_cap).unwrap().0, Some(leaf_cap + 7));
        for k in (0..leaf_cap).chain(2 * leaf_cap..n) {
            if k % 7 == 0 {
                assert_eq!(client.lookup(k).unwrap().0, Some(k + 7), "key {k}");
            }
        }
        let (scan, _) = client.range(leaf_cap, leaf_cap as usize * 2).unwrap();
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan[0], (leaf_cap, leaf_cap + 7));
    }

    #[test]
    fn disabling_structural_deletes_reproduces_grow_only_paper_behaviour() {
        let cluster = small_cluster(TreeOptions::sherman().without_structural_deletes());
        cluster.bulkload((0..2_000u64).map(|k| (k, k))).unwrap();
        let before = cluster.node_census().unwrap();
        let mut client = cluster.client(0);
        for k in 0..2_000u64 {
            client.delete(k).unwrap();
        }
        let space = cluster.space_stats();
        assert_eq!(space.merges(), 0);
        assert_eq!(cluster.reclaim_stats().retired, 0);
        assert_eq!(cluster.node_census().unwrap(), before, "grow-only: no node freed");
    }

    #[test]
    fn merges_work_for_every_ablation_configuration() {
        for (name, options) in TreeOptions::ablation_ladder() {
            let cluster = small_cluster(options);
            let n = 1_200u64;
            cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
            let mut client = cluster.client(0);
            for k in 0..n {
                if k % 10 != 0 {
                    client.delete(k).unwrap();
                }
            }
            assert!(cluster.space_stats().leaf_merges > 0, "{name}: no merges");
            for k in (0..n).step_by(10) {
                assert_eq!(client.lookup(k).unwrap().0, Some(k), "{name}: survivor {k}");
            }
            let (scan, _) = client.range(0, 30).unwrap();
            assert_eq!(scan.len(), 30, "{name}");
            assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "{name}");
        }
    }

    #[test]
    fn operations_on_uninitialized_tree_fail_cleanly() {
        let cluster = small_cluster(TreeOptions::sherman());
        let mut client = cluster.client(0);
        assert!(matches!(
            client.lookup(1),
            Err(TreeError::NotInitialized)
        ));
    }

    /// The client CPU charged to cached lookups of `keys` on a bulkloaded
    /// tree of 1 KB nodes (40 keys `2k → k` to a leaf, `2k` in slot `k` of
    /// the first).
    fn lookup_cpu_ns(options: TreeOptions, keys: &[u64]) -> Vec<u64> {
        let mut config = ClusterConfig::small();
        config.tree.node_size = 1 << 10;
        let cluster = Cluster::new(config, options);
        cluster.bulkload((0..400u64).map(|k| (2 * k, k))).unwrap();
        let mut client = cluster.client(0);
        client.lookup(0).unwrap();
        (0..)
            .zip(keys)
            .map(|(op, &key)| {
                client.ctx.set_current_op(Some(op));
                let (_, meta) = {
                    let cx = client.op_cx();
                    cx.block_on(ops::run(&cx, PipelineOp::Lookup { key })).unwrap()
                };
                client.ctx.set_current_op(None);
                let record = client.ctx.take_op_stats(op);
                assert!(meta.cache_hit && record.reads == 1, "lookup({key})");
                record.cpu_ns
            })
            .collect()
    }

    /// A lookup charges the CPU of what it reads of the leaf: the header and
    /// the tail word (56 bytes), the tag of every slot up to its match, the
    /// key of every slot whose tag matches and the match's value and version
    /// pair — 75 + k bytes for a hit at slot k, 8 more for each tag collision
    /// before it; 56 + 50 on a miss.
    #[test]
    fn a_lookup_charges_the_leaf_slots_it_reads() {
        use crate::layout::key_tag;
        let fabric = ClusterConfig::small().fabric;
        let charged = |bytes| fabric.cpu_scan_ns(bytes);
        // Keys read in the first `slots` slots of the first leaf besides
        // `key`'s own: slots whose key `2j` shares its tag.
        let collisions = |key: u64, slots: u64| {
            (0..slots)
                .filter(|&j| 2 * j != key && key_tag(2 * j) == key_tag(key))
                .count()
        };
        let hits = [0, 1, 7, 25, 39];
        let keys: Vec<u64> = hits.iter().map(|&k| 2 * k).chain([13]).collect();
        let mut want: Vec<u64> = hits
            .iter()
            .map(|&k| charged(75 + k as usize + 8 * collisions(2 * k, k)))
            .collect();
        want.push(charged(56 + 50 + 8 * collisions(13, 40)));
        assert_eq!(lookup_cpu_ns(TreeOptions::sherman(), &keys), want);
        // A sorted leaf ends its miss at `count`.
        want[hits.len()] = charged(56 + 40 + 8 * collisions(13, 40));
        assert_eq!(lookup_cpu_ns(TreeOptions::fg_plus(), &keys), want);
    }
}
