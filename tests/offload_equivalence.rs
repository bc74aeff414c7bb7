//! Offload model equivalence: server-side traversal placement must be
//! invisible to results.  Whatever the policy decides — chain of one-sided
//! reads or one typed RPC to the home memory server's interpreter — every
//! lookup and scan agrees with an in-memory model, at pipeline depths 1, 4
//! and 8, on both the virtual-time simulator and the real-clock threaded
//! backend, including mid-churn when the tree (and the tombstone admission
//! floor the client validates replies against) keeps moving underneath.

use sherman_repro::prelude::*;
use sherman_repro::sherman::{RpcRequest, RpcResponse};
use sherman_repro::sherman_memserver::ServerLayout;
use sherman_sim::{Fabric, FabricBackend, GlobalAddress, ThreadedFabric};
use std::collections::BTreeMap;
use std::sync::Arc;

const POLICIES: [OffloadPolicy; 3] = [
    OffloadPolicy::Never,
    OffloadPolicy::Always,
    OffloadPolicy::Adaptive,
];

const DEPTHS: [usize; 3] = [1, 4, 8];

/// A several-level tree (small nodes over `n` spread-out keys) on a 2x2
/// cluster with the given placement policy.
fn loaded_cluster<B: FabricBackend>(
    policy: OffloadPolicy,
    n: u64,
) -> (Arc<Cluster<B>>, BTreeMap<u64, u64>) {
    loaded_with(TreeOptions::sherman().with_offload(policy), n)
}

/// [`loaded_cluster`] under any options.
fn loaded_with<B: FabricBackend>(
    options: TreeOptions,
    n: u64,
) -> (Arc<Cluster<B>>, BTreeMap<u64, u64>) {
    let mut config = ClusterConfig::paper_scaled(2, 2);
    config.tree.node_size = 256;
    let cluster = Cluster::<B>::new_on(config, options);
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();
    cluster.bulkload(pairs.iter().copied()).expect("bulkload");
    (cluster, pairs.into_iter().collect())
}

/// Drop every compute server's cached routes so the next descents hit the
/// placement decision instead of a warm cache.
fn chill<B: FabricBackend>(cluster: &Cluster<B>) {
    for cs in 0..2 {
        cluster.cache(cs).clear();
    }
}

/// A seeded read-only batch: mostly point lookups, one scan in six.
fn read_batch(seed: u64, count: u64, key_space: u64) -> Vec<PipelineOp> {
    (0..count)
        .map(|i| {
            let x = i
                .wrapping_mul(2_654_435_761)
                .wrapping_add(seed.wrapping_mul(0x9E37_79B9));
            if i % 6 == 5 {
                PipelineOp::Range {
                    start_key: x % key_space,
                    count: 10,
                }
            } else {
                PipelineOp::Lookup { key: x % key_space }
            }
        })
        .collect()
}

/// Every pipelined result must match the model exactly.
fn check_against_model(report: &PipelineReport, model: &BTreeMap<u64, u64>, tag: &str) {
    for r in &report.results {
        match (&r.op, &r.output) {
            (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                assert_eq!(*v, model.get(key).copied(), "{tag}: lookup({key})");
            }
            (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                let expect: Vec<(u64, u64)> = model
                    .range(*start_key..)
                    .take(*count)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(*scan, expect, "{tag}: range({start_key}, {count})");
            }
            other => panic!("{tag}: mismatched op/output {other:?}"),
        }
    }
}

/// Quiesced tree: all three policies return model-exact results through the
/// split-phase scheduler at every depth, on both backends.  The caches are
/// dropped before each batch so `Always` genuinely RPCs and `Adaptive`
/// genuinely decides.
#[test]
fn policies_match_model_at_every_depth_on_both_backends() {
    fn check<B: FabricBackend>(policy: OffloadPolicy) {
        let n = 3_000u64;
        let (cluster, model) = loaded_cluster::<B>(policy, n);
        for depth in DEPTHS {
            chill(&cluster);
            let ops = read_batch(depth as u64, 200, n * 3 + 50);
            let mut client = cluster.client(0);
            let report = client
                .run_pipelined(ops.iter().copied(), depth)
                .expect("pipelined run");
            assert_eq!(report.results.len(), ops.len(), "{policy:?} depth {depth}");
            check_against_model(&report, &model, &format!("{policy:?} depth {depth}"));
        }
        let gauges = cluster.offload_stats();
        assert_eq!(
            gauges.decisions,
            gauges.offloaded + gauges.local,
            "{policy:?}: every decision takes exactly one arm"
        );
        match policy {
            OffloadPolicy::Never => {
                assert_eq!(gauges.offloaded, 0, "Never must not post RPCs")
            }
            OffloadPolicy::Always => assert!(
                gauges.offloaded > 0,
                "Always on a cold cache must post RPCs"
            ),
            OffloadPolicy::Adaptive => assert!(
                gauges.decisions > 0,
                "Adaptive on a cold cache must at least decide"
            ),
        }
    }
    for &policy in &POLICIES {
        check::<Fabric>(policy);
        check::<ThreadedFabric>(policy);
    }
}

/// Churn interleaved with pipelined reads: blocking insert/delete waves move
/// the tree (splits, merges, recycled nodes), the caches are dropped
/// mid-stream, and every subsequent batch must still be model-exact — a
/// server-side reply built from a node image the churn already freed has to
/// be caught by the tombstone admission floor, not served.
#[test]
fn churn_keeps_every_policy_model_exact() {
    fn check<B: FabricBackend>(policy: OffloadPolicy) {
        let n = 2_000u64;
        let span = n * 3 + 64;
        let (cluster, mut model) = loaded_cluster::<B>(policy, n);
        let mut client = cluster.client(0);
        for (wave, depth) in DEPTHS.into_iter().enumerate() {
            let wave = wave as u64;
            for i in 0..150u64 {
                let key = (wave * 61 + i * 37) % span;
                if i % 4 == 3 {
                    let (existed, _) = client.delete(key).expect("delete");
                    assert_eq!(
                        existed,
                        model.remove(&key).is_some(),
                        "{policy:?} wave {wave}: delete({key}) presence"
                    );
                } else {
                    let value = wave * 1_000_000 + i;
                    client.insert(key, value).expect("insert");
                    model.insert(key, value);
                }
            }
            chill(&cluster);
            let report = client
                .run_pipelined(read_batch(wave + 100, 120, span), depth)
                .expect("pipelined run");
            assert_eq!(report.results.len(), 120, "{policy:?} wave {wave}");
            check_against_model(
                &report,
                &model,
                &format!("{policy:?} wave {wave} depth {depth}"),
            );
        }
        // Once the coherence backlog is applied nothing may be left that a
        // reply or a cached route can get wrong: re-verify the whole key span.
        client.quiesce_coherence();
        for key in (0..span).step_by(7) {
            let (value, _) = client.lookup(key).expect("lookup");
            assert_eq!(
                value,
                model.get(&key).copied(),
                "{policy:?}: lookup({key}) after churn + quiesce"
            );
        }
        let gauges = cluster.offload_stats();
        assert!(
            gauges.wins + gauges.losses <= gauges.offloaded,
            "{policy:?}: outcome gauges exceed offloaded ops"
        );
        if policy == OffloadPolicy::Always {
            assert!(
                gauges.offloaded > 0,
                "the churn never offloaded, so it proved nothing about replies"
            );
        }
    }
    for &policy in &POLICIES {
        check::<Fabric>(policy);
        check::<ThreadedFabric>(policy);
    }
}

/// With every cached route dropped, an `Always` lookup collapses the whole
/// descent of a tree at least three levels deep into exactly one fabric round
/// trip: one typed RPC, zero one-sided READs — and the right value.
#[test]
fn a_cold_always_lookup_is_one_rpc_round_trip() {
    let n = 12_000u64;
    let (cluster, model) = loaded_cluster::<Fabric>(OffloadPolicy::Always, n);
    let census = cluster.node_census().expect("census");
    assert!(
        census.internals > 1,
        "more than a root above the leaves, i.e. at least three levels: {census:?}"
    );
    chill(&cluster);
    let key = n / 2 * 3;
    let (value, stats) = cluster.client(0).lookup(key).expect("lookup");
    assert_eq!(value, model.get(&key).copied());
    assert_eq!(
        (stats.round_trips, stats.rpcs, stats.reads),
        (1, 1, 0),
        "a cold lookup under Always must cost exactly one RPC round trip"
    );
}

/// The adaptive policy on the simulator is deterministic end to end: same
/// seed, same virtual-time total, same fabric stats, same results, same
/// placement decisions — the EWMAs it thresholds against are fed from
/// virtual time, so reruns observe identical latencies.
#[test]
fn adaptive_offload_runs_are_deterministic() {
    let run = || {
        let n = 2_000u64;
        let (cluster, _) = loaded_cluster::<Fabric>(OffloadPolicy::Adaptive, n);
        chill(&cluster);
        let mut client = cluster.client(0);
        let report = client
            .run_pipelined(read_batch(9, 250, n * 3 + 50), 8)
            .expect("pipelined run");
        (
            report.elapsed_ns,
            report.stats,
            report.results,
            cluster.offload_stats(),
        )
    };
    let (e1, s1, r1, g1) = run();
    let (e2, s2, r2, g2) = run();
    assert_eq!(e1, e2, "virtual-time totals must be identical");
    assert_eq!(s1, s2, "fabric stats must be identical");
    assert_eq!(r1, r2, "results must be identical");
    assert_eq!(g1, g2, "placement decisions must be identical");
}

/// The leaf covering `key`, as the interpreter's descent from the root finds
/// it.
fn leaf_of(cluster: &Cluster<Fabric>, key: u64) -> GlobalAddress {
    let fabric = cluster.fabric();
    let root = GlobalAddress::unpack(fabric.god_read_u64(ServerLayout::root_ptr_addr()).unwrap());
    let req = RpcRequest::TraverseStep {
        from_addr: root,
        key,
        max_levels: 16,
    };
    match cluster.serve_rpc(&req) {
        RpcResponse::Leaf(reply) => reply.leaf.addr,
        other => panic!("no leaf for {key}: {other:?}"),
    }
}

/// The interpreter's point search of the leaf at `addr`: its answer and the
/// slots it scanned.
fn rpc_search(cluster: &Cluster<Fabric>, addr: GlobalAddress, key: u64) -> (Option<u64>, u32) {
    let req = RpcRequest::LeafSearch {
        leaf_addr: addr,
        key,
    };
    match cluster.serve_rpc(&req) {
        RpcResponse::Leaf(reply) => (reply.found, reply.work.entries_scanned),
        other => panic!("no leaf reply for {key}: {other:?}"),
    }
}

/// A cached client lookup of `key` on a warm route: its answer and the
/// client CPU it was charged — its latency less the time its one READ was in
/// flight.
fn client_search(client: &mut TreeClient<Fabric>, key: u64) -> (Option<u64>, u64) {
    let before = client.fabric_stats().verb_ns;
    let (value, stats) = client.lookup(key).expect("lookup");
    assert!(
        stats.cache_hit && stats.reads == 1,
        "lookup({key}) read one leaf"
    );
    (
        value,
        stats.latency_ns - (client.fabric_stats().verb_ns - before),
    )
}

/// Each of `keys` is looked up by a client (locally, the route cached) and
/// by a `LeafSearch` RPC to the interpreter against the same leaf image: both
/// answer what the shared search of that image (`LeafNode::search`) finds,
/// the interpreter is charged the slots it examined, and the client the CPU
/// of what it read (`NodeLayout::leaf_search_bytes`: the slots' tags, the
/// keys behind matching tags, the match's value and versions).
fn assert_searches_agree(cluster: &Arc<Cluster<Fabric>>, keys: impl IntoIterator<Item = u64>) {
    let mut client = cluster.client(0);
    let fabric = FabricConfig::default();
    let layout = *cluster.layout();
    let mut image = vec![0; layout.node_size()];
    for key in keys {
        let addr = leaf_of(cluster, key);
        client.lookup(key).expect("warm the route");
        cluster.fabric().god_read(addr, &mut image).unwrap();
        let search = layout
            .decode_leaf(&image)
            .search(key, cluster.options().leaf_format);
        let (found, scanned) = rpc_search(cluster, addr, key);
        let (value, cpu_ns) = client_search(&mut client, key);
        assert_eq!(
            (value, found),
            (search.value(), search.value()),
            "lookup({key})"
        );
        assert_eq!(scanned as usize, search.scanned, "lookup({key})");
        assert_eq!(
            cpu_ns,
            fabric.cpu_scan_ns(layout.leaf_search_bytes(&search)),
            "lookup({key}): {search:?}"
        );
    }
}

#[test]
fn client_and_interpreter_search_a_leaf_alike() {
    for options in [TreeOptions::sherman(), TreeOptions::fg_plus()] {
        let (cluster, _) = loaded_with::<Fabric>(options, 400);
        // Hits at every slot of the first leaves and the misses between them.
        assert_searches_agree(&cluster, 0..60);
    }
}

/// A sorted leaf holds its keys in the first `count` slots; a present slot
/// past them is not the leaf's — both searches stop at `count` and miss.
#[test]
fn a_present_slot_past_count_is_no_key_of_a_sorted_leaf() {
    let (cluster, model) = loaded_with::<Fabric>(TreeOptions::fg_plus(), 400);
    let layout = *cluster.layout();
    let key = 301;
    assert!(!model.contains_key(&key));
    let addr = leaf_of(&cluster, key);
    let mut image = vec![0; layout.node_size()];
    cluster.fabric().god_read(addr, &mut image).unwrap();
    let mut leaf = layout.decode_leaf(&image);
    let count = leaf.header.count;
    assert!(count < leaf.entries.len() && leaf.header.covers(key));
    leaf.entries[count].install(key, 1);
    cluster
        .fabric()
        .god_write(addr, &layout.encode_leaf(&leaf))
        .unwrap();

    assert_eq!(rpc_search(&cluster, addr, key), (None, count as u32));
    assert_searches_agree(&cluster, [key]);
}

/// One client on the simulator, 256 B nodes, every cached route dropped
/// before each of four waves: point lookups, 50-entry scans, inserts of new
/// keys and a block of deletes dense enough to merge leaves.  Covers what
/// the bench pins' cold lookups do not: `LeafRange` replies and writes whose
/// leaf an RPC located, and it counts declines and stale rejects (none: a
/// lone client on the simulator races no writer).  Returns what the run
/// cost and what the placement did, as one line.
fn offload_mix(policy: OffloadPolicy) -> String {
    let n = 12_000u64;
    let (cluster, mut model) = loaded_cluster::<Fabric>(policy, n);
    let mut client = cluster.client(0);
    let (mut elapsed_ns, mut latency_ns, mut ops) = (0, 0, 0);
    let mut stats = sherman_sim::ClientStats::default();
    for wave in 0..4u64 {
        chill(&cluster);
        let mut batch = Vec::new();
        let mut deleted = wave * 600;
        for i in 0..160u64 {
            let x = i.wrapping_mul(2_654_435_761) ^ (wave << 20);
            batch.push(match i % 8 {
                0 | 3 | 6 => PipelineOp::Lookup { key: x % (n * 3) },
                1 => PipelineOp::Range {
                    start_key: x % (n * 3),
                    count: 50,
                },
                4 => PipelineOp::Insert {
                    key: (x % n) * 3 + 1,
                    value: wave * 1_000 + i,
                },
                // A dense block per wave: enough deletes to empty leaves.
                _ => {
                    deleted += 1;
                    PipelineOp::Delete { key: deleted * 3 }
                }
            });
        }
        let report = client.run_pipelined(batch, 1).expect("pipelined run");
        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Insert { key, value }, _) => {
                    model.insert(*key, *value);
                }
                (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                    assert_eq!(*found, model.remove(key).is_some(), "delete({key})");
                }
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    assert_eq!(*v, model.get(key).copied(), "lookup({key})");
                }
                (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                    let expect: Vec<(u64, u64)> = model
                        .range(*start_key..)
                        .take(*count)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(*scan, expect, "range({start_key})");
                }
                other => panic!("mismatched op/output {other:?}"),
            }
            latency_ns += r.latency_ns;
            ops += 1;
        }
        elapsed_ns += report.elapsed_ns;
        stats.merge(&report.stats);
    }
    assert!(
        cluster.space_stats().leaf_merges > 0,
        "the deletes must merge leaves"
    );
    let g = cluster.offload_stats();
    format!(
        "elapsed_ns={elapsed_ns} mean_ns={} round_trips={} rpcs={} bytes_read={} \
         bytes_written={} offloaded={} wins={} losses={} declined={} stale_rejects={}",
        latency_ns / ops,
        stats.round_trips,
        stats.rpcs,
        stats.bytes_read,
        stats.bytes_written,
        g.offloaded,
        g.wins,
        g.losses,
        g.declined,
        g.stale_rejects,
    )
}

/// What the offload mix cost under each policy that posts index RPCs,
/// exactly: one simulator client repeats bit for bit, so a change to how
/// an RPC is carried, served or charged that moves any of these numbers is
/// a change of behaviour, not of structure.  Re-captured when a point write
/// began to charge the CPU of what its probe reads of the locked leaf rather
/// than of the whole leaf: the same verbs and bytes, `Always` 4 385 315 →
/// 4 371 395 ns elapsed (mean 6 852 → 6 830), `Adaptive` 4 031 452 →
/// 4 017 532 (6 299 → 6 277).  Re-captured when an internal node's
/// separators became a sliding window and a merge at the tree's left edge
/// began to keep the fuller right leaf: the same verbs, bytes written 17 598
/// → 13 806 under both policies, 273 ns more elapsed (`Always` 4 371 395 →
/// 4 371 668, `Adaptive` 4 017 532 → 4 017 805).  Re-captured when a point
/// delete began to send its slot's tag byte alone: the same verbs and time,
/// bytes written 13 806 → 9 486 under both policies.  Re-captured when a
/// level's first leaf began to merge only once empty: this mix's inserts
/// keep the first leaf from emptying, so its seven edge merges, which moved
/// its last pair into its right sibling, give way to merges of the second
/// leaf that take in its right sibling's pairs, one merge fewer in all —
/// bytes written 9 486 → 10 768, 768 bytes read and 7 round trips (one an
/// RPC) fewer under `Always`, 768 bytes read and 6 round trips fewer under
/// `Adaptive`, and less elapsed time (4 371 668 → 4 367 464 and 4 017 805 →
/// 4 015 471 ns).
#[test]
fn offload_mix_costs_exactly_what_it_did() {
    assert_eq!(
        offload_mix(OffloadPolicy::Always),
        "elapsed_ns=4367464 mean_ns=6824 round_trips=1250 rpcs=402 bytes_read=118272 \
         bytes_written=10768 offloaded=402 wins=402 losses=0 declined=0 stale_rejects=0"
    );
    assert_eq!(
        offload_mix(OffloadPolicy::Adaptive),
        "elapsed_ns=4015471 mean_ns=6274 round_trips=1607 rpcs=227 bytes_read=254720 \
         bytes_written=10768 offloaded=227 wins=227 losses=0 declined=0 stale_rejects=0"
    );
}
