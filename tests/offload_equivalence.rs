//! Offload model equivalence: server-side traversal placement must be
//! invisible to results.  Whatever the policy decides — chain of one-sided
//! reads or one typed RPC to the home memory server's interpreter — every
//! lookup and scan agrees with an in-memory model, at pipeline depths 1, 4
//! and 8, on both the virtual-time simulator and the real-clock threaded
//! backend, including mid-churn when the tree (and the tombstone admission
//! floor the client validates replies against) keeps moving underneath.

use sherman_repro::prelude::*;
use sherman_repro::sherman_memserver::ServerLayout;
use sherman_sim::{Fabric, FabricBackend, GlobalAddress, RpcRequest, RpcResponse, ThreadedFabric};
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
    match fabric
        .rpc_handler()
        .unwrap()
        .handle(fabric.servers(), root.ms, &req)
    {
        RpcResponse::Leaf(reply) => reply.leaf.addr,
        other => panic!("no leaf for {key}: {other:?}"),
    }
}

/// The interpreter's point search of the leaf at `addr`: its answer and the
/// slots it scanned.
fn rpc_search(cluster: &Cluster<Fabric>, addr: GlobalAddress, key: u64) -> (Option<u64>, u32) {
    let fabric = cluster.fabric();
    let req = RpcRequest::LeafSearch {
        leaf_addr: addr,
        key,
    };
    match fabric
        .rpc_handler()
        .unwrap()
        .handle(fabric.servers(), addr.ms, &req)
    {
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
/// by a `LeafSearch` RPC to the interpreter against the same leaf image: the
/// answers agree, and the client is charged the CPU of the header, the tail
/// word and exactly the slots the interpreter scanned.
fn assert_searches_agree(cluster: &Arc<Cluster<Fabric>>, keys: impl IntoIterator<Item = u64>) {
    let mut client = cluster.client(0);
    let fabric = FabricConfig::default();
    for key in keys {
        let addr = leaf_of(cluster, key);
        client.lookup(key).expect("warm the route");
        let (found, scanned) = rpc_search(cluster, addr, key);
        let (value, cpu_ns) = client_search(&mut client, key);
        let read = cluster.layout().leaf_search_bytes(scanned as usize);
        assert_eq!(value, found, "lookup({key})");
        assert_eq!(
            cpu_ns,
            fabric.cpu_scan_ns(read),
            "lookup({key}) scanned {scanned}"
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
