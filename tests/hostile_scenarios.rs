//! Hostile-workload scenarios stay correct under memory pressure.
//!
//! Drives the four hostile access shapes (shifting zipfian hot spot, flash
//! crowd, sequential right-edge appends, long scans racing churn) against an
//! in-memory `BTreeMap` model on both drive paths, then squeezes the two
//! memory-pressure regimes: pool near-exhaustion (typed allocation
//! backpressure, never a panic) and mid-run index-cache re-budgeting.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_repro::sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A laptop-friendly single-threaded spec for model checks.
fn small_spec(shape: ScenarioShape) -> ScenarioSpec {
    let mut spec = ScenarioSpec::default_scaled(shape);
    spec.key_space = 4096;
    spec.bulkload_keys = 2048;
    spec.threads = 1;
    spec.ops_per_thread = 2000;
    spec.range_size = 20;
    if let ScenarioShape::ScanChurn { .. } = shape {
        // The churn window owns the key space; nothing is pre-loaded.
        spec.bulkload_keys = 0;
    }
    if let ScenarioShape::SequentialAppend = shape {
        // Deletes exercise the trim-oldest path at the right edge.
        spec.mix = Mix {
            insert_pct: 60,
            lookup_pct: 25,
            delete_pct: 10,
            range_pct: 5,
        };
    }
    spec
}

fn hostile_shapes() -> [ScenarioShape; 4] {
    [
        ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 4,
        },
        ScenarioShape::FlashCrowd { hot_pct: 60 },
        ScenarioShape::SequentialAppend,
        ScenarioShape::ScanChurn {
            scan_pct: 10,
            scan_size: 20,
        },
    ]
}

/// Bulkload per the spec and mirror the load into the model.
fn loaded_cluster(spec: &ScenarioSpec) -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = spec
        .bulkload_iter()
        .map(|k| (k, k.wrapping_mul(3) + 1))
        .collect();
    cluster.bulkload(pairs.iter().copied()).expect("bulkload");
    (cluster, pairs.into_iter().collect())
}

fn apply_blocking(client: &mut TreeClient, model: &mut BTreeMap<u64, u64>, op: Op) {
    match op {
        Op::Insert { key, value } => {
            client.insert(key, value).expect("insert");
            model.insert(key, value);
        }
        Op::Delete { key } => {
            let (existed, _) = client.delete(key).expect("delete");
            assert_eq!(existed, model.remove(&key).is_some(), "delete({key})");
        }
        Op::Lookup { key } => {
            let (value, _) = client.lookup(key).expect("lookup");
            assert_eq!(value, model.get(&key).copied(), "lookup({key})");
        }
        Op::Range { start_key, count } => {
            let (scan, _) = client.range(start_key, count as usize).expect("range");
            let expect: Vec<(u64, u64)> = model
                .range(start_key..)
                .take(count as usize)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(scan, expect, "range({start_key}, {count})");
        }
    }
}

/// Every hostile shape behaves exactly like the `BTreeMap` model when driven
/// one blocking operation at a time.
#[test]
fn blocking_hostile_shapes_match_the_model() {
    for shape in hostile_shapes() {
        let spec = small_spec(shape);
        let (cluster, mut model) = loaded_cluster(&spec);
        let mut client = cluster.client(0);
        let mut gen = spec.generator(0);
        for _ in 0..spec.ops_per_thread {
            apply_blocking(&mut client, &mut model, gen.next_op());
        }
        for (&k, &v) in &model {
            assert_eq!(
                client.lookup(k).unwrap().0,
                Some(v),
                "{}: final state key {k}",
                shape.name()
            );
        }
        drop(client);
        assert_eq!(
            cluster.node_census().unwrap().total(),
            cluster.nodes_outstanding(),
            "{}: census mismatch",
            shape.name()
        );
    }
}

fn to_pipeline_op(op: Op) -> PipelineOp {
    match op {
        Op::Lookup { key } => PipelineOp::Lookup { key },
        Op::Insert { key, value } => PipelineOp::Insert { key, value },
        Op::Delete { key } => PipelineOp::Delete { key },
        Op::Range { start_key, count } => PipelineOp::Range {
            start_key,
            count: count as usize,
        },
    }
}

/// The pipelined value written for `key` (pure in the key, so batch
/// completion order cannot change the final state).
fn pure_value(key: u64) -> u64 {
    key.wrapping_mul(7).wrapping_add(13)
}

/// The delete-free hostile shapes (hot spot and flash crowd run a 50/50
/// insert/lookup mix) match the model through the split-phase pipeline.
/// Within a batch a read may land before or after a same-key write, so reads
/// only assert *untorn* values; the final state must equal the model exactly.
#[test]
fn pipelined_hotspot_and_flash_crowd_match_the_model() {
    for shape in [
        ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 4,
        },
        ScenarioShape::FlashCrowd { hot_pct: 60 },
    ] {
        let spec = small_spec(shape);
        let (cluster, mut model) = loaded_cluster(&spec);
        let mut client = cluster.client(0);
        let mut gen = spec.generator(0);
        let mut remaining = spec.ops_per_thread;
        while remaining > 0 {
            let n = remaining.min(32) as usize;
            remaining -= n as u64;
            let ops: Vec<PipelineOp> = gen
                .take_ops(n)
                .into_iter()
                .map(|op| match op {
                    // Values pure in the key: same-batch double inserts
                    // commute.
                    Op::Insert { key, .. } => Op::Insert {
                        key,
                        value: pure_value(key),
                    },
                    other => other,
                })
                .map(to_pipeline_op)
                .collect();
            for op in &ops {
                if let PipelineOp::Insert { key, value } = *op {
                    model.insert(key, value);
                }
            }
            let report = client.run_pipelined(ops, 4).expect("pipelined batch");
            for r in &report.results {
                if let (PipelineOp::Lookup { key }, OpOutput::Lookup(Some(v))) = (&r.op, &r.output)
                {
                    let bulk = key.wrapping_mul(3) + 1;
                    assert!(
                        *v == pure_value(*key) || *v == bulk,
                        "{}: torn read of {key}: {v}",
                        shape.name()
                    );
                }
            }
        }
        for (&k, &v) in &model {
            assert_eq!(
                client.lookup(k).unwrap().0,
                Some(v),
                "{}: final state key {k}",
                shape.name()
            );
        }
    }
}

/// Sequential appends and scan/churn keep the tree's structural invariants
/// through the pipeline: the census accounts for every outstanding node and
/// hostile traffic adds no fixable shape defects over the bulkload baseline.
#[test]
fn pipelined_append_and_churn_preserve_invariants() {
    for shape in [
        ScenarioShape::SequentialAppend,
        ScenarioShape::ScanChurn {
            scan_pct: 10,
            scan_size: 20,
        },
    ] {
        let spec = small_spec(shape);
        let (cluster, _) = loaded_cluster(&spec);
        let baseline = cluster.shape_audit().unwrap();
        let mut client = cluster.client(0);
        let mut gen = spec.generator(0);
        let mut remaining = spec.ops_per_thread;
        while remaining > 0 {
            let n = remaining.min(32) as usize;
            remaining -= n as u64;
            let ops: Vec<PipelineOp> = gen.take_ops(n).into_iter().map(to_pipeline_op).collect();
            client.run_pipelined(ops, 4).expect("pipelined batch");
        }
        drop(client);
        assert_eq!(
            cluster.node_census().unwrap().total(),
            cluster.nodes_outstanding(),
            "{}: census mismatch",
            shape.name()
        );
        let audit = cluster.shape_audit().unwrap();
        assert!(
            audit.underfull_rightmost_fixable <= baseline.underfull_rightmost_fixable
                && audit.underfull_internals_fixable <= baseline.underfull_internals_fixable,
            "{}: hostile traffic added fixable defects",
            shape.name()
        );
    }
}

/// Scans racing churn from several threads, on either backend, are *complete*
/// and never observe a torn value.  Every `(key, value)` pair a scan returns
/// satisfies the churn write formula of the thread that owns the key; and
/// every key the scanning thread itself holds live — nobody else writes its
/// keys, so they are live for the whole of the scan — within the stretch the
/// scan covered is in the result.  Afterwards the tree is the union of the
/// threads' models through a warm cache and a cold one, every node is
/// accounted for and no fixable shape defect was added.
fn concurrent_scans_racing_churn_on<B: FabricBackend>() {
    let mut spec = small_spec(ScenarioShape::ScanChurn {
        scan_pct: 20,
        scan_size: 20,
    });
    spec.threads = 3;
    spec.ops_per_thread = 1500;
    let cluster = Cluster::<B>::new_on(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).expect("bulkload");
    let baseline = cluster.shape_audit().expect("audit");
    let threads = spec.threads;
    let mut handles = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = cluster.client(0);
            let mut gen = spec.generator(t);
            let mut own = BTreeMap::new();
            for _ in 0..spec.ops_per_thread {
                match gen.next_op() {
                    Op::Insert { key, value } => {
                        client.insert(key, value).expect("insert");
                        own.insert(key, value);
                    }
                    Op::Delete { key } => {
                        client.delete(key).expect("delete");
                        own.remove(&key);
                    }
                    Op::Lookup { key } => {
                        client.lookup(key).expect("lookup");
                    }
                    Op::Range { start_key, count } => {
                        let (scan, _) =
                            client.range(start_key, count as usize).expect("range");
                        let mut prev = None;
                        for &(k, v) in &scan {
                            assert!(prev < Some(k), "scan out of order at {k}");
                            prev = Some(k);
                            // The churn window writes value_at(i) = 31*i + t
                            // at key_at(i) = i*threads + t.
                            let owner = k % threads;
                            let i = k / threads;
                            assert_eq!(
                                v,
                                i.wrapping_mul(31).wrapping_add(owner),
                                "torn value at key {k}"
                            );
                        }
                        // A scan cut short by `count` covered up to its last
                        // key, any other to the end of the tree.
                        let covered_to = match scan.len() == count as usize {
                            true => prev.expect("count > 0"),
                            false => u64::MAX,
                        };
                        for (&k, &v) in own.range(start_key..=covered_to) {
                            assert!(
                                scan.binary_search(&(k, v)).is_ok(),
                                "scan from {start_key} passed over live key {k}"
                            );
                        }
                    }
                }
            }
            own
        }));
    }
    let mut model = BTreeMap::new();
    for h in handles {
        model.extend(h.join().expect("worker panicked"));
    }
    let space = cluster.space_stats();
    assert!(space.leaf_merges > 0 && space.structural_commits > space.leaf_merges, "{space:?}");
    let expect: Vec<(u64, u64)> = model.into_iter().collect();
    let mut client = cluster.client(0);
    client.quiesce_coherence();
    let (warm, _) = client.range(0, expect.len() + 10).expect("warm scan");
    assert_eq!(warm, expect, "warm full scan differs from the model");
    cluster.cache(0).clear();
    let (cold, _) = client.range(0, expect.len() + 10).expect("cold scan");
    assert_eq!(cold, expect, "cold full scan differs from the model");
    assert_eq!(
        cluster.node_census().unwrap().total(),
        cluster.nodes_outstanding()
    );
    let audit = cluster.shape_audit().expect("audit");
    assert!(
        audit.underfull_rightmost_fixable <= baseline.underfull_rightmost_fixable
            && audit.underfull_internals_fixable <= baseline.underfull_internals_fixable,
        "scans racing churn added fixable defects: {audit:?}"
    );
}

#[test]
fn concurrent_scans_racing_churn_see_no_torn_values() {
    concurrent_scans_racing_churn_on::<Fabric>();
}

#[test]
fn concurrent_scans_racing_churn_are_complete_threaded() {
    concurrent_scans_racing_churn_on::<ThreadedFabric>();
}

/// A sequential-append storm from several threads leaves the right edge
/// clean: no fixable shape defects beyond the bulkload baseline, and every
/// surviving appended key reads back the verifiable value.
#[test]
fn multi_thread_append_storm_keeps_the_right_edge_clean() {
    let mut spec = small_spec(ScenarioShape::SequentialAppend);
    spec.threads = 3;
    spec.ops_per_thread = 1500;
    let (cluster, _) = loaded_cluster(&spec);
    let baseline = cluster.shape_audit().unwrap();
    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = cluster.client(0);
            let mut gen = spec.generator(t);
            for _ in 0..spec.ops_per_thread {
                match gen.next_op() {
                    Op::Insert { key, value } => {
                        client.insert(key, value).expect("insert");
                    }
                    Op::Delete { key } => {
                        client.delete(key).expect("delete");
                    }
                    Op::Lookup { key } => {
                        client.lookup(key).expect("lookup");
                    }
                    Op::Range { start_key, count } => {
                        client.range(start_key, count as usize).expect("range");
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(
        cluster.node_census().unwrap().total(),
        cluster.nodes_outstanding()
    );
    let audit = cluster.shape_audit().unwrap();
    assert!(
        audit.underfull_rightmost_fixable <= baseline.underfull_rightmost_fixable
            && audit.underfull_internals_fixable <= baseline.underfull_internals_fixable,
        "append storm added fixable defects (rightmost {}, internals {})",
        audit.underfull_rightmost_fixable,
        audit.underfull_internals_fixable
    );
}

/// Exhausting the pool surfaces as the *typed* allocation error — the tree
/// keeps serving reads and deletes, and freeing space lets inserts resume
/// through the allocator's free-list rescue path.
#[test]
fn pool_exhaustion_is_typed_backpressure_not_a_panic() {
    let config = ClusterConfig {
        fabric: FabricConfig {
            // One 48 KiB chunk of 256-byte nodes per server past the 4 KiB
            // superblock: the pool runs dry after a few hundred appends.
            host_bytes_per_ms: 52 << 10,
            memory_servers: 2,
            compute_servers: 1,
            ..FabricConfig::small_test()
        },
        tree: TreeConfig {
            node_size: 256,
            chunk_bytes: 48 << 10,
            ..TreeConfig::small_test()
        },
    };
    let cluster = Cluster::new(config, TreeOptions::sherman());
    let bulk: Vec<(u64, u64)> = (0..1024u64).map(|k| (k * 2, k)).collect();
    cluster.bulkload(bulk.iter().copied()).expect("bulkload");
    let mut client = cluster.client(0);

    // Append at the right edge until the pool refuses an allocation.
    let mut next_key = 10_000u64;
    let exhausted_at = loop {
        match client.insert(next_key, next_key) {
            Ok(_) => next_key += 1,
            Err(TreeError::Allocation(msg)) => {
                assert!(
                    msg.contains("memory pool exhausted"),
                    "unexpected allocation message: {msg}"
                );
                break next_key;
            }
            Err(other) => panic!("expected allocation backpressure, got {other:?}"),
        }
        assert!(next_key < 1_000_000, "the tiny pool never ran dry");
    };
    let snapshot = cluster.pool().backpressure().snapshot();
    assert!(snapshot.saw_pressure());
    assert!(snapshot.exhaustion_events > 0);

    // Reads and deletes still complete under exhaustion.
    assert_eq!(client.lookup(0).expect("lookup under pressure").0, Some(0));
    assert_eq!(client.lookup(next_key).expect("lookup").0, None);
    let (scan, _) = client.range(0, 10).expect("range under pressure");
    assert_eq!(scan.len(), 10);

    // Free a swath of the key space: the merges retire nodes, epoch
    // reclamation clears them, and the free list lets the right edge grow
    // again without any new chunk.
    for (k, _) in &bulk {
        client.delete(*k).expect("delete under pressure");
    }
    let reused_before = cluster.reclaim_stats().reused;
    let mut resumed = false;
    for i in 0..2048u64 {
        if client.insert(exhausted_at + i, exhausted_at + i).is_ok() {
            resumed = true;
            break;
        }
    }
    let reused = cluster.reclaim_stats().reused;
    assert!(
        resumed && reused > reused_before,
        "inserts never resumed after frees (resumed={resumed}, reused {reused_before} -> {reused})"
    );
}

/// Shrinking the cache budget mid-run evicts down to the new budget, counts
/// the pressure evictions, and never breaks reads.
#[test]
fn cache_budget_shrink_evicts_and_keeps_reads_correct() {
    let config = ClusterConfig {
        tree: TreeConfig {
            node_size: 256,
            cache_bytes: 16 << 10,
            ..TreeConfig::small_test()
        },
        ..ClusterConfig::small()
    };
    let cluster = Cluster::new(config, TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = (0..6000u64).map(|k| (k, k * 11 + 5)).collect();
    cluster.bulkload(pairs.iter().copied()).expect("bulkload");
    let mut client = cluster.client(0);
    for (k, v) in &pairs {
        if k % 7 == 0 {
            assert_eq!(client.lookup(*k).unwrap().0, Some(*v));
        }
    }
    let populated = cluster.cache(0).len();
    assert!(populated > 16, "warm-up left the cache too small to test");

    let initial = cluster.cache(0).capacity_bytes();
    cluster.set_cache_budget(initial / 4);
    let cache = cluster.cache(0);
    assert!(cache.len() <= cache.config().max_entries());
    assert!(cache.len() < populated, "the shrink evicted nothing");
    assert!(cache.stats().pressure_evictions() > 0);

    // Reads stay correct (and re-warm the smaller cache) after the shrink.
    for (k, v) in &pairs {
        if k % 5 == 0 {
            assert_eq!(client.lookup(*k).unwrap().0, Some(*v));
        }
    }
    assert!(cache.len() <= cache.config().max_entries());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Operation streams are a pure function of `(seed, thread_id)`.
    #[test]
    fn generator_streams_are_deterministic(seed in any::<u64>()) {
        for shape in hostile_shapes() {
            let mut spec = small_spec(shape);
            spec.seed = seed;
            let a = spec.generator(1).take_ops(400);
            let b = spec.generator(1).take_ops(400);
            prop_assert_eq!(a, b, "{} replay diverged", shape.name());
        }
    }

    /// The generators honour the requested operation mix within tolerance.
    #[test]
    fn generator_mix_proportions_hold(seed in any::<u64>()) {
        let mut spec = small_spec(ScenarioShape::ShiftingHotspot { theta: 0.9, phases: 4 });
        spec.seed = seed;
        spec.mix = Mix { insert_pct: 30, lookup_pct: 50, delete_pct: 10, range_pct: 10 };
        let ops = spec.generator(0).take_ops(10_000);
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert { .. })).count() as f64;
        let lookups = ops.iter().filter(|o| matches!(o, Op::Lookup { .. })).count() as f64;
        let deletes = ops.iter().filter(|o| matches!(o, Op::Delete { .. })).count() as f64;
        let ranges = ops.iter().filter(|o| matches!(o, Op::Range { .. })).count() as f64;
        let n = ops.len() as f64;
        prop_assert!((inserts / n - 0.30).abs() < 0.03);
        prop_assert!((lookups / n - 0.50).abs() < 0.03);
        prop_assert!((deletes / n - 0.10).abs() < 0.03);
        prop_assert!((ranges / n - 0.10).abs() < 0.03);
    }

    /// The hot-key motion schedule depends only on `(seed, phase, key_space)`
    /// — never on how many threads observe it — and stays in bounds.
    #[test]
    fn hot_key_schedule_is_thread_count_independent(seed in any::<u64>(), phase in 0u64..16) {
        let mut solo = small_spec(ScenarioShape::ShiftingHotspot { theta: 0.9, phases: 16 });
        solo.seed = seed;
        let mut fleet = solo.clone();
        fleet.threads = 8;
        prop_assert_eq!(solo.hot_key_at(phase), fleet.hot_key_at(phase));
        prop_assert!(solo.hot_key_at(phase) < solo.key_space);
    }
}
