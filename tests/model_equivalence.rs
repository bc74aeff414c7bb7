//! Property-based tests: the tree behaves exactly like an in-memory
//! `BTreeMap` model under arbitrary operation sequences and geometries —
//! including delete-heavy sliding-window churn that drives leaf merges,
//! separator removal and root collapse.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum ModelOp {
    Insert(u64, u64),
    Delete(u64),
    Lookup(u64),
    Range(u64, usize),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| ModelOp::Insert(k, v)),
        (0..key_space).prop_map(ModelOp::Delete),
        (0..key_space).prop_map(ModelOp::Lookup),
        (0..key_space, 1usize..40).prop_map(|(k, n)| ModelOp::Range(k, n)),
    ]
}

fn check_against_model(options: TreeOptions, node_size: usize, ops: &[ModelOp]) {
    let mut config = ClusterConfig::small();
    config.tree.node_size = node_size;
    let cluster = Cluster::new(config, options);
    // Start from a small bulkloaded state so the tree has internal levels.
    let bulk: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 5, k)).collect();
    cluster.bulkload(bulk.iter().copied()).expect("bulkload");
    let mut model: BTreeMap<u64, u64> = bulk.into_iter().collect();

    let mut client = cluster.client(0);
    for op in ops {
        match *op {
            ModelOp::Insert(k, v) => {
                client.insert(k, v).expect("insert");
                model.insert(k, v);
            }
            ModelOp::Delete(k) => {
                let (existed, _) = client.delete(k).expect("delete");
                let model_existed = model.remove(&k).is_some();
                assert_eq!(existed, model_existed, "delete({k}) presence mismatch");
            }
            ModelOp::Lookup(k) => {
                let (value, _) = client.lookup(k).expect("lookup");
                assert_eq!(value, model.get(&k).copied(), "lookup({k}) mismatch");
            }
            ModelOp::Range(start, count) => {
                let (scan, _) = client.range(start, count).expect("range");
                let expected: Vec<(u64, u64)> = model
                    .range(start..)
                    .take(count)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(scan, expected, "range({start}, {count}) mismatch");
            }
        }
    }
    // Final state: every model key is present with the right value.
    for (&k, &v) in &model {
        assert_eq!(client.lookup(k).unwrap().0, Some(v), "final state key {k}");
    }
}

/// Drive a sliding-window churn (insert waves at the head, delete waves at
/// the tail) against the model.  This is the delete-heavy pattern that forces
/// leaf merges, separator removals and root collapses; interleaved range
/// scans cross the merge boundaries.
fn check_churn_against_model(options: TreeOptions, window: u64, waves: u64) {
    let cluster = Cluster::new(ClusterConfig::small(), options);
    cluster.bulkload(std::iter::empty()).expect("bulkload");
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut client = cluster.client(0);

    let mut head = 0u64;
    let mut tail = 0u64;
    let total = window * waves;
    while tail < total {
        // Insert one key at the head, and once the window is full delete one
        // at the tail, so exactly `window` keys stay live.
        client.insert(head, head * 3 + 1).expect("insert");
        model.insert(head, head * 3 + 1);
        head += 1;
        if head - tail > window {
            let (existed, _) = client.delete(tail).expect("delete");
            assert!(existed, "windowed key {tail} must exist");
            model.remove(&tail);
            tail += 1;
        }
        // Periodically scan across the live window (and the merge boundary
        // just below it) and compare with the model.
        if head.is_multiple_of((window / 4).max(1)) {
            let start = tail.saturating_sub(5);
            let (scan, _) = client.range(start, 30).expect("range");
            let expected: Vec<(u64, u64)> = model
                .range(start..)
                .take(30)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(scan, expected, "scan at {start} after {tail} deletes");
        }
    }
    // The churn must have exercised the structural-delete machinery...
    if options.structural_deletes_enabled() {
        assert!(
            cluster.space_stats().leaf_merges > 0,
            "a {waves}-wave churn must trigger merges"
        );
        assert!(cluster.reclaim_stats().retired > 0);
    }
    // ...while the final state matches the model exactly.
    for (&k, &v) in &model {
        assert_eq!(client.lookup(k).unwrap().0, Some(v), "final key {k}");
    }
    let (scan, _) = client.range(0, window as usize + 10).expect("range");
    let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(scan, expected);
    // Every slot the churn wrote carries its key's tag.
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 0);
}

#[test]
fn sherman_churn_matches_btreemap() {
    check_churn_against_model(TreeOptions::sherman(), 400, 12);
}

#[test]
fn fg_plus_churn_matches_btreemap() {
    check_churn_against_model(TreeOptions::fg_plus(), 400, 12);
}

/// The ladder's middle rungs: sorted leaves with combined write-back, whose
/// write-backs are planned from two images, under each lock strategy.
fn middle_rungs() -> [TreeOptions; 3] {
    [
        TreeOptions::plus_combine(),
        TreeOptions::plus_onchip(),
        TreeOptions::plus_hierarchical(),
    ]
}

#[test]
fn middle_rungs_churn_matches_btreemap() {
    for options in middle_rungs() {
        check_churn_against_model(options, 400, 12);
    }
}

#[test]
fn grow_only_churn_matches_btreemap() {
    check_churn_against_model(
        TreeOptions::sherman().without_structural_deletes(),
        400,
        6,
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Sherman (unsorted leaves + two-level versions) matches the model.
    #[test]
    fn sherman_matches_btreemap(ops in prop::collection::vec(op_strategy(600), 1..120)) {
        check_against_model(TreeOptions::sherman(), 256, &ops);
    }

    /// The FG+ baseline (sorted leaves, node-level versions) matches the model.
    #[test]
    fn fg_plus_matches_btreemap(ops in prop::collection::vec(op_strategy(600), 1..120)) {
        check_against_model(TreeOptions::fg_plus(), 256, &ops);
    }

    /// +Combine, +On-Chip and +Hierarchical match the model.
    #[test]
    fn middle_rungs_match_btreemap(ops in prop::collection::vec(op_strategy(600), 1..120)) {
        for options in middle_rungs() {
            check_against_model(options, 256, &ops);
        }
    }

    /// Unusual node geometries (including ones that force frequent splits)
    /// still match the model.
    #[test]
    fn geometry_sweep_matches_btreemap(
        ops in prop::collection::vec(op_strategy(400), 1..80),
        node_size in prop::sample::select(vec![192usize, 256, 384, 512]),
    ) {
        check_against_model(TreeOptions::sherman(), node_size, &ops);
    }
}
