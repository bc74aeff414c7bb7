//! Tier-1 regressions for direction-complete structural deletes and the
//! self-healing type-❷ cache.
//!
//! PR 2 recorded three simplifications that this suite pins the fixes for:
//!
//! * merges only folded a node into its **right** B-link sibling, so the
//!   rightmost child under each parent could stay underfull forever — the
//!   descending-drain test and the churn shape audit assert that left-sibling
//!   merges now cover that direction,
//! * underfull internal nodes whose combined separators did not fit were left
//!   alone — the redistribution property test and the audit's
//!   `underfull_internals_fixable` count pin internal rebalancing,
//! * the type-❷ top-level cache was scrubbed on node frees but never
//!   refreshed — the hit-rate-under-churn test asserts the cache stays warm
//!   across ≥10× window turnover.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_repro::sherman::{InternalNode, NodeLayout, TreeResult};
use sherman_repro::sherman_sim::{Fabric, GlobalAddress, ThreadedFabric};
use sherman_repro::sherman_workload::{ChurnSpec, Op};
use std::collections::BTreeSet;

fn small_cluster(options: TreeOptions) -> std::sync::Arc<Cluster> {
    Cluster::new(ClusterConfig::small(), options)
}

/// Drive one deterministic single-client churn stream against `cluster`,
/// tracking the live key set; returns it together with the realized turnover.
fn run_churn(
    cluster: &std::sync::Arc<Cluster>,
    spec: &ChurnSpec,
    turnover: f64,
) -> TreeResult<(BTreeSet<u64>, f64)> {
    let mut client = cluster.client(0);
    let mut gen = spec.generator(0);
    let mut live = BTreeSet::new();
    for _ in 0..spec.ops_per_thread_for_turnover(turnover) {
        match gen.next_op() {
            Op::Insert { key, value } => {
                client.insert(key, value)?;
                live.insert(key);
            }
            Op::Delete { key } => {
                let (existed, _) = client.delete(key)?;
                assert!(existed, "windowed key {key} deleted twice");
                live.remove(&key);
            }
            Op::Lookup { key } => {
                let (value, _) = client.lookup(key)?;
                assert!(value.is_some(), "live key {key} must be present");
            }
            Op::Range { start_key, count } => {
                client.range(start_key, count as usize)?;
            }
        }
    }
    Ok((live, gen.turnovers()))
}

/// Draining a tree from its high edge hits exactly the shape the old engine
/// could not fix: every underfull node is the rightmost child of its parent,
/// whose only same-parent partner is its *left* sibling.  The drain must
/// produce left merges, reclaim the fold-away nodes, and leave no fixable
/// underfull rightmost child behind.
#[test]
fn descending_drain_left_merges_rightmost_children() {
    let cluster = small_cluster(TreeOptions::sherman());
    let n = 2_000u64;
    cluster.bulkload((0..n).map(|k| (k, k + 1))).unwrap();
    let before = cluster.node_census().unwrap();
    let mut client = cluster.client(0);

    // Delete the top three quarters, descending.
    for k in (n / 4..n).rev() {
        client.delete(k).unwrap();
    }

    let space = cluster.space_stats();
    assert!(space.leaf_merges > 0, "a descending drain must merge leaves");
    assert!(
        space.left_merges > 0,
        "descending deletes drain rightmost children; only left merges can fold them"
    );
    assert!(cluster.reclaim_stats().retired > 0, "merged-away nodes must be retired");
    let after = cluster.node_census().unwrap();
    assert!(
        after.total() < before.total(),
        "census should shrink: {} -> {}",
        before.total(),
        after.total()
    );
    assert_eq!(cluster.nodes_outstanding(), after.total());

    // The shape audit finds no underfull child that a same-parent partner
    // could fix — in either direction, at any level.
    let audit = cluster.shape_audit().unwrap();
    assert_eq!(audit.underfull_rightmost_fixable, 0, "{audit:?}");
    assert_eq!(audit.underfull_internals_fixable, 0, "{audit:?}");

    // Survivors are intact, victims are gone, scans cross the new seams.
    for k in (0..n / 4).step_by(53) {
        assert_eq!(client.lookup(k).unwrap().0, Some(k + 1), "survivor {k}");
    }
    for k in (n / 4..n).step_by(97) {
        assert_eq!(client.lookup(k).unwrap().0, None, "victim {k}");
    }
    let (scan, _) = client.range(0, 40).unwrap();
    let expect: Vec<(u64, u64)> = (0..40).map(|k| (k, k + 1)).collect();
    assert_eq!(scan, expect);
}

/// The acceptance regression: after a churn run with ≥10× window turnover the
/// node census shows no parent whose rightmost child is persistently
/// underfull, and internal occupancy stays above the merge threshold wherever
/// a rebalance partner exists.
#[test]
fn churn_census_has_no_persistently_underfull_rightmost_children() {
    let cluster = small_cluster(TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).unwrap();
    let spec = ChurnSpec {
        window: 1_500,
        threads: 1,
        lookup_pct: 10,
        range_pct: 5,
        range_size: 20,
        bidirectional: true,
        seed: 0xBEEF,
    };
    let (live, turnovers) = run_churn(&cluster, &spec, 10.0).unwrap();
    assert!(turnovers >= 10.0, "acceptance requires ≥10× turnover, got {turnovers:.1}");

    let space = cluster.space_stats();
    assert!(space.merges() > 0);
    assert!(
        space.left_merges > 0,
        "bidirectional churn must exercise the left-merge direction"
    );
    let audit = cluster.shape_audit().unwrap();
    assert_eq!(
        audit.underfull_rightmost_fixable, 0,
        "no parent may keep an underfull rightmost child with a viable left sibling: {audit:?}"
    );
    assert_eq!(
        audit.underfull_internals_fixable, 0,
        "internal occupancy must stay above the threshold where a partner exists: {audit:?}"
    );

    // The tree still answers correctly for the surviving window.
    let mut client = cluster.client(0);
    for &k in live.iter().step_by(37) {
        assert!(client.lookup(k).unwrap().0.is_some(), "live key {k}");
    }
}

/// The first-leaf rule leaves at most one leaf below the merge floor that a
/// same-parent sibling could fix: the level's first, which merges only once
/// empty.  After an ascending sliding window — which drains the tree from its
/// first leaf — every level-1 node's children are read outside the protocol,
/// and each leaf below the floor of `merge_threshold` with a sibling under
/// the same parent (with 256 B nodes the pair then merges or rebalances) has
/// lower fence 0.
#[test]
fn a_sliding_window_leaves_only_its_first_leaf_below_the_floor() {
    let cluster = small_cluster(TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).unwrap();
    let spec = ChurnSpec {
        window: 1_500,
        threads: 1,
        lookup_pct: 10,
        range_pct: 5,
        range_size: 20,
        bidirectional: false,
        seed: 0xF1A7,
    };
    let (live, _) = run_churn(&cluster, &spec, 4.0).unwrap();
    assert!(cluster.space_stats().edge_merges > 0, "no first leaf retired");

    let layout = *cluster.layout();
    let floor = (layout.leaf_capacity() as f64 * TreeOptions::sherman().merge_threshold) as usize;
    let root_ptr = sherman_repro::sherman_memserver::ServerLayout::root_ptr_addr();
    let mut parent = Some(GlobalAddress::unpack(cluster.fabric().god_read_u64(root_ptr).unwrap()));
    while let Some(addr) = parent.filter(|&a| layout.decode_header(&image_of(&cluster, a)).level > 1) {
        parent = layout.decode_internal(&image_of(&cluster, addr)).header.leftmost;
    }
    let (mut below, mut leaves) = (Vec::new(), 0);
    while let Some(addr) = parent {
        let node = layout.decode_internal(&image_of(&cluster, addr));
        let children = node.children();
        for &child in &children {
            let leaf = layout.decode_leaf(&image_of(&cluster, child));
            leaves += 1;
            if children.len() > 1 && leaf.live_count() < floor {
                below.push(leaf.header.fence_low);
            }
        }
        parent = node.header.sibling;
    }
    assert!(leaves > 100, "{leaves} leaves");
    assert!(below.len() <= 1 && below.iter().all(|&low| low == 0), "{below:?}");
    let audit = cluster.shape_audit().unwrap();
    assert_eq!(audit.underfull_leaves, below.len() as u64, "{audit:?}");

    let mut client = cluster.client(0);
    for &k in live.iter().step_by(37) {
        assert!(client.lookup(k).unwrap().0.is_some(), "live key {k}");
    }
}

/// Type-❷ self-healing: churn that continuously retires top-level nodes must
/// not erode the always-cached top set.  The hit rate after ≥10× window
/// turnover stays within 10% of its pre-churn value, because every structural
/// change refreshes the scrubbed entries and cache-miss traversals repair the
/// rest lazily.
#[test]
fn type2_cache_hit_rate_survives_churn() {
    let cluster = small_cluster(TreeOptions::sherman());
    let window = 1_500u64;
    cluster.bulkload((0..window).map(|k| (k, k))).unwrap();

    let probe = |keys: &[u64]| -> f64 {
        let cache = cluster.cache(0);
        let hits = keys.iter().filter(|&&k| cache.search_top(k).is_some()).count();
        hits as f64 / keys.len().max(1) as f64
    };
    let pre_keys: Vec<u64> = (0..window).step_by(7).collect();
    let pre = probe(&pre_keys);
    assert!(pre > 0.9, "bulkload warms the type-2 cache (hit rate {pre:.2})");

    let spec = ChurnSpec {
        window,
        threads: 1,
        lookup_pct: 15,
        range_pct: 5,
        range_size: 20,
        bidirectional: true,
        seed: 0xF00D,
    };
    let (live, turnovers) = run_churn(&cluster, &spec, 10.0).unwrap();
    assert!(turnovers >= 10.0, "needs ≥10× turnover, got {turnovers:.1}");
    assert!(
        cluster.reclaim_stats().retired > 0,
        "churn must retire nodes (each retirement scrubs cache entries)"
    );
    assert!(
        cluster.cache(0).stats().refreshes() > 0,
        "structural changes must refresh the type-2 cache, not just scrub it"
    );

    let post_keys: Vec<u64> = live.iter().copied().step_by(7).collect();
    let post = probe(&post_keys);
    assert!(
        (pre - post).abs() <= 0.10,
        "type-2 hit rate degraded beyond 10%: pre {pre:.2} vs post {post:.2}"
    );
}

// ---------------------------------------------------------------------
// Internal rebalancing: redistribution preserves the routing function
// ---------------------------------------------------------------------

/// The image of the node at `addr`, read outside the protocol.
fn image_of<B: FabricBackend>(cluster: &Cluster<B>, addr: GlobalAddress) -> Vec<u8> {
    let mut image = vec![0u8; cluster.layout().node_size()];
    cluster.fabric().god_read(addr, &mut image).unwrap();
    image
}

/// A level's first leaf merges only once empty, and that right merge at the
/// tree's left edge keeps the right leaf: no pair moves, it takes the first
/// leaf's place as its parent's leftmost child with its lower fence at 0,
/// and the first leaf is the tombstone retired.  Over `keys` bulkloaded keys
/// (256 B nodes, eight to a leaf) the first leaf is drained to one key —
/// below the floor of the leaves after it, and no merge yet — then to none.
/// With two leaves the merge empties the root, and the root pointer swings
/// to the survivor.  Afterwards every key is where it should be — by lookup,
/// by a scan on the committer's warm cache, on the other compute server's
/// cache (which may still route to the tombstone) and on a cleared one — and
/// census and shape audit are clean.
fn first_leaf_merge_keeps_its_right_sibling_on<B: FabricBackend>(keys: u64) {
    let cluster = Cluster::<B>::new_on(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload((0..keys).map(|k| (k, k + 1))).unwrap();
    let layout = *cluster.layout();
    let root_ptr = sherman_repro::sherman_memserver::ServerLayout::root_ptr_addr();
    let root = || GlobalAddress::unpack(cluster.fabric().god_read_u64(root_ptr).unwrap());
    // The first level-1 node: down the leftmost children.
    let mut parent = root();
    while layout.decode_header(&image_of(&cluster, parent)).level > 1 {
        parent = layout.decode_internal(&image_of(&cluster, parent)).header.leftmost.unwrap();
    }
    let first = layout.decode_internal(&image_of(&cluster, parent)).header.leftmost.unwrap();
    let first_leaf = layout.decode_leaf(&image_of(&cluster, first));
    let second = first_leaf.header.sibling.unwrap();
    let held: Vec<u64> = first_leaf.sorted_pairs().iter().map(|&(k, _)| k).collect();
    let root_was_parent = root() == parent;

    let second_held = layout.decode_leaf(&image_of(&cluster, second)).sorted_pairs();

    let mut client = cluster.client(0);
    for &key in held[1..].iter().rev() {
        assert!(client.delete(key).unwrap().0, "key {key} is live");
    }
    let space = cluster.space_stats();
    assert_eq!((space.merges(), space.rebalances), (0, 0), "a merge at one pair");
    assert!(client.delete(held[0]).unwrap().0, "key {} is live", held[0]);
    let space = cluster.space_stats();
    assert_eq!((space.leaf_merges, space.edge_merges, space.rebalances), (1, 1, 0));
    assert_eq!(cluster.reclaim_stats().retired, 1 + u64::from(root_was_parent));

    let tombstone = layout.decode_header(&image_of(&cluster, first));
    assert!(tombstone.free, "the first leaf is the tombstone: {tombstone:?}");
    let survivor = layout.decode_leaf(&image_of(&cluster, second));
    assert!(!survivor.header.free && survivor.header.fence_low == 0);
    assert_eq!(survivor.sorted_pairs(), second_held, "no pair moves");
    if root_was_parent {
        assert_eq!(space.root_collapses, 1);
        assert_eq!(root(), second, "the root pointer swings to the survivor");
    } else {
        let parent = layout.decode_internal(&image_of(&cluster, parent));
        assert_eq!(parent.header.leftmost, Some(second), "the survivor is the leftmost child");
    }

    let live: Vec<(u64, u64)> = (held[held.len() - 1] + 1..keys).map(|k| (k, k + 1)).collect();
    for &(key, value) in live.iter().step_by(7) {
        assert_eq!(client.lookup(key).unwrap().0, Some(value), "key {key}");
    }
    let count = live.len().min(40);
    assert_eq!(client.range(0, count).unwrap().0, live[..count], "warm scan");
    let mut other = cluster.client(1);
    assert_eq!(other.range(0, count).unwrap().0, live[..count], "the other server's scan");
    cluster.cache(1).clear();
    assert_eq!(other.range(0, count).unwrap().0, live[..count], "cold scan");

    let census = cluster.node_census().unwrap();
    assert_eq!(census.total(), cluster.nodes_outstanding());
    let audit = cluster.shape_audit().unwrap();
    let defects = (
        audit.underfull_rightmost_fixable,
        audit.underfull_internals_fixable,
        audit.mistagged_slots,
    );
    assert_eq!(defects, (0, 0, 0), "{audit:?}");
}

#[test]
fn a_first_leaf_merge_keeps_its_right_sibling() {
    first_leaf_merge_keeps_its_right_sibling_on::<Fabric>(400);
    first_leaf_merge_keeps_its_right_sibling_on::<ThreadedFabric>(400);
}

#[test]
fn a_first_leaf_merge_that_empties_the_root_keeps_its_right_sibling() {
    first_leaf_merge_keeps_its_right_sibling_on::<Fabric>(16);
    first_leaf_merge_keeps_its_right_sibling_on::<ThreadedFabric>(16);
}

fn addr(n: u64) -> GlobalAddress {
    GlobalAddress::host(0, 4096 + 1024 * n)
}

/// Build a fence-adjacent internal sibling pair: `left` covers
/// `[0, (left_n+1)*10)`, `right` covers on to `+inf`, with distinct children.
fn sibling_pair(left_n: usize, right_n: usize) -> (InternalNode, InternalNode, u64) {
    let layout = NodeLayout::new(&TreeConfig::default());
    let boundary = (left_n as u64 + 1) * 10;
    let mut left = InternalNode::new(1, 0, boundary, addr(0));
    for i in 1..=left_n as u64 {
        left.insert_separator(i * 10, addr(i), &layout);
    }
    let mut right = InternalNode::new(1, boundary, u64::MAX, addr(100));
    for i in 1..=right_n as u64 {
        right.insert_separator(boundary + i * 10, addr(100 + i), &layout);
    }
    let max_key = boundary + right_n as u64 * 10 + 50;
    (left, right, max_key)
}

/// The pair-level routing function: which child serves `key`.
fn pair_route(left: &InternalNode, right: &InternalNode, key: u64) -> GlobalAddress {
    if key < right.header.fence_low {
        left.child_for(key)
    } else {
        right.child_for(key)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// Re-dividing internal siblings at one boundary — moving separators in
    /// either direction, or splitting a node into a fresh right half — must
    /// preserve the pair's routing function exactly: every key reaches the
    /// same child before and after, fences stay adjacent at the returned
    /// separator, no child is lost or duplicated, and both nodes stay sorted
    /// with authoritative counts.
    #[test]
    fn internal_redistribution_preserves_routing(
        left_n in 0usize..18,
        right_n in 0usize..18,
        take_seed in 0usize..1024,
        mode in 0u8..3,
    ) {
        // Mode 0 moves children right → left, mode 1 left → right, mode 2
        // splits the left node into an empty right half.
        let (mut left, mut right, max_key) = match mode {
            2 => {
                let (left, _, _) = sibling_pair(left_n, 0);
                let right = InternalNode {
                    header: left.header.empty_right(),
                    start: 0,
                    entries: Vec::new(),
                };
                let max_key = left.header.fence_high;
                (left, right, max_key)
            }
            _ => sibling_pair(left_n, right_n),
        };
        let donor_n = if mode == 0 { right_n } else { left_n };
        if donor_n == 0 {
            // Nothing to redistribute from an empty donor.
            return;
        }
        let take = 1 + take_seed % donor_n;
        let left_len = if mode == 0 { left_n + take } else { left_n - take };

        let before: Vec<GlobalAddress> = left
            .children()
            .into_iter()
            .chain(right.children())
            .collect();
        let routes: Vec<(u64, GlobalAddress)> = (0..max_key)
            .step_by(5)
            .map(|k| (k, pair_route(&left, &right, k)))
            .collect();

        let new_sep = left.rebalance(&mut right, left_len);

        // Fences meet exactly at the returned separator.
        prop_assert_eq!(left.header.fence_high, new_sep);
        prop_assert_eq!(right.header.fence_low, new_sep);
        // The requested number of children moved.
        prop_assert_eq!(left.entries.len(), left_len);
        // No child lost or duplicated, order preserved.
        let after: Vec<GlobalAddress> = left
            .children()
            .into_iter()
            .chain(right.children())
            .collect();
        prop_assert_eq!(&before, &after);
        // Both nodes stay strictly sorted with authoritative counts.
        prop_assert!(left.entries.windows(2).all(|w| w[0].key < w[1].key));
        prop_assert!(right.entries.windows(2).all(|w| w[0].key < w[1].key));
        prop_assert_eq!(left.header.count, left.entries.len());
        prop_assert_eq!(right.header.count, right.entries.len());
        // The routing function is unchanged for every probed key.
        for (k, child) in routes {
            prop_assert_eq!(
                pair_route(&left, &right, k),
                child,
                "key {} re-routed after redistribution",
                k
            );
        }
    }
}
