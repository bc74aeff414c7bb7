//! A walk that lands on a node not covering its key was routed there by a
//! stale cached image.  Whichever walk it is, it drops that image before it
//! starts over, so the next attempt reads the level above instead of
//! following the same route again.
//!
//! Both tests steer a walk with a doctored copy of a cached level-2 image.
//! In the copy, the separator of one level-1 child `c` sits below `c`'s lower
//! fence.  The copy therefore routes the keys just left of `c` into `c`, which
//! does not cover them.  The walks under test are a separator insertion
//! looking for the parent of a new right half, and a merge looking for the
//! parent of an underfull leaf.

use sherman_repro::prelude::*;
use sherman_repro::sherman_cache::{CachedInternal, ChildRef};
use sherman_repro::sherman_sim::GlobalAddress;
use std::sync::Arc;

/// Keys are bulkloaded this far apart, so inserts fit between them.
const STRIDE: u64 = 16;

/// 20 000 keys in 256 B nodes with every internal node cached: 2 500
/// leaves under a root at level 4.  An operation gives up after 64
/// restarts instead of 10 000, so a walk that follows a stale route on every
/// attempt fails fast.
fn tree(options: TreeOptions) -> Arc<Cluster> {
    let mut config = ClusterConfig::small();
    config.tree.max_restarts = 64;
    let cluster = Cluster::new(config, options);
    cluster
        .bulkload((0..20_000).map(|k| (k * STRIDE, k)))
        .unwrap();
    cluster
}

/// The part of the tree the doctored image lies about.
struct Target {
    /// The rightmost leaf under `c`'s left sibling covers
    /// `[leaf_low, c_low)`.
    leaf_low: u64,
    /// `c`'s lower fence.
    c_low: u64,
    /// `c`'s left sibling, the level-1 parent of the leaf.
    left: GlobalAddress,
}

/// Pick a level-1 node `c` that is not the first child of its level-2
/// parent.  The rightmost leaf of `c`'s left sibling is the target.
fn target(cluster: &Cluster) -> Target {
    let cache = cluster.cache(0);
    let root_level = (1..8).filter(|&l| cache.peek(l, 0).is_some()).max();
    assert!(
        root_level >= Some(3),
        "the separator walk starts at level 2"
    );
    let mut key = 10_000 * STRIDE;
    loop {
        let c = cache.peek(1, key).unwrap();
        if cache.peek(2, key).unwrap().fence_low < c.fence_low {
            let left = cache.peek(1, c.fence_low - 1).unwrap();
            let leaf_low = left.children().last().unwrap().separator;
            return Target {
                leaf_low,
                c_low: c.fence_low,
                left: left.addr,
            };
        }
        key = c.fence_high;
    }
}

/// Offer compute server 0's cache a copy of `c`'s level-2 parent, at the
/// cached copy's version, whose separator for `c` is `moved` instead of
/// `c`'s lower fence.
fn doctor(cluster: &Cluster, target: &Target, moved: u64) {
    let cache = cluster.cache(0);
    let parent = cache.peek(2, target.c_low).unwrap();
    let children = parent.children().map(|r| ChildRef {
        separator: if r.separator == target.c_low {
            moved
        } else {
            r.separator
        },
        child: r.child,
    });
    let stale = CachedInternal::new(
        parent.addr,
        parent.level,
        parent.version,
        parent.fence_low,
        parent.fence_high,
        parent.leftmost(),
        children.collect::<Vec<_>>(),
    );
    let root_level = (1..8)
        .filter(|&l| cache.peek(l, 0).is_some())
        .max()
        .unwrap();
    assert!(cache.offer(Arc::new(stale), root_level));
    let routed = cache.peek(2, target.c_low).unwrap().child_for(moved);
    assert_ne!(routed, target.left, "the copy routes `moved` into `c`");
}

/// The children `addr`'s remote image names, leftmost included.
fn children(cluster: &Cluster, addr: GlobalAddress) -> usize {
    let mut image = vec![0u8; cluster.layout().node_size()];
    cluster.fabric().god_read(addr, &mut image).unwrap();
    cluster.layout().decode_internal(&image).entries.len() + 1
}

/// Insert keys between the bulkloaded ones of the target leaf, in order,
/// until its parent names one child more.  Returns the round trips of the
/// insert that split the leaf.
fn split_target_leaf(cluster: &Arc<Cluster>, target: &Target) -> u64 {
    let before = children(cluster, target.left);
    let mut client = cluster.client(0);
    for key in (target.leaf_low..target.c_low).filter(|k| k % STRIDE != 0) {
        let stats = client
            .insert(key, key)
            .unwrap_or_else(|e| panic!("insert {key}: {e:?}"));
        if children(cluster, target.left) > before {
            return stats.round_trips;
        }
    }
    panic!("the leaf never split");
}

/// A leaf splits, and the cached level-2 image routes its separator into the
/// next level-1 node, one that does not cover the separator.  The insertion
/// drops that image and finds the parent on its second attempt.  (A walk
/// that kept the route would spend every restart on it: the split would fail
/// with `RetriesExhausted` and leave its right half named by no parent.)
#[test]
fn a_separator_routed_below_a_nodes_lower_fence_drops_the_route() {
    let control = tree(TreeOptions::sherman());
    let control_rts = split_target_leaf(&control, &target(&control));

    let cluster = tree(TreeOptions::sherman());
    let target = target(&cluster);
    doctor(&cluster, &target, target.leaf_low + 1);
    let invalidations = cluster.cache(0).stats().invalidations();
    let rts = split_target_leaf(&cluster, &target);
    assert!(cluster.cache(0).stats().invalidations() > invalidations);
    // One wasted attempt: the lock and read of `c`, the release, and the
    // level-2 node the retry reads now that its image is gone.
    assert!(
        rts <= control_rts + 3,
        "{rts} round trips against {control_rts} without the stale image"
    );
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 0);
}

/// Delete the target leaf's keys, in order, until it merges or rebalances.
/// Returns the round trips of the delete that did.
fn merge_target_leaf(cluster: &Arc<Cluster>, target: &Target) -> u64 {
    let merged = || {
        let space = cluster.space_stats();
        space.leaf_merges + space.rebalances
    };
    let mut client = cluster.client(0);
    for key in (target.leaf_low..target.c_low).step_by(STRIDE as usize) {
        let (found, stats) = client.delete(key).unwrap();
        assert!(found);
        if merged() > 0 {
            return stats.round_trips;
        }
    }
    panic!("the underfull leaf never merged");
}

/// A leaf goes underfull, and a merge without command combination looks
/// its parent up by the leaf's lower fence.  The cached level-2 image routes
/// that key into the next level-1 node.  The merge drops the image, finds
/// the parent on its second attempt and commits.  (A walk that kept the
/// route would spend every restart on it and give the merge up.)
#[test]
fn a_merge_routed_below_a_nodes_lower_fence_drops_the_route() {
    let options = TreeOptions {
        combine_commands: false,
        ..TreeOptions::sherman()
    };
    let control = tree(options);
    let control_rts = merge_target_leaf(&control, &target(&control));

    let cluster = tree(options);
    let target = target(&cluster);
    doctor(&cluster, &target, target.leaf_low);
    let rts = merge_target_leaf(&cluster, &target);
    // One wasted attempt: the read of `c`, and the level-2 node the retry
    // reads now that its image is gone.
    assert!(
        rts <= control_rts + 2,
        "{rts} round trips against {control_rts} without the stale image"
    );
    assert_eq!(
        cluster.shape_audit().unwrap().underfull_rightmost_fixable,
        0
    );
}
