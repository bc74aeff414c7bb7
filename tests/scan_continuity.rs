//! A range scan never passes over a live key, whatever its cached level-1
//! image has missed.
//!
//! The scan's first phase reads the cached parent's child list as one
//! parallel batch.  That list is only a hint about *adjacency*: a child that
//! split since has a new right neighbour the image does not know, and a child
//! that was merged away may have had its address recycled for a leaf
//! somewhere else in the key space — live, a leaf, and full of keys that do
//! not belong in the result.  Both pass every per-leaf check.  The scan
//! therefore keeps a frontier and consumes a leaf only if it covers it
//! (`RangeSM` in `crates/core/src/ops.rs`); these are the deterministic
//! reproductions: one committer client and one scanning client on one
//! thread, the scanner's compute server holding the stale image.

use sherman_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys `0, 10, 20, …` so that a committer can grow any region in place.
fn sparse_cluster(config: ClusterConfig) -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(config, TreeOptions::sherman());
    let model: BTreeMap<u64, u64> = (0..2_000u64).map(|k| (k * 10, k)).collect();
    cluster
        .bulkload(model.iter().map(|(&k, &v)| (k, v)))
        .unwrap();
    (cluster, model)
}

fn assert_scans_match(
    scanner: &mut TreeClient,
    model: &BTreeMap<u64, u64>,
    starts: impl IntoIterator<Item = u64>,
    count: usize,
) {
    for start in starts {
        let (scan, _) = scanner.range(start, count).unwrap();
        let expect: Vec<(u64, u64)> = model
            .range(start..)
            .take(count)
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(scan, expect, "range({start}, {count})");
    }
}

/// Splits publish no coherence message, so compute server 1 keeps a level-1
/// image whose child list lacks every leaf compute server 0 has split off.
/// A batch read of that list is not adjacent any more: the scan must notice
/// at the first leaf that ends early and continue along the sibling chain.
#[test]
fn a_scan_under_an_image_that_predates_splits_returns_every_key() {
    let (cluster, mut model) = sparse_cluster(ClusterConfig::small());
    {
        let mut committer = cluster.client(0);
        for key in 5_000..5_400u64 {
            committer.insert(key, key * 3).unwrap();
            model.insert(key, key * 3);
        }
    }
    let cache = cluster.cache(1);
    let image = cache
        .lookup_covering(5_000)
        .expect("bulkload warms level 1");
    let mut scanner = cluster.client(1);
    // From left of the grown region, from inside leaves the image does not
    // know, and across the whole of it.
    assert_scans_match(
        &mut scanner,
        &model,
        [4_900, 4_990, 5_055, 5_203, 5_399],
        60,
    );
    assert_scans_match(&mut scanner, &model, [image.fence_low, 4_000], 700);
    assert!(
        cache.stats().scan_fallbacks() > 0,
        "the stale child list must have been caught, not happened to work"
    );
    // The image that failed was dropped, and what replaced it is current:
    // the same scans now run their batch to the end.
    let fallbacks = cache.stats().scan_fallbacks();
    assert_scans_match(&mut scanner, &model, [4_900, 5_055, 5_203], 60);
    assert_eq!(cache.stats().scan_fallbacks(), fallbacks);
}

/// A level-1 image that outlived merges: some of its children were merged
/// away and their addresses recycled for leaves of a far-away key range.  The
/// coherence protocol scrubs such an image when the `Invalidate` arrives, but
/// a reader that fetched the parent before the merge may re-insert its copy
/// afterwards (the tombstone gate knows the freed leaf's address, not its
/// parent's) — planted here by hand.  The batch then holds a live leaf full
/// of foreign keys; the scan must not take them, nor stop short of the keys
/// that follow.
#[test]
fn a_scan_under_an_image_that_outlived_merges_and_recycling_returns_every_key() {
    let (cluster, mut model) = sparse_cluster(ClusterConfig::small());
    let layout = *cluster.layout();
    let cache = cluster.cache(1);
    let stale = cache
        .lookup_covering(5_000)
        .expect("bulkload warms level 1");
    let (low, high) = (stale.fence_low, stale.fence_high);

    let foreign = 1_000_000u64;
    {
        let mut committer = cluster.client(0);
        // Thin out the image's range until leaves merge ...
        for key in (low..high).step_by(10).filter(|k| k % 80 != 0) {
            assert!(committer.delete(key).unwrap().0);
            model.remove(&key);
        }
        assert!(cluster.space_stats().leaf_merges > 0);
        // ... and grow the tree far away until their addresses are reused.
        for key in foreign..foreign + 600 {
            committer.insert(key, key).unwrap();
            model.insert(key, key);
        }
        assert!(cluster.reclaim_stats().reused > 0);
    }
    let recycled = stale
        .children_in_range(low, u64::MAX)
        .into_iter()
        .filter(|&child| {
            let mut image = vec![0u8; layout.node_size()];
            cluster.fabric().god_read(child, &mut image).unwrap();
            let header = layout.decode_header(&image);
            !header.free && header.is_leaf && header.fence_low >= foreign
        })
        .count();
    assert!(
        recycled > 0,
        "no child of the stale image was recycled far away"
    );

    let mut scanner = cluster.client(1);
    scanner.quiesce_coherence();
    // The slow reader's re-insert, after the scrub.
    cache.invalidate(low);
    cache.insert_level1(stale.clone());
    assert_eq!(
        cache.lookup_covering(low + 5).map(|n| n.version),
        Some(stale.version)
    );

    let fallbacks = cache.stats().scan_fallbacks();
    let (scan, _) = scanner.range(low, 120).unwrap();
    let expect: Vec<(u64, u64)> = model
        .range(low..)
        .take(120)
        .map(|(&k, &v)| (k, v))
        .collect();
    assert!(
        scan.iter().all(|&(k, _)| k < foreign),
        "a recycled leaf's keys leaked into the scan"
    );
    assert_eq!(scan, expect);
    assert!(cache.stats().scan_fallbacks() > fallbacks);

    // Every other way into the range agrees with the model too.
    assert_scans_match(&mut scanner, &model, (low..high).step_by(170), 40);
    assert_scans_match(&mut scanner, &model, [0], model.len() + 10);
}
