//! Fabric-delivered cache coherence: structural commits post `Invalidate` /
//! `RefreshTop` messages to every other compute server instead of scrubbing
//! their caches synchronously, and each server applies them when it drains
//! its inbox at an operation boundary.  These tests pin down the protocol's
//! observable guarantees:
//!
//! * reads stay model-correct while coherence messages are still in flight
//!   (delayed delivery), on both drive paths and at pipeline depths 1/4/8,
//! * the stale window is *measurable*: applied messages report a positive
//!   post→apply lag under the fabric's latency model,
//! * after quiesce + drain the window is closed: no stale hits are served,
//! * the tombstone admission gate closes the retire/re-cache race — a stale
//!   pre-retirement image cannot re-enter a cache behind the scrub.

use sherman_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys that stay live for a whole test (never churned).
const STABLE: u64 = 600;
/// Churn keys sit above the stable range and are inserted + deleted in
/// waves, which is what drives merges and their coherence traffic.
const CHURN_BASE: u64 = 1_000_000;

fn stable_cluster() -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = (0..STABLE).map(|k| (k * 3, k * 7 + 1)).collect();
    cluster.bulkload(pairs.iter().copied()).unwrap();
    (cluster, pairs.into_iter().collect())
}

/// Run one insert-then-delete churn wave on compute server 0, forcing leaf
/// merges (and the coherence messages they publish toward server 1).  The
/// client is dropped before returning so a later client on the same OS
/// thread can advance the virtual clock alone.
fn churn_wave(cluster: &Arc<Cluster>, wave: u64, keys: u64) {
    let mut committer = cluster.client(0);
    let base = CHURN_BASE + wave * keys * 2;
    for k in 0..keys {
        committer.insert(base + k, k).unwrap();
    }
    for k in 0..keys {
        let (existed, _) = committer.delete(base + k).unwrap();
        assert!(existed, "churn key {k} of wave {wave} must exist");
    }
}

/// (a) Model equivalence under delayed delivery: a committer retires nodes
/// and the messages sit undrained in server 1's inbox; server 1's reads —
/// blocking and pipelined at depths 1, 4 and 8 — still match the model
/// exactly, applying the backlog at operation boundaries mid-run.
#[test]
fn delayed_delivery_reads_match_model_on_both_drive_paths() {
    let (cluster, model) = stable_cluster();
    let keys: Vec<u64> = model.keys().copied().collect();

    // Blocking drive path, fresh backlog.
    churn_wave(&cluster, 0, 400);
    assert!(
        cluster.space_stats().leaf_merges > 0,
        "churn must trigger merges for the test to mean anything"
    );
    assert!(
        cluster.coherence_stats().posted() > 0,
        "merges must publish coherence messages"
    );
    {
        let mut subscriber = cluster.client(1);
        for (i, &k) in keys.iter().enumerate() {
            let (v, _) = subscriber.lookup(k).unwrap();
            assert_eq!(v, model.get(&k).copied(), "blocking lookup({k})");
            if i % 50 == 0 {
                let (scan, _) = subscriber.range(k, 20).unwrap();
                let expect: Vec<(u64, u64)> =
                    model.range(k..).take(20).map(|(&a, &b)| (a, b)).collect();
                assert_eq!(scan, expect, "blocking range({k})");
            }
        }
    }

    // Pipelined drive path at depths 1, 4, 8 — each depth faces its own
    // fresh, undrained backlog.
    for (i, depth) in [1usize, 4, 8].into_iter().enumerate() {
        churn_wave(&cluster, 1 + i as u64, 400);
        let ops: Vec<PipelineOp> = keys
            .iter()
            .map(|&key| PipelineOp::Lookup { key })
            .collect();
        let mut subscriber = cluster.client(1);
        let report = subscriber.run_pipelined(ops, depth).unwrap();
        assert_eq!(report.results.len(), keys.len(), "depth {depth}");
        for r in &report.results {
            let (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) = (&r.op, &r.output) else {
                panic!("unexpected op/output pair at depth {depth}");
            };
            assert_eq!(
                *v,
                model.get(key).copied(),
                "depth {depth} pipelined lookup({key})"
            );
        }
    }
}

/// (b) The stale window is measurable: messages posted by server 0's commits
/// and drained by server 1 report a positive post→apply lag (the fabric's
/// propagation delay plus the inbox dwell), and quiescing drains everything.
#[test]
fn coherence_gauges_report_positive_apply_lag() {
    let (cluster, _model) = stable_cluster();
    churn_wave(&cluster, 0, 400);

    let before = cluster.coherence_stats();
    assert!(before.invalidations_posted > 0, "merges retire nodes");
    assert!(before.refreshes_posted > 0, "merges heal surviving images");
    assert_eq!(before.applied, 0, "nothing drained yet: {before:?}");
    assert!(
        before.local_applies > 0,
        "the committer heals its own cache synchronously"
    );

    let mut subscriber = cluster.client(1);
    subscriber.quiesce_coherence();
    let after = cluster.coherence_stats();
    assert_eq!(
        after.applied,
        after.posted(),
        "quiesce + drain must leave nothing pending: {after:?}"
    );
    assert_eq!(after.pending(), 0);
    assert!(
        after.apply_lag_ns_total > 0,
        "fabric delivery takes virtual time; lag cannot be zero: {after:?}"
    );
    assert!(after.apply_lag_ns_max > 0);
    assert!(after.mean_apply_lag_ns() > 0.0);
}

/// (c) Quiesce closes the window: after a subscriber waits out and drains
/// every in-flight message, a full read pass over the tree serves zero
/// stale hits — no cache entry routes to a retired node anymore.
#[test]
fn no_stale_hits_after_quiesce_and_drain() {
    let (cluster, model) = stable_cluster();
    churn_wave(&cluster, 0, 400);

    let mut subscriber = cluster.client(1);
    subscriber.quiesce_coherence();
    let stale_before = cluster.coherence_stats().stale_hits;

    for (&k, &v) in &model {
        assert_eq!(subscriber.lookup(k).unwrap().0, Some(v), "lookup({k})");
    }
    let (scan, _) = subscriber.range(0, STABLE as usize + 10).unwrap();
    assert_eq!(scan.len(), model.len());

    let stale_after = cluster.coherence_stats().stale_hits;
    assert_eq!(
        stale_before, stale_after,
        "a drained subscriber must not serve stale routes"
    );
}

/// Regression for the retire/re-cache race: once an `Invalidate` with a
/// tombstone version is applied, a pre-retirement image of the node (its
/// version at or below the tombstone) is rejected at admission — only a
/// genuinely newer image (the address recycled and rewritten) re-enters.
#[test]
fn tombstone_gate_rejects_stale_reinsert_at_tree_level() {
    use sherman_repro::sherman_cache::{CachedInternal, ChildRef};
    use sherman_repro::sherman_sim::GlobalAddress;

    // An empty tree keeps the warmed bulkload images out of the way: the
    // rightmost real level-1 node covers every key up to `u64::MAX`, which
    // would shadow the synthetic entry below.
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).unwrap();
    let cache = cluster.cache(1);

    // A level-1 image a slow traversal might still be holding.
    let addr = GlobalAddress::host(0, 1 << 20);
    let child = ChildRef {
        separator: 15_000,
        child: GlobalAddress::host(0, 1 << 22),
    };
    let leftmost = GlobalAddress::host(0, 1 << 21);
    let stale = CachedInternal::new(addr, 1, 3, 10_000, 20_000, leftmost, [child]);
    cache.insert_level1(stale.clone());
    assert!(cache.lookup_covering(15_000).is_some());

    // A structural commit retires the node: tombstone version 4 (the freed
    // image's bumped node-level version).
    cache.apply_invalidate(addr, 4);
    assert!(cache.lookup_covering(15_000).is_none(), "scrubbed");
    assert_eq!(cache.tombstoned(addr), Some(4));

    // The slow traversal now tries to re-insert its pre-retirement image:
    // the admission gate must reject it (this was the god-mode scrub's
    // silent corruption window).
    let rejections_before = cache.stats().stale_rejections();
    cache.insert_level1(stale.clone());
    assert!(
        cache.lookup_covering(15_000).is_none(),
        "stale image must not re-enter the cache behind the scrub"
    );
    assert!(cache.stats().stale_rejections() > rejections_before);

    // The address recycles: a strictly newer image is admitted and clears
    // the tombstone.
    let mut recycled = stale;
    recycled.version = 5;
    cache.insert_level1(recycled);
    assert!(cache.lookup_covering(15_000).is_some());
    assert_eq!(cache.tombstoned(addr), None);
}

/// Regression for the stale type-❷ shortcut livelock: a cached **level-1**
/// top entry lets the traversal bottom out on a leaf address without reading
/// a single node, so when that route is stale the leaf mismatch is the *only*
/// place the staleness is observable.  The mismatch path must invalidate the
/// routing entry (a `Route::Cached` step, `OpCx::step`) or every
/// restart re-hits the same stale shortcut and the operation exhausts its
/// retries — reads and writes both.
#[test]
fn stale_top_shortcut_heals_instead_of_livelocking() {
    use sherman_repro::sherman_cache::CachedInternal;

    let (cluster, model) = stable_cluster();
    let cache = cluster.cache(1);

    // A real leaf from the high end of the key space, to mis-route key 0 to.
    let high = cache
        .lookup_covering(1_700)
        .expect("bulkload warms the level-1 cache");
    let high_leaf = high.child_for(1_700);

    let plant_stale_route = || {
        // Scrub the genuine type-❶ route for key 0 so the traversal must
        // consult the type-❷ set, then replace that set with a single
        // fabricated level-1 entry claiming key 0 lives in `high_leaf`.
        while let Some(low) = cache.lookup_covering(0) {
            cache.invalidate(low.fence_low);
        }
        cache.set_top_levels(vec![Arc::new(CachedInternal::new(
            high.addr,
            1,
            high.version,
            0,
            100,
            high_leaf,
            [],
        ))]);
    };

    // Read path: the first attempt lands on a leaf whose fences exclude key
    // 0 and that has no useful sibling to chase; the retry must not find the
    // same poisoned shortcut again.
    plant_stale_route();
    let mut subscriber = cluster.client(1);
    let (v, _) = subscriber.lookup(0).unwrap();
    assert_eq!(v, model.get(&0).copied(), "lookup must heal and terminate");

    // Write path (where the livelock was originally observed): same planted
    // route, delete(0) must terminate and actually find the key.
    plant_stale_route();
    let (found, _) = subscriber.delete(0).unwrap();
    assert!(found, "delete must heal the stale route and reach key 0");
    assert_eq!(subscriber.lookup(0).unwrap().0, None);
}

/// End-to-end drain bookkeeping: interleaved churn and subscriber activity
/// applies every message eventually, and the subscriber's tree stays
/// model-correct throughout (several waves, drains happening incidentally
/// at operation boundaries rather than via explicit quiesce).
#[test]
fn incremental_drains_keep_subscriber_correct_across_waves() {
    let (cluster, model) = stable_cluster();
    let keys: Vec<u64> = model.keys().copied().collect();

    for wave in 0..4u64 {
        churn_wave(&cluster, wave, 150);
        let mut subscriber = cluster.client(1);
        for &k in keys.iter().step_by(7) {
            let (v, _) = subscriber.lookup(k).unwrap();
            assert_eq!(v, model.get(&k).copied(), "wave {wave} lookup({k})");
        }
    }

    // Settle the tail: one quiesce closes whatever the last wave left.
    let mut subscriber = cluster.client(1);
    subscriber.quiesce_coherence();
    let gauges = cluster.coherence_stats();
    assert_eq!(gauges.pending(), 0, "all waves drained: {gauges:?}");
    assert!(gauges.applied > 0);
}
