//! Failure-injection style tests: stale caches, exhausted memory, split storms
//! and torn images must be handled gracefully, never silently corrupted.

mod support;

use sherman_repro::prelude::*;
use sherman_repro::sherman_cache::{CachedInternal, ChildRef};
use sherman_repro::sherman_sim::GlobalAddress;

/// Poisoning the index cache with bogus leaf pointers must not break
/// operations: fence-key validation detects the mismatch, invalidates the
/// entry and falls back to traversal.
#[test]
fn stale_cache_entries_are_detected_and_invalidated() {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(2, 2), TreeOptions::sherman());
    cluster
        .bulkload((0..20_000u64).map(|k| (k, k + 1)))
        .unwrap();

    // Corrupt the compute server 0 cache: route a key range to a wrong leaf
    // (another existing leaf, so the fetch succeeds but fences disagree).
    let cache = cluster.cache(0);
    let victim = cache.lookup_covering(10_000).expect("warm cache");
    let wrong = cache.lookup_covering(0).expect("warm cache");
    let wrong_leaf = wrong.child_for(0);
    let poisoned = CachedInternal::new(
        victim.addr,
        victim.level,
        victim.version,
        victim.fence_low,
        victim.fence_high,
        wrong_leaf,
        victim.children().map(|c| ChildRef {
            child: wrong_leaf,
            ..c
        }),
    );
    assert_eq!(poisoned.len(), victim.len());
    cache.insert_level1(poisoned);

    let invalidations_before = cache.stats().invalidations();
    let mut client = cluster.client(0);
    // Operations through the poisoned range still return correct results.
    assert_eq!(client.lookup(10_000).unwrap().0, Some(10_001));
    client.insert(10_001, 42).unwrap();
    assert_eq!(client.lookup(10_001).unwrap().0, Some(42));
    assert!(
        cache.stats().invalidations() > invalidations_before,
        "the poisoned entry must be invalidated"
    );
}

/// A cluster whose memory servers are too small for the requested load fails
/// with an allocation error instead of corrupting memory or panicking deep in
/// the fabric.
#[test]
fn allocator_exhaustion_is_reported_cleanly() {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 96 << 10; // a handful of chunks only
    config.tree.chunk_bytes = 16 << 10;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster.bulkload((0..64u64).map(|k| (k, k))).unwrap();
    let mut client = cluster.client(0);
    let mut saw_error = false;
    for k in 0..200_000u64 {
        match client.insert(k * 7 + 1_000_000, k) {
            Ok(_) => {}
            Err(TreeError::Allocation(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(saw_error, "exhaustion must surface as TreeError::Allocation");
}

/// A split storm: tiny nodes and adversarial insertion order force very deep
/// trees; the index stays correct and the root grows multiple times.
#[test]
fn split_storm_grows_a_deep_tree() {
    let mut config = ClusterConfig::small();
    config.tree.node_size = 192;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).unwrap();
    let mut client = cluster.client(0);
    let n = 4_000u64;
    for i in 0..n {
        // Alternate low/high halves to hit both edges of every leaf.
        let key = if i % 2 == 0 { i / 2 } else { n - i / 2 };
        client.insert(key, key * 3).unwrap();
    }
    for k in (0..n / 2).step_by(71) {
        assert_eq!(client.lookup(k).unwrap().0, Some(k * 3));
    }
    // 4000 keys in ~7-entry leaves needs at least 4 levels.
    let (scan, _) = client.range(0, 100).unwrap();
    assert_eq!(scan.len(), 100);
}

/// Concurrent split storms from several clients on adjacent key ranges.
#[test]
fn concurrent_split_storm_is_correct() {
    let mut config = ClusterConfig::paper_scaled(2, 2);
    config.tree.node_size = 256;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster.bulkload((0..100u64).map(|k| (k * 1_000, k))).unwrap();
    let threads = 4u64;
    let per_thread = 600u64;
    let mut writers: Vec<_> = (0..threads)
        .map(|t| {
            let keys = (0..per_thread).map(move |i| t * 1_000_000 + i);
            support::each(keys.map(|key| PipelineOp::Insert {
                key,
                value: key ^ 0xABCD,
            }))
        })
        .collect();
    support::run_sessions(&cluster, &mut writers, |t| (t % 2) as u16);
    let mut client = cluster.client(1);
    for t in 0..threads {
        for i in (0..per_thread).step_by(37) {
            let key = t * 1_000_000 + i;
            assert_eq!(client.lookup(key).unwrap().0, Some(key ^ 0xABCD));
        }
    }
}

/// A reader stalled mid-traversal holds an epoch pin.  Reclamation must
/// degrade gracefully: addresses retired *before* the stall keep recycling,
/// addresses retired *during* it accumulate (bounded by the churn since the
/// pin, observable through the `epoch_lag` / `pinned_buckets` gauges), the
/// tree keeps operating by carving fresh nodes, and the backlog drains the
/// moment the reader retires.
#[test]
fn stalled_reader_pins_epoch_and_bounds_free_list_growth() {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let n = 2_400u64;
    cluster.bulkload((0..n).map(|k| (k, k))).unwrap();
    let mut client = cluster.client(0);

    // Phase 1 — healthy churn: deletes retire nodes, nothing is pinned.
    for k in 0..n / 3 {
        client.delete(k).unwrap();
    }
    let pre = cluster.reclaim_stats();
    assert!(pre.retired > 0, "phase 1 must retire nodes");
    assert_eq!(cluster.epoch_stats().epoch_lag, 0, "no pin, no lag");

    // The stall: a reader pins its epoch mid-traversal and stops making
    // progress (modelled by holding the pin across the writer's churn).
    let stalled_reader = cluster.epoch_registry().register();
    let stall_pin = stalled_reader.pin();

    // Phase 2 — churn under the stall.
    for k in n / 3..2 * n / 3 {
        client.delete(k).unwrap();
    }
    let during = cluster.reclaim_stats();
    let gauges = cluster.epoch_stats();
    let stalled_retires = during.retired - pre.retired;
    assert!(stalled_retires > 0, "phase 2 must retire nodes too");
    // The gauges report the stall: the oldest pin trails every retirement
    // made since, and exactly those addresses are blocked behind it.
    assert_eq!(gauges.pinned_readers, 1);
    assert_eq!(gauges.epoch_lag, stalled_retires, "lag counts the retirements since the pin");
    assert_eq!(
        gauges.pinned_buckets, stalled_retires,
        "exactly the post-pin retirements are blocked"
    );
    // Growth is bounded: everything the stall blocks is still quarantined —
    // nothing retired under the pin has been recycled.
    assert!(during.quarantined >= stalled_retires);

    // The tree still operates under the stall (allocations fall back to
    // carving and to pre-stall buckets).
    let carved_before = cluster.pool().nodes_carved();
    for k in 0..200u64 {
        client.insert(10_000_000 + k, k).unwrap();
    }
    assert_eq!(client.lookup(10_000_100).unwrap().0, Some(100));
    assert!(cluster.pool().nodes_carved() >= carved_before);

    // The reader retires: reclamation resumes and the backlog drains.
    drop(stall_pin);
    assert_eq!(cluster.epoch_stats().epoch_lag, 0, "lag clears with the pin");
    let reused_before = cluster.reclaim_stats().reused;
    for k in 0..1_500u64 {
        client.insert(20_000_000 + k, k).unwrap();
    }
    let after = cluster.reclaim_stats();
    assert!(
        after.reused > reused_before,
        "recycling must resume once the stalled reader retires"
    );
    assert_eq!(cluster.epoch_stats().pinned_buckets, 0);
}

/// Directly corrupting a leaf in disaggregated memory (simulating a torn
/// writer) makes lock-free readers retry rather than return garbage; once the
/// image is repaired the reader succeeds.
#[test]
fn torn_node_images_are_never_returned() {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload((0..500u64).map(|k| (k, k + 9))).unwrap();
    let mut client = cluster.client(0);

    // Locate the leaf holding key 250 through a normal lookup, then find its
    // address via the cache.
    assert_eq!(client.lookup(250).unwrap().0, Some(259));
    let cached = cluster.cache(0).lookup_covering(250).expect("cached level-1");
    let leaf_addr = cached.child_for(250);

    // Tear the node: bump the front version byte only.
    let mut front = [0u8; 1];
    cluster.fabric().god_read(leaf_addr, &mut front).unwrap();
    let torn = [front[0].wrapping_add(1)];
    cluster.fabric().god_write(leaf_addr, &torn).unwrap();

    // The reader never trusts the torn image: it keeps retrying and finally
    // reports exhaustion rather than returning a value.
    let result = client.lookup(250);
    assert!(
        matches!(result, Err(TreeError::RetriesExhausted { .. })),
        "torn image must not produce a value, got {result:?}"
    );

    // Repair the image; reads succeed again.
    cluster.fabric().god_write(leaf_addr, &front).unwrap();
    assert_eq!(client.lookup(250).unwrap().0, Some(259));
}

/// The slot of `key` in the leaf at `leaf_addr` and the address of its front
/// entry version.
fn slot_of(cluster: &Cluster, leaf_addr: GlobalAddress, key: u64) -> (usize, GlobalAddress) {
    let layout = *cluster.layout();
    let mut image = vec![0u8; layout.node_size()];
    cluster.fabric().god_read(leaf_addr, &mut image).unwrap();
    let slot = layout
        .decode_leaf(&image)
        .slot_of(key)
        .expect("key in leaf");
    (slot, leaf_addr.add(layout.leaf_entry_offset(slot) as u64))
}

/// A range scan never passes over a live key whose entry it reads torn (an
/// entry-granular write in flight; the simulator applies writes whole, so the
/// entry is torn by hand here): it reads the leaf again, and with the entry
/// torn for good it runs out of retries rather than return the range without
/// the key.  Through a warm cache (the batched read) and a cold one (the
/// chain walk, or the interpreter's walk when the scan is offloaded).
#[test]
fn a_range_scan_never_passes_over_a_torn_live_entry() {
    for offload in [OffloadPolicy::Never, OffloadPolicy::Always] {
        let mut config = ClusterConfig::small();
        config.tree.max_read_retries = 4;
        config.tree.max_restarts = 4;
        let options = TreeOptions {
            offload,
            ..TreeOptions::sherman()
        };
        let cluster = Cluster::new(config, options);
        cluster.bulkload((0..500u64).map(|k| (k, k + 9))).unwrap();
        let mut client = cluster.client(0);
        let cached = cluster
            .cache(0)
            .lookup_covering(250)
            .expect("cached level-1");
        let (_, front_at) = slot_of(&cluster, cached.child_for(250), 250);

        // Tear key 250's entry: bump its front entry version only.
        let mut front = [0u8; 1];
        cluster.fabric().god_read(front_at, &mut front).unwrap();
        let torn = [front[0].wrapping_add(1)];
        cluster.fabric().god_write(front_at, &torn).unwrap();
        for cold in [false, true] {
            if cold {
                cluster.cache(0).clear();
            }
            let result = client.range(245, 10);
            assert!(
                matches!(result, Err(TreeError::RetriesExhausted { .. })),
                "{offload:?}, cold cache {cold}: a torn live entry must not be \
                 skipped, got {result:?}"
            );
        }

        // Repair the entry; the scan holds 250 again.
        cluster.fabric().god_write(front_at, &front).unwrap();
        let want: Vec<(u64, u64)> = (245..255).map(|k| (k, k + 9)).collect();
        assert_eq!(client.range(245, 10).unwrap().0, want, "{offload:?}");
    }
}

/// A slot whose stored key tag is not its key's is a key lookups and writes
/// pass over: the shape audit counts it, a lookup of the key misses, and an
/// insert of the key installs it in the leaf's first vacant slot — behind its
/// own tag, where lookups find it — and leaves the mistagged slot as it was.
#[test]
fn the_audit_counts_a_mistagged_slot() {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload((0..500u64).map(|k| (k, k + 9))).unwrap();
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 0);
    let mut client = cluster.client(0);
    assert_eq!(client.lookup(250).unwrap().0, Some(259));

    let cached = cluster
        .cache(0)
        .lookup_covering(250)
        .expect("cached level-1");
    let leaf_addr = cached.child_for(250);
    let (slot, front_at) = slot_of(&cluster, leaf_addr, 250);
    let tag_at = front_at.add(1);
    let mut tag = [0u8; 1];
    cluster.fabric().god_read(tag_at, &mut tag).unwrap();
    // Another nonzero byte: the slot stays present.
    let wrong = [tag[0] % 255 + 1];
    cluster.fabric().god_write(tag_at, &wrong).unwrap();

    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 1);
    assert_eq!(client.lookup(250).unwrap().0, None);
    assert_eq!(client.lookup(251).unwrap().0, Some(260));

    cluster.fabric().god_write(tag_at, &tag).unwrap();
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 0);
    assert_eq!(client.lookup(250).unwrap().0, Some(259));

    // Mistagged again, the key is written: into the vacant slot.
    cluster.fabric().god_write(tag_at, &wrong).unwrap();
    let layout = *cluster.layout();
    let leaf = |cluster: &Cluster| {
        let mut image = vec![0u8; layout.node_size()];
        cluster.fabric().god_read(leaf_addr, &mut image).unwrap();
        layout.decode_leaf(&image)
    };
    let before = leaf(&cluster);
    let vacant = before.vacant_slot().expect("the leaf has a vacant slot");
    client.insert(250, 777).unwrap();
    let after = leaf(&cluster);
    assert_eq!(after.entries[slot], before.entries[slot], "the mistagged slot is untouched");
    assert_eq!((after.entries[vacant].key, after.entries[vacant].value), (250, 777));
    assert_eq!(after.slot_of(250), Some(vacant));
    assert_eq!(after.live_count(), before.live_count() + 1);
    assert_eq!(client.lookup(250).unwrap().0, Some(777));
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 1);
}
