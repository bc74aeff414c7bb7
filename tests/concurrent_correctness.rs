//! Cross-crate integration tests: correctness of the index under concurrent
//! clients, parameterized over both fabric backends.
//!
//! Every scenario is a generic body over [`FabricBackend`] with one `#[test]`
//! per backend: the `_sim` variants run on the deterministic virtual-time
//! simulator, the `_threaded` variants on real OS threads and a real clock —
//! same assertions, genuinely different interleavings.  The grace-period
//! reclamation variant stays simulator-only: its safety argument leans on the
//! conservative virtual clock bounding how far a scanner can trail.

use sherman_repro::prelude::*;
use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

fn cluster_on<B: FabricBackend>(options: TreeOptions) -> Arc<Cluster<B>> {
    let cluster = Cluster::<B>::new_on(ClusterConfig::paper_scaled(2, 2), options);
    cluster
        .bulkload((0..10_000u64).map(|k| (k, k)))
        .expect("bulkload");
    cluster
}

/// Concurrent writers over disjoint key ranges: every write must be readable
/// afterwards and no bulkloaded key outside the written ranges may change.
fn disjoint_writers_never_lose_updates_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let threads = 4;
    let per_thread = 400u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        handles.push(thread::spawn(move || {
            let mut client = cluster.client((t % 2) as u16);
            let base = 100_000 + t as u64 * 10_000;
            for i in 0..per_thread {
                client.insert(base + i, base + i + 7).expect("insert");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut client = cluster.client(0);
    for t in 0..threads {
        let base = 100_000 + t as u64 * 10_000;
        for i in (0..per_thread).step_by(23) {
            assert_eq!(
                client.lookup(base + i).unwrap().0,
                Some(base + i + 7),
                "lost update for key {}",
                base + i
            );
        }
    }
    // Bulkloaded data is untouched.
    for k in (0..10_000u64).step_by(997) {
        assert_eq!(client.lookup(k).unwrap().0, Some(k));
    }
}

#[test]
fn disjoint_writers_never_lose_updates_sim() {
    disjoint_writers_never_lose_updates_on::<Fabric>();
}

#[test]
fn disjoint_writers_never_lose_updates_threaded() {
    disjoint_writers_never_lose_updates_on::<ThreadedFabric>();
}

/// Contending writers on the same hot keys: the final value of each key must
/// be one of the values some thread wrote (no torn or invented values), and
/// every key must still be present.
fn contended_writers_preserve_atomicity_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let threads = 4u64;
    let hot_keys: Vec<u64> = (0..32u64).collect();
    let rounds = 60u64;
    let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        let hot_keys = hot_keys.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut client = cluster.client((t % 2) as u16);
            barrier.wait();
            for r in 0..rounds {
                for &k in &hot_keys {
                    // Values encode the writer and round so that any torn mix
                    // of two writes would be detectable as an impossible value.
                    let value = 1_000_000 + t * 100_000 + r * 100 + k;
                    client.insert(k, value).expect("insert");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut client = cluster.client(0);
    for &k in &hot_keys {
        let v = client.lookup(k).unwrap().0.expect("hot key must exist");
        let without_key = v - k;
        assert_eq!(without_key % 100, 0, "torn value {v} for key {k}");
        let t = (v - 1_000_000 - (v - 1_000_000) % 100_000) / 100_000;
        assert!(t < threads, "impossible writer id in value {v}");
    }
}

#[test]
fn contended_writers_preserve_atomicity_sim() {
    contended_writers_preserve_atomicity_on::<Fabric>();
}

#[test]
fn contended_writers_preserve_atomicity_threaded() {
    contended_writers_preserve_atomicity_on::<ThreadedFabric>();
}

/// Readers running concurrently with writers never observe torn values:
/// every value is either the bulkloaded one or one written by the writer.
fn lock_free_readers_see_consistent_values_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let stop_key = 5_000u64;
    let writer_cluster = Arc::clone(&cluster);
    let writer = thread::spawn(move || {
        let mut client = writer_cluster.client(0);
        for round in 1..=40u64 {
            for k in 0..stop_key / 50 {
                let key = k * 50;
                client.insert(key, key + round * 1_000_000).expect("insert");
            }
        }
    });
    let reader_cluster = Arc::clone(&cluster);
    let reader = thread::spawn(move || {
        let mut client = reader_cluster.client(1);
        let mut observed = 0u64;
        for _ in 0..30 {
            for k in 0..stop_key / 50 {
                let key = k * 50;
                if let Some(v) = client.lookup(key).expect("lookup").0 {
                    observed += 1;
                    // Valid values: the bulkloaded `key` or `key + round*1e6`.
                    let ok = v == key || (v > key && (v - key) % 1_000_000 == 0);
                    assert!(ok, "torn value {v} for key {key}");
                }
            }
        }
        observed
    });
    writer.join().unwrap();
    assert!(reader.join().unwrap() > 0);
}

#[test]
fn lock_free_readers_see_consistent_values_sim() {
    lock_free_readers_see_consistent_values_on::<Fabric>();
}

#[test]
fn lock_free_readers_see_consistent_values_threaded() {
    lock_free_readers_see_consistent_values_on::<ThreadedFabric>();
}

/// Deletes and inserts interleaved across threads: a key deleted by its owner
/// thread stays deleted; a key re-inserted stays present.
fn delete_insert_interleaving_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let cluster = Arc::clone(&cluster);
        handles.push(thread::spawn(move || {
            let mut client = cluster.client((t % 2) as u16);
            // Each thread owns keys with k % 3 == t.
            let mut deleted = HashSet::new();
            for k in (0..3_000u64).filter(|k| k % 3 == t) {
                if k % 2 == 0 {
                    client.delete(k).expect("delete");
                    deleted.insert(k);
                } else {
                    client.insert(k, k * 9).expect("insert");
                }
            }
            (t, deleted)
        }));
    }
    let results: Vec<(u64, HashSet<u64>)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut client = cluster.client(0);
    for (t, deleted) in results {
        for k in (0..3_000u64).filter(|k| k % 3 == t) {
            let value = client.lookup(k).unwrap().0;
            if deleted.contains(&k) {
                assert_eq!(value, None, "key {k} should stay deleted");
            } else {
                assert_eq!(value, Some(k * 9), "key {k} should hold the new value");
            }
        }
    }
}

#[test]
fn delete_insert_interleaving_sim() {
    delete_insert_interleaving_on::<Fabric>();
}

#[test]
fn delete_insert_interleaving_threaded() {
    delete_insert_interleaving_on::<ThreadedFabric>();
}

/// Sliding-window churn across several writer threads while a reader thread
/// continuously range-scans across the merge boundary: scans must stay
/// sorted and free of torn values even as leaves merge, separators disappear
/// and node addresses are retired underneath the scan.
#[test]
fn churn_merges_under_concurrent_range_scans_sim() {
    churn_under_scans::<Fabric>();
}

#[test]
fn churn_merges_under_concurrent_range_scans_threaded() {
    churn_under_scans::<ThreadedFabric>();
}

fn churn_under_scans<B: FabricBackend>() {
    let config = ClusterConfig::paper_scaled(2, 2);
    let cluster = Cluster::<B>::new_on(config, TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).expect("bulkload");

    let writers = 3u64;
    let window = 300u64; // per writer
    let waves = 8u64;
    let value_of = |k: u64| k * 3 + 1;
    let mut handles = Vec::new();
    for t in 0..writers {
        let cluster = Arc::clone(&cluster);
        handles.push(thread::spawn(move || {
            // Writer `t` owns keys ≡ t (mod writers): private windows, shared
            // leaves (and therefore shared merge boundaries).
            let mut client = cluster.client((t % 2) as u16);
            let key_at = |i: u64| i * writers + t;
            let mut tail = 0u64;
            for i in 0..window * waves {
                client.insert(key_at(i), value_of(key_at(i))).expect("insert");
                if i >= window {
                    let (existed, _) = client.delete(key_at(tail)).expect("delete");
                    assert!(existed, "windowed key must exist");
                    tail += 1;
                }
            }
            tail
        }));
    }
    let scanner = {
        let cluster = Arc::clone(&cluster);
        thread::spawn(move || {
            let mut client = cluster.client(1);
            let mut observed = 0usize;
            for round in 0..40u64 {
                let start = round * 37;
                let (scan, _) = client.range(start, 100).expect("range");
                assert!(
                    scan.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan not strictly sorted"
                );
                for &(k, v) in &scan {
                    assert!(k >= start);
                    assert_eq!(v, value_of(k), "torn value {v} for key {k}");
                }
                observed += scan.len();
            }
            observed
        })
    };
    let tails: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    scanner.join().unwrap();

    // The churn must have merged and reclaimed nodes...
    assert!(
        cluster.space_stats().leaf_merges > 0,
        "churn with {waves} waves must merge leaves"
    );
    assert!(cluster.reclaim_stats().retired > 0);
    // ...and the final state is exactly the three live windows.
    let mut client = cluster.client(0);
    for (t, &tail) in tails.iter().enumerate() {
        let t = t as u64;
        let key_at = |i: u64| i * writers + t;
        for i in (0..tail).step_by(29) {
            assert_eq!(client.lookup(key_at(i)).unwrap().0, None, "stale key survived");
        }
        for i in (tail..window * waves).step_by(17) {
            assert_eq!(
                client.lookup(key_at(i)).unwrap().0,
                Some(value_of(key_at(i))),
                "live key lost"
            );
        }
    }
}

/// Range scans running against concurrent inserts return sorted, de-duplicated
/// results whose values satisfy the writers' invariant.
fn range_scans_under_concurrent_inserts_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let writer_cluster = Arc::clone(&cluster);
    let writer = thread::spawn(move || {
        let mut client = writer_cluster.client(0);
        for k in 10_000..12_000u64 {
            client.insert(k, k).expect("insert");
        }
    });
    let scanner_cluster = Arc::clone(&cluster);
    let scanner = thread::spawn(move || {
        let mut client = scanner_cluster.client(1);
        for start in (0..10_000u64).step_by(500) {
            let (scan, _) = client.range(start, 200).expect("range");
            assert!(
                scan.windows(2).all(|w| w[0].0 < w[1].0),
                "range result not strictly sorted"
            );
            for &(k, v) in &scan {
                assert!(k >= start);
                assert_eq!(v, k, "unexpected value for key {k}");
            }
        }
    });
    writer.join().unwrap();
    scanner.join().unwrap();
}

#[test]
fn range_scans_under_concurrent_inserts_sim() {
    range_scans_under_concurrent_inserts_on::<Fabric>();
}

#[test]
fn range_scans_under_concurrent_inserts_threaded() {
    range_scans_under_concurrent_inserts_on::<ThreadedFabric>();
}
