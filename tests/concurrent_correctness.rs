//! Cross-crate integration tests: correctness of the index under concurrent
//! clients, parameterized over both fabric backends.
//!
//! Every scenario is a generic body over [`FabricBackend`] with one `#[test]`
//! per backend: the `_sim` variants run every client as a future on the
//! simulator's one executor (a pure function of the body), the `_threaded`
//! variants on real OS threads and a real clock — same assertions,
//! genuinely different interleavings.

mod support;

use sherman_repro::prelude::*;
use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use support::{each, one_by_one, run_sessions};

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
    let mut writers: Vec<_> = (0..threads)
        .map(|t| {
            let base = 100_000 + t as u64 * 10_000;
            each((0..per_thread).map(|i| PipelineOp::Insert {
                key: base + i,
                value: base + i + 7,
            }))
        })
        .collect();
    run_sessions(&cluster, &mut writers, |t| (t % 2) as u16);
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
    let mut writers: Vec<_> = (0..threads)
        .map(|t| {
            let writes = (0..rounds).flat_map(|r| {
                // Values encode the writer and round so that any torn mix of
                // two writes would be detectable as an impossible value.
                let value = move |k| 1_000_000 + t * 100_000 + r * 100 + k;
                hot_keys.iter().map(move |&k| PipelineOp::Insert { key: k, value: value(k) })
            });
            each(writes)
        })
        .collect();
    run_sessions(&cluster, &mut writers, |t| (t % 2) as u16);
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
    let keys = move || (0..stop_key / 50).map(|k| k * 50);
    let writer = each((1..=40u64).flat_map(|round| {
        keys().map(move |key| PipelineOp::Insert {
            key,
            value: key + round * 1_000_000,
        })
    }));
    let mut observed = 0u64;
    let mut lookups = (0..30).flat_map(|_| keys());
    let reader = one_by_one(|result| {
        if let Some(PipelinedResult {
            op: PipelineOp::Lookup { key },
            output: OpOutput::Lookup(Some(v)),
            ..
        }) = result
        {
            observed += 1;
            // Valid values: the bulkloaded `key` or `key + round*1e6`.
            let ok = v == key || (v > key && (v - key) % 1_000_000 == 0);
            assert!(ok, "torn value {v} for key {key}");
        }
        lookups.next().map(|key| PipelineOp::Lookup { key })
    });
    run_sessions(&cluster, &mut [writer, reader], |c| c as u16);
    assert!(observed > 0);
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
    // Each client owns keys with k % 3 == t.
    let owned = |t: u64| (0..3_000u64).filter(move |k| k % 3 == t);
    let deleted: Vec<HashSet<u64>> =
        (0..3u64).map(|t| owned(t).filter(|k| k % 2 == 0).collect()).collect();
    let mut clients: Vec<_> = (0..3u64)
        .map(|t| {
            each(owned(t).map(|k| match k % 2 {
                0 => PipelineOp::Delete { key: k },
                _ => PipelineOp::Insert { key: k, value: k * 9 },
            }))
        })
        .collect();
    run_sessions(&cluster, &mut clients, |t| (t % 2) as u16);
    let mut client = cluster.client(0);
    for (t, deleted) in (0..3u64).zip(deleted) {
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
/// continuously range-scans across the merge boundary — the low end of the
/// windows, where deletes land: scans must stay sorted, free of torn values
/// and *complete* even as leaves merge, separators disappear and node
/// addresses are retired underneath the scan.  Complete: a key whose insert
/// had returned before the scan began and whose delete had not been issued
/// when it ended was live throughout, and if it lies in the stretch the scan
/// covered it is in the result.
#[test]
fn churn_merges_under_concurrent_range_scans_sim() {
    churn_under_scans::<Fabric>(0);
}

/// On real threads the scanner pauses between scans: the lock-free read
/// compares the version pair of one image, which cannot catch every mixed
/// image when the OS preempts reader and writer mid-node (the ROADMAP item on
/// lock-free reads sound by construction on `ThreadedFabric`), and
/// a scanner that never rests meets one in about one run in two hundred.
#[test]
fn churn_merges_under_concurrent_range_scans_threaded() {
    churn_under_scans::<ThreadedFabric>(2_000_000);
}

fn churn_under_scans<B: FabricBackend>(scan_pause_ns: u64) {
    let config = ClusterConfig::paper_scaled(2, 2);
    let cluster = Cluster::<B>::new_on(config, TreeOptions::sherman());
    cluster.bulkload(std::iter::empty()).expect("bulkload");

    const WRITERS: u64 = 3;
    let window = 300u64; // per writer
    let waves = 5u64;
    let value_of = |k: u64| k * 3 + 1;
    // Writer `t` owns keys ≡ t (mod WRITERS): private windows, shared leaves
    // (and therefore shared merge boundaries).
    let key_at = |t: u64, i: u64| i * WRITERS + t;
    // What each writer has done, for the scanner: inserts that returned, and
    // deletes issued (counted before the delete is).
    let progress: [(AtomicU64, AtomicU64); WRITERS as usize] = Default::default();
    let writers_done = AtomicUsize::new(0);
    let mut tails = [0u64; WRITERS as usize];
    // The scan in flight: where it starts and the inserts returned before it.
    let mut in_flight: Option<(u64, Vec<u64>)> = None;
    let mut clients: Vec<_> = (0..WRITERS)
        .zip(&mut tails)
        .map(|(t, tail)| {
            let (inserted, deleting) = &progress[t as usize];
            let writers_done = &writers_done;
            // Inserts returned so far.
            let mut i = 0u64;
            one_by_one(move |result| {
                match result.map(|r| r.output) {
                    Some(OpOutput::Insert) => {
                        i += 1;
                        inserted.store(i, Ordering::SeqCst);
                        if i > window {
                            deleting.store(*tail + 1, Ordering::SeqCst);
                            return Some(PipelineOp::Delete { key: key_at(t, *tail) });
                        }
                    }
                    Some(OpOutput::Delete(existed)) => {
                        assert!(existed, "windowed key must exist");
                        *tail += 1;
                    }
                    _ => {}
                }
                if i == window * waves {
                    writers_done.fetch_add(1, Ordering::SeqCst);
                    return None;
                }
                let key = key_at(t, i);
                Some(PipelineOp::Insert {
                    key,
                    value: value_of(key),
                })
            })
        })
        .collect();
    let load = |counter: fn(&(AtomicU64, AtomicU64)) -> &AtomicU64| -> Vec<u64> {
        progress.iter().map(|p| counter(p).load(Ordering::SeqCst)).collect()
    };
    let (mut scans, mut held) = (0u64, 0u64);
    clients.push(one_by_one(|result| {
        if let Some(PipelinedResult {
            output: OpOutput::Range(scan),
            ..
        }) = result
        {
            let (start, inserted) = in_flight.take().expect("a scan in flight");
            let deleting = load(|p| &p.1);
            assert!(
                scan.windows(2).all(|w| w[0].0 < w[1].0),
                "scan not strictly sorted"
            );
            for &(k, v) in &scan {
                assert!(k >= start);
                assert_eq!(v, value_of(k), "torn value {v} for key {k}");
            }
            let covered_to = match scan.len() == 100 {
                true => scan[99].0,
                false => u64::MAX,
            };
            for t in 0..WRITERS {
                for i in deleting[t as usize]..inserted[t as usize] {
                    let k = key_at(t, i);
                    if (start..=covered_to).contains(&k) {
                        assert!(
                            scan.binary_search(&(k, value_of(k))).is_ok(),
                            "scan from {start} passed over key {k}, live throughout"
                        );
                        held += 1;
                    }
                }
            }
            scans += 1;
            if scan_pause_ns > 0 {
                thread::sleep(Duration::from_nanos(scan_pause_ns));
            }
        }
        if writers_done.load(Ordering::SeqCst) == WRITERS as usize {
            return None;
        }
        let inserted = load(|p| &p.0);
        // From just below the oldest key that may still be live.
        let oldest = (0..WRITERS)
            .zip(load(|p| &p.1))
            .map(|(t, deleting)| key_at(t, deleting))
            .min()
            .expect("writers");
        let start = oldest.saturating_sub(scans % 40);
        in_flight = Some((start, inserted));
        Some(PipelineOp::Range {
            start_key: start,
            count: 100,
        })
    }));
    run_sessions(&cluster, &mut clients, |c| (c % 2) as u16);
    drop(clients);
    assert!(held > scans, "{scans} scans were held against {held} keys");
    // The churn must have merged and reclaimed nodes...
    assert!(
        cluster.space_stats().leaf_merges > 0,
        "churn with {waves} waves must merge leaves"
    );
    assert!(cluster.reclaim_stats().retired > 0);
    // ...and the final state is exactly the three live windows.
    let mut expect: Vec<(u64, u64)> = (0..WRITERS)
        .zip(tails)
        .flat_map(|(t, tail)| (tail..window * waves).map(move |i| key_at(t, i)))
        .map(|k| (k, value_of(k)))
        .collect();
    expect.sort_unstable();
    let mut client = cluster.client(0);
    client.quiesce_coherence();
    let (scan, _) = client.range(0, expect.len() + 10).expect("range");
    assert_eq!(scan, expect, "final state differs from the live windows");
    // Every slot the churn wrote carries its key's tag.
    assert_eq!(cluster.shape_audit().unwrap().mistagged_slots, 0);
}

/// Range scans running against concurrent inserts return sorted, de-duplicated
/// results whose values satisfy the writers' invariant.
fn range_scans_under_concurrent_inserts_on<B: FabricBackend>() {
    let cluster = cluster_on::<B>(TreeOptions::sherman());
    let writer = each((10_000..12_000u64).map(|k| PipelineOp::Insert { key: k, value: k }));
    let mut starts = (0..10_000u64).step_by(500);
    let scanner = one_by_one(move |result| {
        if let Some(PipelinedResult {
            op: PipelineOp::Range { start_key: start, .. },
            output: OpOutput::Range(scan),
            ..
        }) = result
        {
            assert!(
                scan.windows(2).all(|w| w[0].0 < w[1].0),
                "range result not strictly sorted"
            );
            for &(k, v) in &scan {
                assert!(k >= start);
                assert_eq!(v, k, "unexpected value for key {k}");
            }
        }
        starts.next().map(|start_key| PipelineOp::Range {
            start_key,
            count: 200,
        })
    });
    run_sessions(&cluster, &mut [writer, scanner], |c| c as u16);
}

#[test]
fn range_scans_under_concurrent_inserts_sim() {
    range_scans_under_concurrent_inserts_on::<Fabric>();
}

#[test]
fn range_scans_under_concurrent_inserts_threaded() {
    range_scans_under_concurrent_inserts_on::<ThreadedFabric>();
}
