//! Every configuration of the ablation ladder (and the original FG preset)
//! must be *correct* under concurrent load — the paper's baselines are real
//! systems, not strawmen.

use sherman_repro::prelude::*;
use std::sync::Arc;
use std::thread;

fn exercise(options: TreeOptions, label: &str) {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(2, 2), options);
    cluster
        .bulkload((0..4_000u64).map(|k| (k * 2, k)))
        .expect("bulkload");

    let threads = 3;
    let mut handles = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        handles.push(thread::spawn(move || {
            let mut client = cluster.client((t % 2) as u16);
            // Mixed load: updates of bulkloaded keys, fresh inserts, lookups,
            // deletes and scans — all on overlapping ranges.
            for i in 0..250u64 {
                let k = (i * 37 + t as u64 * 13) % 8_000;
                match i % 5 {
                    0 => {
                        client.insert(k, k + 100_000).unwrap();
                    }
                    1 => {
                        client.lookup(k).unwrap();
                    }
                    2 => {
                        client.insert(20_000 + t as u64 * 1_000 + i, i).unwrap();
                    }
                    3 => {
                        // Delete keys from a range disjoint from both the
                        // bulkloaded keys and the fresh-insert region.
                        client.delete((k | 1) + 40_000).unwrap();
                    }
                    _ => {
                        client.range(k, 30).unwrap();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap_or_else(|_| panic!("{label}: worker panicked"));
    }

    // Post-conditions: fresh inserts are all readable.
    let mut client = cluster.client(0);
    for t in 0..threads as u64 {
        for i in (0..250u64).filter(|i| i % 5 == 2) {
            let key = 20_000 + t * 1_000 + i;
            assert_eq!(
                client.lookup(key).unwrap().0,
                Some(i),
                "{label}: lost fresh insert {key}"
            );
        }
    }
    // Bulkloaded keys that nobody touched are intact.
    for k in (0..4_000u64).step_by(499) {
        let key = k * 2;
        if key >= 8_000 {
            assert_eq!(client.lookup(key).unwrap().0, Some(k), "{label}: key {key}");
        }
    }
}

#[test]
fn fg_original_is_correct() {
    exercise(TreeOptions::fg(), "FG");
}

#[test]
fn fg_plus_is_correct() {
    exercise(TreeOptions::fg_plus(), "FG+");
}

#[test]
fn plus_combine_is_correct() {
    exercise(TreeOptions::plus_combine(), "+Combine");
}

#[test]
fn plus_onchip_is_correct() {
    exercise(TreeOptions::plus_onchip(), "+On-Chip");
}

#[test]
fn plus_hierarchical_is_correct() {
    exercise(TreeOptions::plus_hierarchical(), "+Hierarchical");
}

#[test]
fn sherman_full_is_correct() {
    exercise(TreeOptions::sherman(), "Sherman");
}

#[test]
fn hocl_without_handover_is_correct() {
    exercise(
        TreeOptions {
            lock_strategy: LockStrategy::Hocl {
                wait_queue: true,
                handover: false,
            },
            ..TreeOptions::sherman()
        },
        "Sherman w/o handover",
    );
}

#[test]
fn sherman_without_combination_is_correct() {
    exercise(
        TreeOptions {
            combine_commands: false,
            ..TreeOptions::sherman()
        },
        "Sherman w/o combine",
    );
}

/// One seeded single-client write sequence (updates, fresh inserts that
/// split, deletes that merge) and the verbs it cost: `(round_trips, reads,
/// writes, atomics, bytes_read, bytes_written, elapsed virtual ns)`.
fn write_path_verbs(options: TreeOptions) -> (u64, u64, u64, u64, u64, u64, u64) {
    let cluster = Cluster::new(ClusterConfig::small(), options);
    cluster.bulkload((0..2_000u64).map(|k| (k * 2, k))).unwrap();
    let mut client = cluster.client(0);
    let t0 = client.now();
    for i in 0..400u64 {
        let k = (i * 37) % 4_000;
        match i % 4 {
            0 => drop(client.insert(k & !1, i).unwrap()),
            1 | 2 => drop(client.insert(k | 1, i).unwrap()),
            _ => drop(client.delete((k + 74) | 1).unwrap()),
        }
    }
    // Drain a contiguous stretch so leaves merge: the three-lock commit's
    // reads are part of the pinned verb sequence too.
    for k in 0..400u64 {
        client.delete(k * 2).unwrap();
    }
    assert!(cluster.space_stats().leaf_merges > 0);
    let s = client.fabric_stats();
    (
        s.round_trips,
        s.reads,
        s.writes,
        s.atomics,
        s.bytes_read,
        s.bytes_written,
        client.now() - t0,
    )
}

/// Folding the node read into the lock acquisition is governed by
/// `combine_commands`: every preset that leaves it off issues exactly the
/// verbs — and takes exactly the virtual time — it did before the head
/// combination existed.  The figures were recorded at that commit; the sorted
/// presets' virtual time was re-captured once, when a delete on a sorted leaf
/// began to pay for its repack as an insert does (400 found deletes × 64 ns).
#[test]
fn uncombined_presets_keep_their_verbs() {
    let sherman_uncombined = TreeOptions {
        combine_commands: false,
        ..TreeOptions::sherman()
    };
    for (label, options, expect) in [
        (
            "FG",
            TreeOptions::fg(),
            (3946, 1047, 924, 1974, 268_032, 236_544, 7_739_466),
        ),
        (
            "FG+",
            TreeOptions::fg_plus(),
            (3946, 1047, 1911, 987, 268_032, 244_440, 7_295_316),
        ),
        (
            "Sherman w/o combine",
            sherman_uncombined,
            (3946, 1047, 1911, 987, 268_032, 81_387, 6_803_031),
        ),
    ] {
        assert_eq!(write_path_verbs(options), expect, "{label}");
    }
}

/// The combined rungs of the ladder, pinned the same way: the same sequence
/// costs each of them exactly the verbs and the virtual time recorded at the
/// commit before the write machines were unified (the sorted rungs' virtual
/// time with the same 25 600 ns of delete repacks added) — re-captured once,
/// when structural commits began to wait only for what they depend on.  The
/// run's 50 merges and rebalances take the parent from the index cache and
/// read their three nodes with the lock attempts: 91 round trips, 47 reads
/// and 12 032 bytes read fewer, a sixth less virtual time.  Two of the 50 are
/// routed by an image an internal rebalance left stale — the plan is
/// abandoned under the locks and the parent read remotely — which is where
/// the six extra atomics and lock-word release writes (8 bytes each in host
/// memory, 2 on chip) come from.  Re-captured a second time when structural
/// commits began to write back what changed: the same round trips, reads and
/// atomics; 185 more WRITE commands (175 on unsorted leaves) in the same
/// doorbell batches; 25 648 bytes fewer on every rung (24 856 on unsorted
/// leaves — three tenths of all the full Sherman run writes) and about
/// 700 ns of 3 ms more, the NIC's per-command floor.  Unsorted leaves are
/// since edited in place rather than re-packed: on "+2-Level Ver" 26 more
/// WRITE commands, 2 336 bytes fewer, 140 ns more; the sorted rungs did not
/// move.
#[test]
fn combined_rungs_keep_their_verbs() {
    for (label, options, expect) in [
        (
            "+Combine",
            TreeOptions::plus_combine(),
            (1994, 1000, 2102, 993, 256_000, 218_840, 3_510_972),
        ),
        (
            "+On-Chip",
            TreeOptions::plus_onchip(),
            (1994, 1000, 2102, 993, 256_000, 212_882, 3_075_264),
        ),
        (
            "+Hierarchical",
            TreeOptions::plus_hierarchical(),
            (1994, 1000, 2102, 993, 256_000, 212_882, 3_075_264),
        ),
        (
            "+2-Level Ver",
            TreeOptions::sherman(),
            (1994, 1000, 2118, 993, 256_000, 54_207, 3_018_337),
        ),
    ] {
        assert_eq!(write_path_verbs(options), expect, "{label}");
    }
}
