//! Every configuration of the ablation ladder must be *correct* under
//! concurrent load — the paper's baselines are real systems, not strawmen.

mod support;

use sherman_repro::prelude::*;

fn exercise(options: TreeOptions, label: &str) {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(2, 2), options);
    cluster
        .bulkload((0..4_000u64).map(|k| (k * 2, k)))
        .expect("bulkload");

    let threads = 3;
    let mut clients: Vec<_> = (0..threads as u64)
        .map(|t| {
            // Mixed load: updates of bulkloaded keys, fresh inserts, lookups,
            // deletes and scans — all on overlapping ranges.
            support::each((0..250u64).map(move |i| {
                let k = (i * 37 + t * 13) % 8_000;
                match i % 5 {
                    0 => PipelineOp::Insert {
                        key: k,
                        value: k + 100_000,
                    },
                    1 => PipelineOp::Lookup { key: k },
                    2 => PipelineOp::Insert {
                        key: 20_000 + t * 1_000 + i,
                        value: i,
                    },
                    // Delete keys from a range disjoint from both the
                    // bulkloaded keys and the fresh-insert region.
                    3 => PipelineOp::Delete {
                        key: (k | 1) + 40_000,
                    },
                    _ => PipelineOp::Range {
                        start_key: k,
                        count: 30,
                    },
                }
            }))
        })
        .collect();
    support::run_sessions(&cluster, &mut clients, |t| (t % 2) as u16);

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
            lock_strategy: LockStrategy::WaitQueue,
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
/// "Sherman w/o combine" writes 7 200 bytes fewer (81 387 → 74 187) since a
/// delete on an unsorted leaf sends its slot's tag byte, not the entry: 18
/// bytes less for each of the 400 found deletes, in the same time.  Both
/// presets were re-captured when a level's first leaf began to merge only
/// once empty: the drained stretch starts at the first leaf, and the run
/// makes one three-lock structural commit fewer — 13 round trips, 4 reads,
/// 6 WRITE commands and 3 atomics fewer, 1 024 bytes read and 792 (FG+) or
/// 774 bytes written fewer, 23 874 or 22 551 ns less.
#[test]
fn uncombined_presets_keep_their_verbs() {
    let sherman_uncombined = TreeOptions {
        combine_commands: false,
        ..TreeOptions::sherman()
    };
    for (label, options, expect) in [
        (
            "FG+",
            TreeOptions::fg_plus(),
            (3933, 1043, 1905, 984, 267_008, 243_648, 7_271_442),
        ),
        (
            "Sherman w/o combine",
            sherman_uncombined,
            (3933, 1043, 1905, 984, 267_008, 73_413, 6_780_480),
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
/// move.  A point write on an unsorted leaf since pays the CPU of what its
/// probe reads of the locked image, not the whole leaf: on "+2-Level Ver"
/// the same verbs and bytes, 3 018 337 → 2 984 702 ns; the sorted rungs did
/// not move.  Every rung was re-captured when an internal node's separators
/// became a sliding window (and, on "+2-Level Ver", a merge at the tree's
/// left edge began to keep the fuller right leaf): the same round trips,
/// reads and atomics; 25 more WRITE commands (27 on "+2-Level Ver"), 2 360
/// bytes fewer (2 528), 187 ns more (194).  And when a window began to
/// recenter at its front edge too: 5 WRITE commands fewer, 384 bytes more
/// (a recenter rewrites what a shift would have moved in part), 24 ns less
/// on every rung.  And on "+2-Level Ver" when a delete began to send its
/// slot's tag byte alone: 7 200 bytes fewer (52 063 → 44 863), 18 for each
/// of the 400 found deletes, in the same time; the sorted rungs, which
/// write a delete's leaf whole, did not move.  And on "+2-Level Ver" when a
/// split or rebalance began to leave the slots of the keys it moves out
/// stale, marked in the tail word, rather than clearing them: 52 more WRITE
/// commands (an insert over a stale slot sends the bit's byte too), 2 958
/// bytes fewer (44 863 → 41 905), 468 ns more.  Every rung when a level's
/// first leaf began to merge only once empty: the stretch drained from the
/// first leaf makes one three-lock structural commit fewer — 6 round trips,
/// 3 reads and 3 atomics fewer, 10 WRITE commands fewer (12 on "+2-Level
/// Ver"), 768 bytes read fewer, 392 bytes written fewer (374 on the on-chip
/// rungs, 182 on "+2-Level Ver"), 2 207 to 3 530 ns less.
#[test]
fn combined_rungs_keep_their_verbs() {
    for (label, options, expect) in [
        (
            "+Combine",
            TreeOptions::plus_combine(),
            (1988, 997, 2112, 990, 255_232, 216_472, 3_507_605),
        ),
        (
            "+On-Chip",
            TreeOptions::plus_onchip(),
            (1988, 997, 2112, 990, 255_232, 210_532, 3_073_220),
        ),
        (
            "+Hierarchical",
            TreeOptions::plus_hierarchical(),
            (1988, 997, 2112, 990, 255_232, 210_532, 3_073_220),
        ),
        (
            "+2-Level Ver",
            TreeOptions::sherman(),
            (1988, 997, 2180, 990, 255_232, 41_723, 2_983_126),
        ),
    ] {
        assert_eq!(write_path_verbs(options), expect, "{label}");
    }
}
