//! Pipelined-read equivalence: the split-phase scheduler at any depth
//! returns exactly what the blocking path returns — against a quiesced tree,
//! against an in-memory model, and while racing concurrent writers (no torn
//! reads) — and its virtual-time accounting is deterministic.

mod support;

use sherman_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use support::{batches, one_by_one};

fn loaded_cluster(n: u64) -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();
    cluster.bulkload(pairs.iter().copied()).unwrap();
    (cluster, pairs.into_iter().collect())
}

fn mixed_ops(count: u64, key_space: u64) -> Vec<PipelineOp> {
    (0..count)
        .map(|i| {
            if i % 5 == 4 {
                PipelineOp::Range {
                    start_key: (i * 131) % key_space,
                    count: 12,
                }
            } else {
                PipelineOp::Lookup {
                    key: (i * 97) % key_space,
                }
            }
        })
        .collect()
}

/// Quiesced tree: lookups and scans through the scheduler at depth 1, 4 and
/// 8 agree with the blocking entry points and with the model.
#[test]
fn pipelined_reads_match_blocking_and_model_at_every_depth() {
    let (cluster, model) = loaded_cluster(2_000);
    let ops = mixed_ops(300, 2_000 * 3 + 50);

    // Blocking reference answers.
    let mut blocking = cluster.client(0);
    let reference: Vec<OpOutput> = ops
        .iter()
        .map(|op| match *op {
            PipelineOp::Lookup { key } => OpOutput::Lookup(blocking.lookup(key).unwrap().0),
            PipelineOp::Range { start_key, count } => {
                OpOutput::Range(blocking.range(start_key, count).unwrap().0)
            }
            _ => unreachable!("read-only workload"),
        })
        .collect();
    drop(blocking);

    for depth in [1usize, 4, 8] {
        let mut client = cluster.client(1);
        let report = client.run_pipelined(ops.iter().copied(), depth).unwrap();
        assert_eq!(report.results.len(), ops.len(), "depth {depth}");
        // Completion order may interleave; match results back to ops by
        // index order of submission? The scheduler reports completion order,
        // so compare as multisets keyed by the op.
        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    assert_eq!(*v, model.get(key).copied(), "depth {depth} lookup({key})");
                }
                (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                    let expect: Vec<(u64, u64)> = model
                        .range(*start_key..)
                        .take(*count)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(*scan, expect, "depth {depth} range({start_key})");
                }
                other => panic!("mismatched op/output {other:?}"),
            }
        }
        // And the blocking reference agrees op-for-op (dedup via sort of
        // both sides: the reference is in submission order, the report in
        // completion order, but each op is deterministic on a quiesced tree).
        let mut got: Vec<(PipelineOp, OpOutput)> = report
            .results
            .iter()
            .map(|r| (r.op, r.output.clone()))
            .collect();
        let mut want: Vec<(PipelineOp, OpOutput)> =
            ops.iter().copied().zip(reference.iter().cloned()).collect();
        let key = |op: &PipelineOp| match *op {
            PipelineOp::Lookup { key } => (0u8, key, 0usize),
            PipelineOp::Range { start_key, count } => (1u8, start_key, count),
            _ => unreachable!("read-only workload"),
        };
        got.sort_by_key(|(op, _)| key(op));
        want.sort_by_key(|(op, _)| key(op));
        assert_eq!(got, want, "depth {depth} disagrees with the blocking path");
    }
}

/// Depth 1 *is* the blocking path: identical results and identical
/// virtual-time totals on a fresh cluster.
#[test]
fn depth_one_reproduces_blocking_virtual_time() {
    let ops = mixed_ops(200, 5_000);

    let (cluster, _) = loaded_cluster(1_500);
    let mut blocking = cluster.client(0);
    let t0 = blocking.now();
    for op in &ops {
        match *op {
            PipelineOp::Lookup { key } => {
                blocking.lookup(key).unwrap();
            }
            PipelineOp::Range { start_key, count } => {
                blocking.range(start_key, count).unwrap();
            }
            _ => unreachable!("read-only workload"),
        }
    }
    let blocking_elapsed = blocking.now() - t0;
    let blocking_stats = blocking.fabric_stats();
    drop(blocking);

    let (cluster, _) = loaded_cluster(1_500);
    let mut pipelined = cluster.client(0);
    let report = pipelined.run_pipelined(ops.iter().copied(), 1).unwrap();

    assert_eq!(
        report.elapsed_ns, blocking_elapsed,
        "depth 1 must execute the same verbs at the same virtual times"
    );
    assert_eq!(report.stats.round_trips, blocking_stats.round_trips);
    assert_eq!(report.stats.bytes_read, blocking_stats.bytes_read);
    assert_eq!(report.overlap.max_in_flight, 1);
    assert_eq!(report.overlap.overlapped_round_trips, 0);
}

/// Two runs at the same depth report identical virtual-time totals, stats
/// and results (the scheduler is deterministic).
#[test]
fn same_depth_runs_are_deterministic() {
    for depth in [4usize, 8] {
        let run = || {
            let (cluster, _) = loaded_cluster(1_500);
            let mut client = cluster.client(0);
            let report = client
                .run_pipelined(mixed_ops(250, 5_000), depth)
                .unwrap();
            (report.elapsed_ns, report.stats, report.results)
        };
        let (e1, s1, r1) = run();
        let (e2, s2, r2) = run();
        assert_eq!(e1, e2, "depth {depth}: virtual-time totals must be identical");
        assert_eq!(s1, s2, "depth {depth}: fabric stats must be identical");
        assert_eq!(r1, r2, "depth {depth}: results must be identical");
    }
}

/// One seeded depth-4 run over all four operation kinds — fresh inserts that
/// split, updates, deletes that merge, lookups, scans — costs exactly what it
/// did: the fabric's round trips and written bytes and a hash over every
/// result's own (taken op by op, whatever order they finished in), then a
/// hash over the service times in completion order and the run's elapsed
/// virtual time.  One client, so the run repeats exactly; recorded when lock
/// acquisition became something a write parks on (CHANGES.md, PR 22, has the
/// figures of the commit before and what moved) and again when structural
/// commits began to wait only for what they depend on (PR 23: the same 66
/// merges, a merging delete 10 posts → 8, 164 round trips fewer in all, a
/// third less elapsed time; two plans routed by a stale cached parent are
/// abandoned and retried, six lock words taken and released for nothing),
/// and when they began to write back what changed (PR 24: the same round
/// trips, 109 172 → 76 284 bytes written, 776 ns of 2.3 ms more — the NIC's
/// per-command floor on the extra WRITE commands), and when unsorted leaves
/// began to be edited in place (the same round trips, 76 284 → 74 292 bytes,
/// 140 ns more).  The timing was re-captured when a lookup began to charge
/// the CPU of the leaf slots its search reads rather than of the whole leaf:
/// the same round trips and bytes op by op, 582 ns less elapsed — and again
/// when a lookup began to read a slot's key only where the slot's key tag
/// matches: the same round trips and bytes op by op, 387 ns less elapsed.
/// Re-captured when a point write began to charge the CPU of what its probe
/// reads of the locked leaf rather than of the whole leaf: the same round
/// trips, 2 275 488 → 2 247 674 ns elapsed, and 74 292 → 74 288 bytes —
/// with shorter critical sections four deletes met a queued sibling write
/// differently, three of them handing their lock over (21 → 19 bytes: no
/// 2-byte release write) and one releasing it instead (19 → 21).
/// Re-captured when a split's separator and a merge began to run among
/// their siblings instead of alone: a merge now tries its three locks while
/// a sibling delete of the same leaf still holds or queues for one, so 142
/// of 159 optimistic plans fall back to rank order (none of 89 did) — 4 050
/// → 4 692 round trips, 74 288 → 69 522 bytes, 2 247 674 → 2 444 528 ns.
/// Both hashes were re-captured when each verb came to be counted once, in
/// one record per operation: one insert's chunk-refill RPC no longer counts
/// its 16-byte request as bytes written (the costs hash; the results now sum
/// to the fabric's 69 522), and 33 structural writes no longer count 2 ns of
/// CPU that their own write-back's window already covered (the timing hash).
/// Round trips, bytes and elapsed time did not move.  Re-captured when an
/// internal node's separators became a sliding window: the same round
/// trips, 69 522 → 67 458 bytes (both hashes), 2 444 528 → 2 444 588 ns.
/// Again when a window began to recenter at either edge: the same round
/// trips, 67 458 → 66 538 bytes (both hashes), 2 444 588 → 2 444 630 ns.
/// Again when a point delete began to send its slot's tag byte alone: the
/// same round trips and time, 66 538 → 55 738 bytes (the costs hash).
#[test]
fn a_mixed_depth_four_run_costs_exactly_what_it_did() {
    let (cluster, _) = loaded_cluster(2_000);
    let carved = cluster.pool().nodes_carved();
    let mut ops = Vec::new();
    for i in 0..1_200u64 {
        let k = (i * 37) % 6_000;
        ops.push(match i % 6 {
            0 => PipelineOp::Lookup { key: k },
            1 | 2 => PipelineOp::Insert { key: k | 1, value: i },
            3 => PipelineOp::Insert { key: k - k % 3, value: i },
            4 => PipelineOp::Delete { key: k },
            _ => PipelineOp::Range { start_key: k, count: 25 },
        });
    }
    // Drain a contiguous stretch so leaves merge inside the pipeline.
    ops.extend((0..600u64).map(|k| PipelineOp::Delete { key: k * 3 }));
    let mut client = cluster.client(0);
    let report = client.run_pipelined(ops, 4).unwrap();
    assert!(cluster.pool().nodes_carved() > carved, "no split happened");
    assert!(cluster.space_stats().leaf_merges > 0, "no merge happened");

    // Completion order is the scheduler's business; what an operation cost is
    // not: compare costs op by op, timing in the order things finished.
    let fnv = |fields: &mut dyn Iterator<Item = u64>| {
        fields.fold(0xcbf2_9ce4_8422_2325u64, |hash, f| {
            (hash ^ f).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut by_op: Vec<(String, u64, u64)> = report
        .results
        .iter()
        .map(|r| (format!("{:?}", r.op), r.round_trips, r.bytes_written))
        .collect();
    by_op.sort();
    let costs = fnv(&mut by_op.iter().flat_map(|&(_, rt, bytes)| [rt, bytes]));
    let timing = fnv(&mut report.results.iter().map(|r| r.latency_ns));
    assert_eq!(report.results.len(), 1_800);
    assert_eq!(
        (report.stats.round_trips, report.stats.bytes_written, costs),
        (4_692, 55_738, 3_328_134_062_889_754_851)
    );
    assert_eq!(
        (timing, report.elapsed_ns),
        (3_543_982_664_840_589_420, 2_444_630)
    );
}

/// Depth 4 on the uniform-lookup workload beats depth 1 by at least 1.5x and
/// the overlap gauges prove concurrent in-flight verbs (the tentpole's
/// acceptance criterion, repeated here as a tier-1 regression).
#[test]
fn depth_four_overlaps_round_trips() {
    let lookups: Vec<PipelineOp> = (0..500u64)
        .map(|i| PipelineOp::Lookup {
            key: ((i * 2_654_435_761) % 4_500),
        })
        .collect();

    let (cluster, _) = loaded_cluster(1_500);
    let d1 = cluster
        .client(0)
        .run_pipelined(lookups.iter().copied(), 1)
        .unwrap();

    let (cluster, _) = loaded_cluster(1_500);
    let d4 = cluster
        .client(0)
        .run_pipelined(lookups.iter().copied(), 4)
        .unwrap();

    assert!(
        d4.elapsed_ns * 3 <= d1.elapsed_ns * 2,
        "depth 4 ({} ns) must be at least 1.5x faster than depth 1 ({} ns)",
        d4.elapsed_ns,
        d1.elapsed_ns
    );
    assert!(
        d4.overlap.mean_in_flight() > 1.5,
        "mean in-flight {:.2} must prove concurrency",
        d4.overlap.mean_in_flight()
    );
    assert!(d4.overlap.max_in_flight >= 3);
    assert!(d4.stats.overlapped_round_trips > 0);
    assert!(d4.overlap.overlap_factor() > 1.5);
}

/// Pipelined readers racing concurrent writers: every lookup returns either
/// the before- or an after-image value for its key (never a torn or foreign
/// value), and every scan stays sorted, de-duplicated and value-consistent.
#[test]
fn pipelined_reads_race_writers_without_torn_results() {
    let n = 2_000u64;
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    // Key k starts at value k * 2 + 1; writers bump values in strides, each
    // write landing on value k * 2 + 1 + generation * STRIDE.
    const STRIDE: u64 = 1 << 32;
    cluster
        .bulkload((0..n).map(|k| (k, k * 2 + 1)))
        .unwrap();

    let is_valid = |k: u64, v: u64| -> bool {
        // Any generation of this key's value protocol is valid; anything
        // else is a torn or foreign read.
        v % STRIDE == (k * 2 + 1) % STRIDE && (v - (k * 2 + 1)).is_multiple_of(STRIDE)
    };

    // Each writer owns a disjoint key residue so values never race each
    // other, only the reader's; it sweeps its keys a generation at a time
    // for as long as the reader reads.
    let mut sweeps: Vec<_> = (0..2u64)
        .map(|w| {
            let keys: Vec<u64> = (w..n).step_by(2).step_by(7).collect();
            (1u64..).flat_map(move |generation| {
                keys.clone().into_iter().map(move |k| PipelineOp::Insert {
                    key: k,
                    value: k * 2 + 1 + generation * STRIDE,
                })
            })
        })
        .collect();
    for depth in [1usize, 4, 8] {
        let mut ops: Vec<PipelineOp> = Vec::new();
        for i in 0..300u64 {
            if i % 6 == 5 {
                ops.push(PipelineOp::Range {
                    start_key: (i * 89) % n,
                    count: 16,
                });
            } else {
                ops.push(PipelineOp::Lookup { key: (i * 53) % n });
            }
        }
        let reading = AtomicBool::new(true);
        let mut results = Vec::new();
        let mut ops = Some(ops);
        let reader = batches(|read| {
            if ops.is_none() {
                results = read;
                reading.store(false, Ordering::Relaxed);
            }
            ops.take()
        });
        let mut sessions = vec![reader];
        for sweep in &mut sweeps {
            let reading = &reading;
            sessions.push(one_by_one(move |_| {
                reading.load(Ordering::Relaxed).then(|| sweep.next().expect("endless"))
            }));
        }
        let mut clients = vec![cluster.client(0), cluster.client(0), cluster.client(1)];
        run_clients(&mut clients, &mut sessions, depth);
        drop(sessions);
        assert_eq!(results.len(), 300);
        for r in &results {
            match (&r.op, &r.output) {
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    let v = v.unwrap_or_else(|| panic!("key {key} must stay present"));
                    assert!(
                        is_valid(*key, v),
                        "depth {depth}: torn read of key {key}: {v:#x}"
                    );
                }
                (PipelineOp::Range { start_key, .. }, OpOutput::Range(scan)) => {
                    assert!(
                        scan.windows(2).all(|w| w[0].0 < w[1].0),
                        "depth {depth}: scan from {start_key} not sorted/unique"
                    );
                    for &(k, v) in scan {
                        assert!(k >= *start_key);
                        assert!(
                            is_valid(k, v),
                            "depth {depth}: torn scan entry ({k}, {v:#x})"
                        );
                    }
                }
                other => panic!("mismatched op/output {other:?}"),
            }
        }
    }

}
