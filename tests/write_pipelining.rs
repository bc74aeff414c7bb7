//! Write-path pipelining: inserts and deletes through the split-phase
//! scheduler keep their lock critical sections atomic (no foreign verb ever
//! posts between a lock acquire and its release on the same fabric context),
//! reproduce the blocking path verb-for-verb at depth 1, agree with an
//! in-memory model on mixed workloads at every depth, and attribute every
//! tagged completion back to the operation that posted it.

use sherman_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn loaded_cluster(n: u64) -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();
    cluster.bulkload(pairs.iter().copied()).unwrap();
    (cluster, pairs.into_iter().collect())
}

/// A 50/50 read/write mix whose final state is order-independent: inserts
/// land on fresh keys, deletes hit preloaded keys once each, and lookups
/// only touch keys no concurrent write can race.
fn mixed_ops(count: u64, loaded: u64) -> Vec<PipelineOp> {
    (0..count)
        .map(|i| match i % 4 {
            0 => PipelineOp::Insert {
                key: 1_000_000 + i * 5 + 1,
                value: i * 11 + 3,
            },
            1 => PipelineOp::Lookup {
                key: ((i * 97) % loaded) * 3,
            },
            2 => PipelineOp::Delete {
                key: ((i / 4) % loaded) * 3,
            },
            _ => PipelineOp::Range {
                start_key: 1_000_000 + (i * 131) % (count * 5),
                count: 8,
            },
        })
        .collect()
}

/// Apply the workload to a model map, assuming deletes only target keys the
/// lookups and ranges of the same run never observe mid-flight (the
/// generator above guarantees it: deletes hit residue-0 preloaded keys,
/// lookups hit them too but only *before* their delete index — so instead
/// we check lookups against "present in either image" below).
fn final_model(ops: &[PipelineOp], mut model: BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
    for op in ops {
        match *op {
            PipelineOp::Insert { key, value } => {
                model.insert(key, value);
            }
            PipelineOp::Delete { key } => {
                model.remove(&key);
            }
            _ => {}
        }
    }
    model
}

/// Tentpole invariant: between a `CriticalBegin` for op A and the matching
/// `CriticalEnd`, every verb posted on the context belongs to op A.  Checked
/// from the verb trace at depths 1, 4 and 8 on the mixed workload.
#[test]
fn no_foreign_verb_posts_inside_a_critical_section() {
    for depth in [1usize, 4, 8] {
        let (cluster, _) = loaded_cluster(1_200);
        let mut client = cluster.client(0);
        client.enable_verb_trace();
        let report = client
            .run_pipelined(mixed_ops(240, 1_200), depth)
            .unwrap();
        assert_eq!(report.results.len(), 240, "depth {depth}");

        let trace = client.take_verb_trace();
        let mut sections = 0u64;
        let mut owner: Option<Option<u64>> = None;
        for event in &trace {
            match *event {
                TraceEvent::CriticalBegin { op } => {
                    assert!(owner.is_none(), "depth {depth}: nested outermost begin");
                    owner = Some(op);
                    sections += 1;
                }
                TraceEvent::CriticalEnd { op } => {
                    let open = owner.take().expect("end without begin");
                    assert_eq!(open, op, "depth {depth}: section closed by a foreign op");
                }
                TraceEvent::Post { op, critical, .. } => {
                    if let Some(open) = owner {
                        assert!(critical, "depth {depth}: in-section post not flagged");
                        assert_eq!(
                            open, op,
                            "depth {depth}: foreign verb posted inside op {open:?}'s \
                             critical section"
                        );
                    } else {
                        assert!(!critical, "depth {depth}: stray critical flag");
                    }
                }
            }
        }
        assert!(owner.is_none(), "depth {depth}: critical section left open");
        assert!(
            sections >= 120,
            "depth {depth}: expected a critical section per write, saw {sections}"
        );
    }
}

/// Depth 1 *is* the blocking write path: same posts (count and
/// critical-section shape), same virtual-time total, same fabric counters.
#[test]
fn depth_one_writes_reproduce_blocking_verb_for_verb() {
    let ops = mixed_ops(200, 1_200);

    let (cluster, _) = loaded_cluster(1_200);
    let mut blocking = cluster.client(0);
    blocking.enable_verb_trace();
    let t0 = blocking.now();
    for op in &ops {
        match *op {
            PipelineOp::Lookup { key } => {
                blocking.lookup(key).unwrap();
            }
            PipelineOp::Range { start_key, count } => {
                blocking.range(start_key, count).unwrap();
            }
            PipelineOp::Insert { key, value } => {
                blocking.insert(key, value).unwrap();
            }
            PipelineOp::Delete { key } => {
                blocking.delete(key).unwrap();
            }
        }
    }
    let blocking_elapsed = blocking.now() - t0;
    let blocking_stats = blocking.fabric_stats();
    let blocking_trace = blocking.take_verb_trace();
    drop(blocking);

    let (cluster, _) = loaded_cluster(1_200);
    let mut pipelined = cluster.client(0);
    pipelined.enable_verb_trace();
    let report = pipelined.run_pipelined(ops.iter().copied(), 1).unwrap();
    let pipelined_trace = pipelined.take_verb_trace();

    assert_eq!(
        report.elapsed_ns, blocking_elapsed,
        "depth 1 must execute the same verbs at the same virtual times"
    );
    assert_eq!(report.stats.round_trips, blocking_stats.round_trips);
    assert_eq!(report.stats.bytes_read, blocking_stats.bytes_read);
    assert_eq!(report.stats.bytes_written, blocking_stats.bytes_written);
    assert_eq!(report.overlap.max_in_flight, 1);
    assert_eq!(report.overlap.overlapped_round_trips, 0);

    // Verb-for-verb: the post sequences agree in count and in where the
    // critical sections fall (op ids differ — the blocking drivers do not
    // tag — so compare the shape, not the tags).
    let shape = |trace: &[TraceEvent]| -> Vec<u8> {
        trace
            .iter()
            .map(|e| match e {
                TraceEvent::Post { critical: false, .. } => 0u8,
                TraceEvent::Post { critical: true, .. } => 1,
                TraceEvent::CriticalBegin { .. } => 2,
                TraceEvent::CriticalEnd { .. } => 3,
            })
            .collect()
    };
    assert_eq!(
        shape(&pipelined_trace),
        shape(&blocking_trace),
        "depth 1 posted a different verb sequence than the blocking path"
    );

    // Per-op attribution at depth 1 equals wall clock: summed attributed
    // latencies account for the whole run.
    let attributed: u64 = report.results.iter().map(|r| r.latency_ns).sum();
    assert_eq!(
        attributed, report.elapsed_ns,
        "depth-1 attributed service time must equal elapsed virtual time"
    );
}

/// Mixed 50/50 workloads agree with the in-memory model at depths 1, 4 and
/// 8, and at depth 8 the per-op round-trip attribution sums exactly to the
/// fabric's tagged-completion total.
#[test]
fn mixed_writes_match_model_at_every_depth() {
    let ops = mixed_ops(320, 1_500);

    for depth in [1usize, 4, 8] {
        let (cluster, model) = loaded_cluster(1_500);
        let expect = final_model(&ops, model.clone());

        let mut client = cluster.client(0);
        let report = client.run_pipelined(ops.iter().copied(), depth).unwrap();
        assert_eq!(report.results.len(), ops.len(), "depth {depth}");

        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
                (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                    assert!(found, "depth {depth}: preloaded key {key} must be found");
                }
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    // Deletes only target residue-0 keys that lookups may
                    // also read; accept the before- or after-image but
                    // never a foreign value.
                    match *v {
                        Some(v) => assert_eq!(
                            Some(v),
                            model.get(key).copied(),
                            "depth {depth} lookup({key})"
                        ),
                        None => assert!(
                            !expect.contains_key(key),
                            "depth {depth} lookup({key}) lost a surviving key"
                        ),
                    }
                }
                (PipelineOp::Range { .. }, OpOutput::Range(scan)) => {
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "depth {depth}");
                }
                other => panic!("depth {depth}: mismatched op/output {other:?}"),
            }
            assert!(r.round_trips > 0, "depth {depth}: untracked op {:?}", r.op);
        }

        // Per-op round-trip attribution is lossless: the tagged completions
        // handed to each op sum to the fabric's total (acceptance criterion
        // pinned at depth 8, asserted at every depth).
        let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
        assert_eq!(
            attributed, report.stats.round_trips,
            "depth {depth}: per-op round trips must sum to the fabric total"
        );

        // Post-state: the tree equals the model after the run.
        let mut check = cluster.client(1);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                PipelineOp::Insert { key, value } => {
                    assert_eq!(
                        check.lookup(key).unwrap().0,
                        Some(value),
                        "depth {depth}: inserted key {key} (op {i}) missing"
                    );
                }
                PipelineOp::Delete { key } => {
                    assert_eq!(
                        check.lookup(key).unwrap().0,
                        None,
                        "depth {depth}: deleted key {key} (op {i}) still present"
                    );
                }
                _ => {}
            }
        }
    }
}

/// With command combination the lock CAS carries the node READ, so a
/// cached-leaf update is exactly two posts: the combined CAS+READ, whose
/// completion opens the critical section, and the write-back + release batch
/// that closes it — with no other operation's verb in between, however many
/// lookups are in flight around it.
#[test]
fn combined_lock_and_read_opens_the_critical_section() {
    for depth in [1usize, 8] {
        let (cluster, _) = loaded_cluster(1_200);
        let mut client = cluster.client(0);
        client.enable_verb_trace();
        let ops: Vec<PipelineOp> = (0..192u64)
            .map(|i| match i % 3 {
                0 => PipelineOp::Insert {
                    key: ((i * 17) % 1_200) * 3,
                    value: i,
                },
                _ => PipelineOp::Lookup {
                    key: ((i * 29) % 1_200) * 3,
                },
            })
            .collect();
        client.run_pipelined(ops, depth).unwrap();

        let trace = client.take_verb_trace();
        let mut sections = 0;
        for (i, event) in trace.iter().enumerate() {
            let TraceEvent::CriticalBegin { op } = *event else {
                continue;
            };
            sections += 1;
            // Blocking inline verbs carry token 0; the lock is not held while
            // the combined verb is in flight, so it is not flagged critical.
            assert_eq!(
                trace[i - 1],
                TraceEvent::Post {
                    op,
                    token: 0,
                    critical: false
                },
                "depth {depth}: section not opened by its own CAS+READ"
            );
            assert!(
                matches!(trace[i + 1], TraceEvent::Post { op: o, critical: true, .. } if o == op),
                "depth {depth}: foreign verb inside the section: {:?}",
                trace[i + 1]
            );
            assert_eq!(trace[i + 2], TraceEvent::CriticalEnd { op }, "depth {depth}");
        }
        assert_eq!(sections, 64, "depth {depth}: one section per update");
    }
}
