//! Write-path pipelining: inserts and deletes through the split-phase
//! scheduler park on their lock acquisition like on any other round trip,
//! yet a lock word has one holder at a time on the context, operations that
//! want the same word queue and hand it over in arrival order, commits that
//! take further locks interleave with their siblings — and the run still
//! reproduces the blocking path verb-for-verb at depth 1, agrees with an
//! in-memory model at every depth, and attributes every tagged completion
//! back to the operation that posted it.

use sherman_repro::prelude::*;
use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// What [`check_lock_discipline`] counted in a trace.
struct Discipline {
    /// Critical sections opened.
    sections: u64,
    /// Posts by other ops while some section was open.
    interleaved: u64,
    /// Ops that posted after their first section closed: a follow-up (a
    /// split's separator, a merge), or a write whose leaf moved under it
    /// re-locating.
    followups: usize,
    /// Of those, the ones with another op's post inside their posts after
    /// that section.
    shared_followups: usize,
}

/// Check the lock discipline of one context from its verb trace: per lock
/// word the sections strictly alternate begin/end and are closed by the op
/// that opened them, so at most one in-flight operation of the client is
/// between learning it holds the word and posting its release; a post is
/// flagged critical exactly when the posting op has a section open; and
/// every section is closed at the end.
fn check_lock_discipline(trace: &[TraceEvent], context: &str) -> Discipline {
    let mut open: HashMap<u128, Option<u64>> = HashMap::new();
    let (mut sections, mut interleaved) = (0u64, 0u64);
    let (mut closed, mut followups, mut shared) =
        (HashSet::new(), HashSet::new(), HashSet::new());
    let mut last_post = None;
    for event in trace {
        match *event {
            TraceEvent::CriticalBegin { op, lock } => {
                let holder = open.insert(lock, op);
                assert!(
                    holder.is_none(),
                    "{context}: op {op:?} entered lock {lock:#x} while {holder:?} holds it"
                );
                sections += 1;
            }
            TraceEvent::CriticalEnd { op, lock } => {
                assert_eq!(
                    open.remove(&lock),
                    Some(op),
                    "{context}: lock {lock:#x} released by an op that does not hold it"
                );
                if !open.values().any(|&holder| holder == op) {
                    closed.insert(op);
                }
            }
            TraceEvent::Post { op, critical, .. } => {
                let holds = open.values().any(|&holder| holder == op);
                assert_eq!(critical, holds, "{context}: critical flag of a post by {op:?}");
                if !holds && !open.is_empty() {
                    interleaved += 1;
                }
                if closed.contains(&op) && !followups.insert(op) && last_post != Some(op) {
                    shared.insert(op);
                }
                last_post = Some(op);
            }
        }
    }
    assert!(open.is_empty(), "{context}: sections left open: {open:?}");
    Discipline {
        sections,
        interleaved,
        followups: followups.len(),
        shared_followups: shared.len(),
    }
}

/// Tentpole invariant, from the verb trace of the mixed workload at depths
/// 1, 4 and 8 — and of a run that hammers one leaf, where sections stay open
/// across yields (a handed-over lock is held while its READ is in flight)
/// and other operations' verbs do post in between.
#[test]
fn a_lock_word_has_one_holder_at_a_time_on_a_context() {
    for depth in [1usize, 4, 8] {
        let (cluster, _) = loaded_cluster(1_200);
        let mut client = cluster.client(0);
        client.enable_verb_trace();
        let report = client
            .run_pipelined(mixed_ops(240, 1_200), depth)
            .unwrap();
        assert_eq!(report.results.len(), 240, "depth {depth}");
        let Discipline { sections, .. } =
            check_lock_discipline(&client.take_verb_trace(), &format!("depth {depth}"));
        assert!(
            sections >= 120,
            "depth {depth}: expected a critical section per write, saw {sections}"
        );

        let (cluster, _) = loaded_cluster(1_200);
        let mut client = cluster.client(0);
        client.enable_verb_trace();
        let ops = (0..400u64).map(|i| match i % 2 {
            0 => PipelineOp::Lookup { key: (i * 41 % 1_200) * 3 },
            _ => PipelineOp::Insert { key: (600 + i % 4) * 3, value: i },
        });
        let report = client.run_pipelined(ops, depth).unwrap();
        let handed_over = report.results.iter().filter(|r| r.handed_over).count();
        let Discipline {
            sections,
            interleaved,
            ..
        } = check_lock_discipline(&client.take_verb_trace(), &format!("hot leaf, depth {depth}"));
        assert_eq!(sections, 200, "depth {depth}: one section per write");
        if depth == 1 {
            assert_eq!((handed_over, interleaved), (0, 0));
        } else {
            assert!(handed_over > 0, "depth {depth}: the hot lock was never handed over");
            assert!(interleaved > 0, "depth {depth}: nothing overlapped a held lock");
        }
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
    // One operation at a time: the only verbs that ever overlap are a
    // structural commit's own (a split's leaf write-back under its parent's
    // lock + read, a merge's three attempts), the same on both paths.
    assert_eq!(report.overlap.max_in_flight, blocking_stats.max_in_flight);
    assert_eq!(
        report.overlap.overlapped_round_trips,
        blocking_stats.overlapped_round_trips
    );
    assert!(report.overlap.max_in_flight <= 4);

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
/// cached-leaf update is exactly two posts of its own: the combined CAS+READ,
/// posted before the lock is held, and the write-back + release batch, the
/// only verb of its critical section — however many lookups are in flight
/// around it, and (at depth 8) with their verbs posted in between.
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
        let report = client.run_pipelined(ops, depth).unwrap();
        assert!(report.results.iter().all(|r| !r.handed_over), "depth {depth}");

        let trace = client.take_verb_trace();
        let mut sections = 0;
        for (i, event) in trace.iter().enumerate() {
            let TraceEvent::CriticalBegin { op, lock } = *event else {
                continue;
            };
            sections += 1;
            let own_posts_before: Vec<bool> = trace[..i]
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Post { op: o, critical, .. } if o == op => Some(critical),
                    _ => None,
                })
                .collect();
            assert_eq!(
                own_posts_before,
                [false],
                "depth {depth}: the CAS+READ is the op's only verb before its section"
            );
            // The body is one step: write-back + release, section closed.
            assert!(
                matches!(trace[i + 1], TraceEvent::Post { op: o, critical: true, .. } if o == op),
                "depth {depth}: {:?} follows the section begin",
                trace[i + 1]
            );
            assert_eq!(trace[i + 2], TraceEvent::CriticalEnd { op, lock }, "depth {depth}");
        }
        assert_eq!(sections, 64, "depth {depth}: one section per update");
    }
}

/// The six lock designs of the paper's ladder, each over Sherman's other
/// techniques.
const DESIGNS: [LockStrategy; 6] = [
    LockStrategy::HostCasFaa,
    LockStrategy::HostCasWrite,
    LockStrategy::OnChip,
    LockStrategy::Hierarchical,
    LockStrategy::WaitQueue,
    LockStrategy::Hocl,
];

/// What a depth-8 hot-leaf run cost: `(round_trips, atomics, lock_retries,
/// handovers, elapsed_ns)`.
type HotLeafCost = (u64, u64, u64, u64, u64);

/// Every operation of the feed writes one of 8 keys of one leaf: the leaf's
/// lock word is wanted by every in-flight operation at once.  With a local
/// lock table they wait on the compute server's local lock, so no attempt on
/// the global word is ever lost to a sibling, and full HOCL hands the lock
/// over; without one, siblings spin on the global word.  Every design
/// commits the writes of a key in the order they complete, and nothing
/// deadlocks.  The designs with a wait queue also keep arrival order, so
/// their final state is the sequential model's at every depth; where waiters
/// race, two writes of one key in flight together may commit either way
/// round.  Returns the depth-8 run's cost.
fn hot_leaf_writes_match_the_sequential_model_on<B: FabricBackend>(
    lock_strategy: LockStrategy,
) -> HotLeafCost {
    let keys: Vec<u64> = (0..8u64).map(|i| (700 + i) * 3).collect();
    let ops: Vec<PipelineOp> = (0..2_000u64)
        .map(|i| {
            let key = keys[(i * 5 % 8) as usize];
            if i % 7 == 3 {
                PipelineOp::Delete { key }
            } else {
                PipelineOp::Insert { key, value: i + 1 }
            }
        })
        .collect();
    let options = TreeOptions {
        lock_strategy,
        ..TreeOptions::sherman()
    };
    let local_layer = lock_strategy.local_layer();
    let queued = lock_strategy.wait_queue();
    let hands_over = lock_strategy == LockStrategy::Hocl;
    // Apply `ops` to `model`; a delete's output is whether it found its key.
    let apply = |model: &mut BTreeMap<u64, u64>, ops: &mut dyn Iterator<Item = &PipelineOp>| {
        ops.map(|op| match *op {
            PipelineOp::Insert { key, value } => {
                model.insert(key, value);
                OpOutput::Insert
            }
            PipelineOp::Delete { key } => OpOutput::Delete(model.remove(&key).is_some()),
            _ => unreachable!("write-only feed"),
        })
        .collect::<Vec<_>>()
    };

    let mut cost = None;
    for depth in [1usize, 4, 8, 16] {
        let context = format!("{lock_strategy:?}, depth {depth}");
        let cluster = Cluster::<B>::new_on(ClusterConfig::small(), options);
        let pairs: Vec<(u64, u64)> = (0..1_500u64).map(|k| (k * 3, k * 7 + 1)).collect();
        cluster.bulkload(pairs.iter().copied()).unwrap();
        let loaded: BTreeMap<u64, u64> = pairs.into_iter().collect();

        let mut client = cluster.client(0);
        let report = client.run_pipelined(ops.iter().copied(), depth).unwrap();
        assert_eq!(report.results.len(), ops.len(), "{context}");
        // The writes of one key commit in the order they complete.
        let mut model = loaded.clone();
        let outputs = apply(&mut model, &mut report.results.iter().map(|r| &r.op));
        for (result, expect) in report.results.iter().zip(outputs) {
            assert_eq!(result.output, expect, "{context}: {:?} committed out of order", result.op);
        }
        // Queued, they complete in arrival order.
        if depth == 1 || queued {
            let mut sequential = loaded.clone();
            apply(&mut sequential, &mut ops.iter());
            assert_eq!(model, sequential, "{context}: writes overtook each other in the queue");
        }
        let lock_retries: u64 = report.results.iter().map(|r| u64::from(r.lock_retries)).sum();
        assert_eq!(lock_retries, report.stats.retries, "{context}");
        if depth == 1 || local_layer {
            assert_eq!(lock_retries, 0, "{context}: siblings fought over the global word");
        } else {
            assert!(lock_retries > 0, "{context}: siblings never met on the global word");
        }
        let handed_over = report.results.iter().filter(|r| r.handed_over).count() as u64;
        if depth == 1 || !hands_over {
            assert_eq!(handed_over, 0, "{context}");
        } else {
            assert!(handed_over > 0, "{context}: the hot lock was never handed over");
        }
        let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
        assert_eq!(attributed, report.stats.round_trips, "{context}");

        let (scan, _) = client.range(0, model.len() + 10).unwrap();
        let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scan, expect, "{context}: final state differs from the model");
        if depth == 8 {
            let s = &report.stats;
            cost = Some((s.round_trips, s.atomics, lock_retries, handed_over, report.elapsed_ns));
        }
    }
    cost.expect("a depth-8 run")
}

/// Every design on the simulator, and what its depth-8 run costs: one client
/// is deterministic, so a change to any design's acquisition, queueing or
/// release path shows here as a moved verb count or virtual time.  The
/// elapsed times were re-captured when a point write began to charge the CPU
/// of what its probe reads of the locked leaf rather than of the whole leaf
/// (a shorter critical section): the same verbs, retries and handovers, and
/// 7 519 040 → 7 475 668, 3 867 075 → 3 867 030, 2 172 529 → 2 161 480,
/// 1 883 689 → 1 820 680 and 1 776 463, 1 854 889 → 1 747 663 ns.  The two
/// rungs that coincided part: a `Hierarchical` waiter re-checks the lock
/// every 200 ns, a `WaitQueue` one is woken by the release it waits for.
#[test]
fn hot_leaf_writes_match_the_sequential_model_sim() {
    let pins: [HotLeafCost; 6] = [
        (11_988, 9_988, 5_988, 0, 7_475_668),
        (9_988, 7_988, 5_988, 0, 3_867_030),
        (9_988, 7_988, 5_988, 0, 2_161_480),
        (4_000, 2_000, 0, 0, 1_820_680),
        (4_000, 2_000, 0, 0, 1_776_463),
        (4_000, 400, 0, 1_600, 1_747_663),
    ];
    for (lock_strategy, pin) in DESIGNS.into_iter().zip(pins) {
        let cost = hot_leaf_writes_match_the_sequential_model_on::<Fabric>(lock_strategy);
        assert_eq!(cost, pin, "{lock_strategy:?}: the depth-8 run's cost moved");
    }
}

#[test]
fn hot_leaf_writes_match_the_sequential_model_threaded() {
    for lock_strategy in DESIGNS {
        hot_leaf_writes_match_the_sequential_model_on::<ThreadedFabric>(lock_strategy);
    }
}

/// 256 B nodes and a lock table of 32 words per memory server: the leaves of
/// most in-flight writes alias each other's lock words, and those of the
/// parents that splits and merges lock.  Fresh inserts split and a drain
/// merges while siblings hold — or queue for — leaf locks and take further
/// locks of their own; the run terminates, and leaves a tree equal to the
/// model with a clean census and shape.  With `check_followups`, the depth-4
/// run's verb trace also shows the lock discipline held and a follow-up
/// interleaved with its siblings: another op posts inside it
/// ([`check_lock_discipline`]).
fn splits_and_merges_under_aliased_lock_words_on<B: FabricBackend>(check_followups: bool) {
    let mut config = ClusterConfig::small();
    config.fabric.onchip_bytes_per_ms = 64;
    for depth in [4usize, 8, 16] {
        let cluster = Cluster::<B>::new_on(config.clone(), TreeOptions::sherman());
        let pairs: Vec<(u64, u64)> = (0..600u64).map(|k| (k * 8, k + 1)).collect();
        cluster.bulkload(pairs.iter().copied()).unwrap();
        let mut model: BTreeMap<u64, u64> = pairs.into_iter().collect();
        let carved = cluster.pool().nodes_carved();

        // Fresh keys between the loaded ones (splits everywhere), updates,
        // then a drain of all but every sixteenth loaded key (merges, internal
        // merges) — deletes and inserts of one key never share a feed.
        let mut ops: Vec<PipelineOp> = Vec::new();
        for i in 0..2_400u64 {
            let slot = (i * 211) % 600;
            ops.push(match i % 4 {
                3 => PipelineOp::Insert { key: slot * 8, value: i + 10_000 },
                r => PipelineOp::Insert { key: slot * 8 + 1 + r + 3 * (i / 600 % 2), value: i },
            });
        }
        let fill: Vec<PipelineOp> = ops.clone();
        let drain: Vec<PipelineOp> = (0..4_800u64)
            .filter(|k| k % 128 != 0)
            .map(|key| PipelineOp::Delete { key })
            .collect();
        for op in fill.iter().chain(&drain) {
            match *op {
                PipelineOp::Insert { key, value } => {
                    model.insert(key, value);
                }
                PipelineOp::Delete { key } => {
                    model.remove(&key);
                }
                _ => unreachable!("write-only feed"),
            }
        }

        let mut client = cluster.client(0);
        let traced = check_followups && depth == 4;
        let mut run = |ops: Vec<PipelineOp>, phase: &str| {
            if traced {
                client.enable_verb_trace();
            }
            let report = client.run_pipelined(ops, depth).unwrap();
            if traced {
                let context = format!("{phase}, depth {depth}");
                let trace = client.take_verb_trace();
                let discipline = check_lock_discipline(&trace, &context);
                assert!(discipline.followups > 0, "{context}: no follow-up ran");
                assert!(
                    discipline.shared_followups > 0,
                    "{context}: every follow-up ran alone"
                );
            }
            report
        };
        let filled = run(fill, "fill");
        assert!(cluster.pool().nodes_carved() > carved + 20, "depth {depth}: few splits");
        let drained = run(drain, "drain");
        let space = cluster.space_stats();
        assert!(space.leaf_merges > 20, "depth {depth}: {space:?}");
        assert!(space.internal_merges > 0, "depth {depth}: {space:?}");
        for report in [&filled, &drained] {
            let lock_retries: u32 = report.results.iter().map(|r| r.lock_retries).sum();
            assert_eq!(lock_retries, 0, "depth {depth}: one client never loses a CAS");
        }
        assert!(
            filled.results.iter().any(|r| r.handed_over),
            "depth {depth}: no two in-flight writes ever shared a lock word"
        );

        client.quiesce_coherence();
        let (scan, _) = client.range(0, model.len() + 10).unwrap();
        let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scan, expect, "depth {depth}: final state differs from the model");
        let census = cluster.node_census().unwrap();
        assert_eq!(census.total(), cluster.nodes_outstanding(), "depth {depth}");
        let audit = cluster.shape_audit().unwrap();
        assert_eq!(
            (audit.underfull_rightmost_fixable, audit.underfull_internals_fixable),
            (0, 0),
            "depth {depth}: {audit:?}"
        );
    }
}

#[test]
fn splits_and_merges_under_aliased_lock_words_sim() {
    splits_and_merges_under_aliased_lock_words_on::<Fabric>(true);
}

#[test]
fn splits_and_merges_under_aliased_lock_words_threaded() {
    splits_and_merges_under_aliased_lock_words_on::<ThreadedFabric>(false);
}

/// On every level of a quiesced tree, the live nodes of the sibling chain
/// are exactly the children the level above names, in order: no split is
/// left without its separator, no merge without its unlink.
fn assert_levels_linked(cluster: &Cluster, context: &str) {
    use sherman_repro::sherman_memserver::ServerLayout;
    use sherman_sim::GlobalAddress;
    let fabric = cluster.fabric();
    let layout = *cluster.layout();
    let read = |addr: GlobalAddress| {
        let mut buf = vec![0u8; layout.node_size()];
        fabric.god_read(addr, &mut buf).unwrap();
        buf
    };
    // The live nodes of the chain that starts at `head`, with their images.
    let chain = |head: GlobalAddress| {
        let mut nodes = Vec::new();
        let mut cursor = Some(head);
        while let Some(addr) = cursor {
            let buf = read(addr);
            let header = layout.decode_header(&buf);
            assert!(!header.free, "{context}: a freed node {addr:?} is still linked");
            cursor = header.sibling;
            nodes.push((addr, buf));
        }
        nodes
    };
    let root = GlobalAddress::unpack(fabric.god_read_u64(ServerLayout::root_ptr_addr()).unwrap());
    let mut level = chain(root);
    loop {
        let header = layout.decode_header(&level[0].1);
        if header.is_leaf {
            return;
        }
        let named: Vec<GlobalAddress> = level
            .iter()
            .flat_map(|(_, buf)| {
                let node = layout.decode_internal(buf);
                node.header
                    .leftmost
                    .into_iter()
                    .chain(node.entries.iter().map(|e| e.child))
                    .collect::<Vec<_>>()
            })
            .collect();
        let below = chain(named[0]);
        let linked: Vec<GlobalAddress> = below.iter().map(|(addr, _)| *addr).collect();
        assert_eq!(
            linked,
            named,
            "{context}: level {} links other children than level {} names",
            header.level - 1,
            header.level
        );
        level = below;
    }
}

/// A cluster whose pool runs dry after a few hundred carves, loaded with
/// 1 024 even keys: one 48 KiB chunk of 256-byte nodes per server past the
/// 4 KiB superblock, as the hostile suite's pool-exhaustion run has.
fn tiny_pool_cluster() -> Arc<Cluster> {
    let config = ClusterConfig {
        fabric: FabricConfig {
            host_bytes_per_ms: 52 << 10,
            memory_servers: 2,
            compute_servers: 1,
            ..FabricConfig::small_test()
        },
        tree: TreeConfig {
            node_size: 256,
            chunk_bytes: 48 << 10,
            ..TreeConfig::small_test()
        },
    };
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster
        .bulkload((0..1024u64).map(|k| (k * 2, k)))
        .expect("bulkload");
    cluster
}

/// After a failed batch: a next batch updating every key left takes every
/// lock at its first attempt (no lock word was left held), every carved node
/// is reachable, and every level links exactly the children its parents
/// name.
fn assert_left_clean(cluster: &Cluster, client: &mut TreeClient, context: &str) {
    let (present, _) = client.range(0, 8_192).expect("range");
    let updates: Vec<PipelineOp> = present
        .iter()
        .map(|&(key, _)| PipelineOp::Insert { key, value: key + 1 })
        .collect();
    let report = client.run_pipelined(updates, 4).expect("updates after the failure");
    let lock_retries: u32 = report.results.iter().map(|r| r.lock_retries).sum();
    assert_eq!(lock_retries, 0, "{context}: a lock word was left held");
    let census = cluster.node_census().unwrap();
    assert_eq!(census.total(), cluster.nodes_outstanding(), "{context}");
    assert_levels_linked(cluster, context);
}

/// Unwrap the allocation error a batch on a dry pool fails with.
fn assert_exhausted(result: TreeResult<PipelineReport>) {
    match result {
        Err(TreeError::Allocation(msg)) => {
            assert!(msg.contains("memory pool exhausted"), "{msg}");
        }
        other => panic!("expected allocation backpressure, got {other:?}"),
    }
}

/// A depth-4 batch of appends on a pool that runs dry while splits are in
/// flight fails with the allocation error — and leaves nothing behind: every
/// critical section closed, no lock word held, every carved node reachable,
/// and every split that happened linked into its parent level.
#[test]
fn a_failed_batch_finishes_what_began_a_lock_acquisition() {
    let cluster = tiny_pool_cluster();
    let mut client = cluster.client(0);
    client.enable_verb_trace();
    // Appends at the right edge, a lookup behind every three.
    let appends = (0..4_000u64).map(|i| match i % 4 {
        3 => PipelineOp::Lookup { key: 10_000 + i - 3 },
        _ => PipelineOp::Insert { key: 10_000 + i, value: i },
    });
    assert_exhausted(client.run_pipelined(appends, 4));
    assert!(cluster.pool().backpressure().snapshot().exhaustion_events > 0);
    let context = "failed appends";
    let discipline = check_lock_discipline(&client.take_verb_trace(), context);
    assert!(discipline.followups > 0, "{context}: no split ran");
    assert_left_clean(&cluster, &mut client, context);
}

/// A failed batch leaves no operation's cost record behind: the next
/// batch's operations, which reuse its operation ids, cost exactly what the
/// client counted for the batch.
#[test]
fn a_failed_batch_leaves_no_cost_record_behind() {
    let cluster = tiny_pool_cluster();
    for ms in 0..2u16 {
        while cluster.pool().alloc_chunk_untimed(ms).is_ok() {}
    }
    let mut client = cluster.client(0);
    let appends = (0..4_000u64).map(|i| PipelineOp::Insert { key: 10_000 + i, value: i });
    assert_exhausted(client.run_pipelined(appends, 4));
    let lookups = (0..64u64).map(|k| PipelineOp::Lookup { key: k * 2 });
    let report = client.run_pipelined(lookups, 4).expect("lookups after the failure");
    let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
    let written: u64 = report.results.iter().map(|r| r.bytes_written).sum();
    assert_eq!(
        (attributed, written),
        (report.stats.round_trips, report.stats.bytes_written)
    );
}

/// On a pool already dry, a depth-4 batch of deletes that merge, with an
/// insert that must split every eighth op, fails at the first split — while
/// a sibling's merge holds its three locks.  That merge runs to its end: the
/// trace shows every section closed and the tree is left clean.
#[test]
fn a_failed_batch_runs_its_merges_to_their_end() {
    let cluster = tiny_pool_cluster();
    for ms in 0..2u16 {
        while cluster.pool().alloc_chunk_untimed(ms).is_ok() {}
    }
    let mut client = cluster.client(0);
    client.enable_verb_trace();
    let ops = (0..400u64).map(|i| match i % 8 {
        7 => PipelineOp::Insert { key: 1_001 + i / 8 * 2, value: i },
        _ => PipelineOp::Delete { key: (i - i / 8) * 2 },
    });
    assert_exhausted(client.run_pipelined(ops, 4));
    let context = "failed deletes";
    check_lock_discipline(&client.take_verb_trace(), context);
    assert!(cluster.space_stats().leaf_merges > 0, "{context}: no merge ran");
    assert_left_clean(&cluster, &mut client, context);
}
