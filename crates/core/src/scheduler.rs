//! The pipelined tree-operation scheduler: N logical operations multiplexed
//! round-robin over **one** fabric context.
//!
//! The split-phase fabric fixes a verb's completion time at post time and
//! lets the poster keep going, but a single tree operation is inherently
//! sequential — it cannot post its next read before the previous one
//! resolves.  Throughput therefore comes from *operation-level* parallelism:
//! the scheduler keeps up to `depth` independent operations (each a resumable
//! state machine from the `ops` module) in flight on one `ClientCtx`, stepping
//! whichever operation's verb completes first.  One thread then overlaps up
//! to `depth` network round trips, which is how Sherman's evaluation (and
//! DEX, more aggressively) hides RDMA latency with multiple coroutines per
//! client thread.
//!
//! Scheduling is completion-driven round-robin: the earliest completion on
//! the shared completion queue decides which operation runs next, a finished
//! operation's slot immediately pulls the next operation from the feed, and
//! a `depth` of 1 degenerates to exactly the blocking path (post one verb,
//! poll it) — the equivalence the `pipelined_equivalence` and
//! `write_pipelining` suites pin down.
//!
//! ## Writes pipeline too — with atomic critical sections
//!
//! Inserts and deletes join the pipeline: their *location* phase is the same
//! lock-free descent a lookup uses and overlaps freely with every other
//! in-flight operation.  Their lock critical section, however, is executed
//! atomically inside a single state-machine step (see `ops`): between the
//! lock acquire and the release post no other operation is stepped, so no
//! foreign verb can interleave into the critical section on this context —
//! and no operation is ever parked while holding a lock (which could
//! otherwise livelock the single thread against its own lock).  On the fast
//! path only the combined write-back + release verb remains outstanding when
//! the step returns; its memory effect applied at post time, so other
//! operations resume immediately while the release completion is still in
//! flight (DEX-style lock-conscious pipelining).
//!
//! ## Attributing completions to operations
//!
//! All in-flight operations share one completion queue.  Every posted verb
//! is tagged with its operation's id (`ClientCtx::set_current_op`), so the
//! fabric can attribute each completion's round trip and wait to the op that
//! posted it.  A [`PipelinedResult::latency_ns`] is the sum of the op's own
//! verb waits and CPU charges — its serial service demand — which at depth 1
//! equals wall-clock latency exactly and at depth > 1 excludes time spent
//! advancing *other* operations (the bug the untagged wall-clock measurement
//! had).
//!
//! The driver is single-threaded and deterministic: two runs over the same
//! cluster state, operation feed and depth execute the same verbs in the
//! same order and report identical virtual-time totals.

use crate::client::TreeClient;
use crate::ops::{OpMeta, OpOutput, OpSM, Step};
use crate::TreeResult;
use sherman_memserver::EpochPin;
use sherman_metrics::OverlapGauges;
use sherman_sim::{ClientStats, Completion, FabricBackend, PendingVerb};

/// One operation for the pipelined driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOp {
    /// Point lookup of `key`.
    Lookup {
        /// Target key.
        key: u64,
    },
    /// Scan `count` entries starting from the smallest key `>= start_key`.
    Range {
        /// First key of the scan.
        start_key: u64,
        /// Number of entries requested.
        count: usize,
    },
    /// Insert (or update) `key → value`.
    Insert {
        /// Target key.
        key: u64,
        /// Value to install.
        value: u64,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// One completed pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedResult {
    /// The operation that ran.
    pub op: PipelineOp,
    /// Its result.
    pub output: OpOutput,
    /// This operation's own service time: the verb waits and CPU charges
    /// attributed to it through its op-id-tagged completions.  At depth 1
    /// this equals the wall-clock latency of the blocking path; at depth > 1
    /// it deliberately excludes time spent advancing other in-flight
    /// operations (which the old wall-clock measurement wrongly included).
    pub latency_ns: u64,
    /// Round trips this operation's tagged verbs completed.
    pub round_trips: u64,
    /// Bytes this operation's tagged verbs wrote to remote memory.
    pub bytes_written: u64,
    /// Consistency-check retries this operation performed.
    pub read_retries: u64,
    /// Whether a write operation obtained its lock via local handover.
    pub handed_over: bool,
    /// Whether the operation's leaf address came from the index cache.
    pub cache_hit: bool,
}

/// What one pipelined run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-operation results, in completion order.
    pub results: Vec<PipelinedResult>,
    /// Elapsed virtual time of the whole run.
    pub elapsed_ns: u64,
    /// Fabric counters accumulated by the run (delta over the client).
    pub stats: ClientStats,
    /// Overlap gauges derived from `stats` and `elapsed_ns`.
    pub overlap: OverlapGauges,
}

impl PipelineReport {
    /// Operations completed per virtual second.
    pub fn throughput_ops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.results.len() as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Build the overlap gauges for one run from its fabric-stats delta and
/// elapsed virtual time — the single place the `ClientStats` counters map
/// onto [`OverlapGauges`], shared by the scheduler and the blocking
/// reference driver in the bench harness.
pub fn overlap_from_stats(stats: &ClientStats, elapsed_ns: u64) -> OverlapGauges {
    OverlapGauges {
        round_trips: stats.round_trips,
        overlapped_round_trips: stats.overlapped_round_trips,
        max_in_flight: stats.max_in_flight,
        in_flight_posts: stats.in_flight_posts,
        serial_verb_ns: stats.verb_ns,
        elapsed_ns,
    }
}

/// One in-flight operation: its machine, bookkeeping, and the token of the
/// verb it is waiting on (`None` only transiently, between steps).
struct Slot {
    /// Scheduler-assigned operation id; every verb the op posts carries it,
    /// which is how the shared completion queue attributes completions.
    id: u64,
    op: PipelineOp,
    sm: OpSM,
    meta: OpMeta,
    /// Token of the verb this operation is parked on (`None` only while the
    /// slot is being stepped).
    waiting_on: Option<PendingVerb>,
    /// Pins the reclamation epoch for this operation's whole lifetime, like
    /// the blocking entry points do.  Pins on one reader handle nest, so N
    /// concurrent operations hold the oldest epoch — conservative and safe.
    _pin: EpochPin,
}

impl<B: FabricBackend> TreeClient<B> {
    /// Run `ops` with up to `depth` operations in flight on this client's
    /// single fabric context, returning every result plus the run's overlap
    /// gauges.  `depth == 1` executes exactly the blocking path.
    ///
    /// All four operation kinds pipeline.  Reads are lock-free throughout;
    /// writes overlap during their location phase and execute their lock
    /// critical section atomically within one step, leaving at most the
    /// deferred write-back + release verb outstanding (see the module docs).
    pub fn run_pipelined(
        &mut self,
        ops: impl IntoIterator<Item = PipelineOp>,
        depth: usize,
    ) -> TreeResult<PipelineReport> {
        let depth = depth.max(1);
        // The in-flight high-water mark is a lifetime gauge on the client;
        // make it per-run so a reused client reports this run's depth.
        self.ctx.reset_max_in_flight();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let mut feed = ops.into_iter();
        let mut slots: Vec<Option<Slot>> = Vec::new();
        slots.resize_with(depth, || None);
        let mut results = Vec::new();
        let mut next_id: u64 = 0;

        // Drive one slot until it parks on a posted verb or completes; a
        // completed slot immediately pulls the next operation from the feed.
        // Returns Err on operation failure (the caller drains the queue).
        fn advance<B: FabricBackend>(
            client: &mut TreeClient<B>,
            slot: &mut Option<Slot>,
            feed: &mut impl Iterator<Item = PipelineOp>,
            next_id: &mut u64,
            results: &mut Vec<PipelinedResult>,
            mut completion: Option<Completion>,
        ) -> TreeResult<()> {
            loop {
                let Some(active) = slot.as_mut() else {
                    // Park an empty slot on the next operation of the feed.
                    let Some(op) = feed.next() else {
                        return Ok(());
                    };
                    let id = *next_id;
                    *next_id += 1;
                    // Operation boundary: apply any delivered coherence
                    // messages before the op routes through the cache — the
                    // same drain point the blocking entry points use, so
                    // depth 1 stays byte-for-byte identical to blocking.
                    client.drain_coherence();
                    let pin = client.reader.pin();
                    *slot = Some(Slot {
                        id,
                        op,
                        sm: OpSM::new(&client.op_cx(), op),
                        meta: OpMeta::default(),
                        waiting_on: None,
                        _pin: pin,
                    });
                    completion = None;
                    continue;
                };
                // Tag every verb (and CPU charge) of this step with the op's
                // id so the shared completion queue can attribute it.
                client.ctx.set_current_op(Some(active.id));
                let step = active
                    .sm
                    .step(&mut client.op_cx(), &mut active.meta, completion.take());
                client.ctx.set_current_op(None);
                match step? {
                    Step::Pending(token) => {
                        active.waiting_on = Some(token);
                        return Ok(());
                    }
                    Step::Done(output) => {
                        let finished = slot.take().expect("active slot");
                        let op_stats = client.ctx.take_op_stats(finished.id);
                        results.push(PipelinedResult {
                            op: finished.op,
                            output,
                            latency_ns: op_stats.latency_ns(),
                            round_trips: op_stats.round_trips,
                            bytes_written: op_stats.bytes_written,
                            read_retries: finished.meta.read_retries,
                            handed_over: finished.meta.handed_over,
                            cache_hit: finished.meta.cache_hit,
                        });
                        // The slot is free: pull the next operation.
                        continue;
                    }
                }
            }
        }

        let run = (|| -> TreeResult<()> {
            // Fill every slot.
            for slot in slots.iter_mut() {
                advance(self, slot, &mut feed, &mut next_id, &mut results, None)?;
            }
            // Completion-driven loop: the earliest outstanding verb decides
            // which operation advances.
            while slots.iter().any(Option::is_some) {
                let completion = self
                    .ctx
                    .poll(None)
                    .expect("every in-flight operation has an outstanding verb");
                let idx = slots
                    .iter()
                    .position(|s| {
                        s.as_ref()
                            .is_some_and(|slot| slot.waiting_on == Some(completion.token))
                    })
                    .expect("completion token belongs to an in-flight operation");
                advance(
                    self,
                    &mut slots[idx],
                    &mut feed,
                    &mut next_id,
                    &mut results,
                    Some(completion),
                )?;
            }
            Ok(())
        })();
        if let Err(e) = run {
            // Leave the context clean: observe every outstanding completion
            // before surfacing the failure.
            self.ctx.drain();
            return Err(e);
        }

        let elapsed_ns = self.ctx.now().saturating_sub(t0);
        let stats = self.ctx.stats().delta_since(&before);
        // The overlap window ends at the run's *last completion*, not at the
        // current clock: the tail between the final completion and the
        // driver's return (result bookkeeping, trailing CPU charges) has no
        // verbs in flight by definition and used to dilute the gauges.
        let window_ns = stats
            .last_completion_at
            .clamp(t0, self.ctx.now())
            .saturating_sub(t0);
        let overlap = overlap_from_stats(&stats, window_ns);
        Ok(PipelineReport {
            results,
            elapsed_ns,
            stats,
            overlap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::TreeOptions;
    use std::sync::Arc;

    fn loaded_cluster(n: u64) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..n).map(|k| (k, k * 2 + 1))).unwrap();
        cluster
    }

    fn lookups(keys: impl IntoIterator<Item = u64>) -> Vec<PipelineOp> {
        keys.into_iter().map(|key| PipelineOp::Lookup { key }).collect()
    }

    #[test]
    fn pipelined_lookups_return_correct_values_at_every_depth() {
        let cluster = loaded_cluster(2_000);
        for depth in [1usize, 2, 4, 8] {
            let mut client = cluster.client(0);
            let keys: Vec<u64> = (0..200u64).map(|i| (i * 37) % 2_500).collect();
            let report = client.run_pipelined(lookups(keys.clone()), depth).unwrap();
            assert_eq!(report.results.len(), keys.len());
            for r in &report.results {
                let PipelineOp::Lookup { key } = r.op else { panic!() };
                let expect = (key < 2_000).then_some(key * 2 + 1);
                assert_eq!(r.output, OpOutput::Lookup(expect), "depth {depth} key {key}");
            }
        }
    }

    #[test]
    fn depth_one_matches_the_blocking_path_exactly() {
        let keys: Vec<u64> = (0..150u64).map(|i| (i * 101) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let mut blocking = cluster.client(0);
        let tb0 = blocking.now();
        for &k in &keys {
            blocking.lookup(k).unwrap();
        }
        let blocking_elapsed = blocking.now() - tb0;
        drop(blocking);

        let cluster = loaded_cluster(2_000);
        let mut pipelined = cluster.client(0);
        let report = pipelined.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(
            report.elapsed_ns, blocking_elapsed,
            "depth 1 must execute the same verbs at the same virtual times"
        );
        assert_eq!(report.overlap.max_in_flight, 1);
        assert_eq!(report.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn deeper_pipelines_overlap_and_speed_up_uniform_lookups() {
        let keys: Vec<u64> = (0..400u64).map(|i| (i * 997) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let d1 = cluster.client(0).run_pipelined(lookups(keys.clone()), 1).unwrap();

        let cluster = loaded_cluster(2_000);
        let d4 = cluster.client(0).run_pipelined(lookups(keys), 4).unwrap();

        assert!(
            d4.elapsed_ns * 3 < d1.elapsed_ns * 2,
            "depth 4 ({}) should be at least 1.5x faster than depth 1 ({})",
            d4.elapsed_ns,
            d1.elapsed_ns
        );
        assert!(d4.overlap.mean_in_flight() > 1.5, "mean in-flight {}", d4.overlap.mean_in_flight());
        assert!(d4.overlap.max_in_flight >= 3);
        assert!(d4.overlap.overlap_factor() > 1.5);
        assert!(d4.stats.overlapped_round_trips > 0);
    }

    #[test]
    fn pipelined_range_scans_work_alongside_lookups() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(PipelineOp::Lookup { key: i * 40 });
            ops.push(PipelineOp::Range {
                start_key: i * 40,
                count: 10,
            });
        }
        let report = client.run_pipelined(ops, 4).unwrap();
        assert_eq!(report.results.len(), 80);
        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    assert_eq!(*v, Some(key * 2 + 1));
                }
                (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                    assert_eq!(scan.len(), *count);
                    assert_eq!(scan[0].0, *start_key);
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
                }
                other => panic!("mismatched op/output {other:?}"),
            }
        }
    }

    #[test]
    fn scheduler_is_deterministic() {
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 31) % 2_000).collect();
        let run = || {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let report = client.run_pipelined(lookups(keys.clone()), 4).unwrap();
            (report.elapsed_ns, report.stats, report.results)
        };
        let (e1, s1, r1) = run();
        let (e2, s2, r2) = run();
        assert_eq!(e1, e2, "virtual-time totals must be identical");
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn reused_client_reports_per_run_in_flight_highwater() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 17 % 2_000).collect();
        let deep = client.run_pipelined(lookups(keys.clone()), 8).unwrap();
        assert!(deep.overlap.max_in_flight >= 4);
        // A later depth-1 run on the *same* client must not inherit the
        // earlier run's high-water mark.
        let shallow = client.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(shallow.overlap.max_in_flight, 1);
        assert_eq!(shallow.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn pipelined_writes_commit_at_every_depth() {
        for depth in [1usize, 4, 8] {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let mut ops = Vec::new();
            for i in 0..120u64 {
                ops.push(PipelineOp::Insert {
                    key: 10_000 + i,
                    value: i + 1,
                });
                ops.push(PipelineOp::Delete { key: i * 3 });
                ops.push(PipelineOp::Lookup { key: i * 5 + 1 });
            }
            let report = client.run_pipelined(ops, depth).unwrap();
            assert_eq!(report.results.len(), 360);
            for r in &report.results {
                match (&r.op, &r.output) {
                    (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
                    (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                        assert!(*found, "depth {depth}: delete {key} missed its key");
                    }
                    (PipelineOp::Lookup { .. }, OpOutput::Lookup(_)) => {}
                    other => panic!("mismatched op/output {other:?}"),
                }
                assert!(r.round_trips > 0, "depth {depth}: untagged op {:?}", r.op);
            }
            // Every tagged round trip is attributed to exactly one result.
            let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
            assert_eq!(attributed, report.stats.round_trips, "depth {depth}");
            // Post-state: inserts visible, deleted keys gone.
            for i in 0..120u64 {
                assert_eq!(client.lookup(10_000 + i).unwrap().0, Some(i + 1), "depth {depth}");
                assert_eq!(client.lookup(i * 3).unwrap().0, None, "depth {depth}");
            }
        }
    }

    #[test]
    fn empty_feed_returns_an_empty_report() {
        let cluster = loaded_cluster(100);
        let mut client = cluster.client(0);
        let report = client.run_pipelined(std::iter::empty(), 8).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.stats.round_trips, 0);
    }
}
