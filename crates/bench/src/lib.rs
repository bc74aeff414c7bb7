//! # sherman_bench — the experiment harness
//!
//! One binary per table/figure of the Sherman paper, plus the sweeps that go
//! beyond it (see `src/bin/`); their gates are this crate's unit tests.
//! Every binary that measures the tree is an argument table over one driver:
//!
//! * [`experiment`] — the [`Experiment`] (cluster, clients, a [`Source`] of
//!   operations, a [`DrivePath`]), the generic [`run`] — every simulated
//!   client on one executor, a thread per client on the real clock — and
//!   the [`RunReport`] it returns:
//!   throughput, latency percentiles, the internal distributions of Figure
//!   14, overlap gauges, and an end-of-run snapshot of the cluster (census,
//!   audits, reclamation / coherence / epoch / offload / backpressure gauges),
//! * [`presets`] — the scale each family of binaries starts from (the
//!   paper's evaluation point, the pipeline depth sweep, window churn, the
//!   hostile scenarios with their memory-pressure regimes, the offload
//!   regime map) and its `--quick` caps,
//! * [`lockbench`] — the lock-service microbenchmarks behind Figure 2 and
//!   Figure 16 (no tree involved),
//! * [`fabricbench`] — raw `RDMA_WRITE` throughput versus IO size (Figure 3),
//! * [`figures`] — the tables more than one binary prints, and Figure 15's
//!   deep-tree cache sweep, which its gate runs too,
//! * [`report`] — plain-text table formatting,
//! * [`args`] — the strict `--key value` command-line parser shared by the
//!   binaries (every experiment parameter can be overridden; a typo is an
//!   error, not a default).
//!
//! All numbers are measured in the fabric simulator's virtual time unless a
//! binary is given `--backend threaded`; see `docs/ARCHITECTURE.md` for the
//! calibration and the crate map.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod experiment;
pub mod fabricbench;
pub mod figures;
pub mod lockbench;
pub mod presets;
pub mod report;

pub use args::Args;
pub use experiment::{
    run, run_with_backend, DrivePath, Experiment, QuickCaps, RunReport, Source,
};
pub use fabricbench::{run_write_size_sweep, WriteSizePoint};
pub use lockbench::{run_lock_experiment, LockExperiment, LOCK_LADDER};
pub use presets::{hostile_spec, hostile_suite, MemoryPressure};
pub use report::{fmt_mops, fmt_us, print_table};

mod pins;

// Unit tests of `run`, one module per family of experiments.  The module
// paths are the ones these tests had when each family had a driver of its
// own: a test's path is its id in the tier-1 floor, and the floor reads a
// moved id as a test that vanished.
#[cfg(test)]
mod runner {
    mod tests {
        use crate::presets::{PAPER_QUICK, PIPELINE_QUICK};
        use crate::{run, DrivePath, Experiment, RunReport};
        use sherman::{TreeConfig, TreeOptions};
        use sherman_sim::{Fabric, FabricConfig};

        /// Two clients against two memory servers over 4 k keys.
        fn tiny(mut exp: Experiment, ops_per_thread: usize) -> RunReport {
            exp.fabric = FabricConfig {
                memory_servers: 2,
                ..exp.fabric
            };
            exp.threads = 2;
            exp.source.set_key_space(1 << 12);
            exp.ops_per_thread = ops_per_thread;
            exp.tree = TreeConfig {
                cache_bytes: 1 << 20,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            };
            run::<Fabric>(&exp).expect_clean()
        }

        fn tiny_paper(options: TreeOptions, drive: DrivePath) -> RunReport {
            let mut exp = Experiment::paper("tiny", options);
            exp.drive = drive;
            tiny(exp, 40)
        }

        /// The pipeline gate's scale: the depth sweep's uniform workload,
        /// `insert_pct` percent inserts, under `PIPELINE_QUICK`.
        fn quick_pipeline(drive: DrivePath, insert_pct: u8) -> RunReport {
            let exp = Experiment::pipeline("pipe", drive, 0, insert_pct).capped(&PIPELINE_QUICK);
            run::<Fabric>(&exp).expect_clean()
        }

        #[test]
        fn sherman_experiment_produces_sane_numbers() {
            let result = tiny_paper(TreeOptions::sherman(), DrivePath::Blocking);
            assert_eq!(result.summary.ops, 80);
            assert!(result.summary.throughput_ops > 0.0);
            assert!(result.summary.p99_ns >= result.summary.p50_ns);
            assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
            // Write ops exist in a write-intensive mix and their sizes are
            // entry-granular for Sherman.
            assert!(result.write_sizes.total() > 0);
            assert!(result.write_sizes.mean() < 200.0);
        }

        #[test]
        fn baseline_writes_whole_nodes() {
            let result = tiny_paper(TreeOptions::fg_plus(), DrivePath::Blocking);
            assert!(result.write_sizes.mean() >= 1024.0);
            // FG+ needs at least one more round trip per write than Sherman.
            let sherman = tiny_paper(TreeOptions::sherman(), DrivePath::Blocking);
            assert!(
                result.write_round_trips.mean() > sherman.write_round_trips.mean(),
                "FG+ {} vs Sherman {}",
                result.write_round_trips.mean(),
                sherman.write_round_trips.mean()
            );
        }

        #[test]
        fn depth_one_pipeline_matches_the_blocking_reference() {
            let blocking = quick_pipeline(DrivePath::Blocking, 0);
            let depth1 = quick_pipeline(DrivePath::Pipelined(1), 0);
            let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
            assert!(
                (0.95..=1.05).contains(&ratio),
                "depth-1 must reproduce the blocking path within 5%, ratio {ratio:.3}"
            );
            assert_eq!(depth1.overlap.max_in_flight, 1);
            assert_eq!(depth1.overlap.overlapped_round_trips, 0);
        }

        #[test]
        fn depth_four_pipeline_overlaps_and_outperforms() {
            let depth1 = quick_pipeline(DrivePath::Pipelined(1), 0);
            let depth4 = quick_pipeline(DrivePath::Pipelined(4), 0);
            let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
            assert!(
                speedup >= 1.5,
                "depth 4 should beat depth 1 by 1.5x on uniform lookups, got {speedup:.2}x"
            );
            assert!(
                depth4.overlap.mean_in_flight() > 1.5,
                "mean in-flight {:.2}",
                depth4.overlap.mean_in_flight()
            );
            assert!(depth4.overlap.overlapped_round_trips > 0);
            assert!(depth4.overlap.overlap_factor() > depth1.overlap.overlap_factor());
        }

        #[test]
        fn tree_experiment_reports_its_drive_path_and_pipelines_writes() {
            let blocking = tiny_paper(TreeOptions::sherman(), DrivePath::Blocking);
            assert_eq!(blocking.drive, DrivePath::Blocking);

            let piped = tiny_paper(TreeOptions::sherman(), DrivePath::Pipelined(4));
            assert_eq!(piped.drive, DrivePath::Pipelined(4));
            // The mixed write-intensive workload really ran (and through the
            // scheduler): same op count, write histograms populated.
            assert_eq!(piped.summary.ops, 80);
            assert!(piped.write_sizes.total() > 0);
            assert!(piped.write_round_trips.total() > 0);
        }

        /// A pipelined write parks on its lock round trip like any other
        /// verb: on 50 % inserts depth 4 overlaps more than on reads, and
        /// depth 8 at least quadruples the blocking loop.
        #[test]
        fn mixed_depth_one_matches_blocking_and_depth_four_overlaps() {
            let blocking = quick_pipeline(DrivePath::Blocking, 50);
            let depth1 = quick_pipeline(DrivePath::Pipelined(1), 50);
            let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
            assert!(
                (0.95..=1.05).contains(&ratio),
                "depth-1 mixed must reproduce the blocking path within 5%, ratio {ratio:.3}"
            );
            let depth4 = quick_pipeline(DrivePath::Pipelined(4), 50);
            let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
            assert!(
                speedup >= 2.5,
                "depth 4 should beat depth 1 by 2.5x on 50% inserts, got {speedup:.2}x"
            );
            assert!(depth4.overlap.overlapped_round_trips > 0);
            assert!(
                depth4.overlap.mean_in_flight() > 1.5,
                "mean in-flight {:.2}",
                depth4.overlap.mean_in_flight()
            );
            let depth8 = quick_pipeline(DrivePath::Pipelined(8), 50);
            let speedup = depth8.summary.throughput_ops / blocking.summary.throughput_ops;
            assert!(
                speedup >= 4.0,
                "depth 8 should beat blocking by 4x on 50% inserts, got {speedup:.2}x"
            );
        }

        #[test]
        fn pipeline_experiment_supports_scans() {
            let result = tiny(Experiment::pipeline("pipe", DrivePath::Pipelined(4), 20, 0), 150);
            assert_eq!(result.summary.ops, 300);
            assert!(result.summary.throughput_ops > 0.0);
            assert!(result.cache_hit_ratio > 0.5, "bulkload warms the cache");
        }

        #[test]
        fn quick_shrinks_the_experiment() {
            let mut exp = Experiment::paper("x", TreeOptions::sherman());
            exp.source.workload_mut().range_size = 1_000; // as fig12's large-scan rows configure
            let mut exp = exp.capped(&PAPER_QUICK);
            assert!(exp.threads <= 4);
            assert!(exp.ops_per_thread <= 100);
            let spec = exp.source.workload_mut();
            assert!(spec.range_size <= 100, "quick runs must cap scan size");
            assert_eq!((spec.key_space, spec.bulkload_keys), (1 << 15, 26_214));
            spec.validate().unwrap();
        }
    }
}

#[cfg(test)]
mod churnbench {
    mod tests {
        use crate::presets::CHURN_QUICK;
        use crate::{run, Experiment, RunReport, Source};
        use sherman::{TreeConfig, TreeOptions};
        use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};

        /// Bytes a structural commit of the churn gate may write back on
        /// average: the worst of twenty release runs on threads in this
        /// harness, 412 (283–412; the simulator measures 272), plus 10 %.  A
        /// split writes two nodes, a separator insertion one, a merge three,
        /// so whole 1 KB nodes would average two of them.
        const STRUCTURAL_BYTES_CEILING: f64 = 454.0;

        /// What one dependent step of an operation costs on `exp`'s fabric
        /// when nothing queues: a round trip for a node — the post, the wire
        /// both ways, the node through a NIC port — and the CPU to scan it (a
        /// cached lookup, in other words).  The unit in which a latency reads
        /// as a dependency depth.
        fn modeled_round_trip_ns(exp: &Experiment) -> u64 {
            let (fabric, node) = (&exp.fabric, exp.tree.node_size);
            fabric.cs_post_overhead_ns
                + fabric.base_rtt_ns
                + fabric.nic_service_ns(0)
                + fabric.nic_service_ns(node)
                + fabric.cpu_scan_ns(node)
        }

        /// The merges-on churn at `CHURN_QUICK` scale keeps its shape, its
        /// cache coherence and its structural costs.  Space amplification,
        /// the write p99 and the plan fallback share are timing-coupled: the
        /// OS scheduler perturbs them on real threads, and there another
        /// client holds a lock for as long as the OS keeps it off the CPU.
        /// Only the simulator, where time is modeled, is held to them.  What
        /// a structural commit writes back is counted, not timed, so its
        /// ceiling holds on both backends.
        fn churn_gate<B: FabricBackend>() {
            let exp = Experiment::churn("gate", TreeOptions::sherman()).capped(&CHURN_QUICK);
            let r = run::<B>(&exp).expect_clean();
            let Source::Churn { turnover, .. } = exp.source else {
                unreachable!("a churn experiment has a churn source");
            };
            let bytes = r.space.bytes_per_structural_commit();
            println!(
                "churn gate: turnovers={:.1} space_amp={:.2} merges={} left_merges={} \
                 edge_merges={} plans={} fallbacks={} write_p99_ns={} \
                 structural_commits={} bytes_per_structural_commit={bytes:.0}",
                r.turnovers,
                r.space_amplification(),
                r.space.merges(),
                r.space.left_merges,
                r.space.edge_merges,
                r.space.optimistic_plans,
                r.space.plan_fallbacks,
                r.write_latency().p99(),
                r.space.structural_commits,
            );
            assert!(
                r.turnovers >= turnover,
                "turnover {:.1} below the {turnover:.1} target",
                r.turnovers
            );
            assert!(
                r.space.edge_merges > 0,
                "no merge at the tree's left edge kept the right leaf: \
                 drained first leaves are absorbing their siblings again"
            );
            assert!(
                r.space.left_merges > 0,
                "zero left merges: the rightmost-child shape leak is back"
            );
            assert_eq!(
                r.audit.underfull_rightmost_fixable, 0,
                "rightmost children stayed underfull with a viable left sibling"
            );
            assert_eq!(
                r.audit.underfull_internals_fixable, 0,
                "internal nodes stayed underfull with a viable rebalance partner"
            );
            assert_eq!(
                r.audit.mistagged_slots, 0,
                "leaf slots hold a key tag that is not their key's"
            );
            assert!(
                r.space.merges() == 0 || r.coherence.invalidations_posted > 0,
                "merges retired nodes but posted zero coherence invalidations: \
                 the typestate publish path is being bypassed"
            );
            assert_eq!(
                r.coherence.pending(),
                0,
                "coherence messages still pending after every server quiesced"
            );
            assert_eq!(
                r.stale_hits_after_drain, 0,
                "stale cache hits served after all coherence inboxes drained"
            );
            assert!(
                bytes <= STRUCTURAL_BYTES_CEILING,
                "{} structural commits wrote back {bytes:.0} bytes each, above \
                 {STRUCTURAL_BYTES_CEILING:.0}: more is travelling than what changed",
                r.space.structural_commits
            );
            if !B::VIRTUAL_CLOCK {
                return;
            }
            assert!(
                r.space_amplification() <= 2.0,
                "space amplification {:.2} exceeds 2x",
                r.space_amplification()
            );
            let (write_p99, depth_bound) =
                (r.write_latency().p99(), 5 * modeled_round_trip_ns(&exp));
            assert!(
                write_p99 <= depth_bound,
                "p99 write {write_p99} ns exceeds five modeled round trips ({depth_bound} ns): \
                 a structural commit waits for more than it depends on"
            );
            assert!(
                r.space.fallback_share() <= 0.2,
                "{} of {} optimistic merge lock plans fell back to the rank-ordered acquisition",
                r.space.plan_fallbacks,
                r.space.optimistic_plans
            );
        }

        #[test]
        fn churn_gate_holds_on_the_simulator() {
            churn_gate::<Fabric>();
        }

        #[test]
        fn churn_gate_holds_on_threads() {
            churn_gate::<ThreadedFabric>();
        }

        fn tiny(options: TreeOptions) -> RunReport {
            let mut exp = Experiment::churn("tiny-churn", options);
            exp.threads = 2;
            exp.source.set_key_space(1_500);
            exp.tree = TreeConfig {
                node_size: 256,
                cache_bytes: 1 << 20,
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            };
            run::<Fabric>(&exp).expect_clean()
        }

        #[test]
        fn churn_with_merges_bounds_space_amplification() {
            let on = tiny(TreeOptions::sherman());
            assert!(
                on.turnovers >= 10.0,
                "acceptance requires ≥10× turnover, got {:.1}",
                on.turnovers
            );
            assert!(on.space.leaf_merges > 0, "churn must trigger merges");
            assert!(on.reclaim.retired > 0);
            assert!(on.reclaim.reused > 0, "retired nodes must be recycled");
            // The acceptance bar: total allocated node addresses stay within 2×
            // of the steady-state live tree.
            assert!(
                on.space_amplification() < 2.0,
                "space amplification {:.2} (carved {} vs live {})",
                on.space_amplification(),
                on.nodes_carved,
                on.census.total()
            );
            // Book-keeping agrees with the reachability walk.
            assert_eq!(on.nodes_outstanding, on.census.total());
            assert!(on.summary.throughput_ops > 0.0);
            // The monitor thread sampled the shape while the churn ran.
            assert!(
                !on.shape_timeline.is_empty(),
                "thread 0 must collect mid-run shape samples"
            );
            // Merges publish coherence messages toward the other compute server,
            // the post-run quiesce drains them all, and the verification sweep
            // finds no route left pointing at a retired node.
            assert!(
                on.coherence.invalidations_posted > 0,
                "merges must post invalidations: {:?}",
                on.coherence
            );
            assert_eq!(on.coherence.pending(), 0, "quiesce left messages in flight");
            assert_eq!(
                on.stale_hits_after_drain, 0,
                "post-drain verification sweep served a stale route"
            );

            // The same churn without structural deletes leaks without bound: its
            // garbage stays reachable, so both the carved footprint and the
            // reachable-node count grow with the turnover instead of pinning to
            // the live tree size.  (The bar is 3× rather than strictly
            // turnover-proportional: bidirectional churn re-walks a quarter
            // window per turnover, and re-deleting already-empty key space does
            // not carve new nodes in grow-only mode.)
            let off = tiny(TreeOptions::sherman().without_structural_deletes());
            assert_eq!(off.space.merges(), 0);
            assert_eq!(off.reclaim.retired, 0);
            assert!(
                off.nodes_carved > 3 * on.nodes_carved,
                "grow-only churn should leak: carved {} vs {} with merges",
                off.nodes_carved,
                on.nodes_carved
            );
            assert!(
                off.census.total() > 3 * on.census.total(),
                "grow-only churn retains garbage nodes: {} vs {} reachable",
                off.census.total(),
                on.census.total()
            );
        }

        #[test]
        fn quick_shrinks_but_preserves_turnover() {
            let exp = Experiment::churn("q", TreeOptions::sherman()).capped(&CHURN_QUICK);
            assert!(exp.threads <= 2);
            let Source::Churn { spec, turnover } = exp.source else {
                panic!("a churn experiment has a churn source");
            };
            assert!(spec.window <= 2_000);
            assert_eq!(turnover, 10.0);
            spec.validate().unwrap();
        }
    }
}

#[cfg(test)]
mod scenariobench {
    mod tests {
        use crate::presets::SCENARIO_QUICK;
        use crate::{
            hostile_spec, hostile_suite, run, DrivePath, Experiment, MemoryPressure, RunReport,
            Source,
        };
        use sherman::TreeConfig;
        use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
        use sherman_workload::ScenarioShape;
        use std::sync::OnceLock;

        /// Every member of the hostile suite driven `drive`, at `SCENARIO_QUICK`
        /// scale on backend `B`.
        fn suite_runs<B: FabricBackend>(drive: DrivePath) -> Vec<(MemoryPressure, RunReport)> {
            let suite = hostile_suite(drive).into_iter();
            suite.map(|(pressure, exp)| (pressure, run::<B>(&exp.capped(&SCENARIO_QUICK)))).collect()
        }

        /// The blocking members on the simulator, run once for every test that
        /// checks one: the runs are deterministic.
        fn blocking_on_the_simulator() -> &'static [(MemoryPressure, RunReport)] {
            static RUNS: OnceLock<Vec<(MemoryPressure, RunReport)>> = OnceLock::new();
            RUNS.get_or_init(|| suite_runs::<Fabric>(DrivePath::Blocking))
        }

        /// The hostile suite's gate on the runs of one drive path: every member
        /// at `SCENARIO_QUICK` scale runs without an op error, adds no fixable
        /// shape defect over its bulkload baseline (tiny-node bulkloads leave a
        /// few underfull rightmost tails of their own) and leaves no mistagged
        /// leaf slot.  The tiny pool backpressures; everywhere else the
        /// census reaches exactly what the allocator holds outstanding.  The
        /// cache shrink evicts, and its hit ratio falls by at most 50 points.
        fn hostile_suite_gate(runs: &[(MemoryPressure, RunReport)]) {
            assert_eq!(runs.len(), 6);
            for &(pressure, ref r) in runs {
                let tag = format!("{} [{}]", r.name, r.drive);
                println!(
                    "scenario gate: {tag} ops={} backpr={} press_evict={} hit={:.2}->{:.2}",
                    r.summary.ops,
                    r.backpressure_ops,
                    r.pressure_evictions,
                    r.hit_before,
                    r.hit_after
                );
                assert!(r.errors.is_empty(), "{tag}: op errors {:?}", r.errors);
                let (before, after) = (&r.audit_baseline, &r.audit);
                assert!(
                    after.underfull_rightmost_fixable <= before.underfull_rightmost_fixable
                        && after.underfull_internals_fixable
                            <= before.underfull_internals_fixable,
                    "{tag}: the run added fixable shape defects: {before:?} -> {after:?}"
                );
                assert_eq!(after.mistagged_slots, 0, "{tag}: mistagged leaf slots");
                if pressure == MemoryPressure::PoolExhaustion {
                    assert!(
                        r.backpressure_ops > 0 && r.backpressure.saw_pressure(),
                        "{tag}: the tiny pool never backpressured (carved {} nodes)",
                        r.nodes_carved
                    );
                } else {
                    assert_eq!(r.census.total(), r.nodes_outstanding, "{tag}: census");
                }
                if let MemoryPressure::CacheShrink { .. } = pressure {
                    assert!(
                        r.pressure_evictions > 0,
                        "{tag}: the shrink evicted nothing"
                    );
                    assert!(
                        r.hit_before - r.hit_after <= 0.5,
                        "{tag}: hit ratio fell off a cliff: {:.2} -> {:.2}",
                        r.hit_before,
                        r.hit_after
                    );
                }
            }
        }

        #[test]
        fn hostile_suite_gate_holds_on_the_simulator() {
            hostile_suite_gate(blocking_on_the_simulator());
            hostile_suite_gate(&suite_runs::<Fabric>(DrivePath::Pipelined(4)));
        }

        #[test]
        fn hostile_suite_gate_holds_on_threads() {
            for drive in [DrivePath::Blocking, DrivePath::Pipelined(4)] {
                hostile_suite_gate(&suite_runs::<ThreadedFabric>(drive));
            }
        }

        fn tiny_hotspot(drive: DrivePath) -> RunReport {
            let shape = ScenarioShape::ShiftingHotspot {
                theta: 0.9,
                phases: 4,
            };
            let mut exp = Experiment::scenario("tiny", hostile_spec(shape), drive);
            exp.threads = 2;
            exp.source.set_key_space(1 << 12);
            exp.ops_per_thread = 600;
            exp.tree = TreeConfig {
                node_size: 256,
                cache_bytes: 1 << 18,
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            };
            run::<Fabric>(&exp)
        }

        /// The blocking member on the simulator that `pick` picks, as the
        /// suite's gate ran it.
        fn quick_member(pick: impl Fn(MemoryPressure) -> bool) -> &'static RunReport {
            let runs = blocking_on_the_simulator();
            &runs.iter().find(|m| pick(m.0)).expect("suite member").1
        }

        #[test]
        fn hotspot_scenario_runs_on_both_drive_paths() {
            let blocking = tiny_hotspot(DrivePath::Blocking);
            assert_eq!(blocking.drive, DrivePath::Blocking);
            assert_eq!(blocking.summary.ops, 1_200);
            assert!(blocking.errors.is_empty(), "{:?}", blocking.errors);
            assert_eq!(blocking.backpressure_ops, 0);
            assert_eq!(blocking.census.total(), blocking.nodes_outstanding);
            assert_eq!(blocking.epoch.epoch_lag, 0, "quiesced run must unpin");

            let piped = tiny_hotspot(DrivePath::Pipelined(4));
            assert_eq!(piped.drive, DrivePath::Pipelined(4));
            assert_eq!(piped.summary.ops, 1_200);
            assert!(piped.errors.is_empty(), "{:?}", piped.errors);
            assert!(piped.overlap.mean_in_flight() > 1.0);
        }

        #[test]
        fn pool_exhaustion_backpressures_instead_of_panicking() {
            let r = quick_member(|p| p == MemoryPressure::PoolExhaustion);
            assert!(
                r.backpressure_ops > 0,
                "the tiny pool must run dry (carved {})",
                r.nodes_carved
            );
            assert!(r.backpressure.saw_pressure());
            assert!(r.backpressure.exhaustion_events > 0);
            assert!(r.errors.is_empty(), "{:?}", r.errors);
            assert!(r.summary.ops > 0, "reads keep completing under exhaustion");
        }

        #[test]
        fn cache_shrink_rebudgets_mid_run_without_a_cliff() {
            let r = quick_member(|p| matches!(p, MemoryPressure::CacheShrink { .. }));
            assert!(r.errors.is_empty(), "{:?}", r.errors);
            assert!(r.pressure_evictions > 0, "the shrink must evict");
            assert!(r.hit_before > 0.0);
            assert!(
                r.hit_before - r.hit_after <= 0.5,
                "hit ratio fell off a cliff: {:.2} -> {:.2}",
                r.hit_before,
                r.hit_after
            );
        }

        #[test]
        fn suite_covers_all_shapes_and_pressures() {
            let suite = hostile_suite(DrivePath::Pipelined(4));
            assert_eq!(suite.len(), 6);
            assert!(suite.iter().all(|(_, e)| e.drive == DrivePath::Pipelined(4)));
            assert!(suite
                .iter()
                .any(|(p, e)| *p == MemoryPressure::PoolExhaustion && e.rebudget.is_none()));
            assert!(suite
                .iter()
                .any(|(p, e)| *p == MemoryPressure::CacheShrink { factor: 4 }
                    && e.rebudget == Some(4)));
            let spec_of = |e: &Experiment| match &e.source {
                Source::Scenario(spec) => spec.clone(),
                other => panic!("not a scenario: {other:?}"),
            };
            let shapes: Vec<&str> = suite.iter().map(|(_, e)| spec_of(e).shape.name()).collect();
            for s in [
                "shifting-hotspot",
                "flash-crowd",
                "sequential-append",
                "scan-churn",
            ] {
                assert!(shapes.contains(&s), "missing {s}");
            }
            for (_, e) in suite {
                spec_of(&e).validate().unwrap();
                spec_of(&e.capped(&SCENARIO_QUICK)).validate().unwrap();
            }
        }
    }
}

#[cfg(test)]
mod offloadbench {
    mod tests {
        use crate::presets::OFFLOAD_QUICK;
        use crate::{run, Experiment, RunReport};
        use sherman::{Cluster, ClusterConfig, OffloadPolicy};
        use sherman_sim::Fabric;

        /// At the regime map's cold-cache deep-tree far-fabric point — the
        /// full-depth tree, two clients of 400 lookups — the adaptive policy
        /// holds at least 95 % of whichever fixed placement wins.
        #[test]
        fn adaptive_holds_the_best_fixed_policy_at_the_deep_cold_far_point() {
            let mops = |policy| {
                let mut exp = Experiment::offload_regime(policy, true, true);
                exp.threads = 2;
                exp.ops_per_thread = 400;
                run::<Fabric>(&exp).expect_clean().summary.throughput_ops
            };
            let never = mops(OffloadPolicy::Never);
            let always = mops(OffloadPolicy::Always);
            let adaptive = mops(OffloadPolicy::Adaptive);
            let ratio = adaptive / never.max(always).max(f64::MIN_POSITIVE);
            assert!(
                ratio >= 0.95,
                "adaptive holds only {ratio:.3} of the best fixed policy \
                 (never {never:.0}, always {always:.0}, adaptive {adaptive:.0} ops/s)"
            );
        }

        /// With every cached route dropped, an `Always` lookup collapses the
        /// whole descent (256-byte nodes over a 12k-key bulkload) into
        /// exactly one fabric round trip: one typed RPC, no one-sided READ.
        #[test]
        fn a_cold_always_lookup_is_one_rpc_round_trip() {
            let mut exp = Experiment::offload("cold-lookup", OffloadPolicy::Always);
            exp.fabric.memory_servers = 2;
            let config = ClusterConfig {
                fabric: exp.fabric,
                tree: exp.tree,
            };
            let cluster = Cluster::new(config, exp.options);
            cluster
                .bulkload((0..12_000u64).map(|k| (k, k.wrapping_mul(7) + 1)))
                .expect("bulkload");
            for cs in 0..2 {
                cluster.cache(cs).clear();
            }
            let (value, stats) = cluster.client(0).lookup(6_000).expect("lookup");
            assert_eq!(value, Some(6_000u64.wrapping_mul(7) + 1));
            assert_eq!(
                (stats.round_trips, stats.rpcs, stats.reads),
                (1, 1, 0),
                "round trips, RPCs and READs of a cold lookup"
            );
        }

        fn tiny(policy: OffloadPolicy, cold: bool) -> RunReport {
            let mut exp = Experiment::offload(format!("{policy:?}"), policy).capped(&OFFLOAD_QUICK);
            exp.fabric.memory_servers = 2;
            exp.threads = 2;
            exp.ops_per_thread = 100;
            exp.cold_start = cold;
            run::<Fabric>(&exp).expect_clean()
        }

        #[test]
        fn never_policy_posts_no_rpcs() {
            let r = tiny(OffloadPolicy::Never, true);
            assert_eq!(r.offload.decisions, 0);
            assert_eq!(r.offload.offloaded, 0);
            assert_eq!(r.fabric.rpcs, 0);
            assert!(r.summary.throughput_ops > 0.0);
        }

        #[test]
        fn always_policy_offloads_cold_misses_in_one_round_trip() {
            let r = tiny(OffloadPolicy::Always, true);
            assert!(r.offload.offloaded > 0, "cold misses must offload");
            // The very first lookups on each thread pay one RPC round trip; the
            // mean stays near 1 because warmed type-1 hits also offload.
            assert!(
                r.round_trips_per_op() < 2.0,
                "mean round trips {:.2}",
                r.round_trips_per_op()
            );
        }

        #[test]
        fn adaptive_policy_stays_local_on_a_warm_cache() {
            let r = tiny(OffloadPolicy::Adaptive, false);
            // Bulkload warms the cache: cached routes answer locally and the
            // adaptive policy should rarely (if ever) choose the RPC.
            assert!(
                r.offload.offloaded <= r.offload.decisions,
                "gauge consistency"
            );
            assert!(r.cache_hit_ratio > 0.5, "bulkload warms the cache");
        }
    }
}
