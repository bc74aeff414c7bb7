//! # sherman_bench — the experiment harness
//!
//! One binary per table/figure of the Sherman paper, plus the sweeps and
//! gates that go beyond it (see `src/bin/`).  Every binary that measures the
//! tree is an argument table over one driver:
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
//! * [`figures`] — the tables more than one binary prints,
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
    run, run_with_backend, spawn_clients, DrivePath, Experiment, QuickCaps, RunReport, Source,
};
pub use fabricbench::{run_write_size_sweep, WriteSizePoint};
pub use lockbench::{run_lock_experiment, LockExperiment, LOCK_LADDER};
pub use presets::{hostile_spec, hostile_suite, MemoryPressure};
pub use report::{fmt_mops, fmt_us, print_table, smoke_verdict};

mod pins;

// Unit tests of `run`, one module per family of experiments.  The module
// paths are the ones these tests had when each family had a driver of its
// own: a test's path is its id in the tier-1 floor, and the floor reads a
// moved id as a test that vanished.
#[cfg(test)]
mod runner {
    mod tests {
        use crate::presets::PAPER_QUICK;
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

        fn tiny_pipeline(drive: DrivePath, range_pct: u8, insert_pct: u8) -> RunReport {
            tiny(Experiment::pipeline("pipe", drive, range_pct, insert_pct), 150)
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
            let blocking = tiny_pipeline(DrivePath::Blocking, 0, 0);
            let depth1 = tiny_pipeline(DrivePath::Pipelined(1), 0, 0);
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
            let depth1 = tiny_pipeline(DrivePath::Pipelined(1), 0, 0);
            let depth4 = tiny_pipeline(DrivePath::Pipelined(4), 0, 0);
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

        #[test]
        fn mixed_depth_one_matches_blocking_and_depth_four_overlaps() {
            let blocking = tiny_pipeline(DrivePath::Blocking, 0, 50);
            let depth1 = tiny_pipeline(DrivePath::Pipelined(1), 0, 50);
            let ratio = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
            assert!(
                (0.95..=1.05).contains(&ratio),
                "depth-1 mixed must reproduce the blocking path within 5%, ratio {ratio:.3}"
            );
            let depth4 = tiny_pipeline(DrivePath::Pipelined(4), 0, 50);
            let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
            assert!(
                speedup >= 2.5,
                "depth 4 should beat depth 1 by 2.5x on 50% inserts, got {speedup:.2}x"
            );
            assert!(depth4.overlap.overlapped_round_trips > 0);
        }

        #[test]
        fn pipeline_experiment_supports_scans() {
            let result = tiny_pipeline(DrivePath::Pipelined(4), 20, 0);
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
        use sherman_sim::Fabric;

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
        use sherman_sim::Fabric;
        use sherman_workload::ScenarioShape;

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

        fn quick_member(pick: impl Fn(MemoryPressure) -> bool) -> RunReport {
            let (_, exp) = hostile_suite(DrivePath::Blocking)
                .into_iter()
                .find(|m| pick(m.0))
                .unwrap();
            run::<Fabric>(&exp.capped(&SCENARIO_QUICK))
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
        use sherman::OffloadPolicy;
        use sherman_sim::Fabric;

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
