//! Churn — structural deletes under a sliding key window (beyond the paper).
//!
//! Drives a windowed insert/delete workload until the live key set has turned
//! over `--turnover` times (default 10×), comparing Sherman with structural
//! deletes (freed nodes recycled under epoch-based reclamation) and the
//! paper's grow-only behaviour.  Reports throughput, merge/reclaim counters —
//! including the merge **direction** split (left merges fold a rightmost
//! child into its left sibling) — space amplification (node addresses carved
//! per live node), the two **reclaim latency** figures (retire→eligible
//! isolates the reader pins; retire→reuse additionally includes the wait for
//! allocation demand), the type-❷ cache hit ratio with the self-healing
//! refresh count, and what the structural commits cost: how many merge lock
//! plans were tried optimistically and how many fell back to the rank-ordered
//! acquisition, how many merges the cached parent routed, the latency of the
//! writes by round trips posted, and the bytes the structural commits wrote
//! back by kind of commit (split, separator, root growth, merge, edge merge,
//! rebalance).
//!
//! ```text
//! cargo run --release -p sherman_bench --bin churn [-- --quick]
//!     [--window N] [--turnover X] [--threads N] [--lookup-pct P] [--range-pct P]
//!     [--backend sim|threaded]
//! ```
//!
//! The merges-on system at `--quick` scale is gated in tier-1, on both
//! backends: `churnbench::tests::churn_gate_holds_on_the_simulator` and
//! `churn_gate_holds_on_threads` (`crates/bench/src/lib.rs`).

use sherman::TreeOptions;
use sherman_bench::presets::CHURN_QUICK;
use sherman_bench::{fmt_mops, print_table, run_with_backend, Args, Experiment, RunReport, Source};
use sherman_metrics::StructuralKind;

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "window", "turnover", "threads", "lookup-pct", "range-pct", "backend",
    ]);
    let systems = [
        ("merges-on", TreeOptions::sherman()),
        (
            "merges-off",
            TreeOptions::sherman().without_structural_deletes(),
        ),
    ];

    println!("Churn: sliding-window insert/delete; structural deletes vs grow-only");
    let (mut rows, mut timelines, mut write_classes) = (Vec::new(), Vec::new(), Vec::new());
    for (name, options) in systems {
        let exp = configure(&args, name, options);
        let r = run_with_backend(&args, &exp).expect_clean();
        write_classes.push((r.name.clone(), write_class_rows(&r), structural_rows(&r)));
        rows.push(vec![
            r.name.clone(),
            fmt_mops(r.summary.throughput_ops),
            format!("{:.1}", r.turnovers),
            r.space.merges().to_string(),
            r.space.left_merges.to_string(),
            (r.space.rebalances + r.space.internal_rebalances).to_string(),
            format!("{}/{}", r.space.plan_fallbacks, r.space.optimistic_plans),
            format!("{}/{}", r.space.merge_routes_cached, r.space.merge_routes_remote),
            r.reclaim.retired.to_string(),
            r.reclaim.reused.to_string(),
            format!("{:.0}", r.reclaim.mean_eligible_latency_ns()),
            format!("{:.0}", r.reclaim.mean_reclaim_latency_ns()),
            r.census.total().to_string(),
            r.nodes_carved.to_string(),
            format!("{:.2}", r.space_amplification()),
            format!("{:.0}%", r.top_hit_ratio * 100.0),
            r.cache_refreshes.to_string(),
            r.coherence.invalidations_posted.to_string(),
            format!("{:.0}", r.coherence.mean_apply_lag_ns()),
            r.stale_hits_after_drain.to_string(),
        ]);
        timelines.push((r.name, r.shape_timeline));
    }
    print_table(
        &[
            "system",
            "Mops",
            "turnovers",
            "merges",
            "left-mrg",
            "rebal",
            "fallback/plans",
            "routed cache/read",
            "retired",
            "reused",
            "elig-lat mean(ns)",
            "reuse-lat mean(ns)",
            "live nodes",
            "carved nodes",
            "space amp",
            "top-hit",
            "refreshes",
            "inval",
            "coh-lag mean(ns)",
            "stale-after-drain",
        ],
        &rows,
    );
    for (name, rows, structural) in &write_classes {
        println!("\n{name}: writes by round trips posted");
        print_table(&["round trips", "writes", "share", "mean(ns)", "p99(ns)"], rows);
        println!("\n{name}: structural write-backs by kind (lock words not counted)");
        print_table(&["kind", "bytes", "share", "bytes/write"], structural);
    }
    println!("\nshape health while running (incremental per-level samples, rotating windows):");
    for (name, timeline) in &timelines {
        let samples = timeline.len();
        let parents: u64 = timeline.iter().map(|a| a.parents).sum();
        let worst_rightmost = timeline
            .iter()
            .map(|a| a.underfull_rightmost_fixable)
            .max()
            .unwrap_or(0);
        let worst_internal = timeline
            .iter()
            .map(|a| a.underfull_internals_fixable)
            .max()
            .unwrap_or(0);
        println!(
            "  {name}: {samples} samples / {parents} parents audited mid-run, \
             worst fixable rightmost={worst_rightmost} internals={worst_internal} (advisory)"
        );
    }
    println!("\nspace amp = node addresses carved from chunks / nodes reachable at the end");
    println!("inval     = coherence invalidations posted to other compute servers; coh-lag");
    println!("            is the mean post->apply delay of the fabric-delivered messages");
    println!("stale-after-drain = stale cache hits served by a full re-read AFTER every");
    println!("            server quiesced its coherence inbox (must be zero)");
    println!("left-mrg  = merges that folded a rightmost child into its left sibling");
    println!("fallback/plans = merge lock plans tried at once (one round trip) and how many");
    println!("            lost a lock, gave back the rest and took them in rank order");
    println!("routed    = merge-partner discoveries by the cached parent / by a remote read");
    println!("elig-lat  = retirement -> last pre-retirement pin gone (isolates the readers)");
    println!("reuse-lat = retirement -> an allocator takes it (includes demand waits)");
    println!("top-hit   = type-2 top-level cache hit ratio; refreshes = entries healed");
    println!("            in place after structural changes / on cache-miss traversals");
    println!("(grow-only trees keep their garbage reachable: the leak shows in the live/");
    println!(" carved node counts, which scale with turnover instead of the window size)");
}

fn configure(args: &Args, name: &str, options: TreeOptions) -> Experiment {
    let mut exp = Experiment::churn(name, options);
    if let Source::Churn { spec, turnover } = &mut exp.source {
        spec.lookup_pct = args.get_or("lookup-pct", spec.lookup_pct);
        spec.range_pct = args.get_or("range-pct", spec.range_pct);
        *turnover = args.get_or("turnover", *turnover);
    }
    exp.scaled_by(args, "window", &CHURN_QUICK)
}

/// One row per kind of structural commit: the bytes its node write-backs
/// carried, their share of all structural bytes, and per write of the run.
fn structural_rows(r: &RunReport) -> Vec<Vec<String>> {
    let writes = r.write_latency().count().max(1) as f64;
    let total = r.space.structural_bytes.max(1) as f64;
    let row = |&(kind, bytes): &(StructuralKind, u64)| {
        vec![
            format!("{kind:?}"),
            bytes.to_string(),
            format!("{:.1}%", bytes as f64 * 100.0 / total),
            format!("{:.2}", bytes as f64 / writes),
        ]
    };
    r.space.structural_bytes_by_kind().iter().map(row).collect()
}

/// One row per class of write: how many round trips it posted, how many such
/// writes there were, and what they took.
fn write_class_rows(r: &RunReport) -> Vec<Vec<String>> {
    let writes = r.write_latency().count().max(1);
    r.write_classes
        .iter()
        .map(|(round_trips, class)| {
            vec![
                round_trips.to_string(),
                class.count().to_string(),
                format!("{:.2}%", class.count() as f64 * 100.0 / writes as f64),
                format!("{:.0}", class.mean()),
                class.p99().to_string(),
            ]
        })
        .collect()
}
