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
//! acquisition, how many merges the cached parent routed, and the latency of
//! the writes by round trips posted.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin churn [-- --quick] [--smoke]
//!     [--window N] [--turnover X] [--threads N] [--lookup-pct P] [--range-pct P]
//!     [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs only the merges-on system at `--quick` scale and exits
//! non-zero when a structural regression is detected: an operation that
//! failed or missed a live key (a panic, as in the table run), space
//! amplification above 2× (simulator only: it is timing-coupled), zero left
//! merges (the rightmost-child shape leak), a persistently underfull child
//! that a same-parent partner could fix, or a cache-coherence regression —
//! merges that posted zero invalidations (the typestate publish path
//! bypassed), messages still pending after every server quiesced, or stale
//! cache hits served after the drain.  On the simulator, where time is
//! modeled, it also fails when a structural commit waits for more than its
//! dependencies — the run's p99 write above five modeled round trips — or
//! when more than a fifth of the optimistic merge lock plans fell back.  On
//! both backends it fails when the structural commits wrote back more than a
//! node each: a split writes two nodes, a separator insertion one, a merge
//! three — two on average when every node travels whole, ≈ 1.1 when only what
//! changed does and unsorted leaves are re-packed, ≈ 0.85 when they are edited
//! in place.

use sherman::TreeOptions;
use sherman_bench::presets::CHURN_QUICK;
use sherman_bench::{
    fmt_mops, print_table, run_with_backend, smoke_verdict, Args, Experiment, RunReport, Source,
};

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "smoke", "window", "turnover", "threads", "lookup-pct", "range-pct", "backend",
    ]);
    if args.flag("smoke") {
        smoke(&args);
        return;
    }
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
        write_classes.push((r.name.clone(), write_class_rows(&r)));
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
    for (name, rows) in &write_classes {
        println!("\n{name}: writes by round trips posted");
        print_table(&["round trips", "writes", "share", "mean(ns)", "p99(ns)"], rows);
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

/// What one dependent step of an operation costs on `exp`'s fabric when
/// nothing queues: a round trip for a node — the post, the wire both ways, the
/// node through a NIC port — and the CPU to scan it (a cached lookup, in other
/// words).  The unit in which a latency reads as a dependency depth.
fn modeled_round_trip_ns(exp: &Experiment) -> u64 {
    let (fabric, node) = (&exp.fabric, exp.tree.node_size);
    fabric.cs_post_overhead_ns
        + fabric.base_rtt_ns
        + fabric.nic_service_ns(0)
        + fabric.nic_service_ns(node)
        + fabric.cpu_scan_ns(node)
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

/// CI gate: one quick merges-on run; non-zero exit on structural regression.
fn smoke(args: &Args) {
    let exp = configure(args, "smoke", TreeOptions::sherman());
    let r = run_with_backend(args, &exp).expect_clean();
    let simulated = args.get_or("backend", "sim".to_string()) == "sim";
    let write_p99 = r.write_latency().p99();
    let Source::Churn { turnover, .. } = exp.source else {
        unreachable!("a churn experiment has a churn source");
    };
    println!(
        "churn smoke: turnovers={:.1} space_amp={:.2} merges={} left_merges={} \
         rebalances={}+{} underfull_rightmost_fixable={} underfull_internals_fixable={} \
         top_hit={:.0}% refreshes={} inval_posted={} coh_applied={} \
         coh_lag_mean_ns={:.0} stale_after_drain={} plans={} fallbacks={} \
         routed_cached={} routed_read={} write_p99_ns={write_p99} \
         structural_commits={} bytes_per_structural_commit={:.0}",
        r.turnovers,
        r.space_amplification(),
        r.space.merges(),
        r.space.left_merges,
        r.space.rebalances,
        r.space.internal_rebalances,
        r.audit.underfull_rightmost_fixable,
        r.audit.underfull_internals_fixable,
        r.top_hit_ratio * 100.0,
        r.cache_refreshes,
        r.coherence.invalidations_posted,
        r.coherence.applied,
        r.coherence.mean_apply_lag_ns(),
        r.stale_hits_after_drain,
        r.space.optimistic_plans,
        r.space.plan_fallbacks,
        r.space.merge_routes_cached,
        r.space.merge_routes_remote,
        r.space.structural_commits,
        r.space.bytes_per_structural_commit(),
    );
    print_table(
        &["round trips", "writes", "share", "mean(ns)", "p99(ns)"],
        &write_class_rows(&r),
    );
    let mut failures = Vec::new();
    if r.turnovers < turnover {
        failures.push(format!(
            "turnover {:.1} below the {turnover:.1} target",
            r.turnovers
        ));
    }
    // Space amplification is timing-coupled: it gates how promptly merges and
    // reclamation keep up with the churn, which the OS scheduler perturbs on
    // the threaded backend.  Enforce it only where timing is modeled; on the
    // threaded backend it is advisory and only the structural/coherence
    // invariants below stay strict.
    if simulated && r.space_amplification() > 2.0 {
        failures.push(format!("space amplification {:.2} exceeds 2x", r.space_amplification()));
    }
    // So are the costs of a structural commit: only modeled time says how
    // deep its dependency chain is, and on real threads another client holds
    // a lock for as long as the OS keeps it off the CPU.
    let depth_bound = 5 * modeled_round_trip_ns(&exp);
    if simulated && write_p99 > depth_bound {
        failures.push(format!(
            "p99 write {write_p99} ns exceeds five modeled round trips ({depth_bound} ns): \
             a structural commit waits for more than it depends on"
        ));
    }
    if simulated && r.space.fallback_share() > 0.2 {
        failures.push(format!(
            "{} of {} optimistic merge lock plans fell back to the rank-ordered acquisition",
            r.space.plan_fallbacks, r.space.optimistic_plans
        ));
    }
    // What a structural commit writes back is counted, not timed: the same
    // ceiling holds on both backends.
    let byte_ceiling = exp.tree.node_size as f64;
    if r.space.bytes_per_structural_commit() > byte_ceiling {
        failures.push(format!(
            "{} structural commits wrote back {:.0} bytes each, above {byte_ceiling:.0}: \
             whole nodes are travelling where only what changed should",
            r.space.structural_commits,
            r.space.bytes_per_structural_commit()
        ));
    }
    if r.space.left_merges == 0 {
        failures.push("zero left merges: the rightmost-child shape leak is back".into());
    }
    if r.audit.underfull_rightmost_fixable > 0 {
        failures.push(format!(
            "{} rightmost children stayed underfull with a viable left sibling",
            r.audit.underfull_rightmost_fixable
        ));
    }
    if r.audit.underfull_internals_fixable > 0 {
        failures.push(format!(
            "{} internal nodes stayed underfull with a viable rebalance partner",
            r.audit.underfull_internals_fixable
        ));
    }
    if r.space.merges() > 0 && r.coherence.invalidations_posted == 0 {
        failures.push(
            "merges retired nodes but posted zero coherence invalidations: \
             the typestate publish path is being bypassed"
                .into(),
        );
    }
    if r.coherence.pending() > 0 {
        failures.push(format!(
            "{} coherence messages still pending after every server quiesced",
            r.coherence.pending()
        ));
    }
    if r.stale_hits_after_drain > 0 {
        failures.push(format!(
            "{} stale cache hits served after all coherence inboxes drained",
            r.stale_hits_after_drain
        ));
    }
    smoke_verdict("churn", &failures);
}
