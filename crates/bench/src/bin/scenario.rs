//! Scenario — hostile workloads under adaptive memory pressure.
//!
//! Runs the six-scenario hostile suite (shifting zipfian hot spot, flash
//! crowd, sequential right-edge appends, long scans racing churn, pool
//! near-exhaustion, mid-run cache re-budgeting) through **both** drive
//! paths: one blocking operation at a time, and the split-phase pipelined
//! scheduler.  Reports throughput, tail latency, overlap depth, allocator
//! backpressure, pressure evictions and the cache hit ratio before/after the
//! mid-run budget change.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin scenario [-- --quick] [--smoke]
//!     [--threads N] [--ops N] [--depth D] [--key-space N] [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs the whole suite at `--quick` scale on both drive paths and
//! exits non-zero when a hostile run breaks an invariant: any op error, a
//! fixable shape-audit defect, a census/outstanding mismatch outside pool
//! exhaustion, a pool-exhaustion run that never saw backpressure, or a cache
//! shrink whose hit ratio fell off a cliff (more than 50 points absolute).

use sherman_bench::presets::SCENARIO_QUICK;
use sherman_bench::{
    fmt_mops, fmt_us, hostile_suite, print_table, run_with_backend, smoke_verdict, Args,
    DrivePath, MemoryPressure, RunReport,
};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "smoke", "threads", "ops", "depth", "key-space", "backend"]);
    if args.flag("smoke") {
        smoke(&args);
        return;
    }

    println!("Scenario: hostile workloads under adaptive memory pressure");
    let mut rows = Vec::new();
    for drive in [DrivePath::Blocking, DrivePath::Pipelined(args.get_or("depth", 4))] {
        for (pressure, exp) in hostile_suite(drive) {
            let r = run_with_backend(&args, &exp.scaled_by(&args, "key-space", &SCENARIO_QUICK));
            rows.push(row(pressure, &r));
        }
    }
    print_table(
        &[
            "scenario",
            "pressure",
            "drive",
            "Mops",
            "p50",
            "p99",
            "in-flight",
            "backpr ops",
            "exhaust",
            "press-evict",
            "hit pre",
            "hit post",
            "space amp",
            "errs",
        ],
        &rows,
    );
    println!("\nbackpr ops  = operations refused with the typed allocation error");
    println!("exhaust     = allocator exhaustion events (every server + free list dry)");
    println!("press-evict = cache entries evicted by the mid-run budget shrink");
    println!("hit pre/post= type-1 cache hit ratio before / after the midpoint");
    println!("(the pool-exhaustion rows run a deliberately tiny pool; the cache/4 rows");
    println!(" cut every compute server's index-cache budget 4x at the midpoint)");
}

fn row(pressure: MemoryPressure, r: &RunReport) -> Vec<String> {
    vec![
        r.name.clone(),
        pressure.to_string(),
        r.drive.to_string(),
        fmt_mops(r.summary.throughput_ops),
        fmt_us(r.summary.p50_ns),
        fmt_us(r.summary.p99_ns),
        format!("{:.1}", r.overlap.mean_in_flight()),
        r.backpressure_ops.to_string(),
        r.backpressure.exhaustion_events.to_string(),
        r.pressure_evictions.to_string(),
        format!("{:.0}%", r.hit_before * 100.0),
        format!("{:.0}%", r.hit_after * 100.0),
        format!("{:.2}", r.space_amplification()),
        r.errors.len().to_string(),
    ]
}

/// One scenario's smoke verdict: push a line per violated invariant.
fn gate(pressure: MemoryPressure, r: &RunReport, failures: &mut Vec<String>) {
    let tag = format!("{} [{}]", r.name, r.drive);
    if !r.errors.is_empty() {
        failures.push(format!("{tag}: {} op errors: {:?}", r.errors.len(), r.errors));
    }
    // Tiny-node bulkloads legitimately leave a few underfull rightmost
    // tails; the gate is that hostile traffic adds none on top.
    if r.audit.underfull_rightmost_fixable > r.audit_baseline.underfull_rightmost_fixable
        || r.audit.underfull_internals_fixable > r.audit_baseline.underfull_internals_fixable
    {
        failures.push(format!(
            "{tag}: the run added fixable shape defects (rightmost {} -> {}, internals {} -> {})",
            r.audit_baseline.underfull_rightmost_fixable,
            r.audit.underfull_rightmost_fixable,
            r.audit_baseline.underfull_internals_fixable,
            r.audit.underfull_internals_fixable
        ));
    }
    match pressure {
        MemoryPressure::PoolExhaustion => {
            if r.backpressure_ops == 0 || !r.backpressure.saw_pressure() {
                failures.push(format!(
                    "{tag}: the tiny pool never backpressured (carved {} nodes)",
                    r.nodes_carved
                ));
            }
        }
        _ => {
            // Outside exhaustion every carved-but-released node must be
            // accounted for: what the census reaches equals what the
            // allocator says is outstanding.
            if r.census.total() != r.nodes_outstanding {
                failures.push(format!(
                    "{tag}: census {} != outstanding {}",
                    r.census.total(),
                    r.nodes_outstanding
                ));
            }
        }
    }
    if let MemoryPressure::CacheShrink { .. } = pressure {
        if r.pressure_evictions == 0 {
            failures.push(format!("{tag}: the budget shrink evicted nothing"));
        }
        if r.hit_before - r.hit_after > 0.5 {
            failures.push(format!(
                "{tag}: hit ratio fell off a cliff: {:.2} -> {:.2}",
                r.hit_before, r.hit_after
            ));
        }
    }
}

/// CI gate: the whole suite at quick scale on both drive paths; non-zero
/// exit on any invariant violation.
fn smoke(args: &Args) {
    let mut failures = Vec::new();
    for drive in [DrivePath::Blocking, DrivePath::Pipelined(4)] {
        for (pressure, exp) in hostile_suite(drive) {
            let r = run_with_backend(args, &exp.scaled_by(args, "key-space", &SCENARIO_QUICK));
            println!(
                "scenario smoke: {:<18} [{:>9}] ops={} backpr={} exhaust={} \
                 press_evict={} hit={:.0}%->{:.0}% errs={}",
                r.name,
                r.drive.to_string(),
                r.summary.ops,
                r.backpressure_ops,
                r.backpressure.exhaustion_events,
                r.pressure_evictions,
                r.hit_before * 100.0,
                r.hit_after * 100.0,
                r.errors.len(),
            );
            gate(pressure, &r, &mut failures);
        }
    }
    smoke_verdict("scenario", &failures);
}
