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
//! cargo run --release -p sherman_bench --bin scenario [-- --quick]
//!     [--threads N] [--ops N] [--depth D] [--key-space N] [--backend sim|threaded]
//! ```
//!
//! The whole suite at `--quick` scale on both drive paths is gated in tier-1,
//! on both backends: `scenariobench::tests::hostile_suite_gate_holds_on_the_simulator`
//! and `hostile_suite_gate_holds_on_threads` (`crates/bench/src/lib.rs`).

use sherman_bench::presets::SCENARIO_QUICK;
use sherman_bench::{
    fmt_mops, fmt_us, hostile_suite, print_table, run_with_backend, Args, DrivePath,
    MemoryPressure, RunReport,
};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "ops", "depth", "key-space", "backend"]);

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
