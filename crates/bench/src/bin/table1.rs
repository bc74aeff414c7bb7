//! Table 1 — performance of the one-sided approach (FG-style index) under
//! read-intensive / write-intensive mixes with uniform / skewed popularity.
//!
//! The paper's headline observation: the one-sided baseline collapses under
//! the write-intensive + skewed combination (0.34 Mops, ~20 ms p99).
//!
//! ```text
//! cargo run --release -p sherman_bench --bin table1 [-- --quick --threads N --keys N --ops N]
//!     [--backend sim|threaded]
//! ```

use sherman::TreeOptions;
use sherman_bench::presets::PAPER_QUICK;
use sherman_bench::{fmt_mops, fmt_us, print_table, run_with_backend, Args, Experiment};
use sherman_workload::{KeyDistribution, Mix};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "keys", "ops", "backend"]);
    let skew = KeyDistribution::ScrambledZipfian { theta: 0.99 };
    let cells = [
        ("read-intensive", "uniform", Mix::READ_INTENSIVE, KeyDistribution::Uniform),
        ("read-intensive", "skew", Mix::READ_INTENSIVE, skew),
        ("write-intensive", "uniform", Mix::WRITE_INTENSIVE, KeyDistribution::Uniform),
        ("write-intensive", "skew", Mix::WRITE_INTENSIVE, skew),
    ];

    println!("Table 1: index performance in the one-sided approach (FG+)");
    let mut rows = Vec::new();
    for (mix_name, dist_name, mix, distribution) in cells {
        let mut exp = Experiment::paper(format!("{mix_name}/{dist_name}"), TreeOptions::fg_plus());
        let spec = exp.source.workload_mut();
        spec.mix = mix;
        spec.distribution = distribution;
        let r = run_with_backend(&args, &exp.scaled_by(&args, "keys", &PAPER_QUICK)).expect_clean();
        rows.push(vec![
            r.name.clone(),
            fmt_mops(r.summary.throughput_ops),
            fmt_us(r.summary.p50_ns),
            fmt_us(r.summary.p90_ns),
            fmt_us(r.summary.p99_ns),
        ]);
    }
    print_table(
        &["workload", "throughput (Mops)", "p50 (us)", "p90 (us)", "p99 (us)"],
        &rows,
    );
}
