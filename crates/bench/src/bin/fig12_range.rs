//! Figure 12 — range query performance: range-only and range-write workloads,
//! range sizes 100 and 1000, FG+ versus Sherman.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig12_range [-- --quick --threads N --keys N
//!     --ops N] [--backend sim|threaded]
//! ```

use sherman_bench::presets::PAPER_QUICK;
use sherman_bench::{figures, Args, Experiment};
use sherman_workload::Mix;

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "keys", "ops", "backend"]);
    let workloads = [("range-only", Mix::RANGE_ONLY), ("range-write", Mix::RANGE_WRITE)];

    println!("Figure 12: range query performance (skewed ranges)");
    for (wl_name, mix) in workloads {
        println!("\n[{wl_name}]");
        figures::fg_vs_sherman(&args, "range size", &[100u64, 1000], |&range_size, sys_name, options| {
            let mut exp = Experiment::paper(format!("{sys_name}/{range_size}"), options);
            let spec = exp.source.workload_mut();
            spec.mix = mix;
            spec.range_size = range_size;
            exp.ops_per_thread = if range_size >= 1000 { 100 } else { 200 };
            let mut exp = exp.scaled_by(&args, "keys", &PAPER_QUICK);
            if args.quick() {
                exp.ops_per_thread = exp.ops_per_thread.min(40);
            }
            exp
        });
    }
}
