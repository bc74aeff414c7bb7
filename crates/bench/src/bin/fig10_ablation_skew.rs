//! Figure 10 — contribution of each technique under *skewed* workloads
//! (Zipfian 0.99): FG+ → +Combine → +On-Chip → +Hierarchical → +2-Level Ver,
//! for the write-only, write-intensive and read-intensive mixes.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig10_ablation_skew [-- --quick --theta T
//!     --threads N --keys N --ops N] [--backend sim|threaded]
//! ```

use sherman_bench::{figures, Args};
use sherman_workload::KeyDistribution;

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "theta", "threads", "keys", "ops", "backend"]);
    println!("Figure 10: ablation under skewed workloads (theta=0.99)");
    let theta = args.get_or("theta", 0.99);
    figures::ablation(&args, KeyDistribution::ScrambledZipfian { theta }, true);
}
