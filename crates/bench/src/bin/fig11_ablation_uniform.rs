//! Figure 11 — contribution of each technique under *uniform* workloads.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig11_ablation_uniform [-- --quick
//!     --threads N --keys N --ops N] [--backend sim|threaded]
//! ```

use sherman_bench::{figures, Args};
use sherman_workload::KeyDistribution;

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "keys", "ops", "backend"]);
    println!("Figure 11: ablation under uniform workloads");
    figures::ablation(&args, KeyDistribution::Uniform, false);
}
