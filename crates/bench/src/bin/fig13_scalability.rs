//! Figure 13 — scalability with the number of client threads under the
//! write-intensive mix: uniform, Zipfian 0.9 and Zipfian 0.99 popularity,
//! FG+ versus Sherman.  The sweep reaches the paper's 176 clients (§5.7) with
//! `--max-threads 176`; above 44 clients every compute server runs 22 of
//! them, as in the paper's 8 × 22.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig13_scalability [-- --quick --max-threads N
//!     --keys N --ops N] [--backend sim|threaded]
//! ```

use sherman_bench::{figures, Args, Experiment};
use sherman_workload::KeyDistribution;

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "max-threads", "keys", "ops", "backend"]);
    let max_threads = args.get_or("max-threads", if args.quick() { 8 } else { 24 });
    let mut thread_counts = vec![2usize, 4, 8, 16, 24, 32, 48, 64, 88, 176];
    thread_counts.retain(|&t| t <= max_threads);
    let scenarios = [
        ("uniform", KeyDistribution::Uniform),
        ("skew 0.9", KeyDistribution::ScrambledZipfian { theta: 0.9 }),
        ("skew 0.99", KeyDistribution::ScrambledZipfian { theta: 0.99 }),
    ];

    println!("Figure 13: scalability with client threads (write-intensive)");
    for (scenario, distribution) in scenarios {
        println!("\n[{scenario}]");
        figures::fg_vs_sherman(&args, "threads", &thread_counts, |&threads, sys_name, options| {
            let mut exp = Experiment::paper(format!("{sys_name}/{threads}"), options);
            exp.source.workload_mut().distribution = distribution;
            exp.threads = threads;
            if threads > 44 {
                let servers = &mut exp.fabric.compute_servers;
                *servers = (*servers).max(threads.div_ceil(22));
            }
            if let Some(keys) = args.value("keys") {
                exp.source.set_key_space(keys);
            }
            exp.ops_per_thread = args.get_or("ops", if args.quick() { 60 } else { 200 });
            exp
        });
    }
}
