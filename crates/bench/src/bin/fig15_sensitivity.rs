//! Figure 15 — sensitivity analysis:
//!
//! * (a) key size from 16 B to 1 KB under uniform write-intensive load
//!   (the number of entries per leaf is fixed at 32 by growing the node),
//! * (b) the same under skewed load,
//! * (c) index-cache capacity versus throughput and hit ratio,
//! * (d) beyond the paper: the same sweep on a *deep* tree (256 B nodes, 64 KB
//!   – 4 MB), where level 1 never fits and the figure of merit is how many
//!   nodes a lookup still has to read.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig15_sensitivity [-- --quick]
//!     [--threads N] [--keys N] [--ops N] [--deep-keys N] [--deep-ops N] [--backend sim|threaded]
//! ```
//!
//! Block (d) at `--quick` scale is gated in tier-1:
//! `figures::tests::a_deep_tree_reads_fewer_nodes_as_the_cache_grows`
//! (`crates/bench/src/figures.rs`) requires at most 1.49 reads per lookup at
//! the 256 KB budget, never rising with the budget, and at most 100
//! evictions per 1 000 operations at every budget.

use sherman::{TreeConfig, TreeOptions};
use sherman_bench::{figures, fmt_mops, print_table, run_with_backend, Args, Experiment};
use sherman_workload::KeyDistribution;

/// Node size that keeps 32 entries per leaf for a given key size (the paper
/// fixes the entry count and grows the node).
fn node_size_for(key_size: usize, value_size: usize) -> usize {
    let entry = key_size + value_size + 3;
    let raw = 48 + 8 + 32 * entry;
    raw.next_multiple_of(64)
}

fn key_size_sweep(args: &Args, distribution: KeyDistribution, title: &str) {
    println!("{title}");
    let key_sizes = [16usize, 32, 64, 128, 256, 512, 1024];
    figures::fg_vs_sherman(args, "key size (B)", &key_sizes, |&key_size, name, options| {
        let mut exp = Experiment::paper(format!("{name}/{key_size}"), options);
        exp.source.workload_mut().distribution = distribution;
        exp.source.set_key_space(args.get_or("keys", 1 << 16));
        exp.threads = args.get_or("threads", 8);
        exp.ops_per_thread = args.get_or("ops", if args.quick() { 60 } else { 200 });
        exp.tree = TreeConfig {
            node_size: node_size_for(key_size, 8),
            key_size,
            chunk_bytes: 4 << 20,
            ..TreeConfig::default()
        };
        if args.quick() {
            exp.threads = exp.threads.min(4);
        }
        exp
    });
}

fn cache_sweep(args: &Args) {
    println!("\nFigure 15(c): impact of index cache size (uniform, write-intensive)");
    let sizes_kb = [64usize, 128, 256, 512, 1024, 4096];
    let mut rows = Vec::new();
    for kb in sizes_kb {
        let mut exp = Experiment::paper(format!("cache-{kb}KB"), TreeOptions::sherman());
        exp.source.workload_mut().distribution = KeyDistribution::Uniform;
        let keys = args.get_or("keys", if args.quick() { 1 << 17 } else { 1 << 19 });
        exp.source.set_key_space(keys);
        exp.threads = args.get_or("threads", if args.quick() { 4 } else { 8 });
        exp.ops_per_thread = args.get_or("ops", if args.quick() { 60 } else { 200 });
        exp.tree.cache_bytes = kb << 10;
        let r = run_with_backend(args, &exp).expect_clean();
        rows.push(vec![
            kb.to_string(),
            fmt_mops(r.summary.throughput_ops),
            format!("{:.1}%", r.cache_hit_ratio * 100.0),
        ]);
    }
    print_table(&["cache size (KB)", "throughput (Mops)", "hit ratio"], &rows);
}

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "threads", "keys", "ops", "deep-keys", "deep-ops", "backend",
    ]);
    key_size_sweep(
        &args,
        KeyDistribution::Uniform,
        "Figure 15(a): impact of key size (uniform, 32 entries per leaf)",
    );
    println!();
    key_size_sweep(
        &args,
        KeyDistribution::ScrambledZipfian { theta: 0.99 },
        "Figure 15(b): impact of key size (skewed, 32 entries per leaf)",
    );
    cache_sweep(&args);
    let quick = args.quick();
    figures::deep_cache_sweep(
        args.get_or("deep-keys", if quick { 1 << 19 } else { 1 << 20 }),
        args.get_or("deep-ops", if quick { 40_000 } else { 200_000 }),
    );
}
