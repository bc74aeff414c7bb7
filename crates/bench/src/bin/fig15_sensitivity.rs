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
//! cargo run --release -p sherman_bench --bin fig15_sensitivity [-- --quick | --smoke]
//!     [--threads N] [--keys N] [--ops N] [--deep-keys N] [--deep-ops N] [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs block (d) alone on a small key space and exits non-zero
//! unless reads per lookup at the 256 KB budget are at most 1.49 and never
//! rise with the budget, and no budget evicts more than 100 times per 1 000
//! operations.  The smoke measures 1.4370 reads at 256 KB since an image
//! keeps its children packed to the widths they need: 256 KB then holds
//! level 2 whole and over half of level 1 (1.8675 charged the used prefix of
//! its node, which held level 2 alone; 1.95 charged a whole node).

use sherman::{Cluster, ClusterConfig, TreeConfig, TreeOptions};
use sherman_bench::{figures, fmt_mops, print_table, run_with_backend, Args, Experiment};
use sherman_workload::{KeyDistribution, Mix, Op, WorkloadSpec};

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

/// Block (d): one blocking client, uniform read-intensive traffic over a
/// deep tree of 256 B nodes, budgets from 64 KB to 4 MB.  Returns reads per
/// lookup and evictions per 1 000 operations for each budget, smallest budget
/// first.
fn deep_sweep(args: &Args, smoke: bool) -> Vec<(usize, f64, f64)> {
    println!(
        "\nFigure 15(d): index cache size on a deep tree (256 B nodes, uniform, read-intensive)"
    );
    let small = smoke || args.quick();
    let key_space = args.get_or("deep-keys", if small { 1 << 19 } else { 1 << 20 });
    let spec = WorkloadSpec {
        key_space,
        bulkload_keys: key_space / 5 * 4,
        mix: Mix::READ_INTENSIVE,
        distribution: KeyDistribution::Uniform,
        ..WorkloadSpec::default_scaled()
    };
    let ops = args.get_or("deep-ops", if small { 40_000 } else { 200_000 });
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for kb in [64usize, 128, 256, 512, 1024, 4096] {
        let mut config = ClusterConfig::paper_scaled(2, 2);
        config.tree.node_size = 256;
        config.tree.chunk_bytes = 256 << 10;
        config.tree.cache_bytes = kb << 10;
        let cluster = Cluster::new(config, TreeOptions::sherman());
        cluster
            .bulkload(spec.bulkload_iter().map(|k| (k, k)))
            .expect("bulkload");
        let mut client = cluster.client(0);
        let mut gen = spec.generator(0);
        // The first half warms the online policy; the second is measured.
        let stats = cluster.cache(0).stats();
        let counters = || {
            [
                stats.hits(),
                stats.levels_skipped(),
                stats.deferred_admissions(),
                stats.evictions(),
            ]
        };
        let (mut lookups, mut reads, mut ns) = (0u64, 0u64, 0u64);
        let mut baseline = counters();
        for i in 0..ops {
            if i == ops / 2 {
                baseline = counters();
            }
            match gen.next_op() {
                Op::Lookup { key } => {
                    let (_, s) = client.lookup(key).expect("lookup");
                    if i >= ops / 2 {
                        lookups += 1;
                        reads += s.reads;
                        ns += s.latency_ns;
                    }
                }
                Op::Insert { key, value } => drop(client.insert(key, value).expect("insert")),
                op => unreachable!("{op:?} in a read-intensive mix"),
            }
        }
        let measured = (ops - ops / 2) as f64;
        let [hits, skipped, deferred, evictions] = counters();
        let per_op = |now: u64, then: u64| (now - then) as f64 / measured;
        let reads_per_lookup = reads as f64 / lookups as f64;
        let evictions_per_kop = per_op(evictions, baseline[3]) * 1e3;
        sweep.push((kb, reads_per_lookup, evictions_per_kop));
        rows.push(vec![
            kb.to_string(),
            format!("{reads_per_lookup:.2}"),
            format!("{:.2}", ns as f64 / lookups as f64 / 1e3),
            format!("{:.1}%", per_op(hits, baseline[0]) * 100.0),
            format!("{:.2}", per_op(skipped, baseline[1])),
            format!("{:.0}", per_op(deferred, baseline[2]) * 1e3),
            format!("{evictions_per_kop:.0}"),
        ]);
    }
    print_table(
        &[
            "cache size (KB)",
            "reads / lookup",
            "lookup (us)",
            "level-1 answers",
            "levels skipped / op",
            "deferred / kop",
            "evictions / kop",
        ],
        &rows,
    );
    sweep
}

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "smoke", "threads", "keys", "ops", "deep-keys", "deep-ops", "backend",
    ]);
    if args.flag("smoke") {
        let sweep = deep_sweep(&args, true);
        let at_256kb = sweep.iter().find(|s| s.0 == 256).map(|s| s.1);
        let ok = at_256kb.is_some_and(|reads| reads <= 1.49)
            && sweep.windows(2).all(|w| w[1].1 <= w[0].1)
            && sweep.iter().all(|s| s.2 <= 100.0);
        if !ok {
            eprintln!(
                "fig15 smoke FAILED: (budget KB, reads per lookup, evictions per 1 000 ops) {sweep:?} \
                 (need <= 1.49 reads at 256 KB, never rising with the budget, <= 100 evictions)"
            );
            std::process::exit(1);
        }
        println!(
            "fig15 smoke ok: {:.4} reads per lookup at 256 KB",
            at_256kb.unwrap_or(0.0)
        );
        return;
    }
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
    deep_sweep(&args, false);
}
