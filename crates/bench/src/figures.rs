//! Tables that more than one binary prints, and the sweeps a binary shares
//! with its tier-1 gate.

use crate::presets::PAPER_QUICK;
use crate::{fmt_mops, fmt_us, print_table, run_with_backend, Args, Experiment};
use sherman::{Cluster, ClusterConfig, TreeOptions};
use sherman_workload::{KeyDistribution, Mix, Op, WorkloadSpec};

/// The technique ablation ladder (FG+ → +Combine → +On-Chip → +Hierarchical →
/// +2-Level Ver) under the write-only, write-intensive and read-intensive
/// mixes, keys drawn from `distribution`: Figure 10 (skewed, where lock
/// handover matters and gets a column) and Figure 11 (uniform).
pub fn ablation(args: &Args, distribution: KeyDistribution, handover_column: bool) {
    let mixes = [
        ("write-only", Mix::WRITE_ONLY),
        ("write-intensive", Mix::WRITE_INTENSIVE),
        ("read-intensive", Mix::READ_INTENSIVE),
    ];
    let mut headers = vec!["configuration", "throughput (Mops)", "p50 (us)", "p99 (us)"];
    if handover_column {
        headers.push("handover");
    }
    for (mix_name, mix) in mixes {
        println!("\n[{mix_name}]");
        let mut rows = Vec::new();
        for (label, options) in TreeOptions::ablation_ladder() {
            let mut exp = Experiment::paper(label, options);
            let spec = exp.source.workload_mut();
            spec.mix = mix;
            spec.distribution = distribution;
            let r =
                run_with_backend(args, &exp.scaled_by(args, "keys", &PAPER_QUICK)).expect_clean();
            let mut row = vec![
                label.to_string(),
                fmt_mops(r.summary.throughput_ops),
                fmt_us(r.summary.p50_ns),
                fmt_us(r.summary.p99_ns),
            ];
            if handover_column {
                row.push(format!("{:.0}%", r.handover_fraction * 100.0));
            }
            rows.push(row);
        }
        print_table(&headers, &rows);
    }
}

/// One table of FG+ against Sherman: a row per value of `axis`, the
/// throughput of the experiment `build` makes for each system side by side.
pub fn fg_vs_sherman<A: std::fmt::Display>(
    args: &Args,
    axis_header: &str,
    axis: &[A],
    build: impl Fn(&A, &str, TreeOptions) -> Experiment,
) {
    let systems = [
        ("FG+", TreeOptions::fg_plus()),
        ("Sherman", TreeOptions::sherman()),
    ];
    let mut rows = Vec::new();
    for value in axis {
        let mut row = vec![value.to_string()];
        for (name, options) in systems {
            let r = run_with_backend(args, &build(value, name, options)).expect_clean();
            row.push(fmt_mops(r.summary.throughput_ops));
        }
        rows.push(row);
    }
    print_table(&[axis_header, "FG+ (Mops)", "Sherman (Mops)"], &rows);
}

/// Figure 15(d), beyond the paper: one blocking client on the simulator,
/// uniform read-intensive traffic over a deep tree of 256 B nodes holding
/// 80 % of `key_space`, budgets from 64 KB to 4 MB.  Prints the table and
/// returns `(budget KB, reads per lookup, evictions per 1 000 operations)`
/// for each budget, smallest budget first, measured over the second half of
/// the `ops` operations (the first warms the online admission policy).
pub fn deep_cache_sweep(key_space: u64, ops: usize) -> Vec<(usize, f64, f64)> {
    println!(
        "\nFigure 15(d): index cache size on a deep tree (256 B nodes, uniform, read-intensive)"
    );
    let spec = WorkloadSpec {
        key_space,
        bulkload_keys: key_space / 5 * 4,
        mix: Mix::READ_INTENSIVE,
        distribution: KeyDistribution::Uniform,
        ..WorkloadSpec::default_scaled()
    };
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

#[cfg(test)]
mod tests {
    /// The index cache spends its budget top-down along the path, charges
    /// an image its header and its children packed to the widths they need,
    /// and admits it only over victims that routed fewer lookups.  On the
    /// deep tree (2^19 keys, 40 000 operations) a lookup then reads at most
    /// 1.49 nodes at 256 KB (1.4370 measured), reads never rise as the budget
    /// grows, and no budget evicts more than 100 times per 1 000 operations
    /// (28–49 measured).
    #[test]
    fn a_deep_tree_reads_fewer_nodes_as_the_cache_grows() {
        let sweep = super::deep_cache_sweep(1 << 19, 40_000);
        let at_256kb = sweep.iter().find(|s| s.0 == 256).map(|s| s.1);
        assert!(
            at_256kb.is_some_and(|reads| reads <= 1.49),
            "(budget KB, reads per lookup, evictions per 1 000 ops) {sweep:?}"
        );
        assert!(
            sweep.windows(2).all(|w| w[1].1 <= w[0].1),
            "reads per lookup rose with the budget: {sweep:?}"
        );
        assert!(
            sweep.iter().all(|s| s.2 <= 100.0),
            "a budget evicted more than 100 times per 1 000 operations: {sweep:?}"
        );
    }
}
