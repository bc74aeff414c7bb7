//! Tables that more than one binary prints.

use crate::presets::PAPER_QUICK;
use crate::{fmt_mops, fmt_us, print_table, run_with_backend, Args, Experiment};
use sherman::TreeOptions;
use sherman_workload::{KeyDistribution, Mix};

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
