//! Run every figure/table binary in quick mode — a one-command regeneration of
//! the whole evaluation at smoke-test scale — or, with `--smoke`, every CI
//! gate the binaries carry.
//!
//! ```text
//! cargo build --release -p sherman_bench --bins
//! cargo run --release -p sherman_bench --bin run_all [-- --full | --smoke]
//! ```
//!
//! The siblings are executed from this binary's own directory, so they must
//! have been built first (`cargo run --bin run_all` alone builds only
//! `run_all`).  `--smoke` runs each binary that has a `--smoke` gate, then
//! the `churn` and `scenario` gates again on the threaded backend.  Exits
//! non-zero when any child fails or cannot be launched.

use sherman_bench::Args;
use std::process::Command;

const FIGURES: [&str; 14] = [
    "table1",
    "fig2_lock_collapse",
    "fig3_write_size",
    "fig10_ablation_skew",
    "fig11_ablation_uniform",
    "fig12_range",
    "fig13_scalability",
    "fig14_internal",
    "fig15_sensitivity",
    "fig16_hocl",
    "churn",
    "pipeline",
    "scenario",
    "offload",
];

const GATES: [(&str, &[&str]); 7] = [
    ("churn", &["--smoke"]),
    ("pipeline", &["--smoke"]),
    ("scenario", &["--smoke"]),
    ("offload", &["--smoke"]),
    ("fig15_sensitivity", &["--smoke"]),
    ("churn", &["--smoke", "--backend", "threaded"]),
    ("scenario", &["--smoke", "--backend", "threaded"]),
];

fn main() {
    let args = Args::from_env();
    args.finish(&["full", "smoke", "quick"]);
    let quick: &[&str] = if args.flag("full") { &[] } else { &["--quick"] };
    let runs: Vec<(&str, &[&str])> = if args.flag("smoke") {
        GATES.to_vec()
    } else {
        FIGURES.iter().map(|&bin| (bin, quick)).collect()
    };

    let exe_dir = std::env::current_exe().expect("current exe");
    let exe_dir = exe_dir.parent().expect("exe dir");
    let mut failed = Vec::new();
    for (bin, bin_args) in runs {
        let label = [&[bin], bin_args].concat().join(" ");
        println!("\n================ {label} ================");
        let path = exe_dir.join(bin);
        match Command::new(&path).args(bin_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{label}: {status}")),
            Err(e) => failed.push(format!(
                "{label}: cannot launch {} ({e}); build the siblings first: \
                 cargo build --release -p sherman_bench --bins",
                path.display()
            )),
        }
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("run_all FAILED: {f}");
        }
        std::process::exit(1);
    }
}
