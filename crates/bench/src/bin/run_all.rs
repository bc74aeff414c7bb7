//! Run every figure/table binary in quick mode — a one-command regeneration of
//! the whole evaluation at smoke-test scale — or, with `--full`, at full
//! scale.
//!
//! ```text
//! cargo build --release -p sherman_bench --bins
//! cargo run --release -p sherman_bench --bin run_all [-- --full]
//! ```
//!
//! The siblings are executed from this binary's own directory, so they must
//! have been built first (`cargo run --bin run_all` alone builds only
//! `run_all`).  Exits non-zero when any child fails or cannot be launched.
//! The binaries' gates are unit tests of this crate (`cargo test -p
//! sherman_bench --lib`).

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

fn main() {
    let args = Args::from_env();
    args.finish(&["full"]);
    let bin_args: &[&str] = if args.flag("full") { &[] } else { &["--quick"] };

    let exe_dir = std::env::current_exe().expect("current exe");
    let exe_dir = exe_dir.parent().expect("exe dir");
    let mut failed = Vec::new();
    for bin in FIGURES {
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
