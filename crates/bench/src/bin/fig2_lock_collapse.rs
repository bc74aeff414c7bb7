//! Figure 2 — RDMA-based exclusive locks (host-memory CAS/FAA) collapse under
//! contention as the Zipfian parameter grows.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig2_lock_collapse [-- --quick --threads N --locks N]
//! ```

use sherman::LockStrategy;
use sherman_bench::{fmt_mops, fmt_us, print_table, run_lock_experiment, Args, LockExperiment};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "locks", "ops"]);
    let thetas = [0.0, 0.8, 0.9, 0.95, 0.99];

    println!("Figure 2: RDMA-based exclusive locks vs contention degree (baseline design)");
    let mut rows = Vec::new();
    for theta in thetas {
        let mut exp = LockExperiment::default_scaled(LockStrategy::HostCasFaa);
        exp.theta = theta;
        let s = run_lock_experiment(&exp.scaled_by(&args));
        rows.push(vec![
            format!("{theta:.2}"),
            fmt_mops(s.throughput_ops),
            fmt_us(s.p50_ns),
            fmt_us(s.p99_ns),
        ]);
    }
    print_table(
        &["zipfian theta", "throughput (Mops)", "p50 (us)", "p99 (us)"],
        &rows,
    );
}
