//! Figure 16 — HOCL microbenchmark: the lock-design ladder under a skewed
//! (0.99) access pattern over a fixed set of locks on one memory server.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig16_hocl [-- --quick --threads N --locks N]
//! ```

use sherman_bench::{fmt_mops, fmt_us, print_table, run_lock_experiment, Args, LockExperiment, LOCK_LADDER};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "theta", "threads", "locks", "ops"]);
    println!("Figure 16: performance of HOCL design steps (skewed pattern, theta=0.99)");
    let mut rows = Vec::new();
    for (label, strategy) in LOCK_LADDER {
        let mut exp = LockExperiment::default_scaled(strategy);
        exp.theta = args.get_or("theta", 0.99);
        let s = run_lock_experiment(&exp.scaled_by(&args));
        rows.push(vec![
            label.to_string(),
            fmt_mops(s.throughput_ops),
            fmt_us(s.p50_ns),
            fmt_us(s.p99_ns),
        ]);
    }
    print_table(
        &["configuration", "throughput (Mops)", "p50 (us)", "p99 (us)"],
        &rows,
    );
}
