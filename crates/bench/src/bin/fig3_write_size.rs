//! Figure 3 — `RDMA_WRITE` throughput versus IO size: small writes sustain the
//! NIC's IOPS ceiling, large writes hit the wire-bandwidth ceiling.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig3_write_size [-- --quick --threads N]
//! ```

use sherman_bench::{fmt_mops, fmt_us, print_table, run_write_size_sweep, Args};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "ops"]);
    let sizes = [16usize, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let threads = args.get_or("threads", 8);
    let ops = args.get_or("ops", 500);
    let ops = if args.quick() { 150 } else { ops };

    println!("Figure 3: RDMA_WRITE throughput vs IO size");
    let points = run_write_size_sweep(&sizes, threads, 4, ops);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.io_bytes.to_string(),
                fmt_mops(p.summary.throughput_ops),
                fmt_us(p.summary.p50_ns),
            ]
        })
        .collect();
    print_table(&["IO size (B)", "throughput (Mops)", "p50 (us)"], &rows);
}
