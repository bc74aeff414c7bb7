//! Pipeline — the split-phase scheduler's depth sweep (beyond the paper).
//!
//! Sherman's evaluation hides RDMA round-trip latency by running multiple
//! coroutines per client thread; this reproduction's analogue is the
//! pipelined read scheduler (`TreeClient::run_pipelined`), which multiplexes
//! N logical lookups/scans over one fabric context.  This binary sweeps the
//! in-flight depth over {1, 2, 4, 8} on the uniform-lookup workload and
//! reports the virtual-time throughput curve next to the blocking reference,
//! plus the overlap gauges that prove the depth actually materialized
//! (mean/max in-flight verbs, overlapped round trips, serial-vs-elapsed
//! overlap factor).
//!
//! ```text
//! cargo run --release -p sherman_bench --bin pipeline [-- --quick]
//!     [--threads N] [--keys N] [--ops N] [--range-pct P] [--insert-pct P]
//!     [--range-size N] [--depths 1,2,4,8] [--backend sim|threaded]
//! ```
//!
//! At `--quick` scale the sweep is gated in tier-1 (`runner::tests` in
//! `crates/bench/src/lib.rs`): depth 1 within 5 % of the blocking loop, and
//! depth 4 at least 1.5× depth 1 on uniform lookups with a mean in-flight
//! above 1.5; on a 50 %-insert mix — a pipelined write parks on its lock
//! round trip like on any other — depth 4 at least 2.5× depth 1 and depth 8
//! at least 4× the blocking loop.

use sherman_bench::presets::PIPELINE_QUICK;
use sherman_bench::{
    fmt_mops, fmt_us, print_table, run_with_backend, Args, DrivePath, Experiment, RunReport,
};

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "threads", "keys", "ops", "range-pct", "range-size", "insert-pct",
        "depths", "backend",
    ]);
    let depths: Vec<usize> = args
        .get_or("depths", "1,2,4,8".to_string())
        .split(',')
        .map(|d| d.parse())
        .collect::<Result<_, _>>()
        .unwrap_or_else(|_| Args::fail("--depths takes a comma-separated list of depths"));
    let insert_pct = args.get_or("insert-pct", 0);

    println!("Pipeline: split-phase read scheduler, in-flight depth sweep (uniform lookups)");
    let blocking = measure(&args, "blocking", DrivePath::Blocking, insert_pct);
    let base = blocking.summary.throughput_ops;
    let mut rows = vec![row(&blocking, base)];
    for &depth in &depths {
        let name = format!("depth-{depth}");
        let result = measure(&args, &name, DrivePath::Pipelined(depth), insert_pct);
        rows.push(row(&result, base));
    }
    print_table(
        &[
            "system",
            "Mops",
            "vs blocking",
            "p50",
            "p99",
            "mean-inflight",
            "max",
            "overlapped-rt",
            "overlap-x",
        ],
        &rows,
    );
    println!("\nvs blocking  = virtual-time throughput relative to the blocking client loop");
    println!("mean/max     = in-flight verb depth at post time (1.0 when blocking)");
    println!("overlapped-rt= fraction of round trips whose window overlapped another verb");
    println!("overlap-x    = serial verb time / elapsed time (how many RTTs were hidden)");
}

fn measure(args: &Args, name: &str, drive: DrivePath, insert_pct: u8) -> RunReport {
    let mut exp = Experiment::pipeline(name, drive, args.get_or("range-pct", 0), insert_pct);
    let spec = exp.source.workload_mut();
    spec.range_size = args.get_or("range-size", spec.range_size);
    run_with_backend(args, &exp.scaled_by(args, "keys", &PIPELINE_QUICK)).expect_clean()
}

fn row(result: &RunReport, base: f64) -> Vec<String> {
    vec![
        result.name.clone(),
        fmt_mops(result.summary.throughput_ops),
        format!("{:.2}x", result.summary.throughput_ops / base.max(f64::MIN_POSITIVE)),
        fmt_us(result.summary.p50_ns),
        fmt_us(result.summary.p99_ns),
        format!("{:.2}", result.overlap.mean_in_flight()),
        result.overlap.max_in_flight.to_string(),
        format!("{:.0}%", result.overlap.overlapped_fraction() * 100.0),
        format!("{:.2}", result.overlap.overlap_factor()),
    ]
}
