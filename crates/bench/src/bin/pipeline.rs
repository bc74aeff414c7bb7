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
//! cargo run --release -p sherman_bench --bin pipeline [-- --quick] [--smoke]
//!     [--threads N] [--keys N] [--ops N] [--range-pct P] [--insert-pct P]
//!     [--range-size N] [--depths 1,2,4,8] [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs the CI gate at `--quick` scale and exits non-zero when
//! depth 1 deviates from the blocking path by more than 5%, when depth 4
//! fails to beat depth 1 by at least 1.5× on uniform lookups, or when the
//! overlap gauges show the pipeline never went concurrent (mean in-flight
//! ≤ 1.5 at depth 4).  The gate then repeats the sweep on a 50%-insert
//! uniform workload — a pipelined write parks on its lock round trip like on
//! any other — requiring depth-1 equivalence within 5%, a depth-4 speedup of
//! at least 2.5× and depth 8 at least 4× the blocking loop.

use sherman_bench::presets::PIPELINE_QUICK;
use sherman_bench::{
    fmt_mops, fmt_us, print_table, run_with_backend, smoke_verdict, Args, DrivePath, Experiment,
    RunReport,
};

fn main() {
    let args = Args::from_env();
    args.finish(&[
        "quick", "smoke", "threads", "keys", "ops", "range-pct", "range-size", "insert-pct",
        "depths", "backend",
    ]);
    if args.flag("smoke") {
        smoke(&args);
        return;
    }
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

/// CI gate: depth-1 equivalence and the depth-4 speedup, at quick scale —
/// once on uniform lookups (≥ 1.5×) and once on a 50%-insert mixed workload
/// (≥ 2.5×, and depth 8 ≥ 4× blocking: a write's two round trips overlap
/// with everything else in flight).
fn smoke(args: &Args) {
    let mut failures = Vec::new();
    smoke_case(args, "reads", 0, 1.5, &mut failures);
    let blocking = smoke_case(args, "mixed-50i", 50, 2.5, &mut failures);
    let depth8 = measure(args, "depth-8", DrivePath::Pipelined(8), 50);
    let speedup = depth8.summary.throughput_ops / blocking;
    println!(
        "pipeline smoke [mixed-50i]: depth8={} vs blocking {speedup:.2}x",
        fmt_mops(depth8.summary.throughput_ops)
    );
    if speedup < 4.0 {
        failures.push(format!(
            "[mixed-50i] depth-8 throughput only {speedup:.2}x blocking (needs >= 4x)"
        ));
    }
    smoke_verdict("pipeline", &failures);
}

/// One workload's depth-1 and depth-4 checks; returns the blocking loop's
/// throughput.
fn smoke_case(
    args: &Args,
    case: &str,
    insert_pct: u8,
    min_speedup: f64,
    failures: &mut Vec<String>,
) -> f64 {
    let blocking = measure(args, "blocking", DrivePath::Blocking, insert_pct);
    let depth1 = measure(args, "depth-1", DrivePath::Pipelined(1), insert_pct);
    let depth4 = measure(args, "depth-4", DrivePath::Pipelined(4), insert_pct);

    let equivalence = depth1.summary.throughput_ops / blocking.summary.throughput_ops;
    let speedup = depth4.summary.throughput_ops / depth1.summary.throughput_ops;
    println!(
        "pipeline smoke [{case}]: blocking={} depth1={} depth4={} equivalence={:.3} \
         speedup={:.2}x mean_inflight(d4)={:.2} max_inflight(d4)={} overlapped(d4)={:.0}%",
        fmt_mops(blocking.summary.throughput_ops),
        fmt_mops(depth1.summary.throughput_ops),
        fmt_mops(depth4.summary.throughput_ops),
        equivalence,
        speedup,
        depth4.overlap.mean_in_flight(),
        depth4.overlap.max_in_flight,
        depth4.overlap.overlapped_fraction() * 100.0,
    );
    if !(0.95..=1.05).contains(&equivalence) {
        failures.push(format!(
            "[{case}] depth-1 deviates from the blocking path by more than 5% \
             (ratio {equivalence:.3})"
        ));
    }
    if speedup < min_speedup {
        failures.push(format!(
            "[{case}] depth-4 throughput only {speedup:.2}x depth-1 (needs >= {min_speedup}x)"
        ));
    }
    if depth4.overlap.mean_in_flight() <= 1.5 {
        failures.push(format!(
            "[{case}] depth-4 mean in-flight {:.2} shows no real overlap (needs > 1.5)",
            depth4.overlap.mean_in_flight()
        ));
    }
    blocking.summary.throughput_ops
}
