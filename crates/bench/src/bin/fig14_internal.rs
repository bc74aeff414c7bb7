//! Figure 14 — in-depth analysis with internal metrics under the
//! write-intensive, skewed (0.99) workload:
//!
//! * (a) retry counts of read operations,
//! * (b) CDF of round trips per write operation,
//! * (c) bytes written per write operation.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin fig14_internal [-- --quick --threads N --keys N
//!     --ops N] [--backend sim|threaded]
//! ```

use sherman::TreeOptions;
use sherman_bench::presets::PAPER_QUICK;
use sherman_bench::{print_table, run_with_backend, Args, Experiment};

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "keys", "ops", "backend"]);
    let run = |name, options| {
        run_with_backend(&args, &Experiment::paper(name, options).scaled_by(&args, "keys", &PAPER_QUICK)).expect_clean()
    };
    let fg = run("FG+", TreeOptions::fg_plus());
    let sherman = run("Sherman", TreeOptions::sherman());
    println!("Figure 14(a): retry counts of read operations (fraction of reads)");
    let mut rows = Vec::new();
    for retries in 0..=4u64 {
        rows.push(vec![
            retries.to_string(),
            format!("{:.4}%", fg.read_retries.fraction(retries) * 100.0),
            format!("{:.4}%", sherman.read_retries.fraction(retries) * 100.0),
        ]);
    }
    print_table(&["retries", "FG+", "Sherman"], &rows);

    println!("\nFigure 14(b): round trips of write operations (CDF)");
    let mut rows = Vec::new();
    for rts in 1..=6u64 {
        rows.push(vec![
            rts.to_string(),
            format!("{:.1}%", fg.write_round_trips.cdf(rts) * 100.0),
            format!("{:.1}%", sherman.write_round_trips.cdf(rts) * 100.0),
        ]);
    }
    rows.push(vec![
        "p99".to_string(),
        fg.write_round_trips.quantile(0.99).to_string(),
        sherman.write_round_trips.quantile(0.99).to_string(),
    ]);
    print_table(&["round trips", "FG+ (<=)", "Sherman (<=)"], &rows);

    println!("\nFigure 14(c): write size of write operations");
    let rows = vec![
        vec![
            "mean bytes".to_string(),
            format!("{:.0}", fg.write_sizes.mean()),
            format!("{:.0}", sherman.write_sizes.mean()),
        ],
        vec![
            "<= 64 B".to_string(),
            format!("{:.1}%", fg.write_sizes.fraction_at_most(64) * 100.0),
            format!("{:.1}%", sherman.write_sizes.fraction_at_most(64) * 100.0),
        ],
        vec![
            ">= 1 KiB".to_string(),
            format!("{:.1}%", fg.write_sizes.fraction_at_least(1024) * 100.0),
            format!("{:.1}%", sherman.write_sizes.fraction_at_least(1024) * 100.0),
        ],
    ];
    print_table(&["metric", "FG+", "Sherman"], &rows);
}
