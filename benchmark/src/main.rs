//! The repository benchmark.  See `README.md` beside the manifest.
//!
//! ```text
//! sherman_benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! sherman_benchmark run [--seed N] [--out FILE] [--workload NAME]... [--scale F] [--smoke]
//! sherman_benchmark compare A.json B.json
//! sherman_benchmark selfcheck
//! sherman_benchmark manifest
//! ```

#![deny(unsafe_code)]

mod calib;
mod cli;
mod compare;
mod driver;
mod json;
mod probes;
mod report;
mod spec;
mod stats;
mod stream;
mod suite;
mod sys;
mod trace;

use driver::{Budget, RunRequest};
use std::process::ExitCode;

/// A traced run measures the workload for this share of its budget; the
/// probes take about as long as the rest.
const TRACED_SHARE: f64 = 0.5;

fn workload_named(name: &str) -> Result<&'static spec::WorkloadDef, String> {
    spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(" "))
    })
}

/// One run of one workload in this process.  Returns whether it was correct.
fn one_run(args: &[String]) -> Result<bool, String> {
    let flags = cli::parse(
        args,
        &["--workload", "--seed", "--seconds", "--ops", "--trace"],
        &[],
    )?;
    let name: String = flags.one("--workload")?.ok_or("--workload is required")?;
    let trace = match flags.one::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let budget = match (flags.one::<f64>("--seconds")?, flags.one::<usize>("--ops")?) {
        (Some(s), None) if s > 0.0 && s <= 600.0 => {
            Budget::Seconds(if trace { s * TRACED_SHARE } else { s })
        }
        (Some(s), None) => return Err(format!("--seconds {s} is not within (0, 600]")),
        (None, Some(n)) if n > 0 => Budget::Ops(n),
        (None, Some(_)) => return Err("--ops must be at least 1".into()),
        (None, None) => Budget::Seconds(spec::RUN_SECONDS as f64),
        (Some(_), Some(_)) => return Err("--seconds and --ops exclude each other".into()),
    };
    let result = driver::run_workload(RunRequest {
        def: workload_named(&name)?,
        seed: flags.one("--seed")?.unwrap_or(1),
        budget,
        trace,
    })?;
    print!("{}", result.text_rows());
    for problem in &result.problems {
        println!("# problem: {problem}");
    }
    println!(
        "{}{}",
        suite::FULL_RESULT_PREFIX,
        result.to_json().to_line()
    );
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn run_suite(args: &[String]) -> Result<bool, String> {
    let flags = cli::parse(
        args,
        &["--seed", "--out", "--workload", "--scale"],
        &["--smoke"],
    )?;
    let scale = flags.one::<f64>("--scale")?.unwrap_or(1.0);
    if !(scale > 0.0 && scale <= 8.0) {
        return Err(format!("--scale {scale} is not within (0, 8]"));
    }
    let only = flags
        .all("--workload")
        .into_iter()
        .map(workload_named)
        .collect::<Result<Vec<_>, _>>()?;
    let (doc, ok) = suite::run(&suite::SuiteRequest {
        seed: flags.one("--seed")?.unwrap_or(1),
        scale,
        smoke: flags.has("--smoke"),
        only,
    })?;
    let text = doc.to_pretty();
    match flags.one::<String>("--out")? {
        Some(path) => std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_suite(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b).map(|any_worse| !any_worse),
            _ => Err("compare takes exactly two result files".into()),
        },
        Some("selfcheck") if args.len() == 1 => suite::selfcheck().map(|()| true),
        Some("manifest") if args.len() == 1 => {
            print!("{}", spec::manifest().to_pretty());
            Ok(true)
        }
        Some("selfcheck" | "manifest") => Err("this subcommand takes no arguments".into()),
        _ => one_run(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sherman_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
