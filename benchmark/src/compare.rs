//! `compare A.json B.json`: B (the change) against A (the parent), one row
//! per end-to-end metric and workload, judged by the metric's direction and
//! bound.  Per-layer metrics have no bound; the ones that moved are listed as
//! the explanation, never as a verdict.

use crate::json::{self, Json};
use crate::spec::{self, Better, MetricDef};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// One side has no value, or the run-to-run spread is wider than the
    /// bound: neither "unchanged" nor "changed" can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of `a` the value got worse from `a` to `b` (negative:
/// better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge one metric of one workload.  `spread` is the widest within-run
/// quartile spread either side reports for it.  `None` when neither side has
/// a value (the operation class is absent from the workload).
pub fn judge(
    def: &MetricDef,
    a: Option<f64>,
    b: Option<f64>,
    spread: Option<f64>,
) -> Option<Verdict> {
    let bound = def.bound?;
    let (a, b) = match (a, b) {
        (None, None) => return None,
        (Some(a), Some(b)) => (a, b),
        _ => return Some(Verdict::Unresolved),
    };
    if spread.is_some_and(|s| s > bound) {
        return Some(Verdict::Unresolved);
    }
    let worse_by = worsening(def.better, a, b);
    Some(if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

/// Per-layer counts of wrong answers that do not fail a run (a fault the
/// parent commit already has must not fail the workload): judged like
/// `failed_op_ratio`, so that the fault getting worse does not pass unseen.
const NO_INCREASE: [&str; 2] = ["core.scan_missed_keys", "core.warm_scan_missed_keys"];

/// `failed_op_ratio` has no tolerance: any increase is worse.
pub fn judge_failed_ratio(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").and_then(Json::as_obj).is_none() {
        return Err(format!(
            "{path}: not a result file of `run` (no \"workloads\")"
        ));
    }
    Ok(doc)
}

fn value(entry: &Json, table: &str, metric: &str) -> Option<f64> {
    entry.get(table)?.get(metric)?.as_f64()
}

/// The report, and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let workloads_b = b.get("workloads");
    for (name, entry_a) in a.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
        let Some(entry_b) = workloads_b.and_then(|w| w.get(name)) else {
            writeln!(out, "{name} - - - - unresolved (absent from B)").expect("write to String");
            continue;
        };
        // An ungated workload's rows are shown and never fail the comparison.
        let gated = spec::workload(name).is_none_or(|w| w.gated);
        let note = if gated { "" } else { " (not gated)" };
        let mut row = |metric: &str, va: Option<f64>, vb: Option<f64>, verdict: Verdict| {
            any_worse |= gated && verdict == Verdict::Worse;
            let show = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v}"));
            let delta = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", (y - x) / x.abs() * 100.0),
                _ => "-".into(),
            };
            writeln!(
                out,
                "{name} {metric} {} {} {delta} {}{note}",
                show(va),
                show(vb),
                verdict.as_str()
            )
            .expect("write to String");
        };
        let spread_of = |e: &Json| e.get("host_spread").and_then(Json::as_f64);
        let host_spread = match (spread_of(entry_a), spread_of(entry_b)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        for def in spec::END_TO_END {
            let (va, vb) = (
                value(entry_a, "end_to_end", def.name),
                value(entry_b, "end_to_end", def.name),
            );
            let spread = (def.name == "host_kops_per_s")
                .then_some(host_spread)
                .flatten();
            if let Some(verdict) = judge(def, va, vb, spread) {
                row(def.name, va, vb, verdict);
            }
        }
        let failed = |e: &Json| e.get("failed_op_ratio").and_then(Json::as_f64);
        match (failed(entry_a), failed(entry_b)) {
            (Some(fa), Some(fb)) => row(
                "failed_op_ratio",
                Some(fa),
                Some(fb),
                judge_failed_ratio(fa, fb),
            ),
            (fa, fb) => row("failed_op_ratio", fa, fb, Verdict::Unresolved),
        }
        for name in NO_INCREASE {
            let (va, vb) = (
                value(entry_a, "per_layer", name),
                value(entry_b, "per_layer", name),
            );
            if let (Some(x), Some(y)) = (va, vb) {
                row(name, va, vb, judge_failed_ratio(x, y));
            }
        }
        for def in spec::PER_LAYER
            .iter()
            .filter(|d| !NO_INCREASE.contains(&d.name))
        {
            let (va, vb) = (
                value(entry_a, "per_layer", def.name),
                value(entry_b, "per_layer", def.name),
            );
            if let (Some(x), Some(y)) = (va, vb) {
                // Totals grow with the operations a time-bounded run got
                // through, and host-time probes carry the box's noise: a row
                // is only called moved beyond what those explain.
                let threshold = if def.exact_on_sim { 0.05 } else { 0.25 };
                let moved = (y - x).abs() > threshold * x.abs();
                if moved {
                    writeln!(
                        out,
                        "{name} {} {x} {y} {:+.2}% moved",
                        def.name,
                        (y - x) / x.abs().max(1e-300) * 100.0
                    )
                    .expect("write to String");
                }
            }
        }
    }
    (out, any_worse)
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (report, any_worse) = compare(&load(path_a)?, &load(path_b)?);
    print!("{report}");
    println!("# rows: workload metric A B change verdict; `moved` rows are per-layer context, not verdicts");
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        spec::metric(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let mops = def("fabric_mops"); // higher is better, 5 %
        assert_eq!(
            judge(mops, Some(1.0), Some(1.04), None),
            Some(Verdict::Same)
        );
        assert_eq!(
            judge(mops, Some(1.0), Some(0.96), None),
            Some(Verdict::Same)
        );
        assert_eq!(
            judge(mops, Some(1.0), Some(1.06), None),
            Some(Verdict::Better)
        );
        assert_eq!(
            judge(mops, Some(1.0), Some(0.94), None),
            Some(Verdict::Worse)
        );
        let mean = def("write_mean_us"); // lower is better, 5 %
        assert_eq!(
            judge(mean, Some(10.0), Some(10.6), None),
            Some(Verdict::Worse)
        );
        assert_eq!(
            judge(mean, Some(10.0), Some(9.4), None),
            Some(Verdict::Better)
        );
        assert_eq!(
            judge(mean, Some(10.0), Some(10.4), None),
            Some(Verdict::Same)
        );
    }

    #[test]
    fn missing_values_and_wide_spreads_are_unresolved() {
        let host = def("host_kops_per_s");
        assert_eq!(judge(host, None, None, None), None);
        assert_eq!(
            judge(host, Some(90.0), None, None),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(host, Some(90.0), Some(60.0), Some(0.5)),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(host, Some(90.0), Some(60.0), Some(0.01)),
            Some(Verdict::Worse)
        );
        // Per-layer metrics carry no bound and get no verdict.
        assert_eq!(
            judge(def("cache.hit_ratio"), Some(1.0), Some(0.1), None),
            None
        );
    }

    #[test]
    fn any_increase_in_failed_operations_is_worse() {
        assert_eq!(judge_failed_ratio(0.0, 1e-9), Verdict::Worse);
        assert_eq!(judge_failed_ratio(0.0, 0.0), Verdict::Same);
        assert_eq!(judge_failed_ratio(0.01, 0.0), Verdict::Better);
    }

    fn file(mops: f64, failed: f64, hit: f64) -> Json {
        file_of("ycsb_write_skew", mops, failed, hit)
    }

    fn file_of(workload: &str, mops: f64, failed: f64, hit: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::obj([(
                workload,
                Json::obj([
                    ("end_to_end", Json::obj([("fabric_mops", Json::Num(mops))])),
                    (
                        "per_layer",
                        Json::obj([("cache.hit_ratio", Json::Num(hit))]),
                    ),
                    ("failed_op_ratio", Json::Num(failed)),
                ]),
            )]),
        )])
    }

    #[test]
    fn a_worse_row_fails_the_comparison() {
        let (report, worse) = compare(&file(0.5, 0.0, 1.0), &file(0.5, 0.0, 1.0));
        assert!(!worse, "{report}");
        assert!(report.contains("ycsb_write_skew fabric_mops 0.5 0.5 +0.00% same"));
        let (report, worse) = compare(&file(0.5, 0.0, 1.0), &file(0.4, 0.0, 0.9));
        assert!(worse);
        assert!(
            report.contains("fabric_mops 0.5 0.4 -20.00% worse"),
            "{report}"
        );
        assert!(
            report.contains("cache.hit_ratio 1 0.9 -10.00% moved"),
            "{report}"
        );
        let (_, worse) = compare(&file(0.5, 0.0, 1.0), &file(0.5, 0.001, 1.0));
        assert!(worse, "failed operations appeared");
        let missed = |n: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "churn_scan",
                    Json::obj([(
                        "per_layer",
                        Json::obj([("core.scan_missed_keys", Json::Num(n))]),
                    )]),
                )]),
            )])
        };
        let (report, worse) = compare(&missed(0.0), &missed(3.0));
        assert!(
            worse && report.contains("core.scan_missed_keys 0 3 - worse"),
            "{report}"
        );
        let (_, worse) = compare(&missed(3.0), &missed(3.0));
        assert!(!worse, "a fault the parent has too");
        let threaded = |mops| file_of("threaded_write_skew", mops, 0.0, 1.0);
        let (report, worse) = compare(&threaded(0.5), &threaded(0.4));
        assert!(!worse && report.contains("worse (not gated)"), "{report}");
    }
}
