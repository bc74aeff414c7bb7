//! `run`: every workload, each in a child process of its own (untraced for
//! the end-to-end table, then traced for the per-layer one), gathered into
//! one result file.  `selfcheck`: the early warning that pinned simulator
//! runs have stopped repeating.

use crate::json::{self, Json};
use crate::spec::{
    self, Backend, MetricDef, WorkloadDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use crate::sys;
use std::process::{Command, Stdio};

/// The line a child prints for its parent, before the driver's own.
pub const FULL_RESULT_PREFIX: &str = "# full ";

#[derive(Debug, Clone)]
pub struct SuiteRequest {
    pub seed: u64,
    pub scale: f64,
    /// 1 % of the issue's operation counts, fixed per thread, no probes.
    pub smoke: bool,
    /// Workloads to run; all six when empty.
    pub only: Vec<&'static WorkloadDef>,
}

/// How long one child measures, as the flags it is given.
fn budget_flags(def: &WorkloadDef, req: &SuiteRequest) -> [String; 2] {
    if req.smoke {
        let ops = (def.smoke_ops as f64 * req.scale).ceil().max(1.0);
        ["--ops".into(), format!("{ops}")]
    } else {
        [
            "--seconds".into(),
            format!("{}", RUN_SECONDS as f64 * req.scale),
        ]
    }
}

/// Run one workload once in a child process; its full result.
fn child(def: &WorkloadDef, req: &SuiteRequest, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let [budget_flag, budget] = budget_flags(def, req);
    let output = Command::new(exe)
        .args(["--workload", def.name, "--seed", &req.seed.to_string()])
        .args([budget_flag.as_str(), budget.as_str()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", def.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let full = stdout
        .lines()
        .find_map(|l| l.strip_prefix(FULL_RESULT_PREFIX))
        .ok_or_else(|| {
            format!(
                "the {} child printed no result (status {})",
                def.name, output.status
            )
        })?;
    json::parse(full)
}

fn meta(req: &SuiteRequest) -> Json {
    Json::obj([
        ("seed", Json::Num(req.seed as f64)),
        ("scale", Json::Num(req.scale)),
        ("smoke", Json::Bool(req.smoke)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "pin_method",
            Json::str("sched_setaffinity (simulator workloads); threaded_write_skew unpinned"),
        ),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("git_commit", Json::str(sys::git_commit())),
        ("rustc", Json::str(sys::rustc_version())),
        (
            "model",
            Json::str(
                "fabric-time figures come from an analytic model that is unvalidated against \
                 hardware: the repository holds no reference results, so no error figure is given",
            ),
        ),
    ])
}

/// Run the suite.  Returns the result document and whether every run was
/// correct and pinned as required.
pub fn run(req: &SuiteRequest) -> Result<(Json, bool), String> {
    let defs: Vec<&WorkloadDef> = if req.only.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        req.only.clone()
    };
    // One discarded smoke run first, so that page-cache misses and lazy
    // set-up of the binary are not billed to the first workload.
    let warm = SuiteRequest {
        smoke: true,
        scale: 1.0,
        ..req.clone()
    };
    child(defs[0], &warm, false)?;

    let mut ok = true;
    let mut entries = Vec::new();
    for def in defs {
        let untraced = child(def, req, false)?;
        let traced = child(def, req, true)?;
        let field = |k: &str| untraced.get(k).cloned().unwrap_or(Json::Null);
        for pass in [&untraced, &traced] {
            ok &= pass.get("correct") == Some(&Json::Bool(true));
            if def.backend == Backend::Sim {
                ok &= pass.get("pinned") == Some(&Json::Bool(true));
            }
        }
        for (table, pass) in [(END_TO_END, &untraced), (PER_LAYER, &traced)] {
            for m in table {
                if let Some(v) = pass
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(Json::as_f64)
                {
                    println!("{} {} {} {}", def.name, m.name, v, m.unit);
                }
            }
        }
        let problems: Vec<Json> = [&untraced, &traced]
            .iter()
            .flat_map(|p| {
                p.get("problems")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec()
            })
            .collect();
        entries.push((
            def.name,
            Json::obj([
                ("end_to_end", field("metrics")),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("failed_op_ratio", field("failed_op_ratio")),
                (
                    "correct",
                    Json::Bool(problems.is_empty() && field("correct") == Json::Bool(true)),
                ),
                ("problems", Json::Arr(problems)),
                ("samples", field("samples")),
                ("host_spread", field("host_spread")),
                ("box_speed", field("box_speed")),
                ("wall_kops_per_s", field("wall_kops_per_s")),
                ("pinned", field("pinned")),
                ("pinned_cpu", field("pinned_cpu")),
                ("stream_hash", field("stream_hash")),
            ]),
        ));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("sherman_benchmark")),
        ("schema", Json::Num(1.0)),
        ("meta", meta(req)),
        ("workloads", Json::obj(entries)),
    ]);
    Ok((doc, ok))
}

/// The `*` metrics of `table` on which two runs of one workload and seed
/// disagree (exactly with one client, by more than 1 % with two; a value only
/// one run has disagrees), and how many were compared.
fn metric_strays(
    def: &WorkloadDef,
    table: &[MetricDef],
    first: &Json,
    second: &Json,
) -> (Vec<String>, usize) {
    let mut strays = Vec::new();
    let mut compared = 0;
    for m in table.iter().filter(|m| m.exact_on_sim) {
        let value = |doc: &Json| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(Json::as_f64)
        };
        let (a, b) = (value(first), value(second));
        let agree = match (a, b) {
            (None, None) => continue,
            (Some(a), Some(b)) if def.threads == 1 => a == b,
            (Some(a), Some(b)) => (a - b).abs() <= 0.01 * a.abs().max(b.abs()),
            _ => false,
        };
        compared += 1;
        if !agree {
            strays.push(format!("{} {}: {a:?} then {b:?}", def.name, m.name));
        }
    }
    (strays, compared)
}

/// Two smoke runs of one seed must agree on every fabric-time and count
/// metric of the simulator workloads, end to end and per layer — exactly with
/// one client, within 1 % with two — both must be correct, and
/// `BENCHMARK.json` must name what this binary emits.
pub fn selfcheck() -> Result<(), String> {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))
        .and_then(|t| json::parse(&t))?;
    if on_disk != spec::manifest() {
        return Err(
            "BENCHMARK.json differs from the tables in spec.rs (regenerate it with `manifest`)"
                .into(),
        );
    }
    let req = SuiteRequest {
        seed: 1,
        scale: 1.0,
        smoke: true,
        only: Vec::new(),
    };
    let mut differences = Vec::new();
    for def in WORKLOADS.iter().filter(|w| w.backend == Backend::Sim) {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let first = child(def, &req, traced)?;
            let second = child(def, &req, traced)?;
            let (strays, compared) = metric_strays(def, table, &first, &second);
            // With two clients, which of two operations due at the same
            // virtual instant goes first is the OS scheduler's choice.  About
            // one pair of smoke runs in eight then differs in a few per-layer
            // figures that a handful of events decide (a maximum, a p999, a
            // dozen lock retries): by 1–5 %, a third at worst, which no
            // tolerance worth having covers.  Up to one per-layer figure in
            // ten may stray on those workloads; runs that have stopped
            // repeating stray on most.
            if traced && def.threads > 1 && strays.len() * 10 <= compared {
                strays
                    .iter()
                    .for_each(|s| println!("selfcheck: tolerated with two clients: {s}"));
            } else {
                differences.extend(strays);
            }
            for key in ["attempted", "failed", "stream_hash"] {
                if first.get(key) != second.get(key) {
                    differences.push(format!("{} {key} differs between the runs", def.name));
                }
            }
            for run in [&first, &second] {
                if run.get("correct") != Some(&Json::Bool(true)) {
                    differences.push(format!(
                        "{} is not correct: {:?}",
                        def.name,
                        run.get("problems")
                    ));
                }
            }
        }
        println!("selfcheck {}: compared", def.name);
    }
    if differences.is_empty() {
        println!(
            "selfcheck: BENCHMARK.json matches; one-client simulator runs repeat exactly, \
             two-client ones within 1 %"
        );
        Ok(())
    } else {
        Err(format!(
            "simulator runs of one seed differ:\n  {}",
            differences.join("\n  ")
        ))
    }
}
