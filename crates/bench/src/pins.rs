//! Pinned one-client runs: what each kind of experiment cost, exactly.
//!
//! One simulator participant repeats bit for bit, so every number below is a
//! constant: ops, elapsed virtual ns, mean and p99 latency, and the fabric's
//! round-trip / written-byte delta over the measured phase (plus the
//! backpressure, turnover and pressure-eviction figures where the run has
//! them).  The cache-shrink run is the exception: the index cache picks its
//! eviction victims with `rand::thread_rng`, whose seed depends on which
//! threads the process has started, so under the parallel test harness only
//! the figures no victim choice can move are pinned for it (operation count,
//! bytes written, evictions the shrink forced).  The constants were captured on the commit *before* the five bench
//! engines were folded into one; a refactor of the driver must reproduce them
//! without editing one.

use crate::{
    hostile_suite, run_churn_experiment, run_offload_experiment, run_pipeline_experiment,
    run_scenario_experiment, run_tree_experiment, ChurnExperiment, MemoryPressure,
    OffloadExperiment, PipelineExperiment, ScenarioExperiment, TreeExperiment,
};
use sherman::{OffloadPolicy, TreeConfig, TreeOptions};
use sherman_metrics::RunSummary;
use sherman_sim::metrics::MetricsSnapshot;

fn line(summary: &RunSummary, fabric: &MetricsSnapshot, extra: &str) -> String {
    format!(
        "ops={} elapsed_ns={} mean_ns={:?} p99_ns={} round_trips={} bytes_written={}{extra}",
        summary.ops,
        summary.elapsed_ns,
        summary.mean_ns,
        summary.p99_ns,
        fabric.round_trips,
        fabric.bytes_written,
    )
}

fn small_tree() -> TreeConfig {
    TreeConfig {
        cache_bytes: 1 << 20,
        chunk_bytes: 256 << 10,
        ..TreeConfig::default()
    }
}

/// Write-intensive zipfian, the figure bins' engine.
fn tree(depth: usize) -> String {
    let r = run_tree_experiment(&TreeExperiment {
        memory_servers: 2,
        compute_servers: 2,
        threads: 1,
        key_space: 1 << 12,
        ops_per_thread: 300,
        depth,
        tree: small_tree(),
        ..TreeExperiment::default_scaled("pin", TreeOptions::sherman())
    });
    line(&r.summary, &r.fabric, "")
}

/// Uniform lookups (and `insert_pct` inserts), the `pipeline` bin's engine.
fn pipeline(depth: usize, insert_pct: u8) -> String {
    let r = run_pipeline_experiment(&PipelineExperiment {
        memory_servers: 2,
        compute_servers: 2,
        threads: 1,
        key_space: 1 << 12,
        ops_per_thread: 300,
        insert_pct,
        tree: small_tree(),
        ..PipelineExperiment::default_scaled("pin", depth)
    });
    line(&r.summary, &r.fabric, "")
}

fn churn() -> String {
    let r = run_churn_experiment(&ChurnExperiment {
        window: 600,
        threads: 1,
        turnover: 3.0,
        tree: TreeConfig {
            node_size: 256,
            cache_bytes: 1 << 20,
            chunk_bytes: 64 << 10,
            ..TreeConfig::default()
        },
        ..ChurnExperiment::default_scaled("pin", TreeOptions::sherman())
    });
    line(
        &r.summary,
        &r.fabric,
        &format!(" turnovers={:?}", r.turnovers),
    )
}

fn scenario(exp: ScenarioExperiment, ops_per_thread: usize) -> String {
    let evicts = matches!(exp.pressure, MemoryPressure::CacheShrink { .. });
    let r = run_scenario_experiment(&ScenarioExperiment {
        threads: 1,
        ops_per_thread,
        ..exp.quick()
    });
    assert!(r.op_errors.is_empty(), "{:?}", r.op_errors);
    let counts = format!(
        " backpressure_ops={} pressure_evictions={}",
        r.backpressure_ops, r.pressure_evictions
    );
    if evicts {
        let (ops, bytes) = (r.summary.ops, r.fabric.bytes_written);
        format!("ops={ops} bytes_written={bytes}{counts}")
    } else {
        line(&r.summary, &r.fabric, &counts)
    }
}

fn suite_member(
    depth: usize,
    ops_per_thread: usize,
    pick: impl Fn(&ScenarioExperiment) -> bool,
) -> String {
    scenario(
        hostile_suite(depth)
            .into_iter()
            .find(pick)
            .expect("suite member"),
        ops_per_thread,
    )
}

fn offload(policy: OffloadPolicy) -> String {
    let mut exp = OffloadExperiment::default_scaled("pin", policy).quick();
    exp.memory_servers = 2;
    exp.threads = 1;
    exp.ops_per_thread = 200;
    // Cold start, but the default cache budget: a starved cache evicts, and
    // eviction is seeded per process (see the module docs).
    exp.cold_start = true;
    let r = run_offload_experiment(&exp);
    line(&r.summary, &r.fabric, "")
}

#[test]
fn one_client_runs_cost_exactly_what_they_did() {
    let hotspot = |e: &ScenarioExperiment| e.name == "shifting-hotspot";
    let cases: Vec<(&str, String, &str)> = vec![
        ("tree/blocking", tree(1), PINS[0]),
        ("tree/depth-4", tree(4), PINS[1]),
        ("pipeline/blocking/reads", pipeline(0, 0), PINS[2]),
        ("pipeline/depth-1/reads", pipeline(1, 0), PINS[3]),
        ("pipeline/depth-4/reads", pipeline(4, 0), PINS[4]),
        ("pipeline/blocking/50i", pipeline(0, 50), PINS[5]),
        ("pipeline/depth-1/50i", pipeline(1, 50), PINS[6]),
        ("pipeline/depth-4/50i", pipeline(4, 50), PINS[7]),
        ("churn", churn(), PINS[8]),
        ("scenario/hotspot/blocking", suite_member(0, 1_200, hotspot), PINS[9]),
        ("scenario/hotspot/depth-4", suite_member(4, 1_200, hotspot), PINS[10]),
        (
            "scenario/pool-exhaustion",
            // One client needs the longer stream to run the tiny pool dry.
            suite_member(0, 3_000, |e| e.pressure == MemoryPressure::PoolExhaustion),
            PINS[11],
        ),
        (
            "scenario/cache-shrink",
            suite_member(0, 1_200, |e| {
                matches!(e.pressure, MemoryPressure::CacheShrink { .. })
            }),
            PINS[12],
        ),
        (
            "offload/cold/always",
            offload(OffloadPolicy::Always),
            PINS[13],
        ),
        (
            "offload/cold/adaptive",
            offload(OffloadPolicy::Adaptive),
            PINS[14],
        ),
    ];
    let mut moved = Vec::new();
    for (name, got, want) in &cases {
        if got != want {
            moved.push(format!("{name}:\n   got {got}\n  want {want}"));
        }
    }
    assert!(moved.is_empty(), "pinned runs moved:\n{}", moved.join("\n"));
}

/// Captured on the parent commit; not to be edited by a driver refactor.
const PINS: [&str; 15] = [
    "ops=300 elapsed_ns=845358 mean_ns=2817.86 p99_ns=3744 round_trips=437 bytes_written=2877",
    "ops=300 elapsed_ns=360672 mean_ns=2842.25 p99_ns=3904 round_trips=437 bytes_written=2877",
    "ops=300 elapsed_ns=607800 mean_ns=2026.0 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=607800 mean_ns=2026.0 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=152718 mean_ns=2027.62 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=885240 mean_ns=2950.8 p99_ns=3744 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=885240 mean_ns=2950.8 p99_ns=3744 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=392534 mean_ns=2980.77 p99_ns=3904 round_trips=460 bytes_written=3360",
    "ops=5400 elapsed_ns=29289387 mean_ns=5423.960555555555 p99_ns=35328 round_trips=16580 bytes_written=926133 turnovers=3.445",
    "ops=1200 elapsed_ns=3464664 mean_ns=2887.22 p99_ns=3744 round_trips=1796 bytes_written=12516 backpressure_ops=0 pressure_evictions=0",
    "ops=1200 elapsed_ns=1543290 mean_ns=2909.66 p99_ns=3904 round_trips=1796 bytes_written=12516 backpressure_ops=0 pressure_evictions=0",
    "ops=1727 elapsed_ns=20626060 mean_ns=3135.4852345107124 p99_ns=12416 round_trips=8148 bytes_written=158048 backpressure_ops=1273 pressure_evictions=0",
    "ops=1200 bytes_written=1260 backpressure_ops=0 pressure_evictions=96",
    "ops=200 elapsed_ns=1280576 mean_ns=6402.88 p99_ns=7296 round_trips=200 bytes_written=0",
    "ops=200 elapsed_ns=1055190 mean_ns=5275.95 p99_ns=7296 round_trips=200 bytes_written=0",
];
