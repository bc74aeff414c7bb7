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
//! engines were folded into [`run`]; a refactor of the driver must reproduce
//! them without editing one.

#![cfg(test)]

use crate::presets::SCENARIO_QUICK;
use crate::{hostile_suite, run, DrivePath, Experiment, MemoryPressure, RunReport, Source};
use sherman::{OffloadPolicy, TreeConfig, TreeOptions};
use sherman_sim::{Fabric, FabricConfig};

fn line(r: &RunReport, extra: &str) -> String {
    format!(
        "ops={} elapsed_ns={} mean_ns={:?} p99_ns={} round_trips={} bytes_written={}{extra}",
        r.summary.ops,
        r.summary.elapsed_ns,
        r.summary.mean_ns,
        r.summary.p99_ns,
        r.fabric.round_trips,
        r.fabric.bytes_written,
    )
}

/// One client against two memory servers, 300 operations over 4 k keys.
fn small(mut exp: Experiment, drive: DrivePath) -> String {
    exp.fabric = FabricConfig {
        memory_servers: 2,
        ..exp.fabric
    };
    exp.tree = TreeConfig {
        cache_bytes: 1 << 20,
        chunk_bytes: 256 << 10,
        ..TreeConfig::default()
    };
    exp.threads = 1;
    exp.source.set_key_space(1 << 12);
    exp.ops_per_thread = 300;
    exp.drive = drive;
    line(&run::<Fabric>(&exp).expect_clean(), "")
}

/// Write-intensive zipfian, what the figure bins run.
fn tree(drive: DrivePath) -> String {
    small(Experiment::paper("pin", TreeOptions::sherman()), drive)
}

/// Uniform lookups (and `insert_pct` inserts), what the `pipeline` bin runs.
fn pipeline(drive: DrivePath, insert_pct: u8) -> String {
    small(Experiment::pipeline("pin", drive, 0, insert_pct), drive)
}

fn churn() -> String {
    let mut exp = Experiment::churn("pin", TreeOptions::sherman());
    exp.threads = 1;
    if let Source::Churn { spec, turnover } = &mut exp.source {
        spec.window = 600;
        *turnover = 3.0;
    }
    exp.tree = TreeConfig {
        node_size: 256,
        cache_bytes: 1 << 20,
        chunk_bytes: 64 << 10,
        ..TreeConfig::default()
    };
    let r = run::<Fabric>(&exp).expect_clean();
    line(&r, &format!(" turnovers={:?}", r.turnovers))
}

fn suite_member(
    drive: DrivePath,
    ops_per_thread: usize,
    pick: impl Fn(&(MemoryPressure, Experiment)) -> bool,
) -> String {
    let (pressure, exp) = hostile_suite(drive)
        .into_iter()
        .find(pick)
        .expect("suite member");
    let mut exp = exp.capped(&SCENARIO_QUICK);
    exp.threads = 1;
    exp.ops_per_thread = ops_per_thread;
    let r = run::<Fabric>(&exp);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    let counts = format!(
        " backpressure_ops={} pressure_evictions={}",
        r.backpressure_ops, r.pressure_evictions
    );
    if matches!(pressure, MemoryPressure::CacheShrink { .. }) {
        let (ops, bytes) = (r.summary.ops, r.fabric.bytes_written);
        format!("ops={ops} bytes_written={bytes}{counts}")
    } else {
        line(&r, &counts)
    }
}

fn offload(policy: OffloadPolicy) -> String {
    let mut exp = Experiment::offload("pin", policy).capped(&crate::presets::OFFLOAD_QUICK);
    exp.fabric.memory_servers = 2;
    exp.threads = 1;
    exp.ops_per_thread = 200;
    // Cold start, but the default cache budget: a starved cache evicts, and
    // eviction is seeded per process (see the module docs).
    exp.cold_start = true;
    line(&run::<Fabric>(&exp).expect_clean(), "")
}

#[test]
fn one_client_runs_cost_exactly_what_they_did() {
    use DrivePath::{Blocking, Pipelined};
    let hotspot = |m: &(MemoryPressure, Experiment)| m.1.name == "shifting-hotspot";
    let cases: Vec<(&str, String, &str)> = vec![
        ("tree/blocking", tree(Blocking), PINS[0]),
        ("tree/depth-4", tree(Pipelined(4)), PINS[1]),
        ("pipeline/blocking/reads", pipeline(Blocking, 0), PINS[2]),
        ("pipeline/depth-1/reads", pipeline(Pipelined(1), 0), PINS[3]),
        ("pipeline/depth-4/reads", pipeline(Pipelined(4), 0), PINS[4]),
        ("pipeline/blocking/50i", pipeline(Blocking, 50), PINS[5]),
        ("pipeline/depth-1/50i", pipeline(Pipelined(1), 50), PINS[6]),
        ("pipeline/depth-4/50i", pipeline(Pipelined(4), 50), PINS[7]),
        ("churn", churn(), PINS[8]),
        (
            "scenario/hotspot/blocking",
            suite_member(Blocking, 1_200, hotspot),
            PINS[9],
        ),
        (
            "scenario/hotspot/depth-4",
            suite_member(Pipelined(4), 1_200, hotspot),
            PINS[10],
        ),
        (
            "scenario/pool-exhaustion",
            // One client needs the longer stream to run the tiny pool dry.
            suite_member(Blocking, 3_000, |m| m.0 == MemoryPressure::PoolExhaustion),
            PINS[11],
        ),
        (
            "scenario/cache-shrink",
            suite_member(Blocking, 1_200, |m| {
                matches!(m.0, MemoryPressure::CacheShrink { .. })
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

/// Captured on the commit before the bench engines were folded into one; not
/// to be edited by a driver refactor.  The three depth-4 runs with writes
/// (1, 7, 10) were re-captured when a pipelined write stopped blocking its
/// context for the lock round trip: same operations and round trips, less
/// elapsed time, two bytes fewer written per lock handed over between
/// in-flight writes of the client (a handover drops the release write), and
/// the time a write spends queued behind a sibling now shows in its latency
/// (the hotspot's p99).  The two runs that split and merge for a living
/// (8, 11) were re-captured when structural commits began to wait only for
/// what they depend on: the same operations and bytes written; the churn run
/// posts 1 070 round trips fewer (merges read their parent from the index
/// cache and their three nodes with the lock attempts) and its p99 — a
/// merging delete — halves, the pool-exhaustion run (splits of 256 B leaves)
/// posts the same round trips and waits for fewer of them.  Both again when
/// structural commits began to write back what changed: the same operations
/// and round trips; bytes written 926 133 → 605 565 (churn, 256 B nodes) and
/// 158 048 → 115 040; 11 497 and 2 520 ns more elapsed (0.05 % and 0.01 %:
/// the NIC's per-command floor on the extra WRITE commands, which on 256 B
/// nodes outweighs the shorter payloads), the pool-exhaustion run's p99 one
/// histogram bucket up (8 960 → 9 088).
const PINS: [&str; 15] = [
    "ops=300 elapsed_ns=845358 mean_ns=2817.86 p99_ns=3744 round_trips=437 bytes_written=2877",
    "ops=300 elapsed_ns=215416 mean_ns=2828.8933333333334 p99_ns=3840 round_trips=437 bytes_written=2875",
    "ops=300 elapsed_ns=607800 mean_ns=2026.0 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=607800 mean_ns=2026.0 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=152718 mean_ns=2027.62 p99_ns=2026 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=885240 mean_ns=2950.8 p99_ns=3744 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=885240 mean_ns=2950.8 p99_ns=3744 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=225946 mean_ns=2964.5466666666666 p99_ns=3904 round_trips=460 bytes_written=3356",
    "ops=5400 elapsed_ns=22303301 mean_ns=4130.240925925926 p99_ns=16896 round_trips=15510 bytes_written=605565 turnovers=3.445",
    "ops=1200 elapsed_ns=3464664 mean_ns=2887.22 p99_ns=3744 round_trips=1796 bytes_written=12516 backpressure_ops=0 pressure_evictions=0",
    "ops=1200 elapsed_ns=961517 mean_ns=2963.0158333333334 p99_ns=5760 round_trips=1796 bytes_written=12398 backpressure_ops=0 pressure_evictions=0",
    "ops=1727 elapsed_ns=20297792 mean_ns=2945.4053271569196 p99_ns=9088 round_trips=8148 bytes_written=115040 backpressure_ops=1273 pressure_evictions=0",
    "ops=1200 bytes_written=1260 backpressure_ops=0 pressure_evictions=96",
    "ops=200 elapsed_ns=1280576 mean_ns=6402.88 p99_ns=7296 round_trips=200 bytes_written=0",
    "ops=200 elapsed_ns=1055190 mean_ns=5275.95 p99_ns=7296 round_trips=200 bytes_written=0",
];
