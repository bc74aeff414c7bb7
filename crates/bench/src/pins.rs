//! Pinned one-client runs: what each kind of experiment cost, exactly.
//!
//! One simulator participant repeats bit for bit, so every number below is a
//! constant: ops, elapsed virtual ns, mean and p99 latency, and the fabric's
//! round-trip / written-byte delta over the measured phase (plus the
//! backpressure, turnover and pressure-eviction figures where the run has
//! them).  The constants were captured on the commit *before* the five bench
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
    let (_, exp) = hostile_suite(drive)
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
    line(&r, &counts)
}

fn offload(policy: OffloadPolicy) -> String {
    let mut exp = Experiment::offload("pin", policy).capped(&crate::presets::OFFLOAD_QUICK);
    exp.fabric.memory_servers = 2;
    exp.threads = 1;
    exp.ops_per_thread = 200;
    // Cold start, with the default cache budget.
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
/// histogram bucket up (8 960 → 9 088).  The cache-shrink run (12) pinned
/// only its operations, bytes written and forced evictions until the index
/// cache drew its victims from a state of its own instead of the thread's
/// generator; its whole line was captured then.  Every run that looks a key
/// up (all but 13, whose lookups the interpreter answers) was re-captured
/// when a lookup began to charge the CPU of the leaf slots its search reads
/// instead of the whole leaf: the same operations and round trips, less
/// elapsed time (the uniform reads 2 026 → 1 907 ns a lookup), and at depth
/// 4 interleavings that moved — two bytes more written by the hotspot run
/// (12 398 → 12 400), a lock handed over one time fewer.  The same 14 again
/// when a lookup began to read a slot's key only where the slot's one-byte
/// key tag matches: the same operations and round trips, less elapsed time
/// (the uniform reads 1 907 → 1 794 ns a lookup), and at depth 4 the hotspot
/// run's interleaving moved once more (bytes written 12 400 → 12 402, p99
/// 5 568 → 5 632).  Every run that writes (all but 2–4, 13 and 14) was
/// re-captured when a point write began to charge the CPU of what its probe
/// reads of the locked leaf rather than of the whole leaf: the same
/// operations and round trips, less elapsed time (the zipfian writes 807 452
/// → 776 595 ns for 300 operations), p99s a histogram bucket or two down,
/// and at depth 4 the hotspot run hands a lock over two times more (bytes
/// written 12 402 → 12 398, p99 5 632 → 5 248).  The cache-shrink run (12),
/// the one whose cache fills, was re-captured when the index cache began to
/// charge an image the used prefix of its node rather than a whole node: its
/// budget holds more images before and after the shrink, so it posts 138
/// round trips fewer (1 678 → 1 540), takes 8.4 % less time, and the shrink
/// evicts 140 images instead of 96.  It was re-captured again when a cached
/// image began to keep its children packed to the widths they need (and the
/// frequency sketch to be sized by the images a full budget holds): more
/// images fit, so it posts 180 round trips fewer (1 540 → 1 360), takes
/// 11.9 % less time, its p99 falls from 5 248 to 3 488 ns,
/// and the shrink evicts 84 images instead of 140.  The churn run (8) was
/// re-captured when an internal node's separators became a sliding window
/// and a merge at the tree's left edge began to keep the fuller right leaf:
/// the same operations and round trips, bytes written 605 565 → 497 549
/// (−17.8 %), 10 677 ns more elapsed (0.05 %; mean 4 091.52 → 4 093.50 ns).
/// Both structural runs (8, 11) were re-captured when a separator right
/// under the root began to route from the cached root image: 145 and 23
/// round trips fewer, 1.2 % and 0.2 % less elapsed time (the
/// pool-exhaustion p99 9 088 → 7 360); and the churn run's bytes 497 549 →
/// 488 061 when internal windows began to recenter at either edge and a
/// recycled right half to land on its tombstone's stale slots.  The churn
/// run's bytes again, 488 061 → 450 855, when a point delete began to write
/// its slot's tag byte alone (18 bytes fewer for each of its deletes), and
/// → 449 303 when an internal node's tombstone began to record its stale
/// slots too, so that a leaf right half at such an address is planned
/// rather than sent whole: 153 ns more elapsed (21 845 798 → 21 845 951),
/// the per-command floor of the extra WRITE commands.  Both structural runs
/// again when a split or rebalance began to leave the slots of the keys it
/// moves out stale, marked in the tail word, rather than clearing them: the
/// same operations and round trips, bytes written 449 303 → 343 951 (churn)
/// and 115 040 → 77 856, 11 211 and 2 247 ns more elapsed (21 845 951 →
/// 21 857 162 and 20 189 348 → 20 191 595, 0.05 % and 0.01 %: an insert
/// over a stale slot sends a second command).
const PINS: [&str; 15] = [
    "ops=300 elapsed_ns=776595 mean_ns=2588.65 p99_ns=3520 round_trips=437 bytes_written=2877",
    "ops=300 elapsed_ns=195925 mean_ns=2593.6633333333334 p99_ns=3584 round_trips=437 bytes_written=2875",
    "ops=300 elapsed_ns=538102 mean_ns=1793.6733333333334 p99_ns=1792 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=538102 mean_ns=1793.6733333333334 p99_ns=1792 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=134802 mean_ns=1795.4933333333333 p99_ns=1792 round_trips=300 bytes_written=0",
    "ops=300 elapsed_ns=816612 mean_ns=2722.04 p99_ns=3520 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=816612 mean_ns=2722.04 p99_ns=3520 round_trips=460 bytes_written=3360",
    "ops=300 elapsed_ns=206391 mean_ns=2736.17 p99_ns=3680 round_trips=460 bytes_written=3356",
    "ops=5400 elapsed_ns=21857162 mean_ns=4047.622592592593 p99_ns=16896 round_trips=15365 bytes_written=343951 turnovers=3.445",
    "ops=1200 elapsed_ns=3190402 mean_ns=2658.6683333333335 p99_ns=3520 round_trips=1796 bytes_written=12516 backpressure_ops=0 pressure_evictions=0",
    "ops=1200 elapsed_ns=864680 mean_ns=2724.471666666667 p99_ns=5248 round_trips=1796 bytes_written=12398 backpressure_ops=0 pressure_evictions=0",
    "ops=1727 elapsed_ns=20191595 mean_ns=2883.9131441806603 p99_ns=7360 round_trips=8125 bytes_written=77856 backpressure_ops=1273 pressure_evictions=0",
    "ops=1200 elapsed_ns=2354577 mean_ns=1962.1475 p99_ns=3488 round_trips=1360 bytes_written=1260 backpressure_ops=0 pressure_evictions=84",
    "ops=200 elapsed_ns=1280576 mean_ns=6402.88 p99_ns=7296 round_trips=200 bytes_written=0",
    "ops=200 elapsed_ns=1051838 mean_ns=5259.19 p99_ns=7296 round_trips=200 bytes_written=0",
];
