//! What the benchmark runs and what it reports: the six workloads and the
//! two metric tables.  `BENCHMARK.json` is generated from this file
//! (`manifest` subcommand) and `selfcheck` fails when the two disagree.

use crate::json::Json;
use sherman_repro::sherman_workload::{KeyDistribution, Mix};

/// Seconds one measured run lasts under the driver (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Fabric`: virtual time, pinned to one CPU.
    Sim,
    /// `ThreadedFabric`: real threads, monotonic clock, unpinned.
    Threaded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One `lookup`/`insert`/`delete`/`range` call at a time per thread.
    Blocking,
    /// `run_pipelined` at `depth`, `batch` operations per call.
    Pipelined { depth: usize, batch: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// `WorkloadSpec` over `0..key_space`, `bulkload_keys` loaded first, 2/3
    /// of inserts updating a drawn key.
    Ycsb {
        key_space: u64,
        bulkload_keys: u64,
        mix: Mix,
        distribution: KeyDistribution,
    },
    /// `ChurnSpec` (bidirectional); the keys of its window fill are
    /// bulkloaded and the stream starts after them.
    Churn {
        window: u64,
        lookup_pct: u8,
        range_pct: u8,
        range_size: u64,
    },
}

/// Tree geometry a workload overrides (everything else is
/// `ClusterConfig::paper_scaled(2, 2)` and `TreeOptions::sherman()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub node_size: usize,
    pub chunk_bytes: u64,
    pub cache_bytes: usize,
}

const DEFAULT_GEOMETRY: Geometry = Geometry {
    node_size: 1024,
    chunk_bytes: 1 << 20,
    cache_bytes: 16 << 20,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub threads: usize,
    pub drive: Drive,
    pub source: Source,
    pub geometry: Geometry,
    /// Operations generated per thread and second of a time-bounded run,
    /// about three times what the reference box gets through: a stream never
    /// starts over, so a run that outruns its stream ends early
    /// (`workload.stream_used_share` reads 1 then).
    pub ops_per_second_cap: usize,
    /// Operations per thread run before timing starts.
    pub warmup_ops: usize,
    /// Operations per thread of a `--smoke` run (1 % of the issue's
    /// defaults).
    pub smoke_ops: usize,
    /// Whether the workload is in `BENCHMARK.json`, where the PR driver
    /// holds every end-to-end metric to its bound.  `run` and `compare`
    /// report an ungated workload all the same.
    pub gated: bool,
}

const SKEWED: KeyDistribution = KeyDistribution::ScrambledZipfian { theta: 0.99 };
const KEY_SPACE: u64 = 1 << 20;
const BULKLOADED: u64 = KEY_SPACE / 5 * 4;

const WRITE_SKEW_SOURCE: Source = Source::Ycsb {
    key_space: KEY_SPACE,
    bulkload_keys: BULKLOADED,
    mix: Mix::WRITE_INTENSIVE,
    distribution: SKEWED,
};

const READ_MOSTLY_UNIFORM: Source = Source::Ycsb {
    key_space: KEY_SPACE,
    bulkload_keys: BULKLOADED,
    mix: Mix::READ_INTENSIVE,
    distribution: KeyDistribution::Uniform,
};

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "ycsb_write_skew",
        why: "The paper's headline mix (50% insert, 50% lookup, Zipfian 0.99, cache fits): lock, read, write-back+release is the whole op; two clock participants, so clock hand-off dominates host time.",
        backend: Backend::Sim,
        threads: 2,
        drive: Drive::Blocking,
        source: WRITE_SKEW_SOURCE,
        geometry: DEFAULT_GEOMETRY,
        ops_per_second_cap: 150_000,
        warmup_ops: 8_000,
        smoke_ops: 4_000,
        gated: true,
    },
    WorkloadDef {
        name: "hot_leaf_writes",
        why: "95% insert over 256 keys (about 5 leaves): two clients contend only when the hot set is tiny, so lock retries, handover and torn reads do the work here and almost none elsewhere.",
        backend: Backend::Sim,
        threads: 2,
        drive: Drive::Blocking,
        source: Source::Ycsb {
            key_space: 256,
            bulkload_keys: 204,
            mix: Mix {
                insert_pct: 95,
                lookup_pct: 5,
                delete_pct: 0,
                range_pct: 0,
            },
            distribution: SKEWED,
        },
        geometry: DEFAULT_GEOMETRY,
        ops_per_second_cap: 100_000,
        warmup_ops: 3_000,
        smoke_ops: 1_500,
        gated: true,
    },
    WorkloadDef {
        name: "read_uniform_pipelined",
        why: "95% lookup, uniform, cache fits, one client at pipeline depth 8: no lock contention, no clock hand-off, so host cost is the bare per-op CPU of tree and simulator; fabric throughput shows overlap.",
        backend: Backend::Sim,
        threads: 1,
        drive: Drive::Pipelined {
            depth: 8,
            batch: 65_536,
        },
        source: READ_MOSTLY_UNIFORM,
        geometry: DEFAULT_GEOMETRY,
        ops_per_second_cap: 1_300_000,
        warmup_ops: 65_536,
        smoke_ops: 30_000,
        gated: true,
    },
    WorkloadDef {
        name: "lookup_cold_deep",
        why: "Mix of read_uniform_pipelined but 256 B nodes and a 256 KB cache (hit about 0.1, a deep tree): traversal and cache admission/eviction do the work; a cache gain shows here and must not show there.",
        backend: Backend::Sim,
        threads: 1,
        drive: Drive::Blocking,
        source: READ_MOSTLY_UNIFORM,
        geometry: Geometry {
            node_size: 256,
            chunk_bytes: 256 << 10,
            cache_bytes: 256 << 10,
        },
        ops_per_second_cap: 480_000,
        warmup_ops: 24_000,
        smoke_ops: 12_000,
        gated: true,
    },
    WorkloadDef {
        name: "churn_scan",
        why: "Sliding 50k-key window (inserts at one end, deletes at the other), 20% lookups, 5% scans: the only run with deletes, merges, epoch reclamation, coherence publishes and scans racing structural change.",
        backend: Backend::Sim,
        threads: 2,
        drive: Drive::Blocking,
        source: Source::Churn {
            window: 50_000,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 50,
        },
        geometry: DEFAULT_GEOMETRY,
        ops_per_second_cap: 100_000,
        warmup_ops: 2_000,
        smoke_ops: 2_250,
        gated: true,
    },
    WorkloadDef {
        name: "threaded_write_skew",
        why: "The ycsb_write_skew stream on two real threads with a real clock and no modeled latency: host cost of the tree code itself; a simulator-only speed-up must not move it.",
        // Not gated: its fabric clock is the real clock, so every fabric-time
        // metric carries the box's host noise (ten seeds on the reference
        // box: throughput and mean latency spread 10 %, tails 60 %), which
        // no bound the sim workloads could share would cover.
        backend: Backend::Threaded,
        threads: 2,
        drive: Drive::Blocking,
        source: WRITE_SKEW_SOURCE,
        geometry: DEFAULT_GEOMETRY,
        ops_per_second_cap: 1_000_000,
        warmup_ops: 40_000,
        smoke_ops: 20_000,
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// A count or fabric-time figure that repeats exactly between two
    /// pinned simulator runs of one seed and operation count (`selfcheck`).
    pub exact_on_sim: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact_on_sim: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact_on_sim,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact_on_sim: false,
    }
}

/// A per-layer count read after the run (`*` in the README tables).
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact_on_sim: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the index sees.  Fabric-time metrics (`fabric_mops`, the
/// four latencies) are on `TreeClient::now()`: virtual ns on the simulator,
/// real ns on `ThreadedFabric`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("fabric_mops", "Mops/s", Higher, 0.05, true),
    e2e("lookup_mean_us", "us", Lower, 0.05, true),
    e2e("write_mean_us", "us", Lower, 0.05, true),
    e2e("round_trips_per_op", "count", Lower, 0.05, true),
    e2e("write_bytes_per_write", "bytes", Lower, 0.10, true),
    e2e("space_amp", "ratio", Lower, 0.25, true),
    e2e("host_kops_per_s", "kops/s", Higher, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
    e2e("setup_s", "s", Lower, 0.25, false),
];

/// One layer each, layer = crate.  No bounds: these say where an end-to-end
/// change came from.
pub const PER_LAYER: &[MetricDef] = &[
    // sherman (core): counts read after the run
    count("core.reads_per_op", "count", Lower),
    count("core.writes_per_op", "count", Lower),
    count("core.atomics_per_op", "count", Lower),
    count("core.rpcs_per_op", "count", Lower),
    count("core.bytes_read_per_op", "bytes", Lower),
    count("core.read_retries_per_kop", "count", Lower),
    count("core.write_round_trips_p99", "count", Lower),
    count("core.lookup_p50_us", "us", Lower),
    count("core.write_p50_us", "us", Lower),
    count("core.lookup_p99_us", "us", Lower),
    count("core.write_p99_us", "us", Lower),
    count("core.lookup_p999_us", "us", Lower),
    count("core.write_p999_us", "us", Lower),
    count("core.lookup_tail_us", "us", Lower),
    count("core.write_tail_us", "us", Lower),
    count("core.scan_p99_us", "us", Lower),
    count("core.scan_missed_keys", "count", Lower),
    count("core.warm_scan_missed_keys", "count", Lower),
    count("core.leaf_merges", "count", Higher),
    count("core.left_merges", "count", Higher),
    count("core.internal_merges", "count", Higher),
    count("core.rebalances", "count", Higher),
    count("core.root_collapses", "count", Higher),
    count("core.live_nodes", "count", Lower),
    count("core.underfull_fixable", "count", Lower),
    count("core.sched.mean_in_flight", "count", Higher),
    count("core.sched.max_in_flight", "count", Higher),
    count("core.sched.overlap_factor", "ratio", Higher),
    count("core.sched.overlapped_rt_ratio", "ratio", Higher),
    count("core.coherence.posted", "count", Lower),
    count("core.coherence.applied", "count", Higher),
    count("core.coherence.mean_lag_ns", "ns", Lower),
    count("core.coherence.max_lag_ns", "ns", Lower),
    count("core.coherence.stale_hits", "count", Lower),
    count("core.offload.offloaded_ratio", "ratio", Higher),
    count("core.offload.declined", "count", Lower),
    count("core.offload.stale_rejects", "count", Lower),
    // sherman (core): host spans of the traced windows and probes on a real
    // node image
    layer("core.host_ns_per_lookup", "ns", Lower),
    layer("core.host_ns_per_insert", "ns", Lower),
    layer("core.host_ns_per_delete", "ns", Lower),
    layer("core.host_ns_per_scan", "ns", Lower),
    layer("core.host_ns_per_pipelined_op", "ns", Lower),
    layer("core.host_self_ns_per_op", "ns", Lower),
    layer("core.host_ns_per_decode_leaf", "ns", Lower),
    layer("core.host_ns_per_encode_leaf", "ns", Lower),
    layer("core.host_ns_per_decode_internal", "ns", Lower),
    layer("core.host_ns_per_version_check", "ns", Lower),
    layer("core.host_ns_per_bulkload_key", "ns", Lower),
    // sherman_sim
    count("sim.round_trips", "count", Lower),
    count("sim.onchip_atomic_ratio", "ratio", Higher),
    count("sim.bytes_written_per_op", "bytes", Lower),
    count("sim.verb_ns_per_round_trip", "ns", Lower),
    layer("sim.model_ns_per_read_node", "ns", Lower),
    layer("sim.model_ns_per_write_entry", "ns", Lower),
    layer("sim.model_ns_per_cas_onchip", "ns", Lower),
    layer("sim.model_ns_per_cas_host", "ns", Lower),
    layer("sim.model_ns_per_rpc", "ns", Lower),
    layer("sim.host_ns_per_read_node", "ns", Lower),
    layer("sim.host_ns_per_write_batch", "ns", Lower),
    layer("sim.host_ns_per_cas", "ns", Lower),
    layer("sim.host_ns_per_masked_cas", "ns", Lower),
    layer("sim.host_ns_per_post_poll", "ns", Lower),
    layer("sim.host_ns_per_wait_1p", "ns", Lower),
    layer("sim.host_ns_per_wait_2p", "ns", Lower),
    layer("sim.region_read_ns_per_kib", "ns", Lower),
    layer("sim.region_write_ns_per_kib", "ns", Lower),
    layer("sim.threaded.host_ns_per_read_node", "ns", Lower),
    layer("sim.threaded.host_ns_per_cas", "ns", Lower),
    // sherman_locks
    count("locks.handover_ratio", "ratio", Higher),
    count("locks.retries_per_kwrite", "count", Lower),
    layer("locks.host_ns_per_acquire_release", "ns", Lower),
    layer("locks.model_ns_per_acquire_release", "ns", Lower),
    layer("locks.round_trips_per_acquire_release", "count", Lower),
    layer("locks.samecs_handover_ratio", "ratio", Higher),
    // sherman_cache
    count("cache.hit_ratio", "ratio", Higher),
    count("cache.top_hit_ratio", "ratio", Higher),
    count("cache.evictions_per_kop", "count", Lower),
    count("cache.pressure_evictions", "count", Lower),
    count("cache.invalidations", "count", Lower),
    count("cache.stale_rejections", "count", Lower),
    count("cache.refreshes", "count", Lower),
    count("cache.entries", "count", Higher),
    layer("cache.host_ns_per_lookup_leaf", "ns", Lower),
    layer("cache.host_ns_per_search_top", "ns", Lower),
    layer("cache.host_ns_per_insert_level1", "ns", Lower),
    // sherman_memserver
    count("memserver.nodes_carved", "count", Lower),
    count("memserver.nodes_outstanding", "count", Lower),
    count("memserver.retired", "count", Higher),
    count("memserver.reused", "count", Higher),
    count("memserver.mean_reclaim_latency_us", "us", Lower),
    count("memserver.mean_eligible_latency_us", "us", Lower),
    count("memserver.epoch_lag", "count", Lower),
    count("memserver.pinned_buckets", "count", Lower),
    count("memserver.chunk_denials", "count", Lower),
    count("memserver.exhaustion_events", "count", Lower),
    layer("memserver.host_ns_per_alloc_node", "ns", Lower),
    layer("memserver.host_ns_per_pin_unpin", "ns", Lower),
    // sherman_workload / sherman_metrics: what the driver itself costs
    layer("workload.host_ns_per_next_op", "ns", Lower),
    count("workload.write_share", "ratio", Lower),
    count("workload.fresh_insert_share", "ratio", Lower),
    layer("workload.stream_used_share", "ratio", Lower),
    layer("metrics.host_ns_per_record", "ns", Lower),
    // the process
    layer("host.user_us_per_op", "us", Lower),
    layer("host.sys_us_per_op", "us", Lower),
    layer("host.sys_share", "ratio", Lower),
    layer("host.ctx_switches_per_kop", "count", Lower),
    layer("host.measured_s", "s", Lower),
    layer("host.box_speed", "ratio", Higher),
    layer("host.wall_kops_per_s", "kops/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Higher),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contract file, generated so that it cannot drift from the tables.
pub fn manifest() -> Json {
    let metric_entry = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_entry).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_entry).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().to_pretty().len() <= 64 << 10);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(crate::json::parse(&text).unwrap(), manifest());
    }
}
