//! The scales the binaries start from: one constructor and one set of
//! `--quick` caps per family of experiments, and the hostile suite.
//!
//! A constructor fixes what its family never varies (server counts, seed,
//! chunk size) and leaves the axes a binary sweeps as plain fields of the
//! [`Experiment`] it returns.

use crate::experiment::{DrivePath, Experiment, QuickCaps, Source};
use crate::Args;
use sherman::{OffloadPolicy, TreeConfig, TreeOptions};
use sherman_sim::FabricConfig;
use sherman_workload::{
    ChurnSpec, KeyDistribution, Mix, ScenarioShape, ScenarioSpec, WorkloadSpec,
};

fn servers(memory_servers: usize, compute_servers: usize) -> FabricConfig {
    FabricConfig {
        memory_servers,
        compute_servers,
        ..FabricConfig::default()
    }
}

/// `--quick` caps of [`Experiment::paper`].
pub const PAPER_QUICK: QuickCaps = QuickCaps {
    threads: 4,
    key_space: 1 << 15,
    ops_per_thread: 100,
    // Large scans dominate smoke runs of the range benches; cap them too.
    range_size: 100,
};

/// `--quick` caps of [`Experiment::pipeline`].
pub const PIPELINE_QUICK: QuickCaps = QuickCaps {
    threads: 2,
    key_space: 1 << 15,
    ops_per_thread: 500,
    range_size: 20,
};

/// `--quick` caps of [`Experiment::churn`]: the window (and with it the
/// operation count) shrinks, the turnover target — the point of the
/// experiment — does not.
pub const CHURN_QUICK: QuickCaps = QuickCaps {
    threads: 2,
    key_space: 2_000,
    ops_per_thread: usize::MAX,
    range_size: 20,
};

/// `--quick` caps of [`Experiment::scenario`].
pub const SCENARIO_QUICK: QuickCaps = QuickCaps {
    threads: 2,
    key_space: 1 << 13,
    ops_per_thread: 1_200,
    range_size: 20,
};

/// `--quick` caps of [`Experiment::offload`].
pub const OFFLOAD_QUICK: QuickCaps = QuickCaps {
    threads: 2,
    key_space: 1 << 14,
    ops_per_thread: 400,
    range_size: u64::MAX,
};

/// A YCSB-style source over `key_space` keys bulkloaded 80 % full.
fn ycsb(
    key_space: u64,
    mix: Mix,
    distribution: KeyDistribution,
    range_size: u64,
    seed: u64,
    update_fraction: f64,
) -> Source {
    Source::Workload(WorkloadSpec {
        key_space,
        bulkload_keys: (key_space as f64 * 0.8) as u64,
        mix,
        distribution,
        range_size,
        seed,
        update_fraction,
    })
}

impl Experiment {
    /// The paper's evaluation point at this harness's scale: 4 memory and 2
    /// compute servers, 8 blocking clients, the write-intensive mix over a
    /// Zipfian-0.99 key space bulkloaded 80 % full.
    pub fn paper(name: impl Into<String>, options: TreeOptions) -> Self {
        let skew = KeyDistribution::ScrambledZipfian { theta: 0.99 };
        Experiment {
            name: name.into(),
            fabric: servers(4, 2),
            tree: TreeConfig::default(),
            options,
            threads: 8,
            source: ycsb(1 << 18, Mix::WRITE_INTENSIVE, skew, 100, 0x5EED, 2.0 / 3.0),
            ops_per_thread: 400,
            drive: DrivePath::Blocking,
            cold_start: false,
            rebudget: None,
        }
    }

    /// This experiment at the scale the command line asks for: `--threads`,
    /// `--ops`, the key-space flag under the name this binary gives it
    /// (`--keys`, `--key-space`, `--window`), then `caps` under `--quick` or
    /// `--smoke`.  (A flag a binary does not accept never gets this far.)
    pub fn scaled_by(mut self, args: &Args, key_space_flag: &str, caps: &QuickCaps) -> Self {
        self.threads = args.get_or("threads", self.threads);
        self.ops_per_thread = args.get_or("ops", self.ops_per_thread);
        if let Some(key_space) = args.value(key_space_flag) {
            self.source.set_key_space(key_space);
        }
        if args.quick() || args.flag("smoke") {
            self = self.capped(caps);
        }
        self
    }

    /// The scheduler's depth sweep: 4 clients of uniform lookups, of which
    /// `range_pct` percent are scans and `insert_pct` percent inserts (half
    /// of them updates of bulkloaded keys).
    pub fn pipeline(
        name: impl Into<String>,
        drive: DrivePath,
        range_pct: u8,
        insert_pct: u8,
    ) -> Self {
        let mix = Mix {
            insert_pct,
            lookup_pct: 100u8.saturating_sub(range_pct).saturating_sub(insert_pct),
            delete_pct: 0,
            range_pct,
        };
        let updates = if insert_pct > 0 { 0.5 } else { 0.0 };
        Experiment {
            threads: 4,
            source: ycsb(
                1 << 18,
                mix,
                KeyDistribution::Uniform,
                50,
                0x9196_5EED,
                updates,
            ),
            ops_per_thread: 2_000,
            drive,
            ..Experiment::paper(name, TreeOptions::sherman())
        }
    }

    /// Sliding-window churn from an empty tree, ten turnovers, on 2 memory
    /// and 2 compute servers.  The chunk size is kept small so the footprint
    /// reflects node-level reuse rather than chunk-granularity slack.
    pub fn churn(name: impl Into<String>, options: TreeOptions) -> Self {
        let spec = ChurnSpec {
            window: 8_000,
            threads: 4,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 50,
            bidirectional: true,
            seed: 0xC0FFEE,
        };
        Experiment {
            fabric: servers(2, 2),
            tree: TreeConfig {
                chunk_bytes: 64 << 10,
                ..TreeConfig::default()
            },
            threads: 4,
            source: Source::Churn {
                spec,
                turnover: 10.0,
            },
            ..Experiment::paper(name, options)
        }
    }

    /// A hostile scenario (see [`hostile_spec`]) on the churn cluster, 4
    /// clients of 3 000 operations each.
    pub fn scenario(name: impl Into<String>, spec: ScenarioSpec, drive: DrivePath) -> Self {
        Experiment {
            source: Source::Scenario(spec),
            ops_per_thread: 3_000,
            drive,
            ..Experiment::churn(name, TreeOptions::sherman())
        }
    }

    /// One point of the offload regime map: 4 clients of uniform lookups
    /// only, small nodes over a moderate key space (a 4-level descent when
    /// the cache is cold), under placement `policy`.
    pub fn offload(name: impl Into<String>, policy: OffloadPolicy) -> Self {
        let lookups = Mix {
            lookup_pct: 100,
            insert_pct: 0,
            delete_pct: 0,
            range_pct: 0,
        };
        Experiment {
            tree: TreeConfig {
                node_size: 256,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            threads: 4,
            source: ycsb(
                1 << 16,
                lookups,
                KeyDistribution::Uniform,
                1,
                0x0FF_10AD,
                0.0,
            ),
            ops_per_thread: 1_000,
            ..Experiment::paper(name, TreeOptions::sherman().with_offload(policy))
        }
    }
}

/// The scale every hostile scenario starts from: 32 k keys bulkloaded 80 %
/// full under the write-intensive mix.  (`threads` and `ops_per_thread` are
/// the experiment's to set.)
pub fn hostile_spec(shape: ScenarioShape) -> ScenarioSpec {
    ScenarioSpec {
        shape,
        key_space: 1 << 15,
        bulkload_keys: ((1u64 << 15) as f64 * 0.8) as u64,
        threads: 4,
        ops_per_thread: 3_000,
        mix: Mix::WRITE_INTENSIVE,
        range_size: 50,
        seed: 0x5C_E7A5,
    }
}

/// The memory squeeze a member of the hostile suite runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPressure {
    /// None: the cluster is provisioned generously.
    None,
    /// The memory servers are so small that chunk allocation fails mid-run.
    /// The run must *complete*: the failures surface as the typed allocation
    /// error, counted as backpressured operations, and reads keep being
    /// served.
    PoolExhaustion,
    /// At the run's midpoint every index cache's budget shrinks to
    /// `1/factor` of its configured capacity ([`Experiment::rebudget`]).
    CacheShrink {
        /// Divisor applied to the configured cache budget (4 = keep 25 %).
        factor: usize,
    },
}

impl std::fmt::Display for MemoryPressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryPressure::None => write!(f, "none"),
            MemoryPressure::PoolExhaustion => write!(f, "pool-exhaustion"),
            MemoryPressure::CacheShrink { factor } => write!(f, "cache/{factor}"),
        }
    }
}

/// The six-scenario hostile suite the acceptance gate runs: the four access
/// shapes unpressured, plus sequential appends against an exhaustible memory
/// pool and a shifting hot spot under a 4× mid-run cache shrink.
pub fn hostile_suite(drive: DrivePath) -> Vec<(MemoryPressure, Experiment)> {
    let member = |name: &str, spec| Experiment::scenario(name, spec, drive);
    let hotspot = |phases| ScenarioShape::ShiftingHotspot { theta: 0.9, phases };
    let mix = |insert_pct, lookup_pct, delete_pct, range_pct| Mix {
        insert_pct,
        lookup_pct,
        delete_pct,
        range_pct,
    };

    let appends = ScenarioSpec {
        mix: mix(60, 25, 10, 5),
        ..hostile_spec(ScenarioShape::SequentialAppend)
    };
    let scans = ScenarioSpec {
        // Churn fills its own window through the insert path; the mix only
        // contributes the lookup share.
        key_space: 1 << 13,
        bulkload_keys: 0,
        mix: mix(70, 20, 0, 10),
        ..hostile_spec(ScenarioShape::ScanChurn {
            scan_pct: 10,
            scan_size: 200,
        })
    };

    let mut exhaustion = member(
        "pool-exhaustion",
        ScenarioSpec {
            key_space: 1 << 11,
            bulkload_keys: 1 << 10,
            mix: mix(70, 28, 0, 2),
            ..hostile_spec(ScenarioShape::SequentialAppend)
        },
    );
    // One 48 KiB chunk of 256-byte nodes per server (the superblock eats the
    // first 4 KiB): 384 carve-able nodes in total.  The bulkload takes most
    // of them and the appends run the rest dry mid-run, which is the point.
    exhaustion.fabric.host_bytes_per_ms = 52 << 10;
    exhaustion.tree = TreeConfig {
        node_size: 256,
        chunk_bytes: 48 << 10,
        ..TreeConfig::default()
    };

    let mut shrink = member(
        "cache-shrink",
        ScenarioSpec {
            mix: Mix::READ_INTENSIVE,
            ..hostile_spec(hotspot(4))
        },
    );
    shrink.rebudget = Some(4);
    // Small nodes and a deliberately tight cache budget (64 level-1 entries)
    // so the tree's level-1 footprint exceeds the post-shrink budget and the
    // mid-run re-budgeting has something to evict.
    shrink.tree = TreeConfig {
        node_size: 256,
        cache_bytes: 16 << 10,
        chunk_bytes: 64 << 10,
        ..TreeConfig::default()
    };

    let flash = ScenarioShape::FlashCrowd { hot_pct: 60 };
    let unpressured = |name, spec| (MemoryPressure::None, member(name, spec));
    vec![
        unpressured("shifting-hotspot", hostile_spec(hotspot(8))),
        unpressured("flash-crowd", hostile_spec(flash)),
        unpressured("sequential-append", appends),
        unpressured("scan-churn", scans),
        (MemoryPressure::PoolExhaustion, exhaustion),
        (MemoryPressure::CacheShrink { factor: 4 }, shrink),
    ]
}
