//! Offload experiments: client-side traversal versus server-side typed RPCs.
//!
//! The regime map behind the `offload` binary.  Each experiment bulkloads a
//! cluster, optionally clears every compute server's index cache (the
//! cold-start regime), then drives a lookup-heavy workload under one of the
//! three placement policies ([`OffloadPolicy::Never`] — the paper's pure
//! one-sided client, [`OffloadPolicy::Always`] — every cache-missed descent
//! becomes one `TraverseStep` RPC, [`OffloadPolicy::Adaptive`] — per-op
//! placement from the cached-route depth estimate and the read-latency EWMA).
//! Results carry the [`OffloadGauges`] so a sweep can show not just *which*
//! policy won a regime but *what it decided* to get there.

use sherman::{Cluster, ClusterConfig, OffloadPolicy, TreeConfig, TreeOptions};
use sherman_metrics::{LatencyHistogram, OffloadGauges, RunSummary, ThreadReport, ThroughputAggregator};
use sherman_sim::metrics::MetricsSnapshot;
use sherman_sim::FabricConfig;
use sherman_workload::{KeyDistribution, Mix, Op, WorkloadSpec};
use std::sync::Arc;
use std::thread;

/// A fully-specified offload experiment: one (regime, policy) point.
#[derive(Debug, Clone)]
pub struct OffloadExperiment {
    /// Label printed in result rows.
    pub name: String,
    /// Number of memory servers.
    pub memory_servers: usize,
    /// Number of compute servers.
    pub compute_servers: usize,
    /// Number of client threads (round-robin over compute servers).
    pub threads: usize,
    /// Key-space size (with `tree.node_size`, this sets the tree depth).
    pub key_space: u64,
    /// Fraction of the key space bulkloaded before the measured phase.
    pub bulkload_fraction: f64,
    /// Lookups issued by each thread during the measured phase.
    pub ops_per_thread: usize,
    /// Key popularity (the skew axis of the regime map).
    pub distribution: KeyDistribution,
    /// Placement policy under test (the system axis of the regime map).
    pub policy: OffloadPolicy,
    /// Clear every compute server's index cache after bulkload, so the
    /// measured phase starts with zero cached routes (the cold axis).
    pub cold_start: bool,
    /// Override the fabric's unloaded round-trip time (the distance axis:
    /// offload trades dependent client RTTs for one RPC plus server work,
    /// so a far fabric — cross-rack, far memory tier — is its home regime).
    /// `None` keeps the calibrated default.
    pub base_rtt_ns: Option<u64>,
    /// Base technique selection; the policy is applied on top.
    pub options: TreeOptions,
    /// Tree geometry (`cache_bytes` is the cache-budget axis).
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl OffloadExperiment {
    /// A deep-tree point at the harness's default scale: small nodes over a
    /// moderate key space give a 4-level descent when the cache is cold.
    pub fn default_scaled(name: impl Into<String>, policy: OffloadPolicy) -> Self {
        OffloadExperiment {
            name: name.into(),
            memory_servers: 4,
            compute_servers: 2,
            threads: 4,
            key_space: 1 << 16,
            bulkload_fraction: 0.8,
            ops_per_thread: 1_000,
            distribution: KeyDistribution::Uniform,
            policy,
            cold_start: false,
            base_rtt_ns: None,
            options: TreeOptions::sherman(),
            tree: TreeConfig {
                node_size: 256,
                chunk_bytes: 256 << 10,
                ..TreeConfig::default()
            },
            seed: 0x0FF_10AD,
        }
    }

    /// Shrink the experiment for smoke runs (`--quick` / `--smoke`).
    pub fn quick(mut self) -> Self {
        self.threads = self.threads.min(2);
        self.key_space = self.key_space.min(1 << 14);
        self.ops_per_thread = self.ops_per_thread.min(400);
        self
    }

    /// The workload specification this experiment draws keys from.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.key_space,
            bulkload_keys: (self.key_space as f64 * self.bulkload_fraction) as u64,
            mix: Mix {
                lookup_pct: 100,
                insert_pct: 0,
                delete_pct: 0,
                range_pct: 0,
            },
            distribution: self.distribution,
            range_size: 1,
            seed: self.seed,
            update_fraction: 0.0,
        }
    }
}

/// What one offload experiment produced.
#[derive(Debug)]
pub struct OffloadResult {
    /// Experiment label.
    pub name: String,
    /// The placement policy the run used.
    pub policy: OffloadPolicy,
    /// Throughput / latency summary.
    pub summary: RunSummary,
    /// Placement decisions, win/loss outcomes, declines, and the EWMA —
    /// merged over every compute server.
    pub offload: OffloadGauges,
    /// Fraction of lookups served from the index cache.
    pub cache_hit_ratio: f64,
    /// Mean fabric round trips per lookup (1.0 is the offload ideal).
    pub mean_round_trips: f64,
    /// Fabric-wide verb counters accumulated during the measured phase.
    pub fabric: MetricsSnapshot,
}

/// Run one offload experiment to completion.
pub fn run_offload_experiment(exp: &OffloadExperiment) -> OffloadResult {
    let spec = exp.workload();
    spec.validate().expect("invalid offload workload");

    let mut fabric = FabricConfig {
        memory_servers: exp.memory_servers,
        compute_servers: exp.compute_servers,
        ..FabricConfig::default()
    };
    if let Some(rtt) = exp.base_rtt_ns {
        fabric.base_rtt_ns = rtt;
    }
    let cluster_config = ClusterConfig {
        fabric,
        tree: exp.tree.clone(),
    };
    let options = exp.options.with_offload(exp.policy);
    let cluster = Cluster::new(cluster_config, options);
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k.wrapping_mul(3) + 1)))
        .expect("bulkload");
    if exp.cold_start {
        for cs in 0..exp.compute_servers {
            cluster.cache(cs as u16).clear();
        }
    }

    let baseline_metrics = cluster.fabric().metrics().snapshot();
    let start_time = cluster.fabric().now();
    let barrier = Arc::new(std::sync::Barrier::new(exp.threads));
    let mut handles = Vec::new();
    for t in 0..exp.threads {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        let cs = (t % exp.compute_servers) as u16;
        let ops_per_thread = exp.ops_per_thread;
        handles.push(thread::spawn(move || {
            let mut client = cluster.client(cs);
            let mut gen = spec.generator(t as u64);
            let keys: Vec<u64> = (0..ops_per_thread)
                .map(|_| match gen.next_op() {
                    Op::Lookup { key } => key,
                    other => unreachable!("lookup-only mix produced {other:?}"),
                })
                .collect();
            barrier.wait();

            let mut latency = LatencyHistogram::new();
            let mut cache_hits = 0u64;
            let mut round_trips = 0u64;
            for &key in &keys {
                let (_, stats) = client.lookup(key).expect("lookup");
                latency.record(stats.latency_ns);
                round_trips += stats.round_trips;
                if stats.cache_hit {
                    cache_hits += 1;
                }
            }
            (
                ThreadReport {
                    ops: ops_per_thread as u64,
                    latency,
                },
                cache_hits,
                round_trips,
            )
        }));
    }

    let mut agg = ThroughputAggregator::new();
    let mut cache_hits = 0u64;
    let mut round_trips = 0u64;
    for h in handles {
        let (report, hits, rts) = h.join().expect("offload worker panicked");
        agg.add(&report);
        cache_hits += hits;
        round_trips += rts;
    }
    let elapsed = cluster.fabric().now().saturating_sub(start_time).max(1);
    let total_ops = (exp.threads * exp.ops_per_thread) as u64;
    OffloadResult {
        name: exp.name.clone(),
        policy: exp.policy,
        summary: agg.finish(elapsed),
        offload: cluster.offload_stats(),
        cache_hit_ratio: cache_hits as f64 / total_ops.max(1) as f64,
        mean_round_trips: round_trips as f64 / total_ops.max(1) as f64,
        fabric: cluster
            .fabric()
            .metrics()
            .snapshot()
            .delta_since(&baseline_metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: OffloadPolicy, cold: bool) -> OffloadExperiment {
        let mut exp = OffloadExperiment::default_scaled(format!("{policy:?}"), policy).quick();
        exp.memory_servers = 2;
        exp.threads = 2;
        exp.ops_per_thread = 100;
        exp.cold_start = cold;
        exp
    }

    #[test]
    fn never_policy_posts_no_rpcs() {
        let r = run_offload_experiment(&tiny(OffloadPolicy::Never, true));
        assert_eq!(r.offload.decisions, 0);
        assert_eq!(r.offload.offloaded, 0);
        assert!(r.summary.throughput_ops > 0.0);
    }

    #[test]
    fn always_policy_offloads_cold_misses_in_one_round_trip() {
        let r = run_offload_experiment(&tiny(OffloadPolicy::Always, true));
        assert!(r.offload.offloaded > 0, "cold misses must offload");
        // The very first lookups on each thread pay one RPC round trip; the
        // mean stays near 1 because warmed type-1 hits also offload.
        assert!(
            r.mean_round_trips < 2.0,
            "mean round trips {:.2}",
            r.mean_round_trips
        );
    }

    #[test]
    fn adaptive_policy_stays_local_on_a_warm_cache() {
        let r = run_offload_experiment(&tiny(OffloadPolicy::Adaptive, false));
        // Bulkload warms the cache: cached routes answer locally and the
        // adaptive policy should rarely (if ever) choose the RPC.
        assert!(
            r.offload.offloaded <= r.offload.decisions,
            "gauge consistency"
        );
        assert!(r.cache_hit_ratio > 0.5, "bulkload warms the cache");
    }
}
