//! Lock-service microbenchmarks (no tree): Figure 2 and Figure 16.
//!
//! A set of client threads acquires and releases locks drawn from a Zipfian
//! distribution over a fixed lock array on one memory server, exactly like the
//! paper's experiments (§3.2.2: "154 threads across 7 CSs acquire/release
//! 10240 locks residing in an MS"; §5.7: "176 threads across 8 CSs ...").

use crate::experiment::spawn_clients;
use crate::Args;
use sherman_locks::{LockManager, LockStrategy};
use sherman_memserver::MemoryPool;
use sherman_metrics::{LatencyHistogram, RunSummary, ThreadReport, ThroughputAggregator};
use sherman_sim::{Fabric, FabricBackend, FabricConfig, GlobalAddress};
use sherman_workload::ZipfianGenerator;
use std::sync::Arc;

/// Figure 16's x-axis: the rungs of the lock-design ladder in presentation
/// order, with the paper's labels (the first rung alone, swept over skew, is
/// Figure 2).
pub const LOCK_LADDER: [(&str, LockStrategy); 5] = [
    ("BaseLine", LockStrategy::HostCasFaa),
    ("On-Chip", LockStrategy::OnChip),
    ("Hierarchical Structure", LockStrategy::Hierarchical),
    ("Wait Queue", LockStrategy::WaitQueue),
    ("Handover", LockStrategy::Hocl),
];

/// A lock microbenchmark configuration.
#[derive(Debug, Clone)]
pub struct LockExperiment {
    /// Label for result rows.
    pub name: String,
    /// Which lock design to measure.
    pub strategy: LockStrategy,
    /// Total client threads.
    pub threads: usize,
    /// Compute servers the threads are spread over.
    pub compute_servers: usize,
    /// Number of distinct locks (all on memory server 0, as in the paper).
    pub locks: u64,
    /// Zipfian skew of lock popularity (0 = uniform).
    pub theta: f64,
    /// Acquire/release pairs per thread.
    pub ops_per_thread: usize,
    /// Virtual nanoseconds spent inside the critical section.
    pub hold_ns: u64,
}

impl LockExperiment {
    /// Default scaled-down configuration (the paper uses 154–176 threads and
    /// 10240 locks; defaults here are smaller and overridable).
    pub fn default_scaled(strategy: LockStrategy) -> Self {
        LockExperiment {
            name: format!("{strategy:?}"),
            strategy,
            threads: 16,
            compute_servers: 4,
            locks: 1024,
            theta: 0.99,
            ops_per_thread: 250,
            hold_ns: 400,
        }
    }

    /// This experiment at the scale `--threads`, `--locks`, `--ops` and
    /// `--quick` ask for.
    pub fn scaled_by(mut self, args: &Args) -> Self {
        self.threads = args.get_or("threads", self.threads);
        self.locks = args.get_or("locks", self.locks);
        self.ops_per_thread = args.get_or("ops", self.ops_per_thread);
        if args.quick() {
            self.threads = self.threads.min(6);
            self.ops_per_thread = self.ops_per_thread.min(100);
        }
        self
    }
}

/// Synthetic "node" address representing lock slot `slot`: distinct node-sized
/// addresses on memory server 0 that the lock tables hash onto their slots.
fn slot_address(slot: u64) -> GlobalAddress {
    GlobalAddress::host(0, (1 << 20) | (slot * 1024))
}

/// Run one lock microbenchmark and summarize throughput and latency of the
/// acquire→release cycle.
pub fn run_lock_experiment(exp: &LockExperiment) -> RunSummary {
    let fabric = Fabric::new(FabricConfig {
        memory_servers: 1,
        compute_servers: exp.compute_servers,
        ..FabricConfig::default()
    });
    let pool = MemoryPool::new(Arc::clone(&fabric), 1 << 20);
    let service = LockManager::new(exp.strategy, &pool);

    let start = fabric.now();
    let reports = {
        let fabric = Arc::clone(&fabric);
        let exp = exp.clone();
        spawn_clients(exp.threads, move |t, start| {
            let cs = (t % exp.compute_servers) as u16;
            let mut client = fabric.client(cs);
            start.wait();
            let zipf = ZipfianGenerator::new(exp.locks, exp.theta);
            let mut rng = {
                use rand::SeedableRng;
                rand::rngs::StdRng::seed_from_u64(0xC0FFEE ^ t as u64)
            };
            let mut latency = LatencyHistogram::new();
            for _ in 0..exp.ops_per_thread {
                let slot = zipf.next_rank(&mut rng);
                let node = slot_address(slot);
                let t0 = client.now();
                service.acquire(&mut client, node).expect("acquire");
                client.charge_cpu(exp.hold_ns);
                service
                    .release(&mut client, node, Vec::new(), true)
                    .expect("release");
                latency.record(client.now() - t0);
            }
            ThreadReport {
                ops: exp.ops_per_thread as u64,
                latency,
            }
        })
    };
    let mut agg = ThroughputAggregator::new();
    for report in &reports {
        agg.add(report);
    }
    let elapsed = fabric.now().saturating_sub(start).max(1);
    agg.finish(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(strategy: LockStrategy, theta: f64) -> LockExperiment {
        LockExperiment {
            threads: 4,
            compute_servers: 2,
            locks: 64,
            theta,
            ops_per_thread: 60,
            ..LockExperiment::default_scaled(strategy)
        }
    }

    #[test]
    fn all_variants_complete_and_report() {
        for (_, strategy) in LOCK_LADDER {
            let summary = run_lock_experiment(&tiny(strategy, 0.9));
            assert_eq!(summary.ops, 4 * 60);
            assert!(summary.throughput_ops > 0.0);
            assert!(summary.p99_ns >= summary.p50_ns);
        }
    }

    #[test]
    fn onchip_beats_baseline_under_contention() {
        let baseline = run_lock_experiment(&tiny(LockStrategy::HostCasFaa, 0.99));
        let onchip = run_lock_experiment(&tiny(LockStrategy::OnChip, 0.99));
        assert!(
            onchip.throughput_ops > baseline.throughput_ops,
            "on-chip {} vs baseline {}",
            onchip.throughput_ops,
            baseline.throughput_ops
        );
    }

    #[test]
    fn full_hocl_beats_onchip_under_contention() {
        // HOCL's advantage comes from queueing same-compute-server threads
        // locally, so give each compute server several threads and make the
        // hottest locks genuinely contended.
        let contended = |strategy| LockExperiment {
            threads: 8,
            compute_servers: 2,
            locks: 16,
            theta: 0.99,
            ops_per_thread: 80,
            hold_ns: 1_000,
            ..LockExperiment::default_scaled(strategy)
        };
        let onchip = run_lock_experiment(&contended(LockStrategy::OnChip));
        let hocl = run_lock_experiment(&contended(LockStrategy::Hocl));
        assert!(
            hocl.throughput_ops > onchip.throughput_ops,
            "HOCL {} vs on-chip {}",
            hocl.throughput_ops,
            onchip.throughput_ops
        );
    }
}
