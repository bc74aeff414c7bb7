//! A miniature version of the paper's ablation study (Figure 10): run the same
//! write-intensive, skewed workload against every rung of the technique ladder
//! (FG+ → +Combine → +On-Chip → +Hierarchical → +2-Level Ver) and print how
//! throughput and tail latency improve.
//!
//! ```text
//! cargo run --release --example ablation
//! ```

use sherman_repro::prelude::*;
use sherman_repro::sherman_workload::WorkloadGenerator;

const THREADS: usize = 6;
const OPS_PER_THREAD: usize = 250;

/// One client: `OPS_PER_THREAD` operations of the workload, each a batch of
/// its own — the blocking path — and the latency of each.
struct Worker {
    gen: WorkloadGenerator,
    left: usize,
    latency: LatencyHistogram,
}

impl Session for Worker {
    type Batch = [PipelineOp; 1];

    fn next_batch(&mut self) -> Option<[PipelineOp; 1]> {
        self.left = self.left.checked_sub(1)?;
        Some([match self.gen.next_op() {
            Op::Insert { key, value } => PipelineOp::Insert { key, value },
            Op::Lookup { key } => PipelineOp::Lookup { key },
            Op::Delete { key } => PipelineOp::Delete { key },
            Op::Range { start_key, count } => PipelineOp::Range {
                start_key,
                count: count as usize,
            },
        }])
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        self.latency.record(report.unwrap().elapsed_ns);
    }
}

fn run(options: TreeOptions) -> RunSummary {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(4, 3), options);
    let spec = WorkloadSpec {
        key_space: 1 << 15,
        bulkload_keys: (1 << 15) / 5 * 4,
        mix: Mix::WRITE_INTENSIVE,
        distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
        range_size: 100,
        seed: 99,
        update_fraction: 2.0 / 3.0,
    };
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k)))
        .unwrap();
    // Every client is a future on one executor, a pure function of the run.
    let mut clients: Vec<_> = (0..THREADS)
        .map(|t| cluster.client((t % 3) as u16))
        .collect();
    let mut workers: Vec<_> = (0..THREADS)
        .map(|t| Worker {
            gen: spec.generator(t as u64),
            left: OPS_PER_THREAD,
            latency: LatencyHistogram::new(),
        })
        .collect();
    run_clients(&mut clients, &mut workers, 1);
    let mut agg = ThroughputAggregator::new();
    for worker in workers {
        agg.add(&ThreadReport {
            ops: OPS_PER_THREAD as u64,
            latency: worker.latency,
        });
    }
    agg.finish(cluster.fabric().now())
}

fn main() {
    println!("Ablation (write-intensive, Zipfian 0.99, {THREADS} clients)\n");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "configuration", "Mops", "p50 (us)", "p99 (us)"
    );
    let mut first: Option<RunSummary> = None;
    for (label, options) in TreeOptions::ablation_ladder() {
        let s = run(options);
        println!(
            "{:<16} {:>12.3} {:>12.1} {:>12.1}",
            label,
            s.throughput_ops / 1e6,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3
        );
        match &first {
            None => first = Some(s),
            Some(base) if label == "+2-Level Ver" => {
                println!(
                    "\nSherman vs FG+: {:.1}x throughput, {:.1}x lower p99 latency",
                    s.throughput_ops / base.throughput_ops.max(1.0),
                    base.p99_ns as f64 / s.p99_ns.max(1) as f64
                );
            }
            Some(_) => {}
        }
    }
}
