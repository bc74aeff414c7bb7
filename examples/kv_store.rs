//! A multi-threaded key-value service built on the Sherman index — the kind of
//! write-intensive workload (parameter servers, data warehousing ingest) that
//! motivates the paper's introduction.
//!
//! Several clients spread over the compute servers run a YCSB-style
//! write-intensive mix with Zipfian popularity, and the example reports
//! aggregate throughput and tail latency for Sherman and for the FG+ baseline.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use sherman_repro::prelude::*;
use sherman_repro::sherman_workload::WorkloadGenerator;

const THREADS: usize = 6;
const OPS_PER_THREAD: usize = 300;
const KEY_SPACE: u64 = 1 << 16;

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

fn drive(options: TreeOptions, label: &str) -> RunSummary {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(4, 3), options);
    let spec = WorkloadSpec {
        key_space: KEY_SPACE,
        bulkload_keys: KEY_SPACE / 5 * 4,
        mix: Mix::WRITE_INTENSIVE,
        distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
        range_size: 100,
        seed: 7,
        update_fraction: 2.0 / 3.0,
    };
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k)))
        .expect("bulkload");

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
    let summary = agg.finish(cluster.fabric().now());
    println!(
        "{label:10}  {:>8.2} Mops   p50 {:>7.1} us   p99 {:>8.1} us",
        summary.throughput_ops / 1e6,
        summary.p50_ns as f64 / 1e3,
        summary.p99_ns as f64 / 1e3,
    );
    summary
}

fn main() {
    println!(
        "KV store, write-intensive + skewed (theta=0.99), {THREADS} clients, {} keys",
        KEY_SPACE
    );
    let sherman = drive(TreeOptions::sherman(), "Sherman");
    let baseline = drive(TreeOptions::fg_plus(), "FG+");
    println!(
        "\nSherman speed-up over the one-sided baseline: {:.1}x throughput, {:.1}x lower p99",
        sherman.throughput_ops / baseline.throughput_ops.max(1.0),
        baseline.p99_ns as f64 / sherman.p99_ns.max(1) as f64,
    );
}
