//! Raw fabric microbenchmark: `RDMA_WRITE` throughput versus IO size
//! (Figure 3 of the paper).

use crate::experiment::spawn_clients;
use sherman_metrics::RunSummary;
use sherman_metrics::{LatencyHistogram, ThreadReport, ThroughputAggregator};
use sherman_sim::{Fabric, FabricBackend, FabricConfig, GlobalAddress, WriteCmd};
use std::sync::Arc;

/// Number of `RDMA_WRITE` work requests posted per doorbell, modeling the
/// multiple outstanding WQEs a real throughput benchmark keeps in flight
/// (the paper's Figure 3 measures saturated NICs, not one-at-a-time verbs).
const WRITES_PER_DOORBELL: usize = 16;

/// One measured point of the IO-size sweep.
#[derive(Debug, Clone)]
pub struct WriteSizePoint {
    /// Payload size in bytes.
    pub io_bytes: usize,
    /// Throughput / latency summary at that size.
    pub summary: RunSummary,
}

/// Sweep `RDMA_WRITE` payload sizes and measure aggregate throughput.
///
/// `threads` writers spread across `compute_servers` hammer a single memory
/// server with back-to-back writes of each size in `sizes`.
pub fn run_write_size_sweep(
    sizes: &[usize],
    threads: usize,
    compute_servers: usize,
    ops_per_thread: usize,
) -> Vec<WriteSizePoint> {
    sizes
        .iter()
        .map(|&io_bytes| {
            let fabric = Fabric::new(FabricConfig {
                memory_servers: 1,
                compute_servers,
                ..FabricConfig::default()
            });
            let start = fabric.now();
            let reports = {
                let fabric = Arc::clone(&fabric);
                spawn_clients(threads, move |t, start_line| {
                    let mut client = fabric.client((t % compute_servers) as u16);
                    start_line.wait();
                    let payload = vec![0xA5u8; io_bytes];
                    // Each thread writes to its own disjoint region so that no
                    // higher-level synchronization is involved.
                    let base = 1 << 20 | (t as u64) << 16;
                    let mut latency = LatencyHistogram::new();
                    let batches = ops_per_thread.div_ceil(WRITES_PER_DOORBELL);
                    for i in 0..batches {
                        let cmds: Vec<WriteCmd> = (0..WRITES_PER_DOORBELL)
                            .map(|j| {
                                let off =
                                    base + (((i * WRITES_PER_DOORBELL + j) * io_bytes) % 16_384) as u64;
                                WriteCmd::new(GlobalAddress::host(0, off), payload.clone())
                            })
                            .collect();
                        let t0 = client.now();
                        client.post_writes(&cmds).expect("write batch");
                        latency.record((client.now() - t0) / WRITES_PER_DOORBELL as u64);
                    }
                    ThreadReport {
                        ops: (batches * WRITES_PER_DOORBELL) as u64,
                        latency,
                    }
                })
            };
            let mut agg = ThroughputAggregator::new();
            for report in &reports {
                agg.add(report);
            }
            let elapsed = fabric.now().saturating_sub(start).max(1);
            WriteSizePoint {
                io_bytes,
                summary: agg.finish(elapsed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_writes_sustain_higher_iops_than_large_writes() {
        let points = run_write_size_sweep(&[64, 4096], 4, 2, 100);
        assert_eq!(points.len(), 2);
        let small = points[0].summary.throughput_ops;
        let large = points[1].summary.throughput_ops;
        assert!(
            small > large * 2.0,
            "64 B writes ({small:.0} ops/s) should far out-run 4 KiB writes ({large:.0} ops/s)"
        );
    }
}
