//! Raw fabric microbenchmark: `RDMA_WRITE` throughput versus IO size
//! (Figure 3 of the paper).  Each writer is an `async fn` on the simulator's
//! executor.

use sherman_metrics::RunSummary;
use sherman_metrics::{LatencyHistogram, ThreadReport, ThroughputAggregator};
use sherman_sim::{
    Fabric, FabricBackend, FabricConfig, GlobalAddress, Parking, SimChannel, WriteCmd,
};

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
            let mut clients: Vec<_> = (0..threads)
                .map(|t| fabric.client((t % compute_servers) as u16))
                .collect();
            let cxs: Vec<_> = clients.iter_mut().map(Parking::new).collect();
            let start = fabric.now();
            let reports = sherman_sim::run(
                cxs.iter()
                    .enumerate()
                    .map(|(t, cx)| (cx, writer(cx, t, io_bytes, ops_per_thread))),
            );
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

/// Writer `t`: batches of [`WRITES_PER_DOORBELL`] writes of `io_bytes` each
/// to a region of its own (no higher-level synchronization is involved),
/// one batch in flight at a time, until `ops_per_thread` are written.
async fn writer(
    cx: &Parking<'_, SimChannel>,
    t: usize,
    io_bytes: usize,
    ops_per_thread: usize,
) -> ThreadReport {
    let payload = vec![0xA5u8; io_bytes];
    let base = 1 << 20 | (t as u64) << 16;
    let mut latency = LatencyHistogram::new();
    let batches = ops_per_thread.div_ceil(WRITES_PER_DOORBELL);
    for i in 0..batches {
        let cmds: Vec<WriteCmd> = (0..WRITES_PER_DOORBELL)
            .map(|j| {
                let off = base + (((i * WRITES_PER_DOORBELL + j) * io_bytes) % 16_384) as u64;
                WriteCmd::new(GlobalAddress::host(0, off), payload.clone())
            })
            .collect();
        let t0 = cx.ctx().now();
        let token = cx.ctx().post_write_batch(&cmds).expect("write batch");
        cx.complete(token).await;
        latency.record((cx.ctx().now() - t0) / WRITES_PER_DOORBELL as u64);
    }
    ThreadReport {
        ops: (batches * WRITES_PER_DOORBELL) as u64,
        latency,
    }
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
