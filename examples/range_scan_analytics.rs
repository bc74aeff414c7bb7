//! Range-scan analytics over a time-ordered fact table — the range-query use
//! case behind Figure 12: leaf nodes are fetched with parallel `RDMA_READ`s
//! and validated with versions while a writer keeps appending.
//!
//! The example bulkloads "orders" keyed by timestamp, runs one ingest client
//! that appends new orders, and runs windowed scans that compute a running
//! revenue aggregate per window, both clients on one executor.
//!
//! ```text
//! cargo run --release --example range_scan_analytics
//! ```

use sherman_repro::prelude::*;

const ORDERS: u64 = 80_000;
const APPENDS: u64 = 2_000;
const WINDOW: usize = 500;
const SCANS: usize = 40;

/// The two clients, each running one operation at a time (a batch of its
/// own: the blocking path).
enum Client {
    /// Appends fresh orders past the bulkloaded time range.
    Ingest { appended: u64 },
    /// Windowed scans with a revenue aggregate.
    Analytics {
        scans: usize,
        entries: usize,
        revenue: u64,
        latency: LatencyHistogram,
    },
}

impl Session for Client {
    type Batch = [PipelineOp; 1];

    fn next_batch(&mut self) -> Option<[PipelineOp; 1]> {
        match self {
            Client::Ingest { appended } => (*appended < APPENDS).then(|| {
                [PipelineOp::Insert {
                    key: (ORDERS + *appended) * 1_000,
                    value: 250,
                }]
            }),
            Client::Analytics { scans, .. } => (*scans < SCANS).then(|| {
                [PipelineOp::Range {
                    start_key: (*scans as u64 * (ORDERS / SCANS as u64)) * 1_000,
                    count: WINDOW,
                }]
            }),
        }
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        let report = report.expect("append or scan");
        match (self, &report.results[0].output) {
            (Client::Ingest { appended }, OpOutput::Insert) => *appended += 1,
            (
                Client::Analytics {
                    scans,
                    entries,
                    revenue,
                    latency,
                },
                OpOutput::Range(window),
            ) => {
                *scans += 1;
                *entries += window.len();
                *revenue += window.iter().map(|&(_, amount)| amount).sum::<u64>();
                latency.record(report.elapsed_ns);
            }
            (_, output) => unreachable!("{output:?}"),
        }
    }
}

fn main() {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(4, 2), TreeOptions::sherman());
    // Key = order timestamp (microseconds), value = order amount in cents.
    cluster
        .bulkload((0..ORDERS).map(|ts| (ts * 1_000, (ts % 997) * 3 + 100)))
        .expect("bulkload");
    println!("bulkloaded {ORDERS} orders");

    let mut clients = [cluster.client(1), cluster.client(0)];
    let mut sessions = [
        Client::Ingest { appended: 0 },
        Client::Analytics {
            scans: 0,
            entries: 0,
            revenue: 0,
            latency: LatencyHistogram::new(),
        },
    ];
    run_clients(&mut clients, &mut sessions, 1);
    let [Client::Ingest { appended }, Client::Analytics {
        entries,
        revenue,
        latency,
        ..
    }] = sessions
    else {
        unreachable!("the clients keep their kinds")
    };

    println!("ingested {appended} new orders concurrently with the scans");
    println!(
        "{SCANS} windowed scans of {WINDOW} orders: {entries} rows, total revenue {} cents",
        revenue
    );
    println!(
        "scan latency: p50 {:.1} us, p99 {:.1} us (virtual time)",
        latency.p50() as f64 / 1e3,
        latency.p99() as f64 / 1e3
    );
    assert!(entries >= SCANS * WINDOW / 2, "scans should return full windows");
}
