//! Several simulated clients on one executor (`run_clients`): a client that
//! holds its CPU — for its CPU time, or for a read under its lock — lets the
//! others run at their own instants, so each client's timeline is the one it
//! has alone; and two clients due at the same instant run in client order.

use sherman_repro::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The instants, in the order the executor reached them, at which the
/// clients' operations ended, with the client each belongs to.
type Log = Rc<RefCell<Vec<(usize, u64)>>>;

/// A client's operations, one to a batch.  Batches run back to back from
/// instant zero, so each one ends at the sum of the latencies so far.
struct OneByOne {
    client: usize,
    ops: Vec<PipelineOp>,
    now: u64,
    log: Log,
}

impl Session for OneByOne {
    type Batch = Vec<PipelineOp>;

    fn next_batch(&mut self) -> Option<Vec<PipelineOp>> {
        (!self.ops.is_empty()).then(|| vec![self.ops.remove(0)])
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        let report = report.expect("the operation succeeds");
        assert_eq!(report.results.len(), 1);
        self.now += report.elapsed_ns;
        self.log.borrow_mut().push((self.client, self.now));
    }
}

fn loaded(options: TreeOptions) -> Arc<Cluster> {
    let cluster = Cluster::new(ClusterConfig::small(), options);
    cluster.bulkload((0..4_000u64).map(|k| (k, k + 1))).unwrap();
    cluster
}

/// The first key of every leaf the index cache of compute server `cs` routes
/// to memory server `ms`, in key order.
fn leaf_heads(cluster: &Cluster, cs: u16, ms: u16) -> Vec<u64> {
    let cache = cluster.cache(cs);
    let leaf = |key| cache.lookup_leaf(key).expect("bulkload warms the cache").0;
    (1..4_000u64)
        .filter(|&k| leaf(k) != leaf(k - 1) && leaf(k).ms == ms)
        .collect()
}

/// Run `work[i]` — (compute server, operations) — as client `i`, every
/// client on one executor, and return the instants each client's operations
/// ended at, and the order the executor reached them in.
fn run(options: TreeOptions, work: &[(u16, Vec<PipelineOp>)]) -> (Vec<Vec<u64>>, Vec<(usize, u64)>) {
    let cluster = loaded(options);
    let log = Log::default();
    let mut clients: Vec<_> = work.iter().map(|(cs, _)| cluster.client(*cs)).collect();
    let mut sessions: Vec<_> = work
        .iter()
        .enumerate()
        .map(|(client, (_, ops))| OneByOne {
            client,
            ops: ops.clone(),
            now: 0,
            log: Rc::clone(&log),
        })
        .collect();
    run_clients(&mut clients, &mut sessions, 1);
    let log = log.borrow().clone();
    let instants = (0..work.len())
        .map(|c| log.iter().filter(|&&(who, _)| who == c).map(|&(_, at)| at).collect())
        .collect();
    (instants, log)
}

/// Client A updates keys on memory server 0 under FG+ (no command
/// combination: its lock is one round trip, and the read under it another,
/// which A waits for holding its CPU, as it does its CPU time); client B, on
/// the other compute server, looks keys up on memory server 1.  They share
/// no NIC port and no lock, so nothing but the executor couples them: on one
/// heap each posts at exactly the instants it posts at alone.  Had a hold of
/// A moved the shared clock, B would have seen the completions that fell
/// inside it late, and posted its next verb at the end of A's hold.
#[test]
fn a_held_client_lets_the_others_run_at_their_own_instants() {
    let probe = loaded(TreeOptions::fg_plus());
    let writes: Vec<PipelineOp> = leaf_heads(&probe, 0, 0)
        .into_iter()
        .take(12)
        .map(|key| PipelineOp::Insert { key, value: 7 })
        .collect();
    let reads: Vec<PipelineOp> = leaf_heads(&probe, 1, 1)
        .into_iter()
        .cycle()
        .take(60)
        .map(|key| PipelineOp::Lookup { key })
        .collect();
    assert!(writes.len() == 12 && reads.len() == 60, "leaves on both servers");
    let a = (0, writes);
    let b = (1, reads);

    let (alone_a, _) = run(TreeOptions::fg_plus(), std::slice::from_ref(&a));
    let (alone_b, _) = run(TreeOptions::fg_plus(), std::slice::from_ref(&b));
    let (together, _) = run(TreeOptions::fg_plus(), &[a, b]);
    assert_eq!(together[0], alone_a[0], "A's timeline");
    assert_eq!(together[1], alone_b[0], "B's timeline");

    // The two really overlapped: B's lookups ended inside A's writes.
    let a_ops: Vec<_> = together[0].windows(2).map(|w| (w[0], w[1])).collect();
    let inside = together[1]
        .iter()
        .filter(|&&at| a_ops.iter().any(|&(from, to)| from < at && at < to))
        .count();
    assert!(inside > 20, "only {inside} of B's lookups ended inside A's writes");
}

/// Two clients on separate compute servers looking up the first key of a
/// leaf on separate memory servers are each other's mirror image: every
/// step of one is due at the instant the same step of the other is.  On
/// each such tie the lower client index runs first.
#[test]
fn a_tie_goes_to_the_lower_client_index() {
    let probe = loaded(TreeOptions::sherman());
    let lookups = |cs, ms| -> Vec<PipelineOp> {
        leaf_heads(&probe, cs, ms)
            .into_iter()
            .take(10)
            .map(|key| PipelineOp::Lookup { key })
            .collect()
    };
    let work = [(0, lookups(0, 0)), (1, lookups(1, 1))];
    let (instants, log) = run(TreeOptions::sherman(), &work);
    assert_eq!(instants[0], instants[1], "mirror images");
    assert_eq!(instants[0].len(), 10);
    let expected: Vec<(usize, u64)> = instants[0].iter().flat_map(|&at| [(0, at), (1, at)]).collect();
    assert_eq!(log, expected);
}
