//! What the integration tests share: running the clients of one body on
//! either backend.
//!
//! A test's clients are [`Session`]s.  On the simulator they are futures on
//! one executor (`run_clients`), so a run is a pure function of its inputs;
//! on a real-clock backend each has an OS thread of its own.

#![allow(dead_code)]

use sherman_repro::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

/// Run `sessions[i]` on a client of compute server `cs(i)`, one operation
/// in flight per client: on the simulator every client on one executor, on
/// a real-clock backend each on an OS thread, all of them starting
/// together.
pub fn run_sessions<B: FabricBackend, S: Session + Send>(
    cluster: &Arc<Cluster<B>>,
    sessions: &mut [S],
    cs: impl Fn(usize) -> u16 + Sync,
) {
    if B::VIRTUAL_CLOCK {
        let mut clients: Vec<_> = (0..sessions.len()).map(|i| cluster.client(cs(i))).collect();
        return run_clients(&mut clients, sessions, 1);
    }
    let start = Barrier::new(sessions.len());
    thread::scope(|scope| {
        for (i, session) in sessions.iter_mut().enumerate() {
            let (cs, start) = (&cs, &start);
            scope.spawn(move || {
                let mut client = cluster.client(cs(i));
                start.wait();
                run_clients(std::slice::from_mut(&mut client), std::slice::from_mut(session), 1);
            });
        }
    });
}

/// The step of a [`Client`]: given the results of the batch before (none
/// at first), the next batch, or `None` when the client is done.
type Step<'a> = Box<dyn FnMut(Vec<PipelinedResult>) -> Option<Vec<PipelineOp>> + Send + 'a>;

/// A client that checks each batch's results and picks the next batch.
pub struct Client<'a> {
    step: Step<'a>,
    results: Vec<PipelinedResult>,
}

/// A client whose `step` checks each batch's results and picks the next.
pub fn batches<'a>(
    step: impl FnMut(Vec<PipelinedResult>) -> Option<Vec<PipelineOp>> + Send + 'a,
) -> Client<'a> {
    Client {
        step: Box::new(step),
        results: Vec::new(),
    }
}

/// A client that runs its operations one at a time, each a batch of its own
/// — which at depth 1 is the blocking path: `step` checks the result of the
/// operation before (none at first) and picks the next.
pub fn one_by_one<'a>(
    mut step: impl FnMut(Option<PipelinedResult>) -> Option<PipelineOp> + Send + 'a,
) -> Client<'a> {
    batches(move |mut results| step(results.pop()).map(|op| vec![op]))
}

/// A client that runs `ops` one at a time and checks nothing but that each
/// succeeds.
pub fn each<'a>(ops: impl IntoIterator<Item = PipelineOp>) -> Client<'a> {
    let mut ops = ops.into_iter().collect::<Vec<_>>().into_iter();
    one_by_one(move |_| ops.next())
}

/// A workload generator's operation as the tree's executor runs it.
pub fn pipeline_op(op: Op) -> PipelineOp {
    match op {
        Op::Lookup { key } => PipelineOp::Lookup { key },
        Op::Insert { key, value } => PipelineOp::Insert { key, value },
        Op::Delete { key } => PipelineOp::Delete { key },
        Op::Range { start_key, count } => PipelineOp::Range {
            start_key,
            count: count as usize,
        },
    }
}

impl Session for Client<'_> {
    type Batch = Vec<PipelineOp>;

    fn next_batch(&mut self) -> Option<Self::Batch> {
        (self.step)(std::mem::take(&mut self.results))
    }

    fn report(&mut self, report: TreeResult<PipelineReport>) {
        self.results = report.expect("operation").results;
    }
}
