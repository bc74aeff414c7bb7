//! The executor the tree operations run on.
//!
//! Every operation is an `async fn` over one shared [`OpCx`]: it posts a verb
//! and awaits its completion (`cx.wait(token).await`), and the compiler
//! writes the state machine that resumes it.  Parking is two cells on the
//! context: the operation writes what it waits for into one ([`Park`]) and
//! returns `Pending`; the driver answers — writes the completion into the
//! other — and polls again.  No waker is involved: a driver only polls an
//! operation whose park it has just answered.
//!
//! A client is one CPU, so a park either *yields* the client or *holds* it.
//! A verb or a lock step yields: the client's other operations may run
//! meanwhile.  CPU time ([`OpCx::scan_cpu`]) and the few waits that block
//! inside an operation ([`OpCx::hold`]) hold it: only *other* clients run.
//! A client driven alone — [`OpCx::block_on`], or any run of one client —
//! answers a hold in place, with the blocking poll or clock advance it
//! stands for, so a hold never parks there.  With several clients on one
//! executor it parks as [`Park::Hold`], and the driver lets the others run
//! until it is due.
//!
//! The pipelined scheduler (`crate::scheduler`) is the driver: it keeps
//! several operations of a client parked at once and resumes whichever one's
//! parked completion is due first.  The scheduler itself is an `async fn`
//! too, whose waits ([`OpCx::until`]) the executor answers across clients.

use crate::cluster::Cluster;
use sherman_memserver::ClientAllocator;
use sherman_sim::{ClientCtx, Completion, Fabric, FabricBackend, PendingVerb, Waits};
use std::cell::{Cell, RefCell, RefMut};
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// What a parked operation waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// The completion of a verb (or a wait) it posted.
    Verb(PendingVerb),
    /// The completion of a step of a lock acquisition: the operation holds a
    /// lock, has an attempt on one in flight, or waits in a lock's local
    /// queue.
    Lock(PendingVerb),
    /// The completion of a verb, or of a wait standing for CPU time, that
    /// the operation waits for holding its client: nothing else of the
    /// client runs until it is due.
    Hold(PendingVerb),
}

impl Park {
    /// The verb the park is answered with.
    pub(crate) fn token(self) -> PendingVerb {
        match self {
            Park::Verb(token) | Park::Lock(token) | Park::Hold(token) => token,
        }
    }
}

/// The shared-state window every operation runs against: the cluster plus
/// this client's fabric context and node allocator.  All operations
/// multiplexed on one client share the *same* `OpCx` (that is the point), so
/// the context sits behind a `RefCell` whose borrows never span an `.await`
/// (clippy's `await_holding_refcell_ref`), and the allocator keeps its state
/// in cells of its own.
///
/// It is the tree's [`Waits`]: the lock manager's acquisitions and releases
/// and the allocator's chunk requests, written once as `async fn`s, park the
/// operation here — a lock step as [`Park::Lock`], a release verb or a chunk
/// request as a hold.
pub(crate) struct OpCx<'a, B: FabricBackend = Fabric> {
    pub cluster: &'a Arc<Cluster<B>>,
    ctx: RefCell<&'a mut ClientCtx<B::Channel>>,
    pub allocator: &'a ClientAllocator<B>,
    pub cs_id: u16,
    /// No other client shares the executor: holds are answered in place.
    alone: bool,
    /// What the operation polled last parked on.
    parked: Cell<Option<Park>>,
    /// The completion its park was answered with.
    resumed: Cell<Option<Completion>>,
    /// The instant the driver waits for ([`OpCx::until`]).
    due: Cell<Option<u64>>,
}

impl<'a, B: FabricBackend> OpCx<'a, B> {
    pub(crate) fn new(
        cluster: &'a Arc<Cluster<B>>,
        ctx: &'a mut ClientCtx<B::Channel>,
        allocator: &'a ClientAllocator<B>,
        cs_id: u16,
        alone: bool,
    ) -> Self {
        OpCx {
            cluster,
            ctx: RefCell::new(ctx),
            allocator,
            cs_id,
            alone,
            parked: Cell::new(None),
            resumed: Cell::new(None),
            due: Cell::new(None),
        }
    }

    /// This client's fabric context.
    pub(crate) fn ctx(&self) -> RefMut<'_, ClientCtx<B::Channel>> {
        RefMut::map(self.ctx.borrow_mut(), |ctx| &mut **ctx)
    }

    /// Wait for the verb behind `token`.
    pub(crate) fn wait(
        &self,
        token: PendingVerb,
    ) -> impl Future<Output = Completion> + use<'_, 'a, B> {
        self.park(Park::Verb(token))
    }

    /// Wait for the verb behind `token` holding the client.
    pub(crate) async fn hold(&self, token: PendingVerb) -> Completion {
        if self.alone {
            return self.ctx().poll_token(token);
        }
        self.park(Park::Hold(token)).await
    }

    /// Spend the CPU time of scanning `bytes` of fetched data, holding the
    /// client.  With other clients on the executor the time is a wait that
    /// fires when it has passed, which charges it to the operation as CPU
    /// time all the same.
    pub(crate) async fn scan_cpu(&self, bytes: usize) {
        if self.alone {
            return self.ctx().charge_scan(bytes);
        }
        let ns = self.cluster.fabric().config().cpu_scan_ns(bytes);
        if ns > 0 {
            let until = self.ctx().now() + ns;
            let wait = self.ctx().post_wait(Some(until));
            self.park(Park::Hold(wait)).await;
        }
    }

    /// A future that is `Pending` exactly once, after writing `on` into the
    /// context, then ready with the completion the driver answered with.
    fn park(&self, on: Park) -> impl Future<Output = Completion> + use<'_, 'a, B> {
        let mut on = Some(on);
        poll_fn(move |_| match on.take() {
            Some(park) => {
                self.parked.set(Some(park));
                Poll::Pending
            }
            None => Poll::Ready(
                self.resumed
                    .take()
                    .expect("a park resumes with its completion"),
            ),
        })
    }

    /// Answer the last park with `completion`.
    pub(crate) fn resume(&self, completion: Completion) {
        self.resumed.set(Some(completion));
    }

    /// Poll `op` once: its output, or what it parks on now.
    pub(crate) fn poll<T>(
        &self,
        op: Pin<&mut (impl Future<Output = T> + ?Sized)>,
    ) -> Result<T, Park> {
        match op.poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(output) => Ok(output),
            Poll::Pending => Err(self.parked.take().expect("an operation parks on something")),
        }
    }

    /// The driver's wait for the instant `at`, when what it polls next is
    /// due: ready at once for a client alone (the poll that follows moves the
    /// clock); otherwise `Pending` once, and the executor resumes the driver
    /// when `at` is the earliest instant of every client it drives.
    pub(crate) fn until(&self, at: u64) -> impl Future<Output = ()> + use<'_, 'a, B> {
        once((!self.alone).then_some(move || self.due.set(Some(at))))
    }

    /// The instant the driver waits for, once it returned `Pending`.
    pub(crate) fn take_due(&self) -> u64 {
        self.due.take().expect("a driver waits for an instant")
    }

    /// Poll `token`'s completion once it is due.
    pub(crate) async fn complete(&self, token: PendingVerb) -> Completion {
        let due = self.ctx().completes_at(token);
        self.until(due).await;
        self.ctx().poll_token(token)
    }

    /// Run `op` with one verb in flight at a time: post, poll, resume — every
    /// park answered with its own completion.  This *is* the blocking path —
    /// and exactly what a pipelined run at depth 1 executes.
    pub(crate) fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        assert!(self.alone, "a blocking call drives its client alone");
        let mut op = pin!(op);
        loop {
            match self.poll(op.as_mut()) {
                Ok(output) => return output,
                Err(park) => {
                    let completion = self.ctx().poll_token(park.token());
                    self.resume(completion);
                }
            }
        }
    }
}

impl<B: FabricBackend> Waits for OpCx<'_, B> {
    type Channel = B::Channel;

    fn ctx(&self) -> RefMut<'_, ClientCtx<B::Channel>> {
        OpCx::ctx(self)
    }

    fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        self.park(Park::Lock(token))
    }

    fn hold(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        OpCx::hold(self, token)
    }
}

/// A future that is `Pending` once, after running `park`, then ready; ready
/// at once without it.
fn once(mut park: Option<impl FnOnce()>) -> impl Future<Output = ()> {
    poll_fn(move |_| match park.take() {
        Some(park) => {
            park();
            Poll::Pending
        }
        None => Poll::Ready(()),
    })
}
