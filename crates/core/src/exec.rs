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
//! Two drivers exist.  [`OpCx::block_on`] answers every park at once with the
//! verb's own completion, one verb in flight at a time — the blocking
//! `TreeClient` entry points.  The pipelined scheduler (`crate::scheduler`)
//! keeps several operations parked at once and resumes whichever one's verb
//! completes first; an operation that parks on [`Park::Exclusive`] is then
//! driven alone, as [`OpCx::drive`] does.

use crate::cluster::Cluster;
use sherman_memserver::ClientAllocator;
use sherman_sim::{ClientCtx, Completion, Fabric, FabricBackend, PendingVerb};
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
    /// Nothing posted: it is about to take further locks and wait for them,
    /// and resumes once no other operation of its context is inside a lock
    /// acquisition.
    Exclusive,
}

impl Park {
    /// The verb the park is answered with, if any.
    pub(crate) fn token(self) -> Option<PendingVerb> {
        match self {
            Park::Verb(token) | Park::Lock(token) => Some(token),
            Park::Exclusive => None,
        }
    }
}

/// The shared-state window every operation runs against: the cluster plus
/// this logical thread's fabric context and node allocator.  All operations
/// multiplexed on one thread share the *same* `OpCx` (that is the point), so
/// the context and the allocator sit behind `RefCell`s whose borrows never
/// span an `.await` (clippy's `await_holding_refcell_ref`).
pub(crate) struct OpCx<'a, B: FabricBackend = Fabric> {
    pub cluster: &'a Arc<Cluster<B>>,
    ctx: RefCell<&'a mut ClientCtx<B::Channel>>,
    allocator: RefCell<&'a mut ClientAllocator<B>>,
    pub cs_id: u16,
    /// What the operation polled last parked on.
    parked: Cell<Option<Park>>,
    /// The completion its park was answered with.
    resumed: Cell<Option<Completion>>,
}

impl<'a, B: FabricBackend> OpCx<'a, B> {
    pub(crate) fn new(
        cluster: &'a Arc<Cluster<B>>,
        ctx: &'a mut ClientCtx<B::Channel>,
        allocator: &'a mut ClientAllocator<B>,
        cs_id: u16,
    ) -> Self {
        OpCx {
            cluster,
            ctx: RefCell::new(ctx),
            allocator: RefCell::new(allocator),
            cs_id,
            parked: Cell::new(None),
            resumed: Cell::new(None),
        }
    }

    /// This thread's fabric context.
    pub(crate) fn ctx(&self) -> RefMut<'_, ClientCtx<B::Channel>> {
        RefMut::map(self.ctx.borrow_mut(), |ctx| &mut **ctx)
    }

    /// This thread's node allocator.
    pub(crate) fn allocator(&self) -> RefMut<'_, ClientAllocator<B>> {
        RefMut::map(self.allocator.borrow_mut(), |allocator| &mut **allocator)
    }

    /// Wait for the verb behind `token`.
    pub(crate) fn wait(
        &self,
        token: PendingVerb,
    ) -> impl Future<Output = Completion> + use<'_, 'a, B> {
        self.park(Park::Verb(token))
    }

    /// Wait for the verb behind `token`, a step of a lock acquisition.
    pub(crate) fn wait_lock(
        &self,
        token: PendingVerb,
    ) -> impl Future<Output = Completion> + use<'_, 'a, B> {
        self.park(Park::Lock(token))
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

    /// Wait until no other operation of this context is inside a lock
    /// acquisition.
    pub(crate) fn exclusive(&self) -> impl Future<Output = ()> + use<'_, 'a, B> {
        let mut parked = false;
        poll_fn(move |_| match std::mem::replace(&mut parked, true) {
            true => Poll::Ready(()),
            false => {
                self.parked.set(Some(Park::Exclusive));
                Poll::Pending
            }
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

    /// Drive `op` to completion alone: every verb it parks on is polled at
    /// once, and nobody else is acquiring anything.
    pub(crate) fn drive<T>(&self, mut op: Pin<&mut (impl Future<Output = T> + ?Sized)>) -> T {
        loop {
            match self.poll(op.as_mut()) {
                Ok(output) => return output,
                Err(park) => {
                    if let Some(token) = park.token() {
                        self.resume(self.ctx().poll_token(token));
                    }
                }
            }
        }
    }

    /// Run `op` with one verb in flight at a time: post, poll, resume.  This
    /// *is* the blocking path — and exactly what a pipelined run at depth 1
    /// executes.
    pub(crate) fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        self.drive(pin!(op))
    }
}
