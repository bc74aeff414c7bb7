//! How a protocol that spans several verbs — a lock acquisition, a lock
//! release, a node allocation — waits for them.
//!
//! Each such protocol is written once, as an `async fn` over a [`Waits`]: it
//! posts a verb on [`Waits::ctx`] and awaits its completion.  Two things
//! answer those waits.  The tree's operation context parks the operation and
//! lets its executor answer; [`InPlace`] answers every wait at once with a
//! blocking poll, and [`block_on`] runs the protocol to its end under it —
//! which is all a blocking call (`LockManager::acquire`,
//! `ClientAllocator::alloc_node`, …) is.  Both post the same verbs in the
//! same order.

use crate::channel::FabricChannel;
use crate::client::{ClientCtx, Completion, PendingVerb};
use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// What a protocol waits through: the client it posts on and the two ways it
/// waits for a completion.
pub trait Waits {
    /// The fabric channel of the client.
    type Channel: FabricChannel;

    /// The client's fabric context, for a step that does not wait: never
    /// hold it across an `.await`.
    fn ctx(&self) -> RefMut<'_, ClientCtx<Self::Channel>>;

    /// Wait for `token`, a step of a lock acquisition — an attempt, a read
    /// under a handed-over lock, a place in a local queue.  The client's
    /// other operations may run meanwhile.
    fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion>;

    /// Wait for `token` holding the client: nothing else of it runs until
    /// the completion is due (a release's verbs, a chunk request).
    fn hold(&self, token: PendingVerb) -> impl Future<Output = Completion>;
}

/// The blocking [`Waits`]: every wait is a poll of its completion, in place.
pub struct InPlace<'a, C: FabricChannel>(RefCell<&'a mut ClientCtx<C>>);

impl<'a, C: FabricChannel> InPlace<'a, C> {
    /// Wait on `ctx` by polling it.
    pub fn new(ctx: &'a mut ClientCtx<C>) -> Self {
        InPlace(RefCell::new(ctx))
    }
}

impl<C: FabricChannel> Waits for InPlace<'_, C> {
    type Channel = C;

    fn ctx(&self) -> RefMut<'_, ClientCtx<C>> {
        RefMut::map(self.0.borrow_mut(), |ctx| &mut **ctx)
    }

    fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        self.hold(token)
    }

    async fn hold(&self, token: PendingVerb) -> Completion {
        self.ctx().poll_token(token)
    }
}

/// Run `op` to its end on the calling thread.
///
/// # Panics
/// If `op` waits for anything it does not answer in place itself: a blocking
/// call drives its protocol over [`InPlace`], whose waits never pend.
pub fn block_on<T>(op: impl Future<Output = T>) -> T {
    match pin!(op).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(output) => output,
        Poll::Pending => panic!("a blocking call waited for an executor"),
    }
}
