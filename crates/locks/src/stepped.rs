//! A [`Waits`] the unit tests step by hand: every lock step pends once,
//! recording the verb it waits for, and resumes with the completion the test
//! answers with; holds are answered in place.  That is what the tree's
//! executor does for a client driven alone, one poll at a time.

#![cfg(test)]

use crate::LockStrategy;
use sherman_sim::{ClientCtx, Completion, PendingVerb, SimChannel, Waits};
use std::cell::{Cell, RefCell, RefMut};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Every rung of the ladder, local layer or not.
pub(crate) const RUNGS: [LockStrategy; 6] = [
    LockStrategy::HostCasFaa,
    LockStrategy::HostCasWrite,
    LockStrategy::OnChip,
    LockStrategy::Hierarchical,
    LockStrategy::WaitQueue,
    LockStrategy::Hocl,
];

/// One client whose lock steps park.
pub(crate) struct Stepped<'a> {
    ctx: RefCell<&'a mut ClientCtx>,
    parked: Cell<Option<PendingVerb>>,
    resumed: Cell<Option<Completion>>,
}

impl<'a> Stepped<'a> {
    pub(crate) fn new(ctx: &'a mut ClientCtx) -> Self {
        Stepped {
            ctx: RefCell::new(ctx),
            parked: Cell::new(None),
            resumed: Cell::new(None),
        }
    }

    /// Poll `op` once, first answering the wait on `pending` with its
    /// completion: its output, or the verb it waits for now.
    pub(crate) fn step<T>(
        &self,
        op: Pin<&mut impl Future<Output = T>>,
        pending: Option<PendingVerb>,
    ) -> Result<T, PendingVerb> {
        if let Some(token) = pending {
            let completion = self.ctx().poll_token(token);
            self.resumed.set(Some(completion));
        }
        match op.poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(output) => Ok(output),
            Poll::Pending => Err(self.parked.take().expect("a lock step parks on a verb")),
        }
    }

    /// Step `op` to its end from the wait `pending`, answering every wait
    /// with its own completion.
    pub(crate) fn finish<T>(
        &self,
        mut op: Pin<&mut impl Future<Output = T>>,
        mut pending: Option<PendingVerb>,
    ) -> T {
        loop {
            match self.step(op.as_mut(), pending.take()) {
                Ok(output) => return output,
                Err(token) => pending = Some(token),
            }
        }
    }
}

impl Waits for Stepped<'_> {
    type Channel = SimChannel;

    fn ctx(&self) -> RefMut<'_, ClientCtx> {
        RefMut::map(self.ctx.borrow_mut(), |ctx| &mut **ctx)
    }

    fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        let mut token = Some(token);
        poll_fn(move |_| match token.take() {
            Some(token) => {
                self.parked.set(Some(token));
                Poll::Pending
            }
            None => Poll::Ready(self.resumed.take().expect("a step resumes answered")),
        })
    }

    async fn hold(&self, token: PendingVerb) -> Completion {
        self.ctx().poll_token(token)
    }
}
