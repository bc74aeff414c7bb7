//! Stepping a lock protocol by hand in the unit tests: every lock step of a
//! client alone (`Parking`) pends once, recording the verb it waits for, and
//! the test answers it; holds are answered in place.  That is what the
//! executor does for a client driven alone, one poll at a time.

#![cfg(test)]

use crate::LockStrategy;
use sherman_sim::{Park, Parking, PendingVerb, SimChannel};
use std::future::Future;
use std::pin::Pin;

/// Every rung of the ladder, local layer or not.
pub(crate) const RUNGS: [LockStrategy; 6] = [
    LockStrategy::HostCasFaa,
    LockStrategy::HostCasWrite,
    LockStrategy::OnChip,
    LockStrategy::Hierarchical,
    LockStrategy::WaitQueue,
    LockStrategy::Hocl,
];

/// A client whose lock steps the test answers.
pub(crate) trait Stepped {
    /// Poll `op` once, first answering the wait on `pending` with its
    /// completion: its output, or the verb it waits for now.
    fn step<T>(
        &self,
        op: Pin<&mut impl Future<Output = T>>,
        pending: Option<PendingVerb>,
    ) -> Result<T, PendingVerb>;

    /// Step `op` to its end from the wait `pending`, answering every wait
    /// with its own completion.
    fn finish<T>(
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

impl Stepped for Parking<'_, SimChannel> {
    fn step<T>(
        &self,
        op: Pin<&mut impl Future<Output = T>>,
        pending: Option<PendingVerb>,
    ) -> Result<T, PendingVerb> {
        if let Some(token) = pending {
            let completion = self.ctx().poll_token(token);
            self.resume(completion);
        }
        self.poll(op).map_err(Park::token)
    }
}
