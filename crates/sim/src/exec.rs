//! The executor every simulated client runs on: one future per client, all
//! on one thread.
//!
//! A client is a future over a [`Parking`], the window onto its
//! [`ClientCtx`]: it posts a verb and awaits its completion, and the compiler
//! writes the state machine that resumes it.  Parking is two cells: the
//! future writes what it waits for into one ([`Park`]) and returns
//! `Pending`; its driver answers — writes the completion into the other —
//! and polls again.  No waker is involved: a driver only polls a future whose
//! park it has just answered.
//!
//! A client is one CPU, so a park either *yields* the client or *holds* it.
//! A verb ([`Parking::wait`]) or a lock step ([`Waits::wait_lock`]) yields:
//! whatever else the client multiplexes may run meanwhile.  CPU time
//! ([`Parking::cpu`]) and the waits that block inside an operation
//! ([`Waits::hold`]) hold it: only *other* clients run.  A client driven
//! alone — [`Parking::block_on`], or a [`run`] of one client — answers a hold
//! in place, with the blocking poll or clock advance it stands for, so a hold
//! never parks there.
//!
//! [`run`] drives every client's future on this thread.  A future parks on
//! the instant its next step is due ([`Parking::until`]), and a heap keyed by
//! (that instant, client index) resumes the earliest — the lower client
//! index on a tie.  Nothing else moves the clock while it runs, so a run of
//! several clients is a pure function of its inputs.  What a client is — one
//! protocol answered verb by verb ([`Parking::drive`]), or a pipeline of
//! operations that picks which of them to resume — is up to its future.
//!
//! A protocol that spans several verbs — a lock acquisition, a lock release,
//! a node allocation — is written once, as an `async fn` over [`Waits`], and
//! runs unchanged under either: inside a client on the executor, or run to
//! its end in place by a blocking call.

use crate::channel::{FabricBackend, FabricChannel};
use crate::client::{ClientCtx, Completion, PendingVerb};
use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
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

/// What a parked future waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The completion of a verb (or a wait) it posted.
    Verb(PendingVerb),
    /// The completion of a step of a lock acquisition: the future holds a
    /// lock, has an attempt on one in flight, or waits in a lock's local
    /// queue.
    Lock(PendingVerb),
    /// The completion of a verb, or of a wait standing for CPU time, that
    /// the future waits for holding its client: nothing else of the client
    /// runs until it is due.
    Hold(PendingVerb),
}

impl Park {
    /// The verb the park is answered with.
    pub fn token(self) -> PendingVerb {
        match self {
            Park::Verb(token) | Park::Lock(token) | Park::Hold(token) => token,
        }
    }
}

/// One client's window onto its [`ClientCtx`] for the futures that run on
/// it, and its park cells.  Everything a client multiplexes shares the
/// *same* `Parking`, so the context sits behind a `RefCell` whose borrows
/// never span an `.await` (clippy's `await_holding_refcell_ref`).
pub struct Parking<'a, C: FabricChannel> {
    ctx: RefCell<&'a mut ClientCtx<C>>,
    /// No other client shares the executor: holds are answered in place.
    alone: Cell<bool>,
    /// What the future polled last parked on.
    parked: Cell<Option<Park>>,
    /// The completion its park was answered with.
    resumed: Cell<Option<Completion>>,
    /// The instant the client's future waits for ([`Parking::until`]).
    due: Cell<Option<u64>>,
}

impl<'a, C: FabricChannel> Parking<'a, C> {
    /// Park on `ctx`: a client alone until [`run`] puts it beside others.
    pub fn new(ctx: &'a mut ClientCtx<C>) -> Self {
        Parking {
            ctx: RefCell::new(ctx),
            alone: Cell::new(true),
            parked: Cell::new(None),
            resumed: Cell::new(None),
            due: Cell::new(None),
        }
    }

    /// This client's fabric context.
    pub fn ctx(&self) -> RefMut<'_, ClientCtx<C>> {
        RefMut::map(self.ctx.borrow_mut(), |ctx| &mut **ctx)
    }

    /// Wait for the verb behind `token`, yielding the client.
    pub fn wait(&self, token: PendingVerb) -> impl Future<Output = Completion> + use<'_, 'a, C> {
        self.park(Park::Verb(token))
    }

    /// Wait for the verb behind `token` holding the client.
    pub async fn hold(&self, token: PendingVerb) -> Completion {
        if self.alone.get() {
            return self.ctx().poll_token(token);
        }
        self.park(Park::Hold(token)).await
    }

    /// Spend `ns` of CPU time, holding the client.  With other clients on
    /// the executor the time is a wait that fires when it has passed, which
    /// charges it to the current operation as CPU time all the same.
    pub async fn cpu(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        if self.alone.get() {
            return self.ctx().charge_cpu(ns);
        }
        let until = self.ctx().now() + ns;
        let wait = self.ctx().post_wait(Some(until));
        self.park(Park::Hold(wait)).await;
    }

    /// A future that is `Pending` exactly once, after writing `on` into the
    /// cells, then ready with the completion the driver answered with.
    fn park(&self, on: Park) -> impl Future<Output = Completion> + use<'_, 'a, C> {
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
    pub fn resume(&self, completion: Completion) {
        self.resumed.set(Some(completion));
    }

    /// Poll `op` once: its output, or what it parks on now.
    pub fn poll<T>(&self, op: Pin<&mut (impl Future<Output = T> + ?Sized)>) -> Result<T, Park> {
        match op.poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(output) => Ok(output),
            Poll::Pending => Err(self.parked.take().expect("a future parks on something")),
        }
    }

    /// The client's wait for the instant `at`, when what it polls next is
    /// due: ready at once for a client alone (the poll that follows moves the
    /// clock); otherwise `Pending` once, and the executor resumes the client
    /// when `at` is the earliest instant of every client it drives.
    pub fn until(&self, at: u64) -> impl Future<Output = ()> + use<'_, 'a, C> {
        let mut park = !self.alone.get();
        poll_fn(move |_| match std::mem::take(&mut park) {
            true => {
                self.due.set(Some(at));
                Poll::Pending
            }
            false => Poll::Ready(()),
        })
    }

    /// Poll `token`'s completion once it is due.
    pub async fn complete(&self, token: PendingVerb) -> Completion {
        let due = self.ctx().completes_at(token);
        self.until(due).await;
        self.ctx().poll_token(token)
    }

    /// Run `op` with one verb in flight at a time: every park answered with
    /// its own completion once it is due.  A client that is one protocol
    /// runs as this.
    pub async fn drive<T>(&self, op: impl Future<Output = T>) -> T {
        let mut op = pin!(op);
        loop {
            match self.poll(op.as_mut()) {
                Ok(output) => return output,
                Err(park) => {
                    let completion = self.complete(park.token()).await;
                    self.resume(completion);
                }
            }
        }
    }

    /// Run `op` to its end in place: [`Parking::drive`] for a client alone,
    /// whose every wait is a blocking poll.  This *is* the blocking path.
    ///
    /// # Panics
    /// When the client shares an executor with others.
    pub fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        assert!(self.alone.get(), "a blocking call drives its client alone");
        self.poll(pin!(self.drive(op)))
            .unwrap_or_else(|_| unreachable!("a client alone never waits for the executor"))
    }
}

impl<C: FabricChannel> Waits for Parking<'_, C> {
    type Channel = C;

    fn ctx(&self) -> RefMut<'_, ClientCtx<C>> {
        Parking::ctx(self)
    }

    fn wait_lock(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        self.park(Park::Lock(token))
    }

    fn hold(&self, token: PendingVerb) -> impl Future<Output = Completion> {
        Parking::hold(self, token)
    }
}

/// Run `clients` — each a [`Parking`] and the future that runs on it — on
/// one executor, and return every future's output in client order.
///
/// Each future waits for the instants its client's steps are due
/// ([`Parking::until`]); the heap resumes the earliest, the lower client
/// index on a tie, every client starting now, in client order.  A single
/// client is driven alone, each wait answered in place; that is the only
/// form for a real-clock backend ([`FabricBackend::VIRTUAL_CLOCK`] false),
/// whose clients each need an OS thread of their own.  Create the clients on
/// the thread that calls this: they share its participant in the
/// simulator's clock, which the executor's polls move.
///
/// # Panics
/// When several clients run on a real-clock backend, or a future parks on
/// anything but an instant ([`Parking::drive`] turns a protocol's parks into
/// instants).
pub fn run<'p, 'a: 'p, C: FabricChannel, F: Future>(
    clients: impl IntoIterator<Item = (&'p Parking<'a, C>, F)>,
) -> Vec<F::Output> {
    let mut clients: Vec<_> = clients
        .into_iter()
        .map(|(cx, future)| (cx, Box::pin(future), None))
        .collect();
    let alone = clients.len() == 1;
    assert!(
        alone || <C::Backend as FabricBackend>::VIRTUAL_CLOCK,
        "several clients share one executor only on a virtual clock"
    );
    for (cx, _, _) in &clients {
        cx.alone.set(alone);
    }
    let mut heap: BinaryHeap<_> = (0..clients.len()).map(|idx| Reverse((0, idx))).collect();
    while let Some(Reverse((_, idx))) = heap.pop() {
        let (cx, future, output) = &mut clients[idx];
        match future
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
        {
            Poll::Ready(out) => *output = Some(out),
            Poll::Pending => {
                let due = cx.due.take().expect("a client waits for an instant");
                heap.push(Reverse((due, idx)));
            }
        }
    }
    clients
        .into_iter()
        .map(|(_, _, output)| output.expect("every client ran to its end"))
        .collect()
}
