//! HOCL — the hierarchical on-chip lock (§4.3, Figure 6): the local layer
//! of the hierarchical rungs of [`LockManager`].
//!
//! HOCL has two layers.  The *global lock tables* (GLT) live in the on-chip
//! memory of each memory server's NIC and are acquired with masked `RDMA_CAS`.
//! The *local lock tables* (LLT), one per compute server, coordinate the
//! threads of that server: a thread must hold the local lock before it may
//! attempt the remote acquisition, so conflicting threads of the same compute
//! server wait locally instead of hammering the NIC with failed `RDMA_CAS`
//! retries.  The rungs above the bare hierarchy ([`LockStrategy::Hierarchical`],
//! where waiters race) add a FIFO wait queue per local lock
//! ([`LockStrategy::WaitQueue`], first-come-first-served fairness) and then
//! *handover* ([`LockStrategy::Hocl`]): on release, if local acquisitions are
//! queued, the global lock is passed to the head of the queue without a
//! remote round trip, bounded by [`MAX_HANDOVER_DEPTH`] consecutive handovers
//! so that other compute servers are not starved.
//!
//! The paper queues conflicting threads *and coroutines*; here the coroutines
//! are the operations a pipelined client multiplexes on one fabric context.
//! Nobody ever blocks on a local lock: a waiter posts a *wait* on its
//! context's completion queue (`ClientCtx::post_wait`) and yields.  A queued
//! waiter whose turn can only come through releases of its own context — the
//! holder and everyone queued ahead are sibling operations — parks without a
//! deadline and is woken by the release that makes it the head; any other
//! waiter (and every racing one) re-checks every `LOCAL_POLL_NS`, because a
//! thread cannot wake another thread's context.
//!
//! An acquisition waits for its turn in an `async fn`
//! ([`LockManager::lock`]), so that each look at the local lock is one step
//! between two awaits; the look itself (`LockManager::turn`) never waits.
//!
//! An *optimistic* acquisition ([`LockManager::try_lock`]) does none of this
//! waiting: a local lock that is held, or promised to a queued waiter, is lost
//! on the spot without a verb, and a global attempt that loses gives the
//! local lock back instead of spinning — so several may be in flight at once,
//! in any order, and nothing is ever waited for (the structural-delete path
//! tries its three locks this way before it falls back to rank order).

use crate::{LockManager, LockStrategy};
use parking_lot::Mutex;
use sherman_sim::{ClientCtx, FabricChannel, GlobalAddress, PendingVerb, Waits};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum number of consecutive local handovers before the global lock must
/// be released so that other compute servers get a chance (the paper uses 4).
pub const MAX_HANDOVER_DEPTH: u32 = 4;

/// Virtual time between local polls of a waiter that no release of its own
/// context can wake.
const LOCAL_POLL_NS: u64 = 200;

/// One queued acquisition.
#[derive(Debug)]
struct Waiter {
    ticket: u64,
    /// The context ([`ClientCtx::id`]) the acquisition runs on.
    client: u64,
    /// The wait it is parked on, for a release on the same context to wake.
    wait: PendingVerb,
}

#[derive(Debug, Default)]
struct LocalLockState {
    held: bool,
    /// The context of the current holder (meaningful while `held`).
    holder: u64,
    queue: VecDeque<Waiter>,
    /// Ticket that has been handed the still-held global lock.
    grant: Option<u64>,
    handover_depth: u32,
}

#[derive(Debug, Default)]
struct LocalLock {
    state: Mutex<LocalLockState>,
}

/// One shard of the local lock table: `(ms, slot) -> lock record`.
type LockShard = Mutex<HashMap<(u16, u64), Arc<LocalLock>>>;

/// The per-compute-server local lock table.
///
/// One instance is shared by all client threads of a compute server.  The
/// paper sizes the LLT at 8 bytes per GLT slot (a few MB); here a record
/// exists only while its lock is in use — created by the first acquisition
/// that wants the lock, dropped by the last one that releases it — so the
/// table is as large as the set of locks held or waited for, not as the set
/// of nodes ever written.
#[derive(Debug)]
pub struct LocalLockTable {
    shards: Vec<LockShard>,
    tickets: AtomicU64,
}

impl LocalLockTable {
    pub(crate) fn new() -> Self {
        const SHARDS: usize = 64;
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(HashMap::new()));
        LocalLockTable {
            shards,
            tickets: AtomicU64::new(0),
        }
    }

    fn shard(&self, ms: u16, slot: u64) -> &LockShard {
        &self.shards[(slot as usize ^ ms as usize) % self.shards.len()]
    }

    fn lock_for(&self, ms: u16, slot: u64) -> Arc<LocalLock> {
        Arc::clone(self.shard(ms, slot).lock().entry((ms, slot)).or_default())
    }

    /// Drop the record of `(ms, slot)` if `local`, the caller's handle to it,
    /// is the last one and the lock is idle (an idle record is the default
    /// record, which the next `lock_for` recreates).
    fn retire_if_idle(&self, ms: u16, slot: u64, local: Arc<LocalLock>) {
        let mut map = self.shard(ms, slot).lock();
        // Handles are only ever cloned under the shard lock: two means the
        // table's and the caller's, so nobody holds or awaits this lock.
        if Arc::strong_count(&local) == 2 {
            let st = local.state.lock();
            if !st.held && st.queue.is_empty() && st.grant.is_none() {
                drop(st);
                map.remove(&(ms, slot));
            }
        }
    }

    /// A ticket no other acquisition of this compute server holds.
    pub(crate) fn ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of lock records currently materialized (observability/tests).
    pub fn materialized_locks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of acquisitions — of any thread, sibling operations of one
    /// context included — queued on the local lock for `(ms, slot)`
    /// (observability/tests).  Does not materialize a lock record.
    pub fn queued_waiters(&self, ms: u16, slot: u64) -> usize {
        let map = self.shard(ms, slot).lock();
        map.get(&(ms, slot))
            .map_or(0, |lock| lock.state.lock().queue.len())
    }
}

/// The local lock a release gives back, and what it does with the global one.
pub(crate) struct Locked {
    ms: u16,
    slot: u64,
    local: Arc<LocalLock>,
    /// `Some(sibling)`: the global lock stays held and goes to the head of
    /// the queue — an acquisition of the releasing context or not.
    pub(crate) handover: Option<bool>,
}

/// Where an acquisition stands after one look at its local lock.
pub(crate) enum Turn {
    /// It holds the local lock; with `handed_over` the global lock came with
    /// it.
    Taken {
        /// The predecessor's release handed the global lock over.
        handed_over: bool,
    },
    /// An optimistic look found the lock taken or promised: nothing changed.
    Lost,
    /// It waits, in the queue on a rung that has one, parked on this wait.
    Wait(PendingVerb),
}

impl LockManager {
    /// Take the compute server's local lock on `node`, waiting for it as long
    /// as it takes (each wait a lock step): whether the global lock was
    /// handed over with it.
    pub(crate) async fn take_local<W: Waits>(&self, cx: &W, node: GlobalAddress) -> bool {
        let ticket = self.local_table(cx.ctx().cs_id()).ticket();
        loop {
            let turn = self.turn(&mut cx.ctx(), node, ticket, false);
            match turn {
                Turn::Taken { handed_over } => return handed_over,
                Turn::Wait(wait) => {
                    cx.wait_lock(wait).await;
                }
                Turn::Lost => unreachable!("an acquisition that waits is never lost"),
            }
        }
    }

    /// One look at the local lock on `node` for the acquisition holding
    /// `ticket`: take it, or — unless `once`, an optimistic look — wait for
    /// it.
    pub(crate) fn turn<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        ticket: u64,
        once: bool,
    ) -> Turn {
        let (ms, slot) = (node.ms, self.table().slot_of(node));
        let local = self.local_table(client.cs_id()).lock_for(ms, slot);
        let me = client.id();
        let wait_queue = self.strategy().wait_queue();
        let mut st = local.state.lock();
        // Where this acquisition stands in the queue, if it is in it; how
        // many are ahead of it either way (none without a wait queue, where
        // waiters race).
        let queued_at = st.queue.iter().position(|w| w.ticket == ticket);
        let ahead = queued_at.unwrap_or(st.queue.len());
        if !st.held && ahead == 0 {
            st.held = true;
            st.holder = me;
            if queued_at.is_some() {
                st.queue.pop_front();
            }
            // A grant is only ever made to the head of a queue.
            let handed_over = st.grant.take() == Some(ticket);
            return Turn::Taken { handed_over };
        }
        if once {
            // Taken, or promised to a queued waiter: an optimistic attempt
            // leaves no trace in the queue.
            return Turn::Lost;
        }
        // Wait for the lock.  Local waiting posts no fabric verb, which is
        // precisely how the LLT saves RDMA IOPS.  When the holder and every
        // acquisition queued ahead run on this very context, each of their
        // releases wakes its successor, so the turn comes without polling;
        // otherwise some other thread has to act first: look again later.
        let mine = |id: u64| id == me;
        let woken_in_turn = wait_queue
            && (!st.held || mine(st.holder))
            && st.queue.iter().take(ahead).all(|w| mine(w.client));
        let deadline = (!woken_in_turn).then(|| client.now() + LOCAL_POLL_NS);
        let wait = client.post_wait(deadline);
        match queued_at {
            Some(pos) => st.queue[pos].wait = wait,
            None if wait_queue => st.queue.push_back(Waiter {
                ticket,
                client: me,
                wait,
            }),
            None => {}
        }
        Turn::Wait(wait)
    }

    /// An acquisition of `node` holds its local lock and nothing else, and
    /// is over: release it (nothing to do on a rung without a local layer).
    pub(crate) fn give_up_local<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
    ) {
        if let Some(locked) = self.local_lock(client, node) {
            self.unlock_local(client, locked);
        }
    }

    /// The local lock a release of `node` gives back, with the decision
    /// whether to hand the still-held global lock to the head of its queue
    /// (full HOCL, at most [`MAX_HANDOVER_DEPTH`] times in a row); `None`
    /// on a rung without a local layer.
    pub(crate) fn hand_over<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
    ) -> Option<Locked> {
        let mut locked = self.local_lock(client, node)?;
        let handover = {
            let mut st = locked.local.state.lock();
            match st.queue.front() {
                Some(head)
                    if self.strategy() == LockStrategy::Hocl
                        && st.handover_depth < MAX_HANDOVER_DEPTH =>
                {
                    let (ticket, sibling) = (head.ticket, head.client == client.id());
                    st.handover_depth += 1;
                    st.grant = Some(ticket);
                    Some(sibling)
                }
                _ => {
                    st.handover_depth = 0;
                    None
                }
            }
        };
        locked.handover = handover;
        Some(locked)
    }

    /// This compute server's local lock guarding `node`, on a rung with a
    /// local layer.
    fn local_lock<C: FabricChannel>(
        &self,
        client: &ClientCtx<C>,
        node: GlobalAddress,
    ) -> Option<Locked> {
        self.strategy().local_layer().then(|| {
            let (ms, slot) = (node.ms, self.table().slot_of(node));
            Locked {
                ms,
                slot,
                local: self.local_table(client.cs_id()).lock_for(ms, slot),
                handover: None,
            }
        })
    }

    /// Release the local lock `locked`: the next waiter — handed the global
    /// lock or not — takes it when it looks next, which is now if it runs on
    /// this context.
    pub(crate) fn unlock_local<C: FabricChannel>(&self, client: &mut ClientCtx<C>, locked: Locked) {
        {
            let mut st = locked.local.state.lock();
            st.held = false;
            if let Some(head) = st.queue.front().filter(|w| w.client == client.id()) {
                client.wake(head.wait);
            }
        }
        self.local_table(client.cs_id())
            .retire_if_idle(locked.ms, locked.slot, locked.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{AcquireOutcome, ReleaseOutcome};
    use crate::stepped::{Stepped, RUNGS};
    use sherman_memserver::MemoryPool;
    use sherman_sim::{
        Fabric, FabricBackend, FabricConfig, Parking, SimChannel, SimResult, WriteCmd,
    };
    use std::cell::{Cell, RefCell};
    use std::pin::pin;
    use std::sync::Arc;
    use std::thread;

    fn setup(strategy: LockStrategy) -> (Arc<MemoryPool>, Arc<LockManager>) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mgr = Arc::new(LockManager::new(strategy, &pool));
        (pool, mgr)
    }

    type Cx<'a> = Parking<'a, SimChannel>;

    /// Acquire `node` from a client on the executor.
    async fn acquire(mgr: &LockManager, cx: &Cx<'_>, node: GlobalAddress) -> AcquireOutcome {
        mgr.lock(cx, node, None).await.unwrap().0
    }

    /// Acquire `node` and read 64 bytes of it under the lock.
    async fn acquire_and_read(
        mgr: &LockManager,
        cx: &Cx<'_>,
        node: GlobalAddress,
    ) -> SimResult<(AcquireOutcome, Vec<u8>)> {
        mgr.lock(cx, node, Some(64)).await
    }

    /// Release `node`, writing `writes` back, its last verb acknowledged.
    async fn release(
        mgr: &LockManager,
        cx: &Cx<'_>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
    ) -> ReleaseOutcome {
        mgr.unlock(cx, node, writes, true, true).await.unwrap().0
    }

    /// Spend virtual time on `cx` until `n` acquisitions are queued on the
    /// lock guarding `node` (of compute server 0).
    async fn until_queued(mgr: &LockManager, cx: &Cx<'_>, node: GlobalAddress, n: usize) {
        for _ in 0..1_000 {
            if mgr.queued_waiters(0, node) >= n {
                return;
            }
            cx.cpu(100).await;
        }
        panic!("expected {n} queued waiter(s), they never arrived");
    }

    /// Clients of compute servers `cs`, one per entry.
    fn clients(pool: &MemoryPool, cs: impl IntoIterator<Item = u16>) -> Vec<ClientCtx> {
        cs.into_iter().map(|cs| pool.fabric().client(cs)).collect()
    }

    #[test]
    fn single_thread_acquire_release() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 10 << 10);
        let a = mgr.acquire(&mut client, node).unwrap();
        assert!(!a.handed_over);
        assert_eq!(a.remote_retries, 0);
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(r.released_global);
        // Reacquirable afterwards.
        assert!(!mgr.acquire(&mut client, node).unwrap().handed_over);
        mgr.release(&mut client, node, Vec::new(), true).unwrap();
    }

    #[test]
    fn a_lock_record_lives_only_while_its_lock_is_in_use() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let llt = mgr.local_table(0);
        for i in 0..100u64 {
            let node = GlobalAddress::host(0, (10 + i) << 10);
            mgr.acquire(&mut client, node).unwrap();
            assert_eq!(llt.materialized_locks(), 1);
            mgr.release(&mut client, node, Vec::new(), true).unwrap();
            assert_eq!(llt.materialized_locks(), 0, "an idle lock keeps no record");
        }
    }

    #[test]
    fn provides_mutual_exclusion_across_threads() {
        for strategy in RUNGS {
            let (pool, mgr) = setup(strategy);
            let node = GlobalAddress::host(0, 20 << 10);
            let (inside, entered) = (Cell::new(false), Cell::new(0u64));
            let iterations = 40;
            let mut ctxs = clients(&pool, [0, 1, 0, 1]);
            let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
            sherman_sim::run(cxs.iter().map(|cx| {
                let (mgr, inside, entered) = (&mgr, &inside, &entered);
                let client = async move {
                    for _ in 0..iterations {
                        acquire(mgr, cx, node).await;
                        // Nobody else is inside the section, all through it.
                        assert!(!inside.replace(true), "exclusion violated");
                        entered.set(entered.get() + 1);
                        cx.cpu(100).await;
                        inside.set(false);
                        release(mgr, cx, node, Vec::new()).await;
                    }
                };
                (cx, cx.drive(client))
            }));
            assert_eq!(entered.get(), 4 * iterations, "{strategy:?}");
        }
    }

    #[test]
    fn handover_skips_remote_acquisition() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 30 << 10);
        let handed = Cell::new(0u64);
        // All clients run on the same compute server, so handover applies.
        let mut ctxs = clients(&pool, [0; 4]);
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        sherman_sim::run(cxs.iter().map(|cx| {
            let (mgr, handed) = (&mgr, &handed);
            let client = async move {
                for _ in 0..25 {
                    if acquire(mgr, cx, node).await.handed_over {
                        handed.set(handed.get() + 1);
                    }
                    cx.cpu(500).await;
                    release(mgr, cx, node, Vec::new()).await;
                }
            };
            (cx, cx.drive(client))
        }));
        assert!(
            handed.get() > 0,
            "contended same-CS workload should trigger handovers"
        );
    }

    #[test]
    fn handover_depth_is_bounded() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(1, 40 << 10);
        let outcomes = RefCell::new(Vec::new());
        let mut ctxs = clients(&pool, [0; 3]);
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        sherman_sim::run(cxs.iter().map(|cx| {
            let (mgr, outcomes) = (&mgr, &outcomes);
            let client = async move {
                for _ in 0..30 {
                    acquire(mgr, cx, node).await;
                    cx.cpu(300).await;
                    let r = release(mgr, cx, node, Vec::new()).await;
                    outcomes.borrow_mut().push(r.released_global);
                }
            };
            (cx, cx.drive(client))
        }));
        drop(cxs);
        let outcomes = outcomes.into_inner();
        // At most `MAX_HANDOVER_DEPTH` handovers in a row: at least one remote
        // release per `MAX_HANDOVER_DEPTH + 2` releases, so in particular
        // some remote releases.
        let bound = outcomes.len() / (MAX_HANDOVER_DEPTH as usize + 2);
        assert!(outcomes.iter().filter(|&&g| g).count() >= bound);
        // And the run must end with the global lock actually free: a fresh
        // client can acquire it remotely.
        let mut client = pool.fabric().client(1);
        let a = mgr.acquire(&mut client, node).unwrap();
        assert!(!a.handed_over);
    }

    #[test]
    fn structure_only_options_disable_handover() {
        let (pool, mgr) = setup(LockStrategy::Hierarchical);
        let node = GlobalAddress::host(0, 50 << 10);
        let mut client = pool.fabric().client(0);
        mgr.acquire(&mut client, node).unwrap();
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(r.released_global, "handover disabled: always release");
        assert!(!mgr.strategy().wait_queue());
    }

    #[test]
    fn queued_waiter_acquires_before_later_arrival() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 70 << 10);
        let order = RefCell::new(Vec::new());
        let mut ctxs = clients(&pool, [0; 3]);
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let (mgr, order) = (&*mgr, &order);
        // The holder keeps the lock until both waiters are queued; the second
        // waiter arrives strictly after the first is queued.
        let outcomes = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    acquire(mgr, cx, node).await;
                    until_queued(mgr, cx, node, 2).await;
                    release(mgr, cx, node, Vec::new()).await;
                    return None;
                }
                until_queued(mgr, cx, node, id - 1).await;
                let a = acquire(mgr, cx, node).await;
                order.borrow_mut().push(id);
                cx.cpu(500).await;
                release(mgr, cx, node, Vec::new()).await;
                Some(a)
            };
            (cx, cx.drive(client))
        }));
        // FIFO fairness: the earlier waiter entered the critical section first.
        assert_eq!(*order.borrow(), vec![1, 2]);
        // Both acquisitions were served by handover (no remote round trip).
        let [None, Some(a1), Some(a2)] = outcomes[..] else {
            panic!("{outcomes:?}")
        };
        assert!(a1.handed_over && a2.handed_over);
        assert_eq!(a1.remote_retries + a2.remote_retries, 0);
    }

    #[test]
    fn release_wakes_exactly_one_handover_candidate() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 80 << 10);
        let queued_during_cs = Cell::new(None);
        let mut ctxs = clients(&pool, [0; 3]);
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let (mgr, seen) = (&*mgr, &queued_during_cs);
        let outcomes = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    acquire(mgr, cx, node).await;
                    until_queued(mgr, cx, node, 2).await;
                    // One release with two queued waiters: the global lock is
                    // handed over (not released) ...
                    let r = release(mgr, cx, node, Vec::new()).await;
                    assert!(!r.released_global, "release with waiters should hand over");
                    return true;
                }
                // Waiters are admitted one at a time, so both are queued
                // before the release.
                until_queued(mgr, cx, node, id - 1).await;
                let a = acquire(mgr, cx, node).await;
                // The first waiter to get the lock records how many candidates
                // are still queued: a correct handover wakes exactly one.
                if seen.get().is_none() {
                    seen.set(Some((id, mgr.queued_waiters(0, node))));
                }
                cx.cpu(300).await;
                release(mgr, cx, node, Vec::new()).await;
                a.handed_over
            };
            (cx, cx.drive(client))
        }));
        assert_eq!(outcomes, [true; 3]);
        // ... and exactly one candidate woke: the other was still queued while
        // the first ran its critical section.
        assert_eq!(queued_during_cs.get(), Some((1, 1)));
        // After the last release the global lock really is free: a client on
        // another compute server acquires it remotely without handover.
        let mut other_cs = pool.fabric().client(1);
        let a = mgr.acquire(&mut other_cs, node).unwrap();
        assert!(!a.handed_over);
    }

    #[test]
    fn handed_over_acquire_and_read_is_one_plain_read() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 90 << 10);
        let mut ctxs = clients(&pool, [0; 2]);

        // Not handed over: the READ rides the global CAS's round trip.
        let mut buf = [0u8; 64];
        let before = ctxs[0].stats();
        let a = mgr.acquire_and_read(&mut ctxs[0], node, &mut buf).unwrap();
        assert!(!a.handed_over);
        let d = ctxs[0].stats().delta_since(&before);
        assert_eq!((d.round_trips, d.atomics, d.reads), (1, 1, 1));

        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let mgr = &*mgr;
        let mut outcomes = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    until_queued(mgr, cx, node, 1).await;
                    // The write-back lands with the handover; the waiter must
                    // read it.
                    let write = WriteCmd::new(node, vec![7u8; 64]);
                    let r = release(mgr, cx, node, vec![write]).await;
                    assert!(!r.released_global);
                    return None;
                }
                let (a, image) = acquire_and_read(mgr, cx, node).await.unwrap();
                let stats = cx.ctx().stats();
                release(mgr, cx, node, Vec::new()).await;
                Some((a, image, stats))
            };
            (cx, cx.drive(client))
        }));
        let (a, image, stats) = outcomes.pop().flatten().expect("the waiter's");
        assert!(a.handed_over);
        assert_eq!(image, [7u8; 64]);
        // The global lock came with the handover: no CAS, just the READ.
        assert_eq!((stats.round_trips, stats.atomics, stats.reads), (1, 0, 1));
    }

    /// Real threads on the real clock, every critical section entered through
    /// the combined CAS+READ: the image read under the lock is always the
    /// previous holder's write-back, so no increment is ever lost — on every
    /// rung of the ladder.
    #[test]
    fn acquire_and_read_is_mutually_exclusive_on_threaded_fabric() {
        use sherman_sim::FabricBackend;
        for strategy in RUNGS {
            let fabric = sherman_sim::ThreadedFabric::new(FabricConfig::small_test());
            let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
            let mgr = Arc::new(LockManager::new(strategy, &pool));
            // Far above the chunk a host lock table claims.
            let node = GlobalAddress::host(1, 2 << 20);
            let (threads, iterations) = (4u16, 200u64);
            let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (mgr, fabric, barrier) =
                        (Arc::clone(&mgr), Arc::clone(&fabric), Arc::clone(&barrier));
                    thread::spawn(move || {
                        let mut client = fabric.client(t % 2);
                        barrier.wait();
                        for _ in 0..iterations {
                            let mut buf = [0u8; 8];
                            mgr.acquire_and_read(&mut client, node, &mut buf).unwrap();
                            let next = u64::from_le_bytes(buf) + 1;
                            let write = WriteCmd::new(node, next.to_le_bytes().to_vec());
                            mgr.release(&mut client, node, vec![write], true).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let count = fabric.god_read_u64(node).unwrap();
            assert_eq!(count, threads as u64 * iterations, "{strategy:?}");
        }
    }

    #[test]
    fn a_failed_attempt_leaves_the_local_lock_free() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        // The READ of the combined attempt leaves the region: the attempt is
        // rejected after the local lock was taken.
        let end = pool.fabric().config().host_bytes_per_ms as u64;
        let node = GlobalAddress::host(0, end - 8);
        let mut buf = [0u8; 64];
        assert!(mgr.acquire_and_read(&mut client, node, &mut buf).is_err());
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);
        // The same slot is acquirable again, locally and globally, by this
        // client and by another compute server.
        assert_eq!(mgr.acquire(&mut client, node).unwrap().remote_retries, 0);
        mgr.release(&mut client, node, Vec::new(), true).unwrap();
        let mut other = pool.fabric().client(1);
        assert_eq!(mgr.acquire(&mut other, node).unwrap().remote_retries, 0);
        mgr.release(&mut other, node, Vec::new(), true).unwrap();

        // A handed-over waiter whose READ is rejected passes the lock on.
        mgr.acquire(&mut client, node).unwrap();
        let mut ctxs = [client, pool.fabric().client(0)];
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let mgr = &*mgr;
        let failed = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    until_queued(mgr, cx, node, 1).await;
                    let r = release(mgr, cx, node, Vec::new()).await;
                    assert!(!r.released_global, "the waiter is handed the lock");
                    return false;
                }
                acquire_and_read(mgr, cx, node).await.is_err()
            };
            (cx, cx.drive(client))
        }));
        assert_eq!(failed, [false, true], "the waiter's read is out of bounds");
        let mut other = pool.fabric().client(1);
        assert!(!mgr.acquire(&mut other, node).unwrap().handed_over);
    }

    #[test]
    fn operations_of_one_context_queue_park_and_hand_over() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let node = GlobalAddress::host(0, 100 << 10);
        let lock = || mgr.lock(&cx, node, Some(64));
        let (mut a, mut b, mut c) = (pin!(lock()), pin!(lock()), pin!(lock()));

        // A takes the local lock and posts the global attempt; B and C find
        // it held by their own context and park until woken — no timer.
        let ta = cx.step(a.as_mut(), None);
        let ta = ta.expect_err("the first acquisition posts its attempt");
        let tb = cx
            .step(b.as_mut(), None)
            .expect_err("a sibling holds the lock");
        let tc = cx
            .step(c.as_mut(), None)
            .expect_err("a sibling holds the lock");
        assert_eq!(mgr.queued_waiters(0, node), 2);
        assert_eq!(cx.ctx().completes_at(tb), u64::MAX);
        assert_eq!(cx.ctx().completes_at(tc), u64::MAX);
        assert_eq!(cx.ctx().stats().round_trips, 1, "parking posts no verb");

        let (outcome, _) = cx.step(a, Some(ta)).expect("the lock is free").unwrap();
        assert!(!outcome.handed_over);

        // A's release hands the global lock to B and wakes it — and only it.
        let write = WriteCmd::new(node, vec![7u8; 64]);
        let r = mgr.release(&mut cx.ctx(), node, vec![write], true).unwrap();
        assert!(!r.released_global);
        let now = cx.ctx().now();
        assert_eq!(cx.ctx().completes_at(tb), now);
        assert_eq!(cx.ctx().completes_at(tc), u64::MAX);

        // B skips the CAS: one plain READ of what A wrote back.
        let before = cx.ctx().stats();
        let read = cx.step(b.as_mut(), Some(tb));
        let read = read.expect_err("a handed-over acquisition posts its read");
        let done = cx
            .step(b, Some(read))
            .expect("the read completes the acquisition");
        let (outcome, image) = done.unwrap();
        assert!(outcome.handed_over);
        assert_eq!((outcome.remote_retries, image), (0, vec![7u8; 64]));
        let d = cx.ctx().stats().delta_since(&before);
        assert_eq!((d.round_trips, d.atomics, d.reads), (1, 0, 1));

        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
        let now = cx.ctx().now();
        assert_eq!(cx.ctx().completes_at(tc), now);
        assert!(cx.step(c, Some(tc)).is_err(), "C posts its read");
    }

    #[test]
    fn a_waiter_behind_another_thread_polls_instead_of_parking() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 110 << 10);
        let mut ctxs = clients(&pool, [0; 2]);
        mgr.acquire(&mut ctxs[0], node).unwrap();
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let mgr = &*mgr;
        // Another context of the same compute server: nobody on it will ever
        // wake the waiter, so it looks again after the poll interval.
        let outcomes = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    cx.drive(until_queued(mgr, cx, node, 1)).await;
                    cx.drive(release(mgr, cx, node, Vec::new())).await;
                    return None;
                }
                let mut acq = pin!(acquire(mgr, cx, node));
                let wait = cx.poll(acq.as_mut()).expect_err("the lock is held").token();
                let deadline = cx.ctx().completes_at(wait);
                assert_eq!(deadline, cx.ctx().now() + LOCAL_POLL_NS);
                let polled = cx.complete(wait).await;
                cx.resume(polled);
                Some(cx.drive(acq).await)
            };
            (cx, client)
        }));
        assert!(outcomes[1].expect("the waiter's").handed_over);
    }

    #[test]
    fn an_optimistic_attempt_never_queues_and_never_reposts() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let node = GlobalAddress::host(0, 120 << 10);
        pool.fabric().god_write(node, &[5u8; 64]).unwrap();
        let try_lock = || mgr.try_lock(&cx, node, Some(64)).unwrap();

        // Free: one CAS+READ round trip, like any other acquisition.
        let mut attempt = pin!(try_lock().expect("the attempt is posted"));
        let token = cx
            .step(attempt.as_mut(), None)
            .expect_err("it waits for its round trip");
        let image = cx.step(attempt, Some(token)).unwrap();
        assert_eq!(image, Some(vec![5u8; 64]), "the lock was free");
        let s = cx.ctx().stats();
        assert_eq!((s.round_trips, s.retries), (1, 0));

        // Held by a sibling operation of this context: lost on the spot — no
        // verb, no wait, no place in the queue.
        let before = cx.ctx().stats();
        assert!(try_lock().is_none());
        assert_eq!(cx.ctx().stats(), before);
        assert_eq!(cx.ctx().outstanding(), 0);
        assert_eq!(mgr.queued_waiters(0, node), 0);
        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);

        // Held by another compute server: the one global attempt is lost,
        // counted, and the local lock given back.
        let mut other = pool.fabric().client(1);
        mgr.acquire(&mut other, node).unwrap();
        let posted = try_lock().expect("the local lock is free: the global attempt is posted");
        let mut attempt = pin!(posted);
        let token = cx
            .step(attempt.as_mut(), None)
            .expect_err("it waits for its round trip");
        assert_eq!(cx.step(attempt, Some(token)), Ok(None));
        assert_eq!(cx.ctx().stats().retries, 1);
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);
        mgr.release(&mut other, node, Vec::new(), true).unwrap();
        drop(other);
        assert_eq!(mgr.acquire(&mut cx.ctx(), node).unwrap().remote_retries, 0);
    }

    #[test]
    fn a_chain_of_handovers_ends_after_max_handover_depth() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let node = GlobalAddress::host(0, 130 << 10);
        let n = MAX_HANDOVER_DEPTH as usize + 2;
        let mut acqs: Vec<_> = (0..n)
            .map(|_| Box::pin(mgr.lock(&cx, node, None)))
            .collect();
        let mut waits = Vec::new();
        for acq in &mut acqs {
            let posted = cx.step(acq.as_mut(), None);
            waits.push(Some(
                posted.expect_err("the first posts its attempt, the others queue"),
            ));
        }
        let mut released = Vec::new();
        for (acq, wait) in acqs.iter_mut().zip(&mut waits) {
            let (outcome, _) = cx.finish(acq.as_mut(), wait.take()).unwrap();
            assert_eq!(outcome.handed_over, released.last() == Some(&false));
            let r = mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
            released.push(r.released_global);
        }
        // `MAX_HANDOVER_DEPTH` handovers in a row, then the global lock goes
        // back; the last release finds nobody queued.
        let mut expected = vec![false; MAX_HANDOVER_DEPTH as usize];
        expected.extend([true, true]);
        assert_eq!(released, expected);
    }

    #[test]
    fn a_waiter_that_looks_again_is_woken_on_its_new_wait() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 160 << 10);
        let mut other = pool.fabric().client(0);
        mgr.acquire(&mut other, node).unwrap();
        // Two operations of one context queue behind another thread's holder:
        // both poll.
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let (mut c, mut b) = (
            pin!(mgr.lock(&cx, node, None)),
            pin!(mgr.lock(&cx, node, None)),
        );
        let tc = cx.step(c.as_mut(), None).expect_err("the lock is held");
        let tb = cx.step(b.as_mut(), None).expect_err("the lock is held");
        assert_ne!(cx.ctx().completes_at(tb), u64::MAX);
        // Handed the lock, C takes it when it looks; B, looking again, now
        // waits behind its own context only and parks on a new wait.
        mgr.release(&mut other, node, Vec::new(), true).unwrap();
        assert!(cx.finish(c, Some(tc)).unwrap().0.handed_over);
        let tb = cx.step(b.as_mut(), Some(tb)).expect_err("C holds the lock");
        assert_eq!(cx.ctx().completes_at(tb), u64::MAX);
        // C's release wakes that wait.
        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
        let now = cx.ctx().now();
        assert_eq!(cx.ctx().completes_at(tb), now);
        assert!(cx.finish(b, Some(tb)).unwrap().0.handed_over);
        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
    }

    #[test]
    fn racing_waiters_take_no_place_in_a_queue() {
        let (pool, mgr) = setup(LockStrategy::Hierarchical);
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let node = GlobalAddress::host(0, 140 << 10);
        mgr.acquire(&mut cx.ctx(), node).unwrap();
        let mut acq = pin!(mgr.lock(&cx, node, None));
        let wait = cx.step(acq.as_mut(), None).expect_err("the lock is held");
        // No queue to stand in: the waiter looks again after the interval.
        assert_eq!(mgr.queued_waiters(0, node), 0);
        let now = cx.ctx().now();
        assert_eq!(cx.ctx().completes_at(wait), now + LOCAL_POLL_NS);
        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
        let (outcome, _) = cx.finish(acq, Some(wait)).unwrap();
        assert_eq!((outcome.handed_over, outcome.remote_retries), (false, 0));
        mgr.release(&mut cx.ctx(), node, Vec::new(), true).unwrap();
    }

    #[test]
    fn a_handover_to_another_thread_waits_for_the_write_back() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 150 << 10);
        let mut ctxs = clients(&pool, [0; 2]);
        mgr.acquire(&mut ctxs[0], node).unwrap();
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let mgr = &*mgr;
        let mut outcomes = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let client = async move {
                if id == 0 {
                    until_queued(mgr, cx, node, 1).await;
                    // Asked to leave the final verb in flight, the release
                    // still waits for it: the waiter reads the node the
                    // moment it has the lock.
                    let write = WriteCmd::new(node, vec![9u8; 64]);
                    let (r, last) = mgr.unlock(cx, node, vec![write], true, false).await.unwrap();
                    assert!(!r.released_global);
                    assert!(last.is_none(), "the write-back was acknowledged");
                    assert_eq!(cx.ctx().outstanding(), 0);
                    return None;
                }
                let acquired = acquire_and_read(mgr, cx, node).await.unwrap();
                release(mgr, cx, node, Vec::new()).await;
                Some(acquired)
            };
            (cx, cx.drive(client))
        }));
        let (a, image) = outcomes.pop().flatten().expect("the waiter's");
        assert!(a.handed_over);
        assert_eq!(image, [9u8; 64]);
    }

    #[test]
    fn a_handed_over_acquisition_whose_read_fails_passes_the_lock_on() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let end = pool.fabric().config().host_bytes_per_ms as u64;
        let node = GlobalAddress::host(0, end - 8);
        let mut ctxs = clients(&pool, [0; 2]);
        mgr.acquire(&mut ctxs[0], node).unwrap();
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let failed = sherman_sim::run(cxs.iter().enumerate().map(|(id, cx)| {
            let mgr = &*mgr;
            let client = async move {
                if id == 0 {
                    until_queued(mgr, cx, node, 1).await;
                    let r = release(mgr, cx, node, Vec::new()).await;
                    assert!(!r.released_global, "the waiter is handed the lock");
                    return false;
                }
                acquire_and_read(mgr, cx, node).await.is_err()
            };
            (cx, cx.drive(client))
        }));
        assert_eq!(failed, [false, true], "the waiter's read is out of bounds");
        // One attempt from another compute server wins: the lock is free.
        let loc = mgr.table().location_of(node);
        let mut other = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut other, loc, 1));
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);
    }

    #[test]
    fn local_waiters_do_not_issue_remote_retries() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 60 << 10);
        let mut ctxs = clients(&pool, [0; 3]);
        let cxs: Vec<_> = ctxs.iter_mut().map(Parking::new).collect();
        let retries = sherman_sim::run(cxs.iter().map(|cx| {
            let mgr = &*mgr;
            let client = async move {
                let mut retries = 0;
                for _ in 0..20 {
                    retries += acquire(mgr, cx, node).await.remote_retries;
                    cx.cpu(1_000).await;
                    release(mgr, cx, node, Vec::new()).await;
                }
                retries
            };
            (cx, cx.drive(client))
        }));
        let total_retries: u64 = retries.into_iter().sum();
        // Same-CS clients queue locally; the remote lock is observed free (or
        // handed over), so remote CAS retries stay negligible.
        assert!(
            total_retries <= 3,
            "expected almost no remote retries, got {total_retries}"
        );
    }
}
