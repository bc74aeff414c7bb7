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
//! An *optimistic* acquisition ([`Acquisition::try_once`]) does none of this
//! waiting: a local lock that is held, or promised to a queued waiter, is lost
//! on the spot without a verb, and a global attempt that loses gives the
//! local lock back instead of spinning — so several may be in flight at once,
//! in any order, and nothing is ever waited for (the structural-delete path
//! tries its three locks this way before it falls back to rank order).

use crate::manager::{AcquireState, AcquireStep, Acquisition};
use crate::{LockManager, LockStrategy};
use parking_lot::Mutex;
use sherman_sim::{ClientCtx, FabricChannel, GlobalAddress, PendingVerb, SimResult};
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

impl LockManager {
    /// Take the compute server's local lock for `acq`, or wait for it.
    pub(crate) fn take_local<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
    ) -> SimResult<AcquireStep> {
        let (ms, slot) = (acq.node.ms, self.table().slot_of(acq.node));
        let llt = self.local_table(client.cs_id());
        let local = llt.lock_for(ms, slot);
        let ticket = match acq.state {
            AcquireState::Queued { ticket } => ticket,
            _ => llt.tickets.fetch_add(1, Ordering::Relaxed),
        };
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
            drop(st);
            // A record is retired by the last handle to it: hold none on.
            drop(local);
            return match handed_over {
                true => self.post_handed_over(client, acq),
                false => self.post_global(client, acq),
            };
        }
        if acq.once {
            // Taken, or promised to a queued waiter: an optimistic attempt
            // leaves no trace in the queue.
            return Ok(AcquireStep::Lost);
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
        acq.state = AcquireState::Queued { ticket };
        Ok(AcquireStep::Pending(wait))
    }

    /// `acq` holds its local lock and nothing else, and is over: release it
    /// (nothing to do on a rung without a local layer).
    pub(crate) fn give_up_local<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &Acquisition,
    ) {
        if let Some(locked) = self.local_lock(client, acq.node) {
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
    use sherman_memserver::MemoryPool;
    use sherman_sim::{Fabric, FabricBackend, FabricConfig, WriteCmd};
    use std::sync::Arc;
    use std::thread;

    fn setup(strategy: LockStrategy) -> (Arc<MemoryPool>, Arc<LockManager>) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mgr = Arc::new(LockManager::new(strategy, &pool));
        (pool, mgr)
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

    /// Every rung of the ladder, local layer or not.
    const RUNGS: [LockStrategy; 6] = [
        LockStrategy::HostCasFaa,
        LockStrategy::HostCasWrite,
        LockStrategy::OnChip,
        LockStrategy::Hierarchical,
        LockStrategy::WaitQueue,
        LockStrategy::Hocl,
    ];

    #[test]
    fn provides_mutual_exclusion_across_threads() {
        for strategy in RUNGS {
            let (pool, mgr) = setup(strategy);
            let node = GlobalAddress::host(0, 20 << 10);
            let counter = Arc::new(Mutex::new(0u64));
            let iterations = 40;
            let mut handles = Vec::new();
            for t in 0..4u16 {
                let pool = Arc::clone(&pool);
                let mgr = Arc::clone(&mgr);
                let counter = Arc::clone(&counter);
                handles.push(thread::spawn(move || {
                    let mut client = pool.fabric().client(t % 2);
                    for _ in 0..iterations {
                        mgr.acquire(&mut client, node).unwrap();
                        {
                            // Check exclusion: nobody else is inside the section.
                            let mut guard = counter.try_lock().expect("exclusion violated");
                            *guard += 1;
                        }
                        // Spend some virtual time inside the critical section.
                        client.charge_cpu(100);
                        mgr.release(&mut client, node, Vec::new(), true).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock(), 4 * iterations, "{strategy:?}");
        }
    }

    #[test]
    fn handover_skips_remote_acquisition() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 30 << 10);
        let handed = Arc::new(Mutex::new(0u64));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        // All threads run on the same compute server, so handover applies.
        for _ in 0..4u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let handed = Arc::clone(&handed);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                // Ensure every worker has registered before contending, so the
                // critical sections genuinely overlap.
                barrier.wait();
                for _ in 0..25 {
                    let a = mgr.acquire(&mut client, node).unwrap();
                    if a.handed_over {
                        *handed.lock() += 1;
                    }
                    client.charge_cpu(500);
                    mgr.release(&mut client, node, Vec::new(), true).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            *handed.lock() > 0,
            "contended same-CS workload should trigger handovers"
        );
    }

    #[test]
    fn handover_depth_is_bounded() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(1, 40 << 10);
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..3u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let outcomes = Arc::clone(&outcomes);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                for _ in 0..30 {
                    mgr.acquire(&mut client, node).unwrap();
                    client.charge_cpu(300);
                    let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
                    outcomes.lock().push(r.released_global);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let outcomes = outcomes.lock();
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

    /// Pump virtual time from `client` until `n` waiters are queued on the
    /// lock guarding `node`, panicking (rather than hanging) if they never
    /// show.  The bound is real time: a waiter's thread may not have been
    /// scheduled yet on a loaded machine, however far virtual time went.
    fn pump_until_queued(mgr: &LockManager, client: &mut ClientCtx, node: GlobalAddress, n: usize) {
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while mgr.queued_waiters(0, node) < n {
            assert!(
                std::time::Instant::now() < give_up,
                "expected {n} queued waiter(s), they never arrived"
            );
            client.charge_cpu(100);
            thread::yield_now();
        }
    }

    #[test]
    fn queued_waiter_acquires_before_later_arrival() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 70 << 10);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut main_client = pool.fabric().client(0);
        mgr.acquire(&mut main_client, node).unwrap();

        // First waiter arrives and queues behind the held lock.
        let h1 = {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let a = mgr.acquire(&mut client, node).unwrap();
                order.lock().push(1u32);
                client.charge_cpu(500);
                mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            })
        };
        // Pump virtual time (the waiter polls on the virtual clock) until the
        // first waiter is visibly queued, so the arrival order is fixed.
        pump_until_queued(&mgr, &mut main_client, node, 1);

        // Second waiter arrives strictly later.
        let h2 = {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let a = mgr.acquire(&mut client, node).unwrap();
                order.lock().push(2u32);
                mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            })
        };
        pump_until_queued(&mgr, &mut main_client, node, 2);

        mgr.release(&mut main_client, node, Vec::new(), true).unwrap();
        drop(main_client); // deregister so the waiters can drive the clock alone
        let a1 = h1.join().unwrap();
        let a2 = h2.join().unwrap();
        // FIFO fairness: the earlier waiter entered the critical section first.
        assert_eq!(*order.lock(), vec![1, 2]);
        // Both acquisitions were served by handover (no remote round trip).
        assert!(a1.handed_over && a2.handed_over);
        assert_eq!(a1.remote_retries + a2.remote_retries, 0);
    }

    #[test]
    fn release_wakes_exactly_one_handover_candidate() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 80 << 10);
        let mut main_client = pool.fabric().client(0);
        mgr.acquire(&mut main_client, node).unwrap();

        let queued_during_cs = Arc::new(Mutex::new(None));
        let mut handles = Vec::new();
        for id in 1..=2u32 {
            let worker_pool = Arc::clone(&pool);
            let worker_mgr = Arc::clone(&mgr);
            let worker_seen = Arc::clone(&queued_during_cs);
            handles.push(thread::spawn(move || {
                let mut client = worker_pool.fabric().client(0);
                let a = worker_mgr.acquire(&mut client, node).unwrap();
                // The first waiter to get the lock records how many candidates
                // are still queued: a correct handover wakes exactly one.
                let mut seen = worker_seen.lock();
                if seen.is_none() {
                    *seen = Some((id, worker_mgr.queued_waiters(0, node)));
                }
                drop(seen);
                client.charge_cpu(300);
                worker_mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            }));
            // Admit waiters one at a time so both are queued before release.
            pump_until_queued(&mgr, &mut main_client, node, id as usize);
        }

        // One release with two queued waiters: the global lock is handed over
        // (not released) ...
        let r = mgr.release(&mut main_client, node, Vec::new(), true).unwrap();
        assert!(!r.released_global, "release with waiters should hand over");
        drop(main_client);
        for h in handles {
            assert!(h.join().unwrap().handed_over);
        }
        // ... and exactly one candidate woke: the other was still queued while
        // the first ran its critical section.
        assert_eq!(*queued_during_cs.lock(), Some((1, 1)));
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
        let mut main_client = pool.fabric().client(0);

        // Not handed over: the READ rides the global CAS's round trip.
        let mut buf = [0u8; 64];
        let before = main_client.stats();
        let a = mgr.acquire_and_read(&mut main_client, node, &mut buf).unwrap();
        assert!(!a.handed_over);
        let d = main_client.stats().delta_since(&before);
        assert_eq!((d.round_trips, d.atomics, d.reads), (1, 1, 1));

        let waiter = {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let mut buf = [0u8; 64];
                let a = mgr.acquire_and_read(&mut client, node, &mut buf).unwrap();
                let stats = client.stats();
                mgr.release(&mut client, node, Vec::new(), true).unwrap();
                (a, buf, stats)
            })
        };
        pump_until_queued(&mgr, &mut main_client, node, 1);
        // The write-back lands with the handover; the waiter must read it.
        let r = mgr
            .release(&mut main_client, node, vec![WriteCmd::new(node, vec![7u8; 64])], true)
            .unwrap();
        assert!(!r.released_global);
        drop(main_client);

        let (a, buf, stats) = waiter.join().unwrap();
        assert!(a.handed_over);
        assert_eq!(buf, [7u8; 64]);
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
        drop(other); // only blocked or running participants may stay registered

        // A handed-over waiter whose READ is rejected passes the lock on.
        mgr.acquire(&mut client, node).unwrap();
        let waiter = {
            let (pool, mgr) = (Arc::clone(&pool), Arc::clone(&mgr));
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let mut buf = [0u8; 64];
                mgr.acquire_and_read(&mut client, node, &mut buf).is_err()
            })
        };
        pump_until_queued(&mgr, &mut client, node, 1);
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(!r.released_global, "the waiter is handed the lock");
        drop(client);
        assert!(waiter.join().unwrap(), "its read is out of bounds");
        let mut other = pool.fabric().client(1);
        assert!(!mgr.acquire(&mut other, node).unwrap().handed_over);
    }

    /// Step `acq` once on `client`, feeding it the completion of `pending`.
    fn step(
        mgr: &LockManager,
        client: &mut ClientCtx,
        acq: &mut Acquisition,
        pending: Option<PendingVerb>,
    ) -> AcquireStep {
        let completion = pending.map(|token| client.poll_token(token));
        mgr.step_acquire(client, acq, completion).unwrap()
    }

    #[test]
    fn operations_of_one_context_queue_park_and_hand_over() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 100 << 10);
        let new = || Acquisition::new(node, Some(64));
        let (mut a, mut b, mut c) = (new(), new(), new());

        // A takes the local lock and posts the global attempt; B and C find
        // it held by their own context and park until woken — no timer.
        let AcquireStep::Pending(ta) = step(&mgr, &mut client, &mut a, None) else {
            panic!("the first acquisition posts its attempt");
        };
        let AcquireStep::Pending(tb) = step(&mgr, &mut client, &mut b, None) else {
            panic!("a sibling holds the lock");
        };
        let AcquireStep::Pending(tc) = step(&mgr, &mut client, &mut c, None) else {
            panic!("a sibling holds the lock");
        };
        assert_eq!(mgr.queued_waiters(0, node), 2);
        assert_eq!(client.completes_at(tb), u64::MAX);
        assert_eq!(client.completes_at(tc), u64::MAX);
        assert_eq!(client.stats().round_trips, 1, "parking posts no verb");

        let AcquireStep::Done { outcome, .. } = step(&mgr, &mut client, &mut a, Some(ta)) else {
            panic!("the lock is free");
        };
        assert!(!outcome.handed_over);

        // A's release hands the global lock to B and wakes it — and only it.
        let write = WriteCmd::new(node, vec![7u8; 64]);
        let r = mgr.release(&mut client, node, vec![write], true).unwrap();
        assert!(!r.released_global);
        assert_eq!(client.completes_at(tb), client.now());
        assert_eq!(client.completes_at(tc), u64::MAX);

        // B skips the CAS: one plain READ of what A wrote back.
        let before = client.stats();
        let AcquireStep::Pending(read) = step(&mgr, &mut client, &mut b, Some(tb)) else {
            panic!("a handed-over acquisition posts its read");
        };
        let AcquireStep::Done { outcome, image } = step(&mgr, &mut client, &mut b, Some(read))
        else {
            panic!("the read completes the acquisition");
        };
        assert!(outcome.handed_over);
        assert_eq!((outcome.remote_retries, image), (0, vec![7u8; 64]));
        let d = client.stats().delta_since(&before);
        assert_eq!((d.round_trips, d.atomics, d.reads), (1, 0, 1));

        mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert_eq!(client.completes_at(tc), client.now());
        assert!(matches!(
            step(&mgr, &mut client, &mut c, Some(tc)),
            AcquireStep::Pending(_)
        ));
    }

    #[test]
    fn a_waiter_behind_another_thread_polls_instead_of_parking() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut holder = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 110 << 10);
        mgr.acquire(&mut holder, node).unwrap();

        // Another context of the same compute server: nobody on it will ever
        // wake the waiter, so it looks again after the poll interval.
        let waiter = {
            let (pool, mgr) = (Arc::clone(&pool), Arc::clone(&mgr));
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let mut acq = Acquisition::new(node, None);
                let AcquireStep::Pending(wait) = step(&mgr, &mut client, &mut acq, None) else {
                    panic!("the lock is held");
                };
                let deadline = client.completes_at(wait);
                assert_eq!(deadline, client.now() + LOCAL_POLL_NS);
                let mut pending = Some(wait);
                loop {
                    match step(&mgr, &mut client, &mut acq, pending.take()) {
                        AcquireStep::Pending(token) => pending = Some(token),
                        AcquireStep::Done { outcome, .. } => break outcome,
                        AcquireStep::Lost => panic!("a queued acquisition waits"),
                    }
                }
            })
        };
        pump_until_queued(&mgr, &mut holder, node, 1);
        mgr.release(&mut holder, node, Vec::new(), true).unwrap();
        drop(holder);
        assert!(waiter.join().unwrap().handed_over);
    }

    #[test]
    fn an_optimistic_attempt_never_queues_and_never_reposts() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let mut client = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 120 << 10);
        pool.fabric().god_write(node, &[5u8; 64]).unwrap();
        let try_once = || Acquisition::try_once(node, Some(64));

        // Free: one CAS+READ round trip, like any other acquisition.
        let mut acq = try_once();
        let AcquireStep::Pending(token) = step(&mgr, &mut client, &mut acq, None) else {
            panic!("the attempt is posted");
        };
        let AcquireStep::Done { outcome, image } = step(&mgr, &mut client, &mut acq, Some(token))
        else {
            panic!("the lock was free");
        };
        assert_eq!((outcome.remote_retries, outcome.handed_over), (0, false));
        assert_eq!(image, vec![5u8; 64]);

        // Held by a sibling operation of this context: lost on the spot — no
        // verb, no wait, no place in the queue.
        let before = client.stats();
        assert!(matches!(step(&mgr, &mut client, &mut try_once(), None), AcquireStep::Lost));
        assert_eq!(client.stats(), before);
        assert_eq!(client.outstanding(), 0);
        assert_eq!(mgr.queued_waiters(0, node), 0);
        mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);

        // Held by another compute server: the one global attempt is lost,
        // counted, and the local lock given back.
        let mut other = pool.fabric().client(1);
        mgr.acquire(&mut other, node).unwrap();
        let mut acq = try_once();
        let AcquireStep::Pending(token) = step(&mgr, &mut client, &mut acq, None) else {
            panic!("the local lock is free: the global attempt is posted");
        };
        assert!(matches!(step(&mgr, &mut client, &mut acq, Some(token)), AcquireStep::Lost));
        assert_eq!((acq.retries(), client.stats().retries), (1, 1));
        assert_eq!(mgr.local_table(0).materialized_locks(), 0);
        mgr.release(&mut other, node, Vec::new(), true).unwrap();
        drop(other);
        assert_eq!(mgr.acquire(&mut client, node).unwrap().remote_retries, 0);
    }

    #[test]
    fn local_waiters_do_not_issue_remote_retries() {
        let (pool, mgr) = setup(LockStrategy::Hocl);
        let node = GlobalAddress::host(0, 60 << 10);
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..3u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                barrier.wait();
                let mut retries = 0;
                for _ in 0..20 {
                    let a = mgr.acquire(&mut client, node).unwrap();
                    retries += a.remote_retries;
                    client.charge_cpu(1_000);
                    mgr.release(&mut client, node, Vec::new(), true).unwrap();
                }
                retries
            }));
        }
        let total_retries: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Same-CS threads queue locally; the remote lock is observed free (or
        // handed over), so remote CAS retries stay negligible.
        assert!(
            total_retries <= 3,
            "expected almost no remote retries, got {total_retries}"
        );
    }
}
