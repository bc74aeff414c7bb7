//! HOCL — the hierarchical on-chip lock (§4.3, Figure 6).
//!
//! HOCL has two layers.  The *global lock tables* (GLT) live in the on-chip
//! memory of each memory server's NIC and are acquired with masked `RDMA_CAS`.
//! The *local lock tables* (LLT), one per compute server, coordinate the
//! threads of that server: a thread must hold the local lock before it may
//! attempt the remote acquisition, so conflicting threads of the same compute
//! server queue locally instead of hammering the NIC with failed `RDMA_CAS`
//! retries.  Each local lock carries a FIFO wait queue (first-come-first-served
//! fairness) and supports *handover*: on release, if local threads are
//! waiting, the global lock is passed to the head of the queue without a
//! remote round trip, bounded by [`MAX_HANDOVER_DEPTH`] consecutive handovers
//! so that other compute servers are not starved.
//!
//! The paper queues conflicting threads *and coroutines*; here the coroutines
//! are the operations a pipelined client multiplexes on one fabric context.
//! Nobody ever blocks on a local lock: a waiter posts a *wait* on its
//! context's completion queue (`ClientCtx::post_wait`) and yields.  A waiter
//! whose turn can only come through releases of its own context — the holder
//! and everyone queued ahead are sibling operations — parks without a
//! deadline and is woken by the release that makes it the head; any other
//! waiter re-checks every `poll_interval_ns`, because a thread cannot wake
//! another thread's context.
//!
//! An *optimistic* acquisition ([`Acquisition::try_once`]) does none of this
//! waiting: a local lock that is held, or promised to a queued waiter, is lost
//! on the spot without a verb, and a global attempt that loses gives the
//! local lock back instead of spinning — so several may be in flight at once,
//! in any order, and nothing is ever waited for (the structural-delete path
//! tries its three locks this way before it falls back to rank order).

use crate::global::GlobalLockTable;
use crate::manager::{
    flush_writes_and_release, AcquireState, AcquireStep, Acquisition, LockOrder, NodeLockManager,
    ReleaseOutcome,
};
use parking_lot::Mutex;
use sherman_sim::{
    ClientCtx, Completion, FabricChannel, GlobalAddress, PendingVerb, SimResult, WriteCmd,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum number of consecutive local handovers before the global lock must
/// be released so that other compute servers get a chance (the paper uses 4).
pub const MAX_HANDOVER_DEPTH: u32 = 4;

/// Tunable behaviour of the hierarchical lock, used to reproduce the Figure 16
/// ladder (hierarchical structure → wait queue → handover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoclOptions {
    /// Queue local waiters FIFO instead of letting them race on the local lock.
    pub use_wait_queue: bool,
    /// Hand the global lock to the next local waiter on release.
    pub use_handover: bool,
    /// Maximum number of consecutive handovers.
    pub max_handover_depth: u32,
    /// Virtual time between local polls while waiting for the local lock.
    pub poll_interval_ns: u64,
}

impl Default for HoclOptions {
    fn default() -> Self {
        HoclOptions {
            use_wait_queue: true,
            use_handover: true,
            max_handover_depth: MAX_HANDOVER_DEPTH,
            poll_interval_ns: 200,
        }
    }
}

impl HoclOptions {
    /// Hierarchical structure only: local locks exist but waiters race
    /// (no FIFO queue) and no handover is performed.
    pub fn structure_only() -> Self {
        HoclOptions {
            use_wait_queue: false,
            use_handover: false,
            ..HoclOptions::default()
        }
    }

    /// Hierarchical structure with FIFO wait queues but no handover.
    pub fn with_wait_queue() -> Self {
        HoclOptions {
            use_wait_queue: true,
            use_handover: false,
            ..HoclOptions::default()
        }
    }
}

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

impl LocalLockState {
    /// Wake the head of the queue if it runs on `client`'s context.
    fn wake_head<C: FabricChannel>(&self, client: &mut ClientCtx<C>) {
        if let Some(head) = self.queue.front().filter(|w| w.client == client.id()) {
            client.wake(head.wait);
        }
    }
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
/// exists only while its lock is in use — created by the first thread that
/// wants the lock, dropped by the last one that releases it — so the table
/// is as large as the set of locks held or waited for, not as the set of
/// nodes ever written.
#[derive(Debug)]
pub struct LocalLockTable {
    shards: Vec<LockShard>,
    tickets: AtomicU64,
}

impl Default for LocalLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalLockTable {
    /// Create an empty local lock table.
    pub fn new() -> Self {
        const SHARDS: usize = 64;
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(HashMap::new()));
        LocalLockTable {
            shards,
            tickets: AtomicU64::new(0),
        }
    }

    fn new_ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_for(&self, ms: u16, slot: u64) -> Arc<LocalLock> {
        let shard = &self.shards[(slot as usize ^ ms as usize) % self.shards.len()];
        let mut map = shard.lock();
        Arc::clone(map.entry((ms, slot)).or_default())
    }

    /// Drop the record of `(ms, slot)` if `local`, the caller's handle to it,
    /// is the last one and the lock is idle (an idle record is the default
    /// record, which the next `lock_for` recreates).
    fn retire_if_idle(&self, ms: u16, slot: u64, local: Arc<LocalLock>) {
        let shard = &self.shards[(slot as usize ^ ms as usize) % self.shards.len()];
        let mut map = shard.lock();
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

    /// Number of threads currently queued on the local lock for `(ms, slot)`
    /// (observability/tests).  Does not materialize a lock record.
    pub fn queued_waiters(&self, ms: u16, slot: u64) -> usize {
        let shard = &self.shards[(slot as usize ^ ms as usize) % self.shards.len()];
        let map = shard.lock();
        map.get(&(ms, slot))
            .map_or(0, |lock| lock.state.lock().queue.len())
    }
}

/// The hierarchical on-chip lock manager.
#[derive(Debug)]
pub struct HoclManager {
    glt: GlobalLockTable,
    llts: Vec<LocalLockTable>,
    options: HoclOptions,
}

impl HoclManager {
    /// Build a HOCL manager over `glt` for a cluster with `compute_servers`
    /// compute servers.
    pub fn new(glt: GlobalLockTable, compute_servers: usize, options: HoclOptions) -> Self {
        let mut llts = Vec::with_capacity(compute_servers);
        llts.resize_with(compute_servers, LocalLockTable::new);
        HoclManager { glt, llts, options }
    }

    /// The underlying global lock table.
    pub fn table(&self) -> &GlobalLockTable {
        &self.glt
    }

    /// The options this manager was built with.
    pub fn options(&self) -> &HoclOptions {
        &self.options
    }

    /// The local lock table of compute server `cs`.
    pub fn local_table(&self, cs: u16) -> &LocalLockTable {
        &self.llts[cs as usize % self.llts.len()]
    }

    /// Number of compute-server-`cs` threads queued locally on the lock that
    /// guards `node` (observability/tests).
    pub fn queued_waiters(&self, cs: u16, node: GlobalAddress) -> usize {
        let slot = self.glt.slot_of(node);
        self.local_table(cs).queued_waiters(node.ms, slot)
    }

    /// Take the compute server's local lock for `acq`, or wait for it.
    fn take_local<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
    ) -> SimResult<AcquireStep> {
        let (ms, slot) = (acq.node.ms, self.glt.slot_of(acq.node));
        let llt = self.local_table(client.cs_id());
        let local = llt.lock_for(ms, slot);
        let ticket = match acq.state {
            AcquireState::Queued { ticket } => ticket,
            _ => llt.new_ticket(),
        };
        let me = client.id();
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
            let handed_over = self.options.use_handover && st.grant.take() == Some(ticket);
            drop(st);
            // A record is retired by the last handle to it: hold none on.
            drop(local);
            if !handed_over {
                return self.post_global(client, acq);
            }
            // The global lock came with the grant: no CAS, just the READ.
            client.begin_critical(self.glt.location_of_slot(ms, slot).rank());
            let Some(len) = acq.read_len else {
                return Ok(acq.done(true, Vec::new()));
            };
            return match client.post_read(acq.node, len) {
                Ok(token) => {
                    acq.state = AcquireState::Reading;
                    Ok(AcquireStep::Pending(token))
                }
                Err(e) => {
                    // Pass the lock on (or free it): this acquisition is over.
                    let _ = self.release_slot(client, ms, slot, Vec::new(), true, false);
                    Err(e)
                }
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
        let woken_in_turn = self.options.use_wait_queue
            && (!st.held || mine(st.holder))
            && st.queue.iter().take(ahead).all(|w| mine(w.client));
        let deadline = (!woken_in_turn).then(|| client.now() + self.options.poll_interval_ns);
        let wait = client.post_wait(deadline);
        match queued_at {
            Some(pos) => st.queue[pos].wait = wait,
            None if self.options.use_wait_queue => st.queue.push_back(Waiter {
                ticket,
                client: me,
                wait,
            }),
            None => {}
        }
        acq.state = AcquireState::Queued { ticket };
        Ok(AcquireStep::Pending(wait))
    }

    /// Post one global attempt for `acq`, whose local lock this context
    /// holds; if the post fails the local lock is given up again.
    fn post_global<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
    ) -> SimResult<AcquireStep> {
        let (ms, slot) = (acq.node.ms, self.glt.slot_of(acq.node));
        let loc = self.glt.location_of_slot(ms, slot);
        let read = acq.read_len.map(|len| (acq.node, len));
        match self.glt.post_acquire_at(client, loc, client.cs_id(), read) {
            Ok(token) => {
                acq.state = AcquireState::Posted;
                Ok(AcquireStep::Pending(token))
            }
            Err(e) => {
                self.give_up_local(client, acq);
                Err(e)
            }
        }
    }

    /// `acq` holds its local lock and nothing else, and is over: release it.
    fn give_up_local<C: FabricChannel>(&self, client: &mut ClientCtx<C>, acq: &Acquisition) {
        let (ms, slot) = (acq.node.ms, self.glt.slot_of(acq.node));
        let local = self.local_table(client.cs_id()).lock_for(ms, slot);
        self.unlock_local(client, ms, slot, local);
    }

    /// Release the local lock of `(ms, slot)`: the next waiter — handed the
    /// global lock or not — takes it when it looks next, which is now if it
    /// runs on this context.
    fn unlock_local<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        ms: u16,
        slot: u64,
        local: Arc<LocalLock>,
    ) {
        {
            let mut st = local.state.lock();
            st.held = false;
            st.wake_head(client);
        }
        self.local_table(client.cs_id())
            .retire_if_idle(ms, slot, local);
    }

    fn release_slot<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        ms: u16,
        slot: u64,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let llt = self.local_table(client.cs_id());
        let local = llt.lock_for(ms, slot);

        // Decide whether to hand the (still-held) global lock to a local
        // waiter.  The decision is made before flushing writes so that the
        // release command can be dropped from the combined batch.
        let me = client.id();
        let (handover, to_sibling) = {
            let mut st = local.state.lock();
            match st.queue.front() {
                Some(head)
                    if self.options.use_handover
                        && st.handover_depth < self.options.max_handover_depth =>
                {
                    let (ticket, to_sibling) = (head.ticket, head.client == me);
                    st.handover_depth += 1;
                    st.grant = Some(ticket);
                    (true, to_sibling)
                }
                _ => {
                    st.handover_depth = 0;
                    (false, false)
                }
            }
        };

        let loc = self.glt.location_of_slot(ms, slot);
        let glt = &self.glt;
        let release_cmd = (!handover && glt.kind().release_is_write())
            .then(|| glt.release_write_cmd(loc));
        let owner = client.cs_id();
        let standalone = |c: &mut ClientCtx<C>, post_only: bool| {
            if post_only {
                Ok(Some(glt.post_release_at(c, loc, owner)?))
            } else {
                glt.release_at(c, loc, owner)?;
                Ok(None)
            }
        };
        // A handed-over lock is taken the moment the local lock is free: the
        // write-back may still be in flight then only if the successor's
        // READ follows it on the same queue pair — an operation of this very
        // context.  Another thread is handed the lock once it is acknowledged.
        let deferred = flush_writes_and_release(
            client,
            writes,
            combine,
            release_cmd,
            (!handover && !glt.kind().release_is_write()).then_some(standalone),
            ms,
            defer && (!handover || to_sibling),
        )?;

        // Finally release the local lock; the handed-over waiter (if any) will
        // find the grant when it takes the local lock.  A deferred release is
        // safe here: its memory effect (freeing the global word) applied at
        // the post instant, so the next owner — local or remote — already
        // observes the lock free.
        self.unlock_local(client, ms, slot, local);
        client.end_critical(loc.rank());
        Ok((
            ReleaseOutcome {
                released_global: !handover,
            },
            deferred,
        ))
    }
}

impl LockOrder for HoclManager {
    fn lock_rank(&self, node: GlobalAddress) -> u128 {
        self.glt.location_of(node).rank()
    }
}

impl<C: FabricChannel> NodeLockManager<C> for HoclManager {
    fn step_acquire(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
        completion: Option<Completion>,
    ) -> SimResult<AcquireStep> {
        match acq.state {
            AcquireState::Start | AcquireState::Queued { .. } => self.take_local(client, acq),
            AcquireState::Posted => {
                let completion = completion.expect("an attempt resumes on its completion");
                let lock = self.glt.location_of(acq.node).rank();
                match acq.attempt_won(client, lock, completion) {
                    Some(image) => Ok(acq.done(false, image)),
                    None if acq.once => {
                        self.give_up_local(client, acq);
                        Ok(AcquireStep::Lost)
                    }
                    // Lost to another compute server: spin remotely, still
                    // holding the local lock so no local thread joins in.
                    None => self.post_global(client, acq),
                }
            }
            AcquireState::Reading => {
                let completion = completion.expect("a read resumes on its completion");
                Ok(acq.done(true, completion.result.into_read()))
            }
        }
    }

    fn release_deferred(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let slot = self.glt.slot_of(node);
        self.release_slot(client, node.ms, slot, writes, combine, defer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_memserver::MemoryPool;
    use sherman_sim::{Fabric, FabricBackend, FabricConfig};
    use std::sync::Arc;
    use std::thread;

    fn setup(options: HoclOptions) -> (Arc<MemoryPool>, Arc<HoclManager>) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let glt = GlobalLockTable::new_on_chip(&pool);
        let mgr = Arc::new(HoclManager::new(glt, 2, options));
        (pool, mgr)
    }

    #[test]
    fn single_thread_acquire_release() {
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
        assert_eq!(*counter.lock(), 4 * iterations);
    }

    #[test]
    fn handover_skips_remote_acquisition() {
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions {
            max_handover_depth: 2,
            ..HoclOptions::default()
        });
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
        // With depth 2 the lock must be released remotely at least every third
        // release; in particular there must be some remote releases.
        assert!(outcomes.iter().filter(|&&g| g).count() >= outcomes.len() / 4);
        // And the run must end with the global lock actually free: a fresh
        // client can acquire it remotely.
        let mut client = pool.fabric().client(1);
        let a = mgr.acquire(&mut client, node).unwrap();
        assert!(!a.handed_over);
    }

    #[test]
    fn structure_only_options_disable_handover() {
        let (pool, mgr) = setup(HoclOptions::structure_only());
        let node = GlobalAddress::host(0, 50 << 10);
        let mut client = pool.fabric().client(0);
        mgr.acquire(&mut client, node).unwrap();
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(r.released_global, "handover disabled: always release");
        assert!(!mgr.options().use_wait_queue);
    }

    /// Pump virtual time from `client` until `n` waiters are queued on the
    /// lock guarding `node`, panicking (rather than hanging) if they never show.
    fn pump_until_queued(mgr: &HoclManager, client: &mut ClientCtx, node: GlobalAddress, n: usize) {
        for _ in 0..100_000 {
            if mgr.queued_waiters(0, node) >= n {
                return;
            }
            client.charge_cpu(100);
        }
        panic!("expected {n} queued waiter(s), they never arrived");
    }

    #[test]
    fn queued_waiter_acquires_before_later_arrival() {
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
    /// previous holder's write-back, so no increment is ever lost.
    fn acquire_and_read_excludes_on_real_threads(
        mgr: Arc<dyn NodeLockManager<sherman_sim::ThreadedChannel>>,
        fabric: Arc<sherman_sim::ThreadedFabric>,
    ) {
        use sherman_sim::FabricBackend;
        let node = GlobalAddress::host(1, 20 << 10);
        let start = fabric.god_read_u64(node).unwrap();
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
        assert_eq!(
            fabric.god_read_u64(node).unwrap(),
            start + threads as u64 * iterations
        );
    }

    #[test]
    fn acquire_and_read_is_mutually_exclusive_on_threaded_fabric() {
        use crate::manager::RemoteLockManager;
        let fabric = sherman_sim::ThreadedFabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let hocl = HoclManager::new(GlobalLockTable::new_on_chip(&pool), 2, HoclOptions::default());
        acquire_and_read_excludes_on_real_threads(Arc::new(hocl), Arc::clone(&fabric));
        let remote = RemoteLockManager::new(GlobalLockTable::new_on_chip(&pool));
        acquire_and_read_excludes_on_real_threads(Arc::new(remote), fabric);
    }

    #[test]
    fn a_failed_attempt_leaves_the_local_lock_free() {
        let (pool, mgr) = setup(HoclOptions::default());
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
        mgr: &HoclManager,
        client: &mut ClientCtx,
        acq: &mut Acquisition,
        pending: Option<PendingVerb>,
    ) -> AcquireStep {
        let completion = pending.map(|token| client.poll_token(token));
        mgr.step_acquire(client, acq, completion).unwrap()
    }

    #[test]
    fn operations_of_one_context_queue_park_and_hand_over() {
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
                assert_eq!(deadline, client.now() + mgr.options().poll_interval_ns);
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
        let (pool, mgr) = setup(HoclOptions::default());
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
        let (pool, mgr) = setup(HoclOptions::default());
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
