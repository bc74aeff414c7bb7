//! The one lock manager the index layer drives: [`LockManager`], configured
//! by a [`LockStrategy`] — a rung of the paper's lock ladder.
//!
//! Every rung shares the global lock table, the acquisition
//! ([`LockManager::lock`]), the release ([`LockManager::unlock`]) and the
//! lock order.  Both are `async fn`s written once over a [`Waits`]: the
//! tree's operations await them on their executor, and the blocking calls
//! ([`LockManager::acquire`], [`LockManager::release`]) run them to their end
//! in place ([`Parking::block_on`]), every wait a blocking poll.  The rungs
//! differ in where the lock words live (host memory or the NIC's on-chip
//! memory), in how a lock is given back (`RDMA_FAA` or `RDMA_WRITE`) and in
//! whether a per-compute-server local layer sits in front of the global word
//! (the hierarchical rungs; see the `hocl` module).  Without one, every
//! conflicting thread — even a sibling operation of the same context —
//! posts its global CAS at once and re-posts it after every loss.

use crate::global::GlobalLockTable;
use crate::hocl::{LocalLockTable, Turn};
use sherman_memserver::MemoryPool;
use sherman_sim::{
    ClientCtx, Completion, FabricBackend, FabricChannel, GlobalAddress, Parking, PendingVerb,
    SimResult, Waits, WriteCmd,
};
use std::future::Future;

/// Which exclusive-lock design protects node modifications: the ladder of
/// Figure 2, Figure 16 and the ablation of §5.2, one rung per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStrategy {
    /// Host-memory lock words, CAS acquire, FAA release (original FG, and
    /// Figure 2's baseline).
    HostCasFaa,
    /// Host-memory lock words, CAS acquire, WRITE release (FG+).
    HostCasWrite,
    /// On-chip 16-bit lock words, masked-CAS acquire, WRITE release; every
    /// thread goes remote (the "+On-Chip" step).
    OnChip,
    /// On-chip locks behind per-compute-server local lock tables: waiters
    /// race for the local lock, nothing is handed over.
    Hierarchical,
    /// [`LockStrategy::Hierarchical`] with FIFO wait queues on the local
    /// locks.
    WaitQueue,
    /// Full HOCL: wait queues plus bounded handover of the global lock to
    /// the next local waiter (Sherman).
    Hocl,
}

impl LockStrategy {
    /// Whether the lock words live in the NIC's on-chip memory.
    pub fn on_chip(self) -> bool {
        !matches!(self, LockStrategy::HostCasFaa | LockStrategy::HostCasWrite)
    }

    /// Whether a per-compute-server local lock table sits in front of the
    /// global one.
    pub fn local_layer(self) -> bool {
        matches!(
            self,
            LockStrategy::Hierarchical | LockStrategy::WaitQueue | LockStrategy::Hocl
        )
    }

    /// Whether local waiters queue FIFO instead of racing.
    pub fn wait_queue(self) -> bool {
        matches!(self, LockStrategy::WaitQueue | LockStrategy::Hocl)
    }
}

/// Result of acquiring a node lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcquireOutcome {
    /// Number of failed remote acquisition attempts (each one is a wasted
    /// round trip and a consumed NIC atomic).
    pub remote_retries: u64,
    /// Whether the lock was handed over locally, skipping the remote
    /// acquisition entirely ([`LockStrategy::Hocl`] only).
    pub handed_over: bool,
}

/// Result of releasing a node lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleaseOutcome {
    /// Whether the global (remote) lock was actually released.  `false` means
    /// the lock was handed over to a local waiter instead.
    pub released_global: bool,
}

/// Exclusive per-node locking as seen by the B+Tree: one rung of the lock
/// ladder ([`LockStrategy`]) over one global lock table and, for the
/// hierarchical rungs, one local lock table per compute server.
///
/// The methods are generic over the fabric channel, so one manager serves
/// every client of a deployment whatever its backend.  A release carries the
/// node write-backs so that, with command combination (§4.5), they and the
/// release travel as one doorbell batch; the acquiring CAS can likewise
/// carry the READ of the node it guards.
#[derive(Debug)]
pub struct LockManager {
    strategy: LockStrategy,
    glt: GlobalLockTable,
    /// One per compute server on the hierarchical rungs, none otherwise.
    llts: Vec<LocalLockTable>,
}

impl LockManager {
    /// Build the `strategy` rung over `pool`'s memory servers: the on-chip
    /// table lives in NIC memory, the host table claims one allocator chunk
    /// per memory server (at bootstrap, outside measured time).
    pub fn new<B: FabricBackend>(strategy: LockStrategy, pool: &MemoryPool<B>) -> Self {
        let llts = match strategy.local_layer() {
            true => (0..pool.fabric().config().compute_servers)
                .map(|_| LocalLockTable::new())
                .collect(),
            false => Vec::new(),
        };
        LockManager {
            strategy,
            glt: GlobalLockTable::new(pool, strategy),
            llts,
        }
    }

    /// The rung this manager implements.
    pub(crate) fn strategy(&self) -> LockStrategy {
        self.strategy
    }

    pub(crate) fn table(&self) -> &GlobalLockTable {
        &self.glt
    }

    /// The local lock table of compute server `cs`.
    ///
    /// # Panics
    /// On a rung without a local layer.
    pub fn local_table(&self, cs: u16) -> &LocalLockTable {
        assert!(
            self.strategy.local_layer(),
            "{:?} has no local lock tables",
            self.strategy
        );
        &self.llts[cs as usize]
    }

    /// Number of acquisitions of compute server `cs` queued locally on the
    /// lock that guards `node` (observability/tests).
    pub fn queued_waiters(&self, cs: u16, node: GlobalAddress) -> usize {
        let slot = self.glt.slot_of(node);
        self.local_table(cs).queued_waiters(node.ms, slot)
    }

    /// Acquire the exclusive lock that guards `node`, waiting as long as it
    /// takes; with `read_len`, also read that many bytes of the node under
    /// the lock — folded into every global attempt's doorbell batch, or a
    /// plain READ when the lock is handed over locally.  Returns how the
    /// lock was obtained and the image read under it (empty without
    /// `read_len`).
    ///
    /// Every wait is a lock step ([`Waits::wait_lock`]), so the caller's
    /// other operations run meanwhile.  Learning that the lock is held opens
    /// its critical section on the client's trace
    /// ([`ClientCtx::begin_critical`], keyed by [`LockManager::lock_rank`]);
    /// posting its release closes it.  An `Err` leaves the lock and every
    /// queue it waited in as if the acquisition had never started.
    pub async fn lock<W: Waits>(
        &self,
        cx: &W,
        node: GlobalAddress,
        read_len: Option<usize>,
    ) -> SimResult<(AcquireOutcome, Vec<u8>)> {
        if self.strategy.local_layer() && self.take_local(cx, node).await {
            return self.read_handed_over(cx, node, read_len).await;
        }
        let mut retries = 0;
        loop {
            // On the hierarchical rungs a lost attempt spins remotely still
            // holding the local lock, so no local thread joins in.
            let token = self.post_global(&mut cx.ctx(), node, read_len)?;
            let completion = cx.wait_lock(token).await;
            if let Some(image) = self.settle(&mut cx.ctx(), node, completion, &mut retries) {
                let outcome = AcquireOutcome {
                    remote_retries: retries,
                    handed_over: false,
                };
                return Ok((outcome, image));
            }
        }
    }

    /// One optimistic attempt at the lock that guards `node` (reading
    /// `read_len` bytes of it), posted before this returns: `None` when the
    /// local lock is held or promised to a queued waiter — nothing posted,
    /// nothing queued — else the attempt in flight.  Awaiting it yields the
    /// image read under the lock, or `None` when the global attempt lost:
    /// the loss is counted as a retry and the local lock given back, and
    /// nothing is re-posted.  Because an attempt never waits for a lock, a
    /// caller may post several at once, in any order, without risking a
    /// deadlock; what it does on a loss (give back what it won, then wait in
    /// rank order) is its business.
    pub fn try_lock<'a, W: Waits>(
        &'a self,
        cx: &'a W,
        node: GlobalAddress,
        read_len: Option<usize>,
    ) -> SimResult<Option<impl Future<Output = Option<Vec<u8>>> + 'a>> {
        if self.strategy.local_layer() {
            let mut ctx = cx.ctx();
            let ticket = self.local_table(ctx.cs_id()).ticket();
            if let Turn::Lost = self.turn(&mut ctx, node, ticket, true) {
                return Ok(None);
            }
        }
        let token = self.post_global(&mut cx.ctx(), node, read_len)?;
        Ok(Some(async move {
            let completion = cx.wait_lock(token).await;
            let image = self.settle(&mut cx.ctx(), node, completion, &mut 0);
            if image.is_none() {
                self.give_up_local(&mut cx.ctx(), node);
            }
            image
        }))
    }

    /// Post one global attempt on `node` (whose local lock this context
    /// holds, on the hierarchical rungs); if the post fails the local lock is
    /// given up again.
    fn post_global<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        read_len: Option<usize>,
    ) -> SimResult<PendingVerb> {
        let loc = self.glt.location_of(node);
        let read = read_len.map(|len| (node, len));
        let posted = self.glt.post_acquire_at(client, loc, client.cs_id(), read);
        if posted.is_err() {
            self.give_up_local(client, node);
        }
        posted
    }

    /// What a global attempt on `node` completed with: the image when it
    /// won, its critical section opened; `None` when it lost, the retry
    /// counted and the re-post paced (a no-op on the simulator, where every
    /// retry already pays a modeled round trip; a yield on real threads,
    /// where the holder may be descheduled on this very core).
    fn settle<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        completion: Completion,
        retries: &mut u64,
    ) -> Option<Vec<u8>> {
        let (won, image) = GlobalLockTable::attempt_outcome(completion);
        if won {
            client.begin_critical(self.lock_rank(node));
            return Some(image);
        }
        *retries += 1;
        client.note_retries(1);
        client.contention_backoff(u32::try_from(*retries).unwrap_or(u32::MAX));
        None
    }

    /// Handed the global lock by its predecessor: no CAS, just the READ.
    async fn read_handed_over<W: Waits>(
        &self,
        cx: &W,
        node: GlobalAddress,
        read_len: Option<usize>,
    ) -> SimResult<(AcquireOutcome, Vec<u8>)> {
        cx.ctx().begin_critical(self.lock_rank(node));
        let outcome = AcquireOutcome {
            remote_retries: 0,
            handed_over: true,
        };
        let Some(len) = read_len else {
            return Ok((outcome, Vec::new()));
        };
        let posted = cx.ctx().post_read(node, len);
        match posted {
            Ok(token) => Ok((outcome, cx.wait_lock(token).await.result.into_read())),
            Err(e) => {
                // Pass the lock on (or free it): this acquisition is over.
                let _ = self.unlock(cx, node, Vec::new(), true, true).await;
                Err(e)
            }
        }
    }

    /// Acquire the exclusive lock protecting `node`, blocking:
    /// [`LockManager::lock`] with every wait polled in place.
    pub fn acquire<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
    ) -> SimResult<AcquireOutcome> {
        let cx = Parking::new(client);
        Ok(cx.block_on(self.lock(&cx, node, None))?.0)
    }

    /// Acquire the lock protecting `node` and read the node it guards into
    /// `buf` (`buf.len()` bytes from `node`), blocking: on return `buf` holds
    /// the image as read under the lock.  The READ rides every acquiring
    /// CAS's doorbell batch (command combination at the head of a write,
    /// §4.5): the lock words are co-located with the nodes they guard.
    pub fn acquire_and_read<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<AcquireOutcome> {
        let cx = Parking::new(client);
        let (outcome, image) = cx.block_on(self.lock(&cx, node, Some(buf.len())))?;
        buf.copy_from_slice(&image);
        Ok(outcome)
    }

    /// Release the lock protecting `node`, blocking: [`LockManager::unlock`]
    /// with every verb polled in place, the final one acknowledged before the
    /// local lock is given back.
    pub fn release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
    ) -> SimResult<ReleaseOutcome> {
        let cx = Parking::new(client);
        Ok(cx.block_on(self.unlock(&cx, node, writes, combine, true))?.0)
    }

    /// Release the lock protecting `node`, flushing `writes` (node
    /// write-backs) before or together with the release according to
    /// `combine`: with it, the writes on the lock's memory server and the
    /// release travel as one doorbell batch; without it, each is a round trip
    /// of its own, the next posted once the previous is acknowledged.  Writes
    /// on another memory server go first, each on its own.  Whether the
    /// global lock is handed to the head of the local queue instead of being
    /// released is decided before anything is posted, so that a handover
    /// drops the release from the batch.  Every verb but the final one is
    /// waited for holding the client ([`Waits::hold`]).
    ///
    /// The **final** verb — the batch carrying the release, the standalone
    /// release write, or the FAA — is returned in flight when `wait_final` is
    /// false: every memory effect (freeing the lock word included) applies
    /// at the post instant, so the local lock is given back at once.  A
    /// handover with nothing to write has no final verb, and one to another
    /// thread's acquisition waits for it anyway: that acquisition may take
    /// the lock the moment the local lock is free, and must find the
    /// write-back it reads acknowledged.  A handover to a sibling operation
    /// of this context leaves it in flight: the successor's READ follows it
    /// on the same queue pair.  An `Err` leaves the rest of the release
    /// unposted and the local lock held.
    ///
    /// The batch is keyed by `node`: `writes` are posted in the order given,
    /// whatever their addresses — whole images or ranges inside the nodes
    /// this lock word guards.  A caller that holds several locks sorts its
    /// write-backs by the node they belong to ([`LockManager::same_lock`] on
    /// the *node's* address); a range's own address hashes to another word.
    pub async fn unlock<W: Waits>(
        &self,
        cx: &W,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        wait_final: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let local = self.hand_over(&mut cx.ctx(), node);
        let handover = local.as_ref().and_then(|local| local.handover);
        let release = handover.is_none().then(|| self.glt.location_of(node));
        // Writes that ended up on a different memory server than the lock can
        // never ride in the lock's doorbell batch; they are posted first, each
        // as its own verb (this is the cross-server sibling case of a split).
        let (mut cmds, other_ms): (Vec<WriteCmd>, Vec<WriteCmd>) =
            writes.into_iter().partition(|w| w.addr.ms == node.ms);
        // An FAA release is a verb of its own, after every write.
        let faa = release.filter(|_| self.strategy == LockStrategy::HostCasFaa);
        if faa.is_none() {
            cmds.extend(release.map(|loc| self.glt.release_write_cmd(loc)));
        }
        // The commands for the lock's server travel as one doorbell batch, or
        // — no combination — each as its own round trip, exactly like the
        // baseline ("issuing the following RDMA command only after receiving
        // the acknowledgement of the preceding one").
        let mut batches: Vec<Vec<WriteCmd>> = match combine {
            true if cmds.is_empty() => Vec::new(),
            true => vec![cmds],
            false => cmds.into_iter().map(|w| vec![w]).collect(),
        };
        let last = faa.is_none().then(|| batches.pop()).flatten();
        for batch in other_ms.into_iter().map(|w| vec![w]).chain(batches) {
            let token = cx.ctx().post_write_batch(&batch)?;
            cx.hold(token).await;
        }
        let posted = match faa {
            Some(loc) => {
                let mut ctx = cx.ctx();
                let cs = ctx.cs_id();
                Some(self.glt.post_release_at(&mut ctx, loc, cs)?)
            }
            None => last
                .map(|batch| cx.ctx().post_write_batch(&batch))
                .transpose()?,
        };
        let in_flight = match posted {
            Some(token) if wait_final || handover == Some(false) => {
                cx.hold(token).await;
                None
            }
            posted => posted,
        };
        // The next waiter — handed the global lock or not — takes the local
        // lock when it looks next; a released global word was freed at its
        // post instant, so the next owner, local or remote, already observes
        // it free.
        if let Some(local) = local {
            self.unlock_local(&mut cx.ctx(), local);
        }
        cx.ctx().end_critical(self.lock_rank(node));
        let outcome = ReleaseOutcome {
            released_global: handover.is_none(),
        };
        Ok((outcome, in_flight))
    }

    /// A total order on the *lock words* (not the node addresses).  Threads
    /// that hold several node locks at once — the structural-delete merge path
    /// — must acquire them in increasing rank, which makes the discipline
    /// deadlock-free cluster-wide.  Two nodes compare equal iff they share a
    /// lock word.
    pub fn lock_rank(&self, node: GlobalAddress) -> u128 {
        self.glt.location_of(node).rank()
    }

    /// Whether `a` and `b` are guarded by the same lock word.  Hash-sharded
    /// lock tables map many nodes onto few lock slots, so two distinct node
    /// addresses may alias; a caller that acquired `a` must not also acquire
    /// an aliasing `b` (self-deadlock).
    pub fn same_lock(&self, a: GlobalAddress, b: GlobalAddress) -> bool {
        self.lock_rank(a) == self.lock_rank(b)
    }

    /// Plan a deadlock-safe multi-node acquisition: deduplicate `nodes` by
    /// lock word and sort the representatives by [`LockManager::lock_rank`].
    /// Acquiring (and later releasing) exactly the returned representatives,
    /// in order, is safe against every other client using the same plan.
    ///
    /// The plan is insensitive to how the caller *discovered* the nodes: the
    /// structural-delete path hands in `(left, right, parent)` triples that
    /// may have been found right-to-left (an underfull node absorbing its
    /// B-link sibling) or left-to-right (a rightmost child folding into the
    /// left sibling its parent identified), and overlapping triples from
    /// clients merging in opposite directions still acquire in one global
    /// rank order.
    pub fn lock_plan(&self, nodes: &[GlobalAddress]) -> Vec<GlobalAddress> {
        let mut plan: Vec<GlobalAddress> = Vec::with_capacity(nodes.len());
        for &n in nodes {
            if !plan.iter().any(|&p| self.same_lock(p, n)) {
                plan.push(n);
            }
        }
        plan.sort_by_key(|&n| self.lock_rank(n));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::{Stepped, RUNGS};
    use sherman_sim::{Fabric, FabricConfig};
    use std::pin::pin;
    use std::sync::Arc;

    fn setup(strategy: LockStrategy) -> (Arc<MemoryPool>, LockManager) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let mgr = LockManager::new(strategy, &pool);
        (pool, mgr)
    }

    #[test]
    fn exclusive_acquire_and_release() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let mut c0 = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 16 << 10);

        let out = mgr.acquire(&mut c0, node).unwrap();
        assert_eq!(out.remote_retries, 0);
        assert!(!out.handed_over);

        // A second client cannot acquire: verify via the table's try_acquire.
        let loc = mgr.table().location_of(node);
        let mut c1 = pool.fabric().client(1);
        assert!(!mgr.table().try_acquire_at(&mut c1, loc, 1));

        mgr.release(&mut c0, node, Vec::new(), true).unwrap();
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1));
    }

    #[test]
    fn a_lost_attempt_is_reposted_by_the_same_machine() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 24 << 10);
        pool.fabric().god_write(node, &[4u8; 32]).unwrap();
        let mut holder = pool.fabric().client(1);
        mgr.acquire(&mut holder, node).unwrap();

        // Two attempts lose while the lock is held, the third wins: every
        // retry is a separately posted verb the caller may park on.
        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let mut acq = pin!(mgr.lock(&cx, node, Some(32)));
        let mut pending = None;
        for attempt in 0..3 {
            if attempt == 2 {
                mgr.release(&mut holder, node, Vec::new(), true).unwrap();
            }
            let step = cx.step(acq.as_mut(), pending.take());
            pending = Some(step.expect_err("the attempt should still be pending"));
        }
        let (outcome, image) = cx
            .step(acq, pending)
            .expect("the lock was released")
            .unwrap();
        assert_eq!((outcome.remote_retries, outcome.handed_over), (2, false));
        assert_eq!(image, vec![4u8; 32]);
        let s = cx.ctx().stats();
        assert_eq!((s.round_trips, s.atomics, s.reads, s.retries), (3, 3, 3, 2));
    }

    #[test]
    fn an_optimistic_attempt_is_posted_once() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 28 << 10);
        let mut holder = pool.fabric().client(1);
        mgr.acquire(&mut holder, node).unwrap();

        let mut client = pool.fabric().client(0);
        let cx = Parking::new(&mut client);
        let attempt = || {
            let posted = mgr.try_lock(&cx, node, Some(32)).unwrap();
            cx.finish(pin!(posted.expect("the attempt is posted")), None)
        };
        // Held: lost after its one round trip, nothing re-posted.
        assert_eq!(attempt(), None);
        assert_eq!(cx.ctx().outstanding(), 0);
        let s = cx.ctx().stats();
        assert_eq!((s.round_trips, s.atomics, s.retries), (1, 1, 1));
        // Free: won like any other acquisition, with no retry.
        mgr.release(&mut holder, node, Vec::new(), true).unwrap();
        assert!(attempt().is_some());
        assert_eq!(cx.ctx().stats().retries, 1);
    }

    /// The blocking calls are the async ones run in place: on every rung,
    /// with and without command combination, an acquisition and a release
    /// post the same verbs, open and close the same critical section, cost
    /// the same and end at the same instant, blocking or awaited step by
    /// step.
    #[test]
    fn blocking_and_awaited_calls_post_the_same_verbs() {
        for strategy in RUNGS {
            for combine in [true, false] {
                let run = |awaited: bool| {
                    let (pool, mgr) = setup(strategy);
                    let node = GlobalAddress::host(0, 56 << 10);
                    let writes = vec![
                        WriteCmd::new(GlobalAddress::host(1, 56 << 10), vec![3u8; 32]),
                        WriteCmd::new(node, vec![5u8; 64]),
                    ];
                    let mut client = pool.fabric().client(0);
                    client.enable_trace();
                    let before = client.stats();
                    let outcomes = if awaited {
                        let cx = Parking::new(&mut client);
                        let locked = cx.finish(pin!(mgr.lock(&cx, node, Some(64))), None);
                        let (acquired, image) = locked.unwrap();
                        let unlock = mgr.unlock(&cx, node, writes, combine, true);
                        let (released, _) = cx.finish(pin!(unlock), None).unwrap();
                        (acquired, image, released)
                    } else {
                        let mut buf = vec![0u8; 64];
                        let acquired = mgr.acquire_and_read(&mut client, node, &mut buf).unwrap();
                        let released = mgr.release(&mut client, node, writes, combine).unwrap();
                        (acquired, buf, released)
                    };
                    let spent = client.stats().delta_since(&before);
                    (outcomes, client.take_trace(), spent, client.now())
                };
                assert_eq!(run(false), run(true), "{strategy:?}, combine {combine}");
            }
        }
    }

    #[test]
    fn combined_release_saves_a_round_trip() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 32 << 10);
        let payload = vec![0xAAu8; 128];

        // Combined: write-back + release in one doorbell batch.
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let before = c0.stats().round_trips;
        mgr.release(
            &mut c0,
            node,
            vec![WriteCmd::new(node, payload.clone())],
            true,
        )
        .unwrap();
        let combined_rts = c0.stats().round_trips - before;
        drop(c0);

        // Separate: write-back, then release.
        let mut c1 = pool.fabric().client(1);
        mgr.acquire(&mut c1, node).unwrap();
        let before = c1.stats().round_trips;
        mgr.release(&mut c1, node, vec![WriteCmd::new(node, payload)], false)
            .unwrap();
        let separate_rts = c1.stats().round_trips - before;

        assert_eq!(combined_rts, 1);
        assert_eq!(separate_rts, 2);
    }

    #[test]
    fn faa_release_works_without_combination() {
        let (pool, mgr) = setup(LockStrategy::HostCasFaa);
        let node = GlobalAddress::host(1, 8 << 10);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        // Even when combination is requested, the FAA release is posted as a
        // separate atomic.
        let before = c0.stats().round_trips;
        mgr.release(&mut c0, node, vec![WriteCmd::new(node, vec![1u8; 64])], true)
            .unwrap();
        assert_eq!(c0.stats().round_trips - before, 2);
        // Lock is actually free again.
        let loc = mgr.table().location_of(node);
        let mut c1 = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1));
    }

    #[test]
    fn an_faa_release_is_an_atomic_after_the_write_backs() {
        let (pool, mgr) = setup(LockStrategy::HostCasFaa);
        let node = GlobalAddress::host(1, 12 << 10);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let before = c0.stats();
        mgr.release(
            &mut c0,
            node,
            vec![WriteCmd::new(node, vec![2u8; 64])],
            true,
        )
        .unwrap();
        // The write-back, then the FAA: one write command and one atomic.
        let d = c0.stats().delta_since(&before);
        assert_eq!((d.round_trips, d.writes, d.atomics), (2, 1, 1));
    }

    #[test]
    fn deferred_release_posts_the_final_verb_split_phase() {
        let release_in_flight = |mgr: &LockManager, client: &mut ClientCtx, node, writes| {
            let cx = Parking::new(client);
            cx.block_on(mgr.unlock(&cx, node, writes, true, false)).unwrap()
        };
        // Combined write-back + release: the whole batch is the final verb,
        // posted without polling; the lock word is already free at post time.
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 40 << 10);
        let loc = mgr.table().location_of(node);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let write = WriteCmd::new(node, vec![3u8; 64]);
        let (out, token) = release_in_flight(&mgr, &mut c0, node, vec![write]);
        assert!(out.released_global);
        let token = token.expect("combined release defers its batch");
        assert_eq!(c0.outstanding(), 1);
        // Memory effect applied at post: another client can acquire now.
        let mut c1 = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1));
        c0.poll_token(token);
        assert_eq!(c0.outstanding(), 0);

        // FAA release: the atomic itself is the deferred final verb, and the
        // preceding write-back still blocks.
        let (pool, mgr) = setup(LockStrategy::HostCasFaa);
        let node = GlobalAddress::host(1, 40 << 10);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let before = c0.stats();
        let write = WriteCmd::new(node, vec![4u8; 64]);
        let (_, token) = release_in_flight(&mgr, &mut c0, node, vec![write]);
        let token = token.expect("FAA release defers the atomic");
        assert_eq!(c0.stats().round_trips - before.round_trips, 2);
        assert_eq!(c0.outstanding(), 1);
        c0.poll_token(token);
        let loc = mgr.table().location_of(node);
        let mut c1 = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1));
    }

    #[test]
    fn lock_plan_orders_and_deduplicates_aliased_nodes() {
        let (_pool, mgr) = setup(LockStrategy::OnChip);
        let a = GlobalAddress::host(0, 16 << 10);
        let b = GlobalAddress::host(1, 16 << 10);
        let c = GlobalAddress::host(0, 48 << 10);

        // A node aliases itself; the plan keeps one representative per word.
        let plan = mgr.lock_plan(&[a, b, a, c]);
        assert!(plan.len() <= 3 && !plan.is_empty());
        // The plan is sorted by lock rank and free of aliases.
        for w in plan.windows(2) {
            assert!(mgr.lock_rank(w[0]) < mgr.lock_rank(w[1]));
            assert!(!mgr.same_lock(w[0], w[1]));
        }
        // Plans are order-insensitive: any permutation yields the same order
        // (representatives may differ only if inputs alias each other).
        if !mgr.same_lock(a, c) && !mgr.same_lock(a, b) && !mgr.same_lock(b, c) {
            assert_eq!(plan, mgr.lock_plan(&[c, a, b, a]));
        }
        // Every requested node is covered by some representative.
        for n in [a, b, c] {
            assert!(plan.iter().any(|&p| mgr.same_lock(p, n)));
        }
        // Ranks agree with aliasing: equal rank iff same lock word.
        assert!(mgr.same_lock(a, a));
        assert_eq!(mgr.lock_rank(a) == mgr.lock_rank(c), mgr.same_lock(a, c));
    }

    #[test]
    fn opposite_direction_merge_plans_share_a_total_order() {
        // Two clients merge around overlapping nodes in opposite directions:
        // A pairs (n1, n2) under p, B pairs (n2, n3) under p.  Whatever order
        // each discovered its triple in, the planned acquisition order of the
        // shared lock words must be consistent — otherwise A and B could each
        // hold one of {n2, p} while waiting for the other.
        let (_pool, mgr) = setup(LockStrategy::OnChip);
        let n1 = GlobalAddress::host(0, 16 << 10);
        let n2 = GlobalAddress::host(0, 32 << 10);
        let n3 = GlobalAddress::host(1, 16 << 10);
        let p = GlobalAddress::host(1, 32 << 10);

        let plan_a = mgr.lock_plan(&[n1, n2, p]); // right-direction discovery
        let plan_b = mgr.lock_plan(&[n3, n2, p]); // left-direction discovery
        let rank_order = |plan: &[GlobalAddress]| {
            plan.windows(2)
                .all(|w| mgr.lock_rank(w[0]) < mgr.lock_rank(w[1]))
        };
        assert!(rank_order(&plan_a) && rank_order(&plan_b));
        // The shared representatives appear in the same relative order in
        // both plans (same global total order => no circular wait).
        let shared: Vec<u128> = plan_a
            .iter()
            .map(|&x| mgr.lock_rank(x))
            .filter(|r| plan_b.iter().any(|&y| mgr.lock_rank(y) == *r))
            .collect();
        let shared_b: Vec<u128> = plan_b
            .iter()
            .map(|&x| mgr.lock_rank(x))
            .filter(|r| plan_a.iter().any(|&y| mgr.lock_rank(y) == *r))
            .collect();
        assert_eq!(shared, shared_b);
        assert!(!shared.is_empty(), "the triples overlap on {{n2, p}}");
    }

    #[test]
    fn cross_server_writes_are_flushed_separately() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 48 << 10);
        let other = GlobalAddress::host(1, 48 << 10);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let before = c0.stats().round_trips;
        mgr.release(
            &mut c0,
            node,
            vec![
                WriteCmd::new(other, vec![7u8; 32]),
                WriteCmd::new(node, vec![9u8; 32]),
            ],
            true,
        )
        .unwrap();
        // One round trip for the cross-server write, one combined batch.
        assert_eq!(c0.stats().round_trips - before, 2);
        let mut check = [0u8; 1];
        pool.fabric().god_read(other, &mut check).unwrap();
        assert_eq!(check[0], 7);
    }
}
