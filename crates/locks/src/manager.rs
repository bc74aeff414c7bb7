//! The one lock manager the index layer drives: [`LockManager`], configured
//! by a [`LockStrategy`] — a rung of the paper's lock ladder.
//!
//! Every rung shares the global lock table, the acquisition machine
//! ([`LockManager::step_acquire`]), the release machine
//! ([`LockManager::step_release`]) and the lock order.  The rungs differ in
//! where the lock words live (host memory or the NIC's on-chip memory), in
//! how a lock is given back (`RDMA_FAA` or `RDMA_WRITE`) and in whether a
//! per-compute-server local layer sits in front of the global word (the
//! hierarchical rungs; see the `hocl` module).  Without one, every
//! conflicting thread — even a sibling operation of the same context —
//! posts its global CAS at once and re-posts it after every loss.

use crate::global::{GlobalLockTable, LockLocation};
use crate::hocl::{LocalLockTable, Locked};
use serde::{Deserialize, Serialize};
use sherman_memserver::MemoryPool;
use sherman_sim::{
    ClientCtx, Completion, FabricBackend, FabricChannel, GlobalAddress, PendingVerb, SimResult,
    WriteCmd,
};
use std::collections::VecDeque;

/// Which exclusive-lock design protects node modifications: the ladder of
/// Figure 2, Figure 16 and the ablation of §5.2, one rung per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// One lock acquisition in progress: the resumable state of the acquisition
/// machine ([`LockManager::step_acquire`]).  Created for a node, stepped
/// until it reports [`AcquireStep::Done`]; between steps the caller is free
/// to do anything else on the same context, which is how a pipelined write
/// overlaps its lock round trip with other operations.
#[derive(Debug)]
pub struct Acquisition {
    pub(crate) node: GlobalAddress,
    /// `Some(len)`: also fetch `len` bytes of the node under the lock.
    read_len: Option<usize>,
    /// Failed global attempts so far.
    retries: u64,
    /// Give up instead of waiting: see [`Acquisition::try_once`].
    pub(crate) once: bool,
    pub(crate) state: AcquireState,
}

/// Where an [`Acquisition`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcquireState {
    /// Nothing posted yet.
    Start,
    /// Waiting for the compute server's local lock under `ticket`: parked on
    /// a timer or on the holder's wake.
    Queued { ticket: u64 },
    /// A global attempt — CAS, or CAS+READ — is in flight.
    Posted,
    /// The lock was handed over locally; the plain READ of the node is in
    /// flight.
    Reading,
}

impl Acquisition {
    /// Start acquiring the lock that guards `node`; with `read_len`, also
    /// read that many bytes of the node under the lock — folded into every
    /// global attempt's doorbell batch, or a plain READ when the lock is
    /// handed over locally.
    pub fn new(node: GlobalAddress, read_len: Option<usize>) -> Self {
        Acquisition {
            node,
            read_len,
            retries: 0,
            once: false,
            state: AcquireState::Start,
        }
    }

    /// Like [`Acquisition::new`], but one optimistic attempt: the machine
    /// never queues behind a local holder and never re-posts a lost global
    /// attempt — it reports [`AcquireStep::Lost`] holding nothing.  Because
    /// it never waits, a caller may make several such attempts at once, in
    /// any order, without risking a deadlock; what it does on a loss (give
    /// back what it won, then wait in rank order) is its business.
    pub fn try_once(node: GlobalAddress, read_len: Option<usize>) -> Self {
        Acquisition {
            once: true,
            ..Acquisition::new(node, read_len)
        }
    }

    /// Global attempts this acquisition lost so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn done(&self, handed_over: bool, image: Vec<u8>) -> AcquireStep {
        AcquireStep::Done {
            outcome: AcquireOutcome {
                remote_retries: self.retries,
                handed_over,
            },
            image,
        }
    }
}

/// What one [`LockManager::step_acquire`] call produced.
#[derive(Debug)]
pub enum AcquireStep {
    /// Something was posted — a lock attempt, a read, a local wait; resume
    /// the acquisition with its completion.
    Pending(PendingVerb),
    /// The lock is held.
    Done {
        /// How it was obtained.
        outcome: AcquireOutcome,
        /// The node as read under the lock (empty when no read was asked).
        image: Vec<u8>,
    },
    /// A [`Acquisition::try_once`] attempt found the lock taken: nothing is
    /// held, nothing is queued, nothing is in flight.
    Lost,
}

/// Result of releasing a node lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleaseOutcome {
    /// Whether the global (remote) lock was actually released.  `false` means
    /// the lock was handed over to a local waiter instead.
    pub released_global: bool,
}

/// One lock release in progress: the resumable state of the release machine
/// ([`LockManager::step_release`]).  Started by
/// [`LockManager::begin_release`], stepped until it reports
/// [`ReleaseStep::Done`]; every verb it reports pending is one the release
/// waits for before it goes on.
pub struct Release {
    node: GlobalAddress,
    /// Verbs to post and wait for, in order: writes on other memory servers,
    /// then, uncombined, every command but the last.
    posts: VecDeque<ReleasePost>,
    /// The final verb, not yet posted.
    last: Option<ReleasePost>,
    /// Wait for the final verb before the local lock is given back.
    wait_final: bool,
    /// The final verb, posted and left in flight.
    posted: Option<PendingVerb>,
    /// The local lock to give back, on a rung with a local layer.
    local: Option<Locked>,
    released_global: bool,
}

/// One verb of a release.
enum ReleasePost {
    /// A doorbell batch of writes (the release write among them, if it is
    /// the batch that carries it).
    Writes(Vec<WriteCmd>),
    /// The `RDMA_FAA` that releases a [`LockStrategy::HostCasFaa`] word.
    Faa(LockLocation),
}

/// What one [`LockManager::step_release`] call produced.
#[derive(Debug)]
pub enum ReleaseStep {
    /// A verb was posted that the release waits for: step it again once the
    /// verb completed.
    Pending(PendingVerb),
    /// The lock is given back.
    Done {
        /// Whether the global lock was released or handed over.
        outcome: ReleaseOutcome,
        /// The final verb, posted and not waited for (see
        /// [`LockManager::begin_release`]).
        last: Option<PendingVerb>,
    },
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

    /// Advance `acq` as far as it goes without waiting: take the lock, or
    /// post the next thing it has to wait for.  `completion` is the
    /// completion of what the previous step posted (`None` on the first).
    /// Learning that the lock is held opens its critical section on the
    /// client's trace ([`ClientCtx::begin_critical`], keyed by
    /// [`LockManager::lock_rank`]); posting its release closes it.
    ///
    /// This is the only acquisition path: a failed global attempt is
    /// re-posted from here, a local wait resumed here.  An `Err` leaves the
    /// lock and every queue it was waiting in as if the acquisition had never
    /// started.
    pub fn step_acquire<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
        completion: Option<Completion>,
    ) -> SimResult<AcquireStep> {
        match acq.state {
            AcquireState::Start | AcquireState::Queued { .. } if self.strategy.local_layer() => {
                self.take_local(client, acq)
            }
            AcquireState::Start | AcquireState::Queued { .. } => self.post_global(client, acq),
            AcquireState::Posted => {
                let completion = completion.expect("an attempt resumes on its completion");
                let (won, image) = GlobalLockTable::attempt_outcome(completion);
                if won {
                    client.begin_critical(self.lock_rank(acq.node));
                    return Ok(acq.done(false, image));
                }
                // Count the retry and pace the re-post (a no-op on the
                // simulator, where every retry already pays a modeled round
                // trip; a yield on real threads, where the holder may be
                // descheduled on this very core).
                acq.retries += 1;
                client.note_retries(1);
                client.contention_backoff(u32::try_from(acq.retries).unwrap_or(u32::MAX));
                if acq.once {
                    self.give_up_local(client, acq);
                    return Ok(AcquireStep::Lost);
                }
                // Lost to another holder: spin remotely — on the
                // hierarchical rungs still holding the local lock, so no
                // local thread joins in.
                self.post_global(client, acq)
            }
            AcquireState::Reading => {
                let completion = completion.expect("a read resumes on its completion");
                Ok(acq.done(true, completion.result.into_read()))
            }
        }
    }

    /// Post one global attempt for `acq` (whose local lock this context
    /// holds, on the hierarchical rungs); if the post fails the local lock is
    /// given up again.
    pub(crate) fn post_global<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
    ) -> SimResult<AcquireStep> {
        let loc = self.glt.location_of(acq.node);
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

    /// Handed the global lock by its predecessor: no CAS, just the READ.
    pub(crate) fn post_handed_over<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
    ) -> SimResult<AcquireStep> {
        client.begin_critical(self.lock_rank(acq.node));
        let Some(len) = acq.read_len else {
            return Ok(acq.done(true, Vec::new()));
        };
        match client.post_read(acq.node, len) {
            Ok(token) => {
                acq.state = AcquireState::Reading;
                Ok(AcquireStep::Pending(token))
            }
            Err(e) => {
                // Pass the lock on (or free it): this acquisition is over.
                let _ = self.release(client, acq.node, Vec::new(), true);
                Err(e)
            }
        }
    }

    /// Acquire the exclusive lock protecting `node`, blocking: the
    /// acquisition machine, each thing it posts polled at once.
    pub fn acquire<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
    ) -> SimResult<AcquireOutcome> {
        Ok(self.drive_acquire(client, Acquisition::new(node, None))?.0)
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
        let (outcome, image) =
            self.drive_acquire(client, Acquisition::new(node, Some(buf.len())))?;
        buf.copy_from_slice(&image);
        Ok(outcome)
    }

    /// Step `acq` to completion, polling whatever it posts.
    fn drive_acquire<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        mut acq: Acquisition,
    ) -> SimResult<(AcquireOutcome, Vec<u8>)> {
        let mut completion = None;
        loop {
            match self.step_acquire(client, &mut acq, completion.take())? {
                AcquireStep::Pending(token) => completion = Some(client.poll_token(token)),
                AcquireStep::Done { outcome, image } => return Ok((outcome, image)),
                AcquireStep::Lost => unreachable!("a blocking acquisition waits for its lock"),
            }
        }
    }

    /// Release the lock protecting `node`, blocking: the release machine
    /// ([`LockManager::step_release`]), each verb it posts polled at once, the
    /// final one acknowledged before the local lock is given back.
    pub fn release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
    ) -> SimResult<ReleaseOutcome> {
        let release = self.begin_release(client, node, writes, combine, true);
        Ok(self.drive_release(client, release)?.0)
    }

    /// Release the lock protecting `node` with the final verb posted
    /// split-phase (see [`LockManager::begin_release`]), every earlier one
    /// polled at once.  Returns the final verb for the caller to poll.
    pub fn post_release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let release = self.begin_release(client, node, writes, combine, false);
        self.drive_release(client, release)
    }

    /// Step `release` to its end, polling whatever it waits for.
    fn drive_release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        mut release: Release,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        loop {
            match self.step_release(client, &mut release)? {
                ReleaseStep::Pending(token) => {
                    client.poll_token(token);
                }
                ReleaseStep::Done { outcome, last } => return Ok((outcome, last)),
            }
        }
    }

    /// Start releasing the lock protecting `node`, flushing `writes` (node
    /// write-backs) before or together with the release according to
    /// `combine`: with it, the writes on the lock's memory server and the
    /// release travel as one doorbell batch; without it, each is a round trip
    /// of its own, the next posted once the previous is acknowledged.  Writes
    /// on another memory server go first, each on its own.  Whether the
    /// global lock is handed to the head of the local queue instead of being
    /// released is decided here, so that a handover drops the release from
    /// the batch.
    ///
    /// The **final** verb — the batch carrying the release, the standalone
    /// release write, or the FAA — is left in flight when `wait_final` is
    /// false: every memory effect (freeing the lock word included) applies
    /// at the post instant, so the local lock is given back at once, and
    /// [`ReleaseStep::Done`] hands the verb to the caller.  A handover with
    /// nothing to write has no final verb, and one to another thread's
    /// acquisition waits for it anyway: that acquisition may take the lock
    /// the moment the local lock is free, and must find the write-back it
    /// reads acknowledged.  A handover to a sibling operation of this
    /// context leaves it in flight: the successor's READ follows it on the
    /// same queue pair.
    ///
    /// The batch is keyed by `node`: `writes` are posted in the order given,
    /// whatever their addresses — whole images or ranges inside the nodes
    /// this lock word guards.  A caller that holds several locks sorts its
    /// write-backs by the node they belong to ([`LockManager::same_lock`] on
    /// the *node's* address); a range's own address hashes to another word.
    pub fn begin_release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        wait_final: bool,
    ) -> Release {
        let local = self.hand_over(client, node);
        let handover = local.as_ref().and_then(|local| local.handover);
        let release = handover.is_none().then(|| self.glt.location_of(node));
        // Writes that ended up on a different memory server than the lock can
        // never ride in the lock's doorbell batch; they are posted first, each
        // as its own verb (this is the cross-server sibling case of a split).
        let (mut cmds, other_ms): (Vec<WriteCmd>, Vec<WriteCmd>) =
            writes.into_iter().partition(|w| w.addr.ms == node.ms);
        let mut posts: VecDeque<ReleasePost> =
            other_ms.into_iter().map(|w| ReleasePost::Writes(vec![w])).collect();
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
        let last = match faa {
            Some(loc) => Some(ReleasePost::Faa(loc)),
            None => batches.pop().map(ReleasePost::Writes),
        };
        posts.extend(batches.into_iter().map(ReleasePost::Writes));
        Release {
            node,
            posts,
            last,
            wait_final: wait_final || handover == Some(false),
            posted: None,
            local,
            released_global: handover.is_none(),
        }
    }

    /// Advance `release` as far as it goes without waiting: post the next
    /// verb it waits for, or — once only the final verb is left — post it,
    /// give the local lock back and close the critical section.  An `Err`
    /// leaves the rest of the release unposted and the local lock held.
    pub fn step_release<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        release: &mut Release,
    ) -> SimResult<ReleaseStep> {
        if let Some(post) = release.posts.pop_front() {
            return Ok(ReleaseStep::Pending(self.post(client, post)?));
        }
        if let Some(post) = release.last.take() {
            let token = self.post(client, post)?;
            if release.wait_final {
                return Ok(ReleaseStep::Pending(token));
            }
            release.posted = Some(token);
        }
        // The next waiter — handed the global lock or not — takes the local
        // lock when it looks next; a released global word was freed at its
        // post instant, so the next owner, local or remote, already observes
        // it free.
        if let Some(local) = release.local.take() {
            self.unlock_local(client, local);
        }
        client.end_critical(self.lock_rank(release.node));
        Ok(ReleaseStep::Done {
            outcome: ReleaseOutcome {
                released_global: release.released_global,
            },
            last: release.posted.take(),
        })
    }

    /// Post one verb of a release.
    fn post<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        post: ReleasePost,
    ) -> SimResult<PendingVerb> {
        match post {
            ReleasePost::Writes(cmds) => client.post_write_batch(&cmds),
            ReleasePost::Faa(loc) => self.glt.post_release_at(client, loc, client.cs_id()),
        }
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
    use sherman_sim::{Fabric, FabricConfig};
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
        let mut acq = Acquisition::new(node, Some(32));
        let mut completion = None;
        for attempt in 0..3 {
            if attempt == 2 {
                mgr.release(&mut holder, node, Vec::new(), true).unwrap();
            }
            let AcquireStep::Pending(token) =
                mgr.step_acquire(&mut client, &mut acq, completion.take()).unwrap()
            else {
                panic!("attempt {attempt} should still be pending");
            };
            completion = Some(client.poll_token(token));
        }
        let AcquireStep::Done { outcome, image } =
            mgr.step_acquire(&mut client, &mut acq, completion).unwrap()
        else {
            panic!("the lock was released");
        };
        assert_eq!((outcome.remote_retries, outcome.handed_over), (2, false));
        assert_eq!(image, vec![4u8; 32]);
        let s = client.stats();
        assert_eq!((s.round_trips, s.atomics, s.reads, s.retries), (3, 3, 3, 2));
    }

    #[test]
    fn an_optimistic_attempt_is_posted_once() {
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 28 << 10);
        let mut holder = pool.fabric().client(1);
        mgr.acquire(&mut holder, node).unwrap();

        let mut client = pool.fabric().client(0);
        let attempt = |client: &mut ClientCtx| {
            let mut acq = Acquisition::try_once(node, Some(32));
            let AcquireStep::Pending(token) = mgr.step_acquire(client, &mut acq, None).unwrap()
            else {
                panic!("the attempt is posted");
            };
            let completion = client.poll_token(token);
            (mgr.step_acquire(client, &mut acq, Some(completion)).unwrap(), acq.retries())
        };
        // Held: lost after its one round trip, nothing re-posted.
        assert!(matches!(attempt(&mut client), (AcquireStep::Lost, 1)));
        assert_eq!(client.outstanding(), 0);
        let s = client.stats();
        assert_eq!((s.round_trips, s.atomics, s.retries), (1, 1, 1));
        // Free: won like any other acquisition.
        mgr.release(&mut holder, node, Vec::new(), true).unwrap();
        assert!(matches!(attempt(&mut client), (AcquireStep::Done { .. }, 0)));
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
    fn deferred_release_posts_the_final_verb_split_phase() {
        // Combined write-back + release: the whole batch is the final verb,
        // posted without polling; the lock word is already free at post time.
        let (pool, mgr) = setup(LockStrategy::OnChip);
        let node = GlobalAddress::host(0, 40 << 10);
        let loc = mgr.table().location_of(node);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let (out, token) = mgr
            .post_release(&mut c0, node, vec![WriteCmd::new(node, vec![3u8; 64])], true)
            .unwrap();
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
        let (_, token) = mgr
            .post_release(&mut c0, node, vec![WriteCmd::new(node, vec![4u8; 64])], true)
            .unwrap();
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
