//! The [`NodeLockManager`] abstraction used by the index layer, and the
//! non-hierarchical manager that the FG/FG+ baselines and the early ablation
//! steps use.

use crate::global::GlobalLockTable;
use sherman_sim::{
    ClientCtx, Completion, FabricChannel, GlobalAddress, PendingVerb, SimChannel, SimResult,
    WriteCmd,
};

/// Result of acquiring a node lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcquireOutcome {
    /// Number of failed remote acquisition attempts (each one is a wasted
    /// round trip and a consumed NIC atomic).
    pub remote_retries: u64,
    /// Whether the lock was handed over locally, skipping the remote
    /// acquisition entirely (HOCL only).
    pub handed_over: bool,
}

/// One lock acquisition in progress: the resumable state of the single
/// acquisition machine each manager implements
/// ([`NodeLockManager::step_acquire`]).  Created for a node, stepped until it
/// reports [`AcquireStep::Done`]; between steps the caller is free to do
/// anything else on the same context, which is how a pipelined write overlaps
/// its lock round trip with other operations.
#[derive(Debug)]
pub struct Acquisition {
    pub(crate) node: GlobalAddress,
    /// `Some(len)`: also fetch `len` bytes of the node under the lock.
    pub(crate) read_len: Option<usize>,
    /// Failed global attempts so far.
    pub(crate) retries: u64,
    /// Give up instead of waiting: see [`Acquisition::try_once`].
    pub(crate) once: bool,
    pub(crate) state: AcquireState,
}

/// Where an [`Acquisition`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcquireState {
    /// Nothing posted yet.
    Start,
    /// Waiting for the compute server's local lock under `ticket` (HOCL):
    /// parked on a timer or on the holder's wake.
    Queued { ticket: u64 },
    /// A global attempt — CAS, or CAS+READ — is in flight.
    Posted,
    /// The lock was handed over locally; the plain READ of the node is in
    /// flight (HOCL).
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

    /// The node whose lock is being acquired.
    pub fn node(&self) -> GlobalAddress {
        self.node
    }

    /// Global attempts this acquisition lost so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// A global attempt on the lock word of rank `lock` completed: on a win
    /// open the critical section and return the image read under the lock,
    /// otherwise count the retry and pace the re-post (a no-op on the
    /// simulator, where every retry already pays a modeled round trip; a
    /// yield on real threads, where the holder may be descheduled on this
    /// very core).
    pub(crate) fn attempt_won<C: FabricChannel>(
        &mut self,
        client: &mut ClientCtx<C>,
        lock: u128,
        completion: Completion,
    ) -> Option<Vec<u8>> {
        let (won, image) = GlobalLockTable::attempt_outcome(completion);
        if won {
            client.begin_critical(lock);
            return Some(image);
        }
        self.retries += 1;
        client.note_retries(1);
        client.contention_backoff(u32::try_from(self.retries).unwrap_or(u32::MAX));
        None
    }

    pub(crate) fn done(&self, handed_over: bool, image: Vec<u8>) -> AcquireStep {
        AcquireStep::Done {
            outcome: AcquireOutcome {
                remote_retries: self.retries,
                handed_over,
            },
            image,
        }
    }
}

/// What one [`NodeLockManager::step_acquire`] call produced.
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

/// The order in which a client may hold several node locks at once.
///
/// It depends only on where a node's lock word lives, not on the fabric
/// channel the clients run on, so it is a trait of its own: callable on a
/// concrete manager without naming a channel type, and a supertrait of
/// [`NodeLockManager`] for callers that hold a `dyn` manager.
pub trait LockOrder {
    /// A total order on the *lock words* (not the node addresses).  Threads
    /// that hold several node locks at once — the structural-delete merge path
    /// — must acquire them in increasing rank, which makes the discipline
    /// deadlock-free cluster-wide.  Two nodes compare equal iff they share a
    /// lock word.
    fn lock_rank(&self, node: GlobalAddress) -> u128;

    /// Whether `a` and `b` are guarded by the same lock word.  Hash-sharded
    /// lock tables map many nodes onto few lock slots, so two distinct node
    /// addresses may alias; a caller that acquired `a` must not also acquire
    /// an aliasing `b` (self-deadlock).
    fn same_lock(&self, a: GlobalAddress, b: GlobalAddress) -> bool {
        self.lock_rank(a) == self.lock_rank(b)
    }

    /// Plan a deadlock-safe multi-node acquisition: deduplicate `nodes` by
    /// lock word and sort the representatives by [`LockOrder::lock_rank`].
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
    fn lock_plan(&self, nodes: &[GlobalAddress]) -> Vec<GlobalAddress> {
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

/// Exclusive per-node locking as seen by the B+Tree.
///
/// `release` also carries the node write-back commands so that implementations
/// can combine the release with them in a single doorbell batch when
/// `combine` is requested (command combination, §4.5).  When `combine` is
/// `false`, every write-back and the release are posted as separate round
/// trips, reproducing the baseline behaviour.
/// The trait is generic over the fabric channel the clients run on, so one
/// manager instance serves every client of a deployment regardless of
/// backend; it defaults to the virtual-time simulator's channel.
pub trait NodeLockManager<C: FabricChannel = SimChannel>: LockOrder + Send + Sync {
    /// Advance `acq` as far as it goes without waiting: take the lock, or
    /// post the next thing it has to wait for.  `completion` is the
    /// completion of what the previous step posted (`None` on the first).
    /// Learning that the lock is held opens its critical section on the
    /// client's trace ([`ClientCtx::begin_critical`], keyed by
    /// [`LockOrder::lock_rank`]); posting its release closes it.
    ///
    /// This is the only acquisition path: a failed global attempt is
    /// re-posted from here, a local wait resumed here.  An `Err` leaves the
    /// lock and every queue it was waiting in as if the acquisition had never
    /// started.
    fn step_acquire(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
        completion: Option<Completion>,
    ) -> SimResult<AcquireStep>;

    /// Acquire the exclusive lock protecting `node`, blocking: the
    /// acquisition machine, each thing it posts polled at once.
    fn acquire(&self, client: &mut ClientCtx<C>, node: GlobalAddress)
        -> SimResult<AcquireOutcome> {
        Ok(self.drive_acquire(client, Acquisition::new(node, None))?.0)
    }

    /// Acquire the lock protecting `node` and read the node it guards into
    /// `buf` (`buf.len()` bytes from `node`), blocking: on return `buf` holds
    /// the image as read under the lock.  The READ rides every acquiring
    /// CAS's doorbell batch (command combination at the head of a write,
    /// §4.5): the lock words are co-located with the nodes they guard.
    fn acquire_and_read(
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

    /// Step `acq` to completion, polling whatever it posts: the blocking
    /// form of the acquisition machine.
    fn drive_acquire(
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

    /// Release the lock protecting `node`, flushing `writes` (node
    /// write-backs on the same memory server) before or together with the
    /// release according to `combine`.
    ///
    /// The batch is keyed by `node`: `writes` are posted in the order given,
    /// whatever their addresses — whole images or ranges inside the nodes
    /// this lock word guards.  A caller that holds several locks sorts its
    /// write-backs by the node they belong to ([`LockOrder::same_lock`] on
    /// the *node's* address); a range's own address hashes to another word.
    fn release(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
    ) -> SimResult<ReleaseOutcome> {
        let (outcome, deferred) = self.release_deferred(client, node, writes, combine, false)?;
        debug_assert!(
            deferred.is_none(),
            "non-deferred release must not leave a verb outstanding"
        );
        Ok(outcome)
    }

    /// Like [`NodeLockManager::release`], but when `defer` is set the **final**
    /// remote verb of the release sequence — the combined doorbell batch that
    /// carries the release command, the standalone release write, or the FAA —
    /// is posted split-phase and its token returned for the caller to poll.
    ///
    /// Every memory effect (including freeing the lock word) still applies at
    /// the post instant, exactly as in the blocking path; only the wait for
    /// the acknowledgement moves to the caller.  A pipelined scheduler uses
    /// this to overlap the release round trip of one operation with other
    /// operations' traversal verbs.  Earlier verbs of the sequence
    /// (cross-server write-backs, uncombined write-backs) stay blocking, and a
    /// local handover that needs no remote release returns `None`.
    fn release_deferred(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)>;
}

/// A lock manager that goes straight to the global lock table: every
/// conflicting thread — even two threads on the same compute server — spins on
/// the remote lock word.  This is the behaviour of FG/FG+ and of Sherman's
/// "+Combine"/"+On-Chip" ablation steps before the hierarchical structure is
/// introduced.
#[derive(Debug)]
pub struct RemoteLockManager {
    table: GlobalLockTable,
}

impl RemoteLockManager {
    /// Wrap a global lock table.
    pub fn new(table: GlobalLockTable) -> Self {
        RemoteLockManager { table }
    }

    /// Access the underlying global lock table.
    pub fn table(&self) -> &GlobalLockTable {
        &self.table
    }
}

/// Post `writes` and the lock release according to the combination policy.
///
/// Shared by [`RemoteLockManager`] and the hierarchical manager.  The release
/// is `release_cmd` when it can be expressed as a write, `fallback_release`
/// when it cannot (FAA release; it posts split-phase and returns the token
/// when handed `true`, blocks and returns `None` otherwise), and neither when
/// the global lock must not be released (handover).
///
/// When `defer` is set, the final remote verb of the sequence is posted
/// split-phase and its token returned; every earlier verb stays blocking.
pub(crate) fn flush_writes_and_release<C: FabricChannel, F>(
    client: &mut ClientCtx<C>,
    writes: Vec<WriteCmd>,
    combine: bool,
    release_cmd: Option<WriteCmd>,
    fallback_release: Option<F>,
    lock_ms: u16,
    defer: bool,
) -> SimResult<Option<PendingVerb>>
where
    F: FnOnce(&mut ClientCtx<C>, bool) -> SimResult<Option<PendingVerb>>,
{
    // Writes that ended up on a different memory server than the lock can
    // never ride in the lock's doorbell batch; they are posted first, each as
    // its own verb (this is the cross-server sibling case of a node split).
    let (mut cmds, other_ms): (Vec<WriteCmd>, Vec<WriteCmd>) =
        writes.into_iter().partition(|w| w.addr.ms == lock_ms);
    for w in other_ms {
        client.post_writes(&[w])?;
    }

    // The commands for the lock's server travel as one doorbell batch, or —
    // no combination — each as its own round trip, exactly like the baseline
    // ("issuing the following RDMA command only after receiving the
    // acknowledgement of the preceding one").
    cmds.extend(release_cmd);
    let batches: Vec<&[WriteCmd]> = if combine {
        Some(cmds.as_slice()).filter(|b| !b.is_empty()).into_iter().collect()
    } else {
        cmds.chunks(1).collect()
    };
    for (i, batch) in batches.iter().enumerate() {
        if defer && fallback_release.is_none() && i + 1 == batches.len() {
            return Ok(Some(client.post_write_batch(batch)?));
        }
        client.post_writes(batch)?;
    }
    match fallback_release {
        Some(release) => release(client, defer),
        None => Ok(None),
    }
}

impl LockOrder for RemoteLockManager {
    fn lock_rank(&self, node: GlobalAddress) -> u128 {
        self.table.location_of(node).rank()
    }
}

impl<C: FabricChannel> NodeLockManager<C> for RemoteLockManager {
    fn step_acquire(
        &self,
        client: &mut ClientCtx<C>,
        acq: &mut Acquisition,
        completion: Option<Completion>,
    ) -> SimResult<AcquireStep> {
        let loc = self.table.location_of(acq.node);
        if let Some(completion) = completion {
            debug_assert_eq!(acq.state, AcquireState::Posted);
            if let Some(image) = acq.attempt_won(client, loc.rank(), completion) {
                return Ok(acq.done(false, image));
            }
            if acq.once {
                return Ok(AcquireStep::Lost);
            }
        }
        // Every conflicting thread spins on the remote word: (re-)post.
        let read = acq.read_len.map(|len| (acq.node, len));
        let token = self
            .table
            .post_acquire_at(client, loc, client.cs_id(), read)?;
        acq.state = AcquireState::Posted;
        Ok(AcquireStep::Pending(token))
    }

    fn release_deferred(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let loc = self.table.location_of(node);
        let owner = client.cs_id();
        let release_cmd = if self.table.kind().release_is_write() {
            Some(self.table.release_write_cmd(loc))
        } else {
            None
        };
        let table = &self.table;
        let standalone = |c: &mut ClientCtx<C>, post_only: bool| {
            if post_only {
                Ok(Some(table.post_release_at(c, loc, owner)?))
            } else {
                table.release_at(c, loc, owner)?;
                Ok(None)
            }
        };
        let deferred = flush_writes_and_release(
            client,
            writes,
            combine,
            release_cmd,
            (!self.table.kind().release_is_write()).then_some(standalone),
            node.ms,
            defer,
        )?;
        client.end_critical(loc.rank());
        Ok((
            ReleaseOutcome {
                released_global: true,
            },
            deferred,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalLockKind;
    use sherman_memserver::MemoryPool;
    use sherman_sim::{Fabric, FabricBackend, FabricConfig};
    use std::sync::Arc;

    fn setup(kind: GlobalLockKind) -> (Arc<MemoryPool>, RemoteLockManager) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let table = match kind {
            GlobalLockKind::OnChipMasked => GlobalLockTable::new_on_chip(&pool),
            other => GlobalLockTable::new_host(&pool, other),
        };
        (pool, RemoteLockManager::new(table))
    }

    #[test]
    fn exclusive_acquire_and_release() {
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
        let mut c0 = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 16 << 10);

        let out = mgr.acquire(&mut c0, node).unwrap();
        assert_eq!(out.remote_retries, 0);
        assert!(!out.handed_over);

        // A second client cannot acquire: verify via the table's try_acquire.
        let loc = mgr.table().location_of(node);
        let mut c1 = pool.fabric().client(1);
        assert!(!mgr.table().try_acquire_at(&mut c1, loc, 1).unwrap());

        mgr.release(&mut c0, node, Vec::new(), true).unwrap();
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1).unwrap());
    }

    #[test]
    fn a_lost_attempt_is_reposted_by_the_same_machine() {
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
        let (pool, mgr) = setup(GlobalLockKind::HostCasFaa);
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
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1).unwrap());
    }

    #[test]
    fn deferred_release_posts_the_final_verb_split_phase() {
        // Combined write-back + release: the whole batch is the final verb,
        // posted without polling; the lock word is already free at post time.
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
        let node = GlobalAddress::host(0, 40 << 10);
        let loc = mgr.table().location_of(node);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let (out, token) = mgr
            .release_deferred(&mut c0, node, vec![WriteCmd::new(node, vec![3u8; 64])], true, true)
            .unwrap();
        assert!(out.released_global);
        let token = token.expect("combined release defers its batch");
        assert_eq!(c0.outstanding(), 1);
        // Memory effect applied at post: another client can acquire now.
        let mut c1 = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1).unwrap());
        c0.poll_token(token);
        assert_eq!(c0.outstanding(), 0);

        // FAA release: the atomic itself is the deferred final verb, and the
        // preceding write-back still blocks.
        let (pool, mgr) = setup(GlobalLockKind::HostCasFaa);
        let node = GlobalAddress::host(1, 40 << 10);
        let mut c0 = pool.fabric().client(0);
        mgr.acquire(&mut c0, node).unwrap();
        let before = c0.stats();
        let (_, token) = mgr
            .release_deferred(&mut c0, node, vec![WriteCmd::new(node, vec![4u8; 64])], true, true)
            .unwrap();
        let token = token.expect("FAA release defers the atomic");
        assert_eq!(c0.stats().round_trips - before.round_trips, 2);
        assert_eq!(c0.outstanding(), 1);
        c0.poll_token(token);
        let loc = mgr.table().location_of(node);
        let mut c1 = pool.fabric().client(1);
        assert!(mgr.table().try_acquire_at(&mut c1, loc, 1).unwrap());
    }

    #[test]
    fn lock_plan_orders_and_deduplicates_aliased_nodes() {
        let (_pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
        let (_pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
        let (pool, mgr) = setup(GlobalLockKind::OnChipMasked);
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
