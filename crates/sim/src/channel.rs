//! Verb-level fabric backend traits.
//!
//! Every layer above the fabric — the tree client, the ops state machines,
//! the pipelined scheduler, the coherence publish path, the bench runners —
//! talks to remote memory through a [`ClientCtx`], and a `ClientCtx` talks to
//! the wire through a [`FabricChannel`].  The channel is the *verb executor*:
//! it applies a verb's memory effect and answers with the verb's
//! post→completion window on that backend's clock.  Everything else — the
//! completion queue, per-op attribution, overlap accounting, tracing, the
//! blocking wrappers — is backend-independent and lives in the generic
//! [`ClientCtx`].
//!
//! Two backends implement the pair of traits:
//!
//! * [`Fabric`](crate::fabric::Fabric) + [`SimChannel`](crate::client::SimChannel)
//!   — the deterministic virtual-time simulator.  Completion times come from
//!   the queueing model (NIC ports, PCIe atomics, wire time) and the
//!   conservative virtual clock; two runs over the same schedule are
//!   bit-identical.  This backend is the determinism oracle.
//! * [`ThreadedFabric`](crate::threaded::ThreadedFabric) +
//!   [`ThreadedChannel`](crate::threaded::ThreadedChannel) — an in-process
//!   multithreaded backend on the real clock.  Verbs execute immediately
//!   against the same `parking_lot`-guarded memory-server state, OS threads
//!   contend for real, and memory ordering is whatever the hardware provides.
//!   This backend turns the repro into a runnable concurrent service.
//!
//! The split mirrors kubecl's `ComputeClient` / `ComputeChannel` /
//! `ComputeServer` layering: the client is generic over a channel, the
//! channel pins its server type, and the two trait parameters are tied to
//! each other with associated types so a mismatched pairing cannot compile.

use crate::addr::GlobalAddress;
use crate::client::{ClientCtx, WriteCmd};
use crate::coherence::CoherenceHub;
use crate::config::FabricConfig;
use crate::metrics::FabricMetrics;
use crate::rpc::{RpcHandler, RpcWork};
use crate::server::MemServerSim;
use crate::{SimError, SimResult};
use std::fmt;
use std::sync::Arc;

/// One verb's service window on the backend's clock: the instant the verb was
/// posted and the instant its response arrived back at the client.
///
/// On the simulator both values are virtual nanoseconds fixed at post time;
/// on the threaded backend they are real nanoseconds since the fabric was
/// built, and `completed_at` is simply the time the (synchronous) memory
/// effect finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbWindow {
    /// When the verb was posted.
    pub posted_at: u64,
    /// When the response arrived back at the client.
    pub completed_at: u64,
}

/// The per-client verb executor of one fabric backend.
///
/// A channel belongs to exactly one compute server of one backend instance
/// and is **not** shared: each client thread owns its own channel (wrapped in
/// a [`ClientCtx`]).  Verb methods apply the memory effect immediately and
/// return the verb's [`VerbWindow`]; they never block the calling thread —
/// waiting happens through [`FabricChannel::wait_until`] /
/// [`FabricChannel::wait_until_earliest`] when the client polls.
pub trait FabricChannel: Send + 'static {
    /// The backend this channel executes verbs against.
    type Backend: FabricBackend<Channel = Self>;

    /// The backend instance this channel belongs to.
    fn backend(&self) -> &Arc<Self::Backend>;

    /// Compute server this channel runs on.
    fn cs_id(&self) -> u16;

    /// Current time in nanoseconds on this backend's clock.
    fn now(&self) -> u64;

    /// Block the calling thread until time `t` (no-op if already past).
    fn wait_until(&self, t: u64);

    /// Block until the **earliest** of `targets` is reached and return it;
    /// `None` when `targets` is empty.
    ///
    /// On the simulator this is the conservative clock's multi-completion
    /// rule: every target is registered so other participants can wake this
    /// thread at the earliest one.  On the threaded backend completions are
    /// always already in the past, so this reduces to `wait_until(min)`.
    fn wait_until_earliest(&self, targets: &[u64]) -> Option<u64>;

    /// Let `ns` nanoseconds of client-side CPU time pass.
    fn advance(&self, ns: u64);

    /// One `RDMA_READ` of `buf.len()` bytes from `addr` into `buf`.
    fn read(&mut self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<VerbWindow>;

    /// One doorbell batch of dependent `RDMA_WRITE`s on one queue pair.  All
    /// commands must target the same memory server; writes apply in post
    /// order and the batch costs one round trip.
    fn write_batch(&mut self, cmds: &[WriteCmd]) -> SimResult<VerbWindow>;

    /// Several independent `RDMA_READ`s posted in parallel; returns the
    /// fetched buffers in request order.  The window closes when the latest
    /// response arrives.
    fn read_batch(
        &mut self,
        reqs: &[(GlobalAddress, usize)],
    ) -> SimResult<(VerbWindow, Vec<Vec<u8>>)>;

    /// One `RDMA_CAS` on the aligned 8-byte word at `addr`; returns the
    /// previous value (the swap took effect iff it equals `expected`).
    fn cas(
        &mut self,
        addr: GlobalAddress,
        expected: u64,
        new: u64,
    ) -> SimResult<(VerbWindow, u64)>;

    /// One `RDMA_FAA` on the aligned 8-byte word at `addr`; returns the
    /// previous value.
    fn faa(&mut self, addr: GlobalAddress, add: u64) -> SimResult<(VerbWindow, u64)>;

    /// One masked `RDMA_CAS` (Mellanox "enhanced atomics"): only the bits in
    /// `mask` participate in comparison and swap.  Returns
    /// `(succeeded, previous_word)`.
    fn masked_cas(
        &mut self,
        addr: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
    ) -> SimResult<(VerbWindow, (bool, u64))>;

    /// One doorbell batch of a masked `RDMA_CAS` on the word at `lock`
    /// followed by an `RDMA_READ` of `buf.len()` bytes from `addr`, both on
    /// one queue pair (a `mask` of `u64::MAX` is the plain 64-bit CAS).  Both
    /// must target the same memory server ([`SimError::MixedBatch`]
    /// otherwise): in-order delivery then guarantees the READ executes after
    /// the CAS, so a caller that wins a lock word reads the node it guards in
    /// the same round trip.  The READ executes whether or not the CAS won —
    /// a NIC has no conditional — and the window closes on the READ response.
    /// Returns `(succeeded, previous_word)` like [`FabricChannel::masked_cas`].
    fn cas_read(
        &mut self,
        lock: GlobalAddress,
        expected: u64,
        new: u64,
        mask: u64,
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<(VerbWindow, (bool, u64))>;

    /// The fabric cost of one two-sided RPC to memory server `ms` (the
    /// request handling itself happens synchronously in the caller — see
    /// [`crate::RpcHandler`]).  `work` is the server-side compute the
    /// interpreter reported; the simulator charges
    /// [`FabricConfig::rpc_cost_ns`] for it on the server's inbound port,
    /// the threaded backend pays real elapsed time instead.
    fn rpc(
        &mut self,
        ms: u16,
        request_bytes: usize,
        response_bytes: usize,
        work: RpcWork,
    ) -> SimResult<VerbWindow>;

    /// The send-side cost of one one-way coherence message of `wire_bytes`.
    /// `completed_at` of the returned window is the message's **delivery**
    /// instant at the target inbox (the sender does not wait for it).
    fn coherence_send(&mut self, wire_bytes: usize) -> VerbWindow;

    /// Backend-specific wait used inside the quiesce loop while delivery of
    /// in-flight coherence messages is pending.  `pending_horizon` is the
    /// latest known delivery time toward this channel's inbox, if any.
    ///
    /// The simulator waits to the horizon (deterministic, and exactly the
    /// pre-trait quiesce timing); the threaded backend, whose messages are
    /// deliverable immediately, just yields the OS thread.
    fn wait_for_coherence(&self, pending_horizon: Option<u64>);

    /// Back off before re-posting a verb that just observed contention (a
    /// torn node image, a lost lock race).  `attempt` counts retries of the
    /// current operation, starting at 1.
    ///
    /// The virtual-time simulator needs no pacing — every retry already pays
    /// a modeled round trip, and the conservative clock guarantees the writer
    /// makes progress — so the default is a no-op.  Real-clock backends
    /// override this to hand the core to the writer: retried verbs complete
    /// in nanoseconds there, and without a yield a reader on a loaded (or
    /// single-core) machine can burn its whole retry budget inside one
    /// scheduler quantum while the conflicting writer sits parked mid-write.
    fn contention_backoff(&self, attempt: u32) {
        let _ = attempt;
    }
}

/// One fabric backend instance: the shared memory-server state plus the
/// factory for per-client channels.
///
/// Both backends share the memory-server representation
/// ([`MemServerSim`]): `Region` is a slab of `AtomicU64` words, so byte
/// copies tear at word granularity by design and the atomic verbs are real
/// hardware atomics — which is exactly what makes the state safely shareable
/// between the virtual-time world and real OS threads.
pub trait FabricBackend: fmt::Debug + Send + Sync + 'static {
    /// The channel type clients of this backend execute verbs through.
    type Channel: FabricChannel<Backend = Self>;

    /// Build a backend instance from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FabricConfig::validate`].
    fn build(config: FabricConfig) -> Arc<Self>;

    /// Create a raw channel for a client thread on compute server `cs`.
    fn channel(self: &Arc<Self>, cs: u16) -> Self::Channel;

    /// Create a full client context for a thread on compute server `cs`.
    fn client(self: &Arc<Self>, cs: u16) -> ClientCtx<Self::Channel> {
        ClientCtx::with_channel(self.channel(cs))
    }

    /// Short human-readable backend name (`"sim"`, `"threaded"`).
    fn backend_name(&self) -> &'static str;

    /// The fabric configuration.
    fn config(&self) -> &FabricConfig;

    /// Global fabric metrics.
    fn metrics(&self) -> &FabricMetrics;

    /// The per-compute-server coherence inboxes.
    fn coherence(&self) -> &CoherenceHub;

    /// Look up a memory server.
    fn server(&self, ms: u16) -> SimResult<&Arc<MemServerSim>>;

    /// All memory servers, in id order.  The RPC interpreter receives this
    /// slice: node pointers round-robin across servers, so an offloaded
    /// traversal started on one server follows children onto its siblings'
    /// regions (modeling a memory-side compute pool).
    fn servers(&self) -> &[Arc<MemServerSim>];

    /// Register the server-side RPC interpreter (see [`crate::RpcHandler`]).
    /// The index crate installs its bounded traversal interpreter here at
    /// cluster bootstrap; without one, typed RPCs answer
    /// [`crate::RpcResponse::Declined`] with
    /// [`crate::RpcDecline::NoHandler`].
    fn set_rpc_handler(&self, handler: Arc<dyn RpcHandler>);

    /// The registered RPC interpreter, if any.
    fn rpc_handler(&self) -> Option<Arc<dyn RpcHandler>>;

    /// Number of memory servers.
    fn memory_servers(&self) -> usize {
        self.config().memory_servers
    }

    /// Number of compute servers.
    fn compute_servers(&self) -> usize {
        self.config().compute_servers
    }

    /// Current time in nanoseconds on this backend's clock.
    fn now(&self) -> u64;

    // ----- zero-time ("god mode") accessors used for bulkload and test setup -----

    /// Write directly into a memory server without charging any time.
    fn god_write(&self, addr: GlobalAddress, data: &[u8]) -> SimResult<()> {
        let server = self.server(addr.ms)?;
        server
            .region(addr.space)
            .write_bytes(addr.offset, data)
            .map_err(|oob| SimError::OutOfBounds {
                addr,
                len: oob.len,
                region_len: oob.region_len,
            })
    }

    /// Read directly from a memory server without charging any time.
    fn god_read(&self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<()> {
        let server = self.server(addr.ms)?;
        server
            .region(addr.space)
            .read_bytes(addr.offset, buf)
            .map_err(|oob| SimError::OutOfBounds {
                addr,
                len: oob.len,
                region_len: oob.region_len,
            })
    }

    /// Read an aligned 64-bit word without charging any time.
    fn god_read_u64(&self, addr: GlobalAddress) -> SimResult<u64> {
        let server = self.server(addr.ms)?;
        server
            .region(addr.space)
            .read_u64(addr.offset)
            .map_err(|e| e.into_sim_error(addr, server.region_len(addr)))
    }

    /// Write an aligned 64-bit word without charging any time.
    fn god_write_u64(&self, addr: GlobalAddress, value: u64) -> SimResult<()> {
        let server = self.server(addr.ms)?;
        server
            .region(addr.space)
            .write_u64(addr.offset, value)
            .map_err(|e| e.into_sim_error(addr, server.region_len(addr)))
    }
}
