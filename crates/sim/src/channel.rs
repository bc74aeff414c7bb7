//! Verb-level fabric backend traits.
//!
//! Every layer above the fabric — the tree client, the ops state machines,
//! the pipelined scheduler, the coherence publish path, the bench runners —
//! talks to remote memory through a [`ClientCtx`], and a `ClientCtx` talks to
//! the wire through a [`FabricChannel`].  The channel is the *verb executor*:
//! it has the target [`MemServerSim`] apply the verb's memory effect — written
//! once there, for every backend — and only times it, answering with the
//! verb's post→completion window on that backend's clock.  Everything else —
//! the completion queue, per-op attribution, overlap accounting, tracing, the
//! blocking wrappers — is backend-independent and lives in the generic
//! [`ClientCtx`].  The state a backend holds besides its clock is one
//! [`FabricState`], over which [`FabricBackend`] implements every accessor.
//!
//! Two backends implement the pair of traits:
//!
//! * [`Fabric`](crate::fabric::Fabric) + [`SimChannel`](crate::fabric::SimChannel)
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
use crate::client::{CasResult, ClientCtx, WriteCmd};
use crate::coherence::CoherenceHub;
use crate::config::FabricConfig;
use crate::metrics::FabricMetrics;
use crate::rpc::{RpcHandler, RpcHandlerSlot, RpcWork};
use crate::server::{server_of, AtomicOp, MemServerSim};
use crate::SimResult;
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
/// a [`ClientCtx`]).  Verb methods apply the memory effect immediately
/// (through [`MemServerSim`]) and return the verb's [`VerbWindow`]; they
/// never block the calling thread — waiting happens through
/// [`FabricChannel::wait_until`] / [`FabricChannel::wait_until_earliest`]
/// when the client polls.
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

    /// One atomic verb ([`AtomicOp`]) on the aligned 8-byte word at `addr`.
    /// Returns whether it took effect (always, for a fetch-and-add) and the
    /// word's previous value.
    fn atomic(&mut self, addr: GlobalAddress, op: AtomicOp) -> SimResult<(VerbWindow, CasResult)>;

    /// One doorbell batch of an atomic on the word at `lock` — Sherman's
    /// masked `RDMA_CAS` ([`AtomicOp::Cas`]) — followed by an `RDMA_READ` of
    /// `buf.len()` bytes from `addr`, both on one queue pair.  Both must
    /// target the same memory server ([`crate::SimError::MixedBatch`]
    /// otherwise): in-order delivery then guarantees the READ executes after
    /// the CAS, so a caller that wins a lock word reads the node it guards in
    /// the same round trip.  The READ executes whether or not the CAS won —
    /// a NIC has no conditional — and the window closes on the READ response.
    /// Returns the CAS's outcome like [`FabricChannel::atomic`].
    fn cas_read(
        &mut self,
        lock: GlobalAddress,
        cas: AtomicOp,
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<(VerbWindow, CasResult)>;

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

/// The state every fabric backend holds in common: configuration, memory
/// servers, coherence inboxes, global metrics and the RPC interpreter slot.
/// Each backend adds only its notion of time (the simulator's clock and
/// compute-server ports, the threaded backend's epoch).
#[derive(Debug)]
pub struct FabricState {
    config: FabricConfig,
    servers: Vec<Arc<MemServerSim>>,
    coherence: CoherenceHub,
    metrics: FabricMetrics,
    rpc_handler: RpcHandlerSlot,
}

impl FabricState {
    /// Build the shared state from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FabricConfig::validate`]; a fabric
    /// with an invalid shape would silently mis-simulate, which is worse than
    /// failing fast at construction.
    pub(crate) fn new(config: FabricConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid fabric configuration: {msg}");
        }
        FabricState {
            servers: (0..config.memory_servers)
                .map(|id| Arc::new(MemServerSim::new(id as u16, &config)))
                .collect(),
            coherence: CoherenceHub::new(config.compute_servers),
            metrics: FabricMetrics::default(),
            rpc_handler: RpcHandlerSlot::new(),
            config,
        }
    }
}

/// One fabric backend instance: the shared [`FabricState`] plus the factory
/// for per-client channels.
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
    ///
    /// On the simulator the context registers a participant on the virtual
    /// clock; the calling thread must keep driving it (or drop it) so that
    /// virtual time can progress for everyone else.
    fn client(self: &Arc<Self>, cs: u16) -> ClientCtx<Self::Channel> {
        ClientCtx::with_channel(self.channel(cs))
    }

    /// Short human-readable backend name (`"sim"`, `"threaded"`).
    fn backend_name(&self) -> &'static str;

    /// Current time in nanoseconds on this backend's clock.
    fn now(&self) -> u64;

    /// The state every backend holds in common.
    fn state(&self) -> &FabricState;

    /// The fabric configuration.
    fn config(&self) -> &FabricConfig {
        &self.state().config
    }

    /// Global fabric metrics.
    fn metrics(&self) -> &FabricMetrics {
        &self.state().metrics
    }

    /// The per-compute-server coherence inboxes (see [`crate::coherence`]).
    fn coherence(&self) -> &CoherenceHub {
        &self.state().coherence
    }

    /// Look up a memory server.
    fn server(&self, ms: u16) -> SimResult<&Arc<MemServerSim>> {
        server_of(self.servers(), ms)
    }

    /// All memory servers, in id order.  The RPC interpreter receives this
    /// slice: node pointers round-robin across servers, so an offloaded
    /// traversal started on one server follows children onto its siblings'
    /// regions (modeling a memory-side compute pool).
    fn servers(&self) -> &[Arc<MemServerSim>] {
        &self.state().servers
    }

    /// Register the server-side RPC interpreter (see [`crate::RpcHandler`]).
    /// The index crate installs its bounded traversal interpreter here at
    /// cluster bootstrap; without one, typed RPCs answer
    /// [`crate::RpcResponse::Declined`] with
    /// [`crate::RpcDecline::NoHandler`].
    fn set_rpc_handler(&self, handler: Arc<dyn RpcHandler>) {
        self.state().rpc_handler.set(handler);
    }

    /// The registered RPC interpreter, if any.
    fn rpc_handler(&self) -> Option<Arc<dyn RpcHandler>> {
        self.state().rpc_handler.get()
    }

    /// Number of memory servers.
    fn memory_servers(&self) -> usize {
        self.config().memory_servers
    }

    /// Number of compute servers.
    fn compute_servers(&self) -> usize {
        self.config().compute_servers
    }

    // ----- zero-time ("god mode") accessors used for bulkload and test setup -----

    /// Write directly into a memory server without charging any time.
    fn god_write(&self, addr: GlobalAddress, data: &[u8]) -> SimResult<()> {
        let region = self.server(addr.ms)?.region(addr.space);
        region
            .write_bytes(addr.offset, data)
            .map_err(|oob| oob.into_sim_error(addr))
    }

    /// Read directly from a memory server without charging any time.
    fn god_read(&self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<()> {
        let region = self.server(addr.ms)?.region(addr.space);
        region
            .read_bytes(addr.offset, buf)
            .map_err(|oob| oob.into_sim_error(addr))
    }

    /// Read an aligned 64-bit word without charging any time.
    fn god_read_u64(&self, addr: GlobalAddress) -> SimResult<u64> {
        let region = self.server(addr.ms)?.region(addr.space);
        region
            .read_u64(addr.offset)
            .map_err(|e| e.into_sim_error(addr))
    }

    /// Write an aligned 64-bit word without charging any time.
    fn god_write_u64(&self, addr: GlobalAddress, value: u64) -> SimResult<()> {
        let region = self.server(addr.ms)?.region(addr.space);
        region
            .write_u64(addr.offset, value)
            .map_err(|e| e.into_sim_error(addr))
    }
}
