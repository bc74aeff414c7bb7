//! # sherman-sim — a virtual-time disaggregated-memory / RDMA fabric simulator
//!
//! The Sherman paper evaluates its B+Tree on a cluster of machines connected by
//! 100 Gbps ConnectX-5 RDMA NICs.  This crate provides the substrate the rest of
//! the reproduction runs on when that hardware is not available: a simulated
//! fabric of *memory servers* (MSs) exposing byte-addressable memory regions and
//! *compute servers* (CSs) whose client threads access them with one-sided RDMA
//! verbs (`READ`, `WRITE`, `CAS`, `FAA`, masked `CAS`) and doorbell-batched
//! command lists.
//!
//! ## Virtual time
//!
//! All latency accounting is done on a [`clock::VirtualClock`]: client threads
//! are real OS threads, but every network wait is expressed as "wake me at
//! virtual time *t*" and the clock only advances when every registered
//! participant is blocked.  This yields precise microsecond-scale modeling that
//! is independent of the number of physical cores (the build machine for this
//! reproduction has a single core) and supports hundreds of logical client
//! threads.
//!
//! ## What the model charges
//!
//! * a propagation round-trip per verb (or per doorbell batch),
//! * per-byte wire time (bandwidth) and a per-op service floor (IOPS ceiling)
//!   at both the CS and MS NIC ports,
//! * an extra PCIe charge for atomics that target MS *host* memory, serialized
//!   through the NIC's internal atomic buckets (the behaviour behind Figure 2
//!   of the paper),
//! * no PCIe charge for atomics that target the NIC's *on-chip* (device)
//!   memory (the behaviour behind HOCL / Figure 16).
//!
//! The absolute constants are calibrated against the numbers the paper reports
//! for ConnectX-5 NICs and can be overridden through [`config::FabricConfig`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod channel;
pub mod client;
pub mod clock;
pub mod coherence;
pub mod config;
pub mod fabric;
pub mod metrics;
pub mod nic;
pub mod region;
pub mod rpc;
pub mod server;
pub mod threaded;

pub use addr::{GlobalAddress, MemSpace};
pub use channel::{FabricBackend, FabricChannel, FabricState, VerbWindow};
pub use client::{
    CasResult, ClientCtx, ClientStats, Completion, OpVerbStats, PendingVerb, SharedClientStats,
    TraceEvent, VerbResult, WriteCmd,
};
pub use clock::{Participant, VirtualClock};
pub use coherence::{CoherenceHub, CoherenceMsg};
pub use config::FabricConfig;
pub use fabric::{Fabric, SimChannel};
pub use metrics::FabricMetrics;
pub use region::Region;
pub use rpc::{
    RpcDecline, RpcHandler, RpcHandlerSlot, RpcLeafReply, RpcLevel1Image, RpcNodeInfo,
    RpcRangeReply, RpcRequest, RpcResponse, RpcWork,
};
pub use server::{AtomicOp, MemServerSim};
pub use threaded::{ThreadedChannel, ThreadedFabric};

/// Convenience result alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

/// Errors surfaced by the fabric simulator.
///
/// The simulator is deliberately strict: malformed accesses (out-of-bounds,
/// misaligned atomics, cross-server doorbell batches) indicate bugs in the
/// index layered on top, so they are reported instead of silently clamped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The target address does not fall inside the addressed region.
    OutOfBounds {
        /// Address that was accessed.
        addr: GlobalAddress,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the region that was addressed.
        region_len: usize,
    },
    /// An atomic verb was issued to a non-8-byte-aligned address.
    Misaligned {
        /// Address that was accessed.
        addr: GlobalAddress,
    },
    /// The memory-server id does not exist in this fabric.
    NoSuchServer {
        /// Offending server id.
        ms: u16,
    },
    /// A doorbell batch mixed commands for different memory servers.
    MixedBatch,
    /// An empty doorbell batch or read batch was posted.
    EmptyBatch,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfBounds {
                addr,
                len,
                region_len,
            } => write!(
                f,
                "access of {len} bytes at {addr} exceeds region of {region_len} bytes"
            ),
            SimError::Misaligned { addr } => {
                write!(f, "atomic access at {addr} is not 8-byte aligned")
            }
            SimError::NoSuchServer { ms } => write!(f, "memory server {ms} does not exist"),
            SimError::MixedBatch => write!(f, "doorbell batch addresses multiple memory servers"),
            SimError::EmptyBatch => write!(f, "empty command batch"),
        }
    }
}

impl std::error::Error for SimError {}
