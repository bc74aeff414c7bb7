//! # sherman-memserver — memory-server substrate
//!
//! Memory servers in the disaggregated architecture host the bulk of DRAM but
//! have near-zero compute: 1–2 wimpy cores that only perform lightweight
//! management such as connection setup and memory allocation (§2.1, §4.2.4 of
//! the Sherman paper).  This crate implements that management plane on top of
//! the fabric simulator:
//!
//! * [`layout`] — the on-server memory layout: a reserved superblock holding
//!   the tree's root pointer, followed by the chunk-allocated area; plus the
//!   global-lock-table layout of the NIC's on-chip memory,
//! * [`ChunkAllocator`] — the per-server fixed-size chunk allocator run by the
//!   memory thread,
//! * [`MemoryPool`] — the cluster-wide view a compute server uses to request
//!   chunks over (simulated) RPC,
//! * [`ClientAllocator`] — the compute-side second stage of the paper's
//!   two-stage allocation scheme: round-robin chunk acquisition, local node
//!   carving, and a free bit on deallocation instead of heavyweight GC,
//! * [`NodeFreeList`] — the reclamation path the paper omits: node addresses
//!   retired by structural deletes are quarantined per server until no
//!   reader can still reach them, then become allocatable again,
//! * [`epoch`] — the epoch-based reclamation (EBR) registry that decides
//!   when that is: every tree operation pins the global epoch on entry; a
//!   retired address is recycled only once every reader pinned at or before
//!   its retirement has unpinned.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod client_alloc;
pub mod epoch;
pub mod layout;
pub mod pool;

pub use alloc::{ChunkAllocator, FreeListStats, NodeFreeList, ReusedNode, StaleSlots, Tombstone};
pub use client_alloc::{AllocatedNode, ClientAllocator, Holds};
pub use epoch::{EpochPin, EpochRegistry, ReaderHandle, UNPINNED_EPOCH};
pub use layout::{ServerLayout, ALLOC_START_OFFSET, ROOT_PTR_OFFSET, SUPERBLOCK_MAGIC};
pub use pool::{AllocError, GrantedChunk, MemoryPool, PoolError};
