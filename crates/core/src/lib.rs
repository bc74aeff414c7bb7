//! # sherman — a write-optimized distributed B+Tree index on disaggregated memory
//!
//! This crate is the core contribution of the reproduction: the Sherman index
//! of Wang, Lu and Shu (SIGMOD 2022), built on the substrates in the sibling
//! crates (`sherman-sim`, `sherman-memserver`, `sherman-locks`,
//! `sherman-cache`).
//!
//! Sherman is a B-link tree whose nodes are spread over the host memory of a
//! set of memory servers; compute-server client threads perform every index
//! operation with one-sided RDMA verbs.  Reads are lock-free and validated
//! with versions; writes take a per-node exclusive lock.  Three techniques
//! give Sherman its write performance:
//!
//! 1. **Command combination** (§4.5) — dependent `RDMA_WRITE`s (node
//!    write-back, sibling write-back, lock release) are posted as one doorbell
//!    batch on an RC queue pair, exploiting in-order delivery to save round
//!    trips.
//! 2. **Hierarchical on-chip locks** (§4.3) — global lock tables live in NIC
//!    device memory (no PCIe transactions) and local lock tables queue
//!    conflicting threads inside each compute server, with fair wait queues
//!    and bounded lock handover.
//! 3. **Two-level versions** (§4.4) — leaf nodes are unsorted and every entry
//!    carries its own version pair, so an ordinary insert/update/delete writes
//!    back one entry instead of the whole node.
//!
//! The same engine also implements the paper's baselines: [`TreeOptions`]
//! switches each technique off independently, and the presets
//! [`TreeOptions::fg`], [`TreeOptions::fg_plus`], …, [`TreeOptions::sherman`]
//! reproduce the ablation ladder of Figures 10 and 11.
//!
//! Beyond the paper, deletes are **structural**: a leaf that drops below
//! [`TreeOptions::merge_threshold`] merges with a sibling under the same
//! parent — absorbing its right B-link sibling, or folding into its left
//! sibling when it is the rightmost child (direction-complete; pairs that do
//! not fit rebalance instead), separators are removed up the tree with root
//! collapse at the
//! top, and freed nodes are recycled by the allocator under **epoch-based
//! reclamation**: every operation pins the global epoch on entry, and a
//! retired address is recycled only once every reader pinned at or before its
//! retirement has finished.  Set the threshold to `0.0` to
//! reproduce the paper's grow-only behaviour; see `docs/ARCHITECTURE.md` for
//! the merge-path walkthrough.
//!
//! ## Quick start
//!
//! ```
//! use sherman::{Cluster, ClusterConfig, TreeOptions};
//!
//! // A small simulated cluster: 2 memory servers, 2 compute servers.
//! let mut config = ClusterConfig::small();
//! config.tree.leaf_fill = 0.8;
//! let cluster = Cluster::new(config, TreeOptions::sherman());
//!
//! // Bulkload a few keys, then operate through a client handle.
//! cluster.bulkload((0..1000u64).map(|k| (k, k * 10))).unwrap();
//! let mut client = cluster.client(0);
//! client.insert(2_000, 42).unwrap();
//! assert_eq!(client.lookup(2_000).unwrap().0, Some(42));
//! assert_eq!(client.lookup(500).unwrap().0, Some(5_000));
//! let (scan, _) = client.range(100, 16).unwrap();
//! assert_eq!(scan.len(), 16);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod cluster;
mod coherence;
mod commit;
pub mod config;
pub mod error;
mod exec;
pub mod layout;
pub mod node;
mod offload;
mod ops;
pub mod scheduler;
pub mod stats;

pub use client::TreeClient;
pub use cluster::{Cluster, ClusterConfig, NodeCensus, ShapeAudit};
pub use config::{LeafFormat, LockStrategy, OffloadPolicy, TreeConfig, TreeOptions};
pub use error::TreeError;
pub use layout::NodeLayout;
pub use node::{InternalEntry, InternalNode, LeafEntry, LeafNode, LeafSearch, NodeHeader};
pub use offload::{RpcDecline, RpcLeafReply, RpcNodeInfo, RpcRangeReply, RpcRequest, RpcResponse};
pub use ops::OpOutput;
pub use scheduler::{overlap_from_stats, PipelineOp, PipelineReport, PipelinedResult};
pub use stats::OpStats;

/// Result alias for tree operations.
pub type TreeResult<T> = Result<T, TreeError>;
