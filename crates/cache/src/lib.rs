//! # sherman-cache — the compute-server index cache
//!
//! Tree traversal from the root to a leaf would cost one `RDMA_READ` per
//! level.  Sherman avoids that with a compute-server-side *index cache*
//! (§4.2.3).  The paper describes it as two fixed shapes — type ❶, copies of
//! the internal nodes one level above the leaves in a byte budget with
//! power-of-two-choices eviction, and type ❷, the highest two levels, always
//! cached.  That is the best use of memory exactly when level 1 fits the
//! budget.
//!
//! This crate keeps **one** cache of internal-node images at every level
//! ([`IndexCache`]): the top two levels stay pinned outside the budget, and
//! every level below shares the byte budget, spent top-down along the paths
//! the traffic uses.  An image is charged the used prefix of the node it
//! copies, admitted only under a cached parent, evicted only once it has no
//! cached child, and — once the budget is full — admitted only over victims
//! that each routed fewer lookups than the image was offered.
//! A lookup returns the *deepest* cached image
//! covering the key: a level-1 answer turns the operation into a single
//! leaf-node `RDMA_READ`, a level-ℓ answer lets the traversal start at level
//! ℓ−1, so a miss pays only the uncached suffix of the path.  Whenever level 1
//! fits, the cached set is the paper's: all of level 1 plus the top two
//! levels.
//!
//! The cache never needs a coherence protocol for correctness: every node
//! carries fence keys and its level, so a client that fetches a node through
//! a stale cached pointer detects the mismatch, drops the routing image and
//! falls back to a traversal (§4.2.3).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod index_cache;
pub mod stats;

pub use index_cache::{CachedInternal, ChildRef, IndexCache, IndexCacheConfig};
pub use stats::CacheStats;
