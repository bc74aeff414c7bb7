//! Counters for structural-delete and space-reclamation events.
//!
//! The paper never shrinks the tree, so these counters have no Figure to
//! match; they exist so that the churn benchmarks can report how much remote
//! memory structural deletes reclaim (merged nodes, retired addresses,
//! reused addresses) and derive a space-amplification figure from them.
//!
//! Merges are additionally broken down by **direction**: a right merge folds
//! a node's right B-link sibling into it, a left merge folds the node into
//! its left sibling (the parent-guided path taken when the node is the
//! rightmost child under its parent and therefore has no right sibling to
//! absorb).  A long churn run on a direction-complete merge engine shows both
//! kinds; zero left merges is the signature of the old rightmost-child leak.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters for structural tree-maintenance events.
///
/// One instance is shared by every client of a cluster; increments are relaxed
/// atomics because the counters are observability-only.
#[derive(Debug, Default)]
pub struct SpaceCounters {
    leaf_merges: AtomicU64,
    internal_merges: AtomicU64,
    left_merges: AtomicU64,
    rebalances: AtomicU64,
    internal_rebalances: AtomicU64,
    root_collapses: AtomicU64,
    optimistic_plans: AtomicU64,
    plan_fallbacks: AtomicU64,
    merge_routes_cached: AtomicU64,
    merge_routes_remote: AtomicU64,
    structural_commits: AtomicU64,
    structural_bytes: AtomicU64,
}

impl SpaceCounters {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one leaf merge (two adjacent leaves folded into one).
    pub fn record_leaf_merge(&self) {
        self.leaf_merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one internal-node merge.
    pub fn record_internal_merge(&self) {
        self.internal_merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a merge ran in the **left** direction: the underfull node
    /// (the rightmost child under its parent) was folded into its left
    /// sibling.  Incremented *in addition to* the leaf/internal merge counter.
    pub fn record_left_merge(&self) {
        self.left_merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one leaf rebalance (entries moved between sibling leaves,
    /// nothing freed).
    pub fn record_rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one internal rebalance (separators redistributed between
    /// sibling internal nodes whose combined entries do not fit in one node).
    pub fn record_internal_rebalance(&self) {
        self.internal_rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one root collapse (a single-child root was replaced by its
    /// child).
    pub fn record_root_collapse(&self) {
        self.root_collapses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one optimistic attempt at a merge's lock plan (every lock
    /// tried at once, in one round trip).
    pub fn record_optimistic_plan(&self) {
        self.optimistic_plans.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that an optimistic attempt lost a lock and the plan fell back
    /// to the rank-ordered acquisition.
    pub fn record_plan_fallback(&self) {
        self.plan_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one merge-partner discovery: routed by the index cache's image
    /// of the parent (`cached`) or by a remote read of it.
    pub fn record_merge_route(&self, cached: bool) {
        let routes = match cached {
            true => &self.merge_routes_cached,
            false => &self.merge_routes_remote,
        };
        routes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one structural commit — a split, a separator insertion, a root
    /// growth, a merge or a rebalance — whose node write-backs carried
    /// `bytes` bytes in all (lock-word releases not counted).
    pub fn record_structural_commit(&self, bytes: u64) {
        self.structural_commits.fetch_add(1, Ordering::Relaxed);
        self.structural_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Capture the current values.
    pub fn snapshot(&self) -> SpaceSnapshot {
        SpaceSnapshot {
            leaf_merges: self.leaf_merges.load(Ordering::Relaxed),
            internal_merges: self.internal_merges.load(Ordering::Relaxed),
            left_merges: self.left_merges.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            internal_rebalances: self.internal_rebalances.load(Ordering::Relaxed),
            root_collapses: self.root_collapses.load(Ordering::Relaxed),
            optimistic_plans: self.optimistic_plans.load(Ordering::Relaxed),
            plan_fallbacks: self.plan_fallbacks.load(Ordering::Relaxed),
            merge_routes_cached: self.merge_routes_cached.load(Ordering::Relaxed),
            merge_routes_remote: self.merge_routes_remote.load(Ordering::Relaxed),
            structural_commits: self.structural_commits.load(Ordering::Relaxed),
            structural_bytes: self.structural_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`SpaceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SpaceSnapshot {
    /// Leaf pairs folded into one leaf.
    pub leaf_merges: u64,
    /// Internal-node pairs folded into one node.
    pub internal_merges: u64,
    /// Merges (leaf or internal) that ran in the left direction — the
    /// underfull rightmost child folded into its left sibling.  Also counted
    /// in `leaf_merges` / `internal_merges`.
    pub left_merges: u64,
    /// Leaf rebalances that moved entries without freeing a node.
    pub rebalances: u64,
    /// Internal rebalances that redistributed separators without freeing a
    /// node.
    pub internal_rebalances: u64,
    /// Root nodes collapsed into their single remaining child.
    pub root_collapses: u64,
    /// Merge lock plans tried optimistically: every lock at once, each with
    /// its node read folded in, one round trip (command combination only).
    pub optimistic_plans: u64,
    /// Optimistic plans that lost a lock, gave back what they had won and
    /// fell back to the rank-ordered acquisition.
    pub plan_fallbacks: u64,
    /// Merge-partner discoveries routed by the index cache's image of the
    /// parent.
    pub merge_routes_cached: u64,
    /// Merge-partner discoveries that read the parent remotely.
    pub merge_routes_remote: u64,
    /// Structural commits: splits (either level), separator insertions, root
    /// growths, merges and rebalances.
    pub structural_commits: u64,
    /// Bytes the node write-backs of those commits carried.
    pub structural_bytes: u64,
}

impl SpaceSnapshot {
    /// Total structural merge operations (leaf + internal).
    pub fn merges(&self) -> u64 {
        self.leaf_merges + self.internal_merges
    }

    /// Merges that ran in the right direction (a right sibling was absorbed).
    pub fn right_merges(&self) -> u64 {
        self.merges().saturating_sub(self.left_merges)
    }

    /// Mean bytes a structural commit wrote back (0 when there was none).
    pub fn bytes_per_structural_commit(&self) -> f64 {
        self.structural_bytes as f64 / self.structural_commits.max(1) as f64
    }

    /// Share of optimistic lock plans that fell back (0 when none was tried).
    pub fn fallback_share(&self) -> f64 {
        self.plan_fallbacks as f64 / self.optimistic_plans.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = SpaceCounters::new();
        c.record_leaf_merge();
        c.record_leaf_merge();
        c.record_left_merge();
        c.record_internal_merge();
        c.record_rebalance();
        c.record_internal_rebalance();
        c.record_root_collapse();
        for cached in [true, true, false] {
            c.record_optimistic_plan();
            c.record_merge_route(cached);
        }
        c.record_plan_fallback();
        c.record_structural_commit(1_040);
        c.record_structural_commit(32);
        let s = c.snapshot();
        assert_eq!(s.leaf_merges, 2);
        assert_eq!(s.internal_merges, 1);
        assert_eq!(s.left_merges, 1);
        assert_eq!(s.rebalances, 1);
        assert_eq!(s.internal_rebalances, 1);
        assert_eq!(s.root_collapses, 1);
        assert_eq!(s.merges(), 3);
        assert_eq!(s.right_merges(), 2);
        assert_eq!((s.optimistic_plans, s.plan_fallbacks), (3, 1));
        assert_eq!((s.merge_routes_cached, s.merge_routes_remote), (2, 1));
        assert!((s.fallback_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!((s.structural_commits, s.structural_bytes), (2, 1_072));
        assert_eq!(s.bytes_per_structural_commit(), 536.0);
    }

    #[test]
    fn default_snapshot_is_zero() {
        assert_eq!(SpaceCounters::new().snapshot(), SpaceSnapshot::default());
    }
}
