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
//!
//! The family is one [`counters!`](crate::counters) declaration, shared by
//! every client of a cluster.  The commit paths bump it, and
//! `Cluster::space_stats` reads its snapshot for the churn gates and the
//! benchmark.

crate::counters! {
    /// Thread-safe counters for structural tree-maintenance events.
    ///
    /// One instance is shared by every client of a cluster; increments are relaxed
    /// atomics because the counters are observability-only.
    pub struct SpaceCounters {
        /// Leaf pairs folded into one leaf.
        leaf_merges: sum,
        /// Internal-node pairs folded into one node.
        internal_merges: sum,
        /// Merges (leaf or internal) that ran in the left direction — the
        /// underfull rightmost child folded into its left sibling.  Also counted
        /// in `leaf_merges` / `internal_merges`.
        left_merges: sum,
        /// Leaf rebalances that moved entries without freeing a node.
        rebalances: sum,
        /// Internal rebalances that redistributed separators without freeing a
        /// node.
        internal_rebalances: sum,
        /// Root nodes collapsed into their single remaining child.
        root_collapses: sum,
        /// Merge lock plans tried optimistically: every lock at once, each with
        /// its node read folded in, one round trip (command combination only).
        optimistic_plans: sum,
        /// Optimistic plans that lost a lock, gave back what they had won and
        /// fell back to the rank-ordered acquisition.
        plan_fallbacks: sum,
        /// Merge-partner discoveries routed by the index cache's image of the
        /// parent.
        merge_routes_cached: sum,
        /// Merge-partner discoveries that read the parent remotely.
        merge_routes_remote: sum,
        /// Structural commits: splits (either level), separator insertions, root
        /// growths, merges and rebalances.
        structural_commits: sum,
        /// Bytes the node write-backs of those commits carried (lock-word
        /// releases not counted).
        structural_bytes: sum,
    }
    /// A point-in-time copy of [`SpaceCounters`].
    pub struct SpaceSnapshot;
}

impl SpaceCounters {
    /// Record one merge-partner discovery: routed by the index cache's image
    /// of the parent (`cached`) or by a remote read of it.
    pub fn record_merge_route(&self, cached: bool) {
        match cached {
            true => self.merge_routes_cached.inc(),
            false => self.merge_routes_remote.inc(),
        }
    }

    /// Record one structural commit — a split, a separator insertion, a root
    /// growth, a merge or a rebalance — whose node write-backs carried
    /// `bytes` bytes in all (lock-word releases not counted).
    pub fn record_structural_commit(&self, bytes: u64) {
        self.structural_commits.inc();
        self.structural_bytes.add(bytes);
    }
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
        let c = SpaceCounters::default();
        c.leaf_merges.add(2);
        c.left_merges.inc();
        c.internal_merges.inc();
        c.optimistic_plans.add(3);
        for cached in [true, true, false] {
            c.record_merge_route(cached);
        }
        c.plan_fallbacks.inc();
        c.record_structural_commit(1_040);
        c.record_structural_commit(32);
        let s = c.snapshot();
        assert_eq!(s.merges(), 3);
        assert_eq!(s.right_merges(), 2);
        assert_eq!((s.merge_routes_cached, s.merge_routes_remote), (2, 1));
        assert!((s.fallback_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!((s.structural_commits, s.structural_bytes), (2, 1_072));
        assert_eq!(s.bytes_per_structural_commit(), 536.0);
    }
}
