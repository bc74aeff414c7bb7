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
//! A right merge at a level's left edge, which the first leaf starts only
//! once empty, keeps the right leaf instead, counted as an **edge merge**.
//!
//! What the structural commits wrote back is split by [`StructuralKind`], so
//! a change that claims to cut those bytes can say which commits it cut.
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
        /// Leaf merges at a level's left edge that kept the right leaf: the
        /// first leaf, empty, was retired in its favour.  Also counted in
        /// `leaf_merges`.
        edge_merges: sum,
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
        /// Of `structural_bytes`, what splits wrote back (both halves).
        split_bytes: sum,
        /// Of `structural_bytes`, what separator insertions wrote back.
        separator_bytes: sum,
        /// Of `structural_bytes`, what root growths wrote back.
        root_growth_bytes: sum,
        /// Of `structural_bytes`, what merges other than edge merges wrote
        /// back (root collapses included).
        merge_bytes: sum,
        /// Of `structural_bytes`, what edge merges wrote back.
        edge_merge_bytes: sum,
        /// Of `structural_bytes`, what rebalances wrote back.
        rebalance_bytes: sum,
    }
    /// A point-in-time copy of [`SpaceCounters`].
    pub struct SpaceSnapshot;
}

/// What a structural commit did: the split of `structural_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructuralKind {
    /// A node (either level) split into two: its left half and the new right
    /// half.
    Split,
    /// A separator inserted into a parent with room for it.
    Separator,
    /// A new root installed above the old one.
    RootGrowth,
    /// Two siblings (either level) folded into one, the pair's parent
    /// written back with them; a root collapse is one.
    Merge,
    /// A merge at a level's left edge that kept the right leaf and retired
    /// the first.
    EdgeMerge,
    /// Entries moved between two siblings (either level), neither freed.
    Rebalance,
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

    /// Record one structural commit of `kind` whose node write-backs carried
    /// `bytes` bytes in all (lock-word releases not counted).
    pub fn record_structural_commit(&self, kind: StructuralKind, bytes: u64) {
        let by_kind = match kind {
            StructuralKind::Split => &self.split_bytes,
            StructuralKind::Separator => &self.separator_bytes,
            StructuralKind::RootGrowth => &self.root_growth_bytes,
            StructuralKind::Merge => &self.merge_bytes,
            StructuralKind::EdgeMerge => &self.edge_merge_bytes,
            StructuralKind::Rebalance => &self.rebalance_bytes,
        };
        by_kind.add(bytes);
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

    /// `structural_bytes` by the kind of commit that wrote them back.
    pub fn structural_bytes_by_kind(&self) -> [(StructuralKind, u64); 6] {
        [
            (StructuralKind::Split, self.split_bytes),
            (StructuralKind::Separator, self.separator_bytes),
            (StructuralKind::RootGrowth, self.root_growth_bytes),
            (StructuralKind::Merge, self.merge_bytes),
            (StructuralKind::EdgeMerge, self.edge_merge_bytes),
            (StructuralKind::Rebalance, self.rebalance_bytes),
        ]
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
        c.record_structural_commit(StructuralKind::Split, 1_040);
        c.record_structural_commit(StructuralKind::Separator, 32);
        let s = c.snapshot();
        assert_eq!(s.merges(), 3);
        assert_eq!(s.right_merges(), 2);
        assert_eq!((s.merge_routes_cached, s.merge_routes_remote), (2, 1));
        assert!((s.fallback_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!((s.structural_commits, s.structural_bytes), (2, 1_072));
        assert_eq!(s.bytes_per_structural_commit(), 536.0);
    }

    /// Every structural commit's bytes land in its kind's counter and in the
    /// total, so the kinds sum to `structural_bytes`.
    #[test]
    fn structural_bytes_split_by_kind_sum_to_the_total() {
        use StructuralKind::*;
        let c = SpaceCounters::default();
        let commits = [
            (Split, 568),
            (Separator, 48),
            (RootGrowth, 256),
            (Merge, 344),
            (EdgeMerge, 72),
            (Rebalance, 136),
            (Split, 360),
            (EdgeMerge, 88),
        ];
        for (kind, bytes) in commits {
            c.record_structural_commit(kind, bytes);
        }
        let s = c.snapshot();
        let by_kind = s.structural_bytes_by_kind();
        assert_eq!(by_kind.iter().map(|&(_, b)| b).sum::<u64>(), s.structural_bytes);
        assert_eq!(
            by_kind,
            [
                (Split, 928),
                (Separator, 48),
                (RootGrowth, 256),
                (Merge, 344),
                (EdgeMerge, 160),
                (Rebalance, 136),
            ]
        );
        assert_eq!(s.structural_commits, commits.len() as u64);
    }
}
