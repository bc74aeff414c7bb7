//! Cache-coherence gauges for the fabric-delivered invalidation channel.
//!
//! Structural commits no longer scrub remote compute servers' index caches
//! synchronously: they post `Invalidate` / `RefreshTop` messages through the
//! fabric, and each subscriber applies them when it drains its inbox at an
//! operation boundary.  That turns coherence into something *measurable*:
//!
//! * **posted vs applied** — how many messages are still in flight (the
//!   stale window's population),
//! * **apply lag** — virtual time from a message's post to its application
//!   at the subscriber (the stale window's duration),
//! * **stale hits** — reads that were routed by a cache entry the committer
//!   had already invalidated but whose message had not yet been applied.
//!
//! The family is one [`counters!`](crate::counters) declaration.  The cluster
//! owns it; the commit path (post), the drain path (apply) and the traversals
//! (stale hits) bump it, and `Cluster::coherence_stats` reads its snapshot.

crate::counters! {
    /// Shared atomic counters behind [`CoherenceGauges`]; owned by the cluster
    /// and bumped by the commit (post) and drain (apply) paths.
    pub struct CoherenceCounters {
        /// `Invalidate` messages posted toward remote inboxes.
        invalidations_posted: sum,
        /// `RefreshTop` messages posted toward remote inboxes.
        refreshes_posted: sum,
        /// Messages applied at subscribers (drained and acted upon).
        applied: sum,
        /// Committer-side synchronous applications to the committer's own cache
        /// (never lag; not part of posted/applied).
        local_applies: sum,
        /// Sum of post→apply lags over applied messages (virtual ns).
        apply_lag_ns_total: sum,
        /// Largest single post→apply lag observed (virtual ns).
        apply_lag_ns_max: max,
        /// Reads routed by a cache entry that an in-flight (posted, not yet
        /// applied) coherence message had already invalidated: the traversal
        /// noticed the freed node and fell back, but the stale route was taken.
        stale_hits: sum,
    }
    /// A plain-old-data summary of the coherence channel's behaviour over a run.
    pub struct CoherenceGauges;
}

impl CoherenceCounters {
    /// Record a message applied at a subscriber, `lag_ns` of virtual time
    /// after it was posted.
    pub fn record_applied(&self, lag_ns: u64) {
        self.applied.inc();
        self.apply_lag_ns_total.add(lag_ns);
        self.apply_lag_ns_max.raise(lag_ns);
    }
}

impl CoherenceGauges {
    /// Total messages posted toward remote inboxes.
    pub fn posted(&self) -> u64 {
        self.invalidations_posted + self.refreshes_posted
    }

    /// Messages posted but not yet applied (still in flight or sitting
    /// undrained in an inbox).
    pub fn pending(&self) -> u64 {
        self.posted().saturating_sub(self.applied)
    }

    /// Mean post→apply lag in virtual ns (0 when nothing was applied).
    pub fn mean_apply_lag_ns(&self) -> f64 {
        if self.applied == 0 {
            0.0
        } else {
            self.apply_lag_ns_total as f64 / self.applied as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_round_trips() {
        let c = CoherenceCounters::default();
        c.invalidations_posted.add(2);
        c.refreshes_posted.inc();
        c.record_applied(1_000);
        c.record_applied(3_000);
        let g = c.snapshot();
        assert_eq!(g.posted(), 3);
        assert_eq!(g.applied, 2);
        assert_eq!(g.pending(), 1);
        assert_eq!(g.apply_lag_ns_total, 4_000);
        assert_eq!(g.apply_lag_ns_max, 3_000);
        assert!((g.mean_apply_lag_ns() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let g = CoherenceGauges::default();
        assert_eq!(g.mean_apply_lag_ns(), 0.0);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_lag() {
        let mut a = CoherenceGauges {
            invalidations_posted: 2,
            refreshes_posted: 1,
            applied: 2,
            local_applies: 1,
            apply_lag_ns_total: 5_000,
            apply_lag_ns_max: 4_000,
            stale_hits: 1,
        };
        let b = CoherenceGauges {
            invalidations_posted: 1,
            refreshes_posted: 2,
            applied: 3,
            local_applies: 0,
            apply_lag_ns_total: 9_000,
            apply_lag_ns_max: 6_000,
            stale_hits: 0,
        };
        a.merge(&b);
        assert_eq!(a.posted(), 6);
        assert_eq!(a.applied, 5);
        assert_eq!(a.apply_lag_ns_total, 14_000);
        assert_eq!(a.apply_lag_ns_max, 6_000);
        assert_eq!(a.stale_hits, 1);
    }
}
