//! Cache hit/miss/invalidation counters.
//!
//! The family is one [`sherman_metrics::counters!`] declaration, one instance
//! per index cache.  The cache bumps most fields itself; the traversals bump
//! the top-level and scan fields.  The bench drivers, the benchmark and the
//! cache tests read the getters.

sherman_metrics::counters! {
    /// Counters describing index-cache effectiveness (Figure 15(c) plots the hit
    /// ratio as the cache capacity grows).
    pub struct CacheStats {
        /// Lookups a cached level-1 image answered (the leaf address came
        /// straight from the cache).
        hits: sum,
        /// Lookups no cached level-1 image answered (a traversal follows,
        /// possibly from a deeper cached start).
        misses: sum,
        /// Entries invalidated after a fence/level mismatch.
        invalidations: sum,
        /// Capacity evictions performed.
        evictions: sum,
        /// Entries inserted.
        inserts: sum,
        /// Traversals that started below the root (a cached image routed
        /// them).
        top_hits: sum,
        /// Traversals that found no usable cached image and started at the
        /// remote root.
        top_misses: sum,
        /// Surviving images a structural commit installed in the cache instead
        /// of merely scrubbing the entry.
        refreshes: sum,
        /// Evictions forced by a runtime budget shrink
        /// (`IndexCache::set_capacity_bytes` re-budgeting) rather than by
        /// ordinary insert-time capacity enforcement: a subset of
        /// [`CacheStats::evictions`].
        pressure_evictions: sum,
        /// Offers rejected by the tombstone admission gate: the offered copy
        /// was not strictly newer than a coherence invalidation's tombstone
        /// version (the retire/re-cache race, caught).
        stale_rejections: sum,
        /// Σ over cache-started traversals of (root level − start level): the
        /// levels they did not read.  Its mean per operation is the depth of
        /// the cached path prefix.
        levels_skipped: sum,
        /// Offers rejected at a full budget (admission by frequency): the image
        /// had not been offered more often than the would-be victim routed
        /// lookups, or the victim was the image's own parent.  The sketch
        /// still counted each one.
        deferred_admissions: sum,
        /// Range scans that abandoned their cached leaf batch on a gap, an
        /// overlap or a retired leaf and continued along the sibling chain.
        scan_fallbacks: sum,
    }
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups were recorded).
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Share of traversals that started below the root, in `[0, 1]` (0 when
    /// none were recorded).
    pub fn top_hit_ratio(&self) -> f64 {
        let h = self.top_hits() as f64;
        let m = self.top_misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_is_computed_safely() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits.add(3);
        s.misses.inc();
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn top_level_counters_are_independent() {
        let s = CacheStats::default();
        assert_eq!(s.top_hit_ratio(), 0.0);
        s.top_hits.add(2);
        s.top_misses.inc();
        assert!((s.top_hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        // The level-1 ratio is untouched.
        assert_eq!(s.hit_ratio(), 0.0);
    }
}
