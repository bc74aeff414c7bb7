//! Cache hit/miss/invalidation counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing index-cache effectiveness (Figure 15(c) plots the hit
/// ratio as the cache capacity grows).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    top_hits: AtomicU64,
    top_misses: AtomicU64,
    refreshes: AtomicU64,
    pressure_evictions: AtomicU64,
    stale_rejections: AtomicU64,
    levels_skipped: AtomicU64,
    deferred_admissions: AtomicU64,
    scan_fallbacks: AtomicU64,
}

impl CacheStats {
    /// Record a lookup that a cached level-1 image answered (the leaf address
    /// came straight from the cache).
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a lookup no cached level-1 image answered (a traversal follows,
    /// possibly from a deeper cached start).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an entry invalidated because fence keys or level did not match.
    pub fn record_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a capacity eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an eviction forced by a runtime budget shrink
    /// (`IndexCache::set_capacity_bytes` re-budgeting) rather than by
    /// ordinary insert-time capacity enforcement.  Pressure evictions are a
    /// *subset* of [`CacheStats::evictions`].
    pub fn record_pressure_eviction(&self) {
        self.pressure_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an insertion of a fresh entry.
    pub fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an offer rejected by the tombstone
    /// admission gate: the offered copy was not strictly newer than a
    /// coherence invalidation's tombstone version (the retire/re-cache race,
    /// caught).
    pub fn record_stale_rejection(&self) {
        self.stale_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts/refreshes rejected by the tombstone admission gate.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections.load(Ordering::Relaxed)
    }

    /// Record the levels a traversal did not have to read because the cache
    /// answered below the root (root level − start level).
    pub fn record_levels_skipped(&self, levels: u64) {
        self.levels_skipped.fetch_add(levels, Ordering::Relaxed);
    }

    /// Σ over cache-started traversals of (root level − start level); its
    /// mean per operation is the depth of the cached path prefix.
    pub fn levels_skipped(&self) -> u64 {
        self.levels_skipped.load(Ordering::Relaxed)
    }

    /// Record an offer rejected at a full budget: the image had not been
    /// offered more often than the would-be victim routed lookups, or the
    /// victim was the image's own parent.
    pub fn record_deferred_admission(&self) {
        self.deferred_admissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Offers rejected at a full budget (admission by frequency); the sketch
    /// still counted each one.
    pub fn deferred_admissions(&self) -> u64 {
        self.deferred_admissions.load(Ordering::Relaxed)
    }

    /// Record a range scan whose cached leaf batch failed the continuity
    /// check and fell back to the sibling chain.
    pub fn record_scan_fallback(&self) {
        self.scan_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Range scans that abandoned their cached leaf batch on a gap, an
    /// overlap or a retired leaf and continued along the sibling chain.
    pub fn scan_fallbacks(&self) -> u64 {
        self.scan_fallbacks.load(Ordering::Relaxed)
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries invalidated after a fence/level mismatch.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Capacity evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries inserted.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Record a traversal that started below the root (a cached image routed
    /// it).
    pub fn record_top_hit(&self) {
        self.top_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a traversal that found no usable cached image and started at
    /// the remote root.
    pub fn record_top_miss(&self) {
        self.top_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a structural commit's surviving image installed in the cache
    /// instead of the entry being merely scrubbed.
    pub fn record_refresh(&self) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Traversals that started below the root.
    pub fn top_hits(&self) -> u64 {
        self.top_hits.load(Ordering::Relaxed)
    }

    /// Traversals that started at the root.
    pub fn top_misses(&self) -> u64 {
        self.top_misses.load(Ordering::Relaxed)
    }

    /// Surviving images installed by structural commits.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Evictions forced by runtime budget shrinks (a subset of
    /// [`CacheStats::evictions`]).
    pub fn pressure_evictions(&self) -> u64 {
        self.pressure_evictions.load(Ordering::Relaxed)
    }

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
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        s.record_invalidation();
        s.record_eviction();
        s.record_insert();
        assert_eq!(s.invalidations(), 1);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.inserts(), 1);
    }

    #[test]
    fn top_level_counters_are_independent() {
        let s = CacheStats::default();
        assert_eq!(s.top_hit_ratio(), 0.0);
        s.record_top_hit();
        s.record_top_hit();
        s.record_top_miss();
        s.record_refresh();
        s.record_pressure_eviction();
        assert_eq!(s.top_hits(), 2);
        assert_eq!(s.top_misses(), 1);
        assert_eq!(s.refreshes(), 1);
        assert_eq!(s.pressure_evictions(), 1);
        assert_eq!(s.evictions(), 0, "pressure counter is its own tally");
        assert!((s.top_hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        // Level-1 hit/miss counters are untouched.
        assert_eq!(s.hits() + s.misses(), 0);
    }
}
