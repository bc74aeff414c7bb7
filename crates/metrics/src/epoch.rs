//! Gauges for the epoch-based reclamation (EBR) subsystem.
//!
//! The reclamation path (see `sherman_memserver`) pins a global epoch on
//! every tree operation and buckets retired node addresses by retirement
//! epoch; a bucket is recycled only once every pinned reader has advanced
//! past it.  These gauges make that machinery observable:
//!
//! * **epoch lag** — how far the oldest pinned reader trails the global
//!   epoch.  A persistently growing lag means a reader is stalled and
//!   reclamation is deferred behind it,
//! * **pinned buckets** — retired addresses whose recycling is currently
//!   blocked by a pinned reader (the memory a stall is holding hostage).

/// A point-in-time snapshot of the epoch-reclamation state.
///
/// Produced by the memory pool (`epoch_gauges()`); this crate only defines
/// the data shape so benches and tests can report it uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochGauges {
    /// The next epoch a retirement will be stamped with (equivalently: the
    /// number of retirements so far, plus one).
    pub global_epoch: u64,
    /// The oldest epoch any registered reader is currently pinned at.  Equal
    /// to [`EpochGauges::global_epoch`] when no reader is pinned, so that
    /// [`EpochGauges::epoch_lag`] reads zero at quiescence.
    pub min_pinned_epoch: u64,
    /// `global_epoch - min_pinned_epoch`: how far the oldest pinned reader
    /// trails the retirement frontier.  Zero when no reader is pinned.
    pub epoch_lag: u64,
    /// Readers registered with the epoch registry (one per tree client, plus
    /// any explicitly registered observers).
    pub registered_readers: u64,
    /// Readers currently inside a pinned section.
    pub pinned_readers: u64,
    /// Retired node addresses whose recycling is blocked by a pinned reader.
    pub pinned_buckets: u64,
    /// Total retired node addresses not yet moved to the ready pool
    /// (includes the pinned buckets).
    pub quarantined: u64,
}

impl EpochGauges {
    /// Assemble gauges from the raw registry readings.  `min_pinned` is
    /// `None` when no reader is pinned; the lag is then zero by definition.
    pub fn from_raw(
        global_epoch: u64,
        min_pinned: Option<u64>,
        registered_readers: u64,
        pinned_readers: u64,
        pinned_buckets: u64,
        quarantined: u64,
    ) -> Self {
        let min_pinned_epoch = min_pinned.unwrap_or(global_epoch);
        EpochGauges {
            global_epoch,
            min_pinned_epoch,
            epoch_lag: global_epoch.saturating_sub(min_pinned_epoch),
            registered_readers,
            pinned_readers,
            pinned_buckets,
            quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_zero_when_nothing_is_pinned() {
        let g = EpochGauges::from_raw(42, None, 3, 0, 0, 5);
        assert_eq!(g.min_pinned_epoch, 42);
        assert_eq!(g.epoch_lag, 0);
        assert_eq!(g.quarantined, 5);
    }

    #[test]
    fn lag_measures_the_oldest_pin() {
        let g = EpochGauges::from_raw(100, Some(60), 4, 2, 7, 9);
        assert_eq!(g.epoch_lag, 40);
        assert_eq!(g.pinned_readers, 2);
        assert_eq!(g.pinned_buckets, 7);
    }

    #[test]
    fn default_is_all_zero() {
        assert_eq!(EpochGauges::default(), EpochGauges::from_raw(0, None, 0, 0, 0, 0));
    }
}
