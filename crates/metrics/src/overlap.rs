//! Overlap gauges for the split-phase fabric.
//!
//! A blocking client keeps exactly one verb in flight, so its round trips
//! serialize end-to-end.  The pipelined scheduler multiplexes several logical
//! operations over one fabric context, and these gauges quantify how much of
//! that parallelism actually materialized on the virtual clock:
//!
//! * **in-flight depth** — how many verbs were outstanding when each round
//!   trip posted (max and mean),
//! * **overlapped round trips** — how many round trips had their service
//!   window overlap another outstanding verb's window,
//! * **overlap factor** — the sum of every verb's post→completion window
//!   divided by the elapsed virtual time: `1.0` means fully serial, `N`
//!   means `N` round trips were hidden inside each other on average.

/// A plain-old-data summary of one run's verb overlap, built from the fabric
/// client's counters (`ClientStats`) plus the run's elapsed virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapGauges {
    /// Round trips posted during the run.
    pub round_trips: u64,
    /// Round trips whose service window overlapped another outstanding verb.
    pub overlapped_round_trips: u64,
    /// High-water mark of simultaneously outstanding verbs.
    pub max_in_flight: u64,
    /// Sum over posts of the in-flight depth right after each post.
    pub in_flight_posts: u64,
    /// Sum of every verb's post→completion window (virtual ns): the *serial*
    /// time the verbs would have cost end-to-end.
    pub serial_verb_ns: u64,
    /// Elapsed virtual time (ns): one run's wall time for a single-client
    /// gauge, the *sum* of per-thread elapsed times after [`OverlapGauges::merge`]
    /// — so `overlap_factor()` stays a per-thread ratio either way.
    pub elapsed_ns: u64,
}

impl OverlapGauges {
    /// Mean number of verbs in flight at post time (1.0 for a blocking
    /// client).
    pub fn mean_in_flight(&self) -> f64 {
        if self.round_trips == 0 {
            0.0
        } else {
            self.in_flight_posts as f64 / self.round_trips as f64
        }
    }

    /// Fraction of round trips that overlapped another outstanding verb.
    pub fn overlapped_fraction(&self) -> f64 {
        if self.round_trips == 0 {
            0.0
        } else {
            self.overlapped_round_trips as f64 / self.round_trips as f64
        }
    }

    /// Serial verb time over elapsed time: how many round trips were hidden
    /// inside each other on average (≈1.0 when blocking, >1 when pipelined).
    pub fn overlap_factor(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.serial_verb_ns as f64 / self.elapsed_ns as f64
        }
    }

    /// Merge another thread's gauges into this one: counts add, the
    /// high-water mark takes the max, and elapsed times **add** — the gauges
    /// measure *per-thread* latency hiding, so the denominator is aggregate
    /// thread-time, keeping a fully blocking multi-thread run's
    /// `overlap_factor()` at ≈1.0 instead of inflating it by cross-thread
    /// parallelism.
    pub fn merge(&mut self, other: &OverlapGauges) {
        self.round_trips += other.round_trips;
        self.overlapped_round_trips += other.overlapped_round_trips;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.in_flight_posts += other.in_flight_posts;
        self.serial_verb_ns += other.serial_verb_ns;
        self.elapsed_ns += other.elapsed_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_run_reads_as_serial() {
        let g = OverlapGauges {
            round_trips: 10,
            overlapped_round_trips: 0,
            max_in_flight: 1,
            in_flight_posts: 10,
            serial_verb_ns: 20_000,
            elapsed_ns: 20_000,
        };
        assert_eq!(g.mean_in_flight(), 1.0);
        assert_eq!(g.overlapped_fraction(), 0.0);
        assert_eq!(g.overlap_factor(), 1.0);
    }

    #[test]
    fn pipelined_run_shows_overlap() {
        let g = OverlapGauges {
            round_trips: 8,
            overlapped_round_trips: 6,
            max_in_flight: 4,
            in_flight_posts: 24,
            serial_verb_ns: 32_000,
            elapsed_ns: 10_000,
        };
        assert!(g.mean_in_flight() > 2.9);
        assert!(g.overlapped_fraction() > 0.7);
        assert!(g.overlap_factor() > 3.0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_highwater() {
        let mut a = OverlapGauges {
            round_trips: 4,
            overlapped_round_trips: 1,
            max_in_flight: 2,
            in_flight_posts: 6,
            serial_verb_ns: 8_000,
            elapsed_ns: 5_000,
        };
        let b = OverlapGauges {
            round_trips: 6,
            overlapped_round_trips: 5,
            max_in_flight: 4,
            in_flight_posts: 20,
            serial_verb_ns: 12_000,
            elapsed_ns: 4_000,
        };
        a.merge(&b);
        assert_eq!(a.round_trips, 10);
        assert_eq!(a.overlapped_round_trips, 6);
        assert_eq!(a.max_in_flight, 4);
        assert_eq!(a.in_flight_posts, 26);
        assert_eq!(a.serial_verb_ns, 20_000);
        assert_eq!(a.elapsed_ns, 9_000, "elapsed sums: aggregate thread-time");
    }

    #[test]
    fn merged_blocking_threads_still_read_as_serial() {
        // Two fully blocking threads: each has serial verb time ≈ its own
        // elapsed.  The merged factor must stay ≈1.0, not ≈thread-count.
        let mut a = OverlapGauges {
            round_trips: 10,
            overlapped_round_trips: 0,
            max_in_flight: 1,
            in_flight_posts: 10,
            serial_verb_ns: 20_000,
            elapsed_ns: 20_000,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.overlap_factor(), 1.0);
        assert_eq!(a.mean_in_flight(), 1.0);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let g = OverlapGauges::default();
        assert_eq!(g.mean_in_flight(), 0.0);
        assert_eq!(g.overlapped_fraction(), 0.0);
        assert_eq!(g.overlap_factor(), 0.0);
    }
}
