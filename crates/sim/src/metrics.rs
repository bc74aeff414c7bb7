//! Fabric-wide operation counters.
//!
//! These counters underpin the paper's "in-depth analysis" (Figure 14): number
//! of round trips, verb mix, bytes moved, and atomic retries.  They are cheap
//! relaxed atomics so that hot paths can update them unconditionally; per-op
//! distributions (histograms, CDFs) are built client-side from each
//! operation's own record, [`crate::client::OpVerbStats`].
//!
//! The family is one [`sherman_metrics::counters!`] declaration, one instance
//! per fabric.  Every post adds to it in the step that adds to the op's and
//! the client's records; the benchmark, the bench drivers and the
//! backend-equivalence tests read its snapshot.

sherman_metrics::counters! {
    /// Global counters for one fabric instance.
    pub struct FabricMetrics {
        /// Completed one-sided `RDMA_READ` verbs.
        reads: sum,
        /// Completed one-sided `RDMA_WRITE` verbs (batched writes count each
        /// entry).
        writes: sum,
        /// Completed atomic verbs (`CAS`, `FAA`, masked `CAS`).
        atomics: sum,
        /// Atomic verbs that targeted on-chip (device) memory.
        onchip_atomics: sum,
        /// Completed two-sided RPC round trips.
        rpcs: sum,
        /// Network round trips (a doorbell batch counts once).
        round_trips: sum,
        /// Round trips posted while another verb of the same client was still
        /// in flight (split-phase overlap; see
        /// `ClientStats::overlapped_round_trips`).
        overlapped_round_trips: sum,
        /// Payload bytes written to memory servers.
        bytes_written: sum,
        /// Payload bytes read from memory servers.
        bytes_read: sum,
    }
    /// A plain-old-data snapshot of [`FabricMetrics`].
    pub struct MetricsSnapshot;
}

impl MetricsSnapshot {
    /// Total verbs of any kind.
    pub fn total_verbs(&self) -> u64 {
        self.reads + self.writes + self.atomics + self.rpcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let m = FabricMetrics::default();
        m.reads.add(5);
        m.bytes_read.add(5 * 1024);
        let first = m.snapshot();
        m.reads.add(2);
        m.writes.add(3);
        let second = m.snapshot();
        let d = second.delta_since(&first);
        assert_eq!(d.reads, 2);
        assert_eq!(d.writes, 3);
        assert_eq!(d.bytes_read, 0);
        assert_eq!(second.total_verbs(), 10);
    }
}
