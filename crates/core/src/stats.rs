//! Per-operation statistics.
//!
//! Figure 14 of the paper analyses Sherman through internal metrics: round
//! trips per write operation, bytes written per write operation, and read
//! retries.  Every [`crate::TreeClient`] operation returns an [`OpStats`] so
//! that the benchmark harness can build those distributions without touching
//! the index internals.

use crate::ops::OpMeta;
use sherman_sim::OpVerbStats;

/// What one index operation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Network round trips (doorbell batches and parallel read batches count
    /// once).
    pub round_trips: u64,
    /// One-sided reads issued.
    pub reads: u64,
    /// One-sided writes issued.
    pub writes: u64,
    /// Atomic verbs issued.
    pub atomics: u64,
    /// Typed RPCs issued (server-side traversal offload).
    pub rpcs: u64,
    /// Payload bytes written to memory servers.
    pub bytes_written: u64,
    /// Payload bytes read from memory servers.
    pub bytes_read: u64,
    /// Failed remote lock acquisitions.
    pub lock_retries: u64,
    /// Re-reads forced by version / checksum mismatches.
    pub read_retries: u64,
    /// Whether the node lock was obtained through a local handover.
    pub handed_over: bool,
    /// Whether the leaf address came from the index cache.
    pub cache_hit: bool,
    /// Virtual time the operation took, in nanoseconds.
    pub latency_ns: u64,
}

impl OpStats {
    /// What one operation cost: its verb counts and time from its record,
    /// the retries and the paths it took from what it met on the way.  The
    /// blocking entry points and the pipelined scheduler both report through
    /// here.
    pub(crate) fn new(record: &OpVerbStats, meta: &OpMeta) -> Self {
        OpStats {
            round_trips: record.round_trips,
            reads: record.reads,
            writes: record.writes,
            atomics: record.atomics,
            rpcs: record.rpcs,
            bytes_written: record.bytes_written,
            bytes_read: record.bytes_read,
            lock_retries: meta.lock_retries,
            read_retries: meta.read_retries,
            handed_over: meta.handed_over,
            cache_hit: meta.cache_hit,
            latency_ns: record.latency_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An operation's stats are its record's counts and time, and the
    /// retries and paths its book-keeping noted.  (That a record counts what
    /// the operation posted is the simulator's test,
    /// `an_op_record_is_its_verbs_and_its_time`.)
    #[test]
    fn an_op_costs_its_record_and_what_it_met() {
        let mut record = OpVerbStats::default();
        (record.round_trips, record.reads, record.writes) = (3, 1, 2);
        (record.atomics, record.rpcs) = (1, 1);
        (record.bytes_read, record.bytes_written) = (256, 32);
        (record.verb_ns, record.cpu_ns) = (2_000, 100);
        let meta = OpMeta {
            lock_retries: 2,
            read_retries: 1,
            handed_over: true,
            ..OpMeta::default()
        };
        let s = OpStats::new(&record, &meta);
        assert_eq!(
            (s.round_trips, s.reads, s.writes, s.atomics, s.rpcs),
            (3, 1, 2, 1, 1)
        );
        assert_eq!((s.bytes_read, s.bytes_written), (256, 32));
        assert_eq!(s.latency_ns, 2_100);
        assert_eq!((s.lock_retries, s.read_retries), (2, 1));
        assert!(s.handed_over && !s.cache_hit);
    }
}
