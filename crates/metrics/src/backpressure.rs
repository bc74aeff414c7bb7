//! Allocation-backpressure observability.
//!
//! When the memory pool runs near exhaustion, allocation turns from an
//! infallible fast path into a contended resource: chunk requests start
//! bouncing off full servers, the allocator falls back to recycling retired
//! addresses, and — once even the free lists are dry — operations surface a
//! typed exhaustion error instead of panicking.  These counters make that
//! regime visible so the hostile-scenario harness can gate on "the run hit
//! backpressure and survived" rather than "the run happened not to run out".
//!
//! The family is one [`counters!`](crate::counters) declaration; the memory
//! pool owns it, every client allocator bumps it, and the benchmark and the
//! hostile suite read its snapshot.

crate::counters! {
    /// Shared counters for allocation-backpressure events, owned by the memory
    /// pool and bumped by every client allocator.
    pub struct BackpressureCounters {
        /// Chunk requests denied by a full memory server.
        chunk_denials: sum,
        /// Allocations that failed with a typed exhaustion error: every server
        /// was out of chunks and no retired address was reusable.
        exhaustion_events: sum,
        /// Allocations rescued by free-list reuse after every server was full.
        reuse_rescues: sum,
    }
    /// A point-in-time copy of [`BackpressureCounters`].
    pub struct BackpressureSnapshot;
}

impl BackpressureSnapshot {
    /// Whether the run saw allocation backpressure at all.
    pub fn saw_pressure(&self) -> bool {
        self.chunk_denials > 0 || self.exhaustion_events > 0 || self.reuse_rescues > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = BackpressureCounters::default();
        assert!(!c.snapshot().saw_pressure());
        for field in [&c.chunk_denials, &c.exhaustion_events, &c.reuse_rescues] {
            field.inc();
            assert!(c.snapshot().saw_pressure());
            field.set(0);
        }
    }
}
