//! Server-side traversal-offload gauges.
//!
//! The adaptive placement policy ([FlexKV/Outback-style index offloading)
//! decides per operation whether a cache-miss traversal runs as a chain of
//! one-sided reads (client-side) or as one typed RPC the memory server's
//! bounded interpreter executes (server-side).  These counters make that
//! decision loop observable:
//!
//! * **decisions / offloaded / local** — how often each arm was taken,
//! * **wins / losses** — offloaded ops that saved at least one dependent
//!   round trip vs ones the server declined or the client had to redo,
//! * **declined** — interpreter give-ups (torn image, freed node, fence
//!   miss, budget) that fell back to the local path,
//! * **stale_rejects** — server replies the client's tombstone admission
//!   floor rejected (the leaf image predated a known free/recycle),
//! * **ewma_read_ns** — the client-side dependent-read latency estimate the
//!   adaptive policy thresholds against,
//! * **ewma_rpc_ns** — the observed round-trip latency of offloaded RPCs;
//!   unlike the modeled cost it includes queueing at the memory server's
//!   wimpy core, which is what makes the adaptive policy back off when
//!   every client piles onto the same home server.
//!
//! The family is one [`counters!`](crate::counters) declaration, one instance
//! per compute server.  The ops state machines bump it, the adaptive policy
//! reads its two EWMAs, and `Cluster::offload_stats` merges the snapshots.

crate::counters! {
    /// Shared atomic counters behind [`OffloadGauges`]; one per compute server,
    /// owned by the cluster and bumped by the ops state machines.
    pub struct OffloadCounters {
        /// Placement decisions taken at cache-miss (and, under `Always`,
        /// cache-hit) boundaries.
        decisions: sum,
        /// Decisions that posted a server-side RPC.
        offloaded: sum,
        /// Decisions that stayed on the client-side one-sided path.
        local: sum,
        /// Offloaded ops whose reply resolved the traversal (saved the
        /// dependent read chain).
        wins: sum,
        /// Offloaded ops that still had to fall back to the local path (the
        /// RPC was pure overhead).
        losses: sum,
        /// Server-side interpreter declines (torn image, freed node, fence
        /// miss, or exhausted budget).
        declined: sum,
        /// Server replies rejected by the client's tombstone admission floor
        /// (the returned node image predated a known free/recycle).
        stale_rejects: sum,
        /// Dependent-read latency EWMA in ns (0 until the first read is
        /// observed); max across merged servers.
        ewma_read_ns: max,
        /// Offload-RPC round-trip latency EWMA in ns, queueing included (0
        /// until the first RPC completes); max across merged servers.
        ewma_rpc_ns: max,
    }
    /// Plain-old-data snapshot of one (or a merged set of) compute servers'
    /// offload counters.
    pub struct OffloadGauges;
}

/// One α = 1/8 EWMA step; the first sample seeds the average.
fn observe_ewma(ewma: &crate::Counter, ns: u64) {
    let cur = ewma.get();
    ewma.set(if cur == 0 { ns } else { cur - cur / 8 + ns / 8 });
}

impl OffloadCounters {
    /// Feed one completed dependent read's service time into the EWMA the
    /// adaptive policy thresholds against (α = 1/8).
    pub fn observe_read_ns(&self, ns: u64) {
        observe_ewma(&self.ewma_read_ns, ns);
    }

    /// Feed one completed offload RPC's round-trip time into the EWMA
    /// (α = 1/8).  This is the *observed* cost of the server-side arm —
    /// service queueing included — where the config-derived estimate only
    /// models an unloaded server.
    pub fn observe_rpc_ns(&self, ns: u64) {
        observe_ewma(&self.ewma_rpc_ns, ns);
    }

    /// Record one placement decision and which arm it took.
    pub fn record_decision(&self, offloaded: bool) {
        self.decisions.inc();
        if offloaded {
            self.offloaded.inc();
        } else {
            self.local.inc();
        }
    }
}

impl OffloadGauges {
    /// Fraction of decisions that offloaded (0.0 when none were taken).
    pub fn offload_ratio(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.decisions as f64
        }
    }

    /// Fraction of offloaded ops that won (0.0 when none offloaded).
    pub fn win_ratio(&self) -> f64 {
        if self.offloaded == 0 {
            0.0
        } else {
            self.wins as f64 / self.offloaded as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_toward_observations() {
        let c = OffloadCounters::default();
        assert_eq!(c.ewma_read_ns(), 0);
        c.observe_read_ns(1_000);
        assert_eq!(c.ewma_read_ns(), 1_000, "first sample seeds the EWMA");
        for _ in 0..64 {
            c.observe_read_ns(9_000);
        }
        let v = c.ewma_read_ns();
        assert!(v > 8_000 && v <= 9_000, "EWMA converged to {v}");
        // The RPC EWMA is independent of the read EWMA.
        assert_eq!(c.ewma_rpc_ns(), 0);
        c.observe_rpc_ns(4_000);
        assert_eq!(c.ewma_rpc_ns(), 4_000, "first sample seeds the EWMA");
        assert!(c.ewma_read_ns() == v, "read EWMA untouched by RPC samples");
    }

    #[test]
    fn counters_snapshot_and_ratios() {
        let c = OffloadCounters::default();
        c.record_decision(true);
        c.record_decision(true);
        c.record_decision(false);
        c.wins.inc();
        let g = c.snapshot();
        assert_eq!(g.decisions, 3);
        assert_eq!(g.offloaded, 2);
        assert_eq!(g.local, 1);
        assert!((g.offload_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert!((g.win_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counters_and_maxes_ewma() {
        let a = OffloadCounters::default();
        a.record_decision(true);
        a.observe_read_ns(500);
        let b = OffloadCounters::default();
        b.record_decision(false);
        b.observe_read_ns(2_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.decisions, 2);
        assert_eq!(m.offloaded, 1);
        assert_eq!(m.local, 1);
        assert_eq!(m.ewma_read_ns, 2_000);
    }

    #[test]
    fn empty_gauges_have_zero_ratios() {
        let g = OffloadGauges::default();
        assert_eq!(g.offload_ratio(), 0.0);
        assert_eq!(g.win_ratio(), 0.0);
    }
}
