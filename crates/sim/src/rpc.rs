//! The fabric's one two-sided verb: what a call to a memory server's CPU
//! costs.
//!
//! Sherman's memory servers do no index work; the paper's only two-sided
//! call is chunk allocation (§4.2.4).  The substrate therefore knows nothing
//! about what a call asks for or answers: [`crate::ClientCtx::post_rpc`]
//! takes the request's wire size and the caller's server-side work as a
//! closure, runs that work inside the verb's window — the way a one-sided
//! verb applies its memory effect at post time — and charges the exchange
//! from what the work reports back ([`RpcServed`]).  A caller that models
//! memory-side compute (the index crate's offloaded traversal) reads the
//! shared server state from that closure through the word-atomic
//! [`crate::Region`], so a call racing a real writer (threaded backend)
//! observes torn images and must validate, just like a one-sided reader.
//!
//! Each backend's channel times the call: the simulator serializes the
//! request through the server's inbound NIC port and charges
//! [`crate::FabricConfig::rpc_cost_ns`] — a base dispatch cost plus
//! per-level-stepped and per-entry-scanned terms reported in [`RpcWork`] —
//! while the threaded backend's window brackets the server-side work's real
//! elapsed time.

/// Accounting of the server-side work one RPC performed, reported by the
/// caller's server-side work and charged by the simulator's cost model
/// ([`crate::FabricConfig::rpc_cost_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcWork {
    /// Tree levels stepped (node images fetched and decoded).
    pub levels_stepped: u32,
    /// Leaf/internal entries scanned while searching or collecting.
    pub entries_scanned: u32,
}

impl RpcWork {
    /// No server-side compute: the flat control-path RPC (e.g. chunk
    /// allocation), charged only the base service time.
    pub const NONE: RpcWork = RpcWork {
        levels_stepped: 0,
        entries_scanned: 0,
    };

    /// Accumulate another step's work.
    pub fn add(&mut self, other: RpcWork) {
        self.levels_stepped += other.levels_stepped;
        self.entries_scanned += other.entries_scanned;
    }
}

/// What serving one call sent back and cost the server's core: the
/// response's wire size and the work the server-side closure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcServed {
    /// Wire size of the response.
    pub response_bytes: usize,
    /// Server-side work performed.
    pub work: RpcWork,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_accumulates() {
        let mut w = RpcWork::NONE;
        w.add(RpcWork {
            levels_stepped: 3,
            entries_scanned: 10,
        });
        w.add(RpcWork {
            levels_stepped: 1,
            entries_scanned: 5,
        });
        assert_eq!(w.levels_stepped, 4);
        assert_eq!(w.entries_scanned, 15);
    }
}
