//! Latency / bandwidth model parameters for the simulated fabric.
//!
//! Defaults are calibrated against the numbers the Sherman paper reports for a
//! 100 Gbps Mellanox ConnectX-5 deployment:
//!
//! * small one-sided verbs complete in roughly 2 µs round trip (§2.2),
//! * small `RDMA_WRITE`s sustain > 50 Mops until the payload reaches about
//!   256 bytes, after which wire bandwidth limits throughput (Figure 3),
//! * `RDMA_CAS` against host memory pays two PCIe transactions and conflicting
//!   atomics serialize inside the NIC (Figure 2, §3.2.2),
//! * `RDMA_CAS` against the NIC's on-chip memory sustains roughly 110 Mops
//!   (§4.3).

/// Tunable constants of the fabric model.  All times are virtual nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Number of memory servers in the cluster.
    pub memory_servers: usize,
    /// Number of compute servers in the cluster.
    pub compute_servers: usize,
    /// Host DRAM bytes per memory server.
    pub host_bytes_per_ms: usize,
    /// NIC on-chip (device) memory bytes per memory server.  ConnectX-5 exposes
    /// 256 KiB.
    pub onchip_bytes_per_ms: usize,

    /// Fixed round-trip propagation + NIC processing time of a verb, excluding
    /// queueing and payload serialization.
    pub base_rtt_ns: u64,
    /// Wire time per payload byte, in picoseconds (100 Gbps ≈ 80 ps/B).
    pub wire_ps_per_byte: u64,
    /// Minimum per-operation service time at a NIC port (IOPS ceiling;
    /// 9 ns ≈ 110 Mops).
    pub nic_op_gap_ns: u64,
    /// Extra serialized time for an atomic verb that targets host memory
    /// (two PCIe transactions through the MS).
    pub host_atomic_pcie_ns: u64,
    /// Serialized execution time for an atomic verb that targets on-chip
    /// memory.
    pub onchip_atomic_ns: u64,
    /// Number of internal NIC buckets used to order conflicting atomics
    /// (§3.2.2 cites e.g. 4096 buckets indexed by low address bits).
    pub atomic_buckets: usize,
    /// Client-side software/PCIe overhead charged per posted verb.
    pub cs_post_overhead_ns: u64,
    /// Base processing charged for a two-sided RPC served by a memory server's
    /// wimpy management core: dispatch, request decode, response encode.
    /// Server-side *index work* is charged on top — see
    /// [`FabricConfig::rpc_cost_ns`].
    pub rpc_service_ns: u64,
    /// Server CPU time per tree level stepped by an offloaded traversal RPC
    /// (fetch + decode + route one node on the wimpy core).
    pub rpc_step_ns: u64,
    /// Server CPU time per leaf/internal entry scanned by an offloaded
    /// search or range RPC.
    pub rpc_scan_ns_per_entry: u64,
    /// Virtual time charged for scanning one byte of a fetched node in client
    /// CPU.  The index layer charges each image for what its consumer reads of
    /// it: a point lookup the header, the tail word, the key-tag byte of each
    /// leaf slot its search examined, the key of each slot whose tag matched
    /// and its match's value and versions; a combined point write on an
    /// unsorted leaf the same, with the tag of every slot and its chosen
    /// slot's value and versions; a traversal, a scan and every other reader
    /// under a lock the whole node, which they decode entry by entry; a split
    /// or merge the node it sorts.
    ///
    /// The model charges bytes examined, not cache lines touched: a tag
    /// inside each entry saves key compares, while the lines a search walks
    /// are those of every slot up to its match.  A contiguous tag array at
    /// the head of the leaf (FPTree's layout, one 64-byte line) would save
    /// lines too, but it costs three of a 1 KB leaf's 50 slots (904 / 19 =
    /// 47) and a second range per insert, outside the entry's version
    /// bracket.
    pub cpu_ps_per_byte: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            memory_servers: 4,
            compute_servers: 4,
            host_bytes_per_ms: 64 << 20,
            onchip_bytes_per_ms: 256 << 10,
            base_rtt_ns: 1_600,
            wire_ps_per_byte: 80,
            nic_op_gap_ns: 9,
            host_atomic_pcie_ns: 450,
            onchip_atomic_ns: 9,
            atomic_buckets: 4096,
            cs_post_overhead_ns: 80,
            rpc_service_ns: 2_500,
            rpc_step_ns: 600,
            rpc_scan_ns_per_entry: 4,
            cpu_ps_per_byte: 250,
        }
    }
}

impl FabricConfig {
    /// A configuration sized for fast unit tests: tiny regions, two servers.
    pub fn small_test() -> Self {
        FabricConfig {
            memory_servers: 2,
            compute_servers: 2,
            host_bytes_per_ms: 4 << 20,
            onchip_bytes_per_ms: 64 << 10,
            ..FabricConfig::default()
        }
    }

    /// Wire serialization time for a payload of `bytes`.
    pub fn wire_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.wire_ps_per_byte) / 1000
    }

    /// Service time of one verb with `bytes` of payload at a NIC port: the
    /// larger of the per-op floor and the payload serialization time.
    pub fn nic_service_ns(&self, bytes: usize) -> u64 {
        self.nic_op_gap_ns.max(self.wire_ns(bytes))
    }

    /// Client CPU time to scan / process `bytes` of fetched data.
    pub fn cpu_scan_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.cpu_ps_per_byte) / 1000
    }

    /// Serialized service time of a two-sided RPC on the memory server's
    /// wimpy core: the base dispatch cost plus the work the interpreter
    /// reports — per level stepped and per entry scanned.  A control RPC
    /// ([`crate::RpcWork::NONE`]) pays exactly the flat `rpc_service_ns`.
    pub fn rpc_cost_ns(&self, work: crate::RpcWork) -> u64 {
        self.rpc_service_ns
            + self.rpc_step_ns * work.levels_stepped as u64
            + self.rpc_scan_ns_per_entry * work.entries_scanned as u64
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.memory_servers == 0 {
            return Err("memory_servers must be > 0".into());
        }
        if self.compute_servers == 0 {
            return Err("compute_servers must be > 0".into());
        }
        if self.memory_servers > u16::MAX as usize {
            return Err("memory_servers must fit in 16 bits".into());
        }
        if self.host_bytes_per_ms < 4096 {
            return Err("host_bytes_per_ms too small".into());
        }
        if self.onchip_bytes_per_ms < 64 {
            return Err("onchip_bytes_per_ms too small".into());
        }
        if !self.atomic_buckets.is_power_of_two() {
            return Err("atomic_buckets must be a power of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        FabricConfig::default().validate().unwrap();
        FabricConfig::small_test().validate().unwrap();
    }

    #[test]
    fn wire_time_matches_100gbps() {
        let cfg = FabricConfig::default();
        // 1 KiB at 100 Gbps is ~82 ns.
        let t = cfg.wire_ns(1024);
        assert!((75..=95).contains(&t), "unexpected wire time {t}");
        // Small payloads are dominated by the per-op floor.
        assert_eq!(cfg.nic_service_ns(16), cfg.nic_op_gap_ns);
        // Large payloads are dominated by bandwidth.
        assert!(cfg.nic_service_ns(4096) > cfg.nic_op_gap_ns * 10);
    }

    #[test]
    fn rpc_cost_scales_with_server_side_work() {
        let cfg = FabricConfig::default();
        assert_eq!(cfg.rpc_cost_ns(crate::RpcWork::NONE), cfg.rpc_service_ns);
        let deep = crate::RpcWork {
            levels_stepped: 4,
            entries_scanned: 32,
        };
        assert_eq!(
            cfg.rpc_cost_ns(deep),
            cfg.rpc_service_ns + 4 * cfg.rpc_step_ns + 32 * cfg.rpc_scan_ns_per_entry
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            FabricConfig { memory_servers: 0, ..FabricConfig::default() },
            FabricConfig { atomic_buckets: 1000, ..FabricConfig::default() },
            FabricConfig { host_bytes_per_ms: 16, ..FabricConfig::default() },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }
}
