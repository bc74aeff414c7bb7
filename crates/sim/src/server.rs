//! A simulated memory server: host DRAM, NIC on-chip memory, inbound NIC port
//! and atomic buckets — and the one place each verb's memory effect is
//! written.
//!
//! Memory servers in the disaggregated architecture have near-zero compute
//! (§2.1), so this type exposes no server-side logic beyond the memory itself;
//! all index work happens in the compute-server client code (`crates/core`).
//! The lightweight management tasks the paper assigns to the wimpy MS cores
//! (chunk allocation over RPC) live in `sherman-memserver` on top of this type.
//!
//! ## Verbs
//!
//! Both fabric backends execute every one-sided verb through the methods
//! below, and differ only in how time passes around them.  Each method
//! checks everything first — batch shape, bounds, alignment — then runs the
//! caller's `time` closure, then applies the effect.  A rejected verb
//! therefore touches no memory, no port and no atomic bucket.  The
//! simulator's channel charges its queueing model inside `time`; the
//! threaded channel reads the real clock.

use crate::addr::{GlobalAddress, MemSpace};
use crate::client::{CasResult, WriteCmd};
use crate::config::FabricConfig;
use crate::nic::{AtomicBuckets, NicPort};
use crate::region::Region;
use crate::{SimError, SimResult};
use std::sync::Arc;

/// One atomic verb on an aligned 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `RDMA_CAS`, masked (Mellanox "enhanced atomics"): only the bits in
    /// `mask` take part in the comparison and the swap.  A `mask` of
    /// `u64::MAX` is the plain 64-bit CAS.
    Cas {
        /// Value the masked bits must hold for the swap to take effect.
        expected: u64,
        /// Value the masked bits are swapped to.
        new: u64,
        /// Bits that take part.
        mask: u64,
    },
    /// `RDMA_FAA`: add `add` (wrapping) and return the previous value.
    Faa {
        /// Addend.
        add: u64,
    },
}

/// Runs a checked atomic at its serialization point: given the instant the
/// request reaches the NIC's atomic unit and the unit's execution time, it
/// waits for the address's bucket, applies the atomic there and returns the
/// instant it finished.
pub(crate) type AtomicUnit<'a> = dyn FnMut(u64, u64) -> u64 + 'a;

/// One simulated memory server.
#[derive(Debug)]
pub struct MemServerSim {
    /// Server identifier (the 16-bit id embedded in global addresses).
    pub id: u16,
    host: Region,
    onchip: Region,
    /// Inbound NIC port (all verbs targeting this server serialize here).
    pub inbound: NicPort,
    /// NIC-internal atomic buckets.
    pub atomic_buckets: AtomicBuckets,
}

impl MemServerSim {
    /// Build a memory server from the fabric configuration.
    pub fn new(id: u16, config: &FabricConfig) -> Self {
        MemServerSim {
            id,
            host: Region::new(config.host_bytes_per_ms),
            onchip: Region::new(config.onchip_bytes_per_ms),
            inbound: NicPort::new(),
            atomic_buckets: AtomicBuckets::new(config.atomic_buckets),
        }
    }

    /// The region addressed by `space`.
    pub fn region(&self, space: MemSpace) -> &Region {
        match space {
            MemSpace::Host => &self.host,
            MemSpace::OnChip => &self.onchip,
        }
    }

    /// Host DRAM size in bytes.
    pub fn host_len(&self) -> usize {
        self.host.len()
    }

    /// On-chip memory size in bytes.
    pub fn onchip_len(&self) -> usize {
        self.onchip.len()
    }

    /// Reject an access of `len` bytes at `addr` that leaves its region.
    fn check(&self, addr: GlobalAddress, len: usize) -> SimResult<()> {
        self.region(addr.space)
            .check(addr.offset, len)
            .map_err(|oob| oob.into_sim_error(addr))
    }

    /// Reject an atomic whose word at `addr` is misaligned or out of bounds.
    fn check_word(&self, addr: GlobalAddress) -> SimResult<()> {
        if !addr.offset.is_multiple_of(8) {
            return Err(SimError::Misaligned { addr });
        }
        self.check(addr, 8)
    }

    /// Copy the checked range at `addr` into `buf`.
    fn copy_out(&self, addr: GlobalAddress, buf: &mut [u8]) {
        self.region(addr.space)
            .read_bytes(addr.offset, buf)
            .expect("a checked read lies inside its region");
    }

    /// One `RDMA_READ` of `buf.len()` bytes at `addr` into `buf`.
    pub(crate) fn read<T>(
        &self,
        addr: GlobalAddress,
        buf: &mut [u8],
        time: impl FnOnce() -> T,
    ) -> SimResult<T> {
        if buf.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        self.check(addr, buf.len())?;
        let t = time();
        self.copy_out(addr, buf);
        Ok(t)
    }

    /// One doorbell batch of `RDMA_WRITE`s, every command on this server,
    /// applied in post order.
    pub(crate) fn write_batch<T>(
        &self,
        cmds: &[WriteCmd],
        time: impl FnOnce() -> T,
    ) -> SimResult<T> {
        if cmds.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        if cmds.iter().any(|c| c.addr.ms != self.id) {
            return Err(SimError::MixedBatch);
        }
        for c in cmds {
            self.check(c.addr, c.data.len())?;
        }
        let t = time();
        for c in cmds {
            self.region(c.addr.space)
                .write_bytes(c.addr.offset, &c.data)
                .expect("a checked write lies inside its region");
        }
        Ok(t)
    }

    /// One atomic on the word at `addr`.  `time` is handed the
    /// [`AtomicUnit`] and must run it once; its result is `time`'s.
    pub(crate) fn atomic<T>(
        &self,
        addr: GlobalAddress,
        op: AtomicOp,
        time: impl FnOnce(&mut AtomicUnit<'_>) -> T,
    ) -> SimResult<(T, CasResult)> {
        self.check_word(addr)?;
        let key = bucket_key(addr);
        let mut outcome = None;
        let t = time(&mut |arrival, exec_ns| {
            let (end, result) = self.atomic_buckets.execute(key, arrival, exec_ns, || {
                apply_atomic(self.region(addr.space), addr.offset, op)
            });
            outcome = Some(result);
            end
        });
        Ok((t, outcome.expect("the verb's timing runs its atomic")))
    }

    /// One doorbell batch of a masked `RDMA_CAS` on the word at `lock`
    /// followed by an `RDMA_READ` of `buf.len()` bytes at `addr`, both on
    /// this server.  The batch is checked whole before the CAS runs — a lock
    /// word swapped by a batch that then failed would stay held with nobody
    /// knowing — and the READ is applied after `time` ran the CAS (in-order
    /// delivery on the queue pair).
    pub(crate) fn cas_read<T>(
        &self,
        lock: GlobalAddress,
        cas: AtomicOp,
        addr: GlobalAddress,
        buf: &mut [u8],
        time: impl FnOnce(&mut AtomicUnit<'_>) -> T,
    ) -> SimResult<(T, CasResult)> {
        if buf.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        if lock.ms != addr.ms {
            return Err(SimError::MixedBatch);
        }
        self.check(addr, buf.len())?;
        let done = self.atomic(lock, cas, time)?;
        self.copy_out(addr, buf);
        Ok(done)
    }

    /// Several independent `RDMA_READ`s, possibly on different servers of
    /// `servers`.  Every request is checked before `time` runs for any; then
    /// `time` runs once per request, in request order, and the buffers are
    /// fetched.  Returns each request's `time` and buffer.
    pub(crate) fn read_batch<T>(
        servers: &[Arc<MemServerSim>],
        reqs: &[(GlobalAddress, usize)],
        mut time: impl FnMut(&MemServerSim, usize) -> T,
    ) -> SimResult<(Vec<T>, Vec<Vec<u8>>)> {
        if reqs.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        let targets = reqs
            .iter()
            .map(|&(addr, len)| {
                let server = server_of(servers, addr.ms)?;
                server.check(addr, len)?;
                Ok(server)
            })
            .collect::<SimResult<Vec<_>>>()?;
        let times = targets
            .iter()
            .zip(reqs)
            .map(|(s, &(_, len))| time(s, len))
            .collect();
        let bufs = targets
            .iter()
            .zip(reqs)
            .map(|(s, &(addr, len))| {
                let mut buf = vec![0u8; len];
                s.copy_out(addr, &mut buf);
                buf
            })
            .collect();
        Ok((times, bufs))
    }
}

/// Look up memory server `ms`.
pub(crate) fn server_of(servers: &[Arc<MemServerSim>], ms: u16) -> SimResult<&Arc<MemServerSim>> {
    servers
        .get(ms as usize)
        .ok_or(SimError::NoSuchServer { ms })
}

/// The NIC bucket an atomic at `addr` serializes in.  Host and on-chip
/// offsets share the bucket array; a space bit folded above the offset bits
/// the buckets hash keeps them from aliasing.
fn bucket_key(addr: GlobalAddress) -> u64 {
    let space_bit = match addr.space {
        MemSpace::Host => 0u64,
        MemSpace::OnChip => 1u64 << 40,
    };
    addr.offset | space_bit
}

/// Apply `op` to the checked word at `offset` of `region`.
fn apply_atomic(region: &Region, offset: u64, op: AtomicOp) -> CasResult {
    let (succeeded, previous) = match op {
        AtomicOp::Cas {
            expected,
            new,
            mask,
        } => region.masked_cas_u64(offset, expected, new, mask),
        AtomicOp::Faa { add } => region.faa_u64(offset, add).map(|previous| (true, previous)),
    }
    .expect("a checked atomic hits an aligned word inside its region");
    CasResult {
        succeeded,
        previous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_sized_from_config() {
        let cfg = FabricConfig::small_test();
        let ms = MemServerSim::new(3, &cfg);
        assert_eq!(ms.id, 3);
        assert_eq!(ms.host_len(), cfg.host_bytes_per_ms);
        assert_eq!(ms.onchip_len(), cfg.onchip_bytes_per_ms);
        assert_eq!(ms.atomic_buckets.len(), cfg.atomic_buckets);
    }

    #[test]
    fn host_and_onchip_are_distinct_memories() {
        let cfg = FabricConfig::small_test();
        let ms = MemServerSim::new(0, &cfg);
        ms.region(MemSpace::Host).write_u64(0, 7).unwrap();
        ms.region(MemSpace::OnChip).write_u64(0, 9).unwrap();
        assert_eq!(ms.region(MemSpace::Host).read_u64(0).unwrap(), 7);
        assert_eq!(ms.region(MemSpace::OnChip).read_u64(0).unwrap(), 9);
    }
}
