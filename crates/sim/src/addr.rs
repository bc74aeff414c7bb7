//! Global 64-bit addresses into disaggregated memory.
//!
//! Sherman packs every pointer (child pointers, sibling pointers, the root
//! pointer) into 64 bits: a 16-bit memory-server identifier plus a 48-bit
//! offset inside that server (§4.2.1 of the paper).  The simulator additionally
//! distinguishes the server's *host* DRAM from the NIC's *on-chip* (device)
//! memory; the distinction is encoded in the top bit of the offset so that a
//! packed address still fits in one word and can be stored inside tree nodes
//! and CAS'ed atomically.

use std::fmt;

/// Which physical memory on a memory server an address refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Bulk DRAM behind the PCIe bus (where tree nodes live).
    Host,
    /// The RDMA NIC's on-chip device memory (where global lock tables live).
    OnChip,
}

/// Number of bits used for the in-server offset (excluding the space bit).
pub const OFFSET_BITS: u32 = 47;
/// Maximum representable offset.
pub const MAX_OFFSET: u64 = (1 << OFFSET_BITS) - 1;

/// A global address: memory server id + memory space + byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddress {
    /// Memory server identifier.
    pub ms: u16,
    /// Which memory space on that server.
    pub space: MemSpace,
    /// Byte offset within the space.
    pub offset: u64,
}

impl GlobalAddress {
    /// An address in a memory server's host DRAM.
    pub fn host(ms: u16, offset: u64) -> Self {
        debug_assert!(offset <= MAX_OFFSET, "offset {offset} exceeds 47 bits");
        GlobalAddress {
            ms,
            space: MemSpace::Host,
            offset,
        }
    }

    /// An address in a memory server NIC's on-chip memory.
    pub fn on_chip(ms: u16, offset: u64) -> Self {
        debug_assert!(offset <= MAX_OFFSET, "offset {offset} exceeds 47 bits");
        GlobalAddress {
            ms,
            space: MemSpace::OnChip,
            offset,
        }
    }

    /// The null address (all zero).  Used as "no sibling" / "no child".
    pub fn null() -> Self {
        GlobalAddress::host(0, 0)
    }

    /// Whether this is the null address.
    ///
    /// Offset 0 on server 0 is reserved by the memory-server superblock so it
    /// never refers to a real tree node.
    pub fn is_null(&self) -> bool {
        self.ms == 0 && self.offset == 0 && self.space == MemSpace::Host
    }

    /// Address `bytes` further into the same space.
    pub fn add(&self, bytes: u64) -> Self {
        GlobalAddress {
            ms: self.ms,
            space: self.space,
            offset: self.offset + bytes,
        }
    }

    /// Pack into a single 64-bit word: `[ms:16][space:1][offset:47]`.
    pub fn pack(&self) -> u64 {
        let space_bit = match self.space {
            MemSpace::Host => 0u64,
            MemSpace::OnChip => 1u64,
        };
        ((self.ms as u64) << 48) | (space_bit << OFFSET_BITS) | (self.offset & MAX_OFFSET)
    }

    /// Unpack from a 64-bit word produced by [`GlobalAddress::pack`].
    pub fn unpack(word: u64) -> Self {
        let ms = (word >> 48) as u16;
        let space = if (word >> OFFSET_BITS) & 1 == 1 {
            MemSpace::OnChip
        } else {
            MemSpace::Host
        };
        GlobalAddress {
            ms,
            space,
            offset: word & MAX_OFFSET,
        }
    }
}

impl fmt::Display for GlobalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let space = match self.space {
            MemSpace::Host => "host",
            MemSpace::OnChip => "chip",
        };
        write!(f, "ms{}:{}+{:#x}", self.ms, space, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let cases = [
            GlobalAddress::host(0, 0),
            GlobalAddress::host(7, 0x1234_5678),
            GlobalAddress::host(u16::MAX, MAX_OFFSET),
            GlobalAddress::on_chip(3, 16),
            GlobalAddress::on_chip(u16::MAX, MAX_OFFSET),
        ];
        for addr in cases {
            assert_eq!(GlobalAddress::unpack(addr.pack()), addr, "case {addr}");
        }
    }

    #[test]
    fn null_detection() {
        assert!(GlobalAddress::null().is_null());
        assert!(!GlobalAddress::host(0, 8).is_null());
        assert!(!GlobalAddress::host(1, 0).is_null());
        assert!(!GlobalAddress::on_chip(0, 0).is_null());
        assert_eq!(GlobalAddress::null().pack(), 0);
    }

    #[test]
    fn add_advances_offset_only() {
        let a = GlobalAddress::host(4, 100);
        let b = a.add(28);
        assert_eq!(b.ms, 4);
        assert_eq!(b.offset, 128);
        assert_eq!(b.space, MemSpace::Host);
    }

    #[test]
    fn packed_addresses_are_distinct_across_spaces() {
        let host = GlobalAddress::host(1, 64);
        let chip = GlobalAddress::on_chip(1, 64);
        assert_ne!(host.pack(), chip.pack());
    }
}
