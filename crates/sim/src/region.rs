//! Byte-addressable simulated memory regions.
//!
//! A region models the registered memory an RDMA NIC exposes: remote readers
//! and writers race on it without coordination, and a reader that overlaps a
//! concurrent writer observes a *torn* image — exactly the situation Sherman's
//! version checks are designed to detect.  To express that in safe Rust the
//! region is stored as a slice of `AtomicU64` words accessed with relaxed
//! ordering in increasing address order (matching footnote 5 of the paper: the
//! NIC reads payloads in increasing address order).

use crate::SimError;
use std::sync::atomic::{AtomicU64, Ordering};

/// A simulated registered memory region.
#[derive(Debug)]
pub struct Region {
    words: Box<[AtomicU64]>,
    len_bytes: usize,
}

/// Bytes of an access of `len` bytes at `pos` that come before the first word
/// boundary (all of them when the access ends before it): fewer than 8.
fn head_len(pos: usize, len: usize) -> usize {
    (pos.wrapping_neg() % 8).min(len)
}

// `Region::new` reinterprets zeroed `u64`s as `AtomicU64`s.
const _: () = assert!(
    std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
);

impl Region {
    /// Allocate a zeroed region of `len_bytes` (rounded up to 8 bytes).
    ///
    /// The pages are not touched: the zeroed allocation comes straight from
    /// the operating system for any region worth the name, so a region costs
    /// resident memory only where it has been written.
    pub fn new(len_bytes: usize) -> Self {
        let zeroed: Box<[u64]> = vec![0u64; len_bytes.div_ceil(8)].into_boxed_slice();
        // SAFETY: `AtomicU64` has the size and bit validity of `u64` (std
        // documents both) and the same alignment (asserted above), so the
        // allocation keeps its layout; the box is the only owner, and it is
        // handed over whole.
        #[allow(unsafe_code)]
        let words = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU64]) };
        Region { words, len_bytes }
    }

    /// Usable size in bytes.
    pub fn len(&self) -> usize {
        self.len_bytes
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len_bytes == 0
    }

    /// Whether `len` bytes at `offset` lie inside the region.
    pub(crate) fn check(&self, offset: u64, len: usize) -> Result<(), RegionOob> {
        let end = offset as usize + len;
        if end > self.len_bytes {
            Err(RegionOob {
                len,
                region_len: self.len_bytes,
            })
        } else {
            Ok(())
        }
    }

    /// Copy `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// The copy proceeds word by word in increasing address order; concurrent
    /// writers may therefore produce a torn image, which callers detect with
    /// version or checksum validation.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) -> Result<(), RegionOob> {
        self.check(offset, buf.len())?;
        let pos = offset as usize;
        let end = pos + buf.len();
        let (head, body) = buf.split_at_mut(head_len(pos, buf.len()));
        self.read_partial(pos, head);
        // From here on the region side is word-aligned: one whole word per
        // 8-byte chunk, nothing to compute per word.
        let first = (pos + head.len()) / 8;
        let mut chunks = body.chunks_exact_mut(8);
        for (chunk, word) in chunks.by_ref().zip(&self.words[first..]) {
            chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        let tail = chunks.into_remainder();
        self.read_partial(end - tail.len(), tail);
        Ok(())
    }

    /// Copy out `buf`, which lies inside the one word that holds byte `pos`:
    /// the unaligned head or tail of a read.
    fn read_partial(&self, pos: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let in_word = pos % 8;
        let bytes = self.words[pos / 8].load(Ordering::Relaxed).to_le_bytes();
        buf.copy_from_slice(&bytes[in_word..in_word + buf.len()]);
    }

    /// Write `data` starting at `offset`.
    ///
    /// Whole words are stored directly; partial words at the boundaries are
    /// read-modified-written.  Concurrent writers to the *same* bytes must be
    /// excluded by higher-level locks (as in the real system); concurrent
    /// readers may observe torn data.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> Result<(), RegionOob> {
        self.check(offset, data.len())?;
        let pos = offset as usize;
        let (head, body) = data.split_at(head_len(pos, data.len()));
        self.write_partial(pos, head);
        let first = (pos + head.len()) / 8;
        let chunks = body.chunks_exact(8);
        let tail = chunks.remainder();
        for (chunk, word) in chunks.zip(&self.words[first..]) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        self.write_partial(pos + data.len() - tail.len(), tail);
        Ok(())
    }

    /// Merge `data`, which lies inside the one word that holds byte `pos`,
    /// into that word: the unaligned head or tail of a write.
    fn write_partial(&self, pos: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let in_word = pos % 8;
        let slot = &self.words[pos / 8];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let mut bytes = cur.to_le_bytes();
            bytes[in_word..in_word + data.len()].copy_from_slice(data);
            let new = u64::from_le_bytes(bytes);
            match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    fn aligned_slot(&self, offset: u64) -> Result<&AtomicU64, RegionAccessError> {
        if !offset.is_multiple_of(8) {
            return Err(RegionAccessError::Misaligned);
        }
        self.check(offset, 8)
            .map_err(RegionAccessError::OutOfBounds)?;
        Ok(&self.words[offset as usize / 8])
    }

    /// Atomically load the 8-byte word at `offset` (must be 8-byte aligned).
    pub fn read_u64(&self, offset: u64) -> Result<u64, RegionAccessError> {
        Ok(self.aligned_slot(offset)?.load(Ordering::SeqCst))
    }

    /// Atomically store the 8-byte word at `offset` (must be 8-byte aligned).
    pub fn write_u64(&self, offset: u64, value: u64) -> Result<(), RegionAccessError> {
        self.aligned_slot(offset)?.store(value, Ordering::SeqCst);
        Ok(())
    }

    /// Fetch-and-add on the word at `offset`; returns the previous value.
    pub fn faa_u64(&self, offset: u64, add: u64) -> Result<u64, RegionAccessError> {
        Ok(self.aligned_slot(offset)?.fetch_add(add, Ordering::SeqCst))
    }

    /// Masked compare-and-swap (the "enhanced atomic" extension Sherman uses to
    /// pack 16-bit locks into on-chip memory): only the bits selected by `mask`
    /// participate in the comparison and in the swap.  Returns
    /// `(succeeded, previous_word)`.
    pub fn masked_cas_u64(
        &self,
        offset: u64,
        expected: u64,
        new: u64,
        mask: u64,
    ) -> Result<(bool, u64), RegionAccessError> {
        let slot = self.aligned_slot(offset)?;
        let mut cur = slot.load(Ordering::SeqCst);
        loop {
            if cur & mask != expected & mask {
                return Ok((false, cur));
            }
            let candidate = (cur & !mask) | (new & mask);
            match slot.compare_exchange_weak(cur, candidate, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(prev) => return Ok((true, prev)),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Out-of-bounds access description (converted to [`SimError`] by the fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionOob {
    /// Requested access length.
    pub len: usize,
    /// Region size.
    pub region_len: usize,
}

impl RegionOob {
    /// Convert to a fabric-level [`SimError`] for the access at `addr`.
    pub fn into_sim_error(self, addr: crate::GlobalAddress) -> SimError {
        SimError::OutOfBounds {
            addr,
            len: self.len,
            region_len: self.region_len,
        }
    }
}

/// Errors for word-granular (atomic) accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionAccessError {
    /// The offset was not 8-byte aligned.
    Misaligned,
    /// The access fell outside the region.
    OutOfBounds(RegionOob),
}

impl RegionAccessError {
    /// Convert to a fabric-level [`SimError`] for the given address.
    pub fn into_sim_error(self, addr: crate::GlobalAddress) -> SimError {
        match self {
            RegionAccessError::Misaligned => SimError::Misaligned { addr },
            RegionAccessError::OutOfBounds(oob) => oob.into_sim_error(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_aligned_and_unaligned() {
        let r = Region::new(256);
        let data: Vec<u8> = (0..64u8).collect();
        r.write_bytes(0, &data).unwrap();
        let mut out = vec![0u8; 64];
        r.read_bytes(0, &mut out).unwrap();
        assert_eq!(out, data);

        // Unaligned write straddling word boundaries.
        r.write_bytes(13, &[0xAA; 21]).unwrap();
        let mut out = vec![0u8; 21];
        r.read_bytes(13, &mut out).unwrap();
        assert_eq!(out, vec![0xAA; 21]);
        // Neighbouring bytes are untouched.
        let mut edge = [0u8; 1];
        r.read_bytes(12, &mut edge).unwrap();
        assert_eq!(edge[0], 12);
        r.read_bytes(34, &mut edge).unwrap();
        assert_eq!(edge[0], 34);
    }

    #[test]
    fn bounds_are_enforced() {
        let r = Region::new(64);
        assert!(r.write_bytes(60, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(r.read_bytes(60, &mut buf).is_err());
        assert!(r.read_u64(64).is_err());
        assert!(matches!(
            r.read_u64(3),
            Err(RegionAccessError::Misaligned)
        ));
    }

    #[test]
    fn atomic_ops_behave_like_hardware() {
        let r = Region::new(64);
        r.write_u64(8, 41).unwrap();
        assert_eq!(r.faa_u64(8, 1).unwrap(), 41);
        assert_eq!(r.read_u64(8).unwrap(), 42);

        // Successful CAS (every bit masked in) returns the old value.
        assert_eq!(r.masked_cas_u64(8, 42, 100, u64::MAX).unwrap(), (true, 42));
        assert_eq!(r.read_u64(8).unwrap(), 100);
        // Failed CAS leaves the value untouched and reports the actual value.
        assert_eq!(r.masked_cas_u64(8, 42, 7, u64::MAX).unwrap(), (false, 100));
        assert_eq!(r.read_u64(8).unwrap(), 100);
    }

    #[test]
    fn masked_cas_only_touches_selected_bits() {
        let r = Region::new(64);
        r.write_u64(16, 0xFFFF_0000_1234_5678).unwrap();
        // Swap only the low 16 bits.
        let (ok, prev) = r
            .masked_cas_u64(16, 0x5678, 0xBEEF, 0xFFFF)
            .unwrap();
        assert!(ok);
        assert_eq!(prev, 0xFFFF_0000_1234_5678);
        assert_eq!(r.read_u64(16).unwrap(), 0xFFFF_0000_1234_BEEF);

        // Mismatch in the masked bits fails and changes nothing.
        let (ok, prev) = r
            .masked_cas_u64(16, 0x0000, 0x1111, 0xFFFF)
            .unwrap();
        assert!(!ok);
        assert_eq!(prev, 0xFFFF_0000_1234_BEEF);
        assert_eq!(r.read_u64(16).unwrap(), 0xFFFF_0000_1234_BEEF);

        // Bits outside the mask never participate in the comparison.
        let (ok, _) = r
            .masked_cas_u64(16, 0xDEAD_0000_0000_BEEF, 0x0000, 0xFFFF)
            .unwrap();
        assert!(ok);
        assert_eq!(r.read_u64(16).unwrap(), 0xFFFF_0000_1234_0000);
    }

    #[test]
    fn sixteen_bit_lock_slots_are_independent() {
        // Four 16-bit locks packed into one word, as in the GLT.
        let r = Region::new(8);
        for slot in 0..4u64 {
            let mask = 0xFFFFu64 << (slot * 16);
            let val = (slot + 1) << (slot * 16);
            let (ok, _) = r.masked_cas_u64(0, 0, val, mask).unwrap();
            assert!(ok, "slot {slot} should acquire");
        }
        // All four slots hold their owner id.
        let word = r.read_u64(0).unwrap();
        assert_eq!(word, 0x0004_0003_0002_0001);
        // Releasing one slot does not disturb the others.
        let (ok, _) = r.masked_cas_u64(0, 2 << 16, 0, 0xFFFF << 16).unwrap();
        assert!(ok);
        assert_eq!(r.read_u64(0).unwrap(), 0x0004_0003_0000_0001);
    }
}
