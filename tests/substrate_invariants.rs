//! Property-based tests of the substrate crates: fabric memory semantics,
//! region copies and lazy zeroing, masked CAS algebra, zipfian statistics and
//! histogram quantiles.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_sim::{Fabric, FabricBackend, GlobalAddress, Region, ThreadedFabric};

/// Run a fabric property on one backend; the proptest bodies below call this
/// for both the virtual-time simulator and the real-clock threaded backend so
/// the verb-level memory semantics are pinned backend-independently.
fn roundtrip_on<B: FabricBackend>(offset: u64, data: &[u8]) -> Vec<u8> {
    let fabric = B::build(FabricConfig::small_test());
    let mut client = fabric.client(0);
    let addr = GlobalAddress::host(1, offset);
    client.write(addr, data).unwrap();
    let mut out = vec![0u8; data.len()];
    client.read(addr, &mut out).unwrap();
    out
}

/// (succeeded, value after) of one masked CAS against `initial` on backend `B`.
fn masked_cas_on<B: FabricBackend>(
    initial: u64,
    expected: u64,
    new: u64,
    mask: u64,
) -> (bool, u64) {
    let fabric = B::build(FabricConfig::small_test());
    let addr = GlobalAddress::on_chip(0, 256);
    fabric.god_write_u64(addr, initial).unwrap();
    let mut client = fabric.client(0);
    let result = client.masked_cas(addr, expected, new, mask).unwrap();
    (result.succeeded, fabric.god_read_u64(addr).unwrap())
}

/// A region costs memory only where it was written: creating one far larger
/// than any test box could fill with touched pages, and using a word of it,
/// completes; and what was never written reads as zero, across pages too.
#[test]
fn regions_are_zeroed_on_demand() {
    let region = Region::new(1 << 30);
    let far = (1u64 << 30) - 8;
    region.write_u64(far, 0xDEAD_BEEF).unwrap();
    assert_eq!(region.read_u64(far).unwrap(), 0xDEAD_BEEF);
    assert_eq!(region.read_u64(0).unwrap(), 0);

    let mut span = vec![0xFFu8; 3 * 4096];
    region.read_bytes(4096 - 5, &mut span).unwrap();
    assert!(span.iter().all(|&b| b == 0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// `Region::write_bytes` / `read_bytes` agree with a plain byte vector for
    /// any mix of aligned and unaligned offsets and lengths (the aligned body
    /// and the byte-granular head and tail are different code).
    #[test]
    fn region_copies_match_a_byte_vector(
        accesses in prop::collection::vec(
            (0usize..1_000, prop::collection::vec(any::<u8>(), 0..120), 0usize..1_000, 0usize..120),
            1..40,
        ),
    ) {
        const LEN: usize = 1_024;
        let region = Region::new(LEN);
        let mut model = vec![0u8; LEN];
        for (write_at, data, read_at, read_len) in accesses {
            let data = &data[..data.len().min(LEN - write_at)];
            region.write_bytes(write_at as u64, data).unwrap();
            model[write_at..write_at + data.len()].copy_from_slice(data);

            let read_len = read_len.min(LEN - read_at);
            let mut out = vec![0xA5u8; read_len];
            region.read_bytes(read_at as u64, &mut out).unwrap();
            prop_assert_eq!(&out[..], &model[read_at..read_at + read_len]);
        }
        let mut all = vec![0u8; LEN];
        region.read_bytes(0, &mut all).unwrap();
        prop_assert_eq!(all, model);
    }

    /// Bytes written through the fabric are read back identically for any
    /// offset/length combination (including unaligned ones), on both backends.
    #[test]
    fn fabric_read_write_roundtrip(
        offset in 0u64..60_000,
        data in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        prop_assert_eq!(roundtrip_on::<Fabric>(offset, &data), data.clone());
        prop_assert_eq!(roundtrip_on::<ThreadedFabric>(offset, &data), data);
    }

    /// Masked CAS only ever modifies bits inside the mask, regardless of the
    /// operands — and the two backends agree bit-for-bit.
    #[test]
    fn masked_cas_never_touches_unmasked_bits(
        initial in any::<u64>(),
        expected in any::<u64>(),
        new in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let (succeeded, after) = masked_cas_on::<Fabric>(initial, expected, new, mask);
        prop_assert_eq!(after & !mask, initial & !mask, "unmasked bits changed");
        if succeeded {
            prop_assert_eq!(initial & mask, expected & mask);
            prop_assert_eq!(after & mask, new & mask);
        } else {
            prop_assert_eq!(after, initial);
        }
        prop_assert_eq!(
            masked_cas_on::<ThreadedFabric>(initial, expected, new, mask),
            (succeeded, after),
            "threaded backend disagrees with the simulator"
        );
    }

    /// The workload generator only ever emits keys inside the configured key
    /// space, for any mix of distribution parameters.
    #[test]
    fn workload_keys_stay_in_domain(
        key_space in 16u64..10_000,
        theta in 0.0f64..0.999,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec {
            key_space,
            bulkload_keys: key_space / 2,
            mix: Mix::WRITE_INTENSIVE,
            distribution: KeyDistribution::ScrambledZipfian { theta },
            range_size: 10,
            seed,
            update_fraction: 0.5,
        };
        let mut gen = spec.generator(0);
        for _ in 0..200 {
            let key = match gen.next_op() {
                Op::Insert { key, .. } | Op::Lookup { key } | Op::Delete { key } => key,
                Op::Range { start_key, .. } => start_key,
            };
            prop_assert!(key < key_space);
        }
    }

    /// Histogram quantiles are consistent with exact order statistics within
    /// the histogram's relative-error bound.
    #[test]
    fn histogram_quantiles_bound_error(
        mut samples in prop::collection::vec(1u64..50_000_000, 10..300),
        q in 0.01f64..0.999,
    ) {
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        let idx = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
        let exact = samples[idx] as f64;
        let approx = hist.quantile(q) as f64;
        prop_assert!(
            (approx - exact).abs() / exact < 0.10,
            "q={q}: approx {approx} vs exact {exact}"
        );
    }

    /// Node-address packing round-trips for any server id / offset / space.
    #[test]
    fn global_address_pack_roundtrip(ms in any::<u16>(), offset in 0u64..(1 << 47), chip: bool) {
        let addr = if chip {
            GlobalAddress::on_chip(ms, offset)
        } else {
            GlobalAddress::host(ms, offset)
        };
        prop_assert_eq!(GlobalAddress::unpack(addr.pack()), addr);
    }
}
