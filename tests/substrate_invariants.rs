//! Property-based tests of the substrate crates: fabric memory semantics,
//! region copies and lazy zeroing, masked CAS algebra, zipfian statistics and
//! histogram quantiles.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_sim::{
    ClientCtx, ClientStats, Fabric, FabricBackend, FabricChannel, GlobalAddress, Region, RpcServed,
    RpcWork, SimError, ThreadedFabric, WriteCmd,
};

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

/// The fault a rejected verb reported, without its payload.
fn fault(e: &SimError) -> &'static str {
    match e {
        SimError::OutOfBounds { .. } => "OutOfBounds",
        SimError::Misaligned { .. } => "Misaligned",
        SimError::NoSuchServer { .. } => "NoSuchServer",
        SimError::MixedBatch => "MixedBatch",
        SimError::EmptyBatch => "EmptyBatch",
    }
}

/// A valid read and CAS on each memory server, posted together: how long
/// each took.  Ports and atomic buckets a rejected verb charged would show
/// here as a later completion.
fn probe_windows<C: FabricChannel>(client: &mut ClientCtx<C>) -> Vec<u64> {
    let mut tokens = Vec::new();
    for ms in 0..2 {
        tokens.push(client.post_read(GlobalAddress::host(ms, 64), 64).unwrap());
        tokens.push(client.post_cas(GlobalAddress::host(ms, 64), 1, 2).unwrap());
    }
    tokens
        .into_iter()
        .map(|t| {
            let c = client.poll_token(t);
            c.completed_at - c.posted_at
        })
        .collect()
}

/// Every verb kind, posted in each malformed shape it can take, is rejected
/// with the error that names the fault, and leaves no trace: every region
/// still reads zero, no counter moved, nothing is queued, and on the
/// simulator the verbs posted next take exactly as long as on a fresh fabric
/// (a rejected verb charges no port and no atomic bucket).
fn rejected_verbs_have_no_effect_on<B: FabricBackend>() {
    let cfg = FabricConfig::small_test();
    let (end, chip_end) = (cfg.host_bytes_per_ms as u64, cfg.onchip_bytes_per_ms as u64);
    let (host, chip) = (GlobalAddress::host, GlobalAddress::on_chip);
    let cmd = |addr| WriteCmd::new(addr, vec![0xAB; 16]);
    // The server-side work of an RPC, which a rejected call must not run.
    let mut served = false;
    let serve = || {
        served = true;
        let work = RpcWork::NONE;
        (
            (),
            RpcServed {
                response_bytes: 64,
                work,
            },
        )
    };
    let fabric = B::build(cfg.clone());
    let mut client = fabric.client(0);
    let c = &mut client;
    let rejected = [
        ("read", "EmptyBatch", c.post_read(host(0, 64), 0)),
        ("read", "OutOfBounds", c.post_read(host(0, end - 8), 16)),
        ("read", "NoSuchServer", c.post_read(host(9, 64), 8)),
        ("write", "EmptyBatch", c.post_write_batch(&[])),
        (
            "write",
            "MixedBatch",
            c.post_write_batch(&[cmd(host(0, 64)), cmd(host(1, 64))]),
        ),
        (
            "write",
            "OutOfBounds",
            c.post_write_batch(&[cmd(host(0, 64)), cmd(host(0, end - 8))]),
        ),
        (
            "write",
            "NoSuchServer",
            c.post_write_batch(&[cmd(host(9, 64))]),
        ),
        ("read batch", "EmptyBatch", c.post_read_batch(&[])),
        (
            "read batch",
            "OutOfBounds",
            c.post_read_batch(&[(host(0, 64), 8), (host(1, end - 8), 16)]),
        ),
        (
            "read batch",
            "NoSuchServer",
            c.post_read_batch(&[(host(0, 64), 8), (host(9, 64), 8)]),
        ),
        ("cas", "Misaligned", c.post_cas(host(0, 68), 0, 1)),
        ("cas", "OutOfBounds", c.post_cas(host(0, end), 0, 1)),
        ("cas", "NoSuchServer", c.post_cas(host(9, 64), 0, 1)),
        (
            "masked cas",
            "Misaligned",
            c.post_masked_cas(chip(0, 68), 0, 1, 0xFFFF),
        ),
        (
            "masked cas",
            "OutOfBounds",
            c.post_masked_cas(chip(0, chip_end), 0, 1, 0xFFFF),
        ),
        (
            "masked cas",
            "NoSuchServer",
            c.post_masked_cas(chip(9, 64), 0, 1, 0xFFFF),
        ),
        ("faa", "Misaligned", c.post_faa(host(1, 68), 1)),
        ("faa", "OutOfBounds", c.post_faa(host(1, end), 1)),
        ("faa", "NoSuchServer", c.post_faa(host(9, 64), 1)),
        (
            "cas+read",
            "EmptyBatch",
            c.post_cas_read(chip(0, 64), 0, 1, u64::MAX, host(0, 64), 0),
        ),
        (
            "cas+read",
            "MixedBatch",
            c.post_cas_read(chip(0, 64), 0, 1, u64::MAX, host(1, 64), 8),
        ),
        (
            "cas+read",
            "OutOfBounds",
            c.post_cas_read(chip(0, 64), 0, 1, u64::MAX, host(0, end - 8), 16),
        ),
        (
            "cas+read",
            "OutOfBounds",
            c.post_cas_read(chip(0, chip_end), 0, 1, u64::MAX, host(0, 64), 8),
        ),
        (
            "cas+read",
            "Misaligned",
            c.post_cas_read(chip(0, 68), 0, 1, u64::MAX, host(0, 64), 8),
        ),
        (
            "cas+read",
            "NoSuchServer",
            c.post_cas_read(chip(9, 64), 0, 1, u64::MAX, host(9, 64), 8),
        ),
        (
            "rpc",
            "NoSuchServer",
            c.post_rpc(9, 64, serve).map(|(token, ())| token),
        ),
    ];
    assert!(!served, "a rejected RPC ran its server-side work");
    for (verb, expected, result) in &rejected {
        let err = result.as_ref().expect_err(verb);
        assert_eq!(fault(err), *expected, "{verb} rejected as {err:?}");
    }

    assert_eq!(client.outstanding(), 0);
    assert_eq!(client.stats(), ClientStats::default());
    assert_eq!(fabric.metrics().snapshot(), Default::default());
    for ms in 0..2u16 {
        for (addr, len) in [(host(ms, 0), end), (chip(ms, 0), chip_end)] {
            let mut image = vec![0u8; len as usize];
            fabric.god_read(addr, &mut image).unwrap();
            let touched = image.iter().position(|&b| b != 0);
            assert_eq!(touched, None, "a rejected verb wrote to {addr}");
        }
    }
    if fabric.backend_name() == "sim" {
        let mut fresh = B::build(cfg).client(0);
        assert_eq!(probe_windows(&mut client), probe_windows(&mut fresh));
    }
}

#[test]
fn rejected_verbs_have_no_effect() {
    rejected_verbs_have_no_effect_on::<Fabric>();
    rejected_verbs_have_no_effect_on::<ThreadedFabric>();
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
