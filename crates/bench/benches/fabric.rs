//! Criterion microbenchmarks of the raw fabric verbs (the substrate of
//! Figure 3): single-client `RDMA_WRITE` at several IO sizes and the atomic
//! verbs against host versus on-chip memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sherman_sim::{Fabric, FabricBackend, FabricConfig, GlobalAddress};

fn write_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdma_write");
    group.sample_size(20);
    for io in [16usize, 128, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(io), &io, |b, &io| {
            let fabric = Fabric::new(FabricConfig::small_test());
            let mut client = fabric.client(0);
            let payload = vec![0u8; io];
            let addr = GlobalAddress::host(0, 64 << 10);
            b.iter(|| client.write(addr, &payload).unwrap());
        });
    }
    group.finish();
}

fn atomics(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdma_atomics");
    group.sample_size(20);
    group.bench_function("cas_host", |b| {
        let fabric = Fabric::new(FabricConfig::small_test());
        let mut client = fabric.client(0);
        let addr = GlobalAddress::host(0, 32 << 10);
        b.iter(|| client.cas(addr, 0, 0).unwrap());
    });
    group.bench_function("cas_on_chip", |b| {
        let fabric = Fabric::new(FabricConfig::small_test());
        let mut client = fabric.client(0);
        let addr = GlobalAddress::on_chip(0, 1 << 10);
        b.iter(|| client.cas(addr, 0, 0).unwrap());
    });
    group.finish();
}

criterion_group!(benches, write_sizes, atomics);
criterion_main!(benches);
