//! Criterion microbenchmarks of single tree operations for the full Sherman
//! configuration and the FG+ baseline (the substrate of Figures 10/11 at
//! micro scale): point lookups, in-place updates, fresh inserts, deletes of
//! present keys and short range scans.

use criterion::{criterion_group, criterion_main, Criterion};
use sherman::{Cluster, ClusterConfig, TreeClient, TreeOptions};
use std::sync::Arc;

fn bulkloaded(options: TreeOptions) -> (Arc<Cluster>, TreeClient) {
    let cluster = Cluster::new(ClusterConfig::paper_scaled(2, 2), options);
    cluster
        .bulkload((0..50_000u64).map(|k| (k * 2, k)))
        .expect("bulkload");
    let client = cluster.client(0);
    (cluster, client)
}

fn tree_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops");
    group.sample_size(20);
    for (name, options) in [("sherman", TreeOptions::sherman()), ("fg_plus", TreeOptions::fg_plus())] {
        group.bench_function(format!("{name}/lookup_hit"), |b| {
            let (_cluster, mut client) = bulkloaded(options);
            let mut key = 0u64;
            b.iter(|| {
                key = (key + 2_000) % 100_000;
                client.lookup(key).unwrap()
            });
        });
        group.bench_function(format!("{name}/update_in_place"), |b| {
            let (_cluster, mut client) = bulkloaded(options);
            let mut key = 0u64;
            b.iter(|| {
                key = (key + 2_000) % 100_000;
                client.insert(key, 7).unwrap()
            });
        });
        group.bench_function(format!("{name}/insert_fresh"), |b| {
            let (_cluster, mut client) = bulkloaded(options);
            let mut key = 1u64;
            b.iter(|| {
                key += 2; // odd keys are absent from the bulkload
                client.insert(key, 7).unwrap()
            });
        });
        group.bench_function(format!("{name}/delete_present"), |b| {
            let (_cluster, mut client) = bulkloaded(options);
            let mut key = 0u64;
            b.iter(|| {
                // Every even key once before any repeats, one per leaf in a row.
                key = (key + 2_002) % 100_000;
                client.delete(key).unwrap()
            });
        });
        group.bench_function(format!("{name}/range_100"), |b| {
            let (_cluster, mut client) = bulkloaded(options);
            let mut key = 0u64;
            b.iter(|| {
                key = (key + 4_000) % 90_000;
                client.range(key, 100).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, tree_ops);
criterion_main!(benches);
