//! Criterion microbenchmarks of the lock ladder (the substrate of Figures 2
//! and 16): an uncontended acquire→release cycle for each design.

use criterion::{criterion_group, criterion_main, Criterion};
use sherman_bench::{run_lock_experiment, LockExperiment, LOCK_LADDER};

fn lock_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_cycle");
    group.sample_size(10);
    for (label, strategy) in LOCK_LADDER {
        group.bench_function(label, |b| {
            b.iter(|| {
                run_lock_experiment(&LockExperiment {
                    threads: 2,
                    compute_servers: 2,
                    locks: 64,
                    theta: 0.9,
                    ops_per_thread: 30,
                    ..LockExperiment::default_scaled(strategy)
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, lock_ladder);
criterion_main!(benches);
