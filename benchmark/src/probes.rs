//! Layer probes: each times one public function of one layer on its own,
//! after the workload has run.  A probe's *host* figure is what this program
//! spends in the call; a *model* figure is what the call advances the fabric
//! clock by on an otherwise idle client.  Every probe is a child span of the
//! `probe` root.

use crate::report::Metrics;
use crate::stream::PackedOp;
use crate::trace::{host_ns, Span, RUN_SPAN};
use sherman_repro::sherman::{Cluster, ClusterConfig, TreeOptions};
use sherman_repro::sherman_cache::{IndexCache, IndexCacheConfig};
use sherman_repro::sherman_memserver::{ClientAllocator, MemoryPool};
use sherman_repro::sherman_metrics::LatencyHistogram;
use sherman_repro::sherman_sim::{
    ClientCtx, Fabric, FabricBackend, FabricChannel, FabricConfig, GlobalAddress, MemSpace,
    ThreadedFabric, WriteCmd,
};
use sherman_repro::sherman_workload::{KeyDistribution, Mix, WorkloadSpec};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const PROBE_SPAN: u32 = RUN_SPAN + 100;

pub struct ProbeInput<'a> {
    /// Host-time zero of the run.
    pub origin: Instant,
    /// The workload's first stream: the keys the cache probes look up.
    pub keys: &'a [PackedOp],
    pub node_size: usize,
}

struct Prober {
    origin: Instant,
    metrics: Metrics,
    spans: Vec<Span>,
}

impl Prober {
    /// Time `iters` calls of `f` after a tenth as many untimed ones; returns
    /// host ns per call and records the probe's span.
    fn time(&mut self, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        (0..iters / 10 + 1).for_each(&mut f);
        let host_start_ns = host_ns(self.origin);
        let began = Instant::now();
        (0..iters).for_each(&mut f);
        let ns = began.elapsed().as_nanos() as f64 / iters as f64;
        self.spans.push(Span::host_only(
            name,
            PROBE_SPAN + 1 + self.spans.len() as u32,
            PROBE_SPAN,
            0,
            (host_start_ns, host_ns(self.origin)),
        ));
        ns
    }

    /// [`Prober::time`] for a call on `ctx`: sets `host` to the host ns per
    /// call and `model` to the fabric ns a call advanced `ctx`'s clock by.
    fn time_verb<C: FabricChannel>(
        &mut self,
        host: Option<&'static str>,
        model: Option<&'static str>,
        iters: u64,
        ctx: &mut ClientCtx<C>,
        mut f: impl FnMut(&mut ClientCtx<C>, u64),
    ) {
        let span = host.or(model).expect("a verb probe reports something");
        // The untimed calls come first; the model figure skips them too.
        let warm = iters / 10 + 1;
        let (mut calls, mut fabric_start) = (0, 0);
        let ns = self.time(span, iters, |i| {
            if calls == warm {
                fabric_start = ctx.now();
            }
            calls += 1;
            f(ctx, i);
        });
        if let Some(host) = host {
            self.metrics.set(host, ns);
        }
        if let Some(model) = model {
            self.metrics
                .set(model, (ctx.now() - fabric_start) as f64 / iters as f64);
        }
    }
}

/// Run every probe.  `cluster` is the workload's, after its run: its warmed
/// cache, its lock manager and a real node image are probed in place; verbs,
/// allocation and the clock are probed on fabrics of their own.
pub fn run<B: FabricBackend>(
    cluster: &Arc<Cluster<B>>,
    input: &ProbeInput<'_>,
) -> (Metrics, Vec<Span>) {
    let mut p = Prober {
        origin: input.origin,
        metrics: Metrics::default(),
        spans: Vec::new(),
    };
    let began = host_ns(input.origin);
    let keys: Vec<u64> = input.keys.iter().take(4_096).map(|op| op.key()).collect();
    let node = probe_core(&mut p, cluster, &keys);
    probe_cache(&mut p, cluster, &keys, input.node_size);
    probe_locks(&mut p, cluster, node);
    probe_sim(&mut p, input.node_size);
    probe_memserver(&mut p, cluster, input.node_size);
    probe_driver(&mut p);
    p.spans.push(Span::host_only(
        "probe",
        PROBE_SPAN,
        RUN_SPAN,
        0,
        (began, host_ns(input.origin)),
    ));
    (p.metrics, p.spans)
}

/// Encode/decode on images of a real leaf and its real parent.  Returns the
/// leaf's address when the cache could name one.
fn probe_core<B: FabricBackend>(
    p: &mut Prober,
    cluster: &Arc<Cluster<B>>,
    keys: &[u64],
) -> Option<GlobalAddress> {
    let layout = *cluster.layout();
    let parent = keys
        .iter()
        .find_map(|&k| cluster.cache(0).lookup_covering(k))?;
    let leaf_addr = parent.child_for(parent.fence_low);
    let mut leaf_image = vec![0u8; layout.node_size()];
    let mut parent_image = vec![0u8; layout.node_size()];
    cluster.fabric().god_read(leaf_addr, &mut leaf_image).ok()?;
    cluster
        .fabric()
        .god_read(parent.addr, &mut parent_image)
        .ok()?;
    if !layout.decode_header(&leaf_image).is_leaf {
        return None;
    }
    let leaf = layout.decode_leaf(&leaf_image);
    let ns = p.time("core.host_ns_per_decode_leaf", 20_000, |_| {
        black_box(layout.decode_leaf(black_box(&leaf_image)));
    });
    p.metrics.set("core.host_ns_per_decode_leaf", ns);
    let ns = p.time("core.host_ns_per_encode_leaf", 20_000, |_| {
        black_box(layout.encode_leaf(black_box(&leaf)));
    });
    p.metrics.set("core.host_ns_per_encode_leaf", ns);
    let ns = p.time("core.host_ns_per_decode_internal", 20_000, |_| {
        black_box(layout.decode_internal(black_box(&parent_image)));
    });
    p.metrics.set("core.host_ns_per_decode_internal", ns);
    let ns = p.time("core.host_ns_per_version_check", 200_000, |_| {
        black_box(layout.node_versions_match(black_box(&leaf_image)));
    });
    p.metrics.set("core.host_ns_per_version_check", ns);
    Some(leaf_addr)
}

fn probe_cache<B: FabricBackend>(
    p: &mut Prober,
    cluster: &Arc<Cluster<B>>,
    keys: &[u64],
    node_size: usize,
) {
    let cache = cluster.cache(0);
    let key = |i: u64| keys[i as usize % keys.len()];
    let ns = p.time("cache.host_ns_per_lookup_leaf", 100_000, |i| {
        black_box(cache.lookup_leaf(key(i)));
    });
    p.metrics.set("cache.host_ns_per_lookup_leaf", ns);
    let ns = p.time("cache.host_ns_per_search_top", 100_000, |i| {
        black_box(cache.search_top(key(i)));
    });
    p.metrics.set("cache.host_ns_per_search_top", ns);
    // A cache of 64 entries of its own, so that every insert past the 64th
    // evicts: admission, insertion and the two-choice eviction together.
    let Some(template) = keys.iter().find_map(|&k| cache.lookup_covering(k)) else {
        return;
    };
    let small = IndexCache::new(IndexCacheConfig::new(64 * node_size, node_size));
    let ns = p.time("cache.host_ns_per_insert_level1", 20_000, |i| {
        let mut node = template.clone();
        node.fence_low = i * 1_000;
        node.fence_high = i * 1_000 + 1_000;
        node.addr = GlobalAddress::host(0, 4_096 + i * node_size as u64);
        small.insert_level1(node);
    });
    p.metrics.set("cache.host_ns_per_insert_level1", ns);
}

fn probe_locks<B: FabricBackend>(
    p: &mut Prober,
    cluster: &Arc<Cluster<B>>,
    node: Option<GlobalAddress>,
) {
    let manager = Arc::clone(cluster.lock_manager());
    // Any node-aligned address maps to a lock word; prefer a real leaf's.
    let node = node.unwrap_or(GlobalAddress::host(0, 1 << 20));
    let mut ctx = cluster.fabric().client(0);
    let round_trips = ctx.stats().round_trips;
    let mut pairs = 0u64;
    p.time_verb(
        Some("locks.host_ns_per_acquire_release"),
        Some("locks.model_ns_per_acquire_release"),
        10_000,
        &mut ctx,
        |ctx, _| {
            manager.acquire(ctx, node).expect("uncontended acquire");
            manager
                .release(ctx, node, Vec::new(), true)
                .expect("release of a held lock");
            pairs += 1;
        },
    );
    p.metrics.set(
        "locks.round_trips_per_acquire_release",
        (ctx.stats().round_trips - round_trips) as f64 / pairs as f64,
    );
    drop(ctx);
    p.metrics
        .set("locks.samecs_handover_ratio", samecs_handover_ratio());
}

/// Two clients of the *same* compute server writing a 256-key space on a
/// simulator cluster of their own: the share of writes whose lock came by
/// local handover (the two-server workloads cannot hand over at all).
fn samecs_handover_ratio() -> f64 {
    const OPS: usize = 4_000;
    let spec = WorkloadSpec {
        key_space: 256,
        bulkload_keys: 204,
        mix: Mix::WRITE_ONLY,
        distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
        range_size: 0,
        seed: 1,
        update_fraction: 2.0 / 3.0,
    };
    let cluster: Arc<Cluster> =
        Cluster::new(ClusterConfig::paper_scaled(2, 2), TreeOptions::sherman());
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k)))
        .expect("bulkload of 204 keys");
    let barrier = Barrier::new(2);
    let handovers: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (cluster, spec, barrier) = (&cluster, &spec, &barrier);
                scope.spawn(move || {
                    let ops = spec.generator(t).take_ops(OPS);
                    let mut client = cluster.client(0);
                    barrier.wait();
                    let mut handed = 0;
                    for op in ops {
                        if let sherman_repro::sherman_workload::Op::Insert { key, value } = op {
                            let stats = client.insert(key, value).expect("insert");
                            handed += u64::from(stats.handed_over);
                        }
                    }
                    handed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    handovers as f64 / (2 * OPS) as f64
}

fn probe_fabric_config() -> FabricConfig {
    FabricConfig {
        memory_servers: 2,
        compute_servers: 2,
        ..FabricConfig::default()
    }
}

fn probe_sim(p: &mut Prober, node_size: usize) {
    let fabric = Fabric::new(probe_fabric_config());
    let mut ctx = fabric.client(0);
    let host = |i: u64| GlobalAddress::host((i % 2) as u16, 4_096 + (i % 1_024) * node_size as u64);
    let mut buf = vec![0u8; node_size];

    p.time_verb(
        Some("sim.host_ns_per_read_node"),
        Some("sim.model_ns_per_read_node"),
        50_000,
        &mut ctx,
        |ctx, i| ctx.read(host(i), &mut buf).expect("read inside the region"),
    );
    // What an entry write-back plus lock release is on the wire: a 19-byte
    // entry and an 8-byte word in one doorbell batch.
    let batch = [
        WriteCmd::new(GlobalAddress::host(0, 8_192), vec![1u8; 19]),
        WriteCmd::new(GlobalAddress::host(0, 8_192 + 512), vec![0u8; 8]),
    ];
    p.time_verb(
        Some("sim.host_ns_per_write_batch"),
        Some("sim.model_ns_per_write_entry"),
        50_000,
        &mut ctx,
        |ctx, _| ctx.post_writes(&batch).expect("write inside the region"),
    );
    p.time_verb(
        Some("sim.host_ns_per_cas"),
        Some("sim.model_ns_per_cas_host"),
        50_000,
        &mut ctx,
        |ctx, i| {
            black_box(ctx.cas(host(i), 0, 0).expect("aligned cas"));
        },
    );
    p.time_verb(
        Some("sim.host_ns_per_masked_cas"),
        Some("sim.model_ns_per_cas_onchip"),
        50_000,
        &mut ctx,
        |ctx, i| {
            let word = GlobalAddress::on_chip(0, (i % 1_024) * 8);
            black_box(
                ctx.masked_cas(word, 0, 0, 0xffff)
                    .expect("aligned masked cas"),
            );
        },
    );
    p.time_verb(
        Some("sim.host_ns_per_post_poll"),
        None,
        50_000,
        &mut ctx,
        |ctx, i| {
            let token = ctx.post_read(host(i), 64).expect("read inside the region");
            black_box(ctx.poll_token(token));
        },
    );
    p.time_verb(
        None,
        Some("sim.model_ns_per_rpc"),
        20_000,
        &mut ctx,
        |ctx, _| ctx.rpc_round_trip(0, 64, 64).expect("rpc to server 0"),
    );
    let ns = p.time("sim.host_ns_per_wait_1p", 50_000, |_| {
        ctx.wait_until(ctx.now() + 1_000)
    });
    p.metrics.set("sim.host_ns_per_wait_1p", ns);

    // Two participants whose wake-ups alternate: every `wait_until` can only
    // return after the other thread has blocked, so each is one hand-off of
    // the clock between OS threads.
    const WAITS: u64 = 20_000;
    let barrier = Barrier::new(2);
    let ns = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let ctx = fabric.client(1);
            barrier.wait();
            let base = ctx.now();
            (1..=WAITS).for_each(|i| ctx.wait_until(base + i * 1_000 + 500));
        });
        barrier.wait();
        let base = ctx.now();
        let ns = p.time("sim.host_ns_per_wait_2p", WAITS - WAITS / 10 - 1, {
            let mut i = 0;
            let ctx = &ctx;
            move |_| {
                i += 1;
                ctx.wait_until(base + i * 1_000);
            }
        });
        // Leave the clock before joining: a registered thread that has
        // stopped waiting would stall the other's remaining waits.
        drop(ctx);
        other.join().expect("clock probe thread");
        ns
    });
    // Two hand-offs per pair of waits, one measured per call.
    p.metrics.set("sim.host_ns_per_wait_2p", ns);

    let region = fabric.server(0).expect("server 0").region(MemSpace::Host);
    let mut kib = vec![0u8; 1_024];
    let ns = p.time("sim.region_read_ns_per_kib", 200_000, |i| {
        region
            .read_bytes(4_096 + (i % 4_096) * 1_024, &mut kib)
            .expect("inside the region");
    });
    p.metrics.set("sim.region_read_ns_per_kib", ns);
    let ns = p.time("sim.region_write_ns_per_kib", 200_000, |i| {
        region
            .write_bytes(4_096 + (i % 4_096) * 1_024, &kib)
            .expect("inside the region");
    });
    p.metrics.set("sim.region_write_ns_per_kib", ns);

    let threaded = ThreadedFabric::new(probe_fabric_config());
    let mut ctx = threaded.client(0);
    p.time_verb(
        Some("sim.threaded.host_ns_per_read_node"),
        None,
        100_000,
        &mut ctx,
        |ctx, i| ctx.read(host(i), &mut buf).expect("read inside the region"),
    );
    p.time_verb(
        Some("sim.threaded.host_ns_per_cas"),
        None,
        100_000,
        &mut ctx,
        |ctx, i| {
            black_box(ctx.cas(host(i), 0, 0).expect("aligned cas"));
        },
    );
}

fn probe_memserver<B: FabricBackend>(p: &mut Prober, cluster: &Arc<Cluster<B>>, node_size: usize) {
    let fabric = Fabric::new(probe_fabric_config());
    let pool = MemoryPool::new(Arc::clone(&fabric), 1 << 20);
    let mut allocator = ClientAllocator::new(pool, node_size as u64, 0);
    let mut ctx = fabric.client(0);
    let ns = p.time("memserver.host_ns_per_alloc_node", 20_000, |_| {
        black_box(
            allocator
                .alloc_node_untimed(&mut ctx)
                .expect("the probe pool holds 128 MB"),
        );
    });
    p.metrics.set("memserver.host_ns_per_alloc_node", ns);
    let reader = cluster.epoch_registry().register();
    let ns = p.time("memserver.host_ns_per_pin_unpin", 200_000, |_| {
        drop(black_box(reader.pin()))
    });
    p.metrics.set("memserver.host_ns_per_pin_unpin", ns);
}

/// What generating an operation and recording a latency cost the drivers in
/// `crates/bench` (this benchmark generates before timing and keeps exact
/// samples, so neither is inside its own measurements).
fn probe_driver(p: &mut Prober) {
    let spec = WorkloadSpec::default_scaled();
    let mut generator = spec.generator(0);
    let ns = p.time("workload.host_ns_per_next_op", 200_000, |_| {
        black_box(generator.next_op());
    });
    p.metrics.set("workload.host_ns_per_next_op", ns);
    let mut histogram = LatencyHistogram::new();
    let ns = p.time("metrics.host_ns_per_record", 1_000_000, |i| {
        histogram.record(5_440 + i % 4_096)
    });
    p.metrics.set("metrics.host_ns_per_record", ns);
    black_box(histogram.p99());
}
