//! Offload — the server-side traversal placement regime map (beyond the paper).
//!
//! Sherman traverses the tree from the client with one-sided READs; a cold
//! index cache turns every lookup into a chain of dependent round trips, one
//! per level.  This reproduction adds FlexKV/Outback-style index offloading:
//! a cache-missed descent can instead ship one typed `TraverseStep` RPC to
//! the home memory server, whose bounded interpreter walks its local node
//! images and replies with the leaf — O(1) fabric round trips however deep
//! the tree.  Offload is not free (the RPC is charged server-side work and
//! loses to a warm cache hit that needs only one READ), so the interesting
//! question is *where* each placement wins.  This binary sweeps the regime
//! map — skew × cache budget × tree depth (plus a far-fabric variant of the
//! deep point, since the RTT-to-service ratio is what moves the crossover)
//! — for the three policies (`Never` = pure client-side, `Always`,
//! `Adaptive`) and reports the crossover.
//!
//! ```text
//! cargo run --release -p sherman_bench --bin offload [-- --quick] [--smoke]
//!     [--threads N] [--ops N] [--backend sim|threaded]
//! ```
//!
//! `--smoke` runs the CI gate at quick scale and exits non-zero when
//! (1) the adaptive policy falls more than 5% behind the best fixed policy
//! on the cold-cache deep-tree far-fabric point, or (2) a cold-cache lookup
//! under `Always` costs anything other than exactly one fabric round trip —
//! one RPC and zero one-sided READs.  (That no lookup disagrees with a model
//! of the tree through insert/delete churn and a coherence quiesce under
//! offload is a tier-1 test: `tests/offload_equivalence.rs`.)

use sherman::{Cluster, ClusterConfig, OffloadPolicy};
use sherman_bench::presets::OFFLOAD_QUICK;
use sherman_bench::{
    fmt_mops, fmt_us, print_table, run_with_backend, smoke_verdict, Args, Experiment, RunReport,
};
use sherman_workload::KeyDistribution;

const POLICIES: [OffloadPolicy; 3] = [
    OffloadPolicy::Never,
    OffloadPolicy::Always,
    OffloadPolicy::Adaptive,
];

/// Unloaded round-trip time of the far-fabric regime (cross-rack, far memory
/// tier): offload trades dependent client RTTs for one RPC plus server work,
/// so this is its home.
const FAR_RTT_NS: u64 = 5_000;

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "smoke", "threads", "ops", "backend"]);
    if args.flag("smoke") {
        smoke(&args);
        return;
    }

    println!("Offload: server-side traversal placement regime map (100% lookups)");
    let mut rows = Vec::new();
    for &(depth_name, node_size, key_space, far) in &[
        ("shallow", 1024usize, 1u64 << 13, false),
        ("deep", 256, 1 << 16, false),
        ("deep-far", 256, 1 << 16, true),
    ] {
        for &(skew_name, dist) in &[
            ("uniform", KeyDistribution::Uniform),
            ("zipf-0.99", KeyDistribution::ScrambledZipfian { theta: 0.99 }),
        ] {
            for &(cache_name, cold) in &[("warm", false), ("cold", true)] {
                let results: Vec<RunReport> = POLICIES
                    .iter()
                    .map(|&policy| {
                        let mut exp = regime(policy, cold, far);
                        exp.tree.node_size = node_size;
                        exp.source.set_key_space(key_space);
                        exp.source.workload_mut().distribution = dist;
                        let exp = exp.scaled_by(&args, "keys", &OFFLOAD_QUICK);
                        run_with_backend(&args, &exp).expect_clean()
                    })
                    .collect();
                let best = (0..POLICIES.len())
                    .max_by(|&a, &b| {
                        let throughput = |i: usize| results[i].summary.throughput_ops;
                        throughput(a).total_cmp(&throughput(b))
                    })
                    .expect("three results");
                let adaptive = &results[2];
                rows.push(vec![
                    format!("{depth_name}/{skew_name}/{cache_name}"),
                    fmt_mops(results[0].summary.throughput_ops),
                    fmt_mops(results[1].summary.throughput_ops),
                    fmt_mops(results[2].summary.throughput_ops),
                    format!("{:?}", POLICIES[best]),
                    format!("{:.0}%", adaptive.offload.offload_ratio() * 100.0),
                    format!("{:.2}", adaptive.round_trips_per_op()),
                    fmt_us(adaptive.summary.p50_ns),
                ]);
            }
        }
    }
    print_table(
        &[
            "regime",
            "never",
            "always",
            "adaptive",
            "winner",
            "ad-offload",
            "ad-rt/op",
            "ad-p50",
        ],
        &rows,
    );
    println!("\nnever/always/adaptive = lookup throughput (Mops) under each placement policy");
    println!("ad-offload = fraction of adaptive placement decisions that chose the RPC");
    println!("ad-rt/op   = adaptive mean fabric round trips per lookup (1.0 = offload ideal)");
}

/// One (policy, cache, distance) point at the default deep-tree scale.
fn regime(policy: OffloadPolicy, cold: bool, far: bool) -> Experiment {
    let mut exp = Experiment::offload(format!("{policy:?}"), policy);
    exp.cold_start = cold;
    if cold {
        // The cold regime also starves the type-1 cache so it cannot rewarm
        // past a handful of routes during the measured phase.
        exp.tree.cache_bytes = 4 << 10;
    }
    if far {
        exp.fabric.base_rtt_ns = FAR_RTT_NS;
    }
    exp
}

/// CI gate: the adaptive crossover and the O(1) cold lookup, at quick scale.
fn smoke(args: &Args) {
    let mut failures = Vec::new();
    smoke_adaptive_crossover(args, &mut failures);
    smoke_cold_lookup_is_one_round_trip(&mut failures);
    smoke_verdict("offload", &failures);
}

/// Gate 1: on the cold-cache deep-tree point the adaptive policy must hold
/// at least 95% of whichever fixed placement wins.
fn smoke_adaptive_crossover(args: &Args, failures: &mut Vec<String>) {
    let run = |policy| {
        // Not capped like a `--quick` run: the gate needs the full-depth
        // tree, just fewer operations, on the far fabric.
        let mut exp = regime(policy, true, true);
        exp.threads = args.get_or("threads", 2);
        exp.ops_per_thread = args.get_or("ops", 400);
        run_with_backend(args, &exp).expect_clean()
    };
    let never = run(OffloadPolicy::Never);
    let always = run(OffloadPolicy::Always);
    let adaptive = run(OffloadPolicy::Adaptive);
    let best = never
        .summary
        .throughput_ops
        .max(always.summary.throughput_ops);
    let ratio = adaptive.summary.throughput_ops / best.max(f64::MIN_POSITIVE);
    println!(
        "offload smoke [crossover]: never={} always={} adaptive={} ratio-vs-best={:.3} \
         adaptive-offload={:.0}%",
        fmt_mops(never.summary.throughput_ops),
        fmt_mops(always.summary.throughput_ops),
        fmt_mops(adaptive.summary.throughput_ops),
        ratio,
        adaptive.offload.offload_ratio() * 100.0,
    );
    if ratio < 0.95 {
        failures.push(format!(
            "[crossover] adaptive holds only {ratio:.3} of the best fixed policy \
             (needs >= 0.95)"
        ));
    }
}

/// Gate 2: with every cached route dropped, an `Always` lookup must collapse
/// the whole multi-level descent (256-byte nodes over a 12k-key bulkload)
/// into exactly one fabric round trip — one typed RPC, zero one-sided READs.
fn smoke_cold_lookup_is_one_round_trip(failures: &mut Vec<String>) {
    let mut exp = Experiment::offload("cold-lookup", OffloadPolicy::Always);
    exp.fabric.memory_servers = 2;
    let config = ClusterConfig {
        fabric: exp.fabric,
        tree: exp.tree,
    };
    let cluster = Cluster::new(config, exp.options);
    cluster
        .bulkload((0..12_000u64).map(|k| (k, k.wrapping_mul(7) + 1)))
        .expect("bulkload");
    for cs in 0..2 {
        cluster.cache(cs).clear();
    }
    let mut client = cluster.client(0);
    let (value, stats) = client.lookup(6_000).expect("lookup");
    println!(
        "offload smoke [cold-lookup]: round_trips={} rpcs={} reads={} value={value:?}",
        stats.round_trips, stats.rpcs, stats.reads
    );
    if value != Some(6_000u64.wrapping_mul(7) + 1) {
        failures.push(format!("[cold-lookup] wrong value {value:?}"));
    }
    if stats.round_trips != 1 || stats.rpcs != 1 || stats.reads != 0 {
        failures.push(format!(
            "[cold-lookup] cost must be exactly one RPC round trip, got \
             round_trips={} rpcs={} reads={}",
            stats.round_trips, stats.rpcs, stats.reads
        ));
    }
}

