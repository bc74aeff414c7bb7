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
//! cargo run --release -p sherman_bench --bin offload [-- --quick]
//!     [--threads N] [--ops N] [--backend sim|threaded]
//! ```
//!
//! Two gates hold in tier-1 (`offloadbench::tests` in
//! `crates/bench/src/lib.rs`): the adaptive policy within 5 % of the best
//! fixed policy on the cold-cache deep-tree far-fabric point, and a
//! cold-cache lookup under `Always` in exactly one fabric round trip — one
//! RPC, no one-sided READ.  (That no lookup disagrees with a model of the
//! tree through insert/delete churn and a coherence quiesce under offload is
//! `tests/offload_equivalence.rs`.)

use sherman::OffloadPolicy;
use sherman_bench::presets::OFFLOAD_QUICK;
use sherman_bench::{fmt_mops, fmt_us, print_table, run_with_backend, Args, Experiment, RunReport};
use sherman_workload::KeyDistribution;

const POLICIES: [OffloadPolicy; 3] = [
    OffloadPolicy::Never,
    OffloadPolicy::Always,
    OffloadPolicy::Adaptive,
];

fn main() {
    let args = Args::from_env();
    args.finish(&["quick", "threads", "ops", "backend"]);

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
                        let mut exp = Experiment::offload_regime(policy, cold, far);
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
