//! The level-aware index cache, end to end: one byte budget spent top-down
//! along the paths the traffic uses.
//!
//! * a deep tree under a budget worth a tenth of level 1 pays only the
//!   uncached suffix of the path, and uniform traffic does not churn the
//!   budget,
//! * a cache that fits costs what the paper's two-set cache cost, verb for
//!   verb,
//! * the structural invariants hold under arbitrary offer / lookup /
//!   invalidate / re-budget sequences,
//! * a route that went stale under a cached inner node heals on first use,
//! * skewed traffic still gets its hot level-1 nodes in,
//! * a runtime shrink evicts the paths bottom-up, children before parents.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_repro::sherman_cache::{CachedInternal, ChildRef, IndexCache, IndexCacheConfig};
use sherman_repro::sherman_sim::GlobalAddress;
use std::sync::Arc;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bulkloaded tree of `keys` keys (`stride` apart) in 256 B nodes with an
/// index cache of `cache_entries` nodes per compute server.
fn deep_cluster(keys: u64, stride: u64, cache_entries: usize) -> Arc<Cluster> {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    config.tree.cache_bytes = cache_entries * config.tree.node_size;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster
        .bulkload((0..keys).map(|k| (k * stride, k)))
        .unwrap();
    cluster
}

/// (a) The `lookup_cold_deep` geometry in miniature: 7 500 leaves under 834 /
/// 93 / 11 / 2 / 1 internal nodes, a budget of 84 entries (a tenth of level
/// 1), uniform keys, one client.  The two-set cache spent those entries on 84
/// of the 834 level-1 nodes, read 3.7 nodes per lookup and evicted on nine
/// lookups in ten; spent top-down they hold level 3 and most of level 2.
#[test]
fn a_deep_cold_lookup_pays_the_uncached_suffix_of_its_path() {
    let keys = 60_000u64;
    let cluster = deep_cluster(keys, 2, 84);
    let census = cluster.node_census().unwrap();
    assert_eq!((census.leaves, census.internals), (7_500, 941));
    let mut client = cluster.client(0);
    let mut rng = 7u64;
    let mut lookups = |n: u64| -> u64 {
        (0..n)
            .map(|_| {
                let k = splitmix(&mut rng) % keys;
                let (value, stats) = client.lookup(k * 2).unwrap();
                assert_eq!(value, Some(k));
                stats.reads
            })
            .sum()
    };
    lookups(10_000);
    let stats = cluster.cache(0).stats();
    let (evictions, skipped) = (stats.evictions(), stats.levels_skipped());
    let n = 30_000u64;
    let reads = lookups(n) as f64 / n as f64;
    let evictions = (stats.evictions() - evictions) as f64 * 1e3 / n as f64;
    let skipped = (stats.levels_skipped() - skipped) as f64 / n as f64;
    assert!(reads <= 2.7, "{reads:.3} reads per lookup");
    assert!(
        evictions < 200.0,
        "{evictions:.1} evictions per 1 000 lookups"
    );
    // Six levels in all; what a lookup did not skip, it read.
    assert!((reads + skipped - 6.0).abs() < 1e-9, "{reads} + {skipped}");
    assert_eq!(stats.top_hit_ratio(), 1.0);
    assert!(stats.deferred_admissions() > 0);
}

/// One seeded single-client sequence on a tree whose level 1 fits the cache
/// (lookups, inserts that split, deletes that merge, scans): per class of
/// operation — lookup, insert, delete, scan — the sums of round trips, reads,
/// bytes read, bytes written and virtual ns, and a running hash over every
/// single operation's five figures.
fn fitting_cache_costs() -> ([[u64; 5]; 4], u64) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    cluster.bulkload((0..3_000u64).map(|k| (k * 2, k))).unwrap();
    let mut client = cluster.client(0);
    let mut sums = [[0u64; 5]; 4];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut record = |class: usize, s: OpStats| {
        let figures = [
            s.round_trips,
            s.reads,
            s.bytes_read,
            s.bytes_written,
            s.latency_ns,
        ];
        for (sum, f) in sums[class].iter_mut().zip(figures) {
            *sum += f;
            hash = (hash ^ f).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut state = 0x5EEDu64;
    for i in 0..3_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (state >> 33) % 6_000;
        match i % 8 {
            0..=2 => record(0, client.lookup(key).unwrap().1),
            3 | 4 => record(1, client.insert(key | 1, i).unwrap()),
            5 => record(1, client.insert(key & !1, i).unwrap()),
            6 => record(2, client.delete(key).unwrap().1),
            _ => record(3, client.range(key, 40).unwrap().1),
        }
    }
    // Drain a stretch so leaves and their parents merge.
    for k in 0..1_500u64 {
        record(2, client.delete(k * 2).unwrap().1);
    }
    let space = cluster.space_stats();
    assert!(space.leaf_merges > 0 && space.internal_merges > 0);
    (sums, hash)
}

/// (b) A cache that fits behaves exactly as the two-set cache did: the same
/// images, the same routes, hence the same verbs and the same virtual time
/// for every single operation.  The figures were recorded at the commit
/// before the caches were unified; the insert and delete rows (and the hash)
/// were re-captured when structural commits began to overlap what does not
/// depend on each other — inserts: the same verbs, 3.9 % less virtual time
/// (splits); deletes: 219 round trips and 110 reads fewer (the 109 merges and
/// rebalances take their parent from this very cache and read their three
/// nodes with the lock attempts), the same bytes written, 16 % less time —
/// and once more when structural commits began to write back what changed:
/// the same verbs, inserts 9.3 % and deletes 33.5 % fewer bytes written, 560
/// and 248 ns more virtual time (the NIC's per-command floor, 0.01 %) — and
/// when unsorted leaves began to be edited in place rather than re-packed:
/// deletes 8.3 % fewer bytes written (79 042 → 72 506), 413 ns more.
/// Lookups, inserts and scans did not move.
#[test]
fn a_cache_that_fits_costs_exactly_what_it_did() {
    let (sums, hash) = fitting_cache_costs();
    assert_eq!(
        sums,
        [
            [1_125, 1_125, 288_000, 0, 1_994_625],
            [2_420, 1_197, 306_432, 69_541, 4_089_086],
            [4_405, 2_203, 563_968, 72_506, 6_810_176],
            [949, 2_229, 570_624, 0, 1_789_303],
        ]
    );
    assert_eq!(hash, 304_262_843_084_321_969);
}

// ----------------------------------------------------------------------
// (c) Structural invariants under arbitrary sequences
// ----------------------------------------------------------------------

/// Fan-out of the synthetic tree below: 1 root (level 4), 2 / 6 / 24 nodes
/// on levels 3 / 2 / 1, each level-1 node 100 keys wide.
const NODES_PER_LEVEL: [u64; 5] = [0, 24, 6, 2, 1];
const KEY_SPAN: u64 = 2_400;

fn synthetic(level: u8, index: u64, version: u8) -> CachedInternal {
    let width = KEY_SPAN / NODES_PER_LEVEL[level as usize];
    let (lo, hi) = (index * width, (index + 1) * width);
    let fence_high = if hi == KEY_SPAN { u64::MAX } else { hi };
    let addr = |n: u64| GlobalAddress::host(0, ((level as u64) << 32 | lo << 8 | n) * 64);
    CachedInternal {
        addr: addr(255),
        fence_low: lo,
        fence_high,
        level,
        leftmost: addr(0),
        children: vec![ChildRef {
            separator: lo + width / 2,
            child: addr(1),
        }],
        version,
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Offer { level: u8, index: u64 },
    Lookup { key: u64 },
    Invalidate { index: u64 },
    Retire { level: u8, index: u64 },
    Budget { entries: usize },
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let node = || (1u8..4, 0u64..24).prop_map(|(l, i)| (l, i % NODES_PER_LEVEL[l as usize]));
    prop_oneof![
        node().prop_map(|(level, index)| CacheOp::Offer { level, index }),
        node().prop_map(|(level, index)| CacheOp::Offer { level, index }),
        node().prop_map(|(level, index)| CacheOp::Offer { level, index }),
        (0..KEY_SPAN + 100).prop_map(|key| CacheOp::Lookup { key }),
        (0u64..24).prop_map(|index| CacheOp::Invalidate { index }),
        node().prop_map(|(level, index)| CacheOp::Retire { level, index }),
        (1usize..20).prop_map(|entries| CacheOp::Budget { entries }),
    ]
}

/// Every image of `level` the cache holds, found by asking for the deepest
/// image at that level or above at each node's lower fence.
fn cached_at(cache: &IndexCache, level: u8) -> Vec<Arc<CachedInternal>> {
    (0..NODES_PER_LEVEL[level as usize])
        .filter_map(|i| cache.deepest(synthetic(level, i, 0).fence_low, level))
        .filter(|node| node.level == level)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn the_cached_set_stays_a_bounded_prefix_of_paths(
        ops in prop::collection::vec(cache_op(), 1..200),
    ) {
        let cache = IndexCache::new(IndexCacheConfig::new(8 * 256, 256));
        // Versions per (level, index): a retired node comes back one newer.
        let mut versions = [[1u8; 24]; 5];
        cache.set_top_levels(vec![
            Arc::new(synthetic(4, 0, 1)),
            Arc::new(synthetic(3, 0, 1)),
            Arc::new(synthetic(3, 1, 1)),
        ]);
        for op in ops {
            match op {
                CacheOp::Offer { level, index } => {
                    let version = versions[level as usize][index as usize];
                    cache.offer(Arc::new(synthetic(level, index, version)), 4);
                }
                CacheOp::Lookup { key } => {
                    for min_level in 1..=4 {
                        if let Some(node) = cache.deepest(key, min_level) {
                            prop_assert!(node.covers(key) && node.level >= min_level);
                        }
                    }
                    if let Some((leaf, from)) = cache.lookup_leaf(key) {
                        let node = cache.lookup_covering(key).unwrap();
                        prop_assert!(node.level == 1 && node.covers(key));
                        prop_assert_eq!((leaf, from), (node.child_for(key), node.addr));
                    }
                }
                CacheOp::Invalidate { index } => {
                    cache.invalidate(synthetic(1, index, 0).fence_low);
                }
                CacheOp::Retire { level, index } => {
                    // The node is freed at its current version (tombstone one
                    // above); the address is recycled two above.
                    let version = &mut versions[level as usize][index as usize];
                    cache.apply_invalidate(synthetic(level, index, 0).addr, version.wrapping_add(1));
                    *version = version.wrapping_add(2);
                }
                CacheOp::Budget { entries } => cache.set_capacity_bytes(entries * 256),
            }

            let max = cache.config().max_entries();
            prop_assert!(cache.len() <= max, "{} entries over a budget of {max}", cache.len());
            let (level1, level2) = (cached_at(&cache, 1), cached_at(&cache, 2));
            // Levels 3 and 4 are the pinned window; levels 1 and 2 are what
            // the budget is charged for.
            prop_assert_eq!(cache.len(), level1.len() + level2.len());
            for node in &level1 {
                let parent = cache.deepest(node.fence_low, 2).unwrap();
                prop_assert!(parent.level == 2, "level-1 image at {} has no cached parent", node.fence_low);
            }
            for node in level1.iter().chain(&level2).chain(&cached_at(&cache, 3)) {
                prop_assert!(cache.tombstoned(node.addr).is_none());
            }
        }
    }
}

// ----------------------------------------------------------------------
// (d) A stale route heals itself
// ----------------------------------------------------------------------

/// Client B splits level-1 nodes under client A's cached level-2 image
/// (splits publish no coherence message, so nothing tells A).  A's first
/// lookup of a key that moved to a new right half is routed to the left half,
/// pays one B-link hop and drops the routing image; its second lookup
/// re-reads the parent and pays no hop.
#[test]
fn a_route_that_went_stale_under_a_cached_inner_node_heals_on_first_use() {
    // 20 000 keys, 16 apart: 2 500 leaves under 278 / 31 / 4 / 1 internal
    // nodes.  40 entries hold level 2 and the nine lowest level-1 nodes.
    let cluster = deep_cluster(20_000, 16, 40);
    let cache = cluster.cache(1);
    let layout = *cluster.layout();
    let base = 200_000u64;
    {
        let mut b = cluster.client(0);
        for k in base..base + 1_600 {
            if k % 16 != 0 {
                b.insert(k, k).unwrap();
            }
        }
    }
    // A key A's cache still routes to a level-1 node that no longer covers it.
    let routed_beside = |k: u64| {
        let (child, level) = cache.search_top(k).unwrap();
        let mut image = vec![0u8; layout.node_size()];
        cluster.fabric().god_read(child, &mut image).unwrap();
        level == 1 && !layout.decode_header(&image).covers(k)
    };
    let moved = (base..base + 1_600)
        .find(|&k| routed_beside(k))
        .expect("1 500 inserts into 100 leaves split their level-1 parents");

    let mut a = cluster.client(1);
    let invalidations = cache.stats().invalidations();
    // A hop-free lookup reads the levels below its cached start, no more.
    let start_level = |k: u64| cache.search_top(k).unwrap().1 as u64;

    let below = start_level(moved);
    let (value, first) = a.lookup(moved).unwrap();
    assert_eq!(value, Some(moved));
    assert_eq!(
        first.reads,
        below + 2,
        "one sibling hop on top of the descent"
    );
    assert!(
        cache.stats().invalidations() > invalidations,
        "routing image dropped"
    );
    assert!(
        start_level(moved) > below,
        "the next descent starts above it"
    );

    let below = start_level(moved);
    let (value, second) = a.lookup(moved).unwrap();
    assert_eq!(value, Some(moved));
    assert_eq!(second.reads, below + 1, "no hop");
    assert!(
        !routed_beside(moved),
        "the fresh image routes to the new node"
    );
}

// ----------------------------------------------------------------------
// (e) Skew
// ----------------------------------------------------------------------

/// `fig15_sensitivity`'s smallest budget (64 KB of 1 KB nodes against 218
/// level-1 nodes) under its write-intensive mix with Zipfian 0.99 keys:
/// admission by reuse must not keep the hot level-1 nodes out.  The two-set
/// cache, which admitted on every miss, answered 15 505 of these 40 000
/// operations from a level-1 image.
#[test]
fn skewed_traffic_still_gets_its_hot_level1_nodes_in() {
    let spec = WorkloadSpec {
        key_space: 1 << 19,
        bulkload_keys: (1 << 19) / 5 * 4,
        mix: Mix::WRITE_INTENSIVE,
        distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
        range_size: 100,
        seed: 0x5EED,
        update_fraction: 2.0 / 3.0,
    };
    let mut config = ClusterConfig::paper_scaled(2, 2);
    config.tree.cache_bytes = 64 << 10;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    cluster
        .bulkload(spec.bulkload_iter().map(|k| (k, k)))
        .unwrap();
    let mut client = cluster.client(0);
    let mut gen = spec.generator(0);
    for _ in 0..40_000 {
        match gen.next_op() {
            Op::Lookup { key } => drop(client.lookup(key).unwrap()),
            Op::Insert { key, value } => drop(client.insert(key, value).unwrap()),
            op => unreachable!("{op:?} in a write-intensive mix"),
        }
    }
    let stats = cluster.cache(0).stats();
    assert_eq!(stats.hits() + stats.misses(), 40_000);
    assert!(stats.hits() >= 15_505, "{} level-1 answers", stats.hits());
}

// ----------------------------------------------------------------------
// (f) Runtime shrink
// ----------------------------------------------------------------------

/// `Cluster::set_cache_budget` evicts the cached paths bottom-up — a node
/// goes only after its cached children — so what survives a shrink is still a
/// set of path prefixes, and the pressure-eviction count is exactly the
/// number of entries removed.
#[test]
fn a_runtime_shrink_evicts_the_paths_bottom_up() {
    // 31 level-2 nodes and 89 of the 278 level-1 nodes fill 120 entries.
    let cluster = deep_cluster(20_000, 16, 120);
    assert_eq!(cluster.cache(0).len(), 120);
    cluster.set_cache_budget(20 * 256);
    for cs in 0..2 {
        let cache = cluster.cache(cs);
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.stats().pressure_evictions(), 100);
        assert_eq!(cache.stats().evictions(), 100);
        let mut level1 = 0;
        for k in (0..20_000u64).step_by(8).map(|k| k * 16) {
            if cache.search_top(k).unwrap().1 == 0 {
                level1 += 1;
                let parent = cache.deepest(k, 2).unwrap();
                assert_eq!(parent.level, 2, "level-1 image at {k} outlived its parent");
            }
        }
        assert!(
            level1 < 20 * 9,
            "{level1} sampled keys still answered at level 1"
        );
    }
    // Reads stay correct on the squeezed cache.
    let mut client = cluster.client(0);
    for k in (0..20_000u64).step_by(97) {
        assert_eq!(client.lookup(k * 16).unwrap().0, Some(k));
    }
    assert!(cluster.cache(0).len() <= 20);
}
