//! What a structural commit costs, exactly: one client on the simulator, the
//! `OpStats` of the one insert that splits and the one delete that merges.
//!
//! * With command combination a structural commit waits only for what it
//!   depends on: a split overlaps its leaf write-back with the traversal to
//!   the parent and the parent's lock + read, a merge tries its three locks
//!   in one round trip (each with its node read folded in) and posts its
//!   three write-back + release batches together.  The posts are all still
//!   counted; the *latency* is that of the dependent chain — three or four
//!   round trips — plus the CPU the commit charges.
//!   The node write-backs are planned from the images the commit read under
//!   its locks (`NodeLayout::plan_write_back`): what changed travels, as
//!   ranges in the lock's one doorbell batch, so `writes` counts more commands
//!   and `bytes_written` fewer bytes than three whole nodes — never a round
//!   trip more.
//! * Without it nothing is overlapped and nothing is planned: every command
//!   waits for the one before and every node travels whole, verb for verb,
//!   byte for byte and nanosecond for nanosecond what the commit cost before
//!   any of this existed.
//! * Two clients merging overlapping triples found from opposite directions
//!   fall back to the rank-ordered acquisition and still terminate with a
//!   tree equal to the model.

use sherman_repro::prelude::*;
use sherman_repro::sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

/// The figures of an operation this suite pins: `(round_trips, reads, writes,
/// atomics, bytes_written, latency_ns)`.
type Cost = (u64, u64, u64, u64, u64, u64);

/// What the structural commits of an operation wrote back, lock words not
/// counted: `(commits, bytes)` of `SpaceSnapshot`.
type Structural = (u64, u64);

fn structural(cluster: &Cluster) -> Structural {
    let space = cluster.space_stats();
    (space.structural_commits, space.structural_bytes)
}

/// `run` on `cluster`: what its last operation cost, and what the structural
/// commits of all of them wrote back.
fn measured(cluster: &Cluster, run: impl FnOnce() -> OpStats) -> (Cost, Structural) {
    let before = structural(cluster);
    let stats = run();
    let after = structural(cluster);
    (cost(stats), (after.0 - before.0, after.1 - before.1))
}

fn costs<const N: usize>(measured: [(Cost, Structural); N]) -> [Cost; N] {
    measured.map(|(cost, _)| cost)
}

fn cost(s: OpStats) -> Cost {
    assert_eq!((s.rpcs, s.lock_retries, s.read_retries), (0, 0, 0), "{s:?}");
    (
        s.round_trips,
        s.reads,
        s.writes,
        s.atomics,
        s.bytes_written,
        s.latency_ns,
    )
}

/// 256 B nodes: 10 slots a leaf, bulkloaded 8 full with the even keys; 9
/// leaves under each level-1 node (which has room for 3 more); a leaf merges
/// when it is down to one key.
const PER_LEAF: u64 = 8;
const LEAVES_PER_PARENT: u64 = 9;

/// First key of bulkloaded leaf `leaf`.
fn first_key(leaf: u64) -> u64 {
    leaf * PER_LEAF * 2
}

fn cluster(keys: u64, options: TreeOptions) -> Arc<Cluster> {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    // Sixteen nodes a chunk: neighbouring stretches of the bulkloaded leaf
    // level live on different memory servers.
    config.tree.chunk_bytes = 4 << 10;
    let cluster = Cluster::new(config, options);
    cluster.bulkload((0..keys).map(|k| (k * 2, k))).unwrap();
    cluster
}

/// Memory server of the leaf holding `key`, as compute server 0's cache — warm
/// from the bulkload, healed by every commit of client 0 — names it.
fn server_of(cluster: &Cluster, key: u64) -> u16 {
    let (addr, _) = cluster.cache(0).lookup_leaf(key).expect("warm cache");
    addr.ms
}

/// Fill bulkloaded leaf `leaf` with odd keys until an insert splits it (the
/// third: two slots are vacant); returns what that insert cost.
fn split(client: &mut TreeClient, leaf: u64) -> OpStats {
    let mut last = None;
    for i in 0..3 {
        last = Some(client.insert(first_key(leaf) + 2 * i + 1, i).unwrap());
    }
    last.expect("three inserts")
}

/// Delete the keys of bulkloaded leaf `leaf` from the top down to
/// `keep` keys; returns what the last delete cost.
fn drain(client: &mut TreeClient, leaf: u64, keep: u64) -> OpStats {
    let mut last = None;
    for i in (keep..PER_LEAF).rev() {
        let (found, stats) = client.delete(first_key(leaf) + 2 * i).unwrap();
        assert!(found);
        last = Some(stats);
    }
    last.expect("at least one delete")
}


/// The splits of (a): under the root's child (the separator's traversal reads
/// the root), deeper (it does not), same-server and cross-server right half.
fn split_costs(options: TreeOptions) -> [(Cost, Structural); 4] {
    let mut out = Vec::new();
    for keys in [500u64, 4_000] {
        let cluster = cluster(keys, options);
        let mut client = cluster.client(0);
        // The first split fetches the client's chunk (an RPC): not measured.
        // Its right half shows which server the client carves nodes from.
        split(&mut client, 1);
        let carves_on = server_of(&cluster, first_key(2) - 2);
        for same_server in [true, false] {
            let leaf = (10..60)
                .find(|&l| (server_of(&cluster, first_key(l)) == carves_on) == same_server)
                .expect("bulkloaded leaves alternate between the servers");
            out.push(measured(&cluster, || split(&mut client, leaf)));
            let right_half = server_of(&cluster, first_key(leaf + 1) - 2);
            assert_eq!(right_half, carves_on);
            assert_eq!(right_half == server_of(&cluster, first_key(leaf)), same_server);
        }
    }
    out.try_into().unwrap()
}

/// 1 KB nodes: 50 slots a leaf, bulkloaded 40 full with the even keys; the
/// eleventh odd key inserted into a leaf splits it.  Returns what the
/// splitting insert into bulkloaded leaf 10 cost (the first split, of leaf 1,
/// fetches the client's chunk).
fn kilobyte_split_cost(options: TreeOptions) -> (Cost, Structural) {
    const PER_KB_LEAF: u64 = 40;
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    config.tree.node_size = 1 << 10;
    config.tree.chunk_bytes = 16 << 10;
    let cluster = Cluster::new(config, options);
    cluster.bulkload((0..4_000u64).map(|k| (k * 2, k))).unwrap();
    let mut client = cluster.client(0);
    let mut split = |leaf: u64| {
        let first = leaf * PER_KB_LEAF * 2;
        let inserts = (0..11).map(|i| client.insert(first + 2 * i + 1, i).unwrap());
        inserts.last().expect("eleven inserts")
    };
    split(1);
    measured(&cluster, || split(10))
}

/// The deletes of (b): merge right, merge left (the rightmost child of its
/// parent folds into its left sibling), rebalance (the right sibling is too
/// full to absorb).
fn merge_costs(options: TreeOptions) -> [(Cost, Structural); 3] {
    let cluster = cluster(4_000, options);
    let mut client = cluster.client(0);
    let space = |c: &Cluster| {
        let s = c.space_stats();
        (s.leaf_merges, s.left_merges, s.rebalances)
    };
    let right = measured(&cluster, || drain(&mut client, 3 * LEAVES_PER_PARENT + 2, 1));
    assert_eq!(space(&cluster), (1, 0, 0));
    let left = measured(&cluster, || drain(&mut client, 6 * LEAVES_PER_PARENT - 1, 1));
    assert_eq!(space(&cluster), (2, 1, 0));
    let donor = 9 * LEAVES_PER_PARENT + 3;
    for i in 0..2 {
        client.insert(first_key(donor) + 2 * i + 1, i).unwrap();
    }
    let rebalance = measured(&cluster, || drain(&mut client, donor - 1, 1));
    assert_eq!(space(&cluster), (2, 1, 1));
    [right, left, rebalance]
}

/// An insert whose leaf split finds its parent full: leaves under the first
/// level-1 node are split until one more separator does not fit, and the
/// insert measured is the one that splits the next leaf — a leaf split, an
/// internal split, and the promoted separator's insertion one level up.
fn internal_split_cost(options: TreeOptions) -> (Cost, Structural) {
    let cluster = cluster(4_000, options);
    let mut client = cluster.client(0);
    let room = cluster.layout().internal_capacity() as u64 - (LEAVES_PER_PARENT - 1);
    for leaf in 0..room {
        split(&mut client, leaf);
    }
    measured(&cluster, || split(&mut client, room))
}

/// The delete that folds the last two leaves of a tree into one: a merge whose
/// parent, left without a separator, is the root — the root pointer swings to
/// the surviving leaf and the old root is written back as a tombstone.
fn root_collapse_cost(options: TreeOptions) -> (Cost, Structural) {
    let cluster = cluster(2 * PER_LEAF, options);
    let mut client = cluster.client(0);
    let collapse = measured(&cluster, || drain(&mut client, 0, 1));
    let space = cluster.space_stats();
    assert_eq!((space.leaf_merges, space.root_collapses), (1, 1));
    collapse
}

fn uncombined() -> TreeOptions {
    TreeOptions {
        combine_commands: false,
        ..TreeOptions::sherman()
    }
}

/// `latency_ns` is the dependent chain: `depth` modeled round trips (never
/// fewer than `depth` wire times) plus the CPU the commit charges — sorting
/// and re-packing a node, scanning each image it fetched.
fn assert_depth(what: &str, (posts, reads, .., latency): Cost, depth: u64) {
    let ClusterConfig { fabric, tree } = ClusterConfig::small();
    // A modeled round trip at its dearest in these runs: the post overhead,
    // the wire both ways, three node images through each NIC port, an atomic.
    let round_trip = fabric.cs_post_overhead_ns
        + fabric.base_rtt_ns
        + 6 * fabric.nic_service_ns(tree.node_size + 8)
        + fabric.onchip_atomic_ns;
    let cpu = fabric.cpu_scan_ns(tree.node_size) * (reads + 1);
    assert!(depth < posts, "{what}: nothing overlapped");
    assert!(latency > depth * fabric.base_rtt_ns, "{what}: {latency} ns");
    assert!(
        latency <= depth * round_trip + cpu,
        "{what}: {latency} ns for {depth} round trips and {cpu} ns of CPU"
    );
}

/// (a) An insert that splits under a non-full parent.  Posts: lock + read of
/// the leaf, its write-back + release (right half in the batch, or beside it
/// on its own server), the root's read when the parent is the root's child,
/// lock + read of the parent, its write-back + release.  Waited for: the
/// leaf's lock, [the root,] the parent's lock, the parent's release.
///
/// Written back: the right half whole (it is new), the left half whole, and
/// of the parent what the separator moved — the node when it went in among
/// the first, 48 of its 256 bytes in three commands (tail word, the entries
/// from the separator on, header word) when it went in near the end.  The
/// left half is edited in place — the slots of the keys that moved are
/// cleared, the new key takes a vacant one — but a 256 B leaf has ten slots,
/// and clearing five of them changes words all over it: the cost rule picks
/// the node.  On 1 KB nodes it does not (`a_split_of_a_kilobyte_leaf_…`).
#[test]
fn a_split_overlaps_its_leaf_write_back_with_the_way_to_the_parent() {
    let measured = split_costs(TreeOptions::sherman());
    assert_eq!(
        measured,
        [
            ((5, 3, 5, 2, 772, 7_246), (2, 768)),
            ((6, 3, 7, 2, 564, 7_220), (2, 560)),
            ((4, 2, 5, 2, 772, 5_433), (2, 768)),
            ((5, 2, 7, 2, 564, 5_467), (2, 560)),
        ]
    );
    let [under_root, under_root_cross, deeper, deeper_cross] = costs(measured);
    assert_depth("split under the root's child", under_root, 4);
    assert_depth("… with a cross-server right half", under_root_cross, 4);
    assert_depth("split deeper down", deeper, 3);
    assert_depth("… with a cross-server right half", deeper_cross, 3);
}

/// (a′) The split of (a) on 1 KB nodes, where a leaf has room for the plan
/// to pay.  Its left half keeps the slots whose keys stay where they are:
/// of it travel the header word, the slots of the keys that moved to the
/// right half — cleared — and the one the new key took, and the tail word,
/// not the node.  The right half is new and travels whole.  Without command
/// combination the same in-place edit travels whole, as every node does.
#[test]
fn a_split_of_a_kilobyte_leaf_writes_back_the_slots_that_moved() {
    let node = 1 << 10;
    let (cost, structural) = kilobyte_split_cost(TreeOptions::sherman());
    // 2 160 bytes of node write-backs: the right half's 1 024, the left
    // half's 512, the parent's 624.  Re-packed, the left half was the node:
    // 7 commands, 2 676 bytes, 8 533 ns, 2 672 of it in node write-backs.
    assert_eq!(
        (cost, structural),
        ((5, 3, 10, 2, 2_164, 8_501), (2, 2_160))
    );
    assert_eq!(kilobyte_split_cost(uncombined()).1, (2, 3 * node));
}

/// (b) A delete that merges right, merges left, rebalances.  Posts: lock +
/// read of the leaf, its write-back + release, three lock + read attempts,
/// three write-back + release batches; the parent comes from the index cache.
/// Waited for: the leaf's lock, the three attempts (the leaf's release
/// overlaps them), the three releases.
///
/// Written back, where three nodes (768 bytes) used to be: of the survivor
/// the slots that changed, of the tombstone the word with the flag and the
/// version and the tail, of the parent what the separator's removal moved.
/// The leaves are edited in place: a survivor installs the absorbed pairs
/// into vacant slots, a rebalance installs the moved pairs into the
/// receiver's vacant slots and clears them in the donor; no other slot is
/// rewritten.  Merging left, the survivor is the full sibling and takes one
/// pair — one slot, where the repack rewrote nine (288 → 88 bytes); the
/// rebalance 368 → 192.  Merging right, the drained node absorbs eight pairs
/// into eight slots and the cost rule still picks the node, as it did.
#[test]
fn a_merge_locks_and_releases_its_three_nodes_in_a_round_trip_each() {
    let measured = merge_costs(TreeOptions::sherman());
    assert_eq!(
        measured,
        [
            ((8, 4, 11, 4, 395, 5_714), (1, 368)),
            ((8, 4, 13, 4, 115, 5_730), (1, 88)),
            ((8, 4, 14, 4, 219, 5_721), (1, 192)),
        ]
    );
    for (what, cost) in ["merge right", "merge left", "rebalance"].into_iter().zip(costs(measured)) {
        assert_depth(what, cost, 3);
    }
}

/// (c) The two commits (a) and (b) leave out.  A leaf split under a full
/// parent: the leaf's two halves, the parent's two halves, the promoted
/// separator one level up — five nodes (1 280 bytes), of which the two new
/// right halves and whatever changed all over travel whole.  A merge that
/// empties the root: the root pointer swings to the surviving leaf and the
/// old root's tombstone is 16 bytes, not a node.
#[test]
fn an_internal_split_and_a_root_collapse_write_back_what_changed() {
    let sherman = TreeOptions::sherman();
    assert_eq!(internal_split_cost(sherman), ((8, 4, 10, 3, 1_062, 9_080), (3, 1_056)));
    assert_eq!(root_collapse_cost(sherman), ((11, 5, 11, 5, 323, 11_231), (1, 288)));
}

/// (d) The planner belongs to command combination, not to a leaf format: the
/// sorted rungs of the ladder write their *point* updates as whole nodes
/// (that is what "+2-Level Ver" ablates) and their structural commits as what
/// changed.  `(writes, bytes_written)` of each commit, and what the commit's
/// node write-backs carried of it.
#[test]
fn the_combined_ladder_plans_its_structural_write_backs() {
    let figures = |(cost, structural): (Cost, Structural)| (cost.2, cost.4, structural.1);
    // On-chip lock words are 2 bytes, host ones 8: six bytes a lock released.
    let on_chip = [
        (5, 772, 768), (7, 564, 560), (5, 772, 768), (7, 564, 560),
        (11, 632, 368), (10, 552, 288), (12, 632, 368),
        (10, 1_062, 1_056), (11, 560, 288),
    ];
    for (label, options, expect) in [
        (
            "+Combine",
            TreeOptions::plus_combine(),
            [
                (5, 784, 768), (7, 576, 560), (5, 784, 768), (7, 576, 560),
                (11, 656, 368), (10, 576, 288), (12, 656, 368),
                (10, 1_080, 1_056), (11, 584, 288),
            ],
        ),
        ("+On-Chip", TreeOptions::plus_onchip(), on_chip),
        ("+Hierarchical", TreeOptions::plus_hierarchical(), on_chip),
    ] {
        let mut got: Vec<(u64, u64, u64)> = Vec::new();
        got.extend(split_costs(options).map(figures));
        got.extend(merge_costs(options).map(figures));
        got.push(figures(internal_split_cost(options)));
        got.push(figures(root_collapse_cost(options)));
        assert_eq!(got, expect, "{label}");
    }
}

/// (e) Without command combination nothing moved: the same operations cost
/// what they cost before structural commits overlapped anything or planned
/// their write-backs (figures recorded at those commits), every post a round
/// trip waited for, every node written whole.
#[test]
fn uncombined_structural_commits_cost_exactly_what_they_did() {
    for (label, options, splits, merges, internal_split, root_collapse) in [
        (
            "Sherman w/o combine",
            uncombined(),
            [
                (10, 3, 5, 2, 772, 17_353),
                (10, 3, 5, 2, 772, 17_353),
                (9, 2, 5, 2, 772, 15_580),
                (9, 2, 5, 2, 772, 15_580),
            ],
            [
                (17, 5, 8, 4, 795, 29_436),
                (17, 5, 8, 4, 795, 29_436),
                (17, 5, 8, 4, 795, 29_427),
            ],
            (15, 4, 8, 3, 1_286, 25_971),
            (20, 6, 9, 5, 803, 34_969),
        ),
        (
            "FG+",
            TreeOptions::fg_plus(),
            [
                (10, 3, 5, 2, 784, 18_235),
                (10, 3, 5, 2, 784, 18_235),
                (9, 2, 5, 2, 784, 16_462),
                (9, 2, 5, 2, 784, 16_462),
            ],
            [
                (17, 5, 8, 4, 1_056, 31_286),
                (17, 5, 8, 4, 1_056, 31_286),
                (17, 5, 8, 4, 1_056, 31_277),
            ],
            (15, 4, 8, 3, 1_304, 27_294),
            (20, 6, 9, 5, 1_064, 36_819),
        ),
        (
            "FG",
            TreeOptions::fg(),
            [
                (10, 3, 3, 4, 768, 19_135),
                (10, 3, 3, 4, 768, 19_135),
                (9, 2, 3, 4, 768, 17_362),
                (9, 2, 3, 4, 768, 17_362),
            ],
            [
                (17, 5, 4, 8, 1_024, 33_086),
                (17, 5, 4, 8, 1_024, 33_086),
                (17, 5, 4, 8, 1_024, 33_077),
            ],
            (15, 4, 5, 6, 1_280, 28_644),
            (20, 6, 5, 9, 1_032, 38_619),
        ),
    ] {
        assert_eq!(costs(split_costs(options)), splits, "{label}");
        assert_eq!(costs(merge_costs(options)), merges, "{label}");
        assert_eq!(internal_split_cost(options).0, internal_split, "{label}");
        assert_eq!(root_collapse_cost(options).0, root_collapse, "{label}");
    }
    // Whole nodes: two to a split, one to a separator, three to a merge.
    let node = ClusterConfig::small().tree.node_size as u64;
    assert!(split_costs(uncombined()).iter().all(|m| m.1 == (2, 3 * node)));
    assert!(merge_costs(uncombined()).iter().all(|m| m.1 == (1, 3 * node)));
    assert_eq!(internal_split_cost(uncombined()).1, (3, 5 * node));
}

/// A pipelined run at depth 1 reports the latency the blocking call measures
/// on the clock: an operation that overlaps verbs of its own is charged the
/// time it had any of them in flight, not the sum of their windows.
#[test]
fn depth_one_attributes_an_overlapped_commit_its_wall_time() {
    let run = |pipelined: bool| -> Vec<u64> {
        let cluster = cluster(4_000, TreeOptions::sherman());
        let mut client = cluster.client(0);
        let leaf = 3 * LEAVES_PER_PARENT + 2;
        let ops: Vec<PipelineOp> = (1..PER_LEAF)
            .rev()
            .map(|i| PipelineOp::Delete { key: first_key(leaf) + 2 * i })
            .chain((0..3).map(|i| PipelineOp::Insert { key: first_key(40) + 2 * i + 1, value: i }))
            .collect();
        if pipelined {
            let report = client.run_pipelined(ops, 1).unwrap();
            return report.results.iter().map(|r| r.latency_ns).collect();
        }
        ops.iter()
            .map(|op| match *op {
                PipelineOp::Delete { key } => client.delete(key).unwrap().1.latency_ns,
                PipelineOp::Insert { key, value } => client.insert(key, value).unwrap().latency_ns,
                _ => unreachable!("write-only feed"),
            })
            .collect()
    };
    let blocking = run(false);
    assert_eq!(run(true), blocking);
    assert!(blocking.iter().filter(|&&ns| ns > 5_000).count() == 2, "{blocking:?}");
}

/// Two clients on different compute servers, 32 lock words per memory server
/// (so the words of a triple alias those of its neighbours), merging
/// overlapping triples found from opposite directions: under every level-1
/// node one client drains the leaf left of a shared neighbour — `(6, 7)`,
/// discovered left to right — while the other drains the rightmost child,
/// which folds into that neighbour — `(7, 8)`, discovered right to left.
/// Optimistic plans collide and fall back to the rank-ordered acquisition;
/// the run terminates with the tree equal to the model, every node accounted
/// for and no fixable shape defect.
fn opposite_direction_merges_fall_back_and_terminate_on<B: FabricBackend>() {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    config.fabric.onchip_bytes_per_ms = 64;
    // Real threads collide by chance — in about one round in eight on a busy
    // two-core box, now that a merge holds its locks for a few dozen stores
    // instead of three nodes' worth: go again on a fresh tree if need be.
    for round in 0.. {
        let cluster = Cluster::<B>::new_on(config.clone(), TreeOptions::sherman());
        let keys = 4_000u64;
        cluster.bulkload((0..keys).map(|k| (k * 2, k))).unwrap();
        // The tail of each bulkloaded level is legitimately short.
        let fixable = |audit: ShapeAudit| {
            (audit.underfull_rightmost_fixable, audit.underfull_internals_fixable)
        };
        let bulkloaded = fixable(cluster.shape_audit().unwrap());
        let mut model: BTreeMap<u64, u64> = (0..keys).map(|k| (k * 2, k)).collect();
        let groups = keys / PER_LEAF / LEAVES_PER_PARENT;
        let victims = |child: u64| -> Vec<u64> {
            (0..groups)
                .flat_map(|g| {
                    let leaf = g * LEAVES_PER_PARENT + child;
                    (1..PER_LEAF).rev().map(move |i| first_key(leaf) + 2 * i)
                })
                .collect()
        };
        let feeds = [victims(6), victims(8)];
        for key in feeds.iter().flatten() {
            model.remove(key);
        }
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(cs, feed)| {
                let (cluster, barrier) = (Arc::clone(&cluster), Arc::clone(&barrier));
                thread::spawn(move || {
                    let mut client = cluster.client(cs as u16);
                    barrier.wait();
                    for key in feed {
                        assert!(client.delete(key).unwrap().0, "key {key} is live");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }

        let mut client = cluster.client(0);
        client.quiesce_coherence();
        let (scan, _) = client.range(0, model.len() + 10).unwrap();
        let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(scan, expect, "final state differs from the model");
        let census = cluster.node_census().unwrap();
        assert_eq!(census.total(), cluster.nodes_outstanding());
        assert_eq!(fixable(cluster.shape_audit().unwrap()), bulkloaded);
        let space = cluster.space_stats();
        assert!(space.leaf_merges >= groups && space.left_merges > 0, "{space:?}");
        assert!(space.optimistic_plans >= space.leaf_merges, "{space:?}");
        if space.plan_fallbacks > 0 {
            return;
        }
        assert!(round < 100, "no optimistic plan ever lost a lock: {space:?}");
    }
}

#[test]
fn opposite_direction_merges_fall_back_and_terminate_sim() {
    opposite_direction_merges_fall_back_and_terminate_on::<Fabric>();
}

#[test]
fn opposite_direction_merges_fall_back_and_terminate_threaded() {
    opposite_direction_merges_fall_back_and_terminate_on::<ThreadedFabric>();
}
