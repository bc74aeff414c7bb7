//! The write-back planner ([`NodeLayout::plan_write_back`]): from the image a
//! structural commit read under the lock and the image it wants in memory, the
//! byte ranges to write.
//!
//! * As a pure function, on arbitrary pairs of node images: the ranges turn
//!   the one into the other wherever a decoder looks, ascend, never overlap,
//!   never carry more than the node, and — when the version pair changed —
//!   begin at the front version and end at the rear one; posted in
//!   `NodeLayout::post_order` (rear version first, front version last) they
//!   leave memory between any two commands of the batch with an unequal pair.
//!   This is the test that fails, every time, when a plan is misordered.
//! * On real threads: readers hammer one internal node and one leaf the way
//!   the lock-free read path does while a writer makes them change by split,
//!   separator insertion, merge and tombstone, and deletes and re-inserts its
//!   keys in between — on 1 KB nodes with the leaf edited in place, its slots
//!   cleared and installed where they are; no reader ever accepts a
//!   separator set or a key set that never existed, or a value its key was
//!   never given.
//!   The window between two commands of a batch is a few nanoseconds there,
//!   so this one catches a misordering only by luck; what it does hold is the
//!   whole path — planner, release batches, backend — against readers that
//!   rely on nothing but the order of a write-back (`read_consistent` says
//!   why they bracket).

use proptest::prelude::*;
use sherman_repro::prelude::*;
use sherman_repro::sherman::layout::HEADER_BYTES;
use sherman_repro::sherman::{InternalNode, LeafEntry, LeafNode, NodeHeader, NodeLayout};
use sherman_repro::sherman_sim::{FabricBackend, GlobalAddress, ThreadedFabric};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn layout(node_size: usize) -> NodeLayout {
    NodeLayout::new(&TreeConfig {
        node_size,
        ..TreeConfig::default()
    })
}

fn child(n: u64) -> GlobalAddress {
    GlobalAddress::host((n % 3) as u16, 4096 * (n % 1_000 + 1))
}

/// One edit of a decoded node, applied the way a commit would: `(kind, a, b)`.
type Edit = (u8, u64, u64);

/// An internal-node image after `edits`; `garbage` fills the slots outside
/// its window — what a write-back that leaves them alone leaves behind.
fn internal_image(l: &NodeLayout, seed: &[(u64, u64)], edits: &[Edit], garbage: u8) -> Vec<u8> {
    let mut node = InternalNode::new(1, 0, u64::MAX, child(0));
    let insert = |node: &mut InternalNode, key: u64, to: u64| {
        if !node.is_full(l) {
            node.insert_separator(key, child(to), l);
        }
    };
    for &(key, to) in seed {
        insert(&mut node, key, to);
    }
    for &(kind, a, b) in edits {
        match kind % 5 {
            0 => insert(&mut node, a, b),
            1 if !node.entries.is_empty() => {
                let victim = node.entries[a as usize % node.entries.len()];
                node.remove_separator(victim.key, victim.child);
            }
            2 => node.entries.truncate(a as usize % (node.entries.len() + 1)),
            3 => node.header.fence_high = a,
            4 => node.header.sibling = Some(child(b)),
            _ => {}
        }
    }
    node.header.count = node.entries.len();
    let mut image = l.encode_internal(&node);
    let window = l.decoded_extent(&image);
    image[HEADER_BYTES..window.start].fill(garbage);
    image[window.end..l.rear_version_offset()].fill(garbage);
    image
}

fn leaf_image(l: &NodeLayout, seed: &[(u64, u64)], edits: &[Edit]) -> Vec<u8> {
    let mut leaf = LeafNode::empty(l, NodeHeader::new(true, 0, 0, u64::MAX));
    let slots = leaf.entries.len();
    for &(key, value) in seed {
        leaf.entries[key as usize % slots].install(key, value);
    }
    for &(kind, a, b) in edits {
        match kind % 5 {
            0 => leaf.entries[a as usize % slots].install(a, b),
            1 => leaf.entries[a as usize % slots].clear(),
            2 => {
                let pairs = leaf.sorted_pairs();
                leaf.repack_sorted(&pairs[..a as usize % (pairs.len() + 1)]);
            }
            3 => leaf.header.fence_high = a,
            _ => leaf.header.sibling = Some(child(b)),
        }
    }
    l.encode_leaf(&leaf)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn a_plan_turns_the_image_read_into_the_image_wanted(
        shape in (prop::sample::select(vec![256usize, 1024]), any::<bool>(), any::<bool>(), any::<bool>()),
        seed in prop::collection::vec((0u64..5_000, any::<u64>()), 0..70),
        edits in prop::collection::vec((any::<u8>(), 0u64..5_000, any::<u64>()), 0..12),
        garbage in any::<u8>(),
    ) {
        let (node_size, is_leaf, bumped, freed) = shape;
        let l = layout(node_size);
        let (pre, mut new) = match is_leaf {
            true => (leaf_image(&l, &seed, &[]), leaf_image(&l, &seed, &edits)),
            false => (
                internal_image(&l, &seed, &[], garbage),
                internal_image(&l, &seed, &edits, 0),
            ),
        };
        let rear = l.rear_version_offset();
        if bumped {
            new[0] = pre[0].wrapping_add(1);
            new[rear] = new[0];
        }
        if freed {
            new[1] |= 0b10;
        }

        let plan = l.plan_write_back(&pre, &new);
        let mut posted = plan.clone();
        NodeLayout::post_order(&mut posted);
        let mut memory = pre.clone();
        for (done, range) in posted.iter().enumerate() {
            // With the pair bumped, memory between two commands of the batch
            // is an image no reader accepts: rear version new, front old.
            prop_assert!(!bumped || done == 0 || !l.node_versions_match(&memory));
            memory[range.clone()].copy_from_slice(&new[range.clone()]);
        }
        // What a decoder reads — the header, the slots of a leaf or the
        // window of an internal node, the tail word — is the new image, bit
        // for bit.
        prop_assert_eq!(l.decode_header(&memory), l.decode_header(&new));
        let extent = l.decoded_extent(&new);
        prop_assert_eq!(&memory[..HEADER_BYTES], &new[..HEADER_BYTES]);
        prop_assert_eq!(&memory[extent.clone()], &new[extent]);
        prop_assert_eq!(&memory[rear..], &new[rear..]);
        match is_leaf {
            true => prop_assert_eq!(l.decode_leaf(&memory), l.decode_leaf(&new)),
            false => prop_assert_eq!(l.decode_internal(&memory), l.decode_internal(&new)),
        }
        // Ascending, disjoint, non-empty, inside the node, no dearer than it.
        prop_assert!(plan.iter().all(|r| r.start < r.end && r.end <= node_size));
        prop_assert!(plan.windows(2).all(|w| w[0].end < w[1].start));
        prop_assert!(plan.iter().map(|r| r.len()).sum::<usize>() <= node_size);
        // Unchanged images need no write; a bumped pair brackets the plan,
        // each version in a command of its own unless the node goes whole,
        // and is posted rear version first, front version last.
        prop_assert_eq!(plan.is_empty(), memory == pre);
        if bumped {
            prop_assert!(plan.first().unwrap().contains(&0));
            prop_assert!(plan.last().unwrap().contains(&rear));
            prop_assert!(posted.first().unwrap().contains(&rear));
            prop_assert!(posted.last().unwrap().contains(&0));
            if plan.len() > 1 {
                prop_assert_eq!((&plan[0], &plan[plan.len() - 1]), (&(0..8), &(rear..node_size)));
            }
        }
    }
}

/// A change confined to one end of a node costs that end, not the node; a
/// change all over it costs the node, in one range.
#[test]
fn a_plan_is_as_small_as_the_change() {
    let l = layout(1024);
    let seed: Vec<(u64, u64)> = (1..=40).map(|k| (k * 10, k)).collect();
    let pre = internal_image(&l, &seed, &[], 0);
    let bump = |mut image: Vec<u8>| {
        image[0] = pre[0].wrapping_add(1);
        image[l.rear_version_offset()] = image[0];
        image
    };
    // A separator appended: version + count, the entry, the rear version.
    let appended = bump(internal_image(&l, &seed, &[(0, 4_000, 7)], 0));
    let at = l.internal_entry_offset(40);
    assert_eq!(
        l.plan_write_back(&pre, &appended),
        [0..8, at..at + 16, 1016..1024]
    );
    // The first separator removed: the window's front moves up a slot, no
    // entry moves — version + count, the `start` word, the rear version.
    let removed = bump(internal_image(&l, &seed, &[(1, 0, 0)], 0));
    assert_eq!(l.plan_write_back(&pre, &removed), [0..8, 40..48, 1016..1024]);
    // Posted as a sequence lock: rear version, body, front version.
    let mut posted = l.plan_write_back(&pre, &removed);
    NodeLayout::post_order(&mut posted);
    assert_eq!(posted, [1016..1024, 40..48, 0..8]);
    // A separator in the back half removed: the entries behind it move up.
    let removed = bump(internal_image(&l, &seed, &[(1, 30, 0)], 0));
    let (from, end) = (l.internal_entry_offset(30), l.internal_entry_offset(39));
    assert_eq!(l.plan_write_back(&pre, &removed), [0..8, from..end, 1016..1024]);
    // A tombstone: the flag and the version pair.
    let mut tombstone = bump(pre.clone());
    tombstone[1] |= 0b10;
    assert_eq!(l.plan_write_back(&pre, &tombstone), [0..8, 1016..1024]);
    // Every slot of a leaf rewritten: the node.
    let pairs: Vec<(u64, u64)> = (0..50).map(|k| (k, k)).collect();
    let leaf = leaf_image(&l, &pairs, &[]);
    let repacked = bump(leaf_image(&l, &pairs, &[(2, 50, 0), (3, 77, 0)]));
    assert_eq!(
        l.plan_write_back(&leaf, &repacked).as_slice(),
        std::slice::from_ref(&(0..1024))
    );
}

/// An internal node's separators fill a window of its slots that slides: a
/// separator inserted in front of a window with free slots before it costs
/// the entry and the `start` word, as an append costs the entry; one that
/// must grow a window into a full side recenters it, one rewrite of it.
#[test]
fn a_window_grows_into_its_free_side() {
    let l = layout(1024);
    let seed: Vec<(u64, u64)> = (1..=40).map(|k| (k * 10, k)).collect();
    let bump = |pre: &[u8], mut image: Vec<u8>| {
        image[0] = pre[0].wrapping_add(1);
        image[l.rear_version_offset()] = image[0];
        image
    };
    // The six front separators removed: slots 0..6 are free.
    let drained = [(1, 0, 0); 6];
    let pre = internal_image(&l, &seed, &drained, 0);
    assert_eq!(l.decode_internal(&pre).start, 6);
    // Key 5 goes in front of the window, into slot 5.
    let edits = [drained.as_slice(), &[(0, 5, 9)]].concat();
    let front = bump(&pre, internal_image(&l, &seed, &edits, 0));
    let at = l.internal_entry_offset(5);
    assert_eq!(
        l.plan_write_back(&pre, &front),
        [0..8, 40..48, at..at + 16, 1016..1024]
    );
    // Appended until the back side is full: 54 separators in slots 6..60.
    let capacity = l.internal_capacity() as u64;
    let appends: Vec<(u8, u64, u64)> = (0..capacity - 40).map(|i| (0, 1_000 + i, i)).collect();
    let edits = [drained.as_slice(), &appends].concat();
    let full = internal_image(&l, &seed, &edits, 0);
    let node = l.decode_internal(&full);
    assert_eq!((node.start, node.start + node.entries.len()), (6, capacity as usize));
    // One more at the back recenters the window: two free slots before it,
    // three behind, every separator moved.
    let grown = [edits.as_slice(), &[(0, 5_000, 1)]].concat();
    let grown = bump(&full, internal_image(&l, &seed, &grown, 0));
    let node = l.decode_internal(&grown);
    assert_eq!((node.start, node.entries.len()), (2, capacity as usize - 5));
    assert_eq!(
        l.plan_write_back(&full, &grown).as_slice(),
        std::slice::from_ref(&(0..1024))
    );
    // A front insert into it, as read, finds a slot before the window free.
    let mut node = l.decode_internal(&grown);
    node.insert_separator(5, child(9), &l);
    let front = bump(&grown, l.encode_internal(&node));
    let at = l.internal_entry_offset(1);
    assert_eq!(l.plan_write_back(&grown, &front), [0..8, 40..at + 16, 1016..1024]);
}

// ---------------------------------------------------------------------------
// A right half at a recycled leaf address
// ---------------------------------------------------------------------------

/// A merge retires a leaf whose live slots — its stale slots — lie above the
/// slots the next right half at its address would fill from slot 0, and a
/// split then lands there.  The free list hands the address back with those
/// slots, and the right half's pairs land on them and on the slots just below,
/// in key order, overwriting every stale tag: the node reads back as the
/// right half, no key of the tombstone comes back, and the bytes of the
/// slots the tombstone left vacant and the right half does not fill are not
/// written.  An empty stale set fails this test.
#[test]
fn a_right_half_at_a_recycled_leaf_clears_the_tombstones_tags() {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    config.tree.node_size = 1 << 10;
    let cluster = Cluster::new(config, TreeOptions::sherman());
    let pairs = (0..2_000u64).map(|k| (k * 2, k));
    let mut model: BTreeMap<u64, u64> = pairs.clone().collect();
    cluster.bulkload(pairs).unwrap();
    let l = *cluster.layout();
    let (capacity, per_leaf) = (l.leaf_capacity(), l.leaf_capacity() as u64 * 4 / 5);
    let floor = capacity / 4;
    let mut client = cluster.client(0);
    let fabric = Arc::clone(cluster.fabric());
    let image_at = |addr: GlobalAddress| {
        let mut image = vec![0u8; l.node_size()];
        fabric.god_read(addr, &mut image).unwrap();
        image
    };
    let live_slots = |image: &[u8]| -> Vec<usize> {
        let leaf = l.decode_leaf(image);
        (0..capacity).filter(|&s| leaf.entries[s].present()).collect()
    };
    let mut apply = |key: u64, insert: bool| match insert {
        true => {
            client.insert(key, key + 1).unwrap();
            model.insert(key, key + 1);
        }
        false => {
            assert!(client.delete(key).unwrap().0, "key {key} is live");
            model.remove(&key);
        }
    };

    // W and X: the third and fourth leaves, `per_leaf` even keys each.
    let (w_low, x_low) = (4 * per_leaf, 6 * per_leaf);
    let (w, _) = cluster.cache(0).lookup_leaf(w_low).expect("warm cache");
    let (x, _) = cluster.cache(0).lookup_leaf(x_low).expect("warm cache");
    // X fills up with odd keys, then sheds its lowest even keys down to the
    // merge floor: its live slots are its last `floor`.
    let odd: Vec<u64> = (0..capacity as u64 - per_leaf).map(|i| x_low + 2 * i + 1).collect();
    odd.iter().for_each(|&k| apply(k, true));
    let shed = per_leaf as usize + odd.len() - floor;
    (0..shed as u64).for_each(|i| apply(x_low + 2 * i, false));
    assert_eq!(live_slots(&image_at(x)), (capacity - floor..capacity).collect::<Vec<_>>());
    // W drains below the floor and absorbs X, which is retired.
    let merges = cluster.space_stats().leaf_merges;
    (0..per_leaf - floor as u64 + 1).for_each(|i| apply(w_low + 2 * i, false));
    assert_eq!(cluster.space_stats().leaf_merges, merges + 1);
    let tombstone = image_at(x);
    let header = l.decode_header(&tombstone);
    assert!(header.free, "X is the tombstone: {header:?}");
    let stale = live_slots(&tombstone);
    let gone: Vec<u64> = l.decode_leaf(&tombstone).sorted_pairs().iter().map(|p| p.0).collect();
    // Every key X held but the last is deleted from W, which keeps the floor.
    gone[..gone.len() - 1].iter().for_each(|&k| apply(k, false));

    // Whatever the vacant slots of the tombstone hold beside their tags is
    // not read; fill it with a byte no image of the test writes there.
    const SENTINEL: u8 = 0xA5;
    let mut recycled = tombstone.clone();
    for slot in (0..capacity).filter(|s| !stale.contains(s)) {
        let at = l.leaf_entry_offset(slot);
        recycled[at] = SENTINEL;
        recycled[at + 2..at + l.leaf_entry_bytes()].fill(SENTINEL);
    }
    fabric.god_write(x, &recycled).unwrap();

    // W fills with odd keys of its own range until it splits.
    let mut key = w_low + 1;
    let (pre, right) = loop {
        let pre = image_at(w);
        apply(key, true);
        if l.decode_header(&image_at(w)).sibling == Some(x) {
            break (pre, image_at(x));
        }
        key += 2;
    };
    // The right half W's split meant, stamped above the tombstone.
    let mut left = l.decode_leaf(&pre);
    let (split_key, mut intended) = left.split(&l, false);
    assert!(split_key < x_low, "the right half covers X's keys");
    let slot = intended.vacant_slot().unwrap();
    intended.entries[slot].install(key, key + 1);
    intended.header.set_versions(header.front_version.wrapping_add(1));
    // What a reader makes of it: the header, and the live entries — their
    // keys, values, tags and versions — wherever they lie.
    let live_entries = |leaf: &LeafNode| {
        let mut live: Vec<LeafEntry> = leaf.entries.iter().filter(|e| e.present()).copied().collect();
        live.sort_by_key(|e| e.key);
        live
    };
    let landed = l.decode_leaf(&right);
    assert_eq!(landed.header, intended.header);
    assert_eq!(live_entries(&landed), live_entries(&intended));
    assert!(stale.iter().all(|&s| s >= intended.live_count()), "{stale:?}");
    // The pairs fill the slots from the last stale one down, in key order;
    // the slots the tombstone left vacant below them are not written.
    let filled = live_slots(&right);
    assert_eq!(filled, (capacity - filled.len()..capacity).collect::<Vec<_>>());
    let keys: Vec<u64> = filled.iter().map(|&s| landed.entries[s].key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    let untouched = right.iter().filter(|&&b| b == SENTINEL).count();
    assert!(untouched > l.leaf_entry_bytes(), "{untouched} bytes left alone");

    // No key of the tombstone comes back: by point lookup and by scan.
    for &k in &gone {
        assert_eq!(client.lookup(k).unwrap().0, model.get(&k).copied(), "key {k}");
    }
    let (scanned, _) = client.range(0, model.len() + 1).unwrap();
    assert_eq!(scanned, model.into_iter().collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Readers against a writer, on real threads
// ---------------------------------------------------------------------------

type Ctx = sherman_repro::sherman_sim::ClientCtx<<ThreadedFabric as FabricBackend>::Channel>;

/// Read the node at `addr` until the version pair matches — and held between
/// a read of the rear version before and of the front version after, all
/// four equal.  A planned write-back is a sequence lock and safe with the pair
/// alone, but a node that changed all over still travels as one ascending
/// write (§4.4), whose torn-read argument takes for granted that a reader and
/// a writer moving up the same node do not overtake each other; threads the
/// OS preempts mid-node do, now and then — one run of this test in ten
/// accepted a mixed image with the plain check.  Bracketed, both orders are
/// safe however the threads are paced.
fn read_consistent(l: &NodeLayout, ctx: &mut Ctx, addr: GlobalAddress) -> Vec<u8> {
    let rear = l.rear_version_offset();
    let mut image = vec![0u8; l.node_size()];
    let (mut before, mut after) = ([0u8; 1], [0u8; 1]);
    loop {
        ctx.read(addr.add(rear as u64), &mut before).unwrap();
        ctx.read(addr, &mut image).unwrap();
        ctx.read(addr, &mut after).unwrap();
        if before[0] == image[0] && l.node_versions_match(&image) && after[0] == image[0] {
            return image;
        }
        thread::yield_now();
    }
}

/// The value the hammer's writer stores under `key` at its `seq`-th insert:
/// `seq` in the high half, a hash of both in the low half — so a value read
/// back names its key, and one pieced together from two writes names none.
fn value_of(key: u64, seq: u64) -> u64 {
    seq << 32 | (key ^ seq.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

fn separators_of(l: &NodeLayout, image: &[u8]) -> Vec<u64> {
    l.decode_internal(image)
        .entries
        .iter()
        .map(|e| e.key)
        .collect()
}

fn keys_of(l: &NodeLayout, image: &[u8]) -> BTreeSet<u64> {
    l.decode_leaf(image)
        .sorted_pairs()
        .iter()
        .map(|&(k, _)| k)
        .collect()
}

/// Readers hammer the first level-1 node and its second leaf while a writer
/// alternates, on that leaf, fill → split (a separator insert in the parent,
/// a planned left half) and drain → merge (a separator removal, a planned
/// survivor, a tombstone), `rounds` times, on `node_size` nodes bulkloaded
/// to 80 % of their slots with the even keys; the structural commits write
/// back fewer than `ceiling` nodes' worth of bytes each.  Between them the
/// writer deletes and re-inserts keys of the leaf with no structural commit:
/// an even key goes — its slot's tag byte alone is written — and its odd
/// neighbour takes a vacant slot, then the other way round.  The leaves are
/// unsorted and edited in place: a split clears the slots of the keys that
/// moved, a merge installs the absorbed pairs into the survivor's vacant
/// slots.  Every value written names its key ([`value_of`]).  The writer
/// keeps the history of both nodes; the readers keep whatever they accepted
/// — version pair equal — and at the end:
///
/// * every separator set accepted is one the parent held after some
///   operation: it changes by structural commits only, one image each;
/// * every key set accepted lies within one *era* of the leaf, the states
///   between two structural commits.  A read that overlaps several point
///   writes may pick each slot from a different state — entries have their
///   own versions, and that is all two-level versions promise — but an
///   accepted image never straddles a structural commit: it contains what
///   every state of the era has and nothing no state of it has;
/// * every live entry a reader accepted — its own version pair equal, as a
///   lookup or a scan takes it, and its bytes the same in a second read —
///   holds a value written under its key, whole.
fn readers_never_accept_an_image_that_never_existed_on(
    node_size: usize,
    rounds: u64,
    ceiling: f64,
) {
    let mut config = ClusterConfig::small();
    config.fabric.host_bytes_per_ms = 16 << 20;
    config.tree.node_size = node_size;
    let cluster = Cluster::<ThreadedFabric>::new_on(config, TreeOptions::sherman());
    cluster
        .bulkload((0..2_000u64).map(|k| (k * 2, value_of(k * 2, 0))))
        .unwrap();
    let l = *cluster.layout();
    let per_leaf = l.leaf_capacity() as u64 * 4 / 5;
    let base = 2 * per_leaf;

    // The leaf under test — the second of the tree, [base, 2 * base) — and
    // its parent, the level-1 node on the way to it.
    let (leaf_addr, _) = cluster.cache(0).lookup_leaf(base).expect("warm cache");
    let mut client = cluster.client(0);
    let mut ctx = cluster.fabric().client(0);
    let root_ptr = sherman_repro::sherman_memserver::ServerLayout::root_ptr_addr();
    let mut parent_addr = GlobalAddress::unpack(cluster.fabric().god_read_u64(root_ptr).unwrap());
    loop {
        let node = l.decode_internal(&read_consistent(&l, &mut ctx, parent_addr));
        if node.header.level == 1 {
            assert_eq!(node.child_for(base), leaf_addr);
            break;
        }
        parent_addr = node.child_for(base);
    }

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2u16)
        .map(|r| {
            let (cluster, done) = (Arc::clone(&cluster), Arc::clone(&done));
            thread::spawn(move || {
                let mut ctx = cluster.fabric().client(r);
                let (mut parents, mut leaves) = (BTreeSet::new(), BTreeSet::new());
                let mut values = 0u64;
                while !done.load(Ordering::Acquire) {
                    let image = read_consistent(&l, &mut ctx, parent_addr);
                    let header = l.decode_header(&image);
                    assert!(!header.free && header.level == 1, "{header:?}");
                    parents.insert(separators_of(&l, &image));

                    let image = read_consistent(&l, &mut ctx, leaf_addr);
                    let leaf = l.decode_leaf(&image);
                    assert!(
                        !leaf.header.free && leaf.header.fence_low == base,
                        "{:?}",
                        leaf.header
                    );
                    if leaf.entries.iter().all(|e| e.versions_match()) {
                        leaves.insert(keys_of(&l, &image));
                    }
                    // An entry is checked where a second read agrees with
                    // the first on its bytes: a point write is one ascending
                    // write of the entry, not a sequence lock, and a reader
                    // it overtakes and that overtakes it back (a preempted
                    // thread) can pair old versions with new bytes.
                    let again = read_consistent(&l, &mut ctx, leaf_addr);
                    for (slot, e) in leaf.entries.iter().enumerate() {
                        let at = l.leaf_entry_range(slot);
                        if e.present() && e.versions_match() && image[at.clone()] == again[at] {
                            let whole = e.value == value_of(e.key, e.value >> 32);
                            assert!(whole, "key {} read with value {:#x}", e.key, e.value);
                            values += 1;
                        }
                    }
                }
                (parents, leaves, values)
            })
        })
        .collect();

    // The writer.  `eras` is the leaf's history, a new era at every
    // structural commit; `parent_states` the parent's.
    let mut parent_states = BTreeSet::from([separators_of(
        &l,
        &read_consistent(&l, &mut ctx, parent_addr),
    )]);
    let mut eras = vec![vec![keys_of(&l, &read_consistent(&l, &mut ctx, leaf_addr))]];
    let mut commits = cluster.space_stats().structural_commits;
    let mut seq = 0;
    let mut apply = |client: &mut TreeClient<ThreadedFabric>, key: u64, insert: bool| {
        let mut between = eras.last().unwrap().last().unwrap().clone();
        seq += 1;
        match insert {
            true => drop(client.insert(key, value_of(key, seq)).unwrap()),
            false => assert!(client.delete(key).unwrap().0, "key {key} is live"),
        }
        if !insert {
            // A delete that merges clears its slot first, under a lock of
            // its own: that state is in memory for a while.
            between.remove(&key);
            eras.last_mut().unwrap().push(between);
        }
        let now = cluster.space_stats().structural_commits;
        let structural = now != commits;
        if structural {
            commits = now;
            eras.push(Vec::new());
        }
        let after = keys_of(&l, &read_consistent(&l, &mut ctx, leaf_addr));
        eras.last_mut().unwrap().push(after.clone());
        parent_states.insert(separators_of(
            &l,
            &read_consistent(&l, &mut ctx, parent_addr),
        ));
        (after, structural)
    };
    for _ in 0..rounds {
        // Fill with odd keys until the leaf splits and keeps its lower half
        // (the insert after its vacant slots are full).
        let mut odd = (0..per_leaf).map(|i| base + 2 * i + 1);
        let mut live = loop {
            if let (lower, true) = apply(&mut client, odd.next().unwrap(), true) {
                break lower;
            }
        };
        // Drain it, from the top, until it merges with the half it shed.
        loop {
            let (after, merged) = apply(&mut client, *live.iter().next_back().unwrap(), false);
            live = after;
            if merged {
                break;
            }
        }
        // Back to the even keys of the bulkload.
        for &key in live.iter().filter(|&k| k % 2 == 1) {
            apply(&mut client, key, false);
        }
        for key in (0..per_leaf)
            .map(|i| base + 2 * i)
            .filter(|k| !live.contains(k))
        {
            apply(&mut client, key, true);
        }
        // Delete and re-insert without a structural commit.
        for even in (0..per_leaf).step_by(3).map(|i| base + 2 * i) {
            let odd = even + 1;
            for (key, insert) in [(even, false), (odd, true), (odd, false), (even, true)] {
                let (_, structural) = apply(&mut client, key, insert);
                assert!(!structural, "key {key}: a structural commit");
            }
        }
    }
    done.store(true, Ordering::Release);

    let explained = |keys: &BTreeSet<u64>| {
        eras.iter().any(|era| {
            let in_some = |k: &u64| era.iter().any(|s| s.contains(k));
            let in_all = |k: &u64| era.iter().all(|s| s.contains(k));
            keys.iter().all(in_some)
                && era[0]
                    .iter()
                    .filter(|k| in_all(k))
                    .all(|k| keys.contains(k))
        })
    };
    for reader in readers {
        let (parents, leaves, values) = reader.join().unwrap();
        assert!(values > 0);
        for seps in &parents {
            assert!(
                parent_states.contains(seps),
                "separators that never existed: {seps:?}"
            );
        }
        for keys in &leaves {
            assert!(
                explained(keys),
                "a key set no era of the leaf explains: {keys:?}"
            );
        }
        assert!(!parents.is_empty() && !leaves.is_empty());
    }
    let space = cluster.space_stats();
    assert!(
        space.leaf_merges >= rounds && space.structural_commits >= 3 * rounds,
        "{space:?}"
    );
    // A split writes two images, a separator insertion one, a merge three.
    assert!(
        space.bytes_per_structural_commit() < ceiling * l.node_size() as f64,
        "structural commits write more than they change: {space:?}"
    );
    let census = cluster.node_census().unwrap();
    assert_eq!(census.total(), cluster.nodes_outstanding());
}

/// 256 B nodes, ten slots a leaf: a split's left half and most merge
/// survivors change all over and travel whole (432 bytes a commit).
#[test]
fn readers_never_accept_an_image_that_never_existed() {
    readers_never_accept_an_image_that_never_existed_on(256, 150, 2.0);
}

/// 1 KB nodes, fifty slots a leaf: a split's left half and a merge's
/// survivor travel as the slots that moved, posted as a sequence lock —
/// 1 189 bytes a commit, where re-packing them wrote 1 435.
#[test]
fn readers_never_accept_an_in_place_edit_that_never_existed() {
    readers_never_accept_an_image_that_never_existed_on(1 << 10, 100, 1.25);
}
