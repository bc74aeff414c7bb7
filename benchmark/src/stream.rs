//! Operation streams and the checks on what the index answers.
//!
//! A stream is generated from `--seed` before anything is timed; the index
//! only ever sees the generated operations.  Inserted values are overridden
//! to `fkey(key) | seq << 40`, so any value read back can be checked against
//! its key without a shadow copy of the data.

use crate::spec::{Source, WorkloadDef};
use sherman_repro::sherman_workload::{ChurnSpec, Op, WorkloadSpec};

/// The key-derived part of a value fits in 40 bits.
pub const KEY_BITS: u32 = 40;
const LOW_MASK: u64 = (1 << KEY_BITS) - 1;
/// Keys of a stream fit in 30 bits, so that an operation packs into a word.
const PACKED_KEY_BITS: u32 = 30;
const PACKED_KEY_MASK: u32 = (1 << PACKED_KEY_BITS) - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Insert,
    Delete,
    Range,
}

/// One operation in 4 bytes: the kind in the top two bits, the key below.
/// Streams are sized for a whole run before it starts, so their size counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(u32);

impl PackedOp {
    pub fn new(kind: Kind, key: u64) -> Self {
        assert!(
            key <= PACKED_KEY_MASK as u64,
            "key {key} does not fit in {PACKED_KEY_BITS} bits"
        );
        PackedOp((kind as u32) << PACKED_KEY_BITS | key as u32)
    }

    pub fn kind(self) -> Kind {
        match self.0 >> PACKED_KEY_BITS {
            0 => Kind::Lookup,
            1 => Kind::Insert,
            2 => Kind::Delete,
            _ => Kind::Range,
        }
    }

    pub fn key(self) -> u64 {
        (self.0 & PACKED_KEY_MASK) as u64
    }
}

/// The 40 checkable bits of every value stored under `key`.
pub fn fkey(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - KEY_BITS)
}

/// Value written by the `seq`-th operation of a stream (and, with `seq` 0,
/// by bulkload).
pub fn value_for(key: u64, seq: u64) -> u64 {
    fkey(key) | seq << KEY_BITS
}

pub fn value_ok(key: u64, value: u64) -> bool {
    value & LOW_MASK == fkey(key)
}

/// A scan answer is right when it is strictly ascending from `start` on,
/// no longer than asked, and every value belongs to its key.
pub fn scan_ok(start: u64, count: usize, rows: &[(u64, u64)]) -> bool {
    rows.len() <= count
        && rows.first().is_none_or(|&(k, _)| k >= start)
        && rows.windows(2).all(|w| w[0].0 < w[1].0)
        && rows.iter().all(|&(k, v)| value_ok(k, v))
}

/// A fixed-size set of small integers.
#[derive(Debug, Clone)]
pub struct BitSet(Vec<u64>);

impl BitSet {
    pub fn with_capacity(bits: u64) -> Self {
        BitSet(vec![0; (bits as usize).div_ceil(64)])
    }

    pub fn insert(&mut self, i: u64) {
        self.0[(i / 64) as usize] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: u64) {
        self.0[(i / 64) as usize] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Keep only the members that `other` has too.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, word) in self.0.iter_mut().enumerate() {
            *word &= other.0.get(i).copied().unwrap_or(0);
        }
    }

    pub fn len(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64u64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| wi as u64 * 64 + b)
        })
    }
}

/// Everything a run needs that comes from the seed.
#[derive(Debug)]
pub struct Streams {
    /// One stream per client thread.
    pub per_thread: Vec<Vec<PackedOp>>,
    /// Keys loaded before the run.
    pub bulkload: Vec<u64>,
    /// Entries a scan asks for.
    pub range_size: usize,
    /// Position in every stream at which the run starts.  A churn stream's
    /// window fill lies before it: those keys are bulkloaded instead.
    pub start: usize,
    /// Whether the keys a stream inserts and deletes are its own alone
    /// (churn).  YCSB streams share their keys and never delete.
    pub disjoint: bool,
    /// Exclusive upper bound of every key in the run.
    pub key_bound: u64,
}

fn pack(op: Op) -> PackedOp {
    match op {
        Op::Lookup { key } => PackedOp::new(Kind::Lookup, key),
        Op::Insert { key, .. } => PackedOp::new(Kind::Insert, key),
        Op::Delete { key } => PackedOp::new(Kind::Delete, key),
        Op::Range { start_key, .. } => PackedOp::new(Kind::Range, start_key),
    }
}

/// Generate the streams of `def` for `seed`: per thread `run_ops` operations
/// after the window fill (churn) and the warm-up.  A stream never starts
/// over — a second lap would turn every insert into an update — so the run
/// ends where its stream does.
pub fn generate(def: &WorkloadDef, seed: u64, run_ops: usize) -> Streams {
    let ops = def.warmup_ops + run_ops;
    match def.source {
        Source::Ycsb {
            key_space,
            bulkload_keys,
            mix,
            distribution,
        } => {
            let spec = WorkloadSpec {
                key_space,
                bulkload_keys,
                mix,
                distribution,
                range_size: 0,
                seed,
                update_fraction: 2.0 / 3.0,
            };
            spec.validate().expect("workload table holds valid specs");
            let per_thread = (0..def.threads as u64)
                .map(|t| {
                    let mut gen = spec.generator(t);
                    (0..ops).map(|_| pack(gen.next_op())).collect()
                })
                .collect();
            Streams {
                per_thread,
                bulkload: spec.bulkload_iter().collect(),
                range_size: 0,
                start: 0,
                disjoint: false,
                key_bound: key_space,
            }
        }
        Source::Churn {
            window,
            lookup_pct,
            range_pct,
            range_size,
        } => {
            let spec = ChurnSpec {
                window,
                threads: def.threads as u64,
                lookup_pct,
                range_pct,
                range_size,
                bidirectional: true,
                seed,
            };
            spec.validate().expect("workload table holds valid specs");
            let fill = spec.window_per_thread() as usize;
            let per_thread: Vec<Vec<PackedOp>> = (0..def.threads as u64)
                .map(|t| {
                    let mut gen = spec.generator(t);
                    (0..fill + ops).map(|_| pack(gen.next_op())).collect()
                })
                .collect();
            let key_bound = per_thread
                .iter()
                .flatten()
                .map(|op| op.key())
                .max()
                .unwrap_or(0)
                + 1;
            // A generator's first `fill` operations insert its share of the
            // window, one key each.
            let bulkload = per_thread
                .iter()
                .flat_map(|s| &s[..fill])
                .map(|op| op.key())
                .collect();
            Streams {
                per_thread,
                bulkload,
                range_size: range_size as usize,
                start: fill,
                disjoint: true,
                key_bound,
            }
        }
    }
}

/// FNV-1a over every stream, thread by thread: the identity of the inputs.
pub fn hash(streams: &Streams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stream in &streams.per_thread {
        eat(stream.len() as u64);
        stream.iter().for_each(|op| eat(op.0 as u64));
    }
    streams.bulkload.iter().for_each(|&k| eat(k));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        for def in &WORKLOADS {
            let a = hash(&generate(def, 1, 500));
            assert_eq!(a, hash(&generate(def, 1, 500)), "{}", def.name);
            assert_ne!(a, hash(&generate(def, 2, 500)), "{}", def.name);
        }
    }

    #[test]
    fn a_stream_holds_the_warm_up_and_the_run_and_no_more() {
        let def = crate::spec::workload("ycsb_write_skew").unwrap();
        let s = generate(def, 1, 500);
        assert_eq!(s.start, 0);
        for stream in &s.per_thread {
            assert_eq!(stream.len(), def.warmup_ops + 500);
        }
    }

    #[test]
    fn a_churn_stream_starts_after_its_bulkloaded_window_fill() {
        let def = crate::spec::workload("churn_scan").unwrap();
        let s = generate(def, 1, 500);
        assert_eq!(s.start, 25_000);
        assert_eq!(s.bulkload.len(), 50_000);
        for stream in &s.per_thread {
            assert_eq!(stream.len(), s.start + def.warmup_ops + 500);
            assert!(stream[..s.start].iter().all(|op| op.kind() == Kind::Insert));
            assert!(stream[s.start..].iter().any(|op| op.kind() == Kind::Delete));
        }
    }

    #[test]
    fn packed_ops_round_trip() {
        for kind in [Kind::Lookup, Kind::Insert, Kind::Delete, Kind::Range] {
            for key in [0, 1, 12_345, PACKED_KEY_MASK as u64] {
                let op = PackedOp::new(kind, key);
                assert_eq!((op.kind(), op.key()), (kind, key));
            }
        }
    }

    #[test]
    fn the_value_check_rejects_a_corrupted_value() {
        let v = value_for(77, 9);
        assert!(value_ok(77, v));
        assert!(value_ok(77, value_for(77, 0)));
        assert!(!value_ok(77, v ^ 1));
        assert!(!value_ok(78, v));
    }

    #[test]
    fn the_scan_check_rejects_unsorted_duplicate_and_foreign_rows() {
        let row = |k: u64| (k, value_for(k, 3));
        assert!(scan_ok(10, 4, &[row(10), row(11), row(15)]));
        assert!(scan_ok(10, 4, &[]));
        assert!(!scan_ok(10, 4, &[row(11), row(10)]), "unsorted");
        assert!(!scan_ok(10, 4, &[row(10), row(10)]), "duplicate");
        assert!(!scan_ok(10, 4, &[row(9), row(10)]), "below the start key");
        assert!(!scan_ok(10, 2, &[row(10), row(11), row(12)]), "too long");
        assert!(!scan_ok(10, 4, &[(10, value_for(11, 0))]), "foreign value");
    }

    #[test]
    fn bitset_holds_and_orders_its_members() {
        let mut s = BitSet::with_capacity(200);
        for i in [3, 64, 199, 65] {
            s.insert(i);
        }
        s.remove(64);
        assert!(s.contains(3) && !s.contains(64) && !s.contains(10_000));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 65, 199]);
        assert_eq!(s.len(), 3);
        let mut other = BitSet::with_capacity(200);
        other.insert(65);
        other.insert(7);
        s.intersect_with(&other);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![65]);
    }
}
