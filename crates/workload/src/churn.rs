//! Sliding-window churn workloads: insert waves at the head of a key window,
//! delete waves at its tail.
//!
//! The paper's YCSB mixes (Table 3) never shrink the tree, so they cannot
//! exercise structural deletes or memory reclamation.  A churn workload keeps
//! a fixed number of keys live while continuously *turning the window over*:
//! every write wave inserts fresh keys just above the window and deletes the
//! oldest keys at its bottom.  Long runs therefore cycle many times the live
//! key count through the tree — exactly the "production-scale, long-running"
//! scenario where a grow-only index leaks remote memory without bound.
//!
//! Each thread owns the keys congruent to its id modulo the thread count, so
//! threads never insert/delete the same key while still sharing leaves (and
//! therefore merge boundaries) with their neighbours.
//!
//! With [`ChurnSpec::bidirectional`] (the default) each full upward turnover
//! is followed by a short **descending drain**: write waves briefly delete at
//! the window's *head* (re-filling at the tail) before resuming the upward
//! slide.  A purely ascending window only ever drains nodes that have a right
//! B-link sibling; the descending excursions drain the tree's high edge —
//! rightmost children whose only same-parent partner is their *left* sibling
//! — which is exactly the shape a direction-complete merge engine must keep
//! balanced.  The net motion stays upward, so grow-only comparisons still
//! leak proportionally to turnover.

use crate::spec::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully-specified sliding-window churn workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Number of live keys across all threads once the window is full.
    pub window: u64,
    /// Number of client threads the window is partitioned over.
    pub threads: u64,
    /// Percentage of operations that look up a random live key.
    pub lookup_pct: u8,
    /// Percentage of operations that range-scan from a random live key
    /// (crossing merge boundaries).  The remainder are insert/delete waves.
    pub range_pct: u8,
    /// Entries requested per range scan.
    pub range_size: u64,
    /// Whether each full upward turnover is followed by a short descending
    /// drain at the window's head (a quarter window), exercising left-sibling
    /// merges of rightmost children.  `false` restores the purely ascending
    /// PR 2 window.
    pub bidirectional: bool,
    /// Base RNG seed; each thread derives a deterministic stream.
    pub seed: u64,
}

impl ChurnSpec {
    /// A laptop-friendly default: a 20 k-key window over 4 threads with a
    /// 75 / 20 / 5 write / lookup / scan split.
    pub fn default_scaled() -> Self {
        ChurnSpec {
            window: 20_000,
            threads: 4,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 50,
            bidirectional: true,
            seed: 0xC0FFEE,
        }
    }

    /// Validate the specification.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be > 0".into());
        }
        if self.threads == 0 {
            return Err("threads must be > 0".into());
        }
        if self.window / self.threads == 0 {
            return Err("window must hold at least one key per thread".into());
        }
        if self.lookup_pct as u16 + self.range_pct as u16 >= 100 {
            return Err("lookup_pct + range_pct must leave room for writes".into());
        }
        Ok(())
    }

    /// Live keys owned by one thread once the window is full.
    pub fn window_per_thread(&self) -> u64 {
        (self.window / self.threads).max(1)
    }

    /// Fraction of operations that are writes (inserts + deletes).
    pub fn write_fraction(&self) -> f64 {
        (100 - self.lookup_pct - self.range_pct) as f64 / 100.0
    }

    /// Operations each thread must issue so that the key window turns over at
    /// least `turnover` times (each turnover cycles a full window of keys
    /// through insert *and* delete, i.e. two writes per key), on top of the
    /// initial window fill.  The estimate is conservative: because every
    /// delete is followed by a forced re-fill insert, the realized write
    /// share is at least [`ChurnSpec::write_fraction`], so the actual
    /// turnover meets or exceeds the target.
    pub fn ops_per_thread_for_turnover(&self, turnover: f64) -> usize {
        let per_thread = self.window_per_thread() as f64;
        let writes = 2.0 * turnover.max(0.0) * per_thread;
        let fill = per_thread;
        (fill + (writes / self.write_fraction()).ceil()) as usize
    }

    /// Create the deterministic operation stream for one thread.
    pub fn generator(&self, thread_id: u64) -> ChurnGenerator {
        ChurnGenerator::new(self.clone(), thread_id % self.threads)
    }
}

/// Deterministic per-thread churn stream.
///
/// Thread `t` owns the keys `{ i * threads + t }`; `tail..head` indexes the
/// live window.  Values encode the insertion index so that readers can verify
/// them.
#[derive(Debug)]
pub struct ChurnGenerator {
    spec: ChurnSpec,
    thread_id: u64,
    /// Next key index to insert at the window's high end (the window itself
    /// is always `tail..head`).
    head: u64,
    /// Oldest live key index (everything below is deleted).
    tail: u64,
    /// Whether write waves currently delete at the head (descending drain)
    /// instead of the tail (upward slide).
    descending: bool,
    /// Write waves left before the direction flips (ignored when
    /// [`ChurnSpec::bidirectional`] is off).
    phase_left: u64,
    /// Total deletes issued (the turnover numerator: every windowful of
    /// deletes is one turnover, whichever end they drained).
    deletes: u64,
    rng: StdRng,
}

impl ChurnGenerator {
    fn new(spec: ChurnSpec, thread_id: u64) -> Self {
        let rng = StdRng::seed_from_u64(
            spec.seed ^ thread_id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let up_phase = spec.window_per_thread();
        ChurnGenerator {
            spec,
            thread_id,
            head: 0,
            tail: 0,
            descending: false,
            phase_left: up_phase,
            deletes: 0,
            rng,
        }
    }

    /// Length of a descending excursion: a quarter window (at least one).
    fn down_phase(&self) -> u64 {
        (self.spec.window_per_thread() / 4).max(1)
    }

    /// The thread id this stream was derived for.
    pub fn thread_id(&self) -> u64 {
        self.thread_id
    }

    /// The key for window index `i` of this thread.
    pub fn key_at(&self, i: u64) -> u64 {
        i * self.spec.threads + self.thread_id
    }

    /// The value written for window index `i` (verifiable by readers).
    pub fn value_at(&self, i: u64) -> u64 {
        i.wrapping_mul(31).wrapping_add(self.thread_id)
    }

    /// Number of live keys right now.
    pub fn live(&self) -> u64 {
        self.head - self.tail
    }

    /// How many times the window has fully turned over so far (one turnover
    /// per windowful of deletes, whichever end they drained).
    pub fn turnovers(&self) -> f64 {
        self.deletes as f64 / self.spec.window_per_thread() as f64
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        let per_thread = self.spec.window_per_thread();
        // Warm-up / re-fill: keep the window full before churning.  During a
        // descending drain the window re-fills downward at the tail, so the
        // net window slides down with the head; everywhere else it grows at
        // the head.
        if self.live() < per_thread {
            let i = if self.descending && self.tail > 0 {
                self.tail -= 1;
                self.tail
            } else {
                self.head += 1;
                self.head - 1
            };
            return Op::Insert {
                key: self.key_at(i),
                value: self.value_at(i),
            };
        }
        let roll = self.rng.gen_range(0..100u8);
        if roll < self.spec.lookup_pct {
            let i = self.rng.gen_range(self.tail..self.head);
            return Op::Lookup { key: self.key_at(i) };
        }
        if roll < self.spec.lookup_pct + self.spec.range_pct {
            let i = self.rng.gen_range(self.tail..self.head);
            return Op::Range {
                start_key: self.key_at(i),
                count: self.spec.range_size,
            };
        }
        // Write wave: the window is full here (the warm-up guard above
        // handles every not-full state), so delete at the draining end.  The
        // next call then takes the re-fill branch — each delete is
        // immediately followed by an insert, which also means the realized
        // write share is somewhat above what the lookup/range percentages
        // alone suggest ([`ChurnSpec::ops_per_thread_for_turnover`] treats
        // its estimate as a lower bound for the same reason).
        let i = if self.descending {
            self.head -= 1;
            self.head
        } else {
            self.tail += 1;
            self.tail - 1
        };
        self.deletes += 1;
        if self.spec.bidirectional {
            self.phase_left = self.phase_left.saturating_sub(1);
            // Flip at the phase boundary; a descending drain also ends early
            // when the window cannot slide further down.
            if self.phase_left == 0 || (self.descending && self.tail == 0) {
                self.descending = !self.descending && self.tail > 0;
                self.phase_left = if self.descending {
                    self.down_phase()
                } else {
                    per_thread
                };
            }
        }
        Op::Delete { key: self.key_at(i) }
    }

    /// Produce `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn default_spec_is_valid() {
        ChurnSpec::default_scaled().validate().unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = ChurnSpec::default_scaled();
        s.window = 0;
        assert!(s.validate().is_err());

        let mut s = ChurnSpec::default_scaled();
        s.threads = 0;
        assert!(s.validate().is_err());

        let mut s = ChurnSpec::default_scaled();
        s.threads = s.window + 1;
        assert!(s.validate().is_err());

        let mut s = ChurnSpec::default_scaled();
        s.lookup_pct = 60;
        s.range_pct = 40;
        assert!(s.validate().is_err(), "no room for writes");
    }

    #[test]
    fn window_stays_fixed_and_slides_upward() {
        let spec = ChurnSpec {
            window: 400,
            threads: 4,
            lookup_pct: 10,
            range_pct: 5,
            range_size: 10,
            bidirectional: false,
            seed: 7,
        };
        let mut gen = spec.generator(1);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        for op in gen.take_ops(5_000) {
            match op {
                Op::Insert { key, .. } => {
                    assert_eq!(key % 4, 1, "thread 1 owns keys ≡ 1 mod 4");
                    assert!(live.insert(key), "insert of an already-live key {key}");
                }
                Op::Delete { key } => {
                    // Ascending-only mode: deletes target the oldest live key.
                    assert_eq!(live.iter().next(), Some(&key), "delete must hit the tail");
                    live.remove(&key);
                }
                Op::Lookup { key } | Op::Range { start_key: key, .. } => {
                    assert!(live.contains(&key), "read of a dead key {key}");
                }
            }
            assert!(live.len() as u64 <= spec.window_per_thread());
        }
        assert_eq!(live.len() as u64, spec.window_per_thread());
        assert!(gen.turnovers() > 10.0, "5000 ops over a 100-key window churn a lot");
    }

    #[test]
    fn bidirectional_churn_drains_both_ends_and_stays_consistent() {
        let spec = ChurnSpec {
            window: 400,
            threads: 4,
            lookup_pct: 10,
            range_pct: 5,
            range_size: 10,
            bidirectional: true,
            seed: 7,
        };
        let mut gen = spec.generator(1);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let (mut tail_deletes, mut head_deletes) = (0u64, 0u64);
        for op in gen.take_ops(8_000) {
            match op {
                Op::Insert { key, .. } => {
                    assert!(live.insert(key), "insert of an already-live key {key}");
                }
                Op::Delete { key } => {
                    // Every delete hits one *end* of the live window — the
                    // drain direction just flips between phases.
                    if live.iter().next() == Some(&key) {
                        tail_deletes += 1;
                    } else if live.iter().next_back() == Some(&key) {
                        head_deletes += 1;
                    } else {
                        panic!("delete of an interior key {key}");
                    }
                    live.remove(&key);
                }
                Op::Lookup { key } | Op::Range { start_key: key, .. } => {
                    assert!(live.contains(&key), "read of a dead key {key}");
                }
            }
            assert!(live.len() as u64 <= spec.window_per_thread());
        }
        assert_eq!(live.len() as u64, spec.window_per_thread());
        assert!(tail_deletes > 0, "the window must still slide upward");
        assert!(
            head_deletes > 0,
            "descending excursions must drain the high edge (left-merge shapes)"
        );
        // Up-phases dominate: the net motion stays upward so grow-only
        // comparisons still leak proportionally to turnover.
        assert!(tail_deletes > 2 * head_deletes);
        assert!(gen.turnovers() > 10.0);
    }

    #[test]
    fn streams_are_deterministic_and_partitioned() {
        let spec = ChurnSpec::default_scaled();
        let a: Vec<Op> = spec.generator(2).take_ops(200);
        let b: Vec<Op> = spec.generator(2).take_ops(200);
        assert_eq!(a, b);
        // Different threads touch disjoint keys.
        let keys = |ops: &[Op]| -> BTreeSet<u64> {
            ops.iter()
                .map(|op| match *op {
                    Op::Insert { key, .. }
                    | Op::Delete { key }
                    | Op::Lookup { key }
                    | Op::Range { start_key: key, .. } => key,
                })
                .collect()
        };
        let c: Vec<Op> = spec.generator(3).take_ops(200);
        assert!(keys(&a).is_disjoint(&keys(&c)));
    }

    #[test]
    fn ops_budget_reaches_requested_turnover() {
        let spec = ChurnSpec {
            window: 1_000,
            threads: 2,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 10,
            bidirectional: true,
            seed: 9,
        };
        let ops = spec.ops_per_thread_for_turnover(10.0);
        let mut gen = spec.generator(0);
        for _ in 0..ops {
            gen.next_op();
        }
        // The budget is computed from expected write share; allow the RNG a
        // little slack but require the acceptance bar of ≥ 10 turnovers to be
        // within reach (the driver can always add a safety factor).
        assert!(
            gen.turnovers() >= 9.0,
            "expected ≈10 turnovers, got {:.2}",
            gen.turnovers()
        );
    }
}
