//! Hostile workload scenarios: adversarial access shapes the YCSB mixes
//! (Table 3) cannot express.
//!
//! The paper's evaluation drives Sherman with *stationary* distributions —
//! a fixed Zipfian skew over a fixed key space.  Real deployments misbehave
//! in ways a stationary driver never probes:
//!
//! * [`ScenarioShape::ShiftingHotspot`] — the Zipfian hot spot *migrates*
//!   across the key space over the run, invalidating whatever the index
//!   cache and the on-chip lock table learned about the previous phase,
//! * [`ScenarioShape::FlashCrowd`] — a large share of every thread's
//!   operations converge on one single key (the "celebrity row"), turning
//!   one leaf and one global lock into the whole cluster's bottleneck,
//! * [`ScenarioShape::SequentialAppend`] — every insert lands at the right
//!   edge of the key space, the classic B-link pathology where one rightmost
//!   leaf chain absorbs every split,
//! * [`ScenarioShape::ScanChurn`] — long range scans race a sliding-window
//!   insert/delete churn, so scans keep crossing leaves that are being
//!   split, merged and reclaimed underneath them.
//!
//! Each scenario is a deterministic per-thread stream ([`ScenarioGenerator`])
//! in the same mould as [`WorkloadGenerator`](crate::WorkloadGenerator): the
//! stream depends only on `(seed, thread_id)`, and the hot spot's *motion
//! schedule* ([`ScenarioSpec::hot_key_at`]) is a pure function of the seed —
//! independent of the thread count — so runs with different parallelism
//! attack the same keys in the same order.

use crate::churn::{ChurnGenerator, ChurnSpec};
use crate::mix::{Mix, OpKind};
use crate::spec::Op;
use crate::zipf::{fnv1a_64, ZipfianGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hostile access shape a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioShape {
    /// Zipfian skew whose hot spot migrates across the key space: the run is
    /// divided into `phases` equal slices, and each phase centres the skew on
    /// a fresh [`ScenarioSpec::hot_key_at`] anchor.
    ShiftingHotspot {
        /// Zipfian skewness in `[0, 1)` (0.99 in the paper's skewed runs).
        theta: f64,
        /// Number of hot-spot positions visited over the run.
        phases: u64,
    },
    /// A single key absorbs `hot_pct` percent of every thread's operations;
    /// the rest are uniform over the key space.
    FlashCrowd {
        /// Percentage (`0..=100`) of operations aimed at the one hot key.
        hot_pct: u8,
    },
    /// Every insert appends at the right edge of the key space (monotonically
    /// increasing keys, partitioned over threads so streams stay disjoint).
    /// Deletes trim the oldest appended key; reads target live appended keys.
    SequentialAppend,
    /// Long scans racing a sliding-window churn: the stream delegates to a
    /// [`ChurnGenerator`] whose range share is raised to `scan_pct` and whose
    /// scans request `scan_size` entries each.
    ScanChurn {
        /// Percentage of operations that are long range scans.
        scan_pct: u8,
        /// Entries requested per scan.
        scan_size: u64,
    },
}

impl ScenarioShape {
    /// Short stable name used in benchmark tables and smoke-gate output.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioShape::ShiftingHotspot { .. } => "shifting-hotspot",
            ScenarioShape::FlashCrowd { .. } => "flash-crowd",
            ScenarioShape::SequentialAppend => "sequential-append",
            ScenarioShape::ScanChurn { .. } => "scan-churn",
        }
    }
}

/// A fully-specified hostile scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The access shape under test.
    pub shape: ScenarioShape,
    /// Number of keys in the bulkloadable key space (`0..key_space`).
    /// [`ScenarioShape::SequentialAppend`] appends *above* this bound.
    pub key_space: u64,
    /// Number of keys bulkloaded before the measured phase.
    pub bulkload_keys: u64,
    /// Number of client threads the scenario is partitioned over.
    pub threads: u64,
    /// Operations each thread issues (also the denominator of the
    /// shifting-hotspot phase schedule).
    pub ops_per_thread: u64,
    /// Operation mix.  [`ScenarioShape::ScanChurn`] uses only the lookup
    /// share (its writes come from the churn window, its scans from
    /// `scan_pct`).
    pub mix: Mix,
    /// Entries requested per range query (shapes other than scan-churn).
    pub range_size: u64,
    /// Base RNG seed; each thread derives its own deterministic stream.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A laptop-friendly base: 64 k keys, 80 % bulkloaded, four threads.
    pub fn default_scaled(shape: ScenarioShape) -> Self {
        ScenarioSpec {
            shape,
            key_space: 1 << 16,
            bulkload_keys: (1 << 16) / 5 * 4,
            threads: 4,
            ops_per_thread: 10_000,
            mix: Mix::WRITE_INTENSIVE,
            range_size: 50,
            seed: 0x5C_E7A5,
        }
    }

    /// Validate the specification.
    pub fn validate(&self) -> Result<(), String> {
        if self.key_space == 0 {
            return Err("key_space must be > 0".into());
        }
        if self.bulkload_keys > self.key_space {
            return Err("bulkload_keys cannot exceed key_space".into());
        }
        if self.threads == 0 {
            return Err("threads must be > 0".into());
        }
        if self.ops_per_thread == 0 {
            return Err("ops_per_thread must be > 0".into());
        }
        if !self.mix.is_valid() {
            return Err("operation mix does not sum to 100".into());
        }
        match self.shape {
            ScenarioShape::ShiftingHotspot { theta, phases } => {
                if !(0.0..1.0).contains(&theta) {
                    return Err("zipfian theta must be in [0, 1)".into());
                }
                if phases == 0 {
                    return Err("shifting hotspot needs at least one phase".into());
                }
            }
            ScenarioShape::FlashCrowd { hot_pct } => {
                if hot_pct > 100 {
                    return Err("hot_pct cannot exceed 100".into());
                }
            }
            ScenarioShape::SequentialAppend => {}
            ScenarioShape::ScanChurn { .. } => {
                self.churn_spec().validate()?;
            }
        }
        Ok(())
    }

    /// The keys bulkloaded before the measured phase, spread evenly over the
    /// key space (same policy as [`WorkloadSpec`](crate::WorkloadSpec)).
    pub fn bulkload_iter(&self) -> impl Iterator<Item = u64> + '_ {
        let stride = (self.key_space as f64 / self.bulkload_keys.max(1) as f64).max(1.0);
        (0..self.bulkload_keys).map(move |i| ((i as f64 * stride) as u64).min(self.key_space - 1))
    }

    /// The hot-spot anchor key for `phase`.
    ///
    /// This is a *pure* function of `(seed, phase)` — deliberately independent
    /// of the thread count — so every thread of every run configuration agrees
    /// on where the hot spot sits at each point of the schedule.
    pub fn hot_key_at(&self, phase: u64) -> u64 {
        fnv1a_64(self.seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % self.key_space
    }

    /// The churn sub-spec a [`ScenarioShape::ScanChurn`] stream delegates to.
    fn churn_spec(&self) -> ChurnSpec {
        let (scan_pct, scan_size) = match self.shape {
            ScenarioShape::ScanChurn {
                scan_pct,
                scan_size,
            } => (scan_pct, scan_size),
            _ => (0, self.range_size),
        };
        ChurnSpec {
            window: self.key_space,
            threads: self.threads,
            lookup_pct: self.mix.lookup_pct,
            range_pct: scan_pct,
            range_size: scan_size,
            bidirectional: true,
            seed: self.seed,
        }
    }

    /// Create the deterministic operation stream for one client thread.
    pub fn generator(&self, thread_id: u64) -> ScenarioGenerator {
        ScenarioGenerator::new(self.clone(), thread_id % self.threads.max(1))
    }
}

/// Deterministic per-thread hostile-scenario stream.
#[derive(Debug)]
pub struct ScenarioGenerator {
    spec: ScenarioSpec,
    thread_id: u64,
    rng: StdRng,
    zipf: Option<ZipfianGenerator>,
    churn: Option<ChurnGenerator>,
    /// Operations produced so far (drives the hotspot phase schedule).
    counter: u64,
    /// Sequential-append bookkeeping: next append index…
    appended: u64,
    /// …and the oldest still-live append index (everything below is deleted).
    trimmed: u64,
}

impl ScenarioGenerator {
    fn new(spec: ScenarioSpec, thread_id: u64) -> Self {
        let zipf = match spec.shape {
            ScenarioShape::ShiftingHotspot { theta, .. } => {
                Some(ZipfianGenerator::new(spec.key_space, theta))
            }
            _ => None,
        };
        let churn = match spec.shape {
            ScenarioShape::ScanChurn { .. } => Some(spec.churn_spec().generator(thread_id)),
            _ => None,
        };
        let rng =
            StdRng::seed_from_u64(spec.seed ^ thread_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ScenarioGenerator {
            spec,
            thread_id,
            rng,
            zipf,
            churn,
            counter: 0,
            appended: 0,
            trimmed: 0,
        }
    }

    /// The thread id this stream was derived for.
    pub fn thread_id(&self) -> u64 {
        self.thread_id
    }

    /// The scenario this stream was derived from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The hotspot phase operation `counter` falls into.
    fn phase_of(&self, counter: u64) -> u64 {
        let ScenarioShape::ShiftingHotspot { phases, .. } = self.spec.shape else {
            return 0;
        };
        let phase_len = (self.spec.ops_per_thread / phases).max(1);
        (counter / phase_len).min(phases - 1)
    }

    /// The key appended at index `i` by this thread: right of the bulkload
    /// space, partitioned over threads so streams never collide.
    pub fn append_key_at(&self, i: u64) -> u64 {
        self.spec.key_space + i * self.spec.threads + self.thread_id
    }

    /// The value written for append index `i` (verifiable by readers).
    pub fn append_value_at(&self, i: u64) -> u64 {
        i.wrapping_mul(31).wrapping_add(self.thread_id)
    }

    /// Appended keys still live (not yet trimmed by deletes).
    pub fn live_appended(&self) -> u64 {
        self.appended - self.trimmed
    }

    /// Draw the target key for the current shape (never called for
    /// scan-churn, which delegates wholesale).
    fn next_key(&mut self) -> u64 {
        match self.spec.shape {
            ScenarioShape::ShiftingHotspot { .. } => {
                let hot = self.spec.hot_key_at(self.phase_of(self.counter));
                let offset = self
                    .zipf
                    .as_mut()
                    .expect("hotspot scenarios carry a zipfian")
                    .next_rank(&mut self.rng);
                // Rank 0 is the hot spot itself; higher ranks fan out to the
                // right, wrapping at the key-space edge.
                (hot + offset) % self.spec.key_space
            }
            ScenarioShape::FlashCrowd { hot_pct } => {
                if self.rng.gen_range(0..100u8) < hot_pct {
                    self.spec.hot_key_at(0)
                } else {
                    self.rng.gen_range(0..self.spec.key_space)
                }
            }
            ScenarioShape::SequentialAppend | ScenarioShape::ScanChurn { .. } => {
                unreachable!("shape draws its own keys")
            }
        }
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        if let Some(churn) = self.churn.as_mut() {
            self.counter += 1;
            return churn.next_op();
        }
        let roll = self.rng.gen_range(0..100u8);
        let kind = self.spec.mix.pick(roll);
        let c = self.counter;
        self.counter += 1;
        if matches!(self.spec.shape, ScenarioShape::SequentialAppend) {
            return self.next_append_op(kind);
        }
        let key = self.next_key();
        match kind {
            OpKind::Lookup => Op::Lookup { key },
            OpKind::Delete => Op::Delete { key },
            OpKind::RangeQuery => Op::Range {
                start_key: key,
                count: self.spec.range_size,
            },
            OpKind::Insert => Op::Insert {
                key,
                value: self.thread_id.wrapping_mul(1_000_003).wrapping_add(c + 1),
            },
        }
    }

    /// Sequential-append dispatch: inserts append at the right edge, deletes
    /// trim the oldest appended key, reads target live appended keys (falling
    /// back to the bulkloaded space while nothing has been appended yet).  A
    /// delete drawn before any append is converted into an append so the
    /// stream never touches bulkloaded keys with writes.
    fn next_append_op(&mut self, kind: OpKind) -> Op {
        match kind {
            OpKind::Delete if self.trimmed < self.appended => {
                let i = self.trimmed;
                self.trimmed += 1;
                Op::Delete {
                    key: self.append_key_at(i),
                }
            }
            OpKind::Insert | OpKind::Delete => {
                let i = self.appended;
                self.appended += 1;
                Op::Insert {
                    key: self.append_key_at(i),
                    value: self.append_value_at(i),
                }
            }
            OpKind::Lookup | OpKind::RangeQuery => {
                let key = if self.trimmed < self.appended {
                    let i = self.rng.gen_range(self.trimmed..self.appended);
                    self.append_key_at(i)
                } else {
                    self.rng.gen_range(0..self.spec.key_space)
                };
                if kind == OpKind::Lookup {
                    Op::Lookup { key }
                } else {
                    Op::Range {
                        start_key: key,
                        count: self.spec.range_size,
                    }
                }
            }
        }
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

    fn spec(shape: ScenarioShape) -> ScenarioSpec {
        ScenarioSpec::default_scaled(shape)
    }

    #[test]
    fn default_specs_are_valid() {
        for shape in [
            ScenarioShape::ShiftingHotspot {
                theta: 0.99,
                phases: 8,
            },
            ScenarioShape::FlashCrowd { hot_pct: 60 },
            ScenarioShape::SequentialAppend,
            ScenarioShape::ScanChurn {
                scan_pct: 10,
                scan_size: 200,
            },
        ] {
            spec(shape).validate().unwrap_or_else(|e| panic!("{}: {e}", shape.name()));
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = spec(ScenarioShape::ShiftingHotspot {
            theta: 1.2,
            phases: 4,
        });
        assert!(s.validate().is_err(), "theta out of range");
        s.shape = ScenarioShape::ShiftingHotspot {
            theta: 0.9,
            phases: 0,
        };
        assert!(s.validate().is_err(), "zero phases");

        let s = spec(ScenarioShape::FlashCrowd { hot_pct: 101 });
        assert!(s.validate().is_err(), "hot_pct > 100");

        let mut s = spec(ScenarioShape::SequentialAppend);
        s.key_space = 0;
        assert!(s.validate().is_err(), "empty key space");

        let mut s = spec(ScenarioShape::ScanChurn {
            scan_pct: 60,
            scan_size: 10,
        });
        s.mix.lookup_pct = 50;
        assert!(s.validate().is_err(), "churn needs room for writes");
    }

    #[test]
    fn streams_are_deterministic_per_thread_and_differ_across_threads() {
        for shape in [
            ScenarioShape::ShiftingHotspot {
                theta: 0.99,
                phases: 8,
            },
            ScenarioShape::FlashCrowd { hot_pct: 60 },
            ScenarioShape::SequentialAppend,
            ScenarioShape::ScanChurn {
                scan_pct: 10,
                scan_size: 100,
            },
        ] {
            let s = spec(shape);
            let a = s.generator(1).take_ops(300);
            let b = s.generator(1).take_ops(300);
            let c = s.generator(2).take_ops(300);
            assert_eq!(a, b, "{} replay must match", shape.name());
            assert_ne!(a, c, "{} threads must differ", shape.name());
        }
    }

    #[test]
    fn hot_key_schedule_is_independent_of_thread_count() {
        let mut one = spec(ScenarioShape::ShiftingHotspot {
            theta: 0.99,
            phases: 16,
        });
        let mut many = one.clone();
        one.threads = 1;
        many.threads = 64;
        for phase in 0..16 {
            assert_eq!(one.hot_key_at(phase), many.hot_key_at(phase));
            assert!(one.hot_key_at(phase) < one.key_space);
        }
        // The schedule actually moves: 16 phases hit more than one anchor.
        let anchors: BTreeSet<u64> = (0..16).map(|p| one.hot_key_at(p)).collect();
        assert!(anchors.len() > 8, "only {} distinct anchors", anchors.len());
    }

    #[test]
    fn shifting_hotspot_tracks_the_phase_anchor() {
        let s = ScenarioSpec {
            ops_per_thread: 4_000,
            mix: Mix {
                insert_pct: 0,
                lookup_pct: 100,
                delete_pct: 0,
                range_pct: 0,
            },
            ..spec(ScenarioShape::ShiftingHotspot {
                theta: 0.99,
                phases: 4,
            })
        };
        let mut gen = s.generator(0);
        let phase_len = s.ops_per_thread / 4;
        for phase in 0..4u64 {
            let hot = s.hot_key_at(phase);
            let hits = (0..phase_len)
                .filter(|_| matches!(gen.next_op(), Op::Lookup { key } if key == hot))
                .count();
            // Rank 0 of a theta-0.99 Zipfian is drawn far more often than
            // 1/key_space; seeing it repeatedly pins the skew to this anchor.
            assert!(
                hits > phase_len as usize / 20,
                "phase {phase}: only {hits} hits on anchor {hot}"
            );
        }
    }

    #[test]
    fn flash_crowd_concentrates_on_one_key() {
        let s = spec(ScenarioShape::FlashCrowd { hot_pct: 60 });
        let hot = s.hot_key_at(0);
        let mut gen = s.generator(3);
        let n = 20_000usize;
        let on_hot = gen
            .take_ops(n)
            .into_iter()
            .filter(|op| {
                matches!(
                    *op,
                    Op::Lookup { key } | Op::Insert { key, .. } | Op::Delete { key }
                        | Op::Range { start_key: key, .. }
                    if key == hot
                )
            })
            .count();
        let frac = on_hot as f64 / n as f64;
        assert!(
            (0.57..=0.63).contains(&frac),
            "hot-key share {frac} (expected ≈0.60)"
        );
    }

    #[test]
    fn hostile_mix_proportions_are_respected() {
        // Satellite: the hotspot and flash-crowd generators must preserve the
        // configured mix proportions exactly as the YCSB driver does.
        for shape in [
            ScenarioShape::ShiftingHotspot {
                theta: 0.9,
                phases: 8,
            },
            ScenarioShape::FlashCrowd { hot_pct: 40 },
        ] {
            let s = ScenarioSpec {
                ops_per_thread: 20_000,
                mix: Mix {
                    insert_pct: 25,
                    lookup_pct: 40,
                    delete_pct: 15,
                    range_pct: 20,
                },
                ..spec(shape)
            };
            let mut gen = s.generator(9);
            let n = 20_000usize;
            let mut counts = [0usize; 4];
            for op in gen.take_ops(n) {
                match op {
                    Op::Insert { .. } => counts[0] += 1,
                    Op::Lookup { .. } => counts[1] += 1,
                    Op::Delete { .. } => counts[2] += 1,
                    Op::Range { .. } => counts[3] += 1,
                }
            }
            for (observed, pct) in counts.into_iter().zip([25u32, 40, 15, 20]) {
                let expected = n * pct as usize / 100;
                let tolerance = n / 50; // 2% absolute slack on 20k samples
                assert!(
                    observed.abs_diff(expected) <= tolerance,
                    "{}: kind share {observed} vs expected {expected} (pct {pct})",
                    shape.name()
                );
            }
        }
    }

    #[test]
    fn sequential_append_stays_at_the_right_edge() {
        let s = ScenarioSpec {
            mix: Mix {
                insert_pct: 60,
                lookup_pct: 20,
                delete_pct: 15,
                range_pct: 5,
            },
            ..spec(ScenarioShape::SequentialAppend)
        };
        let mut gen = s.generator(2);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut last_insert = 0u64;
        for op in gen.take_ops(5_000) {
            match op {
                Op::Insert { key, value } => {
                    assert!(key >= s.key_space, "appends must land beyond the bulkload space");
                    assert!(key > last_insert || last_insert == 0, "appends must be monotonic");
                    assert_eq!(key % s.threads, 2, "thread 2 owns keys ≡ 2 mod threads");
                    let i = (key - s.key_space) / s.threads;
                    assert_eq!(value, gen.append_value_at(i), "values must be verifiable");
                    last_insert = key;
                    assert!(live.insert(key));
                }
                Op::Delete { key } => {
                    assert_eq!(live.iter().next(), Some(&key), "deletes trim the oldest append");
                    live.remove(&key);
                }
                Op::Lookup { key } | Op::Range { start_key: key, .. } => {
                    assert!(
                        live.contains(&key) || key < s.key_space,
                        "reads target live appended or bulkloaded keys, got {key}"
                    );
                }
            }
        }
        assert!(gen.live_appended() > 0);
        assert_eq!(gen.live_appended(), live.len() as u64);
    }

    #[test]
    fn scan_churn_delegates_to_a_partitioned_churn_window() {
        let s = ScenarioSpec {
            key_space: 4_000,
            bulkload_keys: 0,
            mix: Mix {
                insert_pct: 70,
                lookup_pct: 20,
                delete_pct: 0,
                range_pct: 10,
            },
            ..spec(ScenarioShape::ScanChurn {
                scan_pct: 10,
                scan_size: 200,
            })
        };
        let mut scans = 0usize;
        let mut gen = s.generator(1);
        for op in gen.take_ops(6_000) {
            match op {
                Op::Insert { key, .. } | Op::Delete { key } | Op::Lookup { key } => {
                    assert_eq!(key % s.threads, 1, "churn keys are partitioned by thread");
                }
                Op::Range { start_key, count } => {
                    assert_eq!(count, 200, "scan size must come from the shape");
                    assert_eq!(start_key % s.threads, 1);
                    scans += 1;
                }
            }
        }
        assert!(scans > 0, "scan share must materialize");
    }
}
