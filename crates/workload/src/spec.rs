//! Workload specification and per-thread operation streams.

use crate::mix::{Mix, OpKind};
use crate::zipf::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How keys are drawn from the key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian popularity over key *ranks* (hot keys clustered at low keys).
    Zipfian {
        /// Skewness parameter (0.99 in the paper's skewed workloads).
        theta: f64,
    },
    /// Zipfian popularity with ranks scrambled over the key space (YCSB
    /// default; the paper's "skewed" workloads).
    ScrambledZipfian {
        /// Skewness parameter.
        theta: f64,
    },
}

/// A fully-specified workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of keys in the key space (keys are `0..key_space`).
    pub key_space: u64,
    /// Number of keys bulkloaded before the measured phase.
    pub bulkload_keys: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Key popularity.
    pub distribution: KeyDistribution,
    /// Number of entries returned by each range query.
    pub range_size: u64,
    /// Base RNG seed; each thread derives its own deterministic stream.
    pub seed: u64,
    /// Fraction of inserts that update an existing (bulkloaded) key rather
    /// than inserting a fresh one.  The paper notes about 2/3 of inserts are
    /// updates.
    pub update_fraction: f64,
}

impl WorkloadSpec {
    /// A write-intensive skewed workload at a laptop-friendly scale.
    pub fn default_scaled() -> Self {
        WorkloadSpec {
            key_space: 1 << 20,
            bulkload_keys: (1 << 20) / 5 * 4,
            mix: Mix::WRITE_INTENSIVE,
            distribution: KeyDistribution::ScrambledZipfian { theta: 0.99 },
            range_size: 100,
            seed: 0x5EED,
            update_fraction: 2.0 / 3.0,
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
        if !self.mix.is_valid() {
            return Err("operation mix does not sum to 100".into());
        }
        if !(0.0..=1.0).contains(&self.update_fraction) {
            return Err("update_fraction must be within [0, 1]".into());
        }
        match self.distribution {
            KeyDistribution::Zipfian { theta } | KeyDistribution::ScrambledZipfian { theta } => {
                if !(0.0..1.0).contains(&theta) {
                    return Err("zipfian theta must be in [0, 1)".into());
                }
            }
            KeyDistribution::Uniform => {}
        }
        Ok(())
    }

    /// The keys bulkloaded before the measured phase.
    ///
    /// Keys are spread evenly over the key space so that the tree is about
    /// `bulkload_keys / key_space` full everywhere (the paper bulkloads the
    /// tree 80 % full).
    pub fn bulkload_iter(&self) -> impl Iterator<Item = u64> + '_ {
        let stride = (self.key_space as f64 / self.bulkload_keys.max(1) as f64).max(1.0);
        (0..self.bulkload_keys).map(move |i| ((i as f64 * stride) as u64).min(self.key_space - 1))
    }

    /// Create the deterministic operation stream for one client thread.
    pub fn generator(&self, thread_id: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(self.clone(), thread_id)
    }
}

/// One operation produced by the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look up `key`.
    Lookup {
        /// Target key.
        key: u64,
    },
    /// Insert or update `key` with `value`.
    Insert {
        /// Target key.
        key: u64,
        /// Value payload.
        value: u64,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: u64,
    },
    /// Scan `count` entries starting at `start_key`.
    Range {
        /// First key of the scan.
        start_key: u64,
        /// Number of entries requested.
        count: u64,
    },
}

impl Op {
    /// Whether the operation mutates the index.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Delete { .. })
    }
}

/// Deterministic per-thread operation stream.
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<ZipfianGenerator>,
    counter: u64,
    thread_id: u64,
}

impl WorkloadGenerator {
    fn new(spec: WorkloadSpec, thread_id: u64) -> Self {
        let zipf = match spec.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } | KeyDistribution::ScrambledZipfian { theta } => {
                Some(ZipfianGenerator::new(spec.key_space, theta))
            }
        };
        let rng = StdRng::seed_from_u64(spec.seed ^ (thread_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        WorkloadGenerator {
            spec,
            rng,
            zipf,
            counter: 0,
            thread_id,
        }
    }

    /// The thread id this stream was derived for.
    pub fn thread_id(&self) -> u64 {
        self.thread_id
    }

    fn next_key(&mut self) -> u64 {
        match (&self.spec.distribution, &self.zipf) {
            (KeyDistribution::Uniform, _) => self.rng.gen_range(0..self.spec.key_space),
            (KeyDistribution::Zipfian { .. }, Some(z)) => z.next_rank(&mut self.rng),
            (KeyDistribution::ScrambledZipfian { .. }, Some(z)) => z.next_scrambled(&mut self.rng),
            _ => unreachable!("zipfian generator missing"),
        }
    }

    /// Produce the next operation.
    pub fn next_op(&mut self) -> Op {
        self.counter += 1;
        let roll = self.rng.gen_range(0..100u8);
        let kind = self.spec.mix.pick(roll);
        let key = self.next_key();
        match kind {
            OpKind::Lookup => Op::Lookup { key },
            OpKind::Delete => Op::Delete { key },
            OpKind::RangeQuery => Op::Range {
                start_key: key,
                count: self.spec.range_size,
            },
            OpKind::Insert => {
                // A fraction of inserts target fresh keys; the rest update the
                // drawn (likely bulkloaded) key.
                let update: f64 = self.rng.gen();
                let key = if update < self.spec.update_fraction {
                    key
                } else {
                    // Fresh keys are drawn uniformly so new inserts spread over
                    // the whole tree (as YCSB's insert phase does).
                    self.rng.gen_range(0..self.spec.key_space)
                };
                let value = self
                    .thread_id
                    .wrapping_mul(1_000_003)
                    .wrapping_add(self.counter);
                Op::Insert { key, value }
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

    #[test]
    fn default_spec_is_valid() {
        WorkloadSpec::default_scaled().validate().unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = WorkloadSpec::default_scaled();
        s.key_space = 0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default_scaled();
        s.bulkload_keys = s.key_space + 1;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default_scaled();
        s.distribution = KeyDistribution::Zipfian { theta: 1.5 };
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default_scaled();
        s.update_fraction = 1.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn bulkload_covers_key_space_evenly() {
        let mut s = WorkloadSpec::default_scaled();
        s.key_space = 1000;
        s.bulkload_keys = 800;
        let keys: Vec<u64> = s.bulkload_iter().collect();
        assert_eq!(keys.len(), 800);
        assert!(keys.iter().all(|&k| k < 1000));
        // Strictly increasing (no duplicates) and spread out.
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(*keys.last().unwrap() >= 990);
    }

    #[test]
    fn generator_is_deterministic_per_thread_and_differs_across_threads() {
        let spec = WorkloadSpec::default_scaled();
        let a: Vec<Op> = spec.generator(1).take_ops(50);
        let b: Vec<Op> = spec.generator(1).take_ops(50);
        let c: Vec<Op> = spec.generator(2).take_ops(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_proportions_are_respected() {
        let mut spec = WorkloadSpec::default_scaled();
        spec.mix = Mix::READ_INTENSIVE;
        let mut gen = spec.generator(0);
        let ops = gen.take_ops(10_000);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((0.03..=0.07).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn generator_samples_all_four_kinds_in_proportion() {
        let mut spec = WorkloadSpec::default_scaled();
        spec.mix = Mix {
            insert_pct: 25,
            lookup_pct: 40,
            delete_pct: 15,
            range_pct: 20,
        };
        let mut gen = spec.generator(9);
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
                "kind share {observed} vs expected {expected} (pct {pct})"
            );
        }
    }

    #[test]
    fn range_ops_carry_requested_size() {
        let mut spec = WorkloadSpec::default_scaled();
        spec.mix = Mix::RANGE_ONLY;
        spec.range_size = 1000;
        let mut gen = spec.generator(3);
        for op in gen.take_ops(100) {
            match op {
                Op::Range { count, .. } => assert_eq!(count, 1000),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn keys_stay_in_domain() {
        let mut spec = WorkloadSpec::default_scaled();
        spec.key_space = 4096;
        spec.bulkload_keys = 2048;
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian { theta: 0.99 },
            KeyDistribution::ScrambledZipfian { theta: 0.9 },
        ] {
            spec.distribution = dist;
            let mut gen = spec.generator(0);
            for op in gen.take_ops(5_000) {
                let key = match op {
                    Op::Lookup { key } | Op::Insert { key, .. } | Op::Delete { key } => key,
                    Op::Range { start_key, .. } => start_key,
                };
                assert!(key < 4096, "key {key} out of domain for {dist:?}");
            }
        }
    }
}
