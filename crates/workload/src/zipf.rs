//! Bounded Zipfian generator (Gray et al., as used by YCSB).
//!
//! The generator draws items from `0..n` such that item popularity follows a
//! Zipfian distribution with parameter `theta` (the paper's "skewness"; 0.99
//! is the common real-world setting, 0 degenerates to uniform).  The scrambled
//! variant hashes the rank so that popular items are spread over the key space
//! instead of being clustered at its start — matching YCSB's
//! `ScrambledZipfianGenerator`, which the paper's workloads rely on.

use rand::Rng;

/// Bounded Zipfian distribution over `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// Create a generator over `0..items` with skew `theta` (`0 <= theta < 1`;
    /// `theta = 0` degenerates to uniform).
    ///
    /// # Panics
    /// Panics if `items == 0` or `theta` is not in `[0, 1)`.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian over an empty domain");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        let zetan = Self::zeta(items, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianGenerator {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; domains used in experiments are at most a few
        // million, and construction happens once per run.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Number of items in the domain.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next rank in `0..items` (rank 0 is the most popular item).
    pub fn next_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.items);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Draw the next item with popularity decoupled from item order
    /// (YCSB's scrambled Zipfian).
    pub fn next_scrambled<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.next_rank(rng);
        fnv1a_64(rank) % self.items
    }
}

/// FNV-1a hash of a 64-bit value; also used by the index layer to hash node
/// addresses into lock-table slots.
pub fn fnv1a_64(value: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = OFFSET;
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn theta_zero_is_uniform() {
        let gen = ZipfianGenerator::new(1_000, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(gen.next_rank(&mut rng)).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap_or(&0);
        // Uniform: no item should be wildly more popular than another.
        assert!(max < 5 * min.max(1), "max {max}, min {min}");
    }

    #[test]
    fn high_theta_concentrates_mass_on_few_items() {
        let gen = ZipfianGenerator::new(100_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = HashMap::new();
        let draws = 200_000;
        for _ in 0..draws {
            *counts.entry(gen.next_rank(&mut rng)).or_insert(0u64) += 1;
        }
        // Rank 0 alone should receive a large share of accesses (YCSB zipf 0.99
        // over 1e5 items gives the hottest item several percent of traffic).
        let hottest = counts.get(&0).copied().unwrap_or(0) as f64 / draws as f64;
        assert!(hottest > 0.04, "hottest item share {hottest}");
        // The top-10 ranks dominate the tail.
        let top10: u64 = (0..10).map(|r| counts.get(&r).copied().unwrap_or(0)).sum();
        assert!(top10 as f64 / draws as f64 > 0.2);
    }

    #[test]
    fn theta_099_top1_frequency_matches_analytic_value() {
        // For a bounded zipfian over n items, P(rank 0) = 1 / zeta_n(theta).
        // At the paper's theta = 0.99 the hottest key's empirical share must
        // land within 10% of that analytic value.
        let n = 100_000u64;
        let theta = 0.99;
        let gen = ZipfianGenerator::new(n, theta);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let expected = 1.0 / zetan;

        let mut rng = StdRng::seed_from_u64(0x05EE_D299);
        let draws = 400_000u64;
        let mut top1 = 0u64;
        for _ in 0..draws {
            if gen.next_rank(&mut rng) == 0 {
                top1 += 1;
            }
        }
        let observed = top1 as f64 / draws as f64;
        let rel_err = (observed - expected).abs() / expected;
        assert!(
            rel_err < 0.10,
            "top-1 frequency {observed:.4} vs analytic {expected:.4} (rel err {rel_err:.3})"
        );
        // Sanity: at theta = 0.99 over 1e5 items the hottest key takes a
        // several-percent share, as the paper's skewed workloads assume.
        assert!(observed > 0.05 && observed < 0.15);
    }

    #[test]
    fn ranks_are_in_domain() {
        for theta in [0.0, 0.5, 0.9, 0.99] {
            let gen = ZipfianGenerator::new(64, theta);
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..10_000 {
                assert!(gen.next_rank(&mut rng) < 64);
                assert!(gen.next_scrambled(&mut rng) < 64);
            }
        }
    }

    #[test]
    fn scrambling_spreads_hot_items() {
        let gen = ZipfianGenerator::new(1_000_000, 0.99);
        let mut rng = StdRng::seed_from_u64(11);
        let mut below_half = 0u64;
        let draws = 50_000;
        for _ in 0..draws {
            if gen.next_scrambled(&mut rng) < 500_000 {
                below_half += 1;
            }
        }
        let frac = below_half as f64 / draws as f64;
        // Plain zipfian would put almost everything below the midpoint;
        // scrambled spreads it roughly evenly.
        assert!((0.3..=0.7).contains(&frac), "fraction below midpoint {frac}");
    }

    #[test]
    fn fnv_is_deterministic_and_spreads_bits() {
        assert_eq!(fnv1a_64(42), fnv1a_64(42));
        assert_ne!(fnv1a_64(1), fnv1a_64(2));
        // Low bits should differ for consecutive inputs (used for bucket hashing).
        let collisions = (0..1024u64)
            .filter(|&i| fnv1a_64(i) % 1024 == fnv1a_64(i + 1) % 1024)
            .count();
        assert!(collisions < 32);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zero_items_panics() {
        let _ = ZipfianGenerator::new(0, 0.5);
    }
}
