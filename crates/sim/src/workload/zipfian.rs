//! Zipfian key-popularity distribution (the YCSB "zipfian" request
//! distribution).
//!
//! The implementation follows Gray et al.'s rejection-free algorithm as used
//! by the original YCSB client: keys are drawn with probability proportional
//! to `1 / rank^theta`, so a small set of hot keys receives most requests.

use rand::Rng;

/// A zipfian generator over the integer range `[0, items)`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// The skew parameter used by YCSB's default zipfian workloads.
    pub(crate) const YCSB_THETA: f64 = 0.99;

    /// Creates a generator over `[0, items)` with skew `theta` (0 < theta < 1).
    ///
    /// `theta` close to 0 approaches a uniform distribution; YCSB uses 0.99.
    pub(crate) fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zeta_n = Self::zeta(items, theta);
        let zeta_two = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta_two / zeta_n);
        ZipfianGenerator {
            items,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // For the 600 k-record store this sum is computed once at start-up.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws the next key.
    pub(crate) fn next_key<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64 % self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keys_stay_in_range() {
        let gen = ZipfianGenerator::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(gen.next_key(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_low_ranks() {
        let gen = ZipfianGenerator::new(10_000, ZipfianGenerator::YCSB_THETA);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hot = 0usize;
        let samples = 50_000;
        for _ in 0..samples {
            if gen.next_key(&mut rng) < 100 {
                hot += 1;
            }
        }
        // With theta = 0.99, the hottest 1% of keys should receive far more
        // than 1% of requests (empirically > 30%).
        assert!(
            hot as f64 / samples as f64 > 0.3,
            "hot fraction was {}",
            hot as f64 / samples as f64
        );
    }

    #[test]
    fn lower_theta_is_less_skewed() {
        let skewed = ZipfianGenerator::new(10_000, 0.99);
        let flat = ZipfianGenerator::new(10_000, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        let count_hot = |gen: &ZipfianGenerator, rng: &mut StdRng| {
            (0..20_000).filter(|_| gen.next_key(rng) < 100).count()
        };
        let hot_skewed = count_hot(&skewed, &mut rng);
        let hot_flat = count_hot(&flat, &mut rng);
        assert!(hot_skewed > hot_flat * 2);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let gen = ZipfianGenerator::new(600_000, ZipfianGenerator::YCSB_THETA);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| gen.next_key(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = ZipfianGenerator::new(0, 0.5);
    }
}
