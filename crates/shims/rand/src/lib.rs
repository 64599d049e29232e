//! Minimal stand-in for the `rand` crate (the build environment has no
//! crates.io access). It implements the subset of the rand 0.8 API this
//! workspace uses:
//!
//! * the [`RngCore`] / [`SeedableRng`] core traits,
//! * the [`Rng`] extension trait with `gen`, `gen_range` and `fill`,
//! * [`rngs::StdRng`] (a SplitMix64-seeded xoshiro256++) and
//!   [`rngs::OsRng`] (time/urandom seeded, for key generation only).
//!
//! Generators are deterministic under a fixed seed, which is the property the
//! workspace's simulator and tests rely on. This is NOT a cryptographic RNG.

use std::ops::{Range, RangeInclusive};

/// Core random source: 64-bit outputs and byte filling.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// The fixed-size seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64.
    /// (rand_core 0.6 expands with PCG32 instead, so a seeded stream here is
    /// not upstream's.)
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64::new(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types producible by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Slices fillable by [`Rng::fill`].
pub trait Fill {
    /// Fills `self` with random data.
    fn try_fill<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn try_fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// Convenience extension over [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of an inferable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Fills a slice with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.try_fill(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64: seed expander and the engine behind [`rngs::OsRng`].
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Provided generators.
pub mod rngs {
    use super::{RngCore, SeedableRng, SplitMix64};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{SystemTime, UNIX_EPOCH};

    /// The standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // Avoid the all-zero state, which xoshiro cannot escape.
            if s.iter().all(|w| *w == 0) {
                s = [
                    0x9e3779b97f4a7c15,
                    0x6a09e667f3bcc909,
                    0xbb67ae8584caa73b,
                    1,
                ];
            }
            StdRng { s }
        }
    }

    /// An "operating system" entropy source. This shim seeds a SplitMix64
    /// stream from the wall clock and a global counter — good enough for
    /// generating distinct, working key material in tests, but NOT
    /// cryptographically secure.
    ///
    /// Built with [`OsRng::new`], never as a unit-struct expression: the
    /// type-relative path is what clippy's `disallowed_types` sees.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct OsRng {
        _private: (),
    }

    impl OsRng {
        /// The entropy source.
        pub fn new() -> Self {
            OsRng::default()
        }
    }

    static OS_COUNTER: AtomicU64 = AtomicU64::new(0);

    impl RngCore for OsRng {
        fn next_u64(&mut self) -> u64 {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 30))
                .unwrap_or(0x5eed);
            let count = OS_COUNTER.fetch_add(1, Ordering::Relaxed);
            let mut sm = SplitMix64::new(nanos ^ count.rotate_left(32) ^ 0xd1b5_4a32_d192_ed03);
            sm.next_u64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{OsRng, StdRng};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn std_rng_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: u32 = rng.gen_range(1..=5);
            assert!((1..=5).contains(&y));
        }
    }

    #[test]
    fn f64_samples_are_unit_interval_and_varied() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
        assert!(samples.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn fill_covers_non_multiple_of_eight_lengths() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf[..]);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn os_rng_produces_distinct_values() {
        let mut rng = OsRng::new();
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }
}
