//! Deterministic pseudo-random numbers for workloads.
//!
//! Simulation runs must be reproducible bit-for-bit from a seed, so the
//! workload generators use this self-contained xoshiro256** generator
//! rather than an OS-seeded source.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::rng::Rng;
//!
//! let mut a = Rng::seed_from(42);
//! let mut b = Rng::seed_from(42);
//! assert_eq!(a.range(0..=u64::MAX), b.range(0..=u64::MAX));
//! let dice = a.range(1..=6);
//! assert!((1..=6).contains(&dice));
//! ```

use core::ops::RangeInclusive;

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // xoshiro must not be seeded all-zero; SplitMix64 of any seed isn't.
        Rng { s }
    }

    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in the inclusive range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, r: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*r.start(), *r.end());
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Debiased modulo via rejection sampling.
        let span1 = span + 1;
        let zone = u64::MAX - (u64::MAX - span) % span1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span1;
            }
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.f64() < p
    }

    /// An exponentially distributed sample with the given mean
    /// (for Poisson inter-arrival times in workload generators).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u = 1.0 - self.f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range(0..=i as u64) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = Rng::seed_from(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range(10..=13);
            assert!((10..=13).contains(&v));
            seen_lo |= v == 10;
            seen_hi |= v == 13;
        }
        assert!(seen_lo && seen_hi, "both endpoints should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(4);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut r = Rng::seed_from(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(100.0)).sum();
        let mean = sum / n as f64;
        assert!((90.0..110.0).contains(&mean), "sample mean {mean} too far from 100");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from(8);
        let mut v: Vec<u32> = (0..16).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(v, (0..16).collect::<Vec<_>>(), "16 elements should move under this seed");
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut r = Rng::seed_from(1);
        #[allow(clippy::reversed_empty_ranges)]
        let _ = r.range(5..=4);
    }
}
