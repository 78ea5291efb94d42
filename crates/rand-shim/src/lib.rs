//! A vendored, dependency-free shim exposing the subset of the `rand` 0.8
//! API that kgoa uses: [`RngCore`], [`Rng`] (`gen`, `gen_range`,
//! `gen_bool`), [`SeedableRng::seed_from_u64`], and
//! [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64).
//!
//! The build environment has no access to crates.io, so the workspace
//! points its `rand` dependency at this crate. The statistical quality of
//! xoshiro256++ matches the upstream `SmallRng` for the estimator
//! workloads in this repository (independent uniform draws); streams are
//! deterministic per seed but differ numerically from upstream `rand`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: a source of uniform `u64`s.
pub trait RngCore {
    /// The next uniformly distributed `u64`.
    fn next_u64(&mut self) -> u64;

    /// The next uniformly distributed `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Fill `dest` with independent uniform `u64`s — exactly one
    /// `next_u64` per slot, in slot order, so a batch refill consumes the
    /// same stream as `dest.len()` individual draws.
    fn fill_u64(&mut self, dest: &mut [u64]) {
        for slot in dest.iter_mut() {
            *slot = self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from an [`RngCore`] (the shim's
/// stand-in for `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range, matching
    /// upstream `rand`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift mapping of a uniform u64 onto [0, span).
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + off as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return start.wrapping_add(rng.next_u64() as $t);
                }
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start + off as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(off as $t)
            }
        }
    )*};
}

impl_signed_range!(i32 as u32, i64 as u64);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::draw(rng) * (self.end - self.start)
    }
}

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of type `T` uniformly (`rng.gen::<f64>()` etc.).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from a range (`Range` or `RangeInclusive`).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Construct deterministically from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sequence-related helpers (`choose`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice sampling extensions.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic RNG: xoshiro256++ (Blackman &
    /// Vigna), seeded via SplitMix64 — the same construction upstream
    /// `SmallRng` uses on 64-bit targets.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state; the
            // all-zero state is unreachable this way.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(SmallRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: u32 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = rng.gen_range(0..=3);
            assert!(y <= 3);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniformity_sanity() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        let fair = draws as f64 / 10.0;
        for (i, c) in counts.iter().enumerate() {
            let rel = (*c as f64 - fair).abs() / fair;
            assert!(rel < 0.05, "bucket {i} count {c} deviates {rel}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fill_u64_matches_sequential_draws() {
        let mut a = SmallRng::seed_from_u64(21);
        let mut b = SmallRng::seed_from_u64(21);
        let mut buf = [0u64; 17];
        a.fill_u64(&mut buf);
        for (i, &slot) in buf.iter().enumerate() {
            assert_eq!(slot, b.next_u64(), "slot {i}");
        }
        // The two generators remain in lockstep afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn choose_picks_elements() {
        use super::seq::SliceRandom;
        let mut rng = SmallRng::seed_from_u64(9);
        let v = [1, 2, 3];
        assert!(v.choose(&mut rng).is_some());
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
