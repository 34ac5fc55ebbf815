//! Small, dependency-free, deterministic pseudo-random number generator.
//!
//! The synthetic workload generators only need a seedable stream of
//! uniform integers, floats and biased coin flips. This crate provides a
//! xoshiro256\*\* generator (Blackman & Vigna) seeded through SplitMix64,
//! with an API surface mirroring the subset of `rand` the workspace uses
//! (`seed_from_u64`, `gen`, `gen_bool`, `gen_range`), so the simulator
//! builds without any external crates and every stream is reproducible
//! across platforms and releases.
//!
//! Streams are *stable*: changing the numbers a given seed produces is a
//! breaking change, because trace generation (and therefore every figure
//! artefact digest) depends on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::ops::{Range, RangeInclusive};

/// A seedable xoshiro256\*\* generator.
///
/// Named `StdRng` so call sites read identically to the `rand` crate's
/// (`StdRng::seed_from_u64(seed)`), but the stream is this crate's own and
/// does not match `rand`'s ChaCha-based generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        StdRng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform sample of `T`'s standard distribution (currently `f64` in
    /// `[0, 1)`, `u64`, `u32` and `bool`).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (half-open or inclusive, integer or
    /// `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` (widening-multiply reduction).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Types with a canonical "standard" distribution for [`StdRng::gen`].
pub trait Standard {
    /// Draws one standard sample.
    fn standard(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn standard(rng: &mut StdRng) -> Self {
        rng.gen_f64()
    }
}

impl Standard for u64 {
    fn standard(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn standard(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.bounded_u64(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // the only such range is the full u64/i64 domain
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span as u64) as $t)
            }
        }
    )*};
}

impl_int_range!(u64, i64, u32, i32, usize, u8);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + (hi - lo) * rng.gen_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_pinned() {
        // trace digests depend on this stream; a change here invalidates
        // every memoized artifact
        let mut r = StdRng::seed_from_u64(0x3d_d1e5);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                15550981622579639779,
                738477014146032612,
                11020348540609385265,
                12216111314866745554
            ]
        );
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let a: i64 = r.gen_range(-1..=1);
            assert!((-1..=1).contains(&a));
            let b: u64 = r.gen_range(0..17);
            assert!(b < 17);
            let c: u32 = r.gen_range(8..160);
            assert!((8..160).contains(&c));
            let d: f64 = r.gen_range(0.97..0.999);
            assert!((0.97..0.999).contains(&d));
            let e: usize = r.gen_range(0..5);
            assert!(e < 5);
            let f: u32 = r.gen_range(1..=3);
            assert!((1..=3).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_probability() {
        let _ = StdRng::seed_from_u64(0).gen_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _: u64 = StdRng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn all_ints_reachable_in_small_range() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            let v: i64 = r.gen_range(-1..=1);
            seen[(v + 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
