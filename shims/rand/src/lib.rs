//! Offline shim for the subset of the `rand` 0.8 API used by this
//! workspace.
//!
//! The build environment has no network access to a crates registry, so
//! external dependencies are replaced by in-tree path crates with the same
//! names. This crate reimplements exactly the surface the workspace calls:
//! [`RngCore`], [`SeedableRng`], the [`Rng`] extension trait (`gen`,
//! `gen_range`, `gen_bool`, `fill`), and [`seq::SliceRandom`]
//! (`shuffle`, `choose`).
//!
//! Determinism contract: all workspace code seeds generators explicitly
//! (there is no `thread_rng`), so streams are reproducible across runs and
//! platforms. The raw keystream is standard ChaCha8 (see the `rand_chacha`
//! shim); what this crate derives from it is its own and does *not* match
//! upstream `rand`: [`SeedableRng::seed_from_u64`] expands through
//! SplitMix64, and an integer `gen_range` is one `next_u64` through a
//! widening multiply, with no rejection loop — so every ranged draw, and
//! every step of a shuffle, costs exactly one `next_u64` whatever it
//! returns (pinned by `draws_per_call_are_fixed` below).

#![forbid(unsafe_code)]

/// The core of a random number generator: a source of random words.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed material type (a byte array for all workspace generators).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanding it through SplitMix64
    /// so that nearby integer seeds yield unrelated streams.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            for (dst, src) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *dst = src;
            }
        }
        Self::from_seed(seed)
    }
}

/// Types that can be sampled uniformly from a generator's raw output
/// (the shim's equivalent of sampling from `rand`'s `Standard`
/// distribution).
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_uint!(
    u8 => next_u32,
    u16 => next_u32,
    u32 => next_u32,
    u64 => next_u64,
    usize => next_u64,
    i8 => next_u32,
    i16 => next_u32,
    i32 => next_u32,
    i64 => next_u64,
    isize => next_u64,
);

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with a uniform sampler over half-open and inclusive ranges.
pub trait SampleUniform: Sized {
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Draws a uniform value in `[0, span]` (inclusive) using a widening
/// multiply; the bias for spans far below 2^64 is negligible for
/// simulation purposes and the result is fully deterministic.
#[inline]
fn uniform_u64_inclusive<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == u64::MAX {
        return rng.next_u64();
    }
    let bound = span as u128 + 1;
    ((rng.next_u64() as u128 * bound) >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128 - 1) as u64;
                let offset = uniform_u64_inclusive(rng, span);
                (low as i128 + offset as i128) as $t
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u64;
                let offset = uniform_u64_inclusive(rng, span);
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                let v = low + (high - low) * u;
                // Guard against rounding up to the excluded endpoint.
                if v >= high { low } else { v }
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                low + (high - low) * u
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_below(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of an inferred type from the standard distribution
    /// (uniform over the type's range; `[0, 1)` for floats).
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Fills a byte slice with random data.
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Sequence-related helpers (`shuffle`, `choose`).
    use super::{Rng, RngCore};

    /// Extension trait for slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod rngs {
    //! Minimal `rngs` module for API compatibility.
}

pub mod distributions {
    //! Re-exports mirroring `rand::distributions` for code that imports
    //! the `Distribution` trait from `rand` rather than `rand_distr`.
    pub use super::StandardSample;
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    /// A tiny deterministic generator for exercising the trait surface.
    #[derive(Clone)]
    struct XorShift(u64);

    impl RngCore for XorShift {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&word[..n]);
            }
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = XorShift(0x1234_5678_9abc_def0);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let x = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&x));
        }
    }

    #[test]
    fn unit_float_is_half_open() {
        let mut rng = XorShift(42);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = XorShift(7);
        let mut xs: Vec<u32> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// The draw-count contract: a shuffle of `L` elements is `L − 1`
    /// `next_u64`s and a ranged draw is one, whatever the data and whatever
    /// the draw returns. It is what makes the cost of Algorithm 2's random
    /// initialisation a pure function of `|I|` and the attempt count, and
    /// what lets a test replay a consumer's position by counting. ROADMAP
    /// item 9(i) (partial Fisher–Yates: `n` swaps, not `|I|`) changes it on
    /// purpose; this test is then re-stated, not deleted.
    #[test]
    fn draws_per_call_are_fixed() {
        /// The generator `start` becomes after `draws` calls of `next_u64`.
        fn advanced(start: &XorShift, draws: usize) -> XorShift {
            let mut by_hand = start.clone();
            for _ in 0..draws {
                by_hand.next_u64();
            }
            by_hand
        }
        let start = XorShift(0x0dd_ba11);
        for len in [0usize, 1, 2, 3, 16, 50, 257] {
            let shuffles: [Vec<u64>; 3] = [
                (0..len as u64).collect(),
                (0..len as u64).rev().collect(),
                vec![7; len],
            ];
            for mut xs in shuffles {
                let mut rng = start.clone();
                xs.shuffle(&mut rng);
                let want = advanced(&start, len.saturating_sub(1)).next_u64();
                assert_eq!(rng.next_u64(), want, "shuffle of {len}");
            }
        }
        let mut rng = start.clone();
        let _ = rng.gen_range(0usize..3);
        let _ = rng.gen_range(0u64..=u64::MAX);
        let _ = rng.gen_range(-7i32..=7);
        let _ = rng.gen_range(0u8..200);
        let _ = rng.gen_range(0.5f64..2.0);
        let _ = [1, 2, 3].choose(&mut rng);
        assert_eq!(rng.next_u64(), advanced(&start, 6).next_u64());
    }
}
