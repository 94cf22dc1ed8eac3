//! In-tree deterministic randomness for the vC²M workspace.
//!
//! The whole repository must build and test **offline**: no registry
//! crates, no network. This crate replaces `rand`/`rand_chacha` with a
//! minimal, fully deterministic substitute, and `proptest` with a
//! seeded case-generation harness ([`cases`]).
//!
//! * [`Rng`] — the trait every randomized algorithm in the workspace
//!   is generic over: raw `u64`s, uniform integer/float ranges,
//!   Bernoulli draws and Fisher–Yates shuffles.
//! * [`DetRng`] — the one concrete generator: xoshiro256++ seeded via
//!   SplitMix64 from a single `u64`. Same seed ⇒ same stream, on every
//!   platform, forever (golden-value tests pin the stream).
//! * [`cases`] — the property-test harness: a fixed base seed fans out
//!   into per-case seeds; a panicking case reports its seed so it can
//!   be replayed in isolation.
//!
//! # Determinism policy
//!
//! Every experiment, workload and allocation in this workspace is a
//! pure function of its inputs and one `u64` seed. Nothing reads the
//! OS entropy pool or the clock; reruns of any figure, table or test
//! reproduce bit-identical results.
//!
//! # Example
//!
//! ```
//! use vc2m_rng::{DetRng, Rng};
//!
//! let mut rng = DetRng::seed_from_u64(42);
//! let die = rng.gen_range(1u32..=6);
//! assert!((1..=6).contains(&die));
//! let p = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&p));
//! let mut order = vec![0, 1, 2, 3];
//! rng.shuffle(&mut order);
//! assert_eq!(DetRng::seed_from_u64(7).next_u64(), DetRng::seed_from_u64(7).next_u64());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cases;

use std::ops::{Range, RangeInclusive};

/// A source of deterministic pseudo-randomness.
///
/// Only [`Rng::next_u64`] is required; everything else derives from
/// it, so any implementor produces consistent distributions.
pub trait Rng {
    /// The next raw 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next raw 32 uniformly random bits (upper half of a `u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // 53 mantissa bits scaled by 2^-53: dense, unbiased, never 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1], got {p}"
        );
        self.gen_f64() < p
    }

    /// A uniform draw from `range` (integer or float, half-open or
    /// inclusive — see [`SampleRange`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (or, for floats, not finite).
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Shuffles `slice` in place (Fisher–Yates, unbiased).
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = uniform_u64(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Uniform integer in `[0, span)` by Lemire's widening-multiply
/// method with rejection: exactly uniform, no modulo bias.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(span);
        let low = m as u64;
        if low < span {
            // Reject the short leading zone so every value keeps an
            // equal number of preimages.
            let threshold = span.wrapping_neg() % span;
            if low < threshold {
                continue;
            }
        }
        return (m >> 64) as u64;
    }
}

/// A range [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced.
    type Output;

    /// Draws one uniform sample.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {start}..={end}");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u32, u64, usize);

fn f64_range_sample<R: Rng + ?Sized>(rng: &mut R, start: f64, end: f64) -> f64 {
    // Lerp keeps the draw inside [start, end] even under rounding.
    let u = rng.gen_f64();
    start * (1.0 - u) + end * u
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start.is_finite() && self.end.is_finite() && self.start < self.end,
            "invalid f64 range {}..{}",
            self.start,
            self.end
        );
        let v = f64_range_sample(rng, self.start, self.end);
        // gen_f64() < 1 keeps v < end mathematically; guard the
        // half-open contract against upward rounding anyway.
        if v >= self.end {
            self.end.next_down()
        } else {
            v
        }
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(
            start.is_finite() && end.is_finite() && start <= end,
            "invalid f64 range {start}..={end}"
        );
        f64_range_sample(rng, start, end)
    }
}

/// SplitMix64: the seed expander recommended by the xoshiro authors.
///
/// Used to turn one `u64` into the four words of [`DetRng`] state (and
/// by the [`cases`] harness to derive per-case seeds). Passes through
/// every 64-bit input exactly once per period, so distinct seeds give
/// uncorrelated xoshiro states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's deterministic generator: **xoshiro256++**
/// (Blackman & Vigna), seeded from a single `u64` via [`SplitMix64`].
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; more than
/// enough statistical quality for workload synthesis, k-means
/// initialization and measurement-noise modeling, at a fraction of the
/// cost of a cryptographic stream cipher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = sm.next_u64();
        }
        // SplitMix64 output is never all-zero across four consecutive
        // draws, but keep the generator total anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s }
    }

    /// Creates a generator from raw state words.
    ///
    /// # Panics
    ///
    /// Panics if all four words are zero (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "the all-zero state is forbidden");
        DetRng { s }
    }
}

impl Rng for DetRng {
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // The xoshiro256++ reference implementation (Blackman & Vigna,
        // prng.di.unimi.it) produces this stream from state [1, 2, 3, 4].
        let mut rng = DetRng::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "draw {i}");
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // SplitMix64 reference stream for seed 1234567
        // (cross-checked against the public-domain C implementation).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn seeding_golden_stream() {
        // Pins the full SplitMix64 → xoshiro256++ seeding path: these
        // values must never change, or every seeded experiment in the
        // workspace silently re-rolls.
        let mut rng = DetRng::seed_from_u64(42);
        assert_eq!(rng.next_u64(), 15021278609987233951);
        assert_eq!(rng.next_u64(), 5881210131331364753);
        assert_eq!(rng.next_u64(), 18149643915985481100);
        assert_eq!(rng.next_u64(), 12933668939759105464);
        let mut rng = DetRng::seed_from_u64(42);
        assert!((rng.gen_f64() - 0.814_305_145_122_909_9).abs() < 1e-16);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(0xDAC_2019);
        let mut b = DetRng::seed_from_u64(0xDAC_2019);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::seed_from_u64(0xDAC_2020);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut clone = rng.clone();
        fn take_generic<R: Rng>(mut r: R) -> u64 {
            r.next_u64()
        }
        assert_eq!(take_generic(&mut rng), clone.next_u64());
    }

    #[test]
    fn lemire_rejection_is_exactly_uniform_on_tiny_spans() {
        // With span 3, over many draws each value appears ~1/3 of the
        // time; the rejection step removes the modulo bias entirely,
        // but here we only check coverage and range.
        let mut rng = DetRng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            counts[uniform_u64(&mut rng, 3) as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!(c > 800, "value {v} drawn only {c}/3000 times");
        }
    }

    #[test]
    fn inclusive_integer_range_hits_both_ends() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(1u32..=6) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn f64_ranges_respect_bounds() {
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.gen_range(2.5..3.5);
            assert!((2.5..3.5).contains(&v));
            let w = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&w));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        let mut rng = DetRng::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_bernoulli_panics() {
        let mut rng = DetRng::seed_from_u64(1);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut rng = DetRng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
