//! Parametric PARSEC-style benchmark execution profiles.

use vc2m_rng::Rng;
use std::fmt;
use vc2m_model::{Alloc, ResourceSpace, Surface};

/// The thirteen PARSEC benchmarks used as task workloads in the
/// paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ParsecBenchmark {
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Facesim,
    Ferret,
    Fluidanimate,
    Freqmine,
    Raytrace,
    Streamcluster,
    Swaptions,
    Vips,
    X264,
}

impl ParsecBenchmark {
    /// All benchmarks, in suite order.
    pub const ALL: [ParsecBenchmark; 13] = [
        ParsecBenchmark::Blackscholes,
        ParsecBenchmark::Bodytrack,
        ParsecBenchmark::Canneal,
        ParsecBenchmark::Dedup,
        ParsecBenchmark::Facesim,
        ParsecBenchmark::Ferret,
        ParsecBenchmark::Fluidanimate,
        ParsecBenchmark::Freqmine,
        ParsecBenchmark::Raytrace,
        ParsecBenchmark::Streamcluster,
        ParsecBenchmark::Swaptions,
        ParsecBenchmark::Vips,
        ParsecBenchmark::X264,
    ];

    /// The benchmark's position in [`ParsecBenchmark::ALL`]: the
    /// declaration order of the fieldless enum, which `ALL` lists in
    /// the same order (pinned by `index_is_position_in_all`).
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// The benchmark's lowercase suite name.
    pub fn name(self) -> &'static str {
        match self {
            ParsecBenchmark::Blackscholes => "blackscholes",
            ParsecBenchmark::Bodytrack => "bodytrack",
            ParsecBenchmark::Canneal => "canneal",
            ParsecBenchmark::Dedup => "dedup",
            ParsecBenchmark::Facesim => "facesim",
            ParsecBenchmark::Ferret => "ferret",
            ParsecBenchmark::Fluidanimate => "fluidanimate",
            ParsecBenchmark::Freqmine => "freqmine",
            ParsecBenchmark::Raytrace => "raytrace",
            ParsecBenchmark::Streamcluster => "streamcluster",
            ParsecBenchmark::Swaptions => "swaptions",
            ParsecBenchmark::Vips => "vips",
            ParsecBenchmark::X264 => "x264",
        }
    }

    /// The calibrated execution profile of this benchmark.
    ///
    /// Calibration rationale (all values are model parameters of the
    /// substitution documented in `DESIGN.md`, not measurements):
    /// memory intensity and working-set size follow the qualitative
    /// PARSEC characterization literature — `canneal` and
    /// `streamcluster` are strongly memory-bound with large working
    /// sets; `swaptions` and `blackscholes` are compute-bound and
    /// almost insensitive to cache/bandwidth; the rest fall in
    /// between.
    pub fn profile(self) -> BenchmarkProfile {
        // (memory_intensity, working_set_partitions, miss_steepness,
        //  miss_gain, bw_sensitivity)
        //
        // Calibrated to reproduce the evaluation's shape. Three facts
        // about the surfaces drive the five solutions apart:
        //
        // * maximum slowdowns (the cache-starved, bandwidth-starved
        //   corner standing in for "cache disabled, worst-case BW")
        //   span ≈2× (swaptions) to ≈10× (canneal) — this is what the
        //   Baseline provisions for, breaking it early;
        // * miss curves are *linear* in the cache deficit with large
        //   gains (θ = 1, κ up to 5.5): a quarter of the cache is not
        //   much better than the minimum, so the Evenly-partition
        //   split stays expensive (≈2.5× weighted at C/M partitions);
        // * covering most of a benchmark's working set recovers nearly
        //   all of the loss, which is exactly the skew vC²M's
        //   marginal-utility allocation exploits.
        let (mu, ws, theta, kappa, lambda) = match self {
            ParsecBenchmark::Blackscholes => (0.48, 8.0, 1.0, 3.0, 0.030),
            ParsecBenchmark::Bodytrack => (0.65, 9.0, 1.0, 4.0, 0.040),
            ParsecBenchmark::Canneal => (0.87, 20.0, 1.0, 6.0, 0.060),
            ParsecBenchmark::Dedup => (0.76, 11.0, 1.0, 5.0, 0.050),
            ParsecBenchmark::Facesim => (0.82, 18.0, 1.0, 5.6, 0.055),
            ParsecBenchmark::Ferret => (0.72, 10.0, 1.0, 4.6, 0.045),
            ParsecBenchmark::Fluidanimate => (0.80, 16.0, 1.0, 5.4, 0.055),
            ParsecBenchmark::Freqmine => (0.70, 10.0, 1.0, 4.4, 0.045),
            ParsecBenchmark::Raytrace => (0.60, 8.0, 1.0, 3.6, 0.035),
            ParsecBenchmark::Streamcluster => (0.85, 19.0, 1.0, 5.8, 0.060),
            ParsecBenchmark::Swaptions => (0.45, 8.0, 1.0, 2.8, 0.030),
            ParsecBenchmark::Vips => (0.68, 9.0, 1.0, 4.2, 0.040),
            ParsecBenchmark::X264 => (0.74, 10.0, 1.0, 4.8, 0.050),
        };
        BenchmarkProfile::new(self.name(), mu, ws, theta, kappa, lambda)
    }

    /// Picks a benchmark uniformly at random, as the paper's generator
    /// does for each task.
    pub fn sample<R: Rng>(rng: &mut R) -> ParsecBenchmark {
        Self::ALL[rng.gen_range(0..Self::ALL.len())]
    }
}

impl fmt::Display for ParsecBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parametric execution profile: how a benchmark's execution time
/// scales with its core's cache and bandwidth allocation.
///
/// The model splits execution into a compute part `(1 − μ)` that is
/// allocation-independent, and a memory part `μ` that scales with
///
/// * a **miss factor** `m(c) = 1 + κ·max(0, (w − c)/w)^θ` — misses grow
///   as the allocation `c` drops below the working set `w`, and
/// * a **stall factor** `f(b) = 1 + λ·(B/b − 1)` — each miss stalls
///   longer when bandwidth `b` shrinks below the full `B`.
///
/// The slowdown is `s(c, b) = (1 − μ) + μ·m(c)·f(b)`, normalized so
/// that `s(C, B) = 1` exactly (m(C) = 1 requires `w ≤ C`; profiles with
/// `w > C` are clamped at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    name: &'static str,
    memory_intensity: f64,
    working_set: f64,
    miss_steepness: f64,
    miss_gain: f64,
    bw_sensitivity: f64,
}

impl BenchmarkProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `memory_intensity` is outside `[0, 1]`, any other
    /// parameter is negative or non-finite, or the slowdown could
    /// overflow `f64` on some resource space (the miss factor is at
    /// most `1 + miss_gain` and the stall factor at most
    /// `1 + bw_sensitivity·(u32::MAX − 1)`).
    pub fn new(
        name: &'static str,
        memory_intensity: f64,
        working_set: f64,
        miss_steepness: f64,
        miss_gain: f64,
        bw_sensitivity: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&memory_intensity),
            "memory intensity must be in [0, 1], got {memory_intensity}"
        );
        for (what, v) in [
            ("working_set", working_set),
            ("miss_steepness", miss_steepness),
            ("miss_gain", miss_gain),
            ("bw_sensitivity", bw_sensitivity),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{what} must be non-negative and finite, got {v}"
            );
        }
        let worst = (1.0 + miss_gain) * (1.0 + bw_sensitivity * (f64::from(u32::MAX) - 1.0));
        assert!(
            worst.is_finite(),
            "miss_gain {miss_gain} and bw_sensitivity {bw_sensitivity} overflow the slowdown"
        );
        BenchmarkProfile {
            name,
            memory_intensity,
            working_set,
            miss_steepness,
            miss_gain,
            bw_sensitivity,
        }
    }

    /// The profile's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fraction of execution time that is memory-bound at the
    /// reference allocation.
    pub fn memory_intensity(&self) -> f64 {
        self.memory_intensity
    }

    /// Slowdown at a single allocation within `space`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` lies outside `space`.
    // Audited panic: the documented contract above; within the crate
    // every caller passes a cell of `space.iter()`.
    #[allow(clippy::panic)]
    pub fn slowdown_at(&self, space: &ResourceSpace, alloc: Alloc) -> f64 {
        space
            .check(alloc)
            .unwrap_or_else(|e| panic!("slowdown_at: {e}"));
        let w = self.working_set.min(f64::from(space.cache_max()));
        let deficit = ((w - f64::from(alloc.cache)) / w).max(0.0);
        // Every calibrated profile has a linear miss curve, and
        // `pow(x, 1)` is exactly `x` in both glibc and fdlibm, so the
        // libm call is skipped without changing a bit (pinned by
        // `linear_miss_curve_skips_powf_bitwise`).
        let shaped = if self.miss_steepness == 1.0 {
            deficit
        } else {
            deficit.powf(self.miss_steepness)
        };
        let miss_factor = 1.0 + self.miss_gain * shaped;
        let bw_ratio = f64::from(space.bw_max()) / f64::from(alloc.bandwidth);
        let stall_factor = 1.0 + self.bw_sensitivity * (bw_ratio - 1.0);
        (1.0 - self.memory_intensity) + self.memory_intensity * miss_factor * stall_factor
    }

    /// The full slowdown surface over `space`, normalized so the
    /// reference cell is exactly 1.
    // Audited expect: every cell is `(1 − μ) + μ·m·f` with μ ∈ [0, 1]
    // and both factors ≥ 1, so at least 1; `new` refuses parameters
    // whose largest possible cell overflows, so every cell is finite.
    #[allow(clippy::expect_used)]
    pub fn slowdown_surface(&self, space: &ResourceSpace) -> Surface {
        Surface::from_fn(space, |alloc| self.slowdown_at(space, alloc))
            .expect("parametric slowdowns are positive and finite")
    }

    /// A *measured* slowdown surface: the model surface perturbed by
    /// multiplicative noise (standard deviation `sigma` per cell,
    /// mimicking the paper's max-of-25-runs measurement), then
    /// re-normalized so the reference cell is 1.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite, or so large that a
    /// noisy cell overflows `f64`.
    // Audited expect: the noise factor is floored at 0.01 and every
    // model cell is finite and at least 1, so each noisy cell is
    // positive; it is finite unless `sigma` overflows it, the panic
    // documented above.
    #[allow(clippy::expect_used)]
    pub fn measured_surface<R: Rng>(
        &self,
        space: &ResourceSpace,
        rng: &mut R,
        sigma: f64,
    ) -> Surface {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise sigma must be non-negative, got {sigma}"
        );
        let noisy = Surface::from_fn(space, |alloc| {
            let noise: f64 = 1.0 + sigma * (rng.gen_f64() - 0.5) * 2.0;
            self.slowdown_at(space, alloc) * noise.max(0.01)
        })
        .expect("noisy slowdowns remain positive");
        let reference = noisy.reference();
        noisy.scaled(1.0 / reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_rng::DetRng;

    fn space() -> ResourceSpace {
        ResourceSpace::new(2, 20, 1, 20).unwrap()
    }

    #[test]
    fn all_profiles_normalize_to_one_at_reference() {
        let space = space();
        for bench in ParsecBenchmark::ALL {
            let s = bench.profile().slowdown_surface(&space);
            assert!(
                (s.reference() - 1.0).abs() < 1e-12,
                "{bench}: reference slowdown {}",
                s.reference()
            );
        }
    }

    #[test]
    fn all_profiles_are_monotone() {
        let space = space();
        for bench in ParsecBenchmark::ALL {
            let s = bench.profile().slowdown_surface(&space);
            assert!(
                s.is_monotone_non_increasing(),
                "{bench}: slowdown surface must not increase with resources"
            );
        }
    }

    #[test]
    fn max_slowdowns_span_calibrated_range() {
        let space = space();
        let mut max_seen = 0.0f64;
        let mut min_seen = f64::INFINITY;
        for bench in ParsecBenchmark::ALL {
            let m = bench.profile().slowdown_surface(&space).max_slowdown();
            assert!(m >= 1.0, "{bench}");
            max_seen = max_seen.max(m);
            min_seen = min_seen.min(m);
        }
        assert!(
            min_seen > 1.5 && min_seen < 4.0,
            "compute-bound end: {min_seen}"
        );
        assert!(
            max_seen > 8.0 && max_seen < 16.0,
            "memory-bound end: {max_seen}"
        );
    }

    #[test]
    fn memory_bound_benchmarks_slow_down_more() {
        let space = space();
        let canneal = ParsecBenchmark::Canneal.profile().slowdown_surface(&space);
        let swaptions = ParsecBenchmark::Swaptions
            .profile()
            .slowdown_surface(&space);
        assert!(canneal.max_slowdown() > 2.0 * swaptions.max_slowdown());
    }

    #[test]
    fn cache_only_vs_bandwidth_only_effects() {
        let space = space();
        let p = ParsecBenchmark::Streamcluster.profile();
        let full_cache_low_bw = p.slowdown_at(&space, Alloc::new(20, 1));
        let low_cache_full_bw = p.slowdown_at(&space, Alloc::new(2, 20));
        assert!(full_cache_low_bw > 1.0);
        assert!(low_cache_full_bw > 1.0);
        // Combined deprivation is worse than either alone.
        let both = p.slowdown_at(&space, Alloc::new(2, 1));
        assert!(both > full_cache_low_bw && both > low_cache_full_bw);
    }

    #[test]
    fn small_working_set_saturates() {
        // Once c covers the working set, more cache gives nothing.
        let space = space();
        let p = ParsecBenchmark::Swaptions.profile(); // working set 8
        let at_8 = p.slowdown_at(&space, Alloc::new(8, 20));
        let at_20 = p.slowdown_at(&space, Alloc::new(20, 20));
        assert!((at_8 - at_20).abs() < 1e-12);
        // Below the working set the slowdown strictly grows.
        let at_4 = p.slowdown_at(&space, Alloc::new(4, 20));
        assert!(at_4 > at_8);
    }

    #[test]
    fn names_and_sampling() {
        assert_eq!(ParsecBenchmark::Canneal.to_string(), "canneal");
        assert_eq!(ParsecBenchmark::ALL.len(), 13);
        let mut rng = DetRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(ParsecBenchmark::sample(&mut rng));
        }
        assert_eq!(seen.len(), 13, "uniform sampling should hit all benchmarks");
    }

    #[test]
    fn measured_surface_is_normalized_and_noisy() {
        let space = space();
        let mut rng = DetRng::seed_from_u64(1);
        let p = ParsecBenchmark::Ferret.profile();
        let clean = p.slowdown_surface(&space);
        let noisy = p.measured_surface(&space, &mut rng, 0.05);
        assert!((noisy.reference() - 1.0).abs() < 1e-12);
        let differs = clean
            .iter()
            .zip(noisy.iter())
            .any(|((_, a), (_, b))| (a - b).abs() > 1e-6);
        assert!(differs, "noise must actually perturb the surface");
    }

    #[test]
    fn zero_noise_measured_equals_model() {
        let space = space();
        let mut rng = DetRng::seed_from_u64(1);
        let p = ParsecBenchmark::Vips.profile();
        let clean = p.slowdown_surface(&space);
        let measured = p.measured_surface(&space, &mut rng, 0.0);
        for ((_, a), (_, b)) in clean.iter().zip(measured.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_miss_curve_skips_powf_bitwise() {
        use vc2m_model::Platform;
        for platform in [Platform::platform_a(), Platform::platform_b(), Platform::platform_c()] {
            let space = platform.resources();
            for bench in ParsecBenchmark::ALL {
                let p = bench.profile();
                assert_eq!(p.miss_steepness, 1.0, "{bench}");
                let surface = p.slowdown_surface(&space);
                for (alloc, fast) in surface.iter() {
                    // The formula as written before the linear shortcut.
                    let w = p.working_set.min(f64::from(space.cache_max()));
                    let deficit = ((w - f64::from(alloc.cache)) / w).max(0.0);
                    let miss_factor = 1.0 + p.miss_gain * deficit.powf(p.miss_steepness);
                    let bw_ratio = f64::from(space.bw_max()) / f64::from(alloc.bandwidth);
                    let stall_factor = 1.0 + p.bw_sensitivity * (bw_ratio - 1.0);
                    let powf = (1.0 - p.memory_intensity)
                        + p.memory_intensity * miss_factor * stall_factor;
                    assert_eq!(fast.to_bits(), powf.to_bits(), "{bench} at {alloc}");
                }
            }
        }
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, bench) in ParsecBenchmark::ALL.into_iter().enumerate() {
            assert_eq!(bench.index(), i, "{bench}");
        }
    }

    #[test]
    #[should_panic(expected = "overflow the slowdown")]
    fn overflowing_parameters_rejected() {
        let _ = BenchmarkProfile::new("huge", 0.5, 4.0, 1.0, 1e300, 1e300);
    }

    #[test]
    #[should_panic(expected = "memory intensity")]
    fn invalid_intensity_rejected() {
        let _ = BenchmarkProfile::new("bad", 1.5, 4.0, 1.0, 1.0, 0.1);
    }
}
