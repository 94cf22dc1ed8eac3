//! EDF demand bound functions for implicit-deadline periodic tasksets.
//!
//! For a synchronous implicit-deadline periodic taskset
//! T = {(pᵢ, eᵢ)}, the demand bound function under EDF is
//!
//! ```text
//! dbf(t) = Σᵢ ⌊t / pᵢ⌋ · eᵢ
//! ```
//!
//! the maximum execution demand of jobs with both release and deadline
//! inside any window of length `t`. A resource supply `sbf` can feed
//! the taskset iff `dbf(t) ≤ sbf(t)` for all `t > 0`; since `dbf` only
//! increases at multiples of task periods and `sbf` is non-decreasing,
//! it suffices to check `t` at those *checkpoints*.

use std::fmt;

/// Validated demand description of an implicit-deadline periodic
/// taskset.
///
/// Stored structure-of-arrays (`periods[]` / `wcets[]` as parallel
/// slices) so the analysis kernels can stream each array
/// independently: the checkpoint merge walks `periods` alone, the
/// zero-WCET screens walk `wcets` alone, and `dbf` zips both without
/// loading unused halves of `(f64, f64)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    periods: Vec<f64>,
    wcets: Vec<f64>,
    utilization: f64,
    hyperperiod: Option<f64>,
}

/// Error returned by [`Demand::new`] for invalid `(period, wcet)`
/// pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDemandError {
    /// Index of the offending pair.
    pub index: usize,
    /// The offending `(period, wcet)` pair.
    pub pair: (f64, f64),
}

impl fmt::Display for InvalidDemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid (period, wcet) pair {:?} at index {}: both must be finite, period > 0, wcet >= 0",
            self.pair, self.index
        )
    }
}

impl std::error::Error for InvalidDemandError {}

impl Demand {
    /// Builds a demand from `(period, wcet)` pairs (milliseconds).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDemandError`] if any period is not positive and
    /// finite, or any WCET is negative or non-finite. A zero WCET is
    /// allowed (the task contributes no demand).
    pub fn new(tasks: Vec<(f64, f64)>) -> Result<Self, InvalidDemandError> {
        for (index, &pair) in tasks.iter().enumerate() {
            let (p, e) = pair;
            if !p.is_finite() || p <= 0.0 || !e.is_finite() || e < 0.0 {
                return Err(InvalidDemandError { index, pair });
            }
        }
        let utilization = tasks.iter().map(|(p, e)| e / p).sum();
        let hyperperiod = hyperperiod(tasks.iter().map(|&(p, _)| p));
        let (periods, wcets) = tasks.into_iter().unzip();
        Ok(Demand {
            periods,
            wcets,
            utilization,
            hyperperiod,
        })
    }

    /// The task periods, parallel to [`wcets`](Demand::wcets).
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// The task WCETs, parallel to [`periods`](Demand::periods).
    pub fn wcets(&self) -> &[f64] {
        &self.wcets
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// Whether the taskset is empty.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// The `(period, wcet)` pairs, zipped back from the SoA storage.
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.periods.iter().zip(&self.wcets).map(|(&p, &e)| (p, e))
    }

    /// Total utilization Σ eᵢ/pᵢ.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The taskset's hyperperiod (least common multiple of the
    /// periods), if one could be computed with reasonable precision.
    ///
    /// For the harmonic periods used throughout the paper this is just
    /// the maximum period. Returns `None` for an empty taskset or if
    /// the LCM overflows the precision budget (wildly incommensurate
    /// periods).
    pub fn hyperperiod(&self) -> Option<f64> {
        self.hyperperiod
    }

    /// Evaluates `dbf(t)`.
    pub fn dbf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        self.periods
            .iter()
            .zip(&self.wcets)
            .map(|(&p, &e)| ((t / p) + 1e-9).floor() * e)
            .sum()
    }

    /// The sorted, de-duplicated checkpoints (job deadlines) in
    /// `(0, horizon]` at which `dbf` increases.
    ///
    /// A k-way merge over the per-task deadline progressions emits the
    /// points in ascending order directly, with no intermediate
    /// collection and no sort. It matches the naive enumeration
    /// (collect every multiple, sort, de-duplicate) exactly:
    ///
    /// * zero-WCET tasks contribute no deadlines;
    /// * each task's progression `p, p+p, …` uses the same accumulated
    ///   float values the naive loop produces;
    /// * a point within `1e-9` of the last *emitted* point is dropped
    ///   (the `dedup_by` rule).
    ///
    /// Two caps bound the enumeration, and both keep the **earliest**
    /// points when they bite (never a mid-task prefix, which the
    /// historical collect-sort path could produce):
    ///
    /// * at most `max_points` checkpoints are returned;
    /// * each task contributes at most `max_points` deadline multiples.
    ///
    /// So the stream for a shorter horizon is exactly the stream for a
    /// longer one cut at the shorter horizon, which is what lets
    /// [`MinBudgetSolver`](crate::sbf::MinBudgetSolver) serve every
    /// resource period up to the one it was built for from one merge.
    ///
    /// Truncation by either cap is recorded in the thread's
    /// [`kernel::KernelCounters::checkpoints_truncated`][crate::kernel::KernelCounters]
    /// counter, which sweeps export so a bounded enumeration is never
    /// silent. Callers that need completeness should pass a horizon
    /// equal to the hyperperiod, which for the paper's harmonic
    /// tasksets is small.
    pub fn checkpoints(&self, horizon: f64, max_points: usize) -> Vec<f64> {
        // One cursor per task with a pending deadline: the next
        // deadline, the task period, and how many deadlines it yielded.
        let mut next = Vec::new();
        let mut periods = Vec::new();
        let mut yielded = Vec::new();
        for (&p, &e) in self.periods.iter().zip(&self.wcets) {
            if e != 0.0 && p <= horizon + 1e-9 {
                next.push(p);
                periods.push(p);
                yielded.push(0usize);
            }
        }
        let mut points = Vec::new();
        let mut last = f64::NEG_INFINITY;
        let mut truncated = false;
        while !next.is_empty() {
            // Linear min-scan over the cursors: k is the task count,
            // which is the same factor every dbf evaluation already
            // pays, so the merge stays O(k · points) like the work it
            // feeds.
            let mut slot = 0usize;
            for (i, &t) in next.iter().enumerate().skip(1) {
                if t < next[slot] {
                    slot = i;
                }
            }
            let t = next[slot];
            // Advance or retire the cursor, replicating the naive
            // loop's accumulated `t += p` values bit for bit.
            yielded[slot] += 1;
            let next_t = t + periods[slot];
            let retire = if yielded[slot] >= max_points {
                // The per-task cap dropped in-horizon deadlines.
                truncated |= next_t <= horizon + 1e-9;
                true
            } else {
                next_t > horizon + 1e-9
            };
            if retire {
                next.swap_remove(slot);
                periods.swap_remove(slot);
                yielded.swap_remove(slot);
            } else {
                next[slot] = next_t;
            }
            // De-duplicate against the last emitted point (the naive
            // `dedup_by(|a, b| (a - b).abs() < 1e-9)` keeps the first
            // of each cluster; the stream is ascending, so comparing
            // against the last emitted value is the same rule).
            if (t - last).abs() < 1e-9 {
                continue;
            }
            if points.len() == max_points {
                truncated = true; // an emittable point exists beyond the cap
                break;
            }
            last = t;
            points.push(t);
        }
        crate::kernel::tick(|c| {
            c.checkpoint_merges += 1;
            c.checkpoints_emitted += points.len() as u64;
            c.checkpoints_truncated += u64::from(truncated);
        });
        points
    }
}

/// Least common multiple of a set of positive periods, computed by
/// scaling to integer nanoseconds. Returns `None` if empty or if the
/// LCM exceeds 10¹² ns (1000 s of simulated time) — beyond that the
/// periods are effectively incommensurate and checkpoint enumeration
/// over a hyperperiod is useless; callers fall back to a bounded
/// horizon. (The cap is only checked when combining periods: a single
/// period is returned as-is, since it is its own — trivially
/// enumerable — hyperperiod.)
pub fn hyperperiod(periods: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut acc: Option<u128> = None;
    for p in periods {
        let ns = (p * 1e6).round() as u128;
        if ns == 0 {
            return None;
        }
        acc = Some(match acc {
            None => ns,
            Some(a) => {
                let l = lcm(a, ns);
                if l > 1_000_000_000_000 {
                    return None;
                }
                l
            }
        });
    }
    acc.map(|ns| ns as f64 / 1e6)
}

/// Iterative Euclid — constant stack depth regardless of how long the
/// remainder chain is (adversarial near-Fibonacci inputs recurse ~90
/// deep in the naive version; harmless for u128 but pointless).
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

fn lcm(a: u128, b: u128) -> u128 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Demand::new(vec![(10.0, 1.0)]).is_ok());
        assert!(Demand::new(vec![(0.0, 1.0)]).is_err());
        assert!(Demand::new(vec![(10.0, -1.0)]).is_err());
        assert!(Demand::new(vec![(f64::NAN, 1.0)]).is_err());
        assert!(Demand::new(vec![(10.0, 0.0)]).is_ok(), "zero wcet allowed");
        assert!(Demand::new(vec![]).is_ok(), "empty taskset allowed");
    }

    #[test]
    fn soa_accessors_agree() {
        let d = Demand::new(vec![(10.0, 1.0), (20.0, 4.0)]).unwrap();
        assert_eq!(d.periods(), &[10.0, 20.0]);
        assert_eq!(d.wcets(), &[1.0, 4.0]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.pairs().collect::<Vec<_>>(), vec![(10.0, 1.0), (20.0, 4.0)]);
        assert!(Demand::new(vec![]).unwrap().is_empty());
    }

    #[test]
    fn dbf_single_task() {
        let d = Demand::new(vec![(10.0, 2.0)]).unwrap();
        assert_eq!(d.dbf(0.0), 0.0);
        assert_eq!(d.dbf(9.9), 0.0);
        assert_eq!(d.dbf(10.0), 2.0);
        assert_eq!(d.dbf(19.9), 2.0);
        assert_eq!(d.dbf(20.0), 4.0);
        assert_eq!(d.dbf(100.0), 20.0);
    }

    #[test]
    fn dbf_multiple_tasks() {
        let d = Demand::new(vec![(10.0, 1.0), (20.0, 4.0)]).unwrap();
        assert_eq!(d.dbf(10.0), 1.0);
        assert_eq!(d.dbf(20.0), 2.0 + 4.0);
        assert_eq!(d.dbf(40.0), 4.0 + 8.0);
        assert!((d.utilization() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dbf_is_monotone() {
        let d = Demand::new(vec![(3.0, 1.0), (7.0, 2.0)]).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let t = i as f64 * 0.37;
            let v = d.dbf(t);
            assert!(v >= prev, "dbf must be non-decreasing");
            prev = v;
        }
    }

    #[test]
    fn checkpoints_are_deadlines() {
        let d = Demand::new(vec![(10.0, 1.0), (20.0, 4.0)]).unwrap();
        let cps = d.checkpoints(40.0, 100);
        assert_eq!(cps, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn checkpoints_skip_zero_wcet_tasks() {
        let d = Demand::new(vec![(10.0, 0.0), (20.0, 4.0)]).unwrap();
        assert_eq!(d.checkpoints(40.0, 100), vec![20.0, 40.0]);
    }

    #[test]
    fn checkpoints_respect_cap() {
        let d = Demand::new(vec![(1.0, 0.1)]).unwrap();
        assert_eq!(d.checkpoints(1e6, 50).len(), 50);
    }

    #[test]
    fn checkpoints_keep_earliest_points_across_tasks() {
        // The historical enumeration broke out of the *current task's*
        // loop once 4 × max_points raw entries were collected, so a
        // later task contributed only its first deadline and its early
        // multiples (here 7.5, 12.5, …) vanished from the truncated
        // result. The merge keeps the globally earliest points.
        let d = Demand::new(vec![(1.0, 0.1), (2.5, 0.1)]).unwrap();
        let cps = d.checkpoints(1e6, 50);
        assert_eq!(cps.len(), 50);
        for needle in [2.5, 7.5, 12.5, 17.5] {
            assert!(
                cps.iter().any(|&t| (t - needle).abs() < 1e-9),
                "expected early deadline {needle} in {cps:?}"
            );
        }
        let mut sorted = cps.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(cps, sorted, "merge must emit in ascending order");
    }

    #[test]
    fn hyperperiod_harmonic_is_max() {
        assert_eq!(hyperperiod([100.0, 200.0, 400.0]), Some(400.0));
        let d = Demand::new(vec![(100.0, 1.0), (400.0, 1.0)]).unwrap();
        assert_eq!(d.hyperperiod(), Some(400.0));
    }

    #[test]
    fn hyperperiod_non_harmonic() {
        assert_eq!(hyperperiod([4.0, 6.0]), Some(12.0));
        assert_eq!(hyperperiod(std::iter::empty::<f64>()), None);
    }

    #[test]
    fn hyperperiod_respects_lcm_overflow_boundary() {
        // lcm(1e6 ms, 2e5 ms) = 1e6 ms = exactly 1e12 ns: at the cap,
        // still representable.
        assert_eq!(hyperperiod([1_000_000.0, 200_000.0]), Some(1_000_000.0));
        // lcm(1e6 ms, 3e5 ms) = 3e6 ms = 3e12 ns: one combination past
        // the cap, rejected.
        assert_eq!(hyperperiod([1_000_000.0, 300_000.0]), None);
        // Sub-nanosecond period rounds to 0 ns: not representable.
        assert_eq!(hyperperiod([4.0e-7]), None);
        // Adjacent Fibonacci numbers (as ns) drive Euclid through its
        // longest remainder chain; the iterative gcd handles it and the
        // LCM is their product (gcd = 1), under the cap.
        assert_eq!(
            hyperperiod([0.514229, 0.832040]),
            Some(514_229.0 * 832_040.0 / 1e6)
        );
    }

    #[test]
    fn dbf_at_checkpoints_increases() {
        let d = Demand::new(vec![(10.0, 1.0), (20.0, 4.0)]).unwrap();
        let cps = d.checkpoints(40.0, 100);
        let mut prev = 0.0;
        for &t in &cps {
            let v = d.dbf(t);
            assert!(v > prev, "dbf must strictly increase at checkpoints");
            prev = v;
        }
    }
}
