//! Periodic resource model: supply bound function and minimal budgets.
//!
//! This module implements the "existing compositional scheduling
//! analysis" the paper uses as its baseline (reference \[13\]: Shin &
//! Lee, *Periodic Resource Model for Compositional Real-Time
//! Guarantees*, RTSS 2003).
//!
//! A periodic resource Γ = (Π, Θ) supplies Θ units of execution every
//! period Π, in the worst case as late as possible. Its supply bound
//! function — the minimum supply in any window of length `t` — is
//!
//! ```text
//! sbf(t) = 0                                        if t ≤ Π − Θ
//!        = k·Θ + max(0, t' − k·Π − (Π − Θ))         otherwise,
//!   where t' = t − (Π − Θ), k = ⌊t' / Π⌋
//! ```
//!
//! A taskset with demand `dbf` is EDF-schedulable on Γ iff
//! `dbf(t) ≤ sbf(t)` at every checkpoint `t`. [`min_budget`] inverts
//! this: the smallest Θ making a given demand schedulable on a
//! period-Π resource — the quantity whose inflation over the taskset
//! utilization is the *abstraction overhead* vC²M eliminates.

use crate::dbf::{Demand, InvalidDemandError};
use crate::kernel::{analysis_horizon, base_horizon, horizon_at, tick, MAX_CHECKPOINTS};
use std::cell::RefCell;
use std::fmt;

/// A periodic resource Γ = (Π, Θ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicResource {
    period: f64,
    budget: f64,
}

impl PeriodicResource {
    /// Creates a periodic resource with the given period and budget
    /// (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive and finite, or the budget
    /// is negative, non-finite, or exceeds the period.
    pub fn new(period: f64, budget: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "resource period must be positive and finite, got {period}"
        );
        assert!(
            budget.is_finite() && (0.0..=period).contains(&budget),
            "resource budget must lie in [0, period], got {budget} (period {period})"
        );
        PeriodicResource { period, budget }
    }

    /// The resource period Π.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The resource budget Θ.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The resource bandwidth Θ/Π.
    pub fn bandwidth(&self) -> f64 {
        self.budget / self.period
    }

    /// Evaluates the supply bound function at `t`.
    pub fn sbf(&self, t: f64) -> f64 {
        let blackout = self.period - self.budget;
        if t <= blackout || self.budget == 0.0 {
            return 0.0;
        }
        let t_eff = t - blackout;
        let k = (t_eff / self.period + 1e-12).floor();
        let supplied = k * self.budget;
        let partial = (t_eff - k * self.period - blackout).max(0.0);
        supplied + partial.min(self.budget)
    }

    /// The linear lower bound on the supply:
    /// `lsbf(t) = (Θ/Π)·(t − 2(Π − Θ))`, clamped at zero. Useful for
    /// quick infeasibility screening.
    pub fn lsbf(&self, t: f64) -> f64 {
        (self.bandwidth() * (t - 2.0 * (self.period - self.budget))).max(0.0)
    }

    /// Whether `demand` is EDF-schedulable on this resource.
    ///
    /// Checks `dbf(t) ≤ sbf(t)` at every deadline checkpoint up to the
    /// demand's hyperperiod (or a capped horizon if the hyperperiod is
    /// unavailable), plus the long-run bandwidth condition
    /// `U ≤ Θ/Π`, which extends the checkpoint argument beyond the
    /// horizon when the resource period divides the hyperperiod (true
    /// for the harmonic workloads of the paper, where Π is chosen as
    /// the minimum task period).
    pub fn can_schedule(&self, demand: &Demand) -> bool {
        if demand.utilization() > self.bandwidth() + 1e-12 {
            return false;
        }
        let horizon = analysis_horizon(demand, self.period);
        for t in demand.checkpoints(horizon, MAX_CHECKPOINTS) {
            if demand.dbf(t) > self.sbf(t) + 1e-9 {
                return false;
            }
        }
        true
    }
}

/// Computes the minimal budget Θ such that `demand` is
/// EDF-schedulable on a periodic resource with period `period`.
///
/// Returns `None` if even Θ = Π (a dedicated processor) cannot
/// schedule the demand.
///
/// The feasible set of budgets is upward-closed (more supply never
/// hurts), so a binary search on the schedulability predicate is exact
/// up to the `1e-7` ms tolerance used here.
///
/// # Panics
///
/// Panics if `period` is not positive and finite.
pub fn min_budget(demand: &Demand, period: f64) -> Option<f64> {
    assert!(
        period.is_finite() && period > 0.0,
        "resource period must be positive and finite, got {period}"
    );
    if demand.wcets().iter().all(|&e| e == 0.0) {
        return Some(0.0);
    }
    // Precompute the checkpoints and the demand at each one — they do
    // not depend on the candidate budget, and the binary search below
    // evaluates the predicate dozens of times.
    let horizon = analysis_horizon(demand, period);
    let points = demand.checkpoints(horizon, MAX_CHECKPOINTS);
    let demands: Vec<f64> = points.iter().map(|&t| demand.dbf(t)).collect();
    let feasible = |theta: f64| {
        if demand.utilization() > theta / period + 1e-12 {
            return false;
        }
        let resource = PeriodicResource::new(period, theta);
        points
            .iter()
            .zip(&demands)
            .all(|(&t, &d)| d <= resource.sbf(t) + 1e-9)
    };
    if !feasible(period) {
        return None;
    }
    // Lower bound: bandwidth at least the utilization.
    let mut lo = (demand.utilization() * period).min(period);
    if feasible(lo) {
        return Some(lo);
    }
    let mut hi = period;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    Some(hi)
}

/// Error returned by [`MinBudgetSolver`] for inputs outside its
/// domain.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A task period that is not positive and finite, or a WCET that
    /// is negative or not finite.
    Demand(InvalidDemandError),
    /// A resource period that is not positive and finite, or, for a
    /// search, exceeds the period the solver was built for.
    Period(f64),
    /// A WCET vector whose length differs from the solver's period
    /// vector.
    Arity {
        /// The number of periods the solver was built for.
        expected: usize,
        /// The number of WCETs given.
        got: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Demand(e) => e.fmt(f),
            SolverError::Period(period) => write!(
                f,
                "resource period must be positive, finite and at most the solver's, got {period}"
            ),
            SolverError::Arity { expected, got } => {
                write!(f, "expected {expected} WCETs, one per period, got {got}")
            }
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Demand(e) => Some(e),
            SolverError::Period(_) | SolverError::Arity { .. } => None,
        }
    }
}

impl From<InvalidDemandError> for SolverError {
    fn from(e: InvalidDemandError) -> Self {
        SolverError::Demand(e)
    }
}

/// Repeated minimal-budget solver for demands sharing one period
/// vector: the production kernel of the existing-CSA analysis.
///
/// The existing-CSA analysis (behind `vc2m_analysis::existing`) runs a
/// minimal-budget search per candidate VCPU period and per budget-
/// surface cell: hundreds of searches whose demands share *periods*
/// and differ only in their WCETs and the resource period Π. The
/// checkpoints and the per-checkpoint job counts ⌊t/pᵢ⌋ depend on
/// neither, so this solver computes them once, for the horizon of the
/// largest period `max_period` it will be asked about. A search at
/// Π ≤ `max_period` walks the prefix of that stream up to its own
/// horizon ([`analysis_horizon`]): the stream for a shorter horizon
/// is the longer one cut there ([`Demand::checkpoints`]).
///
/// Results are **bit-identical** to `min_budget(&Demand::new(periods ⨯
/// wcets), Π)`: every floating-point operation of the search is
/// performed in the same order on the same values (the unit tests
/// below, `kernel_conformance` and the sweep conformance suite pin
/// this).
#[derive(Debug, Clone)]
pub struct MinBudgetSolver {
    periods: Vec<f64>,
    max_period: f64,
    /// The demand-only part of the analysis horizon (the hyperperiod
    /// or the bounded fallback).
    base_horizon: f64,
    /// The checkpoints up to the horizon of `max_period`.
    points: Vec<f64>,
    /// `floors[i · points.len() + j] = ⌊points[j] / periods[i] + 1e-9⌋`
    /// — the job count of task `i` at checkpoint `j`, stored flat and
    /// **task-major** so the per-search demand fill streams one task's
    /// contiguous row across all checkpoints at a time (vectorizable,
    /// and allocated as a single block instead of one `Vec` per
    /// checkpoint).
    floors: Vec<f64>,
    /// Reusable per-search buffer for the checkpoint demands.
    demands: RefCell<Vec<f64>>,
    /// Reusable per-checkpoint budget thresholds for the certified
    /// bisection (see [`CERTIFY_MARGIN`]).
    thresholds: RefCell<Vec<f64>>,
}

impl MinBudgetSolver {
    /// Precomputes the checkpoint structure for demands over
    /// `task_periods`, for searches at resource periods up to
    /// `max_period`.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Period`] if `max_period` is not positive and
    ///   finite;
    /// * [`SolverError::Demand`] (with a unit WCET) for a task period
    ///   that is not positive and finite.
    // `!(x > 0.0)` also refuses NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn new(task_periods: &[f64], max_period: f64) -> Result<Self, SolverError> {
        if !(max_period.is_finite() && max_period > 0.0) {
            return Err(SolverError::Period(max_period));
        }
        // A unit-WCET proxy demand: checkpoints and hyperperiod depend
        // only on the periods, except that zero-WCET tasks are skipped
        // — the all-positive fast path of `min_budget` below relies on
        // this, and mixed-zero WCET vectors fall back to the reference
        // implementation.
        let proxy = Demand::new(task_periods.iter().map(|&p| (p, 1.0)).collect())?;
        let base_horizon = base_horizon(&proxy);
        let points = proxy.checkpoints(horizon_at(base_horizon, max_period), MAX_CHECKPOINTS);
        let mut floors = vec![0.0; task_periods.len() * points.len()];
        for (row, &p) in floors.chunks_exact_mut(points.len().max(1)).zip(task_periods) {
            for (slot, &t) in row.iter_mut().zip(&points) {
                *slot = ((t / p) + 1e-9).floor();
            }
        }
        Ok(MinBudgetSolver {
            periods: task_periods.to_vec(),
            max_period,
            base_horizon,
            points,
            floors,
            demands: RefCell::new(Vec::new()),
            thresholds: RefCell::new(Vec::new()),
        })
    }

    /// The largest resource period this solver serves.
    pub fn max_period(&self) -> f64 {
        self.max_period
    }

    /// The minimal budget for the demand pairing this solver's periods
    /// with `wcets` on a period-`period` resource, bit-identical to
    /// [`min_budget`] on the corresponding [`Demand`].
    ///
    /// # Errors
    ///
    /// * [`SolverError::Period`] if `period` is not positive or
    ///   exceeds [`max_period`](Self::max_period) (NaN included): the
    ///   checkpoint table does not reach that period's horizon;
    /// * [`SolverError::Arity`] if `wcets` and the solver's periods
    ///   differ in length;
    /// * [`SolverError::Demand`] for a negative or non-finite WCET.
    // The negated comparisons are load-bearing: `!(e > 0.0)` routes
    // NaN WCETs to the fallback (where `Demand::new` rejects them),
    // `!(period > 0.0)` refuses a NaN period, and the feasibility
    // guards must evaluate the reference's exact boolean expressions,
    // negation included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn min_budget(&self, period: f64, wcets: &[f64]) -> Result<Option<f64>, SolverError> {
        if !(period > 0.0 && period <= self.max_period) {
            return Err(SolverError::Period(period));
        }
        if wcets.len() != self.periods.len() {
            return Err(SolverError::Arity {
                expected: self.periods.len(),
                got: wcets.len(),
            });
        }
        tick(|c| c.min_budget_calls += 1);
        if wcets.iter().all(|&e| e == 0.0) {
            return Ok(Some(0.0));
        }
        if wcets.iter().any(|&e| !(e > 0.0)) {
            // A mix of zero and positive WCETs changes the checkpoint
            // set (zero-WCET tasks contribute no deadlines); defer to
            // the reference implementation rather than replicate that
            // rarely-exercised branch. Negative or non-finite WCETs
            // also land here, where `Demand::new` refuses them.
            let demand =
                Demand::new(self.periods.iter().copied().zip(wcets.iter().copied()).collect())?;
            return Ok(min_budget(&demand, period));
        }
        // From here on the arithmetic mirrors `min_budget` operation
        // for operation: same checkpoints, same folds, same order,
        // same tolerances. The prefix up to this period's horizon is
        // the stream the reference merges for it. The bisection
        // answers most probes from per-checkpoint budget thresholds
        // instead of evaluating `sbf` (see [`CERTIFY_MARGIN`]), but
        // only where the answer is provably the reference's boolean;
        // every comparison it does perform uses the exact float
        // expressions of [`PeriodicResource::sbf`]. So the bisection
        // trajectory, hence the returned bits, are identical to the
        // reference.
        let horizon = horizon_at(self.base_horizon, period);
        let len = self.points.partition_point(|&t| t <= horizon + 1e-9);
        let points = &self.points[..len];
        let utilization: f64 = self.periods.iter().zip(wcets).map(|(p, e)| e / p).sum();
        let mut demands = self.demands.borrow_mut();
        demands.clear();
        demands.resize(len, 0.0);
        // Batched demand fill over the task-major floor table: each
        // task's row adds `kᵢⱼ · eᵢ` into every checkpoint's
        // accumulator. Per checkpoint the additions happen in
        // ascending task order from 0.0 — the exact fold the
        // reference `dbf` performs, so the sums are bit-identical;
        // only the loop order differs, putting the contiguous,
        // vectorizable sweep innermost.
        for (row, &e) in self.floors.chunks_exact(self.points.len().max(1)).zip(wcets) {
            for (acc, &k) in demands.iter_mut().zip(&row[..len]) {
                *acc += k * e;
            }
        }
        let mut thresholds = self.thresholds.borrow_mut();
        Ok(bisect_certified(period, utilization, points, &demands, &mut thresholds))
    }
}

/// Absolute part of the margin δ of the certified-threshold bisection
/// ([`bisect_certified`]). The margin a search uses is
/// `δ = CERTIFY_MARGIN + 1e-11 · M`, where `M = max(Π, t_max)` is the
/// largest magnitude its arithmetic meets (`t_max` the last
/// checkpoint).
///
/// **Thresholds.** Fix a checkpoint `(t, d)` and let `D = d − 1e-9`.
/// If `D ≤ 0`, the reference comparison `d ≤ sbf(t) + 1e-9` holds at
/// every θ, since float `sbf` is ≥ 0 and rounding is monotone; the
/// threshold is −∞. Otherwise let `m = ⌊t/Π⌋` and, for `k ≥ 0`,
/// `P_k(θ) = max(kθ, (k+2)θ − (k+2)Π + t)`. On θ ∈ (0, Π] the
/// real-arithmetic supply `R(θ) = kθ + max(0, t − (k+2)Π + 2θ)`, with
/// `k = ⌊(t − Π + θ)/Π⌋`, takes only the job counts `m − 1` and `m`,
/// and equals `min(P_max(m−1, 0), P_m)`: below the switch point
/// `(m+1)Π − t` the `m − 1` piece is the smaller one, above it the
/// `m` piece. Both pieces are non-decreasing, so `R(θ) ≥ D` holds
/// exactly from `τ = max(τ_max(m−1, 0), τ_m)` on, where
/// `τ_k = min(D/k, Π + (D − t)/(k+2))` and `D/0 = +∞`. A τ above Π
/// means θ = Π cannot serve the point. Θ* is the largest τ.
///
/// **Soundness.** Three facts carry it:
/// 1. `R` never decreases as θ grows. (Float `sbf`'s `+1e-12` floor
///    fudge only adds upward jumps of at most `1e-12 · Π`; they are
///    counted in ε below.)
/// 2. `R`'s slope is ≥ 1 wherever `R > 0`: it is `k ≥ 1`, or `k + 2`
///    on the ramp. Hence `θ ≥ τ + h` gives `R(θ) ≥ D + h`, and
///    `θ ≤ τ − h` gives `R(θ) ≤ D − h`; otherwise `R > 0` on
///    `[θ, τ]` and the slope would carry `R` past `D` before τ.
/// 3. Float `sbf` and the computed threshold τ̂ are each within ε of
///    the real values. Both are fewer than ten roundings on
///    magnitudes ≤ 2M (a demand that passes the `U ≤ 1 + 1e-12` guard
///    has `d ≤ U·t + Σeᵢ ≤ 2.01·t`), plus the fudge. A float `m` off
///    by one can happen only when `t/Π` is within an ulp of an
///    integer, where the neighbouring piece agrees with `R` to within
///    an ulp of `t`. So ε ≤ `1.1e-12 · M` beyond rounding of tiny
///    absolute values, which the absolute part covers.
///
/// So at a probe `θ > τ̂ + δ` the float supply exceeds
/// `D + δ − 2ε > D`, and the reference comparison is `true`; at
/// `θ < τ̂ − δ` the supply is below `D − δ + 2ε < D`, and it is
/// `false`. Any `δ > 2ε` is therefore sound, and the margin above
/// exceeds it with room to spare. A larger δ only costs speed: more
/// probes and points fall back to exact evaluation.
///
/// The threshold pass floors `t/Π` with [`floor_nonneg`]. Where some
/// `t/Π ≥ 2⁵²`, a search takes δ = +∞ instead, and every probe
/// evaluates every point exactly: the reference search.
const CERTIFY_MARGIN: f64 = 1e-8;

/// 2⁵², the bound of [`floor_nonneg`]'s domain.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// `⌊x⌋` for `0 ≤ x < 2⁵²`, without a libm call. The release build
/// targets baseline x86-64, which lacks SSE4.1 `roundsd`, so
/// `f64::floor` is an out-of-line call there. Exact on the domain:
/// truncation is the floor of a non-negative value, and every integer
/// below 2⁵² round-trips through `i64`.
#[inline]
fn floor_nonneg(x: f64) -> f64 {
    debug_assert!((0.0..TWO_POW_52).contains(&x), "floor_nonneg outside [0, 2^52): {x}");
    (x as i64) as f64
}

/// The real budget from which checkpoint `(t, d)` satisfies
/// `d ≤ sbf(t) + 1e-9`: the threshold τ of [`CERTIFY_MARGIN`], for
/// `t/Π` inside [`floor_nonneg`]'s domain.
#[inline]
fn checkpoint_threshold(period: f64, t: f64, d: f64) -> f64 {
    let excess = d - 1e-9;
    let m = floor_nonneg(t / period);
    let piece = |k: f64| (excess / k).min(period + (excess - t) / (k + 2.0));
    let tau = piece((m - 1.0).max(0.0)).max(piece(m));
    if excess > 0.0 {
        tau
    } else {
        f64::NEG_INFINITY
    }
}

/// The feasibility predicate of one certified search: the thresholds
/// of every checkpoint, their maximum Θ*, and the margin δ.
struct CertifiedProbe<'a> {
    period: f64,
    points: &'a [f64],
    demands: &'a [f64],
    thresholds: &'a [f64],
    max: f64,
    margin: f64,
}

impl<'a> CertifiedProbe<'a> {
    /// Fills `thresholds` (cleared first, capacity reused) for the
    /// checkpoints `points` with demands `demands`.
    fn new(period: f64, points: &'a [f64], demands: &'a [f64], thresholds: &'a mut Vec<f64>) -> Self {
        let t_max = points.last().copied().unwrap_or(0.0);
        thresholds.clear();
        let mut max = f64::NEG_INFINITY;
        let margin = if t_max / period < TWO_POW_52 {
            for (&t, &d) in points.iter().zip(demands) {
                let tau = checkpoint_threshold(period, t, d);
                max = max.max(tau);
                thresholds.push(tau);
            }
            CERTIFY_MARGIN + 1e-11 * t_max.max(period)
        } else {
            thresholds.resize(points.len(), f64::NEG_INFINITY);
            f64::INFINITY
        };
        CertifiedProbe {
            period,
            points,
            demands,
            thresholds,
            max,
            margin,
        }
    }

    /// The reference's checkpoint predicate at budget `theta`: every
    /// `d ≤ sbf(t) + 1e-9`.
    fn feasible(&self, theta: f64) -> bool {
        if (theta - self.max).abs() > self.margin {
            return theta > self.max;
        }
        // Near Θ*: points whose threshold lies more than δ below θ are
        // certified; the rest run `PeriodicResource::sbf` with
        // `blackout` hoisted — same expressions, same rounding.
        let blackout = self.period - theta;
        let certified_below = theta - self.margin;
        self.points
            .iter()
            .zip(self.demands)
            .zip(self.thresholds)
            .all(|((&t, &d), &tau)| {
                if tau < certified_below {
                    return true;
                }
                let supply = if t <= blackout || theta == 0.0 {
                    0.0
                } else {
                    let t_eff = t - blackout;
                    let k = (t_eff / self.period + 1e-12).floor();
                    let supplied = k * theta;
                    let partial = (t_eff - k * self.period - blackout).max(0.0);
                    supplied + partial.min(theta)
                };
                d <= supply + 1e-9
            })
    }
}

/// The certified-threshold bisection of [`MinBudgetSolver::min_budget`]:
/// given the precomputed checkpoints and per-checkpoint demands of a
/// (non-trivial) demand with the given `utilization`, returns the
/// minimal budget on a period-`period` resource — bit-identical to the
/// reference [`min_budget`] search.
///
/// The bisection is the reference's, step for step: the same guards,
/// start values, midpoints, iteration cap and stop rule. Only the
/// probes are cheaper; see [`CERTIFY_MARGIN`] for why each returns
/// the reference's boolean. `thresholds` is caller-owned scratch; its
/// previous contents are discarded.
// Negated comparisons mirror the reference's booleans exactly; see
// `MinBudgetSolver::min_budget`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn bisect_certified(
    period: f64,
    utilization: f64,
    points: &[f64],
    demands: &[f64],
    thresholds: &mut Vec<f64>,
) -> Option<f64> {
    // The reference's feasible(Π) utilization guard compares against
    // Π/Π + 1e-12; x/x is exactly 1.0 for any finite positive x, so
    // the constant is bit-identical.
    if utilization > 1.0 + 1e-12 {
        return None;
    }
    let probe = CertifiedProbe::new(period, points, demands, thresholds);
    if !probe.feasible(period) {
        return None;
    }
    let mut lo = (utilization * period).min(period);
    if !(utilization > lo / period + 1e-12) && probe.feasible(lo) {
        return Some(lo);
    }
    // In the bisection the utilization guard of the reference's
    // `feasible` can never fire: reaching here means U ≤ 1 + 1e-12,
    // and if U > 1 then lo = Π and feasible(Π) above already
    // returned. So U ≤ 1, lo = U·Π (one rounding), and every probe
    // θ = ½(lo + hi) ≥ lo, giving U − θ/Π ≤ a few ulps of U —
    // orders below the guard's 1e-12 slack. The guard is therefore
    // omitted from the loop; its boolean is identically `false`.
    let mut hi = period;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        // The update is written as selects, which LLVM lowers to a
        // branch on x86-64. Forcing `cmov` through an integer
        // bit-select measured ~15 % slower on a 2-vCPU Xeon host: it
        // puts the compare on the loop-carried dependency chain.
        let feasible = probe.feasible(mid);
        hi = if feasible { mid } else { hi };
        lo = if feasible { lo } else { mid };
        if hi - lo < 1e-9 {
            break;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must lie in [0, period]")]
    fn budget_above_period_rejected() {
        let _ = PeriodicResource::new(10.0, 11.0);
    }

    #[test]
    fn sbf_shape() {
        let r = PeriodicResource::new(10.0, 4.0);
        // Blackout of 2(Π−Θ) = 12 at worst, first supply after Π−Θ = 6...
        assert_eq!(r.sbf(0.0), 0.0);
        assert_eq!(r.sbf(6.0), 0.0);
        // After the blackout, supply ramps at slope 1 for Θ time units
        // starting at 2(Π−Θ) = 12.
        assert_eq!(r.sbf(12.0), 0.0);
        assert_eq!(r.sbf(13.0), 1.0);
        assert_eq!(r.sbf(16.0), 4.0);
        // Then flat until the next period's supply.
        assert_eq!(r.sbf(22.0), 4.0);
        assert_eq!(r.sbf(23.0), 5.0);
    }

    #[test]
    fn sbf_full_budget_is_identity_minus_nothing() {
        // Θ = Π: a dedicated processor; sbf(t) = t.
        let r = PeriodicResource::new(5.0, 5.0);
        for t in [0.0, 1.0, 2.5, 7.0, 100.0] {
            assert!((r.sbf(t) - t).abs() < 1e-9, "sbf({t}) = {}", r.sbf(t));
        }
    }

    #[test]
    fn sbf_zero_budget_is_zero() {
        let r = PeriodicResource::new(5.0, 0.0);
        assert_eq!(r.sbf(100.0), 0.0);
    }

    #[test]
    fn sbf_monotone_and_bounded_by_t() {
        let r = PeriodicResource::new(7.0, 3.0);
        let mut prev = 0.0;
        for i in 0..1000 {
            let t = i as f64 * 0.1;
            let v = r.sbf(t);
            assert!(v >= prev - 1e-12, "sbf must be non-decreasing");
            assert!(v <= t + 1e-9, "sbf(t) must not exceed t");
            prev = v;
        }
    }

    #[test]
    fn lsbf_lower_bounds_sbf() {
        let r = PeriodicResource::new(9.0, 4.0);
        for i in 0..500 {
            let t = i as f64 * 0.2;
            assert!(
                r.lsbf(t) <= r.sbf(t) + 1e-9,
                "lsbf({t}) = {} > sbf({t}) = {}",
                r.lsbf(t),
                r.sbf(t)
            );
        }
    }

    #[test]
    fn paper_example_budget_is_5_5() {
        // Introduction: task (period 10, WCET 1) needs budget 5.5 on a
        // period-10 periodic resource — 5.5× its utilization of 0.1.
        let demand = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let theta = min_budget(&demand, 10.0).expect("feasible");
        assert!((theta - 5.5).abs() < 1e-6, "got {theta}");
    }

    #[test]
    fn min_budget_monotone_in_demand() {
        let light = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let heavy = Demand::new(vec![(10.0, 2.0)]).unwrap();
        let tl = min_budget(&light, 5.0).unwrap();
        let th = min_budget(&heavy, 5.0).unwrap();
        assert!(th > tl);
    }

    #[test]
    fn min_budget_smaller_period_less_overhead() {
        // A finer-grained server tracks the task more closely, so the
        // required *bandwidth* shrinks as the resource period shrinks.
        let demand = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let bw_coarse = min_budget(&demand, 10.0).unwrap() / 10.0;
        let bw_fine = min_budget(&demand, 2.0).unwrap() / 2.0;
        assert!(bw_fine < bw_coarse);
    }

    #[test]
    fn min_budget_infeasible() {
        // Utilization 1.2 cannot fit on any single resource.
        let demand = Demand::new(vec![(10.0, 12.0)]).unwrap();
        assert_eq!(min_budget(&demand, 10.0), None);
    }

    #[test]
    fn min_budget_zero_demand() {
        let demand = Demand::new(vec![(10.0, 0.0)]).unwrap();
        assert_eq!(min_budget(&demand, 5.0), Some(0.0));
    }

    #[test]
    fn min_budget_result_schedules_and_is_tight() {
        let demand = Demand::new(vec![(10.0, 1.0), (20.0, 3.0), (40.0, 4.0)]).unwrap();
        let period = 10.0;
        let theta = min_budget(&demand, period).expect("feasible");
        assert!(PeriodicResource::new(period, theta).can_schedule(&demand));
        let slightly_less = (theta - 1e-3).max(0.0);
        assert!(
            !PeriodicResource::new(period, slightly_less).can_schedule(&demand),
            "budget {theta} is not tight"
        );
        // And the abstraction overhead is real: budget bandwidth
        // strictly exceeds taskset utilization.
        assert!(theta / period > demand.utilization());
    }

    #[test]
    fn dedicated_resource_schedules_up_to_full_utilization() {
        let demand = Demand::new(vec![(10.0, 5.0), (20.0, 10.0)]).unwrap(); // U = 1.0
        assert!(PeriodicResource::new(10.0, 10.0).can_schedule(&demand));
    }

    /// One solver built at `max_period` serves every WCET vector at
    /// `max_period` and its period-search divisors.
    fn assert_solver_matches(periods: &[f64], max_period: f64, wcet_vectors: &[Vec<f64>]) {
        let solver = MinBudgetSolver::new(periods, max_period).unwrap();
        for wcets in wcet_vectors {
            let demand =
                Demand::new(periods.iter().copied().zip(wcets.iter().copied()).collect()).unwrap();
            for divisor in [1.0, 2.0, 4.0, 8.0, 16.0] {
                let period = max_period / divisor;
                let reference = min_budget(&demand, period);
                let fast = solver.min_budget(period, wcets).unwrap();
                assert_eq!(
                    fast.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "solver diverged for periods {periods:?}, wcets {wcets:?}, period {period}: \
                     {fast:?} vs {reference:?}"
                );
            }
        }
    }

    #[test]
    fn solver_matches_min_budget_bitwise() {
        // Harmonic periods (the paper's workloads) at several resource
        // periods, spanning feasible, tight and infeasible WCETs.
        assert_solver_matches(
            &[100.0, 200.0, 400.0],
            100.0,
            &[
                vec![1.0, 2.0, 4.0],
                vec![30.0, 40.0, 80.0],
                vec![90.0, 100.0, 200.0], // infeasible: U > 1
                vec![0.017, 123.4, 5.0],
            ],
        );
        assert_solver_matches(
            &[100.0, 200.0, 400.0],
            100.0 / 16.0,
            &[vec![1.0, 2.0, 4.0], vec![0.5, 0.25, 0.125]],
        );
        // Non-harmonic periods exercise the LCM hyperperiod path.
        assert_solver_matches(
            &[4.0, 6.0, 10.0],
            2.0,
            &[vec![0.5, 1.0, 2.0], vec![1.9, 2.9, 4.9]],
        );
        // A period that defeats the ns-scaled LCM falls back to the
        // capped horizon.
        assert_solver_matches(&[3.0000001, 7.0], 3.0, &[vec![0.2, 0.4]]);
    }

    #[test]
    fn solver_zero_and_mixed_wcets_match() {
        let periods = [10.0, 20.0];
        let solver = MinBudgetSolver::new(&periods, 5.0).unwrap();
        assert_eq!(solver.min_budget(5.0, &[0.0, 0.0]), Ok(Some(0.0)));
        // Mixed zero WCETs change the checkpoint set; the solver must
        // still agree with the reference implementation.
        let demand = Demand::new(vec![(10.0, 0.0), (20.0, 4.0)]).unwrap();
        for period in [5.0, 2.5] {
            assert_eq!(
                solver.min_budget(period, &[0.0, 4.0]).unwrap().map(f64::to_bits),
                min_budget(&demand, period).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn solver_rejects_wrong_arity() {
        assert_eq!(
            MinBudgetSolver::new(&[10.0, 20.0], 5.0).unwrap().min_budget(5.0, &[1.0]),
            Err(SolverError::Arity {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn solver_refuses_periods_outside_its_range() {
        for max_period in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                MinBudgetSolver::new(&[10.0], max_period),
                Err(SolverError::Period(p)) if p.to_bits() == max_period.to_bits()
            ));
        }
        assert!(matches!(
            MinBudgetSolver::new(&[10.0, 0.0], 5.0),
            Err(SolverError::Demand(InvalidDemandError { index: 1, .. }))
        ));
        let solver = MinBudgetSolver::new(&[10.0, 20.0], 5.0).unwrap();
        // Above `max_period` the table stops short of the period's
        // horizon; at or below zero there is no resource. Each search
        // is refused before it runs, never answered wrongly.
        for period in [5.0 + 1e-9, 10.0, f64::INFINITY, 0.0, -5.0, f64::NAN] {
            assert!(matches!(
                solver.min_budget(period, &[1.0, 2.0]),
                Err(SolverError::Period(p)) if p.to_bits() == period.to_bits()
            ));
        }
        assert!(solver.min_budget(5.0, &[1.0, 2.0]).unwrap().is_some());
        // Negative and NaN WCETs are refused through the reference
        // route's validation.
        for wcets in [[1.0, -2.0], [f64::NAN, 2.0]] {
            assert!(matches!(solver.min_budget(5.0, &wcets), Err(SolverError::Demand(_))));
        }
    }

    #[test]
    fn floor_nonneg_matches_floor_bitwise() {
        for x in [0.0, 0.5, 1.0, 1.0 - 1e-16, 7.999_999_999_999, 1e15 + 0.5, TWO_POW_52 - 0.5] {
            assert_eq!(floor_nonneg(x).to_bits(), x.floor().to_bits(), "x = {x}");
        }
    }

    #[test]
    fn thresholds_bracket_the_reference_predicate() {
        use vc2m_rng::{cases::check, Rng};
        // The reference per-point predicate is false δ below a
        // checkpoint's threshold and true δ above it: the fact every
        // certified probe relies on.
        check(4096, |rng| {
            let p_min = rng.gen_range(0.5f64..50.0);
            let divisor = [1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 8.0, 16.0][rng.gen_range(0usize..8)];
            let period = p_min / divisor;
            let t = match rng.gen_range(0u32..3) {
                // A whole number of server periods, where ⌊t/Π⌋ is
                // decided by rounding.
                0 => period * f64::from(rng.gen_range(1u32..200)),
                1 => p_min * f64::from(rng.gen_range(1u32..64)),
                _ => rng.gen_range(0.01f64..5_000.0),
            };
            let d = match rng.gen_range(0u32..4) {
                // Around the 1e-9 tolerance.
                0 => 1e-9 * rng.gen_range(0.0f64..3.0),
                // Exactly on the job-count switch θ_b, where
                // t − Π + θ_b = mΠ and the supply is m·θ_b.
                1 => {
                    let m = (t / period).floor();
                    m * ((m + 1.0) * period - t) + 1e-9
                }
                // Beyond what θ = Π can serve.
                2 => t * rng.gen_range(0.9f64..1.1),
                _ => t * rng.gen_range(0.0f64..1.0),
            };
            let tau = checkpoint_threshold(period, t, d);
            let margin = CERTIFY_MARGIN + 1e-11 * t.max(period);
            let holds = |theta: f64| d <= PeriodicResource::new(period, theta).sbf(t) + 1e-9;
            if tau == f64::NEG_INFINITY {
                assert!(holds(0.0) && holds(period), "d = {d} at t = {t}, Π = {period}");
                return;
            }
            let below = tau - margin;
            if below > period {
                assert!(!holds(period), "τ = {tau} above Π = {period}, yet Π serves t = {t}");
            } else if below >= 0.0 {
                assert!(!holds(below), "holds δ below τ = {tau} (t = {t}, d = {d}, Π = {period})");
            }
            let above = tau + margin;
            if above <= period {
                assert!(holds(above), "fails δ above τ = {tau} (t = {t}, d = {d}, Π = {period})");
            }
        });
    }

    #[test]
    fn certified_probe_matches_reference_predicate_near_thresholds() {
        use crate::kernel::{analysis_horizon, MAX_CHECKPOINTS};
        use vc2m_rng::{cases::check, Rng};
        // The bisection rarely lands within rounding of Θ*, so probe
        // there directly: at, and a few ulps and margins around, every
        // checkpoint's threshold, the certified predicate must equal
        // the reference's all-points predicate.
        check(512, |rng| {
            let base = (rng.gen_range(1.0f64..50.0) * 1e6).round() / 1e6;
            let tasks: Vec<(f64, f64)> = (0..rng.gen_range(1usize..5))
                .map(|_| {
                    let p = base * f64::from(1u32 << rng.gen_range(0u32..4));
                    (p, rng.gen_range(0.01f64..0.3) * p)
                })
                .collect();
            let demand = Demand::new(tasks).unwrap();
            let divisor = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0][rng.gen_range(0usize..6)];
            let period = base / divisor;
            let points = demand.checkpoints(analysis_horizon(&demand, period), MAX_CHECKPOINTS);
            let demands: Vec<f64> = points.iter().map(|&t| demand.dbf(t)).collect();
            let mut thresholds = Vec::new();
            let probe = CertifiedProbe::new(period, &points, &demands, &mut thresholds);
            let reference = |theta: f64| {
                let resource = PeriodicResource::new(period, theta);
                points.iter().zip(demands.iter()).all(|(&t, &d)| d <= resource.sbf(t) + 1e-9)
            };
            let margin = probe.margin;
            for &tau in probe.thresholds.iter().filter(|tau| tau.is_finite()) {
                for offset in [0.0, 1e-15, 1e-12, 1e-10, 0.5 * margin, margin, 2.0 * margin] {
                    for theta in [tau - offset, tau + offset] {
                        for theta in [theta, f64::from_bits(theta.to_bits() + 1)] {
                            if (0.0..=period).contains(&theta) {
                                assert_eq!(
                                    probe.feasible(theta),
                                    reference(theta),
                                    "θ = {theta} (τ = {tau}, Θ* = {}, Π = {period}) for {:?}",
                                    probe.max,
                                    demand.pairs().collect::<Vec<_>>()
                                );
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn uncertified_domain_runs_the_reference_search() {
        // t/Π ≥ 2⁵²: thresholds are skipped (δ = +∞) and every probe
        // evaluates exactly, so the bits still match the reference.
        let periods = [1.0, 2.0];
        for period in [1e-16, 3e-17] {
            let solver = MinBudgetSolver::new(&periods, period).unwrap();
            for wcets in [[0.1, 0.2], [0.5, 0.9]] {
                let demand =
                    Demand::new(periods.iter().copied().zip(wcets).collect()).unwrap();
                assert_eq!(
                    solver.min_budget(period, &wcets).unwrap().map(f64::to_bits),
                    min_budget(&demand, period).map(f64::to_bits),
                    "Π = {period}, wcets {wcets:?}"
                );
            }
        }
    }
}
