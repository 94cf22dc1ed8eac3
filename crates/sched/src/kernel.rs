//! Schedulability-kernel plumbing shared by the reference analysis
//! and the production minimal-budget kernel.
//!
//! The analysis inner loop — the minimal-budget search Θ(Π) of the
//! periodic resource model — runs millions of times per sweep. The
//! reference [`min_budget`](crate::sbf::min_budget) is written for
//! clarity: every call materializes a fresh checkpoint `Vec` and a
//! fresh demand `Vec`. The production kernel is
//! [`MinBudgetSolver`](crate::sbf::MinBudgetSolver): one checkpoint
//! merge and one floor table per VCPU, reused by every search on it.
//! This module holds what both share:
//!
//! * [`analysis_horizon`] — the one rule for how far a search walks
//!   (the hyperperiod, or the bounded fallback, never below 2Π);
//! * [`MAX_CHECKPOINTS`] — the cap on every checkpoint enumeration;
//! * [`KernelCounters`] — thread-local telemetry (merge sweeps,
//!   truncations, fallback horizons, searches) that the sweep driver
//!   snapshots per work unit and exports as `analysis.*` metrics.
//!
//! # Why the demand sum is *not* a running accumulator
//!
//! A literal running demand sum (`d += e` as each task's deadline
//! passes) is mathematically equal to `dbf(t)` but not **bit**-equal:
//! float addition is non-associative, and the accumulated per-task
//! progression `t += p` drifts from the reference's `⌊t/p + 1e-9⌋`
//! job count by more than the 1e-9 tolerance at large multiples. The
//! solver therefore evaluates the per-point demand with the
//! reference's own task-order expression `Σᵢ ⌊t/pᵢ + 1e-9⌋·eᵢ`, from
//! a precomputed floor table, preserving bit-identity while still
//! eliminating the per-call merges and allocations and (via certified
//! thresholds) most probe evaluations.

use crate::dbf::Demand;
use std::cell::Cell;

/// The checkpoint cap used by every analysis entry point: at most this
/// many merged checkpoints are enumerated per horizon, and at most
/// this many multiples of any single task period. When the cap bites (or the no-hyperperiod
/// fallback horizon is used), the analysis is a bounded-horizon
/// approximation; [`KernelCounters::checkpoints_truncated`] and
/// [`KernelCounters::fallback_horizons`] make that visible to sweeps.
pub const MAX_CHECKPOINTS: usize = 100_000;

/// Per-thread kernel telemetry counters.
///
/// Counters accumulate monotonically per thread; consumers snapshot
/// [`counters`] before and after a unit of work and keep the
/// [`KernelCounters::since`] delta, which merges order-independently
/// across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Checkpoint merge sweeps performed (one per
    /// [`Demand::checkpoints`] call).
    pub checkpoint_merges: u64,
    /// Checkpoints emitted across all merge sweeps.
    pub checkpoints_emitted: u64,
    /// Merge sweeps truncated by [`MAX_CHECKPOINTS`] (globally or for
    /// a single task's progression).
    pub checkpoints_truncated: u64,
    /// Analyses that fell back to the bounded 10 000 ms horizon
    /// because the taskset has no representable hyperperiod.
    pub fallback_horizons: u64,
    /// No kernel increments this any more: the streaming
    /// `can_schedule` kernel it counted is gone, and every verdict
    /// runs [`PeriodicResource::can_schedule`](crate::sbf::PeriodicResource::can_schedule).
    /// The field stays, reading 0, because the benchmark reads every
    /// field of this struct.
    pub can_schedule_calls: u64,
    /// [`MinBudgetSolver::min_budget`](crate::sbf::MinBudgetSolver::min_budget)
    /// calls: every minimal-budget search of the production analysis.
    pub min_budget_calls: u64,
    /// No kernel increments this any more: the solver's searches are
    /// counted in [`min_budget_calls`](Self::min_budget_calls), now
    /// that the solver is the only fast kernel. The field stays,
    /// reading 0, because the benchmark reads every field of this
    /// struct.
    pub solver_calls: u64,
    /// VCPU interface constructions recorded by the analysis crate.
    pub vcpu_builds: u64,
}

impl KernelCounters {
    /// All-zero counters (`const`, so the thread-local can be
    /// zero-initialized without lazy setup).
    pub const fn new() -> Self {
        KernelCounters {
            checkpoint_merges: 0,
            checkpoints_emitted: 0,
            checkpoints_truncated: 0,
            fallback_horizons: 0,
            can_schedule_calls: 0,
            min_budget_calls: 0,
            solver_calls: 0,
            vcpu_builds: 0,
        }
    }

    /// The field-wise difference `self - baseline` — the work done
    /// between two [`counters`] snapshots on the same thread.
    pub fn since(&self, baseline: &KernelCounters) -> KernelCounters {
        KernelCounters {
            checkpoint_merges: self.checkpoint_merges.wrapping_sub(baseline.checkpoint_merges),
            checkpoints_emitted: self.checkpoints_emitted.wrapping_sub(baseline.checkpoints_emitted),
            checkpoints_truncated: self
                .checkpoints_truncated
                .wrapping_sub(baseline.checkpoints_truncated),
            fallback_horizons: self.fallback_horizons.wrapping_sub(baseline.fallback_horizons),
            can_schedule_calls: self.can_schedule_calls.wrapping_sub(baseline.can_schedule_calls),
            min_budget_calls: self.min_budget_calls.wrapping_sub(baseline.min_budget_calls),
            solver_calls: self.solver_calls.wrapping_sub(baseline.solver_calls),
            vcpu_builds: self.vcpu_builds.wrapping_sub(baseline.vcpu_builds),
        }
    }

    /// Adds `other`'s counters into `self` (plain integer addition, so
    /// aggregation order cannot affect the result).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.checkpoint_merges += other.checkpoint_merges;
        self.checkpoints_emitted += other.checkpoints_emitted;
        self.checkpoints_truncated += other.checkpoints_truncated;
        self.fallback_horizons += other.fallback_horizons;
        self.can_schedule_calls += other.can_schedule_calls;
        self.min_budget_calls += other.min_budget_calls;
        self.solver_calls += other.solver_calls;
        self.vcpu_builds += other.vcpu_builds;
    }
}

thread_local! {
    static COUNTERS: Cell<KernelCounters> = const { Cell::new(KernelCounters::new()) };
}

/// Snapshot of this thread's kernel counters.
pub fn counters() -> KernelCounters {
    COUNTERS.with(Cell::get)
}

/// Applies `f` to this thread's counters (plain `Cell` get/set — the
/// counters are `Copy` and small, so no locking or atomics).
pub(crate) fn tick(f: impl FnOnce(&mut KernelCounters)) {
    COUNTERS.with(|cell| {
        let mut value = cell.get();
        f(&mut value);
        cell.set(value);
    });
}

/// Records one VCPU interface construction. Called by the analysis
/// crate's VCPU builders so sweeps can relate kernel-call counts to
/// analysis work units.
pub fn record_vcpu_build() {
    tick(|c| c.vcpu_builds += 1);
}

/// The analysis horizon for `demand` against a period-`period`
/// resource: the hyperperiod when representable, else the bounded
/// 10 000 ms fallback (counted in
/// [`KernelCounters::fallback_horizons`]); never below two resource
/// periods. Bit-identical to the reference expression
/// `demand.hyperperiod().unwrap_or(10_000.0).max(2.0 * period)`.
pub fn analysis_horizon(demand: &Demand, period: f64) -> f64 {
    horizon_at(base_horizon(demand), period)
}

/// The part of [`analysis_horizon`] that depends on the demand alone.
pub(crate) fn base_horizon(demand: &Demand) -> f64 {
    match demand.hyperperiod() {
        Some(h) => h,
        None => {
            tick(|c| c.fallback_horizons += 1);
            10_000.0
        }
    }
}

/// [`analysis_horizon`] against a period-`period` resource, from the
/// demand's [`base_horizon`].
pub(crate) fn horizon_at(base: f64, period: f64) -> f64 {
    base.max(2.0 * period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbf::{min_budget, MinBudgetSolver, PeriodicResource};

    #[test]
    fn workspace_matches_reference_on_basic_demands() {
        // One solver per demand, built at the largest period and
        // queried at every smaller one.
        for pairs in [
            vec![(10.0, 1.0)],
            vec![(10.0, 1.0), (20.0, 3.0), (40.0, 4.0)],
            vec![(10.0, 0.0), (20.0, 4.0)],
            vec![(3.0000001, 0.2), (7.0, 0.4)],
            vec![(10.0, 12.0)], // infeasible
            vec![],
        ] {
            let demand = Demand::new(pairs.clone()).unwrap();
            let solver = MinBudgetSolver::new(demand.periods(), 10.0).unwrap();
            for period in [10.0, 5.0, 2.5] {
                let budget = solver.min_budget(period, demand.wcets()).unwrap();
                assert_eq!(
                    budget.map(f64::to_bits),
                    min_budget(&demand, period).map(f64::to_bits),
                    "min_budget diverged for {pairs:?} at period {period}"
                );
                if let Some(theta) = budget {
                    assert!(
                        PeriodicResource::new(period, theta).can_schedule(&demand),
                        "Γ({period}, {theta}) refuses {pairs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_track_kernel_calls() {
        let before = counters();
        let demand = Demand::new(vec![(10.0, 1.0)]).unwrap();
        let solver = MinBudgetSolver::new(demand.periods(), 10.0).unwrap();
        let _ = solver.min_budget(10.0, demand.wcets());
        let _ = solver.min_budget(5.0, demand.wcets());
        let delta = counters().since(&before);
        // One merge serves both searches.
        assert_eq!(delta.checkpoint_merges, 1);
        assert_eq!(delta.min_budget_calls, 2);
        assert_eq!(delta.can_schedule_calls, 0);
        assert_eq!(delta.solver_calls, 0);
        assert!(delta.checkpoints_emitted >= 2);
        assert_eq!(delta.checkpoints_truncated, 0);
    }

    #[test]
    fn fallback_horizon_is_counted() {
        // Periods defeating the ns-scaled LCM: hyperperiod is None.
        let demand = Demand::new(vec![(999_937.0, 1.0), (999_983.0, 1.0)]).unwrap();
        assert_eq!(demand.hyperperiod(), None);
        let before = counters();
        let solver = MinBudgetSolver::new(demand.periods(), 10.0).unwrap();
        let _ = solver.min_budget(10.0, demand.wcets());
        let _ = solver.min_budget(5.0, demand.wcets());
        assert_eq!(counters().since(&before).fallback_horizons, 1);
    }

    #[test]
    fn truncation_is_counted_and_keeps_earliest_points() {
        let demand = Demand::new(vec![(1.0, 0.1)]).unwrap();
        let before = counters();
        let points = demand.checkpoints(1e6, 50);
        assert_eq!(points.len(), 50);
        assert_eq!(points[0], 1.0);
        assert_eq!(points[49], 50.0);
        assert_eq!(counters().since(&before).checkpoints_truncated, 1);
    }

    #[test]
    fn counters_merge_and_delta() {
        let mut total = KernelCounters::new();
        total.merge(&KernelCounters {
            checkpoint_merges: 2,
            checkpoints_emitted: 10,
            ..KernelCounters::new()
        });
        total.merge(&KernelCounters {
            checkpoint_merges: 1,
            solver_calls: 4,
            ..KernelCounters::new()
        });
        assert_eq!(total.checkpoint_merges, 3);
        assert_eq!(total.checkpoints_emitted, 10);
        assert_eq!(total.solver_calls, 4);
        let base = KernelCounters {
            checkpoint_merges: 1,
            ..KernelCounters::new()
        };
        assert_eq!(total.since(&base).checkpoint_merges, 2);
    }
}
