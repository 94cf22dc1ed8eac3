//! Theorem 2: overhead-free analysis on well-regulated VCPUs.
//!
//! A *well-regulated* VCPU executes at time `t` iff it executes at
//! `t + k·Π` for all k — its supply pattern repeats every period. vC²M
//! realizes this with periodic servers, harmonic VCPU periods, a
//! common release offset and the deterministic EDF tie-break
//! (Section 3.2). On such a VCPU, a **harmonic** taskset
//! T = {(pᵢ, eᵢ(c,b))} is EDF-schedulable with
//!
//! ```text
//! Π = min pᵢ        Θ(c,b) = Π · Σᵢ eᵢ(c,b)/pᵢ
//! ```
//!
//! i.e. a CPU-bandwidth exactly equal to the taskset's utilization —
//! zero abstraction overhead, without needing one VCPU per task.

use crate::{taskset_preamble, AnalysisError};
use vc2m_model::{BudgetSurface, Task, TaskSet, VcpuId, VcpuSpec, VmId};

/// Builds the well-regulated VCPU for a harmonic taskset (Theorem 2):
/// period `min pᵢ`, budget surface `Π·Σ eᵢ(c,b)/pᵢ`.
///
/// Cells of the surface where the combined utilization exceeds 1 are
/// recorded with their true (infeasible) budget `Θ(c,b) > Π`; the
/// per-core schedulability check rejects such allocations via the
/// utilization test, matching the paper's "no impact on utilization"
/// termination condition.
///
/// # Errors
///
/// * [`AnalysisError::EmptyTaskset`] for an empty taskset.
/// * [`AnalysisError::NotHarmonic`] if some pair of periods does not
///   divide evenly (the premise of Theorem 2).
pub fn regulated_vcpu(id: VcpuId, vm: VmId, taskset: &TaskSet) -> Result<VcpuSpec, AnalysisError> {
    let (period, space) = taskset_preamble(taskset)?;
    if !taskset.is_harmonic() {
        return Err(AnalysisError::NotHarmonic);
    }
    // Hoist the task walk out of the per-cell closure: the surface has
    // hundreds of cells and `from_fn` evaluates the closure per cell,
    // so resolving the taskset's storage once keeps the inner loop a
    // plain slice scan. Same tasks in the same order — the utilization
    // sum is bit-identical.
    let tasks_ref: Vec<&Task> = taskset.iter().collect();
    let budget = BudgetSurface::from_fn(&space, |alloc| {
        period * tasks_ref.iter().map(|t| t.utilization(alloc)).sum::<f64>()
    })?;
    let tasks = taskset.iter().map(Task::id).collect();
    vc2m_sched::kernel::record_vcpu_build();
    Ok(VcpuSpec::new(id, vm, period, budget, tasks)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Alloc, Platform, ResourceSpace, Task, TaskId, WcetSurface};

    fn space() -> ResourceSpace {
        Platform::platform_a().resources()
    }

    fn task(id: usize, period: f64, wcet: f64) -> Task {
        Task::new(
            TaskId(id),
            period,
            WcetSurface::flat(&space(), wcet).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn bandwidth_equals_utilization() {
        // Paper's motivating example: (10, 1) costs bandwidth 0.55 under
        // the existing analysis, but exactly 0.1 here.
        let ts: TaskSet = std::iter::once(task(0, 10.0, 1.0)).collect();
        let v = regulated_vcpu(VcpuId(0), VmId(0), &ts).unwrap();
        assert_eq!(v.period(), 10.0);
        assert!((v.reference_utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn multi_task_harmonic_set() {
        let ts: TaskSet = vec![task(0, 10.0, 1.0), task(1, 20.0, 4.0), task(2, 40.0, 8.0)]
            .into_iter()
            .collect();
        // U = 0.1 + 0.2 + 0.2 = 0.5; Π = 10; Θ = 5.
        let v = regulated_vcpu(VcpuId(1), VmId(0), &ts).unwrap();
        assert_eq!(v.period(), 10.0);
        assert!((v.reference_budget() - 5.0).abs() < 1e-12);
        assert_eq!(v.tasks().len(), 3);
    }

    #[test]
    fn budget_tracks_allocation() {
        let surface = WcetSurface::from_fn(&space(), |a| 1.0 + 4.0 / f64::from(a.cache)).unwrap();
        let t = Task::new(TaskId(0), 10.0, surface).unwrap();
        let ts: TaskSet = std::iter::once(t).collect();
        let v = regulated_vcpu(VcpuId(0), VmId(0), &ts).unwrap();
        // Θ(c,b) = Π·e(c,b)/p = e(c,b); cache-starved cells cost more.
        assert!(v.budget(Alloc::new(2, 1)) > v.budget(Alloc::new(20, 20)));
        assert!((v.budget(Alloc::new(2, 1)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_cells_are_recorded_not_clamped() {
        // Three heavy tasks: utilization 1.5 at every allocation.
        let ts: TaskSet = (0..3).map(|i| task(i, 10.0, 5.0)).collect();
        let v = regulated_vcpu(VcpuId(0), VmId(0), &ts).unwrap();
        assert!((v.reference_budget() - 15.0).abs() < 1e-12);
        assert!(!v.is_feasible_at(space().reference()));
    }

    #[test]
    fn non_harmonic_rejected() {
        let ts: TaskSet = vec![task(0, 10.0, 1.0), task(1, 15.0, 1.0)]
            .into_iter()
            .collect();
        assert!(matches!(
            regulated_vcpu(VcpuId(0), VmId(0), &ts),
            Err(AnalysisError::NotHarmonic)
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            regulated_vcpu(VcpuId(0), VmId(0), &TaskSet::new()),
            Err(AnalysisError::EmptyTaskset)
        ));
    }

    #[test]
    fn agrees_with_flattening_for_single_task() {
        let t = task(0, 40.0, 6.0);
        let ts: TaskSet = std::iter::once(t.clone()).collect();
        let reg = regulated_vcpu(VcpuId(0), VmId(0), &ts).unwrap();
        let flat = crate::flattening::flatten_task(VcpuId(1), VmId(0), &t).unwrap();
        assert_eq!(reg.period(), flat.period());
        for alloc in space().iter() {
            assert!((reg.budget(alloc) - flat.budget(alloc)).abs() < 1e-12);
        }
    }
}
