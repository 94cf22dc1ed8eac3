//! Intra-core overhead inflation (the technique of \[17\]).
//!
//! With cache and bandwidth isolation in place, tasks on *different*
//! cores no longer interfere — but tasks and VCPUs sharing a core
//! still pay cache-related preemption and completion overheads. The
//! paper accounts for these by inflating task WCETs (with the
//! task-preemption overhead) before VM-level allocation, and inflating
//! VCPU budgets (with the VCPU preemption/completion overhead) before
//! hypervisor-level allocation, following the cache-aware
//! compositional analysis of \[17\].
//!
//! The model here is the standard one-preemption-per-job charge: each
//! job of a task can be preempted by each job of a *shorter-period*
//! task released during its window, and each preemption costs one
//! cache-reload + context-switch delta. For VCPUs, each server period
//! additionally pays one completion event.

use crate::AnalysisError;
use vc2m_model::{ModelError, Task, TaskSet, VcpuSpec};

/// Overhead parameters, in milliseconds per event.
///
/// The defaults are zero (no inflation), which reproduces the paper's
/// evaluation configuration — its schedulability experiments compare
/// analyses, not overhead models; the measured prototype overheads
/// (Tables 1 and 2, microseconds) are negligible at millisecond
/// periods. Non-zero values enable the inflation for sensitivity
/// studies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadModel {
    /// Cost charged per task preemption (cache reload + OS context
    /// switch).
    pub task_preemption_ms: f64,
    /// Cost charged per VCPU preemption or completion event (VCPU
    /// context switch in the hypervisor).
    pub vcpu_event_ms: f64,
}

impl OverheadModel {
    /// A model with no overhead (the identity inflation).
    pub fn none() -> Self {
        OverheadModel::default()
    }

    /// Creates a model with the given per-event costs.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidOverhead`] if either cost is
    /// negative or non-finite.
    pub fn new(task_preemption_ms: f64, vcpu_event_ms: f64) -> Result<Self, AnalysisError> {
        for (what, value) in [
            ("task_preemption_ms", task_preemption_ms),
            ("vcpu_event_ms", vcpu_event_ms),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(AnalysisError::InvalidOverhead { what, value });
            }
        }
        Ok(OverheadModel {
            task_preemption_ms,
            vcpu_event_ms,
        })
    }

    /// Inflates one task's WCET surface for intra-core task-preemption
    /// overhead, in the context of its co-located `taskset`: each job
    /// is charged one preemption per release of a shorter-period task
    /// within its period: `e′ = e + Δ·Σ_{pⱼ<pᵢ} ⌈pᵢ/pⱼ⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ExceedsPeriod`] if the inflated reference
    /// WCET no longer fits the period (the task cannot absorb the
    /// overhead).
    pub fn inflate_task(&self, task: &Task, taskset: &TaskSet) -> Result<Task, ModelError> {
        if self.task_preemption_ms == 0.0 {
            return Ok(task.clone());
        }
        let (id, period) = (task.id(), task.period());
        let preemptions: f64 = taskset
            .iter()
            .filter(|other| other.id() != id && other.period() < period)
            .map(|other| (period / other.period()).ceil())
            .sum();
        let delta = self.task_preemption_ms * preemptions;
        let surface = vc2m_model::WcetSurface::from_fn(task.wcet_surface().space(), |alloc| {
            task.wcet(alloc) + delta
        })?;
        Task::new(task.id(), task.period(), surface)
    }

    /// Inflates a VCPU's budget surface for VCPU preemption/completion
    /// overhead among `co_located` VCPUs on the same core:
    /// `Θ′ = Θ + Δ·(1 + Σ_{Πⱼ<Πᵢ} ⌈Πᵢ/Πⱼ⌉)` (one completion per
    /// period plus one preemption per shorter-period server release).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the inflated surface is invalid
    /// (cannot happen for finite positive deltas).
    pub fn inflate_vcpu(
        &self,
        vcpu: &VcpuSpec,
        co_located: &[VcpuSpec],
    ) -> Result<VcpuSpec, ModelError> {
        if self.vcpu_event_ms == 0.0 {
            return Ok(vcpu.clone());
        }
        let (id, period) = (vcpu.id(), vcpu.period());
        let preemptions: f64 = co_located
            .iter()
            .filter(|other| other.id() != id && other.period() < period)
            .map(|other| (period / other.period()).ceil())
            .sum();
        let delta = self.vcpu_event_ms * (1.0 + preemptions);
        let surface = vc2m_model::BudgetSurface::from_fn(vcpu.budget_surface().space(), |alloc| {
            vcpu.budget(alloc) + delta
        })?;
        vc2m_sched::kernel::record_vcpu_build();
        VcpuSpec::new(id, vcpu.vm(), period, surface, vcpu.tasks().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Platform, ResourceSpace, TaskId, VcpuId, VmId, WcetSurface};

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

    fn vcpu(id: usize, period: f64, budget: f64) -> VcpuSpec {
        VcpuSpec::new(
            VcpuId(id),
            VmId(0),
            period,
            vc2m_model::BudgetSurface::flat(&space(), budget).unwrap(),
            vec![TaskId(id)],
        )
        .unwrap()
    }

    #[test]
    fn zero_model_is_identity() {
        let t = task(0, 10.0, 1.0);
        let ts: TaskSet = std::iter::once(t.clone()).collect();
        let inflated = OverheadModel::none().inflate_task(&t, &ts).unwrap();
        assert_eq!(inflated, t);
        let v = vcpu(0, 10.0, 2.0);
        assert_eq!(
            OverheadModel::none()
                .inflate_vcpu(&v, std::slice::from_ref(&v))
                .unwrap(),
            v
        );
    }

    #[test]
    fn task_inflation_counts_shorter_period_releases() {
        let victim = task(0, 40.0, 4.0);
        let preemptor = task(1, 10.0, 1.0);
        let ts: TaskSet = vec![victim.clone(), preemptor].into_iter().collect();
        let model = OverheadModel::new(0.1, 0.0).unwrap();
        let inflated = model.inflate_task(&victim, &ts).unwrap();
        // ceil(40/10) = 4 preemptions × 0.1 ms.
        assert!((inflated.reference_wcet() - 4.4).abs() < 1e-12);
        // The preemptor itself has no shorter-period peer: unchanged.
        let p = ts.iter().find(|t| t.id() == TaskId(1)).unwrap();
        let p_inflated = model.inflate_task(p, &ts).unwrap();
        assert_eq!(p_inflated.reference_wcet(), 1.0);
    }

    #[test]
    fn task_inflation_can_overflow_period() {
        let victim = task(0, 40.0, 39.0);
        let preemptor = task(1, 10.0, 1.0);
        let ts: TaskSet = vec![victim.clone(), preemptor].into_iter().collect();
        let model = OverheadModel::new(0.5, 0.0).unwrap();
        assert!(matches!(
            model.inflate_task(&victim, &ts),
            Err(ModelError::ExceedsPeriod { .. })
        ));
    }

    #[test]
    fn vcpu_inflation_adds_completion_charge() {
        let lone = vcpu(0, 10.0, 2.0);
        let model = OverheadModel::new(0.0, 0.05).unwrap();
        let inflated = model
            .inflate_vcpu(&lone, std::slice::from_ref(&lone))
            .unwrap();
        // No shorter-period peers: 1 completion event only.
        assert!((inflated.reference_budget() - 2.05).abs() < 1e-12);
    }

    #[test]
    fn vcpu_inflation_counts_peers() {
        let slow = vcpu(0, 40.0, 8.0);
        let fast = vcpu(1, 10.0, 1.0);
        let model = OverheadModel::new(0.0, 0.1).unwrap();
        let inflated = model.inflate_vcpu(&slow, &[slow.clone(), fast]).unwrap();
        // 1 completion + ceil(40/10) = 4 preemptions → 0.5 ms.
        assert!((inflated.reference_budget() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn negative_cost_rejected() {
        assert_eq!(
            OverheadModel::new(-0.1, 0.0),
            Err(AnalysisError::InvalidOverhead {
                what: "task_preemption_ms",
                value: -0.1
            })
        );
        let err = OverheadModel::new(0.0, f64::NAN).unwrap_err();
        assert!(err.to_string().contains("vcpu_event_ms must be non-negative"), "{err}");
    }
}
