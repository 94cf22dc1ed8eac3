//! VCPU specifications: periodic servers with allocation-dependent
//! budgets.

use crate::{Alloc, BudgetSurface, ModelError, SlowdownVector, TaskId, VcpuId, VmId};
use std::fmt;

/// A VCPU Vⱼ = (Πⱼ, {Θⱼ(c,b)}): a periodic server with period Πⱼ and an
/// execution budget that depends on its core's cache and bandwidth
/// allocation (Section 4.1).
///
/// The *CPU-bandwidth* of a VCPU under allocation `(c, b)` is
/// Θⱼ(c,b)/Πⱼ. A `VcpuSpec` also records which VM it belongs to and
/// which tasks the VM-level allocation placed on it, so the
/// hypervisor-level allocation and the simulator can reconstruct the
/// full two-level system.
#[derive(Debug, Clone, PartialEq)]
pub struct VcpuSpec {
    id: VcpuId,
    vm: VmId,
    period_ms: f64,
    budget: BudgetSurface,
    tasks: Vec<TaskId>,
}

impl VcpuSpec {
    /// Creates a VCPU specification.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonPositiveTime`] if the period is not positive
    ///   and finite.
    /// * [`ModelError::Empty`] if `tasks` is empty — an idle VCPU is
    ///   never produced by the allocation algorithms.
    ///
    /// Budgets exceeding the period are allowed in the surface (they
    /// mark allocations under which the VCPU is infeasible); feasibility
    /// at a given allocation is queried via [`VcpuSpec::is_feasible_at`].
    pub fn new(
        id: VcpuId,
        vm: VmId,
        period_ms: f64,
        budget: BudgetSurface,
        tasks: Vec<TaskId>,
    ) -> Result<Self, ModelError> {
        if !period_ms.is_finite() || period_ms <= 0.0 {
            return Err(ModelError::NonPositiveTime {
                what: "vcpu period",
                value: period_ms,
            });
        }
        if tasks.is_empty() {
            return Err(ModelError::Empty { what: "vcpu tasks" });
        }
        Ok(VcpuSpec {
            id,
            vm,
            period_ms,
            budget,
            tasks,
        })
    }

    /// The VCPU's identifier.
    pub fn id(&self) -> VcpuId {
        self.id
    }

    /// The VM this VCPU belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The VCPU's period Πⱼ in milliseconds.
    #[inline]
    pub fn period(&self) -> f64 {
        self.period_ms
    }

    /// The budget surface Θⱼ(c,b).
    #[inline]
    pub fn budget_surface(&self) -> &BudgetSurface {
        &self.budget
    }

    /// Budget under allocation `alloc`, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the platform's resource space.
    #[inline]
    pub fn budget(&self, alloc: Alloc) -> f64 {
        self.budget.at(alloc)
    }

    /// The reference budget Θ*ⱼ = Θⱼ(C,B).
    #[inline]
    pub fn reference_budget(&self) -> f64 {
        self.budget.reference()
    }

    /// Reference CPU-bandwidth Θ*ⱼ/Πⱼ — the load metric used by the
    /// hypervisor-level packing phases.
    #[inline]
    pub fn reference_utilization(&self) -> f64 {
        self.reference_budget() / self.period_ms
    }

    /// CPU-bandwidth Θⱼ(c,b)/Πⱼ under allocation `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the platform's resource space.
    #[inline]
    pub fn utilization(&self, alloc: Alloc) -> f64 {
        self.budget(alloc) / self.period_ms
    }

    /// Whether the VCPU's budget fits within its period at `alloc`
    /// (Θⱼ(c,b) ≤ Πⱼ): the per-VCPU feasibility condition.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the platform's resource space.
    #[inline]
    pub fn is_feasible_at(&self, alloc: Alloc) -> bool {
        self.fits_period(self.budget(alloc))
    }

    /// Whether `budget` fits within the VCPU's period: the test
    /// [`VcpuSpec::is_feasible_at`] applies to the budget at an
    /// allocation.
    #[inline]
    pub fn fits_period(&self, budget: f64) -> bool {
        budget <= self.period_ms + 1e-12
    }

    /// The VCPU's slowdown vector Sⱼ = \[Θⱼ(c,b)/Θ*ⱼ\] (clustering
    /// feature of the hypervisor-level allocation).
    pub fn slowdown_vector(&self) -> SlowdownVector {
        self.budget.slowdown_vector()
    }

    /// The tasks the VM-level allocation assigned to this VCPU.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }
}

impl fmt::Display for VcpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}(Π={:.3}ms, Θ*={:.3}ms, {} tasks)",
            self.id,
            self.vm,
            self.period_ms,
            self.reference_budget(),
            self.tasks.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceSpace;

    fn space() -> ResourceSpace {
        ResourceSpace::new(2, 4, 1, 3).expect("valid space")
    }

    fn vcpu(period: f64, budget: f64) -> VcpuSpec {
        VcpuSpec::new(
            VcpuId(0),
            VmId(0),
            period,
            BudgetSurface::flat(&space(), budget).unwrap(),
            vec![TaskId(0)],
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        let b = BudgetSurface::flat(&space(), 1.0).unwrap();
        assert!(matches!(
            VcpuSpec::new(VcpuId(0), VmId(0), -1.0, b.clone(), vec![TaskId(0)]),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            VcpuSpec::new(VcpuId(0), VmId(0), 10.0, b, vec![]),
            Err(ModelError::Empty { .. })
        ));
    }

    #[test]
    fn utilization_and_feasibility() {
        let v = vcpu(10.0, 2.5);
        assert!((v.reference_utilization() - 0.25).abs() < 1e-12);
        assert!(v.is_feasible_at(Alloc::new(2, 1)));

        // Budget above period at the minimum corner: infeasible there.
        let surface =
            BudgetSurface::from_fn(
                &space(),
                |a| {
                    if a == space().minimum() {
                        12.0
                    } else {
                        2.0
                    }
                },
            )
            .unwrap();
        let v = VcpuSpec::new(VcpuId(1), VmId(0), 10.0, surface, vec![TaskId(1)]).unwrap();
        assert!(!v.is_feasible_at(space().minimum()));
        assert!(v.is_feasible_at(space().reference()));
    }

    #[test]
    fn slowdown_vector_reference_is_one() {
        let v = vcpu(10.0, 2.0);
        assert!((v.slowdown_vector().at(space().reference()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let v = vcpu(10.0, 2.0);
        assert_eq!(v.id(), VcpuId(0));
        assert_eq!(v.vm(), VmId(0));
        assert_eq!(v.tasks(), &[TaskId(0)]);
        assert!(v.to_string().contains("V0@VM0"));
    }
}
