//! Implicit-deadline periodic tasks with allocation-dependent WCETs.

use crate::{Alloc, ModelError, SlowdownVector, TaskId, WcetSurface};
use std::fmt;

/// An implicit-deadline periodic task τᵢ = (pᵢ, {eᵢ(c,b)}).
///
/// The period (and deadline) is in milliseconds; the WCET surface gives
/// the task's worst-case execution time under each per-core cache and
/// bandwidth allocation (Section 4.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    period_ms: f64,
    wcet: WcetSurface,
}

impl Task {
    /// Creates a task with the given period (ms) and WCET surface.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonPositiveTime`] if the period is not positive
    ///   and finite.
    /// * [`ModelError::ExceedsPeriod`] if the *reference* WCET exceeds
    ///   the period — such a task can never be schedulable even with all
    ///   resources. (WCETs under smaller allocations may legitimately
    ///   exceed the period; the allocator simply cannot use those cells.)
    pub fn new(id: TaskId, period_ms: f64, wcet: WcetSurface) -> Result<Self, ModelError> {
        if !period_ms.is_finite() || period_ms <= 0.0 {
            return Err(ModelError::NonPositiveTime {
                what: "period",
                value: period_ms,
            });
        }
        if wcet.reference() > period_ms {
            return Err(ModelError::ExceedsPeriod {
                what: "reference wcet",
                value: wcet.reference(),
                period: period_ms,
            });
        }
        Ok(Task {
            id,
            period_ms,
            wcet,
        })
    }

    /// The task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's period (= deadline) in milliseconds.
    pub fn period(&self) -> f64 {
        self.period_ms
    }

    /// The task's WCET surface eᵢ(c,b).
    pub fn wcet_surface(&self) -> &WcetSurface {
        &self.wcet
    }

    /// WCET under allocation `alloc`, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the platform's resource space.
    pub fn wcet(&self, alloc: Alloc) -> f64 {
        self.wcet.at(alloc)
    }

    /// The reference WCET e*ᵢ = eᵢ(C,B).
    pub fn reference_wcet(&self) -> f64 {
        self.wcet.reference()
    }

    /// Reference utilization e*ᵢ/pᵢ — the load metric used throughout
    /// the allocation heuristics.
    pub fn reference_utilization(&self) -> f64 {
        self.reference_wcet() / self.period_ms
    }

    /// Utilization eᵢ(c,b)/pᵢ under allocation `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the platform's resource space.
    pub fn utilization(&self, alloc: Alloc) -> f64 {
        self.wcet(alloc) / self.period_ms
    }

    /// The task's slowdown vector sᵢ (clustering feature).
    pub fn slowdown_vector(&self) -> SlowdownVector {
        self.wcet.slowdown_vector()
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(p={:.3}ms, e*={:.3}ms, u*={:.3})",
            self.id,
            self.period_ms,
            self.reference_wcet(),
            self.reference_utilization()
        )
    }
}

/// An owned collection of tasks (one VM's workload, or a whole
/// generated taskset).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty taskset.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Creates a taskset from a vector of tasks.
    pub fn from_tasks(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }

    /// Adds a task.
    pub fn push(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Borrowing iterator over the tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// The tasks as a slice.
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Sum of reference utilizations Σ e*ᵢ/pᵢ — the "taskset reference
    /// utilization" on the x-axis of Figures 2–4.
    pub fn reference_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::reference_utilization).sum()
    }

    /// Sum of utilizations under a common allocation `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the tasks' resource space.
    pub fn utilization(&self, alloc: Alloc) -> f64 {
        self.tasks.iter().map(|t| t.utilization(alloc)).sum()
    }

    /// Whether every pair of task periods divides one another — the
    /// harmonicity condition of Theorem 2.
    pub fn is_harmonic(&self) -> bool {
        are_harmonic(self.tasks.iter().map(Task::period))
    }

    /// The smallest period in the set, which Theorem 2 uses as the
    /// well-regulated VCPU's period.
    ///
    /// Returns `None` for an empty set.
    pub fn min_period(&self) -> Option<f64> {
        self.tasks
            .iter()
            .map(Task::period)
            .min_by(f64::total_cmp)
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

/// Whether a collection of periods is pairwise harmonic: for every two
/// periods pᵢ, pⱼ, either pᵢ divides pⱼ or pⱼ divides pᵢ.
///
/// Division is checked to a relative tolerance of 1e-9 to absorb
/// floating-point representation error in generated periods. A NaN
/// period divides and is divided by nothing.
pub fn are_harmonic(periods: impl IntoIterator<Item = f64>) -> bool {
    let mut ps: Vec<f64> = periods.into_iter().collect();
    ps.sort_by(f64::total_cmp);
    ps.windows(2).all(|w| divides(w[0], w[1]))
}

/// Whether `small` divides `large` up to relative tolerance.
fn divides(small: f64, large: f64) -> bool {
    if small <= 0.0 {
        return false;
    }
    let ratio = large / small;
    (ratio - ratio.round()).abs() <= 1e-9 * ratio.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceSpace;

    fn space() -> ResourceSpace {
        ResourceSpace::new(2, 4, 1, 3).expect("valid space")
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
    fn constructor_validates_period_and_wcet() {
        let w = WcetSurface::flat(&space(), 1.0).unwrap();
        assert!(matches!(
            Task::new(TaskId(0), 0.0, w.clone()),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            Task::new(TaskId(0), f64::INFINITY, w.clone()),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            Task::new(TaskId(0), -3.0, w.clone()),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            Task::new(TaskId(0), f64::NAN, w.clone()),
            Err(ModelError::NonPositiveTime { .. })
        ));
        assert!(matches!(
            Task::new(TaskId(0), 0.5, w),
            Err(ModelError::ExceedsPeriod { .. })
        ));
    }

    #[test]
    fn reference_wcet_above_period_is_rejected_but_corner_wcet_is_not() {
        // WCET 5 at the minimum corner, 1 at reference, period 2:
        // only the reference must fit.
        let surface =
            WcetSurface::from_fn(
                &space(),
                |a| {
                    if a == space().reference() {
                        1.0
                    } else {
                        5.0
                    }
                },
            )
            .unwrap();
        let t = Task::new(TaskId(0), 2.0, surface).unwrap();
        assert_eq!(t.reference_wcet(), 1.0);
        assert_eq!(t.wcet(space().minimum()), 5.0);
    }

    #[test]
    fn utilizations() {
        let t = task(0, 10.0, 1.0);
        assert!((t.reference_utilization() - 0.1).abs() < 1e-12);
        assert!((t.utilization(Alloc::new(2, 1)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn taskset_aggregates() {
        let ts: TaskSet = vec![task(0, 10.0, 1.0), task(1, 20.0, 4.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.len(), 2);
        assert!((ts.reference_utilization() - 0.3).abs() < 1e-12);
        assert_eq!(ts.min_period(), Some(10.0));
        assert!(ts.is_harmonic());
    }

    #[test]
    fn harmonicity() {
        assert!(are_harmonic([100.0, 200.0, 400.0]));
        assert!(are_harmonic([100.0, 100.0]));
        assert!(are_harmonic([300.0]));
        assert!(are_harmonic(std::iter::empty::<f64>()));
        assert!(!are_harmonic([100.0, 150.0]));
        // Sorted-adjacent divisibility implies pairwise: 2,6,12 harmonic,
        // but 2,3,12 is caught because 2 does not divide 3.
        assert!(are_harmonic([2.0, 6.0, 12.0]));
        assert!(!are_harmonic([2.0, 3.0, 12.0]));
    }

    #[test]
    fn harmonicity_tolerates_float_noise() {
        let base = 1100.0 / 3.0;
        assert!(are_harmonic([base, base * 2.0, base * 4.0]));
    }

    #[test]
    fn empty_taskset() {
        let ts = TaskSet::new();
        assert!(ts.is_empty());
        assert_eq!(ts.min_period(), None);
        assert!(ts.is_harmonic());
        assert_eq!(ts.reference_utilization(), 0.0);
    }

    #[test]
    fn extend_and_iterate() {
        let mut ts = TaskSet::new();
        ts.extend(vec![task(0, 10.0, 1.0)]);
        ts.push(task(1, 10.0, 2.0));
        assert_eq!(ts.iter().count(), 2);
        assert_eq!((&ts).into_iter().count(), 2);
        assert_eq!(ts.into_iter().count(), 2);
    }

    #[test]
    fn display_mentions_period_and_utilization() {
        let t = task(3, 10.0, 1.0);
        let s = t.to_string();
        assert!(s.contains("T3"));
        assert!(s.contains("p=10.000ms"));
    }
}
