//! Compositional schedulability analyses for vC²M.
//!
//! Three ways to turn a set of tasks on a VCPU into the VCPU's
//! `(period, budget-surface)` parameters, matching the five solutions
//! evaluated in Section 5 of the paper:
//!
//! * **Flattening** ([`flattening`], Theorem 1) — each task gets its
//!   own VCPU with Πⱼ = pᵢ and Θⱼ(c,b) = eᵢ(c,b), its release
//!   synchronized with the task's. Zero abstraction overhead; requires
//!   one VCPU per task.
//! * **Overhead-free CSA** ([`regulated`], Theorem 2) — a harmonic
//!   taskset on a *well-regulated* VCPU with Πⱼ = min pᵢ and
//!   Θⱼ(c,b) = Πⱼ·Σ eᵢ(c,b)/pᵢ. Zero abstraction overhead; works for
//!   any number of tasks per VCPU.
//! * **Existing CSA** ([`existing`], Shin & Lee's periodic resource
//!   model \[13\]) — the prior state of the art, carrying the
//!   abstraction overhead that vC²M eliminates.
//!
//! Plus the per-core schedulability test used by the hypervisor-level
//! allocation ([`core_check`]), and the intra-core overhead inflation
//! hook ([`overhead`], the technique of \[17\]).
//!
//! # Example
//!
//! ```
//! use vc2m_analysis::{existing, regulated};
//! use vc2m_model::{Platform, Task, TaskId, TaskSet, VcpuId, VmId, WcetSurface};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = Platform::platform_a().resources();
//! // The paper's example task: period 10, WCET 1 everywhere.
//! let task = Task::new(TaskId(0), 10.0, WcetSurface::flat(&space, 1.0)?)?;
//! let taskset: TaskSet = std::iter::once(task).collect();
//!
//! let well_regulated = regulated::regulated_vcpu(VcpuId(0), VmId(0), &taskset)?;
//! let prior_art = existing::existing_vcpu(VcpuId(1), VmId(0), &taskset)?;
//!
//! // Overhead-free: bandwidth exactly 0.1 (the task's utilization).
//! // Existing CSA: 0.55 at the task's own period; the built-in server
//! // period search shrinks that, but some overhead always remains.
//! assert!((well_regulated.reference_utilization() - 0.1).abs() < 1e-9);
//! assert!(prior_art.reference_utilization() > 0.1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code reports failures as values. Where an invariant makes
// a panic unreachable, the site carries an `#[allow]` that states the
// invariant. CI runs clippy with `-D warnings`, which makes these
// denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod error;

pub mod core_check;
pub mod dirty;
pub mod existing;
pub mod flattening;
pub mod overhead;
pub mod regulated;
pub mod regulated_supply;

pub use dirty::DirtyCores;
pub use error::AnalysisError;
pub use vc2m_sched::kernel::KernelCounters;

use vc2m_model::{ResourceSpace, TaskSet};

/// The shortest task period and the resource space of `taskset`: what
/// every VCPU builder reads before it sizes a budget surface.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyTaskset`] for an empty taskset.
pub(crate) fn taskset_preamble(taskset: &TaskSet) -> Result<(f64, ResourceSpace), AnalysisError> {
    let first = taskset.iter().next().ok_or(AnalysisError::EmptyTaskset)?;
    let p_min = taskset.min_period().ok_or(AnalysisError::EmptyTaskset)?;
    Ok((p_min, *first.wcet_surface().space()))
}

/// Exports kernel telemetry counters into `out` under the
/// `analysis.checkpoints.*` / `analysis.kernel.*` metric names the
/// sweep driver publishes (`vc2m sweep --metrics-out`):
///
/// * `analysis.checkpoints.merges` / `.emitted` — checkpoint merge
///   sweeps and the points they produced;
/// * `analysis.checkpoints.truncated` — merges where the
///   [`MAX_CHECKPOINTS`](vc2m_sched::kernel::MAX_CHECKPOINTS) cap
///   dropped in-horizon deadlines (a bounded-horizon approximation);
/// * `analysis.checkpoints.fallback_horizons` — analyses that used the
///   bounded 10 000 ms horizon because no hyperperiod exists;
/// * `analysis.kernel.min_budget` — minimal-budget searches, every
///   one of which runs on a
///   [`MinBudgetSolver`](vc2m_sched::sbf::MinBudgetSolver);
/// * `analysis.kernel.vcpu_builds` — VCPU interfaces constructed.
pub fn export_kernel_metrics(counters: &KernelCounters, out: &mut vc2m_simcore::MetricsRegistry) {
    out.counter_add("analysis.checkpoints.merges", counters.checkpoint_merges);
    out.counter_add("analysis.checkpoints.emitted", counters.checkpoints_emitted);
    out.counter_add("analysis.checkpoints.truncated", counters.checkpoints_truncated);
    out.counter_add(
        "analysis.checkpoints.fallback_horizons",
        counters.fallback_horizons,
    );
    out.counter_add("analysis.kernel.min_budget", counters.min_budget_calls);
    out.counter_add("analysis.kernel.vcpu_builds", counters.vcpu_builds);
}
