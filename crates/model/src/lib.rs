//! Core vocabulary types for the vC²M reproduction.
//!
//! This crate defines the data model shared by every other crate in the
//! workspace: identifiers, time, resource partitions, WCET surfaces,
//! tasks, VCPUs, VMs and platforms — the objects of Section 4.1 of the
//! paper (*Holistic multi-resource allocation for multicore real-time
//! virtualization*, DAC 2019).
//!
//! # Model summary
//!
//! * A **platform** has `M` identical cores, a shared cache split into `C`
//!   equal partitions, and a memory bus split into `B` equal bandwidth
//!   partitions, with per-core minimum allocations `Cmin` and `Bmin`.
//! * A **task** τᵢ = (pᵢ, {eᵢ(c,b)}) is an implicit-deadline periodic task
//!   whose WCET depends on the cache/bandwidth allocation of its core.
//!   The WCET table is a [`WcetSurface`]; eᵢ(C,B) is the *reference WCET*
//!   and eᵢ(c,b)/eᵢ(C,B) the *slowdown vector*.
//! * A **VCPU** Vⱼ = (Πⱼ, {Θⱼ(c,b)}) is a periodic server whose budget is
//!   likewise allocation-dependent (a [`BudgetSurface`]).
//!
//! # Example
//!
//! ```
//! use vc2m_model::{Platform, Task, TaskId, WcetSurface};
//!
//! # fn main() -> Result<(), vc2m_model::ModelError> {
//! let platform = Platform::platform_a(); // 4 cores, 20 cache/BW partitions
//! let surface = WcetSurface::flat(&platform.resources(), 1.0)?;
//! let task = Task::new(TaskId(0), 10.0, surface)?;
//! assert!((task.reference_utilization() - 0.1).abs() < 1e-12);
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
mod ids;
mod platform;
mod resources;
mod surface;
mod task;
mod time;
mod vcpu;
mod vm;

pub use error::ModelError;
pub use ids::{CoreId, TaskId, VcpuId, VmId};
pub use platform::{Platform, DEFAULT_BW_PARTITION_MBPS};
pub use resources::{Alloc, ResourceSpace};
pub use surface::{BudgetSurface, SlowdownVector, Surface, WcetSurface};
pub use task::{are_harmonic, Task, TaskSet};
pub use time::{ms_to_ns, ns_to_ms, SimDuration, SimTime};
pub use vcpu::VcpuSpec;
pub use vm::{VmSpec, XEN_MAX_VCPUS};
