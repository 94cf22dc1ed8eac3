//! The simulated vC²M hypervisor.
//!
//! This crate stands in for the paper's prototype — Xen 4.8 with a
//! modified RTDS scheduler, vCAT cache management and the
//! performance-counter bandwidth regulator, hosting LITMUS^RT guests —
//! as a deterministic discrete-event simulation:
//!
//! * [`HypervisorSim`] executes a [`SystemAllocation`] end-to-end:
//!   VCPUs run as periodic servers under partitioned EDF with the
//!   paper's deterministic tie-break; tasks run under EDF inside their
//!   VCPUs; the CAT plan isolates per-core cache; the bandwidth
//!   regulator throttles cores that exceed their budgets. The
//!   resulting [`SimReport`] carries deadline misses (the ground truth
//!   the analyses are validated against), job counts, throttle events
//!   and per-handler invocation counts.
//! * [`probes`] counts the scheduler and regulator hot paths and, when
//!   [`SimConfig::handler_timing`] is on, times them, regenerating the
//!   shape of the paper's overhead Tables 1 and 2.
//! * [`interference`] models co-runner interference on the shared
//!   cache and memory bus, with and without vC²M's isolation — the
//!   WCET-impact study of Section 3.3.
//!
//! [`SystemAllocation`]: vc2m_alloc::SystemAllocation
//!
//! # Example
//!
//! ```
//! use vc2m_alloc::Solution;
//! use vc2m_hypervisor::{HypervisorSim, SimConfig};
//! use vc2m_model::{Platform, Task, TaskId, TaskSet, VmId, VmSpec, WcetSurface};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::platform_a();
//! let space = platform.resources();
//! let tasks: TaskSet = (0..3)
//!     .map(|i| Task::new(TaskId(i), 10.0, WcetSurface::flat(&space, 2.0).unwrap()))
//!     .collect::<Result<_, _>>()?;
//! let vms = vec![VmSpec::new(VmId(0), tasks.clone())?];
//! let allocation = Solution::HeuristicFlattening
//!     .allocate(&vms, &platform, 7)
//!     .into_allocation()
//!     .expect("light workload is schedulable");
//!
//! let report = HypervisorSim::new(&platform, &allocation, &tasks, SimConfig::default())?
//!     .run()?;
//! assert_eq!(report.deadline_misses.len(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Robustness: the simulator is fed adversarial inputs by design
// (fault-injection campaigns), so non-test code must surface failures
// as typed errors, not aborts. The few invariant-backed `expect`s
// carry a targeted, justified `#[allow]`. CI runs clippy with
// `-D warnings`, making these denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod config;
mod error;
mod report;
mod sim;

pub mod energy;
pub mod fault;
pub mod gantt;
pub mod interference;
pub mod probes;
pub mod regulation;
pub mod trace;

pub use config::{IsolationMode, SimConfig};
pub use energy::{CoreTime, EnergyModel, ThrottlePolicy};
pub use error::{SimConfigError, SimError};
pub use fault::{
    Fault, FaultKind, FaultPlan, FaultPlanSpec, FaultStats, FaultTargets, ScheduledFault,
};
pub use regulation::{RegulationViolation, SupplyLog};
pub use report::{DeadlineMiss, HandlerKind, HandlerStats, SimReport};
pub use sim::{HypervisorSim, SimBuildError};
pub use trace::{SimObservation, TraceEvent};
