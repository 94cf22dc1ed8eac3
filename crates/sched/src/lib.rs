//! EDF scheduling theory and runtime scheduling structures.
//!
//! This crate provides the scheduling machinery the rest of the vC²M
//! reproduction builds on:
//!
//! * [`dbf`] — the EDF *demand bound function* of implicit-deadline
//!   periodic tasksets, and the checkpoint sets needed to evaluate it;
//! * [`sbf`] — the *supply bound function* of the periodic resource
//!   model (Shin & Lee 2003), which is the "existing compositional
//!   analysis" \[13\] the paper compares against, including the minimal
//!   budget computation;
//! * [`kernel`] — what the reference analysis and its production
//!   kernel, [`MinBudgetSolver`](sbf::MinBudgetSolver), share: the
//!   analysis horizon, the checkpoint cap and per-thread kernel
//!   telemetry. The solver builds one checkpoint table per VCPU and
//!   serves every minimal-budget search on it, bit-identical to the
//!   reference [`min_budget`](sbf::min_budget);
//! * [`server`] — runtime periodic-server state machines (budget
//!   accounting) used by the hypervisor simulator;
//! * [`edf`] — a deterministic EDF ready queue implementing the paper's
//!   tie-breaking rule (Section 3.2): equal absolute deadlines are
//!   ordered by period (smaller first), then by index (smaller first).
//!
//! # Example: the paper's worked example
//!
//! A task with period 10 ms and WCET 1 ms (utilization 0.1) needs a
//! periodic-resource budget of **5.5 ms** on a period-10 resource under
//! the existing analysis — 5.5× its utilization. This is the
//! abstraction overhead vC²M removes.
//!
//! ```
//! use vc2m_sched::{dbf::Demand, sbf::min_budget};
//!
//! let demand = Demand::new(vec![(10.0, 1.0)]).expect("valid taskset");
//! let theta = min_budget(&demand, 10.0).expect("feasible");
//! assert!((theta - 5.5).abs() < 1e-6);
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

pub mod dbf;
pub mod edf;
pub mod kernel;
pub mod sbf;
pub mod server;
