//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate under the hypervisor simulator
//! (`vc2m-hypervisor`): a time-ordered event queue with deterministic
//! tie-breaking, plus small utilities — an online min/avg/max
//! accumulator (the statistic reported by the paper's overhead Tables 1
//! and 2) and a bounded trace recorder.
//!
//! Determinism matters because the paper's scheduling semantics depend
//! on a *deterministic tie-breaking rule* for simultaneous events
//! (Section 3.2: VCPUs with equal deadlines are ordered by period, then
//! by index). The engine guarantees that events at the same instant are
//! delivered in a stable order: by the caller-supplied priority key,
//! then by insertion order.
//!
//! # Example
//!
//! ```
//! use vc2m_simcore::EventQueue;
//! use vc2m_model::SimTime;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_ms(2.0), 0, "later");
//! q.push(SimTime::from_ms(1.0), 0, "sooner");
//! let (t, _, event) = q.pop().expect("queue is non-empty");
//! assert_eq!((t.as_ms(), event), (1.0, "sooner"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Robustness: non-test code surfaces failures as typed errors or
// documented `# Panics` preconditions, never a bare unwrap. CI runs
// clippy with `-D warnings`, making these denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod metrics;
mod queue;
mod stats;
mod trace;

pub use metrics::MetricsRegistry;
pub use queue::EventQueue;
pub use stats::{MinAvgMax, SampleSet};
pub use trace::{TraceBuffer, TraceRecord};
