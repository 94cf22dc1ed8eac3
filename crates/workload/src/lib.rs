//! Workload generation: PARSEC-style benchmark profiles and random
//! taskset synthesis.
//!
//! The paper's evaluation (Section 5.1) generates real-time workloads
//! from measured PARSEC benchmark characteristics: each benchmark is
//! profiled on the prototype under every cache/bandwidth allocation
//! `(c, b)` with `c = 2..20`, `b = 1..20`, yielding a *slowdown
//! surface*; random tasks then inherit a benchmark's surface scaled to
//! their own reference WCET.
//!
//! Without the prototype hardware, this crate substitutes a calibrated
//! *parametric* execution model per benchmark (see
//! [`BenchmarkProfile`]): execution time splits into a compute fraction
//! and a memory fraction; the memory fraction scales with a cache-miss
//! curve (working-set knee) and with the reciprocal of allocated
//! bandwidth. The thirteen profiles are named after the PARSEC suite
//! and calibrated so that maximum slowdowns span the ≈1.2–4.5× range
//! of published PARSEC characterizations, with the memory-bound
//! members (`canneal`, `streamcluster`, …) at the high end and the
//! compute-bound members (`swaptions`, `blackscholes`) at the low end.
//!
//! Taskset synthesis ([`TasksetGenerator`]) follows the paper exactly:
//! harmonic periods uniformly covering \[100, 1100\] ms, task
//! utilizations from a uniform or one of three bimodal distributions,
//! task WCET surfaces derived from a uniformly chosen benchmark, and
//! tasks added until the target taskset reference utilization is
//! reached.
//!
//! # Example
//!
//! ```
//! use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};
//! use vc2m_model::Platform;
//!
//! let platform = Platform::platform_a();
//! let config = TasksetConfig::new(1.0, UtilizationDist::Uniform);
//! let mut generator = TasksetGenerator::new(platform.resources(), config, 42);
//! let taskset = generator.generate();
//! assert!(taskset.reference_utilization() >= 1.0);
//! assert!(taskset.is_harmonic());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Robustness: non-test code surfaces failures as typed errors; the few
// invariant-backed `expect`s and documented panics carry a targeted,
// justified `#[allow]`. CI runs clippy with `-D warnings`, making these
// denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod distributions;
mod generator;
mod profiles;
mod table;

pub use distributions::UtilizationDist;
pub use generator::{TasksetConfig, TasksetGenerator};
pub use profiles::{BenchmarkProfile, ParsecBenchmark};
