//! Shared-cache allocation substrate: an Intel-CAT-style capacity
//! bitmask model with a vCAT virtualization layer.
//!
//! The paper's prototype partitions the shared last-level cache with
//! Intel's Cache Allocation Technology (CAT) through the vCAT system
//! \[16\] built into its modified Xen. This crate reproduces that
//! substrate in simulation:
//!
//! * [`CacheMask`] — a CAT capacity bitmask (CBM): a **contiguous**,
//!   non-empty run of ways, exactly as the hardware requires;
//! * [`CatController`] — the physical controller: class-of-service
//!   (COS) registers holding masks, and a per-core COS assignment;
//! * [`VcatDomain`] — the vCAT layer: each VM operates on *virtual*
//!   partition indices which are translated to the physical region the
//!   hypervisor assigned to the VM/core;
//! * [`PartitionPlan`] — turns the per-core partition *counts* produced
//!   by the allocation algorithms into disjoint contiguous physical
//!   masks, and verifies the isolation invariant (no two cores share a
//!   partition).
//!
//! With disjoint masks, concurrently running tasks cannot evict each
//! other's cache lines — the cache-isolation half of vC²M's
//! interference mitigation.
//!
//! # Example
//!
//! ```
//! use vc2m_cat::{CacheMask, PartitionPlan};
//!
//! # fn main() -> Result<(), vc2m_cat::CatError> {
//! // Cores get 6, 6 and 8 of 20 partitions: disjoint contiguous runs.
//! let plan = PartitionPlan::contiguous(20, &[6, 6, 8])?;
//! assert!(plan.is_isolated());
//! assert_eq!(plan.mask_for_core(2).ways(), 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Robustness: non-test code reports failures as typed `CatError`s or
// documented `# Panics` preconditions, never a bare unwrap. CI runs
// clippy with `-D warnings`, making these denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod controller;
mod error;
mod mask;
mod plan;
mod vcat;

pub use controller::{CatController, CosId};
pub use error::CatError;
pub use mask::CacheMask;
pub use plan::PartitionPlan;
pub use vcat::VcatDomain;
