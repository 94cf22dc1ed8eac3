//! Memory-bandwidth regulation substrate.
//!
//! Reproduces the vC²M bandwidth regulator of Section 3.2 / Figure 1 in
//! simulation. On the real prototype, an unused hardware performance
//! counter on each core counts last-level-cache misses (≈ memory
//! requests); the counter is *preset* so that it overflows exactly when
//! the core exhausts its per-period budget; the LAPIC delivers the
//! overflow interrupt to the *BW enforcer* handler, which tells the
//! hypervisor scheduler to de-schedule the core's VCPU and leave the
//! core **idle** (unlike MemGuard, which keeps it busy); the periodic
//! *BW refiller* handler replenishes every core's budget and re-invokes
//! the scheduler on throttled cores.
//!
//! The simulation mirrors each component:
//!
//! * [`PerfCounter`] — a preset overflow counter plus the overflow
//!   status bit;
//! * [`BwRegulator`] — per-core budgets and throttle flags,
//!   the enforcer path ([`BwRegulator::record_requests`]) and the
//!   refiller path ([`BwRegulator::replenish_all`]);
//! * [`budget_requests_per_period`] — converts a bandwidth-partition
//!   count into a per-period memory-request budget.
//!
//! # Example
//!
//! ```
//! use vc2m_membw::{BwRegulator, RegulatorConfig, ThrottleAction};
//!
//! # fn main() -> Result<(), vc2m_membw::MembwError> {
//! let config = RegulatorConfig::new(4, 1.0)?; // 4 cores, 1 ms period
//! let mut regulator = BwRegulator::new(config);
//! regulator.set_budget(0, 1000)?;
//! // 999 requests: still under budget.
//! assert_eq!(regulator.record_requests(0, 999)?, ThrottleAction::None);
//! // The 1000th overflows the counter: the core is throttled.
//! assert_eq!(regulator.record_requests(0, 1)?, ThrottleAction::Throttle);
//! assert!(regulator.is_throttled(0));
//! // The refiller un-throttles it at the next period boundary.
//! let mut woken = Vec::new();
//! regulator.replenish_all(&mut woken);
//! assert_eq!(woken, vec![0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counter;
mod error;
mod regulator;

pub use counter::PerfCounter;
pub use error::MembwError;
pub use regulator::{budget_requests_per_period, BwRegulator, RegulatorConfig, ThrottleAction};

/// Size of one memory request (a cache-line fill), in bytes. Memory
/// traffic is accounted in last-level-cache misses, each of which
/// transfers one 64-byte line — the same accounting MemGuard and the
/// paper use.
pub const CACHE_LINE_BYTES: u64 = 64;
