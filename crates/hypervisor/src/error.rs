//! Typed runtime errors for the simulator.
//!
//! Historically the simulator panicked on malformed input (unknown
//! task offsets, out-of-range reallocation targets, overcommitted
//! reallocations discovered at event-fire time). Robust operation —
//! fault-injection campaigns feed the simulator adversarial inputs by
//! design — demands that every such path surface as a typed error the
//! caller can handle, log, and degrade around. [`SimError`] is that
//! type: it is returned by the `with_*` configuration builders and by
//! `run`/`run_observed`, whose in-run failure modes
//! (today: an overcommitted dynamic reallocation) are only detectable
//! when the event fires.

use std::error::Error;
use std::fmt;
use vc2m_model::{TaskId, VcpuId, VmId};

/// A malformed [`SimConfig`](crate::SimConfig).
///
/// The config struct has public fields (sweep drivers build it
/// directly) and its builder methods accept any value;
/// [`SimConfig::validate`](crate::SimConfig::validate) checks every
/// field and is called by the simulator constructor before any state
/// is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimConfigError {
    /// The bandwidth-regulation period is zero — the refiller would
    /// re-arm itself at the same instant forever.
    NonPositiveRegulationPeriod,
    /// The traffic fraction is NaN, infinite, or negative.
    InvalidTrafficFraction {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::NonPositiveRegulationPeriod => {
                write!(f, "regulation period must be positive")
            }
            SimConfigError::InvalidTrafficFraction { value } => {
                write!(f, "traffic fraction must be finite and >= 0, got {value}")
            }
        }
    }
}

impl Error for SimConfigError {}

/// Error configuring or running a [`HypervisorSim`](crate::HypervisorSim).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A task id was not part of the simulated system.
    UnknownTask {
        /// The missing task.
        task: TaskId,
    },
    /// A VCPU id was not part of the simulated system.
    UnknownVcpu {
        /// The missing VCPU.
        vcpu: VcpuId,
    },
    /// A VM id owns no task in the simulated system.
    UnknownVm {
        /// The missing VM.
        vm: VmId,
    },
    /// A core index was out of range.
    UnknownCore {
        /// The requested core.
        core: usize,
        /// Number of cores the simulation has.
        cores: usize,
    },
    /// A first-release offset was negative or non-finite.
    InvalidOffset {
        /// The task the offset was for.
        task: TaskId,
        /// The rejected offset.
        offset_ms: f64,
    },
    /// A scheduled reallocation was structurally invalid (bad switch
    /// time, or an allocation outside the platform's resource space).
    InvalidReallocation {
        /// The targeted core.
        core: usize,
        /// What was wrong.
        detail: String,
    },
    /// A dynamic reallocation, applied at its switch instant against
    /// the allocations current at that moment, would overcommit the
    /// platform's partition budgets. Detected when the event fires, so
    /// it surfaces from `run*`, not from the builder.
    OvercommittedReallocation {
        /// The targeted core.
        core: usize,
        /// Total cache partitions after the switch.
        cache_total: u32,
        /// The platform's cache partition budget.
        cache_max: u32,
        /// Total bandwidth partitions after the switch.
        bw_total: u32,
        /// The platform's bandwidth partition budget.
        bw_max: u32,
    },
    /// A fault in an attached [`FaultPlan`](crate::fault::FaultPlan)
    /// carries an out-of-range parameter (non-finite overrun factor,
    /// zero window/delay/duration, ...).
    InvalidFault {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownTask { task } => write!(f, "unknown task {task}"),
            SimError::UnknownVcpu { vcpu } => write!(f, "unknown vcpu {vcpu}"),
            SimError::UnknownVm { vm } => write!(f, "no task of {vm} is simulated"),
            SimError::UnknownCore { core, cores } => {
                write!(f, "unknown core {core} (simulation has {cores})")
            }
            SimError::InvalidOffset { task, offset_ms } => {
                write!(
                    f,
                    "offset for {task} must be finite and >= 0, got {offset_ms}"
                )
            }
            SimError::InvalidReallocation { core, detail } => {
                write!(f, "invalid reallocation of core {core}: {detail}")
            }
            SimError::OvercommittedReallocation {
                core,
                cache_total,
                cache_max,
                bw_total,
                bw_max,
            } => write!(
                f,
                "reallocation of core {core} overcommits partitions \
                 (cache {cache_total}/{cache_max}, bw {bw_total}/{bw_max})"
            ),
            SimError::InvalidFault { detail } => write!(f, "invalid fault: {detail}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let cases: Vec<(SimError, &str)> = vec![
            (SimError::UnknownTask { task: TaskId(7) }, "T7"),
            (SimError::UnknownVcpu { vcpu: VcpuId(3) }, "V3"),
            (SimError::UnknownVm { vm: VmId(2) }, "VM2"),
            (SimError::UnknownCore { core: 9, cores: 4 }, "core 9"),
            (
                SimError::InvalidOffset {
                    task: TaskId(1),
                    offset_ms: -2.0,
                },
                "-2",
            ),
            (
                SimError::InvalidReallocation {
                    core: 0,
                    detail: "outside space".into(),
                },
                "outside space",
            ),
            (
                SimError::OvercommittedReallocation {
                    core: 1,
                    cache_total: 25,
                    cache_max: 20,
                    bw_total: 3,
                    bw_max: 20,
                },
                "25/20",
            ),
            (
                SimError::InvalidFault {
                    detail: "factor NaN".into(),
                },
                "factor NaN",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn config_error_display() {
        assert!(SimConfigError::NonPositiveRegulationPeriod
            .to_string()
            .contains("positive"));
        assert!(SimConfigError::InvalidTrafficFraction { value: f64::NAN }
            .to_string()
            .contains("NaN"));
    }
}
