//! Error type for the allocation crate.

use std::error::Error;
use std::fmt;
use vc2m_analysis::AnalysisError;
use vc2m_model::ModelError;

/// Error returned by allocation algorithms and allocation-result
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// The VM set was empty.
    NoVms,
    /// An underlying analysis failed.
    Analysis(AnalysisError),
    /// An underlying model constructor failed.
    Model(ModelError),
    /// A produced allocation violates an invariant (used by
    /// [`SystemAllocation::verify`](crate::SystemAllocation::verify)).
    InvalidAllocation {
        /// Description of the violated invariant.
        detail: String,
    },
    /// A fleet fault scenario failed validation when it was armed
    /// (out-of-range host, fault targeting an already-dead host, a
    /// plan that would leave no survivor, or a malformed HI-VM set) —
    /// mirroring the hypervisor fault plan's validated-at-attach rule.
    FaultPlan {
        /// What was wrong with the scenario.
        detail: String,
    },
    /// The per-core partition grants sum past the platform totals —
    /// an admission-state invariant breach surfaced by
    /// [`AdmissionEngine`](crate::AdmissionEngine)'s spare-pool
    /// accounting instead of being masked as "zero spare".
    CoreOversubscription {
        /// Cache partitions granted across all cores.
        cache_allocated: u32,
        /// Cache partitions the platform has.
        cache_total: u32,
        /// Bandwidth partitions granted across all cores.
        bw_allocated: u32,
        /// Bandwidth partitions the platform has.
        bw_total: u32,
    },
    /// A fleet replay was asked to run on zero threads.
    ZeroThreads,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoVms => write!(f, "at least one VM is required"),
            AllocError::Analysis(e) => write!(f, "analysis error: {e}"),
            AllocError::Model(e) => write!(f, "model error: {e}"),
            AllocError::InvalidAllocation { detail } => {
                write!(f, "invalid allocation: {detail}")
            }
            AllocError::FaultPlan { detail } => {
                write!(f, "invalid fleet fault scenario: {detail}")
            }
            AllocError::CoreOversubscription {
                cache_allocated,
                cache_total,
                bw_allocated,
                bw_total,
            } => write!(
                f,
                "core allocation oversubscribed: cache {cache_allocated}/{cache_total}, \
                 bandwidth {bw_allocated}/{bw_total}"
            ),
            AllocError::ZeroThreads => write!(f, "fleet replay needs at least one thread"),
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::Analysis(e) => Some(e),
            AllocError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AnalysisError> for AllocError {
    fn from(e: AnalysisError) -> Self {
        AllocError::Analysis(e)
    }
}

impl From<ModelError> for AllocError {
    fn from(e: ModelError) -> Self {
        AllocError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(AllocError::NoVms.to_string().contains("VM"));
        let e = AllocError::Analysis(AnalysisError::NotHarmonic);
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&AllocError::NoVms).is_none());
    }
}
