//! Error type for the analysis crate.

use std::error::Error;
use std::fmt;
use vc2m_model::ModelError;
use vc2m_sched::dbf::InvalidDemandError;
use vc2m_sched::sbf::SolverError;

/// Error returned by the schedulability analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A taskset that must be non-empty was empty.
    EmptyTaskset,
    /// Theorem 2 requires a harmonic taskset; this one is not.
    NotHarmonic,
    /// Flattening requires one VCPU per task, but the VM's VCPU cap is
    /// too small.
    TooManyTasks {
        /// Number of tasks in the VM.
        tasks: usize,
        /// The VM's VCPU cap.
        max_vcpus: usize,
    },
    /// An overhead cost was negative or not finite.
    InvalidOverhead {
        /// Name of the offending cost, e.g. `"vcpu_event_ms"`.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An underlying model constructor rejected the computed
    /// parameters.
    Model(ModelError),
    /// A task's `(period, wcet)` pair was not a valid demand.
    Demand(InvalidDemandError),
    /// The minimal-budget solver refused its inputs.
    Solver(SolverError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyTaskset => write!(f, "taskset must not be empty"),
            AnalysisError::NotHarmonic => {
                write!(f, "overhead-free analysis requires a harmonic taskset")
            }
            AnalysisError::TooManyTasks { tasks, max_vcpus } => write!(
                f,
                "flattening needs {tasks} VCPUs but the VM supports only {max_vcpus}"
            ),
            AnalysisError::InvalidOverhead { what, value } => {
                write!(f, "{what} must be non-negative and finite, got {value}")
            }
            AnalysisError::Model(e) => write!(f, "model error: {e}"),
            AnalysisError::Demand(e) => write!(f, "demand: {e}"),
            AnalysisError::Solver(e) => write!(f, "budget solver: {e}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Model(e) => Some(e),
            AnalysisError::Demand(e) => Some(e),
            AnalysisError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for AnalysisError {
    fn from(e: ModelError) -> Self {
        AnalysisError::Model(e)
    }
}

impl From<InvalidDemandError> for AnalysisError {
    fn from(e: InvalidDemandError) -> Self {
        AnalysisError::Demand(e)
    }
}

impl From<SolverError> for AnalysisError {
    fn from(e: SolverError) -> Self {
        AnalysisError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(AnalysisError::NotHarmonic.to_string().contains("harmonic"));
        let e = AnalysisError::Model(ModelError::Empty { what: "taskset" });
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&AnalysisError::EmptyTaskset).is_none());
        let e = AnalysisError::Demand(InvalidDemandError { index: 0, pair: (-1.0, 0.0) });
        assert!(e.to_string().starts_with("demand: "));
        assert!(Error::source(&e).is_some());
    }
}
