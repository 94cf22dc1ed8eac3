//! Simulation configuration.

use crate::error::SimConfigError;
use vc2m_model::SimDuration;

/// Whether vC²M's cache and bandwidth isolation is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationMode {
    /// Cache partitions are disjoint per core and the bandwidth
    /// regulator enforces per-core budgets (the vC²M configuration).
    Isolated,
    /// No partitioning, no regulation: concurrent tasks contend for
    /// the shared cache and memory bus (the configuration the paper's
    /// Section 3.3 study compares against).
    Shared,
}

/// Configuration of a hypervisor simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// How long to simulate. The default of 10 s covers more than two
    /// hyperperiods of the paper's workloads (periods ≤ 1100 ms with
    /// synchronized releases, so the first hyperperiod after time zero
    /// is the critical one).
    pub horizon: SimDuration,
    /// The bandwidth-regulation period (the paper uses a small
    /// configurable interval, e.g. 1 ms — the default).
    pub regulation_period: SimDuration,
    /// Isolation mode (default: isolated, the vC²M configuration).
    pub isolation: IsolationMode,
    /// Memory requests issued per millisecond of execution by each
    /// task, as a fraction of its core's per-period budget rate.
    /// The default of 0 disables traffic generation: WCET surfaces
    /// already internalize bandwidth stalls (they are measured *under*
    /// regulation), so validation runs must not double-charge them.
    /// Interference studies set this to exercise the regulator.
    pub traffic_fraction: f64,
    /// Whether VCPU first releases are synchronized with their tasks'
    /// first releases (the Section 3.2 hypercall; default true).
    /// Disabling it reproduces the classical unsynchronized setting in
    /// which a task can be released just after its VCPU's budget was
    /// exhausted.
    pub synchronize_releases: bool,
    /// Capacity of the event trace kept for debugging (0 disables).
    pub trace_capacity: usize,
    /// Whether to record each VCPU's exact execution intervals for
    /// well-regulated supply verification
    /// (see [`SupplyLog`](crate::SupplyLog)). Off by default — logs
    /// grow with the number of preemptions.
    pub record_supply: bool,
    /// Whether to time each handler invocation for the paper's overhead
    /// Tables 1 and 2 (see
    /// [`SimReport::handler_overheads`](crate::SimReport)). Off by
    /// default — handlers are then only counted, and each invocation
    /// saves two reads of the tick counter.
    pub handler_timing: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: SimDuration::from_ms(10_000.0),
            regulation_period: SimDuration::from_ms(1.0),
            isolation: IsolationMode::Isolated,
            traffic_fraction: 0.0,
            synchronize_releases: true,
            trace_capacity: 0,
            record_supply: false,
            handler_timing: false,
        }
    }
}

impl SimConfig {
    /// Returns a copy with a different horizon.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Returns a copy with traffic generation at `fraction` of each
    /// core's budget rate (> 1 forces throttling). A negative or
    /// non-finite fraction is rejected by [`SimConfig::validate`] when
    /// the simulation is built.
    pub fn with_traffic_fraction(mut self, fraction: f64) -> Self {
        self.traffic_fraction = fraction;
        self
    }

    /// Returns a copy with the given trace capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Returns a copy with release synchronization toggled.
    pub fn with_release_synchronization(mut self, on: bool) -> Self {
        self.synchronize_releases = on;
        self
    }

    /// Returns a copy with supply recording toggled.
    pub fn with_supply_recording(mut self, on: bool) -> Self {
        self.record_supply = on;
        self
    }

    /// Returns a copy with handler timing toggled.
    pub fn with_handler_timing(mut self, on: bool) -> Self {
        self.handler_timing = on;
        self
    }

    /// Re-validates every field. The fields are public (sweep drivers
    /// build configs directly), so the builder assertions can be
    /// bypassed; the simulator constructor calls this before building
    /// any state, turning a malformed config into a typed error
    /// instead of a hang (zero regulation period) or NaN-poisoned
    /// traffic accounting.
    ///
    /// # Errors
    ///
    /// * [`SimConfigError::NonPositiveRegulationPeriod`] if the
    ///   regulation period is zero;
    /// * [`SimConfigError::InvalidTrafficFraction`] if the traffic
    ///   fraction is NaN, infinite, or negative.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.regulation_period <= SimDuration::ZERO {
            return Err(SimConfigError::NonPositiveRegulationPeriod);
        }
        if !self.traffic_fraction.is_finite() || self.traffic_fraction < 0.0 {
            return Err(SimConfigError::InvalidTrafficFraction {
                value: self.traffic_fraction,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = SimConfig::default();
        assert_eq!(c.horizon, SimDuration::from_ms(10_000.0));
        assert_eq!(c.regulation_period, SimDuration::from_ms(1.0));
        assert_eq!(c.isolation, IsolationMode::Isolated);
        assert_eq!(c.traffic_fraction, 0.0);
        assert!(!c.handler_timing);
    }

    #[test]
    fn builders() {
        let c = SimConfig::default()
            .with_horizon(SimDuration::from_ms(500.0))
            .with_traffic_fraction(1.5)
            .with_trace_capacity(128)
            .with_handler_timing(true);
        assert_eq!(c.horizon.as_ms(), 500.0);
        assert_eq!(c.traffic_fraction, 1.5);
        assert_eq!(c.trace_capacity, 128);
        assert!(c.handler_timing);
    }

    #[test]
    fn negative_traffic_rejected() {
        // The builder takes any value; building the simulation returns
        // the typed error instead of panicking.
        let allocation = vc2m_alloc::SystemAllocation::new(Vec::new(), Vec::new());
        let tasks: vc2m_model::TaskSet = std::iter::empty().collect();
        for fraction in [-0.1, f64::NAN] {
            let config = SimConfig::default().with_traffic_fraction(fraction);
            let built = crate::HypervisorSim::new(
                &vc2m_model::Platform::platform_a(),
                &allocation,
                &tasks,
                config,
            );
            assert!(
                matches!(
                    built,
                    Err(crate::SimBuildError::Config(
                        SimConfigError::InvalidTrafficFraction { .. }
                    ))
                ),
                "fraction {fraction}: {built:?}"
            );
        }
    }

    #[test]
    fn default_config_validates() {
        SimConfig::default().validate().expect("default is valid");
    }

    #[test]
    fn zero_regulation_period_rejected() {
        let config = SimConfig {
            regulation_period: SimDuration::ZERO,
            ..SimConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(SimConfigError::NonPositiveRegulationPeriod)
        );
    }

    #[test]
    fn nan_traffic_fraction_rejected() {
        let config = SimConfig {
            traffic_fraction: f64::NAN,
            ..SimConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(SimConfigError::InvalidTrafficFraction { .. })
        ));
    }

    #[test]
    fn infinite_traffic_fraction_rejected() {
        let config = SimConfig {
            traffic_fraction: f64::INFINITY,
            ..SimConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(SimConfigError::InvalidTrafficFraction { .. })
        ));
    }

    #[test]
    fn negative_traffic_fraction_rejected_by_validate() {
        let config = SimConfig {
            traffic_fraction: -0.5,
            ..SimConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(SimConfigError::InvalidTrafficFraction { value: -0.5 })
        );
    }
}
