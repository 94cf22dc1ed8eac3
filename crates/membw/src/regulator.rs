//! The per-core bandwidth regulator (BW enforcer + BW refiller).

use crate::{MembwError, PerfCounter, CACHE_LINE_BYTES};
use std::fmt;
use vc2m_simcore::MetricsRegistry;

/// Configuration of the bandwidth regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegulatorConfig {
    cores: usize,
    period_ms: f64,
}

impl RegulatorConfig {
    /// Creates a configuration for `cores` cores with the given
    /// regulation period in milliseconds (the paper uses a small
    /// configurable interval, e.g. 1 ms).
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::InvalidConfig`] if `cores` is zero or the
    /// period is not positive and finite.
    pub fn new(cores: usize, period_ms: f64) -> Result<Self, MembwError> {
        if cores == 0 {
            return Err(MembwError::InvalidConfig {
                detail: "regulator needs at least one core".into(),
            });
        }
        if !period_ms.is_finite() || period_ms <= 0.0 {
            return Err(MembwError::InvalidConfig {
                detail: format!("regulation period must be positive, got {period_ms}"),
            });
        }
        Ok(RegulatorConfig { cores, period_ms })
    }

    /// Number of cores regulated.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Regulation period in milliseconds.
    pub fn period_ms(&self) -> f64 {
        self.period_ms
    }
}

/// What the enforcer decided after new memory requests were counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleAction {
    /// The core is still within budget; nothing to do.
    None,
    /// The counter just overflowed: the hypervisor must de-schedule the
    /// core's VCPU and leave the core idle for the rest of the period.
    Throttle,
    /// The core was already throttled (requests raced in before the
    /// de-schedule took effect); no new interrupt fires.
    AlreadyThrottled,
}

/// Per-core regulator state.
#[derive(Debug, Clone, PartialEq)]
struct CoreRegulator {
    budget: u64,
    counter: PerfCounter,
    throttled: bool,
    /// Requests observed in the current period (for statistics).
    used_this_period: u64,
}

/// The simulated bandwidth regulator: one preset performance counter
/// and throttle flag per core, and the enforcer/refiller logic of
/// Figure 1.
///
/// The regulator is deliberately scheduler-agnostic: it reports
/// [`ThrottleAction`]s and un-throttle lists, and the hypervisor
/// simulator (which owns the scheduler) acts on them — mirroring the
/// real design, where the interrupt handlers *invoke* the RTDS
/// scheduler rather than schedule themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct BwRegulator {
    config: RegulatorConfig,
    /// Per-core state. The `throttled` flags are the shared throttle
    /// state of Fig. 1 (a bitmask under a lock in the prototype); a
    /// flag per core has no limit on the core count.
    cores: Vec<CoreRegulator>,
    periods_elapsed: u64,
    total_throttles: u64,
}

impl BwRegulator {
    /// Creates a regulator in the setup state: every core's budget is
    /// unlimited (`u64::MAX` requests) until [`BwRegulator::set_budget`]
    /// is called, so an unconfigured regulator never throttles.
    pub fn new(config: RegulatorConfig) -> Self {
        let cores = (0..config.cores())
            .map(|_| CoreRegulator {
                budget: u64::MAX >> 16,
                counter: PerfCounter::preset(u64::MAX >> 16),
                throttled: false,
                used_this_period: 0,
            })
            .collect();
        BwRegulator {
            config,
            cores,
            periods_elapsed: 0,
            total_throttles: 0,
        }
    }

    /// The regulator's configuration.
    pub fn config(&self) -> &RegulatorConfig {
        &self.config
    }

    /// Sets a core's per-period request budget and presets its counter
    /// (the setup component's per-core work).
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn set_budget(&mut self, core: usize, requests_per_period: u64) -> Result<(), MembwError> {
        let cores = self.cores.len();
        let state = self
            .cores
            .get_mut(core)
            .ok_or(MembwError::UnknownCore { core, cores })?;
        state.budget = requests_per_period;
        state.counter.reset(requests_per_period);
        state.throttled = requests_per_period == 0;
        Ok(())
    }

    /// A core's configured budget in requests per period.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn budget(&self, core: usize) -> Result<u64, MembwError> {
        let cores = self.cores.len();
        self.cores
            .get(core)
            .map(|c| c.budget)
            .ok_or(MembwError::UnknownCore { core, cores })
    }

    /// Requests a core may still issue in the current period.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn remaining(&self, core: usize) -> Result<u64, MembwError> {
        let cores = self.cores.len();
        self.cores
            .get(core)
            .map(|c| c.counter.remaining())
            .ok_or(MembwError::UnknownCore { core, cores })
    }

    /// Whether a core is currently throttled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (queries on unknown cores are a
    /// caller bug, unlike configuration calls which may be driven by
    /// external input).
    pub fn is_throttled(&self, core: usize) -> bool {
        self.cores[core].throttled
    }

    /// The throttled cores, ascending.
    pub fn throttled_cores(&self) -> impl Iterator<Item = usize> + '_ {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.throttled)
            .map(|(core, _)| core)
    }

    /// The enforcer path: counts `requests` memory requests from
    /// `core`, and reports whether the overflow interrupt fires.
    ///
    /// # Errors
    ///
    /// Returns [`MembwError::UnknownCore`] if `core` is out of range.
    pub fn record_requests(
        &mut self,
        core: usize,
        requests: u64,
    ) -> Result<ThrottleAction, MembwError> {
        let cores = self.cores.len();
        let state = self
            .cores
            .get_mut(core)
            .ok_or(MembwError::UnknownCore { core, cores })?;
        state.used_this_period += requests;
        if state.throttled {
            state.counter.add(requests);
            return Ok(ThrottleAction::AlreadyThrottled);
        }
        if state.counter.add(requests) {
            state.throttled = true;
            self.total_throttles += 1;
            Ok(ThrottleAction::Throttle)
        } else {
            Ok(ThrottleAction::None)
        }
    }

    /// The refiller path: at a regulation-period boundary, replenishes
    /// every core's budget and clears overflow status. Appends to
    /// `woken` the cores that were throttled, ascending (the hypervisor
    /// must invoke its scheduler on each to resume a VCPU). A
    /// caller-owned buffer keeps the per-period refill free of
    /// allocation.
    pub fn replenish_all(&mut self, woken: &mut Vec<usize>) {
        self.periods_elapsed += 1;
        for (core, state) in self.cores.iter_mut().enumerate() {
            if state.throttled {
                woken.push(core);
            }
            state.throttled = state.budget == 0;
            state.counter.reset(state.budget);
            state.used_this_period = 0;
        }
    }

    /// Number of regulation periods elapsed (refiller invocations).
    pub fn periods_elapsed(&self) -> u64 {
        self.periods_elapsed
    }

    /// Total throttle events since setup.
    pub fn total_throttles(&self) -> u64 {
        self.total_throttles
    }

    /// Exports the regulator's cumulative statistics into `out` under
    /// `prefix` (e.g. `"membw."`): counters `{prefix}periods_elapsed`,
    /// `{prefix}throttles` and `{prefix}cores`, plus the gauge
    /// `{prefix}period_ms`.
    ///
    /// Pull-only — reads accumulated state, never mutates the
    /// regulator, so exporting cannot perturb a simulation.
    pub fn export_metrics(&self, prefix: &str, out: &mut MetricsRegistry) {
        out.counter_add(&format!("{prefix}periods_elapsed"), self.periods_elapsed);
        out.counter_add(&format!("{prefix}throttles"), self.total_throttles);
        out.counter_add(&format!("{prefix}cores"), self.cores.len() as u64);
        out.gauge_set(&format!("{prefix}period_ms"), self.config.period_ms());
    }
}

impl fmt::Display for BwRegulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BwRegulator({} cores, period {}ms, throttled cores [",
            self.config.cores(),
            self.config.period_ms(),
        )?;
        for (i, core) in self.throttled_cores().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{core}")?;
        }
        f.write_str("])")
    }
}

/// Converts a bandwidth allocation of `partitions` partitions of
/// `partition_mbps` MB/s each into a per-regulation-period
/// memory-request budget (one request = one 64-byte line fill).
///
/// # Panics
///
/// Panics if `period_ms` is not positive and finite.
pub fn budget_requests_per_period(partitions: u32, partition_mbps: u32, period_ms: f64) -> u64 {
    assert!(
        period_ms.is_finite() && period_ms > 0.0,
        "regulation period must be positive, got {period_ms}"
    );
    let bytes_per_second = u64::from(partitions) * u64::from(partition_mbps) * 1_000_000;
    let bytes_per_period = bytes_per_second as f64 * (period_ms / 1e3);
    (bytes_per_period / CACHE_LINE_BYTES as f64).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regulator() -> BwRegulator {
        let mut r = BwRegulator::new(RegulatorConfig::new(4, 1.0).unwrap());
        for core in 0..4 {
            r.set_budget(core, 100).unwrap();
        }
        r
    }

    #[test]
    fn config_validates() {
        assert!(RegulatorConfig::new(0, 1.0).is_err());
        assert!(RegulatorConfig::new(4, 0.0).is_err());
        assert!(RegulatorConfig::new(4, f64::NAN).is_err());
    }

    #[test]
    fn unconfigured_core_never_throttles() {
        let mut r = BwRegulator::new(RegulatorConfig::new(1, 1.0).unwrap());
        assert_eq!(
            r.record_requests(0, 1_000_000_000).unwrap(),
            ThrottleAction::None
        );
    }

    #[test]
    fn throttles_exactly_at_budget() {
        let mut r = regulator();
        assert_eq!(r.record_requests(0, 99).unwrap(), ThrottleAction::None);
        assert_eq!(r.record_requests(0, 1).unwrap(), ThrottleAction::Throttle);
        assert!(r.is_throttled(0));
        assert!(r.throttled_cores().eq([0]));
        assert_eq!(
            r.record_requests(0, 1).unwrap(),
            ThrottleAction::AlreadyThrottled
        );
        assert_eq!(r.total_throttles(), 1);
    }

    #[test]
    fn cores_are_independent() {
        let mut r = regulator();
        r.record_requests(2, 150).unwrap();
        assert!(r.is_throttled(2));
        assert!(!r.is_throttled(0));
        assert!(r.throttled_cores().eq([2]));
    }

    #[test]
    fn replenish_unthrottles_and_reports() {
        let mut r = regulator();
        r.record_requests(1, 200).unwrap();
        r.record_requests(3, 200).unwrap();
        let mut woken = Vec::new();
        r.replenish_all(&mut woken);
        assert_eq!(woken, vec![1, 3]);
        assert_eq!(r.throttled_cores().count(), 0);
        assert!(!r.is_throttled(1));
        assert_eq!(r.remaining(1).unwrap(), 100);
        assert_eq!(r.periods_elapsed(), 1);
        // Guarantee survives: the core may again use its full budget.
        assert_eq!(r.record_requests(1, 99).unwrap(), ThrottleAction::None);
    }

    #[test]
    fn zero_budget_core_is_permanently_throttled() {
        let mut r = regulator();
        r.set_budget(0, 0).unwrap();
        assert!(r.is_throttled(0));
        let mut woken = Vec::new();
        r.replenish_all(&mut woken);
        assert_eq!(woken, vec![0], "refiller still reports it");
        assert!(r.is_throttled(0), "but it stays throttled");
    }

    #[test]
    fn replenish_appends_to_the_caller_buffer() {
        // The refill appends after whatever the caller left in the
        // buffer, and one call counts as one elapsed period.
        let mut r = regulator();
        r.record_requests(1, 250).unwrap();
        r.record_requests(3, 250).unwrap();
        let mut woken = vec![7];
        r.replenish_all(&mut woken);
        assert_eq!(woken, vec![7, 1, 3]);
        assert_eq!(r.throttled_cores().count(), 0);
        for core in 0..4 {
            assert_eq!(r.remaining(core).unwrap(), 100);
        }
        woken.clear();
        r.replenish_all(&mut woken);
        assert!(woken.is_empty(), "nothing throttled, nothing woken");
        assert_eq!(r.periods_elapsed(), 2);
    }

    #[test]
    fn unknown_core_errors() {
        let mut r = regulator();
        assert!(matches!(
            r.record_requests(9, 1),
            Err(MembwError::UnknownCore { core: 9, cores: 4 })
        ));
        assert!(r.set_budget(9, 1).is_err());
        assert!(r.budget(9).is_err());
        assert!(r.remaining(9).is_err());
    }

    #[test]
    fn budget_conversion() {
        // 1 partition × 60 MB/s × 1 ms = 60 KB = 937.5 cache lines.
        assert_eq!(budget_requests_per_period(1, 60, 1.0), 937);
        // 20 partitions: 20×.
        assert_eq!(budget_requests_per_period(20, 60, 1.0), 18_750);
        // Longer period scales linearly.
        assert_eq!(budget_requests_per_period(1, 60, 2.0), 1_875);
        assert_eq!(budget_requests_per_period(0, 60, 1.0), 0);
    }

    #[test]
    fn guaranteed_budget_each_period() {
        // The core receives its configured budget in *every* period:
        // run three periods at exactly the budget, never throttled
        // early, always throttled at the boundary request.
        let mut r = regulator();
        for _ in 0..3 {
            assert_eq!(r.record_requests(0, 100).unwrap(), ThrottleAction::Throttle);
            r.replenish_all(&mut Vec::new());
        }
        assert_eq!(r.total_throttles(), 3);
    }

    #[test]
    fn display() {
        let mut r = regulator();
        assert!(r.to_string().contains("4 cores"));
        r.record_requests(1, 200).unwrap();
        r.record_requests(3, 200).unwrap();
        assert!(r.to_string().contains("throttled cores [1, 3]"));
    }

    #[test]
    fn cores_past_64_have_their_own_throttle_state() {
        // Regression: a cached `u64` mask overflowed at core 64 in debug
        // builds and aliased core 64 onto core 0 in release builds.
        let mut r = BwRegulator::new(RegulatorConfig::new(65, 1.0).unwrap());
        r.set_budget(64, 10).unwrap();
        r.set_budget(0, 10).unwrap();
        assert_eq!(r.record_requests(64, 10).unwrap(), ThrottleAction::Throttle);
        assert!(r.is_throttled(64));
        assert!(!r.is_throttled(0));
        assert!(r.throttled_cores().eq([64]));
        let mut woken = Vec::new();
        r.replenish_all(&mut woken);
        assert_eq!(woken, vec![64]);
        assert!(!r.is_throttled(64));
        assert_eq!(r.throttled_cores().count(), 0);

        r.set_budget(0, 0).unwrap();
        r.set_budget(64, 5).unwrap();
        assert!(r.is_throttled(0));
        assert!(!r.is_throttled(64));
        assert!(r.throttled_cores().eq([0]));
    }

    #[test]
    fn metrics_export_reflects_counters() {
        let mut r = regulator();
        r.record_requests(0, 200).unwrap();
        r.replenish_all(&mut Vec::new());
        let mut m = MetricsRegistry::new();
        r.export_metrics("membw.", &mut m);
        assert_eq!(m.counter("membw.periods_elapsed"), Some(1));
        assert_eq!(m.counter("membw.throttles"), Some(1));
        assert_eq!(m.counter("membw.cores"), Some(4));
        assert_eq!(m.gauge("membw.period_ms"), Some(1.0));
    }
}
