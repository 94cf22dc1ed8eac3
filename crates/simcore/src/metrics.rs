//! A typed metrics registry: named counters, gauges and histograms.
//!
//! The registry is the simulator-side half of the observability layer
//! (the trace buffer is the other): components that already *have*
//! deterministic counters — the hypervisor simulator's event loop, the
//! bandwidth regulator, the schedulability kernels — export them into
//! one [`MetricsRegistry`] under stable dotted names
//! (`sim.jobs.completed`, `membw.regulator.throttles`,
//! `analysis.kernel.min_budget`), and a single renderer turns the registry
//! into schema-stable JSON (see `vc2m_bench::timing::metrics_json`).
//!
//! Three metric kinds cover everything the reproduction measures:
//!
//! * **counters** — monotone `u64` event counts;
//! * **gauges** — point-in-time `f64` readings (a busy-time total, a
//!   hit rate);
//! * **histograms** — [`MinAvgMax`] sample summaries (response times,
//!   handler overheads).
//!
//! Names are held in [`BTreeMap`]s, so iteration — and therefore any
//! rendered export — is sorted and reproducible run to run. Exporting
//! is strictly *pull*: components mutate their own plain fields on hot
//! paths and copy them into a registry only when a report is built, so
//! an unused registry costs nothing.

use crate::MinAvgMax;
use std::collections::BTreeMap;

/// A named collection of counters, gauges and histogram summaries.
///
/// # Example
///
/// ```
/// use vc2m_simcore::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter_add("sim.jobs.completed", 41);
/// m.counter_add("sim.jobs.completed", 1);
/// m.gauge_set("sim.core0.busy_ms", 400.0);
/// m.observe("sim.response_ms", 2.5);
/// assert_eq!(m.counter("sim.jobs.completed"), Some(42));
/// assert_eq!(m.histogram("sim.response_ms").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, MinAvgMax>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        // Looked up before inserting so an existing counter's name is
        // not copied.
        match self.counters.get_mut(name) {
            Some(counter) => *counter += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — exports would render it as
    /// `null` and silently lose the reading.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "gauge {name} must be finite, got {value}");
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (see [`MinAvgMax::record`]).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Merges an already-accumulated summary into the histogram `name`.
    pub fn observe_summary(&mut self, name: &str, summary: &MinAvgMax) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(summary);
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The summary of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&MinAvgMax> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &MinAvgMax)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether the registry holds no metric at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", 1);
        m.counter_add("a", 2);
        m.counter_add("b", 0);
        assert_eq!(m.counter("a"), Some(3));
        assert_eq!(m.counter("b"), Some(0));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn iteration_is_name_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.counter_add("a.first", 1);
        m.counter_add("m.middle", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("rate", 0.5);
        m.gauge_set("rate", 0.75);
        assert_eq!(m.gauge("rate"), Some(0.75));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_gauge_rejected() {
        MetricsRegistry::new().gauge_set("bad", f64::NAN);
    }

    #[test]
    fn histograms_record_and_merge() {
        let mut m = MetricsRegistry::new();
        m.observe("r", 1.0);
        m.observe("r", 3.0);
        let pre: MinAvgMax = [5.0].into_iter().collect();
        m.observe_summary("r", &pre);
        let h = m.histogram("r").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn empty_registry_reports_empty() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(m.counters().count(), 0);
        let mut m2 = MetricsRegistry::new();
        m2.observe("x", 0.0);
        assert!(!m2.is_empty());
    }
}
