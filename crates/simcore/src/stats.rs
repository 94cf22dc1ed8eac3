//! Online min/avg/max accumulator.

use std::cmp::Ordering;
use std::fmt;

/// Streaming minimum / average / maximum of a sequence of samples —
/// the statistic the paper reports for every overhead measurement
/// (Tables 1 and 2).
///
/// # Example
///
/// ```
/// use vc2m_simcore::MinAvgMax;
///
/// let mut stats = MinAvgMax::new();
/// for v in [0.33, 0.37, 1.15] {
///     stats.record(v);
/// }
/// assert_eq!(stats.min(), Some(0.33));
/// assert_eq!(stats.max(), Some(1.15));
/// assert_eq!(stats.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinAvgMax {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Same as [`MinAvgMax::new`]. (A derived `Default` would zero the
/// min/max sentinels, so any accumulator built with `or_default()`
/// would report a spurious minimum of 0 — the bug that once pinned
/// every handler-overhead minimum in the probe tables to 0.)
impl Default for MinAvgMax {
    fn default() -> Self {
        MinAvgMax::new()
    }
}

impl MinAvgMax {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MinAvgMax {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// An accumulator holding `count` samples summing to `sum`, with
    /// the given extremes; `count` 0 gives the empty accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `count` is positive and `sum`, `min` or `max` is not
    /// finite.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            return MinAvgMax::new();
        }
        assert!(
            sum.is_finite() && min.is_finite() && max.is_finite(),
            "summary must be finite, got sum {sum}, min {min}, max {max}"
        );
        MinAvgMax {
            count,
            sum,
            min,
            max,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — a NaN would silently poison
    /// every later statistic.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "sample must be finite, got {value}");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or `None` if no samples were recorded.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if no samples were recorded.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the samples, or `None` if no samples were recorded.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another accumulator into this one, as if all its samples
    /// had been recorded here.
    pub fn merge(&mut self, other: &MinAvgMax) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for MinAvgMax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.avg(), self.max()) {
            (Some(min), Some(avg), Some(max)) => {
                write!(f, "min {min:.2} | avg {avg:.2} | max {max:.2}")
            }
            _ => write!(f, "no samples"),
        }
    }
}

impl FromIterator<f64> for MinAvgMax {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = MinAvgMax::new();
        for v in iter {
            acc.record(v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_reports_none() {
        let s = MinAvgMax::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.avg(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn table1_style_stats() {
        let s: MinAvgMax = [0.33, 0.37, 1.15].into_iter().collect();
        assert_eq!(s.min(), Some(0.33));
        assert_eq!(s.max(), Some(1.15));
        let avg = s.avg().unwrap();
        assert!((avg - (0.33 + 0.37 + 1.15) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let mut s = MinAvgMax::new();
        s.record(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.avg(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn negative_samples_are_fine() {
        let s: MinAvgMax = [-1.0, 1.0].into_iter().collect();
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.avg(), Some(0.0));
    }

    #[test]
    fn from_parts_matches_recorded_samples() {
        let recorded: MinAvgMax = [1.0, 2.0, 6.0].into_iter().collect();
        assert_eq!(MinAvgMax::from_parts(3, 9.0, 1.0, 6.0), recorded);
        assert_eq!(MinAvgMax::from_parts(0, 0.0, 0.0, 0.0), MinAvgMax::new());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_rejected() {
        MinAvgMax::new().record(f64::NAN);
    }

    #[test]
    fn default_is_a_proper_empty_accumulator() {
        // Regression: the derived Default zeroed the sentinels, so the
        // first positive sample recorded into an `or_default()` entry
        // reported min 0 instead of the sample.
        let mut s = MinAvgMax::default();
        assert_eq!(s, MinAvgMax::new());
        s.record(2.5);
        assert_eq!(s.min(), Some(2.5));
        assert_eq!(s.max(), Some(2.5));
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a: MinAvgMax = [1.0, 2.0].into_iter().collect();
        let b: MinAvgMax = [0.5, 4.0].into_iter().collect();
        a.merge(&b);
        let combined: MinAvgMax = [1.0, 2.0, 0.5, 4.0].into_iter().collect();
        assert_eq!(a, combined);

        let mut c = MinAvgMax::new();
        c.merge(&combined);
        assert_eq!(c, combined);
        let mut d = combined.clone();
        d.merge(&MinAvgMax::new());
        assert_eq!(d, combined);
    }

    #[test]
    fn display_formats_three_fields() {
        let s: MinAvgMax = [1.0, 3.0].into_iter().collect();
        assert_eq!(s.to_string(), "min 1.00 | avg 2.00 | max 3.00");
    }
}

/// A sample set retaining every value, for exact quantiles.
///
/// [`MinAvgMax`] is the right tool for hot paths; `SampleSet` is for
/// offline analysis where tail percentiles matter (e.g. p99 response
/// times). Samples are stored unsorted and sorted lazily on the first
/// quantile query after an insert.
///
/// # Example
///
/// ```
/// use vc2m_simcore::SampleSet;
///
/// let mut s = SampleSet::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// assert_eq!(s.quantile(0.99), Some(99.0));
/// assert_eq!(s.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "sample must be finite, got {value}");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (nearest-rank), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            // `record` admits only finite samples, so `partial_cmp`
            // always orders them; `Equal` is never taken.
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Summary of the samples as a [`MinAvgMax`].
    pub fn summary(&self) -> MinAvgMax {
        self.samples.iter().copied().collect()
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleSet::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

#[cfg(test)]
mod sample_set_tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut s: SampleSet = (1..=10).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.1), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(5.0));
        assert_eq!(s.quantile(0.91), Some(10.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
    }

    #[test]
    fn empty_set_has_no_quantiles() {
        let mut s = SampleSet::new();
        assert_eq!(s.quantile(0.5), None);
        assert!(s.is_empty());
    }

    #[test]
    fn interleaved_inserts_and_queries() {
        let mut s = SampleSet::new();
        s.record(5.0);
        assert_eq!(s.quantile(0.5), Some(5.0));
        s.record(1.0);
        assert_eq!(s.quantile(0.5), Some(1.0));
        s.record(9.0);
        assert_eq!(s.quantile(1.0), Some(9.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn summary_matches_direct_accumulation() {
        let values = [3.0, 1.0, 2.0];
        let s: SampleSet = values.into_iter().collect();
        let direct: MinAvgMax = values.into_iter().collect();
        assert_eq!(s.summary(), direct);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn out_of_range_quantile_panics() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_sample_panics() {
        SampleSet::new().record(f64::INFINITY);
    }
}
