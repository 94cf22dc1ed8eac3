//! Order statistics and the estimators the benchmark reports.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it reads `null`.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`
/// samples: the sample at rank ⌈p·n/100⌉. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of p99, p90 and p50 that has [`MIN_BEYOND`] samples
/// beyond it, with its level; the plain median when none has.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    [99.0, 90.0, 50.0]
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
        .unwrap_or_else(|| (50.0, median(sorted)))
}

/// The median of ascending `sorted` samples (mean of the middle two
/// for an even count); NaN when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values` by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads computed here match the ones the benchmark's
/// acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The per-request minimum over passes: element `i` is the smallest
/// time request `i` took in any pass. Every pass replays the identical
/// request stream to an identical engine state, so the work per
/// request is the same in each pass and only interference (other
/// processes, interrupts, frequency changes) differs; that only ever
/// adds time, and the minimum keeps the least disturbed measurement.
///
/// # Panics
///
/// Panics if there are no passes or the passes differ in length.
pub fn per_item_minimum(passes: &[Vec<f64>]) -> Vec<f64> {
    let first = passes.first().expect("at least one pass");
    let mut minimum = first.clone();
    for pass in &passes[1..] {
        assert_eq!(pass.len(), minimum.len(), "passes replay the same items");
        for (m, &v) in minimum.iter_mut().zip(pass) {
            *m = m.min(v);
        }
    }
    minimum
}

/// FNV-1a over `bytes`: the digest that compares outputs across passes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        // p50 of 1..=100 is rank 50; p99 is rank 99 with one beyond.
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), None);
        // 1000 samples leave exactly ten beyond p99.
        let v = ramp(1000);
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990, nine beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median of 19 samples is rank 10 with nine beyond.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_level_by_level() {
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(200)), (90.0, 180.0));
        assert_eq!(tail(&ramp(30)), (50.0, 15.0));
        assert_eq!(tail(&ramp(3)), (50.0, 2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn per_item_minimum_takes_each_requests_fastest_pass() {
        let passes = vec![
            vec![5.0, 1.0, 9.0],
            vec![4.0, 2.0, 9.5],
            vec![6.0, 3.0, 8.0],
        ];
        assert_eq!(per_item_minimum(&passes), vec![4.0, 1.0, 8.0]);
        assert_eq!(per_item_minimum(&passes[..1]), passes[0]);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn per_item_minimum_rejects_ragged_passes() {
        per_item_minimum(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
