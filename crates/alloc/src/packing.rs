//! Bin-packing primitives shared by the allocation algorithms.
//!
//! Two disciplines appear in the paper's evaluation:
//!
//! * **worst-fit decreasing** — used by the heuristic phases to
//!   *balance* load ("such that all cores have similar total reference
//!   utilizations"): each item goes to the least-loaded bin;
//! * **best-fit decreasing** — used by the baseline solutions: each
//!   item goes to the fullest bin it still fits in, opening a new bin
//!   otherwise.

/// An item to pack: an opaque id plus its size (utilization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Caller-side identifier (e.g. an index into a VCPU list).
    pub id: usize,
    /// The item's size, e.g. its reference utilization.
    pub size: f64,
}

impl Item {
    /// Creates an item.
    ///
    /// # Panics
    ///
    /// Panics if `size` is negative or non-finite.
    pub fn new(id: usize, size: f64) -> Self {
        assert!(
            size.is_finite() && size >= 0.0,
            "item size must be non-negative and finite, got {size}"
        );
        Item { id, size }
    }
}

/// Sorts items by decreasing size (ties broken by id for determinism).
///
/// The sort is unstable, so it never allocates: items that compare
/// equal have the same id and equal sizes, and every caller's ids are
/// distinct indices.
///
/// # Panics
///
/// Panics if a size is NaN, which [`Item::new`] never builds.
pub fn sort_decreasing(items: &mut [Item]) {
    items.sort_unstable_by(|a, b| {
        // Invariant: every item in this crate comes from `Item::new`,
        // which admits only finite sizes.
        #[allow(clippy::expect_used)]
        b.size
            .partial_cmp(&a.size)
            .expect("sizes are finite")
            .then(a.id.cmp(&b.id))
    });
}

/// The index of the least of `loads`, the lowest index on ties (the
/// worst-fit choice); `0` for an empty slice, which no caller passes.
pub(crate) fn least_loaded(loads: &[f64]) -> usize {
    let mut best = 0;
    for (i, &load) in loads.iter().enumerate().skip(1) {
        if load < loads[best] {
            best = i;
        }
    }
    best
}

/// Worst-fit packing into a **fixed** number of bins: each item (taken
/// in the given order) goes to the currently least-loaded bin. Returns
/// the item ids per bin. Never fails — worst-fit into fixed bins is a
/// balancing discipline, not a feasibility test.
///
/// # Panics
///
/// Panics if `bins` is zero while items are non-empty.
pub fn worst_fit_fixed(items: &[Item], bins: usize) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new(); bins];
    }
    assert!(bins > 0, "need at least one bin");
    let mut contents: Vec<Vec<usize>> = vec![Vec::new(); bins];
    let mut loads = vec![0.0f64; bins];
    for item in items {
        let best = least_loaded(&loads);
        contents[best].push(item.id);
        loads[best] += item.size;
    }
    contents
}

/// Best-fit packing with capacity-1 bins, opening new bins as needed:
/// each item (in the given order) goes to the *fullest* bin whose load
/// plus the item stays ≤ 1; a new bin opens if none fits. Items larger
/// than 1 get a dedicated bin (they are infeasible anyway; the caller's
/// schedulability check rejects them).
pub fn best_fit_open(items: &[Item]) -> Vec<Vec<usize>> {
    let mut contents: Vec<Vec<usize>> = Vec::new();
    let mut loads: Vec<f64> = Vec::new();
    for item in items {
        // The fullest bin that still fits, the lowest index on ties.
        let mut candidate: Option<usize> = None;
        for (bin, &load) in loads.iter().enumerate() {
            if load + item.size <= 1.0 + 1e-9 && candidate.is_none_or(|best| load > loads[best]) {
                candidate = Some(bin);
            }
        }
        match candidate {
            Some(bin) => {
                contents[bin].push(item.id);
                loads[bin] += item.size;
            }
            None => {
                contents.push(vec![item.id]);
                loads.push(item.size);
            }
        }
    }
    contents
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(sizes: &[f64]) -> Vec<Item> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Item::new(i, s))
            .collect()
    }

    #[test]
    fn sort_is_decreasing_and_stable_by_id() {
        let mut v = items(&[0.2, 0.5, 0.2, 0.9]);
        sort_decreasing(&mut v);
        let ids: Vec<usize> = v.iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![3, 1, 0, 2]);
    }

    #[test]
    fn worst_fit_balances() {
        let mut v = items(&[0.6, 0.5, 0.4, 0.3]);
        sort_decreasing(&mut v);
        let bins = worst_fit_fixed(&v, 2);
        // 0.6 → bin0; 0.5 → bin1; 0.4 → bin1 (0.5 < 0.6); 0.3 → bin0.
        assert_eq!(bins[0], vec![0, 3]);
        assert_eq!(bins[1], vec![1, 2]);
    }

    #[test]
    fn worst_fit_empty_items() {
        let bins = worst_fit_fixed(&[], 3);
        assert_eq!(bins.len(), 3);
        assert!(bins.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn worst_fit_zero_bins_panics() {
        let _ = worst_fit_fixed(&items(&[0.5]), 0);
    }

    #[test]
    fn best_fit_prefers_fullest_feasible_bin() {
        // 0.6 opens bin0; 0.5 opens bin1 (does not fit bin0);
        // 0.35 goes to bin0 (fuller than bin1 and fits).
        let v = items(&[0.6, 0.5, 0.35]);
        let bins = best_fit_open(&v);
        assert_eq!(bins, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn best_fit_opens_bins_as_needed() {
        let v = items(&[0.9, 0.9, 0.9]);
        let bins = best_fit_open(&v);
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn best_fit_oversized_item_gets_own_bin() {
        let v = items(&[1.5, 0.2]);
        let bins = best_fit_open(&v);
        assert_eq!(bins[0], vec![0]);
        assert_eq!(bins[1], vec![1]);
    }

    #[test]
    fn best_fit_exact_fill() {
        let v = items(&[0.5, 0.5, 0.5]);
        let bins = best_fit_open(&v);
        assert_eq!(bins, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_rejected() {
        let _ = Item::new(0, -0.1);
    }
}
