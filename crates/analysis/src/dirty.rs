//! Dirty-set tracking for incremental re-verification.
//!
//! The admission engine (PR 7) warm-starts from the current allocation:
//! when a request perturbs the system, only the cores whose *content*
//! changed — a VCPU added, a partition granted, a core opened — need
//! their schedulability re-established. Everything else was proven when
//! it last changed, and the proof still stands because the EDF core
//! test depends only on the core's own VCPUs and its own `Alloc`.
//!
//! `DirtyCores` is the plumbing for that rule: callers mark the core
//! indices they touched, and the partial verifier re-runs the
//! schedulability kernel for exactly that set (structural invariants —
//! partition budgets, assignment completeness — are always checked in
//! full; they are cheap and global).

/// A deduplicated, order-preserving set of core indices to re-verify.
///
/// Optimized for the admission path: a handful of cores per request,
/// marked in placement order, iterated once. Marking is idempotent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyCores {
    indices: Vec<usize>,
}

impl DirtyCores {
    /// An empty dirty set (nothing needs re-verification).
    pub fn new() -> Self {
        DirtyCores::default()
    }

    /// A dirty set covering all of `n` cores — partial verification
    /// with this set is exactly a full verification.
    pub fn all(n: usize) -> Self {
        DirtyCores {
            indices: (0..n).collect(),
        }
    }

    /// Marks core `k` dirty. Idempotent; preserves first-mark order.
    pub fn mark(&mut self, k: usize) {
        if !self.indices.contains(&k) {
            self.indices.push(k);
        }
    }

    /// Whether core `k` is marked dirty.
    pub fn contains(&self, k: usize) -> bool {
        self.indices.contains(&k)
    }

    /// Iterates the dirty core indices in first-mark order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().copied()
    }

    /// Number of dirty cores.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Clears the set for reuse (keeps the backing storage).
    pub fn clear(&mut self) {
        self.indices.clear();
    }

    /// Merges another dirty set into this one (deduplicated).
    pub fn merge(&mut self, other: &DirtyCores) {
        for k in other.iter() {
            self.mark(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_is_idempotent_and_ordered() {
        let mut d = DirtyCores::new();
        d.mark(3);
        d.mark(1);
        d.mark(3);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(d.len(), 2);
        assert!(d.contains(1));
        assert!(!d.contains(0));
    }

    #[test]
    fn all_covers_every_core() {
        let d = DirtyCores::all(4);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(!d.is_empty());
    }

    #[test]
    fn clear_and_merge() {
        let mut a = DirtyCores::new();
        a.mark(0);
        let mut b = DirtyCores::new();
        b.mark(2);
        b.mark(0);
        a.merge(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2]);
        a.clear();
        assert!(a.is_empty());
    }
}
