//! Deterministic EDF ready queue.
//!
//! The hypervisor and the guest OS in the simulation both schedule by
//! Earliest Deadline First. The paper's well-regulated VCPU mechanism
//! (Section 3.2) additionally requires a *deterministic tie-breaking
//! rule* for equal absolute deadlines: first the smaller period wins,
//! then the smaller index. [`EdfKey`] encodes exactly that ordering,
//! and [`ReadyQueue`] is a priority queue over it.

use vc2m_model::SimTime;

/// Total priority order for EDF with the paper's deterministic
/// tie-break: `(deadline, period, index)`, all ascending.
///
/// Lower keys are higher priority. The `index` component makes the
/// order a *total* order for distinct entities, so scheduling is fully
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdfKey {
    /// Absolute deadline of the current job/server period.
    pub deadline: SimTime,
    /// Period in nanoseconds (smaller period → higher priority on
    /// deadline ties).
    pub period_ns: u64,
    /// Entity index (smaller index → higher priority on full ties).
    pub index: usize,
}

impl EdfKey {
    /// Creates a key.
    pub fn new(deadline: SimTime, period_ns: u64, index: usize) -> Self {
        EdfKey {
            deadline,
            period_ns,
            index,
        }
    }
}

/// A ready queue ordered by [`EdfKey`].
///
/// Entries are the keys themselves; the entity index inside the key is
/// the handle callers use to map back to their tasks/VCPUs. The keys
/// live in one sorted `Vec`: a lookup is a binary search, and an insert
/// or removal shifts the entries behind it. For the few dozen entries a
/// core's queue holds, that memmove is cheaper than a tree's node
/// walk, and the queue allocates nothing once it has reached its
/// working size (see [`ReadyQueue::with_capacity`]). The minimum
/// (highest-priority) entry is inspected with [`ReadyQueue::peek`].
///
/// # Example
///
/// ```
/// use vc2m_sched::edf::{EdfKey, ReadyQueue};
/// use vc2m_model::SimTime;
///
/// let mut q = ReadyQueue::new();
/// q.insert(EdfKey::new(SimTime::from_ms(10.0), 10_000_000, 1));
/// q.insert(EdfKey::new(SimTime::from_ms(10.0), 5_000_000, 2));
/// // Same deadline: the smaller period (entity 2) wins.
/// assert_eq!(q.peek().expect("non-empty").index, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    /// Distinct keys, ascending.
    keys: Vec<EdfKey>,
}

impl ReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Creates an empty queue with room for `capacity` entries, so that
    /// holding up to that many never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        ReadyQueue {
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Inserts a key. Returns `false` if the identical key was already
    /// present (which indicates a double-insert bug in the caller).
    pub fn insert(&mut self, key: EdfKey) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                self.keys.insert(at, key);
                true
            }
        }
    }

    /// Removes a key. Returns `false` if it was not present.
    pub fn remove(&mut self, key: &EdfKey) -> bool {
        match self.keys.binary_search(key) {
            Ok(at) => {
                self.keys.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The highest-priority entry, if any.
    pub fn peek(&self) -> Option<&EdfKey> {
        self.keys.first()
    }

    /// Removes and returns the highest-priority entry.
    pub fn pop(&mut self) -> Option<EdfKey> {
        if self.keys.is_empty() {
            None
        } else {
            Some(self.keys.remove(0))
        }
    }

    /// Number of ready entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &EdfKey> {
        self.keys.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(deadline_ms: f64, period_ms: f64, index: usize) -> EdfKey {
        EdfKey::new(
            SimTime::from_ms(deadline_ms),
            (period_ms * 1e6) as u64,
            index,
        )
    }

    #[test]
    fn earliest_deadline_wins() {
        let mut q = ReadyQueue::new();
        q.insert(key(20.0, 5.0, 0));
        q.insert(key(10.0, 50.0, 1));
        assert_eq!(q.pop().unwrap().index, 1);
        assert_eq!(q.pop().unwrap().index, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn deadline_tie_broken_by_period_then_index() {
        let mut q = ReadyQueue::new();
        q.insert(key(10.0, 10.0, 0));
        q.insert(key(10.0, 5.0, 7));
        q.insert(key(10.0, 5.0, 3));
        // Period 5 beats period 10; among period 5, index 3 beats 7.
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|k| k.index)).collect();
        assert_eq!(order, vec![3, 7, 0]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut q = ReadyQueue::new();
        let k = key(10.0, 10.0, 0);
        assert!(q.insert(k));
        assert!(!q.insert(k), "duplicate insert must report false");
        assert_eq!(q.len(), 1);
        assert!(q.remove(&k));
        assert!(!q.remove(&k));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = ReadyQueue::new();
        q.insert(key(10.0, 10.0, 0));
        assert!(q.peek().is_some());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn iteration_is_priority_ordered() {
        let mut q = ReadyQueue::new();
        q.insert(key(30.0, 10.0, 0));
        q.insert(key(10.0, 10.0, 1));
        q.insert(key(20.0, 10.0, 2));
        let order: Vec<usize> = q.iter().map(|k| k.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
