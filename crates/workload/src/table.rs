//! Per-space slowdown-surface table.
//!
//! A task's WCET surface is its benchmark's slowdown surface scaled by
//! its reference WCET, and that slowdown surface depends only on the
//! benchmark and the resource space: thirteen surfaces per space,
//! however many tasks draw them. This table holds all thirteen, with
//! their maximum slowdowns, for one space; a thread-local cache builds
//! it on the first generation over a space and shares it with every
//! later one on the same thread.

use crate::ParsecBenchmark;
use std::cell::RefCell;
use std::rc::Rc;
use vc2m_model::{ResourceSpace, Surface};

/// One benchmark's slowdown surface over a space.
#[derive(Debug)]
pub(crate) struct SlowdownEntry {
    /// `benchmark.profile().slowdown_surface(space)`.
    pub(crate) surface: Surface,
    /// `surface.max_slowdown()`.
    pub(crate) max_slowdown: f64,
}

/// The slowdown surfaces of every benchmark over one space, indexed by
/// [`ParsecBenchmark::index`].
#[derive(Debug)]
pub(crate) struct SlowdownTable {
    space: ResourceSpace,
    entries: [SlowdownEntry; ParsecBenchmark::ALL.len()],
}

impl SlowdownTable {
    fn build(space: ResourceSpace) -> Self {
        SlowdownTable {
            space,
            entries: ParsecBenchmark::ALL.map(|benchmark| {
                let surface = benchmark.profile().slowdown_surface(&space);
                let max_slowdown = surface.max_slowdown();
                SlowdownEntry {
                    surface,
                    max_slowdown,
                }
            }),
        }
    }

    /// The entry of `benchmark`.
    pub(crate) fn entry(&self, benchmark: ParsecBenchmark) -> &SlowdownEntry {
        &self.entries[benchmark.index()]
    }

    /// The table for `space`, built on this thread's first request for
    /// it. The cache keeps the few most recently built tables: a run
    /// touches one to three platforms, and randomly drawn spaces would
    /// otherwise grow it without limit.
    pub(crate) fn for_space(space: &ResourceSpace) -> Rc<SlowdownTable> {
        const CACHED_SPACES: usize = 4;
        thread_local! {
            static TABLES: RefCell<Vec<Rc<SlowdownTable>>> = const { RefCell::new(Vec::new()) };
        }
        TABLES.with(|tables| {
            let mut tables = tables.borrow_mut();
            if let Some(table) = tables.iter().find(|t| t.space == *space) {
                return Rc::clone(table);
            }
            if tables.len() == CACHED_SPACES {
                tables.remove(0);
            }
            let table = Rc::new(SlowdownTable::build(*space));
            tables.push(Rc::clone(&table));
            table
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::Platform;

    #[test]
    fn cache_shares_tables_per_space_and_stays_bounded() {
        let a = Platform::platform_a().resources();
        let first = SlowdownTable::for_space(&a);
        assert!(Rc::ptr_eq(&first, &SlowdownTable::for_space(&a)));
        // Four other spaces push `a` out; asking again rebuilds it.
        for cache_max in 30..34 {
            let other = ResourceSpace::new(2, cache_max, 1, 20).unwrap();
            assert_eq!(SlowdownTable::for_space(&other).space, other);
        }
        let rebuilt = SlowdownTable::for_space(&a);
        assert!(!Rc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.space, a);
    }
}
