//! Cache/bandwidth resource spaces and allocations.
//!
//! The platform's shared cache is divided into `C` equal partitions and
//! its memory bus bandwidth into `B` equal partitions (Section 4.1).
//! A core is always allocated at least `Cmin` cache partitions and
//! `Bmin` bandwidth partitions. The pair `(c, b)` assigned to a core is
//! an [`Alloc`]; the set of valid pairs is a [`ResourceSpace`].

use crate::ModelError;
use std::fmt;

/// A concrete per-core resource allocation: `cache` cache partitions and
/// `bandwidth` memory-bandwidth partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Alloc {
    /// Number of cache partitions allocated.
    pub cache: u32,
    /// Number of memory-bandwidth partitions allocated.
    pub bandwidth: u32,
}

impl Alloc {
    /// Creates an allocation of `cache` cache partitions and `bandwidth`
    /// bandwidth partitions.
    pub fn new(cache: u32, bandwidth: u32) -> Self {
        Alloc { cache, bandwidth }
    }
}

impl fmt::Display for Alloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(c={}, b={})", self.cache, self.bandwidth)
    }
}

/// The rectangle of valid per-core allocations on a platform:
/// `cache_min ..= cache_max` × `bw_min ..= bw_max`.
///
/// `cache_max` equals the platform's total partition count `C` (a single
/// core may, in the degenerate one-core case, own the whole cache), and
/// likewise `bw_max = B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceSpace {
    cache_min: u32,
    cache_max: u32,
    bw_min: u32,
    bw_max: u32,
}

impl ResourceSpace {
    /// Creates a resource space.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidResourceSpace`] if any minimum is zero
    /// for bandwidth, below the hardware floor for cache, or a minimum
    /// exceeds its maximum.
    ///
    /// The cache floor is 1 partition (Intel CAT additionally requires
    /// ≥ 2-way masks on most SKUs; the paper profiles from c = 2, which
    /// callers express by passing `cache_min = 2`).
    pub fn new(
        cache_min: u32,
        cache_max: u32,
        bw_min: u32,
        bw_max: u32,
    ) -> Result<Self, ModelError> {
        if cache_min == 0 || bw_min == 0 {
            return Err(ModelError::InvalidResourceSpace {
                detail: format!(
                    "minimum allocations must be at least 1 (got cache_min={cache_min}, bw_min={bw_min})"
                ),
            });
        }
        if cache_min > cache_max {
            return Err(ModelError::InvalidResourceSpace {
                detail: format!("cache_min {cache_min} > cache_max {cache_max}"),
            });
        }
        if bw_min > bw_max {
            return Err(ModelError::InvalidResourceSpace {
                detail: format!("bw_min {bw_min} > bw_max {bw_max}"),
            });
        }
        Ok(ResourceSpace {
            cache_min,
            cache_max,
            bw_min,
            bw_max,
        })
    }

    /// Minimum cache partitions a core may hold (`Cmin`).
    pub fn cache_min(&self) -> u32 {
        self.cache_min
    }

    /// Total cache partitions on the platform (`C`).
    #[inline]
    pub fn cache_max(&self) -> u32 {
        self.cache_max
    }

    /// Minimum bandwidth partitions a core may hold (`Bmin`).
    pub fn bw_min(&self) -> u32 {
        self.bw_min
    }

    /// Total bandwidth partitions on the platform (`B`).
    #[inline]
    pub fn bw_max(&self) -> u32 {
        self.bw_max
    }

    /// The reference allocation `(C, B)` — all cache, all bandwidth —
    /// against which reference WCETs and slowdown vectors are defined.
    #[inline]
    pub fn reference(&self) -> Alloc {
        Alloc::new(self.cache_max, self.bw_max)
    }

    /// The minimum allocation `(Cmin, Bmin)`, the starting point of the
    /// hypervisor-level resource-allocation phase.
    #[inline]
    pub fn minimum(&self) -> Alloc {
        Alloc::new(self.cache_min, self.bw_min)
    }

    /// Whether `alloc` lies inside this space.
    #[inline]
    pub fn contains(&self, alloc: Alloc) -> bool {
        (self.cache_min..=self.cache_max).contains(&alloc.cache)
            && (self.bw_min..=self.bw_max).contains(&alloc.bandwidth)
    }

    /// Validates that `alloc` lies inside this space.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AllocOutOfRange`] otherwise.
    pub fn check(&self, alloc: Alloc) -> Result<(), ModelError> {
        if self.contains(alloc) {
            Ok(())
        } else {
            Err(ModelError::AllocOutOfRange {
                cache: alloc.cache,
                bandwidth: alloc.bandwidth,
                space: self.to_string(),
            })
        }
    }

    /// Number of valid cache levels (`C - Cmin + 1`).
    pub fn cache_levels(&self) -> usize {
        (self.cache_max - self.cache_min + 1) as usize
    }

    /// Number of valid bandwidth levels (`B - Bmin + 1`).
    #[inline]
    pub fn bw_levels(&self) -> usize {
        (self.bw_max - self.bw_min + 1) as usize
    }

    /// Total number of `(c, b)` cells in the space.
    pub fn len(&self) -> usize {
        self.cache_levels() * self.bw_levels()
    }

    /// Whether the space contains no cell (never true for a validly
    /// constructed space).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major linear index of `alloc` within the space, used by
    /// surfaces to store their data contiguously.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` is outside the space; use [`ResourceSpace::check`]
    /// first when the allocation is untrusted.
    #[inline]
    pub fn index_of(&self, alloc: Alloc) -> usize {
        assert!(
            self.contains(alloc),
            "allocation {alloc} outside resource space {self}"
        );
        let row = (alloc.cache - self.cache_min) as usize;
        let col = (alloc.bandwidth - self.bw_min) as usize;
        row * self.bw_levels() + col
    }

    /// Iterates over every allocation in the space in row-major
    /// (cache-major) order — the order surfaces store their entries.
    pub fn iter(&self) -> impl Iterator<Item = Alloc> + '_ {
        let bw_range = self.bw_min..=self.bw_max;
        (self.cache_min..=self.cache_max)
            .flat_map(move |c| bw_range.clone().map(move |b| Alloc::new(c, b)))
    }
}

impl fmt::Display for ResourceSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c in {}..={}, b in {}..={}",
            self.cache_min, self.cache_max, self.bw_min, self.bw_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ResourceSpace {
        ResourceSpace::new(2, 20, 1, 20).expect("valid space")
    }

    #[test]
    fn construction_validates() {
        assert!(ResourceSpace::new(0, 20, 1, 20).is_err());
        assert!(ResourceSpace::new(2, 20, 0, 20).is_err());
        assert!(ResourceSpace::new(21, 20, 1, 20).is_err());
        assert!(ResourceSpace::new(2, 20, 21, 20).is_err());
        assert!(ResourceSpace::new(1, 1, 1, 1).is_ok());
    }

    #[test]
    fn geometry() {
        let s = space();
        assert_eq!(s.cache_levels(), 19);
        assert_eq!(s.bw_levels(), 20);
        assert_eq!(s.len(), 380);
        assert!(!s.is_empty());
        assert_eq!(s.reference(), Alloc::new(20, 20));
        assert_eq!(s.minimum(), Alloc::new(2, 1));
    }

    #[test]
    fn containment_and_check() {
        let s = space();
        assert!(s.contains(Alloc::new(2, 1)));
        assert!(s.contains(Alloc::new(20, 20)));
        assert!(!s.contains(Alloc::new(1, 1)));
        assert!(!s.contains(Alloc::new(2, 21)));
        assert!(s.check(Alloc::new(3, 3)).is_ok());
        assert!(matches!(
            s.check(Alloc::new(1, 1)),
            Err(ModelError::AllocOutOfRange { .. })
        ));
    }

    #[test]
    fn index_matches_iteration_order() {
        let s = space();
        for (i, alloc) in s.iter().enumerate() {
            assert_eq!(s.index_of(alloc), i);
        }
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn index_corners() {
        let s = space();
        assert_eq!(s.index_of(Alloc::new(2, 1)), 0);
        assert_eq!(s.index_of(Alloc::new(2, 20)), 19);
        assert_eq!(s.index_of(Alloc::new(3, 1)), 20);
        assert_eq!(s.index_of(Alloc::new(20, 20)), 379);
    }

    #[test]
    #[should_panic(expected = "outside resource space")]
    fn index_of_out_of_range_panics() {
        let _ = space().index_of(Alloc::new(1, 1));
    }

    #[test]
    fn display_shows_ranges() {
        assert_eq!(space().to_string(), "c in 2..=20, b in 1..=20");
        assert_eq!(Alloc::new(4, 7).to_string(), "(c=4, b=7)");
    }
}
