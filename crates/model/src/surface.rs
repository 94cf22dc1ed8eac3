//! WCET / budget surfaces over the resource space.
//!
//! A *surface* is a table of positive values indexed by a per-core
//! allocation `(c, b)`: the WCET eᵢ(c,b) of a task, or the budget
//! Θⱼ(c,b) of a VCPU (Section 4.1). The value at the reference
//! allocation `(C, B)` is the *reference value*; dividing the table by
//! it yields the *slowdown vector*, which captures how sensitive the
//! task/VCPU is to cache and bandwidth resources and is the feature
//! vector used by the k-means clustering in the allocation algorithms.

use crate::{Alloc, ModelError, ResourceSpace};
use std::fmt;

/// A dense table of positive `f64` values over a [`ResourceSpace`].
///
/// Stored row-major with cache as the major axis, matching
/// [`ResourceSpace::index_of`].
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    space: ResourceSpace,
    values: Vec<f64>,
}

/// A task's WCET table eᵢ(c,b). Alias of [`Surface`] kept distinct in
/// signatures for readability.
pub type WcetSurface = Surface;

/// A VCPU's budget table Θⱼ(c,b). Alias of [`Surface`].
pub type BudgetSurface = Surface;

impl Surface {
    /// Builds a surface from `values` listed in the row-major order of
    /// [`ResourceSpace::iter`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::SurfaceShapeMismatch`] if `values.len()` differs
    ///   from `space.len()`.
    /// * [`ModelError::InvalidSurfaceEntry`] if any entry is not finite
    ///   and strictly positive.
    pub fn from_values(space: ResourceSpace, values: Vec<f64>) -> Result<Self, ModelError> {
        if values.len() != space.len() {
            return Err(ModelError::SurfaceShapeMismatch {
                expected: space.len(),
                actual: values.len(),
            });
        }
        for (alloc, &v) in space.iter().zip(&values) {
            if !v.is_finite() || v <= 0.0 {
                return Err(ModelError::InvalidSurfaceEntry {
                    cache: alloc.cache,
                    bandwidth: alloc.bandwidth,
                    value: v,
                });
            }
        }
        Ok(Surface { space, values })
    }

    /// Builds a surface by evaluating `f` at every allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSurfaceEntry`] if `f` produces a
    /// non-finite or non-positive value anywhere.
    pub fn from_fn(
        space: &ResourceSpace,
        mut f: impl FnMut(Alloc) -> f64,
    ) -> Result<Self, ModelError> {
        let values: Vec<f64> = space.iter().map(&mut f).collect();
        Surface::from_values(*space, values)
    }

    /// Builds a surface that is the constant `value` everywhere —
    /// convenient for resource-insensitive tasks and for tests.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSurfaceEntry`] if `value` is not
    /// finite and strictly positive.
    pub fn flat(space: &ResourceSpace, value: f64) -> Result<Self, ModelError> {
        Surface::from_fn(space, |_| value)
    }

    /// The resource space this surface is defined over.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// Value at allocation `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` lies outside the surface's resource space.
    #[inline]
    pub fn at(&self, alloc: Alloc) -> f64 {
        self.values[self.space.index_of(alloc)]
    }

    /// Every value in the row-major order of [`ResourceSpace::index_of`]:
    /// entry `space.index_of(alloc)` is `self.at(alloc)`.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Value at the reference allocation `(C, B)` — the reference WCET
    /// e*ᵢ for tasks, or the reference budget Θ*ⱼ for VCPUs.
    #[inline]
    pub fn reference(&self) -> f64 {
        self.at(self.space.reference())
    }

    /// Value at the minimum allocation `(Cmin, Bmin)` — the worst case
    /// over the space for monotone surfaces.
    pub fn at_minimum(&self) -> f64 {
        self.at(self.space.minimum())
    }

    /// The maximum value anywhere on the surface.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The slowdown vector sᵢ = \[eᵢ(c,b)/e*ᵢ\] of this surface
    /// (Section 4.1), used as the clustering feature.
    pub fn slowdown_vector(&self) -> SlowdownVector {
        SlowdownVector {
            space: self.space,
            values: self.slowdown_values(),
        }
    }

    /// The raw slowdown values eᵢ(c,b)/e*ᵢ in row-major order, without
    /// the [`SlowdownVector`] wrapper — the bare feature row consumed
    /// by the k-means clustering. Same numbers as
    /// `self.slowdown_vector().as_slice().to_vec()` with a single
    /// allocation instead of two.
    pub fn slowdown_values(&self) -> Vec<f64> {
        let reference = self.reference();
        self.values.iter().map(|v| v / reference).collect()
    }

    /// The maximum slowdown factor s^max = max eᵢ(c,b) / e*ᵢ.
    pub fn max_slowdown(&self) -> f64 {
        self.max_value() / self.reference()
    }

    /// Returns a new surface scaled by the positive factor `k`
    /// (used when deriving a task's WCET table from a benchmark's
    /// slowdown profile: eᵢ(c,b) = e*ᵢ · s(c,b)).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and strictly positive.
    pub fn scaled(&self, k: f64) -> Surface {
        assert!(
            k.is_finite() && k > 0.0,
            "scale factor must be positive and finite, got {k}"
        );
        Surface {
            space: self.space,
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }

    /// Pointwise sum of two surfaces over the same space — the combined
    /// demand of several tasks packed on one VCPU.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidResourceSpace`] if the spaces differ.
    pub fn try_add(&self, other: &Surface) -> Result<Surface, ModelError> {
        if self.space != other.space {
            return Err(ModelError::InvalidResourceSpace {
                detail: format!(
                    "cannot add surfaces over different spaces ({} vs {})",
                    self.space, other.space
                ),
            });
        }
        Ok(Surface {
            space: self.space,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Whether the surface is non-increasing in both cache and bandwidth
    /// (more resources never make a task slower). Physically-derived
    /// WCET surfaces satisfy this; noisy measured ones may not, which is
    /// why it is a query rather than a constructor invariant.
    pub fn is_monotone_non_increasing(&self) -> bool {
        let s = &self.space;
        s.iter().all(|a| {
            let v = self.at(a);
            let right_ok = a.bandwidth == s.bw_max()
                || v >= self.at(Alloc::new(a.cache, a.bandwidth + 1)) - 1e-12;
            let down_ok = a.cache == s.cache_max()
                || v >= self.at(Alloc::new(a.cache + 1, a.bandwidth)) - 1e-12;
            right_ok && down_ok
        })
    }

    /// Iterates over `(alloc, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Alloc, f64)> + '_ {
        self.space.iter().zip(self.values.iter().copied())
    }
}

impl fmt::Display for Surface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "surface over {} (ref={:.4}, max={:.4})",
            self.space,
            self.reference(),
            self.max_value()
        )
    }
}

/// A normalized slowdown vector sᵢ(c,b) = eᵢ(c,b)/e*ᵢ.
///
/// The entry at the reference allocation is exactly 1. Exposes the flat
/// feature vector consumed by the k-means clustering of the allocation
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownVector {
    space: ResourceSpace,
    values: Vec<f64>,
}

impl SlowdownVector {
    /// The resource space the vector is defined over.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// Slowdown at allocation `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` lies outside the resource space.
    pub fn at(&self, alloc: Alloc) -> f64 {
        self.values[self.space.index_of(alloc)]
    }

    /// The flat feature vector (row-major), for clustering distance
    /// computations.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Euclidean distance to another slowdown vector over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ — comparing sensitivities across
    /// different platforms is meaningless.
    pub fn distance(&self, other: &SlowdownVector) -> f64 {
        assert_eq!(
            self.space, other.space,
            "cannot compare slowdown vectors over different resource spaces"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ResourceSpace {
        ResourceSpace::new(2, 4, 1, 3).expect("valid space")
    }

    #[test]
    fn shape_is_validated() {
        let err = Surface::from_values(space(), vec![1.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::SurfaceShapeMismatch {
                expected: 9,
                actual: 5
            }
        ));
    }

    #[test]
    fn entries_are_validated() {
        let mut v = vec![1.0; 9];
        v[4] = -2.0;
        let err = Surface::from_values(space(), v).unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidSurfaceEntry {
                cache: 3,
                bandwidth: 2,
                ..
            }
        ));
        let mut v = vec![1.0; 9];
        v[0] = f64::NAN;
        assert!(Surface::from_values(space(), v).is_err());
    }

    #[test]
    fn from_fn_and_lookup() {
        let s = Surface::from_fn(&space(), |a| (a.cache * 10 + a.bandwidth) as f64).unwrap();
        assert_eq!(s.at(Alloc::new(2, 1)), 21.0);
        assert_eq!(s.at(Alloc::new(4, 3)), 43.0);
        assert_eq!(s.reference(), 43.0);
        assert_eq!(s.at_minimum(), 21.0);
    }

    #[test]
    fn slowdown_vector_reference_is_one() {
        let s = Surface::from_fn(&space(), |a| 10.0 / (a.cache + a.bandwidth) as f64).unwrap();
        let sd = s.slowdown_vector();
        let reference = sd.space().reference();
        assert!((sd.at(reference) - 1.0).abs() < 1e-12);
        assert!(s.max_slowdown() >= 1.0);
    }

    #[test]
    fn monotone_detection() {
        let mono = Surface::from_fn(&space(), |a| 10.0 - (a.cache + a.bandwidth) as f64).unwrap();
        assert!(mono.is_monotone_non_increasing());
        let bumpy = Surface::from_fn(
            &space(),
            |a| {
                if a == Alloc::new(3, 2) {
                    100.0
                } else {
                    10.0
                }
            },
        )
        .unwrap();
        assert!(!bumpy.is_monotone_non_increasing());
    }

    #[test]
    fn scaling_and_addition() {
        let s = Surface::flat(&space(), 2.0).unwrap();
        let doubled = s.scaled(2.0);
        assert_eq!(doubled.reference(), 4.0);
        let sum = s.try_add(&doubled).unwrap();
        assert_eq!(sum.reference(), 6.0);

        let other_space = ResourceSpace::new(1, 2, 1, 2).unwrap();
        let other = Surface::flat(&other_space, 1.0).unwrap();
        assert!(s.try_add(&other).is_err());
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let a = Surface::from_fn(&space(), |al| 1.0 + al.cache as f64)
            .unwrap()
            .slowdown_vector();
        let b = Surface::from_fn(&space(), |al| 1.0 + al.bandwidth as f64)
            .unwrap()
            .slowdown_vector();
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    #[should_panic(expected = "different resource spaces")]
    fn distance_rejects_mismatched_spaces() {
        let a = Surface::flat(&space(), 1.0).unwrap().slowdown_vector();
        let other_space = ResourceSpace::new(1, 2, 1, 2).unwrap();
        let b = Surface::flat(&other_space, 1.0).unwrap().slowdown_vector();
        let _ = a.distance(&b);
    }

    #[test]
    fn iter_covers_all_cells() {
        let s = Surface::flat(&space(), 1.5).unwrap();
        assert_eq!(s.iter().count(), 9);
        assert!(s.iter().all(|(_, v)| v == 1.5));
    }

    #[test]
    fn slowdown_values_match_slowdown_vector_bitwise() {
        let a = Surface::from_fn(&space(), |al| 10.0 / (al.cache + al.bandwidth) as f64).unwrap();
        let b = Surface::from_fn(&space(), |al| 1.0 + al.cache as f64).unwrap();
        for s in [&a, &b] {
            let bits: Vec<u64> = s.slowdown_values().iter().map(|v| v.to_bits()).collect();
            let via_vector: Vec<u64> = s
                .slowdown_vector()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(bits, via_vector);
        }
    }
}
