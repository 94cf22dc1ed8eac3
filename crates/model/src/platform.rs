//! Multicore platform descriptions.

use crate::{ModelError, ResourceSpace};
use std::fmt;

/// A multicore platform: `M` identical cores, a shared last-level cache
/// divided into `C` equal partitions, and a memory bus divided into `B`
/// equal bandwidth partitions (Section 4.1).
///
/// The three named constructors reproduce the paper's evaluation
/// platforms (Section 5.1), each of which sets `B = C`:
///
/// | Platform | Processor (paper) | Cores | Partitions |
/// |----------|------------------|-------|------------|
/// | [`Platform::platform_a`] | Intel Xeon 2618L v3 | 4 | 20 |
/// | [`Platform::platform_b`] | Intel Xeon D-1528   | 6 | 20 |
/// | [`Platform::platform_c`] | Intel Xeon D-1518   | 4 | 12 |
///
/// The paper profiles WCETs from `c = 2` cache partitions and `b = 1`
/// bandwidth partitions upward, so `Cmin = 2` and `Bmin = 1` are the
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Platform {
    cores: usize,
    resources: ResourceSpace,
    bw_partition_mbps: u32,
}

/// Default size of one bandwidth partition, in MB/s. MemGuard-style
/// regulators divide guaranteed DRAM bandwidth (≈ 1.2 GB/s per the
/// MemGuard paper's platform) into equal budgets; with 20 partitions a
/// convenient round unit is 60 MB/s.
pub const DEFAULT_BW_PARTITION_MBPS: u32 = 60;

impl Platform {
    /// Creates a platform with `cores` cores and `partitions` cache and
    /// bandwidth partitions each (`C = B`, as in the paper's platforms),
    /// with `Cmin = 2`, `Bmin = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlatform`] if `cores` is zero or the
    /// partition counts cannot form a valid resource space (e.g. fewer
    /// than 2 cache partitions).
    pub fn symmetric(cores: usize, partitions: u32) -> Result<Self, ModelError> {
        Platform::new(cores, partitions, partitions, 2, 1)
    }

    /// Creates a fully custom platform.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlatform`] if `cores` is zero, or
    /// [`ModelError::InvalidResourceSpace`] if the partition bounds are
    /// inconsistent.
    pub fn new(
        cores: usize,
        cache_partitions: u32,
        bw_partitions: u32,
        cache_min: u32,
        bw_min: u32,
    ) -> Result<Self, ModelError> {
        if cores == 0 {
            return Err(ModelError::InvalidPlatform {
                detail: "platform must have at least one core".into(),
            });
        }
        let resources = ResourceSpace::new(cache_min, cache_partitions, bw_min, bw_partitions)?;
        Ok(Platform {
            cores,
            resources,
            bw_partition_mbps: DEFAULT_BW_PARTITION_MBPS,
        })
    }

    /// Platform A of the evaluation: 4 cores, 20 cache/BW partitions
    /// (modeled on the Intel Xeon E5-2618L v3 prototype machine).
    // Invariant: `symmetric` fails only for zero cores or for fewer
    // partitions than `(Cmin, Bmin) = (2, 1)`; the paper's three
    // platforms have neither.
    #[allow(clippy::expect_used)]
    pub fn platform_a() -> Self {
        Platform::symmetric(4, 20).expect("platform A parameters are valid")
    }

    /// Platform B of the evaluation: 6 cores, 20 cache/BW partitions
    /// (modeled on the Intel Xeon D-1528).
    // Invariant: as for `platform_a`.
    #[allow(clippy::expect_used)]
    pub fn platform_b() -> Self {
        Platform::symmetric(6, 20).expect("platform B parameters are valid")
    }

    /// Platform C of the evaluation: 4 cores, 12 cache/BW partitions
    /// (modeled on the Intel Xeon D-1518).
    // Invariant: as for `platform_a`.
    #[allow(clippy::expect_used)]
    pub fn platform_c() -> Self {
        Platform::symmetric(4, 12).expect("platform C parameters are valid")
    }

    /// Number of physical cores `M`.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The valid per-core allocation space (carries `C`, `B`, `Cmin`,
    /// `Bmin`).
    pub fn resources(&self) -> ResourceSpace {
        self.resources
    }

    /// Total cache partitions `C`.
    pub fn cache_partitions(&self) -> u32 {
        self.resources.cache_max()
    }

    /// Total bandwidth partitions `B`.
    pub fn bw_partitions(&self) -> u32 {
        self.resources.bw_max()
    }

    /// Size of one bandwidth partition in MB/s (used by the
    /// bandwidth-regulator substrate to convert partition counts into
    /// per-regulation-period byte budgets).
    pub fn bw_partition_mbps(&self) -> u32 {
        self.bw_partition_mbps
    }

    /// Returns a copy of the platform with a different bandwidth
    /// partition size.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is zero.
    pub fn with_bw_partition_mbps(mut self, mbps: u32) -> Self {
        assert!(mbps > 0, "bandwidth partition size must be positive");
        self.bw_partition_mbps = mbps;
        self
    }

    /// Whether the cache can supply every one of `m` cores its minimum
    /// share simultaneously — an upper bound on how many cores an
    /// allocation can use.
    pub fn supports_cores(&self, m: usize) -> bool {
        m <= self.cores
            && (m as u64) * u64::from(self.resources.cache_min())
                <= u64::from(self.resources.cache_max())
            && (m as u64) * u64::from(self.resources.bw_min()) <= u64::from(self.resources.bw_max())
    }

    /// The largest number of cores that can simultaneously hold minimum
    /// allocations (≤ `M`).
    pub fn max_usable_cores(&self) -> usize {
        (1..=self.cores)
            .rev()
            .find(|&m| self.supports_cores(m))
            .unwrap_or(0)
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores, C={}, B={} ({})",
            self.cores,
            self.resources.cache_max(),
            self.resources.bw_max(),
            self.resources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_platforms_match_paper() {
        let a = Platform::platform_a();
        assert_eq!(a.cores(), 4);
        assert_eq!(a.cache_partitions(), 20);
        assert_eq!(a.bw_partitions(), 20);
        let b = Platform::platform_b();
        assert_eq!(b.cores(), 6);
        assert_eq!(b.cache_partitions(), 20);
        let c = Platform::platform_c();
        assert_eq!(c.cores(), 4);
        assert_eq!(c.cache_partitions(), 12);
        // Paper: Cmin = 2 (CAT), Bmin = 1.
        assert_eq!(a.resources().cache_min(), 2);
        assert_eq!(a.resources().bw_min(), 1);
    }

    #[test]
    fn constructor_validates() {
        assert!(Platform::symmetric(0, 20).is_err());
        assert!(Platform::new(4, 1, 20, 2, 1).is_err()); // cache_min > cache_max
    }

    #[test]
    fn core_support_bounds() {
        let a = Platform::platform_a();
        assert!(a.supports_cores(4)); // 4 * 2 = 8 <= 20
        assert!(!a.supports_cores(5)); // more than M
        assert_eq!(a.max_usable_cores(), 4);

        // A tight platform: 4 cores but only 6 cache partitions at Cmin=2
        // supports at most 3 cores.
        let tight = Platform::new(4, 6, 20, 2, 1).unwrap();
        assert!(tight.supports_cores(3));
        assert!(!tight.supports_cores(4));
        assert_eq!(tight.max_usable_cores(), 3);
    }

    #[test]
    fn bw_partition_size() {
        let p = Platform::platform_a();
        assert_eq!(p.bw_partition_mbps(), DEFAULT_BW_PARTITION_MBPS);
        assert_eq!(p.with_bw_partition_mbps(100).bw_partition_mbps(), 100);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bw_partition_size_panics() {
        let _ = Platform::platform_a().with_bw_partition_mbps(0);
    }

    #[test]
    fn display_mentions_geometry() {
        let s = Platform::platform_a().to_string();
        assert!(s.contains("4 cores"));
        assert!(s.contains("C=20"));
    }
}
