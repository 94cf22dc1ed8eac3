//! The vCAT virtualization layer.
//!
//! vCAT \[16\] lets a guest VM manage cache partitions *virtually*: the
//! VM sees a zero-based contiguous space of partitions, and the
//! hypervisor translates guest mask updates into the physical region it
//! reserved for the VM. This keeps guests oblivious to where in the
//! physical cache they live, and makes it impossible for a guest to
//! reach outside its region.

use crate::{CacheMask, CatError};

/// A VM's virtual cache domain: a physical region of the shared cache
/// that the guest addresses as partitions `0..size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcatDomain {
    /// The physical region backing the domain, validated once when the
    /// domain is built.
    region: CacheMask,
}

impl VcatDomain {
    /// Creates a domain mapping virtual partitions `0..size` onto
    /// physical partitions `physical_start .. physical_start + size`.
    ///
    /// # Errors
    ///
    /// * [`CatError::InvalidMask`] if `size` is zero.
    /// * [`CatError::OutOfRange`] if the region does not fit in the
    ///   physical cache.
    pub fn new(physical_start: u32, size: u32, physical_total: u32) -> Result<Self, CatError> {
        // Reuse mask validation: the domain is itself a contiguous region.
        Ok(VcatDomain {
            region: CacheMask::new(physical_start, size, physical_total)?,
        })
    }

    /// Builds the domain corresponding to an already-validated physical
    /// mask (e.g. one produced by a
    /// [`PartitionPlan`](crate::PartitionPlan)).
    pub fn from_mask(mask: CacheMask) -> Self {
        VcatDomain { region: mask }
    }

    /// Size of the virtual partition space.
    pub fn size(&self) -> u32 {
        self.region.ways()
    }

    /// The physical region backing the domain.
    pub fn physical_mask(&self) -> CacheMask {
        self.region
    }

    /// Translates a guest mask request — virtual partitions
    /// `[virtual_start, virtual_start + len)` — into a physical mask.
    ///
    /// # Errors
    ///
    /// * [`CatError::VirtualOutOfRange`] if the virtual range escapes
    ///   the domain.
    /// * [`CatError::InvalidMask`] if `len` is zero.
    pub fn translate(&self, virtual_start: u32, len: u32) -> Result<CacheMask, CatError> {
        if len == 0 {
            return Err(CatError::InvalidMask {
                detail: "guest mask must cover at least one partition".into(),
            });
        }
        let end = virtual_start
            .checked_add(len)
            .ok_or(CatError::VirtualOutOfRange {
                virtual_index: virtual_start,
                domain_size: self.size(),
            })?;
        if end > self.size() {
            return Err(CatError::VirtualOutOfRange {
                virtual_index: end - 1,
                domain_size: self.size(),
            });
        }
        CacheMask::new(
            self.region.start() + virtual_start,
            len,
            self.region.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionPlan;

    #[test]
    fn translation_offsets_into_physical_region() {
        let d = VcatDomain::new(8, 6, 20).unwrap();
        let m = d.translate(0, 6).unwrap();
        assert_eq!((m.start(), m.end()), (8, 14));
        let m = d.translate(2, 3).unwrap();
        assert_eq!((m.start(), m.end()), (10, 13));
    }

    #[test]
    fn guest_cannot_escape_domain() {
        let d = VcatDomain::new(8, 6, 20).unwrap();
        assert!(matches!(
            d.translate(4, 3),
            Err(CatError::VirtualOutOfRange {
                virtual_index: 6,
                domain_size: 6
            })
        ));
        assert!(d.translate(6, 1).is_err());
        assert!(d.translate(0, 0).is_err());
        assert!(d.translate(u32::MAX, 2).is_err(), "overflow guarded");
    }

    #[test]
    fn from_partition_plan() {
        let plan = PartitionPlan::contiguous(20, &[6, 6, 8]).unwrap();
        let d = VcatDomain::from_mask(plan.mask_for_core(1));
        assert_eq!(d.size(), 6);
        assert_eq!(d.physical_mask().start(), 6);
        // Guests of different cores can never produce overlapping
        // physical masks.
        let d2 = VcatDomain::from_mask(plan.mask_for_core(2));
        let m1 = d.translate(0, 6).unwrap();
        let m2 = d2.translate(0, 8).unwrap();
        assert!(!m1.overlaps(&m2));
    }

    #[test]
    fn construction_validates() {
        assert!(VcatDomain::new(16, 6, 20).is_err());
        assert!(VcatDomain::new(0, 0, 20).is_err());
    }
}
