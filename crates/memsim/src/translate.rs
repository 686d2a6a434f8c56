//! Address translation (§IV-D: the AGCU "provides an address translation
//! layer for memory management").
//!
//! Compiled kernels use device *virtual* addresses; the CoE runtime
//! relocates a model's segments every activation (a fresh HBM block each
//! time), so the AGCUs translate virtual ranges to the currently mapped
//! physical regions. This module implements that segment table with
//! overlap validation and fault reporting.

use crate::alloc::Region;
use sn_arch::Bytes;
use std::error::Error;
use std::fmt;

/// A virtual address in a model's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

/// A translated physical location: tier plus byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysAddr {
    pub tier: crate::tier::MemoryTier,
    pub offset: u64,
}

/// Translation faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// No segment maps this virtual address.
    Unmapped(VirtAddr),
    /// A new segment overlaps an existing mapping.
    Overlap { base: VirtAddr, size: Bytes },
    /// An access crosses its segment's end.
    OutOfBounds { addr: VirtAddr, len: Bytes },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unmapped(a) => write!(f, "unmapped virtual address {:#x}", a.0),
            TranslateError::Overlap { base, size } => {
                write!(
                    f,
                    "segment at {:#x}+{size} overlaps an existing mapping",
                    base.0
                )
            }
            TranslateError::OutOfBounds { addr, len } => {
                write!(f, "access {:#x}+{len} crosses its segment boundary", addr.0)
            }
        }
    }
}

impl Error for TranslateError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    base: u64,
    size: u64,
    region: Region,
}

/// A per-model segment table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentTable {
    /// Sorted by base, non-overlapping.
    segments: Vec<Segment>,
}

impl SegmentTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Maps `[base, base + region.size)` onto a physical region.
    ///
    /// # Errors
    ///
    /// [`TranslateError::Overlap`] if the virtual range intersects an
    /// existing segment.
    pub fn map(&mut self, base: VirtAddr, region: Region) -> Result<(), TranslateError> {
        let size = region.size.as_u64();
        let end = base.0 + size;
        let pos = self.segments.partition_point(|s| s.base < base.0);
        let clash = (pos > 0 && self.segments[pos - 1].base + self.segments[pos - 1].size > base.0)
            || (pos < self.segments.len() && self.segments[pos].base < end);
        if clash {
            return Err(TranslateError::Overlap {
                base,
                size: region.size,
            });
        }
        self.segments.insert(
            pos,
            Segment {
                base: base.0,
                size,
                region,
            },
        );
        Ok(())
    }

    /// Unmaps the segment at `base`; returns its region for freeing.
    ///
    /// # Errors
    ///
    /// [`TranslateError::Unmapped`] if no segment starts exactly there.
    pub fn unmap(&mut self, base: VirtAddr) -> Result<Region, TranslateError> {
        match self.segments.iter().position(|s| s.base == base.0) {
            Some(i) => Ok(self.segments.remove(i).region),
            None => Err(TranslateError::Unmapped(base)),
        }
    }

    /// Translates one virtual address.
    ///
    /// # Errors
    ///
    /// [`TranslateError::Unmapped`] when nothing maps the address.
    pub fn translate(&self, addr: VirtAddr) -> Result<PhysAddr, TranslateError> {
        let pos = self.segments.partition_point(|s| s.base <= addr.0);
        if pos == 0 {
            return Err(TranslateError::Unmapped(addr));
        }
        let s = &self.segments[pos - 1];
        if addr.0 >= s.base + s.size {
            return Err(TranslateError::Unmapped(addr));
        }
        Ok(PhysAddr {
            tier: s.region.tier,
            offset: s.region.offset + (addr.0 - s.base),
        })
    }

    /// Translates a contiguous access, enforcing that it stays inside one
    /// segment (AGCU descriptors never straddle segments).
    ///
    /// # Errors
    ///
    /// [`TranslateError::Unmapped`] or [`TranslateError::OutOfBounds`].
    pub fn translate_range(&self, addr: VirtAddr, len: Bytes) -> Result<PhysAddr, TranslateError> {
        let p = self.translate(addr)?;
        let pos = self.segments.partition_point(|s| s.base <= addr.0);
        let s = &self.segments[pos - 1];
        if addr.0 + len.as_u64() > s.base + s.size {
            return Err(TranslateError::OutOfBounds { addr, len });
        }
        Ok(p)
    }

    /// Remaps an existing segment onto a new physical region of the same
    /// size — what activation does when a model's HBM block moves.
    ///
    /// # Errors
    ///
    /// [`TranslateError::Unmapped`] for a foreign base;
    /// [`TranslateError::OutOfBounds`] for a size mismatch.
    pub fn remap(&mut self, base: VirtAddr, region: Region) -> Result<(), TranslateError> {
        let seg = self
            .segments
            .iter_mut()
            .find(|s| s.base == base.0)
            .ok_or(TranslateError::Unmapped(base))?;
        if seg.size != region.size.as_u64() {
            return Err(TranslateError::OutOfBounds {
                addr: base,
                len: region.size,
            });
        }
        seg.region = region;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::MemoryTier;
    use proptest::prelude::*;

    fn region(tier: MemoryTier, offset: u64, size: u64) -> Region {
        Region {
            tier,
            offset,
            size: Bytes::new(size),
        }
    }

    #[test]
    fn translate_offsets_within_segment() {
        let mut t = SegmentTable::new();
        t.map(VirtAddr(0x1000), region(MemoryTier::Hbm, 0x4_0000, 0x1000))
            .unwrap();
        let p = t.translate(VirtAddr(0x1234)).unwrap();
        assert_eq!(p.tier, MemoryTier::Hbm);
        assert_eq!(p.offset, 0x4_0234);
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut t = SegmentTable::new();
        t.map(VirtAddr(0x1000), region(MemoryTier::Hbm, 0, 0x1000))
            .unwrap();
        assert!(matches!(
            t.translate(VirtAddr(0xfff)),
            Err(TranslateError::Unmapped(_))
        ));
        assert!(matches!(
            t.translate(VirtAddr(0x2000)),
            Err(TranslateError::Unmapped(_))
        ));
    }

    #[test]
    fn overlapping_maps_rejected() {
        let mut t = SegmentTable::new();
        t.map(VirtAddr(0x1000), region(MemoryTier::Hbm, 0, 0x1000))
            .unwrap();
        assert!(t
            .map(VirtAddr(0x1800), region(MemoryTier::Ddr, 0, 0x1000))
            .is_err());
        assert!(t
            .map(VirtAddr(0x800), region(MemoryTier::Ddr, 0, 0x900))
            .is_err());
        // Adjacent is fine.
        t.map(VirtAddr(0x2000), region(MemoryTier::Ddr, 0, 0x1000))
            .unwrap();
    }

    #[test]
    fn ranged_access_cannot_straddle() {
        let mut t = SegmentTable::new();
        t.map(VirtAddr(0), region(MemoryTier::Hbm, 0, 0x100))
            .unwrap();
        t.map(VirtAddr(0x100), region(MemoryTier::Ddr, 0, 0x100))
            .unwrap();
        assert!(t.translate_range(VirtAddr(0x80), Bytes::new(0x80)).is_ok());
        assert!(matches!(
            t.translate_range(VirtAddr(0x80), Bytes::new(0x81)),
            Err(TranslateError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn remap_models_hbm_activation() {
        // A model's weights live at a fixed virtual base; each activation
        // lands them in a different HBM block.
        let mut t = SegmentTable::new();
        let base = VirtAddr(0x10_0000);
        t.map(base, region(MemoryTier::Ddr, 0x999, 0x4000)).unwrap();
        assert_eq!(t.translate(base).unwrap().tier, MemoryTier::Ddr);
        t.remap(base, region(MemoryTier::Hbm, 0x7000, 0x4000))
            .unwrap();
        let p = t.translate(VirtAddr(0x10_0010)).unwrap();
        assert_eq!(p.tier, MemoryTier::Hbm);
        assert_eq!(p.offset, 0x7010);
        // Size mismatches are faults, not silent truncation.
        assert!(t.remap(base, region(MemoryTier::Hbm, 0, 0x2000)).is_err());
    }

    #[test]
    fn unmap_returns_the_region() {
        let mut t = SegmentTable::new();
        let r = region(MemoryTier::Hbm, 0x40, 0x10);
        t.map(VirtAddr(0x100), r).unwrap();
        assert_eq!(t.unmap(VirtAddr(0x100)).unwrap(), r);
        assert!(t.is_empty());
        assert!(t.unmap(VirtAddr(0x100)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round trip: every address inside a mapped segment translates to
        /// the region's offset plus the in-segment displacement, and every
        /// address outside faults.
        #[test]
        fn translation_is_exact(
            bases in proptest::collection::btree_set(0u64..1000, 1..6),
            size in 1u64..40,
        ) {
            let mut t = SegmentTable::new();
            let mut mapped = Vec::new();
            for (i, &b) in bases.iter().enumerate() {
                let va = VirtAddr(b * 100);
                let r = region(MemoryTier::Hbm, 10_000 * (i as u64 + 1), size);
                t.map(va, r).unwrap();
                mapped.push((va, r));
            }
            for (va, r) in &mapped {
                for d in [0, size / 2, size - 1] {
                    let p = t.translate(VirtAddr(va.0 + d)).unwrap();
                    prop_assert_eq!(p.offset, r.offset + d);
                }
                prop_assert!(t.translate(VirtAddr(va.0 + size)).is_err() ||
                    mapped.iter().any(|(o, _)| o.0 == va.0 + size));
            }
        }
    }
}
