//! First-fit region allocator with free-list coalescing.
//!
//! Both users of this allocator are described in §V: the compiler's static
//! allocator assigns device virtual addresses to symbols (reusing addresses
//! across non-overlapping lifetimes — the "static garbage collection"), and
//! the CoE runtime allocates a DDR block per expert model and an HBM block
//! per *active* expert.

use crate::tier::MemoryTier;
use serde::{Deserialize, Serialize};
use sn_arch::Bytes;
use std::error::Error;
use std::fmt;

/// A contiguous allocation inside one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    pub tier: MemoryTier,
    /// Byte offset of the region base within the tier.
    pub offset: u64,
    pub size: Bytes,
}

impl Region {
    /// One-past-the-end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.size.as_u64()
    }

    /// Whether two regions overlap (must be in the same tier to overlap).
    pub fn overlaps(&self, other: &Region) -> bool {
        self.tier == other.tier && self.offset < other.end() && other.offset < self.end()
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous space in the tier.
    OutOfMemory {
        tier: MemoryTier,
        requested: Bytes,
        free: Bytes,
    },
    /// `free` was called with a region this allocator does not own.
    UnknownRegion(Region),
    /// A zero-byte allocation was requested.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                tier,
                requested,
                free,
            } => {
                write!(
                    f,
                    "out of memory in {tier}: requested {requested}, {free} free"
                )
            }
            AllocError::UnknownRegion(r) => {
                write!(f, "freeing unknown region at {}+{}", r.offset, r.size)
            }
            AllocError::ZeroSize => write!(f, "zero-byte allocation"),
        }
    }
}

impl Error for AllocError {}

/// A first-fit allocator over one tier's address range.
///
/// Freed regions are coalesced with adjacent free space, so alternating
/// allocation patterns (the LRU expert cache) do not fragment unboundedly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionAllocator {
    tier: MemoryTier,
    capacity: Bytes,
    /// Sorted, non-adjacent free extents as (offset, size).
    free_list: Vec<(u64, u64)>,
    /// Outstanding allocations as (offset, size), kept sorted by offset.
    live: Vec<(u64, u64)>,
}

impl RegionAllocator {
    /// Creates an allocator over `capacity` bytes of the given tier.
    pub fn new(tier: MemoryTier, capacity: Bytes) -> Self {
        let free_list = if capacity == Bytes::ZERO {
            Vec::new()
        } else {
            vec![(0, capacity.as_u64())]
        };
        RegionAllocator {
            tier,
            capacity,
            free_list,
            live: Vec::new(),
        }
    }

    pub fn tier(&self) -> MemoryTier {
        self.tier
    }

    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Total free bytes (possibly fragmented).
    pub fn free_bytes(&self) -> Bytes {
        Bytes::new(self.free_list.iter().map(|&(_, s)| s).sum())
    }

    /// Total allocated bytes.
    pub fn used_bytes(&self) -> Bytes {
        self.capacity - self.free_bytes()
    }

    /// The largest single allocation that can currently succeed.
    pub fn largest_free_extent(&self) -> Bytes {
        Bytes::new(self.free_list.iter().map(|&(_, s)| s).max().unwrap_or(0))
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` bytes first-fit.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] for empty requests;
    /// [`AllocError::OutOfMemory`] when no free extent is large enough
    /// (the error reports *total* free bytes, which may be nonzero under
    /// fragmentation).
    pub fn alloc(&mut self, size: Bytes) -> Result<Region, AllocError> {
        if size == Bytes::ZERO {
            return Err(AllocError::ZeroSize);
        }
        let need = size.as_u64();
        let slot = self.free_list.iter().position(|&(_, s)| s >= need);
        let Some(i) = slot else {
            return Err(AllocError::OutOfMemory {
                tier: self.tier,
                requested: size,
                free: self.free_bytes(),
            });
        };
        let (off, avail) = self.free_list[i];
        if avail == need {
            self.free_list.remove(i);
        } else {
            self.free_list[i] = (off + need, avail - need);
        }
        let pos = self.live.partition_point(|&(o, _)| o < off);
        self.live.insert(pos, (off, need));
        Ok(Region {
            tier: self.tier,
            offset: off,
            size,
        })
    }

    /// Returns a region to the free list, coalescing with neighbors.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownRegion`] if the region was not allocated from
    /// this allocator (or was already freed).
    pub fn free(&mut self, region: Region) -> Result<(), AllocError> {
        if region.tier != self.tier {
            return Err(AllocError::UnknownRegion(region));
        }
        // `live` is sorted by offset and live offsets are unique.
        let (off, size) = (region.offset, region.size.as_u64());
        match self.live.binary_search_by_key(&off, |&(o, _)| o) {
            Ok(pos) if self.live[pos].1 == size => {
                self.live.remove(pos);
            }
            _ => return Err(AllocError::UnknownRegion(region)),
        }
        let i = self.free_list.partition_point(|&(o, _)| o < off);
        self.free_list.insert(i, (off, size));
        // Coalesce with successor, then predecessor.
        if i + 1 < self.free_list.len() {
            let (no, ns) = self.free_list[i + 1];
            if off + size == no {
                self.free_list[i].1 += ns;
                self.free_list.remove(i + 1);
            }
        }
        if i > 0 {
            let (po, ps) = self.free_list[i - 1];
            if po + ps == off {
                self.free_list[i - 1].1 += self.free_list[i].1;
                self.free_list.remove(i);
            }
        }
        Ok(())
    }

    /// Frees everything, returning the allocator to its initial state.
    pub fn reset(&mut self) {
        self.live.clear();
        self.free_list.clear();
        if self.capacity > Bytes::ZERO {
            self.free_list.push((0, self.capacity.as_u64()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_kib(a: &mut RegionAllocator, k: u64) -> Region {
        a.alloc(Bytes::from_kib(k)).expect("allocation fits")
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(64));
        let r = alloc_kib(&mut a, 16);
        assert_eq!(a.used_bytes(), Bytes::from_kib(16));
        a.free(r).unwrap();
        assert_eq!(a.used_bytes(), Bytes::ZERO);
        assert_eq!(a.largest_free_extent(), Bytes::from_kib(64));
    }

    #[test]
    fn first_fit_packs_from_base() {
        let mut a = RegionAllocator::new(MemoryTier::Ddr, Bytes::from_kib(64));
        let r1 = alloc_kib(&mut a, 16);
        let r2 = alloc_kib(&mut a, 16);
        assert_eq!(r1.offset, 0);
        assert_eq!(r2.offset, Bytes::from_kib(16).as_u64());
    }

    #[test]
    fn freed_hole_is_reused() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(64));
        let r1 = alloc_kib(&mut a, 16);
        let _r2 = alloc_kib(&mut a, 16);
        a.free(r1).unwrap();
        let r3 = alloc_kib(&mut a, 8);
        assert_eq!(r3.offset, 0, "first-fit reuses the freed hole");
    }

    #[test]
    fn coalescing_restores_large_extent() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(64));
        let r1 = alloc_kib(&mut a, 16);
        let r2 = alloc_kib(&mut a, 16);
        let r3 = alloc_kib(&mut a, 16);
        // Free in an order that exercises both coalesce directions.
        a.free(r2).unwrap();
        a.free(r1).unwrap();
        a.free(r3).unwrap();
        assert_eq!(a.largest_free_extent(), Bytes::from_kib(64));
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(32));
        let _r = alloc_kib(&mut a, 24);
        let err = a.alloc(Bytes::from_kib(16)).unwrap_err();
        match err {
            AllocError::OutOfMemory { free, .. } => assert_eq!(free, Bytes::from_kib(8)),
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn fragmentation_can_fail_despite_total_free() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(48));
        let _r1 = alloc_kib(&mut a, 16);
        let r2 = alloc_kib(&mut a, 16);
        let _r3 = alloc_kib(&mut a, 16);
        a.free(r2).unwrap();
        // 16 KiB free but we ask for more than the largest extent... still
        // succeeds for 16, fails for 17.
        assert!(a.alloc(Bytes::from_kib(16) + Bytes::new(1)).is_err());
    }

    #[test]
    fn double_free_rejected() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(32));
        let r = alloc_kib(&mut a, 8);
        a.free(r).unwrap();
        assert!(matches!(a.free(r), Err(AllocError::UnknownRegion(_))));
    }

    #[test]
    fn wrong_size_free_rejected() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(32));
        let r = alloc_kib(&mut a, 8);
        let short = Region {
            size: Bytes::from_kib(4),
            ..r
        };
        assert!(matches!(a.free(short), Err(AllocError::UnknownRegion(_))));
        assert_eq!(a.used_bytes(), Bytes::from_kib(8), "nothing was freed");
        a.free(r).unwrap();
    }

    #[test]
    fn foreign_tier_free_rejected() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(32));
        let r = alloc_kib(&mut a, 8);
        let foreign = Region {
            tier: MemoryTier::Ddr,
            ..r
        };
        assert!(matches!(a.free(foreign), Err(AllocError::UnknownRegion(_))));
        assert_eq!(a.used_bytes(), Bytes::from_kib(8), "nothing was freed");
        a.free(r).unwrap();
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(32));
        assert_eq!(a.alloc(Bytes::ZERO).unwrap_err(), AllocError::ZeroSize);
    }

    #[test]
    fn zero_capacity_allocator_always_fails() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::ZERO);
        assert!(a.alloc(Bytes::new(1)).is_err());
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = RegionAllocator::new(MemoryTier::Ddr, Bytes::from_kib(32));
        let _ = alloc_kib(&mut a, 8);
        let _ = alloc_kib(&mut a, 8);
        a.reset();
        assert_eq!(a.free_bytes(), Bytes::from_kib(32));
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn regions_never_overlap() {
        let mut a = RegionAllocator::new(MemoryTier::Hbm, Bytes::from_kib(128));
        let mut live = Vec::new();
        for i in 0..8 {
            live.push(alloc_kib(&mut a, (i % 3) + 1));
        }
        // Free every other, allocate more, and re-check.
        for r in live.iter().step_by(2) {
            a.free(*r).unwrap();
        }
        let mut survivors: Vec<Region> = live.iter().skip(1).step_by(2).copied().collect();
        for _ in 0..4 {
            survivors.push(alloc_kib(&mut a, 2));
        }
        for (i, r1) in survivors.iter().enumerate() {
            for r2 in &survivors[i + 1..] {
                assert!(!r1.overlaps(r2), "{r1:?} overlaps {r2:?}");
            }
        }
    }
}
