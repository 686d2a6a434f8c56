//! Per-socket device memory: one allocator per tier, built from a
//! [`SocketSpec`].

use crate::alloc::{AllocError, Region, RegionAllocator};
use crate::tier::MemoryTier;
use sn_arch::{Bytes, SocketSpec};

/// The software-managed memory of one socket (SRAM is managed by the
/// compiler's place-and-route, not by this dynamic allocator, so only HBM
/// and DDR appear here; a host-DRAM allocator is included for baselines and
/// worst-case spill modeling).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMemory {
    hbm: RegionAllocator,
    ddr: RegionAllocator,
    host: RegionAllocator,
}

impl DeviceMemory {
    /// Builds device memory from a socket spec, with a 2 TiB host tier.
    pub fn new(socket: &SocketSpec) -> Self {
        DeviceMemory {
            hbm: RegionAllocator::new(MemoryTier::Hbm, socket.hbm.capacity),
            ddr: RegionAllocator::new(MemoryTier::Ddr, socket.ddr.capacity),
            host: RegionAllocator::new(MemoryTier::HostDram, Bytes::from_tib(2)),
        }
    }

    /// Builds device memory with explicit tier capacities.
    pub fn with_capacities(hbm: Bytes, ddr: Bytes, host: Bytes) -> Self {
        DeviceMemory {
            hbm: RegionAllocator::new(MemoryTier::Hbm, hbm),
            ddr: RegionAllocator::new(MemoryTier::Ddr, ddr),
            host: RegionAllocator::new(MemoryTier::HostDram, host),
        }
    }

    fn allocator(&self, tier: MemoryTier) -> &RegionAllocator {
        match tier {
            MemoryTier::Hbm => &self.hbm,
            MemoryTier::Ddr => &self.ddr,
            MemoryTier::HostDram => &self.host,
            MemoryTier::Sram => panic!("SRAM is statically managed by the compiler"),
        }
    }

    fn allocator_mut(&mut self, tier: MemoryTier) -> &mut RegionAllocator {
        match tier {
            MemoryTier::Hbm => &mut self.hbm,
            MemoryTier::Ddr => &mut self.ddr,
            MemoryTier::HostDram => &mut self.host,
            MemoryTier::Sram => panic!("SRAM is statically managed by the compiler"),
        }
    }

    /// Allocates in the given tier.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from the tier's allocator.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is [`MemoryTier::Sram`]; on-chip SRAM is owned by
    /// compiled kernels, not the dynamic allocator.
    pub fn alloc(&mut self, tier: MemoryTier, size: Bytes) -> Result<Region, AllocError> {
        self.allocator_mut(tier).alloc(size)
    }

    /// Allocates in `tier`, falling back down the spill chain (HBM → DDR →
    /// host) on failure. Returns the region actually obtained.
    ///
    /// # Errors
    ///
    /// Returns the *last* tier's error when every tier in the chain is
    /// exhausted.
    pub fn alloc_with_spill(
        &mut self,
        tier: MemoryTier,
        size: Bytes,
    ) -> Result<Region, AllocError> {
        let mut t = tier;
        loop {
            match self.alloc(t, size) {
                Ok(r) => return Ok(r),
                Err(e) => match t.spill_target() {
                    Some(next) => t = next,
                    None => return Err(e),
                },
            }
        }
    }

    /// Frees a region in whatever tier it belongs to.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError::UnknownRegion`].
    pub fn free(&mut self, region: Region) -> Result<(), AllocError> {
        self.allocator_mut(region.tier).free(region)
    }

    /// Free bytes in a tier.
    pub fn free_bytes(&self, tier: MemoryTier) -> Bytes {
        self.allocator(tier).free_bytes()
    }

    /// Used bytes in a tier.
    pub fn used_bytes(&self, tier: MemoryTier) -> Bytes {
        self.allocator(tier).used_bytes()
    }

    /// Capacity of a tier.
    pub fn capacity(&self, tier: MemoryTier) -> Bytes {
        self.allocator(tier).capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_from_socket_spec() {
        let mem = DeviceMemory::new(&SocketSpec::sn40l());
        assert_eq!(mem.capacity(MemoryTier::Hbm), Bytes::from_gib(64));
        assert_eq!(mem.capacity(MemoryTier::Ddr), Bytes::from_gib(1536));
    }

    #[test]
    fn spill_falls_through_tiers() {
        let mut mem = DeviceMemory::with_capacities(
            Bytes::from_kib(4),
            Bytes::from_kib(8),
            Bytes::from_kib(16),
        );
        // Too big for HBM, fits in DDR.
        let r = mem
            .alloc_with_spill(MemoryTier::Hbm, Bytes::from_kib(6))
            .unwrap();
        assert_eq!(r.tier, MemoryTier::Ddr);
        // Too big for HBM and DDR, fits in host.
        let r2 = mem
            .alloc_with_spill(MemoryTier::Hbm, Bytes::from_kib(12))
            .unwrap();
        assert_eq!(r2.tier, MemoryTier::HostDram);
        // Too big for everything.
        assert!(mem
            .alloc_with_spill(MemoryTier::Hbm, Bytes::from_kib(32))
            .is_err());
    }

    #[test]
    fn tiers_are_independent() {
        let mut mem = DeviceMemory::with_capacities(
            Bytes::from_kib(8),
            Bytes::from_kib(8),
            Bytes::from_kib(8),
        );
        let h = mem.alloc(MemoryTier::Hbm, Bytes::from_kib(8)).unwrap();
        assert_eq!(mem.free_bytes(MemoryTier::Ddr), Bytes::from_kib(8));
        mem.free(h).unwrap();
        assert_eq!(mem.free_bytes(MemoryTier::Hbm), Bytes::from_kib(8));
    }

    #[test]
    #[should_panic(expected = "statically managed")]
    fn sram_is_not_dynamically_allocatable() {
        let mut mem = DeviceMemory::new(&SocketSpec::sn40l());
        let _ = mem.alloc(MemoryTier::Sram, Bytes::from_kib(1));
    }
}
