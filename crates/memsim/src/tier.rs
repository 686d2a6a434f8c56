//! Memory-tier identities.

use std::fmt;

/// One level of the memory system. Ordered from fastest/smallest to
/// slowest/largest — `Sram < Hbm < Ddr < HostDram` — so tiers can be
/// compared by "distance from the compute".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryTier {
    /// Distributed on-chip PMU scratchpads (tier 1, 520 MiB on SN40L).
    Sram,
    /// Co-packaged high-bandwidth memory (tier 2, 64 GiB per socket).
    Hbm,
    /// Directly attached DDR DIMMs (tier 3, up to 1.5 TiB per socket).
    Ddr,
    /// Host CPU memory across PCIe — a last resort the SN40L avoids for
    /// model weights, but where GPU baselines must spill (§III-B).
    HostDram,
}

impl MemoryTier {
    /// All tiers, fastest first.
    pub const ALL: [MemoryTier; 4] = [
        MemoryTier::Sram,
        MemoryTier::Hbm,
        MemoryTier::Ddr,
        MemoryTier::HostDram,
    ];

    /// The next-larger (slower) tier, if any.
    pub fn spill_target(self) -> Option<MemoryTier> {
        match self {
            MemoryTier::Sram => Some(MemoryTier::Hbm),
            MemoryTier::Hbm => Some(MemoryTier::Ddr),
            MemoryTier::Ddr => Some(MemoryTier::HostDram),
            MemoryTier::HostDram => None,
        }
    }

    /// Whether this tier is on the accelerator side of the PCIe boundary.
    pub fn is_device_local(self) -> bool {
        !matches!(self, MemoryTier::HostDram)
    }
}

impl fmt::Display for MemoryTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryTier::Sram => "SRAM",
            MemoryTier::Hbm => "HBM",
            MemoryTier::Ddr => "DDR",
            MemoryTier::HostDram => "HostDRAM",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_order_by_distance() {
        assert!(MemoryTier::Sram < MemoryTier::Hbm);
        assert!(MemoryTier::Hbm < MemoryTier::Ddr);
        assert!(MemoryTier::Ddr < MemoryTier::HostDram);
    }

    #[test]
    fn spill_chain_terminates() {
        let mut t = MemoryTier::Sram;
        let mut hops = 0;
        while let Some(next) = t.spill_target() {
            t = next;
            hops += 1;
        }
        assert_eq!(hops, 3);
        assert_eq!(t, MemoryTier::HostDram);
    }

    #[test]
    fn device_locality() {
        assert!(MemoryTier::Ddr.is_device_local());
        assert!(!MemoryTier::HostDram.is_device_local());
    }
}
