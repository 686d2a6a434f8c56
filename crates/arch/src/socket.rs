//! Socket-level descriptions: an RDU chip plus its two off-package memory
//! tiers (HBM and DDR) and external interfaces (§IV "Memory Interfaces").

use crate::chip::RduChipSpec;
use crate::units::{Bandwidth, Bytes, FlopRate};

/// Co-packaged high-bandwidth memory tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmSpec {
    pub capacity: Bytes,
    /// Peak pin bandwidth.
    pub bandwidth: Bandwidth,
    /// Fraction of peak achievable by a well-tuned streaming kernel. The
    /// paper reports fused decoders saturating "close to 85% of HBM
    /// bandwidth" (§VI-B), which we adopt as the achievable ceiling.
    pub efficiency: f64,
}

impl HbmSpec {
    /// Effective bandwidth after the achievable-fraction derating.
    pub fn effective_bandwidth(&self) -> Bandwidth {
        self.bandwidth.scale(self.efficiency)
    }
}

/// Directly attached DDR DRAM tier (pluggable DIMMs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrSpec {
    pub capacity: Bytes,
    /// Peak interface bandwidth.
    pub bandwidth: Bandwidth,
    /// Achievable fraction of peak for large sequential DMA. Chosen so that
    /// eight sockets deliver the paper's "over 1 TB/s" aggregate DDR-to-HBM
    /// copy rate (8 x 200 GB/s x 0.65 = 1.04 TB/s).
    pub efficiency: f64,
}

impl DdrSpec {
    /// Effective bandwidth after derating.
    pub fn effective_bandwidth(&self) -> Bandwidth {
        self.bandwidth.scale(self.efficiency)
    }
}

/// One SN40L socket: the chip plus HBM, DDR, host link, and P2P links.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketSpec {
    pub chip: RduChipSpec,
    pub hbm: HbmSpec,
    pub ddr: DdrSpec,
    /// PCIe link to the host CPU.
    pub host_link: Bandwidth,
    /// Peer-to-peer bandwidth to other sockets (per direction).
    pub p2p_bandwidth: Bandwidth,
}

impl SocketSpec {
    /// The SN40L socket (§IV): 64 GiB HBM at ~2 TB/s, up to 1.5 TiB DDR at
    /// over 200 GB/s, PCIe host interface.
    pub fn sn40l() -> Self {
        SocketSpec {
            chip: RduChipSpec::sn40l(),
            hbm: HbmSpec {
                capacity: Bytes::from_gib(64),
                bandwidth: Bandwidth::from_tb_per_s(2.0),
                efficiency: 0.85,
            },
            ddr: DdrSpec {
                capacity: Bytes::from_tib(1) + Bytes::from_gib(512),
                bandwidth: Bandwidth::from_gb_per_s(200.0),
                efficiency: 0.65,
            },
            host_link: Bandwidth::from_gb_per_s(32.0),
            p2p_bandwidth: Bandwidth::from_gb_per_s(100.0),
        }
    }

    /// The SN10 socket (no HBM tier: capacity zero; all model state lives in
    /// DDR). Used in ablations showing why the HBM tier was added (§IV-E).
    pub fn sn10() -> Self {
        SocketSpec {
            chip: RduChipSpec::sn10(),
            hbm: HbmSpec {
                capacity: Bytes::ZERO,
                bandwidth: Bandwidth::ZERO,
                efficiency: 0.0,
            },
            ddr: DdrSpec {
                capacity: Bytes::from_tib(1) + Bytes::from_gib(512),
                bandwidth: Bandwidth::from_gb_per_s(150.0),
                efficiency: 0.65,
            },
            host_link: Bandwidth::from_gb_per_s(16.0),
            p2p_bandwidth: Bandwidth::from_gb_per_s(50.0),
        }
    }

    /// Peak BF16 throughput of the socket.
    pub fn peak_bf16(&self) -> FlopRate {
        self.chip.peak_bf16()
    }

    /// Whether this socket has an HBM tier at all.
    pub fn has_hbm(&self) -> bool {
        self.hbm.capacity > Bytes::ZERO
    }

    /// Machine balance against HBM: FLOPs/byte at which kernels become
    /// compute-bound when streaming from HBM.
    pub fn hbm_balance(&self) -> f64 {
        self.peak_bf16() / self.hbm.bandwidth
    }

    /// The fastest path for bulk weight movement into HBM
    /// (accelerator-local DDR, not the host link).
    pub fn model_switch_bandwidth(&self) -> Bandwidth {
        self.ddr.effective_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sn40l_memory_tiers_match_paper() {
        let s = SocketSpec::sn40l();
        assert_eq!(s.hbm.capacity, Bytes::from_gib(64));
        assert!((s.hbm.bandwidth.as_tb_per_s() - 2.0).abs() < 1e-9);
        assert_eq!(s.ddr.capacity, Bytes::from_gib(1536));
        assert!(s.ddr.bandwidth.as_gb_per_s() >= 200.0);
    }

    #[test]
    fn sn40l_balance_is_above_a100() {
        // 638 TFLOPS / 2 TB/s = 319 FLOPs/byte; higher than the A100's 150,
        // which is exactly why fusion (raising intensity) matters more.
        let s = SocketSpec::sn40l();
        assert!(s.hbm_balance() > 300.0 && s.hbm_balance() < 340.0);
    }

    #[test]
    fn switch_bandwidth_aggregates_past_1tbps_on_8_sockets() {
        let s = SocketSpec::sn40l();
        let node_bw = s.model_switch_bandwidth().scale(8.0);
        assert!(
            node_bw.as_tb_per_s() > 1.0,
            "paper: over 1 TB/s, got {node_bw}"
        );
    }

    #[test]
    fn sn10_has_no_hbm() {
        assert!(!SocketSpec::sn10().has_hbm());
        assert!(SocketSpec::sn40l().has_hbm());
    }
}
