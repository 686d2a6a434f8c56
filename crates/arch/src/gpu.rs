//! GPU and DGX baseline descriptions (§VI-B).
//!
//! The paper estimates DGX latencies from published model-latency numbers
//! and "optimistic model switching estimates based on DGX specs". We follow
//! the same methodology: spec numbers below come from NVIDIA datasheets
//! cited by the paper (its references 17, 18, 20, and 21).

use crate::units::{Bandwidth, Bytes, FlopRate, TimeSecs};

/// One GPU's roofline-relevant characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    pub name: String,
    /// Peak dense BF16 tensor-core throughput.
    pub peak_bf16: FlopRate,
    pub hbm_capacity: Bytes,
    pub hbm_bandwidth: Bandwidth,
    /// Achievable fraction of HBM bandwidth for large streaming kernels.
    pub hbm_efficiency: f64,
    /// Achievable fraction of HBM bandwidth for the many small unfusable
    /// kernels of autoregressive decoding at small batch (gaps between
    /// launches, low per-kernel occupancy). Calibrated in
    /// [`crate::calib::Calibration`]'s documentation.
    pub hbm_efficiency_small_kernels: f64,
    /// CPU-side kernel launch overhead per kernel.
    pub kernel_launch: TimeSecs,
    /// CUDA-graph style reduced launch overhead (the strongest launch-cost
    /// mitigation we credit the baseline with).
    pub graph_launch: TimeSecs,
    /// Host-to-GPU copy bandwidth per GPU (PCIe).
    pub host_link: Bandwidth,
    /// Maximum operators conventional fusion can combine into one kernel
    /// (§VIII-3: "conventional operator fusion targets 1-5 operators").
    pub max_fused_ops: usize,
}

impl GpuSpec {
    /// NVIDIA A100 SXM 80 GB: 312 BF16 TFLOPS dense, 2.04 TB/s HBM2e,
    /// 32 GB/s host-to-GPU (PCIe Gen4 x16 effective, per the paper's §VI-B).
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100".to_string(),
            peak_bf16: FlopRate::from_tflops(312.0),
            hbm_capacity: Bytes::from_gib(80),
            hbm_bandwidth: Bandwidth::from_tb_per_s(2.039),
            hbm_efficiency: 0.80,
            hbm_efficiency_small_kernels: 0.30,
            kernel_launch: TimeSecs::from_micros(8.0),
            graph_launch: TimeSecs::from_micros(1.5),
            host_link: Bandwidth::from_gb_per_s(32.0),
            max_fused_ops: 5,
        }
    }

    /// NVIDIA H100 SXM 80 GB: 989 BF16 TFLOPS dense, 3.35 TB/s HBM3,
    /// 64 GB/s host-to-GPU (per the paper's §VI-B).
    pub fn h100() -> Self {
        GpuSpec {
            name: "H100".to_string(),
            peak_bf16: FlopRate::from_tflops(989.0),
            hbm_capacity: Bytes::from_gib(80),
            hbm_bandwidth: Bandwidth::from_tb_per_s(3.35),
            hbm_efficiency: 0.80,
            hbm_efficiency_small_kernels: 0.24,
            kernel_launch: TimeSecs::from_micros(6.0),
            graph_launch: TimeSecs::from_micros(1.2),
            host_link: Bandwidth::from_gb_per_s(64.0),
            max_fused_ops: 5,
        }
    }

    /// Machine balance in FLOPs/byte (the paper quotes ~150 for the A100).
    pub fn balance(&self) -> f64 {
        self.peak_bf16 / self.hbm_bandwidth
    }

    /// Effective streaming bandwidth for large kernels.
    pub fn effective_hbm_bandwidth(&self) -> Bandwidth {
        self.hbm_bandwidth.scale(self.hbm_efficiency)
    }
}

/// A DGX node: eight GPUs, NVLink, and host DRAM that overflows experts.
#[derive(Debug, Clone, PartialEq)]
pub struct DgxSpec {
    pub name: String,
    pub gpu: GpuSpec,
    pub gpus: usize,
    /// Host DRAM capacity (DGX A100/H100 ship with 2 TiB).
    pub host_dram: Bytes,
    /// Fraction of host DRAM usable for expert weights (the OS, runtime,
    /// pinned buffers, and page tables consume the rest). Calibrated so that
    /// a DGX runs out of memory at the paper's 150-expert mark.
    pub host_dram_usable: f64,
    /// Aggregate NVLink all-reduce bandwidth per GPU.
    pub nvlink: Bandwidth,
    /// HBM reserved per node for the router, KV cache, activations, and
    /// framework state; the remainder holds resident experts. Calibrated so
    /// that the Figure 12 latency spike lands "around 50" experts.
    pub hbm_reserved: Bytes,
}

impl DgxSpec {
    /// DGX A100 (8x A100-80GB, 2 TiB host DRAM).
    pub fn dgx_a100() -> Self {
        DgxSpec {
            name: "DGX A100".to_string(),
            gpu: GpuSpec::a100(),
            gpus: 8,
            host_dram: Bytes::from_tib(2),
            host_dram_usable: 0.63,
            nvlink: Bandwidth::from_gb_per_s(300.0),
            hbm_reserved: Bytes::from_gib(40),
        }
    }

    /// DGX H100 (8x H100-80GB, 2 TiB host DRAM).
    pub fn dgx_h100() -> Self {
        DgxSpec {
            name: "DGX H100".to_string(),
            gpu: GpuSpec::h100(),
            gpus: 8,
            host_dram: Bytes::from_tib(2),
            host_dram_usable: 0.63,
            nvlink: Bandwidth::from_gb_per_s(450.0),
            hbm_reserved: Bytes::from_gib(40),
        }
    }

    /// Aggregate HBM capacity across GPUs.
    pub fn hbm_capacity(&self) -> Bytes {
        self.gpu.hbm_capacity * self.gpus as u64
    }

    /// HBM available for resident expert weights.
    pub fn hbm_for_experts(&self) -> Bytes {
        self.hbm_capacity().saturating_sub(self.hbm_reserved)
    }

    /// Host DRAM available for overflow expert weights.
    pub fn host_dram_for_experts(&self) -> Bytes {
        self.host_dram.scale(self.host_dram_usable)
    }

    /// Total weight capacity before out-of-memory.
    pub fn total_expert_capacity(&self) -> Bytes {
        self.hbm_for_experts() + self.host_dram_for_experts()
    }

    /// Host-to-GPU copy bandwidth available when switching an expert in.
    ///
    /// The paper's §VI-B speedup arithmetic (31x vs 32 GB/s on DGX A100,
    /// ~16x vs 64 GB/s on DGX H100, against the SN40L Node's >1 TB/s)
    /// treats the DGX host-to-GPU path as a single stream at the quoted
    /// per-GPU PCIe rate — host DRAM readout and the PCIe switch topology
    /// keep the eight links from scaling the copy. We model the same.
    pub fn model_switch_bandwidth(&self) -> Bandwidth {
        self.gpu.host_link
    }

    /// Aggregate peak BF16 compute.
    pub fn peak_bf16(&self) -> FlopRate {
        self.gpu.peak_bf16.scale(self.gpus as f64)
    }

    /// Aggregate peak HBM bandwidth.
    pub fn hbm_bandwidth(&self) -> Bandwidth {
        self.gpu.hbm_bandwidth.scale(self.gpus as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_balance_matches_paper_estimate() {
        // Paper §III-A: "approximately 300/2 = 150".
        let b = GpuSpec::a100().balance();
        assert!((b - 153.0).abs() < 5.0, "balance {b}");
    }

    #[test]
    fn dgx_ooms_near_150_experts() {
        // §VI-B: "DGXs run out of memory at 150 experts".
        let expert = Bytes::from_gb(13.48);
        for dgx in [DgxSpec::dgx_a100(), DgxSpec::dgx_h100()] {
            let max = (dgx.total_expert_capacity().as_f64() / expert.as_f64()) as usize;
            assert!(
                (145..=155).contains(&max),
                "{} holds {max} experts",
                dgx.name
            );
        }
    }

    #[test]
    fn dgx_hbm_holds_around_45_experts() {
        // Figure 12's latency spike "around 50 7B experts".
        let expert = Bytes::from_gb(13.48);
        let dgx = DgxSpec::dgx_a100();
        let resident = (dgx.hbm_for_experts().as_f64() / expert.as_f64()) as usize;
        assert!((42..=50).contains(&resident), "{resident} resident experts");
    }

    #[test]
    fn switch_bandwidth_ratios_match_paper() {
        // §VI-B: the SN40L Node's DDR->HBM copy (>1 TB/s) is 31x faster
        // than DGX A100 (32 GB/s host-to-GPU) and ~16x faster than DGX
        // H100 (64 GB/s host-to-GPU).
        let sn = crate::node::NodeSpec::sn40l_node().model_switch_bandwidth();
        let a = DgxSpec::dgx_a100().model_switch_bandwidth();
        let h = DgxSpec::dgx_h100().model_switch_bandwidth();
        assert!((sn / a) > 28.0 && (sn / a) < 36.0, "vs A100: {}", sn / a);
        assert!((sn / h) > 14.0 && (sn / h) < 18.0, "vs H100: {}", sn / h);
    }
}
