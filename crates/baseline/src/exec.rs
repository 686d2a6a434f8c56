//! Roofline execution model for DGX baselines.
//!
//! Each GPU of a TP8 DGX runs the same per-socket graph shard the RDU
//! sockets run, but partitioned under GPU fusion rules. Kernel time is the
//! max of the compute and memory rooflines; small kernels achieve a lower
//! fraction of HBM bandwidth (launch gaps, low occupancy), which is what
//! makes unfusable decode graphs slow even on very fast HBM.

use crate::partition::gpu_partition;
use sn_arch::{Bytes, Calibration, DgxSpec, TimeSecs};
use sn_dataflow::{Graph, OpKind};

/// Kernel launch mechanism to credit the baseline with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Stream launches from the host (one driver call per kernel).
    Standard,
    /// CUDA-graph replay: the optimistic assumption the paper grants DGX
    /// estimates.
    CudaGraph,
}

/// Timing breakdown for one graph execution on a DGX.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReport {
    pub total: TimeSecs,
    pub exec: TimeSecs,
    pub launch: TimeSecs,
    pub collective: TimeSecs,
    pub kernels: usize,
    pub traffic: Bytes,
}

/// Kernels moving less than this are "small": they cannot hide launch
/// latency or fill the memory system (empirically, decode-sized GEMM
/// kernels sit far below streaming bandwidth).
const SMALL_KERNEL_BYTES: u64 = 32 * 1024 * 1024;

/// Executes graphs analytically on a DGX node.
#[derive(Debug, Clone)]
pub struct GpuExecutor {
    dgx: DgxSpec,
    calib: Calibration,
}

impl GpuExecutor {
    pub fn new(dgx: DgxSpec, calib: Calibration) -> Self {
        GpuExecutor { dgx, calib }
    }

    pub fn dgx(&self) -> &DgxSpec {
        &self.dgx
    }

    /// Runs one per-GPU graph shard (all GPUs in lockstep under TP).
    pub fn run(&self, graph: &Graph, mode: LaunchMode) -> GpuReport {
        let gpu = &self.dgx.gpu;
        let partition = gpu_partition(graph, gpu.max_fused_ops);
        let mut exec = TimeSecs::ZERO;
        let mut collective = TimeSecs::ZERO;
        let mut traffic = Bytes::ZERO;
        for kernel in &partition {
            // Collectives run on NCCL over NVLink, fully exposed.
            if let OpKind::AllReduce { participants } = &graph.node(kernel[0]).op {
                if *participants > 1 {
                    let bytes = graph.tensor(graph.node(kernel[0]).output).bytes();
                    let factor = 2.0 * (*participants as f64 - 1.0) / *participants as f64;
                    collective += Bytes::new((bytes.as_f64() * factor) as u64) / self.dgx.nvlink;
                }
                continue;
            }
            let flops = graph.subset_flops(kernel);
            let bytes = graph.subset_boundary_bytes(kernel);
            traffic += bytes;
            let compute = flops / gpu.peak_bf16.scale(self.calib.gpu_prefill_efficiency);
            let bw_eff = if bytes.as_u64() < SMALL_KERNEL_BYTES {
                gpu.hbm_efficiency_small_kernels
            } else {
                gpu.hbm_efficiency
            };
            let memory = bytes / gpu.hbm_bandwidth.scale(bw_eff);
            exec += compute.max(memory);
        }
        let per_launch = match mode {
            LaunchMode::Standard => gpu.kernel_launch,
            LaunchMode::CudaGraph => gpu.graph_launch,
        };
        let launch = per_launch * partition.len() as f64;
        GpuReport {
            total: exec + launch + collective,
            exec,
            launch,
            collective,
            kernels: partition.len(),
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::{DgxSpec, NodeSpec, Orchestration, SocketSpec};
    use sn_compiler::{Compiler, FusionPolicy};
    use sn_models::{build, Phase, TransformerConfig};
    use sn_runtime::executor::NodeExecutor;

    fn a100() -> GpuExecutor {
        GpuExecutor::new(DgxSpec::dgx_a100(), Calibration::baseline())
    }

    fn h100() -> GpuExecutor {
        GpuExecutor::new(DgxSpec::dgx_h100(), Calibration::baseline())
    }

    fn llama_graph(phase: Phase) -> Graph {
        build(&TransformerConfig::llama2_7b(), phase, 1, 8).unwrap()
    }

    #[test]
    fn h100_beats_a100() {
        for phase in [
            Phase::Prefill {
                prompt_tokens: 4096,
            },
            Phase::Decode { past_tokens: 4096 },
        ] {
            let g = llama_graph(phase);
            let a = a100().run(&g, LaunchMode::CudaGraph).total;
            let h = h100().run(&g, LaunchMode::CudaGraph).total;
            assert!(h < a, "H100 must win: {h} vs {a}");
        }
    }

    #[test]
    fn decode_step_is_low_single_digit_ms() {
        // NVIDIA-published llama2-7b TP8 decode steps are 1-5 ms; the
        // model should land in that range.
        let g = llama_graph(Phase::Decode { past_tokens: 4096 });
        let t = a100().run(&g, LaunchMode::CudaGraph).total.as_millis();
        assert!(t > 1.0 && t < 8.0, "A100 decode step {t} ms");
    }

    #[test]
    fn sn40l_decode_beats_dgx_by_paper_margins() {
        // §VI-B under 50 experts, 200-token (decode-dominated) case:
        // ~3.2x vs DGX A100 and ~2.3x vs DGX H100.
        let g = llama_graph(Phase::Decode { past_tokens: 4096 });
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), Calibration::baseline());
        let rdu = node.run(&exe, Orchestration::Hardware).total;
        let a = a100().run(&g, LaunchMode::CudaGraph).total / rdu;
        let h = h100().run(&g, LaunchMode::CudaGraph).total / rdu;
        // The single-step graph ratio runs a little above the end-to-end
        // Table III expert ratio (which amortizes program loads over the
        // decode loop); the loop-level check lives in sn-coe.
        assert!(a > 2.5 && a < 5.5, "vs A100 {a:.2}x (paper 3.2x)");
        assert!(h > 1.8 && h < 4.5, "vs H100 {h:.2}x (paper 2.3x)");
    }

    #[test]
    fn sn40l_prefill_beats_dgx_moderately() {
        // Prefill is compute-bound; the win comes from fusion keeping the
        // pipeline busy, roughly the paper's 1.5-2x expert-speedup band.
        let g = llama_graph(Phase::Prefill {
            prompt_tokens: 4096,
        });
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), Calibration::baseline());
        let rdu = node.run(&exe, Orchestration::Hardware).total;
        let a = a100().run(&g, LaunchMode::CudaGraph).total / rdu;
        assert!(a > 1.3 && a < 4.0, "prefill vs A100 {a:.2}x");
    }

    #[test]
    fn cuda_graphs_help_decode() {
        let g = llama_graph(Phase::Decode { past_tokens: 4096 });
        let std = a100().run(&g, LaunchMode::Standard).total;
        let cg = a100().run(&g, LaunchMode::CudaGraph).total;
        assert!(cg < std);
    }

    #[test]
    fn report_accounts_collectives() {
        let g = llama_graph(Phase::Decode { past_tokens: 4096 });
        let r = a100().run(&g, LaunchMode::CudaGraph);
        assert!(
            r.collective.as_secs() > 0.0,
            "TP8 graphs all-reduce every layer"
        );
        assert!(r.kernels > 100);
    }
}
