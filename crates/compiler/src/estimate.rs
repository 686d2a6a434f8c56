//! The static bandwidth model (§VII "Managing bandwidth in software").
//!
//! The paper's compiler predicts kernel performance "to a first order
//! statically" from a bandwidth model of the application and the hardware.
//! We do the same: a kernel's time is the maximum of its compute roofline
//! and its memory roofline, inflated by pipeline fill, plus any exposed
//! collective-communication time.

use crate::executable::Kernel;
use crate::fusion::FusionPolicy;
use crate::resources::{tile_count, TILE_ROWS};
use sn_arch::{Bytes, Calibration, Flops, SocketSpec, TimeSecs};
use sn_dataflow::{Graph, OpKind};

/// What limits a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// PCU throughput bound (high operational intensity).
    Compute,
    /// Off-chip bandwidth bound (low operational intensity).
    Memory,
    /// Dominated by inter-socket collective communication.
    Collective,
}

/// The static model's verdict for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEstimate {
    /// Execution time, excluding launch overhead.
    pub time: TimeSecs,
    pub bound: Bound,
    /// Off-chip boundary traffic.
    pub traffic: Bytes,
    pub flops: Flops,
    /// Exposed (non-overlapped) collective time included in `time`.
    pub collective: TimeSecs,
    /// Operational intensity in FLOPs/byte.
    pub intensity: f64,
}

/// Estimates one kernel on one socket.
pub fn estimate_kernel(
    graph: &Graph,
    kernel: &Kernel,
    socket: &SocketSpec,
    calib: &Calibration,
    policy: FusionPolicy,
) -> KernelEstimate {
    let flops = graph.subset_flops(&kernel.nodes);
    let traffic = graph.subset_boundary_bytes(&kernel.nodes);

    let efficiency = match policy {
        FusionPolicy::Spatial => calib.rdu_compute_efficiency,
        FusionPolicy::Unfused => calib.rdu_unfused_compute_efficiency,
    };
    let compute_time = flops / socket.peak_bf16().scale(efficiency);
    // Off-chip traffic streams from HBM when the socket has one; the SN10
    // ablation streams straight from DDR.
    let mem_bw = if socket.has_hbm() {
        socket.hbm.effective_bandwidth()
    } else {
        socket.ddr.effective_bandwidth()
    };
    let mem_time = traffic / mem_bw;

    // Pipeline fill: a spatial pipeline of S stages over T tiles runs for
    // (T + f*S) tile intervals instead of T (§III-A; validated against
    // sn-rdusim's PipelineSim).
    // Tiles: the longest stream through the pipeline — outputs and
    // streamed inputs (weight panels in a decode GEMM stream even though
    // the activation is a single row).
    let tiles = kernel
        .nodes
        .iter()
        .flat_map(|&n| {
            let node = graph.node(n);
            node.inputs.iter().chain(std::iter::once(&node.output))
        })
        .map(|&t| tile_count(&graph.tensor(t).shape))
        .max()
        .unwrap_or(1)
        .max(1);
    // Effective pipeline depth: a tile's latency through the pipeline is
    // the sum of per-stage service times, which for unbalanced stages is
    // much less than `stages x bottleneck`. Weight each stage by its share
    // of the bottleneck stage's work.
    let (stage_sum, max_stage) = kernel
        .nodes
        .iter()
        .map(|&n| graph.node_flops(n).as_f64())
        .filter(|&f| f > 0.0)
        .fold((0.0f64, 0.0f64), |(sum, max), f| (sum + f, max.max(f)));
    let effective_stages = if max_stage > 0.0 {
        (stage_sum / max_stage).max(1.0)
    } else {
        1.0
    };
    let fill_factor = match policy {
        FusionPolicy::Spatial => {
            (tiles as f64 + calib.pipeline_fill_tiles_per_stage * effective_stages) / tiles as f64
        }
        // Unfused kernels are one stage each; their fill is negligible
        // relative to the materialization traffic they already pay.
        FusionPolicy::Unfused => 1.0,
    };

    let core = compute_time.max(mem_time) * fill_factor;

    // Collectives: ring AllReduce moves 2(p-1)/p of the tensor over the
    // P2P links. Fused into a consuming pipeline, most of it hides behind
    // compute (§VII); standalone, it is fully exposed.
    let mut collective = TimeSecs::ZERO;
    for &nid in &kernel.nodes {
        if let OpKind::AllReduce { participants } = graph.node(nid).op {
            if participants > 1 {
                let bytes = graph.tensor(graph.node(nid).output).bytes();
                let factor = 2.0 * (participants as f64 - 1.0) / participants as f64;
                let wire = Bytes::new((bytes.as_f64() * factor) as u64) / socket.p2p_bandwidth;
                let exposed = match policy {
                    FusionPolicy::Spatial if kernel.nodes.len() > 1 => {
                        wire * (1.0 - calib.p2p_overlap)
                    }
                    _ => wire,
                };
                collective += exposed;
            }
        }
    }

    let time = core + collective;
    let bound = if collective > core {
        Bound::Collective
    } else if compute_time >= mem_time {
        Bound::Compute
    } else {
        Bound::Memory
    };
    KernelEstimate {
        time,
        bound,
        traffic,
        flops,
        collective,
        intensity: flops.intensity(traffic),
    }
}

/// Convenience: tiles per tensor row block (re-exported constant).
pub const fn tile_rows() -> usize {
    TILE_ROWS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, FusionPolicy};
    use sn_arch::{Calibration, SocketSpec};
    use sn_dataflow::monarch::monarch_fig3;
    use sn_dataflow::{BinaryKind, DType, GraphBuilder, OpKind, Shape, TensorKind};

    fn compiler() -> Compiler {
        Compiler::new(SocketSpec::sn40l(), Calibration::baseline())
    }

    #[test]
    fn fused_fig3_is_compute_bound_unfused_is_memory_bound() {
        // Table I's whole point: fusion moves the kernel across the
        // roofline knee.
        let g = monarch_fig3();
        let fused = compiler().compile(&g, FusionPolicy::Spatial).unwrap();
        assert_eq!(fused.estimates()[0].bound, Bound::Compute);
        let unfused = compiler().compile(&g, FusionPolicy::Unfused).unwrap();
        let memory_bound = unfused
            .estimates()
            .iter()
            .filter(|e| e.bound == Bound::Memory && e.flops.as_f64() > 0.0)
            .count();
        assert!(memory_bound >= 2, "most unfused FFT ops are memory bound");
    }

    #[test]
    fn fusion_speeds_up_execution() {
        let g = monarch_fig3();
        let fused = compiler().compile(&g, FusionPolicy::Spatial).unwrap();
        let unfused = compiler().compile(&g, FusionPolicy::Unfused).unwrap();
        let speedup = unfused.execution_time() / fused.execution_time();
        assert!(speedup > 2.0, "fusion speedup {speedup:.2}x");
    }

    #[test]
    fn memory_bound_kernel_time_tracks_bandwidth() {
        // A weight-streaming decode-style GEMM: time ~ bytes / HBM bw.
        let mut b = GraphBuilder::new("decode-gemm");
        let x = b.tensor("x", Shape::mat(1, 4096), DType::Bf16, TensorKind::Input);
        let w = b.tensor(
            "w",
            Shape::mat(4096, 11008),
            DType::Bf16,
            TensorKind::Weight,
        );
        let y = b
            .node("g", OpKind::Gemm { transpose_b: false }, &[x, w])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let exe = compiler().compile(&g, FusionPolicy::Spatial).unwrap();
        let e = exe.estimates()[0];
        assert_eq!(e.bound, Bound::Memory);
        let socket = SocketSpec::sn40l();
        let expect = Bytes::new(4096 * 11008 * 2) / socket.hbm.effective_bandwidth();
        let ratio = e.time.as_secs() / expect.as_secs();
        assert!(ratio > 0.99 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn standalone_allreduce_is_collective_bound() {
        let mut b = GraphBuilder::new("ar");
        let x = b.tensor("x", Shape::mat(1024, 1024), DType::Bf16, TensorKind::Input);
        let y = b
            .node("ar", OpKind::AllReduce { participants: 8 }, &[x])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let exe = compiler().compile(&g, FusionPolicy::Unfused).unwrap();
        assert_eq!(exe.estimates()[0].bound, Bound::Collective);
        assert!(exe.estimates()[0].collective > TimeSecs::ZERO);
    }

    #[test]
    fn fused_allreduce_mostly_hides() {
        let mk = |fuse: bool| {
            let mut b = GraphBuilder::new("ar");
            let x = b.tensor("x", Shape::mat(4096, 512), DType::Bf16, TensorKind::Input);
            let w = b.tensor("w", Shape::mat(512, 4096), DType::Bf16, TensorKind::Weight);
            let h = b
                .node("g", OpKind::Gemm { transpose_b: false }, &[x, w])
                .unwrap();
            let r = b
                .node("ar", OpKind::AllReduce { participants: 8 }, &[h])
                .unwrap();
            let y = b
                .node("add", OpKind::Binary(BinaryKind::Add), &[r, r])
                .unwrap();
            b.mark_output(y);
            let g = b.build().unwrap();
            let policy = if fuse {
                FusionPolicy::Spatial
            } else {
                FusionPolicy::Unfused
            };
            compiler().compile(&g, policy).unwrap()
        };
        let fused = mk(true);
        let unfused = mk(false);
        let fused_coll: TimeSecs = fused.estimates().iter().map(|e| e.collective).sum();
        let unfused_coll: TimeSecs = unfused.estimates().iter().map(|e| e.collective).sum();
        assert!(fused_coll.as_secs() < unfused_coll.as_secs() * 0.5);
    }
}
