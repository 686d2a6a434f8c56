//! Static bandwidth allocation (§VII "Managing bandwidth in software").
//!
//! "To utilize more bandwidth from units like HBM, more load and store
//! data streams need to be created by software. Conversely, units needing
//! less bandwidth should be allocated fewer resources to avoid
//! overprovisioning and wastage." This module sizes the DMA stream count
//! per kernel from the static estimate, checks it against the socket's
//! AGCU stream capacity, and reports over/under-provisioning.

use crate::estimate::KernelEstimate;
use crate::executable::Kernel;
use sn_arch::{Bandwidth, SocketSpec};
use sn_dataflow::{Graph, OpKind};

/// Sustained bandwidth of one AGCU DMA stream: one PMU vector
/// (`chip.pmu.vector_width`, 64 B on SN40L and SN10) per cycle at the core
/// clock.
pub fn per_stream_bandwidth(socket: &SocketSpec) -> Bandwidth {
    socket.chip.pmu.peak_bandwidth(socket.chip.clock)
}

/// Total concurrent DMA streams the socket's AGCUs sustain.
pub fn stream_capacity(socket: &SocketSpec) -> usize {
    socket.chip.tile.agcus * socket.chip.dies * socket.chip.agcu.dma_streams
}

/// The stream plan for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPlan {
    /// Average off-chip bandwidth the kernel must sustain to meet its
    /// static time estimate.
    pub required_bandwidth: Bandwidth,
    /// DMA streams allocated to meet it.
    pub hbm_streams: usize,
    /// Streams for P2P collective traffic.
    pub p2p_streams: usize,
    /// The allocation exceeds what the kernel needs by more than one
    /// stream — §VII's "wastage" condition (possible when the per-kernel
    /// floor exceeds demand).
    pub overprovisioned: bool,
    /// The socket cannot provide the required streams: the kernel would
    /// be stream-limited below its roofline (a compiler bug upstream).
    pub infeasible: bool,
}

/// Sizes streams for a kernel from its estimate.
pub fn plan_streams(
    graph: &Graph,
    kernel: &Kernel,
    estimate: &KernelEstimate,
    socket: &SocketSpec,
) -> StreamPlan {
    let per_stream = per_stream_bandwidth(socket);
    let required_bandwidth = if estimate.time.is_zero() {
        Bandwidth::ZERO
    } else {
        Bandwidth::from_bytes_per_s(estimate.traffic.as_f64() / estimate.time.as_secs())
    };
    let needed = (required_bandwidth / per_stream).ceil() as usize;
    // Every kernel holds at least one load and one store stream.
    let hbm_streams = needed.max(2);
    let p2p_streams = kernel
        .nodes
        .iter()
        .filter(|&&n| matches!(graph.node(n).op, OpKind::AllReduce { .. }))
        .count()
        * 2; // send + receive per collective
    let capacity = stream_capacity(socket);
    StreamPlan {
        required_bandwidth,
        hbm_streams,
        p2p_streams,
        overprovisioned: hbm_streams > needed + 1,
        infeasible: hbm_streams + p2p_streams > capacity,
    }
}

/// Plans every kernel of an executable; the socket-level sanity check the
/// paper's compiler performs before committing a mapping.
pub fn plan_executable(
    graph: &Graph,
    exe: &crate::Executable,
    socket: &SocketSpec,
) -> Vec<StreamPlan> {
    exe.kernels()
        .iter()
        .zip(exe.estimates())
        .map(|(k, e)| plan_streams(graph, k, e, socket))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, FusionPolicy};
    use sn_arch::Calibration;
    use sn_models::{build, Phase, TransformerConfig};

    fn socket() -> SocketSpec {
        SocketSpec::sn40l()
    }

    #[test]
    fn stream_bandwidth_follows_the_vector_width() {
        let s = socket();
        assert_eq!(
            per_stream_bandwidth(&s),
            Bandwidth::from_bytes_per_s(64.0 * s.chip.clock.as_hz())
        );
        let mut narrow = s.clone();
        narrow.chip.pmu.vector_width = sn_arch::Bytes::new(32);
        assert_eq!(
            per_stream_bandwidth(&narrow).as_bytes_per_s() * 2.0,
            per_stream_bandwidth(&s).as_bytes_per_s()
        );
    }

    #[test]
    fn stream_capacity_covers_hbm_saturation() {
        // Saturating 85% of 2 TB/s needs ~23 streams of 76.8 GB/s; the
        // AGCUs provide far more (§IV-D's concurrent stream pool).
        let s = socket();
        let needed = (s.hbm.effective_bandwidth() / per_stream_bandwidth(&s)).ceil() as usize;
        assert!(
            needed <= stream_capacity(&s),
            "{needed} vs {}",
            stream_capacity(&s)
        );
    }

    #[test]
    fn decode_kernels_need_many_streams() {
        // A fused weight-streaming decode layer approaches HBM bandwidth,
        // so its plan must allocate many concurrent streams.
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 4096 }, 1, 8).unwrap();
        let compiler = Compiler::new(socket(), Calibration::baseline());
        let exe = compiler.compile(&g, FusionPolicy::Spatial).unwrap();
        let plans = plan_executable(&g, &exe, &socket());
        let max_streams = plans.iter().map(|p| p.hbm_streams).max().unwrap();
        assert!(
            max_streams >= 10,
            "decode layers should fan out streams, got {max_streams}"
        );
        assert!(plans.iter().all(|p| !p.infeasible));
    }

    #[test]
    fn small_kernels_hold_minimal_streams() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 128 }, 1, 8).unwrap();
        let compiler = Compiler::new(socket(), Calibration::baseline());
        let exe = compiler.compile(&g, FusionPolicy::Unfused).unwrap();
        let plans = plan_executable(&g, &exe, &socket());
        // Elementwise unfused kernels barely touch memory per unit time,
        // yet never drop below the load+store floor.
        assert!(plans.iter().all(|p| p.hbm_streams >= 2));
        assert!(plans.iter().any(|p| p.hbm_streams == 2));
    }

    #[test]
    fn collectives_get_their_own_streams() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 1024 }, 1, 8).unwrap();
        let compiler = Compiler::new(socket(), Calibration::baseline());
        let exe = compiler.compile(&g, FusionPolicy::Spatial).unwrap();
        let plans = plan_executable(&g, &exe, &socket());
        let with_p2p = plans.iter().filter(|p| p.p2p_streams > 0).count();
        assert!(
            with_p2p >= cfg.layers,
            "each layer's collectives need streams"
        );
    }

    #[test]
    fn required_bandwidth_never_exceeds_the_roofline() {
        let cfg = TransformerConfig::llama2_7b();
        for phase in [
            Phase::Prefill {
                prompt_tokens: 2048,
            },
            Phase::Decode { past_tokens: 2048 },
        ] {
            let g = build(&cfg, phase, 1, 8).unwrap();
            let compiler = Compiler::new(socket(), Calibration::baseline());
            let exe = compiler.compile(&g, FusionPolicy::Spatial).unwrap();
            for p in plan_executable(&g, &exe, &socket()) {
                assert!(
                    p.required_bandwidth.as_bytes_per_s()
                        <= socket().hbm.effective_bandwidth().as_bytes_per_s() * 1.001,
                    "a kernel cannot demand more than effective HBM bandwidth"
                );
            }
        }
    }
}
