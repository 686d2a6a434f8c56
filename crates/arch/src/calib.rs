//! Calibration constants: every number in the reproduction that is neither
//! in the paper nor on a datasheet lives here, with its provenance.
//!
//! The macro results (Figures 10–13, Tables I and III) are driven by the
//! specs in [`crate::socket`] / [`crate::gpu`] plus the handful of overhead
//! and efficiency constants below. Keeping them in one struct makes the
//! model auditable and lets benches run sensitivity sweeps.

use crate::units::TimeSecs;

/// Who sequences kernel launches (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orchestration {
    /// The host runtime issues Program Load / Argument Load / Kernel
    /// Execute per kernel: flexible and visible, but each launch pays a
    /// host round trip.
    Software,
    /// A static kernel schedule is offloaded to the AGCU, leaving only a
    /// residual per-kernel tick (§IV-D).
    Hardware,
}

/// Tunable constants of the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Host-side dispatch cost per kernel under *software-orchestrated*
    /// launches (§IV-D): driver call, argument marshalling, and the
    /// host-to-AGCU round trip. Chosen at the microsecond scale typical of
    /// PCIe-attached accelerators; Figure 10's HO-vs-SO decode gains
    /// (1.4x–8x) emerge from this constant against per-kernel execution
    /// times.
    pub so_launch_overhead: TimeSecs,
    /// Residual per-kernel cost under *hardware-orchestrated* launches: the
    /// AGCU walks a static schedule, so only a program-load tick remains.
    pub ho_launch_overhead: TimeSecs,
    /// One-time cost to load a kernel's configuration bitstream onto the
    /// tile (Program Load + Argument Load, §IV-D), amortized across an
    /// execution; charged once per distinct kernel per launch sequence.
    pub program_load: TimeSecs,
    /// Fraction of peak PCU throughput a well-parallelized *compute-bound*
    /// kernel sustains on the RDU (pipeline fill/drain, imperfect tiling).
    pub rdu_compute_efficiency: f64,
    /// Fraction of peak sustained by *unfused* single-operator kernels on
    /// the RDU: each operator still runs parallelized across the tile
    /// (§VI-A "each kernel is still parallelized to run efficiently").
    pub rdu_unfused_compute_efficiency: f64,
    /// Pipeline fill/drain penalty of a fused spatial pipeline, expressed
    /// as equivalent extra tiles of latency per pipeline stage.
    pub pipeline_fill_tiles_per_stage: f64,
    /// Fraction of a TP8 collective (AllReduce) hidden by fusing it into
    /// the consuming pipeline over P2P (§VII); the remainder is exposed.
    pub p2p_overlap: f64,
    /// GPU-side efficiency multiplier for attention/normalization-heavy
    /// unfusable sections during *prefill* (well-optimized handwritten
    /// kernels: FlashAttention etc.).
    pub gpu_prefill_efficiency: f64,
    /// Router execution cost expressed as equivalent decode steps of the
    /// router model (the router generates a single classification token
    /// plus feature pre/post-processing).
    pub router_equiv_decode_steps: f64,
}

impl Calibration {
    /// Per-kernel launch overhead under the given orchestration mode.
    pub fn launch_overhead(&self, orch: Orchestration) -> TimeSecs {
        match orch {
            Orchestration::Software => self.so_launch_overhead,
            Orchestration::Hardware => self.ho_launch_overhead,
        }
    }

    /// The default calibration used for all reported experiments.
    pub fn baseline() -> Self {
        Calibration {
            so_launch_overhead: TimeSecs::from_micros(20.0),
            ho_launch_overhead: TimeSecs::from_micros(0.5),
            program_load: TimeSecs::from_micros(10.0),
            rdu_compute_efficiency: 0.90,
            rdu_unfused_compute_efficiency: 0.85,
            pipeline_fill_tiles_per_stage: 1.0,
            p2p_overlap: 0.8,
            gpu_prefill_efficiency: 0.85,
            router_equiv_decode_steps: 2.0,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ho_is_much_cheaper_than_so() {
        let c = Calibration::baseline();
        let ratio = c.so_launch_overhead.as_secs() / c.ho_launch_overhead.as_secs();
        assert!(
            ratio > 10.0,
            "HO must eliminate most launch cost, ratio {ratio}"
        );
    }

    #[test]
    fn efficiencies_are_fractions() {
        let c = Calibration::baseline();
        for e in [
            c.rdu_compute_efficiency,
            c.rdu_unfused_compute_efficiency,
            c.p2p_overlap,
            c.gpu_prefill_efficiency,
        ] {
            assert!(e > 0.0 && e <= 1.0);
        }
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(Calibration::default(), Calibration::baseline());
    }
}
