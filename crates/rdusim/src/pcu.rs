//! Pattern Compute Unit timing model (§IV-A).
//!
//! The PCU datapath is a header (dataflow intake), a body configurable as
//! an output-stationary systolic array or a pipelined SIMD core, and a tail
//! for transcendentals/conversions that fuses with the body. This module
//! answers one question: how many cycles does a given operation take on one
//! PCU (or a gang of PCUs)?

use sn_arch::{Cycles, PcuSpec};

/// Timing model for one PCU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcuModel {
    spec: PcuSpec,
}

impl PcuModel {
    pub fn new(spec: PcuSpec) -> Self {
        PcuModel { spec }
    }

    pub fn spec(&self) -> &PcuSpec {
        &self.spec
    }

    /// Cycles for an `m x n x k` GEMM on the systolic array.
    ///
    /// The array is output-stationary `rows x cols`: each `rows x cols`
    /// output tile takes `k` cycles of accumulation after a
    /// `rows + cols` fill, and tiles are processed back to back with the
    /// fill overlapped except for the first (§IV-A: inputs are streamed
    /// through broadcast buffers; results drain through the tail).
    pub fn systolic_cycles(&self, m: usize, n: usize, k: usize) -> Cycles {
        assert!(m > 0 && n > 0 && k > 0, "degenerate GEMM {m}x{n}x{k}");
        let rows = self.spec.systolic_rows;
        let cols = self.spec.systolic_cols;
        let tiles_m = m.div_ceil(rows);
        let tiles_n = n.div_ceil(cols);
        let fill = (rows + cols) as u64;
        let per_tile = k as u64;
        Cycles::new(fill + tiles_m as u64 * tiles_n as u64 * per_tile)
    }

    /// Cycles for a pointwise SIMD operation over `elements` values with a
    /// chain of `chained_ops` fused stage operations.
    ///
    /// The SIMD body is fully pipelined: one vector of `lanes` elements
    /// enters per cycle regardless of chain length (as long as the chain
    /// fits the stage budget); chain depth only adds pipeline fill.
    pub fn simd_cycles(&self, elements: u64, chained_ops: usize) -> Cycles {
        assert!(chained_ops >= 1, "a SIMD op needs at least one stage");
        let vectors = elements.div_ceil(self.spec.simd_lanes as u64);
        let fill = chained_ops.min(self.spec.simd_stages) as u64;
        Cycles::new(fill + vectors)
    }

    /// Whether a chain of `chained_ops` pointwise operations fits in one
    /// pass through the SIMD pipeline (otherwise the compiler must split
    /// it over multiple PCUs — "addressing composability" for compute).
    pub fn chain_fits(&self, chained_ops: usize) -> bool {
        chained_ops <= self.spec.simd_stages
    }

    /// Cycles for the same GEMM parallelized over `gang` PCUs
    /// (tensor-parallel split of the `n` dimension, as in Figure 4 where
    /// Gemm0 spans multiple PCUs).
    pub fn ganged_systolic_cycles(&self, m: usize, n: usize, k: usize, gang: usize) -> Cycles {
        assert!(gang >= 1);
        let n_per = n.div_ceil(gang).max(1);
        self.systolic_cycles(m, n_per, k)
    }

    /// Peak MACs retired per cycle when the array is fully utilized.
    pub fn peak_macs_per_cycle(&self) -> usize {
        self.spec.macs_per_cycle()
    }

    /// Efficiency of a GEMM on this PCU: useful MACs over array-slots used.
    /// Small GEMMs (< array dims) waste slots — the motivation for the
    /// SN40L's small-matrix improvements (§IV-E).
    pub fn systolic_efficiency(&self, m: usize, n: usize, k: usize) -> f64 {
        let useful = (m * n * k) as f64;
        let cycles = self.systolic_cycles(m, n, k).as_u64() as f64;
        let slots = cycles * self.peak_macs_per_cycle() as f64;
        useful / slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcu() -> PcuModel {
        PcuModel::new(PcuSpec::sn40l())
    }

    #[test]
    fn big_gemm_approaches_peak() {
        let p = pcu();
        let eff = p.systolic_efficiency(256, 256, 256);
        assert!(eff > 0.9, "large GEMM efficiency {eff}");
    }

    #[test]
    fn tiny_gemm_wastes_array() {
        let p = pcu();
        let eff = p.systolic_efficiency(4, 4, 32);
        assert!(
            eff < 0.2,
            "4x4 on a 16x16 array must be inefficient, got {eff}"
        );
    }

    #[test]
    fn gemm_cycles_scale_with_k() {
        let p = pcu();
        let c1 = p.systolic_cycles(16, 16, 64).as_u64();
        let c2 = p.systolic_cycles(16, 16, 128).as_u64();
        assert_eq!(c2 - c1, 64);
    }

    #[test]
    fn ganging_divides_n() {
        let p = pcu();
        let solo = p.systolic_cycles(64, 256, 64).as_u64();
        let gang4 = p.ganged_systolic_cycles(64, 256, 64, 4).as_u64();
        // 256 columns over 4 PCUs = 64 columns each; 4 tiles -> 1 tile.
        assert!(gang4 < solo / 2, "gang {gang4} vs solo {solo}");
    }

    #[test]
    fn simd_is_fully_pipelined() {
        let p = pcu();
        let one = p.simd_cycles(32 * 1000, 1).as_u64();
        let six = p.simd_cycles(32 * 1000, 6).as_u64();
        // Chain depth adds only fill cycles, not per-element cost.
        assert!(six - one <= 6);
    }

    #[test]
    fn long_chains_do_not_fit() {
        let p = pcu();
        assert!(p.chain_fits(6));
        assert!(!p.chain_fits(7));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_dim_gemm_panics() {
        let _ = pcu().systolic_cycles(0, 16, 16);
    }
}
