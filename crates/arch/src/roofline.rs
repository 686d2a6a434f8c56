//! Roofline arithmetic (§III-A).
//!
//! The paper's fusion argument is a roofline argument: raising operational
//! intensity past the machine balance moves a kernel from the bandwidth
//! slope onto the compute ceiling. This module gives that argument a
//! first-class API used by the compiler's estimates and by examples.

use crate::units::{Bandwidth, FlopRate};

/// A machine's roofline: a compute ceiling and a memory-bandwidth slope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    pub peak: FlopRate,
    pub bandwidth: Bandwidth,
}

/// Which side of the balance point a kernel sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    MemoryBound,
    ComputeBound,
}

impl Roofline {
    pub fn new(peak: FlopRate, bandwidth: Bandwidth) -> Self {
        Roofline { peak, bandwidth }
    }

    /// The machine balance: FLOPs/byte at the ridge point.
    pub fn balance(&self) -> f64 {
        self.peak / self.bandwidth
    }

    /// Attainable throughput at a given operational intensity.
    ///
    /// ```
    /// use sn_arch::prelude::*;
    /// use sn_arch::roofline::Roofline;
    /// let r = Roofline::new(FlopRate::from_tflops(300.0), Bandwidth::from_tb_per_s(2.0));
    /// // Below the ridge (150), bandwidth-limited.
    /// assert!((r.attainable(75.0).as_tflops() - 150.0).abs() < 1e-9);
    /// // Above the ridge, the compute ceiling.
    /// assert!((r.attainable(400.0).as_tflops() - 300.0).abs() < 1e-9);
    /// ```
    pub fn attainable(&self, intensity: f64) -> FlopRate {
        assert!(intensity >= 0.0, "intensity cannot be negative");
        let bw_limited = FlopRate::from_flops_per_s(self.bandwidth.as_bytes_per_s() * intensity);
        bw_limited.min(self.peak)
    }

    /// Classifies an intensity.
    pub fn regime(&self, intensity: f64) -> Regime {
        if intensity < self.balance() {
            Regime::MemoryBound
        } else {
            Regime::ComputeBound
        }
    }

    /// Fraction of peak achieved at a given intensity (the utilization a
    /// perfectly scheduled kernel could reach).
    pub fn efficiency_at(&self, intensity: f64) -> f64 {
        self.attainable(intensity) / self.peak
    }

    /// Attained-vs-attainable ratio: how close a measured FLOP rate comes
    /// to what this roofline allows at the given intensity, clamped to
    /// `[0, 1]`. Returns 0.0 when nothing is attainable (zero intensity on
    /// the bandwidth slope) — the profiler's "no useful FLOPs here" case.
    pub fn utilization(&self, attained: FlopRate, intensity: f64) -> f64 {
        let ceiling = self.attainable(intensity);
        if ceiling.as_flops_per_s() == 0.0 {
            0.0
        } else {
            (attained / ceiling).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketSpec;

    fn a100_like() -> Roofline {
        Roofline::new(
            FlopRate::from_tflops(312.0),
            Bandwidth::from_tb_per_s(2.039),
        )
    }

    #[test]
    fn ridge_point_separates_regimes() {
        let r = a100_like();
        let b = r.balance();
        assert_eq!(r.regime(b * 0.5), Regime::MemoryBound);
        assert_eq!(r.regime(b * 2.0), Regime::ComputeBound);
    }

    #[test]
    fn attainable_is_continuous_at_ridge() {
        let r = a100_like();
        let b = r.balance();
        let below = r.attainable(b * 0.999).as_tflops();
        let above = r.attainable(b * 1.001).as_tflops();
        assert!((below - above).abs() / above < 0.01);
    }

    #[test]
    fn sn40l_roofline_classifies_table1() {
        // The Table I story on the SN40L's own roofline: only the fully
        // fused level is compute-bound.
        let s = SocketSpec::sn40l();
        let r = Roofline::new(s.peak_bf16(), s.hbm.bandwidth);
        assert_eq!(r.regime(34.9), Regime::MemoryBound);
        assert_eq!(r.regime(126.7), Regime::MemoryBound);
        assert_eq!(r.regime(368.5), Regime::ComputeBound);
    }

    #[test]
    fn utilization_compares_attained_to_attainable() {
        let r = a100_like();
        // Memory-bound intensity 50: attainable = 2.039 TB/s * 50.
        let ceiling = r.attainable(50.0);
        assert!((r.utilization(ceiling, 50.0) - 1.0).abs() < 1e-12);
        assert!((r.utilization(ceiling.scale(0.5), 50.0) - 0.5).abs() < 1e-12);
        // Over-attainment clamps instead of reporting >100%.
        assert_eq!(r.utilization(ceiling.scale(2.0), 50.0), 1.0);
        // Zero intensity: nothing attainable, utilization defined as zero.
        assert_eq!(r.utilization(FlopRate::from_tflops(1.0), 0.0), 0.0);
    }

    #[test]
    fn efficiency_saturates_at_one() {
        let r = a100_like();
        assert!(r.efficiency_at(10.0) < 0.1);
        assert!((r.efficiency_at(10_000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_intensity_panics() {
        let _ = a100_like().attainable(-1.0);
    }
}
