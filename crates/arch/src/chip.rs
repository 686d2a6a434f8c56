//! RDU chip-level hardware descriptions: PCUs, PMUs, AGCUs, and tiles.
//!
//! The numbers in the SN40L preset come straight from the paper (§IV):
//! 1040 PCUs and 1040 PMUs per socket, 520 MiB of distributed SRAM, 638 BF16
//! TFLOPS peak. Microarchitectural parameters that the paper does not state
//! (clock, systolic dimensions, bank counts) are chosen so that the published
//! aggregates are met exactly; each such choice is documented on the field.

use crate::units::{Bandwidth, Bytes, FlopRate, Frequency};

/// Pattern Compute Unit description (§IV-A).
///
/// A PCU's body is configurable as an output-stationary systolic array or as
/// a pipelined SIMD core; the tail performs transcendental and conversion
/// operations fused with the body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcuSpec {
    /// Rows of the systolic array (MACs along one side).
    pub systolic_rows: usize,
    /// Columns of the systolic array.
    pub systolic_cols: usize,
    /// SIMD lanes when configured as a pipelined vector core.
    pub simd_lanes: usize,
    /// SIMD pipeline stages available for chained elementwise work.
    pub simd_stages: usize,
    /// Whether the PCU supports dynamic per-packet destinations
    /// (SN40L yes, SN10 no — §IV-E "dynamic dataflows").
    pub dynamic_destinations: bool,
    /// Whether GEMM-with-integrated-bias is supported (SN40L addition).
    pub fused_bias: bool,
}

impl PcuSpec {
    /// SN40L PCU: 16x16 output-stationary systolic array, 32-lane /
    /// 6-stage SIMD pipeline. Dimensions are chosen such that 1040 PCUs at
    /// the SN40L clock reach the published 638 BF16 TFLOPS
    /// (1040 x 16 x 16 x 2 FLOP x 1.2 GHz = 638.98e12).
    pub fn sn40l() -> Self {
        PcuSpec {
            systolic_rows: 16,
            systolic_cols: 16,
            simd_lanes: 32,
            simd_stages: 6,
            dynamic_destinations: true,
            fused_bias: true,
        }
    }

    /// SN10 PCU (prior generation, §IV-E): same datapath shape but without
    /// the SN40L feature additions.
    pub fn sn10() -> Self {
        PcuSpec {
            systolic_rows: 16,
            systolic_cols: 16,
            simd_lanes: 32,
            simd_stages: 6,
            dynamic_destinations: false,
            fused_bias: false,
        }
    }

    /// Peak multiply-accumulates per cycle in systolic mode.
    pub fn macs_per_cycle(&self) -> usize {
        self.systolic_rows * self.systolic_cols
    }

    /// Peak FLOPs per cycle in systolic mode (2 FLOPs per MAC).
    pub fn flops_per_cycle(&self) -> usize {
        2 * self.macs_per_cycle()
    }

    /// Peak elementwise operations per cycle in SIMD mode.
    pub fn simd_ops_per_cycle(&self) -> usize {
        self.simd_lanes
    }

    /// Peak BF16 throughput of one PCU at the given clock.
    pub fn peak_bf16(&self, clock: Frequency) -> FlopRate {
        FlopRate::from_flops_per_s(self.flops_per_cycle() as f64 * clock.as_hz())
    }
}

/// Pattern Memory Unit description (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuSpec {
    /// Scratchpad capacity of one PMU. 520 MiB / 1040 PMUs = 512 KiB.
    pub scratchpad: Bytes,
    /// Number of independently addressable SRAM banks.
    pub banks: usize,
    /// Vector access width in bytes per cycle per direction (read and write
    /// are concurrent and non-blocking, §III-A requirement 2).
    pub vector_width: Bytes,
    /// Integer ALU stages available for read/write address generation; the
    /// pipeline can be partitioned between the two generators (§IV-B).
    pub addr_alu_stages: usize,
    /// Whether bank-bit locations are software-programmable (SN40L yes).
    pub programmable_bank_bits: bool,
    /// Whether the data-alignment unit has the SN40L high-throughput lane
    /// shuffle/masking extensions for FFT and sorts (§IV-E).
    pub lane_shuffle: bool,
}

impl PmuSpec {
    /// SN40L PMU: 512 KiB scratchpad over 16 banks, 64 B/cycle per
    /// direction. 1040 PMUs x (64+64) B/cycle x 1.2 GHz = 160 TB/s aggregate
    /// on-chip bandwidth, matching the paper's "hundreds of TBps".
    pub fn sn40l() -> Self {
        PmuSpec {
            scratchpad: Bytes::from_kib(512),
            banks: 16,
            vector_width: Bytes::new(64),
            addr_alu_stages: 6,
            programmable_bank_bits: true,
            lane_shuffle: true,
        }
    }

    /// SN10 PMU: same storage, fixed bank-bit mapping, no lane shuffles.
    pub fn sn10() -> Self {
        PmuSpec {
            scratchpad: Bytes::from_kib(512),
            banks: 16,
            vector_width: Bytes::new(64),
            addr_alu_stages: 6,
            programmable_bank_bits: false,
            lane_shuffle: false,
        }
    }

    /// Capacity of one scratchpad bank.
    pub fn bank_capacity(&self) -> Bytes {
        self.scratchpad / self.banks as u64
    }

    /// Peak read (or write) bandwidth of one PMU at the given clock.
    pub fn peak_bandwidth(&self, clock: Frequency) -> Bandwidth {
        Bandwidth::from_bytes_per_s(self.vector_width.as_f64() * clock.as_hz())
    }
}

/// Address Generation and Coalescing Unit description (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgcuSpec {
    /// Concurrent outstanding DMA streams one AGCU can sustain.
    pub dma_streams: usize,
    /// Whether the AGCU supports hardware kernel-launch orchestration
    /// (offloading a static kernel schedule; §IV-D).
    pub hardware_orchestration: bool,
    /// Whether the streaming peer-to-peer protocol is available.
    pub p2p: bool,
}

impl AgcuSpec {
    pub fn sn40l() -> Self {
        AgcuSpec {
            dma_streams: 8,
            hardware_orchestration: true,
            p2p: true,
        }
    }

    pub fn sn10() -> Self {
        AgcuSpec {
            dma_streams: 8,
            hardware_orchestration: false,
            p2p: true,
        }
    }
}

/// Physical arrangement of dataflow cores on one die's tile.
///
/// The RDN is a 2-D mesh (§IV); PCUs and PMUs alternate in a checkerboard
/// with AGCUs on the periphery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGeometry {
    /// Mesh rows of compute/memory units.
    pub rows: usize,
    /// Mesh columns of compute/memory units.
    pub cols: usize,
    /// AGCUs on the tile periphery.
    pub agcus: usize,
}

impl TileGeometry {
    /// Total unit positions in the mesh.
    pub fn positions(&self) -> usize {
        self.rows * self.cols
    }
}

/// Whole-chip RDU description: a socket contains `dies` identical dies, each
/// carrying one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct RduChipSpec {
    /// Human-readable generation name ("SN40L", "SN10").
    pub name: String,
    /// Dies per socket (SN40L is a dual-die CoWoS package).
    pub dies: usize,
    /// PCUs per socket (across all dies).
    pub pcus: usize,
    /// PMUs per socket (across all dies).
    pub pmus: usize,
    /// Tile geometry of one die.
    pub tile: TileGeometry,
    /// Core clock.
    pub clock: Frequency,
    pub pcu: PcuSpec,
    pub pmu: PmuSpec,
    pub agcu: AgcuSpec,
    /// Die-to-die streaming bandwidth (data moves between dies without a
    /// trip through off-chip memory, §IV).
    pub d2d_bandwidth: Bandwidth,
    /// Fraction of peak performance lost to voltage-droop mitigation.
    /// SN10's conservative software mitigation cost up to 25% (§IV-E);
    /// SN40L's hardware management makes this negligible.
    pub droop_penalty: f64,
}

impl RduChipSpec {
    /// The SN40L: TSMC 5nm, dual-die, 1040 PCUs + 1040 PMUs per socket,
    /// 638 BF16 TFLOPS, 520 MiB SRAM (§I, §IV).
    pub fn sn40l() -> Self {
        // 1040 units per socket over 2 dies = 520 PCUs + 520 PMUs per die;
        // a 32-column x 33-row checkerboard region holds 1056 positions, but
        // we model the documented counts directly and use a 40x26 mesh per
        // die (1040 positions = 520 PCU + 520 PMU).
        RduChipSpec {
            name: "SN40L".to_string(),
            dies: 2,
            pcus: 1040,
            pmus: 1040,
            tile: TileGeometry {
                rows: 40,
                cols: 26,
                agcus: 32,
            },
            clock: Frequency::from_ghz(1.2),
            pcu: PcuSpec::sn40l(),
            pmu: PmuSpec::sn40l(),
            agcu: AgcuSpec::sn40l(),
            d2d_bandwidth: Bandwidth::from_tb_per_s(1.0),
            droop_penalty: 0.0,
        }
    }

    /// The SN10 (prior generation, 7nm, §IV-E): used for feature ablations.
    /// Counts follow the published Hot Chips material (640 PCUs/PMUs); the
    /// droop penalty reflects the paper's "up to 25%" figure.
    pub fn sn10() -> Self {
        RduChipSpec {
            name: "SN10".to_string(),
            dies: 1,
            pcus: 640,
            pmus: 640,
            tile: TileGeometry {
                rows: 40,
                cols: 32,
                agcus: 32,
            },
            clock: Frequency::from_ghz(1.0),
            pcu: PcuSpec::sn10(),
            pmu: PmuSpec::sn10(),
            agcu: AgcuSpec::sn10(),
            d2d_bandwidth: Bandwidth::ZERO,
            droop_penalty: 0.25,
        }
    }

    /// Peak BF16 throughput of the whole socket, after droop penalty.
    pub fn peak_bf16(&self) -> FlopRate {
        self.pcu
            .peak_bf16(self.clock)
            .scale(self.pcus as f64)
            .scale(1.0 - self.droop_penalty)
    }

    /// Total distributed on-chip SRAM (the first memory tier).
    pub fn total_sram(&self) -> Bytes {
        self.pmu.scratchpad * self.pmus as u64
    }

    /// Aggregate on-chip PMU bandwidth (read + write), the "hundreds of
    /// TBps" figure from §I.
    pub fn aggregate_sram_bandwidth(&self) -> Bandwidth {
        self.pmu
            .peak_bandwidth(self.clock)
            .scale(2.0 * self.pmus as f64)
    }

    /// PCUs per die.
    pub fn pcus_per_die(&self) -> usize {
        self.pcus / self.dies
    }

    /// PMUs per die.
    pub fn pmus_per_die(&self) -> usize {
        self.pmus / self.dies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sn40l_peak_matches_paper() {
        let chip = RduChipSpec::sn40l();
        let tflops = chip.peak_bf16().as_tflops();
        assert!(
            (tflops - 638.0).abs() < 2.0,
            "peak {tflops} TFLOPS should be ~638"
        );
    }

    #[test]
    fn sn40l_sram_is_520_mib() {
        assert_eq!(RduChipSpec::sn40l().total_sram(), Bytes::from_mib(520));
    }

    #[test]
    fn sn40l_unit_counts_match_paper() {
        let chip = RduChipSpec::sn40l();
        assert_eq!(chip.pcus, 1040);
        assert_eq!(chip.pmus, 1040);
        assert_eq!(chip.dies, 2);
        assert_eq!(chip.pcus_per_die(), 520);
    }

    #[test]
    fn sram_bandwidth_is_hundreds_of_tbps() {
        let bw = RduChipSpec::sn40l().aggregate_sram_bandwidth();
        assert!(bw.as_tb_per_s() > 100.0, "got {bw}");
        assert!(bw.as_tb_per_s() < 500.0, "got {bw}");
    }

    #[test]
    fn sn10_droop_penalty_reduces_peak() {
        let sn10 = RduChipSpec::sn10();
        let mut undrooped = sn10.clone();
        undrooped.droop_penalty = 0.0;
        let ratio = sn10.peak_bf16() / undrooped.peak_bf16();
        assert!((ratio - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pmu_bank_capacity_divides_scratchpad() {
        let pmu = PmuSpec::sn40l();
        assert_eq!(pmu.bank_capacity() * pmu.banks as u64, pmu.scratchpad);
    }

    #[test]
    fn tile_positions_cover_units_per_die() {
        let chip = RduChipSpec::sn40l();
        assert!(chip.tile.positions() >= chip.pcus_per_die() + chip.pmus_per_die());
    }
}
