//! Tile-level kernel mapping: place a fused kernel's stage gangs on the
//! physical mesh and derive the RDN flows its pipeline creates.
//!
//! This is the simulator-side half of place-and-route (§IV-C): given a
//! list of stages (PCU gang + PMU buffer sizes), the mapper assigns mesh
//! coordinates in snake order, emits one flow per producer→consumer stage
//! pair (fanning out across the consumer's gang), and runs the mesh
//! simulator to measure congestion — the ground truth the compiler's
//! placement heuristics are judged against.

use crate::rdn::{Coord, Flow, NetConfig, NetSim, NetStats};
use sn_arch::TileGeometry;

/// One pipeline stage to place: a gang of compute units plus its stage
/// buffer memory units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReq {
    pub pcus: usize,
    pub pmus: usize,
    /// Relative traffic weight of the stage's output stream (packets per
    /// simulated burst).
    pub traffic: usize,
}

/// Where a stage landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedStage {
    /// Mesh positions assigned to this stage (gang + buffers).
    pub positions: Vec<Coord>,
    /// Representative egress position (the buffer feeding downstream).
    pub egress: Coord,
}

/// A mapped kernel: stages placed on one die's mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    pub stages: Vec<PlacedStage>,
    pub positions_used: usize,
    /// Whether the kernel wrapped around the tile (time-multiplexing —
    /// a compiler bug if its budget check passed).
    pub wrapped: bool,
}

/// Maps stages onto the tile in snake order.
///
/// # Panics
///
/// Panics if a single stage is larger than the whole tile.
pub fn map_stages(tile: &TileGeometry, stages: &[StageReq]) -> Mapping {
    let capacity = tile.positions();
    let mut placed = Vec::new();
    let mut cursor = 0usize;
    let mut wrapped = false;
    for s in stages {
        let need = (s.pcus + s.pmus).max(1);
        assert!(need <= capacity, "stage of {need} units exceeds the tile");
        if cursor + need > capacity {
            cursor = 0;
            wrapped = true;
        }
        let positions: Vec<Coord> = (cursor..cursor + need)
            .map(|i| {
                let row = i / tile.cols;
                let col = i % tile.cols;
                // Snake order keeps consecutive indices adjacent.
                let col = if row % 2 == 1 {
                    tile.cols - 1 - col
                } else {
                    col
                };
                Coord::new(col, row)
            })
            .collect();
        let egress = *positions.last().expect("non-empty stage");
        placed.push(PlacedStage { positions, egress });
        cursor += need;
    }
    Mapping {
        positions_used: placed.iter().map(|p| p.positions.len()).sum(),
        stages: placed,
        wrapped,
    }
}

/// Derives the RDN flows of a mapped pipeline: each stage's egress
/// multicasts to the first few units of the next stage's gang.
pub fn pipeline_flows(mapping: &Mapping, stages: &[StageReq], fanout: usize) -> Vec<Flow> {
    assert_eq!(mapping.stages.len(), stages.len());
    let mut flows = Vec::new();
    for (i, pair) in mapping.stages.windows(2).enumerate() {
        let src = pair[0].egress;
        let next = &pair[1];
        let dsts: Vec<Coord> = next
            .positions
            .iter()
            .copied()
            .filter(|&c| c != src)
            .take(fanout.max(1))
            .collect();
        if dsts.is_empty() {
            continue;
        }
        flows.push(Flow {
            src,
            dsts,
            packets: stages[i].traffic.max(1),
            injection_interval: 1,
            burst: 1,
        });
    }
    flows
}

/// Maps, routes, and simulates a kernel pipeline on a mesh sized like one
/// die region; returns the mapping and the network statistics.
///
/// The simulation runs on a mesh window of the die (the simulator's cost
/// is quadratic in area; a window bounded by the mapping's extent loses no
/// generality for neighbor-heavy pipeline traffic).
pub fn simulate_kernel(
    tile: &TileGeometry,
    stages: &[StageReq],
    fanout: usize,
) -> (Mapping, NetStats) {
    let mapping = map_stages(tile, stages);
    // Window: rows actually used, clamped to simulator-friendly sizes.
    let max_row = mapping
        .stages
        .iter()
        .flat_map(|s| s.positions.iter())
        .map(|c| c.y)
        .max()
        .unwrap_or(0);
    let width = tile.cols.clamp(2, 16);
    let height = (max_row + 1).clamp(2, 16);
    // Re-map into the window if the tile is wider than the window.
    let clamp = |c: Coord| Coord::new(c.x.min(width - 1), c.y.min(height - 1));
    let flows: Vec<Flow> = pipeline_flows(&mapping, stages, fanout)
        .into_iter()
        .map(|f| {
            let src = clamp(f.src);
            let mut dsts: Vec<Coord> = f
                .dsts
                .into_iter()
                .map(clamp)
                .filter(|&d| d != src)
                .collect();
            dsts.dedup();
            Flow { src, dsts, ..f }
        })
        .filter(|f| !f.dsts.is_empty())
        .collect();
    let sim = NetSim::new(NetConfig {
        width,
        height,
        ..NetConfig::default()
    });
    let stats = sim.run(&flows);
    (mapping, stats)
}

/// [`simulate_kernel`] plus trace recording: counts the PCUs/PMUs the
/// mapping occupies ([`Counter::PcusOccupied`], [`Counter::PmusOccupied`]),
/// emits one instant per placed stage, and routes the mesh simulation
/// through [`NetSim::run_traced`] so its cycles land on the rdusim track.
/// The returned mapping and stats are bit-identical to the untraced call.
///
/// [`Counter::PcusOccupied`]: sn_trace::Counter::PcusOccupied
/// [`Counter::PmusOccupied`]: sn_trace::Counter::PmusOccupied
pub fn simulate_kernel_traced(
    tile: &TileGeometry,
    stages: &[StageReq],
    fanout: usize,
    name: &str,
    tracer: &sn_trace::Tracer,
) -> (Mapping, NetStats) {
    if !tracer.is_enabled() {
        return simulate_kernel(tile, stages, fanout);
    }
    use sn_trace::{ArgValue, Counter, Track};
    let mapping = map_stages(tile, stages);
    for (i, (req, placed)) in stages.iter().zip(&mapping.stages).enumerate() {
        tracer.count(Counter::PcusOccupied, req.pcus as u64);
        tracer.count(Counter::PmusOccupied, req.pmus as u64);
        tracer.instant(
            Track::Rdusim,
            format!("place:{name}:stage{i}"),
            &[
                ("pcus", ArgValue::from(req.pcus)),
                ("pmus", ArgValue::from(req.pmus)),
                ("egress_x", ArgValue::from(placed.egress.x)),
                ("egress_y", ArgValue::from(placed.egress.y)),
            ],
        );
    }
    // Window and clamp exactly as `simulate_kernel` does; `map_stages` is
    // deterministic, so the mapping (and thus the stats) match it exactly.
    let max_row = mapping
        .stages
        .iter()
        .flat_map(|s| s.positions.iter())
        .map(|c| c.y)
        .max()
        .unwrap_or(0);
    let width = tile.cols.clamp(2, 16);
    let height = (max_row + 1).clamp(2, 16);
    let clamp = |c: Coord| Coord::new(c.x.min(width - 1), c.y.min(height - 1));
    let flows: Vec<Flow> = pipeline_flows(&mapping, stages, fanout)
        .into_iter()
        .map(|f| {
            let src = clamp(f.src);
            let mut dsts: Vec<Coord> = f
                .dsts
                .into_iter()
                .map(clamp)
                .filter(|&d| d != src)
                .collect();
            dsts.dedup();
            Flow { src, dsts, ..f }
        })
        .filter(|f| !f.dsts.is_empty())
        .collect();
    let sim = NetSim::new(NetConfig {
        width,
        height,
        ..NetConfig::default()
    });
    let stats = sim.run_traced(&flows, name, tracer);
    (mapping, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::RduChipSpec;

    fn tile() -> TileGeometry {
        RduChipSpec::sn40l().tile
    }

    fn decoder_like_stages() -> Vec<StageReq> {
        // A decode layer: several small gemm gangs and elementwise stages.
        vec![
            StageReq {
                pcus: 4,
                pmus: 3,
                traffic: 16,
            }, // norm
            StageReq {
                pcus: 12,
                pmus: 6,
                traffic: 16,
            }, // qkv
            StageReq {
                pcus: 8,
                pmus: 4,
                traffic: 16,
            }, // attention
            StageReq {
                pcus: 12,
                pmus: 6,
                traffic: 16,
            }, // mlp up
            StageReq {
                pcus: 12,
                pmus: 6,
                traffic: 16,
            }, // mlp down
        ]
    }

    #[test]
    fn stages_place_contiguously_without_overlap() {
        let m = map_stages(&tile(), &decoder_like_stages());
        assert!(!m.wrapped);
        let mut seen = std::collections::HashSet::new();
        for s in &m.stages {
            for &c in &s.positions {
                assert!(seen.insert(c), "position {c:?} reused");
            }
        }
        assert_eq!(m.positions_used, seen.len());
    }

    #[test]
    fn snake_order_keeps_stages_adjacent() {
        let m = map_stages(&tile(), &decoder_like_stages());
        for pair in m.stages.windows(2) {
            let a = pair[0].egress;
            let b = pair[1].positions[0];
            let dist = a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
            assert!(dist <= 2, "consecutive stages {dist} hops apart");
        }
    }

    #[test]
    fn oversubscribed_tile_wraps() {
        let small = TileGeometry {
            rows: 4,
            cols: 4,
            agcus: 2,
        };
        let stages = vec![
            StageReq {
                pcus: 10,
                pmus: 0,
                traffic: 4
            };
            3
        ];
        let m = map_stages(&small, &stages);
        assert!(m.wrapped, "30 units on a 16-position tile must wrap");
    }

    #[test]
    #[should_panic(expected = "exceeds the tile")]
    fn giant_stage_panics() {
        let small = TileGeometry {
            rows: 2,
            cols: 2,
            agcus: 1,
        };
        let _ = map_stages(
            &small,
            &[StageReq {
                pcus: 10,
                pmus: 0,
                traffic: 1,
            }],
        );
    }

    #[test]
    fn pipeline_flows_connect_consecutive_stages() {
        let stages = decoder_like_stages();
        let m = map_stages(&tile(), &stages);
        let flows = pipeline_flows(&m, &stages, 2);
        assert_eq!(flows.len(), stages.len() - 1);
        for f in &flows {
            assert!(!f.dsts.is_empty());
            assert!(f.dsts.len() <= 2);
        }
    }

    #[test]
    fn mapped_pipeline_simulates_with_low_congestion() {
        let stages = decoder_like_stages();
        let (mapping, stats) = simulate_kernel(&tile(), &stages, 2);
        assert!(!mapping.wrapped);
        let total_packets: usize = stages[..stages.len() - 1].iter().map(|s| s.traffic).sum();
        assert!(
            stats.delivered >= total_packets,
            "all pipeline traffic delivered"
        );
        // Neighbor traffic on a snake placement should be nearly stall-free.
        assert!(
            stats.stall_cycles < stats.cycles * 2,
            "stalls {} vs cycles {}",
            stats.stall_cycles,
            stats.cycles
        );
    }
}
