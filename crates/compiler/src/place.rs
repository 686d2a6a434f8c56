//! Place-and-route onto the tile mesh (§IV-C).
//!
//! A compiled kernel's stages are placed in snake order across the mesh so
//! consecutive pipeline stages sit close together, then inter-stage flows
//! are routed XY. The report carries the quantities the paper's compiler
//! reasons about: hop counts, the worst link load (congestion risk), and
//! how many flow IDs the kernel needs under the SN10 global-pool scheme
//! versus the SN40L per-link MPLS scheme (§IV-E).

use crate::executable::Kernel;
use sn_arch::TileGeometry;
use sn_dataflow::Graph;
use std::collections::HashMap;

/// Result of placing one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// Mesh positions used (PCU gangs + PMU buffers).
    pub positions_used: usize,
    /// Mean Manhattan hops between consecutive stage centroids.
    pub avg_hops: f64,
    /// Highest number of flows sharing a single mesh link.
    pub max_link_load: usize,
    /// Flow IDs needed if IDs burn chip-wide on any shared switch (SN10).
    pub flow_ids_global: usize,
    /// Peak flow IDs needed on any single link (SN40L MPLS relabeling).
    pub flow_ids_mpls: usize,
}

/// Stage placer for one die's tile.
#[derive(Debug, Clone)]
pub struct Placer {
    tile: TileGeometry,
}

impl Placer {
    pub fn new(tile: TileGeometry) -> Self {
        Placer { tile }
    }

    /// Places a kernel and routes its inter-stage flows.
    ///
    /// Stages are laid out in snake order; each stage occupies
    /// `pcus + pmus` consecutive positions and is represented by its
    /// centroid for routing. Oversized kernels wrap around the tile
    /// (time-multiplexed), which the report surfaces via `positions_used`.
    pub fn place(&self, graph: &Graph, kernel: &Kernel) -> PlacementReport {
        let cols = self.tile.cols.max(1);
        let rows = self.tile.rows.max(1);
        // Footprint per stage in mesh positions.
        let model_positions = |pcus: usize, pmus: usize| (pcus + pmus).max(1);
        let mut centroids: Vec<(f64, f64)> = Vec::new();
        let mut cursor = 0usize;
        let mut positions_used = 0usize;
        for &nid in &kernel.nodes {
            // Reuse the per-node resource shares recorded in the kernel:
            // approximate each node's footprint as an equal share when the
            // kernel was fused (exact shares live in ResourceModel, but the
            // placement question only needs relative locality).
            let share = model_positions(
                kernel.resources.pcus / kernel.nodes.len().max(1),
                kernel.resources.pmus / kernel.nodes.len().max(1),
            );
            let start = cursor;
            let end = cursor + share;
            let mid = (start + end) / 2 % (cols * rows);
            let (x, y) = (mid % cols, mid / cols);
            // Snake order: odd rows run right-to-left.
            let x = if y % 2 == 1 { cols - 1 - x } else { x };
            centroids.push((x as f64, y as f64));
            cursor = end;
            positions_used = positions_used.max(end.min(cols * rows));
            let _ = graph.node(nid);
        }
        // Route consecutive stages XY and accumulate link loads.
        type Link = ((usize, usize), (usize, usize));
        let mut link_load: HashMap<Link, usize> = HashMap::new();
        let mut total_hops = 0usize;
        let mut edges = 0usize;
        for w in centroids.windows(2) {
            let (ax, ay) = (w[0].0 as usize, w[0].1 as usize);
            let (bx, by) = (w[1].0 as usize, w[1].1 as usize);
            let mut at = (ax, ay);
            while at != (bx, by) {
                let next = if at.0 != bx {
                    (if bx > at.0 { at.0 + 1 } else { at.0 - 1 }, at.1)
                } else {
                    (at.0, if by > at.1 { at.1 + 1 } else { at.1 - 1 })
                };
                *link_load.entry((at, next)).or_insert(0) += 1;
                total_hops += 1;
                at = next;
            }
            edges += 1;
        }
        let max_link_load = link_load.values().copied().max().unwrap_or(0);
        // Flow-ID accounting: each inter-stage edge is a flow. Global pool:
        // flows sharing any switch need distinct IDs, and with snake
        // placement every flow crosses the dense center, so the bound is
        // simply the flow count. MPLS: IDs are per-link, so the requirement
        // is the max link load.
        let flow_ids_global = edges;
        let flow_ids_mpls = max_link_load;
        PlacementReport {
            positions_used,
            avg_hops: if edges == 0 {
                0.0
            } else {
                total_hops as f64 / edges as f64
            },
            max_link_load,
            flow_ids_global,
            flow_ids_mpls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, FusionPolicy};
    use sn_arch::{Calibration, SocketSpec};
    use sn_dataflow::monarch::flash_fft_conv;

    #[test]
    fn placement_keeps_stages_local() {
        let g = flash_fft_conv(8, 32, 3);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let placer = Placer::new(SocketSpec::sn40l().chip.tile);
        let report = placer.place(&g, &exe.kernels()[0]);
        assert!(report.positions_used > 0);
        assert!(
            report.avg_hops < 10.0,
            "snake placement keeps hops short: {}",
            report.avg_hops
        );
    }

    #[test]
    fn mpls_needs_fewer_ids_than_global_pool() {
        let g = flash_fft_conv(8, 32, 3);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let placer = Placer::new(SocketSpec::sn40l().chip.tile);
        let report = placer.place(&g, &exe.kernels()[0]);
        assert!(
            report.flow_ids_mpls <= report.flow_ids_global,
            "per-link labels never need more IDs than a global pool"
        );
    }
}
