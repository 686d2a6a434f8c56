//! On-chip resource estimation: how many PCUs and PMUs an operator (and a
//! fused kernel) needs.
//!
//! The rules follow Figure 4's mapping discipline: compute units are
//! assigned in proportion to each stage's share of the work ("more compute
//! units are assigned to Gemm0 and Gemm1 as they account for a larger
//! fraction of the total operations"), memory units are assigned to stage
//! buffers for capacity and bandwidth, and reorder operators consume no
//! PCUs at all — they become PMU read/write access patterns (§IV-B).

use sn_arch::{Bytes, SocketSpec};
use sn_dataflow::{AccessPattern, Graph, NodeId};

/// FLOPs one PCU gang-unit is expected to carry per kernel instance before
/// the gang must grow; sets how aggressively large operators parallelize.
const FLOPS_PER_PCU: f64 = (1u64 << 28) as f64;
/// Elements one SIMD PCU carries before the gang grows.
const ELEMS_PER_SIMD_PCU: f64 = (1u64 << 22) as f64;
/// Output rows processed per pipeline tile (the streaming granularity).
pub const TILE_ROWS: usize = 128;
/// Fraction of the socket's units a single kernel may claim (the paper's
/// fused decoder uses "almost 90% of the PCUs and PMUs").
const UNIT_BUDGET_FRACTION: f64 = 0.92;

/// Resource needs of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelResources {
    pub pcus: usize,
    pub pmus: usize,
    /// Pipeline stages (compute ops; reorders fold into buffers).
    pub stages: usize,
}

impl KernelResources {
    /// Component-wise sum.
    pub fn combine(self, other: KernelResources) -> KernelResources {
        KernelResources {
            pcus: self.pcus + other.pcus,
            pmus: self.pmus + other.pmus,
            stages: self.stages + other.stages,
        }
    }
}

/// Per-socket resource model.
#[derive(Debug, Clone)]
pub struct ResourceModel {
    pcu_budget: usize,
    pmu_budget: usize,
    pmu_capacity: Bytes,
}

impl ResourceModel {
    pub fn new(socket: &SocketSpec) -> Self {
        ResourceModel {
            pcu_budget: (socket.chip.pcus as f64 * UNIT_BUDGET_FRACTION) as usize,
            pmu_budget: (socket.chip.pmus as f64 * UNIT_BUDGET_FRACTION) as usize,
            pmu_capacity: socket.chip.pmu.scratchpad,
        }
    }

    /// PCUs a single kernel may claim.
    pub fn pcu_budget(&self) -> usize {
        self.pcu_budget
    }

    /// PMUs a single kernel may claim.
    pub fn pmu_budget(&self) -> usize {
        self.pmu_budget
    }

    /// PCU gang size for one operator.
    pub fn node_pcus(&self, graph: &Graph, node: NodeId) -> usize {
        let n = graph.node(node);
        match n.op.access_pattern() {
            AccessPattern::Contraction => {
                let flops = graph.node_flops(node).as_f64();
                ((flops / FLOPS_PER_PCU).ceil() as usize).clamp(4, 256)
            }
            AccessPattern::Streaming | AccessPattern::RowLocal => {
                let elems = graph.tensor(n.output).shape.elements() as f64;
                ((elems / ELEMS_PER_SIMD_PCU).ceil() as usize).clamp(2, 64)
            }
            // Transposes, slices, gathers become PMU access patterns;
            // collectives run on AGCUs.
            AccessPattern::Reorder | AccessPattern::Collective => 0,
        }
    }

    /// PMUs for one operator's output stage buffer: double-buffered tiles
    /// sized for capacity, plus a minimum for read/write bandwidth
    /// decoupling (every stage buffer needs at least one memory unit; wide
    /// consumers split across several, like I00/I01 in Figure 4).
    pub fn node_pmus(&self, graph: &Graph, node: NodeId) -> usize {
        let n = graph.node(node);
        if n.op.access_pattern() == AccessPattern::Collective {
            return 0;
        }
        let out = graph.tensor(n.output);
        let tile_bytes = tile_bytes(&out.shape, out.dtype.size_bytes());
        let capacity_pmus = (2 * tile_bytes.as_u64()).div_ceil(self.pmu_capacity.as_u64()) as usize;
        // GEMMs also stage their weight panels on-chip.
        let weight_pmus = if n.op.is_gemm() { 2 } else { 0 };
        capacity_pmus.max(1) + weight_pmus
    }

    /// Resources for a whole node (one kernel stage).
    pub fn node_resources(&self, graph: &Graph, node: NodeId) -> KernelResources {
        let pcus = self.node_pcus(graph, node);
        KernelResources {
            pcus,
            pmus: self.node_pmus(graph, node),
            stages: usize::from(pcus > 0),
        }
    }

    /// Resources for a set of nodes fused into one kernel.
    pub fn kernel_resources(&self, graph: &Graph, nodes: &[NodeId]) -> KernelResources {
        nodes
            .iter()
            .map(|&n| self.node_resources(graph, n))
            .fold(KernelResources::default(), KernelResources::combine)
    }

    /// Whether a kernel with these resources fits the socket.
    pub fn fits(&self, r: KernelResources) -> bool {
        r.pcus <= self.pcu_budget && r.pmus <= self.pmu_budget
    }
}

/// Bytes of one pipeline tile of a tensor: up to [`TILE_ROWS`] outer rows.
pub fn tile_bytes(shape: &sn_dataflow::Shape, elem_bytes: u64) -> Bytes {
    let (rows, inner) = shape.as_2d();
    let tile_rows = rows.min(TILE_ROWS as u64);
    Bytes::new(tile_rows * inner * elem_bytes)
}

/// Number of pipeline tiles a tensor streams as.
pub fn tile_count(shape: &sn_dataflow::Shape) -> u64 {
    let (rows, _) = shape.as_2d();
    rows.div_ceil(TILE_ROWS as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_dataflow::{DType, GraphBuilder, OpKind, Shape, TensorKind, UnaryKind};

    fn graph_with_gemm(m: usize, k: usize, n: usize) -> (Graph, NodeId) {
        let mut b = GraphBuilder::new("t");
        let x = b.tensor("x", Shape::mat(m, k), DType::Bf16, TensorKind::Input);
        let w = b.tensor("w", Shape::mat(k, n), DType::Bf16, TensorKind::Weight);
        let y = b
            .node("g", OpKind::Gemm { transpose_b: false }, &[x, w])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let n = g.node_ids().next().unwrap();
        (g, n)
    }

    fn model() -> ResourceModel {
        ResourceModel::new(&SocketSpec::sn40l())
    }

    #[test]
    fn bigger_gemms_get_bigger_gangs() {
        let m = model();
        let (g1, n1) = graph_with_gemm(128, 512, 512);
        let (g2, n2) = graph_with_gemm(4096, 4096, 4096);
        assert!(m.node_pcus(&g2, n2) > m.node_pcus(&g1, n1));
    }

    #[test]
    fn decode_size_gemm_needs_minimal_gang() {
        let m = model();
        // Decode: one token row.
        let (g, n) = graph_with_gemm(1, 4096, 512);
        assert_eq!(m.node_pcus(&g, n), 4);
    }

    #[test]
    fn gang_sizes_are_capped() {
        let m = model();
        let (g, n) = graph_with_gemm(8192, 8192, 8192);
        assert_eq!(m.node_pcus(&g, n), 256);
    }

    #[test]
    fn reorders_use_no_pcus() {
        let mut b = GraphBuilder::new("t");
        let x = b.tensor("x", Shape::mat(64, 64), DType::Bf16, TensorKind::Input);
        let y = b
            .node(
                "tr",
                OpKind::Transpose {
                    perm: [1, 0].into(),
                },
                &[x],
            )
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let n = g.node_ids().next().unwrap();
        let m = model();
        assert_eq!(m.node_pcus(&g, n), 0);
        assert!(
            m.node_pmus(&g, n) >= 1,
            "the reorder still needs its buffer"
        );
    }

    #[test]
    fn stage_buffers_are_tile_sized_not_tensor_sized() {
        // A huge activation only needs PMUs for its tile, not the whole
        // tensor — that is what makes spatial fusion of long-sequence
        // prefill possible at all.
        let mut b = GraphBuilder::new("t");
        let x = b.tensor("x", Shape::mat(65536, 4096), DType::Bf16, TensorKind::Input);
        let y = b.node("act", OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let n = g.node_ids().next().unwrap();
        let m = model();
        // Tile = 128 rows x 4096 cols x 2 B = 1 MiB; double-buffered = 4 PMUs.
        assert_eq!(m.node_pmus(&g, n), 4);
    }

    #[test]
    fn budget_reflects_socket_size() {
        let m = model();
        assert!(m.pcu_budget() > 900 && m.pcu_budget() < 1040);
        assert!(m.pmu_budget() > 900 && m.pmu_budget() < 1040);
    }

    #[test]
    fn tile_math_is_consistent() {
        let s = Shape::mat(1000, 64);
        assert_eq!(tile_count(&s), 8);
        assert_eq!(tile_bytes(&s, 2), Bytes::new(128 * 64 * 2));
        let small = Shape::mat(10, 64);
        assert_eq!(tile_count(&small), 1);
        assert_eq!(tile_bytes(&small, 2), Bytes::new(10 * 64 * 2));
    }
}
