//! The fusion pass: groups operators into spatially fused kernels.
//!
//! Streaming dataflow fuses operators with *arbitrary* access patterns —
//! transposes and shuffles included — limited only by on-chip resources
//! (§III-A). The pass walks the topological order greedily, growing the
//! current kernel until the next node would exceed the PCU/PMU budget or
//! cross a region boundary (a transformer layer); identical regions then
//! reuse one kernel program, which is what lets hardware orchestration run
//! a whole decoder with near-zero launch overhead (§VI-B).

use crate::resources::{KernelResources, ResourceModel};
use crate::CompileError;
use serde::{Deserialize, Serialize};
use sn_dataflow::intensity::KernelPartition;
use sn_dataflow::{Graph, NodeId};

/// How aggressively to fuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusionPolicy {
    /// One kernel per operator, intermediates materialized off-chip —
    /// the paper's "Unfused" baseline configuration (§VI-A).
    Unfused,
    /// Greedy maximal spatial fusion under resource constraints.
    Spatial,
}

/// Partitions the graph into kernels under the policy.
///
/// # Errors
///
/// [`CompileError::OperatorTooLarge`] if a single node exceeds the socket
/// budget by itself.
pub fn partition(
    graph: &Graph,
    policy: FusionPolicy,
    model: &ResourceModel,
) -> Result<KernelPartition, CompileError> {
    // Validate individual operators first: they must fit even unfused.
    let resources: Vec<KernelResources> = graph
        .node_ids()
        .map(|nid| model.node_resources(graph, nid))
        .collect();
    for (nid, &r) in graph.node_ids().zip(&resources) {
        if !model.fits(r) {
            let n = graph.node(nid);
            return Err(CompileError::OperatorTooLarge {
                node: n.name.clone(),
                pcus: r.pcus,
                pmus: r.pmus,
            });
        }
    }
    match policy {
        FusionPolicy::Unfused => Ok(graph.node_ids().map(|n| vec![n]).collect()),
        FusionPolicy::Spatial => Ok(spatial_partition(graph, model, &resources)),
    }
}

/// `resources[i]` is node `i`'s own need. The current kernel's need is kept
/// as a running sum: [`KernelResources::combine`] is a component-wise add,
/// so this equals [`ResourceModel::kernel_resources`] over the kernel.
fn spatial_partition(
    graph: &Graph,
    model: &ResourceModel,
    resources: &[KernelResources],
) -> KernelPartition {
    let mut kernels: KernelPartition = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    let mut current_region: Option<u32> = None;
    let mut used = KernelResources::default();
    for (nid, &r) in graph.node_ids().zip(resources) {
        let region = graph.node(nid).region;
        let region_break = current_region.is_some_and(|cr| cr != region);
        let fits = model.fits(used.combine(r));
        if (region_break || !fits) && !current.is_empty() {
            kernels.push(std::mem::take(&mut current));
            used = KernelResources::default();
        }
        current.push(nid);
        used = used.combine(r);
        current_region = Some(region);
    }
    if !current.is_empty() {
        kernels.push(current);
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::SocketSpec;
    use sn_dataflow::intensity::is_valid_partition;
    use sn_dataflow::monarch::{flash_fft_conv, monarch_fig3};
    use sn_dataflow::{DType, GraphBuilder, OpKind, Shape, TensorKind, UnaryKind};

    fn model() -> ResourceModel {
        ResourceModel::new(&SocketSpec::sn40l())
    }

    #[test]
    fn unfused_gives_one_kernel_per_op() {
        let g = monarch_fig3();
        let p = partition(&g, FusionPolicy::Unfused, &model()).unwrap();
        assert_eq!(p.len(), g.node_count());
        assert!(is_valid_partition(&g, &p));
    }

    #[test]
    fn fig3_fuses_fully() {
        let g = monarch_fig3();
        let p = partition(&g, FusionPolicy::Spatial, &model()).unwrap();
        assert_eq!(p.len(), 1, "the whole Monarch example is one kernel");
    }

    #[test]
    fn fftconv_fuses_to_single_kernel() {
        // §VI-A: "the entire FlashFFTConv benchmark is executed with a
        // single kernel launch".
        let g = flash_fft_conv(8, 32, 3);
        let p = partition(&g, FusionPolicy::Spatial, &model()).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn region_boundaries_split_kernels() {
        let mut b = GraphBuilder::new("layers");
        let x = b.tensor("x", Shape::mat(64, 64), DType::Bf16, TensorKind::Input);
        let mut cur = x;
        for layer in 0..4 {
            b.set_region(layer);
            cur = b.node("a", OpKind::Unary(UnaryKind::Gelu), &[cur]).unwrap();
            cur = b.node("b", OpKind::Unary(UnaryKind::Neg), &[cur]).unwrap();
        }
        b.mark_output(cur);
        let g = b.build().unwrap();
        let p = partition(&g, FusionPolicy::Spatial, &model()).unwrap();
        assert_eq!(
            p.len(),
            4,
            "one kernel per region even though all would fit"
        );
        assert!(is_valid_partition(&g, &p));
    }

    #[test]
    fn resource_pressure_splits_kernels() {
        // Chain enough big GEMMs in one region to exceed the PCU budget.
        let mut b = GraphBuilder::new("big");
        let mut cur = b.tensor("x", Shape::mat(4096, 4096), DType::Bf16, TensorKind::Input);
        for i in 0..8 {
            let w = b.tensor(
                format!("w{i}"),
                Shape::mat(4096, 4096),
                DType::Bf16,
                TensorKind::Weight,
            );
            cur = b
                .node(
                    format!("g{i}"),
                    OpKind::Gemm { transpose_b: false },
                    &[cur, w],
                )
                .unwrap();
        }
        b.mark_output(cur);
        let g = b.build().unwrap();
        let m = model();
        let p = partition(&g, FusionPolicy::Spatial, &m).unwrap();
        assert!(p.len() > 1, "eight 256-PCU GEMMs cannot share one socket");
        for k in &p {
            assert!(
                m.fits(m.kernel_resources(&g, k)),
                "every kernel respects the budget"
            );
        }
    }

    #[test]
    fn pathological_operator_is_rejected_up_front() {
        // A single operator whose stage buffer alone outgrows every PMU on
        // the socket can never map; the compiler reports it instead of
        // producing an unmappable kernel.
        let mut b = GraphBuilder::new("giant");
        let x = b.tensor(
            "x",
            Shape::mat(128, 3_000_000_000),
            DType::Bf16,
            TensorKind::Input,
        );
        let y = b.node("act", OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let err = partition(&g, FusionPolicy::Spatial, &model());
        assert!(
            matches!(err, Err(crate::CompileError::OperatorTooLarge { .. })),
            "expected OperatorTooLarge, got {err:?}"
        );
    }

    #[test]
    fn spatial_never_exceeds_budget() {
        let g = flash_fft_conv(16, 32, 3);
        let m = model();
        for k in partition(&g, FusionPolicy::Spatial, &m).unwrap() {
            assert!(m.fits(m.kernel_resources(&g, &k)));
        }
    }
}
