//! Operational-intensity analysis (Table I of the paper).
//!
//! A *kernel partition* assigns every node of a graph to exactly one
//! kernel. Unfused execution gives each node its own kernel and
//! materializes every edge off-chip; fused kernels only pay off-chip
//! traffic at their boundary. Operational intensity is total FLOPs over
//! total off-chip bytes — the quantity that decides memory- versus
//! compute-boundedness on a roofline (§III-A).

use crate::graph::{Graph, NodeId};
use crate::op::AccessPattern;
use sn_arch::Bytes;
use std::collections::HashMap;

/// A grouping of all graph nodes into kernels (inner `Vec`s are kernels in
/// execution order).
pub type KernelPartition = Vec<Vec<NodeId>>;

/// The three fusion levels of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionLevel {
    /// Every operator is its own kernel.
    None,
    /// Contraction-anchored fusion: each GEMM takes its streaming/reorder
    /// neighbors as prologue/epilogue (the strongest conventional fusion,
    /// "Gemm0 - Mul - Transpose" in Table I).
    Partial,
    /// The whole graph as a single spatially fused kernel (streaming
    /// dataflow).
    Full,
}

/// Builds the unfused partition: one kernel per node.
pub fn unfused_partition(graph: &Graph) -> KernelPartition {
    graph.node_ids().map(|n| vec![n]).collect()
}

/// Builds the contraction-anchored partition: the topological order is cut
/// immediately before every contraction except the first, so each kernel
/// carries exactly one GEMM plus its neighboring streaming/reorder/row-local
/// operators.
pub fn contraction_anchored_partition(graph: &Graph) -> KernelPartition {
    let mut partition: KernelPartition = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    let mut seen_contraction = false;
    for nid in graph.node_ids() {
        let is_contraction = graph.node(nid).op.access_pattern() == AccessPattern::Contraction;
        if is_contraction && seen_contraction {
            partition.push(std::mem::take(&mut current));
            seen_contraction = false;
        }
        if is_contraction {
            seen_contraction = true;
        }
        current.push(nid);
    }
    if !current.is_empty() {
        partition.push(current);
    }
    partition
}

/// Builds the fully fused partition: one kernel holding every node.
pub fn fused_partition(graph: &Graph) -> KernelPartition {
    vec![graph.node_ids().collect()]
}

/// Total off-chip traffic of a partition: the sum of each kernel's boundary
/// bytes.
pub fn partition_traffic(graph: &Graph, partition: &KernelPartition) -> Bytes {
    partition
        .iter()
        .map(|k| graph.subset_boundary_bytes(k))
        .sum()
}

/// Operational intensity (FLOPs per off-chip byte) of a partition.
pub fn partition_intensity(graph: &Graph, partition: &KernelPartition) -> f64 {
    graph
        .total_flops()
        .intensity(partition_traffic(graph, partition))
}

/// Computes Table I: intensity at each of the three fusion levels.
pub fn fusion_levels(graph: &Graph) -> HashMap<FusionLevel, f64> {
    let mut m = HashMap::new();
    m.insert(
        FusionLevel::None,
        partition_intensity(graph, &unfused_partition(graph)),
    );
    m.insert(
        FusionLevel::Partial,
        partition_intensity(graph, &contraction_anchored_partition(graph)),
    );
    m.insert(
        FusionLevel::Full,
        partition_intensity(graph, &fused_partition(graph)),
    );
    m
}

/// Verifies that a partition covers every node exactly once; used by tests
/// and by the compiler's fusion pass as a sanity check.
pub fn is_valid_partition(graph: &Graph, partition: &KernelPartition) -> bool {
    let mut seen = vec![false; graph.node_count()];
    for kernel in partition {
        for &n in kernel {
            if n.index() >= seen.len() || seen[n.index()] {
                return false;
            }
            seen[n.index()] = true;
        }
    }
    seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;
    use crate::op::{OpKind, UnaryKind};
    use crate::shape::Shape;
    use crate::tensor::TensorKind;

    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.tensor("x", Shape::mat(256, 256), DType::Bf16, TensorKind::Input);
        let w0 = b.tensor("w0", Shape::mat(256, 256), DType::Bf16, TensorKind::Weight);
        let w1 = b.tensor("w1", Shape::mat(256, 256), DType::Bf16, TensorKind::Weight);
        let g0 = b
            .node("gemm0", OpKind::Gemm { transpose_b: false }, &[x, w0])
            .unwrap();
        let a = b
            .node("act", OpKind::Unary(UnaryKind::Gelu), &[g0])
            .unwrap();
        let t = b
            .node(
                "tr",
                OpKind::Transpose {
                    perm: [1, 0].into(),
                },
                &[a],
            )
            .unwrap();
        let g1 = b
            .node("gemm1", OpKind::Gemm { transpose_b: false }, &[t, w1])
            .unwrap();
        b.mark_output(g1);
        b.build().unwrap()
    }

    #[test]
    fn partitions_are_valid() {
        let g = chain();
        for p in [
            unfused_partition(&g),
            contraction_anchored_partition(&g),
            fused_partition(&g),
        ] {
            assert!(is_valid_partition(&g, &p));
        }
    }

    #[test]
    fn contraction_anchored_splits_before_second_gemm() {
        let g = chain();
        let p = contraction_anchored_partition(&g);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].len(), 3, "gemm0 + act + transpose");
        assert_eq!(p[1].len(), 1, "gemm1 alone");
    }

    #[test]
    fn intensity_increases_with_fusion() {
        let g = chain();
        let levels = fusion_levels(&g);
        assert!(levels[&FusionLevel::None] < levels[&FusionLevel::Partial]);
        assert!(levels[&FusionLevel::Partial] < levels[&FusionLevel::Full]);
    }

    #[test]
    fn traffic_decreases_with_fusion() {
        let g = chain();
        let t_none = partition_traffic(&g, &unfused_partition(&g));
        let t_part = partition_traffic(&g, &contraction_anchored_partition(&g));
        let t_full = partition_traffic(&g, &fused_partition(&g));
        assert!(t_none > t_part);
        assert!(t_part > t_full);
    }

    #[test]
    fn invalid_partitions_detected() {
        let g = chain();
        let ids: Vec<NodeId> = g.node_ids().collect();
        // Missing a node.
        assert!(!is_valid_partition(&g, &vec![ids[..2].to_vec()]));
        // Duplicated node.
        let mut dup = vec![ids.clone()];
        dup.push(vec![ids[0]]);
        assert!(!is_valid_partition(&g, &dup));
    }

    #[test]
    fn flops_are_partition_invariant() {
        let g = chain();
        // Intensity differences come from traffic only.
        let f = g.total_flops();
        for p in [unfused_partition(&g), fused_partition(&g)] {
            let sum: sn_arch::Flops = p.iter().map(|k| g.subset_flops(k)).sum();
            assert!((sum.as_f64() - f.as_f64()).abs() < 1.0);
        }
    }
}
