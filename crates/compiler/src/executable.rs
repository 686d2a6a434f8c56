//! Compiled kernels and the executable container.

use crate::estimate::KernelEstimate;
use crate::fusion::FusionPolicy;
use crate::memplan::MemoryPlan;
use crate::resources::KernelResources;
use sn_arch::{Bytes, Flops, TimeSecs};
use sn_dataflow::intensity::KernelPartition;
use sn_dataflow::{Graph, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Identifier of a kernel within one executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

impl KernelId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One compiled kernel: a set of graph nodes mapped onto the tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub id: KernelId,
    pub name: String,
    pub nodes: Vec<NodeId>,
    pub resources: KernelResources,
    /// Structural hash of the kernel's program: kernels from identical
    /// regions (e.g. identical decoder layers) share a signature and
    /// therefore a configuration bitstream — Program Load is paid once
    /// (§IV-D, §VI-B).
    pub program_signature: u64,
}

fn signature(graph: &Graph, nodes: &[NodeId]) -> u64 {
    let mut h = DefaultHasher::new();
    for &nid in nodes {
        let n = graph.node(nid);
        n.op.mnemonic().hash(&mut h);
        for &t in &n.inputs {
            graph.tensor(t).shape.dims().hash(&mut h);
            graph.tensor(t).dtype.size_bytes().hash(&mut h);
        }
        graph.tensor(n.output).shape.dims().hash(&mut h);
    }
    h.finish()
}

/// Builds kernel descriptors from a partition; each kernel takes its node
/// list from the partition. `node_resources[i]` is node `i`'s own need, as
/// [`crate::fusion::partition`] returns it: a kernel's resources are their
/// component-wise sum, which is
/// [`crate::resources::ResourceModel::kernel_resources`] without
/// recomputing each node.
pub fn build_kernels(
    graph: &Graph,
    partition: KernelPartition,
    node_resources: &[KernelResources],
) -> Vec<Kernel> {
    partition
        .into_iter()
        .enumerate()
        .map(|(i, nodes)| {
            let first = graph.node(nodes[0]);
            let name = if nodes.len() == 1 {
                first.name.clone()
            } else {
                format!(
                    "fused[{}..{}]",
                    first.name,
                    graph.node(*nodes.last().expect("non-empty")).name
                )
            };
            Kernel {
                id: KernelId(i as u32),
                name,
                resources: nodes
                    .iter()
                    .map(|n| node_resources[n.index()])
                    .fold(KernelResources::default(), KernelResources::combine),
                program_signature: signature(graph, &nodes),
                nodes,
            }
        })
        .collect()
}

/// A compiled program: kernels, their time estimates, and the memory plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Executable {
    name: String,
    policy: FusionPolicy,
    kernels: Vec<Kernel>,
    estimates: Vec<KernelEstimate>,
    memory: MemoryPlan,
    /// [`Executable::distinct_programs`], counted once.
    distinct_programs: usize,
    /// [`Executable::execution_time`], summed once.
    execution_time: TimeSecs,
}

impl Executable {
    pub(crate) fn new(
        name: String,
        policy: FusionPolicy,
        kernels: Vec<Kernel>,
        estimates: Vec<KernelEstimate>,
        memory: MemoryPlan,
    ) -> Self {
        assert_eq!(kernels.len(), estimates.len());
        let mut sigs: Vec<u64> = kernels.iter().map(|k| k.program_signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        let execution_time = estimates.iter().map(|e| e.time).sum();
        Executable {
            name,
            policy,
            kernels,
            estimates,
            memory,
            distinct_programs: sigs.len(),
            execution_time,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn policy(&self) -> FusionPolicy {
        self.policy
    }

    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    pub fn estimates(&self) -> &[KernelEstimate] {
        &self.estimates
    }

    pub fn memory(&self) -> &MemoryPlan {
        &self.memory
    }

    /// Number of kernel launches to run the program once.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of distinct kernel programs (shared signatures collapse).
    pub fn distinct_programs(&self) -> usize {
        self.distinct_programs
    }

    /// Pure execution time (no launch overheads): the sum of kernel
    /// estimates — kernels run back to back on the socket.
    pub fn execution_time(&self) -> TimeSecs {
        self.execution_time
    }

    /// Total off-chip traffic of one execution.
    pub fn total_traffic(&self) -> Bytes {
        self.estimates.iter().map(|e| e.traffic).sum()
    }

    /// Total FLOPs of one execution.
    pub fn total_flops(&self) -> Flops {
        self.estimates.iter().map(|e| e.flops).sum()
    }

    /// A human-readable compilation report: per-kernel resources, bound,
    /// and time, plus totals — what a compiler's `--report` flag prints.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{:?}]: {} kernels, {} distinct programs",
            self.name,
            self.policy,
            self.kernel_count(),
            self.distinct_programs()
        );
        for (k, e) in self.kernels.iter().zip(&self.estimates) {
            let _ = writeln!(
                out,
                "  {:>4} {:<40} {:>4} PCUs {:>4} PMUs {:>9?} {:>12} {:>8.0} ops/B",
                format!("k{}", k.id.0),
                truncate(&k.name, 40),
                k.resources.pcus,
                k.resources.pmus,
                e.bound,
                e.time.to_string(),
                e.intensity
            );
        }
        let _ = writeln!(
            out,
            "  total: {} exec, {} off-chip, {}",
            self.execution_time(),
            self.total_traffic(),
            self.total_flops()
        );
        out
    }
}

/// The first `n` characters of `s` (the report's column width counts
/// characters, and a byte cut could split one).
fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((end, _)) => &s[..end],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, FusionPolicy};
    use sn_arch::{Calibration, SocketSpec};
    use sn_dataflow::{DType, GraphBuilder, OpKind, Shape, TensorKind, UnaryKind};

    fn layered_graph(layers: u32) -> Graph {
        let mut b = GraphBuilder::new("layers");
        let mut cur = b.tensor("x", Shape::mat(256, 256), DType::Bf16, TensorKind::Input);
        for l in 0..layers {
            b.set_region(l);
            let w = b.tensor("w", Shape::mat(256, 256), DType::Bf16, TensorKind::Weight);
            cur = b
                .node("proj", OpKind::Gemm { transpose_b: false }, &[cur, w])
                .unwrap();
            cur = b
                .node("act", OpKind::Unary(UnaryKind::Gelu), &[cur])
                .unwrap();
        }
        b.mark_output(cur);
        b.build().unwrap()
    }

    #[test]
    fn identical_layers_share_a_program() {
        let g = layered_graph(8);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        assert_eq!(exe.kernel_count(), 8, "one kernel per layer region");
        assert_eq!(
            exe.distinct_programs(),
            1,
            "identical layers share the bitstream"
        );
    }

    #[test]
    fn summary_cuts_long_names_at_a_char_boundary() {
        let g = layered_graph(1);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let mut exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let short = format!("a{}", "é".repeat(25));
        exe.kernels[0].name = short.clone();
        assert!(
            exe.summary().contains(&short),
            "26 characters fit the column"
        );
        exe.kernels[0].name = "é".repeat(45);
        let summary = exe.summary();
        assert!(summary.contains(&"é".repeat(40)));
        assert!(!summary.contains(&"é".repeat(41)));
        assert_eq!(truncate("abc", 40), "abc");
        assert_eq!(truncate(&"x".repeat(50), 40), "x".repeat(40));
    }

    #[test]
    fn unfused_has_more_launches() {
        let g = layered_graph(4);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let fused = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let unfused = c.compile(&g, FusionPolicy::Unfused).unwrap();
        assert!(unfused.kernel_count() > fused.kernel_count());
        assert_eq!(unfused.kernel_count(), g.node_count());
    }

    #[test]
    fn fused_traffic_is_lower() {
        let g = layered_graph(4);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let fused = c.compile(&g, FusionPolicy::Spatial).unwrap();
        let unfused = c.compile(&g, FusionPolicy::Unfused).unwrap();
        assert!(fused.total_traffic() < unfused.total_traffic());
        // FLOPs are policy-invariant.
        assert!((fused.total_flops().as_f64() - unfused.total_flops().as_f64()).abs() < 1.0);
    }
}
