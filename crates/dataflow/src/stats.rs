//! Graph statistics: operator histograms, access-pattern mix, and byte
//! breakdowns by tensor kind — the quick profile a compiler engineer
//! prints before deciding how a workload will map.

use crate::graph::Graph;
use crate::op::AccessPattern;
use crate::tensor::TensorKind;
use sn_arch::{Bytes, Flops};
use std::collections::BTreeMap;
use std::fmt;

/// A profile of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub name: String,
    pub nodes: usize,
    pub tensors: usize,
    /// Node count per operator mnemonic.
    pub op_histogram: BTreeMap<String, usize>,
    /// Node count per access pattern.
    pub pattern_mix: BTreeMap<String, usize>,
    /// Bytes per tensor kind.
    pub bytes_by_kind: BTreeMap<String, Bytes>,
    pub total_flops: Flops,
    /// FLOPs carried by contractions (GEMM share).
    pub gemm_flops: Flops,
}

/// Computes the profile.
pub fn graph_stats(graph: &Graph) -> GraphStats {
    let mut op_histogram = BTreeMap::new();
    let mut pattern_mix = BTreeMap::new();
    let mut gemm_flops = Flops::ZERO;
    for nid in graph.node_ids() {
        let node = graph.node(nid);
        *op_histogram
            .entry(node.op.mnemonic().to_string())
            .or_insert(0) += 1;
        let pat = match node.op.access_pattern() {
            AccessPattern::Streaming => "streaming",
            AccessPattern::Contraction => "contraction",
            AccessPattern::RowLocal => "row-local",
            AccessPattern::Reorder => "reorder",
            AccessPattern::Collective => "collective",
        };
        *pattern_mix.entry(pat.to_string()).or_insert(0) += 1;
        if node.op.is_gemm() {
            gemm_flops += graph.node_flops(nid);
        }
    }
    let mut bytes_by_kind = BTreeMap::new();
    for t in graph.tensors() {
        let kind = match t.kind {
            TensorKind::Weight => "weight",
            TensorKind::Input => "input",
            TensorKind::Output => "output",
            TensorKind::Activation => "activation",
            TensorKind::KvCache => "kv-cache",
            TensorKind::Metadata => "metadata",
            TensorKind::Generated => "generated",
        };
        let entry = bytes_by_kind.entry(kind.to_string()).or_insert(Bytes::ZERO);
        *entry += t.bytes();
    }
    GraphStats {
        name: graph.name().to_string(),
        nodes: graph.node_count(),
        tensors: graph.tensors().len(),
        op_histogram,
        pattern_mix,
        bytes_by_kind,
        total_flops: graph.total_flops(),
        gemm_flops,
    }
}

impl GraphStats {
    /// Fraction of FLOPs in contractions — near 1.0 for transformer
    /// workloads, which is why systolic arrays earn their area.
    pub fn gemm_fraction(&self) -> f64 {
        if self.total_flops.as_f64() == 0.0 {
            0.0
        } else {
            self.gemm_flops / self.total_flops
        }
    }

    /// Fraction of operators whose access pattern breaks conventional GPU
    /// fusion (reorders) — the §III-A obstruction, as a single number.
    pub fn reorder_fraction(&self) -> f64 {
        let reorders = self.pattern_mix.get("reorder").copied().unwrap_or(0);
        reorders as f64 / self.nodes as f64
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} ops, {} tensors, {}",
            self.name, self.nodes, self.tensors, self.total_flops
        )?;
        write!(f, "  ops:")?;
        for (op, n) in &self.op_histogram {
            write!(f, " {op}x{n}")?;
        }
        writeln!(f)?;
        write!(f, "  patterns:")?;
        for (p, n) in &self.pattern_mix {
            write!(f, " {p}={n}")?;
        }
        writeln!(f)?;
        for (k, b) in &self.bytes_by_kind {
            writeln!(f, "  {k}: {b}")?;
        }
        writeln!(f, "  gemm share: {:.1}%", 100.0 * self.gemm_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monarch::monarch_fig3;

    #[test]
    fn fig3_stats_match_structure() {
        let s = graph_stats(&monarch_fig3());
        assert_eq!(s.nodes, 6);
        assert_eq!(s.op_histogram["gemm"], 2);
        assert_eq!(s.op_histogram["cast"], 2);
        assert_eq!(s.pattern_mix["contraction"], 2);
        assert_eq!(s.pattern_mix["reorder"], 1);
        assert!(s.gemm_fraction() > 0.95, "FFT factor multiplies dominate");
    }

    #[test]
    fn display_mentions_everything() {
        let s = graph_stats(&monarch_fig3());
        let text = s.to_string();
        assert!(text.contains("gemm share"));
        assert!(text.contains("weight:"));
        assert!(text.contains("contraction"));
    }

    #[test]
    fn reorder_fraction_counts_transposes() {
        let s = graph_stats(&monarch_fig3());
        assert!((s.reorder_fraction() - 1.0 / 6.0).abs() < 1e-9);
    }
}
