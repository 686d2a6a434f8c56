//! Static memory allocation (§V-A).
//!
//! The SN40L programming model has neither dynamic allocation nor pointer
//! aliasing, so symbol lifetimes are known statically. The compiler
//! performs "garbage collection" by assigning multiple symbols to the same
//! device addresses when their lifetimes do not overlap, and when HBM still
//! does not fit, spills the symbols with the *smallest aggregate transfer
//! size* (bytes x uses) to DDR — weights, being hot, stay in HBM while
//! activations spill first.

use serde::{Deserialize, Serialize};
use sn_arch::{Bytes, SocketSpec};
use sn_dataflow::{Graph, TensorId, TensorKind};
use sn_memsim::{MemoryTier, Region, RegionAllocator};

use crate::executable::Kernel;

/// Executions of the kernel schedule a persistent symbol is expected to
/// serve before being re-planned (the autoregressive decode loop re-reads
/// weights and KV state every token — the temporal locality of §III-B).
/// Transient activations live for a single execution.
const PERSISTENT_REUSE: u64 = 16;

/// How to choose spill victims when HBM does not fit (§V-A ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpillPolicy {
    /// The paper's policy: activations before weights, smallest aggregate
    /// transfer size first.
    BandwidthSorted,
    /// Naive baseline: spill symbols in declaration (symbol-table) order —
    /// what an allocator does when it evicts without a cost model. Weights
    /// are declared before the activations that consume them, so hot
    /// parameters get pushed out first.
    DeclarationOrder,
}

/// Where one symbol lives and why.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SymbolPlacement {
    pub tensor: TensorId,
    pub tier: MemoryTier,
    /// Assigned device virtual address (offset within the tier). Addresses
    /// are reused across disjoint lifetimes — two placements may share an
    /// offset.
    pub offset: u64,
    pub bytes: Bytes,
    /// Estimated bytes moved for this symbol over the whole execution
    /// (size times boundary crossings); the spill policy's sort key.
    pub aggregate_traffic: Bytes,
    /// Kernel-index lifetime `[def, last_use]`.
    pub lifetime: (usize, usize),
}

/// The memory plan for one compiled executable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    placements: Vec<SymbolPlacement>,
    hbm_peak: Bytes,
    spilled: Vec<TensorId>,
}

impl MemoryPlan {
    /// Total DDR traffic implied by the spill decisions: every spilled
    /// symbol's aggregate transfer now crosses the slow tier. This is the
    /// §V-A objective the bandwidth-sorted policy minimizes.
    pub fn spill_traffic(&self) -> Bytes {
        self.placements
            .iter()
            .filter(|p| p.tier == MemoryTier::Ddr)
            .map(|p| p.aggregate_traffic)
            .sum()
    }

    pub fn placements(&self) -> &[SymbolPlacement] {
        &self.placements
    }

    /// Peak concurrent HBM usage after address reuse.
    pub fn hbm_peak(&self) -> Bytes {
        self.hbm_peak
    }

    /// Symbols spilled to DDR.
    pub fn spilled(&self) -> &[TensorId] {
        &self.spilled
    }

    /// Placement of a specific tensor, if it is materialized at all.
    pub fn placement(&self, t: TensorId) -> Option<&SymbolPlacement> {
        self.placements.iter().find(|p| p.tensor == t)
    }

    /// Total bytes resident in a tier (sum of placements; note address
    /// reuse means peak usage can be lower).
    pub fn tier_bytes(&self, tier: MemoryTier) -> Bytes {
        self.placements
            .iter()
            .filter(|p| p.tier == tier)
            .map(|p| p.bytes)
            .sum()
    }
}

/// Computes the plan with the paper's bandwidth-sorted spill policy.
pub fn plan(graph: &Graph, kernels: &[Kernel], socket: &SocketSpec) -> MemoryPlan {
    plan_with_policy(graph, kernels, socket, SpillPolicy::BandwidthSorted)
}

/// Computes the plan: which tensors materialize off-chip, their lifetimes,
/// their tier, and their (reusable) addresses.
pub fn plan_with_policy(
    graph: &Graph,
    kernels: &[Kernel],
    socket: &SocketSpec,
    policy: SpillPolicy,
) -> MemoryPlan {
    let n_kernels = kernels.len();
    let span = n_kernels.max(1);
    // Which kernel runs each node.
    let mut kernel_of = vec![usize::MAX; graph.node_count()];
    for (ki, k) in kernels.iter().enumerate() {
        for &nid in &k.nodes {
            kernel_of[nid.index()] = ki;
        }
    }
    // Per tensor: the kernel that writes it for use outside itself, and
    // `(reads, last reader)` over the kernels that read it from outside.
    // Kernels are visited in order, so the last reader is the latest.
    let n_tensors = graph.tensors().len();
    let mut producer_kernel: Vec<Option<usize>> = vec![None; n_tensors];
    let mut consumed: Vec<(usize, usize)> = vec![(0, 0); n_tensors];
    for (ki, k) in kernels.iter().enumerate() {
        for &nid in &k.nodes {
            let node = graph.node(nid);
            for &t in &node.inputs {
                let produced_inside = graph
                    .producer(t)
                    .is_some_and(|p| kernel_of[p.index()] == ki);
                if !produced_inside {
                    let c = &mut consumed[t.index()];
                    *c = (c.0 + 1, ki);
                }
            }
            let out = node.output;
            let escapes = graph.tensor(out).kind == TensorKind::Output
                || graph
                    .consumers(out)
                    .iter()
                    .any(|c| kernel_of[c.index()] != ki);
            if escapes {
                producer_kernel[out.index()] = Some(ki);
            }
        }
    }

    // Materialized symbols: every tensor that crosses a kernel boundary
    // and is off-chip eligible.
    let mut symbols: Vec<SymbolPlacement> = Vec::new();
    for t in graph.tensor_ids() {
        let def = graph.tensor(t);
        if !def.is_offchip() {
            continue;
        }
        let produced = producer_kernel[t.index()];
        let (reads, last_read) = consumed[t.index()];
        if produced.is_none() && reads == 0 {
            continue;
        }
        // Weights/inputs live from program start; outputs live to the end.
        let start = match (def.kind, produced) {
            (
                TensorKind::Weight | TensorKind::Input | TensorKind::Metadata | TensorKind::KvCache,
                _,
            ) => 0,
            (_, Some(p)) => p,
            (_, None) => 0,
        };
        let end = match def.kind {
            TensorKind::Output | TensorKind::KvCache | TensorKind::Weight => {
                n_kernels.saturating_sub(1)
            }
            _ if reads > 0 => last_read,
            _ => start,
        };
        let crossings = 1 + reads;
        let reuse = match def.kind {
            TensorKind::Weight | TensorKind::Metadata | TensorKind::KvCache => PERSISTENT_REUSE,
            _ => 1,
        };
        symbols.push(SymbolPlacement {
            tensor: t,
            tier: MemoryTier::Hbm,
            offset: 0,
            bytes: def.bytes(),
            aggregate_traffic: def.bytes() * crossings as u64 * reuse,
            lifetime: (start, end.max(start)),
        });
    }

    // Spill decision: simulate peak HBM usage with everything in HBM;
    // while it exceeds the budget, spill the cheapest symbol (activations
    // before weights, then by smallest aggregate transfer size — §V-A).
    let budget = socket.hbm.capacity;
    let mut spilled = Vec::new();
    loop {
        let (peak, at) = peak_of(&symbols, span);
        if peak <= budget || budget == Bytes::ZERO {
            break;
        }
        // Only symbols live at the peak can reduce it.
        let live_at_peak = |s: &SymbolPlacement| {
            s.tier == MemoryTier::Hbm && s.lifetime.0 <= at && at <= s.lifetime.1
        };
        let candidate = match policy {
            SpillPolicy::BandwidthSorted => symbols
                .iter()
                .enumerate()
                .filter(|(_, s)| live_at_peak(s))
                .min_by_key(|(_, s)| {
                    let is_weight = graph.tensor(s.tensor).kind == TensorKind::Weight;
                    (is_weight, s.aggregate_traffic)
                })
                .map(|(i, _)| i),
            SpillPolicy::DeclarationOrder => symbols
                .iter()
                .enumerate()
                .filter(|(_, s)| live_at_peak(s))
                .map(|(i, _)| i)
                .next(),
        };
        match candidate {
            Some(i) => {
                symbols[i].tier = MemoryTier::Ddr;
                spilled.push(symbols[i].tensor);
            }
            None => break,
        }
    }
    // SN10-style sockets (no HBM) keep everything in DDR.
    if budget == Bytes::ZERO {
        for s in &mut symbols {
            if s.tier == MemoryTier::Hbm {
                s.tier = MemoryTier::Ddr;
                spilled.push(s.tensor);
            }
        }
    }

    // Address assignment with static GC: sweep kernels in order; free dead
    // symbols before allocating new ones so addresses get reused. Each
    // region waits in the bucket of its last kernel and is freed when the
    // next kernel starts. The order of frees within one kernel cannot move
    // an offset: `RegionAllocator::free` coalesces neighbours, so its
    // sorted free list is always the unique set of maximal free extents,
    // whatever order the same regions were returned in.
    for tier in [MemoryTier::Hbm, MemoryTier::Ddr] {
        let capacity = match tier {
            MemoryTier::Hbm => socket.hbm.capacity,
            _ => socket.ddr.capacity,
        };
        if capacity == Bytes::ZERO {
            continue;
        }
        let mut alloc = RegionAllocator::new(tier, capacity);
        let mut ending: Vec<Vec<Region>> = vec![Vec::new(); span];
        let mut order: Vec<usize> = (0..symbols.len())
            .filter(|&i| symbols[i].tier == tier)
            .collect();
        order.sort_by_key(|&i| symbols[i].lifetime.0);
        let mut oi = 0;
        for k in 0..span {
            if k > 0 {
                for region in std::mem::take(&mut ending[k - 1]) {
                    alloc.free(region).expect("region was allocated");
                }
            }
            while oi < order.len() && symbols[order[oi]].lifetime.0 == k {
                let s = &mut symbols[order[oi]];
                // If the tier overflows even after GC, fall back to a
                // virtual address past capacity (flagged by peak stats).
                match alloc.alloc(s.bytes) {
                    Ok(region) => {
                        s.offset = region.offset;
                        ending[s.lifetime.1].push(region);
                    }
                    Err(_) => {
                        s.offset = u64::MAX;
                    }
                }
                oi += 1;
            }
        }
    }

    let (hbm_peak, _) = peak_of(&symbols, span);
    MemoryPlan {
        placements: symbols,
        hbm_peak,
        spilled,
    }
}

/// Peak concurrent HBM bytes over kernels `0..span`, and the first kernel
/// index where it occurs. A sweep line: each symbol adds its bytes at its
/// first kernel and removes them after its last, so one prefix sum gives
/// every kernel's live total in O(kernels + symbols).
fn peak_of(symbols: &[SymbolPlacement], span: usize) -> (Bytes, usize) {
    let mut starts = vec![Bytes::ZERO; span];
    let mut ends = vec![Bytes::ZERO; span];
    for s in symbols.iter().filter(|s| s.tier == MemoryTier::Hbm) {
        starts[s.lifetime.0] += s.bytes;
        ends[s.lifetime.1] += s.bytes;
    }
    let (mut live, mut peak, mut at) = (Bytes::ZERO, Bytes::ZERO, 0);
    for k in 0..span {
        live += starts[k];
        if live > peak {
            peak = live;
            at = k;
        }
        live -= ends[k];
    }
    (peak, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, FusionPolicy};
    use sn_arch::{Bandwidth, Calibration};
    use sn_dataflow::{DType, GraphBuilder, OpKind, Shape, TensorKind, UnaryKind};

    fn chain_graph(layers: u32) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut cur = b.tensor("x", Shape::mat(4096, 4096), DType::Bf16, TensorKind::Input);
        for l in 0..layers {
            b.set_region(l);
            let w = b.tensor("w", Shape::mat(4096, 4096), DType::Bf16, TensorKind::Weight);
            cur = b
                .node("g", OpKind::Gemm { transpose_b: false }, &[cur, w])
                .unwrap();
            cur = b.node("a", OpKind::Unary(UnaryKind::Gelu), &[cur]).unwrap();
        }
        b.mark_output(cur);
        b.build().unwrap()
    }

    #[test]
    fn everything_fits_hbm_by_default() {
        let g = chain_graph(4);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        assert!(exe.memory().spilled().is_empty());
        assert!(exe.memory().hbm_peak() <= SocketSpec::sn40l().hbm.capacity);
    }

    #[test]
    fn addresses_are_reused_across_lifetimes() {
        // Unfused: every activation materializes, but dead activations
        // free their addresses, so peak usage stays near two activations
        // plus weights rather than layers x activation.
        let g = chain_graph(8);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Unfused).unwrap();
        let act = Bytes::new(4096 * 4096 * 2);
        let weights = g.weight_bytes();
        let peak = exe.memory().hbm_peak();
        assert!(
            peak < weights + act * 4,
            "peak {peak} should reflect address reuse (weights {weights})"
        );
    }

    #[test]
    fn activations_spill_before_weights() {
        // Shrink HBM so the plan must spill; weights stay resident.
        let mut socket = SocketSpec::sn40l();
        socket.hbm.capacity = Bytes::from_mib(400);
        socket.hbm.bandwidth = Bandwidth::from_tb_per_s(2.0);
        let g = chain_graph(12); // weights 12*32 MiB, activations 32 MiB each
        let c = Compiler::new(socket, Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Unfused).unwrap();
        let spilled = exe.memory().spilled();
        assert!(!spilled.is_empty(), "400 MiB cannot hold everything");
        for &t in spilled {
            assert_ne!(
                g.tensor(t).kind,
                TensorKind::Weight,
                "weights must keep HBM priority (§V-A)"
            );
        }
    }

    #[test]
    fn sn10_plans_everything_in_ddr() {
        let g = chain_graph(2);
        let c = Compiler::new(SocketSpec::sn10(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Spatial).unwrap();
        assert_eq!(exe.memory().tier_bytes(MemoryTier::Hbm), Bytes::ZERO);
        assert!(exe.memory().tier_bytes(MemoryTier::Ddr) > Bytes::ZERO);
    }

    #[test]
    fn placements_share_offsets_only_when_lifetimes_disjoint() {
        let g = chain_graph(8);
        let c = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, FusionPolicy::Unfused).unwrap();
        let ps = exe.memory().placements();
        for (i, a) in ps.iter().enumerate() {
            for b in &ps[i + 1..] {
                if a.tier != b.tier || a.offset == u64::MAX || b.offset == u64::MAX {
                    continue;
                }
                let overlap_addr = a.offset < b.offset + b.bytes.as_u64()
                    && b.offset < a.offset + a.bytes.as_u64();
                let overlap_life = a.lifetime.0 <= b.lifetime.1 && b.lifetime.0 <= a.lifetime.1;
                assert!(
                    !(overlap_addr && overlap_life),
                    "symbols {:?} and {:?} alias while both live",
                    a.tensor,
                    b.tensor
                );
            }
        }
    }
}
