//! Differential suite for the compiler's linear passes: the sweep-line
//! memory planner ([`memplan::plan_with_policy`]) and the running-sum
//! fusion budget ([`fusion::partition`]) must agree exactly with the
//! quadratic code they replaced, kept here as reference models: a peak
//! that re-sums every symbol at every kernel, a free pass that rescans
//! every live region at every kernel, hash-set kernel membership, and a
//! fusion pass that re-folds the resources of the whole candidate kernel
//! for every node.
//!
//! Generated layered graphs run on the default SN40L socket, on SN10
//! (no HBM), and on SN40L with HBM shrunk to 0.25–1.1× the weight bytes,
//! under both spill policies. The reference spill loop costs
//! O(spills · kernels · symbols), so spilling cases stay on small
//! generated graphs; the Table II graphs run at the default budget.

mod common;

use common::{check_cases, CaseRng};
use samba_coe::models::table2;
use sn_arch::{Bytes, SocketSpec};
use sn_compiler::executable::build_kernels;
use sn_compiler::fusion::{self, FusionPolicy};
use sn_compiler::memplan::{self, SpillPolicy, SymbolPlacement};
use sn_compiler::{Kernel, ResourceModel};
use sn_dataflow::intensity::KernelPartition;
use sn_dataflow::{
    BinaryKind, DType, Graph, GraphBuilder, OpKind, Shape, TensorId, TensorKind, UnaryKind,
};
use sn_memsim::{MemoryTier, RegionAllocator};
use std::collections::{HashMap, HashSet};

const CASES: usize = 500;
const JOBS: usize = 2;
const SEED: u64 = 0xc0de_91a2;

/// Mirrors the planner's private reuse factor for persistent symbols.
const PERSISTENT_REUSE: u64 = 16;

/// Reference fusion pass: validate every operator alone, then grow each
/// kernel greedily, re-folding the whole candidate's resources per node.
fn ref_partition(
    graph: &Graph,
    policy: FusionPolicy,
    model: &ResourceModel,
) -> Result<KernelPartition, String> {
    for nid in graph.node_ids() {
        let r = model.node_resources(graph, nid);
        if !model.fits(r) {
            return Err(graph.node(nid).name.clone());
        }
    }
    match policy {
        FusionPolicy::Unfused => Ok(graph.node_ids().map(|n| vec![n]).collect()),
        FusionPolicy::Spatial => {
            let mut kernels: KernelPartition = Vec::new();
            let mut current = Vec::new();
            let mut current_region: Option<u32> = None;
            for nid in graph.node_ids() {
                let region = graph.node(nid).region;
                let region_break = current_region.is_some_and(|r| r != region);
                let mut candidate = current.clone();
                candidate.push(nid);
                let fits = model.fits(model.kernel_resources(graph, &candidate));
                if (region_break || !fits) && !current.is_empty() {
                    kernels.push(std::mem::take(&mut current));
                }
                current.push(nid);
                current_region = Some(region);
            }
            if !current.is_empty() {
                kernels.push(current);
            }
            Ok(kernels)
        }
    }
}

/// Reference plan: `(placements, hbm_peak, spilled)`.
type RefPlan = (Vec<SymbolPlacement>, Bytes, Vec<TensorId>);

/// Reference memory planner, as it stood before the sweep line.
fn ref_plan(
    graph: &Graph,
    kernels: &[Kernel],
    socket: &SocketSpec,
    policy: SpillPolicy,
) -> RefPlan {
    let n_kernels = kernels.len();
    let mut producer_kernel: HashMap<TensorId, usize> = HashMap::new();
    let mut consumer_kernels: HashMap<TensorId, Vec<usize>> = HashMap::new();
    for (ki, k) in kernels.iter().enumerate() {
        let inside: HashSet<_> = k.nodes.iter().copied().collect();
        for &nid in &k.nodes {
            let node = graph.node(nid);
            for &t in &node.inputs {
                let produced_inside = graph
                    .producer(t)
                    .map(|p| inside.contains(&p))
                    .unwrap_or(false);
                if !produced_inside {
                    consumer_kernels.entry(t).or_default().push(ki);
                }
            }
            let out = node.output;
            let escapes = graph.tensor(out).kind == TensorKind::Output
                || graph.consumers(out).iter().any(|c| !inside.contains(c));
            if escapes {
                producer_kernel.insert(out, ki);
            }
        }
    }

    let mut symbols: Vec<SymbolPlacement> = Vec::new();
    for t in graph.tensor_ids() {
        let def = graph.tensor(t);
        if !def.is_offchip() {
            continue;
        }
        let produced = producer_kernel.get(&t).copied();
        let consumed = consumer_kernels.get(&t);
        if produced.is_none() && consumed.is_none() {
            continue;
        }
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
            _ => consumed
                .map(|v| v.iter().copied().max().expect("non-empty"))
                .unwrap_or(start),
        };
        let crossings = 1 + consumed.map(|v| v.len()).unwrap_or(0);
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

    let budget = socket.hbm.capacity;
    let peak_of = |syms: &[SymbolPlacement]| -> (Bytes, usize) {
        let mut peak = Bytes::ZERO;
        let mut at = 0;
        for k in 0..n_kernels.max(1) {
            let live: Bytes = syms
                .iter()
                .filter(|s| s.tier == MemoryTier::Hbm)
                .filter(|s| s.lifetime.0 <= k && k <= s.lifetime.1)
                .map(|s| s.bytes)
                .sum();
            if live > peak {
                peak = live;
                at = k;
            }
        }
        (peak, at)
    };
    let mut spilled = Vec::new();
    loop {
        let (peak, at) = peak_of(&symbols);
        if peak <= budget || budget == Bytes::ZERO {
            break;
        }
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
    if budget == Bytes::ZERO {
        for s in &mut symbols {
            if s.tier == MemoryTier::Hbm {
                s.tier = MemoryTier::Ddr;
                spilled.push(s.tensor);
            }
        }
    }

    for tier in [MemoryTier::Hbm, MemoryTier::Ddr] {
        let capacity = match tier {
            MemoryTier::Hbm => socket.hbm.capacity,
            _ => socket.ddr.capacity,
        };
        if capacity == Bytes::ZERO {
            continue;
        }
        let mut alloc = RegionAllocator::new(tier, capacity);
        let mut live: Vec<(usize, sn_memsim::Region)> = Vec::new();
        let mut order: Vec<usize> = (0..symbols.len())
            .filter(|&i| symbols[i].tier == tier)
            .collect();
        order.sort_by_key(|&i| symbols[i].lifetime.0);
        let mut oi = 0;
        for k in 0..n_kernels.max(1) {
            let mut j = 0;
            while j < live.len() {
                let (si, region) = live[j];
                if symbols[si].lifetime.1 < k {
                    alloc.free(region).expect("region was allocated");
                    live.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            while oi < order.len() && symbols[order[oi]].lifetime.0 == k {
                let si = order[oi];
                match alloc.alloc(symbols[si].bytes) {
                    Ok(region) => {
                        symbols[si].offset = region.offset;
                        live.push((si, region));
                    }
                    Err(_) => {
                        symbols[si].offset = u64::MAX;
                    }
                }
                oi += 1;
            }
        }
    }

    let (hbm_peak, _) = peak_of(&symbols);
    (symbols, hbm_peak, spilled)
}

/// What one partition + plan comparison observed, for the coverage test.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    spills: usize,
    unplaced: usize,
    budget_splits: usize,
}

/// Compares the fast passes with the references on one graph and socket,
/// for both fusion passes under one spill policy.
fn compare(
    graph: &Graph,
    socket: &SocketSpec,
    policy: SpillPolicy,
    seen: &mut Seen,
) -> Result<(), String> {
    let model = ResourceModel::new(socket);
    for pass in [FusionPolicy::Unfused, FusionPolicy::Spatial] {
        let got = fusion::partition(graph, pass, &model);
        let want = ref_partition(graph, pass, &model);
        let partition = match (got, want) {
            (Ok(got), Ok(want)) if got == want => got,
            (Err(sn_compiler::CompileError::OperatorTooLarge { node, .. }), Err(want))
                if node == want =>
            {
                continue;
            }
            (got, want) => return Err(format!("{pass:?} partition {got:?} != {want:?}")),
        };
        seen.budget_splits += partition
            .windows(2)
            .filter(|w| graph.node(w[0][w[0].len() - 1]).region == graph.node(w[1][0]).region)
            .count();
        let kernels = build_kernels(graph, &partition, &model);
        let plan = memplan::plan_with_policy(graph, &kernels, socket, policy);
        let (placements, hbm_peak, spilled) = ref_plan(graph, &kernels, socket, policy);
        if plan.placements() != placements.as_slice() {
            let first = plan
                .placements()
                .iter()
                .zip(&placements)
                .find(|(a, b)| a != b);
            return Err(format!(
                "{pass:?}/{policy:?}: placements differ ({} vs {} symbols, first {first:?})",
                plan.placements().len(),
                placements.len()
            ));
        }
        if plan.hbm_peak() != hbm_peak {
            return Err(format!(
                "{pass:?}/{policy:?}: hbm_peak {} != {hbm_peak}",
                plan.hbm_peak()
            ));
        }
        if plan.spilled() != spilled.as_slice() {
            return Err(format!(
                "{pass:?}/{policy:?}: spilled {:?} != {spilled:?}",
                plan.spilled()
            ));
        }
        if socket.has_hbm() {
            seen.spills += spilled.len();
        }
        seen.unplaced += placements.iter().filter(|p| p.offset == u64::MAX).count();
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Step {
    /// Projection by a fresh `[width, out]` weight.
    Gemm {
        out: usize,
    },
    Act,
    Norm,
    Softmax,
    /// Adds the `back`-th most recent earlier value of the current shape
    /// (a skip connection, so lifetimes span kernels).
    Residual {
        back: usize,
    },
    /// Adds a `[width]` vector: a weight, shared metadata, or an on-chip
    /// generated value that never materializes.
    Bias {
        kind: TensorKind,
    },
    AllReduce {
        participants: usize,
    },
    /// Appends the current rows into a `[1, past, width]` KV cache.
    KvAppend {
        past: usize,
    },
    /// Marks the current value a graph output; later steps still read it.
    Output,
}

#[derive(Debug, Clone)]
struct Layer {
    region: u32,
    steps: Vec<Step>,
}

#[derive(Debug, Clone)]
enum Socket {
    Sn40l,
    Sn10,
    /// SN40L with HBM shrunk to `milli`/1000 of the graph's weight bytes.
    ShrunkHbm {
        milli: u64,
    },
}

#[derive(Debug, Clone)]
struct CompilerCase {
    rows: usize,
    width: usize,
    layers: Vec<Layer>,
    socket: Socket,
    policy: SpillPolicy,
}

const DIMS: [usize; 5] = [1, 7, 128, 500, 2048];
const WIDTHS: [usize; 4] = [64, 256, 1024, 4096];

fn build_graph(case: &CompilerCase) -> Graph {
    let mut b = GraphBuilder::new("generated");
    let mut cur = b.tensor(
        "x",
        Shape::mat(case.rows, case.width),
        DType::Bf16,
        TensorKind::Input,
    );
    let mut width = case.width;
    // Every value produced so far, newest last, for skip connections.
    let mut values = vec![(cur, width)];
    let mut metadata = None;
    for layer in &case.layers {
        b.set_region(layer.region);
        for step in &layer.steps {
            let next = match *step {
                Step::Gemm { out } => {
                    let w = b.tensor("w", Shape::mat(width, out), DType::Bf16, TensorKind::Weight);
                    width = out;
                    b.node("proj", OpKind::Gemm { transpose_b: false }, &[cur, w])
                }
                Step::Act => b.node("act", OpKind::Unary(UnaryKind::Gelu), &[cur]),
                Step::Norm => b.node("norm", OpKind::RmsNorm, &[cur]),
                Step::Softmax => b.node("softmax", OpKind::Softmax, &[cur]),
                Step::Residual { back } => {
                    let same: Vec<TensorId> = values
                        .iter()
                        .rev()
                        .filter(|&&(t, w)| w == width && t != cur)
                        .map(|&(t, _)| t)
                        .collect();
                    match same.get(back % same.len().max(1)) {
                        Some(&skip) => {
                            b.node("residual", OpKind::Binary(BinaryKind::Add), &[cur, skip])
                        }
                        None => continue,
                    }
                }
                Step::Bias { kind } => {
                    let v = match kind {
                        TensorKind::Metadata => match metadata {
                            Some((t, w)) if w == width => t,
                            _ => {
                                let t =
                                    b.tensor("meta", Shape::new(vec![width]), DType::Bf16, kind);
                                metadata = Some((t, width));
                                t
                            }
                        },
                        _ => b.tensor("bias", Shape::new(vec![width]), DType::Bf16, kind),
                    };
                    b.node("bias", OpKind::Binary(BinaryKind::Add), &[cur, v])
                }
                Step::AllReduce { participants } => {
                    b.node("allreduce", OpKind::AllReduce { participants }, &[cur])
                }
                Step::KvAppend { past } => {
                    let cache = b.tensor(
                        "kv",
                        Shape::new(vec![1, past, width]),
                        DType::Bf16,
                        TensorKind::KvCache,
                    );
                    let rows = b
                        .node(
                            "kv_rows",
                            OpKind::Reshape {
                                dims: vec![1, case.rows, width],
                            },
                            &[cur],
                        )
                        .expect("reshape preserves elements");
                    b.node("kv_append", OpKind::KvAppend, &[cache, rows])
                        .expect("append takes two inputs");
                    continue;
                }
                Step::Output => {
                    b.mark_output(cur);
                    continue;
                }
            };
            cur = next.expect("generated steps are well-formed");
            values.push((cur, width));
        }
    }
    if b.node_count() == 0 {
        cur = b
            .node("act", OpKind::Unary(UnaryKind::Gelu), &[cur])
            .expect("unary on any shape");
    }
    b.mark_output(cur);
    b.build().expect("at least one node")
}

fn socket_for(case: &CompilerCase, graph: &Graph) -> SocketSpec {
    match case.socket {
        Socket::Sn40l => SocketSpec::sn40l(),
        Socket::Sn10 => SocketSpec::sn10(),
        Socket::ShrunkHbm { milli } => {
            let mut s = SocketSpec::sn40l();
            s.hbm.capacity = Bytes::new(graph.weight_bytes().as_u64() / 1000 * milli);
            s
        }
    }
}

fn generate(rng: &mut CaseRng) -> CompilerCase {
    let rows = DIMS[rng.usize_in(0, DIMS.len())];
    let width = WIDTHS[rng.usize_in(0, WIDTHS.len())];
    let mut layers: Vec<Layer> = Vec::new();
    for l in 0..rng.usize_in(1, 9) {
        // A layer opens a new region, stays in the previous one (fusion
        // crosses the layer), or revisits a small region id.
        let region = match rng.usize_in(0, 4) {
            0 => layers.last().map_or(0, |p| p.region),
            1 => rng.usize_in(0, 3) as u32,
            _ => l as u32,
        };
        let steps = (0..rng.usize_in(1, 7))
            .map(|_| match rng.usize_in(0, 13) {
                0 | 1 => Step::Gemm {
                    out: WIDTHS[rng.usize_in(0, WIDTHS.len())],
                },
                2 => Step::Act,
                3 => Step::Norm,
                4 => Step::Softmax,
                5 | 6 => Step::Residual {
                    back: rng.usize_in(0, 4),
                },
                7 => Step::Bias {
                    kind: [
                        TensorKind::Weight,
                        TensorKind::Metadata,
                        TensorKind::Generated,
                    ][rng.usize_in(0, 3)],
                },
                8 | 9 => Step::AllReduce {
                    participants: rng.usize_in(1, 9),
                },
                10 | 11 => Step::KvAppend {
                    past: DIMS[rng.usize_in(0, DIMS.len())] * 2,
                },
                _ => Step::Output,
            })
            .collect();
        layers.push(Layer { region, steps });
    }
    let socket = match rng.usize_in(0, 4) {
        0 => Socket::Sn40l,
        1 => Socket::Sn10,
        _ => Socket::ShrunkHbm {
            milli: rng.usize_in(250, 1100) as u64,
        },
    };
    let policy = if rng.usize_in(0, 2) == 0 {
        SpillPolicy::BandwidthSorted
    } else {
        SpillPolicy::DeclarationOrder
    };
    CompilerCase {
        rows,
        width,
        layers,
        socket,
        policy,
    }
}

fn shrink(case: &CompilerCase) -> Vec<CompilerCase> {
    let mut out = Vec::new();
    for i in 0..case.layers.len() {
        if case.layers.len() > 1 {
            let mut layers = case.layers.clone();
            layers.remove(i);
            out.push(CompilerCase {
                layers,
                ..case.clone()
            });
        }
        for j in 0..case.layers[i].steps.len() {
            let mut layers = case.layers.clone();
            layers[i].steps.remove(j);
            out.push(CompilerCase {
                layers,
                ..case.clone()
            });
        }
    }
    out
}

fn run_case(case: &CompilerCase, seen: &mut Seen) -> Result<(), String> {
    let graph = build_graph(case);
    let socket = socket_for(case, &graph);
    compare(&graph, &socket, case.policy, seen)
}

#[test]
fn linear_passes_match_reference_models() {
    check_cases(
        "compiler passes ≡ reference models",
        CASES,
        SEED,
        JOBS,
        generate,
        shrink,
        || (),
        |_, case| run_case(case, &mut Seen::default()),
    );
}

#[test]
fn table2_graphs_match_reference_models_at_the_default_budget() {
    // Nothing spills at the default budget, so the spill policy cannot
    // matter; the compiler's own policy stands for both.
    let socket = SocketSpec::sn40l();
    for bench in table2() {
        let graph = bench.build_graph();
        let mut seen = Seen::default();
        if let Err(e) = compare(&graph, &socket, SpillPolicy::BandwidthSorted, &mut seen) {
            panic!("{}: {e}", bench.name);
        }
        assert_eq!(
            seen.spills, 0,
            "{} spills at the default budget",
            bench.name
        );
    }
}

/// The generator reaches every corner the suite claims to cover; a
/// generator edit that drops one fails here instead of silently
/// narrowing the differential.
#[test]
fn generated_cases_cover_the_degenerate_corners() {
    let mut rng = CaseRng::new(SEED);
    let cases: Vec<CompilerCase> = (0..CASES).map(|_| generate(&mut rng)).collect();
    let mut seen = Seen::default();
    let mut spilling_cases = 0;
    for case in &cases {
        let before = seen.spills;
        run_case(case, &mut seen).expect("differential holds");
        spilling_cases += usize::from(seen.spills > before);
    }
    let any = |pred: &dyn Fn(&CompilerCase) -> bool| cases.iter().any(pred);
    assert!(any(&|c| matches!(c.socket, Socket::Sn10)), "no-HBM socket");
    assert!(
        any(&|c| matches!(c.socket, Socket::ShrunkHbm { milli } if milli < 500)),
        "HBM far below the weights"
    );
    assert!(
        any(&|c| c.layers.windows(2).any(|w| w[0].region == w[1].region)),
        "fusion across a layer boundary"
    );
    assert!(
        any(
            &|c| c.layers.iter().any(|l| l.steps.iter().any(|s| matches!(
                s,
                Step::Bias {
                    kind: TensorKind::Generated
                }
            )))
        ),
        "on-chip generated operand"
    );
    for policy in [SpillPolicy::BandwidthSorted, SpillPolicy::DeclarationOrder] {
        assert!(
            cases
                .iter()
                .any(|c| c.policy == policy && matches!(c.socket, Socket::ShrunkHbm { .. })),
            "{policy:?} under a shrunk HBM"
        );
    }
    assert!(
        spilling_cases > CASES / 10,
        "only {spilling_cases} cases spill"
    );
    assert!(
        seen.budget_splits > 0,
        "a kernel split by the PCU/PMU budget"
    );
    assert!(
        seen.unplaced > 0,
        "a symbol left unplaced by a fragmented HBM"
    );
}
