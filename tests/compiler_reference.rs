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
//!
//! The graph's per-node facts have reference models too: FLOPs recomputed
//! from the shapes on every call (the graph now stores them at build),
//! kernel boundary traffic from two hash sets (now one dense membership
//! span), and name uniquing through an owned-key map and `format!` (now
//! counted in place). Generated graphs compare them on unsorted and gapped
//! subsets, on-chip generated operands, and names that collide with other
//! names' derived `.out` and `#n` forms. A pinned digest of the 34 Table II
//! executables holds the whole compile to the bytes those models produced.

mod common;

use common::{check_cases, shrink_list, CaseRng, Fnv};
use samba_coe::models::table2;
use sn_arch::{Bytes, Calibration, Flops, SocketSpec};
use sn_compiler::executable::build_kernels;
use sn_compiler::fusion::{self, FusionPolicy};
use sn_compiler::memplan::{self, SpillPolicy, SymbolPlacement};
use sn_compiler::{Compiler, Kernel, ResourceModel};
use sn_dataflow::intensity::KernelPartition;
use sn_dataflow::{
    BinaryKind, DType, Graph, GraphBuilder, NodeId, OpKind, Shape, TensorId, TensorKind, UnaryKind,
};
use sn_memsim::{MemoryTier, RegionAllocator};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

const CASES: usize = 500;
const JOBS: usize = 2;
const SEED: u64 = 0xc0de_91a2;
/// Seed of the per-node-facts differential (its own stream, so the
/// compiler-pass cases above stay as they were).
const FACTS_SEED: u64 = 0xfac7_5eed;
/// Node subsets compared per generated graph.
const SUBSETS_PER_CASE: usize = 8;

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

/// Reference FLOPs: recomputed from the node's shapes on every call.
fn ref_node_flops(graph: &Graph, id: NodeId) -> Flops {
    let node = graph.node(id);
    let inputs: Vec<&Shape> = node
        .inputs
        .iter()
        .map(|&t| &graph.tensor(t).shape)
        .collect();
    let out = graph.tensor(node.output);
    node.op.flops(&inputs[..], &out.shape, out.dtype)
}

/// Reference boundary traffic: hash-set membership and a hash set of the
/// tensors already counted.
fn ref_subset_boundary_bytes(graph: &Graph, nodes: &[NodeId]) -> Bytes {
    let inside: HashSet<NodeId> = nodes.iter().copied().collect();
    let mut traffic = Bytes::ZERO;
    let mut read_tensors: HashSet<TensorId> = HashSet::new();
    for &nid in nodes {
        let node = graph.node(nid);
        for &t in &node.inputs {
            let produced_inside = graph
                .producer(t)
                .map(|p| inside.contains(&p))
                .unwrap_or(false);
            if !produced_inside && graph.tensor(t).is_offchip() && read_tensors.insert(t) {
                traffic += graph.tensor(t).bytes();
            }
        }
        let out = node.output;
        let escapes = graph.tensor(out).kind == TensorKind::Output
            || graph.consumers(out).iter().any(|c| !inside.contains(c));
        if escapes && graph.tensor(out).is_offchip() {
            traffic += graph.tensor(out).bytes();
        }
    }
    traffic
}

/// Reference name uniquing: an owned key per lookup and `format!` for
/// every suffix.
#[derive(Default)]
struct RefNames(HashMap<String, u32>);

impl RefNames {
    fn unique_name(&mut self, base: &str) -> String {
        let n = self.0.entry(base.to_string()).or_insert(0);
        *n += 1;
        if *n == 1 {
            base.to_string()
        } else {
            format!("{base}#{n}")
        }
    }
}

/// Replays a builder's requested names through [`RefNames`]: the tensor
/// names and node names the builder must have produced, and how many
/// requests named something an earlier request had produced as a derived
/// (`.out` or `#n`) form.
fn ref_names(log: &[(bool, String)]) -> (Vec<String>, Vec<String>, usize) {
    let mut names = RefNames::default();
    let (mut tensors, mut nodes) = (Vec::new(), Vec::new());
    let mut derived: HashSet<String> = HashSet::new();
    let mut collisions = 0;
    for (is_node, base) in log {
        collisions += usize::from(derived.contains(base));
        let name = names.unique_name(base);
        if name != *base {
            derived.insert(name.clone());
        }
        if *is_node {
            let out = names.unique_name(&format!("{name}.out"));
            derived.insert(out.clone());
            tensors.push(out);
            nodes.push(name);
        } else {
            tensors.push(name);
        }
    }
    (tensors, nodes, collisions)
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
    unsorted_subsets: usize,
    gapped_subsets: usize,
    generated_reads: usize,
    repeated_reads: usize,
    name_collisions: usize,
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
        let (partition, resources) = match (got, want) {
            (Ok((got, resources)), Ok(want)) if got == want => (got, resources),
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
        let kernels = build_kernels(graph, partition, &resources);
        // Kernel resources are summed from fusion's per-node table; the
        // reference re-folds the model over each kernel's nodes.
        if let Some(k) = kernels
            .iter()
            .find(|k| k.resources != model.kernel_resources(graph, &k.nodes))
        {
            return Err(format!("{pass:?}: kernel {} resources differ", k.name));
        }
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
    /// Multiplies the current value by itself (one node reading one
    /// tensor twice). Only the per-node-facts generator inserts it.
    Square,
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

/// Names a colliding [`Namer`] draws from: each is another one's derived
/// `.out` or `#n` form, or repeats.
const NAME_POOL: [&str; 8] = [
    "x", "x.out", "x#2", "x#2.out", "x.out#2", "proj", "proj#3", "w",
];

/// Names the generated graph's tensors and nodes: each step's own name,
/// or (colliding) names drawn from [`NAME_POOL`]. Logs every request in
/// builder-call order as `(is_node, name)`.
#[derive(Default)]
struct Namer {
    pool: Option<CaseRng>,
    log: Vec<(bool, String)>,
}

impl Namer {
    fn colliding(seed: u64) -> Self {
        Namer {
            pool: Some(CaseRng::new(seed)),
            log: Vec::new(),
        }
    }

    fn tensor(&mut self, own: &str) -> String {
        self.name(false, own)
    }

    fn node(&mut self, own: &str) -> String {
        self.name(true, own)
    }

    fn name(&mut self, is_node: bool, own: &str) -> String {
        let name = match &mut self.pool {
            Some(rng) => NAME_POOL[rng.usize_in(0, NAME_POOL.len())],
            None => own,
        };
        self.log.push((is_node, name.to_string()));
        name.to_string()
    }
}

fn build_graph(case: &CompilerCase) -> Graph {
    build_named_graph(case, &mut Namer::default())
}

fn build_named_graph(case: &CompilerCase, names: &mut Namer) -> Graph {
    let mut b = GraphBuilder::new("generated");
    let mut cur = b.tensor(
        names.tensor("x"),
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
                    let w = b.tensor(
                        names.tensor("w"),
                        Shape::mat(width, out),
                        DType::Bf16,
                        TensorKind::Weight,
                    );
                    width = out;
                    b.node(
                        names.node("proj"),
                        OpKind::Gemm { transpose_b: false },
                        &[cur, w],
                    )
                }
                Step::Act => b.node(names.node("act"), OpKind::Unary(UnaryKind::Gelu), &[cur]),
                Step::Norm => b.node(names.node("norm"), OpKind::RmsNorm, &[cur]),
                Step::Softmax => b.node(names.node("softmax"), OpKind::Softmax, &[cur]),
                Step::Residual { back } => {
                    let same: Vec<TensorId> = values
                        .iter()
                        .rev()
                        .filter(|&&(t, w)| w == width && t != cur)
                        .map(|&(t, _)| t)
                        .collect();
                    match same.get(back % same.len().max(1)) {
                        Some(&skip) => b.node(
                            names.node("residual"),
                            OpKind::Binary(BinaryKind::Add),
                            &[cur, skip],
                        ),
                        None => continue,
                    }
                }
                Step::Bias { kind } => {
                    let v = match kind {
                        TensorKind::Metadata => match metadata {
                            Some((t, w)) if w == width => t,
                            _ => {
                                let t = b.tensor(
                                    names.tensor("meta"),
                                    Shape::new([width]),
                                    DType::Bf16,
                                    kind,
                                );
                                metadata = Some((t, width));
                                t
                            }
                        },
                        _ => b.tensor(names.tensor("bias"), Shape::new([width]), DType::Bf16, kind),
                    };
                    b.node(
                        names.node("bias"),
                        OpKind::Binary(BinaryKind::Add),
                        &[cur, v],
                    )
                }
                Step::AllReduce { participants } => b.node(
                    names.node("allreduce"),
                    OpKind::AllReduce { participants },
                    &[cur],
                ),
                Step::KvAppend { past } => {
                    let cache = b.tensor(
                        names.tensor("kv"),
                        Shape::new([1, past, width]),
                        DType::Bf16,
                        TensorKind::KvCache,
                    );
                    let rows = b
                        .node(
                            names.node("kv_rows"),
                            OpKind::Reshape {
                                dims: [1, case.rows, width].into(),
                            },
                            &[cur],
                        )
                        .expect("reshape preserves elements");
                    b.node(names.node("kv_append"), OpKind::KvAppend, &[cache, rows])
                        .expect("append takes two inputs");
                    continue;
                }
                Step::Output => {
                    b.mark_output(cur);
                    continue;
                }
                Step::Square => b.node(
                    names.node("square"),
                    OpKind::Binary(BinaryKind::Mul),
                    &[cur, cur],
                ),
            };
            cur = next.expect("generated steps are well-formed");
            values.push((cur, width));
        }
    }
    if b.node_count() == 0 {
        cur = b
            .node(names.node("act"), OpKind::Unary(UnaryKind::Gelu), &[cur])
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
    // A graph keeps at least one layer; a layer may lose every step.
    let mut out: Vec<CompilerCase> = shrink_list(&case.layers)
        .into_iter()
        .filter(|layers| !layers.is_empty())
        .map(|layers| CompilerCase {
            layers,
            ..case.clone()
        })
        .collect();
    for (i, layer) in case.layers.iter().enumerate() {
        for steps in shrink_list(&layer.steps) {
            let mut layers = case.layers.clone();
            layers[i].steps = steps;
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

/// A generated graph for the per-node-facts differential: its layers, how
/// it is named (`None`: each step's own name; `Some(seed)`: colliding
/// names), and the seed of the node subsets compared on it.
#[derive(Debug, Clone)]
struct FactsCase {
    graph: CompilerCase,
    names: Option<u64>,
    subsets: u64,
}

fn generate_facts(rng: &mut CaseRng) -> FactsCase {
    let mut graph = generate(rng);
    for layer in &mut graph.layers {
        if rng.usize_in(0, 3) == 0 {
            let at = rng.usize_in(0, layer.steps.len() + 1);
            layer.steps.insert(at, Step::Square);
        }
    }
    FactsCase {
        graph,
        names: (rng.usize_in(0, 2) == 0).then(|| rng.next_u64()),
        subsets: rng.next_u64(),
    }
}

fn shrink_facts(case: &FactsCase) -> Vec<FactsCase> {
    shrink(&case.graph)
        .into_iter()
        .map(|graph| FactsCase {
            graph,
            ..case.clone()
        })
        .collect()
}

/// Draws a distinct, non-empty subset of `all`: everything in order, a
/// contiguous range, or a random selection in random order.
fn draw_subset(rng: &mut CaseRng, all: &[NodeId]) -> Vec<NodeId> {
    let n = all.len();
    match rng.usize_in(0, 4) {
        0 => all.to_vec(),
        1 => {
            let lo = rng.usize_in(0, n);
            all[lo..rng.usize_in(lo + 1, n + 1)].to_vec()
        }
        _ => {
            let skip_one_in = rng.usize_in(2, 6);
            let mut picked: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|_| rng.usize_in(0, skip_one_in) != 0)
                .collect();
            if picked.is_empty() {
                picked.push(all[rng.usize_in(0, n)]);
            }
            for i in (1..picked.len()).rev() {
                picked.swap(i, rng.usize_in(0, i + 1));
            }
            picked
        }
    }
}

fn run_facts_case(case: &FactsCase, seen: &mut Seen) -> Result<(), String> {
    let mut namer = match case.names {
        Some(seed) => Namer::colliding(seed),
        None => Namer::default(),
    };
    let graph = build_named_graph(&case.graph, &mut namer);

    let (tensors, nodes, collisions) = ref_names(&namer.log);
    let got_tensors: Vec<&str> = graph.tensors().iter().map(|t| t.name.as_str()).collect();
    let got_nodes: Vec<&str> = graph.nodes().iter().map(|n| n.name.as_str()).collect();
    if got_tensors != tensors || got_nodes != nodes {
        return Err(format!(
            "names {got_tensors:?} / {got_nodes:?} != {tensors:?} / {nodes:?}"
        ));
    }
    seen.name_collisions += collisions;

    for nid in graph.node_ids() {
        let (got, want) = (graph.node_flops(nid), ref_node_flops(&graph, nid));
        if got.as_f64().to_bits() != want.as_f64().to_bits() {
            return Err(format!("{nid} flops {got:?} != {want:?}"));
        }
    }

    let mut rng = CaseRng::new(case.subsets);
    let model = ResourceModel::new(&SocketSpec::sn40l());
    let kernels = fusion::partition(&graph, FusionPolicy::Spatial, &model)
        .map(|(kernels, _)| kernels)
        .unwrap_or_default();
    let all: Vec<NodeId> = graph.node_ids().collect();
    let drawn = (0..SUBSETS_PER_CASE).map(|_| draw_subset(&mut rng, &all));
    for subset in kernels.into_iter().chain(drawn) {
        let (got, want) = (
            graph.subset_boundary_bytes(&subset),
            ref_subset_boundary_bytes(&graph, &subset),
        );
        if got != want {
            return Err(format!("boundary of {subset:?}: {got} != {want}"));
        }
        let (lo, hi) = (subset.iter().min(), subset.iter().max());
        let span = hi.expect("non-empty").index() - lo.expect("non-empty").index() + 1;
        seen.unsorted_subsets += usize::from(!subset.is_sorted());
        seen.gapped_subsets += usize::from(span > subset.len());
        let inputs = |n: NodeId| graph.node(n).inputs.as_slice();
        seen.generated_reads += usize::from(subset.iter().any(|&n| {
            inputs(n)
                .iter()
                .any(|&t| graph.tensor(t).kind == TensorKind::Generated)
        }));
        seen.repeated_reads += usize::from(
            subset
                .iter()
                .any(|&n| inputs(n).len() == 2 && inputs(n)[0] == inputs(n)[1]),
        );
    }
    Ok(())
}

#[test]
fn per_node_facts_match_reference_models() {
    check_cases(
        "node flops, boundary bytes and names ≡ reference models",
        CASES,
        FACTS_SEED,
        JOBS,
        generate_facts,
        shrink_facts,
        || (),
        |_, case| run_facts_case(case, &mut Seen::default()),
    );
}

/// The per-node-facts generator reaches the corners it claims to cover.
#[test]
fn per_node_facts_cover_their_corners() {
    let mut rng = CaseRng::new(FACTS_SEED);
    let mut seen = Seen::default();
    for _ in 0..CASES {
        run_facts_case(&generate_facts(&mut rng), &mut seen).expect("differential holds");
    }
    assert!(seen.unsorted_subsets > 0, "an unsorted subset");
    assert!(seen.gapped_subsets > 0, "a non-contiguous subset");
    assert!(
        seen.generated_reads > 0,
        "a subset reading a generated operand"
    );
    assert!(
        seen.repeated_reads > 0,
        "a subset node reading one tensor twice"
    );
    assert!(
        seen.name_collisions > 0,
        "a requested name equal to an earlier derived name"
    );
}

/// Every default Table II benchmark compiled unfused and spatially fused
/// (34 executables), pinned to the `Debug` bytes of their kernels (names,
/// nodes, resources, `program_signature`), estimates and memory plans as
/// the reference models above produced them. Any change to the compiler's
/// model legitimately moves it; re-pin it after checking the change.
#[test]
fn table2_executables_are_byte_identical_to_the_reference_passes() {
    let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
    let mut digest = Fnv::new();
    for bench in table2() {
        let graph = bench.build_graph();
        for policy in [FusionPolicy::Unfused, FusionPolicy::Spatial] {
            let exe = compiler.compile(&graph, policy).expect("Table II compiles");
            write!(
                digest,
                "{:?}|{:?}|{:?}|{:?}|{:?}|",
                exe.name(),
                exe.policy(),
                exe.kernels(),
                exe.estimates(),
                exe.memory()
            )
            .expect("hashing cannot fail");
        }
    }
    assert_eq!(digest.pin(), (13_737_212, 0x0f01_ec72_87d6_faae));
}
