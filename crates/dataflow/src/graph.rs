//! Dataflow graph construction and queries.
//!
//! Graphs are built through [`GraphBuilder`], which infers output shapes as
//! nodes are added and guarantees acyclicity by construction (a node can
//! only consume tensors that already exist). Insertion order is therefore a
//! valid topological order, which the compiler relies on.

use crate::dtype::DType;
use crate::op::{InputShapes, Node, OpKind};
use crate::shape::Shape;
use crate::tensor::{TensorDef, TensorId, TensorKind};
use sn_arch::hash::FxBuildHasher;
use sn_arch::{Bytes, Flops};
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operator rejected its input shapes.
    Shape(String),
    /// A node referenced a tensor id from a different graph.
    UnknownTensor(String),
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Shape(m) => write!(f, "shape error: {m}"),
            GraphError::UnknownTensor(m) => write!(f, "unknown tensor: {m}"),
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl Error for GraphError {}

/// An immutable dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    tensors: Vec<TensorDef>,
    nodes: Vec<Node>,
    /// FLOPs of each node (index-aligned with `nodes`), computed once when
    /// the node is added.
    flops: Vec<Flops>,
    /// producer node of each tensor (index-aligned with `tensors`).
    producers: Vec<Option<NodeId>>,
    /// Consumers of tensor `t` are `consumers[consumer_start[t]..consumer_start[t + 1]]`,
    /// in node order (a node reading `t` twice appears twice).
    consumer_start: Vec<u32>,
    consumers: Vec<NodeId>,
}

impl Graph {
    /// The graph's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn tensor(&self, id: TensorId) -> &TensorDef {
        &self.tensors[id.index()]
    }

    pub fn tensors(&self) -> &[TensorDef] {
        &self.tensors
    }

    pub fn tensor_ids(&self) -> impl Iterator<Item = TensorId> + '_ {
        (0..self.tensors.len() as u32).map(TensorId)
    }

    /// The node that produces a tensor, if any (graph inputs have none).
    pub fn producer(&self, id: TensorId) -> Option<NodeId> {
        self.producers[id.index()]
    }

    /// The nodes that consume a tensor.
    pub fn consumers(&self, id: TensorId) -> &[NodeId] {
        let i = id.index();
        &self.consumers[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }

    /// FLOPs performed by one node ([`OpKind::flops`] of its shapes, taken
    /// when the node was added).
    pub fn node_flops(&self, id: NodeId) -> Flops {
        self.flops[id.index()]
    }

    /// Total FLOPs of the whole graph.
    pub fn total_flops(&self) -> Flops {
        self.node_ids().map(|n| self.node_flops(n)).sum()
    }

    /// Bytes read by a node from off-chip-eligible tensors (excludes
    /// [`TensorKind::Generated`] inputs, which never leave the chip).
    pub fn node_input_bytes(&self, id: NodeId) -> Bytes {
        self.node(id)
            .inputs
            .iter()
            .map(|&t| self.tensor(t))
            .filter(|t| t.is_offchip())
            .map(|t| t.bytes())
            .sum()
    }

    /// Bytes written by a node.
    pub fn node_output_bytes(&self, id: NodeId) -> Bytes {
        self.tensor(self.node(id).output).bytes()
    }

    /// Total bytes of all [`TensorKind::Weight`] tensors — the model's
    /// parameter footprint.
    pub fn weight_bytes(&self) -> Bytes {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(|t| t.bytes())
            .sum()
    }

    /// Total bytes of all [`TensorKind::KvCache`] tensors.
    pub fn kv_cache_bytes(&self) -> Bytes {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::KvCache)
            .map(|t| t.bytes())
            .sum()
    }

    /// Tensors that cross the graph boundary as inputs: graph [`TensorKind::Input`],
    /// weights, metadata, and KV caches read by some node but produced by none.
    pub fn external_inputs(&self) -> Vec<TensorId> {
        self.tensor_ids()
            .filter(|&t| self.producer(t).is_none() && !self.consumers(t).is_empty())
            .collect()
    }

    /// Tensors marked as graph outputs.
    pub fn outputs(&self) -> Vec<TensorId> {
        self.tensor_ids()
            .filter(|&t| self.tensor(t).kind == TensorKind::Output)
            .collect()
    }

    /// Looks a tensor up by name (names are not required to be unique; the
    /// first match wins).
    pub fn tensor_by_name(&self, name: &str) -> Option<TensorId> {
        self.tensor_ids().find(|&t| self.tensor(t).name == name)
    }

    /// Sum of FLOPs for the given subset of nodes.
    pub fn subset_flops(&self, nodes: &[NodeId]) -> Flops {
        nodes.iter().map(|&n| self.node_flops(n)).sum()
    }

    /// Off-chip boundary traffic of a node subset treated as one fused
    /// kernel: tensors read from outside the subset plus tensors written
    /// for consumption outside the subset (or graph outputs). Intermediates
    /// wholly inside the subset stay in on-chip stage buffers and count
    /// zero (§III-A). `nodes` may come in any order but must be distinct.
    ///
    /// A one-node subset (every unfused kernel) is its node alone. A larger
    /// one keeps one membership flag per node id between its smallest and
    /// largest member, so the cost is that span plus the edges of the
    /// subset. A tensor read from outside counts once, at its first
    /// consumer inside the subset.
    pub fn subset_boundary_bytes(&self, nodes: &[NodeId]) -> Bytes {
        if let &[only] = nodes {
            return self.boundary_bytes(nodes, |n| n == only);
        }
        let (Some(lo), Some(hi)) = (nodes.iter().min(), nodes.iter().max()) else {
            return Bytes::ZERO;
        };
        let mut flags = vec![false; hi.index() - lo.index() + 1];
        for &n in nodes {
            flags[n.index() - lo.index()] = true;
        }
        self.boundary_bytes(nodes, |n| {
            n.index()
                .checked_sub(lo.index())
                .and_then(|i| flags.get(i))
                .is_some_and(|&f| f)
        })
    }

    /// [`Graph::subset_boundary_bytes`] of `nodes`, whose members `inside`
    /// tells.
    fn boundary_bytes(&self, nodes: &[NodeId], inside: impl Fn(NodeId) -> bool) -> Bytes {
        let mut traffic = Bytes::ZERO;
        for &nid in nodes {
            let node = self.node(nid);
            for (i, &t) in node.inputs.iter().enumerate() {
                let def = self.tensor(t);
                if !def.is_offchip() || self.producer(t).is_some_and(&inside) {
                    continue;
                }
                let first_reader = self.consumers(t).iter().copied().find(|&c| inside(c));
                if first_reader == Some(nid) && !node.inputs[..i].contains(&t) {
                    traffic += def.bytes();
                }
            }
            let out = self.tensor(node.output);
            let escapes = out.kind == TensorKind::Output
                || self.consumers(node.output).iter().any(|&c| !inside(c));
            if escapes && out.is_offchip() {
                traffic += out.bytes();
            }
        }
        traffic
    }
}

/// A node's input shapes, read in place from the tensor table.
struct TensorShapes<'a> {
    tensors: &'a [TensorDef],
    ids: &'a [TensorId],
}

impl InputShapes for TensorShapes<'_> {
    fn count(&self) -> usize {
        self.ids.len()
    }

    fn shape(&self, i: usize) -> &Shape {
        &self.tensors[self.ids[i].index()].shape
    }
}

/// Incremental graph builder.
///
/// ```
/// use sn_dataflow::{GraphBuilder, OpKind, Shape, DType, TensorKind};
///
/// let mut b = GraphBuilder::new("tiny");
/// let x = b.tensor("x", Shape::mat(128, 64), DType::Bf16, TensorKind::Input);
/// let w = b.tensor("w", Shape::mat(64, 256), DType::Bf16, TensorKind::Weight);
/// let y = b.node("proj", OpKind::Gemm { transpose_b: false }, &[x, w]).unwrap();
/// b.mark_output(y);
/// let g = b.build().unwrap();
/// assert_eq!(g.node_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    tensors: Vec<TensorDef>,
    nodes: Vec<Node>,
    flops: Vec<Flops>,
    producers: Vec<Option<NodeId>>,
    names: NameCounts,
    /// Reused buffer for a node's `<name>.out` output-tensor name.
    out_name: String,
    region: u32,
}

impl GraphBuilder {
    /// Starts a new graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            tensors: Vec::new(),
            nodes: Vec::new(),
            flops: Vec::new(),
            producers: Vec::new(),
            names: NameCounts::default(),
            out_name: String::new(),
            region: 0,
        }
    }

    /// Sets the scheduling region for subsequently added nodes (e.g. the
    /// transformer layer index). See [`crate::op::Node::region`].
    pub fn set_region(&mut self, region: u32) {
        self.region = region;
    }

    /// `base` on its first use, `base#n` on its n-th. `owner` is where
    /// the returned name is stored next. A first use keeps an owned
    /// `base` as it is.
    fn unique_name(&mut self, base: impl AsRef<str> + Into<String>, owner: NameOwner) -> String {
        let (tensors, nodes) = (&self.tensors, &self.nodes);
        let n = self.names.bump(base.as_ref(), owner, |o| match o {
            NameOwner::Tensor(i) => &tensors[i as usize].name,
            NameOwner::Node(i) => &nodes[i as usize].name,
        });
        if n == 1 {
            return base.into();
        }
        let base = base.as_ref();
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
        let mut name = String::with_capacity(base.len() + 1 + digits.len());
        name.push_str(base);
        name.push('#');
        name.push_str(digits);
        name
    }

    fn push_tensor(
        &mut self,
        name: String,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(TensorDef::new(name, shape, dtype, kind));
        self.producers.push(None);
        id
    }

    /// Declares a source tensor (input, weight, metadata, KV cache, or
    /// on-chip generated value). An owned `name` is stored without a copy
    /// when it is the name's first use.
    pub fn tensor(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let owner = NameOwner::Tensor(self.tensors.len() as u32);
        let name = self.unique_name(name, owner);
        self.push_tensor(name, shape, dtype, kind)
    }

    /// Adds an operator node consuming existing tensors; the output tensor
    /// is created as an [`TensorKind::Activation`] with inferred shape and
    /// the dtype of the first input.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Shape`] if the operator rejects the input
    /// shapes, or [`GraphError::UnknownTensor`] on a foreign tensor id.
    pub fn node(
        &mut self,
        name: impl AsRef<str>,
        op: OpKind,
        inputs: &[TensorId],
    ) -> Result<TensorId, GraphError> {
        self.node_with_dtype(name, op, inputs, None)
    }

    /// Like [`GraphBuilder::node`] but forces the output dtype (format
    /// conversions, logits in FP32, and similar).
    pub fn node_with_dtype(
        &mut self,
        name: impl AsRef<str>,
        op: OpKind,
        inputs: &[TensorId],
        out_dtype: Option<DType>,
    ) -> Result<TensorId, GraphError> {
        for &t in inputs {
            if t.index() >= self.tensors.len() {
                return Err(GraphError::UnknownTensor(format!("{t}")));
            }
        }
        let shapes = TensorShapes {
            tensors: &self.tensors,
            ids: inputs,
        };
        let out_shape = op.infer_shape(&shapes).map_err(GraphError::Shape)?;
        let dtype = out_dtype.unwrap_or_else(|| self.tensors[inputs[0].index()].dtype);
        self.flops.push(op.flops(&shapes, &out_shape, dtype));
        let nid = NodeId(self.nodes.len() as u32);
        let node_name = self.unique_name(name.as_ref(), NameOwner::Node(nid.0));
        let out = TensorId(self.tensors.len() as u32);
        let out_kind = if matches!(op, OpKind::KvAppend) {
            TensorKind::KvCache
        } else {
            TensorKind::Activation
        };
        // The node goes in first: the output's name is looked up next and
        // may compare against it.
        self.nodes.push(Node {
            name: node_name,
            op,
            inputs: inputs.to_vec(),
            output: out,
            region: self.region,
        });
        let mut out_name = std::mem::take(&mut self.out_name);
        out_name.clear();
        out_name.push_str(&self.nodes[nid.index()].name);
        out_name.push_str(".out");
        let unique = self.unique_name(&out_name, NameOwner::Tensor(out.0));
        self.out_name = out_name;
        self.push_tensor(unique, out_shape, dtype, out_kind);
        self.producers[out.index()] = Some(nid);
        Ok(out)
    }

    /// Marks a produced tensor as a graph output.
    pub fn mark_output(&mut self, id: TensorId) {
        self.tensors[id.index()].kind = TensorKind::Output;
    }

    /// Shape of a tensor declared so far (useful when a builder routine
    /// needs to adapt to an inferred intermediate shape).
    ///
    /// # Panics
    ///
    /// Panics on a foreign tensor id.
    pub fn shape_of(&self, id: TensorId) -> &Shape {
        &self.tensors[id.index()].shape
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if no node was added.
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        // Consumer lists as one array, bucketed by tensor in node order.
        let mut consumer_start = vec![0u32; self.tensors.len() + 1];
        for node in &self.nodes {
            for &t in &node.inputs {
                consumer_start[t.index() + 1] += 1;
            }
        }
        for i in 1..consumer_start.len() {
            consumer_start[i] += consumer_start[i - 1];
        }
        let mut next = consumer_start.clone();
        let mut consumers = vec![NodeId(0); *consumer_start.last().expect("non-empty") as usize];
        for (i, node) in self.nodes.iter().enumerate() {
            for &t in &node.inputs {
                consumers[next[t.index()] as usize] = NodeId(i as u32);
                next[t.index()] += 1;
            }
        }
        Ok(Graph {
            name: self.name,
            tensors: self.tensors,
            nodes: self.nodes,
            flops: self.flops,
            producers: self.producers,
            consumer_start,
            consumers,
        })
    }
}

/// Where the first use of a name is stored verbatim.
#[derive(Debug, Clone, Copy)]
enum NameOwner {
    Tensor(u32),
    Node(u32),
}

#[derive(Debug, Clone, Copy)]
struct NameEntry {
    hash: u64,
    owner: NameOwner,
    uses: u32,
}

/// How many times each name has been asked for, keyed by the name without
/// a copy of it: the first use of a name is stored verbatim as a tensor or
/// node name, so an entry points at that owner and a probe compares against
/// it. Open addressing with linear probing; the table is a power of two
/// and at most half full. The table is internal and a probe compares the
/// names themselves, so the cheap [`FxBuildHasher`] serves: the hash
/// changes only where a name's slot lands, never which name comes back.
#[derive(Debug, Clone, Default)]
struct NameCounts {
    /// Index + 1 into `entries` per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    entries: Vec<NameEntry>,
}

impl NameCounts {
    /// Counts one more use of `name` and returns its uses so far. A first
    /// use records `owner`, where the caller stores `name` next;
    /// `name_of` reads the name stored at an earlier owner.
    fn bump<'a>(
        &mut self,
        name: &str,
        owner: NameOwner,
        name_of: impl Fn(NameOwner) -> &'a str,
    ) -> u32 {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = FxBuildHasher::default().hash_one(name);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.entries.push(NameEntry {
                        hash,
                        owner,
                        uses: 1,
                    });
                    self.slots[i] = self.entries.len() as u32;
                    return 1;
                }
                e => {
                    let entry = &mut self.entries[e as usize - 1];
                    if entry.hash == hash && name_of(entry.owner) == name {
                        entry.uses += 1;
                        return entry.uses;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(64);
        self.slots = vec![0; len];
        for (e, entry) in self.entries.iter().enumerate() {
            let mut i = entry.hash as usize & (len - 1);
            while self.slots[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = e as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinaryKind;

    fn mlp_graph() -> Graph {
        // x -> gemm(w1) -> silu -> mul(gemm(w3)) -> gemm(w2) -> y
        let mut b = GraphBuilder::new("mlp");
        let x = b.tensor("x", Shape::mat(64, 128), DType::Bf16, TensorKind::Input);
        let w1 = b.tensor("w1", Shape::mat(128, 512), DType::Bf16, TensorKind::Weight);
        let w3 = b.tensor("w3", Shape::mat(128, 512), DType::Bf16, TensorKind::Weight);
        let w2 = b.tensor("w2", Shape::mat(512, 128), DType::Bf16, TensorKind::Weight);
        let g = b
            .node("gate", OpKind::Gemm { transpose_b: false }, &[x, w1])
            .unwrap();
        let a = b
            .node("act", OpKind::Unary(crate::op::UnaryKind::Silu), &[g])
            .unwrap();
        let u = b
            .node("up", OpKind::Gemm { transpose_b: false }, &[x, w3])
            .unwrap();
        let m = b
            .node("mix", OpKind::Binary(BinaryKind::Mul), &[a, u])
            .unwrap();
        let y = b
            .node("down", OpKind::Gemm { transpose_b: false }, &[m, w2])
            .unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn builder_infers_shapes() {
        let g = mlp_graph();
        assert_eq!(g.node_count(), 5);
        let y = g.outputs()[0];
        assert_eq!(g.tensor(y).shape, Shape::mat(64, 128));
    }

    #[test]
    fn insertion_order_is_topological() {
        let g = mlp_graph();
        for nid in g.node_ids() {
            for &t in &g.node(nid).inputs {
                if let Some(p) = g.producer(t) {
                    assert!(p < nid, "producer {p} must precede consumer {nid}");
                }
            }
        }
    }

    #[test]
    fn consumers_and_producers_are_inverse() {
        let g = mlp_graph();
        for t in g.tensor_ids() {
            for &c in g.consumers(t) {
                assert!(g.node(c).inputs.contains(&t));
            }
            if let Some(p) = g.producer(t) {
                assert_eq!(g.node(p).output, t);
            }
        }
    }

    #[test]
    fn weight_bytes_sum_parameters() {
        let g = mlp_graph();
        // w1 + w3: 128*512 each, w2: 512*128, all BF16.
        assert_eq!(g.weight_bytes(), Bytes::new(3 * 128 * 512 * 2));
    }

    #[test]
    fn fused_boundary_excludes_intermediates() {
        let g = mlp_graph();
        let all: Vec<NodeId> = g.node_ids().collect();
        let fused = g.subset_boundary_bytes(&all);
        // Boundary: x, w1, w3, w2, y. (x counted once even though read twice.)
        let expect = Bytes::new((64 * 128 + 3 * 128 * 512 + 64 * 128) * 2);
        assert_eq!(fused, expect);
        // Unfused sums every edge and is strictly larger.
        let unfused: Bytes = g
            .node_ids()
            .map(|n| g.node_input_bytes(n) + g.node_output_bytes(n))
            .sum();
        assert!(unfused > fused);
    }

    #[test]
    fn duplicate_names_are_uniquified() {
        let mut b = GraphBuilder::new("dup");
        let x = b.tensor("x", Shape::mat(4, 4), DType::Bf16, TensorKind::Input);
        let a = b
            .node("op", OpKind::Unary(crate::op::UnaryKind::Neg), &[x])
            .unwrap();
        let _ = b
            .node("op", OpKind::Unary(crate::op::UnaryKind::Neg), &[a])
            .unwrap();
        let g = b.build().unwrap();
        assert_ne!(g.nodes()[0].name, g.nodes()[1].name);
    }

    #[test]
    fn names_count_uses_per_requested_name() {
        let mut b = GraphBuilder::new("names");
        let x = b.tensor("x", Shape::mat(4, 4), DType::Bf16, TensorKind::Input);
        let neg = || OpKind::Unary(crate::op::UnaryKind::Neg);
        let a = b.node("x", neg(), &[x]).unwrap();
        let _ = b.tensor("x.out", Shape::mat(4, 4), DType::Bf16, TensorKind::Input);
        let _ = b.node("x#2", neg(), &[a]).unwrap();
        let _ = b.node("x", neg(), &[a]).unwrap();
        let g = b.build().unwrap();
        let tensors: Vec<&str> = g.tensors().iter().map(|t| t.name.as_str()).collect();
        let nodes: Vec<&str> = g.nodes().iter().map(|n| n.name.as_str()).collect();
        // A name's n-th request gets `#n`. A first request for a derived
        // form gets it verbatim, so names may repeat.
        assert_eq!(tensors, ["x", "x#2.out", "x.out", "x#2.out#2", "x#3.out"]);
        assert_eq!(nodes, ["x#2", "x#2", "x#3"]);
    }

    #[test]
    fn malformed_reshape_and_transpose_are_shape_errors() {
        let mut b = GraphBuilder::new("bad");
        let x = b.tensor("x", Shape::mat(16, 4), DType::Bf16, TensorKind::Input);
        for op in [
            OpKind::Reshape { dims: [].into() },
            OpKind::Reshape {
                dims: [16, 0].into(),
            },
            OpKind::Transpose {
                perm: [0, 0].into(),
            },
        ] {
            let err = b.node("bad", op, &[x]);
            assert!(matches!(err, Err(GraphError::Shape(_))), "{err:?}");
        }
        assert_eq!(b.node_count(), 0);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            GraphBuilder::new("e").build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn foreign_tensor_rejected() {
        let mut other = GraphBuilder::new("other");
        let foreign = other.tensor("x", Shape::mat(4, 4), DType::Bf16, TensorKind::Input);
        let mut b = GraphBuilder::new("b");
        let err = b.node("op", OpKind::Unary(crate::op::UnaryKind::Neg), &[foreign]);
        assert!(matches!(err, Err(GraphError::UnknownTensor(_))));
    }

    #[test]
    fn generated_inputs_do_not_count_as_traffic() {
        let mut b = GraphBuilder::new("gen");
        let x = b.tensor("x", Shape::mat(64, 64), DType::Bf16, TensorKind::Input);
        let tw = b.tensor("tw", Shape::mat(64, 64), DType::Bf16, TensorKind::Generated);
        let y = b
            .node("mul", OpKind::Binary(BinaryKind::Mul), &[x, tw])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let n = g.node_ids().next().unwrap();
        assert_eq!(g.node_input_bytes(n), Bytes::new(64 * 64 * 2));
    }
}
