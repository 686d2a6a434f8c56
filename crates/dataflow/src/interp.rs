//! A reference interpreter: executes dataflow graphs numerically.
//!
//! The performance models elsewhere in the workspace never touch values;
//! this module gives the IR *semantics*, so tests can check that graphs
//! compute what they claim (GEMMs multiply, softmax normalizes, transposes
//! move the right elements) and that graph transformations are
//! value-preserving. Data is `f32`; complex tensors store interleaved
//! `(re, im)` pairs. Source tensors without supplied values (weights,
//! metadata, generated twiddles) are synthesized deterministically from
//! the tensor id and a seed.
//!
//! This interpreter is for correctness at small sizes, not speed.

use crate::dtype::DType;
use crate::graph::{Graph, NodeId};
use crate::op::{BinaryKind, OpKind, ReduceKind, UnaryKind};
use crate::shape::Shape;
use crate::tensor::TensorId;
use std::collections::HashMap;

/// A materialized tensor value.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorData {
    pub shape: Shape,
    pub dtype: DType,
    /// Row-major values; complex dtypes hold `2 * elements` floats
    /// interleaved as `re, im`.
    pub values: Vec<f32>,
}

impl TensorData {
    /// Creates a real tensor, validating the element count.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the shape.
    pub fn new(shape: Shape, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len() as u64,
            shape.elements(),
            "value count mismatch"
        );
        TensorData {
            shape,
            dtype: DType::Fp32,
            values,
        }
    }

    /// Floats per element for a dtype (2 for complex).
    fn lanes(dtype: DType) -> usize {
        match dtype {
            DType::ComplexBf16 => 2,
            _ => 1,
        }
    }

    fn zeros(shape: Shape, dtype: DType) -> Self {
        let n = shape.elements() as usize * Self::lanes(dtype);
        TensorData {
            shape,
            dtype,
            values: vec![0.0; n],
        }
    }

    fn is_complex(&self) -> bool {
        self.dtype == DType::ComplexBf16
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The graph references an op/dtype combination the interpreter does
    /// not implement.
    Unsupported(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Deterministic pseudo-random fill for unsupplied source tensors.
fn synth_value(seed: u64, tensor: u32, index: usize) -> f32 {
    // SplitMix64 over (seed, tensor, index); mapped to roughly [-0.5, 0.5].
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((tensor as u64) << 32)
        .wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    ((z >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// The interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter {
    seed: u64,
}

impl Interpreter {
    pub fn new(seed: u64) -> Self {
        Interpreter { seed }
    }

    /// Evaluates the graph; `inputs` overrides any source tensor's value.
    /// Returns values for every tensor (sources and node outputs).
    ///
    /// # Errors
    ///
    /// [`InterpError::Unsupported`] on operator forms without numeric
    /// semantics here.
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &HashMap<TensorId, TensorData>,
    ) -> Result<HashMap<TensorId, TensorData>, InterpError> {
        let mut env: HashMap<TensorId, TensorData> = HashMap::new();
        // Materialize sources.
        for t in graph.tensor_ids() {
            if graph.producer(t).is_some() {
                continue;
            }
            let def = graph.tensor(t);
            let data = match inputs.get(&t) {
                Some(d) => {
                    assert_eq!(
                        d.shape, def.shape,
                        "supplied shape mismatch for {}",
                        def.name
                    );
                    let mut d = d.clone();
                    d.dtype = def.dtype;
                    d
                }
                None => {
                    let mut d = TensorData::zeros(def.shape, def.dtype);
                    for (i, v) in d.values.iter_mut().enumerate() {
                        *v = synth_value(self.seed, t.index() as u32, i);
                    }
                    d
                }
            };
            env.insert(t, data);
        }
        // Execute in topological (insertion) order.
        for nid in graph.node_ids() {
            let out = self.eval_node(graph, nid, &env)?;
            env.insert(graph.node(nid).output, out);
        }
        Ok(env)
    }

    /// Evaluates the graph and returns just the marked outputs.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpError`] from [`Interpreter::run`].
    pub fn run_outputs(
        &self,
        graph: &Graph,
        inputs: &HashMap<TensorId, TensorData>,
    ) -> Result<Vec<TensorData>, InterpError> {
        let env = self.run(graph, inputs)?;
        Ok(graph
            .outputs()
            .into_iter()
            .map(|t| env[&t].clone())
            .collect())
    }

    fn eval_node(
        &self,
        graph: &Graph,
        nid: NodeId,
        env: &HashMap<TensorId, TensorData>,
    ) -> Result<TensorData, InterpError> {
        let node = graph.node(nid);
        let ins: Vec<&TensorData> = node.inputs.iter().map(|t| &env[t]).collect();
        let out_def = graph.tensor(node.output);
        let out_shape = out_def.shape;
        let out_dtype = out_def.dtype;
        match &node.op {
            OpKind::Gemm { transpose_b } | OpKind::SparseGemm { transpose_b, .. } => {
                Ok(gemm(ins[0], ins[1], *transpose_b, out_shape, out_dtype))
            }
            OpKind::Unary(u) => Ok(unary(*u, ins[0], out_dtype)),
            OpKind::Binary(k) => Ok(binary(*k, ins[0], ins[1], out_dtype)),
            OpKind::Transpose { perm } => Ok(transpose(ins[0], perm)),
            OpKind::Reshape { dims } => {
                let mut d = ins[0].clone();
                d.shape = Shape::new(&dims[..]);
                Ok(d)
            }
            OpKind::Softmax => Ok(rowwise(ins[0], |row| {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                for e in &mut exps {
                    *e /= sum;
                }
                exps
            })),
            OpKind::RmsNorm => Ok(rowwise(ins[0], |row| {
                let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
                let inv = 1.0 / (ms + 1e-6).sqrt();
                row.iter().map(|&v| v * inv).collect()
            })),
            OpKind::LayerNorm => Ok(rowwise(ins[0], |row| {
                let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
                let var: f32 =
                    row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
                let inv = 1.0 / (var + 1e-6).sqrt();
                row.iter().map(|&v| (v - mean) * inv).collect()
            })),
            OpKind::Rope => Ok(rope(ins[0])),
            OpKind::Reduce(k) => Ok(reduce(*k, ins[0], out_shape)),
            OpKind::Embedding => Ok(embedding(ins[0], ins[1], out_shape)),
            OpKind::Slice { axis, parts, index } => {
                Ok(slice(ins[0], *axis, *parts, *index, out_shape))
            }
            OpKind::Concat { axis } => Ok(concat(&ins, *axis, out_shape)),
            OpKind::KvAppend => Ok(kv_append(ins[0], ins[1])),
            // Single-socket semantics: the reduced value equals this
            // shard's contribution (peers hold identical synthetic data).
            OpKind::AllReduce { .. } => Ok(ins[0].clone()),
        }
    }
}

fn gemm(
    a: &TensorData,
    b: &TensorData,
    transpose_b: bool,
    out_shape: Shape,
    dtype: DType,
) -> TensorData {
    let complex = a.is_complex() || b.is_complex();
    let k = a.shape.inner();
    let (m, n) = {
        let dims = out_shape.dims();
        (
            out_shape.elements() as usize / dims[dims.len() - 1],
            dims[dims.len() - 1],
        )
    };
    let batched_b = b.shape.rank() == 3;
    let groups = if batched_b { b.shape.dims()[0] } else { 1 };
    let rows_per_group = m / groups;
    let (bk, bn) = if transpose_b {
        let d = b.shape.dims();
        (d[d.len() - 1], d[d.len() - 2])
    } else {
        let d = b.shape.dims();
        (d[d.len() - 2], d[d.len() - 1])
    };
    assert_eq!(bk, k, "contraction mismatch in interp gemm");
    assert_eq!(bn, n);
    let lanes = if complex { 2 } else { 1 };
    let mut out = TensorData::zeros(out_shape, dtype);
    let b_elems_per_group = bk * bn * lanes;
    let get = |t: &TensorData, idx: usize, lane: usize| -> f32 {
        if t.is_complex() {
            t.values[idx * 2 + lane]
        } else if lane == 0 {
            t.values[idx]
        } else {
            0.0
        }
    };
    for row in 0..m {
        let g = if batched_b { row / rows_per_group } else { 0 };
        for col in 0..n {
            let (mut re, mut im) = (0.0f32, 0.0f32);
            for kk in 0..k {
                let ai = row * k + kk;
                let bi_local = if transpose_b {
                    col * k + kk
                } else {
                    kk * n + col
                };
                let bi = g * (b_elems_per_group / lanes) + bi_local;
                let (ar, ai_) = (get(a, ai, 0), get(a, ai, 1));
                let (br, bi_) = (get(b, bi, 0), get(b, bi, 1));
                re += ar * br - ai_ * bi_;
                im += ar * bi_ + ai_ * br;
            }
            let oi = row * n + col;
            if lanes == 2 {
                out.values[oi * 2] = re;
                out.values[oi * 2 + 1] = im;
            } else {
                out.values[oi] = re;
            }
        }
    }
    out
}

fn unary(u: UnaryKind, x: &TensorData, out_dtype: DType) -> TensorData {
    // Cast handles real<->complex; other unaries apply lane-wise.
    if u == UnaryKind::Cast {
        let mut out = TensorData::zeros(x.shape, out_dtype);
        let out_complex = out.is_complex();
        for i in 0..x.shape.elements() as usize {
            let re = if x.is_complex() {
                x.values[i * 2]
            } else {
                x.values[i]
            };
            if out_complex {
                out.values[i * 2] = re;
                out.values[i * 2 + 1] = if x.is_complex() {
                    x.values[i * 2 + 1]
                } else {
                    0.0
                };
            } else {
                out.values[i] = re;
            }
        }
        return out;
    }
    let f = |v: f32| -> f32 {
        match u {
            UnaryKind::Silu => v / (1.0 + (-v).exp()),
            UnaryKind::Gelu => {
                0.5 * v * (1.0 + (v * 0.797_884_6 * (1.0 + 0.044715 * v * v)).tanh())
            }
            UnaryKind::Exp => v.exp(),
            UnaryKind::Rsqrt => 1.0 / v.abs().max(1e-12).sqrt(),
            UnaryKind::Scale => v * 0.125,
            UnaryKind::Neg => -v,
            UnaryKind::Cast => unreachable!("handled above"),
        }
    };
    let mut out = x.clone();
    out.dtype = out_dtype;
    for v in &mut out.values {
        *v = f(*v);
    }
    out
}

fn binary(k: BinaryKind, a: &TensorData, b: &TensorData, out_dtype: DType) -> TensorData {
    let mut out = a.clone();
    out.dtype = out_dtype;
    let complex = a.is_complex();
    let n = a.shape.elements() as usize;
    let b_elems = b.shape.elements() as usize;
    for i in 0..n {
        let bi = if b_elems == n { i } else { i % b_elems };
        if complex && k == BinaryKind::Mul && b.is_complex() {
            let (ar, ai) = (a.values[i * 2], a.values[i * 2 + 1]);
            let (br, bim) = (b.values[bi * 2], b.values[bi * 2 + 1]);
            out.values[i * 2] = ar * br - ai * bim;
            out.values[i * 2 + 1] = ar * bim + ai * br;
        } else {
            let lanes = if complex { 2 } else { 1 };
            for l in 0..lanes {
                let av = a.values[i * lanes + l];
                let bv = if b.is_complex() == complex {
                    b.values[bi * lanes + l]
                } else if l == 0 {
                    b.values[bi]
                } else {
                    0.0
                };
                out.values[i * lanes + l] = match k {
                    BinaryKind::Add => av + bv,
                    BinaryKind::Sub => av - bv,
                    BinaryKind::Mul => av * bv,
                    BinaryKind::Div => av / bv,
                    BinaryKind::Max => av.max(bv),
                };
            }
        }
    }
    out
}

fn transpose(x: &TensorData, perm: &[usize]) -> TensorData {
    let in_dims = x.shape.dims().to_vec();
    let out_shape = x.shape.permute(perm);
    let lanes = TensorData::lanes(x.dtype);
    let mut out = TensorData::zeros(out_shape, x.dtype);
    let rank = in_dims.len();
    let in_strides = strides(&in_dims);
    let out_dims = out_shape.dims().to_vec();
    let out_strides = strides(&out_dims);
    let total = x.shape.elements() as usize;
    let mut idx = vec![0usize; rank];
    for flat_out in 0..total {
        // Decompose output index, map through perm to input index.
        let mut rem = flat_out;
        for d in 0..rank {
            idx[d] = rem / out_strides[d];
            rem %= out_strides[d];
        }
        let mut flat_in = 0;
        for d in 0..rank {
            flat_in += idx[d] * in_strides[perm[d]];
        }
        for l in 0..lanes {
            out.values[flat_out * lanes + l] = x.values[flat_in * lanes + l];
        }
    }
    out
}

fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * dims[d + 1];
    }
    s
}

fn rowwise(x: &TensorData, f: impl Fn(&[f32]) -> Vec<f32>) -> TensorData {
    let inner = x.shape.inner();
    let mut out = x.clone();
    for row in out.values.chunks_mut(inner) {
        let new = f(row);
        row.copy_from_slice(&new);
    }
    out
}

fn rope(x: &TensorData) -> TensorData {
    // Rotate consecutive pairs by a position/index dependent angle.
    let inner = x.shape.inner();
    let mut out = x.clone();
    for (r, row) in out.values.chunks_mut(inner).enumerate() {
        for p in 0..inner / 2 {
            let theta = r as f32 / 10000f32.powf(2.0 * p as f32 / inner as f32);
            let (s, c) = theta.sin_cos();
            let (a, b) = (row[2 * p], row[2 * p + 1]);
            row[2 * p] = a * c - b * s;
            row[2 * p + 1] = a * s + b * c;
        }
    }
    out
}

fn reduce(k: ReduceKind, x: &TensorData, out_shape: Shape) -> TensorData {
    let inner = x.shape.inner();
    let mut out = TensorData::zeros(out_shape, x.dtype);
    for (i, row) in x.values.chunks(inner).enumerate() {
        out.values[i] = match k {
            ReduceKind::Sum => row.iter().sum(),
            ReduceKind::Max => row.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            ReduceKind::Mean => row.iter().sum::<f32>() / inner as f32,
        };
    }
    out
}

fn embedding(table: &TensorData, ids: &TensorData, out_shape: Shape) -> TensorData {
    let d = table.shape.inner();
    let vocab = table.shape.outer();
    let mut out = TensorData::zeros(out_shape, table.dtype);
    for (i, &id) in ids.values.iter().enumerate() {
        let row = (id.abs() as usize) % vocab;
        out.values[i * d..(i + 1) * d].copy_from_slice(&table.values[row * d..(row + 1) * d]);
    }
    out
}

fn slice(x: &TensorData, axis: usize, parts: usize, index: usize, out_shape: Shape) -> TensorData {
    let dims = x.shape.dims();
    let lanes = TensorData::lanes(x.dtype);
    let outer: usize = dims[..axis].iter().product();
    let axis_len = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product::<usize>() * lanes;
    let span = axis_len / parts;
    let mut out = TensorData::zeros(out_shape, x.dtype);
    let mut w = 0;
    for o in 0..outer {
        let base = (o * axis_len + index * span) * inner;
        out.values[w..w + span * inner].copy_from_slice(&x.values[base..base + span * inner]);
        w += span * inner;
    }
    out
}

fn concat(ins: &[&TensorData], axis: usize, out_shape: Shape) -> TensorData {
    let lanes = TensorData::lanes(ins[0].dtype);
    let dims0 = ins[0].shape.dims();
    let outer: usize = dims0[..axis].iter().product();
    let inner: usize = dims0[axis + 1..].iter().product::<usize>() * lanes;
    let mut out = TensorData::zeros(out_shape, ins[0].dtype);
    let mut w = 0;
    for o in 0..outer {
        for t in ins {
            let alen = t.shape.dims()[axis];
            let base = o * alen * inner;
            out.values[w..w + alen * inner].copy_from_slice(&t.values[base..base + alen * inner]);
            w += alen * inner;
        }
    }
    out
}

fn kv_append(cache: &TensorData, rows: &TensorData) -> TensorData {
    // Write the new rows over the tail of each cache group.
    let mut out = cache.clone();
    let lanes = TensorData::lanes(cache.dtype);
    let cd = cache.shape.dims();
    let rd = rows.shape.dims();
    let (groups, cap, d) = (cd[0], cd[1], cd[2] * lanes);
    let new = rd[1];
    for g in 0..groups {
        let dst = (g * cap + (cap - new)) * d;
        let src = g * new * d;
        out.values[dst..dst + new * d].copy_from_slice(&rows.values[src..src + new * d]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::tensor::TensorKind;
    use proptest::prelude::*;

    fn td(rows: usize, cols: usize, values: Vec<f32>) -> TensorData {
        TensorData::new(Shape::mat(rows, cols), values)
    }

    #[test]
    fn gemm_matches_reference() {
        let mut b = GraphBuilder::new("g");
        let x = b.tensor("x", Shape::mat(2, 3), DType::Fp32, TensorKind::Input);
        let w = b.tensor("w", Shape::mat(3, 2), DType::Fp32, TensorKind::Weight);
        let y = b
            .node("mm", OpKind::Gemm { transpose_b: false }, &[x, w])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(x, td(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        inputs.insert(w, td(3, 2, vec![7., 8., 9., 10., 11., 12.]));
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        assert_eq!(out[0].values, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn gemm_transpose_b_matches() {
        let mut b = GraphBuilder::new("g");
        let x = b.tensor("x", Shape::mat(2, 3), DType::Fp32, TensorKind::Input);
        let w = b.tensor("w", Shape::mat(2, 3), DType::Fp32, TensorKind::Weight);
        let y = b
            .node("mm", OpKind::Gemm { transpose_b: true }, &[x, w])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(x, td(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        inputs.insert(w, td(2, 3, vec![1., 0., 0., 0., 1., 0.]));
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        // Rows of x dotted with rows of w.
        assert_eq!(out[0].values, vec![1., 2., 4., 5.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut b = GraphBuilder::new("s");
        let x = b.tensor("x", Shape::mat(4, 8), DType::Fp32, TensorKind::Input);
        let y = b.node("sm", OpKind::Softmax, &[x]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let out = Interpreter::new(3)
            .run_outputs(&g, &HashMap::new())
            .unwrap();
        for row in out[0].values.chunks(8) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn transpose_moves_elements() {
        let mut b = GraphBuilder::new("t");
        let x = b.tensor("x", Shape::mat(2, 3), DType::Fp32, TensorKind::Input);
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
        let mut inputs = HashMap::new();
        inputs.insert(x, td(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        assert_eq!(out[0].values, vec![1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let mut b = GraphBuilder::new("t2");
        let x = b.tensor("x", Shape::new([2, 3, 4]), DType::Fp32, TensorKind::Input);
        let t1 = b
            .node(
                "a",
                OpKind::Transpose {
                    perm: [0, 2, 1].into(),
                },
                &[x],
            )
            .unwrap();
        let t2 = b
            .node(
                "b",
                OpKind::Transpose {
                    perm: [0, 2, 1].into(),
                },
                &[t1],
            )
            .unwrap();
        b.mark_output(t2);
        let g = b.build().unwrap();
        let env = Interpreter::new(5).run(&g, &HashMap::new()).unwrap();
        assert_eq!(env[&x].values, env[&t2].values);
    }

    #[test]
    fn complex_gemm_multiplies_complex() {
        // (1 + i) * (1 + i) = 2i via a 1x1x1 complex gemm.
        let mut b = GraphBuilder::new("c");
        let x = b.tensor("x", Shape::mat(1, 1), DType::ComplexBf16, TensorKind::Input);
        let w = b.tensor(
            "w",
            Shape::mat(1, 1),
            DType::ComplexBf16,
            TensorKind::Weight,
        );
        let y = b
            .node("mm", OpKind::Gemm { transpose_b: false }, &[x, w])
            .unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let mut inputs = HashMap::new();
        let one_plus_i = TensorData {
            shape: Shape::mat(1, 1),
            dtype: DType::ComplexBf16,
            values: vec![1.0, 1.0],
        };
        inputs.insert(x, one_plus_i.clone());
        inputs.insert(w, one_plus_i);
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        assert!((out[0].values[0] - 0.0).abs() < 1e-6);
        assert!((out[0].values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn slice_concat_roundtrip() {
        let mut b = GraphBuilder::new("sc");
        let x = b.tensor("x", Shape::mat(4, 6), DType::Fp32, TensorKind::Input);
        let a = b
            .node(
                "s0",
                OpKind::Slice {
                    axis: 1,
                    parts: 2,
                    index: 0,
                },
                &[x],
            )
            .unwrap();
        let c = b
            .node(
                "s1",
                OpKind::Slice {
                    axis: 1,
                    parts: 2,
                    index: 1,
                },
                &[x],
            )
            .unwrap();
        let y = b.node("cat", OpKind::Concat { axis: 1 }, &[a, c]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let env = Interpreter::new(11).run(&g, &HashMap::new()).unwrap();
        assert_eq!(env[&x].values, env[&y].values);
    }

    #[test]
    fn monarch_graph_executes_finitely() {
        let g = crate::monarch::monarch_fft(2, 8);
        let out = Interpreter::new(1)
            .run_outputs(&g, &HashMap::new())
            .unwrap();
        assert!(out[0].values.iter().all(|v| v.is_finite()));
        assert!(out[0].values.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn kv_append_places_new_rows_at_tail() {
        let mut b = GraphBuilder::new("kv");
        let cache = b.tensor("c", Shape::new([1, 4, 2]), DType::Fp32, TensorKind::KvCache);
        let new = b.tensor("n", Shape::new([1, 1, 2]), DType::Fp32, TensorKind::Input);
        let y = b.node("app", OpKind::KvAppend, &[cache, new]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(cache, TensorData::new(Shape::new([1, 4, 2]), vec![0.0; 8]));
        inputs.insert(new, TensorData::new(Shape::new([1, 1, 2]), vec![7.0, 8.0]));
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        assert_eq!(&out[0].values[6..8], &[7.0, 8.0]);
        assert_eq!(&out[0].values[..6], &[0.0; 6]);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut b = GraphBuilder::new("e");
        let table = b.tensor("t", Shape::mat(4, 2), DType::Fp32, TensorKind::Weight);
        let ids = b.tensor("i", Shape::new([3]), DType::Int32, TensorKind::Input);
        let y = b.node("emb", OpKind::Embedding, &[table, ids]).unwrap();
        b.mark_output(y);
        let g = b.build().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(table, td(4, 2, vec![0., 1., 10., 11., 20., 21., 30., 31.]));
        inputs.insert(ids, TensorData::new(Shape::new([3]), vec![2.0, 0.0, 3.0]));
        let out = Interpreter::new(0).run_outputs(&g, &inputs).unwrap();
        assert_eq!(out[0].values, vec![20., 21., 0., 1., 30., 31.]);
    }

    #[test]
    fn unsupplied_sources_are_deterministic() {
        let g = crate::monarch::monarch_fft(2, 8);
        let a = Interpreter::new(9)
            .run_outputs(&g, &HashMap::new())
            .unwrap();
        let b = Interpreter::new(9)
            .run_outputs(&g, &HashMap::new())
            .unwrap();
        let c = Interpreter::new(10)
            .run_outputs(&g, &HashMap::new())
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// GEMM distributes over addition: (A + B) W == AW + BW.
        #[test]
        fn gemm_is_linear(vals_a in proptest::collection::vec(-2.0f32..2.0, 6),
                          vals_b in proptest::collection::vec(-2.0f32..2.0, 6)) {
            let build_graph = || {
                let mut b = GraphBuilder::new("lin");
                let x = b.tensor("x", Shape::mat(2, 3), DType::Fp32, TensorKind::Input);
                let w = b.tensor("w", Shape::mat(3, 2), DType::Fp32, TensorKind::Weight);
                let y = b.node("mm", OpKind::Gemm { transpose_b: false }, &[x, w]).unwrap();
                b.mark_output(y);
                (b.build().unwrap(), x, w)
            };
            let (g, x, w) = build_graph();
            let wvals: Vec<f32> = (0..6).map(|i| (i as f32) * 0.5 - 1.0).collect();
            let run = |xv: Vec<f32>| {
                let mut inp = HashMap::new();
                inp.insert(x, td(2, 3, xv));
                inp.insert(w, td(3, 2, wvals.clone()));
                Interpreter::new(0).run_outputs(&g, &inp).unwrap()[0].values.clone()
            };
            let sum_in: Vec<f32> = vals_a.iter().zip(&vals_b).map(|(a, b)| a + b).collect();
            let lhs = run(sum_in);
            let ra = run(vals_a.clone());
            let rb = run(vals_b.clone());
            for i in 0..lhs.len() {
                prop_assert!((lhs[i] - (ra[i] + rb[i])).abs() < 1e-3);
            }
        }

        /// Softmax output is a probability distribution for any input row.
        #[test]
        fn softmax_is_distribution(vals in proptest::collection::vec(-30.0f32..30.0, 8)) {
            let mut b = GraphBuilder::new("sm");
            let x = b.tensor("x", Shape::mat(1, 8), DType::Fp32, TensorKind::Input);
            let y = b.node("s", OpKind::Softmax, &[x]).unwrap();
            b.mark_output(y);
            let g = b.build().unwrap();
            let mut inp = HashMap::new();
            inp.insert(x, td(1, 8, vals));
            let out = Interpreter::new(0).run_outputs(&g, &inp).unwrap();
            let sum: f32 = out[0].values.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(out[0].values.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        /// RoPE preserves the norm of every rotated pair (it is a rotation).
        #[test]
        fn rope_preserves_norms(vals in proptest::collection::vec(-3.0f32..3.0, 16)) {
            let mut b = GraphBuilder::new("r");
            let x = b.tensor("x", Shape::mat(2, 8), DType::Fp32, TensorKind::Input);
            let y = b.node("rope", OpKind::Rope, &[x]).unwrap();
            b.mark_output(y);
            let g = b.build().unwrap();
            let mut inp = HashMap::new();
            inp.insert(x, td(2, 8, vals.clone()));
            let out = Interpreter::new(0).run_outputs(&g, &inp).unwrap();
            for (before, after) in vals.chunks(2).zip(out[0].values.chunks(2)) {
                let nb = before[0].hypot(before[1]);
                let na = after[0].hypot(after[1]);
                prop_assert!((nb - na).abs() < 1e-3, "norm {nb} -> {na}");
            }
        }
    }
}
