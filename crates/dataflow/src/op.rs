//! The operator catalog.
//!
//! Operators know three things: how to infer their output shape, how many
//! FLOPs they perform, and what access pattern they impose on the fabric.
//! The access pattern is what decides GPU-fusion legality in the baseline
//! (§III-A: transposes and shuffles break conventional fusion) — on the
//! RDU every pattern is fusable because PMUs implement reordering as
//! read/write address patterns (§IV-B).

use crate::dtype::DType;
use crate::shape::{Dims, Shape, MAX_RANK};
use crate::tensor::TensorId;
use sn_arch::Flops;
use std::fmt;

/// Pointwise unary functions executed in PCU SIMD stages or the tail unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// SiLU / swish activation.
    Silu,
    /// GELU activation.
    Gelu,
    /// Exponential (tail-unit transcendental).
    Exp,
    /// Reciprocal square root.
    Rsqrt,
    /// Numeric format conversion (tail unit).
    Cast,
    /// Scale by a compile-time constant.
    Scale,
    /// Negation.
    Neg,
}

impl UnaryKind {
    /// Approximate real FLOPs per element (transcendentals cost several).
    pub fn flops_per_element(self) -> u64 {
        match self {
            UnaryKind::Silu | UnaryKind::Gelu => 4,
            UnaryKind::Exp | UnaryKind::Rsqrt => 4,
            UnaryKind::Cast | UnaryKind::Neg | UnaryKind::Scale => 1,
        }
    }
}

/// Pointwise binary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// Reductions over the innermost axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    Sum,
    Max,
    Mean,
}

/// How an operator touches memory, from the point of view of a conventional
/// (GPU) fusion engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Purely elementwise streaming; always fusable everywhere.
    Streaming,
    /// Dense contraction (systolic); a fusion *anchor* on GPUs (an epilogue
    /// may attach to it) and a pipeline stage on the RDU.
    Contraction,
    /// Row-local reduction/normalization; fusable on GPUs only as a
    /// handwritten epilogue, fusable freely on the RDU.
    RowLocal,
    /// Data reordering (transpose, shuffle, concat/slice across the fast
    /// axis). Breaks conventional GPU fusion (§III-A); on the RDU it is
    /// absorbed into PMU read/write address patterns (§IV-B).
    Reorder,
    /// Inter-socket collective communication.
    Collective,
}

/// The shapes of an operator's inputs, in order. A slice or array of
/// shapes is one; a graph reads its tensor table in place through another,
/// so inferring a node's shape and FLOPs collects nothing.
pub trait InputShapes {
    /// Number of inputs.
    fn count(&self) -> usize;
    /// Shape of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.count()`.
    fn shape(&self, i: usize) -> &Shape;
}

impl InputShapes for [&Shape] {
    fn count(&self) -> usize {
        self.len()
    }

    fn shape(&self, i: usize) -> &Shape {
        self[i]
    }
}

impl<const N: usize> InputShapes for [&Shape; N] {
    fn count(&self) -> usize {
        N
    }

    fn shape(&self, i: usize) -> &Shape {
        self[i]
    }
}

/// An operator with its static parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Dense matrix multiply: `A [.., m, k] x B [k, n] -> [.., m, n]`.
    /// With `transpose_b`, `B` is `[n, k]`.
    Gemm { transpose_b: bool },
    /// GEMM with unstructured weight sparsity (sparseGPT training,
    /// Table II): FLOPs scale by `density`.
    SparseGemm { density: f64, transpose_b: bool },
    /// Pointwise unary function.
    Unary(UnaryKind),
    /// Pointwise binary function (operands broadcast if one is a vector).
    Binary(BinaryKind),
    /// Axis permutation.
    Transpose { perm: Dims },
    /// Element-preserving re-view (e.g. `[B*S, h*d] -> [B*h, S, d]`).
    /// Head regrouping is a genuine data reordering on both platforms.
    Reshape { dims: Dims },
    /// Row softmax over the innermost axis.
    Softmax,
    /// RMS normalization over the innermost axis (Llama-family).
    RmsNorm,
    /// LayerNorm over the innermost axis (Bloom/Falcon-family).
    LayerNorm,
    /// Rotary position embedding applied to the innermost axis pairs.
    Rope,
    /// Reduction over the innermost axis.
    Reduce(ReduceKind),
    /// Embedding-table gather: `table [V, d], ids [.., s] -> [.., s, d]`.
    Embedding,
    /// Contiguous slice of `parts` equal pieces along the given axis,
    /// returning piece `index`.
    Slice {
        axis: usize,
        parts: usize,
        index: usize,
    },
    /// Concatenation of the inputs along `axis`.
    Concat { axis: usize },
    /// Appends this step's K or V rows into the cache tensor (decode).
    /// Output is the updated cache view.
    KvAppend,
    /// Tensor-parallel AllReduce across `participants` sockets; identity
    /// on data shape (each socket ends with the reduced tensor).
    AllReduce { participants: usize },
}

impl OpKind {
    /// The access pattern this operator imposes.
    pub fn access_pattern(&self) -> AccessPattern {
        match self {
            OpKind::Gemm { .. } | OpKind::SparseGemm { .. } => AccessPattern::Contraction,
            OpKind::Unary(_) | OpKind::Binary(_) | OpKind::Rope => AccessPattern::Streaming,
            OpKind::Softmax | OpKind::RmsNorm | OpKind::LayerNorm | OpKind::Reduce(_) => {
                AccessPattern::RowLocal
            }
            OpKind::Transpose { .. }
            | OpKind::Reshape { .. }
            | OpKind::Embedding
            | OpKind::Slice { .. }
            | OpKind::Concat { .. }
            | OpKind::KvAppend => AccessPattern::Reorder,
            OpKind::AllReduce { .. } => AccessPattern::Collective,
        }
    }

    /// Infers the output shape from input shapes.
    ///
    /// # Errors
    ///
    /// Returns a message when the inputs are malformed for this operator
    /// (wrong arity, mismatched contraction dimensions, bad axis) or its
    /// parameters are (a reshape to no or a zero dimension, a transpose by
    /// something other than a permutation of the input's axes).
    pub fn infer_shape<I: InputShapes + ?Sized>(&self, inputs: &I) -> Result<Shape, String> {
        let arity = |n: usize| {
            if inputs.count() != n {
                Err(format!(
                    "{self:?} expects {n} inputs, got {}",
                    inputs.count()
                ))
            } else {
                Ok(())
            }
        };
        match self {
            OpKind::Gemm { transpose_b } | OpKind::SparseGemm { transpose_b, .. } => {
                arity(2)?;
                let (a, b) = (inputs.shape(0), inputs.shape(1));
                let k = a.inner();
                // Rank-2 rhs: a shared weight/factor matrix. Rank-3 rhs: a
                // batched GEMM where the leading axes must match (attention
                // score and context contractions).
                let (bk, n) = match b.rank() {
                    2 => {
                        if *transpose_b {
                            (b.dims()[1], b.dims()[0])
                        } else {
                            (b.dims()[0], b.dims()[1])
                        }
                    }
                    3 => {
                        if a.rank() != 3 || a.dims()[0] != b.dims()[0] {
                            return Err(format!("batched gemm mismatch: {a} x {b}"));
                        }
                        if *transpose_b {
                            (b.dims()[2], b.dims()[1])
                        } else {
                            (b.dims()[1], b.dims()[2])
                        }
                    }
                    r => return Err(format!("gemm rhs must be rank-2 or 3, got rank-{r}")),
                };
                if k != bk {
                    return Err(format!("gemm contraction mismatch: {a} x {b}"));
                }
                let mut out = *a;
                *out.dims_mut().last_mut().expect("non-empty") = n;
                Ok(out)
            }
            OpKind::Unary(_) | OpKind::Rope => {
                arity(1)?;
                Ok(*inputs.shape(0))
            }
            OpKind::Binary(_) => {
                arity(2)?;
                let (a, b) = (inputs.shape(0), inputs.shape(1));
                if a == b || b.elements() == 1 || b.elements() as usize == a.inner() {
                    Ok(*a)
                } else {
                    Err(format!("binary shape mismatch: {a} vs {b}"))
                }
            }
            OpKind::Reshape { dims } => {
                arity(1)?;
                let source = inputs.shape(0);
                let Some(target) = Shape::from_dims(*dims) else {
                    return Err(format!(
                        "reshape {source} -> {dims:?}: empty or zero dimension"
                    ));
                };
                if target.elements() != source.elements() {
                    return Err(format!(
                        "reshape {source} -> {target} changes element count"
                    ));
                }
                Ok(target)
            }
            OpKind::Transpose { perm } => {
                arity(1)?;
                let source = inputs.shape(0);
                if perm.len() != source.rank() {
                    return Err(format!("perm {perm:?} does not match {source}"));
                }
                // `perm` has one entry per axis, so it is a permutation
                // exactly when every axis appears in it.
                if !(0..perm.len()).all(|axis| perm.contains(&axis)) {
                    return Err(format!("perm {perm:?} is not a permutation of {source}"));
                }
                Ok(source.permute(perm))
            }
            OpKind::Softmax | OpKind::RmsNorm | OpKind::LayerNorm => {
                // Norms may take optional scale/bias vectors as extra inputs.
                if inputs.count() == 0 {
                    return Err(format!("{self:?} needs at least one input"));
                }
                Ok(*inputs.shape(0))
            }
            OpKind::Reduce(_) => {
                arity(1)?;
                let d = inputs.shape(0).dims();
                if d.len() == 1 {
                    Ok(Shape::scalar())
                } else {
                    Ok(Shape::new(&d[..d.len() - 1]))
                }
            }
            OpKind::Embedding => {
                arity(2)?;
                let (table, ids) = (inputs.shape(0), inputs.shape(1));
                if table.rank() != 2 {
                    return Err(format!("embedding table must be rank-2, got {table}"));
                }
                ids.pushed(table.dims()[1]).ok_or_else(|| {
                    format!("embedding of ids {ids} exceeds the rank cap of {MAX_RANK}")
                })
            }
            OpKind::Slice { axis, parts, index } => {
                arity(1)?;
                let mut out = *inputs.shape(0);
                if *axis >= out.rank() || *index >= *parts {
                    return Err(format!("bad slice axis={axis} parts={parts} index={index}"));
                }
                if !out.dims()[*axis].is_multiple_of(*parts) {
                    return Err(format!("axis {axis} of {out} not divisible by {parts}"));
                }
                out.dims_mut()[*axis] /= parts;
                Ok(out)
            }
            OpKind::Concat { axis } => {
                if inputs.count() == 0 {
                    return Err("concat needs at least one input".to_string());
                }
                let mut out = *inputs.shape(0);
                if *axis >= out.rank() {
                    return Err(format!("bad concat axis {axis}"));
                }
                for s in (1..inputs.count()).map(|i| inputs.shape(i)) {
                    if s.rank() != out.rank() {
                        return Err("concat rank mismatch".to_string());
                    }
                    out.dims_mut()[*axis] += s.dims()[*axis];
                }
                Ok(out)
            }
            OpKind::KvAppend => {
                arity(2)?;
                // inputs: (cache, new rows); output has cache shape.
                Ok(*inputs.shape(0))
            }
            OpKind::AllReduce { participants } => {
                if *participants == 0 {
                    return Err("allreduce needs at least one participant".to_string());
                }
                arity(1)?;
                Ok(*inputs.shape(0))
            }
        }
    }

    /// FLOPs performed given input shapes, output shape, and the data type.
    pub fn flops<I: InputShapes + ?Sized>(
        &self,
        inputs: &I,
        output: &Shape,
        dtype: DType,
    ) -> Flops {
        let out_elems = output.elements() as f64;
        let f = match self {
            OpKind::Gemm { .. } => {
                let k = inputs.shape(0).inner() as f64;
                out_elems * k * dtype.flops_per_mac() as f64
            }
            OpKind::SparseGemm { density, .. } => {
                let k = inputs.shape(0).inner() as f64;
                out_elems * k * dtype.flops_per_mac() as f64 * density
            }
            OpKind::Unary(u) => out_elems * u.flops_per_element() as f64,
            OpKind::Binary(BinaryKind::Mul) => out_elems * dtype.flops_per_mul() as f64,
            OpKind::Binary(_) => out_elems,
            OpKind::Softmax => out_elems * 5.0,
            OpKind::RmsNorm => out_elems * 4.0,
            OpKind::LayerNorm => out_elems * 5.0,
            OpKind::Rope => out_elems * 6.0,
            OpKind::Reduce(_) => inputs.shape(0).elements() as f64,
            OpKind::Transpose { .. }
            | OpKind::Reshape { .. }
            | OpKind::Embedding
            | OpKind::Slice { .. }
            | OpKind::Concat { .. }
            | OpKind::KvAppend
            | OpKind::AllReduce { .. } => 0.0,
        };
        Flops::new(f)
    }

    /// Whether this op is a contraction that runs on PCU systolic arrays.
    pub fn is_gemm(&self) -> bool {
        matches!(self, OpKind::Gemm { .. } | OpKind::SparseGemm { .. })
    }

    /// Short mnemonic used in reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Gemm { .. } => "gemm",
            OpKind::SparseGemm { .. } => "spgemm",
            OpKind::Unary(UnaryKind::Silu) => "silu",
            OpKind::Unary(UnaryKind::Gelu) => "gelu",
            OpKind::Unary(UnaryKind::Exp) => "exp",
            OpKind::Unary(UnaryKind::Rsqrt) => "rsqrt",
            OpKind::Unary(UnaryKind::Cast) => "cast",
            OpKind::Unary(UnaryKind::Scale) => "scale",
            OpKind::Unary(UnaryKind::Neg) => "neg",
            OpKind::Binary(BinaryKind::Add) => "add",
            OpKind::Binary(BinaryKind::Sub) => "sub",
            OpKind::Binary(BinaryKind::Mul) => "mul",
            OpKind::Binary(BinaryKind::Div) => "div",
            OpKind::Binary(BinaryKind::Max) => "max",
            OpKind::Transpose { .. } => "transpose",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Softmax => "softmax",
            OpKind::RmsNorm => "rmsnorm",
            OpKind::LayerNorm => "layernorm",
            OpKind::Rope => "rope",
            OpKind::Reduce(_) => "reduce",
            OpKind::Embedding => "embedding",
            OpKind::Slice { .. } => "slice",
            OpKind::Concat { .. } => "concat",
            OpKind::KvAppend => "kvappend",
            OpKind::AllReduce { .. } => "allreduce",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A node in the dataflow graph: one operator application.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub name: String,
    pub op: OpKind,
    pub inputs: Vec<TensorId>,
    pub output: TensorId,
    /// Scheduling region (e.g. transformer layer index). The compiler's
    /// fusion pass never merges nodes from different regions: identical
    /// regions compile to one reusable kernel program, which is how a
    /// decoder model runs with "virtually zero kernel launch overheads"
    /// (§VI-B) despite one launch per layer.
    pub region: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }

    #[test]
    fn gemm_shape_inference() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[8, 128, 64]);
        let b = s(&[64, 256]);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), s(&[8, 128, 256]));
    }

    #[test]
    fn gemm_transpose_b() {
        let op = OpKind::Gemm { transpose_b: true };
        let a = s(&[128, 64]);
        let b = s(&[256, 64]);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), s(&[128, 256]));
    }

    #[test]
    fn gemm_mismatch_rejected() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[128, 64]);
        let b = s(&[65, 256]);
        assert!(op.infer_shape(&[&a, &b]).is_err());
    }

    #[test]
    fn gemm_flops_are_2mnk() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[128, 64]);
        let b = s(&[64, 256]);
        let out = op.infer_shape(&[&a, &b]).unwrap();
        let f = op.flops(&[&a, &b], &out, DType::Bf16);
        assert_eq!(f.as_f64(), 2.0 * 128.0 * 256.0 * 64.0);
    }

    #[test]
    fn complex_gemm_flops_are_8mnk() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[16, 32]);
        let b = s(&[32, 32]);
        let out = op.infer_shape(&[&a, &b]).unwrap();
        let f = op.flops(&[&a, &b], &out, DType::ComplexBf16);
        assert_eq!(f.as_f64(), 8.0 * 16.0 * 32.0 * 32.0);
    }

    #[test]
    fn sparse_gemm_scales_by_density() {
        let op = OpKind::SparseGemm {
            density: 0.125,
            transpose_b: false,
        };
        let a = s(&[64, 64]);
        let b = s(&[64, 64]);
        let out = op.infer_shape(&[&a, &b]).unwrap();
        let dense = OpKind::Gemm { transpose_b: false }.flops(&[&a, &b], &out, DType::Bf16);
        let sparse = op.flops(&[&a, &b], &out, DType::Bf16);
        assert!((sparse.as_f64() - dense.as_f64() * 0.125).abs() < 1.0);
    }

    #[test]
    fn slice_divides_axis() {
        let op = OpKind::Slice {
            axis: 1,
            parts: 4,
            index: 0,
        };
        assert_eq!(op.infer_shape(&[&s(&[2, 8, 3])]).unwrap(), s(&[2, 2, 3]));
        let bad = OpKind::Slice {
            axis: 1,
            parts: 3,
            index: 0,
        };
        assert!(bad.infer_shape(&[&s(&[2, 8, 3])]).is_err());
    }

    #[test]
    fn concat_accumulates_axis() {
        let op = OpKind::Concat { axis: 0 };
        let a = s(&[2, 4]);
        let b = s(&[3, 4]);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), s(&[5, 4]));
    }

    #[test]
    fn reduce_drops_inner_axis() {
        let op = OpKind::Reduce(ReduceKind::Sum);
        assert_eq!(op.infer_shape(&[&s(&[4, 8])]).unwrap(), s(&[4]));
        assert_eq!(op.infer_shape(&[&s(&[8])]).unwrap(), Shape::scalar());
    }

    #[test]
    fn embedding_appends_feature_dim() {
        let op = OpKind::Embedding;
        let table = s(&[32000, 4096]);
        let ids = s(&[2, 512]);
        assert_eq!(op.infer_shape(&[&table, &ids]).unwrap(), s(&[2, 512, 4096]));
    }

    #[test]
    fn transpose_is_reorder_and_zero_flops() {
        let op = OpKind::Transpose {
            perm: [1, 0].into(),
        };
        assert_eq!(op.access_pattern(), AccessPattern::Reorder);
        let a = s(&[4, 8]);
        let out = op.infer_shape(&[&a]).unwrap();
        assert_eq!(out, s(&[8, 4]));
        assert_eq!(op.flops(&[&a], &out, DType::Bf16).as_f64(), 0.0);
    }

    #[test]
    fn reshape_preserves_elements() {
        let op = OpKind::Reshape {
            dims: [4, 2, 8].into(),
        };
        assert_eq!(op.infer_shape(&[&s(&[8, 8])]).unwrap(), s(&[4, 2, 8]));
        let bad = OpKind::Reshape {
            dims: [4, 4].into(),
        };
        assert!(bad.infer_shape(&[&s(&[8, 8])]).is_err());
        assert_eq!(op.access_pattern(), AccessPattern::Reorder);
    }

    #[test]
    fn reshape_to_empty_or_zero_dims_is_an_error() {
        let x = s(&[16, 4]);
        for dims in [&[][..], &[16, 0], &[0]] {
            let op = OpKind::Reshape {
                dims: Dims::from_slice(dims).unwrap(),
            };
            assert!(op.infer_shape(&[&x]).is_err(), "{op:?}");
        }
    }

    #[test]
    fn transpose_by_a_non_permutation_is_an_error() {
        let x = s(&[4, 8]);
        for perm in [[0, 0], [1, 1], [0, 2]] {
            let op = OpKind::Transpose { perm: perm.into() };
            assert!(op.infer_shape(&[&x]).is_err(), "{op:?}");
        }
        let wrong_rank = OpKind::Transpose { perm: [0].into() };
        assert!(wrong_rank.infer_shape(&[&x]).is_err());
    }

    #[test]
    fn batched_gemm_requires_matching_groups() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[4, 16, 32]);
        let b = s(&[4, 32, 8]);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), s(&[4, 16, 8]));
        let mismatched = s(&[3, 32, 8]);
        assert!(op.infer_shape(&[&a, &mismatched]).is_err());
        let rank2_a = s(&[16, 32]);
        assert!(
            op.infer_shape(&[&rank2_a, &b]).is_err(),
            "rank-3 rhs needs rank-3 lhs"
        );
    }

    #[test]
    fn batched_gemm_flops_count_all_groups() {
        let op = OpKind::Gemm { transpose_b: false };
        let a = s(&[4, 16, 32]);
        let b = s(&[4, 32, 8]);
        let out = op.infer_shape(&[&a, &b]).unwrap();
        let f = op.flops(&[&a, &b], &out, DType::Bf16);
        assert_eq!(f.as_f64(), 2.0 * 4.0 * 16.0 * 8.0 * 32.0);
    }

    #[test]
    fn batched_gemm_transpose_b() {
        let op = OpKind::Gemm { transpose_b: true };
        let a = s(&[2, 8, 16]);
        let b = s(&[2, 4, 16]);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), s(&[2, 8, 4]));
    }

    #[test]
    fn allreduce_rejects_zero_participants() {
        let op = OpKind::AllReduce { participants: 0 };
        assert!(op.infer_shape(&[&s(&[4, 4])]).is_err());
    }

    #[test]
    fn access_patterns_classify() {
        assert_eq!(
            OpKind::Gemm { transpose_b: false }.access_pattern(),
            AccessPattern::Contraction
        );
        assert_eq!(OpKind::Softmax.access_pattern(), AccessPattern::RowLocal);
        assert_eq!(
            OpKind::Binary(BinaryKind::Add).access_pattern(),
            AccessPattern::Streaming
        );
        assert_eq!(
            OpKind::AllReduce { participants: 8 }.access_pattern(),
            AccessPattern::Collective
        );
    }
}
