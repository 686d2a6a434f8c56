//! Lowering transformer configs to dataflow graphs.
//!
//! Graphs are built **per socket** for a tensor-parallel degree `tp`:
//! query/KV projections and the first MLP matrices are column-parallel,
//! output projections are row-parallel followed by an AllReduce — the
//! standard Megatron mapping the paper uses for its TP8 deployments
//! (§VI-B). Every transformer layer is its own scheduling region, so the
//! fusion pass emits identical, reusable kernel programs per layer.
//!
//! Attention is modeled with explicit reshapes, per-head batched GEMMs,
//! softmax, and (for GQA) an explicit KV head expansion — the operator
//! mix whose reorders break conventional GPU fusion (§III-A).

use crate::config::{Activation, Norm, TransformerConfig};
use sn_dataflow::{
    BinaryKind, DType, Graph, GraphBuilder, GraphError, OpKind, ReduceKind, Shape, TensorId,
    TensorKind, UnaryKind,
};

/// Which phase of the workload to build (Table II's configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// First-token generation: process the whole prompt, build the KV
    /// cache.
    Prefill { prompt_tokens: usize },
    /// One autoregressive decoding step against a KV cache of
    /// `past_tokens`.
    Decode { past_tokens: usize },
    /// One training step (forward + backward) over sequences of `seq`.
    Train { seq: usize },
}

impl Phase {
    /// Tokens entering the decoder stack per sequence.
    pub fn tokens_per_seq(&self) -> usize {
        match *self {
            Phase::Prefill { prompt_tokens } => prompt_tokens,
            Phase::Decode { .. } => 1,
            Phase::Train { seq } => seq,
        }
    }

    /// Length of the attention context (keys visible to each query).
    pub fn context(&self) -> usize {
        match *self {
            Phase::Prefill { prompt_tokens } => prompt_tokens,
            Phase::Decode { past_tokens } => past_tokens + 1,
            Phase::Train { seq } => seq,
        }
    }

    /// Whether a backward pass is included.
    pub fn is_training(&self) -> bool {
        matches!(self, Phase::Train { .. })
    }
}

/// Builds the per-socket dataflow graph for a model/phase/batch/TP combo.
///
/// # Errors
///
/// [`GraphError::Shape`] when the phase moves no tokens or sees no
/// context (zero `batch`, a zero-token prompt or training sequence, a
/// zero sliding window); otherwise propagates [`GraphError`] (which
/// indicates a bug in the builder or an inconsistent config, e.g. `tp`
/// not dividing the head counts evenly).
///
/// # Panics
///
/// Panics if `tp` is zero or does not divide `heads`.
pub fn build(
    cfg: &TransformerConfig,
    phase: Phase,
    batch: usize,
    tp: usize,
) -> Result<Graph, GraphError> {
    let context = cfg
        .sliding_window
        .map_or(phase.context(), |w| phase.context().min(w));
    if batch * phase.tokens_per_seq() == 0 || context == 0 {
        return Err(GraphError::Shape(format!(
            "{}: {phase:?} at batch {batch} has no tokens to lower",
            cfg.name
        )));
    }
    assert!(tp >= 1, "tensor parallel degree must be at least 1");
    assert_eq!(
        cfg.heads % tp,
        0,
        "{}: tp {tp} must divide {} heads",
        cfg.name,
        cfg.heads
    );
    Builder::new(cfg, phase, batch, tp).build()
}

struct Builder<'a> {
    cfg: &'a TransformerConfig,
    phase: Phase,
    batch: usize,
    tp: usize,
    b: GraphBuilder,
}

impl<'a> Builder<'a> {
    fn new(cfg: &'a TransformerConfig, phase: Phase, batch: usize, tp: usize) -> Self {
        let phase_tag = match phase {
            Phase::Prefill { prompt_tokens } => format!("prefill{prompt_tokens}"),
            Phase::Decode { past_tokens } => format!("decode@{past_tokens}"),
            Phase::Train { seq } => format!("train{seq}"),
        };
        let b = GraphBuilder::new(format!("{}-{}-bs{}-tp{}", cfg.name, phase_tag, batch, tp));
        Builder {
            cfg,
            phase,
            batch,
            tp,
            b,
        }
    }

    /// Tokens flowing through the stack on this socket.
    fn tokens(&self) -> usize {
        self.batch * self.phase.tokens_per_seq()
    }

    /// Query heads per socket.
    fn heads_t(&self) -> usize {
        self.cfg.heads / self.tp
    }

    /// KV heads per socket (at least one; small-KV models replicate).
    fn kv_heads_t(&self) -> usize {
        (self.cfg.kv_heads() / self.tp).max(1)
    }

    fn head_dim(&self) -> usize {
        self.cfg.head_dim()
    }

    /// Attention context length, clipped by a sliding window if any.
    fn context(&self) -> usize {
        let ctx = self.phase.context();
        match self.cfg.sliding_window {
            Some(w) => ctx.min(w),
            None => ctx,
        }
    }

    fn weight(&mut self, name: &str, rows: usize, cols: usize) -> TensorId {
        self.b.tensor(
            name,
            Shape::mat(rows, cols),
            self.cfg.weight_dtype,
            TensorKind::Weight,
        )
    }

    fn gemm(&mut self, name: &str, x: TensorId, w: TensorId) -> Result<TensorId, GraphError> {
        let op = if self.cfg.weight_density < 1.0 {
            OpKind::SparseGemm {
                density: self.cfg.weight_density,
                transpose_b: false,
            }
        } else {
            OpKind::Gemm { transpose_b: false }
        };
        self.b.node(name, op, &[x, w])
    }

    fn norm(&mut self, name: &str, x: TensorId) -> Result<TensorId, GraphError> {
        let op = match self.cfg.norm {
            Norm::Rms => OpKind::RmsNorm,
            Norm::Layer => OpKind::LayerNorm,
        };
        self.b.node(name, op, &[x])
    }

    fn allreduce(&mut self, name: &str, x: TensorId) -> Result<TensorId, GraphError> {
        if self.tp > 1 {
            self.b.node(
                name,
                OpKind::AllReduce {
                    participants: self.tp,
                },
                &[x],
            )
        } else {
            Ok(x)
        }
    }

    /// Expands KV heads to query heads for grouped-query attention.
    fn expand_kv(&mut self, name: &str, kv: TensorId) -> Result<TensorId, GraphError> {
        let groups = self.heads_t() / self.kv_heads_t();
        if groups <= 1 {
            return Ok(kv);
        }
        let inputs = vec![kv; groups];
        self.b.node(name, OpKind::Concat { axis: 0 }, &inputs)
    }

    /// The attention block from the normed input; returns the un-reduced
    /// row-parallel output projection.
    fn attention(&mut self, layer: usize, normed: TensorId) -> Result<TensorId, GraphError> {
        let cfg = self.cfg;
        let h = cfg.hidden;
        let d = self.head_dim();
        let tokens = self.tokens();
        let q_out = self.heads_t() * d;
        let kv_out = self.kv_heads_t() * d;
        let bh = self.batch * self.heads_t();
        let s_q = self.phase.tokens_per_seq();
        let s_k = self.context();

        let wq = self.weight(&format!("L{layer}.wq"), h, q_out);
        let wk = self.weight(&format!("L{layer}.wk"), h, kv_out);
        let wv = self.weight(&format!("L{layer}.wv"), h, kv_out);
        let wo = self.weight(&format!("L{layer}.wo"), q_out, h);

        let mut q = self.gemm("q_proj", normed, wq)?;
        let mut k = self.gemm("k_proj", normed, wk)?;
        let v = self.gemm("v_proj", normed, wv)?;
        if cfg.rope {
            q = self.b.node("rope_q", OpKind::Rope, &[q])?;
            k = self.b.node("rope_k", OpKind::Rope, &[k])?;
        }

        // Per-head views.
        let q3 = self.b.node(
            "q_heads",
            OpKind::Reshape {
                dims: vec![bh, s_q, d],
            },
            &[q],
        )?;
        let (k_ctx, v_ctx) = match self.phase {
            Phase::Decode { .. } => {
                // Append this step's K/V into the caches and read the
                // visible window back.
                let bkv = self.batch * self.kv_heads_t();
                let k_cache = self.b.tensor(
                    format!("L{layer}.k_cache"),
                    Shape::new(vec![bkv, s_k, d]),
                    DType::Bf16,
                    TensorKind::KvCache,
                );
                let v_cache = self.b.tensor(
                    format!("L{layer}.v_cache"),
                    Shape::new(vec![bkv, s_k, d]),
                    DType::Bf16,
                    TensorKind::KvCache,
                );
                let k_new = self.b.node(
                    "k_rows",
                    OpKind::Reshape {
                        dims: vec![bkv, s_q, d],
                    },
                    &[k],
                )?;
                let v_new = self.b.node(
                    "v_rows",
                    OpKind::Reshape {
                        dims: vec![bkv, s_q, d],
                    },
                    &[v],
                )?;
                let k_all = self
                    .b
                    .node("k_append", OpKind::KvAppend, &[k_cache, k_new])?;
                let v_all = self
                    .b
                    .node("v_append", OpKind::KvAppend, &[v_cache, v_new])?;
                (k_all, v_all)
            }
            _ => {
                let bkv = self.batch * self.kv_heads_t();
                let k3 = self.b.node(
                    "k_heads",
                    OpKind::Reshape {
                        dims: vec![bkv, s_k, d],
                    },
                    &[k],
                )?;
                let v3 = self.b.node(
                    "v_heads",
                    OpKind::Reshape {
                        dims: vec![bkv, s_k, d],
                    },
                    &[v],
                )?;
                (k3, v3)
            }
        };
        let k_exp = self.expand_kv("k_expand", k_ctx)?;
        let v_exp = self.expand_kv("v_expand", v_ctx)?;
        let k_t = self.b.node(
            "k_t",
            OpKind::Transpose {
                perm: vec![0, 2, 1],
            },
            &[k_exp],
        )?;
        let scores = self
            .b
            .node("scores", OpKind::Gemm { transpose_b: false }, &[q3, k_t])?;
        let scaled = self
            .b
            .node("scale", OpKind::Unary(UnaryKind::Scale), &[scores])?;
        // Causal mask / ALiBi bias is generated on-chip (§IV-E pad
        // generation); decode steps attend to everything and skip it.
        let masked = if matches!(self.phase, Phase::Decode { .. }) {
            scaled
        } else {
            let mask = self.b.tensor(
                format!("L{layer}.mask"),
                Shape::new(vec![bh, s_q, s_k]),
                DType::Bf16,
                TensorKind::Generated,
            );
            self.b
                .node("mask", OpKind::Binary(BinaryKind::Add), &[scaled, mask])?
        };
        let probs = self.b.node("softmax", OpKind::Softmax, &[masked])?;
        let ctx = self.b.node(
            "context",
            OpKind::Gemm { transpose_b: false },
            &[probs, v_exp],
        )?;
        let merged = self.b.node(
            "merge_heads",
            OpKind::Reshape {
                dims: vec![tokens, q_out],
            },
            &[ctx],
        )?;
        self.gemm("o_proj", merged, wo)
    }

    /// The MLP block from the normed input; returns the un-reduced
    /// row-parallel down projection. For MoE models this is the gate plus
    /// `top_k` expert FFNs whose outputs are summed (§II: experts
    /// "implemented internally as MoEs").
    fn mlp(&mut self, layer: usize, normed: TensorId) -> Result<TensorId, GraphError> {
        if let Some(moe) = self.cfg.moe {
            return self.moe_mlp(layer, normed, moe);
        }
        self.dense_mlp(layer, normed, &format!("L{layer}"))
    }

    fn moe_mlp(
        &mut self,
        layer: usize,
        normed: TensorId,
        moe: crate::config::MoeConfig,
    ) -> Result<TensorId, GraphError> {
        let h = self.cfg.hidden;
        // Gate: score every expert, normalize.
        let wg = self.weight(&format!("L{layer}.moe_gate"), h, moe.experts);
        let scores = self.gemm("moe_gate", normed, wg)?;
        let _probs = self.b.node("moe_softmax", OpKind::Softmax, &[scores])?;
        // Statically model the top-k activated experts: each token runs
        // `top_k` FFNs; results are combined. (Weights for the remaining
        // experts exist in the binary — they count toward capacity — but
        // contribute no FLOPs; we declare one resident set per activated
        // slot and account the rest via the config's parameter count.)
        let mut acc: Option<TensorId> = None;
        for slot in 0..moe.top_k {
            let out = self.dense_mlp(layer, normed, &format!("L{layer}.e{slot}"))?;
            acc = Some(match acc {
                None => out,
                Some(prev) => {
                    self.b
                        .node("moe_combine", OpKind::Binary(BinaryKind::Add), &[prev, out])?
                }
            });
        }
        Ok(acc.expect("top_k >= 1"))
    }

    fn dense_mlp(
        &mut self,
        _layer: usize,
        normed: TensorId,
        prefix: &str,
    ) -> Result<TensorId, GraphError> {
        let h = self.cfg.hidden;
        let inter_t = (self.cfg.intermediate / self.tp).max(1);
        match self.cfg.activation {
            Activation::SwiGlu => {
                let wg = self.weight(&format!("{prefix}.w_gate"), h, inter_t);
                let wu = self.weight(&format!("{prefix}.w_up"), h, inter_t);
                let wd = self.weight(&format!("{prefix}.w_down"), inter_t, h);
                let gate = self.gemm("gate_proj", normed, wg)?;
                let act = self
                    .b
                    .node("silu", OpKind::Unary(UnaryKind::Silu), &[gate])?;
                let up = self.gemm("up_proj", normed, wu)?;
                let mixed = self
                    .b
                    .node("gate_mul", OpKind::Binary(BinaryKind::Mul), &[act, up])?;
                self.gemm("down_proj", mixed, wd)
            }
            Activation::Gelu => {
                let wu = self.weight(&format!("{prefix}.w_up"), h, inter_t);
                let wd = self.weight(&format!("{prefix}.w_down"), inter_t, h);
                let up = self.gemm("up_proj", normed, wu)?;
                let act = self.b.node("gelu", OpKind::Unary(UnaryKind::Gelu), &[up])?;
                self.gemm("down_proj", act, wd)
            }
        }
    }

    /// One decoder layer; returns the residual stream.
    fn layer(&mut self, layer: usize, x: TensorId) -> Result<TensorId, GraphError> {
        if self.cfg.parallel_blocks {
            // Falcon: one norm feeds attention and MLP in parallel.
            let normed = self.norm("input_norm", x)?;
            let attn = self.attention(layer, normed)?;
            let mlp = self.mlp(layer, normed)?;
            let summed = self
                .b
                .node("block_sum", OpKind::Binary(BinaryKind::Add), &[attn, mlp])?;
            let reduced = self.allreduce("block_allreduce", summed)?;
            self.b
                .node("residual", OpKind::Binary(BinaryKind::Add), &[x, reduced])
        } else {
            let normed = self.norm("input_norm", x)?;
            let attn = self.attention(layer, normed)?;
            let attn = self.allreduce("attn_allreduce", attn)?;
            let x = self
                .b
                .node("attn_residual", OpKind::Binary(BinaryKind::Add), &[x, attn])?;
            let normed2 = self.norm("post_attn_norm", x)?;
            let mlp = self.mlp(layer, normed2)?;
            let mlp = self.allreduce("mlp_allreduce", mlp)?;
            self.b
                .node("mlp_residual", OpKind::Binary(BinaryKind::Add), &[x, mlp])
        }
    }

    /// Appends an approximate backward pass for one layer: two GEMMs per
    /// forward weight GEMM (input and weight gradients) plus derivative
    /// elementwise work. Gradients flow from `d_out`; returns the gradient
    /// with respect to the layer input.
    fn layer_backward(
        &mut self,
        layer: usize,
        x: TensorId,
        d_out: TensorId,
    ) -> Result<TensorId, GraphError> {
        let h = self.cfg.hidden;
        let inter_t = (self.cfg.intermediate / self.tp).max(1);
        let q_out = self.heads_t() * self.head_dim();
        let tokens = self.tokens();
        let mut d = d_out;
        // dX through the MLP down/up/gate projections.
        let wd = self.weight(&format!("L{layer}.w_down.g"), inter_t, h);
        let d_mid = self
            .b
            .node("d_down", OpKind::Gemm { transpose_b: true }, &[d, wd])?;
        let x_t = self
            .b
            .node("x_t", OpKind::Transpose { perm: vec![1, 0] }, &[d_mid])?;
        let _dw_down = self
            .b
            .node("dw_down", OpKind::Gemm { transpose_b: false }, &[x_t, d])?;
        let d_act = self
            .b
            .node("d_silu", OpKind::Binary(BinaryKind::Mul), &[d_mid, d_mid])?;
        let wu = self.weight(&format!("L{layer}.w_up.g"), h, inter_t);
        let d_up = self
            .b
            .node("d_up", OpKind::Gemm { transpose_b: true }, &[d_act, wu])?;
        let up_t = self
            .b
            .node("up_t", OpKind::Transpose { perm: vec![1, 0] }, &[d_act])?;
        let _dw_up = self
            .b
            .node("dw_up", OpKind::Gemm { transpose_b: false }, &[up_t, d_act])?;
        if self.cfg.activation == Activation::SwiGlu {
            let wg = self.weight(&format!("L{layer}.w_gate.g"), h, inter_t);
            let d_gate = self
                .b
                .node("d_gate", OpKind::Gemm { transpose_b: true }, &[d_act, wg])?;
            d = self
                .b
                .node("d_mlp_in", OpKind::Binary(BinaryKind::Add), &[d_up, d_gate])?;
        } else {
            d = d_up;
        }
        // Norm backward: elementwise plus a row reduction.
        let d_norm = self
            .b
            .node("d_norm_mul", OpKind::Binary(BinaryKind::Mul), &[d, d])?;
        let _stats = self
            .b
            .node("d_norm_red", OpKind::Reduce(ReduceKind::Sum), &[d_norm])?;
        // Attention backward: gradients through O, context, scores, QKV.
        let wo = self.weight(&format!("L{layer}.wo.g"), q_out, h);
        let d_attn = self
            .b
            .node("d_o", OpKind::Gemm { transpose_b: true }, &[d, wo])?;
        let attn_t = self
            .b
            .node("attn_t", OpKind::Transpose { perm: vec![1, 0] }, &[d_attn])?;
        let _dw_o = self
            .b
            .node("dw_o", OpKind::Gemm { transpose_b: false }, &[attn_t, d])?;
        let d_soft = self.b.node(
            "d_softmax",
            OpKind::Binary(BinaryKind::Mul),
            &[d_attn, d_attn],
        )?;
        let wq = self.weight(&format!("L{layer}.wq.g"), h, q_out);
        let d_q = self
            .b
            .node("d_q", OpKind::Gemm { transpose_b: true }, &[d_soft, wq])?;
        let q_t = self
            .b
            .node("q_t", OpKind::Transpose { perm: vec![1, 0] }, &[d_soft])?;
        let _dw_q = self
            .b
            .node("dw_q", OpKind::Gemm { transpose_b: false }, &[q_t, d_soft])?;
        let d_in = self
            .b
            .node("d_layer_in", OpKind::Binary(BinaryKind::Add), &[d_q, x])?;
        let d_in = self.allreduce("bwd_allreduce", d_in)?;
        let _ = tokens;
        Ok(d_in)
    }

    fn build(mut self) -> Result<Graph, GraphError> {
        let cfg = self.cfg;
        let tokens = self.tokens();
        let h = cfg.hidden;
        let vocab_t = (cfg.vocab / self.tp).max(1);

        // Embedding (region 0): vocab-sharded gather plus AllReduce.
        self.b.set_region(0);
        let ids = self.b.tensor(
            "token_ids",
            Shape::new(vec![tokens]),
            DType::Int32,
            TensorKind::Input,
        );
        let table = self.b.tensor(
            "embed_table",
            Shape::mat(vocab_t, h),
            self.cfg.weight_dtype,
            TensorKind::Weight,
        );
        let emb = self.b.node("embed", OpKind::Embedding, &[table, ids])?;
        let emb = self.b.node(
            "embed_view",
            OpKind::Reshape {
                dims: vec![tokens, h],
            },
            &[emb],
        )?;
        let mut x = self.allreduce("embed_allreduce", emb)?;

        // Decoder layers (regions 1..=layers).
        for l in 0..cfg.layers {
            self.b.set_region(1 + l as u32);
            x = self.layer(l, x)?;
        }

        // LM head (last region): final norm, last-token slice for
        // inference, vocab-sharded logits.
        self.b.set_region(1 + cfg.layers as u32);
        let fin = self.norm("final_norm", x)?;
        let head_in = if self.phase.tokens_per_seq() > 1 && !self.phase.is_training() {
            self.b.node(
                "last_token",
                OpKind::Slice {
                    axis: 0,
                    parts: self.phase.tokens_per_seq(),
                    index: self.phase.tokens_per_seq() - 1,
                },
                &[fin],
            )?
        } else {
            fin
        };
        let w_head = self.b.tensor(
            "lm_head",
            Shape::mat(h, vocab_t),
            self.cfg.weight_dtype,
            TensorKind::Weight,
        );
        let logits = self.b.node_with_dtype(
            "logits",
            OpKind::Gemm { transpose_b: false },
            &[head_in, w_head],
            Some(DType::Fp32),
        )?;
        let mut out = logits;

        // Backward pass for training (reverse region order so layer
        // programs stay distinct per layer pair).
        if self.phase.is_training() {
            let d_logits = self.b.node_with_dtype(
                "d_logits",
                OpKind::Unary(UnaryKind::Scale),
                &[logits],
                Some(DType::Bf16),
            )?;
            let w_head_g = self.b.tensor(
                "lm_head.g",
                Shape::mat(h, vocab_t),
                DType::Bf16,
                TensorKind::Weight,
            );
            let mut d = self.b.node(
                "d_head",
                OpKind::Gemm { transpose_b: true },
                &[d_logits, w_head_g],
            )?;
            for l in (0..cfg.layers).rev() {
                self.b
                    .set_region(1 + cfg.layers as u32 + (cfg.layers - l) as u32);
                d = self.layer_backward(l, x, d)?;
            }
            out = d;
        }

        self.b.mark_output(out);
        self.b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::Flops;

    fn flops_of(cfg: &TransformerConfig, phase: Phase, batch: usize, tp: usize) -> Flops {
        build(cfg, phase, batch, tp).unwrap().total_flops()
    }

    #[test]
    fn prefill_flops_match_2nd_rule() {
        // Rule of thumb: prefill FLOPs ~ 2 * params * tokens (per socket:
        // divided by tp). Attention adds the seq^2 term on top.
        let cfg = TransformerConfig::llama2_7b();
        let tokens = 4096;
        let per_socket = flops_of(
            &cfg,
            Phase::Prefill {
                prompt_tokens: tokens,
            },
            1,
            8,
        );
        let expect = 2.0 * cfg.param_count() as f64 * tokens as f64 / 8.0;
        let ratio = per_socket.as_f64() / expect;
        assert!(ratio > 0.95 && ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn decode_flops_match_2n_rule() {
        let cfg = TransformerConfig::llama2_7b();
        let per_socket = flops_of(&cfg, Phase::Decode { past_tokens: 4096 }, 1, 8);
        let expect = 2.0 * cfg.param_count() as f64 / 8.0;
        let ratio = per_socket.as_f64() / expect;
        assert!(ratio > 0.9 && ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn train_is_about_3x_prefill() {
        let cfg = TransformerConfig::llama2_7b();
        let fwd = flops_of(
            &cfg,
            Phase::Prefill {
                prompt_tokens: 2048,
            },
            1,
            8,
        );
        let train = flops_of(&cfg, Phase::Train { seq: 2048 }, 1, 8);
        let ratio = train.as_f64() / fwd.as_f64();
        assert!(ratio > 2.0 && ratio < 4.0, "train/prefill ratio {ratio}");
    }

    #[test]
    fn tp_divides_work() {
        let cfg = TransformerConfig::llama2_7b();
        let tp1 = flops_of(
            &cfg,
            Phase::Prefill {
                prompt_tokens: 1024,
            },
            1,
            1,
        );
        let tp8 = flops_of(
            &cfg,
            Phase::Prefill {
                prompt_tokens: 1024,
            },
            1,
            8,
        );
        let ratio = tp1.as_f64() / tp8.as_f64();
        assert!(ratio > 6.0 && ratio < 9.0, "tp split ratio {ratio}");
    }

    #[test]
    fn batch_scales_tokens() {
        let cfg = TransformerConfig::llama2_7b();
        let b1 = flops_of(&cfg, Phase::Decode { past_tokens: 1024 }, 1, 8);
        let b8 = flops_of(&cfg, Phase::Decode { past_tokens: 1024 }, 8, 8);
        let ratio = b8.as_f64() / b1.as_f64();
        assert!(ratio > 6.0 && ratio < 9.0, "batch ratio {ratio}");
    }

    #[test]
    fn sliding_window_caps_decode_context() {
        let mistral = TransformerConfig::mistral_7b();
        let short = build(&mistral, Phase::Decode { past_tokens: 2048 }, 1, 8).unwrap();
        let long = build(&mistral, Phase::Decode { past_tokens: 65536 }, 1, 8).unwrap();
        // Past the window, decode FLOPs stop growing.
        let ratio = long.total_flops().as_f64() / short.total_flops().as_f64();
        assert!(ratio < 1.5, "window should cap context, ratio {ratio}");
    }

    #[test]
    fn decode_reads_kv_cache() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 4096 }, 1, 8).unwrap();
        assert!(
            g.kv_cache_bytes().as_u64() > 0,
            "decode graph must carry KV tensors"
        );
    }

    #[test]
    fn per_socket_weights_are_a_tp_share() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 128 }, 1, 8).unwrap();
        let shard = g.weight_bytes().as_f64();
        let full = cfg.param_bytes().as_f64();
        let ratio = full / shard;
        assert!(ratio > 5.0 && ratio < 10.0, "weight shard ratio {ratio}");
    }

    #[test]
    fn layer_regions_produce_reusable_structure() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 512 }, 1, 8).unwrap();
        let regions: std::collections::HashSet<u32> = g.nodes().iter().map(|n| n.region).collect();
        // Embedding + 32 layers + head.
        assert_eq!(regions.len(), 34);
    }

    #[test]
    fn falcon_parallel_blocks_have_one_allreduce_per_layer() {
        let falcon = TransformerConfig::falcon_40b();
        let g = build(&falcon, Phase::Decode { past_tokens: 1024 }, 1, 8).unwrap();
        let allreduces = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::AllReduce { .. }))
            .count();
        // One per layer plus the embedding reduce.
        assert_eq!(allreduces, falcon.layers + 1);
    }

    #[test]
    fn llama_has_two_allreduce_per_layer() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 1024 }, 1, 8).unwrap();
        let allreduces = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::AllReduce { .. }))
            .count();
        assert_eq!(allreduces, 2 * cfg.layers + 1);
    }

    #[test]
    fn tp1_has_no_allreduce() {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 64 }, 1, 1).unwrap();
        assert!(!g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, OpKind::AllReduce { .. })));
    }

    #[test]
    fn sparse_model_uses_sparse_gemms() {
        let cfg = TransformerConfig::sparsegpt_13b();
        let g = build(&cfg, Phase::Train { seq: 2048 }, 1, 8).unwrap();
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, OpKind::SparseGemm { .. })));
        // Sparse training is much cheaper than dense would be.
        let mut dense = cfg.clone();
        dense.weight_density = 1.0;
        let gd = build(&dense, Phase::Train { seq: 2048 }, 1, 8).unwrap();
        assert!(g.total_flops() < gd.total_flops());
    }

    #[test]
    fn zero_token_phases_are_errors_not_panics() {
        let cfg = TransformerConfig::llama2_7b();
        for (phase, batch) in [
            (Phase::Prefill { prompt_tokens: 0 }, 1),
            (Phase::Train { seq: 0 }, 1),
            (Phase::Decode { past_tokens: 64 }, 0),
        ] {
            assert!(
                matches!(build(&cfg, phase, batch, 8), Err(GraphError::Shape(_))),
                "{phase:?} at batch {batch}"
            );
        }
        let mut windowless = cfg.clone();
        windowless.sliding_window = Some(0);
        assert!(build(&windowless, Phase::Prefill { prompt_tokens: 8 }, 1, 8).is_err());
        // A decode step against an empty KV cache still attends to its own
        // token: a one-key context, not a zero dimension.
        let g = build(&cfg, Phase::Decode { past_tokens: 0 }, 1, 8).unwrap();
        assert!(g.total_flops().as_f64() > 0.0);
    }
}

#[cfg(test)]
mod moe_tests {
    use super::*;

    #[test]
    fn mixtral_runs_top2_experts_per_layer() {
        let moe = TransformerConfig::mixtral_8x7b();
        let dense = TransformerConfig::mistral_7b();
        let gm = build(&moe, Phase::Decode { past_tokens: 1024 }, 1, 8).unwrap();
        let gd = build(&dense, Phase::Decode { past_tokens: 1024 }, 1, 8).unwrap();
        // Top-2 roughly doubles MLP FLOPs but attention is unchanged, so
        // the total sits well under 2x dense.
        let ratio = gm.total_flops().as_f64() / gd.total_flops().as_f64();
        assert!(ratio > 1.3 && ratio < 2.2, "MoE flops ratio {ratio:.2}");
        // Gate softmax appears once per layer.
        let gates = gm
            .nodes()
            .iter()
            .filter(|n| n.name.starts_with("moe_softmax"))
            .count();
        assert_eq!(gates, moe.layers);
    }

    #[test]
    fn int8_weights_halve_graph_weight_bytes() {
        let bf16 = TransformerConfig::llama2_7b();
        let int8 = TransformerConfig::llama2_7b().quantized_int8();
        let gb = build(&bf16, Phase::Decode { past_tokens: 512 }, 1, 8).unwrap();
        let gi = build(&int8, Phase::Decode { past_tokens: 512 }, 1, 8).unwrap();
        let ratio = gb.weight_bytes().as_f64() / gi.weight_bytes().as_f64();
        assert!((ratio - 2.0).abs() < 0.05, "weight byte ratio {ratio:.2}");
        // Same math, same FLOPs.
        let fr = gb.total_flops().as_f64() / gi.total_flops().as_f64();
        assert!((fr - 1.0).abs() < 1e-9);
    }
}
