//! Transformer model descriptions for the Table II benchmarks.
//!
//! Dimensions follow the published model cards; parameter counts are
//! validated against the advertised sizes in tests.

use sn_arch::Bytes;
use sn_dataflow::DType;

/// Normalization flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Norm {
    /// RMSNorm (Llama/Mistral family).
    Rms,
    /// LayerNorm (Bloom/Falcon family).
    Layer,
}

/// MLP activation flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Gated SiLU (SwiGLU): three MLP matrices.
    SwiGlu,
    /// Plain GELU: two MLP matrices.
    Gelu,
}

/// Attention layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attention {
    /// Full multi-head attention (as many KV heads as query heads).
    MultiHead,
    /// Grouped-query attention with this many KV heads.
    Grouped { kv_heads: usize },
}

/// Mixture-of-Experts MLP configuration (§II: "a CoE can leverage expert
/// models that are implemented internally as MoEs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Experts per MLP layer.
    pub experts: usize,
    /// Experts activated per token.
    pub top_k: usize,
}

/// A decoder-only transformer description.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    pub name: String,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub intermediate: usize,
    pub vocab: usize,
    pub norm: Norm,
    pub activation: Activation,
    pub attention: Attention,
    /// Rotary position embeddings (Llama family); Bloom uses ALiBi, which
    /// adds a bias instead of a rotation.
    pub rope: bool,
    /// Sliding-window attention span (Mistral); decode reads at most this
    /// many cached positions.
    pub sliding_window: Option<usize>,
    /// Attention and MLP run in parallel from one norm (Falcon).
    pub parallel_blocks: bool,
    /// Weight density for sparse training (sparseGPT is 87.5% sparse, so
    /// density 0.125); `1.0` means dense.
    pub weight_density: f64,
    /// Storage type of the weights (BF16 by default; INT8 for quantized
    /// experts, which doubles CoE capacity per byte of DDR).
    pub weight_dtype: DType,
    /// Mixture-of-Experts MLP, if this model is an MoE internally.
    pub moe: Option<MoeConfig>,
}

impl TransformerConfig {
    /// Llama2-7B: the expert and router architecture of Samba-CoE (§II).
    pub fn llama2_7b() -> Self {
        TransformerConfig {
            name: "llama2-7b".to_string(),
            hidden: 4096,
            layers: 32,
            heads: 32,
            intermediate: 11008,
            vocab: 32000,
            norm: Norm::Rms,
            activation: Activation::SwiGlu,
            attention: Attention::MultiHead,
            rope: true,
            sliding_window: None,
            parallel_blocks: false,
            weight_density: 1.0,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// Llama2-70B (GQA with 8 KV heads).
    pub fn llama2_70b() -> Self {
        TransformerConfig {
            name: "llama2-70b".to_string(),
            hidden: 8192,
            layers: 80,
            heads: 64,
            intermediate: 28672,
            vocab: 32000,
            norm: Norm::Rms,
            activation: Activation::SwiGlu,
            attention: Attention::Grouped { kv_heads: 8 },
            rope: true,
            sliding_window: None,
            parallel_blocks: false,
            weight_density: 1.0,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// Mistral-7B (GQA, sliding-window attention of 4096).
    pub fn mistral_7b() -> Self {
        TransformerConfig {
            name: "mistral-7b".to_string(),
            hidden: 4096,
            layers: 32,
            heads: 32,
            intermediate: 14336,
            vocab: 32000,
            norm: Norm::Rms,
            activation: Activation::SwiGlu,
            attention: Attention::Grouped { kv_heads: 8 },
            rope: true,
            sliding_window: Some(4096),
            parallel_blocks: false,
            weight_density: 1.0,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// Falcon-40B (GQA, parallel attention/MLP blocks, GELU, LayerNorm).
    pub fn falcon_40b() -> Self {
        TransformerConfig {
            name: "falcon-40b".to_string(),
            hidden: 8192,
            layers: 60,
            heads: 128,
            intermediate: 32768,
            vocab: 65024,
            norm: Norm::Layer,
            activation: Activation::Gelu,
            attention: Attention::Grouped { kv_heads: 8 },
            rope: true,
            sliding_window: None,
            parallel_blocks: true,
            weight_density: 1.0,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// Bloom-176B (ALiBi positions, LayerNorm, GELU).
    pub fn bloom_176b() -> Self {
        TransformerConfig {
            name: "bloom-176b".to_string(),
            hidden: 14336,
            layers: 70,
            heads: 112,
            intermediate: 57344,
            vocab: 250880,
            norm: Norm::Layer,
            activation: Activation::Gelu,
            attention: Attention::MultiHead,
            rope: false,
            sliding_window: None,
            parallel_blocks: false,
            weight_density: 1.0,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// LLaVA-1.5-7B's language model (Llama2-7B backbone; the multimodal
    /// benchmark prepends 576 vision tokens to the prompt).
    pub fn llava15_7b() -> Self {
        let mut cfg = Self::llama2_7b();
        cfg.name = "llava1.5-7b".to_string();
        cfg
    }

    /// The sparseGPT 13B training benchmark: Llama-13B dimensions with
    /// 87.5% unstructured weight sparsity (Table II).
    pub fn sparsegpt_13b() -> Self {
        TransformerConfig {
            name: "sparsegpt-13b".to_string(),
            hidden: 5120,
            layers: 40,
            heads: 40,
            intermediate: 13824,
            vocab: 32000,
            norm: Norm::Rms,
            activation: Activation::SwiGlu,
            attention: Attention::MultiHead,
            rope: true,
            sliding_window: None,
            parallel_blocks: false,
            weight_density: 0.125,
            weight_dtype: DType::Bf16,
            moe: None,
        }
    }

    /// A Mixtral-8x7B-style MoE (8 experts, top-2) on the Mistral-7B
    /// backbone — the "expert models implemented internally as MoEs" case.
    pub fn mixtral_8x7b() -> Self {
        let mut cfg = Self::mistral_7b();
        cfg.name = "mixtral-8x7b".to_string();
        cfg.moe = Some(MoeConfig {
            experts: 8,
            top_k: 2,
        });
        cfg
    }

    /// Returns this config with INT8-quantized weights.
    pub fn quantized_int8(mut self) -> Self {
        self.name = format!("{}-int8", self.name);
        self.weight_dtype = DType::Int8;
        self
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// KV heads (equals query heads for MHA).
    pub fn kv_heads(&self) -> usize {
        match self.attention {
            Attention::MultiHead => self.heads,
            Attention::Grouped { kv_heads } => kv_heads,
        }
    }

    /// Total parameter count (embeddings + layers + head).
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let kv = (self.kv_heads() * self.head_dim()) as u64;
        let attn = h * h + 2 * h * kv + h * h; // Wq, Wk, Wv, Wo
        let mlp_one = match self.activation {
            Activation::SwiGlu => 3 * h * self.intermediate as u64,
            Activation::Gelu => 2 * h * self.intermediate as u64,
        };
        let mlp = match self.moe {
            Some(m) => mlp_one * m.experts as u64 + h * m.experts as u64, // + gate
            None => mlp_one,
        };
        let norms = 2 * h;
        let per_layer = attn + mlp + norms;
        let embed = self.vocab as u64 * h;
        // Tied or untied head: count one embedding plus one LM head.
        per_layer * self.layers as u64 + 2 * embed + h
    }

    /// Parameter bytes in the configured weight storage type.
    pub fn param_bytes(&self) -> Bytes {
        Bytes::new(self.param_count() * self.weight_dtype.size_bytes())
    }

    /// KV-cache bytes for one sequence of `tokens`, across all layers
    /// (both K and V), in BF16.
    pub fn kv_cache_bytes(&self, tokens: usize) -> Bytes {
        let per_layer = 2 * tokens as u64 * (self.kv_heads() * self.head_dim()) as u64 * 2;
        Bytes::new(per_layer * self.layers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_model_cards() {
        let checks = [
            (TransformerConfig::llama2_7b(), 6.7e9, 0.4e9),
            (TransformerConfig::llama2_70b(), 69.0e9, 3.0e9),
            (TransformerConfig::mistral_7b(), 7.2e9, 0.5e9),
            (TransformerConfig::falcon_40b(), 41.0e9, 4.0e9),
            (TransformerConfig::bloom_176b(), 176.0e9, 9.0e9),
            (TransformerConfig::sparsegpt_13b(), 13.0e9, 1.0e9),
        ];
        for (cfg, expect, tol) in checks {
            let got = cfg.param_count() as f64;
            assert!(
                (got - expect).abs() < tol,
                "{}: {:.2}B params, expected ~{:.0}B",
                cfg.name,
                got / 1e9,
                expect / 1e9
            );
        }
    }

    #[test]
    fn expert_weights_are_about_13_5_gb() {
        // The Figure 1 / §VI-B arithmetic: a Llama2-7B expert is ~13.5 GB
        // of BF16 weights.
        let bytes = TransformerConfig::llama2_7b().param_bytes();
        assert!((bytes.as_gb() - 13.5).abs() < 1.0, "got {bytes}");
    }

    #[test]
    fn gqa_reduces_kv_cache() {
        let mha = TransformerConfig::llama2_7b().kv_cache_bytes(4096);
        let gqa = TransformerConfig::mistral_7b().kv_cache_bytes(4096);
        assert!(gqa.as_u64() * 3 < mha.as_u64());
    }

    #[test]
    fn head_dim_is_128_for_llama() {
        assert_eq!(TransformerConfig::llama2_7b().head_dim(), 128);
        assert_eq!(TransformerConfig::llama2_70b().head_dim(), 128);
    }

    #[test]
    fn mixtral_has_8x_mlp_parameters_but_top2_compute() {
        let dense = TransformerConfig::mistral_7b();
        let moe = TransformerConfig::mixtral_8x7b();
        let ratio = moe.param_count() as f64 / dense.param_count() as f64;
        // Mixtral is ~46.7B vs 7.2B: most parameters are MLP experts.
        assert!(ratio > 5.0 && ratio < 8.0, "param ratio {ratio:.1}");
    }

    #[test]
    fn int8_quantization_halves_expert_bytes() {
        let bf16 = TransformerConfig::llama2_7b();
        let int8 = TransformerConfig::llama2_7b().quantized_int8();
        assert_eq!(int8.param_count(), bf16.param_count());
        assert_eq!(int8.param_bytes().as_u64() * 2, bf16.param_bytes().as_u64());
    }

    #[test]
    fn sparsegpt_is_87_5_percent_sparse() {
        assert!((TransformerConfig::sparsegpt_13b().weight_density - 0.125).abs() < 1e-12);
    }
}
