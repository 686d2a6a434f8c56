//! Vision encoder for the LLaVA multimodal benchmark (Table II).
//!
//! LLaVA-1.5 feeds a CLIP ViT-L/14 image encoding (576 patch tokens after
//! the projector) into the Llama decoder. The encoder is an
//! encoder-style transformer: bidirectional attention (no KV cache, no
//! causal mask), LayerNorm, GELU, learned positions (no RoPE).

use crate::config::{Activation, Attention, Norm, TransformerConfig};
use crate::llm::{build, Phase};
use sn_dataflow::{Graph, GraphError};

/// Vision-encoder description.
#[derive(Debug, Clone, PartialEq)]
pub struct VitConfig {
    /// The transformer body (as a decoder-config reused in encoder mode).
    pub body: TransformerConfig,
    /// Patch tokens per image (24 x 24 for ViT-L/14 at 336 px).
    pub patches: usize,
    /// Output tokens after the multimodal projector.
    pub projected_tokens: usize,
}

impl VitConfig {
    /// CLIP ViT-L/14-336: 24 layers, hidden 1024, 16 heads, MLP 4096.
    pub fn clip_vit_l14() -> Self {
        VitConfig {
            body: TransformerConfig {
                name: "clip-vit-l14".to_string(),
                hidden: 1024,
                layers: 24,
                heads: 16,
                intermediate: 4096,
                vocab: 1024, // patch-embedding table stand-in
                norm: Norm::Layer,
                activation: Activation::Gelu,
                attention: Attention::MultiHead,
                rope: false,
                sliding_window: None,
                parallel_blocks: false,
                weight_density: 1.0,
                weight_dtype: sn_dataflow::DType::Bf16,
                moe: None,
            },
            patches: 576,
            projected_tokens: 576,
        }
    }

    /// Encoder parameter count.
    pub fn param_count(&self) -> u64 {
        self.body.param_count()
    }
}

/// Builds the encoder graph for `images` images on a `tp`-way shard.
/// Encoders process all patches "prefill-style" (full bidirectional
/// attention over the patch sequence).
///
/// # Errors
///
/// Propagates [`GraphError`] from the underlying builder.
pub fn build_vit(cfg: &VitConfig, images: usize, tp: usize) -> Result<Graph, GraphError> {
    build(
        &cfg.body,
        Phase::Prefill {
            prompt_tokens: cfg.patches,
        },
        images,
        tp,
    )
}

/// The two-stage LLaVA pipeline: vision encoder plus language decoder
/// prefill over `prompt_tokens + projected_tokens`.
///
/// # Errors
///
/// Propagates [`GraphError`] from the underlying builders.
pub fn llava_pipeline(
    prompt_tokens: usize,
    images: usize,
    tp: usize,
) -> Result<(Graph, Graph), GraphError> {
    let vit = VitConfig::clip_vit_l14();
    let encoder = build_vit(&vit, images, tp)?;
    let llm = TransformerConfig::llava15_7b();
    let decoder = build(
        &llm,
        Phase::Prefill {
            prompt_tokens: prompt_tokens + vit.projected_tokens * images,
        },
        1,
        tp,
    )?;
    Ok((encoder, decoder))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_vit_is_about_300m_params() {
        let v = VitConfig::clip_vit_l14();
        let p = v.param_count() as f64;
        assert!(p > 0.25e9 && p < 0.45e9, "ViT-L ~0.3B, got {:.2}B", p / 1e9);
    }

    #[test]
    fn encoder_flops_are_a_small_fraction_of_the_decoder() {
        // The DESIGN.md substitution (vision tokens folded into the
        // prompt) is justified because the encoder is a rounding error
        // next to the 7B decoder prefill.
        let (encoder, decoder) = llava_pipeline(4096, 1, 8).unwrap();
        let ratio = encoder.total_flops().as_f64() / decoder.total_flops().as_f64();
        assert!(ratio < 0.10, "encoder share {:.3}", ratio);
    }

    #[test]
    fn multiple_images_scale_encoder_work() {
        let one = build_vit(&VitConfig::clip_vit_l14(), 1, 8).unwrap();
        let four = build_vit(&VitConfig::clip_vit_l14(), 4, 8).unwrap();
        let ratio = four.total_flops().as_f64() / one.total_flops().as_f64();
        assert!(ratio > 3.5 && ratio < 4.5, "batch scaling {ratio:.2}");
    }

    #[test]
    fn encoder_uses_no_rope_or_kv_cache() {
        let g = build_vit(&VitConfig::clip_vit_l14(), 1, 8).unwrap();
        assert!(!g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, sn_dataflow::OpKind::Rope)));
        assert_eq!(g.kv_cache_bytes().as_u64(), 0);
    }
}
