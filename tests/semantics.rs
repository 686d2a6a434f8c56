//! Semantic integration: the model builders produce graphs that *compute*
//! (run through the numeric interpreter), not just graphs that count FLOPs.

use samba_coe::dataflow::interp::Interpreter;
use samba_coe::dataflow::{DType, Shape, TensorKind};
use samba_coe::models::{build, Attention, Phase, TransformerConfig};
use std::collections::HashMap;

/// A pocket-sized llama-style config the interpreter can execute quickly.
fn tiny_config() -> TransformerConfig {
    let mut cfg = TransformerConfig::llama2_7b();
    cfg.name = "tiny-llama".to_string();
    cfg.hidden = 64;
    cfg.layers = 2;
    cfg.heads = 4;
    cfg.intermediate = 128;
    cfg.vocab = 256;
    cfg.attention = Attention::MultiHead;
    cfg
}

#[test]
fn tiny_prefill_produces_finite_logits() {
    let cfg = tiny_config();
    let g = build(&cfg, Phase::Prefill { prompt_tokens: 8 }, 1, 2).unwrap();
    let out = Interpreter::new(7)
        .run_outputs(&g, &HashMap::new())
        .unwrap();
    assert_eq!(out.len(), 1);
    let logits = &out[0];
    // Last-token slice x vocab shard.
    assert_eq!(logits.shape, Shape::mat(1, cfg.vocab / 2));
    assert!(logits.values.iter().all(|v| v.is_finite()));
    assert!(logits.values.iter().any(|&v| v != 0.0));
}

#[test]
fn tiny_decode_executes_against_kv_cache() {
    let cfg = tiny_config();
    let g = build(&cfg, Phase::Decode { past_tokens: 16 }, 1, 2).unwrap();
    let out = Interpreter::new(9)
        .run_outputs(&g, &HashMap::new())
        .unwrap();
    assert!(out[0].values.iter().all(|v| v.is_finite()));
}

#[test]
fn different_token_ids_change_the_logits() {
    let cfg = tiny_config();
    let g = build(&cfg, Phase::Prefill { prompt_tokens: 8 }, 1, 2).unwrap();
    let ids = g.tensor_by_name("token_ids").expect("ids input exists");
    let run_with = |values: Vec<f32>| {
        let mut inputs = HashMap::new();
        inputs.insert(
            ids,
            samba_coe::dataflow::interp::TensorData {
                shape: Shape::new([8]),
                dtype: DType::Int32,
                values,
            },
        );
        Interpreter::new(7).run_outputs(&g, &inputs).unwrap()[0]
            .values
            .clone()
    };
    let a = run_with(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let b = run_with(vec![9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 8.0]);
    // Same final token, different context: attention must mix history in.
    assert_ne!(a, b, "prompt history should influence the logits");
}

#[test]
fn weights_drive_the_computation() {
    let cfg = tiny_config();
    let g = build(&cfg, Phase::Prefill { prompt_tokens: 4 }, 1, 1).unwrap();
    let a = Interpreter::new(1)
        .run_outputs(&g, &HashMap::new())
        .unwrap();
    let b = Interpreter::new(2)
        .run_outputs(&g, &HashMap::new())
        .unwrap();
    assert_ne!(a, b, "different synthesized weights give different outputs");
}

#[test]
fn every_weight_tensor_is_read_only_eligible() {
    // The §V-B copy-back elision rests on weights being read-only: the
    // builders must never mark a weight tensor any other way.
    let cfg = tiny_config();
    for phase in [
        Phase::Prefill { prompt_tokens: 8 },
        Phase::Decode { past_tokens: 8 },
    ] {
        let g = build(&cfg, phase, 1, 2).unwrap();
        for t in g.tensors().iter().filter(|t| t.kind == TensorKind::Weight) {
            assert!(t.kind.is_read_only(), "{} must be read-only", t.name);
        }
    }
}
