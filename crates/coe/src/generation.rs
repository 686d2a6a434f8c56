//! KV-growth-aware generation latency.
//!
//! A decode step's cost grows with the KV cache it reads; over a long
//! generation the total is quadratic-ish in tokens. The comparison model
//! (Figure 12 / Table III) uses a fixed representative KV length, matching
//! the paper's 20/200-token cases; this module fits the full linear
//! step-cost model `step(kv) = base + slope * kv` from two compiled
//! operating points, for latency planning over arbitrary generation
//! lengths.

use sn_arch::{Calibration, NodeSpec, Orchestration, TimeSecs};
use sn_baseline::{GpuExecutor, LaunchMode};
use sn_compiler::{Compiler, FusionPolicy};
use sn_models::{build, Phase, TransformerConfig};
use sn_runtime::executor::NodeExecutor;

/// Linear decode-step cost model plus a prefill cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationModel {
    /// Prefill time per prompt token (amortized).
    pub prefill_per_token: TimeSecs,
    /// Decode step cost at zero KV.
    pub base: TimeSecs,
    /// Added decode cost per cached token.
    pub slope_per_kv_token: TimeSecs,
}

impl GenerationModel {
    /// Fits the model from two `(kv_len, step_time)` samples and one
    /// prefill measurement.
    ///
    /// # Panics
    ///
    /// Panics if the sample KV lengths coincide.
    pub fn fit(
        prefill_tokens: usize,
        prefill_time: TimeSecs,
        samples: [(usize, TimeSecs); 2],
    ) -> Self {
        let [(k0, t0), (k1, t1)] = samples;
        assert_ne!(k0, k1, "need two distinct KV lengths");
        let slope = (t1.as_secs() - t0.as_secs()) / (k1 as f64 - k0 as f64);
        let base = t0.as_secs() - slope * k0 as f64;
        GenerationModel {
            prefill_per_token: prefill_time / prefill_tokens as f64,
            base: TimeSecs::from_secs(base.max(0.0)),
            slope_per_kv_token: TimeSecs::from_secs(slope.max(0.0)),
        }
    }

    /// Fits the SN40L node model by compiling and costing the real graphs.
    pub fn sn40l(cfg: &TransformerConfig, tp: usize) -> Self {
        let calib = Calibration::baseline();
        let node = NodeSpec::sn40l_node();
        let compiler = Compiler::new(node.socket.clone(), calib.clone());
        let exec = NodeExecutor::new(node, calib);
        let cost = |phase| {
            let g = build(cfg, phase, 1, tp).expect("graph builds");
            let exe = compiler
                .compile(&g, FusionPolicy::Spatial)
                .expect("compiles");
            exec.run(&exe, Orchestration::Hardware).total
        };
        let prefill_tokens = 1024;
        GenerationModel::fit(
            prefill_tokens,
            cost(Phase::Prefill {
                prompt_tokens: prefill_tokens,
            }),
            [
                (1024, cost(Phase::Decode { past_tokens: 1024 })),
                (8192, cost(Phase::Decode { past_tokens: 8192 })),
            ],
        )
    }

    /// Fits a DGX model through the roofline executor.
    pub fn dgx(dgx: &sn_arch::DgxSpec, cfg: &TransformerConfig, tp: usize) -> Self {
        let exec = GpuExecutor::new(dgx.clone(), Calibration::baseline());
        let cost = |phase| {
            let g = build(cfg, phase, 1, tp).expect("graph builds");
            exec.run(&g, LaunchMode::CudaGraph).total
        };
        let prefill_tokens = 1024;
        GenerationModel::fit(
            prefill_tokens,
            cost(Phase::Prefill {
                prompt_tokens: prefill_tokens,
            }),
            [
                (1024, cost(Phase::Decode { past_tokens: 1024 })),
                (8192, cost(Phase::Decode { past_tokens: 8192 })),
            ],
        )
    }

    /// Cost of one decode step at a given KV length.
    pub fn step(&self, kv_tokens: usize) -> TimeSecs {
        self.base + self.slope_per_kv_token * kv_tokens as f64
    }

    /// Total latency to prefill `prompt` tokens and generate `tokens`
    /// outputs (the KV cache grows every step).
    pub fn generate(&self, prompt: usize, tokens: usize) -> TimeSecs {
        let prefill = self.prefill_per_token * prompt as f64;
        // sum_{t=0..tokens-1} step(prompt + t)
        let n = tokens as f64;
        let kv_sum = prompt as f64 * n + n * (n - 1.0) / 2.0;
        prefill + self.base * n + self.slope_per_kv_token * kv_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::DgxSpec;

    fn model() -> GenerationModel {
        GenerationModel::sn40l(&TransformerConfig::llama2_7b(), 8)
    }

    #[test]
    fn steps_grow_with_kv() {
        let m = model();
        assert!(m.step(8192) > m.step(1024));
        assert!(
            m.slope_per_kv_token.as_secs() > 0.0,
            "KV reads must cost something"
        );
    }

    #[test]
    fn generation_is_superlinear_in_tokens() {
        let m = model();
        let short = m.generate(1024, 100);
        let long = m.generate(1024, 200);
        assert!(
            long.as_secs() > 2.0 * short.as_secs() - m.prefill_per_token.as_secs() * 1024.0 * 1.01,
            "doubling tokens more than doubles decode time"
        );
    }

    #[test]
    fn fit_recovers_exact_linear_costs() {
        let m = GenerationModel::fit(
            100,
            TimeSecs::from_millis(10.0),
            [
                (1000, TimeSecs::from_millis(2.0)),
                (3000, TimeSecs::from_millis(4.0)),
            ],
        );
        assert!((m.base.as_millis() - 1.0).abs() < 1e-9);
        assert!((m.step(2000).as_millis() - 3.0).abs() < 1e-9);
        assert!((m.prefill_per_token.as_millis() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sn40l_beats_dgx_across_generation_lengths() {
        let cfg = TransformerConfig::llama2_7b();
        let sn = GenerationModel::sn40l(&cfg, 8);
        let dgx = GenerationModel::dgx(&DgxSpec::dgx_a100(), &cfg, 8);
        for tokens in [20usize, 200, 1000] {
            let ratio = dgx.generate(1024, tokens) / sn.generate(1024, tokens);
            assert!(ratio > 1.5, "{tokens} tokens: ratio {ratio:.2}");
        }
    }

    #[test]
    #[should_panic(expected = "distinct KV lengths")]
    fn degenerate_fit_panics() {
        let _ = GenerationModel::fit(
            10,
            TimeSecs::from_millis(1.0),
            [
                (100, TimeSecs::from_millis(1.0)),
                (100, TimeSecs::from_millis(2.0)),
            ],
        );
    }
}
