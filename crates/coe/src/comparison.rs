//! Platform comparison model (Figures 1 and 12, Table III).
//!
//! The same CoE request — route, switch, prefill, decode — is costed on
//! the SN40L node and on DGX A100/H100, following the paper's §VI-B
//! methodology: SN40L times come from the compiled-executable model; DGX
//! times come from the roofline executor with published specs and
//! optimistic assumptions (CUDA-graph launches, full HBM+host capacity
//! available for weights).

use crate::programs::{expert_graph, expert_phases, ExpertPrograms};
use sn_arch::{Bytes, Calibration, DgxSpec, NodeSpec, Orchestration, TimeSecs};
use sn_baseline::{GpuExecutor, LaunchMode};
use sn_models::TransformerConfig;
use sn_runtime::executor::NodeExecutor;

/// The three platforms of §VI-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    Sn40l,
    DgxA100,
    DgxH100,
}

impl Platform {
    pub const ALL: [Platform; 3] = [Platform::Sn40l, Platform::DgxA100, Platform::DgxH100];

    pub fn name(self) -> &'static str {
        match self {
            Platform::Sn40l => "SN40L Node",
            Platform::DgxA100 => "DGX A100",
            Platform::DgxH100 => "DGX H100",
        }
    }
}

/// Per-request latency breakdown (the Figure 1 decomposition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    pub router: TimeSecs,
    pub switching: TimeSecs,
    pub prefill: TimeSecs,
    pub decode: TimeSecs,
}

impl LatencyBreakdown {
    pub fn total(self) -> TimeSecs {
        self.router + self.switching + self.prefill + self.decode
    }

    /// Model execution only (expert prefill + decode).
    pub fn execution(self) -> TimeSecs {
        self.prefill + self.decode
    }

    /// Fraction of the request spent switching models; 0.0 for a
    /// zero-total breakdown (never NaN).
    pub fn switching_fraction(self) -> f64 {
        let total = self.total().as_secs();
        if total == 0.0 {
            0.0
        } else {
            self.switching.as_secs() / total
        }
    }
}

/// Precomputed per-platform unit costs, reusable across a Figure 12 sweep.
#[derive(Debug, Clone)]
pub struct ComparisonModel {
    prompt_tokens: usize,
    expert_bytes: Bytes,
    router_steps: f64,
    /// (prefill, decode-step, switch bandwidth, resident experts, max experts)
    platforms: Vec<(Platform, PlatformCosts)>,
}

#[derive(Debug, Clone, Copy)]
struct PlatformCosts {
    prefill: TimeSecs,
    decode_step: TimeSecs,
    switch_bw: sn_arch::Bandwidth,
    resident_experts: usize,
    max_experts: usize,
}

impl ComparisonModel {
    /// Builds the model for a given prompt length, compiling/evaluating
    /// the Llama2-7B expert on every platform once (the SN40L programs
    /// come from [`ExpertPrograms::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if the expert graphs cannot be built or compiled (e.g.
    /// `prompt_tokens == 0`).
    pub fn new(prompt_tokens: usize) -> Self {
        let cfg = TransformerConfig::llama2_7b();
        let calib = Calibration::baseline();
        let expert_bytes = cfg.param_bytes();
        let node = NodeSpec::sn40l_node();

        let mut platforms = Vec::new();
        // SN40L.
        {
            let programs =
                ExpertPrograms::shared(&node.socket, &calib, &cfg, prompt_tokens, node.sockets)
                    .unwrap_or_else(|e| panic!("{e}"));
            let exec = NodeExecutor::new(node.clone(), calib.clone());
            let hbm_reserve = Bytes::from_gib(48);
            let budget = node.hbm_capacity().saturating_sub(hbm_reserve);
            platforms.push((
                Platform::Sn40l,
                PlatformCosts {
                    prefill: exec.run(programs.prefill(), Orchestration::Hardware).total,
                    decode_step: exec.run(programs.decode(), Orchestration::Hardware).total,
                    switch_bw: node.model_switch_bandwidth(),
                    resident_experts: (budget.as_f64() / expert_bytes.as_f64()) as usize,
                    max_experts: (node.ddr_capacity().as_f64() / expert_bytes.as_f64()) as usize,
                },
            ));
        }
        // DGXs, costed on the graphs themselves: one phase's graph at a
        // time, and only after the SN40L compile, so no two are live at
        // once.
        let dgxs = [
            (Platform::DgxA100, DgxSpec::dgx_a100()),
            (Platform::DgxH100, DgxSpec::dgx_h100()),
        ];
        let execs = dgxs
            .each_ref()
            .map(|(_, dgx)| GpuExecutor::new(dgx.clone(), calib.clone()));
        let [prefill, decode] = expert_phases(prompt_tokens).map(|(stage, phase)| {
            let graph =
                expert_graph(&cfg, stage, phase, node.sockets).unwrap_or_else(|e| panic!("{e}"));
            execs
                .each_ref()
                .map(|exec| exec.run(&graph, LaunchMode::CudaGraph).total)
        });
        for (i, (platform, dgx)) in dgxs.into_iter().enumerate() {
            platforms.push((
                platform,
                PlatformCosts {
                    prefill: prefill[i],
                    decode_step: decode[i],
                    switch_bw: dgx.model_switch_bandwidth(),
                    resident_experts: (dgx.hbm_for_experts().as_f64() / expert_bytes.as_f64())
                        as usize,
                    max_experts: (dgx.total_expert_capacity().as_f64() / expert_bytes.as_f64())
                        as usize,
                },
            ));
        }
        ComparisonModel {
            prompt_tokens,
            expert_bytes,
            router_steps: calib.router_equiv_decode_steps,
            platforms,
        }
    }

    fn costs(&self, p: Platform) -> PlatformCosts {
        self.platforms
            .iter()
            .find(|(q, _)| *q == p)
            .map(|&(_, c)| c)
            .expect("every platform is precomputed")
    }

    pub fn prompt_tokens(&self) -> usize {
        self.prompt_tokens
    }

    /// Experts a platform keeps HBM-resident.
    pub fn resident_experts(&self, p: Platform) -> usize {
        self.costs(p).resident_experts
    }

    /// Maximum experts a platform can host at all (weights anywhere).
    pub fn max_experts(&self, p: Platform) -> usize {
        self.costs(p).max_experts
    }

    /// Expected distinct experts drawn by `batch` uniformly routed prompts
    /// over `n` experts.
    fn expected_distinct(n: usize, batch: usize) -> f64 {
        let n = n as f64;
        n * (1.0 - (1.0 - 1.0 / n).powi(batch as i32))
    }

    /// Latency of one batch request against a CoE of `n_experts`.
    /// Returns `None` when the platform runs out of memory (the paper's
    /// ">150 Experts → DGX OOM" row).
    pub fn request_latency(
        &self,
        platform: Platform,
        n_experts: usize,
        batch: usize,
        output_tokens: usize,
    ) -> Option<LatencyBreakdown> {
        assert!(n_experts > 0 && batch > 0 && output_tokens > 0);
        let c = self.costs(platform);
        if n_experts > c.max_experts {
            return None;
        }
        // Router: always HBM-resident (§V); prefill plus a couple of
        // classification decode steps.
        let router = c.prefill + c.decode_step * self.router_steps;
        // Switching: in steady state a fully-resident library never
        // misses; beyond residency, a randomly routed request would miss
        // with probability 1 - resident/n, but real traffic is skewed
        // toward hot experts (§III-B temporal locality — measured in the
        // `hbm_sensitivity` extension experiment), so the LRU cache
        // captures more than its proportional share.
        const TEMPORAL_LOCALITY: f64 = 0.6;
        let switching = if n_experts <= c.resident_experts {
            TimeSecs::ZERO
        } else {
            let miss_rate =
                (1.0 - c.resident_experts as f64 / n_experts as f64) * TEMPORAL_LOCALITY;
            let expected = Self::expected_distinct(n_experts, batch) * miss_rate;
            (self.expert_bytes / c.switch_bw) * expected
        };
        // Execution: each (prompt, expert) pair runs sequentially (§VI-B).
        let prefill = c.prefill * batch as f64;
        let decode = c.decode_step * (batch * output_tokens) as f64;
        Some(LatencyBreakdown {
            router,
            switching,
            prefill,
            decode,
        })
    }
}

/// Convenience: one-off request latency (builds a fresh model; for sweeps
/// construct [`ComparisonModel`] once).
pub fn request_latency(
    platform: Platform,
    n_experts: usize,
    batch: usize,
    output_tokens: usize,
    prompt_tokens: usize,
) -> Option<LatencyBreakdown> {
    ComparisonModel::new(prompt_tokens).request_latency(platform, n_experts, batch, output_tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ComparisonModel {
        ComparisonModel::new(1024)
    }

    #[test]
    fn dgx_ooms_just_above_150_experts() {
        let m = model();
        for p in [Platform::DgxA100, Platform::DgxH100] {
            assert!(m.request_latency(p, 150, 1, 20).is_some());
            assert!(
                m.request_latency(p, 160, 1, 20).is_none(),
                "{:?} should OOM",
                p
            );
        }
        assert!(m.request_latency(Platform::Sn40l, 850, 1, 20).is_some());
    }

    #[test]
    fn dgx_latency_spikes_when_experts_spill_to_host() {
        // Figure 12: the spike around ~45-50 experts.
        let m = model();
        let resident = m.resident_experts(Platform::DgxA100);
        assert!((40..=50).contains(&resident), "resident {resident}");
        let below = m
            .request_latency(Platform::DgxA100, resident, 1, 20)
            .unwrap();
        let above = m
            .request_latency(Platform::DgxA100, resident + 60, 1, 20)
            .unwrap();
        assert!(
            above.total().as_secs() > 2.0 * below.total().as_secs(),
            "spike: {} -> {}",
            below.total(),
            above.total()
        );
    }

    #[test]
    fn sn40l_stays_flat_across_expert_counts() {
        let m = model();
        let small = m.request_latency(Platform::Sn40l, 10, 1, 20).unwrap();
        let large = m.request_latency(Platform::Sn40l, 850, 1, 20).unwrap();
        assert!(
            large.total().as_secs() < 2.0 * small.total().as_secs(),
            "SN40L: {} -> {}",
            small.total(),
            large.total()
        );
    }

    #[test]
    fn switching_speedup_matches_31x_and_15x() {
        // Table III: model switching 31x vs DGX A100, 15x vs DGX H100.
        let m = model();
        let sn = m
            .request_latency(Platform::Sn40l, 150, 8, 20)
            .unwrap()
            .switching;
        let a = m
            .request_latency(Platform::DgxA100, 150, 8, 20)
            .unwrap()
            .switching;
        let h = m
            .request_latency(Platform::DgxH100, 150, 8, 20)
            .unwrap()
            .switching;
        let va = a / sn;
        let vh = h / sn;
        assert!(va > 26.0 && va < 38.0, "vs A100 {va:.1}x (paper 31x)");
        assert!(vh > 13.0 && vh < 19.0, "vs H100 {vh:.1}x (paper 15x)");
    }

    #[test]
    fn overall_speedup_exceeds_paper_floor_at_150_experts() {
        // Table III overall speedups (BS=8, 20 tokens): 6.6x vs A100,
        // 3.7x vs H100. The shape requirement: SN40L wins by mid-single
        // digits, and BS=8 wins by more than BS=1.
        let m = model();
        let speedup = |p, bs| {
            let sn = m
                .request_latency(Platform::Sn40l, 150, bs, 20)
                .unwrap()
                .total();
            m.request_latency(p, 150, bs, 20).unwrap().total() / sn
        };
        let a8 = speedup(Platform::DgxA100, 8);
        let a1 = speedup(Platform::DgxA100, 1);
        let h8 = speedup(Platform::DgxH100, 8);
        assert!(a8 > 4.0 && a8 < 12.0, "BS8 vs A100 {a8:.1}x (paper 6.6x)");
        assert!(h8 > 2.5 && h8 < 8.0, "BS8 vs H100 {h8:.1}x (paper 3.7x)");
        assert!(
            a8 > a1,
            "switching share grows with batch: {a8:.1} vs {a1:.1}"
        );
    }

    #[test]
    fn expert_speedup_grows_with_output_tokens() {
        // Table III: expert speedup 2.0x (20 tokens) vs 3.2x (200 tokens)
        // against A100 — decode amplifies the dataflow win.
        let m = model();
        let ratio = |tokens| {
            let sn = m
                .request_latency(Platform::Sn40l, 10, 1, tokens)
                .unwrap()
                .execution();
            let a = m
                .request_latency(Platform::DgxA100, 10, 1, tokens)
                .unwrap()
                .execution();
            a / sn
        };
        let short = ratio(20);
        let long = ratio(200);
        assert!(
            long > short,
            "decode-heavy requests widen the gap: {short:.2} vs {long:.2}"
        );
        assert!(
            long > 2.2 && long < 4.5,
            "200-token expert speedup {long:.2} (paper 3.2x)"
        );
    }

    #[test]
    fn breakdown_matches_figure1_shape() {
        // Figure 1(a): on DGX, switching dwarfs execution for 20-token
        // requests once experts overflow HBM; on SN40L it does not.
        let m = model();
        let dgx = m.request_latency(Platform::DgxA100, 150, 1, 20).unwrap();
        let sn = m.request_latency(Platform::Sn40l, 150, 1, 20).unwrap();
        assert!(
            dgx.switching_fraction() > 0.5,
            "DGX fraction {:.2}",
            dgx.switching_fraction()
        );
        assert!(
            sn.switching_fraction() < 0.5,
            "SN40L fraction {:.2}",
            sn.switching_fraction()
        );
    }
}
