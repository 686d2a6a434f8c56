//! Data series for every table and figure in the paper's evaluation.

use sn_arch::{Bytes, Calibration, DgxSpec, NodeSpec, Orchestration, SocketSpec, TimeSecs};
use sn_baseline::{dgx_nodes_needed, sn40l_nodes_needed};
use sn_coe::comparison::{ComparisonModel, LatencyBreakdown, Platform};
use sn_compiler::{Compiler, FusionPolicy};
use sn_dataflow::intensity::{fusion_levels, FusionLevel};
use sn_dataflow::monarch::monarch_fig3;
use sn_models::table2;
use sn_runtime::executor::NodeExecutor;

/// Prompt length used for all CoE latency experiments (the paper does not
/// state one; 1 KiB-token prompts are typical of the chatbot/translation
/// use cases it cites).
pub const PROMPT_TOKENS: usize = 1024;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub level: &'static str,
    pub paper: f64,
    pub measured: f64,
}

/// Table I: operational intensity of the Figure 3 example at three fusion
/// levels.
pub fn table1() -> Vec<Table1Row> {
    let g = monarch_fig3();
    let levels = fusion_levels(&g);
    vec![
        Table1Row {
            level: "No Fusion",
            paper: 39.5,
            measured: levels[&FusionLevel::None],
        },
        Table1Row {
            level: "Gemm0 - Mul - Transpose",
            paper: 102.6,
            measured: levels[&FusionLevel::Partial],
        },
        Table1Row {
            level: "Fully Spatially Fused",
            paper: 410.4,
            measured: levels[&FusionLevel::Full],
        },
    ]
}

/// Table II rows: `(name, params, phase tag, seq)`.
pub fn table2_rows() -> Vec<(String, f64, String, usize)> {
    table2()
        .into_iter()
        .map(|b| {
            let params = if b.fft_conv {
                0.0
            } else {
                b.config.param_count() as f64 / 1e9
            };
            (b.name.clone(), params, format!("{:?}", b.phase), b.seq)
        })
        .collect()
}

/// One bar group of Figure 10 (plus the Figure 11 ratio).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub name: String,
    pub unfused_so: TimeSecs,
    pub fused_so: TimeSecs,
    pub fused_ho: TimeSecs,
    /// Blue bar: Fused+SO speedup over unfused.
    pub fusion_speedup: f64,
    /// Orange bar: Fused+HO speedup over unfused.
    pub ho_speedup: f64,
    /// Figure 11: unfused kernel launches over fused kernel launches.
    pub kernel_ratio: f64,
}

/// Figure 10: speedups over the unfused baseline for every Table II
/// benchmark, software- and hardware-orchestrated. Benchmarks compile and
/// evaluate across `jobs` worker threads (the suite spans 17 workloads up
/// to 176B parameters); the rows are identical for every `jobs` value.
pub fn fig10(jobs: usize) -> Vec<Fig10Row> {
    let calib = Calibration::baseline();
    let compiler = Compiler::new(SocketSpec::sn40l(), calib.clone());
    let node = NodeExecutor::new(NodeSpec::sn40l_node(), calib);
    crate::par::ordered_map(jobs, &table2(), |_, b| {
        let graph = b.build_graph();
        let unfused = compiler
            .compile(&graph, FusionPolicy::Unfused)
            .expect("benchmarks compile unfused");
        let fused = compiler
            .compile(&graph, FusionPolicy::Spatial)
            .expect("benchmarks compile fused");
        let unfused_so = node.run(&unfused, Orchestration::Software).total;
        let fused_so = node.run(&fused, Orchestration::Software).total;
        let fused_ho = node.run(&fused, Orchestration::Hardware).total;
        Fig10Row {
            name: b.name.clone(),
            unfused_so,
            fused_so,
            fused_ho,
            fusion_speedup: unfused_so / fused_so,
            ho_speedup: unfused_so / fused_ho,
            kernel_ratio: unfused.kernel_count() as f64 / fused.kernel_count() as f64,
        }
    })
}

/// Figure 11: the kernel-call ratios (projection of [`fig10`]).
pub fn fig11(jobs: usize) -> Vec<(String, f64)> {
    fig10(jobs)
        .into_iter()
        .map(|r| (r.name, r.kernel_ratio))
        .collect()
}

/// Figure 1: per-platform latency breakdown for one 20-token request
/// against the 150-expert CoE.
pub fn fig1() -> Vec<(Platform, LatencyBreakdown)> {
    let model = ComparisonModel::new(PROMPT_TOKENS);
    Platform::ALL
        .iter()
        .map(|&p| {
            let b = model
                .request_latency(p, 150, 1, 20)
                .expect("150 experts fit every platform");
            (p, b)
        })
        .collect()
}

/// One point of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Point {
    pub experts: usize,
    pub sn40l: Option<TimeSecs>,
    pub dgx_a100: Option<TimeSecs>,
    pub dgx_h100: Option<TimeSecs>,
}

/// Expert counts swept in Figure 12/13.
pub fn expert_sweep() -> Vec<usize> {
    vec![
        1, 5, 10, 20, 30, 40, 46, 50, 60, 80, 100, 120, 150, 200, 300, 500, 700, 850,
    ]
}

/// Figure 12: CoE latency vs expert count at a given batch size
/// (12a: BS=8, 12b: BS=1), 20 output tokens, TP8.
pub fn fig12(batch: usize) -> Vec<Fig12Point> {
    let model = ComparisonModel::new(PROMPT_TOKENS);
    expert_sweep()
        .into_iter()
        .map(|n| Fig12Point {
            experts: n,
            sn40l: model
                .request_latency(Platform::Sn40l, n, batch, 20)
                .map(|b| b.total()),
            dgx_a100: model
                .request_latency(Platform::DgxA100, n, batch, 20)
                .map(|b| b.total()),
            dgx_h100: model
                .request_latency(Platform::DgxH100, n, batch, 20)
                .map(|b| b.total()),
        })
        .collect()
}

/// Figure 13: nodes needed to sustain TP8 latency vs expert count.
pub fn fig13() -> Vec<(usize, usize, usize, usize)> {
    let expert = Bytes::from_gb(13.48);
    let sn = NodeSpec::sn40l_node();
    let a = DgxSpec::dgx_a100();
    let h = DgxSpec::dgx_h100();
    expert_sweep()
        .into_iter()
        .map(|n| {
            (
                n,
                sn40l_nodes_needed(&sn, n, expert),
                dgx_nodes_needed(&a, n, expert),
                dgx_nodes_needed(&h, n, expert),
            )
        })
        .collect()
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub metric: &'static str,
    pub paper_a100: f64,
    pub paper_h100: f64,
    pub vs_a100: f64,
    pub vs_h100: f64,
}

/// Table III: Samba-CoE performance vs DGX A100 and DGX H100 at 150
/// experts.
pub fn table3() -> Vec<Table3Row> {
    let model = ComparisonModel::new(PROMPT_TOKENS);
    let total = |p, bs, toks| {
        model
            .request_latency(p, 150, bs, toks)
            .expect("150 experts fit every platform")
            .total()
    };
    let exec = |p, toks| {
        model
            .request_latency(p, 150, 1, toks)
            .expect("150 experts fit every platform")
            .execution()
    };
    let switch = |p| {
        model
            .request_latency(p, 150, 8, 20)
            .expect("150 experts fit every platform")
            .switching
    };
    let sn = Platform::Sn40l;
    let a = Platform::DgxA100;
    let h = Platform::DgxH100;
    vec![
        Table3Row {
            metric: "Overall Speedup, BS=8, 20 output tokens",
            paper_a100: 6.6,
            paper_h100: 3.7,
            vs_a100: total(a, 8, 20) / total(sn, 8, 20),
            vs_h100: total(h, 8, 20) / total(sn, 8, 20),
        },
        Table3Row {
            metric: "Overall Speedup, BS=1, 20 output tokens",
            paper_a100: 4.8,
            paper_h100: 2.8,
            vs_a100: total(a, 1, 20) / total(sn, 1, 20),
            vs_h100: total(h, 1, 20) / total(sn, 1, 20),
        },
        Table3Row {
            metric: "Expert Speedup, BS=1, 20 output tokens",
            paper_a100: 2.0,
            paper_h100: 1.5,
            vs_a100: exec(a, 20) / exec(sn, 20),
            vs_h100: exec(h, 20) / exec(sn, 20),
        },
        Table3Row {
            metric: "Overall Speedup, BS=8, 200 output tokens",
            paper_a100: 4.2,
            paper_h100: 2.7,
            vs_a100: total(a, 8, 200) / total(sn, 8, 200),
            vs_h100: total(h, 8, 200) / total(sn, 8, 200),
        },
        Table3Row {
            metric: "Overall Speedup, BS=1, 200 output tokens",
            paper_a100: 3.9,
            paper_h100: 2.6,
            vs_a100: total(a, 1, 200) / total(sn, 1, 200),
            vs_h100: total(h, 1, 200) / total(sn, 1, 200),
        },
        Table3Row {
            metric: "Expert Speedup, BS=1, 200 output tokens",
            paper_a100: 3.2,
            paper_h100: 2.3,
            vs_a100: exec(a, 200) / exec(sn, 200),
            vs_h100: exec(h, 200) / exec(sn, 200),
        },
        Table3Row {
            metric: "Model Switching Time",
            paper_a100: 31.0,
            paper_h100: 15.0,
            vs_a100: switch(a) / switch(sn),
            vs_h100: switch(h) / switch(sn),
        },
    ]
}

/// Table III's last row: the expert count where each platform OOMs.
pub fn oom_experts() -> Vec<(Platform, usize)> {
    let model = ComparisonModel::new(PROMPT_TOKENS);
    Platform::ALL
        .iter()
        .map(|&p| (p, model.max_experts(p)))
        .collect()
}

/// Extension experiment: INT8-quantized experts double every capacity
/// boundary (experts per HBM, per node, per DGX). Returns rows of
/// `(platform, bf16 resident, int8 resident, bf16 max, int8 max)`.
pub fn quantization_extension() -> Vec<(&'static str, usize, usize, usize, usize)> {
    use sn_models::TransformerConfig;
    let bf16 = TransformerConfig::llama2_7b().param_bytes();
    let int8 = TransformerConfig::llama2_7b()
        .quantized_int8()
        .param_bytes();
    let node = NodeSpec::sn40l_node();
    let dgx = DgxSpec::dgx_a100();
    let fit = |cap: Bytes, per: Bytes| (cap.as_f64() / per.as_f64()) as usize;
    let sn_hbm = node.hbm_capacity().saturating_sub(Bytes::from_gib(48));
    vec![
        (
            "SN40L Node",
            fit(sn_hbm, bf16),
            fit(sn_hbm, int8),
            fit(node.ddr_capacity(), bf16),
            fit(node.ddr_capacity(), int8),
        ),
        (
            "DGX A100",
            fit(dgx.hbm_for_experts(), bf16),
            fit(dgx.hbm_for_experts(), int8),
            fit(dgx.total_expert_capacity(), bf16),
            fit(dgx.total_expert_capacity(), int8),
        ),
    ]
}

/// Extension experiment: HBM-size sensitivity under a realistic skewed,
/// drifting request trace (§III-B temporal locality). Returns rows of
/// `(hbm_gib, switching_fraction)` for a 150-expert CoE.
pub fn hbm_sensitivity() -> Vec<(u64, f64)> {
    use sn_coe::{ExpertLibrary, Router, TraceConfig, TraceGenerator};
    use sn_models::TransformerConfig;
    use sn_runtime::coe::{CoeRuntime, CoeRuntimeConfig};
    let expert_bytes = TransformerConfig::llama2_7b().param_bytes();
    let library = ExpertLibrary::samba_coe_150();
    let router = Router::new(0xbeef);
    [128u64, 192, 256, 320, 384, 448, 512]
        .into_iter()
        .map(|hbm_gib| {
            let mut node = NodeSpec::sn40l_node();
            node.socket.hbm.capacity = Bytes::from_gib(hbm_gib / node.sockets as u64);
            let mut rt = CoeRuntime::new(
                &node,
                CoeRuntimeConfig {
                    hbm_reserved: Bytes::from_gib(48),
                    ..Default::default()
                },
            );
            for e in library.experts() {
                rt.register(sn_runtime::coe::ModelBinary::weights_only(
                    e.name.clone(),
                    expert_bytes,
                ))
                .expect("library fits DDR");
            }
            let mut trace = TraceGenerator::new(2026, TraceConfig::default());
            let mut switch = TimeSecs::ZERO;
            let n_requests = 2000;
            for p in trace.batch(n_requests) {
                let e = router.route(&p, library.len());
                switch += rt
                    .activate(&library.expert(e).name)
                    .expect("registered")
                    .switch_time;
            }
            let stats = rt.stats();
            let miss_rate = stats.misses as f64 / (stats.hits + stats.misses) as f64;
            let _ = switch;
            (hbm_gib, miss_rate)
        })
        .collect()
}

/// Extension experiment: sustained single-expert decode throughput
/// (tokens per second per node, steady state, BS=1) on each platform.
pub fn throughput_extension() -> Vec<(&'static str, f64)> {
    use sn_coe::GenerationModel;
    use sn_models::TransformerConfig;
    let cfg = TransformerConfig::llama2_7b();
    let sn = GenerationModel::sn40l(&cfg, 8);
    let a = GenerationModel::dgx(&DgxSpec::dgx_a100(), &cfg, 8);
    let h = GenerationModel::dgx(&DgxSpec::dgx_h100(), &cfg, 8);
    let tps = |m: &GenerationModel| 1.0 / m.step(2048).as_secs();
    vec![
        ("SN40L Node", tps(&sn)),
        ("DGX A100", tps(&a)),
        ("DGX H100", tps(&h)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_regimes() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        // Regime check: memory-bound, memory-bound, compute-bound on an
        // A100-class balance of ~150 FLOPs/byte.
        assert!(rows[0].measured < 150.0);
        assert!(rows[1].measured < 150.0);
        assert!(rows[2].measured > 150.0);
        assert!(rows[0].measured < rows[1].measured);
        assert!(rows[1].measured < rows[2].measured);
    }

    #[test]
    fn fig13_endpoints_match_paper() {
        let rows = fig13();
        let last = rows.last().unwrap();
        assert_eq!(last.0, 850);
        assert_eq!(last.1, 1, "one SN40L node at 850 experts");
        assert!((18..=20).contains(&last.2), "~19 DGX A100 nodes");
    }

    #[test]
    fn fig12_has_dgx_gaps_beyond_oom() {
        let points = fig12(1);
        let last = points.last().unwrap();
        assert!(last.sn40l.is_some());
        assert!(last.dgx_a100.is_none(), "DGX cannot host 850 experts");
    }

    #[test]
    fn throughput_ordering_matches_the_paper() {
        let rows = throughput_extension();
        let get = |n: &str| rows.iter().find(|(p, _)| *p == n).unwrap().1;
        assert!(get("SN40L Node") > get("DGX H100"));
        assert!(get("DGX H100") > get("DGX A100"));
    }

    #[test]
    fn bigger_hbm_misses_less() {
        let rows = hbm_sensitivity();
        let first = rows.first().unwrap().1;
        let last = rows.last().unwrap().1;
        assert!(
            last < first * 0.6,
            "miss rate should fall with HBM: {first:.2} -> {last:.2}"
        );
        assert!(
            last < 0.55,
            "512 GiB absorbs most of the skewed working set: {last:.2}"
        );
    }

    #[test]
    fn oom_ordering_matches_table3() {
        let ooms = oom_experts();
        let get = |p: Platform| ooms.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(get(Platform::Sn40l) >= 850);
        assert!(get(Platform::DgxA100) <= 155);
        assert!(get(Platform::DgxA100) >= 150);
    }
}
