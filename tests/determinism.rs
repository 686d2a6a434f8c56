//! Determinism: the whole stack is seeded and reproducible, and its
//! data structures compare equal after a clone.

use samba_coe::arch::prelude::*;
use samba_coe::coe::{CoeCluster, ExpertLibrary, PromptGenerator, Router, SambaCoeNode};
use samba_coe::compiler::{Compiler, FusionPolicy};
use samba_coe::faults::{FaultPlan, FaultSite, FaultSpec, RetryPolicy};
use samba_coe::models::{build, Phase, TransformerConfig};
use std::sync::Arc;

#[test]
fn compilation_is_deterministic() {
    let cfg = TransformerConfig::mistral_7b();
    let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
    let g1 = build(&cfg, Phase::Decode { past_tokens: 2048 }, 1, 8).unwrap();
    let g2 = build(&cfg, Phase::Decode { past_tokens: 2048 }, 1, 8).unwrap();
    assert_eq!(g1, g2, "graph construction is deterministic");
    let e1 = compiler.compile(&g1, FusionPolicy::Spatial).unwrap();
    let e2 = compiler.compile(&g2, FusionPolicy::Spatial).unwrap();
    assert_eq!(e1.kernel_count(), e2.kernel_count());
    assert_eq!(e1.distinct_programs(), e2.distinct_programs());
    assert!((e1.execution_time().as_secs() - e2.execution_time().as_secs()).abs() < 1e-15);
}

#[test]
fn serving_is_deterministic_across_instances() {
    let serve = || {
        let mut node = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(40), 512);
        let mut generator = PromptGenerator::new(7, 512);
        let mut totals = Vec::new();
        for _ in 0..4 {
            totals.push(node.serve_batch(&generator.batch(4), 10).total().as_secs());
        }
        totals
    };
    assert_eq!(serve(), serve());
}

fn lumpy_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.15))
            .with_site(
                FaultSite::SocketLink,
                FaultSpec {
                    fail_rate: 0.1,
                    slow_rate: 0.2,
                    slow_factor: 1.5,
                },
            )
            .with_site(FaultSite::RouterDecision, FaultSpec::failing(0.1)),
    )
}

#[test]
fn fault_injected_serving_is_deterministic_across_instances() {
    // Same FaultPlan seed, fresh node each run: the full ServeReport
    // stream (every field, including recovery accounting) is identical.
    let serve = || {
        let mut node = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(40), 512)
            .with_faults(lumpy_plan(0xD1CE), RetryPolicy::standard());
        let mut generator = PromptGenerator::new(7, 512);
        let mut reports = Vec::new();
        for _ in 0..4 {
            reports.push(
                node.try_serve_batch(&generator.batch(4), 10)
                    .map_err(|e| e.to_string()),
            );
        }
        reports
    };
    let first = serve();
    assert_eq!(first, serve());
    assert!(
        first.iter().flatten().any(|r| r.retries > 0),
        "the plan is lumpy enough to exercise recovery"
    );
}

#[test]
fn fault_injected_failover_is_deterministic_across_instances() {
    // A 3-node cluster with a seeded plan and one forced node failure
    // replays byte-identically: same re-homing, same ClusterReports.
    let serve = || {
        let plan = Arc::new(
            FaultPlan::new(0xFEE1)
                .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.05))
                .with_site(FaultSite::NodeFailure, FaultSpec::failing(0.1)),
        );
        let mut cluster = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(120), 512)
            .expect("3 nodes hold 120 experts")
            .with_faults(plan, RetryPolicy::standard());
        cluster.fail_node(1);
        let mut generator = PromptGenerator::new(11, 512);
        let mut reports = Vec::new();
        for _ in 0..4 {
            reports.push(
                cluster
                    .try_serve_batch(&generator.batch(8), 10)
                    .map_err(|e| e.to_string()),
            );
        }
        reports
    };
    let first = serve();
    assert_eq!(first, serve());
    assert!(
        first.iter().flatten().any(|r| r.rehomed_experts > 0),
        "the forced failure re-homes experts onto survivors"
    );
}

#[test]
fn zero_rate_fault_plan_is_bit_identical_to_unfaulted_serving() {
    // Wiring a plan whose every rate is zero must not perturb a single
    // bit of the report: the fault layer costs nothing when quiet.
    let mut plain = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(40), 512);
    let mut faulted = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(40), 512)
        .with_faults(Arc::new(FaultPlan::new(9)), RetryPolicy::standard());
    let mut g1 = PromptGenerator::new(7, 512);
    let mut g2 = PromptGenerator::new(7, 512);
    for _ in 0..4 {
        let want = plain.serve_batch(&g1.batch(4), 10);
        let got = faulted
            .try_serve_batch(&g2.batch(4), 10)
            .expect("zero-rate plan");
        assert_eq!(want, got);
    }
}

#[test]
fn routing_is_stable_across_library_sizes_queries() {
    let router = Router::new(5);
    let mut generator = PromptGenerator::new(5, 256);
    let prompts = generator.batch(32);
    let first: Vec<usize> = prompts.iter().map(|p| router.route(p, 150)).collect();
    let second: Vec<usize> = prompts.iter().map(|p| router.route(p, 150)).collect();
    assert_eq!(first, second);
}

#[test]
fn specs_are_stable_values() {
    // Spec constructors return identical values on every call — the
    // foundation of deterministic experiments.
    assert_eq!(SocketSpec::sn40l(), SocketSpec::sn40l());
    assert_eq!(NodeSpec::sn40l_node(), NodeSpec::sn40l_node());
    assert_eq!(DgxSpec::dgx_a100(), DgxSpec::dgx_a100());
    assert_eq!(Calibration::baseline(), Calibration::baseline());
}

#[test]
fn graphs_compare_equal_after_clone() {
    let cfg = TransformerConfig::llama2_7b();
    let g = build(&cfg, Phase::Prefill { prompt_tokens: 256 }, 1, 8).unwrap();
    let h = g.clone();
    assert_eq!(g, h);
    assert_eq!(g.total_flops().as_f64(), h.total_flops().as_f64());
}
