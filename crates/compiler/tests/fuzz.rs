//! Property-based fuzzing of the whole compilation pipeline: arbitrary
//! well-formed graphs must compile under both policies with valid
//! partitions, finite estimates, and non-aliasing memory plans.

use proptest::prelude::*;
use sn_arch::{Calibration, SocketSpec};
use sn_compiler::{Compiler, FusionPolicy};
use sn_dataflow::intensity::is_valid_partition;
use sn_dataflow::{
    BinaryKind, DType, Graph, GraphBuilder, OpKind, Shape, TensorId, TensorKind, UnaryKind,
};

/// A compact recipe for one random node.
#[derive(Debug, Clone)]
enum Step {
    Gemm { cols: usize },
    Unary(u8),
    BinarySelf(u8),
    Transpose,
    RowLocal(u8),
    Region,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..6).prop_map(|c| Step::Gemm { cols: c * 32 }),
        (0u8..4).prop_map(Step::Unary),
        (0u8..3).prop_map(Step::BinarySelf),
        Just(Step::Transpose),
        (0u8..3).prop_map(Step::RowLocal),
        Just(Step::Region),
    ]
}

/// Builds a well-formed chain graph from the recipe. Dimensions stay
/// small so the fuzz loop is fast.
fn build_graph(rows: usize, cols0: usize, steps: &[Step]) -> Graph {
    let mut b = GraphBuilder::new("fuzz");
    let mut cur: TensorId = b.tensor("x", Shape::mat(rows, cols0), DType::Bf16, TensorKind::Input);
    let mut region = 0u32;
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Gemm { cols } => {
                let k = last_inner(&b, cur);
                let w = b.tensor(
                    format!("w{i}"),
                    Shape::mat(k, *cols),
                    DType::Bf16,
                    TensorKind::Weight,
                );
                cur = b
                    .node(
                        format!("gemm{i}"),
                        OpKind::Gemm { transpose_b: false },
                        &[cur, w],
                    )
                    .expect("gemm builds");
            }
            Step::Unary(u) => {
                let kind = [
                    UnaryKind::Gelu,
                    UnaryKind::Silu,
                    UnaryKind::Neg,
                    UnaryKind::Scale,
                ][*u as usize % 4];
                cur = b
                    .node(format!("un{i}"), OpKind::Unary(kind), &[cur])
                    .expect("unary builds");
            }
            Step::BinarySelf(k) => {
                let kind = [BinaryKind::Add, BinaryKind::Mul, BinaryKind::Max][*k as usize % 3];
                cur = b
                    .node(format!("bin{i}"), OpKind::Binary(kind), &[cur, cur])
                    .expect("binary builds");
            }
            Step::Transpose => {
                cur = b
                    .node(
                        format!("tr{i}"),
                        OpKind::Transpose {
                            perm: [1, 0].into(),
                        },
                        &[cur],
                    )
                    .expect("transpose builds");
            }
            Step::RowLocal(k) => {
                let op =
                    [OpKind::Softmax, OpKind::RmsNorm, OpKind::LayerNorm][*k as usize % 3].clone();
                cur = b
                    .node(format!("rl{i}"), op, &[cur])
                    .expect("rowlocal builds");
            }
            Step::Region => {
                region += 1;
                b.set_region(region);
            }
        }
    }
    if b.node_count() == 0 {
        // A recipe of only region markers adds no operators.
        cur = b
            .node("tail", OpKind::Unary(UnaryKind::Neg), &[cur])
            .expect("unary builds");
    }
    b.mark_output(cur);
    b.build().expect("non-empty")
}

/// Inner dimension of the running tensor.
fn last_inner(b: &GraphBuilder, cur: TensorId) -> usize {
    b.shape_of(cur).inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_chain_compiles_under_both_policies(
        rows in 1usize..512,
        cols0 in (1usize..8).prop_map(|c| c * 32),
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        let graph = build_graph(rows, cols0, &steps);
        let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        for policy in [FusionPolicy::Unfused, FusionPolicy::Spatial] {
            let exe = compiler.compile(&graph, policy).expect("compiles");
            // Partition covers every node exactly once.
            let partition: Vec<Vec<_>> =
                exe.kernels().iter().map(|k| k.nodes.clone()).collect();
            prop_assert!(is_valid_partition(&graph, &partition));
            // Estimates are finite and non-negative.
            for e in exe.estimates() {
                prop_assert!(e.time.as_secs().is_finite());
                prop_assert!(e.time.as_secs() >= 0.0);
                prop_assert!(e.traffic.as_u64() < u64::MAX / 2);
            }
            // Memory placements never alias while simultaneously live.
            let ps = exe.memory().placements();
            for (i, a) in ps.iter().enumerate() {
                for b2 in &ps[i + 1..] {
                    if a.tier != b2.tier || a.offset == u64::MAX || b2.offset == u64::MAX {
                        continue;
                    }
                    let addr = a.offset < b2.offset + b2.bytes.as_u64()
                        && b2.offset < a.offset + a.bytes.as_u64();
                    let life = a.lifetime.0 <= b2.lifetime.1 && b2.lifetime.0 <= a.lifetime.1;
                    prop_assert!(!(addr && life), "aliasing placements");
                }
            }
        }
    }

    #[test]
    fn fusion_never_increases_traffic(
        rows in 16usize..256,
        steps in proptest::collection::vec(step_strategy(), 1..16),
    ) {
        let graph = build_graph(rows, 64, &steps);
        let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
        let fused = compiler.compile(&graph, FusionPolicy::Spatial).expect("compiles");
        let unfused = compiler.compile(&graph, FusionPolicy::Unfused).expect("compiles");
        prop_assert!(fused.total_traffic() <= unfused.total_traffic());
        prop_assert!(fused.kernel_count() <= unfused.kernel_count());
    }
}
