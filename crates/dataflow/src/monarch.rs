//! Monarch FFT decomposition graphs (Figure 3 and FlashFFTConv).
//!
//! The paper's motivating example (§III-A, Figure 3) is a simplified Monarch
//! FFT: an input is multiplied by a small DFT factor matrix, scaled by
//! twiddle factors, transposed, and multiplied by the second factor matrix.
//! Table I reports the operational intensity of this graph at three fusion
//! levels. The full FlashFFTConv benchmark (Table II) is the same pattern
//! applied forward and inverse around a pointwise filter, for sequences up
//! to 1M elements.
//!
//! Tensors are carried as `[groups, radix, radix]` views: each group is one
//! sequence's factor matrix, GEMMs contract the inner axis against the
//! small DFT factor, and the inter-level transpose permutes the two inner
//! axes — exactly the "arbitrary access pattern between operators" that
//! breaks conventional fusion (§III-A).
//!
//! Shape choices are documented on [`monarch_fig3`]; they are calibrated so
//! that the three Table I intensities land in the paper's regimes
//! (memory-bound / memory-bound / compute-bound on an A100-class roofline).

use crate::dtype::DType;
use crate::graph::{Graph, GraphBuilder};
use crate::op::{BinaryKind, OpKind, UnaryKind};
use crate::shape::Shape;
use crate::tensor::{TensorId, TensorKind};

/// Radix (DFT factor size) of the Figure 3 example.
pub const FIG3_RADIX: usize = 96;
/// Sequence groups of the Figure 3 example.
pub const FIG3_GROUPS: usize = 42;

/// Builds the simplified Monarch FFT of Figure 3.
///
/// Structure: `cast -> Gemm0(S1) -> Mul(twiddle) -> Transpose -> Gemm1(S2)
/// -> cast`. The input and output are real BF16; the pipeline computes in
/// complex BF16. Twiddle factors are [`TensorKind::Generated`] — the SN40L
/// tail unit computes them on-chip (§IV-E) — while the DFT factor matrices
/// are tiny (`radix x radix`) weights.
///
/// With `radix = 96` and 42 groups the analyzer reports intensities of
/// roughly 35 / 127 / 369 FLOPs per byte for the unfused /
/// contraction-anchored / fully-fused levels, reproducing the regime
/// structure of Table I (paper: 39.5 / 102.6 / 410.4).
pub fn monarch_fig3() -> Graph {
    monarch_fft(FIG3_GROUPS, FIG3_RADIX)
}

/// Builds a one-stage Monarch FFT over `groups` sequences of length
/// `radix^2`.
///
/// # Panics
///
/// Panics if `groups` or `radix` is zero (via shape validation).
pub fn monarch_fft(groups: usize, radix: usize) -> Graph {
    let mut b = GraphBuilder::new(format!("monarch-fft-{groups}x{radix}"));
    let view = Shape::new([groups, radix, radix]);
    let x = b.tensor("X", view, DType::Bf16, TensorKind::Input);
    let s1 = b.tensor(
        "S1",
        Shape::mat(radix, radix),
        DType::ComplexBf16,
        TensorKind::Weight,
    );
    let s2 = b.tensor(
        "S2",
        Shape::mat(radix, radix),
        DType::ComplexBf16,
        TensorKind::Weight,
    );
    let twiddle = b.tensor("twiddle", view, DType::ComplexBf16, TensorKind::Generated);
    let xc = b
        .node_with_dtype(
            "to_complex",
            OpKind::Unary(UnaryKind::Cast),
            &[x],
            Some(DType::ComplexBf16),
        )
        .expect("cast shapes are valid");
    let g0 = b
        .node("gemm0", OpKind::Gemm { transpose_b: false }, &[xc, s1])
        .expect("gemm0 shapes are valid");
    let tw = b
        .node(
            "mul_twiddle",
            OpKind::Binary(BinaryKind::Mul),
            &[g0, twiddle],
        )
        .expect("twiddle mul shapes are valid");
    let tr = b
        .node(
            "transpose",
            OpKind::Transpose {
                perm: [0, 2, 1].into(),
            },
            &[tw],
        )
        .expect("transpose shapes are valid");
    let g1 = b
        .node("gemm1", OpKind::Gemm { transpose_b: false }, &[tr, s2])
        .expect("gemm1 shapes are valid");
    let y = b
        .node_with_dtype(
            "to_real",
            OpKind::Unary(UnaryKind::Cast),
            &[g1],
            Some(DType::Bf16),
        )
        .expect("cast shapes are valid");
    b.mark_output(y);
    b.build().expect("graph is non-empty")
}

/// Builds the full FlashFFTConv graph: forward Monarch FFT, pointwise
/// multiplication with the (pre-transformed) filter, and inverse Monarch
/// FFT. `levels` is the decomposition order (2 for N = radix^2, 3 for
/// N = radix^3 — "higher order Monarch FFT decompositions" in §III-A).
///
/// `batch` independent sequences of length `radix^levels` are processed as
/// `[batch * radix^(levels-2), radix, radix]` group views, giving the
/// many-small-GEMMs structure the paper describes (32x32x32 or smaller
/// matrix multiplies at radix 32).
///
/// # Panics
///
/// Panics if `levels < 2`.
pub fn flash_fft_conv(batch: usize, radix: usize, levels: usize) -> Graph {
    assert!(levels >= 2, "monarch decomposition needs at least 2 levels");
    let seq_len: usize = radix.pow(levels as u32);
    let groups = batch * radix.pow(levels as u32 - 2);
    let view = Shape::new([groups, radix, radix]);
    let mut b = GraphBuilder::new(format!("flashfftconv-{}", batch * seq_len));
    let x = b.tensor("X", view, DType::Bf16, TensorKind::Input);
    let filter = b.tensor("filter_hat", view, DType::ComplexBf16, TensorKind::Weight);
    let mut cur = b
        .node_with_dtype(
            "to_complex",
            OpKind::Unary(UnaryKind::Cast),
            &[x],
            Some(DType::ComplexBf16),
        )
        .expect("cast shapes are valid");

    let fft_pass = |b: &mut GraphBuilder, mut cur: TensorId, tag: &str| -> TensorId {
        for level in 0..levels {
            let s = b.tensor(
                format!("S_{tag}{level}"),
                Shape::mat(radix, radix),
                DType::ComplexBf16,
                TensorKind::Weight,
            );
            cur = b
                .node(
                    format!("{tag}_gemm{level}"),
                    OpKind::Gemm { transpose_b: false },
                    &[cur, s],
                )
                .expect("fft gemm shapes are valid");
            if level + 1 < levels {
                let tw = b.tensor(
                    format!("{tag}_twiddle{level}"),
                    view,
                    DType::ComplexBf16,
                    TensorKind::Generated,
                );
                cur = b
                    .node(
                        format!("{tag}_twiddle_mul{level}"),
                        OpKind::Binary(BinaryKind::Mul),
                        &[cur, tw],
                    )
                    .expect("twiddle shapes are valid");
                cur = b
                    .node(
                        format!("{tag}_transpose{level}"),
                        OpKind::Transpose {
                            perm: [0, 2, 1].into(),
                        },
                        &[cur],
                    )
                    .expect("transpose shapes are valid");
            }
        }
        cur
    };

    cur = fft_pass(&mut b, cur, "fft");
    cur = b
        .node(
            "filter_mul",
            OpKind::Binary(BinaryKind::Mul),
            &[cur, filter],
        )
        .expect("filter mul shapes are valid");
    cur = fft_pass(&mut b, cur, "ifft");

    let y = b
        .node_with_dtype(
            "to_real",
            OpKind::Unary(UnaryKind::Cast),
            &[cur],
            Some(DType::Bf16),
        )
        .expect("cast shapes are valid");
    b.mark_output(y);
    b.build().expect("graph is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::{fusion_levels, FusionLevel};

    #[test]
    fn fig3_has_the_paper_structure() {
        let g = monarch_fig3();
        // cast, gemm0, mul, transpose, gemm1, cast.
        assert_eq!(g.node_count(), 6);
        let gemms = g.nodes().iter().filter(|n| n.op.is_gemm()).count();
        assert_eq!(gemms, 2);
    }

    #[test]
    fn fig3_reproduces_table1_regimes() {
        // Table I: unfused and partially fused are memory-bound on an
        // A100-class roofline (balance ~150 FLOPs/byte); fully fused is
        // compute-bound. Paper values: 39.5 / 102.6 / 410.4.
        let g = monarch_fig3();
        let levels = fusion_levels(&g);
        let none = levels[&FusionLevel::None];
        let partial = levels[&FusionLevel::Partial];
        let full = levels[&FusionLevel::Full];
        assert!(none < 60.0 && none > 20.0, "unfused {none}");
        assert!(partial < 150.0 && partial > 60.0, "partial {partial}");
        assert!(full > 300.0, "full {full}");
    }

    #[test]
    fn fftconv_scales_with_levels() {
        let two = flash_fft_conv(1, 32, 2);
        let three = flash_fft_conv(1, 32, 3);
        assert!(three.node_count() > two.node_count());
        assert!(three.total_flops() > two.total_flops());
    }

    #[test]
    fn fftconv_has_many_operators() {
        // §VIII-3: streaming dataflow pipelines commonly contain 20+
        // operators once decomposed; the 3-level FFT conv is the motivating
        // case (its full unfused form launches one kernel per operator).
        let g = flash_fft_conv(4, 32, 3);
        assert!(g.node_count() >= 15, "got {}", g.node_count());
    }

    #[test]
    fn fftconv_gemms_are_small() {
        // "many small matrix multiplies that are 32x32x32 or smaller".
        let g = flash_fft_conv(4, 32, 3);
        let mut gemms = 0;
        for n in g.nodes().iter().filter(|n| n.op.is_gemm()) {
            let w = &g.tensor(n.inputs[1]).shape;
            assert_eq!(w.dims(), &[32, 32]);
            gemms += 1;
        }
        assert_eq!(gemms, 6, "3 forward + 3 inverse factor multiplies");
    }

    #[test]
    fn fftconv_fusion_raises_intensity_dramatically() {
        let g = flash_fft_conv(4, 32, 3);
        let levels = fusion_levels(&g);
        let ratio = levels[&FusionLevel::Full] / levels[&FusionLevel::None];
        assert!(
            ratio > 5.0,
            "full fusion should transform intensity, got {ratio:.1}x"
        );
    }
}
