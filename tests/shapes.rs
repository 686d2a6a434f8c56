//! `Shape` holds its dimensions inline, up to `MAX_RANK` of them. These
//! tests pin what must not change with that representation: the `Debug`
//! bytes and the hash of the `Vec<usize>` form it replaced (program
//! signatures hash shapes, and `Debug` renderings are digested), and what
//! the cap means: every graph the workspace builds fits under it, and an
//! operator that would pass it is a shape error, not a panic.

use samba_coe::models::{build, build_vit, table2, Phase, TransformerConfig, VitConfig};
use sn_dataflow::monarch::{flash_fft_conv, monarch_fft, monarch_fig3};
use sn_dataflow::MAX_RANK;
use sn_dataflow::{DType, Dims, Graph, GraphBuilder, GraphError, OpKind, Shape, TensorKind};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The `Vec<usize>` shape the inline one replaced, with its derives.
#[derive(Debug, Hash)]
struct VecShape(Vec<usize>);

fn sip<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

#[test]
fn debug_and_hash_match_the_vec_form() {
    for dims in [&[1][..], &[8, 4096], &[2, 3, 4], &[1, 2, 3, 4]] {
        let (inline, old) = (Shape::new(dims), VecShape(dims.to_vec()));
        let old_debug = |pretty: bool| {
            let text = if pretty {
                format!("{old:#?}")
            } else {
                format!("{old:?}")
            };
            text.replacen("VecShape", "Shape", 1)
        };
        assert_eq!(format!("{inline:?}"), old_debug(false));
        assert_eq!(format!("{inline:#?}"), old_debug(true));
        assert_eq!(sip(&inline), sip(&old), "{dims:?}");
        assert_eq!(sip(inline.dims()), sip(&dims.to_vec()), "{dims:?}");
        let as_dims = Dims::from_slice(dims).expect("within the cap");
        assert_eq!(format!("{as_dims:?}"), format!("{:?}", dims.to_vec()));
        assert_eq!(sip(&as_dims), sip(&dims.to_vec()), "{dims:?}");
    }
    assert_eq!(format!("{:?}", Shape::mat(8, 4096)), "Shape([8, 4096])");
    let reshape = OpKind::Reshape {
        dims: [4, 2, 8].into(),
    };
    assert_eq!(format!("{reshape:?}"), "Reshape { dims: [4, 2, 8] }");
}

#[test]
fn an_embedding_past_the_rank_cap_is_a_shape_error() {
    let mut b = GraphBuilder::new("embed");
    let table = b.tensor("table", Shape::mat(32, 8), DType::Bf16, TensorKind::Weight);
    let fits = b.tensor(
        "ids",
        Shape::new([1; MAX_RANK - 1]),
        DType::Int8,
        TensorKind::Input,
    );
    let full = b.tensor(
        "ids",
        Shape::new([1; MAX_RANK]),
        DType::Int8,
        TensorKind::Input,
    );
    let ok = b.node("embed", OpKind::Embedding, &[table, fits]).unwrap();
    assert_eq!(b.shape_of(ok).rank(), MAX_RANK);
    let err = b.node("embed", OpKind::Embedding, &[table, full]);
    assert!(matches!(err, Err(GraphError::Shape(_))), "{err:?}");
    assert_eq!(b.node_count(), 1, "the failed node was not added");
}

/// A reshape or transpose parameter past the cap cannot be built: an
/// array longer than `MAX_RANK` does not convert to `Dims` (a compile
/// error), and a slice converts to `None`. Up to the cap, a reshape goes
/// through the builder, and a malformed one is a shape error.
#[test]
fn a_reshape_past_the_rank_cap_cannot_be_built() {
    assert!(Dims::from_slice(&[1; MAX_RANK + 1]).is_none());
    assert!(Dims::from_slice(&[1; MAX_RANK]).is_some());
    let mut b = GraphBuilder::new("reshape");
    let x = b.tensor("x", Shape::mat(16, 4), DType::Bf16, TensorKind::Input);
    let y = b
        .node(
            "to_cap",
            OpKind::Reshape {
                dims: [2, 2, 4, 4].into(),
            },
            &[x],
        )
        .unwrap();
    assert_eq!(b.shape_of(y), &Shape::new([2, 2, 4, 4]));
    let err = b.node(
        "zero",
        OpKind::Reshape {
            dims: [16, 0, 4, 1].into(),
        },
        &[x],
    );
    assert!(matches!(err, Err(GraphError::Shape(_))), "{err:?}");
}

fn max_rank(graph: &Graph) -> usize {
    graph
        .tensors()
        .iter()
        .map(|t| t.shape.rank())
        .max()
        .unwrap_or(0)
}

/// Every graph the workspace builds: the Table II suite, each model
/// preset in each phase, the vision encoder and the FFT examples. The
/// largest rank is 3, so an embedding over such ids still fits.
#[test]
fn the_rank_cap_covers_every_shape_the_workspace_builds() {
    let mut graphs: Vec<Graph> = table2().iter().map(|b| b.build_graph()).collect();
    let presets = [
        TransformerConfig::llama2_7b(),
        TransformerConfig::llama2_70b(),
        TransformerConfig::mistral_7b(),
        TransformerConfig::falcon_40b(),
        TransformerConfig::bloom_176b(),
        TransformerConfig::llava15_7b(),
        TransformerConfig::sparsegpt_13b(),
        TransformerConfig::mixtral_8x7b(),
        TransformerConfig::llama2_7b().quantized_int8(),
    ];
    for cfg in &presets {
        for phase in [
            Phase::Prefill { prompt_tokens: 64 },
            Phase::Decode { past_tokens: 64 },
            Phase::Train { seq: 64 },
        ] {
            graphs.push(build(cfg, phase, 2, 8).expect("preset builds"));
        }
    }
    graphs.push(build_vit(&VitConfig::clip_vit_l14(), 1, 8).expect("vit builds"));
    graphs.extend([monarch_fig3(), monarch_fft(4, 16), flash_fft_conv(8, 32, 3)]);
    let largest = graphs.iter().map(max_rank).max().expect("graphs");
    assert_eq!(largest, 3, "the largest shape the workspace builds");
    assert!(largest < MAX_RANK, "an embedding adds one axis");
}
