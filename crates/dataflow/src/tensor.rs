//! Tensor definitions: the values carried on dataflow-graph edges.

use crate::dtype::DType;
use crate::shape::Shape;
use sn_arch::Bytes;
use std::fmt;

/// Identifier of a tensor within one [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub(crate) u32);

impl TensorId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The role a tensor plays; drives memory placement decisions (§V-A: weights
/// get priority to stay in HBM, activations spill first) and the runtime's
/// read-only copy-back elision (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Model parameter, read-only at inference time.
    Weight,
    /// Graph input supplied by the caller.
    Input,
    /// Graph output returned to the caller.
    Output,
    /// Intermediate value between operators.
    Activation,
    /// Key/value cache state, read-write, persists across decode steps.
    KvCache,
    /// Small metadata (masks, position ids, lookup tables).
    Metadata,
    /// Values generated on-chip (padding, twiddle factors, RNG) that never
    /// touch off-chip memory (§IV-E "efficient on-chip pad generation").
    Generated,
}

impl TensorKind {
    /// Whether the runtime may skip copying this tensor back to DDR when an
    /// expert is evicted from HBM (§V-B).
    pub fn is_read_only(self) -> bool {
        matches!(
            self,
            TensorKind::Weight | TensorKind::Metadata | TensorKind::Generated
        )
    }
}

/// A tensor declaration inside a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDef {
    pub name: String,
    pub shape: Shape,
    pub dtype: DType,
    pub kind: TensorKind,
}

impl TensorDef {
    pub fn new(name: impl Into<String>, shape: Shape, dtype: DType, kind: TensorKind) -> Self {
        TensorDef {
            name: name.into(),
            shape,
            dtype,
            kind,
        }
    }

    /// Storage footprint of this tensor.
    pub fn bytes(&self) -> Bytes {
        Bytes::new(self.shape.elements() * self.dtype.size_bytes())
    }

    /// Whether this tensor contributes off-chip traffic when read at a
    /// fused-kernel boundary. [`TensorKind::Generated`] tensors never do.
    pub fn is_offchip(&self) -> bool {
        !matches!(self.kind, TensorKind::Generated)
    }
}

impl fmt::Display for TensorDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}{}", self.name, self.shape, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_scale_with_dtype() {
        let s = Shape::new([1024]);
        let bf = TensorDef::new("a", s, DType::Bf16, TensorKind::Activation);
        let fp = TensorDef::new("b", s, DType::Fp32, TensorKind::Activation);
        assert_eq!(bf.bytes(), Bytes::new(2048));
        assert_eq!(fp.bytes(), Bytes::new(4096));
    }

    #[test]
    fn weights_are_read_only() {
        assert!(TensorKind::Weight.is_read_only());
        assert!(!TensorKind::KvCache.is_read_only());
        assert!(!TensorKind::Activation.is_read_only());
    }

    #[test]
    fn generated_tensors_are_not_offchip() {
        let t = TensorDef::new(
            "twiddle",
            Shape::new([64, 64]),
            DType::ComplexBf16,
            TensorKind::Generated,
        );
        assert!(!t.is_offchip());
    }
}
