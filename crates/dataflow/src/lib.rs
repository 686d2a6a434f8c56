//! Dataflow graph IR for the SN40L reproduction.
//!
//! Models are expressed as directed acyclic graphs of tensor operators
//! (§III-A of the paper). Every operator reports its FLOP count and its
//! input/output byte traffic, which is what the fusion analysis
//! ([`intensity`]) and the compiler's static bandwidth model consume.
//!
//! # Example
//!
//! Build the paper's Figure 3 example (simplified Monarch FFT) and compute
//! the operational intensity of the fully fused pipeline (Table I):
//!
//! ```
//! use sn_dataflow::monarch::monarch_fig3;
//! use sn_dataflow::intensity::{fusion_levels, FusionLevel};
//!
//! let graph = monarch_fig3();
//! let levels = fusion_levels(&graph);
//! // Intensity strictly increases with fusion aggressiveness.
//! assert!(levels[&FusionLevel::None] < levels[&FusionLevel::Partial]);
//! assert!(levels[&FusionLevel::Partial] < levels[&FusionLevel::Full]);
//! ```

pub mod dot;
pub mod dtype;
pub mod graph;
pub mod intensity;
pub mod interp;
pub mod monarch;
pub mod op;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use dtype::DType;
pub use graph::{Graph, GraphBuilder, GraphError, NodeId};
pub use op::{AccessPattern, BinaryKind, InputShapes, Node, OpKind, ReduceKind, UnaryKind};
pub use shape::Shape;
pub use tensor::{TensorDef, TensorId, TensorKind};
