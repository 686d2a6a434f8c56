//! The dataflow compiler: turns a [`sn_dataflow::Graph`] into an
//! [`Executable`] for one RDU socket.
//!
//! The pipeline mirrors the software stack described in the paper:
//!
//! 1. [`fusion`] — partition the graph into spatially fused kernels under
//!    on-chip resource constraints (§III-A, §VI-A), or one kernel per
//!    operator for the unfused baseline;
//! 2. [`resources`] — assign PCU gangs and PMU stage buffers to each
//!    kernel, balancing stages by their share of the work (Figure 4);
//! 3. [`place`] — place units on the tile mesh and route flows, including
//!    flow-ID allocation (§IV-C, §IV-E);
//! 4. [`memplan`] — static symbol-lifetime memory allocation with
//!    address reuse ("static garbage collection") and bandwidth-sorted DDR
//!    spill (§V-A);
//! 5. [`estimate`] — the static bandwidth model: per-kernel time from
//!    compute/memory rooflines, pipeline fill, and collective exposure
//!    (§VII "Managing bandwidth in software").
//!
//! The result, [`Executable`], is what `sn-runtime` launches.
//!
//! # Example
//!
//! ```
//! use sn_compiler::{Compiler, FusionPolicy};
//! use sn_dataflow::monarch::monarch_fig3;
//! use sn_arch::prelude::*;
//!
//! let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
//! let exe = compiler.compile(&monarch_fig3(), FusionPolicy::Spatial).unwrap();
//! // The whole Figure 3 graph fuses into a single kernel (§VI-A).
//! assert_eq!(exe.kernel_count(), 1);
//! ```

pub mod bandwidth;
pub mod estimate;
pub mod executable;
pub mod fusion;
pub mod memplan;
pub mod place;
pub mod resources;

pub use bandwidth::{plan_executable, plan_streams, StreamPlan};
pub use estimate::{Bound, KernelEstimate};
pub use executable::{Executable, Kernel, KernelId};
pub use fusion::FusionPolicy;
pub use memplan::{MemoryPlan, SpillPolicy, SymbolPlacement};
pub use place::{PlacementReport, Placer};
pub use resources::{KernelResources, ResourceModel};

use sn_arch::{Calibration, SocketSpec};
use sn_dataflow::{Graph, GraphError};
use std::error::Error;
use std::fmt;

/// Compilation failures.
#[derive(Debug)]
pub enum CompileError {
    /// The input graph was malformed.
    Graph(GraphError),
    /// A single operator exceeds the socket's resources even alone.
    OperatorTooLarge {
        node: String,
        pcus: usize,
        pmus: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "graph error: {e}"),
            CompileError::OperatorTooLarge { node, pcus, pmus } => {
                write!(
                    f,
                    "operator {node} needs {pcus} PCUs / {pmus} PMUs, exceeding the socket"
                )
            }
        }
    }
}

impl Error for CompileError {}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}

/// The compiler: a socket target plus calibration constants.
#[derive(Debug, Clone)]
pub struct Compiler {
    socket: SocketSpec,
    calib: Calibration,
}

impl Compiler {
    pub fn new(socket: SocketSpec, calib: Calibration) -> Self {
        Compiler { socket, calib }
    }

    pub fn socket(&self) -> &SocketSpec {
        &self.socket
    }

    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Compiles a graph into an executable under the given fusion policy.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::OperatorTooLarge`] if some single operator
    /// cannot fit the socket even as its own kernel.
    pub fn compile(&self, graph: &Graph, policy: FusionPolicy) -> Result<Executable, CompileError> {
        let model = ResourceModel::new(&self.socket);
        let partition = fusion::partition(graph, policy, &model)?;
        let kernels = executable::build_kernels(graph, partition, &model);
        let memory = memplan::plan(graph, &kernels, &self.socket);
        let estimates = kernels
            .iter()
            .map(|k| estimate::estimate_kernel(graph, k, &self.socket, &self.calib, policy))
            .collect();
        Ok(Executable::new(
            graph.name().to_string(),
            policy,
            kernels,
            estimates,
            memory,
        ))
    }
}
