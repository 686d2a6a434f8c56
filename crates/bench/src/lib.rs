//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each function in [`experiments`] computes the data series behind one
//! exhibit; the `repro` binary formats them, and the Criterion benches
//! under `benches/` time the underlying library operations. Ablations for
//! the design choices called out in DESIGN.md live in [`ablations`].

pub mod ablations;
pub mod experiments;
pub mod faults;
pub mod grid;
pub mod intra;
pub mod obs;
pub mod par;
pub mod placement;
pub mod profile;
pub mod serve;
pub mod tenants;
pub mod trace;
pub mod validate;

pub use experiments::{fig1, fig10, fig11, fig12, fig13, table1, table2_rows, table3};
pub use par::{available_jobs, ordered_map};
pub use profile::{bench_snapshot, profiled_fig12_run, ProfiledRun};
