//! Samba-CoE: a trillion-parameter Composition of Experts (§II, §V, §VI-B).
//!
//! - [`expert`]: the expert library — 150 Llama2-7B-class specialists
//!   summing to over a trillion parameters;
//! - [`router`]: deterministic prompt generation and routing (the router
//!   is itself a Llama2-7B-class model; its *quality* is irrelevant to the
//!   systems evaluation, so routing is a seeded hash over prompt domains,
//!   computed once per router for each of its 160 keys);
//! - [`serving`]: the end-to-end pipeline on the SN40L node — run the
//!   router, switch the expert DDR→HBM, run the expert (Figure 9);
//! - [`scheduler`]: online serving — seeded arrival processes, an
//!   admission queue, and iteration-level continuous batching that
//!   degenerates bit-identically to [`serving`]'s batch path on a
//!   t = 0 burst;
//! - [`comparison`]: latency and breakdown models for SN40L vs DGX
//!   A100/H100 (Figures 1 and 12, Table III);
//! - [`tenancy`]: multi-tenant admission control over the cluster —
//!   SLO classes, token-bucket rate limits, bounded queues, load
//!   shedding, and wave-boundary preemption, chaos-aware;
//! - [`autoscale`]: a hysteretic SLO-driven capacity controller that
//!   grows/shrinks the cluster and re-homes experts between waves;
//! - [`placement`]: router-statistics-driven policy — predictive
//!   DDR→HBM prefetch at wave boundaries, hot-expert replication, and
//!   cold-expert spreading (PR 7);
//! - [`kv`]: a paged KV cache with cost-aware LRU eviction under the
//!   HBM budget shared with expert weights;
//! - [`programs`]: the shared expert architecture's compiled prefill /
//!   decode pair, memoized once per process.
//!
//! # Example
//!
//! ```
//! use sn_coe::expert::ExpertLibrary;
//!
//! let lib = ExpertLibrary::samba_coe_150();
//! assert_eq!(lib.len(), 150);
//! // §I: "a CoE system with 150 experts and a trillion total parameters".
//! assert!(lib.total_params() > 1_000_000_000_000);
//! ```

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod cluster;
pub mod comparison;
pub mod expert;
pub mod generation;
pub mod kv;
pub mod placement;
pub mod programs;
pub mod router;
pub mod scheduler;
pub mod serving;
pub mod tenancy;
pub mod workload;

pub use autoscale::{AutoscaleConfig, AutoscaleController, ScaleDecision, ScaleEvent};
pub use cluster::{
    ClusterReport, CoeCluster, PlacementOutcome, PrefetchOutcome, RebalanceReport, WaveOutcome,
    WavePlacement, WaveSlot,
};
pub use comparison::{request_latency, LatencyBreakdown, Platform};
pub use expert::{ExpertInfo, ExpertLibrary};
pub use generation::GenerationModel;
pub use kv::{KvStats, KvTouch, PagedKvCache, PagedKvConfig};
pub use placement::{
    ExpertStats, PlacementPlan, PlacementPolicy, PlacementView, PolicyConfig, PolicyReport,
    PrefetchPolicy, ServingPolicies,
};
pub use programs::ExpertPrograms;
pub use router::{Domain, Prompt, PromptGenerator, Router};
pub use scheduler::{
    ArrivalPattern, ArrivalProcess, OnlineReport, OnlineRequest, RequestRecord, SchedulerConfig,
};
pub use serving::{SambaCoeNode, ServeReport};
pub use tenancy::{
    merged_stream, ClassPolicy, RateLimit, ShedReason, ShedRecord, SloClass, TenancyConfig,
    TenancyReport, TenantRecord, TenantRequest, TenantSpec, TenantSummary, WaveFeature,
};
pub use workload::{TraceConfig, TraceGenerator};
