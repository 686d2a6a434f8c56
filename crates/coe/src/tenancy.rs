//! Multi-tenant serving: admission control, load shedding, preemption,
//! and SLO-driven autoscaling over the cluster, proven under chaos.
//!
//! The paper's serving story assumes a cooperative single stream; a
//! production Samba-CoE deployment faces *named tenants* with different
//! service classes misbehaving together. This module layers that
//! frontend over [`CoeCluster::serve_wave`]:
//!
//! - **Tenants and classes.** Each [`TenantSpec`] carries an SLO class
//!   ([`SloClass::Interactive`] or [`SloClass::Batch`]), a seeded
//!   arrival process, and a token-bucket rate limit. Per-tenant streams
//!   merge into one deterministic arrival sequence ordered by
//!   `(arrival, tenant, index)`.
//! - **Admission and shedding.** Requests pass the tenant's token
//!   bucket, then a bounded per-class queue. Every loss is a first-class
//!   [`ShedRecord`] with a [`ShedReason`] — rate-limited, queue-full,
//!   timed out, or capacity lost — never a silent drop, and the
//!   conservation identity `admitted = completed + shed + pending` is
//!   checkable on every report.
//! - **Priority and preemption.** Waves fill interactive-first; when
//!   interactive demand saturates a wave, in-flight batch chunks are
//!   preempted at the wave boundary (progress kept, resumed later).
//! - **Autoscaling.** An optional [`AutoscaleController`] watches
//!   interactive completions; its decisions apply as
//!   [`CoeCluster::add_node`] + [`CoeCluster::rebalance_experts`] or
//!   [`CoeCluster::drain_node`], each recorded as a `ScaleEvent`.
//! - **Chaos.** An optional [`ChaosSchedule`] crashes/restores
//!   correlated node sets at model-time instants and degrades the wave
//!   fabric inside fault windows — so the degradation modes above are
//!   exercised exactly when capacity matters most.
//!
//! Everything is model time and seed-deterministic: two runs of the same
//! scenario produce byte-identical reports.
//!
//! # Examples
//!
//! Merge two tenants' seeded arrival streams into the deterministic
//! submission order the serving engine consumes:
//!
//! ```
//! use sn_coe::scheduler::ArrivalPattern;
//! use sn_coe::tenancy::{merged_stream, TenancyConfig, TenantSpec};
//! use sn_coe::{RateLimit, SloClass};
//!
//! let tenants = [
//!     TenantSpec {
//!         name: "chat".into(),
//!         class: SloClass::Interactive,
//!         pattern: ArrivalPattern::Poisson { rate_rps: 100.0 },
//!         requests: 4,
//!         rate_limit: RateLimit::unlimited(),
//!     },
//!     TenantSpec {
//!         name: "lab".into(),
//!         class: SloClass::Batch,
//!         pattern: ArrivalPattern::Burst,
//!         requests: 2,
//!         rate_limit: RateLimit::unlimited(),
//!     },
//! ];
//! let stream = merged_stream(&tenants, &TenancyConfig::default());
//! assert_eq!(stream.len(), 6);
//! // Global submission indices follow (arrival, tenant, index) order,
//! // so the t = 0 batch burst lands ahead of the Poisson arrivals.
//! assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! assert_eq!(stream[0].submit, 0);
//! ```

use crate::autoscale::{AutoscaleController, ScaleDecision, ScaleEvent};
use crate::cluster::{CoeCluster, WavePlacement, WaveSlot};
use crate::router::Prompt;
use crate::scheduler::{ArrivalPattern, ArrivalProcess};
use sn_arch::{Bytes, TimeSecs};
use sn_faults::{ChaosEventKind, ChaosSchedule, FaultDecision, FaultSite};
use sn_obs::Obs;
use sn_profile::BatchObservation;
use sn_runtime::coe::CoeError;
use sn_trace::Counter;
use std::collections::VecDeque;

/// Service class a tenant's traffic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Latency-sensitive: admitted first, preempts batch, short chunks.
    Interactive,
    /// Throughput traffic: best-effort, preemptible, longer decodes.
    Batch,
}

impl SloClass {
    /// Human-readable class name for tables.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
        }
    }
}

/// Token-bucket rate limit for one tenant, in requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: the burst a tenant may land at once.
    pub burst: f64,
    /// Sustained refill rate, requests per second of model time.
    pub refill_per_sec: f64,
}

impl RateLimit {
    /// No rate limiting for this tenant.
    pub fn unlimited() -> Self {
        RateLimit {
            burst: f64::INFINITY,
            refill_per_sec: 0.0,
        }
    }

    /// A sustained rate with a burst allowance.
    pub fn per_sec(refill_per_sec: f64, burst: f64) -> Self {
        RateLimit {
            burst,
            refill_per_sec,
        }
    }
}

/// One named tenant: class, traffic shape, and rate limit.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (reports key summaries by it).
    pub name: String,
    /// Service class of every request this tenant submits.
    pub class: SloClass,
    /// Seeded arrival process shape.
    pub pattern: ArrivalPattern,
    /// Requests the tenant submits over the run.
    pub requests: usize,
    /// Token-bucket admission limit.
    pub rate_limit: RateLimit,
}

/// Per-class queueing and SLO policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// Bounded queue depth; arrivals beyond it shed as
    /// [`ShedReason::QueueFull`] (backpressure).
    pub queue_cap: usize,
    /// A request still queued this long after arrival sheds as
    /// [`ShedReason::TimedOut`].
    pub deadline: TimeSecs,
    /// End-to-end latency bound for goodput accounting (and, for
    /// interactive, the p99 target the autoscaler defends).
    pub slo_bound: TimeSecs,
    /// Decode chunks a request needs: its output is
    /// `chunks * wave_tokens` tokens, one chunk per wave.
    pub chunks: usize,
}

/// Tenancy-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyConfig {
    /// Seed for every per-tenant arrival/prompt stream.
    pub seed: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Decode tokens served per wave chunk.
    pub wave_tokens: usize,
    /// Wave admission slots per healthy node.
    pub per_node_slots: usize,
    /// Interactive-class policy.
    pub interactive: ClassPolicy,
    /// Batch-class policy.
    pub batch: ClassPolicy,
    /// Safety valve: after this many waves the run sheds whatever is
    /// left as capacity loss instead of looping forever.
    pub max_waves: usize,
}

impl TenancyConfig {
    /// The policy governing `class`.
    pub fn policy(&self, class: SloClass) -> &ClassPolicy {
        match class {
            SloClass::Interactive => &self.interactive,
            SloClass::Batch => &self.batch,
        }
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            seed: 0x007e_4a47,
            prompt_tokens: 512,
            wave_tokens: 8,
            per_node_slots: 4,
            interactive: ClassPolicy {
                queue_cap: 32,
                deadline: TimeSecs::from_millis(500.0),
                slo_bound: TimeSecs::from_millis(250.0),
                chunks: 1,
            },
            batch: ClassPolicy {
                queue_cap: 128,
                deadline: TimeSecs::from_secs(30.0),
                slo_bound: TimeSecs::from_secs(10.0),
                chunks: 4,
            },
            max_waves: 100_000,
        }
    }
}

/// One request of the merged multi-tenant arrival stream.
#[derive(Debug, Clone)]
pub struct TenantRequest {
    /// Index into the scenario's tenant slice.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index (merged-stream order).
    pub submit: usize,
    /// The prompt to serve.
    pub prompt: Prompt,
    /// Arrival in model time.
    pub arrival: TimeSecs,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The tenant's token bucket was empty at arrival.
    RateLimited,
    /// The class queue was at capacity (backpressure).
    QueueFull,
    /// Queued past the class deadline.
    TimedOut,
    /// Lost to capacity: no survivor could host the expert, or the run
    /// ended (total outage / wave budget) with the request unserved.
    CapacityLost,
}

impl ShedReason {
    /// Snake-case reason name for tables.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::TimedOut => "timed_out",
            ShedReason::CapacityLost => "capacity_lost",
        }
    }
}

/// A shed request: a first-class outcome, not a silent drop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index.
    pub submit: usize,
    /// When the request arrived.
    pub arrival: TimeSecs,
    /// When it was shed.
    pub at: TimeSecs,
    /// Why it was shed.
    pub reason: ShedReason,
    /// True when the request had been admitted past ingress (queue entry)
    /// before being shed — the flag the conservation identity sorts by.
    pub was_admitted: bool,
}

/// A completed request's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRecord {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index.
    pub submit: usize,
    /// Arrival in model time.
    pub arrival: TimeSecs,
    /// When the request first entered a serving wave.
    pub admitted: TimeSecs,
    /// When its first token landed (end of its prefill chunk).
    pub first_token: TimeSecs,
    /// When its last chunk finished.
    pub completed: TimeSecs,
    /// Tokens produced.
    pub output_tokens: usize,
    /// Times the request was bumped from a wave by interactive traffic.
    pub preemptions: u32,
}

impl TenantRecord {
    /// Arrival to first wave entry.
    pub fn queue_delay(&self) -> TimeSecs {
        self.admitted - self.arrival
    }

    /// Arrival to first token.
    pub fn ttft(&self) -> TimeSecs {
        self.first_token - self.arrival
    }

    /// Arrival to completion.
    pub fn latency(&self) -> TimeSecs {
        self.completed - self.arrival
    }
}

/// Per-tenant roll-up for tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Tenant class.
    pub class: SloClass,
    /// Requests the tenant submitted.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed (all reasons).
    pub shed: usize,
    /// End-to-end p99 latency over completions (zero when none).
    pub latency_p99: TimeSecs,
}

/// Per-wave phase/occupancy snapshot recorded at every wave boundary
/// of [`CoeCluster::serve_tenants`]-family runs. Pure readers of loop
/// state — collecting them never perturbs the serving timeline, so the
/// tracked report fields stay bit-identical with or without consumers.
/// No library code reads them back; they stay because they are part of
/// the report, whose `Debug` rendering hostbench digests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveFeature {
    /// Wave index (0-based).
    pub wave: usize,
    /// Model time the wave started serving.
    pub start: TimeSecs,
    /// Wave latency after chaos stretching.
    pub latency: TimeSecs,
    /// Occupied slots this wave served.
    pub slots: usize,
    /// Slot capacity at composition time (`per_node_slots × healthy`).
    pub capacity: usize,
    /// Occupied slots holding interactive-class requests.
    pub interactive_slots: usize,
    /// Occupied slots holding batch-class requests.
    pub batch_slots: usize,
    /// Occupied slots running prefill (first chunk) vs pure decode.
    pub prefill_slots: usize,
    /// Interactive queue depth after composition.
    pub queue_interactive: usize,
    /// Batch queue depth after composition.
    pub queue_batch: usize,
    /// Healthy nodes when the wave completed.
    pub healthy_nodes: usize,
    /// Warm expert activations in this wave.
    pub expert_hits: usize,
    /// Cold expert activations in this wave.
    pub expert_misses: usize,
    /// Chaos fabric factor applied to the wave (1.0 = clean).
    pub chaos_factor: f64,
}

/// Result of a multi-tenant serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyReport {
    /// Completed requests, in completion order.
    pub records: Vec<TenantRecord>,
    /// Shed requests, in shed order.
    pub shed: Vec<ShedRecord>,
    /// Applied capacity actions, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Serving waves executed.
    pub waves: usize,
    /// Model time from t = 0 to the last wave's completion.
    pub makespan: TimeSecs,
    /// Requests submitted across all tenants.
    pub submitted: usize,
    /// Requests admitted past ingress (token bucket + queue bound).
    pub admitted: usize,
    /// Requests still in the system when the run returned (always zero:
    /// every exit path completes or sheds what remains; kept explicit so
    /// the conservation identity reads in full).
    pub pending: usize,
    /// Preemption events (one per bumped chunk).
    pub preemptions: usize,
    /// Experts re-homed by reactive failover during waves.
    pub rehomed_experts: usize,
    /// Warm expert activations across all waves (HBM-resident on
    /// demand — including activations a prefetch staged).
    pub expert_hits: usize,
    /// Cold expert activations across all waves (each paid a DDR→HBM
    /// switch on the serving path).
    pub expert_misses: usize,
    /// Total DDR→HBM switch time charged on serving paths.
    pub switch_time: TimeSecs,
    /// Waves retransmitted due to a chaos fault-window `Fail` draw on
    /// the socket fabric (each doubled its wave's latency).
    pub chaos_retransmits: usize,
    /// Waves stretched by a chaos fault-window `Slow` draw on the
    /// socket fabric.
    pub chaos_slowdowns: usize,
    /// Healthy nodes when the run returned.
    pub final_nodes: usize,
    /// Per-wave phase/occupancy snapshots, one per executed wave (in
    /// wave order). Collected unconditionally from loop state the run
    /// already computes, so tracked metrics are unaffected.
    pub wave_features: Vec<WaveFeature>,
    /// Tenant names and classes, index-aligned with record fields.
    pub tenants: Vec<(String, SloClass)>,
    /// The engine configuration the run used (carries the class SLO
    /// bounds goodput accounting needs).
    pub config: TenancyConfig,
    /// What the policy layer did, when the run used
    /// [`CoeCluster::serve_tenants_with_policies`] with a bundle; `None`
    /// on plain runs.
    pub policy: Option<crate::placement::PolicyReport>,
}

impl TenancyReport {
    /// Requests shed for `reason`.
    pub fn shed_by(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| s.reason == reason).count()
    }

    /// Requests rejected at ingress (never admitted).
    pub fn rejected(&self) -> usize {
        self.shed.iter().filter(|s| !s.was_admitted).count()
    }

    /// Admitted requests shed later (timeout, preemption starvation,
    /// capacity loss).
    pub fn shed_after_admission(&self) -> usize {
        self.shed.iter().filter(|s| s.was_admitted).count()
    }

    /// The conservation identity every run must satisfy:
    /// `submitted = admitted + rejected` and
    /// `admitted = completed + shed-after-admission + pending`.
    pub fn conservation_holds(&self) -> bool {
        self.submitted == self.admitted + self.rejected()
            && self.admitted == self.records.len() + self.shed_after_admission() + self.pending
    }

    /// HBM hit rate over demand expert activations: warm over
    /// warm-plus-cold. 1.0 when nothing activated (no switches is a
    /// perfect outcome for this metric).
    pub fn expert_hit_rate(&self) -> f64 {
        let total = self.expert_hits + self.expert_misses;
        if total == 0 {
            1.0
        } else {
            self.expert_hits as f64 / total as f64
        }
    }

    /// Completed records of one class.
    pub fn class_records(&self, class: SloClass) -> impl Iterator<Item = &TenantRecord> {
        self.records.iter().filter(move |r| r.class == class)
    }

    /// Nearest-rank end-to-end latency percentile for a class; zero when
    /// the class completed nothing (NaN-safe by construction).
    pub fn latency_percentile(&self, class: SloClass, q: f64) -> TimeSecs {
        let mut secs: Vec<f64> = self
            .class_records(class)
            .map(|r| r.latency().as_secs())
            .collect();
        sn_profile::sort_for_quantiles(&mut secs);
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, q))
    }

    /// Nearest-rank TTFT percentile for a class; zero when empty.
    pub fn ttft_percentile(&self, class: SloClass, q: f64) -> TimeSecs {
        let mut secs: Vec<f64> = self
            .class_records(class)
            .map(|r| r.ttft().as_secs())
            .collect();
        sn_profile::sort_for_quantiles(&mut secs);
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, q))
    }

    /// Goodput for a class: completions inside the class SLO bound per
    /// second of makespan. Zero on an empty run (no NaN).
    pub fn goodput_rps(&self, class: SloClass) -> f64 {
        let bound = self.config.policy(class).slo_bound;
        let good = self
            .class_records(class)
            .filter(|r| r.latency() <= bound)
            .count();
        if self.makespan.is_zero() {
            0.0
        } else {
            good as f64 / self.makespan.as_secs()
        }
    }

    /// Per-tenant roll-ups, in tenant order.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, (name, class))| {
                let completed: Vec<&TenantRecord> =
                    self.records.iter().filter(|r| r.tenant == t).collect();
                let shed = self.shed.iter().filter(|s| s.tenant == t).count();
                let mut secs: Vec<f64> = completed.iter().map(|r| r.latency().as_secs()).collect();
                sn_profile::sort_for_quantiles(&mut secs);
                TenantSummary {
                    name: name.clone(),
                    class: *class,
                    submitted: completed.len() + shed,
                    completed: completed.len(),
                    shed,
                    latency_p99: TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, 0.99)),
                }
            })
            .collect()
    }
}

/// Builds the deterministic merged arrival stream: each tenant's seeded
/// process generates independently, then streams merge ordered by
/// `(arrival, tenant index, per-tenant index)` and take global
/// submission indices in that order.
pub fn merged_stream(tenants: &[TenantSpec], config: &TenancyConfig) -> Vec<TenantRequest> {
    let mut merged: Vec<(TimeSecs, usize, usize, Prompt)> = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        let seed = tenant_seed(config.seed, t);
        let process = ArrivalProcess::new(seed, config.prompt_tokens, spec.pattern);
        for (i, r) in process.generate(spec.requests).into_iter().enumerate() {
            merged.push((r.arrival, t, i, r.prompt));
        }
    }
    merged.sort_by(|a, b| {
        a.0.as_secs()
            .total_cmp(&b.0.as_secs())
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    merged
        .into_iter()
        .enumerate()
        .map(|(submit, (arrival, tenant, _, prompt))| TenantRequest {
            tenant,
            class: tenants[tenant].class,
            submit,
            prompt,
            arrival,
        })
        .collect()
}

/// Splitmix64-style per-tenant stream seed, so tenants draw independent
/// arrival and prompt streams from one scenario seed.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed ^ (tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Token bucket refilled on model time; deterministic because the
/// merged stream visits it in nondecreasing arrival order per tenant.
#[derive(Debug)]
struct TokenBucket {
    level: f64,
    last: TimeSecs,
    limit: RateLimit,
}

impl TokenBucket {
    fn new(limit: RateLimit) -> Self {
        assert!(
            limit.burst >= 0.0 && limit.refill_per_sec >= 0.0,
            "negative rate limit"
        );
        TokenBucket {
            level: limit.burst,
            last: TimeSecs::ZERO,
            limit,
        }
    }

    fn admit(&mut self, now: TimeSecs) -> bool {
        let dt = (now - self.last).as_secs().max(0.0);
        self.level = (self.level + dt * self.limit.refill_per_sec).min(self.limit.burst);
        self.last = now;
        if self.level >= 1.0 {
            self.level -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A request inside the engine (queued or in flight).
#[derive(Debug, Clone)]
struct Pending {
    tenant: usize,
    class: SloClass,
    submit: usize,
    prompt: Prompt,
    arrival: TimeSecs,
    /// First wave entry, set on first admission to a wave.
    admitted: Option<TimeSecs>,
    /// First token landing, set by the first served chunk.
    first_token: Option<TimeSecs>,
    chunks_left: usize,
    output_tokens: usize,
    preemptions: u32,
}

/// Shed reasons in discriminant order: [`ClassTally::shed`] positions.
const SHED_REASONS: [ShedReason; 4] = [
    ShedReason::RateLimited,
    ShedReason::QueueFull,
    ShedReason::TimedOut,
    ShedReason::CapacityLost,
];
/// Classes in discriminant order: a tenant's [`WaveTally`] cells.
const CLASSES: [SloClass; 2] = [SloClass::Interactive, SloClass::Batch];

/// One (tenant, class)'s outcomes within a wave.
#[derive(Debug, Clone, Copy, Default)]
struct ClassTally {
    completions: u32,
    /// Every outcome: completions and sheds.
    slo_total: u32,
    /// Late completions and sheds.
    slo_bad: u32,
    /// Sheds by reason.
    shed: [u32; SHED_REASONS.len()],
}

/// One wave's observability counter deltas, accumulated locally and
/// handed to [`Obs::add`] once per touched series just before the wave
/// closes. Exact: the registry reads pending deltas only at
/// `end_wave`, and the deltas are integer counts, so one add of `n`
/// leaves the same bits as `n` adds of 1 in the same wave.
struct WaveTally {
    /// Indexed by `tenant * 2 + class`.
    cells: Vec<ClassTally>,
}

impl WaveTally {
    fn new(tenants: usize) -> Self {
        WaveTally {
            cells: vec![ClassTally::default(); tenants * CLASSES.len()],
        }
    }

    fn cell(&mut self, tenant: usize, class: SloClass) -> &mut ClassTally {
        &mut self.cells[tenant * CLASSES.len() + class as usize]
    }

    fn complete(&mut self, tenant: usize, class: SloClass, late: bool) {
        let cell = self.cell(tenant, class);
        cell.completions += 1;
        cell.slo_total += 1;
        cell.slo_bad += u32::from(late);
    }

    /// A shed burns SLO budget: a request the platform lost is a bad
    /// outcome for its tenant's error budget.
    fn shed(&mut self, tenant: usize, class: SloClass, reason: ShedReason) {
        let cell = self.cell(tenant, class);
        cell.slo_total += 1;
        cell.slo_bad += 1;
        cell.shed[reason as usize] += 1;
    }

    /// Adds every non-zero delta to `obs` and clears the tally.
    fn flush(&mut self, obs: &Obs, tenants: &[TenantSpec]) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.slo_total == 0 {
                continue;
            }
            let tenant = tenants[i / CLASSES.len()].name.as_str();
            let class = CLASSES[i % CLASSES.len()].name();
            let labels = [("slo_class", class), ("tenant", tenant)];
            let counts = [
                ("completions", cell.completions),
                ("slo_total", cell.slo_total),
                ("slo_bad", cell.slo_bad),
                ("requests_shed", cell.shed.iter().sum()),
            ];
            for (name, n) in counts {
                if n > 0 {
                    obs.add(name, &labels, f64::from(n));
                }
            }
            for (reason, &n) in SHED_REASONS.iter().zip(&cell.shed) {
                if n > 0 {
                    obs.add(
                        "requests_shed_by_reason",
                        &[
                            ("reason", reason.name()),
                            ("slo_class", class),
                            ("tenant", tenant),
                        ],
                        f64::from(n),
                    );
                }
            }
            *cell = ClassTally::default();
        }
    }
}

impl CoeCluster {
    /// Runs the multi-tenant serving engine to completion: merges the
    /// tenants' arrival streams, applies admission control, serves
    /// priority waves via [`CoeCluster::serve_wave`], applies `chaos`
    /// crash/restore events and fault windows at wave boundaries, and
    /// lets `autoscaler` grow/shrink the cluster between waves.
    ///
    /// Every submitted request ends exactly one way — completed, or shed
    /// with a reason — so [`TenancyReport::conservation_holds`] is an
    /// invariant of every return path (a run that hits a total outage
    /// with no scheduled recovery sheds the remainder as
    /// [`ShedReason::CapacityLost`] rather than erroring).
    ///
    /// # Errors
    ///
    /// Propagates unexpected runtime errors from expert placement;
    /// exhausting capacity is *not* an error (it sheds).
    pub fn serve_tenants(
        &mut self,
        tenants: &[TenantSpec],
        config: &TenancyConfig,
        chaos: Option<&ChaosSchedule>,
        autoscaler: Option<&mut AutoscaleController>,
    ) -> Result<TenancyReport, CoeError> {
        self.serve_tenants_with_policies(tenants, config, chaos, autoscaler, None)
    }

    /// [`CoeCluster::serve_tenants`] with an optional
    /// [`ServingPolicies`](crate::placement::ServingPolicies)
    /// bundle driving predictive prefetch, stats-driven placement, and
    /// paged KV management at wave boundaries (PR 7):
    ///
    /// - after each wave, the router pass feeds
    ///   [`crate::placement::ExpertStats`] and the prefetch policy stages
    ///   predicted-hot experts DDR→HBM for the *next* wave;
    /// - on a cadence, the placement policy replicates hot experts and
    ///   spreads cold ones via [`CoeCluster::apply_placement`];
    /// - each served chunk touches the [`crate::kv::PagedKvCache`];
    ///   evictions ride [`Counter::KvPagesEvicted`] and refaulted live
    ///   pages charge a DDR→HBM refill.
    ///
    /// Background transfers (prefetch, placement, KV refills) overlap
    /// the next wave's compute; only the excess beyond the wave's
    /// latency is exposed on the model clock (and reported as
    /// `transfer_exposed`), so mispredictions cost real bandwidth and —
    /// under short waves — real time.
    ///
    /// With `policies = None` every hook is a no-op and the arithmetic
    /// path is exactly [`CoeCluster::serve_tenants`]' — reports come out
    /// bit-identical (modulo the `policy` field, which is `None`).
    ///
    /// # Errors
    ///
    /// Propagates unexpected runtime errors from expert placement;
    /// exhausting capacity is *not* an error (it sheds).
    pub fn serve_tenants_with_policies(
        &mut self,
        tenants: &[TenantSpec],
        config: &TenancyConfig,
        chaos: Option<&ChaosSchedule>,
        autoscaler: Option<&mut AutoscaleController>,
        policies: Option<&mut crate::placement::ServingPolicies>,
    ) -> Result<TenancyReport, CoeError> {
        self.serve_tenants_observed(
            tenants,
            config,
            chaos,
            autoscaler,
            policies,
            &Obs::disabled(),
        )
    }

    /// [`CoeCluster::serve_tenants_with_policies`] with an [`Obs`]
    /// observability pipeline attached (PR 8): at every wave boundary the
    /// engine samples labeled per-tenant/per-node series (wave latency,
    /// queue depths, HBM hit rate, per-tenant SLO good/bad counters),
    /// evaluates the pipeline's alert rules, and feeds the flight
    /// recorder — chaos crashes and fault-window openings open
    /// post-mortem captures, as do firing alerts.
    ///
    /// The pipeline only *reads* serving state: a run with an enabled
    /// `obs` produces a [`TenancyReport`] bit-identical to the same run
    /// with `Obs::disabled()` (the same contract `sn-trace` keeps).
    /// Alert transitions and frozen bundles ride the tracer as
    /// [`Counter::AlertsFired`], [`Counter::AlertsResolved`], and
    /// [`Counter::PostmortemsCaptured`].
    ///
    /// # Errors
    ///
    /// Propagates unexpected runtime errors from expert placement;
    /// exhausting capacity is *not* an error (it sheds).
    pub fn serve_tenants_observed(
        &mut self,
        tenants: &[TenantSpec],
        config: &TenancyConfig,
        chaos: Option<&ChaosSchedule>,
        mut autoscaler: Option<&mut AutoscaleController>,
        mut policies: Option<&mut crate::placement::ServingPolicies>,
        obs: &Obs,
    ) -> Result<TenancyReport, CoeError> {
        let tracer = self.tracer().clone();
        let stream = merged_stream(tenants, config);
        let submitted = stream.len();
        let chaos_events = chaos.map(|c| c.events()).unwrap_or_default();
        let mut buckets: Vec<TokenBucket> = tenants
            .iter()
            .map(|t| TokenBucket::new(t.rate_limit))
            .collect();
        let mut iq: VecDeque<Pending> = VecDeque::new();
        let mut bq: VecDeque<Pending> = VecDeque::new();
        let mut inflight: Vec<Pending> = Vec::new();
        let mut records: Vec<TenantRecord> = Vec::new();
        let mut shed: Vec<ShedRecord> = Vec::new();
        let mut scale_events: Vec<ScaleEvent> = Vec::new();
        let mut wave_features: Vec<WaveFeature> = Vec::new();
        let mut clock = TimeSecs::ZERO;
        let mut next_request = 0usize;
        let mut next_event = 0usize;
        let mut admitted_count = 0usize;
        let mut preemptions = 0usize;
        let mut rehomed = 0usize;
        let mut retransmits = 0usize;
        let mut slowdowns = 0usize;
        let mut waves = 0usize;
        let mut expert_hits = 0usize;
        let mut expert_misses = 0usize;
        let mut switch_time = TimeSecs::ZERO;
        // Background-transfer debt: prefetch, placement, and KV-refill
        // time incurred at a wave boundary, drained against the next
        // wave's latency (hidden) with the excess exposed on the clock.
        let mut transfer_debt = TimeSecs::ZERO;
        let mut last_placement_wave: Option<usize> = None;
        let kv_switch_bandwidth = self.node_spec().model_switch_bandwidth();
        // Chaos fault-window openings in start order (stable sort keeps
        // declaration order for ties): each crossing opens a post-mortem
        // capture. Only materialized when the pipeline records.
        let mut window_opens: Vec<(TimeSecs, FaultSite)> = if obs.is_enabled() {
            chaos
                .map(|c| c.windows().iter().map(|w| (w.start, w.site)).collect())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        window_opens.sort_by(|a, b| a.0.as_secs().total_cmp(&b.0.as_secs()));
        let mut next_window = 0usize;

        // Counter deltas batched per wave; present exactly when the
        // pipeline records, so blind serves do no tally work.
        let mut tally = obs.is_enabled().then(|| WaveTally::new(tenants.len()));

        let shed_one = |shed: &mut Vec<ShedRecord>,
                        tally: &mut Option<WaveTally>,
                        wave: usize,
                        tenant: usize,
                        class: SloClass,
                        submit: usize,
                        arrival: TimeSecs,
                        at: TimeSecs,
                        reason: ShedReason,
                        was_admitted: bool| {
            shed.push(ShedRecord {
                tenant,
                class,
                submit,
                arrival,
                at,
                reason,
                was_admitted,
            });
            tracer.count(Counter::RequestsShed, 1);
            if let Some(tally) = tally {
                tally.shed(tenant, class, reason);
                let tenant_name = tenants[tenant].name.as_str();
                obs.event(
                    wave,
                    at,
                    None,
                    "shed",
                    &format!("{tenant_name} {}", reason.name()),
                    1.0,
                );
            }
        };

        'serve: loop {
            // Ingress: admit (or shed) everything that has arrived.
            while next_request < stream.len() && stream[next_request].arrival <= clock {
                let r = &stream[next_request];
                next_request += 1;
                tracer.count(Counter::TenantRequests, 1);
                let policy = config.policy(r.class);
                if !buckets[r.tenant].admit(r.arrival) {
                    shed_one(
                        &mut shed,
                        &mut tally,
                        waves,
                        r.tenant,
                        r.class,
                        r.submit,
                        r.arrival,
                        r.arrival,
                        ShedReason::RateLimited,
                        false,
                    );
                    continue;
                }
                let queue = match r.class {
                    SloClass::Interactive => &mut iq,
                    SloClass::Batch => &mut bq,
                };
                if queue.len() >= policy.queue_cap {
                    shed_one(
                        &mut shed,
                        &mut tally,
                        waves,
                        r.tenant,
                        r.class,
                        r.submit,
                        r.arrival,
                        r.arrival,
                        ShedReason::QueueFull,
                        false,
                    );
                    continue;
                }
                admitted_count += 1;
                tracer.count(Counter::RequestsAdmitted, 1);
                queue.push_back(Pending {
                    tenant: r.tenant,
                    class: r.class,
                    submit: r.submit,
                    prompt: r.prompt.clone(),
                    arrival: r.arrival,
                    admitted: None,
                    first_token: None,
                    chunks_left: policy.chunks.max(1),
                    output_tokens: policy.chunks.max(1) * config.wave_tokens,
                    preemptions: 0,
                });
            }

            // Idle: jump model time to the next arrival, or finish.
            if iq.is_empty() && bq.is_empty() && inflight.is_empty() {
                if next_request >= stream.len() {
                    break 'serve;
                }
                clock = clock.max(stream[next_request].arrival);
                continue 'serve;
            }

            // Chaos timeline: crashes and restores due by now.
            while next_event < chaos_events.len() && chaos_events[next_event].at <= clock {
                let ev = chaos_events[next_event];
                next_event += 1;
                if ev.node >= self.nodes() {
                    continue;
                }
                match ev.kind {
                    ChaosEventKind::Crash => {
                        self.fail_node(ev.node);
                        obs.event(waves, clock, Some(ev.node), "node_crash", "", 0.0);
                        obs.incident("chaos_outage", waves, clock);
                    }
                    ChaosEventKind::Restore => {
                        self.restore_node(ev.node);
                        obs.event(waves, clock, Some(ev.node), "node_restore", "", 0.0);
                    }
                }
            }

            // Chaos fault windows opening by now each start a post-mortem
            // capture (a crash window here is redundant with the crash
            // event above; the recorder extends the open capture instead
            // of forking a second one).
            while next_window < window_opens.len() && window_opens[next_window].0 <= clock {
                let (start, site) = window_opens[next_window];
                next_window += 1;
                obs.event(waves, clock, None, "fault_window_open", site.name(), 0.0);
                obs.incident(
                    &format!("fault_window:{}", site.name()),
                    waves,
                    start.max(clock),
                );
            }

            // Deadline sheds: queues are arrival-ordered, pop stale fronts.
            for (queue, policy) in [(&mut iq, &config.interactive), (&mut bq, &config.batch)] {
                while let Some(front) = queue.front() {
                    if clock - front.arrival > policy.deadline {
                        let p = queue.pop_front().expect("peeked");
                        shed_one(
                            &mut shed,
                            &mut tally,
                            waves,
                            p.tenant,
                            p.class,
                            p.submit,
                            p.arrival,
                            clock,
                            ShedReason::TimedOut,
                            true,
                        );
                    } else {
                        break;
                    }
                }
            }
            if iq.is_empty() && bq.is_empty() && inflight.is_empty() {
                continue 'serve;
            }

            // Total outage: wait for a scheduled recovery, else shed out.
            if self.healthy_nodes() == 0 {
                let revival = chaos_events[next_event..]
                    .iter()
                    .find(|e| e.kind == ChaosEventKind::Restore && e.node < self.nodes());
                match revival {
                    Some(e) => {
                        clock = clock.max(e.at);
                        continue 'serve;
                    }
                    None => break 'serve,
                }
            }

            // Wave budget safety valve.
            if waves >= config.max_waves {
                break 'serve;
            }

            // Capacity control at the wave boundary.
            if let Some(controller) = autoscaler.as_deref_mut() {
                let healthy = self.healthy_nodes();
                match controller.evaluate(healthy) {
                    ScaleDecision::Hold => {}
                    ScaleDecision::Up => {
                        self.add_node();
                        let rebalance = self.rebalance_experts();
                        tracer.count(Counter::ScaleUps, 1);
                        scale_events.push(ScaleEvent {
                            wave: waves,
                            at: clock,
                            decision: ScaleDecision::Up,
                            from_nodes: healthy,
                            to_nodes: self.healthy_nodes(),
                            moved_experts: rebalance.moved_experts,
                            transfer_time: rebalance.transfer_time,
                        });
                        obs.event(
                            waves,
                            clock,
                            None,
                            "scale_up",
                            "",
                            rebalance.moved_experts as f64,
                        );
                    }
                    ScaleDecision::Down => {
                        let victim = (0..self.nodes())
                            .rev()
                            .find(|i| !self.failed_nodes().contains(i));
                        if let Some(victim) = victim {
                            if let Ok(rebalance) = self.drain_node(victim) {
                                tracer.count(Counter::ScaleDowns, 1);
                                scale_events.push(ScaleEvent {
                                    wave: waves,
                                    at: clock,
                                    decision: ScaleDecision::Down,
                                    from_nodes: healthy,
                                    to_nodes: self.healthy_nodes(),
                                    moved_experts: rebalance.moved_experts,
                                    transfer_time: rebalance.transfer_time,
                                });
                                obs.event(
                                    waves,
                                    clock,
                                    None,
                                    "scale_down",
                                    "",
                                    rebalance.moved_experts as f64,
                                );
                            }
                        }
                    }
                }
            }

            // Stats-driven placement on its cadence: replicate hot
            // experts, spread cold ones. Weight movement is backgroundable
            // (it joins the transfer debt, not the serving path).
            if let Some(pol) = policies.as_deref_mut() {
                if pol.placement_due(waves as u64) && last_placement_wave != Some(waves) {
                    last_placement_wave = Some(waves);
                    if let Some(plan) = pol.plan_placement(&self.placement_view()) {
                        if !plan.is_empty() {
                            let applied = self.apply_placement(&plan);
                            pol.report.experts_replicated += applied.replicated;
                            pol.report.cold_moves += applied.moves;
                            transfer_debt += applied.transfer_time;
                        }
                    }
                }
            }

            // Compose the wave: continuing interactive, new interactive,
            // then batch into whatever slots remain — interactive demand
            // preempts in-flight batch at this boundary.
            let capacity = config.per_node_slots.max(1) * self.healthy_nodes();
            let mut wave: Vec<Pending> = Vec::new();
            let mut continuing_batch: Vec<Pending> = Vec::new();
            for p in inflight.drain(..) {
                match p.class {
                    SloClass::Interactive => wave.push(p),
                    SloClass::Batch => continuing_batch.push(p),
                }
            }
            while wave.len() < capacity {
                let Some(mut p) = iq.pop_front() else { break };
                if p.admitted.is_none() {
                    p.admitted = Some(clock);
                }
                wave.push(p);
            }
            let mut bumped: Vec<Pending> = Vec::new();
            for mut p in continuing_batch {
                if wave.len() < capacity {
                    wave.push(p);
                } else {
                    p.preemptions += 1;
                    preemptions += 1;
                    tracer.count(Counter::RequestsPreempted, 1);
                    bumped.push(p);
                }
            }
            for p in bumped.into_iter().rev() {
                bq.push_front(p);
            }
            while wave.len() < capacity {
                let Some(mut p) = bq.pop_front() else { break };
                if p.admitted.is_none() {
                    p.admitted = Some(clock);
                }
                wave.push(p);
            }

            // Serve it.
            let slots: Vec<WaveSlot> = wave
                .iter()
                .map(|p| WaveSlot {
                    prompt: p.prompt.clone(),
                    prefill: p.first_token.is_none(),
                })
                .collect();
            // Composition counts for the per-wave feature snapshot —
            // taken here because the settle loop consumes `wave`.
            let interactive_slots = wave
                .iter()
                .filter(|p| p.class == SloClass::Interactive)
                .count();
            let prefill_slots = slots.iter().filter(|s| s.prefill).count();
            let outcome = match self.serve_wave(&slots, config.wave_tokens) {
                Ok(outcome) => outcome,
                Err(CoeError::NoHealthyNodes) => {
                    // Fault-plan draws downed the rest mid-wave: requeue
                    // and let the outage branch decide next iteration.
                    let mut interactive: Vec<Pending> = Vec::new();
                    let mut batch: Vec<Pending> = Vec::new();
                    for p in wave {
                        match p.class {
                            SloClass::Interactive => interactive.push(p),
                            SloClass::Batch => batch.push(p),
                        }
                    }
                    for p in interactive.into_iter().rev() {
                        iq.push_front(p);
                    }
                    for p in batch.into_iter().rev() {
                        bq.push_front(p);
                    }
                    continue 'serve;
                }
                Err(e) => return Err(e),
            };
            waves += 1;
            tracer.count(Counter::AdmissionWaves, 1);
            rehomed += outcome.rehomed_experts;
            expert_hits += outcome.expert_hits;
            expert_misses += outcome.expert_misses;
            switch_time += outcome.switch_time;

            // Chaos fault windows degrade the wave fabric: a slowdown
            // stretches the wave, a failure retransmits it (×2).
            let mut factor = 1.0;
            if let Some(c) = chaos {
                match c.decide(FaultSite::SocketLink, clock) {
                    FaultDecision::Ok => {}
                    FaultDecision::Slow(f) => {
                        factor = f;
                        slowdowns += 1;
                    }
                    FaultDecision::Fail => {
                        factor = 2.0;
                        retransmits += 1;
                    }
                }
            }
            let wave_start = clock;
            let wave_latency = if factor == 1.0 {
                outcome.latency
            } else {
                outcome.latency * factor
            };
            clock = wave_start + wave_latency;

            // Drain background-transfer debt against this wave: the wave's
            // compute hides what it can; the rest stalls the clock.
            if !transfer_debt.is_zero() {
                let hidden =
                    TimeSecs::from_secs(transfer_debt.as_secs().min(wave_latency.as_secs()));
                let exposed = transfer_debt - hidden;
                if !exposed.is_zero() {
                    clock += exposed;
                    if let Some(pol) = policies.as_deref_mut() {
                        pol.report.transfer_exposed += exposed;
                    }
                }
                transfer_debt = TimeSecs::ZERO;
            }

            // Settle slots: complete, keep in flight, or shed drops.
            for (i, mut p) in wave.into_iter().enumerate() {
                match outcome.placements[i] {
                    WavePlacement::Dropped => {
                        if let Some(pol) = policies.as_deref_mut() {
                            if let Some(kv) = pol.kv.as_mut() {
                                kv.finish(p.submit as u64);
                            }
                        }
                        shed_one(
                            &mut shed,
                            &mut tally,
                            waves - 1,
                            p.tenant,
                            p.class,
                            p.submit,
                            p.arrival,
                            clock,
                            ShedReason::CapacityLost,
                            true,
                        );
                    }
                    WavePlacement::Served {
                        first_token, done, ..
                    } => {
                        if p.first_token.is_none() {
                            let offset = if factor == 1.0 {
                                first_token
                            } else {
                                first_token * factor
                            };
                            p.first_token = Some(wave_start + offset);
                        }
                        p.chunks_left -= 1;
                        // Paged KV: the request's context grew by one
                        // chunk. Evictions are pressure; refaulted live
                        // pages refill DDR→HBM as background debt.
                        if let Some(pol) = policies.as_deref_mut() {
                            if let Some(kv) = pol.kv.as_mut() {
                                let total = config.policy(p.class).chunks.max(1);
                                let done_chunks = total - p.chunks_left;
                                let tokens =
                                    config.prompt_tokens + done_chunks * config.wave_tokens;
                                let touch = kv.touch(p.submit as u64, tokens);
                                if touch.evicted > 0 {
                                    tracer.count(Counter::KvPagesEvicted, touch.evicted);
                                }
                                if touch.refaulted > 0 {
                                    let bytes = kv.config().page_bytes * touch.refaulted;
                                    transfer_debt += bytes / kv_switch_bandwidth;
                                }
                                if p.chunks_left == 0 {
                                    kv.finish(p.submit as u64);
                                }
                            }
                        }
                        if p.chunks_left > 0 {
                            inflight.push(p);
                            continue;
                        }
                        let offset = if factor == 1.0 { done } else { done * factor };
                        let record = TenantRecord {
                            tenant: p.tenant,
                            class: p.class,
                            submit: p.submit,
                            arrival: p.arrival,
                            admitted: p.admitted.expect("served implies admitted"),
                            first_token: p.first_token.expect("first chunk set it"),
                            completed: wave_start + offset,
                            output_tokens: p.output_tokens,
                            preemptions: p.preemptions,
                        };
                        if record.class == SloClass::Interactive {
                            if let Some(controller) = autoscaler.as_deref_mut() {
                                controller.observe(BatchObservation {
                                    latency: record.latency(),
                                    ttft: record.ttft(),
                                    prompts: 1,
                                    tokens: record.output_tokens,
                                    hbm_bytes: Bytes::ZERO,
                                    ddr_bytes: Bytes::ZERO,
                                });
                            }
                        }
                        if let Some(tally) = tally.as_mut() {
                            let late = record.latency() > config.policy(record.class).slo_bound;
                            tally.complete(record.tenant, record.class, late);
                        }
                        records.push(record);
                    }
                }
            }

            // Router statistics + predictive prefetch at the wave
            // boundary: observe where this wave's router pass went, then
            // stage the predicted-hot set for the *next* wave (stale
            // speculation expires as wasted bandwidth at the next
            // boundary). No-ops without a policy bundle.
            if let Some(pol) = policies.as_deref_mut() {
                let active: Vec<usize> = slots
                    .iter()
                    .map(|s| self.routed_expert(&s.prompt))
                    .collect();
                pol.stats.observe_wave(&active);
                let candidates = pol.prefetch_candidates();
                if !candidates.is_empty() {
                    let cap = pol.max_prefetch_per_wave();
                    let issued = self.prefetch_experts(&candidates, &outcome.prompts_per_node, cap);
                    pol.report.prefetch_issued += issued.issued;
                    transfer_debt += issued.transfer_time;
                }
            }

            // Per-wave feature snapshot: pure readers of state the loop
            // already computed, recorded unconditionally so observed and
            // blind runs carry identical streams.
            wave_features.push(WaveFeature {
                wave: waves - 1,
                start: wave_start,
                latency: wave_latency,
                slots: slots.len(),
                capacity,
                interactive_slots,
                batch_slots: slots.len() - interactive_slots,
                prefill_slots,
                queue_interactive: iq.len(),
                queue_batch: bq.len(),
                healthy_nodes: self.healthy_nodes(),
                expert_hits: outcome.expert_hits,
                expert_misses: outcome.expert_misses,
                chaos_factor: factor,
            });

            // Wave boundary: flush this wave's gauges into the telemetry
            // pipeline, evaluate alert rules, tick the flight recorder.
            // Pure readers of loop state — with obs disabled (or enabled)
            // the serving timeline is bit-identical.
            if obs.is_enabled() {
                let wave_idx = waves - 1;
                obs.gauge("wave_latency_ms", &[], wave_latency.as_secs() * 1e3);
                obs.gauge("healthy_nodes", &[], self.healthy_nodes() as f64);
                let activations = outcome.expert_hits + outcome.expert_misses;
                if activations > 0 {
                    obs.gauge(
                        "hbm_hit_rate",
                        &[],
                        outcome.expert_hits as f64 / activations as f64,
                    );
                }
                obs.gauge(
                    "queue_depth",
                    &[("slo_class", "interactive")],
                    iq.len() as f64,
                );
                obs.gauge("queue_depth", &[("slo_class", "batch")], bq.len() as f64);
                if let Some(tally) = tally.as_mut() {
                    tally.flush(obs, tenants);
                }
                let seen = obs.end_wave(wave_idx, clock);
                if seen.fired > 0 {
                    tracer.count(Counter::AlertsFired, seen.fired as u64);
                }
                if seen.resolved > 0 {
                    tracer.count(Counter::AlertsResolved, seen.resolved as u64);
                }
                if seen.postmortem_closed {
                    tracer.count(Counter::PostmortemsCaptured, 1);
                }
            }
        }

        // Whatever is still in the system (total outage or wave budget)
        // sheds as capacity loss; requests never ingested shed at their
        // arrival, un-admitted.
        for p in iq.drain(..).chain(bq.drain(..)).chain(inflight.drain(..)) {
            shed_one(
                &mut shed,
                &mut tally,
                waves,
                p.tenant,
                p.class,
                p.submit,
                p.arrival,
                clock,
                ShedReason::CapacityLost,
                true,
            );
        }
        while next_request < stream.len() {
            let r = &stream[next_request];
            next_request += 1;
            tracer.count(Counter::TenantRequests, 1);
            shed_one(
                &mut shed,
                &mut tally,
                waves,
                r.tenant,
                r.class,
                r.submit,
                r.arrival,
                r.arrival.max(clock),
                ShedReason::CapacityLost,
                false,
            );
        }

        // Settle the policy bundle: expire leftover speculation as
        // waste, then fold the cluster's prefetch totals and the KV
        // cache's conservation stats into the report.
        if let Some(pol) = policies.as_deref_mut() {
            self.expire_prefetches();
            let (hits, wasted) = self.prefetch_totals();
            pol.report.prefetch_hits = hits;
            pol.report.prefetch_wasted = wasted;
            if let Some(kv) = pol.kv.as_ref() {
                pol.report.absorb_kv(kv.stats());
            }
        }

        // One last boundary so final-drain sheds land in the series and a
        // still-open capture gets counted (finalize() will freeze it).
        if let Some(tally) = tally.as_mut() {
            tally.flush(obs, tenants);
            let seen = obs.end_wave(waves, clock);
            if seen.fired > 0 {
                tracer.count(Counter::AlertsFired, seen.fired as u64);
            }
            if seen.resolved > 0 {
                tracer.count(Counter::AlertsResolved, seen.resolved as u64);
            }
            if seen.postmortem_closed {
                tracer.count(Counter::PostmortemsCaptured, 1);
            }
            if obs.is_capturing() {
                tracer.count(Counter::PostmortemsCaptured, 1);
            }
        }

        Ok(TenancyReport {
            records,
            shed,
            scale_events,
            waves,
            makespan: clock,
            submitted,
            admitted: admitted_count,
            pending: 0,
            preemptions,
            rehomed_experts: rehomed,
            expert_hits,
            expert_misses,
            switch_time,
            chaos_retransmits: retransmits,
            chaos_slowdowns: slowdowns,
            final_nodes: self.healthy_nodes(),
            wave_features,
            tenants: tenants.iter().map(|t| (t.name.clone(), t.class)).collect(),
            config: config.clone(),
            policy: policies.as_deref().map(|p| p.report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertLibrary;
    use sn_arch::NodeSpec;

    fn cluster(nodes: usize) -> CoeCluster {
        CoeCluster::new(NodeSpec::sn40l_node(), nodes, ExpertLibrary::new(120), 512).expect("fits")
    }

    #[test]
    fn wave_tally_orders_follow_declaration_order() {
        // `WaveTally` indexes by discriminant and flushes by position in
        // these arrays: the two must agree.
        for (i, class) in CLASSES.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
        for (i, reason) in SHED_REASONS.into_iter().enumerate() {
            assert_eq!(reason as usize, i);
        }
    }

    fn interactive_tenant(requests: usize) -> TenantSpec {
        TenantSpec {
            name: "chat".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Burst,
            requests,
            rate_limit: RateLimit::unlimited(),
        }
    }

    fn batch_tenant(requests: usize) -> TenantSpec {
        TenantSpec {
            name: "lab".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests,
            rate_limit: RateLimit::unlimited(),
        }
    }

    #[test]
    fn merged_stream_is_sorted_and_deterministic() {
        let tenants = [
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 50.0 },
                ..interactive_tenant(20)
            },
            TenantSpec {
                pattern: ArrivalPattern::BurstTrain {
                    size: 5,
                    period: TimeSecs::from_millis(40.0),
                },
                ..batch_tenant(15)
            },
        ];
        let config = TenancyConfig::default();
        let a = merged_stream(&tenants, &config);
        let b = merged_stream(&tenants, &config);
        assert_eq!(a.len(), 35);
        assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrival-ordered"
        );
        assert!(a.iter().enumerate().all(|(i, r)| r.submit == i));
        let fmt = |s: &[TenantRequest]| format!("{s:?}");
        assert_eq!(fmt(&a), fmt(&b), "same seed, same stream");
    }

    #[test]
    fn burst_of_interactive_requests_all_complete() {
        let mut cluster = cluster(2);
        let report = cluster
            .serve_tenants(
                &[interactive_tenant(12)],
                &TenancyConfig::default(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(report.submitted, 12);
        assert_eq!(report.admitted, 12);
        assert_eq!(report.records.len(), 12);
        assert!(report.shed.is_empty());
        assert!(report.conservation_holds());
        assert!(report.waves >= 2, "12 requests > 8 slots: several waves");
        for r in &report.records {
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted < r.first_token);
            assert!(r.first_token <= r.completed);
            assert!(r.completed <= report.makespan);
            assert_eq!(r.output_tokens, 8);
        }
        assert!(report.goodput_rps(SloClass::Interactive) > 0.0);
    }

    #[test]
    fn token_bucket_sheds_rate_limited_requests() {
        let mut cluster = cluster(2);
        let tenant = TenantSpec {
            rate_limit: RateLimit::per_sec(0.0, 5.0),
            ..interactive_tenant(12)
        };
        let report = cluster
            .serve_tenants(&[tenant], &TenancyConfig::default(), None, None)
            .unwrap();
        assert_eq!(report.shed_by(ShedReason::RateLimited), 7, "burst of 5");
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.rejected(), 7);
        assert!(report.conservation_holds());
    }

    #[test]
    fn bounded_queue_sheds_queue_full() {
        let mut cluster = cluster(2);
        let mut config = TenancyConfig::default();
        config.interactive.queue_cap = 4;
        let report = cluster
            .serve_tenants(&[interactive_tenant(30)], &config, None, None)
            .unwrap();
        // A t = 0 burst of 30 hits a queue bounded at 4: the burst beyond
        // the cap sheds as backpressure.
        assert_eq!(report.shed_by(ShedReason::QueueFull), 26);
        assert_eq!(report.records.len(), 4);
        assert!(report.conservation_holds());
    }

    #[test]
    fn interactive_preempts_inflight_batch() {
        let mut cluster = cluster(2);
        let mut config = TenancyConfig::default();
        config.batch.chunks = 6;
        config.per_node_slots = 2; // 4 slots over 2 nodes
        let tenants = [
            // Batch backlog lands first and occupies the wave...
            batch_tenant(8),
            // ...then an interactive burst arrives and wants every slot.
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 400.0 },
                ..interactive_tenant(24)
            },
        ];
        let report = cluster
            .serve_tenants(&tenants, &config, None, None)
            .unwrap();
        assert!(report.preemptions > 0, "batch chunks must get bumped");
        assert!(report.conservation_holds());
        let batch_done: Vec<&TenantRecord> = report.class_records(SloClass::Batch).collect();
        assert!(
            batch_done.iter().any(|r| r.preemptions > 0),
            "some completed batch request resumed after preemption"
        );
        assert!(
            report.latency_percentile(SloClass::Interactive, 0.99)
                < report.latency_percentile(SloClass::Batch, 0.99),
            "priority shows in the per-class tail"
        );
    }

    #[test]
    fn deadline_sheds_timed_out_requests() {
        let mut cluster = cluster(1);
        let mut config = TenancyConfig {
            per_node_slots: 1,
            ..TenancyConfig::default()
        };
        config.interactive.deadline = TimeSecs::from_millis(1.0);
        config.interactive.queue_cap = 64;
        let report = cluster
            .serve_tenants(&[interactive_tenant(24)], &config, None, None)
            .unwrap();
        assert!(
            report.shed_by(ShedReason::TimedOut) > 0,
            "a 1 ms deadline on a deep queue must expire requests"
        );
        assert!(report.conservation_holds());
    }

    #[test]
    fn correlated_outage_degrades_and_recovers() {
        let mut cluster = cluster(3);
        let config = TenancyConfig {
            batch: ClassPolicy {
                chunks: 3,
                ..TenancyConfig::default().batch
            },
            ..TenancyConfig::default()
        };
        // Kill 2 of 3 nodes almost immediately, restore mid-run (the
        // scenario's single-survivor makespan is ~1 s).
        let chaos = ChaosSchedule::new(5).with_outage(
            &[1, 2],
            TimeSecs::from_millis(1.0),
            Some(TimeSecs::from_millis(500.0)),
        );
        let tenants = [interactive_tenant(16), batch_tenant(16)];
        let report = cluster
            .serve_tenants(&tenants, &config, Some(&chaos), None)
            .unwrap();
        assert!(report.conservation_holds());
        assert!(
            report.rehomed_experts > 0,
            "dead homes must re-home onto the survivor"
        );
        assert_eq!(report.final_nodes, 3, "restored after the window");
        assert_eq!(
            report.records.len() + report.shed.len(),
            32,
            "every request accounted"
        );
    }

    #[test]
    fn permanent_total_outage_sheds_everything() {
        let mut cluster = cluster(2);
        let chaos = ChaosSchedule::new(1).with_outage(&[0, 1], TimeSecs::ZERO, None);
        let report = cluster
            .serve_tenants(
                &[interactive_tenant(6)],
                &TenancyConfig::default(),
                Some(&chaos),
                None,
            )
            .unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.shed_by(ShedReason::CapacityLost), 6);
        assert_eq!(report.final_nodes, 0);
        assert!(report.conservation_holds());
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let run = || {
            let mut cluster = cluster(2);
            let tenants = [
                TenantSpec {
                    pattern: ArrivalPattern::Poisson { rate_rps: 120.0 },
                    ..interactive_tenant(20)
                },
                batch_tenant(10),
            ];
            let chaos = ChaosSchedule::new(9)
                .with_outage(
                    &[1],
                    TimeSecs::from_millis(50.0),
                    Some(TimeSecs::from_millis(400.0)),
                )
                .with_window(
                    FaultSite::SocketLink,
                    sn_faults::FaultSpec::slow(1.0, 1.5),
                    TimeSecs::from_millis(50.0),
                    TimeSecs::from_millis(400.0),
                );
            cluster
                .serve_tenants(&tenants, &TenancyConfig::default(), Some(&chaos), None)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same scenario, byte-identical report");
    }

    #[test]
    fn forced_cold_prefetch_is_bit_identical_to_policy_off() {
        // Property: speculation never changes served outputs. With the
        // prefetch threshold above 1.0 every prediction is forced cold, so
        // no prefetch is ever issued — the report must match the policy-off
        // run byte for byte (modulo the `policy` attachment itself).
        use crate::placement::{PolicyConfig, PrefetchPolicy, ServingPolicies};
        let tenants = [
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
                ..interactive_tenant(20)
            },
            batch_tenant(12),
        ];
        let config = TenancyConfig::default();
        let chaos = ChaosSchedule::new(11).with_outage(
            &[1],
            TimeSecs::from_millis(40.0),
            Some(TimeSecs::from_millis(300.0)),
        );

        let mut plain = cluster(2);
        let want = plain
            .serve_tenants(&tenants, &config, Some(&chaos), None)
            .unwrap();

        let mut speculative = cluster(2);
        let mut policies = ServingPolicies::new(
            120,
            PolicyConfig {
                prefetch: Some(PrefetchPolicy {
                    threshold: 2.0, // unreachable: probabilities cap at 1.0
                    max_per_wave: 8,
                }),
                placement: None,
                kv: None,
                ..PolicyConfig::default()
            },
        );
        let mut got = speculative
            .serve_tenants_with_policies(&tenants, &config, Some(&chaos), None, Some(&mut policies))
            .unwrap();

        let policy = got.policy.take().expect("policy report attached");
        assert_eq!(policy.prefetch_issued, 0, "forced cold: nothing issued");
        assert_eq!(policy.prefetch_wasted, Bytes::ZERO);
        assert_eq!(want, got, "speculation must not perturb serving");
    }

    #[test]
    fn policy_bundle_reports_prefetch_and_kv_activity() {
        use crate::placement::{PolicyConfig, ServingPolicies};
        use crate::PagedKvConfig;
        // A 48-slot wave on one node cycles through more distinct experts
        // than the 36-expert HBM budget holds, so plain LRU thrashes: the
        // experts a wave starts with were evicted by the experts it ended
        // with. Those victims stay hot in the router statistics, making
        // them exactly what the prefetcher should re-stage.
        let mut cluster = cluster(1);
        let mut config = TenancyConfig {
            per_node_slots: 56,
            ..TenancyConfig::default()
        };
        config.interactive.chunks = 4;
        config.interactive.queue_cap = 64;
        config.interactive.deadline = TimeSecs::from_secs(30.0);
        let tenants = [interactive_tenant(56), batch_tenant(16)];
        let mut policies = ServingPolicies::new(
            120,
            PolicyConfig {
                kv: Some(PagedKvConfig {
                    page_tokens: 16,
                    page_bytes: Bytes::from_mib(8),
                    // Tiny budget (8 pages) forces eviction + refault churn.
                    budget: Bytes::from_mib(64),
                }),
                ..PolicyConfig::default()
            },
        );
        let report = cluster
            .serve_tenants_with_policies(&tenants, &config, None, None, Some(&mut policies))
            .unwrap();
        assert!(report.conservation_holds());
        let policy = report.policy.expect("policy report attached");
        assert!(policy.prefetch_issued > 0, "hot experts should be staged");
        assert!(policy.kv_pages_in > 0, "decode allocates KV pages");
        assert!(
            policy.kv_pages_evicted > 0,
            "a 64 MiB budget cannot hold every sequence"
        );
        assert!(
            policy.kv_pages_in >= policy.kv_pages_evicted,
            "conservation: evictions never exceed allocations"
        );
        assert!(
            report.expert_hits + report.expert_misses > 0,
            "activation accounting populated"
        );
        let rate = report.expert_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn policy_off_report_leaves_policy_field_empty() {
        let mut cluster = cluster(1);
        let report = cluster
            .serve_tenants(
                &[interactive_tenant(4)],
                &TenancyConfig::default(),
                None,
                None,
            )
            .unwrap();
        assert!(report.policy.is_none());
        assert!(
            report.expert_misses > 0,
            "first activation of each routed expert is cold"
        );
        let rate = report.expert_hit_rate();
        assert!((0.0..1.0).contains(&rate));
    }

    #[test]
    fn empty_tenant_list_yields_an_empty_report() {
        let mut cluster = cluster(1);
        let report = cluster
            .serve_tenants(&[], &TenancyConfig::default(), None, None)
            .unwrap();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.waves, 0);
        assert!(report.makespan.is_zero());
        assert!(report.conservation_holds());
        assert_eq!(
            report.latency_percentile(SloClass::Interactive, 0.99),
            TimeSecs::ZERO
        );
        assert_eq!(report.goodput_rps(SloClass::Batch), 0.0);
    }
}
