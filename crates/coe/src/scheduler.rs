//! Online serving: seeded arrival processes, an admission queue, and
//! iteration-level (continuous) batching on one SN40L node.
//!
//! [`SambaCoeNode::serve_batch`] models the offline case — every prompt
//! is present at t = 0 and the whole batch runs to completion. Live CoE
//! traffic instead trickles in, so this module adds the three missing
//! pieces:
//!
//! 1. an [`ArrivalProcess`] — a deterministic, seeded request stream
//!    (burst, Poisson, or burst-train presets) built on
//!    [`PromptGenerator`];
//! 2. an admission queue with a configurable in-flight cap
//!    ([`SchedulerConfig::max_in_flight`]);
//! 3. a continuous-batching loop ([`SambaCoeNode::serve_online`]) that
//!    admits waiting requests at decode-iteration boundaries. Newly
//!    admitted requests pay one router pass and then join the decode
//!    rotation; a request whose expert is already HBM-resident joins for
//!    free, while a cold expert charges the DDR→HBM switch cost from the
//!    runtime's CoE cache model — admission is expert-switch-aware.
//!
//! Each request leaves a [`RequestRecord`] carrying queueing delay,
//! TTFT, and end-to-end latency; per-wave observations feed the node's
//! SLO window and (when a tracer is attached) the timeline under
//! sim-time spans.
//!
//! **Correctness anchor**: a single burst of N requests at t = 0 with
//! unbounded admission degenerates to exactly one admission wave, and
//! the aggregate [`ServeReport`] is assembled with the same float
//! expressions as [`SambaCoeNode::serve_batch`] — the reports are
//! bit-identical, which `tests/serve.rs` locks down. The fault-aware
//! [`SambaCoeNode::try_serve_online`] degenerates to
//! [`SambaCoeNode::try_serve_batch`] the same way: the per-site fault
//! draw sequences are identical, so even injected-fault runs agree
//! bit-for-bit on a burst.
//!
//! # Examples
//!
//! Arrival processes are pure functions of their seed — the same stream
//! twice is the same stream, and Poisson inter-arrival gaps accumulate
//! monotonically:
//!
//! ```
//! use sn_coe::scheduler::ArrivalProcess;
//!
//! let a = ArrivalProcess::poisson(0x5eed, 512, 200.0).generate(16);
//! let b = ArrivalProcess::poisson(0x5eed, 512, 200.0).generate(16);
//! assert_eq!(a, b, "seeded streams replay bit-identically");
//! assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//!
//! // A burst degenerates to the offline batch: everything at t = 0.
//! let burst = ArrivalProcess::burst(0x5eed, 512).generate(4);
//! assert!(burst.iter().all(|r| r.arrival == sn_arch::TimeSecs::ZERO));
//! ```

use crate::router::{Prompt, PromptGenerator};
use crate::serving::{SambaCoeNode, ServeReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sn_arch::TimeSecs;
use sn_faults::{FaultDecision, FaultSite, Recovery};
use sn_runtime::coe::CoeError;
use sn_trace::{ArgValue, Counter, Metric, Track};
use std::collections::{HashSet, VecDeque};

/// Salt separating the arrival-time stream from the prompt-content
/// stream, so the same seed yields uncorrelated draws for each.
const ARRIVAL_STREAM_SALT: u64 = 0xa221_7a1b_57ae_a09d;

/// One request in flight toward the node: a prompt plus its arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRequest {
    /// The prompt to serve.
    pub prompt: Prompt,
    /// When the request reaches the node's queue (model time).
    pub arrival: TimeSecs,
}

/// Shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Every request arrives at t = 0 — the offline whole-batch case.
    Burst,
    /// Poisson process: independent exponential inter-arrival gaps at
    /// `rate_rps` requests per second.
    Poisson {
        /// Offered load in requests per second. Must be positive.
        rate_rps: f64,
    },
    /// `size`-request bursts every `period` — diurnal-peak style traffic.
    BurstTrain {
        /// Requests per burst (at least 1).
        size: usize,
        /// Gap between consecutive bursts.
        period: TimeSecs,
    },
}

/// A deterministic, seeded request stream: prompts come from
/// [`PromptGenerator`], arrival times from the chosen
/// [`ArrivalPattern`]. Same seed ⇒ byte-identical stream; different
/// seed ⇒ different prompts and different arrival times.
///
/// ```
/// use sn_coe::scheduler::ArrivalProcess;
///
/// let a = ArrivalProcess::poisson(7, 1024, 10.0).generate(16);
/// let b = ArrivalProcess::poisson(7, 1024, 10.0).generate(16);
/// assert_eq!(a, b, "seed-stable");
/// assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalProcess {
    seed: u64,
    prompt_tokens: usize,
    pattern: ArrivalPattern,
}

impl ArrivalProcess {
    /// A stream with an explicit [`ArrivalPattern`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive Poisson rate or a zero-size burst train.
    pub fn new(seed: u64, prompt_tokens: usize, pattern: ArrivalPattern) -> Self {
        match pattern {
            ArrivalPattern::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "Poisson rate must be positive");
            }
            ArrivalPattern::BurstTrain { size, .. } => {
                assert!(size > 0, "burst size must be at least 1");
            }
            ArrivalPattern::Burst => {}
        }
        ArrivalProcess {
            seed,
            prompt_tokens,
            pattern,
        }
    }

    /// Everything at t = 0 (degenerates to the offline batch).
    pub fn burst(seed: u64, prompt_tokens: usize) -> Self {
        Self::new(seed, prompt_tokens, ArrivalPattern::Burst)
    }

    /// Poisson arrivals at `rate_rps` requests/sec.
    ///
    /// # Panics
    ///
    /// Panics when `rate_rps` is not positive.
    pub fn poisson(seed: u64, prompt_tokens: usize, rate_rps: f64) -> Self {
        Self::new(seed, prompt_tokens, ArrivalPattern::Poisson { rate_rps })
    }

    /// `size`-request bursts every `period`.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero.
    pub fn burst_train(seed: u64, prompt_tokens: usize, size: usize, period: TimeSecs) -> Self {
        Self::new(
            seed,
            prompt_tokens,
            ArrivalPattern::BurstTrain { size, period },
        )
    }

    /// Draws the first `n` requests of the stream. Arrival times are
    /// non-decreasing by construction.
    pub fn generate(&self, n: usize) -> Vec<OnlineRequest> {
        let mut prompts = PromptGenerator::new(self.seed, self.prompt_tokens);
        let mut rng = StdRng::seed_from_u64(self.seed ^ ARRIVAL_STREAM_SALT);
        let mut elapsed = 0.0_f64;
        (0..n)
            .map(|i| {
                let arrival = match self.pattern {
                    ArrivalPattern::Burst => TimeSecs::ZERO,
                    ArrivalPattern::Poisson { rate_rps } => {
                        let u: f64 = rng.gen();
                        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
                        elapsed += -(1.0 - u).ln() / rate_rps;
                        TimeSecs::from_secs(elapsed)
                    }
                    ArrivalPattern::BurstTrain { size, period } => period * ((i / size) as f64),
                };
                OnlineRequest {
                    prompt: prompts.next_prompt(),
                    arrival,
                }
            })
            .collect()
    }
}

/// Admission-queue tuning for [`SambaCoeNode::serve_online`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Maximum requests decoding concurrently. Arrived requests beyond
    /// the cap wait in the queue until a decode slot frees up. Zero is
    /// promoted to 1 (a scheduler that can admit nothing never finishes).
    pub max_in_flight: usize,
}

impl SchedulerConfig {
    /// No admission cap: everything that has arrived is admitted at the
    /// next iteration boundary.
    pub fn unbounded() -> Self {
        SchedulerConfig {
            max_in_flight: usize::MAX,
        }
    }

    /// At most `n` requests in flight (zero is promoted to 1).
    pub fn bounded(n: usize) -> Self {
        SchedulerConfig {
            max_in_flight: n.max(1),
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Completion record of one online request — the per-request quantities
/// an operator's dashboard is built from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Prompt id.
    pub id: u64,
    /// Submission index into the request stream.
    pub index: usize,
    /// Expert that served the request.
    pub expert: usize,
    /// When the request reached the queue.
    pub arrival: TimeSecs,
    /// When the scheduler pulled it into an admission wave.
    pub admitted: TimeSecs,
    /// When its prefill finished (first output token exists).
    pub first_token: TimeSecs,
    /// When its last decode step finished.
    pub completed: TimeSecs,
    /// Output tokens generated.
    pub output_tokens: usize,
}

impl RequestRecord {
    /// Time spent waiting in the admission queue.
    pub fn queue_delay(&self) -> TimeSecs {
        self.admitted - self.arrival
    }

    /// Arrival to first output token (queueing included).
    pub fn ttft(&self) -> TimeSecs {
        self.first_token - self.arrival
    }

    /// Arrival to completion.
    pub fn latency(&self) -> TimeSecs {
        self.completed - self.arrival
    }
}

/// Result of one online serving run: the aggregate [`ServeReport`]
/// (assembled with `serve_batch`'s exact arithmetic) plus per-request
/// completion records and scheduler-level aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Aggregate latency breakdown across all admission waves. On a
    /// single t = 0 burst with unbounded admission this is bit-identical
    /// to [`SambaCoeNode::serve_batch`]'s report.
    pub report: ServeReport,
    /// One record per request, in completion order.
    pub records: Vec<RequestRecord>,
    /// Admission waves opened (each paid one router pass).
    pub waves: usize,
    /// Clock when the last request completed.
    pub makespan: TimeSecs,
}

impl OnlineReport {
    /// Total output tokens across all completed requests.
    pub fn total_output_tokens(&self) -> usize {
        self.records.iter().map(|r| r.output_tokens).sum()
    }

    /// Output tokens per second of makespan (0.0 for a zero makespan —
    /// never NaN).
    pub fn tokens_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs > 0.0 {
            self.total_output_tokens() as f64 / secs
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of end-to-end request latency.
    pub fn latency_percentile(&self, q: f64) -> TimeSecs {
        percentile(self.records.iter().map(RequestRecord::latency), q)
    }

    /// Nearest-rank percentile of time-to-first-token.
    pub fn ttft_percentile(&self, q: f64) -> TimeSecs {
        percentile(self.records.iter().map(RequestRecord::ttft), q)
    }

    /// Nearest-rank percentile of queueing delay.
    pub fn queue_delay_percentile(&self, q: f64) -> TimeSecs {
        percentile(self.records.iter().map(RequestRecord::queue_delay), q)
    }

    /// Mean queueing delay across requests.
    pub fn mean_queue_delay(&self) -> TimeSecs {
        if self.records.is_empty() {
            return TimeSecs::ZERO;
        }
        let sum: TimeSecs = self.records.iter().map(RequestRecord::queue_delay).sum();
        sum * (1.0 / self.records.len() as f64)
    }

    /// Sorts each per-request series once and returns a view that
    /// answers any number of percentile queries off the sorted buffers.
    /// Preferred over the single-shot `*_percentile` methods whenever a
    /// caller needs more than one quantile of a series (the serve-sweep
    /// summary asks for four), since those re-sort per call.
    pub fn percentiles(&self) -> OnlinePercentiles {
        OnlinePercentiles::new(&self.records)
    }
}

/// Sorted-once percentile view over an [`OnlineReport`]'s per-request
/// series. Built by [`OnlineReport::percentiles`]; each accessor is a
/// nearest-rank slice into an already-sorted buffer, so querying many
/// quantiles costs one sort per series total instead of one per call.
#[derive(Debug, Clone)]
pub struct OnlinePercentiles {
    latency: Vec<f64>,
    ttft: Vec<f64>,
    queue_delay: Vec<f64>,
}

impl OnlinePercentiles {
    fn new(records: &[RequestRecord]) -> Self {
        let sorted = |series: fn(&RequestRecord) -> TimeSecs| {
            let mut buf: Vec<f64> = records.iter().map(|r| series(r).as_secs()).collect();
            sn_profile::sort_for_quantiles(&mut buf);
            buf
        };
        OnlinePercentiles {
            latency: sorted(RequestRecord::latency),
            ttft: sorted(RequestRecord::ttft),
            queue_delay: sorted(RequestRecord::queue_delay),
        }
    }

    /// Nearest-rank percentile of end-to-end request latency.
    pub fn latency(&self, q: f64) -> TimeSecs {
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&self.latency, q))
    }

    /// Nearest-rank percentile of time-to-first-token.
    pub fn ttft(&self, q: f64) -> TimeSecs {
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&self.ttft, q))
    }

    /// Nearest-rank percentile of queueing delay.
    pub fn queue_delay(&self, q: f64) -> TimeSecs {
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&self.queue_delay, q))
    }
}

/// Exact nearest-rank percentile, delegating to `sn-profile`'s shared
/// quantile rule (the SLO window uses the very same functions, so the
/// two definitions cannot drift). An empty iterator yields zero.
fn percentile(values: impl Iterator<Item = TimeSecs>, q: f64) -> TimeSecs {
    let mut sorted: Vec<f64> = values.map(TimeSecs::as_secs).collect();
    sn_profile::sort_for_quantiles(&mut sorted);
    TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&sorted, q))
}

/// A request currently in the decode rotation.
struct ActiveRequest {
    index: usize,
    id: u64,
    expert: usize,
    arrival: TimeSecs,
    admitted: TimeSecs,
    first_token: TimeSecs,
    /// Socket slowdown factor drawn at admission (1.0 fault-free).
    factor: f64,
    steps_left: usize,
    /// Whether the decode program load has been charged yet.
    loaded: bool,
}

impl SambaCoeNode {
    /// Serves a deterministic stream of timed requests with continuous
    /// batching: at every decode-iteration boundary the scheduler admits
    /// arrived requests (up to `config.max_in_flight` in flight), pays
    /// one router pass per admission wave plus the DDR→HBM switch cost
    /// of any expert not already HBM-resident, prefills the newcomers,
    /// and then advances every in-flight request one decode step.
    ///
    /// A single burst at t = 0 with unbounded admission reproduces
    /// [`SambaCoeNode::serve_batch`]'s report bit-identically.
    ///
    /// # Panics
    ///
    /// Panics on an empty request stream.
    pub fn serve_online(
        &mut self,
        requests: &[OnlineRequest],
        output_tokens: usize,
        config: SchedulerConfig,
    ) -> OnlineReport {
        self.run_online(requests, output_tokens, config, false)
            .expect("fault-oblivious serving cannot fail")
    }

    /// Fault-aware [`SambaCoeNode::serve_online`]: consults the attached
    /// [`sn_faults::FaultPlan`] with the same per-site draw discipline as
    /// [`SambaCoeNode::try_serve_batch`] — one router consultation per
    /// admission wave, one expert-load consultation per cold activation,
    /// one socket consultation per admitted request. On a single t = 0
    /// burst with unbounded admission the draw sequences coincide and
    /// the report is bit-identical to `try_serve_batch`'s. With no plan
    /// attached this is exactly `serve_online`.
    ///
    /// # Errors
    ///
    /// [`CoeError::RouterTimeout`], [`CoeError::LoadFault`], or
    /// [`CoeError::SocketDown`] when injected faults outlast the retry
    /// budget (same contract as `try_serve_batch`).
    ///
    /// # Panics
    ///
    /// Panics on an empty request stream.
    pub fn try_serve_online(
        &mut self,
        requests: &[OnlineRequest],
        output_tokens: usize,
        config: SchedulerConfig,
    ) -> Result<OnlineReport, CoeError> {
        self.run_online(requests, output_tokens, config, true)
    }

    fn run_online(
        &mut self,
        requests: &[OnlineRequest],
        output_tokens: usize,
        config: SchedulerConfig,
        use_faults: bool,
    ) -> Result<OnlineReport, CoeError> {
        assert!(!requests.is_empty(), "empty request stream");
        let plan = if use_faults {
            self.faults.clone()
        } else {
            None
        };
        let n_experts = self.library.len();
        let capacity = config.max_in_flight.max(1);
        let steps = output_tokens.max(1);

        // Admission order: by arrival time, ties by submission order.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival
                .partial_cmp(&requests[b].arrival)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut queue: VecDeque<usize> = order.into();

        // Unit timings are pure functions of the compiled executables —
        // computed once, reused every wave. `run` and the aggregate
        // report below use the exact `serve_batch` expressions; only the
        // event-loop clock uses the per-step decomposition. The router
        // pass is wave-invariant too (its cost does not depend on the
        // wave's contents), so it joins the hoisted unit costs instead
        // of re-running the executor twice per wave.
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let one_step = self.executor.run(self.programs.decode(), self.orch);
        let step_cost = one_step.exec + one_step.launch;
        let program_load = one_step.program_load;
        let router_once = self.router_time();

        let mut clock = TimeSecs::ZERO;
        let mut active: Vec<ActiveRequest> = Vec::new();
        let mut records: Vec<RequestRecord> = Vec::with_capacity(requests.len());
        let mut assignments = vec![0usize; requests.len()];

        let mut router_total = TimeSecs::ZERO;
        let mut switching_total = TimeSecs::ZERO;
        let mut recovery_total = Recovery::default();
        let mut hits = 0;
        let mut misses = 0;
        let mut factor_sum = 0.0_f64;
        let mut waves = 0_usize;
        let mut last_slo = None;

        // Scratch buffers reused across waves: the admission wave and
        // its within-wave expert dedup set. Cleared, never reallocated.
        let mut wave: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();

        while !queue.is_empty() || !active.is_empty() {
            // Admission at the decode-iteration boundary.
            wave.clear();
            while active.len() + wave.len() < capacity {
                match queue.front() {
                    Some(&i) if requests[i].arrival <= clock => {
                        queue.pop_front();
                        wave.push(i);
                    }
                    _ => break,
                }
            }
            if wave.is_empty() && active.is_empty() {
                // Idle node: jump to the next arrival.
                let &next = queue.front().expect("loop guard: queue is non-empty");
                clock = clock.max(requests[next].arrival);
                continue;
            }

            if !wave.is_empty() {
                waves += 1;
                let wave_start = clock;
                let mut wave_recovery = Recovery::default();
                for &i in &wave {
                    assignments[i] = self.router.route(&requests[i].prompt, n_experts);
                }

                // One router pass over the newly admitted requests.
                let router_cost = match &plan {
                    None => router_once,
                    Some(plan) => {
                        let (factor, rec) = self
                            .retry
                            .run(|_| match plan.decide(FaultSite::RouterDecision) {
                                FaultDecision::Ok => Ok(1.0),
                                FaultDecision::Slow(factor) => Ok(factor),
                                FaultDecision::Fail => Err(router_once),
                            })
                            .map_err(|e| CoeError::RouterTimeout {
                                attempts: e.attempts,
                            })?;
                        if rec.retries > 0 && self.tracer.is_enabled() {
                            self.tracer
                                .count(Counter::RetriesAbsorbed, u64::from(rec.retries));
                            self.tracer.instant(
                                Track::Coe,
                                "router-retry",
                                &[
                                    ("retries", ArgValue::from(u64::from(rec.retries))),
                                    ("recovery_us", ArgValue::from(rec.time.as_micros())),
                                ],
                            );
                        }
                        clock += rec.time;
                        wave_recovery.merge(rec);
                        router_once * factor
                    }
                };
                router_total += router_cost;
                clock += router_cost;

                // Activate the wave's experts, deduplicated within the
                // wave. An expert left HBM-resident by an earlier wave
                // comes back as a cache hit with zero switch time — the
                // "free join" the cache model gives continuous batching.
                let mut wave_switching = TimeSecs::ZERO;
                let mut wave_hits = 0;
                let mut wave_misses = 0;
                seen.clear();
                for &i in &wave {
                    let e = assignments[i];
                    if !seen.insert(e) {
                        continue;
                    }
                    // The expert index already names the expert: borrow
                    // the interned name from the library instead of
                    // cloning a String per cold activation per wave.
                    let name = self.library.expert(e).name.as_str();
                    let (outcome, load_rec) = match &plan {
                        None => (
                            self.runtime.activate(name).expect("expert registered"),
                            Recovery::default(),
                        ),
                        Some(_) => self.runtime.activate_with_recovery(name)?,
                    };
                    if outcome.hit {
                        wave_hits += 1;
                    } else {
                        wave_misses += 1;
                    }
                    wave_switching += outcome.switch_time;
                    clock += outcome.switch_time + load_rec.time;
                    wave_recovery.merge(load_rec);
                }
                switching_total += wave_switching;
                hits += wave_hits;
                misses += wave_misses;

                // Prefill the newcomers sequentially; each draws its
                // socket factor here, exactly where `try_serve_batch`
                // draws per prompt.
                let mut wave_factor_sum = 0.0_f64;
                for &i in &wave {
                    let factor = match &plan {
                        None => 1.0,
                        Some(plan) => {
                            let (factor, rec) = self
                                .retry
                                .run(|_| match plan.decide(FaultSite::SocketLink) {
                                    FaultDecision::Ok => Ok(1.0),
                                    FaultDecision::Slow(factor) => Ok(factor),
                                    FaultDecision::Fail => Err(run),
                                })
                                .map_err(|e| CoeError::SocketDown {
                                    attempts: e.attempts,
                                })?;
                            if rec.retries > 0 && self.tracer.is_enabled() {
                                self.tracer
                                    .count(Counter::RetriesAbsorbed, u64::from(rec.retries));
                                self.tracer.instant(
                                    Track::Coe,
                                    "socket-retry",
                                    &[
                                        ("retries", ArgValue::from(u64::from(rec.retries))),
                                        ("recovery_us", ArgValue::from(rec.time.as_micros())),
                                    ],
                                );
                            }
                            clock += rec.time;
                            wave_recovery.merge(rec);
                            factor
                        }
                    };
                    wave_factor_sum += factor;
                    clock += prefill_unit * factor;
                    active.push(ActiveRequest {
                        index: i,
                        id: requests[i].prompt.id,
                        expert: assignments[i],
                        arrival: requests[i].arrival,
                        admitted: wave_start,
                        first_token: clock,
                        factor,
                        steps_left: steps,
                        loaded: false,
                    });
                }
                factor_sum += wave_factor_sum;
                recovery_total.merge(wave_recovery);

                // Per-wave SLO observation, built from a sub-report with
                // `serve_batch`'s field expressions so a one-wave burst
                // feeds the tracker the identical observation.
                let mut wave_report = ServeReport {
                    router: router_cost,
                    switching: wave_switching,
                    execution: if plan.is_some() {
                        run * wave_factor_sum
                    } else {
                        run * wave.len() as f64
                    },
                    recovery: wave_recovery.time,
                    retries: wave_recovery.retries,
                    expert_hits: wave_hits,
                    expert_misses: wave_misses,
                    assignments: wave.iter().map(|&i| assignments[i]).collect(),
                    metrics: None,
                    slo: None,
                };
                self.observe_slo(&mut wave_report, prefill_unit, output_tokens);
                if wave_report.slo.is_some() {
                    last_slo = wave_report.slo;
                }

                if self.tracer.is_enabled() {
                    self.tracer.count(Counter::AdmissionWaves, 1);
                    self.tracer
                        .count(Counter::RequestsAdmitted, wave.len() as u64);
                    self.tracer
                        .count(Counter::RouterDecisions, wave.len() as u64);
                    self.tracer.span_at(
                        Track::Coe,
                        1,
                        format!("wave{waves}:admit"),
                        wave_start,
                        clock - wave_start,
                        &[
                            ("requests", ArgValue::from(wave.len())),
                            ("cold_experts", ArgValue::from(wave_misses)),
                        ],
                    );
                }
            }

            // One decode iteration: every in-flight request advances one
            // token; completions free admission slots for the next wave.
            // `retain_mut` visits in order and compacts in place, so the
            // rotation order matches the old drain-and-rebuild loop with
            // none of its per-iteration Vec allocation.
            active.retain_mut(|req| {
                let cost = if req.loaded {
                    step_cost
                } else {
                    req.loaded = true;
                    step_cost + program_load
                };
                clock += cost * req.factor;
                req.steps_left -= 1;
                if req.steps_left > 0 {
                    return true;
                }
                let record = RequestRecord {
                    id: req.id,
                    index: req.index,
                    expert: req.expert,
                    arrival: req.arrival,
                    admitted: req.admitted,
                    first_token: req.first_token,
                    completed: clock,
                    output_tokens: steps,
                };
                if self.tracer.is_enabled() {
                    self.tracer.count(Counter::PromptsServed, 1);
                    self.tracer.observe(Metric::Request, record.latency());
                    self.tracer
                        .observe(Metric::QueueDelay, record.queue_delay());
                    self.tracer.observe(Metric::Ttft, record.ttft());
                    self.tracer.span_at(
                        Track::Coe,
                        2,
                        format!("req{}:expert{}", record.id, record.expert),
                        record.admitted,
                        record.completed - record.admitted,
                        &[
                            ("expert", ArgValue::from(record.expert)),
                            ("queue_us", ArgValue::from(record.queue_delay().as_micros())),
                            ("ttft_us", ArgValue::from(record.ttft().as_micros())),
                        ],
                    );
                }
                records.push(record);
                false
            });
        }

        // Aggregate execution with `serve_batch` / `try_serve_batch`'s
        // exact expressions (`run * n`, not a per-step summation loop) so
        // the one-wave burst degenerates bit-identically.
        let execution = if plan.is_some() {
            run * factor_sum
        } else {
            run * requests.len() as f64
        };
        let report = ServeReport {
            router: router_total,
            switching: switching_total,
            execution,
            recovery: recovery_total.time,
            retries: recovery_total.retries,
            expert_hits: hits,
            expert_misses: misses,
            assignments,
            metrics: self.tracer.metrics_opt(),
            slo: last_slo,
        };
        Ok(OnlineReport {
            report,
            records,
            waves,
            makespan: clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertLibrary;
    use sn_arch::NodeSpec;

    fn coe(experts: usize) -> SambaCoeNode {
        SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(experts), 1024)
    }

    #[test]
    fn burst_process_places_everything_at_time_zero() {
        let reqs = ArrivalProcess::burst(3, 1024).generate(8);
        assert_eq!(reqs.len(), 8);
        assert!(reqs.iter().all(|r| r.arrival.is_zero()));
        // Prompts match the plain generator stream for the same seed.
        let prompts = PromptGenerator::new(3, 1024).batch(8);
        let stream: Vec<_> = reqs.into_iter().map(|r| r.prompt).collect();
        assert_eq!(stream, prompts);
    }

    #[test]
    fn poisson_gaps_are_positive_and_rate_scaled() {
        let slow = ArrivalProcess::poisson(3, 1024, 2.0).generate(64);
        let fast = ArrivalProcess::poisson(3, 1024, 20.0).generate(64);
        assert!(slow.windows(2).all(|w| w[0].arrival < w[1].arrival));
        // 10x the rate compresses the horizon by 10x exactly: the same
        // uniform draws are scaled by 1/rate.
        let ratio = slow[63].arrival.as_secs() / fast[63].arrival.as_secs();
        assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn burst_train_steps_by_period() {
        let reqs = ArrivalProcess::burst_train(1, 1024, 4, TimeSecs::from_secs(1.0)).generate(10);
        assert!(reqs[0..4].iter().all(|r| r.arrival.is_zero()));
        assert!(reqs[4..8]
            .iter()
            .all(|r| (r.arrival.as_secs() - 1.0).abs() < 1e-12));
        assert!(reqs[8..10]
            .iter()
            .all(|r| (r.arrival.as_secs() - 2.0).abs() < 1e-12));
    }

    #[test]
    fn bounded_admission_caps_in_flight_and_queues_the_rest() {
        let mut node = coe(40);
        let reqs = ArrivalProcess::burst(5, 1024).generate(9);
        let out = node.serve_online(&reqs, 4, SchedulerConfig::bounded(2));
        assert_eq!(out.records.len(), 9);
        // 9 requests through a 2-wide window: at least ceil(9/2) waves.
        assert!(out.waves >= 5, "waves {}", out.waves);
        // Later admissions queued: someone waited.
        assert!(out.queue_delay_percentile(1.0) > TimeSecs::ZERO);
        // Everyone in the first wave did not wait.
        assert!(out.records.iter().any(|r| r.queue_delay().is_zero()));
    }

    #[test]
    fn spaced_arrivals_leave_the_node_idle_between_requests() {
        let mut node = coe(40);
        // Gaps far wider than one request's service time.
        let reqs = ArrivalProcess::burst_train(5, 1024, 1, TimeSecs::from_secs(10.0)).generate(3);
        let out = node.serve_online(&reqs, 4, SchedulerConfig::default());
        assert_eq!(out.waves, 3, "each arrival gets its own wave");
        assert!(out
            .records
            .iter()
            .all(|r| r.queue_delay().is_zero() || r.queue_delay().as_secs() < 1e-9));
        // Makespan is dominated by the 20 s of idle gaps.
        assert!(out.makespan.as_secs() > 20.0);
        // The report's busy-time total is far below the makespan.
        assert!(out.report.total().as_secs() < 1.0);
    }

    #[test]
    fn record_times_are_internally_consistent() {
        let mut node = coe(40);
        let reqs = ArrivalProcess::poisson(11, 1024, 50.0).generate(12);
        let out = node.serve_online(&reqs, 6, SchedulerConfig::bounded(4));
        for r in &out.records {
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted < r.first_token);
            assert!(r.first_token < r.completed);
            assert!(r.completed <= out.makespan);
            assert_eq!(r.output_tokens, 6);
        }
        // Completion order is the record order.
        assert!(out
            .records
            .windows(2)
            .all(|w| w[0].completed <= w[1].completed));
    }

    #[test]
    fn zero_max_in_flight_is_promoted_not_stuck() {
        let mut node = coe(40);
        let reqs = ArrivalProcess::burst(5, 1024).generate(3);
        let out = node.serve_online(&reqs, 2, SchedulerConfig::bounded(0));
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn percentiles_cover_the_record_range() {
        let mut node = coe(40);
        let reqs = ArrivalProcess::poisson(11, 1024, 30.0).generate(10);
        let out = node.serve_online(&reqs, 4, SchedulerConfig::bounded(2));
        let p0 = out.latency_percentile(0.0);
        let p50 = out.latency_percentile(0.5);
        let p100 = out.latency_percentile(1.0);
        assert!(p0 <= p50 && p50 <= p100);
        let max = out
            .records
            .iter()
            .map(|r| r.latency())
            .fold(TimeSecs::ZERO, TimeSecs::max);
        assert_eq!(p100, max);
        assert!(out.tokens_per_sec() > 0.0);
        assert_eq!(out.total_output_tokens(), 40);
    }

    #[test]
    fn empty_record_set_helpers_are_nan_safe() {
        // A run can legitimately complete zero requests (everything shed
        // under chaos): every aggregate helper must stay finite and zero
        // rather than poisoning downstream tables with NaN.
        let out = OnlineReport {
            report: ServeReport {
                router: TimeSecs::ZERO,
                switching: TimeSecs::ZERO,
                execution: TimeSecs::ZERO,
                recovery: TimeSecs::ZERO,
                retries: 0,
                expert_hits: 0,
                expert_misses: 0,
                assignments: Vec::new(),
                metrics: None,
                slo: None,
            },
            records: Vec::new(),
            waves: 0,
            makespan: TimeSecs::ZERO,
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(out.latency_percentile(q), TimeSecs::ZERO);
            assert_eq!(out.ttft_percentile(q), TimeSecs::ZERO);
            assert_eq!(out.queue_delay_percentile(q), TimeSecs::ZERO);
        }
        assert_eq!(out.mean_queue_delay(), TimeSecs::ZERO);
        assert!(out.mean_queue_delay().as_secs().is_finite());
        assert_eq!(out.tokens_per_sec(), 0.0);
        assert_eq!(out.total_output_tokens(), 0);
        let view = out.percentiles();
        assert_eq!(view.latency(0.99), TimeSecs::ZERO);
        assert_eq!(view.ttft(0.99), TimeSecs::ZERO);
        assert_eq!(view.queue_delay(0.99), TimeSecs::ZERO);
    }
}
