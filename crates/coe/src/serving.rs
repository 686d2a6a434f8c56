//! End-to-end Samba-CoE serving on the SN40L node (Figure 9).
//!
//! One inference: (1) run the router (its weights are pinned in HBM),
//! (2) copy the routed expert's weights DDR→HBM unless already resident,
//! (3) run the expert — prefill plus an autoregressive decode loop. With
//! batched requests the router runs once over the batch, the required
//! experts are activated (deduplicated), and each (prompt, expert) pair
//! executes sequentially (§VI-B).

use crate::expert::ExpertLibrary;
use crate::programs::ExpertPrograms;
use crate::router::{Prompt, Router};
use serde::{Deserialize, Serialize};
use sn_arch::{Bytes, Calibration, Flops, NodeSpec, Orchestration, TimeSecs};
use sn_faults::{FaultDecision, FaultPlan, FaultSite, Recovery, RetryPolicy};
use sn_profile::{
    BatchObservation, MachineProfile, PhaseKind, PhaseSample, ServeAttribution, SloConfig,
    SloSnapshot, SloTracker,
};
use sn_runtime::coe::{CoeError, CoeRuntime, CoeRuntimeConfig, ModelBinary};
use sn_runtime::executor::NodeExecutor;
use sn_trace::{ArgValue, Counter, Metric, MetricsReport, Tracer, Track};
use std::sync::Arc;

/// Latency breakdown of one served batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Router prefill plus classification decode steps.
    pub router: TimeSecs,
    /// Expert DDR→HBM switching (deduplicated across the batch).
    pub switching: TimeSecs,
    /// Expert prefill plus decode for every prompt, run sequentially.
    pub execution: TimeSecs,
    /// Time lost to injected faults: wasted attempts plus retry backoff
    /// across routing, switching, and execution. Zero on fault-free runs.
    pub recovery: TimeSecs,
    /// Failed attempts absorbed by retries across the batch.
    pub retries: u32,
    /// Experts that were already HBM-resident.
    pub expert_hits: usize,
    /// Experts that had to be copied in.
    pub expert_misses: usize,
    /// Expert index serving each prompt.
    pub assignments: Vec<usize>,
    /// Aggregated trace metrics, present when a [`Tracer`] was attached
    /// via [`SambaCoeNode::with_tracer`]; `None` on untraced runs.
    pub metrics: Option<MetricsReport>,
    /// Sliding-window serving SLO snapshot (latency percentiles, TTFT,
    /// tokens/sec, tier utilization), present when a tracker was attached
    /// via [`SambaCoeNode::with_slo`]; `None` otherwise.
    pub slo: Option<SloSnapshot>,
}

impl ServeReport {
    /// Total batch latency, recovery time included.
    pub fn total(&self) -> TimeSecs {
        self.router + self.switching + self.execution + self.recovery
    }

    /// Fraction of time spent switching models — the Figure 1 quantity.
    /// 0.0 for a zero-total batch (never NaN).
    pub fn switching_fraction(&self) -> f64 {
        let total = self.total().as_secs();
        if total == 0.0 {
            0.0
        } else {
            self.switching.as_secs() / total
        }
    }

    /// Fraction of time lost to fault recovery (0.0 on clean runs and
    /// zero-total batches — never NaN).
    pub fn recovery_fraction(&self) -> f64 {
        let total = self.total().as_secs();
        if total == 0.0 {
            0.0
        } else {
            self.recovery.as_secs() / total
        }
    }
}

/// A Samba-CoE deployment on one SN40L node.
#[derive(Debug)]
pub struct SambaCoeNode {
    pub(crate) library: ExpertLibrary,
    pub(crate) router: Router,
    pub(crate) runtime: CoeRuntime,
    pub(crate) executor: NodeExecutor,
    /// The shared expert program pair, compiled once per process.
    pub(crate) programs: Arc<ExpertPrograms>,
    pub(crate) orch: Orchestration,
    pub(crate) calib: Calibration,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) retry: RetryPolicy,
    pub(crate) tracer: Tracer,
    pub(crate) slo: Option<SloTracker>,
}

impl SambaCoeNode {
    /// Compiles the (shared) expert architecture — once per process, via
    /// [`ExpertPrograms::shared`] — and registers the whole library into
    /// node DDR.
    ///
    /// # Errors
    ///
    /// [`CoeError::EmptyLibrary`] when the library has no experts;
    /// [`CoeError::Compile`] when building or compiling the expert graphs
    /// fails (e.g. `prompt_tokens == 0`); [`CoeError::DdrFull`] (or any
    /// other registration error) when the library does not fit node DDR —
    /// deployments are expected to be sized with [`crate::comparison`]
    /// first.
    pub fn try_new(
        node: NodeSpec,
        library: ExpertLibrary,
        prompt_tokens: usize,
    ) -> Result<Self, CoeError> {
        if library.is_empty() {
            return Err(CoeError::EmptyLibrary);
        }
        let calib = Calibration::baseline();
        let programs = ExpertPrograms::shared(
            &node.socket,
            &calib,
            library.config(),
            prompt_tokens,
            node.sockets,
        )?;
        let mut runtime = CoeRuntime::new(&node, CoeRuntimeConfig::default());
        for e in library.experts() {
            runtime.register(ModelBinary::weights_only(
                e.name.clone(),
                library.expert_bytes(),
            ))?;
        }
        let executor = NodeExecutor::new(node, calib.clone());
        Ok(SambaCoeNode {
            library,
            router: Router::new(0x5a17ba),
            runtime,
            executor,
            programs,
            orch: Orchestration::Hardware,
            calib,
            faults: None,
            retry: RetryPolicy::standard(),
            tracer: Tracer::disabled(),
            slo: None,
        })
    }

    /// Panicking convenience wrapper around [`SambaCoeNode::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any [`CoeError`] from `try_new` (undersized DDR, graph
    /// build or compile failure).
    pub fn new(node: NodeSpec, library: ExpertLibrary, prompt_tokens: usize) -> Self {
        Self::try_new(node, library, prompt_tokens)
            .unwrap_or_else(|e| panic!("building Samba-CoE node failed: {e}"))
    }

    /// Attaches a fault plan and retry budget. The plan is consulted by
    /// [`SambaCoeNode::try_serve_batch`] at the router, expert-load, and
    /// socket-link sites; the plain serve paths stay fault-oblivious.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        self.runtime = self.runtime.with_faults(Arc::clone(&plan), retry);
        self.executor = self.executor.with_faults(Arc::clone(&plan));
        self.faults = Some(plan);
        self.retry = retry;
        self
    }

    /// Attaches a [`Tracer`], shared with the node's [`CoeRuntime`] (expert
    /// hit/switch events) and [`NodeExecutor`] (kernel-launch spans). Serve
    /// paths then record router decisions, per-prompt request latency, and
    /// attach an aggregated [`MetricsReport`] to every [`ServeReport`].
    /// Timing arithmetic is unchanged: traces are recorded after the fact.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.runtime = self.runtime.with_tracer(tracer.clone());
        self.executor = self.executor.with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Attaches a serving-SLO tracker: every serve call then feeds the
    /// batch into a sliding window and stamps the refreshed
    /// [`SloSnapshot`] onto its [`ServeReport`]. Pure bookkeeping over
    /// already-computed timings — attaching a tracker never changes any
    /// latency number.
    #[must_use]
    pub fn with_slo(mut self, config: SloConfig) -> Self {
        self.slo = Some(SloTracker::new(
            MachineProfile::from_node(self.executor.node()),
            config,
        ));
        self
    }

    pub fn library(&self) -> &ExpertLibrary {
        &self.library
    }

    /// Switches kernel-launch orchestration (for ablations).
    pub fn set_orchestration(&mut self, orch: Orchestration) {
        self.orch = orch;
    }

    /// Unit timings for one model run: (prefill, `output_tokens`-step
    /// decode loop). The prefill part alone is the first-token boundary
    /// the SLO layer's TTFT builds on.
    pub(crate) fn unit_run_times(&self, output_tokens: usize) -> (TimeSecs, TimeSecs) {
        let prefill = self.executor.run(self.programs.prefill(), self.orch).total;
        let decode = self
            .executor
            .run_decode_loop(self.programs.decode(), self.orch, output_tokens.max(1))
            .total;
        (prefill, decode)
    }

    /// Router cost: a prefill over the batch plus a couple of decode steps
    /// to emit the classification (calibrated in
    /// [`Calibration::router_equiv_decode_steps`]).
    pub(crate) fn router_time(&self) -> TimeSecs {
        let prefill = self.executor.run(self.programs.prefill(), self.orch).total;
        let step = self.executor.run(self.programs.decode(), self.orch).total;
        prefill + step * self.calib.router_equiv_decode_steps
    }

    /// Reconstructs per-phase resource demand for one served batch: where
    /// its time went (router / switching / prefill / decode / recovery)
    /// and what each phase computed and moved. Pure function of the
    /// compiled executables and the report — it never re-runs the
    /// executor, so calling it cannot perturb traces or timings. The
    /// execution component splits between prefill and decode by the
    /// executables' own execution-time ratio.
    pub fn phase_samples(&self, report: &ServeReport, output_tokens: usize) -> Vec<PhaseSample> {
        let steps = output_tokens.max(1) as f64;
        let n = report.assignments.len() as f64;
        let prefill_traffic = self.programs.prefill().total_traffic();
        let prefill_flops = self.programs.prefill().total_flops();
        let decode_traffic = self.programs.decode().total_traffic().scale(steps);
        let decode_flops = self.programs.decode().total_flops() * steps;
        let prefill_pure = self.programs.prefill().execution_time().as_secs();
        let decode_pure = self.programs.decode().execution_time().as_secs() * steps;
        let unit_pure = prefill_pure + decode_pure;
        let prefill_share = if unit_pure > 0.0 {
            prefill_pure / unit_pure
        } else {
            0.0
        };
        // Expert copies stream out of DDR and into HBM: the same bytes
        // load both tiers, and the slower DDR side is what binds (§V-B).
        let switch_bytes = self
            .library
            .expert_bytes()
            .scale(report.expert_misses as f64);
        let router_steps = self.calib.router_equiv_decode_steps;
        vec![
            PhaseSample {
                kind: PhaseKind::Router,
                time: report.router,
                flops: prefill_flops + self.programs.decode().total_flops() * router_steps,
                hbm_bytes: prefill_traffic
                    + self.programs.decode().total_traffic().scale(router_steps),
                ddr_bytes: Bytes::ZERO,
            },
            PhaseSample {
                kind: PhaseKind::Switching,
                time: report.switching,
                flops: Flops::ZERO,
                hbm_bytes: switch_bytes,
                ddr_bytes: switch_bytes,
            },
            PhaseSample {
                kind: PhaseKind::Prefill,
                time: report.execution * prefill_share,
                flops: prefill_flops * n,
                hbm_bytes: prefill_traffic.scale(n),
                ddr_bytes: Bytes::ZERO,
            },
            PhaseSample {
                kind: PhaseKind::Decode,
                time: report.execution * (1.0 - prefill_share),
                flops: decode_flops * n,
                hbm_bytes: decode_traffic.scale(n),
                ddr_bytes: Bytes::ZERO,
            },
            PhaseSample {
                kind: PhaseKind::Recovery,
                time: report.recovery,
                flops: Flops::ZERO,
                hbm_bytes: Bytes::ZERO,
                ddr_bytes: Bytes::ZERO,
            },
        ]
    }

    /// Roofline bottleneck attribution of one served batch against this
    /// node's hardware profile: per-phase time shares, compute/HBM/DDR
    /// classification, attained-vs-attainable FLOP rate, and per-tier
    /// bandwidth utilization.
    pub fn profile(&self, report: &ServeReport, output_tokens: usize) -> ServeAttribution {
        ServeAttribution::from_samples(
            MachineProfile::from_node(self.executor.node()),
            self.phase_samples(report, output_tokens),
        )
    }

    /// Feeds one served batch into the SLO tracker (when attached) and
    /// stamps the report with the refreshed window snapshot. Runs after
    /// all timing arithmetic; with no tracker it is a no-op and the
    /// report's `slo` stays `None`.
    pub(crate) fn observe_slo(
        &mut self,
        report: &mut ServeReport,
        prefill_unit: TimeSecs,
        output_tokens: usize,
    ) {
        if self.slo.is_none() {
            return;
        }
        let samples = self.phase_samples(report, output_tokens);
        let hbm_bytes: Bytes = samples.iter().map(|s| s.hbm_bytes).sum();
        let ddr_bytes: Bytes = samples.iter().map(|s| s.ddr_bytes).sum();
        let tracker = self.slo.as_mut().expect("checked above");
        tracker.record(BatchObservation {
            latency: report.total(),
            ttft: report.router + report.switching + prefill_unit,
            prompts: report.assignments.len(),
            tokens: report.assignments.len() * output_tokens,
            hbm_bytes,
            ddr_bytes,
        });
        report.slo = tracker.snapshot();
    }

    /// Records the serving-level view of a batch on [`Track::Coe`]: one
    /// router span, one execution span per prompt, and a request-latency
    /// observation per prompt (its model run plus an even share of the
    /// batch-level router, switching, and recovery time). Runs after the
    /// timing arithmetic so traced and untraced results stay identical.
    fn trace_batch(
        &self,
        label: &str,
        assignments: &[usize],
        router: TimeSecs,
        switching: TimeSecs,
        run: TimeSecs,
        recovery: TimeSecs,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let n = assignments.len();
        self.tracer.count(Counter::RouterDecisions, n as u64);
        self.tracer.count(Counter::PromptsServed, n as u64);
        self.tracer.span(
            Track::Coe,
            format!("router:{label}"),
            router,
            &[("prompts", ArgValue::from(n))],
        );
        let shared = (router + switching + recovery) * (1.0 / n as f64);
        for (i, &e) in assignments.iter().enumerate() {
            self.tracer.observe(Metric::Request, run + shared);
            self.tracer.span(
                Track::Coe,
                format!("prompt{i}:expert{e}"),
                run,
                &[("expert", ArgValue::from(e))],
            );
        }
    }

    /// Serves a batch with *expert prefetching*: while prompt `i` executes,
    /// prompt `i+1`'s expert copies DDR→HBM in the background — the overlap
    /// the dual off-chip tiers make possible (switching touches DDR and
    /// HBM-copy bandwidth, execution reads already-resident HBM weights).
    /// Only the first expert's copy is exposed; later switches hide behind
    /// execution unless a copy outlasts a whole model run.
    pub fn serve_batch_prefetched(
        &mut self,
        prompts: &[Prompt],
        output_tokens: usize,
    ) -> ServeReport {
        assert!(!prompts.is_empty(), "empty batch");
        let n = self.library.len();
        let assignments: Vec<usize> = prompts.iter().map(|p| self.router.route(p, n)).collect();
        let router = self.router_time();
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let mut hits = 0;
        let mut misses = 0;
        let mut exposed_switching = TimeSecs::ZERO;
        let mut seen = std::collections::HashSet::new();
        let mut overlap_budget = TimeSecs::ZERO;
        for &e in &assignments {
            let switch_time = if seen.insert(e) {
                let name = self.library.expert(e).name.as_str();
                let outcome = self.runtime.activate(name).expect("expert registered");
                if outcome.hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                outcome.switch_time
            } else {
                TimeSecs::ZERO
            };
            // The part of this switch that the previous prompt's execution
            // could not hide is exposed.
            let hidden = switch_time.min(overlap_budget);
            exposed_switching += switch_time - hidden;
            // This prompt's execution becomes overlap budget for the next
            // prompt's prefetch.
            overlap_budget = run;
        }
        let execution = run * prompts.len() as f64;
        self.trace_batch(
            "prefetched",
            &assignments,
            router,
            exposed_switching,
            run,
            TimeSecs::ZERO,
        );
        let mut report = ServeReport {
            router,
            switching: exposed_switching,
            execution,
            recovery: TimeSecs::ZERO,
            retries: 0,
            expert_hits: hits,
            expert_misses: misses,
            assignments,
            metrics: self.tracer.metrics_opt(),
            slo: None,
        };
        self.observe_slo(&mut report, prefill_unit, output_tokens);
        report
    }

    /// Serves a batch of prompts, producing `output_tokens` per prompt.
    pub fn serve_batch(&mut self, prompts: &[Prompt], output_tokens: usize) -> ServeReport {
        assert!(!prompts.is_empty(), "empty batch");
        let n = self.library.len();
        let assignments: Vec<usize> = prompts.iter().map(|p| self.router.route(p, n)).collect();
        let router = self.router_time();
        // Activate deduplicated experts in routing order.
        let mut switching = TimeSecs::ZERO;
        let mut hits = 0;
        let mut misses = 0;
        let mut seen = std::collections::HashSet::new();
        for &e in &assignments {
            if !seen.insert(e) {
                continue;
            }
            let name = self.library.expert(e).name.as_str();
            let outcome = self.runtime.activate(name).expect("expert registered");
            if outcome.hit {
                hits += 1;
            } else {
                misses += 1;
            }
            switching += outcome.switch_time;
        }
        // Each (prompt, expert) pair runs sequentially.
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let execution = run * prompts.len() as f64;
        self.trace_batch(
            "batch",
            &assignments,
            router,
            switching,
            run,
            TimeSecs::ZERO,
        );
        let mut report = ServeReport {
            router,
            switching,
            execution,
            recovery: TimeSecs::ZERO,
            retries: 0,
            expert_hits: hits,
            expert_misses: misses,
            assignments,
            metrics: self.tracer.metrics_opt(),
            slo: None,
        };
        self.observe_slo(&mut report, prefill_unit, output_tokens);
        report
    }

    /// Fault-aware [`SambaCoeNode::serve_batch`]: consults the attached
    /// [`FaultPlan`] and drives every faultable phase through the node's
    /// [`RetryPolicy`], charging wasted attempts and backoff into the
    /// report's `recovery` component.
    ///
    /// Per batch: one router consultation ([`FaultSite::RouterDecision`] —
    /// a `Fail` is a classification timeout, retried by re-running the
    /// decode steps), one expert-load consultation per distinct cold
    /// expert (inside [`CoeRuntime::activate_with_recovery`]), and one
    /// socket consultation per prompt execution. With no plan attached
    /// (or an all-zero plan) the report is bit-identical to
    /// [`SambaCoeNode::serve_batch`].
    ///
    /// # Errors
    ///
    /// [`CoeError::RouterTimeout`] when router retries are exhausted;
    /// [`CoeError::LoadFault`] when an expert never loads intact;
    /// [`CoeError::SocketDown`] when a prompt's execution keeps dropping
    /// the socket fabric past the retry budget.
    pub fn try_serve_batch(
        &mut self,
        prompts: &[Prompt],
        output_tokens: usize,
    ) -> Result<ServeReport, CoeError> {
        assert!(!prompts.is_empty(), "empty batch");
        let Some(plan) = self.faults.clone() else {
            return Ok(self.serve_batch(prompts, output_tokens));
        };
        let n = self.library.len();
        let assignments: Vec<usize> = prompts.iter().map(|p| self.router.route(p, n)).collect();
        let mut recovery = Recovery::default();

        // Router: one classification pass over the batch; a Fail draw is a
        // timeout and the pass reruns after backoff.
        let router_once = self.router_time();
        let (router_factor, router_rec) = self
            .retry
            .run(|_| match plan.decide(FaultSite::RouterDecision) {
                FaultDecision::Ok => Ok(1.0),
                FaultDecision::Slow(factor) => Ok(factor),
                FaultDecision::Fail => Err(router_once),
            })
            .map_err(|e| CoeError::RouterTimeout {
                attempts: e.attempts,
            })?;
        if router_rec.retries > 0 && self.tracer.is_enabled() {
            self.tracer
                .count(Counter::RetriesAbsorbed, u64::from(router_rec.retries));
            self.tracer.instant(
                Track::Coe,
                "router-retry",
                &[
                    ("retries", ArgValue::from(u64::from(router_rec.retries))),
                    ("recovery_us", ArgValue::from(router_rec.time.as_micros())),
                ],
            );
        }
        recovery.merge(router_rec);
        let router = router_once * router_factor;

        // Switching: deduplicated activation through the runtime's
        // fault-aware load path.
        let mut switching = TimeSecs::ZERO;
        let mut hits = 0;
        let mut misses = 0;
        let mut seen = std::collections::HashSet::new();
        for &e in &assignments {
            if !seen.insert(e) {
                continue;
            }
            let name = self.library.expert(e).name.as_str();
            let (outcome, load_rec) = self.runtime.activate_with_recovery(name)?;
            if outcome.hit {
                hits += 1;
            } else {
                misses += 1;
            }
            switching += outcome.switch_time;
            recovery.merge(load_rec);
        }

        // Execution: one socket-fabric consultation per prompt. The factor
        // sum keeps the fault-free arithmetic identical to `serve_batch`
        // (`run * n`, not a float summation loop).
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let mut factor_sum = 0.0;
        for _ in prompts {
            let (factor, exec_rec) = self
                .retry
                .run(|_| match plan.decide(FaultSite::SocketLink) {
                    FaultDecision::Ok => Ok(1.0),
                    FaultDecision::Slow(factor) => Ok(factor),
                    FaultDecision::Fail => Err(run),
                })
                .map_err(|e| CoeError::SocketDown {
                    attempts: e.attempts,
                })?;
            factor_sum += factor;
            if exec_rec.retries > 0 && self.tracer.is_enabled() {
                self.tracer
                    .count(Counter::RetriesAbsorbed, u64::from(exec_rec.retries));
                self.tracer.instant(
                    Track::Coe,
                    "socket-retry",
                    &[
                        ("retries", ArgValue::from(u64::from(exec_rec.retries))),
                        ("recovery_us", ArgValue::from(exec_rec.time.as_micros())),
                    ],
                );
            }
            recovery.merge(exec_rec);
        }
        let execution = run * factor_sum;
        self.trace_batch(
            "fault-aware",
            &assignments,
            router,
            switching,
            run,
            recovery.time,
        );
        let mut report = ServeReport {
            router,
            switching,
            execution,
            recovery: recovery.time,
            retries: recovery.retries,
            expert_hits: hits,
            expert_misses: misses,
            assignments,
            metrics: self.tracer.metrics_opt(),
            slo: None,
        };
        self.observe_slo(&mut report, prefill_unit, output_tokens);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PromptGenerator;

    fn coe(experts: usize) -> SambaCoeNode {
        SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(experts), 1024)
    }

    #[test]
    fn single_prompt_latency_breakdown_matches_fig1_shape() {
        // Figure 1(b): on the SN40L, a cold 20-token request spends the
        // same order of magnitude on switching and execution — switching
        // never dominates the way it does over PCIe.
        let mut node = coe(150);
        let mut gen = PromptGenerator::new(1, 1024);
        let batch = gen.batch(1);
        let report = node.serve_batch(&batch, 20);
        assert_eq!(report.expert_misses, 1);
        let frac = report.switching_fraction();
        assert!(frac > 0.05 && frac < 0.6, "switching fraction {frac:.2}");
        // Total stays well under 100 ms (Figure 1's SN40L bar).
        assert!(
            report.total().as_millis() < 150.0,
            "total {}",
            report.total()
        );
    }

    #[test]
    fn repeat_traffic_hits_the_hbm_cache() {
        let mut node = coe(150);
        let mut gen = PromptGenerator::new(2, 1024);
        let batch = gen.batch(4);
        let cold = node.serve_batch(&batch, 20);
        let warm = node.serve_batch(&batch, 20);
        assert!(warm.expert_misses < cold.expert_misses + 1);
        assert!(warm.switching < cold.switching || warm.switching.is_zero());
        assert!(warm.total() < cold.total());
    }

    #[test]
    fn batch_dedups_expert_switches() {
        let mut node = coe(150);
        // All prompts in one domain with the same sub-task land on one
        // expert: one switch for the whole batch.
        let batch: Vec<Prompt> = (0..8)
            .map(|i| Prompt {
                id: i * 16,
                domain: crate::router::Domain::Math,
                tokens: 1024,
            })
            .collect();
        let report = node.serve_batch(&batch, 20);
        assert_eq!(report.expert_hits + report.expert_misses, 1);
    }

    #[test]
    fn small_library_stays_fully_resident() {
        // Under ~36 experts everything fits node HBM: once an expert is
        // activated it never gets evicted, so repeated traffic is
        // switch-free.
        let mut node = coe(30);
        let mut gen = PromptGenerator::new(3, 1024);
        let batch = gen.batch(8);
        node.serve_batch(&batch, 5); // warm exactly these experts
        let report = node.serve_batch(&batch, 5);
        assert_eq!(report.expert_misses, 0, "warmed experts stay resident");
        assert!(report.switching.is_zero());
    }

    #[test]
    fn prefetching_hides_most_switching() {
        let mut sequential = coe(150);
        let mut prefetched = coe(150);
        let batch = PromptGenerator::new(11, 1024).batch(8);
        let seq = sequential.serve_batch(&batch, 20);
        let pre = prefetched.serve_batch_prefetched(&batch, 20);
        assert_eq!(seq.expert_misses, pre.expert_misses, "same cold misses");
        assert!(
            pre.switching.as_secs() < seq.switching.as_secs() * 0.5,
            "prefetch should hide switching: {} vs {}",
            pre.switching,
            seq.switching
        );
        assert!(pre.total() < seq.total());
        // Only the first expert's copy can be fully exposed: with 20-token
        // runs (~25 ms) each later 13 ms copy hides completely.
        let one_switch = seq.switching.as_secs() / seq.expert_misses as f64;
        assert!(pre.switching.as_secs() <= one_switch * 1.5);
    }

    #[test]
    fn try_new_reports_ddr_exhaustion_instead_of_panicking() {
        let err = SambaCoeNode::try_new(NodeSpec::sn40l_node(), ExpertLibrary::new(2000), 1024);
        assert!(
            matches!(err, Err(CoeError::DdrFull(_))),
            "2000 experts exceed node DDR"
        );
    }

    #[test]
    fn try_serve_without_plan_matches_serve_batch_exactly() {
        let mut plain = coe(150);
        let mut aware = coe(150);
        let batch = PromptGenerator::new(7, 1024).batch(6);
        let want = plain.serve_batch(&batch, 20);
        let got = aware.try_serve_batch(&batch, 20).unwrap();
        assert_eq!(want, got, "no plan: bit-identical reports");
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan() {
        let mut plain = coe(150);
        let mut aware = coe(150).with_faults(Arc::new(FaultPlan::new(99)), RetryPolicy::standard());
        let batch = PromptGenerator::new(7, 1024).batch(6);
        let want = plain.serve_batch(&batch, 20);
        let got = aware.try_serve_batch(&batch, 20).unwrap();
        assert_eq!(want, got, "zero-rate plan: bit-identical reports");
        assert!(got.recovery.is_zero());
        assert_eq!(got.retries, 0);
    }

    #[test]
    fn injected_faults_charge_recovery_into_the_report() {
        use sn_faults::FaultSpec;
        let plan = Arc::new(
            FaultPlan::new(13)
                .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.2))
                .with_site(
                    FaultSite::SocketLink,
                    FaultSpec {
                        fail_rate: 0.2,
                        slow_rate: 0.2,
                        slow_factor: 1.5,
                    },
                )
                .with_site(FaultSite::RouterDecision, FaultSpec::failing(0.2)),
        );
        let mut clean = coe(150);
        let mut faulty = coe(150).with_faults(plan, RetryPolicy::standard());
        let batch = PromptGenerator::new(7, 1024).batch(8);
        let baseline = clean.serve_batch(&batch, 20);
        let report = faulty
            .try_serve_batch(&batch, 20)
            .expect("retries absorb these rates");
        assert!(report.retries > 0, "these rates should trigger retries");
        assert!(report.recovery.as_secs() > 0.0);
        assert!(report.total() > baseline.total(), "faults cost latency");
        assert_eq!(
            report.assignments, baseline.assignments,
            "routing is unperturbed"
        );
    }

    #[test]
    fn traced_serving_matches_untraced_and_records_metrics() {
        let mut plain = coe(150);
        let mut traced = coe(150).with_tracer(Tracer::enabled());
        let batch = PromptGenerator::new(7, 1024).batch(6);
        let want = plain.serve_batch(&batch, 20);
        let got = traced.serve_batch(&batch, 20);
        assert_eq!(want.total(), got.total(), "tracing must not perturb timing");
        assert_eq!(want.assignments, got.assignments);
        assert!(want.metrics.is_none(), "untraced runs attach no metrics");
        let metrics = got.metrics.expect("tracer attached");
        assert_eq!(metrics.counter(Counter::PromptsServed), 6);
        assert_eq!(metrics.counter(Counter::RouterDecisions), 6);
        assert_eq!(
            metrics.counter(Counter::ExpertHits) + metrics.counter(Counter::ExpertMisses),
            (want.expert_hits + want.expert_misses) as u64,
            "runtime cache events flow through the shared tracer"
        );
        assert!(
            metrics.counter(Counter::KernelLaunches) > 0,
            "executor shares the tracer"
        );
        assert!(
            metrics.histogram(Metric::Request).is_some(),
            "per-request latency histogram recorded"
        );
    }

    #[test]
    fn traced_fault_recovery_counts_absorbed_retries() {
        use sn_faults::FaultSpec;
        let plan = Arc::new(
            FaultPlan::new(13)
                .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.2))
                .with_site(FaultSite::SocketLink, FaultSpec::failing(0.2))
                .with_site(FaultSite::RouterDecision, FaultSpec::failing(0.2)),
        );
        let mut node = coe(150)
            .with_faults(plan, RetryPolicy::standard())
            .with_tracer(Tracer::enabled());
        let batch = PromptGenerator::new(7, 1024).batch(8);
        let report = node.try_serve_batch(&batch, 20).expect("retries absorb");
        assert!(report.retries > 0);
        let metrics = report.metrics.expect("tracer attached");
        assert_eq!(
            metrics.counter(Counter::RetriesAbsorbed),
            u64::from(report.retries),
            "router + load + socket retries are each counted exactly once"
        );
    }

    #[test]
    fn slo_snapshot_rides_along_without_perturbing_timing() {
        let mut plain = coe(150);
        let mut tracked = coe(150).with_slo(SloConfig::default());
        let mut gen_a = PromptGenerator::new(5, 1024);
        let mut gen_b = PromptGenerator::new(5, 1024);
        let mut last = None;
        for _ in 0..4 {
            let batch_a = gen_a.batch(4);
            let batch_b = gen_b.batch(4);
            let want = plain.serve_batch(&batch_a, 20);
            let got = tracked.serve_batch(&batch_b, 20);
            assert_eq!(
                want.total(),
                got.total(),
                "SLO tracking is pure bookkeeping"
            );
            assert!(want.slo.is_none(), "no tracker, no snapshot");
            last = got.slo;
        }
        let slo = last.expect("tracker attached");
        assert_eq!(slo.window_batches, 4);
        assert_eq!(slo.total_batches, 4);
        assert!(slo.batch_latency_p50 <= slo.batch_latency_p99);
        assert!(slo.ttft_p50 <= slo.ttft_p99);
        assert!(
            slo.ttft_p99 < slo.batch_latency_p50,
            "first token lands early"
        );
        assert!(slo.tokens_per_sec > 0.0);
        assert!(slo.hbm_utilization > 0.0 && slo.hbm_utilization <= 1.0);
        assert!(slo.ddr_utilization >= 0.0 && slo.ddr_utilization <= 1.0);
    }

    #[test]
    fn profile_classifies_phases_as_the_paper_says() {
        let mut node = coe(150);
        let batch = PromptGenerator::new(0x5eed, 1024).batch(8);
        let report = node.serve_batch(&batch, 20);
        let attribution = node.profile(&report, 20);
        // §V-B / §VI-B: expert switching is DDR-bandwidth-bound, decode is
        // HBM-bandwidth-bound, fused prefill is compute-bound.
        use sn_profile::Bound;
        assert_eq!(
            attribution.phase(PhaseKind::Switching).unwrap().bound,
            Bound::DdrBandwidth
        );
        assert_eq!(
            attribution.phase(PhaseKind::Decode).unwrap().bound,
            Bound::HbmBandwidth
        );
        assert_eq!(
            attribution.phase(PhaseKind::Prefill).unwrap().bound,
            Bound::Compute
        );
        let sum: f64 = attribution.phases.iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions partition the batch");
        assert!((attribution.total.as_secs() - report.total().as_secs()).abs() < 1e-12);
        // Determinism: same report, same attribution.
        assert_eq!(attribution, node.profile(&report, 20));
    }

    #[test]
    fn fractions_of_a_zero_total_report_are_zero_not_nan() {
        let report = ServeReport {
            router: TimeSecs::ZERO,
            switching: TimeSecs::ZERO,
            execution: TimeSecs::ZERO,
            recovery: TimeSecs::ZERO,
            retries: 0,
            expert_hits: 0,
            expert_misses: 0,
            assignments: vec![],
            metrics: None,
            slo: None,
        };
        assert_eq!(report.switching_fraction(), 0.0);
        assert_eq!(report.recovery_fraction(), 0.0);
    }

    #[test]
    fn orchestration_affects_latency() {
        let mut node = coe(40);
        let mut gen = PromptGenerator::new(4, 1024);
        let batch = gen.batch(2);
        node.serve_batch(&batch, 10); // warm the cache
        let ho = node.serve_batch(&batch, 10);
        node.set_orchestration(Orchestration::Software);
        let so = node.serve_batch(&batch, 10);
        assert!(so.total() > ho.total());
    }
}
