//! Running executables with launch-overhead accounting (§IV-D, §VI-A).

use sn_arch::{Calibration, NodeSpec, Orchestration, TimeSecs};
use sn_compiler::Executable;
use sn_faults::{FaultDecision, FaultPlan, FaultSite, Recovery, RetryError, RetryPolicy};
use sn_trace::{ArgValue, Counter, Metric, Tracer, Track};
use std::fmt;
use std::sync::Arc;

/// Timing breakdown of one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionReport {
    /// End-to-end time.
    pub total: TimeSecs,
    /// Pure kernel execution time.
    pub exec: TimeSecs,
    /// Per-kernel launch overhead (dispatch).
    pub launch: TimeSecs,
    /// One-time program-load cost for distinct kernel configurations.
    pub program_load: TimeSecs,
    /// Number of kernel launches.
    pub launches: usize,
    /// Number of distinct kernel programs.
    pub distinct_programs: usize,
}

impl ExecutionReport {
    /// Fraction of total time spent on launch overheads — the quantity
    /// hardware orchestration attacks (§VI-A).
    pub fn overhead_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            (self.launch + self.program_load).as_secs() / self.total.as_secs()
        }
    }

    /// Stretches every time component by `factor` (an injected
    /// socket-fabric slowdown); launch/program counts are unchanged.
    fn scaled(self, factor: f64) -> ExecutionReport {
        ExecutionReport {
            total: self.total * factor,
            exec: self.exec * factor,
            launch: self.launch * factor,
            program_load: self.program_load * factor,
            ..self
        }
    }
}

/// Executes compiled programs on an RDU node.
///
/// Under tensor parallelism, every socket runs the same per-socket
/// executable in lockstep (the graphs are built per-socket and carry
/// AllReduce nodes), so node time equals socket time.
#[derive(Debug, Clone)]
pub struct NodeExecutor {
    node: NodeSpec,
    calib: Calibration,
    faults: Option<Arc<FaultPlan>>,
    tracer: Tracer,
}

impl NodeExecutor {
    pub fn new(node: NodeSpec, calib: Calibration) -> Self {
        NodeExecutor {
            node,
            calib,
            faults: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: every run then emits a span on the runtime track
    /// with its launch/program-load split, bumps
    /// [`Counter::KernelLaunches`] / [`Counter::ProgramLoads`], and records
    /// the total in the [`Metric::KernelRun`] histogram. Report timings are
    /// unaffected.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a fault plan consulted at [`FaultSite::SocketLink`] by the
    /// fault-aware run paths ([`NodeExecutor::try_run`] and
    /// [`NodeExecutor::try_run_decode_loop`]); the plain paths stay
    /// fault-oblivious.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Roofline utilization of one completed [`NodeExecutor::run`]:
    /// attained FLOP rate (the executable's FLOPs over the report's
    /// total, launch overheads included) against what the node's
    /// roofline admits at the executable's operational intensity. 0.0
    /// for FLOP-free or zero-time runs; launch-overhead-dominated runs
    /// score low even when the pure kernel time sits on the roof — that
    /// gap is exactly what hardware orchestration attacks (§VI-A). For
    /// decode loops pass the single-step report, not the loop total
    /// (the executable's FLOPs count one step).
    pub fn roofline_utilization(&self, exe: &Executable, report: &ExecutionReport) -> f64 {
        if report.total.is_zero() {
            return 0.0;
        }
        let attained = sn_arch::FlopRate::from_flops_per_s(
            exe.total_flops().as_f64() / report.total.as_secs(),
        );
        self.node
            .roofline()
            .utilization(attained, exe.total_flops().intensity(exe.total_traffic()))
    }

    /// [`NodeExecutor::run`] without trace recording — shared by the
    /// public paths so decode loops don't double-count their inner run.
    fn run_untraced(&self, exe: &Executable, orch: Orchestration) -> ExecutionReport {
        let launches = exe.kernel_count();
        let distinct = exe.distinct_programs();
        let exec = exe.execution_time();
        let launch = self.calib.launch_overhead(orch) * launches as f64;
        let program_load = self.calib.program_load * distinct as f64;
        ExecutionReport {
            total: exec + launch + program_load,
            exec,
            launch,
            program_load,
            launches,
            distinct_programs: distinct,
        }
    }

    /// Records one completed run into the attached tracer (no-op when
    /// tracing is disabled). The span name is formatted only when
    /// recording, so untraced runs never allocate it.
    fn trace_run(&self, name: fmt::Arguments<'_>, report: &ExecutionReport) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer
            .count(Counter::KernelLaunches, report.launches as u64);
        self.tracer
            .count(Counter::ProgramLoads, report.distinct_programs as u64);
        self.tracer.observe(Metric::KernelRun, report.total);
        self.tracer.span(
            Track::Runtime,
            name.to_string(),
            report.total,
            &[
                ("launches", ArgValue::from(report.launches)),
                (
                    "distinct_programs",
                    ArgValue::from(report.distinct_programs),
                ),
                ("exec_us", ArgValue::from(report.exec.as_micros())),
                ("launch_us", ArgValue::from(report.launch.as_micros())),
                (
                    "program_load_us",
                    ArgValue::from(report.program_load.as_micros()),
                ),
            ],
        );
    }

    /// Runs the executable once under the given orchestration.
    pub fn run(&self, exe: &Executable, orch: Orchestration) -> ExecutionReport {
        let report = self.run_untraced(exe, orch);
        self.trace_run(format_args!("run:{orch:?}"), &report);
        report
    }

    /// Runs a decode executable for `steps` autoregressive steps: program
    /// loads amortize across steps, launch overheads repeat.
    pub fn run_decode_loop(
        &self,
        exe: &Executable,
        orch: Orchestration,
        steps: usize,
    ) -> ExecutionReport {
        let one = self.run_untraced(exe, orch);
        let exec = one.exec * steps as f64;
        let launch = one.launch * steps as f64;
        let report = ExecutionReport {
            total: exec + launch + one.program_load,
            exec,
            launch,
            program_load: one.program_load,
            launches: one.launches * steps,
            distinct_programs: one.distinct_programs,
        };
        self.trace_run(format_args!("decode-loop:{steps}x"), &report);
        report
    }

    /// Consults the fault plan at [`FaultSite::SocketLink`] and drives the
    /// pass through `retry`: a `Fail` draw (dropped peer-to-peer link
    /// mid-AllReduce) wastes the pass and is retried with backoff; a
    /// `Slow` draw stretches the surviving pass. With no plan attached
    /// this returns `report` untouched.
    fn apply_faults(
        &self,
        report: ExecutionReport,
        retry: RetryPolicy,
    ) -> Result<(ExecutionReport, Recovery), RetryError> {
        let Some(plan) = &self.faults else {
            return Ok((report, Recovery::default()));
        };
        let (factor, recovery) = retry.run(|_| match plan.decide(FaultSite::SocketLink) {
            FaultDecision::Ok => Ok(1.0),
            FaultDecision::Slow(factor) => Ok(factor),
            FaultDecision::Fail => Err(report.total),
        })?;
        Ok((report.scaled(factor), recovery))
    }

    /// Fault-aware [`NodeExecutor::run`].
    ///
    /// # Errors
    ///
    /// [`RetryError`] when injected socket failures outlast the retry
    /// budget; the recovery inside carries the time burned.
    pub fn try_run(
        &self,
        exe: &Executable,
        orch: Orchestration,
        retry: RetryPolicy,
    ) -> Result<(ExecutionReport, Recovery), RetryError> {
        self.apply_faults(self.run(exe, orch), retry)
    }

    /// Fault-aware [`NodeExecutor::run_decode_loop`]. The whole decode
    /// loop is one fault-plan consultation: the socket either holds for
    /// the generation or drops it (per-step draws would make long
    /// generations arbitrarily unlikely to finish at any nonzero rate).
    ///
    /// # Errors
    ///
    /// [`RetryError`] when injected socket failures outlast the retry
    /// budget.
    pub fn try_run_decode_loop(
        &self,
        exe: &Executable,
        orch: Orchestration,
        steps: usize,
        retry: RetryPolicy,
    ) -> Result<(ExecutionReport, Recovery), RetryError> {
        self.apply_faults(self.run_decode_loop(exe, orch, steps), retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_compiler::{Compiler, FusionPolicy};
    use sn_models::{build, Phase, TransformerConfig};

    fn exec_llama(phase: Phase, policy: FusionPolicy) -> (Executable, NodeExecutor) {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, phase, 1, 8).unwrap();
        let c = Compiler::new(sn_arch::SocketSpec::sn40l(), Calibration::baseline());
        let exe = c.compile(&g, policy).unwrap();
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), Calibration::baseline());
        (exe, node)
    }

    #[test]
    fn fused_decode_layer_count_matches_paper_story() {
        // §VI-B: "the entire decoder layer is fused into a single kernel
        // call" and the model "mostly contains multiple identical decoder
        // layers" so there are virtually no program re-loads.
        let (exe, _) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        // 32 layers + embedding + head kernels.
        assert!(
            exe.kernel_count() <= 40,
            "got {} kernels",
            exe.kernel_count()
        );
        assert!(
            exe.distinct_programs() <= 5,
            "got {}",
            exe.distinct_programs()
        );
    }

    #[test]
    fn ho_beats_so_most_for_decode() {
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let so = node.run(&exe, Orchestration::Software);
        let ho = node.run(&exe, Orchestration::Hardware);
        let decode_gain = so.total / ho.total;
        let (pexe, pnode) = exec_llama(
            Phase::Prefill {
                prompt_tokens: 4096,
            },
            FusionPolicy::Spatial,
        );
        let pso = pnode.run(&pexe, Orchestration::Software);
        let pho = pnode.run(&pexe, Orchestration::Hardware);
        let prefill_gain = pso.total / pho.total;
        assert!(decode_gain > 1.2, "decode HO gain {decode_gain:.2}");
        assert!(prefill_gain < 1.15, "prefill HO gain {prefill_gain:.2}");
        assert!(decode_gain > prefill_gain);
    }

    #[test]
    fn decode_latency_is_milliseconds_per_token() {
        // Memory-bound sanity: ~13.5 GB of weights over 16 TB/s of node
        // HBM at 85% is ~1 ms/token.
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let t = node.run(&exe, Orchestration::Hardware).total.as_millis();
        assert!(t > 0.3 && t < 5.0, "decode step {t} ms");
    }

    #[test]
    fn prefill_latency_is_tens_of_milliseconds() {
        let (exe, node) = exec_llama(
            Phase::Prefill {
                prompt_tokens: 4096,
            },
            FusionPolicy::Spatial,
        );
        let t = node.run(&exe, Orchestration::Hardware).total.as_millis();
        assert!(t > 3.0 && t < 100.0, "prefill {t} ms");
    }

    #[test]
    fn decode_loop_amortizes_program_loads() {
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let one = node.run(&exe, Orchestration::Hardware);
        let twenty = node.run_decode_loop(&exe, Orchestration::Hardware, 20);
        assert!(twenty.total.as_secs() < one.total.as_secs() * 20.0);
        assert_eq!(twenty.launches, one.launches * 20);
    }

    #[test]
    fn try_run_without_plan_matches_run() {
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let plain = node.run(&exe, Orchestration::Hardware);
        let (aware, recovery) = node
            .try_run(&exe, Orchestration::Hardware, RetryPolicy::standard())
            .unwrap();
        assert_eq!(plain, aware);
        assert_eq!(recovery, Recovery::default());
    }

    #[test]
    fn socket_faults_charge_recovery_or_exhaust() {
        use sn_faults::FaultSpec;
        let plan =
            Arc::new(FaultPlan::new(2).with_site(FaultSite::SocketLink, FaultSpec::failing(0.5)));
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let node = node.with_faults(plan);
        let mut recovered = TimeSecs::ZERO;
        let mut completed = 0;
        for _ in 0..32 {
            match node.try_run(&exe, Orchestration::Hardware, RetryPolicy::standard()) {
                Ok((_, recovery)) => {
                    completed += 1;
                    recovered += recovery.time;
                }
                Err(err) => recovered += err.recovery.time,
            }
        }
        assert!(
            completed >= 28,
            "3 retries absorb a 50% rate almost always: {completed}/32"
        );
        assert!(recovered.as_secs() > 0.0);
    }

    #[test]
    fn socket_slowdowns_stretch_the_report() {
        use sn_faults::FaultSpec;
        let plan =
            Arc::new(FaultPlan::new(2).with_site(FaultSite::SocketLink, FaultSpec::slow(1.0, 2.0)));
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let clean = node.run(&exe, Orchestration::Hardware);
        let node = node.with_faults(plan);
        let (slowed, recovery) = node
            .try_run(&exe, Orchestration::Hardware, RetryPolicy::standard())
            .unwrap();
        assert!((slowed.total.as_secs() / clean.total.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(slowed.launches, clean.launches);
        assert_eq!(recovery.retries, 0, "slowdowns are not retried");
    }

    #[test]
    fn traced_runs_record_launch_counters() {
        let t = Tracer::enabled();
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let node = node.with_tracer(t.clone());
        let one = node.run(&exe, Orchestration::Hardware);
        node.run_decode_loop(&exe, Orchestration::Hardware, 10);
        let m = t.metrics();
        assert_eq!(
            m.counter(Counter::KernelLaunches),
            (one.launches + one.launches * 10) as u64
        );
        assert_eq!(m.histogram(Metric::KernelRun).unwrap().count(), 2);
        assert_eq!(t.event_count(), 2, "decode loop emits one span, not 11");
    }

    #[test]
    fn traced_report_matches_untraced() {
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let traced = node.clone().with_tracer(Tracer::enabled());
        assert_eq!(
            node.run(&exe, Orchestration::Hardware),
            traced.run(&exe, Orchestration::Hardware)
        );
    }

    #[test]
    fn roofline_utilization_brackets_and_orders() {
        // Memory-bound decode: nonzero but far from the roof isn't
        // expected — attained tracks attainable, so utilization is high
        // under HO and drops once launch overheads dilute it under SO.
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Spatial);
        let ho = node.run(&exe, Orchestration::Hardware);
        let so = node.run(&exe, Orchestration::Software);
        let u_ho = node.roofline_utilization(&exe, &ho);
        let u_so = node.roofline_utilization(&exe, &so);
        assert!(u_ho > 0.0 && u_ho <= 1.0, "HO utilization {u_ho}");
        assert!(u_so > 0.0 && u_so <= 1.0, "SO utilization {u_so}");
        assert!(
            u_ho > u_so,
            "launch overheads pull utilization off the roof: {u_ho} vs {u_so}"
        );
        let zero = ExecutionReport {
            total: TimeSecs::ZERO,
            exec: TimeSecs::ZERO,
            launch: TimeSecs::ZERO,
            program_load: TimeSecs::ZERO,
            launches: 0,
            distinct_programs: 0,
        };
        assert_eq!(node.roofline_utilization(&exe, &zero), 0.0);
    }

    #[test]
    fn overhead_fraction_is_sane() {
        let (exe, node) = exec_llama(Phase::Decode { past_tokens: 4096 }, FusionPolicy::Unfused);
        let so = node.run(&exe, Orchestration::Software);
        assert!(
            so.overhead_fraction() > 0.5,
            "unfused SO decode is launch-dominated"
        );
        let ho = node.run(&exe, Orchestration::Hardware);
        assert!(ho.overhead_fraction() < so.overhead_fraction());
    }
}
