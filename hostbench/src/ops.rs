//! The calls one op makes into the library crates, the checks on their
//! outputs, and the accuracy record. Every serve goes through
//! [`serve`], the one call site of `CoeCluster::serve_tenants_observed`.

use crate::spans::Spans;
use crate::workloads::{ServeCell, Telemetry, PROMPT_TOKENS};
use sn_arch::{Bytes, Calibration, DgxSpec, Flops, NodeSpec, Orchestration, SocketSpec, TimeSecs};
use sn_coe::comparison::{ComparisonModel, Platform};
use sn_coe::{AutoscaleController, CoeCluster, ExpertLibrary, ServingPolicies, SloClass};
use sn_coe::{PolicyReport, TenancyReport};
use sn_compiler::{Compiler, FusionPolicy};
use sn_models::{Benchmark, TransformerConfig};
use sn_obs::{AlertKind, Obs, ObsReport};
use sn_profile::{Bound, MachineProfile, PhaseKind, PhaseSample, ServeAttribution};
use sn_runtime::{ExecutionReport, NodeExecutor};
use sn_trace::Tracer;
use std::fmt::Write as _;

/// Which configuration of a serving cell one [`serve`] call runs: the
/// op itself, or one of the twins the traced run compares it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The cell as the workload defines it.
    Main,
    /// Same inputs, serving policies off.
    PoliciesOff,
    /// Same inputs, no telemetry.
    Blind,
    /// Same inputs, the sn-obs pipeline without a tracer.
    ObservedOnly,
}

/// Span names of one variant's layer calls.
struct Names {
    root: &'static str,
    new: &'static str,
    serve: &'static str,
    finalize: &'static str,
    obs_export: &'static str,
    trace_export: &'static str,
}

impl Variant {
    fn names(self) -> Names {
        match self {
            Variant::Main => Names {
                root: "stack",
                new: "coe.cluster.new",
                serve: "coe.tenancy.serve",
                finalize: "obs.finalize",
                obs_export: "obs.export",
                trace_export: "trace.export",
            },
            Variant::PoliciesOff => Names {
                root: "twin.policies_off",
                new: "twin.policies_off/coe.cluster.new",
                serve: "twin.policies_off/coe.tenancy.serve",
                finalize: "twin.policies_off/obs.finalize",
                obs_export: "twin.policies_off/obs.export",
                trace_export: "twin.policies_off/trace.export",
            },
            Variant::Blind => Names {
                root: "twin.blind",
                new: "twin.blind/coe.cluster.new",
                serve: "twin.blind/coe.tenancy.serve",
                finalize: "twin.blind/obs.finalize",
                obs_export: "twin.blind/obs.export",
                trace_export: "twin.blind/trace.export",
            },
            Variant::ObservedOnly => Names {
                root: "twin.observed_only",
                new: "twin.observed_only/coe.cluster.new",
                serve: "twin.observed_only/coe.tenancy.serve",
                finalize: "twin.observed_only/obs.finalize",
                obs_export: "twin.observed_only/obs.export",
                trace_export: "twin.observed_only/trace.export",
            },
        }
    }

    /// The root span name of this variant's [`serve`] call.
    pub fn root_span(self) -> &'static str {
        self.names().root
    }

    /// The span name of this variant's serve call.
    pub fn serve_span(self) -> &'static str {
        self.names().serve
    }
}

/// Outputs of one serve.
#[derive(Debug, Clone)]
pub struct Served {
    /// The serving report.
    pub report: TenancyReport,
    /// The frozen sn-obs report, when the pipeline ran.
    pub obs: Option<ObsReport>,
    /// The sn-obs JSON export (empty without the pipeline).
    pub obs_json: String,
    /// The Chrome-trace JSON export (empty without a tracer).
    pub trace_json: String,
    /// Events the tracer buffered.
    pub trace_events: usize,
}

/// Builds the cell's cluster and serves its tenants once, with the
/// telemetry `variant` asks for, then builds the exports in memory.
pub fn serve(cell: &ServeCell, variant: Variant, sp: &mut Spans) -> Result<Served, String> {
    let names = variant.names();
    let telemetry = match variant {
        Variant::Main | Variant::PoliciesOff => cell.telemetry,
        Variant::Blind => Telemetry::Blind,
        Variant::ObservedOnly => Telemetry::ObsOnly,
    };
    sp.span(names.root, |sp| {
        // The schedule keeps per-window draw cursors: rewind them so
        // every serve of this cell replays the same chaos.
        if let Some(chaos) = &cell.chaos {
            chaos.reset();
        }
        let node = NodeSpec::sn40l_node();
        let cluster = sp.span(names.new, |_| {
            CoeCluster::new(
                node.clone(),
                cell.nodes,
                ExpertLibrary::new(cell.experts),
                PROMPT_TOKENS,
            )
        });
        let mut cluster = cluster.map_err(|e| format!("cluster: {e}"))?;
        let tracer = if telemetry == Telemetry::Full {
            let tracer = Tracer::enabled();
            cluster = cluster.with_tracer(tracer.clone());
            tracer
        } else {
            Tracer::disabled()
        };
        let obs = if telemetry == Telemetry::Blind {
            Obs::disabled()
        } else {
            Obs::enabled(cell.obs.clone())
        };
        let mut controller = cell
            .autoscale
            .map(|c| AutoscaleController::new(MachineProfile::from_node(&node), c));
        let mut policies = match variant {
            Variant::PoliciesOff => None,
            _ => cell.policies.map(|p| ServingPolicies::new(cell.experts, p)),
        };
        let report = sp
            .span(names.serve, |_| {
                cluster.serve_tenants_observed(
                    &cell.tenants,
                    &cell.config,
                    cell.chaos.as_ref(),
                    controller.as_mut(),
                    policies.as_mut(),
                    &obs,
                )
            })
            .map_err(|e| format!("serve: {e}"))?;
        let mut served = Served {
            report,
            obs: None,
            obs_json: String::new(),
            trace_json: String::new(),
            trace_events: 0,
        };
        if obs.is_enabled() {
            let frozen = sp.span(names.finalize, |_| obs.finalize());
            let frozen = frozen.ok_or("enabled pipeline did not finalize")?;
            served.obs_json = sp.span(names.obs_export, |_| frozen.to_json());
            served.obs = Some(frozen);
        }
        if tracer.is_enabled() {
            served.trace_events = tracer.event_count();
            served.trace_json = sp.span(names.trace_export, |_| tracer.chrome_trace_json());
        }
        Ok(served)
    })
}

/// What the profile layer makes of one report: per-class latency
/// quantiles and goodput, and the roofline switch-bound share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Interactive then batch p50 latency, s.
    pub p50: [f64; 2],
    /// Interactive then batch p99 latency, s.
    pub p99: [f64; 2],
    /// Interactive then batch goodput, requests/s inside the SLO.
    pub goodput: [f64; 2],
    /// Share of the serve bound by DDR expert switching.
    pub switch_bound: f64,
}

/// Summarizes one report the way the profile exhibits do.
pub fn summarize(report: &TenancyReport) -> Summary {
    let classes = [SloClass::Interactive, SloClass::Batch];
    let per_class = |f: &dyn Fn(SloClass) -> f64| [f(classes[0]), f(classes[1])];
    Summary {
        p50: per_class(&|c| report.latency_percentile(c, 0.50).as_secs()),
        p99: per_class(&|c| report.latency_percentile(c, 0.99).as_secs()),
        goodput: per_class(&|c| report.goodput_rps(c)),
        switch_bound: switch_bound_fraction(report),
    }
}

/// The DDR/switch-bound share of a serve under roofline attribution:
/// demand switches plus exposed background transfers against decode
/// weight streaming for the rest of the makespan.
fn switch_bound_fraction(report: &TenancyReport) -> f64 {
    let machine =
        MachineProfile::from_node(&NodeSpec::sn40l_node()).scale(report.final_nodes.max(1) as f64);
    let expert_bytes = TransformerConfig::llama2_7b().param_bytes();
    let policy = report.policy.unwrap_or_default();
    let switch_time = report.switch_time + policy.transfer_exposed;
    let switch_bytes =
        expert_bytes.scale((report.expert_misses as u64 + policy.prefetch_issued) as f64);
    let serve_time = if report.makespan > switch_time {
        report.makespan - switch_time
    } else {
        TimeSecs::ZERO
    };
    let serve_bytes = machine.hbm_bandwidth * serve_time;
    let attribution = ServeAttribution::from_samples(
        machine,
        vec![
            PhaseSample {
                kind: PhaseKind::Switching,
                time: switch_time,
                flops: Flops::ZERO,
                hbm_bytes: switch_bytes,
                ddr_bytes: switch_bytes,
            },
            PhaseSample {
                kind: PhaseKind::Decode,
                time: serve_time,
                flops: Flops::new(serve_bytes.as_f64() * 2.0),
                hbm_bytes: serve_bytes,
                ddr_bytes: Bytes::ZERO,
            },
        ],
    );
    attribution.bound_fraction(Bound::DdrBandwidth) + attribution.bound_fraction(Bound::Switching)
}

/// Broken invariants of one serving report.
pub fn serve_violations(report: &TenancyReport) -> Vec<String> {
    let mut v = Vec::new();
    let completed = report.records.len();
    if report.submitted != completed + report.shed.len() {
        v.push(format!(
            "submitted {} != completed {} + shed {}",
            report.submitted,
            completed,
            report.shed.len()
        ));
    }
    if !report.conservation_holds() {
        v.push("admission conservation identity broken".into());
    }
    let policy = report.policy.unwrap_or_default();
    if policy.kv_pages_in < policy.kv_pages_evicted {
        v.push(format!(
            "kv pages_in {} < pages_evicted {}",
            policy.kv_pages_in, policy.kv_pages_evicted
        ));
    }
    v
}

/// Outputs of one compile op.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// Dataflow operators in the benchmark's graph.
    pub graph_ops: usize,
    /// Kernels of the unfused executable.
    pub unfused_kernels: usize,
    /// Kernels of the spatially fused executable.
    pub fused_kernels: usize,
    /// Unfused, software-orchestrated run.
    pub unfused_so: ExecutionReport,
    /// Fused, software-orchestrated run.
    pub fused_so: ExecutionReport,
    /// Fused, hardware-orchestrated run.
    pub fused_ho: ExecutionReport,
}

/// The compiler and node executor every compile op shares.
pub struct Toolchain {
    compiler: Compiler,
    node: NodeExecutor,
}

impl Toolchain {
    /// The SN40L socket compiler and node executor at baseline calibration.
    pub fn sn40l() -> Self {
        let calib = Calibration::baseline();
        Toolchain {
            compiler: Compiler::new(SocketSpec::sn40l(), calib.clone()),
            node: NodeExecutor::new(NodeSpec::sn40l_node(), calib),
        }
    }
}

/// Builds one Table II benchmark, compiles it unfused and spatially
/// fused, and runs it software- and hardware-orchestrated.
pub fn compile(bench: &Benchmark, tc: &Toolchain, sp: &mut Spans) -> Result<Compiled, String> {
    let graph = sp.span("models.build", |_| bench.build_graph());
    let unfused = sp
        .span("compiler.compile", |_| {
            tc.compiler.compile(&graph, FusionPolicy::Unfused)
        })
        .map_err(|e| format!("compile unfused: {e}"))?;
    let fused = sp
        .span("compiler.compile", |_| {
            tc.compiler.compile(&graph, FusionPolicy::Spatial)
        })
        .map_err(|e| format!("compile fused: {e}"))?;
    let mut run = |exe, orch| sp.span("runtime.run", |_| tc.node.run(exe, orch));
    let unfused_so = run(&unfused, Orchestration::Software);
    let fused_so = run(&fused, Orchestration::Software);
    let fused_ho = run(&fused, Orchestration::Hardware);
    Ok(Compiled {
        graph_ops: graph.node_count(),
        unfused_kernels: unfused.kernel_count(),
        fused_kernels: fused.kernel_count(),
        unfused_so,
        fused_so,
        fused_ho,
    })
}

/// Broken invariants of one compile op.
pub fn compile_violations(c: &Compiled) -> Vec<String> {
    let mut v = Vec::new();
    if c.fused_kernels > c.unfused_kernels {
        v.push(format!(
            "fused kernels {} > unfused kernels {}",
            c.fused_kernels, c.unfused_kernels
        ));
    }
    for (what, r) in [
        ("unfused SO", &c.unfused_so),
        ("fused SO", &c.fused_so),
        ("fused HO", &c.fused_ho),
    ] {
        let t = r.total.as_secs();
        if !(t.is_finite() && t > 0.0) {
            v.push(format!("{what} run time {t} is not a positive number"));
        }
    }
    v
}

/// FNV-1a over a value's `Debug` text: the op's output digest. Floats
/// print with full precision, so any bit of model output that changes
/// changes the digest.
pub fn digest(parts: &[&dyn std::fmt::Debug]) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in parts {
        let _ = write!(h, "{p:?}|");
    }
    h.0
}

/// Counts an op's outputs contribute to the per-layer table.
pub fn policy_counts(p: &PolicyReport) -> [(&'static str, f64); 7] {
    [
        ("coe.placement.prefetch_issued", p.prefetch_issued as f64),
        ("coe.placement.prefetch_hits", p.prefetch_hits as f64),
        ("coe.placement.replicas", p.experts_replicated as f64),
        ("coe.placement.cold_moves", p.cold_moves as f64),
        ("coe.kv.pages_in", p.kv_pages_in as f64),
        ("coe.kv.pages_evicted", p.kv_pages_evicted as f64),
        ("coe.kv.refaults", p.kv_refaults as f64),
    ]
}

/// Counts the sn-obs report contributes to the per-layer table.
pub fn obs_counts(r: &ObsReport) -> [(&'static str, f64); 4] {
    [
        ("obs.series", r.series.len() as f64),
        (
            "obs.samples",
            r.series.iter().map(|(_, b)| b.total_samples()).sum::<u64>() as f64,
        ),
        (
            "obs.alerts_fired",
            r.alerts_of(AlertKind::Firing).count() as f64,
        ),
        ("obs.postmortems", r.postmortems.len() as f64),
    ]
}

/// Table I intensities and Table III speedups as the paper publishes
/// them, beside what the model computes. The paper's DGX columns are
/// themselves estimates and the repository holds no SN40L measurements,
/// so this records agreement with the paper, not validation against
/// hardware.
pub fn paper_pairs(sp: &mut Spans) -> Vec<(f64, f64)> {
    use sn_dataflow::intensity::{fusion_levels, FusionLevel};
    let levels = sp.span("dataflow.intensity", |_| {
        fusion_levels(&sn_dataflow::monarch::monarch_fig3())
    });
    let mut pairs = vec![
        (39.5, levels[&FusionLevel::None]),
        (102.6, levels[&FusionLevel::Partial]),
        (410.4, levels[&FusionLevel::Full]),
    ];
    sp.span("baseline.estimate", |_| {
        let model = ComparisonModel::new(1024);
        let latency = |p, bs, toks| model.request_latency(p, 150, bs, toks);
        let (sn, a, h) = (Platform::Sn40l, Platform::DgxA100, Platform::DgxH100);
        // (paper vs A100, paper vs H100, batch, output tokens, which time)
        let rows: [(f64, f64, usize, usize, u8); 7] = [
            (6.6, 3.7, 8, 20, 0),
            (4.8, 2.8, 1, 20, 0),
            (2.0, 1.5, 1, 20, 1),
            (4.2, 2.7, 8, 200, 0),
            (3.9, 2.6, 1, 200, 0),
            (3.2, 2.3, 1, 200, 1),
            (31.0, 15.0, 8, 20, 2),
        ];
        for (paper_a, paper_h, bs, toks, which) in rows {
            let time = |p| {
                latency(p, bs, toks).map(|l| match which {
                    0 => l.total(),
                    1 => l.execution(),
                    _ => l.switching,
                })
            };
            if let (Some(t_sn), Some(t_a), Some(t_h)) = (time(sn), time(a), time(h)) {
                pairs.push((paper_a, t_a / t_sn));
                pairs.push((paper_h, t_h / t_sn));
            }
        }
        // §I: 850 experts fit one SN40L node but need 19 DGX A100s.
        let expert = TransformerConfig::llama2_7b().param_bytes();
        let dgx = sn_baseline::dgx_nodes_needed(&DgxSpec::dgx_a100(), 850, expert);
        let sn40l = sn_baseline::sn40l_nodes_needed(&NodeSpec::sn40l_node(), 850, expert);
        pairs.push((19.0, dgx as f64 / sn40l.max(1) as f64));
    });
    pairs
}

/// Median relative error of [`paper_pairs`].
pub fn paper_err(pairs: &[(f64, f64)]) -> f64 {
    let errs: Vec<f64> = pairs
        .iter()
        .map(|&(paper, model)| ((model - paper) / paper).abs())
        .collect();
    crate::stats::quantile(&errs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tracks_every_float_bit() {
        let a = digest(&[&1.0f64, &"x"]);
        assert_eq!(a, digest(&[&1.0f64, &"x"]));
        assert_ne!(a, digest(&[&(1.0f64 + f64::EPSILON), &"x"]));
    }

    #[test]
    fn paper_error_covers_both_tables_and_is_small() {
        let pairs = paper_pairs(&mut Spans::new(false));
        assert_eq!(pairs.len(), 3 + 14 + 1);
        let err = paper_err(&pairs);
        assert!(err > 0.0 && err < 0.5, "paper_err {err}");
    }
}
