//! Profiled replay of the Figure 12 serving point (`repro --profile`) and
//! the continuous-benchmark snapshot (`repro --bench-json`).
//!
//! [`profiled_fig12_run`] serves several same-seed batches on one SN40L
//! node with tracing *and* SLO tracking attached, then attributes the
//! last batch against the node's roofline — the per-phase
//! compute/HBM/DDR classification of §V-B/§VI-B, plus the sliding-window
//! latency/TTFT/throughput dashboard.
//!
//! [`bench_snapshot`] folds the tracked key figures — Figure 1 switching
//! fractions, the Figure 12 anchor point, Table III speedups, phase
//! attribution, counters, and SLO percentiles — into a
//! [`BenchSnapshot`] with per-metric tolerances — including the online
//! serving sweep from [`crate::serve`]. `scripts/bench_check.sh`
//! compares a fresh snapshot against the committed `BENCH_PR20.json`
//! baseline and fails CI on any out-of-tolerance drift. The snapshot's
//! metric runs fan across worker threads ([`bench_snapshot_jobs`]) yet
//! assemble in fixed order, so the JSON is byte-identical at any job
//! count.

use crate::experiments::{self, PROMPT_TOKENS};
use sn_arch::NodeSpec;
use sn_coe::{ExpertLibrary, PromptGenerator, SambaCoeNode, ServeReport};
use sn_profile::{
    request_latency_quantiles, BenchSnapshot, ServeAttribution, SloConfig, SloSnapshot,
};
use sn_trace::{Counter, Tracer};

/// Output tokens per prompt at the Figure 12 operating point.
pub const OUTPUT_TOKENS: usize = 20;

/// Output of one profiled serving run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The last batch's report, with metrics and SLO snapshot attached.
    pub report: ServeReport,
    /// Roofline attribution of the last batch.
    pub attribution: ServeAttribution,
    /// Batches served into the SLO window.
    pub batches: usize,
}

impl ProfiledRun {
    /// The SLO snapshot the run ended on.
    ///
    /// # Panics
    ///
    /// Never in practice: [`profiled_fig12_run`] always attaches a
    /// tracker and serves at least one batch.
    pub fn slo(&self) -> &SloSnapshot {
        self.report.slo.as_ref().expect("SLO tracker attached")
    }
}

/// Replays the Figure 12 SN40L point (`experts` experts, batch size
/// `batch`, 20 output tokens) for `batches` same-seed batches with
/// tracing and SLO tracking enabled, then attributes the final batch.
/// Deterministic: same parameters, identical attribution and snapshot.
///
/// # Panics
///
/// Panics when the expert library exceeds node DDR (past the Figure 12
/// capacity wall).
pub fn profiled_fig12_run(experts: usize, batch: usize, batches: usize) -> ProfiledRun {
    let library = ExpertLibrary::new(experts);
    let mut node = SambaCoeNode::new(NodeSpec::sn40l_node(), library, PROMPT_TOKENS)
        .with_tracer(Tracer::enabled())
        .with_slo(SloConfig::default());
    let mut gen = PromptGenerator::new(0x5eed, PROMPT_TOKENS);
    let batches = batches.max(1);
    let mut report = None;
    for _ in 0..batches {
        report = Some(node.serve_batch(&gen.batch(batch), OUTPUT_TOKENS));
    }
    let report = report.expect("at least one batch");
    let attribution = node.profile(&report, OUTPUT_TOKENS);
    ProfiledRun {
        report,
        attribution,
        batches,
    }
}

/// Stable dotted-key segment from a display name ("DGX A100" → "dgx-a100").
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// One independent data product feeding the snapshot — the unit of
/// fan-out for [`bench_snapshot_jobs`]. Each product is a pure function
/// of the model, so the products can be computed in any order (or on
/// any thread) and assembled sequentially afterwards.
enum SnapshotTask {
    Fig1,
    Fig12,
    Table3,
    Profiled,
    SweepPoint(f64),
    PlacementPoint(crate::placement::PlacementCase),
}

/// The result of one [`SnapshotTask`].
enum SnapshotPart {
    Fig1(Vec<(sn_coe::Platform, sn_coe::LatencyBreakdown)>),
    Fig12(Vec<experiments::Fig12Point>),
    Table3(Vec<experiments::Table3Row>),
    Profiled(Box<ProfiledRun>),
    SweepPoint(crate::serve::ServeSweepPoint),
    PlacementPoint(Box<crate::placement::PlacementSweepPoint>),
}

/// Builds the tracked-metric snapshot for the continuous-benchmark
/// harness: model figures at a 2% tolerance, event counters exact, SLO
/// and attribution numbers at 2%, bottleneck classifications as exact
/// text. Purely deterministic — wall-clock `info` entries are added by
/// the caller (`repro --bench-json`), never here.
pub fn bench_snapshot() -> BenchSnapshot {
    bench_snapshot_jobs(1)
}

/// [`bench_snapshot`] with its independent metric runs (Figure 1,
/// Figure 12, Table III, the profiled serving run, and each point of
/// the online sweep) fanned across `jobs` worker threads. Assembly
/// stays sequential, so the snapshot JSON is byte-identical for every
/// `jobs` value — `scripts/bench_check.sh` holds under parallelism.
pub fn bench_snapshot_jobs(jobs: usize) -> BenchSnapshot {
    let mut tasks = vec![
        SnapshotTask::Fig1,
        SnapshotTask::Fig12,
        SnapshotTask::Table3,
        SnapshotTask::Profiled,
    ];
    tasks.extend(
        crate::serve::SWEEP_RATES
            .iter()
            .map(|&r| SnapshotTask::SweepPoint(r)),
    );
    // The placement acceptance pair: reactive vs managed serving on the
    // bursty 2x chaos scenario (the headline hit-rate / switch-bound
    // deltas of `repro placement`).
    for policies in [false, true] {
        tasks.push(SnapshotTask::PlacementPoint(
            crate::placement::PlacementCase {
                policies,
                chaos: true,
                load: 2.0,
            },
        ));
    }
    let mut fig1 = None;
    let mut fig12 = None;
    let mut table3 = None;
    let mut run = None;
    let mut points = Vec::with_capacity(crate::serve::SWEEP_RATES.len());
    let mut placement_points = Vec::new();
    for part in crate::par::ordered_map(jobs, &tasks, |_, task| match task {
        SnapshotTask::Fig1 => SnapshotPart::Fig1(experiments::fig1()),
        SnapshotTask::Fig12 => SnapshotPart::Fig12(experiments::fig12(8)),
        SnapshotTask::Table3 => SnapshotPart::Table3(experiments::table3()),
        SnapshotTask::Profiled => SnapshotPart::Profiled(Box::new(profiled_fig12_run(150, 8, 4))),
        SnapshotTask::SweepPoint(rate) => {
            SnapshotPart::SweepPoint(crate::serve::serve_point(*rate))
        }
        SnapshotTask::PlacementPoint(case) => {
            SnapshotPart::PlacementPoint(Box::new(crate::placement::placement_point(*case)))
        }
    }) {
        match part {
            SnapshotPart::Fig1(v) => fig1 = Some(v),
            SnapshotPart::Fig12(v) => fig12 = Some(v),
            SnapshotPart::Table3(v) => table3 = Some(v),
            SnapshotPart::Profiled(v) => run = Some(*v),
            // ordered_map keeps input order, so points land rate-sorted.
            SnapshotPart::SweepPoint(p) => points.push(p),
            SnapshotPart::PlacementPoint(p) => placement_points.push(*p),
        }
    }
    let (fig1, fig12, table3, run) = (
        fig1.expect("fig1 task ran"),
        fig12.expect("fig12 task ran"),
        table3.expect("table3 task ran"),
        run.expect("profiled task ran"),
    );

    let mut snap = BenchSnapshot::new();
    snap.push_info(
        "operating_point",
        "150 experts, BS=8, 20 output tokens, 1024 prompt tokens, seed 0x5eed",
    );

    // Figure 1: per-platform switching fraction (the memory-wall bar chart).
    for (platform, b) in fig1 {
        snap.push_num(
            &format!("fig1.{}.switching_fraction", slug(platform.name())),
            b.switching_fraction(),
            "fraction",
            0.02,
        );
    }

    // Figure 12 anchor: 150 experts, BS=8 totals and the headline speedup.
    let anchor = fig12
        .into_iter()
        .find(|p| p.experts == 150)
        .expect("150 experts is in the sweep");
    let sn = anchor.sn40l.expect("SN40L holds 150 experts");
    let a100 = anchor.dgx_a100.expect("A100 holds 150 experts");
    let h100 = anchor.dgx_h100.expect("H100 holds 150 experts");
    snap.push_num("fig12.bs8.sn40l_ms", sn.as_millis(), "ms", 0.02);
    snap.push_num("fig12.bs8.dgx_a100_ms", a100.as_millis(), "ms", 0.02);
    snap.push_num("fig12.bs8.dgx_h100_ms", h100.as_millis(), "ms", 0.02);
    snap.push_num("fig12.bs8.speedup_vs_a100", a100 / sn, "x", 0.02);

    // Table III speedups.
    for r in table3 {
        let key = slug(r.metric);
        snap.push_num(&format!("table3.{key}.vs_a100"), r.vs_a100, "x", 0.02);
        snap.push_num(&format!("table3.{key}.vs_h100"), r.vs_h100, "x", 0.02);
    }

    // Profiled serving run: end-to-end figures, attribution, counters, SLO.
    snap.push_num("serve.total_ms", run.report.total().as_millis(), "ms", 0.02);
    snap.push_num(
        "serve.switching_fraction",
        run.report.switching_fraction(),
        "fraction",
        0.02,
    );
    for phase in &run.attribution.phases {
        let name = phase.kind.name();
        snap.push_num(
            &format!("attribution.{name}.fraction"),
            phase.fraction,
            "fraction",
            0.02,
        );
        snap.push_text(&format!("attribution.{name}.bound"), phase.bound.name());
    }
    snap.push_num(
        "attribution.decode.hbm_utilization",
        run.attribution
            .phase(sn_profile::PhaseKind::Decode)
            .expect("decode sampled")
            .hbm_utilization,
        "fraction",
        0.02,
    );
    snap.push_num(
        "attribution.switching.ddr_utilization",
        run.attribution
            .phase(sn_profile::PhaseKind::Switching)
            .expect("switching sampled")
            .ddr_utilization,
        "fraction",
        0.02,
    );

    let metrics = run.report.metrics.as_ref().expect("tracer attached");
    for counter in [
        Counter::PromptsServed,
        Counter::ExpertHits,
        Counter::ExpertMisses,
        Counter::KernelLaunches,
    ] {
        snap.push_num(
            &format!("counters.{}", counter.name()),
            metrics.counter(counter) as f64,
            "count",
            0.0,
        );
    }
    let q = request_latency_quantiles(metrics).expect("requests recorded");
    snap.push_num("request.p50_ns", q.p50_ns as f64, "ns", 0.0);
    snap.push_num("request.p99_ns", q.p99_ns as f64, "ns", 0.0);

    let slo = run.slo();
    snap.push_num(
        "slo.batch_latency_p50_ms",
        slo.batch_latency_p50.as_millis(),
        "ms",
        0.02,
    );
    snap.push_num(
        "slo.batch_latency_p99_ms",
        slo.batch_latency_p99.as_millis(),
        "ms",
        0.02,
    );
    snap.push_num("slo.ttft_p50_ms", slo.ttft_p50.as_millis(), "ms", 0.02);
    snap.push_num("slo.tokens_per_sec", slo.tokens_per_sec, "tokens/s", 0.02);
    snap.push_num("slo.hbm_utilization", slo.hbm_utilization, "fraction", 0.02);
    snap.push_num("slo.ddr_utilization", slo.ddr_utilization, "fraction", 0.02);

    // Online serving sweep: one latency/throughput pair per offered rate,
    // plus the saturation knee. Deterministic seeded arrivals keep the 2%
    // tolerance honest; wave counts are exact integers.
    for p in &points {
        let key = format!("serve_online.rps{:.0}", p.offered_rps);
        snap.push_num(
            &format!("{key}.latency_p95_ms"),
            p.latency_p95.as_millis(),
            "ms",
            0.02,
        );
        snap.push_num(
            &format!("{key}.tokens_per_sec"),
            p.tokens_per_sec,
            "tokens/s",
            0.02,
        );
        snap.push_num(&format!("{key}.waves"), p.waves as f64, "waves", 0.0);
    }
    match crate::serve::knee_rps(&points) {
        Some(knee) => snap.push_num("serve_online.knee_rps", knee, "rps", 0.0),
        None => snap.push_text("serve_online.knee_rps", "none"),
    }

    // Placement-policy acceptance pair: the managed row must keep its
    // hit-rate and switch-bound edge over the reactive row (the exact
    // event counts are deterministic, so they ride at zero tolerance).
    for p in &placement_points {
        let key = if p.case.policies {
            "placement.chaos2x.managed"
        } else {
            "placement.chaos2x.reactive"
        };
        snap.push_num(&format!("{key}.hit_rate"), p.hit_rate, "fraction", 0.02);
        snap.push_num(
            &format!("{key}.switch_bound_fraction"),
            p.switch_bound_fraction,
            "fraction",
            0.02,
        );
        snap.push_num(
            &format!("{key}.makespan_ms"),
            p.makespan.as_millis(),
            "ms",
            0.02,
        );
        snap.push_num(
            &format!("{key}.prefetch_issued"),
            p.prefetch_issued as f64,
            "count",
            0.0,
        );
        snap.push_num(
            &format!("{key}.experts_replicated"),
            p.experts_replicated as f64,
            "count",
            0.0,
        );
        snap.push_num(
            &format!("{key}.cold_moves"),
            p.cold_moves as f64,
            "count",
            0.0,
        );
        snap.push_num(
            &format!("{key}.kv_pages_evicted"),
            p.kv_pages_evicted as f64,
            "count",
            0.0,
        );
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_profile::{Bound, MetricValue, PhaseKind};

    #[test]
    fn profiled_run_matches_paper_classifications() {
        let run = profiled_fig12_run(150, 8, 2);
        let a = &run.attribution;
        assert_eq!(
            a.phase(PhaseKind::Switching).unwrap().bound,
            Bound::DdrBandwidth,
            "switching is DDR-bandwidth-bound (§V-B)"
        );
        assert_eq!(
            a.phase(PhaseKind::Decode).unwrap().bound,
            Bound::HbmBandwidth,
            "decode is HBM-bandwidth-bound (§VI-B)"
        );
        assert_eq!(
            a.phase(PhaseKind::Prefill).unwrap().bound,
            Bound::Compute,
            "fused prefill sits on the roofline ceiling (§VI-A)"
        );
        let slo = run.slo();
        assert_eq!(slo.window_batches, 2);
        assert!(slo.batch_latency_p50 <= slo.batch_latency_p99);
        assert!(slo.tokens_per_sec > 0.0);
    }

    #[test]
    fn profiled_run_is_deterministic() {
        let a = profiled_fig12_run(150, 8, 2);
        let b = profiled_fig12_run(150, 8, 2);
        assert_eq!(a.report, b.report);
        assert_eq!(a.attribution, b.attribution);
    }

    #[test]
    fn snapshot_is_deterministic_and_self_consistent() {
        let a = bench_snapshot();
        let b = bench_snapshot();
        assert_eq!(a.to_json(), b.to_json(), "byte-identical snapshots");
        assert!(a.compare(&b).passed(), "self-comparison is clean");
        // The paper's headline classifications are tracked as exact text.
        assert_eq!(
            a.metric("attribution.switching.bound").map(|m| &m.value),
            Some(&MetricValue::Text("ddr-bandwidth-bound".to_string()))
        );
        assert_eq!(
            a.metric("attribution.decode.bound").map(|m| &m.value),
            Some(&MetricValue::Text("hbm-bandwidth-bound".to_string()))
        );
        // Round-trips through its own JSON.
        let parsed = BenchSnapshot::from_json(&a.to_json()).expect("parses");
        assert_eq!(a, parsed);
    }

    #[test]
    fn slug_is_stable() {
        assert_eq!(slug("DGX A100"), "dgx-a100");
        assert_eq!(slug("SN40L"), "sn40l");
        assert_eq!(slug("Decode tokens/sec (BS=1)"), "decode-tokens-sec-bs-1");
    }
}
