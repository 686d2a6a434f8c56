//! Roofline bottleneck attribution per serving phase.
//!
//! The serving pipeline (Figure 9) decomposes a batch into phases —
//! router, DDR→HBM expert switching, expert prefill, decode, and fault
//! recovery. Each phase demands a different resource: prefill raises
//! operational intensity past the machine balance (compute), decode
//! streams weights from HBM at ~2 ops/byte (HBM bandwidth), switching
//! copies weights over the DDR tier (DDR bandwidth), and recovery is
//! re-done movement/work (switching churn). This module quantifies that
//! story: per phase, how much time, which resource binds it, how close the
//! attained FLOP rate comes to the roofline, and how hard each memory
//! tier is driven.

use sn_arch::roofline::Roofline;
use sn_arch::{Bandwidth, Bytes, FlopRate, Flops, NodeSpec, TimeSecs};
use sn_trace::{Metric, MetricsReport};

/// The machine model attribution is computed against: a compute ceiling
/// plus the *effective* bandwidth of each off-chip memory tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Peak BF16 throughput (the roofline ceiling).
    pub peak: FlopRate,
    /// Effective HBM streaming bandwidth (the roofline slope for kernel
    /// execution).
    pub hbm_bandwidth: Bandwidth,
    /// Effective DDR bandwidth on the model-switch route (DDR→HBM expert
    /// copies).
    pub ddr_bandwidth: Bandwidth,
}

impl MachineProfile {
    /// Profile of one multi-socket node (aggregate peak, aggregate
    /// effective HBM bandwidth, aggregate model-switch bandwidth).
    pub fn from_node(node: &NodeSpec) -> Self {
        MachineProfile {
            peak: node.peak_bf16(),
            hbm_bandwidth: node.effective_hbm_bandwidth(),
            ddr_bandwidth: node.model_switch_bandwidth(),
        }
    }

    /// Scales every capacity by a factor — a cluster of `n` nodes is the
    /// node profile scaled by `n` (utilization gauges then read as
    /// fraction of whole-cluster capacity).
    pub fn scale(self, factor: f64) -> Self {
        MachineProfile {
            peak: self.peak.scale(factor),
            hbm_bandwidth: self.hbm_bandwidth.scale(factor),
            ddr_bandwidth: self.ddr_bandwidth.scale(factor),
        }
    }

    /// The HBM roofline (ceiling = peak, slope = effective HBM bandwidth).
    pub fn hbm_roofline(&self) -> Roofline {
        Roofline::new(self.peak, self.hbm_bandwidth)
    }
}

/// A serving phase, in pipeline order (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Router prefill plus classification decode steps (§VI-B).
    Router,
    /// Expert weights moving DDR→HBM (§V-B, the Figure 1 bar).
    Switching,
    /// Expert prompt prefill across the batch.
    Prefill,
    /// Expert autoregressive decode across the batch.
    Decode,
    /// Time lost to injected faults: wasted attempts plus backoff (PR 1).
    Recovery,
}

impl PhaseKind {
    /// Every phase, in pipeline order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Router,
        PhaseKind::Switching,
        PhaseKind::Prefill,
        PhaseKind::Decode,
        PhaseKind::Recovery,
    ];

    /// Snake-case name used in tables and benchmark snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            PhaseKind::Router => "router",
            PhaseKind::Switching => "switching",
            PhaseKind::Prefill => "prefill",
            PhaseKind::Decode => "decode",
            PhaseKind::Recovery => "recovery",
        }
    }
}

/// Raw inputs for one phase: where its time went and what it moved/computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSample {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// Wall time attributed to the phase.
    pub time: TimeSecs,
    /// Useful FLOPs executed during the phase.
    pub flops: Flops,
    /// Bytes streamed through HBM during the phase.
    pub hbm_bytes: Bytes,
    /// Bytes moved over the DDR tier during the phase.
    pub ddr_bytes: Bytes,
}

/// Which resource binds a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Compute demand (FLOPs at peak) dominates: the phase sits on the
    /// roofline ceiling (fused prefill, §VI-A).
    Compute,
    /// HBM streaming demand dominates: the phase rides the bandwidth slope
    /// (decode at ~2 ops/byte, §VI-B).
    HbmBandwidth,
    /// DDR-tier movement dominates: the phase is limited by the
    /// model-switch route (expert copies, §V-B).
    DdrBandwidth,
    /// No steady-state resource demand explains the time — it is
    /// model-movement churn: retry/backoff recovery, or a switching phase
    /// that moved nothing (all hits).
    Switching,
}

impl Bound {
    /// Hyphenated name used in tables and benchmark snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Bound::Compute => "compute-bound",
            Bound::HbmBandwidth => "hbm-bandwidth-bound",
            Bound::DdrBandwidth => "ddr-bandwidth-bound",
            Bound::Switching => "switching-bound",
        }
    }
}

/// One phase's attribution: time share, bottleneck class, roofline
/// position, and per-tier bandwidth utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseAttribution {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// Wall time attributed to the phase.
    pub time: TimeSecs,
    /// Share of the batch total in `[0, 1]` (0.0 for a zero-total batch).
    pub fraction: f64,
    /// The resource binding the phase (largest demand-time wins).
    pub bound: Bound,
    /// Operational intensity against HBM traffic, FLOPs/byte (0.0 when the
    /// phase executes no FLOPs).
    pub intensity: f64,
    /// Attained FLOP rate: useful FLOPs over phase time.
    pub attained: FlopRate,
    /// Roofline-attainable FLOP rate at this phase's intensity.
    pub attainable: FlopRate,
    /// Attained over attainable in `[0, 1]` (0.0 for FLOP-free phases).
    pub flop_utilization: f64,
    /// Fraction of the phase spent at full effective HBM bandwidth.
    pub hbm_utilization: f64,
    /// Fraction of the phase spent at full effective DDR bandwidth.
    pub ddr_utilization: f64,
}

impl PhaseAttribution {
    fn from_sample(machine: &MachineProfile, total: TimeSecs, s: &PhaseSample) -> Self {
        let secs = s.time.as_secs();
        let compute_demand = (s.flops / machine.peak).as_secs();
        let hbm_demand = (s.hbm_bytes / machine.hbm_bandwidth).as_secs();
        let ddr_demand = (s.ddr_bytes / machine.ddr_bandwidth).as_secs();
        let bound = if compute_demand == 0.0 && hbm_demand == 0.0 && ddr_demand == 0.0 {
            Bound::Switching
        } else if ddr_demand >= hbm_demand && ddr_demand >= compute_demand {
            Bound::DdrBandwidth
        } else if compute_demand >= hbm_demand {
            Bound::Compute
        } else {
            Bound::HbmBandwidth
        };
        let roofline = machine.hbm_roofline();
        let (intensity, attained, attainable) = if s.flops.as_f64() > 0.0 {
            let intensity = s.flops.intensity(s.hbm_bytes);
            let attained = if secs > 0.0 {
                FlopRate::from_flops_per_s(s.flops.as_f64() / secs)
            } else {
                FlopRate::ZERO
            };
            (intensity, attained, roofline.attainable(intensity))
        } else {
            (0.0, FlopRate::ZERO, FlopRate::ZERO)
        };
        let util = |demand: f64| {
            if secs > 0.0 {
                (demand / secs).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        PhaseAttribution {
            kind: s.kind,
            time: s.time,
            fraction: if total.as_secs() > 0.0 {
                secs / total.as_secs()
            } else {
                0.0
            },
            bound,
            intensity,
            attained,
            attainable,
            flop_utilization: if s.flops.as_f64() > 0.0 {
                roofline.utilization(attained, intensity)
            } else {
                0.0
            },
            hbm_utilization: util(hbm_demand),
            ddr_utilization: util(ddr_demand),
        }
    }
}

/// Hierarchical time attribution of one served batch: every phase, in
/// pipeline order, measured against one [`MachineProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeAttribution {
    /// The machine the batch was measured against.
    pub machine: MachineProfile,
    /// Total batch time (sum of phase times).
    pub total: TimeSecs,
    /// Per-phase attribution, in the order the samples were given.
    pub phases: Vec<PhaseAttribution>,
}

impl ServeAttribution {
    /// Attributes a batch from raw phase samples. Deterministic: same
    /// samples, same machine — identical attribution.
    pub fn from_samples(machine: MachineProfile, samples: Vec<PhaseSample>) -> Self {
        let total: TimeSecs = samples.iter().map(|s| s.time).sum();
        let phases = samples
            .iter()
            .map(|s| PhaseAttribution::from_sample(&machine, total, s))
            .collect();
        ServeAttribution {
            machine,
            total,
            phases,
        }
    }

    /// The attribution of one phase, if it was sampled.
    pub fn phase(&self, kind: PhaseKind) -> Option<&PhaseAttribution> {
        self.phases.iter().find(|p| p.kind == kind)
    }

    /// Share of total batch time spent in phases classified as `bound`
    /// (0.0 for an empty or zero-time attribution). The placement sweep
    /// uses `bound_fraction(Bound::DdrBandwidth)` +
    /// `bound_fraction(Bound::Switching)` as its "switch-bound" figure:
    /// how much of the serve the DDR expert-switch path dominated.
    pub fn bound_fraction(&self, bound: Bound) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.bound == bound)
            .map(|p| p.fraction)
            .sum()
    }

    /// The phase holding the largest time share (ties to the earlier
    /// phase); `None` for an empty attribution.
    pub fn dominant(&self) -> Option<PhaseKind> {
        self.phases
            .iter()
            .max_by(|a, b| {
                a.fraction
                    .partial_cmp(&b.fraction)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|p| p.kind)
    }

    /// Renders the attribution as an aligned plain-text table (the
    /// `repro --profile` console output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  machine: peak {} | HBM {} eff | DDR-switch {} eff | balance {:.0} ops/byte\n",
            self.machine.peak,
            self.machine.hbm_bandwidth,
            self.machine.ddr_bandwidth,
            self.machine.hbm_roofline().balance(),
        ));
        out.push_str(&format!(
            "  {:<10} {:>12} {:>7}  {:<20} {:>14} {:>14} {:>7} {:>7}\n",
            "phase", "time", "share", "bound", "attained", "attainable", "hbm-bw", "ddr-bw"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<10} {:>12} {:>6.1}%  {:<20} {:>14} {:>14} {:>6.1}% {:>6.1}%\n",
                p.kind.name(),
                p.time.to_string(),
                100.0 * p.fraction,
                p.bound.name(),
                p.attained.to_string(),
                p.attainable.to_string(),
                100.0 * p.hbm_utilization,
                100.0 * p.ddr_utilization,
            ));
        }
        out.push_str(&format!(
            "  {:<10} {:>12} {:>6.1}%\n",
            "total",
            self.total.to_string(),
            100.0
        ));
        out
    }
}

/// Per-request latency quantiles pulled from a [`MetricsReport`]'s
/// `request_ns` histogram via the public [`sn_trace::Histogram::quantile`]
/// API (conservative power-of-two upper bounds, in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestQuantiles {
    /// Median request latency (ns, bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile request latency (ns, bucket upper bound).
    pub p95_ns: u64,
    /// 99th-percentile request latency (ns, bucket upper bound).
    pub p99_ns: u64,
}

/// Extracts request-latency quantiles from an aggregated metrics report;
/// `None` when no request was ever observed (untraced or empty runs).
pub fn request_latency_quantiles(metrics: &MetricsReport) -> Option<RequestQuantiles> {
    let h = metrics.histogram(Metric::Request)?;
    Some(RequestQuantiles {
        p50_ns: h.quantile(0.5),
        p95_ns: h.quantile(0.95),
        p99_ns: h.quantile(0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_trace::Histogram;

    fn machine() -> MachineProfile {
        MachineProfile::from_node(&NodeSpec::sn40l_node())
    }

    fn sample(kind: PhaseKind, ms: f64, tflops: f64, hbm_gb: f64, ddr_gb: f64) -> PhaseSample {
        PhaseSample {
            kind,
            time: TimeSecs::from_millis(ms),
            flops: Flops::from_tflops(tflops),
            hbm_bytes: Bytes::from_gb(hbm_gb),
            ddr_bytes: Bytes::from_gb(ddr_gb),
        }
    }

    #[test]
    fn classification_matches_the_paper_story() {
        let m = machine();
        // Switching: expert-sized DDR→HBM copies, no FLOPs.
        let switching = sample(PhaseKind::Switching, 13.0, 0.0, 13.5, 13.5);
        // Decode: weight streaming at ~2 ops/byte.
        let decode = sample(PhaseKind::Decode, 20.0, 0.2, 100.0, 0.0);
        // Prefill: fused, intensity far past the ~375 ops/byte balance.
        let prefill = sample(PhaseKind::Prefill, 10.0, 4000.0, 2.0, 0.0);
        // Recovery: pure churn, no steady-state demand.
        let recovery = sample(PhaseKind::Recovery, 1.0, 0.0, 0.0, 0.0);
        let a = ServeAttribution::from_samples(m, vec![switching, decode, prefill, recovery]);
        assert_eq!(
            a.phase(PhaseKind::Switching).unwrap().bound,
            Bound::DdrBandwidth
        );
        assert_eq!(
            a.phase(PhaseKind::Decode).unwrap().bound,
            Bound::HbmBandwidth
        );
        assert_eq!(a.phase(PhaseKind::Prefill).unwrap().bound, Bound::Compute);
        assert_eq!(
            a.phase(PhaseKind::Recovery).unwrap().bound,
            Bound::Switching
        );
    }

    #[test]
    fn fractions_sum_to_one_and_dominant_is_largest() {
        let m = machine();
        let a = ServeAttribution::from_samples(
            m,
            vec![
                sample(PhaseKind::Router, 5.0, 100.0, 1.0, 0.0),
                sample(PhaseKind::Decode, 30.0, 0.2, 100.0, 0.0),
                sample(PhaseKind::Switching, 10.0, 0.0, 10.0, 10.0),
            ],
        );
        let sum: f64 = a.phases.iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(a.dominant(), Some(PhaseKind::Decode));
        assert!((a.total.as_millis() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn bound_fraction_sums_matching_phases() {
        let m = machine();
        let a = ServeAttribution::from_samples(
            m,
            vec![
                sample(PhaseKind::Switching, 10.0, 0.0, 13.5, 13.5),
                sample(PhaseKind::Recovery, 10.0, 0.0, 5.0, 5.0),
                sample(PhaseKind::Decode, 20.0, 0.2, 100.0, 0.0),
            ],
        );
        let ddr = a.bound_fraction(Bound::DdrBandwidth);
        let hbm = a.bound_fraction(Bound::HbmBandwidth);
        assert!((ddr - 0.5).abs() < 1e-12, "switching + recovery: {ddr}");
        assert!((hbm - 0.5).abs() < 1e-12);
        assert_eq!(a.bound_fraction(Bound::Compute), 0.0);
        let empty = ServeAttribution::from_samples(m, vec![]);
        assert_eq!(empty.bound_fraction(Bound::DdrBandwidth), 0.0);
    }

    #[test]
    fn utilizations_stay_in_range_and_zero_total_is_safe() {
        let m = machine();
        // More bytes than the phase time could possibly move: clamps to 1.
        let hot = sample(PhaseKind::Decode, 1.0, 0.1, 1000.0, 1000.0);
        let a = ServeAttribution::from_samples(m, vec![hot]);
        let p = &a.phases[0];
        assert_eq!(p.hbm_utilization, 1.0);
        assert_eq!(p.ddr_utilization, 1.0);
        assert!(p.flop_utilization >= 0.0 && p.flop_utilization <= 1.0);
        // A batch where nothing took time at all: no NaNs anywhere.
        let idle = sample(PhaseKind::Router, 0.0, 0.0, 0.0, 0.0);
        let z = ServeAttribution::from_samples(m, vec![idle]);
        assert_eq!(z.phases[0].fraction, 0.0);
        assert_eq!(z.phases[0].hbm_utilization, 0.0);
        assert!(z.render_table().contains("router"));
    }

    #[test]
    fn attained_never_exceeds_attainable_for_roofline_consistent_samples() {
        let m = machine();
        // A phase whose time is exactly its HBM demand (perfect streaming).
        let bytes = Bytes::from_gb(50.0);
        let time = bytes / m.hbm_bandwidth;
        let s = PhaseSample {
            kind: PhaseKind::Decode,
            time,
            flops: Flops::from_tflops(0.1),
            hbm_bytes: bytes,
            ddr_bytes: Bytes::ZERO,
        };
        let a = ServeAttribution::from_samples(m, vec![s]);
        let p = &a.phases[0];
        assert!(p.attained.as_flops_per_s() <= p.attainable.as_flops_per_s() * (1.0 + 1e-9));
        assert!(
            (p.flop_utilization - 1.0).abs() < 1e-6,
            "perfect streaming attains the slope"
        );
    }

    #[test]
    fn request_quantiles_come_from_the_public_histogram_api() {
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let metrics = MetricsReport {
            counters: vec![],
            histograms: vec![(Metric::Request, h.clone())],
        };
        let q = request_latency_quantiles(&metrics).expect("recorded");
        assert_eq!(q.p50_ns, h.quantile(0.5));
        assert_eq!(q.p99_ns, h.quantile(0.99));
        assert!(q.p50_ns <= q.p95_ns && q.p95_ns <= q.p99_ns);
        assert!(request_latency_quantiles(&MetricsReport::empty()).is_none());
    }
}
