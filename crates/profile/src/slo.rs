//! Live serving SLO metrics: sliding-window latency percentiles, TTFT,
//! throughput, and per-tier utilization gauges.
//!
//! A [`SloTracker`] sits inside a serving node (or cluster front-end) and
//! is fed one [`BatchObservation`] per served batch. Its [`snapshot`]
//! summarizes the most recent window — the numbers an operator would put
//! on a dashboard: p50/p95/p99 batch latency, time-to-first-token,
//! tokens/sec, and how hard each memory tier ran. Percentiles are exact
//! nearest-rank over the window (not histogram-bucketed), so they are a
//! deterministic function of the observations.
//!
//! [`snapshot`]: SloTracker::snapshot

use crate::attribution::MachineProfile;
use sn_arch::{Bytes, TimeSecs};
use std::collections::VecDeque;

/// Tuning for an [`SloTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// How many of the most recent batches the sliding window keeps.
    /// Must be at least 1 (a zero window is promoted to 1).
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig { window: 64 }
    }
}

/// One served batch, as the SLO layer sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchObservation {
    /// End-to-end batch latency.
    pub latency: TimeSecs,
    /// Time-to-first-token: routing + expert switching + one prefill.
    pub ttft: TimeSecs,
    /// Prompts served by the batch.
    pub prompts: usize,
    /// Output tokens generated across the batch.
    pub tokens: usize,
    /// Bytes streamed through HBM while serving the batch.
    pub hbm_bytes: Bytes,
    /// Bytes moved over the DDR tier while serving the batch.
    pub ddr_bytes: Bytes,
}

/// Point-in-time summary of the tracker's window: the serving SLO
/// dashboard, attached to `ServeReport`/`ClusterReport` by `sn-coe`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Batches currently in the window.
    pub window_batches: usize,
    /// Batches observed over the tracker's lifetime.
    pub total_batches: usize,
    /// Median batch latency over the window.
    pub batch_latency_p50: TimeSecs,
    /// 95th-percentile batch latency over the window.
    pub batch_latency_p95: TimeSecs,
    /// 99th-percentile batch latency over the window.
    pub batch_latency_p99: TimeSecs,
    /// Median time-to-first-token over the window.
    pub ttft_p50: TimeSecs,
    /// 95th-percentile time-to-first-token over the window.
    pub ttft_p95: TimeSecs,
    /// 99th-percentile time-to-first-token over the window.
    pub ttft_p99: TimeSecs,
    /// Output tokens per second over the window (tokens / serving time).
    pub tokens_per_sec: f64,
    /// Fraction of window serving time spent at full effective HBM
    /// bandwidth, in `[0, 1]`.
    pub hbm_utilization: f64,
    /// Fraction of window serving time spent at full effective DDR
    /// bandwidth, in `[0, 1]`.
    pub ddr_utilization: f64,
}

impl SloSnapshot {
    /// Renders the snapshot as an aligned plain-text block (the
    /// `repro --profile` console output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  window {} of {} batches\n",
            self.window_batches, self.total_batches
        ));
        out.push_str(&format!(
            "  {:<16} {:>12} {:>12} {:>12}\n",
            "latency", "p50", "p95", "p99"
        ));
        out.push_str(&format!(
            "  {:<16} {:>12} {:>12} {:>12}\n",
            "batch",
            self.batch_latency_p50.to_string(),
            self.batch_latency_p95.to_string(),
            self.batch_latency_p99.to_string(),
        ));
        out.push_str(&format!(
            "  {:<16} {:>12} {:>12} {:>12}\n",
            "ttft",
            self.ttft_p50.to_string(),
            self.ttft_p95.to_string(),
            self.ttft_p99.to_string(),
        ));
        out.push_str(&format!(
            "  tokens/sec {:.1} | HBM util {:.1}% | DDR util {:.1}%\n",
            self.tokens_per_sec,
            100.0 * self.hbm_utilization,
            100.0 * self.ddr_utilization,
        ));
        out
    }
}

/// Sliding-window SLO accumulator over served batches.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    machine: MachineProfile,
    window: usize,
    observations: VecDeque<BatchObservation>,
    total_batches: usize,
}

impl SloTracker {
    /// A tracker measuring utilization against `machine`, keeping the most
    /// recent `config.window` batches.
    pub fn new(machine: MachineProfile, config: SloConfig) -> Self {
        SloTracker {
            machine,
            window: config.window.max(1),
            observations: VecDeque::new(),
            total_batches: 0,
        }
    }

    /// Feeds one served batch into the window, evicting the oldest batch
    /// once the window is full.
    pub fn record(&mut self, obs: BatchObservation) {
        if self.observations.len() == self.window {
            self.observations.pop_front();
        }
        self.observations.push_back(obs);
        self.total_batches += 1;
    }

    /// Summarizes the current window. `None` until at least one batch has
    /// been observed — there is no meaningful percentile of nothing.
    pub fn snapshot(&self) -> Option<SloSnapshot> {
        if self.observations.is_empty() {
            return None;
        }
        let latencies: Vec<TimeSecs> = self.observations.iter().map(|o| o.latency).collect();
        let ttfts: Vec<TimeSecs> = self.observations.iter().map(|o| o.ttft).collect();
        let serving_secs: f64 = latencies.iter().map(|t| t.as_secs()).sum();
        let tokens: usize = self.observations.iter().map(|o| o.tokens).sum();
        let hbm_demand: f64 = self
            .observations
            .iter()
            .map(|o| (o.hbm_bytes / self.machine.hbm_bandwidth).as_secs())
            .sum();
        let ddr_demand: f64 = self
            .observations
            .iter()
            .map(|o| (o.ddr_bytes / self.machine.ddr_bandwidth).as_secs())
            .sum();
        let util = |demand: f64| {
            if serving_secs > 0.0 {
                (demand / serving_secs).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        Some(SloSnapshot {
            window_batches: self.observations.len(),
            total_batches: self.total_batches,
            batch_latency_p50: percentile(&latencies, 0.50),
            batch_latency_p95: percentile(&latencies, 0.95),
            batch_latency_p99: percentile(&latencies, 0.99),
            ttft_p50: percentile(&ttfts, 0.50),
            ttft_p95: percentile(&ttfts, 0.95),
            ttft_p99: percentile(&ttfts, 0.99),
            tokens_per_sec: if serving_secs > 0.0 {
                tokens as f64 / serving_secs
            } else {
                0.0
            },
            hbm_utilization: util(hbm_demand),
            ddr_utilization: util(ddr_demand),
        })
    }
}

/// Sorts a sample buffer in place for [`nearest_rank_sorted`]. Uses a
/// total order that treats incomparable (NaN) pairs as equal — the
/// comparator every quantile consumer in the workspace must share, so
/// sorted buffers are interchangeable bit-for-bit.
pub fn sort_for_quantiles(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Exact nearest-rank quantile over an already-sorted sample buffer:
/// the smallest sample such that at least `q` (clamped to `[0, 1]`) of
/// the samples are ≤ it. Yields 0.0 for an empty buffer. This is the
/// single quantile rule for the whole workspace — the SLO window here
/// and `sn-coe`'s per-request percentiles both call it, so the two can
/// never drift.
pub fn nearest_rank_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Exact nearest-rank percentile: the smallest value such that at least
/// `q` of the samples are ≤ it. `values` must be non-empty.
fn percentile(values: &[TimeSecs], q: f64) -> TimeSecs {
    let mut sorted: Vec<f64> = values.iter().map(|t| t.as_secs()).collect();
    sort_for_quantiles(&mut sorted);
    TimeSecs::from_secs(nearest_rank_sorted(&sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::NodeSpec;

    fn machine() -> MachineProfile {
        MachineProfile::from_node(&NodeSpec::sn40l_node())
    }

    fn obs(latency_ms: f64, ttft_ms: f64, tokens: usize) -> BatchObservation {
        BatchObservation {
            latency: TimeSecs::from_millis(latency_ms),
            ttft: TimeSecs::from_millis(ttft_ms),
            prompts: 8,
            tokens,
            hbm_bytes: Bytes::from_gb(10.0),
            ddr_bytes: Bytes::from_gb(1.0),
        }
    }

    #[test]
    fn empty_tracker_has_no_snapshot() {
        let t = SloTracker::new(machine(), SloConfig::default());
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn single_batch_reports_itself_at_every_percentile() {
        let mut t = SloTracker::new(machine(), SloConfig::default());
        t.record(obs(100.0, 30.0, 160));
        let s = t.snapshot().unwrap();
        assert_eq!(s.window_batches, 1);
        assert_eq!(s.total_batches, 1);
        assert_eq!(s.batch_latency_p50, s.batch_latency_p99);
        assert!((s.batch_latency_p50.as_millis() - 100.0).abs() < 1e-9);
        assert!((s.ttft_p95.as_millis() - 30.0).abs() < 1e-9);
        assert!((s.tokens_per_sec - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn percentiles_are_ordered_and_exact_over_known_samples() {
        let mut t = SloTracker::new(machine(), SloConfig { window: 100 });
        for i in 1..=100 {
            t.record(obs(i as f64, i as f64 / 10.0, 160));
        }
        let s = t.snapshot().unwrap();
        assert!((s.batch_latency_p50.as_millis() - 50.0).abs() < 1e-9);
        assert!((s.batch_latency_p95.as_millis() - 95.0).abs() < 1e-9);
        assert!((s.batch_latency_p99.as_millis() - 99.0).abs() < 1e-9);
        assert!(s.batch_latency_p50 <= s.batch_latency_p95);
        assert!(s.batch_latency_p95 <= s.batch_latency_p99);
        assert!(s.ttft_p50 <= s.ttft_p99);
    }

    #[test]
    fn window_evicts_oldest_but_lifetime_count_keeps_growing() {
        let mut t = SloTracker::new(machine(), SloConfig { window: 4 });
        t.record(obs(1000.0, 1.0, 160)); // will be evicted
        for _ in 0..4 {
            t.record(obs(10.0, 1.0, 160));
        }
        let s = t.snapshot().unwrap();
        assert_eq!(s.window_batches, 4);
        assert_eq!(s.total_batches, 5);
        // The 1000 ms outlier left the window: even p99 is the steady 10 ms.
        assert!((s.batch_latency_p99.as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_promoted_to_one() {
        let mut t = SloTracker::new(machine(), SloConfig { window: 0 });
        assert!(t.snapshot().is_none(), "still empty before any batch");
        t.record(obs(10.0, 1.0, 160));
        t.record(obs(90.0, 9.0, 160));
        let s = t.snapshot().unwrap();
        // A window of zero would make every snapshot None forever; the
        // tracker promotes it to 1 so the latest batch is always visible.
        assert_eq!(s.window_batches, 1);
        assert_eq!(s.total_batches, 2);
        assert!((s.batch_latency_p50.as_millis() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn window_of_one_tracks_only_the_latest_batch() {
        let mut t = SloTracker::new(machine(), SloConfig { window: 1 });
        for ms in [500.0, 20.0, 80.0] {
            t.record(obs(ms, ms / 10.0, 160));
        }
        let s = t.snapshot().unwrap();
        assert_eq!(s.window_batches, 1);
        assert_eq!(s.total_batches, 3);
        // Every percentile collapses to the single resident sample.
        assert_eq!(s.batch_latency_p50, s.batch_latency_p95);
        assert_eq!(s.batch_latency_p95, s.batch_latency_p99);
        assert!((s.batch_latency_p99.as_millis() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_boundary_is_exact() {
        let window = 4;
        let mut t = SloTracker::new(machine(), SloConfig { window });
        // Fill to exactly the window: nothing evicted yet, the first
        // batch still dominates the tail.
        t.record(obs(1000.0, 1.0, 160));
        for _ in 0..window - 1 {
            t.record(obs(10.0, 1.0, 160));
        }
        let s = t.snapshot().unwrap();
        assert_eq!(s.window_batches, window);
        assert!((s.batch_latency_p99.as_millis() - 1000.0).abs() < 1e-9);
        // One more batch crosses the boundary: the outlier is the oldest
        // and must be the one evicted, window size stays pinned.
        t.record(obs(10.0, 1.0, 160));
        let s = t.snapshot().unwrap();
        assert_eq!(s.window_batches, window);
        assert_eq!(s.total_batches, window + 1);
        assert!((s.batch_latency_p99.as_millis() - 10.0).abs() < 1e-9);
        assert!((s.batch_latency_p50.as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_window_yields_zero_gauges_not_nan() {
        // Regression for the empty-window-NaN class of bug (cf. the PR 3
        // LatencyBreakdown guards): a window whose batches all have zero
        // latency divides by a serving time of 0.0 — every gauge must
        // come out 0.0, not NaN/inf.
        let mut t = SloTracker::new(machine(), SloConfig::default());
        t.record(BatchObservation {
            latency: TimeSecs::ZERO,
            ttft: TimeSecs::ZERO,
            prompts: 0,
            tokens: 100, // tokens with no serving time: the worst case
            hbm_bytes: Bytes::from_gb(1.0),
            ddr_bytes: Bytes::from_gb(1.0),
        });
        let s = t.snapshot().unwrap();
        assert_eq!(s.tokens_per_sec, 0.0);
        assert_eq!(s.hbm_utilization, 0.0);
        assert_eq!(s.ddr_utilization, 0.0);
        assert!(s.tokens_per_sec.is_finite());
        assert!(s.batch_latency_p99.as_secs().is_finite());
        // The rendered dashboard carries no NaN either.
        assert!(!s.render_table().contains("NaN"));
    }

    #[test]
    fn quantile_helpers_are_zero_safe_on_empty_input() {
        assert_eq!(nearest_rank_sorted(&[], 0.5), 0.0);
        assert_eq!(nearest_rank_sorted(&[], 0.99), 0.0);
        let mut empty: [f64; 0] = [];
        sort_for_quantiles(&mut empty); // must not panic

        // NaN samples sort without panicking and never poison the rank.
        let mut with_nan = [3.0, f64::NAN, 1.0];
        sort_for_quantiles(&mut with_nan);
        let q = nearest_rank_sorted(&with_nan, 0.0);
        assert!(q.is_finite() || q.is_nan()); // total order held, no panic
    }

    #[test]
    fn utilization_gauges_reflect_demand_over_serving_time() {
        let m = machine();
        let mut t = SloTracker::new(m, SloConfig::default());
        // A batch whose latency is exactly its HBM streaming demand.
        let bytes = Bytes::from_gb(100.0);
        let latency = bytes / m.hbm_bandwidth;
        t.record(BatchObservation {
            latency,
            ttft: latency * 0.1,
            prompts: 8,
            tokens: 160,
            hbm_bytes: bytes,
            ddr_bytes: Bytes::ZERO,
        });
        let s = t.snapshot().unwrap();
        assert!((s.hbm_utilization - 1.0).abs() < 1e-9);
        assert_eq!(s.ddr_utilization, 0.0);
        assert!(s.render_table().contains("tokens/sec"));
    }
}
