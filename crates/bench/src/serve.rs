//! Online serving sweep (`repro -- serve`): offered load vs latency.
//!
//! Replays the Figure 12 SN40L operating point (150 experts, 1024-token
//! prompts, 20 output tokens) as an *online* workload: Poisson arrivals
//! at each offered rate stream through the continuous-batching scheduler
//! with a bounded admission window, and each rate contributes one point
//! of the throughput–latency curve. Low rates serve every request in its
//! own admission wave (queueing ≈ 0); past the node's service rate the
//! queue grows without bound and p95 latency blows up — the saturation
//! knee every serving system has. The curve is deterministic (seeded
//! arrivals, analytic timing), so its points join the continuous-bench
//! snapshot gate with tight tolerances.

use sn_arch::{NodeSpec, TimeSecs};
use sn_coe::scheduler::{ArrivalProcess, SchedulerConfig};
use sn_coe::{ExpertLibrary, SambaCoeNode};

use crate::experiments::PROMPT_TOKENS;
use crate::profile::OUTPUT_TOKENS;

/// Seed shared by every sweep point: same prompts, same per-request
/// service demand — only the arrival spacing changes with the rate.
pub const SWEEP_SEED: u64 = 0x5eed;

/// Requests per sweep point.
pub const SWEEP_REQUESTS: usize = 64;

/// Experts in the library (the Figure 12 anchor).
pub const SWEEP_EXPERTS: usize = 150;

/// Admission window: at most this many requests decode concurrently.
pub const SWEEP_MAX_IN_FLIGHT: usize = 8;

/// Offered loads swept, in requests per second. Chosen to straddle the
/// node's service rate so the saturation knee is visible mid-sweep.
pub const SWEEP_RATES: &[f64] = &[2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0];

/// One point of the throughput–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSweepPoint {
    /// Offered load (Poisson rate), requests/sec.
    pub offered_rps: f64,
    /// Delivered request throughput: requests / makespan.
    pub delivered_rps: f64,
    /// Admission waves the scheduler opened.
    pub waves: usize,
    /// 95th-percentile queueing delay.
    pub queue_delay_p95: TimeSecs,
    /// 95th-percentile time-to-first-token.
    pub ttft_p95: TimeSecs,
    /// Median end-to-end request latency.
    pub latency_p50: TimeSecs,
    /// 95th-percentile end-to-end request latency.
    pub latency_p95: TimeSecs,
    /// Output tokens per second of makespan.
    pub tokens_per_sec: f64,
    /// Clock when the last request completed.
    pub makespan: TimeSecs,
}

/// Serves [`SWEEP_REQUESTS`] Poisson arrivals at `rate_rps` on a fresh
/// node and summarizes the run. Fresh node per point: every rate starts
/// from a cold HBM cache, so points are independent and reorderable.
///
/// # Panics
///
/// Panics when `rate_rps` is not positive (arrival-process contract).
pub fn serve_point(rate_rps: f64) -> ServeSweepPoint {
    let mut node = SambaCoeNode::new(
        NodeSpec::sn40l_node(),
        ExpertLibrary::new(SWEEP_EXPERTS),
        PROMPT_TOKENS,
    );
    let requests =
        ArrivalProcess::poisson(SWEEP_SEED, PROMPT_TOKENS, rate_rps).generate(SWEEP_REQUESTS);
    let out = node.serve_online(
        &requests,
        OUTPUT_TOKENS,
        SchedulerConfig::bounded(SWEEP_MAX_IN_FLIGHT),
    );
    let pct = out.percentiles();
    let makespan_secs = out.makespan.as_secs();
    ServeSweepPoint {
        offered_rps: rate_rps,
        delivered_rps: if makespan_secs > 0.0 {
            out.records.len() as f64 / makespan_secs
        } else {
            0.0
        },
        waves: out.waves,
        queue_delay_p95: pct.queue_delay(0.95),
        ttft_p95: pct.ttft(0.95),
        latency_p50: pct.latency(0.50),
        latency_p95: pct.latency(0.95),
        tokens_per_sec: out.tokens_per_sec(),
        makespan: out.makespan,
    }
}

/// The full offered-load sweep over [`SWEEP_RATES`], run sequentially:
/// each point takes about a tenth of a millisecond, less than handing it
/// to a worker thread costs.
pub fn serve_sweep() -> Vec<ServeSweepPoint> {
    SWEEP_RATES.iter().map(|&r| serve_point(r)).collect()
}

/// The saturation knee: the first offered rate whose delivered
/// throughput falls more than 10% short of the offered load — beyond it
/// the queue, not the arrival process, sets the pace. `None` when even
/// the highest swept rate is fully absorbed.
pub fn knee_rps(points: &[ServeSweepPoint]) -> Option<f64> {
    points
        .iter()
        .find(|p| p.delivered_rps < 0.9 * p.offered_rps)
        .map(|p| p.offered_rps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        let a = serve_point(10.0);
        let b = serve_point(10.0);
        assert_eq!(a, b, "same rate, same curve point");
    }

    #[test]
    fn latency_rises_monotonically_into_saturation() {
        let light = serve_point(SWEEP_RATES[0]);
        let heavy = serve_point(*SWEEP_RATES.last().unwrap());
        assert!(
            heavy.latency_p95 > light.latency_p95,
            "offered load must cost latency: {} vs {}",
            heavy.latency_p95,
            light.latency_p95
        );
        assert!(
            heavy.queue_delay_p95 > light.queue_delay_p95,
            "saturation shows up as queueing"
        );
        // Delivered throughput saturates at the node's service rate.
        assert!(heavy.delivered_rps < heavy.offered_rps);
    }

    #[test]
    fn sweep_has_a_visible_knee() {
        let points = serve_sweep();
        let knee = knee_rps(&points).expect("the sweep crosses saturation");
        assert!(
            knee > SWEEP_RATES[0] && knee <= *SWEEP_RATES.last().unwrap(),
            "knee {knee} should land inside the sweep"
        );
    }
}
