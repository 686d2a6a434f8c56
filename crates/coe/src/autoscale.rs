//! SLO-driven capacity control with hysteresis.
//!
//! The controller closes the loop the paper leaves to operations: watch
//! the interactive-class latency distribution through the existing
//! sliding-window [`SloTracker`], grow the cluster when the p99 breaches
//! the high watermark, shrink it when the p99 sits comfortably below the
//! low watermark. Two guards stop it from flapping:
//!
//! - **patience** — a watermark must be breached on that many
//!   *consecutive* evaluations before the controller acts (one outlier
//!   window is noise, not a trend);
//! - **cooldown** — after acting it holds for a number of evaluations,
//!   long enough for the topology change (and the expert rebalancing it
//!   triggers) to show up in the window it watches.
//!
//! The controller only *decides*; the serving engine applies decisions
//! via [`CoeCluster::add_node`](crate::CoeCluster::add_node) /
//! [`CoeCluster::drain_node`](crate::CoeCluster::drain_node) and records
//! each action as a [`ScaleEvent`]. Everything runs in model time and is
//! deterministic: same observations, same decisions.
//!
//! # Examples
//!
//! Feed slow interactive completions into the controller until its
//! patience runs out and it asks for a node:
//!
//! ```
//! use sn_arch::{Bytes, NodeSpec, TimeSecs};
//! use sn_coe::autoscale::{AutoscaleConfig, AutoscaleController, ScaleDecision};
//! use sn_profile::{BatchObservation, MachineProfile};
//!
//! let mut ctl = AutoscaleController::new(
//!     MachineProfile::from_node(&NodeSpec::sn40l_node()),
//!     AutoscaleConfig {
//!         min_nodes: 1,
//!         max_nodes: 4,
//!         latency_high: TimeSecs::from_secs(0.5),
//!         latency_low: TimeSecs::from_secs(0.1),
//!         patience: 2,
//!         cooldown: 2,
//!         window: 8,
//!     },
//! );
//! let slow = BatchObservation {
//!     latency: TimeSecs::from_secs(1.0),
//!     ttft: TimeSecs::from_secs(0.2),
//!     prompts: 8,
//!     tokens: 160,
//!     hbm_bytes: Bytes::from_gib(64),
//!     ddr_bytes: Bytes::ZERO,
//! };
//! ctl.observe(slow);
//! assert_eq!(ctl.evaluate(2), ScaleDecision::Hold); // 1st breach: patience
//! ctl.observe(slow);
//! assert_eq!(ctl.evaluate(2), ScaleDecision::Up); // 2nd consecutive breach
//! assert_eq!(ctl.evaluate(3), ScaleDecision::Hold); // cooldown holds
//! ```

use sn_arch::TimeSecs;
use sn_profile::{BatchObservation, MachineProfile, SloConfig, SloSnapshot, SloTracker};

/// Watermarks and damping for the capacity controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// The cluster never shrinks below this many healthy nodes.
    pub min_nodes: usize,
    /// The cluster never grows beyond this many nodes in total.
    pub max_nodes: usize,
    /// Scale up when the window p99 latency exceeds this.
    pub latency_high: TimeSecs,
    /// Scale down when the window p99 latency is below this.
    pub latency_low: TimeSecs,
    /// Consecutive breaching evaluations required before acting.
    pub patience: usize,
    /// Evaluations to hold after an action before reconsidering.
    pub cooldown: usize,
    /// Sliding-window size of the underlying [`SloTracker`].
    pub window: usize,
}

/// What the controller wants done to the cluster right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Capacity is fine (or the controller is in cooldown / undecided).
    Hold,
    /// Add a node and rebalance experts onto it.
    Up,
    /// Drain a node and take it out of service.
    Down,
}

/// One applied capacity action, recorded by the serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Wave index at which the action was applied.
    pub wave: usize,
    /// Model time of the action.
    pub at: TimeSecs,
    /// Which way capacity moved.
    pub decision: ScaleDecision,
    /// Healthy node count before the action.
    pub from_nodes: usize,
    /// Healthy node count after the action.
    pub to_nodes: usize,
    /// Experts re-homed by the accompanying rebalance or drain.
    pub moved_experts: usize,
    /// DDR transfer time those moves cost (control-plane background
    /// work, not on the serving critical path).
    pub transfer_time: TimeSecs,
}

/// Hysteretic p99-watching capacity controller.
#[derive(Debug)]
pub struct AutoscaleController {
    config: AutoscaleConfig,
    tracker: SloTracker,
    above: usize,
    below: usize,
    hold: usize,
}

impl AutoscaleController {
    /// Builds a controller watching a fresh sliding window measured
    /// against `profile` (a single node's profile is fine — the
    /// controller only consumes the latency quantiles).
    ///
    /// # Panics
    ///
    /// Panics on an inverted configuration: `min_nodes` of zero,
    /// `max_nodes < min_nodes`, watermarks out of order, or zero
    /// patience (a controller acting on a single sample is noise-driven
    /// by construction).
    pub fn new(profile: MachineProfile, config: AutoscaleConfig) -> Self {
        assert!(config.min_nodes >= 1, "a cluster keeps at least one node");
        assert!(
            config.max_nodes >= config.min_nodes,
            "max_nodes below min_nodes"
        );
        assert!(
            config.latency_low < config.latency_high,
            "watermarks inverted: low {} >= high {}",
            config.latency_low,
            config.latency_high,
        );
        assert!(config.patience >= 1, "patience must be at least 1");
        let tracker = SloTracker::new(
            profile,
            SloConfig {
                window: config.window,
            },
        );
        AutoscaleController {
            config,
            tracker,
            above: 0,
            below: 0,
            hold: 0,
        }
    }

    /// The configured watermarks and damping.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Feeds one completed-request observation into the window.
    pub fn observe(&mut self, observation: BatchObservation) {
        self.tracker.record(observation);
    }

    /// The current window snapshot (`None` before any observation).
    pub fn snapshot(&self) -> Option<SloSnapshot> {
        self.tracker.snapshot()
    }

    /// One control-loop tick, called at a wave boundary with the current
    /// healthy-node count. Applies cooldown, updates the consecutive
    /// breach counters from the window p99, and returns the decision.
    /// Bounds are enforced here: at `max_nodes` a breach keeps counting
    /// but never returns `Up` (and symmetrically for `Down`).
    pub fn evaluate(&mut self, healthy_nodes: usize) -> ScaleDecision {
        if self.hold > 0 {
            self.hold -= 1;
            return ScaleDecision::Hold;
        }
        let Some(snapshot) = self.tracker.snapshot() else {
            return ScaleDecision::Hold;
        };
        let p99 = snapshot.batch_latency_p99;
        if p99 > self.config.latency_high {
            self.above += 1;
            self.below = 0;
        } else if p99 < self.config.latency_low {
            self.below += 1;
            self.above = 0;
        } else {
            self.above = 0;
            self.below = 0;
        }
        if self.above >= self.config.patience && healthy_nodes < self.config.max_nodes {
            self.above = 0;
            self.hold = self.config.cooldown;
            ScaleDecision::Up
        } else if self.below >= self.config.patience && healthy_nodes > self.config.min_nodes {
            self.below = 0;
            self.hold = self.config.cooldown;
            ScaleDecision::Down
        } else {
            ScaleDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::{Bytes, NodeSpec};

    fn config() -> AutoscaleConfig {
        AutoscaleConfig {
            min_nodes: 2,
            max_nodes: 4,
            latency_high: TimeSecs::from_millis(100.0),
            latency_low: TimeSecs::from_millis(20.0),
            patience: 2,
            cooldown: 3,
            window: 8,
        }
    }

    fn controller() -> AutoscaleController {
        AutoscaleController::new(MachineProfile::from_node(&NodeSpec::sn40l_node()), config())
    }

    fn obs(latency_ms: f64) -> BatchObservation {
        BatchObservation {
            latency: TimeSecs::from_millis(latency_ms),
            ttft: TimeSecs::from_millis(latency_ms / 2.0),
            prompts: 1,
            tokens: 10,
            hbm_bytes: Bytes::ZERO,
            ddr_bytes: Bytes::ZERO,
        }
    }

    #[test]
    fn empty_window_holds() {
        let mut ctl = controller();
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold);
    }

    #[test]
    fn patience_requires_consecutive_breaches() {
        let mut ctl = controller();
        ctl.observe(obs(500.0));
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold, "first breach waits");
        // A healthy window in between resets the streak.
        for _ in 0..8 {
            ctl.observe(obs(50.0));
        }
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold);
        ctl.observe(obs(5000.0));
        for _ in 0..7 {
            ctl.observe(obs(5000.0));
        }
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold, "streak restarted");
        assert_eq!(ctl.evaluate(2), ScaleDecision::Up, "second in a row acts");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let mut ctl = controller();
        for _ in 0..8 {
            ctl.observe(obs(5000.0));
        }
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold);
        assert_eq!(ctl.evaluate(2), ScaleDecision::Up);
        // Still breached, but the controller holds through cooldown.
        for _ in 0..3 {
            assert_eq!(ctl.evaluate(3), ScaleDecision::Hold, "cooldown");
        }
        assert_eq!(ctl.evaluate(3), ScaleDecision::Hold, "patience restarts");
        assert_eq!(ctl.evaluate(3), ScaleDecision::Up);
    }

    #[test]
    fn bounds_clamp_decisions() {
        let mut ctl = controller();
        for _ in 0..8 {
            ctl.observe(obs(5000.0));
        }
        ctl.evaluate(4);
        assert_eq!(ctl.evaluate(4), ScaleDecision::Hold, "already at max");
        let mut ctl = controller();
        for _ in 0..8 {
            ctl.observe(obs(1.0));
        }
        ctl.evaluate(2);
        assert_eq!(ctl.evaluate(2), ScaleDecision::Hold, "already at min");
        assert_eq!(ctl.evaluate(3), ScaleDecision::Down, "room to shrink");
    }

    #[test]
    fn quiet_mid_band_window_never_moves() {
        let mut ctl = controller();
        for _ in 0..32 {
            ctl.observe(obs(50.0));
        }
        for _ in 0..16 {
            assert_eq!(ctl.evaluate(3), ScaleDecision::Hold);
        }
    }

    #[test]
    #[should_panic(expected = "watermarks inverted")]
    fn inverted_watermarks_are_rejected() {
        let mut cfg = config();
        cfg.latency_low = cfg.latency_high;
        let _ = AutoscaleController::new(MachineProfile::from_node(&NodeSpec::sn40l_node()), cfg);
    }
}
