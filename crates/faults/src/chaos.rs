//! Chaos scenarios: faults that strike *when it hurts*.
//!
//! [`FaultPlan`](crate::FaultPlan) injects stationary noise — every draw
//! sees the same rates. Real incidents are not stationary: a link
//! congests during the peak burst, two nodes in one rack die together
//! mid-traffic-spike. [`ChaosSchedule`] layers that structure on top of
//! the plan:
//!
//! - [`FaultWindow`]: a [`FaultSpec`] active only inside a model-time
//!   window, with its own seeded draw stream (keyed exactly like plan
//!   streams, so chaos draws never perturb plan draws).
//! - [`NodeOutage`]: a *correlated* crash — a set of nodes goes down
//!   together at one instant and (optionally) comes back together.
//!
//! Everything is model time and pure bookkeeping: a serving engine asks
//! [`ChaosSchedule::decide`] at wave boundaries and applies
//! [`ChaosSchedule::events`] itself, so runs stay byte-reproducible.

use crate::plan::{unit_draw, FaultDecision, FaultSite, FaultSpec};
use sn_arch::TimeSecs;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fault spec that is live only inside `[start, end)` of model time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The operation site the windowed spec applies to.
    pub site: FaultSite,
    /// Rates in force while the window is active.
    pub spec: FaultSpec,
    /// Window opens (inclusive).
    pub start: TimeSecs,
    /// Window closes (exclusive).
    pub end: TimeSecs,
}

impl FaultWindow {
    /// True when `t` falls inside the half-open window.
    pub fn is_active_at(&self, t: TimeSecs) -> bool {
        self.start <= t && t < self.end
    }
}

/// A correlated outage: `nodes` crash together at `start`; with an `end`
/// they are restored together, without one they stay down.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutage {
    /// Crashed node indices (stored sorted and deduplicated).
    pub nodes: Vec<usize>,
    /// Crash instant.
    pub start: TimeSecs,
    /// Restore instant, or `None` for a permanent outage.
    pub end: Option<TimeSecs>,
}

/// What happens to one node at one instant of a chaos timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// The node goes down.
    Crash,
    /// The node comes back.
    Restore,
}

/// One entry of the flattened, time-ordered chaos timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// When the event fires (model time).
    pub at: TimeSecs,
    /// The node it targets.
    pub node: usize,
    /// Crash or restore.
    pub kind: ChaosEventKind,
}

/// A deterministic chaos scenario: windowed fault specs plus correlated
/// node outages, all in model time.
///
/// Windowed draws are pure functions of `(seed, window index, draw
/// index)` — the same keying discipline as `FaultPlan`, on an
/// independent seed — so consulting the schedule never consumes or
/// perturbs a plan draw and replays are exact.
#[derive(Debug)]
pub struct ChaosSchedule {
    seed: u64,
    windows: Vec<FaultWindow>,
    outages: Vec<NodeOutage>,
    /// Per-window draw cursors (atomic so `&self` decide works behind
    /// shared handles, like `FaultPlan`).
    draws: Vec<AtomicU64>,
}

impl ChaosSchedule {
    /// An empty scenario: no windows, no outages.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            windows: Vec::new(),
            outages: Vec::new(),
            draws: Vec::new(),
        }
    }

    /// Builder-style: adds a windowed fault spec.
    ///
    /// # Panics
    ///
    /// Panics on invalid rates (see [`FaultSpec`] validation) or a
    /// window that never opens (`end <= start`).
    pub fn with_window(
        mut self,
        site: FaultSite,
        spec: FaultSpec,
        start: TimeSecs,
        end: TimeSecs,
    ) -> Self {
        spec.validate(site);
        assert!(start < end, "chaos window never opens: {start} >= {end}");
        self.windows.push(FaultWindow {
            site,
            spec,
            start,
            end,
        });
        self.draws.push(AtomicU64::new(0));
        self
    }

    /// Builder-style: adds a correlated outage of `nodes` over
    /// `[start, end)` (`end = None` keeps them down forever).
    ///
    /// # Panics
    ///
    /// Panics on an empty node set or a restore at/before the crash.
    pub fn with_outage(mut self, nodes: &[usize], start: TimeSecs, end: Option<TimeSecs>) -> Self {
        assert!(!nodes.is_empty(), "an outage needs at least one node");
        if let Some(e) = end {
            assert!(start < e, "outage restored before it began");
        }
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        self.outages.push(NodeOutage { nodes, start, end });
        self
    }

    /// True when the scenario injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.outages.is_empty()
    }

    /// The configured windows, in declaration order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The configured outages, in declaration order.
    pub fn outages(&self) -> &[NodeOutage] {
        &self.outages
    }

    /// The flattened crash/restore timeline, sorted by time (crashes
    /// before restores at an equal instant, then by node index) so a
    /// driver can apply it with a single cursor.
    pub fn events(&self) -> Vec<ChaosEvent> {
        let mut events = Vec::new();
        for outage in &self.outages {
            for &node in &outage.nodes {
                events.push(ChaosEvent {
                    at: outage.start,
                    node,
                    kind: ChaosEventKind::Crash,
                });
                if let Some(end) = outage.end {
                    events.push(ChaosEvent {
                        at: end,
                        node,
                        kind: ChaosEventKind::Restore,
                    });
                }
            }
        }
        events.sort_by(|a, b| {
            a.at.as_secs()
                .total_cmp(&b.at.as_secs())
                .then_with(|| {
                    (a.kind == ChaosEventKind::Restore).cmp(&(b.kind == ChaosEventKind::Restore))
                })
                .then_with(|| a.node.cmp(&b.node))
        });
        events
    }

    /// Consults the windowed specs for `site` at model time `t`,
    /// consuming one draw of the first active window's stream. Returns
    /// [`FaultDecision::Ok`] (without consuming anything) when no window
    /// for the site is open — outside its window a spec does not exist.
    pub fn decide(&self, site: FaultSite, t: TimeSecs) -> FaultDecision {
        for (i, w) in self.windows.iter().enumerate() {
            if w.site != site || !w.is_active_at(t) {
                continue;
            }
            let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
            let u = unit_draw(self.seed ^ CHAOS_STREAM_SALT, i as u64, n);
            return if u < w.spec.fail_rate {
                FaultDecision::Fail
            } else if u < w.spec.fail_rate + w.spec.slow_rate {
                FaultDecision::Slow(w.spec.slow_factor)
            } else {
                FaultDecision::Ok
            };
        }
        FaultDecision::Ok
    }

    /// Rewinds every window's draw stream so a fresh run replays the
    /// exact chaos sequence.
    pub fn reset(&self) {
        for d in &self.draws {
            d.store(0, Ordering::Relaxed);
        }
    }
}

/// Salt separating chaos-window streams from plan streams that happen to
/// share a seed.
const CHAOS_STREAM_SALT: u64 = 0x5c3a_05c4_ed01_e77a;

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> TimeSecs {
        TimeSecs::from_millis(v)
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow {
            site: FaultSite::SocketLink,
            spec: FaultSpec::slow(1.0, 2.0),
            start: ms(10.0),
            end: ms(20.0),
        };
        assert!(!w.is_active_at(ms(9.999)));
        assert!(w.is_active_at(ms(10.0)));
        assert!(w.is_active_at(ms(19.999)));
        assert!(!w.is_active_at(ms(20.0)));
    }

    #[test]
    fn decide_fires_only_inside_the_window() {
        let chaos = ChaosSchedule::new(11).with_window(
            FaultSite::SocketLink,
            FaultSpec::slow(1.0, 3.0),
            ms(10.0),
            ms(20.0),
        );
        assert_eq!(
            chaos.decide(FaultSite::SocketLink, ms(5.0)),
            FaultDecision::Ok
        );
        assert_eq!(
            chaos.decide(FaultSite::SocketLink, ms(15.0)),
            FaultDecision::Slow(3.0)
        );
        // Other sites never see this window.
        assert_eq!(
            chaos.decide(FaultSite::ExpertLoad, ms(15.0)),
            FaultDecision::Ok
        );
        assert_eq!(
            chaos.decide(FaultSite::SocketLink, ms(25.0)),
            FaultDecision::Ok
        );
    }

    #[test]
    fn windowed_draws_replay_after_reset() {
        let make = || {
            ChaosSchedule::new(42).with_window(
                FaultSite::SocketLink,
                FaultSpec::failing(0.5),
                TimeSecs::ZERO,
                ms(100.0),
            )
        };
        let a = make();
        let first: Vec<FaultDecision> = (0..64)
            .map(|_| a.decide(FaultSite::SocketLink, ms(1.0)))
            .collect();
        assert!(first.contains(&FaultDecision::Fail));
        assert!(first.contains(&FaultDecision::Ok));
        let b = make();
        let again: Vec<FaultDecision> = (0..64)
            .map(|_| b.decide(FaultSite::SocketLink, ms(1.0)))
            .collect();
        assert_eq!(first, again);
        a.reset();
        let replay: Vec<FaultDecision> = (0..64)
            .map(|_| a.decide(FaultSite::SocketLink, ms(1.0)))
            .collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn correlated_outage_flattens_to_a_sorted_timeline() {
        let chaos = ChaosSchedule::new(0)
            .with_outage(&[3, 1], ms(50.0), Some(ms(80.0)))
            .with_outage(&[0], ms(20.0), None);
        let events = chaos.events();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[0],
            ChaosEvent {
                at: ms(20.0),
                node: 0,
                kind: ChaosEventKind::Crash
            }
        );
        // The correlated pair crashes at the same instant, node-ordered.
        assert_eq!(events[1].at, ms(50.0));
        assert_eq!((events[1].node, events[1].kind), (1, ChaosEventKind::Crash));
        assert_eq!((events[2].node, events[2].kind), (3, ChaosEventKind::Crash));
        // ... and restores together.
        assert_eq!(
            (events[3].node, events[3].kind),
            (1, ChaosEventKind::Restore)
        );
        assert_eq!(
            (events[4].node, events[4].kind),
            (3, ChaosEventKind::Restore)
        );
    }

    #[test]
    fn crashes_precede_restores_at_an_equal_instant() {
        let chaos = ChaosSchedule::new(0)
            .with_outage(&[0], ms(10.0), Some(ms(20.0)))
            .with_outage(&[1], ms(20.0), None);
        let events = chaos.events();
        assert_eq!((events[1].node, events[1].kind), (1, ChaosEventKind::Crash));
        assert_eq!(
            (events[2].node, events[2].kind),
            (0, ChaosEventKind::Restore)
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn windowed_specs_are_validated() {
        let _ = ChaosSchedule::new(0).with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.9,
                slow_rate: 0.9,
                slow_factor: 2.0,
            },
            TimeSecs::ZERO,
            ms(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "never opens")]
    fn empty_windows_are_rejected() {
        let _ = ChaosSchedule::new(0).with_window(
            FaultSite::SocketLink,
            FaultSpec::failing(0.1),
            ms(5.0),
            ms(5.0),
        );
    }

    #[test]
    #[should_panic(expected = "restored before it began")]
    fn inverted_outages_are_rejected() {
        let _ = ChaosSchedule::new(0).with_outage(&[0], ms(5.0), Some(ms(4.0)));
    }
}
