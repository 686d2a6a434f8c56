//! Declarative alert rules evaluated against the metric registry at
//! every wave boundary.
//!
//! Rules are data ([`AlertRule`] + [`AlertCondition`]), evaluation is a
//! pure function of the registry's recent windows, and transitions are
//! typed [`AlertEvent`]s: a rule that starts breaching emits `Firing`
//! once, stays silent while it keeps breaching, and emits `Resolved`
//! once when it stops. The burn-rate condition implements the standard
//! SRE multi-window form: the error-budget burn ratio
//! `(bad/total)/budget` must exceed `factor` over BOTH a fast and a
//! slow window to fire, and the fast window alone dropping below
//! resolves it — fast detection without flapping on single-wave blips.

use crate::registry::MetricRegistry;
use crate::series::{LabelSet, SeriesKey};
use serde::{Deserialize, Serialize};
use sn_arch::TimeSecs;
use std::collections::BTreeSet;

/// What a rule watches. Window sizes are in waves over the raw recent
/// window (so they must fit `RegistryConfig::recent_capacity`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertCondition {
    /// Mean of a gauge over `window` waves exceeds `threshold` (e.g.
    /// p99-over-threshold on a latency gauge).
    GaugeAbove {
        /// Gauge series to watch.
        series: SeriesKey,
        /// Firing threshold (exclusive).
        threshold: f64,
        /// Averaging window in waves.
        window: usize,
    },
    /// Mean of a gauge over `window` waves drops below `threshold`
    /// (e.g. an HBM-hit-rate floor). Only evaluates once the series has
    /// at least `window` samples, so a cold start never fires.
    GaugeBelow {
        /// Gauge series to watch.
        series: SeriesKey,
        /// Firing floor (exclusive).
        threshold: f64,
        /// Averaging window in waves.
        window: usize,
    },
    /// `sum(bad)/sum(total)` over `window` waves exceeds `threshold`
    /// (e.g. shed-rate). Evaluates to 0 while `sum(total)` is 0.
    RatioAbove {
        /// Numerator counter series.
        bad: SeriesKey,
        /// Denominator counter series.
        total: SeriesKey,
        /// Firing threshold (exclusive) on the ratio.
        threshold: f64,
        /// Summing window in waves.
        window: usize,
    },
    /// Multi-window SLO burn rate: fires when
    /// `(sum(bad)/sum(total))/budget > factor` over both windows;
    /// resolves when the fast window drops to `factor` or below.
    BurnRate {
        /// Counter series of SLO-violating outcomes.
        bad: SeriesKey,
        /// Counter series of all outcomes.
        total: SeriesKey,
        /// Error budget as a fraction (e.g. 0.05 = 95% SLO target).
        budget: f64,
        /// Fast window in waves (detection + resolution).
        fast_window: usize,
        /// Slow window in waves (guards against blips).
        slow_window: usize,
        /// Burn-rate multiple that fires the alert.
        factor: f64,
    },
}

/// A named rule over one condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Rule name, unique within the engine (e.g. `slo_burn_batch`).
    pub name: String,
    /// Labels attached to emitted events (typically the tenant/class
    /// the watched series belongs to).
    pub labels: LabelSet,
    /// The watched condition.
    pub condition: AlertCondition,
}

/// Transition direction of an [`AlertEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// Rule entered the breaching state.
    Firing,
    /// Rule left the breaching state.
    Resolved,
}

impl AlertKind {
    /// Lower-case display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlertKind::Firing => "firing",
            AlertKind::Resolved => "resolved",
        }
    }
}

/// One firing/resolved transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Name of the rule that transitioned.
    pub rule: String,
    /// The rule's labels.
    pub labels: LabelSet,
    /// Transition direction.
    pub kind: AlertKind,
    /// Wave index at which the transition was observed.
    pub wave: usize,
    /// Sim-clock at the transition.
    pub at: TimeSecs,
    /// The evaluated value (mean, ratio, or fast-window burn rate).
    pub value: f64,
    /// The threshold/factor the value was compared against.
    pub threshold: f64,
}

/// Evaluates a fixed rule list each wave and tracks firing state.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Names of the rules currently firing. Keyed by name, so rules that
    /// share a name share firing state.
    firing: BTreeSet<String>,
}

/// Mean over the last `window` samples of a series, with the sample
/// count actually covered; `None` if the series doesn't exist yet.
fn windowed_mean(
    registry: &MetricRegistry,
    series: &SeriesKey,
    window: usize,
) -> Option<(f64, usize)> {
    let buf = registry.buffer(series)?;
    Some((buf.window_mean(window), buf.recent_len().min(window)))
}

fn windowed_ratio(
    registry: &MetricRegistry,
    bad: &SeriesKey,
    total: &SeriesKey,
    window: usize,
) -> f64 {
    let bad_sum = registry
        .buffer(bad)
        .map(|b| b.window_sum(window))
        .unwrap_or(0.0);
    let total_sum = registry
        .buffer(total)
        .map(|b| b.window_sum(window))
        .unwrap_or(0.0);
    if total_sum <= 0.0 {
        0.0
    } else {
        bad_sum / total_sum
    }
}

impl AlertEngine {
    /// Builds an engine over a rule list. Rule names should be unique;
    /// a duplicated name shares firing state.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine {
            rules,
            firing: BTreeSet::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Whether a rule is currently firing.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.firing.contains(rule)
    }

    /// Evaluates every rule against the registry's recent windows and
    /// returns the transitions observed this wave, in rule order.
    pub fn evaluate(
        &mut self,
        registry: &MetricRegistry,
        wave: usize,
        at: TimeSecs,
    ) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for rule in &self.rules {
            // (breaching-now, evaluated value, threshold). `None` means
            // the rule can't be evaluated yet (series missing / window
            // not yet full for floor rules): keep prior state.
            let verdict: Option<(bool, f64, f64)> = match &rule.condition {
                AlertCondition::GaugeAbove {
                    series,
                    threshold,
                    window,
                } => windowed_mean(registry, series, *window)
                    .map(|(mean, _)| (mean > *threshold, mean, *threshold)),
                AlertCondition::GaugeBelow {
                    series,
                    threshold,
                    window,
                } => windowed_mean(registry, series, *window).and_then(|(mean, n)| {
                    if n < *window {
                        None
                    } else {
                        Some((mean < *threshold, mean, *threshold))
                    }
                }),
                AlertCondition::RatioAbove {
                    bad,
                    total,
                    threshold,
                    window,
                } => {
                    let ratio = windowed_ratio(registry, bad, total, *window);
                    Some((ratio > *threshold, ratio, *threshold))
                }
                AlertCondition::BurnRate {
                    bad,
                    total,
                    budget,
                    fast_window,
                    slow_window,
                    factor,
                } => {
                    let budget = budget.max(f64::EPSILON);
                    let fast = windowed_ratio(registry, bad, total, *fast_window) / budget;
                    let slow = windowed_ratio(registry, bad, total, *slow_window) / budget;
                    let breaching = if self.firing.contains(&rule.name) {
                        // Resolution is fast-window-only.
                        fast > *factor
                    } else {
                        fast > *factor && slow > *factor
                    };
                    Some((breaching, fast, *factor))
                }
            };
            let Some((breaching, value, threshold)) = verdict else {
                continue;
            };
            // The name is cloned only when the rule starts firing.
            let transitioned = if breaching {
                !self.firing.contains(&rule.name) && self.firing.insert(rule.name.clone())
            } else {
                self.firing.remove(&rule.name)
            };
            if transitioned {
                events.push(AlertEvent {
                    rule: rule.name.clone(),
                    labels: rule.labels.clone(),
                    kind: if breaching {
                        AlertKind::Firing
                    } else {
                        AlertKind::Resolved
                    },
                    wave,
                    at,
                    value,
                    threshold,
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    fn key(name: &str) -> SeriesKey {
        SeriesKey::new(name, &[])
    }

    fn engine_with(condition: AlertCondition) -> AlertEngine {
        AlertEngine::new(vec![AlertRule {
            name: "r".into(),
            labels: LabelSet::empty(),
            condition,
        }])
    }

    /// Drives one wave: set/add -> sample -> evaluate.
    fn step(
        reg: &mut MetricRegistry,
        eng: &mut AlertEngine,
        wave: usize,
        fill: impl FnOnce(&mut MetricRegistry),
    ) -> Vec<AlertEvent> {
        fill(reg);
        let t = TimeSecs::from_millis(wave as f64);
        reg.sample(wave, t);
        eng.evaluate(reg, wave, t)
    }

    #[test]
    fn gauge_above_fires_once_and_resolves_once() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        let mut eng = engine_with(AlertCondition::GaugeAbove {
            series: key("lat"),
            threshold: 10.0,
            window: 2,
        });
        assert!(step(&mut reg, &mut eng, 0, |r| r.gauge(key("lat"), 5.0)).is_empty());
        let fired = step(&mut reg, &mut eng, 1, |r| r.gauge(key("lat"), 50.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Firing);
        assert!(eng.is_firing("r"));
        // Still breaching: no repeat event.
        assert!(step(&mut reg, &mut eng, 2, |r| r.gauge(key("lat"), 50.0)).is_empty());
        // Mean over last 2 drops below threshold: resolves.
        let resolved = step(&mut reg, &mut eng, 3, |r| r.gauge(key("lat"), 1.0));
        assert!(step(&mut reg, &mut eng, 4, |r| r.gauge(key("lat"), 1.0))
            .iter()
            .chain(resolved.iter())
            .any(|e| e.kind == AlertKind::Resolved));
        assert!(!eng.is_firing("r"));
    }

    #[test]
    fn gauge_below_waits_for_a_full_window() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        let mut eng = engine_with(AlertCondition::GaugeBelow {
            series: key("hit_rate"),
            threshold: 0.5,
            window: 3,
        });
        // Two low samples: window not full, must not fire.
        assert!(step(&mut reg, &mut eng, 0, |r| r.gauge(key("hit_rate"), 0.1)).is_empty());
        assert!(step(&mut reg, &mut eng, 1, |r| r.gauge(key("hit_rate"), 0.1)).is_empty());
        let fired = step(&mut reg, &mut eng, 2, |r| r.gauge(key("hit_rate"), 0.1));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Firing);
    }

    #[test]
    fn rules_sharing_a_name_share_firing_state() {
        let rule = |series: &str| AlertRule {
            name: "dup".into(),
            labels: LabelSet::empty(),
            condition: AlertCondition::GaugeAbove {
                series: key(series),
                threshold: 1.0,
                window: 1,
            },
        };
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        let mut eng = AlertEngine::new(vec![rule("a"), rule("b")]);
        // Both rules breach in the same wave: the second sees the state
        // the first just set, so one transition, not two.
        let fired = step(&mut reg, &mut eng, 0, |r| {
            r.gauge(key("a"), 5.0);
            r.gauge(key("b"), 5.0);
        });
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Firing);
        assert!(eng.is_firing("dup"));
        // One rule stops breaching: it resolves the shared state, and
        // the still-breaching twin fires it again in the same wave.
        let flapped = step(&mut reg, &mut eng, 1, |r| {
            r.gauge(key("a"), 0.0);
            r.gauge(key("b"), 5.0);
        });
        let kinds: Vec<AlertKind> = flapped.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AlertKind::Resolved, AlertKind::Firing]);
        // Both quiet: one resolution.
        let resolved = step(&mut reg, &mut eng, 2, |r| {
            r.gauge(key("a"), 0.0);
            r.gauge(key("b"), 0.0);
        });
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, AlertKind::Resolved);
        assert!(!eng.is_firing("dup"));
    }

    #[test]
    fn gauge_below_never_evaluates_a_window_longer_than_the_recent_capacity() {
        // The window is counted over the raw recent window, which holds
        // at most `recent_capacity` samples: a longer window never fills.
        let mut reg = MetricRegistry::new(RegistryConfig {
            ring_capacity: 8,
            recent_capacity: 3,
        });
        let mut eng = engine_with(AlertCondition::GaugeBelow {
            series: key("hit_rate"),
            threshold: 0.5,
            window: 4,
        });
        for wave in 0..10 {
            let events = step(&mut reg, &mut eng, wave, |r| r.gauge(key("hit_rate"), 0.1));
            assert!(events.is_empty(), "wave {wave}: {events:?}");
        }
        assert!(!eng.is_firing("r"));
        assert_eq!(reg.buffer(&key("hit_rate")).unwrap().recent_len(), 3);
    }

    #[test]
    fn ratio_above_is_zero_safe_on_empty_totals() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        let mut eng = engine_with(AlertCondition::RatioAbove {
            bad: key("shed"),
            total: key("admitted"),
            threshold: 0.2,
            window: 4,
        });
        // No totals at all: ratio is defined as 0, never NaN.
        assert!(step(&mut reg, &mut eng, 0, |_| {}).is_empty());
        assert!(!eng.is_firing("r"));
        // 3 shed of 4 admitted -> 0.75 > 0.2.
        let fired = step(&mut reg, &mut eng, 1, |r| {
            r.add(key("shed"), 3.0);
            r.add(key("admitted"), 4.0);
        });
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Firing);
        assert!((fired[0].value - 0.75).abs() < 1e-12);
    }

    #[test]
    fn burn_rate_needs_both_windows_but_resolves_on_fast() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        // budget 0.1, factor 2 -> fires when >20% of outcomes are bad
        // over both a 2-wave and a 6-wave window.
        let mut eng = engine_with(AlertCondition::BurnRate {
            bad: key("bad"),
            total: key("total"),
            budget: 0.1,
            fast_window: 2,
            slow_window: 6,
            factor: 2.0,
        });
        // Waves 0-3: healthy traffic dilutes the slow window.
        for wave in 0..4 {
            let events = step(&mut reg, &mut eng, wave, |r| {
                r.add(key("bad"), 0.0);
                r.add(key("total"), 10.0);
            });
            assert!(events.is_empty());
        }
        // Wave 4: fast window is hot (10/20 bad = burn 50) but the slow
        // window (10/60) is burn ~16.7 < factor? budget 0.1 -> slow burn
        // 1.67 < 2.0: must NOT fire yet.
        let events = step(&mut reg, &mut eng, 4, |r| {
            r.add(key("bad"), 10.0);
            r.add(key("total"), 10.0);
        });
        assert!(events.is_empty(), "slow window still guards: {events:?}");
        // Wave 5: another bad wave pushes the slow window over too.
        let events = step(&mut reg, &mut eng, 5, |r| {
            r.add(key("bad"), 10.0);
            r.add(key("total"), 10.0);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlertKind::Firing);
        // Two healthy waves clear the fast window -> resolves even
        // though the 6-wave slow window still remembers the incident.
        let mut resolved = Vec::new();
        for wave in 6..8 {
            resolved.extend(step(&mut reg, &mut eng, wave, |r| {
                r.add(key("bad"), 0.0);
                r.add(key("total"), 10.0);
            }));
        }
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, AlertKind::Resolved);
        assert!(!eng.is_firing("r"));
    }
}
