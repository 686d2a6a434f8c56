//! `sn-obs` — labeled time-series telemetry, SLO burn-rate alerting, and
//! a post-mortem flight recorder for the SN40L serving stack.
//!
//! Where `sn-trace` answers "how much, in total" (typed counters,
//! latency histograms) and `sn-profile` answers "what bound the run"
//! (roofline attribution, end-of-window percentiles), `sn-obs` answers
//! "when, and to whom": per-tenant/per-node series sampled at wave
//! boundaries, declarative alert rules with firing/resolved transitions,
//! and a black-box bundle of the waves around each incident.
//!
//! The recording contract matches `sn-trace`'s tracer: the [`Obs`]
//! handle is an `Option<Arc<Mutex<..>>>` — disabled handles hold `None`
//! and every recording call is an inlined null-check, so instrumentation
//! costs nothing when observability is off, and observed runs stay
//! bit-identical to unobserved ones (the pipeline only reads serving
//! state, never steers it). All storage orders by `BTreeMap`/sorted keys,
//! so reports and JSON exports are byte-identical across `--jobs` values.
//!
//! # Examples
//!
//! ```
//! use sn_obs::{Obs, ObsConfig, AlertCondition, AlertRule, LabelSet, SeriesKey};
//! use sn_arch::TimeSecs;
//!
//! let mut config = ObsConfig::default();
//! config.rules.push(AlertRule {
//!     name: "queue_deep".into(),
//!     labels: LabelSet::empty(),
//!     condition: AlertCondition::GaugeAbove {
//!         series: SeriesKey::new("queue_depth", &[]),
//!         threshold: 10.0,
//!         window: 2,
//!     },
//! });
//! let obs = Obs::enabled(config);
//! for wave in 0..4 {
//!     obs.gauge("queue_depth", &[], 20.0);
//!     obs.end_wave(wave, TimeSecs::from_millis(wave as f64));
//! }
//! let report = obs.finalize().expect("enabled");
//! assert_eq!(report.alerts.len(), 1); // fired once, still firing
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod series;

pub use alert::{AlertCondition, AlertEngine, AlertEvent, AlertKind, AlertRule};
pub use recorder::{FlightEntry, FlightRecorder, PostMortem, RecorderConfig};
pub use registry::{MetricRegistry, RegistryConfig};
pub use series::{Bucket, LabelSet, MetricKind, Sample, SeriesBuffer, SeriesKey};

use sn_arch::TimeSecs;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Full observability pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Per-series storage sizing.
    pub registry: RegistryConfig,
    /// Flight-recorder sizing.
    pub recorder: RecorderConfig,
    /// Alert rules evaluated each wave.
    pub rules: Vec<AlertRule>,
}

/// Outcome of closing one wave: how many alert transitions happened and
/// whether a post-mortem bundle was frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveObservation {
    /// Rules that transitioned to firing this wave.
    pub fired: usize,
    /// Rules that transitioned to resolved this wave.
    pub resolved: usize,
    /// Whether the flight recorder finalized a bundle this wave.
    pub postmortem_closed: bool,
}

/// Everything the pipeline saw, frozen at end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Waves observed (`end_wave` calls).
    pub waves: usize,
    /// Every series with its downsampled ring and recent window, sorted
    /// by key.
    pub series: Vec<(SeriesKey, SeriesBuffer)>,
    /// Every alert transition, in wave order.
    pub alerts: Vec<AlertEvent>,
    /// Every frozen post-mortem bundle, in incident order.
    pub postmortems: Vec<PostMortem>,
}

impl ObsReport {
    /// Serializes as a standalone JSON document (see [`export`]).
    pub fn to_json(&self) -> String {
        export::to_json(self)
    }

    /// The buffer for one series, if recorded.
    pub fn series_buffer(&self, key: &SeriesKey) -> Option<&SeriesBuffer> {
        self.series
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.series[i].1)
    }

    /// Alert transitions of one kind.
    pub fn alerts_of(&self, kind: AlertKind) -> impl Iterator<Item = &AlertEvent> {
        self.alerts.iter().filter(move |a| a.kind == kind)
    }
}

struct ObsState {
    registry: MetricRegistry,
    engine: AlertEngine,
    recorder: FlightRecorder,
    alerts: Vec<AlertEvent>,
    waves: usize,
    last_wave: usize,
}

/// Locks the shared pipeline, recovering it from a poisoned lock: the
/// pipeline only reads serving state, so one left half-updated by a
/// panicking holder can misreport telemetry but never change a serving
/// result.
fn lock(state: &Mutex<ObsState>) -> MutexGuard<'_, ObsState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle through which instrumented serving code records telemetry.
///
/// Cheap to clone; clones share one pipeline. Disabled handles make
/// every method a no-op (see the crate docs for the contract).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<ObsState>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Obs(disabled)"),
            Some(s) => {
                let s = lock(s);
                write!(
                    f,
                    "Obs(enabled, {} series, wave {})",
                    s.registry.len(),
                    s.waves
                )
            }
        }
    }
}

impl Obs {
    /// A disabled pipeline: every call is a no-op. Also the `Default`.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled pipeline with the given configuration.
    pub fn enabled(config: ObsConfig) -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(ObsState {
                registry: MetricRegistry::new(config.registry),
                engine: AlertEngine::new(config.rules),
                recorder: FlightRecorder::new(config.recorder),
                alerts: Vec::new(),
                waves: 0,
                last_wave: 0,
            }))),
        }
    }

    /// Whether this handle records anything.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets a labeled gauge for the current wave. Allocation-free for a
    /// series that already exists when `labels` is canonical (strictly
    /// key-sorted) — the wave-boundary instrumentation hot path.
    #[inline]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).registry.gauge_parts(name, labels, value);
    }

    /// Adds to a labeled counter's delta for the current wave. Same
    /// allocation contract as [`Obs::gauge`].
    #[inline]
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).registry.add_parts(name, labels, delta);
    }

    /// Records a flight-recorder entry (shed, crash, scale event, …).
    #[inline]
    pub fn event(
        &self,
        wave: usize,
        t: TimeSecs,
        node: Option<usize>,
        kind: &str,
        detail: &str,
        value: f64,
    ) {
        let Some(inner) = &self.inner else { return };
        lock(inner).recorder.record(FlightEntry {
            wave,
            t,
            node,
            kind: kind.to_string(),
            detail: detail.to_string(),
            value,
        });
    }

    /// Opens (or extends) a post-mortem capture — called when a chaos
    /// fault window opens or an outage begins.
    #[inline]
    pub fn incident(&self, trigger: &str, wave: usize, at: TimeSecs) {
        let Some(inner) = &self.inner else { return };
        lock(inner).recorder.incident(trigger, wave, at);
    }

    /// Closes a wave: samples the registry, evaluates alert rules
    /// (firing alerts open post-mortem captures), and ticks the flight
    /// recorder. Returns the wave's alert/bundle activity.
    pub fn end_wave(&self, wave: usize, at: TimeSecs) -> WaveObservation {
        let Some(inner) = &self.inner else {
            return WaveObservation::default();
        };
        let mut s = lock(inner);
        s.registry.sample(wave, at);
        let ObsState {
            registry, engine, ..
        } = &mut *s;
        let events = engine.evaluate(registry, wave, at);
        let mut obs = WaveObservation::default();
        for event in &events {
            match event.kind {
                AlertKind::Firing => {
                    obs.fired += 1;
                    let trigger = format!("alert:{}", event.rule);
                    s.recorder.incident(&trigger, wave, at);
                }
                AlertKind::Resolved => obs.resolved += 1,
            }
            s.recorder.record(FlightEntry {
                wave,
                t: at,
                node: None,
                kind: "alert".to_string(),
                detail: format!("{} {}", event.rule, event.kind.name()),
                value: event.value,
            });
        }
        s.alerts.extend(events);
        let ObsState {
            registry, recorder, ..
        } = &mut *s;
        obs.postmortem_closed = recorder.end_wave(wave, registry);
        s.waves += 1;
        s.last_wave = wave;
        obs
    }

    /// Whether a post-mortem capture is currently open (false when
    /// disabled) — an open capture will be frozen by [`Obs::finalize`].
    pub fn is_capturing(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => lock(inner).recorder.is_capturing(),
        }
    }

    /// Number of waves closed so far (0 when disabled).
    pub fn waves(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => lock(inner).waves,
        }
    }

    /// Freezes the pipeline into a report: flushes any open capture and
    /// snapshots series, alerts, and bundles. `None` when disabled.
    pub fn finalize(&self) -> Option<ObsReport> {
        let inner = self.inner.as_ref()?;
        let mut s = lock(inner);
        let ObsState {
            registry,
            recorder,
            last_wave,
            ..
        } = &mut *s;
        recorder.finalize(*last_wave, registry);
        let series: Vec<(SeriesKey, SeriesBuffer)> = s
            .registry
            .iter()
            .map(|(k, b)| (k.clone(), b.clone()))
            .collect();
        Some(ObsReport {
            waves: s.waves,
            series,
            alerts: s.alerts.clone(),
            postmortems: s.recorder.postmortems().to_vec(),
        })
    }
}

/// Renders values as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaling to the
/// value range; empty input renders as an empty string, and a flat
/// series renders at the lowest level.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return LEVELS[0].to_string().repeat(values.len());
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() || span <= 0.0 {
                LEVELS[0]
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_with_rule() -> ObsConfig {
        let mut config = ObsConfig::default();
        config.rules.push(AlertRule {
            name: "hot".into(),
            labels: LabelSet::from_pairs(&[("tenant", "t0")]),
            condition: AlertCondition::GaugeAbove {
                series: SeriesKey::new("lat", &[("tenant", "t0")]),
                threshold: 5.0,
                window: 1,
            },
        });
        config
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        obs.gauge("lat", &[], 1.0);
        obs.add("shed", &[], 1.0);
        obs.event(0, TimeSecs::ZERO, None, "x", "y", 0.0);
        obs.incident("z", 0, TimeSecs::ZERO);
        assert_eq!(obs.end_wave(0, TimeSecs::ZERO), WaveObservation::default());
        assert_eq!(obs.waves(), 0);
        assert!(obs.finalize().is_none());
        assert!(!obs.is_enabled());
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn clones_share_one_pipeline() {
        let obs = Obs::enabled(ObsConfig::default());
        let other = obs.clone();
        other.gauge("depth", &[], 2.0);
        obs.end_wave(0, TimeSecs::ZERO);
        let report = obs.finalize().unwrap();
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.waves, 1);
    }

    #[test]
    fn firing_alert_opens_a_postmortem_capture() {
        let obs = Obs::enabled(ObsConfig {
            recorder: RecorderConfig {
                ring_capacity: 16,
                tail_waves: 2,
            },
            ..config_with_rule()
        });
        obs.gauge("lat", &[("tenant", "t0")], 1.0);
        let quiet = obs.end_wave(0, TimeSecs::from_millis(1.0));
        assert_eq!(quiet.fired, 0);
        obs.gauge("lat", &[("tenant", "t0")], 50.0);
        let hot = obs.end_wave(1, TimeSecs::from_millis(2.0));
        assert_eq!(hot.fired, 1);
        obs.gauge("lat", &[("tenant", "t0")], 1.0);
        // The firing wave's own tick consumed one tail wave, so the
        // 2-wave tail expires on the wave after the resolution.
        let cool = obs.end_wave(2, TimeSecs::from_millis(3.0));
        assert_eq!(cool.resolved, 1);
        assert!(cool.postmortem_closed, "tail of 2 waves expired");
        let report = obs.finalize().unwrap();
        assert_eq!(report.alerts.len(), 2);
        assert_eq!(report.alerts_of(AlertKind::Firing).count(), 1);
        assert_eq!(report.alerts_of(AlertKind::Resolved).count(), 1);
        assert_eq!(report.postmortems.len(), 1);
        let pm = &report.postmortems[0];
        assert_eq!(pm.trigger, "alert:hot");
        assert_eq!(pm.opened_wave, 1);
        // The bundle's series cover the incident wave.
        assert!(pm.covers(1, 1));
    }

    #[test]
    fn finalize_flushes_open_captures() {
        let obs = Obs::enabled(config_with_rule());
        obs.gauge("lat", &[("tenant", "t0")], 50.0);
        obs.end_wave(0, TimeSecs::from_millis(1.0));
        // Run ends with the capture still open (default 30-wave tail).
        let report = obs.finalize().unwrap();
        assert_eq!(report.postmortems.len(), 1);
    }

    #[test]
    fn report_lookup_and_json_round_trip_shape() {
        let obs = Obs::enabled(ObsConfig::default());
        obs.add("shed", &[("tenant", "a")], 3.0);
        obs.gauge("depth", &[], 7.0);
        obs.end_wave(0, TimeSecs::from_millis(1.0));
        let report = obs.finalize().unwrap();
        let key = SeriesKey::new("shed", &[("tenant", "a")]);
        let buf = report.series_buffer(&key).expect("series exists");
        assert_eq!(buf.last().unwrap().value, 3.0);
        assert!(report.series_buffer(&SeriesKey::new("nope", &[])).is_none());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"sn-obs/v1\""));
        assert!(json.contains("\"name\":\"shed\""));
    }

    #[test]
    fn exports_are_byte_identical_across_label_orderings() {
        // The borrowed-parts fast path (canonical labels) and the
        // allocating fallback (unsorted / duplicate-key labels) must
        // produce the same export byte-for-byte, so the wave-boundary
        // allocation fix cannot change any recorded artifact.
        let run = |labels_a: &[(&str, &str)], labels_b: &[(&str, &str)]| -> String {
            let obs = Obs::enabled(ObsConfig::default());
            for wave in 0..4usize {
                obs.gauge("lat", labels_a, wave as f64);
                obs.add("shed", labels_b, 1.0);
                obs.gauge("depth", &[], 2.0 * wave as f64);
                obs.end_wave(wave, TimeSecs::from_millis(wave as f64));
            }
            obs.finalize().unwrap().to_json()
        };
        let canonical = run(
            &[("slo_class", "interactive"), ("tenant", "t0")],
            &[("reason", "queue-full"), ("tenant", "t1")],
        );
        let permuted = run(
            &[("tenant", "t0"), ("slo_class", "interactive")],
            &[
                ("tenant", "t1"),
                ("reason", "zzz"),
                ("reason", "queue-full"),
            ],
        );
        assert_eq!(canonical, permuted);
    }

    #[test]
    fn sparkline_scales_and_handles_edge_cases() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "▁▁");
        let mixed = sparkline(&[0.0, f64::INFINITY, 10.0]);
        assert_eq!(mixed.chars().count(), 3);
    }
}
