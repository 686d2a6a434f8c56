//! The [`Tracer`] handle instrumented simulators record through.
//!
//! A tracer is cheap to clone (an `Option<Arc<..>>`) and thread-safe (the
//! shared state sits behind a `std::sync::Mutex`). Disabled tracers hold
//! `None`: every recording method is an inlined null check followed by an
//! immediate return, so instrumentation costs nothing when off.

use crate::counter::{Counter, Histogram, Metric};
use crate::event::{ArgValue, EventKind, TraceEvent, Track};
use crate::report::MetricsReport;
use sn_arch::TimeSecs;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct State {
    events: Vec<TraceEvent>,
    counters: [u64; Counter::COUNT],
    histograms: Vec<Histogram>,
    /// Per-track timeline cursor in microseconds: sequential spans emitted
    /// through [`Tracer::span`] lay out end to end.
    cursors: [f64; Track::ALL.len()],
}

impl State {
    fn new() -> Self {
        State {
            events: Vec::new(),
            counters: [0; Counter::COUNT],
            histograms: vec![Histogram::new(); Metric::COUNT],
            cursors: [0.0; Track::ALL.len()],
        }
    }
}

/// Locks the shared buffer, recovering it from a poisoned lock: every
/// update under the lock is one add, one histogram record or one push
/// (a span moves its track's cursor first, which at worst leaves a gap
/// on the timeline), so a panicking holder leaves the buffer valid.
fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle through which instrumented code records events and counters.
///
/// Holds either a shared buffer (enabled) or nothing (disabled). Clones
/// share the same buffer, so a serving node, its runtime, its executor,
/// and its DMA engines all append to one stream.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<State>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(s) => write!(f, "Tracer(enabled, {} events)", lock(s).events.len()),
        }
    }
}

impl Tracer {
    /// A disabled tracer: every recording call is a no-op. This is also
    /// the `Default`, so un-instrumented constructions change nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with an empty buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(State::new()))),
        }
    }

    /// Whether this tracer records anything. Inlined so the disabled path
    /// in instrumented code reduces to a branch on a `None` discriminant.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a typed counter.
    #[inline]
    pub fn count(&self, counter: Counter, delta: u64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).counters[counter.index()] += delta;
    }

    /// Records one latency observation into a histogram. Negative or
    /// non-finite durations are clamped to zero.
    #[inline]
    pub fn observe(&self, metric: Metric, duration: TimeSecs) {
        let Some(inner) = &self.inner else { return };
        lock(inner).histograms[metric.index()].record(secs_to_ns(duration));
    }

    /// Emits a complete (duration) event at the track's cursor and
    /// advances the cursor past it — sequential calls tile the timeline.
    #[inline]
    pub fn span(
        &self,
        track: Track,
        name: impl Into<String>,
        duration: TimeSecs,
        args: &[(&'static str, ArgValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock(inner);
        let ts_us = s.cursors[track.index()];
        let dur_us = secs_to_us(duration);
        s.cursors[track.index()] = ts_us + dur_us;
        s.events.push(TraceEvent {
            name: name.into(),
            track,
            tid: 0,
            ts_us,
            kind: EventKind::Complete { dur_us },
            args: args.to_vec(),
        });
    }

    /// Emits a complete event at an explicit start time on an explicit
    /// thread lane, without touching the track cursor — for overlapping
    /// work (prefetch, concurrent cluster nodes).
    #[inline]
    pub fn span_at(
        &self,
        track: Track,
        tid: u32,
        name: impl Into<String>,
        start: TimeSecs,
        duration: TimeSecs,
        args: &[(&'static str, ArgValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        lock(inner).events.push(TraceEvent {
            name: name.into(),
            track,
            tid,
            ts_us: secs_to_us(start),
            kind: EventKind::Complete {
                dur_us: secs_to_us(duration),
            },
            args: args.to_vec(),
        });
    }

    /// Emits a zero-duration marker at the track's cursor.
    #[inline]
    pub fn instant(
        &self,
        track: Track,
        name: impl Into<String>,
        args: &[(&'static str, ArgValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock(inner);
        let ts_us = s.cursors[track.index()];
        s.events.push(TraceEvent {
            name: name.into(),
            track,
            tid: 0,
            ts_us,
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Emits a counter-track sample (rendered as a graph in Perfetto) at
    /// the track's cursor.
    #[inline]
    pub fn counter_sample(&self, track: Track, name: impl Into<String>, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock(inner);
        let ts_us = s.cursors[track.index()];
        s.events.push(TraceEvent {
            name: name.into(),
            track,
            tid: 0,
            ts_us,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        });
    }

    /// Current cursor position of a track, in microseconds of model time
    /// (0.0 on a disabled tracer).
    pub fn cursor_us(&self, track: Track) -> f64 {
        match &self.inner {
            None => 0.0,
            Some(inner) => lock(inner).cursors[track.index()],
        }
    }

    /// Moves a track's cursor forward to `ts_us` (never backward) — used
    /// to align a track with work accounted elsewhere.
    pub fn advance_cursor_us(&self, track: Track, ts_us: f64) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock(inner);
        let c = &mut s.cursors[track.index()];
        if ts_us > *c {
            *c = ts_us;
        }
    }

    /// Number of buffered events (0 on a disabled tracer).
    pub fn event_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => lock(inner).events.len(),
        }
    }

    /// Snapshot of the buffered events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(inner).events.clone(),
        }
    }

    /// Current value of one counter (0 on a disabled tracer); prefer
    /// [`Tracer::metrics`] for a full snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => lock(inner).counters[counter.index()],
        }
    }

    /// Aggregated snapshot of all counters and histograms.
    pub fn metrics(&self) -> MetricsReport {
        match &self.inner {
            None => MetricsReport::empty(),
            Some(inner) => {
                let s = lock(inner);
                MetricsReport::from_raw(&s.counters, &s.histograms)
            }
        }
    }

    /// `Some(metrics)` when enabled, `None` when disabled — the shape
    /// serving reports attach.
    pub fn metrics_opt(&self) -> Option<MetricsReport> {
        self.inner.as_ref().map(|_| self.metrics())
    }

    /// Serializes the buffered events as Chrome trace JSON (see
    /// [`crate::chrome`]), reading the buffer in place under the lock.
    pub fn chrome_trace_json(&self) -> String {
        match &self.inner {
            None => crate::chrome::to_chrome_json(&[]),
            Some(inner) => crate::chrome::to_chrome_json(&lock(inner).events),
        }
    }
}

fn secs_to_us(t: TimeSecs) -> f64 {
    let us = t.as_micros();
    if us.is_finite() && us > 0.0 {
        us
    } else {
        0.0
    }
}

fn secs_to_ns(t: TimeSecs) -> u64 {
    let ns = t.as_secs() * 1e9;
    if ns.is_finite() && ns > 0.0 {
        ns as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.count(Counter::ExpertHits, 5);
        t.observe(Metric::Request, TimeSecs::from_millis(1.0));
        t.span(Track::Coe, "x", TimeSecs::from_millis(1.0), &[]);
        t.instant(Track::Coe, "y", &[]);
        t.counter_sample(Track::Coe, "z", 1.0);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter(Counter::ExpertHits), 0);
        assert!(t.metrics_opt().is_none());
        assert!(!t.is_enabled());
    }

    #[test]
    fn spans_tile_the_track_cursor() {
        let t = Tracer::enabled();
        t.span(Track::Coe, "a", TimeSecs::from_micros(10.0), &[]);
        t.span(Track::Coe, "b", TimeSecs::from_micros(5.0), &[]);
        // A different track has its own cursor.
        t.span(Track::Memsim, "c", TimeSecs::from_micros(2.0), &[]);
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].ts_us, 0.0);
        assert_eq!(ev[1].ts_us, 10.0);
        assert_eq!(ev[2].ts_us, 0.0);
        assert!((t.cursor_us(Track::Coe) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.count(Counter::ExpertMisses, 2);
        t.count(Counter::ExpertMisses, 1);
        assert_eq!(t.counter(Counter::ExpertMisses), 3);
        assert_eq!(u.counter(Counter::ExpertMisses), 3);
    }

    #[test]
    fn cursor_only_moves_forward() {
        let t = Tracer::enabled();
        t.advance_cursor_us(Track::Runtime, 100.0);
        t.advance_cursor_us(Track::Runtime, 50.0);
        assert_eq!(t.cursor_us(Track::Runtime), 100.0);
    }

    #[test]
    fn metrics_snapshot_counters_and_histograms() {
        let t = Tracer::enabled();
        t.count(Counter::KernelLaunches, 7);
        t.observe(Metric::KernelRun, TimeSecs::from_micros(3.0));
        let m = t.metrics();
        assert_eq!(m.counter(Counter::KernelLaunches), 7);
        let h = m.histogram(Metric::KernelRun).expect("recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ns(), 3000);
    }
}
