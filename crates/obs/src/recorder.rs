//! The flight recorder: a bounded ring of recent serving events that
//! dumps a post-mortem bundle when an incident opens.
//!
//! The serving loop feeds the recorder a low-rate stream of notable
//! [`FlightEntry`]s (sheds, node crashes/restores, scale events, alert
//! transitions). When an incident opens — an alert fires or a chaos
//! fault window starts — the recorder snapshots the ring (the *lead-in*)
//! and keeps capturing for a fixed number of tail waves, then freezes
//! the whole window into a [`PostMortem`] together with the recent
//! metric samples of every series, so the bundle covers roughly the 60
//! waves around the trigger. One capture is open at a time; triggers
//! arriving mid-capture extend the tail instead of opening a second
//! bundle (they are recorded as entries, so nothing is lost).

use crate::registry::MetricRegistry;
use crate::series::{Sample, SeriesKey};
use sn_arch::TimeSecs;
use std::collections::VecDeque;

/// One notable event on the flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Wave index when the event happened.
    pub wave: usize,
    /// Sim-clock when the event happened.
    pub t: TimeSecs,
    /// Node the event concerns, when node-local.
    pub node: Option<usize>,
    /// Event kind (snake_case, e.g. `shed`, `node_crash`, `alert`).
    pub kind: String,
    /// Human-readable detail (tenant, reason, rule name, …).
    pub detail: String,
    /// Optional magnitude (count, latency, burn rate, …).
    pub value: f64,
}

/// A frozen post-mortem bundle: what happened around one incident.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// What opened the capture (e.g. `alert:slo_burn_batch`,
    /// `fault_window:socket_link`, `chaos_outage`).
    pub trigger: String,
    /// Wave at which the capture opened.
    pub opened_wave: usize,
    /// Sim-clock at which the capture opened.
    pub opened_at: TimeSecs,
    /// Wave at which the capture closed (tail exhausted or run ended).
    pub closed_wave: usize,
    /// Flight entries covering lead-in + tail, oldest first.
    pub entries: Vec<FlightEntry>,
    /// Recent raw samples per series at close time, sorted by key.
    pub series: Vec<(SeriesKey, Vec<Sample>)>,
}

impl PostMortem {
    /// First wave any evidence in the bundle covers (entries or series).
    pub fn first_wave(&self) -> usize {
        let entry_first = self.entries.first().map(|e| e.wave);
        let series_first = self
            .series
            .iter()
            .filter_map(|(_, s)| s.first().map(|x| x.wave))
            .min();
        match (entry_first, series_first) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.opened_wave,
        }
    }

    /// Last wave any evidence in the bundle covers.
    pub fn last_wave(&self) -> usize {
        let entry_last = self.entries.last().map(|e| e.wave);
        let series_last = self
            .series
            .iter()
            .filter_map(|(_, s)| s.last().map(|x| x.wave))
            .max();
        match (entry_last, series_last) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.closed_wave,
        }
    }

    /// Whether the bundle's evidence spans the given wave range.
    pub fn covers(&self, first: usize, last: usize) -> bool {
        self.first_wave() <= first && self.last_wave() >= last
    }
}

/// Sizing knobs for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity: how many recent entries the lead-in can hold.
    pub ring_capacity: usize,
    /// How many waves after a trigger the capture keeps recording.
    pub tail_waves: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 256,
            tail_waves: 30,
        }
    }
}

#[derive(Debug, Clone)]
struct OpenCapture {
    trigger: String,
    opened_wave: usize,
    opened_at: TimeSecs,
    entries: Vec<FlightEntry>,
    tail_left: usize,
}

/// The bounded ring plus capture state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    config: RecorderConfig,
    ring: VecDeque<FlightEntry>,
    open: Option<OpenCapture>,
    finished: Vec<PostMortem>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new(config: RecorderConfig) -> Self {
        FlightRecorder {
            config,
            ring: VecDeque::new(),
            open: None,
            finished: Vec::new(),
        }
    }

    /// Records one entry (always lands on the ring; also on the open
    /// capture, if any).
    pub fn record(&mut self, entry: FlightEntry) {
        if self.ring.len() == self.config.ring_capacity {
            self.ring.pop_front();
        }
        if let Some(open) = &mut self.open {
            open.entries.push(entry.clone());
        }
        self.ring.push_back(entry);
    }

    /// Opens a capture (or extends the open one's tail). The ring
    /// becomes the lead-in.
    pub fn incident(&mut self, trigger: &str, wave: usize, at: TimeSecs) {
        match &mut self.open {
            Some(open) => {
                // Mid-capture trigger: reset the tail so the bundle
                // stretches to cover the newest incident too.
                open.tail_left = self.config.tail_waves;
                open.entries.push(FlightEntry {
                    wave,
                    t: at,
                    node: None,
                    kind: "incident".to_string(),
                    detail: trigger.to_string(),
                    value: 0.0,
                });
            }
            None => {
                self.open = Some(OpenCapture {
                    trigger: trigger.to_string(),
                    opened_wave: wave,
                    opened_at: at,
                    entries: self.ring.iter().cloned().collect(),
                    tail_left: self.config.tail_waves,
                });
            }
        }
    }

    /// Ticks the capture state machine at a wave boundary; freezes the
    /// open capture into a [`PostMortem`] when its tail runs out.
    /// Returns whether a bundle was finalized this wave.
    pub fn end_wave(&mut self, wave: usize, registry: &MetricRegistry) -> bool {
        let exhausted = match &mut self.open {
            Some(open) => {
                open.tail_left = open.tail_left.saturating_sub(1);
                open.tail_left == 0
            }
            None => false,
        };
        if exhausted {
            self.finalize(wave, registry);
        }
        exhausted
    }

    /// Freezes the open capture (if any) — called on tail exhaustion and
    /// at end of run so an incident near the end still yields a bundle.
    pub fn finalize(&mut self, wave: usize, registry: &MetricRegistry) {
        let Some(open) = self.open.take() else {
            return;
        };
        let series: Vec<(SeriesKey, Vec<Sample>)> = registry
            .iter()
            .map(|(key, buf)| (key.clone(), buf.recent().copied().collect()))
            .collect();
        self.finished.push(PostMortem {
            trigger: open.trigger,
            opened_wave: open.opened_wave,
            opened_at: open.opened_at,
            closed_wave: wave,
            entries: open.entries,
            series,
        });
    }

    /// Whether a capture is currently open.
    pub fn is_capturing(&self) -> bool {
        self.open.is_some()
    }

    /// All frozen bundles, in incident order.
    pub fn postmortems(&self) -> &[PostMortem] {
        &self.finished
    }

    /// Consumes the recorder, returning the frozen bundles.
    pub fn into_postmortems(self) -> Vec<PostMortem> {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricRegistry, RegistryConfig};

    fn entry(wave: usize, kind: &str) -> FlightEntry {
        FlightEntry {
            wave,
            t: TimeSecs::from_millis(wave as f64),
            node: None,
            kind: kind.to_string(),
            detail: String::new(),
            value: 1.0,
        }
    }

    #[test]
    fn capture_includes_lead_in_and_tail() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            ring_capacity: 4,
            tail_waves: 3,
        });
        let reg = MetricRegistry::new(RegistryConfig::default());
        for w in 0..6 {
            rec.record(entry(w, "pre"));
        }
        rec.incident("alert:test", 6, TimeSecs::from_millis(6.0));
        assert!(rec.is_capturing());
        rec.record(entry(6, "during"));
        for w in 6..9 {
            let closed = rec.end_wave(w, &reg);
            assert_eq!(closed, w == 8, "tail of 3 closes on the third tick");
        }
        let pm = &rec.postmortems()[0];
        assert_eq!(pm.trigger, "alert:test");
        assert_eq!(pm.opened_wave, 6);
        assert_eq!(pm.closed_wave, 8);
        // Ring cap 4 -> lead-in is waves 2..=5, plus the during entry.
        let waves: Vec<usize> = pm.entries.iter().map(|e| e.wave).collect();
        assert_eq!(waves, vec![2, 3, 4, 5, 6]);
        assert_eq!(pm.first_wave(), 2);
        assert_eq!(pm.last_wave(), 6);
        assert!(pm.covers(3, 6));
        assert!(!pm.covers(1, 6));
        assert!(!rec.is_capturing());
    }

    #[test]
    fn mid_capture_trigger_extends_instead_of_forking() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            ring_capacity: 8,
            tail_waves: 2,
        });
        let reg = MetricRegistry::new(RegistryConfig::default());
        rec.incident("alert:a", 0, TimeSecs::ZERO);
        rec.end_wave(0, &reg); // tail 2 -> 1
        rec.incident("alert:b", 1, TimeSecs::from_millis(1.0)); // resets tail
        rec.end_wave(1, &reg);
        rec.end_wave(2, &reg);
        assert_eq!(rec.postmortems().len(), 1, "one bundle, not two");
        let pm = &rec.postmortems()[0];
        assert_eq!(pm.trigger, "alert:a");
        assert!(pm
            .entries
            .iter()
            .any(|e| e.kind == "incident" && e.detail == "alert:b"));
    }

    #[test]
    fn finalize_flushes_an_open_capture_at_end_of_run() {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        reg.gauge(SeriesKey::new("lat", &[]), 9.0);
        reg.sample(5, TimeSecs::from_millis(5.0));
        rec.incident("fault_window:link", 5, TimeSecs::from_millis(5.0));
        rec.finalize(6, &reg);
        assert_eq!(rec.postmortems().len(), 1);
        let pm = &rec.postmortems()[0];
        assert_eq!(pm.series.len(), 1);
        assert_eq!(pm.series[0].1.len(), 1);
        // Series evidence alone defines coverage.
        assert_eq!(pm.first_wave(), 5);
        // Finalize with nothing open is a no-op.
        rec.finalize(7, &reg);
        assert_eq!(rec.postmortems().len(), 1);
    }
}
