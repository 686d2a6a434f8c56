//! JSON export of an [`ObsReport`].
//!
//! The vendored `serde` is a marker stub (see `sn-trace::chrome`), so the
//! document is written through `sn_trace::json::JsonWriter` with a fixed
//! key order, sorted series, and `{:?}` shortest-roundtrip float
//! formatting — byte-identical for identical reports, which is what the
//! `--jobs` parity tests diff. The document parses with
//! `sn_trace::json::parse`.

use crate::alert::AlertEvent;
use crate::recorder::{FlightEntry, PostMortem};
use crate::series::{LabelSet, MetricKind, Sample, SeriesBuffer, SeriesKey};
use crate::ObsReport;
use sn_arch::TimeSecs;
use sn_trace::json::JsonWriter;

/// Version tag stamped into every export (`"schema"` field).
pub const SCHEMA: &str = "sn-obs/v1";

/// Serializes a report as a standalone JSON document.
pub fn to_json(report: &ObsReport) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.raw("{\"schema\":");
    w.str(SCHEMA);
    w.raw(",\"waves\":");
    w.u64(report.waves as u64);
    w.raw(",\"series\":[");
    for (i, (key, buf)) in report.series.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_series(&mut w, key, buf);
    }
    w.raw("],\"alerts\":[");
    for (i, alert) in report.alerts.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_alert(&mut w, alert);
    }
    w.raw("],\"postmortems\":[");
    for (i, pm) in report.postmortems.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_postmortem(&mut w, pm);
    }
    w.raw("]}");
    w.finish()
}

fn write_series(w: &mut JsonWriter, key: &SeriesKey, buf: &SeriesBuffer) {
    w.raw("{\"name\":");
    w.str(&key.name);
    w.raw(",\"labels\":");
    write_labels(w, &key.labels);
    w.raw(",\"kind\":");
    w.str(match buf.kind() {
        MetricKind::Gauge => "gauge",
        MetricKind::Counter => "counter",
    });
    w.raw(",\"total_samples\":");
    w.u64(buf.total_samples());
    w.raw(",\"buckets\":[");
    for (i, b) in buf.buckets().iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{\"wave_first\":");
        w.u64(b.wave_first as u64);
        w.raw(",\"wave_last\":");
        w.u64(b.wave_last as u64);
        w.raw(",\"t_first\":");
        write_time(w, b.t_first);
        w.raw(",\"t_last\":");
        write_time(w, b.t_last);
        w.raw(",\"min\":");
        w.f64(b.min);
        w.raw(",\"max\":");
        w.f64(b.max);
        w.raw(",\"sum\":");
        w.f64(b.sum);
        w.raw(",\"count\":");
        w.u64(b.count);
        w.raw("}");
    }
    w.raw("],\"recent\":[");
    for (i, s) in buf.recent().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_sample(w, s);
    }
    w.raw("]}");
}

fn write_sample(w: &mut JsonWriter, s: &Sample) {
    w.raw("{\"wave\":");
    w.u64(s.wave as u64);
    w.raw(",\"t\":");
    write_time(w, s.t);
    w.raw(",\"value\":");
    w.f64(s.value);
    w.raw("}");
}

fn write_alert(w: &mut JsonWriter, a: &AlertEvent) {
    w.raw("{\"rule\":");
    w.str(&a.rule);
    w.raw(",\"labels\":");
    write_labels(w, &a.labels);
    w.raw(",\"kind\":");
    w.str(a.kind.name());
    w.raw(",\"wave\":");
    w.u64(a.wave as u64);
    w.raw(",\"at\":");
    write_time(w, a.at);
    w.raw(",\"value\":");
    w.f64(a.value);
    w.raw(",\"threshold\":");
    w.f64(a.threshold);
    w.raw("}");
}

fn write_postmortem(w: &mut JsonWriter, pm: &PostMortem) {
    w.raw("{\"trigger\":");
    w.str(&pm.trigger);
    w.raw(",\"opened_wave\":");
    w.u64(pm.opened_wave as u64);
    w.raw(",\"opened_at\":");
    write_time(w, pm.opened_at);
    w.raw(",\"closed_wave\":");
    w.u64(pm.closed_wave as u64);
    w.raw(",\"entries\":[");
    for (i, e) in pm.entries.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_entry(w, e);
    }
    w.raw("],\"series\":[");
    for (i, (key, samples)) in pm.series.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{\"name\":");
        w.str(&key.name);
        w.raw(",\"labels\":");
        write_labels(w, &key.labels);
        w.raw(",\"samples\":[");
        for (j, s) in samples.iter().enumerate() {
            if j > 0 {
                w.raw(",");
            }
            write_sample(w, s);
        }
        w.raw("]}");
    }
    w.raw("]}");
}

fn write_entry(w: &mut JsonWriter, e: &FlightEntry) {
    w.raw("{\"wave\":");
    w.u64(e.wave as u64);
    w.raw(",\"t\":");
    write_time(w, e.t);
    w.raw(",\"node\":");
    match e.node {
        Some(n) => w.u64(n as u64),
        None => w.raw("null"),
    }
    w.raw(",\"kind\":");
    w.str(&e.kind);
    w.raw(",\"detail\":");
    w.str(&e.detail);
    w.raw(",\"value\":");
    w.f64(e.value);
    w.raw("}");
}

fn write_labels(w: &mut JsonWriter, labels: &LabelSet) {
    w.raw("{");
    for (i, (k, v)) in labels.pairs().iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.str(k);
        w.raw(":");
        w.str(v);
    }
    w.raw("}");
}

fn write_time(w: &mut JsonWriter, t: TimeSecs) {
    w.f64(t.as_secs());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertKind;

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = ObsReport {
            waves: 0,
            series: Vec::new(),
            alerts: Vec::new(),
            postmortems: Vec::new(),
        };
        let json = to_json(&report);
        assert!(json.starts_with("{\"schema\":\"sn-obs/v1\""));
        assert!(json.contains("\"series\":[]"));
        assert!(json.contains("\"alerts\":[]"));
        assert!(json.ends_with("\"postmortems\":[]}"));
    }

    #[test]
    fn strings_are_escaped() {
        let report = ObsReport {
            waves: 1,
            series: Vec::new(),
            alerts: vec![AlertEvent {
                rule: "has \"quotes\" and \\slash\n".to_string(),
                labels: LabelSet::from_pairs(&[("tenant", "naïve")]),
                kind: AlertKind::Firing,
                wave: 0,
                at: TimeSecs::ZERO,
                value: 1.5,
                threshold: 1.0,
            }],
            postmortems: Vec::new(),
        };
        let json = to_json(&report);
        assert!(json.contains("has \\\"quotes\\\" and \\\\slash\\n"));
        assert!(json.contains("naïve"), "non-ASCII passes through raw");
    }
}
