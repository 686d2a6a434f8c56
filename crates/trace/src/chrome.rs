//! Chrome trace event format writer.
//!
//! Serializes a tracer's event buffer into the JSON Object Format of the
//! Chrome Trace Event specification — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The vendored `serde`
//! is a marker stub, so the document is written through
//! [`JsonWriter`]; output is deterministic: fixed key order, events in
//! emission order, and `{:?}` (shortest-roundtrip) float formatting.
//!
//! Emitted phases:
//!
//! - `"M"` — process metadata naming each used [`Track`];
//! - `"X"` — complete (duration) events;
//! - `"i"` — instant markers;
//! - `"C"` — counter samples.

use crate::event::{ArgValue, EventKind, TraceEvent, Track};
use crate::json::JsonWriter;

/// Serializes events into a Chrome-trace JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// A process-name metadata record is emitted for every track that appears
/// in `events`, in [`Track::ALL`] order, before the events themselves.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::with_capacity(128 + events.len() * 128);
    w.raw("{\"traceEvents\":[");
    let mut used = [false; Track::ALL.len()];
    for e in events {
        used[e.track.index()] = true;
    }
    let mut first = true;
    for track in Track::ALL {
        if used[track.index()] {
            if !first {
                w.raw(",");
            }
            first = false;
            write_metadata(&mut w, track);
        }
    }
    for e in events {
        if !first {
            w.raw(",");
        }
        first = false;
        write_event(&mut w, e);
    }
    w.raw("],\"displayTimeUnit\":\"ms\"}");
    w.finish()
}

fn write_metadata(w: &mut JsonWriter, track: Track) {
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    w.u64(u64::from(track.pid()));
    w.raw(",\"tid\":0,\"args\":{\"name\":");
    w.str(track.name());
    w.raw("}}");
}

fn write_event(w: &mut JsonWriter, e: &TraceEvent) {
    w.raw("{\"name\":");
    w.str(&e.name);
    w.raw(match e.kind {
        EventKind::Complete { .. } => ",\"ph\":\"X\",\"pid\":",
        EventKind::Instant => ",\"ph\":\"i\",\"pid\":",
        EventKind::Counter { .. } => ",\"ph\":\"C\",\"pid\":",
    });
    w.u64(u64::from(e.track.pid()));
    w.raw(",\"tid\":");
    w.u64(u64::from(e.tid));
    w.raw(",\"ts\":");
    w.f64(e.ts_us);
    match e.kind {
        EventKind::Complete { dur_us } => {
            w.raw(",\"dur\":");
            w.f64(dur_us);
        }
        EventKind::Instant => {
            // Thread-scoped instant: renders as a marker on the tid lane.
            w.raw(",\"s\":\"t\"");
        }
        EventKind::Counter { .. } => {}
    }
    w.raw(",\"args\":{");
    match e.kind {
        EventKind::Counter { value } => {
            w.raw("\"value\":");
            w.f64(value);
        }
        _ => {
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    w.raw(",");
                }
                w.str(k);
                w.raw(":");
                write_arg(w, v);
            }
        }
    }
    w.raw("}}");
}

fn write_arg(w: &mut JsonWriter, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => w.u64(*n),
        ArgValue::F64(x) => w.f64(*x),
        ArgValue::Str(s) => w.str(s),
        ArgValue::Bool(b) => w.raw(if *b { "true" } else { "false" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid_shape() {
        let json = to_chrome_json(&[]);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn complete_event_has_phase_x_and_dur() {
        let e = TraceEvent {
            name: "kernel".into(),
            track: Track::Runtime,
            tid: 0,
            ts_us: 1.5,
            kind: EventKind::Complete { dur_us: 2.25 },
            args: vec![("launches", ArgValue::U64(3))],
        };
        let json = to_chrome_json(&[e]);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2.25"));
        assert!(json.contains("\"launches\":3"));
        // Metadata names the runtime process.
        assert!(json.contains("process_name"));
        assert!(json.contains("runtime (kernel launches)"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent {
            name: "a\"b\\c\n".into(),
            track: Track::Coe,
            tid: 0,
            ts_us: 0.0,
            kind: EventKind::Instant,
            args: vec![],
        };
        let json = to_chrome_json(&[e]);
        assert!(json.contains("a\\\"b\\\\c\\n"));
        assert!(json.contains("\"s\":\"t\""));
    }

    #[test]
    fn counter_event_carries_value() {
        let e = TraceEvent {
            name: "hbm_used".into(),
            track: Track::Memsim,
            tid: 0,
            ts_us: 0.0,
            kind: EventKind::Counter { value: 0.5 },
            args: vec![],
        };
        let json = to_chrome_json(&[e]);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":0.5"));
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let e = TraceEvent {
            name: "x".into(),
            track: Track::Coe,
            tid: 0,
            ts_us: f64::INFINITY,
            kind: EventKind::Counter { value: f64::NAN },
            args: vec![],
        };
        let json = to_chrome_json(&[e]);
        assert!(json.contains("\"ts\":0,\"args\":{\"value\":0}"));
    }

    /// Serializes one instant event with the given name and string arg,
    /// parses the document back, and returns the (name, arg) strings the
    /// parser saw.
    fn round_trip(name: &str, arg: &str) -> (String, String) {
        let e = TraceEvent {
            name: name.into(),
            track: Track::Coe,
            tid: 0,
            ts_us: 0.0,
            kind: EventKind::Instant,
            args: vec![("detail", ArgValue::Str(arg.into()))],
        };
        let doc = crate::json::parse(&to_chrome_json(&[e])).expect("writer emits valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let event = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .expect("instant event present");
        let parsed_name = event.get("name").and_then(|n| n.as_str()).unwrap();
        let parsed_arg = event
            .get("args")
            .and_then(|a| a.get("detail"))
            .and_then(|d| d.as_str())
            .unwrap();
        (parsed_name.to_string(), parsed_arg.to_string())
    }

    #[test]
    fn escaped_names_round_trip_through_the_parser() {
        for s in [
            "plain",
            "has \"double quotes\"",
            "back\\slash and \\\\ doubled",
            "tab\there, newline\nthere, return\rback",
            "control \u{01}\u{02}\u{1f} chars",
            "non-ASCII: naïve café 日本語 🚀",
            "mixed \"q\\u\\\"ote\" \n\t 終",
        ] {
            let (name, arg) = round_trip(s, s);
            assert_eq!(name, s, "event name must round-trip");
            assert_eq!(arg, s, "string arg must round-trip");
        }
    }

    #[test]
    fn counter_names_round_trip_through_the_parser() {
        let e = TraceEvent {
            name: "hbm \"used\" \\ fraction".into(),
            track: Track::Memsim,
            tid: 0,
            ts_us: 0.0,
            kind: EventKind::Counter { value: 0.25 },
            args: vec![],
        };
        let doc = crate::json::parse(&to_chrome_json(&[e])).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .expect("counter event present");
        assert_eq!(
            counter.get("name").and_then(|n| n.as_str()),
            Some("hbm \"used\" \\ fraction")
        );
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.25)
        );
    }
}
