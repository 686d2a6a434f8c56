//! Differential suite for the shared JSON writer
//! (`sn_trace::json::JsonWriter`) and the batched observability counters.
//!
//! The three `format!`-based writers it replaced — the Chrome trace
//! export, the `sn-obs` export, and the bench snapshot — are kept below
//! verbatim as reference models. Generated trace event lists, obs
//! reports, and snapshots (random float bit patterns, signed zeros, NaN,
//! infinities, subnormals, integers around 1e15–1e16, strings with
//! quotes, backslashes, control characters, and non-ASCII text) must
//! serialize byte-for-byte the same through both, and every document
//! must parse back with `sn_trace::json::parse`. A second part serves
//! generated chaos scenarios blind and observed: the pipeline (with
//! per-wave counter batching) must not change the serving report, and
//! must export the same bytes on every run.

mod common;

use common::topology::ClusterTopology;
use common::{check_cases, CaseRng};
use samba_coe::coe::scheduler::ArrivalPattern;
use samba_coe::coe::{ClassPolicy, RateLimit, SloClass, TenancyConfig, TenancyReport, TenantSpec};
use samba_coe::faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_arch::TimeSecs;
use sn_obs::{
    AlertCondition, AlertEvent, AlertKind, AlertRule, FlightEntry, LabelSet, MetricKind, Obs,
    ObsConfig, ObsReport, PostMortem, RecorderConfig, RegistryConfig, Sample, SeriesBuffer,
    SeriesKey,
};
use sn_profile::snapshot::BenchSnapshot;
use sn_trace::json::{self, JsonValue, JsonWriter};
use sn_trace::{ArgValue, EventKind, TraceEvent, Track};

const CASES: usize = 200;
const JOBS: usize = 2;

/// The `format!`-based Chrome trace writer the shared `JsonWriter`
/// replaced, kept verbatim.
mod reference_chrome {
    use sn_trace::{ArgValue, EventKind, TraceEvent, Track};

    /// Serializes events into a Chrome-trace JSON document
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
    ///
    /// A process-name metadata record is emitted for every track that appears
    /// in `events`, in [`Track::ALL`] order, before the events themselves.
    pub fn to_chrome_json(events: &[TraceEvent]) -> String {
        let mut out = String::with_capacity(128 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for track in Track::ALL {
            if events.iter().any(|e| e.track == track) {
                if !first {
                    out.push(',');
                }
                first = false;
                write_metadata(&mut out, track);
            }
        }
        for e in events {
            if !first {
                out.push(',');
            }
            first = false;
            write_event(&mut out, e);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    fn write_metadata(out: &mut String, track: Track) {
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        out.push_str(&track.pid().to_string());
        out.push_str(",\"tid\":0,\"args\":{\"name\":");
        write_json_string(out, track.name());
        out.push_str("}}");
    }

    fn write_event(out: &mut String, e: &TraceEvent) {
        out.push_str("{\"name\":");
        write_json_string(out, &e.name);
        let ph = match e.kind {
            EventKind::Complete { .. } => "X",
            EventKind::Instant => "i",
            EventKind::Counter { .. } => "C",
        };
        out.push_str(",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"pid\":");
        out.push_str(&e.track.pid().to_string());
        out.push_str(",\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        write_f64(out, e.ts_us);
        match e.kind {
            EventKind::Complete { dur_us } => {
                out.push_str(",\"dur\":");
                write_f64(out, dur_us);
            }
            EventKind::Instant => {
                // Thread-scoped instant: renders as a marker on the tid lane.
                out.push_str(",\"s\":\"t\"");
            }
            EventKind::Counter { .. } => {}
        }
        out.push_str(",\"args\":{");
        match e.kind {
            EventKind::Counter { value } => {
                out.push_str("\"value\":");
                write_f64(out, value);
            }
            _ => {
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    write_arg(out, v);
                }
            }
        }
        out.push_str("}}");
    }

    fn write_arg(out: &mut String, v: &ArgValue) {
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::F64(x) => write_f64(out, *x),
            ArgValue::Str(s) => write_json_string(out, s),
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Writes a finite float using Rust's shortest-roundtrip `{:?}` formatting
    /// (deterministic across runs); non-finite values degrade to 0.
    fn write_f64(out: &mut String, x: f64) {
        if x.is_finite() {
            out.push_str(&format!("{x:?}"));
        } else {
            out.push('0');
        }
    }

    /// Escapes and quotes a string per JSON rules.
    fn write_json_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// The `format!`-based `sn-obs` export the shared `JsonWriter` replaced,
/// kept verbatim.
mod reference_obs {
    use sn_arch::TimeSecs;
    use sn_obs::{AlertEvent, FlightEntry, LabelSet, MetricKind, ObsReport, PostMortem};
    use sn_obs::{Sample, SeriesBuffer, SeriesKey};

    const SCHEMA: &str = sn_obs::export::SCHEMA;

    /// Serializes a report as a standalone JSON document.
    pub fn to_json(report: &ObsReport) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        write_json_string(&mut out, SCHEMA);
        out.push_str(",\"waves\":");
        out.push_str(&report.waves.to_string());
        out.push_str(",\"series\":[");
        for (i, (key, buf)) in report.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_series(&mut out, key, buf);
        }
        out.push_str("],\"alerts\":[");
        for (i, alert) in report.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_alert(&mut out, alert);
        }
        out.push_str("],\"postmortems\":[");
        for (i, pm) in report.postmortems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_postmortem(&mut out, pm);
        }
        out.push_str("]}");
        out
    }

    fn write_series(out: &mut String, key: &SeriesKey, buf: &SeriesBuffer) {
        out.push_str("{\"name\":");
        write_json_string(out, &key.name);
        out.push_str(",\"labels\":");
        write_labels(out, &key.labels);
        out.push_str(",\"kind\":");
        write_json_string(
            out,
            match buf.kind() {
                MetricKind::Gauge => "gauge",
                MetricKind::Counter => "counter",
            },
        );
        out.push_str(",\"total_samples\":");
        out.push_str(&buf.total_samples().to_string());
        out.push_str(",\"buckets\":[");
        for (i, b) in buf.buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"wave_first\":");
            out.push_str(&b.wave_first.to_string());
            out.push_str(",\"wave_last\":");
            out.push_str(&b.wave_last.to_string());
            out.push_str(",\"t_first\":");
            write_time(out, b.t_first);
            out.push_str(",\"t_last\":");
            write_time(out, b.t_last);
            out.push_str(",\"min\":");
            write_f64(out, b.min);
            out.push_str(",\"max\":");
            write_f64(out, b.max);
            out.push_str(",\"sum\":");
            write_f64(out, b.sum);
            out.push_str(",\"count\":");
            out.push_str(&b.count.to_string());
            out.push('}');
        }
        out.push_str("],\"recent\":[");
        for (i, s) in buf.recent().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_sample(out, s);
        }
        out.push_str("]}");
    }

    fn write_sample(out: &mut String, s: &Sample) {
        out.push_str("{\"wave\":");
        out.push_str(&s.wave.to_string());
        out.push_str(",\"t\":");
        write_time(out, s.t);
        out.push_str(",\"value\":");
        write_f64(out, s.value);
        out.push('}');
    }

    fn write_alert(out: &mut String, a: &AlertEvent) {
        out.push_str("{\"rule\":");
        write_json_string(out, &a.rule);
        out.push_str(",\"labels\":");
        write_labels(out, &a.labels);
        out.push_str(",\"kind\":");
        write_json_string(out, a.kind.name());
        out.push_str(",\"wave\":");
        out.push_str(&a.wave.to_string());
        out.push_str(",\"at\":");
        write_time(out, a.at);
        out.push_str(",\"value\":");
        write_f64(out, a.value);
        out.push_str(",\"threshold\":");
        write_f64(out, a.threshold);
        out.push('}');
    }

    fn write_postmortem(out: &mut String, pm: &PostMortem) {
        out.push_str("{\"trigger\":");
        write_json_string(out, &pm.trigger);
        out.push_str(",\"opened_wave\":");
        out.push_str(&pm.opened_wave.to_string());
        out.push_str(",\"opened_at\":");
        write_time(out, pm.opened_at);
        out.push_str(",\"closed_wave\":");
        out.push_str(&pm.closed_wave.to_string());
        out.push_str(",\"entries\":[");
        for (i, e) in pm.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_entry(out, e);
        }
        out.push_str("],\"series\":[");
        for (i, (key, samples)) in pm.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(out, &key.name);
            out.push_str(",\"labels\":");
            write_labels(out, &key.labels);
            out.push_str(",\"samples\":[");
            for (j, s) in samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_sample(out, s);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }

    fn write_entry(out: &mut String, e: &FlightEntry) {
        out.push_str("{\"wave\":");
        out.push_str(&e.wave.to_string());
        out.push_str(",\"t\":");
        write_time(out, e.t);
        out.push_str(",\"node\":");
        match e.node {
            Some(n) => out.push_str(&n.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"kind\":");
        write_json_string(out, &e.kind);
        out.push_str(",\"detail\":");
        write_json_string(out, &e.detail);
        out.push_str(",\"value\":");
        write_f64(out, e.value);
        out.push('}');
    }

    fn write_labels(out: &mut String, labels: &LabelSet) {
        out.push('{');
        for (i, (k, v)) in labels.pairs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, k);
            out.push(':');
            write_json_string(out, v);
        }
        out.push('}');
    }

    fn write_time(out: &mut String, t: TimeSecs) {
        write_f64(out, t.as_secs());
    }

    /// Writes a finite float using shortest-roundtrip `{:?}` formatting;
    /// non-finite values degrade to 0 (mirrors `sn-trace::chrome`).
    fn write_f64(out: &mut String, x: f64) {
        if x.is_finite() {
            out.push_str(&format!("{x:?}"));
        } else {
            out.push('0');
        }
    }

    /// Escapes and quotes a string for JSON (mirrors `sn-trace::chrome`).
    fn write_json_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// The `format!`-based bench-snapshot writer the shared `JsonWriter`
/// replaced, kept verbatim (as a free function over the snapshot).
mod reference_snapshot {
    use sn_profile::snapshot::{BenchSnapshot, MetricValue, SCHEMA};

    /// Serializes to the `sn-bench-snapshot-v1` JSON document. Output is
    /// deterministic: same snapshot, byte-identical JSON.
    pub fn to_json(snap: &BenchSnapshot) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", escape(SCHEMA)));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in snap.metrics.iter().enumerate() {
            let value = match &m.value {
                MetricValue::Num(n) => fmt_num(*n),
                MetricValue::Text(s) => escape(s),
            };
            out.push_str(&format!(
                "    {{\"key\": {}, \"value\": {}, \"unit\": {}, \"tolerance\": {}}}{}\n",
                escape(&m.key),
                value,
                escape(&m.unit),
                fmt_num(m.tolerance),
                if i + 1 == snap.metrics.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"info\": [\n");
        for (i, (k, v)) in snap.info.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"key\": {}, \"value\": {}}}{}\n",
                escape(k),
                escape(v),
                if i + 1 == snap.info.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Shortest-roundtrip float formatting, matching the tracer's JSON
    /// writers: `{:?}` on f64, with non-finite values written as 0.
    fn fmt_num(n: f64) -> String {
        if n.is_finite() {
            format!("{n:?}")
        } else {
            "0".to_string()
        }
    }

    /// JSON string escaping (quotes, backslash, control characters).
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Draws floats that stress the writer: random bit patterns (NaN and
/// infinities included), the special values, subnormals, integral values
/// on both sides of the 1e16 exponent switch, ordinary decimals, and —
/// half the time — a repeat of an earlier draw, so the float memo is hit.
struct FloatGen {
    seen: Vec<f64>,
}

impl FloatGen {
    fn new() -> Self {
        FloatGen { seen: Vec::new() }
    }

    fn draw(&mut self, rng: &mut CaseRng) -> f64 {
        if !self.seen.is_empty() && rng.f64() < 0.5 {
            return self.seen[rng.usize_in(0, self.seen.len())];
        }
        let sign = if rng.f64() < 0.5 { -1.0 } else { 1.0 };
        let x = match rng.usize_in(0, 8) {
            0 => f64::from_bits(rng.next_u64()),
            1 => [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::EPSILON,
            ][rng.usize_in(0, 9)],
            // Subnormal: zero exponent, random mantissa.
            2 => sign * f64::from_bits(rng.next_u64() & ((1 << 52) - 1)),
            // Integral, 1e15 to just past 1e16.
            3 => sign * (1e15 + rng.f64() * 9.2e15).floor(),
            // Integral, straddling the 1e16 switch to exponent form.
            4 => sign * (1e16 + (rng.usize_in(0, 64) as f64 - 32.0) * 2.0),
            5 => sign * rng.usize_in(0, 100_000) as f64,
            6 => sign * rng.f64() * 1e3,
            _ => (rng.usize_in(0, 4096) as f64) * 1e-6,
        };
        self.seen.push(x);
        x
    }
}

/// Strings built from fragments that need escaping and fragments that
/// do not, non-ASCII included.
fn draw_string(rng: &mut CaseRng) -> String {
    const FRAGMENTS: [&str; 18] = [
        "a",
        "tenant",
        "slo_burn:",
        " ",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "/",
        "naïve",
        "日本語",
        "🚀",
        "\\\"",
        "",
    ];
    let n = rng.usize_in(0, 6);
    (0..n)
        .map(|_| FRAGMENTS[rng.usize_in(0, FRAGMENTS.len())])
        .collect()
}

fn draw_u64(rng: &mut CaseRng) -> u64 {
    match rng.usize_in(0, 4) {
        0 => rng.next_u64(),
        1 => [0, 1, 9, 10, u64::MAX][rng.usize_in(0, 5)],
        _ => rng.usize_in(0, 10_000) as u64,
    }
}

fn draw_events(rng: &mut CaseRng) -> Vec<TraceEvent> {
    const ARG_KEYS: [&str; 5] = ["bytes", "hit", "q\"uote", "back\\slash", "ключ\t"];
    let mut floats = FloatGen::new();
    let n = rng.usize_in(0, 40);
    (0..n)
        .map(|_| {
            let kind = match rng.usize_in(0, 3) {
                0 => EventKind::Complete {
                    dur_us: floats.draw(rng),
                },
                1 => EventKind::Instant,
                _ => EventKind::Counter {
                    value: floats.draw(rng),
                },
            };
            let args = (0..rng.usize_in(0, 4))
                .map(|_| {
                    let key = ARG_KEYS[rng.usize_in(0, ARG_KEYS.len())];
                    let value = match rng.usize_in(0, 4) {
                        0 => ArgValue::U64(draw_u64(rng)),
                        1 => ArgValue::F64(floats.draw(rng)),
                        2 => ArgValue::Str(draw_string(rng)),
                        _ => ArgValue::Bool(rng.f64() < 0.5),
                    };
                    (key, value)
                })
                .collect();
            TraceEvent {
                name: draw_string(rng),
                track: Track::ALL[rng.usize_in(0, Track::ALL.len())],
                tid: draw_u64(rng) as u32,
                ts_us: floats.draw(rng),
                kind,
                args,
            }
        })
        .collect()
}

fn draw_labels(rng: &mut CaseRng) -> LabelSet {
    let pairs: Vec<(String, String)> = (0..rng.usize_in(0, 3))
        .map(|_| (draw_string(rng), draw_string(rng)))
        .collect();
    let borrowed: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    LabelSet::from_pairs(&borrowed)
}

fn draw_key(rng: &mut CaseRng) -> SeriesKey {
    SeriesKey {
        name: draw_string(rng),
        labels: draw_labels(rng),
    }
}

fn draw_samples(rng: &mut CaseRng, floats: &mut FloatGen, n: usize) -> Vec<Sample> {
    (0..n)
        .map(|wave| Sample {
            wave,
            t: TimeSecs::from_secs(floats.draw(rng)),
            value: floats.draw(rng),
        })
        .collect()
}

fn draw_report(rng: &mut CaseRng) -> ObsReport {
    let mut floats = FloatGen::new();
    let series = (0..rng.usize_in(0, 6))
        .map(|_| {
            let kind = if rng.f64() < 0.5 {
                MetricKind::Gauge
            } else {
                MetricKind::Counter
            };
            // Small capacities so compaction merges buckets.
            let mut buf = SeriesBuffer::new(kind, rng.usize_in(2, 8), rng.usize_in(2, 8));
            let n = rng.usize_in(0, 20);
            for s in draw_samples(rng, &mut floats, n) {
                buf.push(s);
            }
            (draw_key(rng), buf)
        })
        .collect();
    let alerts = (0..rng.usize_in(0, 4))
        .map(|_| AlertEvent {
            rule: draw_string(rng),
            labels: draw_labels(rng),
            kind: if rng.f64() < 0.5 {
                AlertKind::Firing
            } else {
                AlertKind::Resolved
            },
            wave: draw_u64(rng) as usize,
            at: TimeSecs::from_secs(floats.draw(rng)),
            value: floats.draw(rng),
            threshold: floats.draw(rng),
        })
        .collect();
    let postmortems = (0..rng.usize_in(0, 3))
        .map(|_| PostMortem {
            trigger: draw_string(rng),
            opened_wave: rng.usize_in(0, 1000),
            opened_at: TimeSecs::from_secs(floats.draw(rng)),
            closed_wave: rng.usize_in(0, 1000),
            entries: (0..rng.usize_in(0, 4))
                .map(|_| FlightEntry {
                    wave: rng.usize_in(0, 1000),
                    t: TimeSecs::from_secs(floats.draw(rng)),
                    node: (rng.f64() < 0.5).then(|| rng.usize_in(0, 16)),
                    kind: draw_string(rng),
                    detail: draw_string(rng),
                    value: floats.draw(rng),
                })
                .collect(),
            series: (0..rng.usize_in(0, 3))
                .map(|_| {
                    let n = rng.usize_in(0, 5);
                    (draw_key(rng), draw_samples(rng, &mut floats, n))
                })
                .collect(),
        })
        .collect();
    ObsReport {
        waves: draw_u64(rng) as usize,
        series,
        alerts,
        postmortems,
    }
}

fn draw_snapshot(rng: &mut CaseRng) -> BenchSnapshot {
    let mut floats = FloatGen::new();
    let mut snap = BenchSnapshot::new();
    for _ in 0..rng.usize_in(0, 12) {
        let key = draw_string(rng);
        if rng.f64() < 0.25 {
            snap.push_text(&key, &draw_string(rng));
        } else {
            let unit = draw_string(rng);
            snap.push_num(&key, floats.draw(rng), &unit, floats.draw(rng));
        }
    }
    for _ in 0..rng.usize_in(0, 4) {
        snap.push_info(&draw_string(rng), &draw_string(rng));
    }
    snap
}

/// Halves of a list, for the shrink loop.
fn halves<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    if v.is_empty() {
        return Vec::new();
    }
    let mid = v.len() / 2;
    vec![v[..mid].to_vec(), v[mid..].to_vec()]
}

/// What a written float reads back as: non-finite values are written as 0.
fn as_written(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Bitwise float equality after the writer's non-finite mapping, so a
/// lost `-0.0` sign counts as a mismatch.
fn same_float(parsed: Option<f64>, original: f64) -> bool {
    parsed.map(f64::to_bits) == Some(as_written(original).to_bits())
}

// ---------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------

fn check_chrome(events: &[TraceEvent]) -> Result<(), String> {
    let fast = sn_trace::chrome::to_chrome_json(events);
    let reference = reference_chrome::to_chrome_json(events);
    if fast != reference {
        return Err(format!(
            "chrome export differs:\n  writer:    {fast}\n  reference: {reference}"
        ));
    }
    let doc = json::parse(&fast).map_err(|e| format!("chrome export does not parse: {e}"))?;
    let parsed = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("no traceEvents array")?;
    let metadata = parsed.len() - events.len();
    for (e, p) in events.iter().zip(&parsed[metadata..]) {
        if p.get("name").and_then(JsonValue::as_str) != Some(e.name.as_str()) {
            return Err(format!("name {:?} did not round-trip", e.name));
        }
        if !same_float(p.get("ts").and_then(JsonValue::as_f64), e.ts_us) {
            return Err(format!("ts {:?} did not round-trip", e.ts_us));
        }
    }
    Ok(())
}

fn check_obs(report: &ObsReport) -> Result<(), String> {
    let fast = sn_obs::export::to_json(report);
    let reference = reference_obs::to_json(report);
    if fast != reference {
        return Err(format!(
            "obs export differs:\n  writer:    {fast}\n  reference: {reference}"
        ));
    }
    let doc = json::parse(&fast).map_err(|e| format!("obs export does not parse: {e}"))?;
    let series = doc
        .get("series")
        .and_then(JsonValue::as_array)
        .ok_or("no series array")?;
    if series.len() != report.series.len() {
        return Err(format!("{} series parsed back", series.len()));
    }
    for ((key, buf), p) in report.series.iter().zip(series) {
        if p.get("name").and_then(JsonValue::as_str) != Some(key.name.as_str()) {
            return Err(format!("series name {:?} did not round-trip", key.name));
        }
        let Some(JsonValue::Object(labels)) = p.get("labels") else {
            return Err("labels are not an object".into());
        };
        let parsed: Vec<(&str, Option<&str>)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let written: Vec<(&str, Option<&str>)> = key
            .labels
            .pairs()
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .collect();
        if parsed != written {
            return Err(format!("labels {written:?} parsed back as {parsed:?}"));
        }
        let recent = p
            .get("recent")
            .and_then(JsonValue::as_array)
            .ok_or("no recent array")?;
        for (s, ps) in buf.recent().zip(recent) {
            if !same_float(ps.get("value").and_then(JsonValue::as_f64), s.value)
                || !same_float(ps.get("t").and_then(JsonValue::as_f64), s.t.as_secs())
            {
                return Err(format!("sample {s:?} did not round-trip"));
            }
        }
    }
    Ok(())
}

fn check_snapshot(snap: &BenchSnapshot) -> Result<(), String> {
    let fast = snap.to_json();
    let reference = reference_snapshot::to_json(snap);
    if fast != reference {
        return Err(format!(
            "snapshot differs:\n  writer:    {fast}\n  reference: {reference}"
        ));
    }
    let parsed =
        BenchSnapshot::from_json(&fast).map_err(|e| format!("snapshot does not parse: {e}"))?;
    // Serialize → parse → serialize is a fixpoint once non-finite values
    // have become 0.
    let mut expected = snap.clone();
    for m in &mut expected.metrics {
        if let sn_profile::snapshot::MetricValue::Num(n) = &mut m.value {
            *n = as_written(*n);
        }
        m.tolerance = as_written(m.tolerance);
    }
    if parsed.to_json() != expected.to_json() {
        return Err("snapshot did not round-trip".into());
    }
    Ok(())
}

const CHROME_SEED: u64 = 0x0c41_0e5e;
const OBSERVED_SEED: u64 = 0x0b5e_b11d;
const OBSERVED_CASES: usize = 40;

#[test]
fn chrome_export_matches_the_reference_writer() {
    check_cases(
        "chrome export",
        CASES,
        CHROME_SEED,
        JOBS,
        draw_events,
        |events| halves(events),
        || (),
        |(), events| check_chrome(events),
    );
}

#[test]
fn obs_export_matches_the_reference_writer() {
    check_cases(
        "obs export",
        CASES,
        0x0b5e_4e11,
        JOBS,
        draw_report,
        |report| {
            let mut out = Vec::new();
            for series in halves(&report.series) {
                out.push(ObsReport {
                    series,
                    ..report.clone()
                });
            }
            for alerts in halves(&report.alerts) {
                out.push(ObsReport {
                    alerts,
                    ..report.clone()
                });
            }
            for postmortems in halves(&report.postmortems) {
                out.push(ObsReport {
                    postmortems,
                    ..report.clone()
                });
            }
            out
        },
        || (),
        |(), report| check_obs(report),
    );
}

#[test]
fn bench_snapshot_matches_the_reference_writer() {
    check_cases(
        "bench snapshot",
        CASES,
        0x5a4b_5407,
        JOBS,
        draw_snapshot,
        |snap| {
            let mut out = Vec::new();
            for metrics in halves(&snap.metrics) {
                out.push(BenchSnapshot {
                    metrics,
                    info: snap.info.clone(),
                });
            }
            for info in halves(&snap.info) {
                out.push(BenchSnapshot {
                    metrics: snap.metrics.clone(),
                    info,
                });
            }
            out
        },
        || (),
        |(), snap| check_snapshot(snap),
    );
}

/// `JsonWriter::f64` against `format!("{x:?}")` over 2^20 random finite
/// bit patterns plus random integral values below and around 1e16. Each
/// batch is written twice into one writer, so the second pass copies
/// every non-integral value from the memo.
#[test]
fn writer_floats_match_debug_formatting_over_random_bit_patterns() {
    const BATCHES: usize = 1024;
    const PER_BATCH: usize = 1024;
    let batch = |b: usize| {
        let mut rng = CaseRng::new(0xf10a7 + b as u64);
        let values: Vec<f64> = (0..PER_BATCH)
            .map(|i| {
                if i % 8 == 7 {
                    // Integral, up to just past the 1e16 switch.
                    let x = (rng.next_u64() % 10_000_000_000_000_100) as f64;
                    if rng.f64() < 0.5 {
                        -x
                    } else {
                        x
                    }
                } else {
                    loop {
                        let x = f64::from_bits(rng.next_u64());
                        if x.is_finite() {
                            break x;
                        }
                    }
                }
            })
            .collect();
        let mut w = JsonWriter::default();
        let mut expected = String::new();
        for _ in 0..2 {
            for &x in &values {
                w.f64(x);
                w.raw(",");
                expected.push_str(&format!("{x:?},"));
            }
        }
        let written = w.finish();
        if written == expected {
            return None;
        }
        let first_bad = values
            .iter()
            .find(|x| {
                let mut one = JsonWriter::default();
                one.f64(**x);
                one.finish() != format!("{x:?}")
            })
            .copied();
        Some(format!("batch {b}: first mismatch at {first_bad:?}"))
    };
    let batches: Vec<usize> = (0..BATCHES).collect();
    let failures = sn_bench::par::ordered_map(JOBS, &batches, |_, &b| batch(b));
    let failures: Vec<String> = failures.into_iter().flatten().collect();
    assert!(failures.is_empty(), "{failures:?}");
}

// ---------------------------------------------------------------------
// Observed ≡ blind
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ObservedCase {
    topology: ClusterTopology,
    seed: u64,
    requests: [usize; 3],
    interactive_deadline_ms: f64,
    /// Nodes taken down (the first `n`), start, and optional restore.
    outage: Option<(usize, f64, Option<f64>)>,
    fabric_fault: bool,
}

fn draw_observed_case(rng: &mut CaseRng) -> ObservedCase {
    ObservedCase {
        topology: ClusterTopology::generate(rng),
        seed: rng.next_u64(),
        requests: [
            rng.usize_in(0, 40),
            rng.usize_in(0, 40),
            rng.usize_in(0, 30),
        ],
        interactive_deadline_ms: 5.0 + rng.f64() * 300.0,
        outage: (rng.f64() < 0.7).then(|| {
            let start = rng.f64() * 0.1;
            if rng.f64() < 0.25 {
                // Every node, for good: the rest of the run sheds as lost
                // capacity.
                (usize::MAX, start, None)
            } else {
                let end = (rng.f64() < 0.8).then(|| start + 0.05 + rng.f64() * 0.3);
                (1, start, end)
            }
        }),
        fabric_fault: rng.f64() < 0.5,
    }
}

fn shrink_observed_case(case: &ObservedCase) -> Vec<ObservedCase> {
    let mut out: Vec<ObservedCase> = case
        .topology
        .shrink()
        .into_iter()
        .map(|topology| ObservedCase {
            topology,
            ..case.clone()
        })
        .collect();
    for i in 0..case.requests.len() {
        if case.requests[i] > 0 {
            let mut c = case.clone();
            c.requests[i] /= 2;
            out.push(c);
        }
    }
    if case.outage.is_some() {
        out.push(ObservedCase {
            outage: None,
            ..case.clone()
        });
    }
    if case.fabric_fault {
        out.push(ObservedCase {
            fabric_fault: false,
            ..case.clone()
        });
    }
    out
}

fn observed_tenants(case: &ObservedCase) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "chat \"steady\"".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 200.0 },
            requests: case.requests[0],
            rate_limit: RateLimit::per_sec(60.0, 6.0),
        },
        TenantSpec {
            name: "chat-bursty".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Burst,
            requests: case.requests[1],
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "lab".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests: case.requests[2],
            rate_limit: RateLimit::unlimited(),
        },
    ]
}

/// Tight burn-rate rules (one per tenant) so generated runs fire and
/// resolve alerts and open post-mortem captures.
fn observed_config(tenants: &[TenantSpec]) -> ObsConfig {
    let rules = tenants
        .iter()
        .map(|t| {
            let labels = [("slo_class", t.class.name()), ("tenant", t.name.as_str())];
            AlertRule {
                name: format!("slo_burn:{}", t.name),
                labels: LabelSet::from_pairs(&labels),
                condition: AlertCondition::BurnRate {
                    bad: SeriesKey::new("slo_bad", &labels),
                    total: SeriesKey::new("slo_total", &labels),
                    budget: 0.05,
                    fast_window: 2,
                    slow_window: 6,
                    factor: 2.0,
                },
            }
        })
        .collect();
    ObsConfig {
        registry: RegistryConfig {
            ring_capacity: 16,
            recent_capacity: 8,
        },
        recorder: RecorderConfig {
            ring_capacity: 32,
            tail_waves: 3,
        },
        rules,
    }
}

fn serve_observed(case: &ObservedCase, obs: &Obs) -> Result<TenancyReport, String> {
    let mut cluster = case.topology.build();
    let config = TenancyConfig {
        seed: case.seed,
        prompt_tokens: case.topology.prompt_tokens,
        wave_tokens: 8,
        per_node_slots: 2,
        interactive: ClassPolicy {
            queue_cap: 16,
            deadline: TimeSecs::from_millis(case.interactive_deadline_ms),
            slo_bound: TimeSecs::from_millis(100.0),
            chunks: 1,
        },
        batch: ClassPolicy {
            queue_cap: 12,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(2.0),
            chunks: 3,
        },
        max_waves: 10_000,
    };
    let mut chaos = ChaosSchedule::new(case.seed);
    if let Some((nodes, start, end)) = case.outage {
        let down: Vec<usize> = (0..case.topology.total_nodes().min(nodes)).collect();
        chaos = chaos.with_outage(
            &down,
            TimeSecs::from_secs(start),
            end.map(TimeSecs::from_secs),
        );
    }
    if case.fabric_fault {
        chaos = chaos.with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.2,
                slow_rate: 0.3,
                slow_factor: 1.5,
            },
            TimeSecs::ZERO,
            TimeSecs::from_secs(0.2),
        );
    }
    cluster
        .serve_tenants_observed(
            &observed_tenants(case),
            &config,
            Some(&chaos),
            None,
            None,
            obs,
        )
        .map_err(|e| format!("serve failed: {e:?}"))
}

/// Sum of a counter series over the whole run (the ring's buckets
/// cover every sample).
fn series_total(report: &ObsReport, name: &str, labels: &[(&str, &str)]) -> f64 {
    report
        .series_buffer(&SeriesKey::new(name, labels))
        .map(|b| b.buckets().iter().map(|b| b.sum).sum())
        .unwrap_or(0.0)
}

fn check_observed(case: &ObservedCase) -> Result<(), String> {
    let tenants = observed_tenants(case);
    let blind = serve_observed(case, &Obs::disabled())?;
    let export = |obs: &Obs| -> Result<(TenancyReport, ObsReport), String> {
        let report = serve_observed(case, obs)?;
        Ok((report, obs.finalize().ok_or("enabled pipeline")?))
    };
    let (observed, frozen) = export(&Obs::enabled(observed_config(&tenants)))?;
    if observed != blind {
        return Err("observed serving report differs from the blind one".into());
    }
    let (_, again) = export(&Obs::enabled(observed_config(&tenants)))?;
    if frozen.to_json() != again.to_json() {
        return Err("a second observed run exported different bytes".into());
    }
    // The batched counters still count every outcome exactly once.
    for (t, spec) in tenants.iter().enumerate() {
        let labels = [
            ("slo_class", spec.class.name()),
            ("tenant", spec.name.as_str()),
        ];
        let records = || blind.records.iter().filter(|r| r.tenant == t);
        let completed = records().count() as f64;
        let late = records()
            .filter(|r| r.latency() > blind.config.policy(r.class).slo_bound)
            .count() as f64;
        let shed = blind.shed.iter().filter(|s| s.tenant == t).count() as f64;
        let totals = [
            ("completions", completed),
            ("requests_shed", shed),
            ("slo_total", completed + shed),
            ("slo_bad", late + shed),
        ];
        for (name, want) in totals {
            let got = series_total(&frozen, name, &labels);
            if got != want {
                return Err(format!(
                    "{name} for tenant {t}: series sum {got}, report {want}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn observed_serving_matches_blind_and_exports_deterministically() {
    check_cases(
        "observed == blind",
        OBSERVED_CASES,
        OBSERVED_SEED,
        JOBS,
        draw_observed_case,
        shrink_observed_case,
        || (),
        |(), case| check_observed(case),
    );
}

/// The generators reach the corners the suites exist for: every float
/// class in the trace events, and in the served scenarios alerts that
/// fire and resolve, post-mortem bundles, and sheds of every reason.
#[test]
fn generated_cases_cover_the_corners() {
    let mut rng = CaseRng::new(CHROME_SEED);
    let floats: Vec<f64> = (0..CASES)
        .flat_map(|_| draw_events(&mut rng))
        .map(|e| e.ts_us)
        .collect();
    let any = |pred: &dyn Fn(f64) -> bool| floats.iter().any(|&x| pred(x));
    assert!(any(&|x| x.is_nan()), "NaN");
    assert!(any(&|x| x.is_infinite()), "infinity");
    assert!(any(&|x| x == 0.0 && x.is_sign_negative()), "-0.0");
    assert!(any(&|x| x.is_subnormal()), "subnormal");
    assert!(
        any(&|x| x.fract() == 0.0 && (1e15..1e16).contains(&x.abs())),
        "below 1e16"
    );
    assert!(
        any(&|x| x.fract() == 0.0 && x.abs() >= 1e16 && x.abs() < 1e17),
        "from 1e16"
    );

    let mut rng = CaseRng::new(OBSERVED_SEED);
    let mut fired = false;
    let mut resolved = false;
    let mut bundles = false;
    let mut reasons = std::collections::BTreeSet::new();
    for _ in 0..OBSERVED_CASES {
        let case = draw_observed_case(&mut rng);
        let obs = Obs::enabled(observed_config(&observed_tenants(&case)));
        let report = serve_observed(&case, &obs).expect("generated cases serve");
        let frozen = obs.finalize().expect("enabled pipeline");
        fired |= frozen.alerts_of(AlertKind::Firing).next().is_some();
        resolved |= frozen.alerts_of(AlertKind::Resolved).next().is_some();
        bundles |= !frozen.postmortems.is_empty();
        reasons.extend(report.shed.iter().map(|s| s.reason.name()));
    }
    assert!(fired && resolved, "alerts fire and resolve");
    assert!(bundles, "post-mortem bundles");
    assert_eq!(reasons.len(), 4, "shed reasons reached: {reasons:?}");
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `repro obs --obs` focus export, pinned to the bytes the
/// per-call counter recording wrote. Batching counters per wave must
/// land every delta in the same wave: a delta flushed one wave late
/// changes the samples, and with them this digest. Any change to the
/// serving model or to the obs scenario legitimately moves it too;
/// re-pin it from `repro obs --obs` after checking the change.
#[test]
fn focus_export_is_byte_identical_to_per_call_recording() {
    let (_, report, identical) = sn_bench::obs::obs_focus_run();
    assert!(identical, "focus run must match its blind replay");
    let json = report.to_json();
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (227_751, 0xfbd1_b5ba_5e51_9818)
    );
}
