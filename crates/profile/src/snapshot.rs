//! Machine-readable benchmark snapshots and regression comparison: the
//! continuous-benchmark harness behind `repro --bench-json` and
//! `scripts/bench_check.sh`.
//!
//! A [`BenchSnapshot`] is an ordered list of tracked metrics — key
//! figures, attribution fractions, SLO percentiles — each with a unit and
//! a relative tolerance, plus free-form `info` entries (simulator
//! wall-clock, configuration) that are recorded but never compared.
//! Snapshots serialize to a small JSON document (`sn-bench-snapshot-v1`,
//! written through `sn_trace::json::JsonWriter`) and parse back via
//! `sn_trace::json`, so a committed baseline can be diffed against a fresh run: [`BenchSnapshot::compare`] flags any
//! metric whose relative deviation exceeds the *baseline's* tolerance.

use sn_trace::json::{self, JsonValue, JsonWriter};

/// Schema identifier written into (and required of) every snapshot.
pub const SCHEMA: &str = "sn-bench-snapshot-v1";

/// A tracked metric's value: numeric (compared within tolerance) or text
/// (compared exactly — e.g. a bottleneck classification).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A number; non-finite values are serialized as 0 (matching the
    /// tracer's JSON writers).
    Num(f64),
    /// A label compared for exact equality.
    Text(String),
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Num(n) => write!(f, "{n:?}"),
            MetricValue::Text(s) => write!(f, "{s}"),
        }
    }
}

/// One tracked metric: key, value, display unit, and the relative
/// tolerance future runs are allowed to deviate by.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Stable dotted key, e.g. `fig12.bs8.total_ms`.
    pub key: String,
    /// The measured value.
    pub value: MetricValue,
    /// Display unit, e.g. `ms` or `fraction` (empty for text metrics).
    pub unit: String,
    /// Allowed relative deviation (0.0 = exact; 0.02 = ±2%).
    pub tolerance: f64,
}

/// An ordered, machine-readable benchmark snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    /// Tracked metrics, in insertion order.
    pub metrics: Vec<BenchMetric>,
    /// Informational key/value pairs (never compared), in insertion order.
    pub info: Vec<(String, String)>,
}

impl BenchSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a numeric metric with a relative tolerance.
    pub fn push_num(&mut self, key: &str, value: f64, unit: &str, tolerance: f64) {
        self.metrics.push(BenchMetric {
            key: key.to_string(),
            value: MetricValue::Num(value),
            unit: unit.to_string(),
            tolerance,
        });
    }

    /// Appends a text metric (compared exactly).
    pub fn push_text(&mut self, key: &str, value: &str) {
        self.metrics.push(BenchMetric {
            key: key.to_string(),
            value: MetricValue::Text(value.to_string()),
            unit: String::new(),
            tolerance: 0.0,
        });
    }

    /// Appends an informational entry that comparison ignores (simulator
    /// wall-clock, host details, configuration).
    pub fn push_info(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// The metric stored under `key`, if any.
    pub fn metric(&self, key: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.key == key)
    }

    /// Serializes to the `sn-bench-snapshot-v1` JSON document. Output is
    /// deterministic: same snapshot, byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128 + self.metrics.len() * 96);
        w.raw("{\n  \"schema\": ");
        w.str(SCHEMA);
        w.raw(",\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            w.raw("    {\"key\": ");
            w.str(&m.key);
            w.raw(", \"value\": ");
            match &m.value {
                MetricValue::Num(n) => w.f64(*n),
                MetricValue::Text(s) => w.str(s),
            }
            w.raw(", \"unit\": ");
            w.str(&m.unit);
            w.raw(", \"tolerance\": ");
            w.f64(m.tolerance);
            let last = i + 1 == self.metrics.len();
            w.raw(if last { "}\n" } else { "},\n" });
        }
        w.raw("  ],\n  \"info\": [\n");
        for (i, (k, v)) in self.info.iter().enumerate() {
            w.raw("    {\"key\": ");
            w.str(k);
            w.raw(", \"value\": ");
            w.str(v);
            let last = i + 1 == self.info.len();
            w.raw(if last { "}\n" } else { "},\n" });
        }
        w.raw("  ]\n}\n");
        w.finish()
    }

    /// Parses a snapshot serialized by [`BenchSnapshot::to_json`].
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("missing \"schema\" field".to_string()),
        }
        let mut snap = BenchSnapshot::new();
        for m in doc
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"metrics\" array")?
        {
            let key = m
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or("metric missing \"key\"")?;
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            let tolerance = m
                .get("tolerance")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let value = match m.get("value") {
                Some(JsonValue::Number(n)) => MetricValue::Num(*n),
                Some(JsonValue::String(s)) => MetricValue::Text(s.clone()),
                _ => return Err(format!("metric {key:?} has a non-scalar value")),
            };
            snap.metrics.push(BenchMetric {
                key: key.to_string(),
                value,
                unit: unit.to_string(),
                tolerance,
            });
        }
        if let Some(info) = doc.get("info").and_then(JsonValue::as_array) {
            for entry in info {
                let key = entry
                    .get("key")
                    .and_then(JsonValue::as_str)
                    .ok_or("info entry missing \"key\"")?;
                let value = entry.get("value").and_then(JsonValue::as_str).unwrap_or("");
                snap.push_info(key, value);
            }
        }
        Ok(snap)
    }

    /// Compares `current` (a fresh run) against `self` (the committed
    /// baseline). Every baseline metric is checked using the *baseline's*
    /// tolerance; metrics only present in `current` are reported as
    /// [`CompareStatus::New`] and never fail the check.
    pub fn compare(&self, current: &BenchSnapshot) -> CompareReport {
        let mut rows = Vec::new();
        for base in &self.metrics {
            let row = match current.metric(&base.key) {
                None => CompareRow {
                    key: base.key.clone(),
                    baseline: Some(base.value.clone()),
                    current: None,
                    unit: base.unit.clone(),
                    tolerance: base.tolerance,
                    deviation: f64::INFINITY,
                    status: CompareStatus::Missing,
                },
                Some(cur) => {
                    let (deviation, ok) = match (&base.value, &cur.value) {
                        (MetricValue::Num(b), MetricValue::Num(c)) => {
                            let dev = relative_deviation(*b, *c);
                            (dev, dev <= base.tolerance + 1e-12)
                        }
                        (MetricValue::Text(b), MetricValue::Text(c)) => {
                            let same = b == c;
                            (if same { 0.0 } else { f64::INFINITY }, same)
                        }
                        _ => (f64::INFINITY, false),
                    };
                    CompareRow {
                        key: base.key.clone(),
                        baseline: Some(base.value.clone()),
                        current: Some(cur.value.clone()),
                        unit: base.unit.clone(),
                        tolerance: base.tolerance,
                        deviation,
                        status: if ok {
                            CompareStatus::Ok
                        } else {
                            CompareStatus::Regressed
                        },
                    }
                }
            };
            rows.push(row);
        }
        for cur in &current.metrics {
            if self.metric(&cur.key).is_none() {
                rows.push(CompareRow {
                    key: cur.key.clone(),
                    baseline: None,
                    current: Some(cur.value.clone()),
                    unit: cur.unit.clone(),
                    tolerance: 0.0,
                    deviation: 0.0,
                    status: CompareStatus::New,
                });
            }
        }
        CompareReport { rows }
    }
}

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareStatus {
    /// Within the baseline's tolerance.
    Ok,
    /// Deviates beyond tolerance, changed text, or changed type.
    Regressed,
    /// Present in the baseline but absent from the current run.
    Missing,
    /// Only in the current run — informational, never a failure.
    New,
}

impl CompareStatus {
    /// Short uppercase tag for table output.
    pub const fn tag(self) -> &'static str {
        match self {
            CompareStatus::Ok => "ok",
            CompareStatus::Regressed => "REGRESSED",
            CompareStatus::Missing => "MISSING",
            CompareStatus::New => "new",
        }
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// The metric key.
    pub key: String,
    /// Baseline value (`None` for [`CompareStatus::New`]).
    pub baseline: Option<MetricValue>,
    /// Current value (`None` for [`CompareStatus::Missing`]).
    pub current: Option<MetricValue>,
    /// Display unit from the snapshot that defined the row.
    pub unit: String,
    /// The tolerance the check used (the baseline's).
    pub tolerance: f64,
    /// Measured relative deviation (∞ for missing/type-mismatched rows).
    pub deviation: f64,
    /// The verdict.
    pub status: CompareStatus,
}

/// Full result of a baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// One row per baseline metric, then any new current-only metrics.
    pub rows: Vec<CompareRow>,
}

impl CompareReport {
    /// Number of rows that fail the check (regressed or missing).
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, CompareStatus::Regressed | CompareStatus::Missing))
            .count()
    }

    /// Whether every baseline metric is within tolerance.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Renders the comparison as an aligned plain-text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<40} {:>14} {:>14} {:>8} {:>8}  {}\n",
            "metric", "baseline", "current", "tol", "dev", "status"
        ));
        let fmt_opt = |v: &Option<MetricValue>| match v {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        for r in &self.rows {
            let dev = if r.deviation.is_finite() {
                format!("{:.4}", r.deviation)
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "  {:<40} {:>14} {:>14} {:>8} {:>8}  {}\n",
                r.key,
                fmt_opt(&r.baseline),
                fmt_opt(&r.current),
                format!("{:.4}", r.tolerance),
                dev,
                r.status.tag(),
            ));
        }
        out
    }
}

/// Relative deviation of `current` from `baseline`; absolute when the
/// baseline is zero (so `0 → 0` passes a zero tolerance and `0 → x`
/// fails it).
fn relative_deviation(baseline: f64, current: f64) -> f64 {
    let diff = (current - baseline).abs();
    if baseline == 0.0 {
        diff
    } else {
        diff / baseline.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        let mut s = BenchSnapshot::new();
        s.push_num("fig12.bs8.total_ms", 123.456, "ms", 0.02);
        s.push_num("counters.expert_misses", 150.0, "count", 0.0);
        s.push_text("attribution.switching.bound", "ddr-bandwidth-bound");
        s.push_info("sim_wall_clock_ms", "42");
        s
    }

    #[test]
    fn json_roundtrip_is_lossless_and_ordered() {
        let s = sample();
        let parsed = BenchSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
        // Deterministic bytes: serialize → parse → serialize is a fixpoint.
        assert_eq!(s.to_json(), parsed.to_json());
        let keys: Vec<&str> = parsed.metrics.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "fig12.bs8.total_ms",
                "counters.expert_misses",
                "attribution.switching.bound"
            ]
        );
    }

    #[test]
    fn self_compare_is_clean() {
        let s = sample();
        let report = s.compare(&s);
        assert!(report.passed());
        assert!(report.rows.iter().all(|r| r.status == CompareStatus::Ok));
    }

    #[test]
    fn deviation_beyond_tolerance_regresses() {
        let base = sample();
        let mut cur = sample();
        // 5% off a 2%-tolerance metric.
        cur.metrics[0].value = MetricValue::Num(123.456 * 1.05);
        let report = base.compare(&cur);
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.rows[0].status, CompareStatus::Regressed);
        // Within tolerance passes.
        cur.metrics[0].value = MetricValue::Num(123.456 * 1.01);
        assert!(base.compare(&cur).passed());
    }

    #[test]
    fn zero_tolerance_counters_must_match_exactly() {
        let base = sample();
        let mut cur = sample();
        cur.metrics[1].value = MetricValue::Num(151.0);
        assert_eq!(base.compare(&cur).regressions(), 1);
    }

    #[test]
    fn text_metrics_compare_exactly() {
        let base = sample();
        let mut cur = sample();
        cur.metrics[2].value = MetricValue::Text("hbm-bandwidth-bound".to_string());
        let report = base.compare(&cur);
        assert_eq!(report.regressions(), 1);
        assert!(report.render_table().contains("REGRESSED"));
    }

    #[test]
    fn missing_fails_and_new_does_not() {
        let base = sample();
        let mut cur = sample();
        cur.metrics.remove(1);
        cur.push_num("fig12.bs16.total_ms", 99.0, "ms", 0.02);
        let report = base.compare(&cur);
        assert_eq!(report.regressions(), 1);
        let missing = report
            .rows
            .iter()
            .find(|r| r.key == "counters.expert_misses")
            .unwrap();
        assert_eq!(missing.status, CompareStatus::Missing);
        let new = report
            .rows
            .iter()
            .find(|r| r.key == "fig12.bs16.total_ms")
            .unwrap();
        assert_eq!(new.status, CompareStatus::New);
    }

    #[test]
    fn info_is_recorded_but_never_compared() {
        let base = sample();
        let mut cur = sample();
        cur.info[0].1 = "9999".to_string();
        assert!(base.compare(&cur).passed());
        let parsed = BenchSnapshot::from_json(&cur.to_json()).unwrap();
        assert_eq!(
            parsed.info[0],
            ("sim_wall_clock_ms".to_string(), "9999".to_string())
        );
    }

    #[test]
    fn zero_baseline_uses_absolute_deviation() {
        let mut base = BenchSnapshot::new();
        base.push_num("recovery_s", 0.0, "s", 0.0);
        let mut cur = BenchSnapshot::new();
        cur.push_num("recovery_s", 0.0, "s", 0.0);
        assert!(base.compare(&cur).passed());
        cur.metrics[0].value = MetricValue::Num(0.5);
        assert!(!base.compare(&cur).passed());
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(BenchSnapshot::from_json("{}").is_err());
        assert!(BenchSnapshot::from_json("not json").is_err());
        let wrong = sample().to_json().replace(SCHEMA, "other-schema-v9");
        assert!(BenchSnapshot::from_json(&wrong).is_err());
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let mut s = BenchSnapshot::new();
        s.push_text("weird.\"key\"", "tab\there\nand \\slash");
        let parsed = BenchSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
    }
}
