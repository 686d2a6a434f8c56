//! Host-time benchmark of the samba-coe simulator.
//!
//! One single-threaded process runs one workload as a closed loop with
//! one client: ops run back to back, each op's outputs are checked, and
//! every metric is printed by name with its unit. All times are host
//! time (what the simulator takes), never model time; model outputs are
//! checked as correctness through per-op digests.
//!
//! Ops visit the workload's cells in whole groups (one op of every op
//! class each), so every run measures the same mix. Host times are
//! scaled to a reference host speed measured between ops (see
//! [`speed`]), so a shared host's speed swings do not read as changes
//! in the simulator. A plain run reports
//! end-to-end metrics with spans off. A traced run alternates traced and
//! untraced groups: traced groups record spans around every layer call
//! plus the twin runs (policies off, blind, observed only) the overhead
//! metrics subtract, and the difference between the two kinds of group is
//! the tracing overhead.

pub mod ops;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workloads;

#[cfg(test)]
mod tests;

use ops::{Served, Summary, Toolchain, Variant};
use spans::Spans;
use speed::HostSpeed;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Cell, Inputs, Workload};

/// The seed whose op digests are committed under `refs/`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up runs this many times before the timed loop, then once after
/// every group, so its median spans the host states the ops ran in.
const MIN_SETUPS: usize = 5;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the timed loop may take.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain run.
    pub trace: bool,
}

/// Reference digests of every cell of a workload at [`DEFAULT_SEED`].
pub type References = BTreeMap<usize, u64>;

/// The committed references of `workload`.
pub fn committed_references(workload: Workload) -> References {
    let text = match workload {
        Workload::PolicyThrash => include_str!("../refs/policy-thrash.txt"),
        Workload::TenantGrid => include_str!("../refs/tenant-grid.txt"),
        Workload::ObservedOutage => include_str!("../refs/observed-outage.txt"),
        Workload::PaperCompile => include_str!("../refs/paper-compile.txt"),
    };
    parse_references(text)
}

/// Parses `cell digest-hex` lines; other lines are ignored.
pub fn parse_references(text: &str) -> References {
    text.lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let cell = it.next()?.parse().ok()?;
            let digest = u64::from_str_radix(it.next()?, 16).ok()?;
            Some((cell, digest))
        })
        .collect()
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, where it is an order statistic.
    pub samples: Option<usize>,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted, set-up warm-ups included.
    pub attempted: u64,
    /// Ops that returned an error, panicked, broke an invariant or
    /// missed their reference digest.
    pub failed: u64,
    /// Why each failed op failed (first few).
    pub failures: Vec<String>,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The per-layer table (traced run only).
    pub layer_table: String,
    /// The recorded spans (traced run only).
    pub spans: Spans,
    /// Median reference-kernel time of the run, ms, and its sample count.
    pub reference_ms: (f64, usize),
}

impl Report {
    /// The metrics as the final JSON line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back as the same
            // f64, so no measured digit is dropped.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<34} {:>16.6} {:<9}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " (n={n})");
            }
            out.push('\n');
        }
        out
    }
}

/// The checked outputs of one op.
struct Checked {
    digest: u64,
    /// Simulated work: expert activations, or operators compiled.
    events: u64,
    violations: Vec<String>,
}

/// A workload's inputs plus the state its ops share.
struct Bench {
    cells: Vec<Cell>,
    classes: usize,
    toolchain: Toolchain,
}

impl Bench {
    fn setup(generate: impl Fn() -> Inputs) -> Self {
        let Inputs { cells, classes } = generate();
        Bench {
            cells,
            classes,
            toolchain: Toolchain::sn40l(),
        }
    }
}

/// Raw outputs of the op itself, before checking.
enum Output {
    Served(Box<Served>, Summary),
    Compiled(ops::Compiled),
}

fn main_op(bench: &Bench, cell: usize, sp: &mut Spans) -> Result<Output, String> {
    match &bench.cells[cell] {
        Cell::Serve(c) => {
            let served = ops::serve(c, Variant::Main, sp)?;
            let summary = sp.span("profile.summarize", |_| ops::summarize(&served.report));
            Ok(Output::Served(Box::new(served), summary))
        }
        Cell::Compile(b) => Ok(Output::Compiled(ops::compile(b, &bench.toolchain, sp)?)),
    }
}

fn check(output: &Output) -> Checked {
    match output {
        Output::Served(s, summary) => Checked {
            digest: ops::digest(&[&s.report, summary, &s.obs_json, &s.trace_json]),
            events: (s.report.expert_hits + s.report.expert_misses) as u64,
            violations: ops::serve_violations(&s.report),
        },
        Output::Compiled(c) => Checked {
            digest: ops::digest(&[c]),
            events: 2 * c.graph_ops as u64,
            violations: ops::compile_violations(c),
        },
    }
}

/// Work counts of one traced op, summed into the per-layer table.
fn count_op(output: &Output, counts: &mut BTreeMap<&'static str, f64>) {
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_default() += v;
    match output {
        Output::Served(s, _) => {
            let r = &s.report;
            add("coe.cluster.new_calls", 1.0);
            add("coe.tenancy.waves", r.waves as f64);
            add("coe.tenancy.submitted", r.submitted as f64);
            add("coe.tenancy.completed", r.records.len() as f64);
            add("coe.tenancy.shed", r.shed.len() as f64);
            add("coe.tenancy.preemptions", r.preemptions as f64);
            add("coe.tenancy.rehomed_experts", r.rehomed_experts as f64);
            add("coe.tenancy.expert_hits", r.expert_hits as f64);
            add(
                "coe.tenancy.expert_activations",
                (r.expert_hits + r.expert_misses) as f64,
            );
            for (k, v) in ops::policy_counts(&r.policy.unwrap_or_default()) {
                add(k, v);
            }
            if let Some(o) = &s.obs {
                for (k, v) in ops::obs_counts(o) {
                    add(k, v);
                }
            }
            add("obs.export_bytes", s.obs_json.len() as f64);
            add("trace.events", s.trace_events as f64);
            add("trace.export_bytes", s.trace_json.len() as f64);
        }
        Output::Compiled(c) => {
            add("models.graph_ops", c.graph_ops as f64);
            add("compiler.compiles", 2.0);
            add("compiler.unfused_kernels", c.unfused_kernels as f64);
            add("compiler.fused_kernels", c.fused_kernels as f64);
            add("runtime.runs", 3.0);
        }
    }
}

/// Runs the twins of a traced serving op and checks them against it:
/// a policies-off twin when the cell has policies, and blind plus
/// observed-only twins when it carries telemetry. Observing must never
/// change the serve, so both telemetry twins must match the op's report.
fn twins(bench: &Bench, cell: usize, main: &Output, sp: &mut Spans) -> Result<Vec<String>, String> {
    let (Cell::Serve(c), Output::Served(s, _)) = (&bench.cells[cell], main) else {
        return Ok(Vec::new());
    };
    let mut violations = Vec::new();
    if c.policies.is_some() {
        ops::serve(c, Variant::PoliciesOff, sp)?;
    }
    if c.telemetry != workloads::Telemetry::Blind {
        let blind = ops::serve(c, Variant::Blind, sp)?;
        let observed = ops::serve(c, Variant::ObservedOnly, sp)?;
        if blind.report != s.report {
            violations.push("observed report differs from its blind twin".to_string());
        }
        if observed.report != blind.report {
            violations.push("observed-only report differs from its blind twin".to_string());
        }
    }
    Ok(violations)
}

/// Running tally of op outcomes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one op: it fails on an error or panic (`result`), on a
    /// broken invariant, or on a digest that differs from its reference.
    fn record(&mut self, cell: usize, result: &Result<Checked, String>, reference: Option<u64>) {
        self.attempted += 1;
        let why = match result {
            Err(e) => Some(e.clone()),
            Ok(c) if !c.violations.is_empty() => Some(c.violations.join("; ")),
            Ok(c) => match reference {
                Some(r) if r != c.digest => {
                    Some(format!("digest {:016x} != reference {r:016x}", c.digest))
                }
                _ => None,
            },
        };
        if let Some(why) = why {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("cell {cell}: {why}"));
            }
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p))))
}

/// Runs one benchmark: set-up, the timed loop, the accuracy record.
/// `refs` are checked only at [`DEFAULT_SEED`].
pub fn run(opts: &Options, refs: &References) -> Report {
    run_on(opts, || workloads::generate(opts.workload, opts.seed), refs)
}

/// [`run`] over the inputs `generate` makes.
fn run_on(opts: &Options, generate: impl Fn() -> Inputs, refs: &References) -> Report {
    let refs = (opts.seed == DEFAULT_SEED).then_some(refs);
    let mut tally = Tally::default();
    let mut sp = Spans::new(false);

    // Every host time is kept as (seconds into the run at its middle,
    // host time) and scaled to the reference host speed at the end.
    let mut speed = HostSpeed::default();

    // Set-up: input generation plus one untimed warm-up op.
    let mut setup_s = Vec::new();
    let set_up =
        |speed: &mut HostSpeed, sp: &mut Spans, tally: &mut Tally, setup_s: &mut Vec<_>| {
            speed.sample_if_due();
            let t = speed.now();
            let b = Bench::setup(&generate);
            let warm = guarded(|| main_op(&b, 0, sp));
            let s = speed.now() - t;
            setup_s.push((t + s / 2.0, s));
            let checked = warm.as_ref().map(check).map_err(Clone::clone);
            tally.record(0, &checked, refs.and_then(|r| r.get(&0).copied()));
            b
        };
    for _ in 1..MIN_SETUPS {
        set_up(&mut speed, &mut sp, &mut tally, &mut setup_s);
    }
    let bench = set_up(&mut speed, &mut sp, &mut tally, &mut setup_s);

    // Timed loop: whole groups of cells while the next group fits.
    let mut class_ms = vec![Vec::new(); bench.classes];
    let mut class_events = vec![0u64; bench.classes];
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_ops = 0u64;
    let mut op_id = 0u64;
    let mut cell = 0usize;
    let loop_start = Instant::now();
    let mut group = 0usize;
    let mut longest_group_s = 0.0f64;
    loop {
        let group_start = Instant::now();
        let traced = opts.trace && group.is_multiple_of(2);
        sp.set_enabled(traced);
        for _ in 0..bench.classes {
            op_id += 1;
            speed.sample_if_due();
            sp.begin_op(op_id);
            let t = speed.now();
            let out = guarded(|| sp.span("op", |sp| main_op(&bench, cell, sp)));
            let s = speed.now() - t;
            let ms = (t + s / 2.0, s * 1e3);
            let mut checked = out.as_ref().map(check).map_err(Clone::clone);
            if let Ok(c) = &checked {
                class_ms[cell % bench.classes].push(ms);
                class_events[cell % bench.classes] = c.events;
                if opts.trace {
                    if traced {
                        &mut traced_ms
                    } else {
                        &mut untraced_ms
                    }
                    .push(ms);
                }
            }
            if let (true, Ok(o)) = (traced, &out) {
                traced_ops += 1;
                count_op(o, &mut counts);
                let twin = guarded(|| twins(&bench, cell, o, &mut sp));
                match (twin, &mut checked) {
                    (Ok(v), Ok(c)) => c.violations.extend(v),
                    (Err(e), Ok(c)) => c.violations.push(format!("twin: {e}")),
                    _ => {}
                }
            }
            tally.record(cell, &checked, refs.and_then(|r| r.get(&cell).copied()));
            cell = (cell + 1) % bench.cells.len();
        }
        sp.set_enabled(false);
        set_up(&mut speed, &mut sp, &mut tally, &mut setup_s);
        group += 1;
        longest_group_s = longest_group_s.max(group_start.elapsed().as_secs_f64());
        if loop_start.elapsed().as_secs_f64() + longest_group_s > opts.seconds {
            break;
        }
    }
    sp.set_enabled(opts.trace);

    // Accuracy record, outside the timed ops.
    sp.begin_op(0);
    let paper_err = guarded(|| Ok(ops::paper_err(&ops::paper_pairs(&mut sp))));
    let paper_err = paper_err.unwrap_or_else(|e| {
        tally.attempted += 1;
        tally.failed += 1;
        tally.failures.push(format!("paper_err: {e}"));
        f64::NAN
    });
    sp.set_enabled(false);

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let scaled = |times: &[(f64, f64)]| -> Vec<f64> {
        let sensitivity = opts.workload.host_sensitivity();
        times
            .iter()
            .map(|&(t, v)| v * speed.scale(t, sensitivity))
            .collect()
    };
    let class_ms: Vec<Vec<f64>> = class_ms.iter().map(|c| scaled(c)).collect();
    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics: Vec::new(),
        layer_table: String::new(),
        spans: Spans::new(false),
        reference_ms: (speed.median_ms(), speed.samples()),
    };
    if opts.trace {
        report.metrics = layer_metrics(
            &sp,
            &counts,
            traced_ops,
            &scaled(&traced_ms),
            &scaled(&untraced_ms),
            failed_frac,
        );
        report.layer_table = layer_table(&sp, traced_ops);
        report.spans = sp;
    } else {
        report.metrics = end_to_end(&scaled(&setup_s), &class_ms, &class_events, paper_err);
    }
    report
}

/// The end-to-end metrics of a plain run, from scaled host times. Every
/// op of one class does the same work, so each class is timed by the
/// median of its ops in the run; throughput and percentiles are taken
/// over classes, which a run ending on a group boundary weighs equally.
fn end_to_end(
    setup_s: &[f64],
    class_ms: &[Vec<f64>],
    class_events: &[u64],
    paper_err: f64,
) -> Vec<Metric> {
    let timed: Vec<(f64, u64)> = class_ms
        .iter()
        .zip(class_events)
        .filter(|(ms, _)| !ms.is_empty())
        .map(|(ms, &events)| (stats::quantile(ms, 0.5), events))
        .collect();
    let class_median: Vec<f64> = timed.iter().map(|&(ms, _)| ms).collect();
    let group_s = class_median.iter().sum::<f64>() / 1e3;
    let group_events: u64 = timed.iter().map(|&(_, e)| e).sum();
    let n = class_ms.iter().map(Vec::len).sum();
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        m(
            "setup_s",
            stats::quantile(setup_s, 0.5),
            "s",
            Some(setup_s.len()),
        ),
        m("ops_per_s", timed.len() as f64 / group_s, "ops/s", Some(n)),
        m(
            "op_ms.p50",
            stats::quantile(&class_median, 0.5),
            "ms",
            Some(n),
        ),
        m(
            "op_ms.p90",
            stats::quantile(&class_median, 0.9),
            "ms",
            Some(n),
        ),
        m(
            "sim_events_per_s",
            group_events as f64 / group_s,
            "events/s",
            Some(n),
        ),
        m("peak_rss_mib", peak_rss_mib(), "MiB", None),
        m("paper_err", paper_err, "fraction", None),
    ]
}

/// The per-layer metrics of a traced run. Times and counts are per
/// traced op; ratios are taken over the summed counts.
fn layer_metrics(
    sp: &Spans,
    counts: &BTreeMap<&'static str, f64>,
    traced_ops: u64,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    failed_frac: f64,
) -> Vec<Metric> {
    let layers = sp.layers();
    let ops = traced_ops.max(1) as f64;
    let busy = |name: &str| layers.get(name).map_or(0.0, |l| l.busy_ns as f64 / 1e6);
    let has = |name: &str| layers.contains_key(name);
    let per_op = |name: &str| busy(name) / ops;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let diff = |a: &str, b: &str| {
        if has(a) && has(b) {
            (busy(a) - busy(b)) / ops
        } else {
            0.0
        }
    };

    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        samples: None,
    };
    let c = |name: &'static str| m(name, count(name) / ops, "count");
    let off = Variant::PoliciesOff;
    vec![
        m("coe.cluster.new_ms", per_op("coe.cluster.new"), "ms"),
        c("coe.cluster.new_calls"),
        m("coe.tenancy.serve_ms", per_op("coe.tenancy.serve"), "ms"),
        m(
            "coe.tenancy.us_per_wave",
            ratio(busy("coe.tenancy.serve") * 1e3, count("coe.tenancy.waves")),
            "us",
        ),
        c("coe.tenancy.waves"),
        c("coe.tenancy.submitted"),
        c("coe.tenancy.shed"),
        c("coe.tenancy.preemptions"),
        c("coe.tenancy.rehomed_experts"),
        c("coe.tenancy.expert_activations"),
        m(
            "coe.tenancy.completed_frac",
            ratio(
                count("coe.tenancy.completed"),
                count("coe.tenancy.submitted"),
            ),
            "fraction",
        ),
        m(
            "coe.tenancy.expert_hit_rate",
            ratio(
                count("coe.tenancy.expert_hits"),
                count("coe.tenancy.expert_activations"),
            ),
            "fraction",
        ),
        m(
            "coe.placement.overhead_ms",
            diff(Variant::Main.serve_span(), off.serve_span()),
            "ms",
        ),
        c("coe.placement.prefetch_issued"),
        c("coe.placement.replicas"),
        c("coe.placement.cold_moves"),
        c("coe.kv.pages_in"),
        c("coe.kv.pages_evicted"),
        c("coe.kv.refaults"),
        m(
            "coe.placement.prefetch_accuracy",
            ratio(
                count("coe.placement.prefetch_hits"),
                count("coe.placement.prefetch_issued"),
            ),
            "fraction",
        ),
        m(
            "obs.overhead_ms",
            diff(
                Variant::ObservedOnly.root_span(),
                Variant::Blind.root_span(),
            ),
            "ms",
        ),
        m("obs.finalize_ms", per_op("obs.finalize"), "ms"),
        m("obs.export_ms", per_op("obs.export"), "ms"),
        m("obs.export_bytes", count("obs.export_bytes") / ops, "bytes"),
        c("obs.series"),
        c("obs.samples"),
        c("obs.alerts_fired"),
        c("obs.postmortems"),
        m(
            "trace.overhead_ms",
            diff(Variant::Main.root_span(), Variant::ObservedOnly.root_span()),
            "ms",
        ),
        c("trace.events"),
        m("trace.export_ms", per_op("trace.export"), "ms"),
        m(
            "trace.export_bytes",
            count("trace.export_bytes") / ops,
            "bytes",
        ),
        m("profile.summarize_ms", per_op("profile.summarize"), "ms"),
        m("models.build_ms", per_op("models.build"), "ms"),
        c("models.graph_ops"),
        m("compiler.compile_ms", per_op("compiler.compile"), "ms"),
        c("compiler.compiles"),
        m(
            "compiler.kernel_ratio",
            ratio(
                count("compiler.unfused_kernels"),
                count("compiler.fused_kernels"),
            ),
            "ratio",
        ),
        m("runtime.run_ms", per_op("runtime.run"), "ms"),
        c("runtime.runs"),
        // Computed once per run, not per op.
        m("baseline.estimate_ms", busy("baseline.estimate"), "ms"),
        m(
            "tracing.overhead_ms",
            mean(traced_ms) - mean(untraced_ms),
            "ms",
        ),
        m("ops_failed_frac", failed_frac, "fraction"),
    ]
}

/// The per-layer table: calls, busy and self time, in total and per op.
fn layer_table(sp: &Spans, traced_ops: u64) -> String {
    let ops = traced_ops.max(1) as f64;
    let mut out = format!(
        "{:<40} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "layer", "calls", "busy_ms", "self_ms", "busy_ms/op", "self_ms/op"
    );
    for (name, l) in sp.layers() {
        let (busy, own) = (l.busy_ns as f64 / 1e6, l.self_ns as f64 / 1e6);
        let _ = writeln!(
            out,
            "{name:<40} {:>8} {busy:>12.3} {own:>12.3} {:>12.4} {:>12.4}",
            l.calls,
            busy / ops,
            own / ops
        );
    }
    let _ = writeln!(
        out,
        "(traced ops: {traced_ops}; per-op columns divide by it)"
    );
    out
}

/// The process's peak resident memory (`VmHWM`), MiB; 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every cell's digest at [`DEFAULT_SEED`], as `refs/` stores them.
pub fn reference_lines(workload: Workload) -> Result<String, String> {
    let bench = Bench::setup(|| workloads::generate(workload, DEFAULT_SEED));
    let mut sp = Spans::new(false);
    let mut out = String::new();
    for cell in 0..bench.cells.len() {
        let out_cell = guarded(|| main_op(&bench, cell, &mut sp))?;
        let c = check(&out_cell);
        if !c.violations.is_empty() {
            return Err(format!("cell {cell}: {}", c.violations.join("; ")));
        }
        let _ = writeln!(out, "{cell} {:016x}", c.digest);
    }
    Ok(out)
}
