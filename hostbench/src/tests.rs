//! The benchmark's own tests: failures are counted, not fatal and not
//! hidden, and every metric `BENCHMARK.json` names prints with its unit.

use super::*;
use sn_trace::json::{parse, JsonValue};

/// A run over the first cell of `workload` only, one group long.
fn tiny(workload: Workload, trace: bool, refs: &References) -> Report {
    let opts = Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
    };
    run_on(
        &opts,
        || {
            let mut inputs = workloads::generate(workload, DEFAULT_SEED);
            inputs.cells.truncate(1);
            inputs.classes = 1;
            inputs
        },
        refs,
    )
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, k: &str| {
        m.get(k)
            .and_then(JsonValue::as_str)
            .expect("metric has the field")
            .to_string()
    };
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_named_metric_prints_with_its_unit_at_a_tiny_size() {
    for w in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny(w, trace, &committed_references(w));
            assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(list), "{} {list}", w.name());
            let json = parse(&report.to_json()).expect("result line parses");
            let metrics = json.get("metrics").expect("metrics object");
            for (name, unit) in declared(list) {
                let m = metrics.get(&name).expect("metric in the JSON line");
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
            let text = report.render_metrics();
            assert!(declared(list)
                .iter()
                .all(|(n, _)| text.contains(n.as_str())));
        }
    }
}

#[test]
fn a_corrupted_reference_digest_fails_the_op_and_the_run_goes_on() {
    let w = Workload::PaperCompile;
    let mut refs = committed_references(w);
    let good = tiny(w, false, &refs);
    assert_eq!(good.failed, 0, "{:?}", good.failures);
    *refs.get_mut(&0).expect("cell 0 has a reference") ^= 1;
    let bad = tiny(w, false, &refs);
    assert!(
        bad.attempted > MIN_SETUPS as u64,
        "set-up and timed ops both ran"
    );
    assert_eq!(bad.failed, bad.attempted, "every op of cell 0 must fail");
    assert!(bad.failures[0].contains("digest"), "{:?}", bad.failures);
    assert!(bad.to_json().starts_with("{\"correct\": false"));
    assert_eq!(bad.metrics.len(), declared("end_to_end").len());
}

#[test]
fn a_broken_invariant_fails_the_op() {
    let bench = Bench::setup(|| workloads::generate(Workload::PolicyThrash, DEFAULT_SEED));
    let mut out = main_op(&bench, 0, &mut Spans::new(false)).expect("op runs");
    let mut tally = Tally::default();
    tally.record(0, &Ok(check(&out)), None);
    assert_eq!(tally.failed, 0);
    let Output::Served(served, _) = &mut out else {
        panic!("policy-thrash serves");
    };
    let policy = served.report.policy.as_mut().expect("policies on");
    policy.kv_pages_evicted = policy.kv_pages_in + 1;
    served.report.submitted += 1;
    let checked = check(&out);
    assert_eq!(checked.violations.len(), 3, "{:?}", checked.violations);
    tally.record(0, &Ok(checked), None);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}

#[test]
fn a_panicking_op_fails_instead_of_aborting() {
    let result = guarded::<Checked>(|| panic!("boom"));
    let mut tally = Tally::default();
    tally.record(3, &result, None);
    assert_eq!(tally.failed, 1);
    assert!(tally.failures[0].contains("boom"));
}

#[test]
fn committed_references_cover_every_cell() {
    for w in Workload::ALL {
        assert_eq!(
            committed_references(w).len(),
            workloads::generate(w, DEFAULT_SEED).cells.len(),
            "{}: regenerate with --emit-refs",
            w.name()
        );
    }
}

#[test]
fn a_traced_run_reports_twins_and_overheads() {
    let report = tiny(Workload::ObservedOutage, true, &References::new());
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    for layer in ["twin.blind", "twin.observed_only", "stack", "obs.export"] {
        assert!(report.layer_table.contains(layer), "{}", report.layer_table);
    }
    let value = |n: &str| report.metrics.iter().find(|m| m.name == n).expect(n).value;
    assert!(value("trace.events") > 0.0);
    assert!(value("obs.export_bytes") > 0.0);
    assert!(report.spans.spans().iter().any(|s| s.op > 0));
}
