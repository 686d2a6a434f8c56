//! Online-scheduler guarantees: burst arrivals degenerate bit-identically
//! to the offline batch path (fault-free, fault-injected, and with the
//! SLO tracker attached), tracing/SLO ride along without perturbing a
//! single latency, runs are seed-deterministic, and the conservation
//! invariants hold over hundreds of generated schedules.

mod common;

use common::topology::ClusterTopology;
use common::{check_cases, shrink_count, CaseRng};
use samba_coe::coe::scheduler::{ArrivalProcess, OnlineReport, SchedulerConfig};
use samba_coe::coe::{ExpertLibrary, Prompt, SambaCoeNode};
use samba_coe::faults::{FaultPlan, FaultSite, FaultSpec, RetryPolicy};
use samba_coe::profile::SloConfig;
use samba_coe::trace::Tracer;
use sn_arch::NodeSpec;
use std::sync::Arc;

fn coe(experts: usize) -> SambaCoeNode {
    SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(experts), 1024)
}

fn prompts_of(requests: &[samba_coe::coe::scheduler::OnlineRequest]) -> Vec<Prompt> {
    requests.iter().map(|r| r.prompt.clone()).collect()
}

/// The correctness anchor: one burst of N requests at t = 0 with
/// unbounded admission is exactly `serve_batch` — every report field
/// bit-identical, cold caches and warm.
#[test]
fn burst_with_unbounded_admission_reproduces_serve_batch_bit_identically() {
    let mut batch_node = coe(150);
    let mut online_node = coe(150);
    let requests = ArrivalProcess::burst(0x5eed, 1024).generate(8);
    let prompts = prompts_of(&requests);
    for round in 0..3 {
        let want = batch_node.serve_batch(&prompts, 20);
        let got = online_node.serve_online(&requests, 20, SchedulerConfig::unbounded());
        assert_eq!(
            want, got.report,
            "round {round}: reports must be bit-identical"
        );
        assert_eq!(got.waves, 1, "a t=0 burst is a single admission wave");
        assert_eq!(got.records.len(), 8);
        // With no queueing, per-request TTFT decomposes into the shared
        // router + switching plus this request's slot in the prefill line.
        assert!(got.records.iter().all(|r| r.queue_delay().is_zero()));
    }
}

/// Same anchor with the SLO tracker attached on both sides: the wave
/// observation must match the batch observation, so even the attached
/// `SloSnapshot` (a float-heavy derived struct) agrees bit-for-bit.
#[test]
fn burst_parity_holds_with_slo_tracker_attached() {
    let mut batch_node = coe(150).with_slo(SloConfig::default());
    let mut online_node = coe(150).with_slo(SloConfig::default());
    let requests = ArrivalProcess::burst(0xcafe, 1024).generate(6);
    let prompts = prompts_of(&requests);
    for _ in 0..3 {
        let want = batch_node.serve_batch(&prompts, 16);
        let got = online_node.serve_online(&requests, 16, SchedulerConfig::unbounded());
        assert!(want.slo.is_some(), "tracker attached");
        assert_eq!(want, got.report, "SLO snapshots included");
    }
}

/// Same anchor under injected faults: the per-site draw sequences
/// coincide on a one-wave burst, so `try_serve_online` reproduces
/// `try_serve_batch` bit-identically — recovery time, retry counts, and
/// all.
#[test]
fn burst_parity_holds_under_injected_faults() {
    let plan = || {
        Arc::new(
            FaultPlan::new(13)
                .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.2))
                .with_site(
                    FaultSite::SocketLink,
                    FaultSpec {
                        fail_rate: 0.2,
                        slow_rate: 0.2,
                        slow_factor: 1.5,
                    },
                )
                .with_site(FaultSite::RouterDecision, FaultSpec::failing(0.2)),
        )
    };
    let mut batch_node = coe(150).with_faults(plan(), RetryPolicy::standard());
    let mut online_node = coe(150).with_faults(plan(), RetryPolicy::standard());
    let requests = ArrivalProcess::burst(0x5eed, 1024).generate(8);
    let prompts = prompts_of(&requests);
    let want = batch_node
        .try_serve_batch(&prompts, 20)
        .expect("standard retries absorb these rates");
    let got = online_node
        .try_serve_online(&requests, 20, SchedulerConfig::unbounded())
        .expect("same plan, same draws, same outcome");
    assert!(want.retries > 0, "the plan must actually fire");
    assert_eq!(want, got.report, "fault draws and recovery must coincide");
}

/// Attaching a tracer and an SLO tracker must not move a single number:
/// per-request records and every report timing field stay bit-identical
/// to the bare scheduler (instrumentation runs after the arithmetic).
#[test]
fn tracing_and_slo_ride_along_without_perturbing_latencies() {
    let mut plain = coe(150);
    let mut instrumented = coe(150)
        .with_tracer(Tracer::enabled())
        .with_slo(SloConfig::default());
    let requests = ArrivalProcess::poisson(0xfeed, 1024, 25.0).generate(16);
    let want = plain.serve_online(&requests, 12, SchedulerConfig::bounded(4));
    let got = instrumented.serve_online(&requests, 12, SchedulerConfig::bounded(4));
    assert_eq!(want.records, got.records, "records must be bit-identical");
    assert_eq!(want.makespan, got.makespan);
    assert_eq!(want.waves, got.waves);
    assert_eq!(want.report.router, got.report.router);
    assert_eq!(want.report.switching, got.report.switching);
    assert_eq!(want.report.execution, got.report.execution);
    assert_eq!(want.report.assignments, got.report.assignments);
    assert!(
        want.report.metrics.is_none(),
        "bare node attaches no metrics"
    );
    assert!(want.report.slo.is_none());
    let metrics = got.report.metrics.expect("tracer attached");
    use samba_coe::trace::{Counter, Metric};
    assert_eq!(metrics.counter(Counter::PromptsServed), 16);
    assert_eq!(metrics.counter(Counter::RequestsAdmitted), 16);
    assert_eq!(metrics.counter(Counter::AdmissionWaves), got.waves as u64);
    assert!(metrics.histogram(Metric::QueueDelay).is_some());
    assert!(metrics.histogram(Metric::Ttft).is_some());
    assert!(
        got.report.slo.is_some(),
        "per-wave observations fed the window"
    );
}

/// Same seed ⇒ byte-identical completion records (the scheduler's event
/// order) and an identical throughput–latency curve across two runs.
#[test]
fn same_seed_runs_are_byte_identical() {
    let sweep = || -> (String, Vec<(f64, f64)>) {
        let mut events = String::new();
        let mut curve = Vec::new();
        for rate in [8.0, 16.0, 32.0] {
            let mut node = coe(150);
            let requests = ArrivalProcess::poisson(0x5eed, 1024, rate).generate(12);
            let out = node.serve_online(&requests, 10, SchedulerConfig::bounded(4));
            events.push_str(&format!("{:?}\n", out.records));
            curve.push((out.latency_percentile(0.95).as_secs(), out.tokens_per_sec()));
        }
        (events, curve)
    };
    let (events_a, curve_a) = sweep();
    let (events_b, curve_b) = sweep();
    assert_eq!(events_a, events_b, "event order must not drift");
    assert_eq!(curve_a, curve_b, "throughput–latency curve must not drift");
}

/// Different seed ⇒ different arrival times (and prompts), but the
/// conservation laws hold identically: same request count, same token
/// total.
#[test]
fn different_seeds_differ_in_arrivals_but_conserve_totals() {
    let a = ArrivalProcess::poisson(1, 1024, 20.0).generate(12);
    let b = ArrivalProcess::poisson(2, 1024, 20.0).generate(12);
    let arrivals = |reqs: &[samba_coe::coe::scheduler::OnlineRequest]| -> Vec<f64> {
        reqs.iter().map(|r| r.arrival.as_secs()).collect()
    };
    assert_ne!(
        arrivals(&a),
        arrivals(&b),
        "seeds must decorrelate arrivals"
    );
    let mut node_a = coe(150);
    let mut node_b = coe(150);
    let out_a = node_a.serve_online(&a, 10, SchedulerConfig::bounded(4));
    let out_b = node_b.serve_online(&b, 10, SchedulerConfig::bounded(4));
    assert_eq!(out_a.records.len(), 12);
    assert_eq!(out_b.records.len(), 12);
    assert_eq!(out_a.total_output_tokens(), out_b.total_output_tokens());
}

// ---------------------------------------------------------------------
// Property harness: conservation invariants over generated schedules.
// ---------------------------------------------------------------------

/// One generated scheduling scenario.
#[derive(Debug, Clone, Copy)]
struct SchedCase {
    seed: u64,
    n_requests: usize,
    output_tokens: usize,
    max_in_flight: usize,
    /// 0 = burst, 1 = Poisson, 2 = burst-train.
    pattern: u8,
    rate_rps: f64,
}

fn gen_case(rng: &mut CaseRng) -> SchedCase {
    SchedCase {
        seed: rng.next_u64(),
        n_requests: rng.usize_in(1, 13),
        output_tokens: rng.usize_in(1, 9),
        max_in_flight: rng.usize_in(1, 7),
        pattern: rng.usize_in(0, 3) as u8,
        rate_rps: 5.0 + rng.f64() * 95.0,
    }
}

/// Shrinking drops requests (at least one stays), halves each other
/// dimension and simplifies the arrival pattern to a burst — the
/// scheduler's simplest regime.
fn shrink_case(c: &SchedCase) -> Vec<SchedCase> {
    let mut out: Vec<SchedCase> = shrink_count(c.n_requests)
        .into_iter()
        .filter(|&n| n >= 1)
        .map(|n_requests| SchedCase { n_requests, ..*c })
        .collect();
    if c.output_tokens > 1 {
        out.push(SchedCase {
            output_tokens: c.output_tokens / 2,
            ..*c
        });
    }
    if c.max_in_flight > 1 {
        out.push(SchedCase {
            max_in_flight: c.max_in_flight / 2,
            ..*c
        });
    }
    if c.pattern != 0 {
        out.push(SchedCase { pattern: 0, ..*c });
    }
    out
}

fn run_case(node: &mut SambaCoeNode, c: &SchedCase) -> OnlineReport {
    let process = match c.pattern {
        0 => ArrivalProcess::burst(c.seed, 1024),
        1 => ArrivalProcess::poisson(c.seed, 1024, c.rate_rps),
        _ => ArrivalProcess::burst_train(
            c.seed,
            1024,
            (c.max_in_flight).max(1),
            sn_arch::TimeSecs::from_millis(50.0),
        ),
    };
    let requests = process.generate(c.n_requests);
    node.serve_online(
        &requests,
        c.output_tokens,
        SchedulerConfig::bounded(c.max_in_flight),
    )
}

const CASES: usize = 200;

/// Worker threads for the property harness. Batch boundaries are fixed
/// by the harness, so the verdict is identical at any thread count —
/// this just keeps the 4x200-case suites off the single-core path.
const JOBS: usize = 4;

#[test]
fn property_every_request_completes_exactly_once() {
    check_cases(
        "every admitted request completes exactly once",
        CASES,
        0xa11c_e5e5,
        JOBS,
        gen_case,
        shrink_case,
        || coe(40),
        |node, c| {
            let out = run_case(node, c);
            if out.records.len() != c.n_requests {
                return Err(format!(
                    "{} records for {} requests",
                    out.records.len(),
                    c.n_requests
                ));
            }
            let mut seen = vec![false; c.n_requests];
            for r in &out.records {
                if r.index >= c.n_requests || seen[r.index] {
                    return Err(format!(
                        "request index {} duplicated or out of range",
                        r.index
                    ));
                }
                seen[r.index] = true;
            }
            Ok(())
        },
    );
}

#[test]
fn property_output_tokens_are_conserved() {
    check_cases(
        "total output tokens are conserved",
        CASES,
        0x70ce_2222,
        JOBS,
        gen_case,
        shrink_case,
        || coe(40),
        |node, c| {
            let out = run_case(node, c);
            let want = c.n_requests * c.output_tokens.max(1);
            let got = out.total_output_tokens();
            if got != want {
                return Err(format!("expected {want} output tokens, got {got}"));
            }
            Ok(())
        },
    );
}

#[test]
fn property_queue_delay_is_never_negative() {
    check_cases(
        "queueing delay is non-negative",
        CASES,
        0xde1a_9999,
        JOBS,
        gen_case,
        shrink_case,
        || coe(40),
        |node, c| {
            let out = run_case(node, c);
            for r in &out.records {
                if r.admitted < r.arrival {
                    return Err(format!(
                        "request {} admitted at {} before its arrival {}",
                        r.index, r.admitted, r.arrival
                    ));
                }
                if r.queue_delay().as_secs() < 0.0 {
                    return Err(format!("negative queue delay on request {}", r.index));
                }
            }
            Ok(())
        },
    );
}

/// The conservation laws again, but with the node shape drawn from the
/// shared topology generator: library size and compiled graph length
/// vary per case instead of being pinned to one 40-expert node, so the
/// scheduler's accounting is proven across the same topology space the
/// wave-engine regression pins cover.
#[test]
fn property_conservation_holds_across_generated_topologies() {
    check_cases(
        "conservation across generated topologies",
        100,
        0x70b0_a109,
        JOBS,
        |rng| (ClusterTopology::generate(rng), gen_case(rng)),
        |(t, c)| {
            let mut out: Vec<(ClusterTopology, SchedCase)> =
                t.shrink().into_iter().map(|t2| (t2, *c)).collect();
            out.extend(shrink_case(c).into_iter().map(|c2| (*t, c2)));
            out
        },
        || (),
        |(), (topology, c)| {
            let mut node = topology.build_node();
            let out = run_case(&mut node, c);
            if out.records.len() != c.n_requests {
                return Err(format!(
                    "{} records for {} requests on {topology:?}",
                    out.records.len(),
                    c.n_requests
                ));
            }
            let want = c.n_requests * c.output_tokens.max(1);
            if out.total_output_tokens() != want {
                return Err(format!(
                    "expected {want} output tokens, got {} on {topology:?}",
                    out.total_output_tokens()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn property_completions_are_non_decreasing() {
    check_cases(
        "completion times are non-decreasing per node",
        CASES,
        0x0c0d_e444,
        JOBS,
        gen_case,
        shrink_case,
        || coe(40),
        |node, c| {
            let out = run_case(node, c);
            for w in out.records.windows(2) {
                if w[0].completed > w[1].completed {
                    return Err(format!(
                        "record for request {} completed at {} after the later record's {}",
                        w[0].index, w[0].completed, w[1].completed
                    ));
                }
            }
            if let Some(last) = out.records.last() {
                if last.completed > out.makespan {
                    return Err("a completion lands past the makespan".to_string());
                }
            }
            Ok(())
        },
    );
}
