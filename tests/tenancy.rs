//! Multi-tenant serving guarantees, proven under chaos: the seeded
//! end-to-end scenario (bursty two-class load + a correlated node
//! outage during the peak window) keeps interactive p99 inside its SLO
//! class bound while batch absorbs the damage, the capacity controller
//! re-homes experts and recovers, and — over hundreds of generated
//! scenarios — every submitted request ends exactly one way
//! (`admitted = completed + shed + in-flight`, with in-flight zero at
//! return), bit-identically across runs and `--jobs` values.

mod common;

use common::topology::ClusterTopology;
use common::{check_cases, shrink_count, CaseRng};
use samba_coe::coe::scheduler::ArrivalPattern;
use samba_coe::coe::{
    ClassPolicy, RateLimit, ScaleDecision, ShedReason, SloClass, TenancyConfig, TenantSpec,
};
use samba_coe::faults::ChaosSchedule;
use sn_arch::TimeSecs;
use sn_bench::tenants;

const CASES: usize = 150;
const JOBS: usize = 4;

/// The acceptance scenario end-to-end: four tenants, a two-node
/// correlated outage across the peak burst, a degraded fault window on
/// the fabric, and the SLO-driven autoscaler fighting back.
#[test]
fn chaos_scenario_holds_interactive_slo_while_batch_absorbs_damage() {
    let report = tenants::tenants_report_seeded(tenants::SWEEP_SEED, 2.0);
    let bound = report.config.interactive.slo_bound;

    // Interactive stays inside its class bound at p99.
    let interactive_p99 = report.latency_percentile(SloClass::Interactive, 0.99);
    assert!(
        interactive_p99 <= bound,
        "interactive p99 {interactive_p99} blew the class bound {bound}"
    );

    // Batch is the damage sponge: preempted at wave boundaries, and its
    // tail dwarfs the interactive tail.
    assert!(
        report.preemptions > 0,
        "interactive load must preempt batch"
    );
    assert!(
        report.latency_percentile(SloClass::Batch, 0.99) > interactive_p99,
        "batch must carry the longer tail"
    );

    // The outage bit: experts re-homed off the dead nodes, and the
    // fabric fault window forced retransmits.
    assert!(report.rehomed_experts > 0, "outage must force re-homing");
    assert!(
        report.chaos_retransmits + report.chaos_slowdowns > 0,
        "the degraded fabric window must bite at least one wave"
    );

    // The controller recovered capacity: it grew the cluster, and the
    // run ended with at least the surviving-node count healthy.
    assert!(
        report
            .scale_events
            .iter()
            .any(|e| e.decision == ScaleDecision::Up && e.moved_experts > 0),
        "a scale-up must re-home experts onto the new node"
    );
    assert!(
        report.final_nodes >= tenants::SWEEP_NODES - tenants::OUTAGE_NODES.len(),
        "crashed nodes restore after the window"
    );
    assert!(
        report.goodput_rps(SloClass::Interactive) > 0.0,
        "goodput recovers after the failure window"
    );

    // Nothing leaked.
    assert!(report.conservation_holds());
    assert_eq!(report.pending, 0);
}

/// Recovery is visible in the timeline: interactive requests arriving
/// after the outage window complete strictly faster at the tail than
/// those arriving inside it, because the autoscaled cluster has more
/// healthy nodes than the degraded one did.
#[test]
fn goodput_recovers_after_the_failure_window() {
    let report = tenants::tenants_report_seeded(tenants::SWEEP_SEED, 2.0);
    let during: Vec<f64> = report
        .class_records(SloClass::Interactive)
        .filter(|r| r.arrival >= tenants::OUTAGE_START && r.arrival < tenants::OUTAGE_END)
        .map(|r| r.latency().as_secs())
        .collect();
    let after: Vec<f64> = report
        .class_records(SloClass::Interactive)
        .filter(|r| r.arrival >= tenants::OUTAGE_END)
        .map(|r| r.latency().as_secs())
        .collect();
    assert!(
        !during.is_empty() && !after.is_empty(),
        "the scenario must have interactive traffic in and after the window"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&after) < mean(&during),
        "post-recovery latency {} must beat in-outage latency {}",
        mean(&after),
        mean(&during)
    );
}

/// Byte-for-byte determinism of the full scenario, including the chaos
/// timeline, autoscaler actions, and every shed record.
#[test]
fn chaos_scenario_is_bit_reproducible() {
    let a = tenants::tenants_report_seeded(tenants::SWEEP_SEED, 2.0);
    let b = tenants::tenants_report_seeded(tenants::SWEEP_SEED, 2.0);
    assert_eq!(a, b, "same seed, same report, to the last shed record");
}

/// One generated tenancy scenario for the conservation property. The
/// cluster shape comes from the shared topology generator, so the
/// conservation laws are proven over varied node counts, placements,
/// and pre-damaged clusters — not one hand-picked two-node shape.
#[derive(Debug, Clone)]
struct TenancyCase {
    topology: ClusterTopology,
    seed: u64,
    interactive_requests: usize,
    batch_requests: usize,
    interactive_cap: usize,
    batch_cap: usize,
    interactive_deadline_ms: f64,
    batch_chunks: usize,
    per_node_slots: usize,
    rate_limited: bool,
    outage: Option<(f64, Option<f64>)>,
}

fn generate_case(rng: &mut CaseRng) -> TenancyCase {
    TenancyCase {
        topology: ClusterTopology::generate(rng),
        seed: rng.next_u64(),
        interactive_requests: rng.usize_in(0, 32),
        batch_requests: rng.usize_in(0, 24),
        interactive_cap: rng.usize_in(1, 40),
        batch_cap: rng.usize_in(1, 40),
        interactive_deadline_ms: 1.0 + rng.f64() * 500.0,
        batch_chunks: rng.usize_in(1, 4),
        per_node_slots: rng.usize_in(1, 5),
        rate_limited: rng.f64() < 0.3,
        outage: if rng.f64() < 0.4 {
            let start = rng.f64() * 0.2;
            // 25% of injected outages never restore: the permanent
            // total-outage path must conserve too.
            let end = if rng.f64() < 0.75 {
                Some(start + 0.05 + rng.f64() * 0.5)
            } else {
                None
            };
            Some((start, end))
        } else {
            None
        },
    }
}

fn shrink_case(case: &TenancyCase) -> Vec<TenancyCase> {
    let mut out = Vec::new();
    for topology in case.topology.shrink() {
        let mut c = case.clone();
        c.topology = topology;
        out.push(c);
    }
    for interactive_requests in shrink_count(case.interactive_requests) {
        out.push(TenancyCase {
            interactive_requests,
            ..case.clone()
        });
    }
    for batch_requests in shrink_count(case.batch_requests) {
        out.push(TenancyCase {
            batch_requests,
            ..case.clone()
        });
    }
    if case.outage.is_some() {
        let mut c = case.clone();
        c.outage = None;
        out.push(c);
    }
    if case.rate_limited {
        let mut c = case.clone();
        c.rate_limited = false;
        out.push(c);
    }
    out
}

fn run_case(case: &TenancyCase) -> Result<(), String> {
    let mut cluster = case.topology.build();
    let config = TenancyConfig {
        seed: case.seed,
        prompt_tokens: case.topology.prompt_tokens,
        wave_tokens: 8,
        per_node_slots: case.per_node_slots,
        interactive: ClassPolicy {
            queue_cap: case.interactive_cap,
            deadline: TimeSecs::from_millis(case.interactive_deadline_ms),
            slo_bound: TimeSecs::from_millis(250.0),
            chunks: 1,
        },
        batch: ClassPolicy {
            queue_cap: case.batch_cap,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(10.0),
            chunks: case.batch_chunks,
        },
        max_waves: 10_000,
    };
    let tenants_spec = [
        TenantSpec {
            name: "i".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
            requests: case.interactive_requests,
            rate_limit: if case.rate_limited {
                RateLimit::per_sec(30.0, 4.0)
            } else {
                RateLimit::unlimited()
            },
        },
        TenantSpec {
            name: "b".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests: case.batch_requests,
            rate_limit: RateLimit::unlimited(),
        },
    ];
    let chaos = case.outage.map(|(start, end)| {
        ChaosSchedule::new(case.seed).with_outage(
            &[1],
            TimeSecs::from_secs(start),
            end.map(TimeSecs::from_secs),
        )
    });
    let report = cluster
        .serve_tenants(&tenants_spec, &config, chaos.as_ref(), None)
        .map_err(|e| format!("serve_tenants failed: {e:?}"))?;

    let submitted = case.interactive_requests + case.batch_requests;
    if report.submitted != submitted {
        return Err(format!(
            "submitted {} != offered {submitted}",
            report.submitted
        ));
    }
    if !report.conservation_holds() {
        return Err(format!(
            "conservation broken: submitted {} admitted {} completed {} \
             rejected {} shed-after {} pending {}",
            report.submitted,
            report.admitted,
            report.records.len(),
            report.rejected(),
            report.shed_after_admission(),
            report.pending,
        ));
    }
    // Every submit index appears exactly once across completions + sheds.
    let mut seen = vec![0usize; submitted];
    for r in &report.records {
        seen[r.submit] += 1;
    }
    for s in &report.shed {
        seen[s.submit] += 1;
    }
    if let Some(dup) = seen.iter().position(|&c| c != 1) {
        return Err(format!(
            "request {dup} accounted {} times (must be exactly once)",
            seen[dup]
        ));
    }
    // Timeline sanity on every completion.
    for r in &report.records {
        if r.arrival > r.admitted || r.admitted > r.first_token || r.first_token > r.completed {
            return Err(format!("non-monotonic record timeline: {r:?}"));
        }
    }
    // Sheds carry consistent admission flags.
    for s in &report.shed {
        let ingress = matches!(s.reason, ShedReason::RateLimited | ShedReason::QueueFull);
        if ingress && s.was_admitted {
            return Err(format!("ingress shed marked admitted: {s:?}"));
        }
        if s.reason == ShedReason::TimedOut && !s.was_admitted {
            return Err(format!("timeout shed of an unadmitted request: {s:?}"));
        }
    }
    Ok(())
}

/// The conservation property over generated scenarios: whatever mix of
/// rate limits, bounded queues, deadlines, preemption, and (possibly
/// permanent) outages a case throws at the engine, every request is
/// accounted exactly once and the report's arithmetic closes.
#[test]
fn conservation_holds_over_generated_chaos_scenarios() {
    check_cases(
        "tenancy conservation",
        CASES,
        0x7e4a_2c17,
        JOBS,
        generate_case,
        shrink_case,
        || (),
        |(), case| run_case(case),
    );
}
