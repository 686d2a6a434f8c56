//! Regression pins for the cluster wave engine: generated tenancy runs
//! (topology × chaos × serving policies, with trace-counter tables),
//! raw wave streams with mid-run crashes and restores, the bench-scale
//! tenants chaos scenario at several seeds, the observed scenario's
//! `sn-obs/v1` export, single-node `serve_online`, and the large
//! 16-node `repro intra` scenario.
//!
//! Each case runs once. The `Debug` text of everything it produced
//! (reports, outcomes, errors), plus rendered counter tables and export
//! bytes, folds into one FNV-1a digest per property, pinned below. Any
//! change to the serving model legitimately moves a digest; re-pin it
//! after checking the change. A refactor of the wave loop, the router
//! or the placement walk must leave every digest where it is.

// Each case runs once, so the shrinking harness goes unused here.
#[allow(dead_code)]
mod common;

use common::topology::ClusterTopology;
use common::{CaseRng, Fnv};
use sn_arch::{NodeSpec, TimeSecs};
use sn_bench::{intra, tenants};
use sn_coe::scheduler::{ArrivalPattern, ArrivalProcess, SchedulerConfig};
use sn_coe::{
    ClassPolicy, CoeCluster, ExpertLibrary, PolicyConfig, PromptGenerator, RateLimit, SambaCoeNode,
    ServingPolicies, SloClass, TenancyConfig, TenantSpec, WaveSlot,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_runtime::coe::CoeError;
use sn_trace::Tracer;
use std::fmt::Write;

/// Worker threads the generated cases fan across. Results merge in
/// case order, so the digests do not depend on it.
const JOBS: usize = 2;

/// Generates `cases` cases from `seed`, runs each once across [`JOBS`]
/// threads, and folds their rendered outputs in case order.
fn digest_cases<C: Sync>(
    cases: usize,
    seed: u64,
    mut generate: impl FnMut(&mut CaseRng) -> C,
    run: impl Fn(&C) -> String + Sync,
) -> (usize, u64) {
    let mut rng = CaseRng::new(seed);
    let all: Vec<C> = (0..cases).map(|_| generate(&mut rng)).collect();
    let mut digest = Fnv::new();
    for text in sn_bench::par::ordered_map(JOBS, &all, |_, case| run(case)) {
        digest.write_str(&text).expect("digest write");
    }
    digest.pin()
}

// ---------------------------------------------------------------------
// Generated tenancy runs.
// ---------------------------------------------------------------------

/// One generated end-to-end tenancy scenario.
#[derive(Debug, Clone)]
struct TenancyCase {
    topology: ClusterTopology,
    seed: u64,
    interactive_requests: usize,
    batch_requests: usize,
    per_node_slots: usize,
    wave_tokens: usize,
    /// Attach a [`ServingPolicies`] bundle (prefetch, placement, and
    /// the topology's paged-KV budget).
    policies: bool,
    /// 0 = none, 1 = outage, 2 = fabric fault window, 3 = both.
    chaos: u8,
}

fn gen_tenancy_case(rng: &mut CaseRng) -> TenancyCase {
    TenancyCase {
        topology: ClusterTopology::generate(rng),
        seed: rng.next_u64(),
        interactive_requests: rng.usize_in(0, 24),
        batch_requests: rng.usize_in(0, 16),
        per_node_slots: rng.usize_in(1, 5),
        wave_tokens: rng.usize_in(1, 9),
        policies: rng.f64() < 0.5,
        chaos: rng.usize_in(0, 4) as u8,
    }
}

fn case_chaos(case: &TenancyCase) -> Option<ChaosSchedule> {
    if case.chaos == 0 {
        return None;
    }
    let mut chaos = ChaosSchedule::new(case.seed);
    if case.chaos & 1 != 0 {
        chaos = chaos.with_outage(
            &[1],
            TimeSecs::from_secs(0.02),
            Some(TimeSecs::from_secs(0.4)),
        );
    }
    if case.chaos & 2 != 0 {
        chaos = chaos.with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.15,
                slow_rate: 0.25,
                slow_factor: 1.5,
            },
            TimeSecs::ZERO,
            TimeSecs::from_secs(0.5),
        );
    }
    Some(chaos)
}

/// Serves the case and renders the tenancy report (or the error) and
/// the trace-counter table.
fn tenancy_run(case: &TenancyCase) -> String {
    let tracer = Tracer::enabled();
    let mut cluster = case.topology.build().with_tracer(tracer.clone());
    let config = TenancyConfig {
        seed: case.seed,
        prompt_tokens: case.topology.prompt_tokens,
        wave_tokens: case.wave_tokens,
        per_node_slots: case.per_node_slots,
        interactive: ClassPolicy {
            queue_cap: 32,
            deadline: TimeSecs::from_millis(400.0),
            slo_bound: TimeSecs::from_millis(250.0),
            chunks: 1,
        },
        batch: ClassPolicy {
            queue_cap: 32,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(10.0),
            chunks: 2,
        },
        max_waves: 10_000,
    };
    let tenant_specs = [
        TenantSpec {
            name: "i".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
            requests: case.interactive_requests,
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "b".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests: case.batch_requests,
            rate_limit: RateLimit::unlimited(),
        },
    ];
    let chaos = case_chaos(case);
    let mut policies = case.policies.then(|| {
        ServingPolicies::new(
            case.topology.experts,
            PolicyConfig {
                kv: Some(case.topology.kv_config()),
                ..PolicyConfig::default()
            },
        )
    });
    let report = cluster.serve_tenants_with_policies(
        &tenant_specs,
        &config,
        chaos.as_ref(),
        None,
        policies.as_mut(),
    );
    format!("{report:?}\n{}", tracer.metrics().render_table())
}

#[test]
fn tenancy_runs_match_their_pinned_digest() {
    assert_eq!(
        digest_cases(60, 0x0001_a7e5_d1ff, gen_tenancy_case, tenancy_run),
        TENANCY_PIN
    );
}

// ---------------------------------------------------------------------
// Generated wave streams.
// ---------------------------------------------------------------------

/// One generated serve_wave / serve_batch schedule.
#[derive(Debug, Clone)]
struct WaveCase {
    topology: ClusterTopology,
    seed: u64,
    waves: usize,
    slots_per_wave: usize,
    wave_tokens: usize,
    /// Fail node 0 at this wave and restore it two waves later.
    fail_at: Option<usize>,
}

fn gen_wave_case(rng: &mut CaseRng) -> WaveCase {
    let waves = rng.usize_in(1, 8);
    WaveCase {
        topology: ClusterTopology::generate(rng),
        seed: rng.next_u64(),
        waves,
        slots_per_wave: rng.usize_in(1, 48),
        wave_tokens: rng.usize_in(1, 9),
        fail_at: if rng.f64() < 0.4 {
            Some(rng.usize_in(0, waves))
        } else {
            None
        },
    }
}

/// Serves a wave stream with the scripted failure and restore, then one
/// `serve_batch` on the warmed cluster. Errors (an all-down wave's
/// `NoHealthyNodes`) are part of the rendered stream.
fn wave_run(case: &WaveCase) -> String {
    let mut cluster = case.topology.build();
    let mut prompts = PromptGenerator::new(case.seed, case.topology.prompt_tokens);
    let mut out = String::new();
    for wave in 0..case.waves {
        if case.fail_at == Some(wave) {
            cluster.fail_node(0);
        }
        if case.fail_at.map(|w| w + 2) == Some(wave) {
            cluster.restore_node(0);
        }
        let slots: Vec<WaveSlot> = prompts
            .batch(case.slots_per_wave)
            .into_iter()
            .enumerate()
            .map(|(i, prompt)| WaveSlot {
                prompt,
                prefill: (i + wave) % 3 != 0,
            })
            .collect();
        let outcome = cluster.serve_wave(&slots, case.wave_tokens);
        writeln!(out, "{outcome:?}").expect("string write");
    }
    if cluster.healthy_nodes() > 0 {
        let batch = prompts.batch(case.slots_per_wave.max(1));
        write!(out, "{:?}", cluster.serve_batch(&batch, case.wave_tokens)).expect("string write");
    } else {
        out.push_str("all nodes down");
    }
    out
}

#[test]
fn wave_streams_match_their_pinned_digest() {
    assert_eq!(
        digest_cases(60, 0x0a0e_57f3, gen_wave_case, wave_run),
        WAVE_PIN
    );
}

// ---------------------------------------------------------------------
// Bench-scale scenarios.
// ---------------------------------------------------------------------

/// The full chaos sweep point (6-node cluster, outage, fault window and
/// autoscaler) at several seeds.
#[test]
fn tenants_chaos_reports_match_their_pinned_digest() {
    let mut digest = Fnv::new();
    for seed in [tenants::SWEEP_SEED, 1, 0xdead_beef] {
        write!(digest, "{:?}", tenants::tenants_report_seeded(seed, 2.0)).expect("digest write");
    }
    assert_eq!(digest.pin(), TENANTS_PIN);
}

/// The observed chaos scenario: its tenancy report and the exported
/// `sn-obs/v1` document (series, alerts, post-mortems).
#[test]
fn obs_export_matches_its_pinned_digest() {
    let mut cluster = tenants::sweep_cluster();
    let mut config = tenants::sweep_config();
    config.seed = tenants::SWEEP_SEED;
    let chaos = tenants::sweep_chaos(tenants::SWEEP_SEED);
    let mut controller = tenants::sweep_controller();
    let obs = sn_obs::Obs::enabled(sn_bench::obs::obs_config(2.0));
    let report = cluster
        .serve_tenants_observed(
            &tenants::sweep_tenants(2.0),
            &config,
            Some(&chaos),
            Some(&mut controller),
            None,
            &obs,
        )
        .expect("observed scenario serves");
    let mut digest = Fnv::new();
    write!(
        digest,
        "{report:?}\n{}",
        obs.finalize().expect("enabled pipeline").to_json()
    )
    .expect("digest write");
    assert_eq!(digest.pin(), OBS_PIN);
}

/// Single-node online serving through the scheduler's route pass.
#[test]
fn serve_online_reports_match_their_pinned_digest() {
    let mut digest = Fnv::new();
    for seed in [0x5eed_u64, 0xcafe] {
        let mut node = ClusterTopology {
            nodes: 2,
            experts: 150,
            prompt_tokens: 512,
            grown_nodes: 0,
            rebalanced: false,
            failed_node: None,
            kv_budget_pages: 16,
        }
        .build_node();
        let requests = ArrivalProcess::poisson(seed, 512, 40.0).generate(12);
        let report = node.serve_online(&requests, 12, SchedulerConfig::bounded(4));
        write!(digest, "{report:?}").expect("digest write");
    }
    assert_eq!(digest.pin(), ONLINE_PIN);
}

/// The `repro intra` scenario (16 nodes, 480 experts, 24 waves of 4096
/// slots): every slot of the warm pass serves, on resident experts.
#[test]
fn intra_scenario_matches_its_pinned_digest() {
    let digest = intra::intra_digest();
    assert_eq!(digest.checksum, 0x3214_566e_501c_0aaf);
    assert_eq!(digest.waves, intra::INTRA_WAVES);
    assert_eq!(digest.served, 98_304);
    assert_eq!(digest.dropped, 0);
    assert_eq!(digest.expert_misses, 0, "the timed pass runs warm");
    assert!(digest.expert_hits > 0, "warm activations exercised");
}

/// A library with no experts leaves the router nothing to route to:
/// both deployment constructors reject it with a typed error instead of
/// building something that panics at its first route.
#[test]
fn empty_libraries_are_rejected_at_construction() {
    let cluster = CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(0), 512);
    assert!(matches!(cluster, Err(CoeError::EmptyLibrary)));
    let node = SambaCoeNode::try_new(NodeSpec::sn40l_node(), ExpertLibrary::new(0), 512);
    assert!(matches!(node, Err(CoeError::EmptyLibrary)));
    assert_eq!(
        CoeError::EmptyLibrary.to_string(),
        "the expert library has no experts to route to"
    );
}

// Digests of the properties above, captured on the sequential wave loop
// before the threaded per-node lane engine was removed; the lane engine
// matched the sequential loop byte for byte at 2 and 4 lanes.
const TENANCY_PIN: (usize, u64) = (476_199, 0xddc7_fe87_95b2_677a);
const WAVE_PIN: (usize, u64) = (653_519, 0x2efb_6e71_2faf_a28c);
const TENANTS_PIN: (usize, u64) = (229_015, 0x2673_d350_334e_9fbc);
const OBS_PIN: (usize, u64) = (208_646, 0x80c0_f1ba_364a_139f);
const ONLINE_PIN: (usize, u64) = (6_352, 0x18ef_5608_6576_ba92);

// ---------------------------------------------------------------------
// Committed snapshot: the intra-run timing rows landed with zero drift.
// ---------------------------------------------------------------------

fn committed_snapshot(name: &str) -> sn_profile::BenchSnapshot {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    sn_profile::BenchSnapshot::from_json(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

/// The committed `BENCH_PR9.json` snapshot must carry the intra-run
/// timing rows (wall-clock per job count, speedups above 1.0, and the
/// run digest) while every *tracked* metric stays exactly the
/// `BENCH_PR7.json` baseline — the speedup was not bought with a single
/// drifted number.
#[test]
fn committed_bench_pr9_records_intra_speedup_with_zero_metric_drift() {
    let pr9 = committed_snapshot("BENCH_PR9.json");
    let pr7 = committed_snapshot("BENCH_PR7.json");
    assert_eq!(
        pr7.metrics, pr9.metrics,
        "tracked metrics drifted between BENCH_PR7.json and BENCH_PR9.json"
    );
    let info = |key: &str| -> &str {
        pr9.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("BENCH_PR9.json missing info row {key}"))
    };
    assert_eq!(info("intra_digest").len(), 16, "16-hex-digit run digest");
    info("intra_wall_ms_1jobs");
    for jobs in [2usize, 4] {
        info(&format!("intra_wall_ms_{jobs}jobs"));
        let speedup: f64 = info(&format!("intra_speedup_{jobs}jobs"))
            .parse()
            .expect("numeric speedup row");
        assert!(
            speedup > 1.0,
            "{jobs} intra-run jobs must beat the sequential wall-clock, got {speedup}x"
        );
    }
}
