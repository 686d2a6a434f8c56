//! Multi-tenant chaos sweep (`repro -- tenants`): load vs per-class SLO.
//!
//! One fixed scenario, swept over an offered-load multiplier: four named
//! tenants (two interactive, two batch) share a 4-node Samba-CoE cluster
//! while a correlated chaos outage kills two nodes during the peak burst
//! and an SLO-driven autoscaler fights back. Each sweep point is a pure
//! function of `(seed, load multiplier)` — fresh cluster, fresh chaos
//! schedule, fresh controller — so points are independent, reorderable,
//! and the whole sweep routes through the ordered-merge engine with the
//! usual bit-for-bit `parallel == sequential` contract.
//!
//! The table this produces is the robustness claim in one screen: as the
//! load multiplier climbs, interactive p99 stays pinned near its SLO
//! bound while the *batch* class absorbs the pain (shed + preempted
//! counts grow), and every row conserves requests exactly
//! (`submitted = completed + shed`, nothing silently dropped).

use sn_arch::{NodeSpec, TimeSecs};
use sn_coe::scheduler::ArrivalPattern;
use sn_coe::{
    AutoscaleConfig, AutoscaleController, ClassPolicy, CoeCluster, ExpertLibrary, RateLimit,
    SloClass, TenancyConfig, TenancyReport, TenantSpec,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_profile::MachineProfile;

/// Seed shared by every sweep point.
pub const SWEEP_SEED: u64 = 0x7e4a;

/// Nodes the cluster starts with.
pub const SWEEP_NODES: usize = 4;

/// Experts in the library.
pub const SWEEP_EXPERTS: usize = 120;

/// Prompt length of every tenant request.
pub const SWEEP_PROMPT_TOKENS: usize = 512;

/// Baseline interactive requests per tenant at multiplier 1.0.
pub const BASE_INTERACTIVE_REQUESTS: usize = 48;

/// Baseline batch requests per tenant at multiplier 1.0.
pub const BASE_BATCH_REQUESTS: usize = 24;

/// Offered-load multipliers swept.
pub const SWEEP_LOADS: &[f64] = &[0.5, 1.0, 2.0, 4.0];

/// Correlated outage: these nodes crash together during the peak burst.
pub const OUTAGE_NODES: &[usize] = &[2, 3];

/// The outage window (also carries a degraded-fabric fault window), in
/// model time. The peak burst of the arrival mix lands inside it.
pub const OUTAGE_START: TimeSecs = TimeSecs::from_secs(0.05);

/// End of the outage window: crashed nodes restore here.
pub const OUTAGE_END: TimeSecs = TimeSecs::from_secs(0.60);

/// End of the degraded-fabric window. Congestion outlives the outage:
/// restored nodes re-fill their HBM working sets over the same links,
/// so the fabric stays degraded for a while after the crash window.
pub const FABRIC_WINDOW_END: TimeSecs = TimeSecs::from_secs(1.20);

/// One row of the multi-tenant sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSweepPoint {
    /// Offered-load multiplier applied to every tenant's request count.
    pub load: f64,
    /// Requests submitted across all tenants.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed, all reasons.
    pub shed: usize,
    /// Batch chunks bumped by interactive traffic at wave boundaries.
    pub preempted: usize,
    /// Interactive end-to-end p99 latency.
    pub interactive_p99: TimeSecs,
    /// Batch end-to-end p99 latency.
    pub batch_p99: TimeSecs,
    /// Interactive completions inside the class SLO bound, per second.
    pub interactive_goodput: f64,
    /// Batch completions inside the class SLO bound, per second.
    pub batch_goodput: f64,
    /// Autoscaler grow actions applied.
    pub scale_ups: usize,
    /// Autoscaler shrink actions applied.
    pub scale_downs: usize,
    /// Experts re-homed by reactive failover during the run.
    pub rehomed: usize,
    /// Healthy nodes when the run finished.
    pub final_nodes: usize,
    /// Serving waves executed.
    pub waves: usize,
    /// Model time to drain the scenario.
    pub makespan: TimeSecs,
    /// Whether `submitted = completed + shed` held exactly.
    pub conserved: bool,
}

/// The class policies and engine tuning every point shares.
pub fn sweep_config() -> TenancyConfig {
    TenancyConfig {
        seed: SWEEP_SEED,
        prompt_tokens: SWEEP_PROMPT_TOKENS,
        wave_tokens: 8,
        per_node_slots: 4,
        interactive: ClassPolicy {
            queue_cap: 64,
            deadline: TimeSecs::from_secs(2.0),
            slo_bound: TimeSecs::from_secs(1.0),
            chunks: 1,
        },
        batch: ClassPolicy {
            queue_cap: 256,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(10.0),
            chunks: 4,
        },
        max_waves: 100_000,
    }
}

/// The four-tenant mix at a given load multiplier: a steady interactive
/// tenant, a bursty interactive tenant whose burst train peaks inside
/// the outage window, a rate-limited batch tenant, and an unlimited
/// batch backlog that lands at t = 0.
pub fn sweep_tenants(load: f64) -> Vec<TenantSpec> {
    let scaled = |base: usize| ((base as f64 * load).round() as usize).max(1);
    vec![
        TenantSpec {
            name: "chat-steady".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 120.0 },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "chat-bursty".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::BurstTrain {
                size: 8,
                period: TimeSecs::from_millis(100.0),
            },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "lab-metered".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Poisson { rate_rps: 60.0 },
            requests: scaled(BASE_BATCH_REQUESTS),
            rate_limit: RateLimit::per_sec(40.0, 16.0),
        },
        TenantSpec {
            name: "lab-backlog".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests: scaled(BASE_BATCH_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
    ]
}

/// The chaos schedule every point replays: [`OUTAGE_NODES`] crash
/// together at [`OUTAGE_START`] and restore at [`OUTAGE_END`], while
/// the socket fabric runs 1.5x slow with a 10% retransmit rate from the
/// crash until [`FABRIC_WINDOW_END`].
pub fn sweep_chaos(seed: u64) -> ChaosSchedule {
    ChaosSchedule::new(seed)
        .with_outage(OUTAGE_NODES, OUTAGE_START, Some(OUTAGE_END))
        .with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.10,
                slow_rate: 0.25,
                slow_factor: 1.5,
            },
            OUTAGE_START,
            FABRIC_WINDOW_END,
        )
}

/// The capacity controller every point starts with: act at half the
/// interactive SLO bound (well before the class blows it), never below
/// 2 or above 6 nodes, two-breach patience and a four-wave cooldown so
/// it acts on trends, not spikes.
pub fn sweep_controller() -> AutoscaleController {
    AutoscaleController::new(
        MachineProfile::from_node(&NodeSpec::sn40l_node()),
        AutoscaleConfig {
            min_nodes: 2,
            max_nodes: 6,
            latency_high: TimeSecs::from_millis(400.0),
            latency_low: TimeSecs::from_millis(40.0),
            patience: 2,
            cooldown: 4,
            window: 16,
        },
    )
}

/// The sweep's starting cluster — shared by the report helpers here
/// and the wave-engine regression pins, so both serve the same shape.
///
/// # Panics
///
/// Panics if the expert library cannot be placed on the starting
/// cluster (a configuration bug, not a runtime condition).
pub fn sweep_cluster() -> CoeCluster {
    CoeCluster::new(
        NodeSpec::sn40l_node(),
        SWEEP_NODES,
        ExpertLibrary::new(SWEEP_EXPERTS),
        SWEEP_PROMPT_TOKENS,
    )
    .expect("sweep library fits the starting cluster")
}

/// Runs the full scenario report for one `(seed, load)` point.
///
/// # Panics
///
/// Panics if the expert library cannot be placed on the starting
/// cluster (a configuration bug, not a runtime condition).
pub fn tenants_report_seeded(seed: u64, load: f64) -> TenancyReport {
    let mut cluster = sweep_cluster();
    let mut config = sweep_config();
    config.seed = seed;
    let chaos = sweep_chaos(seed);
    let mut controller = sweep_controller();
    cluster
        .serve_tenants(
            &sweep_tenants(load),
            &config,
            Some(&chaos),
            Some(&mut controller),
        )
        .expect("tenant scenario serves")
}

/// Summarizes one sweep point at `load`.
pub fn tenants_point(load: f64) -> TenantSweepPoint {
    tenants_point_seeded(SWEEP_SEED, load)
}

/// [`tenants_point`] with an explicit seed — the differential tests
/// sweep several seeds to show the parallel/sequential bit-identity is
/// not an artifact of one lucky arrival pattern.
pub fn tenants_point_seeded(seed: u64, load: f64) -> TenantSweepPoint {
    let report = tenants_report_seeded(seed, load);
    let scale_ups = report
        .scale_events
        .iter()
        .filter(|e| e.decision == sn_coe::ScaleDecision::Up)
        .count();
    let scale_downs = report.scale_events.len() - scale_ups;
    TenantSweepPoint {
        load,
        submitted: report.submitted,
        completed: report.records.len(),
        shed: report.shed.len(),
        preempted: report.preemptions,
        interactive_p99: report.latency_percentile(SloClass::Interactive, 0.99),
        batch_p99: report.latency_percentile(SloClass::Batch, 0.99),
        interactive_goodput: report.goodput_rps(SloClass::Interactive),
        batch_goodput: report.goodput_rps(SloClass::Batch),
        scale_ups,
        scale_downs,
        rehomed: report.rehomed_experts,
        final_nodes: report.final_nodes,
        waves: report.waves,
        makespan: report.makespan,
        conserved: report.conservation_holds(),
    }
}

/// The full load sweep over [`SWEEP_LOADS`], sequentially.
pub fn tenants_sweep() -> Vec<TenantSweepPoint> {
    tenants_sweep_jobs(1)
}

/// [`tenants_sweep`] fanned across `jobs` worker threads via the
/// ordered-merge engine. Bit-identical to `tenants_sweep()` for every
/// `jobs` value: each point builds its own cluster, chaos schedule, and
/// controller.
pub fn tenants_sweep_jobs(jobs: usize) -> Vec<TenantSweepPoint> {
    tenants_sweep_seeded_jobs(SWEEP_SEED, jobs)
}

/// [`tenants_sweep_jobs`] with an explicit scenario seed.
pub fn tenants_sweep_seeded_jobs(seed: u64, jobs: usize) -> Vec<TenantSweepPoint> {
    crate::par::ordered_map(jobs, SWEEP_LOADS, |_, &load| {
        tenants_point_seeded(seed, load)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_coe::ShedReason;

    #[test]
    fn points_are_deterministic() {
        let a = tenants_point(1.0);
        let b = tenants_point(1.0);
        assert_eq!(a, b, "same load, same row");
    }

    #[test]
    fn every_row_conserves_requests() {
        for p in tenants_sweep() {
            assert!(p.conserved, "load {} leaked requests", p.load);
            assert_eq!(p.submitted, p.completed + p.shed);
        }
    }

    #[test]
    fn chaos_actually_bites_and_recovery_happens() {
        let report = tenants_report_seeded(SWEEP_SEED, 2.0);
        assert!(report.rehomed_experts > 0, "outage must force re-homing");
        assert!(
            report.final_nodes >= SWEEP_NODES - OUTAGE_NODES.len(),
            "crashed nodes restore after the window"
        );
        assert!(report.conservation_holds());
    }

    #[test]
    fn batch_class_absorbs_the_overload() {
        let heavy = tenants_point(*SWEEP_LOADS.last().unwrap());
        assert!(
            heavy.shed > 0 && heavy.preempted > 0,
            "4x load over a half-capacity window must shed and preempt"
        );
        // Priority shows in the tails: batch eats the outage delay while
        // the interactive tail stays an order of magnitude tighter.
        assert!(
            heavy.batch_p99 > heavy.interactive_p99 * 2.0,
            "batch p99 {} should dwarf interactive p99 {}",
            heavy.batch_p99,
            heavy.interactive_p99
        );
        // And the metered batch tenant is the one the token bucket bites.
        let report = tenants_report_seeded(SWEEP_SEED, *SWEEP_LOADS.last().unwrap());
        assert!(
            report
                .shed
                .iter()
                .any(|s| s.class == SloClass::Batch && s.reason == ShedReason::RateLimited),
            "lab-metered must hit its rate limit at 4x load"
        );
    }

    #[test]
    fn interactive_p99_holds_its_bound_across_the_sweep() {
        let bound = sweep_config().interactive.slo_bound;
        for p in tenants_sweep() {
            assert!(
                p.interactive_p99 <= bound,
                "load {}: interactive p99 {} blew the {} bound",
                p.load,
                p.interactive_p99,
                bound
            );
        }
    }
}
