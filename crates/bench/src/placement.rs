//! Placement-policy chaos sweep (`repro -- placement`): reactive vs
//! stats-driven serving under HBM pressure.
//!
//! One fixed scenario, swept over `(policies on/off) × (chaos on/off) ×
//! (load multiplier)`: the paper's CoE-150 expert library on a 2-node
//! cluster whose per-wave working set deliberately exceeds the
//! 36-experts-per-node HBM budget, so plain LRU thrashes — the experts a
//! wave starts with get evicted by the experts it ends with, and every
//! wave re-pays the 13.48 GB DDR→HBM switch for weights it used moments
//! ago. The chaos variant crams both nodes' working sets onto one
//! survivor mid-burst, which is when the memory wall bites hardest.
//!
//! The policy rows turn on the [`sn_coe::placement`] bundle: router
//! statistics feed a predictive prefetcher (staging evicted-but-hot
//! experts at wave boundaries, charged through the memsim DMA model), a
//! placement policy (hot-expert replication + cold spreading on a
//! cadence), and a paged KV cache under the shared HBM budget. The
//! claim the table carries: policies **on** shows a higher expert
//! hit rate and a lower switch-bound phase fraction (classified by
//! `sn-profile` roofline attribution) than policies **off** on the same
//! scenario — the speculation itself never changes served outputs (see
//! the property tests in `sn-coe`).
//!
//! Every sweep point is a pure function of `(seed, case)` — fresh
//! cluster, fresh chaos schedule, fresh policy bundle — so the sweep
//! routes through the ordered-merge engine with the usual bit-for-bit
//! `parallel == sequential` contract at any `--jobs` count.

use sn_arch::{Bytes, Flops, NodeSpec, TimeSecs};
use sn_coe::scheduler::ArrivalPattern;
use sn_coe::{
    ClassPolicy, CoeCluster, ExpertLibrary, PagedKvConfig, PlacementPolicy, PolicyConfig,
    PrefetchPolicy, RateLimit, ServingPolicies, SloClass, TenancyConfig, TenancyReport, TenantSpec,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_profile::{Bound, MachineProfile, PhaseKind, PhaseSample, ServeAttribution};

/// Seed shared by every sweep point.
pub const SWEEP_SEED: u64 = 0x51ac;

/// Nodes the cluster starts with. Two is the smallest cluster where
/// placement (replication, cold moves) can act at all, and it keeps the
/// per-node expert count (75) far above the ~36-expert HBM budget.
pub const SWEEP_NODES: usize = 2;

/// Experts in the library — the paper's CoE-150 composition (§I).
pub const SWEEP_EXPERTS: usize = 150;

/// Prompt length of every tenant request.
pub const SWEEP_PROMPT_TOKENS: usize = 512;

/// Decode slots per node per wave. 72 slots across 150 experts draw
/// ~45+ distinct experts per node-wave: well past the ~36-expert HBM
/// budget, so the reactive path thrashes and the policies have
/// something to win.
pub const SWEEP_SLOTS_PER_NODE: usize = 72;

/// Baseline interactive requests at multiplier 1.0.
pub const BASE_INTERACTIVE_REQUESTS: usize = 96;

/// Baseline batch requests at multiplier 1.0.
pub const BASE_BATCH_REQUESTS: usize = 32;

/// Offered-load multipliers swept.
pub const SWEEP_LOADS: &[f64] = &[1.0, 2.0];

/// The chaos outage: node 1 crashes during the arrival burst and its
/// whole working set crams onto node 0.
pub const OUTAGE_NODE: usize = 1;

/// Outage window start, in model time. The waves of this scenario are
/// big (~1 s of model time each), so the chaos windows span several
/// waves — a sub-wave outage would open and close between two
/// boundaries and never be observed.
pub const OUTAGE_START: TimeSecs = TimeSecs::from_secs(0.2);

/// Outage window end: the crashed node restores here (≈ five waves of
/// single-survivor serving, long enough that every active expert
/// re-homes onto node 0).
pub const OUTAGE_END: TimeSecs = TimeSecs::from_secs(6.0);

/// End of the degraded-fabric window (congestion outlives the crash:
/// the restored node re-fills HBM over the same links).
pub const FABRIC_WINDOW_END: TimeSecs = TimeSecs::from_secs(10.0);

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementCase {
    /// Whether the serving-policy bundle is enabled.
    pub policies: bool,
    /// Whether the chaos schedule is applied.
    pub chaos: bool,
    /// Offered-load multiplier.
    pub load: f64,
}

/// One row of the placement sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSweepPoint {
    /// The grid cell this row evaluated.
    pub case: PlacementCase,
    /// Requests submitted across all tenants.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed, all reasons.
    pub shed: usize,
    /// Serving waves executed.
    pub waves: usize,
    /// Model time to drain the scenario.
    pub makespan: TimeSecs,
    /// Expert activations served from HBM.
    pub expert_hits: usize,
    /// Expert activations that paid the DDR→HBM switch.
    pub expert_misses: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Cumulative demand switch time across all waves.
    pub switch_time: TimeSecs,
    /// Share of the serve classified DDR-/switching-bound by the
    /// `sn-profile` roofline attribution.
    pub switch_bound_fraction: f64,
    /// Speculative loads issued (0 with policies off).
    pub prefetch_issued: u64,
    /// Speculations claimed by demand activations.
    pub prefetch_hits: u64,
    /// `prefetch_hits / prefetch_issued`.
    pub prefetch_accuracy: f64,
    /// Bytes staged for experts that expired unused.
    pub prefetch_wasted: Bytes,
    /// Hot-expert replicas created.
    pub experts_replicated: u64,
    /// Cold experts re-homed off hot nodes.
    pub cold_moves: u64,
    /// KV pages allocated into HBM.
    pub kv_pages_in: u64,
    /// KV pages evicted under budget pressure.
    pub kv_pages_evicted: u64,
    /// Evicted live pages that refilled DDR→HBM.
    pub kv_refaults: u64,
    /// Background-transfer time the waves could not hide.
    pub transfer_exposed: TimeSecs,
    /// Whether `submitted = completed + shed` held exactly.
    pub conserved: bool,
}

/// The full sweep grid, in fixed order: for each load, the four
/// `(policies, chaos)` corners with the reactive baseline first.
pub fn sweep_grid() -> Vec<PlacementCase> {
    let mut grid = Vec::new();
    for &load in SWEEP_LOADS {
        for &(policies, chaos) in &[(false, false), (false, true), (true, false), (true, true)] {
            grid.push(PlacementCase {
                policies,
                chaos,
                load,
            });
        }
    }
    grid
}

/// The class policies and engine tuning every point shares. Interactive
/// requests are multi-chunk here (unlike the `tenants` sweep) so wave
/// residents re-activate their experts wave after wave — exactly the
/// access pattern LRU thrash punishes and prefetch rescues.
pub fn sweep_config() -> TenancyConfig {
    TenancyConfig {
        seed: SWEEP_SEED,
        prompt_tokens: SWEEP_PROMPT_TOKENS,
        wave_tokens: 8,
        per_node_slots: SWEEP_SLOTS_PER_NODE,
        interactive: ClassPolicy {
            queue_cap: 512,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(2.0),
            chunks: 4,
        },
        batch: ClassPolicy {
            queue_cap: 512,
            deadline: TimeSecs::from_secs(120.0),
            slo_bound: TimeSecs::from_secs(30.0),
            chunks: 6,
        },
        max_waves: 100_000,
    }
}

/// The tenant mix at a given load multiplier: a steady interactive
/// stream, a bursty interactive tenant whose burst train peaks inside
/// the outage window, and a batch backlog that lands at t = 0.
pub fn sweep_tenants(load: f64) -> Vec<TenantSpec> {
    let scaled = |base: usize| ((base as f64 * load).round() as usize).max(1);
    vec![
        TenantSpec {
            name: "chat-steady".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "chat-bursty".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::BurstTrain {
                size: 16,
                period: TimeSecs::from_millis(50.0),
            },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
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

/// The chaos schedule the chaos rows replay: [`OUTAGE_NODE`] crashes at
/// [`OUTAGE_START`] and restores at [`OUTAGE_END`], while the socket
/// fabric runs degraded until [`FABRIC_WINDOW_END`].
pub fn sweep_chaos(seed: u64) -> ChaosSchedule {
    ChaosSchedule::new(seed)
        .with_outage(&[OUTAGE_NODE], OUTAGE_START, Some(OUTAGE_END))
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

/// The policy bundle the policy rows enable. Placement is the heavy
/// hitter: the chaos outage re-homes every active expert onto the
/// survivor, and without a policy the cluster *stays* lopsided after
/// the crashed node restores — so cold moves aggressively spread the
/// pile-up back out and replicas put the hottest experts on both
/// nodes. The prefetcher stages a handful of evicted-but-hot experts
/// per wave boundary, and the paged KV cache models decode context
/// under a 32 GiB slice of the HBM budget.
pub fn sweep_policy_config() -> PolicyConfig {
    PolicyConfig {
        ewma_alpha: 0.25,
        prefetch: Some(PrefetchPolicy {
            threshold: 0.35,
            max_per_wave: 8,
        }),
        placement: Some(PlacementPolicy {
            hot_threshold: 0.5,
            max_replicas_per_eval: 4,
            max_cold_moves: 12,
        }),
        placement_cadence: 4,
        kv: Some(PagedKvConfig {
            page_tokens: 16,
            page_bytes: Bytes::from_mib(8),
            budget: Bytes::from_gib(32),
        }),
    }
}

/// Runs the full scenario report for one `(seed, case)` point. With
/// `case.policies` off this is exactly `serve_tenants` — the reactive
/// baseline the policy rows are measured against.
///
/// # Panics
///
/// Panics if the expert library cannot be placed on the starting
/// cluster (a configuration bug, not a runtime condition).
pub fn placement_report_seeded(seed: u64, case: PlacementCase) -> TenancyReport {
    let mut cluster = CoeCluster::new(
        NodeSpec::sn40l_node(),
        SWEEP_NODES,
        ExpertLibrary::new(SWEEP_EXPERTS),
        SWEEP_PROMPT_TOKENS,
    )
    .expect("sweep library fits the starting cluster");
    let mut config = sweep_config();
    config.seed = seed;
    let chaos = case.chaos.then(|| sweep_chaos(seed));
    let tenants = sweep_tenants(case.load);
    if case.policies {
        let mut policies = ServingPolicies::new(SWEEP_EXPERTS, sweep_policy_config());
        cluster
            .serve_tenants_with_policies(
                &tenants,
                &config,
                chaos.as_ref(),
                None,
                Some(&mut policies),
            )
            .expect("placement scenario serves")
    } else {
        cluster
            .serve_tenants(&tenants, &config, chaos.as_ref(), None)
            .expect("placement scenario serves")
    }
}

/// Classifies one report's time through the `sn-profile` roofline
/// attribution and returns the switch-bound share: the fraction of the
/// serve bound by the DDR expert-switch path (demand switches plus any
/// exposed background transfers), against decode streaming the rest of
/// the time. `node` is the spec the report's cluster was built from and
/// `experts` its library size, so each scenario classifies against its
/// own bandwidths and per-expert switch bytes. Deterministic: a pure
/// function of its arguments.
pub fn switch_bound_fraction(report: &TenancyReport, node: &NodeSpec, experts: usize) -> f64 {
    let machine = MachineProfile::from_node(node).scale(report.final_nodes.max(1) as f64);
    let expert_bytes = ExpertLibrary::new(experts).expert_bytes();
    let policy = report.policy.unwrap_or_default();
    let switch_time = report.switch_time + policy.transfer_exposed;
    let switch_bytes = expert_bytes.scale(report.expert_misses as f64)
        + expert_bytes.scale(policy.prefetch_issued as f64);
    let serve_time = if report.makespan > switch_time {
        report.makespan - switch_time
    } else {
        TimeSecs::ZERO
    };
    // Decode streams weights from HBM at ~2 ops/byte (§VI-B): model the
    // non-switching remainder as full-rate weight streaming.
    let serve_bytes = machine.hbm_bandwidth * serve_time;
    let attribution = ServeAttribution::from_samples(
        machine,
        vec![
            PhaseSample {
                kind: PhaseKind::Switching,
                time: switch_time,
                flops: Flops::ZERO,
                hbm_bytes: switch_bytes,
                ddr_bytes: switch_bytes,
            },
            PhaseSample {
                kind: PhaseKind::Decode,
                time: serve_time,
                flops: Flops::new(serve_bytes.as_f64() * 2.0),
                hbm_bytes: serve_bytes,
                ddr_bytes: Bytes::ZERO,
            },
        ],
    );
    attribution.bound_fraction(Bound::DdrBandwidth) + attribution.bound_fraction(Bound::Switching)
}

/// Summarizes one sweep point.
pub fn placement_point(case: PlacementCase) -> PlacementSweepPoint {
    placement_point_seeded(SWEEP_SEED, case)
}

/// [`placement_point`] with an explicit seed — the differential tests
/// sweep several seeds to show the parallel/sequential bit-identity is
/// not an artifact of one lucky arrival pattern.
pub fn placement_point_seeded(seed: u64, case: PlacementCase) -> PlacementSweepPoint {
    let report = placement_report_seeded(seed, case);
    let policy = report.policy.unwrap_or_default();
    PlacementSweepPoint {
        case,
        submitted: report.submitted,
        completed: report.records.len(),
        shed: report.shed.len(),
        waves: report.waves,
        makespan: report.makespan,
        expert_hits: report.expert_hits,
        expert_misses: report.expert_misses,
        hit_rate: report.expert_hit_rate(),
        switch_time: report.switch_time,
        switch_bound_fraction: switch_bound_fraction(
            &report,
            &NodeSpec::sn40l_node(),
            SWEEP_EXPERTS,
        ),
        prefetch_issued: policy.prefetch_issued,
        prefetch_hits: policy.prefetch_hits,
        prefetch_accuracy: policy.prefetch_accuracy(),
        prefetch_wasted: policy.prefetch_wasted,
        experts_replicated: policy.experts_replicated,
        cold_moves: policy.cold_moves,
        kv_pages_in: policy.kv_pages_in,
        kv_pages_evicted: policy.kv_pages_evicted,
        kv_refaults: policy.kv_refaults,
        transfer_exposed: policy.transfer_exposed,
        conserved: report.conservation_holds(),
    }
}

/// The full grid sweep, sequentially.
pub fn placement_sweep() -> Vec<PlacementSweepPoint> {
    placement_sweep_jobs(1)
}

/// [`placement_sweep`] fanned across `jobs` worker threads via the
/// ordered-merge engine. Bit-identical to `placement_sweep()` for every
/// `jobs` value: each point builds its own cluster, chaos schedule, and
/// policy bundle.
pub fn placement_sweep_jobs(jobs: usize) -> Vec<PlacementSweepPoint> {
    placement_sweep_seeded_jobs(SWEEP_SEED, jobs)
}

/// [`placement_sweep_jobs`] with an explicit scenario seed.
pub fn placement_sweep_seeded_jobs(seed: u64, jobs: usize) -> Vec<PlacementSweepPoint> {
    let grid = sweep_grid();
    crate::par::ordered_map(jobs, &grid, |_, &case| placement_point_seeded(seed, case))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(chaos: bool, load: f64) -> PlacementCase {
        PlacementCase {
            policies: true,
            chaos,
            load,
        }
    }

    fn off(chaos: bool, load: f64) -> PlacementCase {
        PlacementCase {
            policies: false,
            chaos,
            load,
        }
    }

    #[test]
    fn points_are_deterministic() {
        let a = placement_point(on(true, 1.0));
        let b = placement_point(on(true, 1.0));
        assert_eq!(a, b, "same case, same row");
    }

    #[test]
    fn every_row_conserves_requests_and_kv_pages() {
        for p in placement_sweep() {
            assert!(p.conserved, "case {:?} leaked requests", p.case);
            assert_eq!(p.submitted, p.completed + p.shed);
            assert!(
                p.kv_pages_in >= p.kv_pages_evicted,
                "case {:?}: more pages evicted than allocated",
                p.case
            );
        }
    }

    #[test]
    fn scenario_pressures_the_hbm_budget() {
        // The quiet baseline already misses heavily (the ~90-expert
        // working set exceeds the ~36-expert per-node residency budget),
        // and the bursty chaos scenario tips it into outright thrash:
        // more cold switches than warm hits, with a substantial share of
        // the serve pinned on the DDR switch path.
        let quiet = placement_point(off(false, 1.0));
        assert!(
            quiet.expert_misses > 100,
            "working set must exceed the residency budget ({} misses)",
            quiet.expert_misses
        );
        let stressed = placement_point(off(true, 2.0));
        assert!(
            stressed.expert_misses > stressed.expert_hits,
            "chaos at 2x load must thrash the baseline ({} hits / {} misses)",
            stressed.expert_hits,
            stressed.expert_misses
        );
        assert!(
            stressed.switch_bound_fraction > 0.25,
            "switch path must be a major fraction ({:.3})",
            stressed.switch_bound_fraction
        );
        assert!(
            stressed.hit_rate < quiet.hit_rate,
            "chaos must cost hit rate ({:.3} vs {:.3})",
            stressed.hit_rate,
            quiet.hit_rate
        );
    }

    #[test]
    fn policies_beat_the_reactive_baseline_under_chaos() {
        // The acceptance criterion: under the bursty-arrival chaos
        // scenario, policies on shows a measurable cold-switch penalty
        // reduction — a higher HBM hit rate and less absolute time on
        // the DDR switch path at every load, and a lower switch-bound
        // share of the serve in the 2x bursty scenario.
        for &load in SWEEP_LOADS {
            let reactive = placement_point(off(true, load));
            let managed = placement_point(on(true, load));
            assert!(
                managed.hit_rate > reactive.hit_rate,
                "load {load}: hit rate {:.3} (on) <= {:.3} (off)",
                managed.hit_rate,
                reactive.hit_rate
            );
            assert!(
                managed.switch_time < reactive.switch_time,
                "load {load}: switch time {} (on) >= {} (off)",
                managed.switch_time,
                reactive.switch_time
            );
            assert!(
                managed.makespan < reactive.makespan,
                "load {load}: makespan {} (on) >= {} (off)",
                managed.makespan,
                reactive.makespan
            );
            assert!(managed.prefetch_issued > 0);
            assert!(managed.prefetch_hits > 0);
        }
        // Fraction-of-serve attribution win on the heaviest bursty case
        // (at 1x both numerator and denominator shrink, so the share is
        // roughly flat; at 2x the switch share itself drops).
        let reactive = placement_point(off(true, 2.0));
        let managed = placement_point(on(true, 2.0));
        assert!(
            managed.switch_bound_fraction < reactive.switch_bound_fraction,
            "2x: switch-bound {:.3} (on) >= {:.3} (off)",
            managed.switch_bound_fraction,
            reactive.switch_bound_fraction
        );
    }

    #[test]
    fn policy_rows_report_policy_activity_and_baseline_rows_do_not() {
        let managed = placement_point(on(false, 1.0));
        assert!(managed.prefetch_issued > 0);
        assert!(managed.kv_pages_in > 0);
        let reactive = placement_point(off(false, 1.0));
        assert_eq!(reactive.prefetch_issued, 0);
        assert_eq!(reactive.kv_pages_in, 0);
        assert_eq!(reactive.experts_replicated, 0);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let seq = placement_sweep_jobs(1);
        let par = placement_sweep_jobs(3);
        assert_eq!(seq, par, "ordered-merge contract");
    }
}
