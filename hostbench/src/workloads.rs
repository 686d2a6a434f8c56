//! The benchmark's input generator. Every workload is a fixed list of
//! cells (one op's inputs each); the seed drives every arrival stream,
//! prompt stream and chaos draw inside a cell, so the same seed always
//! gives the same inputs.

use sn_arch::{Bytes, TimeSecs};
use sn_coe::scheduler::ArrivalPattern;
use sn_coe::{
    AutoscaleConfig, ClassPolicy, PagedKvConfig, PlacementPolicy, PolicyConfig, PrefetchPolicy,
    RateLimit, SloClass, TenancyConfig, TenantSpec,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_models::Benchmark;
use sn_obs::{AlertCondition, AlertRule, LabelSet, ObsConfig, RecorderConfig, SeriesKey};

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CoE-150 on 2 nodes with serving policies on: the policy boundary.
    PolicyThrash,
    /// Many small blind tenant scenarios: cluster construction.
    TenantGrid,
    /// 16 nodes under an outage with sn-obs and sn-trace attached.
    ObservedOutage,
    /// The 17 Table II benchmarks through models, compiler and runtime.
    PaperCompile,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PolicyThrash,
        Workload::TenantGrid,
        Workload::ObservedOutage,
        Workload::PaperCompile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PolicyThrash => "policy-thrash",
            Workload::TenantGrid => "tenant-grid",
            Workload::ObservedOutage => "observed-outage",
            Workload::PaperCompile => "paper-compile",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How strongly the workload's op times follow the host's speed, as
    /// a power of the reference kernel's time (see [`crate::speed`]): the
    /// log ratio of its per-class median op times between the host's slow
    /// and fast states over the kernel's. Measured on the reference host
    /// over 120-200 s runs that crossed both states (kernel 0.75-0.79 ms
    /// fast, 1.06-1.15 ms slow): ops of the other workloads slow down
    /// 1.57-1.63x while the kernel slows 1.41-1.45x, policy-thrash's ops
    /// only 1.18x.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::PolicyThrash => 0.5,
            Workload::TenantGrid => 1.3,
            Workload::ObservedOutage => 1.25,
            Workload::PaperCompile => 1.3,
        }
    }
}

/// How much of the telemetry stack a serving cell attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// No `Obs` pipeline, no `Tracer`.
    Blind,
    /// The sn-obs pipeline only.
    ObsOnly,
    /// The sn-obs pipeline and an enabled `Tracer`, both exported.
    Full,
}

/// One serving op's inputs.
#[derive(Debug)]
pub struct ServeCell {
    /// Nodes the cluster starts with.
    pub nodes: usize,
    /// Experts in the library.
    pub experts: usize,
    /// Tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Engine configuration, seeded.
    pub config: TenancyConfig,
    /// Chaos schedule, seeded.
    pub chaos: Option<ChaosSchedule>,
    /// Autoscaler bounds, if the autoscaler runs.
    pub autoscale: Option<AutoscaleConfig>,
    /// Serving policies, if on.
    pub policies: Option<PolicyConfig>,
    /// Telemetry attached to the op.
    pub telemetry: Telemetry,
    /// Pipeline configuration when telemetry is attached.
    pub obs: ObsConfig,
}

/// One op's inputs.
#[derive(Debug)]
pub enum Cell {
    /// A multi-tenant serve.
    Serve(Box<ServeCell>),
    /// Build, compile and run one Table II benchmark.
    Compile(Box<Benchmark>),
}

/// Prompt length of every serving request.
pub const PROMPT_TOKENS: usize = 512;

/// Draws of each configuration in workloads with few configurations.
/// Host time per op follows the drawn streams (KV evictions, waves), so
/// a run averages over several draws to keep seed-to-seed spread low.
const REPLICAS: usize = 3;

/// A workload's inputs: its cells, in the order ops visit them, grouped
/// into runs of `classes` consecutive cells. Cell `i` belongs to op class
/// `i % classes`; the ops of one class do the same kind of work, so a run
/// that ends on a group boundary holds equally many ops of every class.
#[derive(Debug)]
pub struct Inputs {
    /// Every op's inputs.
    pub cells: Vec<Cell>,
    /// Op classes per group (a divisor of `cells.len()`).
    pub classes: usize,
}

/// The inputs of `workload` at `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let cells = match workload {
        Workload::PolicyThrash => policy_thrash(seed),
        Workload::TenantGrid => tenant_grid(seed),
        Workload::ObservedOutage => observed_outage(seed),
        Workload::PaperCompile => {
            let cells = paper_compile(seed);
            let classes = cells.len() / COMPILE_PASSES;
            return Inputs { cells, classes };
        }
    };
    let classes = cells.len();
    Inputs { cells, classes }
}

/// splitmix64: a cell's seed from the run seed and the cell index, so
/// cells of one run draw independent streams.
fn cell_seed(seed: u64, cell: usize) -> u64 {
    let mut z = seed ^ (cell as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scaled(base: usize, load: f64) -> usize {
    ((base as f64 * load).round() as usize).max(1)
}

fn tenant(
    name: &str,
    class: SloClass,
    pattern: ArrivalPattern,
    requests: usize,
    rate_limit: RateLimit,
) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        class,
        pattern,
        requests,
        rate_limit,
    }
}

fn class(queue_cap: usize, deadline_s: f64, slo_s: f64, chunks: usize) -> ClassPolicy {
    ClassPolicy {
        queue_cap,
        deadline: TimeSecs::from_secs(deadline_s),
        slo_bound: TimeSecs::from_secs(slo_s),
        chunks,
    }
}

fn fabric_chaos(
    seed: u64,
    nodes: &[usize],
    start: f64,
    end: f64,
    fabric_end: f64,
) -> ChaosSchedule {
    ChaosSchedule::new(seed)
        .with_outage(
            nodes,
            TimeSecs::from_secs(start),
            Some(TimeSecs::from_secs(end)),
        )
        .with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.10,
                slow_rate: 0.25,
                slow_factor: 1.5,
            },
            TimeSecs::from_secs(start),
            TimeSecs::from_secs(fabric_end),
        )
}

// --- policy-thrash -------------------------------------------------------

/// Decode slots per node per wave: 72 slots over 150 experts draw well
/// past the ~36-experts-per-node HBM budget, so LRU thrashes.
const THRASH_SLOTS: usize = 72;
/// Interactive requests per interactive tenant at load 1.
const THRASH_INTERACTIVE: usize = 24;
/// Batch backlog at load 1.
const THRASH_BATCH: usize = 8;
/// KV budgets, GiB: below the decode-context demand, near it, above it.
const THRASH_KV_GIB: [u64; 3] = [4, 16, 64];

/// `(load, chaos)` pairs crossed with [`THRASH_KV_GIB`]. With
/// [`REPLICAS`] that is 45 op classes, an odd count, so the op-time
/// median is one class's time rather than a point between two classes.
const THRASH_LOADS: [(f64, bool); 5] = [
    (1.0, false),
    (1.0, true),
    (1.5, false),
    (2.0, false),
    (2.0, true),
];

fn policy_thrash(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for _ in 0..REPLICAS {
        for &(load, chaos) in &THRASH_LOADS {
            for &kv_gib in &THRASH_KV_GIB {
                let s = cell_seed(seed, cells.len());
                cells.push(Cell::Serve(Box::new(ServeCell {
                    nodes: 2,
                    experts: 150,
                    tenants: vec![
                        tenant(
                            "chat-steady",
                            SloClass::Interactive,
                            ArrivalPattern::Poisson { rate_rps: 150.0 },
                            scaled(THRASH_INTERACTIVE, load),
                            RateLimit::unlimited(),
                        ),
                        tenant(
                            "chat-bursty",
                            SloClass::Interactive,
                            ArrivalPattern::BurstTrain {
                                size: 16,
                                period: TimeSecs::from_millis(50.0),
                            },
                            scaled(THRASH_INTERACTIVE, load),
                            RateLimit::unlimited(),
                        ),
                        tenant(
                            "lab-backlog",
                            SloClass::Batch,
                            ArrivalPattern::Burst,
                            scaled(THRASH_BATCH, load),
                            RateLimit::unlimited(),
                        ),
                    ],
                    config: TenancyConfig {
                        seed: s,
                        prompt_tokens: PROMPT_TOKENS,
                        wave_tokens: 8,
                        per_node_slots: THRASH_SLOTS,
                        interactive: class(512, 30.0, 2.0, 4),
                        batch: class(512, 120.0, 30.0, 6),
                        max_waves: 100_000,
                    },
                    chaos: chaos.then(|| fabric_chaos(s, &[1], 0.2, 6.0, 10.0)),
                    autoscale: None,
                    policies: Some(PolicyConfig {
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
                            budget: Bytes::from_gib(kv_gib),
                        }),
                    }),
                    telemetry: Telemetry::Blind,
                    obs: ObsConfig::default(),
                })));
            }
        }
    }
    cells
}

// --- paper-compile -------------------------------------------------------

/// Passes over the Table II suite before a run would compile a graph a
/// second time; about 100 passes fit in 20 s on a 2-core host.
const COMPILE_PASSES: usize = 150;

/// Every pass presents the compiler graphs it has not seen in this run:
/// pass `p` shortens each benchmark's sequence by `8 * (p + seed % 16)`
/// tokens (operator counts stay the same; FlashFFTConv has no sequence
/// knob and repeats). A compile cache therefore cannot hit here, so what
/// caching costs a first-time compile shows.
fn paper_compile(seed: u64) -> Vec<Cell> {
    let suite = sn_models::table2();
    let shift = (seed % 16) as usize;
    (0..COMPILE_PASSES)
        .flat_map(|pass| {
            suite.iter().map(move |b| {
                let mut b = b.clone();
                if !b.fft_conv {
                    b.seq -= 8 * (pass + shift);
                }
                Cell::Compile(Box::new(b))
            })
        })
        .collect()
}

// --- tenant-grid ---------------------------------------------------------

/// Offered-load multipliers of the grid.
const GRID_LOADS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 6.0];

fn grid_tenants(batch_heavy: bool, load: f64) -> Vec<TenantSpec> {
    let (interactive, batch) = if batch_heavy { (12, 48) } else { (48, 24) };
    vec![
        tenant(
            "chat-steady",
            SloClass::Interactive,
            ArrivalPattern::Poisson { rate_rps: 120.0 },
            scaled(interactive, load),
            RateLimit::unlimited(),
        ),
        tenant(
            "chat-bursty",
            SloClass::Interactive,
            ArrivalPattern::BurstTrain {
                size: 8,
                period: TimeSecs::from_millis(100.0),
            },
            scaled(interactive, load),
            RateLimit::unlimited(),
        ),
        tenant(
            "lab-metered",
            SloClass::Batch,
            ArrivalPattern::Poisson { rate_rps: 60.0 },
            scaled(batch, load),
            RateLimit::per_sec(40.0, 16.0),
        ),
        tenant(
            "lab-backlog",
            SloClass::Batch,
            ArrivalPattern::Burst,
            scaled(batch, load),
            RateLimit::unlimited(),
        ),
    ]
}

fn small_tenancy_config(seed: u64) -> TenancyConfig {
    TenancyConfig {
        seed,
        prompt_tokens: PROMPT_TOKENS,
        wave_tokens: 8,
        per_node_slots: 4,
        interactive: class(64, 2.0, 1.0, 1),
        batch: class(256, 30.0, 10.0, 4),
        max_waves: 100_000,
    }
}

fn autoscale(min_nodes: usize, max_nodes: usize) -> AutoscaleConfig {
    AutoscaleConfig {
        min_nodes,
        max_nodes,
        latency_high: TimeSecs::from_millis(400.0),
        latency_low: TimeSecs::from_millis(40.0),
        patience: 2,
        cooldown: 4,
        window: 16,
    }
}

fn tenant_grid(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for nodes in 2..=6usize {
        for &chaos in &[false, true] {
            for &batch_heavy in &[false, true] {
                for &load in &GRID_LOADS {
                    let s = cell_seed(seed, cells.len());
                    let outage: Vec<usize> = if nodes <= 3 {
                        vec![nodes - 1]
                    } else {
                        vec![nodes - 2, nodes - 1]
                    };
                    cells.push(Cell::Serve(Box::new(ServeCell {
                        nodes,
                        experts: 120,
                        tenants: grid_tenants(batch_heavy, load),
                        config: small_tenancy_config(s),
                        chaos: chaos.then(|| fabric_chaos(s, &outage, 0.05, 0.60, 1.20)),
                        autoscale: Some(autoscale(2, nodes + 2)),
                        policies: None,
                        telemetry: Telemetry::Blind,
                        obs: ObsConfig::default(),
                    })));
                }
            }
        }
    }
    cells
}

// --- observed-outage -----------------------------------------------------

/// High offered-load multipliers of the four-tenant SLO mix (an odd
/// count, for the same reason as [`THRASH_LOADS`]).
const OUTAGE_LOADS: [f64; 5] = [8.0, 10.0, 12.0, 14.0, 16.0];
/// Nodes the outage cluster starts with.
const OUTAGE_NODES: usize = 16;

fn outage_rules(tenants: &[TenantSpec]) -> Vec<AlertRule> {
    let mut rules: Vec<AlertRule> = tenants
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
                    fast_window: 8,
                    slow_window: 32,
                    factor: 4.0,
                },
            }
        })
        .collect();
    for class in ["interactive", "batch"] {
        rules.push(AlertRule {
            name: format!("shed_rate:{class}"),
            labels: LabelSet::from_pairs(&[("slo_class", class)]),
            condition: AlertCondition::RatioAbove {
                bad: SeriesKey::new("requests_shed", &[("slo_class", class)]),
                total: SeriesKey::new("slo_total", &[("slo_class", class)]),
                threshold: 0.5,
                window: 8,
            },
        });
    }
    rules.push(AlertRule {
        name: "hbm_hit_floor".into(),
        labels: LabelSet::empty(),
        condition: AlertCondition::GaugeBelow {
            series: SeriesKey::new("hbm_hit_rate", &[]),
            threshold: 0.10,
            window: 32,
        },
    });
    rules
}

fn observed_outage(seed: u64) -> Vec<Cell> {
    let loads = OUTAGE_LOADS
        .iter()
        .cycle()
        .take(REPLICAS * OUTAGE_LOADS.len());
    loads
        .enumerate()
        .map(|(i, &load)| {
            let s = cell_seed(seed, i);
            let tenants = grid_tenants(false, load);
            let rules = outage_rules(&tenants);
            Cell::Serve(Box::new(ServeCell {
                nodes: OUTAGE_NODES,
                experts: 480,
                tenants,
                config: small_tenancy_config(s),
                chaos: Some(fabric_chaos(s, &[6, 7], 0.05, 0.60, 1.20)),
                autoscale: Some(autoscale(OUTAGE_NODES - 4, OUTAGE_NODES + 4)),
                policies: None,
                telemetry: Telemetry::Full,
                obs: ObsConfig {
                    registry: Default::default(),
                    recorder: RecorderConfig {
                        ring_capacity: 256,
                        tail_waves: 30,
                    },
                    rules,
                },
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_streams() {
        for w in Workload::ALL {
            let a = format!("{:?}", generate(w, 5));
            assert_eq!(a, format!("{:?}", generate(w, 5)), "{}", w.name());
            assert_ne!(a, format!("{:?}", generate(w, 6)), "{}", w.name());
            let inputs = generate(w, 5);
            assert_eq!(inputs.cells.len() % inputs.classes, 0, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
