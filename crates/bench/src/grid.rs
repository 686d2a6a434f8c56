//! Exact capacity grid (`repro -- grid`): the tenants scenario over
//! load × cluster size × chaos × tenant mix, every cell simulated.
//!
//! The tenants sweep runs four load multipliers on one 4-node cluster;
//! the paper's capacity arguments want the whole surface. [`grid`]
//! spans 480 cells — 24 loads × 5 cluster sizes × chaos off/on ×
//! standard/batch-heavy mix — and each cell is a pure function of its
//! coordinates (fresh cluster, fresh chaos schedule, fresh controller),
//! so the grid fans through the ordered-merge jobs engine and is
//! byte-identical at any `--jobs`. The whole grid runs exactly in well
//! under a second of release host time, which is why no predictive model
//! stands in for it (DESIGN.md §11 gives the budget past which one may).

use crate::tenants;
use sn_arch::NodeSpec;
use sn_coe::{CoeCluster, ExpertLibrary, SloClass, TenancyReport, TenantSpec};

/// Load multipliers of the grid: 0.25 .. 6.0 in quarter steps — 24
/// values against the exact sweep's 4.
pub const GRID_LOAD_STEPS: usize = 24;

/// Cluster sizes of the grid (the autoscaler's legal range).
pub const GRID_NODES: &[usize] = &[2, 3, 4, 5, 6];

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCase {
    /// Nodes the cluster starts with.
    pub nodes: usize,
    /// Offered-load multiplier.
    pub load: f64,
    /// Whether the tenants chaos schedule applies.
    pub chaos: bool,
    /// Whether the batch tenants' request counts are doubled.
    pub batch_heavy: bool,
}

/// The full grid in fixed order: nodes, then chaos, then mix, then load
/// (innermost). 480 cells.
pub fn grid() -> Vec<GridCase> {
    let mut cells = Vec::new();
    for &nodes in GRID_NODES {
        for chaos in [false, true] {
            for batch_heavy in [false, true] {
                for step in 1..=GRID_LOAD_STEPS {
                    cells.push(GridCase {
                        nodes,
                        load: step as f64 * 0.25,
                        chaos,
                        batch_heavy,
                    });
                }
            }
        }
    }
    cells
}

/// The tenants-sweep mix at a load multiplier, with the batch tenants'
/// request counts doubled on `batch_heavy` rows.
pub fn grid_tenants(load: f64, batch_heavy: bool) -> Vec<TenantSpec> {
    let mut specs = tenants::sweep_tenants(load);
    if batch_heavy {
        for t in specs.iter_mut() {
            if t.class == SloClass::Batch {
                t.requests *= 2;
            }
        }
    }
    specs
}

/// Runs one grid cell exactly: the tenants-sweep scenario generalized
/// over cluster size, chaos toggle, and mix. The `nodes = 4`, chaos-on,
/// standard-mix cells reproduce `tenants_report_seeded` bit for bit.
///
/// # Panics
///
/// Panics if the expert library cannot be placed on the starting
/// cluster (a configuration bug, not a runtime condition).
pub fn exact_report(case: &GridCase) -> TenancyReport {
    let mut cluster = CoeCluster::new(
        NodeSpec::sn40l_node(),
        case.nodes,
        ExpertLibrary::new(tenants::SWEEP_EXPERTS),
        tenants::SWEEP_PROMPT_TOKENS,
    )
    .expect("grid library fits the starting cluster");
    let config = tenants::sweep_config();
    let chaos = case
        .chaos
        .then(|| tenants::sweep_chaos(tenants::SWEEP_SEED));
    let mut controller = tenants::sweep_controller();
    cluster
        .serve_tenants(
            &grid_tenants(case.load, case.batch_heavy),
            &config,
            chaos.as_ref(),
            Some(&mut controller),
        )
        .expect("grid point serves")
}

/// The headline figures of one exact grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridMetrics {
    /// Interactive end-to-end p99 latency, ms.
    pub interactive_p99_ms: f64,
    /// Batch end-to-end p99 latency, ms.
    pub batch_p99_ms: f64,
    /// Interactive completions inside the class SLO bound, per second.
    pub interactive_goodput_rps: f64,
    /// Batch completions inside the class SLO bound, per second.
    pub batch_goodput_rps: f64,
    /// Share of expert activations served from HBM.
    pub hbm_hit_rate: f64,
    /// Share of the serve classified DDR-/switching-bound.
    pub switch_bound_fraction: f64,
    /// Model time to drain the cell, ms.
    pub makespan_ms: f64,
}

/// Folds an exact report into its [`GridMetrics`]. `node` and `experts`
/// describe the cluster the report came from; they feed the
/// switch-bound classification.
pub fn exact_metrics(report: &TenancyReport, node: &NodeSpec, experts: usize) -> GridMetrics {
    GridMetrics {
        interactive_p99_ms: report
            .latency_percentile(SloClass::Interactive, 0.99)
            .as_millis(),
        batch_p99_ms: report.latency_percentile(SloClass::Batch, 0.99).as_millis(),
        interactive_goodput_rps: report.goodput_rps(SloClass::Interactive),
        batch_goodput_rps: report.goodput_rps(SloClass::Batch),
        hbm_hit_rate: report.expert_hit_rate(),
        switch_bound_fraction: crate::placement::switch_bound_fraction(report, node, experts),
        makespan_ms: report.makespan.as_millis(),
    }
}

/// Runs every cell of [`grid`] exactly, fanned across `jobs` worker
/// threads; returns `(cell, metrics)` in grid order, byte-identical for
/// every `jobs` value.
pub fn grid_jobs(jobs: usize) -> Vec<(GridCase, GridMetrics)> {
    let node = NodeSpec::sn40l_node();
    crate::par::ordered_map(jobs, &grid(), |_, case| {
        (
            *case,
            exact_metrics(&exact_report(case), &node, tenants::SWEEP_EXPERTS),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_at_least_100x_the_exact_sweep() {
        let cells = grid();
        assert!(
            cells.len() >= 100 * tenants::SWEEP_LOADS.len(),
            "{} cells vs {} exact points",
            cells.len(),
            tenants::SWEEP_LOADS.len()
        );
        // Fixed order, no duplicates.
        for (i, a) in cells.iter().enumerate() {
            assert!(!cells[i + 1..].contains(a), "duplicate cell {a:?}");
        }
    }

    #[test]
    fn standard_cells_match_the_exact_sweep_scenario() {
        // The nodes=4 chaos-on standard cell is the tenants sweep point.
        let case = GridCase {
            nodes: tenants::SWEEP_NODES,
            load: 1.0,
            chaos: true,
            batch_heavy: false,
        };
        let a = exact_report(&case);
        let b = tenants::tenants_report_seeded(tenants::SWEEP_SEED, 1.0);
        assert_eq!(a, b, "grid cell must reproduce the sweep bit for bit");
    }
}
