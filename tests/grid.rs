//! Regression pin for the exact capacity grid (`repro grid`): all 480
//! cells of `sn_bench::grid::grid()` run exactly, and each cell's seven
//! headline metrics fold, as raw `f64` bits, into one FNV-1a digest.
//!
//! Any change to the serving model or the switch-bound classification
//! legitimately moves the pin; re-pin it after checking the change. A
//! refactor of the grid harness must leave it where it is.

// The shrinking harness and case generator go unused here.
#[allow(dead_code)]
mod common;

use common::Fnv;
use sn_bench::grid::{grid_jobs, GridCase, GridMetrics};
use std::fmt::Write;

/// Worker threads the cells fan across. Results merge in grid order, so
/// the digest does not depend on it.
const JOBS: usize = 2;

/// `(bytes written, FNV-1a)` of the rendered grid.
const GRID_PIN: (usize, u64) = (66480, 0x035e_d722_aa67_8241);

/// One line per cell: its coordinates, then the metrics as hex `f64`
/// bits in a fixed order.
fn render(case: &GridCase, m: &GridMetrics) -> String {
    let mut line = format!(
        "n{} x{:?} {} {}",
        case.nodes, case.load, case.chaos, case.batch_heavy
    );
    for v in [
        m.interactive_p99_ms,
        m.batch_p99_ms,
        m.interactive_goodput_rps,
        m.batch_goodput_rps,
        m.hbm_hit_rate,
        m.switch_bound_fraction,
        m.makespan_ms,
    ] {
        write!(line, " {:016x}", v.to_bits()).expect("string write");
    }
    line.push('\n');
    line
}

#[test]
fn exact_grid_matches_its_pinned_digest() {
    let cells = grid_jobs(JOBS);
    assert_eq!(cells.len(), 480);
    let first = render(&cells[0].0, &cells[0].1);
    assert!(
        first.starts_with("n2 x0.25 false false 406f987b4169dac4"),
        "first cell: {first}"
    );
    let mut digest = Fnv::new();
    for (case, metrics) in &cells {
        digest
            .write_str(&render(case, metrics))
            .expect("digest write");
    }
    assert_eq!(digest.pin(), GRID_PIN);
}
