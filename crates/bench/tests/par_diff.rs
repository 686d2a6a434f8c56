//! Differential tests for the deterministic parallel sweep engine: the
//! parallel path must return the *bit-identical* ordered output of the
//! sequential path — both fault sweeps, the tenant and obs sweeps, and
//! the full bench snapshot. These are the enforcement teeth
//! of the `sn_bench::par` contract; if a sweep point ever grows hidden
//! shared state, these fail before any user sees a jobs-dependent
//! report.

use sn_bench::faults::{cluster_fault_sweep_jobs, node_fault_sweep_jobs};
use sn_bench::profile::bench_snapshot_jobs;
use sn_bench::tenants::{tenants_sweep_jobs, tenants_sweep_seeded_jobs};

#[test]
fn fault_sweeps_parallel_are_bit_identical_to_sequential() {
    assert_eq!(
        node_fault_sweep_jobs(1),
        node_fault_sweep_jobs(4),
        "node fault sweep diverged"
    );
    assert_eq!(
        cluster_fault_sweep_jobs(1),
        cluster_fault_sweep_jobs(4),
        "cluster fault sweep diverged"
    );
}

#[test]
fn tenants_sweep_parallel_is_bit_identical_to_sequential() {
    // The chaos scenario threads seeded randomness through arrival
    // processes, fault-plan draws, chaos windows, and the autoscaler —
    // the most state-rich sweep the binary fans out. It must still be a
    // pure function of (seed, load) per point.
    let sequential = tenants_sweep_jobs(1);
    for jobs in [2, 4] {
        assert_eq!(
            sequential,
            tenants_sweep_jobs(jobs),
            "tenants sweep diverged at {jobs} jobs"
        );
    }
    for seed in [1u64, 0xdead_beef] {
        assert_eq!(
            tenants_sweep_seeded_jobs(seed, 1),
            tenants_sweep_seeded_jobs(seed, 4),
            "tenants sweep diverged for seed {seed:#x}"
        );
    }
}

#[test]
fn obs_sweep_parallel_is_bit_identical_to_sequential() {
    // Each observed point carries its own telemetry pipeline (registry,
    // alert engine, flight recorder) built inside the sweep closure —
    // nothing shared, so the sweep table and every per-point alert and
    // bundle count must be jobs-invariant.
    let sequential = sn_bench::obs::obs_sweep_jobs(1);
    for jobs in [2, 4] {
        assert_eq!(
            sequential,
            sn_bench::obs::obs_sweep_jobs(jobs),
            "obs sweep diverged at {jobs} jobs"
        );
    }
}

#[test]
fn obs_export_json_is_deterministic() {
    // Byte-level: two independently constructed observed runs of the
    // focus point must serialize to the identical `sn-obs/v1` document
    // (BTreeMap-ordered series, fixed key order, shortest-round-trip
    // floats — no hash-order or pointer-order leaks anywhere).
    let (_, a, _) = sn_bench::obs::obs_focus_run();
    let (_, b, _) = sn_bench::obs::obs_focus_run();
    assert_eq!(a.to_json(), b.to_json(), "obs export diverged across runs");
}

#[test]
fn bench_snapshot_parallel_is_byte_identical_to_sequential() {
    // The strongest form: the serialized snapshot — every tracked metric,
    // in order, to the last digit — matches the legacy path, so the
    // continuous-bench gate holds no matter what --jobs CI runs with.
    assert_eq!(
        bench_snapshot_jobs(1).to_json(),
        bench_snapshot_jobs(4).to_json(),
        "bench snapshot diverged"
    );
}
