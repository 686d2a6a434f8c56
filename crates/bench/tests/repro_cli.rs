//! CLI contract tests for the `repro` binary, run against the built
//! executable via `std::process::Command`. These lock down the
//! machine-facing surface: bad invocations must fail loudly (non-zero
//! exit, a `usage:` line on stderr) instead of silently printing the
//! default experiment set.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_mode_exits_nonzero_with_usage() {
    let out = repro().arg("figure99").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown mode is exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("figure99"),
        "stderr names the bad mode: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "stderr carries a usage line: {stderr}"
    );
    assert!(
        stderr.contains("serve"),
        "usage line advertises the serve mode: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing on stdout for a bad mode");
}

#[test]
fn bad_jobs_values_are_usage_errors() {
    for bad in ["abc", "0", "-3", ""] {
        let out = repro()
            .args(["--jobs", bad, "serve"])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?} is exit code 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs") && stderr.contains("usage:"),
            "stderr explains the bad --jobs value: {stderr}"
        );
    }
}

#[test]
fn serve_report_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let out = repro()
            .args(["--jobs", jobs, "serve"])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "serve --jobs {jobs} succeeds");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(
        sequential,
        run("4"),
        "serve output must not depend on --jobs"
    );
}

#[test]
fn timed_serve_prints_the_wall_clock_comparison() {
    let out = repro()
        .args(["--jobs", "2", "--time", "serve"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sweep wall-clock:") && stdout.contains("at 1 job"),
        "--time adds the 1-job vs N-jobs timing line: {stdout}"
    );
}

#[test]
fn usage_line_advertises_the_tenants_mode() {
    let out = repro().arg("nonsense").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("tenants"),
        "usage line advertises the tenants mode: {stderr}"
    );
}

#[test]
fn bad_jobs_with_tenants_is_a_usage_error() {
    let out = repro()
        .args(["--jobs", "zero", "tenants"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --jobs is exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs") && stderr.contains("usage:"),
        "stderr explains the bad --jobs value: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no table printed on a usage error");
}

#[test]
fn tenants_report_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let out = repro()
            .args(["--jobs", jobs, "tenants"])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "tenants --jobs {jobs} succeeds");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(
        sequential,
        run("4"),
        "tenants output must not depend on --jobs"
    );
    let stdout = String::from_utf8_lossy(&sequential);
    assert!(
        stdout.contains("MULTI-TENANT CHAOS") && stdout.contains("Int p99"),
        "tenants prints the per-class SLO table: {stdout}"
    );
}

#[test]
fn obs_mode_and_export_are_byte_identical_across_jobs() {
    // One shared export path: the printed "wrote <path>" line is part of
    // the byte-identity contract, so it must not vary with --jobs.
    let path = std::env::temp_dir().join(format!("repro_cli_obs_{}.json", std::process::id()));
    let run = |jobs: &str| {
        let out = repro()
            .args(["--jobs", jobs, "--obs"])
            .arg(&path)
            .arg("obs")
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "obs --jobs {jobs} succeeds");
        let json = std::fs::read(&path).expect("--obs writes the export");
        let _ = std::fs::remove_file(&path);
        (out.stdout, json)
    };
    let (seq_stdout, seq_json) = run("1");
    let (par_stdout, par_json) = run("4");
    assert_eq!(
        seq_stdout, par_stdout,
        "obs output must not depend on --jobs"
    );
    assert_eq!(seq_json, par_json, "--obs export must not depend on --jobs");

    let stdout = String::from_utf8_lossy(&seq_stdout);
    assert!(
        stdout.contains("OBSERVABILITY") && stdout.contains("alert timeline:"),
        "obs prints the sweep table and alert timeline: {stdout}"
    );
    assert!(
        stdout.contains("firing") && stdout.contains("resolved"),
        "the seeded chaos run fires and resolves an alert: {stdout}"
    );
    assert!(
        stdout.contains("post-mortem bundles:"),
        "obs prints the captured bundles: {stdout}"
    );

    // The export schema-validates with the vendored JSON parser.
    let text = String::from_utf8(seq_json).expect("export is UTF-8");
    let doc = sn_trace::json::parse(&text).expect("export parses as JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("sn-obs/v1"),
        "export carries the schema tag"
    );
    for key in ["series", "alerts", "postmortems"] {
        assert!(
            doc.get(key).and_then(|v| v.as_array()).is_some(),
            "export carries a {key} array"
        );
    }
    assert!(
        doc.get("waves").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0,
        "export records the observed wave count"
    );
}

#[test]
fn obs_flag_without_a_path_is_a_usage_error() {
    let out = repro().arg("--obs").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bare --obs is exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--obs") && stderr.contains("usage:"),
        "stderr explains the missing --obs path: {stderr}"
    );
}

#[test]
fn bench_check_passes_vacuously_on_an_info_only_snapshot() {
    // A snapshot whose rows are all info entries (no "tolerance" field)
    // has nothing to gate: the comparison must skip every row and pass,
    // not trip on the missing tracked metrics.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/fixtures/info_only.json"
    );
    let out = repro()
        .args(["--bench-check", fixture, fixture])
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "info-only snapshot passes the gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bench check PASSED"),
        "the vacuous comparison still reports PASSED: {stdout}"
    );
}

#[test]
fn grid_report_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let out = repro()
            .args(["--jobs", jobs, "grid"])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "grid --jobs {jobs} succeeds");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(
        sequential,
        run("2"),
        "grid output must not depend on --jobs"
    );
    let stdout = String::from_utf8_lossy(&sequential);
    assert!(
        stdout.contains("GRID") && stdout.contains("480 cells"),
        "grid prints its cell count: {stdout}"
    );
    assert!(
        stdout.contains("longest exact drain"),
        "grid prints the longest exact drain: {stdout}"
    );
}

#[test]
fn usage_line_advertises_the_grid_mode() {
    let out = repro().arg("nonsense").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("grid"),
        "usage line advertises the grid mode: {stderr}"
    );
}

#[test]
fn retired_surrogate_mode_is_an_unknown_experiment() {
    let out = repro()
        .arg("surrogate")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "surrogate is exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'surrogate'") && stderr.contains("usage:"),
        "surrogate gets the usage line: {stderr}"
    );
}

#[test]
fn bench_check_without_baseline_is_a_usage_error() {
    let out = repro()
        .arg("--bench-check")
        .output()
        .expect("repro binary runs");
    assert_ne!(out.status.code(), Some(0), "missing baseline must fail");
    assert!(
        !out.stderr.is_empty(),
        "missing baseline explains itself on stderr"
    );
}
