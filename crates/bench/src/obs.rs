//! Observability sweep (`repro obs`): the multi-tenant chaos scenario of
//! [`crate::tenants`] replayed with the `sn-obs` telemetry pipeline
//! enabled — labeled per-tenant series sampled at wave boundaries,
//! SLO burn-rate alert rules, and post-mortem flight-recorder bundles
//! around the correlated outage.
//!
//! Every sweep point runs the scenario **twice**, once observed and once
//! blind, and asserts the two [`TenancyReport`]s are bit-identical: the
//! pipeline only reads serving state, never steers it, so watching the
//! system cannot change what the system does. Points remain pure
//! functions of `(seed, load)` and route through the ordered-merge
//! engine, so tables, dashboards, and `--obs` JSON exports are
//! byte-identical for every `--jobs` value.

use crate::tenants::{
    sweep_chaos, sweep_cluster, sweep_config, sweep_controller, sweep_tenants, SWEEP_LOADS,
    SWEEP_SEED,
};
use sn_coe::TenancyReport;
use sn_obs::{
    sparkline, AlertCondition, AlertKind, AlertRule, LabelSet, Obs, ObsConfig, ObsReport,
    RecorderConfig, SeriesKey,
};

/// Load multiplier the detailed dashboard (and `--obs` export) focuses
/// on: heavy enough that the outage burns real error budget.
pub const OBS_FOCUS_LOAD: f64 = 4.0;

/// Error budget of the burn-rate rules: 5% of outcomes may blow their
/// SLO (shed or finish late) before a tenant's budget is gone.
pub const OBS_ERROR_BUDGET: f64 = 0.05;

/// Fast burn-rate window, in waves (detection + resolution).
pub const OBS_FAST_WINDOW: usize = 8;

/// Slow burn-rate window, in waves (guards against one-wave blips).
pub const OBS_SLOW_WINDOW: usize = 32;

/// Burn-rate multiple that fires a tenant's SLO alert.
pub const OBS_BURN_FACTOR: f64 = 4.0;

/// Waves the flight recorder keeps capturing after an incident opens.
pub const OBS_TAIL_WAVES: usize = 30;

/// The alert rules the scenario watches: one SLO burn-rate rule per
/// tenant over its `slo_bad` / `slo_total` counters, a shed-rate guard
/// per class, and an HBM-hit-rate floor on the cluster gauge.
pub fn obs_rules(load: f64) -> Vec<AlertRule> {
    let mut rules = Vec::new();
    for tenant in sweep_tenants(load) {
        let labels = [
            ("slo_class", tenant.class.name()),
            ("tenant", tenant.name.as_str()),
        ];
        rules.push(AlertRule {
            name: format!("slo_burn:{}", tenant.name),
            labels: LabelSet::from_pairs(&labels),
            condition: AlertCondition::BurnRate {
                bad: SeriesKey::new("slo_bad", &labels),
                total: SeriesKey::new("slo_total", &labels),
                budget: OBS_ERROR_BUDGET,
                fast_window: OBS_FAST_WINDOW,
                slow_window: OBS_SLOW_WINDOW,
                factor: OBS_BURN_FACTOR,
            },
        });
    }
    for class in ["interactive", "batch"] {
        rules.push(AlertRule {
            name: format!("shed_rate:{class}"),
            labels: LabelSet::from_pairs(&[("slo_class", class)]),
            condition: AlertCondition::RatioAbove {
                bad: SeriesKey::new("requests_shed", &[("slo_class", class)]),
                total: SeriesKey::new("slo_total", &[("slo_class", class)]),
                threshold: 0.5,
                window: OBS_FAST_WINDOW,
            },
        });
    }
    rules.push(AlertRule {
        name: "hbm_hit_floor".into(),
        labels: LabelSet::empty(),
        condition: AlertCondition::GaugeBelow {
            series: SeriesKey::new("hbm_hit_rate", &[]),
            threshold: 0.10,
            window: OBS_SLOW_WINDOW,
        },
    });
    rules
}

/// The pipeline configuration every observed point shares.
pub fn obs_config(load: f64) -> ObsConfig {
    ObsConfig {
        registry: Default::default(),
        recorder: RecorderConfig {
            ring_capacity: 256,
            tail_waves: OBS_TAIL_WAVES,
        },
        rules: obs_rules(load),
    }
}

fn run_scenario(seed: u64, load: f64, obs: &Obs) -> TenancyReport {
    let mut cluster = sweep_cluster();
    let mut config = sweep_config();
    config.seed = seed;
    let chaos = sweep_chaos(seed);
    let mut controller = sweep_controller();
    cluster
        .serve_tenants_observed(
            &sweep_tenants(load),
            &config,
            Some(&chaos),
            Some(&mut controller),
            None,
            obs,
        )
        .expect("tenant scenario serves")
}

/// Runs one `(seed, load)` point observed and returns both reports plus
/// whether the observed serving run was bit-identical to a blind one.
pub fn obs_run_seeded(seed: u64, load: f64) -> (TenancyReport, ObsReport, bool) {
    let obs = Obs::enabled(obs_config(load));
    let observed = run_scenario(seed, load, &obs);
    let report = obs.finalize().expect("enabled pipeline finalizes");
    let blind = run_scenario(seed, load, &Obs::disabled());
    let identical = observed == blind;
    (observed, report, identical)
}

/// One row of the observability sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSweepPoint {
    /// Offered-load multiplier.
    pub load: f64,
    /// Serving waves executed.
    pub waves: usize,
    /// Labeled series the registry accumulated.
    pub series: usize,
    /// Raw samples across all series.
    pub samples: u64,
    /// Alert rules that transitioned to firing.
    pub fired: usize,
    /// Alert rules that transitioned back to resolved.
    pub resolved: usize,
    /// Post-mortem bundles frozen.
    pub postmortems: usize,
    /// Requests shed (from the serving report, for cross-checking).
    pub shed: usize,
    /// Whether the observed run was bit-identical to a blind run.
    pub identical: bool,
}

/// Summarizes one sweep point at `load`.
pub fn obs_point_seeded(seed: u64, load: f64) -> ObsSweepPoint {
    let (serving, report, identical) = obs_run_seeded(seed, load);
    ObsSweepPoint {
        load,
        waves: serving.waves,
        series: report.series.len(),
        samples: report.series.iter().map(|(_, b)| b.total_samples()).sum(),
        fired: report.alerts_of(AlertKind::Firing).count(),
        resolved: report.alerts_of(AlertKind::Resolved).count(),
        postmortems: report.postmortems.len(),
        shed: serving.shed.len(),
        identical,
    }
}

/// The full load sweep over [`SWEEP_LOADS`], fanned across `jobs`
/// worker threads via the ordered-merge engine. Bit-identical for every
/// `jobs` value: each point builds its own cluster, chaos schedule,
/// controller, and pipeline.
pub fn obs_sweep_jobs(jobs: usize) -> Vec<ObsSweepPoint> {
    crate::par::ordered_map(jobs, SWEEP_LOADS, |_, &load| {
        obs_point_seeded(SWEEP_SEED, load)
    })
}

/// The focus-load observed run (dashboard + `--obs` export source).
pub fn obs_focus_run() -> (TenancyReport, ObsReport, bool) {
    obs_run_seeded(SWEEP_SEED, OBS_FOCUS_LOAD)
}

/// Renders the per-tenant timeline dashboard for one observed run:
/// per-tenant outcome counts with a sparkline of each tenant's
/// per-wave SLO-violation series, the alert timeline, and a post-mortem
/// bundle summary. Pure formatting — byte-identical for identical
/// reports.
pub fn render_dashboard(report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>7} {:>7} {:>7}  {}\n",
        "Tenant", "Class", "Total", "Bad", "Shed", "slo_bad/wave (recent)"
    ));
    let tenants = sweep_tenants(OBS_FOCUS_LOAD);
    for tenant in &tenants {
        let labels = [
            ("slo_class", tenant.class.name()),
            ("tenant", tenant.name.as_str()),
        ];
        // The downsampling ring conserves mass across compaction, so the
        // bucket sums alone cover every sample ever pushed.
        let sum = |name: &str| {
            report
                .series_buffer(&SeriesKey::new(name, &labels))
                .map(|b| b.buckets().iter().map(|bk| bk.sum).sum::<f64>())
                .unwrap_or(0.0)
        };
        let spark = report
            .series_buffer(&SeriesKey::new("slo_bad", &labels))
            .map(|b| {
                let values: Vec<f64> = b.recent().map(|s| s.value).collect();
                sparkline(&values)
            })
            .unwrap_or_default();
        out.push_str(&format!(
            "{:<14} {:<12} {:>7.0} {:>7.0} {:>7.0}  {}\n",
            tenant.name,
            tenant.class.name(),
            sum("slo_total"),
            sum("slo_bad"),
            sum("requests_shed"),
            spark,
        ));
    }
    out.push_str("\nalert timeline:\n");
    if report.alerts.is_empty() {
        out.push_str("  (no transitions)\n");
    }
    for a in &report.alerts {
        out.push_str(&format!(
            "  wave {:>5}  {:<10} {:<24} burn/value {:>8.2} vs {:<6.2} {}\n",
            a.wave,
            a.kind.name(),
            a.rule,
            a.value,
            a.threshold,
            a.labels.render(),
        ));
    }
    out.push_str("\npost-mortem bundles:\n");
    if report.postmortems.is_empty() {
        out.push_str("  (none captured)\n");
    }
    for pm in &report.postmortems {
        out.push_str(&format!(
            "  {:<28} waves {:>5}..{:<5} {:>4} entries, {:>2} series\n",
            pm.trigger,
            pm.opened_wave,
            pm.closed_wave,
            pm.entries.len(),
            pm.series.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::{OUTAGE_START, SWEEP_LOADS};

    #[test]
    fn points_are_deterministic() {
        let a = obs_point_seeded(SWEEP_SEED, 1.0);
        let b = obs_point_seeded(SWEEP_SEED, 1.0);
        assert_eq!(a, b, "same load, same row");
    }

    #[test]
    fn observing_never_changes_the_serving_run() {
        for &load in SWEEP_LOADS {
            let p = obs_point_seeded(SWEEP_SEED, load);
            assert!(
                p.identical,
                "load {load}: observed run diverged from the blind run"
            );
        }
    }

    #[test]
    fn focus_run_fires_and_resolves_a_burn_rate_alert() {
        let (_, report, identical) = obs_focus_run();
        assert!(identical);
        let fired: Vec<_> = report
            .alerts_of(AlertKind::Firing)
            .filter(|a| a.rule.starts_with("slo_burn:"))
            .collect();
        assert!(
            !fired.is_empty(),
            "outage at 4x load must burn someone's budget; alerts: {:?}",
            report.alerts
        );
        let resolved = report
            .alerts_of(AlertKind::Resolved)
            .any(|a| a.rule.starts_with("slo_burn:"));
        assert!(resolved, "recovery must resolve a burn-rate alert");
    }

    #[test]
    fn postmortem_covers_the_alerting_tenant_through_the_incident() {
        let (_, report, _) = obs_focus_run();
        let fired = report
            .alerts_of(AlertKind::Firing)
            .find(|a| a.rule.starts_with("slo_burn:"))
            .expect("a burn-rate alert fires")
            .clone();
        let pm = report
            .postmortems
            .iter()
            .find(|pm| pm.opened_wave <= fired.wave && fired.wave <= pm.closed_wave)
            .expect("a bundle spans the firing wave");
        let tenant = fired.labels.get("tenant").expect("rule labels its tenant");
        let (_, samples) = pm
            .series
            .iter()
            .find(|(k, _)| k.name == "slo_bad" && k.labels.get("tenant") == Some(tenant))
            .expect("bundle carries the alerting tenant's slo_bad series");
        let first = samples.first().expect("series non-empty").wave;
        let last = samples.last().expect("series non-empty").wave;
        assert!(
            first <= fired.wave && fired.wave <= last,
            "series {first}..{last} must cover firing wave {}",
            fired.wave
        );
    }

    #[test]
    fn outage_leaves_a_flight_recorder_trail() {
        let (_, report, _) = obs_focus_run();
        let pm = report
            .postmortems
            .first()
            .expect("chaos opens at least one capture");
        assert!(
            pm.entries.iter().any(|e| e.kind == "node_crash"),
            "the crash itself must be on the tape"
        );
        assert!(
            pm.opened_at >= OUTAGE_START || pm.opened_wave == 0,
            "captures open at or after the outage starts"
        );
    }

    #[test]
    fn dashboard_renders_all_tenants_and_alerts() {
        let (_, report, _) = obs_focus_run();
        let dash = render_dashboard(&report);
        for tenant in sweep_tenants(OBS_FOCUS_LOAD) {
            assert!(
                dash.contains(&tenant.name),
                "missing tenant {}",
                tenant.name
            );
        }
        assert!(dash.contains("firing"), "dashboard: {dash}");
        assert!(dash.contains("resolved"), "dashboard: {dash}");
        assert!(!dash.contains("NaN"));
    }

    #[test]
    fn export_schema_validates_with_the_vendored_parser() {
        let (_, report, _) = obs_focus_run();
        let json = report.to_json();
        let doc = sn_trace::json::parse(&json).expect("export parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("sn-obs/v1")
        );
        let series = doc
            .get("series")
            .and_then(|v| v.as_array())
            .expect("series array");
        assert_eq!(series.len(), report.series.len());
        let alerts = doc
            .get("alerts")
            .and_then(|v| v.as_array())
            .expect("alerts array");
        assert_eq!(alerts.len(), report.alerts.len());
        let pms = doc
            .get("postmortems")
            .and_then(|v| v.as_array())
            .expect("postmortems array");
        assert_eq!(pms.len(), report.postmortems.len());
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        assert_eq!(obs_sweep_jobs(1), obs_sweep_jobs(3));
    }
}
