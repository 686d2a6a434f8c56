//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--jobs N] [table1|table2|fig1|fig10|fig11|fig12|fig13|table3|ablations|--faults|all]
//! repro serve
//! repro [--jobs N] tenants
//! repro [--jobs N] placement
//! repro [--jobs N] [--obs out.json] obs
//! repro intra
//! repro [--jobs N] [--time] grid
//! repro --trace [out.json]
//! repro --profile
//! repro [--jobs N] --bench-json <out.json>
//! repro [--jobs N] --bench-check <baseline.json> [current.json]
//! ```
//!
//! `--jobs N` fans independent sweep points (Figure 10/11 benchmarks,
//! fault, tenant, placement, obs and grid sweeps, bench-snapshot runs)
//! across N worker threads via the deterministic ordered-merge engine
//! (`sn_bench::par`); the default is the host's available parallelism
//! and `--jobs 1` forces the sequential path. Output is byte-identical
//! for every N. The serve sweep always runs sequentially: its points are
//! too small to pay for a worker thread. `--time` adds the grid's
//! wall-clock line.
//!
//! `intra` times one large cluster point (16 nodes, 480 experts,
//! 4096-slot waves) on the sequential wave loop and prints its
//! wall-clock and output digest.
//!
//! `--trace` replays the Figure 12 SN40L serving point (150 experts,
//! BS=8) with structured tracing enabled, writes a Chrome-trace JSON
//! timeline (load it in <https://ui.perfetto.dev>), and prints the
//! aggregated counter/histogram table. Combine with `--faults` separately
//! to study degraded-mode behaviour; `--trace` itself runs fault-free so
//! timelines are reproducible byte-for-byte.
//!
//! `--profile` replays the same point and prints the roofline bottleneck
//! attribution (per-phase time, attained vs attainable FLOP rate, tier
//! utilization, compute/HBM/DDR/switching classification) plus the
//! serving SLO dashboard (sliding-window latency/TTFT percentiles,
//! tokens/sec, tier utilization gauges).
//!
//! `serve` sweeps offered load (Poisson arrivals) through the online
//! continuous-batching scheduler and prints the throughput–latency
//! curve, calling out the saturation knee.
//!
//! `tenants` sweeps a multi-tenant chaos scenario — four named tenants
//! in two SLO classes, a correlated two-node outage during the peak
//! burst, and an SLO-driven autoscaler — over an offered-load
//! multiplier, printing per-class p99 latency and goodput plus shed /
//! preempt / scale counts for every row.
//!
//! `obs` replays the tenant chaos scenario with the `sn-obs` telemetry
//! pipeline enabled: labeled per-tenant time series, SLO burn-rate
//! alert rules, and post-mortem flight-recorder bundles around the
//! outage. Prints the load sweep, a per-tenant timeline dashboard with
//! sparklines, the alert timeline, and the captured bundles; `--obs
//! out.json` additionally writes the focus run's full telemetry export
//! (schema `sn-obs/v1`). Every point also replays blind and asserts the
//! serving run is bit-identical — observation never steers the system.
//!
//! `placement` sweeps the router-statistics serving policies (predictive
//! prefetch, hot-expert replication, cold re-homing, paged KV cache)
//! against the reactive baseline on one HBM-pressured chaos scenario,
//! printing hit rate, switch-bound share, and prefetch-waste per row.
//!
//! `--bench-json <out.json>` writes the continuous-benchmark snapshot —
//! every tracked key figure with its tolerance — for
//! `scripts/bench_check.sh`. The path is required: a default would land
//! on a committed baseline's name and overwrite the file the check
//! compares against.
//! `--bench-check` compares a current snapshot (regenerated in-process
//! when not given) against a committed baseline and exits non-zero if
//! any tracked metric regressed beyond its tolerance.

use sn_bench::ablations;
use sn_bench::experiments::{self, PROMPT_TOKENS};
use sn_coe::comparison::Platform;

fn hr(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

fn table1() {
    hr("TABLE I: Operational intensity vs fusion level (Monarch FFT, Fig. 3)");
    println!("{:<28} {:>12} {:>12}", "Fusion Level", "Paper", "Measured");
    for r in experiments::table1() {
        println!("{:<28} {:>12.1} {:>12.1}", r.level, r.paper, r.measured);
    }
    println!("(ops/byte; regimes: <150 memory-bound on A100, >150 compute-bound)");
}

fn table2() {
    hr("TABLE II: Benchmarks");
    println!(
        "{:<28} {:>10} {:>14} {:>10}",
        "Benchmark", "Params(B)", "Phase", "Seq"
    );
    for (name, params, phase, seq) in experiments::table2_rows() {
        let p = if params == 0.0 {
            "-".to_string()
        } else {
            format!("{params:.1}")
        };
        println!("{name:<28} {p:>10} {phase:>14} {seq:>10}");
    }
}

fn fig1() {
    hr("FIGURE 1: CoE latency breakdown, 20 output tokens, 150 experts, BS=1");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "Platform", "Router", "Switching", "Prefill", "Decode", "Total", "Switch%"
    );
    for (p, b) in experiments::fig1() {
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7.1}%",
            p.name(),
            b.router.to_string(),
            b.switching.to_string(),
            b.prefill.to_string(),
            b.decode.to_string(),
            b.total().to_string(),
            100.0 * b.switching_fraction()
        );
    }
}

fn fig10(jobs: usize) {
    hr("FIGURE 10: Speedup over unfused baseline (8 SN40L sockets)");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "Unfused+SO", "Fused+SO", "Fused+HO", "SO spdup", "HO spdup"
    );
    for r in experiments::fig10(jobs) {
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>9.2}x {:>9.2}x",
            r.name,
            r.unfused_so.to_string(),
            r.fused_so.to_string(),
            r.fused_ho.to_string(),
            r.fusion_speedup,
            r.ho_speedup
        );
    }
    println!("(paper: fusion 1.5x-3x prefill/train, up to 13x decode/FFT; HO adds");
    println!(" 1.4x-8x on decode, <=1.1x on prefill/train)");
}

fn fig11(jobs: usize) {
    hr("FIGURE 11: Kernel-call ratio, unfused / fused");
    println!("{:<28} {:>10}", "Benchmark", "Ratio");
    for (name, ratio) in experiments::fig11(jobs) {
        println!("{name:<28} {ratio:>9.1}x");
    }
    println!("(paper example: llama7B-4k-inf-prefill = 11x)");
}

fn fig12() {
    for (batch, tag) in [(8usize, "a"), (1usize, "b")] {
        hr(&format!(
            "FIGURE 12{tag}: CoE latency vs expert count (BS={batch}, TP8, 20 tokens, \
             prompt {PROMPT_TOKENS})"
        ));
        println!(
            "{:<10} {:>14} {:>14} {:>14}",
            "Experts", "SN40L", "DGX A100", "DGX H100"
        );
        let fmt = |t: Option<sn_arch::TimeSecs>| match t {
            Some(t) => t.to_string(),
            None => "OOM".to_string(),
        };
        for p in experiments::fig12(batch) {
            println!(
                "{:<10} {:>14} {:>14} {:>14}",
                p.experts,
                fmt(p.sn40l),
                fmt(p.dgx_a100),
                fmt(p.dgx_h100)
            );
        }
    }
}

fn fig13() {
    hr("FIGURE 13: System footprint to sustain TP8 latency");
    println!(
        "{:<10} {:>14} {:>16} {:>16}",
        "Experts", "SN40L nodes", "DGX A100 nodes", "DGX H100 nodes"
    );
    for (n, sn, a, h) in experiments::fig13() {
        println!("{n:<10} {sn:>14} {a:>16} {h:>16}");
    }
    println!("(paper: 1 SN40L node serves 850 experts; DGX needs 19 nodes — 19x footprint)");
}

fn table3() {
    hr("TABLE III: Samba-CoE performance comparison (150 experts)");
    println!(
        "{:<44} {:>8} {:>8} {:>8} {:>8}",
        "Metric", "PaperA", "OursA", "PaperH", "OursH"
    );
    for r in experiments::table3() {
        println!(
            "{:<44} {:>7.1}x {:>7.1}x {:>7.1}x {:>7.1}x",
            r.metric, r.paper_a100, r.vs_a100, r.paper_h100, r.vs_h100
        );
    }
    println!("\n> 150 Experts:");
    for (p, max) in experiments::oom_experts() {
        println!("  {:<12} holds at most {max} experts", p.name());
    }
    let _ = Platform::ALL;
}

fn extensions() {
    hr("EXTENSION: INT8-quantized experts double every capacity boundary");
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>14}",
        "Platform", "HBM bf16", "HBM int8", "Max bf16", "Max int8"
    );
    for (name, rb, ri, mb, mi) in sn_bench::experiments::quantization_extension() {
        println!("{name:<12} {rb:>14} {ri:>14} {mb:>14} {mi:>14}");
    }
    println!("(resident experts in HBM / maximum hostable experts per node)");

    hr("EXTENSION: sustained decode throughput (llama2-7b, TP8, KV=2048, BS=1)");
    println!("{:<12} {:>14}", "Platform", "tokens/sec");
    for (name, tps) in sn_bench::experiments::throughput_extension() {
        println!("{name:<12} {tps:>14.0}");
    }

    hr("EXTENSION: expert miss rate vs node HBM size (skewed drifting trace)");
    println!("{:<12} {:>12}", "HBM (GiB)", "miss rate");
    for (gib, miss) in sn_bench::experiments::hbm_sensitivity() {
        println!("{gib:<12} {:>11.1}%", miss * 100.0);
    }
}

fn run_serve() {
    use sn_bench::serve;
    hr(&format!(
        "ONLINE SERVING: Poisson offered-load sweep ({} experts, {} requests, \
         max in-flight {})",
        serve::SWEEP_EXPERTS,
        serve::SWEEP_REQUESTS,
        serve::SWEEP_MAX_IN_FLIGHT
    ));
    println!(
        "{:<10} {:>10} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "Offered", "Delivered", "Waves", "Queue p95", "TTFT p95", "Lat p50", "Lat p95", "Tokens/s"
    );
    let points = serve::serve_sweep();
    for p in &points {
        println!(
            "{:<10} {:>10} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10.1}",
            format!("{:.0} rps", p.offered_rps),
            format!("{:.1} rps", p.delivered_rps),
            p.waves,
            p.queue_delay_p95.to_string(),
            p.ttft_p95.to_string(),
            p.latency_p50.to_string(),
            p.latency_p95.to_string(),
            p.tokens_per_sec,
        );
    }
    match serve::knee_rps(&points) {
        Some(knee) => println!(
            "\nsaturation knee at ~{knee:.0} rps offered: beyond it the queue, not the \
             arrival process, sets the pace"
        ),
        None => println!("\nno saturation inside the sweep: every offered rate was absorbed"),
    }
}

fn run_faults(jobs: usize) {
    hr("FAULT INJECTION: single-node degradation vs fault rate (150 experts)");
    println!(
        "{:<8} {:>14} {:>12} {:>9} {:>12}",
        "Rate", "Mean latency", "Recovery%", "Retries", "Batches OK"
    );
    for p in sn_bench::faults::node_fault_sweep_jobs(jobs) {
        println!(
            "{:<8} {:>14} {:>11.1}% {:>9} {:>9}/{}",
            format!("{:.0}%", p.rate * 100.0),
            p.mean_latency.to_string(),
            p.recovery_fraction * 100.0,
            p.retries,
            p.completed,
            p.attempted
        );
    }
    println!("(expert-load/socket/router faults at the given rate; 3-retry backoff)");

    hr("FAULT INJECTION: 3-node cluster failover vs fault rate (300 experts)");
    println!(
        "{:<8} {:>14} {:>14} {:>9} {:>12}",
        "Rate", "Mean latency", "Availability", "Re-homed", "Nodes down"
    );
    for p in sn_bench::faults::cluster_fault_sweep_jobs(jobs) {
        println!(
            "{:<8} {:>14} {:>13.1}% {:>9} {:>12}",
            format!("{:.0}%", p.rate * 100.0),
            p.mean_latency.to_string(),
            p.availability * 100.0,
            p.rehomed,
            p.failed_nodes
        );
    }
    println!("(node crashes at the given rate per node per batch; crashed nodes'");
    println!(" prompts re-home their experts onto survivors over DDR)");
}

fn run_tenants(jobs: usize) {
    use sn_bench::tenants;
    hr(&format!(
        "MULTI-TENANT CHAOS: load sweep, {} nodes, kill {:?} during {}..{}",
        tenants::SWEEP_NODES,
        tenants::OUTAGE_NODES,
        tenants::OUTAGE_START,
        tenants::OUTAGE_END,
    ));
    println!(
        "{:<6} {:>9} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>9} {:>6} {:>6}",
        "Load",
        "Submitted",
        "Done",
        "Shed",
        "Preempt",
        "Int p99",
        "Batch p99",
        "Int gp/s",
        "Bat gp/s",
        "Scale",
        "Nodes"
    );
    let points = tenants::tenants_sweep_jobs(jobs);
    for p in &points {
        println!(
            "{:<6} {:>9} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9.1} {:>9.1} {:>6} {:>6}",
            format!("{:.1}x", p.load),
            p.submitted,
            p.completed,
            p.shed,
            p.preempted,
            p.interactive_p99.to_string(),
            p.batch_p99.to_string(),
            p.interactive_goodput,
            p.batch_goodput,
            format!("+{}-{}", p.scale_ups, p.scale_downs),
            p.final_nodes,
        );
        assert!(p.conserved, "request conservation must hold at every load");
    }
    let bound = tenants::sweep_config().interactive.slo_bound;
    println!(
        "\ninteractive SLO bound {bound}: every row's interactive p99 holds it while batch \
         absorbs the\noutage (shed + preempted); the autoscaler re-homes experts onto added \
         nodes after the window"
    );
}

fn run_placement(jobs: usize) {
    use sn_bench::placement;
    hr(&format!(
        "PLACEMENT POLICIES: reactive vs stats-driven serving, {} experts on {} nodes, \
         kill node {} during {}..{}",
        placement::SWEEP_EXPERTS,
        placement::SWEEP_NODES,
        placement::OUTAGE_NODE,
        placement::OUTAGE_START,
        placement::OUTAGE_END,
    ));
    println!(
        "{:<6} {:<6} {:<6} {:>6} {:>11} {:>7} {:>11} {:>8} {:>8} {:>6} {:>10} {:>6} {:>6} {:>8}",
        "Load",
        "Polcy",
        "Chaos",
        "Waves",
        "Makespan",
        "HitRate",
        "SwitchTime",
        "Switch%",
        "Prefetch",
        "PfAcc",
        "PfWasted",
        "Repl",
        "Moves",
        "KV in/ev"
    );
    let points = placement::placement_sweep_jobs(jobs);
    for p in &points {
        println!(
            "{:<6} {:<6} {:<6} {:>6} {:>11} {:>7.3} {:>11} {:>7.1}% {:>8} {:>6} {:>10} {:>6} \
             {:>6} {:>8}",
            format!("{:.1}x", p.case.load),
            if p.case.policies { "on" } else { "off" },
            if p.case.chaos { "on" } else { "off" },
            p.waves,
            p.makespan.to_string(),
            p.hit_rate,
            p.switch_time.to_string(),
            100.0 * p.switch_bound_fraction,
            p.prefetch_issued,
            if p.prefetch_issued > 0 {
                format!("{:.2}", p.prefetch_accuracy)
            } else {
                "-".to_string()
            },
            p.prefetch_wasted.to_string(),
            p.experts_replicated,
            p.cold_moves,
            format!("{}/{}", p.kv_pages_in, p.kv_pages_evicted),
        );
        assert!(p.conserved, "request conservation must hold at every point");
        assert!(
            p.kv_pages_in >= p.kv_pages_evicted,
            "KV page conservation must hold at every point"
        );
    }
    println!(
        "\npolicies on: router statistics drive hot-expert replication, cold re-homing, and \
         speculative\nDDR->HBM prefetch at wave boundaries; mispredictions expire as wasted \
         bandwidth (PfWasted).\nUnder the chaos rows the managed cluster holds a higher HBM hit \
         rate and sheds switch time\nrelative to the reactive baseline on the same scenario."
    );
}

fn run_obs(jobs: usize, export: Option<&str>) {
    use sn_bench::obs;
    use sn_bench::tenants;
    hr(&format!(
        "OBSERVABILITY: tenant chaos scenario under the sn-obs pipeline, kill {:?} during {}..{}",
        tenants::OUTAGE_NODES,
        tenants::OUTAGE_START,
        tenants::OUTAGE_END,
    ));
    println!(
        "{:<6} {:>6} {:>7} {:>8} {:>6} {:>9} {:>12} {:>6} {:>10}",
        "Load", "Waves", "Series", "Samples", "Fired", "Resolved", "Postmortems", "Shed", "Blind=="
    );
    for p in obs::obs_sweep_jobs(jobs) {
        println!(
            "{:<6} {:>6} {:>7} {:>8} {:>6} {:>9} {:>12} {:>6} {:>10}",
            format!("{:.1}x", p.load),
            p.waves,
            p.series,
            p.samples,
            p.fired,
            p.resolved,
            p.postmortems,
            p.shed,
            if p.identical { "yes" } else { "NO" },
        );
        assert!(
            p.identical,
            "observing the run must never change it (load {})",
            p.load
        );
    }
    println!(
        "\nfocus dashboard at {:.1}x load (budget {:.0}%, burn factor {}x over {}/{}-wave \
         windows):\n",
        obs::OBS_FOCUS_LOAD,
        obs::OBS_ERROR_BUDGET * 100.0,
        obs::OBS_BURN_FACTOR,
        obs::OBS_FAST_WINDOW,
        obs::OBS_SLOW_WINDOW,
    );
    let (_, report, identical) = obs::obs_focus_run();
    assert!(identical, "focus run must match its blind replay");
    print!("{}", obs::render_dashboard(&report));
    if let Some(path) = export {
        let json = report.to_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write telemetry export to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nwrote {path} ({} bytes, {} series, {} alert transitions, {} bundles)",
            json.len(),
            report.series.len(),
            report.alerts.len(),
            report.postmortems.len()
        );
    }
}

fn run_intra() {
    use sn_bench::intra;
    hr(&format!(
        "LARGE-CLUSTER WAVES: {} nodes, {} experts, {} waves x {} slots, \
         sequential wave loop",
        intra::INTRA_NODES,
        intra::INTRA_EXPERTS,
        intra::INTRA_WAVES,
        intra::INTRA_WAVE_SLOTS,
    ));
    // intra_point panics if its repetitions disagree, so the printed
    // digest is the one every repetition produced.
    let p = intra::intra_point();
    println!("{:>12} {:>18}", "Wall (ms)", "Digest");
    println!(
        "{:>12.2} {:>18}",
        p.wall_ms,
        format!("{:016x}", p.digest.checksum)
    );
    println!(
        "\nserved {} slots ({} hits / {} misses), best of {} repetitions",
        p.digest.served,
        p.digest.expert_hits,
        p.digest.expert_misses,
        intra::TIMING_REPS,
    );
}

fn run_ablations() {
    hr("ABLATIONS (design choices from DESIGN.md)");
    println!(
        "{:<46} {:>12} {:>12} {:>8}",
        "Feature", "With", "Without", "Factor"
    );
    for a in ablations::all() {
        println!(
            "{:<46} {:>12.4} {:>12.4} {:>7.2}x   ({})",
            a.name,
            a.with_feature,
            a.without_feature,
            a.factor(),
            a.unit
        );
    }
    assert!(
        ablations::reorder_smoke(),
        "sequence-ID reordering smoke check"
    );
}

fn run_trace(path: &str) {
    hr("TRACE: Figure 12 SN40L serving point (150 experts, BS=8, 20 tokens)");
    let run = sn_bench::trace::traced_fig12_run(150, 8);
    if let Err(e) = std::fs::write(path, &run.trace_json) {
        eprintln!("cannot write trace to {path}: {e}");
        std::process::exit(1);
    }
    let report = &run.report;
    println!(
        "served 8 prompts: total {} (router {}, switching {}, execution {})",
        report.total(),
        report.router,
        report.switching,
        report.execution
    );
    let metrics = report.metrics.as_ref().expect("tracer attached");
    println!("\n{}", metrics.render_table());
    println!(
        "wrote {} ({} bytes) — open in https://ui.perfetto.dev or chrome://tracing",
        path,
        run.trace_json.len()
    );
}

fn run_profile() {
    hr("PROFILE: roofline attribution, Figure 12 point (150 experts, BS=8, 20 tokens)");
    let run = sn_bench::profile::profiled_fig12_run(150, 8, 4);
    println!(
        "served {} batches of 8 prompts; last batch total {}\n",
        run.batches,
        run.report.total()
    );
    println!("{}", run.attribution.render_table());
    let dominant_kind = run.attribution.dominant().expect("phases sampled");
    let dominant = run.attribution.phase(dominant_kind).expect("phase sampled");
    println!(
        "dominant phase: {} ({:.1}% of batch, {})\n",
        dominant.kind.name(),
        100.0 * dominant.fraction,
        dominant.bound.name()
    );
    println!("{}", run.slo().render_table());
    let metrics = run.report.metrics.as_ref().expect("tracer attached");
    if let Some(q) = sn_profile::request_latency_quantiles(metrics) {
        println!(
            "per-request latency (histogram upper bounds): p50 <= {} ns, p95 <= {} ns, \
             p99 <= {} ns",
            q.p50_ns, q.p95_ns, q.p99_ns
        );
    }
}

fn run_grid(jobs: usize, timed: bool) {
    use sn_bench::grid;
    hr("GRID: exact capacity grid (nodes x chaos x mix x load)");
    let wall = std::time::Instant::now();
    let cells = grid::grid_jobs(jobs);
    let grid_ms = wall.elapsed().as_secs_f64() * 1e3;
    println!(
        "{} cells, every one simulated exactly: {} cluster sizes x chaos off/on x \
         standard/batch-heavy mix x {} loads",
        cells.len(),
        grid::GRID_NODES.len(),
        grid::GRID_LOAD_STEPS,
    );
    println!(
        "\n{:<6} {:<6} {:<12} {:>22} {:>24}",
        "Nodes", "Chaos", "Mix", "Worst int p99 (load)", "Worst makespan (load)"
    );
    for group in cells.chunks(grid::GRID_LOAD_STEPS) {
        let (case, _) = group[0];
        let p99 = group
            .iter()
            .max_by(|a, b| a.1.interactive_p99_ms.total_cmp(&b.1.interactive_p99_ms))
            .expect("non-empty group");
        let drain = group
            .iter()
            .max_by(|a, b| a.1.makespan_ms.total_cmp(&b.1.makespan_ms))
            .expect("non-empty group");
        println!(
            "{:<6} {:<6} {:<12} {:>22} {:>24}",
            case.nodes,
            if case.chaos { "on" } else { "off" },
            if case.batch_heavy {
                "batch-heavy"
            } else {
                "standard"
            },
            format!("{:.2} ms ({:.2}x)", p99.1.interactive_p99_ms, p99.0.load),
            format!("{:.1} ms ({:.2}x)", drain.1.makespan_ms, drain.0.load),
        );
    }
    let (worst_cell, worst) = cells
        .iter()
        .max_by(|a, b| a.1.makespan_ms.total_cmp(&b.1.makespan_ms))
        .expect("grid is non-empty");
    println!(
        "\nlongest exact drain: n{} x{:.2}{}{} -> {:.1} ms makespan, {:.3} hit rate",
        worst_cell.nodes,
        worst_cell.load,
        if worst_cell.chaos { " chaos" } else { "" },
        if worst_cell.batch_heavy {
            " batch+"
        } else {
            ""
        },
        worst.makespan_ms,
        worst.hbm_hit_rate,
    );
    if timed {
        println!("grid wall-clock {grid_ms:.1} ms at {jobs} jobs");
    }
}

fn run_bench_json(path: &str, jobs: usize) {
    hr("BENCH SNAPSHOT: tracked key figures for the regression harness");
    let wall = std::time::Instant::now();
    let mut snap = sn_bench::profile::bench_snapshot_jobs(jobs);
    let elapsed_ms = wall.elapsed().as_secs_f64() * 1e3;
    snap.push_info("simulator_wall_clock_ms", &format!("{elapsed_ms:.1}"));
    snap.push_info("host_cores", &sn_bench::par::available_jobs().to_string());
    // Large-cluster wave timing: wall-clock stays in info rows
    // (recorded, never compared) like every other timing figure.
    let intra = sn_bench::intra::intra_point();
    snap.push_info("intra_wall_ms", &format!("{:.2}", intra.wall_ms));
    snap.push_info("intra_digest", &format!("{:016x}", intra.digest.checksum));
    let json = snap.to_json();
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write snapshot to {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path} ({} bytes, {} tracked metrics, simulator wall-clock {elapsed_ms:.1} ms)",
        json.len(),
        snap.metrics.len()
    );
}

fn load_snapshot(path: &str) -> sn_profile::BenchSnapshot {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read snapshot {path}: {e}");
            std::process::exit(1);
        }
    };
    match sn_profile::BenchSnapshot::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse snapshot {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn run_bench_check(baseline_path: &str, current_path: Option<&str>, jobs: usize) {
    hr(&format!(
        "BENCH CHECK: current run vs baseline {baseline_path}"
    ));
    let baseline = load_snapshot(baseline_path);
    let current = match current_path {
        Some(p) => load_snapshot(p),
        None => sn_bench::profile::bench_snapshot_jobs(jobs),
    };
    let report = baseline.compare(&current);
    println!("{}", report.render_table());
    if report.passed() {
        println!("bench check PASSED: all tracked metrics within tolerance");
    } else {
        eprintln!(
            "bench check FAILED: {} metric(s) regressed or missing",
            report.regressions()
        );
        std::process::exit(1);
    }
}

fn usage_exit(complaint: &str) -> ! {
    eprintln!("{complaint}");
    eprintln!(
        "usage: repro [--jobs N] [--time] [--obs out.json] [table1|table2|\
         fig1|fig10|fig11|fig12|fig13|table3|ablations|extensions|serve|tenants|placement|\
         obs|intra|grid|--faults|--trace [out.json]|--profile|--bench-json <out.json>|\
         --bench-check <baseline> [current]|all]"
    );
    std::process::exit(2);
}

fn main() {
    let mut jobs = sn_bench::par::available_jobs();
    let mut timed = false;
    let mut obs_export: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        let jobs_value = if a == "--jobs" {
            Some(raw.next().unwrap_or_default())
        } else {
            a.strip_prefix("--jobs=").map(str::to_string)
        };
        let obs_value = if a == "--obs" {
            Some(raw.next().unwrap_or_default())
        } else {
            a.strip_prefix("--obs=").map(str::to_string)
        };
        if let Some(v) = jobs_value {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => jobs = n,
                _ => usage_exit(&format!("--jobs wants a positive integer, got '{v}'")),
            }
        } else if let Some(v) = obs_value {
            if v.is_empty() {
                usage_exit("--obs wants an output path");
            }
            obs_export = Some(v);
        } else if a == "--time" {
            timed = true;
        } else {
            args.push(a);
        }
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "trace" | "--trace" => {
            let path = args.get(1).map(String::as_str).unwrap_or("trace.json");
            run_trace(path);
            return;
        }
        "profile" | "--profile" => {
            run_profile();
            return;
        }
        "bench-json" | "--bench-json" => {
            let Some(path) = args.get(1) else {
                usage_exit("--bench-json wants an output path");
            };
            run_bench_json(path, jobs);
            return;
        }
        "bench-check" | "--bench-check" => {
            let Some(baseline) = args.get(1) else {
                eprintln!("usage: repro --bench-check <baseline.json> [current.json]");
                std::process::exit(2);
            };
            run_bench_check(baseline, args.get(2).map(String::as_str), jobs);
            return;
        }
        _ => {}
    }
    match what {
        "table1" => table1(),
        "table2" => table2(),
        "fig1" => fig1(),
        "fig10" => fig10(jobs),
        "fig11" => fig11(jobs),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "table3" => table3(),
        "ablations" => run_ablations(),
        "extensions" => extensions(),
        "faults" | "--faults" => run_faults(jobs),
        "serve" | "--serve" => run_serve(),
        "tenants" | "--tenants" => run_tenants(jobs),
        "placement" | "--placement" => run_placement(jobs),
        "obs" => run_obs(jobs, obs_export.as_deref()),
        "intra" | "--intra" => run_intra(),
        "grid" | "--grid" => run_grid(jobs, timed),
        "all" => {
            table1();
            table2();
            fig1();
            fig10(jobs);
            fig11(jobs);
            fig12();
            fig13();
            table3();
            extensions();
            run_faults(jobs);
            run_serve();
            run_tenants(jobs);
            run_placement(jobs);
            run_obs(jobs, obs_export.as_deref());
            run_grid(jobs, timed);
            run_ablations();
        }
        other => usage_exit(&format!("unknown experiment '{other}'")),
    }
}
