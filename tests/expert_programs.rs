//! Differential suite for the expert program memo: the shared prefill /
//! decode pair [`ExpertPrograms::shared`] hands out must equal a fresh
//! `build` + `Compiler::compile` of the same inputs (the reference
//! path), one key must map to one shared copy and distinct keys to
//! distinct copies, and clusters constructed concurrently on one key
//! must serve identically. Degenerate prompt lengths come back as typed
//! [`CoeError::Compile`] errors instead of panics.

use samba_coe::arch::{Bytes, Calibration, NodeSpec, SocketSpec};
use samba_coe::coe::{CoeCluster, ExpertLibrary, ExpertPrograms, SambaCoeNode, TenancyReport};
use samba_coe::compiler::{Compiler, Executable, FusionPolicy};
use samba_coe::models::{build, Phase, TransformerConfig};
use samba_coe::runtime::coe::CoeError;
use sn_bench::tenants;
use std::sync::{Arc, Barrier};

const PROMPT_TOKENS: [usize; 4] = [1, 64, 1024, 4096];

/// The half-socket variant: one of the SN40L's two chiplets, with 512
/// PCUs and 260 MiB of SRAM (520 PMUs).
fn half_socket() -> SocketSpec {
    let mut socket = SocketSpec::sn40l();
    socket.chip.pcus = 512;
    socket.chip.pmus = 520;
    assert_eq!(socket.chip.total_sram(), Bytes::from_mib(260));
    socket
}

fn specs() -> [(&'static str, SocketSpec); 2] {
    [("sn40l", SocketSpec::sn40l()), ("half", half_socket())]
}

/// The reference path: build both graphs and compile them, no memo.
fn fresh_pair(
    socket: &SocketSpec,
    cfg: &TransformerConfig,
    prompt_tokens: usize,
    tp: usize,
) -> Result<(Executable, Executable), String> {
    let compiler = Compiler::new(socket.clone(), Calibration::baseline());
    let compile = |phase| {
        let graph = build(cfg, phase, 1, tp).map_err(|e| e.to_string())?;
        compiler
            .compile(&graph, FusionPolicy::Spatial)
            .map_err(|e| e.to_string())
    };
    let prefill = compile(Phase::Prefill { prompt_tokens })?;
    let decode = compile(Phase::Decode {
        past_tokens: prompt_tokens,
    })?;
    Ok((prefill, decode))
}

#[test]
fn memoized_pair_equals_a_fresh_compile() {
    let cfg = TransformerConfig::llama2_7b();
    let calib = Calibration::baseline();
    let tp = NodeSpec::sn40l_node().sockets;
    for (name, socket) in specs() {
        for prompt_tokens in PROMPT_TOKENS {
            let shared = ExpertPrograms::shared(&socket, &calib, &cfg, prompt_tokens, tp);
            match (fresh_pair(&socket, &cfg, prompt_tokens, tp), shared) {
                (Ok((prefill, decode)), Ok(programs)) => {
                    assert_eq!(
                        programs.prefill(),
                        &prefill,
                        "{name} prefill @{prompt_tokens}"
                    );
                    assert_eq!(programs.decode(), &decode, "{name} decode @{prompt_tokens}");
                }
                (Err(_), Err(CoeError::Compile { .. })) => {}
                (fresh, shared) => panic!(
                    "{name} @{prompt_tokens}: fresh {:?} vs shared {:?}",
                    fresh.map(|_| ()),
                    shared.map(|_| ())
                ),
            }
        }
    }
}

#[test]
fn one_key_shares_one_copy_and_distinct_keys_never_do() {
    let cfg = TransformerConfig::llama2_7b();
    let calib = Calibration::baseline();
    let tp = NodeSpec::sn40l_node().sockets;
    let mut seen: Vec<(String, Arc<ExpertPrograms>)> = Vec::new();
    for (name, socket) in specs() {
        for prompt_tokens in PROMPT_TOKENS {
            let first =
                ExpertPrograms::shared(&socket, &calib, &cfg, prompt_tokens, tp).expect("compiles");
            let again =
                ExpertPrograms::shared(&socket, &calib, &cfg, prompt_tokens, tp).expect("compiles");
            let key = format!("{name}@{prompt_tokens}");
            assert!(Arc::ptr_eq(&first, &again), "{key} compiled twice");
            for (other, programs) in &seen {
                assert!(
                    !Arc::ptr_eq(&first, programs),
                    "{key} shares {other}'s entry"
                );
            }
            seen.push((key, first));
        }
    }
    // Any field of the key separates entries, not just the socket and
    // the prompt length.
    let socket = SocketSpec::sn40l();
    let base = ExpertPrograms::shared(&socket, &calib, &cfg, 64, tp).expect("compiles");
    let mut slower = calib.clone();
    slower.program_load = slower.program_load * 2.0;
    let int8 = cfg.clone().quantized_int8();
    for variant in [
        ExpertPrograms::shared(&socket, &slower, &cfg, 64, tp),
        ExpertPrograms::shared(&socket, &calib, &int8, 64, tp),
        ExpertPrograms::shared(&socket, &calib, &cfg, 64, tp / 2),
    ] {
        assert!(!Arc::ptr_eq(&base, &variant.expect("compiles")));
    }
}

#[test]
fn zero_token_prompts_are_typed_compile_errors() {
    let compile_error = |r: Result<(), CoeError>| matches!(r, Err(CoeError::Compile { .. }));
    let node = SambaCoeNode::try_new(NodeSpec::sn40l_node(), ExpertLibrary::new(4), 0);
    assert!(compile_error(node.map(|_| ())));
    let cluster = CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(4), 0);
    assert!(compile_error(cluster.map(|_| ())));
    // A decode step against an empty KV cache is a valid program.
    let calib = Calibration::baseline();
    let cfg = TransformerConfig::llama2_7b();
    let decode = build(&cfg, Phase::Decode { past_tokens: 0 }, 1, 8).expect("builds");
    Compiler::new(SocketSpec::sn40l(), calib)
        .compile(&decode, FusionPolicy::Spatial)
        .expect("compiles");
}

/// Serves the tenant sweep scenario at 2x load on a cluster built for a
/// prompt length no other test in this binary uses, so concurrent callers
/// race on the memo's first compile of that key.
fn serve_scenario() -> TenancyReport {
    const PROMPT_TOKENS: usize = 384;
    let mut cluster = CoeCluster::new(
        NodeSpec::sn40l_node(),
        tenants::SWEEP_NODES,
        ExpertLibrary::new(tenants::SWEEP_EXPERTS),
        PROMPT_TOKENS,
    )
    .expect("sweep library fits the starting cluster");
    let mut config = tenants::sweep_config();
    config.prompt_tokens = PROMPT_TOKENS;
    let chaos = tenants::sweep_chaos(tenants::SWEEP_SEED);
    let mut controller = tenants::sweep_controller();
    cluster
        .serve_tenants(
            &tenants::sweep_tenants(2.0),
            &config,
            Some(&chaos),
            Some(&mut controller),
        )
        .expect("tenant scenario serves")
}

#[test]
fn concurrent_constructions_serve_identically() {
    const THREADS: usize = 4;
    let start = Arc::new(Barrier::new(THREADS));
    let reports: Vec<TenancyReport> = (0..THREADS)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                serve_scenario()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("serving thread"))
        .collect();
    assert!(reports[0].conservation_holds());
    assert!(reports[0].submitted > 0);
    for (i, report) in reports.iter().enumerate().skip(1) {
        assert_eq!(report, &reports[0], "thread {i} diverged");
    }
}
