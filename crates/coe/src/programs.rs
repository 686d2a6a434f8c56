//! The shared expert architecture, compiled once per process.
//!
//! Every expert of a composition shares one architecture (Samba-CoE:
//! 150 Llama2-7B specialists), so the paper compiles that dataflow
//! program once and only switches weights DDR→HBM (§V). [`ExpertPrograms`]
//! is that compiled program pair, and [`ExpertPrograms::shared`] hands out
//! one `Arc` per distinct compile input through a small process-wide
//! memo, so constructing many clusters or nodes pays the graph build and
//! compile once.
//!
//! Compilation is a pure function of its inputs, so a memo hit returns
//! exactly what a fresh compile would: every report built on it is
//! bit-identical either way (`tests/expert_programs.rs` checks this
//! against a fresh build + compile).

use sn_arch::{Calibration, SocketSpec};
use sn_compiler::{Compiler, Executable, FusionPolicy};
use sn_dataflow::Graph;
use sn_models::{build, Phase, TransformerConfig};
use sn_runtime::coe::CoeError;
use std::sync::{Arc, Mutex, PoisonError};

/// Most distinct compile inputs the memo keeps. A process sweeps few
/// expert shapes (one per prompt length and socket spec), so this holds
/// every live key in practice while bounding memory when a caller walks
/// many; past it, the least recently used entry is dropped (callers
/// still holding its `Arc` keep it alive).
const MEMO_CAPACITY: usize = 16;

/// Everything a compile of the expert pair depends on, compared with
/// exact `==` rather than hashed, so distinct inputs cannot collide. The
/// float fields make two edge cases: `+0.0 == -0.0`, and a key holding a
/// NaN never equals itself, so it misses and recompiles every time.
struct ProgramKey {
    socket: SocketSpec,
    calib: Calibration,
    cfg: TransformerConfig,
    prompt_tokens: usize,
    tp: usize,
}

impl ProgramKey {
    fn matches(
        &self,
        socket: &SocketSpec,
        calib: &Calibration,
        cfg: &TransformerConfig,
        prompt_tokens: usize,
        tp: usize,
    ) -> bool {
        self.prompt_tokens == prompt_tokens
            && self.tp == tp
            && self.socket == *socket
            && self.calib == *calib
            && self.cfg == *cfg
    }
}

/// Memo entries, least recently used first.
static MEMO: Mutex<Vec<(ProgramKey, Arc<ExpertPrograms>)>> = Mutex::new(Vec::new());

/// The spatially fused prefill and decode executables of one expert
/// architecture at one prompt length, per socket at tensor-parallel
/// degree `tp`.
///
/// Obtain one through [`ExpertPrograms::shared`]; [`crate::CoeCluster`],
/// [`crate::SambaCoeNode`] and the SN40L arm of
/// [`crate::comparison::ComparisonModel`] all hold it behind an `Arc`.
#[derive(Debug, PartialEq)]
pub struct ExpertPrograms {
    prefill: Executable,
    decode: Executable,
}

impl ExpertPrograms {
    /// The compiled program pair for `cfg` on `socket`: a prefill over
    /// `prompt_tokens` and one decode step against a KV cache of
    /// `prompt_tokens`, both at tensor-parallel degree `tp`.
    ///
    /// Returns the process-wide shared copy when the same inputs were
    /// compiled before (equal calls return `Arc::ptr_eq` results while
    /// the entry stays in the memo); otherwise builds and compiles
    /// outside the memo's lock and records the result. Failed compiles
    /// are not recorded.
    ///
    /// # Errors
    ///
    /// [`CoeError::Compile`] when building or compiling either graph
    /// fails (e.g. `prompt_tokens == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or does not divide `cfg`'s head count (as
    /// [`sn_models::build`] does).
    pub fn shared(
        socket: &SocketSpec,
        calib: &Calibration,
        cfg: &TransformerConfig,
        prompt_tokens: usize,
        tp: usize,
    ) -> Result<Arc<Self>, CoeError> {
        let lookup = |memo: &mut Vec<(ProgramKey, Arc<ExpertPrograms>)>| {
            let i = memo
                .iter()
                .position(|(k, _)| k.matches(socket, calib, cfg, prompt_tokens, tp))?;
            // Move the hit to the most-recently-used end.
            let entry = memo.remove(i);
            let programs = Arc::clone(&entry.1);
            memo.push(entry);
            Some(programs)
        };
        if let Some(hit) = lookup(&mut MEMO.lock().unwrap_or_else(PoisonError::into_inner)) {
            return Ok(hit);
        }
        let compiled = Arc::new(Self::compile(socket, calib, cfg, prompt_tokens, tp)?);
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have compiled the same key meanwhile: keep
        // its entry so every caller shares one copy.
        if let Some(hit) = lookup(&mut memo) {
            return Ok(hit);
        }
        if memo.len() == MEMO_CAPACITY {
            memo.remove(0);
        }
        memo.push((
            ProgramKey {
                socket: socket.clone(),
                calib: calib.clone(),
                cfg: cfg.clone(),
                prompt_tokens,
                tp,
            },
            Arc::clone(&compiled),
        ));
        Ok(compiled)
    }

    /// Builds and compiles the pair without consulting the memo, one
    /// phase at a time so only one graph is ever live.
    fn compile(
        socket: &SocketSpec,
        calib: &Calibration,
        cfg: &TransformerConfig,
        prompt_tokens: usize,
        tp: usize,
    ) -> Result<Self, CoeError> {
        let compiler = Compiler::new(socket.clone(), calib.clone());
        let compile = |(stage, phase): (&str, Phase)| {
            let graph = expert_graph(cfg, stage, phase, tp)?;
            compiler
                .compile(&graph, FusionPolicy::Spatial)
                .map_err(|e| compile_err(stage, "executable", e))
        };
        let [prefill, decode] = expert_phases(prompt_tokens);
        Ok(ExpertPrograms {
            prefill: compile(prefill)?,
            decode: compile(decode)?,
        })
    }

    /// The prefill executable (the whole prompt, building the KV cache).
    pub fn prefill(&self) -> &Executable {
        &self.prefill
    }

    /// The executable of one decode step.
    pub fn decode(&self) -> &Executable {
        &self.decode
    }
}

/// The two phases of one expert request at `prompt_tokens`, labelled:
/// the prefill over the prompt and one decode step against its KV cache.
pub(crate) fn expert_phases(prompt_tokens: usize) -> [(&'static str, Phase); 2] {
    [
        ("expert prefill", Phase::Prefill { prompt_tokens }),
        (
            "expert decode",
            Phase::Decode {
                past_tokens: prompt_tokens,
            },
        ),
    ]
}

/// The per-socket batch-1 graph of one expert phase: what
/// [`ExpertPrograms`] compiles, and what the DGX roofline executor costs
/// directly.
///
/// # Errors
///
/// [`CoeError::Compile`] when [`sn_models::build`] rejects the phase (a
/// zero-token prompt among them).
pub(crate) fn expert_graph(
    cfg: &TransformerConfig,
    stage: &str,
    phase: Phase,
    tp: usize,
) -> Result<Graph, CoeError> {
    build(cfg, phase, 1, tp).map_err(|e| compile_err(stage, "graph", e))
}

fn compile_err(stage: &str, artifact: &str, reason: impl std::fmt::Display) -> CoeError {
    CoeError::Compile {
        model: format!("{stage} {artifact}"),
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo_len() -> usize {
        MEMO.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    #[test]
    fn memo_stays_bounded_and_drops_least_recently_used() {
        // A one-layer expert keeps each compile cheap; no other test uses
        // it, so these keys are this test's alone.
        let mut cfg = TransformerConfig::llama2_7b();
        cfg.layers = 1;
        let socket = SocketSpec::sn40l();
        let calib = Calibration::baseline();
        let shared = |tokens| ExpertPrograms::shared(&socket, &calib, &cfg, tokens, 8).unwrap();
        let first = shared(1);
        assert!(Arc::ptr_eq(&first, &shared(1)));
        for tokens in 2..=MEMO_CAPACITY + 1 {
            shared(tokens);
            assert!(memo_len() <= MEMO_CAPACITY);
        }
        // `MEMO_CAPACITY` newer keys pushed the first one out: asking
        // again compiles a new, equal copy.
        let again = shared(1);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
    }
}
