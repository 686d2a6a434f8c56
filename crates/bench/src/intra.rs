//! Large-cluster wave benchmark (`repro intra`): one big cluster point,
//! timed on the sequential wave loop.
//!
//! `repro --jobs` fans independent *sweep points* across threads; this
//! scenario is the opposite regime — a single big run (16 nodes, 480
//! experts, 4096-slot waves) where all the time is inside `serve_wave`
//! and inter-run parallelism has nothing to grab. The route pass reads
//! the router's memoized hashes, and the per-node cursor walk is one
//! add per slot, so the loop runs sequentially.
//!
//! Every run folds its complete output — placements, per-node busy
//! times, hit/miss counters — into an [`IntraDigest`] whose checksum
//! covers the raw f64 bits, so "zero metric drift" between two builds
//! is a single `PartialEq` away and any divergence is loud.

use sn_arch::{NodeSpec, TimeSecs};
use sn_coe::{CoeCluster, ExpertLibrary, PromptGenerator, WavePlacement, WaveSlot};
use std::time::Instant;

/// Seed for the scenario's prompt stream.
pub const INTRA_SEED: u64 = 0x1a7e5;

/// Cluster size — the "large cluster point" of the acceptance bar.
pub const INTRA_NODES: usize = 16;

/// Experts in the library (30 per node's worth of routing spread).
pub const INTRA_EXPERTS: usize = 480;

/// Prompt length of every request.
pub const INTRA_PROMPT_TOKENS: usize = 512;

/// Slots per wave: continuous batching at full cluster occupancy.
pub const INTRA_WAVE_SLOTS: usize = 4096;

/// Waves served per run.
pub const INTRA_WAVES: usize = 24;

/// Decode tokens charged per wave.
pub const INTRA_WAVE_TOKENS: usize = 8;

/// Complete, order-independent summary of one scenario run.
///
/// The checksum folds the f64 bit patterns of every placement offset
/// and per-node busy time, so two digests compare equal iff the runs
/// were byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntraDigest {
    /// Waves served.
    pub waves: usize,
    /// Slots that landed on a node, all waves.
    pub served: usize,
    /// Slots dropped (always 0 on this fault-free scenario).
    pub dropped: usize,
    /// Warm expert activations.
    pub expert_hits: usize,
    /// Cold expert activations.
    pub expert_misses: usize,
    /// FNV-1a over every wave's latency, per-node busy times, and
    /// per-slot `(first_token, done)` offsets, as raw f64 bits.
    pub checksum: u64,
}

/// One timed scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraPoint {
    /// The run's digest (identical across repetitions).
    pub digest: IntraDigest,
    /// Wall-clock of the serving loop alone (cluster build and prompt
    /// generation excluded), best of [`TIMING_REPS`] repetitions.
    pub wall_ms: f64,
}

/// Serving-loop repetitions per timed point (best-of, to keep the
/// wall-clock rows stable on loaded CI hosts).
pub const TIMING_REPS: usize = 3;

fn fnv1a(hash: &mut u64, word: u64) {
    const PRIME: u64 = 0x100_0000_01b3;
    *hash ^= word;
    *hash = hash.wrapping_mul(PRIME);
}

fn fold_time(hash: &mut u64, t: TimeSecs) {
    fnv1a(hash, t.as_secs().to_bits());
}

/// The scenario's slot stream: [`INTRA_WAVES`] waves of
/// [`INTRA_WAVE_SLOTS`] slots each, from one continuous seeded prompt
/// stream, with a deterministic prefill/decode mix (two thirds of the
/// slots charge prefill, the rest continue decoding).
pub fn intra_waves() -> Vec<Vec<WaveSlot>> {
    let mut gen = PromptGenerator::new(INTRA_SEED, INTRA_PROMPT_TOKENS);
    (0..INTRA_WAVES)
        .map(|wave| {
            gen.batch(INTRA_WAVE_SLOTS)
                .into_iter()
                .enumerate()
                .map(|(i, prompt)| WaveSlot {
                    prompt,
                    prefill: (i + wave) % 3 != 0,
                })
                .collect()
        })
        .collect()
}

fn build_cluster() -> CoeCluster {
    CoeCluster::new(
        NodeSpec::sn40l_node(),
        INTRA_NODES,
        ExpertLibrary::new(INTRA_EXPERTS),
        INTRA_PROMPT_TOKENS,
    )
    .expect("intra scenario library fits the cluster")
}

fn serve_all(cluster: &mut CoeCluster, waves: &[Vec<WaveSlot>]) -> Vec<sn_coe::WaveOutcome> {
    waves
        .iter()
        .map(|slots| {
            cluster
                .serve_wave(slots, INTRA_WAVE_TOKENS)
                .expect("healthy cluster serves")
        })
        .collect()
}

fn digest_outcomes(outcomes: &[sn_coe::WaveOutcome]) -> IntraDigest {
    let mut digest = IntraDigest {
        waves: 0,
        served: 0,
        dropped: 0,
        expert_hits: 0,
        expert_misses: 0,
        checksum: 0xcbf2_9ce4_8422_2325,
    };
    for outcome in outcomes {
        digest.waves += 1;
        digest.expert_hits += outcome.expert_hits;
        digest.expert_misses += outcome.expert_misses;
        fold_time(&mut digest.checksum, outcome.latency);
        for &t in &outcome.per_node {
            fold_time(&mut digest.checksum, t);
        }
        for p in &outcome.placements {
            match *p {
                WavePlacement::Served {
                    node,
                    first_token,
                    done,
                } => {
                    digest.served += 1;
                    fnv1a(&mut digest.checksum, node as u64);
                    fold_time(&mut digest.checksum, first_token);
                    fold_time(&mut digest.checksum, done);
                }
                WavePlacement::Dropped => digest.dropped += 1,
            }
        }
    }
    digest
}

/// One scenario execution: a warmup pass over the wave list brings
/// expert residency to steady state, then the timed pass serves the same
/// waves again. The digest covers the timed pass, and the wall-clock
/// measures serving, not cold-start graph compilation.
fn run_scenario(waves: &[Vec<WaveSlot>]) -> (IntraDigest, f64) {
    let mut cluster = build_cluster();
    let warmup = serve_all(&mut cluster, waves);
    drop(warmup);
    let start = Instant::now();
    let outcomes = serve_all(&mut cluster, waves);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (digest_outcomes(&outcomes), ms)
}

/// Runs the scenario once and digests the timed pass.
///
/// # Panics
///
/// Panics if the library cannot be placed on the cluster (a
/// configuration bug, not a runtime condition).
pub fn intra_digest() -> IntraDigest {
    run_scenario(&intra_waves()).0
}

/// Times the scenario: best steady-state wall-clock of [`TIMING_REPS`]
/// runs, each on a fresh cluster so expert-residency state never
/// carries across repetitions. The digest is checked identical across
/// repetitions before returning.
///
/// # Panics
///
/// Panics if repetitions disagree — a determinism bug this harness
/// exists to catch.
pub fn intra_point() -> IntraPoint {
    let waves = intra_waves();
    let mut best_ms = f64::INFINITY;
    let mut digest = None;
    for _ in 0..TIMING_REPS {
        let (d, ms) = run_scenario(&waves);
        best_ms = best_ms.min(ms);
        match digest {
            None => digest = Some(d),
            Some(prev) => assert_eq!(prev, d, "intra run must be deterministic across reps"),
        }
    }
    IntraPoint {
        digest: digest.expect("at least one rep"),
        wall_ms: best_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pass_exercises_the_miss_path() {
        // A fresh cluster's first pass over the wave list must fault
        // experts in: the warmup exists precisely because this cold
        // pass is not representative of steady-state serving.
        let mut cluster = build_cluster();
        let cold = digest_outcomes(&serve_all(&mut cluster, &intra_waves()));
        assert!(cold.expert_misses > 0, "cold activations exercised");
        assert!(cold.expert_hits > 0, "warm activations exercised");
    }
}
