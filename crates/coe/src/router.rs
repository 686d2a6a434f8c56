//! Prompt generation and routing (§II, Figure 2).
//!
//! The production router is itself a Llama2-7B-class classifier; here
//! routing is a deterministic seeded hash from prompt features to an
//! expert index. What the systems evaluation needs from the router is (a)
//! its own execution cost — modeled in [`crate::serving`] as a short
//! router-model run — and (b) a routing *distribution* over experts,
//! which drives switching behavior.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Task domains the experts specialize in (§II names coding, math, and
/// language translation among others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    Coding,
    Math,
    Translation,
    Legal,
    Medical,
    Finance,
    Writing,
    Science,
    Chat,
    Summarization,
}

impl Domain {
    pub const ALL: [Domain; 10] = [
        Domain::Coding,
        Domain::Math,
        Domain::Translation,
        Domain::Legal,
        Domain::Medical,
        Domain::Finance,
        Domain::Writing,
        Domain::Science,
        Domain::Chat,
        Domain::Summarization,
    ];

    pub fn tag(self) -> &'static str {
        match self {
            Domain::Coding => "code",
            Domain::Math => "math",
            Domain::Translation => "translate",
            Domain::Legal => "legal",
            Domain::Medical => "medical",
            Domain::Finance => "finance",
            Domain::Writing => "writing",
            Domain::Science => "science",
            Domain::Chat => "chat",
            Domain::Summarization => "summarize",
        }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prompt {
    pub id: u64,
    pub domain: Domain,
    /// Prompt length in tokens.
    pub tokens: usize,
}

/// Deterministic, seeded prompt stream. Samples in a batch are unrelated
/// (§VI-B: "samples in a batch have no relationship with each other").
#[derive(Debug, Clone)]
pub struct PromptGenerator {
    seed: u64,
    next_id: u64,
    prompt_tokens: usize,
}

impl PromptGenerator {
    pub fn new(seed: u64, prompt_tokens: usize) -> Self {
        PromptGenerator {
            seed,
            next_id: 0,
            prompt_tokens,
        }
    }

    /// Draws the next prompt.
    pub fn next_prompt(&mut self) -> Prompt {
        let id = self.next_id;
        self.next_id += 1;
        let mut h = DefaultHasher::new();
        (self.seed, id).hash(&mut h);
        let domain = Domain::ALL[(h.finish() % Domain::ALL.len() as u64) as usize];
        Prompt {
            id,
            domain,
            tokens: self.prompt_tokens,
        }
    }

    /// Draws a batch of prompts.
    pub fn batch(&mut self, n: usize) -> Vec<Prompt> {
        (0..n).map(|_| self.next_prompt()).collect()
    }
}

/// Residue classes of [`Prompt::id`] the router distinguishes: it keys
/// on `(seed, domain, id % 16)`.
const ID_CLASSES: usize = 16;

/// The router: maps each prompt to the most relevant expert (Figure 2).
///
/// Routing hashes `(seed, domain, id % 16)`, so the router's whole input
/// space is 10 domains × 16 id classes. [`Router::new`] hashes each of
/// those 160 keys once; [`Router::route`] reads the stored hash and
/// reduces it modulo the library size on every call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Router {
    /// `hashes[domain * 16 + class]`: the `DefaultHasher` digest of
    /// `(seed, domain, class)`, with `domain` in [`Domain::ALL`] order.
    hashes: [u64; Domain::ALL.len() * ID_CLASSES],
}

impl Router {
    pub fn new(seed: u64) -> Self {
        let mut hashes = [0; Domain::ALL.len() * ID_CLASSES];
        for (key, hash) in hashes.iter_mut().enumerate() {
            let mut h = DefaultHasher::new();
            let class = (key % ID_CLASSES) as u64;
            (seed, Domain::ALL[key / ID_CLASSES], class).hash(&mut h);
            *hash = h.finish();
        }
        Router { hashes }
    }

    /// Routes a prompt to one of `n_experts` experts: prompts of the same
    /// domain concentrate on the domain's expert cluster, with some
    /// id-dependent dispersion (specialists per sub-task).
    ///
    /// # Panics
    ///
    /// Panics when `n_experts` is zero.
    #[inline]
    pub fn route(&self, prompt: &Prompt, n_experts: usize) -> usize {
        assert!(n_experts > 0, "routing requires at least one expert");
        // `Domain` is declared in `Domain::ALL` order, so its
        // discriminant is its row.
        let key = prompt.domain as usize * ID_CLASSES + (prompt.id % ID_CLASSES as u64) as usize;
        (self.hashes[key] % n_experts as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: one fresh `DefaultHasher` per routing call.
    fn reference_route(seed: u64, prompt: &Prompt, n_experts: usize) -> usize {
        let mut h = DefaultHasher::new();
        (seed, prompt.domain, prompt.id % 16).hash(&mut h);
        (h.finish() % n_experts as u64) as usize
    }

    #[test]
    fn memoized_route_matches_the_per_call_hash() {
        for seed in [0xc1a5fe2u64, 1, 0xdead_beef] {
            let router = Router::new(seed);
            for n_experts in [1usize, 7, 150, 480] {
                for &domain in &Domain::ALL {
                    for id in 0..64u64 {
                        // Routing never keys on prompt length.
                        for tokens in [1usize, 128, 4096] {
                            let p = Prompt { id, domain, tokens };
                            assert_eq!(
                                router.route(&p, n_experts),
                                reference_route(seed, &p, n_experts),
                                "seed {seed:#x}, {n_experts} experts, prompt {p:?}"
                            );
                        }
                    }
                }
                let mut gen = PromptGenerator::new(seed ^ 0x5eed, 512);
                for p in gen.batch(512) {
                    assert_eq!(
                        router.route(&p, n_experts),
                        reference_route(seed, &p, n_experts),
                        "seed {seed:#x}, {n_experts} experts, prompt {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let r = Router::new(7);
        let mut g = PromptGenerator::new(1, 512);
        let p = g.next_prompt();
        assert_eq!(r.route(&p, 150), r.route(&p, 150));
    }

    #[test]
    fn same_domain_prompts_reuse_experts() {
        // Temporal locality (§III-B): repeated domain traffic lands on a
        // bounded expert subset, which is what HBM caching exploits.
        let r = Router::new(7);
        let prompts: Vec<Prompt> = (0..64)
            .map(|id| Prompt {
                id,
                domain: Domain::Math,
                tokens: 512,
            })
            .collect();
        let experts: std::collections::HashSet<usize> =
            prompts.iter().map(|p| r.route(p, 150)).collect();
        assert!(
            experts.len() <= 16,
            "math prompts hit {} experts",
            experts.len()
        );
    }

    #[test]
    fn routing_spreads_across_library() {
        let r = Router::new(7);
        let mut g = PromptGenerator::new(3, 512);
        let hits: std::collections::HashSet<usize> =
            g.batch(512).iter().map(|p| r.route(p, 150)).collect();
        assert!(hits.len() > 30, "only {} experts used", hits.len());
    }

    #[test]
    fn generator_is_seed_stable() {
        let a: Vec<Prompt> = PromptGenerator::new(42, 512).batch(8);
        let b: Vec<Prompt> = PromptGenerator::new(42, 512).batch(8);
        assert_eq!(a, b);
        let c: Vec<Prompt> = PromptGenerator::new(43, 512).batch(8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn routing_to_zero_experts_panics() {
        let r = Router::new(0);
        let p = Prompt {
            id: 0,
            domain: Domain::Chat,
            tokens: 8,
        };
        let _ = r.route(&p, 0);
    }
}
