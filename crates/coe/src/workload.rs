//! Trace-driven serving workloads.
//!
//! The §III-B argument rests on *temporal locality* in expert usage;
//! uniform routing understates it. This module generates deterministic
//! request traces with two real-world properties: a skewed (Zipf-like)
//! popularity distribution over domains and slow *drift* of the popular
//! set, so cache studies (LRU vs FIFO, HBM sizing) see realistic reuse.

use crate::router::{Domain, Prompt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trace parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Zipf exponent over domains: 0.0 is uniform; ~1.0 is web-like skew.
    pub skew: f64,
    /// Requests between one-position rotations of the popularity ranking
    /// (0 disables drift).
    pub drift_period: usize,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            skew: 0.9,
            drift_period: 256,
            prompt_tokens: 1024,
        }
    }
}

/// A deterministic skewed-and-drifting prompt source.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
    rng: StdRng,
    /// Current popularity ranking of domains (index 0 = most popular).
    ranking: Vec<Domain>,
    /// Cumulative Zipf distribution over ranks.
    cdf: Vec<f64>,
    emitted: usize,
    next_id: u64,
}

impl TraceGenerator {
    pub fn new(seed: u64, config: TraceConfig) -> Self {
        let n = Domain::ALL.len();
        let weights: Vec<f64> = (1..=n)
            .map(|rank| 1.0 / (rank as f64).powf(config.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        TraceGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            ranking: Domain::ALL.to_vec(),
            cdf,
            emitted: 0,
            next_id: 0,
        }
    }

    /// Draws the next request.
    pub fn next_prompt(&mut self) -> Prompt {
        if self.config.drift_period > 0
            && self.emitted > 0
            && self.emitted.is_multiple_of(self.config.drift_period)
        {
            // Drift: the least popular domain becomes the new favorite.
            self.ranking.rotate_right(1);
        }
        self.emitted += 1;
        let u: f64 = self.rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranking.len() - 1);
        let id = self.next_id;
        self.next_id += 1;
        Prompt {
            id,
            domain: self.ranking[rank],
            tokens: self.config.prompt_tokens,
        }
    }

    /// Draws a batch.
    pub fn batch(&mut self, n: usize) -> Vec<Prompt> {
        (0..n).map(|_| self.next_prompt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn domain_counts(trace: &mut TraceGenerator, n: usize) -> HashMap<Domain, usize> {
        let mut counts = HashMap::new();
        for _ in 0..n {
            *counts.entry(trace.next_prompt().domain).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let cfg = TraceConfig::default();
        let a: Vec<Prompt> = TraceGenerator::new(1, cfg).batch(64);
        let b: Vec<Prompt> = TraceGenerator::new(1, cfg).batch(64);
        let c: Vec<Prompt> = TraceGenerator::new(2, cfg).batch(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skew_concentrates_traffic() {
        let cfg = TraceConfig {
            skew: 1.2,
            drift_period: 0,
            prompt_tokens: 64,
        };
        let mut trace = TraceGenerator::new(3, cfg);
        let counts = domain_counts(&mut trace, 2000);
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top2: usize = sorted.iter().take(2).sum();
        assert!(
            top2 * 2 > 2000,
            "top-2 domains should carry >50%: {top2}/2000"
        );
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let cfg = TraceConfig {
            skew: 0.0,
            drift_period: 0,
            prompt_tokens: 64,
        };
        let mut trace = TraceGenerator::new(4, cfg);
        let counts = domain_counts(&mut trace, 5000);
        for (&d, &c) in &counts {
            assert!(
                (300..=700).contains(&c),
                "{d:?} drew {c} of 5000 under uniform skew"
            );
        }
    }

    #[test]
    fn drift_rotates_the_hot_domain() {
        let cfg = TraceConfig {
            skew: 1.5,
            drift_period: 500,
            prompt_tokens: 64,
        };
        let mut trace = TraceGenerator::new(5, cfg);
        let early = domain_counts(&mut trace, 400);
        // Skip across several drift periods.
        for _ in 0..4000 {
            trace.next_prompt();
        }
        let late = domain_counts(&mut trace, 400);
        let hot =
            |m: &HashMap<Domain, usize>| *m.iter().max_by_key(|(_, &c)| c).expect("non-empty").0;
        assert_ne!(hot(&early), hot(&late), "popularity should have drifted");
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut trace = TraceGenerator::new(6, TraceConfig::default());
        let batch = trace.batch(100);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
    }
}
