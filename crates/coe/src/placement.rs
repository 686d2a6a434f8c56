//! Router-statistics-driven expert placement and predictive prefetch.
//!
//! The cluster's switch model ([`crate::cluster`]) is *reactive*: a cold
//! expert pays the full DDR→HBM penalty the moment the router lands on
//! it. This module closes the loop the SN40L paper leaves to the serving
//! stack: observe where the router actually goes, then act *before* the
//! next wave —
//!
//! - [`ExpertStats`] accumulates per-expert hit counts, a presence EWMA
//!   (the probability the expert appears in a wave), inter-arrival gaps,
//!   and co-activation pair counts from each wave's routed experts.
//! - [`PrefetchPolicy`] turns those statistics into speculative DDR→HBM
//!   loads at wave boundaries: experts whose predicted-hit probability
//!   clears a threshold are staged into HBM ahead of demand. Prefetch
//!   traffic is charged through the memsim DMA model, so mispredictions
//!   cost real bandwidth (counted as `prefetch_wasted_bytes`).
//! - [`PlacementPolicy`] replicates hot experts onto additional nodes
//!   (router bursts then split across sockets, and failover re-homing
//!   becomes free when a replica already holds the weights) and spreads
//!   cold experts off overloaded nodes.
//! - [`ServingPolicies`] bundles the above plus a [`crate::kv`] paged KV
//!   cache for [`crate::CoeCluster::serve_tenants_with_policies`].
//!
//! All decisions are pure functions of accumulated statistics over
//! ordered containers — two runs observing the same waves produce the
//! same plans, which is what keeps the `repro placement` sweep
//! byte-identical at any `--jobs` count.
//!
//! # Examples
//!
//! ```
//! use sn_coe::placement::{ExpertStats, PrefetchPolicy};
//!
//! let mut stats = ExpertStats::new(8, 0.3);
//! // Expert 2 shows up every wave, expert 5 once: 2 becomes "hot".
//! for _ in 0..6 {
//!     stats.observe_wave(&[2]);
//! }
//! stats.observe_wave(&[2, 5]);
//! assert!(stats.rate(2) > 0.9);
//! assert!(stats.rate(5) < 0.5);
//!
//! let policy = PrefetchPolicy { threshold: 0.5, max_per_wave: 4 };
//! assert_eq!(policy.candidates(&stats), vec![2]);
//! ```

use crate::kv::{KvStats, PagedKvCache, PagedKvConfig};
use sn_arch::{Bytes, TimeSecs};

/// Online router statistics, observed once per served wave.
///
/// Everything downstream — prefetch candidates and placement plans — is
/// derived from this accumulator, so its update rule is the policy
/// layer's only coupling to the serving loop.
///
/// Co-activation counts live in a dense symmetric `n × n` matrix, so one
/// expert's prediction reads one row instead of walking every pair. It
/// costs `n² · 8` bytes: 176 KiB at the CoE's 150 experts.
#[derive(Debug, Clone)]
pub struct ExpertStats {
    alpha: f64,
    hits: Vec<u64>,
    rate: Vec<f64>,
    gap_ewma: Vec<f64>,
    last_wave: Vec<Option<u64>>,
    /// Row-major `n × n`: `co[a * n + b]` waves routed both `a` and `b`.
    /// Symmetric, with a zero diagonal.
    co: Vec<u64>,
    waves: u64,
}

impl ExpertStats {
    /// Builds an accumulator for `n_experts` experts with EWMA smoothing
    /// factor `alpha` (weight of the newest wave; higher = faster
    /// adaptation to bursts).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < alpha <= 1.0`.
    pub fn new(n_experts: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        ExpertStats {
            alpha,
            hits: vec![0; n_experts],
            rate: vec![0.0; n_experts],
            gap_ewma: vec![0.0; n_experts],
            last_wave: vec![None; n_experts],
            co: vec![0; n_experts * n_experts],
            waves: 0,
        }
    }

    /// Number of experts tracked.
    pub fn n_experts(&self) -> usize {
        self.hits.len()
    }

    /// Waves observed so far.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Feeds one wave's routed experts (duplicates are fine; each expert
    /// counts once per wave). Updates hit counts, the presence EWMA for
    /// *every* expert (absent experts decay), inter-arrival gaps, and
    /// co-activation pairs.
    pub fn observe_wave(&mut self, active: &[usize]) {
        self.waves += 1;
        let mut unique: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&e| e < self.hits.len())
            .collect();
        unique.sort_unstable();
        unique.dedup();
        let mut cursor = 0;
        for e in 0..self.hits.len() {
            let present = cursor < unique.len() && unique[cursor] == e;
            if present {
                cursor += 1;
                self.hits[e] += 1;
                if let Some(last) = self.last_wave[e] {
                    let gap = (self.waves - last) as f64;
                    self.gap_ewma[e] = if self.gap_ewma[e] == 0.0 {
                        gap
                    } else {
                        self.alpha * gap + (1.0 - self.alpha) * self.gap_ewma[e]
                    };
                }
                self.last_wave[e] = Some(self.waves);
            }
            let x = if present { 1.0 } else { 0.0 };
            self.rate[e] = self.alpha * x + (1.0 - self.alpha) * self.rate[e];
        }
        let n = self.hits.len();
        for (i, &a) in unique.iter().enumerate() {
            for &b in &unique[i + 1..] {
                self.co[a * n + b] += 1;
                self.co[b * n + a] += 1;
            }
        }
    }

    /// Total hits recorded for an expert.
    pub fn hit_count(&self, expert: usize) -> u64 {
        self.hits[expert]
    }

    /// Presence EWMA: the smoothed probability that `expert` appears in
    /// a wave.
    pub fn rate(&self, expert: usize) -> f64 {
        self.rate[expert]
    }

    /// Smoothed inter-arrival gap in waves (0 until the expert has been
    /// seen twice).
    pub fn interarrival(&self, expert: usize) -> f64 {
        self.gap_ewma[expert]
    }

    /// Times `a` and `b` were routed in the same wave (0 when `a == b`
    /// or either index is out of range).
    pub fn co_activations(&self, a: usize, b: usize) -> u64 {
        let n = self.hits.len();
        if a < n && b < n {
            self.co[a * n + b]
        } else {
            0
        }
    }

    /// Predicted probability that `expert` is routed next wave: its own
    /// presence EWMA, lifted by the strongest co-activation signal —
    /// `P(e | partner) · rate(partner)` over all partners it has fired
    /// with.
    pub fn predicted_probability(&self, expert: usize) -> f64 {
        let n = self.hits.len();
        let mut p = self.rate[expert];
        let row = &self.co[expert * n..(expert + 1) * n];
        for (partner, &count) in row.iter().enumerate() {
            // A nonzero count means the partner was routed, so its hit
            // count is nonzero too.
            if count > 0 {
                let conditional = count as f64 / self.hits[partner] as f64;
                p = p.max(conditional * self.rate[partner]);
            }
        }
        p.min(1.0)
    }

    /// Experts sorted hottest-first by presence EWMA (ties: lower index
    /// first).
    pub fn by_heat(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.hits.len()).collect();
        order.sort_by(|&a, &b| {
            self.rate[b]
                .partial_cmp(&self.rate[a])
                .expect("rates are finite")
                .then(a.cmp(&b))
        });
        order
    }
}

/// Issues speculative DDR→HBM loads at wave boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchPolicy {
    /// Minimum predicted-hit probability before a prefetch is worth its
    /// bandwidth. Set above 1.0 to force every prediction cold (the
    /// property harness uses this to prove prefetch never changes served
    /// outputs).
    pub threshold: f64,
    /// At most this many speculative loads *issued* per wave boundary,
    /// so a burst of candidates cannot flood the switch path. The
    /// candidate list itself is uncapped: the cluster walks it
    /// hottest-first, skips experts already resident, and stops once
    /// this many transfers have actually been staged.
    pub max_per_wave: usize,
}

impl Default for PrefetchPolicy {
    fn default() -> Self {
        PrefetchPolicy {
            threshold: 0.35,
            max_per_wave: 4,
        }
    }
}

impl PrefetchPolicy {
    /// Experts worth prefetching right now, hottest-first. Deliberately
    /// uncapped: the policy cannot see HBM residency, so it proposes the
    /// whole predicted-hot set and the cluster stages the first
    /// `max_per_wave` that are actually missing (already-resident
    /// candidates are free skips, not wasted slots).
    pub fn candidates(&self, stats: &ExpertStats) -> Vec<usize> {
        let mut picks: Vec<(usize, f64)> = (0..stats.n_experts())
            .map(|e| (e, stats.predicted_probability(e)))
            .filter(|&(_, p)| p >= self.threshold)
            .collect();
        picks.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("probabilities are finite")
                .then(a.0.cmp(&b.0))
        });
        picks.into_iter().map(|(e, _)| e).collect()
    }
}

/// Cluster topology the placement policy plans against (plain data so
/// the policy stays decoupled from [`crate::CoeCluster`] internals).
#[derive(Debug, Clone)]
pub struct PlacementView {
    /// Home node per expert.
    pub homes: Vec<usize>,
    /// Extra nodes holding a replica, per expert.
    pub replicas: Vec<Vec<usize>>,
    /// Liveness per node.
    pub healthy: Vec<bool>,
}

impl PlacementView {
    fn holds(&self, expert: usize, node: usize) -> bool {
        self.homes[expert] == node || self.replicas[expert].contains(&node)
    }

    /// Aggregate heat a node carries: Σ rate over experts homed there.
    fn node_heat(&self, stats: &ExpertStats, node: usize) -> f64 {
        (0..self.homes.len())
            .filter(|&e| self.homes[e] == node)
            .map(|e| stats.rate(e))
            .sum()
    }
}

/// What the placement policy wants the cluster to do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementPlan {
    /// `(expert, node)`: create a replica of a hot expert on `node`.
    pub replicate: Vec<(usize, usize)>,
    /// `(expert, node)`: re-home a cold expert onto `node` to relieve a
    /// hot node.
    pub moves: Vec<(usize, usize)>,
}

impl PlacementPlan {
    /// True when the plan asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.replicate.is_empty() && self.moves.is_empty()
    }
}

/// Replicates hot experts across nodes and spreads cold ones, driven by
/// observed router statistics instead of the cluster's uniform
/// round-robin heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementPolicy {
    /// Presence EWMA above which an expert is "hot" enough to replicate.
    pub hot_threshold: f64,
    /// At most this many new replicas per evaluation.
    pub max_replicas_per_eval: usize,
    /// At most this many cold-expert moves per evaluation.
    pub max_cold_moves: usize,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy {
            hot_threshold: 0.6,
            max_replicas_per_eval: 2,
            max_cold_moves: 2,
        }
    }
}

impl PlacementPolicy {
    /// Plans replications and cold moves against the current topology.
    ///
    /// Hot experts (presence EWMA ≥ `hot_threshold`, hottest first) each
    /// gain one replica on the coolest healthy node not already holding
    /// them. Then the hottest node sheds its coldest experts to the
    /// coolest healthy node, up to `max_cold_moves` (only when the heat
    /// spread is meaningful, so a balanced cluster plans nothing).
    pub fn plan(&self, stats: &ExpertStats, view: &PlacementView) -> PlacementPlan {
        let mut plan = PlacementPlan::default();
        let healthy: Vec<usize> = (0..view.healthy.len())
            .filter(|&n| view.healthy[n])
            .collect();
        if healthy.len() < 2 {
            return plan;
        }
        let mut heat: Vec<f64> = (0..view.healthy.len())
            .map(|n| view.node_heat(stats, n))
            .collect();

        // Hot replication: hottest experts first, one new replica each.
        for e in stats.by_heat() {
            if plan.replicate.len() >= self.max_replicas_per_eval {
                break;
            }
            if stats.rate(e) < self.hot_threshold {
                break; // hottest-first order: everything after is colder
            }
            let target = healthy
                .iter()
                .copied()
                .filter(|&n| !view.holds(e, n))
                .filter(|&n| !plan.replicate.iter().any(|&(pe, pn)| pe == e && pn == n))
                .min_by(|&a, &b| {
                    heat[a]
                        .partial_cmp(&heat[b])
                        .expect("heat is finite")
                        .then(a.cmp(&b))
                });
            if let Some(node) = target {
                heat[node] += stats.rate(e);
                plan.replicate.push((e, node));
            }
        }

        // Cold spreading: relieve the hottest node with its coldest
        // experts, provided there is a real imbalance to fix.
        let hottest = healthy
            .iter()
            .copied()
            .max_by(|&a, &b| {
                heat[a]
                    .partial_cmp(&heat[b])
                    .expect("heat is finite")
                    .then(b.cmp(&a))
            })
            .expect("at least two healthy nodes");
        let coolest = healthy
            .iter()
            .copied()
            .min_by(|&a, &b| {
                heat[a]
                    .partial_cmp(&heat[b])
                    .expect("heat is finite")
                    .then(a.cmp(&b))
            })
            .expect("at least two healthy nodes");
        if hottest != coolest && heat[hottest] > 2.0 * heat[coolest].max(f64::EPSILON) {
            let mut cold: Vec<usize> = (0..view.homes.len())
                .filter(|&e| view.homes[e] == hottest)
                .collect();
            cold.sort_by(|&a, &b| {
                stats
                    .rate(a)
                    .partial_cmp(&stats.rate(b))
                    .expect("rates are finite")
                    .then(a.cmp(&b))
            });
            for e in cold.into_iter().take(self.max_cold_moves) {
                plan.moves.push((e, coolest));
            }
        }
        plan
    }
}

/// Knobs for a [`ServingPolicies`] bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// EWMA smoothing factor for [`ExpertStats`].
    pub ewma_alpha: f64,
    /// Speculative prefetch, or `None` to serve reactively.
    pub prefetch: Option<PrefetchPolicy>,
    /// Stats-driven placement, or `None` to keep homes static.
    pub placement: Option<PlacementPolicy>,
    /// Waves between placement evaluations (placement is heavyweight —
    /// it moves weights — so it runs on a cadence, not every wave).
    pub placement_cadence: u64,
    /// Paged KV cache under the shared HBM budget, or `None` to leave KV
    /// unmodelled.
    pub kv: Option<PagedKvConfig>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            ewma_alpha: 0.25,
            prefetch: Some(PrefetchPolicy::default()),
            placement: Some(PlacementPolicy::default()),
            placement_cadence: 8,
            kv: Some(PagedKvConfig::default()),
        }
    }
}

/// Everything the policy layer did during a serve, for reports and
/// sweeps. Conservation: `kv_pages_in == resident + kv_pages_evicted`
/// (see [`crate::kv`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyReport {
    /// Speculative loads issued.
    pub prefetch_issued: u64,
    /// Prefetched experts the router actually landed on next.
    pub prefetch_hits: u64,
    /// Bytes staged for experts that were never used before expiring.
    pub prefetch_wasted: Bytes,
    /// Background-transfer time the waves could not hide.
    pub transfer_exposed: TimeSecs,
    /// Hot-expert replicas created.
    pub experts_replicated: u64,
    /// Cold experts re-homed off hot nodes.
    pub cold_moves: u64,
    /// KV pages that entered HBM.
    pub kv_pages_in: u64,
    /// KV pages evicted under budget pressure.
    pub kv_pages_evicted: u64,
    /// Evicted live KV pages that had to refill DDR→HBM.
    pub kv_refaults: u64,
}

impl PolicyReport {
    /// Fraction of issued prefetches that became demand hits.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_issued as f64
        }
    }

    /// Folds a KV cache's final statistics into the report.
    pub fn absorb_kv(&mut self, stats: KvStats) {
        self.kv_pages_in = stats.pages_in;
        self.kv_pages_evicted = stats.pages_evicted;
        self.kv_refaults = stats.refaults;
    }
}

/// The policy bundle a serving loop drives: statistics in, prefetch
/// candidates and placement plans out, plus the paged KV cache and the
/// accumulated [`PolicyReport`].
#[derive(Debug, Clone)]
pub struct ServingPolicies {
    /// Router statistics, fed once per wave.
    pub stats: ExpertStats,
    /// Speculative prefetch policy, if enabled.
    pub prefetch: Option<PrefetchPolicy>,
    /// Placement policy, if enabled.
    pub placement: Option<PlacementPolicy>,
    /// Waves between placement evaluations.
    pub placement_cadence: u64,
    /// Paged KV cache, if enabled.
    pub kv: Option<PagedKvCache>,
    /// Running totals.
    pub report: PolicyReport,
}

impl ServingPolicies {
    /// Builds a bundle for `n_experts` experts from `config`.
    pub fn new(n_experts: usize, config: PolicyConfig) -> Self {
        ServingPolicies {
            stats: ExpertStats::new(n_experts, config.ewma_alpha),
            prefetch: config.prefetch,
            placement: config.placement,
            placement_cadence: config.placement_cadence.max(1),
            kv: config.kv.map(PagedKvCache::new),
            report: PolicyReport::default(),
        }
    }

    /// Prefetch candidates for the next wave (empty when prefetch is
    /// off — the caller's loop then does nothing, preserving
    /// bit-identity with the reactive path).
    pub fn prefetch_candidates(&self) -> Vec<usize> {
        self.prefetch
            .as_ref()
            .map(|p| p.candidates(&self.stats))
            .unwrap_or_default()
    }

    /// Cap on speculative loads issued per wave boundary (0 when
    /// prefetch is off).
    pub fn max_prefetch_per_wave(&self) -> usize {
        self.prefetch.as_ref().map(|p| p.max_per_wave).unwrap_or(0)
    }

    /// True when a placement evaluation is due after `wave` waves.
    pub fn placement_due(&self, wave: u64) -> bool {
        self.placement.is_some() && wave > 0 && wave.is_multiple_of(self.placement_cadence)
    }

    /// Plans placement actions against `view`, or `None` when placement
    /// is off.
    pub fn plan_placement(&self, view: &PlacementView) -> Option<PlacementPlan> {
        self.placement.as_ref().map(|p| p.plan(&self.stats, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(homes: &[usize], nodes: usize) -> PlacementView {
        PlacementView {
            homes: homes.to_vec(),
            replicas: vec![Vec::new(); homes.len()],
            healthy: vec![true; nodes],
        }
    }

    #[test]
    fn presence_ewma_tracks_hot_and_decays_cold() {
        let mut stats = ExpertStats::new(4, 0.5);
        for _ in 0..5 {
            stats.observe_wave(&[1]);
        }
        assert!(stats.rate(1) > 0.9);
        assert_eq!(stats.hit_count(1), 5);
        for _ in 0..5 {
            stats.observe_wave(&[2]);
        }
        assert!(stats.rate(1) < 0.1, "absent experts decay");
        assert!(stats.rate(2) > 0.9);
    }

    #[test]
    fn interarrival_and_coactivation_accumulate() {
        let mut stats = ExpertStats::new(4, 0.5);
        stats.observe_wave(&[0, 3]);
        stats.observe_wave(&[1]);
        stats.observe_wave(&[0, 3]);
        assert_eq!(stats.co_activations(0, 3), 2);
        assert_eq!(stats.co_activations(3, 0), 2);
        assert_eq!(stats.co_activations(0, 1), 0);
        assert!((stats.interarrival(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn coactivation_query_out_of_range_or_diagonal_is_zero() {
        let mut stats = ExpertStats::new(4, 0.5);
        stats.observe_wave(&[0, 3, 9]);
        assert_eq!(stats.co_activations(0, 3), 1);
        assert_eq!(stats.co_activations(3, 3), 0, "diagonal");
        assert_eq!(stats.co_activations(0, 4), 0, "one index past the end");
        assert_eq!(stats.co_activations(9, 0), 0, "routed but untracked");
        assert_eq!(stats.co_activations(usize::MAX, usize::MAX), 0);
        assert_eq!(ExpertStats::new(0, 0.5).co_activations(0, 0), 0);
    }

    #[test]
    fn repeated_expert_in_one_wave_counts_once() {
        // A wave that routes every slot to the same expert (one hot
        // domain) must count that expert once — presence is per wave,
        // not per slot — and must not record a self co-activation.
        let mut stats = ExpertStats::new(4, 0.5);
        stats.observe_wave(&[2, 2, 2, 2]);
        assert_eq!(stats.waves(), 1);
        assert_eq!(stats.hit_count(2), 1, "duplicates collapse per wave");
        assert_eq!(stats.co_activations(2, 2), 0, "no self co-activation");
        // The EWMA saw one wave with the expert present, nothing more.
        assert!((stats.rate(2) - 0.5).abs() < 1e-9);
        stats.observe_wave(&[2, 2]);
        assert_eq!(stats.hit_count(2), 2);
        assert_eq!(stats.co_activations(2, 2), 0);
    }

    #[test]
    fn coactivation_lifts_predicted_probability() {
        let mut stats = ExpertStats::new(4, 0.5);
        // 0 and 3 always fire together; 3 alone would predict itself,
        // and 0's partnership with 3 keeps its prediction high even
        // after a wave without it.
        for _ in 0..6 {
            stats.observe_wave(&[0, 3]);
        }
        stats.observe_wave(&[3]);
        let solo = stats.rate(0);
        let predicted = stats.predicted_probability(0);
        assert!(predicted > solo, "co-activation with hot partner lifts 0");
    }

    #[test]
    fn prefetch_candidates_are_hot_first_and_threshold_filtered() {
        let mut stats = ExpertStats::new(6, 0.5);
        for _ in 0..6 {
            stats.observe_wave(&[1, 4]);
        }
        stats.observe_wave(&[2]);
        // After the [2] wave: rate(2) = 0.5 while 1 and 4 decayed to
        // ~0.49, so the freshest expert leads; the co-activated pair
        // follows (tie → lower index). The list is uncapped —
        // `max_per_wave` limits issued transfers, not candidates.
        let policy = PrefetchPolicy {
            threshold: 0.3,
            max_per_wave: 1,
        };
        assert_eq!(policy.candidates(&stats), vec![2, 1, 4]);
        let strict = PrefetchPolicy {
            threshold: 0.499,
            max_per_wave: 8,
        };
        assert_eq!(strict.candidates(&stats), vec![2]);
    }

    #[test]
    fn impossible_threshold_forces_every_prediction_cold() {
        let mut stats = ExpertStats::new(4, 0.5);
        for _ in 0..8 {
            stats.observe_wave(&[0, 1, 2, 3]);
        }
        let cold = PrefetchPolicy {
            threshold: 2.0,
            max_per_wave: 8,
        };
        assert!(cold.candidates(&stats).is_empty());
    }

    #[test]
    fn hot_experts_replicate_onto_coolest_non_holder() {
        let mut stats = ExpertStats::new(4, 0.5);
        for _ in 0..8 {
            stats.observe_wave(&[0]);
        }
        // Expert 0 homed on node 0; nodes 1 and 2 idle → replica lands
        // on node 1 (coolest, lowest index).
        let v = view(&[0, 0, 1, 2], 3);
        let plan = PlacementPolicy::default().plan(&stats, &v);
        assert_eq!(plan.replicate, vec![(0, 1)]);
    }

    #[test]
    fn balanced_cluster_plans_nothing() {
        let mut stats = ExpertStats::new(4, 0.5);
        for _ in 0..4 {
            stats.observe_wave(&[0, 1, 2, 3]);
        }
        let v = view(&[0, 1, 0, 1], 2);
        let plan = PlacementPolicy {
            hot_threshold: 2.0, // no expert clears it → no replication
            ..PlacementPolicy::default()
        }
        .plan(&stats, &v);
        assert!(plan.is_empty(), "equal heat → no cold moves either");
    }

    #[test]
    fn imbalance_triggers_cold_moves_to_coolest_node() {
        let mut stats = ExpertStats::new(4, 0.5);
        for _ in 0..8 {
            stats.observe_wave(&[0, 1]);
        }
        // Everything homed on node 0, node 1 empty → hottest node sheds
        // its coldest experts (never-routed 2 and 3) to node 1.
        let v = view(&[0, 0, 0, 0], 2);
        let plan = PlacementPolicy {
            hot_threshold: 2.0,
            max_replicas_per_eval: 0,
            max_cold_moves: 2,
        }
        .plan(&stats, &v);
        assert_eq!(plan.moves, vec![(2, 1), (3, 1)]);
    }

    #[test]
    fn single_healthy_node_plans_nothing() {
        let mut stats = ExpertStats::new(2, 0.5);
        for _ in 0..8 {
            stats.observe_wave(&[0, 1]);
        }
        let v = PlacementView {
            homes: vec![0, 0],
            replicas: vec![Vec::new(), Vec::new()],
            healthy: vec![true, false],
        };
        assert!(PlacementPolicy::default().plan(&stats, &v).is_empty());
    }

    #[test]
    fn serving_policies_cadence_and_disabled_paths() {
        let bundle = ServingPolicies::new(
            8,
            PolicyConfig {
                placement_cadence: 4,
                ..PolicyConfig::default()
            },
        );
        assert!(!bundle.placement_due(0));
        assert!(!bundle.placement_due(3));
        assert!(bundle.placement_due(4));
        assert!(bundle.placement_due(8));

        let off = ServingPolicies::new(
            8,
            PolicyConfig {
                prefetch: None,
                placement: None,
                kv: None,
                ..PolicyConfig::default()
            },
        );
        assert!(off.prefetch_candidates().is_empty());
        assert!(!off.placement_due(4));
        assert!(off.kv.is_none());
    }
}
