//! Seeded per-site fault schedules.

use std::sync::atomic::{AtomicU64, Ordering};

/// An operation site where the stack consults the fault plan.
///
/// Each site owns an independent deterministic draw stream: injecting
/// faults at one site never perturbs the decisions another site sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A DMA transfer between memory tiers (`sn-memsim`'s `DmaEngine`).
    DmaTransfer,
    /// A kernel execution pass over the socket fabric (`NodeExecutor`).
    SocketLink,
    /// An expert weight load DDR→HBM (`CoeRuntime::activate`).
    ExpertLoad,
    /// A router classification pass (`SambaCoeNode` serving).
    RouterDecision,
    /// A whole node dropping out of a cluster mid-batch (`CoeCluster`).
    NodeFailure,
}

impl FaultSite {
    pub const ALL: [FaultSite; 5] = [
        FaultSite::DmaTransfer,
        FaultSite::SocketLink,
        FaultSite::ExpertLoad,
        FaultSite::RouterDecision,
        FaultSite::NodeFailure,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            FaultSite::DmaTransfer => 0,
            FaultSite::SocketLink => 1,
            FaultSite::ExpertLoad => 2,
            FaultSite::RouterDecision => 3,
            FaultSite::NodeFailure => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DmaTransfer => "dma-transfer",
            FaultSite::SocketLink => "socket-link",
            FaultSite::ExpertLoad => "expert-load",
            FaultSite::RouterDecision => "router-decision",
            FaultSite::NodeFailure => "node-failure",
        }
    }
}

/// Fault probabilities for one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability an operation fails outright (corrupt load, dropped
    /// socket, dead node) and must be retried or failed over.
    pub fail_rate: f64,
    /// Probability an operation completes but degraded (link congestion,
    /// thermal throttling): it takes `slow_factor` times as long.
    pub slow_rate: f64,
    /// Latency multiplier applied on a slowdown draw.
    pub slow_factor: f64,
}

impl FaultSpec {
    /// No faults at this site.
    pub const NONE: FaultSpec = FaultSpec {
        fail_rate: 0.0,
        slow_rate: 0.0,
        slow_factor: 1.0,
    };

    /// Outright failures only.
    ///
    /// # Panics
    ///
    /// Panics when `fail_rate` is outside `[0, 1]` (including NaN): a
    /// probability typo should explode at construction, not silently
    /// skew a chaos experiment.
    pub fn failing(fail_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail_rate),
            "invalid fault rates: fail_rate {fail_rate} outside [0, 1]"
        );
        FaultSpec {
            fail_rate,
            slow_rate: 0.0,
            slow_factor: 1.0,
        }
    }

    /// Slowdowns only.
    ///
    /// # Panics
    ///
    /// Panics when `slow_rate` is outside `[0, 1]` or `slow_factor` is
    /// below 1 (a "slowdown" that speeds things up is a typo).
    pub fn slow(slow_rate: f64, slow_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&slow_rate),
            "invalid fault rates: slow_rate {slow_rate} outside [0, 1]"
        );
        assert!(
            slow_factor >= 1.0,
            "slow_factor must be >= 1.0, got {slow_factor}"
        );
        FaultSpec {
            fail_rate: 0.0,
            slow_rate,
            slow_factor,
        }
    }

    pub(crate) fn validate(&self, site: FaultSite) {
        assert!(
            (0.0..=1.0).contains(&self.fail_rate)
                && (0.0..=1.0).contains(&self.slow_rate)
                && self.fail_rate + self.slow_rate <= 1.0,
            "invalid fault rates for {}: fail {} slow {}",
            site.name(),
            self.fail_rate,
            self.slow_rate,
        );
        assert!(self.slow_factor >= 1.0, "slow_factor must be >= 1.0");
    }

    fn is_none(&self) -> bool {
        self.fail_rate == 0.0 && self.slow_rate == 0.0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// The outcome of consulting the plan at one operation site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// The operation proceeds normally.
    Ok,
    /// The operation completes but takes `factor` times as long.
    Slow(f64),
    /// The operation fails and must be retried or failed over.
    Fail,
}

/// Per-site draw statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Operations that consulted this site.
    pub draws: u64,
    /// Injected outright failures.
    pub failures: u64,
    /// Injected slowdowns.
    pub slowdowns: u64,
}

/// Statistics across all sites, in [`FaultSite::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub per_site: [SiteStats; 5],
}

impl FaultStats {
    pub fn site(&self, site: FaultSite) -> SiteStats {
        self.per_site[site.index()]
    }

    pub fn total_failures(&self) -> u64 {
        self.per_site.iter().map(|s| s.failures).sum()
    }

    pub fn total_slowdowns(&self) -> u64 {
        self.per_site.iter().map(|s| s.slowdowns).sum()
    }
}

/// A deterministic, seeded fault schedule.
///
/// Decisions are pure functions of `(seed, site, site-local draw index)`,
/// hashed through splitmix64: the n-th consultation of a given site
/// always yields the same decision for a given seed, independent of what
/// other sites do in between. Shared across the stack behind an
/// `Arc<FaultPlan>`; the draw counters use atomics so `&self` methods
/// work from the immutable handles components hold.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    specs: [FaultSpec; 5],
    draws: [AtomicU64; 5],
    failures: [AtomicU64; 5],
    slowdowns: [AtomicU64; 5],
}

impl FaultPlan {
    /// A plan injecting nothing (all rates zero). Useful as the explicit
    /// "faults disabled" baseline: consulting it is side-effect-free on
    /// timing, and reports come out bit-identical to no plan at all.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: [FaultSpec::NONE; 5],
            draws: Default::default(),
            failures: Default::default(),
            slowdowns: Default::default(),
        }
    }

    /// Builder-style: sets the spec for one site.
    ///
    /// # Panics
    ///
    /// Panics when rates are outside `[0, 1]`, sum above 1, or the
    /// slowdown factor is below 1.
    pub fn with_site(mut self, site: FaultSite, spec: FaultSpec) -> Self {
        spec.validate(site);
        self.specs[site.index()] = spec;
        self
    }

    /// A plan failing every site at the same rate (no slowdowns).
    ///
    /// # Panics
    ///
    /// Panics when `fail_rate` is outside `[0, 1]`, like
    /// [`FaultSpec::failing`].
    pub fn uniform(seed: u64, fail_rate: f64) -> Self {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            plan = plan.with_site(site, FaultSpec::failing(fail_rate));
        }
        plan
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn spec(&self, site: FaultSite) -> FaultSpec {
        self.specs[site.index()]
    }

    /// True when no site can ever inject anything.
    pub fn is_zero(&self) -> bool {
        self.specs.iter().all(|s| s.is_none())
    }

    /// Consults the plan at one site, consuming one draw of that site's
    /// stream.
    pub fn decide(&self, site: FaultSite) -> FaultDecision {
        let i = site.index();
        let spec = self.specs[i];
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        if spec.is_none() {
            return FaultDecision::Ok;
        }
        let u = unit_draw(self.seed, i as u64, n);
        if u < spec.fail_rate {
            self.failures[i].fetch_add(1, Ordering::Relaxed);
            FaultDecision::Fail
        } else if u < spec.fail_rate + spec.slow_rate {
            self.slowdowns[i].fetch_add(1, Ordering::Relaxed);
            FaultDecision::Slow(spec.slow_factor)
        } else {
            FaultDecision::Ok
        }
    }

    /// Cumulative draw statistics.
    pub fn stats(&self) -> FaultStats {
        let mut stats = FaultStats::default();
        for i in 0..5 {
            stats.per_site[i] = SiteStats {
                draws: self.draws[i].load(Ordering::Relaxed),
                failures: self.failures[i].load(Ordering::Relaxed),
                slowdowns: self.slowdowns[i].load(Ordering::Relaxed),
            };
        }
        stats
    }

    /// Rewinds every site's draw stream to the beginning (and zeroes the
    /// statistics), so a fresh run over the same plan replays the exact
    /// fault sequence.
    pub fn reset(&self) {
        for i in 0..5 {
            self.draws[i].store(0, Ordering::Relaxed);
            self.failures[i].store(0, Ordering::Relaxed);
            self.slowdowns[i].store(0, Ordering::Relaxed);
        }
    }
}

/// Hash `(seed, site, draw index)` to a uniform draw in `[0, 1)`.
/// Shared with the chaos scheduler (`crate::chaos`), which keys its
/// window streams the same way so chaos draws never perturb plan draws.
pub(crate) fn unit_draw(seed: u64, site: u64, n: u64) -> f64 {
    let mut z = seed
        .wrapping_add(site.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_injects() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_zero());
        for _ in 0..1000 {
            assert_eq!(plan.decide(FaultSite::DmaTransfer), FaultDecision::Ok);
        }
        assert_eq!(plan.stats().total_failures(), 0);
    }

    #[test]
    fn same_seed_replays_the_same_sequence() {
        let draw_all = |plan: &FaultPlan| -> Vec<FaultDecision> {
            (0..256)
                .map(|_| plan.decide(FaultSite::ExpertLoad))
                .collect()
        };
        let a = FaultPlan::new(42).with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.3));
        let b = FaultPlan::new(42).with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.3));
        let first = draw_all(&a);
        assert_eq!(first, draw_all(&b));
        // Reset rewinds to the identical stream.
        a.reset();
        assert_eq!(draw_all(&a), first);
    }

    #[test]
    fn sites_draw_independent_streams() {
        // Interleaving extra draws on one site must not change another
        // site's decisions.
        let plan = |seed| {
            FaultPlan::new(seed)
                .with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.5))
                .with_site(FaultSite::DmaTransfer, FaultSpec::failing(0.5))
        };
        let a = plan(9);
        let pure: Vec<FaultDecision> = (0..64).map(|_| a.decide(FaultSite::ExpertLoad)).collect();
        let b = plan(9);
        let interleaved: Vec<FaultDecision> = (0..64)
            .map(|_| {
                b.decide(FaultSite::DmaTransfer);
                b.decide(FaultSite::ExpertLoad)
            })
            .collect();
        assert_eq!(pure, interleaved);
    }

    #[test]
    fn rates_converge_roughly() {
        let plan = FaultPlan::new(3).with_site(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.2,
                slow_rate: 0.3,
                slow_factor: 2.0,
            },
        );
        let mut failed = 0;
        let mut slowed = 0;
        for _ in 0..10_000 {
            match plan.decide(FaultSite::SocketLink) {
                FaultDecision::Fail => failed += 1,
                FaultDecision::Slow(f) => {
                    assert_eq!(f, 2.0);
                    slowed += 1;
                }
                FaultDecision::Ok => {}
            }
        }
        let fail_rate = failed as f64 / 10_000.0;
        let slow_rate = slowed as f64 / 10_000.0;
        assert!((fail_rate - 0.2).abs() < 0.02, "fail rate {fail_rate}");
        assert!((slow_rate - 0.3).abs() < 0.02, "slow rate {slow_rate}");
        assert_eq!(plan.stats().site(FaultSite::SocketLink).draws, 10_000);
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn overfull_rates_rejected() {
        let _ = FaultPlan::new(0).with_site(
            FaultSite::ExpertLoad,
            FaultSpec {
                fail_rate: 0.7,
                slow_rate: 0.7,
                slow_factor: 2.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn failing_rejects_rate_above_one() {
        let _ = FaultSpec::failing(1.5);
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn failing_rejects_negative_rate() {
        let _ = FaultSpec::failing(-0.1);
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn failing_rejects_nan_rate() {
        let _ = FaultSpec::failing(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn slow_rejects_rate_above_one() {
        let _ = FaultSpec::slow(1.01, 2.0);
    }

    #[test]
    #[should_panic(expected = "slow_factor must be >= 1.0")]
    fn slow_rejects_speedup_factor() {
        let _ = FaultSpec::slow(0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn uniform_rejects_out_of_range_rate() {
        let _ = FaultPlan::uniform(0, 2.0);
    }

    #[test]
    fn boundary_rates_are_accepted() {
        assert_eq!(FaultSpec::failing(0.0), FaultSpec::NONE);
        assert_eq!(FaultSpec::failing(1.0).fail_rate, 1.0);
        assert_eq!(FaultSpec::slow(1.0, 1.0).slow_rate, 1.0);
    }

    #[test]
    fn uniform_plan_covers_all_sites() {
        let plan = FaultPlan::uniform(1, 0.1);
        for site in FaultSite::ALL {
            assert_eq!(plan.spec(site).fail_rate, 0.1);
        }
        assert!(!plan.is_zero());
    }
}
