//! Tensor interleaving across PMUs (§IV-B "Address Predication and
//! Banking").
//!
//! A logical tensor can span several PMUs for capacity (S0–S3 in
//! Figure 4), bandwidth (I00/I01, W00/W01), or both (T00–T03). The
//! hardware hooks are per-PMU *valid address ranges* or per-address
//! *predicate bits*: every generated address is broadcast to the group,
//! and each PMU accepts it only if its predicate passes. This module
//! models both schemes and checks the defining invariant — every address
//! is owned by exactly one PMU.

/// How a PMU group claims addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterleaveScheme {
    /// Capacity partitioning: PMU `i` owns the contiguous range
    /// `[i * chunk, (i + 1) * chunk)` (S0–S3 in Figure 4).
    Range { chunk: u64 },
    /// Bandwidth partitioning: addresses stripe across the group at
    /// `grain`-byte granularity (I00/I01: consecutive vectors alternate
    /// PMUs so reads stream from both at once).
    Stripe { grain: u64 },
}

/// A group of PMUs backing one logical tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuGroup {
    pub pmus: usize,
    pub scheme: InterleaveScheme,
}

impl PmuGroup {
    /// Creates a group.
    ///
    /// # Panics
    ///
    /// Panics on an empty group or zero-sized chunk/grain.
    pub fn new(pmus: usize, scheme: InterleaveScheme) -> Self {
        assert!(pmus >= 1, "a group needs at least one PMU");
        match &scheme {
            InterleaveScheme::Range { chunk } => assert!(*chunk > 0, "zero chunk"),
            InterleaveScheme::Stripe { grain } => assert!(*grain > 0, "zero grain"),
        }
        PmuGroup { pmus, scheme }
    }

    /// The predicate of PMU `i` for a byte address: does this PMU accept
    /// it? (`None` when the address is outside the group entirely —
    /// a range group's total capacity is `pmus * chunk`.)
    pub fn accepts(&self, pmu: usize, addr: u64) -> Option<bool> {
        assert!(pmu < self.pmus, "PMU index out of group");
        match &self.scheme {
            InterleaveScheme::Range { chunk } => {
                if addr >= *chunk * self.pmus as u64 {
                    return None;
                }
                Some(addr / chunk == pmu as u64)
            }
            InterleaveScheme::Stripe { grain } => {
                Some((addr / grain) % self.pmus as u64 == pmu as u64)
            }
        }
    }

    /// The owning PMU of an address, if any.
    pub fn owner(&self, addr: u64) -> Option<usize> {
        (0..self.pmus).find(|&i| self.accepts(i, addr) == Some(true))
    }

    /// Distributes a vector access across the group: returns how many of
    /// the addresses each PMU serves. The group's *effective bandwidth*
    /// for the access is proportional to how evenly this spreads.
    pub fn distribute(&self, addrs: &[u64]) -> Vec<usize> {
        let mut counts = vec![0usize; self.pmus];
        for &a in addrs {
            if let Some(i) = self.owner(a) {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Effective parallelism of an access: addresses served per cycle if
    /// each PMU serves one address per cycle (total / max-per-PMU).
    pub fn effective_parallelism(&self, addrs: &[u64]) -> f64 {
        let counts = self.distribute(addrs);
        let served: usize = counts.iter().sum();
        let max = counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            served as f64 / max as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_partition_is_exclusive_and_total() {
        // S0-S3: a capacity split of a 4 MiB tensor over four PMUs.
        let g = PmuGroup::new(4, InterleaveScheme::Range { chunk: 1 << 20 });
        for addr in [0u64, (1 << 20) - 1, 1 << 20, 3 << 20, (4 << 20) - 1] {
            let owners: Vec<usize> = (0..4)
                .filter(|&i| g.accepts(i, addr) == Some(true))
                .collect();
            assert_eq!(owners.len(), 1, "exactly one PMU owns {addr:#x}");
        }
        assert_eq!(g.accepts(0, 4 << 20), None, "past the group is nobody's");
    }

    #[test]
    fn stripe_spreads_sequential_streams() {
        // I00/I01: striped 64-byte vectors alternate between two PMUs, so
        // a sequential stream reads both at full rate.
        let g = PmuGroup::new(2, InterleaveScheme::Stripe { grain: 64 });
        let addrs: Vec<u64> = (0..32).map(|i| i * 64).collect();
        let counts = g.distribute(&addrs);
        assert_eq!(counts, vec![16, 16]);
        assert!((g.effective_parallelism(&addrs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn range_partition_serializes_sequential_streams() {
        // The §IV-B trade-off: a capacity split gives no bandwidth gain on
        // a local stream — all addresses land in one PMU.
        let g = PmuGroup::new(4, InterleaveScheme::Range { chunk: 1 << 20 });
        let addrs: Vec<u64> = (0..32).map(|i| i * 64).collect();
        let counts = g.distribute(&addrs);
        assert_eq!(counts[0], 32);
        assert!((g.effective_parallelism(&addrs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_matching_the_stripe_degenerates() {
        // A stride equal to pmus*grain hits one PMU only — the same
        // pathology programmable bank bits fix inside a PMU.
        let g = PmuGroup::new(4, InterleaveScheme::Stripe { grain: 64 });
        let addrs: Vec<u64> = (0..16).map(|i| i * 256).collect();
        assert!((g.effective_parallelism(&addrs) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of group")]
    fn foreign_pmu_index_panics() {
        let g = PmuGroup::new(2, InterleaveScheme::Stripe { grain: 64 });
        let _ = g.accepts(2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exclusivity: under either scheme, an in-group address has
        /// exactly one owner.
        #[test]
        fn every_address_has_one_owner(
            pmus in 1usize..8,
            grain_pow in 4u32..10,
            addr in 0u64..(1 << 22),
        ) {
            let grain = 1u64 << grain_pow;
            for scheme in [
                InterleaveScheme::Stripe { grain },
                InterleaveScheme::Range { chunk: 1 << 20 },
            ] {
                let g = PmuGroup::new(pmus, scheme);
                let owners = (0..pmus)
                    .filter(|&i| g.accepts(i, addr) == Some(true))
                    .count();
                let in_group = g.accepts(0, addr).is_some();
                if in_group {
                    prop_assert_eq!(owners, 1);
                } else {
                    prop_assert_eq!(owners, 0);
                }
            }
        }

        /// Striping never loses addresses and its parallelism is between 1
        /// and the group size.
        #[test]
        fn stripe_parallelism_bounds(
            pmus in 1usize..8,
            addrs in proptest::collection::vec(0u64..(1 << 16), 1..64),
        ) {
            let g = PmuGroup::new(pmus, InterleaveScheme::Stripe { grain: 64 });
            let counts = g.distribute(&addrs);
            prop_assert_eq!(counts.iter().sum::<usize>(), addrs.len());
            let par = g.effective_parallelism(&addrs);
            prop_assert!(par >= 1.0 - 1e-12);
            prop_assert!(par <= pmus as f64 + 1e-12);
        }
    }
}
