//! The Samba-CoE expert library (§II).
//!
//! Each expert is an independently fine-tuned Llama2-7B-class model. The
//! library is synthetic — expert *identities* and domains matter to the
//! systems evaluation (routing, switching, capacity), their weights do
//! not.

use crate::router::Domain;
use sn_arch::Bytes;
use sn_models::TransformerConfig;

/// One expert's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertInfo {
    pub name: String,
    pub domain: Domain,
}

/// The library of experts behind a CoE deployment.
#[derive(Debug, Clone)]
pub struct ExpertLibrary {
    experts: Vec<ExpertInfo>,
    config: TransformerConfig,
}

impl ExpertLibrary {
    /// Builds a library of `n` experts cycling through the domains.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, TransformerConfig::llama2_7b())
    }

    /// Builds a library of `n` experts of an arbitrary shared architecture
    /// (e.g. INT8-quantized or MoE-internal experts).
    pub fn with_config(n: usize, config: TransformerConfig) -> Self {
        let domains = Domain::ALL;
        let experts = (0..n)
            .map(|i| {
                let domain = domains[i % domains.len()];
                ExpertInfo {
                    name: format!("{}-expert-{i}", domain.tag()),
                    domain,
                }
            })
            .collect();
        ExpertLibrary { experts, config }
    }

    /// The deployed Samba-CoE: 150 experts (§I, §V).
    pub fn samba_coe_150() -> Self {
        ExpertLibrary::new(150)
    }

    pub fn len(&self) -> usize {
        self.experts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }

    pub fn experts(&self) -> &[ExpertInfo] {
        &self.experts
    }

    pub fn expert(&self, i: usize) -> &ExpertInfo {
        &self.experts[i]
    }

    /// The (shared) expert architecture.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Total parameters across experts plus the router.
    pub fn total_params(&self) -> u64 {
        self.config.param_count() * (self.experts.len() as u64 + 1)
    }

    /// BF16 bytes of one expert.
    pub fn expert_bytes(&self) -> Bytes {
        self.config.param_bytes()
    }

    /// BF16 bytes of the whole library in DDR.
    pub fn library_bytes(&self) -> Bytes {
        self.expert_bytes() * self.experts.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samba_coe_exceeds_a_trillion_parameters() {
        let lib = ExpertLibrary::samba_coe_150();
        assert!(
            lib.total_params() > 1_000_000_000_000,
            "got {}",
            lib.total_params()
        );
    }

    #[test]
    fn library_fits_node_ddr() {
        // §V: "Weights for all 150 experts are held in high capacity DDR".
        let lib = ExpertLibrary::samba_coe_150();
        let node = sn_arch::NodeSpec::sn40l_node();
        assert!(lib.library_bytes() < node.ddr_capacity());
    }

    #[test]
    fn domains_cycle() {
        let lib = ExpertLibrary::new(Domain::ALL.len() + 2);
        assert_ne!(lib.expert(0).domain, lib.expert(1).domain);
        assert_eq!(lib.expert(0).domain, lib.expert(Domain::ALL.len()).domain);
    }

    #[test]
    fn names_are_unique() {
        let lib = ExpertLibrary::samba_coe_150();
        let mut names: Vec<&str> = lib.experts().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 150);
    }
}
