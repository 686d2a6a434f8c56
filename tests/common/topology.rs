//! [`CaseRng`]-driven random cluster topologies, shared by every
//! property suite that wants "some plausible cluster" rather than one
//! hand-picked shape: node counts, expert placements (round-robin,
//! grown, rebalanced, or degraded by a pre-failed node), and paged-KV
//! HBM budgets all vary per case. The wave-engine regression pins, the
//! tenancy suite and the serve suite share the generator, so their
//! invariants are proven over the same topology space.
//!
//! Shrinking follows the harness convention (`check_cases` runs a fixed
//! number of rounds): each step proposes strictly simpler topologies —
//! fewer nodes, fewer experts, no growth, no failure — so a minimal
//! reproduction is a small, undamaged cluster.

// Each consuming suite uses its own subset of the generator surface.
#![allow(dead_code)]

use super::CaseRng;
use sn_arch::{Bytes, NodeSpec};
use sn_coe::{CoeCluster, ExpertLibrary, PagedKvConfig, SambaCoeNode};

/// One generated cluster shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Nodes at build time (at least 2, so one can die and capacity
    /// remains).
    pub nodes: usize,
    /// Experts in the library (bounded per node so every shard fits its
    /// node's DDR).
    pub experts: usize,
    /// Prompt length the prefill/decode graphs compile for.
    pub prompt_tokens: usize,
    /// Nodes added after build — their experts arrive only via the
    /// rebalance below, so growth without rebalance leaves them empty.
    pub grown_nodes: usize,
    /// Whether to rebalance expert homes after growing (moves placement
    /// off the constructor's round-robin).
    pub rebalanced: bool,
    /// A node failed before serving starts, if any (always leaves at
    /// least one healthy node).
    pub failed_node: Option<usize>,
    /// Paged-KV HBM budget, in 1 MiB pages.
    pub kv_budget_pages: u64,
}

impl ClusterTopology {
    /// Draws a topology. Every draw builds successfully: experts are
    /// bounded per node, the failed node index is in range, and the KV
    /// budget holds at least one page.
    pub fn generate(rng: &mut CaseRng) -> ClusterTopology {
        let nodes = rng.usize_in(2, 6);
        let experts = nodes * rng.usize_in(6, 25);
        let prompt_tokens = [128, 256, 512][rng.usize_in(0, 3)];
        let grown_nodes = rng.usize_in(0, 3);
        let rebalanced = rng.f64() < 0.5;
        let failed_node = if rng.f64() < 0.35 {
            Some(rng.usize_in(0, nodes + grown_nodes))
        } else {
            None
        };
        ClusterTopology {
            nodes,
            experts,
            prompt_tokens,
            grown_nodes,
            rebalanced,
            failed_node,
            kv_budget_pages: rng.usize_in(1, 65) as u64,
        }
    }

    /// Strictly simpler variants for the shrink loop: shed damage and
    /// growth first, then shrink the cluster and the library.
    pub fn shrink(&self) -> Vec<ClusterTopology> {
        let mut out = Vec::new();
        if self.failed_node.is_some() {
            out.push(ClusterTopology {
                failed_node: None,
                ..*self
            });
        }
        if self.rebalanced {
            out.push(ClusterTopology {
                rebalanced: false,
                ..*self
            });
        }
        if self.grown_nodes > 0 {
            out.push(ClusterTopology {
                grown_nodes: self.grown_nodes - 1,
                failed_node: self
                    .failed_node
                    .filter(|&f| f < self.nodes + self.grown_nodes - 1),
                ..*self
            });
        }
        if self.nodes > 2 {
            out.push(ClusterTopology {
                nodes: self.nodes - 1,
                failed_node: self
                    .failed_node
                    .filter(|&f| f < self.nodes + self.grown_nodes - 1),
                ..*self
            });
        }
        if self.experts > 2 {
            out.push(ClusterTopology {
                experts: self.experts / 2,
                ..*self
            });
        }
        out
    }

    /// Builds the cluster: constructs, grows, rebalances, and applies
    /// the pre-run failure, in that order.
    ///
    /// # Panics
    ///
    /// Panics if the library cannot be placed — impossible for
    /// generated topologies (the expert count is bounded per node).
    pub fn build(&self) -> CoeCluster {
        let mut cluster = CoeCluster::new(
            NodeSpec::sn40l_node(),
            self.nodes,
            ExpertLibrary::new(self.experts),
            self.prompt_tokens,
        )
        .expect("generated topologies always fit");
        for _ in 0..self.grown_nodes {
            cluster.add_node();
        }
        if self.rebalanced {
            cluster.rebalance_experts();
        }
        if let Some(node) = self.failed_node {
            cluster.fail_node(node);
        }
        cluster
    }

    /// A single [`SambaCoeNode`] with this topology's library and
    /// prompt length, for node-level suites (the cluster-only fields —
    /// growth, failure — don't apply).
    pub fn build_node(&self) -> SambaCoeNode {
        SambaCoeNode::new(
            NodeSpec::sn40l_node(),
            ExpertLibrary::new(self.experts),
            self.prompt_tokens,
        )
    }

    /// The paged-KV geometry this topology budgets: 1 MiB, 16-token
    /// pages under `kv_budget_pages` total.
    pub fn kv_config(&self) -> PagedKvConfig {
        PagedKvConfig {
            page_tokens: 16,
            page_bytes: Bytes::from_mib(1),
            budget: Bytes::from_mib(self.kv_budget_pages),
        }
    }

    /// Total node count after growth.
    pub fn total_nodes(&self) -> usize {
        self.nodes + self.grown_nodes
    }
}
