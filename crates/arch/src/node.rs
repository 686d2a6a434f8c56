//! Node-level descriptions: the 8-socket SN40L Node (§I, §V) and its
//! aggregate memory/compute characteristics under tensor parallelism.

use crate::roofline::Roofline;
use crate::socket::SocketSpec;
use crate::units::{Bandwidth, Bytes, FlopRate};

/// A multi-socket RDU node with a host.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub name: String,
    pub socket: SocketSpec,
    /// Socket count (the SN40L Node has eight).
    pub sockets: usize,
    /// Host DRAM capacity (only relevant as a last-resort spill tier; the
    /// paper's point is that the SN40L never needs it for CoE weights).
    pub host_dram: Bytes,
}

impl NodeSpec {
    /// The 8-socket SN40L Node used for all macro experiments.
    pub fn sn40l_node() -> Self {
        NodeSpec {
            name: "SN40L Node".to_string(),
            socket: SocketSpec::sn40l(),
            sockets: 8,
            host_dram: Bytes::from_tib(2),
        }
    }

    /// Aggregate peak BF16 compute across sockets (TP8 treats the node as
    /// one large accelerator).
    pub fn peak_bf16(&self) -> FlopRate {
        self.socket.peak_bf16().scale(self.sockets as f64)
    }

    /// Aggregate HBM capacity.
    pub fn hbm_capacity(&self) -> Bytes {
        self.socket.hbm.capacity * self.sockets as u64
    }

    /// Aggregate peak HBM bandwidth.
    pub fn hbm_bandwidth(&self) -> Bandwidth {
        self.socket.hbm.bandwidth.scale(self.sockets as f64)
    }

    /// Aggregate effective HBM bandwidth (after achievable-fraction derate).
    pub fn effective_hbm_bandwidth(&self) -> Bandwidth {
        self.socket
            .hbm
            .effective_bandwidth()
            .scale(self.sockets as f64)
    }

    /// Aggregate DDR capacity — the tier that holds the whole CoE.
    pub fn ddr_capacity(&self) -> Bytes {
        self.socket.ddr.capacity * self.sockets as u64
    }

    /// Aggregate effective DDR-to-HBM model-switch bandwidth. For the SN40L
    /// Node this exceeds 1 TB/s (§VI-B); a TP8-sharded expert copies its
    /// shard on every socket concurrently.
    pub fn model_switch_bandwidth(&self) -> Bandwidth {
        self.socket
            .model_switch_bandwidth()
            .scale(self.sockets as f64)
    }

    /// The node's HBM roofline: aggregate peak BF16 compute over aggregate
    /// *effective* HBM bandwidth — the ceiling/slope pair kernels streaming
    /// weights from HBM are measured against (§III-A).
    pub fn roofline(&self) -> Roofline {
        Roofline::new(self.peak_bf16(), self.effective_hbm_bandwidth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_aggregates_are_consistent() {
        let n = NodeSpec::sn40l_node();
        assert_eq!(n.hbm_capacity(), Bytes::from_gib(512));
        assert_eq!(n.ddr_capacity(), Bytes::from_tib(12));
        assert!((n.peak_bf16().as_tflops() - 8.0 * 638.0).abs() < 20.0);
    }

    #[test]
    fn node_switch_bandwidth_exceeds_1tbps() {
        let n = NodeSpec::sn40l_node();
        assert!(n.model_switch_bandwidth().as_tb_per_s() > 1.0);
    }

    #[test]
    fn node_roofline_uses_effective_hbm_bandwidth() {
        let n = NodeSpec::sn40l_node();
        let r = n.roofline();
        assert_eq!(r.peak, n.peak_bf16());
        assert_eq!(r.bandwidth, n.effective_hbm_bandwidth());
        // Derating raises the balance point above the peak-bandwidth one:
        // 638/2.0*... per socket ≈ 319/0.85 ≈ 375 ops/byte.
        assert!(r.balance() > 350.0 && r.balance() < 400.0);
    }

    #[test]
    fn node_ddr_holds_850_experts() {
        // §VI-B: a single SN40L Node can hold and serve a CoE of up to 850
        // Llama2-7B experts (13.48 GB each in BF16).
        let n = NodeSpec::sn40l_node();
        let expert = Bytes::from_gb(13.48);
        let fit = n.ddr_capacity().as_f64() / expert.as_f64();
        assert!(fit >= 850.0, "fits {fit} experts");
    }
}
