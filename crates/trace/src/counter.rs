//! Typed hardware counters and latency histograms.
//!
//! Every counter documents its **unit** and the **paper mechanism** it
//! observes, so a number in a [`crate::MetricsReport`] can always be traced
//! back to the claim it supports. Counters are monotonic sums over a
//! tracer's lifetime; histograms aggregate per-operation latencies into
//! power-of-two buckets.

/// A monotonic counter exported by the instrumented simulation stack.
///
/// Each variant's documentation states the unit and the paper mechanism it
/// observes. Counters are accumulated in a fixed array inside the tracer
/// (indexed by [`Counter::index`]), so aggregation order never depends on
/// hash-map iteration and reports are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Unit: cycles. Total PMU scratchpad vector-access cycles, including
    /// serialization from bank conflicts (§IV-B: banked scratchpad with
    /// programmable bank bits).
    PmuAccessCycles,
    /// Unit: cycles. Cycles *lost* to PMU bank conflicts: the excess of an
    /// access over the one-cycle conflict-free ideal. The quantity the
    /// SN40L's programmable bank bits and diagonally striped transpose
    /// layout drive to zero (§IV-B, §VII).
    PmuBankConflictCycles,
    /// Unit: units. PCUs occupied by mapped kernel stages on the tile mesh
    /// (§IV-A, Figure 4: gangs of Pattern Compute Units per stage).
    PcusOccupied,
    /// Unit: units. PMUs occupied as stage buffers by mapped kernels
    /// (§IV-B: decoupling stage buffers between pipeline stages).
    PmusOccupied,
    /// Unit: cycles. Total RDN mesh-simulation cycles until all packets of
    /// all flows delivered (§IV-C: the Reconfigurable Dataflow Network).
    RdnCycles,
    /// Unit: cycles. Output-port stalls from exhausted credits summed over
    /// all RDN switches — the congestion signal the paper's packet
    /// throttling attacks (§IV-C credit flow control, §VII "Managing
    /// bandwidth in software").
    RdnStallCycles,
    /// Unit: packets. Packets delivered to RDN local ports (§IV-C).
    RdnPacketsDelivered,
    /// Unit: flows. Flows deferred to a serial follow-up phase by flow-ID
    /// exhaustion — the SN10 penalty the SN40L's MPLS-style relabeling
    /// removes (§IV-E).
    RdnDeferredFlows,
    /// Unit: cycles. Cycles fused-pipeline stages spent blocked on a full
    /// downstream stage buffer (Figure 4 back-pressure; finite PMU buffer
    /// depths).
    PipelineBlockedCycles,
    /// Unit: transfers. DMA transfers executed between memory tiers
    /// (§IV-D: AGCU-streamed transfers).
    DmaTransfers,
    /// Unit: bytes. Bytes moved DDR→HBM — the model-switch route whose
    /// bandwidth makes Composition of Experts viable on the SN40L (§V-B,
    /// Figure 1).
    DmaBytesDdrToHbm,
    /// Unit: bytes. Bytes moved HBM→DDR (dirty-state copy-back on expert
    /// eviction, §V-B).
    DmaBytesHbmToDdr,
    /// Unit: bytes. Bytes moved host↔device over PCIe — the slow
    /// model-switch path conventional GPUs are stuck with (§III-B,
    /// Figure 1's DGX bars).
    DmaBytesHost,
    /// Unit: count. Injected DMA failures observed at the transfer site
    /// (PR 1 fault framework; transfers abort and are retried upstream).
    DmaFaultsInjected,
    /// Unit: launches. Kernel launches issued by the executor. With
    /// spatial fusion the paper collapses this by 3–19× (Figure 11).
    KernelLaunches,
    /// Unit: loads. One-time program-configuration loads — paid per
    /// distinct kernel, amortized across relaunches (§IV-D, §VI-A).
    ProgramLoads,
    /// Unit: activations. Expert activations that found the expert already
    /// HBM-resident (§V-B: the CoE runtime's HBM cache).
    ExpertHits,
    /// Unit: activations. Expert activations that had to copy weights
    /// DDR→HBM (§V-B; each miss costs a Figure 1 "model switching" bar).
    ExpertMisses,
    /// Unit: evictions. Experts evicted from HBM to make room (LRU; §V-B).
    ExpertEvictions,
    /// Unit: bytes. Total bytes moved by expert switches (copy-in plus
    /// dirty copy-back; read-only weights skip the return trip, §V-B).
    ExpertSwitchBytes,
    /// Unit: decisions. Router classifications issued — one per prompt
    /// (§II, §VI-B: the CoE router is itself a Llama2-7B-class model).
    RouterDecisions,
    /// Unit: prompts. Prompts served to completion across all batches.
    PromptsServed,
    /// Unit: retries. Failed attempts absorbed by retry policies across
    /// routing, expert loads, and execution (PR 1 degraded-mode serving;
    /// recovery time appears in `ServeReport::recovery`).
    RetriesAbsorbed,
    /// Unit: experts. Experts re-homed onto surviving nodes after their
    /// home node failed (PR 1 cluster failover).
    ExpertsRehomed,
    /// Unit: prompts. Prompts dropped because no survivor could adopt
    /// their expert (availability loss under faults).
    PromptsDropped,
    /// Unit: requests. Requests admitted from the online scheduler's
    /// arrival queue into the continuous-batching loop (PR 4 online
    /// serving; admission happens at decode-iteration boundaries).
    RequestsAdmitted,
    /// Unit: waves. Admission waves opened by the online scheduler — each
    /// wave pays one router pass over its newly admitted requests (PR 4
    /// online serving).
    AdmissionWaves,
    /// Unit: requests. Requests submitted through the multi-tenant
    /// frontend, before any admission control (PR 6 tenancy).
    TenantRequests,
    /// Unit: requests. Requests shed by admission control or the engine —
    /// rate-limited, queue-full, timed out, or lost to capacity (PR 6
    /// tenancy; every shed is a first-class report outcome).
    RequestsShed,
    /// Unit: requests. In-flight batch-class requests bumped from a wave
    /// by interactive traffic at a wave boundary; progress is kept and
    /// they resume later (PR 6 tenancy).
    RequestsPreempted,
    /// Unit: events. Capacity-controller scale-up actions: a node added
    /// and experts rebalanced onto it (PR 6 autoscaling).
    ScaleUps,
    /// Unit: events. Capacity-controller scale-down actions: a node
    /// drained (experts re-homed off it) and taken out of service (PR 6
    /// autoscaling).
    ScaleDowns,
    /// Unit: prefetches. Speculative DDR→HBM expert loads issued at wave
    /// boundaries by the prefetch policy (PR 7 placement; each one is a
    /// real transfer charged at model-switch bandwidth).
    PrefetchIssued,
    /// Unit: prefetches. Prefetched experts that the next wave's router
    /// pass actually landed on — the activation became a free HBM hit
    /// instead of a cold switch (PR 7 placement).
    PrefetchHits,
    /// Unit: bytes. Bytes copied DDR→HBM for prefetched experts that were
    /// *not* used before leaving HBM — the bandwidth cost of misprediction
    /// (PR 7 placement).
    PrefetchWastedBytes,
    /// Unit: pages. KV-cache pages evicted from HBM under the shared
    /// weights/KV budget (PR 7 paged KV cache; cost-aware LRU).
    KvPagesEvicted,
    /// Unit: experts. Hot-expert replicas created on additional nodes by
    /// the placement policy so router bursts split across sockets (PR 7
    /// placement).
    ExpertsReplicated,
    /// Unit: alerts. Alert rules that transitioned to firing during the
    /// run — each transition, not each breaching wave (PR 8 obs).
    AlertsFired,
    /// Unit: alerts. Alert rules that transitioned back to resolved
    /// during the run (PR 8 obs).
    AlertsResolved,
    /// Unit: bundles. Post-mortem flight-recorder bundles frozen during
    /// the run — one per incident window, alert- or chaos-triggered
    /// (PR 8 obs).
    PostmortemsCaptured,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 40] = [
        Counter::PmuAccessCycles,
        Counter::PmuBankConflictCycles,
        Counter::PcusOccupied,
        Counter::PmusOccupied,
        Counter::RdnCycles,
        Counter::RdnStallCycles,
        Counter::RdnPacketsDelivered,
        Counter::RdnDeferredFlows,
        Counter::PipelineBlockedCycles,
        Counter::DmaTransfers,
        Counter::DmaBytesDdrToHbm,
        Counter::DmaBytesHbmToDdr,
        Counter::DmaBytesHost,
        Counter::DmaFaultsInjected,
        Counter::KernelLaunches,
        Counter::ProgramLoads,
        Counter::ExpertHits,
        Counter::ExpertMisses,
        Counter::ExpertEvictions,
        Counter::ExpertSwitchBytes,
        Counter::RouterDecisions,
        Counter::PromptsServed,
        Counter::RetriesAbsorbed,
        Counter::ExpertsRehomed,
        Counter::PromptsDropped,
        Counter::RequestsAdmitted,
        Counter::AdmissionWaves,
        Counter::TenantRequests,
        Counter::RequestsShed,
        Counter::RequestsPreempted,
        Counter::ScaleUps,
        Counter::ScaleDowns,
        Counter::PrefetchIssued,
        Counter::PrefetchHits,
        Counter::PrefetchWastedBytes,
        Counter::KvPagesEvicted,
        Counter::ExpertsReplicated,
        Counter::AlertsFired,
        Counter::AlertsResolved,
        Counter::PostmortemsCaptured,
    ];

    /// Number of counters (size of the tracer's accumulation array).
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable array index of this counter.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in reports and trace args.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::PmuAccessCycles => "pmu_access_cycles",
            Counter::PmuBankConflictCycles => "pmu_bank_conflict_cycles",
            Counter::PcusOccupied => "pcus_occupied",
            Counter::PmusOccupied => "pmus_occupied",
            Counter::RdnCycles => "rdn_cycles",
            Counter::RdnStallCycles => "rdn_stall_cycles",
            Counter::RdnPacketsDelivered => "rdn_packets_delivered",
            Counter::RdnDeferredFlows => "rdn_deferred_flows",
            Counter::PipelineBlockedCycles => "pipeline_blocked_cycles",
            Counter::DmaTransfers => "dma_transfers",
            Counter::DmaBytesDdrToHbm => "dma_bytes_ddr_to_hbm",
            Counter::DmaBytesHbmToDdr => "dma_bytes_hbm_to_ddr",
            Counter::DmaBytesHost => "dma_bytes_host",
            Counter::DmaFaultsInjected => "dma_faults_injected",
            Counter::KernelLaunches => "kernel_launches",
            Counter::ProgramLoads => "program_loads",
            Counter::ExpertHits => "expert_hits",
            Counter::ExpertMisses => "expert_misses",
            Counter::ExpertEvictions => "expert_evictions",
            Counter::ExpertSwitchBytes => "expert_switch_bytes",
            Counter::RouterDecisions => "router_decisions",
            Counter::PromptsServed => "prompts_served",
            Counter::RetriesAbsorbed => "retries_absorbed",
            Counter::ExpertsRehomed => "experts_rehomed",
            Counter::PromptsDropped => "prompts_dropped",
            Counter::RequestsAdmitted => "requests_admitted",
            Counter::AdmissionWaves => "admission_waves",
            Counter::TenantRequests => "tenant_requests",
            Counter::RequestsShed => "requests_shed",
            Counter::RequestsPreempted => "requests_preempted",
            Counter::ScaleUps => "scale_ups",
            Counter::ScaleDowns => "scale_downs",
            Counter::PrefetchIssued => "prefetch_issued",
            Counter::PrefetchHits => "prefetch_hits",
            Counter::PrefetchWastedBytes => "prefetch_wasted_bytes",
            Counter::KvPagesEvicted => "kv_pages_evicted",
            Counter::ExpertsReplicated => "experts_replicated",
            Counter::AlertsFired => "alerts_fired",
            Counter::AlertsResolved => "alerts_resolved",
            Counter::PostmortemsCaptured => "postmortems_captured",
        }
    }

    /// Unit string for report rendering.
    pub const fn unit(self) -> &'static str {
        match self {
            Counter::PmuAccessCycles
            | Counter::PmuBankConflictCycles
            | Counter::RdnCycles
            | Counter::RdnStallCycles
            | Counter::PipelineBlockedCycles => "cycles",
            Counter::PcusOccupied | Counter::PmusOccupied => "units",
            Counter::RdnPacketsDelivered => "packets",
            Counter::RdnDeferredFlows => "flows",
            Counter::DmaTransfers => "transfers",
            Counter::DmaBytesDdrToHbm
            | Counter::DmaBytesHbmToDdr
            | Counter::DmaBytesHost
            | Counter::ExpertSwitchBytes
            | Counter::PrefetchWastedBytes => "bytes",
            Counter::DmaFaultsInjected => "faults",
            Counter::KernelLaunches => "launches",
            Counter::ProgramLoads => "loads",
            Counter::ExpertHits | Counter::ExpertMisses => "activations",
            Counter::ExpertEvictions => "evictions",
            Counter::RouterDecisions => "decisions",
            Counter::PromptsServed | Counter::PromptsDropped => "prompts",
            Counter::RetriesAbsorbed => "retries",
            Counter::ExpertsRehomed | Counter::ExpertsReplicated => "experts",
            Counter::RequestsAdmitted
            | Counter::TenantRequests
            | Counter::RequestsShed
            | Counter::RequestsPreempted => "requests",
            Counter::AdmissionWaves => "waves",
            Counter::ScaleUps | Counter::ScaleDowns => "events",
            Counter::PrefetchIssued | Counter::PrefetchHits => "prefetches",
            Counter::KvPagesEvicted => "pages",
            Counter::AlertsFired | Counter::AlertsResolved => "alerts",
            Counter::PostmortemsCaptured => "bundles",
        }
    }
}

/// A latency histogram identity: which operation's durations are being
/// aggregated. All histograms record **nanoseconds of model time**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Per-transfer DMA latency (§IV-D). Spread reveals the mix of small
    /// argument transfers and multi-gigabyte expert copies.
    DmaTransfer,
    /// Per-activation expert switch time DDR→HBM (§V-B, the Figure 1
    /// "model switching" component).
    ExpertSwitch,
    /// Per-call kernel execution time, launch overheads included (§IV-D).
    KernelRun,
    /// Per-prompt end-to-end latency: router share + exposed switch +
    /// execution + recovery (Figure 12's per-request quantity).
    Request,
    /// Per-request queueing delay in the online scheduler: admission time
    /// minus arrival time (zero for an uncontended burst).
    QueueDelay,
    /// Per-request time-to-first-token in the online scheduler: arrival to
    /// end of the request's prefill (router + switch + queue included).
    Ttft,
}

impl Metric {
    /// Every histogram, in report order.
    pub const ALL: [Metric; 6] = [
        Metric::DmaTransfer,
        Metric::ExpertSwitch,
        Metric::KernelRun,
        Metric::Request,
        Metric::QueueDelay,
        Metric::Ttft,
    ];

    /// Number of histograms (size of the tracer's aggregation array).
    pub const COUNT: usize = Metric::ALL.len();

    /// Stable array index of this metric.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::DmaTransfer => "dma_transfer_ns",
            Metric::ExpertSwitch => "expert_switch_ns",
            Metric::KernelRun => "kernel_run_ns",
            Metric::Request => "request_ns",
            Metric::QueueDelay => "queue_delay_ns",
            Metric::Ttft => "ttft_ns",
        }
    }
}

/// Number of power-of-two buckets: bucket `i` holds values in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds zero), covering up to ~2.3 years of
/// model time — far beyond any simulated latency.
pub const HISTOGRAM_BUCKETS: usize = 56;

/// A power-of-two latency histogram over nanoseconds of model time.
///
/// Deterministic by construction: recording is a pure function of the
/// value, and bucket order is fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    const fn bucket_of(value_ns: u64) -> usize {
        let b = (u64::BITS - value_ns.leading_zeros()) as usize;
        if b >= HISTOGRAM_BUCKETS {
            HISTOGRAM_BUCKETS - 1
        } else {
            b
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value_ns: u64) {
        self.buckets[Self::bucket_of(value_ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(value_ns);
        if value_ns < self.min_ns {
            self.min_ns = value_ns;
        }
        if value_ns > self.max_ns {
            self.max_ns = value_ns;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Smallest observation in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest observation in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean observation in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Percentile estimate in nanoseconds: the public quantile API used by
    /// report printers and the `sn-profile` analysis layer.
    ///
    /// Semantics are those of [`Histogram::quantile_upper_ns`]: the
    /// exclusive upper bound of the power-of-two bucket holding rank
    /// `ceil(q * count)` — a conservative (never under-reporting) estimate
    /// whose error is bounded by the bucket width. `q` is clamped to
    /// `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_upper_ns(q)
    }

    /// Upper bound (exclusive, in ns) of the bucket holding the requested
    /// quantile `q` in `[0, 1]` — a conservative percentile estimate with
    /// power-of-two resolution. Returns 0 when empty.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_ns
    }

    /// Non-empty buckets as `(upper_bound_ns, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?}");
        }
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1500);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 800);
        assert!((h.mean_ns() - 375.0).abs() < 1e-9);
        // p100 upper bound covers the max.
        assert!(h.quantile_upper_ns(1.0) >= 800);
    }

    #[test]
    fn zero_and_huge_values_stay_in_range() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets().len(), 2);
        assert_eq!(h.nonzero_buckets()[0], (0, 1));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 10);
        assert_eq!(a.max_ns(), 1000);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut filled = Histogram::new();
        for v in [5, 50, 500] {
            filled.record(v);
        }
        let reference = filled.clone();
        // Merging an empty histogram in changes nothing — in particular the
        // empty side's min_ns sentinel (u64::MAX) must not leak.
        filled.merge(&Histogram::new());
        assert_eq!(filled, reference);
        // Merging into an empty histogram reproduces the other side.
        let mut empty = Histogram::new();
        empty.merge(&reference);
        assert_eq!(empty, reference);
        assert_eq!(empty.min_ns(), 5);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let xs = [0u64, 1, 2, 1023, 1024, 65_000];
        let ys = [3u64, 1024, 2048, u64::MAX];
        let mut merged = Histogram::new();
        for &v in &xs {
            merged.record(v);
        }
        let mut other = Histogram::new();
        for &v in &ys {
            other.record(v);
        }
        merged.merge(&other);
        let mut direct = Histogram::new();
        for &v in xs.iter().chain(&ys) {
            direct.record(v);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_of_single_sample_bounds_it_at_every_q() {
        let mut h = Histogram::new();
        h.record(700); // bucket [512, 1024) -> upper bound 1024
        for q in [0.0, 0.01, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 1024);
        }
        // A lone zero lives in bucket 0, reported as 0.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0);
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // 1024 = 2^10 is the *inclusive lower* edge of bucket 11
        // ([1024, 2048)), while 1023 still sits in bucket 10 ([512, 1024)).
        let mut below = Histogram::new();
        below.record(1023);
        assert_eq!(below.quantile(1.0), 1024);
        let mut at = Histogram::new();
        at.record(1024);
        assert_eq!(at.quantile(1.0), 2048);
        // q is clamped: out-of-range requests behave like 0.0 / 1.0.
        assert_eq!(at.quantile(-1.0), at.quantile(0.0));
        assert_eq!(at.quantile(2.0), at.quantile(1.0));
    }

    #[test]
    fn u64_saturation_stays_well_defined() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum_ns(), u64::MAX);
        assert_eq!(h.max_ns(), u64::MAX);
        // Values beyond the last bucket clamp into it, so the quantile
        // reports that bucket's upper bound, 1 << (HISTOGRAM_BUCKETS - 1);
        // max_ns still holds the exact extreme.
        assert_eq!(h.quantile(1.0), 1u64 << (HISTOGRAM_BUCKETS - 1));
        let mut merged = Histogram::new();
        merged.record(u64::MAX);
        merged.merge(&h);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum_ns(), u64::MAX, "merge saturates too");
    }

    #[test]
    fn quantile_matches_quantile_upper_ns() {
        let mut h = Histogram::new();
        for v in [3, 17, 900, 4096, 100_000] {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), h.quantile_upper_ns(q));
        }
    }

    proptest! {
        /// Quantile upper bounds are monotone in q and bound the data.
        #[test]
        fn quantiles_are_monotone(values in proptest::collection::vec(0u64..1_000_000_000, 1..100)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.1, 0.5, 0.9, 0.99, 1.0];
            let mut prev = 0;
            for &q in &qs {
                let u = h.quantile_upper_ns(q);
                prop_assert!(u >= prev, "quantiles must be monotone");
                prev = u;
            }
            prop_assert!(h.quantile_upper_ns(1.0) >= h.max_ns());
        }

        /// Merging two histograms is indistinguishable from recording the
        /// concatenated sample stream into one: identical state, and
        /// therefore identical quantiles at every q.
        #[test]
        fn merged_quantiles_equal_concatenated_quantiles(
            xs in proptest::collection::vec(0u64..1_000_000_000, 0..100),
            ys in proptest::collection::vec(0u64..1_000_000_000, 0..100),
        ) {
            let mut merged = Histogram::new();
            for &v in &xs {
                merged.record(v);
            }
            let mut other = Histogram::new();
            for &v in &ys {
                other.record(v);
            }
            merged.merge(&other);
            let mut concat = Histogram::new();
            for &v in xs.iter().chain(&ys) {
                concat.record(v);
            }
            prop_assert_eq!(&merged, &concat);
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                prop_assert_eq!(
                    merged.quantile(q),
                    concat.quantile(q),
                    "q={} diverged after merge", q
                );
            }
        }
    }
}
