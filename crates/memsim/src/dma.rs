//! Timed DMA transfers between memory tiers, with a traffic ledger.
//!
//! Transfer timing is bandwidth-limited by the slower endpoint of the
//! route, matching how the AGCUs stream data (§IV-D). The ledger records
//! per-route byte totals so experiments can report traffic breakdowns
//! (e.g. Figure 1's model-switch bytes).

use crate::tier::MemoryTier;
use sn_arch::{Bandwidth, Bytes, SocketSpec, TimeSecs};
use sn_faults::{FaultDecision, FaultPlan, FaultSite};
use sn_trace::{ArgValue, Counter, Metric, Tracer, Track};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A directed transfer route between two tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    pub from: MemoryTier,
    pub to: MemoryTier,
}

impl Route {
    pub const fn new(from: MemoryTier, to: MemoryTier) -> Self {
        Route { from, to }
    }

    /// The model-switch route on the SN40L (§V-B).
    pub const DDR_TO_HBM: Route = Route::new(MemoryTier::Ddr, MemoryTier::Hbm);
    /// The model-switch route on a GPU without device DDR (§III-B).
    pub const HOST_TO_HBM: Route = Route::new(MemoryTier::HostDram, MemoryTier::Hbm);
}

/// Thread-safe accumulator of bytes moved per route.
#[derive(Debug, Clone, Default)]
pub struct TrafficLedger {
    inner: Arc<Mutex<HashMap<Route, Bytes>>>,
}

impl TrafficLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transfer.
    pub fn record(&self, route: Route, bytes: Bytes) {
        let mut m = self.lock();
        let entry = m.entry(route).or_insert(Bytes::ZERO);
        *entry += bytes;
    }

    /// Total bytes moved on one route.
    pub fn moved(&self, route: Route) -> Bytes {
        self.lock().get(&route).copied().unwrap_or(Bytes::ZERO)
    }

    /// Total bytes moved on all routes.
    pub fn total(&self) -> Bytes {
        self.lock().values().copied().sum()
    }

    /// Snapshot of all routes for reporting.
    pub fn snapshot(&self) -> Vec<(Route, Bytes)> {
        let mut v: Vec<(Route, Bytes)> = self.lock().iter().map(|(&r, &b)| (r, b)).collect();
        v.sort_by_key(|&(r, _)| (r.from, r.to));
        v
    }

    /// Clears all recorded traffic.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Locks the ledger, recovering it from a poisoned lock: every update
    /// is one map entry add, so a panicking holder leaves it valid.
    fn lock(&self) -> MutexGuard<'_, HashMap<Route, Bytes>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A DMA transfer the fault plan failed: the data never arrived intact.
///
/// `wasted` is the model time burned before the corruption was detected
/// (the full transfer time — end-to-end checksums only fire at
/// completion). Callers charge it into their recovery accounting and
/// retry or fail over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaFault {
    pub route: Route,
    pub bytes: Bytes,
    pub wasted: TimeSecs,
}

impl fmt::Display for DmaFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DMA transfer of {} on {:?}->{:?} failed after {}",
            self.bytes, self.route.from, self.route.to, self.wasted
        )
    }
}

impl Error for DmaFault {}

/// Per-socket DMA engine: effective bandwidth for each route plus a shared
/// ledger.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    routes: HashMap<Route, Bandwidth>,
    ledger: TrafficLedger,
    faults: Option<Arc<FaultPlan>>,
    tracer: Tracer,
}

impl DmaEngine {
    /// Builds the route table for one socket. Effective (derated)
    /// bandwidths are used throughout; the bottleneck of a route is the
    /// slower endpoint.
    pub fn new(socket: &SocketSpec) -> Self {
        let hbm = socket.hbm.effective_bandwidth();
        let ddr = socket.ddr.effective_bandwidth();
        let host = socket.host_link;
        let mut routes = HashMap::new();
        let mut add = |from, to, bw: Bandwidth| {
            routes.insert(Route::new(from, to), bw);
        };
        add(MemoryTier::Ddr, MemoryTier::Hbm, ddr.min(hbm));
        add(MemoryTier::Hbm, MemoryTier::Ddr, ddr.min(hbm));
        add(MemoryTier::HostDram, MemoryTier::Hbm, host.min(hbm));
        add(MemoryTier::Hbm, MemoryTier::HostDram, host.min(hbm));
        add(MemoryTier::HostDram, MemoryTier::Ddr, host.min(ddr));
        add(MemoryTier::Ddr, MemoryTier::HostDram, host.min(ddr));
        DmaEngine {
            routes,
            ledger: TrafficLedger::new(),
            faults: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: every transfer then emits a span on the memsim
    /// track, bumps the per-route byte counters, and records its latency in
    /// the [`Metric::DmaTransfer`] histogram. Transfer *timing* is
    /// unaffected — with the default disabled tracer this engine behaves
    /// exactly as before.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a fault plan consulted by [`DmaEngine::try_transfer`].
    /// The plain [`DmaEngine::transfer`] path stays fault-oblivious so
    /// baseline timings are unchanged by merely holding a plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The engine's traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Effective bandwidth of a route.
    ///
    /// # Panics
    ///
    /// Panics on a route not present in the socket (e.g. SRAM routes, which
    /// belong to the on-chip simulator, not the DMA engine).
    pub fn bandwidth(&self, route: Route) -> Bandwidth {
        *self
            .routes
            .get(&route)
            .unwrap_or_else(|| panic!("no DMA route {route:?}"))
    }

    /// Executes a timed transfer: records it in the ledger and returns the
    /// time taken.
    pub fn transfer(&self, route: Route, bytes: Bytes) -> TimeSecs {
        self.ledger.record(route, bytes);
        let t = if bytes == Bytes::ZERO {
            TimeSecs::ZERO
        } else {
            bytes / self.bandwidth(route)
        };
        self.trace_transfer(route, bytes, t, 1);
        t
    }

    /// Records one completed transfer into the attached tracer (no-op when
    /// tracing is disabled).
    fn trace_transfer(&self, route: Route, bytes: Bytes, time: TimeSecs, streams: usize) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.count(Counter::DmaTransfers, streams as u64);
        let byte_counter = match (route.from, route.to) {
            (MemoryTier::Ddr, MemoryTier::Hbm) => Counter::DmaBytesDdrToHbm,
            (MemoryTier::Hbm, MemoryTier::Ddr) => Counter::DmaBytesHbmToDdr,
            _ => Counter::DmaBytesHost,
        };
        self.tracer.count(byte_counter, bytes.as_u64());
        self.tracer.observe(Metric::DmaTransfer, time);
        self.tracer.span(
            Track::Memsim,
            format!("dma:{:?}->{:?}", route.from, route.to),
            time,
            &[
                ("bytes", ArgValue::from(bytes.as_u64())),
                ("streams", ArgValue::from(streams)),
                (
                    "bandwidth_gbps",
                    ArgValue::from(self.bandwidth(route).as_gb_per_s()),
                ),
            ],
        );
    }

    /// Fault-aware transfer: consults the attached [`FaultPlan`] at the
    /// [`FaultSite::DmaTransfer`] site before moving data.
    ///
    /// With no plan attached (or a draw of `Ok`) this is exactly
    /// [`DmaEngine::transfer`]. A `Slow` draw stretches the transfer by
    /// the plan's factor. A `Fail` draw aborts the transfer: nothing is
    /// recorded in the ledger and the full transfer time comes back as
    /// [`DmaFault::wasted`] for the caller's recovery accounting.
    ///
    /// # Errors
    ///
    /// [`DmaFault`] when the plan injects an outright failure.
    pub fn try_transfer(&self, route: Route, bytes: Bytes) -> Result<TimeSecs, DmaFault> {
        let Some(plan) = &self.faults else {
            return Ok(self.transfer(route, bytes));
        };
        match plan.decide(FaultSite::DmaTransfer) {
            FaultDecision::Ok => Ok(self.transfer(route, bytes)),
            FaultDecision::Slow(factor) => Ok(self.transfer(route, bytes) * factor),
            FaultDecision::Fail => {
                let wasted = if bytes == Bytes::ZERO {
                    TimeSecs::ZERO
                } else {
                    bytes / self.bandwidth(route)
                };
                if self.tracer.is_enabled() {
                    self.tracer.count(Counter::DmaFaultsInjected, 1);
                    self.tracer.instant(
                        Track::Memsim,
                        format!("dma-fault:{:?}->{:?}", route.from, route.to),
                        &[
                            ("bytes", ArgValue::from(bytes.as_u64())),
                            ("wasted_us", ArgValue::from(wasted.as_micros())),
                        ],
                    );
                }
                Err(DmaFault {
                    route,
                    bytes,
                    wasted,
                })
            }
        }
    }

    /// Time for `streams` concurrent equal transfers sharing the route's
    /// bandwidth (they finish together).
    pub fn transfer_shared(&self, route: Route, bytes_each: Bytes, streams: usize) -> TimeSecs {
        assert!(streams > 0, "at least one stream");
        self.ledger.record(route, bytes_each * streams as u64);
        let t = if bytes_each == Bytes::ZERO {
            TimeSecs::ZERO
        } else {
            (bytes_each * streams as u64) / self.bandwidth(route)
        };
        self.trace_transfer(route, bytes_each * streams as u64, t, streams);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(&SocketSpec::sn40l())
    }

    #[test]
    fn ddr_to_hbm_is_ddr_limited() {
        let e = engine();
        let bw = e.bandwidth(Route::DDR_TO_HBM);
        // 200 GB/s * 0.65 = 130 GB/s effective per socket.
        assert!((bw.as_gb_per_s() - 130.0).abs() < 1.0, "got {bw}");
    }

    #[test]
    fn host_route_is_pcie_limited() {
        let e = engine();
        let bw = e.bandwidth(Route::HOST_TO_HBM);
        assert!((bw.as_gb_per_s() - 32.0).abs() < 0.5, "got {bw}");
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let e = engine();
        let t1 = e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        let t2 = e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(2.0));
        assert!((t2.as_secs() / t1.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_accumulates() {
        let e = engine();
        e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(2.0));
        e.transfer(Route::HOST_TO_HBM, Bytes::from_gb(0.5));
        assert_eq!(e.ledger().moved(Route::DDR_TO_HBM), Bytes::from_gb(3.0));
        assert_eq!(e.ledger().total(), Bytes::from_gb(3.5));
        e.ledger().clear();
        assert_eq!(e.ledger().total(), Bytes::ZERO);
    }

    #[test]
    fn zero_transfer_takes_no_time() {
        let e = engine();
        assert!(e.transfer(Route::DDR_TO_HBM, Bytes::ZERO).is_zero());
    }

    #[test]
    fn shared_streams_split_bandwidth() {
        let e = engine();
        let one = e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        let four = e.transfer_shared(Route::DDR_TO_HBM, Bytes::from_gb(1.0), 4);
        assert!((four.as_secs() / one.as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn try_transfer_without_plan_matches_transfer() {
        let e = engine();
        let plain = e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        let aware = e
            .try_transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0))
            .unwrap();
        assert_eq!(plain, aware);
    }

    #[test]
    fn injected_dma_failures_abort_and_charge_wasted_time() {
        use sn_faults::{FaultPlan, FaultSite, FaultSpec};
        let plan =
            Arc::new(FaultPlan::new(11).with_site(FaultSite::DmaTransfer, FaultSpec::failing(1.0)));
        let e = engine().with_faults(plan);
        let err = e
            .try_transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0))
            .unwrap_err();
        assert_eq!(err.route, Route::DDR_TO_HBM);
        assert!(
            err.wasted.as_secs() > 0.0,
            "failure burns the transfer time"
        );
        // Aborted transfers never land in the ledger.
        assert_eq!(e.ledger().total(), Bytes::ZERO);
    }

    #[test]
    fn injected_slowdowns_stretch_transfers() {
        use sn_faults::{FaultPlan, FaultSite, FaultSpec};
        let plan = Arc::new(
            FaultPlan::new(11).with_site(FaultSite::DmaTransfer, FaultSpec::slow(1.0, 3.0)),
        );
        let e = engine().with_faults(plan);
        let clean = engine().transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        let slowed = e
            .try_transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0))
            .unwrap();
        assert!((slowed.as_secs() / clean.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn traced_transfers_record_counters_and_spans() {
        let t = Tracer::enabled();
        let e = engine().with_tracer(t.clone());
        e.transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        e.transfer(
            Route::new(MemoryTier::Hbm, MemoryTier::Ddr),
            Bytes::from_gb(0.5),
        );
        e.transfer_shared(Route::HOST_TO_HBM, Bytes::from_gb(0.25), 2);
        let m = t.metrics();
        assert_eq!(m.counter(Counter::DmaTransfers), 4);
        assert_eq!(m.counter(Counter::DmaBytesDdrToHbm), 1_000_000_000);
        assert_eq!(m.counter(Counter::DmaBytesHbmToDdr), 500_000_000);
        assert_eq!(m.counter(Counter::DmaBytesHost), 500_000_000);
        assert_eq!(m.histogram(Metric::DmaTransfer).unwrap().count(), 3);
        assert_eq!(t.event_count(), 3);
    }

    #[test]
    fn traced_timing_matches_untraced() {
        let plain = engine().transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        let traced = engine()
            .with_tracer(Tracer::enabled())
            .transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        assert_eq!(plain, traced);
    }

    #[test]
    fn injected_faults_are_traced() {
        use sn_faults::{FaultPlan, FaultSite, FaultSpec};
        let t = Tracer::enabled();
        let plan =
            Arc::new(FaultPlan::new(11).with_site(FaultSite::DmaTransfer, FaultSpec::failing(1.0)));
        let e = engine().with_faults(plan).with_tracer(t.clone());
        let _ = e.try_transfer(Route::DDR_TO_HBM, Bytes::from_gb(1.0));
        assert_eq!(t.counter(Counter::DmaFaultsInjected), 1);
    }

    #[test]
    fn model_switch_is_much_faster_on_device_ddr() {
        // The crux of Figure 1: DDR->HBM at 130 GB/s vs host->HBM at
        // 32 GB/s per socket.
        let e = engine();
        let expert = Bytes::from_gb(13.48);
        let ddr = e.transfer(Route::DDR_TO_HBM, expert);
        let host = e.transfer(Route::HOST_TO_HBM, expert);
        assert!(host.as_secs() / ddr.as_secs() > 3.5);
    }
}
