//! The CoE runtime (§V-B): dynamic linking of independently compiled
//! models, per-model DDR blocks, and an HBM activation cache with LRU
//! eviction and read-only copy-back elision.
//!
//! Every compiled model binary declares exactly how much HBM and DDR it
//! needs. Registration allocates one DDR block holding *all* segments
//! (including those destined for HBM). Activation copies the HBM segments
//! up; eviction copies only dirty segments back, because the compiler
//! annotates read-only symbols (weights) that never need the return trip.

use sn_arch::{Bandwidth, Bytes, NodeSpec, TimeSecs};
use sn_faults::{FaultDecision, FaultPlan, FaultSite, Recovery, RetryPolicy};
use sn_memsim::{AllocError, DeviceMemory, MemoryTier, Region, SegmentTable, VirtAddr};
use sn_trace::{ArgValue, Counter, Metric, Tracer, Track};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// What a compiled model needs from the memory system (§V-B: "each
/// compiled model binary tells us ahead of time exactly how much HBM and
/// DDR space that model will require").
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBinary {
    pub name: String,
    /// Bytes the compiler intended for HBM (weights + resident state),
    /// summed across the node's sockets.
    pub hbm_bytes: Bytes,
    /// Bytes that live in DDR even while active (spilled symbols).
    pub ddr_only_bytes: Bytes,
    /// Portion of `hbm_bytes` annotated read-only (skips copy-back).
    pub read_only_bytes: Bytes,
}

impl ModelBinary {
    /// A weights-only model: everything HBM-resident and read-only.
    pub fn weights_only(name: impl Into<String>, weights: Bytes) -> Self {
        ModelBinary {
            name: name.into(),
            hbm_bytes: weights,
            ddr_only_bytes: Bytes::ZERO,
            read_only_bytes: weights,
        }
    }
}

/// Which resident model to evict when HBM fills (§V-B uses LRU; FIFO is
/// the ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    Lru,
    Fifo,
}

/// Runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeRuntimeConfig {
    pub eviction: EvictionPolicy,
    /// Skip copying read-only symbols back to DDR on eviction (§V-B).
    pub skip_readonly_copyback: bool,
    /// HBM held back for the router, KV cache, and activations.
    pub hbm_reserved: Bytes,
}

impl Default for CoeRuntimeConfig {
    fn default() -> Self {
        CoeRuntimeConfig {
            eviction: EvictionPolicy::Lru,
            skip_readonly_copyback: true,
            hbm_reserved: Bytes::from_gib(48),
        }
    }
}

/// Result of one activation request.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationOutcome {
    /// The model was already resident: no copies at all.
    pub hit: bool,
    /// Models evicted to make room.
    pub evicted: Vec<String>,
    /// Bytes copied DDR -> HBM.
    pub copied_in: Bytes,
    /// Bytes copied HBM -> DDR for dirty evicted state.
    pub copied_back: Bytes,
    /// Wall time of the switch.
    pub switch_time: TimeSecs,
}

/// CoE runtime errors.
#[derive(Debug)]
pub enum CoeError {
    /// DDR cannot hold another model (the SN40L analog of the DGX's
    /// 150-expert OOM; a node holds 850+ Llama2-7B experts).
    DdrFull(AllocError),
    /// The model's HBM segments exceed the activation budget outright.
    TooLargeForHbm {
        name: String,
        need: Bytes,
        budget: Bytes,
    },
    /// Unknown model name.
    Unknown(String),
    /// Model registered twice.
    Duplicate(String),
    /// Building or compiling a model's dataflow graph failed while
    /// constructing a serving node.
    Compile { model: String, reason: String },
    /// An expert's DDR→HBM load kept failing after exhausting the retry
    /// budget (persistent corruption on the switch path).
    LoadFault { name: String, attempts: u32 },
    /// The router classification pass timed out on every attempt.
    RouterTimeout { attempts: u32 },
    /// The socket fabric kept dropping a prompt's execution past the
    /// retry budget.
    SocketDown { attempts: u32 },
    /// Every node in a cluster was marked failed; no survivor can take
    /// the re-routed prompts.
    NoHealthyNodes,
    /// A serving node or cluster was built over an expert library with
    /// no experts: the router has nothing to route to.
    EmptyLibrary,
}

impl fmt::Display for CoeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoeError::DdrFull(e) => write!(f, "ddr exhausted: {e}"),
            CoeError::TooLargeForHbm { name, need, budget } => {
                write!(f, "{name} needs {need} of HBM, budget is {budget}")
            }
            CoeError::Unknown(n) => write!(f, "unknown model {n}"),
            CoeError::Duplicate(n) => write!(f, "model {n} already registered"),
            CoeError::Compile { model, reason } => {
                write!(f, "compiling {model} failed: {reason}")
            }
            CoeError::LoadFault { name, attempts } => {
                write!(f, "loading {name} failed {attempts} times; giving up")
            }
            CoeError::RouterTimeout { attempts } => {
                write!(f, "router classification timed out {attempts} times")
            }
            CoeError::SocketDown { attempts } => {
                write!(f, "socket fabric dropped execution {attempts} times")
            }
            CoeError::NoHealthyNodes => write!(f, "no healthy nodes left in the cluster"),
            CoeError::EmptyLibrary => write!(f, "the expert library has no experts to route to"),
        }
    }
}

impl Error for CoeError {}

/// Cumulative runtime statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoeStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_in: Bytes,
    pub bytes_back: Bytes,
    /// Injected expert-load failures absorbed by retries (or escalated).
    pub load_faults: u64,
}

/// Virtual base where every model's HBM-destined segments live; compiled
/// binaries are linked against this address and the AGCU translation layer
/// retargets it per activation (§IV-D).
pub const MODEL_SEGMENT_BASE: VirtAddr = VirtAddr(0x1000_0000);

#[derive(Debug)]
struct Registered {
    binary: ModelBinary,
    ddr_block: Region,
    hbm_block: Option<Region>,
    table: SegmentTable,
    last_use: u64,
    activated_at: u64,
}

/// The node-level CoE runtime.
#[derive(Debug)]
pub struct CoeRuntime {
    memory: DeviceMemory,
    switch_bandwidth: Bandwidth,
    config: CoeRuntimeConfig,
    models: HashMap<String, Registered>,
    clock: u64,
    stats: CoeStats,
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    tracer: Tracer,
}

impl CoeRuntime {
    /// Builds a runtime over a node's aggregate HBM and DDR.
    pub fn new(node: &NodeSpec, config: CoeRuntimeConfig) -> Self {
        let memory =
            DeviceMemory::with_capacities(node.hbm_capacity(), node.ddr_capacity(), node.host_dram);
        CoeRuntime {
            memory,
            switch_bandwidth: node.model_switch_bandwidth(),
            config,
            models: HashMap::new(),
            clock: 0,
            stats: CoeStats::default(),
            faults: None,
            retry: RetryPolicy::standard(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: activations then emit hit instants or
    /// `switch:<model>` spans on the CoE track, bump the expert cache
    /// counters ([`Counter::ExpertHits`], [`Counter::ExpertMisses`],
    /// [`Counter::ExpertEvictions`], [`Counter::ExpertSwitchBytes`]), and
    /// record switch latencies in the [`Metric::ExpertSwitch`] histogram.
    /// Outcomes and state transitions are unaffected.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a fault plan (consulted at [`FaultSite::ExpertLoad`] by
    /// [`CoeRuntime::activate_with_recovery`]) and the retry budget for
    /// absorbing injected load failures.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        self.faults = Some(plan);
        self.retry = retry;
        self
    }

    /// The retry budget applied to faulted expert loads.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// HBM available for resident models.
    pub fn hbm_budget(&self) -> Bytes {
        self.memory
            .capacity(MemoryTier::Hbm)
            .saturating_sub(self.config.hbm_reserved)
    }

    /// Registers a model: allocates its DDR home block (which includes the
    /// segments destined for HBM — they start in DDR, §V-B).
    ///
    /// # Errors
    ///
    /// [`CoeError::Duplicate`] on re-registration; [`CoeError::DdrFull`]
    /// when node DDR cannot hold the model; [`CoeError::TooLargeForHbm`]
    /// when the model could never be activated.
    pub fn register(&mut self, binary: ModelBinary) -> Result<(), CoeError> {
        if self.models.contains_key(&binary.name) {
            return Err(CoeError::Duplicate(binary.name));
        }
        if binary.hbm_bytes > self.hbm_budget() {
            return Err(CoeError::TooLargeForHbm {
                name: binary.name,
                need: binary.hbm_bytes,
                budget: self.hbm_budget(),
            });
        }
        let total = binary.hbm_bytes + binary.ddr_only_bytes;
        let ddr_block = self
            .memory
            .alloc(MemoryTier::Ddr, total)
            .map_err(CoeError::DdrFull)?;
        // The model's working segment initially points at its DDR home.
        let mut table = SegmentTable::new();
        table
            .map(
                MODEL_SEGMENT_BASE,
                Region {
                    tier: MemoryTier::Ddr,
                    offset: ddr_block.offset,
                    size: binary.hbm_bytes,
                },
            )
            .expect("fresh table has no overlaps");
        self.models.insert(
            binary.name.clone(),
            Registered {
                binary,
                ddr_block,
                hbm_block: None,
                table,
                last_use: 0,
                activated_at: 0,
            },
        );
        Ok(())
    }

    /// Number of registered models.
    pub fn registered_count(&self) -> usize {
        self.models.len()
    }

    /// Whether `name` is currently HBM-resident. A pure query: it never
    /// touches LRU recency, so probing residency cannot perturb
    /// eviction order.
    pub fn is_resident(&self, name: &str) -> bool {
        self.models.get(name).is_some_and(|r| r.hbm_block.is_some())
    }

    /// Names of currently HBM-resident models.
    pub fn active_models(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .models
            .iter()
            .filter(|(_, r)| r.hbm_block.is_some())
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    pub fn stats(&self) -> CoeStats {
        self.stats
    }

    /// Translates a model-space virtual address through its segment table —
    /// the AGCU view of where the model's weights currently live (§IV-D).
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names.
    pub fn translate(
        &self,
        name: &str,
        addr: VirtAddr,
    ) -> Result<Result<sn_memsim::PhysAddr, sn_memsim::TranslateError>, CoeError> {
        let reg = self
            .models
            .get(name)
            .ok_or_else(|| CoeError::Unknown(name.to_string()))?;
        Ok(reg.table.translate(addr))
    }

    fn pick_victim(&self, exclude: &str) -> Option<String> {
        let candidates = self
            .models
            .iter()
            .filter(|(n, r)| r.hbm_block.is_some() && n.as_str() != exclude);
        match self.config.eviction {
            EvictionPolicy::Lru => candidates
                .min_by_key(|(_, r)| r.last_use)
                .map(|(n, _)| n.clone()),
            EvictionPolicy::Fifo => candidates
                .min_by_key(|(_, r)| r.activated_at)
                .map(|(n, _)| n.clone()),
        }
    }

    /// Explicitly deactivates a resident model (frees its HBM block with
    /// the usual copy-back accounting). No-op if the model is not
    /// resident.
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names.
    pub fn deactivate(&mut self, name: &str) -> Result<TimeSecs, CoeError> {
        let reg = self
            .models
            .get_mut(name)
            .ok_or_else(|| CoeError::Unknown(name.to_string()))?;
        let Some(block) = reg.hbm_block.take() else {
            return Ok(TimeSecs::ZERO);
        };
        reg.table
            .remap(
                MODEL_SEGMENT_BASE,
                Region {
                    tier: MemoryTier::Ddr,
                    offset: reg.ddr_block.offset,
                    size: reg.binary.hbm_bytes,
                },
            )
            .expect("segment size matches");
        let dirty = if self.config.skip_readonly_copyback {
            reg.binary
                .hbm_bytes
                .saturating_sub(reg.binary.read_only_bytes)
        } else {
            reg.binary.hbm_bytes
        };
        self.memory.free(block).expect("block was live");
        self.stats.bytes_back += dirty;
        Ok(dirty / self.switch_bandwidth)
    }

    /// Unregisters a model entirely, releasing both its HBM residency and
    /// its DDR home block.
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names.
    pub fn unregister(&mut self, name: &str) -> Result<(), CoeError> {
        self.deactivate(name)?;
        let reg = self.models.remove(name).expect("checked by deactivate");
        self.memory.free(reg.ddr_block).expect("ddr block was live");
        Ok(())
    }

    /// Clears the cumulative statistics (hit/miss counting windows).
    pub fn reset_stats(&mut self) {
        self.stats = CoeStats::default();
    }

    /// Activates a model, evicting as needed; returns the outcome with the
    /// simulated switch time.
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names.
    pub fn activate(&mut self, name: &str) -> Result<ActivationOutcome, CoeError> {
        self.clock += 1;
        let clock = self.clock;
        {
            let reg = self
                .models
                .get_mut(name)
                .ok_or_else(|| CoeError::Unknown(name.to_string()))?;
            if reg.hbm_block.is_some() {
                reg.last_use = clock;
                self.stats.hits += 1;
                if self.tracer.is_enabled() {
                    self.tracer.count(Counter::ExpertHits, 1);
                    self.tracer.instant(Track::Coe, format!("hit:{name}"), &[]);
                }
                return Ok(ActivationOutcome {
                    hit: true,
                    evicted: Vec::new(),
                    copied_in: Bytes::ZERO,
                    copied_back: Bytes::ZERO,
                    switch_time: TimeSecs::ZERO,
                });
            }
        }
        self.stats.misses += 1;
        let need = self.models[name].binary.hbm_bytes;
        let budget = self.hbm_budget();
        let mut evicted = Vec::new();
        let mut copied_back = Bytes::ZERO;
        // Evict until the new model fits under the activation budget.
        while self.memory.used_bytes(MemoryTier::Hbm) + need > budget {
            let victim = self
                .pick_victim(name)
                .expect("resident model exists while over budget");
            let reg = self.models.get_mut(&victim).expect("victim is registered");
            let block = reg.hbm_block.take().expect("victim was resident");
            reg.table
                .remap(
                    MODEL_SEGMENT_BASE,
                    Region {
                        tier: MemoryTier::Ddr,
                        offset: reg.ddr_block.offset,
                        size: reg.binary.hbm_bytes,
                    },
                )
                .expect("segment size matches");
            let dirty = if self.config.skip_readonly_copyback {
                reg.binary
                    .hbm_bytes
                    .saturating_sub(reg.binary.read_only_bytes)
            } else {
                reg.binary.hbm_bytes
            };
            copied_back += dirty;
            self.memory.free(block).expect("victim block was live");
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        let block = self
            .memory
            .alloc(MemoryTier::Hbm, need)
            .expect("eviction loop freed enough HBM");
        let reg = self.models.get_mut(name).expect("checked above");
        reg.table
            .remap(MODEL_SEGMENT_BASE, block)
            .expect("segment size equals hbm_bytes");
        reg.hbm_block = Some(block);
        reg.last_use = clock;
        reg.activated_at = clock;
        let copied_in = need;
        self.stats.bytes_in += copied_in;
        self.stats.bytes_back += copied_back;
        let switch_time = (copied_in + copied_back) / self.switch_bandwidth;
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::ExpertMisses, 1);
            self.tracer
                .count(Counter::ExpertEvictions, evicted.len() as u64);
            self.tracer.count(
                Counter::ExpertSwitchBytes,
                (copied_in + copied_back).as_u64(),
            );
            self.tracer.observe(Metric::ExpertSwitch, switch_time);
            self.tracer.span(
                Track::Coe,
                format!("switch:{name}"),
                switch_time,
                &[
                    ("copied_in_bytes", ArgValue::from(copied_in.as_u64())),
                    ("copied_back_bytes", ArgValue::from(copied_back.as_u64())),
                    ("evictions", ArgValue::from(evicted.len())),
                ],
            );
        }
        Ok(ActivationOutcome {
            hit: false,
            evicted,
            copied_in,
            copied_back,
            switch_time,
        })
    }

    /// Speculatively stages a model into HBM ahead of demand (PR 7
    /// placement prefetch). Returns `Ok(None)` when the model is already
    /// resident — deliberately *without* touching `last_use` or the
    /// hit/miss statistics, so speculation never perturbs the demand
    /// path's LRU order or its counters. A non-resident model goes
    /// through the same eviction/alloc/remap machinery as a demand miss —
    /// and because a speculative load never refreshes `last_use` after
    /// staging, *stale speculations are themselves the LRU-preferred
    /// eviction victims*: a misprediction's weights are the first thing a
    /// later stage (or demand miss) reclaims. The transfer is charged as
    /// prefetch traffic by the caller: this method records evictions and
    /// byte movement in [`CoeStats`], yet leaves
    /// `ExpertMisses`/`ExpertSwitchBytes` untouched (the cluster counts
    /// the transfer under `PrefetchIssued` and the DMA ledger instead).
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names.
    pub fn prefetch(&mut self, name: &str) -> Result<Option<ActivationOutcome>, CoeError> {
        {
            let reg = self
                .models
                .get(name)
                .ok_or_else(|| CoeError::Unknown(name.to_string()))?;
            if reg.hbm_block.is_some() {
                return Ok(None);
            }
        }
        self.clock += 1;
        let clock = self.clock;
        let need = self.models[name].binary.hbm_bytes;
        let budget = self.hbm_budget();
        let mut evicted = Vec::new();
        let mut copied_back = Bytes::ZERO;
        while self.memory.used_bytes(MemoryTier::Hbm) + need > budget {
            let victim = self
                .pick_victim(name)
                .expect("resident model exists while over budget");
            let reg = self.models.get_mut(&victim).expect("victim is registered");
            let block = reg.hbm_block.take().expect("victim was resident");
            reg.table
                .remap(
                    MODEL_SEGMENT_BASE,
                    Region {
                        tier: MemoryTier::Ddr,
                        offset: reg.ddr_block.offset,
                        size: reg.binary.hbm_bytes,
                    },
                )
                .expect("segment size matches");
            let dirty = if self.config.skip_readonly_copyback {
                reg.binary
                    .hbm_bytes
                    .saturating_sub(reg.binary.read_only_bytes)
            } else {
                reg.binary.hbm_bytes
            };
            copied_back += dirty;
            self.memory.free(block).expect("victim block was live");
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        let block = self
            .memory
            .alloc(MemoryTier::Hbm, need)
            .expect("eviction loop freed enough HBM");
        let reg = self.models.get_mut(name).expect("checked above");
        reg.table
            .remap(MODEL_SEGMENT_BASE, block)
            .expect("segment size equals hbm_bytes");
        reg.hbm_block = Some(block);
        reg.last_use = clock;
        reg.activated_at = clock;
        let copied_in = need;
        self.stats.bytes_in += copied_in;
        self.stats.bytes_back += copied_back;
        let switch_time = (copied_in + copied_back) / self.switch_bandwidth;
        if self.tracer.is_enabled() {
            self.tracer
                .count(Counter::ExpertEvictions, evicted.len() as u64);
            self.tracer.span(
                Track::Coe,
                format!("prefetch:{name}"),
                switch_time,
                &[
                    ("copied_in_bytes", ArgValue::from(copied_in.as_u64())),
                    ("copied_back_bytes", ArgValue::from(copied_back.as_u64())),
                    ("evictions", ArgValue::from(evicted.len())),
                ],
            );
        }
        Ok(Some(ActivationOutcome {
            hit: false,
            evicted,
            copied_in,
            copied_back,
            switch_time,
        }))
    }

    /// Fault-aware activation: like [`CoeRuntime::activate`], but misses
    /// consult the attached fault plan at [`FaultSite::ExpertLoad`] and
    /// drive the DDR→HBM load through the runtime's [`RetryPolicy`].
    ///
    /// Injected load failures are retried; the wasted attempt time plus
    /// backoff comes back in the [`Recovery`] so callers can charge it
    /// into serving latency. Slowdown draws stretch the returned
    /// `switch_time`. With no plan attached this is exactly `activate` —
    /// same arithmetic, same state transitions, bit-identical outcomes.
    ///
    /// # Errors
    ///
    /// [`CoeError::Unknown`] for unregistered names; [`CoeError::LoadFault`]
    /// when the retry budget is exhausted (the model's residency is rolled
    /// back so the cache state stays coherent).
    pub fn activate_with_recovery(
        &mut self,
        name: &str,
    ) -> Result<(ActivationOutcome, Recovery), CoeError> {
        let Some(plan) = self.faults.clone() else {
            return Ok((self.activate(name)?, Recovery::default()));
        };
        let mut outcome = self.activate(name)?;
        if outcome.hit {
            // No data moves on a hit: nothing for the plan to corrupt.
            return Ok((outcome, Recovery::default()));
        }
        let switch_time = outcome.switch_time;
        match self
            .retry
            .run(|_| match plan.decide(FaultSite::ExpertLoad) {
                FaultDecision::Ok => Ok(1.0),
                FaultDecision::Slow(factor) => Ok(factor),
                FaultDecision::Fail => Err(switch_time),
            }) {
            Ok((factor, recovery)) => {
                self.stats.load_faults += recovery.retries as u64;
                if self.tracer.is_enabled() && recovery.retries > 0 {
                    self.tracer
                        .count(Counter::RetriesAbsorbed, recovery.retries as u64);
                    self.tracer.instant(
                        Track::Coe,
                        format!("load-retry:{name}"),
                        &[
                            ("retries", ArgValue::from(recovery.retries as u64)),
                            ("recovery_us", ArgValue::from(recovery.time.as_micros())),
                        ],
                    );
                }
                outcome.switch_time = outcome.switch_time * factor;
                Ok((outcome, recovery))
            }
            Err(exhausted) => {
                self.stats.load_faults += exhausted.attempts as u64;
                // The weights never arrived intact: roll residency back so
                // the activation cache matches reality.
                self.deactivate(name)?;
                Err(CoeError::LoadFault {
                    name: name.to_string(),
                    attempts: exhausted.attempts,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expert(i: usize) -> ModelBinary {
        ModelBinary::weights_only(format!("expert{i}"), Bytes::from_gb(13.48))
    }

    fn runtime() -> CoeRuntime {
        CoeRuntime::new(&NodeSpec::sn40l_node(), CoeRuntimeConfig::default())
    }

    #[test]
    fn node_registers_850_experts() {
        // §VI-B: a single SN40L Node holds a CoE of up to 850 experts.
        let mut rt = runtime();
        for i in 0..850 {
            rt.register(expert(i)).expect("850 experts fit node DDR");
        }
        assert_eq!(rt.registered_count(), 850);
    }

    #[test]
    fn repeat_requests_hit_with_zero_cost() {
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        let first = rt.activate("expert0").unwrap();
        assert!(!first.hit);
        assert!(first.switch_time.as_secs() > 0.0);
        let second = rt.activate("expert0").unwrap();
        assert!(second.hit);
        assert!(second.switch_time.is_zero());
    }

    #[test]
    fn prefetch_stages_weights_for_a_free_hit() {
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        let staged = rt.prefetch("expert0").unwrap().expect("cold → staged");
        assert!(!staged.hit);
        assert!(staged.switch_time.as_secs() > 0.0);
        assert!(
            rt.prefetch("expert0").unwrap().is_none(),
            "already resident"
        );
        let hit = rt.activate("expert0").unwrap();
        assert!(hit.hit);
        assert!(hit.switch_time.is_zero());
        let stats = rt.stats();
        assert_eq!(stats.misses, 0, "prefetch is not a demand miss");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn prefetch_of_resident_expert_does_not_perturb_lru() {
        let mut rt = runtime();
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..36 {
            rt.activate(&format!("expert{i}")).unwrap();
        }
        // expert0 is the LRU victim; a speculative prefetch of it must
        // not refresh its recency the way a demand hit would.
        assert!(rt.prefetch("expert0").unwrap().is_none());
        let outcome = rt.activate("expert36").unwrap();
        assert_eq!(outcome.evicted, vec!["expert0".to_string()]);
    }

    #[test]
    fn switch_time_matches_ddr_bandwidth() {
        // Figure 1: ~13.5 GB over >1 TB/s of node DDR->HBM is ~13 ms.
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        let t = rt.activate("expert0").unwrap().switch_time.as_millis();
        assert!(t > 8.0 && t < 20.0, "switch {t} ms");
    }

    #[test]
    fn lru_keeps_hot_experts() {
        let mut rt = runtime();
        // Budget 512 - 48 = 464 GiB -> 36 experts of 13.48 GB.
        for i in 0..40 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..36 {
            rt.activate(&format!("expert{i}")).unwrap();
        }
        // Touch expert0 so it becomes MRU, then force one eviction.
        rt.activate("expert0").unwrap();
        let outcome = rt.activate("expert36").unwrap();
        assert!(!outcome.evicted.contains(&"expert0".to_string()));
        assert_eq!(outcome.evicted, vec!["expert1".to_string()]);
    }

    #[test]
    fn fifo_evicts_insertion_order() {
        let mut rt = CoeRuntime::new(
            &NodeSpec::sn40l_node(),
            CoeRuntimeConfig {
                eviction: EvictionPolicy::Fifo,
                ..Default::default()
            },
        );
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..36 {
            rt.activate(&format!("expert{i}")).unwrap();
        }
        rt.activate("expert0").unwrap(); // hit; FIFO ignores recency
        let outcome = rt.activate("expert36").unwrap();
        assert_eq!(outcome.evicted, vec!["expert0".to_string()]);
    }

    #[test]
    fn read_only_weights_skip_copy_back() {
        let mut rt = runtime();
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..37 {
            let o = rt.activate(&format!("expert{i}")).unwrap();
            assert_eq!(o.copied_back, Bytes::ZERO, "weights never copy back");
        }
        assert!(rt.stats().evictions > 0);
    }

    #[test]
    fn dirty_state_copies_back_when_elision_disabled() {
        let mut rt = CoeRuntime::new(
            &NodeSpec::sn40l_node(),
            CoeRuntimeConfig {
                skip_readonly_copyback: false,
                ..Default::default()
            },
        );
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        let mut back = Bytes::ZERO;
        for i in 0..37 {
            back += rt.activate(&format!("expert{i}")).unwrap().copied_back;
        }
        assert!(back > Bytes::ZERO, "without elision, evictions copy back");
    }

    #[test]
    fn oversized_model_rejected_up_front() {
        let mut rt = runtime();
        let huge = ModelBinary::weights_only("huge", Bytes::from_tib(1));
        assert!(matches!(
            rt.register(huge),
            Err(CoeError::TooLargeForHbm { .. })
        ));
    }

    #[test]
    fn unknown_and_duplicate_models_error() {
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        assert!(matches!(
            rt.register(expert(0)),
            Err(CoeError::Duplicate(_))
        ));
        assert!(matches!(rt.activate("nope"), Err(CoeError::Unknown(_))));
    }

    #[test]
    fn deactivate_frees_hbm_for_others() {
        let mut rt = runtime();
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..36 {
            rt.activate(&format!("expert{i}")).unwrap();
        }
        // Voluntarily deactivate one; the next activation evicts nothing.
        rt.deactivate("expert0").unwrap();
        let outcome = rt.activate("expert36").unwrap();
        assert!(outcome.evicted.is_empty());
    }

    #[test]
    fn unregister_releases_ddr() {
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        rt.activate("expert0").unwrap();
        rt.unregister("expert0").unwrap();
        assert_eq!(rt.registered_count(), 0);
        // The name can be reused.
        rt.register(expert(0)).unwrap();
        assert!(matches!(rt.unregister("nope"), Err(CoeError::Unknown(_))));
    }

    #[test]
    fn stats_reset_zeroes_counters() {
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        rt.activate("expert0").unwrap();
        assert!(rt.stats().misses > 0);
        rt.reset_stats();
        assert_eq!(rt.stats().misses, 0);
        assert_eq!(rt.stats().bytes_in, Bytes::ZERO);
    }

    #[test]
    fn translation_follows_residency() {
        use sn_memsim::MemoryTier;
        let mut rt = runtime();
        rt.register(expert(0)).unwrap();
        let probe = VirtAddr(MODEL_SEGMENT_BASE.0 + 64);
        // Inactive: the segment points at DDR.
        let p = rt.translate("expert0", probe).unwrap().unwrap();
        assert_eq!(p.tier, MemoryTier::Ddr);
        // Active: the same virtual address now resolves into HBM.
        rt.activate("expert0").unwrap();
        let p = rt.translate("expert0", probe).unwrap().unwrap();
        assert_eq!(p.tier, MemoryTier::Hbm);
        // Deactivated: back to DDR.
        rt.deactivate("expert0").unwrap();
        let p = rt.translate("expert0", probe).unwrap().unwrap();
        assert_eq!(p.tier, MemoryTier::Ddr);
        // Outside the mapped window: a fault, not garbage.
        assert!(rt.translate("expert0", VirtAddr(0)).unwrap().is_err());
    }

    #[test]
    fn eviction_retargets_the_victims_segment() {
        use sn_memsim::MemoryTier;
        let mut rt = runtime();
        for i in 0..37 {
            rt.register(expert(i)).unwrap();
        }
        for i in 0..37 {
            rt.activate(&format!("expert{i}")).unwrap();
        }
        // expert0 was evicted by the 37th activation: its segment must
        // point back at DDR while expert36's points at HBM.
        let probe = MODEL_SEGMENT_BASE;
        assert_eq!(
            rt.translate("expert0", probe).unwrap().unwrap().tier,
            MemoryTier::Ddr
        );
        assert_eq!(
            rt.translate("expert36", probe).unwrap().unwrap().tier,
            MemoryTier::Hbm
        );
    }

    #[test]
    fn recovery_activation_without_plan_matches_activate() {
        let mut plain = runtime();
        let mut aware = runtime();
        plain.register(expert(0)).unwrap();
        aware.register(expert(0)).unwrap();
        let want = plain.activate("expert0").unwrap();
        let (got, recovery) = aware.activate_with_recovery("expert0").unwrap();
        assert_eq!(want, got);
        assert_eq!(recovery, Recovery::default());
    }

    #[test]
    fn injected_load_failures_are_retried_and_charged() {
        use sn_faults::FaultSpec;
        // Fail roughly a third of loads: the standard 3-retry budget
        // absorbs them all at this rate over a handful of activations.
        let plan =
            Arc::new(FaultPlan::new(5).with_site(FaultSite::ExpertLoad, FaultSpec::failing(0.33)));
        let mut rt = runtime().with_faults(plan, RetryPolicy::standard());
        let mut recovered = TimeSecs::ZERO;
        let mut completed = 0;
        for i in 0..8 {
            rt.register(expert(i)).unwrap();
            match rt.activate_with_recovery(&format!("expert{i}")) {
                Ok((outcome, recovery)) => {
                    assert!(!outcome.hit);
                    recovered += recovery.time;
                    completed += 1;
                }
                Err(CoeError::LoadFault { .. }) => {} // 0.33^4 per load
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(completed >= 6, "retries absorb most faults: {completed}/8");
        assert!(rt.stats().load_faults > 0, "a third of loads should fault");
        assert!(recovered.as_secs() > 0.0, "retries charge recovery time");
    }

    #[test]
    fn persistent_load_failure_rolls_residency_back() {
        use sn_faults::FaultSpec;
        let plan =
            Arc::new(FaultPlan::new(5).with_site(FaultSite::ExpertLoad, FaultSpec::failing(1.0)));
        let mut rt = runtime().with_faults(plan, RetryPolicy::standard());
        rt.register(expert(0)).unwrap();
        let err = rt.activate_with_recovery("expert0").unwrap_err();
        assert!(
            matches!(err, CoeError::LoadFault { attempts: 4, .. }),
            "got {err}"
        );
        // The corrupt load must not leave the expert marked resident.
        assert!(rt.active_models().is_empty());
        // The expert stays registered and can be activated once the
        // faults clear (hits on the DDR home, then a clean reload).
        rt.reset_stats();
    }

    #[test]
    fn hits_never_consult_the_fault_plan() {
        use sn_faults::FaultSpec;
        let plan =
            Arc::new(FaultPlan::new(5).with_site(FaultSite::ExpertLoad, FaultSpec::failing(1.0)));
        let shared = Arc::clone(&plan);
        let mut rt = runtime().with_faults(plan, RetryPolicy::none());
        rt.register(expert(0)).unwrap();
        rt.activate("expert0").unwrap(); // fault-oblivious warm-up
        let (outcome, recovery) = rt.activate_with_recovery("expert0").unwrap();
        assert!(outcome.hit);
        assert_eq!(recovery, Recovery::default());
        assert_eq!(shared.stats().site(FaultSite::ExpertLoad).draws, 0);
    }

    #[test]
    fn traced_activations_record_cache_counters() {
        let t = Tracer::enabled();
        let mut rt = runtime().with_tracer(t.clone());
        rt.register(expert(0)).unwrap();
        let miss = rt.activate("expert0").unwrap();
        rt.activate("expert0").unwrap();
        let m = t.metrics();
        assert_eq!(m.counter(Counter::ExpertMisses), 1);
        assert_eq!(m.counter(Counter::ExpertHits), 1);
        assert_eq!(
            m.counter(Counter::ExpertSwitchBytes),
            miss.copied_in.as_u64()
        );
        assert_eq!(m.histogram(Metric::ExpertSwitch).unwrap().count(), 1);
        // One switch span + one hit instant.
        assert_eq!(t.event_count(), 2);
    }

    #[test]
    fn traced_outcomes_match_untraced() {
        let mut plain = runtime();
        let mut traced = runtime().with_tracer(Tracer::enabled());
        plain.register(expert(0)).unwrap();
        traced.register(expert(0)).unwrap();
        assert_eq!(
            plain.activate("expert0").unwrap(),
            traced.activate("expert0").unwrap()
        );
    }

    #[test]
    fn ddr_eventually_fills() {
        let mut rt = runtime();
        let mut registered = 0;
        for i in 0..2000 {
            match rt.register(expert(i)) {
                Ok(()) => registered += 1,
                Err(CoeError::DdrFull(_)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            (850..1050).contains(&registered),
            "12 TiB DDR should hold ~970 experts, got {registered}"
        );
    }
}
