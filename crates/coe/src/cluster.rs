//! Multi-node CoE serving: scale a composition past one node's DDR.
//!
//! The paper deploys 150 experts on one SN40L node and shows a single node
//! holds up to 850; beyond that (or for throughput), a deployment shards
//! the expert library across nodes. Each expert lives on exactly one node
//! (its DDR home); requests are routed to the owning node, and nodes serve
//! their shares concurrently — batch latency is the busiest node's time.

use crate::expert::ExpertLibrary;
use crate::programs::ExpertPrograms;
use crate::router::{Prompt, Router};
use serde::{Deserialize, Serialize};
use sn_arch::{Bytes, Calibration, NodeSpec, Orchestration, TimeSecs};
use sn_faults::{FaultDecision, FaultPlan, FaultSite, RetryPolicy};
use sn_memsim::dma::{DmaEngine, Route};
use sn_profile::{BatchObservation, MachineProfile, SloConfig, SloSnapshot, SloTracker};
use sn_runtime::coe::{CoeError, CoeRuntime, CoeRuntimeConfig, ModelBinary};
use sn_runtime::executor::NodeExecutor;
use sn_trace::{ArgValue, Counter, MetricsReport, Tracer, Track};
use std::sync::Arc;

/// Result of one batch served by the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Wall time of the batch: the busiest node (nodes run concurrently).
    pub latency: TimeSecs,
    /// Per-node busy time (router + switching + execution).
    pub per_node: Vec<TimeSecs>,
    /// Prompts served per node.
    pub prompts_per_node: Vec<usize>,
    /// Total expert misses across nodes.
    pub expert_misses: usize,
    /// Nodes that were down while this batch was served.
    pub failed_nodes: Vec<usize>,
    /// Experts re-registered onto survivors because their home node
    /// failed (counted once per expert, at first failover).
    pub rehomed_experts: usize,
    /// Latency charged to survivors for re-homing expert weights over
    /// DDR (part of `per_node` / `latency` already; broken out here).
    pub failover_penalty: TimeSecs,
    /// Retry and backoff time absorbed by injected expert-load faults on
    /// the serving nodes (also already inside `latency`).
    pub recovery: TimeSecs,
    /// Prompts no survivor could serve (DDR exhausted or persistent load
    /// faults) — the availability loss of the batch.
    pub dropped_prompts: usize,
    /// Aggregated trace metrics, present when a [`Tracer`] was attached
    /// via [`CoeCluster::with_tracer`]; `None` on untraced runs.
    pub metrics: Option<MetricsReport>,
    /// Sliding-window serving SLO snapshot over whole-cluster capacity,
    /// present when a tracker was attached via [`CoeCluster::with_slo`];
    /// `None` otherwise.
    pub slo: Option<SloSnapshot>,
}

impl ClusterReport {
    /// Load imbalance: busiest node time over the mean time of nodes that
    /// actually served prompts (1.0 is perfectly balanced).
    ///
    /// Failed nodes and legitimately idle nodes (no prompts routed to
    /// them) are both excluded from the mean: an idle node is not
    /// imbalance among the working set, and a dead node's zero busy time
    /// would drag the mean down and overstate imbalance. Returns 1.0 when
    /// nothing was served at all.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .per_node
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.prompts_per_node[i] > 0 && !self.failed_nodes.contains(&i))
            .map(|(_, t)| t.as_secs())
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.latency.as_secs() / mean
    }

    /// Fraction of prompts that completed (1.0 when nothing dropped).
    pub fn availability(&self) -> f64 {
        let served: usize = self.prompts_per_node.iter().sum();
        let offered = served + self.dropped_prompts;
        if offered == 0 {
            1.0
        } else {
            served as f64 / offered as f64
        }
    }
}

/// One request's slice of a serving wave (see [`CoeCluster::serve_wave`]).
#[derive(Debug, Clone)]
pub struct WaveSlot {
    /// The prompt to route (its expert decides the serving node).
    pub prompt: Prompt,
    /// True when this is the request's first chunk: the wave charges its
    /// prefill. Continuing chunks decode against the cached context.
    pub prefill: bool,
}

/// Where one wave slot ended up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WavePlacement {
    /// The slot executed on `node`; offsets are from the wave start.
    Served {
        /// Serving node index.
        node: usize,
        /// Offset at which the slot's first token lands (end of its
        /// prefill; for a continuing chunk this is its slot start).
        first_token: TimeSecs,
        /// Offset at which the slot's chunk finishes.
        done: TimeSecs,
    },
    /// No survivor could host the slot's expert (DDR exhausted or the
    /// weights never loaded intact): capacity loss, not a silent drop.
    Dropped,
}

/// Result of one wave served by [`CoeCluster::serve_wave`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveOutcome {
    /// Wall time of the wave: the busiest node.
    pub latency: TimeSecs,
    /// Per-node busy time.
    pub per_node: Vec<TimeSecs>,
    /// Slots served per node.
    pub prompts_per_node: Vec<usize>,
    /// Outcome per input slot, index-aligned.
    pub placements: Vec<WavePlacement>,
    /// Cold expert activations in this wave.
    pub expert_misses: usize,
    /// Warm expert activations in this wave (already HBM-resident).
    pub expert_hits: usize,
    /// DDR→HBM switch time charged inside `latency` for this wave's
    /// cold activations, summed across nodes.
    pub switch_time: TimeSecs,
    /// Experts re-homed onto survivors during this wave.
    pub rehomed_experts: usize,
    /// Re-homing transfer time charged inside `latency`.
    pub failover_penalty: TimeSecs,
    /// Retry/backoff time absorbed by injected faults inside `latency`.
    pub recovery: TimeSecs,
    /// Nodes down while the wave was served.
    pub failed_nodes: Vec<usize>,
}

/// Result of a topology change ([`CoeCluster::drain_node`] or
/// [`CoeCluster::rebalance_experts`]): how many experts moved and the
/// DDR transfer time the moves cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Experts whose DDR home changed (weights copied to the new home).
    pub moved_experts: usize,
    /// Experts that could not move (every candidate's DDR was full) and
    /// stayed behind; zero outside pathological capacity squeezes.
    pub stranded_experts: usize,
    /// Total weight-transfer time for the moves, in model time.
    pub transfer_time: TimeSecs,
}

/// A CoE deployment sharded across several SN40L nodes.
#[derive(Debug)]
pub struct CoeCluster {
    library: ExpertLibrary,
    router: Router,
    runtimes: Vec<CoeRuntime>,
    executor: NodeExecutor,
    /// The shared expert program pair, compiled once per process.
    programs: Arc<ExpertPrograms>,
    router_steps: f64,
    /// Current DDR home of each expert; starts round-robin and moves to a
    /// survivor when the home node fails.
    homes: Vec<usize>,
    /// Extra nodes holding a DDR replica of each expert's weights,
    /// created by stats-driven placement (PR 7). Empty (the reactive
    /// single-home deployment) until [`CoeCluster::apply_placement`]
    /// replicates something — the serving arithmetic is then
    /// bit-identical to the pre-placement path.
    replicas: Vec<Vec<usize>>,
    /// Experts staged into HBM speculatively and not yet claimed by a
    /// demand activation; unclaimed entries expire (as wasted bytes) at
    /// the next prefetch boundary.
    prefetched: std::collections::BTreeSet<usize>,
    /// Running totals for the prefetch policy loop.
    prefetch_hits: u64,
    prefetch_wasted: Bytes,
    /// DMA model that charges prefetch and replication traffic at real
    /// DDR→HBM bandwidth (rides the memsim ledger and counters).
    dma: DmaEngine,
    /// Nodes currently down (forced via [`CoeCluster::fail_node`] or drawn
    /// from the fault plan).
    failed: Vec<bool>,
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    tracer: Tracer,
    slo: Option<SloTracker>,
}

impl CoeCluster {
    /// Builds a cluster of `nodes` SN40L nodes and registers the library
    /// round-robin across them. The expert programs come from
    /// [`ExpertPrograms::shared`], so only the first cluster of a given
    /// shape in a process pays the compile.
    ///
    /// # Errors
    ///
    /// [`CoeError::EmptyLibrary`] when the library has no experts;
    /// [`CoeError::Compile`] when building or compiling the expert graphs
    /// fails (e.g. `prompt_tokens == 0`); otherwise the underlying
    /// [`CoeError`] when a node's DDR cannot hold its shard (the cluster
    /// is undersized).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(
        node: NodeSpec,
        nodes: usize,
        library: ExpertLibrary,
        prompt_tokens: usize,
    ) -> Result<Self, CoeError> {
        assert!(nodes >= 1, "a cluster needs at least one node");
        if library.is_empty() {
            return Err(CoeError::EmptyLibrary);
        }
        let calib = Calibration::baseline();
        let programs = ExpertPrograms::shared(
            &node.socket,
            &calib,
            library.config(),
            prompt_tokens,
            node.sockets,
        )?;
        let mut runtimes: Vec<CoeRuntime> = (0..nodes)
            .map(|_| CoeRuntime::new(&node, CoeRuntimeConfig::default()))
            .collect();
        for (i, e) in library.experts().iter().enumerate() {
            runtimes[i % nodes].register(ModelBinary::weights_only(
                e.name.clone(),
                library.expert_bytes(),
            ))?;
        }
        let dma = DmaEngine::new(&node.socket);
        let n_experts = library.len();
        let executor = NodeExecutor::new(node, calib.clone());
        let homes = (0..library.len()).map(|e| e % nodes).collect();
        Ok(CoeCluster {
            library,
            router: Router::new(0xc1a5fe2),
            runtimes,
            executor,
            programs,
            router_steps: calib.router_equiv_decode_steps,
            homes,
            replicas: vec![Vec::new(); n_experts],
            prefetched: std::collections::BTreeSet::new(),
            prefetch_hits: 0,
            prefetch_wasted: Bytes::ZERO,
            dma,
            failed: vec![false; nodes],
            faults: None,
            retry: RetryPolicy::standard(),
            tracer: Tracer::disabled(),
            slo: None,
        })
    }

    /// Attaches a fault plan and retry budget: every node's runtime then
    /// consults the plan on expert loads, and
    /// [`CoeCluster::try_serve_batch`] draws per-batch node failures at
    /// [`FaultSite::NodeFailure`].
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) -> Self {
        self.runtimes = self
            .runtimes
            .into_iter()
            .map(|rt| rt.with_faults(Arc::clone(&plan), retry))
            .collect();
        self.faults = Some(plan);
        self.retry = retry;
        self
    }

    /// Attaches a [`Tracer`] shared by every node's [`CoeRuntime`] (expert
    /// hit/switch events) and the [`NodeExecutor`] (kernel-launch spans).
    /// Batches then emit one concurrent span per busy node on
    /// [`Track::Cluster`] (tid = node index) and every [`ClusterReport`]
    /// carries an aggregated [`MetricsReport`]. Timing arithmetic is
    /// unchanged: traces are recorded after the fact.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.runtimes = self
            .runtimes
            .into_iter()
            .map(|rt| rt.with_tracer(tracer.clone()))
            .collect();
        self.executor = self.executor.with_tracer(tracer.clone());
        self.dma = self.dma.with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Attaches a serving-SLO tracker measuring against whole-cluster
    /// capacity (the node profile scaled by node count): every serve call
    /// then feeds the batch into a sliding window and stamps the refreshed
    /// [`SloSnapshot`] onto its [`ClusterReport`]. Pure bookkeeping over
    /// already-computed timings.
    #[must_use]
    pub fn with_slo(mut self, config: SloConfig) -> Self {
        let nodes = self.runtimes.len() as f64;
        self.slo = Some(SloTracker::new(
            MachineProfile::from_node(self.executor.node()).scale(nodes),
            config,
        ));
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.runtimes.len()
    }

    /// The node currently owning an expert (round-robin until failover
    /// re-homes it).
    pub fn owner(&self, expert: usize) -> usize {
        self.homes[expert]
    }

    /// Replica nodes (beyond the home) currently holding an expert's
    /// weights in DDR.
    pub fn replica_nodes(&self, expert: usize) -> &[usize] {
        &self.replicas[expert]
    }

    /// The expert a prompt routes to (the router is pure, so observing a
    /// route does not change any serving outcome).
    pub fn routed_expert(&self, prompt: &Prompt) -> usize {
        self.router.route(prompt, self.library.len())
    }

    /// Number of experts in the deployed library.
    pub fn n_experts(&self) -> usize {
        self.library.len()
    }

    /// Bytes of one expert's weights.
    pub fn expert_bytes(&self) -> Bytes {
        self.library.expert_bytes()
    }

    /// Picks the healthy node to serve an expert: the home when no
    /// replicas exist (the exact pre-placement arithmetic), otherwise
    /// the least-loaded healthy holder (ties to the lowest index).
    /// `None` when neither the home nor any replica is healthy.
    fn serving_node(&self, expert: usize, loads: &[usize]) -> Option<usize> {
        let home = self.homes[expert];
        if self.replicas[expert].is_empty() {
            return (!self.failed[home]).then_some(home);
        }
        let mut holders: Vec<usize> = std::iter::once(home)
            .chain(self.replicas[expert].iter().copied())
            .filter(|&n| !self.failed[n])
            .collect();
        holders.sort_unstable();
        holders.dedup();
        // Prefer a holder whose HBM is already warm: bouncing a
        // replicated expert between holders on load ties would re-pay
        // the switch on every bounce. Residency is a pure query, so
        // this cannot perturb LRU state.
        let name = &self.library.expert(expert).name;
        holders
            .into_iter()
            .min_by_key(|&n| (!self.runtimes[n].is_resident(name), loads[n], n))
    }

    /// Forces a node down: its prompts re-route to survivors on the next
    /// [`CoeCluster::try_serve_batch`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn fail_node(&mut self, node: usize) {
        self.failed[node] = true;
    }

    /// Brings a failed node back (already re-homed experts stay on their
    /// survivors; the restored node serves what still lives on it).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn restore_node(&mut self, node: usize) {
        self.failed[node] = false;
    }

    /// Indices of currently failed nodes.
    pub fn failed_nodes(&self) -> Vec<usize> {
        self.failed
            .iter()
            .enumerate()
            .filter(|&(_, &down)| down)
            .map(|(i, _)| i)
            .collect()
    }

    fn router_time(&self) -> TimeSecs {
        let prefill = self
            .executor
            .run(self.programs.prefill(), Orchestration::Hardware)
            .total;
        let step = self
            .executor
            .run(self.programs.decode(), Orchestration::Hardware)
            .total;
        prefill + step * self.router_steps
    }

    /// Unit timings for one model run: (prefill, `output_tokens`-step
    /// decode loop).
    fn unit_run_times(&self, output_tokens: usize) -> (TimeSecs, TimeSecs) {
        let prefill = self
            .executor
            .run(self.programs.prefill(), Orchestration::Hardware)
            .total;
        let decode = self
            .executor
            .run_decode_loop(
                self.programs.decode(),
                Orchestration::Hardware,
                output_tokens.max(1),
            )
            .total;
        (prefill, decode)
    }

    /// Feeds one served batch into the SLO tracker (when attached) and
    /// stamps the report with the refreshed window snapshot. TTFT is the
    /// router pass plus one prefill (the first prompt on a warm node);
    /// tier traffic counts model runs on every busy node plus DDR
    /// movement from cold switches and failover re-homing. Runs after all
    /// timing arithmetic; a no-op without a tracker.
    fn observe_slo(
        &mut self,
        report: &mut ClusterReport,
        router: TimeSecs,
        prefill_unit: TimeSecs,
        output_tokens: usize,
    ) {
        if self.slo.is_none() {
            return;
        }
        let steps = output_tokens.max(1) as f64;
        let served: usize = report.prompts_per_node.iter().sum();
        let busy = report.prompts_per_node.iter().filter(|&&n| n > 0).count() as f64;
        let run_traffic = self.programs.prefill().total_traffic()
            + self.programs.decode().total_traffic().scale(steps);
        let router_traffic = self.programs.prefill().total_traffic()
            + self
                .programs
                .decode()
                .total_traffic()
                .scale(self.router_steps);
        let hbm_bytes = run_traffic.scale(served as f64) + router_traffic.scale(busy);
        let moved_experts = report.expert_misses + report.rehomed_experts;
        let ddr_bytes: Bytes = self.library.expert_bytes().scale(moved_experts as f64);
        let tracker = self.slo.as_mut().expect("checked above");
        tracker.record(BatchObservation {
            latency: report.latency,
            ttft: router + prefill_unit,
            prompts: served,
            tokens: served * output_tokens,
            hbm_bytes,
            ddr_bytes,
        });
        report.slo = tracker.snapshot();
    }

    /// Records the cluster-level view of a batch: one span per busy node
    /// on [`Track::Cluster`] (tid = node index), all starting at the track
    /// cursor since nodes run concurrently, with the cursor advanced past
    /// the busiest node. Runs after the timing arithmetic so traced and
    /// untraced results stay identical.
    fn trace_cluster_batch(
        &self,
        label: &str,
        prompts: usize,
        per_node: &[TimeSecs],
        per_node_prompts: &[usize],
        latency: TimeSecs,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let served: usize = per_node_prompts.iter().sum();
        self.tracer.count(Counter::RouterDecisions, prompts as u64);
        self.tracer.count(Counter::PromptsServed, served as u64);
        let start_us = self.tracer.cursor_us(Track::Cluster);
        let start = TimeSecs::from_micros(start_us);
        for (i, (&busy, &n)) in per_node.iter().zip(per_node_prompts).enumerate() {
            if n == 0 {
                continue;
            }
            self.tracer.span_at(
                Track::Cluster,
                i as u32,
                format!("node{i}:{label}"),
                start,
                busy,
                &[("prompts", ArgValue::from(n))],
            );
        }
        self.tracer
            .advance_cursor_us(Track::Cluster, start_us + latency.as_micros());
    }

    /// Serves a batch: the router runs once (replicated on every node);
    /// prompts then fan out to their experts' home nodes, which execute
    /// concurrently.
    pub fn serve_batch(&mut self, prompts: &[Prompt], output_tokens: usize) -> ClusterReport {
        assert!(!prompts.is_empty(), "empty batch");
        let nodes = self.runtimes.len();
        let n_experts = self.library.len();
        let mut per_node_prompts = vec![0usize; nodes];
        let mut per_node_switch = vec![TimeSecs::ZERO; nodes];
        let mut misses = 0;
        // Each expert serves on one node per batch: its home, or (with
        // placement replicas) the least-loaded healthy holder, pinned at
        // first activation so later prompts reuse the warmed node.
        let mut chosen: Vec<Option<usize>> = vec![None; n_experts];
        for p in prompts {
            let e = self.router.route(p, n_experts);
            let owner = match chosen[e] {
                Some(n) => n,
                None => {
                    let n = self
                        .serving_node(e, &per_node_prompts)
                        .unwrap_or_else(|| self.owner(e));
                    let name = self.library.expert(e).name.as_str();
                    let outcome = self.runtimes[n]
                        .activate(name)
                        .expect("expert registered on serving node");
                    if !outcome.hit {
                        misses += 1;
                    }
                    self.claim_prefetch(e, outcome.hit);
                    per_node_switch[n] += outcome.switch_time;
                    chosen[e] = Some(n);
                    n
                }
            };
            per_node_prompts[owner] += 1;
        }
        let router = self.router_time();
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let per_node: Vec<TimeSecs> = (0..nodes)
            .map(|i| {
                if per_node_prompts[i] == 0 {
                    TimeSecs::ZERO
                } else {
                    router + per_node_switch[i] + run * per_node_prompts[i] as f64
                }
            })
            .collect();
        let latency = per_node.iter().copied().fold(TimeSecs::ZERO, TimeSecs::max);
        self.trace_cluster_batch(
            "batch",
            prompts.len(),
            &per_node,
            &per_node_prompts,
            latency,
        );
        let mut report = ClusterReport {
            latency,
            per_node,
            prompts_per_node: per_node_prompts,
            expert_misses: misses,
            failed_nodes: Vec::new(),
            rehomed_experts: 0,
            failover_penalty: TimeSecs::ZERO,
            recovery: TimeSecs::ZERO,
            dropped_prompts: 0,
            metrics: self.tracer.metrics_opt(),
            slo: None,
        };
        self.observe_slo(&mut report, router, prefill_unit, output_tokens);
        report
    }

    /// Picks the survivor to adopt a re-homed expert: the healthy node
    /// with the fewest prompts assigned so far (ties to the lowest
    /// index), skipping nodes whose DDR is already full.
    fn adopt_expert(
        &mut self,
        expert: usize,
        loads: &[usize],
    ) -> Result<Option<(usize, bool)>, CoeError> {
        let name = self.library.expert(expert).name.clone();
        let bytes = self.library.expert_bytes();
        let mut survivors: Vec<usize> = (0..self.runtimes.len())
            .filter(|&i| !self.failed[i])
            .collect();
        survivors.sort_by_key(|&i| (loads[i], i));
        for s in survivors {
            match self.runtimes[s].register(ModelBinary::weights_only(name.clone(), bytes)) {
                Ok(()) => {
                    self.homes[expert] = s;
                    return Ok(Some((s, true)));
                }
                // Already adopted by this survivor in an earlier batch —
                // the weights are there, no new transfer needed.
                Err(CoeError::Duplicate(_)) => {
                    self.homes[expert] = s;
                    return Ok(Some((s, false)));
                }
                Err(CoeError::DdrFull(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Degraded-mode serving: like [`CoeCluster::serve_batch`], but nodes
    /// can be down — forced via [`CoeCluster::fail_node`] or drawn from
    /// the attached fault plan at [`FaultSite::NodeFailure`] (one draw per
    /// healthy node per batch; a `Fail` crashes the node persistently).
    ///
    /// Prompts routed to a dead node fail over: the expert re-homes onto
    /// the least-loaded survivor (a DDR registration plus a weight
    /// transfer charged to that survivor and to `failover_penalty`), and
    /// the prompt executes there. Prompts nobody can adopt (survivor DDR
    /// exhausted) or whose expert never loads intact are dropped and
    /// counted in `dropped_prompts`. Expert-load faults on survivors are
    /// retried through each runtime's policy, with retry time in
    /// `recovery`.
    ///
    /// With no plan attached and no failed nodes this delegates to
    /// [`CoeCluster::serve_batch`] — reports come out bit-identical.
    ///
    /// # Errors
    ///
    /// [`CoeError::NoHealthyNodes`] when every node is down.
    pub fn try_serve_batch(
        &mut self,
        prompts: &[Prompt],
        output_tokens: usize,
    ) -> Result<ClusterReport, CoeError> {
        assert!(!prompts.is_empty(), "empty batch");
        if let Some(plan) = self.faults.clone() {
            // Per-batch crash draws for nodes still standing.
            for i in 0..self.runtimes.len() {
                if !self.failed[i]
                    && matches!(plan.decide(FaultSite::NodeFailure), FaultDecision::Fail)
                {
                    self.failed[i] = true;
                }
            }
        }
        let zero_plan = self.faults.as_ref().map(|p| p.is_zero()).unwrap_or(true);
        if zero_plan && !self.failed.iter().any(|&down| down) {
            // Nothing can inject and nothing is down: take the exact
            // fault-free arithmetic path so reports stay bit-identical.
            return Ok(self.serve_batch(prompts, output_tokens));
        }
        self.serve_batch_degraded(prompts, output_tokens)
    }

    /// The failover serving path; assumes at least one fault source is
    /// live (failed nodes or a nonzero plan).
    fn serve_batch_degraded(
        &mut self,
        prompts: &[Prompt],
        output_tokens: usize,
    ) -> Result<ClusterReport, CoeError> {
        let nodes = self.runtimes.len();
        let n_experts = self.library.len();
        if self.failed.iter().all(|&down| down) {
            return Err(CoeError::NoHealthyNodes);
        }
        let rehome_time =
            self.library.expert_bytes() / self.executor.node().model_switch_bandwidth();
        let mut per_node_prompts = vec![0usize; nodes];
        let mut per_node_switch = vec![TimeSecs::ZERO; nodes];
        let mut per_node_recovery = vec![TimeSecs::ZERO; nodes];
        let mut per_node_penalty = vec![TimeSecs::ZERO; nodes];
        let mut misses = 0;
        let mut hits = 0;
        let mut rehomed = 0;
        let mut dropped = 0;
        // Expert -> node it is serving on this batch (`Some(None)` when
        // its load is irrecoverably faulted / nobody could adopt it).
        // Dense per-expert memo: no iteration order to depend on.
        let mut placed: Vec<Option<Option<usize>>> = vec![None; n_experts];
        for p in prompts {
            let e = self.router.route(p, n_experts);
            let target = match placed[e] {
                Some(t) => t,
                None => {
                    let t = self.place_expert(
                        e,
                        &per_node_prompts,
                        rehome_time,
                        &mut per_node_switch,
                        &mut per_node_recovery,
                        &mut per_node_penalty,
                        &mut misses,
                        &mut hits,
                        &mut rehomed,
                    )?;
                    placed[e] = Some(t);
                    t
                }
            };
            match target {
                Some(node) => per_node_prompts[node] += 1,
                None => dropped += 1,
            }
        }
        let router = self.router_time();
        let (prefill_unit, decode_unit) = self.unit_run_times(output_tokens);
        let run = prefill_unit + decode_unit;
        let per_node: Vec<TimeSecs> = (0..nodes)
            .map(|i| {
                if per_node_prompts[i] == 0 {
                    TimeSecs::ZERO
                } else {
                    router
                        + per_node_switch[i]
                        + run * per_node_prompts[i] as f64
                        + per_node_recovery[i]
                        + per_node_penalty[i]
                }
            })
            .collect();
        let latency = per_node.iter().copied().fold(TimeSecs::ZERO, TimeSecs::max);
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::ExpertsRehomed, rehomed as u64);
            self.tracer.count(Counter::PromptsDropped, dropped as u64);
            for i in self.failed_nodes() {
                self.tracer
                    .instant(Track::Cluster, format!("node{i}:down"), &[]);
            }
        }
        self.trace_cluster_batch(
            "degraded",
            prompts.len(),
            &per_node,
            &per_node_prompts,
            latency,
        );
        let mut report = ClusterReport {
            latency,
            per_node,
            prompts_per_node: per_node_prompts,
            expert_misses: misses,
            failed_nodes: self.failed_nodes(),
            rehomed_experts: rehomed,
            failover_penalty: per_node_penalty.iter().copied().sum(),
            recovery: per_node_recovery.iter().copied().sum(),
            dropped_prompts: dropped,
            metrics: self.tracer.metrics_opt(),
            slo: None,
        };
        self.observe_slo(&mut report, router, prefill_unit, output_tokens);
        Ok(report)
    }

    /// Finds (re-homing if needed) and activates `expert` for this batch,
    /// charging switch, recovery, and failover costs to the serving node.
    /// Returns the serving node, or `None` when the prompt set for this
    /// expert must drop.
    ///
    /// With placement replicas, a healthy replica both spreads load (the
    /// least-loaded healthy holder serves) and makes failover free: a
    /// dead home whose weights already live on a healthy replica skips
    /// the adoption transfer entirely.
    #[allow(clippy::too_many_arguments)]
    fn place_expert(
        &mut self,
        expert: usize,
        loads: &[usize],
        rehome_time: TimeSecs,
        per_node_switch: &mut [TimeSecs],
        per_node_recovery: &mut [TimeSecs],
        per_node_penalty: &mut [TimeSecs],
        misses: &mut usize,
        hits: &mut usize,
        rehomed: &mut usize,
    ) -> Result<Option<usize>, CoeError> {
        let serving = match self.serving_node(expert, loads) {
            Some(node) => node,
            // Neither the home nor any replica is healthy: classic
            // adoption onto a survivor, with the re-homing transfer.
            None => match self.adopt_expert(expert, loads)? {
                Some((survivor, newly_homed)) => {
                    if newly_homed {
                        *rehomed += 1;
                        per_node_penalty[survivor] += rehome_time;
                    }
                    survivor
                }
                None => return Ok(None),
            },
        };
        let name = self.library.expert(expert).name.as_str();
        match self.runtimes[serving].activate_with_recovery(name) {
            Ok((outcome, recovery)) => {
                if outcome.hit {
                    *hits += 1;
                } else {
                    *misses += 1;
                }
                self.claim_prefetch(expert, outcome.hit);
                per_node_switch[serving] += outcome.switch_time;
                per_node_recovery[serving] += recovery.time;
                Ok(Some(serving))
            }
            // The expert never loaded intact: every prompt routed to it
            // this batch drops (the weights in DDR are suspect).
            Err(CoeError::LoadFault { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Settles a prefetched expert against its demand outcome: a hit
    /// means the speculation paid off; a miss means the staged weights
    /// left HBM before the router arrived and the transfer was wasted.
    /// A no-op while the prefetch set is empty, so runs without a
    /// prefetch policy are untouched.
    fn claim_prefetch(&mut self, expert: usize, hit: bool) {
        if !self.prefetched.remove(&expert) {
            return;
        }
        if hit {
            self.prefetch_hits += 1;
            if self.tracer.is_enabled() {
                self.tracer.count(Counter::PrefetchHits, 1);
            }
        } else {
            let bytes = self.library.expert_bytes();
            self.prefetch_wasted += bytes;
            if self.tracer.is_enabled() {
                self.tracer
                    .count(Counter::PrefetchWastedBytes, bytes.as_u64());
            }
        }
    }

    /// The node specification every cluster node shares.
    pub fn node_spec(&self) -> &NodeSpec {
        self.executor.node()
    }

    /// The tracer shared by the cluster (disabled unless attached via
    /// [`CoeCluster::with_tracer`]); lets same-crate serving layers emit
    /// counters into the same stream.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of healthy (not failed) nodes.
    pub fn healthy_nodes(&self) -> usize {
        self.failed.iter().filter(|&&down| !down).count()
    }

    /// Per-node expert counts by current DDR home (including homes on
    /// failed nodes — those experts re-home reactively when served).
    pub fn expert_homes(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.runtimes.len()];
        for &h in &self.homes {
            counts[h] += 1;
        }
        counts
    }

    /// Weight-transfer time for moving one expert's DDR image between
    /// nodes — the unit cost of re-homing and rebalancing.
    fn rehome_time(&self) -> TimeSecs {
        self.library.expert_bytes() / self.executor.node().model_switch_bandwidth()
    }

    /// Grows the cluster by one empty node (same spec as the rest, with
    /// the cluster's fault plan and tracer attached) and returns its
    /// index. The new node owns no experts until
    /// [`CoeCluster::rebalance_experts`] moves some over — capacity
    /// without placement serves nothing.
    pub fn add_node(&mut self) -> usize {
        let spec = self.executor.node().clone();
        let mut rt = CoeRuntime::new(&spec, CoeRuntimeConfig::default());
        if let Some(plan) = &self.faults {
            rt = rt.with_faults(Arc::clone(plan), self.retry);
        }
        if self.tracer.is_enabled() {
            rt = rt.with_tracer(self.tracer.clone());
        }
        self.runtimes.push(rt);
        self.failed.push(false);
        self.runtimes.len() - 1
    }

    /// Evens out expert placement across healthy nodes: experts move,
    /// one at a time in ascending index order, from the most-loaded home
    /// to the least-loaded healthy node until no move closes a gap of
    /// two or more. Each move charges one DDR weight transfer. Experts
    /// homed on failed nodes are left for reactive failover.
    pub fn rebalance_experts(&mut self) -> RebalanceReport {
        let rehome_time = self.rehome_time();
        let mut counts = self.expert_homes();
        let mut report = RebalanceReport {
            moved_experts: 0,
            stranded_experts: 0,
            transfer_time: TimeSecs::ZERO,
        };
        for e in 0..self.homes.len() {
            let h = self.homes[e];
            if self.failed[h] {
                continue;
            }
            // The least-loaded healthy destination this move would still
            // improve on (ties to the lowest index).
            let dest = (0..self.runtimes.len())
                .filter(|&d| d != h && !self.failed[d] && counts[d] + 2 <= counts[h])
                .min_by_key(|&d| (counts[d], d));
            let Some(dest) = dest else { continue };
            let name = self.library.expert(e).name.clone();
            let bytes = self.library.expert_bytes();
            match self.runtimes[dest].register(ModelBinary::weights_only(name, bytes)) {
                Ok(()) => {
                    self.homes[e] = dest;
                    counts[h] -= 1;
                    counts[dest] += 1;
                    report.moved_experts += 1;
                    report.transfer_time += rehome_time;
                }
                // The destination already holds the weights from an
                // earlier adoption: the move is free.
                Err(CoeError::Duplicate(_)) => {
                    self.homes[e] = dest;
                    counts[h] -= 1;
                    counts[dest] += 1;
                    report.moved_experts += 1;
                }
                Err(CoeError::DdrFull(_)) => continue,
                Err(_) => continue,
            }
        }
        report
    }

    /// Proactively drains a node for scale-down: every expert homed on
    /// it moves to the least-loaded other healthy node first (a planned
    /// DDR transfer each, unlike crash failover there is no serving-path
    /// penalty), then the node is taken out of service. Restore it later
    /// with [`CoeCluster::restore_node`] — it keeps whatever weights its
    /// DDR already held.
    ///
    /// # Errors
    ///
    /// [`CoeError::NoHealthyNodes`] when no *other* healthy node exists
    /// to take the experts — a cluster cannot drain its last node.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn drain_node(&mut self, node: usize) -> Result<RebalanceReport, CoeError> {
        assert!(node < self.runtimes.len(), "no such node");
        if !(0..self.runtimes.len()).any(|i| i != node && !self.failed[i]) {
            return Err(CoeError::NoHealthyNodes);
        }
        let rehome_time = self.rehome_time();
        let mut counts = self.expert_homes();
        let mut report = RebalanceReport {
            moved_experts: 0,
            stranded_experts: 0,
            transfer_time: TimeSecs::ZERO,
        };
        for e in 0..self.homes.len() {
            if self.homes[e] != node {
                continue;
            }
            let name = self.library.expert(e).name.clone();
            let bytes = self.library.expert_bytes();
            let mut candidates: Vec<usize> = (0..self.runtimes.len())
                .filter(|&i| i != node && !self.failed[i])
                .collect();
            candidates.sort_by_key(|&i| (counts[i], i));
            let mut placed = false;
            for dest in candidates {
                match self.runtimes[dest].register(ModelBinary::weights_only(name.clone(), bytes)) {
                    Ok(()) => {
                        self.homes[e] = dest;
                        counts[node] -= 1;
                        counts[dest] += 1;
                        report.moved_experts += 1;
                        report.transfer_time += rehome_time;
                        placed = true;
                        break;
                    }
                    Err(CoeError::Duplicate(_)) => {
                        self.homes[e] = dest;
                        counts[node] -= 1;
                        counts[dest] += 1;
                        report.moved_experts += 1;
                        placed = true;
                        break;
                    }
                    Err(CoeError::DdrFull(_)) => continue,
                    Err(err) => return Err(err),
                }
            }
            if !placed {
                report.stranded_experts += 1;
            }
        }
        self.failed[node] = true;
        Ok(report)
    }

    /// Serves one wave of a continuous-batching engine: each slot is one
    /// request's chunk (prefill + `wave_tokens` decode steps for a first
    /// chunk, decode only for a continuing chunk). Routing, failover,
    /// and fault handling follow [`CoeCluster::try_serve_batch`] — a
    /// per-wave [`FaultSite::NodeFailure`] draw per healthy node, dead
    /// homes re-homed onto survivors, unplaceable slots reported as
    /// [`WavePlacement::Dropped`]. Unlike the batch path, the outcome
    /// carries per-slot placement with first-token and completion
    /// offsets, so an engine can keep per-request records across waves.
    ///
    /// # Errors
    ///
    /// [`CoeError::NoHealthyNodes`] when every node is down.
    ///
    /// # Panics
    ///
    /// Panics on an empty wave.
    pub fn serve_wave(
        &mut self,
        slots: &[WaveSlot],
        wave_tokens: usize,
    ) -> Result<WaveOutcome, CoeError> {
        assert!(!slots.is_empty(), "empty wave");
        if let Some(plan) = self.faults.clone() {
            for i in 0..self.runtimes.len() {
                if !self.failed[i]
                    && matches!(plan.decide(FaultSite::NodeFailure), FaultDecision::Fail)
                {
                    self.failed[i] = true;
                }
            }
        }
        if self.failed.iter().all(|&down| down) {
            return Err(CoeError::NoHealthyNodes);
        }
        let nodes = self.runtimes.len();
        let n_experts = self.library.len();
        let rehome_time = self.rehome_time();
        let mut per_node_prompts = vec![0usize; nodes];
        let mut per_node_switch = vec![TimeSecs::ZERO; nodes];
        let mut per_node_recovery = vec![TimeSecs::ZERO; nodes];
        let mut per_node_penalty = vec![TimeSecs::ZERO; nodes];
        let mut misses = 0;
        let mut hits = 0;
        let mut rehomed = 0;
        // Dense per-expert memo (`Some(None)` = every slot on this
        // expert drops).
        let mut placed: Vec<Option<Option<usize>>> = vec![None; n_experts];
        let mut slot_nodes: Vec<Option<usize>> = Vec::with_capacity(slots.len());
        for slot in slots {
            let e = self.router.route(&slot.prompt, n_experts);
            let target = match placed[e] {
                Some(t) => t,
                None => {
                    let t = self.place_expert(
                        e,
                        &per_node_prompts,
                        rehome_time,
                        &mut per_node_switch,
                        &mut per_node_recovery,
                        &mut per_node_penalty,
                        &mut misses,
                        &mut hits,
                        &mut rehomed,
                    )?;
                    placed[e] = Some(t);
                    t
                }
            };
            if let Some(node) = target {
                per_node_prompts[node] += 1;
            }
            slot_nodes.push(target);
        }
        let router = self.router_time();
        let (prefill_unit, decode_unit) = self.unit_run_times(wave_tokens);
        // Shared per-node preamble (router pass, switching, recovery,
        // re-homing), then slots run back-to-back on their node: each
        // slot's completion offset is the node's running cursor.
        let mut cursor: Vec<TimeSecs> = (0..nodes)
            .map(|i| {
                if per_node_prompts[i] == 0 {
                    TimeSecs::ZERO
                } else {
                    router + per_node_switch[i] + per_node_recovery[i] + per_node_penalty[i]
                }
            })
            .collect();
        let mut placements = Vec::with_capacity(slots.len());
        let mut dropped = 0usize;
        for (slot, &target) in slots.iter().zip(&slot_nodes) {
            match target {
                None => {
                    dropped += 1;
                    placements.push(WavePlacement::Dropped);
                }
                Some(node) => {
                    let start = cursor[node];
                    let (first_token, done) = if slot.prefill {
                        (start + prefill_unit, start + prefill_unit + decode_unit)
                    } else {
                        (start, start + decode_unit)
                    };
                    cursor[node] = done;
                    placements.push(WavePlacement::Served {
                        node,
                        first_token,
                        done,
                    });
                }
            }
        }
        let per_node = cursor;
        let latency = per_node.iter().copied().fold(TimeSecs::ZERO, TimeSecs::max);
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::ExpertsRehomed, rehomed as u64);
            self.tracer.count(Counter::PromptsDropped, dropped as u64);
        }
        self.trace_cluster_batch("wave", slots.len(), &per_node, &per_node_prompts, latency);
        Ok(WaveOutcome {
            latency,
            per_node,
            prompts_per_node: per_node_prompts,
            placements,
            expert_misses: misses,
            expert_hits: hits,
            switch_time: per_node_switch.iter().copied().sum(),
            rehomed_experts: rehomed,
            failover_penalty: per_node_penalty.iter().copied().sum(),
            recovery: per_node_recovery.iter().copied().sum(),
            failed_nodes: self.failed_nodes(),
        })
    }

    /// Snapshot of the placement topology for
    /// [`crate::placement::PlacementPolicy::plan`].
    pub fn placement_view(&self) -> crate::placement::PlacementView {
        crate::placement::PlacementView {
            homes: self.homes.clone(),
            replicas: self.replicas.clone(),
            healthy: self.failed.iter().map(|&down| !down).collect(),
        }
    }

    /// Expires all still-pending prefetches as mispredictions: their
    /// DDR→HBM transfers moved bytes the router never asked for. Called
    /// at end of serve; boundaries instead keep speculations the policy
    /// re-proposes. Returns how many expired.
    pub fn expire_prefetches(&mut self) -> u64 {
        self.expire_prefetches_except(&[])
    }

    /// Expires pending prefetches *not* in `keep`: a speculation the
    /// policy still believes in stays live (its transfer already
    /// happened; expiring and re-staging it would double-charge the
    /// DMA model for weights that never left HBM).
    fn expire_prefetches_except(&mut self, keep: &[usize]) -> u64 {
        let stale: Vec<usize> = self
            .prefetched
            .iter()
            .copied()
            .filter(|e| !keep.contains(e))
            .collect();
        let expired = stale.len() as u64;
        if expired > 0 {
            let bytes = self.library.expert_bytes() * expired;
            self.prefetch_wasted += bytes;
            if self.tracer.is_enabled() {
                self.tracer
                    .count(Counter::PrefetchWastedBytes, bytes.as_u64());
            }
            for e in stale {
                self.prefetched.remove(&e);
            }
        }
        expired
    }

    /// Issues speculative DDR→HBM loads for `experts` on their serving
    /// nodes. Speculation from the previous boundary that is no longer
    /// in `experts` expires first (still-predicted pending speculations
    /// stay live). Each staged expert is a real transfer: charged through
    /// the memsim DMA model at DDR bandwidth, counted under
    /// [`Counter::PrefetchIssued`], and returned as `transfer_time` for
    /// the caller to overlap with (or expose beyond) the next wave.
    /// Already-resident experts cost nothing and do not consume the
    /// `max_issues` budget — the walk stops once that many transfers
    /// have actually been staged. `loads` breaks replica ties the same
    /// way serving does.
    pub fn prefetch_experts(
        &mut self,
        experts: &[usize],
        loads: &[usize],
        max_issues: usize,
    ) -> PrefetchOutcome {
        let expired = self.expire_prefetches_except(experts);
        let mut outcome = PrefetchOutcome {
            issued: 0,
            bytes: Bytes::ZERO,
            transfer_time: TimeSecs::ZERO,
            expired,
        };
        for &e in experts {
            if outcome.issued as usize >= max_issues {
                break;
            }
            let Some(node) = self.serving_node(e, loads) else {
                continue;
            };
            let name = self.library.expert(e).name.as_str();
            let staged = self.runtimes[node]
                .prefetch(name)
                .expect("expert registered on serving node");
            let Some(load) = staged else {
                continue; // already resident: prediction already paid off
            };
            let moved = load.copied_in + load.copied_back;
            self.dma.transfer(Route::DDR_TO_HBM, moved);
            outcome.issued += 1;
            outcome.bytes += moved;
            outcome.transfer_time += load.switch_time;
            self.prefetched.insert(e);
            if self.tracer.is_enabled() {
                self.tracer.count(Counter::PrefetchIssued, 1);
            }
        }
        outcome
    }

    /// Applies a stats-driven [`crate::placement::PlacementPlan`]:
    /// replicates hot experts onto additional healthy nodes and re-homes
    /// cold experts off overloaded ones. Weight movement is charged at
    /// DDR bandwidth into `transfer_time`; a destination that already
    /// holds the weights (an earlier adoption or replica) makes the
    /// action free, exactly like [`CoeCluster::rebalance_experts`].
    /// Replications ride [`Counter::ExpertsReplicated`].
    pub fn apply_placement(&mut self, plan: &crate::placement::PlacementPlan) -> PlacementOutcome {
        let rehome_time = self.rehome_time();
        let mut outcome = PlacementOutcome {
            replicated: 0,
            moves: 0,
            transfer_time: TimeSecs::ZERO,
        };
        let bytes = self.library.expert_bytes();
        for &(e, node) in &plan.replicate {
            if self.failed[node] || self.homes[e] == node || self.replicas[e].contains(&node) {
                continue;
            }
            let name = self.library.expert(e).name.clone();
            match self.runtimes[node].register(ModelBinary::weights_only(name, bytes)) {
                Ok(()) => {
                    outcome.transfer_time += rehome_time;
                }
                // The node already holds the weights from an earlier
                // adoption or move: the replica is free.
                Err(CoeError::Duplicate(_)) => {}
                Err(_) => continue,
            }
            self.replicas[e].push(node);
            self.replicas[e].sort_unstable();
            outcome.replicated += 1;
            if self.tracer.is_enabled() {
                self.tracer.count(Counter::ExpertsReplicated, 1);
            }
        }
        for &(e, node) in &plan.moves {
            if self.failed[node] || self.homes[e] == node {
                continue;
            }
            let name = self.library.expert(e).name.clone();
            match self.runtimes[node].register(ModelBinary::weights_only(name.clone(), bytes)) {
                Ok(()) => {
                    outcome.transfer_time += rehome_time;
                }
                Err(CoeError::Duplicate(_)) => {}
                Err(_) => continue,
            }
            let source = self.homes[e];
            self.homes[e] = node;
            self.replicas[e].retain(|&n| n != node);
            // The source no longer serves this expert (it is neither its
            // home nor a replica holder), so a copy left resident there
            // is dead weight. Releasing it is what opens HBM headroom for
            // the prefetcher: placement evicts cold state, prefetch
            // refills the freed capacity with predicted-hot experts.
            if !self.replicas[e].contains(&source) {
                if let Ok(copy_back) = self.runtimes[source].deactivate(&name) {
                    outcome.transfer_time += copy_back;
                }
            }
            outcome.moves += 1;
        }
        outcome
    }

    /// Running totals of the prefetch loop: `(hits, wasted_bytes)` —
    /// speculations claimed by demand activations vs transfers that
    /// expired (or were evicted) unused.
    pub fn prefetch_totals(&self) -> (u64, Bytes) {
        (self.prefetch_hits, self.prefetch_wasted)
    }
}

/// Result of one prefetch boundary ([`CoeCluster::prefetch_experts`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchOutcome {
    /// Speculative loads actually issued (non-resident candidates).
    pub issued: u64,
    /// Bytes moved DDR→HBM (plus any eviction copy-back) for them.
    pub bytes: Bytes,
    /// Transfer time at model-switch bandwidth; overlappable with the
    /// next wave's compute.
    pub transfer_time: TimeSecs,
    /// Stale speculations from the previous boundary that expired.
    pub expired: u64,
}

/// Result of applying a placement plan ([`CoeCluster::apply_placement`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// Hot-expert replicas created.
    pub replicated: u64,
    /// Cold experts re-homed.
    pub moves: u64,
    /// Weight-transfer time the actions cost (backgroundable).
    pub transfer_time: TimeSecs,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PromptGenerator;
    use sn_runtime::coe::CoeError;

    #[test]
    fn cluster_hosts_experts_beyond_one_node() {
        // 2000 experts (> 979 per node) across three nodes.
        let cluster = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(2000), 512);
        assert!(cluster.is_ok());
    }

    #[test]
    fn undersized_cluster_errors() {
        let err = CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(2000), 512);
        assert!(
            matches!(err, Err(CoeError::DdrFull(_))),
            "1000 experts/node exceeds DDR"
        );
    }

    #[test]
    fn batches_fan_out_and_run_concurrently() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 4, ExpertLibrary::new(400), 512).expect("fits");
        let mut generator = PromptGenerator::new(17, 512);
        let batch = generator.batch(16);
        let report = cluster.serve_batch(&batch, 10);
        let used_nodes = report.prompts_per_node.iter().filter(|&&n| n > 0).count();
        assert!(used_nodes >= 2, "16 prompts should spread over nodes");
        assert_eq!(report.prompts_per_node.iter().sum::<usize>(), 16);
        // Concurrency: wall latency is below the serial sum of node times.
        let serial: TimeSecs = report.per_node.iter().copied().sum();
        assert!(report.latency < serial);
    }

    #[test]
    fn more_nodes_cut_batch_latency() {
        let mut one =
            CoeCluster::new(NodeSpec::sn40l_node(), 1, ExpertLibrary::new(400), 512).expect("fits");
        let mut four =
            CoeCluster::new(NodeSpec::sn40l_node(), 4, ExpertLibrary::new(400), 512).expect("fits");
        let batch = PromptGenerator::new(23, 512).batch(16);
        let t1 = one.serve_batch(&batch, 10).latency;
        let t4 = four.serve_batch(&batch, 10).latency;
        let speedup = t1 / t4;
        assert!(speedup > 1.5, "4 nodes should beat 1: {speedup:.2}x");
    }

    #[test]
    fn try_serve_without_faults_matches_serve_batch_exactly() {
        let mut plain =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let mut aware =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let batch = PromptGenerator::new(31, 512).batch(12);
        let want = plain.serve_batch(&batch, 10);
        let got = aware.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(want, got, "no faults: bit-identical reports");
        assert_eq!(got.availability(), 1.0);
    }

    #[test]
    fn zero_rate_plan_keeps_cluster_reports_bit_identical() {
        use sn_faults::FaultPlan;
        use std::sync::Arc;
        let mut plain =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let mut aware = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512)
            .unwrap()
            .with_faults(Arc::new(FaultPlan::new(77)), RetryPolicy::standard());
        let batch = PromptGenerator::new(31, 512).batch(12);
        let want = plain.serve_batch(&batch, 10);
        let got = aware.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(want, got, "zero-rate plan: bit-identical reports");
    }

    #[test]
    fn failed_node_fails_over_and_every_prompt_completes() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let batch = PromptGenerator::new(31, 512).batch(24);
        let healthy = cluster.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(healthy.prompts_per_node.iter().sum::<usize>(), 24);

        cluster.fail_node(1);
        let degraded = cluster.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(degraded.failed_nodes, vec![1]);
        assert_eq!(degraded.prompts_per_node[1], 0, "dead node serves nothing");
        assert_eq!(
            degraded.prompts_per_node.iter().sum::<usize>(),
            24,
            "all prompts complete on survivors"
        );
        assert_eq!(degraded.dropped_prompts, 0);
        assert!(degraded.rehomed_experts > 0, "node 1's experts re-home");
        assert!(
            degraded.failover_penalty.as_secs() > 0.0,
            "re-homing costs transfer time"
        );
        assert!(
            degraded.latency > healthy.latency,
            "failover costs latency: {} vs {}",
            degraded.latency,
            healthy.latency
        );

        // The next batch reuses the adopted experts: no second re-homing
        // of the same experts, and availability stays perfect.
        let settled = cluster.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(settled.rehomed_experts, 0, "already re-homed");
        assert_eq!(settled.dropped_prompts, 0);
        assert!(settled.latency < degraded.latency);
    }

    #[test]
    fn all_nodes_down_is_an_error() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(1);
        let batch = PromptGenerator::new(31, 512).batch(4);
        assert!(matches!(
            cluster.try_serve_batch(&batch, 10),
            Err(CoeError::NoHealthyNodes)
        ));
        cluster.restore_node(0);
        assert!(cluster.try_serve_batch(&batch, 10).is_ok());
    }

    #[test]
    fn plan_drawn_node_failures_crash_nodes() {
        use sn_faults::{FaultPlan, FaultSite, FaultSpec};
        use std::sync::Arc;
        let plan =
            Arc::new(FaultPlan::new(3).with_site(FaultSite::NodeFailure, FaultSpec::failing(0.5)));
        let mut cluster = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512)
            .unwrap()
            .with_faults(plan, RetryPolicy::standard());
        let batch = PromptGenerator::new(31, 512).batch(12);
        // At 50% per node per batch, a few batches kill at least one node
        // deterministically under this seed.
        let mut saw_failure = false;
        for _ in 0..4 {
            match cluster.try_serve_batch(&batch, 10) {
                Ok(report) => {
                    if !report.failed_nodes.is_empty() {
                        saw_failure = true;
                        assert_eq!(
                            report.prompts_per_node.iter().sum::<usize>() + report.dropped_prompts,
                            12
                        );
                    }
                }
                Err(CoeError::NoHealthyNodes) => {
                    saw_failure = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            saw_failure,
            "seed 3 at 50% should down a node within 4 batches"
        );
    }

    #[test]
    fn imbalance_ignores_idle_and_failed_nodes() {
        let report = ClusterReport {
            latency: TimeSecs::from_millis(30.0),
            per_node: vec![
                TimeSecs::from_millis(30.0),
                TimeSecs::from_millis(20.0),
                TimeSecs::ZERO, // idle: no prompts routed
                TimeSecs::ZERO, // failed
            ],
            prompts_per_node: vec![3, 2, 0, 0],
            expert_misses: 0,
            failed_nodes: vec![3],
            rehomed_experts: 0,
            failover_penalty: TimeSecs::ZERO,
            recovery: TimeSecs::ZERO,
            dropped_prompts: 0,
            metrics: None,
            slo: None,
        };
        // Mean over the two working nodes only: 25 ms -> 30/25 = 1.2.
        assert!((report.imbalance() - 1.2).abs() < 1e-12);
        // Nothing served at all: defined as balanced.
        let empty = ClusterReport {
            latency: TimeSecs::ZERO,
            per_node: vec![TimeSecs::ZERO; 2],
            prompts_per_node: vec![0, 0],
            expert_misses: 0,
            failed_nodes: vec![0, 1],
            rehomed_experts: 0,
            failover_penalty: TimeSecs::ZERO,
            recovery: TimeSecs::ZERO,
            dropped_prompts: 4,
            metrics: None,
            slo: None,
        };
        assert_eq!(empty.imbalance(), 1.0);
        assert_eq!(empty.availability(), 0.0);
    }

    #[test]
    fn traced_cluster_matches_untraced_and_spans_run_concurrently() {
        let mut plain =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let mut traced = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512)
            .unwrap()
            .with_tracer(Tracer::enabled());
        let batch = PromptGenerator::new(31, 512).batch(12);
        let want = plain.serve_batch(&batch, 10);
        let got = traced.serve_batch(&batch, 10);
        assert_eq!(want.latency, got.latency, "tracing must not perturb timing");
        assert_eq!(want.per_node, got.per_node);
        assert!(want.metrics.is_none());
        let metrics = got.metrics.as_ref().expect("tracer attached");
        assert_eq!(metrics.counter(Counter::PromptsServed), 12);
        assert_eq!(metrics.counter(Counter::RouterDecisions), 12);
        // One span per busy node on the cluster track, all starting at the
        // same instant (nodes run concurrently), tid = node index.
        let busy = want.prompts_per_node.iter().filter(|&&n| n > 0).count();
        let node_spans: Vec<_> = traced
            .tracer
            .events()
            .into_iter()
            .filter(|e| e.track == Track::Cluster)
            .collect();
        assert_eq!(node_spans.len(), busy);
        assert!(node_spans.iter().all(|e| e.ts_us == node_spans[0].ts_us));
    }

    #[test]
    fn traced_failover_counts_rehomed_experts() {
        let mut cluster = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512)
            .unwrap()
            .with_tracer(Tracer::enabled());
        let batch = PromptGenerator::new(31, 512).batch(24);
        cluster.fail_node(1);
        let degraded = cluster.try_serve_batch(&batch, 10).unwrap();
        let metrics = degraded.metrics.as_ref().expect("tracer attached");
        assert_eq!(
            metrics.counter(Counter::ExpertsRehomed),
            degraded.rehomed_experts as u64
        );
        assert_eq!(metrics.counter(Counter::PromptsDropped), 0);
    }

    #[test]
    fn cluster_slo_snapshot_rides_along_without_perturbing_timing() {
        let mut plain =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let mut tracked = CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512)
            .unwrap()
            .with_slo(SloConfig::default());
        let mut gen_a = PromptGenerator::new(31, 512);
        let mut gen_b = PromptGenerator::new(31, 512);
        let mut last = None;
        for _ in 0..3 {
            let want = plain.serve_batch(&gen_a.batch(12), 10);
            let got = tracked.serve_batch(&gen_b.batch(12), 10);
            assert_eq!(
                want.latency, got.latency,
                "SLO tracking is pure bookkeeping"
            );
            assert!(want.slo.is_none());
            last = got.slo;
        }
        let slo = last.expect("tracker attached");
        assert_eq!(slo.window_batches, 3);
        assert!(slo.batch_latency_p50 <= slo.batch_latency_p99);
        assert!(
            slo.ttft_p99 <= slo.batch_latency_p50,
            "first token lands early"
        );
        assert!(slo.tokens_per_sec > 0.0);
        assert!(slo.hbm_utilization > 0.0 && slo.hbm_utilization <= 1.0);

        // Degraded serving keeps feeding the same window.
        tracked.fail_node(1);
        let degraded = tracked.try_serve_batch(&gen_b.batch(12), 10).unwrap();
        let slo = degraded.slo.expect("tracker still attached");
        assert_eq!(slo.total_batches, 4);
    }

    #[test]
    fn serve_wave_places_every_slot_and_orders_offsets() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let batch = PromptGenerator::new(7, 512).batch(12);
        let slots: Vec<WaveSlot> = batch
            .iter()
            .map(|p| WaveSlot {
                prompt: p.clone(),
                prefill: true,
            })
            .collect();
        let outcome = cluster.serve_wave(&slots, 8).unwrap();
        assert_eq!(outcome.placements.len(), 12);
        assert_eq!(outcome.prompts_per_node.iter().sum::<usize>(), 12);
        for placement in &outcome.placements {
            let WavePlacement::Served {
                node,
                first_token,
                done,
            } = *placement
            else {
                panic!("healthy cluster drops nothing");
            };
            assert!(first_token > TimeSecs::ZERO);
            assert!(first_token < done);
            assert!(done <= outcome.per_node[node]);
        }
        assert_eq!(
            outcome.latency,
            outcome
                .per_node
                .iter()
                .copied()
                .fold(TimeSecs::ZERO, TimeSecs::max)
        );
        // The last slot on the busiest node finishes exactly at its
        // node's busy time.
        assert!(outcome
            .placements
            .iter()
            .any(|p| matches!(p, WavePlacement::Served { done, .. } if *done == outcome.latency)));
    }

    #[test]
    fn continuing_chunks_skip_the_prefill_charge() {
        let mut a =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let mut b =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let prompt = PromptGenerator::new(5, 512).batch(1).remove(0);
        let first = a
            .serve_wave(
                &[WaveSlot {
                    prompt: prompt.clone(),
                    prefill: true,
                }],
                8,
            )
            .unwrap();
        // Same expert already activated: isolate the prefill difference.
        let warm_prefill = a
            .serve_wave(
                &[WaveSlot {
                    prompt: prompt.clone(),
                    prefill: true,
                }],
                8,
            )
            .unwrap();
        let _ = b.serve_wave(
            &[WaveSlot {
                prompt: prompt.clone(),
                prefill: true,
            }],
            8,
        );
        let continuing = b
            .serve_wave(
                &[WaveSlot {
                    prompt,
                    prefill: false,
                }],
                8,
            )
            .unwrap();
        assert!(first.expert_misses > 0, "cold first wave");
        assert!(
            continuing.latency < warm_prefill.latency,
            "a decode-only chunk must be cheaper than prefill + decode"
        );
    }

    #[test]
    fn added_node_starts_empty_and_rebalance_fills_it() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let new = cluster.add_node();
        assert_eq!(new, 3);
        assert_eq!(cluster.nodes(), 4);
        assert_eq!(cluster.healthy_nodes(), 4);
        assert_eq!(cluster.expert_homes(), vec![100, 100, 100, 0]);
        let report = cluster.rebalance_experts();
        assert!(report.moved_experts >= 70, "gap of 100 must mostly close");
        assert_eq!(report.stranded_experts, 0);
        assert!(report.transfer_time.as_secs() > 0.0, "moves cost DDR time");
        let homes = cluster.expert_homes();
        let (min, max) = (homes.iter().min().unwrap(), homes.iter().max().unwrap());
        assert!(max - min <= 1, "balanced within one expert: {homes:?}");
        // A second pass finds nothing left to move.
        let settled = cluster.rebalance_experts();
        assert_eq!(settled.moved_experts, 0);
    }

    #[test]
    fn drained_node_hands_off_experts_before_leaving() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(300), 512).unwrap();
        let report = cluster.drain_node(1).unwrap();
        assert_eq!(report.moved_experts, 100);
        assert_eq!(report.stranded_experts, 0);
        assert!(report.transfer_time.as_secs() > 0.0);
        assert_eq!(cluster.expert_homes()[1], 0);
        assert_eq!(cluster.failed_nodes(), vec![1]);
        // Serving after a drain is clean: planned handoff means no
        // reactive re-homing and nothing dropped.
        let batch = PromptGenerator::new(31, 512).batch(24);
        let degraded = cluster.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(degraded.rehomed_experts, 0, "handoff already happened");
        assert_eq!(degraded.dropped_prompts, 0);
        assert_eq!(degraded.prompts_per_node[1], 0);
    }

    #[test]
    fn last_healthy_node_cannot_be_drained() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        cluster.fail_node(0);
        assert!(matches!(
            cluster.drain_node(1),
            Err(CoeError::NoHealthyNodes)
        ));
        cluster.restore_node(0);
        assert!(cluster.drain_node(1).is_ok());
    }

    #[test]
    fn experts_are_owned_round_robin() {
        let cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 3, ExpertLibrary::new(30), 512).expect("fits");
        assert_eq!(cluster.owner(0), 0);
        assert_eq!(cluster.owner(1), 1);
        assert_eq!(cluster.owner(5), 2);
        assert_eq!(cluster.nodes(), 3);
    }

    #[test]
    fn prefetch_issues_for_cold_experts_and_respects_the_cap() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let loads = vec![0usize; 2];
        // Nothing is resident yet: every candidate is cold, but only
        // `max_issues` transfers may be staged.
        let out = cluster.prefetch_experts(&[0, 2, 4, 6, 8], &loads, 3);
        assert_eq!(out.issued, 3);
        assert_eq!(out.expired, 0);
        assert!(out.bytes > Bytes::ZERO);
        assert!(out.transfer_time.as_secs() > 0.0);
        // Re-proposing the staged set is free: they are resident now, so
        // the walk skips them and issues the remaining cold candidates.
        let again = cluster.prefetch_experts(&[0, 2, 4, 6, 8], &loads, 8);
        assert_eq!(again.issued, 2, "only 6 and 8 were still cold");
        assert_eq!(again.expired, 0, "pending speculation re-proposed");
    }

    #[test]
    fn unused_prefetches_expire_as_wasted_bytes() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let loads = vec![0usize; 2];
        cluster.prefetch_experts(&[0, 2], &loads, 8);
        let expired = cluster.expire_prefetches();
        assert_eq!(expired, 2);
        let (hits, wasted) = cluster.prefetch_totals();
        assert_eq!(hits, 0);
        assert_eq!(wasted, cluster.expert_bytes() * 2);
    }

    #[test]
    fn demand_activation_claims_a_prefetch_as_a_hit() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let batch = PromptGenerator::new(31, 512).batch(4);
        let experts: Vec<usize> = batch.iter().map(|p| cluster.routed_expert(p)).collect();
        let loads = vec![0usize; 2];
        cluster.prefetch_experts(&experts, &loads, 8);
        let report = cluster.serve_batch(&batch, 10);
        assert_eq!(report.expert_misses, 0, "every routed expert was staged");
        let (hits, wasted) = cluster.prefetch_totals();
        assert!(hits > 0);
        assert_eq!(wasted, Bytes::ZERO);
    }

    #[test]
    fn applied_replicas_split_load_and_survive_home_failure() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        // Expert 0 is homed on node 0; replicate it onto node 1.
        let plan = crate::placement::PlacementPlan {
            replicate: vec![(0, 1)],
            moves: Vec::new(),
        };
        let out = cluster.apply_placement(&plan);
        assert_eq!(out.replicated, 1);
        assert!(out.transfer_time.as_secs() > 0.0);
        assert_eq!(cluster.replica_nodes(0), &[1]);
        // Re-applying is a no-op (already a replica).
        let again = cluster.apply_placement(&plan);
        assert_eq!(again.replicated, 0);
        // With the home dead, serving falls over to the replica without
        // a reactive re-home.
        cluster.fail_node(0);
        let batch = PromptGenerator::new(31, 512).batch(8);
        let report = cluster.try_serve_batch(&batch, 10).unwrap();
        assert_eq!(report.dropped_prompts, 0);
        assert_eq!(report.prompts_per_node[0], 0, "dead node serves nothing");
    }

    #[test]
    fn cold_moves_rehome_and_drop_redundant_replicas() {
        let mut cluster =
            CoeCluster::new(NodeSpec::sn40l_node(), 2, ExpertLibrary::new(100), 512).unwrap();
        let plan = crate::placement::PlacementPlan {
            replicate: vec![(0, 1)],
            moves: Vec::new(),
        };
        cluster.apply_placement(&plan);
        // Moving expert 0 to node 1 promotes the replica to home — the
        // transfer is free (weights already there) and the replica entry
        // collapses into the new home.
        let move_plan = crate::placement::PlacementPlan {
            replicate: Vec::new(),
            moves: vec![(0, 1)],
        };
        let out = cluster.apply_placement(&move_plan);
        assert_eq!(out.moves, 1);
        assert!(out.transfer_time.is_zero(), "weights were already there");
        assert_eq!(cluster.owner(0), 1);
        assert!(cluster.replica_nodes(0).is_empty());
    }
}
