//! Differential suite for the serving-policy fast paths: the run-based KV
//! victim order ([`PagedKvCache`]) and the dense co-activation matrix
//! ([`ExpertStats`]) must agree, after every operation of hundreds of
//! generated sequences, with the naive structures they replaced, kept
//! here as reference models: a linear victim scan over a page map, and
//! a co-activation pair map walked in full for every prediction.

mod common;

use common::{check_cases, shrink_list, CaseRng};
use samba_coe::coe::placement::{ExpertStats, PrefetchPolicy};
use samba_coe::coe::{KvStats, KvTouch, PagedKvCache, PagedKvConfig};
use sn_arch::Bytes;
use std::collections::BTreeMap;

const CASES: usize = 500;
const JOBS: usize = 2;

/// Reference KV cache: every resident page in one ordered map, and the
/// victim found by a linear scan for the minimum of `(!finished,
/// last_touch, (seq, page))` on every eviction.
struct RefKv {
    capacity: u64,
    page_tokens: usize,
    /// `(seq, page)` → `(last_touch, finished)`.
    pages: BTreeMap<(u64, u32), (u64, bool)>,
    /// Per-sequence high-water mark (pages ever allocated).
    high_water: BTreeMap<u64, u32>,
    clock: u64,
    stats: KvStats,
    corners: Corners,
}

/// Victim-order situations a run-based cache must handle beyond a plain
/// merge, as the reference model sees them. A run is a set of one
/// sequence's pages sharing one last touch.
#[derive(Debug, Clone, Copy, Default)]
struct Corners {
    /// One touch evicted pages of at least two runs.
    multi_run_burst: bool,
    /// A touch evicted a page of its own sequence that it visits later.
    own_later_run_evicted: bool,
    /// A touch left an older run of its sequence above the new one.
    older_run_above: bool,
    /// One sequence held live and finished pages at once.
    live_and_finished: bool,
}

impl RefKv {
    fn new(capacity: u64, page_tokens: usize) -> Self {
        RefKv {
            capacity,
            page_tokens,
            pages: BTreeMap::new(),
            high_water: BTreeMap::new(),
            clock: 0,
            stats: KvStats::default(),
            corners: Corners::default(),
        }
    }

    fn stats(&self) -> KvStats {
        KvStats {
            pages_resident: self.pages.len() as u64,
            ..self.stats
        }
    }

    /// Evicts the minimum page and returns its key and last touch.
    fn evict_one(&mut self) -> Option<((u64, u32), u64)> {
        let (&key, &(last_touch, _)) = self
            .pages
            .iter()
            .min_by_key(|(&key, &(last_touch, finished))| (!finished, last_touch, key))?;
        self.pages.remove(&key);
        self.stats.pages_evicted += 1;
        Some((key, last_touch))
    }

    fn touch(&mut self, seq: u64, tokens: usize) -> KvTouch {
        self.clock += 1;
        let needed = tokens.max(1).div_ceil(self.page_tokens) as u32;
        let high_water = self.high_water.entry(seq).or_default();
        let old_high_water = *high_water;
        *high_water = old_high_water.max(needed);
        let mut touch = KvTouch::default();
        let mut burst = Vec::new();
        for page in 0..needed {
            if let Some(meta) = self.pages.get_mut(&(seq, page)) {
                *meta = (self.clock, false);
                continue;
            }
            if page < old_high_water {
                touch.refaulted += 1;
                self.stats.refaults += 1;
            } else {
                touch.allocated += 1;
            }
            while self.pages.len() as u64 >= self.capacity {
                let Some(((victim, victim_page), last_touch)) = self.evict_one() else {
                    break;
                };
                touch.evicted += 1;
                self.corners.own_later_run_evicted |=
                    victim == seq && (page + 1..needed).contains(&victim_page);
                if !burst.contains(&(victim, last_touch)) {
                    burst.push((victim, last_touch));
                }
            }
            self.pages.insert((seq, page), (self.clock, false));
            self.stats.pages_in += 1;
        }
        let own = self.pages.range((seq, 0)..=(seq, u32::MAX));
        let (mut live, mut finished) = (false, false);
        for (&(_, page), &(last_touch, done)) in own {
            self.corners.older_run_above |= page >= needed && last_touch < self.clock;
            live |= !done;
            finished |= done;
        }
        self.corners.multi_run_burst |= burst.len() >= 2;
        self.corners.live_and_finished |= live && finished;
        touch
    }

    fn finish(&mut self, seq: u64) {
        for (_, meta) in self.pages.range_mut((seq, 0)..=(seq, u32::MAX)) {
            meta.1 = true;
        }
    }
}

/// Reference router statistics: co-activation counts in a pair map
/// keyed `(low, high)`, and each prediction walks every pair.
struct RefStats {
    alpha: f64,
    hits: Vec<u64>,
    rate: Vec<f64>,
    co: BTreeMap<(usize, usize), u64>,
}

impl RefStats {
    fn new(n_experts: usize, alpha: f64) -> Self {
        RefStats {
            alpha,
            hits: vec![0; n_experts],
            rate: vec![0.0; n_experts],
            co: BTreeMap::new(),
        }
    }

    fn observe_wave(&mut self, active: &[usize]) {
        let mut unique: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&e| e < self.hits.len())
            .collect();
        unique.sort_unstable();
        unique.dedup();
        for e in 0..self.hits.len() {
            let present = unique.binary_search(&e).is_ok();
            if present {
                self.hits[e] += 1;
            }
            let x = if present { 1.0 } else { 0.0 };
            self.rate[e] = self.alpha * x + (1.0 - self.alpha) * self.rate[e];
        }
        for (i, &a) in unique.iter().enumerate() {
            for &b in &unique[i + 1..] {
                *self.co.entry((a, b)).or_insert(0) += 1;
            }
        }
    }

    fn co_activations(&self, a: usize, b: usize) -> u64 {
        self.co.get(&(a.min(b), a.max(b))).copied().unwrap_or(0)
    }

    fn predicted_probability(&self, expert: usize) -> f64 {
        let mut p = self.rate[expert];
        for (&(a, b), &count) in &self.co {
            let partner = if a == expert {
                b
            } else if b == expert {
                a
            } else {
                continue;
            };
            if self.hits[partner] > 0 {
                let conditional = count as f64 / self.hits[partner] as f64;
                p = p.max(conditional * self.rate[partner]);
            }
        }
        p.min(1.0)
    }

    fn candidates(&self, policy: &PrefetchPolicy) -> Vec<usize> {
        let mut picks: Vec<(usize, f64)> = (0..self.hits.len())
            .map(|e| (e, self.predicted_probability(e)))
            .filter(|&(_, p)| p >= policy.threshold)
            .collect();
        picks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        picks.into_iter().map(|(e, _)| e).collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Touch { seq: u64, tokens: usize },
    Finish { seq: u64 },
    Wave(Vec<usize>),
}

#[derive(Debug, Clone)]
struct PolicyCase {
    capacity: u64,
    page_tokens: usize,
    n_experts: usize,
    alpha: f64,
    threshold: f64,
    ops: Vec<Op>,
}

fn generate(rng: &mut CaseRng) -> PolicyCase {
    if rng.usize_in(0, 4) == 0 {
        return generate_serving(rng);
    }
    // One case in five runs a single-page cache, where every new page
    // evicts and a multi-page context always evicts its own head.
    let capacity = if rng.usize_in(0, 5) == 0 {
        1
    } else {
        rng.usize_in(2, 17) as u64
    };
    let page_tokens = rng.usize_in(1, 6);
    let n_experts = rng.usize_in(0, 17);
    let alpha = match rng.usize_in(0, 4) {
        0 => 1.0,
        1 => 1e-3,
        _ => 1.0 - rng.f64(),
    };
    let threshold = [0.0, 0.35, rng.f64()][rng.usize_in(0, 3)];
    let seqs = rng.usize_in(1, 7) as u64;
    // Contexts run up to twice the whole budget: self-eviction mid-touch.
    let max_tokens = capacity as usize * page_tokens * 2 + 2;
    let mut ops = Vec::new();
    for _ in 0..rng.usize_in(1, 81) {
        match rng.usize_in(0, 10) {
            0..=4 => ops.push(Op::Touch {
                seq: rng.usize_in(0, seqs as usize) as u64,
                tokens: rng.usize_in(0, max_tokens),
            }),
            5 | 6 => {
                let seq = rng.usize_in(0, seqs as usize) as u64;
                ops.push(Op::Finish { seq });
                // Half the finishes come straight back: a restart.
                if rng.usize_in(0, 2) == 0 {
                    ops.push(Op::Touch {
                        seq,
                        tokens: rng.usize_in(0, max_tokens),
                    });
                }
            }
            _ => {
                // Experts past the end are routed but untracked; a small
                // draw range makes duplicates common.
                let hi = n_experts + 3;
                let mut wave: Vec<usize> = (0..rng.usize_in(0, 7))
                    .map(|_| rng.usize_in(0, hi))
                    .collect();
                if !wave.is_empty() && rng.usize_in(0, 4) == 0 {
                    wave.push(wave[0]);
                }
                ops.push(Op::Wave(wave));
            }
        }
    }
    PolicyCase {
        capacity,
        page_tokens,
        n_experts,
        alpha,
        threshold,
        ops,
    }
}

/// Serving-shaped traffic: more sequences than the budget holds, each
/// growing its context chunk by chunk to 20–64 pages and finishing when
/// it completes, a few at a time, against a budget of 8–256 pages. Runs
/// of many pages thrash through the cache here, where the other branch
/// mostly evicts a page or two at a time.
fn generate_serving(rng: &mut CaseRng) -> PolicyCase {
    let capacity = rng.usize_in(8, 257) as u64;
    let page_tokens = rng.usize_in(1, 6);
    let n_experts = rng.usize_in(0, 9);
    let alpha = 1.0 - rng.f64();
    let threshold = [0.0, 0.35, rng.f64()][rng.usize_in(0, 3)];
    // Final contexts of at least 20 pages each overflow the budget.
    let seqs = capacity as usize / 20 + rng.usize_in(2, 5);
    // `(seq, context, final context)` in tokens, next arrival last.
    let mut pending: Vec<(u64, usize, usize)> = (0..seqs as u64)
        .rev()
        .map(|seq| (seq, 0, rng.usize_in(20, 65) * page_tokens))
        .collect();
    let concurrency = rng.usize_in(2, 9);
    let mut active = pending.split_off(seqs.saturating_sub(concurrency));
    let mut ops = Vec::new();
    while !active.is_empty() {
        let i = rng.usize_in(0, active.len());
        let (seq, context, target) = &mut active[i];
        // A chunk is a token up to eight pages.
        *context = (*context + rng.usize_in(1, 8 * page_tokens + 1)).min(*target);
        ops.push(Op::Touch {
            seq: *seq,
            tokens: *context,
        });
        if context == target {
            ops.push(Op::Finish { seq: *seq });
            active.swap_remove(i);
            active.extend(pending.pop());
        }
        if rng.usize_in(0, 4) == 0 {
            let wave = (0..rng.usize_in(0, 4))
                .map(|_| rng.usize_in(0, n_experts + 1))
                .collect();
            ops.push(Op::Wave(wave));
        }
    }
    PolicyCase {
        capacity,
        page_tokens,
        n_experts,
        alpha,
        threshold,
        ops,
    }
}

fn shrink(case: &PolicyCase) -> Vec<PolicyCase> {
    shrink_list(&case.ops)
        .into_iter()
        .map(|ops| PolicyCase {
            ops,
            ..case.clone()
        })
        .collect()
}

/// Asserts every observable of the fast statistics equals the
/// reference: co-activation counts (including out-of-range and diagonal
/// queries), prediction bits, and the prefetch candidate order.
fn compare_stats(
    step: usize,
    fast: &ExpertStats,
    reference: &RefStats,
    policies: &[PrefetchPolicy],
) -> Result<(), String> {
    let n = reference.hits.len();
    for a in 0..n + 2 {
        for b in 0..n + 2 {
            let (got, want) = (fast.co_activations(a, b), reference.co_activations(a, b));
            if got != want {
                return Err(format!(
                    "op {step}: co_activations({a}, {b}) {got} != {want}"
                ));
            }
        }
    }
    for e in 0..n {
        let (got, want) = (
            fast.predicted_probability(e),
            reference.predicted_probability(e),
        );
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "op {step}: predicted_probability({e}) {got} != {want}"
            ));
        }
        if fast.hit_count(e) != reference.hits[e] || fast.rate(e) != reference.rate[e] {
            return Err(format!("op {step}: hits/rate of expert {e} diverged"));
        }
    }
    for policy in policies {
        let (got, want) = (policy.candidates(fast), reference.candidates(policy));
        if got != want {
            return Err(format!(
                "op {step}: candidates at threshold {}: {got:?} != {want:?}",
                policy.threshold
            ));
        }
    }
    Ok(())
}

fn run_case(case: &PolicyCase) -> Result<(), String> {
    let mut kv = PagedKvCache::new(PagedKvConfig {
        page_tokens: case.page_tokens,
        page_bytes: Bytes::from_mib(1),
        budget: Bytes::from_mib(case.capacity),
    });
    let mut ref_kv = RefKv::new(case.capacity, case.page_tokens);
    let mut stats = ExpertStats::new(case.n_experts, case.alpha);
    let mut ref_stats = RefStats::new(case.n_experts, case.alpha);
    let policies = [
        PrefetchPolicy {
            threshold: case.threshold,
            max_per_wave: 4,
        },
        PrefetchPolicy::default(),
    ];
    for (step, op) in case.ops.iter().enumerate() {
        match op {
            Op::Touch { seq, tokens } => {
                let (got, want) = (kv.touch(*seq, *tokens), ref_kv.touch(*seq, *tokens));
                if got != want {
                    return Err(format!("op {step}: touch {got:?} != {want:?}"));
                }
            }
            Op::Finish { seq } => {
                kv.finish(*seq);
                ref_kv.finish(*seq);
            }
            Op::Wave(active) => {
                stats.observe_wave(active);
                ref_stats.observe_wave(active);
            }
        }
        let (got, want) = (kv.stats(), ref_kv.stats());
        if got != want {
            return Err(format!("op {step}: kv stats {got:?} != {want:?}"));
        }
        if kv.resident_bytes() != Bytes::from_mib(got.pages_resident) {
            return Err(format!("op {step}: resident bytes disagree with pages"));
        }
        compare_stats(step, &stats, &ref_stats, &policies)?;
    }
    Ok(())
}

#[test]
fn indexed_policy_structures_match_reference_models() {
    check_cases(
        "policy structures ≡ reference models",
        CASES,
        0x9011_c7e5,
        JOBS,
        generate,
        shrink,
        || (),
        |_, case| run_case(case),
    );
}

/// Whether a case looks like serving traffic: every sequence's context
/// only grows and ends at 20 pages or more, and the final contexts
/// together overflow a budget of at least 8 pages.
fn serving_shaped(case: &PolicyCase) -> bool {
    let mut contexts = BTreeMap::new();
    for op in &case.ops {
        if let Op::Touch { seq, tokens } = op {
            if contexts
                .insert(*seq, *tokens)
                .is_some_and(|last| last > *tokens)
            {
                return false;
            }
        }
    }
    let pages: Vec<usize> = contexts
        .values()
        .map(|tokens| tokens.div_ceil(case.page_tokens))
        .collect();
    case.capacity >= 8
        && pages.iter().all(|&p| p >= 20)
        && pages.iter().sum::<usize>() > case.capacity as usize
}

/// The generator reaches every corner the suite claims to cover; a
/// generator edit that drops one fails here instead of silently
/// narrowing the differential.
#[test]
fn generated_cases_cover_the_degenerate_corners() {
    let mut rng = CaseRng::new(0x9011_c7e5);
    let cases: Vec<PolicyCase> = (0..CASES).map(|_| generate(&mut rng)).collect();
    let any = |pred: &dyn Fn(&PolicyCase) -> bool| cases.iter().any(pred);
    assert!(any(&|c| c.capacity == 1), "capacity-1 cache");
    assert!(
        any(
            &|c| c.ops.iter().any(|op| matches!(op, Op::Touch { tokens, .. }
            if *tokens > c.capacity as usize * c.page_tokens))
        ),
        "context larger than the budget"
    );
    assert!(
        any(&|c| c.ops.windows(2).any(|w| matches!(w,
            [Op::Finish { seq: a }, Op::Touch { seq: b, .. }] if a == b))),
        "finish-then-touch restart"
    );
    assert!(
        any(&|c| c.ops.iter().any(|op| matches!(op, Op::Wave(w)
            if w.iter().any(|&e| e >= c.n_experts)))),
        "out-of-range expert"
    );
    assert!(
        any(&|c| c.ops.iter().any(|op| matches!(op, Op::Wave(w)
            if (1..w.len()).any(|i| w[..i].contains(&w[i]))))),
        "duplicate expert in one wave"
    );
    assert!(any(&serving_shaped), "serving-shaped case");
    // Situations the run-based victim order must get right, as the
    // reference model sees them when replaying the generated cases.
    let mut seen = Corners::default();
    for case in &cases {
        let mut kv = RefKv::new(case.capacity, case.page_tokens);
        for op in &case.ops {
            match op {
                Op::Touch { seq, tokens } => {
                    kv.touch(*seq, *tokens);
                }
                Op::Finish { seq } => kv.finish(*seq),
                Op::Wave(_) => {}
            }
        }
        let c = kv.corners;
        seen.multi_run_burst |= c.multi_run_burst;
        seen.own_later_run_evicted |= c.own_later_run_evicted;
        seen.older_run_above |= c.older_run_above;
        seen.live_and_finished |= c.live_and_finished;
    }
    assert!(seen.multi_run_burst, "one eviction burst takes two runs");
    assert!(
        seen.own_later_run_evicted,
        "a touch evicts its own later run before visiting it"
    );
    assert!(
        seen.older_run_above,
        "a shrinking touch leaves an older run above"
    );
    assert!(
        seen.live_and_finished,
        "live and finished runs in one sequence"
    );
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The placement sweep — the only exhibit whose scenarios page KV
/// state under pressure — pinned to the bytes the page-by-page victim
/// order produced. A change to the eviction order moves the KV counters
/// and the serve timings behind them, and with them this digest. Any
/// change to the serving model or to the sweep legitimately moves it
/// too; re-pin it after checking the change.
#[test]
fn placement_sweep_is_byte_identical_to_the_page_victim_order() {
    let text = format!("{:?}", sn_bench::placement::placement_sweep());
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (4700, 0x55e2_283c_4b2c_c565)
    );
}
