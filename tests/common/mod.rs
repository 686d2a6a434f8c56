//! Tiny in-repo property-testing harness: a seeded case generator plus a
//! fixed-iteration shrink loop. Deliberately dependency-free — the point
//! is seed-stable reproducibility, not distribution sophistication. A
//! failing case panics with the harness seed, the case index, and the
//! smallest still-failing case the shrinker found, so reproducing a
//! failure is one copy-paste.
//!
//! Cases run in fixed-size batches fanned across worker threads by the
//! ordered-merge engine (`sn_bench::par`). Batch boundaries depend only
//! on the case count — never on `jobs` or timing — and every batch gets
//! a fresh state from its factory, so the verdict (and the reported
//! minimal reproduction) is identical for every `jobs` value.

pub mod topology;

/// Deterministic splitmix64 case generator, seed-stable across runs and
/// platforms.
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    pub fn new(seed: u64) -> Self {
        CaseRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a, 64-bit, over formatted text as it is written, with the byte
/// count alongside: pins a large `Debug` rendering without keeping it.
// Only the digest-pinning suites use it.
#[allow(dead_code)]
pub struct Fnv {
    pub hash: u64,
    pub len: usize,
}

#[allow(dead_code)]
impl Fnv {
    pub fn new() -> Fnv {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    /// `(bytes written, hash)`.
    pub fn pin(&self) -> (usize, u64) {
        (self.len, self.hash)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.len += s.len();
        Ok(())
    }
}

/// How many rounds the shrink loop runs before settling on the smallest
/// reproduction found so far. Fixed so a pathological shrinker cannot
/// spin a CI job forever.
const SHRINK_ITERATIONS: usize = 64;

/// Cases per worker batch. A constant — not derived from `jobs` — so the
/// state each case sees (its batch's fresh state, warmed by the batch's
/// earlier cases) is the same no matter how many threads run the batches.
const CASES_PER_BATCH: usize = 25;

/// Runs `property` over `cases` generated cases, in
/// [`CASES_PER_BATCH`]-sized batches fanned across `jobs` worker
/// threads. Cases are generated up front from one sequential `CaseRng`
/// stream; each batch evaluates against a fresh state from
/// `make_state`. On the earliest failing case the harness shrinks —
/// `shrink` proposes simpler candidates, the first one that still fails
/// (against a fresh state) becomes the new reproduction, for at most
/// [`SHRINK_ITERATIONS`] rounds — and panics with the minimal case and
/// both failure messages.
#[allow(clippy::too_many_arguments)] // four scalar knobs + four closures; a config struct would obscure the call sites
pub fn check_cases<C, S>(
    name: &str,
    cases: usize,
    seed: u64,
    jobs: usize,
    mut generate: impl FnMut(&mut CaseRng) -> C,
    shrink: impl Fn(&C) -> Vec<C>,
    make_state: impl Fn() -> S + Sync,
    property: impl Fn(&mut S, &C) -> Result<(), String> + Sync,
) where
    C: std::fmt::Debug + Clone + Send + Sync,
{
    let mut rng = CaseRng::new(seed);
    let all: Vec<C> = (0..cases).map(|_| generate(&mut rng)).collect();
    let batches: Vec<(usize, &[C])> = all
        .chunks(CASES_PER_BATCH.max(1))
        .enumerate()
        .map(|(b, chunk)| (b * CASES_PER_BATCH.max(1), chunk))
        .collect();
    // One slot per batch, merged in batch order: the earliest failing
    // batch's first failure is the one reported, whatever finished first.
    let failures = sn_bench::par::ordered_map(jobs, &batches, |_, &(start, chunk)| {
        let mut state = make_state();
        for (offset, case) in chunk.iter().enumerate() {
            if let Err(msg) = property(&mut state, case) {
                return Some((start + offset, case.clone(), msg));
            }
        }
        None
    });
    let Some((case_index, case, original_failure)) = failures.into_iter().flatten().next() else {
        return;
    };
    // Shrink: walk toward the simplest case that still fails, against a
    // state warmed only by earlier shrink candidates (fresh, like a
    // batch head — reproducible by construction).
    let mut state = make_state();
    let mut smallest = case.clone();
    let mut failure = original_failure.clone();
    'shrinking: for _ in 0..SHRINK_ITERATIONS {
        for candidate in shrink(&smallest) {
            if let Err(msg) = property(&mut state, &candidate) {
                smallest = candidate;
                failure = msg;
                continue 'shrinking;
            }
        }
        break; // No simpler candidate fails: fixed point reached.
    }
    panic!(
        "property '{name}' failed (seed {seed:#x}, case {case_index} of {cases})\n\
         original case: {case:?}\n  -> {original_failure}\n\
         shrunk case:   {smallest:?}\n  -> {failure}"
    );
}
