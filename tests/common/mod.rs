//! Tiny in-repo property-testing harness: a seeded case generator plus a
//! shrink loop run to a fixed point under an evaluation budget.
//! Deliberately dependency-free — the point is seed-stable
//! reproducibility, not distribution sophistication. A failing case
//! panics with the harness seed, the case index, and the
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

/// Candidate evaluations the shrink loop may spend before settling on
/// the smallest reproduction found so far. A budget of evaluations, not
/// of rounds: a round that removes one element costs as much as one
/// that removes half the case, and a slow property must not spin a CI
/// job forever.
pub const SHRINK_BUDGET: usize = 4096;

/// Removal sizes for a list of `len` elements, biggest first: half
/// (rounded up), then a quarter, and so on down to one element.
fn cut_sizes(len: usize) -> impl Iterator<Item = usize> {
    std::iter::successors((len > 0).then_some(len.div_ceil(2)), |&size| {
        (size > 1).then_some(size.div_ceil(2))
    })
}

/// Shrink candidates for a list, biggest cuts first: the list without
/// each aligned half, then without each aligned quarter, and so on down
/// to the list without each single element. A case the shrink loop
/// leaves at a fixed point is therefore 1-minimal: removing any one
/// element makes it pass.
#[allow(dead_code)] // Not every suite shrinks a list.
pub fn shrink_list<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    for size in cut_sizes(items.len()) {
        for start in (0..items.len()).step_by(size) {
            let end = (start + size).min(items.len());
            out.push([&items[..start], &items[end..]].concat());
        }
    }
    out
}

/// Shrink candidates for a count of like items (requests, say): the
/// lengths [`shrink_list`] would leave, smallest first.
#[allow(dead_code)] // Not every suite shrinks a count.
pub fn shrink_count(n: usize) -> Vec<usize> {
    cut_sizes(n).map(|size| n - size).collect()
}

/// Walks `case`, which fails `property` with `failure`, toward the
/// simplest case that still fails: the first candidate from `shrink`
/// that fails (against one fresh state, warmed only by earlier
/// candidates) becomes the new case, until no candidate fails or
/// [`SHRINK_BUDGET`] evaluations are spent. Returns the smallest case,
/// its failure, and the evaluations spent.
pub fn shrink_failure<C, S>(
    case: C,
    failure: String,
    shrink: impl Fn(&C) -> Vec<C>,
    make_state: impl Fn() -> S,
    property: impl Fn(&mut S, &C) -> Result<(), String>,
) -> (C, String, usize) {
    let mut state = make_state();
    let (mut smallest, mut failure) = (case, failure);
    let mut evaluations = 0;
    'shrinking: loop {
        for candidate in shrink(&smallest) {
            if evaluations == SHRINK_BUDGET {
                break 'shrinking;
            }
            evaluations += 1;
            if let Err(msg) = property(&mut state, &candidate) {
                smallest = candidate;
                failure = msg;
                continue 'shrinking;
            }
        }
        break; // No simpler candidate fails: fixed point reached.
    }
    (smallest, failure, evaluations)
}

/// Cases per worker batch. A constant — not derived from `jobs` — so the
/// state each case sees (its batch's fresh state, warmed by the batch's
/// earlier cases) is the same no matter how many threads run the batches.
const CASES_PER_BATCH: usize = 25;

/// Runs `property` over `cases` generated cases, in
/// [`CASES_PER_BATCH`]-sized batches fanned across `jobs` worker
/// threads. Cases are generated up front from one sequential `CaseRng`
/// stream; each batch evaluates against a fresh state from
/// `make_state`. On the earliest failing case the harness shrinks it
/// ([`shrink_failure`]) and panics with the minimal case and both
/// failure messages.
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
    let (smallest, failure, _) = shrink_failure(
        case.clone(),
        original_failure.clone(),
        shrink,
        make_state,
        property,
    );
    panic!(
        "property '{name}' failed (seed {seed:#x}, case {case_index} of {cases})\n\
         original case: {case:?}\n  -> {original_failure}\n\
         shrunk case:   {smallest:?}\n  -> {failure}"
    );
}
