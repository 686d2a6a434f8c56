//! Deterministic parallel sweep engine: fan independent simulation
//! points out across worker threads while keeping the output vector
//! bit-identical to the sequential loop.
//!
//! Every sweep in this crate — the Figure 10 benchmarks, the `--faults`
//! degradation curves, the bench-snapshot metric runs, and the
//! property-harness case batches in `tests/common` — evaluates a
//! pure function per point: each point builds its own node, draws from
//! its own seeded RNG stream, and shares no mutable state with its
//! neighbours. That makes the fan-out contract simple and strong:
//!
//! > **same inputs → same ordered output vector as the sequential
//! > loop, bit-for-bit, for every `jobs` value.**
//!
//! [`ordered_map`] delivers that with a work-stealing-free ordered-merge
//! scheduler: workers claim the next unclaimed *input index* from a
//! shared counter (no per-worker deques, no stealing, so the set of
//! points a run evaluates never depends on timing), evaluate the point,
//! and keep the `(index, result)` pair. Each worker hands its pairs back
//! through its join handle, and the merge sorts them by index, so the
//! output order is the input order no matter which worker finished
//! first. Scheduling order can vary run to run; the output cannot,
//! because each result is a pure function of its input alone.
//!
//! `jobs <= 1` (or a single-item input) short-circuits to the plain
//! sequential `for` loop — the legacy path `repro --jobs 1` forces —
//! so the differential tests in `crates/bench/tests/par_diff.rs` can
//! compare the two paths exactly.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads to use by default: the host's available parallelism,
/// falling back to 1 when the runtime cannot tell.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` with up to `jobs` worker threads, returning
/// results in input order — bit-identical to
/// `items.iter().enumerate().map(..).collect()` whenever `f` is a pure
/// function of `(index, item)`.
///
/// `jobs` is clamped to `[1, items.len()]`; `jobs <= 1` runs the
/// sequential loop on the calling thread with no thread machinery at
/// all. A panic in any worker propagates to the caller (the join
/// re-raises its payload), so failing sweep points fail the run just
/// like the sequential loop would.
pub fn ordered_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        // The legacy sequential path: what every caller did before the
        // engine existed, and the reference the parallel path must match.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut pairs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break pairs;
                        }
                        pairs.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // The ordered merge: every index was claimed exactly once, so sorting
    // the pairs by index restores input order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_bit_for_bit() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, &x: &u64| -> (usize, u64, f64) {
            // A float expression sensitive to evaluation order would
            // expose any cross-point mixing.
            (i, x.wrapping_mul(0x9e37_79b9), (x as f64).sqrt() * 3.5)
        };
        let seq = ordered_map(1, &items, f);
        for jobs in [2, 3, 4, 8, 64] {
            assert_eq!(seq, ordered_map(jobs, &items, f), "jobs={jobs}");
        }
    }

    #[test]
    fn output_order_is_input_order_under_skewed_costs() {
        // Early items cost the most: a completion-ordered merge would
        // reverse the vector.
        let items: Vec<usize> = (0..16).collect();
        let out = ordered_map(4, &items, |i, &x| {
            let spins = (16 - i) * 10_000;
            let mut acc = x as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc & 1) // acc keeps the spin loop from being optimized out
        });
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, items);
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(ordered_map(0, &[7u32], |_, &x| x + 1), vec![8]);
        assert_eq!(ordered_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn available_jobs_is_at_least_one() {
        assert!(available_jobs() >= 1);
    }
}
