//! Work gate for a first-time build + compile: heap allocations per graph
//! node. Wall-clock varies with the host; the allocation count of a
//! deterministic build and compile repeats exactly from run to run, so a
//! change that brings per-node allocation churn back fails here on any
//! host.
//!
//! A counting global allocator delegates to [`System`] and counts only on
//! a thread that has armed it, so the test harness's threads (and any
//! test later added to this binary) never add to the count.

use samba_coe::models::table2;
use sn_arch::{Calibration, SocketSpec};
use sn_compiler::{Compiler, FusionPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per graph node allowed for `build_graph` plus an unfused
/// and a spatially fused compile of every default Table II benchmark.
const ALLOCATIONS_PER_NODE: f64 = 13.0;

thread_local! {
    /// `Some(n)`: armed, `n` allocations so far on this thread.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn tick() {
        // `try_with`: allocations during thread teardown are not counted.
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees are this allocator's; the
// counter touches no allocated memory and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's counter armed; returns its result and the
/// allocations it made (reallocations included).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("armed");
    (out, n)
}

#[test]
fn build_and_compile_stay_within_the_allocation_budget() {
    let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
    let suite = table2();
    let run = || {
        let mut nodes = 0;
        for bench in &suite {
            let graph = bench.build_graph();
            for policy in [FusionPolicy::Unfused, FusionPolicy::Spatial] {
                compiler.compile(&graph, policy).expect("Table II compiles");
            }
            nodes += graph.node_count();
        }
        nodes
    };
    let (nodes, allocations) = counted(run);
    let per_node = allocations as f64 / nodes as f64;
    eprintln!("{allocations} allocations over {nodes} nodes: {per_node:.2} per node");
    assert!(
        per_node <= ALLOCATIONS_PER_NODE,
        "{per_node:.2} allocations per node (budget {ALLOCATIONS_PER_NODE})"
    );
    // The count is a property of the code, not of the run.
    let (_, again) = counted(run);
    assert_eq!(again, allocations, "allocation count repeats exactly");
}
