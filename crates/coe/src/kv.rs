//! Paged KV-cache management under an HBM budget shared with expert
//! weights.
//!
//! The SN40L reserves part of each node's HBM for "the router, KV cache,
//! and activations" (§V-B) — the same reservation the CoE runtime's
//! activation budget carves out. This module manages the KV share of that
//! reservation as fixed-size **pages** (vLLM-style paged attention over
//! the paper's memory hierarchy): each live request owns
//! `ceil(context_tokens / page_tokens)` pages, and when the resident set
//! exceeds the budget, pages spill to node DDR under a **cost-aware LRU**
//! policy — pages of finished requests are free to drop (their context is
//! dead), so they evict first; pages of live requests evict
//! least-recently-touched and must be refilled DDR→HBM (a *refault*) if
//! the request decodes again.
//!
//! The cache is pure deterministic bookkeeping: the serving engine
//! ([`crate::tenancy`]) touches it per served chunk, charges refault
//! refill bytes through the cluster's DMA model, and exports evictions as
//! [`sn_trace::Counter::KvPagesEvicted`]. Conservation is an invariant:
//! every page that ever entered HBM is either still resident or was
//! evicted — `pages_in == pages_resident + pages_evicted` after any
//! operation sequence.
//!
//! Bookkeeping costs the work it does, not the context it covers: each
//! sequence holds its resident pages as runs (intervals stamped by one
//! touch), and one ordered map keeps the victim order over runs rather
//! than pages. A touch costs O(log n) per run it visits or evicts from,
//! whatever the number of pages those runs hold (see [`PagedKvCache`]).
//!
//! # Examples
//!
//! ```
//! use sn_coe::kv::{PagedKvCache, PagedKvConfig};
//! use sn_arch::Bytes;
//!
//! // A tiny cache: 4-token pages of 1 MiB, budget of 8 pages.
//! let mut kv = PagedKvCache::new(PagedKvConfig {
//!     page_tokens: 4,
//!     page_bytes: Bytes::from_mib(1),
//!     budget: Bytes::from_mib(8),
//! });
//! assert_eq!(kv.capacity_pages(), 8);
//!
//! // Request 0 prefills 10 tokens: 3 pages allocated.
//! let touch = kv.touch(0, 10);
//! assert_eq!(touch.allocated, 3);
//! let stats = kv.stats();
//! assert_eq!(stats.pages_in, 3);
//! assert_eq!(stats.pages_resident, 3);
//! assert_eq!(stats.pages_in, stats.pages_resident + stats.pages_evicted);
//! ```

use sn_arch::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Page geometry and the HBM budget the cache may occupy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagedKvConfig {
    /// Context tokens per page.
    pub page_tokens: usize,
    /// HBM bytes one page occupies.
    pub page_bytes: Bytes,
    /// Total HBM the cache may hold (the KV share of the node
    /// reservation; resident pages never exceed `budget / page_bytes`).
    pub budget: Bytes,
}

impl Default for PagedKvConfig {
    /// Llama2-7B-class geometry: ~512 KiB of KV per token (32 layers ×
    /// K+V × 4096 hidden × fp16), 16-token pages, and a 16 GiB slice of
    /// the node's 48 GiB reservation.
    fn default() -> Self {
        PagedKvConfig {
            page_tokens: 16,
            page_bytes: Bytes::from_mib(8),
            budget: Bytes::from_gib(16),
        }
    }
}

/// What one [`PagedKvCache::touch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvTouch {
    /// Brand-new pages allocated (context grew past a page boundary).
    pub allocated: u64,
    /// Previously evicted live pages brought back — each one costs a
    /// DDR→HBM refill the caller must charge.
    pub refaulted: u64,
    /// Pages evicted to make room during this touch.
    pub evicted: u64,
}

/// Cumulative cache statistics; the conservation identity
/// `pages_in == pages_resident + pages_evicted` holds after every
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Pages that ever entered HBM (allocations plus refaults).
    pub pages_in: u64,
    /// Pages currently resident.
    pub pages_resident: u64,
    /// Pages evicted to DDR (or dropped, for finished requests).
    pub pages_evicted: u64,
    /// Evicted live pages that were touched again and had to refill.
    pub refaults: u64,
}

/// An interval `[lo, hi)` of one sequence's resident pages that share
/// one last-touch clock. A touch stamps the prefix it covers with a
/// fresh clock, so each clock names exactly one run; eviction takes a
/// run's lowest page first, so a run stays an interval as it shrinks.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: u32,
    hi: u32,
    clock: u64,
    finished: bool,
}

impl Run {
    /// The run's place in the victim order: finished runs first, then
    /// the least recently touched.
    fn key(&self) -> (bool, u64) {
        (!self.finished, self.clock)
    }
}

#[derive(Debug, Clone, Default)]
struct SeqState {
    /// Resident runs, lowest pages first. A touch replaces the runs inside
    /// the prefix it covers with one new run at the front, so the clocks
    /// fall front to back and the back run is the sequence's cheapest
    /// victim: finished runs are all older than live ones, because a
    /// finish retires every run and a later touch adds a newer one.
    runs: VecDeque<Run>,
    /// Pages the sequence ever allocated: a non-resident page below it is
    /// a refault, not an allocation.
    high_water: u32,
}

/// A paged KV cache with cost-aware LRU eviction under an HBM budget.
///
/// The victim order is the total order `(finished first, last touch,
/// sequence, page)`. Each sequence holds its resident pages as
/// runs — intervals stamped by one touch — and one ordered map
/// keys every run by `(finished first, clock)`. Clocks are unique per
/// run, so that key order is the page order above, with pages inside a
/// run evicted lowest first; the first key names the sequence whose back
/// run goes next.
///
/// A touch walks the sequence's runs instead of its pages: a resident
/// run moves into the new run whole, and a missing stretch evicts whole
/// victim runs with arithmetic. Two cases make the walk more than a
/// merge. When nothing older is left, a context larger than the budget
/// evicts the head of its own new run. When the victim is a later run of
/// the touching sequence, its pages go before the walk reaches them and
/// refault when it does. A touch therefore costs O(runs visited + victim
/// runs consumed) map operations, whatever the context length; a finish
/// costs O(live runs).
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    config: PagedKvConfig,
    capacity: u64,
    /// Sequence id → index into `seqs`.
    slots: BTreeMap<u64, u32>,
    seqs: Vec<SeqState>,
    /// Every resident run's victim key → its sequence slot. The first
    /// key's run is its sequence's back run.
    victims: BTreeMap<(bool, u64), u32>,
    resident: u64,
    clock: u64,
    stats: KvStats,
    /// Walk steps taken: runs visited, victim runs taken, and stretches
    /// filled.
    #[cfg(test)]
    steps: u64,
}

impl PagedKvCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate: zero-token or zero-byte
    /// pages, or a budget smaller than one page.
    pub fn new(config: PagedKvConfig) -> Self {
        assert!(config.page_tokens > 0, "pages must hold at least a token");
        assert!(config.page_bytes > Bytes::ZERO, "pages must occupy bytes");
        let capacity = config.budget.as_u64() / config.page_bytes.as_u64();
        assert!(capacity >= 1, "budget must hold at least one page");
        PagedKvCache {
            config,
            capacity,
            slots: BTreeMap::new(),
            seqs: Vec::new(),
            victims: BTreeMap::new(),
            resident: 0,
            clock: 0,
            stats: KvStats::default(),
            #[cfg(test)]
            steps: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &PagedKvConfig {
        &self.config
    }

    /// Resident pages the budget can hold.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// Pages a context of `tokens` needs (at least one).
    pub fn pages_for(&self, tokens: usize) -> u32 {
        (tokens.max(1)).div_ceil(self.config.page_tokens) as u32
    }

    /// HBM bytes currently resident.
    pub fn resident_bytes(&self) -> Bytes {
        self.config.page_bytes * self.resident
    }

    /// Cumulative statistics (see [`KvStats`] for the conservation
    /// identity).
    pub fn stats(&self) -> KvStats {
        KvStats {
            pages_resident: self.resident,
            ..self.stats
        }
    }

    /// Evicts pages from the bottom of the cheapest victim run — finished
    /// requests' pages first (their context is dead, so dropping is
    /// free), then the least recently touched — and returns the count, or
    /// `None` when no run is left to take from. The walk of sequence
    /// `slot` has `gap` missing pages before its next run and `rest`
    /// pages left to walk: it takes at most `gap`, or `rest` when the
    /// victim is that next run, because each page the run loses is
    /// missing when the walk arrives, so the stretch runs on through it.
    fn evict_victim_run(&mut self, slot: u32, gap: u32, rest: u32) -> Option<u32> {
        let (&key, &victim) = self.victims.first_key_value()?;
        let runs = &mut self.seqs[victim as usize].runs;
        let limit = if victim == slot && runs.len() == 1 {
            rest
        } else {
            gap
        };
        let run = runs.back_mut().expect("a victim key names a resident run");
        debug_assert_eq!(run.key(), key);
        let n = (run.hi - run.lo).min(limit);
        run.lo += n;
        if run.lo == run.hi {
            runs.pop_back();
            self.victims.remove(&key);
        }
        Some(n)
    }

    /// Ensures the first `pages_for(tokens)` pages of `seq` are resident,
    /// allocating, refaulting, and evicting as needed, and marks them
    /// touched. The caller charges `refaulted` pages' refill bytes
    /// through its DMA model.
    ///
    /// Touching a finished sequence restarts it (the request came back).
    pub fn touch(&mut self, seq: u64, tokens: usize) -> KvTouch {
        self.clock += 1;
        let needed = self.pages_for(tokens);
        let next_slot = self.seqs.len() as u32;
        let slot = *self.slots.entry(seq).or_insert(next_slot);
        if slot == next_slot {
            self.seqs.push(SeqState::default());
        }
        let state = &mut self.seqs[slot as usize];
        let high_water = state.high_water;
        state.high_water = high_water.max(needed);
        let mut touch = KvTouch::default();
        // The new run is `[lo, page)`: the part of the walked prefix still
        // resident. It holds the newest clock, so it stays out of the
        // victim map until the walk ends and goes last.
        let (mut lo, mut page) = (0u32, 0u32);
        while page < needed {
            #[cfg(test)]
            {
                self.steps += 1;
            }
            let next = self.seqs[slot as usize].runs.front().copied();
            if let Some(run) = next.filter(|run| run.lo == page) {
                // A resident run: its pages below `needed` join the new
                // run without evicting anything.
                let hi = run.hi.min(needed);
                let runs = &mut self.seqs[slot as usize].runs;
                if hi == run.hi {
                    runs.pop_front();
                    self.victims.remove(&run.key());
                } else {
                    runs[0].lo = hi;
                }
                page = hi;
                continue;
            }
            // A missing stretch up to the next resident page. Each page
            // entering HBM evicts one victim page once the budget is full.
            let gap = next.map_or(needed, |run| run.lo.min(needed)) - page;
            let free = self.capacity - self.resident;
            let n = if free > 0 {
                let n = u64::from(gap).min(free) as u32;
                self.resident += u64::from(n);
                n
            } else {
                // Each evicted page makes room for one page entering, so
                // residency stays at the budget.
                let n = match self.evict_victim_run(slot, gap, needed - page) {
                    Some(n) => n,
                    None => {
                        // Only the new run is resident: each page of the
                        // rest of the context displaces its head.
                        debug_assert!(lo < page, "a full cache holds pages");
                        let n = needed - page;
                        lo += n;
                        n
                    }
                };
                touch.evicted += u64::from(n);
                self.stats.pages_evicted += u64::from(n);
                n
            };
            // Pages below the old high-water mark were allocated before:
            // bringing them back is a refault.
            let refaulted = u64::from(high_water.clamp(page, page + n) - page);
            touch.refaulted += refaulted;
            touch.allocated += u64::from(n) - refaulted;
            self.stats.refaults += refaulted;
            self.stats.pages_in += u64::from(n);
            page += n;
        }
        // Every context needs a page, and self-eviction keeps the new run
        // as long as the budget, so the new run is never empty.
        let run = Run {
            lo,
            hi: page,
            clock: self.clock,
            finished: false,
        };
        self.seqs[slot as usize].runs.push_front(run);
        self.victims.insert(run.key(), slot);
        touch
    }

    /// Marks a sequence finished: its resident pages stay until pressure
    /// evicts them, but they become the cheapest victims.
    pub fn finish(&mut self, seq: u64) {
        let Some(&slot) = self.slots.get(&seq) else {
            return;
        };
        // Live runs are the newest, so they sit at the front.
        for run in &mut self.seqs[slot as usize].runs {
            if run.finished {
                break;
            }
            self.victims.remove(&run.key());
            run.finished = true;
            self.victims.insert(run.key(), slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(capacity_pages: u64) -> PagedKvCache {
        PagedKvCache::new(PagedKvConfig {
            page_tokens: 4,
            page_bytes: Bytes::from_mib(1),
            budget: Bytes::from_mib(capacity_pages),
        })
    }

    /// Whether page `page` of sequence `seq` is in HBM, read off the
    /// sequence's runs.
    fn resident(kv: &PagedKvCache, seq: u64, page: u32) -> bool {
        kv.slots.get(&seq).is_some_and(|&slot| {
            kv.seqs[slot as usize]
                .runs
                .iter()
                .any(|run| (run.lo..run.hi).contains(&page))
        })
    }

    #[test]
    fn allocation_rounds_up_to_pages() {
        let mut kv = tiny(8);
        assert_eq!(kv.pages_for(1), 1);
        assert_eq!(kv.pages_for(4), 1);
        assert_eq!(kv.pages_for(5), 2);
        let t = kv.touch(7, 9);
        assert_eq!(t.allocated, 3);
        assert_eq!(t.refaulted, 0);
        assert_eq!(t.evicted, 0);
        assert_eq!(kv.stats().pages_resident, 3);
        assert_eq!(kv.resident_bytes(), Bytes::from_mib(3));
    }

    #[test]
    fn growing_a_context_allocates_only_the_new_pages() {
        let mut kv = tiny(8);
        kv.touch(1, 8); // 2 pages
        let t = kv.touch(1, 12); // 3 pages
        assert_eq!(t.allocated, 1);
        assert_eq!(kv.stats().pages_in, 3);
    }

    #[test]
    fn finished_pages_evict_before_live_lru() {
        let mut kv = tiny(4);
        kv.touch(1, 8); // pages (1,0) (1,1)
        kv.touch(2, 8); // pages (2,0) (2,1) — cache full
        kv.finish(1);
        // A third sequence forces eviction: finished seq 1's pages go
        // first even though seq 2's are older than this touch.
        let t = kv.touch(3, 8);
        assert_eq!(t.evicted, 2);
        assert!(resident(&kv, 2, 0));
        assert!(resident(&kv, 2, 1));
        assert!(!resident(&kv, 1, 0));
    }

    #[test]
    fn evicted_live_pages_refault_on_next_touch() {
        let mut kv = tiny(2);
        kv.touch(1, 8); // fills the cache with seq 1
        kv.touch(2, 8); // evicts seq 1 entirely (live LRU)
        assert_eq!(kv.stats().pages_evicted, 2);
        let t = kv.touch(1, 8); // seq 1 decodes again
        assert_eq!(t.refaulted, 2, "previously allocated pages came back");
        assert_eq!(t.allocated, 0);
        assert_eq!(kv.stats().refaults, 2);
    }

    #[test]
    fn conservation_holds_across_a_scripted_run() {
        let mut kv = tiny(3);
        for (seq, tokens) in [(1, 8), (2, 12), (1, 16), (3, 4), (2, 16)] {
            kv.touch(seq, tokens);
            let s = kv.stats();
            assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        }
        kv.finish(1);
        kv.finish(2);
        kv.touch(4, 12);
        let s = kv.stats();
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        assert!(s.pages_resident <= kv.capacity_pages());
    }

    #[test]
    fn eviction_fires_at_exactly_full_budget() {
        // Fill the cache to exactly its capacity — no eviction yet —
        // then one more page must evict exactly one victim and leave
        // residency pinned at capacity.
        let mut kv = tiny(4);
        let t = kv.touch(1, 16); // 4 pages: exactly full
        assert_eq!(t.allocated, 4);
        assert_eq!(t.evicted, 0, "filling to the boundary evicts nothing");
        assert_eq!(kv.stats().pages_resident, kv.capacity_pages());
        let t = kv.touch(2, 4); // 1 page over
        assert_eq!(t.allocated, 1);
        assert_eq!(t.evicted, 1, "the page past the boundary evicts one");
        let s = kv.stats();
        assert_eq!(s.pages_resident, kv.capacity_pages());
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
    }

    #[test]
    fn zero_token_touch_still_pins_one_page() {
        // A request with no context yet still owns a page (`pages_for`
        // rounds up to at least one), so an empty decode slot cannot
        // slip through the budget accounting.
        let mut kv = tiny(4);
        assert_eq!(kv.pages_for(0), 1);
        let t = kv.touch(9, 0);
        assert_eq!(t.allocated, 1);
        assert_eq!(kv.stats().pages_resident, 1);
        // Touching again is a no-op: the page is already resident.
        let t = kv.touch(9, 0);
        assert_eq!(t.allocated + t.refaulted + t.evicted, 0);
    }

    #[test]
    fn oversized_context_evicts_its_own_oldest_pages() {
        // One sequence larger than the whole budget: the touch evicts
        // its own earliest pages mid-loop, conservation holds, and the
        // next touch refaults what was self-evicted.
        let mut kv = tiny(2);
        let t = kv.touch(1, 16); // 4 pages through a 2-page cache
        assert_eq!(t.allocated, 4);
        assert_eq!(t.evicted, 2, "the walk displaced its own head");
        let s = kv.stats();
        assert_eq!(s.pages_resident, kv.capacity_pages());
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        let t = kv.touch(1, 16);
        assert!(t.refaulted > 0, "self-evicted pages come back as refaults");
        assert_eq!(t.allocated, 0, "nothing above the high-water mark");
    }

    #[test]
    fn touch_after_finish_restarts_the_sequence() {
        let mut kv = tiny(8);
        kv.touch(1, 8);
        kv.finish(1);
        let t = kv.touch(1, 8);
        // Pages were still resident: nothing re-enters, they just became
        // live (and expensive to evict) again.
        assert_eq!(t.allocated + t.refaulted, 0);
        assert_eq!(kv.stats().pages_resident, 2);
    }

    /// Walk steps one touch takes.
    fn steps_of(kv: &mut PagedKvCache, seq: u64, tokens: usize) -> u64 {
        let before = kv.steps;
        kv.touch(seq, tokens);
        kv.steps - before
    }

    #[test]
    fn a_touch_costs_steps_per_run_not_per_page() {
        // A page-by-page walk takes one step per page of context here:
        // thousands. Walking runs takes the same few steps at every
        // context length.
        for pages in [256, 1024, 4096] {
            let tokens = pages * 4;
            // Two long contexts thrash through a 64-page cache: every
            // touch refaults its context, evicting the other sequence's
            // run and then its own head.
            let mut kv = tiny(64);
            let thrash: Vec<u64> = [1, 2, 1, 2, 1]
                .into_iter()
                .map(|seq| steps_of(&mut kv, seq, tokens))
                .collect();
            assert_eq!(thrash, [2, 2, 2, 2, 2], "{pages} pages");
            kv.finish(1);
            assert_eq!(steps_of(&mut kv, 3, tokens), 2, "{pages} pages");
            // A context as large as the cache loses its lowest page to
            // another sequence; refaulting that page evicts the rest of
            // its own run before the walk reaches it.
            let mut kv = tiny(pages as u64);
            kv.touch(1, tokens);
            kv.touch(2, 4);
            assert_eq!(steps_of(&mut kv, 1, tokens), 2, "{pages} pages");
            let s = kv.stats();
            assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        }
    }

    proptest! {
        /// The conservation identity survives arbitrary interleavings of
        /// touches and finishes, and residency never exceeds capacity.
        #[test]
        fn kv_pages_are_conserved(
            capacity in 1u64..12,
            ops in proptest::collection::vec((0u64..6, 1usize..40, 0u8..2), 1..80),
        ) {
            let mut kv = tiny(capacity);
            for (seq, tokens, finish) in ops {
                if finish == 1 {
                    kv.finish(seq);
                } else {
                    kv.touch(seq, tokens);
                }
                let s = kv.stats();
                prop_assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
                prop_assert!(s.pages_resident <= kv.capacity_pages());
            }
        }
    }
}
