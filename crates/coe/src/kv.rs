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
//! Bookkeeping costs the work it does, not the state it holds: a touch
//! hit, an eviction, and an insert are O(1), or O(log n) for pages of
//! finished requests, because the victim order is kept by a recency
//! list and an ordered set rather than found by a scan (see
//! [`PagedKvCache`]).
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

use serde::{Deserialize, Serialize};
use sn_arch::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Page geometry and the HBM budget the cache may occupy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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

/// Where one allocated page of a sequence currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// In DDR (or never brought in): touching it is a refault, or an
    /// allocation at or above the sequence's high-water mark.
    Evicted,
    /// Resident and owned by a live request: linked into the recency list.
    Live,
    /// Resident and owned by a finished request: indexed in the finished
    /// set.
    Finished,
}

/// A page's address inside the cache: `(sequence slot, page index)`.
type PageRef = (u32, u32);

#[derive(Debug, Clone, Copy)]
struct Page {
    residency: Residency,
    last_touch: u64,
    /// Recency-list neighbours; meaningful only while `Live`.
    prev: Option<PageRef>,
    next: Option<PageRef>,
}

const EVICTED_PAGE: Page = Page {
    residency: Residency::Evicted,
    last_touch: 0,
    prev: None,
    next: None,
};

#[derive(Debug, Clone)]
struct SeqState {
    /// Every page the sequence ever allocated, indexed by page number;
    /// the length is the high-water mark, so a non-resident page below
    /// it is a refault, not an allocation.
    pages: Vec<Page>,
}

/// A paged KV cache with cost-aware LRU eviction under an HBM budget.
///
/// The victim order is the total order `(finished first, last touch,
/// sequence, page)`, kept by two indexes instead of a scan:
///
/// - **Live** pages sit on an intrusive doubly-linked recency list.
///   Every touch takes a strictly larger logical clock and visits one
///   sequence's pages in ascending page order, so appending each touched
///   page at the tail keeps the list sorted by `(last touch, sequence,
///   page)` — its head is the live victim.
/// - **Finished** pages sit in an ordered set keyed by `(last touch,
///   (sequence, page))`. [`PagedKvCache::finish`] can retire pages
///   touched long ago, so they need an ordered insert, not an append.
///
/// Each sequence's pages are indexed densely by page number, so a touch
/// hit, an eviction, and an insert are O(1) — O(log n) when a finished
/// page is involved. Sequences are found through one ordered map lookup
/// per touch or finish.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    config: PagedKvConfig,
    capacity: u64,
    /// Sequence id → index into `seqs`.
    slots: BTreeMap<u64, u32>,
    seqs: Vec<SeqState>,
    /// Oldest live page (the live victim) and newest live page.
    live_head: Option<PageRef>,
    live_tail: Option<PageRef>,
    /// Resident pages of finished sequences, cheapest victim first.
    finished: BTreeSet<(u64, (u64, u32))>,
    resident: u64,
    clock: u64,
    stats: KvStats,
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
            live_head: None,
            live_tail: None,
            finished: BTreeSet::new(),
            resident: 0,
            clock: 0,
            stats: KvStats::default(),
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

    fn page_mut(&mut self, (slot, page): PageRef) -> &mut Page {
        &mut self.seqs[slot as usize].pages[page as usize]
    }

    /// Removes a live page from the recency list.
    fn unlink(&mut self, at: PageRef) {
        let Page { prev, next, .. } = *self.page_mut(at);
        match prev {
            Some(p) => self.page_mut(p).next = next,
            None => self.live_head = next,
        }
        match next {
            Some(n) => self.page_mut(n).prev = prev,
            None => self.live_tail = prev,
        }
    }

    /// Marks a page touched now and appends it at the newest end of the
    /// recency list.
    fn push_live(&mut self, at: PageRef) {
        let (tail, clock) = (self.live_tail, self.clock);
        let page = self.page_mut(at);
        page.residency = Residency::Live;
        page.last_touch = clock;
        page.prev = tail;
        page.next = None;
        match tail {
            Some(t) => self.page_mut(t).next = Some(at),
            None => self.live_head = Some(at),
        }
        self.live_tail = Some(at);
    }

    /// Evicts the cheapest page: finished requests' pages first (their
    /// context is dead — dropping is free), then least-recently-touched,
    /// then lowest key. Returns false when nothing is resident.
    fn evict_one(&mut self) -> bool {
        let victim = if let Some((_, (seq, page))) = self.finished.pop_first() {
            (self.slots[&seq], page)
        } else if let Some(head) = self.live_head {
            self.unlink(head);
            head
        } else {
            return false;
        };
        self.page_mut(victim).residency = Residency::Evicted;
        self.resident -= 1;
        self.stats.pages_evicted += 1;
        true
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
            self.seqs.push(SeqState { pages: Vec::new() });
        }
        let pages = &mut self.seqs[slot as usize].pages;
        let high_water = pages.len() as u32;
        if needed > high_water {
            pages.resize(needed as usize, EVICTED_PAGE);
        }
        let mut touch = KvTouch::default();
        for page in 0..needed {
            let at = (slot, page);
            let Page {
                residency,
                last_touch,
                ..
            } = *self.page_mut(at);
            match residency {
                Residency::Live => self.unlink(at),
                Residency::Finished => {
                    self.finished.remove(&(last_touch, (seq, page)));
                }
                Residency::Evicted => {
                    // Not resident: a refault if it was allocated before,
                    // a fresh allocation otherwise. Either way it enters
                    // HBM.
                    if page < high_water {
                        touch.refaulted += 1;
                        self.stats.refaults += 1;
                    } else {
                        touch.allocated += 1;
                    }
                    while self.resident >= self.capacity {
                        if !self.evict_one() {
                            break;
                        }
                        touch.evicted += 1;
                    }
                    self.resident += 1;
                    self.stats.pages_in += 1;
                }
            }
            self.push_live(at);
        }
        touch
    }

    /// Marks a sequence finished: its resident pages stay until pressure
    /// evicts them, but they become the cheapest victims.
    pub fn finish(&mut self, seq: u64) {
        let Some(&slot) = self.slots.get(&seq) else {
            return;
        };
        for page in 0..self.seqs[slot as usize].pages.len() as u32 {
            let at = (slot, page);
            let Page {
                residency,
                last_touch,
                ..
            } = *self.page_mut(at);
            if residency == Residency::Live {
                self.unlink(at);
                self.page_mut(at).residency = Residency::Finished;
                self.finished.insert((last_touch, (seq, page)));
            }
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
    /// per-sequence page index.
    fn resident(kv: &PagedKvCache, seq: u64, page: u32) -> bool {
        kv.slots.get(&seq).is_some_and(|&slot| {
            kv.seqs[slot as usize]
                .pages
                .get(page as usize)
                .is_some_and(|p| p.residency != Residency::Evicted)
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
