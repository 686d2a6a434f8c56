//! Differential suite for `sn_memsim::RegionAllocator`: the allocator
//! keeps its live set in a hash map, and the sorted-`Vec` allocator it
//! replaced lives on here as the reference model. Both are driven with
//! the same generated sequences of allocations, frees (in random order,
//! double, wrong-size, foreign-tier and forged) and resets, and must agree
//! on every returned `Region`, every error, and after every step on
//! `free_bytes`, `used_bytes`, `largest_free_extent`, `live_count` and the
//! `Debug` rendering.

mod common;

use common::{check_cases, shrink_failure, shrink_list, CaseRng, SHRINK_BUDGET};
use sn_arch::Bytes;
use sn_memsim::{AllocError, MemoryTier, Region, RegionAllocator};

const CASES: usize = 400;
const JOBS: usize = 2;

/// The allocator as it was: first-fit over a sorted free list, with the
/// live set kept sorted by offset (an `insert` and a `remove` per
/// allocation).
#[derive(Debug)]
struct RefAllocator {
    tier: MemoryTier,
    capacity: Bytes,
    free_list: Vec<(u64, u64)>,
    live: Vec<(u64, u64)>,
}

impl RefAllocator {
    fn new(tier: MemoryTier, capacity: Bytes) -> Self {
        let free_list = if capacity == Bytes::ZERO {
            Vec::new()
        } else {
            vec![(0, capacity.as_u64())]
        };
        RefAllocator {
            tier,
            capacity,
            free_list,
            live: Vec::new(),
        }
    }

    fn free_bytes(&self) -> Bytes {
        Bytes::new(self.free_list.iter().map(|&(_, s)| s).sum())
    }

    fn used_bytes(&self) -> Bytes {
        self.capacity - self.free_bytes()
    }

    fn largest_free_extent(&self) -> Bytes {
        Bytes::new(self.free_list.iter().map(|&(_, s)| s).max().unwrap_or(0))
    }

    fn live_count(&self) -> usize {
        self.live.len()
    }

    fn alloc(&mut self, size: Bytes) -> Result<Region, AllocError> {
        if size == Bytes::ZERO {
            return Err(AllocError::ZeroSize);
        }
        let need = size.as_u64();
        let Some(i) = self.free_list.iter().position(|&(_, s)| s >= need) else {
            return Err(AllocError::OutOfMemory {
                tier: self.tier,
                requested: size,
                free: self.free_bytes(),
            });
        };
        let (off, avail) = self.free_list[i];
        if avail == need {
            self.free_list.remove(i);
        } else {
            self.free_list[i] = (off + need, avail - need);
        }
        let pos = self.live.partition_point(|&(o, _)| o < off);
        self.live.insert(pos, (off, need));
        Ok(Region {
            tier: self.tier,
            offset: off,
            size,
        })
    }

    fn free(&mut self, region: Region) -> Result<(), AllocError> {
        if region.tier != self.tier {
            return Err(AllocError::UnknownRegion(region));
        }
        let (off, size) = (region.offset, region.size.as_u64());
        match self.live.binary_search_by_key(&off, |&(o, _)| o) {
            Ok(pos) if self.live[pos].1 == size => {
                self.live.remove(pos);
            }
            _ => return Err(AllocError::UnknownRegion(region)),
        }
        let i = self.free_list.partition_point(|&(o, _)| o < off);
        self.free_list.insert(i, (off, size));
        if i + 1 < self.free_list.len() {
            let (no, ns) = self.free_list[i + 1];
            if off + size == no {
                self.free_list[i].1 += ns;
                self.free_list.remove(i + 1);
            }
        }
        if i > 0 {
            let (po, ps) = self.free_list[i - 1];
            if po + ps == off {
                self.free_list[i - 1].1 += self.free_list[i].1;
                self.free_list.remove(i);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.live.clear();
        self.free_list.clear();
        if self.capacity > Bytes::ZERO {
            self.free_list.push((0, self.capacity.as_u64()));
        }
    }
}

/// One step. Frees name a region by its index among every region an
/// allocation has returned so far (modulo their count), so a case can
/// free in any order, free twice, or free after a reset.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    Free(usize),
    /// The region with its size changed by the given nonzero amount.
    FreeWrongSize(usize, i64),
    /// The region relabelled to another tier.
    FreeForeignTier(usize),
    /// A region no allocation returned.
    FreeForged {
        offset: u64,
        size: u64,
    },
    Reset,
}

#[derive(Debug, Clone)]
struct Case {
    capacity: u64,
    ops: Vec<Op>,
}

fn generate(rng: &mut CaseRng) -> Case {
    let capacity = match rng.usize_in(0, 10) {
        0 => 0,
        1 => 1,
        2 => rng.usize_in(2, 64) as u64,
        _ => rng.usize_in(64, 4096) as u64,
    };
    // Mostly small allocations, so the tier fills and fragments, with
    // an occasional one near or past the capacity.
    let small = (capacity / 16).max(1) as usize;
    let n = rng.usize_in(1, 160);
    let ops = (0..n)
        .map(|_| match rng.usize_in(0, 100) {
            0..=44 => Op::Alloc(rng.usize_in(1, small + 1) as u64),
            45..=49 => Op::Alloc(rng.usize_in(0, capacity as usize + 2) as u64),
            50 => Op::Alloc(0),
            51..=84 => Op::Free(rng.usize_in(0, 1 << 16)),
            85..=89 => {
                let delta = rng.usize_in(1, 9) as i64;
                let delta = if rng.usize_in(0, 2) == 0 {
                    delta
                } else {
                    -delta
                };
                Op::FreeWrongSize(rng.usize_in(0, 1 << 16), delta)
            }
            90..=93 => Op::FreeForeignTier(rng.usize_in(0, 1 << 16)),
            94..=97 => Op::FreeForged {
                offset: rng.usize_in(0, capacity as usize + 2) as u64,
                size: rng.usize_in(1, small + 1) as u64,
            },
            _ => Op::Reset,
        })
        .collect();
    Case { capacity, ops }
}

fn shrink(case: &Case) -> Vec<Case> {
    shrink_list(&case.ops)
        .into_iter()
        .map(|ops| Case {
            capacity: case.capacity,
            ops,
        })
        .collect()
}

/// What one case did, as the reference model saw it.
#[derive(Default)]
struct Seen {
    fragmented_oom: bool,
    double_free: bool,
    wrong_size_free: bool,
    foreign_free: bool,
    reset_with_live: bool,
    zero_size: bool,
}

fn run_case(case: &Case, seen: &mut Seen) -> Result<(), String> {
    let tier = MemoryTier::Hbm;
    let capacity = Bytes::new(case.capacity);
    let mut real = RegionAllocator::new(tier, capacity);
    let mut reference = RefAllocator::new(tier, capacity);
    let mut returned: Vec<Region> = Vec::new();
    let pick = |returned: &[Region], i: usize| returned.get(i % returned.len().max(1)).copied();
    for (step, op) in case.ops.iter().enumerate() {
        let (got, want) = match *op {
            Op::Alloc(size) => {
                let size = Bytes::new(size);
                let (got, want) = (real.alloc(size), reference.alloc(size));
                match &want {
                    Ok(region) => returned.push(*region),
                    Err(AllocError::OutOfMemory { free, .. }) if *free >= size => {
                        seen.fragmented_oom = true;
                    }
                    Err(AllocError::ZeroSize) => seen.zero_size = true,
                    Err(_) => {}
                }
                (got.map(Some), want.map(Some))
            }
            Op::Free(i) => {
                let Some(region) = pick(&returned, i) else {
                    continue;
                };
                let want = reference.free(region);
                seen.double_free |= want.is_err();
                (real.free(region).map(|()| None), want.map(|()| None))
            }
            Op::FreeWrongSize(i, delta) => {
                let Some(region) = pick(&returned, i) else {
                    continue;
                };
                let size = region.size.as_u64().saturating_add_signed(delta).max(1);
                let region = Region {
                    size: Bytes::new(size),
                    ..region
                };
                let want = reference.free(region);
                seen.wrong_size_free = true;
                (real.free(region).map(|()| None), want.map(|()| None))
            }
            Op::FreeForeignTier(i) => {
                let Some(region) = pick(&returned, i) else {
                    continue;
                };
                let region = Region {
                    tier: MemoryTier::Ddr,
                    ..region
                };
                seen.foreign_free = true;
                (
                    real.free(region).map(|()| None),
                    reference.free(region).map(|()| None),
                )
            }
            Op::FreeForged { offset, size } => {
                let region = Region {
                    tier,
                    offset,
                    size: Bytes::new(size),
                };
                (
                    real.free(region).map(|()| None),
                    reference.free(region).map(|()| None),
                )
            }
            Op::Reset => {
                seen.reset_with_live |= reference.live_count() > 0;
                real.reset();
                reference.reset();
                (Ok(None), Ok(None))
            }
        };
        if got != want {
            return Err(format!("op {step} {op:?}: {got:?} != reference {want:?}"));
        }
        let facts = |free, used, largest, live| (free, used, largest, live);
        let got = facts(
            real.free_bytes(),
            real.used_bytes(),
            real.largest_free_extent(),
            real.live_count(),
        );
        let want = facts(
            reference.free_bytes(),
            reference.used_bytes(),
            reference.largest_free_extent(),
            reference.live_count(),
        );
        if got != want {
            return Err(format!(
                "op {step} {op:?}: (free, used, largest, live) {got:?} != reference {want:?}"
            ));
        }
        let (got, want) = (
            format!("{real:?}"),
            format!("{reference:?}").replacen("RefAllocator", "RegionAllocator", 1),
        );
        if got != want {
            return Err(format!("op {step} {op:?}: {got} != reference {want}"));
        }
    }
    Ok(())
}

#[test]
fn live_set_allocator_matches_the_sorted_vec_reference() {
    check_cases(
        "RegionAllocator ≡ sorted-Vec reference",
        CASES,
        0xa110_c8ed,
        JOBS,
        generate,
        shrink,
        || (),
        |_, case| run_case(case, &mut Seen::default()),
    );
}

/// The shrink loop itself: a property that fails only when an `Alloc`
/// is later followed by a `Reset` shrinks a generated 104-op case to
/// exactly that pair, at a fixed point inside the evaluation budget.
#[test]
fn shrinking_reaches_the_two_op_reproduction() {
    let alloc_then_reset = |_: &mut (), case: &Case| {
        let first_alloc = case.ops.iter().position(|op| matches!(op, Op::Alloc(_)));
        match first_alloc {
            Some(i) if case.ops[i..].iter().any(|op| matches!(op, Op::Reset)) => {
                Err("an Alloc is followed by a Reset".to_string())
            }
            _ => Ok(()),
        }
    };
    let mut rng = CaseRng::new(0x54_e1f);
    let case = (0..10_000)
        .map(|_| generate(&mut rng))
        .find(|c| c.ops.len() == 104 && alloc_then_reset(&mut (), c).is_err())
        .expect("the generator draws a failing 104-op case");
    let (smallest, _, evaluations) =
        shrink_failure(case, String::new(), shrink, || (), alloc_then_reset);
    assert!(
        matches!(smallest.ops[..], [Op::Alloc(_), Op::Reset]),
        "shrunk to {} ops: {smallest:?}",
        smallest.ops.len()
    );
    assert!(
        evaluations < SHRINK_BUDGET,
        "fixed point reached after {evaluations} evaluations"
    );
}

/// The generator reaches every corner the suite claims to cover.
#[test]
fn generated_cases_cover_the_degenerate_corners() {
    let mut rng = CaseRng::new(0xa110_c8ed);
    let mut seen = Seen::default();
    let mut zero_capacity = false;
    for _ in 0..CASES {
        let case = generate(&mut rng);
        zero_capacity |= case.capacity == 0;
        run_case(&case, &mut seen).expect("the differential passes");
    }
    assert!(zero_capacity, "zero-capacity tier");
    assert!(
        seen.fragmented_oom,
        "OOM with enough free bytes, fragmented"
    );
    assert!(seen.double_free, "double free");
    assert!(seen.wrong_size_free, "wrong-size free");
    assert!(seen.foreign_free, "foreign-tier free");
    assert!(seen.reset_with_live, "reset with live regions");
    assert!(seen.zero_size, "zero-byte allocation");
}
