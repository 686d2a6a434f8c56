//! Pattern Memory Unit model (§IV-B): banked scratchpad accesses with
//! conflict accounting, programmable bank bits, the diagonally striped
//! transpose layout, sequence-ID write reordering, and the partitionable
//! address-ALU pipeline.

use sn_arch::{Bytes, Cycles, PmuSpec};

/// How scratchpad addresses map to banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankMapping {
    /// Fixed mapping: bank = bits just above the vector-word offset.
    /// This is the SN10 behavior (§VII: double buffers of arbitrary tensor
    /// shapes could collide in the same banks).
    Fixed,
    /// Software-programmed bank-bit location: bank = bits starting at
    /// `shift`. SN40L lets the compiler place these to break conflicts.
    Programmable { shift: u32 },
}

/// Timing and conflict model of one PMU scratchpad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuModel {
    spec: PmuSpec,
    mapping: BankMapping,
}

impl PmuModel {
    pub fn new(spec: PmuSpec, mapping: BankMapping) -> Self {
        PmuModel { spec, mapping }
    }

    pub fn spec(&self) -> &PmuSpec {
        &self.spec
    }

    pub fn mapping(&self) -> BankMapping {
        self.mapping
    }

    /// Bank index of a byte address under the configured mapping.
    pub fn bank_of(&self, addr: u64) -> usize {
        let banks = self.spec.banks as u64;
        let word = self.spec.vector_width.as_u64() / banks; // bytes per bank word
        let shift = match self.mapping {
            BankMapping::Fixed => word.trailing_zeros(),
            BankMapping::Programmable { shift } => shift,
        };
        ((addr >> shift) % banks) as usize
    }

    /// Cycles to service one vector access touching the given byte
    /// addresses: addresses in distinct banks proceed in parallel; the
    /// worst-conflicted bank serializes the access.
    pub fn access_cycles(&self, addrs: &[u64]) -> Cycles {
        if addrs.is_empty() {
            return Cycles::ZERO;
        }
        let mut counts = vec![0u64; self.spec.banks];
        for &a in addrs {
            counts[self.bank_of(a)] += 1;
        }
        Cycles::new(counts.into_iter().max().unwrap_or(0))
    }

    /// [`PmuModel::access_cycles`] plus counter recording: adds the access
    /// cycles to [`Counter::PmuAccessCycles`] and the excess over the
    /// one-cycle conflict-free ideal to [`Counter::PmuBankConflictCycles`].
    /// Timing is identical to the untraced call.
    ///
    /// [`Counter::PmuAccessCycles`]: sn_trace::Counter::PmuAccessCycles
    /// [`Counter::PmuBankConflictCycles`]: sn_trace::Counter::PmuBankConflictCycles
    pub fn access_cycles_traced(&self, addrs: &[u64], tracer: &sn_trace::Tracer) -> Cycles {
        let cycles = self.access_cycles(addrs);
        if tracer.is_enabled() && !addrs.is_empty() {
            tracer.count(sn_trace::Counter::PmuAccessCycles, cycles.as_u64());
            tracer.count(
                sn_trace::Counter::PmuBankConflictCycles,
                cycles.as_u64().saturating_sub(1),
            );
        }
        cycles
    }

    /// Cycles to stream `bytes` sequentially through the scratchpad at the
    /// vector width (the conflict-free ideal).
    pub fn stream_cycles(&self, bytes: Bytes) -> Cycles {
        Cycles::new(bytes.as_u64().div_ceil(self.spec.vector_width.as_u64()))
    }

    /// Per-vector cycles for a strided access pattern: `lanes` addresses
    /// at byte `stride` apart starting at `base`.
    pub fn strided_access_cycles(&self, base: u64, stride: u64, lanes: usize) -> Cycles {
        let addrs: Vec<u64> = (0..lanes as u64).map(|i| base + i * stride).collect();
        self.access_cycles(&addrs)
    }

    /// Cycles to read an `rows x cols` BF16 tensor column-major (i.e.
    /// transposed) when it was written row-major *naively* (row-linear
    /// layout). Lane `i` of each vector reads element `(i, c)`, so the
    /// addresses stride by the row pitch — the classic bank-conflict case.
    pub fn naive_transposed_read_cycles(&self, rows: usize, cols: usize) -> Cycles {
        let pitch = (cols * 2) as u64;
        let lanes = (self.spec.vector_width.as_u64() / 2) as usize; // BF16 lanes
        let mut total = 0u64;
        for c in 0..cols {
            let mut r = 0;
            while r < rows {
                let n = lanes.min(rows - r);
                let base = (c * 2) as u64 + r as u64 * pitch;
                total += self.strided_access_cycles(base, pitch, n).as_u64();
                r += n;
            }
        }
        Cycles::new(total)
    }

    /// Cycles to read the same tensor transposed when it was written in the
    /// *diagonally striped* format (§IV-B): element `(r, c)` lives in bank
    /// `(r + c) % banks`, so both row-order and column-order vectors touch
    /// all banks — full bandwidth either way.
    pub fn striped_transposed_read_cycles(&self, rows: usize, cols: usize) -> Cycles {
        // Conflict-free by construction; one vector per `lanes` elements.
        let lanes = (self.spec.vector_width.as_u64() / 2).max(1);
        let elems = (rows * cols) as u64;
        Cycles::new(elems.div_ceil(lanes))
    }

    /// Splits the address-ALU pipeline between concurrent read and write
    /// address generators (§IV-B). Returns the per-address issue interval
    /// (cycles between addresses) for each side, given the complexity
    /// (ALU-op count) of each side's address expression.
    ///
    /// # Panics
    ///
    /// Panics if the requested split exceeds the available stages.
    pub fn partition_addr_pipeline(
        &self,
        read_stages: usize,
        write_stages: usize,
        read_expr_ops: usize,
        write_expr_ops: usize,
    ) -> (Cycles, Cycles) {
        assert!(
            read_stages + write_stages <= self.spec.addr_alu_stages,
            "requested {read_stages}+{write_stages} stages, PMU has {}",
            self.spec.addr_alu_stages
        );
        let interval = |stages: usize, ops: usize| -> Cycles {
            if ops == 0 {
                return Cycles::new(1);
            }
            // A pipeline of `stages` ALUs retires `stages` ops per cycle of
            // expression work; an expression needing more ops than stages
            // must loop, lowering address throughput.
            Cycles::new(ops.div_ceil(stages.max(1)) as u64)
        };
        (
            interval(read_stages, read_expr_ops),
            interval(write_stages, write_expr_ops),
        )
    }
}

/// A sequence-ID reorder buffer (§IV-C "Many-to-one and Data Reordering"):
/// vector packets arriving out of order carry a software-programmed
/// sequence ID which the PMU uses to compute write addresses, restoring
/// logical order in the scratchpad.
#[derive(Debug, Clone, Default)]
pub struct ReorderBuffer {
    slots: Vec<Option<u64>>,
}

impl ReorderBuffer {
    /// Creates a buffer expecting `n` packets.
    pub fn new(n: usize) -> Self {
        ReorderBuffer {
            slots: vec![None; n],
        }
    }

    /// Accepts a packet with its sequence ID and payload.
    ///
    /// # Panics
    ///
    /// Panics if the sequence ID is out of range or already filled —
    /// both indicate a mis-programmed producer.
    pub fn accept(&mut self, seq_id: usize, payload: u64) {
        assert!(
            seq_id < self.slots.len(),
            "sequence ID {seq_id} out of range"
        );
        assert!(
            self.slots[seq_id].is_none(),
            "duplicate sequence ID {seq_id}"
        );
        self.slots[seq_id] = Some(payload);
    }

    /// Whether every expected packet has arrived.
    pub fn complete(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Drains the buffer in logical order.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ReorderBuffer::complete`] is true.
    pub fn drain_ordered(self) -> Vec<u64> {
        self.slots
            .into_iter()
            .map(|s| s.expect("drain_ordered called on incomplete buffer"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sn_arch::PmuSpec;

    fn pmu(mapping: BankMapping) -> PmuModel {
        PmuModel::new(PmuSpec::sn40l(), mapping)
    }

    #[test]
    fn sequential_access_is_conflict_free() {
        let p = pmu(BankMapping::Fixed);
        // 16 lanes touching consecutive bank words.
        let word = p.spec().vector_width.as_u64() / p.spec().banks as u64;
        let addrs: Vec<u64> = (0..16).map(|i| i * word).collect();
        assert_eq!(p.access_cycles(&addrs), Cycles::new(1));
    }

    #[test]
    fn same_bank_stride_serializes() {
        let p = pmu(BankMapping::Fixed);
        let word = p.spec().vector_width.as_u64() / p.spec().banks as u64;
        let bank_span = word * p.spec().banks as u64;
        // All 16 addresses hit bank 0.
        let addrs: Vec<u64> = (0..16).map(|i| i * bank_span).collect();
        assert_eq!(p.access_cycles(&addrs), Cycles::new(16));
    }

    #[test]
    fn programmable_bank_bits_break_double_buffer_conflicts() {
        // §VII: double buffers statically mapped to different banks
        // eliminate conflicts. A power-of-two buffer stride aliases to the
        // same banks under the fixed mapping; moving the bank bits above
        // the stride fixes it.
        let fixed = pmu(BankMapping::Fixed);
        let word = fixed.spec().vector_width.as_u64() / fixed.spec().banks as u64;
        let stride = word * fixed.spec().banks as u64 * 4; // conflict stride
        let addrs: Vec<u64> = (0..16).map(|i| i * stride).collect();
        let fixed_cycles = fixed.access_cycles(&addrs);
        let tuned = pmu(BankMapping::Programmable {
            shift: stride.trailing_zeros(),
        });
        let tuned_cycles = tuned.access_cycles(&addrs);
        assert_eq!(fixed_cycles, Cycles::new(16));
        assert_eq!(tuned_cycles, Cycles::new(1));
    }

    #[test]
    fn striped_transpose_reads_at_full_bandwidth() {
        let p = pmu(BankMapping::Fixed);
        let naive = p.naive_transposed_read_cycles(128, 128).as_u64();
        let striped = p.striped_transposed_read_cycles(128, 128).as_u64();
        assert!(
            naive >= striped * 4,
            "striping should be much faster: naive {naive}, striped {striped}"
        );
    }

    #[test]
    fn addr_pipeline_partition_trades_throughput() {
        let p = pmu(BankMapping::Fixed);
        // Simple write (1 op), complex read (8 ops): give the read more
        // stages (the §IV-B insight that one side is usually simpler).
        let (r, w) = p.partition_addr_pipeline(5, 1, 8, 1);
        assert_eq!(w, Cycles::new(1));
        assert_eq!(r, Cycles::new(2));
        // Balanced split starves the complex side.
        let (r2, _w2) = p.partition_addr_pipeline(3, 3, 8, 1);
        assert!(r2 > r);
    }

    #[test]
    #[should_panic(expected = "stages")]
    fn addr_pipeline_over_allocation_panics() {
        let p = pmu(BankMapping::Fixed);
        let _ = p.partition_addr_pipeline(5, 5, 1, 1);
    }

    #[test]
    fn stream_cycles_match_vector_width() {
        let p = pmu(BankMapping::Fixed);
        let c = p.stream_cycles(Bytes::from_kib(64));
        assert_eq!(c, Cycles::new(1024)); // 64 KiB / 64 B per cycle
    }

    #[test]
    #[should_panic(expected = "duplicate sequence ID")]
    fn reorder_rejects_duplicates() {
        let mut rb = ReorderBuffer::new(4);
        rb.accept(1, 10);
        rb.accept(1, 11);
    }

    proptest! {
        /// Any arrival permutation drains in logical order — the §IV-C
        /// reordering guarantee.
        #[test]
        fn reorder_restores_any_permutation(order in Just((0..64usize).collect::<Vec<_>>()).prop_shuffle()) {
            let mut rb = ReorderBuffer::new(64);
            for &i in &order {
                rb.accept(i, (i * 7) as u64);
            }
            prop_assert!(rb.complete());
            let out = rb.drain_ordered();
            for (i, v) in out.iter().enumerate() {
                prop_assert_eq!(*v, (i * 7) as u64);
            }
        }

        /// Bank conflicts never make an access faster than conflict-free,
        /// and never slower than fully serialized.
        #[test]
        fn access_cycles_bounded(addrs in proptest::collection::vec(0u64..(512*1024), 1..64)) {
            let p = pmu(BankMapping::Fixed);
            let c = p.access_cycles(&addrs).as_u64();
            prop_assert!(c >= 1);
            prop_assert!(c <= addrs.len() as u64);
        }
    }
}
