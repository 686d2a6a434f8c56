//! A cheap, deterministic hasher for the workspace's internal tables.
//!
//! std's default SipHash resists hash flooding, which tables keyed by the
//! simulator's own names and offsets do not need. [`FxHasher`] is a
//! multiply-rotate word hash in the style of rustc's `FxHasher`: one
//! multiply per 8-byte word. Its final rotate brings the well-mixed high
//! bits of the last product down to the low bits a table indexes by, so
//! keys that differ only in high bits (aligned offsets, a name's trailing
//! digits) still spread.
//!
//! ```
//! use sn_arch::hash::FxBuildHasher;
//! use std::collections::HashMap;
//!
//! let mut live: HashMap<u64, u64, FxBuildHasher> = HashMap::default();
//! live.insert(4096, 64);
//! assert_eq!(live.get(&4096), Some(&64));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s; every table using it hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiply-rotate word hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// An odd multiplier with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 256 offsets 1 MiB apart land in at least 200 of 256 buckets.
        let h = FxBuildHasher::default();
        let mut buckets: Vec<u64> = (0..256u64).map(|i| h.hash_one(i << 20) & 255).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() >= 200, "{} buckets", buckets.len());
    }

    #[test]
    fn names_differing_in_one_trailing_byte_differ() {
        let h = FxBuildHasher::default();
        let a = h.hash_one("L12.attn.q_proj.out#2");
        let b = h.hash_one("L12.attn.q_proj.out#3");
        assert_ne!(a & 0xffff, b & 0xffff);
    }
}
