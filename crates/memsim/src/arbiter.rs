//! Fair-share bandwidth arbitration for overlapping transfers.
//!
//! The AGCUs multiplex many concurrent DMA streams over one memory
//! interface (§IV-D); when streams overlap in time they share the
//! interface bandwidth. This module computes exact finish times under
//! equal-share arbitration using piecewise-constant progress simulation —
//! the building block for modeling batched expert activations and
//! concurrent spill traffic.

use sn_arch::{Bandwidth, Bytes, TimeSecs};

/// One transfer request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReq {
    /// When the transfer becomes ready.
    pub start: TimeSecs,
    pub bytes: Bytes,
}

impl TransferReq {
    pub fn at(start: TimeSecs, bytes: Bytes) -> Self {
        TransferReq { start, bytes }
    }

    /// Ready immediately.
    pub fn now(bytes: Bytes) -> Self {
        TransferReq {
            start: TimeSecs::ZERO,
            bytes,
        }
    }
}

/// Equal-share arbitration over a fixed-capacity link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthArbiter {
    capacity: Bandwidth,
}

impl BandwidthArbiter {
    /// Creates an arbiter over the given capacity.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(
            capacity.as_bytes_per_s() > 0.0,
            "arbiter needs positive capacity"
        );
        BandwidthArbiter { capacity }
    }

    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Computes the finish time of every request under equal sharing:
    /// at any instant, each unfinished, started transfer receives
    /// `capacity / active` bandwidth.
    ///
    /// Returns finish times index-aligned with `requests`.
    pub fn schedule(&self, requests: &[TransferReq]) -> Vec<TimeSecs> {
        let n = requests.len();
        let mut remaining: Vec<f64> = requests.iter().map(|r| r.bytes.as_f64()).collect();
        let mut finish = vec![TimeSecs::ZERO; n];
        let mut done = vec![false; n];
        // Zero-byte transfers finish at their start.
        for i in 0..n {
            if remaining[i] == 0.0 {
                done[i] = true;
                finish[i] = requests[i].start;
            }
        }
        let cap = self.capacity.as_bytes_per_s();
        let mut t = 0.0f64;
        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&i| !done[i] && requests[i].start.as_secs() <= t + 1e-15)
                .collect();
            if active.is_empty() {
                // Jump to the next arrival, or stop if none.
                match (0..n)
                    .filter(|&i| !done[i])
                    .map(|i| requests[i].start.as_secs())
                    .fold(None::<f64>, |m, s| Some(m.map_or(s, |m| m.min(s))))
                {
                    Some(next) => {
                        t = next;
                        continue;
                    }
                    None => break,
                }
            }
            let share = cap / active.len() as f64;
            // The interval ends at the earliest of: an active transfer
            // finishing, or a new transfer arriving.
            let finish_dt = active
                .iter()
                .map(|&i| remaining[i] / share)
                .fold(f64::INFINITY, f64::min);
            let arrival_dt = (0..n)
                .filter(|&i| !done[i] && requests[i].start.as_secs() > t + 1e-15)
                .map(|i| requests[i].start.as_secs() - t)
                .fold(f64::INFINITY, f64::min);
            let dt = finish_dt.min(arrival_dt);
            assert!(dt.is_finite() && dt >= 0.0, "arbiter made no progress");
            for &i in &active {
                remaining[i] -= share * dt;
                if remaining[i] <= 1e-9 {
                    remaining[i] = 0.0;
                    done[i] = true;
                    finish[i] = TimeSecs::from_secs(t + dt);
                }
            }
            t += dt;
        }
        finish
    }

    /// The makespan: when the last transfer finishes.
    pub fn makespan(&self, requests: &[TransferReq]) -> TimeSecs {
        self.schedule(requests)
            .into_iter()
            .fold(TimeSecs::ZERO, TimeSecs::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gbps(x: f64) -> Bandwidth {
        Bandwidth::from_gb_per_s(x)
    }

    #[test]
    fn single_transfer_is_bytes_over_bandwidth() {
        let a = BandwidthArbiter::new(gbps(100.0));
        let f = a.schedule(&[TransferReq::now(Bytes::from_gb(1.0))]);
        assert!((f[0].as_secs() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn two_equal_overlapping_transfers_share_fairly() {
        let a = BandwidthArbiter::new(gbps(100.0));
        let r = TransferReq::now(Bytes::from_gb(1.0));
        let f = a.schedule(&[r, r]);
        for t in f {
            assert!(
                (t.as_secs() - 0.02).abs() < 1e-9,
                "both finish at 2x solo time"
            );
        }
    }

    #[test]
    fn short_transfer_finishes_first_then_long_speeds_up() {
        let a = BandwidthArbiter::new(gbps(100.0));
        let f = a.schedule(&[
            TransferReq::now(Bytes::from_gb(1.0)),
            TransferReq::now(Bytes::from_gb(3.0)),
        ]);
        // Shared until the small one finishes at 20 ms (1 GB at 50 GB/s);
        // the big one then has 2 GB left at full rate: 20 + 20 = 40 ms.
        assert!((f[0].as_secs() - 0.020).abs() < 1e-6, "{}", f[0]);
        assert!((f[1].as_secs() - 0.040).abs() < 1e-6, "{}", f[1]);
    }

    #[test]
    fn staggered_arrival_waits_for_its_start() {
        let a = BandwidthArbiter::new(gbps(100.0));
        let f = a.schedule(&[
            TransferReq::now(Bytes::from_gb(1.0)),
            TransferReq::at(TimeSecs::from_secs(1.0), Bytes::from_gb(1.0)),
        ]);
        assert!((f[0].as_secs() - 0.01).abs() < 1e-9);
        assert!(
            (f[1].as_secs() - 1.01).abs() < 1e-9,
            "starts at t=1 with full bandwidth"
        );
    }

    #[test]
    fn zero_byte_transfers_finish_instantly() {
        let a = BandwidthArbiter::new(gbps(10.0));
        let f = a.schedule(&[TransferReq::now(Bytes::ZERO)]);
        assert!(f[0].is_zero());
    }

    #[test]
    fn empty_schedule_is_empty() {
        let a = BandwidthArbiter::new(gbps(10.0));
        assert!(a.schedule(&[]).is_empty());
        assert!(a.makespan(&[]).is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Work conservation: the makespan of simultaneous transfers
        /// equals total bytes over capacity (the link never idles).
        #[test]
        fn work_conserving_for_simultaneous_arrivals(
            sizes in proptest::collection::vec(1u64..1000, 1..10)
        ) {
            let a = BandwidthArbiter::new(gbps(1.0));
            let reqs: Vec<TransferReq> =
                sizes.iter().map(|&m| TransferReq::now(Bytes::from_mib(m))).collect();
            let total: u64 = sizes.iter().map(|&m| m * 1024 * 1024).sum();
            let expect = total as f64 / 1e9;
            let got = a.makespan(&reqs).as_secs();
            prop_assert!((got - expect).abs() / expect < 1e-6, "{got} vs {expect}");
        }

        /// No transfer finishes before its solo lower bound or its start.
        #[test]
        fn finishes_respect_lower_bounds(
            entries in proptest::collection::vec((0u64..100, 1u64..500), 1..8)
        ) {
            let a = BandwidthArbiter::new(gbps(1.0));
            let reqs: Vec<TransferReq> = entries
                .iter()
                .map(|&(s, m)| TransferReq::at(
                    TimeSecs::from_millis(s as f64),
                    Bytes::from_mib(m),
                ))
                .collect();
            let fins = a.schedule(&reqs);
            for (r, f) in reqs.iter().zip(&fins) {
                let solo = r.bytes.as_f64() / 1e9;
                prop_assert!(f.as_secs() + 1e-9 >= r.start.as_secs() + solo);
            }
        }
    }
}
