//! Host-speed reference for the timed ops.
//!
//! The benchmark runs on a vCPU of a shared host whose speed swings by
//! 1.4-1.6x between states that last from a second to minutes (a busy or
//! idle neighbour on the same core: thread CPU time swings with wall
//! time, so it is not time spent descheduled). An op's time therefore
//! says as much about the host's state as about the simulator. Between
//! ops the benchmark times a fixed reference kernel, at most every
//! [`SAMPLE_EVERY_S`], and scales each op's host time by
//! `(REFERENCE_MS / k) ^ s`, where `k` is the median kernel time within
//! [`WINDOW_S`] of the op and `s` the workload's
//! [`host_sensitivity`](crate::workloads::Workload::host_sensitivity):
//! the time the op would have taken on an uncontended vCPU. The kernel
//! is the benchmark's own code, identical on both sides of any
//! comparison, so a change in the simulator's speed shows at full size.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel is timed at most this often, in seconds of run.
pub const SAMPLE_EVERY_S: f64 = 0.05;
/// Kernel samples within this many seconds of an op set its scale.
pub const WINDOW_S: f64 = 0.25;
/// Time of [`reference_kernel`] on an uncontended vCPU of the host the
/// bounds were set on (2-vCPU Xeon VM, 2.0 GHz), ms. Scaled times read
/// as host times on that vCPU.
pub const REFERENCE_MS: f64 = 0.8;

/// Fixed work in the simulator's style: allocation, ordered and hashed
/// maps with string keys, float sorting. Returns a checksum so the work
/// cannot be optimised away.
pub fn reference_kernel() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..2 {
        let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut hash: HashMap<String, f64> = HashMap::new();
        let mut v = Vec::new();
        for i in 0..2000u64 {
            tree.entry(next() % 512).or_default().push(i);
            if i % 4 == 0 {
                hash.insert(format!("expert-{}", next() % 300), i as f64 * 0.5);
            }
            v.push((next() % 100_000) as f64 / 7.0);
        }
        v.sort_by(f64::total_cmp);
        acc = acc
            .wrapping_add(tree.values().map(|l| l.len() as u64 * l[0]).sum::<u64>())
            .wrapping_add(hash.len() as u64)
            .wrapping_add(v[v.len() / 2] as u64);
    }
    acc
}

/// Reference-kernel samples over one run, on one clock.
#[derive(Debug)]
pub struct HostSpeed {
    epoch: Instant,
    /// `(seconds since epoch, kernel ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Seconds since the run's clock started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times the kernel if the last sample is [`SAMPLE_EVERY_S`] old.
    pub fn sample_if_due(&mut self) {
        let due = self
            .samples
            .last()
            .is_none_or(|&(t, _)| self.now() - t >= SAMPLE_EVERY_S);
        if due {
            let start = self.now();
            black_box(reference_kernel());
            let ms = (self.now() - start) * 1e3;
            self.samples.push((start, ms));
        }
    }

    /// The factor that scales a host time measured around `t` to
    /// [`REFERENCE_MS`] host speed for a workload of host `sensitivity`:
    /// the reference over the median kernel time within [`WINDOW_S`] of
    /// `t` (the nearest sample if none; 1 before any sample), raised to
    /// `sensitivity`.
    pub fn scale(&self, t: f64, sensitivity: f64) -> f64 {
        let lo = self.samples.partition_point(|&(s, _)| s < t - WINDOW_S);
        let hi = self.samples.partition_point(|&(s, _)| s <= t + WINDOW_S);
        let near: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect()
        } else {
            let nearest = self
                .samples
                .iter()
                .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()));
            nearest.map(|&(_, ms)| ms).into_iter().collect()
        };
        if near.is_empty() {
            1.0
        } else {
            (REFERENCE_MS / crate::stats::quantile(&near, 0.5)).powf(sensitivity)
        }
    }

    /// The median kernel time over the run, ms; 0 before any sample.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        crate::stats::quantile(&ms, 0.5)
    }

    /// Number of kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_kernel_time_near_the_op() {
        let hs = HostSpeed {
            samples: vec![(0.0, 1.6), (0.1, 1.6), (0.2, 0.4), (1.0, 0.8), (5.0, 0.4)],
            ..HostSpeed::default()
        };
        // Samples at 0.0, 0.1 and 0.2 are within the window of 0.05.
        assert_eq!(hs.scale(0.05, 1.0), REFERENCE_MS / 1.6);
        assert_eq!(hs.scale(0.05, 2.0), (REFERENCE_MS / 1.6).powi(2));
        assert_eq!(hs.scale(1.0, 1.3), 1.0);
        // None within the window: the nearest sample.
        assert_eq!(hs.scale(2.0, 1.0), REFERENCE_MS / 0.8);
        assert_eq!(hs.scale(9.0, 1.0), REFERENCE_MS / 0.4);
        assert_eq!(HostSpeed::default().scale(1.0, 1.0), 1.0);
    }

    #[test]
    fn the_kernel_is_sampled_at_most_every_interval() {
        let mut hs = HostSpeed::default();
        hs.sample_if_due();
        hs.sample_if_due();
        assert_eq!(hs.samples(), 1);
        assert!(hs.median_ms() > 0.0);
    }
}
