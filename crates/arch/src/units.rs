//! Physical-quantity newtypes used throughout the workspace.
//!
//! These types exist so that a bandwidth can never be added to a capacity and
//! a FLOP count can never be confused with a FLOP rate. Arithmetic between
//! them produces the physically meaningful result: `Bytes / Bandwidth`
//! yields [`TimeSecs`], `Flops / FlopRate` yields [`TimeSecs`], and
//! `Cycles / Frequency` yields [`TimeSecs`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A byte count (capacity or traffic volume).
///
/// ```
/// use sn_arch::units::Bytes;
/// let hbm = Bytes::from_gib(64);
/// assert_eq!(hbm.as_u64(), 64 * 1024 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count from a raw number of bytes.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a byte count from binary kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a byte count from binary mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a byte count from binary gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Creates a byte count from binary tebibytes.
    pub const fn from_tib(tib: u64) -> Self {
        Bytes(tib * 1024 * 1024 * 1024 * 1024)
    }

    /// Creates a byte count from decimal gigabytes (used for datasheet
    /// numbers quoted in GB).
    pub fn from_gb(gb: f64) -> Self {
        Bytes((gb * 1e9) as u64)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }

    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful for "remaining capacity" computations.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two byte counts.
    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }

    /// Returns the larger of two byte counts.
    pub fn max(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.max(rhs.0))
    }

    /// Scales by a dimensionless factor, rounding to the nearest byte.
    pub fn scale(self, factor: f64) -> Bytes {
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = TimeSecs;
    fn div(self, rhs: Bandwidth) -> TimeSecs {
        TimeSecs(self.0 as f64 / rhs.0)
    }
}

impl Div<Bytes> for Bytes {
    /// Dimensionless ratio of two byte counts.
    type Output = f64;
    fn div(self, rhs: Bytes) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} TiB", b / (1024.0f64.powi(4)))
        } else if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0f64.powi(3)))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data-transfer rate in bytes per second.
///
/// ```
/// use sn_arch::units::{Bandwidth, Bytes};
/// let hbm = Bandwidth::from_tb_per_s(2.0);
/// let t = Bytes::from_gb(13.5) / hbm;
/// assert!((t.as_secs() - 0.00675).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from raw bytes per second.
    pub const fn from_bytes_per_s(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from decimal gigabytes per second.
    pub fn from_gb_per_s(gbps: f64) -> Self {
        Bandwidth(gbps * 1e9)
    }

    /// Creates a bandwidth from decimal terabytes per second.
    pub fn from_tb_per_s(tbps: f64) -> Self {
        Bandwidth(tbps * 1e12)
    }

    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    pub fn as_tb_per_s(self) -> f64 {
        self.0 / 1e12
    }

    /// Scales by a dimensionless efficiency factor in `[0, 1]` (or any
    /// positive factor for aggregation).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth(self.0 * factor)
    }

    /// Returns the smaller of two bandwidths (the bottleneck of a chain).
    pub fn min(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(rhs.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Mul<TimeSecs> for Bandwidth {
    type Output = Bytes;
    fn mul(self, rhs: TimeSecs) -> Bytes {
        Bytes((self.0 * rhs.0).round() as u64)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Div<Bandwidth> for Bandwidth {
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TB/s", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} GB/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} MB/s", self.0 / 1e6)
        } else {
            write!(f, "{:.0} B/s", self.0)
        }
    }
}

/// Simulated wall-clock time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeSecs(f64);

impl TimeSecs {
    pub const ZERO: TimeSecs = TimeSecs(0.0);

    pub const fn from_secs(s: f64) -> Self {
        TimeSecs(s)
    }

    pub fn from_millis(ms: f64) -> Self {
        TimeSecs(ms * 1e-3)
    }

    pub fn from_micros(us: f64) -> Self {
        TimeSecs(us * 1e-6)
    }

    pub fn from_nanos(ns: f64) -> Self {
        TimeSecs(ns * 1e-9)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two times (the critical path of parallel work).
    pub fn max(self, rhs: TimeSecs) -> TimeSecs {
        TimeSecs(self.0.max(rhs.0))
    }

    /// Returns the smaller of two times.
    pub fn min(self, rhs: TimeSecs) -> TimeSecs {
        TimeSecs(self.0.min(rhs.0))
    }

    /// True when this duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for TimeSecs {
    type Output = TimeSecs;
    fn add(self, rhs: TimeSecs) -> TimeSecs {
        TimeSecs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeSecs {
    fn add_assign(&mut self, rhs: TimeSecs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeSecs {
    type Output = TimeSecs;
    fn sub(self, rhs: TimeSecs) -> TimeSecs {
        TimeSecs(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeSecs {
    type Output = TimeSecs;
    fn mul(self, rhs: f64) -> TimeSecs {
        TimeSecs(self.0 * rhs)
    }
}

impl Div<f64> for TimeSecs {
    type Output = TimeSecs;
    fn div(self, rhs: f64) -> TimeSecs {
        TimeSecs(self.0 / rhs)
    }
}

impl Div<TimeSecs> for TimeSecs {
    /// Dimensionless ratio of two times (a speedup).
    type Output = f64;
    fn div(self, rhs: TimeSecs) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for TimeSecs {
    fn sum<I: Iterator<Item = TimeSecs>>(iter: I) -> TimeSecs {
        iter.fold(TimeSecs::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for TimeSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

/// A count of floating-point operations (work, not rate).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Flops(f64);

impl Flops {
    pub const ZERO: Flops = Flops(0.0);

    pub const fn new(flops: f64) -> Self {
        Flops(flops)
    }

    pub fn from_gflops(g: f64) -> Self {
        Flops(g * 1e9)
    }

    pub fn from_tflops(t: f64) -> Self {
        Flops(t * 1e12)
    }

    pub fn as_f64(self) -> f64 {
        self.0
    }

    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }

    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Operational intensity in FLOPs per byte against the given traffic.
    ///
    /// Returns `f64::INFINITY` when `traffic` is zero bytes.
    pub fn intensity(self, traffic: Bytes) -> f64 {
        if traffic == Bytes::ZERO {
            f64::INFINITY
        } else {
            self.0 / traffic.as_f64()
        }
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Sub for Flops {
    type Output = Flops;
    fn sub(self, rhs: Flops) -> Flops {
        Flops(self.0 - rhs.0)
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: f64) -> Flops {
        Flops(self.0 * rhs)
    }
}

impl Div<FlopRate> for Flops {
    type Output = TimeSecs;
    fn div(self, rhs: FlopRate) -> TimeSecs {
        TimeSecs(self.0 / rhs.0)
    }
}

impl Div<Flops> for Flops {
    type Output = f64;
    fn div(self, rhs: Flops) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TFLOPs", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} GFLOPs", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} MFLOPs", self.0 / 1e6)
        } else {
            write!(f, "{:.0} FLOPs", self.0)
        }
    }
}

/// A floating-point throughput in FLOPs per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopRate(f64);

impl FlopRate {
    pub const ZERO: FlopRate = FlopRate(0.0);

    pub const fn from_flops_per_s(f: f64) -> Self {
        FlopRate(f)
    }

    pub fn from_tflops(t: f64) -> Self {
        FlopRate(t * 1e12)
    }

    pub fn as_flops_per_s(self) -> f64 {
        self.0
    }

    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    pub fn scale(self, factor: f64) -> FlopRate {
        FlopRate(self.0 * factor)
    }

    pub fn min(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0.min(rhs.0))
    }
}

impl Add for FlopRate {
    type Output = FlopRate;
    fn add(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 * rhs)
    }
}

impl Div<f64> for FlopRate {
    type Output = FlopRate;
    fn div(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 / rhs)
    }
}

impl Div<FlopRate> for FlopRate {
    type Output = f64;
    fn div(self, rhs: FlopRate) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Bandwidth> for FlopRate {
    /// Machine balance: the operational intensity (FLOPs/byte) at which a
    /// kernel transitions from memory-bound to compute-bound.
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.1} TFLOPS", self.0 / 1e12)
        } else {
            write!(f, "{:.1} GFLOPS", self.0 / 1e9)
        }
    }
}

/// A clock-cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    pub const ZERO: Cycles = Cycles(0);

    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }

    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<Frequency> for Cycles {
    type Output = TimeSecs;
    fn div(self, rhs: Frequency) -> TimeSecs {
        TimeSecs(self.0 as f64 / rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }

    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    pub fn as_hz(self) -> f64 {
        self.0
    }

    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Converts a duration to a (rounded-up) cycle count at this frequency.
    pub fn cycles_in(self, t: TimeSecs) -> Cycles {
        Cycles((t.as_secs() * self.0).ceil() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.0 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_agree() {
        assert_eq!(Bytes::from_kib(1), Bytes::new(1024));
        assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
        assert_eq!(Bytes::from_gib(1), Bytes::from_mib(1024));
        assert_eq!(Bytes::from_tib(1), Bytes::from_gib(1024));
    }

    #[test]
    fn bytes_display_picks_unit() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(Bytes::from_gib(64).to_string(), "64.00 GiB");
        assert_eq!(Bytes::from_tib(3).to_string(), "3.00 TiB");
    }

    #[test]
    fn transfer_time_is_bytes_over_bandwidth() {
        let t = Bytes::from_gb(32.0) / Bandwidth::from_gb_per_s(32.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_time_is_flops_over_rate() {
        let t = Flops::from_tflops(638.0) / FlopRate::from_tflops(638.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn machine_balance_matches_paper_a100_example() {
        // The paper: A100 has TFLOPS/TBps ~ 300/2 = 150.
        let balance = FlopRate::from_tflops(300.0) / Bandwidth::from_tb_per_s(2.0);
        assert!((balance - 150.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_of_zero_traffic_is_infinite() {
        assert!(Flops::new(10.0).intensity(Bytes::ZERO).is_infinite());
    }

    #[test]
    fn cycles_to_time_roundtrip() {
        let f = Frequency::from_ghz(1.2);
        let t = Cycles::new(1_200_000_000) / f;
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(
            f.cycles_in(TimeSecs::from_secs(1.0)),
            Cycles::new(1_200_000_000)
        );
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(TimeSecs::from_secs(2.5).to_string(), "2.500 s");
        assert_eq!(TimeSecs::from_millis(1.5).to_string(), "1.500 ms");
        assert_eq!(TimeSecs::from_micros(3.0).to_string(), "3.000 us");
        assert_eq!(TimeSecs::from_nanos(12.0).to_string(), "12.0 ns");
    }

    #[test]
    fn bandwidth_times_time_is_bytes() {
        let b = Bandwidth::from_gb_per_s(100.0) * TimeSecs::from_secs(2.0);
        assert_eq!(b, Bytes::from_gb(200.0));
    }

    #[test]
    fn sums_accumulate() {
        let total: Bytes = (0..4).map(|_| Bytes::from_mib(1)).sum();
        assert_eq!(total, Bytes::from_mib(4));
        let t: TimeSecs = (0..4).map(|_| TimeSecs::from_millis(1.0)).sum();
        assert!((t.as_millis() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_time_ratio() {
        let speedup = TimeSecs::from_secs(6.6) / TimeSecs::from_secs(1.0);
        assert!((speedup - 6.6).abs() < 1e-12);
    }
}
