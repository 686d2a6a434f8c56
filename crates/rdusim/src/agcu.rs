//! Address Generation and Coalescing Unit model (§IV-D): kernel-launch
//! sequencing (software- vs hardware-orchestrated) and DMA stream timing.

use sn_arch::{Bandwidth, Bytes, Calibration, TimeSecs};

pub use sn_arch::Orchestration;

/// The three launch commands of one kernel (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchCommand {
    ProgramLoad,
    ArgumentLoad,
    KernelExecute,
}

/// Kernel-launch overhead model.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchModel {
    calib: Calibration,
}

impl LaunchModel {
    pub fn new(calib: Calibration) -> Self {
        LaunchModel { calib }
    }

    /// Per-kernel launch overhead under the given orchestration.
    pub fn per_kernel_overhead(&self, orch: Orchestration) -> TimeSecs {
        self.calib.launch_overhead(orch)
    }

    /// Total launch overhead for a schedule of `kernel_launches` launches
    /// of `distinct_kernels` distinct kernels. Program loads are paid once
    /// per distinct kernel (configurations stay resident and are re-executed
    /// with new arguments).
    pub fn schedule_overhead(
        &self,
        orch: Orchestration,
        kernel_launches: usize,
        distinct_kernels: usize,
    ) -> TimeSecs {
        assert!(
            distinct_kernels <= kernel_launches,
            "cannot have more distinct kernels ({distinct_kernels}) than launches ({kernel_launches})"
        );
        self.per_kernel_overhead(orch) * kernel_launches as f64
            + self.calib.program_load * distinct_kernels as f64
    }
}

/// A DMA stream descriptor: the AGCU sustains several concurrent streams
/// and coalesces their responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaStream {
    pub bytes: Bytes,
    /// Bandwidth available to this stream.
    pub bandwidth: Bandwidth,
}

/// Time for a set of concurrent DMA streams limited to `max_streams`
/// in flight: streams beyond the limit queue behind the earliest finisher
/// (simple list-scheduling on stream slots).
pub fn dma_streams_time(streams: &[DmaStream], max_streams: usize) -> TimeSecs {
    assert!(max_streams >= 1);
    let mut slots = vec![TimeSecs::ZERO; max_streams];
    for s in streams {
        let t = s.bytes / s.bandwidth;
        // Place on the earliest-finishing slot.
        let slot = slots
            .iter_mut()
            .min_by(|a, b| a.as_secs().partial_cmp(&b.as_secs()).expect("finite times"))
            .expect("at least one slot");
        *slot += t;
    }
    slots.into_iter().fold(TimeSecs::ZERO, TimeSecs::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_arch::Bandwidth;

    #[test]
    fn hardware_orchestration_slashes_overhead() {
        let m = LaunchModel::new(Calibration::baseline());
        let so = m.schedule_overhead(Orchestration::Software, 1000, 10);
        let ho = m.schedule_overhead(Orchestration::Hardware, 1000, 10);
        assert!(so.as_secs() / ho.as_secs() > 5.0);
    }

    #[test]
    fn program_load_amortizes_over_relaunches() {
        let m = LaunchModel::new(Calibration::baseline());
        // Same kernel launched 100 times vs 100 distinct kernels.
        let reused = m.schedule_overhead(Orchestration::Hardware, 100, 1);
        let distinct = m.schedule_overhead(Orchestration::Hardware, 100, 100);
        assert!(distinct > reused);
    }

    #[test]
    #[should_panic(expected = "distinct kernels")]
    fn more_distinct_than_launches_panics() {
        let m = LaunchModel::new(Calibration::baseline());
        let _ = m.schedule_overhead(Orchestration::Software, 5, 6);
    }

    #[test]
    fn dma_streams_parallelize_up_to_limit() {
        let s = DmaStream {
            bytes: Bytes::from_gb(1.0),
            bandwidth: Bandwidth::from_gb_per_s(100.0),
        };
        let four_par = dma_streams_time(&[s; 4], 4);
        let four_ser = dma_streams_time(&[s; 4], 1);
        assert!((four_par.as_secs() - 0.01).abs() < 1e-9);
        assert!((four_ser.as_secs() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn uneven_streams_pack_greedily() {
        let big = DmaStream {
            bytes: Bytes::from_gb(3.0),
            bandwidth: Bandwidth::from_gb_per_s(100.0),
        };
        let small = DmaStream {
            bytes: Bytes::from_gb(1.0),
            bandwidth: Bandwidth::from_gb_per_s(100.0),
        };
        // Two slots: big on one, three smalls pack onto the other.
        let t = dma_streams_time(&[big, small, small, small], 2);
        assert!((t.as_secs() - 0.03).abs() < 1e-9, "got {t}");
    }
}
