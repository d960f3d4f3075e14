//! SYCL-style queues: in-order vs. out-of-order submission semantics.
//!
//! The paper finds that the SYCLomatic-migrated kernel, which creates an
//! explicitly *in-order* queue, outperforms the hand-written version's
//! default *out-of-order* queue by 1.5–6.7% (Section IV-D6): "out-of-order
//! semantics might lead to performance loss attributed to scheduling
//! overheads involved in managing multiple tasks and their dependencies,
//! particularly when there is no opportunity for overlapping tasks."
//!
//! The simulator reproduces the semantics (an out-of-order queue tracks a
//! dependency DAG; an in-order queue is a chain) and charges each
//! submission the corresponding runtime overhead.  The overhead constants
//! are calibrated to land in the paper's observed range — the paper gives
//! no counter-level mechanism for them, so they are the one purely
//! empirical term in this crate (documented here and in `DESIGN.md`).

use crate::device::DeviceSpec;
use crate::engine::{DeviceState, LaunchReport, Launcher};
use crate::error::SimError;
use crate::kernel::Kernel;
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;

/// Submission semantics of a queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueueMode {
    /// Kernels execute in submission order; the runtime does no
    /// dependency analysis (SYCL `property::queue::in_order`, CUDA
    /// stream semantics).
    InOrder,
    /// The default SYCL queue: the runtime builds a dependency DAG per
    /// submission, paying scheduling overhead even when nothing overlaps.
    OutOfOrder,
}

/// Per-submission runtime overhead in microseconds: fixed cost.
const IN_ORDER_OVERHEAD_US: f64 = 1.0;
/// Out-of-order fixed cost (DAG node creation, event bookkeeping).
const OOO_BASE_OVERHEAD_US: f64 = 6.0;
/// Out-of-order cost proportional to kernel duration (the runtime's
/// dependency tracking and completion polling scale with how long the
/// task graph stays live).  6 µs + 2.5% of a ~900 µs kernel lands the
/// in-order advantage in the paper's 1.5–6.7% window.
const OOO_FRACTION: f64 = 0.025;

/// One completed submission.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The launch report of the kernel itself.
    pub report: LaunchReport,
    /// Queue/runtime overhead attributed to this submission, µs.
    pub overhead_us: f64,
}

impl Submission {
    /// Wall-clock contribution of this submission, µs.
    pub fn total_us(&self) -> f64 {
        self.report.duration_us + self.overhead_us
    }
}

/// A submission queue bound to one device and launcher.
pub struct Queue<'d> {
    launcher: Launcher<'d>,
    mode: QueueMode,
    submissions: Vec<Submission>,
}

impl<'d> Queue<'d> {
    /// Create a queue over a launcher.
    pub fn new(launcher: Launcher<'d>, mode: QueueMode) -> Self {
        Self {
            launcher,
            mode,
            submissions: Vec::new(),
        }
    }

    /// Convenience: a queue over a default [`Launcher`] on a device.
    pub fn on_device(device: &'d DeviceSpec, mode: QueueMode) -> Self {
        Self::new(Launcher::new(device), mode)
    }

    /// The queue's submission semantics.
    pub fn mode(&self) -> QueueMode {
        self.mode
    }

    /// Submit a kernel; blocks (simulates) to completion and returns the
    /// submission record.  Caches start cold; use
    /// [`Queue::submit_with_state`] for the warm-cache iteration loops
    /// the paper times.
    pub fn submit(
        &mut self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
    ) -> Result<&Submission, SimError> {
        let report = self.launcher.launch(kernel, range, mem)?;
        self.record(report)
    }

    /// Submit against persistent device cache state (warm launches).
    pub fn submit_with_state(
        &mut self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        state: &mut DeviceState,
    ) -> Result<&Submission, SimError> {
        let report = self.launcher.launch_with_state(kernel, range, mem, state)?;
        self.record(report)
    }

    fn record(&mut self, report: LaunchReport) -> Result<&Submission, SimError> {
        let overhead_us = match self.mode {
            QueueMode::InOrder => IN_ORDER_OVERHEAD_US,
            QueueMode::OutOfOrder => OOO_BASE_OVERHEAD_US + OOO_FRACTION * report.duration_us,
        };
        self.submissions.push(Submission {
            report,
            overhead_us,
        });
        Ok(self.submissions.last().expect("just pushed"))
    }

    /// All submissions so far.
    pub fn submissions(&self) -> &[Submission] {
        &self.submissions
    }

    /// Total simulated wall-clock of the queue, µs.
    pub fn total_us(&self) -> f64 {
        self.submissions.iter().map(Submission::total_us).sum()
    }

    /// Mean kernel+overhead time per submission, µs.
    pub fn mean_us(&self) -> f64 {
        if self.submissions.is_empty() {
            0.0
        } else {
            self.total_us() / self.submissions.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelResources, Lane};

    struct Touch {
        buf: u64,
    }

    impl Kernel for Touch {
        fn name(&self) -> &str {
            "touch"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _p: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            lane.st_global_f64(self.buf + i * 8, i as f64);
        }
    }

    #[test]
    fn in_order_beats_out_of_order() {
        let d = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let b = mem.alloc(4096 * 8, "b");
        let k = Touch { buf: b.base() };
        let mut q_in = Queue::on_device(&d, QueueMode::InOrder);
        let mut q_ooo = Queue::on_device(&d, QueueMode::OutOfOrder);
        for _ in 0..5 {
            q_in.submit(&k, NdRange::linear(4096, 128), &mem).unwrap();
            q_ooo.submit(&k, NdRange::linear(4096, 128), &mem).unwrap();
        }
        assert!(q_in.total_us() < q_ooo.total_us());
        assert_eq!(q_in.submissions().len(), 5);
    }

    #[test]
    fn overhead_fraction_is_in_papers_window_for_long_kernels() {
        // For a kernel near the paper's ~900 µs, the in-order advantage
        // must land in the reported 1.5–6.7% band.
        let duration = 900.0;
        let ooo = OOO_BASE_OVERHEAD_US + OOO_FRACTION * duration;
        let advantage = (ooo - IN_ORDER_OVERHEAD_US) / (duration + ooo);
        assert!(
            advantage > 0.015 && advantage < 0.067,
            "advantage {advantage}"
        );
    }

    #[test]
    fn mean_and_total_consistent() {
        let d = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let b = mem.alloc(1024 * 8, "b");
        let k = Touch { buf: b.base() };
        let mut q = Queue::on_device(&d, QueueMode::InOrder);
        for _ in 0..4 {
            q.submit(&k, NdRange::linear(1024, 64), &mem).unwrap();
        }
        assert!((q.mean_us() * 4.0 - q.total_us()).abs() < 1e-9);
    }

    #[test]
    fn empty_queue_mean_is_zero() {
        let d = DeviceSpec::test_small();
        let q = Queue::on_device(&d, QueueMode::InOrder);
        assert_eq!(q.mean_us(), 0.0);
    }

    #[test]
    fn submit_propagates_validation_errors() {
        let d = DeviceSpec::test_small();
        let mem = DeviceMemory::new();
        let k = Touch { buf: 0x1000 };
        let mut q = Queue::on_device(&d, QueueMode::InOrder);
        assert!(q.submit(&k, NdRange::linear(100, 64), &mem).is_err());
        assert!(q.submissions().is_empty());
    }
}
