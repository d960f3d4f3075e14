//! A deterministic SIMT GPU execution-model simulator.
//!
//! The MILC-Dslash paper measures its kernels on an NVIDIA A100 with the
//! Nsight Compute profiler.  This crate substitutes for that hardware: it
//! executes ND-range kernels *functionally* (real data moves through a
//! simulated device memory, so results are bit-real) while *measuring*
//! the micro-architectural events the paper's analysis rests on:
//!
//! * **warp execution with active masks** — work-items run in warps of
//!   32; divergent control flow serializes path groups and is counted
//!   (Table I row 13, Section IV-D8);
//! * **global-memory coalescing** — each warp-level load/store is mapped
//!   to 128-byte cache lines and 32-byte sectors (L1 tag requests,
//!   Table I row 10, Section IV-D7);
//! * **sectored, set-associative L1 (per SM) and L2 (shared) caches** —
//!   miss rates (rows 7–8) and DRAM traffic;
//! * **work-group local memory with 32 four-byte banks** — wavefronts and
//!   bank conflicts (rows 11–12);
//! * **relaxed f64 atomics** — address-collision serialization
//!   (Section IV-D2);
//! * **barriers** — phase-structured kernels give `group_barrier`
//!   semantics;
//! * **occupancy** — a CUDA-style occupancy calculator from registers,
//!   local memory and group size (row 4);
//! * **in-order / out-of-order queues** — submission overhead semantics
//!   (Section IV-D6);
//! * **steady-state launches** — a warm launch that repeats its state's
//!   last launch on caches at a fixed point reuses that launch's
//!   counters instead of replaying its warps (`memo.rs`).
//!
//! A calibrated analytic timing model ([`timing`]) converts the measured
//! counters into a kernel duration; see `DESIGN.md` for what is measured
//! versus calibrated.
//!
//! # Writing a kernel
//!
//! A kernel implements [`Kernel`]: it declares how many barrier-separated
//! *phases* its body has and executes one work-item of one phase through
//! the [`Lane`] API, which is where loads, stores, atomics, FLOPs and
//! branch paths are both *performed* and *recorded*:
//!
//! ```
//! use gpu_sim::{DeviceMemory, DeviceSpec, Kernel, KernelResources, Lane, Launcher, NdRange};
//!
//! /// y[i] = a * x[i] + y[i]
//! struct Saxpy { a: f64, x: u64, y: u64, n: u32 }
//!
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn resources(&self, _local_size: u32) -> KernelResources {
//!         KernelResources { registers_per_item: 16, local_mem_bytes_per_group: 0 }
//!     }
//!     fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
//!         let i = lane.global_id() as u64;
//!         if i >= self.n as u64 { return; }
//!         let x = lane.ld_global_f64(self.x + i * 8);
//!         let y = lane.ld_global_f64(self.y + i * 8);
//!         lane.flops(2);
//!         lane.st_global_f64(self.y + i * 8, self.a * x + y);
//!     }
//! }
//!
//! let device = DeviceSpec::test_small();
//! let mut mem = DeviceMemory::new();
//! let x = mem.alloc(1024 * 8, "x");
//! let y = mem.alloc(1024 * 8, "y");
//! for i in 0..1024 {
//!     mem.write_f64(x.addr(i * 8), i as f64);
//!     mem.write_f64(y.addr(i * 8), 1.0);
//! }
//! let kernel = Saxpy { a: 2.0, x: x.base(), y: y.base(), n: 1024 };
//! let report = Launcher::new(&device)
//!     .launch(&kernel, NdRange::linear(1024, 128), &mem)
//!     .unwrap();
//! assert_eq!(mem.read_f64(y.addr(8)), 3.0);
//! assert!(report.counters.global_load_instructions > 0);
//! ```

pub mod atomics;
pub mod breakdown;
pub mod cache;
pub mod coalesce;
pub mod counters;
pub mod device;
pub mod engine;
pub mod error;
pub mod event;
pub mod group;
pub mod kernel;
mod memo;
pub mod memory;
pub mod ndrange;
pub mod occupancy;
pub mod profile;
pub mod queue;
pub mod sanitizer;
pub mod sharedmem;
pub mod staticcheck;
pub mod timing;
pub mod warp;

pub use breakdown::TimeBreakdown;
pub use counters::Counters;
pub use device::DeviceSpec;
pub use engine::{DeviceState, LaunchReport, Launcher, Replay};
pub use error::SimError;
pub use event::Event;
pub use group::{DeviceGroup, Interconnect};
pub use kernel::{Kernel, KernelResources, Lane};
pub use memory::{Buffer, DeviceMemory};
pub use ndrange::NdRange;
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use profile::ProfileReport;
pub use queue::{Queue, QueueMode};
pub use sanitizer::{
    lint_launch, Finding, FindingKind, LintKind, SanitizerConfig, SanitizerReport,
};
pub use staticcheck::{
    analyze as staticcheck_analyze, build_launch_model, estimate_launch, estimate_stream,
    rank_estimates, spearman, CostEstimate, LaunchModel, PhaseRep, Regime, RegimeCalibration,
    SlotSummary, StaticCheckConfig, StaticReport, StreamEstimate, TrafficPrediction,
};
pub use timing::TimingModel;
