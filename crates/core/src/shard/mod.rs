//! Domain decomposition: shard the Dslash across simulated devices.
//!
//! The paper stops at one A100; real MILC deployments shard the lattice
//! across many GPUs, where strong scaling is dominated by boundary
//! (halo) traffic and the classic remedy is overlapping interior
//! compute with ghost-site exchange.  This module reproduces that
//! pipeline end to end on the simulator:
//!
//! * [`partition`] — t-slab decomposition, ghost slices and the
//!   per-message halo plan;
//! * [`problem`] — per-rank packing through the single-device packer
//!   (slab-local indices plus a ghost region), the interior/boundary
//!   target split, and the (fault-injectable) halo exchange;
//! * [`runner`] — execution on a [`gpu_sim::DeviceGroup`] under the
//!   in-order (blocking exchange) and overlapped (pipelined exchange)
//!   schedules, plus a modelled Perfetto timeline;
//! * [`tune`] — per-rank local-size tuning through the single-device
//!   static ranker, without launching, into the shared
//!   [`TuneCache`](crate::TuneCache).
//!
//! Every schedule produces *bitwise-identical* output to the
//! single-device [`DslashProblem`](crate::DslashProblem): kernels only
//! see their rank's tables, the tables present the same values at
//! re-indexed addresses, and the simulator executes lanes in a fixed
//! order — `tests/shard_diff.rs` is the differential harness pinning
//! that equivalence for every Table I configuration.

pub mod partition;
pub mod problem;
pub mod runner;
pub mod tune;

pub use partition::{HaloMsg, Partition, BYTES_PER_HALO_SITE, HALO_DEPTH};
pub use problem::{HaloFault, Phase, RankProblem, ShardedProblem};
pub use runner::{
    modelled_trace, run_rank_sanitized, run_sharded, run_sharded_with, RankRun, ShardMode,
    ShardOutcome,
};
pub use tune::{rank_tune_key, tune_rank_local_sizes, ShardTuneReport};
