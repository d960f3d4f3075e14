//! The MILC-Dslash core library.
//!
//! This crate is the paper's primary contribution rebuilt in Rust: the
//! staggered (Kogut-Susskind, first- plus third-neighbor) Dslash operator
//! `C = Dslash × B` of Eq. (1), implemented
//!
//! * as **CPU references** — a sequential implementation
//!   ([`mod@reference`]) and a rayon-parallel one ([`parallel_cpu`]) used for
//!   validation and host-side baselines; and
//! * as **device kernels** for the [`gpu_sim`] execution-model simulator,
//!   one per parallel strategy of Section III: [`kernels::one_lp`] (one
//!   work-item per site), [`kernels::two_lp`] (+ matrix rows),
//!   [`kernels::three_lp`] (+ directions; three race-resolution variants
//!   3LP-1/2/3) and [`kernels::four_lp`] (+ link types; 4LP-1/2), each in
//!   its work-item index orders (k-major / i-major / l-major).
//!
//! [`problem::DslashProblem`] owns the lattice data and its device
//! packing; [`runner`] runs one configuration end to end (launch,
//! validate, report GFLOP/s the way the paper does — theoretical FLOPs
//! over measured duration).

pub mod cpu_opt;
pub mod flops;
pub mod kernels;
pub mod obs;
pub mod operator;
pub mod parallel_cpu;
pub mod problem;
pub mod reference;
pub mod runner;
pub mod shard;
pub mod solver;
pub mod staticcheck;
pub mod strategy;
pub mod tune;
pub mod validate;

pub use flops::theoretical_flops;
pub use kernels::common::SharedLayout;
pub use kernels::defects::{
    AliasingSwizzle, BrokenBarrierThreeLp1, OobGaugeIndex, PlainStoreThreeLp3, UninitCRead,
};
pub use obs::prof::{Bottleneck, CriticalPath, DriftReport, DriftRow, RooflineRow};
pub use obs::{Metrics, Trace, Tracer};
pub use operator::{recommended_config, SimulatedDslash};
pub use problem::{random_fields, DslashProblem};
pub use runner::{run_config, run_config_sanitized, run_config_warm, RunOutcome};
pub use shard::{
    modelled_trace, run_sharded, run_sharded_with, tune_rank_local_sizes, HaloFault, Partition,
    ShardMode, ShardOutcome, ShardedProblem,
};
pub use solver::{
    estimate_solve_stream, solve_with, CgSolution, DeviceNormalOperator, NormalOp, NormalOperator,
};
pub use staticcheck::{
    estimate_config, rank_candidates, run_config_staticcheck, staticcheck_kernel, RankedCandidate,
};
pub use strategy::{IndexOrder, IndexStyle, KernelConfig, Strategy};
pub use tune::{TuneCache, TuneDecision, TuneEntry, TuneError, TuneKey, TuneRegime, Tuner};
pub use validate::{compare_to_reference, MaxError};
