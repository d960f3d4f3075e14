//! Benchmark harness regenerating every evaluation artifact of the
//! paper:
//!
//! | Paper artifact | Binary | Criterion bench |
//! |---|---|---|
//! | Fig. 6 (GFLOP/s per strategy / order / local size / variant) | `cargo run -p milc-bench --bin fig6 --release` | `benches/fig6_strategies.rs` |
//! | Table I (Nsight profile, 12 configs) | `... --bin table1 --release` | `benches/table1_profile.rs` |
//! | §IV-D3 QUDA recon 18/12/9 | `... --bin quda_recon --release` | `benches/quda_recon.rs` |
//! | Timing-model fit (Table I durations) | `... --bin calibrate --release` | — |
//! | CPU Dslash (sequential vs rayon) | — | `benches/cpu_dslash.rs` |
//!
//! Binaries accept an optional lattice size argument (`fig6 16`,
//! `table1 32` …); the default L = 16 runs on a volume-matched device
//! model and reports A100-equivalent numbers (see
//! [`harness::Experiment`]).

pub mod harness;
pub mod paper;
pub mod provenance;
pub mod snapshot;

pub use harness::{
    aggregate_counters, best_of, best_of_order, calibration_samples, fig6_rows, quda_paper_gflops,
    quda_recon_csv, quda_recons, ranked_rows_to_csv, rows_to_csv, scaling_rows_to_csv,
    static_rows_to_csv, strong_scaling, table1_csv, table1_drift, table1_outcomes, table1_profiles,
    Experiment, ScalingPoint, ScalingRow, StaticRow, SweepRow, RANKED_TOP_K,
};
