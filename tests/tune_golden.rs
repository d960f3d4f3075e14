//! Golden regression test for the autotuner: the tuner's selections
//! for the paper's twelve Table I configurations — winning local size
//! AND modelled duration — must match the checked-in snapshot
//! `tests/snapshots/tune_golden.csv` exactly.
//!
//! This pins the performance model end to end: a change anywhere in
//! the timing model, the cache simulation, the occupancy calculator or
//! the kernels that shifts a tuned winner (or even its duration) fails
//! here instead of silently rewriting EXPERIMENTS.md numbers.
//!
//! **Updating the snapshot** (after an *intentional* model change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test tune_golden
//! ```
//!
//! then review the diff of `tests/snapshots/tune_golden.csv` like any
//! other code change — every moved duration is a claim about modelled
//! performance — and re-run the L = 16 gate
//! (`cargo run -p milc-bench --bin tune --release`) to confirm the
//! Fig. 6 cross-check still holds.

use gpu_sim::QueueMode;
use milc_bench::snapshot::check_golden;
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::Tuner;
use milc_dslash::{DslashProblem, KernelConfig};

/// Same lattice, seed and (volume-matched) device as the CI smoke run
/// `cargo run -p milc-bench --bin tune -- 4`, so this snapshot and the
/// bin's report can be compared eyeball-to-eyeball.
const L: usize = 4;
const SEED: u64 = 2024;

/// Tune all twelve Table I configurations; one CSV line per config.
/// Durations are printed to 3 decimals — far coarser than f64 but fine
/// enough that any real model change moves them.  The winning
/// shared-memory layout is pinned too: a layout flip is as much a
/// perf-model claim as a moved duration.
fn tuned_rows() -> Vec<String> {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    let mut tuner = Tuner::in_memory();
    paper::TABLE1
        .iter()
        .map(|col| {
            let cfg = KernelConfig::new(col.strategy, col.order);
            let d = tuner
                .tune(&mut problem, cfg, &exp.device, QueueMode::OutOfOrder)
                .unwrap_or_else(|e| panic!("{} failed to tune: {e}", cfg.label()));
            format!(
                "{},{},{},{:.3}",
                cfg.label(),
                d.entry.local_size,
                d.entry.layout,
                d.entry.duration_us
            )
        })
        .collect()
}

#[test]
fn tuner_selections_match_the_golden_snapshot() {
    let rows = tuned_rows();
    let rendered = format!(
        "kernel,local_size,layout,duration_us\n{}\n",
        rows.join("\n")
    );
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/tune_golden.csv"
        ),
        &rendered,
    );
}

#[test]
fn golden_run_is_deterministic() {
    // The whole premise of a golden snapshot: same inputs, same rows.
    assert_eq!(tuned_rows(), tuned_rows());
}
