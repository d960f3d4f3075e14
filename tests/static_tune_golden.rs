//! Golden regression test for **measurement-free tuning**: the
//! [`SweepMode::Static`] winner — local size, shared-memory layout and
//! warm-calibrated predicted duration — plus its measured regret
//! against the exhaustive sweep must match the checked-in snapshot
//! `tests/snapshots/static_tune_golden.csv` exactly.
//!
//! Where `tune_golden.csv` pins what the *measuring* tuner selects,
//! this snapshot pins what the *static* tuner would select with zero
//! launches, and by how much that selection trails the measured
//! optimum.  A change to the cost model, the regime calibration table
//! or the static rank order that flips a winner or moves a regret
//! fails here instead of silently degrading the measurement-free mode.
//!
//! **Updating the snapshot** (after an *intentional* model change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test static_tune_golden
//! ```
//!
//! then review the diff like any other code change — and re-run the
//! L = 8 gate (`cargo test --release --test static_tune_diff`) to
//! confirm the 5% regret bound still holds.

use gpu_sim::QueueMode;
use milc_bench::snapshot::check_golden;
use milc_bench::{paper, static_rows_to_csv, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::{sweep, SweepMode};
use milc_dslash::{DslashProblem, KernelConfig};

/// Same lattice, seed and volume-matched device as `tune_golden`, so
/// the static and measured snapshots compare line by line.
const L: usize = 4;
const SEED: u64 = 2024;

/// Static-sweep all twelve Table I configurations and render them
/// through the `results/tune_static.csv` writer: per config the
/// launch-free winner, its warm-calibrated predicted duration, the
/// exhaustive sweep's measured duration of that same point, and the
/// regret against the measured winner (percent, 2 decimals — coarse
/// enough to absorb float noise, fine enough that a real ranking change
/// moves it).
fn static_rows() -> String {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    let rows: Vec<_> = paper::TABLE1
        .iter()
        .map(|col| {
            let cfg = KernelConfig::new(col.strategy, col.order);
            let label = cfg.label();
            let stat = sweep(
                &mut problem,
                cfg,
                &cfg.tunable_layouts(),
                &exp.device,
                QueueMode::OutOfOrder,
                SweepMode::Static,
            )
            .unwrap_or_else(|e| panic!("{label}: static sweep failed: {e}"));
            assert_eq!(stat.sweep_launches, 0, "{label}: static sweep launched");
            assert_eq!(
                stat.proofs, 1,
                "{label}: static sweep proved more than its winner"
            );
            let full = sweep(
                &mut problem,
                cfg,
                &cfg.tunable_layouts(),
                &exp.device,
                QueueMode::OutOfOrder,
                SweepMode::Exhaustive,
            )
            .unwrap_or_else(|e| panic!("{label}: exhaustive sweep failed: {e}"));
            let measured = full
                .timed()
                .find(|p| p.local_size == stat.winner.local_size && p.layout == stat.winner.layout)
                .unwrap_or_else(|| {
                    panic!(
                        "{label}: static winner {} @ {} not timed exhaustively",
                        stat.winner.layout.tag(),
                        stat.winner.local_size
                    )
                });
            let regret = (measured.duration_us - full.winner.duration_us) / full.winner.duration_us;
            (label, stat.winner, measured.duration_us, regret)
        })
        .collect();
    static_rows_to_csv(&rows)
}

#[test]
fn static_selections_match_the_golden_snapshot() {
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/static_tune_golden.csv"
        ),
        &static_rows(),
    );
}

#[test]
fn golden_run_is_deterministic() {
    // Same premise as `tune_golden`: same inputs, same rows — the
    // static ranking must not depend on iteration order or any hidden
    // state carried between sweeps.
    assert_eq!(static_rows(), static_rows());
}
