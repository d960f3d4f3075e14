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
//! STATIC_TUNE_GOLDEN_UPDATE=1 cargo test --test static_tune_golden
//! ```
//!
//! then review the diff like any other code change — and re-run the
//! L = 8 gate (`cargo test --release --test static_tune_diff`) to
//! confirm the 5% regret bound still holds.

use gpu_sim::QueueMode;
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::{sweep, SweepMode};
use milc_dslash::{DslashProblem, KernelConfig};
use std::path::PathBuf;

/// Same lattice, seed and volume-matched device as `tune_golden`, so
/// the static and measured snapshots compare line by line.
const L: usize = 4;
const SEED: u64 = 2024;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join("static_tune_golden.csv")
}

/// Static-sweep all twelve Table I configurations; one CSV line per
/// config: the launch-free winner, its warm-calibrated predicted
/// duration, the exhaustive sweep's measured duration of that same
/// point, and the regret against the measured winner (percent, 2
/// decimals — coarse enough to absorb float noise, fine enough that a
/// real ranking change moves it).
fn static_rows() -> Vec<String> {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    paper::TABLE1
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
            format!(
                "{label},{},{},{:.3},{:.3},{:.2}",
                stat.winner.local_size,
                stat.winner.layout.tag(),
                stat.winner.duration_us,
                measured.duration_us,
                regret * 100.0,
            )
        })
        .collect()
}

const HEADER: &str = "kernel,local_size,layout,predicted_us,measured_us,regret_pct";

#[test]
fn static_selections_match_the_golden_snapshot() {
    let rows = static_rows();
    let rendered = format!("{HEADER}\n{}\n", rows.join("\n"));
    let path = snapshot_path();

    if std::env::var_os("STATIC_TUNE_GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("static_tune_golden: snapshot updated at {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             STATIC_TUNE_GOLDEN_UPDATE=1 cargo test --test static_tune_golden",
            path.display()
        )
    });
    let golden_rows: Vec<&str> = golden.lines().skip(1).filter(|l| !l.is_empty()).collect();
    assert_eq!(
        golden_rows.len(),
        rows.len(),
        "snapshot has {} rows, static tuner produced {} — regenerate with \
         STATIC_TUNE_GOLDEN_UPDATE=1 if the Table I configuration set changed",
        golden_rows.len(),
        rows.len()
    );
    let mut drifted = Vec::new();
    for (got, want) in rows.iter().zip(&golden_rows) {
        if got != want {
            drifted.push(format!("  got  `{got}`\n  want `{want}`"));
        }
    }
    assert!(
        drifted.is_empty(),
        "static tuner selections drifted from the golden snapshot \
         ({}); if the model change is intentional, regenerate with \
         STATIC_TUNE_GOLDEN_UPDATE=1 cargo test --test static_tune_golden \
         and review the diff:\n{}",
        path.display(),
        drifted.join("\n")
    );
}

#[test]
fn golden_run_is_deterministic() {
    // Same premise as `tune_golden`: same inputs, same rows — the
    // static ranking must not depend on iteration order or any hidden
    // state carried between sweeps.
    assert_eq!(static_rows(), static_rows());
}
