//! Golden regression test for the static cost model: the analytic
//! per-candidate estimates — occupancy, limiter, waves, predicted
//! duration and rank — for every legal local size of all twelve
//! Table I configurations must match the checked-in snapshot
//! `tests/snapshots/costmodel_golden.csv` exactly.
//!
//! Where `tune_golden.csv` pins what the *measuring* tuner selects,
//! this snapshot pins what the *static* ranking predicts, over the
//! whole candidate set: a change to the occupancy limiter model, the
//! traffic estimator, or the calibrated timing weights that moves any
//! prediction (or reorders any candidate) fails here instead of
//! silently shifting which candidate a static sweep selects.
//!
//! **Updating the snapshot** (after an *intentional* model change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test costmodel_golden
//! ```
//!
//! then review the diff like any other code change — every moved
//! duration is a claim about predicted performance — and re-run the
//! differential suite (`cargo test --test static_tune_diff`) to confirm
//! the predictions still track measurement.

use milc_bench::snapshot::check_golden;
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::{rank_candidates, DslashProblem, KernelConfig};

/// Same lattice, seed and (volume-matched) device as `tune_golden`, so
/// the static predictions here and the measured selections there can be
/// compared eyeball-to-eyeball.
const L: usize = 4;
const SEED: u64 = 2024;

/// One CSV line per `(config, legal local size)`, in predicted-rank
/// order within each config.  Durations to 3 decimals, occupancy to 4 —
/// coarse enough to be stable across platforms, fine enough that any
/// real model change moves them.
fn predicted_rows() -> Vec<String> {
    let exp = Experiment::new(L, SEED);
    let problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    let mut rows = Vec::new();
    for col in paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        for (i, r) in rank_candidates(&problem, cfg, &exp.device)
            .iter()
            .enumerate()
        {
            match &r.estimate {
                Ok(e) => rows.push(format!(
                    "{},{},{},{:.4},{:?},{:.3},{:.3}",
                    cfg.label(),
                    r.local_size,
                    i + 1,
                    e.occupancy.achieved,
                    e.occupancy.limiter,
                    e.occupancy.waves,
                    e.duration_us
                )),
                Err(why) => rows.push(format!(
                    "{},{},-,-,-,-,inestimable: {why}",
                    cfg.label(),
                    r.local_size
                )),
            }
        }
    }
    rows
}

#[test]
fn static_predictions_match_the_golden_snapshot() {
    let rows = predicted_rows();
    let rendered = format!(
        "kernel,local_size,rank,occupancy,limiter,waves,duration_us\n{}\n",
        rows.join("\n")
    );
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/costmodel_golden.csv"
        ),
        &rendered,
    );
}

#[test]
fn golden_predictions_are_deterministic() {
    assert_eq!(predicted_rows(), predicted_rows());
}
