//! Golden regression test for the strong-scaling study: the sharded
//! Dslash's modelled wall clocks, halo traffic and tuned per-rank local
//! sizes at L = 8 for N = 1, 2, 4, 8 ranks — both exchange schedules —
//! must match the checked-in snapshot
//! `tests/snapshots/scaling_golden.csv` exactly.
//!
//! This pins the *distributed* performance model end to end: the
//! interconnect cost model (serialized vs pipelined), the
//! interior/boundary phase split, the per-rank tuner and the overall
//! wall-clock composition.  A change anywhere in that stack that moves
//! a number fails here instead of silently rewriting
//! `results/scaling.csv`.
//!
//! **Updating the snapshot** (after an *intentional* model change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test scaling_golden
//! ```
//!
//! then review the diff like any other code change and regenerate the
//! committed artifact (`cargo run -p milc-bench --bin scaling
//! --release`).

use milc_bench::snapshot::check_golden;
use milc_bench::{strong_scaling, Experiment};
use milc_dslash::{IndexOrder, KernelConfig, Strategy, TuneCache};

const L: usize = 8;
const SEED: u64 = 2024;

/// Run the study; one CSV line per (rank count, schedule).  Wall and
/// comm times printed to 3 decimals — coarser than f64, fine enough
/// that any real model change moves them.
fn scaling_rows() -> Vec<String> {
    let exp = Experiment::new(L, SEED);
    let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    let mut cache = TuneCache::new();
    strong_scaling(&exp, cfg, &[1, 2, 4, 8], &mut cache)
        .iter()
        .map(|p| {
            let sizes: Vec<String> = p
                .outcome
                .per_rank
                .iter()
                .map(|r| r.local_size.to_string())
                .collect();
            format!(
                "{},{},{:.3},{:.3},{},{}",
                p.row.ranks,
                p.row.mode,
                p.row.wall_us,
                p.row.comm_us,
                p.row.halo_bytes,
                sizes.join("|")
            )
        })
        .collect()
}

#[test]
fn scaling_study_matches_the_golden_snapshot() {
    let rows = scaling_rows();
    let rendered = format!(
        "ranks,mode,wall_us,comm_us,halo_bytes,local_sizes\n{}\n",
        rows.join("\n")
    );
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/scaling_golden.csv"
        ),
        &rendered,
    );
}

#[test]
fn golden_study_is_deterministic() {
    // Same fields, same tuner sweeps, same interconnect arithmetic —
    // the study must reproduce itself bit for bit.
    assert_eq!(scaling_rows(), scaling_rows());
}
