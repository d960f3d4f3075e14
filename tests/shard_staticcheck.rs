//! Static analysis of the *sharded* Dslash (ROADMAP's "extend the
//! analyzer to the sharded boundary kernels"): every launch a
//! domain-decomposed run performs — each rank's interior and boundary
//! phase — must be provable by `staticcheck_kernel` exactly like the
//! single-device launches: clean findings, non-empty footprints, no
//! probe failures.  The boundary phase is the interesting one: its
//! kernel runs off *offset* views of the target/output tables
//! (`RankProblem::tables_for`), over a target count that differs from
//! rank to rank whenever the t-extent does not divide evenly, so any
//! sloppiness in the analyzer's affine fitting or bounds proofs shows
//! up here first.
//!
//! Two regimes are covered:
//!
//! * **L = 8 across 3 ranks** — deliberately uneven (`t_len` 3/3/2,
//!   so per-rank global sizes differ) and thin enough that *every*
//!   target reads a ghost: the interior phase is empty and the
//!   boundary phase is the whole slab.
//! * **L = 16 across 2 ranks** (`#[ignore]`, with the other L = 16
//!   shard tests) — slabs thick enough that interior and boundary
//!   genuinely split, so both phase kernels get analyzed per rank.

use gpu_sim::{DeviceSpec, StaticCheckConfig};
use milc_bench::paper;
use milc_complex::DoubleComplex as Z;
use milc_dslash::shard::{Phase, RankProblem, ShardedProblem};
use milc_dslash::staticcheck::staticcheck_kernel;
use milc_dslash::KernelConfig;

const SEED: u64 = 2024;

/// Statically analyze one phase of one rank; panics on any finding.
/// Returns `false` if the phase is empty (nothing to launch, nothing
/// to analyze).
fn check_phase(
    rank: &RankProblem<Z>,
    cfg: KernelConfig,
    phase: Phase,
    device: &DeviceSpec,
) -> bool {
    // The same fit the shard runner applies to the paper's size.
    let requested = paper::table1_local_size(cfg.strategy);
    let launch = rank.launch(cfg, phase, requested);
    let empty = rank.phase_targets(phase) == 0;
    assert_eq!(launch.is_none(), empty, "{}: {phase:?}", cfg.label());
    let Some((range, kernel)) = launch else {
        return false;
    };
    let label = format!("{} rank{} {:?}", cfg.label(), rank.rank(), phase);
    let report = staticcheck_kernel(
        kernel.as_ref(),
        &range,
        device,
        rank.memory(),
        &StaticCheckConfig::tuner(),
        &label,
    );
    assert!(report.is_clean(), "{label}:\n{}", report.render_text());
    assert!(report.probes > 0, "{label}: analyzer probed nothing");
    assert!(
        !report.footprints.is_empty(),
        "{label}: no footprints fitted"
    );
    true
}

#[test]
fn uneven_three_rank_boundary_launches_are_statically_clean() {
    let device = DeviceSpec::test_small();
    let sharded = ShardedProblem::<Z>::random(8, SEED, 3);

    // The uneven split this test exists for: 8 t-planes over 3 ranks is
    // t_len 3/3/2, i.e. 768/768/512 targets — per-rank asymmetric
    // launch geometry.
    let targets: Vec<u64> = (0..3).map(|r| sharded.rank(r).n_targets()).collect();
    assert_eq!(targets, vec![768, 768, 512]);

    for col in paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        for r in 0..sharded.num_ranks() {
            let rank = sharded.rank(r);
            // Slabs ≤ 3 planes deep with a 3-deep stencil: every target
            // touches a ghost, so interior is empty and boundary is the
            // whole slab.
            assert_eq!(rank.n_interior(), 0, "{} rank {r}", cfg.label());
            assert!(!check_phase(rank, cfg, Phase::Interior, &device));
            assert!(
                check_phase(rank, cfg, Phase::Boundary, &device),
                "{} rank {r}: boundary phase unexpectedly empty",
                cfg.label()
            );
        }
    }
}

#[test]
#[ignore = "L = 16 build is slow; run with --ignored alongside the other L = 16 shard tests"]
fn split_interior_and_boundary_launches_are_statically_clean_l16() {
    let device = DeviceSpec::test_small();
    let sharded = ShardedProblem::<Z>::random(16, SEED, 2);
    for col in paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        for r in 0..sharded.num_ranks() {
            let rank = sharded.rank(r);
            // 8-plane slabs with a 3-deep stencil split for real: both
            // phases non-empty, both analyzed.
            assert!(rank.n_interior() > 0, "{} rank {r}", cfg.label());
            assert!(rank.n_boundary() > 0, "{} rank {r}", cfg.label());
            assert!(check_phase(rank, cfg, Phase::Interior, &device));
            assert!(check_phase(rank, cfg, Phase::Boundary, &device));
        }
    }
}
