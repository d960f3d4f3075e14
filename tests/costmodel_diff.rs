//! Differential proof of the static cost model (`staticcheck::costmodel`)
//! against the measuring simulator, over the paper's full Table I
//! configuration set.
//!
//! For each of the twelve configurations at L = 8 (volume-matched
//! device, the `tune_golden` conventions):
//!
//! 1. the **exhaustive warm sweep** measures every legal local size —
//!    the ground truth the tuner would act on;
//! 2. the **static ranking** (`rank_candidates`, no lanes executed)
//!    must place the measured winner inside its predicted top-3;
//! 3. the predicted durations must order like the measured ones:
//!    Spearman rank correlation ≥ 0.8 per configuration;
//! 4. a **ranked sweep** (`SweepMode::Ranked { time_top_k: 3 }`) must
//!    select the same winner as the exhaustive sweep while spending
//!    far fewer sweep launches — the pruning is free, not lossy — and
//!    exactly 3 footprint proofs, one per candidate it times.
//!
//! **Winner identity is duration equivalence, not local-size equality.**
//! Several configurations have a flat middle: mid-range local sizes
//! reach identical achieved occupancy and measure within parts-per-
//! million of each other (the residual spread is cache-replacement
//! order perturbed by warp interleaving — e.g. 2LP at L = 8 is an exact
//! 8-way tie).  Inside such a tie the argmin is noise no static model
//! can (or should) track, so "found the winner" means "found a
//! candidate whose measured duration matches the measured winner's to
//! within [`WINNER_REL_TOL`]".  For the same reason the Spearman
//! comparison first quantizes durations to [`QUANT_REL`] relative
//! buckets, collapsing noise-level near-ties into honest rank ties on
//! both sides.
//!
//! The model is tested against the simulator the way the simulator is
//! tested against the paper: ranked order, not absolute microseconds.

use gpu_sim::{spearman, QueueMode};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::{sweep, SweepMode};
use milc_dslash::{rank_candidates, DslashProblem, KernelConfig};

/// Same lattice and seed as the `tune_golden` snapshot: big enough that
/// every configuration has a non-trivial candidate set, small enough to
/// sweep all twelve exhaustively in a test.
const L: usize = 8;
const SEED: u64 = 2024;

/// The headline thresholds from the issue: measured winner inside the
/// predicted top-3, Spearman ≥ 0.8, per configuration.
const TOP_K: usize = 3;
const MIN_SPEARMAN: f64 = 0.8;

/// Two measured durations within this relative distance are the same
/// candidate as far as winner selection is concerned.  The flat-middle
/// noise floor is parts-per-million; the gap to a genuinely worse
/// candidate (an occupancy outlier) is tens of percent — 0.1% separates
/// the two regimes with three orders of magnitude to spare each side.
const WINNER_REL_TOL: f64 = 1e-3;

/// Relative bucket width for quantizing durations before the Spearman
/// comparison (log-scale rounding, same resolution as the winner
/// tolerance).
const QUANT_REL: f64 = 1e-3;

/// Collapse noise-level duration differences into exact ties: round
/// log-duration to multiples of `ln(1 + QUANT_REL)`.
fn quantize(us: f64) -> f64 {
    (us.ln() / (1.0 + QUANT_REL).ln()).round()
}

#[test]
fn static_ranking_matches_measurement_on_all_table1_configs() {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<DoubleComplex>::random(L, SEED);
    let mut failures: Vec<String> = Vec::new();
    let mut exhaustive_launches = 0u64;
    let mut ranked_launches = 0u64;

    for col in paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let label = cfg.label();

        // Ground truth: exhaustive warm sweep over every legal size.
        let full = sweep(
            &mut problem,
            cfg,
            &[cfg.shared_layout],
            &exp.device,
            QueueMode::OutOfOrder,
            SweepMode::Exhaustive,
        )
        .unwrap_or_else(|e| panic!("{label}: exhaustive sweep failed: {e}"));
        let measured: Vec<(u32, f64)> = full
            .timed()
            .map(|p| (p.local_size, p.duration_us))
            .collect();
        assert!(
            measured.len() >= 2,
            "{label}: need at least two timed candidates to rank"
        );
        let winner_us = full.winner.duration_us;

        // Static side: every candidate must be estimable (the Table I
        // kernels are all affine; inestimable would be a model
        // regression), in predicted-duration order.
        let ranked = rank_candidates(&problem, cfg, &exp.device);
        let mut predicted: Vec<(u32, f64)> = Vec::new();
        for r in &ranked {
            match &r.estimate {
                Ok(e) => predicted.push((r.local_size, e.duration_us)),
                Err(why) => failures.push(format!(
                    "{label}: local size {} inestimable: {why}",
                    r.local_size
                )),
            }
        }

        // (2) the predicted top-K must contain a winner-class candidate:
        // one whose *measured* duration matches the measured winner's to
        // within the noise tolerance.  (Equivalently: the measured
        // winner's duration-equivalence class intersects the top-K.)
        let winner_rank = predicted
            .iter()
            .take(TOP_K)
            .position(|&(ls, _)| {
                measured
                    .iter()
                    .find(|&&(m, _)| m == ls)
                    .is_some_and(|&(_, us)| (us - winner_us).abs() / winner_us <= WINNER_REL_TOL)
            })
            .map(|i| i + 1);
        match winner_rank {
            Some(_) => {}
            None => failures.push(format!(
                "{label}: no predicted top-{TOP_K} candidate measures within {:.2}% of the \
                 measured winner {} @ {winner_us:.3} µs (predicted head: {:?})",
                WINNER_REL_TOL * 100.0,
                full.winner.local_size,
                &predicted[..TOP_K.min(predicted.len())],
            )),
        }

        // (3) Spearman rank correlation on quantized durations, pairing
        // by local size.
        let mut pred_v = Vec::new();
        let mut meas_v = Vec::new();
        for &(ls, pred_us) in &predicted {
            if let Some(&(_, meas_us)) = measured.iter().find(|&&(m, _)| m == ls) {
                pred_v.push(quantize(pred_us));
                meas_v.push(quantize(meas_us));
            }
        }
        let rho = spearman(&pred_v, &meas_v);
        if rho < MIN_SPEARMAN {
            failures.push(format!(
                "{label}: Spearman {rho:.3} < {MIN_SPEARMAN} \
                 (predicted {predicted:?} vs measured {measured:?})"
            ));
        }

        // (4) the ranked sweep lands on a winner-equivalent candidate
        // with far fewer sweep launches.
        let rsweep = sweep(
            &mut problem,
            cfg,
            &[cfg.shared_layout],
            &exp.device,
            QueueMode::OutOfOrder,
            SweepMode::Ranked { time_top_k: TOP_K },
        )
        .unwrap_or_else(|e| panic!("{label}: ranked sweep failed: {e}"));
        let rel = (rsweep.winner.duration_us - winner_us).abs() / winner_us;
        if rel > WINNER_REL_TOL {
            failures.push(format!(
                "{label}: ranked winner {} @ {:.3} µs is {:.3}% off the exhaustive \
                 winner {} @ {winner_us:.3} µs",
                rsweep.winner.local_size,
                rsweep.winner.duration_us,
                rel * 100.0,
                full.winner.local_size,
            ));
        }
        // ... and proves only the candidates it times.
        if rsweep.proofs != TOP_K as u64 {
            failures.push(format!(
                "{label}: ranked sweep ran {} proofs, not {TOP_K}",
                rsweep.proofs
            ));
        }
        exhaustive_launches += full.sweep_launches;
        ranked_launches += rsweep.sweep_launches;

        eprintln!(
            "{label:16} candidates {:2}  winner {:4} @ rank {:?}  spearman {rho:+.3}  \
             launches {:3} -> {}",
            measured.len(),
            full.winner.local_size,
            winner_rank,
            full.sweep_launches,
            rsweep.sweep_launches,
        );
    }

    // Aggregate pruning power across all twelve configurations: the
    // ranked sweep must avoid at least 60% of the exhaustive sweep's
    // launches (the `results/tune.md` gate, proven here too).
    let reduction = 1.0 - ranked_launches as f64 / exhaustive_launches as f64;
    eprintln!(
        "sweep launches: exhaustive {exhaustive_launches}, ranked {ranked_launches} \
         ({:.1}% avoided)",
        reduction * 100.0
    );
    if reduction < 0.6 {
        failures.push(format!(
            "ranked sweeps avoided only {:.1}% of sweep launches (< 60%)",
            reduction * 100.0
        ));
    }

    assert!(
        failures.is_empty(),
        "cost model vs measurement mismatches:\n  {}",
        failures.join("\n  ")
    );
}
