//! Differential proof of **measurement-free tuning**: the static
//! cost-model ranking, calibrated per regime by the shared
//! [`RegimeCalibration`] table, is good enough to *replace* the
//! measuring sweep.
//!
//! Four claims, each proved against the measuring simulator at L = 8
//! (volume-matched device, the `tune_golden` conventions):
//!
//! 1. **Static sweeps choose well.**  For every Table I configuration,
//!    a [`SweepMode::Static`] layout sweep spends *zero* launches
//!    (`sweep_launches == 0`, no timed candidates), proves only its
//!    winner (`proofs == 1`), and its winner's *measured* warm duration
//!    is within [`MAX_REGRET`] of the exhaustive sweep's winner.  The
//!    same exhaustive sweep, run once per test binary, is the ground
//!    truth of the static ranking (`rank_candidates`, no lanes
//!    executed): over its flat-layout points the predicted
//!    top-[`TOP_K`] holds a winner-class candidate, and predicted
//!    durations order like the measured ones, Spearman ≥
//!    [`MIN_SPEARMAN`].
//! 2. **Cold predictions land.**  The cold-regime calibrated estimate
//!    (compulsory-miss L2 path × the committed cold scale) is within
//!    [`MAX_COLD_DRIFT_PCT`] of a genuinely cold measured launch
//!    (`run_config`: fresh device state) at the paper's local size.
//! 3. **Sharded ranks tune launch-free.**  For N ∈ {2, 4, 8} slabs,
//!    `tune_rank_local_sizes` decides every rank statically
//!    (zero launches) and the chosen size's measured cold phase-sum is
//!    within [`MAX_REGRET`] of the best candidate's.  A slab only the
//!    sub-warp site block fits (L = 6, two ranks) is priced statically
//!    too, its cached duration within [`MAX_COLD_DRIFT_PCT`] of a cold
//!    measured launch.
//! 4. **Solver streams compose.**  `estimate_solve_stream` (one cold +
//!    n−1 warm launches per parity kernel) predicts the launch count of
//!    a traced tuned CG solve *exactly* and its total device time
//!    within [`MAX_STREAM_DRIFT_PCT`], measured from the
//!    `launch_duration_us` histogram the solve emits.
//!
//! Failures accumulate into one report so a drifted model shows every
//! miss at once, not just the first.
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
//! both sides.  The model is tested against the simulator the way the
//! simulator is tested against the paper: ranked order, not absolute
//! microseconds.

use gpu_sim::{spearman, Launcher, QueueMode, Regime, RegimeCalibration};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::obs;
use milc_dslash::shard::{rank_tune_key, tune_rank_local_sizes, Phase, ShardedProblem};
use milc_dslash::tune::{sweep, CandidatePoint, SweepMode, SweepOutcome, TuneCache, Tuner};
use milc_dslash::{
    estimate_config, estimate_solve_stream, rank_candidates, recommended_config, run_config,
    solve_with, DeviceNormalOperator, DslashProblem, KernelConfig, Metrics,
};
use milc_lattice::{ColorVector, GaugeField, Lattice};
use std::sync::OnceLock;

/// Same lattice and seed as the `tune_golden` snapshot: big enough that
/// every configuration has a non-trivial candidate set, small enough to
/// sweep all twelve exhaustively in a test.
const L: usize = 8;
const SEED: u64 = 2024;

/// Headline regret bound: the static winner's measured duration may
/// exceed the exhaustive winner's by at most 5%.
const MAX_REGRET: f64 = 0.05;

/// Ranking thresholds, per configuration: a measured winner-class
/// candidate inside the predicted top-3, Spearman ≥ 0.8.
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

/// Cold-regime drift gate, percent: the calibrated cold prediction must
/// land within ±25% of a cold measurement (same bound `perfdiff
/// --static-tune` enforces in CI).
const MAX_COLD_DRIFT_PCT: f64 = 25.0;

/// Solver-stream drift gate, percent.  The stream composes per-kernel
/// cold/warm estimates across hundreds of launches, so per-launch
/// errors average out; the bound matches the cold gate.
const MAX_STREAM_DRIFT_PCT: f64 = 25.0;

/// Of the twelve Table I configurations, at least this many must be
/// estimable at the paper's local size (an inestimable configuration is
/// tolerated — it falls back to measuring in production — but a rash of
/// them is a model regression).
const MIN_ESTIMABLE: usize = 10;

fn pct(predicted: f64, measured: f64) -> f64 {
    (predicted - measured) / measured * 100.0
}

/// The one measured ground truth of claim 1: every Table I
/// configuration's exhaustive layout sweep, in `paper::TABLE1` order,
/// run once per test binary and shared by both claim-1 tests.
fn exhaustive_sweeps() -> &'static [SweepOutcome] {
    static SWEEPS: OnceLock<Vec<SweepOutcome>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let exp = Experiment::new(L, SEED);
        let mut problem = DslashProblem::<Z>::random(L, SEED);
        paper::TABLE1
            .iter()
            .map(|col| {
                let cfg = KernelConfig::new(col.strategy, col.order);
                sweep(
                    &mut problem,
                    cfg,
                    &cfg.tunable_layouts(),
                    &exp.device,
                    QueueMode::OutOfOrder,
                    SweepMode::Exhaustive,
                )
                .unwrap_or_else(|e| panic!("{}: exhaustive sweep failed: {e}", cfg.label()))
            })
            .collect()
    })
}

/// Claim 1: for every Table I configuration the static layout sweep
/// spends zero launches and its winner measures within `MAX_REGRET` of
/// the exhaustive winner.
#[test]
fn static_sweep_winner_has_bounded_regret_on_all_table1_configs() {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<Z>::random(L, SEED);
    let mut failures: Vec<String> = Vec::new();

    for (col, full) in paper::TABLE1.iter().zip(exhaustive_sweeps()) {
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
        assert_eq!(
            stat.sweep_launches, 0,
            "{label}: a static sweep must not launch"
        );
        assert_eq!(
            stat.timed().count(),
            0,
            "{label}: a static sweep must not time any candidate"
        );
        assert_eq!(
            stat.predicted().count(),
            1,
            "{label}: exactly the winner is predicted"
        );
        assert_eq!(
            stat.proofs, 1,
            "{label}: a static sweep proves only its winner"
        );

        // The static winner's *measured* duration comes from the
        // exhaustive sweep's record of the same (size, layout) point.
        let Some(measured) = full
            .timed()
            .find(|p| p.local_size == stat.winner.local_size && p.layout == stat.winner.layout)
        else {
            failures.push(format!(
                "{label}: static winner {} @ {} was not timed by the exhaustive sweep",
                stat.winner.layout.tag(),
                stat.winner.local_size
            ));
            continue;
        };
        let regret = (measured.duration_us - full.winner.duration_us) / full.winner.duration_us;
        if regret > MAX_REGRET {
            failures.push(format!(
                "{label}: static winner {} @ {} measures {:.3} µs vs exhaustive \
                 winner {} @ {} at {:.3} µs — regret {:.1}% > {:.0}%",
                stat.winner.layout.tag(),
                stat.winner.local_size,
                measured.duration_us,
                full.winner.layout.tag(),
                full.winner.local_size,
                full.winner.duration_us,
                regret * 100.0,
                MAX_REGRET * 100.0,
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "static sweep regret out of bounds:\n{}",
        failures.join("\n")
    );
}

/// Claim 1, ranking half: the static ranking of the flat layout matches
/// the same exhaustive sweep's flat-layout measurements — a winner-class
/// candidate in the predicted top-`TOP_K`, Spearman ≥ `MIN_SPEARMAN`.
#[test]
fn static_ranking_matches_measurement_on_all_table1_configs() {
    let exp = Experiment::new(L, SEED);
    let problem = DslashProblem::<Z>::random(L, SEED);
    let mut failures: Vec<String> = Vec::new();

    for (col, full) in paper::TABLE1.iter().zip(exhaustive_sweeps()) {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let label = cfg.label();

        // The static ranking against the same measurements, restricted
        // to the configuration's own (flat) layout.
        let flat: Vec<&CandidatePoint> = full
            .timed()
            .filter(|p| p.layout == cfg.shared_layout)
            .collect();
        assert!(
            flat.len() >= 2,
            "{label}: need at least two timed candidates to rank"
        );
        // The flat winner; `min_by` keeps the smaller size on ties.
        let flat_winner = flat
            .iter()
            .min_by(|a, b| a.duration_us.total_cmp(&b.duration_us))
            .expect("at least two flat points");
        let winner_us = flat_winner.duration_us;
        let measured_us = |ls: u32| {
            flat.iter()
                .find(|p| p.local_size == ls)
                .map(|p| p.duration_us)
        };

        // Every Table I kernel is affine, so every candidate must be
        // estimable; an inestimable one is a model regression.
        let mut predicted: Vec<(u32, f64)> = Vec::new();
        for r in rank_candidates(&problem, cfg, &exp.device) {
            match r.estimate {
                Ok(e) => predicted.push((r.local_size, e.duration_us)),
                Err(why) => failures.push(format!(
                    "{label}: local size {} inestimable: {why}",
                    r.local_size
                )),
            }
        }

        // The predicted top-K must contain a winner-class candidate: one
        // whose *measured* duration matches the measured winner's to
        // within the noise tolerance.
        let winner_rank = predicted
            .iter()
            .take(TOP_K)
            .position(|&(ls, _)| {
                measured_us(ls)
                    .is_some_and(|us| (us - winner_us).abs() / winner_us <= WINNER_REL_TOL)
            })
            .map(|i| i + 1);
        if winner_rank.is_none() {
            failures.push(format!(
                "{label}: no predicted top-{TOP_K} candidate measures within {:.2}% of the \
                 measured winner {} @ {winner_us:.3} µs (predicted head: {:?})",
                WINNER_REL_TOL * 100.0,
                flat_winner.local_size,
                &predicted[..TOP_K.min(predicted.len())],
            ));
        }

        // Spearman rank correlation on quantized durations, pairing by
        // local size.
        let (pred_v, meas_v): (Vec<f64>, Vec<f64>) = predicted
            .iter()
            .filter_map(|&(ls, pred_us)| Some((quantize(pred_us), quantize(measured_us(ls)?))))
            .unzip();
        let rho = spearman(&pred_v, &meas_v);
        if rho < MIN_SPEARMAN {
            let measured: Vec<(u32, f64)> =
                flat.iter().map(|p| (p.local_size, p.duration_us)).collect();
            failures.push(format!(
                "{label}: Spearman {rho:.3} < {MIN_SPEARMAN} \
                 (predicted {predicted:?} vs measured {measured:?})"
            ));
        }
        eprintln!(
            "{label:16} flat candidates {:2}  winner {:4} @ rank {winner_rank:?}  \
             spearman {rho:+.3}",
            flat.len(),
            flat_winner.local_size,
        );
    }

    assert!(
        failures.is_empty(),
        "static ranking out of line with measurement:\n{}",
        failures.join("\n")
    );
}

/// Claim 2: the calibrated cold prediction lands within ±25% of a cold
/// measured launch at the paper's Table I local size.
#[test]
fn cold_calibrated_predictions_match_cold_measurements() {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<Z>::random(L, SEED);
    let cal = RegimeCalibration::committed();
    let mut failures: Vec<String> = Vec::new();
    let mut estimable = 0usize;

    for col in paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let label = cfg.label();
        let ls = paper::table1_local_size(col.strategy);

        let est = match estimate_config(&problem, cfg, ls, &exp.device) {
            Ok(e) => e,
            // Tolerated: production falls back to measuring; the
            // MIN_ESTIMABLE floor below catches a rash of these.
            Err(_) => continue,
        };
        estimable += 1;
        let predicted = cal.calibrated_us(&est, Regime::Cold);
        assert!(
            est.cold_duration_us >= est.duration_us,
            "{label}: cold model duration below warm"
        );

        // `run_config` launches on a fresh device state: genuinely cold.
        let out = run_config(&mut problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
            .unwrap_or_else(|e| panic!("{label}: cold run failed: {e}"));
        let measured = out.report.duration_us;
        let drift = pct(predicted, measured);
        if drift.abs() > MAX_COLD_DRIFT_PCT {
            failures.push(format!(
                "{label} @ {ls}: cold predicted {predicted:.3} µs vs measured \
                 {measured:.3} µs — drift {drift:+.1}% beyond ±{MAX_COLD_DRIFT_PCT}%",
            ));
        }
    }

    assert!(
        estimable >= MIN_ESTIMABLE,
        "only {estimable} of {} Table I configurations were estimable",
        paper::TABLE1.len()
    );
    assert!(
        failures.is_empty(),
        "cold calibration drift out of bounds:\n{}",
        failures.join("\n")
    );
}

/// Claim 3: sharded per-rank tuning decides statically (zero launches)
/// and the chosen size's measured cold phase-sum is within `MAX_REGRET`
/// of the best candidate's, for N ∈ {2, 4, 8} slabs.
#[test]
fn sharded_static_tuning_spends_no_launches_and_bounds_regret() {
    let exp = Experiment::new(L, SEED);
    let cfg = recommended_config();
    let mut failures: Vec<String> = Vec::new();

    for n in [2usize, 4, 8] {
        let problem = ShardedProblem::<Z>::random(L, SEED, n);
        let group = gpu_sim::DeviceGroup::homogeneous(
            exp.device.clone(),
            n,
            gpu_sim::Interconnect::nvlink(),
        );
        let mut cache = TuneCache::new();
        let report = tune_rank_local_sizes(&problem, cfg, &group, &mut cache)
            .unwrap_or_else(|e| panic!("N={n}: shard tuning failed: {e}"));
        assert!(
            report.static_ranks >= 1,
            "N={n}: at least one static decision"
        );
        assert_eq!(report.sizes.len(), n);

        // Ground truth on rank 0 (slabs are homogeneous: N divides L):
        // measure every candidate's cold phase-sum — the exact quantity
        // the static score predicts — and compare the chosen size's.
        let rank = problem.rank(0);
        let device = group.device(0);
        let launcher = Launcher::new(device);
        let phases = [Phase::Full, Phase::Interior, Phase::Boundary];
        let phase_sum = |ls| -> Result<f64, _> {
            phases
                .into_iter()
                .filter_map(|phase| rank.launch(cfg, phase, ls))
                .map(|(range, kernel)| launcher.launch(kernel.as_ref(), range, rank.memory()))
                .map(|launch| launch.map(|l| l.duration_us))
                .sum()
        };
        let measured: Vec<(u32, f64)> = rank
            .tunable_local_sizes(cfg)
            .into_iter()
            .filter_map(|ls| Some((ls, phase_sum(ls).ok()?)))
            .collect();
        let (best_ls, best_us) = measured
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one measurable candidate");
        let chosen = report.sizes[0];
        let Some(&(_, chosen_us)) = measured.iter().find(|&&(ls, _)| ls == chosen) else {
            failures.push(format!(
                "N={n}: chosen size {chosen} was not measurable on rank 0"
            ));
            continue;
        };
        let regret = (chosen_us - best_us) / best_us;
        if regret > MAX_REGRET {
            failures.push(format!(
                "N={n}: chosen size {chosen} measures {chosen_us:.3} µs cold \
                 phase-sum vs best {best_ls} at {best_us:.3} µs — regret \
                 {:.1}% > {:.0}%",
                regret * 100.0,
                MAX_REGRET * 100.0,
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "sharded static tuning regret out of bounds:\n{}",
        failures.join("\n")
    );
}

/// Claim 3 at a slab only the site block fits: at L = 6 over two ranks
/// each slab has 324 targets, so no warp multiple divides 3LP-1's 3,888
/// items and the 12-item block, narrower than a warp, is the only
/// candidate.  It is priced statically like any other size, and the
/// cached cold duration lands within `MAX_COLD_DRIFT_PCT` of a cold
/// measured launch of the same full phase.
#[test]
fn a_site_block_only_rank_is_priced_statically_within_the_cold_bound() {
    let exp = Experiment::new(6, SEED);
    let problem = ShardedProblem::<Z>::random(6, SEED, 2);
    let group =
        gpu_sim::DeviceGroup::homogeneous(exp.device.clone(), 2, gpu_sim::Interconnect::nvlink());
    let cfg = recommended_config();
    let rank = problem.rank(0);
    assert_eq!(rank.tunable_local_sizes(cfg), [12]);

    let mut cache = TuneCache::new();
    let report = tune_rank_local_sizes(&problem, cfg, &group, &mut cache).unwrap();
    assert_eq!(report.sizes, [12, 12]);
    assert_eq!((report.static_ranks, report.cache_hits), (1, 1));
    let entry = cache
        .lookup(&rank_tune_key(&problem, cfg, &group, 0))
        .expect("the static decision is cached");
    assert_eq!((entry.candidates_ok, entry.candidates_rejected), (1, 0));

    let (range, kernel) = rank.launch(cfg, Phase::Full, 12).expect("full phase");
    let measured = Launcher::new(group.device(0))
        .launch(kernel.as_ref(), range, rank.memory())
        .expect("the site block launches")
        .duration_us;
    let drift = pct(entry.duration_us, measured);
    assert!(
        drift.abs() <= MAX_COLD_DRIFT_PCT,
        "cached {:.3} µs vs cold measured {measured:.3} µs: drift {drift:+.1}%",
        entry.duration_us
    );
}

/// Claim 4: the solver-stream estimate predicts a traced tuned CG
/// solve's launch count exactly and its total device time within
/// `MAX_STREAM_DRIFT_PCT`, at the CG scale (L = 4) where a full solve
/// stays cheap enough to trace end to end.
#[test]
fn solver_stream_estimate_matches_traced_solve() {
    const SOLVE_L: usize = 4;
    let exp = Experiment::new(SOLVE_L, SEED);
    let lattice = Lattice::hypercubic(SOLVE_L);
    let gauge = GaugeField::<Z>::random(&lattice, SEED);
    // A deterministic nonzero even-parity source.
    let b: Vec<ColorVector<Z>> = (0..lattice.half_volume())
        .map(|cb| {
            let t = cb as f64 * 0.37 + 0.11;
            ColorVector::new(
                Z::new(t.sin(), t.cos()),
                Z::new((2.0 * t).sin(), (2.0 * t).cos()),
                Z::new((3.0 * t).sin(), (3.0 * t).cos()),
            )
        })
        .collect();
    let cfg = recommended_config();
    let mut tuner = Tuner::in_memory();

    // Pre-tune so the solve itself is a cache hit: the metrics scope
    // below then sees only the CG launches, not the sweep's.
    let mut probe = DslashProblem::<Z>::random(SOLVE_L, SEED);
    let decision = tuner
        .tune(&mut probe, cfg, &exp.device, QueueMode::OutOfOrder)
        .expect("tuning the solver kernel");
    let tuned_cfg = decision.tuned_config(cfg);
    let tuned_ls = decision.entry.local_size;
    let label = tuned_cfg.label();

    let metrics = Metrics::new();
    let (sol, op) = {
        let _scope = obs::set_metrics(&metrics);
        let mut op = DeviceNormalOperator::new_tuned(&gauge, 0.8, cfg, &exp.device, &mut tuner)
            .expect("tuned operator");
        (solve_with(&mut op, &b, 1e-8, 200), op)
    };
    assert!(sol.converged, "CG must converge");
    assert!(op.tuned_from_cache(), "pre-tuned solve must hit the cache");
    assert_eq!(op.local_size(), tuned_ls);

    let (count, sum_us) = metrics
        .histogram_sum("launch_duration_us", &[("config", &label)])
        .expect("the solve records launch durations under the tuned label");
    assert_eq!(
        count,
        op.applications(),
        "every device Dslash application is one recorded launch"
    );

    // Operator applications: two Dslash launches each (D_oe then D_eo).
    assert_eq!(op.applications() % 2, 0);
    let applies = op.applications() / 2;
    let stream = estimate_solve_stream(&gauge, tuned_cfg, tuned_ls, &exp.device, applies)
        .expect("solver kernels are estimable");
    assert_eq!(stream.launches, op.applications());
    assert_eq!(stream.cold_launches, 2, "one cold launch per parity kernel");

    let drift = pct(stream.calibrated_us, sum_us);
    assert!(
        drift.abs() <= MAX_STREAM_DRIFT_PCT,
        "solver stream estimate {:.1} µs vs traced {:.1} µs over {} launches — \
         drift {drift:+.1}% beyond ±{MAX_STREAM_DRIFT_PCT}%",
        stream.calibrated_us,
        sum_us,
        stream.launches,
    );
}
