//! Differential proof of **measurement-free tuning**: the static
//! cost-model ranking, calibrated per regime by the shared
//! [`RegimeCalibration`] table, is good enough to *replace* the
//! measuring sweep — not just to prune it.
//!
//! Four claims, each proved against the measuring simulator at L = 8
//! (volume-matched device, the `tune_golden` conventions):
//!
//! 1. **Static sweeps choose well.**  For every Table I configuration,
//!    a [`SweepMode::Static`] layout sweep spends *zero* launches
//!    (`sweep_launches == 0`, no timed candidates), proves only its
//!    winner (`proofs == 1`), and its winner's *measured* warm duration
//!    is within [`MAX_REGRET`] of the exhaustive sweep's winner.
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
//! Failures accumulate into one report (the `costmodel_diff` idiom) so
//! a drifted model shows every miss at once, not just the first.

use gpu_sim::{Launcher, QueueMode, Regime, RegimeCalibration};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::obs;
use milc_dslash::shard::{rank_tune_key, tune_rank_local_sizes, Phase, ShardedProblem};
use milc_dslash::tune::{sweep, SweepMode, TuneCache, Tuner};
use milc_dslash::{
    estimate_config, estimate_solve_stream, recommended_config, run_config, solve_with,
    DeviceNormalOperator, DslashProblem, KernelConfig, Metrics,
};
use milc_lattice::{ColorVector, GaugeField, Lattice};

/// Same lattice and seed as `costmodel_diff` / `tune_golden`.
const L: usize = 8;
const SEED: u64 = 2024;

/// Headline regret bound from the issue: the static winner's measured
/// duration may exceed the exhaustive winner's by at most 5%.
const MAX_REGRET: f64 = 0.05;

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

/// Claim 1: for every Table I configuration the static layout sweep
/// spends zero launches and its winner measures within `MAX_REGRET` of
/// the exhaustive winner.
#[test]
fn static_sweep_winner_has_bounded_regret_on_all_table1_configs() {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<Z>::random(L, SEED);
    let mut failures: Vec<String> = Vec::new();

    for col in paper::TABLE1 {
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

        let full = sweep(
            &mut problem,
            cfg,
            &cfg.tunable_layouts(),
            &exp.device,
            QueueMode::OutOfOrder,
            SweepMode::Exhaustive,
        )
        .unwrap_or_else(|e| panic!("{label}: exhaustive sweep failed: {e}"));

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
