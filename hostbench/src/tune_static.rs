//! `tune-static`: measurement-free autotuning of the twelve Table I
//! configurations — a cold `Tuner` deciding each (local size × layout)
//! winner with `SweepMode::Static`, which lints, proves and ranks every
//! candidate and launches nothing.
//!
//! Chosen because it exercises `sanitizer::lint`, `staticcheck` and the
//! cost model while bypassing the launch engine entirely: an engine
//! optimisation must leave this workload unchanged.  It runs at L = 4
//! (one pass takes about a second), where every configuration still has
//! several legal local sizes and layouts.
//!
//! An operation is one configuration's tuning decision; a pass is all
//! twelve on a fresh in-memory tuner.  Checks: no sweep launch, and the
//! winner's `(local size, layout, predicted µs)` equal to
//! `golden/tune_static_L4.csv` bit for bit.  Predictions read only index
//! tables, never field values, so the golden holds for every seed.

use crate::layers::{record_cpu_paths, record_pack, Layer, LayerReport, Layers};
use crate::mirror::SampledCosts;
use crate::{measure, timed_setups, Args, Outcome, Traced};
use gpu_sim::{
    build_launch_model, lint_launch, CostEstimate, DeviceSpec, QueueMode, Regime,
    RegimeCalibration, StaticCheckConfig,
};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::tune::{candidate_local_sizes, static_rank_order, SweepMode, Tuner};
use milc_dslash::{
    obs, rank_candidates, run_config_staticcheck, DslashProblem, KernelConfig, SharedLayout,
};
use milc_lattice::Parity;
use std::time::Instant;

/// Lattice extent.
pub const L: usize = 4;

const GOLDEN: &str = include_str!("../golden/tune_static_L4.csv");

const HEADER: &str = "config,local_size,layout,predicted_us";

fn configs() -> Vec<KernelConfig> {
    paper::TABLE1
        .iter()
        .map(|col| KernelConfig::new(col.strategy, col.order))
        .collect()
}

fn golden_row(
    cfg: KernelConfig,
    local_size: u32,
    layout: SharedLayout,
    predicted_us: f64,
) -> String {
    format!(
        "{},{local_size},{},{predicted_us:?}",
        cfg.label(),
        layout.tag()
    )
}

fn check_row(index: usize, row: &str) -> Result<(), String> {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && *l != HEADER)
        .collect();
    match golden.get(index) {
        Some(&want) if want == row => Ok(()),
        want => Err(format!("got {row}, golden {want:?}")),
    }
}

/// One static tuning decision through the real tuner, as its golden row.
fn decide(
    tuner: &mut Tuner,
    problem: &mut DslashProblem<Z>,
    cfg: KernelConfig,
    device: &DeviceSpec,
) -> Result<String, String> {
    let d = tuner
        .tune_with_mode(
            problem,
            cfg,
            device,
            QueueMode::OutOfOrder,
            SweepMode::Static,
        )
        .map_err(|e| e.to_string())?;
    let launches = d.sweep.as_ref().map_or(0, |s| s.sweep_launches);
    if d.from_cache || launches != 0 {
        return Err(format!(
            "{}: static decision from_cache={} with {launches} sweep launches",
            cfg.label(),
            d.from_cache
        ));
    }
    let layout = SharedLayout::from_tag(&d.entry.layout)
        .ok_or_else(|| format!("{}: unknown layout tag {}", cfg.label(), d.entry.layout))?;
    Ok(golden_row(
        cfg,
        d.entry.local_size,
        layout,
        d.entry.duration_us,
    ))
}

/// The golden file, regenerated from the repository's own tuner.
pub fn print_golden(seed: u64) -> Result<(), String> {
    let exp = Experiment::new(L, seed);
    let mut problem = DslashProblem::<Z>::random(L, seed);
    println!(
        "# SweepMode::Static winners at L={L} on the volume-matched {} ({} SM); \
         regenerate with --workload tune-static --print-golden",
        exp.device.name, exp.device.num_sms
    );
    println!("{HEADER}");
    let mut tuner = Tuner::in_memory();
    for cfg in configs() {
        println!("{}", decide(&mut tuner, &mut problem, cfg, &exp.device)?);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let exp = Experiment::new(L, args.seed);
    let cfgs = configs();
    if args.trace {
        return traced(args, &exp, &cfgs);
    }
    let (setup_s, mut problem) = timed_setups(|| Ok(DslashProblem::<Z>::random(L, args.seed)))?;
    let run = measure(args.seconds, |run| {
        let mut tuner = Tuner::in_memory();
        for (i, &cfg) in cfgs.iter().enumerate() {
            let t = Instant::now();
            let row = decide(&mut tuner, &mut problem, cfg, &exp.device);
            run.op(t.elapsed(), row.and_then(|r| check_row(i, &r)));
        }
        Ok(())
    })?;
    Outcome::untraced(setup_s, run)
}

/// Work counts of one replicated decision.
#[derive(Default)]
struct Tally {
    candidates: u64,
    gate_rejects: u64,
    probes: u64,
    residues: u64,
    estimates: u64,
}

/// The static sweep's own steps for one configuration, each charged to
/// its layer: candidate enumeration, `lint_launch` and the tuner-preset
/// proofs per (local size, layout), `rank_candidates` per layout, then
/// `static_rank_order` and the warm calibration of the first survivor.
/// Returns the winner as a golden row.
fn replicate(
    problem: &DslashProblem<Z>,
    cfg: KernelConfig,
    device: &DeviceSpec,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<String, String> {
    let _span = obs::span_on("hostbench", &cfg.label());
    let sizes = candidate_local_sizes(cfg, problem.lattice().half_volume() as u64);
    let layouts = cfg.tunable_layouts();
    let proofs = StaticCheckConfig {
        lint: false,
        ..StaticCheckConfig::tuner()
    };
    let mut survivors: Vec<(SharedLayout, u32)> = Vec::new();
    for &ls in &sizes {
        for &layout in &layouts {
            tally.candidates += 1;
            let lcfg = cfg.with_layout(layout);
            let range = problem.launch_range(lcfg, ls);
            let kernel = problem.make_kernel(lcfg, range.num_groups());
            let lints = layers.time(Layer::Lint, || {
                lint_launch(
                    device,
                    &range,
                    &kernel.resources(ls),
                    kernel.num_phases(),
                    kernel.local_size_multiple(),
                )
            });
            if !lints.is_empty() {
                tally.gate_rejects += 1;
                continue;
            }
            let report = layers
                .time(Layer::Staticcheck, || {
                    run_config_staticcheck(problem, lcfg, ls, device, &proofs)
                })
                .map_err(|e| format!("{}: {e}", lcfg.label()))?;
            tally.probes += report.probes as u64;
            tally.residues += report.residues as u64;
            if report.is_clean() {
                survivors.push((layout, ls));
            } else {
                tally.gate_rejects += 1;
            }
        }
    }
    let mut ranked: Vec<(SharedLayout, u32, f64)> = Vec::new();
    let mut estimates: Vec<(SharedLayout, u32, CostEstimate)> = Vec::new();
    for &layout in &layouts {
        for r in layers.time(Layer::Costmodel, || {
            rank_candidates(problem, cfg.with_layout(layout), device)
        }) {
            if let Ok(est) = r.estimate {
                tally.estimates += 1;
                ranked.push((layout, r.local_size, est.duration_us));
                estimates.push((layout, r.local_size, est));
            }
        }
    }
    static_rank_order(&mut ranked);
    let (layout, ls, _) = ranked
        .into_iter()
        .find(|&(l, s, _)| survivors.contains(&(l, s)))
        .ok_or_else(|| format!("{}: no candidate survived", cfg.label()))?;
    let est = estimates
        .iter()
        .find(|(l, s, _)| (*l, *s) == (layout, ls))
        .map(|(_, _, e)| e)
        .expect("the winner was ranked from an estimate");
    let predicted = RegimeCalibration::committed().calibrated_us(est, Regime::Warm);
    Ok(golden_row(cfg, ls, layout, predicted))
}

/// Host seconds of the footprint probes alone (`build_launch_model`)
/// and of the full proofs, over every candidate of `cfg`.
fn probe_and_proof_seconds(
    problem: &DslashProblem<Z>,
    cfg: KernelConfig,
    device: &DeviceSpec,
) -> Result<(f64, f64), String> {
    let proofs = StaticCheckConfig {
        lint: false,
        ..StaticCheckConfig::tuner()
    };
    let (mut probe_s, mut proof_s) = (0.0, 0.0);
    for ls in candidate_local_sizes(cfg, problem.lattice().half_volume() as u64) {
        for layout in cfg.tunable_layouts() {
            let lcfg = cfg.with_layout(layout);
            let range = problem.launch_range(lcfg, ls);
            let kernel = problem.make_kernel(lcfg, range.num_groups());
            let t = Instant::now();
            std::hint::black_box(build_launch_model(
                kernel.as_ref(),
                &range,
                device,
                problem.memory(),
            ));
            probe_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            run_config_staticcheck(problem, lcfg, ls, device, &proofs)
                .map_err(|e| format!("{}: {e}", lcfg.label()))?;
            proof_s += t.elapsed().as_secs_f64();
        }
    }
    Ok((probe_s, proof_s))
}

fn traced(args: &Args, exp: &Experiment, cfgs: &[KernelConfig]) -> Result<Outcome, String> {
    let device = &exp.device;
    let mut report = LayerReport::default();
    record_pack(&mut report, L, args.seed);
    let mut problem = DslashProblem::<Z>::random(L, args.seed);
    record_cpu_paths(&mut report, problem.gauge(), problem.source(), Parity::Even);

    // Untimed, untraced coverage check: alternate real tuner passes with
    // replicated ones so both see the same machine conditions, and
    // compare the replica's named steps with the real pass (medians of
    // three).  Then how much of the proof time the footprint probes take.
    let (mut tuner_passes, mut named_passes) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let mut tuner = Tuner::in_memory();
        for &cfg in cfgs {
            decide(&mut tuner, &mut problem, cfg, device)?;
        }
        tuner_passes.push(t.elapsed().as_secs_f64());
        let mut layers = Layers::default();
        for &cfg in cfgs {
            replicate(&problem, cfg, device, &mut layers, &mut Tally::default())?;
        }
        named_passes.push(
            layers.seconds(Layer::Lint)
                + layers.seconds(Layer::Staticcheck)
                + layers.seconds(Layer::Costmodel),
        );
    }
    let median = |v: &[f64]| crate::stats::median(v).map_err(|e| e.to_string());
    report.set(
        "tune.coverage_pct",
        100.0 * median(&named_passes)? / median(&tuner_passes)?,
    );
    let (mut probe_s, mut proof_s) = (0.0, 0.0);
    for &cfg in cfgs {
        let (p, a) = probe_and_proof_seconds(&problem, cfg, device)?;
        probe_s += p;
        proof_s += a;
    }

    let trace = Traced::install();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let run = measure(args.seconds, |run| {
        for (i, &cfg) in cfgs.iter().enumerate() {
            let t = Instant::now();
            let row = replicate(&problem, cfg, device, &mut layers, &mut tally);
            run.op(t.elapsed(), row.and_then(|r| check_row(i, &r)));
        }
        Ok(())
    })?;
    trace.finish(args)?;

    report.record_layers(&layers, &run.pass_s, &SampledCosts::default())?;
    let per_pass = |n: u64| n as f64 / run.pass_s.len() as f64;
    report.set("staticcheck.probe_pct", 100.0 * probe_s / proof_s);
    report.set("tune.candidates", per_pass(tally.candidates));
    report.set("tune.gate_rejects", per_pass(tally.gate_rejects));
    report.set("staticcheck.probes", per_pass(tally.probes));
    report.set("staticcheck.residues", per_pass(tally.residues));
    report.set("costmodel.estimates", per_pass(tally.estimates));
    Ok(Outcome::traced(report, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench-side replica of the static sweep picks the real
    /// tuner's winner, with the same calibrated prediction, for every
    /// Table I configuration.
    #[test]
    fn replica_picks_the_tuners_winners() {
        let exp = Experiment::new(L, 2024);
        let mut problem = DslashProblem::<Z>::random(L, 2024);
        let mut tuner = Tuner::in_memory();
        for cfg in configs() {
            let real = decide(&mut tuner, &mut problem, cfg, &exp.device).unwrap();
            let mut layers = Layers::default();
            let mut tally = Tally::default();
            let replica = replicate(&problem, cfg, &exp.device, &mut layers, &mut tally).unwrap();
            assert_eq!(replica, real);
            assert!(tally.candidates > 0 && tally.estimates > 0 && tally.probes > 0);
        }
    }

    #[test]
    fn golden_holds_on_the_held_out_seed() {
        let exp = Experiment::new(L, 7);
        let mut problem = DslashProblem::<Z>::random(L, 7);
        let mut tuner = Tuner::in_memory();
        for (i, cfg) in configs().into_iter().enumerate() {
            let row = decide(&mut tuner, &mut problem, cfg, &exp.device).unwrap();
            check_row(i, &row).unwrap();
        }
    }
}
