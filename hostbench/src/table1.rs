//! `table1`: the paper's Table I — the twelve strategy × index-order
//! configurations at their Table I local sizes, each profiled the way the
//! paper measures it (one cold warm-up launch, then the warm launch), its
//! output validated against the CPU reference.
//!
//! Chosen because it is the paper's main artifact and runs every lane
//! and replay path of the simulator: atomics (3LP-2/3), bank conflicts
//! (3LP-1/2, 4LP) and divergence (4LP).  It runs at L = 8 on the
//! volume-matched one-SM device, where one pass takes about two seconds,
//! so a run holds enough passes for stable medians.
//!
//! An operation is one configuration (`run_config_warm`); a pass is all
//! twelve.  Checks: relative error below 1e-8, and the warm launch's
//! modelled duration and key counters equal to `golden/table1_L8.csv`
//! bit for bit.  Counters do not depend on field values, so the golden
//! holds for every seed.

use crate::layers::{record_cpu_paths, record_pack, Layer, LayerReport, Layers};
use crate::mirror::{check_against_launcher, redrive, Mirror, MirrorReport, WarpSample};
use crate::{measure, timed_setups, Args, Outcome, Traced};
use gpu_sim::{Counters, QueueMode};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::{compare_to_reference, obs, run_config_warm, DslashProblem, KernelConfig};
use milc_lattice::Parity;
use std::time::Instant;

/// Lattice extent.
pub const L: usize = 8;

/// Largest relative error a configuration may show (the bound the
/// `table1` bin asserts).
const MAX_REL_ERROR: f64 = 1e-8;

const GOLDEN: &str = include_str!("../golden/table1_L8.csv");

struct Column {
    cfg: KernelConfig,
    local_size: u32,
}

fn columns() -> Vec<Column> {
    paper::TABLE1
        .iter()
        .map(|col| Column {
            cfg: KernelConfig::new(col.strategy, col.order),
            local_size: paper::table1_local_size(col.strategy),
        })
        .collect()
}

const HEADER: &str = "config,duration_us,warp_instructions,l1_tag_requests_global,\
                      l1_sector_misses,l2_sector_misses,shared_wavefronts,atomic_passes,\
                      divergent_branches";

/// One golden row: the warm launch's modelled duration (exact) and the
/// counters behind Table I's key rows.
fn golden_row(cfg: KernelConfig, duration_us: f64, c: &Counters) -> String {
    format!(
        "{},{duration_us:?},{},{},{},{},{},{},{}",
        cfg.label(),
        c.warp_instructions,
        c.l1_tag_requests_global,
        c.l1_sector_misses,
        c.l2_sector_misses,
        c.shared_wavefronts,
        c.atomic_passes,
        c.divergent_branches
    )
}

fn golden_rows() -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && *l != HEADER)
        .collect()
}

fn check(
    index: usize,
    cfg: KernelConfig,
    rel_error: f64,
    duration_us: f64,
    counters: &Counters,
) -> Result<(), String> {
    if rel_error.is_nan() || rel_error >= MAX_REL_ERROR {
        return Err(format!(
            "{}: relative error {rel_error:e} vs the CPU reference",
            cfg.label()
        ));
    }
    let row = golden_row(cfg, duration_us, counters);
    match golden_rows().get(index) {
        Some(&want) if want == row => Ok(()),
        want => Err(format!("{}: got {row}, golden {want:?}", cfg.label())),
    }
}

/// The golden file, regenerated from the repository's own runner.
pub fn print_golden(seed: u64) -> Result<(), String> {
    let exp = Experiment::new(L, seed);
    let mut problem = DslashProblem::<Z>::random(L, seed);
    println!(
        "# Warm Table I launches at L={L} on the volume-matched {} ({} SM); \
         regenerate with --workload table1 --print-golden",
        exp.device.name, exp.device.num_sms
    );
    println!("{HEADER}");
    for col in columns() {
        let out = run_config_warm(
            &mut problem,
            col.cfg,
            col.local_size,
            &exp.device,
            QueueMode::OutOfOrder,
        )
        .map_err(|e| format!("{}: {e}", col.cfg.label()))?;
        println!(
            "{}",
            golden_row(col.cfg, out.report.duration_us, &out.report.counters)
        );
    }
    Ok(())
}

fn setup(seed: u64) -> DslashProblem<Z> {
    let mut problem = DslashProblem::<Z>::random(L, seed);
    problem.reference();
    problem
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let exp = Experiment::new(L, args.seed);
    let cols = columns();
    if args.trace {
        return traced(args, &exp, &cols);
    }
    let (setup_s, mut problem) = timed_setups(|| Ok(setup(args.seed)))?;
    let run = measure(args.seconds, |run| {
        for (i, col) in cols.iter().enumerate() {
            let t = Instant::now();
            let out = run_config_warm(
                &mut problem,
                col.cfg,
                col.local_size,
                &exp.device,
                QueueMode::OutOfOrder,
            );
            let elapsed = t.elapsed();
            run.op(
                elapsed,
                out.map_err(|e| format!("{}: {e}", col.cfg.label()))
                    .and_then(|o| {
                        check(
                            i,
                            col.cfg,
                            o.error.rel,
                            o.report.duration_us,
                            &o.report.counters,
                        )
                    }),
            );
        }
        Ok(())
    })?;
    Outcome::untraced(setup_s, run)
}

/// One configuration through the mirror: cold launch, warm launch,
/// read-back, validation — `run_config_warm`'s steps, each charged to
/// its layer.  Returns the warm report and the output's relative error.
fn mirrored_column(
    problem: &mut DslashProblem<Z>,
    exp: &Experiment,
    col: &Column,
    layers: &mut Layers,
    mut sample: Option<&mut WarpSample>,
) -> Result<(MirrorReport, MirrorReport, f64), String> {
    let label = col.cfg.label();
    let _span = obs::span_on("hostbench", &label);
    let range = problem.launch_range(col.cfg, col.local_size);
    let kernel = problem.make_kernel(col.cfg, range.num_groups());
    let mut mirror = layers.time(Layer::Engine, || Mirror::new(&exp.device));
    let mut reports = Vec::with_capacity(2);
    for _ in 0..2 {
        layers.time(Layer::Problem, || problem.zero_output());
        let _launch = obs::span_on("hostbench", "mirror.launch");
        reports.push(
            mirror
                .launch(
                    kernel.as_ref(),
                    range,
                    problem.memory(),
                    layers,
                    sample.as_deref_mut(),
                )
                .map_err(|e| format!("{label}: {e}"))?,
        );
    }
    let [cold, warm]: [MirrorReport; 2] = reports.try_into().expect("two launches");
    let out = layers.time(Layer::Problem, || problem.read_output());
    let err = layers.time(Layer::Validate, || {
        compare_to_reference(&out, problem.reference())
    });
    Ok((cold, warm, err.rel))
}

fn traced(args: &Args, exp: &Experiment, cols: &[Column]) -> Result<Outcome, String> {
    let mut report = LayerReport::default();
    record_pack(&mut report, L, args.seed);
    let mut problem = setup(args.seed);
    record_cpu_paths(&mut report, problem.gauge(), problem.source(), Parity::Even);

    // Verification pass, untimed: the mirror must reproduce the real
    // launcher on every configuration; its launches supply the warps the
    // replay sub-models are re-driven over.
    let mut sample = Vec::new();
    let (mut mirror_s, mut launcher_s) = (0.0, 0.0);
    for col in cols {
        let mut verify = Layers::default();
        let (cold, warm, _) =
            mirrored_column(&mut problem, exp, col, &mut verify, Some(&mut sample))?;
        mirror_s += verify.launch_seconds();
        let mirror_out = problem.read_output();
        let range = problem.launch_range(col.cfg, col.local_size);
        let kernel = problem.make_kernel(col.cfg, range.num_groups());
        let (secs, _) = check_against_launcher(
            &problem,
            kernel.as_ref(),
            range,
            &exp.device,
            &[cold, warm],
            &mirror_out,
        )
        .map_err(|e| format!("{}: {e}", col.cfg.label()))?;
        launcher_s += secs;
    }

    let trace = Traced::install();
    let mut layers = Layers::default();
    let run = measure(args.seconds, |run| {
        for (i, col) in cols.iter().enumerate() {
            let t = Instant::now();
            let result = mirrored_column(&mut problem, exp, col, &mut layers, None);
            let elapsed = t.elapsed();
            run.op(
                elapsed,
                result.and_then(|(_, warm, rel)| {
                    check(i, col.cfg, rel, warm.duration_us, &warm.counters)
                }),
            );
        }
        Ok(())
    })?;
    trace.finish(args)?;
    report.record_layers(&layers, &run.pass_s, &redrive(&sample, &exp.device))?;
    report.set(
        "engine.mirror_gap_pct",
        100.0 * (mirror_s / launcher_s - 1.0),
    );
    Ok(Outcome::traced(report, run))
}
