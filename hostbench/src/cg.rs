//! `cg`: a conjugate-gradient solve of the even-parity normal operator
//! `m² − D_eo D_oe` on the simulated device, at the local size and layout
//! the autotuner picks for the paper's recommended 3LP-1 kernel.
//!
//! Chosen because it drives the same engine as `table1` in the opposite
//! shape: many small warm launches of one tuned kernel, no atomics,
//! inside the production solve loop, where per-launch overhead and the
//! host-side copies (`set_source`, `zero_output`, `read_output`) weigh
//! more.  It runs at L = 4 (one solve takes about a second) with m = 0.5
//! and tolerance 1e-8; the gauge comes from the seed, the source from
//! seed + 1.
//!
//! Set-up builds the tuned `DeviceNormalOperator` (an exhaustive sweep on
//! an in-memory tuner) and applies it once, which runs its validation
//! against the CPU reference.  An operation is one operator application;
//! a pass is one solve from a zero start.  Checks: the solve converges
//! with a true relative residual at most 1e-7, and every solve repeats
//! the first one's iteration count and residual bit for bit.

use crate::layers::{record_cpu_paths, record_pack, Layer, LayerReport, Layers};
use crate::mirror::{check_against_launcher, redrive, Mirror, WarpSample};
use crate::{measure, timed_setups, Args, Outcome, Run, Traced};
use gpu_sim::{DeviceSpec, Launcher};
use milc_bench::Experiment;
use milc_complex::DoubleComplex as Z;
use milc_dslash::{
    compare_to_reference, obs, recommended_config, solve_with, CgSolution, DeviceNormalOperator,
    DslashProblem, KernelConfig, NormalOp, Tuner,
};
use milc_lattice::{ColorVector, GaugeField, Lattice, Parity, QuarkField};
use std::time::{Duration, Instant};

/// Lattice extent.
pub const L: usize = 4;
const MASS: f64 = 0.5;
const TOL: f64 = 1e-8;
const MAX_ITER: usize = 1000;
/// Largest true relative residual a converged solve may report.
const MAX_RESIDUAL: f64 = 1e-7;
/// The source `DeviceNormalOperator::new_tuned` packs before its first
/// application replaces it.
const PROBE_SOURCE_SEED: u64 = 0x7E57_0CA5;

type Vector = Vec<ColorVector<Z>>;

/// The gauge field and the even-parity right-hand side for `seed`.
fn inputs(seed: u64) -> (GaugeField<Z>, Vector) {
    let lattice = Lattice::hypercubic(L);
    let gauge = GaugeField::random(&lattice, seed);
    let source = QuarkField::random(&lattice, seed.wrapping_add(1));
    let b = (0..lattice.half_volume())
        .map(|cb| *source.site(lattice.site_of_checkerboard(cb, Parity::Even)))
        .collect();
    (gauge, b)
}

/// Times every application of the operator it wraps.
struct Timed<'a, Op> {
    op: &'a mut Op,
    applies: Vec<Duration>,
}

impl<Op: NormalOp<Z>> NormalOp<Z> for Timed<'_, Op> {
    fn apply_op(&mut self, x: &[ColorVector<Z>], out: &mut [ColorVector<Z>]) {
        let t = Instant::now();
        self.op.apply_op(x, out);
        self.applies.push(t.elapsed());
    }
}

/// One solve as a pass: every application is an operation, and all of
/// them share the solve's check.
fn solve_pass<Op: NormalOp<Z>>(
    op: &mut Op,
    b: &[ColorVector<Z>],
    first: &mut Option<(usize, u64)>,
    run: &mut Run,
) {
    let mut timed = Timed {
        op,
        applies: Vec::new(),
    };
    let sol = solve_with(&mut timed, b, TOL, MAX_ITER);
    let check = check_solution(&sol, first);
    for d in timed.applies {
        run.op(d, check.clone());
    }
}

fn check_solution(sol: &CgSolution<Z>, first: &mut Option<(usize, u64)>) -> Result<(), String> {
    if !sol.converged || sol.relative_residual.is_nan() || sol.relative_residual > MAX_RESIDUAL {
        return Err(format!(
            "solve did not converge: {} iterations, true residual {:e}",
            sol.iterations, sol.relative_residual
        ));
    }
    let this = (sol.iterations, sol.relative_residual.to_bits());
    match *first.get_or_insert(this) {
        want if want == this => Ok(()),
        (iters, bits) => Err(format!(
            "solve not repeatable: {} iterations, residual {:e} vs {iters}, {:e}",
            sol.iterations,
            sol.relative_residual,
            f64::from_bits(bits)
        )),
    }
}

/// Build the tuned operator and apply it once (its first application
/// validates against the CPU reference).
fn tuned_operator<'d>(
    gauge: &GaugeField<Z>,
    b: &[ColorVector<Z>],
    device: &'d DeviceSpec,
) -> Result<DeviceNormalOperator<'d, Z>, String> {
    let mut tuner = Tuner::in_memory();
    let mut op =
        DeviceNormalOperator::new_tuned(gauge, MASS, recommended_config(), device, &mut tuner)
            .map_err(|e| e.to_string())?;
    let mut out = vec![ColorVector::zero(); b.len()];
    op.apply_op(b, &mut out);
    Ok(op)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let exp = Experiment::new(L, args.seed);
    if args.trace {
        return traced(args, &exp.device);
    }
    let (setup_s, (b, mut op)) = timed_setups(|| {
        let (gauge, b) = inputs(args.seed);
        let op = tuned_operator(&gauge, &b, &exp.device)?;
        Ok((b, op))
    })?;
    let mut first = None;
    let run = measure(args.seconds, |run| {
        solve_pass(&mut op, &b, &mut first, run);
        Ok(())
    })?;
    Outcome::untraced(setup_s, run)
}

/// `DeviceNormalOperator::apply_op` rebuilt from public parts —
/// `DslashProblem::{from_fields, set_source, zero_output, read_output}`
/// and the launch mirror — with each step charged to its layer.
struct Replica<'d> {
    cfg: KernelConfig,
    local_size: u32,
    lattice: Lattice,
    oe: DslashProblem<Z>,
    eo: DslashProblem<Z>,
    mirrors: [Mirror<'d>; 2],
    full: QuarkField<Z>,
    validated: bool,
    layers: Layers,
    failure: Option<String>,
}

impl<'d> Replica<'d> {
    fn new(
        gauge: &GaugeField<Z>,
        cfg: KernelConfig,
        local_size: u32,
        device: &'d DeviceSpec,
    ) -> Self {
        let lattice = gauge.lattice().clone();
        let probe = QuarkField::random(&lattice, PROBE_SOURCE_SEED);
        Self {
            cfg,
            local_size,
            oe: DslashProblem::from_fields(gauge.clone(), probe.clone(), Parity::Odd),
            eo: DslashProblem::from_fields(gauge.clone(), probe, Parity::Even),
            mirrors: [Mirror::new(device), Mirror::new(device)],
            full: QuarkField::zeros(&lattice),
            lattice,
            validated: false,
            layers: Layers::default(),
            failure: None,
        }
    }

    /// `D_{parity}` applied to `v`, which lives on the other parity.
    fn dslash(&mut self, v: &[ColorVector<Z>], target: Parity) -> Vector {
        let source_parity = match target {
            Parity::Odd => Parity::Even,
            Parity::Even => Parity::Odd,
        };
        let (full, lattice) = (&mut self.full, &self.lattice);
        self.layers.time(Layer::Solver, || {
            for s in 0..lattice.volume() {
                *full.site_mut(s) = ColorVector::zero();
            }
            for (cb, x) in v.iter().enumerate() {
                *full.site_mut(lattice.site_of_checkerboard(cb, source_parity)) = *x;
            }
        });
        let (problem, mirror) = match target {
            Parity::Odd => (&mut self.oe, &mut self.mirrors[0]),
            Parity::Even => (&mut self.eo, &mut self.mirrors[1]),
        };
        let layers = &mut self.layers;
        let src = self.full.clone();
        layers.time(Layer::Problem, || {
            problem.set_source(&src);
            problem.zero_output();
        });
        let range = problem.launch_range(self.cfg, self.local_size);
        let kernel = problem.make_kernel(self.cfg, range.num_groups());
        if let Err(e) = mirror.launch(kernel.as_ref(), range, problem.memory(), layers, None) {
            self.failure.get_or_insert(format!("launch: {e}"));
        }
        let out = layers.time(Layer::Problem, || problem.read_output());
        if !self.validated {
            let tol = problem.validation_tolerance();
            let err = layers.time(Layer::Validate, || {
                compare_to_reference(&out, problem.reference())
            });
            if err.rel.is_nan() || err.rel >= tol {
                self.failure
                    .get_or_insert(format!("first application off by {:e}", err.rel));
            }
        }
        out
    }
}

impl NormalOp<Z> for Replica<'_> {
    fn apply_op(&mut self, x: &[ColorVector<Z>], out: &mut [ColorVector<Z>]) {
        let _span = obs::span_on("hostbench", "apply");
        let odd = self.dslash(x, Parity::Odd);
        let even = self.dslash(&odd, Parity::Even);
        self.validated = true;
        let m2 = MASS * MASS;
        self.layers.time(Layer::Solver, || {
            for (o, (xi, ei)) in out.iter_mut().zip(x.iter().zip(&even)) {
                *o = xi.scale(m2) - *ei;
            }
        });
    }
}

/// Warm launches per side when timing the mirror against `Launcher`;
/// one L = 4 launch takes about 3 ms, too short to compare singly.
const GAP_REPS: usize = 20;

/// A cold and a warm launch of the tuned kernel through the mirror and
/// through `Launcher`, which must agree bit for bit; then [`GAP_REPS`]
/// alternating warm launches per side.  Returns the host seconds of each
/// side's timed launches and the mirror's sampled warps.
fn verify_against_launcher(
    gauge: &GaugeField<Z>,
    b: &[ColorVector<Z>],
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
) -> Result<(f64, f64, WarpSample), String> {
    let lattice = gauge.lattice();
    let mut source = QuarkField::zeros(lattice);
    for (cb, x) in b.iter().enumerate() {
        *source.site_mut(lattice.site_of_checkerboard(cb, Parity::Even)) = *x;
    }
    let problem = DslashProblem::from_fields(gauge.clone(), source, Parity::Odd);
    let range = problem.launch_range(cfg, local_size);
    let kernel = problem.make_kernel(cfg, range.num_groups());
    let mut layers = Layers::default();
    let mut mirror = Mirror::new(device);
    let mut sample = Vec::new();
    let mut mirrored = Vec::new();
    for _ in 0..2 {
        problem.zero_output();
        mirrored.push(
            mirror
                .launch(
                    kernel.as_ref(),
                    range,
                    problem.memory(),
                    &mut layers,
                    Some(&mut sample),
                )
                .map_err(|e| e.to_string())?,
        );
    }
    let mirror_out = problem.read_output();
    let (_, mut state) = check_against_launcher(
        &problem,
        kernel.as_ref(),
        range,
        device,
        &mirrored,
        &mirror_out,
    )
    .map_err(|e| format!("{}: {e}", cfg.label()))?;
    let launcher = Launcher::new(device);
    let (mut mirror_s, mut launcher_s) = (0.0, 0.0);
    for _ in 0..GAP_REPS {
        let t = Instant::now();
        mirror
            .launch(kernel.as_ref(), range, problem.memory(), &mut layers, None)
            .map_err(|e| e.to_string())?;
        mirror_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        launcher
            .launch_with_state(kernel.as_ref(), range, problem.memory(), &mut state)
            .map_err(|e| e.to_string())?;
        launcher_s += t.elapsed().as_secs_f64();
    }
    Ok((mirror_s, launcher_s, sample))
}

fn traced(args: &Args, device: &DeviceSpec) -> Result<Outcome, String> {
    let mut report = LayerReport::default();
    let (gauge, b) = inputs(args.seed);

    // The real operator fixes the tuned launch and the solve the replica
    // must reproduce exactly.
    let mut op = tuned_operator(&gauge, &b, device)?;
    let (cfg, local_size) = (op.config(), op.local_size());
    let real = solve_with(&mut op, &b, TOL, MAX_ITER);
    let mut first = None;
    check_solution(&real, &mut first)?;

    let (mirror_s, launcher_s, sample) =
        verify_against_launcher(&gauge, &b, cfg, local_size, device)?;
    record_pack(&mut report, L, args.seed);
    let mut replica = Replica::new(&gauge, cfg, local_size, device);
    let mut out = vec![ColorVector::zero(); b.len()];
    replica.apply_op(&b, &mut out);
    replica.layers = Layers::default();
    record_cpu_paths(&mut report, &gauge, replica.oe.source(), Parity::Odd);

    let trace = Traced::install();
    let run = measure(args.seconds, |run| {
        solve_pass(&mut replica, &b, &mut first, run);
        match replica.failure.take() {
            Some(why) => Err(why),
            None => Ok(()),
        }
    })?;
    trace.finish(args)?;

    // Time in the solve outside the operator is CG's own vector work.
    let total_s: f64 = run.pass_s.iter().sum();
    let apply_s: f64 = run.op_ms.iter().sum::<f64>() / 1e3;
    replica.layers.add(
        Layer::Solver,
        Duration::from_secs_f64((total_s - apply_s).max(0.0)),
    );
    report.record_layers(&replica.layers, &run.pass_s, &redrive(&sample, device))?;
    report.set(
        "engine.mirror_gap_pct",
        100.0 * (mirror_s / launcher_s - 1.0),
    );
    report.set(
        "solver.applies",
        run.op_ms.len() as f64 / run.pass_s.len() as f64,
    );
    report.set("solver.iterations", real.iterations as f64);
    Ok(Outcome::traced(report, run))
}
