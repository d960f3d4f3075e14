//! Conjugate-gradient solver on the staggered normal operator — the
//! production context of the Dslash kernel.
//!
//! MILC's `su3_rhmd_hisq` (Section I) spends most of its time solving
//! `(m^2 - D^2) x = b` on one parity with CG; every CG iteration applies
//! Dslash twice.  The staggered Dslash built here is anti-Hermitian
//! (backward links are negated adjoints), so the even-parity normal
//! operator
//!
//! ```text
//! A = m^2 I - D_eo D_oe
//! ```
//!
//! is Hermitian positive definite and plain CG applies.  The operator is
//! evaluated with the rayon-parallel CPU Dslash; the solver is what the
//! `cg_solver` example runs.

use crate::obs;
use crate::parallel_cpu::dslash_par_into;
use crate::problem::DslashProblem;
use crate::staticcheck::estimate_config;
use crate::strategy::KernelConfig;
use crate::tune::{TuneError, Tuner};
use crate::validate::compare_to_reference;
use gpu_sim::{
    estimate_stream, DeviceSpec, DeviceState, Launcher, QueueMode, RegimeCalibration,
    StreamEstimate,
};
use milc_complex::ComplexField;
use milc_lattice::{ColorVector, GaugeField, Lattice, NeighborTable, Parity, QuarkField};

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgSolution<C> {
    /// The solution on the even checkerboard.
    pub x: Vec<ColorVector<C>>,
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual `||b - A x|| / ||b||`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Anything that can play the normal operator `A` in CG — the CPU
/// [`NormalOperator`] or the device-backed, autotuned
/// [`DeviceNormalOperator`].
pub trait NormalOp<C: ComplexField> {
    /// `out = A x`.
    fn apply_op(&mut self, x: &[ColorVector<C>], out: &mut [ColorVector<C>]);
}

/// Apply the even-parity normal operator `A x = m^2 x - D_eo (D_oe x)`.
///
/// `x` is an even-checkerboard vector; scratch fields avoid per-call
/// allocation.
pub struct NormalOperator<'a, C: ComplexField> {
    gauge: &'a GaugeField<C>,
    nt: NeighborTable,
    mass: f64,
    full: QuarkField<C>,
    odd: Vec<ColorVector<C>>,
    even: Vec<ColorVector<C>>,
}

impl<'a, C: ComplexField> NormalOperator<'a, C> {
    /// Build the operator for a gauge field and quark mass.
    ///
    /// # Panics
    /// Panics if `mass` is not positive (the normal operator would not
    /// be positive definite).
    pub fn new(gauge: &'a GaugeField<C>, mass: f64) -> Self {
        assert!(mass > 0.0, "quark mass must be positive for CG");
        let lattice = gauge.lattice();
        Self {
            gauge,
            nt: NeighborTable::build(lattice),
            mass,
            full: QuarkField::zeros(lattice),
            odd: vec![ColorVector::zero(); lattice.half_volume()],
            even: vec![ColorVector::zero(); lattice.half_volume()],
        }
    }

    /// The quark mass.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// `out = A x`.
    pub fn apply(&mut self, x: &[ColorVector<C>], out: &mut [ColorVector<C>]) {
        let lattice = self.gauge.lattice().clone();
        assert_eq!(x.len(), lattice.half_volume(), "operand length mismatch");
        assert_eq!(out.len(), lattice.half_volume(), "output length mismatch");

        // Scatter x onto the even sites of a full-lattice field.
        for s in 0..lattice.volume() {
            *self.full.site_mut(s) = ColorVector::zero();
        }
        for (cb, v) in x.iter().enumerate() {
            let s = lattice.site_of_checkerboard(cb, Parity::Even);
            *self.full.site_mut(s) = *v;
        }
        // odd = D_oe x.
        dslash_par_into(self.gauge, &self.full, &self.nt, Parity::Odd, &mut self.odd);
        // Scatter odd onto the odd sites.
        for s in 0..lattice.volume() {
            *self.full.site_mut(s) = ColorVector::zero();
        }
        for (cb, v) in self.odd.iter().enumerate() {
            let s = lattice.site_of_checkerboard(cb, Parity::Odd);
            *self.full.site_mut(s) = *v;
        }
        // even = D_eo odd.
        dslash_par_into(
            self.gauge,
            &self.full,
            &self.nt,
            Parity::Even,
            &mut self.even,
        );

        let m2 = self.mass * self.mass;
        for cb in 0..lattice.half_volume() {
            out[cb] = x[cb].scale(m2) - self.even[cb];
        }
    }
}

impl<C: ComplexField> NormalOp<C> for NormalOperator<'_, C> {
    fn apply_op(&mut self, x: &[ColorVector<C>], out: &mut [ColorVector<C>]) {
        self.apply(x, out);
    }
}

/// The normal operator evaluated on the *simulated device* at a local
/// size chosen by the autotuner — the production shape of the paper's
/// kernel: MILC's CG spends its time in exactly this `D_oe` / `D_eo`
/// pair, and QUDA runs it at autotuned launch parameters.
///
/// Two packed problems share the gauge field: one targets the odd
/// parity (`D_oe x`), one the even (`D_eo y`).  Their device caches
/// stay warm across CG iterations (each problem keeps a
/// [`DeviceState`]), and only the source vector is repacked per
/// application ([`DslashProblem::set_source`]).  The first application
/// of each problem validates against the CPU reference; later ones
/// skip the host-side check, like [`SimulatedDslash`](crate::operator::SimulatedDslash).
pub struct DeviceNormalOperator<'d, C: ComplexField> {
    mass: f64,
    cfg: KernelConfig,
    local_size: u32,
    tuned_from_cache: bool,
    lattice: Lattice,
    /// Parity-odd problem: computes `D_oe x`.
    oe: DslashProblem<C>,
    /// Parity-even problem: computes `D_eo y`.
    eo: DslashProblem<C>,
    state_oe: DeviceState,
    state_eo: DeviceState,
    device: &'d DeviceSpec,
    launcher: Launcher<'d>,
    full: QuarkField<C>,
    validated: bool,
    applications: u64,
}

impl<'d, C: ComplexField> DeviceNormalOperator<'d, C> {
    /// Build the operator with the local size the tuner picks for
    /// `cfg` on this lattice/device (cache hit ⇒ zero sweep launches).
    ///
    /// # Panics
    /// Panics if `mass` is not positive.
    pub fn new_tuned(
        gauge: &GaugeField<C>,
        mass: f64,
        cfg: KernelConfig,
        device: &'d DeviceSpec,
        tuner: &mut Tuner,
    ) -> Result<Self, TuneError> {
        assert!(mass > 0.0, "quark mass must be positive for CG");
        let lattice = gauge.lattice().clone();
        // A deterministic nonzero source makes the tuning sweep's
        // validation meaningful; every apply replaces it anyway.
        let probe = QuarkField::random(&lattice, 0x7E57_0CA5);
        let mut oe = DslashProblem::from_fields(gauge.clone(), probe.clone(), Parity::Odd);
        let eo = DslashProblem::from_fields(gauge.clone(), probe, Parity::Even);

        // One tune decision serves both parities: the key is (device,
        // dims, kernel label), and both problems share all three.
        let decision = tuner.tune(&mut oe, cfg, device, QueueMode::OutOfOrder)?;
        // CG iterations launch at the tuned layout, not just the tuned
        // size — the cached entry carries the winning layout's tag.
        let cfg = decision.tuned_config(cfg);
        Ok(Self {
            mass,
            cfg,
            local_size: decision.entry.local_size,
            tuned_from_cache: decision.from_cache,
            lattice,
            oe,
            eo,
            state_oe: DeviceState::new(device),
            state_eo: DeviceState::new(device),
            device,
            launcher: Launcher::new(device),
            full: QuarkField::zeros(gauge.lattice()),
            validated: false,
            applications: 0,
        })
    }

    /// The tuned work-group size CG iterations launch at.
    pub fn local_size(&self) -> u32 {
        self.local_size
    }

    /// Whether the tuning decision came from the cache.
    pub fn tuned_from_cache(&self) -> bool {
        self.tuned_from_cache
    }

    /// Device Dslash applications so far (two per operator apply).
    pub fn applications(&self) -> u64 {
        self.applications
    }

    /// The configuration in use.
    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// Scatter a checkerboard vector onto one parity of `self.full`,
    /// zeroing the other parity.
    fn scatter(&mut self, v: &[ColorVector<C>], parity: Parity) {
        for s in 0..self.lattice.volume() {
            *self.full.site_mut(s) = ColorVector::zero();
        }
        for (cb, x) in v.iter().enumerate() {
            *self
                .full
                .site_mut(self.lattice.site_of_checkerboard(cb, parity)) = *x;
        }
    }

    /// Run one parity's Dslash at the tuned local size.  The launch
    /// geometry was certified during tuning, so a failure here is a
    /// simulator bug, not a recoverable condition.
    fn launch(
        problem: &mut DslashProblem<C>,
        state: &mut DeviceState,
        launcher: &Launcher<'d>,
        device: &DeviceSpec,
        cfg: KernelConfig,
        local_size: u32,
        validate: bool,
    ) -> Vec<ColorVector<C>> {
        problem.zero_output();
        let range = problem.launch_range(cfg, local_size);
        let kernel = problem.make_kernel(cfg, range.num_groups());
        let label = cfg.label();
        let span = obs::span_on(&label, "dslash");
        let report = launcher
            .launch_with_state(kernel.as_ref(), range, problem.memory(), state)
            .expect("tuned launch geometry was certified by the sweep");
        obs::record_launch(&span, &label, &report, device, 0.0);
        drop(span);
        let out = problem.read_output();
        if validate {
            let tol = problem.validation_tolerance();
            let err = compare_to_reference(&out, problem.reference());
            assert!(
                err.rel < tol,
                "device Dslash diverged from the CPU reference: {err:?} (tolerance {tol:e})"
            );
        }
        out
    }
}

impl<C: ComplexField> NormalOp<C> for DeviceNormalOperator<'_, C> {
    fn apply_op(&mut self, x: &[ColorVector<C>], out: &mut [ColorVector<C>]) {
        let hv = self.lattice.half_volume();
        assert_eq!(x.len(), hv, "operand length mismatch");
        assert_eq!(out.len(), hv, "output length mismatch");
        let validate = !self.validated;

        // odd = D_oe x.
        self.scatter(x, Parity::Even);
        let src = self.full.clone();
        self.oe.set_source(&src);
        let odd = Self::launch(
            &mut self.oe,
            &mut self.state_oe,
            &self.launcher,
            self.device,
            self.cfg,
            self.local_size,
            validate,
        );

        // even = D_eo odd.
        self.scatter(&odd, Parity::Odd);
        let src = self.full.clone();
        self.eo.set_source(&src);
        let even = Self::launch(
            &mut self.eo,
            &mut self.state_eo,
            &self.launcher,
            self.device,
            self.cfg,
            self.local_size,
            validate,
        );

        self.validated = true;
        self.applications += 2;
        let m2 = self.mass * self.mass;
        for cb in 0..hv {
            out[cb] = x[cb].scale(m2) - even[cb];
        }
    }
}

/// Hermitian inner product of two checkerboard vectors (real part; the
/// imaginary part vanishes for the arguments CG uses).
fn dot<C: ComplexField>(a: &[ColorVector<C>], b: &[ColorVector<C>]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dot(y).re()).sum()
}

fn norm<C: ComplexField>(a: &[ColorVector<C>]) -> f64 {
    a.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
}

/// Solve `A x = b` with plain CG against any [`NormalOp`] — the one CG
/// entry point.  Build a [`NormalOperator`] for the CPU or a
/// [`DeviceNormalOperator`] for the simulated device at the tuned
/// launch configuration; the device operator reports the tuning
/// provenance and launch count itself
/// ([`local_size`](DeviceNormalOperator::local_size),
/// [`tuned_from_cache`](DeviceNormalOperator::tuned_from_cache),
/// [`applications`](DeviceNormalOperator::applications)).
pub fn solve_with<C: ComplexField, Op: NormalOp<C> + ?Sized>(
    op: &mut Op,
    b: &[ColorVector<C>],
    tol: f64,
    max_iter: usize,
) -> CgSolution<C> {
    let n = b.len();
    let bnorm = norm(b).max(1e-300);

    let solve_span = obs::span_on("cg", "cg.solve");
    solve_span.attr("n", n as u64);
    solve_span.attr("tol", tol);
    solve_span.attr("max_iter", max_iter as u64);

    let mut x = vec![ColorVector::<C>::zero(); n];
    let mut r = b.to_vec();
    let mut p = b.to_vec();
    let mut ap = vec![ColorVector::<C>::zero(); n];
    let mut rr = dot(&r, &r);

    let mut iterations = 0;
    while iterations < max_iter && rr.sqrt() / bnorm > tol {
        let iter_span = obs::span_on("cg", "cg.iter");
        let rel = rr.sqrt() / bnorm;
        iter_span.attr("k", iterations as u64);
        iter_span.attr("residual", rel);
        obs::metric_gauge("cg_residual", &[], rel);
        obs::counter_sample("cg residual", rel);
        op.apply_op(&p, &mut ap);
        let pap = dot(&p, &ap);
        assert!(
            pap > 0.0,
            "normal operator lost positive definiteness (pAp = {pap})"
        );
        let alpha = rr / pap;
        for cb in 0..n {
            x[cb] += p[cb].scale(alpha);
            r[cb] -= ap[cb].scale(alpha);
        }
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        for cb in 0..n {
            p[cb] = r[cb] + p[cb].scale(beta);
        }
        rr = rr_new;
        iterations += 1;
        drop(iter_span);
    }

    // True residual (not the recurrence's): b - A x.
    {
        let _check = obs::span_on("cg", "cg.true_residual");
        op.apply_op(&x, &mut ap);
    }
    let mut true_r = 0.0f64;
    for cb in 0..n {
        true_r += (b[cb] - ap[cb]).norm_sqr();
    }
    let relative_residual = true_r.sqrt() / bnorm;
    solve_span.attr("iterations", iterations as u64);
    solve_span.attr("relative_residual", relative_residual);
    obs::metric_gauge("cg_residual", &[], relative_residual);
    obs::metric_inc("cg_iterations_total", &[], iterations as u64);
    CgSolution {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= tol * 10.0,
    }
}

/// Statically estimate the launch stream of a tuned CG solve — the
/// [`DeviceNormalOperator`]'s exact launch mix, *without running it*:
/// each operator application launches `D_oe` then `D_eo`, each on its
/// own persistent [`DeviceState`], so per parity the first launch runs
/// cold and the remaining `applies − 1` run warm.  `applies` counts
/// operator applications (CG iterations plus the final true-residual
/// check); the stream then holds `2 × applies` launches of which 2 are
/// cold.  Durations compose per-kernel [`gpu_sim::CostEstimate`]s via
/// [`gpu_sim::estimate_stream`] under the shared
/// [`RegimeCalibration::committed`] table —
/// [`StreamEstimate::calibrated_us`] is directly comparable to the
/// solve's summed measured launch durations.
///
/// `cfg` and `local_size` should be the tuned decision (layout applied);
/// counters are value-independent, so the estimate holds for any source
/// vector.
///
/// # Errors
/// The cost model's reason when either parity's launch cannot be
/// estimated.
pub fn estimate_solve_stream<C: ComplexField>(
    gauge: &GaugeField<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    applies: u64,
) -> Result<StreamEstimate, String> {
    let lattice = gauge.lattice();
    // Any deterministic source works: the estimated counters do not
    // depend on the values flowing through the kernel.
    let probe = QuarkField::random(lattice, 0x7E57_0CA5);
    let oe = DslashProblem::from_fields(gauge.clone(), probe.clone(), Parity::Odd);
    let eo = DslashProblem::from_fields(gauge.clone(), probe, Parity::Even);
    let est_oe = estimate_config(&oe, cfg, local_size, device)?;
    let est_eo = estimate_config(&eo, cfg, local_size, device)?;
    Ok(estimate_stream(
        &[&est_oe, &est_eo],
        applies,
        &RegimeCalibration::committed(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::recommended_config;
    use milc_complex::DoubleComplex as Z;
    use milc_lattice::Lattice;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_even_vector(lattice: &Lattice, seed: u64) -> Vec<ColorVector<Z>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..lattice.half_volume())
            .map(|_| {
                ColorVector::new(
                    Z::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                    Z::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                    Z::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                )
            })
            .collect()
    }

    #[test]
    fn normal_operator_is_hermitian_positive_definite() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 42);
        let mut op = NormalOperator::new(&gauge, 0.5);
        let x = random_even_vector(&lattice, 1);
        let y = random_even_vector(&lattice, 2);
        let mut ax = vec![ColorVector::zero(); x.len()];
        let mut ay = vec![ColorVector::zero(); y.len()];
        op.apply(&x, &mut ax);
        op.apply(&y, &mut ay);
        // <y, Ax> == <Ay, x> (Hermitian).
        let lhs: f64 = y.iter().zip(&ax).map(|(a, b)| a.dot(b).re()).sum();
        let rhs: f64 = ay.iter().zip(&x).map(|(a, b)| a.dot(b).re()).sum();
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
        // <x, Ax> > 0 (positive definite).
        let xax: f64 = x.iter().zip(&ax).map(|(a, b)| a.dot(b).re()).sum();
        assert!(xax > 0.0);
    }

    #[test]
    fn cg_converges_and_residual_is_small() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 7);
        let b = random_even_vector(&lattice, 3);
        let sol = solve_with(&mut NormalOperator::new(&gauge, 1.0), &b, 1e-10, 500);
        assert!(sol.converged, "residual {}", sol.relative_residual);
        assert!(sol.relative_residual < 1e-9);
        assert!(sol.iterations > 0 && sol.iterations < 500);
    }

    #[test]
    fn heavier_mass_converges_faster() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 9);
        let b = random_even_vector(&lattice, 4);
        let light = solve_with(&mut NormalOperator::new(&gauge, 0.1), &b, 1e-8, 2000);
        let heavy = solve_with(&mut NormalOperator::new(&gauge, 2.0), &b, 1e-8, 2000);
        assert!(light.converged && heavy.converged);
        assert!(
            heavy.iterations < light.iterations,
            "heavy {} vs light {}",
            heavy.iterations,
            light.iterations
        );
    }

    #[test]
    fn solution_solves_the_system() {
        // Verify A x ~= b by direct application.
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 11);
        let b = random_even_vector(&lattice, 5);
        let mut op = NormalOperator::new(&gauge, 0.8);
        let sol = solve_with(&mut op, &b, 1e-11, 1000);
        let mut ax = vec![ColorVector::zero(); b.len()];
        op.apply(&sol.x, &mut ax);
        for cb in 0..b.len() {
            assert!((b[cb] - ax[cb]).norm_sqr() < 1e-16);
        }
    }

    #[test]
    fn device_operator_matches_cpu_operator() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 21);
        let device = DeviceSpec::test_small();
        let mut tuner = Tuner::in_memory();
        let mut dev_op =
            DeviceNormalOperator::new_tuned(&gauge, 0.7, recommended_config(), &device, &mut tuner)
                .unwrap();
        let mut cpu_op = NormalOperator::new(&gauge, 0.7);
        let x = random_even_vector(&lattice, 30);
        let mut dev_out = vec![ColorVector::zero(); x.len()];
        let mut cpu_out = vec![ColorVector::zero(); x.len()];
        dev_op.apply_op(&x, &mut dev_out);
        cpu_op.apply_op(&x, &mut cpu_out);
        for cb in 0..x.len() {
            let d = (dev_out[cb] - cpu_out[cb]).norm_sqr().sqrt();
            let scale = cpu_out[cb].norm_sqr().sqrt().max(1.0);
            assert!(d / scale < 1e-10, "site {cb}: {d}");
        }
        assert_eq!(dev_op.applications(), 2);
    }

    #[test]
    fn tuned_solve_converges_and_reuses_the_cache() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 23);
        let b = random_even_vector(&lattice, 31);
        let device = DeviceSpec::test_small();
        let mut tuner = Tuner::in_memory();

        let mut tuned_solve = || {
            let mut op = DeviceNormalOperator::new_tuned(
                &gauge,
                1.0,
                recommended_config(),
                &device,
                &mut tuner,
            )
            .unwrap();
            let sol = solve_with(&mut op, &b, 1e-8, 200);
            (op, sol)
        };

        let (first_op, first) = tuned_solve();
        assert!(first.converged, "{}", first.relative_residual);
        assert!(!first_op.tuned_from_cache(), "cold tuner must sweep");
        assert!(first_op.applications() >= 2);

        // Same lattice/device/config: the second solve hits the cache.
        let (second_op, second) = tuned_solve();
        assert!(second_op.tuned_from_cache(), "warm tuner must not sweep");
        assert_eq!(second_op.local_size(), first_op.local_size());
        assert_eq!(second.iterations, first.iterations);

        // The tuned solution solves the same system the CPU solve does.
        let cpu = solve_with(&mut NormalOperator::new(&gauge, 1.0), &b, 1e-8, 200);
        for cb in 0..b.len() {
            let d = (first.x[cb] - cpu.x[cb]).norm_sqr().sqrt();
            assert!(d < 1e-6, "site {cb}: {d}");
        }
    }

    #[test]
    fn steady_state_launches_skip_replay() {
        let lattice = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lattice, 23);
        let b = random_even_vector(&lattice, 31);
        let device = DeviceSpec::test_small();
        let mut tuner = Tuner::in_memory();
        let tracer = obs::Tracer::new();
        let (sol, op) = {
            let _t = obs::set_tracer(&tracer);
            let mut op = DeviceNormalOperator::new_tuned(
                &gauge,
                1.0,
                recommended_config(),
                &device,
                &mut tuner,
            )
            .unwrap();
            (solve_with(&mut op, &b, 1e-8, 200), op)
        };
        assert!(sol.converged);
        let trace = tracer.snapshot();
        let launches: Vec<_> = trace.spans.iter().filter(|s| s.name == "dslash").collect();
        assert_eq!(launches.len() as u64, op.applications());
        let replay = |s: &obs::SpanRecord| match s.attr("replay") {
            Some(obs::AttrValue::Str(r)) => r.clone(),
            other => panic!("launch span without a replay attr: {other:?}"),
        };
        // Per parity state: the first launch replays in full and
        // records, the second replays the recorded cache ops and finds
        // the fixed point, and every later one hits.
        assert!(launches[..2].iter().all(|s| replay(s) == "full"));
        assert!(launches[2..4].iter().all(|s| replay(s) == "cache"));
        let hits = launches.iter().filter(|s| replay(s) == "memo").count() as u64;
        assert_eq!(hits, op.applications() - 4);
        // The memo reproduces the replayed duration exactly: every warm
        // launch of a parity (launches alternate D_oe, D_eo) reports the
        // same modelled time.
        let duration = |s: &obs::SpanRecord| {
            s.attr("duration_us")
                .and_then(obs::AttrValue::as_num)
                .unwrap()
                .to_bits()
        };
        for (i, s) in launches.iter().enumerate().skip(2) {
            assert_eq!(duration(s), duration(launches[2 + i % 2]), "launch {i}");
        }
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn zero_mass_rejected() {
        let lattice = Lattice::hypercubic(2);
        let gauge = GaugeField::<Z>::random(&lattice, 1);
        let _ = NormalOperator::new(&gauge, 0.0);
    }

    #[test]
    #[should_panic(expected = "operand length mismatch")]
    fn wrong_length_rejected() {
        let lattice = Lattice::hypercubic(2);
        let gauge = GaugeField::<Z>::random(&lattice, 1);
        let mut op = NormalOperator::new(&gauge, 1.0);
        let x = vec![ColorVector::<Z>::zero(); 3];
        let mut out = vec![ColorVector::<Z>::zero(); 3];
        op.apply(&x, &mut out);
    }
}
