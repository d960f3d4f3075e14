//! High-level operator API: the entry point a downstream user adopts.
//!
//! [`SimulatedDslash`] bundles a packed problem, a device, a strategy
//! configuration and persistent warm-cache state behind a two-method
//! interface: [`apply`](SimulatedDslash::apply) runs one Dslash on the
//! simulated device (validating on first use), and accessors expose the
//! performance artifacts (GFLOP/s, the Nsight-style profile, the
//! modelled-time breakdown).
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use milc_complex::DoubleComplex;
//! use milc_dslash::operator::SimulatedDslash;
//!
//! let device = DeviceSpec::test_small();
//! let mut dslash = SimulatedDslash::<DoubleComplex>::build(4, 42, &device).unwrap();
//! let out = dslash.apply().unwrap().to_vec();
//! assert_eq!(out.len(), 128); // 4^4 / 2 target sites
//! assert!(dslash.last_gflops() > 0.0);
//! ```

use crate::problem::DslashProblem;
use crate::strategy::{IndexOrder, KernelConfig, Strategy};
use crate::theoretical_flops;
use crate::tune::{TuneError, Tuner};
use crate::validate::compare_to_reference;
use gpu_sim::QueueMode;
use gpu_sim::{
    DeviceSpec, DeviceState, LaunchReport, Launcher, ProfileReport, SimError, TimeBreakdown,
    TimingModel,
};
use milc_complex::ComplexField;
use milc_lattice::ColorVector;

/// The paper's recommendation: the configuration that won its study —
/// 3LP-1 (local-memory reduction, no atomics) in k-major order
/// (Section V: "The peak performance is achieved by 3LP-1").
pub fn recommended_config() -> KernelConfig {
    KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor)
}

/// A ready-to-apply Dslash operator on the simulated device.
pub struct SimulatedDslash<'d, C: ComplexField> {
    problem: DslashProblem<C>,
    device: &'d DeviceSpec,
    cfg: KernelConfig,
    local_size: u32,
    state: DeviceState,
    launcher: Launcher<'d>,
    last_report: Option<LaunchReport>,
    validated: bool,
}

impl<'d, C: ComplexField> SimulatedDslash<'d, C> {
    /// Build with a random problem, the paper's recommended strategy and
    /// the largest legal work-group size.
    pub fn build(l: usize, seed: u64, device: &'d DeviceSpec) -> Result<Self, SimError> {
        let problem = DslashProblem::random(l, seed);
        Self::with_problem(problem, recommended_config(), None, device)
    }

    /// Build from an existing problem and explicit configuration.
    /// `local_size = None` picks the largest legal work-group size.
    pub fn with_problem(
        problem: DslashProblem<C>,
        cfg: KernelConfig,
        local_size: Option<u32>,
        device: &'d DeviceSpec,
    ) -> Result<Self, SimError> {
        let hv = problem.lattice().half_volume() as u64;
        let local_size = match local_size {
            Some(ls) => {
                problem.check_local_size(cfg, ls, device)?;
                ls
            }
            None => *cfg
                .legal_local_sizes(hv)
                .last()
                .ok_or(SimError::InvalidLocalSize {
                    local: 0,
                    max: device.max_group_size,
                })?,
        };
        Ok(Self {
            problem,
            device,
            cfg,
            local_size,
            state: DeviceState::new(device),
            launcher: Launcher::new(device),
            last_report: None,
            validated: false,
        })
    }

    /// Build from an existing problem with the local size and layout
    /// chosen by the autotuner (consulting its cache; sweeping on a
    /// miss) instead of defaulting to the largest legal size.
    pub fn with_problem_tuned(
        mut problem: DslashProblem<C>,
        cfg: KernelConfig,
        device: &'d DeviceSpec,
        tuner: &mut Tuner,
    ) -> Result<Self, TuneError> {
        let decision = tuner.tune(&mut problem, cfg, device, QueueMode::OutOfOrder)?;
        let cfg = decision.tuned_config(cfg);
        Ok(
            Self::with_problem(problem, cfg, Some(decision.entry.local_size), device)
                .expect("the tuner only selects legal local sizes"),
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// The work-group size in use.
    pub fn local_size(&self) -> u32 {
        self.local_size
    }

    /// The underlying problem.
    pub fn problem(&self) -> &DslashProblem<C> {
        &self.problem
    }

    /// Apply the operator once on the device (caches stay warm across
    /// calls, like an iteration loop).  The first application validates
    /// against the CPU reference; later ones skip the (host-side) check.
    pub fn apply(&mut self) -> Result<Vec<ColorVector<C>>, SimError> {
        self.problem.zero_output();
        let range = self.problem.launch_range(self.cfg, self.local_size);
        let kernel = self.problem.make_kernel(self.cfg, range.num_groups());
        let report = self.launcher.launch_with_state(
            kernel.as_ref(),
            range,
            self.problem.memory(),
            &mut self.state,
        )?;
        self.last_report = Some(report);
        let out = self.problem.read_output();
        if !self.validated {
            let tol = self.problem.validation_tolerance();
            let err = compare_to_reference(&out, self.problem.reference());
            assert!(
                err.rel < tol,
                "device Dslash diverged from the CPU reference: {err:?} (tolerance {tol:e})"
            );
            self.validated = true;
        }
        Ok(out)
    }

    /// Launch report of the most recent application.
    pub fn last_report(&self) -> Option<&LaunchReport> {
        self.last_report.as_ref()
    }

    /// GFLOP/s of the most recent application (theoretical FLOPs over
    /// modelled kernel duration; 0 before the first apply).
    pub fn last_gflops(&self) -> f64 {
        self.last_report.as_ref().map_or(0.0, |r| {
            theoretical_flops(self.problem.lattice()) as f64 / r.duration_us / 1e3
        })
    }

    /// Nsight-style profile of the most recent application.
    pub fn last_profile(&self) -> Option<ProfileReport> {
        self.last_report
            .as_ref()
            .map(|r| ProfileReport::from_launch(self.cfg.label(), r, self.device))
    }

    /// Modelled-time attribution of the most recent application.
    pub fn last_breakdown(&self) -> Option<TimeBreakdown> {
        self.last_report
            .as_ref()
            .map(|r| TimeBreakdown::new(&TimingModel::calibrated(), &r.counters))
    }

    /// Number of device applications so far.
    pub fn applications(&self) -> u64 {
        self.state.launches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn build_apply_and_inspect() {
        let device = DeviceSpec::test_small();
        let mut d = SimulatedDslash::<Z>::build(4, 7, &device).unwrap();
        assert_eq!(d.config().strategy, Strategy::ThreeLp1);
        let out1 = d.apply().unwrap();
        assert_eq!(out1.len(), 128);
        assert!(d.last_gflops() > 0.0);
        assert!(d.last_profile().is_some());
        assert!(d.last_breakdown().is_some());
        assert_eq!(d.applications(), 1);

        // Second application: warm caches, identical results.
        let first_misses = d.last_report().unwrap().counters.l2_sector_misses;
        let out2 = d.apply().unwrap();
        assert_eq!(out1, out2);
        assert!(d.last_report().unwrap().counters.l2_sector_misses <= first_misses);
        assert_eq!(d.applications(), 2);
    }

    #[test]
    fn default_local_size_is_largest_legal() {
        let device = DeviceSpec::test_small();
        let d = SimulatedDslash::<Z>::build(4, 8, &device).unwrap();
        let hv = d.problem().lattice().half_volume() as u64;
        let expect = *d.config().legal_local_sizes(hv).last().unwrap();
        assert_eq!(d.local_size(), expect);
    }

    #[test]
    fn explicit_illegal_local_size_rejected() {
        let device = DeviceSpec::test_small();
        let p = DslashProblem::<Z>::random(4, 9);
        let e = SimulatedDslash::with_problem(p, recommended_config(), Some(100), &device);
        assert!(matches!(e, Err(SimError::InvalidLocalSize { .. })));
    }

    #[test]
    fn tuned_constructor_uses_the_tuner_winner() {
        let device = DeviceSpec::test_small();
        let mut tuner = Tuner::in_memory();
        let p = DslashProblem::<Z>::random(4, 10);
        let mut d =
            SimulatedDslash::with_problem_tuned(p, recommended_config(), &device, &mut tuner)
                .unwrap();
        let key = Tuner::key_for(d.problem(), d.config(), &device);
        let cached = tuner
            .cache()
            .lookup(&key)
            .expect("tuning populated the cache");
        assert_eq!(d.local_size(), cached.local_size);
        // The tuned layout is launched too, not just the tuned size: on
        // 3LP-1 the winner is a conflict-free remedy, not flat.
        assert_eq!(d.config().shared_layout.tag(), cached.layout);
        assert_ne!(d.config().shared_layout, crate::SharedLayout::Flat);
        assert_eq!(tuner.misses(), 1);
        // Applies still work and validate.
        let out = d.apply().unwrap();
        assert_eq!(out.len(), 128);
        // The second apply runs warm on the state the first filled —
        // the sweep's measurement conditions — so it reproduces the
        // cached winning duration exactly (the simulator is
        // deterministic).
        d.apply().unwrap();
        assert_eq!(d.last_report().unwrap().duration_us, cached.duration_us);

        // A second tuned build on the same key is a pure cache hit.
        let p2 = DslashProblem::<Z>::random(4, 10);
        let d2 = SimulatedDslash::with_problem_tuned(p2, recommended_config(), &device, &mut tuner)
            .unwrap();
        assert_eq!(d2.local_size(), d.local_size());
        assert_eq!((tuner.hits(), tuner.misses()), (1, 1));
    }

    #[test]
    fn recommendation_matches_the_paper() {
        let c = recommended_config();
        assert_eq!(c.strategy, Strategy::ThreeLp1);
        assert_eq!(c.order, IndexOrder::KMajor);
    }
}
