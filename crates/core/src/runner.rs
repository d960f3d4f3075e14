//! End-to-end execution of one benchmark configuration: launch on the
//! simulator, validate against the CPU reference, and report GFLOP/s the
//! way the paper does — theoretical FLOPs over measured wall time
//! (kernel duration plus queue overhead, since the paper times the
//! submit-to-completion loop with `clock_gettime`).

use crate::flops::theoretical_flops;
use crate::obs;
use crate::problem::DslashProblem;
use crate::strategy::KernelConfig;
use crate::validate::{compare_to_reference, MaxError};
use gpu_sim::{
    DeviceSpec, DeviceState, LaunchReport, Launcher, Queue, QueueMode, SanitizerConfig, SimError,
};
use milc_complex::ComplexField;

/// Result of one configuration run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Human label, e.g. `3LP-1 k-major @ 768`.
    pub label: String,
    /// The launch report (counters, occupancy, kernel duration).
    pub report: LaunchReport,
    /// Queue/runtime overhead attributed to the submission, µs.
    pub queue_overhead_us: f64,
    /// GFLOP/s the way the paper computes it: theoretical FLOPs divided
    /// by wall time (kernel + queue overhead).
    pub gflops: f64,
    /// Deviation from the CPU reference.
    pub error: MaxError,
}

impl RunOutcome {
    /// Wall time per application, µs.
    pub fn wall_us(&self) -> f64 {
        self.report.duration_us + self.queue_overhead_us
    }
}

/// Run one `(config, local size)` on `device` with cold caches and the
/// given queue semantics; validates against the problem's CPU reference.
pub fn run_config<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    queue_mode: QueueMode,
) -> Result<RunOutcome, SimError> {
    run_on_fresh_state(problem, cfg, local_size, device, queue_mode, false)
}

/// Run one configuration with *warm* caches: one untimed warmup launch
/// fills the device caches, then the timed launch is profiled — exactly
/// how the paper measures ("each run comprises 100 kernel iterations and
/// 1 warmup iteration", and Table I profiles "the second kernel
/// launch").  Use this for any comparison against the paper's numbers;
/// [`run_config`] keeps the cold-start behaviour.
pub fn run_config_warm<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    queue_mode: QueueMode,
) -> Result<RunOutcome, SimError> {
    run_on_fresh_state(problem, cfg, local_size, device, queue_mode, true)
}

/// Run one launch inside a `name` span on `track` and record its report
/// and queue overhead (µs) on the span and the ambient metrics — the
/// traced launch both the single-device and the sharded runners use.
pub(crate) fn traced_launch(
    track: &str,
    name: &str,
    label: &str,
    device: &DeviceSpec,
    launch: impl FnOnce() -> Result<(LaunchReport, f64), SimError>,
) -> Result<(LaunchReport, f64), SimError> {
    let span = obs::span_on(track, name);
    let (report, overhead) = launch()?;
    obs::record_launch(&span, label, &report, device, overhead);
    Ok((report, overhead))
}

/// The one run body of [`run_config`] and [`run_config_warm`]: launch
/// on a fresh device state, after an optional untimed warmup launch,
/// then read, validate and compute GFLOP/s.
fn run_on_fresh_state<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    queue_mode: QueueMode,
    warm: bool,
) -> Result<RunOutcome, SimError> {
    let (range, kernel) = problem.launch(cfg, local_size, device)?;
    problem.zero_output();
    let label = cfg.label();
    // Warmup launch: executes fully (results overwritten below), fills
    // the caches, is not timed.  A cold run's caches die with its one
    // launch, so `submit` records nothing for a repeat.
    let mut state = warm.then(|| DeviceState::new(device));
    if let Some(state) = state.as_mut() {
        traced_launch(&label, "warmup", &label, device, || {
            let report = Launcher::new(device).launch_with_state(
                kernel.as_ref(),
                range,
                problem.memory(),
                state,
            )?;
            Ok((report, 0.0))
        })?;
        problem.zero_output();
    }

    let mut queue = Queue::on_device(device, queue_mode);
    let (report, overhead) = traced_launch(&label, "launch", &label, device, || {
        let sub = match state.as_mut() {
            Some(state) => {
                queue.submit_with_state(kernel.as_ref(), range, problem.memory(), state)?
            }
            None => queue.submit(kernel.as_ref(), range, problem.memory())?,
        };
        Ok((sub.report.clone(), sub.overhead_us))
    })?;

    let device_out = problem.read_output();
    let error = compare_to_reference(&device_out, problem.reference());
    let flops = theoretical_flops(problem.lattice()) as f64;
    let wall_us = report.duration_us + overhead;
    let gflops = flops / wall_us / 1e3;
    Ok(RunOutcome {
        label: format!(
            "{label} @ {local_size}{}",
            if warm { " (warm)" } else { "" }
        ),
        report,
        queue_overhead_us: overhead,
        gflops,
        error,
    })
}

/// Run one `(config, local size)` under the simulator's sanitizer
/// (DESIGN §7): lanes run tolerant with the requested checks; the
/// returned report's `sanitizer` field holds the (possibly empty)
/// findings.  Performance numbers from a sanitized launch are still
/// produced but should not be compared to unsanitized ones in
/// write-ups — tolerant lanes take a different path.
pub fn run_config_sanitized<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    san: SanitizerConfig,
) -> Result<LaunchReport, SimError> {
    let (range, kernel) = problem.launch(cfg, local_size, device)?;
    problem.zero_output();
    let label = cfg.label();
    // A sanitized launch charges no queue overhead.
    let (report, _) = traced_launch(&label, "sanitize.launch", &label, device, || {
        let launcher = Launcher::new(device).with_sanitizer(san);
        Ok((
            launcher.launch(kernel.as_ref(), range, problem.memory())?,
            0.0,
        ))
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexOrder, Strategy};
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn one_lp_runs_validates_and_reports() {
        let mut p = DslashProblem::<Z>::random(4, 7);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor);
        let out = run_config(&mut p, cfg, 32, &device, QueueMode::InOrder).unwrap();
        assert!(
            out.error.within_reassociation_noise(),
            "1LP mismatch: {:?}",
            out.error
        );
        assert!(out.gflops > 0.0);
        assert!(out.wall_us() > out.report.duration_us);
        assert_eq!(out.report.counters.items, 128);
    }

    #[test]
    fn warm_run_validates_and_is_not_slower() {
        let mut p = DslashProblem::<Z>::random(4, 10);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let cold = run_config(&mut p, cfg, 96, &device, QueueMode::InOrder).unwrap();
        let warm = run_config_warm(&mut p, cfg, 96, &device, QueueMode::InOrder).unwrap();
        assert!(warm.error.within_reassociation_noise());
        // Warm caches can only reduce misses and therefore duration.
        assert!(
            warm.report.counters.l2_sector_misses <= cold.report.counters.l2_sector_misses,
            "warm L2 misses exceed cold"
        );
        assert!(warm.report.duration_us <= cold.report.duration_us * 1.0001);
    }

    #[test]
    fn illegal_local_size_surfaces_as_error() {
        let mut p = DslashProblem::<Z>::random(4, 8);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        // 1536 items don't divide by 1000.
        let err = run_config(&mut p, cfg, 1000, &device, QueueMode::InOrder);
        assert!(err.is_err());
    }
}
