//! Static analysis of Dslash launch configurations (DESIGN §8).
//!
//! Thin instrumentation wrapper over the simulator's
//! [`staticcheck`](gpu_sim::staticcheck) analyzer: runs the affine
//! footprint inference and whole-launch proofs on a problem's kernel
//! *without executing it* — no output zeroing, no memory mutation —
//! and records an observability span plus the
//! `staticcheck_findings_total` metric.

use crate::obs;
use crate::problem::DslashProblem;
use crate::strategy::KernelConfig;
use gpu_sim::occupancy::occupancy;
use gpu_sim::{
    estimate_launch, rank_estimates, CostEstimate, DeviceMemory, DeviceSpec, Kernel, NdRange,
    SimError, StaticCheckConfig, StaticReport, TimingModel,
};
use milc_complex::ComplexField;

/// Statically analyze one kernel launch, tracing the analysis as a
/// `staticcheck` span on the `label` track and bumping
/// `staticcheck_findings_total{config=label}` by the finding count.
pub fn staticcheck_kernel(
    kernel: &dyn Kernel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
    cfg: &StaticCheckConfig,
    label: &str,
) -> StaticReport {
    let span = obs::span_on(label, "staticcheck");
    let report = gpu_sim::staticcheck_analyze(kernel, range, device, mem, cfg);
    span.attr("probes", report.probes as u64);
    span.attr("residues", report.residues as u64);
    span.attr("findings", report.findings.len() as u64);
    span.attr("notes", report.notes.len() as u64);
    let occurrences: u64 = report.findings.iter().map(|f| f.occurrences).sum();
    if occurrences > 0 {
        obs::metric_inc(
            "staticcheck_findings_total",
            &[("config", label)],
            occurrences,
        );
    }
    report
}

/// Statically analyze one `(config, local size)` of a problem.  Unlike
/// the dynamic runners this takes the problem immutably: the analysis
/// never writes device memory (probe lanes record, they do not store),
/// so the output buffer is left exactly as the caller had it.
pub fn run_config_staticcheck<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
    scfg: &StaticCheckConfig,
) -> Result<StaticReport, SimError> {
    let (range, kernel) = problem.launch(cfg, local_size, device)?;
    Ok(staticcheck_kernel(
        kernel.as_ref(),
        &range,
        device,
        problem.memory(),
        scfg,
        &cfg.label(),
    ))
}

/// Analytic cost estimate of one `(config, local size)` launch — the
/// prediction the drift gate ([`crate::obs::prof::drift`]) holds the
/// measured launch against.  Same estimation path as
/// [`rank_candidates`], but for a single requested size.
pub fn estimate_config<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
) -> Result<CostEstimate, String> {
    let (range, kernel) = problem
        .launch(cfg, local_size, device)
        .map_err(|_| format!("local size {local_size} illegal for {}", cfg.label()))?;
    estimate_launch(
        kernel.as_ref(),
        &range,
        device,
        problem.memory(),
        &TimingModel::calibrated(),
    )
}

/// One candidate local size in a static ranking.
#[derive(Clone, Debug)]
pub struct RankedCandidate {
    /// The candidate local size.
    pub local_size: u32,
    /// Its cost estimate, or the reason none exists.  Candidates
    /// without an estimate cannot be ranked — a static sweep rejects
    /// them as inestimable.
    pub estimate: Result<CostEstimate, String>,
}

/// The base-and-derive estimator behind every static ranking, one
/// device or a rank of many.  The launch traffic is estimated **once**,
/// at the largest of `sizes` (fewest groups, so the probe set covers
/// the largest fraction of the launch), and every size is derived from
/// that shared base via [`CostEstimate::with_occupancy`]: within one
/// launch the traffic is grouping-invariant, so candidates differ only
/// by occupancy/waves/tail, and probe sampling error — which *does*
/// vary with the partitioning — cancels exactly instead of scrambling
/// near-tied candidates.  `launch` builds the geometry and kernel at a
/// size; the result pairs each size with its estimate or the reason
/// none exists, in `sizes` order.
pub(crate) fn derive_estimates(
    sizes: &[u32],
    device: &DeviceSpec,
    mem: &DeviceMemory,
    launch: impl Fn(u32) -> (NdRange, Box<dyn Kernel>),
) -> Vec<(u32, Result<CostEstimate, String>)> {
    let timing = TimingModel::calibrated();
    let Some(&base_ls) = sizes.last() else {
        return Vec::new();
    };
    let (range, kernel) = launch(base_ls);
    let base = estimate_launch(kernel.as_ref(), &range, device, mem, &timing);
    sizes
        .iter()
        .map(|&ls| {
            let est = base.as_ref().map_err(String::clone).and_then(|b| {
                let (range, kernel) = launch(ls);
                occupancy(device, ls, &kernel.resources(ls), range.num_groups())
                    .map_err(|e| format!("occupancy infeasible: {e}"))
                    .map(|occ| b.with_occupancy(ls, range.num_groups(), occ, &timing, device))
            });
            (ls, est)
        })
        .collect()
}

/// Statically rank every legal local size of a configuration by
/// predicted duration (ascending; ties toward the smaller local size)
/// through `derive_estimates`.  Estimable candidates come first in
/// rank order; inestimable ones follow in local-size order with their
/// reasons.  Traced as a `staticrank` span on the config's track.
pub fn rank_candidates<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    device: &DeviceSpec,
) -> Vec<RankedCandidate> {
    let span = obs::span_on(&cfg.label(), "staticrank");
    let sizes = cfg.legal_local_sizes(problem.lattice().half_volume() as u64);
    span.attr("candidates", sizes.len() as u64);
    let launch = |ls| {
        problem
            .launch(cfg, ls, device)
            .expect("legal local sizes launch")
    };
    let mut estimates = Vec::new();
    let mut failures = Vec::new();
    for (ls, est) in derive_estimates(&sizes, device, problem.memory(), launch) {
        match est {
            Ok(e) => estimates.push(e),
            Err(why) => failures.push(RankedCandidate {
                local_size: ls,
                estimate: Err(why),
            }),
        }
    }
    span.attr("inestimable", failures.len() as u64);
    let mut out: Vec<RankedCandidate> = rank_estimates(estimates)
        .into_iter()
        .map(|e| RankedCandidate {
            local_size: e.local_size,
            estimate: Ok(e),
        })
        .collect();
    out.extend(failures);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexOrder, Strategy};
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn paper_config_is_statically_clean() {
        let p = DslashProblem::<Z>::random(4, 41);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let r =
            run_config_staticcheck(&p, cfg, 96, &device, &StaticCheckConfig::default()).unwrap();
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.probes > 0);
        assert!(!r.footprints.is_empty());
    }

    #[test]
    fn analysis_leaves_device_memory_untouched() {
        let p = DslashProblem::<Z>::random(4, 42);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor);
        let before = p.memory().init_snapshot();
        let _ = run_config_staticcheck(&p, cfg, 32, &device, &StaticCheckConfig::full()).unwrap();
        assert_eq!(before, p.memory().init_snapshot());
    }

    #[test]
    fn illegal_local_size_surfaces_as_error() {
        let p = DslashProblem::<Z>::random(4, 43);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        assert!(
            run_config_staticcheck(&p, cfg, 1000, &device, &StaticCheckConfig::default()).is_err()
        );
    }

    #[test]
    fn rank_candidates_covers_every_legal_size_in_duration_order() {
        let p = DslashProblem::<Z>::random(4, 45);
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let ranked = rank_candidates(&p, cfg, &device);
        let mut sizes: Vec<u32> = ranked.iter().map(|r| r.local_size).collect();
        sizes.sort_unstable();
        assert_eq!(
            sizes,
            cfg.legal_local_sizes(p.lattice().half_volume() as u64)
        );
        let durations: Vec<f64> = ranked
            .iter()
            .filter_map(|r| r.estimate.as_ref().ok().map(|e| e.duration_us))
            .collect();
        assert!(!durations.is_empty(), "paper config must be estimable");
        assert!(durations.windows(2).all(|w| w[0] <= w[1]));
    }
}
