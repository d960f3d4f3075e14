//! Shared experiment machinery: the Fig. 6 sweep, the Table I profile
//! run, the QUDA recon sweep, the Table I cost-model drift, and the CSV
//! writers of every committed `results/*.csv` (the `perfdiff` gate
//! regenerates each file through the same writer).

use crate::paper;
use gpu_sim::{
    Counters, DeviceGroup, DeviceSpec, Interconnect, LaunchReport, ProfileReport, QueueMode, Regime,
};
use milc_complex::{ComplexField, Cplx, DoubleComplex};
use milc_dslash::obs::prof::{DriftReport, DriftRow};
use milc_dslash::shard::{tune_rank_local_sizes, HaloFault, ShardMode, ShardOutcome};
use milc_dslash::tune::CandidatePoint;
use milc_dslash::{
    estimate_config, run_config_warm, shard, DslashProblem, IndexOrder, KernelConfig, RunOutcome,
    Strategy, TuneCache,
};
use quda_ref::{Recon, StaggeredDslashTest};

/// An experiment context: lattice size, matched device, seed.
///
/// Running below the paper's L = 32 uses
/// [`DeviceSpec::scaled_for_volume_ratio`] so occupancy waves and cache
/// capacity pressure match the full-size run; GFLOP/s are reported
/// *A100-equivalent* (divided by the volume ratio), directly comparable
/// to the paper's axes.
pub struct Experiment {
    /// Hypercubic lattice extent.
    pub l: usize,
    /// The (possibly scaled) device.
    pub device: DeviceSpec,
    /// `(l / 32)^4`.
    pub volume_ratio: f64,
    /// Field seed.
    pub seed: u64,
}

impl Experiment {
    /// Experiment at lattice size `l` on a volume-matched A100 model.
    pub fn new(l: usize, seed: u64) -> Self {
        let ratio = (l as f64 / 32.0).powi(4);
        let device = if l == 32 {
            DeviceSpec::a100()
        } else {
            DeviceSpec::a100().scaled_for_volume_ratio(ratio)
        };
        Self {
            l,
            device,
            volume_ratio: ratio,
            seed,
        }
    }

    /// Factor converting measured GFLOP/s to A100-equivalent GFLOP/s.
    ///
    /// Durations on the volume-matched device equal full-scale durations
    /// up to the rounding of the SM count, so the exact equivalence
    /// factor is the SM ratio (108 / scaled SMs), not the volume ratio —
    /// at L = 16 they differ by ~4% (7 SMs vs 6.75).
    pub fn a100_equiv_factor(&self) -> f64 {
        DeviceSpec::a100().num_sms as f64 / self.device.num_sms as f64
    }
}

/// One point of the Fig. 6 sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Series label (strategy or variant name).
    pub series: String,
    /// Index order, if the series distinguishes one.
    pub order: Option<IndexOrder>,
    /// Work-group size.
    pub local_size: u32,
    /// A100-equivalent GFLOP/s (the paper's y-axis).
    pub gflops: f64,
    /// Kernel duration, µs.
    pub duration_us: f64,
    /// Achieved occupancy, %.
    pub occupancy_pct: f64,
    /// Whether the result matched the CPU reference.
    pub validated: bool,
    /// Max relative error vs the reference.
    pub max_rel_error: f64,
}

impl SweepRow {
    fn from_outcome(
        series: String,
        order: Option<IndexOrder>,
        out: &RunOutcome,
        exp: &Experiment,
    ) -> Self {
        Self {
            series,
            order,
            local_size: out.report.range.local,
            gflops: out.gflops * exp.a100_equiv_factor(),
            duration_us: out.report.duration_us,
            occupancy_pct: 100.0 * out.report.occupancy.achieved,
            validated: out.error.rel < 1e-8,
            max_rel_error: out.error.rel,
        }
    }
}

/// Run every strategy x index order x legal local size (the main body
/// of Fig. 6), with the hand-written kernels' default out-of-order
/// queue.
fn fig6_strategies<C: ComplexField>(
    exp: &Experiment,
    problem: &mut DslashProblem<C>,
) -> Vec<SweepRow> {
    let hv = problem.lattice().half_volume() as u64;
    let mut rows = Vec::new();
    for strategy in Strategy::ALL {
        for &order in strategy.orders() {
            let cfg = KernelConfig::new(strategy, order);
            for ls in cfg.legal_local_sizes(hv) {
                let out = run_config_warm(problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
                    .expect("legal configuration must launch");
                rows.push(SweepRow::from_outcome(
                    strategy.name().to_string(),
                    Some(order),
                    &out,
                    exp,
                ));
            }
        }
    }
    rows
}

/// The five additional 3LP-1 implementations of Section IV-C (the gray
/// shaded area of Fig. 6), swept over the k-major local sizes.
fn fig6_variants(
    exp: &Experiment,
    problem_dc: &mut DslashProblem<DoubleComplex>,
    problem_cplx: &mut DslashProblem<Cplx>,
) -> Vec<SweepRow> {
    let hv = problem_dc.lattice().half_volume() as u64;
    let base = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    let sizes = base.legal_local_sizes(hv);
    let mut rows = Vec::new();

    // (1) SyclCPLX: same kernel, library complex type, default queue.
    for &ls in &sizes {
        let out = run_config_warm(problem_cplx, base, ls, &exp.device, QueueMode::OutOfOrder)
            .expect("legal configuration");
        rows.push(SweepRow::from_outcome(
            "3LP-1 SyclCPLX".into(),
            Some(IndexOrder::KMajor),
            &out,
            exp,
        ));
    }

    // (2) CUDA port: in-order stream, default register allocation
    //     (spills present).
    for &ls in &sizes {
        let out = run_config_warm(problem_dc, base, ls, &exp.device, QueueMode::InOrder)
            .expect("legal configuration");
        rows.push(SweepRow::from_outcome(
            "3LP-1 CUDA".into(),
            Some(IndexOrder::KMajor),
            &out,
            exp,
        ));
    }

    // (3) CUDA with -maxrregcount 64: the register cap eliminates the
    //     spill traffic (Section IV-D4).
    let capped = KernelConfig {
        spills_per_item: 0,
        ..base
    };
    for &ls in &sizes {
        let out = run_config_warm(problem_dc, capped, ls, &exp.device, QueueMode::InOrder)
            .expect("legal configuration");
        rows.push(SweepRow::from_outcome(
            "3LP-1 CUDA maxrreg=64".into(),
            Some(IndexOrder::KMajor),
            &out,
            exp,
        ));
    }

    // (4) SYCLomatic raw output: composed indexing, in-order queue.
    let (style_raw, queue_raw) = syclomatic_sim::migrated_3lp1_style(false);
    let raw = KernelConfig {
        index_style: style_raw,
        ..base
    };
    for &ls in &sizes {
        let out = run_config_warm(problem_dc, raw, ls, &exp.device, queue_raw)
            .expect("legal configuration");
        rows.push(SweepRow::from_outcome(
            "3LP-1 SYCLomatic".into(),
            Some(IndexOrder::KMajor),
            &out,
            exp,
        ));
    }

    // (5) SYCLomatic optimized: direct get_global_id(), in-order queue.
    let (style_opt, queue_opt) = syclomatic_sim::migrated_3lp1_style(true);
    let opt = KernelConfig {
        index_style: style_opt,
        ..base
    };
    for &ls in &sizes {
        let out = run_config_warm(problem_dc, opt, ls, &exp.device, queue_opt)
            .expect("legal configuration");
        rows.push(SweepRow::from_outcome(
            "3LP-1 SYCLomatic opt".into(),
            Some(IndexOrder::KMajor),
            &out,
            exp,
        ));
    }

    rows
}

/// The compressed-gauge *extension* series: the paper's 3LP-1 kernel
/// with QUDA-style gauge compression — "not a current feature of our
/// SYCL implementation" (Section IV-D3) — swept over the k-major local
/// sizes.  Not part of Fig. 6; reported as an extension row.
fn extension_compressed_3lp1(exp: &Experiment) -> Vec<SweepRow> {
    use milc_lattice::recon::Recon;
    let base = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    let mut rows = Vec::new();
    for recon in [Recon::R12, Recon::R9] {
        let mut problem = DslashProblem::<DoubleComplex>::random_with_recon(exp.l, exp.seed, recon);
        let hv = problem.lattice().half_volume() as u64;
        for ls in base.legal_local_sizes(hv) {
            let out = run_config_warm(&mut problem, base, ls, &exp.device, QueueMode::OutOfOrder)
                .expect("legal configuration");
            assert!(
                out.error.rel < problem.validation_tolerance(),
                "compressed 3LP-1 {recon:?} invalid: {:?}",
                out.error
            );
            let mut row = SweepRow::from_outcome(
                format!("3LP-1 {} (ext)", recon.label()),
                Some(IndexOrder::KMajor),
                &out,
                exp,
            );
            row.validated = out.error.rel < problem.validation_tolerance();
            row.max_rel_error = out.error.rel;
            rows.push(row);
        }
    }
    rows
}

/// The whole Fig. 6 sweep as `results/fig6.csv` records it: every
/// strategy, the five 3LP-1 variants and the compressed-gauge
/// extension series.
pub fn fig6_rows(exp: &Experiment) -> Vec<SweepRow> {
    let mut problem = DslashProblem::<DoubleComplex>::random(exp.l, exp.seed);
    let mut problem_cplx = DslashProblem::<Cplx>::random(exp.l, exp.seed);
    let mut rows = fig6_strategies(exp, &mut problem);
    rows.extend(fig6_variants(exp, &mut problem, &mut problem_cplx));
    rows.extend(extension_compressed_3lp1(exp));
    rows
}

/// Run the QUDA baseline for the three recon schemes (the Fig. 6
/// reference line and the Section IV-D3 table).
pub fn quda_recons(exp: &Experiment) -> Vec<(Recon, f64, u32)> {
    [Recon::R18, Recon::R12, Recon::R9]
        .into_iter()
        .map(|recon| {
            let t = StaggeredDslashTest::random(exp.l, exp.seed, recon);
            let out = t.run(&exp.device).expect("quda baseline runs");
            assert!(
                out.error.rel < recon.tolerance(),
                "QUDA {recon:?} mismatch: {:?}",
                out.error
            );
            (recon, out.gflops * exp.a100_equiv_factor(), out.local_size)
        })
        .collect()
}

/// The paper's Section IV-D3 GFLOP/s for a QUDA gauge reconstruction.
pub fn quda_paper_gflops(recon: Recon) -> f64 {
    match recon {
        Recon::R18 => paper::QUDA_RECON18_GFLOPS,
        Recon::R12 => paper::QUDA_RECON12_GFLOPS,
        Recon::R9 => paper::QUDA_RECON9_GFLOPS,
    }
}

/// Format [`quda_recons`] as `results/quda_recon.csv`
/// (`recon,tuned_block,paper_gflops,sim_gflops`).
pub fn quda_recon_csv(recons: &[(Recon, f64, u32)]) -> String {
    let mut csv = String::from("recon,tuned_block,paper_gflops,sim_gflops\n");
    for &(recon, gflops, ls) in recons {
        csv.push_str(&format!(
            "{},{ls},{},{gflops:.1}\n",
            recon.label(),
            quda_paper_gflops(recon)
        ));
    }
    csv
}

/// Run the twelve Table I configurations, returning each column's
/// short label (`3LP-1 k` …) with the full run outcome — the trace
/// and perf-regression tooling need the raw reports, not just the
/// profile rows.
pub fn table1_outcomes(
    exp: &Experiment,
    problem: &mut DslashProblem<DoubleComplex>,
) -> Vec<(String, RunOutcome)> {
    paper::TABLE1
        .iter()
        .map(|col| {
            let cfg = KernelConfig::new(col.strategy, col.order);
            let ls = paper::table1_local_size(col.strategy);
            let out = run_config_warm(problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
                .expect("table 1 configuration must launch");
            assert!(
                out.error.rel < 1e-8,
                "{} result mismatch: {:?}",
                cfg.label(),
                out.error
            );
            let label = match col.strategy {
                Strategy::OneLp | Strategy::TwoLp => col.strategy.name().to_string(),
                _ => format!("{} {}", col.strategy.name(), short_order(col.order)),
            };
            (label, out)
        })
        .collect()
}

/// Profile reports of the Table I outcomes, in the paper's column
/// order.
pub fn table1_profiles(exp: &Experiment, outcomes: &[(String, RunOutcome)]) -> Vec<ProfileReport> {
    outcomes
        .iter()
        .map(|(label, out)| ProfileReport::from_launch(label.clone(), &out.report, &exp.device))
        .collect()
}

/// Format the Table I profiles as `results/table1.csv`: the paper's
/// value next to the simulated one, counters scaled to A100
/// equivalents (counter magnitudes scale with the simulated volume).
pub fn table1_csv(exp: &Experiment, profiles: &[ProfileReport]) -> String {
    let count_scale = 1.0 / exp.volume_ratio;
    let mut csv = String::from(
        "config,paper_duration_us,sim_duration_us,paper_occ_pct,sim_occ_pct,paper_l1_miss,sim_l1_miss,paper_l2_miss,sim_l2_miss,paper_tags,sim_tags_equiv,sim_shared_wavefronts_equiv,sim_excessive_equiv,sim_divergent\n",
    );
    for (col, prof) in paper::TABLE1.iter().zip(profiles) {
        csv.push_str(&format!(
            "{},{},{:.1},{},{:.1},{},{:.1},{},{:.1},{:.0},{:.0},{:.0},{:.0},{:.0}\n",
            prof.label,
            col.duration_us,
            prof.duration_us,
            col.occupancy_pct,
            prof.occupancy_pct,
            col.l1_miss_pct,
            prof.l1_miss_pct,
            col.l2_miss_pct,
            prof.l2_miss_pct,
            col.l1_tag_requests,
            prof.l1_tag_requests as f64 * count_scale,
            prof.shared_wavefronts as f64 * count_scale,
            prof.excessive_wavefronts as f64 * count_scale,
            prof.avg_divergent_branches,
        ));
    }
    csv
}

/// Drift of the warm Table I launches: each outcome of
/// [`table1_outcomes`] against the static estimate of its
/// configuration.  `Err` names the first configuration the cost model
/// cannot estimate.
pub fn table1_drift(
    exp: &Experiment,
    problem: &DslashProblem<DoubleComplex>,
    outcomes: &[(String, RunOutcome)],
) -> Result<DriftReport, String> {
    let rows = outcomes
        .iter()
        .zip(paper::TABLE1.iter())
        .map(|((label, out), col)| {
            let cfg = KernelConfig::new(col.strategy, col.order);
            let ls = paper::table1_local_size(col.strategy);
            let est = estimate_config(problem, cfg, ls, &exp.device)
                .map_err(|e| format!("{label}: no static estimate: {e}"))?;
            Ok(DriftRow::new(
                label,
                ls,
                out.report.duration_us,
                &out.report.counters,
                &est,
                Regime::Warm,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(DriftReport { rows })
}

/// Aggregate the counters of a multi-launch run into one saturating
/// total ([`Counters::merge`]) — run-level throughput and traffic
/// numbers for traces and metrics snapshots.
pub fn aggregate_counters<'a>(reports: impl IntoIterator<Item = &'a LaunchReport>) -> Counters {
    let mut total = Counters::default();
    for r in reports {
        total.merge(&r.counters);
    }
    total
}

fn short_order(order: IndexOrder) -> &'static str {
    match order {
        IndexOrder::KMajor => "k",
        IndexOrder::IMajor => "i",
        IndexOrder::LMajor => "l",
    }
}

/// One point of the strong-scaling study: one rank count under one
/// exchange schedule.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Number of simulated devices.
    pub ranks: usize,
    /// Exchange schedule name (`in-order` / `overlapped`).
    pub mode: String,
    /// Overall wall clock (slowest rank), µs.
    pub wall_us: f64,
    /// Worst per-rank halo cost under the schedule, µs.
    pub comm_us: f64,
    /// Worst per-rank kernel + queue time, µs.
    pub compute_us: f64,
    /// Total halo payload moved, bytes.
    pub halo_bytes: u64,
    /// A100-equivalent GFLOP/s at the overall wall clock.
    pub gflops_a100_equiv: f64,
    /// Wall-clock speedup over the study's first (single-rank) row.
    pub speedup: f64,
    /// Parallel efficiency: `100 · speedup / ranks`.
    pub efficiency_pct: f64,
    /// Whether the assembled output matched the CPU reference.
    pub validated: bool,
    /// Max relative error vs the reference.
    pub max_rel_error: f64,
}

/// A scaling row together with the underlying sharded outcome (the
/// trace exporter needs the per-rank timeline, not just the row).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// The CSV row.
    pub row: ScalingRow,
    /// The full run outcome.
    pub outcome: ShardOutcome,
}

/// Run the strong-scaling study: the same global lattice decomposed
/// across each rank count of `rank_counts` (NVLink-class interconnect,
/// one volume-matched device per rank), under both exchange schedules,
/// with per-rank local sizes from the tuner (`cache` is consulted and
/// filled — pass the persistent cache to make re-runs sweep-free).
///
/// Speedup/efficiency are relative to the first rank count's in-order
/// wall clock, so pass `1` first for textbook strong-scaling numbers.
pub fn strong_scaling(
    exp: &Experiment,
    cfg: KernelConfig,
    rank_counts: &[usize],
    cache: &mut TuneCache,
) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    let mut baseline: Option<(usize, f64)> = None; // (ranks, in-order wall)
    for &n in rank_counts {
        let mut problem = shard::ShardedProblem::<DoubleComplex>::random(exp.l, exp.seed, n);
        let group = DeviceGroup::homogeneous(exp.device.clone(), n, Interconnect::nvlink());
        let sizes = tune_rank_local_sizes(&problem, cfg, &group, cache)
            .expect("per-rank tuning must find a legal size")
            .sizes;
        for mode in [ShardMode::InOrder, ShardMode::Overlapped] {
            let outcome =
                shard::run_sharded_with(&mut problem, cfg, &group, mode, &sizes, HaloFault::None)
                    .expect("sharded run must launch");
            assert!(
                outcome.error.rel < 1e-8,
                "sharded {} at N={n} mismatch: {:?}",
                mode.name(),
                outcome.error
            );
            if baseline.is_none() {
                baseline = Some((n, outcome.wall_us));
            }
            let (n0, t0) = baseline.expect("just set");
            let speedup = t0 / outcome.wall_us;
            let row = ScalingRow {
                ranks: n,
                mode: mode.name().to_string(),
                wall_us: outcome.wall_us,
                comm_us: outcome
                    .per_rank
                    .iter()
                    .map(|r| r.comm_us)
                    .fold(0.0, f64::max),
                compute_us: outcome
                    .per_rank
                    .iter()
                    .map(shard::RankRun::compute_us)
                    .fold(0.0, f64::max),
                halo_bytes: outcome.halo_bytes_total,
                gflops_a100_equiv: outcome.gflops * exp.a100_equiv_factor(),
                speedup,
                efficiency_pct: 100.0 * speedup * n0 as f64 / n as f64,
                validated: outcome.error.rel < 1e-8,
                max_rel_error: outcome.error.rel,
            };
            points.push(ScalingPoint { row, outcome });
        }
    }
    points
}

/// Format scaling rows as CSV
/// (`ranks,mode,wall_us,comm_us,compute_us,halo_bytes,...`).
pub fn scaling_rows_to_csv(rows: &[ScalingRow]) -> String {
    let mut s = String::from(
        "ranks,mode,wall_us,comm_us,compute_us,halo_bytes,gflops_a100_equiv,speedup,efficiency_pct,validated,max_rel_error\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{},{},{:.1},{:.2},{:.1},{},{:.1},{:.3},{:.1},{},{:.3e}\n",
            r.ranks,
            r.mode,
            r.wall_us,
            r.comm_us,
            r.compute_us,
            r.halo_bytes,
            r.gflops_a100_equiv,
            r.speedup,
            r.efficiency_pct,
            r.validated,
            r.max_rel_error
        ));
    }
    s
}

/// Format the Fig. 6 sweep rows plus the QUDA reference points (from
/// [`quda_recons`]; GFLOP/s only, no modelled duration) as
/// `results/fig6.csv` (`series,order,local_size,gflops,...`).
pub fn rows_to_csv(rows: &[SweepRow], quda: &[(Recon, f64, u32)]) -> String {
    let mut s = String::from(
        "series,order,local_size,gflops_a100_equiv,duration_us,occupancy_pct,validated,max_rel_error\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{},{},{},{:.1},{:.1},{:.1},{},{:.3e}\n",
            r.series,
            r.order.map_or("-", |o| o.name()),
            r.local_size,
            r.gflops,
            r.duration_us,
            r.occupancy_pct,
            r.validated,
            r.max_rel_error
        ));
    }
    for (recon, gflops, ls) in quda {
        s.push_str(&format!(
            "QUDA {},-,{ls},{gflops:.1},,,true,\n",
            recon.label()
        ));
    }
    s
}

/// One static-sweep winner: kernel label, the predicted winning point,
/// its measured duration (µs) and its regret against the measured
/// winner (fraction).
pub type StaticRow = (String, CandidatePoint, f64, f64);

/// Format static-sweep winners as `results/tune_static.csv`
/// (`kernel,local_size,layout,predicted_us,measured_us,regret_pct`).
pub fn static_rows_to_csv(rows: &[StaticRow]) -> String {
    let mut s = String::from("kernel,local_size,layout,predicted_us,measured_us,regret_pct\n");
    for (kernel, w, measured, regret) in rows {
        s.push_str(&format!(
            "{kernel},{},{},{:.3},{measured:.3},{:.2}\n",
            w.local_size,
            w.layout.tag(),
            w.duration_us,
            regret * 100.0
        ));
    }
    s
}

/// The best (max-GFLOP/s) row of a series.
pub fn best_of<'a>(rows: &'a [SweepRow], series: &str) -> Option<&'a SweepRow> {
    rows.iter()
        .filter(|r| r.series == series)
        .max_by(|a, b| a.gflops.partial_cmp(&b.gflops).expect("finite"))
}

/// The best row of a series restricted to one index order.
pub fn best_of_order<'a>(
    rows: &'a [SweepRow],
    series: &str,
    order: IndexOrder,
) -> Option<&'a SweepRow> {
    rows.iter()
        .filter(|r| r.series == series && r.order == Some(order))
        .max_by(|a, b| a.gflops.partial_cmp(&b.gflops).expect("finite"))
}
