//! The measurement side of the tuner: run one kernel configuration over
//! every legal local size and pick the fastest.
//!
//! Candidates are exactly [`KernelConfig::legal_local_sizes`] — the
//! paper's Fig. 6 sweep.  Each candidate is first checked against the
//! static launch linter ([`gpu_sim::lint_launch`]); the tuner must never
//! time, let alone select, a configuration `sancheck` would flag or the
//! access analyzer has not proven race- and bounds-free (lazily, in rank
//! order, in [`SweepMode::Static`]).  Timed candidates run warm (the
//! conditions of [`run_config_warm`](crate::runner::run_config_warm)
//! that produced `results/fig6.csv`), are validated against the CPU
//! reference, and the minimum modelled duration wins (ties break toward
//! the smaller local size, which wastes fewer tail resources).
//! [`sweep`] is the one entry point for every [`SweepMode`].
//!
//! Unlike the minimal `quda_ref::autotune`, nothing is silently
//! dropped: every rejected candidate is recorded with its reason, and a
//! sweep in which *no* candidate survives is an error, not a fabricated
//! winner.

use crate::flops::theoretical_flops;
use crate::kernels::common::SharedLayout;
use crate::obs;
use crate::problem::DslashProblem;
use crate::runner::run_config_warm;
use crate::staticcheck::{rank_candidates, staticcheck_kernel};
use crate::strategy::KernelConfig;
use gpu_sim::{
    lint_launch, CostEstimate, DeviceSpec, QueueMode, Regime, RegimeCalibration, SimError,
    StaticCheckConfig,
};
use milc_complex::ComplexField;
use std::cmp::Ordering;
use std::collections::HashMap;

/// How a sweep decides: by measuring every candidate or by the static
/// cost model alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Time every candidate that passes the static gates (the Fig. 6
    /// sweep; the default).
    Exhaustive,
    /// Measurement-free: pick the first proven-clean candidate of the
    /// static ranking — *zero* timed launches (`sweep_launches == 0`).
    /// The winner is recorded as [`CandidateOutcome::Predicted`] with
    /// its warm-calibrated duration (the serving regime the exhaustive
    /// sweep also reports).  Candidates ranked above it failed
    /// their proofs ([`Reject::Static`]); the unproven rest is rejected
    /// with [`Reject::StaticRank`] or, when the cost model cannot
    /// estimate it, [`Reject::Inestimable`] — a mode that never
    /// launches cannot fall back to timing what it cannot rank.
    Static,
}

/// Why a candidate local size was not timed / not eligible to win.
#[derive(Clone, Debug)]
pub enum Reject {
    /// The static launch linter produced findings (messages recorded).
    Lint(Vec<String>),
    /// The static access analyzer proved a race or bounds violation
    /// over the whole ND-range (messages recorded).
    Static(Vec<String>),
    /// A [`SweepMode::Static`] sweep ranked the candidate below its
    /// winner and left it unproven and untimed.
    StaticRank {
        /// 1-based predicted rank, skipping candidates whose proof failed.
        rank: usize,
        /// The cost model's predicted duration, µs.
        predicted_us: f64,
    },
    /// A measurement-free sweep could not rank the candidate: the cost
    /// model failed to estimate it (reason recorded), and
    /// [`SweepMode::Static`] has no timing fallback.
    Inestimable(String),
    /// The simulator refused or aborted the launch.
    Launch(SimError),
    /// The launch ran but its output diverged from the CPU reference.
    Validation {
        /// Observed max relative error.
        rel: f64,
        /// The problem's tolerance it exceeded.
        tol: f64,
    },
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::Lint(msgs) => write!(f, "lint: {}", msgs.join("; ")),
            Reject::Static(msgs) => write!(f, "staticcheck: {}", msgs.join("; ")),
            Reject::StaticRank { rank, predicted_us } => write!(
                f,
                "static-rank: predicted rank #{rank} ({predicted_us:.1} µs), not timed"
            ),
            Reject::Inestimable(why) => write!(f, "inestimable: {why}"),
            Reject::Launch(e) => write!(f, "launch: {e}"),
            Reject::Validation { rel, tol } => {
                write!(f, "validation: rel error {rel:.3e} > tol {tol:.3e}")
            }
        }
    }
}

/// One successfully timed candidate.
#[derive(Clone, Debug)]
pub struct CandidatePoint {
    /// Local size tried.
    pub local_size: u32,
    /// Local-memory layout tried.
    pub layout: SharedLayout,
    /// Modelled kernel duration, µs.
    pub duration_us: f64,
    /// GFLOP/s the way the paper computes it (wall time incl. queue
    /// overhead).
    pub gflops: f64,
    /// Achieved occupancy, 0..=1.
    pub occupancy: f64,
    /// Scheduling waves of the launch.
    pub waves: f64,
    /// Fraction of the launch spent in the partial tail wave.
    pub tail_fraction: f64,
}

/// One candidate's fate in a sweep.
#[derive(Clone, Debug)]
pub enum CandidateOutcome {
    /// Timed and eligible.
    Timed(CandidatePoint),
    /// Selected without a launch ([`SweepMode::Static`]): the point's
    /// duration is the cost model's warm-calibrated prediction, its
    /// occupancy/waves/tail come from the static occupancy analysis.
    Predicted(CandidatePoint),
    /// Rejected, with the reason.
    Rejected {
        /// Local size that was rejected.
        local_size: u32,
        /// Local-memory layout that was rejected.
        layout: SharedLayout,
        /// Why.
        reason: Reject,
    },
}

impl CandidateOutcome {
    /// The candidate's local size regardless of fate.
    pub fn local_size(&self) -> u32 {
        match self {
            CandidateOutcome::Timed(p) | CandidateOutcome::Predicted(p) => p.local_size,
            CandidateOutcome::Rejected { local_size, .. } => *local_size,
        }
    }

    /// The candidate's local-memory layout regardless of fate.
    pub fn layout(&self) -> SharedLayout {
        match self {
            CandidateOutcome::Timed(p) | CandidateOutcome::Predicted(p) => p.layout,
            CandidateOutcome::Rejected { layout, .. } => *layout,
        }
    }
}

/// A completed sweep: the winner plus the full per-candidate record.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The winning point (minimum duration; ties → smaller local size).
    pub winner: CandidatePoint,
    /// Every candidate, in sweep order.
    pub candidates: Vec<CandidateOutcome>,
    /// Kernel launches the sweep spent (warmup + timed).  An exhaustive
    /// sweep spends two per successfully run candidate and one per
    /// failed one; a [`SweepMode::Static`] sweep spends exactly zero.
    pub sweep_launches: u64,
    /// Candidates whose footprint proof ran: every lint survivor in
    /// [`SweepMode::Exhaustive`], only what the rank walk needed in
    /// [`SweepMode::Static`].
    pub proofs: u64,
}

impl SweepOutcome {
    /// Candidates that were timed successfully.
    pub fn timed(&self) -> impl Iterator<Item = &CandidatePoint> {
        self.candidates.iter().filter_map(|c| match c {
            CandidateOutcome::Timed(p) => Some(p),
            _ => None,
        })
    }

    /// Candidates selected without a launch ([`SweepMode::Static`]).
    pub fn predicted(&self) -> impl Iterator<Item = &CandidatePoint> {
        self.candidates.iter().filter_map(|c| match c {
            CandidateOutcome::Predicted(p) => Some(p),
            _ => None,
        })
    }

    /// Number of rejected candidates.
    pub fn rejected(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| matches!(c, CandidateOutcome::Rejected { .. }))
            .count()
    }
}

/// Sweep failure: no candidate could win.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The configuration has no legal local size on this lattice at all
    /// (e.g. the global size is smaller than the smallest legal group).
    NoCandidates {
        /// The configuration's label.
        kernel: String,
    },
    /// Candidates existed but every one was rejected; the per-candidate
    /// reasons are preserved.
    AllRejected {
        /// The configuration's label.
        kernel: String,
        /// Every rejected candidate with its reason.
        candidates: Vec<CandidateOutcome>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoCandidates { kernel } => {
                write!(f, "{kernel}: no legal local size to tune over")
            }
            SweepError::AllRejected { kernel, candidates } => {
                write!(
                    f,
                    "{kernel}: all {} candidates rejected (",
                    candidates.len()
                )?;
                for (i, c) in candidates.iter().enumerate() {
                    if let CandidateOutcome::Rejected {
                        local_size,
                        layout,
                        reason,
                    } = c
                    {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "{local_size} {}: {reason}", layout.tag())?;
                    }
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// The local sizes the tuner will try for a configuration — the Fig. 6
/// candidate set: multiples of lcm(site block, warp size) that divide
/// the global size, up to the 1024 maximum.
pub fn candidate_local_sizes(cfg: KernelConfig, half_volume: u64) -> Vec<u32> {
    cfg.legal_local_sizes(half_volume)
}

/// The static decision order over `(layout, local size, predicted µs)`
/// triples: ascending predicted duration ([`f64::total_cmp`], so even a
/// NaN has one place), ties toward the smaller local size, then toward
/// the layout using less local memory, then by layout tag.  Because no
/// two distinct candidates share all four keys this is a strict total
/// order — the sorted sequence (and hence the [`SweepMode::Static`]
/// winner) is invariant under the enumeration order of the input.
pub fn static_rank_order(cands: &mut [(SharedLayout, u32, f64)]) {
    cands.sort_by(rank_cmp);
}

fn rank_cmp(a: &(SharedLayout, u32, f64), b: &(SharedLayout, u32, f64)) -> Ordering {
    a.2.total_cmp(&b.2)
        .then(a.1.cmp(&b.1))
        .then(a.0.required_bytes(a.1).cmp(&b.0.required_bytes(b.1)))
        .then(a.0.tag().cmp(&b.0.tag()))
}

/// Lint one candidate the way `sancheck` would; empty = clean.
fn lint_candidate<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
) -> Vec<String> {
    let (range, kernel) = problem
        .launch(cfg, local_size, device)
        .expect("candidates are legal local sizes");
    lint_launch(
        device,
        &range,
        &kernel.resources(local_size),
        kernel.num_phases(),
        kernel.local_size_multiple(),
    )
    .into_iter()
    .map(|f| f.detail)
    .collect()
}

/// Prove a candidate race- and bounds-free over the whole ND-range
/// before spending launches timing it.  The lints already ran
/// ([`lint_candidate`]), so only the footprint proofs are requested.
fn static_candidate<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
) -> Vec<String> {
    let (range, kernel) = problem
        .launch(cfg, local_size, device)
        .expect("candidates are legal local sizes");
    let scfg = StaticCheckConfig {
        lint: false,
        ..StaticCheckConfig::tuner()
    };
    staticcheck_kernel(
        kernel.as_ref(),
        &range,
        device,
        problem.memory(),
        &scfg,
        &cfg.label(),
    )
    .findings
    .into_iter()
    .map(|f| format!("{}: {}", f.kind, f.detail))
    .collect()
}

/// What the sweep decided for one candidate before any launch.
enum Fate {
    /// Not eligible: a static gate or the static ranking rejected it.
    Reject(Reject),
    /// Selected from the static ranking alone ([`SweepMode::Static`]).
    Predict(CandidatePoint),
    /// To be timed (between the lints and the proofs: to be proven).
    Time,
}

/// Sweep one configuration over (local size × local-memory layout):
/// every candidate local size is tried under every layout in `layouts`,
/// and the fastest *(size, layout)* point wins.  Pass
/// [`KernelConfig::tunable_layouts`] to make the layout a tuned
/// dimension (the paper's dense layout plus the padded and swizzled
/// bank-conflict remedies), or `&[cfg.shared_layout]` to stay on the
/// configuration's own layout.  Ties break toward the smaller local
/// size, then toward the layout using less local memory (so `flat`
/// wins a dead heat and a remedy must actually pay for its pad bytes).
///
/// Every [`SweepMode`] runs the same steps:
///
/// 1. the lints — never launch what the linter flags;
/// 2. the proofs, only what the mode needs — never time or select what
///    the access analyzer has not proven race- and bounds-free.
///    Exhaustive proves every lint survivor; Static ranks the survivors
///    of *all* layouts once by predicted duration and proves down that
///    order until one is clean ([`walk_rank_order`]);
/// 3. one fate per candidate: rejected by a gate or a proof, left
///    unproven below the winner's rank ([`Reject::StaticRank`]),
///    inestimable ([`Reject::Inestimable`]), predicted (Static's first
///    clean candidate, warm-calibrated by [`RegimeCalibration`]) or timed;
/// 4. timing under the Fig. 6 measurement conditions
///    ([`run_config_warm`]): each candidate warms a fresh device state
///    once, then is timed under the requested queue semantics;
/// 5. the winner: the minimum duration over timed and predicted points.
pub fn sweep<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    layouts: &[SharedLayout],
    device: &DeviceSpec,
    queue_mode: QueueMode,
    mode: SweepMode,
) -> Result<SweepOutcome, SweepError> {
    sweep_with(
        problem,
        cfg,
        layouts,
        device,
        queue_mode,
        mode,
        static_candidate,
    )
}

/// [`sweep`] with the footprint proof passed in, so tests can fail it.
fn sweep_with<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    layouts: &[SharedLayout],
    device: &DeviceSpec,
    queue_mode: QueueMode,
    mode: SweepMode,
    mut prove: impl FnMut(&DslashProblem<C>, KernelConfig, u32, &DeviceSpec) -> Vec<String>,
) -> Result<SweepOutcome, SweepError> {
    let hv = problem.lattice().half_volume() as u64;
    let sizes = candidate_local_sizes(cfg, hv);
    if sizes.is_empty() || layouts.is_empty() {
        return Err(SweepError::NoCandidates {
            kernel: cfg.label(),
        });
    }

    let span = obs::span_on("tune", "tune.sweep");
    span.attr("kernel", cfg.label());
    span.attr("candidates", (sizes.len() * layouts.len()) as u64);
    span.attr("layouts", layouts.len() as u64);

    // 1. Lints.  Candidates are ordered by (local size, layout local-mem
    // bytes), so the winner fold's strict "<" breaks duration ties
    // toward the smaller size and then toward the cheaper layout.
    let mut fates: Vec<(SharedLayout, u32, Fate)> = Vec::with_capacity(sizes.len() * layouts.len());
    for &ls in &sizes {
        let mut by_bytes = layouts.to_vec();
        by_bytes.sort_by_key(|l| l.required_bytes(ls));
        for layout in by_bytes {
            let lints = lint_candidate(problem, cfg.with_layout(layout), ls, device);
            let fate = if lints.is_empty() {
                Fate::Time
            } else {
                Fate::Reject(Reject::Lint(lints))
            };
            fates.push((layout, ls, fate));
        }
    }

    // 2–3. Proofs; Static walks the static ranking.
    let mut proofs = 0u64;
    let mut prove_one = |layout: SharedLayout, ls: u32| {
        proofs += 1;
        let findings = prove(problem, cfg.with_layout(layout), ls, device);
        if findings.is_empty() {
            Fate::Time
        } else {
            Fate::Reject(Reject::Static(findings))
        }
    };
    if mode == SweepMode::Exhaustive {
        for (layout, ls, fate) in fates.iter_mut().filter(|f| matches!(f.2, Fate::Time)) {
            *fate = prove_one(*layout, *ls);
        }
    } else {
        let ranking = rank_survivors(problem, cfg, layouts, device, &fates, &span);
        let flops = theoretical_flops(problem.lattice()) as f64;
        walk_rank_order(ranking, &mut fates, flops, prove_one);
    }
    span.attr("proofs", proofs);

    // 4. Timing.
    let tol = problem.validation_tolerance();
    let mut sweep_launches = 0u64;
    let mut outcomes = Vec::with_capacity(fates.len());
    for (layout, ls, fate) in fates {
        let outcome = match fate {
            Fate::Reject(reason) => CandidateOutcome::Rejected {
                local_size: ls,
                layout,
                reason,
            },
            Fate::Predict(point) => CandidateOutcome::Predicted(point),
            Fate::Time => {
                let run = run_config_warm(problem, cfg.with_layout(layout), ls, device, queue_mode);
                sweep_launches += if run.is_ok() { 2 } else { 1 };
                match run {
                    Ok(out) if out.error.rel >= tol => CandidateOutcome::Rejected {
                        local_size: ls,
                        layout,
                        reason: Reject::Validation {
                            rel: out.error.rel,
                            tol,
                        },
                    },
                    Ok(out) => CandidateOutcome::Timed(CandidatePoint {
                        local_size: ls,
                        layout,
                        duration_us: out.report.duration_us,
                        gflops: out.gflops,
                        occupancy: out.report.occupancy.achieved,
                        waves: out.report.waves(),
                        tail_fraction: out.report.tail_fraction(),
                    }),
                    Err(e) => CandidateOutcome::Rejected {
                        local_size: ls,
                        layout,
                        reason: Reject::Launch(e),
                    },
                }
            }
        };
        outcomes.push(outcome);
    }

    // 5. The winner.
    let Some(winner) = fastest(&outcomes) else {
        return Err(SweepError::AllRejected {
            kernel: cfg.label(),
            candidates: outcomes,
        });
    };
    span.attr("winner_local_size", winner.local_size);
    span.attr("winner_layout", winner.layout.tag());
    span.attr("winner_duration_us", winner.duration_us);
    span.attr("sweep_launches", sweep_launches);
    Ok(SweepOutcome {
        winner,
        candidates: outcomes,
        sweep_launches,
        proofs,
    })
}

/// The winner over timed and predicted points: the minimum duration,
/// where strict "<" keeps the earlier candidate on ties — smaller local
/// size, then cheaper layout (the sweep order).
fn fastest(candidates: &[CandidateOutcome]) -> Option<CandidatePoint> {
    candidates
        .iter()
        .filter_map(|c| match c {
            CandidateOutcome::Timed(p) | CandidateOutcome::Predicted(p) => Some(p),
            CandidateOutcome::Rejected { .. } => None,
        })
        .fold(None::<&CandidatePoint>, |best, p| match best {
            Some(b) if b.duration_us <= p.duration_us => Some(b),
            _ => Some(p),
        })
        .cloned()
}

/// The ranking [`SweepMode::Static`] walks: [`rank_candidates`] once
/// per layout, all layouts ordered jointly by [`static_rank_order`] (a
/// layout enters through its predicted shared-memory wavefronts and its
/// local-mem occupancy cost).  Returns the lint survivors (indices into `fates`)
/// with their estimates in rank order, then the inestimable ones (an
/// error or a non-finite duration), so a linted-out candidate never
/// displaces the rank numbering of the ones still in play.
fn rank_survivors<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    layouts: &[SharedLayout],
    device: &DeviceSpec,
    fates: &[(SharedLayout, u32, Fate)],
    span: &obs::MaybeSpan,
) -> Vec<(usize, Result<CostEstimate, String>)> {
    let mut estimates = HashMap::new();
    for &layout in layouts {
        for r in rank_candidates(problem, cfg.with_layout(layout), device) {
            estimates.insert((layout, r.local_size), r.estimate);
        }
    }
    let mut ranking = Vec::new();
    for (i, (layout, ls, fate)) in fates.iter().enumerate() {
        if !matches!(fate, Fate::Time) {
            continue;
        }
        let est = match estimates.remove(&(*layout, *ls)) {
            Some(Ok(e)) if !e.duration_us.is_finite() => Err(format!("{} µs", e.duration_us)),
            Some(est) => est,
            None => Err("cost model produced no estimate".into()),
        };
        ranking.push((i, est));
    }
    // A NaN key sorts after every finite duration under `total_cmp`.
    let key = |(i, est): &(usize, Result<CostEstimate, String>)| {
        let us = est.as_ref().map_or(f64::NAN, |e| e.duration_us);
        (fates[*i].0, fates[*i].1, us)
    };
    ranking.sort_by(|a, b| rank_cmp(&key(a), &key(b)));
    let inestimable = ranking.iter().filter(|(_, est)| est.is_err()).count();
    span.attr("ranked_candidates", (ranking.len() - inestimable) as u64);
    span.attr("ranked_inestimable", inestimable as u64);
    ranking
}

/// Give every lint survivor its Static fate, proving in rank order
/// only until one candidate is clean; it is predicted, the rest take
/// their rank unproven, and the inestimable ones are rejected — a mode
/// that never launches cannot time what it cannot rank.  A failed proof
/// takes no rank number.  [`static_rank_order`] is a strict total
/// order, so the first clean candidate of the walk is exactly rank #1
/// among proven-clean ones: proving lazily picks what proving
/// everything would.
fn walk_rank_order(
    ranking: Vec<(usize, Result<CostEstimate, String>)>,
    fates: &mut [(SharedLayout, u32, Fate)],
    flops: f64,
    mut prove: impl FnMut(SharedLayout, u32) -> Fate,
) {
    let mut rank = 0;
    for (i, est) in ranking {
        let (layout, ls, fate) = &mut fates[i];
        *fate = match est {
            Err(why) => Fate::Reject(Reject::Inestimable(why)),
            Ok(est) if rank > 0 => Fate::Reject(Reject::StaticRank {
                rank: rank + 1,
                predicted_us: est.duration_us,
            }),
            Ok(est) => match prove(*layout, *ls) {
                Fate::Time => Fate::Predict(predicted_point(*layout, *ls, &est, flops)),
                rejected => rejected,
            },
        };
        // Inestimable candidates come last, so their count is moot.
        rank += usize::from(!matches!(fate, Fate::Reject(Reject::Static(_))));
    }
}

/// Static's winner: the rank-#1 candidate as a point carrying its
/// warm-calibrated duration (the serving regime — tuned kernels run
/// warm after their first application) and its static occupancy.
fn predicted_point(
    layout: SharedLayout,
    local_size: u32,
    est: &CostEstimate,
    flops: f64,
) -> CandidatePoint {
    let duration_us = RegimeCalibration::committed().calibrated_us(est, Regime::Warm);
    CandidatePoint {
        local_size,
        layout,
        duration_us,
        gflops: flops / duration_us / 1e3,
        occupancy: est.occupancy.achieved,
        waves: est.occupancy.waves,
        tail_fraction: est.occupancy.tail_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_config_warm;
    use crate::strategy::{IndexOrder, Strategy};
    use milc_complex::DoubleComplex as Z;

    /// Sweep on the small test device through an in-order queue.
    fn sweep_small(
        p: &mut DslashProblem<Z>,
        cfg: KernelConfig,
        layouts: &[SharedLayout],
        mode: SweepMode,
    ) -> Result<SweepOutcome, SweepError> {
        sweep(
            p,
            cfg,
            layouts,
            &DeviceSpec::test_small(),
            QueueMode::InOrder,
            mode,
        )
    }

    #[test]
    fn sweep_3lp1_kmajor_picks_a_paper_candidate() {
        let mut p = DslashProblem::<Z>::random(4, 2024);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let out = sweep_small(&mut p, cfg, &[cfg.shared_layout], SweepMode::Exhaustive).unwrap();
        let sizes: Vec<u32> = out.candidates.iter().map(|c| c.local_size()).collect();
        assert_eq!(sizes, vec![96, 192, 384, 768]);
        assert!(sizes.contains(&out.winner.local_size));
        assert_eq!(out.rejected(), 0, "all Fig. 6 candidates must be clean");
        for p in out.timed() {
            assert!(p.duration_us >= out.winner.duration_us);
            assert!(p.waves > 0.0);
            assert!((0.0..=1.0).contains(&p.tail_fraction));
        }
    }

    #[test]
    fn no_candidates_is_an_error_not_a_winner() {
        // L = 2: half-volume 8 → 1LP global size 8 < the smallest
        // warp-aligned group, so the candidate set is empty.
        let mut p = DslashProblem::<Z>::random(2, 1);
        let cfg = KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor);
        let err = sweep_small(&mut p, cfg, &[cfg.shared_layout], SweepMode::Exhaustive);
        assert!(matches!(err, Err(SweepError::NoCandidates { .. })));
    }

    #[test]
    fn winner_tie_breaks_toward_the_earlier_candidate() {
        let point = |local_size| CandidatePoint {
            local_size,
            layout: SharedLayout::Flat,
            duration_us: 10.0,
            gflops: 1.0,
            occupancy: 0.5,
            waves: 2.0,
            tail_fraction: 0.0,
        };
        let candidates = [
            CandidateOutcome::Timed(point(96)),
            CandidateOutcome::Predicted(point(192)),
        ];
        assert_eq!(fastest(&candidates).unwrap().local_size, 96);
    }

    #[test]
    fn layout_sweep_covers_the_cross_product_and_a_remedy_wins() {
        let mut p = DslashProblem::<Z>::random(4, 2024);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let out = sweep_small(&mut p, cfg, &cfg.tunable_layouts(), SweepMode::Exhaustive).unwrap();
        // 4 paper sizes × 3 tunable layouts, all clean.
        assert_eq!(out.candidates.len(), 12);
        assert_eq!(out.rejected(), 0);
        for ls in [96u32, 192, 384, 768] {
            let layouts = out.candidates.iter().filter(|c| c.local_size() == ls);
            assert_eq!(layouts.count(), 3, "each size tried under each layout");
        }
        // The dense layout's 4-way bank conflict costs real modelled
        // time; a conflict-free remedy must out-run it at equal size.
        let flat_best = out
            .timed()
            .filter(|p| p.layout == SharedLayout::Flat)
            .map(|p| p.duration_us)
            .fold(f64::INFINITY, f64::min);
        assert!(
            out.winner.duration_us < flat_best,
            "winner {} {} @ {:.3} µs must beat best flat {:.3} µs",
            out.winner.local_size,
            out.winner.layout.tag(),
            out.winner.duration_us,
            flat_best
        );
        assert_ne!(out.winner.layout, SharedLayout::Flat);
    }

    #[test]
    fn layout_sweep_degenerates_to_flat_without_local_mem() {
        let mut p = DslashProblem::<Z>::random(4, 11);
        let cfg = KernelConfig::new(Strategy::ThreeLp3, IndexOrder::KMajor);
        let out = sweep_small(&mut p, cfg, &cfg.tunable_layouts(), SweepMode::Exhaustive).unwrap();
        assert!(out
            .candidates
            .iter()
            .all(|c| c.layout() == SharedLayout::Flat));
        let plain = sweep_small(&mut p, cfg, &[cfg.shared_layout], SweepMode::Exhaustive).unwrap();
        assert_eq!(out.candidates.len(), plain.candidates.len());
        assert_eq!(out.winner.local_size, plain.winner.local_size);
    }

    /// Each candidate's fate in sweep order: `T` timed, `P` predicted,
    /// or the reject kind (static-rank rejects carry their rank).
    fn fates(candidates: &[CandidateOutcome]) -> String {
        let fate = |c: &CandidateOutcome| {
            let what = match c {
                CandidateOutcome::Timed(_) => "T".to_string(),
                CandidateOutcome::Predicted(_) => "P".to_string(),
                CandidateOutcome::Rejected { reason, .. } => match reason {
                    Reject::StaticRank { rank, .. } => format!("rank{rank}"),
                    Reject::Lint(_) => "lint".to_string(),
                    Reject::Static(_) => "static".to_string(),
                    Reject::Inestimable(_) => "inestimable".to_string(),
                    Reject::Launch(_) => "launch".to_string(),
                    Reject::Validation { .. } => "validation".to_string(),
                },
            };
            format!("{} {} {what}", c.local_size(), c.layout().tag())
        };
        candidates.iter().map(fate).collect::<Vec<_>>().join(", ")
    }

    /// Pins both modes of the joint (size × layout) sweep on 3LP-1
    /// k-major at L = 4: the exact fate of each candidate, the launch
    /// count, and the state policy behind every timed duration —
    /// Exhaustive times each candidate on a fresh, once-warmed state
    /// (bitwise `run_config_warm`).
    #[test]
    fn every_mode_pins_fates_launches_and_state_policy() {
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let layouts = cfg.tunable_layouts();
        let mut p = DslashProblem::<Z>::random(4, 2024);

        let full = sweep_small(&mut p, cfg, &layouts, SweepMode::Exhaustive).unwrap();
        assert_eq!(
            fates(&full.candidates),
            "96 flat T, 96 xor2 T, 96 pad5 T, 192 flat T, 192 xor2 T, 192 pad5 T, \
             384 flat T, 384 xor2 T, 384 pad5 T, 768 flat T, 768 xor2 T, 768 pad5 T"
        );
        assert_eq!(full.sweep_launches, 24);
        assert_eq!(full.proofs, 12, "Exhaustive proves every lint survivor");
        for pt in full.timed() {
            let lcfg = cfg.with_layout(pt.layout);
            let warm = run_config_warm(&mut p, lcfg, pt.local_size, &device, QueueMode::InOrder);
            let warm_us = warm.unwrap().report.duration_us;
            assert_eq!(
                warm_us.to_bits(),
                pt.duration_us.to_bits(),
                "{}",
                lcfg.label()
            );
        }

        let stat = sweep_small(&mut p, cfg, &layouts, SweepMode::Static).unwrap();
        assert_eq!(
            fates(&stat.candidates),
            "96 flat rank9, 96 xor2 P, 96 pad5 rank2, 192 flat rank10, 192 xor2 rank3, \
             192 pad5 rank4, 384 flat rank11, 384 xor2 rank5, 384 pad5 rank6, 768 flat rank12, \
             768 xor2 rank7, 768 pad5 rank8"
        );
        assert_eq!(stat.sweep_launches, 0);
        assert_eq!(stat.proofs, 1, "Static proves only its winner");
    }

    /// The shipped 3LP-1 k-major joint sweep at L = 4, its rank order
    /// (as pinned above): 96 xor2, 96 pad5, 192 xor2, 192 pad5, ...,
    /// 768 pad5, then the flat layout from 96 to 768.
    fn cfg_3lp1() -> (DslashProblem<Z>, KernelConfig, Vec<SharedLayout>) {
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        (DslashProblem::random(4, 2024), cfg, cfg.tunable_layouts())
    }

    /// A candidate as "local size, layout tag", e.g. `96 xor2`.
    fn point(layout: SharedLayout, ls: u32) -> String {
        format!("{ls} {}", layout.tag())
    }

    /// A proof that fails on the `failing` points and logs every point
    /// it was asked to prove.
    fn injected<'a>(
        failing: &'a [String],
        log: &'a mut Vec<String>,
    ) -> impl FnMut(&DslashProblem<Z>, KernelConfig, u32, &DeviceSpec) -> Vec<String> + 'a {
        move |_, lcfg, ls, _| {
            let at = point(lcfg.shared_layout, ls);
            log.push(at.clone());
            if failing.contains(&at) {
                vec![format!("injected race at {at}")]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn static_walk_rejects_a_failed_rank_1_and_predicts_rank_2() {
        let (mut p, cfg, layouts) = cfg_3lp1();
        let device = DeviceSpec::test_small();
        let mut log = Vec::new();
        let out = sweep_with(
            &mut p,
            cfg,
            &layouts,
            &device,
            QueueMode::InOrder,
            SweepMode::Static,
            injected(&["96 xor2".to_string()], &mut log),
        )
        .unwrap();
        // Rank #1 is rejected with its findings, rank #2 is proven and
        // wins, and the unproven tail is renumbered around the reject.
        assert_eq!(
            fates(&out.candidates),
            "96 flat rank8, 96 xor2 static, 96 pad5 P, 192 flat rank9, 192 xor2 rank2, \
             192 pad5 rank3, 384 flat rank10, 384 xor2 rank4, 384 pad5 rank5, 768 flat rank11, \
             768 xor2 rank6, 768 pad5 rank7"
        );
        assert_eq!(log, ["96 xor2", "96 pad5"]);
        assert_eq!(out.proofs, 2);
        let findings = out.candidates.iter().find_map(|c| match c {
            CandidateOutcome::Rejected {
                reason: Reject::Static(msgs),
                ..
            } => Some(msgs.clone()),
            _ => None,
        });
        assert_eq!(findings.unwrap(), ["injected race at 96 xor2"]);
        assert_eq!(point(out.winner.layout, out.winner.local_size), "96 pad5");
        // The winner is the one proving everything first would pick:
        // the best clean candidate, here the best pad5 one.
        let pad5 = [SharedLayout::TUNABLE[1]];
        let clean = sweep_small(&mut p, cfg, &pad5, SweepMode::Static).unwrap();
        assert_eq!(clean.winner.local_size, 96);
        assert_eq!(
            clean.winner.duration_us.to_bits(),
            out.winner.duration_us.to_bits()
        );
    }

    #[test]
    fn a_failure_in_every_proof_is_all_rejected_in_every_mode() {
        let (mut p, cfg, layouts) = cfg_3lp1();
        let device = DeviceSpec::test_small();
        let every: Vec<String> = [96, 192, 384, 768]
            .into_iter()
            .flat_map(|ls| layouts.iter().map(move |&l| point(l, ls)))
            .collect();
        for mode in [SweepMode::Exhaustive, SweepMode::Static] {
            let mut log = Vec::new();
            let err = sweep_with(
                &mut p,
                cfg,
                &layouts,
                &device,
                QueueMode::InOrder,
                mode,
                injected(&every, &mut log),
            );
            let Err(SweepError::AllRejected { candidates, .. }) = err else {
                panic!("{mode:?}: expected AllRejected, got {err:?}");
            };
            assert_eq!(
                log.len(),
                12,
                "{mode:?}: a walk with no clean candidate proves all"
            );
            assert!(
                candidates.iter().all(|c| matches!(
                    c,
                    CandidateOutcome::Rejected {
                        reason: Reject::Static(_),
                        ..
                    }
                )),
                "{mode:?}: {}",
                fates(&candidates)
            );
        }
    }

    /// Static rejects an inestimable candidate unproven: it can neither
    /// rank nor time it.  Inestimability cannot be provoked on a shipped
    /// kernel, so the walk runs on the real ranking with ranks #1 and #3
    /// (96 and 192 xor2) turned inestimable, and 96 xor2's proof failing
    /// if it were ever asked.
    #[test]
    fn inestimable_candidates_are_never_proven_in_static() {
        let (p, cfg, layouts) = cfg_3lp1();
        let device = DeviceSpec::test_small();
        let inestimable = ["96 xor2".to_string(), "192 xor2".to_string()];
        // The lint survivors in sweep order: every candidate here.
        let sizes = candidate_local_sizes(cfg, p.lattice().half_volume() as u64);
        let mut cands: Vec<(SharedLayout, u32, Fate)> = sizes
            .into_iter()
            .flat_map(|ls| layouts.iter().map(move |&l| (l, ls, Fate::Time)))
            .collect();
        cands.sort_by_key(|(l, ls, _)| (*ls, l.required_bytes(*ls)));
        let span = obs::span_on("tune", "test");
        let (mut ranking, unranked): (Vec<_>, Vec<_>) =
            rank_survivors(&p, cfg, &layouts, &device, &cands, &span)
                .into_iter()
                .partition(|&(i, _)| !inestimable.contains(&point(cands[i].0, cands[i].1)));
        ranking.extend(
            unranked
                .into_iter()
                .map(|(i, _)| (i, Err("injected".into()))),
        );

        let mut log = Vec::new();
        walk_rank_order(ranking, &mut cands, 1.0, |l, ls| {
            log.push(point(l, ls));
            if point(l, ls) == "96 xor2" {
                Fate::Reject(Reject::Static(vec!["injected".into()]))
            } else {
                Fate::Time
            }
        });
        assert_eq!(log, ["96 pad5"], "proofs in walk order");
        let outcomes: Vec<CandidateOutcome> = cands
            .into_iter()
            .map(|(layout, local_size, fate)| match fate {
                Fate::Reject(reason) => CandidateOutcome::Rejected {
                    local_size,
                    layout,
                    reason,
                },
                Fate::Predict(p) => CandidateOutcome::Predicted(p),
                Fate::Time => unreachable!("Static times nothing"),
            })
            .collect();
        assert_eq!(
            fates(&outcomes),
            "96 flat rank7, 96 xor2 inestimable, 96 pad5 P, 192 flat rank8, \
             192 xor2 inestimable, 192 pad5 rank2, 384 flat rank9, 384 xor2 rank3, \
             384 pad5 rank4, 768 flat rank10, 768 xor2 rank5, 768 pad5 rank6"
        );
    }

    #[test]
    fn static_rank_order_is_one_sequence_under_every_input_permutation() {
        let [flat, pad5, xor2] = SharedLayout::TUNABLE;
        let items = [
            (flat, 192, f64::NAN),
            (xor2, 96, 0.0),
            (flat, 96, -0.0),
            (pad5, 96, 0.0),
            (flat, 384, 1.5),
        ];
        let bits = |v: &[(SharedLayout, u32, f64)]| -> Vec<(SharedLayout, u32, u64)> {
            v.iter().map(|&(l, ls, us)| (l, ls, us.to_bits())).collect()
        };
        let mut want = items;
        static_rank_order(&mut want);
        // -0 before +0 (then by size and layout bytes), the NaN last.
        assert_eq!(
            bits(&want),
            bits(&[
                (flat, 96, -0.0),
                (xor2, 96, 0.0),
                (pad5, 96, 0.0),
                (flat, 384, 1.5),
                (flat, 192, f64::NAN),
            ])
        );
        // Every permutation of the input: the base-n codes whose digits
        // are all distinct.
        let n = items.len();
        let mut seen = 0;
        for code in 0..n.pow(n as u32) {
            let idx: Vec<usize> = (0..n).map(|d| code / n.pow(d as u32) % n).collect();
            if (0..n).all(|i| idx.contains(&i)) {
                let mut perm: Vec<_> = idx.iter().map(|&i| items[i]).collect();
                static_rank_order(&mut perm);
                assert_eq!(bits(&perm), bits(&want), "input order {idx:?}");
                seen += 1;
            }
        }
        assert_eq!(seen, 120);
    }
}
