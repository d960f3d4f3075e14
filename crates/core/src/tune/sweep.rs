//! The measurement side of the tuner: run one kernel configuration over
//! every legal local size and pick the fastest.
//!
//! Candidates are exactly [`KernelConfig::legal_local_sizes`] — the
//! paper's Fig. 6 sweep.  Each candidate is first checked against the
//! static launch linter ([`gpu_sim::lint_launch`]); the tuner must never
//! time, let alone select, a configuration `sancheck` would flag.
//! Surviving candidates run warm (the conditions of
//! [`run_config_warm`](crate::runner::run_config_warm) that produced
//! `results/fig6.csv`), are validated against the CPU reference, and the
//! minimum modelled duration wins (ties break toward the smaller local
//! size, which wastes fewer tail resources).  [`sweep`] is the one entry
//! point for every [`SweepMode`].
//!
//! Unlike the minimal `quda_ref::autotune`, nothing is silently
//! dropped: every rejected candidate is recorded with its reason, and a
//! sweep in which *no* candidate survives is an error, not a fabricated
//! winner.

use crate::flops::theoretical_flops;
use crate::kernels::common::SharedLayout;
use crate::obs;
use crate::problem::DslashProblem;
use crate::runner::run_config_warm_on_state;
use crate::staticcheck::{rank_candidates, staticcheck_kernel};
use crate::strategy::KernelConfig;
use gpu_sim::{
    lint_launch, CostEstimate, DeviceSpec, DeviceState, QueueMode, Regime, RegimeCalibration,
    SimError, StaticCheckConfig,
};
use milc_complex::ComplexField;

/// How a sweep spends its timed launches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Time every candidate that passes the static gates (the Fig. 6
    /// sweep; the default).
    Exhaustive,
    /// Statically rank the surviving candidates by the cost model's
    /// predicted duration and time only the top `time_top_k`; the
    /// pruned tail is recorded as [`Reject::StaticRank`].  Candidates
    /// the cost model cannot estimate are always timed — a ranked sweep
    /// must never prune what it cannot rank.
    Ranked {
        /// How many top-ranked candidates to time (at least 1).
        time_top_k: usize,
    },
    /// Measurement-free: pick the winner from the static ranking alone
    /// — *zero* timed launches (`sweep_launches == 0`).  The winner is
    /// recorded as [`CandidateOutcome::Predicted`] with its
    /// warm-calibrated duration (the serving regime the tuner's timed
    /// modes also report); every other candidate is rejected with
    /// [`Reject::StaticRank`] or, when the cost model cannot estimate
    /// it, [`Reject::Inestimable`] — a mode that never launches cannot
    /// fall back to timing what it cannot rank.
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
    /// A ranked sweep pruned the candidate: the cost model predicted it
    /// too slow to be worth timing.
    StaticRank {
        /// 1-based predicted rank among the sweep's candidates.
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
    /// sweep spends two per timed candidate; a ranked sweep warms once
    /// and times top-K back-to-back, so pruned *and* shared-warmup
    /// launches are both avoided; a [`SweepMode::Static`] sweep spends
    /// exactly zero.
    pub sweep_launches: u64,
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
/// triples: ascending predicted duration, ties toward the smaller local
/// size, then toward the layout using less local memory, then by layout
/// tag.  Because no two distinct candidates share all four keys this is
/// a strict total order — the sorted sequence (and hence the
/// [`SweepMode::Static`] winner) is invariant under the enumeration
/// order of the input.
pub fn static_rank_order(cands: &mut [(SharedLayout, u32, f64)]) {
    cands.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.0.required_bytes(a.1).cmp(&b.0.required_bytes(b.1)))
            .then(a.0.tag().cmp(&b.0.tag()))
    });
}

/// Lint one candidate the way `sancheck` would; empty = clean.
fn lint_candidate<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    local_size: u32,
    device: &DeviceSpec,
) -> Vec<String> {
    let range = problem.launch_range(cfg, local_size);
    let kernel = problem.make_kernel(cfg, range.num_groups());
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
    let range = problem.launch_range(cfg, local_size);
    let kernel = problem.make_kernel(cfg, range.num_groups());
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
    /// To be timed.
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
/// 1. the static gates — never launch what the linter flags, never time
///    what the access analyzer proves racy or out of bounds over the
///    full ND-range;
/// 2. when the mode prunes ([`SweepMode::Ranked`], [`SweepMode::Static`]),
///    one static ranking of the survivors of *all* layouts by the cost
///    model's predicted duration;
/// 3. one fate per candidate: rejected by a gate, pruned by its rank
///    ([`Reject::StaticRank`]), inestimable without a timing fallback
///    ([`Reject::Inestimable`], Static only), predicted (Static's rank
///    #1, carrying its warm-calibrated duration from the shared
///    [`RegimeCalibration`] table) or timed;
/// 4. timing under the Fig. 6 measurement conditions — warm caches and
///    the requested queue semantics.  Exhaustive warms a fresh device
///    state for every candidate; Ranked times back-to-back on one state
///    warmed once;
/// 5. the winner: the minimum duration over timed and predicted points.
pub fn sweep<C: ComplexField>(
    problem: &mut DslashProblem<C>,
    cfg: KernelConfig,
    layouts: &[SharedLayout],
    device: &DeviceSpec,
    queue_mode: QueueMode,
    mode: SweepMode,
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

    // 1. Gates.  Candidates are ordered by (local size, layout local-mem
    // bytes), so the winner fold's strict "<" breaks duration ties
    // toward the smaller size and then toward the cheaper layout.
    let mut fates: Vec<(SharedLayout, u32, Fate)> = Vec::with_capacity(sizes.len() * layouts.len());
    for &ls in &sizes {
        let mut by_bytes = layouts.to_vec();
        by_bytes.sort_by_key(|l| l.required_bytes(ls));
        for layout in by_bytes {
            let lcfg = cfg.with_layout(layout);
            let lints = lint_candidate(problem, lcfg, ls, device);
            let fate = if !lints.is_empty() {
                Fate::Reject(Reject::Lint(lints))
            } else {
                let proofs = static_candidate(problem, lcfg, ls, device);
                if proofs.is_empty() {
                    Fate::Time
                } else {
                    Fate::Reject(Reject::Static(proofs))
                }
            };
            fates.push((layout, ls, fate));
        }
    }

    // 2–3. Static ranking, then each survivor's fate by mode.
    if mode != SweepMode::Exhaustive {
        let flops = theoretical_flops(problem.lattice()) as f64;
        let ranks = rank_survivors(problem, cfg, layouts, device, &fates, &span);
        for ((layout, ls, fate), rank) in fates.iter_mut().zip(ranks) {
            let Some(rank) = rank else {
                continue; // already rejected by a gate
            };
            *fate = match (mode, rank) {
                (SweepMode::Static, Ok((1, est))) => {
                    Fate::Predict(predicted_point(*layout, *ls, &est, flops))
                }
                (SweepMode::Static, Err(why)) => Fate::Reject(Reject::Inestimable(why)),
                (SweepMode::Ranked { time_top_k }, Ok((rank, _))) if rank <= time_top_k.max(1) => {
                    Fate::Time
                }
                (_, Ok((rank, est))) => Fate::Reject(Reject::StaticRank {
                    rank,
                    predicted_us: est.duration_us,
                }),
                // A ranked sweep must never prune what it cannot rank.
                (_, Err(_)) => Fate::Time,
            };
        }
    }

    // 4. Timing.
    let tol = problem.validation_tolerance();
    let shares_state = matches!(mode, SweepMode::Ranked { .. });
    let mut state: Option<DeviceState> = None;
    let mut warmed = false;
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
                if !shares_state {
                    state = None;
                    warmed = false;
                }
                let st = state.get_or_insert_with(|| DeviceState::new(device));
                let run = run_config_warm_on_state(
                    problem,
                    cfg.with_layout(layout),
                    ls,
                    device,
                    queue_mode,
                    st,
                    !warmed,
                );
                sweep_launches += if run.is_ok() && !warmed { 2 } else { 1 };
                warmed |= run.is_ok();
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

/// One gate survivor's place in the static ranking: its 1-based rank
/// among the survivors with its estimate, or why the cost model could
/// not estimate it.
type StaticRankOf = Result<(usize, CostEstimate), String>;

/// The static ranking shared by [`SweepMode::Ranked`] and
/// [`SweepMode::Static`]: [`rank_candidates`] once per layout, all
/// layouts ordered jointly by [`static_rank_order`] (a layout enters
/// through its predicted shared-memory wavefronts and its local-mem
/// occupancy cost).  Returns one entry per candidate in `fates` order,
/// `None` for a gate reject.  Ranks count only gate survivors: a
/// linted-out candidate must not displace the rank numbering of the
/// ones still in play.
fn rank_survivors<C: ComplexField>(
    problem: &DslashProblem<C>,
    cfg: KernelConfig,
    layouts: &[SharedLayout],
    device: &DeviceSpec,
    fates: &[(SharedLayout, u32, Fate)],
    span: &obs::MaybeSpan,
) -> Vec<Option<StaticRankOf>> {
    let mut estimates: Vec<(SharedLayout, u32, CostEstimate)> = Vec::new();
    let mut errors: Vec<(SharedLayout, u32, String)> = Vec::new();
    for &layout in layouts {
        for r in rank_candidates(problem, cfg.with_layout(layout), device) {
            match r.estimate {
                Ok(est) => estimates.push((layout, r.local_size, est)),
                Err(why) => errors.push((layout, r.local_size, why)),
            }
        }
    }
    let mut order: Vec<(SharedLayout, u32, f64)> = estimates
        .iter()
        .map(|(l, ls, est)| (*l, *ls, est.duration_us))
        .collect();
    static_rank_order(&mut order);
    let survives = |l: SharedLayout, ls: u32| {
        fates
            .iter()
            .any(|(fl, fls, f)| *fl == l && *fls == ls && matches!(f, Fate::Time))
    };
    let ranked: Vec<(SharedLayout, u32)> = order
        .into_iter()
        .filter(|&(l, ls, _)| survives(l, ls))
        .map(|(l, ls, _)| (l, ls))
        .collect();
    span.attr("ranked_candidates", ranked.len() as u64);
    span.attr("ranked_inestimable", errors.len() as u64);

    fates
        .iter()
        .map(|(layout, ls, fate)| {
            if !matches!(fate, Fate::Time) {
                return None;
            }
            let key = (*layout, *ls);
            let estimate = estimates
                .iter()
                .find(|(l, c, _)| (*l, *c) == key)
                .map(|(_, _, est)| est.clone());
            Some(match (ranked.iter().position(|k| *k == key), estimate) {
                (Some(i), Some(est)) => Ok((i + 1, est)),
                _ => Err(errors.iter().find(|(l, c, _)| (*l, *c) == key).map_or_else(
                    || "cost model produced no estimate".to_string(),
                    |(_, _, why)| why.clone(),
                )),
            })
        })
        .collect()
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

    /// Relative duration gap between two winners.
    fn winner_gap(a: &SweepOutcome, b: &SweepOutcome) -> f64 {
        (a.winner.duration_us - b.winner.duration_us).abs() / b.winner.duration_us
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
    fn ranked_sweep_times_top_k_and_prunes_the_tail_with_ranks() {
        let mut p = DslashProblem::<Z>::random(4, 2024);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::IMajor);
        let layouts = [cfg.shared_layout];
        let full = sweep_small(&mut p, cfg, &layouts, SweepMode::Exhaustive).unwrap();
        let total = full.candidates.len();
        assert!(total > 2, "need a candidate set worth pruning");

        let ranked =
            sweep_small(&mut p, cfg, &layouts, SweepMode::Ranked { time_top_k: 2 }).unwrap();
        assert_eq!(ranked.candidates.len(), total);
        assert_eq!(ranked.timed().count(), 2);
        let pruned: Vec<_> = ranked
            .candidates
            .iter()
            .filter_map(|c| match c {
                CandidateOutcome::Rejected {
                    reason: Reject::StaticRank { rank, predicted_us },
                    ..
                } => Some((*rank, *predicted_us)),
                _ => None,
            })
            .collect();
        assert_eq!(pruned.len(), total - 2);
        for (rank, us) in &pruned {
            assert!(*rank > 2, "pruned candidates sit below the timed top-K");
            assert!(*us > 0.0);
        }
        // The ranked winner must be *duration-equivalent* to the
        // exhaustive winner: the model's job is to keep a winner-class
        // candidate inside the timed set.  (Exact identity is too
        // strong on this tiny lattice, where every candidate sits
        // within ~0.2% and the argmin is decided by cache-replacement
        // noise the static model cannot see.)
        let rel = winner_gap(&ranked, &full);
        assert!(
            rel <= 5e-3,
            "ranked vs exhaustive winner {:.3}% apart",
            rel * 100.0
        );
        // Launch accounting: exhaustive pays warmup+timed per
        // candidate; ranked warms once and times top-K back-to-back.
        assert_eq!(full.sweep_launches, 2 * full.timed().count() as u64);
        assert_eq!(ranked.sweep_launches, 1 + ranked.timed().count() as u64);
    }

    #[test]
    fn ranked_sweep_with_k_covering_all_candidates_is_exhaustive() {
        let mut p = DslashProblem::<Z>::random(4, 7);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let layouts = [cfg.shared_layout];
        let full = sweep_small(&mut p, cfg, &layouts, SweepMode::Exhaustive).unwrap();
        let ranked =
            sweep_small(&mut p, cfg, &layouts, SweepMode::Ranked { time_top_k: 100 }).unwrap();
        assert_eq!(ranked.timed().count(), full.timed().count());
        // With every candidate timed the winner can only differ by the
        // shared-state timing noise floor — assert duration equivalence.
        let rel = winner_gap(&ranked, &full);
        assert!(
            rel <= 5e-3,
            "ranked vs exhaustive winner {:.3}% apart",
            rel * 100.0
        );
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

    #[test]
    fn ranked_layout_sweep_prunes_jointly_and_keeps_the_winner_class() {
        let mut p = DslashProblem::<Z>::random(4, 2024);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let layouts = cfg.tunable_layouts();
        let full = sweep_small(&mut p, cfg, &layouts, SweepMode::Exhaustive).unwrap();
        let ranked =
            sweep_small(&mut p, cfg, &layouts, SweepMode::Ranked { time_top_k: 3 }).unwrap();
        assert_eq!(ranked.candidates.len(), full.candidates.len());
        assert_eq!(ranked.timed().count(), 3);
        // ≥ 60% of the cross product goes untimed: ranked sweeps avoid
        // most launches even with the layout axis.
        let avoided = ranked.candidates.len() - ranked.timed().count();
        assert!(avoided * 10 >= ranked.candidates.len() * 6);
        assert_eq!(ranked.sweep_launches, 1 + ranked.timed().count() as u64);
        // The cost model prices bank conflicts, so the joint top-K must
        // keep a winner-class (size, layout) point in the timed set.
        let rel = winner_gap(&ranked, &full);
        assert!(
            rel <= 5e-3,
            "ranked vs exhaustive winner {:.3}% apart",
            rel * 100.0
        );
        assert_ne!(ranked.winner.layout, SharedLayout::Flat);
    }

    /// Each candidate's fate in sweep order: `T` timed, `P` predicted,
    /// or the reject kind (static-rank rejects carry their rank).
    fn fates(out: &SweepOutcome) -> String {
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
        out.candidates
            .iter()
            .map(fate)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Pins every mode of the joint (size × layout) sweep on 3LP-1
    /// k-major at L = 4: the exact fate of each candidate, the launch
    /// count, and the state policy behind every timed duration —
    /// Exhaustive times each candidate on a fresh, once-warmed state
    /// (bitwise `run_config_warm`); Ranked times its survivors
    /// back-to-back on one state warmed once.
    #[test]
    fn every_mode_pins_fates_launches_and_state_policy() {
        let device = DeviceSpec::test_small();
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let layouts = cfg.tunable_layouts();
        let mut p = DslashProblem::<Z>::random(4, 2024);

        let full = sweep_small(&mut p, cfg, &layouts, SweepMode::Exhaustive).unwrap();
        assert_eq!(
            fates(&full),
            "96 flat T, 96 xor2 T, 96 pad5 T, 192 flat T, 192 xor2 T, 192 pad5 T, \
             384 flat T, 384 xor2 T, 384 pad5 T, 768 flat T, 768 xor2 T, 768 pad5 T"
        );
        assert_eq!(full.sweep_launches, 24);
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

        let ranked =
            sweep_small(&mut p, cfg, &layouts, SweepMode::Ranked { time_top_k: 3 }).unwrap();
        assert_eq!(
            fates(&ranked),
            "96 flat rank9, 96 xor2 T, 96 pad5 T, 192 flat rank10, 192 xor2 T, 192 pad5 rank4, \
             384 flat rank11, 384 xor2 rank5, 384 pad5 rank6, 768 flat rank12, 768 xor2 rank7, \
             768 pad5 rank8"
        );
        assert_eq!(ranked.sweep_launches, 4);
        // Hand-driven replay: one state, one warmup, then every timed
        // candidate back-to-back in sweep order.
        let launcher = gpu_sim::Launcher::new(&device);
        let mut state = DeviceState::new(&device);
        for (i, pt) in ranked.timed().enumerate() {
            let lcfg = cfg.with_layout(pt.layout);
            let range = p.launch_range(lcfg, pt.local_size);
            let kernel = p.make_kernel(lcfg, range.num_groups());
            let mut launch = || {
                let r = launcher.launch_with_state(kernel.as_ref(), range, p.memory(), &mut state);
                r.unwrap().duration_us
            };
            if i == 0 {
                launch();
            }
            assert_eq!(
                launch().to_bits(),
                pt.duration_us.to_bits(),
                "{}",
                lcfg.label()
            );
        }

        let stat = sweep_small(&mut p, cfg, &layouts, SweepMode::Static).unwrap();
        assert_eq!(
            fates(&stat),
            "96 flat rank9, 96 xor2 P, 96 pad5 rank2, 192 flat rank10, 192 xor2 rank3, \
             192 pad5 rank4, 384 flat rank11, 384 xor2 rank5, 384 pad5 rank6, 768 flat rank12, \
             768 xor2 rank7, 768 pad5 rank8"
        );
        assert_eq!(stat.sweep_launches, 0);
    }
}
