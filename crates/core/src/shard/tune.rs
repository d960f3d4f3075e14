//! Per-rank autotuning of a sharded run's local sizes.
//!
//! Each rank owns a slab whose target count (and interior/boundary
//! split) differs from the global problem, so the single-device tune
//! cache entries do not apply.  This module ranks each rank's launches
//! *statically* — zero launches spent — and records the winner in the
//! shared [`TuneCache`] under a `shard/<config>` kernel key with the
//! slab's dimensions — ranks with identical slabs and devices share one
//! entry, so a homogeneous strong-scaling group decides once per
//! distinct slab shape, not once per rank.
//!
//! Candidates are restricted to sizes legal for *every* non-empty phase
//! of the rank ([`RankProblem::tunable_local_sizes`]), so the tuned
//! size is usable by both exchange schedules without refitting.  Each
//! phase is estimated by the single-device tuner's base-and-derive
//! estimator (`derive_estimates`), and the ranking metric is the
//! summed **cold** predicted duration over the rank's present phases: a
//! sharded step interleaves interior, boundary and exchange work whose
//! launches keep evicting each other, so first-touch cost is the honest
//! regime.  Entries carry [`TuneRegime::Cold`] in their key
//! accordingly.  The strategy's site block, the only candidate of the
//! two-rank slabs of L = 10 and 14, is narrower than a warp and is
//! priced as one partial warp per group, so no rank is decided by
//! launching; a rank no candidate of which can be estimated is a
//! [`SweepError`].

use super::problem::{Phase, RankProblem, ShardedProblem};
use crate::flops::FLOPS_PER_SITE;
use crate::staticcheck::derive_estimates;
use crate::strategy::KernelConfig;
use crate::tune::{
    device_spec_hash, CandidateOutcome, Reject, SweepError, TuneCache, TuneEntry, TuneKey,
    TuneRegime,
};
use gpu_sim::{DeviceGroup, DeviceSpec, Regime, RegimeCalibration};
use milc_complex::ComplexField;

/// The cache key of one rank's slab: the global device/key conventions,
/// with the slab's dimensions, a `shard/`-prefixed kernel name and the
/// cold regime (shard winners are decided on first-touch cost).
/// (Built literally because slabs may have an odd t extent, which the
/// full-lattice constructors reject.)
pub fn rank_tune_key(
    problem: &ShardedProblem<impl ComplexField>,
    cfg: KernelConfig,
    group: &DeviceGroup,
    r: usize,
) -> TuneKey {
    let [lx, ly, lz, _] = problem.lattice().dims();
    TuneKey {
        device_hash: device_spec_hash(group.device(r)),
        dims: [lx, ly, lz, problem.partition().t_len(r)],
        kernel: format!("shard/{}", cfg.label()),
        sanitized: false,
        regime: TuneRegime::Cold,
    }
}

/// How a [`tune_rank_local_sizes`] call decided its ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTuneReport {
    /// One tuned local size per rank.
    pub sizes: Vec<u32>,
    /// Cache misses, each decided by the static ranking.
    pub static_ranks: u32,
    /// Ranks answered straight from the cache.
    pub cache_hits: u32,
}

/// Statically score every candidate of one rank: per candidate, the
/// sum of *cold* predicted durations over the rank's non-empty phases,
/// plus the cold full-phase estimate (model-µs) the cache entry's
/// duration derives from.  Each phase goes through the single-device
/// base-and-derive estimator ([`derive_estimates`]).  A candidate some
/// phase cannot estimate (occupancy-infeasible, or a failed base
/// estimate) is rejected as [`Reject::Inestimable`].
fn static_rank_scores<C: ComplexField>(
    rank: &RankProblem<C>,
    cfg: KernelConfig,
    device: &DeviceSpec,
    sizes: &[u32],
) -> (Vec<(u32, f64, f64)>, Vec<CandidateOutcome>) {
    // (ls, summed cold score, cold full-phase model-µs).
    let mut scores: Vec<(u32, f64, f64)> = sizes.iter().map(|&ls| (ls, 0.0, 0.0)).collect();
    let mut rejected = Vec::new();
    for phase in [Phase::Full, Phase::Interior, Phase::Boundary] {
        if rank.phase_targets(phase) == 0 {
            continue;
        }
        let launch = |ls| rank.launch(cfg, phase, ls).expect("phase is non-empty");
        // Every size, so the shared base stays at the largest candidate;
        // `scores` is an ordered subsequence of `sizes`.
        let mut estimates = derive_estimates(sizes, device, rank.memory(), launch).into_iter();
        scores.retain_mut(|(ls, score, full_us)| {
            let (_, est) = estimates
                .find(|(size, _)| size == ls)
                .expect("one estimate per size");
            match est {
                Ok(est) => {
                    *score += est.cold_duration_us;
                    if phase == Phase::Full {
                        *full_us = est.cold_duration_us;
                    }
                    true
                }
                Err(why) => {
                    rejected.push(CandidateOutcome::Rejected {
                        local_size: *ls,
                        layout: cfg.shared_layout,
                        reason: Reject::Inestimable(why),
                    });
                    false
                }
            }
        });
    }
    (scores, rejected)
}

/// Tune (or look up) the local size of every rank of a sharded problem.
/// Cache misses are decided by the static cold-regime ranking — zero
/// launches.  Winners are inserted into `cache`; cache hits skip the
/// decision entirely.  Returns one local size per rank (`sizes`) with
/// how many ranks were decided and how many hit the cache.
///
/// # Errors
/// [`SweepError::AllRejected`] when no candidate of a rank can be
/// estimated (every candidate's reason recorded); nothing is inserted
/// for that rank.
pub fn tune_rank_local_sizes<C: ComplexField>(
    problem: &ShardedProblem<C>,
    cfg: KernelConfig,
    group: &DeviceGroup,
    cache: &mut TuneCache,
) -> Result<ShardTuneReport, SweepError> {
    assert_eq!(group.len(), problem.num_ranks(), "one device per rank");
    let cal = RegimeCalibration::committed();
    let mut report = ShardTuneReport {
        sizes: Vec::with_capacity(problem.num_ranks()),
        static_ranks: 0,
        cache_hits: 0,
    };
    for r in 0..problem.num_ranks() {
        let key = rank_tune_key(problem, cfg, group, r);
        if let Some(entry) = cache.lookup(&key) {
            report.cache_hits += 1;
            report.sizes.push(entry.local_size);
            continue;
        }
        let rank = problem.rank(r);
        let sizes = rank.tunable_local_sizes(cfg);
        let (scores, rejected) = static_rank_scores(rank, cfg, group.device(r), &sizes);
        // `min_by` keeps the first of equal scores: the smaller local
        // size (candidates are enumerated ascending).  The entry's
        // duration is the *cold* full-phase prediction in
        // measured-comparable µs, per the shared calibration table.
        let best = scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(ls, _, full_cold_us)| (ls, full_cold_us * cal.scale(Regime::Cold)));
        let Some((local_size, duration_us)) = best else {
            return Err(SweepError::AllRejected {
                kernel: format!("{} rank{r}", cfg.label()),
                candidates: rejected,
            });
        };
        let flops = rank.n_targets() as f64 * FLOPS_PER_SITE as f64;
        cache.insert(TuneEntry {
            key,
            local_size,
            // The shard tuner ranks sizes only; the layout rides along
            // from the caller's configuration.
            layout: cfg.shared_layout.tag(),
            duration_us,
            gflops: flops / duration_us / 1e3,
            candidates_ok: (sizes.len() - rejected.len()) as u32,
            candidates_rejected: rejected.len() as u32,
        });
        report.static_ranks += 1;
        report.sizes.push(local_size);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexOrder, Strategy};
    use gpu_sim::{DeviceSpec, Interconnect};
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn static_tuning_fills_the_cache_cold_and_hits_on_reuse() {
        let p = ShardedProblem::<Z>::random(4, 31, 2);
        let g = DeviceGroup::homogeneous(DeviceSpec::test_small(), 2, Interconnect::nvlink());
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let mut cache = TuneCache::new();
        let report = tune_rank_local_sizes(&p, cfg, &g, &mut cache).unwrap();
        // Identical slabs on identical devices share one entry.
        assert_eq!((report.static_ranks, report.cache_hits), (1, 1));
        assert_eq!(report.sizes.len(), 2);
        assert_eq!(report.sizes[0], report.sizes[1]);
        assert_eq!(cache.len(), 1);
        let entry = cache.lookup(&rank_tune_key(&p, cfg, &g, 0)).unwrap();
        assert_eq!(entry.local_size, report.sizes[0]);
        assert!(entry.key.kernel.starts_with("shard/"));
        assert_eq!(entry.key.dims, [4, 4, 4, 2]);
        assert_eq!(entry.key.regime, crate::tune::TuneRegime::Cold);
        assert!(entry.duration_us > 0.0);

        // Rerun: pure cache hits.
        let again = tune_rank_local_sizes(&p, cfg, &g, &mut cache).unwrap();
        assert_eq!((again.static_ranks, again.cache_hits), (0, 2));
        assert_eq!(again.sizes, report.sizes);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tuned_sizes_are_legal_for_all_phases() {
        let p = ShardedProblem::<Z>::random(4, 32, 4);
        let g = DeviceGroup::homogeneous(DeviceSpec::test_small(), 4, Interconnect::nvlink());
        let cfg = KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor);
        let mut cache = TuneCache::new();
        let sizes = tune_rank_local_sizes(&p, cfg, &g, &mut cache)
            .unwrap()
            .sizes;
        for (r, &ls) in sizes.iter().enumerate() {
            let rank = p.rank(r);
            for phase in [Phase::Full, Phase::Interior, Phase::Boundary] {
                let n = rank.phase_targets(phase);
                if n > 0 {
                    assert!(cfg.local_size_legal(ls, n), "rank {r} phase {phase:?}");
                }
            }
        }
    }

    #[test]
    fn a_rank_with_no_estimable_candidate_is_a_typed_error() {
        let p = ShardedProblem::<Z>::random(4, 33, 2);
        // A register file too small for one work-item of the kernel:
        // occupancy admits no candidate.
        let device = DeviceSpec {
            registers_per_sm: 16,
            ..DeviceSpec::test_small()
        };
        let g = DeviceGroup::homogeneous(device, 2, Interconnect::nvlink());
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let mut cache = TuneCache::new();
        match tune_rank_local_sizes(&p, cfg, &g, &mut cache) {
            Err(SweepError::AllRejected { kernel, candidates }) => {
                assert_eq!(kernel, format!("{} rank0", cfg.label()));
                assert_eq!(candidates.len(), p.rank(0).tunable_local_sizes(cfg).len());
                for c in &candidates {
                    assert!(
                        matches!(
                            c,
                            CandidateOutcome::Rejected {
                                reason: Reject::Inestimable(why),
                                ..
                            } if why.starts_with("occupancy infeasible")
                        ),
                        "{c:?}"
                    );
                }
            }
            other => panic!("expected AllRejected, got {other:?}"),
        }
        assert!(cache.is_empty(), "a failed rank inserts nothing");
    }
}
