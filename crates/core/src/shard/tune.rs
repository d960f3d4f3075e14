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
//! of the rank (full, interior, boundary), so the tuned size is usable
//! by both exchange schedules without refitting.  The ranking metric is
//! the summed **cold** predicted duration over the rank's present
//! phases: a sharded step interleaves interior, boundary and exchange
//! work whose launches keep evicting each other, so first-touch cost is
//! the honest regime (and the one the previous measuring sweep timed).
//! Entries carry [`TuneRegime::Cold`] in their key accordingly.  Ranks
//! the cost model cannot estimate fall back to the old cold measuring
//! sweep; [`ShardTuneReport::sweep_launches`] says whether any launch
//! was spent.

use super::problem::{Phase, ShardedProblem};
use crate::flops::FLOPS_PER_SITE;
use crate::strategy::KernelConfig;
use crate::tune::{device_spec_hash, TuneCache, TuneEntry, TuneKey, TuneRegime};
use gpu_sim::occupancy::occupancy;
use gpu_sim::{
    estimate_launch, DeviceGroup, Launcher, Regime, RegimeCalibration, SimError, TimingModel,
};
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

/// Local sizes legal for every non-empty phase of rank `r`.
fn candidates(
    problem: &ShardedProblem<impl ComplexField>,
    cfg: KernelConfig,
    r: usize,
) -> Vec<u32> {
    let rank = problem.rank(r);
    let mut sizes = cfg.legal_local_sizes(rank.phase_targets(Phase::Full));
    for phase in [Phase::Interior, Phase::Boundary] {
        let n = rank.phase_targets(phase);
        if n > 0 {
            sizes.retain(|&ls| cfg.local_size_legal(ls, n));
        }
    }
    if sizes.is_empty() {
        // The site block always divides every phase's global size.
        sizes.push(cfg.strategy.local_size_multiple(cfg.order));
    }
    sizes
}

/// How a [`tune_rank_local_sizes`] call decided its ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTuneReport {
    /// One tuned local size per rank.
    pub sizes: Vec<u32>,
    /// Kernel launches spent deciding — 0 whenever every cache miss was
    /// answered by the static ranking.
    pub sweep_launches: u64,
    /// Cache misses decided statically (zero launches).
    pub static_ranks: u32,
    /// Cache misses that fell back to the cold measuring sweep.
    pub measured_ranks: u32,
    /// Ranks answered straight from the cache.
    pub cache_hits: u32,
}

/// Statically score every candidate of rank `r`: per candidate, the sum
/// of *cold* predicted durations over the rank's non-empty phases, plus
/// the cold full-phase estimate (model-µs) the cache entry's duration
/// derives from.  Per phase the traffic is estimated once at the
/// largest candidate and siblings are derived via
/// [`gpu_sim::CostEstimate::with_occupancy`], so probe sampling error
/// cancels across candidates.  `None` when any phase's base estimate
/// fails — the caller falls back to measuring.
#[allow(clippy::type_complexity)]
fn static_rank_scores<C: ComplexField>(
    problem: &ShardedProblem<C>,
    cfg: KernelConfig,
    group: &DeviceGroup,
    r: usize,
    sizes: &[u32],
) -> Option<(Vec<(u32, f64, f64)>, u32)> {
    let rank = problem.rank(r);
    let device = group.device(r);
    let timing = TimingModel::calibrated();
    let &base_ls = sizes.last()?;
    // (ls, summed cold score, cold full-phase model-µs), plus dropped.
    let mut scores: Vec<(u32, f64, f64)> = sizes.iter().map(|&ls| (ls, 0.0, 0.0)).collect();
    for phase in [Phase::Full, Phase::Interior, Phase::Boundary] {
        if rank.phase_targets(phase) == 0 {
            continue;
        }
        let range = rank.launch_range(cfg, phase, base_ls);
        let kernel = rank.make_kernel(cfg, phase, range.num_groups())?;
        let base = estimate_launch(kernel.as_ref(), &range, device, rank.memory(), &timing).ok()?;
        scores.retain_mut(|(ls, score, full_us)| {
            let range = rank.launch_range(cfg, phase, *ls);
            let kernel = rank
                .make_kernel(cfg, phase, range.num_groups())
                .expect("non-empty phase builds a kernel");
            match occupancy(device, *ls, &kernel.resources(*ls), range.num_groups()) {
                Ok(occ) => {
                    let est = base.with_occupancy(*ls, range.num_groups(), occ, &timing, device);
                    *score += est.cold_duration_us;
                    if phase == Phase::Full {
                        *full_us = est.cold_duration_us;
                    }
                    true
                }
                // Occupancy-infeasible at this size: drop the candidate,
                // exactly as the measuring sweep's reject arm would.
                Err(_) => false,
            }
        });
    }
    let dropped = (sizes.len() - scores.len()) as u32;
    (!scores.is_empty()).then_some((scores, dropped))
}

/// Tune (or look up) the local size of every rank of a sharded problem.
/// Cache misses are decided by the static cold-regime ranking — zero
/// launches — with a cold measuring sweep as fallback for ranks the
/// cost model cannot estimate.  Winners are inserted into `cache`;
/// cache hits skip the decision entirely.  Returns one local size per
/// rank (`sizes`) with full accounting of how each rank was decided and
/// how many launches the decision spent.
///
/// # Errors
/// Propagates launch failures from the measuring fallback.
pub fn tune_rank_local_sizes<C: ComplexField>(
    problem: &ShardedProblem<C>,
    cfg: KernelConfig,
    group: &DeviceGroup,
    cache: &mut TuneCache,
) -> Result<ShardTuneReport, SimError> {
    assert_eq!(group.len(), problem.num_ranks(), "one device per rank");
    let cal = RegimeCalibration::committed();
    let mut report = ShardTuneReport {
        sizes: Vec::with_capacity(problem.num_ranks()),
        sweep_launches: 0,
        static_ranks: 0,
        measured_ranks: 0,
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
        let sizes = candidates(problem, cfg, r);
        let flops = rank.n_targets() as f64 * FLOPS_PER_SITE as f64;

        if let Some((scores, dropped)) = static_rank_scores(problem, cfg, group, r, &sizes) {
            // Strict "<" keeps the smaller local size on score ties
            // (candidates are enumerated ascending).
            let &(local_size, _, full_cold_us) = scores
                .iter()
                .fold(None::<&(u32, f64, f64)>, |best, s| match best {
                    Some(b) if b.1 <= s.1 => Some(b),
                    _ => Some(s),
                })
                .expect("static_rank_scores returns a non-empty ranking");
            // The entry's duration is the *cold* full-phase prediction
            // in measured-comparable µs, per the shared calibration
            // table — the same quantity the measuring fallback records.
            let duration_us = full_cold_us * cal.scale(Regime::Cold);
            cache.insert(TuneEntry {
                key,
                local_size,
                // The shard tuner ranks sizes only; the layout rides
                // along from the caller's configuration.
                layout: cfg.shared_layout.tag(),
                duration_us,
                gflops: flops / duration_us / 1e3,
                candidates_ok: scores.len() as u32,
                candidates_rejected: dropped,
            });
            report.static_ranks += 1;
            report.sizes.push(local_size);
            continue;
        }

        // Measuring fallback: cold full-phase launches, as before.
        report.measured_ranks += 1;
        let device = group.device(r);
        let launcher = Launcher::new(device);
        let mut best: Option<(u32, f64)> = None;
        let mut ok = 0u32;
        let mut rejected = 0u32;
        for ls in sizes {
            let range = rank.launch_range(cfg, Phase::Full, ls);
            let kernel = rank
                .make_kernel(cfg, Phase::Full, range.num_groups())
                .expect("full phase is never empty");
            match launcher.launch(kernel.as_ref(), range, rank.memory()) {
                Ok(launch) => {
                    report.sweep_launches += 1;
                    ok += 1;
                    if best.is_none_or(|(_, d)| launch.duration_us < d) {
                        best = Some((ls, launch.duration_us));
                    }
                }
                Err(SimError::InvalidLocalSize { .. })
                | Err(SimError::IndivisibleGlobalSize { .. })
                | Err(SimError::LocalMemTooLarge { .. })
                | Err(SimError::RegistersExhausted { .. }) => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        let (local_size, duration_us) = best.expect("at least the site block is sweepable");
        cache.insert(TuneEntry {
            key,
            local_size,
            layout: cfg.shared_layout.tag(),
            duration_us,
            gflops: flops / duration_us / 1e3,
            candidates_ok: ok,
            candidates_rejected: rejected,
        });
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
    fn tuning_fills_the_cache_and_hits_on_reuse() {
        let p = ShardedProblem::<Z>::random(4, 31, 2);
        let g = DeviceGroup::homogeneous(DeviceSpec::test_small(), 2, Interconnect::nvlink());
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let mut cache = TuneCache::new();
        let sizes = tune_rank_local_sizes(&p, cfg, &g, &mut cache)
            .unwrap()
            .sizes;
        assert_eq!(sizes.len(), 2);
        // Identical slabs on identical devices share one entry.
        assert_eq!(cache.len(), 1);
        assert_eq!(sizes[0], sizes[1]);
        let key = rank_tune_key(&p, cfg, &g, 0);
        let entry = cache.lookup(&key).unwrap();
        assert_eq!(entry.local_size, sizes[0]);
        assert!(entry.key.kernel.starts_with("shard/"));
        assert_eq!(entry.key.dims, [4, 4, 4, 2]);

        // Second call is a pure cache hit (sweep counters unchanged).
        let again = tune_rank_local_sizes(&p, cfg, &g, &mut cache).unwrap();
        assert_eq!(again.sizes, sizes);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn static_ranking_spends_zero_launches_and_keys_cold() {
        let p = ShardedProblem::<Z>::random(4, 31, 2);
        let g = DeviceGroup::homogeneous(DeviceSpec::test_small(), 2, Interconnect::nvlink());
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let mut cache = TuneCache::new();
        let report = tune_rank_local_sizes(&p, cfg, &g, &mut cache).unwrap();
        assert_eq!(report.sweep_launches, 0, "static ranking must not launch");
        assert_eq!(report.measured_ranks, 0);
        assert!(report.static_ranks >= 1);
        let entry = cache.lookup(&rank_tune_key(&p, cfg, &g, 0)).unwrap();
        assert_eq!(entry.key.regime, crate::tune::TuneRegime::Cold);
        assert!(entry.duration_us > 0.0);

        // Rerun: pure cache hits, still zero launches.
        let again = tune_rank_local_sizes(&p, cfg, &g, &mut cache).unwrap();
        assert_eq!(again.cache_hits, 2);
        assert_eq!(again.sweep_launches, 0);
        assert_eq!(again.sizes, report.sizes);
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
}
