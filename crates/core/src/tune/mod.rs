//! The autotuning subsystem: QUDA-style per-kernel tuning with a
//! persistent tune cache.
//!
//! The paper's central result is that Dslash throughput hinges on the
//! launch configuration — strategy, index order, local size under the
//! Section III divisibility constraints — and QUDA (the reference
//! implementation the paper benchmarks against) deals with that in
//! production by autotuning each kernel once and caching the winner on
//! disk.  This module is that subsystem for the simulated device:
//!
//! * [`mod@sweep`] measures — every legal (local size × layout) point
//!   of a configuration is lint- and proof-gated, launched warm,
//!   validated, and the fastest wins (or, launch-free, the static cost
//!   model's best proven point wins);
//! * [`cache`] remembers — winners persist as versioned JSON (default
//!   `results/tunecache.json`) keyed by device-spec hash, lattice dims,
//!   kernel label and sanitizer mode, so a later run (or a later
//!   process) skips the sweep entirely;
//! * [`Tuner`] fronts both — [`Tuner::tune`] consults the cache first,
//!   sweeps only on a miss, and counts hits/misses so callers can prove
//!   a warm run did zero sweep launches.
//!
//! Downstream, [`SimulatedDslash::with_problem_tuned`](crate::operator::SimulatedDslash::with_problem_tuned)
//! and [`DeviceNormalOperator::new_tuned`](crate::solver::DeviceNormalOperator::new_tuned)
//! launch at the decision's local size and layout
//! ([`TuneDecision::tuned_config`]) instead of a hard-coded constant,
//! and the `milc-bench` `tune` bin materializes the cache for the
//! paper's twelve Table I configurations.

pub mod cache;
pub mod json;
pub mod sweep;

pub use cache::{
    device_spec_hash, LoadOutcome, TuneCache, TuneEntry, TuneKey, TuneRegime, TUNECACHE_VERSION,
};
pub use sweep::{
    candidate_local_sizes, static_rank_order, sweep, CandidateOutcome, CandidatePoint, Reject,
    SweepError, SweepMode, SweepOutcome,
};

use crate::kernels::common::SharedLayout;
use crate::problem::DslashProblem;
use crate::strategy::KernelConfig;
use gpu_sim::{DeviceSpec, QueueMode};
use milc_complex::ComplexField;
use std::path::{Path, PathBuf};

/// Where [`Tuner::default_path`] points: the repo's results directory,
/// next to the figures the tuned numbers correspond to.
pub const DEFAULT_CACHE_PATH: &str = "results/tunecache.json";

/// One tuning decision, cache-hit or freshly swept.
#[derive(Clone, Debug)]
pub struct TuneDecision {
    /// The cache entry (inserted on a miss, returned as-is on a hit).
    pub entry: TuneEntry,
    /// Whether the decision came from the cache (no launches performed).
    pub from_cache: bool,
    /// The full sweep record when one ran; `None` on a cache hit.
    pub sweep: Option<SweepOutcome>,
}

impl TuneDecision {
    /// The configuration to launch: `base` with the winner's layout
    /// applied.  An entry whose layout tag fails to parse (hand-edited
    /// cache; the strict loader normally rejects it) falls back to
    /// `base`'s own layout.
    pub fn tuned_config(&self, base: KernelConfig) -> KernelConfig {
        SharedLayout::from_tag(&self.entry.layout).map_or(base, |layout| base.with_layout(layout))
    }
}

/// Tuning failure.
#[derive(Debug)]
pub enum TuneError {
    /// The sweep could not produce a winner.
    Sweep(SweepError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Sweep(e) => write!(f, "autotune failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<SweepError> for TuneError {
    fn from(e: SweepError) -> Self {
        TuneError::Sweep(e)
    }
}

/// The autotuner: a tune cache plus hit/miss accounting.
///
/// ```
/// use gpu_sim::{DeviceSpec, QueueMode};
/// use milc_complex::DoubleComplex;
/// use milc_dslash::tune::Tuner;
/// use milc_dslash::{DslashProblem, IndexOrder, KernelConfig, Strategy};
///
/// let device = DeviceSpec::test_small();
/// let mut problem = DslashProblem::<DoubleComplex>::random(4, 42);
/// let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
///
/// let mut tuner = Tuner::in_memory();
/// let cold = tuner
///     .tune(&mut problem, cfg, &device, QueueMode::InOrder)
///     .unwrap();
/// assert!(!cold.from_cache);
/// let warm = tuner
///     .tune(&mut problem, cfg, &device, QueueMode::InOrder)
///     .unwrap();
/// assert!(warm.from_cache);
/// assert_eq!(warm.entry.local_size, cold.entry.local_size);
/// assert_eq!((tuner.hits(), tuner.misses()), (1, 1));
/// ```
pub struct Tuner {
    cache: TuneCache,
    path: Option<PathBuf>,
    load_outcome: LoadOutcome,
    hits: u64,
    misses: u64,
}

impl Tuner {
    /// A tuner with an empty, non-persistent cache (tests, one-shots).
    pub fn in_memory() -> Self {
        Self {
            cache: TuneCache::new(),
            path: None,
            load_outcome: LoadOutcome::Fresh,
            hits: 0,
            misses: 0,
        }
    }

    /// A tuner backed by a cache file.  A missing, corrupt or
    /// version-mismatched file degrades to an empty cache — the tuner
    /// then re-sweeps; it never fails to construct and never panics.
    /// Call [`save`](Self::save) to persist new entries.
    pub fn with_cache_file(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let (cache, load_outcome) = TuneCache::load(&path);
        Self {
            cache,
            path: Some(path),
            load_outcome,
            hits: 0,
            misses: 0,
        }
    }

    /// The conventional cache location, `results/tunecache.json`.
    pub fn default_path() -> &'static Path {
        Path::new(DEFAULT_CACHE_PATH)
    }

    /// How the backing file loaded (always `Fresh` for `in_memory`).
    pub fn load_outcome(&self) -> &LoadOutcome {
        &self.load_outcome
    }

    /// Cache hits so far (tune calls that performed zero launches).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (tune calls that swept).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The underlying cache (read-only).
    pub fn cache(&self) -> &TuneCache {
        &self.cache
    }

    /// The key [`tune`](Self::tune) will use for a problem/config pair.
    /// The local-memory layout is *not* part of the key: the tuner owns
    /// that dimension (it sweeps layouts alongside local sizes and
    /// records the winning layout in the entry), so the key is the
    /// configuration's base (flat-layout) label.
    pub fn key_for<C: ComplexField>(
        problem: &DslashProblem<C>,
        cfg: KernelConfig,
        device: &DeviceSpec,
    ) -> TuneKey {
        // Unsanitized: the tuner times real launches (sanitized runs
        // execute tolerant lanes and are keyed separately if ever
        // cached).
        let base = cfg.with_layout(SharedLayout::Flat);
        TuneKey::new(device, problem.lattice(), &base.label(), false)
    }

    /// Tune one configuration: return the cached winner if the key
    /// hits, otherwise sweep all (local size × layout) candidates
    /// exhaustively, record the winner, and return it.  On a hit no
    /// launch is performed at all.
    pub fn tune<C: ComplexField>(
        &mut self,
        problem: &mut DslashProblem<C>,
        cfg: KernelConfig,
        device: &DeviceSpec,
        queue_mode: QueueMode,
    ) -> Result<TuneDecision, TuneError> {
        self.tune_with_mode(problem, cfg, device, queue_mode, SweepMode::Exhaustive)
    }

    /// [`tune`](Self::tune) with an explicit [`SweepMode`]:
    /// [`SweepMode::Static`] decides from the cost model without a
    /// launch.  Cache semantics are identical — the mode only governs
    /// how a cache *miss* decides, and the cache key does not include it
    /// (a static winner is a winner).
    pub fn tune_with_mode<C: ComplexField>(
        &mut self,
        problem: &mut DslashProblem<C>,
        cfg: KernelConfig,
        device: &DeviceSpec,
        queue_mode: QueueMode,
        mode: SweepMode,
    ) -> Result<TuneDecision, TuneError> {
        let key = Self::key_for(problem, cfg, device);
        if let Some(entry) = self.cache.lookup(&key) {
            self.hits += 1;
            crate::obs::metric_inc("tune_cache_hits_total", &[("config", &cfg.label())], 1);
            return Ok(TuneDecision {
                entry: entry.clone(),
                from_cache: true,
                sweep: None,
            });
        }
        self.misses += 1;
        crate::obs::metric_inc("tune_cache_misses_total", &[("config", &cfg.label())], 1);
        let sweep = sweep::sweep(
            problem,
            cfg,
            &cfg.tunable_layouts(),
            device,
            queue_mode,
            mode,
        )?;
        let entry = TuneEntry {
            key,
            local_size: sweep.winner.local_size,
            layout: sweep.winner.layout.tag(),
            duration_us: sweep.winner.duration_us,
            gflops: sweep.winner.gflops,
            candidates_ok: (sweep.timed().count() + sweep.predicted().count()) as u32,
            candidates_rejected: sweep.rejected() as u32,
        };
        self.cache.insert(entry.clone());
        Ok(TuneDecision {
            entry,
            from_cache: false,
            sweep: Some(sweep),
        })
    }

    /// Persist the cache to the backing file (no-op for `in_memory`).
    pub fn save(&self) -> std::io::Result<()> {
        match &self.path {
            Some(p) => self.cache.save(p),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexOrder, Strategy};
    use milc_complex::DoubleComplex as Z;

    fn cfg3lp1() -> KernelConfig {
        KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor)
    }

    #[test]
    fn miss_then_hit_with_counters() {
        let device = DeviceSpec::test_small();
        let mut p = DslashProblem::<Z>::random(4, 5);
        let mut t = Tuner::in_memory();
        let cold = t
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        assert!(!cold.from_cache);
        assert!(cold.sweep.is_some());
        let warm = t
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        assert!(warm.from_cache);
        assert!(warm.sweep.is_none());
        assert_eq!(warm.entry, cold.entry);
        assert_eq!((t.hits(), t.misses()), (1, 1));
    }

    #[test]
    fn different_device_or_config_misses() {
        let small = DeviceSpec::test_small();
        let a100 = DeviceSpec::a100();
        let mut p = DslashProblem::<Z>::random(4, 6);
        let mut t = Tuner::in_memory();
        t.tune(&mut p, cfg3lp1(), &small, QueueMode::InOrder)
            .unwrap();
        // Same config, different device: must sweep again.
        t.tune(&mut p, cfg3lp1(), &a100, QueueMode::InOrder)
            .unwrap();
        // Different order, same device: must sweep again.
        let cfg_i = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::IMajor);
        t.tune(&mut p, cfg_i, &small, QueueMode::InOrder).unwrap();
        assert_eq!((t.hits(), t.misses()), (0, 3));
    }

    #[test]
    fn persists_across_tuner_instances() {
        let dir = std::env::temp_dir().join("milc-tuner-persist-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("tunecache.json");
        let device = DeviceSpec::test_small();
        let mut p = DslashProblem::<Z>::random(4, 7);

        let mut t1 = Tuner::with_cache_file(&path);
        assert_eq!(t1.load_outcome(), &LoadOutcome::Fresh);
        let cold = t1
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        t1.save().unwrap();

        let mut t2 = Tuner::with_cache_file(&path);
        assert_eq!(t2.load_outcome(), &LoadOutcome::Loaded(1));
        let warm = t2
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        assert!(warm.from_cache, "second process must hit the saved cache");
        assert_eq!(warm.entry.local_size, cold.entry.local_size);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_degrades_to_sweep() {
        let dir = std::env::temp_dir().join("milc-tuner-corrupt-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tunecache.json");
        std::fs::write(&path, b"\x00\xffnot json at all{{{").unwrap();
        let device = DeviceSpec::test_small();
        let mut p = DslashProblem::<Z>::random(4, 8);
        let mut t = Tuner::with_cache_file(&path);
        assert_eq!(t.load_outcome(), &LoadOutcome::Corrupt);
        let d = t
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        assert!(!d.from_cache, "corrupt cache must fall back to a sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_entry_records_the_winning_layout() {
        let device = DeviceSpec::test_small();
        let mut p = DslashProblem::<Z>::random(4, 12);
        let mut t = Tuner::in_memory();
        let d = t
            .tune(&mut p, cfg3lp1(), &device, QueueMode::InOrder)
            .unwrap();
        // 3LP-1's dense layout bank-conflicts; the tuner must pick (and
        // record) a conflict-free remedy the runner can re-apply.
        let layout = SharedLayout::from_tag(&d.entry.layout).expect("entry layout tag parses");
        assert_ne!(layout, SharedLayout::Flat, "tag: {}", d.entry.layout);
        // The cache key is layout-blind: asking again with the winning
        // layout pinned in the config must *hit* the same entry.
        let pinned = cfg3lp1().with_layout(layout);
        let warm = t.tune(&mut p, pinned, &device, QueueMode::InOrder).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.entry, d.entry);
    }

    #[test]
    fn all_rejected_sweep_is_an_error() {
        let device = DeviceSpec::test_small();
        let mut p = DslashProblem::<Z>::random(2, 9);
        let mut t = Tuner::in_memory();
        let cfg = KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor);
        let err = t.tune(&mut p, cfg, &device, QueueMode::InOrder);
        assert!(matches!(
            err,
            Err(TuneError::Sweep(SweepError::NoCandidates { .. }))
        ));
    }
}
