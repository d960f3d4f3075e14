//! Static occupancy-and-duration cost model: an analytic per-launch
//! duration estimate built from the occupancy limiter model and the
//! fitted address forms — **no lanes executed, no timing**.
//!
//! The estimate has three ingredients:
//!
//! 1. **Occupancy** ([`crate::occupancy`]) — residency, limiter, waves
//!    and the achieved (tail-corrected) occupancy straight from
//!    [`KernelResources`], exactly the quantities the dynamic engine
//!    uses for its latency-hiding term.
//! 2. **Cache-state-independent counters** — every probed residue block
//!    is replayed through the real warp replayer (coalescer + bank +
//!    atomic models) against oversized cold caches, and the per-block
//!    means are scaled by the block count.  Tag requests, sector
//!    requests, shared wavefronts, atomic passes and issue slots are
//!    exact per replayed block by construction.
//! 3. **Cache-state-dependent counters** — L1/L2 misses depend on
//!    replacement state across the whole launch, which no static model
//!    replays.  They are *estimated* from the launch's unique global
//!    footprint (affine slot extents plus gathered-table extents,
//!    interval-merged): compulsory misses when the footprint fits, a
//!    capacity blend toward the zero-reuse request bound when it does
//!    not, and a warm-L2 DRAM term that is zero while the footprint
//!    fits in L2.  The blend uses only grouping-invariant quantities,
//!    so within one configuration it never reorders candidates.
//!
//! Soundness limits: the per-block scaling assumes probed blocks are
//! representative (gather targets of unprobed groups may coalesce
//! differently), the footprint intervals over-approximate sparse
//! strides, and the capacity blend is a smooth heuristic, not a
//! replacement-policy simulation.  Within one kernel configuration the
//! global traffic is nearly invariant across warp-multiple local sizes
//! (their warps are the same 32-lane chunks of the global-id space
//! however they are grouped; a group narrower than a warp issues
//! partial warps instead), so *ranking* candidates — the tuner's
//! question — leans on the occupancy/tail terms the model gets from the
//! same limiter calculation the engine uses; the differential suite
//! (`tests/static_tune_diff.rs`) holds the ranking to the measured order.

use super::footprint::{AddrForm, LaunchModel, PhaseModel};
use super::probe;
use super::traffic;
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::kernel::Kernel;
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use crate::occupancy::{occupancy, Occupancy};
use crate::timing::TimingModel;

/// Cache regime of the launch an estimate is asked about.
///
/// The model's counters come in two variants: the *warm* path assumes
/// the launch's footprint was left resident by a prior identical launch
/// (the condition Table I profiles and the tuner times under), the
/// *cold* path assumes empty caches, so every unique footprint sector
/// must be fetched from DRAM at least once (compulsory misses) before
/// any reuse can pay off.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Caches hold the footprint of a prior identical launch.
    Warm,
    /// First touch: empty caches, compulsory-miss-dominated DRAM path.
    Cold,
}

impl Regime {
    /// Stable lowercase name (`"warm"` / `"cold"`).
    pub fn name(&self) -> &'static str {
        match self {
            Regime::Warm => "warm",
            Regime::Cold => "cold",
        }
    }
}

/// The shared per-regime duration calibration table: the ratio of
/// measured duration to the analytic estimate, per [`Regime`].
///
/// The analytic model was built to be *rank-faithful*, not absolutely
/// calibrated — its footprint-blend miss estimates systematically
/// overestimate traffic, by a stable factor.  Everything that needs an
/// absolute (measured-comparable) duration — drift gating, tuned-entry
/// durations from a measurement-free sweep, solver-stream estimates —
/// must read the scale from *this one table* so ranking and gating can
/// never disagree on it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RegimeCalibration {
    /// Measured/predicted ratio for warm launches.
    pub warm_scale: f64,
    /// Measured/predicted ratio for cold launches.
    pub cold_scale: f64,
}

impl RegimeCalibration {
    /// The committed calibration, fitted with [`Self::fit_scale`] as
    /// the geometric-mean measured/predicted ratio over the Table I
    /// configuration set (warm launches against `duration_us`, cold
    /// fresh-state launches against `cold_duration_us` — the same
    /// calibrate-against-a-known-set move as
    /// [`TimingModel::calibrated`]).  The warm scale is the original
    /// L = 16 fit; the cold scale is the geometric mean of the per-L
    /// fits at L = 8 (0.442) and L = 16 (0.409), which keeps the
    /// per-config signed drift inside ±21% at both lattice sizes.
    /// Drift against this table is the one tolerance gate on the
    /// modelled clock: `DriftRow` holds `(measured − predicted) /
    /// predicted` to ±25% for cold launches (`perfdiff --static-tune`,
    /// `staticcheck`) and warm ones (`perfdiff --profile`, `profile`)
    /// on every CI run.
    pub const fn committed() -> Self {
        Self {
            warm_scale: 0.42,
            cold_scale: 0.425,
        }
    }

    /// The scale for one regime.
    pub fn scale(&self, regime: Regime) -> f64 {
        match regime {
            Regime::Warm => self.warm_scale,
            Regime::Cold => self.cold_scale,
        }
    }

    /// An estimate's duration in measured-comparable µs: the analytic
    /// duration of the regime, times the regime's calibrated scale.
    pub fn calibrated_us(&self, estimate: &CostEstimate, regime: Regime) -> f64 {
        estimate.duration_in(regime) * self.scale(regime)
    }

    /// Fit one regime's scale from `(measured_us, predicted_us)` pairs:
    /// the geometric mean of the per-launch ratios (robust to the
    /// launches spanning orders of magnitude).  `None` when no pair is
    /// usable (non-positive values carry no ratio).
    pub fn fit_scale(pairs: &[(f64, f64)]) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut n = 0u32;
        for &(measured, predicted) in pairs {
            if measured > 0.0 && predicted > 0.0 {
                log_sum += (measured / predicted).ln();
                n += 1;
            }
        }
        (n > 0).then(|| (log_sum / f64::from(n)).exp())
    }
}

/// The static cost estimate of one launch configuration.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// Work-group size estimated.
    pub local_size: u32,
    /// Work-group count of the launch.
    pub num_groups: u64,
    /// Occupancy analysis (limiter, waves, achieved).
    pub occupancy: Occupancy,
    /// Statically estimated launch counters.  Cache-state-independent
    /// fields are replayed-and-scaled; `l1_sector_misses`,
    /// `l2_sector_requests` and `l2_sector_misses` are footprint-model
    /// estimates (see module docs).
    pub counters: Counters,
    /// Statically estimated counters of a *cold* launch: identical to
    /// [`counters`](Self::counters) except the L2-miss (DRAM) term,
    /// which charges a compulsory fetch of every unique footprint
    /// sector on top of the warm path's capacity overflow.
    pub cold_counters: Counters,
    /// Modeled unique global footprint of the launch, bytes.
    pub footprint_bytes: u64,
    /// Analytic warm-launch duration estimate, µs (same formula and
    /// weights as the dynamic engine's timing model).
    pub duration_us: f64,
    /// Analytic cold-launch duration estimate, µs (the timing formula
    /// over [`cold_counters`](Self::cold_counters)); never below
    /// [`duration_us`](Self::duration_us).
    pub cold_duration_us: f64,
    /// Claims the estimate had to weaken (residual slots, gather
    /// extents taken as whole tables, ...).
    pub notes: Vec<String>,
}

impl CostEstimate {
    /// The analytic duration of one [`Regime`], µs (uncalibrated
    /// model-µs; see [`RegimeCalibration`] for the measured scale).
    pub fn duration_in(&self, regime: Regime) -> f64 {
        match regime {
            Regime::Warm => self.duration_us,
            Regime::Cold => self.cold_duration_us,
        }
    }

    /// Warmup-amortized duration of `launches` back-to-back identical
    /// launches, µs per launch: the first pays the cold price, the rest
    /// run warm.  Monotonically non-increasing in `launches`, from the
    /// cold estimate at 1 toward the warm estimate in the limit.
    pub fn amortized_duration_us(&self, launches: u64) -> f64 {
        let n = launches.max(1) as f64;
        (self.cold_duration_us + (n - 1.0) * self.duration_us) / n
    }

    /// The same launch traffic re-timed under another launch shape's
    /// occupancy.  Within one kernel configuration the global traffic
    /// is invariant across warp-multiple local sizes — their warps are
    /// the same 32-lane chunks of the global-id space however they are
    /// grouped — so such siblings differ only by their
    /// occupancy/waves/tail picture.  A ranker estimates the counters
    /// *once* per configuration (probe sampling error then cancels
    /// exactly across candidates) and derives every candidate from that
    /// shared base.
    pub fn with_occupancy(
        &self,
        local_size: u32,
        num_groups: u64,
        occ: Occupancy,
        timing: &TimingModel,
        device: &DeviceSpec,
    ) -> CostEstimate {
        CostEstimate {
            local_size,
            num_groups,
            occupancy: occ,
            counters: self.counters,
            cold_counters: self.cold_counters,
            footprint_bytes: self.footprint_bytes,
            duration_us: timing.duration_us(&self.counters, &occ, device),
            cold_duration_us: timing.duration_us(&self.cold_counters, &occ, device),
            notes: self.notes.clone(),
        }
    }
}

/// The static estimate of a repeated-launch *stream*: each kernel in
/// `kernels` is applied `applications` times back-to-back; the first
/// application of each runs cold (fresh caches), the rest warm.  This
/// is exactly the launch mix of a tuned CG solve, where every operator
/// application launches each parity's Dslash once on its own persistent
/// device state.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamEstimate {
    /// Total kernel launches in the stream.
    pub launches: u64,
    /// Launches charged at the cold estimate (one per kernel).
    pub cold_launches: u64,
    /// Analytic total, µs (uncalibrated model-µs).
    pub duration_us: f64,
    /// Calibrated total, µs: each launch scaled by its regime's entry
    /// in the shared [`RegimeCalibration`] table.
    pub calibrated_us: f64,
}

/// Compose per-kernel estimates into a [`StreamEstimate`] over
/// `applications` applications of every kernel.  Zero applications is a
/// zero stream.
pub fn estimate_stream(
    kernels: &[&CostEstimate],
    applications: u64,
    cal: &RegimeCalibration,
) -> StreamEstimate {
    if applications == 0 || kernels.is_empty() {
        return StreamEstimate {
            launches: 0,
            cold_launches: 0,
            duration_us: 0.0,
            calibrated_us: 0.0,
        };
    }
    let warm_each = (applications - 1) as f64;
    let mut duration_us = 0.0;
    let mut calibrated_us = 0.0;
    for est in kernels {
        duration_us += est.cold_duration_us + warm_each * est.duration_us;
        calibrated_us +=
            cal.calibrated_us(est, Regime::Cold) + warm_each * cal.calibrated_us(est, Regime::Warm);
    }
    StreamEstimate {
        launches: kernels.len() as u64 * applications,
        cold_launches: kernels.len() as u64,
        duration_us,
        calibrated_us,
    }
}

/// Estimate the duration of one launch statically.  `Err` carries a
/// human-readable reason when no sound estimate exists (irregular
/// phase, a residue period that splits warps, occupancy-infeasible
/// resources, unresolvable address slot).
pub fn estimate_launch(
    kernel: &dyn Kernel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
    timing: &TimingModel,
) -> Result<CostEstimate, String> {
    if range.local == 0
        || range.global == 0
        || !range.global.is_multiple_of(range.local as u64)
        || range.local > device.max_group_size
    {
        return Err(format!(
            "launch shape {}x{} is invalid on this device",
            range.global, range.local
        ));
    }
    let res = kernel.resources(range.local);
    let num_groups = range.num_groups();
    let occ = occupancy(device, range.local, &res, num_groups)
        .map_err(|e| format!("occupancy infeasible: {e}"))?;

    let model = probe::build_model(kernel, range, device, mem);
    estimate_from_model(&model, range, device, mem, timing, occ, kernel.num_phases())
}

/// The estimate given an already-built launch model (used by callers
/// that also need the model for other proofs).
fn estimate_from_model(
    model: &LaunchModel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
    timing: &TimingModel,
    occ: Occupancy,
    num_phases: usize,
) -> Result<CostEstimate, String> {
    let mut notes = Vec::new();

    // Mean cache-state-independent counters over every probed block.
    let (acc, replayed) = traffic::probed_block_counters(model, mem, device)?;
    if replayed == 0 {
        return Err("no probed blocks to replay".to_string());
    }
    let blocks_total = model.num_groups * model.blocks_per_group;
    let scale =
        |v: u64| -> u64 { ((v as f64 / replayed as f64) * blocks_total as f64).round() as u64 };

    // The atomics' L2 sector traffic (atomics bypass L1; with oversized
    // cold caches the replay's L2-minus-L1 difference isolates it).
    let atomic_l2 = scale(acc.l2_sector_requests - acc.l1_sector_misses);
    // The overflow bound on L1 misses must not depend on how lanes are
    // grouped (for every warp-multiple local size, warps are the same
    // 32-lane chunks of the global-id space), or the within-config
    // ranking would be driven by partitioning artifacts instead of
    // occupancy: use the total sector *requests*, which are invariant
    // across those groupings, rather than per-block unique-sector sums,
    // which are not.
    let l1_req_scaled = scale(acc.l1_sector_requests);

    // Whole-launch unique global footprint from the fitted forms.
    let (footprint_bytes, footprint_sectors) = launch_footprint(model, mem, device, &mut notes);

    // L1 misses: compulsory when the footprint fits the aggregate L1,
    // blending toward the zero-reuse request bound as it overflows.
    let agg_l1 = device.l1_bytes as u64 * device.num_sms as u64;
    let compulsory = footprint_sectors.min(l1_req_scaled);
    let l1_miss_est = if footprint_bytes <= agg_l1 || footprint_bytes == 0 {
        compulsory
    } else {
        let overflow = 1.0 - agg_l1 as f64 / footprint_bytes as f64;
        compulsory + ((l1_req_scaled - compulsory) as f64 * overflow).round() as u64
    };
    let l2_req_est = l1_miss_est + atomic_l2;
    // Warm-cache DRAM term: Table I profiles the second launch, and the
    // tuner times after a warmup — a footprint resident in L2 refetches
    // nothing.
    let l2_miss_est = if footprint_bytes <= device.l2_bytes || footprint_bytes == 0 {
        0
    } else {
        let excess = 1.0 - device.l2_bytes as f64 / footprint_bytes as f64;
        (l2_req_est as f64 * excess).round() as u64
    };
    // Cold-cache DRAM term: a first-touch launch must fetch every
    // unique footprint sector from DRAM once (compulsory misses), and
    // past L2 capacity the same overflow fraction of the *remaining*
    // requests also misses.  Structurally ≥ the warm term: in the
    // fitting case warm is 0 ≤ compulsory, in the overflow case
    //   cold = compulsory·(1−excess) + l2_req_est·excess ≥ warm.
    let compulsory_l2 = footprint_sectors.min(l2_req_est);
    let l2_miss_cold = if footprint_bytes <= device.l2_bytes || footprint_bytes == 0 {
        compulsory_l2
    } else {
        let excess = 1.0 - device.l2_bytes as f64 / footprint_bytes as f64;
        compulsory_l2 + ((l2_req_est - compulsory_l2) as f64 * excess).round() as u64
    };

    let warps_total = blocks_total * model.q_len.div_ceil(device.warp_size.max(1)) as u64;
    let counters = Counters {
        global_load_instructions: scale(acc.global_load_instructions),
        global_store_instructions: scale(acc.global_store_instructions),
        atomic_instructions: scale(acc.atomic_instructions),
        local_instructions: scale(acc.local_instructions),
        warp_instructions: scale(acc.warp_instructions),
        l1_tag_requests_global: scale(acc.l1_tag_requests_global),
        l1_sector_requests: scale(acc.l1_sector_requests),
        l1_sector_misses: l1_miss_est,
        l2_sector_requests: l2_req_est,
        l2_sector_misses: l2_miss_est,
        shared_wavefronts: scale(acc.shared_wavefronts),
        shared_wavefronts_ideal: scale(acc.shared_wavefronts_ideal),
        atomic_passes: scale(acc.atomic_passes),
        divergent_branches: scale(acc.divergent_branches),
        replayed_instructions: scale(acc.replayed_instructions),
        flops: scale(acc.flops),
        iops: scale(acc.iops),
        barrier_waits: warps_total * (num_phases.max(1) as u64 - 1),
        items: range.global,
        warps: warps_total,
    };
    let cold_counters = Counters {
        l2_sector_misses: l2_miss_cold,
        ..counters
    };
    let duration_us = timing.duration_us(&counters, &occ, device);
    let cold_duration_us = timing.duration_us(&cold_counters, &occ, device);
    Ok(CostEstimate {
        local_size: range.local,
        num_groups: model.num_groups,
        occupancy: occ,
        counters,
        cold_counters,
        footprint_bytes,
        duration_us,
        cold_duration_us,
        notes,
    })
}

/// Unique global footprint of the launch as `(bytes, sectors)`:
/// interval-merged extents of every global slot over the full
/// `(group, block)` range.  Gather and residual slots contribute their
/// containing allocation (conservative; noted).
fn launch_footprint(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let g_max = model.num_groups.saturating_sub(1) as i128;
    let m_max = model.blocks_per_group.saturating_sub(1) as i128;
    let mut whole_tables: Vec<String> = Vec::new();
    for pm in &model.phases {
        let PhaseModel::Uniform(shapes) = pm else {
            continue;
        };
        for shape in shapes {
            for slot in &shape.slots {
                if slot.kind.is_local() {
                    continue;
                }
                match slot.form {
                    AddrForm::Affine {
                        base,
                        per_group,
                        per_block,
                    } => {
                        let lo = base + (per_group * g_max).min(0) + (per_block * m_max).min(0);
                        let hi = base
                            + (per_group * g_max).max(0)
                            + (per_block * m_max).max(0)
                            + slot.bytes as i128;
                        if let (Ok(lo), Ok(hi)) = (u64::try_from(lo), u64::try_from(hi)) {
                            if hi > lo {
                                intervals.push((lo, hi));
                            }
                        }
                    }
                    AddrForm::Gather { .. } | AddrForm::Residual => {
                        // Whole containing allocation: every value the
                        // table holds could be gathered, and residual
                        // samples are only known pointwise.
                        if let Some(&(_, _, addr)) = slot.samples.first() {
                            if let Some((base, len, label)) = mem.find_allocation(addr) {
                                intervals.push((base, base + len));
                                let label = label.to_string();
                                if !whole_tables.contains(&label) {
                                    whole_tables.push(label);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if !whole_tables.is_empty() {
        notes.push(format!(
            "footprint counts whole allocation(s) for non-affine slots: {}",
            whole_tables.join(", ")
        ));
    }
    intervals.sort_unstable();
    let mut bytes = 0u64;
    let mut sectors = 0u64;
    let sector = device.sector_bytes.max(1) as u64;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                bytes += chi - clo;
                sectors += (chi - clo).div_ceil(sector);
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    if let Some((clo, chi)) = cur {
        bytes += chi - clo;
        sectors += (chi - clo).div_ceil(sector);
    }
    (bytes, sectors)
}

/// Rank estimates by predicted duration, ascending; ties break toward
/// the smaller local size (the same rule the measuring sweep applies).
/// Duplicate candidates stay adjacent and in input order (stable sort).
pub fn rank_estimates(mut estimates: Vec<CostEstimate>) -> Vec<CostEstimate> {
    estimates.sort_by(|a, b| {
        a.duration_us
            .total_cmp(&b.duration_us)
            .then(a.local_size.cmp(&b.local_size))
    });
    estimates
}

/// Spearman rank correlation between two equal-length samples, with
/// average ranks for ties.  Returns 1.0 for degenerate inputs (fewer
/// than two points, or either side constant — there is no order to
/// disagree with).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must pair up");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    let mean = (n as f64 + 1.0) / 2.0;
    let (mut num, mut va, mut vb) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let da = ra[i] - mean;
        let db = rb[i] - mean;
        num += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        return 1.0;
    }
    num / (va * vb).sqrt()
}

/// 1-based ranks with ties assigned their average rank.
fn average_ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut ranks = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelResources, Lane};
    use crate::ndrange::NdRange;

    /// `C[gid] = 2 * B[gid]`: streaming load + store, no shared memory.
    struct Stream {
        src: u64,
        dst: u64,
    }

    impl Kernel for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn resources(&self, _local: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 32,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            let v = lane.ld_global_f64(self.src + i * 8);
            lane.flops(1);
            lane.st_global_f64(self.dst + i * 8, v * 2.0);
        }
    }

    fn setup(n: u64) -> (DeviceSpec, DeviceMemory, Stream) {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let src = mem.alloc(n * 8, "src");
        let dst = mem.alloc(n * 8, "dst");
        for i in 0..n {
            mem.write_f64(src.addr(i * 8), i as f64);
        }
        (
            device,
            mem,
            Stream {
                src: src.base(),
                dst: dst.base(),
            },
        )
    }

    #[test]
    fn estimate_matches_engine_counters_on_streaming_kernel() {
        let (device, mem, k) = setup(4096);
        let range = NdRange::linear(4096, 128);
        let est = estimate_launch(&k, &range, &device, &mem, &TimingModel::calibrated())
            .expect("estimable");
        // Cache-independent counters are exact for an affine kernel.
        let run = crate::engine::Launcher::new(&device)
            .launch(&k, range, &mem)
            .unwrap();
        assert_eq!(
            est.counters.l1_tag_requests_global,
            run.counters.l1_tag_requests_global
        );
        assert_eq!(
            est.counters.l1_sector_requests,
            run.counters.l1_sector_requests
        );
        assert_eq!(
            est.counters.warp_instructions,
            run.counters.warp_instructions
        );
        assert_eq!(est.counters.items, run.counters.items);
        // Footprint: src + dst, 4096 doubles each.
        assert_eq!(est.footprint_bytes, 2 * 4096 * 8);
        assert!(est.duration_us > 0.0);
        assert_eq!(est.occupancy, run.occupancy);
    }

    #[test]
    fn estimate_is_deterministic() {
        let (device, mem, k) = setup(1024);
        let range = NdRange::linear(1024, 64);
        let t = TimingModel::calibrated();
        let a = estimate_launch(&k, &range, &device, &mem, &t).unwrap();
        let b = estimate_launch(&k, &range, &device, &mem, &t).unwrap();
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn invalid_shape_is_an_error() {
        let (device, mem, k) = setup(100);
        let err = estimate_launch(
            &k,
            &NdRange::linear(100, 64),
            &device,
            &mem,
            &TimingModel::calibrated(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn ranking_is_stable_and_tie_breaks_to_smaller_local() {
        let (device, mem, k) = setup(2048);
        let t = TimingModel::calibrated();
        let mut ests = Vec::new();
        for ls in [32u32, 64, 128, 256] {
            ests.push(estimate_launch(&k, &NdRange::linear(2048, ls), &device, &mem, &t).unwrap());
        }
        let ranked = rank_estimates(ests);
        for w in ranked.windows(2) {
            assert!(
                w[0].duration_us < w[1].duration_us
                    || (w[0].duration_us == w[1].duration_us && w[0].local_size <= w[1].local_size)
            );
        }
    }

    #[test]
    fn spearman_basics() {
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        // Ties get average ranks; a constant side is degenerate -> 1.
        assert_eq!(spearman(&[1.0, 1.0, 2.0], &[5.0, 5.0, 5.0]), 1.0);
        let r = spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]);
        assert!((r - 0.8).abs() < 1e-12, "got {r}");
    }
}
