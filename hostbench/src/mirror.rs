//! A bench-side copy of the simulator's sequential launch loop, built
//! only from `gpu-sim`'s public parts, so the traced runs can time lane
//! execution and warp replay apart without instrumenting the engine.
//!
//! [`Mirror::launch`] follows `Launcher::launch_with_state` in
//! sequential mode step for step: validate the range, compute occupancy,
//! run every work-group's phases warp by warp through `Lane::new` and
//! `Kernel::run_phase`, replay each warp with `replay_warp`, and price
//! the counters with the calibrated `TimingModel`.  Its counters, cache
//! statistics, modelled duration and output must equal the real
//! launcher's bit for bit; the workloads check that on every traced run.
//!
//! Each warp costs three `Instant` reads (before its lanes, between lanes
//! and replay, after replay), never one per lane or per event.

use crate::layers::{Layer, Layers};
use gpu_sim::atomics::model_atomic_instruction;
use gpu_sim::cache::{Cache, CacheConfig, CacheStats};
use gpu_sim::coalesce::coalesce;
use gpu_sim::occupancy::occupancy;
use gpu_sim::sharedmem::{model_shared_instruction, LocalMem};
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{
    Counters, DeviceMemory, DeviceSpec, DeviceState, Event, Kernel, Lane, LaunchReport, Launcher,
    NdRange, SimError, TimingModel,
};
use milc_complex::DoubleComplex as Z;
use milc_dslash::validate::bitwise_equal;
use milc_dslash::DslashProblem;
use milc_lattice::ColorVector;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Warps per launch whose event streams are kept for the sampled
/// re-drive of the coalescing, cache, bank and atomic models.
pub const SAMPLED_WARPS_PER_LAUNCH: usize = 64;

/// Sampled warps: per warp, each lane's event stream.
pub type WarpSample = Vec<Vec<Vec<Event>>>;

/// What a mirrored launch produced besides its memory side effects.
#[derive(Clone, Debug, PartialEq)]
pub struct MirrorReport {
    /// Event counters.
    pub counters: Counters,
    /// L1 statistics of this launch, summed over SMs.
    pub l1_stats: CacheStats,
    /// L2 statistics of this launch.
    pub l2_stats: CacheStats,
    /// Modelled duration, µs.
    pub duration_us: f64,
}

impl MirrorReport {
    /// Why this launch differs from the real launcher's report, if it
    /// does: counters, cache statistics and the duration's bits must all
    /// be equal.
    pub fn mismatch(&self, real: &LaunchReport) -> Option<String> {
        let same = self.counters == real.counters
            && self.l1_stats == real.l1_stats
            && self.l2_stats == real.l2_stats
            && self.duration_us.to_bits() == real.duration_us.to_bits();
        (!same).then(|| {
            format!(
                "mirror {:.6} µs {:?} vs launcher {:.6} µs {:?}",
                self.duration_us, self.counters, real.duration_us, real.counters
            )
        })
    }
}

fn cache_configs(device: &DeviceSpec) -> (CacheConfig, CacheConfig) {
    let l1 = CacheConfig {
        capacity: device.l1_bytes as u64,
        line_bytes: device.line_bytes,
        sector_bytes: device.sector_bytes,
        ways: device.l1_ways,
    };
    let l2 = CacheConfig {
        capacity: device.l2_bytes,
        line_bytes: device.line_bytes,
        sector_bytes: device.sector_bytes,
        ways: device.l2_ways,
    };
    (l1, l2)
}

fn delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        tag_requests: after.tag_requests - before.tag_requests,
        sector_requests: after.sector_requests - before.sector_requests,
        sector_misses: after.sector_misses - before.sector_misses,
        evictions: after.evictions - before.evictions,
        writeback_sectors: after.writeback_sectors - before.writeback_sectors,
    }
}

/// A simulated device's persistent cache state plus the launch loop;
/// the mirror of `DeviceState` and `Launcher` together.
pub struct Mirror<'d> {
    device: &'d DeviceSpec,
    timing: TimingModel,
    l1s: Vec<Cache>,
    l2: Cache,
}

impl<'d> Mirror<'d> {
    /// Cold caches for `device`.
    pub fn new(device: &'d DeviceSpec) -> Self {
        let (l1, l2) = cache_configs(device);
        Self {
            device,
            timing: TimingModel::calibrated(),
            l1s: (0..device.num_sms).map(|_| Cache::new(l1)).collect(),
            l2: Cache::new(l2),
        }
    }

    /// Launch `kernel` against this state.  Lane time, replay time and
    /// the rest of the launch go to `layers`; lane events are counted
    /// there too.  While `sample` holds fewer than
    /// [`SAMPLED_WARPS_PER_LAUNCH`] more warps than it did on entry, each
    /// replayed warp's streams are appended to it.
    pub fn launch(
        &mut self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        layers: &mut Layers,
        mut sample: Option<&mut WarpSample>,
    ) -> Result<MirrorReport, SimError> {
        let start = Instant::now();
        let (mut lane_time, mut replay_time) = (Duration::ZERO, Duration::ZERO);
        range.validate(self.device)?;
        let res = kernel.resources(range.local);
        let occ = occupancy(self.device, range.local, &res, range.num_groups())?;
        let l1_before: Vec<CacheStats> = self.l1s.iter().map(|c| *c.stats()).collect();
        let l2_before = *self.l2.stats();

        let warp = self.device.warp_size;
        let local_size = range.local;
        let warps = local_size.div_ceil(warp);
        let phases = kernel.num_phases();
        let num_sms = self.l1s.len() as u64;
        let sample_limit = sample.as_ref().map_or(0, |s| s.len()) + SAMPLED_WARPS_PER_LAUNCH;
        let mut streams: Vec<Vec<Event>> = (0..warp).map(|_| Vec::with_capacity(128)).collect();
        let mut local = LocalMem::new(res.local_mem_bytes_per_group);
        let mut counters = Counters::default();
        let mut events = 0u64;

        for group in 0..range.num_groups() {
            let sm = (group % num_sms) as usize;
            local.reset();
            counters.items += local_size as u64;
            counters.warps += warps as u64;
            counters.barrier_waits += warps as u64 * (phases as u64 - 1);
            for phase in 0..phases {
                for w in 0..warps {
                    let lanes = (local_size - w * warp).min(warp);
                    for s in streams.iter_mut() {
                        s.clear();
                    }
                    let t0 = Instant::now();
                    for lane in 0..lanes {
                        let local_id = w * warp + lane;
                        let global_id = group * local_size as u64 + local_id as u64;
                        let mut ctx = Lane::new(
                            global_id,
                            local_id,
                            group,
                            local_size,
                            mem,
                            &mut local,
                            &mut streams[lane as usize],
                        );
                        kernel.run_phase(phase, &mut ctx);
                    }
                    let t1 = Instant::now();
                    let mut sinks = ReplaySinks {
                        l1: &mut self.l1s[sm],
                        l2: &mut self.l2,
                        counters: &mut counters,
                        line_bytes: self.device.line_bytes,
                        sector_bytes: self.device.sector_bytes,
                        banks: self.device.shared_banks,
                        bank_width: self.device.bank_width,
                    };
                    replay_warp(&streams, &mut sinks)?;
                    let t2 = Instant::now();
                    lane_time += t1 - t0;
                    replay_time += t2 - t1;
                    events += streams.iter().map(|s| s.len() as u64).sum::<u64>();
                    if let Some(s) = sample.as_deref_mut().filter(|s| s.len() < sample_limit) {
                        s.push(streams.clone());
                    }
                }
            }
        }

        let mut l1_stats = CacheStats::default();
        for (c, before) in self.l1s.iter().zip(&l1_before) {
            l1_stats.merge(&delta(c.stats(), before));
        }
        let report = MirrorReport {
            duration_us: self.timing.duration_us(&counters, &occ, self.device),
            counters,
            l1_stats,
            l2_stats: delta(self.l2.stats(), &l2_before),
        };
        layers.add(Layer::Lane, lane_time);
        layers.add(Layer::Warp, replay_time);
        layers.add(
            Layer::Engine,
            start.elapsed().saturating_sub(lane_time + replay_time),
        );
        layers.lane_events += events;
        layers.launches += 1;
        layers.counters.merge(&report.counters);
        Ok(report)
    }
}

/// Repeat the launches behind `mirrored` through the real `Launcher`, in
/// order on one fresh `DeviceState`, zeroing the output before each as
/// the mirrored run did, and require every report and the final output
/// to equal the mirror's (`mirror_out`, read before this call) bit for
/// bit.  Returns the launcher's host seconds, state creation included,
/// and its now-warm state.
pub fn check_against_launcher(
    problem: &DslashProblem<Z>,
    kernel: &dyn Kernel,
    range: NdRange,
    device: &DeviceSpec,
    mirrored: &[MirrorReport],
    mirror_out: &[ColorVector<Z>],
) -> Result<(f64, DeviceState), String> {
    let launcher = Launcher::new(device);
    let t = Instant::now();
    let mut state = DeviceState::new(device);
    let mut secs = t.elapsed().as_secs_f64();
    for m in mirrored {
        problem.zero_output();
        let t = Instant::now();
        let real = launcher
            .launch_with_state(kernel, range, problem.memory(), &mut state)
            .map_err(|e| e.to_string())?;
        secs += t.elapsed().as_secs_f64();
        if let Some(why) = m.mismatch(&real) {
            return Err(why);
        }
    }
    if !bitwise_equal(mirror_out, &problem.read_output()) {
        return Err("mirror output differs from the launcher's".to_string());
    }
    Ok((secs, state))
}

/// One warp-level memory instruction recovered from sampled streams.
enum Instr {
    Global { addrs: Vec<(u64, u8)>, store: bool },
    Atomic(Vec<u64>),
    Shared(Vec<(u32, u8)>),
}

/// Split a lane stream into `(path, start, end)` segments at each path
/// change — the alignment rule `replay_warp` documents.
fn segments(stream: &[Event]) -> Vec<(u32, usize, usize)> {
    let mut segs = Vec::new();
    let (mut path, mut start) = (0u32, 0usize);
    for (idx, ev) in stream.iter().enumerate() {
        if let Event::SetPath(p) = ev {
            segs.push((path, start, idx));
            path = *p;
            start = idx + 1;
        }
    }
    segs.push((path, start, stream.len()));
    segs
}

/// The memory instructions one warp issues, with the active lanes'
/// operands, in issue order.
fn instructions(streams: &[Vec<Event>]) -> Vec<Instr> {
    let segs: Vec<_> = streams.iter().map(|s| segments(s)).collect();
    let max_segs = segs.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for seg_idx in 0..max_segs {
        let mut paths: Vec<u32> = segs
            .iter()
            .filter_map(|s| s.get(seg_idx).map(|seg| seg.0))
            .collect();
        paths.sort_unstable();
        paths.dedup();
        for path in paths {
            let lanes: Vec<(usize, usize, usize)> = segs
                .iter()
                .enumerate()
                .filter_map(|(l, s)| match s.get(seg_idx) {
                    Some(&(p, start, end)) if p == path && end > start => Some((l, start, end)),
                    _ => None,
                })
                .collect();
            let steps = lanes.iter().map(|&(_, s, e)| e - s).max().unwrap_or(0);
            for step in 0..steps {
                let active: Vec<Event> = lanes
                    .iter()
                    .filter(|&&(_, s, e)| e - s > step)
                    .map(|&(l, s, _)| streams[l][s + step])
                    .collect();
                let instr = match active[0] {
                    Event::GlobalLoad { .. } | Event::GlobalStore { .. } => Instr::Global {
                        store: matches!(active[0], Event::GlobalStore { .. }),
                        addrs: active
                            .iter()
                            .filter_map(|e| match *e {
                                Event::GlobalLoad { addr, bytes }
                                | Event::GlobalStore { addr, bytes } => Some((addr, bytes)),
                                _ => None,
                            })
                            .collect(),
                    },
                    Event::AtomicRmw { .. } => Instr::Atomic(
                        active
                            .iter()
                            .filter_map(|e| match *e {
                                Event::AtomicRmw { addr, .. } => Some(addr),
                                _ => None,
                            })
                            .collect(),
                    ),
                    Event::LocalLoad { .. } | Event::LocalStore { .. } => Instr::Shared(
                        active
                            .iter()
                            .filter_map(|e| match *e {
                                Event::LocalLoad { offset, bytes }
                                | Event::LocalStore { offset, bytes } => Some((offset, bytes)),
                                _ => None,
                            })
                            .collect(),
                    ),
                    _ => continue,
                };
                out.push(instr);
            }
        }
    }
    out
}

/// Host cost per call of the four replay sub-models, measured by
/// re-driving their public functions over sampled operands.  `None`
/// where the sample held no instruction of that kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct SampledCosts {
    /// `coalesce` per global or atomic instruction, ns.
    pub coalesce_ns: Option<f64>,
    /// L1 lookup (plus the L2 lookup a miss causes) per tag request, ns.
    pub cache_ns: Option<f64>,
    /// `model_shared_instruction` per shared-memory instruction, ns.
    pub shared_ns: Option<f64>,
    /// `model_atomic_instruction` per atomic instruction, ns.
    pub atomic_ns: Option<f64>,
}

/// Passes over the sample per model: enough to lift each timing well
/// above the clock's resolution.
const REDRIVE_REPS: usize = 20;

fn ns_per_call(calls: usize, mut body: impl FnMut()) -> Option<f64> {
    if calls == 0 {
        return None;
    }
    let t = Instant::now();
    for _ in 0..REDRIVE_REPS {
        body();
    }
    Some(t.elapsed().as_nanos() as f64 / (calls * REDRIVE_REPS) as f64)
}

/// Re-drive the sampled warps' memory instructions through the
/// coalescer, one device-sized L1/L2 pair (cold on the first of the
/// repetitions, warm after), the bank model and the atomic model,
/// timing each separately.
pub fn redrive(sample: &WarpSample, device: &DeviceSpec) -> SampledCosts {
    let instrs: Vec<Instr> = sample.iter().flat_map(|w| instructions(w)).collect();
    let (line, sector) = (device.line_bytes, device.sector_bytes);
    let mut global: Vec<(&[(u64, u8)], bool)> = Vec::new();
    let mut coalesce_in: Vec<Vec<(u64, u8)>> = Vec::new();
    let mut shared: Vec<&[(u32, u8)]> = Vec::new();
    let mut atomic: Vec<&[u64]> = Vec::new();
    for i in &instrs {
        match i {
            Instr::Global { addrs, store } => {
                global.push((addrs, *store));
                coalesce_in.push(addrs.clone());
            }
            Instr::Atomic(addrs) => {
                atomic.push(addrs);
                coalesce_in.push(addrs.iter().map(|&a| (a, 8)).collect());
            }
            Instr::Shared(accs) => shared.push(accs),
        }
    }
    let coalesce_ns = ns_per_call(coalesce_in.len(), || {
        for a in &coalesce_in {
            black_box(coalesce(black_box(a), line, sector));
        }
    });
    let lines: Vec<(u64, u8, bool)> = global
        .iter()
        .flat_map(|&(a, store)| {
            coalesce(a, line, sector)
                .sector_masks
                .into_iter()
                .map(move |(l, m)| (l, m, store))
        })
        .collect();
    let (l1_cfg, l2_cfg) = cache_configs(device);
    let (mut l1, mut l2) = (Cache::new(l1_cfg), Cache::new(l2_cfg));
    let cache_ns = ns_per_call(lines.len(), || {
        for &(l, m, store) in &lines {
            let o = if store {
                l1.access_write(l, m)
            } else {
                l1.access(l, m)
            };
            if o.missed_mask != 0 {
                black_box(if store {
                    l2.access_write(l, o.missed_mask)
                } else {
                    l2.access(l, o.missed_mask)
                });
            }
        }
    });
    let shared_ns = ns_per_call(shared.len(), || {
        for a in &shared {
            black_box(model_shared_instruction(
                black_box(a),
                device.shared_banks,
                device.bank_width,
            ));
        }
    });
    let atomic_ns = ns_per_call(atomic.len(), || {
        for a in &atomic {
            black_box(model_atomic_instruction(black_box(a)));
        }
    });
    SampledCosts {
        coalesce_ns,
        cache_ns,
        shared_ns,
        atomic_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milc_bench::paper;
    use milc_dslash::KernelConfig;

    /// The mirror reproduces `Launcher` bit for bit — counters, cache
    /// statistics, modelled duration and output — for a cold and a warm
    /// launch of every Table I configuration; the check notices when the
    /// reports come in the wrong order.
    #[test]
    fn mirror_equals_launcher_on_every_table1_config() {
        let device = DeviceSpec::test_small();
        let problem = DslashProblem::<Z>::random(4, 2024);
        let hv = problem.lattice().half_volume() as u64;
        for col in paper::TABLE1 {
            let cfg = KernelConfig::new(col.strategy, col.order);
            let ls = *cfg
                .legal_local_sizes(hv)
                .last()
                .expect("a legal size at L=4");
            let range = problem.launch_range(cfg, ls);
            let kernel = problem.make_kernel(cfg, range.num_groups());

            let mut layers = Layers::default();
            let mut mirror = Mirror::new(&device);
            let mut mirrored = Vec::new();
            for _ in 0..2 {
                problem.zero_output();
                mirrored.push(
                    mirror
                        .launch(kernel.as_ref(), range, problem.memory(), &mut layers, None)
                        .unwrap(),
                );
            }
            let mirror_out = problem.read_output();
            let check = |reports: &[MirrorReport]| {
                check_against_launcher(
                    &problem,
                    kernel.as_ref(),
                    range,
                    &device,
                    reports,
                    &mirror_out,
                )
            };
            if let Err(why) = check(&mirrored) {
                panic!("{}: {why}", cfg.label());
            }
            mirrored.reverse();
            assert!(check(&mirrored).is_err(), "{}", cfg.label());
            assert_eq!(layers.launches, 2);
            assert!(layers.lane_events > 0);
        }
    }

    #[test]
    fn sampled_warps_are_capped_per_launch_and_redrive_every_model() {
        let device = DeviceSpec::test_small();
        let problem = DslashProblem::<Z>::random(4, 7);
        // 3LP-2 exercises global, shared and atomic instructions.
        let col = paper::TABLE1[4];
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = *cfg
            .legal_local_sizes(problem.lattice().half_volume() as u64)
            .last()
            .unwrap();
        let range = problem.launch_range(cfg, ls);
        let kernel = problem.make_kernel(cfg, range.num_groups());
        let mut sample = Vec::new();
        let mut mirror = Mirror::new(&device);
        let mut layers = Layers::default();
        for _ in 0..2 {
            mirror
                .launch(
                    kernel.as_ref(),
                    range,
                    problem.memory(),
                    &mut layers,
                    Some(&mut sample),
                )
                .unwrap();
        }
        assert_eq!(sample.len(), 2 * SAMPLED_WARPS_PER_LAUNCH);
        let costs = redrive(&sample, &device);
        for ns in [
            costs.coalesce_ns,
            costs.cache_ns,
            costs.shared_ns,
            costs.atomic_ns,
        ] {
            assert!(ns.expect("3LP-2 issues every instruction kind") > 0.0);
        }
    }
}
