//! The launch engine: group scheduling, phase execution, warp replay.
//!
//! Work-groups are assigned to SMs round-robin (group `g` runs on SM
//! `g % num_sms`), the static equivalent of the hardware's greedy block
//! scheduler for a uniform kernel.  Each SM owns an L1 cache whose state
//! persists across the groups it runs; the L2 is shared.
//!
//! Execution is fully deterministic: groups are processed in group-id
//! order against the one shared L2.  Group-id order approximates
//! temporal interleaving because consecutive groups run on *different*
//! SMs round-robin, just as on hardware.

use crate::cache::{Cache, CacheConfig, CacheStats, LruSnapshot};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::event::Event;
use crate::kernel::{Kernel, KernelResources, Lane};
use crate::memo::{LaunchShape, Memo, Steady, StreamDigest};
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use crate::occupancy::{occupancy, Occupancy};
use crate::sanitizer::{Sanitizer, SanitizerConfig, SanitizerReport};
use crate::sharedmem::LocalMem;
use crate::timing::TimingModel;
use crate::warp::{replay_warp, ReplaySinks};

/// Persistent cache state of the simulated device, carried across
/// kernel launches.  The paper's Table I profiles "specifically, the
/// second kernel launch" and its durations are means over 100
/// iterations — i.e. *warm* caches: the source vector and neighbor
/// tables of one iteration are still resident when the next begins.
/// Create one `DeviceState` and pass it to
/// [`Launcher::launch_with_state`] repeatedly to model that; the plain
/// [`Launcher::launch`] starts cold.
///
/// The state also remembers its last launch (the steady-state memo,
/// `memo.rs`): when a launch repeats the previous one's shape and event
/// streams on caches that launch left as it found them, its warps are
/// not replayed again.
pub struct DeviceState {
    l1s: Vec<Cache>,
    l2: Cache,
    launches: u64,
    memo: Option<Memo>,
    /// Reused buffers: the caches on entry to and exit from a launch
    /// that repeats the memo's shape, and a speculative launch's undo
    /// log.
    entry: LruSnapshot,
    exit: LruSnapshot,
    undo: Vec<(u64, u64)>,
}

/// The L1 and L2 configurations of `device`.
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

impl DeviceState {
    /// Fresh (cold) state for a device.
    pub fn new(device: &DeviceSpec) -> Self {
        let (l1_cfg, l2_cfg) = cache_configs(device);
        Self {
            l1s: (0..device.num_sms as usize)
                .map(|_| Cache::new(l1_cfg))
                .collect(),
            l2: Cache::new(l2_cfg),
            launches: 0,
            memo: None,
            entry: LruSnapshot::default(),
            exit: LruSnapshot::default(),
            undo: Vec::new(),
        }
    }

    /// Number of launches executed against this state.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Refuse a device whose SM count or cache geometry this state was
    /// not built for.
    fn check(&self, device: &DeviceSpec) -> Result<(), SimError> {
        if self.l1s.len() != device.num_sms as usize {
            return Err(SimError::DeviceStateMismatch {
                state_sms: self.l1s.len() as u32,
                device_sms: device.num_sms,
            });
        }
        let (l1, l2) = cache_configs(device);
        let levels = self
            .l1s
            .first()
            .map(|c| ("L1", *c.config(), l1))
            .into_iter()
            .chain([("L2", *self.l2.config(), l2)]);
        for (level, have, want) in levels {
            if let Some((field, state, device)) = have.first_difference(&want) {
                return Err(SimError::DeviceStateCacheMismatch {
                    level,
                    field,
                    state,
                    device,
                });
            }
        }
        Ok(())
    }
}

/// Every cache of a state in LRU-canonical form, into `snap`.
fn snapshot(l1s: &[Cache], l2: &Cache, snap: &mut LruSnapshot) {
    snap.clear();
    for l1 in l1s {
        snap.push(l1);
    }
    snap.push(l2);
}

/// Everything a launch produces besides its memory side effects.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub range: NdRange,
    /// Declared kernel resources at this local size.
    pub resources: KernelResources,
    /// Occupancy analysis.
    pub occupancy: Occupancy,
    /// Measured event counters.
    pub counters: Counters,
    /// L1 statistics summed over SMs.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// Modelled kernel duration in microseconds.
    pub duration_us: f64,
    /// Host wall time the *simulation* of this launch took, µs — the
    /// cost of running the model, not a property of the modelled
    /// device.  Tracing surfaces it next to `duration_us` so timelines
    /// show modelled vs simulation time per launch.
    pub host_wall_us: f64,
    /// Sanitizer findings, when the launcher was configured with
    /// [`Launcher::with_sanitizer`]; `None` for unsanitized launches.
    pub sanitizer: Option<SanitizerReport>,
    /// Whether the launch took its counters and cache statistics from
    /// its state's steady-state memo instead of replaying its warps.
    /// Every other field but `host_wall_us` is the same either way.
    pub memo_hit: bool,
}

impl LaunchReport {
    /// Achieved GFLOP/s based on the kernel-recorded FLOPs.
    pub fn gflops(&self) -> f64 {
        if self.duration_us <= 0.0 {
            0.0
        } else {
            self.counters.flops as f64 / self.duration_us / 1e3
        }
    }

    /// Scheduling waves the launch needed (grid groups over resident
    /// groups across the device) — the quantity an autotuner watches,
    /// since a fractional last wave is pure tail.
    pub fn waves(&self) -> f64 {
        self.occupancy.waves
    }

    /// Fraction of the launch spent in the partial last wave: 0 for a
    /// whole number of waves, approaching 1 when a nearly-empty tail
    /// wave holds the device.  Candidates with equal arithmetic but a
    /// smaller tail fraction finish sooner; exposed so tuning reports
    /// can attribute *why* a local size won.
    pub fn tail_fraction(&self) -> f64 {
        self.occupancy.tail_fraction()
    }
}

/// Configurable kernel launcher.
pub struct Launcher<'d> {
    device: &'d DeviceSpec,
    sanitizer: Option<SanitizerConfig>,
}

impl<'d> Launcher<'d> {
    /// A launcher pricing launches with the calibrated timing model.
    pub fn new(device: &'d DeviceSpec) -> Self {
        Self {
            device,
            sanitizer: None,
        }
    }

    /// Enable the sanitizer for every launch through this launcher.
    /// Sanitized lanes run tolerant: invalid accesses become findings
    /// instead of panics.  Performance counters and timing are still
    /// produced as usual.
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitizer = Some(cfg);
        self
    }

    /// Launch a kernel and simulate it to completion with cold caches.
    pub fn launch(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
    ) -> Result<LaunchReport, SimError> {
        let mut state = DeviceState::new(self.device);
        self.launch_with_state(kernel, range, mem, &mut state)
    }

    /// Launch against persistent cache state (warm launches).  A state
    /// built for a device with a different SM count or cache geometry
    /// is refused with [`SimError::DeviceStateMismatch`] or
    /// [`SimError::DeviceStateCacheMismatch`].
    ///
    /// An unsanitized launch that repeats the state's last launch — same
    /// shape, and that launch left the caches LRU-equivalent to how it
    /// found them — runs its lanes speculatively without warp replay,
    /// logging every global word it overwrites.  If its event streams
    /// digest to the memo's, the memo's counters and cache statistics
    /// are the launch's (`memo_hit`); otherwise memory is restored from
    /// the log and the launch runs in full.  Reports are bitwise the
    /// same either way, `host_wall_us` and `memo_hit` aside.
    pub fn launch_with_state(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        state: &mut DeviceState,
    ) -> Result<LaunchReport, SimError> {
        let host_start = std::time::Instant::now();
        state.check(self.device)?;
        range.validate(self.device)?;
        let res = kernel.resources(range.local);
        let occ = occupancy(self.device, range.local, &res, range.num_groups())?;
        let report = |counters: Counters,
                      l1_stats: CacheStats,
                      l2_stats: CacheStats,
                      sanitizer: Option<SanitizerReport>,
                      memo_hit: bool| LaunchReport {
            kernel: kernel.name().to_string(),
            range,
            resources: res,
            occupancy: occ,
            counters,
            l1_stats,
            l2_stats,
            duration_us: TimingModel::calibrated().duration_us(&counters, &occ, self.device),
            host_wall_us: host_start.elapsed().as_secs_f64() * 1e6,
            sanitizer,
            memo_hit,
        };

        // Only the last launch is remembered, and only an unsanitized
        // launch of the same shape consults it.  Taking it now means a
        // launch that fails leaves no memo.
        let shape = LaunchShape::new(self.device, range, &res, kernel.num_phases());
        let last = state
            .memo
            .take()
            .filter(|m| self.sanitizer.is_none() && m.shape == shape);
        let repeat = last.is_some();
        let mut exec = GroupExecutor::new(kernel, range, self.device, mem, res);
        if let Some(steady) = last.and_then(|m| m.steady) {
            if exec.speculate(&mut state.undo) == steady.digest {
                let mut l1_stats = CacheStats::default();
                for (c, d) in state.l1s.iter_mut().zip(&steady.l1) {
                    c.add_stats(d);
                    l1_stats.merge(d);
                }
                state.l2.add_stats(&steady.l2);
                state.launches += 1;
                let hit = report(steady.counters, l1_stats, steady.l2, None, true);
                state.memo = Some(Memo {
                    shape,
                    steady: Some(steady),
                });
                return Ok(hit);
            }
            // Other streams: undo the stores and run in full on the
            // untouched caches.  Lanes are deterministic, so the re-run
            // makes the same stores again.
            for &(addr, bits) in state.undo.iter().rev() {
                mem.restore_bits(addr, bits);
            }
        }

        // Shadow state snapshots the init bitmap now, before any kernel
        // event; the linter runs up front.
        let mut san = self.sanitizer.as_ref().map(|cfg| {
            let mut s =
                Sanitizer::new(cfg.clone(), mem, res.local_mem_bytes_per_group, range.local);
            s.lint(
                self.device,
                &range,
                &res,
                kernel.num_phases(),
                kernel.local_size_multiple(),
            );
            s
        });
        if repeat {
            snapshot(&state.l1s, &state.l2, &mut state.entry);
            exec.digest = Some(StreamDigest::new());
        }
        let l1_before: Vec<CacheStats> = state.l1s.iter().map(|c| *c.stats()).collect();
        let l2_before = *state.l2.stats();
        let mut counters = Counters::default();
        let num_sms = state.l1s.len() as u64;
        for g in 0..range.num_groups() {
            let l1 = &mut state.l1s[(g % num_sms) as usize];
            exec.run_group(
                g,
                Some((l1, &mut state.l2)),
                &mut counters,
                san.as_mut(),
                None,
            )?;
        }
        state.launches += 1;
        // Report this launch's cache deltas, not the lifetime sums.
        let l1: Vec<CacheStats> = state
            .l1s
            .iter()
            .zip(&l1_before)
            .map(|(c, before)| delta(c.stats(), before))
            .collect();
        let mut l1_stats = CacheStats::default();
        for d in &l1 {
            l1_stats.merge(d);
        }
        let l2_stats = delta(state.l2.stats(), &l2_before);

        if self.sanitizer.is_none() {
            let steady = exec.digest.and_then(|digest| {
                snapshot(&state.l1s, &state.l2, &mut state.exit);
                state.exit.equivalent(&state.entry).then_some(Steady {
                    digest,
                    counters,
                    l1,
                    l2: l2_stats,
                })
            });
            state.memo = Some(Memo { shape, steady });
        }
        Ok(report(
            counters,
            l1_stats,
            l2_stats,
            san.map(Sanitizer::into_report),
            false,
        ))
    }
}

/// Per-launch difference of two cache-stat snapshots.
fn delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        tag_requests: after.tag_requests - before.tag_requests,
        sector_requests: after.sector_requests - before.sector_requests,
        sector_misses: after.sector_misses - before.sector_misses,
        evictions: after.evictions - before.evictions,
        writeback_sectors: after.writeback_sectors - before.writeback_sectors,
    }
}

/// Executes work-groups of one launch: runs lanes phase-by-phase,
/// collects their event streams, and replays warps.
struct GroupExecutor<'a> {
    kernel: &'a dyn Kernel,
    range: NdRange,
    device: &'a DeviceSpec,
    mem: &'a DeviceMemory,
    local_mem_bytes: u32,
    phases: usize,
    /// Reused per-warp event buffers (one per lane).
    streams: Vec<Vec<Event>>,
    /// Reused local memory (reset per group).
    local: LocalMem,
    /// Digest of the streams run so far, when the launch takes one.
    digest: Option<StreamDigest>,
}

impl<'a> GroupExecutor<'a> {
    fn new(
        kernel: &'a dyn Kernel,
        range: NdRange,
        device: &'a DeviceSpec,
        mem: &'a DeviceMemory,
        res: KernelResources,
    ) -> Self {
        let warp = device.warp_size as usize;
        Self {
            kernel,
            range,
            device,
            mem,
            local_mem_bytes: res.local_mem_bytes_per_group,
            phases: kernel.num_phases(),
            streams: (0..warp).map(|_| Vec::with_capacity(128)).collect(),
            local: LocalMem::new(res.local_mem_bytes_per_group),
            digest: None,
        }
    }

    /// Run every group's lanes without replaying a warp, logging each
    /// global word they overwrite into `undo`, and return the digest of
    /// their streams.
    fn speculate(&mut self, undo: &mut Vec<(u64, u64)>) -> StreamDigest {
        undo.clear();
        self.digest = Some(StreamDigest::new());
        // Only replay can fail, and only replay counts what matters.
        let mut counters = Counters::default();
        for g in 0..self.range.num_groups() {
            self.run_group(g, None, &mut counters, None, Some(undo))
                .expect("a launch without replay cannot fail");
        }
        self.digest.take().expect("set above")
    }

    /// Run one group's phases warp by warp; replay each warp into
    /// `caches` (this SM's L1 and the L2) unless they are `None`.
    fn run_group(
        &mut self,
        group: u64,
        mut caches: Option<(&mut Cache, &mut Cache)>,
        counters: &mut Counters,
        mut sanitizer: Option<&mut Sanitizer<'_>>,
        mut undo: Option<&mut Vec<(u64, u64)>>,
    ) -> Result<(), SimError> {
        let local_size = self.range.local;
        let warp = self.device.warp_size;
        let warps = local_size.div_ceil(warp);
        if self.local.len() != self.local_mem_bytes as usize {
            self.local = LocalMem::new(self.local_mem_bytes);
        } else {
            self.local.reset();
        }
        counters.items += local_size as u64;
        counters.warps += warps as u64;
        counters.barrier_waits += warps as u64 * (self.phases as u64 - 1);
        if let Some(s) = sanitizer.as_deref_mut() {
            s.begin_group();
        }

        for phase in 0..self.phases {
            for w in 0..warps {
                let lanes = (local_size - w * warp).min(warp);
                for lane in 0..warp as usize {
                    self.streams[lane].clear();
                }
                if let Some(d) = self.digest.as_mut() {
                    d.begin_warp(phase, w, lanes);
                }
                for lane in 0..lanes {
                    let local_id = w * warp + lane;
                    let global_id = group * local_size as u64 + local_id as u64;
                    let mut ctx = Lane::new(
                        global_id,
                        local_id,
                        group,
                        local_size,
                        self.mem,
                        &mut self.local,
                        &mut self.streams[lane as usize],
                    );
                    if sanitizer.is_some() {
                        ctx.set_tolerant();
                    }
                    if let Some(undo) = undo.as_deref_mut() {
                        ctx.set_undo_log(undo);
                    }
                    self.kernel.run_phase(phase, &mut ctx);
                    if let Some(d) = self.digest.as_mut() {
                        d.lane(&self.streams[lane as usize]);
                    }
                }
                if let Some(s) = sanitizer.as_deref_mut() {
                    // Inspect the streams before replay: if replay aborts
                    // on a divergence mismatch, the accesses up to that
                    // warp were still checked.
                    s.process_warp(group, phase as u32, w * warp, &self.streams);
                }
                if let Some((l1, l2)) = caches.as_mut() {
                    let mut sinks = ReplaySinks {
                        l1,
                        l2,
                        counters,
                        line_bytes: self.device.line_bytes,
                        sector_bytes: self.device.sector_bytes,
                        banks: self.device.shared_banks,
                        bank_width: self.device.bank_width,
                    };
                    replay_warp(&self.streams, &mut sinks)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelResources;

    /// Doubles every element of a buffer.
    struct DoubleKernel {
        buf: u64,
        n: u64,
    }

    impl Kernel for DoubleKernel {
        fn name(&self) -> &str {
            "double"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            if i >= self.n {
                return;
            }
            let v = lane.ld_global_f64(self.buf + i * 8);
            lane.flops(1);
            lane.st_global_f64(self.buf + i * 8, v * 2.0);
        }
    }

    /// Two-phase kernel: phase 0 writes local memory, phase 1 reads a
    /// *different* lane's slot — only correct with barrier semantics.
    struct RotateKernel {
        out: u64,
    }

    impl Kernel for RotateKernel {
        fn name(&self) -> &str {
            "rotate"
        }
        fn num_phases(&self) -> usize {
            2
        }
        fn resources(&self, ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: ls * 8,
            }
        }
        fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
            let lid = lane.local_id();
            let ls = lane.local_size();
            if phase == 0 {
                lane.st_local_f64(lid * 8, lane.global_id() as f64);
            } else {
                let neighbor = (lid + 1) % ls;
                let v = lane.ld_local_f64(neighbor * 8);
                lane.st_global_f64(self.out + lane.global_id() * 8, v);
            }
        }
    }

    #[test]
    fn functional_results_are_exact() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(256 * 8, "buf");
        for i in 0..256u64 {
            mem.write_f64(buf.addr(i * 8), i as f64);
        }
        let k = DoubleKernel {
            buf: buf.base(),
            n: 256,
        };
        let report = Launcher::new(&device)
            .launch(&k, NdRange::linear(256, 64), &mem)
            .unwrap();
        for i in 0..256u64 {
            assert_eq!(mem.read_f64(buf.addr(i * 8)), 2.0 * i as f64);
        }
        assert_eq!(report.counters.items, 256);
        assert_eq!(report.counters.flops, 256);
        assert!(report.duration_us > 0.0);
        assert!(report.gflops() > 0.0);
    }

    #[test]
    fn barrier_phases_give_correct_cross_lane_reads() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        for g in 0..4u64 {
            for lid in 0..32u64 {
                let gid = g * 32 + lid;
                let expect = g * 32 + (lid + 1) % 32;
                assert_eq!(mem.read_f64(out.addr(gid * 8)), expect as f64, "gid {gid}");
            }
        }
    }

    #[test]
    fn mismatched_device_state_is_an_error() {
        let small = DeviceSpec::test_small();
        let a100 = DeviceSpec::a100();
        let mut mem = DeviceMemory::new();
        let b = mem.alloc(1024 * 8, "b");
        let k = DoubleKernel {
            buf: b.base(),
            n: 1024,
        };
        let mut state = DeviceState::new(&small);
        let err = Launcher::new(&a100).launch_with_state(
            &k,
            NdRange::linear(1024, 128),
            &mem,
            &mut state,
        );
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateMismatch {
                state_sms: small.num_sms,
                device_sms: a100.num_sms,
            }
        );
        assert_eq!(
            state.launches(),
            0,
            "a refused launch leaves the state untouched"
        );

        // The volume-matched A100s of L = 4 and L = 8 both have one SM,
        // but not the same L2.
        let l4 = DeviceSpec::a100().scaled_for_volume_ratio((4.0f64 / 32.0).powi(4));
        let l8 = DeviceSpec::a100().scaled_for_volume_ratio((8.0f64 / 32.0).powi(4));
        assert_eq!(l4.num_sms, l8.num_sms);
        let mut state = DeviceState::new(&l4);
        let err =
            Launcher::new(&l8).launch_with_state(&k, NdRange::linear(1024, 128), &mem, &mut state);
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateCacheMismatch {
                level: "L2",
                field: "capacity",
                state: l4.l2_bytes,
                device: l8.l2_bytes,
            }
        );
        assert_eq!(state.launches(), 0);
        let mut l1_ways = l4.clone();
        l1_ways.l1_ways = 8;
        let err = Launcher::new(&l1_ways).launch_with_state(
            &k,
            NdRange::linear(1024, 128),
            &mem,
            &mut state,
        );
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateCacheMismatch {
                level: "L1",
                field: "ways",
                state: 4,
                device: 8,
            }
        );
        // The state's own device is still accepted.
        Launcher::new(&l4)
            .launch_with_state(&k, NdRange::linear(1024, 128), &mem, &mut state)
            .unwrap();
        assert_eq!(state.launches(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let device = DeviceSpec::test_small();
        let run = || {
            let mut mem = DeviceMemory::new();
            let b = mem.alloc(512 * 8, "b");
            for i in 0..512u64 {
                mem.write_f64(b.addr(i * 8), 1.0);
            }
            let k = DoubleKernel {
                buf: b.base(),
                n: 512,
            };
            Launcher::new(&device)
                .launch(&k, NdRange::linear(512, 64), &mem)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.duration_us, b.duration_us);
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let device = DeviceSpec::test_small();
        let mem = DeviceMemory::new();
        let k = DoubleKernel { buf: 0x1000, n: 0 };
        let err = Launcher::new(&device).launch(&k, NdRange::linear(100, 64), &mem);
        assert!(matches!(err, Err(SimError::IndivisibleGlobalSize { .. })));
    }

    /// RotateKernel without its barrier: store and cross-lane read in
    /// one phase — the canonical local-memory race.
    struct PhaselessRotate {
        out: u64,
    }

    impl Kernel for PhaselessRotate {
        fn name(&self) -> &str {
            "rotate-no-barrier"
        }
        fn resources(&self, ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: ls * 8,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let lid = lane.local_id();
            let ls = lane.local_size();
            lane.st_local_f64(lid * 8, lane.global_id() as f64);
            let v = lane.ld_local_f64((lid + 1) % ls * 8);
            lane.st_global_f64(self.out + lane.global_id() * 8, v);
        }
    }

    #[test]
    fn sanitized_clean_kernel_reports_clean() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let r = Launcher::new(&device)
            .with_sanitizer(crate::sanitizer::SanitizerConfig::default())
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        let san = r.sanitizer.expect("sanitized launch carries a report");
        assert!(san.is_clean(), "{:?}", san.findings);
        assert!(san.checked_accesses > 0);
        // Unsanitized launches carry no report.
        let r2 = Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        assert!(r2.sanitizer.is_none());
        // The sanitizer is an observer: counters are unchanged by it.
        assert_eq!(r.counters, r2.counters);
    }

    #[test]
    fn sanitizer_flags_missing_barrier() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = PhaselessRotate { out: out.base() };
        let r = Launcher::new(&device)
            .with_sanitizer(crate::sanitizer::SanitizerConfig::default())
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        let san = r.sanitizer.unwrap();
        assert!(san.count_class("race") >= 1, "{:?}", san.findings);
        // The linter independently notices local memory with no barrier.
        assert!(san.count_class("lint") >= 1, "{:?}", san.findings);
    }

    /// A report with the two fields a memo hit may change blanked, as
    /// text: `{:?}` prints every float exactly, so equal text means
    /// bitwise-equal reports.
    fn modelled(r: &LaunchReport) -> String {
        let mut r = r.clone();
        r.host_wall_us = 0.0;
        r.memo_hit = false;
        format!("{r:?}")
    }

    /// Records no memory event: launched at its own range, it leaves
    /// every cache line alone but replaces a state's memo.
    struct Idle;

    impl Kernel for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            lane.flops(1);
        }
    }

    const IDLE_RANGE: NdRange = NdRange {
        global: 32,
        local: 32,
    };

    /// `dst[i] += src[idx[i]]` and `acc += src[idx[i]]`, with a
    /// divergent single-lane store when `flag` is set and no declared
    /// path (a `LaneDivergenceMismatch`).
    struct Gather {
        idx: u64,
        src: u64,
        dst: u64,
        acc: u64,
        flag: u64,
    }

    impl Kernel for Gather {
        fn name(&self) -> &str {
            "gather"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 24,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            if lane.ld_global_u32(self.flag) != 0 && i % 2 == 1 {
                lane.st_global_f64(self.dst + i * 8, 0.0);
            }
            let j = lane.ld_global_u32(self.idx + i * 4) as u64;
            let v = lane.ld_global_f64(self.src + j * 8);
            let d = lane.ld_global_f64(self.dst + i * 8);
            lane.flops(2);
            lane.st_global_f64(self.dst + i * 8, d + v);
            lane.atomic_add_global_f64(self.acc + (i % 4) * 8, v);
        }
    }

    const N: u64 = 512;

    /// One device memory for [`Gather`]: `src[j] = j + 0.5`.
    fn gather_setup() -> (DeviceMemory, Gather) {
        let mut mem = DeviceMemory::new();
        let idx = mem.alloc(N * 4, "idx");
        let src = mem.alloc(N * 8, "src");
        let dst = mem.alloc(N * 8, "dst");
        let acc = mem.alloc(4 * 8, "acc");
        let flag = mem.alloc(8, "flag");
        for j in 0..N {
            mem.write_f64(src.addr(j * 8), j as f64 + 0.5);
        }
        mem.zero(&dst);
        mem.zero(&acc);
        mem.zero(&flag);
        let k = Gather {
            idx: idx.base(),
            src: src.base(),
            dst: dst.base(),
            acc: acc.base(),
            flag: flag.base(),
        };
        (mem, k)
    }

    /// Every word of the arena, as bits.
    fn arena(mem: &DeviceMemory) -> Vec<u64> {
        (BASE_ADDR..mem.arena_end())
            .step_by(8)
            .map(|a| mem.read_f64(a).to_bits())
            .collect()
    }

    use crate::memory::BASE_ADDR;

    /// The launches of one step of a sequence: which index table to
    /// gather through and whether the flag is set.
    type Step = (fn(u64) -> u64, bool);

    /// Run `steps` on a fresh state, with (`oracle`) or without an
    /// [`Idle`] launch before each step.  Returns each step's report
    /// (or error) and the arena after it.
    fn run_steps(
        device: &DeviceSpec,
        steps: &[Step],
        oracle: bool,
    ) -> Vec<(Result<LaunchReport, SimError>, Vec<u64>)> {
        let (mem, k) = gather_setup();
        let launcher = Launcher::new(device);
        let mut state = DeviceState::new(device);
        steps
            .iter()
            .map(|&(perm, flag)| {
                for i in 0..N {
                    mem.write_u32(k.idx + i * 4, perm(i) as u32);
                }
                mem.write_u32(k.flag, flag as u32);
                if oracle {
                    let idle = launcher
                        .launch_with_state(&Idle, IDLE_RANGE, &mem, &mut state)
                        .unwrap();
                    assert_eq!(idle.l1_stats, CacheStats::default());
                    assert_eq!(idle.l2_stats, CacheStats::default());
                }
                let r = launcher.launch_with_state(&k, NdRange::linear(N, 64), &mem, &mut state);
                (r, arena(&mem))
            })
            .collect()
    }

    fn identity(i: u64) -> u64 {
        i
    }

    fn reversed(i: u64) -> u64 {
        N - 1 - i
    }

    #[test]
    fn memo_hits_match_full_replay_and_roll_back_on_mismatch() {
        let device = DeviceSpec::test_small();
        let steps: [Step; 9] = [
            (identity, false),
            (identity, false),
            (identity, false),
            (identity, false),
            // Another index table: speculation must find another digest,
            // undo its stores and atomics, and replay in full.
            (reversed, false),
            (reversed, false),
            (reversed, false),
            (reversed, false),
            (identity, false),
        ];
        let memo = run_steps(&device, &steps, false);
        let oracle = run_steps(&device, &steps, true);
        let hits: Vec<bool> = memo
            .iter()
            .map(|(r, _)| r.as_ref().unwrap().memo_hit)
            .collect();
        assert_eq!(
            hits,
            [false, false, true, true, false, false, true, true, false]
        );
        for (i, ((m, m_mem), (o, o_mem))) in memo.iter().zip(&oracle).enumerate() {
            let o = o.as_ref().unwrap();
            assert!(!o.memo_hit, "oracle launch {i} hit the memo");
            assert_eq!(modelled(m.as_ref().unwrap()), modelled(o), "launch {i}");
            assert!(m_mem == o_mem, "memory after launch {i} differs");
        }
    }

    #[test]
    fn a_failed_launch_leaves_no_memo() {
        let device = DeviceSpec::test_small();
        let steps: [Step; 6] = [
            (identity, false),
            (identity, false),
            (identity, false),
            // Divergent streams: speculation misses, the full replay
            // fails.
            (identity, true),
            (identity, false),
            (identity, false),
        ];
        let memo = run_steps(&device, &steps, false);
        let oracle = run_steps(&device, &steps, true);
        assert!(matches!(
            memo[3].0,
            Err(SimError::LaneDivergenceMismatch { .. })
        ));
        assert_eq!(memo[3].0.as_ref().err(), oracle[3].0.as_ref().err());
        let hits: Vec<bool> = [0, 1, 2, 4, 5]
            .iter()
            .map(|&i| memo[i].0.as_ref().unwrap().memo_hit)
            .collect();
        // After the failure the state starts over: one launch to record
        // the shape, one to find the fixed point.
        assert_eq!(hits, [false, false, true, false, false]);
        for i in [0, 1, 2, 4, 5] {
            let (m, o) = (&memo[i].0, &oracle[i].0);
            assert_eq!(modelled(m.as_ref().unwrap()), modelled(o.as_ref().unwrap()));
        }
        for (i, (m, o)) in memo.iter().zip(&oracle).enumerate() {
            assert!(m.1 == o.1, "memory after launch {i} differs");
        }
    }

    #[test]
    fn sanitized_launches_never_hit() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let launcher = Launcher::new(&device).with_sanitizer(SanitizerConfig::default());
        let mut state = DeviceState::new(&device);
        for _ in 0..4 {
            let r = launcher
                .launch_with_state(&k, NdRange::linear(128, 32), &mem, &mut state)
                .unwrap();
            assert!(!r.memo_hit);
            assert!(r.sanitizer.is_some());
        }
    }

    #[test]
    fn barrier_waits_counted() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let r = Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 64), &mem)
            .unwrap();
        // 2 groups x 2 warps x (2 phases - 1).
        assert_eq!(r.counters.barrier_waits, 4);
    }
}
