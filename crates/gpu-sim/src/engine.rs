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

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::event::Event;
use crate::kernel::{Kernel, KernelResources, Lane};
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
pub struct DeviceState {
    l1s: Vec<Cache>,
    l2: Cache,
    launches: u64,
}

impl DeviceState {
    /// Fresh (cold) state for a device.
    pub fn new(device: &DeviceSpec) -> Self {
        let l1_cfg = CacheConfig {
            capacity: device.l1_bytes as u64,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways: device.l1_ways,
        };
        let l2_cfg = CacheConfig {
            capacity: device.l2_bytes,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways: device.l2_ways,
        };
        Self {
            l1s: (0..device.num_sms as usize)
                .map(|_| Cache::new(l1_cfg))
                .collect(),
            l2: Cache::new(l2_cfg),
            launches: 0,
        }
    }

    /// Number of launches executed against this state.
    pub fn launches(&self) -> u64 {
        self.launches
    }
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
    timing: TimingModel,
    sanitizer: Option<SanitizerConfig>,
}

impl<'d> Launcher<'d> {
    /// A launcher with the default calibrated timing model.
    pub fn new(device: &'d DeviceSpec) -> Self {
        Self {
            device,
            timing: TimingModel::calibrated(),
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

    /// Override the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
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
    /// built for a device with a different SM count is refused with
    /// [`SimError::DeviceStateMismatch`].
    pub fn launch_with_state(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        state: &mut DeviceState,
    ) -> Result<LaunchReport, SimError> {
        let host_start = std::time::Instant::now();
        let num_sms = self.device.num_sms as usize;
        if state.l1s.len() != num_sms {
            return Err(SimError::DeviceStateMismatch {
                state_sms: state.l1s.len() as u32,
                device_sms: self.device.num_sms,
            });
        }
        range.validate(self.device)?;
        let res = kernel.resources(range.local);
        let occ = occupancy(self.device, range.local, &res, range.num_groups())?;

        // Shadow state snapshots the allocation table and init bitmap
        // now, before any kernel event; the linter runs up front.
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
        let l1_before: Vec<CacheStats> = state.l1s.iter().map(|c| *c.stats()).collect();
        let l2_before = *state.l2.stats();
        let mut counters = Counters::default();
        let mut exec = GroupExecutor::new(kernel, range, self.device, mem, res);
        for g in 0..range.num_groups() {
            let sm = (g % num_sms as u64) as usize;
            exec.run_group(
                g,
                &mut state.l1s[sm],
                &mut state.l2,
                &mut counters,
                san.as_mut(),
            )?;
        }
        state.launches += 1;
        // Report this launch's cache deltas, not the lifetime sums.
        let mut l1_stats = CacheStats::default();
        for (c, before) in state.l1s.iter().zip(&l1_before) {
            l1_stats.merge(&delta(c.stats(), before));
        }
        let l2_stats = delta(state.l2.stats(), &l2_before);

        let duration_us = self.timing.duration_us(&counters, &occ, self.device);
        Ok(LaunchReport {
            kernel: kernel.name().to_string(),
            range,
            resources: res,
            occupancy: occ,
            counters,
            l1_stats,
            l2_stats,
            duration_us,
            host_wall_us: host_start.elapsed().as_secs_f64() * 1e6,
            sanitizer: san.map(Sanitizer::into_report),
        })
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
        }
    }

    fn run_group(
        &mut self,
        group: u64,
        l1: &mut Cache,
        l2: &mut Cache,
        counters: &mut Counters,
        mut sanitizer: Option<&mut Sanitizer>,
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
                    self.kernel.run_phase(phase, &mut ctx);
                }
                if let Some(s) = sanitizer.as_deref_mut() {
                    // Inspect the streams before replay: if replay aborts
                    // on a divergence mismatch, the accesses up to that
                    // warp were still checked.
                    s.process_warp(group, phase as u32, w * warp, &self.streams);
                }
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
