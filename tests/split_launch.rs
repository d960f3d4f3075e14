//! Differential proof of the two-thread launch: every launch, whose lanes
//! and models run on the calling thread and whose line step, L1/L2 walk
//! and op record run on a cache thread, must equal a one-thread launch
//! loop built from the simulator's public parts alone (`Lane`,
//! `replay_warp`, `Cache`, the occupancy and timing models), bit for bit.
//!
//! The Table I configurations run at L = 4 on `test_small`, on the
//! volume-matched A100 and on a `test_small` whose L1 is a single set,
//! cold and warm (a full, a cache-tier and a memo-tier launch on one
//! state).  The single set makes the engine apply every repeat of more
//! lines than the set has ways as plain ops, where the other devices
//! count it as L1 hits.  Every report field but `host_wall_us`
//! and `replay`, and every word of device memory, must be equal.  A
//! strided kernel checks, late enough in a launch that its cache thread
//! runs: an instruction whose runs straddle a batch of commands; a launch
//! that stops matching the record mid-launch, on the cache and the memo
//! tier; an undeclared divergence right after a plain load and right
//! after a repeat; and a lane that panics.  Each sequence runs on one
//! state, so the launch after each case checks what it left behind.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Duration;

use gpu_sim::cache::{Cache, CacheConfig, CacheStats};
use gpu_sim::memory::BASE_ADDR;
use gpu_sim::occupancy::occupancy;
use gpu_sim::sharedmem::LocalMem;
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{
    Buffer, Counters, DeviceMemory, DeviceSpec, DeviceState, Event, Kernel, KernelResources, Lane,
    LaunchReport, Launcher, NdRange, Replay, SimError, TimingModel,
};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::{DslashProblem, KernelConfig};
use milc_lattice::{Lattice, QuarkField};

const L: usize = 4;
const SEED: u64 = 2024;
/// Cache ops past which a launch is sure to have started its cache
/// thread: the engine hands them over in batches of 4096 commands.
const ONE_BATCH: u64 = 4096;

/// The launch loop on one thread: every group in order, every warp's
/// lanes, then `replay_warp` straight into the SM's L1 and the L2.
struct Serial<'d> {
    device: &'d DeviceSpec,
    l1s: Vec<Cache>,
    l2: Cache,
}

impl<'d> Serial<'d> {
    fn new(device: &'d DeviceSpec) -> Self {
        let config = |capacity, ways| CacheConfig {
            capacity,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways,
        };
        Self {
            device,
            l1s: (0..device.num_sms)
                .map(|_| Cache::new(config(device.l1_bytes as u64, device.l1_ways)))
                .collect(),
            l2: Cache::new(config(device.l2_bytes, device.l2_ways)),
        }
    }

    fn launch(
        &mut self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
    ) -> Result<LaunchReport, SimError> {
        range.validate(self.device)?;
        let resources = kernel.resources(range.local);
        let occupancy = occupancy(self.device, range.local, &resources, range.num_groups())?;
        let l1_before: Vec<CacheStats> = self.l1s.iter().map(|c| *c.stats()).collect();
        let l2_before = *self.l2.stats();
        let warp = self.device.warp_size;
        let warps = range.local.div_ceil(warp);
        let phases = kernel.num_phases();
        let mut streams: Vec<Vec<Event>> = (0..warp).map(|_| Vec::new()).collect();
        let mut local = LocalMem::new(resources.local_mem_bytes_per_group);
        let mut counters = Counters::default();
        for group in 0..range.num_groups() {
            let sm = (group % self.l1s.len() as u64) as usize;
            local.reset();
            counters.items += range.local as u64;
            counters.warps += warps as u64;
            counters.barrier_waits += warps as u64 * (phases as u64 - 1);
            for phase in 0..phases {
                for w in 0..warps {
                    streams.iter_mut().for_each(Vec::clear);
                    for lane in 0..(range.local - w * warp).min(warp) {
                        let local_id = w * warp + lane;
                        let mut ctx = Lane::new(
                            group * range.local as u64 + local_id as u64,
                            local_id,
                            group,
                            range.local,
                            mem,
                            &mut local,
                            &mut streams[lane as usize],
                        );
                        kernel.run_phase(phase, &mut ctx);
                    }
                    replay_warp(
                        &streams,
                        &mut ReplaySinks {
                            l1: &mut self.l1s[sm],
                            l2: &mut self.l2,
                            counters: &mut counters,
                            line_bytes: self.device.line_bytes,
                            sector_bytes: self.device.sector_bytes,
                            banks: self.device.shared_banks,
                            bank_width: self.device.bank_width,
                        },
                    )?;
                }
            }
        }
        let mut l1_stats = CacheStats::default();
        for (c, before) in self.l1s.iter().zip(&l1_before) {
            l1_stats.merge(&delta(c.stats(), before));
        }
        Ok(LaunchReport {
            kernel: kernel.name().to_string(),
            range,
            resources,
            occupancy,
            counters,
            l1_stats,
            l2_stats: delta(self.l2.stats(), &l2_before),
            duration_us: TimingModel::calibrated().duration_us(&counters, &occupancy, self.device),
            host_wall_us: 0.0,
            sanitizer: None,
            replay: Replay::Full,
        })
    }
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

/// A report with the two fields that may differ blanked, as text: `{:?}`
/// prints every float exactly, so equal text means bitwise-equal reports.
fn modelled(r: &Result<LaunchReport, SimError>) -> String {
    let mut r = r.clone();
    if let Ok(r) = r.as_mut() {
        r.host_wall_us = 0.0;
        r.replay = Replay::Full;
    }
    format!("{r:?}")
}

/// Every word of the arena, as bits.
fn arena(mem: &DeviceMemory) -> Vec<u64> {
    (BASE_ADDR..mem.arena_end())
        .step_by(8)
        .map(|a| mem.read_f64(a).to_bits())
        .collect()
}

fn devices() -> [(&'static str, DeviceSpec); 2] {
    [
        ("test_small", DeviceSpec::test_small()),
        ("volume-matched", Experiment::new(L, SEED).device),
    ]
}

#[test]
fn split_launches_equal_the_serial_loop_on_every_table1_config() {
    let checked = check_every_table1_config(&devices());
    assert_eq!(checked, 2 * paper::TABLE1.len());
}

/// A `test_small` whose L1 is one set of four ways: every repeat of more
/// than four lines is applied as plain ops instead of being elided.
#[test]
fn split_launches_equal_the_serial_loop_with_a_one_set_l1() {
    let device = DeviceSpec {
        l1_bytes: 512,
        l1_ways: 4,
        ..DeviceSpec::test_small()
    };
    let checked = check_every_table1_config(&[("one-set L1", device)]);
    assert_eq!(checked, paper::TABLE1.len());
}

/// Launch every Table I configuration on each device, cold and then
/// three times on one state, against the serial loop; returns the
/// (configuration, device) pairs checked.
fn check_every_table1_config(devices: &[(&str, DeviceSpec)]) -> usize {
    let lattice = Lattice::hypercubic(L);
    let mut checked = 0;
    for col in &paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = *cfg
            .legal_local_sizes(lattice.half_volume() as u64)
            .last()
            .unwrap_or_else(|| panic!("{}: no legal local size at L = {L}", cfg.label()));
        for (name, device) in devices {
            let what = format!("{} on {name}", cfg.label());
            // The same problem twice, one per launch loop.
            let mut problems = [0, 1].map(|_| DslashProblem::<Z>::random(L, SEED));
            let range = problems[0].launch_range(cfg, ls);
            let launcher = Launcher::new(device);
            let (mut state, mut serial) = (DeviceState::new(device), Serial::new(device));
            for (i, tier) in [
                None,
                Some(Replay::Full),
                Some(Replay::Cache),
                Some(Replay::Memo),
            ]
            .into_iter()
            .enumerate()
            {
                let source = QuarkField::random(&lattice, SEED + 2 + i as u64);
                let [split, one] = problems.each_mut().map(|p| {
                    p.set_source(&source);
                    p.zero_output();
                    let kernel = p.make_kernel(cfg, range.num_groups());
                    (kernel, p.memory())
                });
                // A cold launch first, then three on one state.
                let (got, want) = match tier {
                    None => (
                        launcher.launch(split.0.as_ref(), range, split.1),
                        Serial::new(device).launch(one.0.as_ref(), range, one.1),
                    ),
                    Some(_) => (
                        launcher.launch_with_state(split.0.as_ref(), range, split.1, &mut state),
                        serial.launch(one.0.as_ref(), range, one.1),
                    ),
                };
                let what = format!("{what}, launch {i}");
                assert_eq!(modelled(&got), modelled(&want), "{what}");
                assert!(arena(split.1) == arena(one.1), "{what}: memory differs");
                let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                if let Some(tier) = tier {
                    assert_eq!(got.replay, tier, "{what}");
                }
                let ops = got.l1_stats.tag_requests;
                assert!(ops > ONE_BATCH, "{what}: {ops} ops start no cache thread");
            }
            checked += 1;
        }
    }
    checked
}

const GROUPS: u64 = 32;
const LOCAL: u32 = 64;
const LOADS: u64 = 7;
/// The group that diverges or moves with the flag: the launch has sent
/// several batches before it.
const LATE_GROUP: u64 = 20;
const RANGE: NdRange = NdRange {
    global: GROUPS * LOCAL as u64,
    local: LOCAL,
};

/// Flag values of a [`Strided`] launch: lane 5 of warp 1 of `LATE_GROUP`
/// counts flops, without declaring a path, in place of the first half
/// of load `LOADS / 2` (right after a repeat), or of its second half
/// (right after a plain load): a `LaneDivergenceMismatch`.
const DIVERGE_AFTER_REPEAT: u32 = 1;
const DIVERGE_AFTER_LOAD: u32 = 2;
/// The last group loads other sectors: a launch that matches the record
/// up to that group, and leaves the caches as no other launch does.
const MOVE: u32 = 3;

/// Each lane loads the flag and its SM's line (group `g` runs on SM
/// `g % 4` of `test_small`), then `LOADS` complex numbers a line apart
/// from its neighbours', each as two 8-byte halves (the second a repeat
/// of the first, which fits the L1), stores their sum and loads its SM's
/// line and the flag again.  So every warp ends as the next begins, and
/// each group finds its SM's line in the L1 only on the right SM.  With
/// `panic_group`, lane 3 of that group panics.
///
/// A warp sends 250 commands: its SM, two per single-line load, 33 per
/// first half and one per second, and three for the store; and its
/// repeats stand for 224 more ops.  With batches cut at 4,096 commands
/// and repeat ops, three of a launch's seven cuts fall inside a first
/// half's runs, the first in the 18th warp.
struct Strided {
    src: u64,
    out: u64,
    flag: u64,
    panic_group: Option<u64>,
}

impl Kernel for Strided {
    fn name(&self) -> &str {
        "strided"
    }
    fn resources(&self, _local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: 24,
            local_mem_bytes_per_group: 0,
        }
    }
    fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
        let (i, group) = (lane.global_id(), lane.group_id());
        if self.panic_group == Some(group) && lane.local_id() == 3 {
            panic!("lane panic in group {group}");
        }
        let sm_line = self.flag + 128 * (1 + group % 4);
        let flag = lane.ld_global_u32(self.flag);
        lane.ld_global_u32(sm_line);
        let odd = group == LATE_GROUP && lane.local_id() == 32 + 5;
        let moved = if group == GROUPS - 1 && flag == MOVE {
            64
        } else {
            0
        };
        let mut sum = 0.0;
        for k in 0..LOADS {
            let addr = self.src + (k * RANGE.global + i) * 128 + moved;
            match flag {
                DIVERGE_AFTER_REPEAT if odd && k == LOADS / 2 => lane.flops(1),
                DIVERGE_AFTER_LOAD if odd && k == LOADS / 2 => {
                    sum += lane.ld_global_f64(addr);
                    lane.flops(1);
                }
                _ => {
                    let (re, im) = lane.ld_global_c64(addr);
                    sum += re + im;
                }
            }
        }
        lane.st_global_f64(self.out + i * 8, sum);
        lane.ld_global_u32(sm_line);
        lane.ld_global_u32(self.flag);
    }
}

/// A kernel with its memory, the address of the flag it reads and the
/// buffer it writes.
struct Case<K> {
    mem: DeviceMemory,
    kernel: K,
    flag: u64,
    out: Buffer,
}

/// A [`Strided`] kernel and its memory.
fn strided() -> Case<Strided> {
    let mut mem = DeviceMemory::new();
    let src = mem.alloc(LOADS * RANGE.global * 128, "src");
    let out = mem.alloc(RANGE.global * 8, "out");
    // The flag's line, then one line per SM.
    let flag = mem.alloc(5 * 128, "flag");
    for j in 0..LOADS * RANGE.global * 16 {
        mem.write_f64(src.addr(j * 8), j as f64 + 0.5);
    }
    mem.zero(&out);
    mem.zero(&flag);
    let kernel = Strided {
        src: src.base(),
        out: out.base(),
        flag: flag.base(),
        panic_group: None,
    };
    Case {
        mem,
        flag: kernel.flag,
        kernel,
        out,
    }
}

/// Launch `case`'s kernel over `range` with each flag in turn, the first
/// cold and the rest on one state, against the serial loop: equal reports
/// or errors, and equal memory.  A flag in `diverging` must fail with a
/// `LaneDivergenceMismatch`.  Returns each launch's tier, `None` for an
/// error.
fn like_the_serial_loop<K: Kernel>(
    case: fn() -> Case<K>,
    range: NdRange,
    flags: &[u32],
    diverging: &[u32],
) -> Vec<Option<Replay>> {
    let device = DeviceSpec::test_small();
    let [split, one] = [0, 1].map(|_| case());
    let launcher = Launcher::new(&device);
    let (mut state, mut serial) = (DeviceState::new(&device), Serial::new(&device));
    let mut tiers = Vec::new();
    for (i, &flag) in flags.iter().enumerate() {
        for case in [&split, &one] {
            case.mem.write_u32(case.flag, flag);
            case.mem.zero(&case.out);
        }
        let (got, want) = if i == 0 {
            (
                launcher.launch(&split.kernel, range, &split.mem),
                Serial::new(&device).launch(&one.kernel, range, &one.mem),
            )
        } else {
            (
                launcher.launch_with_state(&split.kernel, range, &split.mem, &mut state),
                serial.launch(&one.kernel, range, &one.mem),
            )
        };
        assert_eq!(modelled(&got), modelled(&want), "launch {i}");
        // No lane past a failing warp ran.
        assert!(
            arena(&split.mem) == arena(&one.mem),
            "launch {i}: memory differs"
        );
        if diverging.contains(&flag) {
            assert!(
                matches!(got, Err(SimError::LaneDivergenceMismatch { .. })),
                "launch {i}: {got:?}"
            );
        }
        if let Ok(r) = &got {
            let ops = r.l1_stats.tag_requests;
            assert!(
                ops > ONE_BATCH,
                "launch {i}: {ops} ops start no cache thread"
            );
        }
        tiers.push(got.map(|r| r.replay).ok());
    }
    tiers
}

fn strided_like_the_serial_loop(flags: &[u32]) -> Vec<Option<Replay>> {
    let diverging = [DIVERGE_AFTER_REPEAT, DIVERGE_AFTER_LOAD];
    like_the_serial_loop(strided, RANGE, flags, &diverging)
}

#[test]
fn an_instructions_runs_straddle_a_batch_like_the_serial_loop() {
    use Replay::{Cache, Full, Memo};
    let tiers = strided_like_the_serial_loop(&[0, 0, 0, 0]);
    assert_eq!(tiers, [Some(Full), Some(Full), Some(Cache), Some(Memo)]);
}

#[test]
fn a_launch_that_stops_matching_mid_launch_records_like_the_serial_loop() {
    use Replay::{Cache, Full, Memo};
    // The third launch drives the record's first groups on the cache
    // tier, then truncates it and records the last group anew; the sixth
    // defers them on the memo tier and catches up on the cache thread.
    // The launch after each replays the whole record.
    let tiers = strided_like_the_serial_loop(&[0, 0, MOVE, MOVE, MOVE, 0, 0, 0]);
    let want = [Full, Full, Full, Cache, Memo, Full, Cache, Memo];
    assert_eq!(tiers, want.map(Some));
}

#[test]
fn an_undeclared_divergence_mid_launch_fails_like_the_serial_loop() {
    use Replay::{Cache, Full, Memo};
    // The divergence fails a cold launch, then a launch on each tier of
    // the memo, right after a repeat and right after a plain load; a
    // failed launch leaves no memo.
    let (after_repeat, after_load) = (DIVERGE_AFTER_REPEAT, DIVERGE_AFTER_LOAD);
    let flags = [
        after_repeat,
        0,
        after_load,
        0,
        0,
        0,
        after_repeat,
        0,
        0,
        0,
        after_load,
        0,
    ];
    let tiers = strided_like_the_serial_loop(&flags);
    let want = [
        None,
        Some(Full),
        None,
        Some(Full),
        Some(Cache),
        Some(Memo),
        None,
        Some(Full),
        Some(Cache),
        Some(Memo),
        None,
        Some(Full),
    ];
    assert_eq!(tiers, want);
}

#[test]
fn a_panicking_lane_panics_on_the_caller_and_ends_the_cache_thread() {
    for warm in [false, true] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let device = DeviceSpec::test_small();
            let Case {
                mem, kernel: mut k, ..
            } = strided();
            let launcher = Launcher::new(&device);
            let mut state = DeviceState::new(&device);
            if warm {
                launcher
                    .launch_with_state(&k, RANGE, &mem, &mut state)
                    .unwrap();
            }
            k.panic_group = Some(LATE_GROUP);
            let launched = std::panic::catch_unwind(AssertUnwindSafe(|| {
                launcher.launch_with_state(&k, RANGE, &mem, &mut state)
            }));
            let message = launched.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(_) => "a panic without a message".to_string(),
            });
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("warm: {warm}: the launch did not return: {e}"));
        assert_eq!(
            message.as_deref(),
            Some("lane panic in group 20"),
            "warm: {warm}"
        );
    }
}

/// A [`Staged`] launch: twice as many groups as a [`Strided`] one, so
/// that its cache thread runs.
const STAGED: NdRange = NdRange {
    global: 2 * GROUPS * LOCAL as u64,
    local: LOCAL,
};
/// Flag values of a [`Staged`] launch.  `RESHAPE`: phase 1 of
/// `LATE_GROUP` reads local memory rotated by a slot, so that a launch
/// stops matching the record in a warp that sends no cache command, and
/// the groups after it repeat the groups before; the last group loads
/// other sectors, so that the launch leaves the caches as no other launch
/// does.  `DIVERGE_AFTER_TABLE`:
/// lane 5 of that group's phase-2 warp 1 counts flops in place of its
/// load, without declaring a path, right after a warp that repeats the
/// warp of its slot in the group before.
const RESHAPE: u32 = 4;
const DIVERGE_AFTER_TABLE: u32 = 5;

/// Four phases, like 4LP's.  Phase 0 gathers each lane's slot of a table
/// that every group shares into local memory: the same lines in every
/// group, so its warps repeat from group to group and send cache
/// commands.  Phases 1 and 2 only move local memory, phase 2 on two
/// declared paths, the same way in every group: each of their warps
/// repeats the warp of its slot in the group before and sends no cache
/// command.  Phase 3 adds each lane's own input, a line apart from its
/// neighbours', and stores the sum.  Table slot 0 holds the flag, which
/// phases 1 to 3 read from local memory.
struct Staged {
    table: u64,
    src: u64,
    out: u64,
    flag: u64,
}

impl Kernel for Staged {
    fn name(&self) -> &str {
        "staged"
    }
    fn num_phases(&self) -> usize {
        4
    }
    fn resources(&self, local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: 24,
            local_mem_bytes_per_group: 2 * local_size * 8,
        }
    }
    fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
        let (i, lid, ls) = (lane.global_id(), lane.local_id(), lane.local_size());
        let late = lane.group_id() == LATE_GROUP;
        match phase {
            0 => {
                let t = lane.ld_global_f64(self.table + lid as u64 * 8);
                lane.st_local_f64(lid * 8, t);
            }
            1 => {
                let flag = lane.ld_local_f64(0).to_bits() as u32;
                let from = if late && flag == RESHAPE {
                    (lid + 1) % ls
                } else {
                    lid
                };
                let v = lane.ld_local_f64(from * 8);
                lane.flops(1);
                lane.st_local_f64((ls + lid) * 8, 2.0 * v);
            }
            2 => {
                let flag = lane.ld_local_f64(0).to_bits() as u32;
                lane.set_path(lid % 2);
                let v = if late && flag == DIVERGE_AFTER_TABLE && lid == 32 + 5 {
                    lane.flops(1);
                    0.0
                } else {
                    lane.ld_local_f64((ls + lid) * 8)
                };
                if lid % 2 == 1 {
                    lane.flops(1);
                }
                lane.st_local_f64((ls + (lid ^ 1)) * 8, v + 1.0);
            }
            _ => {
                let flag = lane.ld_local_f64(0).to_bits() as u32;
                let last = lane.group_id() == STAGED.num_groups() - 1;
                let moved = if last && flag == RESHAPE { 64 } else { 0 };
                let v = lane.ld_local_f64((ls + lid) * 8);
                let x = lane.ld_global_f64(self.src + i * 128 + moved);
                lane.flops(1);
                lane.st_global_f64(self.out + i * 8, v + x);
            }
        }
    }
}

/// A [`Staged`] kernel and its memory.
fn staged() -> Case<Staged> {
    let mut mem = DeviceMemory::new();
    let table = mem.alloc(LOCAL as u64 * 8, "table");
    let src = mem.alloc(STAGED.global * 128, "src");
    let out = mem.alloc(STAGED.global * 8, "out");
    for j in 0..LOCAL as u64 {
        mem.write_f64(table.addr(j * 8), j as f64 * 0.25);
    }
    for j in 0..STAGED.global * 16 {
        mem.write_f64(src.addr(j * 8), j as f64 + 0.5);
    }
    mem.zero(&out);
    let kernel = Staged {
        table: table.base(),
        src: src.base(),
        out: out.base(),
        flag: table.base(),
    };
    Case {
        mem,
        flag: kernel.flag,
        kernel,
        out,
    }
}

fn staged_like_the_serial_loop(flags: &[u32]) -> Vec<Option<Replay>> {
    like_the_serial_loop(staged, STAGED, flags, &[DIVERGE_AFTER_TABLE])
}

#[test]
fn repeated_cache_free_warps_replay_like_the_serial_loop_on_every_tier() {
    use Replay::{Cache, Full, Memo};
    let tiers = staged_like_the_serial_loop(&[0, 0, 0, 0]);
    assert_eq!(tiers, [Some(Full), Some(Full), Some(Cache), Some(Memo)]);
}

#[test]
fn a_launch_that_stops_matching_in_a_cache_free_warp_records_like_the_serial_loop() {
    use Replay::{Cache, Full, Memo};
    // The third launch drives the record, table-answered warps included,
    // up to phase 1 of the late group on the cache tier, then models that
    // warp and the rest of the group, and answers the groups after from
    // its table again.  The sixth does so on the memo tier.
    let tiers = staged_like_the_serial_loop(&[0, 0, RESHAPE, RESHAPE, RESHAPE, 0, 0, 0]);
    let want = [Full, Full, Full, Cache, Memo, Full, Cache, Memo];
    assert_eq!(tiers, want.map(Some));
}

#[test]
fn an_undeclared_divergence_right_after_a_table_answer_fails_like_the_serial_loop() {
    use Replay::{Cache, Full, Memo};
    // The second launch, the state's first, records from the first warp
    // on, so the warp before the failing one is answered from its table;
    // the later failures come on the cache and the memo tier.
    let diverge = DIVERGE_AFTER_TABLE;
    let flags = [0, diverge, 0, diverge, 0, 0, diverge, 0, 0, 0, diverge, 0];
    let tiers = staged_like_the_serial_loop(&flags);
    let want = [
        Some(Full),
        None,
        Some(Full),
        None,
        Some(Full),
        Some(Cache),
        None,
        Some(Full),
        Some(Cache),
        Some(Memo),
        None,
        Some(Full),
    ];
    assert_eq!(tiers, want);
}
