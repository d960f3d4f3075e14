//! Differential proof of the launch memo on every Table I configuration:
//! a warm launch that replays only its recorded cache ops, or nothing,
//! must report exactly what a full replay reports, and write exactly the
//! same output.
//!
//! Each configuration × tunable layout runs at L = 4, on `test_small`
//! and on the volume-matched A100, as five launches on one
//! `DeviceState` with a fresh source before each.  The oracle repeats
//! the sequence with an access-free launch before each Dslash launch:
//! it touches no cache line but replaces the state's one-slot memo, so
//! every oracle launch replays in full.  Every report field but
//! `host_wall_us` and `replay`, and every output, must be bitwise
//! equal.  The second launch must replay only cache ops and every later
//! one nothing.
//!
//! A last test counts, from the lanes' streams of every Table I
//! configuration at L = 8, the warps a recording launch answers from its
//! per-launch table.

use gpu_sim::sharedmem::LocalMem;
use gpu_sim::{
    DeviceMemory, DeviceSpec, Event, Kernel, KernelResources, Lane, LaunchReport, Launcher,
    NdRange, Replay,
};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::validate::bitwise_equal;
use milc_dslash::{DslashProblem, KernelConfig, Strategy};
use milc_lattice::{ColorVector, GaugeField, Lattice, Parity, QuarkField};

const L: usize = 4;
const SEED: u64 = 2024;
const LAUNCHES: u64 = 5;

/// Records no memory event.  Launched at its own range, it leaves every
/// cache line alone but replaces a state's memo.
struct Idle;

impl Kernel for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn resources(&self, _local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: 16,
            local_mem_bytes_per_group: 0,
        }
    }
    fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
        lane.flops(1);
    }
}

/// A report with the two fields the memo may change blanked, as text:
/// `{:?}` prints every float exactly, so equal text means bitwise-equal
/// reports.
fn modelled(r: &LaunchReport) -> String {
    let mut r = r.clone();
    r.host_wall_us = 0.0;
    r.replay = Replay::Full;
    format!("{r:?}")
}

/// `LAUNCHES` launches of `cfg` on one state, each on a new source, with
/// (`oracle`) or without an [`Idle`] launch before each.
fn run(
    cfg: KernelConfig,
    device: &DeviceSpec,
    oracle: bool,
) -> Vec<(LaunchReport, Vec<ColorVector<Z>>)> {
    let lattice = Lattice::hypercubic(L);
    let gauge = GaugeField::<Z>::random(&lattice, SEED);
    let mut problem =
        DslashProblem::from_fields(gauge, QuarkField::random(&lattice, SEED + 1), Parity::Even);
    let ls = *cfg
        .legal_local_sizes(lattice.half_volume() as u64)
        .last()
        .unwrap_or_else(|| panic!("{}: no legal local size at L = {L}", cfg.label()));
    let range = problem.launch_range(cfg, ls);
    let idle_range = NdRange::linear(32, 32);
    assert_ne!(range, idle_range);
    let launcher = Launcher::new(device);
    let mut state = gpu_sim::DeviceState::new(device);
    (0..LAUNCHES)
        .map(|i| {
            problem.set_source(&QuarkField::random(&lattice, SEED + 2 + i));
            problem.zero_output();
            if oracle {
                let idle = launcher
                    .launch_with_state(&Idle, idle_range, problem.memory(), &mut state)
                    .unwrap();
                assert_eq!(idle.l1_stats.tag_requests + idle.l2_stats.tag_requests, 0);
            }
            let kernel = problem.make_kernel(cfg, range.num_groups());
            let report = launcher
                .launch_with_state(kernel.as_ref(), range, problem.memory(), &mut state)
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
            (report, problem.read_output())
        })
        .collect()
}

#[test]
fn memo_hits_equal_full_replay_on_every_table1_config() {
    let devices = [
        ("test_small", DeviceSpec::test_small()),
        ("volume-matched", Experiment::new(L, SEED).device),
    ];
    let mut checked = 0;
    for col in &paper::TABLE1 {
        let base = KernelConfig::new(col.strategy, col.order);
        for layout in base.tunable_layouts() {
            let cfg = base.with_layout(layout);
            for (name, device) in &devices {
                let what = format!("{} on {name}", cfg.label());
                let memo = run(cfg, device, false);
                let oracle = run(cfg, device, true);
                for (i, ((m, m_out), (o, o_out))) in memo.iter().zip(&oracle).enumerate() {
                    let tier = [Replay::Full, Replay::Cache][..]
                        .get(i)
                        .unwrap_or(&Replay::Memo);
                    assert_eq!(o.replay, Replay::Full, "{what}: oracle launch {i}");
                    assert_eq!(m.replay, *tier, "{what}: launch {i} replay");
                    assert_eq!(modelled(m), modelled(o), "{what}: launch {i} report");
                    assert!(bitwise_equal(m_out, o_out), "{what}: launch {i} output");
                }
                checked += 1;
            }
        }
    }
    // 4 global-memory configs + 8 local-memory configs × 3 layouts, on
    // two devices.
    assert_eq!(checked, 2 * (4 + 8 * 3));
}

/// Warps of a launch that records from its first warp that the engine
/// answers from its per-launch table instead of modelling: the warps with
/// no global or atomic access, so no cache command, whose lanes' streams
/// equal those of the last such warp of their slot (phase and warp index
/// in the group).  Runs the lanes in launch order, as the engine does.
fn table_answers(kernel: &dyn Kernel, range: NdRange, mem: &DeviceMemory, warp: u32) -> u64 {
    let warps = range.local.div_ceil(warp);
    let mut streams: Vec<Vec<Event>> = vec![Vec::new(); warp as usize];
    let mut local = LocalMem::new(kernel.resources(range.local).local_mem_bytes_per_group);
    let mut table = vec![None; kernel.num_phases() * warps as usize];
    let mut answers = 0;
    for group in 0..range.num_groups() {
        local.reset();
        for phase in 0..kernel.num_phases() {
            for w in 0..warps {
                streams.iter_mut().for_each(Vec::clear);
                for lane in 0..(range.local - w * warp).min(warp) {
                    let local_id = w * warp + lane;
                    let global_id = group * range.local as u64 + local_id as u64;
                    let stream = &mut streams[lane as usize];
                    let mut ctx = Lane::new(
                        global_id,
                        local_id,
                        group,
                        range.local,
                        mem,
                        &mut local,
                        stream,
                    );
                    kernel.run_phase(phase, &mut ctx);
                }
                let cache_free = streams.iter().flatten().all(|e| {
                    !matches!(
                        e,
                        Event::GlobalLoad { .. }
                            | Event::GlobalStore { .. }
                            | Event::AtomicRmw { .. }
                    )
                });
                let slot = &mut table[phase * warps as usize + w as usize];
                if cache_free && slot.as_ref() == Some(&streams) {
                    answers += 1;
                } else if cache_free {
                    *slot = Some(streams.clone());
                }
            }
        }
    }
    answers
}

/// Each 4LP recording launch of Table I at L = 8 answers 4,064 warps from
/// its table (16,256 per pass of the four), and no other configuration
/// answers any.  Of a 4LP group's 72 warps, the 24 of the first collapse
/// and the 8 of the second that store no result move only local memory,
/// alike in all 128 groups: 127 · 32 = 4,064.
#[test]
fn table1_at_l8_answers_only_4lps_repeated_cache_free_warps_from_the_table() {
    const L8: usize = 8;
    let device = Experiment::new(L8, SEED).device;
    let problem = DslashProblem::<Z>::random(L8, SEED);
    let mut pass = 0;
    for col in &paper::TABLE1 {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let range = problem.launch_range(cfg, paper::table1_local_size(col.strategy));
        let kernel = problem.make_kernel(cfg, range.num_groups());
        let answers = table_answers(kernel.as_ref(), range, problem.memory(), device.warp_size);
        let four_lp = matches!(col.strategy, Strategy::FourLp1 | Strategy::FourLp2);
        assert_eq!(answers, if four_lp { 4064 } else { 0 }, "{}", cfg.label());
        pass += answers;
    }
    assert_eq!(pass, 16_256);
}
