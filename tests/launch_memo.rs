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

use gpu_sim::{DeviceSpec, Kernel, KernelResources, Lane, LaunchReport, Launcher, NdRange, Replay};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex as Z;
use milc_dslash::validate::bitwise_equal;
use milc_dslash::{DslashProblem, KernelConfig};
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
