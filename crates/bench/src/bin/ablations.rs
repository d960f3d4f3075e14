//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **register pressure vs occupancy** — sweep the per-item register
//!    estimate of 3LP-1 and watch the occupancy cliffs move the
//!    duration (the mechanism behind 1LP's 50%-occupancy penalty and
//!    the `-maxrregcount` study);
//! 2. **L2 capacity** — sweep the device's L2 size around the
//!    volume-matched value (the memory-boundedness argument of
//!    Section V);
//! 3. **spill traffic** — sweep spills/item 0..4 (the knob the CUDA
//!    register cap turns);
//! 4. **local size** — the full legal sweep for 3LP-1 (Section IV-D9).
//!
//! Usage: `cargo run -p milc-bench --bin ablations --release [L]`
//! (default L = 8 — ablations need relative numbers only).

use gpu_sim::QueueMode;
use milc_bench::Experiment;
use milc_complex::DoubleComplex;
use milc_dslash::{run_config_warm, DslashProblem, IndexOrder, KernelConfig, Strategy};

fn main() {
    let l = milc_bench::lattice_arg(8, "ablations [L]");
    let exp = Experiment::new(l, 77);
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    let base = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    let ls = 96;

    println!("== ablation 1: registers/item vs occupancy (3LP-1 @ {ls}) ==");
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "regs", "occ %", "duration µs", "GF/s equiv"
    );
    for regs in (24..=72).step_by(8) {
        let cfg = KernelConfig {
            registers_override: Some(regs),
            ..base
        };
        let out = run_config_warm(&mut problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
            .expect("run");
        println!(
            "{:>6} {:>10.1} {:>12.1} {:>12.1}",
            regs,
            100.0 * out.report.occupancy.achieved,
            out.report.duration_us,
            out.gflops * exp.a100_equiv_factor()
        );
    }

    println!("\n== ablation 2: L2 capacity (3LP-1 @ {ls}) ==");
    println!(
        "{:>10} {:>10} {:>12}",
        "L2 (MB)", "L2 miss %", "duration µs"
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut device = exp.device.clone();
        device.l2_bytes = ((device.l2_bytes as f64 * factor) as u64 / 128).max(16) * 128;
        let out =
            run_config_warm(&mut problem, base, ls, &device, QueueMode::OutOfOrder).expect("run");
        println!(
            "{:>10.2} {:>10.1} {:>12.1}",
            device.l2_bytes as f64 / 1e6,
            out.report.counters.l2_miss_rate_pct(),
            out.report.duration_us
        );
    }

    println!("\n== ablation 3: spills/item (3LP-1 @ {ls}) ==");
    println!("{:>7} {:>12} {:>12}", "spills", "duration µs", "Δ vs 0 (%)");
    let mut base_us = 0.0;
    for spills in 0..=4u32 {
        let cfg = KernelConfig {
            spills_per_item: spills,
            ..base
        };
        let out = run_config_warm(&mut problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
            .expect("run");
        if spills == 0 {
            base_us = out.report.duration_us;
        }
        println!(
            "{:>7} {:>12.1} {:>+12.1}",
            spills,
            out.report.duration_us,
            100.0 * (out.report.duration_us / base_us - 1.0)
        );
    }

    println!("\n== ablation 4: local size (3LP-1 k-major, Section IV-D9) ==");
    println!(
        "{:>7} {:>10} {:>12} {:>12}",
        "local", "occ %", "duration µs", "GF/s equiv"
    );
    let hv = problem.lattice().half_volume() as u64;
    for ls in base.legal_local_sizes(hv) {
        let out = run_config_warm(&mut problem, base, ls, &exp.device, QueueMode::OutOfOrder)
            .expect("run");
        println!(
            "{:>7} {:>10.1} {:>12.1} {:>12.1}",
            ls,
            100.0 * out.report.occupancy.achieved,
            out.report.duration_us,
            out.gflops * exp.a100_equiv_factor()
        );
    }
}
