//! Fits the timing-model weights against the paper's Table I durations
//! and prints them as Rust code for `gpu_sim::timing::TimingModel::
//! calibrated()`.
//!
//! Usage: `cargo run -p milc-bench --bin calibrate --release [L]`
//! (durations are scale-invariant on the volume-matched device, so the
//! default L = 16 fit is valid at full scale; see `DESIGN.md`).

use gpu_sim::timing::{fit, rel_error, TimingModel};
use milc_bench::harness::quda_calibration_samples;
use milc_bench::{calibration_samples, paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::DslashProblem;

fn main() {
    let l = milc_bench::lattice_arg(16, "calibrate [L]");
    let exp = Experiment::new(l, 2024);
    eprintln!("calibration run: L = {l} on {}", exp.device.name);
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);

    eprintln!("measuring 12 Table I configurations ...");
    let mut samples = calibration_samples(&exp, &mut problem);
    eprintln!("measuring 3 QUDA recon configurations ...");
    let quda = quda_calibration_samples(&exp);
    // The recon-18 run is Fig. 6's reference line; weight it like three
    // samples so the fit cannot trade its accuracy away.
    samples.push(quda[0].clone());
    samples.push(quda[0].clone());
    samples.extend(quda);

    let current = TimingModel::calibrated();
    let fitted = fit(&samples, &exp.device);
    println!(
        "current weights: rms rel err {:.3}",
        (rel_error(&current, &samples, &exp.device) / samples.len() as f64).sqrt()
    );
    println!(
        "fitted  weights: rms rel err {:.3}",
        (rel_error(&fitted, &samples, &exp.device) / samples.len() as f64).sqrt()
    );

    println!("\nper-config durations (paper vs current vs fitted):");
    let labels: Vec<String> = paper::TABLE1
        .iter()
        .map(|c| format!("{:?} {:?}", c.strategy, c.order))
        .chain([
            "QUDA r18 (x3 weight)".into(),
            "QUDA r18 (dup)".into(),
            "QUDA r18".into(),
            "QUDA r12".into(),
            "QUDA r9".into(),
        ])
        .collect();
    for (label, s) in labels.iter().zip(&samples) {
        let cur = current.duration_us(&s.counters, &s.occupancy, &exp.device);
        let fit_t = fitted.duration_us(&s.counters, &s.occupancy, &exp.device);
        println!(
            "{label:24}  paper {:8.1}  current {:8.1}  fitted {:8.1}",
            s.target_us, cur, fit_t
        );
    }

    let w = fitted.weights;
    println!("\n// paste into gpu_sim::timing::TimingModel::calibrated():");
    println!("Weights {{");
    println!("    l1_tag: {:.4},", w.l1_tag);
    println!("    l1_sector: {:.4},", w.l1_sector);
    println!("    l2_sector: {:.4},", w.l2_sector);
    println!("    dram_sector: {:.4},", w.dram_sector);
    println!("    shared_wavefront: {:.4},", w.shared_wavefront);
    println!("    atomic_pass: {:.4},", w.atomic_pass);
    println!("    issue: {:.4},", w.issue);
    println!("    barrier: {:.4},", w.barrier);
    println!("    occ_alpha: {:.2},", w.occ_alpha);
    println!("}}");
}
