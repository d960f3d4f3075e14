//! A CG solve on the simulated device with the tracing subsystem
//! switched on: installs an ambient [`Tracer`]/[`Metrics`] pair,
//! solves (m^2 - D^2) x = b at an autotuned local size, writes a
//! Perfetto-loadable Chrome trace, and prints the five hottest spans
//! by *self* time (time in the span minus time in its children) — the
//! timeline's answer to "where did the solve actually go?".
//!
//! Run with: `cargo run --release --example traced_solve [L] [mass]`
//! Open the written trace at <https://ui.perfetto.dev> (or
//! `chrome://tracing`).

use gpu_sim::DeviceSpec;
use milc_complex::DoubleComplex;
use milc_dslash::obs;
use milc_dslash::recommended_config;
use milc_dslash::solver::{solve_with, DeviceNormalOperator};
use milc_dslash::tune::Tuner;
use milc_lattice::{ColorVector, GaugeField, Lattice};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let l: usize = args
        .get(1)
        .map(|a| a.parse().expect("lattice size"))
        .unwrap_or(4);
    let mass: f64 = args
        .get(2)
        .map(|a| a.parse().expect("quark mass"))
        .unwrap_or(0.5);

    let lattice = Lattice::hypercubic(l);
    let device = DeviceSpec::test_small();
    println!(
        "Traced CG solve of (m^2 - D^2) x = b on a {l}^4 lattice, m = {mass}, device `{}`",
        device.name
    );
    let gauge = GaugeField::<DoubleComplex>::random(&lattice, 2718);
    let mut rng = StdRng::seed_from_u64(314);
    let b: Vec<ColorVector<DoubleComplex>> = (0..lattice.half_volume())
        .map(|_| {
            ColorVector::new(
                DoubleComplex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
            )
        })
        .collect();

    // Everything below the scope guards records into `tracer`/`metrics`;
    // drop the guards and the same code runs untraced at zero cost.
    let tracer = obs::Tracer::new();
    let metrics = obs::Metrics::new();
    let (sol, op) = {
        let _t = obs::set_tracer(&tracer);
        let _m = obs::set_metrics(&metrics);
        let root = obs::span_on("solve", "traced_solve");
        root.attr("lattice_l", l as u64);
        root.attr("mass", mass);
        let mut tuner = Tuner::in_memory();
        let mut op = DeviceNormalOperator::new_tuned(
            &gauge,
            mass,
            recommended_config(),
            &device,
            &mut tuner,
        )
        .expect("autotuning found a winner");
        (solve_with(&mut op, &b, 1e-10, 10_000), op)
    };
    assert!(sol.converged, "CG failed to converge");
    println!(
        "converged in {} iterations (residual {:.3e}, {} Dslash launches, local size {})",
        sol.iterations,
        sol.relative_residual,
        op.applications(),
        op.local_size()
    );

    let trace = tracer.snapshot();
    // Warm launches at the cache fixed point reuse the steady-state memo
    // instead of replaying their warps.
    let launches: Vec<_> = trace.spans.iter().filter(|s| s.name == "dslash").collect();
    let hits = launches
        .iter()
        .filter(|s| s.attr("replay") == Some(&obs::AttrValue::from("memo")))
        .count();
    println!(
        "memo hits: {hits} of {} Dslash launches skipped warp replay",
        launches.len()
    );
    assert!(hits > 0, "no warm launch reused the steady-state memo");

    let path = "target/traced_solve.trace.json";
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(path, obs::write_chrome(&trace)).expect("write trace");
    println!(
        "\ntrace: {} spans on {} tracks -> {path}",
        trace.spans.len(),
        trace.tracks().len()
    );

    println!("\ntop 5 spans by self time:");
    println!("{:>10}  span", "self µs");
    for (label, self_us) in trace.self_times().into_iter().take(5) {
        println!("{self_us:>10.1}  {label}");
    }

    println!(
        "\nmetrics: cg_residual = {:.3e}, launches recorded in {} series",
        metrics.gauge_value("cg_residual", &[]).unwrap_or(f64::NAN),
        metrics.series_count()
    );
}
