//! CG on the *simulated device* at an autotuned local size — the
//! production shape of the paper's kernel: QUDA autotunes each kernel's
//! launch parameters once, caches the winner on disk, and every solve
//! afterwards launches at the tuned configuration without re-sweeping.
//!
//! The example runs two solves through one persistent [`Tuner`]: the
//! first pays for the Fig. 6-style sweep (a cache miss), the second
//! reuses the cached winner (a hit — zero sweep launches), exactly the
//! cold/warm behaviour the `tune` bin gates in CI.
//!
//! Run with: `cargo run --release --example tuned_solver [L] [mass]`

use gpu_sim::DeviceSpec;
use milc_complex::DoubleComplex;
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
        "Tuned CG solve of (m^2 - D^2) x = b on a {l}^4 lattice, m = {mass}, device `{}`",
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

    // One tuner across both solves: the first misses and sweeps, the
    // second hits.  (Use `Tuner::with_cache_file(Tuner::default_path())`
    // to persist winners across *processes* the way QUDA does.)
    let mut tuner = Tuner::in_memory();

    for pass in ["cold", "warm"] {
        let t0 = std::time::Instant::now();
        let mut op = DeviceNormalOperator::new_tuned(
            &gauge,
            mass,
            recommended_config(),
            &device,
            &mut tuner,
        )
        .expect("autotuning found a winner");
        let sol = solve_with(&mut op, &b, 1e-10, 10_000);
        let dt = t0.elapsed();
        println!("\n== {pass} solve ==");
        println!(
            "tuned local size  : {} ({})",
            op.local_size(),
            if op.tuned_from_cache() {
                "cache hit, zero sweep launches"
            } else {
                "cache miss, swept all candidates"
            }
        );
        println!("iterations        : {}", sol.iterations);
        println!("Dslash launches   : {}", op.applications());
        println!("relative residual : {:.3e}", sol.relative_residual);
        println!("wall time         : {:.2} s", dt.as_secs_f64());
        assert!(sol.converged, "CG failed to converge");
    }
    println!(
        "\ntuner totals      : {} hit(s), {} miss(es)",
        tuner.hits(),
        tuner.misses()
    );
    assert_eq!(tuner.hits(), 1, "warm solve must reuse the cached winner");
}
