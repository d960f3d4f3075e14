//! Conjugate-gradient solve of the staggered normal equation — the job
//! the Dslash kernel exists for.  MILC's production application
//! (`su3_rhmd_hisq`, Section I of the paper) spends its time solving
//! `(m^2 - D^2) x = b` with CG; this example does exactly that with the
//! rayon-parallel CPU Dslash.
//!
//! Run with: `cargo run --release --example cg_solver [L] [mass]`

use milc_complex::DoubleComplex;
use milc_dslash::solver::{solve_with, NormalOperator};
use milc_lattice::{ColorVector, GaugeField, Lattice};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let l: usize = args
        .get(1)
        .map(|a| a.parse().expect("lattice size"))
        .unwrap_or(8);
    let mass: f64 = args
        .get(2)
        .map(|a| a.parse().expect("quark mass"))
        .unwrap_or(0.25);

    let lattice = Lattice::hypercubic(l);
    println!(
        "CG solve of (m^2 - D^2) x = b on a {l}^4 lattice, m = {mass} ({} unknowns x 3 colors)",
        lattice.half_volume()
    );
    let gauge = GaugeField::<DoubleComplex>::random(&lattice, 2718);

    // A random source on the even checkerboard.
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

    let mut op = NormalOperator::new(&gauge, mass);
    let t0 = std::time::Instant::now();
    let sol = solve_with(&mut op, &b, 1e-10, 10_000);
    let dt = t0.elapsed();

    println!("\n== CG summary ==");
    println!("iterations        : {}", sol.iterations);
    println!("relative residual : {:.3e}", sol.relative_residual);
    println!("converged         : {}", sol.converged);
    println!(
        "wall time         : {:.2} s ({:.2} ms/iteration, 2 Dslash applications each)",
        dt.as_secs_f64(),
        dt.as_secs_f64() * 1e3 / sol.iterations.max(1) as f64
    );

    // Double-check by applying the operator to the solution directly.
    let mut ax = vec![ColorVector::zero(); b.len()];
    op.apply(&sol.x, &mut ax);
    let err: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bb, aa)| (*bb - *aa).norm_sqr())
        .sum::<f64>()
        .sqrt();
    println!("||b - A x||       : {err:.3e}");
    assert!(sol.converged, "CG failed to converge");
}
