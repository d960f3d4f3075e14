//! Regenerates Fig. 6: GFLOP/s of every MILC-Dslash parallel strategy,
//! index order and legal local size, the five 3LP-1 variants, and the
//! QUDA reference line.
//!
//! Usage: `cargo run -p milc-bench --bin fig6 --release [L]`
//! (default L = 16, volume-matched device; `fig6 32` is the full paper
//! scale).  Writes `results/fig6.csv` and prints the series summary.

use milc_bench::{best_of, best_of_order, fig6_rows, quda_recons, rows_to_csv, Experiment};
use milc_dslash::IndexOrder;

fn main() {
    let l = milc_bench::lattice_arg(16, milc_bench::even_lattice, "fig6 [L]");
    let exp = Experiment::new(l, 2024);
    eprintln!(
        "Fig. 6 sweep: L = {l} on {} ({} SMs, {:.1} MB L2)",
        exp.device.name,
        exp.device.num_sms,
        exp.device.l2_bytes as f64 / 1e6
    );

    eprintln!(
        "running the strategy sweep, the 3LP-1 variants and the compressed-gauge extension ..."
    );
    let rows = fig6_rows(&exp);

    eprintln!("running QUDA baseline ...");
    let quda = quda_recons(&exp);

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/fig6.csv", rows_to_csv(&rows, &quda)).expect("write results/fig6.csv");

    // Console summary: best point per series (the figure's envelope).
    println!("\n=== Fig. 6 summary (A100-equivalent GFLOP/s, best local size per series) ===");
    let series: Vec<(&str, Option<IndexOrder>)> = vec![
        ("1LP", None),
        ("2LP", None),
        ("3LP-1", Some(IndexOrder::KMajor)),
        ("3LP-1", Some(IndexOrder::IMajor)),
        ("3LP-2", Some(IndexOrder::KMajor)),
        ("3LP-2", Some(IndexOrder::IMajor)),
        ("3LP-3", Some(IndexOrder::KMajor)),
        ("3LP-3", Some(IndexOrder::IMajor)),
        ("4LP-1", Some(IndexOrder::KMajor)),
        ("4LP-1", Some(IndexOrder::IMajor)),
        ("4LP-2", Some(IndexOrder::LMajor)),
        ("4LP-2", Some(IndexOrder::IMajor)),
        ("3LP-1 SyclCPLX", None),
        ("3LP-1 CUDA", None),
        ("3LP-1 CUDA maxrreg=64", None),
        ("3LP-1 SYCLomatic", None),
        ("3LP-1 SYCLomatic opt", None),
        ("3LP-1 recon 12 (ext)", None),
        ("3LP-1 recon 9 (ext)", None),
    ];
    for (name, order) in series {
        let best = match order {
            Some(o) => best_of_order(&rows, name, o),
            None => best_of(&rows, name),
        };
        if let Some(b) = best {
            println!(
                "{:28} {:>9}  best @ {:4}  {:7.1} GFLOP/s  (occ {:4.1}%, validated: {})",
                name,
                order.map_or("", |o| o.name()),
                b.local_size,
                b.gflops,
                b.occupancy_pct,
                b.validated
            );
        }
    }
    println!();
    for (recon, gflops, ls) in &quda {
        println!(
            "QUDA staggered_dslash_test {:9}  tuned @ {ls:4}  {gflops:7.1} GFLOP/s",
            recon.label()
        );
    }
    println!(
        "\nfull sweep written to results/fig6.csv ({} rows)",
        rows.len()
    );

    // Validation gate: every point must have matched the CPU reference.
    let bad: Vec<_> = rows.iter().filter(|r| !r.validated).collect();
    if !bad.is_empty() {
        for b in &bad {
            eprintln!(
                "VALIDATION FAILURE: {} @ {}: rel {}",
                b.series, b.local_size, b.max_rel_error
            );
        }
        std::process::exit(1);
    }
}
