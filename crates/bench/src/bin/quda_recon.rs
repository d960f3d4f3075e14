//! Regenerates the Section IV-D3 QUDA numbers: `staggered_dslash_test`
//! at recon 18 / 12 / 9, autotuned, A100-equivalent GFLOP/s.
//!
//! Usage: `cargo run -p milc-bench --bin quda_recon --release [L]`

use milc_bench::{quda_paper_gflops, quda_recon_csv, quda_recons, Experiment};

fn main() {
    let l = milc_bench::lattice_arg(16, milc_bench::even_lattice, "quda_recon [L]");
    let exp = Experiment::new(l, 2024);
    eprintln!("QUDA recon sweep: L = {l} on {}", exp.device.name);

    let results = quda_recons(&exp);
    println!("\n=== QUDA staggered_dslash_test (Section IV-D3) ===\n");
    println!(
        "{:10} {:>12} {:>14} {:>14}",
        "recon", "tuned block", "paper GF/s", "sim GF/s"
    );
    for &(recon, gflops, ls) in &results {
        println!(
            "{:10} {:>12} {:>14.1} {:>14.1}",
            recon.label(),
            ls,
            quda_paper_gflops(recon),
            gflops
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/quda_recon.csv", quda_recon_csv(&results))
        .expect("write results/quda_recon.csv");
    println!("\nwritten to results/quda_recon.csv");
}
