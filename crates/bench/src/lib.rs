//! Benchmark harness regenerating every evaluation artifact of the
//! paper:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 6 (GFLOP/s per strategy / order / local size / variant) | `cargo run -p milc-bench --bin fig6 --release` |
//! | Table I (Nsight profile, 12 configs) | `... --bin table1 --release` |
//! | §IV-D3 QUDA recon 18/12/9 | `... --bin quda_recon --release` |
//! | Timing-model fit (Table I durations) | `... --bin calibrate --release` |
//!
//! Binaries accept an optional lattice size argument (`fig6 16`,
//! `table1 32` …); the default L = 16 runs on a volume-matched device
//! model and reports A100-equivalent numbers (see
//! [`harness::Experiment`]).

pub mod harness;
pub mod paper;
pub mod provenance;
pub mod snapshot;

pub use harness::{
    aggregate_counters, best_of, best_of_order, calibration_samples, fig6_rows, quda_paper_gflops,
    quda_recon_csv, quda_recons, ranked_rows_to_csv, rows_to_csv, scaling_rows_to_csv,
    static_rows_to_csv, strong_scaling, table1_csv, table1_drift, table1_outcomes, table1_profiles,
    Experiment, ScalingPoint, ScalingRow, StaticRow, SweepRow, RANKED_TOP_K,
};

/// Parses the bins' optional lattice-size argument `[L]`: absent gives
/// `default`; anything but a positive even integer (the checkerboard
/// needs an even extent) is an error naming the argument.
fn parse_lattice_arg(arg: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(arg) = arg else {
        return Ok(default);
    };
    match arg.parse::<usize>() {
        Ok(l) if l > 0 && l % 2 == 0 => Ok(l),
        _ => Err(format!(
            "lattice size must be a positive even integer, got {arg:?}"
        )),
    }
}

/// Prints `msg` and the bin's `usage` line, then exits 2 (a usage error,
/// as opposed to exit 1 for a failed gate).
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\nusage: {usage}");
    std::process::exit(2)
}

/// The `[L]` reader of the bins whose first argument is the lattice
/// size (`default` when absent): a positive even integer, or exit 2
/// with `usage`.
pub fn lattice_arg(default: usize, usage: &str) -> usize {
    parse_lattice_arg(std::env::args().nth(1).as_deref(), default)
        .unwrap_or_else(|e| usage_error(&e, usage))
}

#[cfg(test)]
mod tests {
    use super::parse_lattice_arg;

    #[test]
    fn lattice_arg_accepts_positive_even_integers_only() {
        assert_eq!(parse_lattice_arg(None, 16), Ok(16));
        assert_eq!(parse_lattice_arg(Some("8"), 16), Ok(8));
        for bad in ["x", "0", "3"] {
            let err = parse_lattice_arg(Some(bad), 16).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
