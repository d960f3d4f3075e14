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
    arg.map_or(Ok(default), |arg| {
        parse_lattice(arg, |l| l > 0 && l % 2 == 0, "a positive even integer")
    })
}

fn parse_lattice(arg: &str, ok: impl Fn(usize) -> bool, rule: &str) -> Result<usize, String> {
    arg.parse::<usize>()
        .ok()
        .filter(|&l| ok(l))
        .ok_or_else(|| format!("lattice size must be {rule}, got {arg:?}"))
}

/// A lattice size the paper's fixed local sizes (256, 768) launch on:
/// a power of two >= 8 (`table1`, `profile`, `perfdiff`).
pub fn paper_lattice(arg: &str) -> Result<usize, String> {
    parse_lattice(
        arg,
        |l| l >= 8 && l.is_power_of_two(),
        "a power of two >= 8",
    )
}

/// A lattice size the strong-scaling study can split across up to 8
/// ranks, one t-plane each at least: an even integer >= 8.
pub fn scaling_lattice(arg: &str) -> Result<usize, String> {
    parse_lattice(arg, |l| l >= 8 && l % 2 == 0, "an even integer >= 8")
}

/// The value after `flag`, or exit 2 with `usage` when it is missing.
pub fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, usage: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value"), usage))
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
    use super::{paper_lattice, parse_lattice_arg, scaling_lattice};

    #[test]
    fn lattice_arg_accepts_positive_even_integers_only() {
        assert_eq!(parse_lattice_arg(None, 16), Ok(16));
        assert_eq!(parse_lattice_arg(Some("8"), 16), Ok(8));
        for bad in ["x", "0", "3"] {
            let err = parse_lattice_arg(Some(bad), 16).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn flag_bin_lattices_follow_their_launch_rules() {
        let args = ["4", "6", "12", "8", "16"];
        let paper = args.map(|a| paper_lattice(a).ok());
        assert_eq!(paper, [None, None, None, Some(8), Some(16)]);
        let scaling = args.map(|a| scaling_lattice(a).ok());
        assert_eq!(scaling, [None, None, Some(12), Some(8), Some(16)]);
        let err = paper_lattice("--trace").unwrap_err();
        assert!(err.contains("\"--trace\""), "{err}");
    }
}
