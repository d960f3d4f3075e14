//! Benchmark harness regenerating every evaluation artifact of the
//! paper:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 6 (GFLOP/s per strategy / order / local size / variant) | `cargo run -p milc-bench --bin fig6 --release` |
//! | Table I (Nsight profile, 12 configs) | `... --bin table1 --release` |
//! | §IV-D3 QUDA recon 18/12/9 | `... --bin quda_recon --release` |
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
    aggregate_counters, best_of, best_of_order, fig6_rows, quda_paper_gflops, quda_recon_csv,
    quda_recons, rows_to_csv, scaling_rows_to_csv, static_rows_to_csv, strong_scaling, table1_csv,
    table1_drift, table1_outcomes, table1_profiles, Experiment, ScalingPoint, ScalingRow,
    StaticRow, SweepRow,
};

/// Any lattice size the checkerboard admits: a positive even integer.
pub fn even_lattice(arg: &str) -> Result<usize, String> {
    parse_lattice(arg, |l| l > 0 && l % 2 == 0, "a positive even integer")
}

fn parse_lattice(arg: &str, ok: impl Fn(usize) -> bool, rule: &str) -> Result<usize, String> {
    arg.parse::<usize>()
        .ok()
        .filter(|&l| ok(l))
        .ok_or_else(|| format!("lattice size must be {rule}, got {arg:?}"))
}

/// A lattice size the paper's fixed local sizes (256, 768) launch on:
/// a power of two >= 8 (`table1`, `profile`, `perfdiff`, `sancheck`,
/// `staticcheck`).
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
/// size (`default` when absent): a size `rule` accepts, or exit 2 with
/// `usage`.
pub fn lattice_arg(default: usize, rule: fn(&str) -> Result<usize, String>, usage: &str) -> usize {
    lattice_from(std::env::args().nth(1).as_deref(), default, rule)
        .unwrap_or_else(|e| usage_error(&e, usage))
}

fn lattice_from(
    arg: Option<&str>,
    default: usize,
    rule: fn(&str) -> Result<usize, String>,
) -> Result<usize, String> {
    arg.map_or(Ok(default), rule)
}

#[cfg(test)]
mod tests {
    use super::{even_lattice, lattice_from, paper, paper_lattice, scaling_lattice};
    use milc_dslash::KernelConfig;

    #[test]
    fn even_lattices_are_positive_even_integers_only() {
        assert_eq!(lattice_from(None, 16, even_lattice), Ok(16));
        assert_eq!(lattice_from(Some("8"), 16, even_lattice), Ok(8));
        assert_eq!(even_lattice("8"), Ok(8));
        for bad in ["x", "0", "3"] {
            let err = even_lattice(bad).unwrap_err();
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

    /// Every lattice `paper_lattice` accepts launches all twelve Table I
    /// configurations at the paper's fixed local sizes, and the even
    /// lattices it rejects below 8 would not.
    #[test]
    fn paper_lattices_make_every_table1_local_size_legal() {
        let legal_at = |l: usize| {
            let half_volume = (l as u64).pow(4) / 2;
            paper::TABLE1.iter().all(|col| {
                KernelConfig::new(col.strategy, col.order)
                    .local_size_legal(paper::table1_local_size(col.strategy), half_volume)
            })
        };
        let accepted: Vec<usize> = (1..=32)
            .filter(|l| paper_lattice(&l.to_string()).is_ok())
            .collect();
        assert_eq!(accepted, [8, 16, 32]);
        assert!(accepted.iter().all(|&l| legal_at(l)));
        assert!(!legal_at(4) && !legal_at(6));
    }
}
