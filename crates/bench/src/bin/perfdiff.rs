//! The perf-regression gate.  The modelled clock is deterministic, so
//! `perfdiff` regenerates each committed `results/*.csv` through the
//! code and row formatter that wrote it and diffs it cell by cell
//! against the committed file ([`milc_bench::snapshot`]).  Any moved
//! value fails the gate and is reported with its file, row, column,
//! committed and fresh value: a duration, a counter, or a tuner's
//! winning local size or layout.  `#` provenance lines are not compared.
//! Cost-model drift is the one tolerance gate, because measured vs
//! predicted is model error, not nondeterminism.
//!
//! Usage: `cargo run -p milc-bench --release --bin perfdiff -- [L]
//! [--fig6] [--scaling] [--static-tune] [--profile] [--selftest]`
//!
//! - always: `results/table1.csv`, every column of the twelve Table I
//!   launches (the committed file is L = 16, the default; L must be a
//!   power of two ≥ 8 for the paper's local sizes to launch);
//! - `--fig6`: `results/fig6.csv`, the full sweep plus the QUDA points
//!   (several minutes), and `results/quda_recon.csv` from the same
//!   QUDA runs;
//! - `--scaling`: `results/scaling.csv`, N = 1, 2, 4, 8 under both
//!   exchange schedules, per-rank sizes from the committed
//!   `results/tunecache.json` (never written back);
//! - `--static-tune`: `results/tune_static.csv`, by replaying
//!   `SweepMode::Static` plus a warm launch of each winner.
//!   `regret_pct` is not compared: it needs the exhaustive sweep, and
//!   the `tune` bin gates it at ≤ 5%.  Each winner's cold launch is
//!   also drift-gated against its cold-regime prediction;
//! - `--profile`: drift of every Table I launch against its static
//!   estimate;
//! - `--selftest`: proves the FAIL paths without a second simulation.
//!   In each regenerated table one gated cell gets its last digit
//!   bumped, and the diff must name exactly that cell.  Every drift row
//!   with its measured duration doubled must break its tolerance.
//!
//! Exit status: 0 on pass; 1 when a gate or the selftest fails; 2, with
//! a one-line message, for a bad argument or a missing or unparsable
//! results CSV.

use gpu_sim::{QueueMode, Regime};
use milc_bench::snapshot::{self, Table};
use milc_bench::{
    fig6_rows, paper, paper_lattice, quda_recon_csv, quda_recons, rows_to_csv, scaling_rows_to_csv,
    static_rows_to_csv, strong_scaling, table1_csv, table1_drift, table1_outcomes, table1_profiles,
    Experiment, StaticRow,
};
use milc_complex::DoubleComplex;
use milc_dslash::obs::prof::{DriftReport, DriftRow};
use milc_dslash::tune::{sweep, SweepMode};
use milc_dslash::{
    estimate_config, run_config, run_config_warm, DslashProblem, IndexOrder, KernelConfig,
    Strategy, TuneCache,
};
use std::fmt::Display;
use std::path::Path;
use std::process::exit;

/// One gated artifact.
struct Gate {
    /// The committed file, relative to the working directory.
    path: &'static str,
    /// How many leading columns key a row.
    key_columns: usize,
    /// Columns left out of the comparison.
    ignore: &'static [&'static str],
    /// The column whose first cell the selftest perturbs.
    probe: &'static str,
}

const fn gate(
    path: &'static str,
    key_columns: usize,
    ignore: &'static [&'static str],
    probe: &'static str,
) -> Gate {
    Gate {
        path,
        key_columns,
        ignore,
        probe,
    }
}

const TABLE1: Gate = gate("results/table1.csv", 1, &[], "sim_duration_us");
const FIG6: Gate = gate("results/fig6.csv", 3, &[], "duration_us");
const QUDA_RECON: Gate = gate("results/quda_recon.csv", 1, &[], "sim_gflops");
const SCALING: Gate = gate("results/scaling.csv", 2, &[], "wall_us");
const STATIC_TUNE: Gate = gate("results/tune_static.csv", 1, &["regret_pct"], "measured_us");

/// Report a bad argument or an unusable input in one line and exit 2.
fn input_error(msg: impl Display) -> ! {
    eprintln!("perfdiff: {msg}");
    exit(2)
}

fn load(gate: &Gate) -> Table {
    let text = std::fs::read_to_string(gate.path)
        .unwrap_or_else(|e| input_error(format!("cannot read {}: {e}", gate.path)));
    Table::parse(&text).unwrap_or_else(|e| input_error(format!("cannot parse {}: {e}", gate.path)))
}

/// The cell with its last digit bumped (mod 10): the smallest change
/// the CSV can show.
fn bump_last_digit(cell: &str) -> String {
    let mut s = cell.to_string();
    match s.char_indices().rev().find(|(_, c)| c.is_ascii_digit()) {
        Some((i, c)) => {
            let next = (c as u8 - b'0' + 1) % 10;
            s.replace_range(i..=i, &next.to_string());
        }
        None => s.push('1'),
    }
    s
}

/// Replay one configuration's static sweep: its `tune_static.csv` row
/// (measured by a warm launch of the winner; regret unknown) and the
/// drift of a cold launch of the same point.
fn replay_static(
    problem: &mut DslashProblem<DoubleComplex>,
    exp: &Experiment,
    cfg: KernelConfig,
) -> Result<(StaticRow, DriftRow), String> {
    let label = cfg.label();
    let stat = sweep(
        problem,
        cfg,
        &cfg.tunable_layouts(),
        &exp.device,
        QueueMode::OutOfOrder,
        SweepMode::Static,
    )
    .map_err(|e| format!("{label}: static sweep: {e}"))?;
    let (tuned, ls) = (cfg.with_layout(stat.winner.layout), stat.winner.local_size);
    let launch_err = |e| format!("{label}: winner launch: {e}");
    let warm = run_config_warm(problem, tuned, ls, &exp.device, QueueMode::OutOfOrder)
        .map_err(launch_err)?;
    let cold =
        run_config(problem, tuned, ls, &exp.device, QueueMode::OutOfOrder).map_err(launch_err)?;
    let estimate = estimate_config(problem, tuned, ls, &exp.device)
        .map_err(|e| format!("{label}: no static estimate: {e}"))?;
    let drift = DriftRow::new(
        &format!("static:{label}"),
        ls,
        cold.report.duration_us,
        &cold.report.counters,
        &estimate,
        Regime::Cold,
    );
    Ok((
        (label, stat.winner, warm.report.duration_us, f64::NAN),
        drift,
    ))
}

fn main() {
    let mut l: usize = 16;
    let (mut fig6, mut scaling, mut static_tune) = (false, false, false);
    let (mut profile, mut selftest) = (false, false);
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--fig6" => fig6 = true,
            "--scaling" => scaling = true,
            "--static-tune" => static_tune = true,
            "--profile" => profile = true,
            "--selftest" => selftest = true,
            other => {
                l = paper_lattice(other).unwrap_or_else(|_| {
                    input_error(format!(
                        "unknown argument {other:?} (expected a lattice size, a power \
                             of two >= 8, or --fig6/--scaling/--static-tune/\
                             --profile/--selftest)"
                    ))
                })
            }
        }
    }

    // Read every committed file before simulating: a missing or
    // unparsable one is an input error, found in milliseconds.  `fresh`
    // below is pushed in this same order.
    let gates: Vec<Gate> = [
        (true, TABLE1),
        (fig6, FIG6),
        (fig6, QUDA_RECON),
        (scaling, SCALING),
        (static_tune, STATIC_TUNE),
    ]
    .into_iter()
    .filter_map(|(on, g)| on.then_some(g))
    .collect();
    let committed: Vec<Table> = gates.iter().map(load).collect();

    let exp = Experiment::new(l, 2024);
    eprintln!(
        "perfdiff: L = {l} on {} ({} SMs), exact diff of {} committed CSVs",
        exp.device.name,
        exp.device.num_sms,
        gates.len()
    );
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    let mut fresh: Vec<String> = Vec::new();
    let mut drift = DriftReport::default();
    let mut failures: Vec<String> = Vec::new();

    eprintln!("re-simulating 12 Table I configurations ...");
    let outcomes = table1_outcomes(&exp, &mut problem);
    fresh.push(table1_csv(&exp, &table1_profiles(&exp, &outcomes)));
    if profile {
        match table1_drift(&exp, &problem, &outcomes) {
            Ok(report) => drift = report,
            Err(e) => failures.push(e),
        }
    }

    if fig6 {
        eprintln!("re-simulating the Fig. 6 sweep (this takes a while) ...");
        let quda = quda_recons(&exp);
        fresh.push(rows_to_csv(&fig6_rows(&exp), &quda));
        fresh.push(quda_recon_csv(&quda));
    }

    if scaling {
        eprintln!("re-simulating the strong-scaling study ...");
        let (mut cache, _) = TuneCache::load(Path::new("results/tunecache.json"));
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let rows: Vec<_> = strong_scaling(&exp, cfg, &[1, 2, 4, 8], &mut cache)
            .into_iter()
            .map(|p| p.row)
            .collect();
        fresh.push(scaling_rows_to_csv(&rows));
    }

    if static_tune {
        eprintln!("replaying 12 static sweeps (warm launch + cold drift per winner) ...");
        let mut rows = Vec::new();
        for col in paper::TABLE1 {
            let cfg = KernelConfig::new(col.strategy, col.order);
            match replay_static(&mut problem, &exp, cfg) {
                Ok((row, cold)) => {
                    rows.push(row);
                    drift.rows.push(cold);
                }
                Err(e) => failures.push(e),
            }
        }
        fresh.push(static_rows_to_csv(&rows));
    }

    // The exact gate.  Tables that pass it are kept for the selftest.
    let mut clean: Vec<(&Gate, &Table, Table)> = Vec::new();
    for ((gate, want), text) in gates.iter().zip(&committed).zip(&fresh) {
        let got = match Table::parse(text) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{}: regenerated table unusable: {e}", gate.path));
                continue;
            }
        };
        let d = snapshot::diff(gate.path, want, &got, gate.key_columns, gate.ignore);
        println!(
            "{:24} {:3} rows: {} diffs",
            gate.path,
            want.rows().len(),
            d.len()
        );
        for x in &d {
            println!("  {x}");
        }
        if d.is_empty() {
            clean.push((gate, want, got));
        } else {
            failures.push(format!("{}: {} cell diffs", gate.path, d.len()));
        }
    }

    if let Some((row, p)) = drift.worst() {
        println!(
            "drift: {} rows, worst path {} {} at {:+.3}% (tolerance ±{:.0}%)",
            drift.rows.len(),
            row.kernel,
            p.path,
            p.drift_pct,
            p.tolerance_pct
        );
    }
    if drift.failed() {
        print!("{}", drift.render_md());
        failures.push("cost-model drift outside tolerance".into());
    }

    if selftest {
        for (gate, want, got) in &clean {
            let key = got.key(0, gate.key_columns);
            let mut perturbed = got.clone();
            // A clean table has the committed header, which names the probe.
            let cell = perturbed
                .cell_mut(0, gate.probe)
                .expect("every gate's probe column is in its header");
            let (before, after) = (cell.clone(), bump_last_digit(cell));
            cell.clone_from(&after);
            let d = snapshot::diff(gate.path, want, &perturbed, gate.key_columns, gate.ignore);
            let exact = d.len() == 1
                && (d[0].key.as_str(), d[0].column.as_str()) == (key.as_str(), gate.probe)
                && (d[0].want.as_str(), d[0].got.as_str()) == (before.as_str(), after.as_str());
            println!(
                "selftest {} [{key}] {}: {before} -> {after}, gate reported {} diff(s) -> {}",
                gate.path,
                gate.probe,
                d.len(),
                if exact { "exactly that cell" } else { "FAIL" }
            );
            if !exact {
                failures.push(format!(
                    "selftest {}: perturbed cell not reported exactly",
                    gate.path
                ));
            }
        }
        if !drift.rows.is_empty() {
            let broken = drift
                .rows
                .iter()
                .filter(|r| !r.with_duration_scaled(2.0).within_tolerance())
                .count();
            let all = broken == drift.rows.len();
            println!(
                "selftest drift: 2x measured duration breaks {broken}/{} rows -> {}",
                drift.rows.len(),
                if all { "ok" } else { "FAIL" }
            );
            if !all {
                failures
                    .push("selftest: a 2x duration inflation must break every drift row".into());
            }
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perfdiff: FAIL — {f}");
        }
        exit(1);
    }
    eprintln!("perfdiff: PASS");
}
