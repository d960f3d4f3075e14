//! Strong-scaling study: the Table I lattice decomposed into t-slabs
//! across N simulated devices (NVLink-class interconnect), run under
//! both halo-exchange schedules — **in-order** (blocking exchange, then
//! one full-volume kernel) and **overlapped** (pipelined exchange hidden
//! behind the interior kernel, boundary kernel after both) — with
//! per-rank local sizes from the persistent tune cache.  The overlapped
//! schedule must win at every N > 1; `--check` turns that into a hard
//! exit code and additionally proves every launch the study performed —
//! each rank's full/interior/boundary kernel at its tuned local size —
//! clean under the static analyzer (races, bounds, lint), so the
//! scaling study gates its own launches the way the Table I runs do.
//!
//! Usage: `cargo run -p milc-bench --bin scaling --release -- \
//!   [L] [--out PATH] [--trace PATH] [--cache PATH] [--check]`
//! (default L = 16, out `results/scaling.csv`, trace
//! `results/scaling.trace.json`, cache `results/tunecache.json`).  L
//! must be an even integer >= 8, so each of the 8 ranks owns a t-plane;
//! a bad L or flag exits 2.
//! The CSV is provenance-stamped and gated by `perfdiff --scaling`; the
//! trace is the modelled two-rank overlapped timeline, Perfetto-loadable,
//! with separate comm / compute tracks per rank so the overlap is
//! visible as concurrent spans.

use gpu_sim::StaticCheckConfig;
use milc_bench::{
    flag_value, provenance, scaling_lattice, scaling_rows_to_csv, strong_scaling, usage_error,
    Experiment, ScalingRow,
};
use milc_complex::DoubleComplex;
use milc_dslash::shard::{modelled_trace, Phase, ShardMode, ShardedProblem};
use milc_dslash::staticcheck::staticcheck_kernel;
use milc_dslash::{obs, IndexOrder, KernelConfig, Strategy, TuneCache};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

const USAGE: &str = "scaling [L] [--out PATH] [--trace PATH] [--cache PATH] [--check]";

fn write_creating_dir(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn main() {
    let mut l: usize = 16;
    let mut out_path = PathBuf::from("results/scaling.csv");
    let mut trace_path = PathBuf::from("results/scaling.trace.json");
    let mut cache_path = PathBuf::from("results/tunecache.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = flag_value(&mut args, "--out", USAGE).into(),
            "--trace" => trace_path = flag_value(&mut args, "--trace", USAGE).into(),
            "--cache" => cache_path = flag_value(&mut args, "--cache", USAGE).into(),
            "--check" => check = true,
            other => l = scaling_lattice(other).unwrap_or_else(|e| usage_error(&e, USAGE)),
        }
    }

    let exp = Experiment::new(l, 2024);
    let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    eprintln!(
        "strong scaling: L = {l} ({}) on {} ({} SMs) x N, NVLink link, cache {}",
        cfg.label(),
        exp.device.name,
        exp.device.num_sms,
        cache_path.display()
    );

    let (mut cache, load) = TuneCache::load(&cache_path);
    eprintln!("tune cache: {load:?} ({} entries)", cache.len());

    // Metrics registry for the halo counters the exchange emits
    // (`halo_bytes_total` etc.); snapshot goes to stderr at the end.
    let metrics = obs::Metrics::new();
    let metrics_scope = obs::set_metrics(&metrics);
    let points = strong_scaling(&exp, cfg, &RANK_COUNTS, &mut cache);
    drop(metrics_scope);
    cache
        .save(&cache_path)
        .unwrap_or_else(|e| panic!("save tune cache {}: {e}", cache_path.display()));

    let rows: Vec<ScalingRow> = points.iter().map(|p| p.row.clone()).collect();

    // Plot-ready stdout table.
    println!("\n=== strong scaling, {} at L = {l} ===\n", cfg.label());
    println!(
        "{:>5} {:>11} {:>12} {:>10} {:>12} {:>11} {:>14} {:>9} {:>7}",
        "ranks",
        "mode",
        "wall µs",
        "comm µs",
        "compute µs",
        "halo MB",
        "GF/s (A100)",
        "speedup",
        "eff %"
    );
    for r in &rows {
        println!(
            "{:>5} {:>11} {:>12.1} {:>10.2} {:>12.1} {:>11.3} {:>14.1} {:>9.3} {:>7.1}",
            r.ranks,
            r.mode,
            r.wall_us,
            r.comm_us,
            r.compute_us,
            r.halo_bytes as f64 / 1e6,
            r.gflops_a100_equiv,
            r.speedup,
            r.efficiency_pct,
        );
    }
    println!(
        "\n(one rank moves no halo; above one rank the overlapped schedule\n\
         hides the pipelined exchange behind the interior kernel, so its\n\
         wall clock must sit below the in-order row at every N)"
    );

    // Provenance-stamped CSV; `perfdiff --scaling` regenerates the rows
    // through the same writer and diffs them.
    let csv = format!(
        "{}{}",
        provenance::header_comment(&exp.device),
        scaling_rows_to_csv(&rows)
    );
    write_creating_dir(&out_path, &csv);
    eprintln!("csv: {} rows -> {}", rows.len(), out_path.display());

    // Modelled Perfetto timeline of the N = 2 overlapped run: per-rank
    // comm + compute tracks, exchange overlapping interior compute.
    if let Some(p) = points
        .iter()
        .find(|p| p.row.ranks == 2 && p.outcome.mode == ShardMode::Overlapped)
    {
        let trace = modelled_trace(&p.outcome);
        let text = obs::write_chrome(&trace);
        // Same contract as table1: only report the file written if it
        // round-trips through our own parser.
        let parsed = obs::parse_chrome(&text).expect("emitted trace must re-parse");
        assert_eq!(parsed.spans.len(), trace.spans.len());
        write_creating_dir(&trace_path, &text);
        eprintln!(
            "trace: {} spans on {} tracks -> {}",
            trace.spans.len(),
            trace.tracks().len(),
            trace_path.display()
        );
    }

    eprintln!("\nhalo metrics:\n{}", metrics.render_prometheus());

    // --check: the acceptance gate — overlapped strictly beats in-order
    // at every rank count above one, and everything validated.
    if check {
        let mut ok = true;
        for p in &points {
            if !p.row.validated {
                eprintln!("FAIL: N={} {} did not validate", p.row.ranks, p.row.mode);
                ok = false;
            }
        }
        for n in RANK_COUNTS.iter().filter(|&&n| n > 1) {
            let wall = |mode: &str| {
                rows.iter()
                    .find(|r| r.ranks == *n && r.mode == mode)
                    .map(|r| r.wall_us)
                    .expect("both modes ran")
            };
            let (ovl, ino) = (wall("overlapped"), wall("in-order"));
            if ovl < ino {
                eprintln!("check: N={n} overlapped {ovl:.1} µs < in-order {ino:.1} µs  ok");
            } else {
                eprintln!("check: N={n} overlapped {ovl:.1} µs >= in-order {ino:.1} µs  FAIL");
                ok = false;
            }
        }
        // Static gate: every kernel the study launched — each rank's
        // full (in-order) or interior/boundary (overlapped) phase at
        // its tuned local size — must be provably clean.  Identical
        // (ranks, rank, phase, local size) launches across modes are
        // analyzed once.
        eprintln!("staticcheck: proving the study's own launches ...");
        let mut problems: BTreeMap<usize, ShardedProblem<DoubleComplex>> = BTreeMap::new();
        let mut seen: BTreeSet<(usize, usize, String, u32)> = BTreeSet::new();
        let mut analyzed = 0usize;
        for p in &points {
            let sharded = problems
                .entry(p.row.ranks)
                .or_insert_with(|| ShardedProblem::random(l, exp.seed, p.row.ranks));
            let phases: &[Phase] = match p.outcome.mode {
                ShardMode::InOrder => &[Phase::Full],
                ShardMode::Overlapped => &[Phase::Interior, Phase::Boundary],
            };
            for r in 0..sharded.num_ranks() {
                let rank = sharded.rank(r);
                let requested = p.outcome.per_rank[r].local_size;
                for &phase in phases {
                    let Some((range, kernel)) = rank.launch(cfg, phase, requested) else {
                        continue;
                    };
                    let ls = range.local;
                    let phase_name = format!("{phase:?}").to_lowercase();
                    if !seen.insert((p.row.ranks, r, phase_name.clone(), ls)) {
                        continue;
                    }
                    let label = format!("N={} rank{r} {phase_name} @ {ls}", p.row.ranks);
                    let report = staticcheck_kernel(
                        kernel.as_ref(),
                        &range,
                        &exp.device,
                        rank.memory(),
                        &StaticCheckConfig::tuner(),
                        &label,
                    );
                    analyzed += 1;
                    if !report.is_clean() {
                        eprintln!("staticcheck: {label} FAIL\n{}", report.render_text());
                        ok = false;
                    }
                }
            }
        }
        eprintln!("staticcheck: {analyzed} launches proved clean");

        if !ok {
            std::process::exit(1);
        }
        eprintln!("check: PASS");
    }
}
