//! Autotune gate: materializes the persistent tune cache for the
//! paper's twelve Table I configurations, then proves the cache works —
//! an immediate warm rerun must be 100% cache hits (zero sweep
//! launches).  At L = 16 the 3LP-1 k-major winner must additionally
//! match the best point of `results/fig6.csv` within 1%.
//!
//! It also gates **measurement-free tuning**: per configuration a
//! `SweepMode::Static` sweep must spend *zero* launches and its
//! winner's measured duration (read off the exhaustive sweep) must be
//! within 5% of the exhaustive winner's.  The exhaustive sweep is the
//! one the cold tuning pass ran; only a configuration that pass served
//! from the cache is swept again.  At L = 16 the static winners land in
//! `results/tune_static.csv`, which `perfdiff --static-tune` regenerates
//! by replaying the static sweeps and diffs exactly (all but
//! `regret_pct`, gated here).
//!
//! Usage: `cargo run -p milc-bench --bin tune --release [L] [cache]`
//! (default L = 16, cache = `results/tunecache.json`).
//! Writes `results/tune.md`; exits 1 if the cold sweep fails, the warm
//! rerun misses the cache, a static sweep misses its gate, or the
//! Fig. 6 cross-check fails, and 2 on a malformed argument.
//!
//! To reset the tuner (e.g. after changing the timing model — though a
//! `TUNECACHE_VERSION` bump handles that automatically), delete the
//! cache file; the next run re-sweeps everything.

use gpu_sim::{QueueMode, StaticCheckConfig};
use milc_bench::snapshot::Table;
use milc_bench::{paper, static_rows_to_csv, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::{sweep, LoadOutcome, SweepMode, Tuner};
use milc_dslash::{run_config_staticcheck, DslashProblem, KernelConfig};
use std::path::{Path, PathBuf};

/// Measurement-free gate: the static winner's *measured* duration may
/// trail the exhaustive winner's by at most this much (the bound
/// `tests/static_tune_diff.rs` proves per configuration).
const STATIC_MAX_REGRET: f64 = 0.05;

/// Best (minimum-duration) fig6.csv row of a series/order, if the file
/// parses and has such rows: `(local_size, duration_us)`.
fn fig6_best(path: &Path, series: &str, order: &str) -> Option<(u32, f64)> {
    let table = Table::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let mut best: Option<(u32, f64)> = None;
    for i in 0..table.rows().len() {
        if table.cell(i, "series")? != series || table.cell(i, "order")? != order {
            continue;
        }
        let (Ok(ls), Ok(us)) = (
            table.cell(i, "local_size")?.parse::<u32>(),
            table.cell(i, "duration_us")?.parse::<f64>(),
        ) else {
            continue;
        };
        if best.is_none_or(|(_, b)| us < b) {
            best = Some((ls, us));
        }
    }
    best
}

fn describe_load(outcome: &LoadOutcome) -> String {
    match outcome {
        LoadOutcome::Fresh => "no cache file (cold start)".to_string(),
        LoadOutcome::Loaded(n) => format!("loaded {n} cached entries"),
        LoadOutcome::Corrupt => "cache file corrupt; discarded".to_string(),
        LoadOutcome::VersionMismatch { found } => {
            format!("cache version {found} != current; discarded")
        }
    }
}

fn main() {
    const USAGE: &str = "tune [L] [cache]";
    if let Some(flag) = std::env::args().skip(1).find(|a| a.starts_with("--")) {
        milc_bench::usage_error(&format!("unknown flag {flag}"), USAGE);
    }
    let l = milc_bench::lattice_arg(16, milc_bench::even_lattice, USAGE);
    let cache_path: PathBuf = std::env::args()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| Tuner::default_path().to_path_buf());

    let exp = Experiment::new(l, 2024);
    eprintln!(
        "tune: L = {l} on {} ({} SMs), cache {}",
        exp.device.name,
        exp.device.num_sms,
        cache_path.display()
    );
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    let configs: Vec<KernelConfig> = paper::TABLE1
        .iter()
        .map(|col| KernelConfig::new(col.strategy, col.order))
        .collect();

    // -- Phase 1: tune all twelve configurations against the on-disk
    //    cache (cold start sweeps; a pre-existing cache may hit).
    let mut tuner = Tuner::with_cache_file(&cache_path);
    eprintln!("cache: {}", describe_load(tuner.load_outcome()));
    let mut failed = false;
    let mut md = milc_bench::provenance::report_prologue(
        "Autotuning report (`tune`)",
        &exp.device,
        &format!(
            "Lattice L = {l}, device `{}`; cache `{}` ({}).",
            exp.device.name,
            cache_path.display(),
            describe_load(tuner.load_outcome())
        ),
    );
    md.push_str("## Tuned winners\n\n");
    md.push_str(
        "| config | winner | layout | duration (µs) | GFLOP/s (A100-equiv) | \
         candidates ok/rejected | waves | tail | source |\n",
    );
    md.push_str("|---|---:|---|---:|---:|---:|---:|---:|---|\n");

    let mut decisions = Vec::new();
    for &cfg in &configs {
        match tuner.tune(&mut problem, cfg, &exp.device, QueueMode::OutOfOrder) {
            Ok(d) => {
                let source = if d.from_cache { "cache" } else { "sweep" };
                let (waves, tail) = d
                    .sweep
                    .as_ref()
                    .map(|s| {
                        (
                            format!("{:.2}", s.winner.waves),
                            format!("{:.3}", s.winner.tail_fraction),
                        )
                    })
                    .unwrap_or_else(|| ("—".into(), "—".into()));
                eprintln!(
                    "  {:16} -> {:4} {:4} ({:9.1} µs, {source})",
                    cfg.label(),
                    d.entry.local_size,
                    d.entry.layout,
                    d.entry.duration_us
                );
                md.push_str(&format!(
                    "| {} | {} | {} | {:.1} | {:.1} | {}/{} | {} | {} | {source} |\n",
                    cfg.label(),
                    d.entry.local_size,
                    d.entry.layout,
                    d.entry.duration_us,
                    d.entry.gflops * exp.a100_equiv_factor(),
                    d.entry.candidates_ok,
                    d.entry.candidates_rejected,
                    waves,
                    tail,
                ));
                decisions.push(d);
            }
            Err(e) => {
                eprintln!("  {:16} -> TUNE FAILED: {e}", cfg.label());
                md.push_str(&format!(
                    "| {} | — | — | — | — | — | — | — | FAILED: {e} |\n",
                    cfg.label()
                ));
                failed = true;
            }
        }
    }
    let (cold_hits, cold_misses) = (tuner.hits(), tuner.misses());
    eprintln!("phase 1: {cold_hits} hits, {cold_misses} misses");
    if let Err(e) = tuner.save() {
        eprintln!("tune: FAILED to save cache: {e}");
        failed = true;
    }

    // -- Phase 1b: per-layout shared-memory wavefronts at each tuned
    //    local size, proven symbolically — the table that shows *why*
    //    the tuner picks a remedy layout on the conflict-heavy kernels.
    md.push_str(
        "\n## Per-layout shared-memory wavefronts (static bank proof, at the tuned size)\n\n\
         | config | local | layout | wavefronts | ideal | excessive | tuned |\n\
         |---|---:|---|---:|---:|---:|---|\n",
    );
    eprintln!("phase 1b: proving per-layout shared wavefronts ...");
    for d in &decisions {
        let cfg = configs
            .iter()
            .find(|c| c.label() == d.entry.key.kernel)
            .copied()
            .expect("decision belongs to a Table I configuration");
        if !cfg.strategy.uses_local_mem() {
            continue;
        }
        let ls = d.entry.local_size;
        for &layout in &cfg.tunable_layouts() {
            let lcfg = cfg.with_layout(layout);
            let row = match run_config_staticcheck(
                &problem,
                lcfg,
                ls,
                &exp.device,
                &StaticCheckConfig::full(),
            )
            .ok()
            .and_then(|r| r.bank_proof)
            {
                Some(proof) => format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    cfg.label(),
                    ls,
                    layout.tag(),
                    proof.shared_wavefronts,
                    proof.shared_wavefronts_ideal,
                    proof.excessive(),
                    if layout.tag() == d.entry.layout {
                        "**winner**"
                    } else {
                        ""
                    }
                ),
                None => {
                    failed = true;
                    format!(
                        "| {} | {} | {} | — | — | — | NO PROOF |\n",
                        cfg.label(),
                        ls,
                        layout.tag()
                    )
                }
            };
            md.push_str(&row);
        }
    }

    // -- Phase 2: a fresh tuner (new process, in effect) reloads the
    //    file and re-tunes everything; every decision must be a cache
    //    hit with zero sweep launches.
    let mut warm = Tuner::with_cache_file(&cache_path);
    let mut warm_ok = matches!(warm.load_outcome(), LoadOutcome::Loaded(_));
    for &cfg in &configs {
        match warm.tune(&mut problem, cfg, &exp.device, QueueMode::OutOfOrder) {
            Ok(d) => {
                if !d.from_cache || d.sweep.is_some() {
                    eprintln!("  warm rerun SWEPT {}", cfg.label());
                    warm_ok = false;
                }
            }
            Err(e) => {
                eprintln!("  warm rerun FAILED {}: {e}", cfg.label());
                warm_ok = false;
            }
        }
    }
    let all_hits = warm.misses() == 0 && warm.hits() == configs.len() as u64;
    warm_ok &= all_hits;
    failed |= !warm_ok;
    eprintln!(
        "phase 2 (warm rerun): {} hits, {} misses -> {}",
        warm.hits(),
        warm.misses(),
        if warm_ok { "all cache hits" } else { "FAIL" }
    );
    md.push_str(&format!(
        "\n## Cache behaviour\n\n\
         * Cold pass: {cold_hits} hits, {cold_misses} misses.\n\
         * Warm rerun (fresh tuner, reloaded file): {} hits, {} misses — **{}**.\n",
        warm.hits(),
        warm.misses(),
        if warm_ok {
            "zero sweep launches"
        } else {
            "FAIL: the cache did not serve every decision"
        }
    ));

    // -- Phase 3: the static sweep must decide without launching, and
    //    its winner — measured by the exhaustive sweep of the same
    //    layouts — must be within STATIC_MAX_REGRET of the true winner.
    //    Phase 1 ran that sweep on every cache miss; only a cache hit is
    //    swept here.
    eprintln!("phase 3 (static sweeps): predicted vs exhaustive ...");
    let mut static_rows = Vec::new();
    for &cfg in &configs {
        let mut run = |mode| {
            sweep(
                &mut problem,
                cfg,
                &cfg.tunable_layouts(),
                &exp.device,
                QueueMode::OutOfOrder,
                mode,
            )
        };
        let swept = decisions
            .iter()
            .find(|d| d.entry.key.kernel == cfg.label())
            .and_then(|d| d.sweep.clone());
        let full = match swept.map_or_else(|| run(SweepMode::Exhaustive), Ok) {
            Ok(full) => full,
            Err(e) => {
                eprintln!("  {:16} exhaustive sweep FAILED: {e}", cfg.label());
                failed = true;
                continue;
            }
        };
        match run(SweepMode::Static) {
            Ok(stat) => {
                let measured = full
                    .timed()
                    .find(|p| {
                        p.local_size == stat.winner.local_size && p.layout == stat.winner.layout
                    })
                    .map(|p| p.duration_us);
                let ok = stat.sweep_launches == 0
                    && measured.is_some_and(|m| {
                        (m - full.winner.duration_us) / full.winner.duration_us <= STATIC_MAX_REGRET
                    });
                failed |= !ok;
                let measured_us = measured.unwrap_or(f64::NAN);
                let regret = (measured_us - full.winner.duration_us) / full.winner.duration_us;
                eprintln!(
                    "  {:16} static winner {:4} {:5} predicted {:9.1} µs, measured {:9.1} µs \
                     (regret {:+.2}%, {} launches) -> {}",
                    cfg.label(),
                    stat.winner.local_size,
                    stat.winner.layout.tag(),
                    stat.winner.duration_us,
                    measured_us,
                    regret * 100.0,
                    stat.sweep_launches,
                    if ok { "ok" } else { "FAIL" }
                );
                static_rows.push((cfg.label(), stat.winner, measured_us, regret));
            }
            Err(e) => {
                eprintln!("  {:16} static sweep FAILED: {e}", cfg.label());
                failed = true;
            }
        }
    }
    md.push_str(&format!(
        "\n## Static sweeps (measurement-free, zero launches, regret gate ≤ {:.0}%)\n\n\
         | config | static winner | layout | predicted (µs) | measured (µs) | regret |\n\
         |---|---:|---|---:|---:|---:|\n",
        STATIC_MAX_REGRET * 100.0
    ));
    for (kernel, w, measured, regret) in &static_rows {
        md.push_str(&format!(
            "| {kernel} | {} | {} | {:.1} | {measured:.1} | {:+.2}% |\n",
            w.local_size,
            w.layout.tag(),
            w.duration_us,
            regret * 100.0
        ));
    }
    // The L = 16 run writes the file `perfdiff --static-tune`
    // regenerates and diffs.
    if l == 16 && !static_rows.is_empty() {
        let mut csv = milc_bench::provenance::header_comment(&exp.device);
        csv.push_str(&static_rows_to_csv(&static_rows));
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/tune_static.csv", &csv).expect("write results/tune_static.csv");
        eprintln!(
            "phase 3: wrote results/tune_static.csv ({} rows)",
            static_rows.len()
        );
    }

    // -- Phase 4: cross-check the tuner against the Fig. 6 sweep data
    //    when it exists for this lattice size (fig6.csv is produced at
    //    L = 16).
    if l == 16 {
        let fig6 = Path::new("results/fig6.csv");
        match fig6_best(fig6, "3LP-1", "k-major") {
            Some((best_ls, best_us)) => {
                let winner = decisions
                    .iter()
                    .find(|d| d.entry.key.kernel == "3LP-1 k-major")
                    .expect("3LP-1 k-major is a Table I configuration");
                // One-sided: fig6.csv sweeps the flat layout only, so a
                // remedy-layout winner may legitimately beat its best
                // point — but the tuner must never be > 1% slower.
                let rel = (winner.entry.duration_us - best_us) / best_us;
                let ok = rel <= 0.01;
                failed |= !ok;
                eprintln!(
                    "fig6 cross-check: tuner {} {} @ {:.1} µs vs fig6 (flat) {} @ {:.1} µs \
                     (Δ = {:+.3}%) -> {}",
                    winner.entry.local_size,
                    winner.entry.layout,
                    winner.entry.duration_us,
                    best_ls,
                    best_us,
                    rel * 100.0,
                    if ok { "ok" } else { "FAIL" }
                );
                md.push_str(&format!(
                    "\n## Fig. 6 cross-check (3LP-1 k-major)\n\n\
                     Tuner winner {} {} @ {:.1} µs; best `fig6.csv` (flat-layout) row {} \
                     @ {:.1} µs; deviation {:+.3}% — **{}**.\n",
                    winner.entry.local_size,
                    winner.entry.layout,
                    winner.entry.duration_us,
                    best_ls,
                    best_us,
                    rel * 100.0,
                    if ok { "no slower than 1%" } else { "FAIL" }
                ));
            }
            None => {
                eprintln!("fig6 cross-check: results/fig6.csv not found; skipped");
                md.push_str("\n## Fig. 6 cross-check\n\nSkipped: `results/fig6.csv` not found.\n");
            }
        }
    }

    md.push_str(&format!(
        "\nResult: **{}**.\n",
        if failed { "FAIL" } else { "PASS" }
    ));
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/tune.md", &md).expect("write results/tune.md");
    println!("\n{md}");
    if failed {
        std::process::exit(1);
    }
}
