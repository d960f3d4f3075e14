//! Perf-explainability report: roofline attribution of the twelve
//! Table I launches, measured-vs-predicted drift against the static
//! cost model, and the critical-path / overlap-efficiency study of the
//! strong-scaling runs.
//!
//! Usage: `cargo run -p milc-bench --release --bin profile -- \
//!   [L] [--out PATH] [--roofline PATH] [--cache PATH]`
//! (default L = 16, out `results/profile.md`, roofline
//! `results/roofline.csv`, cache `results/tunecache.json`).  L must be
//! a power of two >= 8; a bad L or flag exits 2.
//!
//! The gates are unconditional — the bin exits 1 when any of its own
//! invariants break:
//! - every Table I drift path inside its tolerance
//!   (`costmodel_drift_pct`, scale-corrected duration at ±25%,
//!   replay-exact traffic at ±1%);
//! - critical-path length equals the modelled wall clock within 1% on
//!   every scaling config (N ∈ {2,4,8}, both schedules) — and the
//!   trace-reconstructed DAG agrees with the outcome-built one;
//! - overlap efficiency strictly higher under the overlapped schedule
//!   than in-order at every N.

use milc_bench::{
    flag_value, paper, paper_lattice, provenance, strong_scaling, table1_drift, table1_outcomes,
    usage_error, Experiment,
};
use milc_complex::DoubleComplex;
use milc_dslash::obs::prof::{CriticalPath, DriftReport, RooflineRow};
use milc_dslash::shard::modelled_trace;
use milc_dslash::{obs, DslashProblem, KernelConfig, TuneCache};
use std::path::{Path, PathBuf};

const USAGE: &str = "profile [L] [--out PATH] [--roofline PATH] [--cache PATH]";

const SCALING_RANKS: [usize; 3] = [2, 4, 8];
const CP_TOLERANCE: f64 = 0.01;

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
    let mut out_path = PathBuf::from("results/profile.md");
    let mut roofline_path = PathBuf::from("results/roofline.csv");
    let mut cache_path = PathBuf::from("results/tunecache.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = flag_value(&mut args, "--out", USAGE).into(),
            "--roofline" => roofline_path = flag_value(&mut args, "--roofline", USAGE).into(),
            "--cache" => cache_path = flag_value(&mut args, "--cache", USAGE).into(),
            other => l = paper_lattice(other).unwrap_or_else(|e| usage_error(&e, USAGE)),
        }
    }

    let exp = Experiment::new(l, 2024);
    eprintln!(
        "profile: L = {l} on {} ({} SMs, {:.0} GB/s, {:.2} TFLOP/s fp64)",
        exp.device.name, exp.device.num_sms, exp.device.dram_bw_gbps, exp.device.fp64_peak_tflops
    );
    let mut failures: Vec<String> = Vec::new();
    let metrics = obs::Metrics::new();
    let _metrics_scope = obs::set_metrics(&metrics);

    // ---- Part 1: Table I roofline attribution + prediction drift ----
    eprintln!("packing problem ...");
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    eprintln!("running 12 Table I configurations ...");
    let outcomes = table1_outcomes(&exp, &mut problem);

    let roofline_rows: Vec<RooflineRow> = outcomes
        .iter()
        .map(|(label, out)| RooflineRow::new(label, &out.report, &exp.device))
        .collect();
    let drift = match table1_drift(&exp, &problem, &outcomes) {
        Ok(report) => report,
        Err(why) => {
            failures.push(why);
            DriftReport::default()
        }
    };
    drift.record_metrics();

    println!("\n=== roofline, Table I at L = {l} ===\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>8} {:>10}  bound",
        "config", "AI f/B", "GF/s", "roof GF/s", "% roof", "DRAM GB/s"
    );
    for r in &roofline_rows {
        println!(
            "{:<12} {:>10.3} {:>10.1} {:>10.1} {:>8.1} {:>10.1}  {} ({:.0}%)",
            r.label,
            r.ai_flops_per_byte,
            r.gflops,
            r.roof_gflops,
            r.pct_of_roof,
            r.dram_gbps,
            r.bound.name(),
            r.bound_pct
        );
    }

    if drift.failed() {
        let (row, p) = drift.worst().expect("non-empty");
        failures.push(format!(
            "drift gate: {} {} at {:+.2}% (tolerance ±{:.0}%)",
            row.kernel, p.path, p.drift_pct, p.tolerance_pct
        ));
    }
    if let Some((row, p)) = drift.worst() {
        eprintln!(
            "drift: worst path {} {} at {:+.3}% (tolerance ±{:.0}%)",
            row.kernel, p.path, p.drift_pct, p.tolerance_pct
        );
    }

    // ---- Part 2: critical path + overlap efficiency of the scaling runs ----
    eprintln!("running the strong-scaling study (N = 2, 4, 8, both schedules) ...");
    let (mut cache, load) = TuneCache::load(&cache_path);
    eprintln!("tune cache: {load:?} ({} entries)", cache.len());
    let cfg = paper::TABLE1
        .iter()
        .map(|c| KernelConfig::new(c.strategy, c.order))
        .find(|c| c.label() == "3LP-1 k-major")
        .expect("table 1 has the 3LP-1 k-major config");
    let points = strong_scaling(&exp, cfg, &SCALING_RANKS, &mut cache);

    let mut cp_rows: Vec<(usize, String, CriticalPath)> = Vec::new();
    for p in &points {
        let cp = CriticalPath::from_outcome(&p.outcome);
        if let Err(e) = cp.check(CP_TOLERANCE) {
            failures.push(format!(
                "critical path N={} {}: {e}",
                p.row.ranks, p.row.mode
            ));
        }
        // The exported trace must rebuild the same DAG.
        match CriticalPath::from_trace(&modelled_trace(&p.outcome)) {
            Ok(from_trace) => {
                if (from_trace.length_us - cp.length_us).abs() > 1e-9
                    || (from_trace.overlap_efficiency - cp.overlap_efficiency).abs() > 1e-12
                {
                    failures.push(format!(
                        "trace reconstruction N={} {}: length {:.3} vs {:.3}, eff {:.4} vs {:.4}",
                        p.row.ranks,
                        p.row.mode,
                        from_trace.length_us,
                        cp.length_us,
                        from_trace.overlap_efficiency,
                        cp.overlap_efficiency
                    ));
                }
            }
            Err(e) => failures.push(format!(
                "trace reconstruction N={} {}: {e}",
                p.row.ranks, p.row.mode
            )),
        }
        cp_rows.push((p.row.ranks, p.row.mode.clone(), cp));
    }

    println!("\n=== critical path, {} at L = {l} ===\n", cfg.label());
    println!(
        "{:>5} {:>11} {:>11} {:>11} {:>7}  bounded by",
        "ranks", "mode", "wall µs", "path µs", "eff %"
    );
    for (n, mode, cp) in &cp_rows {
        println!(
            "{:>5} {:>11} {:>11.2} {:>11.2} {:>7.1}  {}",
            n,
            mode,
            cp.wall_us,
            cp.length_us,
            100.0 * cp.overlap_efficiency,
            cp.bounding_description()
        );
    }

    // Overlapped must hide strictly more halo time than in-order at
    // every N (in-order hides none by definition; pipelining alone
    // saves per-message latency even on boundary-only slabs).
    for &n in &SCALING_RANKS {
        let eff = |mode: &str| {
            cp_rows
                .iter()
                .find(|(rn, rm, _)| *rn == n && rm == mode)
                .map(|(_, _, cp)| cp.overlap_efficiency)
                .expect("both modes ran")
        };
        let (ino, ovl) = (eff("in-order"), eff("overlapped"));
        if ovl <= ino {
            failures.push(format!(
                "overlap efficiency N={n}: overlapped {ovl:.4} <= in-order {ino:.4}"
            ));
        }
        obs::metric_gauge(
            "overlap_efficiency",
            &[("ranks", &n.to_string()), ("mode", "overlapped")],
            ovl,
        );
    }

    // ---- Artifacts ----
    let mut csv = provenance::header_comment(&exp.device);
    csv.push_str(RooflineRow::csv_header());
    csv.push('\n');
    for r in &roofline_rows {
        csv.push_str(&r.csv_row());
        csv.push('\n');
    }
    write_creating_dir(&roofline_path, &csv);
    eprintln!(
        "roofline: {} rows -> {}",
        roofline_rows.len(),
        roofline_path.display()
    );

    let mut md = provenance::report_prologue(
        "Perf-explainability profile",
        &exp.device,
        &format!(
            "Roofline, prediction drift and critical-path study at L = {l} \
             ({} SMs, {:.0} GB/s DRAM, {:.2} TFLOP/s fp64).",
            exp.device.num_sms, exp.device.dram_bw_gbps, exp.device.fp64_peak_tflops
        ),
    );
    md.push_str("## Roofline attribution (Table I)\n\n");
    md.push_str(
        "Arithmetic intensity is recorded FLOPs over DRAM bytes actually moved \
         (L2 sector misses × 32 B); the ceiling is `min(fp64 peak, AI × DRAM bw)`; \
         the bound column names the dominant modelled-time class.\n\n",
    );
    md.push_str(
        "| config | AI (f/B) | GF/s | roof GF/s | % of roof | DRAM GB/s | bound | bound % |\n",
    );
    md.push_str("|---|---:|---:|---:|---:|---:|---|---:|\n");
    for r in &roofline_rows {
        md.push_str(&format!(
            "| {} | {:.3} | {:.1} | {:.1} | {:.1} | {:.1} | {} | {:.0} |\n",
            r.label,
            r.ai_flops_per_byte,
            r.gflops,
            r.roof_gflops,
            r.pct_of_roof,
            r.dram_gbps,
            r.bound.name(),
            r.bound_pct
        ));
    }

    md.push_str("\n## Prediction drift (measured vs static cost model)\n\n");
    md.push_str(
        "Exported as `costmodel_drift_pct{kernel,path}` and gated by \
         `perfdiff --profile`.\n\n",
    );
    md.push_str(&drift.render_md());

    md.push_str(&format!(
        "\n## Critical path & overlap efficiency ({}, N = 2/4/8)\n\n",
        cfg.label()
    ));
    md.push_str(
        "Per run: the dependency DAG over halo transfers and compute launches, \
         its critical path (length must equal the modelled wall clock within 1%), \
         and the fraction of the blocking-exchange halo cost the schedule hid.\n\n",
    );
    md.push_str("| ranks | mode | wall µs | path µs | overlap eff % | bounded by |\n");
    md.push_str("|---:|---|---:|---:|---:|---|\n");
    for (n, mode, cp) in &cp_rows {
        md.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.1} | {} |\n",
            n,
            mode,
            cp.wall_us,
            cp.length_us,
            100.0 * cp.overlap_efficiency,
            cp.bounding_description()
        ));
    }
    md.push_str("\nPer-rank overlap accounting of the N = 2 overlapped run:\n\n");
    if let Some((_, _, cp)) = cp_rows
        .iter()
        .find(|(n, mode, _)| *n == 2 && mode == "overlapped")
    {
        md.push_str("| rank | serialized µs | exposed µs | hidden µs |\n");
        md.push_str("|---:|---:|---:|---:|\n");
        for r in &cp.per_rank {
            md.push_str(&format!(
                "| {} | {:.2} | {:.2} | {:.2} |\n",
                r.rank, r.serialized_us, r.exposed_us, r.hidden_us
            ));
        }
        let slack: Vec<String> = cp
            .steps
            .iter()
            .filter(|s| !s.critical)
            .map(|s| format!("rank {} {} ({:.2} µs)", s.rank, s.kind.name(), s.slack_us))
            .collect();
        if !slack.is_empty() {
            md.push_str(&format!("\nOff-path slack: {}.\n", slack.join(", ")));
        }
    }
    md.push_str(&format!(
        "\nGates: {}.\n",
        if failures.is_empty() {
            "all passed"
        } else {
            "FAILED (see below)"
        }
    ));
    for f in &failures {
        md.push_str(&format!("- FAIL: {f}\n"));
    }
    write_creating_dir(&out_path, &md);
    eprintln!("report -> {}", out_path.display());

    eprintln!("\ndrift metrics:\n{}", metrics.render_prometheus());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("profile: FAIL — {f}");
        }
        std::process::exit(1);
    }
    eprintln!("profile: PASS");
}
