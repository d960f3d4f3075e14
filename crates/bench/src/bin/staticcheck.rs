//! Static-analysis gate: proves the paper's twelve Table I
//! configurations race-free and memory-clean *without executing them*,
//! cross-validates the analyzer's predicted transaction counts against
//! the dynamic coalescing/bank model (within 1%), ranks every legal
//! local size with the analytic cost model and cross-validates the
//! ranking against exhaustive warm sweeps (winner in the predicted
//! top-3, Spearman ≥ 0.8 per configuration), gates the cold-regime
//! calibration (cold predictions ≥ warm, calibrated cold durations
//! within ±25% of genuinely cold launches, with the per-run fitted
//! scale reported against the committed table), and shows the four
//! deliberately broken kernels are each flagged statically with the
//! right finding class.
//!
//! Usage: `cargo run -p milc-bench --bin staticcheck --release [L]`
//! (default L = 8; like `sancheck`, a power of two ≥ 8, else exit 2
//! with a usage line).  Writes
//! `results/staticcheck.md`; exits non-zero if any clean configuration
//! produces a static finding, any traffic prediction misses by more
//! than 1%, any ranking misses the duration-ranking gates, or any
//! defect kernel escapes static detection.

use gpu_sim::{
    spearman, Kernel, Launcher, NdRange, QueueMode, Regime, RegimeCalibration, SanitizerConfig,
    StaticCheckConfig, StaticReport, TrafficPrediction,
};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::{sweep, SweepMode};
use milc_dslash::{
    estimate_config, rank_candidates, run_config, run_config_staticcheck, staticcheck_kernel,
    BrokenBarrierThreeLp1, DriftRow, DslashProblem, KernelConfig, OobGaugeIndex,
    PlainStoreThreeLp3, UninitCRead,
};

/// Tolerance of the static-vs-dynamic traffic cross-validation.
const TRAFFIC_TOL: f64 = 0.01;

/// Ranking gates, matching `tests/static_tune_diff.rs`: a winner-class
/// candidate inside the predicted top-3, Spearman ≥ 0.8.
const RANK_TOP_K: usize = 3;
const MIN_SPEARMAN: f64 = 0.8;

/// Measured durations within 0.1% are the same candidate (the sweeps'
/// flat middles are parts-per-million apart; real losers are tens of
/// percent away), and Spearman compares at the same resolution.
const WINNER_REL_TOL: f64 = 1e-3;

/// Collapse noise-level duration differences into rank ties: round
/// log-duration to multiples of `ln(1 + WINNER_REL_TOL)`.
fn quantize(us: f64) -> f64 {
    (us.ln() / (1.0 + WINNER_REL_TOL).ln()).round()
}

fn render_findings(report: &StaticReport) -> String {
    if report.findings.is_empty() {
        return "—".to_string();
    }
    report
        .findings
        .iter()
        .map(|f| format!("{} ({}×)", f.kind, f.occurrences))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Max relative deviation over the predicted counter rows; `None` when
/// a counter is predicted non-zero against a zero dynamic value.
fn max_rel_delta(pred: &[(&'static str, u64)], dynamic: &[(&'static str, u64)]) -> Option<f64> {
    let mut worst = 0.0f64;
    for (&(name, p), &(dname, d)) in pred.iter().zip(dynamic) {
        assert_eq!(name, dname, "row order mismatch");
        if d == 0 {
            if p != 0 {
                return None;
            }
            continue;
        }
        worst = worst.max((p as f64 - d as f64).abs() / d as f64);
    }
    Some(worst)
}

struct DefectCase {
    kernel: Box<dyn Kernel>,
    expected: &'static str,
    range: NdRange,
}

fn main() {
    let l = milc_bench::lattice_arg(8, milc_bench::paper_lattice, "staticcheck [L]");
    let exp = Experiment::new(l, 2024);
    let hv = (l.pow(4) / 2) as u64;
    eprintln!(
        "staticcheck: L = {l} (half-volume {hv}) on {} ({} SMs)",
        exp.device.name, exp.device.num_sms
    );

    let mut md = milc_bench::provenance::report_prologue(
        "Static analysis report (`staticcheck`)",
        &exp.device,
        &format!(
            "Lattice L = {l}, device `{}`; affine footprint inference with \
             whole-launch race/bounds/uninit proofs and traffic prediction \
             (no kernel execution).",
            exp.device.name
        ),
    );
    let mut failed = false;

    // -- Part 1: the twelve Table I configurations must be *provably*
    //    clean from the footprint model alone.
    md.push_str("## Shipped configurations (must be statically clean)\n\n");
    md.push_str("| config | local | probes | residues | footprint rows | findings | status |\n");
    md.push_str("|---|---:|---:|---:|---:|---|---|\n");
    eprintln!("proving 12 Table I configurations ...");
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    let mut static_reports: Vec<(KernelConfig, u32, StaticReport)> = Vec::new();
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = paper::table1_local_size(col.strategy);
        let report =
            run_config_staticcheck(&problem, cfg, ls, &exp.device, &StaticCheckConfig::full())
                .expect("table 1 configuration must be analyzable");
        let clean = report.is_clean();
        failed |= !clean;
        let status = if clean { "clean" } else { "FINDINGS" };
        eprintln!(
            "  {:16} @ {ls:3}: {status} ({} probes, {} footprint rows)",
            cfg.label(),
            report.probes,
            report.footprints.len()
        );
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            cfg.label(),
            ls,
            report.probes,
            report.residues,
            report.footprints.len(),
            render_findings(&report),
            status
        ));
        static_reports.push((cfg, ls, report));
    }

    // -- Part 2: predicted transaction counts must match the dynamic
    //    coalescing/bank model within 1% on every configuration.
    md.push_str("\n## Traffic cross-validation (static prediction vs dynamic run)\n\n");
    md.push_str(
        "| config | L1 tags pred/dyn | sectors pred/dyn | shared wavefronts pred/dyn \
         | atomic passes pred/dyn | max Δ | status |\n",
    );
    md.push_str("|---|---:|---:|---:|---:|---:|---|\n");
    eprintln!("cross-validating traffic predictions against dynamic runs ...");
    for (cfg, ls, sreport) in &static_reports {
        let out = run_config(&mut problem, *cfg, *ls, &exp.device, QueueMode::InOrder)
            .expect("table 1 configuration must launch");
        let c = &out.report.counters;
        let dyn_rows = TrafficPrediction::dynamic_rows(c);
        let (row, ok) = match &sreport.traffic {
            Some(t) => {
                let delta = max_rel_delta(&t.rows(), &dyn_rows);
                let ok = delta.map(|d| d <= TRAFFIC_TOL).unwrap_or(false);
                (
                    format!(
                        "| {} | {}/{} | {}/{} | {}/{} | {}/{} | {} | {} |\n",
                        cfg.label(),
                        t.l1_tag_requests_global,
                        c.l1_tag_requests_global,
                        t.l1_sector_requests,
                        c.l1_sector_requests,
                        t.shared_wavefronts,
                        c.shared_wavefronts,
                        t.atomic_passes,
                        c.atomic_passes,
                        delta
                            .map(|d| format!("{:.3}%", d * 100.0))
                            .unwrap_or_else(|| "∞".to_string()),
                        if ok { "ok" } else { "MISMATCH" }
                    ),
                    ok,
                )
            }
            None => (
                format!(
                    "| {} | — | — | — | — | — | NO PREDICTION ({}) |\n",
                    cfg.label(),
                    sreport.notes.join("; ")
                ),
                false,
            ),
        };
        failed |= !ok;
        eprintln!(
            "  {:16} @ {ls:3}: {}",
            cfg.label(),
            if ok { "ok" } else { "MISMATCH" }
        );
        md.push_str(&row);
    }

    // -- Part 2b: the static bank-conflict proof must reproduce the
    //    dynamic shared-memory wavefront counts *exactly* (0% error)
    //    for every tunable layout of every local-memory configuration —
    //    the padded and swizzled remedies are priced by this proof, so
    //    any slack here would mis-rank layouts.
    md.push_str("\n## Per-layout bank-conflict proof (static vs dynamic, exact)\n\n");
    md.push_str(
        "| config | layout | wavefronts proved/dyn | ideal proved/dyn | excessive | Δ | status |\n",
    );
    md.push_str("|---|---|---:|---:|---:|---:|---|\n");
    eprintln!("proving per-layout shared wavefronts against dynamic runs ...");
    for col in paper::TABLE1.iter() {
        if !col.strategy.uses_local_mem() {
            continue;
        }
        let base = KernelConfig::new(col.strategy, col.order);
        let ls = paper::table1_local_size(col.strategy);
        for &layout in &base.tunable_layouts() {
            let cfg = base.with_layout(layout);
            let proof =
                run_config_staticcheck(&problem, cfg, ls, &exp.device, &StaticCheckConfig::full())
                    .ok()
                    .and_then(|r| r.bank_proof);
            let out = run_config(&mut problem, cfg, ls, &exp.device, QueueMode::InOrder)
                .expect("table 1 layout variant must launch");
            let c = &out.report.counters;
            let (row, ok) = match proof {
                Some(p) => {
                    let ok = p.shared_wavefronts == c.shared_wavefronts
                        && p.shared_wavefronts_ideal == c.shared_wavefronts_ideal;
                    (
                        format!(
                            "| {} | {} | {}/{} | {}/{} | {} | {} | {} |\n",
                            base.label(),
                            layout.tag(),
                            p.shared_wavefronts,
                            c.shared_wavefronts,
                            p.shared_wavefronts_ideal,
                            c.shared_wavefronts_ideal,
                            p.excessive(),
                            if ok { "0%" } else { "≠" },
                            if ok { "exact" } else { "MISMATCH" }
                        ),
                        ok,
                    )
                }
                None => (
                    format!(
                        "| {} | {} | — | — | — | — | NO PROOF |\n",
                        base.label(),
                        layout.tag()
                    ),
                    false,
                ),
            };
            failed |= !ok;
            if !ok {
                eprintln!("  {:16} {}: MISMATCH", base.label(), layout.tag());
            }
            md.push_str(&row);
        }
    }

    // -- Part 3: the analytic cost model must rank the legal local
    //    sizes the way exhaustive measurement does: a winner-class
    //    candidate in the predicted top-3 and Spearman ≥ 0.8 per
    //    configuration.
    md.push_str("\n## Duration ranking (static cost model vs exhaustive warm sweep)\n\n");
    md.push_str(
        "| config | candidates | measured winner | predicted top-3 | winner rank \
         | Spearman | status |\n",
    );
    md.push_str("|---|---:|---|---|---:|---:|---|\n");
    eprintln!("ranking candidates statically and sweeping exhaustively ...");
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let full = sweep(
            &mut problem,
            cfg,
            &[cfg.shared_layout],
            &exp.device,
            QueueMode::OutOfOrder,
            SweepMode::Exhaustive,
        )
        .expect("table 1 configuration must sweep");
        let measured: Vec<(u32, f64)> = full
            .timed()
            .map(|p| (p.local_size, p.duration_us))
            .collect();
        let predicted: Vec<(u32, f64)> = rank_candidates(&problem, cfg, &exp.device)
            .iter()
            .filter_map(|r| {
                r.estimate
                    .as_ref()
                    .ok()
                    .map(|e| (r.local_size, e.duration_us))
            })
            .collect();
        // Winner rank: first predicted position whose *measured*
        // duration matches the measured winner's within tolerance.
        let winner_us = full.winner.duration_us;
        let winner_rank = predicted
            .iter()
            .position(|&(ls, _)| {
                measured
                    .iter()
                    .find(|&&(m, _)| m == ls)
                    .is_some_and(|&(_, us)| (us - winner_us).abs() / winner_us <= WINNER_REL_TOL)
            })
            .map(|i| i + 1);
        let mut pred_v = Vec::new();
        let mut meas_v = Vec::new();
        for &(ls, pred_us) in &predicted {
            if let Some(&(_, meas_us)) = measured.iter().find(|&&(m, _)| m == ls) {
                pred_v.push(quantize(pred_us));
                meas_v.push(quantize(meas_us));
            }
        }
        let rho = spearman(&pred_v, &meas_v);
        let ok = winner_rank.is_some_and(|r| r <= RANK_TOP_K)
            && rho >= MIN_SPEARMAN
            && predicted.len() == measured.len();
        failed |= !ok;
        let top3: Vec<String> = predicted
            .iter()
            .take(RANK_TOP_K)
            .map(|&(ls, us)| format!("{ls} ({us:.1} µs)"))
            .collect();
        eprintln!(
            "  {:16}: winner {} rank {:?}, spearman {rho:+.3} {}",
            cfg.label(),
            full.winner.local_size,
            winner_rank,
            if ok { "ok" } else { "FAIL" }
        );
        md.push_str(&format!(
            "| {} | {} | {} ({:.1} µs) | {} | {} | {rho:+.3} | {} |\n",
            cfg.label(),
            measured.len(),
            full.winner.local_size,
            winner_us,
            top3.join(", "),
            winner_rank
                .map(|r| format!("#{r}"))
                .unwrap_or_else(|| "—".to_string()),
            if ok { "ok" } else { "FAIL" }
        ));
    }

    // -- Part 3b: the cold-regime side of the cost model.  Per
    //    configuration the compulsory-miss path must price a cold
    //    launch at or above the warm one, and a genuinely cold measured
    //    launch (`run_config`: fresh device state) must hold every
    //    cold-regime `DriftRow` path inside its tolerance: duration
    //    within ±25% of the calibrated prediction, traffic within ±1%.
    //    The per-run fitted scale is reported next to the committed
    //    calibration table so a drifting fit is visible before it trips
    //    the gate.
    md.push_str(&format!(
        "\n## Cold-regime predictions (compulsory-miss path, calibrated ×{})\n\n\
         | config | warm model (µs) | cold model (µs) | cold calibrated (µs) \
         | cold measured (µs) | drift | status |\n\
         |---|---:|---:|---:|---:|---:|---|\n",
        RegimeCalibration::committed().scale(Regime::Cold)
    ));
    eprintln!("checking cold-regime predictions against cold launches ...");
    let cal = RegimeCalibration::committed();
    let mut cold_pairs: Vec<(f64, f64)> = Vec::new();
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = paper::table1_local_size(col.strategy);
        let est = match estimate_config(&problem, cfg, ls, &exp.device) {
            Ok(e) => e,
            Err(why) => {
                // Inestimable configurations fall back to measuring in
                // production; they are reported, not failed.
                md.push_str(&format!(
                    "| {} | — | — | — | — | — | inestimable: {why} |\n",
                    cfg.label()
                ));
                continue;
            }
        };
        let ordered = est.cold_duration_us >= est.duration_us;
        let out = run_config(&mut problem, cfg, ls, &exp.device, QueueMode::OutOfOrder)
            .expect("table 1 configuration must launch");
        let row = DriftRow::new(
            &cfg.label(),
            ls,
            out.report.duration_us,
            &out.report.counters,
            &est,
            Regime::Cold,
        );
        let duration = &row.paths[0];
        let (measured, predicted, drift) =
            (duration.measured, duration.predicted, duration.drift_pct);
        cold_pairs.push((measured, est.cold_duration_us));
        let ok = ordered && row.within_tolerance();
        failed |= !ok;
        eprintln!(
            "  {:16} @ {ls:3}: cold {predicted:9.1} µs vs measured {measured:9.1} µs \
             ({drift:+.1}%) -> {}",
            cfg.label(),
            if ok { "ok" } else { "FAIL" }
        );
        md.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:+.1}% | {} |\n",
            cfg.label(),
            est.duration_us,
            est.cold_duration_us,
            predicted,
            measured,
            drift,
            if ok {
                "ok"
            } else if ordered {
                "FAIL: drift"
            } else {
                "FAIL: cold below warm"
            }
        ));
    }
    match RegimeCalibration::fit_scale(&cold_pairs) {
        Some(fitted) => {
            let committed = cal.scale(Regime::Cold);
            md.push_str(&format!(
                "\nFitted cold scale at L = {l}: **{fitted:.4}** (committed {committed}; \
                 the committed value is the cross-L geometric mean, so a per-L fit \
                 may sit to either side).\n"
            ));
            eprintln!("cold scale: fitted {fitted:.4} vs committed {committed}");
        }
        None => {
            md.push_str("\nNo estimable configurations to fit a cold scale from.\n");
            failed = true;
        }
    }

    // -- Part 4: the defect kernels must be flagged *statically* with
    //    the class the bug belongs to (every one of these four defects
    //    is statically detectable; a kernel the analyzer could not
    //    prove faulty would be marked dynamic-only below).
    md.push_str("\n## Defect kernels (must be flagged statically)\n\n");
    md.push_str("| kernel | expected class | findings | detectability | status |\n");
    md.push_str("|---|---|---|---|---|\n");
    eprintln!("checking 4 defect kernels ...");
    // A freshly packed problem: its `C` has never been written — the
    // uninitialized-read proof needs the host init state, not the
    // state the Table I runs above left behind.
    let defect_problem = DslashProblem::<DoubleComplex>::random(l, exp.seed ^ 1);
    let t = defect_problem.tables();
    let defects = [
        DefectCase {
            kernel: Box::new(UninitCRead::new(t)),
            expected: "uninit",
            range: NdRange::linear(hv * 3, 96),
        },
        DefectCase {
            kernel: Box::new(BrokenBarrierThreeLp1::new(t)),
            expected: "race",
            range: NdRange::linear(hv * 12, 96),
        },
        DefectCase {
            kernel: Box::new(PlainStoreThreeLp3::new(t)),
            expected: "race",
            range: NdRange::linear(hv * 12, 96),
        },
        DefectCase {
            kernel: Box::new(OobGaugeIndex::new(t)),
            expected: "memcheck",
            range: NdRange::linear(hv, 64),
        },
    ];
    for case in defects {
        let report = staticcheck_kernel(
            case.kernel.as_ref(),
            &case.range,
            &exp.device,
            defect_problem.memory(),
            &StaticCheckConfig::default(),
            case.kernel.name(),
        );
        let hit_static = report.count_class(case.expected) >= 1;
        let detectability = if hit_static {
            "static".to_string()
        } else {
            // Document whether the bug is at least dynamically
            // detectable — a static miss still fails the gate, since
            // all four fixtures are statically detectable.
            let dynamic = Launcher::new(&exp.device)
                .with_sanitizer(SanitizerConfig::default())
                .launch(case.kernel.as_ref(), case.range, defect_problem.memory())
                .ok()
                .and_then(|r| r.sanitizer)
                .map(|s| s.count_class(case.expected) >= 1)
                .unwrap_or(false);
            if dynamic {
                "dynamic only".to_string()
            } else {
                "undetected".to_string()
            }
        };
        failed |= !hit_static;
        let status = if hit_static { "flagged" } else { "MISSED" };
        eprintln!(
            "  {:28}: {status} (expected {}, {detectability})",
            case.kernel.name(),
            case.expected
        );
        md.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            case.kernel.name(),
            case.expected,
            render_findings(&report),
            detectability,
            status
        ));
    }

    md.push_str(&format!(
        "\nResult: **{}**.\n",
        if failed { "FAIL" } else { "PASS" }
    ));
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/staticcheck.md", &md).expect("write results/staticcheck.md");
    println!("\n{md}");
    if failed {
        std::process::exit(1);
    }
}
