//! Sanitizer gate: certifies the paper's twelve Table I configurations
//! race-free/memory-clean under the simulator's sanitizer, and proves
//! the sanitizer can still *find* bugs by running four deliberately
//! broken kernels that must each be flagged with the right class.
//!
//! Usage: `cargo run -p milc-bench --bin sancheck --release [L]`
//! (default L = 8; the lattice must keep the paper's fixed local sizes
//! legal, which every power-of-two L ≥ 8 does — at L = 4 the 1LP global
//! size is smaller than its 256-item work-group — so any other L exits 2
//! with a usage line).  Writes `results/sancheck.md`;
//! exits non-zero if any clean configuration produces a finding or any
//! defect kernel goes undetected.

use gpu_sim::{Kernel, Launcher, NdRange, SanitizerConfig, SanitizerReport};
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::{
    run_config_sanitized, BrokenBarrierThreeLp1, DslashProblem, KernelConfig, OobGaugeIndex,
    PlainStoreThreeLp3, UninitCRead,
};

struct DefectCase {
    kernel: Box<dyn Kernel>,
    /// Expected finding class (`race` / `memcheck` / `uninit`).
    expected: &'static str,
    range: NdRange,
}

fn render_findings(report: &SanitizerReport) -> String {
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

fn main() {
    let l = milc_bench::lattice_arg(8, milc_bench::paper_lattice, "sancheck [L]");
    let exp = Experiment::new(l, 2024);
    let hv = (l.pow(4) / 2) as u64;
    eprintln!(
        "sancheck: L = {l} (half-volume {hv}) on {} ({} SMs)",
        exp.device.name, exp.device.num_sms
    );

    let mut md = milc_bench::provenance::report_prologue(
        "Sanitizer report (`sancheck`)",
        &exp.device,
        &format!(
            "Lattice L = {l}, device `{}`; full sanitizer \
             (racecheck + memcheck + initcheck + lint).",
            exp.device.name
        ),
    );
    let mut failed = false;

    // -- Part 1: the twelve Table I configurations must come back clean.
    md.push_str("## Shipped configurations (must be clean)\n\n");
    md.push_str("| config | local | checked accesses | findings | status |\n");
    md.push_str("|---|---:|---:|---|---|\n");
    eprintln!("checking 12 Table I configurations ...");
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = paper::table1_local_size(col.strategy);
        let report = run_config_sanitized(
            &mut problem,
            cfg,
            ls,
            &exp.device,
            SanitizerConfig::default(),
        )
        .expect("table 1 configuration must launch");
        let san = report.sanitizer.as_ref().expect("sanitized launch");
        let clean = san.is_clean();
        failed |= !clean;
        let status = if clean { "clean" } else { "FINDINGS" };
        eprintln!(
            "  {:16} @ {ls:3}: {status} ({} accesses checked)",
            cfg.label(),
            san.checked_accesses
        );
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            cfg.label(),
            ls,
            san.checked_accesses,
            render_findings(san),
            status
        ));
    }

    // -- Part 2: the defect kernels must each be flagged, with the
    //    class the bug belongs to.
    md.push_str("\n## Defect kernels (must be flagged)\n\n");
    md.push_str("| kernel | expected class | findings | status |\n");
    md.push_str("|---|---|---|---|\n");
    eprintln!("checking 4 defect kernels ...");
    // A freshly packed problem: its `C` has never been written (the
    // Table I runs above zeroed the first problem's output buffer,
    // which would legitimately initialize it).
    let defect_problem = DslashProblem::<DoubleComplex>::random(l, exp.seed ^ 1);
    let t = defect_problem.tables();
    // UninitCRead must run before the kernels that store to `C`: their
    // stores are real and would initialize the very bytes whose
    // uninitialized read is the bug.
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
        // No zero_output() here: UninitCRead's bug *is* the missing
        // zero, and the others never read uninitialized memory.
        let report = Launcher::new(&exp.device)
            .with_sanitizer(SanitizerConfig::default())
            .launch(case.kernel.as_ref(), case.range, defect_problem.memory())
            .expect("defect kernels launch (tolerant lanes)");
        let san = report.sanitizer.as_ref().expect("sanitized launch");
        let hit = san.count_class(case.expected) >= 1;
        failed |= !hit;
        let status = if hit { "flagged" } else { "MISSED" };
        eprintln!(
            "  {:28}: {status} (expected {})",
            case.kernel.name(),
            case.expected
        );
        md.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            case.kernel.name(),
            case.expected,
            render_findings(san),
            status
        ));
    }

    md.push_str(&format!(
        "\nResult: **{}**.\n",
        if failed { "FAIL" } else { "PASS" }
    ));
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/sancheck.md", &md).expect("write results/sancheck.md");
    println!("\n{md}");
    if failed {
        std::process::exit(1);
    }
}
