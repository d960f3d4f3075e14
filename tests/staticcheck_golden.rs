//! Golden snapshot of the static analyzer's verdicts: the rendered
//! `StaticReport` for each of the twelve Table I configurations at
//! L = 8 is pinned in `tests/snapshots/staticcheck_golden.txt` — same
//! footprint signatures, same phase-representative metrics, same
//! (empty) finding lists.  A fitted coefficient drifting, a footprint
//! degrading from affine to residual, or a new false positive all fail
//! here before they reach the `staticcheck` gate.
//!
//! `tests/snapshots/staticcheck_candidates_L4.txt` widens the net to
//! every candidate the static tuner gates at L = 4 (each configuration
//! × its candidate local sizes × its tunable layouts): one line per
//! candidate with the probe counts, footprint-row count, finding and
//! note counts and an FNV-1a hash of the full rendered report, under
//! both the tuner preset and the default proof set.
//!
//! **Updating the snapshot** (after an *intentional* analyzer or kernel
//! change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test staticcheck_golden
//! ```
//!
//! then review the diff of both snapshots — every changed line is a
//! statement the analyzer proves about a shipped kernel.

use gpu_sim::{StaticCheckConfig, StaticReport};
use milc_bench::snapshot::check_golden;
use milc_bench::{paper, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::tune::candidate_local_sizes;
use milc_dslash::{run_config_staticcheck, DslashProblem, KernelConfig};
use std::fmt::Write as _;

const L: usize = 8;
const SEED: u64 = 2024;

/// Analyze the twelve Table I configurations (proof set, no full
/// traffic enumeration — the `staticcheck` bin owns that) and render
/// the concatenated reports.
fn rendered_reports() -> String {
    let exp = Experiment::new(L, SEED);
    let problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    let mut out = String::new();
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        let ls = paper::table1_local_size(col.strategy);
        let report = run_config_staticcheck(
            &problem,
            cfg,
            ls,
            &exp.device,
            &StaticCheckConfig::default(),
        )
        .expect("table 1 configuration must be analyzable");
        out.push_str(&report.render_text());
        out.push('\n');
    }
    out
}

#[test]
fn table1_static_verdicts_match_the_golden_snapshot() {
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/staticcheck_golden.txt"
        ),
        &rendered_reports(),
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `findings= notes= fnv=` of one report.
fn verdict_digest(r: &StaticReport) -> String {
    format!(
        "findings={} notes={} fnv={:016x}",
        r.findings.len(),
        r.notes.len(),
        fnv1a(r.render_text().as_bytes())
    )
}

/// One line per static-tuner candidate at L = 4 (the `tune-static`
/// workload's candidate set), analyzed under the tuner preset and the
/// default proof set.
fn candidate_lines() -> String {
    const CANDIDATE_L: usize = 4;
    let exp = Experiment::new(CANDIDATE_L, SEED);
    let problem = DslashProblem::<DoubleComplex>::random(CANDIDATE_L, exp.seed);
    let hv = problem.lattice().half_volume() as u64;
    let mut out = String::new();
    for col in paper::TABLE1.iter() {
        let cfg = KernelConfig::new(col.strategy, col.order);
        for ls in candidate_local_sizes(cfg, hv) {
            for layout in cfg.tunable_layouts() {
                let lcfg = cfg.with_layout(layout);
                let analyze = |scfg: &StaticCheckConfig| {
                    run_config_staticcheck(&problem, lcfg, ls, &exp.device, scfg)
                        .expect("tuner candidates are legal local sizes")
                };
                let tuner = analyze(&StaticCheckConfig::tuner());
                let default = analyze(&StaticCheckConfig::default());
                let _ = writeln!(
                    out,
                    "{} ls={ls} residues={} probes={} rows={} tuner[{}] default[{}]",
                    lcfg.label(),
                    tuner.residues,
                    tuner.probes,
                    tuner.footprints.len(),
                    verdict_digest(&tuner),
                    verdict_digest(&default)
                );
            }
        }
    }
    out
}

#[test]
fn every_tuner_candidate_matches_the_coverage_snapshot() {
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/staticcheck_candidates_L4.txt"
        ),
        &candidate_lines(),
    );
}

#[test]
fn every_pinned_verdict_is_clean_and_fully_probed() {
    let rendered = rendered_reports();
    assert_eq!(
        rendered.matches("verdict: CLEAN").count(),
        paper::TABLE1.len(),
        "all twelve Table I configurations must be statically clean:\n{rendered}"
    );
    assert!(
        !rendered.contains("finding ["),
        "no findings may appear in the pinned reports:\n{rendered}"
    );
}
