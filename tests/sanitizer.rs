//! Sanitizer quality gates (DESIGN §7): every shipped kernel
//! configuration certifies clean under the full sanitizer, each defect
//! fixture is flagged with *exactly one* finding of its class under the
//! matching single-check configuration, and the launch linter catches
//! the misconfigurations the runtime cannot.

use gpu_sim::{
    lint_launch, DeviceSpec, FindingKind, Kernel, KernelResources, Launcher, LintKind, NdRange,
    SanitizerConfig, SanitizerReport, StaticCheckConfig,
};
use milc_complex::DoubleComplex as Z;
use milc_dslash::{
    run_config_sanitized, staticcheck_kernel, AliasingSwizzle, BrokenBarrierThreeLp1,
    DslashProblem, KernelConfig, OobGaugeIndex, PlainStoreThreeLp3, SharedLayout, Strategy,
    UninitCRead,
};

const L: usize = 4;
const HV: u64 = 128; // 4^4 / 2

fn local_size_for(strategy: Strategy) -> u32 {
    match strategy {
        Strategy::OneLp => 64, // global size is only 128 at L = 4
        _ => 96,
    }
}

#[test]
fn all_twelve_configurations_certify_clean() {
    let device = DeviceSpec::test_small();
    let mut problem = DslashProblem::<Z>::random(L, 41);
    for strategy in Strategy::ALL {
        for &order in strategy.orders() {
            let cfg = KernelConfig::new(strategy, order);
            let report = run_config_sanitized(
                &mut problem,
                cfg,
                local_size_for(strategy),
                &device,
                SanitizerConfig::default(),
            )
            .expect("legal configuration launches under the sanitizer");
            let san = report.sanitizer.expect("sanitized launch has a report");
            assert!(
                san.is_clean(),
                "{} not clean: {:?}",
                cfg.label(),
                san.findings
            );
            assert!(san.checked_accesses > 0, "{} checked nothing", cfg.label());
        }
    }
}

#[test]
fn sanitized_result_still_matches_reference() {
    let device = DeviceSpec::test_small();
    let mut problem = DslashProblem::<Z>::random(L, 42);
    let cfg = KernelConfig::new(Strategy::ThreeLp1, milc_dslash::IndexOrder::KMajor);
    run_config_sanitized(&mut problem, cfg, 96, &device, SanitizerConfig::default())
        .expect("launches");
    let out = problem.read_output();
    let err = milc_dslash::compare_to_reference(&out, problem.reference());
    assert!(
        err.within_reassociation_noise(),
        "sanitized run corrupted the result: {err:?}"
    );
}

#[test]
fn swizzled_local_layouts_certify_clean_under_racecheck() {
    // The XOR swizzle remaps which local bytes a lane touches; if the
    // mapping aliased, two writers of one phase would collide and the
    // race checker would see it.  Every local-memory strategy must stay
    // racecheck-clean (and bitwise correct) under the swizzled layout.
    use milc_dslash::IndexOrder::{IMajor, KMajor, LMajor};
    let device = DeviceSpec::test_small();
    let mut problem = DslashProblem::<Z>::random(L, 48);
    for (strategy, order) in [
        (Strategy::ThreeLp1, KMajor),
        (Strategy::ThreeLp1, IMajor),
        (Strategy::ThreeLp2, KMajor),
        (Strategy::FourLp1, KMajor),
        (Strategy::FourLp2, LMajor),
    ] {
        let cfg =
            KernelConfig::new(strategy, order).with_layout(SharedLayout::Swizzled { xor_bits: 2 });
        for san in [
            SanitizerConfig::racecheck_only(),
            SanitizerConfig::default(),
        ] {
            let report =
                run_config_sanitized(&mut problem, cfg, local_size_for(strategy), &device, san)
                    .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
            let san_report = report.sanitizer.expect("sanitized launch has a report");
            assert!(
                san_report.is_clean(),
                "{} not clean: {:?}",
                cfg.label(),
                san_report.findings
            );
            assert!(
                san_report.checked_accesses > 0,
                "{} checked nothing",
                cfg.label()
            );
        }
        let out = problem.read_output();
        let err = milc_dslash::compare_to_reference(&out, problem.reference());
        assert!(
            err.within_reassociation_noise(),
            "{} corrupted the result: {err:?}",
            cfg.label()
        );
    }
}

#[test]
fn aliasing_swizzle_is_flagged_by_racecheck_and_static_proof() {
    // The in-place XOR swizzle (no chunk pad) is not injective:
    // element 31's block overlaps element 32's, so two lanes of one
    // phase write the same local bytes.  The dynamic race checker must
    // see the collision, and the static local-race proof must derive it
    // from the offset map alone — same bug, two independent detectors.
    let problem = DslashProblem::<Z>::random(L, 49);
    let kernel = AliasingSwizzle::new(problem.tables());
    let range = NdRange::linear(HV * 12, 96);
    let device = DeviceSpec::test_small();

    let san = Launcher::new(&device)
        .with_sanitizer(SanitizerConfig::racecheck_only())
        .launch(&kernel, range, problem.memory())
        .expect("the defect launches under tolerant lanes")
        .sanitizer
        .expect("sanitized launch has a report");
    assert!(
        san.count_class("race") >= 1,
        "dynamic racecheck missed the aliasing swizzle: {:?}",
        san.findings
    );
    assert_eq!(san.findings[0].kind, FindingKind::LocalRace);

    let srep = staticcheck_kernel(
        &kernel,
        &range,
        &device,
        problem.memory(),
        &StaticCheckConfig::default(),
        kernel.name(),
    );
    assert!(
        srep.count_class("race") >= 1,
        "static analysis missed the aliasing swizzle: {:?}",
        srep.findings
    );
}

/// Launch one defect kernel under `san` against a fresh problem whose
/// output buffer has never been written.
fn run_defect<K: Kernel>(
    build: impl FnOnce(milc_dslash::kernels::common::DevTables) -> K,
    global_per_site: u64,
    local: u32,
    san: SanitizerConfig,
) -> SanitizerReport {
    let problem = DslashProblem::<Z>::random(L, 43);
    let kernel = build(problem.tables());
    let range = NdRange::linear(HV * global_per_site, local);
    Launcher::new(&DeviceSpec::test_small())
        .with_sanitizer(san)
        .launch(&kernel, range, problem.memory())
        .expect("defect kernels launch under tolerant lanes")
        .sanitizer
        .expect("sanitized launch has a report")
}

fn tables() -> milc_dslash::kernels::common::DevTables {
    DslashProblem::<Z>::random(L, 43).tables()
}

#[test]
fn broken_barrier_is_exactly_one_race_finding() {
    let san = run_defect(
        BrokenBarrierThreeLp1::new,
        12,
        96,
        SanitizerConfig::racecheck_only(),
    );
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(san.findings[0].kind, FindingKind::LocalRace);
    assert_eq!(san.count_class("race"), 1);
    assert!(
        san.findings[0].occurrences > 1,
        "race repeats in every group"
    );
}

#[test]
fn plain_store_is_exactly_one_race_finding_on_c() {
    let san = run_defect(
        PlainStoreThreeLp3::new,
        12,
        96,
        SanitizerConfig::racecheck_only(),
    );
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(
        san.findings[0].kind,
        FindingKind::GlobalRace {
            label: "C".to_string()
        }
    );
}

#[test]
fn oob_gauge_index_is_exactly_one_memcheck_finding() {
    let san = run_defect(OobGaugeIndex::new, 1, 64, SanitizerConfig::memcheck_only());
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(
        san.findings[0].kind,
        FindingKind::GlobalOutOfBounds {
            label: Some("spill".to_string())
        }
    );
    assert_eq!(san.count_class("memcheck"), 1);
}

/// Every lane loads the last word of the address space, and 16 bytes
/// from there, which end past 2^64.
struct WildLoad;

impl Kernel for WildLoad {
    fn name(&self) -> &str {
        "wild-load"
    }
    fn resources(&self, _local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: 16,
            local_mem_bytes_per_group: 0,
        }
    }
    fn run_phase(&self, _phase: usize, lane: &mut gpu_sim::Lane<'_>) {
        assert_eq!(lane.ld_global_f64(u64::MAX - 7), 0.0);
        assert_eq!(lane.ld_global_c64_vec(u64::MAX - 7), (0.0, 0.0));
    }
}

#[test]
fn a_wild_address_is_one_memcheck_finding_not_a_panic() {
    let mut mem = gpu_sim::DeviceMemory::new();
    mem.alloc(64, "buf");
    let san = Launcher::new(&DeviceSpec::test_small())
        .with_sanitizer(SanitizerConfig::default())
        .launch(&WildLoad, NdRange::linear(64, 64), &mem)
        .expect("a sanitized launch skips the wild access")
        .sanitizer
        .expect("sanitized launch has a report");
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(
        san.findings[0].kind,
        FindingKind::GlobalOutOfBounds {
            label: Some("buf".to_string())
        }
    );
    // Two wild loads in each of 64 lanes.
    assert_eq!(san.findings[0].occurrences, 128);
}

#[test]
fn uninit_c_read_is_exactly_one_uninit_finding() {
    let san = run_defect(UninitCRead::new, 3, 96, SanitizerConfig::initcheck_only());
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(
        san.findings[0].kind,
        FindingKind::GlobalUninitRead {
            label: "C".to_string()
        }
    );
}

#[test]
fn broken_barrier_lints_local_mem_without_barrier() {
    let san = run_defect(
        BrokenBarrierThreeLp1::new,
        12,
        96,
        SanitizerConfig::lint_only(),
    );
    assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
    assert_eq!(
        san.findings[0].kind,
        FindingKind::Lint(LintKind::LocalMemNoBarrier)
    );
}

#[test]
fn linter_catches_site_block_mismatch_the_runtime_rejects() {
    // A local size of 64 divides 3LP's global size and is warp-aligned,
    // but splits the 12-item site blocks across group boundaries; the
    // runtime rejects it outright, the linter names the reason.
    let device = DeviceSpec::test_small();
    let problem = DslashProblem::<Z>::random(L, 44);
    let kernel = problem.make_kernel(
        KernelConfig::new(Strategy::ThreeLp1, milc_dslash::IndexOrder::KMajor),
        HV * 12 / 64,
    );
    let res = kernel.resources(64);
    let findings = lint_launch(
        &device,
        &NdRange::linear(HV * 12, 64),
        &res,
        kernel.num_phases(),
        kernel.local_size_multiple(),
    );
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::Lint(LintKind::SiteBlockMismatch)),
        "{findings:?}"
    );
}

#[test]
fn shipped_kernels_declare_their_site_blocks() {
    let problem = DslashProblem::<Z>::random(L, 45);
    let multiple = |s, o| {
        problem
            .make_kernel(KernelConfig::new(s, o), 1)
            .local_size_multiple()
    };
    use milc_dslash::IndexOrder::{IMajor, KMajor, LMajor};
    assert_eq!(multiple(Strategy::OneLp, KMajor), 1);
    assert_eq!(multiple(Strategy::TwoLp, KMajor), 1);
    assert_eq!(multiple(Strategy::ThreeLp1, KMajor), 12);
    assert_eq!(multiple(Strategy::ThreeLp1, IMajor), 4);
    assert_eq!(multiple(Strategy::ThreeLp3, KMajor), 12);
    assert_eq!(multiple(Strategy::FourLp1, KMajor), 48);
    assert_eq!(multiple(Strategy::FourLp2, LMajor), 48);
    // The defect fixtures, too.
    let t = problem.tables();
    assert_eq!(BrokenBarrierThreeLp1::new(t).local_size_multiple(), 12);
    assert_eq!(PlainStoreThreeLp3::new(t).local_size_multiple(), 12);
    assert_eq!(OobGaugeIndex::new(t).local_size_multiple(), 1);
}

#[test]
fn sharded_boundary_kernels_certify_clean_under_racecheck() {
    // The boundary-phase kernels of the sharded Dslash run over a
    // re-based target table (offset by the interior count) against a B
    // buffer extended with the ghost region — exactly the index
    // arithmetic a race or out-of-bounds bug would live in.  Every
    // race-prone strategy class must certify clean on its boundary
    // phase, under both the race checker alone and the full sanitizer.
    use gpu_sim::DeviceGroup;
    use milc_dslash::shard::{run_rank_sanitized, ShardedProblem};
    use milc_dslash::IndexOrder::{IMajor, KMajor, LMajor};

    let device = DeviceSpec::test_small();
    let group = DeviceGroup::homogeneous(device.clone(), 2, gpu_sim::Interconnect::nvlink());
    let mut problem = ShardedProblem::<Z>::random(L, 47, group.len());
    for (strategy, order) in [
        (Strategy::ThreeLp1, KMajor),
        (Strategy::ThreeLp2, IMajor),
        (Strategy::ThreeLp3, KMajor),
        (Strategy::FourLp1, KMajor),
        (Strategy::FourLp2, LMajor),
        (Strategy::OneLp, KMajor),
    ] {
        let cfg = KernelConfig::new(strategy, order);
        for san in [
            SanitizerConfig::racecheck_only(),
            SanitizerConfig::default(),
        ] {
            for rank in 0..group.len() {
                let report = run_rank_sanitized(
                    &mut problem,
                    cfg,
                    rank,
                    local_size_for(strategy),
                    &device,
                    san.clone(),
                )
                .unwrap_or_else(|e| panic!("{} rank {rank}: {e}", cfg.label()));
                let san_report = report.sanitizer.expect("sanitized launch has a report");
                assert!(
                    san_report.is_clean(),
                    "{} boundary phase rank {rank}: {:?}",
                    cfg.label(),
                    san_report.findings
                );
                assert!(
                    san_report.checked_accesses > 0,
                    "{} rank {rank} checked nothing",
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn every_tuner_candidate_passes_the_launch_linter() {
    // The tuner must only propose configurations `sancheck` would
    // certify: every candidate local size it sweeps, for every Table I
    // configuration, produces zero findings from the static launch
    // linter — the same `Launcher::with_sanitizer` gate of PR 1.
    let device = DeviceSpec::test_small();
    let problem = DslashProblem::<Z>::random(L, 46);
    for strategy in Strategy::ALL {
        for &order in strategy.orders() {
            let cfg = KernelConfig::new(strategy, order);
            let candidates = milc_dslash::tune::candidate_local_sizes(cfg, HV);
            assert!(
                !candidates.is_empty(),
                "{} has no candidates at L = {L}",
                cfg.label()
            );
            for ls in candidates {
                let range = NdRange::linear(cfg.global_size(HV), ls);
                let kernel = problem.make_kernel(cfg, range.num_groups());
                let findings = lint_launch(
                    &device,
                    &range,
                    &kernel.resources(ls),
                    kernel.num_phases(),
                    kernel.local_size_multiple(),
                );
                assert!(
                    findings.is_empty(),
                    "tuner candidate {} @ {ls} has lint findings: {findings:?}",
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn tuner_candidates_are_pinned_per_strategy() {
    // The candidate sets at L = 4 (half-volume 128), frozen: the
    // k-major sets follow the paper's multiples-of-96 rule (3LP) and
    // the 4LP multiples-of-96 = lcm(48, 32) rule; i-major admits every
    // warp multiple that divides the global size.  A change here means
    // the divisibility rules themselves changed — which is a paper
    //-conformance bug, not a tuning detail.
    use milc_dslash::tune::candidate_local_sizes;
    use milc_dslash::IndexOrder::{IMajor, KMajor, LMajor};
    let c = |s, o| candidate_local_sizes(KernelConfig::new(s, o), HV);
    assert_eq!(c(Strategy::OneLp, KMajor), vec![32, 64, 128]);
    assert_eq!(c(Strategy::TwoLp, KMajor), vec![32, 64, 96, 128, 192, 384]);
    assert_eq!(c(Strategy::ThreeLp1, KMajor), vec![96, 192, 384, 768]);
    assert_eq!(
        c(Strategy::ThreeLp1, IMajor),
        vec![32, 64, 96, 128, 192, 256, 384, 512, 768]
    );
    assert_eq!(c(Strategy::ThreeLp2, KMajor), vec![96, 192, 384, 768]);
    assert_eq!(c(Strategy::ThreeLp3, KMajor), vec![96, 192, 384, 768]);
    assert_eq!(c(Strategy::FourLp1, KMajor), vec![96, 192, 384, 768]);
    assert_eq!(c(Strategy::FourLp1, IMajor), vec![96, 192, 384, 768]);
    assert_eq!(c(Strategy::FourLp2, LMajor), vec![96, 192, 384, 768]);
    assert_eq!(c(Strategy::FourLp2, IMajor), vec![96, 192, 384, 768]);
}

#[test]
fn kernel_resources() {
    // The defect fixtures mirror the originals' local-memory shape, so
    // occupancy and lint see the configurations the bugs live in.
    let t = tables();
    assert_eq!(
        BrokenBarrierThreeLp1::new(t).resources(96),
        KernelResources {
            registers_per_item: 32,
            local_mem_bytes_per_group: 96 * 16
        }
    );
    assert_eq!(
        PlainStoreThreeLp3::new(t)
            .resources(96)
            .local_mem_bytes_per_group,
        0
    );
    assert_eq!(UninitCRead::new(t).num_phases(), 1);
    assert_eq!(PlainStoreThreeLp3::new(t).num_phases(), 2);
}
