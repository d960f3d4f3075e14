//! Cross-crate integration tests: the full pipeline from field
//! generation through device packing, simulation, queueing and the
//! SYCLomatic migration, plus determinism guarantees.

use gpu_sim::{DeviceSpec, QueueMode};
use milc_complex::DoubleComplex;
use milc_dslash::{run_config, DslashProblem, IndexOrder, KernelConfig, Strategy};
use syclomatic_sim::{migrate, CudaLaunch, Dim3, MigrationOptions};

#[test]
fn full_pipeline_all_parities_and_seeds() {
    use milc_lattice::{GaugeField, Parity, QuarkField};
    let lattice = milc_lattice::Lattice::hypercubic(4);
    let device = DeviceSpec::test_small();
    for (seed, parity) in [(1u64, Parity::Even), (2, Parity::Odd)] {
        let gauge = GaugeField::<DoubleComplex>::random(&lattice, seed);
        let b = QuarkField::<DoubleComplex>::random(&lattice, seed + 100);
        let mut problem = DslashProblem::from_fields(gauge, b, parity);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let out = run_config(&mut problem, cfg, 96, &device, QueueMode::InOrder).unwrap();
        assert!(
            out.error.within_reassociation_noise(),
            "parity {parity:?}: {:?}",
            out.error
        );
    }
}

#[test]
fn repeated_launches_are_deterministic() {
    let device = DeviceSpec::test_small();
    let run = || {
        let mut p = DslashProblem::<DoubleComplex>::random(4, 77);
        let cfg = KernelConfig::new(Strategy::FourLp2, IndexOrder::LMajor);
        run_config(&mut p, cfg, 96, &device, QueueMode::OutOfOrder).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report.counters, b.report.counters);
    assert_eq!(a.report.duration_us, b.report.duration_us);
    assert_eq!(a.gflops, b.gflops);
}

#[test]
fn migrated_launch_runs_the_kernel_correctly() {
    // End-to-end SYCLomatic path: migrate a CUDA-style 3LP-1 launch,
    // then run the kernel under the migrated configuration.
    let l = 4;
    let mut problem = DslashProblem::<DoubleComplex>::random(l, 31);
    let hv = problem.lattice().half_volume() as u64;
    let local = 96u32;
    let grid = (hv * 12 / local as u64) as u32;

    let migrated = migrate(
        CudaLaunch {
            grid: Dim3::linear(grid),
            block: Dim3::linear(local),
            shared_bytes: local * 16,
        },
        MigrationOptions::default(),
    );
    assert_eq!(migrated.nd_range.global, hv * 12);
    assert_eq!(migrated.queue_mode, QueueMode::InOrder);

    let cfg = KernelConfig {
        index_style: migrated.index_style,
        ..KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor)
    };
    let device = DeviceSpec::test_small();
    let out = run_config(
        &mut problem,
        cfg,
        migrated.nd_range.local,
        &device,
        migrated.queue_mode,
    )
    .unwrap();
    assert!(
        out.error.within_reassociation_noise(),
        "migrated kernel mismatch: {:?}",
        out.error
    );
}

#[test]
fn quda_and_milc_agree_on_the_same_fields() {
    // The two independent device implementations (QUDA-style packing and
    // the SYCL-layout packing) must compute the same operator.
    use milc_lattice::{GaugeField, Parity, QuarkField};
    use quda_ref::{Recon, StaggeredDslashTest};
    let lattice = milc_lattice::Lattice::hypercubic(4);
    let gauge = GaugeField::<DoubleComplex>::random(&lattice, 911);
    let b = QuarkField::<DoubleComplex>::random(&lattice, 912);
    let device = DeviceSpec::test_small();

    let quda = StaggeredDslashTest::from_fields(gauge.clone(), b.clone(), Parity::Even, Recon::R18);
    quda.run(&device).unwrap();
    let quda_out = quda.read_output();

    let mut milc = DslashProblem::from_fields(gauge, b, Parity::Even);
    let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    run_config(&mut milc, cfg, 96, &device, QueueMode::InOrder).unwrap();
    let milc_out = milc.read_output();

    let err = milc_dslash::compare_to_reference(&quda_out, &milc_out);
    assert!(err.rel < 1e-10, "QUDA vs MILC disagreement: {err:?}");
}

#[test]
fn solver_runs_on_top_of_validated_gauge() {
    // CG on the normal operator built from the same gauge field the
    // device kernels validated against.
    use milc_lattice::GaugeField;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let lattice = milc_lattice::Lattice::hypercubic(4);
    let gauge = GaugeField::<DoubleComplex>::random(&lattice, 13);
    let mut rng = StdRng::seed_from_u64(14);
    let b: Vec<_> = (0..lattice.half_volume())
        .map(|_| {
            milc_lattice::ColorVector::new(
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
            )
        })
        .collect();
    let mut op = milc_dslash::NormalOperator::new(&gauge, 0.5);
    let sol = milc_dslash::solve_with(&mut op, &b, 1e-9, 1000);
    assert!(sol.converged, "CG residual {}", sol.relative_residual);
}

#[test]
fn one_cg_entry_point_drives_cpu_and_tuned_device_operators() {
    // `solve_with` is the only CG entry point: the CPU operator and the
    // tuned device operator go through it and solve the same system,
    // and the device operator launches the tuner's layout, not just its
    // local size.
    use milc_dslash::{
        recommended_config, solve_with, DeviceNormalOperator, NormalOperator, Tuner,
    };
    use milc_lattice::{ColorVector, GaugeField};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let lattice = milc_lattice::Lattice::hypercubic(4);
    let gauge = GaugeField::<DoubleComplex>::random(&lattice, 15);
    let mut rng = StdRng::seed_from_u64(16);
    let b: Vec<_> = (0..lattice.half_volume())
        .map(|_| {
            ColorVector::new(
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
                DoubleComplex::new(rng.gen_range(-1.0..1.0), 0.0),
            )
        })
        .collect();
    let device = DeviceSpec::test_small();
    let cfg = recommended_config();
    let mut tuner = Tuner::in_memory();

    let mut dev_op = DeviceNormalOperator::new_tuned(&gauge, 0.9, cfg, &device, &mut tuner)
        .expect("tuning the solver kernel");
    assert!(!dev_op.tuned_from_cache(), "a fresh tuner must sweep");
    let dev = solve_with(&mut dev_op, &b, 1e-9, 500);
    let cpu = solve_with(&mut NormalOperator::new(&gauge, 0.9), &b, 1e-9, 500);
    assert!(
        dev.converged,
        "device CG residual {}",
        dev.relative_residual
    );
    assert!(cpu.converged, "CPU CG residual {}", cpu.relative_residual);
    for (cb, (d, c)) in dev.x.iter().zip(&cpu.x).enumerate() {
        let err = (*d - *c).norm_sqr().sqrt();
        assert!(
            err < 1e-6,
            "site {cb}: device and CPU solutions differ by {err}"
        );
    }
    // Two Dslash launches per operator application.
    assert_eq!(dev_op.applications() % 2, 0);
    assert!(dev_op.applications() >= 2);

    // The same key again is a cache hit whose decision names exactly
    // the configuration the operator launched.
    let mut probe = DslashProblem::<DoubleComplex>::random(4, 17);
    let decision = tuner
        .tune(&mut probe, cfg, &device, QueueMode::OutOfOrder)
        .expect("cached decision");
    assert!(decision.from_cache);
    assert_eq!(dev_op.local_size(), decision.entry.local_size);
    assert_eq!(dev_op.config(), decision.tuned_config(cfg));
    assert_eq!(dev_op.config().shared_layout.tag(), decision.entry.layout);
}
