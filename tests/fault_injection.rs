//! Failure-injection tests: every resource-exhaustion and misuse path
//! must surface as a typed error (or a loud panic where the simulated
//! hardware would corrupt state), never as silent wrong answers.

use gpu_sim::{
    DeviceMemory, DeviceSpec, Kernel, KernelResources, Lane, Launcher, NdRange, SimError,
};
use milc_complex::DoubleComplex;
use milc_dslash::{run_config, DslashProblem, IndexOrder, KernelConfig, Strategy};

struct Hog {
    regs: u32,
    shared: u32,
}

impl Kernel for Hog {
    fn name(&self) -> &str {
        "hog"
    }
    fn resources(&self, _ls: u32) -> KernelResources {
        KernelResources {
            registers_per_item: self.regs,
            local_mem_bytes_per_group: self.shared,
        }
    }
    fn run_phase(&self, _p: usize, _lane: &mut Lane<'_>) {}
}

#[test]
fn register_file_exhaustion_is_typed() {
    let device = DeviceSpec::a100();
    let mem = DeviceMemory::new();
    let k = Hog {
        regs: 255,
        shared: 0,
    };
    let err = Launcher::new(&device).launch(&k, NdRange::linear(2048, 1024), &mem);
    assert!(
        matches!(err, Err(SimError::RegistersExhausted { .. })),
        "{err:?}"
    );
}

#[test]
fn local_memory_exhaustion_is_typed() {
    let device = DeviceSpec::a100();
    let mem = DeviceMemory::new();
    let k = Hog {
        regs: 16,
        shared: 200 * 1024,
    };
    let err = Launcher::new(&device).launch(&k, NdRange::linear(256, 128), &mem);
    assert!(
        matches!(err, Err(SimError::LocalMemTooLarge { .. })),
        "{err:?}"
    );
}

#[test]
fn indivisible_and_oversized_ranges_are_typed() {
    let device = DeviceSpec::a100();
    let mem = DeviceMemory::new();
    let k = Hog {
        regs: 16,
        shared: 0,
    };
    assert!(matches!(
        Launcher::new(&device).launch(&k, NdRange::linear(1000, 768), &mem),
        Err(SimError::IndivisibleGlobalSize { .. })
    ));
    assert!(matches!(
        Launcher::new(&device).launch(&k, NdRange::linear(4096, 2048), &mem),
        Err(SimError::InvalidLocalSize { .. })
    ));
}

struct WildLoad;

impl Kernel for WildLoad {
    fn name(&self) -> &str {
        "wild"
    }
    fn resources(&self, _ls: u32) -> KernelResources {
        KernelResources {
            registers_per_item: 8,
            local_mem_bytes_per_group: 0,
        }
    }
    fn run_phase(&self, _p: usize, lane: &mut Lane<'_>) {
        // Device address far outside every allocation.
        let _ = lane.ld_global_f64(0x4000_0000);
    }
}

#[test]
#[should_panic]
fn out_of_bounds_device_access_faults_loudly() {
    let device = DeviceSpec::test_small();
    let mut mem = DeviceMemory::new();
    let _small = mem.alloc(64, "tiny");
    let _ = Launcher::new(&device).launch(&WildLoad, NdRange::linear(32, 32), &mem);
}

#[test]
fn misaligned_local_size_rejected_before_memory_is_touched() {
    // The paper's constraint, enforced by the runner: a divisible but
    // block-misaligned size must not reach execution (it would read
    // across the work-group's local-memory boundary).
    let device = DeviceSpec::test_small();
    let mut p = DslashProblem::<DoubleComplex>::random(4, 90);
    let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
    // 32 divides 128*12 = 1536 but is not a multiple of 12.
    let err = run_config(&mut p, cfg, 32, &device, gpu_sim::QueueMode::InOrder);
    assert!(
        matches!(err, Err(SimError::InvalidLocalSize { .. })),
        "{err:?}"
    );
    // The output buffer is untouched (still zero).
    assert!(p.read_output().iter().all(|v| v.norm_sqr() == 0.0));
}

// ---------------------------------------------------------------------
// Halo-exchange faults (the sharded Dslash): a lost or truncated
// message must surface as a typed, *recoverable* error before any
// kernel runs; a silently corrupted exchange must be caught by the
// differential check — never by luck.

mod halo {
    use gpu_sim::{DeviceGroup, DeviceSpec, Interconnect, QueueMode, SimError};
    use milc_complex::DoubleComplex as Z;
    use milc_dslash::shard::{run_sharded, run_sharded_with, HaloFault, ShardMode, ShardedProblem};
    use milc_dslash::validate::bitwise_equal;
    use milc_dslash::{run_config, DslashProblem, IndexOrder, KernelConfig, Strategy};
    use milc_lattice::{ColorVector, GaugeField, Lattice, Parity, QuarkField};

    const LS: u32 = 96;

    fn cfg() -> KernelConfig {
        KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor)
    }

    fn setup() -> (ShardedProblem<Z>, DeviceGroup, Vec<ColorVector<Z>>) {
        let lat = Lattice::hypercubic(4);
        let gauge = GaugeField::<Z>::random(&lat, 70);
        let b = QuarkField::<Z>::random(&lat, 71);
        let mut single = DslashProblem::from_fields(gauge.clone(), b.clone(), Parity::Even);
        run_config(
            &mut single,
            cfg(),
            LS,
            &DeviceSpec::test_small(),
            QueueMode::InOrder,
        )
        .expect("single-device run");
        let expected = single.read_output();
        let sharded = ShardedProblem::from_fields(gauge, b, Parity::Even, 2);
        let group = DeviceGroup::homogeneous(DeviceSpec::test_small(), 2, Interconnect::nvlink());
        (sharded, group, expected)
    }

    #[test]
    fn dropped_halo_message_is_typed_and_recoverable() {
        let (mut sharded, group, expected) = setup();
        let err = run_sharded_with(
            &mut sharded,
            cfg(),
            &group,
            ShardMode::Overlapped,
            &[LS, LS],
            HaloFault::Drop { msg: 0 },
        );
        match err {
            Err(SimError::HaloMessageFault {
                expected_bytes,
                got_bytes,
                ..
            }) => {
                assert!(expected_bytes > 0);
                assert_eq!(got_bytes, 0, "a dropped message delivers nothing");
            }
            other => panic!("expected HaloMessageFault, got {other:?}"),
        }
        // Recoverable: the same problem re-runs cleanly and still
        // produces the bitwise-identical answer.
        let out = run_sharded(&mut sharded, cfg(), &group, ShardMode::Overlapped, LS)
            .expect("retry after a dropped message succeeds");
        assert!(out.error.within_reassociation_noise(), "{:?}", out.error);
        assert!(bitwise_equal(&sharded.read_assembled(), &expected));
    }

    #[test]
    fn truncated_halo_message_reports_both_byte_counts() {
        let (mut sharded, group, _) = setup();
        let err = run_sharded_with(
            &mut sharded,
            cfg(),
            &group,
            ShardMode::InOrder,
            &[LS, LS],
            HaloFault::Truncate {
                msg: 1,
                keep_bytes: 100,
            },
        );
        match err {
            Err(SimError::HaloMessageFault {
                expected_bytes,
                got_bytes,
                ..
            }) => {
                // 100 bytes keeps six whole complex values (96 bytes).
                assert_eq!(got_bytes, 96);
                assert!(expected_bytes > got_bytes);
            }
            other => panic!("expected HaloMessageFault, got {other:?}"),
        }
    }

    #[test]
    fn silent_corruption_is_caught_by_the_differential_check() {
        let (mut sharded, group, expected) = setup();
        let out = run_sharded_with(
            &mut sharded,
            cfg(),
            &group,
            ShardMode::InOrder,
            &[LS, LS],
            HaloFault::SilentDrop { msg: 0 },
        )
        .expect("a silent drop does not error — that is the point");
        // The run completes, but the answer is wrong, and both layers
        // of the differential harness see it: the reference comparison
        // and the bitwise check against the single-device output.
        assert!(
            !out.error.within_reassociation_noise(),
            "zeroed ghosts must corrupt boundary sites: {:?}",
            out.error
        );
        assert!(!bitwise_equal(&sharded.read_assembled(), &expected));
    }
}

#[test]
fn wrong_device_state_is_rejected() {
    use gpu_sim::DeviceState;
    let a100 = DeviceSpec::a100();
    let small = DeviceSpec::test_small();
    let mut mem = DeviceMemory::new();
    let b = mem.alloc(1024 * 8, "b");
    struct Touch(u64);
    impl Kernel for Touch {
        fn name(&self) -> &str {
            "touch"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 8,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _p: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            lane.st_global_f64(self.0 + i * 8, 1.0);
        }
    }
    let mut state = DeviceState::new(&a100);
    let result = Launcher::new(&small).launch_with_state(
        &Touch(b.base()),
        NdRange::linear(1024, 64),
        &mem,
        &mut state,
    );
    assert_eq!(
        result.unwrap_err(),
        SimError::DeviceStateMismatch {
            state_sms: a100.num_sms,
            device_sms: small.num_sms,
        },
        "mismatched device state must be a typed error, not a panic"
    );
}
