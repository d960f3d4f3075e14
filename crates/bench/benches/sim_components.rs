//! Microbenchmarks of the simulator's hot components: the coalescer,
//! the sectored cache, the shared-memory bank model, the atomic
//! serialization model and the warp replay that drives them — the
//! per-event costs that set the simulation's own throughput — plus the
//! static analyzer's footprint model and tuner-preset proofs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::atomics::model_atomic_instruction;
use gpu_sim::cache::{Cache, CacheConfig};
use gpu_sim::coalesce::coalesce;
use gpu_sim::sharedmem::{model_shared_instruction, LocalMem};
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{
    build_launch_model, staticcheck_analyze, Counters, DeviceSpec, Event, Lane, StaticCheckConfig,
};
use milc_bench::Experiment;
use milc_complex::DoubleComplex;
use milc_dslash::{DslashProblem, IndexOrder, KernelConfig, Strategy};

fn bench_coalescer(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescer");
    group.throughput(Throughput::Elements(32));
    let contiguous: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
    let scattered: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 576, 8)).collect();
    group.bench_function("contiguous_warp", |b| {
        b.iter(|| coalesce(&contiguous, 128, 32).sector_requests())
    });
    group.bench_function("scattered_warp", |b| {
        b.iter(|| coalesce(&scattered, 128, 32).sector_requests())
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("sectored_cache");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("hit_stream", |b| {
        let mut cache = Cache::new(CacheConfig {
            capacity: 128 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        for i in 0..64u64 {
            cache.access(i * 128, 0b1111);
        }
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1024u64 {
                hits += cache.access((i % 64) * 128, 0b1111).sector_hits;
            }
            hits
        })
    });
    group.bench_function("thrash_stream", |b| {
        let mut cache = Cache::new(CacheConfig {
            capacity: 16 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        b.iter(|| {
            let mut misses = 0;
            for i in 0..1024u64 {
                misses += cache.access(i * 128, 0b1111).sector_misses;
            }
            misses
        })
    });
    group.finish();
}

fn bench_bank_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_banks");
    let conflict_free: Vec<(u32, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
    let four_way: Vec<(u32, u8)> = (0..32).map(|i| (i * 16, 16)).collect();
    group.bench_function("conflict_free", |b| {
        b.iter(|| model_shared_instruction(&conflict_free, 32, 4).wavefronts)
    });
    group.bench_function("four_way_conflict", |b| {
        b.iter(|| model_shared_instruction(&four_way, 32, 4).wavefronts)
    });
    group.finish();
}

fn bench_atomics(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomic_model");
    let distinct: Vec<u64> = (0..32).map(|i| 4096 + i * 8).collect();
    let colliding: Vec<u64> = (0..32).map(|i| 4096 + (i % 8) * 16).collect();
    group.bench_function("distinct", |b| {
        b.iter(|| model_atomic_instruction(&distinct).passes)
    });
    group.bench_function("colliding", |b| {
        b.iter(|| model_atomic_instruction(&colliding).passes)
    });
    group.finish();
}

/// The phase-0 event streams of the first warp of group 0, recorded
/// lane by lane as the launch engine records them.
fn record_warp(problem: &DslashProblem<DoubleComplex>, cfg: KernelConfig) -> Vec<Vec<Event>> {
    const LOCAL_SIZE: u32 = 96;
    let kernel = problem.make_kernel(cfg, problem.launch_range(cfg, LOCAL_SIZE).num_groups());
    let mut local = LocalMem::new(kernel.resources(LOCAL_SIZE).local_mem_bytes_per_group);
    (0..32u32)
        .map(|lane| {
            let mut events = Vec::new();
            let mut ctx = Lane::new(
                lane as u64,
                lane,
                0,
                LOCAL_SIZE,
                problem.memory(),
                &mut local,
                &mut events,
            );
            kernel.run_phase(0, &mut ctx);
            events
        })
        .collect()
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_warp");
    let problem = DslashProblem::<DoubleComplex>::random(4, 42);
    let device = DeviceSpec::a100();
    let cache = |capacity, ways| {
        Cache::new(CacheConfig {
            capacity,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways,
        })
    };
    let warps = [
        (
            "3lp1_k_major",
            KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor),
        ),
        (
            "4lp1_divergent",
            KernelConfig::new(Strategy::FourLp1, IndexOrder::KMajor),
        ),
    ];
    for (name, cfg) in warps {
        let streams = record_warp(&problem, cfg);
        let events: usize = streams.iter().map(Vec::len).sum();
        group.throughput(Throughput::Elements(events as u64));
        let (mut l1, mut l2) = (
            cache(device.l1_bytes as u64, device.l1_ways),
            cache(device.l2_bytes, device.l2_ways),
        );
        let mut counters = Counters::default();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sinks = ReplaySinks {
                    l1: &mut l1,
                    l2: &mut l2,
                    counters: &mut counters,
                    line_bytes: device.line_bytes,
                    sector_bytes: device.sector_bytes,
                    banks: device.shared_banks,
                    bank_width: device.bank_width,
                };
                replay_warp(&streams, &mut sinks).expect("recorded warps replay in lockstep")
            })
        });
    }
    group.finish();
}

/// The static tuner's per-candidate analysis at L = 4 on the
/// volume-matched device: the probe-and-fit footprint model alone, and
/// the whole tuner-preset analysis (lints, model, bounds and race
/// proofs).  1LP gathers every operand through the neighbour tables;
/// 4LP-1 runs three barrier phases over local memory.
fn bench_staticcheck(c: &mut Criterion) {
    let mut group = c.benchmark_group("staticcheck");
    let exp = Experiment::new(4, 42);
    let problem = DslashProblem::<DoubleComplex>::random(exp.l, exp.seed);
    let candidates = [
        (
            "1lp_gather_ls64",
            KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor),
            64,
        ),
        (
            "4lp1_three_phase_ls192",
            KernelConfig::new(Strategy::FourLp1, IndexOrder::KMajor),
            192,
        ),
    ];
    let tuner = StaticCheckConfig::tuner();
    for (name, cfg, ls) in candidates {
        let range = problem.launch_range(cfg, ls);
        let kernel = problem.make_kernel(cfg, range.num_groups());
        let mem = problem.memory();
        group.bench_function(format!("{name}/model").as_str(), |b| {
            b.iter(|| build_launch_model(kernel.as_ref(), &range, &exp.device, mem))
        });
        group.bench_function(format!("{name}/analyze_tuner").as_str(), |b| {
            b.iter(|| staticcheck_analyze(kernel.as_ref(), &range, &exp.device, mem, &tuner))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_coalescer,
    bench_cache,
    bench_bank_model,
    bench_atomics,
    bench_replay,
    bench_staticcheck
);
criterion_main!(benches);
