//! Property-based tests of the *device* Dslash (not just the CPU
//! reference): linearity of the operator, seed-independence of the
//! architectural counters, and layout/index-space invariants, driven by
//! proptest over small lattices.  Plus the tune-cache invariants: the
//! JSON roundtrip, key-mismatch-always-misses, corruption degrading to
//! a full sweep instead of a panic, and `padded_range` divisibility.

use gpu_sim::{DeviceSpec, QueueMode};
use milc_complex::{ComplexField, DoubleComplex};
use milc_dslash::tune::{TuneCache, TuneEntry, TuneKey, TuneRegime};
use milc_dslash::{run_config, DslashProblem, IndexOrder, KernelConfig, Strategy};
use milc_lattice::{ColorVector, GaugeField, Lattice, Parity, QuarkField};
use proptest::collection;
use proptest::prelude::*;
use quda_ref::padded_range;

type Z = DoubleComplex;

fn device() -> DeviceSpec {
    DeviceSpec::test_small()
}

/// Run a strategy on explicit fields; return the device output.
fn device_dslash(
    gauge: &GaugeField<Z>,
    b: &QuarkField<Z>,
    strategy: Strategy,
    order: IndexOrder,
    ls: u32,
) -> Vec<ColorVector<Z>> {
    let mut p = DslashProblem::from_fields(gauge.clone(), b.clone(), Parity::Even);
    let cfg = KernelConfig::new(strategy, order);
    let out = run_config(&mut p, cfg, ls, &device(), QueueMode::InOrder).unwrap();
    assert!(out.error.within_reassociation_noise(), "{:?}", out.error);
    p.read_output()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The device operator is linear in B: D(a·B1 + B2) = a·D(B1) + D(B2)
    /// to reassociation accuracy — checked through the full device path
    /// (packing, kernels, local-memory reductions).
    #[test]
    fn device_dslash_is_linear(seed in 0u64..500, a_re in -2.0f64..2.0) {
        let lat = Lattice::hypercubic(2);
        let gauge = GaugeField::<Z>::random(&lat, seed);
        let b1 = QuarkField::<Z>::random(&lat, seed + 1000);
        let b2 = QuarkField::<Z>::random(&lat, seed + 2000);
        let mut combo = QuarkField::<Z>::zeros(&lat);
        for s in 0..lat.volume() {
            *combo.site_mut(s) = b1.site(s).scale(a_re) + *b2.site(s);
        }
        let d1 = device_dslash(&gauge, &b1, Strategy::ThreeLp1, IndexOrder::KMajor, 96);
        let d2 = device_dslash(&gauge, &b2, Strategy::ThreeLp1, IndexOrder::KMajor, 96);
        let dc = device_dslash(&gauge, &combo, Strategy::ThreeLp1, IndexOrder::KMajor, 96);
        for cb in 0..lat.half_volume() {
            for i in 0..3 {
                let expect = d1[cb].c[i].scale(a_re) + d2[cb].c[i];
                let got = dc[cb].c[i];
                prop_assert!(
                    (got - expect).norm_sqr().sqrt() < 1e-9,
                    "cb {cb} i {i}: {got:?} vs {expect:?}"
                );
            }
        }
    }

    /// Architectural counters depend only on the access pattern, never
    /// on the field *values*: two problems with different seeds produce
    /// identical counter sets for the same configuration.
    #[test]
    fn counters_are_value_independent(s1 in 0u64..1000, s2 in 1000u64..2000) {
        let cfg = KernelConfig::new(Strategy::ThreeLp2, IndexOrder::IMajor);
        let mut p1 = DslashProblem::<Z>::random(2, s1);
        let mut p2 = DslashProblem::<Z>::random(2, s2);
        let o1 = run_config(&mut p1, cfg, 32, &device(), QueueMode::InOrder).unwrap();
        let o2 = run_config(&mut p2, cfg, 32, &device(), QueueMode::InOrder).unwrap();
        prop_assert_eq!(o1.report.counters, o2.report.counters);
        prop_assert_eq!(o1.report.duration_us, o2.report.duration_us);
    }

    /// All strategies agree pairwise on the same random instance (the
    /// transitive closure of the per-strategy reference checks, done
    /// directly on device outputs).
    #[test]
    fn strategies_agree_pairwise(seed in 0u64..300) {
        let lat = Lattice::hypercubic(2);
        let gauge = GaugeField::<Z>::random(&lat, seed);
        let b = QuarkField::<Z>::random(&lat, seed + 7);
        let base = device_dslash(&gauge, &b, Strategy::OneLp, IndexOrder::KMajor, 8);
        for (s, o, ls) in [
            (Strategy::TwoLp, IndexOrder::KMajor, 24),
            (Strategy::ThreeLp3, IndexOrder::KMajor, 96),
            (Strategy::FourLp1, IndexOrder::IMajor, 96),
            (Strategy::FourLp2, IndexOrder::IMajor, 96),
        ] {
            let out = device_dslash(&gauge, &b, s, o, ls);
            for cb in 0..lat.half_volume() {
                for i in 0..3 {
                    prop_assert!(
                        (out[cb].c[i] - base[cb].c[i]).norm_sqr().sqrt() < 1e-9,
                        "{} vs 1LP at cb {cb}", s.name()
                    );
                }
            }
        }
    }

    /// Legal local sizes always launch; illegal ones always error.
    #[test]
    fn local_size_legality_is_sound(ls in 1u32..=1024) {
        let mut p = DslashProblem::<Z>::random(2, 5);
        let hv = p.lattice().half_volume() as u64;
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let legal = cfg.local_size_legal(ls, hv);
        let result = run_config(&mut p, cfg, ls, &device(), QueueMode::InOrder);
        if legal {
            prop_assert!(result.is_ok(), "legal {ls} failed: {result:?}");
        } else {
            // The runner enforces the paper's constraint up front: any
            // illegal size — indivisible *or* site-block-misaligned —
            // is rejected before launch (a misaligned size would make
            // the local-memory reduction read out of bounds).
            prop_assert!(result.is_err(), "illegal {ls} launched");
        }
    }
}

/// The kernel labels the tuner actually caches, indexed for proptest.
const KERNEL_LABELS: [&str; 4] = ["1LP", "3LP-1 k-major", "3LP-1 i-major", "4LP-2 l-major"];

/// Deterministically build a cache entry from generated scalars.
fn make_entry(
    device_hash: u64,
    dim: usize,
    kernel_idx: usize,
    sanitized: bool,
    local_size: u32,
    duration_us: f64,
) -> TuneEntry {
    TuneEntry {
        key: TuneKey {
            device_hash,
            dims: [dim, dim, dim, dim],
            kernel: KERNEL_LABELS[kernel_idx % KERNEL_LABELS.len()].to_string(),
            sanitized,
            // Alternate regimes so the roundtrip exercises both tags.
            regime: if kernel_idx.is_multiple_of(2) {
                TuneRegime::Warm
            } else {
                TuneRegime::Cold
            },
        },
        local_size,
        // Cycle through every tag family so the JSON roundtrip and the
        // strict layout validation both see all of them.
        layout: ["flat", "pad5", "xor2", "xor1"][kernel_idx % 4].to_string(),
        duration_us,
        gflops: 1e6 / duration_us,
        candidates_ok: 4,
        candidates_rejected: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialize → parse is the identity on the tune cache, for any
    /// generated population of entries.
    #[test]
    fn tune_cache_roundtrips(
        hash in 0u64..u64::MAX,
        dims in collection::vec(2usize..64, 1..4),
        sanitized_bits in 0u8..4,
        ls in 1u32..=1024,
        us in 0.001f64..1e7,
    ) {
        let mut cache = TuneCache::new();
        for (i, &dim) in dims.iter().enumerate() {
            cache.insert(make_entry(
                hash.wrapping_add(i as u64),
                dim,
                i,
                (sanitized_bits >> (i % 2)) & 1 == 1,
                ls,
                us + i as f64,
            ));
        }
        let back = TuneCache::from_json(&cache.to_json());
        prop_assert!(back.is_ok(), "{back:?}");
        prop_assert_eq!(back.unwrap(), cache);
    }

    /// Any single-field difference in the key misses: device hash,
    /// lattice dims, kernel label, sanitizer flag all participate.
    #[test]
    fn tune_key_mismatch_always_misses(
        hash in 0u64..u64::MAX,
        dim in 2usize..64,
        kernel_idx in 0usize..4,
        ls in 1u32..=1024,
        field in 0u8..4,
    ) {
        let entry = make_entry(hash, dim, kernel_idx, false, ls, 10.0);
        let mut cache = TuneCache::new();
        cache.insert(entry.clone());
        prop_assert!(cache.lookup(&entry.key).is_some());
        let mut probe = entry.key.clone();
        match field {
            0 => probe.device_hash ^= 1,
            1 => probe.dims[dim % 4] += 1,
            2 => probe.kernel = KERNEL_LABELS[(kernel_idx + 1) % KERNEL_LABELS.len()].to_string(),
            _ => probe.sanitized = !probe.sanitized,
        }
        prop_assert!(cache.lookup(&probe).is_none(), "{probe:?} unexpectedly hit");
    }

    /// A corrupted cache *file* of arbitrary bytes never panics: load
    /// degrades to an empty cache (→ the tuner re-sweeps).
    #[test]
    fn corrupted_cache_bytes_degrade_to_empty(
        bytes in collection::vec(0u8..=255, 0..512),
        tag in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join("milc-tunecache-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fuzz-{}-{tag:016x}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (cache, _outcome) = TuneCache::load(&path);
        // Arbitrary bytes virtually never form a valid versioned cache;
        // the property that matters is: no panic, and a non-document
        // yields an empty cache rather than garbage entries.
        if TuneCache::from_json(&String::from_utf8_lossy(&bytes)).is_err() {
            prop_assert!(cache.is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncating a *valid* cache document anywhere never panics, and
    /// either parses to some cache or errors cleanly.
    #[test]
    fn truncated_cache_json_never_panics(cut_permille in 0usize..1000) {
        let mut cache = TuneCache::new();
        cache.insert(make_entry(0xABCD, 16, 1, false, 96, 875.1));
        cache.insert(make_entry(0xABCD, 16, 2, true, 64, 950.7));
        let text = cache.to_json();
        let cut = text.len() * cut_permille / 1000;
        // Cut at a char boundary (the document is ASCII, but be safe).
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = TuneCache::from_json(&text[..cut]); // must not panic
    }

    /// QUDA-style padded grids: the padded global size is always a
    /// whole multiple of the local size, never smaller than the
    /// requested global size, and overshoots by less than one group.
    #[test]
    fn padded_range_is_whole_groups(global in 1u64..1_000_000_000, ls in 1u32..=1024) {
        let r = padded_range(global, ls);
        prop_assert_eq!(r.local, ls);
        prop_assert_eq!(r.global % ls as u64, 0);
        prop_assert!(r.global >= global);
        prop_assert!(r.global - global < ls as u64);
        prop_assert_eq!(r.num_groups(), global.div_ceil(ls as u64));
    }
}

// ---------------------------------------------------------------------
// Sharding invariants (the domain decomposition of `shard::Partition`):
// the t-slab partition is a disjoint cover of the lattice for *any*
// extents and rank count, halo send/receive sets are symmetric, and the
// ghost-region size matches the analytic two-faces formula wherever the
// slices cannot overlap.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lattice site belongs to exactly one rank's slab, local and
    /// global indices are inverse bijections, and `owner_of_site` agrees
    /// with the slab iteration — for arbitrary (even) extents and any
    /// rank count up to the t extent, including uneven splits.
    #[test]
    fn shard_partition_is_a_disjoint_cover(
        half_ls in 1usize..3,
        half_lt in 1usize..9,
        ranks_seed in 1usize..32,
    ) {
        use milc_dslash::shard::Partition;
        let (ls, lt) = (2 * half_ls, 2 * half_lt);
        let lat = Lattice::new([ls, ls, ls, lt]);
        let ranks = 1 + ranks_seed % lt; // any count in 1..=Lt
        let p = Partition::new(&lat, ranks);
        let mut owned = vec![0u32; lat.volume()];
        for r in 0..ranks {
            prop_assert_eq!(p.slab_volume(r), p.t_len(r) * p.slice_volume());
            for s in p.slab_sites(r) {
                owned[s] += 1;
                prop_assert_eq!(p.owner_of_site(s), r);
                prop_assert_eq!(p.global_site(r, p.local_index(r, s)), s);
            }
        }
        prop_assert!(
            owned.iter().all(|&c| c == 1),
            "cover is not disjoint/exhaustive: {ranks} ranks on {:?}",
            lat.dims()
        );
        // The remainder is spread one extra plane at a time.
        let lens: Vec<usize> = (0..ranks).map(|r| p.t_len(r)).collect();
        prop_assert_eq!(lens.iter().sum::<usize>(), lt);
        prop_assert!(lens.iter().all(|&l| l >= lt / ranks && l <= lt / ranks + 1));
    }

    /// Halo symmetry: the send set of rank r to rank r' is exactly what
    /// r' receives from r — every message's sites are owned by its
    /// sender, the incoming messages of a rank partition its ghost set
    /// (each ghost delivered exactly once), and the ghost set equals the
    /// stencil-derived need set.
    #[test]
    fn shard_halo_send_and_receive_sets_are_symmetric(
        half_ls in 1usize..3,
        half_lt in 1usize..9,
        ranks_seed in 1usize..32,
    ) {
        use milc_dslash::shard::{Partition, BYTES_PER_HALO_SITE};
        use milc_lattice::neighbors::NeighborTable;
        use std::collections::BTreeSet;

        let (ls, lt) = (2 * half_ls, 2 * half_lt);
        let lat = Lattice::new([ls, ls, ls, lt]);
        let ranks = 1 + ranks_seed % lt;
        let p = Partition::new(&lat, ranks);
        let nt = NeighborTable::build(&lat);
        for m in p.messages() {
            prop_assert!(m.from != m.to, "no self-messages");
            prop_assert_eq!(m.bytes(), m.sites.len() as u64 * BYTES_PER_HALO_SITE);
            for &s in &m.sites {
                prop_assert_eq!(p.owner_of_site(s), m.from, "sender must own what it sends");
            }
        }
        for r in 0..ranks {
            let mut received = BTreeSet::new();
            for m in p.incoming(r) {
                for &s in &m.sites {
                    prop_assert!(received.insert(s), "site {s} delivered to rank {r} twice");
                }
            }
            let ghosts: BTreeSet<usize> = p.ghost_sites(r).iter().copied().collect();
            prop_assert_eq!(&received, &ghosts, "messages must fill rank {r}'s ghosts exactly");
            prop_assert_eq!(&ghosts, &p.needed_sources(r, &nt), "rank {r} need set");
        }
    }

    /// The ghost region is the analytic `2 · HALO_DEPTH · Lx·Ly·Lz`
    /// (two faces, three planes deep) whenever the slab is at least two
    /// planes thick and the rest of the lattice at least six — the
    /// regime where the below/above slices can neither wrap onto each
    /// other nor back onto the slab.  Never larger, in any regime.
    #[test]
    fn shard_ghost_sizes_match_the_analytic_formula(
        half_ls in 1usize..3,
        half_lt in 1usize..9,
        ranks_seed in 1usize..32,
    ) {
        use milc_dslash::shard::{Partition, HALO_DEPTH};
        let (ls, lt) = (2 * half_ls, 2 * half_lt);
        let lat = Lattice::new([ls, ls, ls, lt]);
        let ranks = 1 + ranks_seed % lt;
        let p = Partition::new(&lat, ranks);
        for r in 0..ranks {
            prop_assert_eq!(p.analytic_ghost_sites(r), 2 * HALO_DEPTH * ls * ls * ls);
            prop_assert!(p.num_ghosts(r) <= p.analytic_ghost_sites(r));
            if p.t_len(r) >= 2 && lt - p.t_len(r) >= 2 * HALO_DEPTH {
                prop_assert_eq!(
                    p.num_ghosts(r),
                    p.analytic_ghost_sites(r),
                    "rank {r} of {ranks} on {:?}",
                    lat.dims()
                );
            }
        }
    }
}

#[test]
fn phased_gauge_still_validates_on_device() {
    // Folding the staggered eta phases into the links (production MILC)
    // must leave every strategy's device result consistent with the CPU
    // reference on the phased field.
    let lat = Lattice::hypercubic(4);
    let gauge = milc_lattice::fold_phases(&GaugeField::<Z>::random(&lat, 60));
    let b = QuarkField::<Z>::random(&lat, 61);
    let mut p = DslashProblem::from_fields(gauge, b, Parity::Even);
    for (s, o, ls) in [
        (Strategy::ThreeLp1, IndexOrder::KMajor, 96),
        (Strategy::FourLp2, IndexOrder::LMajor, 96),
    ] {
        let out = run_config(
            &mut p,
            KernelConfig::new(s, o),
            ls,
            &device(),
            QueueMode::InOrder,
        )
        .unwrap();
        assert!(
            out.error.within_reassociation_noise(),
            "{}: {:?}",
            s.name(),
            out.error
        );
    }
}

// ---------------------------------------------------------------------
// Tracing invariants: random span trees driven through the obs::Tracer
// must always close, keep monotone timestamps, nest children inside
// their parents, and survive the Chrome-JSON round trip bit-exactly.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn span_trees_close_nest_and_round_trip(
        ops in collection::vec((0u8..3, 0usize..4), 1..60)
    ) {
        use milc_dslash::obs::{parse_chrome, write_chrome, Tracer};

        let tracer = Tracer::new();
        let tracks = ["gpu", "cg", "tune", "io"];
        let mut stack = Vec::new();
        for (i, &(op, t)) in ops.iter().enumerate() {
            match op {
                // Open a span (bounded depth so trees stay readable).
                0 if stack.len() < 8 => {
                    let g = tracer.span_on(tracks[t], &format!("s{i}"));
                    g.attr("i", i as u64);
                    stack.push(g);
                }
                // Close the innermost open span.
                1 => { stack.pop(); }
                // A counter sample between spans.
                _ => tracer.counter(tracks[t], i as f64),
            }
        }
        // Close the remaining spans innermost-first (LIFO), the
        // scope-guard discipline every instrumented call site follows.
        while let Some(g) = stack.pop() {
            drop(g);
        }

        // Every opened span closed.
        prop_assert_eq!(tracer.open_spans(), 0);
        let trace = tracer.snapshot();

        // Timestamps are monotone and self-consistent.
        for s in &trace.spans {
            prop_assert!(s.dur_us >= 0.0);
            prop_assert!(s.end_us() >= s.start_us);
        }
        let mut by_seq = trace.spans.clone();
        by_seq.sort_by_key(|s| s.seq);
        for w in by_seq.windows(2) {
            prop_assert!(
                w[1].start_us >= w[0].start_us,
                "open order must be non-decreasing in time"
            );
        }
        for w in trace.counters.windows(2) {
            prop_assert!(w[1].ts_us >= w[0].ts_us);
        }

        // Every nested span lies inside some span one level up.
        for s in trace.spans.iter().filter(|s| s.depth > 0) {
            let contained = trace.spans.iter().any(|p| {
                p.depth + 1 == s.depth
                    && p.seq < s.seq
                    && p.start_us <= s.start_us
                    && s.end_us() <= p.end_us()
            });
            prop_assert!(contained, "span {} (depth {}) has no parent", s.name, s.depth);
        }

        // Chrome export/import is lossless.
        let parsed = parse_chrome(&write_chrome(&trace)).expect("round trip");
        prop_assert_eq!(parsed.spans, trace.spans);
        prop_assert_eq!(parsed.counters, trace.counters);
    }
}

// ---------------------------------------------------------------------
// Static-analysis invariants: the fitted footprint model must
// reproduce the dynamic event streams of the lanes it probed, the
// static race verdict must agree with the dynamic racecheck on clean
// *and* broken kernels, and the static traffic prediction must equal
// the dynamic architectural counters exactly.

/// Strategies that are legal on a 2^4 lattice (half-volume 8), each
/// with a legal local size.
const STATIC_CONFIGS: [(Strategy, IndexOrder, u32); 5] = [
    (Strategy::TwoLp, IndexOrder::KMajor, 24),
    (Strategy::ThreeLp1, IndexOrder::KMajor, 96),
    (Strategy::ThreeLp2, IndexOrder::IMajor, 96),
    (Strategy::ThreeLp3, IndexOrder::KMajor, 96),
    (Strategy::FourLp2, IndexOrder::IMajor, 96),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every `(group, block, residue)` point the analyzer probed,
    /// re-running the lane dynamically must produce *exactly* the event
    /// stream the fitted model predicts — the affine/gather forms
    /// round-trip the observations they were fitted from, address by
    /// address.
    #[test]
    fn static_footprints_reproduce_probed_lane_streams(
        seed in 0u64..200,
        idx in 0usize..STATIC_CONFIGS.len(),
    ) {
        use gpu_sim::sharedmem::LocalMem;
        use gpu_sim::staticcheck::PhaseModel;
        use gpu_sim::{build_launch_model, Lane};

        let (s, o, ls) = STATIC_CONFIGS[idx];
        let p = DslashProblem::<Z>::random(2, seed);
        let cfg = KernelConfig::new(s, o);
        let range = p.launch_range(cfg, ls);
        let kernel = p.make_kernel(cfg, range.num_groups());
        let dev = DeviceSpec::a100();
        let model = build_launch_model(kernel.as_ref(), &range, &dev, p.memory());
        let res = kernel.resources(range.local);
        let mut local_mem = LocalMem::new(res.local_mem_bytes_per_group);
        for (phase, pm) in model.phases.iter().enumerate() {
            prop_assert!(
                matches!(pm, PhaseModel::Uniform(_)),
                "{} phase {phase} unexpectedly irregular", s.name()
            );
            for &grp in &model.probed_groups {
                for &blk in &model.probed_blocks {
                    for q in 0..model.q_len {
                        let lid = blk as u32 * model.q_len + q;
                        let gid = grp * range.local as u64 + u64::from(lid);
                        let mut events = Vec::new();
                        let mut u32s = Vec::new();
                        {
                            let mut lane = Lane::new_probe(
                                gid, lid, grp, range.local, p.memory(),
                                &mut local_mem, &mut events, &mut u32s,
                            );
                            kernel.run_phase(phase, &mut lane);
                        }
                        let predicted = model
                            .predicted_stream(p.memory(), phase, grp, lid)
                            .expect("uniform phase predicts every lane");
                        prop_assert_eq!(
                            &predicted, &events,
                            "{} phase {} lane (g{}, lid {})", s.name(), phase, grp, lid
                        );
                    }
                }
            }
        }
    }
}

/// The static race verdict and the dynamic racecheck agree in both
/// directions: every shipped configuration is race-free under both,
/// and both convict the two deliberately racy kernels.
#[test]
fn static_and_dynamic_race_verdicts_agree() {
    use gpu_sim::{Kernel, Launcher, NdRange, SanitizerConfig, StaticCheckConfig};
    use milc_dslash::{
        run_config_sanitized, run_config_staticcheck, BrokenBarrierThreeLp1, PlainStoreThreeLp3,
    };

    let dev = DeviceSpec::a100();
    for (s, o, ls) in STATIC_CONFIGS {
        let mut p = DslashProblem::<Z>::random(2, 11);
        let cfg = KernelConfig::new(s, o);
        let srep = run_config_staticcheck(&p, cfg, ls, &dev, &StaticCheckConfig::tuner()).unwrap();
        assert_eq!(
            srep.count_class("race"),
            0,
            "{}: static race findings: {:?}",
            s.name(),
            srep.findings
        );
        let drep = run_config_sanitized(&mut p, cfg, ls, &dev, SanitizerConfig::default()).unwrap();
        assert_eq!(
            drep.sanitizer.as_ref().unwrap().count_class("race"),
            0,
            "{}: dynamic race findings",
            s.name()
        );
    }

    let p = DslashProblem::<Z>::random(2, 12);
    let hv = p.lattice().half_volume() as u64;
    let t = p.tables();
    let racy: [(Box<dyn Kernel>, NdRange); 2] = [
        (
            Box::new(BrokenBarrierThreeLp1::new(t)),
            NdRange::linear(hv * 12, 96),
        ),
        (
            Box::new(PlainStoreThreeLp3::new(t)),
            NdRange::linear(hv * 12, 96),
        ),
    ];
    for (kernel, range) in racy {
        let srep = gpu_sim::staticcheck_analyze(
            kernel.as_ref(),
            &range,
            &dev,
            p.memory(),
            &StaticCheckConfig::default(),
        );
        assert!(
            srep.count_class("race") >= 1,
            "{}: race not proven statically: {:?}",
            kernel.name(),
            srep.findings
        );
        let lrep = Launcher::new(&dev)
            .with_sanitizer(SanitizerConfig::default())
            .launch(kernel.as_ref(), range, p.memory())
            .unwrap();
        assert!(
            lrep.sanitizer.as_ref().unwrap().count_class("race") >= 1,
            "{}: race not caught dynamically",
            kernel.name()
        );
    }
}

// ---------------------------------------------------------------------
// Cost-model invariants: the occupancy calculator must be monotone in
// kernel resources, the static ranking must be a stable total order
// (even with duplicate candidates), and the ranking's head must hold
// the predicted-best candidate — for arbitrary resources and durations.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Occupancy is anti-monotone in resource appetite: asking for more
    /// registers or more shared memory never *raises* residency or
    /// theoretical occupancy, and achieved never exceeds theoretical.
    #[test]
    fn occupancy_is_monotone_in_resources(
        ls_warps in 1u32..=32,
        regs in 16u32..=128,
        lmem in 0u32..64 * 1024,
        extra_regs in 0u32..=64,
        extra_lmem in 0u32..32 * 1024,
        groups in 1u64..10_000,
    ) {
        use gpu_sim::occupancy::occupancy;
        use gpu_sim::KernelResources;

        let dev = DeviceSpec::a100();
        let ls = ls_warps * dev.warp_size;
        let lean = KernelResources {
            registers_per_item: regs,
            local_mem_bytes_per_group: lmem,
        };
        let hungry = KernelResources {
            registers_per_item: regs + extra_regs,
            local_mem_bytes_per_group: lmem + extra_lmem,
        };
        let a = occupancy(&dev, ls, &lean, groups);
        let b = occupancy(&dev, ls, &hungry, groups);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert!(b.groups_per_sm <= a.groups_per_sm);
                prop_assert!(b.warps_per_sm <= a.warps_per_sm);
                prop_assert!(b.theoretical <= a.theoretical + 1e-12);
                prop_assert!(b.waves >= a.waves - 1e-12);
                for o in [a, b] {
                    prop_assert!(o.theoretical > 0.0 && o.theoretical <= 1.0);
                    prop_assert!(o.achieved <= o.theoretical + 1e-12);
                    prop_assert!(o.waves > 0.0);
                }
            }
            // If the lean kernel already exhausts an SM resource, the
            // hungrier one must too — infeasibility is monotone.
            (Err(_), b) => prop_assert!(b.is_err(), "hungrier kernel became feasible"),
            (Ok(_), Err(_)) => {}
        }
    }
}

/// Build a synthetic estimate whose only distinguishing features are a
/// local size and a predicted duration — exactly what the ranking keys
/// on.
fn synthetic_estimate(local_size: u32, duration_us: f64) -> gpu_sim::CostEstimate {
    use gpu_sim::occupancy::occupancy;
    use gpu_sim::{CostEstimate, Counters, KernelResources};
    let dev = DeviceSpec::a100();
    let occ = occupancy(
        &dev,
        64,
        &KernelResources {
            registers_per_item: 32,
            local_mem_bytes_per_group: 0,
        },
        64,
    )
    .unwrap();
    CostEstimate {
        local_size,
        num_groups: 64,
        occupancy: occ,
        counters: Counters::default(),
        cold_counters: Counters::default(),
        footprint_bytes: 0,
        duration_us,
        cold_duration_us: duration_us,
        notes: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `rank_estimates` is a stable total order: sorted by duration with
    /// ties broken toward the smaller local size, invariant under input
    /// permutation, and idempotent — duplicate candidates (same size,
    /// same duration) land adjacent instead of scrambling the order.
    #[test]
    fn ranking_is_a_stable_total_order_under_duplicates(
        base in collection::vec((32u32..=1024, 1.0f64..1e4), 1..12),
        dup_idx in 0usize..12,
    ) {
        use gpu_sim::rank_estimates;

        let mut cands = base.clone();
        // Inject an exact duplicate of one candidate.
        cands.push(base[dup_idx % base.len()]);
        let ests = cands.iter().map(|&(ls, us)| synthetic_estimate(ls, us));
        let ranked = rank_estimates(ests.collect());
        prop_assert_eq!(ranked.len(), cands.len());
        for w in ranked.windows(2) {
            prop_assert!(
                w[0].duration_us < w[1].duration_us
                    || (w[0].duration_us == w[1].duration_us
                        && w[0].local_size <= w[1].local_size),
                "not a total order: ({}, {}) before ({}, {})",
                w[0].local_size, w[0].duration_us, w[1].local_size, w[1].duration_us
            );
        }
        // Permutation invariance (reversed input, same output keys).
        let rev = rank_estimates(
            cands.iter().rev().map(|&(ls, us)| synthetic_estimate(ls, us)).collect(),
        );
        let keys = |v: &[gpu_sim::CostEstimate]| -> Vec<(u32, f64)> {
            v.iter().map(|e| (e.local_size, e.duration_us)).collect()
        };
        prop_assert_eq!(keys(&ranked), keys(&rev));
        // Idempotence.
        prop_assert_eq!(keys(&rank_estimates(ranked.clone())), keys(&ranked));
    }

    /// The ranking's head is the predicted best by construction: for any
    /// candidate set and any K ≥ 1, its first K entries contain the
    /// predicted-best candidate (minimum duration, smallest local size
    /// on ties), and a static sweep, which takes rank #1 among the
    /// proven-clean candidates, selects it whenever it is clean.
    #[test]
    fn top_k_pruning_never_drops_the_predicted_best(
        cands in collection::vec((32u32..=1024, 1.0f64..1e4), 1..16),
        k in 1usize..16,
    ) {
        use gpu_sim::rank_estimates;

        let ranked = rank_estimates(
            cands.iter().map(|&(ls, us)| synthetic_estimate(ls, us)).collect(),
        );
        let best_us = cands.iter().map(|&(_, us)| us).fold(f64::INFINITY, f64::min);
        let best_ls = cands
            .iter()
            .filter(|&&(_, us)| us == best_us)
            .map(|&(ls, _)| ls)
            .min()
            .unwrap();
        let timed = &ranked[..k.min(ranked.len())];
        prop_assert!(
            timed.iter().any(|e| e.local_size == best_ls && e.duration_us == best_us),
            "top-{k} dropped the predicted best ({best_ls} @ {best_us})"
        );
    }
}

// ---------------------------------------------------------------------
// Local-memory layout invariants: every tunable-family layout is a
// bijection onto disjoint 16-byte element blocks (no aliasing for any
// parameter), the bank model is invariant under warp-uniform word
// shifts (the translation lemma the static bank-conflict proof rests
// on), and the symbolic proof's wavefront totals equal the executed
// launch's counters exactly for every layout.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any layout in the tunable families maps a work-group's element
    /// range monotonically with ≥ 16-byte gaps — distinct elements
    /// occupy disjoint blocks, so no two work-items' local slots alias,
    /// whatever the stride/xor parameters.
    #[test]
    fn shared_layouts_never_alias(
        stride in 4u32..9,
        xor_bits in 0u32..5,
        elems in 1u32..=1024,
    ) {
        use milc_dslash::SharedLayout;
        for layout in [
            SharedLayout::Flat,
            SharedLayout::Padded { stride_elems: stride },
            SharedLayout::Swizzled { xor_bits },
        ] {
            let mut prev_end = 0u32;
            for e in 0..elems {
                let off = layout.offset(e);
                prop_assert_eq!(off % 4, 0, "{} element {e} not word-aligned", layout.tag());
                prop_assert!(
                    off >= prev_end,
                    "{} element {e} at {off} overlaps previous end {prev_end}",
                    layout.tag()
                );
                prev_end = off + 16;
            }
            prop_assert_eq!(layout.required_bytes(elems), prev_end);
        }
    }

    /// The dynamic bank model is invariant under a warp-uniform word
    /// shift: adding the same word delta to every lane rotates banks,
    /// permuting collisions without changing the wavefront or ideal
    /// counts.  This is the translation lemma that lets the static
    /// bank-conflict proof evaluate each access pattern once and
    /// multiply by its occurrence count across the ND-range.
    #[test]
    fn bank_model_is_invariant_under_uniform_word_shifts(
        words in collection::vec(0u32..256, 1..33),
        shift_words in 0u32..512,
        bytes_sel in 0usize..3,
    ) {
        use gpu_sim::sharedmem::model_shared_instruction;
        let bytes = [4u8, 8, 16][bytes_sel];
        let base: Vec<(u32, u8)> = words.iter().map(|&w| (w * 4, bytes)).collect();
        let shifted: Vec<(u32, u8)> =
            words.iter().map(|&w| ((w + shift_words) * 4, bytes)).collect();
        let a = model_shared_instruction(&base, 32, 4);
        let b = model_shared_instruction(&shifted, 32, 4);
        prop_assert_eq!(a, b, "shift by {shift_words} words changed the model");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The static bank-conflict proof computes the *exact* shared-memory
    /// wavefront totals of the launch — actual and ideal — through
    /// every layout, including the XOR swizzle, with no dynamic
    /// fallback: randomized field seeds never perturb it (the proof is
    /// value-blind), and the executed launch's counters match word for
    /// word.
    #[test]
    fn static_bank_proof_matches_dynamic_wavefronts(
        seed in 0u64..100,
        layout_idx in 0usize..3,
        cfg_idx in 0usize..4,
    ) {
        use gpu_sim::StaticCheckConfig;
        use milc_dslash::{run_config_staticcheck, SharedLayout};

        let (s, o, ls) = [
            (Strategy::ThreeLp1, IndexOrder::KMajor, 96),
            (Strategy::ThreeLp2, IndexOrder::IMajor, 96),
            (Strategy::FourLp2, IndexOrder::IMajor, 96),
            // One partial warp per group.
            (Strategy::ThreeLp1, IndexOrder::KMajor, 12),
        ][cfg_idx];
        let layout = SharedLayout::TUNABLE[layout_idx];
        let mut p = DslashProblem::<Z>::random(2, seed);
        let cfg = KernelConfig::new(s, o).with_layout(layout);
        let dev = DeviceSpec::a100();
        let srep = run_config_staticcheck(&p, cfg, ls, &dev, &StaticCheckConfig::full()).unwrap();
        let proof = srep.bank_proof.unwrap_or_else(|| {
            panic!("{} {}: no bank proof: {:?}", s.name(), layout.tag(), srep.notes)
        });
        let out = run_config(&mut p, cfg, ls, &dev, QueueMode::InOrder).unwrap();
        prop_assert_eq!(
            proof.shared_wavefronts, out.report.counters.shared_wavefronts,
            "{} {}: proved wavefronts diverge", s.name(), layout.tag()
        );
        prop_assert_eq!(
            proof.shared_wavefronts_ideal, out.report.counters.shared_wavefronts_ideal,
            "{} {}: proved ideal diverges", s.name(), layout.tag()
        );
        prop_assert_eq!(proof.local_instructions, out.report.counters.local_instructions);
    }
}

/// The whole-launch traffic prediction is not a model of the dynamic
/// replay — it *is* the dynamic replay, reached without executing the
/// kernel: all predicted counters must equal the executed launch's
/// exactly.
#[test]
fn static_traffic_prediction_matches_dynamic_counters_exactly() {
    use gpu_sim::{StaticCheckConfig, TrafficPrediction};
    use milc_dslash::run_config_staticcheck;

    let dev = DeviceSpec::a100();
    for (s, o, ls) in STATIC_CONFIGS {
        let mut p = DslashProblem::<Z>::random(2, 13);
        let cfg = KernelConfig::new(s, o);
        let srep = run_config_staticcheck(&p, cfg, ls, &dev, &StaticCheckConfig::full()).unwrap();
        let predicted = srep
            .traffic
            .unwrap_or_else(|| panic!("{}: no prediction: {:?}", s.name(), srep.notes));
        let out = run_config(&mut p, cfg, ls, &dev, QueueMode::InOrder).unwrap();
        assert_eq!(
            predicted.rows(),
            TrafficPrediction::dynamic_rows(&out.report.counters),
            "{}: predicted traffic must equal the executed launch",
            s.name()
        );
    }
}

/// A synthetic estimate with distinct warm and cold durations — the
/// shape `estimate_stream` and the regime calibration consume.
fn regime_estimate(duration_us: f64, cold_us: f64) -> gpu_sim::CostEstimate {
    let mut e = synthetic_estimate(64, duration_us);
    e.cold_duration_us = cold_us;
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver-stream estimate is monotone in the application count
    /// (more applies, more time), empty at zero applies, and its launch
    /// accounting is exact: `kernels × applies` launches of which one
    /// per kernel is cold.
    #[test]
    fn stream_estimate_is_monotone_in_applications(
        warm1 in 1.0f64..500.0,
        warm2 in 1.0f64..500.0,
        cold_factor in 1.0f64..3.0,
        n1 in 1u64..300,
        dn in 1u64..300,
    ) {
        use gpu_sim::{estimate_stream, RegimeCalibration};
        let cal = RegimeCalibration::committed();
        let k1 = regime_estimate(warm1, warm1 * cold_factor);
        let k2 = regime_estimate(warm2, warm2 * cold_factor);
        let kernels = [&k1, &k2];

        let zero = estimate_stream(&kernels, 0, &cal);
        prop_assert_eq!(zero.launches, 0);
        prop_assert_eq!(zero.cold_launches, 0);
        prop_assert_eq!(zero.duration_us, 0.0);
        prop_assert_eq!(zero.calibrated_us, 0.0);

        let a = estimate_stream(&kernels, n1, &cal);
        let b = estimate_stream(&kernels, n1 + dn, &cal);
        prop_assert_eq!(a.launches, 2 * n1);
        prop_assert_eq!(a.cold_launches, 2);
        prop_assert_eq!(b.launches, 2 * (n1 + dn));
        prop_assert!(b.duration_us > a.duration_us,
            "{} applies: {} µs, {} applies: {} µs",
            n1, a.duration_us, n1 + dn, b.duration_us);
        prop_assert!(b.calibrated_us > a.calibrated_us);
        // The stream is exactly cold + (n-1)·warm per kernel.
        let expect = (warm1 * cold_factor + warm2 * cold_factor)
            + (n1 - 1) as f64 * (warm1 + warm2);
        prop_assert!((a.duration_us - expect).abs() < 1e-6 * expect.max(1.0));
    }

    /// Real estimates never price a cold launch below a warm one — the
    /// cold counter set only *adds* compulsory misses — and the
    /// amortized per-launch duration decays monotonically from the cold
    /// estimate toward the warm one as launches accumulate.
    #[test]
    fn cold_estimates_dominate_warm_on_real_kernels(
        seed in 0u64..100,
        cfg_idx in 0usize..3,
        n in 1u64..1000,
    ) {
        use milc_dslash::estimate_config;
        let (s, o, ls) = [
            (Strategy::ThreeLp1, IndexOrder::KMajor, 96),
            (Strategy::ThreeLp2, IndexOrder::IMajor, 96),
            (Strategy::FourLp2, IndexOrder::IMajor, 96),
        ][cfg_idx];
        let p = DslashProblem::<Z>::random(2, seed);
        let cfg = KernelConfig::new(s, o);
        let est = estimate_config(&p, cfg, ls, &DeviceSpec::a100())
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        prop_assert!(est.cold_duration_us >= est.duration_us,
            "{}: cold {} µs below warm {} µs",
            cfg.label(), est.cold_duration_us, est.duration_us);
        prop_assert!(
            est.cold_counters.l2_sector_misses >= est.counters.l2_sector_misses,
            "{}: cold launch predicted fewer L2 misses", cfg.label()
        );
        // Amortization interpolates: warm ≤ amortized(n+1) ≤ amortized(n) ≤ cold.
        let a_n = est.amortized_duration_us(n);
        let a_n1 = est.amortized_duration_us(n + 1);
        prop_assert!(a_n <= est.cold_duration_us + 1e-12);
        prop_assert!(a_n1 <= a_n + 1e-12);
        prop_assert!(est.duration_us <= a_n1 + 1e-12);
    }

    /// `static_rank_order` is a total order: the ranking — winner
    /// included — is invariant under any permutation of the candidate
    /// list, so a measurement-free sweep cannot be steered by
    /// enumeration order.
    #[test]
    fn static_rank_order_is_permutation_invariant(
        cands in collection::vec((0usize..4, 0usize..5, 1.0f64..1000.0), 1..12),
    ) {
        use milc_dslash::tune::static_rank_order;
        use milc_dslash::SharedLayout;
        let layouts = [
            SharedLayout::Flat,
            SharedLayout::TUNABLE[0],
            SharedLayout::TUNABLE[1],
            SharedLayout::TUNABLE[2],
        ];
        const SIZES: [u32; 5] = [32, 64, 96, 128, 256];
        let build = |v: &[(usize, usize, f64)]| -> Vec<(SharedLayout, u32, f64)> {
            v.iter()
                .map(|&(li, si, us)| (layouts[li], SIZES[si], us))
                .collect()
        };
        let mut sorted = build(&cands);
        static_rank_order(&mut sorted);
        let mut reversed: Vec<_> = build(&cands).into_iter().rev().collect();
        static_rank_order(&mut reversed);
        for (a, b) in sorted.iter().zip(&reversed) {
            prop_assert_eq!(a.0.tag(), b.0.tag());
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
        }
    }
}

/// A v1 cache file (pre-regime schema) must be *rejected by version* —
/// never silently misread into regime-less keys — and the rejection is
/// recoverable: the tuner starts fresh and can save a v3 cache over it.
#[test]
fn v1_cache_file_is_rejected_then_recovered() {
    use milc_dslash::tune::{LoadOutcome, TUNECACHE_VERSION};
    let path =
        std::env::temp_dir().join(format!("static_tune_v1_cache_{}.json", std::process::id()));
    // A plausible v1 file: version 1, entries without a regime field.
    std::fs::write(
        &path,
        r#"{"version": 1, "entries": [{"key": {"device_hash": 1, "dims": [4,4,4,4],
            "kernel": "1LP", "sanitized": false}, "local_size": 32,
            "layout": "flat", "duration_us": 10.0, "gflops": 1.0,
            "candidates_ok": 4, "candidates_rejected": 0}]}"#,
    )
    .unwrap();

    let (cache, outcome) = TuneCache::load(&path);
    assert_eq!(outcome, LoadOutcome::VersionMismatch { found: 1 });
    assert_eq!(cache.len(), 0, "a stale-version cache must load empty");

    // Recovery: a fresh cache saves over the stale file at the current
    // version, and both regimes round-trip through it.
    let mut cache = cache;
    for (i, regime) in [TuneRegime::Warm, TuneRegime::Cold].into_iter().enumerate() {
        let mut e = make_entry(7, 4, 0, false, 32, 10.0 + i as f64);
        e.key.regime = regime;
        cache.insert(e);
    }
    assert_eq!(cache.len(), 2, "warm and cold are distinct keys");
    cache.save(&path).unwrap();
    let (back, outcome) = TuneCache::load(&path);
    assert_eq!(outcome, LoadOutcome::Loaded(2));
    for (i, regime) in [TuneRegime::Warm, TuneRegime::Cold].into_iter().enumerate() {
        let mut key = make_entry(7, 4, 0, false, 32, 1.0).key;
        key.regime = regime;
        let entry = back
            .lookup(&key)
            .unwrap_or_else(|| panic!("{regime:?} entry lost in the roundtrip"));
        assert_eq!(entry.duration_us, 10.0 + i as f64);
    }
    const { assert!(TUNECACHE_VERSION > 1) };
    std::fs::remove_file(&path).ok();
}
