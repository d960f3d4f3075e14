//! Per-layer accounting for traced runs: host time per layer, the
//! simulator's work counts, and the per-layer metric list every traced
//! run reports.
//!
//! Time is measured from outside each layer, around calls into public
//! functions of `gpu-sim` and `milc-dslash`; nothing inside the program
//! is instrumented.  Times are reported as shares of the traced measured
//! phase, so a layer a workload never enters reads 0% rather than a
//! made-up duration.

use crate::mirror::SampledCosts;
use gpu_sim::Counters;
use milc_complex::DoubleComplex as Z;
use milc_dslash::{cpu_opt, parallel_cpu, reference, DslashProblem};
use milc_lattice::{ColorVector, GaugeField, NeighborTable, Parity, QuarkField};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A layer whose host time a traced run accounts separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// gpu-sim `kernel`: lanes executing a phase (`Kernel::run_phase`).
    Lane,
    /// gpu-sim `warp`: `replay_warp`, with coalescing, caches, banks and
    /// atomics inside it.
    Warp,
    /// gpu-sim `engine`, `occupancy`, `timing`: the rest of a launch.
    Engine,
    /// core `problem`: packing sources, zeroing and reading the output.
    Problem,
    /// core `validate`: comparing against the CPU reference.
    Validate,
    /// core `solver`: CG vector updates and parity scatters.
    Solver,
    /// gpu-sim `sanitizer::lint`.
    Lint,
    /// gpu-sim `staticcheck` proofs (core `run_config_staticcheck`).
    Staticcheck,
    /// gpu-sim `staticcheck::costmodel` (core `rank_candidates`).
    Costmodel,
}

const LAYERS: [(Layer, &str); 9] = [
    (Layer::Lane, "lane.share_pct"),
    (Layer::Warp, "warp.share_pct"),
    (Layer::Engine, "engine.other_share_pct"),
    (Layer::Problem, "problem.share_pct"),
    (Layer::Validate, "validate.share_pct"),
    (Layer::Solver, "solver.share_pct"),
    (Layer::Lint, "lint.share_pct"),
    (Layer::Staticcheck, "staticcheck.share_pct"),
    (Layer::Costmodel, "costmodel.share_pct"),
];

/// Every per-layer metric a traced run prints, with its unit, in output
/// order.  `BENCHMARK.json` lists the same names and units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.pass_s", "s"),
    ("problem.pack_ms", "ms"),
    ("cpu.reference_ms", "ms"),
    ("cpu.parallel_ms", "ms"),
    ("cpu.opt_ms", "ms"),
    ("lane.share_pct", "%"),
    ("warp.share_pct", "%"),
    ("engine.other_share_pct", "%"),
    ("problem.share_pct", "%"),
    ("validate.share_pct", "%"),
    ("solver.share_pct", "%"),
    ("lint.share_pct", "%"),
    ("staticcheck.share_pct", "%"),
    ("costmodel.share_pct", "%"),
    ("other.share_pct", "%"),
    ("coalesce.est_share_pct", "%"),
    ("cache.est_share_pct", "%"),
    ("sharedmem.est_share_pct", "%"),
    ("atomics.est_share_pct", "%"),
    ("engine.mirror_gap_pct", "%"),
    ("tune.coverage_pct", "%"),
    ("staticcheck.probe_pct", "%"),
    ("engine.sim_winstr_per_s", "1/s"),
    ("engine.launches", "count"),
    ("lane.events", "count"),
    ("warp.instructions", "count"),
    ("warp.replayed_instructions", "count"),
    ("warp.divergent_branches", "count"),
    ("coalesce.sector_requests", "count"),
    ("cache.l1_tag_requests", "count"),
    ("cache.l1_sector_misses", "count"),
    ("cache.l2_sector_misses", "count"),
    ("sharedmem.excessive_wavefronts", "count"),
    ("atomics.passes", "count"),
    ("solver.applies", "count"),
    ("solver.iterations", "count"),
    ("tune.candidates", "count"),
    ("tune.gate_rejects", "count"),
    ("staticcheck.probes", "count"),
    ("staticcheck.residues", "count"),
    ("costmodel.estimates", "count"),
];

/// Host time per layer plus the simulator's work counts, accumulated
/// over a traced run's measured passes.
#[derive(Default)]
pub struct Layers {
    time: [Duration; LAYERS.len()],
    /// Launches simulated.
    pub launches: u64,
    /// Events the lanes recorded.
    pub lane_events: u64,
    /// Counters of every simulated launch, merged.
    pub counters: Counters,
}

impl Layers {
    /// Charge `d` to `layer`.
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.time[layer as usize] += d;
    }

    /// Run `f`, charging its duration to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Host seconds charged to `layer` so far.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.time[layer as usize].as_secs_f64()
    }

    /// Host seconds spent inside simulated launches.
    pub fn launch_seconds(&self) -> f64 {
        self.seconds(Layer::Lane) + self.seconds(Layer::Warp) + self.seconds(Layer::Engine)
    }

    /// Simulated warp instructions per host second of launch time.
    pub fn sim_winstr_per_s(&self) -> f64 {
        let launch_s = self.launch_seconds();
        if launch_s > 0.0 {
            self.counters.warp_instructions as f64 / launch_s
        } else {
            0.0
        }
    }
}

/// The per-layer report of one traced run, keyed by metric name.
#[derive(Default)]
pub struct LayerReport(BTreeMap<&'static str, f64>);

impl LayerReport {
    /// Set a metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Record the median traced pass, each layer's share of the measured
    /// phase whose passes took `pass_s`, the simulator's per-pass counts,
    /// and the sampled replay sub-model shares.
    pub fn record_layers(
        &mut self,
        layers: &Layers,
        pass_s: &[f64],
        sampled: &SampledCosts,
    ) -> Result<(), String> {
        self.set(
            "trace.pass_s",
            crate::stats::median(pass_s).map_err(|e| e.to_string())?,
        );
        let total_s: f64 = pass_s.iter().sum();
        let passes = pass_s.len();
        let pct = |s: f64| 100.0 * s / total_s;
        let mut attributed = 0.0;
        for (layer, name) in LAYERS {
            let s = layers.seconds(layer);
            attributed += s;
            self.set(name, pct(s));
        }
        self.set("other.share_pct", pct((total_s - attributed).max(0.0)));

        let per_pass = |n: u64| n as f64 / passes as f64;
        let c = &layers.counters;
        let est = |ns: Option<f64>, calls: u64| pct(ns.unwrap_or(0.0) * 1e-9 * calls as f64);
        self.set(
            "coalesce.est_share_pct",
            est(
                sampled.coalesce_ns,
                c.global_load_instructions + c.global_store_instructions + c.atomic_instructions,
            ),
        );
        self.set(
            "cache.est_share_pct",
            est(sampled.cache_ns, c.l1_tag_requests_global),
        );
        self.set(
            "sharedmem.est_share_pct",
            est(sampled.shared_ns, c.local_instructions),
        );
        self.set(
            "atomics.est_share_pct",
            est(sampled.atomic_ns, c.atomic_instructions),
        );
        self.set("engine.sim_winstr_per_s", layers.sim_winstr_per_s());
        self.set("engine.launches", per_pass(layers.launches));
        self.set("lane.events", per_pass(layers.lane_events));
        self.set("warp.instructions", per_pass(c.warp_instructions));
        self.set(
            "warp.replayed_instructions",
            per_pass(c.replayed_instructions),
        );
        self.set("warp.divergent_branches", per_pass(c.divergent_branches));
        self.set("coalesce.sector_requests", per_pass(c.l1_sector_requests));
        self.set("cache.l1_tag_requests", per_pass(c.l1_tag_requests_global));
        self.set("cache.l1_sector_misses", per_pass(c.l1_sector_misses));
        self.set("cache.l2_sector_misses", per_pass(c.l2_sector_misses));
        self.set(
            "sharedmem.excessive_wavefronts",
            per_pass(c.excessive_shared_wavefronts()),
        );
        self.set("atomics.passes", per_pass(c.atomic_passes));
        Ok(())
    }

    /// Every declared metric in [`PER_LAYER`] order; unset ones are 0,
    /// the count or share of a layer the workload never enters.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, self.0.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// Median host milliseconds of five calls of `f`.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples).expect("five samples")
}

/// Time building and packing a `DslashProblem` at lattice extent `l`.
pub fn record_pack(report: &mut LayerReport, l: usize, seed: u64) {
    report.set(
        "problem.pack_ms",
        median_ms(|| {
            std::hint::black_box(DslashProblem::<Z>::random(l, seed));
        }),
    );
}

/// Time one Dslash of `parity` on the workload's own fields through each
/// of the three CPU paths, so a choice between them can rest on every
/// workload's lattice.
pub fn record_cpu_paths(
    report: &mut LayerReport,
    gauge: &GaugeField<Z>,
    b: &QuarkField<Z>,
    parity: Parity,
) {
    let nt = NeighborTable::build(gauge.lattice());
    let mut out = vec![ColorVector::zero(); gauge.lattice().half_volume()];
    report.set(
        "cpu.reference_ms",
        median_ms(|| {
            std::hint::black_box(reference::dslash(gauge, b, parity));
        }),
    );
    report.set(
        "cpu.parallel_ms",
        median_ms(|| parallel_cpu::dslash_par_into(gauge, b, &nt, parity, &mut out)),
    );
    report.set(
        "cpu.opt_ms",
        median_ms(|| cpu_opt::dslash_opt_into(gauge, b, &nt, parity, &mut out)),
    );
    std::hint::black_box(&out);
}
