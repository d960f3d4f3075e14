//! Golden shape test for the tracing subsystem: a small-lattice Table I
//! run under an ambient tracer must produce exactly the span tree
//! pinned in `tests/snapshots/trace_golden.txt` — same tracks, same
//! span names, same nesting, same order.  Durations and counter values
//! are deliberately NOT pinned (they move with every perf-model change;
//! `tests/tune_golden.rs` and the `perfdiff` gate own those) — this
//! test owns the *instrumentation*: a dropped span, a renamed track or
//! a lost nesting level fails here.
//!
//! **Updating the snapshot** (after an *intentional* instrumentation
//! change):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test trace_golden
//! ```
//!
//! then review the diff of `tests/snapshots/trace_golden.txt` — every
//! added/removed line is a span appearing in/disappearing from every
//! timeline users load into Perfetto.

use milc_bench::snapshot::check_golden;
use milc_bench::{table1_outcomes, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::obs;
use milc_dslash::DslashProblem;

const L: usize = 8;
const SEED: u64 = 2024;

/// Run the twelve Table I configurations under a tracer, as
/// `table1 --trace` does, and return the recorded trace.
fn traced_table1() -> obs::Trace {
    let exp = Experiment::new(L, SEED);
    let mut problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
    let tracer = obs::Tracer::new();
    {
        let _scope = obs::set_tracer(&tracer);
        let root = obs::span_on("table1", "table1.run");
        root.attr("lattice_l", L as u64);
        let _ = table1_outcomes(&exp, &mut problem);
        drop(root);
    }
    assert_eq!(tracer.open_spans(), 0, "every opened span must close");
    tracer.snapshot()
}

#[test]
fn table1_trace_shape_matches_the_golden_snapshot() {
    check_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/trace_golden.txt"
        ),
        &traced_table1().shape(),
    );
}

#[test]
fn table1_trace_has_one_track_per_config_plus_counters() {
    let trace = traced_table1();
    // "table1" (the root) + one track per distinct Table I config label.
    assert_eq!(trace.tracks().len(), 13, "tracks: {:?}", trace.tracks());
    // The counter tracks record_launch emits for every launch.
    for want in ["SM throughput %", "L1 miss %", "L2 miss %"] {
        assert!(
            trace.counter_tracks().contains(&want),
            "missing counter track {want:?}: {:?}",
            trace.counter_tracks()
        );
    }
    // Every launch span carries the Table I counter attributes.
    let launch_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == "launch").collect();
    assert_eq!(launch_spans.len(), 12, "one timed launch per config");
    for s in &launch_spans {
        for key in [
            "config",
            "duration_us",
            "host_wall_us",
            "occupancy_pct",
            "l1_miss_pct",
            "l2_miss_pct",
            "sm_throughput_pct",
            "l1_tag_requests_global",
            "atomic_passes",
        ] {
            assert!(s.attr(key).is_some(), "launch span lacks attr {key:?}");
        }
    }
}

#[test]
fn chrome_export_round_trips_the_table1_trace() {
    let trace = traced_table1();
    let text = obs::write_chrome(&trace);
    let parsed = obs::parse_chrome(&text).expect("emitted JSON must re-parse");
    assert_eq!(parsed.spans, trace.spans);
    assert_eq!(parsed.counters, trace.counters);
}

/// Tracing must be pay-for-what-you-use: with no ambient tracer the
/// instrumented paths record nothing and change nothing — identical
/// device launches (counters and modelled duration are deterministic)
/// and identical allocations.
#[test]
fn disabled_tracing_adds_zero_launches_and_zero_allocations() {
    let run = |traced: bool| {
        let exp = Experiment::new(L, SEED);
        let mut problem = DslashProblem::<DoubleComplex>::random(L, exp.seed);
        let tracer = obs::Tracer::new();
        let outcomes = if traced {
            let _scope = obs::set_tracer(&tracer);
            table1_outcomes(&exp, &mut problem)
        } else {
            table1_outcomes(&exp, &mut problem)
        };
        let allocs = problem.memory().allocations().count();
        let reports: Vec<_> = outcomes
            .into_iter()
            .map(|(label, out)| (label, out.report.counters, out.report.duration_us))
            .collect();
        (reports, allocs, tracer)
    };

    let (untraced, allocs_untraced, silent_tracer) = run(false);
    let (traced, allocs_traced, _) = run(true);

    // No ambient tracer => nothing recorded, no metrics side channel.
    assert_eq!(silent_tracer.closed_spans(), 0);
    assert_eq!(silent_tracer.open_spans(), 0);

    // The device work is bit-identical either way: same launch count,
    // same architectural counters, same modelled time, same allocations.
    assert_eq!(untraced.len(), traced.len());
    for ((l0, c0, d0), (l1, c1, d1)) in untraced.iter().zip(&traced) {
        assert_eq!(l0, l1);
        assert_eq!(c0, c1, "{l0}: counters must not change under tracing");
        assert_eq!(d0, d1, "{l0}: modelled duration must not change");
    }
    assert_eq!(allocs_untraced, allocs_traced);
}
