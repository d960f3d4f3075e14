//! Regenerates Table I: the Nsight-Compute-style profile of the twelve
//! kernel configurations (local size 768; 256 for 1LP), side by side
//! with the paper's published values.
//!
//! Usage: `cargo run -p milc-bench --bin table1 --release [L] [--trace PATH]`
//! (default L = 16 on the volume-matched device; `table1 32` runs the
//! full paper scale on the unscaled A100 model).  L must be a power of
//! two >= 8 for the paper's local sizes to launch; a bad L or flag
//! exits 2.
//! Writes `results/table1.csv`; with `--trace` also a
//! Perfetto-loadable Chrome trace of the run at PATH plus a Prometheus
//! metrics snapshot at `results/metrics.txt`.

use milc_bench::{
    aggregate_counters, flag_value, paper, paper_lattice, provenance, table1_csv, table1_outcomes,
    table1_profiles, usage_error, Experiment,
};
use milc_complex::DoubleComplex;
use milc_dslash::obs;
use milc_dslash::DslashProblem;

const USAGE: &str = "table1 [L] [--trace PATH]";

fn main() {
    let mut l: usize = 16;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace_path = Some(flag_value(&mut args, "--trace", USAGE)),
            other => l = paper_lattice(other).unwrap_or_else(|e| usage_error(&e, USAGE)),
        }
    }
    let exp = Experiment::new(l, 2024);
    eprintln!(
        "Table I profile: L = {l} on {} ({} SMs)",
        exp.device.name, exp.device.num_sms
    );
    eprintln!("packing problem ...");
    let mut problem = DslashProblem::<DoubleComplex>::random(l, exp.seed);

    // With --trace, install an ambient tracer + metrics registry for
    // the duration of the run; without it the instrumented code paths
    // see no tracer and record nothing.
    let tracer = obs::Tracer::new();
    let metrics = obs::Metrics::new();
    let scopes = trace_path.as_ref().map(|_| {
        let tracer_scope = obs::set_tracer(&tracer);
        let metrics_scope = obs::set_metrics(&metrics);
        let root = obs::span_on("table1", "table1.run");
        root.attr("lattice_l", l as u64);
        root.attr("device", exp.device.name);
        root.attr("command", provenance::command_line());
        root.attr("git", provenance::git_sha());
        (tracer_scope, metrics_scope, root)
    });

    eprintln!("profiling 12 configurations ...");
    let outcomes = table1_outcomes(&exp, &mut problem);
    let profiles = table1_profiles(&exp, &outcomes);

    if let Some((tracer_scope, metrics_scope, root)) = scopes {
        let totals = aggregate_counters(outcomes.iter().map(|(_, out)| &out.report));
        root.attr("total_flops", totals.flops);
        root.attr("total_warp_instructions", totals.warp_instructions);
        root.attr("total_l1_tag_requests", totals.l1_tag_requests_global);
        root.attr("configs", outcomes.len() as u64);
        drop(root);
        drop(tracer_scope);
        drop(metrics_scope);

        let path = trace_path.as_ref().expect("scopes imply a path");
        let trace = tracer.snapshot();
        let text = obs::write_chrome(&trace);
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create trace dir");
            }
        }
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));

        // Round-trip the emitted JSON through our own parser: the file
        // is only reported as written if it parses back to the same
        // spans (the Perfetto-compat contract the golden test pins).
        let parsed = obs::parse_chrome(&text).expect("emitted trace must re-parse");
        assert_eq!(parsed.spans.len(), trace.spans.len());
        assert_eq!(parsed.counters.len(), trace.counters.len());
        eprintln!(
            "trace: {} spans on {} tracks, {} counter samples on {} counter tracks -> {path}",
            trace.spans.len(),
            trace.tracks().len(),
            trace.counters.len(),
            trace.counter_tracks().len(),
        );

        std::fs::create_dir_all("results").expect("create results dir");
        let snapshot = format!(
            "{}{}",
            provenance::header_comment(&exp.device),
            metrics.render_prometheus()
        );
        std::fs::write("results/metrics.txt", snapshot).expect("write results/metrics.txt");
        eprintln!(
            "metrics: {} series -> results/metrics.txt",
            metrics.series_count()
        );
    }

    println!("\n=== Table I (simulated) ===\n");
    println!("{}", gpu_sim::profile::render_table(&profiles));

    // Counter magnitudes scale with the simulated volume; scale them to
    // A100-equivalents for the side-by-side columns.
    let count_scale = 1.0 / exp.volume_ratio;
    println!("=== paper vs measured (key rows) ===\n");
    println!(
        "{:12} {:>12} {:>12} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>9} {:>9}",
        "config",
        "paper µs",
        "sim µs",
        "occ p",
        "occ s",
        "L1m p",
        "L1m s",
        "L2m p",
        "L2m s",
        "tags p",
        "tags s"
    );
    for (col, prof) in paper::TABLE1.iter().zip(&profiles) {
        println!(
            "{:12} {:>12.1} {:>12.1} | {:>7.1} {:>7.1} | {:>7.1} {:>7.1} | {:>7.1} {:>7.1} | {:>8.0}M {:>8.0}M",
            prof.label,
            col.duration_us,
            prof.duration_us,
            col.occupancy_pct,
            prof.occupancy_pct,
            col.l1_miss_pct,
            prof.l1_miss_pct,
            col.l2_miss_pct,
            prof.l2_miss_pct,
            col.l1_tag_requests / 1e6,
            prof.l1_tag_requests as f64 * count_scale / 1e6,
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/table1.csv", table1_csv(&exp, &profiles))
        .expect("write results/table1.csv");
    println!("\nwritten to results/table1.csv");
}
