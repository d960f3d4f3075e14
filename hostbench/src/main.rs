//! `hostbench`: the host-clock benchmark.
//!
//! Measures what running the reproduction costs on the host — the
//! simulator, the device-backed CG solver and the static tuner — as
//! opposed to the modelled A100 microseconds those components compute.
//! One process runs one workload on one thread as a closed loop with a
//! single client: each operation starts when the previous one returns.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload table1|cg|tune-static [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Set-up is timed apart from the measured phase (repeated for at least
//! a second, median reported).  The measured phase repeats whole passes
//! of the workload until `--seconds` have elapsed.  Every operation's
//! output is checked.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`, which also writes a Perfetto trace under
//! `hostbench/traces/`.  The line before it gives the workload, seed,
//! provenance, and the quartiles and 90th percentile of pass and
//! operation times with their sample counts.  The exit code is 0 only
//! when every check passed.
//!
//! `pass_s` is the run's fastest pass, not its median: on a shared host,
//! other tenants slow whole stretches of a run, and the fastest of a
//! run's passes varies between runs about half as much as their median
//! (see the README).

mod cg;
mod layers;
mod mirror;
mod stats;
mod table1;
mod tune_static;

use layers::LayerReport;
use milc_dslash::obs;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with their units.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["table1", "cg", "tune-static"];

/// Set-up repeats until it has run this many times and for
/// [`SETUP_MIN_S`] in total; `setup_s` is the median.  A set-up of a few
/// milliseconds thus gets hundreds of samples, one of 0.2 s a handful.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

const USAGE: &str = "usage: hostbench --workload table1|cg|tune-static \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-golden]";

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a Perfetto trace.
    pub trace: bool,
    /// Print the workload's golden file instead of benchmarking.
    pub print_golden: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 20.0,
        trace: false,
        print_golden: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-golden" {
            parsed.print_golden = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not an unsigned integer"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// Operations and pass times of one measured phase, with their checks.
#[derive(Default)]
pub struct Run {
    /// Host seconds per completed pass.
    pub pass_s: Vec<f64>,
    /// Host milliseconds per operation.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few check failures, for the log.
    pub failures: Vec<String>,
}

impl Run {
    /// Record one operation's host time and check outcome.
    pub fn op(&mut self, elapsed: Duration, check: Result<(), String>) {
        self.op_ms.push(elapsed.as_secs_f64() * 1e3);
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// Repeat whole passes until `seconds` have elapsed, timing each pass.
/// `pass` records its operations in the `Run`.
pub fn measure(
    seconds: f64,
    mut pass: impl FnMut(&mut Run) -> Result<(), String>,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run::default();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass(&mut run)?;
        run.pass_s.push(t.elapsed().as_secs_f64());
    }
    Ok(run)
}

/// Run `setup` at least [`SETUP_MIN_REPS`] times and for
/// [`SETUP_MIN_S`]; return the median seconds and the last result.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let last = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= SETUP_MIN_REPS && secs.iter().sum::<f64>() >= SETUP_MIN_S {
            let median = stats::median(&secs).map_err(|e| e.to_string())?;
            return Ok((median, last));
        }
    }
}

/// A traced run's Perfetto trace and its span recorder.
pub struct Traced {
    tracer: obs::Tracer,
    scope: obs::TracerScope,
}

impl Traced {
    /// Install a tracer on this thread until [`finish`](Self::finish).
    pub fn install() -> Self {
        let tracer = obs::Tracer::new();
        let scope = obs::set_tracer(&tracer);
        Self { tracer, scope }
    }

    /// Uninstall the tracer and write its spans as a Chrome trace-event
    /// file under `hostbench/traces/`.
    pub fn finish(self, args: &Args) -> Result<(), String> {
        drop(self.scope);
        let dir = std::path::Path::new("hostbench/traces");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        std::fs::write(&path, obs::write_chrome(&self.tracer.snapshot()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("hostbench: trace -> {}", path.display());
        Ok(())
    }
}

/// What a workload run hands back for printing.
pub struct Outcome {
    /// Metrics in output order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The measured phase: pass and operation times, operations
    /// attempted and failed, failure reasons.
    pub run: Run,
}

impl Outcome {
    /// End-to-end metrics of an untraced run whose set-ups took a median
    /// of `setup_s`.
    pub fn untraced(setup_s: f64, run: Run) -> Result<Self, String> {
        let fastest = run.pass_s.iter().copied().fold(f64::INFINITY, f64::min);
        let values = [setup_s, fastest, stats::peak_rss_mb()?];
        Ok(Self {
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect(),
            run,
        })
    }

    /// Per-layer metrics of a traced run.
    pub fn traced(report: LayerReport, run: Run) -> Self {
        Self {
            metrics: report.metrics(),
            run,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": .., "unit": ..}` with every digit
/// of its value.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let correct = outcome.run.failed == 0;
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for &(name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.run.attempted,
        outcome.run.failed,
        metrics.join(", ")
    ))
}

/// The distribution of one sample set as JSON: its count beside its
/// minimum, quartiles and 90th percentile (`null` when fewer than ten
/// samples lie beyond it).
fn distribution(samples: &[f64]) -> String {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let p90 = stats::percentile(samples, 0.9).map_or("null".to_string(), |v| format!("{v:?}"));
    match stats::quartiles(samples) {
        Ok([q1, q2, q3]) => format!(
            "{{\"n\": {}, \"min\": {min:?}, \"q1\": {q1:?}, \"median\": {q2:?}, \
             \"q3\": {q3:?}, \"p90\": {p90}}}",
            samples.len()
        ),
        Err(_) => "{\"n\": 0}".to_string(),
    }
}

/// The context line printed before the result: workload, seed,
/// provenance, and the distributions of pass and operation times.
fn context_line(args: &Args, outcome: &Outcome) -> String {
    // Outside a git checkout `git` would search parent directories.
    let git = if std::path::Path::new(".git").exists() {
        milc_bench::provenance::git_sha()
    } else {
        "unknown".to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failures: Vec<String> = outcome.run.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"git\": {}, \"nproc\": {nproc}, \
         \"pass_s\": {}, \"op_ms\": {}, \"failures\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_str(&git),
        distribution(&outcome.run.pass_s),
        distribution(&outcome.run.op_ms),
        failures.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "table1" => table1::run(args),
        "cg" => cg::run(args),
        "tune-static" => tune_static::run(args),
        w => Err(format!("unknown workload {w:?}")),
    }
}

fn print_golden(args: &Args) -> Result<(), String> {
    match args.workload.as_str() {
        "table1" => table1::print_golden(args.seed),
        "tune-static" => tune_static::print_golden(args.seed),
        w => Err(format!("workload {w} has no golden file")),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.print_golden {
        if let Err(e) = print_golden(&args) {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let line = match result_line(&outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &outcome.run.failures {
        eprintln!("hostbench: check failed: {f}");
    }
    println!("{}", context_line(&args, &outcome));
    println!("{line}");
    std::process::exit(if outcome.run.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = args(&[
            "--workload",
            "cg",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "cg".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                print_golden: false
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "cg", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "cg", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "cg", "--seed"]).is_err());
        assert!(args(&["--workload", "cg", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut run = Run::default();
        run.op(Duration::from_millis(2), Ok(()));
        run.op(Duration::from_millis(3), Err("bad".into()));
        let outcome = Outcome {
            metrics: vec![("setup_s", 0.25, "s"), ("pass_s", 1.0 / 3.0, "s")],
            run,
        };
        assert_eq!(
            result_line(&outcome).unwrap(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"pass_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}}}"
        );
        let nan = Outcome {
            metrics: vec![("setup_s", f64::NAN, "s")],
            run: Run::default(),
        };
        assert!(result_line(&nan).is_err());
    }

    #[test]
    fn distributions_print_their_sample_count_and_withhold_thin_tails() {
        assert_eq!(
            distribution(&[3.0, 1.0, 2.0]),
            "{\"n\": 3, \"min\": 1.0, \"q1\": 1.0, \"median\": 2.0, \"q3\": 3.0, \"p90\": null}"
        );
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(distribution(&hundred).ends_with("\"p90\": 90.0}"));
        assert_eq!(distribution(&[]), "{\"n\": 0}");
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entries = |section: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).map(|i| i + key.len() + 2);
                        at.map(|i| {
                            let rest = &entry[i..];
                            let open = rest.find('"').expect("string value") + 1;
                            let close = open + rest[open..].find('"').expect("closing quote");
                            rest[open..close].to_string()
                        })
                        .unwrap_or_default()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), declared(&END_TO_END));
        assert_eq!(entries("per_layer"), declared(&layers::PER_LAYER));
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
