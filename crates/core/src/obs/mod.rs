//! Observability: end-to-end tracing and metrics for the simulator
//! pipeline (DESIGN §7's missing layer).
//!
//! Three pieces:
//!
//! * [`trace`] — a span/event [`Tracer`] with nested, attributed spans
//!   and counter-track samples;
//! * [`export`] — a Chrome trace-event JSON exporter (Perfetto /
//!   `chrome://tracing` compatible) plus the inverse parser, built on
//!   [`crate::tune::json`];
//! * [`metrics`] — a counters/gauges/histograms registry snapshotted
//!   in Prometheus text format.
//!
//! # Ambient installation (zero-cost when disabled)
//!
//! Instrumented code (`runner`, `tune::sweep`, `solver`) never takes a
//! tracer parameter — that would ripple through every public signature.
//! Instead a tracer/metrics pair is installed *ambiently* per thread:
//!
//! ```
//! use milc_dslash::obs;
//! let tracer = obs::Tracer::new();
//! let metrics = obs::Metrics::new();
//! {
//!     let _t = obs::set_tracer(&tracer);
//!     let _m = obs::set_metrics(&metrics);
//!     let span = obs::span_on("cg", "cg.iter");
//!     span.attr("k", 1u64);
//!     obs::metric_inc("launches_total", &[("config", "1LP")], 1);
//! } // guards drop: previous (no-op) state restored
//! assert_eq!(tracer.snapshot().spans.len(), 1);
//! ```
//!
//! With nothing installed, [`span`]/[`span_on`] return an inert
//! [`MaybeSpan`] and the `metric_*` helpers return immediately — one
//! thread-local read and a branch, no allocation, no lock, no clock
//! read.  A test asserts a traced and an untraced run produce
//! bit-identical launch reports and identical allocation/launch counts.

pub mod export;
pub mod metrics;
pub mod prof;
pub mod trace;

pub use export::{parse_chrome, to_chrome_events, write_chrome, ChromeParseError};
pub use metrics::{Metrics, DURATION_BUCKETS_US};
pub use trace::{AttrValue, CounterSample, SpanGuard, SpanRecord, Trace, Tracer};

use gpu_sim::{DeviceSpec, LaunchReport, ProfileReport, TimeBreakdown, TimingModel};
use std::cell::RefCell;

thread_local! {
    static CURRENT_TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static CURRENT_METRICS: RefCell<Option<Metrics>> = const { RefCell::new(None) };
}

/// Restores the previously installed tracer on drop.
pub struct TracerScope {
    prev: Option<Tracer>,
}

impl Drop for TracerScope {
    fn drop(&mut self) {
        CURRENT_TRACER.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Install `tracer` as this thread's ambient tracer until the returned
/// guard drops.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub fn set_tracer(tracer: &Tracer) -> TracerScope {
    let prev = CURRENT_TRACER.with(|c| c.borrow_mut().replace(tracer.clone()));
    TracerScope { prev }
}

/// Restores the previously installed metrics registry on drop.
pub struct MetricsScope {
    prev: Option<Metrics>,
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        CURRENT_METRICS.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Install `metrics` as this thread's ambient registry until the
/// returned guard drops.
#[must_use = "the registry is uninstalled when the guard drops"]
pub fn set_metrics(metrics: &Metrics) -> MetricsScope {
    let prev = CURRENT_METRICS.with(|c| c.borrow_mut().replace(metrics.clone()));
    MetricsScope { prev }
}

/// A span that may be inert: real when a tracer is installed, a
/// no-op otherwise.  Instrumented code treats both identically.
pub struct MaybeSpan(Option<SpanGuard>);

impl MaybeSpan {
    /// Attach an attribute (no-op when inert).
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        if let Some(g) = &self.0 {
            g.attr(key, value);
        }
    }

    /// Whether this span records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Open a span on the ambient tracer's `main` track (inert when no
/// tracer is installed).
pub fn span(name: &str) -> MaybeSpan {
    span_on("main", name)
}

/// Open a span on a named track of the ambient tracer.
pub fn span_on(track: &str, name: &str) -> MaybeSpan {
    MaybeSpan(CURRENT_TRACER.with(|c| c.borrow().as_ref().map(|t| t.span_on(track, name))))
}

/// Record a counter-track sample on the ambient tracer.
pub fn counter_sample(track: &str, value: f64) {
    CURRENT_TRACER.with(|c| {
        if let Some(t) = c.borrow().as_ref() {
            t.counter(track, value);
        }
    });
}

/// Increment a counter on the ambient metrics registry.
pub fn metric_inc(name: &str, labels: &[(&str, &str)], by: u64) {
    CURRENT_METRICS.with(|c| {
        if let Some(m) = c.borrow().as_ref() {
            m.inc(name, labels, by);
        }
    });
}

/// Set a gauge on the ambient metrics registry.
pub fn metric_gauge(name: &str, labels: &[(&str, &str)], value: f64) {
    CURRENT_METRICS.with(|c| {
        if let Some(m) = c.borrow().as_ref() {
            m.set_gauge(name, labels, value);
        }
    });
}

/// Record a histogram observation on the ambient metrics registry.
pub fn metric_observe(name: &str, labels: &[(&str, &str)], value: f64) {
    CURRENT_METRICS.with(|c| {
        if let Some(m) = c.borrow().as_ref() {
            m.observe(name, labels, value);
        }
    });
}

/// Everything a launch span carries: the Table I counter set, the
/// modelled-time breakdown shares, modelled vs host wall time — plus
/// counter-track samples (SM throughput, L1/L2 miss rate, atomic
/// passes) and the `launches_total` / `launch_duration_us` metrics.
///
/// Called from every `run_config*` path and the device CG operator;
/// returns immediately when neither a tracer nor metrics are
/// installed.
pub fn record_launch(
    span: &MaybeSpan,
    label: &str,
    report: &LaunchReport,
    device: &DeviceSpec,
    queue_overhead_us: f64,
) {
    let sanitized = if report.sanitizer.is_some() {
        "on"
    } else {
        "off"
    };
    metric_inc(
        "launches_total",
        &[("config", label), ("sanitizer", sanitized)],
        1,
    );
    metric_observe(
        "launch_duration_us",
        &[("config", label)],
        report.duration_us,
    );
    if let Some(san) = &report.sanitizer {
        metric_inc(
            "sanitizer_findings_total",
            &[("config", label)],
            san.findings.len() as u64,
        );
    }
    if !span.is_enabled() {
        return;
    }

    let c = &report.counters;
    let profile = ProfileReport::from_launch(label, report, device);
    span.attr("config", label);
    span.attr("local_size", report.range.local);
    span.attr("global_size", report.range.global);
    span.attr("duration_us", report.duration_us);
    span.attr("host_wall_us", report.host_wall_us);
    span.attr("replay", report.replay.name());
    span.attr("queue_overhead_us", queue_overhead_us);
    span.attr("occupancy_pct", profile.occupancy_pct);
    span.attr("waves", report.waves());
    span.attr("sm_throughput_pct", profile.sm_throughput_pct);
    span.attr("l1_throughput_pct", profile.l1_throughput_pct);
    span.attr("l1_miss_pct", profile.l1_miss_pct);
    span.attr("l2_miss_pct", profile.l2_miss_pct);
    span.attr("flops", c.flops);
    span.attr("warp_instructions", c.warp_instructions);
    span.attr("l1_tag_requests_global", c.l1_tag_requests_global);
    span.attr("l1_sector_requests", c.l1_sector_requests);
    span.attr("l1_sector_misses", c.l1_sector_misses);
    span.attr("l2_sector_requests", c.l2_sector_requests);
    span.attr("l2_sector_misses", c.l2_sector_misses);
    span.attr("shared_wavefronts", c.shared_wavefronts);
    span.attr(
        "excessive_shared_wavefronts",
        c.excessive_shared_wavefronts(),
    );
    span.attr("atomic_instructions", c.atomic_instructions);
    span.attr("atomic_passes", c.atomic_passes);
    span.attr("divergent_branches", c.divergent_branches);
    span.attr("barrier_waits", c.barrier_waits);
    span.attr("items", c.items);
    span.attr("warps", c.warps);
    if let Some(san) = &report.sanitizer {
        span.attr("sanitizer_findings", san.findings.len() as u64);
        span.attr("sanitizer_checked_accesses", san.checked_accesses);
    }

    // Modelled-time attribution as `breakdown.<class>` percent shares.
    let breakdown = TimeBreakdown::new(&TimingModel::calibrated(), c);
    for share in &breakdown.shares {
        if share.work > 0.0 {
            span.attr(&format!("breakdown.{}", share.class), share.pct);
        }
    }

    // Roofline placement: arithmetic intensity, ceiling fraction and
    // the bottleneck class the modelled time names.
    let roof = prof::RooflineRow::new(label, report, device);
    span.attr("roofline.ai_flops_per_byte", roof.ai_flops_per_byte);
    span.attr("roofline.pct_of_roof", roof.pct_of_roof);
    span.attr("roofline.dram_gbps", roof.dram_gbps);
    span.attr("roofline.bound", roof.bound.name());

    counter_sample("SM throughput %", profile.sm_throughput_pct);
    counter_sample("L1 miss %", profile.l1_miss_pct);
    counter_sample("L2 miss %", profile.l2_miss_pct);
    counter_sample("atomic passes", c.atomic_passes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let s = span("nothing");
        assert!(!s.is_enabled());
        s.attr("k", 1u64); // no-op, must not panic
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Tracer::new();
        let inner = Tracer::new();
        {
            let _a = set_tracer(&outer);
            {
                let _b = set_tracer(&inner);
                let _s = span("in-inner");
            }
            let _s = span("in-outer");
        }
        assert!(!span("after").is_enabled());
        assert_eq!(inner.snapshot().spans.len(), 1);
        assert_eq!(outer.snapshot().spans.len(), 1);
        assert_eq!(inner.snapshot().spans[0].name, "in-inner");
        assert_eq!(outer.snapshot().spans[0].name, "in-outer");
    }

    #[test]
    fn metric_helpers_hit_the_installed_registry_only() {
        let m = Metrics::new();
        metric_inc("x_total", &[], 5); // nothing installed: dropped
        {
            let _g = set_metrics(&m);
            metric_inc("x_total", &[], 2);
            metric_gauge("g", &[], 1.5);
            metric_observe("h_us", &[], 10.0);
        }
        metric_inc("x_total", &[], 9); // uninstalled again: dropped
        assert_eq!(m.counter_value("x_total", &[]), 2);
        assert_eq!(m.gauge_value("g", &[]), Some(1.5));
        assert_eq!(m.series_count(), 3);
    }
}
