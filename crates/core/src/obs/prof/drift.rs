//! Prediction-drift observability: measured vs statically predicted.
//!
//! The analytic cost model ([`crate::staticcheck`], PR 6) predicts a
//! duration and the launch's traffic counters without executing a
//! lane.  Nothing continuously checked those predictions against
//! measurement — a regression in either the model or the engine could
//! silently open a gap.  This module compares every measured launch
//! against its [`CostEstimate`] along named *paths* (duration, L1 tag
//! requests, L1 sector requests), exports the signed relative error as
//! `costmodel_drift_pct{kernel,path}` gauges, and renders a gateable
//! report.  One [`DriftRow::new`] serves every consumer: `profile` and
//! `perfdiff --profile` (warm Table I launches), `perfdiff
//! --static-tune` (cold launches of the static winners) and
//! `staticcheck` (cold Table I launches).  Each fails when any path
//! exceeds its tolerance.  Drift is model error, so it keeps a
//! tolerance; the modelled numbers themselves are gated exactly
//! (`milc_bench::snapshot`).
//!
//! Tolerances differ by path on purpose.  The replay-based traffic
//! predictions are statically exact (cross-validated at 0.000%), so
//! they gate at 1%.  The analytic duration runs the measured launch's
//! timing formula over *footprint-blend* L1/L2 miss estimates, which
//! systematically overestimate the miss traffic — the model was built
//! to be rank-faithful, not absolutely calibrated.  The overestimate
//! is stable (measured/predicted sits in a ±8% band around
//! [`duration_model_scale`] across the whole Table I set, per regime),
//! so the duration path compares against the *scaled* prediction and
//! gates at 25% — wide enough for the model's documented softness,
//! tight enough that a doubled duration (or a broken timing weight)
//! trips it.

use gpu_sim::staticcheck::CostEstimate;
use gpu_sim::{Counters, Regime, RegimeCalibration};

/// Calibrated ratio of measured duration to the analytic estimate for
/// one regime — read from the *shared*
/// [`RegimeCalibration::committed`] table, the same table the
/// measurement-free tuner's reported durations come from, so the drift
/// gate and the static ranking can never disagree on scale.  The gate
/// holds each launch against `duration_in(regime) ×
/// duration_model_scale(regime)`.
pub fn duration_model_scale(regime: Regime) -> f64 {
    RegimeCalibration::committed().scale(regime)
}
/// Gate tolerance for the (scale-corrected) duration path, percent.
pub const DURATION_TOLERANCE_PCT: f64 = 25.0;
/// Gate tolerance for the replay-exact traffic paths, percent.
pub const TRAFFIC_TOLERANCE_PCT: f64 = 1.0;

/// One measured-vs-predicted comparison.
#[derive(Clone, Debug)]
pub struct DriftPath {
    /// Path name (`duration`, `l1_tag_requests`, `l1_sector_requests`).
    pub path: &'static str,
    /// Measured value (µs or events).
    pub measured: f64,
    /// Statically predicted value.
    pub predicted: f64,
    /// Signed relative drift, percent: `(measured − predicted) /
    /// predicted × 100` (0 when both are 0; ±∞ never — a zero
    /// prediction with a nonzero measurement reports 100% per measured
    /// unit of nothing predicted, i.e. the path simply fails).
    pub drift_pct: f64,
    /// Gate tolerance on `|drift_pct|`.
    pub tolerance_pct: f64,
}

impl DriftPath {
    fn new(path: &'static str, measured: f64, predicted: f64, tolerance_pct: f64) -> Self {
        let drift_pct = if predicted != 0.0 {
            100.0 * (measured - predicted) / predicted
        } else if measured == 0.0 {
            0.0
        } else {
            // Predicted nothing, measured something: cap at a finite
            // sentinel well past any tolerance.
            1e6
        };
        Self {
            path,
            measured,
            predicted,
            drift_pct,
            tolerance_pct,
        }
    }

    /// Whether the path is inside its gate tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.drift_pct.abs() <= self.tolerance_pct
    }
}

/// All drift paths of one launch.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Launch label (Table I short config label).
    pub kernel: String,
    /// Work-group size of the launch.
    pub local_size: u32,
    /// The compared paths.
    pub paths: Vec<DriftPath>,
}

impl DriftRow {
    /// Compare a measured launch (its duration and counters) against
    /// its static estimate in the given cache [`Regime`]: the duration
    /// path compares against the regime's analytic duration scaled by
    /// the regime's entry in the shared calibration table; the traffic
    /// paths are regime-independent (requests don't depend on cache
    /// state).
    pub fn new(
        kernel: &str,
        local_size: u32,
        measured_duration_us: f64,
        measured: &Counters,
        estimate: &CostEstimate,
        regime: Regime,
    ) -> Self {
        let e = &estimate.counters;
        Self {
            kernel: kernel.to_string(),
            local_size,
            paths: vec![
                DriftPath::new(
                    "duration",
                    measured_duration_us,
                    estimate.duration_in(regime) * duration_model_scale(regime),
                    DURATION_TOLERANCE_PCT,
                ),
                DriftPath::new(
                    "l1_tag_requests",
                    measured.l1_tag_requests_global as f64,
                    e.l1_tag_requests_global as f64,
                    TRAFFIC_TOLERANCE_PCT,
                ),
                DriftPath::new(
                    "l1_sector_requests",
                    measured.l1_sector_requests as f64,
                    e.l1_sector_requests as f64,
                    TRAFFIC_TOLERANCE_PCT,
                ),
            ],
        }
    }

    /// Whether every path is inside tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.paths.iter().all(DriftPath::within_tolerance)
    }

    /// The row with its measured duration multiplied by `factor` and
    /// the traffic paths unchanged: the injected slowdown a gate
    /// self-test must catch.
    pub fn with_duration_scaled(&self, factor: f64) -> Self {
        let paths = self
            .paths
            .iter()
            .map(|p| match p.path {
                "duration" => {
                    DriftPath::new(p.path, p.measured * factor, p.predicted, p.tolerance_pct)
                }
                _ => p.clone(),
            })
            .collect();
        Self {
            kernel: self.kernel.clone(),
            local_size: self.local_size,
            paths,
        }
    }
}

/// The drift report over a launch set (the 12 Table I configs).
#[derive(Clone, Debug, Default)]
pub struct DriftReport {
    /// One row per launch.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Whether any path on any row breaks its tolerance.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| !r.within_tolerance())
    }

    /// The path with the largest `|drift_pct|`, with its row.
    pub fn worst(&self) -> Option<(&DriftRow, &DriftPath)> {
        self.rows
            .iter()
            .flat_map(|r| r.paths.iter().map(move |p| (r, p)))
            .max_by(|a, b| {
                a.1.drift_pct
                    .abs()
                    .partial_cmp(&b.1.drift_pct.abs())
                    .expect("finite drift")
            })
    }

    /// Export every path as a `costmodel_drift_pct{kernel,path}` gauge
    /// on the ambient metrics registry.
    pub fn record_metrics(&self) {
        for row in &self.rows {
            for p in &row.paths {
                crate::obs::metric_gauge(
                    "costmodel_drift_pct",
                    &[("kernel", &row.kernel), ("path", p.path)],
                    p.drift_pct,
                );
            }
        }
    }

    /// Render as a markdown table, one line per (kernel, path).
    pub fn render_md(&self) -> String {
        let mut out = String::new();
        out.push_str("| config | ls | path | measured | predicted | drift % | tol % | gate |\n");
        out.push_str("|---|---:|---|---:|---:|---:|---:|---|\n");
        for row in &self.rows {
            for p in &row.paths {
                out.push_str(&format!(
                    "| {} | {} | {} | {:.2} | {:.2} | {:+.3} | {:.0} | {} |\n",
                    row.kernel,
                    row.local_size,
                    p.path,
                    p.measured,
                    p.predicted,
                    p.drift_pct,
                    p.tolerance_pct,
                    if p.within_tolerance() { "ok" } else { "FAIL" }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(measured: f64, predicted: f64, tol: f64) -> DriftPath {
        DriftPath::new("duration", measured, predicted, tol)
    }

    #[test]
    fn drift_is_signed_relative_error() {
        let p = path(110.0, 100.0, 25.0);
        assert!((p.drift_pct - 10.0).abs() < 1e-12);
        assert!(p.within_tolerance());
        let p = path(60.0, 100.0, 25.0);
        assert!((p.drift_pct + 40.0).abs() < 1e-12);
        assert!(!p.within_tolerance());
    }

    #[test]
    fn zero_prediction_cases() {
        assert_eq!(path(0.0, 0.0, 1.0).drift_pct, 0.0);
        let p = path(5.0, 0.0, 1.0);
        assert!(p.drift_pct.is_finite());
        assert!(!p.within_tolerance());
    }

    #[test]
    fn report_gates_on_any_failing_path() {
        let good = DriftRow {
            kernel: "a".into(),
            local_size: 32,
            paths: vec![path(100.0, 100.0, 25.0)],
        };
        let bad = DriftRow {
            kernel: "b".into(),
            local_size: 64,
            paths: vec![path(100.0, 100.0, 25.0), path(200.0, 100.0, 25.0)],
        };
        let ok = DriftReport {
            rows: vec![good.clone()],
        };
        assert!(!ok.failed());
        let report = DriftReport {
            rows: vec![good, bad],
        };
        assert!(report.failed());
        let (row, worst) = report.worst().expect("non-empty");
        assert_eq!(row.kernel, "b");
        assert!((worst.drift_pct - 100.0).abs() < 1e-12);
        let md = report.render_md();
        assert!(md.contains("FAIL"), "{md}");
        assert!(md.contains("| ok |") || md.contains(" ok "), "{md}");
    }

    #[test]
    fn scaled_duration_moves_only_the_duration_path() {
        let row = DriftRow {
            kernel: "a".into(),
            local_size: 32,
            paths: vec![
                path(110.0, 100.0, 25.0),
                DriftPath::new("l1_tag_requests", 50.0, 50.0, 1.0),
            ],
        };
        let slowed = row.with_duration_scaled(2.0);
        assert!((slowed.paths[0].drift_pct - 120.0).abs() < 1e-9);
        assert_eq!(slowed.paths[1].drift_pct, 0.0);
        assert!(row.within_tolerance() && !slowed.within_tolerance());
    }

    #[test]
    fn metrics_export_uses_kernel_and_path_labels() {
        let m = crate::obs::Metrics::new();
        let report = DriftReport {
            rows: vec![DriftRow {
                kernel: "1LP k".into(),
                local_size: 32,
                paths: vec![path(110.0, 100.0, 25.0)],
            }],
        };
        {
            let _g = crate::obs::set_metrics(&m);
            report.record_metrics();
        }
        assert_eq!(
            m.gauge_value(
                "costmodel_drift_pct",
                &[("kernel", "1LP k"), ("path", "duration")]
            ),
            Some(10.0)
        );
    }
}
