//! Nsight-Compute-style profile report (the paper's Table I rows).

use crate::device::DeviceSpec;
use crate::engine::LaunchReport;

/// The thirteen Table I metrics for one kernel launch.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Kernel/configuration label.
    pub label: String,
    /// Row 1: kernel duration, µs.
    pub duration_us: f64,
    /// Row 2: work-items (global size).
    pub work_items: u64,
    /// Row 3: compute (SM) throughput, % — issue-slot utilization over
    /// the kernel duration.
    pub sm_throughput_pct: f64,
    /// Row 4: achieved occupancy, %.
    pub occupancy_pct: f64,
    /// Row 5: % of the device's empirical peak FLOP rate.
    pub peak_pct: f64,
    /// Row 6: L1/TEX cache throughput, % of the L1's sector bandwidth.
    pub l1_throughput_pct: f64,
    /// Row 7: L1/TEX sector miss rate, %.
    pub l1_miss_pct: f64,
    /// Row 8: L2 sector miss rate, %.
    pub l2_miss_pct: f64,
    /// Row 9: dynamic shared memory per work-group, KB.
    pub shared_kb_per_group: f64,
    /// Row 10: L1 tag requests from global memory.
    pub l1_tag_requests: u64,
    /// Row 11: L1 wavefronts from shared memory.
    pub shared_wavefronts: u64,
    /// Row 12: excessive shared wavefronts (bank conflicts).
    pub excessive_wavefronts: u64,
    /// Row 13: average divergent branches (per scheduler, as Nsight
    /// averages over the SM sub-partitions).
    pub avg_divergent_branches: f64,
}

/// Issue slots one SM scheduler can sustain per cycle; the A100 has four
/// schedulers per SM, one instruction per scheduler per cycle.
const SCHEDULERS_PER_SM: f64 = 4.0;

/// L1 sector bandwidth per SM per cycle (128 B/cycle = 4 sectors).
const L1_SECTORS_PER_CYCLE: f64 = 4.0;

impl ProfileReport {
    /// Build the report from a launch.
    pub fn from_launch(label: impl Into<String>, r: &LaunchReport, device: &DeviceSpec) -> Self {
        let c = &r.counters;
        let duration_cycles = (r.duration_us * 1e-6 * device.clock_hz()).max(1.0);
        let issue_cycles = c.warp_instructions as f64 / (device.num_sms as f64 * SCHEDULERS_PER_SM);
        let l1_cycles = (c.l1_sector_requests + c.shared_wavefronts) as f64
            / (device.num_sms as f64 * L1_SECTORS_PER_CYCLE);
        let gflops = r.gflops();
        Self {
            label: label.into(),
            duration_us: r.duration_us,
            work_items: r.range.global,
            sm_throughput_pct: 100.0 * issue_cycles / duration_cycles,
            occupancy_pct: 100.0 * r.occupancy.achieved,
            peak_pct: 100.0 * gflops / (device.fp64_peak_tflops * 1000.0),
            l1_throughput_pct: 100.0 * l1_cycles / duration_cycles,
            l1_miss_pct: c.l1_miss_rate_pct(),
            l2_miss_pct: c.l2_miss_rate_pct(),
            shared_kb_per_group: r.resources.local_mem_bytes_per_group as f64 / 1024.0,
            l1_tag_requests: c.l1_tag_requests_global,
            shared_wavefronts: c.shared_wavefronts,
            excessive_wavefronts: c.excessive_shared_wavefronts(),
            avg_divergent_branches: c.divergent_branches as f64
                / (device.num_sms as f64 * SCHEDULERS_PER_SM),
        }
    }

    /// The thirteen `(description, value)` rows in Table I order.
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        fn m(v: u64) -> String {
            if v == 0 {
                "0".to_string()
            } else if v >= 10_000_000 {
                format!("{:.0}M", v as f64 / 1e6)
            } else if v >= 100_000 {
                format!("{:.1}M", v as f64 / 1e6)
            } else {
                v.to_string()
            }
        }
        vec![
            ("Duration (us)", format!("{:.1}", self.duration_us)),
            ("Work-items (global size)", m(self.work_items)),
            (
                "Compute (SM) throughput (%)",
                format!("{:.1}", self.sm_throughput_pct),
            ),
            (
                "Achieved occupancy (%)",
                format!("{:.1}", self.occupancy_pct),
            ),
            ("Peak performance (%)", format!("{:.0}", self.peak_pct)),
            (
                "L1/TEX cache throughput (%)",
                format!("{:.1}", self.l1_throughput_pct),
            ),
            ("L1/TEX miss rate (%)", format!("{:.1}", self.l1_miss_pct)),
            ("L2 miss rate (%)", format!("{:.1}", self.l2_miss_pct)),
            (
                "Shared memory per work-group (KB)",
                format!("{:.1}", self.shared_kb_per_group),
            ),
            ("L1 tag requests global", m(self.l1_tag_requests)),
            ("L1 wavefronts shared", m(self.shared_wavefronts)),
            (
                "Excessive L1 wavefronts shared",
                m(self.excessive_wavefronts),
            ),
            (
                "Avg. divergent branches",
                format!("{:.0}", self.avg_divergent_branches),
            ),
        ]
    }
}

/// Render several profiles side by side (configs as columns), like the
/// paper's Table I.
pub fn render_table(profiles: &[ProfileReport]) -> String {
    if profiles.is_empty() {
        return String::new();
    }
    let descs: Vec<&str> = profiles[0].rows().iter().map(|(d, _)| *d).collect();
    let cols: Vec<Vec<String>> = profiles
        .iter()
        .map(|p| p.rows().into_iter().map(|(_, v)| v).collect())
        .collect();
    let desc_w = descs.iter().map(|d| d.len()).max().unwrap_or(0);
    let col_ws: Vec<usize> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            cols[i]
                .iter()
                .map(|v| v.len())
                .chain(std::iter::once(p.label.len()))
                .max()
                .unwrap_or(4)
        })
        .collect();
    let mut out = format!("{:desc_w$}", "Description");
    for (i, p) in profiles.iter().enumerate() {
        out.push_str(&format!("  {:>w$}", p.label, w = col_ws[i]));
    }
    out.push('\n');
    for (row, desc) in descs.iter().enumerate() {
        out.push_str(&format!("{desc:desc_w$}"));
        for (i, _) in profiles.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", cols[i][row], w = col_ws[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::kernel::KernelResources;
    use crate::ndrange::NdRange;
    use crate::occupancy::{Occupancy, OccupancyLimiter};

    fn fake_launch() -> LaunchReport {
        LaunchReport {
            kernel: "k".into(),
            range: NdRange::linear(6_291_456, 768),
            resources: KernelResources {
                registers_per_item: 40,
                local_mem_bytes_per_group: 12_288,
            },
            occupancy: Occupancy {
                groups_per_sm: 2,
                warps_per_sm: 48,
                theoretical: 0.75,
                achieved: 0.74,
                limiter: OccupancyLimiter::Warps,
                waves: 38.0,
            },
            counters: Counters {
                l1_tag_requests_global: 86_000_000,
                l1_sector_requests: 200_000_000,
                l1_sector_misses: 54_000_000,
                l2_sector_requests: 54_000_000,
                l2_sector_misses: 27_000_000,
                shared_wavefronts: 4_700_000,
                shared_wavefronts_ideal: 2_300_000,
                warp_instructions: 12_000_000,
                divergent_branches: 0,
                flops: 600_800_000,
                ..Default::default()
            },
            l1_stats: Default::default(),
            l2_stats: Default::default(),
            duration_us: 929.0,
            host_wall_us: 0.0,
            sanitizer: None,
            replay: crate::engine::Replay::Full,
        }
    }

    #[test]
    fn thirteen_rows_in_order() {
        let d = DeviceSpec::a100();
        let p = ProfileReport::from_launch("3LP-1 k", &fake_launch(), &d);
        let rows = p.rows();
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0].0, "Duration (us)");
        assert_eq!(rows[12].0, "Avg. divergent branches");
    }

    #[test]
    fn derived_metrics_sane() {
        let d = DeviceSpec::a100();
        let p = ProfileReport::from_launch("x", &fake_launch(), &d);
        assert!((p.occupancy_pct - 74.0).abs() < 1e-9);
        assert!((p.l1_miss_pct - 27.0).abs() < 0.1);
        assert!((p.l2_miss_pct - 50.0).abs() < 0.1);
        // 600.8 MFLOP / 929 µs = 647 GFLOP/s -> 8.5% of 7.6 TFLOP/s.
        assert!((p.peak_pct - 8.5).abs() < 0.2, "peak {}", p.peak_pct);
        assert!(p.sm_throughput_pct > 0.0 && p.sm_throughput_pct < 100.0);
        assert_eq!(p.avg_divergent_branches, 0.0);
    }

    #[test]
    fn table_renders_multiple_columns() {
        let d = DeviceSpec::a100();
        let p1 = ProfileReport::from_launch("a", &fake_launch(), &d);
        let p2 = ProfileReport::from_launch("b", &fake_launch(), &d);
        let t = render_table(&[p1, p2]);
        let header = t.lines().next().unwrap();
        assert!(header.contains('a') && header.contains('b'));
        assert_eq!(t.lines().count(), 14); // header + 13 rows
    }

    #[test]
    fn empty_table() {
        assert_eq!(render_table(&[]), "");
    }
}
