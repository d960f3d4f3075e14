//! Device descriptions.
//!
//! All architectural constants live here, in one struct, with the values
//! the paper reports for its Perlmutter A100 (Section IV-A): 108 compute
//! units, 40 GB global memory, 40 MB L2, 192 KB combined L1/shared per
//! SM, 2048 work-items and 65,536 registers per compute unit, work-groups
//! of up to 1,024 work-items, warps of 32.

/// Architectural description of a simulated device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors (compute units).
    pub num_sms: u32,
    /// Lanes per warp.
    pub warp_size: u32,
    /// Maximum resident work-items per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident work-groups per SM.
    pub max_groups_per_sm: u32,
    /// Maximum work-items per work-group.
    pub max_group_size: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Register-file allocation granularity (registers are allocated to
    /// warps in blocks of this many).
    pub register_alloc_unit: u32,
    /// Work-group local memory (shared memory) available per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Shared-memory allocation granularity in bytes.
    pub shared_alloc_unit: u32,
    /// Per-launch fixed shared-memory reserve (the CUDA runtime reserves
    /// 1 KB per work-group on Ampere).
    pub shared_reserve_per_group: u32,
    /// L1 data-cache capacity per SM, bytes (the paper's 192 KB combined
    /// L1/shared, minus the shared-memory carve-out, is approximated by a
    /// fixed data-cache size).
    pub l1_bytes: u32,
    /// L1 associativity (ways).
    pub l1_ways: u32,
    /// L2 capacity, bytes (whole device).
    pub l2_bytes: u64,
    /// L2 associativity (ways).
    pub l2_ways: u32,
    /// Cache-line size, bytes (tag granularity).
    pub line_bytes: u32,
    /// Sector size, bytes (fill/transfer granularity).
    pub sector_bytes: u32,
    /// Number of shared-memory banks.
    pub shared_banks: u32,
    /// Width of one shared-memory bank in bytes.
    pub bank_width: u32,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth, GB/s.
    pub dram_bw_gbps: f64,
    /// Empirical peak double-precision throughput, TFLOP/s (the paper
    /// uses 7.6 TFLOP/s for its "% of peak" row).
    pub fp64_peak_tflops: f64,
}

impl DeviceSpec {
    /// The NVIDIA A100-40GB as configured on Perlmutter (Section IV-A).
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100-SXM4-40GB (simulated)",
            num_sms: 108,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            max_groups_per_sm: 32,
            max_group_size: 1024,
            registers_per_sm: 65_536,
            register_alloc_unit: 256,
            shared_mem_per_sm: 164 * 1024,
            shared_alloc_unit: 1024,
            shared_reserve_per_group: 1024,
            l1_bytes: 128 * 1024,
            l1_ways: 4,
            l2_bytes: 40 * 1024 * 1024,
            l2_ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            shared_banks: 32,
            bank_width: 4,
            clock_ghz: 1.41,
            dram_bw_gbps: 1555.0,
            fp64_peak_tflops: 7.6,
        }
    }

    /// A tiny device for fast unit tests: 4 SMs, small caches, otherwise
    /// A100-shaped limits.
    pub fn test_small() -> Self {
        Self {
            name: "test-small (simulated)",
            num_sms: 4,
            l1_bytes: 16 * 1024,
            l2_bytes: 256 * 1024,
            ..Self::a100()
        }
    }

    /// Scale the cache capacities by `factor` (rounded to whole lines),
    /// keeping everything else fixed.
    ///
    /// Running the paper's workload at a reduced lattice size shrinks the
    /// *working set* by `(L/32)^4`; scaling L2 by the same factor keeps
    /// the capacity-miss behaviour — and therefore the shape of the
    /// Table I miss-rate rows — representative of the full-size run.
    /// The per-SM L1 is left unscaled: its hit behaviour is governed by
    /// per-work-group reuse, which is lattice-size independent.
    pub fn scaled_caches(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "cache scale factor must be positive");
        let line = self.line_bytes as u64;
        let min = line * self.l2_ways as u64;
        self.l2_bytes = (((self.l2_bytes as f64 * factor) as u64) / line * line).max(min);
        self
    }

    /// Scale the device for a reduced-volume run of a fixed-shape
    /// workload: L2 capacity *and* SM count shrink by `factor`, so that
    /// per-SM residency, scheduling-wave counts and capacity-miss
    /// behaviour all match what the full-size workload sees on the full
    /// device.  A lattice run at `L = 16` on
    /// `a100().scaled_for_volume_ratio(1.0 / 16.0)` reproduces the
    /// occupancy and miss-rate structure of `L = 32` on the real A100;
    /// report "A100-equivalent" GFLOP/s by dividing measured FLOPs by
    /// `factor` (durations are scale-invariant under this construction).
    pub fn scaled_for_volume_ratio(self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let mut d = self.scaled_caches(factor);
        d.num_sms = ((d.num_sms as f64 * factor).round() as u32).max(1);
        d.dram_bw_gbps *= factor;
        d.fp64_peak_tflops *= factor;
        d
    }

    /// Cycles per second.
    #[inline]
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_paper_constants() {
        let d = DeviceSpec::a100();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.max_threads_per_sm, 2048);
        assert_eq!(d.registers_per_sm, 65_536);
        assert_eq!(d.max_group_size, 1024);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.l2_bytes, 40 * 1024 * 1024);
        assert!((d.fp64_peak_tflops - 7.6).abs() < 1e-12);
    }

    #[test]
    fn scaled_caches_shrinks_l2_only() {
        let d = DeviceSpec::a100();
        let s = d.clone().scaled_caches(1.0 / 16.0);
        assert_eq!(s.l2_bytes, 40 * 1024 * 1024 / 16);
        assert_eq!(s.l1_bytes, d.l1_bytes);
        assert_eq!(s.l2_bytes % s.line_bytes as u64, 0);
    }

    #[test]
    fn scaled_caches_never_below_one_set() {
        let d = DeviceSpec::a100().scaled_caches(1e-9);
        assert!(d.l2_bytes >= (d.line_bytes * d.l2_ways) as u64);
    }

    #[test]
    fn derived_rates() {
        let d = DeviceSpec::a100();
        assert!((d.clock_hz() - 1.41e9).abs() < 1.0);
    }
}
