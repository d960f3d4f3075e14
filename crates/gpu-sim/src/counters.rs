//! Aggregate event counters of one kernel launch.

/// Everything the simulator counts during a launch.  These are the raw
//  inputs of both the Nsight-style profile (Table I) and the timing model.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Counters {
    /// Warp-level global load instructions issued.
    pub global_load_instructions: u64,
    /// Warp-level global store instructions issued.
    pub global_store_instructions: u64,
    /// Warp-level global atomic instructions issued.
    pub atomic_instructions: u64,
    /// Warp-level shared-memory instructions issued.
    pub local_instructions: u64,
    /// Total warp-level issue slots (every aligned event step of every
    /// serialized path group).
    pub warp_instructions: u64,
    /// L1 line-granular tag lookups from global accesses
    /// (`memory_l1_tag_requests_global`, Table I row 10).
    pub l1_tag_requests_global: u64,
    /// L1 32-byte sector requests from global accesses.
    pub l1_sector_requests: u64,
    /// L1 sector misses (these become L2 sector requests).
    pub l1_sector_misses: u64,
    /// L2 sector requests (L1 misses plus atomics, which bypass L1).
    pub l2_sector_requests: u64,
    /// L2 sector misses (DRAM sector fetches).
    pub l2_sector_misses: u64,
    /// Shared-memory wavefronts (`memory_l1_wavefronts_shared`, row 11).
    pub shared_wavefronts: u64,
    /// Minimum possible wavefronts given the data volume
    /// (`memory_l1_wavefronts_shared_ideal`).
    pub shared_wavefronts_ideal: u64,
    /// Serialized atomic passes: for each atomic instruction, the depth
    /// of the worst same-address collision among active lanes.
    pub atomic_passes: u64,
    /// Divergent branches: at every path split, the number of extra
    /// serialized path groups beyond the first (Table I row 13 is this
    /// divided by the scheduler count).
    pub divergent_branches: u64,
    /// Instructions issued inside non-first path groups (pure divergence
    /// overhead).
    pub replayed_instructions: u64,
    /// Floating-point operations executed (as recorded by kernels).
    pub flops: u64,
    /// Integer index-arithmetic operations executed.
    pub iops: u64,
    /// Warp barrier waits: warps x (phases - 1).
    pub barrier_waits: u64,
    /// Work-items executed.
    pub items: u64,
    /// Warps executed.
    pub warps: u64,
}

impl Counters {
    /// Merge another launch fragment (per-SM partial) or a whole
    /// launch (multi-launch aggregation) into this one.  Saturating:
    /// aggregating an unbounded launch sequence must clamp at
    /// `u64::MAX` instead of wrapping back to small values, which would
    /// silently corrupt derived rates.
    pub fn merge(&mut self, o: &Counters) {
        self.global_load_instructions = self
            .global_load_instructions
            .saturating_add(o.global_load_instructions);
        self.global_store_instructions = self
            .global_store_instructions
            .saturating_add(o.global_store_instructions);
        self.atomic_instructions = self
            .atomic_instructions
            .saturating_add(o.atomic_instructions);
        self.local_instructions = self.local_instructions.saturating_add(o.local_instructions);
        self.warp_instructions = self.warp_instructions.saturating_add(o.warp_instructions);
        self.l1_tag_requests_global = self
            .l1_tag_requests_global
            .saturating_add(o.l1_tag_requests_global);
        self.l1_sector_requests = self.l1_sector_requests.saturating_add(o.l1_sector_requests);
        self.l1_sector_misses = self.l1_sector_misses.saturating_add(o.l1_sector_misses);
        self.l2_sector_requests = self.l2_sector_requests.saturating_add(o.l2_sector_requests);
        self.l2_sector_misses = self.l2_sector_misses.saturating_add(o.l2_sector_misses);
        self.shared_wavefronts = self.shared_wavefronts.saturating_add(o.shared_wavefronts);
        self.shared_wavefronts_ideal = self
            .shared_wavefronts_ideal
            .saturating_add(o.shared_wavefronts_ideal);
        self.atomic_passes = self.atomic_passes.saturating_add(o.atomic_passes);
        self.divergent_branches = self.divergent_branches.saturating_add(o.divergent_branches);
        self.replayed_instructions = self
            .replayed_instructions
            .saturating_add(o.replayed_instructions);
        self.flops = self.flops.saturating_add(o.flops);
        self.iops = self.iops.saturating_add(o.iops);
        self.barrier_waits = self.barrier_waits.saturating_add(o.barrier_waits);
        self.items = self.items.saturating_add(o.items);
        self.warps = self.warps.saturating_add(o.warps);
    }

    /// L1 sector miss rate, percent.
    pub fn l1_miss_rate_pct(&self) -> f64 {
        pct(self.l1_sector_misses, self.l1_sector_requests)
    }

    /// L2 sector miss rate, percent.
    pub fn l2_miss_rate_pct(&self) -> f64 {
        pct(self.l2_sector_misses, self.l2_sector_requests)
    }

    /// Bytes fetched from DRAM.
    pub fn dram_bytes(&self, sector_bytes: u32) -> u64 {
        self.l2_sector_misses * sector_bytes as u64
    }

    /// Excess shared wavefronts from bank conflicts (Table I row 12).
    pub fn excessive_shared_wavefronts(&self) -> u64 {
        self.shared_wavefronts - self.shared_wavefronts_ideal
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters {
            flops: 10,
            warps: 1,
            l1_sector_requests: 100,
            l1_sector_misses: 25,
            ..Default::default()
        };
        let b = Counters {
            flops: 5,
            warps: 2,
            l1_sector_requests: 100,
            l1_sector_misses: 25,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 15);
        assert_eq!(a.warps, 3);
        assert!((a.l1_miss_rate_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = Counters {
            flops: u64::MAX - 3,
            items: 10,
            ..Default::default()
        };
        let b = Counters {
            flops: 10,
            items: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, u64::MAX);
        assert_eq!(a.items, 11);
    }

    #[test]
    fn rates_handle_zero_denominator() {
        let c = Counters::default();
        assert_eq!(c.l1_miss_rate_pct(), 0.0);
        assert_eq!(c.l2_miss_rate_pct(), 0.0);
        assert_eq!(c.dram_bytes(32), 0);
    }

    #[test]
    fn excessive_wavefronts() {
        let c = Counters {
            shared_wavefronts: 16,
            shared_wavefronts_ideal: 4,
            ..Default::default()
        };
        assert_eq!(c.excessive_shared_wavefronts(), 12);
    }
}
