//! Modelled-time attribution: which event class the kernel's time goes
//! to — the simulator's analogue of Nsight Compute's "speed of light"
//! breakdown, and the quantitative form of the paper's per-strategy
//! arguments ("poor memory coalescing", "atomic operations", "warp
//! stalling" …).

use crate::counters::Counters;
use crate::timing::TimingModel;

/// One attribution row.
#[derive(Clone, Debug, PartialEq)]
pub struct Share {
    /// Event class name.
    pub class: &'static str,
    /// Work contributed (SM-cycles).
    pub work: f64,
    /// Fraction of the total modelled work, percent.
    pub pct: f64,
}

/// Attribution of a launch's modelled time over the timing model's
/// event classes, largest first.
#[derive(Clone, Debug)]
pub struct TimeBreakdown {
    /// Per-class shares, sorted descending by work.
    pub shares: Vec<Share>,
    /// Total modelled work (SM-cycles).
    pub total_work: f64,
}

impl TimeBreakdown {
    /// Decompose a launch's counters under a timing model.
    pub fn new(model: &TimingModel, c: &Counters) -> Self {
        let w = &model.weights;
        let items = [
            (
                "L1 tag requests (coalescing)",
                w.l1_tag * c.l1_tag_requests_global as f64,
            ),
            (
                "L1 sector traffic",
                w.l1_sector * c.l1_sector_requests as f64,
            ),
            (
                "L2 sector traffic",
                w.l2_sector * c.l2_sector_requests as f64,
            ),
            (
                "DRAM sector traffic",
                w.dram_sector * c.l2_sector_misses as f64,
            ),
            (
                "shared-memory wavefronts",
                w.shared_wavefront * c.shared_wavefronts as f64,
            ),
            (
                "atomic serialization",
                w.atomic_pass * c.atomic_passes as f64,
            ),
            ("instruction issue", w.issue * c.warp_instructions as f64),
            ("barrier waits", w.barrier * c.barrier_waits as f64),
        ];
        let total: f64 = items.iter().map(|&(_, v)| v).sum();
        let mut shares: Vec<Share> = items
            .iter()
            .map(|&(class, work)| Share {
                class,
                work,
                pct: if total > 0.0 {
                    100.0 * work / total
                } else {
                    0.0
                },
            })
            .collect();
        shares.sort_by(|a, b| b.work.partial_cmp(&a.work).expect("finite work"));
        Self {
            shares,
            total_work: total,
        }
    }

    /// The dominating event class (the bottleneck the paper would name).
    pub fn dominant(&self) -> &Share {
        &self.shares[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Counters {
        Counters {
            l1_tag_requests_global: 10_000_000,
            l1_sector_requests: 20_000_000,
            l2_sector_requests: 5_000_000,
            l2_sector_misses: 2_000_000,
            shared_wavefronts: 400_000,
            atomic_passes: 100_000,
            warp_instructions: 8_000_000,
            barrier_waits: 10_000,
            ..Default::default()
        }
    }

    #[test]
    fn shares_sum_to_100() {
        let b = TimeBreakdown::new(&TimingModel::calibrated(), &counters());
        let sum: f64 = b.shares.iter().map(|s| s.pct).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(b.total_work > 0.0);
    }

    #[test]
    fn sorted_descending_and_dominant_first() {
        let b = TimeBreakdown::new(&TimingModel::calibrated(), &counters());
        for pair in b.shares.windows(2) {
            assert!(pair[0].work >= pair[1].work);
        }
        assert_eq!(b.dominant().class, b.shares[0].class);
    }

    #[test]
    fn memory_dominates_a_dslash_like_profile() {
        // The calibrated model must attribute a Dslash-shaped counter set
        // mostly to memory transactions (the paper's memory-bound
        // conclusion, Section V).
        let b = TimeBreakdown::new(&TimingModel::calibrated(), &counters());
        let mem_pct: f64 = b
            .shares
            .iter()
            .filter(|s| {
                s.class.contains("L1") || s.class.contains("L2") || s.class.contains("DRAM")
            })
            .map(|s| s.pct)
            .sum();
        assert!(mem_pct > 50.0, "memory share only {mem_pct:.1}%");
    }

    #[test]
    fn empty_counters_attribute_no_work() {
        let b = TimeBreakdown::new(&TimingModel::calibrated(), &Counters::default());
        assert_eq!(b.total_work, 0.0);
        assert!(b.shares.iter().all(|s| s.pct == 0.0));
    }
}
