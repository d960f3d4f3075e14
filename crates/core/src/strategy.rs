//! Strategy, index-order and variant configuration types.
//!
//! A [`KernelConfig`] pins down everything Section III and IV vary:
//! the parallel strategy (1LP … 4LP-2), the work-item index order
//! (k-/i-/l-major), the indexing style (direct `get_global_id()` versus
//! the SYCLomatic composed expression), and the register-spill behaviour
//! (the CUDA `-maxrregcount` study).  It also owns the paper's
//! *divisibility constraints*: "the size of c, and consequently the local
//! size, must be a multiple of |i| x |k| = 12 for k-major order, and
//! |k| = 4 for i-major order … the remainder of global size upon division
//! by local size must be zero" (Section III-C), and the 4LP equivalent of
//! 48 (Section III-D).

use crate::kernels::common::SharedLayout;
use milc_lattice::{NDIM, NMAT, NROW};

/// The parallel strategies of Section III.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One-loop parallelism: one work-item per target site.
    OneLp,
    /// Two-loop parallelism: + matrix rows (3 items/site).
    TwoLp,
    /// Three-loop parallelism, race resolved with local memory, a
    /// barrier and a single-writer collapse (3LP-1).
    ThreeLp1,
    /// 3LP with local memory + barrier + global atomic update (3LP-2).
    ThreeLp2,
    /// 3LP with per-iteration global atomics, no local memory (3LP-3).
    ThreeLp3,
    /// Four-loop parallelism, items grouped l-then-k (4LP-1).
    FourLp1,
    /// Four-loop parallelism, items grouped k-then-l (4LP-2).
    FourLp2,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [Strategy; 7] = [
        Strategy::OneLp,
        Strategy::TwoLp,
        Strategy::ThreeLp1,
        Strategy::ThreeLp2,
        Strategy::ThreeLp3,
        Strategy::FourLp1,
        Strategy::FourLp2,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::OneLp => "1LP",
            Strategy::TwoLp => "2LP",
            Strategy::ThreeLp1 => "3LP-1",
            Strategy::ThreeLp2 => "3LP-2",
            Strategy::ThreeLp3 => "3LP-3",
            Strategy::FourLp1 => "4LP-1",
            Strategy::FourLp2 => "4LP-2",
        }
    }

    /// Work-items per target site.
    pub fn items_per_site(&self) -> u64 {
        match self {
            Strategy::OneLp => 1,
            Strategy::TwoLp => NROW as u64,
            Strategy::ThreeLp1 | Strategy::ThreeLp2 | Strategy::ThreeLp3 => (NROW * NDIM) as u64,
            Strategy::FourLp1 | Strategy::FourLp2 => (NROW * NDIM * NMAT) as u64,
        }
    }

    /// Whether the strategy uses work-group local memory.
    pub fn uses_local_mem(&self) -> bool {
        matches!(
            self,
            Strategy::ThreeLp1 | Strategy::ThreeLp2 | Strategy::FourLp1 | Strategy::FourLp2
        )
    }

    /// Whether the strategy uses global atomics.
    pub fn uses_atomics(&self) -> bool {
        matches!(self, Strategy::ThreeLp2 | Strategy::ThreeLp3)
    }

    /// The index orders the paper evaluates for this strategy.
    pub fn orders(&self) -> &'static [IndexOrder] {
        match self {
            Strategy::OneLp | Strategy::TwoLp => &[IndexOrder::KMajor],
            Strategy::ThreeLp1 | Strategy::ThreeLp2 | Strategy::ThreeLp3 | Strategy::FourLp1 => {
                &[IndexOrder::KMajor, IndexOrder::IMajor]
            }
            Strategy::FourLp2 => &[IndexOrder::LMajor, IndexOrder::IMajor],
        }
    }

    /// The paper's local-size divisibility requirement for an order:
    /// the partial sums of one target site must stay within a group.
    pub fn local_size_multiple(&self, order: IndexOrder) -> u32 {
        match self {
            Strategy::OneLp | Strategy::TwoLp => 1,
            Strategy::ThreeLp1 | Strategy::ThreeLp2 | Strategy::ThreeLp3 => match order {
                // k-major: the 12 items of a site are consecutive.
                IndexOrder::KMajor => (NROW * NDIM) as u32,
                // i-major: items grouped by i; a site's k-partials for one
                // row span |k| consecutive items.
                IndexOrder::IMajor => NDIM as u32,
                IndexOrder::LMajor => (NROW * NDIM) as u32,
            },
            Strategy::FourLp1 | Strategy::FourLp2 => (NROW * NDIM * NMAT) as u32,
        }
    }

    /// Per-work-item register estimate (see `kernels` module docs):
    /// coarser strategies keep a full site's accumulators and loop state
    /// live, finer ones only a row's worth.  1LP's 64 registers bound
    /// its occupancy to 50% theoretical, matching Table I row 4; the
    /// finer strategies' 36 leaves headroom for the SyclCPLX variant's
    /// extra live values without crossing an occupancy cliff, as the
    /// paper's sub-3% SyclCPLX deltas imply.
    pub fn registers_per_item(&self) -> u32 {
        match self {
            Strategy::OneLp => 64,
            Strategy::TwoLp => 40,
            _ => 36,
        }
    }
}

/// Work-item index orders (Figs. 3–5 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    /// Items grouped by `k`; `i` varies fastest.
    KMajor,
    /// Items grouped by `i`; `k` (or `l`) varies fastest.
    IMajor,
    /// 4LP-2 only: items grouped by `k`, then `l`, `i` fastest.
    LMajor,
}

impl IndexOrder {
    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            IndexOrder::KMajor => "k-major",
            IndexOrder::IMajor => "i-major",
            IndexOrder::LMajor => "l-major",
        }
    }
}

/// How the kernel obtains its global index (Section IV-C item 5 /
/// Section IV-D6): the hand-written kernels call `get_global_id()`
/// directly; the unoptimized SYCLomatic migration composes it from
/// `get_local_range() * get_group() + get_local_id()` over a
/// three-dimensional index space, which both costs extra index
/// arithmetic and produces a different work-group-to-data mapping
/// (modelled as a group-order permutation that degrades locality;
/// the paper measures a 10.0–12.2% penalty).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexStyle {
    /// `int global_id = item.get_global_id(0);`
    Direct,
    /// The SYCLomatic composed expression over a 3-D range.
    Composed,
}

/// A fully-specified kernel configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Parallel strategy.
    pub strategy: Strategy,
    /// Work-item index order.
    pub order: IndexOrder,
    /// Index computation style.
    pub index_style: IndexStyle,
    /// Register spills per work-item (pairs of 8-byte stack traffic);
    /// models the CUDA `-maxrregcount 64` study: the default compilation
    /// spills a little, the capped one does not (Section IV-D4).
    pub spills_per_item: u32,
    /// Work-group local-memory layout (meaningful only for strategies
    /// with [`Strategy::uses_local_mem`]; a tunable dimension).
    pub shared_layout: SharedLayout,
}

impl KernelConfig {
    /// The baseline configuration of a strategy/order: direct indexing,
    /// the small default spill count.
    pub fn new(strategy: Strategy, order: IndexOrder) -> Self {
        Self {
            strategy,
            order,
            index_style: IndexStyle::Direct,
            spills_per_item: DEFAULT_SPILLS,
            shared_layout: SharedLayout::Flat,
        }
    }

    /// The same configuration under another local-memory layout.
    pub fn with_layout(mut self, layout: SharedLayout) -> Self {
        self.shared_layout = layout;
        self
    }

    /// The local-memory layouts worth sweeping for this configuration:
    /// the three tunable layouts for local-memory strategies, just
    /// [`SharedLayout::Flat`] otherwise (layout is meaningless there).
    pub fn tunable_layouts(&self) -> Vec<SharedLayout> {
        if self.strategy.uses_local_mem() {
            SharedLayout::TUNABLE.to_vec()
        } else {
            vec![SharedLayout::Flat]
        }
    }

    /// Global size for a given half-volume (paper: items/site x L^4/2).
    pub fn global_size(&self, half_volume: u64) -> u64 {
        half_volume * self.strategy.items_per_site()
    }

    /// Whether `local_size` satisfies the paper's constraints for this
    /// configuration on a device with the given warp size and maximum.
    pub fn local_size_legal(&self, local_size: u32, half_volume: u64) -> bool {
        if local_size == 0 || local_size > 1024 {
            return false;
        }
        if !local_size.is_multiple_of(self.strategy.local_size_multiple(self.order)) {
            return false;
        }
        self.global_size(half_volume)
            .is_multiple_of(local_size as u64)
    }

    /// The legal local sizes that are also multiples of the warp size,
    /// up to the device maximum — the sweep Fig. 6 runs.
    pub fn legal_local_sizes(&self, half_volume: u64) -> Vec<u32> {
        let step = lcm(
            self.strategy.local_size_multiple(self.order),
            32, // warp size: "being a multiple of warp size" (IV-B)
        );
        (1..=1024 / step)
            .map(|m| m * step)
            .filter(|&ls| self.local_size_legal(ls, half_volume))
            .collect()
    }

    /// Label for figures: e.g. `3LP-1 k-major`; non-default local
    /// layouts are tagged (`3LP-1 k-major xor2`) so cache keys and
    /// report rows stay distinct per layout.
    pub fn label(&self) -> String {
        let base = match self.strategy {
            Strategy::OneLp | Strategy::TwoLp => self.strategy.name().to_string(),
            _ => format!("{} {}", self.strategy.name(), self.order.name()),
        };
        match self.shared_layout {
            SharedLayout::Flat => base,
            layout => format!("{base} {}", layout.tag()),
        }
    }
}

/// Spill pairs per item in a default (uncapped) compilation.
pub const DEFAULT_SPILLS: u32 = 2;

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_per_site_match_paper() {
        assert_eq!(Strategy::OneLp.items_per_site(), 1);
        assert_eq!(Strategy::TwoLp.items_per_site(), 3);
        assert_eq!(Strategy::ThreeLp1.items_per_site(), 12);
        assert_eq!(Strategy::FourLp1.items_per_site(), 48);
    }

    #[test]
    fn global_sizes_match_table1_row2() {
        // L = 32: 0.5M, 1.6M, 6.3M, 25.2M work-items.
        let hv = 524_288u64;
        assert_eq!(
            KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor).global_size(hv),
            524_288
        );
        assert_eq!(
            KernelConfig::new(Strategy::TwoLp, IndexOrder::KMajor).global_size(hv),
            1_572_864
        );
        assert_eq!(
            KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor).global_size(hv),
            6_291_456
        );
        assert_eq!(
            KernelConfig::new(Strategy::FourLp2, IndexOrder::LMajor).global_size(hv),
            25_165_824
        );
    }

    #[test]
    fn paper_3lp_k_major_local_sizes() {
        // "the local sizes of 3LP-1 … in k-major order that follow all
        // established restrictions are: 96, 192, 384, and 768."
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let sizes = cfg.legal_local_sizes(524_288);
        // The global size 2^21 * 3 eliminates all non-power-of-two
        // multiples of 96, leaving exactly the paper's four sizes.
        assert_eq!(sizes, vec![96, 192, 384, 768]);
    }

    #[test]
    fn four_lp_requires_multiples_of_48_and_warp() {
        let cfg = KernelConfig::new(Strategy::FourLp1, IndexOrder::KMajor);
        // 48 satisfies the strategy constraint itself ...
        assert!(cfg.local_size_legal(48, 1024));
        assert!(cfg.local_size_legal(96, 1024));
        assert!(!cfg.local_size_legal(100, 1024));
        // ... but the Fig. 6 sweep additionally requires warp alignment,
        // so the enumerated sizes are multiples of lcm(48, 32) = 96.
        let sizes = cfg.legal_local_sizes(1024);
        assert!(!sizes.contains(&48));
        assert!(sizes.iter().all(|s| s % 96 == 0));
    }

    #[test]
    fn i_major_allows_multiples_of_4() {
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::IMajor);
        // 128 is a multiple of 4 and of 32 and divides 12*hv for hv=1024.
        assert!(cfg.local_size_legal(128, 1024));
        // k-major rejects 128 (not a multiple of 12).
        let cfg_k = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        assert!(!cfg_k.local_size_legal(128, 1024));
    }

    #[test]
    fn indivisible_global_rejected() {
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        // hv * 12 = 24 not divisible by 96 for hv = 2.
        assert!(!cfg.local_size_legal(96, 2));
    }

    #[test]
    fn orders_per_strategy() {
        assert_eq!(Strategy::OneLp.orders(), &[IndexOrder::KMajor]);
        assert_eq!(
            Strategy::ThreeLp1.orders(),
            &[IndexOrder::KMajor, IndexOrder::IMajor]
        );
        assert_eq!(
            Strategy::FourLp2.orders(),
            &[IndexOrder::LMajor, IndexOrder::IMajor]
        );
    }

    #[test]
    fn labels() {
        assert_eq!(
            KernelConfig::new(Strategy::OneLp, IndexOrder::KMajor).label(),
            "1LP"
        );
        assert_eq!(
            KernelConfig::new(Strategy::ThreeLp2, IndexOrder::IMajor).label(),
            "3LP-2 i-major"
        );
        assert_eq!(
            KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor)
                .with_layout(SharedLayout::Swizzled { xor_bits: 2 })
                .label(),
            "3LP-1 k-major xor2"
        );
    }

    #[test]
    fn tunable_layouts_only_for_local_mem_strategies() {
        let local = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        assert_eq!(local.tunable_layouts().len(), 3);
        let global = KernelConfig::new(Strategy::ThreeLp3, IndexOrder::KMajor);
        assert_eq!(global.tunable_layouts(), vec![SharedLayout::Flat]);
    }

    #[test]
    fn lcm_gcd() {
        assert_eq!(lcm(12, 32), 96);
        assert_eq!(lcm(4, 32), 32);
        assert_eq!(lcm(48, 32), 96);
    }
}
