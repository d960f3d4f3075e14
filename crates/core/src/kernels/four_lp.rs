//! Four-loop Parallelism (4LP, Section III-D): 48 work-items per target
//! site — one `(i, k, l)` triple each — with divergent branches over the
//! four link types and two barriers:
//!
//! * phase 0: each item computes its single row-times-vector term inside
//!   the `l`-branch chain ("all warp threads take the path through the
//!   conditional branches, one branch at a time") and stores it to local
//!   memory;
//! * phase 1 (after the first barrier): the `l == 0` item of each
//!   `(s, i, k)` collapses the four `l`-partials;
//! * phase 2 (after the second barrier): the `l == 0 && k == 0` item
//!   collapses the four `k`-partials and writes `C(i, s)`.
//!
//! 4LP-1 groups items `l`-then-`k` (k-major / i-major orders); 4LP-2
//! groups `k`-then-`l` (l-major / i-major orders), which changes the
//! clustering of same-`l` lanes inside a warp: 12 consecutive for 4LP-1,
//! 3 for 4LP-2 l-major, 1 for 4LP-2 i-major (Section IV-D8).

use super::common::{
    effective_gid, link_sign, load_b_vec, row_term, spill_load, spill_store, DevTables,
    SharedLayout,
};
use super::{decomp4, four_lp_strides};
use crate::strategy::{IndexStyle, KernelConfig, Strategy};
use core::marker::PhantomData;
use gpu_sim::{Kernel, KernelResources, Lane};
use milc_complex::ComplexField;

/// The 4LP kernel (both groupings, all index orders).
pub struct FourLpKernel<C> {
    cfg: KernelConfig,
    t: DevTables,
    num_groups: u64,
    _c: PhantomData<C>,
}

impl<C: ComplexField> FourLpKernel<C> {
    /// Build the kernel for a configuration over device tables.
    pub fn new(cfg: KernelConfig, t: DevTables, num_groups: u64) -> Self {
        debug_assert!(matches!(
            cfg.strategy,
            Strategy::FourLp1 | Strategy::FourLp2
        ));
        Self {
            cfg,
            t,
            num_groups,
            _c: PhantomData,
        }
    }
}

impl<C: ComplexField> Kernel for FourLpKernel<C> {
    fn name(&self) -> &str {
        self.cfg.strategy.name()
    }

    fn num_phases(&self) -> usize {
        3
    }

    fn resources(&self, local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: self.cfg.strategy.registers_per_item() + C::EXTRA_REGISTERS,
            local_mem_bytes_per_group: self.cfg.shared_layout.required_bytes(local_size),
        }
    }

    fn local_size_multiple(&self) -> u32 {
        self.cfg.strategy.local_size_multiple(self.cfg.order)
    }

    fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
        let t = &self.t;
        let composed = self.cfg.index_style == IndexStyle::Composed;
        let gid = effective_gid(lane, composed, self.num_groups, 48);
        lane.iops(4); // the s/i/k/l div-mod chain
        let (cb, i, k, l) = decomp4(gid, self.cfg.strategy, self.cfg.order);
        if cb >= t.half_volume {
            return;
        }
        let lid = lane.local_id();
        let layout: SharedLayout = self.cfg.shared_layout;
        let (l_stride, k_stride) = four_lp_strides(self.cfg.strategy, self.cfg.order);

        match phase {
            0 => {
                // The gather and spills are uniform; the per-l work is the
                // divergent branch chain of the listing (if l == 0 ...
                // else if l == 1 ...).
                let s = lane.ld_global_u32(t.target_addr(cb)) as u64;
                spill_store(lane, t, self.cfg.spills_per_item);
                lane.set_path(1 + l as u32);
                let sign = link_sign(l as usize);
                let src = lane.ld_global_u32(t.nbr_addr(l as usize, s, k)) as u64;
                let bv = load_b_vec::<C>(lane, t, src);
                let term = row_term(lane, t, l as usize, s, k, i, &bv, sign, C::zero());
                lane.st_local_c64(layout.offset(lid), term.re(), term.im());
                lane.set_path(0);
                spill_load(lane, t, self.cfg.spills_per_item);
            }
            1 => {
                // First barrier has fired: collapse the l-partials.
                if l == 0 {
                    lane.set_path(1);
                    let (re0, im0) = lane.ld_local_c64(layout.offset(lid));
                    let mut sum = C::new(re0, im0);
                    for ll in 1..4u32 {
                        let (re, im) = lane.ld_local_c64(layout.offset(lid + l_stride * ll));
                        sum += C::new(re, im);
                        lane.flops(2);
                    }
                    lane.st_local_c64(layout.offset(lid), sum.re(), sum.im());
                } else {
                    lane.set_path(2);
                }
            }
            2 => {
                // Second barrier: collapse the k-partials and write C.
                if l == 0 && k == 0 {
                    lane.set_path(1);
                    let (re0, im0) = lane.ld_local_c64(layout.offset(lid));
                    let mut sum = C::new(re0, im0);
                    for kk in 1..4u32 {
                        let (re, im) = lane.ld_local_c64(layout.offset(lid + k_stride * kk));
                        sum += C::new(re, im);
                        lane.flops(2);
                    }
                    lane.st_global_c64(t.c_addr(cb, i), sum.re(), sum.im());
                } else {
                    lane.set_path(2);
                }
            }
            _ => unreachable!("4LP has three phases"),
        }
    }
}
