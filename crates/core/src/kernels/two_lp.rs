//! Two-loop Parallelism (2LP, Section III-B): three work-items per
//! target site, one matrix row each — `int s = global_id / nrow;
//! int i = global_id % nrow;` — no cross-item dependence, so still a
//! single phase.

use super::common::{
    effective_gid, link_sign, load_b_vec, row_term, spill_load, spill_store, DevTables,
};
use crate::strategy::{IndexStyle, KernelConfig};
use core::marker::PhantomData;
use gpu_sim::{Kernel, KernelResources, Lane};
use milc_complex::ComplexField;

/// The 2LP kernel.
pub struct TwoLpKernel<C> {
    cfg: KernelConfig,
    t: DevTables,
    num_groups: u64,
    _c: PhantomData<C>,
}

impl<C: ComplexField> TwoLpKernel<C> {
    /// Build the kernel for a configuration over device tables.
    pub fn new(cfg: KernelConfig, t: DevTables, num_groups: u64) -> Self {
        Self {
            cfg,
            t,
            num_groups,
            _c: PhantomData,
        }
    }
}

impl<C: ComplexField> Kernel for TwoLpKernel<C> {
    fn name(&self) -> &str {
        "2LP"
    }

    fn resources(&self, _local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: self.cfg.strategy.registers_per_item() + C::EXTRA_REGISTERS,
            local_mem_bytes_per_group: 0,
        }
    }

    fn local_size_multiple(&self) -> u32 {
        self.cfg.strategy.local_size_multiple(self.cfg.order)
    }

    fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
        let t = &self.t;
        let composed = self.cfg.index_style == IndexStyle::Composed;
        let gid = effective_gid(lane, composed, self.num_groups, 3);
        lane.iops(2); // s = gid / nrow; i = gid % nrow
        let cb = gid / 3;
        let i = gid % 3;
        if cb >= t.half_volume {
            return;
        }
        let s = lane.ld_global_u32(t.target_addr(cb)) as u64;
        spill_store(lane, t, self.cfg.spills_per_item);

        let mut acc = C::zero();
        for l in 0..4usize {
            let sign = link_sign(l);
            for k in 0..4u64 {
                let src = lane.ld_global_u32(t.nbr_addr(l, s, k)) as u64;
                let bv = load_b_vec::<C>(lane, t, src);
                acc = row_term(lane, t, l, s, k, i, &bv, sign, acc);
            }
        }

        spill_load(lane, t, self.cfg.spills_per_item);
        lane.st_global_c64(t.c_addr(cb, i), acc.re(), acc.im());
    }
}
