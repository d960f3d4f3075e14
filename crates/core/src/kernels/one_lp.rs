//! One-loop Parallelism (1LP, Section III-A): one work-item per target
//! site, executing the full `|l| x |k| x |i| x |j|` loop nest.

use super::common::{
    effective_gid, link_sign, load_b_vec, row_term, spill_load, spill_store, DevTables,
};
use crate::strategy::{IndexStyle, KernelConfig};
use core::marker::PhantomData;
use gpu_sim::{Kernel, KernelResources, Lane};
use milc_complex::ComplexField;

/// The 1LP kernel.
pub struct OneLpKernel<C> {
    cfg: KernelConfig,
    t: DevTables,
    num_groups: u64,
    _c: PhantomData<C>,
}

impl<C: ComplexField> OneLpKernel<C> {
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

impl<C: ComplexField> Kernel for OneLpKernel<C> {
    fn name(&self) -> &str {
        "1LP"
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
        let gid = effective_gid(lane, composed, self.num_groups, 1);
        if gid >= t.half_volume {
            return;
        }
        let s = lane.ld_global_u32(t.target_addr(gid)) as u64;
        spill_store(lane, t, self.cfg.spills_per_item);

        let mut acc = [C::zero(); 3];
        for l in 0..4usize {
            let sign = link_sign(l);
            for k in 0..4u64 {
                let src = lane.ld_global_u32(t.nbr_addr(l, s, k)) as u64;
                let bv = load_b_vec::<C>(lane, t, src);
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = row_term(lane, t, l, s, k, i as u64, &bv, sign, *a);
                }
            }
        }

        spill_load(lane, t, self.cfg.spills_per_item);
        for (i, a) in acc.iter().enumerate() {
            lane.st_global_c64(t.c_addr(gid, i as u64), a.re(), a.im());
        }
    }
}
