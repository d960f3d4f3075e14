//! Three-loop Parallelism (3LP, Section III-C): twelve work-items per
//! target site — `(i, k)` pairs — with a k-carried reduction into
//! `C(i, s)` resolved three ways:
//!
//! * **3LP-1**: partials in work-group local memory, one `group_barrier`,
//!   the `k == 0` item collapses and writes `C` — no atomics, which is
//!   why it wins (Section IV-D2);
//! * **3LP-2**: partials in local memory, `k == 0` initializes `C`,
//!   barrier, then *every* item atomically adds its partial to global
//!   `C(i, s)` (4-way address collisions);
//! * **3LP-3**: no local memory; `k == 0` initializes, barrier, then each
//!   item atomically adds each of its four `l`-terms directly (4 atomic
//!   updates per item, 4-way collisions).

use super::common::{
    effective_gid, link_sign, load_b_vec, row_term, spill_load, spill_store, DevTables,
    SharedLayout,
};
use super::decomp3;
use crate::strategy::{IndexOrder, IndexStyle, KernelConfig, Strategy};
use core::marker::PhantomData;
use gpu_sim::{Kernel, KernelResources, Lane};
use milc_complex::ComplexField;

/// The 3LP kernel (all three race-resolution variants).
pub struct ThreeLpKernel<C> {
    cfg: KernelConfig,
    t: DevTables,
    num_groups: u64,
    _c: PhantomData<C>,
}

impl<C: ComplexField> ThreeLpKernel<C> {
    /// Build the kernel for a configuration over device tables.
    pub fn new(cfg: KernelConfig, t: DevTables, num_groups: u64) -> Self {
        debug_assert!(matches!(
            cfg.strategy,
            Strategy::ThreeLp1 | Strategy::ThreeLp2 | Strategy::ThreeLp3
        ));
        Self {
            cfg,
            t,
            num_groups,
            _c: PhantomData,
        }
    }

    /// Local-memory stride (complex elements) between the k-partials of
    /// one `(site, i)` pair: 3 in k-major order (`k*3 + i` layout),
    /// 1 in i-major order (`i*4 + k`).
    fn k_stride(&self) -> u32 {
        match self.cfg.order {
            IndexOrder::KMajor => 3,
            _ => 1,
        }
    }

    /// Accumulate this item's partial sum over the four link types.
    fn partial(&self, lane: &mut Lane<'_>, s: u64, i: u64, k: u64) -> C {
        let t = &self.t;
        let mut acc = C::zero();
        for l in 0..4usize {
            let sign = link_sign(l);
            let src = lane.ld_global_u32(t.nbr_addr(l, s, k)) as u64;
            let bv = load_b_vec::<C>(lane, t, src);
            acc = row_term(lane, t, l, s, k, i, &bv, sign, acc);
        }
        acc
    }
}

impl<C: ComplexField> Kernel for ThreeLpKernel<C> {
    fn name(&self) -> &str {
        self.cfg.strategy.name()
    }

    fn num_phases(&self) -> usize {
        2
    }

    fn resources(&self, local_size: u32) -> KernelResources {
        KernelResources {
            registers_per_item: self.cfg.strategy.registers_per_item() + C::EXTRA_REGISTERS,
            local_mem_bytes_per_group: if self.cfg.strategy.uses_local_mem() {
                self.cfg.shared_layout.required_bytes(local_size)
            } else {
                0
            },
        }
    }

    fn local_size_multiple(&self) -> u32 {
        self.cfg.strategy.local_size_multiple(self.cfg.order)
    }

    fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
        let t = &self.t;
        let composed = self.cfg.index_style == IndexStyle::Composed;
        let gid = effective_gid(lane, composed, self.num_groups, 12);
        lane.iops(3); // the s/i/k div-mod chain of the listing
        let (cb, i, k) = decomp3(gid, self.cfg.order);
        if cb >= t.half_volume {
            return;
        }
        let lid = lane.local_id();
        let layout: SharedLayout = self.cfg.shared_layout;

        match self.cfg.strategy {
            Strategy::ThreeLp1 => {
                if phase == 0 {
                    let s = lane.ld_global_u32(t.target_addr(cb)) as u64;
                    spill_store(lane, t, self.cfg.spills_per_item);
                    let acc = self.partial(lane, s, i, k);
                    spill_load(lane, t, self.cfg.spills_per_item);
                    lane.st_local_c64(layout.offset(lid), acc.re(), acc.im());
                } else {
                    // After group_barrier: the k == 0 item of each (s, i)
                    // collapses the four partials and writes C(i, s).
                    if k == 0 {
                        lane.set_path(1);
                        let stride = self.k_stride();
                        let (re0, im0) = lane.ld_local_c64(layout.offset(lid));
                        let mut sum = C::new(re0, im0);
                        for kk in 1..4u32 {
                            let (re, im) = lane.ld_local_c64(layout.offset(lid + stride * kk));
                            sum += C::new(re, im);
                            lane.flops(2);
                        }
                        lane.st_global_c64(t.c_addr(cb, i), sum.re(), sum.im());
                    } else {
                        lane.set_path(2);
                    }
                }
            }
            Strategy::ThreeLp2 => {
                if phase == 0 {
                    let s = lane.ld_global_u32(t.target_addr(cb)) as u64;
                    spill_store(lane, t, self.cfg.spills_per_item);
                    let acc = self.partial(lane, s, i, k);
                    spill_load(lane, t, self.cfg.spills_per_item);
                    lane.st_local_c64(layout.offset(lid), acc.re(), acc.im());
                    // if (k == 0) initialize C(i, s)   [before the barrier]
                    if k == 0 {
                        lane.set_path(1);
                        lane.st_global_c64(t.c_addr(cb, i), 0.0, 0.0);
                    } else {
                        lane.set_path(2);
                    }
                } else {
                    // atomic_ref<double, relaxed, work_group, global>
                    // c_atomic(C(i,s)); c_atomic += c[local_id];
                    let (re, im) = lane.ld_local_c64(layout.offset(lid));
                    lane.atomic_add_global_f64(t.c_addr(cb, i), re);
                    lane.atomic_add_global_f64(t.c_addr(cb, i) + 8, im);
                    lane.flops(2);
                }
            }
            Strategy::ThreeLp3 => {
                if phase == 0 {
                    // if (k == 0) initialize C(i, s); group_barrier.
                    if k == 0 {
                        lane.set_path(1);
                        lane.st_global_c64(t.c_addr(cb, i), 0.0, 0.0);
                    } else {
                        lane.set_path(2);
                    }
                } else {
                    // Per-l atomic accumulation straight into global C.
                    let s = lane.ld_global_u32(t.target_addr(cb)) as u64;
                    spill_store(lane, t, self.cfg.spills_per_item);
                    for l in 0..4usize {
                        let sign = link_sign(l);
                        let src = lane.ld_global_u32(t.nbr_addr(l, s, k)) as u64;
                        let bv = load_b_vec::<C>(lane, t, src);
                        let term = row_term(lane, t, l, s, k, i, &bv, sign, C::zero());
                        lane.atomic_add_global_f64(t.c_addr(cb, i), term.re());
                        lane.atomic_add_global_f64(t.c_addr(cb, i) + 8, term.im());
                        lane.flops(2);
                    }
                    spill_load(lane, t, self.cfg.spills_per_item);
                }
            }
            _ => unreachable!("ThreeLpKernel holds a 3LP strategy"),
        }
    }
}
