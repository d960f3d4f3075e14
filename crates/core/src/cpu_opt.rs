//! Optimized CPU Dslash: the tuned host-side production path.
//!
//! Compared to the straightforward [`reference`](crate::reference)
//! implementation, this version applies the standard CPU optimizations
//! MILC's own site-loop kernels use:
//!
//! * **fused multiply-add** accumulation (`f64::mul_add`) for the
//!   complex arithmetic — one rounding per term and the FMA pipe on any
//!   modern core;
//! * **block-cyclic rayon scheduling** over cache-friendly chunks of
//!   consecutive checkerboard sites (consecutive even sites share
//!   gauge-cache lines and most of their neighbor spinors);
//! * **fully unrolled color loops** with the accumulators held in
//!   scalars, letting the compiler keep them in registers.
//!
//! Results differ from the reference only by FMA rounding (the fused
//! product is not rounded before the add), so validation is
//! tolerance-based.  `hostbench`'s `cpu.*` layers time the three host
//! paths (sequential reference, rayon reference, this).

use milc_complex::DoubleComplex;
use milc_lattice::{ColorVector, GaugeField, NeighborTable, Parity, QuarkField};
use rayon::prelude::*;

/// Sites per rayon work unit: large enough to amortize scheduling,
/// small enough to balance the tail.
const CHUNK: usize = 256;

#[derive(Copy, Clone)]
struct Acc {
    re: f64,
    im: f64,
}

impl Acc {
    #[inline(always)]
    fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// `self += sign * u * b` with FMA contraction.
    #[inline(always)]
    fn fma(&mut self, u: DoubleComplex, b: DoubleComplex, sign: f64) {
        // (u.re*b.re - u.im*b.im) + i (u.re*b.im + u.im*b.re)
        let pre = u.re.mul_add(b.re, -(u.im * b.im));
        let pim = u.re.mul_add(b.im, u.im * b.re);
        self.re = sign.mul_add(pre, self.re);
        self.im = sign.mul_add(pim, self.im);
    }
}

/// Optimized staggered Dslash over all sites of `parity`, writing into a
/// preallocated output.
pub fn dslash_opt_into(
    gauge: &GaugeField<DoubleComplex>,
    b: &QuarkField<DoubleComplex>,
    nt: &NeighborTable,
    parity: Parity,
    out: &mut [ColorVector<DoubleComplex>],
) {
    let lattice = gauge.lattice();
    assert_eq!(out.len(), lattice.half_volume(), "output length mismatch");
    let arrays = [
        gauge.array(milc_lattice::LinkType::FatFwd),
        gauge.array(milc_lattice::LinkType::LongFwd),
        gauge.array(milc_lattice::LinkType::FatBwd),
        gauge.array(milc_lattice::LinkType::LongBwd),
    ];
    let bsites = b.as_slice();

    out.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(chunk, slots)| {
            let cb0 = chunk * CHUNK;
            for (off, slot) in slots.iter_mut().enumerate() {
                let cb = cb0 + off;
                let s = lattice.site_of_checkerboard(cb, parity);
                let mut acc = [Acc::zero(); 3];
                for (l, links) in arrays.iter().enumerate() {
                    let sign = if l < 2 { 1.0 } else { -1.0 };
                    for k in 0..4 {
                        let src = nt.source_site(l, s, k);
                        let bv = &bsites[src];
                        let m = &links[s * 4 + k];
                        // Fully unrolled 3x3 complex mat-vec.
                        for (a, row) in acc.iter_mut().zip(&m.e) {
                            a.fma(row[0], bv.c[0], sign);
                            a.fma(row[1], bv.c[1], sign);
                            a.fma(row[2], bv.c[2], sign);
                        }
                    }
                }
                *slot = ColorVector::new(
                    DoubleComplex::new(acc[0].re, acc[0].im),
                    DoubleComplex::new(acc[1].re, acc[1].im),
                    DoubleComplex::new(acc[2].re, acc[2].im),
                );
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::validate::compare_to_reference;
    use milc_lattice::Lattice;

    fn dslash_opt(
        gauge: &GaugeField<DoubleComplex>,
        b: &QuarkField<DoubleComplex>,
        nt: &NeighborTable,
        parity: Parity,
    ) -> Vec<ColorVector<DoubleComplex>> {
        let mut out = vec![ColorVector::zero(); gauge.lattice().half_volume()];
        dslash_opt_into(gauge, b, nt, parity, &mut out);
        out
    }

    #[test]
    fn matches_reference_within_fma_rounding() {
        let lat = Lattice::hypercubic(4);
        let g = GaugeField::<DoubleComplex>::random(&lat, 71);
        let b = QuarkField::<DoubleComplex>::random(&lat, 72);
        let nt = NeighborTable::build(&lat);
        for parity in [Parity::Even, Parity::Odd] {
            let expect = reference::dslash(&g, &b, parity);
            let got = dslash_opt(&g, &b, &nt, parity);
            let err = compare_to_reference(&got, &expect);
            assert!(err.rel < 1e-12, "parity {parity:?}: {err:?}");
        }
    }

    #[test]
    fn deterministic_across_thread_schedules() {
        // Chunked writes are disjoint, so the result must not depend on
        // rayon's scheduling.
        let lat = Lattice::hypercubic(4);
        let g = GaugeField::<DoubleComplex>::random(&lat, 73);
        let b = QuarkField::<DoubleComplex>::random(&lat, 74);
        let nt = NeighborTable::build(&lat);
        let a = dslash_opt(&g, &b, &nt, Parity::Even);
        let c = dslash_opt(&g, &b, &nt, Parity::Even);
        assert_eq!(a, c);
    }

    #[test]
    fn non_chunk_multiple_volumes_are_handled() {
        // 2^4/2 = 8 sites: smaller than one chunk; 6^4/2 = 648: not a
        // multiple of 256.
        for l in [2usize, 6] {
            let lat = Lattice::hypercubic(l);
            let g = GaugeField::<DoubleComplex>::random(&lat, 75);
            let b = QuarkField::<DoubleComplex>::random(&lat, 76);
            let nt = NeighborTable::build(&lat);
            let expect = reference::dslash(&g, &b, Parity::Even);
            let got = dslash_opt(&g, &b, &nt, Parity::Even);
            let err = compare_to_reference(&got, &expect);
            assert!(err.rel < 1e-12, "L = {l}: {err:?}");
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn validates_output_length() {
        let lat = Lattice::hypercubic(2);
        let g = GaugeField::<DoubleComplex>::random(&lat, 1);
        let b = QuarkField::<DoubleComplex>::random(&lat, 2);
        let nt = NeighborTable::build(&lat);
        let mut out = vec![ColorVector::zero(); 3];
        dslash_opt_into(&g, &b, &nt, Parity::Even, &mut out);
    }
}
