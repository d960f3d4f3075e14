//! Rayon-parallel CPU Dslash.
//!
//! The host-side production path: the target sites are independent
//! (the 1LP observation), so the site loop converts directly into a
//! parallel iterator.  Used by the CG-solver example and as the CPU
//! baseline in the benchmark suite.

use crate::reference::dslash_site;
use milc_complex::ComplexField;
use milc_lattice::{ColorVector, GaugeField, NeighborTable, Parity, QuarkField};
use rayon::prelude::*;

/// Parallel staggered Dslash over all sites of `parity`, with a
/// caller-provided neighbor table (build it once, apply many times),
/// writing into a preallocated output.
pub fn dslash_par_into<C: ComplexField>(
    gauge: &GaugeField<C>,
    b: &QuarkField<C>,
    nt: &NeighborTable,
    parity: Parity,
    out: &mut [ColorVector<C>],
) {
    let lattice = gauge.lattice();
    assert_eq!(out.len(), lattice.half_volume(), "output length mismatch");
    out.par_iter_mut().enumerate().for_each(|(cb, slot)| {
        let s = lattice.site_of_checkerboard(cb, parity);
        *slot = dslash_site(gauge, b, nt, s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dslash;
    use milc_complex::DoubleComplex as Z;
    use milc_lattice::Lattice;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let lat = Lattice::hypercubic(4);
        let g = GaugeField::<Z>::random(&lat, 31);
        let b = QuarkField::<Z>::random(&lat, 32);
        let nt = NeighborTable::build(&lat);
        for parity in [Parity::Even, Parity::Odd] {
            let mut par = vec![ColorVector::<Z>::zero(); lat.half_volume()];
            dslash_par_into(&g, &b, &nt, parity, &mut par);
            // Same per-site association order -> bitwise.
            assert_eq!(dslash(&g, &b, parity), par);
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn into_variant_validates_length() {
        let lat = Lattice::hypercubic(2);
        let g = GaugeField::<Z>::random(&lat, 1);
        let b = QuarkField::<Z>::random(&lat, 2);
        let nt = NeighborTable::build(&lat);
        let mut out = vec![ColorVector::<Z>::zero(); 3];
        dslash_par_into(&g, &b, &nt, Parity::Even, &mut out);
    }
}
