//! Gauge-link and quark-field containers.
//!
//! The gauge field stores, for every site and direction, four SU(3)
//! matrices (paper Section II): the fat link `U`, the long link, and the
//! pre-adjointed backward fat/long links.  "For implementation purposes,
//! we store fat-links and long-links along with their respective
//! adjoints, which leads us to have |l| = 4."  Storing the backward links
//! already adjointed *and indexed by the target site* is what lets the
//! kernel address all four matrices with the same `(s, k)` pair.

use crate::color::ColorVector;
use crate::geometry::Lattice;
use crate::neighbors::{Hop, NeighborTable};
use crate::su3::Su3;
use milc_complex::ComplexField;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The four link-type arrays, in the paper's `l = 0..4` order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LinkType {
    /// `l = 0`: fat link, forward (`U_{s,k}` applied to `B_{s+k̂}`).
    FatFwd = 0,
    /// `l = 1`: long link, forward (`B_{s+3k̂}`).
    LongFwd = 1,
    /// `l = 2`: fat link, backward, pre-adjointed
    /// (`U†_{s-k̂,k}` applied to `B_{s-k̂}`, entering with a minus sign).
    FatBwd = 2,
    /// `l = 3`: long link, backward, pre-adjointed (`B_{s-3k̂}`, minus).
    LongBwd = 3,
}

impl LinkType {
    /// All four, in storage order.
    pub const ALL: [LinkType; 4] = [
        LinkType::FatFwd,
        LinkType::LongFwd,
        LinkType::FatBwd,
        LinkType::LongBwd,
    ];

    /// Sign with which this term enters Eq. (1): `+` for forward,
    /// `-` for backward links.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            LinkType::FatFwd | LinkType::LongFwd => 1.0,
            LinkType::FatBwd | LinkType::LongBwd => -1.0,
        }
    }
}

/// Gauge field: four flat arrays of 3x3 matrices indexed `[s * 4 + k]`.
#[derive(Clone, Debug)]
pub struct GaugeField<C> {
    lattice: Lattice,
    /// `links[l][s * 4 + k]`, `l` in [`LinkType`] order.
    links: [Vec<Su3<C>>; 4],
}

impl<C: ComplexField> GaugeField<C> {
    /// Generate a synthetic gauge configuration: independent random SU(3)
    /// elements for the forward fat and long links, backward arrays
    /// derived as the adjoint of the forward link at the displaced site
    /// (the real MILC packing rule), all from a fixed seed.
    ///
    /// Real HISQ fat links are weighted sums of paths and not unitary;
    /// using SU(3) for both keeps the arithmetic and memory behaviour
    /// identical while enabling exact gauge reconstruction in `quda-ref`.
    pub fn random(lattice: &Lattice, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let v = lattice.volume();
        let mut fat_fwd = Vec::with_capacity(v * 4);
        let mut long_fwd = Vec::with_capacity(v * 4);
        for _ in 0..v * 4 {
            fat_fwd.push(Su3::random(&mut rng));
            long_fwd.push(Su3::random(&mut rng));
        }
        Self::from_forward_links(lattice, fat_fwd, long_fwd)
    }

    /// Build the four arrays from forward fat and long links
    /// (`[s * 4 + k]` indexed).
    ///
    /// # Panics
    /// Panics if the input arrays do not have `volume * 4` entries.
    pub fn from_forward_links(
        lattice: &Lattice,
        fat_fwd: Vec<Su3<C>>,
        long_fwd: Vec<Su3<C>>,
    ) -> Self {
        let v = lattice.volume();
        assert_eq!(fat_fwd.len(), v * 4, "fat link array has wrong length");
        assert_eq!(long_fwd.len(), v * 4, "long link array has wrong length");
        let nt = NeighborTable::build(lattice);
        let mut fat_bwd = vec![Su3::zero(); v * 4];
        let mut long_bwd = vec![Su3::zero(); v * 4];
        for s in 0..v {
            for k in 0..4 {
                // Backward-fat at (s, k) is the adjoint of the forward fat
                // link that leaves s - k̂ toward s; similarly for long
                // links from s - 3k̂.
                let sm1 = nt.neighbor(Hop::Bwd1, s, k);
                let sm3 = nt.neighbor(Hop::Bwd3, s, k);
                fat_bwd[s * 4 + k] = fat_fwd[sm1 * 4 + k].adjoint();
                long_bwd[s * 4 + k] = long_fwd[sm3 * 4 + k].adjoint();
            }
        }
        Self {
            lattice: lattice.clone(),
            links: [fat_fwd, long_fwd, fat_bwd, long_bwd],
        }
    }

    /// The lattice this field lives on.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The whole array for one link type, in device order `[s * 4 + k]`.
    #[inline]
    pub fn array(&self, l: LinkType) -> &[Su3<C>] {
        &self.links[l as usize]
    }

    /// One link matrix.
    #[inline]
    pub fn link(&self, l: LinkType, s: usize, k: usize) -> &Su3<C> {
        &self.links[l as usize][s * 4 + k]
    }

    /// Convert the element type (e.g. to instantiate the SyclCPLX kernel
    /// variant with bit-identical data).
    pub fn convert<D: ComplexField>(&self) -> GaugeField<D> {
        let conv = |v: &Vec<Su3<C>>| v.iter().map(|m| m.convert::<D>()).collect();
        GaugeField {
            lattice: self.lattice.clone(),
            links: [
                conv(&self.links[0]),
                conv(&self.links[1]),
                conv(&self.links[2]),
                conv(&self.links[3]),
            ],
        }
    }
}

/// A quark field: one color vector per lattice site (full volume).
#[derive(Clone, Debug, PartialEq)]
pub struct QuarkField<C> {
    lattice: Lattice,
    v: Vec<ColorVector<C>>,
}

impl<C: ComplexField> QuarkField<C> {
    /// All-zero field.
    pub fn zeros(lattice: &Lattice) -> Self {
        Self {
            lattice: lattice.clone(),
            v: vec![ColorVector::zero(); lattice.volume()],
        }
    }

    /// Gaussian random field from a fixed seed.
    pub fn random(lattice: &Lattice, seed: u64) -> Self {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = move |rng: &mut ChaCha8Rng| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..core::f64::consts::TAU);
            (-2.0 * u1.ln()).sqrt() * u2.cos()
        };
        let v = (0..lattice.volume())
            .map(|_| {
                ColorVector::new(
                    C::new(g(&mut rng), g(&mut rng)),
                    C::new(g(&mut rng), g(&mut rng)),
                    C::new(g(&mut rng), g(&mut rng)),
                )
            })
            .collect();
        Self {
            lattice: lattice.clone(),
            v,
        }
    }

    /// The lattice this field lives on.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Number of sites.
    #[inline]
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the field has no sites (never true for a valid lattice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The vector at a site.
    #[inline]
    pub fn site(&self, s: usize) -> &ColorVector<C> {
        &self.v[s]
    }

    /// Mutable vector at a site.
    #[inline]
    pub fn site_mut(&mut self, s: usize) -> &mut ColorVector<C> {
        &mut self.v[s]
    }

    /// The raw per-site storage in lexicographic order.
    #[inline]
    pub fn as_slice(&self) -> &[ColorVector<C>] {
        &self.v
    }

    /// Convert the element type.
    pub fn convert<D: ComplexField>(&self) -> QuarkField<D> {
        QuarkField {
            lattice: self.lattice.clone(),
            v: self
                .v
                .iter()
                .map(|cv| {
                    ColorVector::new(
                        D::new(cv.c[0].re(), cv.c[0].im()),
                        D::new(cv.c[1].re(), cv.c[1].im()),
                        D::new(cv.c[2].re(), cv.c[2].im()),
                    )
                })
                .collect(),
        }
    }

    /// Global squared 2-norm.
    pub fn norm_sqr(&self) -> f64 {
        self.v.iter().map(|cv| cv.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn random_gauge_is_reproducible() {
        let lat = Lattice::hypercubic(2);
        let a = GaugeField::<Z>::random(&lat, 123);
        let b = GaugeField::<Z>::random(&lat, 123);
        for l in LinkType::ALL {
            assert_eq!(a.array(l), b.array(l));
        }
        let c = GaugeField::<Z>::random(&lat, 124);
        assert_ne!(a.array(LinkType::FatFwd), c.array(LinkType::FatFwd));
    }

    #[test]
    fn backward_links_are_displaced_adjoints() {
        let lat = Lattice::hypercubic(4);
        let g = GaugeField::<Z>::random(&lat, 7);
        let nt = NeighborTable::build(&lat);
        for s in (0..lat.volume()).step_by(13) {
            for k in 0..4 {
                let sm1 = nt.neighbor(Hop::Bwd1, s, k);
                let expect = g.link(LinkType::FatFwd, sm1, k).adjoint();
                assert_eq!(*g.link(LinkType::FatBwd, s, k), expect);
                let sm3 = nt.neighbor(Hop::Bwd3, s, k);
                let expect = g.link(LinkType::LongFwd, sm3, k).adjoint();
                assert_eq!(*g.link(LinkType::LongBwd, s, k), expect);
            }
        }
    }

    #[test]
    fn link_sign_convention() {
        assert_eq!(LinkType::FatFwd.sign(), 1.0);
        assert_eq!(LinkType::LongFwd.sign(), 1.0);
        assert_eq!(LinkType::FatBwd.sign(), -1.0);
        assert_eq!(LinkType::LongBwd.sign(), -1.0);
    }

    #[test]
    fn quark_field_roundtrip_and_norm() {
        let lat = Lattice::hypercubic(2);
        let q = QuarkField::<Z>::random(&lat, 99);
        assert_eq!(q.len(), 16);
        assert!(q.norm_sqr() > 0.0);
        let q2 = QuarkField::<Z>::random(&lat, 99);
        assert_eq!(q, q2);
        let conv = q.convert::<milc_complex::Cplx>().convert::<Z>();
        assert_eq!(q, conv);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_forward_links_validates_length() {
        let lat = Lattice::hypercubic(2);
        let _ = GaugeField::<Z>::from_forward_links(&lat, vec![], vec![]);
    }
}
