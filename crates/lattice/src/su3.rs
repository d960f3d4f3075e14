//! SU(3) matrices — "square complex matrices of order three — that
//! parametrize the gluon field" (Section II of the paper).

use core::ops::{Index, IndexMut, Mul};
use milc_complex::ComplexField;
use rand::Rng;

/// A 3x3 complex matrix, generic over the complex implementation.
///
/// The type does not *enforce* special-unitarity — fat links in HISQ are
/// in general not unitary — but provides generation of genuine SU(3)
/// elements ([`Su3::random`]) and diagnostics
/// ([`Su3::unitarity_error`], [`Su3::det`]) used by the gauge
/// reconstruction code in `quda-ref` and by the property tests.
#[derive(Copy, Clone, Debug, PartialEq)]
#[repr(C)]
pub struct Su3<C> {
    /// Row-major elements `e[row][col]`.
    pub e: [[C; 3]; 3],
}

impl<C: ComplexField> Default for Su3<C> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<C: ComplexField> Su3<C> {
    /// The zero matrix.
    #[inline]
    pub fn zero() -> Self {
        Self {
            e: [[C::zero(); 3]; 3],
        }
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Self {
        let mut m = Self::zero();
        for i in 0..3 {
            m.e[i][i] = C::one();
        }
        m
    }

    /// Hermitian conjugate (dagger): conjugate transpose.
    #[inline]
    pub fn adjoint(&self) -> Self {
        let mut m = Self::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.e[i][j] = self.e[j][i].conj();
            }
        }
        m
    }

    /// Matrix-matrix product.
    #[inline]
    pub fn mul_mat(&self, other: &Self) -> Self {
        let mut m = Self::zero();
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = C::zero();
                for k in 0..3 {
                    acc = self.e[i][k].mul_add(other.e[k][j], acc);
                }
                m.e[i][j] = acc;
            }
        }
        m
    }

    /// Determinant (complex).
    pub fn det(&self) -> C {
        let e = &self.e;
        let m00 = e[1][1] * e[2][2] - e[1][2] * e[2][1];
        let m01 = e[1][0] * e[2][2] - e[1][2] * e[2][0];
        let m02 = e[1][0] * e[2][1] - e[1][1] * e[2][0];
        e[0][0] * m00 - e[0][1] * m01 + e[0][2] * m02
    }

    /// Frobenius deviation from unitarity: `|| self * self^dag - I ||_F`.
    pub fn unitarity_error(&self) -> f64 {
        let p = self.mul_mat(&self.adjoint());
        let mut err = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                let target = if i == j { C::one() } else { C::zero() };
                err += (p.e[i][j] - target).norm_sqr();
            }
        }
        err.sqrt()
    }

    /// Generate a uniformly-random-ish SU(3) element:
    /// two Gaussian random complex rows are Gram-Schmidt orthonormalized
    /// and the third row is the conjugate cross product, which makes the
    /// determinant exactly 1 (up to rounding).  This is the standard MILC
    /// trick for synthetic gauge configurations.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        loop {
            let mut row0 = random_row::<C, R>(rng);
            let n0 = row_norm(&row0);
            if n0 < 1e-6 {
                continue;
            }
            scale_row(&mut row0, 1.0 / n0);

            let mut row1 = random_row::<C, R>(rng);
            // row1 -= (row0 . row1) row0
            let proj = row_dot_conj(&row0, &row1);
            for j in 0..3 {
                row1[j] -= proj * row0[j];
            }
            let n1 = row_norm(&row1);
            if n1 < 1e-6 {
                continue;
            }
            scale_row(&mut row1, 1.0 / n1);

            // row2 = conj(row0 x row1) makes det = +1.
            let row2 = [
                (row0[1] * row1[2] - row0[2] * row1[1]).conj(),
                (row0[2] * row1[0] - row0[0] * row1[2]).conj(),
                (row0[0] * row1[1] - row0[1] * row1[0]).conj(),
            ];
            return Self {
                e: [row0, row1, row2],
            };
        }
    }

    /// Convert the element type (e.g. `DoubleComplex` -> `Cplx`): the two
    /// representations share the (re, im) pair, so this is lossless.
    pub fn convert<D: ComplexField>(&self) -> Su3<D> {
        let mut m = Su3::<D>::zero();
        for i in 0..3 {
            for j in 0..3 {
                m.e[i][j] = D::new(self.e[i][j].re(), self.e[i][j].im());
            }
        }
        m
    }
}

fn random_row<C: ComplexField, R: Rng>(rng: &mut R) -> [C; 3] {
    // Box-Muller Gaussians for an isotropic distribution.
    let mut g = || {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..core::f64::consts::TAU);
        (-2.0 * u1.ln()).sqrt() * u2.cos()
    };
    [C::new(g(), g()), C::new(g(), g()), C::new(g(), g())]
}

fn row_norm<C: ComplexField>(row: &[C; 3]) -> f64 {
    row.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

fn scale_row<C: ComplexField>(row: &mut [C; 3], s: f64) {
    for z in row {
        *z = z.scale(s);
    }
}

/// `sum_j conj(a_j) b_j`.
fn row_dot_conj<C: ComplexField>(a: &[C; 3], b: &[C; 3]) -> C {
    let mut acc = C::zero();
    for j in 0..3 {
        acc += a[j].conj() * b[j];
    }
    acc
}

impl<C: ComplexField> Mul for Su3<C> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_mat(&rhs)
    }
}

impl<C> Index<(usize, usize)> for Su3<C> {
    type Output = C;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C {
        &self.e[i][j]
    }
}

impl<C> IndexMut<(usize, usize)> for Su3<C> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C {
        &mut self.e[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milc_complex::{Cplx, DoubleComplex as Z};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_is_multiplicative_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Su3::<Z>::random(&mut rng);
        let i = Su3::<Z>::identity();
        let left = i.mul_mat(&m);
        let right = m.mul_mat(&i);
        for r in 0..3 {
            for c in 0..3 {
                assert!((left.e[r][c] - m.e[r][c]).norm_sqr() < 1e-28);
                assert!((right.e[r][c] - m.e[r][c]).norm_sqr() < 1e-28);
            }
        }
    }

    #[test]
    fn random_is_special_unitary() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let m = Su3::<Z>::random(&mut rng);
            assert!(m.unitarity_error() < 1e-12, "unitarity error too large");
            let d = m.det();
            assert!(
                (d.re - 1.0).abs() < 1e-12 && d.im.abs() < 1e-12,
                "det = {d:?}"
            );
        }
    }

    #[test]
    fn adjoint_inverts_unitary() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Su3::<Z>::random(&mut rng);
        let p = m.mul_mat(&m.adjoint());
        for i in 0..3 {
            for j in 0..3 {
                let target = if i == j { Z::ONE } else { Z::ZERO };
                assert!((p.e[i][j] - target).norm_sqr() < 1e-24);
            }
        }
    }

    #[test]
    fn convert_roundtrips() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Su3::<Z>::random(&mut rng);
        let c: Su3<Cplx> = m.convert();
        let back: Su3<Z> = c.convert();
        assert_eq!(m, back);
    }

    proptest! {
        #[test]
        fn product_of_su3_is_su3(seed1 in 0u64..1000, seed2 in 0u64..1000) {
            let mut r1 = StdRng::seed_from_u64(seed1);
            let mut r2 = StdRng::seed_from_u64(seed2.wrapping_add(10_000));
            let a = Su3::<Z>::random(&mut r1);
            let b = Su3::<Z>::random(&mut r2);
            let p = a.mul_mat(&b);
            prop_assert!(p.unitarity_error() < 1e-11);
            let d = p.det();
            prop_assert!((d.re - 1.0).abs() < 1e-11 && d.im.abs() < 1e-11);
        }

        #[test]
        fn adjoint_reverses_products(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Su3::<Z>::random(&mut rng);
            let b = Su3::<Z>::random(&mut rng);
            let lhs = a.mul_mat(&b).adjoint();
            let rhs = b.adjoint().mul_mat(&a.adjoint());
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((lhs.e[i][j] - rhs.e[i][j]).norm_sqr() < 1e-22);
                }
            }
        }
    }
}
