//! The device memory layout of the benchmark's fields.
//!
//! Section IV-D7 of the paper fixes the layout the coalescing analysis is
//! based on: "Let the U matrices be organized as |l| arrays of |i| x |j|
//! double-precision complex matrices, each array with a size of
//! L^4 x |k|."  I.e. for each link type `l` there is one flat array whose
//! element `(s, k)` is a row-major 3x3 complex matrix, and a complex
//! number is two 8-byte words.
//!
//! Every piece of address arithmetic used by the simulator kernels and by
//! the host-side packing code goes through [`DeviceLayout`] so the layout
//! is defined in exactly one place.  Offsets are expressed in *complex
//! elements* (16 bytes each); [`DeviceLayout::COMPLEX_BYTES`] converts.

use crate::geometry::Lattice;

/// Address arithmetic for the benchmark's device buffers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeviceLayout {
    volume: usize,
    half_volume: usize,
}

impl DeviceLayout {
    /// Bytes per double-precision complex element (two 8-byte words).
    pub const COMPLEX_BYTES: usize = 16;
    /// Complex elements per 3x3 matrix.
    pub const MAT_ELEMS: usize = 9;
    /// Complex elements per color vector.
    pub const VEC_ELEMS: usize = 3;

    /// Create the layout for a lattice.
    pub fn new(lattice: &Lattice) -> Self {
        Self {
            volume: lattice.volume(),
            half_volume: lattice.half_volume(),
        }
    }

    /// Full-lattice volume this layout was built for.
    #[inline]
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Sites of one parity (`L^4 / 2`).
    #[inline]
    pub fn half_volume(&self) -> usize {
        self.half_volume
    }

    /// Complex-element index of `U[l][s][k][i][j]` *within link-type
    /// array `l`* (each link type is its own buffer, per the paper).
    #[inline]
    pub fn u_elem(&self, s: usize, k: usize, i: usize, j: usize) -> usize {
        debug_assert!(s < self.volume && k < 4 && i < 3 && j < 3);
        (s * 4 + k) * Self::MAT_ELEMS + i * 3 + j
    }

    /// Byte offset of `U[l][s][k][i][j]` within link-type array `l`.
    #[inline]
    pub fn u_byte(&self, s: usize, k: usize, i: usize, j: usize) -> usize {
        self.u_elem(s, k, i, j) * Self::COMPLEX_BYTES
    }

    /// Size in complex elements of one link-type array.
    #[inline]
    pub fn u_array_elems(&self) -> usize {
        self.volume * 4 * Self::MAT_ELEMS
    }

    /// Complex-element index of source-vector component `B[s][j]`
    /// (full-lattice indexed: the sources live on the opposite parity of
    /// every target site, and indexing by lexicographic site keeps the
    /// neighbor tables trivial, as in the benchmark).
    #[inline]
    pub fn b_elem(&self, s: usize, j: usize) -> usize {
        debug_assert!(s < self.volume && j < 3);
        s * Self::VEC_ELEMS + j
    }

    /// Byte offset of `B[s][j]`.
    #[inline]
    pub fn b_byte(&self, s: usize, j: usize) -> usize {
        self.b_elem(s, j) * Self::COMPLEX_BYTES
    }

    /// Size in complex elements of the source-vector buffer.
    #[inline]
    pub fn b_elems(&self) -> usize {
        self.volume * Self::VEC_ELEMS
    }

    /// Size in bytes of the source-vector buffer.
    #[inline]
    pub fn b_bytes(&self) -> usize {
        self.b_elems() * Self::COMPLEX_BYTES
    }

    /// Complex-element index of output component `C[s*][i]`, where `s*`
    /// is a checkerboard (half-volume) index.
    #[inline]
    pub fn c_elem(&self, cb: usize, i: usize) -> usize {
        debug_assert!(cb < self.half_volume && i < 3);
        cb * Self::VEC_ELEMS + i
    }

    /// Byte offset of `C[s*][i]`.
    #[inline]
    pub fn c_byte(&self, cb: usize, i: usize) -> usize {
        self.c_elem(cb, i) * Self::COMPLEX_BYTES
    }

    /// Size in complex elements of the output buffer.
    #[inline]
    pub fn c_elems(&self) -> usize {
        self.half_volume * Self::VEC_ELEMS
    }

    /// Size in bytes of the output buffer.
    #[inline]
    pub fn c_bytes(&self) -> usize {
        self.c_elems() * Self::COMPLEX_BYTES
    }

    /// Byte offset of entry `(s, k)` in a `u32` neighbor-table buffer.
    #[inline]
    pub fn nbr_byte(&self, s: usize, k: usize) -> usize {
        debug_assert!(s < self.volume && k < 4);
        (s * 4 + k) * 4
    }

    /// Size in bytes of one neighbor-table buffer.
    #[inline]
    pub fn nbr_bytes(&self) -> usize {
        self.volume * 4 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_layout_is_row_major_within_matrix() {
        let lat = Lattice::hypercubic(4);
        let lay = DeviceLayout::new(&lat);
        // Consecutive j within a row are adjacent complex elements.
        assert_eq!(lay.u_elem(0, 0, 0, 1), lay.u_elem(0, 0, 0, 0) + 1);
        // Consecutive rows are 3 elements (48 bytes) apart.
        assert_eq!(lay.u_byte(0, 0, 1, 0) - lay.u_byte(0, 0, 0, 0), 48);
        // Consecutive k matrices are 9 elements (144 bytes) apart.
        assert_eq!(lay.u_byte(0, 1, 0, 0) - lay.u_byte(0, 0, 0, 0), 144);
        // Consecutive sites are 4 matrices (576 bytes) apart.
        assert_eq!(lay.u_byte(1, 0, 0, 0) - lay.u_byte(0, 0, 0, 0), 576);
    }

    #[test]
    fn array_sizes() {
        let lat = Lattice::hypercubic(4);
        let lay = DeviceLayout::new(&lat);
        let v = 256;
        assert_eq!(lay.u_array_elems(), v * 36);
        assert_eq!(lay.b_bytes(), v * 48);
        assert_eq!(lay.c_bytes(), v / 2 * 48);
        assert_eq!(lay.nbr_bytes(), v * 16);
    }

    #[test]
    fn paper_scale_working_set() {
        // At L = 32 the gauge field alone is ~2.4 GB: 4 arrays x 2^20
        // sites x 4 dirs x 144 bytes — far beyond the A100's 40 MB L2,
        // which is why the kernel is memory-bound (Section IV-D1).
        let lat = Lattice::hypercubic(32);
        let lay = DeviceLayout::new(&lat);
        let bytes = 4 * lay.u_array_elems() * DeviceLayout::COMPLEX_BYTES;
        let gb = bytes as f64 / (1 << 30) as f64;
        assert!(gb > 2.0 && gb < 3.0, "working set {gb} GB");
    }

    #[test]
    fn elements_never_alias() {
        let lat = Lattice::hypercubic(2);
        let lay = DeviceLayout::new(&lat);
        let mut seen = std::collections::HashSet::new();
        for s in 0..lat.volume() {
            for k in 0..4 {
                for i in 0..3 {
                    for j in 0..3 {
                        assert!(seen.insert(lay.u_elem(s, k, i, j)));
                    }
                }
            }
        }
        assert_eq!(seen.len(), lay.u_array_elems());
    }
}
