//! Lattice QCD substrate for the MILC-Dslash reproduction.
//!
//! This crate provides everything "below" the Dslash kernel itself:
//!
//! * [`geometry`] — the four-dimensional periodic lattice, lexicographic
//!   site indexing and even/odd (checkerboard) parity;
//! * [`neighbors`] — precomputed first- and third-nearest-neighbor tables
//!   (the staggered/HISQ operator is a 16-point stencil, Section I of the
//!   paper);
//! * [`su3`] — 3x3 special-unitary matrices over any [`ComplexField`],
//!   including random SU(3) generation for synthetic gauge configurations;
//! * [`color`] — 3-component color vectors (the staggered quark field
//!   carries one SU(3) color vector per site);
//! * [`fields`] — gauge-link and quark-field containers;
//! * [`layout`] — the *device* memory layout the paper's coalescing
//!   analysis assumes (Section IV-D7: "|l| arrays of |i| x |j|
//!   double-precision complex matrices, each array with a size of
//!   L^4 x |k|"), shared between host packing code and the simulator
//!   kernels so that address arithmetic exists in exactly one place.
//!
//! [`ComplexField`]: milc_complex::ComplexField

pub mod color;
pub mod fields;
pub mod geometry;
pub mod layout;
pub mod neighbors;
pub mod phases;
pub mod recon;
pub mod su3;

pub use color::ColorVector;
pub use fields::{GaugeField, LinkType, QuarkField};
pub use geometry::{Lattice, Parity};
pub use layout::DeviceLayout;
pub use neighbors::NeighborTable;
pub use phases::{eta, fold_phases};
pub use recon::Recon;
pub use su3::Su3;

/// Number of space-time dimensions (`|k|` in the paper).
pub const NDIM: usize = 4;
/// Number of link-type matrices per (site, direction): fat forward,
/// long forward, fat backward-adjoint, long backward-adjoint
/// (`|l|` = `nmat` in the paper).
pub const NMAT: usize = 4;
/// Rows of an SU(3) matrix (`|i|` = `nrow`).
pub const NROW: usize = 3;
/// Columns of an SU(3) matrix (`|j|` = `ncol`).
pub const NCOL: usize = 3;
