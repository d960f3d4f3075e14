//! [`DslashProblem`]: owns one benchmark instance — lattice, fields,
//! the device-memory packing, and the lazily-computed CPU reference.

use crate::kernels::build_kernel;
use crate::kernels::common::DevTables;
use crate::reference;
use crate::strategy::KernelConfig;
use core::ops::Range;
use gpu_sim::{Buffer, DeviceMemory, DeviceSpec, Kernel, NdRange, SimError};
use milc_complex::ComplexField;
use milc_lattice::recon::{self, Recon};
use milc_lattice::{
    ColorVector, DeviceLayout, GaugeField, Lattice, LinkType, NeighborTable, Parity, QuarkField,
    Su3,
};

/// Maximum spill pairs any kernel configuration may request; sizes the
/// shared spill scratch buffer.
pub const MAX_SPILLS: u32 = 4;

/// Spill slots are recycled like CUDA thread-local memory, which is
/// sized to the *resident* thread count, not the launch size — so the
/// scratch area stays small and cache-hot exactly as real spill traffic
/// does.  8192 slots covers several resident work-groups per SM on the
/// default volume-matched device.
const SPILL_SLOT_CAP: u64 = 8192;

/// Bytes of one color vector in `B` or `C`.
const VEC_BYTES: usize = DeviceLayout::VEC_ELEMS * DeviceLayout::COMPLEX_BYTES;

/// The host side of one Dslash — fields, target parity and the lazily
/// computed CPU reference — shared by single-device and sharded problems.
pub(crate) struct HostFields<C: ComplexField> {
    pub(crate) gauge: GaugeField<C>,
    pub(crate) b: QuarkField<C>,
    pub(crate) parity: Parity,
    reference: Option<Vec<ColorVector<C>>>,
}

impl<C: ComplexField> HostFields<C> {
    /// Random fields on an `l^4` lattice from one seed (even parity).
    pub(crate) fn random(l: usize, seed: u64) -> Self {
        let (gauge, b) = random_fields(l, seed);
        Self::new(gauge, b, Parity::Even)
    }

    /// # Panics
    /// Panics if the fields live on different lattices.
    pub(crate) fn new(gauge: GaugeField<C>, b: QuarkField<C>, parity: Parity) -> Self {
        let msg = "gauge and source fields live on different lattices";
        assert_eq!(b.lattice(), gauge.lattice(), "{msg}");
        Self {
            gauge,
            b,
            parity,
            reference: None,
        }
    }

    pub(crate) fn lattice(&self) -> &Lattice {
        self.gauge.lattice()
    }

    /// The CPU reference output (computed on first use, cached).
    pub(crate) fn reference(&mut self) -> &[ColorVector<C>] {
        let (gauge, b, parity) = (&self.gauge, &self.b, self.parity);
        self.reference
            .get_or_insert_with(|| reference::dslash(gauge, b, parity))
    }
}

/// The benchmark's random gauge and source fields on an `l^4` lattice
/// from one seed — every problem built from the same seed holds the
/// same fields.
pub fn random_fields<C: ComplexField>(l: usize, seed: u64) -> (GaugeField<C>, QuarkField<C>) {
    let lattice = Lattice::hypercubic(l);
    let b = QuarkField::random(&lattice, seed ^ 0x9E37_79B9_7F4A_7C15);
    (GaugeField::random(&lattice, seed), b)
}

/// One device's packed share of a Dslash.  A device owns a contiguous
/// range of lattice sites — all of them on a single device, a t-slab on
/// a rank of a sharded problem — and indexes gauge links, neighbor
/// tables and the source vector `B` by *local* site (`site - first
/// owned`).  Buffer offsets go through the full lattice's
/// [`DeviceLayout`], so a single device packs exactly the paper's
/// layout.  [`Packed::new`] lays out U, the neighbor tables and B; the
/// caller then lays out C ([`output`](Self::output)) and the target
/// table ([`targets`](Self::targets)) in its own order, and the spill
/// scratch ([`spill`](Self::spill)) last.
pub(crate) struct Packed {
    pub(crate) mem: DeviceMemory,
    pub(crate) layout: DeviceLayout,
    pub(crate) tables: DevTables,
    c: Buffer,
}

impl Packed {
    /// Pack the gauge links and neighbor tables of the `owned` sites and
    /// their source values.  `slot` maps a stencil source site to its
    /// index in the local `B` vector of `b_slots` entries (owned sites
    /// sit at their local index; anything else is the caller's ghost
    /// region, left zero).
    ///
    /// # Panics
    /// Panics if a compressed scheme is requested for links it cannot
    /// represent (see [`milc_lattice::recon`]).
    pub(crate) fn new<C: ComplexField>(
        fields: &HostFields<C>,
        nt: &NeighborTable,
        owned: Range<usize>,
        slot: impl Fn(usize) -> usize,
        b_slots: usize,
        recon_scheme: Recon,
    ) -> Self {
        let layout = DeviceLayout::new(fields.lattice());
        let n_owned = owned.len();
        let mut mem = DeviceMemory::new();

        // Gauge arrays, one buffer per link type (Section IV-D7 layout
        // for R18; `reals()`-wide encoded records for the compressed
        // extension schemes).
        let reals = recon_scheme.reals();
        let mut u = [0; 4];
        for (l, link) in LinkType::ALL.iter().enumerate() {
            let buf = mem.alloc((n_owned * 4 * reals * 8) as u64, &format!("U[{l}]"));
            for (ls, s) in owned.clone().enumerate() {
                for k in 0..4 {
                    let m = fields.gauge.link(*link, s, k);
                    if recon_scheme == Recon::R18 {
                        for i in 0..3 {
                            for j in 0..3 {
                                let addr = buf.base() + layout.u_byte(ls, k, i, j) as u64;
                                mem.write_f64(addr, m.e[i][j].re());
                                mem.write_f64(addr + 8, m.e[i][j].im());
                            }
                        }
                    } else {
                        // Reconstruction math is defined over the
                        // canonical double-precision representation.
                        let mut dm = Su3::<milc_complex::DoubleComplex>::zero();
                        for i in 0..3 {
                            for j in 0..3 {
                                dm.e[i][j] = milc_complex::DoubleComplex::new(
                                    m.e[i][j].re(),
                                    m.e[i][j].im(),
                                );
                            }
                        }
                        let enc = recon::encode(&dm, recon_scheme);
                        mem.write_f64_slice(&buf, ((ls * 4 + k) * reals * 8) as u64, &enc);
                    }
                }
            }
            u[l] = buf.base();
        }

        // Neighbor tables, one per link type, pointing into local B.
        let mut nbr = [0; 4];
        #[allow(clippy::needless_range_loop)] // l indexes table lookups and buffers in lockstep
        for l in 0..4 {
            let buf = mem.alloc((n_owned * 4 * 4) as u64, &format!("nbr[{l}]"));
            for (ls, s) in owned.clone().enumerate() {
                for k in 0..4 {
                    mem.write_u32(
                        buf.base() + layout.nbr_byte(ls, k) as u64,
                        slot(nt.source_site(l, s, k)) as u32,
                    );
                }
            }
            nbr[l] = buf.base();
        }

        let b = mem.alloc((b_slots * VEC_BYTES) as u64, "B");
        // C, target and spill are filled in by the caller's layout steps.
        let tables = DevTables {
            u,
            nbr,
            b: b.base(),
            c: 0,
            target: 0,
            spill: 0,
            spill_slots: 0,
            half_volume: 0,
            recon: recon_scheme,
        };
        let c = Buffer::default();
        let packed = Self {
            mem,
            layout,
            tables,
            c,
        };
        packed.write_source(&fields.b, owned);
        packed
    }

    /// Lay out the output vector C over `n_targets` target sites.
    pub(crate) fn output(&mut self, n_targets: u64) {
        self.c = self.mem.alloc(n_targets * VEC_BYTES as u64, "C");
        self.tables.c = self.c.base();
        self.tables.half_volume = n_targets;
    }

    /// Lay out the target gather table: entry `i` is the local site of
    /// target `i`.
    pub(crate) fn targets(&mut self, sites: impl ExactSizeIterator<Item = usize>) {
        let buf = self.mem.alloc(sites.len() as u64 * 4, "target");
        for (i, s) in sites.enumerate() {
            self.mem.write_u32(buf.base() + (i * 4) as u64, s as u32);
        }
        self.tables.target = buf.base();
    }

    /// Lay out the spill scratch (thread-local memory model), sized by
    /// the target count [`output`](Self::output) set.
    pub(crate) fn spill(&mut self) {
        let slots = (self.tables.half_volume * 48).clamp(1, SPILL_SLOT_CAP);
        let spill = self.mem.alloc(slots * MAX_SPILLS as u64 * 16, "spill");
        self.tables.spill = spill.base();
        self.tables.spill_slots = slots;
    }

    /// Zero the output buffer.
    pub(crate) fn zero_output(&self) {
        self.mem.zero(&self.c);
    }

    /// Write the source values of the `owned` sites at their local index.
    fn write_source<C: ComplexField>(&self, b: &QuarkField<C>, owned: Range<usize>) {
        for (ls, s) in owned.enumerate() {
            for j in 0..3 {
                let addr = self.tables.b + self.layout.b_byte(ls, j) as u64;
                self.mem.write_f64(addr, b.site(s).c[j].re());
                self.mem.write_f64(addr + 8, b.site(s).c[j].im());
            }
        }
    }

    /// Read the output vector back, target order.
    pub(crate) fn read_output<C: ComplexField>(&self) -> Vec<ColorVector<C>> {
        (0..self.tables.half_volume as usize)
            .map(|idx| {
                let mut v = ColorVector::<C>::zero();
                for i in 0..3 {
                    let addr = self.c.base() + self.layout.c_byte(idx, i) as u64;
                    v.c[i] = C::new(self.mem.read_f64(addr), self.mem.read_f64(addr + 8));
                }
                v
            })
            .collect()
    }
}

/// A packed benchmark instance.
pub struct DslashProblem<C: ComplexField> {
    fields: HostFields<C>,
    packed: Packed,
}

impl<C: ComplexField> DslashProblem<C> {
    /// Build a random problem on an `l^4` lattice from a seed
    /// (deterministic) and pack it into device memory.
    pub fn random(l: usize, seed: u64) -> Self {
        Self::random_with_recon(l, seed, Recon::R18)
    }

    /// Build a random problem with a compressed gauge layout — the
    /// extension Section IV-D3 notes the paper's SYCL implementation
    /// lacked ("does not include QUDA's gauge compression options as
    /// that is not a current feature of our SYCL implementation").
    /// Every strategy kernel transparently reconstructs in registers.
    pub fn random_with_recon(l: usize, seed: u64, recon: Recon) -> Self {
        Self::pack(HostFields::random(l, seed), recon)
    }

    /// Build from explicit fields and pack into device memory
    /// (uncompressed gauge layout, as in the paper).
    ///
    /// # Panics
    /// Panics if the fields live on different lattices.
    pub fn from_fields(gauge: GaugeField<C>, b: QuarkField<C>, parity: Parity) -> Self {
        Self::pack(HostFields::new(gauge, b, parity), Recon::R18)
    }

    /// One device owns every site: allocation order U, nbr, B, C,
    /// target, spill.
    fn pack(fields: HostFields<C>, recon: Recon) -> Self {
        let lattice = fields.lattice();
        let nt = NeighborTable::build(lattice);
        let hv = lattice.half_volume();
        let volume = lattice.volume();
        let mut packed = Packed::new(&fields, &nt, 0..volume, |s| s, volume, recon);
        packed.output(hv as u64);
        packed.targets((0..hv).map(|cb| lattice.site_of_checkerboard(cb, fields.parity)));
        packed.spill();
        Self { fields, packed }
    }

    /// The gauge storage scheme this problem was packed with.
    pub fn recon(&self) -> Recon {
        self.packed.tables.recon
    }

    /// The output tolerance appropriate to the gauge storage scheme
    /// (compressed layouts reconstruct with scheme-dependent accuracy).
    pub fn validation_tolerance(&self) -> f64 {
        self.recon().tolerance().max(1e-10)
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.fields.lattice()
    }

    /// The gauge field.
    pub fn gauge(&self) -> &GaugeField<C> {
        &self.fields.gauge
    }

    /// The source field.
    pub fn source(&self) -> &QuarkField<C> {
        &self.fields.b
    }

    /// The target parity.
    pub fn parity(&self) -> Parity {
        self.fields.parity
    }

    /// Replace the source field `B`: repack it into device memory and
    /// invalidate the cached CPU reference.  This is what lets one
    /// packed problem (gauge links, neighbor tables, spill scratch stay
    /// put) serve every iteration of a solver, where only the operand
    /// changes.
    ///
    /// # Panics
    /// Panics if `b` lives on a different lattice than the problem.
    pub fn set_source(&mut self, b: &QuarkField<C>) {
        let msg = "replacement source lives on a different lattice";
        assert_eq!(b.lattice(), self.lattice(), "{msg}");
        self.packed.write_source(b, 0..self.lattice().volume());
        self.fields.b = b.clone();
        self.fields.reference = None;
    }

    /// Device memory (pass to the launcher).
    pub fn memory(&self) -> &DeviceMemory {
        &self.packed.mem
    }

    /// Device buffer addresses.
    pub fn tables(&self) -> DevTables {
        self.packed.tables
    }

    /// Zero the output buffer (between kernel runs).
    pub fn zero_output(&self) {
        self.packed.zero_output();
    }

    /// Read the output vector back from the device.
    pub fn read_output(&self) -> Vec<ColorVector<C>> {
        self.packed.read_output()
    }

    /// The CPU reference output (computed on first use, cached).
    pub fn reference(&mut self) -> &[ColorVector<C>] {
        self.fields.reference()
    }

    /// The launch geometry of a configuration at a local size.
    pub fn launch_range(&self, cfg: KernelConfig, local_size: u32) -> NdRange {
        NdRange::linear(
            cfg.global_size(self.lattice().half_volume() as u64),
            local_size,
        )
    }

    /// Build the kernel object for a configuration; `num_groups` must be
    /// `launch_range(cfg, local_size).num_groups()`.
    pub fn make_kernel(&self, cfg: KernelConfig, num_groups: u64) -> Box<dyn Kernel> {
        build_kernel::<C>(cfg, self.packed.tables, num_groups)
    }

    /// Enforce the paper's local-size constraints (Section III-C/D): a
    /// size that divides the global size but is not a multiple of the
    /// strategy's site block would make the local-memory reduction read
    /// across the work-group boundary — undefined behaviour on a real
    /// device, an out-of-bounds panic in the simulator.
    ///
    /// # Errors
    /// [`SimError::InvalidLocalSize`] for an illegal size.
    pub(crate) fn check_local_size(
        &self,
        cfg: KernelConfig,
        local_size: u32,
        device: &DeviceSpec,
    ) -> Result<(), SimError> {
        if cfg.local_size_legal(local_size, self.lattice().half_volume() as u64) {
            Ok(())
        } else {
            Err(SimError::InvalidLocalSize {
                local: local_size,
                max: device.max_group_size,
            })
        }
    }

    /// The checked launch of a configuration at a local size: its
    /// geometry and kernel, after [`Self::check_local_size`].
    ///
    /// # Errors
    /// [`SimError::InvalidLocalSize`] for an illegal size.
    pub(crate) fn launch(
        &self,
        cfg: KernelConfig,
        local_size: u32,
        device: &DeviceSpec,
    ) -> Result<(NdRange, Box<dyn Kernel>), SimError> {
        self.check_local_size(cfg, local_size, device)?;
        let range = self.launch_range(cfg, local_size);
        Ok((range, self.make_kernel(cfg, range.num_groups())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milc_complex::DoubleComplex as Z;
    use milc_lattice::neighbors::Hop;

    #[test]
    fn packing_roundtrips_gauge_elements() {
        let p = DslashProblem::<Z>::random(4, 77);
        let layout = DeviceLayout::new(p.lattice());
        for (l, link) in LinkType::ALL.iter().enumerate() {
            for s in [0usize, 17, 255] {
                for k in 0..4 {
                    let m = p.gauge().link(*link, s, k);
                    for i in 0..3 {
                        for j in 0..3 {
                            let addr = p.tables().u[l] + layout.u_byte(s, k, i, j) as u64;
                            assert_eq!(p.memory().read_f64(addr), m.e[i][j].re);
                            assert_eq!(p.memory().read_f64(addr + 8), m.e[i][j].im);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packing_roundtrips_neighbors_and_targets() {
        let p = DslashProblem::<Z>::random(4, 78);
        let lat = p.lattice().clone();
        let nt = NeighborTable::build(&lat);
        for s in (0..lat.volume()).step_by(7) {
            for k in 0..4 {
                let addr = p.tables().nbr[2] + ((s * 4 + k) * 4) as u64;
                assert_eq!(
                    p.memory().read_u32(addr) as usize,
                    nt.neighbor(Hop::Bwd1, s, k)
                );
            }
        }
        for cb in (0..lat.half_volume()).step_by(11) {
            let addr = p.tables().target + (cb * 4) as u64;
            assert_eq!(
                p.memory().read_u32(addr) as usize,
                lat.site_of_checkerboard(cb, Parity::Even)
            );
        }
    }

    #[test]
    fn output_starts_zero_and_zeroes_again() {
        let p = DslashProblem::<Z>::random(2, 79);
        let out = p.read_output();
        assert!(out.iter().all(|v| v.norm_sqr() == 0.0));
        // Dirty one element, re-zero, verify.
        p.memory().write_f64(p.tables().c, 5.0);
        p.zero_output();
        assert!(p.read_output().iter().all(|v| v.norm_sqr() == 0.0));
    }

    #[test]
    fn reference_is_cached_and_consistent() {
        let mut p = DslashProblem::<Z>::random(2, 80);
        let a = p.reference().to_vec();
        let b = p.reference().to_vec();
        assert_eq!(a, b);
        assert!(a.iter().any(|v| v.norm_sqr() > 0.0));
    }

    #[test]
    fn set_source_repacks_and_invalidates_reference() {
        let mut p = DslashProblem::<Z>::random(4, 81);
        let before = p.reference().to_vec();
        let b2 = QuarkField::<Z>::random(p.lattice(), 999);
        p.set_source(&b2);
        // Device memory now holds the new source.
        let layout = DeviceLayout::new(p.lattice());
        for s in (0..p.lattice().volume()).step_by(13) {
            for j in 0..3 {
                let addr = p.tables().b + layout.b_byte(s, j) as u64;
                assert_eq!(p.memory().read_f64(addr), b2.site(s).c[j].re);
            }
        }
        // The reference is recomputed for the new source.
        let after = p.reference().to_vec();
        assert_ne!(before, after);
    }

    #[test]
    #[should_panic(expected = "different lattice")]
    fn set_source_rejects_wrong_lattice() {
        let mut p = DslashProblem::<Z>::random(4, 82);
        let small = QuarkField::<Z>::random(&Lattice::hypercubic(2), 1);
        p.set_source(&small);
    }

    #[test]
    #[should_panic(expected = "different lattices")]
    fn mismatched_fields_rejected() {
        let lat2 = Lattice::hypercubic(2);
        let lat4 = Lattice::hypercubic(4);
        let g = GaugeField::<Z>::random(&lat2, 1);
        let b = QuarkField::<Z>::random(&lat4, 2);
        let _ = DslashProblem::from_fields(g, b, Parity::Even);
    }
}
