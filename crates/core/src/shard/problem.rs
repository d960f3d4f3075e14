//! Per-rank packing of a domain-decomposed Dslash, plus the host-side
//! halo exchange that fills the ghost regions.
//!
//! Each rank of a [`Partition`] owns a t-slab and packs it with the
//! single-device [`DslashProblem`](crate::DslashProblem)'s packer, in a
//! *local* index space:
//!
//! * gauge arrays and neighbor tables cover only the slab's own sites
//!   (the kernels index both at the target site, which is always owned);
//! * the source vector `B` is the slab followed by a ghost region, one
//!   slot per imported site, and the neighbor tables point straight into
//!   it — an owned source resolves to its slab offset, an external one
//!   to `slab_volume + ghost_index`;
//! * the target gather table is reordered `[interior…, boundary…]`
//!   (ascending global checkerboard index within each class), so the
//!   runner can launch the same kernel over just the interior while
//!   halos are in flight and over just the boundary afterwards —
//!   the split that makes communication/computation overlap possible.
//!
//! Because every kernel reads data only through these tables, a rank's
//! kernel performs bit-for-bit the same floating-point operations on the
//! same values as the single-device kernel does for the same target
//! sites — which is exactly what `tests/shard_diff.rs` pins down.

use super::partition::{HaloMsg, Partition};
use crate::kernels::build_kernel;
use crate::kernels::common::DevTables;
use crate::obs;
use crate::problem::{HostFields, Packed};
use crate::strategy::KernelConfig;
use core::marker::PhantomData;
use gpu_sim::{DeviceMemory, Kernel, NdRange, SimError};
use milc_complex::ComplexField;
use milc_lattice::recon::Recon;
use milc_lattice::{ColorVector, GaugeField, Lattice, NeighborTable, Parity, QuarkField};

/// Which slice of a rank's target sites a launch covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// All owned target sites in one launch (the in-order schedule).
    Full,
    /// Targets whose whole stencil is slab-resident — can run before
    /// any halo arrives.
    Interior,
    /// Targets that read at least one ghost site — must wait for the
    /// exchange.
    Boundary,
}

/// Fault injection for [`ShardedProblem::exchange_halos`]: which halo
/// message (by index into [`Partition::messages`]) misbehaves and how.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HaloFault {
    /// Healthy exchange.
    None,
    /// Message never arrives; the exchange detects and reports it.
    Drop {
        /// Index into the message plan.
        msg: usize,
    },
    /// Only the first `keep_bytes` arrive; detected and reported.
    Truncate {
        /// Index into the message plan.
        msg: usize,
        /// Bytes delivered before the cut (rounded down to whole
        /// complex values).
        keep_bytes: u64,
    },
    /// Message is lost *without* any error surfacing — the ghost region
    /// keeps its zeroed contents.  This is the silent-corruption case
    /// the differential harness must catch.
    SilentDrop {
        /// Index into the message plan.
        msg: usize,
    },
}

/// One rank's packed slab: device memory, tables and the target-site
/// bookkeeping needed to launch, split and reassemble.
pub struct RankProblem<C: ComplexField> {
    rank: usize,
    packed: Packed,
    slab_volume: u64,
    num_ghosts: u64,
    n_interior: u64,
    n_boundary: u64,
    /// Local target index (interior-first order) → global checkerboard
    /// index, for reassembly.
    targets_global_cb: Vec<usize>,
    _c: PhantomData<C>,
}

impl<C: ComplexField> RankProblem<C> {
    /// Pack rank `r`'s slab with the single-device [`Packed`]: the slab
    /// is the owned site range, and the neighbor tables point into the
    /// local B index space — owned sources at their slab offset,
    /// external ones in the ghost region after it.  Allocation order
    /// U, nbr, B, target, C, spill.
    fn build(part: &Partition, nt: &NeighborTable, r: usize, fields: &HostFields<C>) -> Self {
        let lat = part.lattice();
        let slab_vol = part.slab_volume(r);
        let num_ghosts = part.num_ghosts(r);
        let slot = |src: usize| {
            if part.owner_of_site(src) == r {
                part.local_index(r, src)
            } else {
                slab_vol
                    + part
                        .ghost_index(r, src)
                        .expect("external stencil source must be a planned ghost")
            }
        };
        let mut packed = Packed::new(
            fields,
            nt,
            part.slab_sites(r),
            slot,
            slab_vol + num_ghosts,
            Recon::R18,
        );

        // Target gather table, interior first.  A target is boundary if
        // any of its 16 stencil sources lives off-slab.
        let mut interior: Vec<(usize, usize)> = Vec::new(); // (local site, global cb)
        let mut boundary: Vec<(usize, usize)> = Vec::new();
        for cb in 0..lat.half_volume() {
            let s = lat.site_of_checkerboard(cb, fields.parity);
            if part.owner_of_site(s) != r {
                continue;
            }
            let is_boundary =
                (0..4).any(|l| (0..4).any(|k| part.owner_of_site(nt.source_site(l, s, k)) != r));
            let entry = (part.local_index(r, s), cb);
            if is_boundary {
                boundary.push(entry);
            } else {
                interior.push(entry);
            }
        }
        let n_interior = interior.len() as u64;
        let n_boundary = boundary.len() as u64;
        let n_targets = n_interior + n_boundary;
        let targets: Vec<(usize, usize)> = interior.into_iter().chain(boundary).collect();
        packed.targets(targets.iter().map(|&(ls, _)| ls));
        packed.output(n_targets);
        packed.spill();

        Self {
            rank: r,
            packed,
            slab_volume: slab_vol as u64,
            num_ghosts: num_ghosts as u64,
            n_interior,
            n_boundary,
            targets_global_cb: targets.iter().map(|&(_, cb)| cb).collect(),
            _c: PhantomData,
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Owned target sites (one parity of the slab).
    pub fn n_targets(&self) -> u64 {
        self.n_interior + self.n_boundary
    }

    /// Targets whose stencil never leaves the slab.
    pub fn n_interior(&self) -> u64 {
        self.n_interior
    }

    /// Targets that read ghost sites.
    pub fn n_boundary(&self) -> u64 {
        self.n_boundary
    }

    /// Target sites a phase covers.
    pub fn phase_targets(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Full => self.n_targets(),
            Phase::Interior => self.n_interior,
            Phase::Boundary => self.n_boundary,
        }
    }

    /// Global checkerboard index of each local target, gather order.
    pub fn targets_global_cb(&self) -> &[usize] {
        &self.targets_global_cb
    }

    /// Device memory (pass to the launcher).
    pub fn memory(&self) -> &DeviceMemory {
        &self.packed.mem
    }

    /// Device tables for a phase, or `None` if the phase is empty.
    /// Interior targets sit first in the gather table, so the boundary
    /// view just offsets the target table and the output base.
    pub fn tables_for(&self, phase: Phase) -> Option<DevTables> {
        let n = self.phase_targets(phase);
        if n == 0 {
            return None;
        }
        let mut t = self.packed.tables;
        if phase == Phase::Boundary {
            t.target += self.n_interior * 4;
            t.c += self.n_interior * 3 * 16;
        }
        t.half_volume = n;
        Some(t)
    }

    /// The launch of one phase — its geometry and kernel — at the
    /// requested local size if it is legal for the phase's targets,
    /// otherwise the largest legal size below it, otherwise the
    /// strategy's site block (always legal — every phase's global size
    /// is a multiple of it); the range carries the size chosen.  `None`
    /// if the phase has no targets.
    pub fn launch(
        &self,
        cfg: KernelConfig,
        phase: Phase,
        requested: u32,
    ) -> Option<(NdRange, Box<dyn Kernel>)> {
        let tables = self.tables_for(phase)?;
        let n = tables.half_volume;
        let ls = if cfg.local_size_legal(requested, n) {
            requested
        } else {
            cfg.legal_local_sizes(n)
                .into_iter()
                .filter(|&ls| ls <= requested)
                .max()
                .unwrap_or_else(|| cfg.strategy.local_size_multiple(cfg.order))
        };
        let range = NdRange::linear(cfg.global_size(n), ls);
        Some((range, build_kernel::<C>(cfg, tables, range.num_groups())))
    }

    /// Local sizes legal for every non-empty phase of this rank, so one
    /// size serves both exchange schedules without refitting; the
    /// strategy's site block if no size is.
    pub fn tunable_local_sizes(&self, cfg: KernelConfig) -> Vec<u32> {
        let mut sizes = cfg.legal_local_sizes(self.n_targets());
        for n in [self.n_interior, self.n_boundary] {
            if n > 0 {
                sizes.retain(|&ls| cfg.local_size_legal(ls, n));
            }
        }
        if sizes.is_empty() {
            sizes.push(cfg.strategy.local_size_multiple(cfg.order));
        }
        sizes
    }

    /// Zero the output buffer (between runs).
    pub fn zero_output(&self) {
        self.packed.zero_output();
    }

    /// Read this rank's output, local target order.
    pub fn read_output(&self) -> Vec<ColorVector<C>> {
        self.packed.read_output()
    }

    /// Byte address of `B[idx][j]` in the local source vector (slab
    /// sites then ghosts) — the exchange's copy endpoints.
    fn b_addr(&self, idx: u64, j: u64) -> u64 {
        self.packed.tables.b + self.packed.layout.b_byte(idx as usize, j as usize) as u64
    }

    /// Zero the ghost region of the source vector.
    fn zero_ghosts(&self) {
        for idx in self.slab_volume..self.slab_volume + self.num_ghosts {
            for j in 0..3 {
                let addr = self.b_addr(idx, j);
                self.packed.mem.write_f64(addr, 0.0);
                self.packed.mem.write_f64(addr + 8, 0.0);
            }
        }
    }
}

/// A Dslash instance decomposed across the ranks of a [`Partition`]:
/// one [`RankProblem`] per simulated device plus the halo-exchange
/// machinery between them.
pub struct ShardedProblem<C: ComplexField> {
    partition: Partition,
    fields: HostFields<C>,
    ranks: Vec<RankProblem<C>>,
}

impl<C: ComplexField> ShardedProblem<C> {
    /// Build a random problem on an `l^4` lattice, decomposed across
    /// `ranks` t-slabs.  Seed derivation matches
    /// [`DslashProblem::random`](crate::DslashProblem::random), so a
    /// single-device problem with the same seed holds identical fields.
    pub fn random(l: usize, seed: u64, ranks: usize) -> Self {
        Self::decompose(HostFields::random(l, seed), ranks)
    }

    /// Decompose explicit fields across `ranks` t-slabs.
    ///
    /// # Panics
    /// Panics if the fields live on different lattices or the rank
    /// count exceeds the t extent.
    pub fn from_fields(
        gauge: GaugeField<C>,
        b: QuarkField<C>,
        parity: Parity,
        ranks: usize,
    ) -> Self {
        Self::decompose(HostFields::new(gauge, b, parity), ranks)
    }

    fn decompose(fields: HostFields<C>, ranks: usize) -> Self {
        let partition = Partition::new(fields.lattice(), ranks);
        let nt = NeighborTable::build(fields.lattice());
        let ranks = (0..ranks)
            .map(|r| RankProblem::build(&partition, &nt, r, &fields))
            .collect();
        Self {
            partition,
            fields,
            ranks,
        }
    }

    /// The decomposition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The global lattice.
    pub fn lattice(&self) -> &Lattice {
        self.partition.lattice()
    }

    /// The target parity.
    pub fn parity(&self) -> Parity {
        self.fields.parity
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// One rank's packed slab.
    pub fn rank(&self, r: usize) -> &RankProblem<C> {
        &self.ranks[r]
    }

    /// Total halo payload of one full exchange, bytes.
    pub fn halo_bytes_total(&self) -> u64 {
        self.partition.messages().iter().map(HaloMsg::bytes).sum()
    }

    /// Run the halo exchange: copy every planned message from its
    /// owner's slab region into the receiver's ghost region.  Returns
    /// the bytes moved.  Ghost regions are zeroed first so a faulty
    /// exchange leaves well-defined (wrong) values rather than stale
    /// ones.
    ///
    /// Emits `halo_bytes_total` / `halo_messages_total` metrics on the
    /// ambient registry.
    ///
    /// # Errors
    /// A [`HaloFault::Drop`] or [`HaloFault::Truncate`] surfaces as
    /// [`SimError::HaloMessageFault`] naming the ranks and byte counts;
    /// the exchange stops at the fault.  [`HaloFault::SilentDrop`]
    /// returns `Ok` — detecting it is the differential harness's job.
    pub fn exchange_halos(&self, fault: HaloFault) -> Result<u64, SimError> {
        for rank in &self.ranks {
            rank.zero_ghosts();
        }
        let mut moved = 0u64;
        for (mi, msg) in self.partition.messages().iter().enumerate() {
            match fault {
                HaloFault::Drop { msg: f } if f == mi => {
                    return Err(SimError::HaloMessageFault {
                        from: msg.from as u32,
                        to: msg.to as u32,
                        expected_bytes: msg.bytes(),
                        got_bytes: 0,
                    });
                }
                HaloFault::SilentDrop { msg: f } if f == mi => {
                    continue;
                }
                HaloFault::Truncate { msg: f, keep_bytes } if f == mi => {
                    let values = (keep_bytes / 16).min(msg.sites.len() as u64 * 3);
                    self.copy_message(msg, values);
                    return Err(SimError::HaloMessageFault {
                        from: msg.from as u32,
                        to: msg.to as u32,
                        expected_bytes: msg.bytes(),
                        got_bytes: values * 16,
                    });
                }
                _ => {
                    self.copy_message(msg, msg.sites.len() as u64 * 3);
                    moved += msg.bytes();
                    obs::metric_inc("halo_messages_total", &[], 1);
                }
            }
        }
        obs::metric_inc("halo_bytes_total", &[], moved);
        Ok(moved)
    }

    /// Copy the first `values` complex values of one message from the
    /// sender's slab into the receiver's ghost slots.
    fn copy_message(&self, msg: &HaloMsg, values: u64) {
        let from = &self.ranks[msg.from];
        let to = &self.ranks[msg.to];
        let mut left = values;
        for &s in &msg.sites {
            if left == 0 {
                break;
            }
            let src_idx = self.partition.local_index(msg.from, s) as u64;
            let dst_idx = to.slab_volume
                + self
                    .partition
                    .ghost_index(msg.to, s)
                    .expect("message site is a planned ghost") as u64;
            for j in 0..3u64 {
                if left == 0 {
                    break;
                }
                let src = from.b_addr(src_idx, j);
                let dst = to.b_addr(dst_idx, j);
                let (from_mem, to_mem) = (from.memory(), to.memory());
                to_mem.write_f64(dst, from_mem.read_f64(src));
                to_mem.write_f64(dst + 8, from_mem.read_f64(src + 8));
                left -= 1;
            }
        }
    }

    /// Zero every rank's output buffer.
    pub fn zero_outputs(&self) {
        for rank in &self.ranks {
            rank.zero_output();
        }
    }

    /// Gather every rank's output into the global checkerboard order a
    /// single-device [`DslashProblem::read_output`](crate::DslashProblem::read_output)
    /// produces — the two are directly comparable with
    /// [`bitwise_equal`](crate::validate::bitwise_equal).
    pub fn read_assembled(&self) -> Vec<ColorVector<C>> {
        let mut out = vec![ColorVector::<C>::zero(); self.lattice().half_volume()];
        for rank in &self.ranks {
            let local = rank.read_output();
            for (idx, v) in local.into_iter().enumerate() {
                out[rank.targets_global_cb[idx]] = v;
            }
        }
        out
    }

    /// The CPU reference output (computed on first use, cached).
    pub fn reference(&mut self) -> &[ColorVector<C>] {
        self.fields.reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IndexOrder, Strategy};
    use milc_complex::DoubleComplex as Z;

    #[test]
    fn targets_cover_every_parity_site_once() {
        let p = ShardedProblem::<Z>::random(4, 11, 2);
        let hv = p.lattice().half_volume();
        let mut seen = vec![0u32; hv];
        for r in 0..2 {
            for &cb in p.rank(r).targets_global_cb() {
                seen[cb] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let total: u64 = (0..2).map(|r| p.rank(r).n_targets()).sum();
        assert_eq!(total, hv as u64);
    }

    #[test]
    fn interior_plus_boundary_split_is_consistent() {
        // L=16, 2 ranks: slab is 8 planes, 3-deep faces on both sides
        // leave 2 interior planes.
        let p = ShardedProblem::<Z>::random(16, 12, 2);
        let r = p.rank(0);
        let slice_targets = (16usize * 16 * 16 / 2) as u64;
        assert_eq!(r.n_interior(), 2 * slice_targets);
        assert_eq!(r.n_boundary(), 6 * slice_targets);
        // Thin slabs are all boundary.
        let p = ShardedProblem::<Z>::random(4, 12, 4);
        assert_eq!(p.rank(1).n_interior(), 0);
    }

    #[test]
    fn boundary_tables_offset_into_the_same_buffers() {
        let p = ShardedProblem::<Z>::random(4, 13, 2);
        let r = p.rank(0);
        let full = r.tables_for(Phase::Full).unwrap();
        let b = r.tables_for(Phase::Boundary).unwrap();
        assert_eq!(b.target - full.target, r.n_interior() * 4);
        assert_eq!(b.c - full.c, r.n_interior() * 48);
        assert_eq!(b.half_volume, r.n_boundary());
        // L=4 with 2 ranks: every site within 3 of a face -> no interior.
        assert!(r.tables_for(Phase::Interior).is_none());
    }

    #[test]
    fn launch_fits_the_requested_size_to_each_phase() {
        // L=4 over 4 ranks: 32 targets, 384 3LP-1 items, all boundary.
        let p = ShardedProblem::<Z>::random(4, 18, 4);
        let rank = p.rank(0);
        let cfg = KernelConfig::new(Strategy::ThreeLp1, IndexOrder::KMajor);
        let (range, _) = rank.launch(cfg, Phase::Full, 768).unwrap();
        assert!(range.local < 768 && cfg.local_size_legal(range.local, 32));
        assert_eq!(range.global, 384);
        assert_eq!(rank.launch(cfg, Phase::Boundary, 96).unwrap().0.local, 96);
        assert!(rank.launch(cfg, Phase::Interior, 96).is_none());
    }

    #[test]
    fn exchange_fills_ghosts_with_sender_values() {
        let p = ShardedProblem::<Z>::random(4, 14, 2);
        let moved = p.exchange_halos(HaloFault::None).unwrap();
        assert_eq!(moved, p.halo_bytes_total());
        let part = p.partition();
        for r in 0..2 {
            let rp = p.rank(r);
            for (gi, &s) in part.ghost_sites(r).iter().enumerate() {
                for j in 0..3u64 {
                    let addr = rp.b_addr(rp.slab_volume + gi as u64, j);
                    let got = (rp.memory().read_f64(addr), rp.memory().read_f64(addr + 8));
                    let want = p.fields.b.site(s).c[j as usize];
                    assert_eq!(got, (want.re(), want.im()));
                }
            }
        }
    }

    #[test]
    fn dropped_message_reports_a_typed_fault() {
        let p = ShardedProblem::<Z>::random(4, 15, 2);
        let msg = &p.partition().messages()[3];
        let err = p.exchange_halos(HaloFault::Drop { msg: 3 }).unwrap_err();
        assert_eq!(
            err,
            SimError::HaloMessageFault {
                from: msg.from as u32,
                to: msg.to as u32,
                expected_bytes: msg.bytes(),
                got_bytes: 0,
            }
        );
    }

    #[test]
    fn truncated_message_reports_partial_bytes() {
        let p = ShardedProblem::<Z>::random(4, 16, 2);
        let err = p
            .exchange_halos(HaloFault::Truncate {
                msg: 0,
                keep_bytes: 100,
            })
            .unwrap_err();
        match err {
            SimError::HaloMessageFault {
                expected_bytes,
                got_bytes,
                ..
            } => {
                assert_eq!(got_bytes, 96); // 100 rounded down to whole values
                assert!(got_bytes < expected_bytes);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn silent_drop_succeeds_but_leaves_zeros() {
        let p = ShardedProblem::<Z>::random(4, 17, 2);
        // A good exchange first, to prove re-zeroing happens.
        p.exchange_halos(HaloFault::None).unwrap();
        p.exchange_halos(HaloFault::SilentDrop { msg: 0 }).unwrap();
        let msg = &p.partition().messages()[0];
        let rp = p.rank(msg.to);
        let gi = p.partition().ghost_index(msg.to, msg.sites[0]).unwrap() as u64;
        assert_eq!(rp.memory().read_f64(rp.b_addr(rp.slab_volume + gi, 0)), 0.0);
    }
}
