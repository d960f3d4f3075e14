//! Domain decomposition of the lattice along the t-dimension, plus the
//! halo (ghost-site) exchange plan the decomposition induces.
//!
//! Real MILC deployments split the lattice across ranks, one slab per
//! GPU; each rank owns the full `x, y, z` extent of a contiguous range
//! of t-planes.  The 16-point staggered stencil (hops of ±1 and ±3 per
//! dimension) only leaves a slab through its t-faces, so every site a
//! rank must import from a peer lies on one of at most six complete
//! t-slices: distance 1, 2 and 3 below the slab and above it ([`HALO_DEPTH`]).
//! Those imported sites are the rank's *ghosts*; the per-slice transfers
//! that fill them are the [`HaloMsg`] plan.
//!
//! Everything here is host-side index bookkeeping — deterministic,
//! device-free, and exactly the machinery the property tests pin:
//! the slabs are a disjoint cover, the receive sets equal the
//! stencil-derived need sets, and the ghost counts match the analytic
//! `2 · HALO_DEPTH · Lx·Ly·Lz` faces formula away from wraparound.

use milc_lattice::neighbors::NeighborTable;
use milc_lattice::Lattice;
use std::collections::{BTreeSet, HashMap};

/// Maximum stencil reach in t: the long links hop ±3 planes.
pub const HALO_DEPTH: usize = 3;

/// Complex values per ghost site in the source vector `B` (3 colors),
/// 16 bytes each.
pub const BYTES_PER_HALO_SITE: u64 = 3 * 16;

/// One planned halo transfer: the complete t-slice `t`, owned by rank
/// `from`, that rank `to` needs as ghost sites.  One message per
/// `(from, to, slice)` — the granularity a real exchange posts, which
/// is what lets an async engine pipeline several messages behind one
/// another instead of paying every message's latency serially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaloMsg {
    /// Owning (sending) rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Global t-coordinate of the slice carried.
    pub t: usize,
    /// Global site indices of the slice, ascending.
    pub sites: Vec<usize>,
}

impl HaloMsg {
    /// Payload size: the `B`-vector values of every site in the slice.
    pub fn bytes(&self) -> u64 {
        self.sites.len() as u64 * BYTES_PER_HALO_SITE
    }
}

/// A t-slab decomposition of a lattice across `ranks` ranks, with the
/// full ghost/halo plan precomputed.
#[derive(Clone, Debug)]
pub struct Partition {
    lattice: Lattice,
    /// Slab boundaries: rank `r` owns t-planes `starts[r]..starts[r+1]`.
    starts: Vec<usize>,
    /// Per rank: the ghost slices `(t, owner)` in receive order.
    ghost_slices: Vec<Vec<(usize, usize)>>,
    /// Per rank: global site indices of all ghost sites, slice-major,
    /// ascending within each slice.
    ghost_sites: Vec<Vec<usize>>,
    /// Per rank: global site → ghost index.
    ghost_lookup: Vec<HashMap<usize, usize>>,
    /// The full message plan, receiver-major, slice order.
    messages: Vec<HaloMsg>,
}

impl Partition {
    /// Split `lattice` into `ranks` contiguous t-slabs.  Extents that do
    /// not divide evenly are allowed: the first `Lt % ranks` ranks get
    /// one extra plane.
    ///
    /// # Panics
    /// Panics unless `1 <= ranks <= Lt`.
    pub fn new(lattice: &Lattice, ranks: usize) -> Self {
        let lt = lattice.dims()[3];
        assert!(
            ranks >= 1 && ranks <= lt,
            "rank count {ranks} must be in 1..={lt} (t extent)"
        );
        let base = lt / ranks;
        let rem = lt % ranks;
        let mut starts = Vec::with_capacity(ranks + 1);
        starts.push(0);
        for r in 0..ranks {
            starts.push(starts[r] + base + usize::from(r < rem));
        }
        debug_assert_eq!(starts[ranks], lt);

        let mut p = Self {
            lattice: lattice.clone(),
            starts,
            ghost_slices: Vec::new(),
            ghost_sites: Vec::new(),
            ghost_lookup: Vec::new(),
            messages: Vec::new(),
        };
        for r in 0..ranks {
            let slices = p.compute_ghost_slices(r);
            let slice_vol = p.slice_volume();
            let mut sites = Vec::with_capacity(slices.len() * slice_vol);
            let mut lookup = HashMap::with_capacity(slices.len() * slice_vol);
            for &(t, owner) in &slices {
                let first = t * slice_vol;
                for s in first..first + slice_vol {
                    lookup.insert(s, sites.len());
                    sites.push(s);
                }
                p.messages.push(HaloMsg {
                    from: owner,
                    to: r,
                    t,
                    sites: (first..first + slice_vol).collect(),
                });
            }
            p.ghost_slices.push(slices);
            p.ghost_sites.push(sites);
            p.ghost_lookup.push(lookup);
        }
        p
    }

    /// The ghost slices of one rank: stencil-reachable external t-planes
    /// in deterministic receive order (below the slab at distance 1..3,
    /// then above at distance 1..3; duplicates and self-owned planes
    /// dropped).  A one-plane slab reaches only distances 1 and 3 — its
    /// own plane hops ±1 and ±3, never ±2.
    fn compute_ghost_slices(&self, r: usize) -> Vec<(usize, usize)> {
        let lt = self.lattice.dims()[3];
        let t0 = self.t_start(r) as isize;
        let t1 = t0 + self.t_len(r) as isize - 1;
        let depths: &[isize] = if self.t_len(r) == 1 {
            &[1, 3]
        } else {
            &[1, 2, 3]
        };
        let mut out: Vec<(usize, usize)> = Vec::new();
        let push = |t: isize, out: &mut Vec<(usize, usize)>| {
            let t = t.rem_euclid(lt as isize) as usize;
            let owner = self.owner_of_t(t);
            if owner != r && !out.iter().any(|&(seen, _)| seen == t) {
                out.push((t, owner));
            }
        };
        for &d in depths {
            push(t0 - d, &mut out);
        }
        for &d in depths {
            push(t1 + d, &mut out);
        }
        out
    }

    /// The decomposed lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// First t-plane of rank `r`'s slab.
    pub fn t_start(&self, r: usize) -> usize {
        self.starts[r]
    }

    /// Number of t-planes rank `r` owns.
    pub fn t_len(&self, r: usize) -> usize {
        self.starts[r + 1] - self.starts[r]
    }

    /// Sites in one t-plane (`Lx · Ly · Lz`).
    pub fn slice_volume(&self) -> usize {
        let [lx, ly, lz, _] = self.lattice.dims();
        lx * ly * lz
    }

    /// Sites rank `r` owns.
    pub fn slab_volume(&self, r: usize) -> usize {
        self.slice_volume() * self.t_len(r)
    }

    /// The rank owning t-plane `t`.
    pub fn owner_of_t(&self, t: usize) -> usize {
        debug_assert!(t < self.lattice.dims()[3]);
        // ranks ≤ Lt keeps this linear scan trivially small.
        (0..self.ranks())
            .find(|&r| t < self.starts[r + 1])
            .expect("t within lattice extent")
    }

    /// The rank owning a global site.
    pub fn owner_of_site(&self, s: usize) -> usize {
        self.owner_of_t(self.lattice.coord(s)[3])
    }

    /// Local (slab) index of a global site owned by rank `r`: the same
    /// x-fastest lexicographic order as the global lattice, with t
    /// relative to the slab start.  Because full t-planes are owned
    /// contiguously, this is just an offset.
    ///
    /// # Panics
    /// Debug-asserts that `r` owns `s`.
    pub fn local_index(&self, r: usize, s: usize) -> usize {
        debug_assert_eq!(self.owner_of_site(s), r, "site {s} not owned by rank {r}");
        s - self.t_start(r) * self.slice_volume()
    }

    /// Global site of a local slab index (inverse of [`local_index`](Self::local_index)).
    pub fn global_site(&self, r: usize, local: usize) -> usize {
        debug_assert!(local < self.slab_volume(r));
        local + self.t_start(r) * self.slice_volume()
    }

    /// Global site indices of rank `r`'s slab, in local order.
    pub fn slab_sites(&self, r: usize) -> core::ops::Range<usize> {
        let first = self.t_start(r) * self.slice_volume();
        first..first + self.slab_volume(r)
    }

    /// The ghost slices of rank `r`, `(global t, owner)`, receive order.
    pub fn ghost_slices(&self, r: usize) -> &[(usize, usize)] {
        &self.ghost_slices[r]
    }

    /// Global site indices of rank `r`'s ghosts, ghost-buffer order.
    pub fn ghost_sites(&self, r: usize) -> &[usize] {
        &self.ghost_sites[r]
    }

    /// Number of ghost sites of rank `r`.
    pub fn num_ghosts(&self, r: usize) -> usize {
        self.ghost_sites[r].len()
    }

    /// Ghost-buffer index of a global site on rank `r`, if it is one of
    /// `r`'s ghosts.
    pub fn ghost_index(&self, r: usize, s: usize) -> Option<usize> {
        self.ghost_lookup[r].get(&s).copied()
    }

    /// The full halo-message plan, receiver-major.
    pub fn messages(&self) -> &[HaloMsg] {
        &self.messages
    }

    /// The messages rank `r` receives.
    pub fn incoming(&self, r: usize) -> impl Iterator<Item = &HaloMsg> + '_ {
        self.messages.iter().filter(move |m| m.to == r)
    }

    /// The textbook ghost count for a slab: `2 · HALO_DEPTH` complete
    /// faces of `Lx · Ly · Lz` sites.  Exact whenever the slab is at
    /// least two planes thick (so all three depths are reachable) and
    /// the rest of the lattice is at least `2 · HALO_DEPTH` planes (so
    /// the below and above slices neither wrap onto each other nor back
    /// onto the slab); the property tests assert equality under exactly
    /// that guard.
    pub fn analytic_ghost_sites(&self, _r: usize) -> usize {
        2 * HALO_DEPTH * self.slice_volume()
    }

    /// The stencil-derived need set of rank `r`: every global site some
    /// owned site reads through the 16-point stencil that `r` does not
    /// own.  Independent of the slice bookkeeping above — the property
    /// tests check `needed_sources == ghost_sites` as sets.
    pub fn needed_sources(&self, r: usize, nt: &NeighborTable) -> BTreeSet<usize> {
        let mut need = BTreeSet::new();
        for s in self.slab_sites(r) {
            for l in 0..4 {
                for k in 0..4 {
                    let src = nt.source_site(l, s, k);
                    if self.owner_of_site(src) != r {
                        need.insert(src);
                    }
                }
            }
        }
        need
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_owns_everything_once() {
        let lat = Lattice::hypercubic(8);
        let p = Partition::new(&lat, 4);
        assert_eq!(p.ranks(), 4);
        for r in 0..4 {
            assert_eq!(p.t_len(r), 2);
            assert_eq!(p.slab_volume(r), 8 * 8 * 8 * 2);
        }
        let mut owned = vec![0u32; lat.volume()];
        for r in 0..4 {
            for s in p.slab_sites(r) {
                owned[s] += 1;
                assert_eq!(p.owner_of_site(s), r);
                assert_eq!(p.global_site(r, p.local_index(r, s)), s);
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn uneven_split_spreads_remainder() {
        let lat = Lattice::new([4, 4, 4, 10]);
        let p = Partition::new(&lat, 3);
        assert_eq!(
            (0..3).map(|r| p.t_len(r)).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert_eq!(p.t_start(2), 7);
    }

    #[test]
    fn ghost_slices_are_the_six_nearest_external_planes() {
        let lat = Lattice::new([2, 2, 2, 16]);
        let p = Partition::new(&lat, 2);
        // Rank 0 owns t = 0..8; ghosts below: 15, 14, 13; above: 8, 9, 10.
        let ts: Vec<usize> = p.ghost_slices(0).iter().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![15, 14, 13, 8, 9, 10]);
        assert!(p.ghost_slices(0).iter().all(|&(_, o)| o == 1));
        assert_eq!(p.num_ghosts(0), p.analytic_ghost_sites(0));
    }

    #[test]
    fn one_plane_slab_skips_distance_two() {
        let lat = Lattice::new([2, 2, 2, 8]);
        let p = Partition::new(&lat, 8);
        // Rank 4 owns t = 4 only; hops reach 3, 5 (±1) and 1, 7 (±3).
        let ts: Vec<usize> = p.ghost_slices(4).iter().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![3, 1, 5, 7]);
    }

    #[test]
    fn wraparound_dedupes_and_drops_self() {
        let lat = Lattice::new([2, 2, 2, 4]);
        let p = Partition::new(&lat, 2);
        // Rank 0 owns t = 0, 1; every external plane is 2 or 3.
        let ts: Vec<usize> = p.ghost_slices(0).iter().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![3, 2]);
    }

    #[test]
    fn receive_sets_equal_stencil_need_sets() {
        for (dims, ranks) in [([4, 4, 4, 8], 2), ([2, 4, 2, 6], 3), ([2, 2, 2, 8], 8)] {
            let lat = Lattice::new(dims);
            let nt = NeighborTable::build(&lat);
            let p = Partition::new(&lat, ranks);
            for r in 0..ranks {
                let need = p.needed_sources(r, &nt);
                let got: BTreeSet<usize> = p.ghost_sites(r).iter().copied().collect();
                assert_eq!(got, need, "dims {dims:?} ranks {ranks} rank {r}");
            }
        }
    }

    #[test]
    fn messages_partition_the_ghost_sites() {
        let lat = Lattice::hypercubic(4);
        let p = Partition::new(&lat, 4);
        for r in 0..4 {
            let from_msgs: Vec<usize> = p
                .incoming(r)
                .flat_map(|m| m.sites.iter().copied())
                .collect();
            assert_eq!(from_msgs, p.ghost_sites(r));
            for m in p.incoming(r) {
                assert_eq!(m.bytes(), m.sites.len() as u64 * 48);
                assert!(m.sites.iter().all(|&s| p.owner_of_site(s) == m.from));
                assert!(m.sites.iter().all(|&s| lat.coord(s)[3] == m.t));
            }
        }
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let lat = Lattice::hypercubic(4);
        let p = Partition::new(&lat, 1);
        assert_eq!(p.num_ghosts(0), 0);
        assert!(p.messages().is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn too_many_ranks_rejected() {
        let lat = Lattice::hypercubic(4);
        let _ = Partition::new(&lat, 5);
    }
}
