//! The affine footprint model: per-instruction address expressions
//! inferred from probe samples.
//!
//! Every lane of a launch is identified by `(group g, block m, residue q)`
//! with `local_id = m·Q + q` for the kernel's residue period `Q` (the
//! lcm of the declared site-block multiple and the warp size — the
//! period after which the paper's index decompositions repeat).  For a
//! fixed residue the instruction stream has a fixed *shape*, and each
//! memory instruction's address is fitted to one of three forms:
//!
//! * **affine** — `addr = base + Δg·g + Δm·m`; checked on every probe
//!   sample and extrapolated to every lane of the ND-range (the common
//!   case: `C`, `target`, local accumulators) — an address pattern that
//!   agrees on the probed groups but changes in an unprobed one is
//!   mispredicted, not detected;
//! * **gather** — `addr = base + scale·v` where `v` is the value an
//!   earlier 4-byte load of the *same lane* observed (the `nbr`/`target`
//!   table indirections; chains — `U` through `target`, `B` through
//!   `nbr` — fit because the fit is against the captured value itself);
//! * **residual** — neither form explains all probe samples (e.g. the
//!   register-spill slots, whose address wraps modulo the spill arena);
//!   only the probed samples are known, and every whole-range claim
//!   about such a slot is downgraded to a note.

use crate::event::Event;
use crate::memory::DeviceMemory;

/// One probed lane: its `(group, block)` and where its event stream
/// and captured 4-byte load values sit in the phase's [`ProbeLog`].
#[derive(Copy, Clone)]
pub(crate) struct ProbeSample {
    pub group: u64,
    pub block: u64,
    /// `(start, len)` in [`ProbeLog::events`].
    events: (usize, usize),
    /// `(start, len)` in [`ProbeLog::u32_values`].
    u32_values: (usize, usize),
}

/// One phase's probe observations in two flat arenas (events and
/// captured 4-byte load values), so a probe lane costs no allocation.
/// Cleared and refilled for every phase and residue period of one
/// model build.
#[derive(Default)]
pub(crate) struct ProbeLog {
    events: Vec<Event>,
    /// `(event index within its lane's stream, value)` for every
    /// 4-byte global load, ascending event index within a lane.
    u32_values: Vec<(usize, u32)>,
    /// Residue-major: residue `q`'s samples are
    /// `samples[q·per_residue .. (q+1)·per_residue]`.
    samples: Vec<ProbeSample>,
    residues: usize,
    per_residue: usize,
}

impl ProbeLog {
    /// Empty the log for a phase probed at `per_residue` points for
    /// each of `residues` residues, keeping the arenas' capacity.
    pub fn clear(&mut self, residues: usize, per_residue: usize) {
        self.events.clear();
        self.u32_values.clear();
        self.samples.clear();
        self.samples.reserve(residues * per_residue);
        self.residues = residues;
        self.per_residue = per_residue;
    }

    /// Record one probe lane: `run` appends the lane's events and
    /// `(absolute event index, value)` load captures to the arenas.
    /// Samples must be recorded residue by residue.
    pub fn record(
        &mut self,
        group: u64,
        block: u64,
        run: impl FnOnce(&mut Vec<Event>, &mut Vec<(usize, u32)>),
    ) {
        let (ev0, log0) = (self.events.len(), self.u32_values.len());
        run(&mut self.events, &mut self.u32_values);
        // Lanes log indices into the shared arena; rebase them onto the
        // lane's own stream.
        for entry in &mut self.u32_values[log0..] {
            entry.0 -= ev0;
        }
        let sample = ProbeSample {
            group,
            block,
            events: (ev0, self.events.len() - ev0),
            u32_values: (log0, self.u32_values.len() - log0),
        };
        self.samples.push(sample);
        if self.samples.len() == 1 {
            // Size the arenas for the phase from its first lane.
            let rest = (self.residues * self.per_residue).saturating_sub(1);
            self.events.reserve(sample.events.1 * rest);
            self.u32_values.reserve(sample.u32_values.1 * rest);
        }
    }

    /// Number of residues in the phase.
    pub fn residues(&self) -> usize {
        self.residues
    }

    /// The samples of residue `q`, in probe order.
    pub fn residue(&self, q: usize) -> &[ProbeSample] {
        &self.samples[q * self.per_residue..(q + 1) * self.per_residue]
    }

    /// A sample's event stream.
    pub fn events(&self, s: &ProbeSample) -> &[Event] {
        &self.events[s.events.0..s.events.0 + s.events.1]
    }

    /// A sample's captured 4-byte load values.
    pub fn u32_values(&self, s: &ProbeSample) -> &[(usize, u32)] {
        &self.u32_values[s.u32_values.0..s.u32_values.0 + s.u32_values.1]
    }
}

/// Fitted address expression of one memory instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddrForm {
    /// `addr = base + per_group·g + per_block·m`, validated on every
    /// probe sample (at most six groups × three residue blocks) and
    /// assumed to hold on the rest of the ND-range, which is not
    /// checked.
    Affine {
        /// Address at `g = 0, m = 0`.
        base: i128,
        /// Address increment per work-group.
        per_group: i128,
        /// Address increment per residue block within a group.
        per_block: i128,
    },
    /// `addr = base + scale·v` with `v` the value loaded by the 4-byte
    /// load at event index `src_event` of the same lane.
    Gather {
        /// Offset of the gathered region.
        base: i128,
        /// Bytes per index-table unit.
        scale: i128,
        /// Event index of the explaining 4-byte load.
        src_event: usize,
    },
    /// No closed form found: only the probe samples are known.
    Residual,
}

/// What a memory instruction does (addressing space and direction).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Global load.
    GlobalLoad,
    /// Global store.
    GlobalStore,
    /// Global atomic read-modify-write.
    GlobalAtomic,
    /// Work-group local load.
    LocalLoad,
    /// Work-group local store.
    LocalStore,
}

impl SlotKind {
    /// Whether the slot writes memory.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            SlotKind::GlobalStore | SlotKind::GlobalAtomic | SlotKind::LocalStore
        )
    }

    /// Whether the slot addresses work-group local memory.
    pub fn is_local(self) -> bool {
        matches!(self, SlotKind::LocalLoad | SlotKind::LocalStore)
    }

    /// Short mnemonic for reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SlotKind::GlobalLoad => "ld",
            SlotKind::GlobalStore => "st",
            SlotKind::GlobalAtomic => "atom",
            SlotKind::LocalLoad => "ld.local",
            SlotKind::LocalStore => "st.local",
        }
    }
}

/// One memory instruction of one residue's stream, with its fitted form
/// and the raw probe observations backing it.
#[derive(Clone, Debug)]
pub struct MemSlot {
    /// Index of this instruction in the residue's event stream.
    pub event_idx: usize,
    /// Space and direction.
    pub kind: SlotKind,
    /// Access width in bytes.
    pub bytes: u8,
    /// Fitted address expression.
    pub form: AddrForm,
    /// Allocation label of the representative sample (global slots).
    pub label: Option<String>,
    /// `(group, block, addr)` probe observations.
    pub samples: Vec<(u64, u64, u64)>,
}

/// The per-residue instruction stream: a representative event sequence
/// (addresses are the residue's first probe sample) plus the fitted
/// memory slots in event order.
#[derive(Clone, Debug)]
pub struct ResidueShape {
    /// Representative event sequence.
    pub events: Vec<Event>,
    /// Fitted memory instructions, ascending `event_idx`.
    pub slots: Vec<MemSlot>,
}

impl ResidueShape {
    /// The slot at a given event index, if that event is a memory access.
    pub fn slot_at(&self, event_idx: usize) -> Option<&MemSlot> {
        self.slots
            .binary_search_by_key(&event_idx, |s| s.event_idx)
            .ok()
            .map(|i| &self.slots[i])
    }
}

/// One barrier phase of the launch model.
#[derive(Clone, Debug)]
pub enum PhaseModel {
    /// Every residue's stream shape is (group, block)-invariant: the
    /// per-residue shapes cover the whole ND-range.
    Uniform(Vec<ResidueShape>),
    /// Probe samples of some residue disagreed on stream shape — the
    /// kernel's control flow depends on more than the residue, and no
    /// whole-range claim is made for this phase.
    Irregular(String),
}

/// The inferred whole-launch access model.
#[derive(Debug)]
pub struct LaunchModel {
    /// Work-group size.
    pub local_size: u32,
    /// Number of work-groups.
    pub num_groups: u64,
    /// Residue period `Q` (`local_id = block·Q + residue`).
    pub q_len: u32,
    /// Residue blocks per group (`local_size / Q`).
    pub blocks_per_group: u64,
    /// Probed group ids.
    pub probed_groups: Vec<u64>,
    /// Probed block ids.
    pub probed_blocks: Vec<u64>,
    /// Total symbolic lane evaluations used.
    pub probes: usize,
    /// Declared local memory per group, bytes.
    pub local_mem_bytes: u32,
    /// Per-phase models.
    pub phases: Vec<PhaseModel>,
}

impl LaunchModel {
    /// Decompose a local id into `(residue, block)`.
    pub fn residue_of(&self, lid: u32) -> (u32, u64) {
        (lid % self.q_len, (lid / self.q_len) as u64)
    }

    /// The warps of every residue block, as residue ranges
    /// `[w·W, min((w+1)·W, Q))` for a warp of `W` lanes.  They are the
    /// engine's warps when each block holds whole warps (`Q` a multiple
    /// of `W`) or when the block is the whole work-group (`Q` equals the
    /// local size), whose last warp is then partial.  `Err` when neither
    /// holds, because a block would then split a hardware warp.
    pub fn block_warps(
        &self,
        warp: u32,
    ) -> Result<impl Iterator<Item = std::ops::Range<u32>>, String> {
        let q = self.q_len;
        if warp == 0 || !(q.is_multiple_of(warp) || q == self.local_size) {
            return Err(format!(
                "residue period {q} splits the {warp}-lane warps of a {}-item group",
                self.local_size
            ));
        }
        Ok((0..q.div_ceil(warp)).map(move |w| w * warp..((w + 1) * warp).min(q)))
    }

    /// Resolve the address of `slot` for the lane `(group, block)`,
    /// following gather chains through the live index tables in `mem`.
    /// `None` when the form is residual (and `(group, block)` was not
    /// probed) or a gather source address falls outside the arena.
    pub fn resolve_addr(
        &self,
        mem: &DeviceMemory,
        shape: &ResidueShape,
        slot: &MemSlot,
        group: u64,
        block: u64,
    ) -> Option<u64> {
        match slot.form {
            AddrForm::Affine {
                base,
                per_group,
                per_block,
            } => {
                let a = base + per_group * group as i128 + per_block * block as i128;
                u64::try_from(a).ok()
            }
            AddrForm::Gather {
                base,
                scale,
                src_event,
            } => {
                let src = shape.slot_at(src_event)?;
                let src_addr = self.resolve_addr(mem, shape, src, group, block)?;
                if !src_addr.is_multiple_of(4) || mem.check(src_addr, 4).is_err() {
                    return None;
                }
                let v = mem.read_u32(src_addr) as i128;
                u64::try_from(base + scale * v).ok()
            }
            AddrForm::Residual => slot
                .samples
                .iter()
                .find(|&&(g, m, _)| g == group && m == block)
                .map(|&(_, _, a)| a),
        }
    }

    /// Predict the full event stream of lane `(group, local_id)` in a
    /// phase, resolving every address from the fitted footprints (gather
    /// chains read the live index tables in `mem`).  `None` when the
    /// phase is irregular or a residual slot has no probe sample for
    /// this `(group, block)`.
    pub fn predicted_stream(
        &self,
        mem: &DeviceMemory,
        phase: usize,
        group: u64,
        local_id: u32,
    ) -> Option<Vec<Event>> {
        let PhaseModel::Uniform(shapes) = self.phases.get(phase)? else {
            return None;
        };
        let (q, m) = self.residue_of(local_id);
        let shape = shapes.get(q as usize)?;
        let mut out = Vec::with_capacity(shape.events.len());
        for (idx, ev) in shape.events.iter().enumerate() {
            let rebuilt = if let Some(slot) = shape.slot_at(idx) {
                let addr = self.resolve_addr(mem, shape, slot, group, m)?;
                match slot.kind {
                    SlotKind::GlobalLoad => Event::GlobalLoad {
                        addr,
                        bytes: slot.bytes,
                    },
                    SlotKind::GlobalStore => Event::GlobalStore {
                        addr,
                        bytes: slot.bytes,
                    },
                    SlotKind::GlobalAtomic => Event::AtomicRmw {
                        addr,
                        bytes: slot.bytes,
                    },
                    SlotKind::LocalLoad => Event::LocalLoad {
                        offset: u32::try_from(addr).ok()?,
                        bytes: slot.bytes,
                    },
                    SlotKind::LocalStore => Event::LocalStore {
                        offset: u32::try_from(addr).ok()?,
                        bytes: slot.bytes,
                    },
                }
            } else {
                *ev
            };
            out.push(rebuilt);
        }
        Some(out)
    }
}

/// Whether two probe streams have the same *shape*: identical event
/// kinds and widths, with non-memory payloads (paths, op counts) equal —
/// addresses are allowed to differ, that is what the fit explains.
pub(crate) fn same_shape(a: &[Event], b: &[Event]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Event::GlobalLoad { bytes: p, .. }, Event::GlobalLoad { bytes: q, .. })
            | (Event::GlobalStore { bytes: p, .. }, Event::GlobalStore { bytes: q, .. })
            | (Event::AtomicRmw { bytes: p, .. }, Event::AtomicRmw { bytes: q, .. })
            | (Event::LocalLoad { bytes: p, .. }, Event::LocalLoad { bytes: q, .. })
            | (Event::LocalStore { bytes: p, .. }, Event::LocalStore { bytes: q, .. }) => p == q,
            (x, y) => x == y,
        })
}

fn event_slot_kind(ev: &Event) -> Option<(SlotKind, u8, u64)> {
    match *ev {
        Event::GlobalLoad { addr, bytes } => Some((SlotKind::GlobalLoad, bytes, addr)),
        Event::GlobalStore { addr, bytes } => Some((SlotKind::GlobalStore, bytes, addr)),
        Event::AtomicRmw { addr, bytes } => Some((SlotKind::GlobalAtomic, bytes, addr)),
        Event::LocalLoad { offset, bytes } => Some((SlotKind::LocalLoad, bytes, offset as u64)),
        Event::LocalStore { offset, bytes } => Some((SlotKind::LocalStore, bytes, offset as u64)),
        _ => None,
    }
}

/// Fit one residue's memory slots from its probe samples (all of which
/// already passed [`same_shape`]).  `obs` is scratch for the slots'
/// `(group, block, addr)` observations, reused across residues.
pub(crate) fn fit_residue(
    log: &ProbeLog,
    samples: &[ProbeSample],
    mem: &DeviceMemory,
    obs: &mut Vec<(u64, u64, u64)>,
) -> ResidueShape {
    let rep = log.events(&samples[0]);
    let mut slots: Vec<MemSlot> = rep
        .iter()
        .enumerate()
        .filter_map(|(idx, ev)| {
            let (kind, bytes, _) = event_slot_kind(ev)?;
            Some(MemSlot {
                event_idx: idx,
                kind,
                bytes,
                form: AddrForm::Residual,
                label: None,
                samples: Vec::new(),
            })
        })
        .collect();
    // Observations slot-major (`obs[j·n + s]`), filled one sample's
    // stream at a time.
    let n = samples.len();
    obs.clear();
    obs.resize(slots.len() * n, (0, 0, 0));
    for (si, s) in samples.iter().enumerate() {
        let events = log.events(s);
        for (j, slot) in slots.iter().enumerate() {
            let (_, _, a) = event_slot_kind(&events[slot.event_idx]).expect("same shape");
            obs[j * n + si] = (s.group, s.block, a);
        }
    }
    let mut columns: Option<GatherColumns> = None;
    for (slot, obs) in slots.iter_mut().zip(obs.chunks_exact(n)) {
        slot.form = fit_affine(obs)
            .or_else(|| {
                if slot.kind.is_local() {
                    None
                } else {
                    columns
                        .get_or_insert_with(|| GatherColumns::build(log, samples))
                        .fit(slot.event_idx, obs)
                }
            })
            .unwrap_or(AddrForm::Residual);
        if !slot.kind.is_local() {
            slot.label = mem.find_allocation(obs[0].2).map(|(_, _, l)| l.to_string());
        }
        slot.samples = obs.to_vec();
    }
    ResidueShape {
        events: rep.to_vec(),
        slots,
    }
}

/// Fit `addr = base + Δg·g + Δm·m` and validate on every sample.
fn fit_affine(obs: &[(u64, u64, u64)]) -> Option<AddrForm> {
    let (g0, m0, a0) = obs[0];
    let (g0, m0, a0) = (g0 as i128, m0 as i128, a0 as i128);
    // Coefficients from the first pair that isolates each index.
    let mut per_group: Option<i128> = None;
    let mut per_block: Option<i128> = None;
    for &(g, m, a) in obs.iter().skip(1) {
        let (g, m, a) = (g as i128, m as i128, a as i128);
        if per_group.is_none() && g != g0 && m == m0 {
            per_group = Some(exact_quotient(a - a0, g - g0)?);
        }
        if per_block.is_none() && m != m0 && g == g0 {
            per_block = Some(exact_quotient(a - a0, m - m0)?);
        }
    }
    let per_group = per_group.unwrap_or(0);
    let per_block = per_block.unwrap_or(0);
    let base = a0 - per_group * g0 - per_block * m0;
    for &(g, m, a) in obs {
        if base + per_group * g as i128 + per_block * m as i128 != a as i128 {
            return None;
        }
    }
    Some(AddrForm::Affine {
        base,
        per_group,
        per_block,
    })
}

/// `d / q` when `q` divides `d` evenly.
fn exact_quotient(d: i128, q: i128) -> Option<i128> {
    (q != 0 && d % q == 0).then(|| d / q)
}

/// One residue's captured 4-byte load values as columns: for every load
/// of the first sample (ascending event index), its value in every
/// sample — or `None` when some sample did not capture it.  Built once
/// per residue, so each gather candidate costs O(samples).
struct GatherColumns {
    /// Each column's event index, and whether every sample captured it.
    cols: Vec<(usize, bool)>,
    /// `values[c·samples + s]`: column `c`'s value in sample `s`.
    values: Vec<u32>,
    samples: usize,
}

impl GatherColumns {
    fn build(log: &ProbeLog, samples: &[ProbeSample]) -> Self {
        let rep = log.u32_values(&samples[0]);
        let n = samples.len();
        let mut values = vec![0u32; rep.len() * n];
        let mut present = vec![true; rep.len()];
        for (si, s) in samples.iter().enumerate() {
            // Both lists ascend by event index: merge.
            let vals = log.u32_values(s);
            let mut j = 0;
            for (c, &(e, _)) in rep.iter().enumerate() {
                while j < vals.len() && vals[j].0 < e {
                    j += 1;
                }
                match vals.get(j) {
                    Some(&(ej, v)) if ej == e => values[c * n + si] = v,
                    _ => present[c] = false,
                }
            }
        }
        let cols = rep.iter().zip(present).map(|(&(e, _), p)| (e, p)).collect();
        Self {
            cols,
            values,
            samples: n,
        }
    }

    /// Fit `addr = base + scale·v` against the values captured by
    /// earlier 4-byte loads of the same lane, nearest source first
    /// (gather chains — `B` through `nbr`, `U` through `target` — fit
    /// directly because the captured value *is* the chained index).  A
    /// source some sample did not capture ends the search with `None`.
    fn fit(&self, idx: usize, obs: &[(u64, u64, u64)]) -> Option<AddrForm> {
        let before = self.cols.partition_point(|&(e, _)| e < idx);
        for (c, &(src, present)) in self.cols[..before].iter().enumerate().rev() {
            if !present {
                return None;
            }
            let vals = &self.values[c * self.samples..(c + 1) * self.samples];
            if let Some(form) = fit_gather_source(src, vals, obs) {
                return Some(form);
            }
        }
        None
    }
}

/// Fit `addr = base + scale·v` for one source column: `vals[i]` is the
/// value the load at `src` captured in the lane of `obs[i]`.
fn fit_gather_source(src: usize, vals: &[u32], obs: &[(u64, u64, u64)]) -> Option<AddrForm> {
    let a0 = obs[0].2 as i128;
    let v0 = vals[0] as i128;
    let mut scale: Option<i128> = None;
    for (&(_, _, a), &v) in obs.iter().zip(vals).skip(1) {
        let v = v as i128;
        if v != v0 {
            scale = Some(exact_quotient(a as i128 - a0, v - v0)?);
            break;
        }
    }
    // A source that never varies cannot explain a varying address.
    let scale = scale?;
    let base = a0 - scale * v0;
    obs.iter()
        .zip(vals)
        .all(|(&(_, _, a), &v)| base + scale * v as i128 == a as i128)
        .then_some(AddrForm::Gather {
            base,
            scale,
            src_event: src,
        })
}

/// The affine-mod-bank normal form of a local-memory slot: its fitted
/// affine address expression canonicalized under the bank mapping
/// `bank(addr) = (addr / bank_width) mod banks`.
///
/// Padded and XOR-swizzled layouts produce *different* byte-offset
/// expressions per lane residue, but after the probe's residue split
/// every one of them is affine in the block index `m` (the XOR in a
/// chunk-padded swizzle only mixes bits *within* a residue's offset, so
/// it is constant per residue and folds into `base`).  Dividing by the
/// bank width and reducing modulo the bank count yields the canonical
/// form: a start word plus a uniform word rotation per residue block
/// and per work-group.  When every lane of one warp instruction shares
/// the same rotations, the instruction's bank-conflict structure is
/// invariant across `(g, m)`: all lane words translate *together*,
/// which permutes banks but preserves exactly which lanes collide and
/// which broadcast — so a single symbolic evaluation at `(0, 0)` covers
/// the entire ND-range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BankForm {
    /// Word index (`addr / bank_width`) at `g = 0, m = 0`.
    pub word0: i128,
    /// Word increment per work-group.
    pub words_per_group: i128,
    /// Word increment per residue block within a group.
    pub words_per_block: i128,
    /// Canonical bank rotation per residue block
    /// (`words_per_block mod banks`).
    pub rotation_per_block: u32,
    /// Canonical bank rotation per work-group
    /// (`words_per_group mod banks`).
    pub rotation_per_group: u32,
}

/// Canonicalize a local slot into the affine-mod-bank normal form.
///
/// `None` when the slot is not local, not affine (residual/gather forms
/// carry no whole-range claim) or not word-aligned (a misaligned access
/// straddles words and the uniform-translation argument breaks).
pub fn bank_normal_form(slot: &MemSlot, banks: u32, bank_width: u32) -> Option<BankForm> {
    if !slot.kind.is_local() || banks == 0 || bank_width == 0 {
        return None;
    }
    let AddrForm::Affine {
        base,
        per_group,
        per_block,
    } = slot.form
    else {
        return None;
    };
    let w = bank_width as i128;
    if base < 0 || base % w != 0 || per_group % w != 0 || per_block % w != 0 {
        return None;
    }
    let b = banks as i128;
    Some(BankForm {
        word0: base / w,
        words_per_group: per_group / w,
        words_per_block: per_block / w,
        rotation_per_block: (per_block / w).rem_euclid(b) as u32,
        rotation_per_group: (per_group / w).rem_euclid(b) as u32,
    })
}

/// A form without its base address: what [`form_signature`] renders,
/// so identical access patterns at different offsets compare equal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum FormShape {
    Affine { per_group: i128, per_block: i128 },
    Gather { scale: i128 },
    Residual,
}

impl FormShape {
    pub(crate) fn of(form: &AddrForm) -> Self {
        match *form {
            AddrForm::Affine {
                per_group,
                per_block,
                ..
            } => FormShape::Affine {
                per_group,
                per_block,
            },
            AddrForm::Gather { scale, .. } => FormShape::Gather { scale },
            AddrForm::Residual => FormShape::Residual,
        }
    }

    /// Render the shape for reports.
    pub(crate) fn signature(self) -> String {
        match self {
            FormShape::Affine {
                per_group,
                per_block,
            } => format!("affine Δg={per_group} Δm={per_block}"),
            FormShape::Gather { scale } => format!("gather ×{scale}"),
            FormShape::Residual => "residual".to_string(),
        }
    }
}

/// Render a form for reports: the shape without the base address, so
/// identical access patterns at different offsets fold together.
pub(crate) fn form_signature(form: &AddrForm) -> String {
    FormShape::of(form).signature()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The gather fit before the column index, kept as the differential
    /// oracle: candidates are the first sample's captures before `idx`,
    /// nearest first, and each is looked up by linear search in every
    /// sample's capture list.
    fn fit_gather_oracle(
        logs: &[Vec<(usize, u32)>],
        idx: usize,
        obs: &[(u64, u64, u64)],
    ) -> Option<AddrForm> {
        let candidates: Vec<usize> = logs[0]
            .iter()
            .map(|&(e, _)| e)
            .filter(|&e| e < idx)
            .rev()
            .collect();
        'cand: for src in candidates {
            let vals: Vec<i128> = logs
                .iter()
                .map(|log| {
                    log.iter()
                        .find(|&&(e, _)| e == src)
                        .map(|&(_, v)| v as i128)
                })
                .collect::<Option<_>>()?;
            let a0 = obs[0].2 as i128;
            let v0 = vals[0];
            let mut scale: Option<i128> = None;
            for (&(_, _, a), &v) in obs.iter().zip(&vals).skip(1) {
                if v != v0 {
                    let d = a as i128 - a0;
                    if v - v0 == 0 || d % (v - v0) != 0 {
                        continue 'cand;
                    }
                    scale = Some(d / (v - v0));
                    break;
                }
            }
            let Some(scale) = scale else {
                continue;
            };
            let base = a0 - scale * v0;
            if obs
                .iter()
                .zip(&vals)
                .all(|(&(_, _, a), &v)| base + scale * v == a as i128)
            {
                return Some(AddrForm::Gather {
                    base,
                    scale,
                    src_event: src,
                });
            }
        }
        None
    }

    /// A one-residue probe log whose sample `s` captured `logs[s]`
    /// (ascending event indices) in a stream of `stream_len` events.
    fn log_of(logs: &[Vec<(usize, u32)>], stream_len: usize) -> ProbeLog {
        let mut log = ProbeLog::default();
        log.clear(1, logs.len());
        for (s, captures) in logs.iter().enumerate() {
            log.record(s as u64, 0, |events, u32_values| {
                let ev0 = events.len();
                events.extend((0..stream_len).map(|_| Event::Flops(1)));
                for &(e, v) in captures {
                    events[ev0 + e] = Event::GlobalLoad { addr: 0, bytes: 4 };
                    u32_values.push((ev0 + e, v));
                }
            });
        }
        log
    }

    /// The column-indexed fit and the oracle on the same samples; the
    /// common answer.
    fn both_fits(logs: &[Vec<(usize, u32)>], idx: usize, addrs: &[u64]) -> Option<AddrForm> {
        let obs: Vec<(u64, u64, u64)> = addrs
            .iter()
            .enumerate()
            .map(|(s, &a)| (s as u64, 0, a))
            .collect();
        let last_load = logs.iter().flatten().map(|&(e, _)| e + 1).max();
        let log = log_of(logs, last_load.unwrap_or(0).max(idx + 1));
        let indexed = GatherColumns::build(&log, log.residue(0)).fit(idx, &obs);
        let oracle = fit_gather_oracle(logs, idx, &obs);
        assert_eq!(indexed, oracle, "logs {logs:?} idx {idx} addrs {addrs:?}");
        indexed
    }

    fn gather(base: i128, scale: i128, src_event: usize) -> Option<AddrForm> {
        Some(AddrForm::Gather {
            base,
            scale,
            src_event,
        })
    }

    #[test]
    fn the_nearest_of_several_fitting_sources_wins() {
        // Loads at events 1 and 3 hold the same index: both explain the
        // address, the nearer one (event 3) is chosen.
        let logs = vec![
            vec![(1, 2), (3, 2)],
            vec![(1, 5), (3, 5)],
            vec![(1, 7), (3, 7)],
        ];
        assert_eq!(
            both_fits(&logs, 6, &[0x1010, 0x1028, 0x1038]),
            gather(0x1000, 8, 3)
        );
    }

    #[test]
    fn a_constant_source_is_skipped_for_a_varying_one() {
        let logs = vec![
            vec![(0, 4), (2, 9)],
            vec![(0, 6), (2, 9)],
            vec![(0, 1), (2, 9)],
        ];
        assert_eq!(
            both_fits(&logs, 5, &[0x2040, 0x2060, 0x2010]),
            gather(0x2000, 16, 0)
        );
    }

    #[test]
    fn non_divisible_deltas_and_residual_addresses_do_not_fit() {
        let logs = vec![vec![(0, 1)], vec![(0, 3)], vec![(0, 4)]];
        // Δa = 5 over Δv = 2.
        assert_eq!(both_fits(&logs, 2, &[0x100, 0x105, 0x108]), None);
        // Scale 8 from the first pair, but the third sample is off.
        assert_eq!(both_fits(&logs, 2, &[0x100, 0x110, 0x11c]), None);
    }

    #[test]
    fn a_source_absent_from_one_sample_ends_the_fit() {
        // Event 3 (nearest) is missing from sample 1: no fit, although
        // event 1 would explain the address.
        let logs = vec![vec![(1, 2), (3, 0)], vec![(1, 5)], vec![(1, 7), (3, 0)]];
        assert_eq!(both_fits(&logs, 6, &[0x1010, 0x1028, 0x1038]), None);
        // A nearer source that fits first is still found.
        let logs = vec![vec![(1, 2), (3, 2)], vec![(3, 5)], vec![(1, 7), (3, 7)]];
        assert_eq!(
            both_fits(&logs, 6, &[0x1010, 0x1028, 0x1038]),
            gather(0x1000, 8, 3)
        );
    }

    proptest! {
        /// Random sample sets: up to eight loads per lane with small
        /// value ranges (constant and repeated columns), a target that is
        /// a true gather through some load, a perturbed gather
        /// (non-divisible or failing validation), random (residual) or
        /// constant addresses, an optional duplicate of the source column
        /// (several fitting sources) and an optional capture dropped from
        /// one sample.
        #[test]
        fn column_index_matches_the_linear_search_oracle(
            samples in 2usize..9,
            loads in 1usize..9,
            cut in 0usize..10,
            table in proptest::collection::vec(0u32..5, 72..73),
            shape in (0usize..4, 0usize..8, 0usize..8),
            line in (-40i64..40, 0x10_000u64..0x20_000, 1u64..4),
            drop in 0usize..100,
            junk in proptest::collection::vec(0x1000u64..0x1100, 8..9),
        ) {
            let ((mode, src, dup), (scale, base, bump)) = (shape, line);
            let mut cols: Vec<Vec<u32>> = (0..loads)
                .map(|c| (0..samples).map(|s| table[c * 9 + s]).collect())
                .collect();
            let src = src % loads;
            if dup % loads != src {
                cols[dup % loads] = cols[src].clone();
            }
            let mut addrs: Vec<u64> = (0..samples)
                .map(|s| match mode {
                    0 | 1 => (base as i128 + scale as i128 * cols[src][s] as i128) as u64,
                    2 => junk[s],
                    _ => base,
                })
                .collect();
            if mode == 1 {
                addrs[samples - 1] += bump;
            }
            // Load c sits at event 2c + 1; the target at event 2·cut.
            let mut logs: Vec<Vec<(usize, u32)>> = (0..samples)
                .map(|s| (0..loads).map(|c| (2 * c + 1, cols[c][s])).collect())
                .collect();
            let (ds, dc) = (drop / 10, drop % 10);
            if ds < samples && dc < loads {
                logs[ds].remove(dc);
            }
            both_fits(&logs, 2 * cut, &addrs);
        }
    }
}
