//! Whole-launch traffic prediction: coalescing and bank-conflict counts
//! derived from the fitted footprint model, *without executing* the
//! kernel's arithmetic.
//!
//! Every `(phase, group, warp)` of the ND-range gets its lane event
//! streams reconstructed from the model (affine slots in closed form,
//! gathers by reading the live index tables, residual slots by
//! substituting a representative probed warp) and replayed through the
//! *same* warp replayer the dynamic engine uses, warp by warp as the
//! engine composes them ([`LaunchModel::block_warps`]: a group narrower
//! than a warp, or not a multiple of one, ends in a partial warp) — so
//! the predicted transaction counts agree with the dynamic counters by
//! construction wherever the model is exact.
//!
//! Only cache-state-independent counters are predicted (tag and sector
//! *requests*, shared wavefronts, instruction mixes, atomic passes):
//! they are pure functions of each warp instruction's address vector.
//! Miss counts depend on replacement state across the whole launch and
//! are out of scope — the dynamic engine remains the authority there.

use super::footprint::{
    bank_normal_form, form_signature, AddrForm, LaunchModel, PhaseModel, ResidueShape,
};
use crate::cache::{Cache, CacheConfig};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::event::Event;
use crate::memory::DeviceMemory;
use crate::sharedmem::model_shared_instruction;
use crate::warp::{replay_warp, Alignment, GroupLane, ReplaySinks};

/// Predicted cache-state-independent traffic of one launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficPrediction {
    /// L1 tag lookups for global accesses (cache lines touched per
    /// warp instruction, summed).
    pub l1_tag_requests_global: u64,
    /// 32-byte sectors requested from L1.
    pub l1_sector_requests: u64,
    /// Shared-memory wavefronts issued (bank conflicts inflate this).
    pub shared_wavefronts: u64,
    /// Conflict-free lower bound on shared wavefronts.
    pub shared_wavefronts_ideal: u64,
    /// Warp-level global load instructions.
    pub global_load_instructions: u64,
    /// Warp-level global store instructions.
    pub global_store_instructions: u64,
    /// Warp-level shared-memory instructions.
    pub local_instructions: u64,
    /// Warp-level atomic instructions.
    pub atomic_instructions: u64,
    /// Serialized atomic passes (address collisions inflate this).
    pub atomic_passes: u64,
    /// Warps replayed symbolically to produce the prediction.
    pub warps_enumerated: u64,
}

impl TrafficPrediction {
    fn from_counters(c: &Counters, warps: u64) -> Self {
        Self {
            l1_tag_requests_global: c.l1_tag_requests_global,
            l1_sector_requests: c.l1_sector_requests,
            shared_wavefronts: c.shared_wavefronts,
            shared_wavefronts_ideal: c.shared_wavefronts_ideal,
            global_load_instructions: c.global_load_instructions,
            global_store_instructions: c.global_store_instructions,
            local_instructions: c.local_instructions,
            atomic_instructions: c.atomic_instructions,
            atomic_passes: c.atomic_passes,
            warps_enumerated: warps,
        }
    }

    /// The predicted fields as `(name, value)` rows, for reports and
    /// cross-validation against a dynamic [`Counters`].
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("l1_tag_requests_global", self.l1_tag_requests_global),
            ("l1_sector_requests", self.l1_sector_requests),
            ("shared_wavefronts", self.shared_wavefronts),
            ("shared_wavefronts_ideal", self.shared_wavefronts_ideal),
            ("global_load_instructions", self.global_load_instructions),
            ("global_store_instructions", self.global_store_instructions),
            ("local_instructions", self.local_instructions),
            ("atomic_instructions", self.atomic_instructions),
            ("atomic_passes", self.atomic_passes),
        ]
    }

    /// The same rows extracted from a dynamic counter block, aligned
    /// with [`Self::rows`].
    pub fn dynamic_rows(c: &Counters) -> Vec<(&'static str, u64)> {
        Self::from_counters(c, 0).rows()
    }
}

/// Per-phase coalescing/bank signature of one *representative block*:
/// every warp of the first probed `(group, block)` replayed once.  A
/// compact, launch-size-independent fingerprint of the phase's access
/// pattern (full-launch totals are [`predict_traffic`]'s job).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRep {
    /// Barrier phase index.
    pub phase: usize,
    /// Warps replayed (the representative block's warp count).
    pub warps: u64,
    /// L1 tag lookups of the representative block's warps.
    pub l1_tag_requests_global: u64,
    /// 32-byte sector requests of the representative block's warps.
    pub l1_sector_requests: u64,
    /// Shared-memory wavefronts (bank conflicts inflate this).
    pub shared_wavefronts: u64,
    /// Conflict-free lower bound on shared wavefronts.
    pub shared_wavefronts_ideal: u64,
    /// Serialized atomic passes.
    pub atomic_passes: u64,
}

/// Replay one representative block per uniform phase; phases whose
/// streams cannot be reconstructed (irregular, unresolvable slot, or a
/// residue period that splits warps) are simply absent from the result.
pub(crate) fn rep_phase_metrics(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Vec<PhaseRep> {
    let (Some(&g), Some(&m)) = (model.probed_groups.first(), model.probed_blocks.first()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (p, pm) in model.phases.iter().enumerate() {
        let PhaseModel::Uniform(shapes) = pm else {
            continue;
        };
        let mut r = Replayer::new(device);
        let streams = PhaseStreams { model, mem, shapes };
        let Ok(warps) = streams.replay_block(&mut r, g, m, (g, m)) else {
            continue;
        };
        let c = &r.counters;
        out.push(PhaseRep {
            phase: p,
            warps,
            l1_tag_requests_global: c.l1_tag_requests_global,
            l1_sector_requests: c.l1_sector_requests,
            shared_wavefronts: c.shared_wavefronts,
            shared_wavefronts_ideal: c.shared_wavefronts_ideal,
            atomic_passes: c.atomic_passes,
        });
    }
    out
}

/// A 4-way cache of `capacity` bytes with the device's line geometry.
fn cache_config(device: &DeviceSpec, capacity: u64) -> CacheConfig {
    CacheConfig {
        capacity,
        line_bytes: device.line_bytes,
        sector_bytes: device.sector_bytes,
        ways: 4,
    }
}

/// Scratch replay state: the counters we harvest are cache-state
/// independent, so tiny throwaway caches suffice.
struct Replayer {
    l1: Cache,
    l2: Cache,
    counters: Counters,
    warp_size: u32,
    line_bytes: u32,
    sector_bytes: u32,
    banks: u32,
    bank_width: u32,
}

impl Replayer {
    fn new(device: &DeviceSpec) -> Self {
        Self::with_caches(
            device,
            Cache::new(cache_config(device, 16 * device.line_bytes as u64)),
            Cache::new(cache_config(device, 64 * device.line_bytes as u64)),
        )
    }

    fn with_caches(device: &DeviceSpec, l1: Cache, l2: Cache) -> Self {
        Self {
            l1,
            l2,
            counters: Counters::default(),
            warp_size: device.warp_size,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            banks: device.shared_banks,
            bank_width: device.bank_width,
        }
    }

    fn replay(&mut self, streams: &[Vec<Event>]) -> Result<(), String> {
        replay_warp(
            streams,
            &mut ReplaySinks {
                l1: &mut self.l1,
                l2: &mut self.l2,
                counters: &mut self.counters,
                line_bytes: self.line_bytes,
                sector_bytes: self.sector_bytes,
                banks: self.banks,
                bank_width: self.bank_width,
            },
        )
        .map_err(|e| format!("predicted streams fell out of lockstep: {e}"))
    }
}

/// Replay every phase of each probed `(group, block)` against
/// oversized *cold* caches and return the blocks' counters, summed, with
/// the number of blocks replayed.  With caches large enough that nothing
/// evicts, a block's `l1_sector_misses` is exactly its unique global
/// sector count (compulsory misses), and `l2_sector_requests -
/// l1_sector_misses` is the sector traffic of its atomics (which bypass
/// L1) — both pure functions of the address vectors, which is what the
/// cost model needs.  `Err` when any phase is irregular or has an
/// unresolvable slot, or the residue period splits warps.
pub(crate) fn probed_block_counters(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Result<(Counters, u64), String> {
    // A residue block is at most `max_group_size` lanes touching a few
    // KB each: 8 MB per level never evicts for any shipped kernel.  One
    // pair serves every block, reset (in constant time) in between:
    // building and filling fresh 8 MB caches per block costs more than
    // the block's replay.
    let no_evict = cache_config(device, 8 << 20);
    let mut r = Replayer::with_caches(device, Cache::new(no_evict), Cache::new(no_evict));
    let mut sum = Counters::default();
    let mut blocks = 0u64;
    for &g in &model.probed_groups {
        for &m in &model.probed_blocks {
            r.l1.reset();
            r.l2.reset();
            r.counters = Counters::default();
            for (p, pm) in model.phases.iter().enumerate() {
                let shapes = uniform_shapes(p, pm)?;
                PhaseStreams { model, mem, shapes }.replay_block(&mut r, g, m, (g, m))?;
            }
            sum.merge(&r.counters);
            blocks += 1;
        }
    }
    Ok((sum, blocks))
}

/// A phase's residue shapes, or why the phase has none.
fn uniform_shapes(p: usize, pm: &PhaseModel) -> Result<&[ResidueShape], String> {
    match pm {
        PhaseModel::Uniform(s) => Ok(s),
        PhaseModel::Irregular(why) => Err(format!("phase {p} has no uniform model: {why}")),
    }
}

/// One uniform phase of a launch model, with the memory its gathers
/// read: rebuilds lane event streams from the fitted forms.
struct PhaseStreams<'a> {
    model: &'a LaunchModel,
    mem: &'a DeviceMemory,
    shapes: &'a [ResidueShape],
}

impl PhaseStreams<'_> {
    /// Rebuild one lane's stream.  A residual slot takes the lane's own
    /// probe sample when `own_samples` is set and the lane was probed,
    /// and the representative probed `(rep_g, rep_m)` sample otherwise.
    fn lane(
        &self,
        group: u64,
        local_id: u32,
        rep: (u64, u64),
        own_samples: bool,
    ) -> Result<Vec<Event>, String> {
        let model = self.model;
        let (q, m) = model.residue_of(local_id);
        let shape = &self.shapes[q as usize];
        let mut out = Vec::with_capacity(shape.events.len());
        for (idx, ev) in shape.events.iter().enumerate() {
            let rebuilt = if let Some(slot) = shape.slot_at(idx) {
                let resolve = |(g, m)| model.resolve_addr(self.mem, shape, slot, g, m);
                let addr = match slot.form {
                    AddrForm::Residual if own_samples => {
                        resolve((group, m)).or_else(|| resolve(rep))
                    }
                    AddrForm::Residual => resolve(rep),
                    _ => resolve((group, m)),
                }
                .ok_or_else(|| {
                    format!(
                        "phase slot at event {idx} (residue {q}) has no resolvable \
                         address for lane (g{group},l{local_id})"
                    )
                })?;
                rebuild_event(ev, addr)?
            } else {
                *ev
            };
            out.push(rebuilt);
        }
        Ok(out)
    }

    /// The streams of one warp: residues `qs` of block `block` in
    /// `group`.
    fn warp(
        &self,
        group: u64,
        block: u64,
        qs: std::ops::Range<u32>,
        rep: (u64, u64),
        own_samples: bool,
    ) -> Result<Vec<Vec<Event>>, String> {
        qs.map(|q| {
            let lid = block as u32 * self.model.q_len + q;
            self.lane(group, lid, rep, own_samples)
        })
        .collect()
    }

    /// Replay every warp of one `(group, block)` into `r`, as the engine
    /// replays them; returns the number of warps.
    fn replay_block(
        &self,
        r: &mut Replayer,
        group: u64,
        block: u64,
        rep: (u64, u64),
    ) -> Result<u64, String> {
        let mut warps = 0;
        for qs in self.model.block_warps(r.warp_size)? {
            r.replay(&self.warp(group, block, qs, rep, true)?)?;
            warps += 1;
        }
        Ok(warps)
    }

    /// Verify that substituting the representative probed warp for
    /// residual slots preserves every predicted counter: for each
    /// *probed* `(g, m)` and each warp of that block, the lanes' own
    /// sample addresses and the rep-substituted addresses must replay to
    /// identical counts.
    fn verify_residual_substitution(
        &self,
        device: &DeviceSpec,
        rep: (u64, u64),
    ) -> Result<(), String> {
        let model = self.model;
        for &g in &model.probed_groups {
            for &m in &model.probed_blocks {
                for (wb, qs) in model.block_warps(device.warp_size)?.enumerate() {
                    let mut actual = Replayer::new(device);
                    let mut subst = Replayer::new(device);
                    // Every probed (g, m) has its own sample for each
                    // residual slot.
                    actual.replay(&self.warp(g, m, qs.clone(), (g, m), true)?)?;
                    subst.replay(&self.warp(g, m, qs, rep, false)?)?;
                    let a = TrafficPrediction::from_counters(&actual.counters, 1);
                    let b = TrafficPrediction::from_counters(&subst.counters, 1);
                    if a != b {
                        return Err(format!(
                            "residual footprint is not warp-uniform: probed warp \
                             (g{g},m{m},w{wb}) replays {a:?} with its own samples \
                             but {b:?} with the representative's"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn rebuild_event(ev: &Event, addr: u64) -> Result<Event, String> {
    Ok(match *ev {
        Event::GlobalLoad { bytes, .. } => Event::GlobalLoad { addr, bytes },
        Event::GlobalStore { bytes, .. } => Event::GlobalStore { addr, bytes },
        Event::AtomicRmw { bytes, .. } => Event::AtomicRmw { addr, bytes },
        Event::LocalLoad { bytes, .. } => Event::LocalLoad {
            offset: u32::try_from(addr).map_err(|_| "local offset overflow".to_string())?,
            bytes,
        },
        Event::LocalStore { bytes, .. } => Event::LocalStore {
            offset: u32::try_from(addr).map_err(|_| "local offset overflow".to_string())?,
            bytes,
        },
        _ => unreachable!("slot on a non-memory event"),
    })
}

/// Whether any residue of a phase carries a residual (non-closed-form)
/// slot, requiring representative substitution.
fn phase_has_residual(shapes: &[ResidueShape]) -> bool {
    shapes.iter().any(|s| {
        s.slots
            .iter()
            .any(|slot| matches!(slot.form, AddrForm::Residual))
    })
}

/// One concrete bank-conflict witness: two lanes of one warp-level
/// local instruction whose *distinct* words map to the same bank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankWitness {
    /// Barrier phase.
    pub phase: usize,
    /// Warp pattern within the residue block.
    pub warp: u32,
    /// Leader lane's event index in its residue stream.
    pub event_idx: usize,
    /// 4-byte phase of the instruction where the collision occurs.
    pub access_phase: u32,
    /// The contested bank.
    pub bank: u32,
    /// First colliding lane (local id at block 0, group 0).
    pub lane_a: u32,
    /// Its word index in the contested bank.
    pub word_a: u64,
    /// Second colliding lane.
    pub lane_b: u32,
    /// Its (distinct) word index in the same bank.
    pub word_b: u64,
    /// This instruction's modelled wavefronts.
    pub wavefronts: u64,
    /// Its conflict-free lower bound.
    pub ideal: u64,
    /// Times the pattern repeats across the launch
    /// (`blocks_per_group x num_groups`).
    pub occurrences: u64,
}

/// A whole-launch symbolic bank-conflict count: every warp-level local
/// instruction's conflict structure proven `(group, block)`-invariant
/// via the affine-mod-bank normal form, evaluated once, and multiplied
/// by its repeat count.  When the proof exists its totals equal
/// [`predict_traffic`]'s dynamic-replay counts *exactly* — no
/// enumeration, no dynamic fallback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankConflictProof {
    /// Distinct `(phase, warp pattern, instruction)` triples proven.
    pub patterns_proven: u64,
    /// Whole-launch warp-level local instructions covered.
    pub local_instructions: u64,
    /// Whole-launch shared-memory wavefronts, symbolically derived.
    pub shared_wavefronts: u64,
    /// Whole-launch conflict-free lower bound.
    pub shared_wavefronts_ideal: u64,
    /// One concrete witness per conflicted pattern (capped).
    pub witnesses: Vec<BankWitness>,
}

impl BankConflictProof {
    /// Excess wavefronts over the conflict-free lower bound
    /// (Table I row 12).
    pub fn excessive(&self) -> u64 {
        self.shared_wavefronts - self.shared_wavefronts_ideal
    }

    /// Whether every local instruction was proven conflict-free.
    pub fn is_conflict_free(&self) -> bool {
        self.excessive() == 0
    }
}

/// Witnesses kept in a proof (one per conflicted pattern, capped).
const MAX_WITNESSES: usize = 8;

/// Prove the launch's bank-conflict counts symbolically.
///
/// For each `(phase, warp pattern)` the residues' predicted streams are
/// aligned through the *same* segmentation/lockstep rules as
/// [`replay_warp`], every participating local slot is canonicalized
/// into the [affine-mod-bank normal form](bank_normal_form), and the
/// warp-uniformity of the word rotations is checked — the side
/// condition under which one evaluation of the bank model at
/// `(g, m) = (0, 0)` covers every repetition of the pattern across the
/// ND-range.  Addresses never need the live memory image: local slots
/// are closed-form by construction or the proof refuses.
///
/// `Err` carries the reason no proof exists (irregular phase, a
/// residue period that splits warps, a non-affine local slot, or word
/// rotations that differ across the warp).
pub fn prove_bank_conflicts(
    model: &LaunchModel,
    device: &DeviceSpec,
) -> Result<BankConflictProof, String> {
    let occurrences = model.num_groups * model.blocks_per_group;
    let mut proof = BankConflictProof::default();
    for (p, pm) in model.phases.iter().enumerate() {
        let shapes = uniform_shapes(p, pm)?;
        for (wb, qs) in model.block_warps(device.warp_size)?.enumerate() {
            let wb = wb as u32;
            let residues: Vec<u32> = qs.collect();
            let instrs = aligned_local_instructions(shapes, &residues)
                .map_err(|e| format!("phase {p} warp {wb}: {e}"))?;
            for (event_idx, members) in instrs {
                let mut accs: Vec<(u32, u8)> = Vec::with_capacity(members.len());
                let mut lane_ids: Vec<u32> = Vec::with_capacity(members.len());
                let mut rotation: Option<(i128, i128)> = None;
                for &(q, idx) in &members {
                    let slot = shapes[q as usize]
                        .slot_at(idx)
                        .ok_or_else(|| format!("phase {p}: no slot at event {idx}"))?;
                    let nf = bank_normal_form(slot, device.shared_banks, device.bank_width)
                        .ok_or_else(|| {
                            format!(
                                "phase {p} warp {wb} event {idx} (residue {q}): local slot \
                                 has no affine-mod-bank normal form ({})",
                                form_signature(&slot.form)
                            )
                        })?;
                    let deltas = (nf.words_per_group, nf.words_per_block);
                    match rotation {
                        None => rotation = Some(deltas),
                        Some(r) if r == deltas => {}
                        Some(r) => {
                            return Err(format!(
                                "phase {p} warp {wb} event {idx}: word deltas differ across \
                                 lanes ({r:?} vs {deltas:?}) — conflict pattern is not \
                                 (group, block)-invariant"
                            ))
                        }
                    }
                    let off = u32::try_from(nf.word0 * device.bank_width as i128)
                        .map_err(|_| format!("phase {p} event {idx}: offset overflow"))?;
                    accs.push((off, slot.bytes));
                    lane_ids.push(q);
                }
                let r = model_shared_instruction(&accs, device.shared_banks, device.bank_width);
                proof.patterns_proven += 1;
                proof.local_instructions += occurrences;
                proof.shared_wavefronts += r.wavefronts * occurrences;
                proof.shared_wavefronts_ideal += r.ideal_wavefronts * occurrences;
                if r.excessive() > 0 && proof.witnesses.len() < MAX_WITNESSES {
                    if let Some((ap, bank, (la, wa), (lb, wib))) =
                        conflict_witness(&accs, &lane_ids, device)
                    {
                        proof.witnesses.push(BankWitness {
                            phase: p,
                            warp: wb,
                            event_idx,
                            access_phase: ap,
                            bank,
                            lane_a: la,
                            word_a: wa,
                            lane_b: lb,
                            word_b: wib,
                            wavefronts: r.wavefronts,
                            ideal: r.ideal_wavefronts,
                            occurrences,
                        });
                    }
                }
            }
        }
    }
    Ok(proof)
}

/// One warp-level local instruction after alignment: the leader event
/// index paired with every participating `(residue, event index)`.
type AlignedInstruction = (usize, Vec<(u32, usize)>);

/// Align one warp pattern's residue streams by the replayer's own walk
/// ([`Alignment`]: segment at `set_path`, serialize path groups,
/// lockstep with early-return lanes dropping out) and return every
/// warp-level local instruction as `(leader event index, [(residue,
/// event index)])`.
fn aligned_local_instructions(
    shapes: &[ResidueShape],
    residues: &[u32],
) -> Result<Vec<AlignedInstruction>, String> {
    let streams: Vec<&[Event]> = residues
        .iter()
        .map(|&q| shapes[q as usize].events.as_slice())
        .collect();
    let is_local = |m: &GroupLane, step: usize| {
        matches!(
            streams[m.lane][m.start + step],
            Event::LocalLoad { .. } | Event::LocalStore { .. }
        )
    };
    let mut out = Vec::new();
    Alignment::default().for_each_instruction(&streams, |_, step, active| {
        if !is_local(&active[0], step) {
            return Ok(());
        }
        let mut members = Vec::with_capacity(active.len());
        for m in active {
            let idx = m.start + step;
            if !is_local(m, step) {
                return Err(format!(
                    "residue {} fell out of lockstep at event {idx}",
                    residues[m.lane]
                ));
            }
            members.push((residues[m.lane], idx));
        }
        out.push((active[0].start + step, members));
        Ok(())
    })?;
    Ok(out)
}

/// Find two lanes of one instruction whose distinct words share a bank:
/// `(access phase, bank, (lane, word), (lane, word))`.
#[allow(clippy::type_complexity)]
fn conflict_witness(
    accs: &[(u32, u8)],
    lanes: &[u32],
    device: &DeviceSpec,
) -> Option<(u32, u32, (u32, u64), (u32, u64))> {
    let width = device.bank_width;
    let max_bytes = accs.iter().map(|&(_, b)| b as u32).max()?;
    for phase in 0..max_bytes.div_ceil(width) {
        let mut per_bank: Vec<Vec<(u64, u32)>> = vec![Vec::new(); device.shared_banks as usize];
        for (&(off, bytes), &lane) in accs.iter().zip(lanes) {
            let byte = phase * width;
            if byte >= bytes as u32 {
                continue;
            }
            let word = ((off + byte) / width) as u64;
            let bank = (word % device.shared_banks as u64) as usize;
            if let Some(&(w0, l0)) = per_bank[bank].first() {
                if w0 != word {
                    return Some((phase, bank as u32, (l0, w0), (lane, word)));
                }
            }
            if !per_bank[bank].iter().any(|&(w, _)| w == word) {
                per_bank[bank].push((word, lane));
            }
        }
    }
    None
}

/// Predict the launch's traffic from the fitted model.  `Err` carries a
/// human-readable reason when no sound prediction exists (irregular
/// phase, a residue period that splits warps, unresolvable slot, or a
/// residual footprint whose warp pattern is not uniform).
pub fn predict_traffic(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Result<TrafficPrediction, String> {
    let rep = (
        *model.probed_groups.first().ok_or("no probed groups")?,
        *model.probed_blocks.first().ok_or("no probed blocks")?,
    );
    let mut r = Replayer::new(device);
    let mut warps = 0u64;
    for (p, pm) in model.phases.iter().enumerate() {
        let streams = PhaseStreams {
            model,
            mem,
            shapes: uniform_shapes(p, pm)?,
        };
        if phase_has_residual(streams.shapes) {
            streams.verify_residual_substitution(device, rep)?;
        }
        for g in 0..model.num_groups {
            for m in 0..model.blocks_per_group {
                warps += streams.replay_block(&mut r, g, m, rep)?;
            }
        }
    }
    Ok(TrafficPrediction::from_counters(&r.counters, warps))
}
