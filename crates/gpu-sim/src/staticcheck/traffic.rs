//! Whole-launch traffic prediction: coalescing and bank-conflict counts
//! derived from the fitted footprint model, *without executing* the
//! kernel's arithmetic.
//!
//! Every `(phase, group, warp)` of the ND-range gets its 32 lane event
//! streams reconstructed from the model (affine slots in closed form,
//! gathers by reading the live index tables, residual slots by
//! substituting a representative probed warp) and replayed through the
//! *same* warp replayer the dynamic engine uses — so the predicted
//! transaction counts agree with the dynamic counters by construction
//! wherever the model is exact.
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
/// streams cannot be reconstructed (irregular, unresolvable slot,
/// warp-misaligned residue period) are simply absent from the result.
pub(crate) fn rep_phase_metrics(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Vec<PhaseRep> {
    let warp = device.warp_size;
    if warp == 0 || !model.q_len.is_multiple_of(warp) {
        return Vec::new();
    }
    let (Some(&g), Some(&m)) = (model.probed_groups.first(), model.probed_blocks.first()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    'phase: for (p, pm) in model.phases.iter().enumerate() {
        let PhaseModel::Uniform(shapes) = pm else {
            continue;
        };
        let mut r = Replayer::new(device);
        let warps = (model.q_len / warp) as u64;
        for wb in 0..model.q_len / warp {
            let mut streams = Vec::with_capacity(warp as usize);
            for i in 0..warp {
                let lid = m as u32 * model.q_len + wb * warp + i;
                match lane_stream(model, mem, shapes, g, lid, (g, m)) {
                    Ok(s) => streams.push(s),
                    Err(_) => continue 'phase,
                }
            }
            if r.replay(&streams).is_err() {
                continue 'phase;
            }
        }
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
/// cost model needs.  `Err` when any phase is irregular,
/// warp-misaligned or has an unresolvable slot.
pub(crate) fn probed_block_counters(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Result<(Counters, u64), String> {
    let warp = device.warp_size;
    if warp == 0 || !model.q_len.is_multiple_of(warp) {
        return Err(format!(
            "residue period {} is not warp-aligned",
            model.q_len
        ));
    }
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
            replay_block(&mut r, model, mem, warp, g, m)?;
            sum.merge(&r.counters);
            blocks += 1;
        }
    }
    Ok((sum, blocks))
}

/// Replay every phase of one `(group, block)` into `r`.
fn replay_block(
    r: &mut Replayer,
    model: &LaunchModel,
    mem: &DeviceMemory,
    warp: u32,
    group: u64,
    block: u64,
) -> Result<(), String> {
    for (p, pm) in model.phases.iter().enumerate() {
        let shapes = match pm {
            PhaseModel::Uniform(s) => s,
            PhaseModel::Irregular(why) => {
                return Err(format!("phase {p} has no uniform model: {why}"))
            }
        };
        for wb in 0..model.q_len / warp {
            let mut streams = Vec::with_capacity(warp as usize);
            for i in 0..warp {
                let lid = block as u32 * model.q_len + wb * warp + i;
                streams.push(lane_stream(model, mem, shapes, group, lid, (group, block))?);
            }
            r.replay(&streams)?;
        }
    }
    Ok(())
}

/// Rebuild one lane's stream, substituting the representative probed
/// `(rep_g, rep_m)` sample for residual slots (the lane's own sample is
/// used when it was probed).
fn lane_stream(
    model: &LaunchModel,
    mem: &DeviceMemory,
    shapes: &[ResidueShape],
    group: u64,
    local_id: u32,
    rep: (u64, u64),
) -> Result<Vec<Event>, String> {
    let (q, m) = model.residue_of(local_id);
    let shape = &shapes[q as usize];
    let mut out = Vec::with_capacity(shape.events.len());
    for (idx, ev) in shape.events.iter().enumerate() {
        let rebuilt = if let Some(slot) = shape.slot_at(idx) {
            let addr = match slot.form {
                AddrForm::Residual => model
                    .resolve_addr(mem, shape, slot, group, m)
                    .or_else(|| model.resolve_addr(mem, shape, slot, rep.0, rep.1)),
                _ => model.resolve_addr(mem, shape, slot, group, m),
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

/// Verify that substituting the representative probed warp for residual
/// slots preserves every predicted counter: for each *probed* `(g, m)`
/// and each warp of that block, the actual sample addresses and the
/// rep-substituted addresses must replay to identical counts.
fn verify_residual_substitution(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
    shapes: &[ResidueShape],
    rep: (u64, u64),
) -> Result<(), String> {
    let warp = device.warp_size;
    for &g in &model.probed_groups {
        for &m in &model.probed_blocks {
            for wb in 0..model.q_len / warp {
                let mut actual = Replayer::new(device);
                let mut subst = Replayer::new(device);
                let mut actual_streams = Vec::with_capacity(warp as usize);
                let mut subst_streams = Vec::with_capacity(warp as usize);
                for i in 0..warp {
                    let lid = m as u32 * model.q_len + wb * warp + i;
                    // Actual: the lane's own probe samples (every probed
                    // (g, m) has one for each residual slot).
                    actual_streams.push(lane_stream(model, mem, shapes, g, lid, (g, m))?);
                    // Substituted: force the representative sample.
                    let (q, _) = model.residue_of(lid);
                    let shape = &shapes[q as usize];
                    let mut s = Vec::with_capacity(shape.events.len());
                    for (idx, ev) in shape.events.iter().enumerate() {
                        if let Some(slot) = shape.slot_at(idx) {
                            let addr = if matches!(slot.form, AddrForm::Residual) {
                                model.resolve_addr(mem, shape, slot, rep.0, rep.1)
                            } else {
                                model.resolve_addr(mem, shape, slot, g, m)
                            }
                            .ok_or_else(|| {
                                format!("unresolvable slot at event {idx}, residue {q}")
                            })?;
                            s.push(rebuild_event(ev, addr)?);
                        } else {
                            s.push(*ev);
                        }
                    }
                    subst_streams.push(s);
                }
                actual.replay(&actual_streams)?;
                subst.replay(&subst_streams)?;
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
/// `Err` carries the reason no proof exists (irregular phase,
/// warp-unaligned residue period, a non-affine local slot, or word
/// rotations that differ across the warp).
pub fn prove_bank_conflicts(
    model: &LaunchModel,
    device: &DeviceSpec,
) -> Result<BankConflictProof, String> {
    let warp = device.warp_size;
    if warp == 0 || !model.q_len.is_multiple_of(warp) {
        return Err(format!(
            "residue period {} is not warp-aligned",
            model.q_len
        ));
    }
    let occurrences = model.num_groups * model.blocks_per_group;
    let mut proof = BankConflictProof::default();
    for (p, pm) in model.phases.iter().enumerate() {
        let shapes = match pm {
            PhaseModel::Uniform(s) => s,
            PhaseModel::Irregular(why) => {
                return Err(format!("phase {p} has no uniform model: {why}"))
            }
        };
        for wb in 0..model.q_len / warp {
            let residues: Vec<u32> = (0..warp).map(|i| wb * warp + i).collect();
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
/// phase, warp-unaligned local size, unresolvable slot, or a residual
/// footprint whose warp pattern is not uniform).
pub fn predict_traffic(
    model: &LaunchModel,
    mem: &DeviceMemory,
    device: &DeviceSpec,
) -> Result<TrafficPrediction, String> {
    let warp = device.warp_size;
    if warp == 0 || !model.local_size.is_multiple_of(warp) {
        return Err(format!(
            "local size {} is not a multiple of the warp size {warp} — \
             warp composition would differ from the hardware's",
            model.local_size
        ));
    }
    if !model.q_len.is_multiple_of(warp) {
        return Err(format!(
            "residue period {} is not warp-aligned",
            model.q_len
        ));
    }
    let rep = (
        *model.probed_groups.first().ok_or("no probed groups")?,
        *model.probed_blocks.first().ok_or("no probed blocks")?,
    );

    let mut r = Replayer::new(device);
    let mut warps = 0u64;
    let warps_per_block = model.q_len / warp;
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(warp as usize);
    for (p, pm) in model.phases.iter().enumerate() {
        let shapes = match pm {
            PhaseModel::Uniform(s) => s,
            PhaseModel::Irregular(why) => {
                return Err(format!("phase {p} has no uniform model: {why}"))
            }
        };
        if phase_has_residual(shapes) {
            verify_residual_substitution(model, mem, device, shapes, rep)?;
        }
        for g in 0..model.num_groups {
            for m in 0..model.blocks_per_group {
                for wb in 0..warps_per_block {
                    streams.clear();
                    for i in 0..warp {
                        let lid = m as u32 * model.q_len + wb * warp + i;
                        streams.push(lane_stream(model, mem, shapes, g, lid, rep)?);
                    }
                    r.replay(&streams)?;
                    warps += 1;
                }
            }
        }
    }
    Ok(TrafficPrediction::from_counters(&r.counters, warps))
}
