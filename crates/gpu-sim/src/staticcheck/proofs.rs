//! Whole-launch proofs over the fitted footprint model: race-freedom,
//! out-of-bounds, and uninitialized-read checks *without executing the
//! launch*.
//!
//! The proofs enumerate instruction *instances* — one `(group, block)`
//! instantiation of a fitted slot — only where interval bounds say a
//! conflict is possible: affine extents are exact (their corners are
//! instances), gather extents are bounded by scanning every value the
//! source index table holds, and anything residual is checked on its
//! probe samples and reported as a soundness note.
//!
//! Ordering model (matches the dynamic sanitizer's):
//! * same lane → program order, never a race;
//! * same group, different phases → ordered by the barrier;
//! * same group, same phase, different lanes → concurrent;
//! * different groups → concurrent across *all* phases;
//! * two atomics never race with each other.

use super::footprint::{AddrForm, LaunchModel, MemSlot, PhaseModel, ResidueShape, SlotKind};
use super::StaticCheckConfig;
use crate::memory::{DeviceMemory, BASE_ADDR};
use crate::sanitizer::{Finding, FindingKind};
use std::collections::{HashMap, HashSet};

/// Hard cap on enumerated write instances — the proof degrades to a
/// note instead of stalling the autotuner on a pathological candidate.
const MAX_INSTANCES: u64 = 1 << 24;

pub(crate) struct ProofSink {
    pub findings: Vec<Finding>,
    /// Distinct notes in first-seen order.
    pub notes: Vec<String>,
    /// The same notes as a set, for O(1) dedup.
    seen_notes: HashSet<String>,
    max_findings: usize,
}

impl ProofSink {
    pub fn new(max_findings: usize) -> Self {
        Self {
            findings: Vec::new(),
            notes: Vec::new(),
            seen_notes: HashSet::new(),
            max_findings,
        }
    }

    /// Merge a finding by kind (mirrors the dynamic sanitizer's dedup).
    pub fn record(&mut self, kind: FindingKind, detail: impl FnOnce() -> String) {
        if let Some(f) = self.findings.iter_mut().find(|f| f.kind == kind) {
            f.occurrences += 1;
            return;
        }
        if self.findings.len() < self.max_findings {
            self.findings.push(Finding {
                kind,
                detail: detail(),
                occurrences: 1,
            });
        }
    }

    pub fn note(&mut self, n: String) {
        if !self.seen_notes.contains(&n) {
            self.seen_notes.insert(n.clone());
            self.notes.push(n);
        }
    }
}

/// Proof engine: owns the per-allocation value-bound memo so gather
/// extents are bounded by one table scan per allocation, not per slot.
pub(crate) struct Prover<'a> {
    model: &'a LaunchModel,
    mem: &'a DeviceMemory,
    /// allocation base → (min, max) over every 4-byte word in it.
    value_memo: HashMap<u64, (u32, u32)>,
}

impl<'a> Prover<'a> {
    pub fn new(model: &'a LaunchModel, mem: &'a DeviceMemory) -> Self {
        Self {
            model,
            mem,
            value_memo: HashMap::new(),
        }
    }

    /// Walk every `(group, block)` instance of a slot; the callback
    /// returns `false` to stop early.  Residual slots walk their probe
    /// samples only.
    fn for_each_instance(
        &self,
        shape: &ResidueShape,
        slot: &MemSlot,
        mut f: impl FnMut(u64, u64, u64) -> bool,
    ) {
        match slot.form {
            AddrForm::Affine {
                base,
                per_group,
                per_block,
            } => {
                for g in 0..self.model.num_groups {
                    let row = base + per_group * g as i128;
                    for m in 0..self.model.blocks_per_group {
                        let a = row + per_block * m as i128;
                        if let Ok(a) = u64::try_from(a) {
                            if !f(g, m, a) {
                                return;
                            }
                        }
                    }
                }
            }
            AddrForm::Gather { .. } => {
                for g in 0..self.model.num_groups {
                    for m in 0..self.model.blocks_per_group {
                        if let Some(a) = self.model.resolve_addr(self.mem, shape, slot, g, m) {
                            if !f(g, m, a) {
                                return;
                            }
                        }
                    }
                }
            }
            AddrForm::Residual => {
                for &(g, m, a) in &slot.samples {
                    if !f(g, m, a) {
                        return;
                    }
                }
            }
        }
    }

    /// `(min, max)` over every 4-byte word of the allocation holding
    /// `addr` — the conservative value range of any index table in it.
    fn alloc_value_bounds(&mut self, addr: u64) -> Option<(u32, u32)> {
        let (base, len, _) = self.mem.find_allocation(addr)?;
        if let Some(&b) = self.value_memo.get(&base) {
            return Some(b);
        }
        let mut vmin = u32::MAX;
        let mut vmax = 0u32;
        let mut a = base;
        while a + 4 <= base + len {
            let v = self.mem.read_u32(a);
            vmin = vmin.min(v);
            vmax = vmax.max(v);
            a += 4;
        }
        if vmin > vmax {
            return None;
        }
        self.value_memo.insert(base, (vmin, vmax));
        Some((vmin, vmax))
    }

    /// Byte extent `[lo, hi)` a slot can touch over the whole range.
    /// Affine extents are exact; gather extents are a conservative
    /// superset (every value the source table holds); residual slots
    /// return the span of their probe samples.
    fn slot_extent(&mut self, shape: &ResidueShape, slot: &MemSlot) -> Option<(u64, u64)> {
        match slot.form {
            AddrForm::Affine {
                base,
                per_group,
                per_block,
            } => {
                let g_hi = self.model.num_groups.saturating_sub(1) as i128;
                let m_hi = self.model.blocks_per_group.saturating_sub(1) as i128;
                let corners = [
                    base,
                    base + per_group * g_hi,
                    base + per_block * m_hi,
                    base + per_group * g_hi + per_block * m_hi,
                ];
                let lo = *corners.iter().min().unwrap();
                let hi = *corners.iter().max().unwrap() + slot.bytes as i128;
                Some((u64::try_from(lo).ok()?, u64::try_from(hi).ok()?))
            }
            AddrForm::Gather {
                base,
                scale,
                src_event,
            } => {
                let src = shape.slot_at(src_event)?;
                let (vmin, vmax) = self.alloc_value_bounds(src.samples.first()?.2)?;
                let (a, b) = (base + scale * vmin as i128, base + scale * vmax as i128);
                let lo = a.min(b);
                let hi = a.max(b) + slot.bytes as i128;
                Some((u64::try_from(lo).ok()?, u64::try_from(hi).ok()?))
            }
            AddrForm::Residual => {
                let lo = slot.samples.iter().map(|&(_, _, a)| a).min()?;
                let hi = slot.samples.iter().map(|&(_, _, a)| a).max()? + slot.bytes as u64;
                Some((lo, hi))
            }
        }
    }

    // -----------------------------------------------------------------
    // Out-of-bounds / misalignment
    // -----------------------------------------------------------------

    pub fn check_bounds(&mut self, sink: &mut ProofSink) {
        for (p, q, shape, slot) in each_slot(self.model) {
            if slot.kind.is_local() {
                let within = self
                    .slot_extent(shape, slot)
                    .map(|(lo, hi)| lo < hi && hi <= self.model.local_mem_bytes as u64)
                    .unwrap_or(false);
                if !within {
                    sink.record(FindingKind::LocalOutOfBounds, || {
                        format!(
                            "{}: extent exceeds the {}-byte local allocation",
                            slot_desc(p, q, slot),
                            self.model.local_mem_bytes
                        )
                    });
                }
                continue;
            }

            if matches!(slot.form, AddrForm::Residual) {
                sink.note(format!(
                    "{}: non-affine footprint — bounds checked on probe samples \
                     only (dynamic memcheck remains the backstop)",
                    slot_desc(p, q, slot)
                ));
            }

            // Fast path: the whole extent fits inside one allocation.
            let bytes = slot.bytes as u64;
            let extent_ok = self
                .slot_extent(shape, slot)
                .and_then(|(lo, hi)| {
                    let (abase, alen, _) = self.mem.find_allocation(lo)?;
                    Some(hi <= abase + alen)
                })
                .unwrap_or(false);
            if !extent_ok {
                // The extent is conservative for gathers: confirm on a
                // concrete instance before reporting.
                let mut witness: Option<u64> = None;
                self.for_each_instance(shape, slot, |_, _, a| {
                    let inside = self
                        .mem
                        .find_allocation(a)
                        .map(|(abase, alen, _)| a + bytes <= abase + alen)
                        .unwrap_or(false);
                    if inside {
                        true
                    } else {
                        witness = Some(a);
                        false
                    }
                });
                if let Some(a) = witness {
                    let label = self.mem.find_allocation(a).map(|(_, _, l)| l.to_string());
                    sink.record(
                        FindingKind::GlobalOutOfBounds {
                            label: label.clone(),
                        },
                        || {
                            format!(
                                "{}: instance address {a:#x} not contained in {} \
                                 (whole-range extent proof failed)",
                                slot_desc(p, q, slot),
                                label.as_deref().unwrap_or("any allocation"),
                            )
                        },
                    );
                }
            }

            // Alignment: proven algebraically where possible, otherwise
            // spot-checked on the probe samples.
            let align = if slot.bytes == 4 { 4i128 } else { 8i128 };
            let proven = match slot.form {
                AddrForm::Affine {
                    base,
                    per_group,
                    per_block,
                } => base % align == 0 && per_group % align == 0 && per_block % align == 0,
                AddrForm::Gather { base, scale, .. } => base % align == 0 && scale % align == 0,
                AddrForm::Residual => false,
            };
            if !proven {
                if let Some(&(_, _, a)) = slot
                    .samples
                    .iter()
                    .find(|&&(_, _, a)| a % align as u64 != 0)
                {
                    let label = slot.label.clone().unwrap_or_else(|| "?".to_string());
                    sink.record(FindingKind::GlobalMisaligned { label }, || {
                        format!(
                            "{}: probe address {a:#x} not {align}-byte aligned",
                            slot_desc(p, q, slot)
                        )
                    });
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Races
    // -----------------------------------------------------------------

    pub fn check_races(&mut self, cfg: &StaticCheckConfig, sink: &mut ProofSink) {
        self.check_global_races(cfg, sink);
        self.check_local_races(sink);
    }

    fn check_global_races(&mut self, cfg: &StaticCheckConfig, sink: &mut ProofSink) {
        let mut labels: Vec<String> = Vec::new();

        // 1. Enumerate every non-exempt global write instance.
        let mut writes: Vec<WriteInst> = Vec::new();
        let lane_count = self.model.num_groups * self.model.blocks_per_group;
        for (p, q, shape, slot) in each_slot(self.model) {
            if slot.kind.is_local() || !slot.kind.is_write() {
                continue;
            }
            let exempt = slot
                .label
                .as_deref()
                .map(|l| cfg.thread_local_labels.iter().any(|t| t == l))
                .unwrap_or(false);
            if exempt {
                continue;
            }
            if matches!(slot.form, AddrForm::Residual) {
                sink.note(format!(
                    "{}: race proof incomplete — non-affine write footprint \
                     (use the dynamic racecheck for this slot)",
                    slot_desc(p, q, slot)
                ));
                continue;
            }
            if writes.len() as u64 + lane_count > MAX_INSTANCES {
                sink.note(
                    "race proof incomplete: write-instance enumeration exceeded the cap"
                        .to_string(),
                );
                break;
            }
            let lbl = intern_label(&mut labels, &slot.label);
            let atomic = slot.kind == SlotKind::GlobalAtomic;
            let bytes = slot.bytes as u64;
            let q_len = self.model.q_len;
            self.for_each_instance(shape, slot, |g, m, a| {
                writes.push(WriteInst {
                    start: a,
                    end: a + bytes,
                    group: g,
                    lid: m as u32 * q_len + q,
                    phase: p as u16,
                    atomic,
                    label: lbl,
                });
                true
            });
        }
        writes.sort_unstable_by_key(|w| w.start);

        // 2. Write-write sweep over the sorted intervals.
        let mut active: Vec<WriteInst> = Vec::new();
        for w in &writes {
            active.retain(|x| x.end > w.start);
            for x in &active {
                if ordered(w.group, w.lid, w.phase, x) || (w.atomic && x.atomic) {
                    continue;
                }
                sink.record(
                    FindingKind::GlobalRace {
                        label: labels[w.label as usize].clone(),
                    },
                    || {
                        format!(
                            "write-write overlap at {:#x} ({}): lane (g{},l{}) phase {} \
                             vs lane (g{},l{}) phase {}",
                            w.start,
                            labels[w.label as usize],
                            w.group,
                            w.lid,
                            w.phase,
                            x.group,
                            x.lid,
                            x.phase
                        )
                    },
                );
            }
            if active.len() < 4096 {
                active.push(*w);
            }
        }

        // 3. Reads against the write set — only for read slots whose
        //    extent can overlap a written region at all.
        if writes.is_empty() {
            return;
        }
        let w_lo = writes.first().unwrap().start;
        let w_hi = writes.iter().map(|w| w.end).max().unwrap();
        for (p, q, shape, slot) in each_slot(self.model) {
            if slot.kind.is_local() || slot.kind.is_write() {
                continue;
            }
            let overlaps = self
                .slot_extent(shape, slot)
                .map(|(lo, hi)| lo < w_hi && w_lo < hi)
                .unwrap_or(true);
            if !overlaps {
                continue;
            }
            let bytes = slot.bytes as u64;
            let q_len = self.model.q_len;
            self.for_each_instance(shape, slot, |g, m, a| {
                let lid = m as u32 * q_len + q;
                let (start, end) = (a, a + bytes);
                // A write overlapping [start, end) has w.start in
                // (start - 16, end): the widest access is 16 bytes.
                let from = writes.partition_point(|w| w.start + 16 <= start);
                for w in &writes[from..] {
                    if w.start >= end {
                        break;
                    }
                    if w.end <= start || ordered(g, lid, p as u16, w) {
                        continue;
                    }
                    sink.record(
                        FindingKind::GlobalRace {
                            label: labels[w.label as usize].clone(),
                        },
                        || {
                            format!(
                                "read-write overlap at {a:#x} ({}): read by lane \
                                 (g{g},l{lid}) phase {p} vs write by lane \
                                 (g{},l{}) phase {}",
                                labels[w.label as usize], w.group, w.lid, w.phase
                            )
                        },
                    );
                }
                true
            });
        }
    }

    fn check_local_races(&mut self, sink: &mut ProofSink) {
        // Local memory is per-group and barrier-ordered across phases,
        // so only same-phase, cross-lane overlaps can race.  Offsets
        // must not depend on the group id — a fitted per-group
        // coefficient means the probes saw group-dependent indexing;
        // note it and fall back to group 0.
        for (p, pm) in self.model.phases.iter().enumerate() {
            let PhaseModel::Uniform(shapes) = pm else {
                continue;
            };
            // (start, end, lid, is_write)
            let mut insts: Vec<(u64, u64, u32, bool)> = Vec::new();
            for (q, shape) in shapes.iter().enumerate() {
                for slot in shape.slots.iter().filter(|s| s.kind.is_local()) {
                    match slot.form {
                        AddrForm::Affine { per_group, .. } if per_group != 0 => {
                            sink.note(format!(
                                "{}: local offset depends on the group id — \
                                 race proof uses group 0 only",
                                slot_desc(p, q as u32, slot)
                            ));
                        }
                        AddrForm::Residual => {
                            sink.note(format!(
                                "{}: non-affine local footprint — race proof \
                                 checks probe samples only",
                                slot_desc(p, q as u32, slot)
                            ));
                        }
                        _ => {}
                    }
                    let bytes = slot.bytes as u64;
                    let is_write = slot.kind.is_write();
                    for m in 0..self.model.blocks_per_group {
                        if let Some(a) = self.model.resolve_addr(self.mem, shape, slot, 0, m) {
                            let lid = m as u32 * self.model.q_len + q as u32;
                            insts.push((a, a + bytes, lid, is_write));
                        }
                    }
                }
            }
            insts.sort_unstable_by_key(|&(s, _, _, _)| s);
            let mut active: Vec<(u64, u64, u32, bool)> = Vec::new();
            for &(s, e, lid, w) in &insts {
                active.retain(|&(_, xe, _, _)| xe > s);
                for &(_, _, xlid, xw) in &active {
                    if xlid != lid && (w || xw) {
                        sink.record(FindingKind::LocalRace, || {
                            format!(
                                "phase {p}: local bytes [{s:#x}, {e:#x}) touched \
                                 by lanes l{lid} and l{xlid} with no barrier \
                                 between them (at least one writes)"
                            )
                        });
                    }
                }
                if active.len() < 4096 {
                    active.push((s, e, lid, w));
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Uninitialized reads
    // -----------------------------------------------------------------

    pub fn check_uninit(&mut self, sink: &mut ProofSink) {
        // ---- global ----
        let mut covered = Bitmap::from_words(self.mem.init_snapshot());
        let fully_init: Vec<(u64, u64)> = self
            .mem
            .allocations()
            .filter(|&(base, len, _)| {
                let (lo, hi) = granules(base, len);
                covered.range_set(lo, hi)
            })
            .map(|(base, len, _)| (base, len))
            .collect();
        let in_fully_init =
            |lo: u64, hi: u64| fully_init.iter().any(|&(b, l)| lo >= b && hi <= b + l);

        for (phase, pm) in self.model.phases.iter().enumerate() {
            let PhaseModel::Uniform(shapes) = pm else {
                continue;
            };
            // Reads of this phase (loads and the read half of atomics)
            // against everything initialized before the phase began.
            for (q, shape) in shapes.iter().enumerate() {
                for slot in shape
                    .slots
                    .iter()
                    .filter(|s| matches!(s.kind, SlotKind::GlobalLoad | SlotKind::GlobalAtomic))
                {
                    if let Some((lo, hi)) = self.slot_extent(shape, slot) {
                        if in_fully_init(lo, hi) {
                            continue;
                        }
                    }
                    if same_lane_covered(shape, slot) {
                        continue;
                    }
                    if matches!(slot.form, AddrForm::Residual) {
                        sink.note(format!(
                            "{}: non-affine read outside proven-initialized data \
                             — checked on probe samples only",
                            slot_desc(phase, q as u32, slot)
                        ));
                    }
                    let bytes = slot.bytes as u64;
                    self.for_each_instance(shape, slot, |_, _, a| {
                        if a >= BASE_ADDR {
                            let (lo, hi) = granules(a, bytes);
                            if !covered.range_set(lo, hi) {
                                let label = slot.label.clone().unwrap_or_else(|| "?".to_string());
                                sink.record(FindingKind::GlobalUninitRead { label }, || {
                                    format!(
                                        "{}: reads {a:#x} before any phase writes it",
                                        slot_desc(phase, q as u32, slot)
                                    )
                                });
                            }
                        }
                        true
                    });
                }
            }
            // Then fold this phase's writes in for the next phase.
            for shape in shapes {
                for slot in shape
                    .slots
                    .iter()
                    .filter(|s| !s.kind.is_local() && s.kind.is_write())
                {
                    if let Some((lo, hi)) = self.slot_extent(shape, slot) {
                        if in_fully_init(lo, hi) {
                            continue;
                        }
                    }
                    let bytes = slot.bytes as u64;
                    let mut touched: Vec<(usize, usize)> = Vec::new();
                    self.for_each_instance(shape, slot, |_, _, a| {
                        if a >= BASE_ADDR {
                            touched.push(granules(a, bytes));
                        }
                        true
                    });
                    for (lo, hi) in touched {
                        covered.set_range(lo, hi);
                    }
                }
            }
        }

        // ---- local ----
        // Local memory starts undefined (the simulator zero-fills, but
        // relying on those zeroes is exactly the accident the initcheck
        // exists to catch).
        let mut local_cov = Bitmap::new((self.model.local_mem_bytes as usize).div_ceil(4));
        for (phase, pm) in self.model.phases.iter().enumerate() {
            let PhaseModel::Uniform(shapes) = pm else {
                continue;
            };
            for (q, shape) in shapes.iter().enumerate() {
                for slot in shape.slots.iter().filter(|s| s.kind == SlotKind::LocalLoad) {
                    if same_lane_covered(shape, slot) {
                        continue;
                    }
                    let bytes = slot.bytes as u64;
                    for m in 0..self.model.blocks_per_group {
                        let Some(a) = self.model.resolve_addr(self.mem, shape, slot, 0, m) else {
                            continue;
                        };
                        if a + bytes > self.model.local_mem_bytes as u64 {
                            continue; // the bounds checker reports this
                        }
                        let (lo, hi) = ((a / 4) as usize, ((a + bytes - 1) / 4 + 1) as usize);
                        if !local_cov.range_set(lo, hi) {
                            sink.record(FindingKind::LocalUninitRead, || {
                                format!(
                                    "{}: reads local offset {a:#x} that no \
                                     earlier phase wrote",
                                    slot_desc(phase, q as u32, slot)
                                )
                            });
                        }
                    }
                }
            }
            for shape in shapes {
                for slot in shape
                    .slots
                    .iter()
                    .filter(|s| s.kind == SlotKind::LocalStore)
                {
                    let bytes = slot.bytes as u64;
                    for m in 0..self.model.blocks_per_group {
                        if let Some(a) = self.model.resolve_addr(self.mem, shape, slot, 0, m) {
                            if a + bytes <= self.model.local_mem_bytes as u64 {
                                let (lo, hi) =
                                    ((a / 4) as usize, ((a + bytes - 1) / 4 + 1) as usize);
                                local_cov.set_range(lo, hi);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
struct WriteInst {
    start: u64,
    end: u64,
    group: u64,
    lid: u32,
    phase: u16,
    atomic: bool,
    label: u16,
}

fn ordered(a_group: u64, a_lid: u32, a_phase: u16, b: &WriteInst) -> bool {
    // Same lane: program order.  Same group, different phase: barrier.
    a_group == b.group && (a_lid == b.lid || a_phase != b.phase)
}

fn intern_label(labels: &mut Vec<String>, l: &Option<String>) -> u16 {
    let name = l.as_deref().unwrap_or("?");
    if let Some(i) = labels.iter().position(|x| x == name) {
        i as u16
    } else {
        labels.push(name.to_string());
        (labels.len() - 1) as u16
    }
}

/// Iterate `(phase, residue, shape, slot)` over every uniform phase.
fn each_slot(model: &LaunchModel) -> impl Iterator<Item = (usize, u32, &ResidueShape, &MemSlot)> {
    model.phases.iter().enumerate().flat_map(|(p, pm)| {
        let shapes: &[ResidueShape] = match pm {
            PhaseModel::Uniform(s) => s,
            PhaseModel::Irregular(_) => &[],
        };
        shapes.iter().enumerate().flat_map(move |(q, shape)| {
            shape
                .slots
                .iter()
                .map(move |slot| (p, q as u32, shape, slot))
        })
    })
}

fn slot_desc(phase: usize, q: u32, slot: &MemSlot) -> String {
    format!(
        "phase {phase} residue {q} {}{}[{}B]",
        slot.kind.mnemonic(),
        slot.label
            .as_deref()
            .map(|l| format!(" {l}"))
            .unwrap_or_default(),
        slot.bytes
    )
}

struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }
    fn from_words(words: Vec<u64>) -> Self {
        Self { words }
    }
    fn set(&mut self, bit: usize) {
        if bit / 64 >= self.words.len() {
            self.words.resize(bit / 64 + 1, 0);
        }
        self.words[bit / 64] |= 1 << (bit % 64);
    }
    fn get(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .map(|w| w & (1 << (bit % 64)) != 0)
            .unwrap_or(false)
    }
    fn range_set(&self, lo_bit: usize, hi_bit: usize) -> bool {
        (lo_bit..hi_bit).all(|b| self.get(b))
    }
    fn set_range(&mut self, lo_bit: usize, hi_bit: usize) {
        for b in lo_bit..hi_bit {
            self.set(b);
        }
    }
}

fn granules(addr: u64, bytes: u64) -> (usize, usize) {
    let lo = ((addr - BASE_ADDR) / 4) as usize;
    let hi = ((addr + bytes - 1 - BASE_ADDR) / 4 + 1) as usize;
    (lo, hi)
}

/// Whether an earlier store of the *same lane* in the same phase covers
/// this read: identical footprint form, at least the read's width.
fn same_lane_covered(shape: &ResidueShape, read: &MemSlot) -> bool {
    let want = if read.kind.is_local() {
        SlotKind::LocalStore
    } else {
        SlotKind::GlobalStore
    };
    shape.slots.iter().any(|w| {
        w.event_idx < read.event_idx
            && w.kind == want
            && w.bytes >= read.bytes
            && match (&w.form, &read.form) {
                (AddrForm::Residual, AddrForm::Residual) => {
                    w.samples.len() == read.samples.len()
                        && w.samples.iter().zip(&read.samples).all(|(a, b)| a == b)
                }
                (wf, rf) => wf == rf,
            }
    })
}
