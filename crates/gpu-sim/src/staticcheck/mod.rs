//! Static kernel access analyzer: affine footprint inference with
//! whole-launch race, coalescing, and bank-conflict proofs.
//!
//! Where the [sanitizer](crate::sanitizer) watches a launch *execute*,
//! this module proves properties of a launch **without executing it**:
//!
//! 1. **Probe** ([`probe`]) — each kernel phase runs on side-effect-free
//!    recording lanes over a few dozen `(group, block)` points per lane
//!    residue (a few thousand lane evaluations for launches of
//!    millions of items).
//! 2. **Fit** ([`footprint`]) — every memory instruction's address is
//!    fitted to an affine form `base + Δg·g + Δm·m`, a gather form
//!    `base + scale·v` through a captured index-table load, or demoted
//!    to *residual* (probe samples only, whole-range claims downgraded
//!    to notes).
//! 3. **Prove** ([`proofs`]) — the fitted model is checked over the
//!    *entire* ND-range: write footprints pairwise disjoint under the
//!    barrier-phase ordering (race freedom), extents inside the
//!    allocation table and declared local memory (bounds), and reads
//!    covered by host initialization or earlier-phase writes (uninit).
//! 4. **Predict** ([`traffic`]) — per-warp streams are reconstructed
//!    from the model and replayed through the *same* warp replayer the
//!    dynamic engine uses, yielding coalescing (tag/sector) and
//!    bank-conflict (wavefront) counts that match the dynamic counters
//!    wherever the model is exact.  Local-memory instructions also get
//!    a *symbolic* bank-conflict proof ([`prove_bank_conflicts`]): each
//!    slot is canonicalized into the affine-mod-bank normal form
//!    ([`bank_normal_form`]), warp-uniform word rotations make the
//!    conflict structure `(group, block)`-invariant, and one evaluation
//!    per warp pattern — multiplied by its repeat count — yields exact
//!    whole-launch wavefront totals with concrete conflict witnesses,
//!    padded and XOR-swizzled layouts included.
//!
//! Soundness limits (also surfaced as report notes): residual
//! footprints are only checked on their probe samples, and affine and
//! gather forms are fitted on those samples too, then assumed to hold
//! in every unprobed group; kernels whose
//! *control flow* depends on more than the lane residue are reported
//! as irregular and get no whole-range claims; gather extents are
//! conservative (every value the source table holds), so gather
//! out-of-bounds findings always carry a concretely-resolved witness.

pub mod costmodel;
pub mod footprint;
pub mod probe;
pub mod proofs;
pub mod traffic;

pub use costmodel::{
    estimate_launch, estimate_stream, rank_estimates, spearman, CostEstimate, Regime,
    RegimeCalibration, StreamEstimate,
};
pub use footprint::{
    bank_normal_form, AddrForm, BankForm, LaunchModel, MemSlot, PhaseModel, ResidueShape, SlotKind,
};
pub use traffic::{
    prove_bank_conflicts, BankConflictProof, BankWitness, PhaseRep, TrafficPrediction,
};

use crate::device::DeviceSpec;
use crate::kernel::Kernel;
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use crate::sanitizer::{lint_launch, Finding};
use footprint::FormShape;
use proofs::{ProofSink, Prover};
use std::fmt::Write as _;

/// Which proofs a static analysis runs.
#[derive(Clone, Debug)]
pub struct StaticCheckConfig {
    /// Whole-launch race-freedom proof.
    pub races: bool,
    /// Bounds / alignment proofs.
    pub oob: bool,
    /// Uninitialized-read proof.
    pub uninit: bool,
    /// Full-launch traffic prediction (coalescing + bank conflicts).
    /// Off by default: it enumerates every warp of the ND-range.
    pub traffic: bool,
    /// Launch-configuration linting (shared with the sanitizer).
    pub lint: bool,
    /// Allocation labels treated as thread-private scratch and exempted
    /// from the race proof (same convention as the sanitizer).
    pub thread_local_labels: Vec<String>,
    /// Maximum distinct findings kept.
    pub max_findings: usize,
}

impl Default for StaticCheckConfig {
    fn default() -> Self {
        Self {
            races: true,
            oob: true,
            uninit: true,
            traffic: false,
            lint: true,
            thread_local_labels: vec!["spill".to_string()],
            max_findings: 64,
        }
    }
}

impl StaticCheckConfig {
    /// Everything, including the full-launch traffic prediction.
    pub fn full() -> Self {
        Self {
            traffic: true,
            ..Self::default()
        }
    }

    /// The autotuner's pre-timing gate: lints plus the race and bounds
    /// proofs (cheap, and the two properties that make a timed candidate
    /// meaningless), no uninit proof or traffic enumeration.
    pub fn tuner() -> Self {
        Self {
            uninit: false,
            traffic: false,
            ..Self::default()
        }
    }
}

/// One deduplicated footprint row: all residues whose instruction at
/// the same position fitted the same form (ignoring the base address).
#[derive(Clone, Debug)]
pub struct SlotSummary {
    /// Barrier phase.
    pub phase: usize,
    /// Access mnemonic (`ld`, `st`, `atom`, `ld.local`, `st.local`).
    pub op: &'static str,
    /// Allocation label (global accesses).
    pub label: Option<String>,
    /// Access width in bytes.
    pub bytes: u8,
    /// Fitted form signature (see [`footprint::form_signature`]).
    pub signature: String,
    /// Number of `(residue, instruction)` slots folded into this row.
    pub count: usize,
}

/// Everything one static analysis learned.
#[derive(Debug)]
pub struct StaticReport {
    /// Kernel name.
    pub kernel: String,
    /// Work-group size analyzed.
    pub local_size: u32,
    /// Work-group count analyzed.
    pub num_groups: u64,
    /// Barrier phases.
    pub phases: usize,
    /// Lane residues (distinct stream shapes per group).
    pub residues: u32,
    /// Symbolic lane evaluations used.
    pub probes: usize,
    /// Deduplicated findings (lints + proof violations).
    pub findings: Vec<Finding>,
    /// Soundness notes: claims the analysis had to weaken.
    pub notes: Vec<String>,
    /// Deduplicated footprint rows.
    pub footprints: Vec<SlotSummary>,
    /// Representative-block coalescing/bank signature per phase.
    pub phase_reps: Vec<PhaseRep>,
    /// Full-launch traffic prediction (when requested and sound).
    pub traffic: Option<TrafficPrediction>,
    /// Whole-launch symbolic bank-conflict proof (kernels with local
    /// memory whose slots canonicalize to the affine-mod-bank form).
    pub bank_proof: Option<BankConflictProof>,
}

impl StaticReport {
    /// No findings at all (notes are allowed: they mark weakened
    /// claims, not violations).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings in the given class (see
    /// [`crate::sanitizer::FindingKind::class`]).
    pub fn count_class(&self, class: &str) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind.class() == class)
            .count()
    }

    /// Deterministic plain-text rendering (golden tests, logs).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel {} local={} groups={} phases={} residues={} probes={}",
            self.kernel, self.local_size, self.num_groups, self.phases, self.residues, self.probes
        );
        let _ = writeln!(
            s,
            "verdict: {}",
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        );
        for fp in &self.footprints {
            let _ = writeln!(
                s,
                "  footprint phase={} {}{}[{}B] {} x{}",
                fp.phase,
                fp.op,
                fp.label
                    .as_deref()
                    .map(|l| format!(" {l}"))
                    .unwrap_or_default(),
                fp.bytes,
                fp.signature,
                fp.count
            );
        }
        for r in &self.phase_reps {
            let _ = writeln!(
                s,
                "  phase-rep phase={} warps={} tags={} sectors={} wavefronts={}/{} \
                 atomic_passes={}",
                r.phase,
                r.warps,
                r.l1_tag_requests_global,
                r.l1_sector_requests,
                r.shared_wavefronts,
                r.shared_wavefronts_ideal,
                r.atomic_passes
            );
        }
        if let Some(t) = &self.traffic {
            let _ = writeln!(
                s,
                "  traffic warps={} tags={} sectors={} wavefronts={}/{} \
                 loads={} stores={} local={} atomics={}/{}",
                t.warps_enumerated,
                t.l1_tag_requests_global,
                t.l1_sector_requests,
                t.shared_wavefronts,
                t.shared_wavefronts_ideal,
                t.global_load_instructions,
                t.global_store_instructions,
                t.local_instructions,
                t.atomic_instructions,
                t.atomic_passes
            );
        }
        if let Some(b) = &self.bank_proof {
            let _ = writeln!(
                s,
                "  bank-proof {} wavefronts={}/{} local={} patterns={}",
                if b.is_conflict_free() {
                    "conflict-free"
                } else {
                    "conflicted"
                },
                b.shared_wavefronts,
                b.shared_wavefronts_ideal,
                b.local_instructions,
                b.patterns_proven
            );
            for w in b.witnesses.iter().take(2) {
                let _ = writeln!(
                    s,
                    "    witness phase={} warp={} event={} bank={}: lane {} word {} vs \
                     lane {} word {} (wavefronts {}/{}, x{})",
                    w.phase,
                    w.warp,
                    w.event_idx,
                    w.bank,
                    w.lane_a,
                    w.word_a,
                    w.lane_b,
                    w.word_b,
                    w.wavefronts,
                    w.ideal,
                    w.occurrences
                );
            }
        }
        for f in &self.findings {
            let _ = writeln!(
                s,
                "  finding [{}] {}: {} (x{})",
                f.kind.class(),
                f.kind,
                f.detail,
                f.occurrences
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

/// Build only the footprint model (no proofs) — the property-test
/// surface for comparing predicted streams against real executions.
///
/// Precondition: a valid launch shape (`0 < local <= max_group_size`,
/// `global > 0`, `global % local == 0`).
pub fn build_launch_model(
    kernel: &dyn Kernel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
) -> LaunchModel {
    probe::build_model(kernel, range, device, mem)
}

/// Statically analyze one launch.  Never executes the kernel against
/// live memory: probe lanes record but do not write.
pub fn analyze(
    kernel: &dyn Kernel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
    cfg: &StaticCheckConfig,
) -> StaticReport {
    let res = kernel.resources(range.local);
    let num_phases = kernel.num_phases().max(1);
    let mut findings = Vec::new();
    if cfg.lint {
        findings.extend(lint_launch(
            device,
            range,
            &res,
            num_phases,
            kernel.local_size_multiple(),
        ));
    }

    let mut report = StaticReport {
        kernel: kernel.name().to_string(),
        local_size: range.local,
        num_groups: if range.local > 0 {
            range.global / range.local as u64
        } else {
            0
        },
        phases: num_phases,
        residues: 0,
        probes: 0,
        findings,
        notes: Vec::new(),
        footprints: Vec::new(),
        phase_reps: Vec::new(),
        traffic: None,
        bank_proof: None,
    };

    // Probing needs a well-formed launch shape and a local allocation
    // that actually fits an SM.
    let shape_ok = range.local > 0
        && range.local <= device.max_group_size
        && range.global > 0
        && range.global.is_multiple_of(range.local as u64);
    if !shape_ok || res.local_mem_bytes_per_group > device.shared_mem_per_sm {
        report.notes.push(
            "launch shape invalid — footprint analysis skipped (see lint findings)".to_string(),
        );
        return report;
    }

    let model = probe::build_model(kernel, range, device, mem);
    report.residues = model.q_len;
    report.probes = model.probes;

    for (p, pm) in model.phases.iter().enumerate() {
        if let PhaseModel::Irregular(why) = pm {
            report
                .notes
                .push(format!("phase {p}: no whole-range proof — {why}"));
        }
    }
    report.footprints = summarize_footprints(&model);

    let mut sink = ProofSink::new(cfg.max_findings);
    let mut prover = Prover::new(&model, mem);
    if cfg.oob {
        prover.check_bounds(&mut sink);
    }
    if cfg.races {
        prover.check_races(cfg, &mut sink);
    }
    if cfg.uninit {
        prover.check_uninit(&mut sink);
    }
    report.findings.extend(sink.findings);
    report.notes.extend(sink.notes);

    report.phase_reps = traffic::rep_phase_metrics(&model, mem, device);
    if cfg.traffic {
        match traffic::predict_traffic(&model, mem, device) {
            Ok(t) => report.traffic = Some(t),
            Err(why) => report.notes.push(format!("no traffic prediction: {why}")),
        }
    }
    if model_has_local_slots(&model) {
        match traffic::prove_bank_conflicts(&model, device) {
            Ok(p) => report.bank_proof = Some(p),
            Err(why) => report.notes.push(format!("no bank-conflict proof: {why}")),
        }
    }
    report
}

/// Whether any uniform phase carries a local-memory slot (the bank
/// proof is vacuous otherwise and skipped to keep reports quiet).
fn model_has_local_slots(model: &LaunchModel) -> bool {
    model.phases.iter().any(|pm| match pm {
        PhaseModel::Uniform(shapes) => shapes
            .iter()
            .any(|s| s.slots.iter().any(|slot| slot.kind.is_local())),
        PhaseModel::Irregular(_) => false,
    })
}

fn summarize_footprints(model: &LaunchModel) -> Vec<SlotSummary> {
    let mut out: Vec<SlotSummary> = Vec::new();
    // Rows are keyed on the form's shape; the signature is rendered
    // once per new row.
    let mut shapes_of_rows: Vec<FormShape> = Vec::new();
    for (p, pm) in model.phases.iter().enumerate() {
        let PhaseModel::Uniform(shapes) = pm else {
            continue;
        };
        for shape in shapes {
            for slot in &shape.slots {
                let op = slot.kind.mnemonic();
                let form = FormShape::of(&slot.form);
                if let Some(row) = out.iter_mut().zip(&shapes_of_rows).find_map(|(r, &f)| {
                    (r.phase == p
                        && r.op == op
                        && r.label == slot.label
                        && r.bytes == slot.bytes
                        && f == form)
                        .then_some(r)
                }) {
                    row.count += 1;
                } else {
                    shapes_of_rows.push(form);
                    out.push(SlotSummary {
                        phase: p,
                        op,
                        label: slot.label.clone(),
                        bytes: slot.bytes,
                        signature: form.signature(),
                        count: 1,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelResources, Lane};

    /// `C[gid * stride_words] = 1.0` — stride 1 is clean and perfectly
    /// coalesced; stride 0 makes every lane hammer one address.
    struct StrideStore {
        base: u64,
        stride_bytes: u64,
    }

    impl Kernel for StrideStore {
        fn name(&self) -> &str {
            "stride_store"
        }
        fn resources(&self, _local: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 1,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let a = self.base + lane.global_id() * self.stride_bytes;
            lane.st_global_f64(a, 1.0);
        }
    }

    fn setup(bytes: u64) -> (DeviceSpec, DeviceMemory, u64) {
        let device = DeviceSpec::a100();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(bytes, "c");
        (device, mem, buf.base())
    }

    #[test]
    fn coalesced_store_is_clean_with_exact_traffic() {
        let (device, mem, base) = setup(128 * 8);
        let k = StrideStore {
            base,
            stride_bytes: 8,
        };
        let r = analyze(
            &k,
            &NdRange::linear(128, 32),
            &device,
            &mem,
            &StaticCheckConfig::full(),
        );
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.footprints.len(), 1);
        assert_eq!(r.footprints[0].signature, "affine Δg=256 Δm=0");
        let t = r.traffic.expect("traffic predicted");
        // 4 warps, each storing 256 contiguous bytes: 2 lines, 8 sectors.
        assert_eq!(t.warps_enumerated, 4);
        assert_eq!(t.global_store_instructions, 4);
        assert_eq!(t.l1_tag_requests_global, 8);
        assert_eq!(t.l1_sector_requests, 32);
    }

    #[test]
    fn overlapping_stores_are_a_static_race() {
        let (device, mem, base) = setup(64);
        let k = StrideStore {
            base,
            stride_bytes: 0,
        };
        let r = analyze(
            &k,
            &NdRange::linear(128, 32),
            &device,
            &mem,
            &StaticCheckConfig::default(),
        );
        assert_eq!(r.count_class("race"), 1, "{}", r.render_text());
    }

    #[test]
    fn store_past_allocation_is_out_of_bounds() {
        let (device, mem, base) = setup(64 * 8); // half the range
        let k = StrideStore {
            base,
            stride_bytes: 8,
        };
        let r = analyze(
            &k,
            &NdRange::linear(128, 32),
            &device,
            &mem,
            &StaticCheckConfig::default(),
        );
        assert_eq!(r.count_class("memcheck"), 1, "{}", r.render_text());
    }

    #[test]
    fn invalid_shape_skips_probing_but_keeps_lints() {
        let (device, mem, base) = setup(64);
        let k = StrideStore {
            base,
            stride_bytes: 8,
        };
        let r = analyze(
            &k,
            &NdRange::linear(100, 96),
            &device,
            &mem,
            &StaticCheckConfig::default(),
        );
        assert_eq!(r.count_class("lint"), 1);
        assert_eq!(r.probes, 0);
        assert!(r.notes.iter().any(|n| n.contains("skipped")));
    }
}
