//! The probe engine: runs each kernel phase on side-effect-free
//! recording lanes over a small set of `(group, block, residue)` points
//! and fits the footprint model from the observations.
//!
//! The probe set is chosen so every fitted coefficient is
//! over-determined: all residues `q` of the first, second and last
//! residue blocks, across up to six groups (first three, middle, last
//! two) — a few thousand lane evaluations for launches of millions of
//! items.  Fits are validated against *every* sample, so a pattern that
//! merely looks affine on a corner (e.g. the spill arena's modular
//! wrap) is demoted to residual when some probed sample contradicts it;
//! a pattern that holds on every probed point but changes in an
//! unprobed group is extrapolated as if it held.

use super::footprint::{fit_residue, same_shape, LaunchModel, PhaseModel, ProbeLog, ResidueShape};
use crate::device::DeviceSpec;
use crate::kernel::{Kernel, Lane};
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use crate::sharedmem::LocalMem;

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

/// Pick a small sorted, deduplicated probe set from `0..n`.
fn sample_points(candidates: &[u64], n: u64) -> Vec<u64> {
    let mut out: Vec<u64> = candidates.iter().copied().filter(|&c| c < n).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Run the probe set and fit the whole-launch model.
///
/// The residue period starts at `lcm(local_size_multiple, warp)`.  If
/// that leaves residual (unfitted) footprints — e.g. a `gid / 3` site
/// decomposition whose pattern only repeats every 96 lanes — the model
/// is re-probed at small multiples of the period and the refinement
/// with the fewest residual slots wins (ties prefer the shorter
/// period, which needs fewer probes downstream).
///
/// Precondition: the range is valid (`local > 0`,
/// `global % local == 0`) — the caller gates on the launch lints.
pub(crate) fn build_model(
    kernel: &dyn Kernel,
    range: &NdRange,
    device: &DeviceSpec,
    mem: &DeviceMemory,
) -> LaunchModel {
    let local = range.local;
    let multiple = kernel.local_size_multiple().max(1);
    // Residue period: index decompositions repeat every lcm(site block,
    // warp) lanes.  A local size that breaks the period gets Q = local
    // (every lane its own residue — exact, just more probes).
    let q0 = lcm(multiple, device.warp_size);
    let base_q = if q0 <= local && local.is_multiple_of(q0) {
        q0
    } else {
        local
    };
    // One probe log serves every phase of every refinement.
    let mut log = ProbeLog::default();
    let mut best = build_model_with_q(kernel, range, mem, base_q, &mut log);
    if residual_slots(&best) == 0 {
        return best;
    }
    // Index math like `site = gid / 3` or `i = (gid / 4) % 3` is only
    // residue-affine once the period absorbs the divisor; ×3 covers the
    // paper's 3-vector decompositions (and with warp alignment already
    // in q0, /12 patterns too), ×2 the even/odd ones.
    for factor in [3, 2] {
        let q = base_q.saturating_mul(factor);
        if q == base_q || q > local || !local.is_multiple_of(q) {
            continue;
        }
        let refined = build_model_with_q(kernel, range, mem, q, &mut log);
        if residual_slots(&refined) < residual_slots(&best) {
            best = refined;
        }
        if residual_slots(&best) == 0 {
            break;
        }
    }
    best
}

/// Number of memory slots the model could not fit to an affine or
/// gather form (lower is better; 0 means fully explained).
fn residual_slots(model: &LaunchModel) -> usize {
    model
        .phases
        .iter()
        .filter_map(|p| match p {
            PhaseModel::Uniform(shapes) => Some(shapes),
            PhaseModel::Irregular(_) => None,
        })
        .flatten()
        .flat_map(|shape| shape.slots.iter())
        .filter(|slot| matches!(slot.form, super::footprint::AddrForm::Residual))
        .count()
}

fn build_model_with_q(
    kernel: &dyn Kernel,
    range: &NdRange,
    mem: &DeviceMemory,
    q_len: u32,
    log: &mut ProbeLog,
) -> LaunchModel {
    let local = range.local;
    let num_groups = range.num_groups();
    let blocks_per_group = (local / q_len) as u64;

    let probed_blocks = sample_points(
        &[0, 1, blocks_per_group.saturating_sub(1)],
        blocks_per_group,
    );
    let g = num_groups;
    let probed_groups = sample_points(
        &[0, 1, 2, g / 2, g.saturating_sub(2), g.saturating_sub(1)],
        g,
    );

    let resources = kernel.resources(local);
    let mut local_mem = LocalMem::new(resources.local_mem_bytes_per_group);
    let num_phases = kernel.num_phases().max(1);

    let points = probed_groups.len() * probed_blocks.len();
    let mut probes = 0usize;
    let mut phases = Vec::with_capacity(num_phases);
    for phase in 0..num_phases {
        // Residue by residue, one sample per probed (group, block).
        log.clear(q_len as usize, points);
        for q in 0..q_len {
            for &grp in &probed_groups {
                for &blk in &probed_blocks {
                    let lid = blk as u32 * q_len + q;
                    let gid = grp * local as u64 + lid as u64;
                    log.record(grp, blk, |events, u32_values| {
                        let mut lane = Lane::new_probe(
                            gid,
                            lid,
                            grp,
                            local,
                            mem,
                            &mut local_mem,
                            events,
                            u32_values,
                        );
                        kernel.run_phase(phase, &mut lane);
                    });
                    probes += 1;
                }
            }
        }

        phases.push(fit_phase(log, mem, phase));
    }

    LaunchModel {
        local_size: local,
        num_groups,
        q_len,
        blocks_per_group,
        probed_groups,
        probed_blocks,
        probes,
        local_mem_bytes: resources.local_mem_bytes_per_group,
        phases,
    }
}

fn fit_phase(log: &ProbeLog, mem: &DeviceMemory, phase: usize) -> PhaseModel {
    let mut shapes: Vec<ResidueShape> = Vec::with_capacity(log.residues());
    let mut obs = Vec::new();
    for q in 0..log.residues() {
        let residue_samples = log.residue(q);
        let rep = &residue_samples[0];
        let rep_events = log.events(rep);
        if let Some(bad) = residue_samples
            .iter()
            .find(|s| !same_shape(rep_events, log.events(s)))
        {
            return PhaseModel::Irregular(format!(
                "phase {phase}: residue {q} stream shape differs between probes \
                 (group {}, block {}) and (group {}, block {}) — control flow \
                 depends on more than the lane residue",
                rep.group, rep.block, bad.group, bad.block
            ));
        }
        shapes.push(fit_residue(log, residue_samples, mem, &mut obs));
    }
    PhaseModel::Uniform(shapes)
}
