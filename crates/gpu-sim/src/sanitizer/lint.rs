//! Static launch-configuration linting.
//!
//! [`lint_launch`] validates a `(kernel resources, ND-range)` pair
//! against the device *before* execution.  It reproduces the hard
//! launch-validation rules as findings — so an invalid configuration
//! can be diagnosed without attempting (and aborting) a launch — and
//! adds the soft rules the paper's analysis relies on but the runtime
//! cannot reject: warp alignment, the strategy's site-block
//! granularity (DESIGN §4: a work-group must hold whole sites, or the
//! single-writer collapse spans two groups), and local memory declared
//! by a kernel with no barrier to order it.

use super::{Finding, FindingKind};
use crate::device::DeviceSpec;
use crate::kernel::KernelResources;
use crate::ndrange::NdRange;
use std::fmt;

/// One lintable property of a launch configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Local size is zero or exceeds the device's maximum work-group
    /// size (would be rejected at launch).
    InvalidLocalSize,
    /// Global size is not a multiple of the local size — the paper's
    /// own Section III-C constraint (would be rejected at launch).
    IndivisibleGlobal,
    /// The work-group's local memory demand exceeds what one SM has
    /// (would be rejected at launch).
    LocalMemCapacity,
    /// The work-group's register demand exceeds the SM register file
    /// (would be rejected at launch).
    RegisterPressure,
    /// Local size is not a multiple of the warp size: the trailing
    /// partial warp occupies a full scheduler slot at a fraction of the
    /// throughput.
    WarpUnaligned,
    /// Local size is not a multiple of the kernel's site-block
    /// granularity: some work-group spans a lattice site, so the
    /// strategy's single-writer collapse would read slots of another
    /// group's local memory.
    SiteBlockMismatch,
    /// The kernel declares no phases (would be rejected at launch).
    NoPhases,
    /// The kernel declares work-group local memory but has a single
    /// phase — no barrier ever orders the producing and consuming
    /// lanes, so any cross-lane use of that memory is a race.
    LocalMemNoBarrier,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::InvalidLocalSize => "invalid local size",
            LintKind::IndivisibleGlobal => "global size not divisible by local size",
            LintKind::LocalMemCapacity => "local memory exceeds SM capacity",
            LintKind::RegisterPressure => "registers exceed the SM register file",
            LintKind::WarpUnaligned => "local size not warp-aligned",
            LintKind::SiteBlockMismatch => "local size not a site-block multiple",
            LintKind::NoPhases => "kernel declares no phases",
            LintKind::LocalMemNoBarrier => "local memory used without a barrier",
        };
        write!(f, "launch lint: {s}")
    }
}

/// Lint a launch configuration; returns one finding per violated rule.
///
/// `local_size_multiple` is the kernel's declared site-block granularity
/// ([`Kernel::local_size_multiple`](crate::Kernel::local_size_multiple));
/// `num_phases` its barrier structure.
pub fn lint_launch(
    device: &DeviceSpec,
    range: &NdRange,
    res: &KernelResources,
    num_phases: usize,
    local_size_multiple: u32,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |kind: LintKind, detail: String| {
        out.push(Finding {
            kind: FindingKind::Lint(kind),
            detail,
            occurrences: 1,
        });
    };

    let local = range.local;
    // An invalid local size makes every rule that divides by or compares
    // against the local size meaningless — but *only* those rules: the
    // size-independent lints (local-memory capacity, barrier structure)
    // must still be reported so one bad parameter cannot mask another.
    let size_valid = local > 0 && local <= device.max_group_size;
    if !size_valid {
        push(
            LintKind::InvalidLocalSize,
            format!("local size {local} outside 1..={}", device.max_group_size),
        );
    }
    if size_valid && (range.global == 0 || !range.global.is_multiple_of(local as u64)) {
        push(
            LintKind::IndivisibleGlobal,
            format!("global size {} % local size {local} != 0", range.global),
        );
    }
    if res.local_mem_bytes_per_group > device.shared_mem_per_sm {
        push(
            LintKind::LocalMemCapacity,
            format!(
                "{} B of local memory requested, {} B per SM",
                res.local_mem_bytes_per_group, device.shared_mem_per_sm
            ),
        );
    }
    let group_registers = res.registers_per_item.saturating_mul(local);
    if size_valid && group_registers > device.registers_per_sm {
        push(
            LintKind::RegisterPressure,
            format!(
                "{group_registers} registers for one work-group, {} per SM",
                device.registers_per_sm
            ),
        );
    }
    if size_valid && !local.is_multiple_of(device.warp_size) {
        push(
            LintKind::WarpUnaligned,
            format!("local size {local} % warp size {} != 0", device.warp_size),
        );
    }
    if size_valid && local_size_multiple > 1 && !local.is_multiple_of(local_size_multiple) {
        push(
            LintKind::SiteBlockMismatch,
            format!("local size {local} % site block {local_size_multiple} != 0"),
        );
    }
    if num_phases == 0 {
        push(
            LintKind::NoPhases,
            "a kernel body has at least one phase".into(),
        );
    }
    if res.local_mem_bytes_per_group > 0 && num_phases <= 1 {
        push(
            LintKind::LocalMemNoBarrier,
            format!(
                "{} B of local memory declared but the kernel has no barrier phase",
                res.local_mem_bytes_per_group
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(regs: u32, local_mem: u32) -> KernelResources {
        KernelResources {
            registers_per_item: regs,
            local_mem_bytes_per_group: local_mem,
        }
    }

    fn kinds(findings: &[Finding]) -> Vec<LintKind> {
        findings
            .iter()
            .map(|f| match f.kind {
                FindingKind::Lint(k) => k,
                ref other => panic!("non-lint finding {other:?}"),
            })
            .collect()
    }

    #[test]
    fn clean_config_produces_no_findings() {
        let d = DeviceSpec::a100();
        let f = lint_launch(&d, &NdRange::linear(7680, 768), &res(64, 12288), 2, 12);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn each_rule_fires_individually() {
        let d = DeviceSpec::a100();
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(128, 2048),
                &res(32, 0),
                1,
                1
            )),
            vec![LintKind::InvalidLocalSize]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(100, 96),
                &res(32, 0),
                1,
                1
            )),
            vec![LintKind::IndivisibleGlobal]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(960, 96),
                &res(32, 256 * 1024),
                2,
                1
            )),
            vec![LintKind::LocalMemCapacity]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(9600, 960),
                &res(128, 0),
                1,
                1
            )),
            vec![LintKind::RegisterPressure]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(480, 48),
                &res(32, 0),
                1,
                12
            )),
            vec![LintKind::WarpUnaligned]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(640, 64),
                &res(32, 0),
                1,
                12
            )),
            vec![LintKind::SiteBlockMismatch]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(960, 96),
                &res(32, 1536),
                1,
                1
            )),
            vec![LintKind::LocalMemNoBarrier]
        );
        assert_eq!(
            kinds(&lint_launch(
                &d,
                &NdRange::linear(960, 96),
                &res(32, 0),
                0,
                1
            )),
            vec![LintKind::NoPhases]
        );
    }

    #[test]
    fn invalid_local_size_skips_only_size_dependent_rules() {
        let d = DeviceSpec::a100();
        // Nothing else wrong: only the size finding (the size-dependent
        // rules — divisibility, registers, warp alignment, site block —
        // are meaningless and stay silent rather than firing spuriously).
        let f = lint_launch(&d, &NdRange::linear(100, 0), &res(32, 0), 1, 12);
        assert_eq!(kinds(&f), vec![LintKind::InvalidLocalSize]);
        // Size-independent findings are still reported alongside it:
        // an oversized local allocation and a barrier-free kernel using
        // local memory do not depend on the local size at all.
        let f = lint_launch(&d, &NdRange::linear(100, 0), &res(32, 256 * 1024), 1, 12);
        assert_eq!(
            kinds(&f),
            vec![
                LintKind::InvalidLocalSize,
                LintKind::LocalMemCapacity,
                LintKind::LocalMemNoBarrier,
            ]
        );
    }
}
