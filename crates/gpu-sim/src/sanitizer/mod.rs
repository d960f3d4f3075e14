//! Runtime sanitizer for simulated launches: race detection, memory
//! checking, and launch-configuration linting.
//!
//! The simulator already *records* every architectural action a kernel
//! takes (the per-lane [`Event`](crate::event::Event) streams that feed
//! the warp replayer).  This module consumes the same streams a second
//! time and checks them the way `compute-sanitizer` checks a CUDA
//! binary:
//!
//! * **racecheck** ([`racecheck`]) — a happens-before race detector over
//!   shadow memory covering both the device arena and each work-group's
//!   local memory.  Two accesses *conflict* when they overlap, at least
//!   one is a non-atomic write, and no ordering edge connects them.  The
//!   ordering edges are exactly the ones the execution model guarantees:
//!   program order within one work-item, and barrier-phase order within
//!   one work-group (phase `p` happens before phase `p + 1` — the
//!   `group_barrier` the kernel authoring API encodes structurally).
//!   Work-items of *different* groups are never ordered.
//! * **memcheck** ([`memcheck`]) — bounds and alignment checking of
//!   global accesses against the live allocation table, bounds checking
//!   of local-memory accesses against the kernel's declared
//!   `local_mem_bytes_per_group`, and uninitialized-read tracking for
//!   both spaces.
//! * **lint** ([`lint`]) — static pre-execution validation of the launch
//!   configuration: the paper's divisibility rule, warp alignment, the
//!   strategy's site-block granularity, local-memory capacity, register
//!   pressure, and local memory used without any barrier.
//!
//! The sanitizer is opt-in per launcher
//! ([`Launcher::with_sanitizer`](crate::Launcher::with_sanitizer)); a
//! sanitized launch puts a [`SanitizerReport`] into its
//! [`LaunchReport::sanitizer`](crate::LaunchReport) field.  Lanes run
//! *tolerant* under the sanitizer: invalid accesses are recorded and
//! reported instead of panicking the host, so deliberately broken
//! kernels can be diagnosed.

pub mod lint;
pub mod memcheck;
pub mod racecheck;

pub use lint::{lint_launch, LintKind};

use crate::device::DeviceSpec;
use crate::event::Event;
use crate::kernel::KernelResources;
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use memcheck::MemChecker;
use racecheck::RaceChecker;
use std::collections::HashMap;
use std::fmt;

/// Which checks a sanitized launch runs.
#[derive(Clone, Debug)]
pub struct SanitizerConfig {
    /// Happens-before race detection (global + local shadow memory).
    pub racecheck: bool,
    /// Out-of-bounds / misalignment checking.
    pub memcheck: bool,
    /// Uninitialized-read tracking.
    pub initcheck: bool,
    /// Launch-configuration linting.
    pub lint: bool,
    /// Maximum number of *distinct* findings kept; further distinct
    /// findings set [`SanitizerReport::truncated`].  Repeats of an
    /// already-recorded finding only bump its occurrence count.
    pub max_findings: usize,
    /// Allocation labels treated as thread-private scratch and exempted
    /// from race checking (still memchecked).  The MILC spill buffer
    /// recycles its slots across work-items (`gid % spill_slots`),
    /// modelling CUDA thread-local memory whose reuse the hardware
    /// serializes through residency — an ordering the happens-before
    /// model deliberately does not track.
    pub thread_local_labels: Vec<String>,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self {
            racecheck: true,
            memcheck: true,
            initcheck: true,
            lint: true,
            max_findings: 64,
            thread_local_labels: vec!["spill".to_string()],
        }
    }
}

impl SanitizerConfig {
    /// Only the race detector.
    pub fn racecheck_only() -> Self {
        Self {
            memcheck: false,
            initcheck: false,
            lint: false,
            ..Self::default()
        }
    }

    /// Only bounds/alignment checking.
    pub fn memcheck_only() -> Self {
        Self {
            racecheck: false,
            initcheck: false,
            lint: false,
            ..Self::default()
        }
    }

    /// Only uninitialized-read tracking.
    pub fn initcheck_only() -> Self {
        Self {
            racecheck: false,
            memcheck: false,
            lint: false,
            ..Self::default()
        }
    }

    /// Only the launch-configuration linter.
    pub fn lint_only() -> Self {
        Self {
            racecheck: false,
            memcheck: false,
            initcheck: false,
            ..Self::default()
        }
    }
}

/// The deduplication identity of a sanitizer finding.  Two dynamic
/// violations with the same kind fold into one [`Finding`] whose
/// occurrence count grows.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Conflicting unordered accesses to one global allocation.
    GlobalRace {
        /// Label of the allocation raced on.
        label: String,
    },
    /// Conflicting unordered accesses to work-group local memory.
    LocalRace,
    /// Global access outside every live allocation (past the arena, in
    /// alignment padding, or straddling an allocation's end).
    GlobalOutOfBounds {
        /// Label of the allocation overrun, if the address names one.
        label: Option<String>,
    },
    /// Global access whose address is not a multiple of its width.
    GlobalMisaligned {
        /// Label of the allocation accessed.
        label: String,
    },
    /// Local access past the kernel's declared local-memory allocation.
    LocalOutOfBounds,
    /// Global read of bytes never written by the host or the kernel.
    GlobalUninitRead {
        /// Label of the allocation read.
        label: String,
    },
    /// Local-memory read of bytes no phase of this group has written.
    LocalUninitRead,
    /// Launch-configuration lint.
    Lint(LintKind),
}

impl FindingKind {
    /// Coarse classification: `"race"`, `"memcheck"`, `"uninit"`, or
    /// `"lint"` (the four tool classes the report groups by).
    pub fn class(&self) -> &'static str {
        match self {
            FindingKind::GlobalRace { .. } | FindingKind::LocalRace => "race",
            FindingKind::GlobalOutOfBounds { .. }
            | FindingKind::GlobalMisaligned { .. }
            | FindingKind::LocalOutOfBounds => "memcheck",
            FindingKind::GlobalUninitRead { .. } | FindingKind::LocalUninitRead => "uninit",
            FindingKind::Lint(_) => "lint",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::GlobalRace { label } => write!(f, "data race on `{label}`"),
            FindingKind::LocalRace => write!(f, "data race on work-group local memory"),
            FindingKind::GlobalOutOfBounds { label: Some(l) } => {
                write!(f, "out-of-bounds access past `{l}`")
            }
            FindingKind::GlobalOutOfBounds { label: None } => {
                write!(f, "out-of-bounds access outside every allocation")
            }
            FindingKind::GlobalMisaligned { label } => {
                write!(f, "misaligned access to `{label}`")
            }
            FindingKind::LocalOutOfBounds => {
                write!(f, "local-memory access past the declared allocation")
            }
            FindingKind::GlobalUninitRead { label } => {
                write!(f, "read of uninitialized `{label}`")
            }
            FindingKind::LocalUninitRead => {
                write!(f, "read of unwritten local memory")
            }
            FindingKind::Lint(k) => write!(f, "{k}"),
        }
    }
}

/// One deduplicated finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// What went wrong (also the deduplication key).
    pub kind: FindingKind,
    /// Detail from the first dynamic occurrence (addresses, items).
    pub detail: String,
    /// How many dynamic violations folded into this finding.
    pub occurrences: u64,
}

/// Everything a sanitized launch learned.
#[derive(Clone, Debug, Default)]
pub struct SanitizerReport {
    /// Deduplicated findings, in first-occurrence order.
    pub findings: Vec<Finding>,
    /// Memory accesses inspected.
    pub checked_accesses: u64,
    /// Whether distinct findings were dropped after
    /// [`SanitizerConfig::max_findings`] was reached.
    pub truncated: bool,
}

impl SanitizerReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && !self.truncated
    }

    /// Number of findings in the given class (see
    /// [`FindingKind::class`]).
    pub fn count_class(&self, class: &str) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind.class() == class)
            .count()
    }
}

/// Live checking state of one sanitized launch (engine-internal; public
/// because the engine's group executor drives it).
pub struct Sanitizer<'m> {
    cfg: SanitizerConfig,
    race: RaceChecker,
    mem: MemChecker<'m>,
    local_size: u32,
    findings: Vec<Finding>,
    index: HashMap<FindingKind, usize>,
    checked: u64,
    truncated: bool,
    scratch: Vec<(FindingKind, String)>,
}

impl<'m> Sanitizer<'m> {
    /// Build the shadow state for one launch: the initialization bitmap
    /// is snapshotted from `mem` now, before any kernel event is
    /// processed; the allocation table is read from `mem` as borrowed.
    pub fn new(
        cfg: SanitizerConfig,
        mem: &'m DeviceMemory,
        local_mem_bytes: u32,
        local_size: u32,
    ) -> Self {
        Self {
            race: RaceChecker::new(mem.arena_end(), local_mem_bytes),
            mem: MemChecker::new(mem, local_mem_bytes),
            cfg,
            local_size,
            findings: Vec::new(),
            index: HashMap::new(),
            checked: 0,
            truncated: false,
            scratch: Vec::new(),
        }
    }

    /// Run the static launch linter and record its findings.
    pub fn lint(
        &mut self,
        device: &DeviceSpec,
        range: &NdRange,
        res: &KernelResources,
        num_phases: usize,
        local_size_multiple: u32,
    ) {
        if !self.cfg.lint {
            return;
        }
        for f in lint_launch(device, range, res, num_phases, local_size_multiple) {
            self.record(f.kind, f.detail);
        }
    }

    /// Reset per-group shadow state (local memory belongs to one group
    /// at a time; the engine runs a group to completion before the next).
    pub fn begin_group(&mut self) {
        self.race.begin_group();
        self.mem.begin_group();
    }

    /// Inspect one warp's event streams for one phase.  `first_local` is
    /// the local id of lane 0 of this warp; `group` and `phase` identify
    /// the barrier interval the accesses happened in.
    pub fn process_warp(
        &mut self,
        group: u64,
        phase: u32,
        first_local: u32,
        streams: &[Vec<Event>],
    ) {
        for (i, stream) in streams.iter().enumerate() {
            let item = group * self.local_size as u64 + (first_local + i as u32) as u64;
            for ev in stream {
                match *ev {
                    Event::GlobalLoad { addr, bytes } => {
                        self.global_access(item, group, phase, addr, bytes, Op::Read)
                    }
                    Event::GlobalStore { addr, bytes } => {
                        self.global_access(item, group, phase, addr, bytes, Op::Write)
                    }
                    Event::AtomicRmw { addr, bytes } => {
                        self.global_access(item, group, phase, addr, bytes, Op::Atomic)
                    }
                    Event::LocalLoad { offset, bytes } => {
                        self.local_access(item, phase, offset, bytes, false)
                    }
                    Event::LocalStore { offset, bytes } => {
                        self.local_access(item, phase, offset, bytes, true)
                    }
                    Event::Flops(_) | Event::Iops(_) | Event::SetPath(_) => {}
                }
            }
        }
        self.drain_scratch();
    }

    fn global_access(&mut self, item: u64, group: u64, phase: u32, addr: u64, bytes: u8, op: Op) {
        self.checked += 1;
        let in_bounds = if self.cfg.memcheck {
            self.mem.check_global(addr, bytes, &mut self.scratch)
        } else {
            self.mem.global_in_bounds(addr, bytes)
        };
        if !in_bounds {
            return;
        }
        if self.cfg.initcheck {
            match op {
                Op::Read => self.mem.check_global_init(addr, bytes, &mut self.scratch),
                Op::Write | Op::Atomic => self.mem.mark_global_init(addr, bytes),
            }
        }
        if self.cfg.racecheck && !self.is_thread_local(addr) {
            self.race.global_access(
                addr,
                bytes,
                racecheck::Access {
                    item,
                    group,
                    phase,
                    atomic: matches!(op, Op::Atomic),
                },
                !matches!(op, Op::Read),
                self.mem.label_of(addr),
                &mut self.scratch,
            );
        }
    }

    fn local_access(&mut self, item: u64, phase: u32, offset: u32, bytes: u8, write: bool) {
        self.checked += 1;
        let in_bounds = if self.cfg.memcheck {
            self.mem.check_local(offset, bytes, &mut self.scratch)
        } else {
            self.mem.local_in_bounds(offset, bytes)
        };
        if !in_bounds {
            return;
        }
        if self.cfg.initcheck {
            if write {
                self.mem.mark_local_init(offset, bytes);
            } else {
                self.mem.check_local_init(offset, bytes, &mut self.scratch);
            }
        }
        if self.cfg.racecheck {
            // Within one group, the only ordering edges are program
            // order (same item) and barrier phases; group is irrelevant
            // because local memory never crosses groups.
            self.race.local_access(
                offset,
                bytes,
                racecheck::Access {
                    item,
                    group: 0,
                    phase,
                    atomic: false,
                },
                write,
                &mut self.scratch,
            );
        }
    }

    fn is_thread_local(&self, addr: u64) -> bool {
        match self.mem.label_of(addr) {
            Some(l) => self.cfg.thread_local_labels.iter().any(|t| t == l),
            None => false,
        }
    }

    fn drain_scratch(&mut self) {
        // Move accumulated raw violations into deduplicated findings.
        let pending = std::mem::take(&mut self.scratch);
        for (kind, detail) in pending {
            self.record(kind, detail);
        }
    }

    fn record(&mut self, kind: FindingKind, detail: String) {
        if let Some(&i) = self.index.get(&kind) {
            self.findings[i].occurrences += 1;
        } else if self.findings.len() >= self.cfg.max_findings {
            self.truncated = true;
        } else {
            self.index.insert(kind.clone(), self.findings.len());
            self.findings.push(Finding {
                kind,
                detail,
                occurrences: 1,
            });
        }
    }

    /// Finish the launch and emit the report.
    pub fn into_report(mut self) -> SanitizerReport {
        self.drain_scratch();
        SanitizerReport {
            findings: self.findings,
            checked_accesses: self.checked,
            truncated: self.truncated,
        }
    }
}

/// Kind of global access, as the checks distinguish them.
#[derive(Copy, Clone)]
enum Op {
    Read,
    Write,
    Atomic,
}
