//! Warp-level replay: turning 32 per-lane event streams into
//! architectural transactions.
//!
//! After the engine executes every lane of a warp for one phase, this
//! module aligns the lanes' event streams and models the warp the way
//! the hardware issues it:
//!
//! * lane streams are split into *segments* at every
//!   [`Lane::set_path`](crate::kernel::Lane::set_path) call;
//! * within a segment index, lanes are grouped by their path value;
//!   multiple groups mean a **divergent branch** — the groups issue
//!   serially, exactly like SIMT path serialization (Section IV-D8:
//!   "all warp threads take the path through the conditional branches,
//!   one branch at a time, with a fraction of the warp threads masked
//!   off");
//! * within a path group, lanes advance in lockstep; each aligned step is
//!   one warp instruction, dispatched to the coalescer + cache hierarchy
//!   (global), the bank model (shared) or the serialization model
//!   (atomics);
//! * a global instruction of the previous global instruction's kind,
//!   lane count and widths, whose every lane touches the sectors its
//!   counterpart touched, is a *repeat*, such as the second 8-byte half
//!   of a complex load.  It re-touches exactly the previous instruction's
//!   lines and masks.
//!
//! `model_warp`, the state-free half, emits each global or atomic
//! instruction as `Step`s: runs of consecutive lanes in one line, or one
//! repeat.  `Lines`, the line step, coalesces runs into lines, drives
//! them through an L1 and the L2, and counts a repeat whose lines fit the
//! L1 as L1 hits rather than ops.  [`replay_warp`] composes the two.
//!
//! The alignment contract: lanes on the same path must produce the same
//! event kinds in the same order (true by construction for structured
//! SPMD kernels), and every lane of a warp must call `set_path` the
//! same number of times in a phase, even if only to re-state its
//! current path.  A violation — an undeclared divergent branch — is
//! reported as [`SimError::LaneDivergenceMismatch`] in *all* build
//! profiles, so release-mode launches fail loudly instead of silently
//! mis-attributing transactions (this used to be a debug-only
//! assertion).

use std::cell::RefCell;

use crate::atomics::model_atomic_instruction;
use crate::cache::{Cache, CacheStats};
use crate::coalesce::{access_lines, merge_line};
use crate::counters::Counters;
use crate::error::SimError;
use crate::event::Event;
use crate::memo::Recorder;
use crate::sharedmem::model_shared_instruction;

/// Lanes the bank and atomic models sort on the stack.  A wider warp
/// (none ships: NVIDIA warps have 32 lanes, AMD wavefronts 64) still
/// works; it spills to one heap buffer per instruction.
pub(crate) const STACK_LANES: usize = 64;

/// Mutable simulation state one warp replay writes into.
pub struct ReplaySinks<'a> {
    /// This SM's L1 cache.
    pub l1: &'a mut Cache,
    /// The device L2.
    pub l2: &'a mut Cache,
    /// Launch-wide counters.
    pub counters: &'a mut Counters,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Sector size in bytes.
    pub sector_bytes: u32,
    /// Shared-memory bank count.
    pub banks: u32,
    /// Shared-memory bank width in bytes.
    pub bank_width: u32,
}

/// One lane of a path group: its segment is
/// `streams[lane][start..start + len]`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct GroupLane {
    pub(crate) lane: usize,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// Where one lane stands in the alignment walk.
#[derive(Copy, Clone)]
struct Cursor {
    /// `(path, start)` of the lane's next segment; `None` once its
    /// stream is exhausted (an early-returning lane runs out first).
    next: Option<(u32, usize)>,
    /// `(path, start, end)` of the lane's current segment.
    seg: Option<(u32, usize, usize)>,
}

/// Reusable buffers of the alignment walk.  Shared with the static
/// analyzer (`staticcheck`), which aligns *predicted* streams by the
/// same rules, so static and dynamic alignment cannot drift apart.
#[derive(Default)]
pub(crate) struct Alignment {
    cursors: Vec<Cursor>,
    paths: Vec<u32>,
    group: Vec<GroupLane>,
}

impl Alignment {
    /// Align one warp's lane streams and call `visit(group_ord, step,
    /// active)` once per warp instruction, in issue order.
    ///
    /// Each segment index (streams are cut at every `SetPath`) issues
    /// its path groups in ascending path order; `group_ord` counts the
    /// groups of the segment that issued before this one (0 for the
    /// first).  `active` lists, in lane order, the group's lanes whose
    /// segment still has an event at `step`; the event of lane `m` is
    /// `streams[m.lane][m.start + step]`.  A group whose lanes all have
    /// empty segments issues nothing and takes no ordinal.
    pub(crate) fn for_each_instruction<S: AsRef<[Event]>, E>(
        &mut self,
        streams: &[S],
        mut visit: impl FnMut(u64, usize, &[GroupLane]) -> Result<(), E>,
    ) -> Result<(), E> {
        let Self {
            cursors,
            paths,
            group,
        } = self;
        cursors.clear();
        cursors.extend(streams.iter().map(|_| Cursor {
            next: Some((0, 0)),
            seg: None,
        }));
        loop {
            // Cut every remaining lane's next segment at its next
            // `SetPath`, and collect the paths present.
            paths.clear();
            for (c, stream) in cursors.iter_mut().zip(streams) {
                c.seg = None;
                let Some((path, start)) = c.next else {
                    continue;
                };
                let events = stream.as_ref();
                let end = events[start..]
                    .iter()
                    .position(|e| matches!(e, Event::SetPath(_)))
                    .map_or(events.len(), |i| start + i);
                c.next = match events.get(end) {
                    Some(&Event::SetPath(p)) => Some((p, end + 1)),
                    _ => None,
                };
                c.seg = Some((path, start, end));
                if !paths.contains(&path) {
                    paths.push(path);
                }
            }
            if paths.is_empty() {
                return Ok(());
            }
            paths.sort_unstable();

            let mut group_ord = 0u64;
            for &path in paths.iter() {
                group.clear();
                group.extend(
                    cursors
                        .iter()
                        .enumerate()
                        .filter_map(|(lane, c)| match c.seg {
                            Some((p, start, end)) if p == path && end > start => Some(GroupLane {
                                lane,
                                start,
                                len: end - start,
                            }),
                            _ => None,
                        }),
                );
                // Lanes of one path group advance in lockstep, but a lane
                // may *return early* (e.g. the bounds guard of a padded
                // CUDA-style grid): it stops issuing while the rest of the
                // group continues, so it leaves `active` after its last
                // event.
                let Some(mut shortest) = group.iter().map(|m| m.len).min() else {
                    continue; // predicated-off empty branch arm
                };
                let mut step = 0;
                while !group.is_empty() {
                    visit(group_ord, step, group)?;
                    step += 1;
                    if step == shortest {
                        group.retain(|m| m.len > step);
                        shortest = group.iter().map(|m| m.len).min().unwrap_or(0);
                    }
                }
                group_ord += 1;
            }
        }
    }
}

/// Per-thread scratch of [`model_warp`], reused by every warp the thread
/// models.
#[derive(Default)]
struct Scratch {
    align: Alignment,
    addrs: Vec<(u64, u8)>,
    /// The previous global instruction of the warp: its lanes' accesses,
    /// its kind, and the runs it emitted.
    prev_addrs: Vec<(u64, u8)>,
    prev_access: Option<Access>,
    prev_runs: u32,
    local_accs: Vec<(u32, u8)>,
    atomic_addrs: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    /// The cache half of [`replay_warp`].
    static LINES: RefCell<Lines> = RefCell::new(Lines::default());
}

/// How a cache op reaches the caches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) enum Access {
    #[default]
    Load = 0,
    Store = 1,
    /// Resolves at L2, bypassing L1, and dirties its sectors
    /// (read-modify-write).
    Atomic = 2,
}

/// One line-granular request of a warp instruction: what the cache model
/// sees of it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct CacheOp {
    pub(crate) line: u64,
    pub(crate) mask: u8,
    pub(crate) access: Access,
}

impl CacheOp {
    /// Drive this op through an SM's L1 and the L2: loads and stores look
    /// up L1 and send its missed sectors to L2; atomics go to L2 alone.
    /// Counts the L1 requests, and what depends on the cache state: the
    /// L1 sector misses and the L2 sector requests and misses.
    #[inline]
    pub(crate) fn apply(self, l1: &mut Cache, l2: &mut Cache, counters: &mut Counters) {
        let CacheOp { line, mask, access } = self;
        let l2_mask = if access == Access::Atomic {
            mask
        } else {
            counters.l1_tag_requests_global += 1;
            counters.l1_sector_requests += mask.count_ones() as u64;
            let o = l1.access_inner(line, mask, access == Access::Store);
            counters.l1_sector_misses += o.sector_misses as u64;
            o.missed_mask
        };
        if l2_mask != 0 {
            let o2 = l2.access_inner(line, l2_mask, access != Access::Load);
            counters.l2_sector_requests += l2_mask.count_ones() as u64;
            counters.l2_sector_misses += o2.sector_misses as u64;
        }
    }
}

/// The L1 requests of global instructions that repeated their predecessor
/// and fit the L1.  Every sector of them hits, so these are all they
/// count.  A warp's stay far below 2^32.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Repeats {
    pub(crate) tags: u32,
    pub(crate) sectors: u32,
}

impl Repeats {
    pub(crate) fn add(&mut self, other: Repeats) {
        self.tags += other.tags;
        self.sectors += other.sectors;
    }

    /// Count these hits into an SM's L1 statistics and the counters.
    pub(crate) fn count(self, l1: &mut Cache, counters: &mut Counters) {
        let (tags, sectors) = (self.tags as u64, self.sectors as u64);
        l1.add_stats(&CacheStats {
            tag_requests: tags,
            sector_requests: sectors,
            ..CacheStats::default()
        });
        counters.l1_tag_requests_global += tags;
        counters.l1_sector_requests += sectors;
    }
}

/// What [`model_warp`] hands on of a global or atomic instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Consecutive lanes that touch one line: its base, the sectors.
    Run(u64, u8),
    /// The instruction whose runs came last is complete.
    End(Access),
    /// A global instruction that repeats the warp's previous one, which
    /// had this many runs.
    Repeat(u32),
}

/// Replay one warp's per-lane event streams (one phase) into the sinks.
///
/// `streams[lane]` is the ordered event list lane `lane` produced;
/// lanes beyond the launch boundary simply pass empty streams.
///
/// Replay allocates nothing per warp or per instruction: its buffers
/// live in per-thread scratch that every call clears and reuses, so
/// only a thread's first (or first wider) warp grows them.
///
/// Returns [`SimError::LaneDivergenceMismatch`] if lanes sharing a path
/// fall out of lockstep (an undeclared divergent branch in the kernel).
///
/// This is the serial composition of the engine's two halves: the
/// state-free `model_warp` hands each step straight to the cache half,
/// `Lines::step`.  It tests no instruction for a repeat, so it
/// coalesces and applies every one.
pub fn replay_warp(streams: &[Vec<Event>], sinks: &mut ReplaySinks<'_>) -> Result<(), SimError> {
    let geometry = Geometry {
        line_bytes: sinks.line_bytes,
        sector_bytes: sinks.sector_bytes,
        banks: sinks.banks,
        bank_width: sinks.bank_width,
    };
    let (l1, l2) = (&mut *sinks.l1, &mut *sinks.l2);
    let mut cached = Counters::default();
    let modelled = LINES.with(|lines| {
        let lines = &mut *lines.borrow_mut();
        // Forget the runs of an instruction that failed.
        lines.next.clear();
        model_warp(streams, geometry, sinks.counters, false, |step| {
            lines.step(step, l1, l2, &mut cached, None)
        })
    });
    sinks.counters.merge(&cached);
    modelled
}

/// The device parameters the state-free models of a warp read.
#[derive(Copy, Clone)]
pub(crate) struct Geometry {
    pub(crate) line_bytes: u32,
    pub(crate) sector_bytes: u32,
    pub(crate) banks: u32,
    pub(crate) bank_width: u32,
}

/// Emit the lines `accesses` touch as runs, merging consecutive accesses
/// that fall in one line, and return how many runs there were.
fn emit_runs(accesses: &[(u64, u8)], geometry: Geometry, emit: &mut impl FnMut(Step)) -> u32 {
    let (mut runs, mut run) = (0, (0, 0));
    let mut each = |line, mask| {
        if line != run.0 && run.1 != 0 {
            emit(Step::Run(run.0, run.1));
            runs += 1;
            run.1 = 0;
        }
        run = (line, run.1 | mask);
    };
    for &(addr, bytes) in accesses {
        access_lines(
            addr,
            bytes,
            geometry.line_bytes,
            geometry.sector_bytes,
            &mut each,
        );
    }
    if run.1 != 0 {
        emit(Step::Run(run.0, run.1));
        runs += 1;
    }
    runs
}

/// The state-free half of a warp's replay: align the lanes and model
/// divergence, shared-memory banks and atomic passes into `counters`, and
/// hand every global and atomic instruction to `emit` in issue order, as
/// its lanes' runs ([`Step::Run`], then [`Step::End`]).  Nothing here
/// reads cache state, so the steps can be taken anywhere later, as long as
/// they are taken in this order ([`Lines::step`]).  On a
/// [`SimError::LaneDivergenceMismatch`] the instructions before the
/// failing one have been emitted, and nothing of it.
///
/// With `repeats`, a global instruction that repeats the previous global
/// instruction of the warp (see the module docs) is one
/// [`Step::Repeat`]: it re-touches exactly that instruction's lines and
/// masks.  If they fit the L1, it takes no cache op: it is the same kind
/// of access as its predecessor, which left every line it touches
/// resident with those sectors filled (and dirty, for a store), and only
/// atomics, which bypass the L1, can come between.  So every access of it
/// would hit, reach no L2, set no sector or dirty bit, and re-stamp the
/// lines its predecessor stamped last, in the same order: the
/// LRU-canonical state of every cache stays as it is.
pub(crate) fn model_warp(
    streams: &[Vec<Event>],
    geometry: Geometry,
    counters: &mut Counters,
    repeats: bool,
    mut emit: impl FnMut(Step),
) -> Result<(), SimError> {
    let Geometry {
        sector_bytes,
        banks,
        bank_width,
        ..
    } = geometry;
    let sector_shift = sector_bytes.trailing_zeros();
    SCRATCH.with(|scratch| {
        let Scratch {
            align,
            addrs,
            prev_addrs,
            prev_access,
            prev_runs,
            local_accs,
            atomic_addrs,
        } = &mut *scratch.borrow_mut();
        // A warp repeats no instruction of the warp before it.
        *prev_access = None;
        align.for_each_instruction(streams, |group_ord, step, active| {
            let event = |m: &GroupLane| streams[m.lane][m.start + step];
            let mismatch = |m: &GroupLane, expected| SimError::LaneDivergenceMismatch {
                lane: m.lane as u32,
                expected,
                found: event(m).kind_name(),
            };
            // Divergence is counted over the path groups that actually
            // issue instructions: a one-sided `if (k == 0) ...` whose
            // other arm is empty compiles to predication, not a divergent
            // branch — which is why Table I row 13 is zero for every 3LP
            // variant despite their single-writer collapses.
            if group_ord > 0 {
                counters.replayed_instructions += 1;
                if step == 0 {
                    counters.divergent_branches += 1;
                }
            }

            match event(&active[0]) {
                Event::GlobalLoad { .. } | Event::GlobalStore { .. } => {
                    addrs.clear();
                    let mut access = Access::Load;
                    // Lane by lane, whether the first and last sector of the
                    // lane's access are those of the previous instruction's
                    // lane at the same place, with the same width.
                    let mut repeat = repeats && prev_addrs.len() == active.len();
                    for (k, m) in active.iter().enumerate() {
                        let (addr, bytes) = match event(m) {
                            Event::GlobalLoad { addr, bytes } => (addr, bytes),
                            Event::GlobalStore { addr, bytes } => {
                                access = Access::Store;
                                (addr, bytes)
                            }
                            _ => return Err(mismatch(m, "global access")),
                        };
                        if repeat {
                            let (p, p_bytes) = prev_addrs[k];
                            // Wrapping: a wild access may end past 2^64.
                            let end = |a: u64, b: u8| a.wrapping_add(b as u64 - 1);
                            let ends = end(addr, bytes) ^ end(p, p_bytes);
                            repeat = bytes == p_bytes && ((addr ^ p) | ends) >> sector_shift == 0;
                        }
                        addrs.push((addr, bytes));
                    }
                    let repeat = repeat && *prev_access == Some(access);
                    std::mem::swap(addrs, prev_addrs);
                    *prev_access = Some(access);
                    if repeat {
                        emit(Step::Repeat(*prev_runs));
                    } else {
                        *prev_runs = emit_runs(prev_addrs, geometry, &mut emit);
                        emit(Step::End(access));
                    }
                    if access == Access::Store {
                        counters.global_store_instructions += 1;
                    } else {
                        counters.global_load_instructions += 1;
                    }
                    counters.warp_instructions += 1;
                }
                Event::AtomicRmw { .. } => {
                    atomic_addrs.clear();
                    addrs.clear();
                    for m in active {
                        let Event::AtomicRmw { addr, bytes } = event(m) else {
                            return Err(mismatch(m, "atomic rmw"));
                        };
                        atomic_addrs.push(addr);
                        addrs.push((addr, bytes));
                    }
                    let a = model_atomic_instruction(atomic_addrs);
                    counters.atomic_passes += a.passes;
                    counters.atomic_instructions += 1;
                    emit_runs(addrs, geometry, &mut emit);
                    emit(Step::End(Access::Atomic));
                    counters.warp_instructions += a.passes;
                }
                Event::LocalLoad { .. } | Event::LocalStore { .. } => {
                    local_accs.clear();
                    for m in active {
                        match event(m) {
                            Event::LocalLoad { offset, bytes }
                            | Event::LocalStore { offset, bytes } => {
                                local_accs.push((offset, bytes))
                            }
                            _ => return Err(mismatch(m, "local access")),
                        }
                    }
                    let r = model_shared_instruction(local_accs, banks, bank_width);
                    counters.shared_wavefronts += r.wavefronts;
                    counters.shared_wavefronts_ideal += r.ideal_wavefronts;
                    counters.local_instructions += 1;
                    counters.warp_instructions += r.wavefronts.max(1);
                }
                Event::Flops(_) => {
                    let mut worst = 0u64;
                    for m in active {
                        let Event::Flops(n) = event(m) else {
                            return Err(mismatch(m, "flops"));
                        };
                        counters.flops += n as u64;
                        worst = worst.max(n as u64);
                    }
                    // An fp64 FMA retires 2 FLOPs per lane per slot,
                    // so a batched Flops(n) event occupies ceil(n/2)
                    // issue slots (the A100's fp64 pipe issues one
                    // warp FMA per SM per cycle).
                    counters.warp_instructions += worst.div_ceil(2).max(1);
                }
                Event::Iops(_) => {
                    for m in active {
                        let Event::Iops(n) = event(m) else {
                            return Err(mismatch(m, "iops"));
                        };
                        counters.iops += n as u64;
                    }
                    counters.warp_instructions += 1;
                }
                Event::SetPath(_) => {
                    debug_assert!(false, "SetPath inside a segment is impossible");
                }
            }
            Ok(())
        })
    })
}

/// The cache half of a warp's replay, the line step: it coalesces each
/// instruction's runs into its lines, drives them through an SM's L1 and
/// the L2, and decides whether a repeat fits the L1.  The engine keeps one
/// on its cache thread; [`replay_warp`] keeps one per thread.
#[derive(Default)]
pub(crate) struct Lines {
    /// The previous global instruction's lines and kind.
    prev: Vec<(u64, u8)>,
    access: Access,
    /// The lines of the instruction whose runs are coming.
    next: Vec<(u64, u8)>,
}

impl Lines {
    /// Line step of a device whose warps have `warp_size` lanes, with
    /// room for any instruction's lines (an access of at most 255 bytes
    /// touches few), so that it never allocates.
    pub(crate) fn new(warp_size: u32, line_bytes: u32) -> Self {
        let lines = warp_size as usize * (u8::MAX as usize / line_bytes as usize + 2);
        let (prev, next) = (Vec::with_capacity(lines), Vec::with_capacity(lines));
        let access = Access::Load;
        Self { prev, access, next }
    }

    /// Take one of [`model_warp`]'s steps, through `l1` and `l2`.  Each op
    /// applied and each repeat counted as hits goes to the `recorder` too.
    #[inline]
    pub(crate) fn step(
        &mut self,
        step: Step,
        l1: &mut Cache,
        l2: &mut Cache,
        counters: &mut Counters,
        mut recorder: Option<&mut Recorder>,
    ) {
        let (lines, access) = match step {
            Step::Run(line, mask) => return merge_line(&mut self.next, line, mask),
            Step::End(access) => {
                if access != Access::Atomic {
                    std::mem::swap(&mut self.prev, &mut self.next);
                    self.access = access;
                    self.next.clear();
                    (&self.prev, access)
                } else {
                    (&self.next, access)
                }
            }
            Step::Repeat(_) if l1.fits(&self.prev) => {
                let repeats = Repeats {
                    tags: self.prev.len() as u32,
                    sectors: self.prev.iter().map(|&(_, m)| m.count_ones()).sum(),
                };
                repeats.count(l1, counters);
                if let Some(r) = recorder {
                    r.repeat(repeats);
                }
                return;
            }
            Step::Repeat(_) => (&self.prev, self.access),
        };
        for &(line, mask) in lines {
            let op = CacheOp { line, mask, access };
            op.apply(l1, l2, counters);
            if let Some(r) = recorder.as_deref_mut() {
                r.put(op);
            }
        }
        if access == Access::Atomic {
            self.next.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, LruSnapshot};
    use crate::memo::OpLog;
    use proptest::prelude::*;

    fn sinks_with<'a>(
        l1: &'a mut Cache,
        l2: &'a mut Cache,
        counters: &'a mut Counters,
    ) -> ReplaySinks<'a> {
        ReplaySinks {
            l1,
            l2,
            counters,
            line_bytes: 128,
            sector_bytes: 32,
            banks: 32,
            bank_width: 4,
        }
    }

    fn caches() -> (Cache, Cache) {
        let l1 = Cache::new(CacheConfig {
            capacity: 128 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        let l2 = Cache::new(CacheConfig {
            capacity: 1024 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 16,
        });
        (l1, l2)
    }

    #[test]
    fn coalesced_warp_load() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 4096 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_tag_requests_global, 2); // 256 B = 2 lines
        assert_eq!(c.l1_sector_requests, 8);
        assert_eq!(c.l1_sector_misses, 8); // cold
        assert_eq!(c.l2_sector_misses, 8);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn second_pass_hits_l1() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.l1_sector_requests, 16);
        assert_eq!(c.l1_sector_misses, 8); // second instruction hits
    }

    #[test]
    fn divergent_paths_are_serialized_and_counted() {
        // Even lanes take path 1, odd lanes path 2; each does one flop op.
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![
                    Event::SetPath(1 + (i % 2)),
                    Event::Flops(1),
                    Event::SetPath(0),
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 1);
        assert_eq!(c.flops, 32);
        // Two serialized path groups, one flop step each.
        assert_eq!(c.warp_instructions, 2);
        assert_eq!(c.replayed_instructions, 1);
    }

    #[test]
    fn uniform_path_is_not_divergent() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| vec![Event::SetPath(7), Event::Flops(2), Event::SetPath(0)])
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 0);
        assert_eq!(c.flops, 64);
    }

    #[test]
    fn atomic_collision_passes() {
        // All 32 lanes atomically update the same address.
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| {
                vec![Event::AtomicRmw {
                    addr: 8192,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.atomic_instructions, 1);
        assert_eq!(c.atomic_passes, 32);
        // Atomics bypass L1 entirely.
        assert_eq!(c.l1_sector_requests, 0);
        assert_eq!(c.l2_sector_requests, 1);
    }

    #[test]
    fn shared_conflicts_counted() {
        // The 16-byte-stride local store pattern (4-way conflict).
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![Event::LocalStore {
                    offset: i * 16,
                    bytes: 16,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.local_instructions, 1);
        assert_eq!(c.shared_wavefronts, 16);
        assert_eq!(c.excessive_shared_wavefronts(), 12);
    }

    #[test]
    fn early_exit_lanes_drop_out() {
        // Lanes 0..8 do work; the rest returned immediately.
        let mut streams: Vec<Vec<Event>> = (0..8)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 1024 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        streams.extend((8..32).map(|_| Vec::new()));
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_sector_requests, 2); // 64 contiguous bytes
    }

    #[test]
    fn ragged_early_return_lanes_are_handled() {
        // A padded-grid bounds guard: half the lanes emit one event and
        // return; the rest continue with more work.  The replayer must
        // keep the survivors in lockstep instead of misaligning events.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i < 16 {
                    vec![
                        Event::Iops(1),
                        Event::GlobalLoad {
                            addr: 4096 + i * 8,
                            bytes: 8,
                        },
                        Event::Flops(2),
                    ]
                } else {
                    vec![Event::Iops(1)]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        // Only the 16 surviving lanes' addresses coalesce: 128 B = 1 line.
        assert_eq!(c.l1_tag_requests_global, 1);
        assert_eq!(c.flops, 32);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn undeclared_divergence_is_an_error() {
        // Lane 1 issues a store where the rest of the warp issues a
        // load, without any set_path declaration: the replayer must
        // surface a recoverable error, not a debug-only assertion.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i == 1 {
                    vec![Event::LocalStore {
                        offset: 0,
                        bytes: 8,
                    }]
                } else {
                    vec![Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    }]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        let err = replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap_err();
        assert_eq!(
            err,
            SimError::LaneDivergenceMismatch {
                lane: 1,
                expected: "global access",
                found: "local store",
            }
        );
    }

    /// Counters and cache statistics of one warp replayed into fresh
    /// caches and counters.
    fn replay_fresh(streams: &[Vec<Event>]) -> (Counters, CacheStats, CacheStats) {
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        (c, *l1.stats(), *l2.stats())
    }

    /// Three path groups with different instruction mixes and a
    /// predicated-off empty one, then a second, uniform segment.
    fn divergent_warp() -> Vec<Vec<Event>> {
        (0..32u32)
            .map(|i| {
                let mut s = vec![Event::Iops(1), Event::SetPath(1 + i % 4)];
                match i % 4 {
                    0 => s.extend([
                        Event::GlobalLoad {
                            addr: 4096 + i as u64 * 8,
                            bytes: 8,
                        },
                        Event::Flops(4),
                    ]),
                    1 => s.push(Event::LocalStore {
                        offset: i * 16,
                        bytes: 16,
                    }),
                    2 => s.push(Event::Iops(2)),
                    _ => {}
                }
                s.extend([
                    Event::SetPath(0),
                    Event::GlobalStore {
                        addr: 8192 + i as u64 * 8,
                        bytes: 8,
                    },
                ]);
                s
            })
            .collect()
    }

    /// An 8-lane warp whose lanes return after 1..=8 events.
    fn ragged_warp() -> Vec<Vec<Event>> {
        (0..8u64)
            .map(|i| {
                (0..=i)
                    .map(|step| Event::AtomicRmw {
                        addr: 512 + (i % 2) * 8 + step * 1024,
                        bytes: 8,
                    })
                    .collect()
            })
            .collect()
    }

    /// A full warp touching every model once.
    fn full_warp() -> Vec<Vec<Event>> {
        (0..32u64)
            .map(|i| {
                vec![
                    Event::GlobalLoad {
                        addr: 4096 + i * 48,
                        bytes: 8,
                    },
                    Event::LocalLoad {
                        offset: (i * 8) as u32,
                        bytes: 8,
                    },
                    Event::AtomicRmw {
                        addr: 2048 + (i % 4) * 16,
                        bytes: 8,
                    },
                    Event::Flops(2),
                ]
            })
            .collect()
    }

    #[test]
    fn reused_scratch_replays_like_a_fresh_thread() {
        // One thread replays a divergent, a ragged 8-lane and a full
        // warp back to back, so each replay starts from the scratch the
        // previous, differently shaped warp left behind.
        let warps = [divergent_warp(), ragged_warp(), full_warp()];
        let reused: Vec<_> = warps.iter().map(|w| replay_fresh(w)).collect();
        assert_eq!(reused[0].0.divergent_branches, 2);
        assert_eq!(reused[1].0.atomic_instructions, 8);
        for (warp, got) in warps.into_iter().zip(&reused) {
            let fresh = std::thread::spawn(move || replay_fresh(&warp))
                .join()
                .expect("replay thread panicked");
            assert_eq!(*got, fresh);
        }
    }

    #[test]
    fn warps_wider_than_the_stack_scratch_replay() {
        // 96 lanes: the bank and atomic models spill to the heap.
        let streams: Vec<Vec<Event>> = (0..96u32)
            .map(|i| {
                vec![
                    Event::LocalStore {
                        offset: i * 16,
                        bytes: 16,
                    },
                    Event::AtomicRmw {
                        addr: 8192,
                        bytes: 8,
                    },
                ]
            })
            .collect();
        let (c, _, _) = replay_fresh(&streams);
        // 12 words per bank in each of the four 4-byte phases.
        assert_eq!(c.shared_wavefronts, 48);
        assert_eq!(c.atomic_passes, 96);
    }

    #[test]
    fn empty_warp_is_noop() {
        let streams: Vec<Vec<Event>> = (0..32).map(|_| Vec::new()).collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c, Counters::default());
    }

    /// A cache of `sets` × `ways` lines of 128 bytes.
    fn cache(sets: u64, ways: u32) -> Cache {
        Cache::new(CacheConfig {
            capacity: sets * ways as u64 * 128,
            line_bytes: 128,
            sector_bytes: 32,
            ways,
        })
    }

    const GEOMETRY: Geometry = Geometry {
        line_bytes: 128,
        sector_bytes: 32,
        banks: 32,
        bank_width: 4,
    };

    /// A warp as the engine takes it: `model_warp` testing repeats, and
    /// its steps taken on one line step into `l1` and `l2` and recorded.
    /// Returns the warp's recorded op count and repeats.
    fn model_eliding(
        streams: &[Vec<Event>],
        l1: &mut Cache,
        l2: &mut Cache,
        counters: &mut Counters,
    ) -> (u32, Repeats) {
        let mut recorder = Recorder::new(OpLog::default(), 128);
        recorder.supply(OpLog::room(1));
        recorder.begin();
        let (mut lines, mut cached) = (Lines::new(32, 128), Counters::default());
        model_warp(streams, GEOMETRY, counters, true, |step| {
            lines.step(step, l1, l2, &mut cached, Some(&mut recorder))
        })
        .unwrap();
        counters.merge(&cached);
        recorder.log.warps[0]
    }

    #[test]
    fn a_repeat_is_elided_only_where_its_lines_fit_the_l1() {
        // Complex numbers loaded as two 8-byte halves: both halves touch
        // the same four lines, 32 to 35, with every sector.
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                let addr = 4096 + i * 16;
                [addr, addr + 8]
                    .map(|addr| Event::GlobalLoad { addr, bytes: 8 })
                    .to_vec()
            })
            .collect();
        // (sets, ways, whether the second half is elided): four lines fit
        // one set of four ways, four sets of one way (they span fewer
        // line numbers than there are sets), and two sets of two ways
        // (two lines per set, counted), but not one set of two ways or
        // two sets of one way.  The counted fit comes last, after counts
        // that did not fit.
        for (sets, ways, elided) in [
            (1, 4, true),
            (4, 1, true),
            (1, 2, false),
            (2, 1, false),
            (2, 2, true),
        ] {
            let (mut l1, mut l2) = (cache(sets, ways), cache(64, 4));
            let mut c = Counters::default();
            let (ops, repeats) = model_eliding(&streams, &mut l1, &mut l2, &mut c);
            let want = if elided { (4, 4, 16) } else { (8, 0, 0) };
            assert_eq!((ops, repeats.tags, repeats.sectors), want, "{sets}x{ways}");
            assert_eq!(c.l1_tag_requests_global, 8);
            assert_eq!(c.l1_sector_requests, 32);
            assert_eq!(l1.stats().tag_requests, 8);
        }
    }

    /// Lanes of the generated warps: few, so that an instruction's lines
    /// outnumber a small L1's ways only sometimes.
    const LANES: usize = 8;
    /// Lane strides, widths and moves of the generated global instructions:
    /// lanes within one sector, across sectors and across lines.
    const STRIDES: [u64; 4] = [8, 16, 40, 136];
    const WIDTHS: [u8; 3] = [4, 8, 16];
    const MOVES: [u64; 6] = [0, 4, 8, 16, 32, 128];

    /// One warp from instruction specs `(kind, a, b, c)`:
    ///
    /// * kinds 0 and 1 load and store at fresh addresses: lane `i` at
    ///   `a · 24 + i · STRIDES[b]`, `WIDTHS[c]` bytes;
    /// * kinds 2 and 3 load and store where the previous global
    ///   instruction did, moved by `MOVES[b]` bytes, so that some are
    ///   repeats and some are not;
    /// * kind 4 is an atomic and kind 5 a local load.
    ///
    /// Lane `i` returns after `exits[i]` instructions.
    fn generated_warp(specs: &[(u8, u64, u8, u8)], exits: &[usize]) -> Vec<Vec<Event>> {
        let mut global = (1 << 16, STRIDES[0], WIDTHS[0]);
        let events: Vec<_> = specs
            .iter()
            .map(|&(kind, a, b, c)| {
                let (b, c) = (b as usize, c as usize);
                match kind {
                    0 | 1 => global = ((1 << 16) + a * 24, STRIDES[b % 4], WIDTHS[c % 3]),
                    2 | 3 => global.0 += MOVES[b % 6],
                    _ => {}
                }
                let (base, stride, bytes) = global;
                move |lane: u64| {
                    let addr = base + lane * stride;
                    match kind {
                        0 | 2 => Event::GlobalLoad { addr, bytes },
                        1 | 3 => Event::GlobalStore { addr, bytes },
                        4 => Event::AtomicRmw {
                            addr: (1 << 16) + a * 8,
                            bytes: 8,
                        },
                        _ => Event::LocalLoad {
                            offset: lane as u32 * 8,
                            bytes: 8,
                        },
                    }
                }
            })
            .collect();
        (0..LANES)
            .map(|lane| {
                events[..exits[lane].min(events.len())]
                    .iter()
                    .map(|event| event(lane as u64))
                    .collect()
            })
            .collect()
    }

    /// Every cache in LRU-canonical form.
    fn snapshot(caches: [&Cache; 2]) -> LruSnapshot {
        let mut snap = LruSnapshot::default();
        caches.iter().for_each(|c| snap.push(c));
        snap
    }

    #[test]
    fn elided_repeats_replay_like_their_ops_on_small_l1s() {
        // The proptest loop written out, to count what all cases elide.
        let mut rng = proptest::TestRng::deterministic("elided_repeats");
        let mut elided = 0;
        for case in 0..200 {
            let (sets, ways) = ((1u64..=8).pick(&mut rng), (1u32..=4).pick(&mut rng));
            let warps: Vec<_> = (0..(1usize..6).pick(&mut rng))
                .map(|_| {
                    let specs = (0u8..6, 0u64..40, 0u8..6, 0u8..3);
                    let specs = proptest::collection::vec(specs, 1..14).pick(&mut rng);
                    let exits = proptest::collection::vec(0usize..16, LANES..LANES + 1);
                    (specs, exits.pick(&mut rng))
                })
                .collect();
            let [mut l1, mut l2, mut oracle_l1, mut oracle_l2] = [
                cache(sets, ways),
                cache(16, 2),
                cache(sets, ways),
                cache(16, 2),
            ];
            let (mut c, mut oracle) = (Counters::default(), Counters::default());
            for (w, (specs, exits)) in warps.iter().enumerate() {
                let streams = generated_warp(specs, exits);
                let what = format!("case {case} ({sets}x{ways}), warp {w}: {streams:?}");
                elided += model_eliding(&streams, &mut l1, &mut l2, &mut c).1.tags;
                let mut sinks = ReplaySinks {
                    l1: &mut oracle_l1,
                    l2: &mut oracle_l2,
                    counters: &mut oracle,
                    line_bytes: 128,
                    sector_bytes: 32,
                    banks: 32,
                    bank_width: 4,
                };
                replay_warp(&streams, &mut sinks).unwrap();
                prop_assert_eq!(c, oracle, "{}", what);
                prop_assert_eq!(l1.stats(), oracle_l1.stats(), "{}", what);
                prop_assert_eq!(l2.stats(), oracle_l2.stats(), "{}", what);
                let snaps = [snapshot([&l1, &l2]), snapshot([&oracle_l1, &oracle_l2])];
                prop_assert!(snaps[0].equivalent(&snaps[1]), "{}", what);
            }
        }
        assert!(elided > 100, "only {elided} lines elided");
    }
}
