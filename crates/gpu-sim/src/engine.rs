//! The launch engine: group scheduling, phase execution, warp replay.
//!
//! Work-groups are assigned to SMs round-robin (group `g` runs on SM
//! `g % num_sms`), the static equivalent of the hardware's greedy block
//! scheduler for a uniform kernel.  Each SM owns an L1 cache whose state
//! persists across the groups it runs; the L2 is shared.
//!
//! Every launch is split at the access into two halves on two threads.
//! The calling thread runs, group by group in group-id order, everything
//! that touches device memory or reads no line: the lanes, which fold
//! each event into their warp's memo digest as they record it when the
//! launch is remembered (`memo.rs`), the sanitizer, the memo's tier
//! decisions, and the alignment, divergence, bank, atomic-pass and repeat
//! models (`warp::model_warp`), so a [`SimError::LaneDivergenceMismatch`]
//! is raised before any later lane runs.  A remembered launch that stops
//! matching its record, or has none, also keeps a table of one entry per
//! warp slot of a group (phase × warp index): the digest and counters of
//! the last warp of the slot that sent no cache command.  A later warp of
//! the launch with that digest is answered from the table: its streams
//! alone decide what it adds.  What is left is one stream of commands in
//! issue order: per modelled or table-answered warp its SM, then each
//! global or atomic instruction of a modelled warp as its lanes'
//! accesses, merged into runs of consecutive lanes in one line, or as one
//! repeat of the previous global instruction; per warp answered from the
//! record, one replay of the recorded warp.  The calling thread sends it
//! in batches over a bounded channel to a scoped cache thread.
//!
//! The cache thread owns the L1s, the L2 and the memo's op record.  It
//! takes the commands in the order sent (the line step, `warp::Lines`):
//! it coalesces each instruction's runs into lines and drives them
//! through the SM's L1 and the L2, decides whether a repeat's lines fit
//! its L1 (then they would all hit and leave every cache LRU-equivalent,
//! `model_warp` gives the argument, so they only count as hits), appends
//! each warp's ops and repeats to the record, and decodes and drives a
//! recorded warp for a replay.  It counts the L1 requests and the
//! counters that depend on cache state.  It allocates nothing, so every
//! buffer of a launch comes from the calling thread's heap: it sends a
//! chunk for the record with every batch.  A batch is cut by the work it
//! hands over, its length plus each repeat's runs and each replayed
//! warp's recorded ops, so that a launch that replays starts the cache
//! thread after a few warps.
//!
//! The split is deterministic because nothing flows back during a
//! launch: no counter or decision of the calling thread reads a line or
//! a cache, and the cache thread sees the instructions of a one-thread
//! replay in the same order, less the repeats that fit, which change no
//! cache's LRU-canonical state ([`replay_warp`](crate::warp::replay_warp)
//! is the serial composition of the same two halves, applying every
//! repeat's ops).  The snapshots of the memo's fixed-point check are
//! taken while the caches are at rest: on entry before the cache thread
//! starts, on exit after it is joined.  Groups meet the one shared L2 in
//! group-id order, which approximates temporal interleaving because
//! consecutive groups run on *different* SMs round-robin, just as on
//! hardware.
//!
//! The cache thread starts with a launch's first full batch.  A launch
//! with less cache work than one batch (a [`Replay::Memo`] launch has
//! none) applies it on the calling thread at its end, where nothing would
//! overlap it, and starts no thread.

use crate::cache::{Cache, CacheConfig, CacheStats, LruSnapshot};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::event::Event;
use crate::kernel::{Kernel, KernelResources, Lane};
use crate::memo::{LaunchShape, Memo, OpLog, Recorder, Room, Steady, StreamDigest, BATCH_OPS};
use crate::memory::DeviceMemory;
use crate::ndrange::NdRange;
use crate::occupancy::{occupancy, Occupancy};
use crate::sanitizer::{Sanitizer, SanitizerConfig, SanitizerReport};
use crate::sharedmem::LocalMem;
use crate::timing::TimingModel;
use crate::warp::{model_warp, Geometry, Lines, Step};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

/// Persistent cache state of the simulated device, carried across
/// kernel launches.  The paper's Table I profiles "specifically, the
/// second kernel launch" and its durations are means over 100
/// iterations — i.e. *warm* caches: the source vector and neighbor
/// tables of one iteration are still resident when the next begins.
/// Create one `DeviceState` and pass it to
/// [`Launcher::launch_with_state`] repeatedly to model that; the plain
/// [`Launcher::launch`] starts cold.
///
/// The state also remembers its last launch (the launch memo,
/// `memo.rs`): a launch that repeats the previous one's shape and event
/// streams replays only its cache ops, or nothing when that launch left
/// the caches as it found them.
pub struct DeviceState {
    l1s: Vec<Cache>,
    l2: Cache,
    launches: u64,
    memo: Option<Memo>,
    /// Reused buffers: the caches on entry to and exit from a launch
    /// that may end at a fixed point.
    entry: LruSnapshot,
    exit: LruSnapshot,
}

/// The L1 and L2 configurations of `device`.
fn cache_configs(device: &DeviceSpec) -> (CacheConfig, CacheConfig) {
    let l1 = CacheConfig {
        capacity: device.l1_bytes as u64,
        line_bytes: device.line_bytes,
        sector_bytes: device.sector_bytes,
        ways: device.l1_ways,
    };
    let l2 = CacheConfig {
        capacity: device.l2_bytes,
        line_bytes: device.line_bytes,
        sector_bytes: device.sector_bytes,
        ways: device.l2_ways,
    };
    (l1, l2)
}

impl DeviceState {
    /// Fresh (cold) state for a device.
    pub fn new(device: &DeviceSpec) -> Self {
        let (l1_cfg, l2_cfg) = cache_configs(device);
        Self {
            l1s: (0..device.num_sms as usize)
                .map(|_| Cache::new(l1_cfg))
                .collect(),
            l2: Cache::new(l2_cfg),
            launches: 0,
            memo: None,
            entry: LruSnapshot::default(),
            exit: LruSnapshot::default(),
        }
    }

    /// Number of launches executed against this state.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Refuse a device whose SM count or cache geometry this state was
    /// not built for.
    fn check(&self, device: &DeviceSpec) -> Result<(), SimError> {
        if self.l1s.len() != device.num_sms as usize {
            return Err(SimError::DeviceStateMismatch {
                state_sms: self.l1s.len() as u32,
                device_sms: device.num_sms,
            });
        }
        let (l1, l2) = cache_configs(device);
        let levels = self
            .l1s
            .first()
            .map(|c| ("L1", *c.config(), l1))
            .into_iter()
            .chain([("L2", *self.l2.config(), l2)]);
        for (level, have, want) in levels {
            if let Some((field, state, device)) = have.first_difference(&want) {
                return Err(SimError::DeviceStateCacheMismatch {
                    level,
                    field,
                    state,
                    device,
                });
            }
        }
        Ok(())
    }
}

/// Every cache of a state in LRU-canonical form, into `snap`.
fn snapshot(l1s: &[Cache], l2: &Cache, snap: &mut LruSnapshot) {
    snap.clear();
    for l1 in l1s {
        snap.push(l1);
    }
    snap.push(l2);
}

/// Which tier of its state's launch memo answered a launch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Replay {
    /// Some or all warps went through every replay model.
    Full,
    /// Every warp repeated the last launch: only its cache ops replayed.
    Cache,
    /// Every warp repeated a launch at a cache fixed point: nothing was.
    Memo,
}

impl Replay {
    /// `full`, `cache` or `memo`.
    pub fn name(self) -> &'static str {
        match self {
            Replay::Full => "full",
            Replay::Cache => "cache",
            Replay::Memo => "memo",
        }
    }
}

/// Everything a launch produces besides its memory side effects.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub range: NdRange,
    /// Declared kernel resources at this local size.
    pub resources: KernelResources,
    /// Occupancy analysis.
    pub occupancy: Occupancy,
    /// Measured event counters.
    pub counters: Counters,
    /// L1 statistics summed over SMs.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// Modelled kernel duration in microseconds.
    pub duration_us: f64,
    /// Host wall time the *simulation* of this launch took, µs — the
    /// cost of running the model, not a property of the modelled
    /// device.  Tracing surfaces it next to `duration_us` so timelines
    /// show modelled vs simulation time per launch.
    pub host_wall_us: f64,
    /// Sanitizer findings, when the launcher was configured with
    /// [`Launcher::with_sanitizer`]; `None` for unsanitized launches.
    pub sanitizer: Option<SanitizerReport>,
    /// Which tier of its state's launch memo answered the launch.  Every
    /// other field but `host_wall_us` is the same whichever did.
    pub replay: Replay,
}

impl LaunchReport {
    /// Achieved GFLOP/s based on the kernel-recorded FLOPs.
    pub fn gflops(&self) -> f64 {
        if self.duration_us <= 0.0 {
            0.0
        } else {
            self.counters.flops as f64 / self.duration_us / 1e3
        }
    }

    /// Scheduling waves the launch needed (grid groups over resident
    /// groups across the device) — the quantity an autotuner watches,
    /// since a fractional last wave is pure tail.
    pub fn waves(&self) -> f64 {
        self.occupancy.waves
    }

    /// Fraction of the launch spent in the partial last wave: 0 for a
    /// whole number of waves, approaching 1 when a nearly-empty tail
    /// wave holds the device.  Candidates with equal arithmetic but a
    /// smaller tail fraction finish sooner; exposed so tuning reports
    /// can attribute *why* a local size won.
    pub fn tail_fraction(&self) -> f64 {
        self.occupancy.tail_fraction()
    }
}

/// Configurable kernel launcher.
pub struct Launcher<'d> {
    device: &'d DeviceSpec,
    sanitizer: Option<SanitizerConfig>,
}

impl<'d> Launcher<'d> {
    /// A launcher pricing launches with the calibrated timing model.
    pub fn new(device: &'d DeviceSpec) -> Self {
        Self {
            device,
            sanitizer: None,
        }
    }

    /// Enable the sanitizer for every launch through this launcher.
    /// Sanitized lanes run tolerant: invalid accesses become findings
    /// instead of panics.  Performance counters and timing are still
    /// produced as usual.
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitizer = Some(cfg);
        self
    }

    /// Launch a kernel and simulate it to completion with cold caches.
    pub fn launch(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
    ) -> Result<LaunchReport, SimError> {
        // The state dies with the launch: nothing to remember.
        let mut state = DeviceState::new(self.device);
        self.run(kernel, range, mem, &mut state, false)
    }

    /// Launch against persistent cache state (warm launches).  A state
    /// built for a device with a different SM count or cache geometry
    /// is refused with [`SimError::DeviceStateMismatch`] or
    /// [`SimError::DeviceStateCacheMismatch`].
    ///
    /// The state remembers an unsanitized launch warp by warp (the launch
    /// memo).  A launch of the same shape replays only the recorded cache
    /// ops of the warps whose event streams match the record
    /// ([`Replay::Cache`]), or nothing at a cache fixed point
    /// ([`Replay::Memo`]); from the first warp that does not match on, it
    /// replays and records in full.  Reports are bitwise the same either
    /// way, `host_wall_us` and `replay` aside.
    pub fn launch_with_state(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        state: &mut DeviceState,
    ) -> Result<LaunchReport, SimError> {
        self.run(kernel, range, mem, state, true)
    }

    /// Both launches' body: `remember` says whether `state` outlives the
    /// launch, so that recording it pays off.
    fn run(
        &self,
        kernel: &dyn Kernel,
        range: NdRange,
        mem: &DeviceMemory,
        state: &mut DeviceState,
        remember: bool,
    ) -> Result<LaunchReport, SimError> {
        let host_start = std::time::Instant::now();
        state.check(self.device)?;
        range.validate(self.device)?;
        if kernel.num_phases() == 0 {
            return Err(SimError::NoPhases);
        }
        let res = kernel.resources(range.local);
        let occ = occupancy(self.device, range.local, &res, range.num_groups())?;
        let report = |counters: Counters,
                      l1_stats: CacheStats,
                      l2_stats: CacheStats,
                      sanitizer: Option<SanitizerReport>,
                      replay: Replay| LaunchReport {
            kernel: kernel.name().to_string(),
            range,
            resources: res,
            occupancy: occ,
            counters,
            l1_stats,
            l2_stats,
            duration_us: TimingModel::calibrated().duration_us(&counters, &occ, self.device),
            host_wall_us: host_start.elapsed().as_secs_f64() * 1e6,
            sanitizer,
            replay,
        };

        // Only an unsanitized launch consults or leaves a memo.  Taking it
        // now means a launch that fails leaves none.
        let shape = LaunchShape::new(self.device, range, &res, kernel.num_phases());
        let last = state.memo.take().filter(|m| m.shape == shape);
        let mut walk = (remember && self.sanitizer.is_none())
            .then(|| Walk::new(last, shape, self.device, &mut state.entry));
        if let Some(w) = walk.as_mut().filter(|w| w.tier == Replay::Cache) {
            // Driving recorded ops may end at a fixed point.
            w.snapshot(&state.l1s, &state.l2);
        }

        // Shadow state snapshots the init bitmap now, before any kernel
        // event; the linter runs up front.
        let mut san = self.sanitizer.as_ref().map(|cfg| {
            let mut s =
                Sanitizer::new(cfg.clone(), mem, res.local_mem_bytes_per_group, range.local);
            s.lint(
                self.device,
                &range,
                &res,
                kernel.num_phases(),
                kernel.local_size_multiple(),
            );
            s
        });
        let l1_before: Vec<CacheStats> = state.l1s.iter().map(|c| *c.stats()).collect();
        let l2_before = *state.l2.stats();
        let mut counters = Counters::default();
        let mut exec = GroupExecutor::new(kernel, range, self.device, mem, res);
        let caches = Caches {
            l1s: &mut state.l1s,
            l2: &mut state.l2,
            sm: 0,
            counters: Counters::default(),
            lines: Lines::new(self.device.warp_size, self.device.line_bytes),
            recorder: walk
                .as_mut()
                .map(|w| Recorder::new(std::mem::take(&mut w.memo.ops), self.device.line_bytes)),
        };
        let (ran, (cached, record)) = std::thread::scope(|scope| {
            let mut pipe = Pipe::new(scope, caches);
            let ran = (0..range.num_groups()).try_for_each(|g| {
                exec.run_group(g, &mut counters, san.as_mut(), walk.as_mut(), &mut pipe)
            });
            // A failed launch still applies the steps its lanes issued.
            (ran, pipe.finish())
        });
        ran?;
        counters.merge(&cached);
        state.launches += 1;

        let upper = walk.as_ref().filter(|w| w.tier == Replay::Memo);
        if let Some(steady) = upper.and_then(|w| w.memo.steady.as_ref()) {
            // Every warp repeated a launch at the fixed point: its
            // deferred ops would leave the caches as they are.
            for (c, d) in state.l1s.iter_mut().zip(&steady.l1) {
                c.add_stats(d);
            }
            state.l2.add_stats(&steady.l2);
            counters = steady.counters;
        }
        // Report this launch's cache deltas, not the lifetime sums.
        let l1: Vec<CacheStats> = state
            .l1s
            .iter()
            .zip(&l1_before)
            .map(|(c, before)| delta(c.stats(), before))
            .collect();
        let mut l1_stats = CacheStats::default();
        for d in &l1 {
            l1_stats.merge(d);
        }
        let l2_stats = delta(state.l2.stats(), &l2_before);
        let replay = walk.as_ref().map_or(Replay::Full, |w| w.tier);
        if let Some(mut w) = walk {
            if w.snapped {
                snapshot(&state.l1s, &state.l2, &mut state.exit);
                if state.exit.equivalent(w.entry) {
                    w.memo.steady = Some(Steady {
                        counters,
                        l1,
                        l2: l2_stats,
                    });
                }
            }
            w.memo
                .restore(record.expect("a walk lends the cache half its record"));
            state.memo = Some(w.memo);
        }
        Ok(report(
            counters,
            l1_stats,
            l2_stats,
            san.map(Sanitizer::into_report),
            replay,
        ))
    }
}

/// Per-launch difference of two cache-stat snapshots.
fn delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        tag_requests: after.tag_requests - before.tag_requests,
        sector_requests: after.sector_requests - before.sector_requests,
        sector_misses: after.sector_misses - before.sector_misses,
        evictions: after.evictions - before.evictions,
        writeback_sectors: after.writeback_sectors - before.writeback_sectors,
    }
}

/// A launch's walk over its state's memo, warp by warp in launch order.
struct Walk<'s> {
    memo: Memo,
    /// The tier answering the launch so far: `Full` without a record of
    /// this shape, and from the first warp that does not repeat it on.
    tier: Replay,
    /// Warps run so far, and per group (phases included).
    warp: usize,
    group_warps: usize,
    num_sms: usize,
    /// The caches on entry, once `snapped`.
    entry: &'s mut LruSnapshot,
    snapped: bool,
    /// Per warp slot of a group (phase × warp index), the digest and
    /// counters of the last warp modelled there in this launch that sent
    /// no cache command; empty until the first.
    table: Vec<Option<(u128, Counters)>>,
}

impl<'s> Walk<'s> {
    fn new(
        last: Option<Memo>,
        shape: LaunchShape,
        device: &DeviceSpec,
        entry: &'s mut LruSnapshot,
    ) -> Self {
        let (memo, tier) = match last {
            Some(m) if m.steady.is_some() => (m, Replay::Memo),
            Some(m) => (m, Replay::Cache),
            None => (Memo::new(shape), Replay::Full),
        };
        Self {
            memo,
            tier,
            warp: 0,
            group_warps: shape.group_warps(),
            num_sms: device.num_sms as usize,
            entry,
            snapped: false,
            table: Vec::new(),
        }
    }

    /// Snapshot the caches on entry, before any op of the launch.
    fn snapshot(&mut self, l1s: &[Cache], l2: &Cache) {
        snapshot(l1s, l2, self.entry);
        self.snapped = true;
    }

    /// Answer the warp just run in warp slot `slot` (phase × warp index)
    /// on SM `sm` from the record if its lanes digest to the recorded
    /// warp's: add its counters, and have the cache thread drive its ops
    /// now (lower tier) or defer them (upper tier).  From the first warp
    /// that does not match on, answer it from the table if the last warp
    /// of this launch that [`record`](Self::record) kept in its slot had
    /// its digest: add and record that warp's counters, and send the cache
    /// thread the SM alone, as modelling it would.  Returns false if the
    /// warp is to be modelled.
    fn answer(
        &mut self,
        digest: u128,
        slot: usize,
        sm: usize,
        pipe: &mut Pipe<'_, '_, '_>,
        counters: &mut Counters,
    ) -> bool {
        let i = self.warp;
        self.warp += 1;
        if self.tier != Replay::Full {
            if self.memo.digests.get(i) == Some(&digest) {
                if self.tier == Replay::Cache {
                    self.drive(i, sm, pipe, counters);
                }
                return true;
            }
            if self.tier == Replay::Memo {
                // The deferred ops have not touched the caches yet: the
                // entry state is still there to snapshot.
                let (l1s, l2) = pipe.at_rest();
                self.snapshot(l1s, l2);
                for j in 0..i {
                    self.drive(j, j / self.group_warps % self.num_sms, pipe, counters);
                }
            }
            self.memo.truncate(i);
            self.tier = Replay::Full;
        }
        match self.table.get(slot) {
            Some(&Some((d, tally))) if d == digest => {
                #[cfg(test)]
                tests::TABLE_ANSWERS.with(|n| n.set(n.get() + 1));
                counters.merge(&tally);
                pipe.send(Cmd::Warp(sm as u32));
                self.memo.push(digest, tally);
                true
            }
            _ => false,
        }
    }

    /// Append a modelled warp of slot `slot` to the record, and keep it in
    /// the table if it sent no cache command: its streams alone then decide
    /// everything it adds, so an equal warp of the slot adds the same.
    fn record(&mut self, digest: u128, slot: usize, tally: Counters, cache_free: bool) {
        self.memo.push(digest, tally);
        if cache_free {
            if self.table.is_empty() {
                self.table.resize(self.group_warps, None);
            }
            self.table[slot] = Some((digest, tally));
        }
    }

    /// Add recorded warp `j`'s counters, and have the cache thread drive
    /// its ops and repeats through SM `sm`.
    fn drive(&self, j: usize, sm: usize, pipe: &mut Pipe<'_, '_, '_>, counters: &mut Counters) {
        counters.merge(self.memo.tally(j));
        let warp = u32::try_from(j).expect("fewer than 2^32 warps per launch");
        pipe.extra += self.memo.op_counts[j] as usize;
        pipe.send(Cmd::Replay {
            warp,
            sm: sm as u32,
        });
    }
}

/// What the calling thread tells the cache thread, in launch order.
#[derive(Copy, Clone)]
enum Cmd {
    /// A modelled warp on SM `sm`: its steps follow.  A recording launch
    /// appends it to the record.
    Warp(u32),
    /// Drive recorded warp `warp` through SM `sm`'s L1.
    Replay { warp: u32, sm: u32 },
    /// A step of the warp modelled last.
    Step(Step),
}

/// Commands per batch: 64 KiB, so that a hand-off, a few microseconds,
/// costs about a nanosecond per command.
const BATCH: usize = 4096;
// A batch ends at `BATCH` commands and repeated runs, which its last
// command, a repeat of at most three runs per lane, may pass by a few
// hundred: its ops still fit one chunk of the record.
const _: () = assert!(BATCH + 1024 <= BATCH_OPS);
/// Batches queued for the cache thread before the calling thread waits.
const QUEUED: usize = 2;

/// A batch of commands, with room for what a recording launch appends
/// while the cache thread applies them.
struct Batch {
    cmds: Vec<Cmd>,
    room: Option<Room>,
}

/// The cache half of a launch: the caches, the counters that the line
/// step and the cache state decide, and the memo's op record.
struct Caches<'c> {
    l1s: &'c mut [Cache],
    l2: &'c mut Cache,
    sm: usize,
    counters: Counters,
    lines: Lines,
    recorder: Option<Recorder>,
}

impl Caches<'_> {
    fn apply(&mut self, batch: Batch) {
        if let (Some(r), Some(room)) = (self.recorder.as_mut(), batch.room) {
            r.supply(room);
        }
        for &cmd in &batch.cmds {
            if let Cmd::Warp(sm) | Cmd::Replay { sm, .. } = cmd {
                self.sm = sm as usize;
            }
            let (l1, recorder) = (&mut self.l1s[self.sm], self.recorder.as_mut());
            match cmd {
                Cmd::Step(step) => self
                    .lines
                    .step(step, l1, self.l2, &mut self.counters, recorder),
                Cmd::Warp(_) => recorder.into_iter().for_each(Recorder::begin),
                Cmd::Replay { warp, .. } => {
                    let r = recorder.expect("a launch with a record");
                    r.replay(warp as usize, l1, self.l2, &mut self.counters);
                }
            }
        }
    }
}

/// The calling thread's end of the split: batches commands and starts
/// the cache thread with the first full batch.
struct Pipe<'scope, 'env, 'c: 'scope> {
    scope: &'scope Scope<'scope, 'env>,
    /// The cache half, until its thread starts.
    idle: Option<Caches<'c>>,
    thread: Option<(SyncSender<Batch>, ScopedJoinHandle<'scope, Caches<'c>>)>,
    batch: Vec<Cmd>,
    /// The ops the batch's commands stand for beyond one each: a repeat's
    /// runs, a replay's ops.  A batch is cut when its length and these
    /// reach [`BATCH`], so that the cache thread starts early in a launch
    /// that replays, and a batch never appends more than its length and
    /// these ops to the record.
    extra: usize,
    /// The most chunks the record may hold, when the launch records.
    chunks: Option<usize>,
}

impl<'scope, 'env, 'c: 'scope> Pipe<'scope, 'env, 'c> {
    fn new(scope: &'scope Scope<'scope, 'env>, caches: Caches<'c>) -> Self {
        Self {
            scope,
            chunks: caches.recorder.as_ref().map(|r| r.log.chunks()),
            idle: Some(caches),
            thread: None,
            // Grown on first use: most launches of a solve send nothing.
            batch: Vec::new(),
            extra: 0,
        }
    }

    /// The caches, which no command has reached yet.
    fn at_rest(&self) -> (&[Cache], &Cache) {
        let caches = self.idle.as_ref().filter(|_| self.batch.is_empty());
        let caches = caches.expect("the caches are at rest before the first command");
        (caches.l1s, caches.l2)
    }

    #[inline]
    fn send(&mut self, cmd: Cmd) {
        if let Cmd::Step(Step::Repeat(runs)) = cmd {
            self.extra += runs as usize;
        }
        self.batch.push(cmd);
        if self.batch.len() + self.extra >= BATCH {
            self.flush();
        }
    }

    /// The batch so far, with room for the record unless it is empty, and
    /// `next` in its place.  A batch adds at most one chunk to the record.
    fn take(&mut self, next: Vec<Cmd>) -> Batch {
        self.extra = 0;
        let cmds = std::mem::replace(&mut self.batch, next);
        let chunks = self.chunks.as_mut().filter(|_| !cmds.is_empty());
        let room = chunks.map(|n| {
            *n += 1;
            OpLog::room(*n)
        });
        Batch { cmds, room }
    }

    /// Hand the batch to the cache thread, starting it first if need be.
    fn flush(&mut self) {
        let batch = self.take(Vec::with_capacity(BATCH));
        let (tx, _) = self.thread.get_or_insert_with(|| {
            let mut caches = self.idle.take().expect("an idle cache half");
            let (tx, rx) = sync_channel::<Batch>(QUEUED);
            let thread = self.scope.spawn(move || {
                for batch in rx {
                    caches.apply(batch);
                }
                caches
            });
            (tx, thread)
        });
        if tx.send(batch).is_err() {
            // Only a panic ends the cache thread early: raise it here.
            let (_, thread) = self.thread.take().expect("started above");
            join(thread);
        }
    }

    /// Apply what is left and return the cache half's counters and the
    /// record.  If the calling thread unwinds instead, dropping the sender
    /// ends the cache thread's loop, so the scope can join it.
    fn finish(mut self) -> (Counters, Option<OpLog>) {
        let batch = self.take(Vec::new());
        let caches = match self.thread.take() {
            None => {
                let mut caches = self.idle.take().expect("an idle cache half");
                caches.apply(batch);
                caches
            }
            Some((tx, thread)) => {
                // A failed send means the thread panicked; `join` raises it.
                let _ = tx.send(batch);
                drop(tx);
                join(thread)
            }
        };
        (caches.counters, caches.recorder.map(|r| r.log))
    }
}

/// Join the cache thread, raising its panic on the calling thread.
fn join<'c>(thread: ScopedJoinHandle<'_, Caches<'c>>) -> Caches<'c> {
    thread
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Executes work-groups of one launch on the calling thread: runs lanes
/// phase-by-phase, collects their event streams, models each warp and
/// hands its steps to the cache thread.
struct GroupExecutor<'a> {
    kernel: &'a dyn Kernel,
    range: NdRange,
    device: &'a DeviceSpec,
    geometry: Geometry,
    mem: &'a DeviceMemory,
    local_mem_bytes: u32,
    phases: usize,
    /// Reused per-warp event buffers (one per lane).
    streams: Vec<Vec<Event>>,
    /// Reused local memory (reset per group).
    local: LocalMem,
}

impl<'a> GroupExecutor<'a> {
    fn new(
        kernel: &'a dyn Kernel,
        range: NdRange,
        device: &'a DeviceSpec,
        mem: &'a DeviceMemory,
        res: KernelResources,
    ) -> Self {
        let warp = device.warp_size as usize;
        Self {
            kernel,
            range,
            device,
            geometry: Geometry {
                line_bytes: device.line_bytes,
                sector_bytes: device.sector_bytes,
                banks: device.shared_banks,
                bank_width: device.bank_width,
            },
            mem,
            local_mem_bytes: res.local_mem_bytes_per_group,
            phases: kernel.num_phases(),
            streams: (0..warp).map(|_| Vec::with_capacity(128)).collect(),
            local: LocalMem::new(res.local_mem_bytes_per_group),
        }
    }

    /// Run one group's phases warp by warp and send their steps for its
    /// SM.  With a `walk`, each lane folds its events into its warp's
    /// digest, and each warp is answered from the record or the launch's
    /// table, or modelled and recorded.
    fn run_group(
        &mut self,
        group: u64,
        counters: &mut Counters,
        mut sanitizer: Option<&mut Sanitizer<'_>>,
        mut walk: Option<&mut Walk<'_>>,
        pipe: &mut Pipe<'_, '_, '_>,
    ) -> Result<(), SimError> {
        let local_size = self.range.local;
        let warp = self.device.warp_size;
        let warps = local_size.div_ceil(warp);
        let sm = (group % self.device.num_sms as u64) as usize;
        if self.local.len() != self.local_mem_bytes as usize {
            self.local = LocalMem::new(self.local_mem_bytes);
        } else {
            self.local.reset();
        }
        counters.items += local_size as u64;
        counters.warps += warps as u64;
        counters.barrier_waits += warps as u64 * (self.phases as u64 - 1);
        if let Some(s) = sanitizer.as_deref_mut() {
            s.begin_group();
        }

        for phase in 0..self.phases {
            for w in 0..warps {
                let lanes = (local_size - w * warp).min(warp);
                for lane in 0..warp as usize {
                    self.streams[lane].clear();
                }
                let mut digest = walk.is_some().then(|| StreamDigest::warp(phase, w, lanes));
                for lane in 0..lanes {
                    let local_id = w * warp + lane;
                    let global_id = group * local_size as u64 + local_id as u64;
                    let mut ctx = Lane::new(
                        global_id,
                        local_id,
                        group,
                        local_size,
                        self.mem,
                        &mut self.local,
                        &mut self.streams[lane as usize],
                    );
                    if sanitizer.is_some() {
                        ctx.set_tolerant();
                    }
                    ctx.digest = digest;
                    self.kernel.run_phase(phase, &mut ctx);
                    digest = ctx.digest;
                    if let Some(d) = digest.as_mut() {
                        d.end_lane(self.streams[lane as usize].len());
                    }
                }
                if let Some(s) = sanitizer.as_deref_mut() {
                    // Inspect the streams before the models: if they fail
                    // on a divergence mismatch, the accesses up to that
                    // warp were still checked.
                    s.process_warp(group, phase as u32, w * warp, &self.streams);
                }
                let digest = digest.map(|d| d.value());
                let slot = phase * warps as usize + w as usize;
                if let (Some(walk), Some(digest)) = (walk.as_deref_mut(), digest) {
                    if walk.answer(digest, slot, sm, pipe, counters) {
                        continue;
                    }
                }
                let (mut tally, mut cache_free) = (Counters::default(), true);
                pipe.send(Cmd::Warp(sm as u32));
                model_warp(&self.streams, self.geometry, &mut tally, true, |step| {
                    cache_free = false;
                    pipe.send(Cmd::Step(step))
                })?;
                if let (Some(walk), Some(digest)) = (walk.as_deref_mut(), digest) {
                    walk.record(digest, slot, tally, cache_free);
                }
                counters.merge(&tally);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelResources;
    use std::cell::Cell;

    thread_local! {
        /// Warps the launches on this thread answered from their tables.
        pub(super) static TABLE_ANSWERS: Cell<u64> = const { Cell::new(0) };
    }

    /// Doubles every element of a buffer.
    struct DoubleKernel {
        buf: u64,
        n: u64,
    }

    impl Kernel for DoubleKernel {
        fn name(&self) -> &str {
            "double"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            if i >= self.n {
                return;
            }
            let v = lane.ld_global_f64(self.buf + i * 8);
            lane.flops(1);
            lane.st_global_f64(self.buf + i * 8, v * 2.0);
        }
    }

    /// Two-phase kernel: phase 0 writes local memory, phase 1 reads a
    /// *different* lane's slot — only correct with barrier semantics.
    struct RotateKernel {
        out: u64,
    }

    impl Kernel for RotateKernel {
        fn name(&self) -> &str {
            "rotate"
        }
        fn num_phases(&self) -> usize {
            2
        }
        fn resources(&self, ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: ls * 8,
            }
        }
        fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
            let lid = lane.local_id();
            let ls = lane.local_size();
            if phase == 0 {
                lane.st_local_f64(lid * 8, lane.global_id() as f64);
            } else {
                let neighbor = (lid + 1) % ls;
                let v = lane.ld_local_f64(neighbor * 8);
                lane.st_global_f64(self.out + lane.global_id() * 8, v);
            }
        }
    }

    #[test]
    fn functional_results_are_exact() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(256 * 8, "buf");
        for i in 0..256u64 {
            mem.write_f64(buf.addr(i * 8), i as f64);
        }
        let k = DoubleKernel {
            buf: buf.base(),
            n: 256,
        };
        let report = Launcher::new(&device)
            .launch(&k, NdRange::linear(256, 64), &mem)
            .unwrap();
        for i in 0..256u64 {
            assert_eq!(mem.read_f64(buf.addr(i * 8)), 2.0 * i as f64);
        }
        assert_eq!(report.counters.items, 256);
        assert_eq!(report.counters.flops, 256);
        assert!(report.duration_us > 0.0);
        assert!(report.gflops() > 0.0);
    }

    #[test]
    fn barrier_phases_give_correct_cross_lane_reads() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        for g in 0..4u64 {
            for lid in 0..32u64 {
                let gid = g * 32 + lid;
                let expect = g * 32 + (lid + 1) % 32;
                assert_eq!(mem.read_f64(out.addr(gid * 8)), expect as f64, "gid {gid}");
            }
        }
    }

    #[test]
    fn mismatched_device_state_is_an_error() {
        let small = DeviceSpec::test_small();
        let a100 = DeviceSpec::a100();
        let mut mem = DeviceMemory::new();
        let b = mem.alloc(1024 * 8, "b");
        let k = DoubleKernel {
            buf: b.base(),
            n: 1024,
        };
        let mut state = DeviceState::new(&small);
        let err = Launcher::new(&a100).launch_with_state(
            &k,
            NdRange::linear(1024, 128),
            &mem,
            &mut state,
        );
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateMismatch {
                state_sms: small.num_sms,
                device_sms: a100.num_sms,
            }
        );
        assert_eq!(
            state.launches(),
            0,
            "a refused launch leaves the state untouched"
        );

        // The volume-matched A100s of L = 4 and L = 8 both have one SM,
        // but not the same L2.
        let l4 = DeviceSpec::a100().scaled_for_volume_ratio((4.0f64 / 32.0).powi(4));
        let l8 = DeviceSpec::a100().scaled_for_volume_ratio((8.0f64 / 32.0).powi(4));
        assert_eq!(l4.num_sms, l8.num_sms);
        let mut state = DeviceState::new(&l4);
        let err =
            Launcher::new(&l8).launch_with_state(&k, NdRange::linear(1024, 128), &mem, &mut state);
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateCacheMismatch {
                level: "L2",
                field: "capacity",
                state: l4.l2_bytes,
                device: l8.l2_bytes,
            }
        );
        assert_eq!(state.launches(), 0);
        let mut l1_ways = l4.clone();
        l1_ways.l1_ways = 8;
        let err = Launcher::new(&l1_ways).launch_with_state(
            &k,
            NdRange::linear(1024, 128),
            &mem,
            &mut state,
        );
        assert_eq!(
            err.unwrap_err(),
            SimError::DeviceStateCacheMismatch {
                level: "L1",
                field: "ways",
                state: 4,
                device: 8,
            }
        );
        // The state's own device is still accepted.
        Launcher::new(&l4)
            .launch_with_state(&k, NdRange::linear(1024, 128), &mem, &mut state)
            .unwrap();
        assert_eq!(state.launches(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let device = DeviceSpec::test_small();
        let run = || {
            let mut mem = DeviceMemory::new();
            let b = mem.alloc(512 * 8, "b");
            for i in 0..512u64 {
                mem.write_f64(b.addr(i * 8), 1.0);
            }
            let k = DoubleKernel {
                buf: b.base(),
                n: 512,
            };
            Launcher::new(&device)
                .launch(&k, NdRange::linear(512, 64), &mem)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.duration_us, b.duration_us);
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let device = DeviceSpec::test_small();
        let mem = DeviceMemory::new();
        let k = DoubleKernel { buf: 0x1000, n: 0 };
        let err = Launcher::new(&device).launch(&k, NdRange::linear(100, 64), &mem);
        assert!(matches!(err, Err(SimError::IndivisibleGlobalSize { .. })));
    }

    /// RotateKernel without its barrier: store and cross-lane read in
    /// one phase — the canonical local-memory race.
    struct PhaselessRotate {
        out: u64,
    }

    impl Kernel for PhaselessRotate {
        fn name(&self) -> &str {
            "rotate-no-barrier"
        }
        fn resources(&self, ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: ls * 8,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let lid = lane.local_id();
            let ls = lane.local_size();
            lane.st_local_f64(lid * 8, lane.global_id() as f64);
            let v = lane.ld_local_f64((lid + 1) % ls * 8);
            lane.st_global_f64(self.out + lane.global_id() * 8, v);
        }
    }

    #[test]
    fn sanitized_clean_kernel_reports_clean() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let r = Launcher::new(&device)
            .with_sanitizer(crate::sanitizer::SanitizerConfig::default())
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        let san = r.sanitizer.expect("sanitized launch carries a report");
        assert!(san.is_clean(), "{:?}", san.findings);
        assert!(san.checked_accesses > 0);
        // Unsanitized launches carry no report.
        let r2 = Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        assert!(r2.sanitizer.is_none());
        // The sanitizer is an observer: counters are unchanged by it.
        assert_eq!(r.counters, r2.counters);
    }

    #[test]
    fn sanitizer_flags_missing_barrier() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = PhaselessRotate { out: out.base() };
        let r = Launcher::new(&device)
            .with_sanitizer(crate::sanitizer::SanitizerConfig::default())
            .launch(&k, NdRange::linear(128, 32), &mem)
            .unwrap();
        let san = r.sanitizer.unwrap();
        assert!(san.count_class("race") >= 1, "{:?}", san.findings);
        // The linter independently notices local memory with no barrier.
        assert!(san.count_class("lint") >= 1, "{:?}", san.findings);
    }

    /// A report with the two fields the memo may change blanked, as
    /// text: `{:?}` prints every float exactly, so equal text means
    /// bitwise-equal reports.
    fn modelled(r: &LaunchReport) -> String {
        let mut r = r.clone();
        r.host_wall_us = 0.0;
        r.replay = Replay::Full;
        format!("{r:?}")
    }

    /// Records no memory event: launched at its own range, it leaves
    /// every cache line alone but replaces a state's memo.
    struct Idle;

    impl Kernel for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            lane.flops(1);
        }
    }

    const IDLE_RANGE: NdRange = NdRange {
        global: 32,
        local: 32,
    };

    /// `dst[i] += src[idx[i]]` and `acc += src[idx[i]]`, with a
    /// divergent single-lane store when `flag` is set and no declared
    /// path (a `LaneDivergenceMismatch`).
    struct Gather {
        idx: u64,
        src: u64,
        dst: u64,
        acc: u64,
        flag: u64,
    }

    impl Kernel for Gather {
        fn name(&self) -> &str {
            "gather"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 24,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let i = lane.global_id();
            if lane.ld_global_u32(self.flag) != 0 && i % 2 == 1 {
                lane.st_global_f64(self.dst + i * 8, 0.0);
            }
            let j = lane.ld_global_u32(self.idx + i * 4) as u64;
            let v = lane.ld_global_f64(self.src + j * 8);
            let d = lane.ld_global_f64(self.dst + i * 8);
            lane.flops(2);
            lane.st_global_f64(self.dst + i * 8, d + v);
            lane.atomic_add_global_f64(self.acc + (i % 4) * 8, v);
        }
    }

    const N: u64 = 512;

    /// One device memory for [`Gather`]: `src[j] = j + 0.5`.
    fn gather_setup() -> (DeviceMemory, Gather) {
        let mut mem = DeviceMemory::new();
        let idx = mem.alloc(N * 4, "idx");
        let src = mem.alloc(N * 8, "src");
        let dst = mem.alloc(N * 8, "dst");
        let acc = mem.alloc(4 * 8, "acc");
        let flag = mem.alloc(8, "flag");
        for j in 0..N {
            mem.write_f64(src.addr(j * 8), j as f64 + 0.5);
        }
        mem.zero(&dst);
        mem.zero(&acc);
        mem.zero(&flag);
        let k = Gather {
            idx: idx.base(),
            src: src.base(),
            dst: dst.base(),
            acc: acc.base(),
            flag: flag.base(),
        };
        (mem, k)
    }

    /// Every word of the arena, as bits.
    fn arena(mem: &DeviceMemory) -> Vec<u64> {
        (BASE_ADDR..mem.arena_end())
            .step_by(8)
            .map(|a| mem.read_f64(a).to_bits())
            .collect()
    }

    use crate::memory::BASE_ADDR;

    /// The launches of one step of a sequence: which index table to
    /// gather through and whether the flag is set.
    type Step = (fn(u64) -> u64, bool);

    /// Run `steps` on a fresh state, with (`oracle`) or without an
    /// [`Idle`] launch before each step.  Returns each step's report
    /// (or error) and the arena after it.
    fn run_steps(
        device: &DeviceSpec,
        steps: &[Step],
        oracle: bool,
    ) -> Vec<(Result<LaunchReport, SimError>, Vec<u64>)> {
        let (mem, k) = gather_setup();
        let launcher = Launcher::new(device);
        let mut state = DeviceState::new(device);
        steps
            .iter()
            .map(|&(perm, flag)| {
                for i in 0..N {
                    mem.write_u32(k.idx + i * 4, perm(i) as u32);
                }
                mem.write_u32(k.flag, flag as u32);
                if oracle {
                    let idle = launcher
                        .launch_with_state(&Idle, IDLE_RANGE, &mem, &mut state)
                        .unwrap();
                    assert_eq!(idle.l1_stats, CacheStats::default());
                    assert_eq!(idle.l2_stats, CacheStats::default());
                }
                let r = launcher.launch_with_state(&k, NdRange::linear(N, 64), &mem, &mut state);
                (r, arena(&mem))
            })
            .collect()
    }

    fn identity(i: u64) -> u64 {
        i
    }

    fn reversed(i: u64) -> u64 {
        N - 1 - i
    }

    /// `identity` but in group 6 of 8: a launch switching tables matches
    /// the record up to the middle of the launch.
    fn late(i: u64) -> u64 {
        i ^ (i / 64 == 6) as u64
    }

    /// Run `steps` with and without the oracle's [`Idle`] launches;
    /// require equal reports, errors and arenas, and return the tiers or
    /// errors.
    fn tiers_matching_the_oracle(steps: &[Step]) -> Vec<Result<Replay, SimError>> {
        let device = DeviceSpec::test_small();
        let memo = run_steps(&device, steps, false);
        let oracle = run_steps(&device, steps, true);
        let mut tiers = Vec::new();
        for (i, ((m, m_mem), (o, o_mem))) in memo.iter().zip(&oracle).enumerate() {
            assert!(m_mem == o_mem, "memory after launch {i} differs");
            let (m, o) = (m.as_ref(), o.as_ref());
            assert_eq!(m.map(modelled), o.map(modelled), "launch {i}");
            if let Ok(o) = o {
                assert_eq!(o.replay, Replay::Full, "oracle launch {i}");
            }
            tiers.push(m.map(|m| m.replay).map_err(SimError::clone));
        }
        tiers
    }

    #[test]
    fn repeat_launches_match_full_replay_on_both_tiers() {
        use Replay::{Cache, Full, Memo};
        let tiers = tiers_matching_the_oracle(&[
            (identity, false),
            // The lower tier drives the first six groups' recorded ops,
            // then replays the rest in full, which touches the same lines.
            (late, false),
            (late, false),
            // The upper tier defers the first six groups' ops, then
            // drives them on their SMs and replays the rest in full.  That
            // launch leaves the caches as it found them.
            (identity, false),
            (identity, false),
            // Another index table from the first warp on.
            (reversed, false),
            (reversed, false),
            (reversed, false),
        ]);
        let want = [Full, Full, Memo, Full, Memo, Full, Cache, Memo];
        assert_eq!(tiers, want.map(Ok));
    }

    #[test]
    fn a_failed_launch_leaves_no_memo() {
        use Replay::{Cache, Full, Memo};
        let mut tiers = tiers_matching_the_oracle(&[
            (identity, false),
            (identity, false),
            (identity, false),
            // Divergent streams: the first warp misses, its replay fails.
            (identity, true),
            (identity, false),
            (identity, false),
        ]);
        let failed = tiers.remove(3);
        assert!(
            matches!(failed, Err(SimError::LaneDivergenceMismatch { .. })),
            "{failed:?}"
        );
        // After the failure the state starts over.
        assert_eq!(tiers, [Full, Cache, Memo, Full, Cache].map(Ok));
    }

    /// `dst[i] = 2 · src[i]` over complex numbers, loaded and stored as
    /// two 8-byte halves, or as one 16-byte access with `vec`.
    struct Halves {
        src: u64,
        dst: u64,
        vec: bool,
    }

    impl Kernel for Halves {
        fn name(&self) -> &str {
            "halves"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            let (src, dst) = (
                self.src + lane.global_id() * 16,
                self.dst + lane.global_id() * 16,
            );
            let (re, im) = if self.vec {
                lane.ld_global_c64_vec(src)
            } else {
                lane.ld_global_c64(src)
            };
            lane.flops(2);
            if self.vec {
                lane.st_global_c64_vec(dst, 2.0 * re, 2.0 * im);
            } else {
                lane.st_global_c64(dst, 2.0 * re, 2.0 * im);
            }
        }
    }

    #[test]
    fn two_halves_record_one_half_and_repeat_like_the_oracle() {
        use Replay::{Cache, Full, Memo};
        // 64 KiB in and 64 KiB out over four SMs of 16 KiB L1: the stored
        // lines are evicted dirty.
        const ITEMS: u64 = 4096;
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let src = mem.alloc(ITEMS * 16, "src");
        let dst = mem.alloc(ITEMS * 16, "dst");
        for j in 0..ITEMS * 2 {
            mem.write_f64(src.addr(j * 8), j as f64);
        }
        let range = NdRange::linear(ITEMS, 64);
        let launcher = Launcher::new(&device);
        let run = |vec: bool, oracle: bool| -> Vec<LaunchReport> {
            let k = Halves {
                src: src.base(),
                dst: dst.base(),
                vec,
            };
            let mut state = DeviceState::new(&device);
            (0..3)
                .map(|i| {
                    if oracle {
                        launcher
                            .launch_with_state(&Idle, IDLE_RANGE, &mem, &mut state)
                            .unwrap();
                    }
                    let r = launcher
                        .launch_with_state(&k, range, &mem, &mut state)
                        .unwrap();
                    if i == 0 && !vec && !oracle {
                        // The record holds the first half's ops alone.
                        let memo = state.memo.as_ref().expect("a record");
                        let ops: u64 = (0..memo.digests.len())
                            .map(|w| memo.ops.warps[w].0 as u64)
                            .sum();
                        assert_eq!(ops * 2, r.counters.l1_tag_requests_global);
                    }
                    r
                })
                .collect()
        };
        let (halves, oracle, vec) = (run(false, false), run(false, true), run(true, false));
        for (i, tier) in [Full, Cache, Memo].into_iter().enumerate() {
            assert_eq!(halves[i].replay, tier, "launch {i}");
            assert_eq!(oracle[i].replay, Full, "oracle launch {i}");
            assert_eq!(modelled(&halves[i]), modelled(&oracle[i]), "launch {i}");
            // One 16-byte access leaves the caches as the two halves do: the
            // second half of each hits, and the stored sectors stay dirty.
            let (h, v) = (&halves[i].l1_stats, &vec[i].l1_stats);
            assert_eq!(h.tag_requests, 2 * v.tag_requests, "launch {i}");
            assert_eq!(h.sector_requests, 2 * v.sector_requests, "launch {i}");
            let outcome = |s: &CacheStats| (s.sector_misses, s.evictions, s.writeback_sectors);
            assert_eq!(outcome(h), outcome(v), "launch {i}");
            assert!(h.writeback_sectors > 0, "launch {i}");
            assert_eq!(halves[i].l2_stats, vec[i].l2_stats, "launch {i}");
        }
    }

    #[test]
    fn sanitized_launches_never_hit() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let launcher = Launcher::new(&device).with_sanitizer(SanitizerConfig::default());
        let mut state = DeviceState::new(&device);
        for _ in 0..4 {
            let r = launcher
                .launch_with_state(&k, NdRange::linear(128, 32), &mem, &mut state)
                .unwrap();
            assert_eq!(r.replay, Replay::Full);
            assert!(r.sanitizer.is_some());
        }
    }

    /// Three phases, like 4LP's last two after a gather: phases 0 and 1
    /// only move local memory, the same way in every group, and phase 2
    /// stores each lane's value.
    struct Shuffle {
        out: u64,
    }

    impl Kernel for Shuffle {
        fn name(&self) -> &str {
            "shuffle"
        }
        fn num_phases(&self) -> usize {
            3
        }
        fn resources(&self, ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 2 * ls * 8,
            }
        }
        fn run_phase(&self, phase: usize, lane: &mut Lane<'_>) {
            let (lid, ls) = (lane.local_id(), lane.local_size());
            match phase {
                0 => lane.st_local_f64(lid * 8, lane.global_id() as f64),
                1 => {
                    let v = lane.ld_local_f64((lid + 1) % ls * 8);
                    lane.st_local_f64((ls + lid) * 8, v);
                }
                _ => {
                    let v = lane.ld_local_f64((ls + lid) * 8);
                    lane.st_global_f64(self.out + lane.global_id() * 8, v);
                }
            }
        }
    }

    /// Warps `launch` answered from its table, and its tier.
    fn table_answers(launch: impl FnOnce() -> Result<LaunchReport, SimError>) -> (u64, Replay) {
        let before = TABLE_ANSWERS.get();
        let replay = launch().unwrap().replay;
        (TABLE_ANSWERS.get() - before, replay)
    }

    #[test]
    fn a_recording_launch_answers_repeated_cache_free_warps_from_its_table() {
        use Replay::{Cache, Full, Memo};
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(1024 * 8, "out");
        let k = Shuffle { out: out.base() };
        let range = NdRange::linear(1024, 64);
        let launcher = Launcher::new(&device);
        let sanitized = Launcher::new(&device).with_sanitizer(SanitizerConfig::default());
        let mut state = DeviceState::new(&device);
        // Cold and sanitized launches keep no table.
        assert_eq!(
            table_answers(|| launcher.launch(&k, range, &mem)),
            (0, Full)
        );
        let r = table_answers(|| sanitized.launch_with_state(&k, range, &mem, &mut state));
        assert_eq!(r, (0, Full));
        // 16 groups of two warps: each warp of phases 0 and 1 after the
        // first group repeats the warp of its slot in the group before.
        // A launch that repeats the record answers every warp from it.
        for (i, want) in [(2 * 2 * 15, Full), (0, Cache), (0, Memo)]
            .into_iter()
            .enumerate()
        {
            let r = table_answers(|| launcher.launch_with_state(&k, range, &mem, &mut state));
            assert_eq!(r, want, "launch {i}");
        }
    }

    /// Requires its lanes to fold a digest, or not to.
    struct Folds(bool);

    impl Kernel for Folds {
        fn name(&self) -> &str {
            "folds"
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, lane: &mut Lane<'_>) {
            assert_eq!(lane.digest.is_some(), self.0, "lane {}", lane.global_id());
            lane.flops(1);
        }
    }

    #[test]
    fn only_the_lanes_of_a_remembered_launch_fold_a_digest() {
        let device = DeviceSpec::test_small();
        let mem = DeviceMemory::new();
        let range = NdRange::linear(128, 64);
        let launcher = Launcher::new(&device);
        let sanitized = Launcher::new(&device).with_sanitizer(SanitizerConfig::default());
        let mut state = DeviceState::new(&device);
        launcher.launch(&Folds(false), range, &mem).unwrap();
        sanitized.launch(&Folds(false), range, &mem).unwrap();
        sanitized
            .launch_with_state(&Folds(false), range, &mem, &mut state)
            .unwrap();
        let config = crate::staticcheck::StaticCheckConfig::full();
        crate::staticcheck::analyze(&Folds(false), &range, &device, &mem, &config);
        // A recording launch and the launches that repeat it.
        for _ in 0..3 {
            launcher
                .launch_with_state(&Folds(true), range, &mem, &mut state)
                .unwrap();
        }
    }

    /// Declares no phases, so no launch may run it.
    struct NoPhases;

    impl Kernel for NoPhases {
        fn name(&self) -> &str {
            "no-phases"
        }
        fn num_phases(&self) -> usize {
            0
        }
        fn resources(&self, _ls: u32) -> KernelResources {
            KernelResources {
                registers_per_item: 16,
                local_mem_bytes_per_group: 0,
            }
        }
        fn run_phase(&self, _phase: usize, _lane: &mut Lane<'_>) {
            panic!("a kernel without phases has no phase to run");
        }
    }

    #[test]
    fn a_kernel_without_phases_is_refused_before_any_lane() {
        let device = DeviceSpec::test_small();
        let mem = DeviceMemory::new();
        let range = NdRange::linear(128, 64);
        let mut state = DeviceState::new(&device);
        let plain = Launcher::new(&device);
        let sanitized = Launcher::new(&device).with_sanitizer(SanitizerConfig::default());
        for launcher in [&plain, &sanitized] {
            let cold = launcher.launch(&NoPhases, range, &mem);
            assert_eq!(cold.unwrap_err(), SimError::NoPhases);
            let warm = launcher.launch_with_state(&NoPhases, range, &mem, &mut state);
            assert_eq!(warm.unwrap_err(), SimError::NoPhases);
        }
        assert_eq!(state.launches(), 0);
    }

    #[test]
    fn barrier_waits_counted() {
        let device = DeviceSpec::test_small();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(128 * 8, "out");
        let k = RotateKernel { out: out.base() };
        let r = Launcher::new(&device)
            .launch(&k, NdRange::linear(128, 64), &mem)
            .unwrap();
        // 2 groups x 2 warps x (2 phases - 1).
        assert_eq!(r.counters.barrier_waits, 4);
    }
}
