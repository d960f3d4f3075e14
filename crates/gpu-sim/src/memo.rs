//! The launch memo: what a [`DeviceState`](crate::DeviceState) remembers
//! of its last launch so that a repeat replays only what its caches change.
//!
//! Coalescing, bank wavefronts, atomic passes and divergence depend on the
//! address streams alone, which repeat from launch to launch; only L1 and
//! L2 depend on the state.  So a full launch records every warp, and the
//! engine (`engine.rs`) checks a later launch of the same [`LaunchShape`]
//! against the record warp by warp.  The record is split as the launch is:
//!
//! * the calling thread's [`Memo`] holds, per warp in launch order, a
//!   [`StreamDigest`] of its lanes, which they fold as they record, and
//!   its state-free counters;
//! * the cache thread's [`OpLog`] holds, per warp, the [`CacheOp`]s its
//!   instructions sent and its [`Repeats`]: the L1 requests of the
//!   instructions that repeated their predecessor's lines and so sent no
//!   ops.  A launch lends it to the cache thread as a [`Recorder`].
//!
//! A recorded warp's repeats are its own: a warp never repeats the last
//! instruction of the warp before it.
//!
//! A launch that records also answers, from a table of one entry per warp
//! slot of a group (phase × warp index), a warp that sends no cache
//! command and digests as the last such warp of its slot did: its
//! counters are that warp's, and it is recorded as a warp without ops
//! (`engine.rs`).

use std::collections::HashMap;

use crate::cache::{Cache, CacheStats};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::event::Event;
use crate::kernel::KernelResources;
use crate::ndrange::NdRange;
use crate::warp::{Access, CacheOp, Repeats};

/// Everything besides the lanes' event streams that a launch's replay
/// outcome depends on.
///
/// The record also depends on the L1's sets and ways, which decide which
/// repeats fit the L1 and issue no ops.  They are not part of the shape
/// because the memo lives in a `DeviceState`, which refuses a device of
/// any other cache geometry (`DeviceState::check`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct LaunchShape {
    warp_size: u32,
    line_bytes: u32,
    sector_bytes: u32,
    shared_banks: u32,
    bank_width: u32,
    range: NdRange,
    local_mem_bytes: u32,
    phases: usize,
}

impl LaunchShape {
    pub(crate) fn new(
        device: &DeviceSpec,
        range: NdRange,
        res: &KernelResources,
        phases: usize,
    ) -> Self {
        Self {
            warp_size: device.warp_size,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            shared_banks: device.shared_banks,
            bank_width: device.bank_width,
            range,
            local_mem_bytes: res.local_mem_bytes_per_group,
            phases,
        }
    }

    /// Warps a group runs, over all its phases.
    pub(crate) fn group_warps(&self) -> usize {
        self.range.local.div_ceil(self.warp_size) as usize * self.phases
    }
}

/// The outcome of a recorded launch that left the caches LRU-equivalent
/// to how it found them.
pub(crate) struct Steady {
    pub(crate) counters: Counters,
    /// Per-SM L1 statistics of the launch.
    pub(crate) l1: Vec<CacheStats>,
    pub(crate) l2: CacheStats,
}

/// What a `DeviceState` remembers of its last launch: per warp in launch
/// order, the digest of its lanes and its state-free counters, and the
/// cache thread's half of the record.
pub(crate) struct Memo {
    pub(crate) shape: LaunchShape,
    pub(crate) digests: Vec<u128>,
    /// Per warp, an index into `tallies`.
    tally_of: Vec<u32>,
    /// The distinct state-free counters of the warps, and where each is
    /// in `tallies`.
    tallies: Vec<Counters>,
    tally_index: HashMap<Counters, u32>,
    /// The cache thread's half, lent to it during a launch.
    pub(crate) ops: OpLog,
    /// Per warp, its op count as the cache thread's half holds it: how
    /// much work a replay of it hands the cache thread.
    pub(crate) op_counts: Vec<u32>,
    /// `Some` when the record was made at a cache fixed point.
    pub(crate) steady: Option<Steady>,
}

impl Memo {
    pub(crate) fn new(shape: LaunchShape) -> Self {
        let warps = shape.range.num_groups() as usize * shape.group_warps();
        Self {
            shape,
            digests: Vec::with_capacity(warps),
            tally_of: Vec::with_capacity(warps),
            tallies: Vec::new(),
            tally_index: HashMap::default(),
            ops: OpLog {
                warps: Vec::with_capacity(warps),
                ..OpLog::default()
            },
            op_counts: Vec::with_capacity(warps),
            steady: None,
        }
    }

    /// Warp `i`'s state-free counters.
    pub(crate) fn tally(&self, i: usize) -> &Counters {
        &self.tallies[self.tally_of[i] as usize]
    }

    /// Forget every warp from `warps` on, and the fixed point, which was a
    /// property of the whole record.  The cache thread truncates its half
    /// where it appends the next warp ([`Recorder::begin`]).
    pub(crate) fn truncate(&mut self, warps: usize) {
        self.digests.truncate(warps);
        self.tally_of.truncate(warps);
        self.steady = None;
    }

    /// Take back the cache thread's half after a launch.
    pub(crate) fn restore(&mut self, ops: OpLog) {
        self.op_counts.clear();
        self.op_counts.extend(ops.warps.iter().map(|&(n, _)| n));
        self.ops = ops;
    }

    /// Append a warp with its state-free counters, as
    /// [`model_warp`](crate::warp::model_warp) counts them.
    pub(crate) fn push(&mut self, digest: u128, counters: Counters) {
        let next = u32::try_from(self.tallies.len()).expect("fewer than 2^32 distinct warps");
        let tally = *self.tally_index.entry(counters).or_insert(next);
        if tally == next {
            self.tallies.push(counters);
        }
        self.digests.push(digest);
        self.tally_of.push(tally);
    }
}

/// A launch's pass over the cache thread's half of a record, warp by warp
/// in launch order: it drives the warps the calling thread answered from
/// the record and appends the rest.  It allocates nothing: the per-warp
/// table was sized for the whole launch, and the calling thread supplies
/// every chunk the log fills ([`Room`]).
pub(crate) struct Recorder {
    pub(crate) log: OpLog,
    coder: OpCoder,
    /// Warps driven or appended so far.
    next: usize,
}

impl Recorder {
    pub(crate) fn new(log: OpLog, line_bytes: u32) -> Self {
        Self {
            log,
            coder: OpCoder::new(line_bytes),
            next: 0,
        }
    }

    /// Take the room the calling thread sent with a batch of commands.
    pub(crate) fn supply(&mut self, (chunk, mut list): Room) {
        let log = &mut self.log;
        if log.spare.capacity() == 0 {
            log.spare = chunk;
        }
        list.append(&mut log.chunks);
        log.chunks = list;
    }

    /// Drive recorded warp `warp`, the next one, through an SM's L1 and
    /// the L2: its ops, then its repeats.
    pub(crate) fn replay(&mut self, warp: usize, l1: &mut Cache, l2: &mut Cache, c: &mut Counters) {
        debug_assert_eq!(warp, self.next, "recorded warps replay in order");
        let (ops, repeats) = self.log.warps[warp];
        self.coder.get(&self.log, ops, |op| op.apply(l1, l2, c));
        repeats.count(l1, c);
        self.next = warp + 1;
    }

    /// Append a warp, first forgetting every recorded warp from this one
    /// on: the launch stopped matching the record here.
    pub(crate) fn begin(&mut self) {
        if self.log.warps.len() > self.next {
            self.log.truncate(self.next, self.coder.at);
        }
        self.log.warps.push((0, Repeats::default()));
        self.next += 1;
    }

    /// Append an op of the warp begun last.
    #[inline]
    pub(crate) fn put(&mut self, op: CacheOp) {
        self.coder.put(&mut self.log, op);
        if let Some((ops, _)) = self.log.warps.last_mut() {
            *ops += 1;
        }
    }

    /// Count repeats into the warp begun last.
    pub(crate) fn repeat(&mut self, repeats: Repeats) {
        if let Some((_, r)) = self.log.warps.last_mut() {
            r.add(repeats);
        }
    }
}

/// What the calling thread sends with each batch of commands, so that the
/// recorder never allocates: a fresh chunk, and a list with room for every
/// chunk the log may then hold.  A batch adds at most [`BATCH_OPS`] ops,
/// which fill at most one chunk: a writer opens one only when the last
/// lacks room for a window of `WINDOW` ops, and a fresh chunk holds a
/// batch and a window more.
pub(crate) type Room = (Vec<u8>, Vec<Vec<u8>>);

/// Bytes per chunk of an [`OpLog`]: the log grows a chunk at a time and
/// never copies what it holds.
const CHUNK: usize = 1 << 16;

/// The cache thread's half of a record: encoded cache ops, in chunks that
/// no op straddles, and per warp its op count and repeats.
#[derive(Default)]
pub(crate) struct OpLog {
    chunks: Vec<Vec<u8>>,
    /// The chunk the log goes on in when its last one is full.
    spare: Vec<u8>,
    pub(crate) warps: Vec<(u32, Repeats)>,
}

/// A byte of an [`OpLog`].
#[derive(Copy, Clone, Default)]
pub(crate) struct LogPos {
    chunk: usize,
    byte: usize,
}

impl OpLog {
    /// The chunks the log holds.
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Room for a batch after which the log holds at most `chunks` chunks.
    pub(crate) fn room(chunks: usize) -> Room {
        (Vec::with_capacity(CHUNK), Vec::with_capacity(chunks))
    }

    /// Drop every warp from `warps` on and every byte from `at` on.
    fn truncate(&mut self, warps: usize, at: LogPos) {
        self.warps.truncate(warps);
        self.chunks.truncate(at.chunk + 1);
        if let Some(chunk) = self.chunks.get_mut(at.chunk) {
            chunk.truncate(at.byte);
        }
    }
}

/// Slots of the token cache; token `ESCAPE` introduces a literal op.
const SLOTS: usize = 255;
const ESCAPE: u8 = 255;
/// The most bytes one op takes: the escape and a varint of up to 74 bits.
const MAX_OP_BYTES: usize = 12;
/// Ops a writer makes room for at a time.
const WINDOW: usize = 256;
/// The most ops a batch of commands may add to a log: one chunk holds
/// them and a window more.
pub(crate) const BATCH_OPS: usize = (CHUNK - WINDOW * MAX_OP_BYTES) / MAX_OP_BYTES;

/// Encodes cache ops into an [`OpLog`] and decodes them back, one byte
/// per op in the common case.
///
/// An op is keyed on its line's distance from the previous op's line (in
/// lines, zigzag-coded) with its kind and sector mask.  A key found in
/// its slot of a direct-mapped table of recent keys is written as the
/// slot's index; any other key is written as `ESCAPE` and a varint, and
/// takes its slot.  The decoder keeps the same table by the same rule, so
/// a coder that read a log up to some op can go on writing there.
pub(crate) struct OpCoder {
    slots: [u128; SLOTS],
    /// Line number of the previous op.
    prev: u64,
    line_shift: u32,
    /// Where the next op is read.
    at: LogPos,
    /// Ops the writer's chunk still has room for.
    room: usize,
}

impl OpCoder {
    pub(crate) fn new(line_bytes: u32) -> Self {
        Self {
            slots: [0; SLOTS],
            prev: 0,
            line_shift: line_bytes.trailing_zeros(),
            at: LogPos::default(),
            room: 0,
        }
    }

    #[inline]
    fn slot(key: u128) -> usize {
        let h = (key as u64 ^ (key >> 64) as u64).wrapping_mul(K);
        (((h >> 56) * SLOTS as u64) >> 8) as usize
    }

    /// Append `op` to `log`, whose end must be where this coder stopped
    /// reading, if it read.  A full log goes on in its spare chunk.
    #[inline]
    pub(crate) fn put(&mut self, log: &mut OpLog, op: CacheOp) {
        if self.room == 0 {
            let need = WINDOW * MAX_OP_BYTES;
            if log
                .chunks
                .last()
                .is_none_or(|c| c.capacity() - c.len() < need)
            {
                let spare = std::mem::take(&mut log.spare);
                assert!(spare.capacity() >= need, "a log fills only supplied chunks");
                log.chunks.push(spare);
            }
            self.room = WINDOW;
        }
        self.room -= 1;
        let chunk = log.chunks.last_mut().expect("made room above");
        let line = op.line >> self.line_shift;
        let delta = line.wrapping_sub(self.prev) as i64;
        self.prev = line;
        let zigzag = ((delta << 1) ^ (delta >> 63)) as u64 as u128;
        let key = zigzag << 10 | (op.access as u128) << 8 | op.mask as u128;
        let slot = Self::slot(key);
        if self.slots[slot] == key {
            chunk.push(slot as u8);
            return;
        }
        self.slots[slot] = key;
        chunk.push(ESCAPE);
        let mut rest = key;
        while rest >= 0x80 {
            chunk.push(rest as u8 | 0x80);
            rest >>= 7;
        }
        chunk.push(rest as u8);
    }

    /// Read the next `n` ops of `log` into `apply`.
    #[inline]
    pub(crate) fn get(&mut self, log: &OpLog, n: u32, mut apply: impl FnMut(CacheOp)) {
        let mut bytes: &[u8] = log.chunks.get(self.at.chunk).map_or(&[], |c| c);
        let mut i = self.at.byte;
        for _ in 0..n {
            // The writer moves to a new chunk only between ops.
            if i == bytes.len() {
                self.at.chunk += 1;
                (bytes, i) = (&log.chunks[self.at.chunk], 0);
            }
            i += 1;
            let key = if bytes[i - 1] != ESCAPE {
                self.slots[bytes[i - 1] as usize]
            } else {
                let mut key = 0u128;
                for shift in (0..).step_by(7) {
                    key |= ((bytes[i] & 0x7F) as u128) << shift;
                    i += 1;
                    if bytes[i - 1] < 0x80 {
                        break;
                    }
                }
                self.slots[Self::slot(key)] = key;
                key
            };
            let zigzag = (key >> 10) as u64;
            let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
            self.prev = self.prev.wrapping_add(delta as u64);
            apply(CacheOp {
                line: self.prev << self.line_shift,
                mask: key as u8,
                access: [Access::Load, Access::Store, Access::Atomic][(key >> 8) as usize & 3],
            });
        }
        self.at.byte = i;
    }
}

/// A 128-bit digest of one warp's lane event streams, folded as the lanes
/// record them: the lane folds each event as it pushes it
/// ([`Lane`](crate::kernel::Lane)), and the engine each lane's stream
/// length once the lane returns.  The warp contributes its phase, index
/// and active lane count, then each lane's events and stream length, so
/// equal digests mean (up to an accident of about 2^-64) equal streams,
/// split into the same lanes.  Digests are never persisted, so the
/// composition may change from one version to the next.
///
/// Every word `w` at position `i` of that sequence adds the full 128-bit
/// square of `x = w ^ (i · K)` into a wrapping sum.  The square is
/// nonlinear in `x`, and the position enters each term, so reordered,
/// moved or changed words change the sum: one changed word always does
/// (two squares of distinct 64-bit values differ by less than 2^128), and
/// several undo each other's change only by an accident of about 2^-64.
/// Unlike a hash chain, no term waits for the one before it, and a term is
/// one multiply, so a lane folds an event for a few instructions and one
/// store.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StreamDigest {
    sum: u128,
    /// `i · K` for the next word's position `i`.
    position: u64,
}

/// Odd Weyl increment giving each position its own 64-bit mask.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Tags in the top byte that keep header words apart from event words,
/// whose top byte is the event kind (0..=7).
const WARP: u64 = 0xFF << 56;
const LANE: u64 = 0xFE << 56;

impl StreamDigest {
    /// Start a warp: its phase, index in the group and active lanes.
    pub(crate) fn warp(phase: usize, warp: u32, lanes: u32) -> Self {
        let mut d = Self {
            sum: 0,
            position: K,
        };
        d.word(WARP | (phase as u64) << 40 | (lanes as u64) << 32 | warp as u64);
        d
    }

    #[inline(always)]
    fn word(&mut self, w: u64) {
        self.add(w ^ self.position);
        self.position = self.position.wrapping_add(K);
    }

    #[inline(always)]
    fn add(&mut self, x: u64) {
        self.sum = self.sum.wrapping_add(x as u128 * x as u128);
    }

    /// Fold in event `index` of the running lane.  Inlined at a push site,
    /// the event's kind and width are constants, and the position comes
    /// from `index` rather than from the event before.
    #[inline(always)]
    pub(crate) fn event(&mut self, event: &Event, index: usize) {
        self.add(word(event) ^ self.position.wrapping_add((index as u64).wrapping_mul(K)));
    }

    /// End the running lane, which recorded `events` events.
    #[inline]
    pub(crate) fn end_lane(&mut self, events: usize) {
        self.position = self.position.wrapping_add((events as u64).wrapping_mul(K));
        self.word(LANE | events as u64);
    }

    /// Fold in one lane's whole stream: the composition a recording lane
    /// and the engine make between them.
    #[cfg(test)]
    pub(crate) fn lane(&mut self, stream: &[Event]) {
        for (i, event) in stream.iter().enumerate() {
            self.event(event, i);
        }
        self.end_lane(stream.len());
    }

    /// The digest's value.
    pub(crate) fn value(&self) -> u128 {
        self.sum
    }
}

/// An event as one word: its kind in the top byte, its width in the
/// next, and its operand (an address, offset or count) below.  Device
/// addresses stay far below 2^48, so the fields never overlap.  One arm
/// per field layout, not per kind, keeps the decode to three branches.
#[inline(always)]
fn word(event: &Event) -> u64 {
    let kind = (event.kind_id() as u64) << 56;
    match *event {
        Event::GlobalLoad { addr, bytes }
        | Event::GlobalStore { addr, bytes }
        | Event::AtomicRmw { addr, bytes } => kind | (bytes as u64) << 48 | addr,
        Event::LocalLoad { offset, bytes } | Event::LocalStore { offset, bytes } => {
            kind | (bytes as u64) << 48 | offset as u64
        }
        Event::Flops(n) | Event::Iops(n) | Event::SetPath(n) => kind | n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn digest(phase: usize, w: u32, streams: &[Vec<Event>]) -> u128 {
        let mut d = StreamDigest::warp(phase, w, streams.len() as u32);
        for stream in streams {
            d.lane(stream);
        }
        d.value()
    }

    #[test]
    fn digest_separates_operands_kinds_lanes_and_boundaries() {
        let ld = |addr| Event::GlobalLoad { addr, bytes: 8 };
        let st = |addr| Event::GlobalStore { addr, bytes: 8 };
        let base = digest(0, 0, &[vec![ld(64), ld(72)], vec![ld(80)]]);
        assert_eq!(base, digest(0, 0, &[vec![ld(64), ld(72)], vec![ld(80)]]));
        let variants = [
            // Another address.
            digest(0, 0, &[vec![ld(64), ld(72)], vec![ld(88)]]),
            // Another kind at the same address.
            digest(0, 0, &[vec![ld(64), ld(72)], vec![st(80)]]),
            // Another width.
            digest(
                0,
                0,
                &[
                    vec![ld(64), ld(72)],
                    vec![Event::GlobalLoad { addr: 80, bytes: 4 }],
                ],
            ),
            // The same events split differently between lanes.
            digest(0, 0, &[vec![ld(64)], vec![ld(72), ld(80)]]),
            // The same lanes in another phase or warp.
            digest(1, 0, &[vec![ld(64), ld(72)], vec![ld(80)]]),
            digest(0, 1, &[vec![ld(64), ld(72)], vec![ld(80)]]),
            // An extra empty lane.
            digest(0, 0, &[vec![ld(64), ld(72)], vec![ld(80)], vec![]]),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, base, "variant {i} collides");
        }
    }

    /// Have `lane` record the event `op` (one per `Lane` method that
    /// records) on operand `x`.
    fn record(lane: &mut crate::kernel::Lane<'_>, base: u64, op: u8, x: u32) {
        let (addr, off) = (base + x as u64 * 16, x * 16);
        match op {
            0 => {
                lane.ld_global_f64(addr);
            }
            1 => lane.st_global_f64(addr, 1.0),
            2 => {
                lane.ld_global_u32(addr);
            }
            3 => {
                lane.ld_global_c64(addr);
            }
            4 => lane.st_global_c64(addr, 1.0, 2.0),
            5 => {
                lane.ld_global_c64_vec(addr);
            }
            6 => lane.st_global_c64_vec(addr, 1.0, 2.0),
            7 => {
                lane.atomic_add_global_f64(addr, 1.0);
            }
            8 => {
                lane.ld_local_f64(off);
            }
            9 => lane.st_local_f64(off, 1.0),
            10 => {
                lane.ld_local_c64(off);
            }
            11 => lane.st_local_c64(off, 1.0, 2.0),
            12 => lane.flops(x),
            13 => lane.iops(x),
            _ => lane.set_path(x),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The digest lanes fold as they record, with each lane's length
        /// folded after it returns, is `StreamDigest::lane` over the
        /// streams they recorded, for any mix of every event kind.
        #[test]
        fn a_recording_lane_folds_the_digest_of_its_stream(
            lanes in proptest::collection::vec(
                proptest::collection::vec((0u8..15, 0u32..64), 0..40),
                1..6,
            ),
            phase in 0usize..4,
            warp in 0u32..8,
        ) {
            let mut mem = crate::memory::DeviceMemory::new();
            let base = mem.alloc(64 * 16, "buf").base();
            let mut local = crate::sharedmem::LocalMem::new(64 * 16);
            let mut streams = vec![Vec::new(); lanes.len()];
            let mut folded = StreamDigest::warp(phase, warp, lanes.len() as u32);
            for (ops, stream) in lanes.iter().zip(&mut streams) {
                let mut lane = crate::kernel::Lane::new(0, 0, 0, 1, &mem, &mut local, stream);
                lane.digest = Some(folded);
                for &(op, x) in ops {
                    record(&mut lane, base, op, x);
                }
                folded = lane.digest.expect("a lane keeps its digest");
                folded.end_lane(stream.len());
            }
            prop_assert_eq!(folded.value(), digest(phase, warp, &streams));
        }
    }

    /// Encode `ops`, supplying a chunk whenever the log has no spare.
    fn encode(coder: &mut OpCoder, log: &mut OpLog, ops: &[CacheOp]) {
        for &op in ops {
            if log.spare.capacity() == 0 {
                log.spare = Vec::with_capacity(CHUNK);
            }
            coder.put(log, op);
        }
    }

    fn decode(reader: &mut OpCoder, log: &OpLog, n: usize, warp: usize) -> Vec<CacheOp> {
        let mut out = Vec::new();
        for start in (0..n).step_by(warp) {
            reader.get(log, (n - start).min(warp) as u32, |op| out.push(op));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any op stream decodes to itself: near and far lines in both
        /// directions, every mask and kind, in warps of any size, across
        /// chunks.  One round is mostly escapes, later rounds are mostly
        /// tokens.  A coder that read a prefix of whole warps writes on
        /// from there as if it had written the prefix itself.
        #[test]
        fn op_log_round_trips(
            ops in proptest::collection::vec((0u8..3, 0u64..(1 << 57), 0u8..=255, 0u8..3), 1..300),
            repeat in 1usize..400,
            warp in 1usize..200,
            cut in 0usize..30_000,
        ) {
            let ops: Vec<CacheOp> = ops
                .iter()
                .map(|&(scale, raw, mask, kind)| CacheOp {
                    line: [raw % 8, raw % (1 << 20), raw][scale as usize] << 7,
                    mask,
                    access: [Access::Load, Access::Store, Access::Atomic][kind as usize],
                })
                .collect();
            let stream: Vec<CacheOp> =
                ops.iter().cycle().take(ops.len() * repeat).copied().collect();
            let mut whole = OpLog::default();
            encode(&mut OpCoder::new(128), &mut whole, &stream);
            let cut = cut.min(stream.len()) / warp * warp;
            let mut reader = OpCoder::new(128);
            prop_assert_eq!(decode(&mut reader, &whole, cut, warp), &stream[..cut]);
            let mut log = OpLog::default();
            encode(&mut OpCoder::new(128), &mut log, &stream);
            log.truncate(0, reader.at);
            encode(&mut reader, &mut log, &stream[cut..]);
            prop_assert_eq!(log.chunks.concat(), whole.chunks.concat());
            prop_assert_eq!(decode(&mut OpCoder::new(128), &log, stream.len(), warp), stream);
        }
    }

    #[test]
    fn a_strided_sweep_takes_a_byte_per_op() {
        let sweep: Vec<CacheOp> = (0..10_000)
            .map(|i| CacheOp {
                line: (i % 64) * 128,
                mask: 0b1111,
                access: Access::Load,
            })
            .collect();
        let mut log = OpLog::default();
        encode(&mut OpCoder::new(128), &mut log, &sweep);
        assert!(log.chunks.concat().len() < sweep.len() + 32);
        assert_eq!(decode(&mut OpCoder::new(128), &log, sweep.len(), 32), sweep);
    }
}
