//! The launch memo: what a [`DeviceState`](crate::DeviceState) remembers
//! of its last launch so that a repeat replays only what its caches change.
//!
//! Coalescing, bank wavefronts, atomic passes and divergence depend on the
//! address streams alone, which repeat from launch to launch; only L1 and
//! L2 depend on the state.  So a full launch records, per warp, a
//! [`StreamDigest`] of its lanes, its state-free counters, its
//! [`CacheOp`]s and its [`Repeats`] (the L1 requests of the instructions
//! that repeat their predecessor's lines and so issued no ops), and the
//! engine (`engine.rs`) checks a later launch of the same [`LaunchShape`]
//! against the record warp by warp.  A recorded warp's repeats are its
//! own: a warp never repeats the last instruction of the warp before it.

use std::collections::HashMap;

use crate::cache::CacheStats;
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

/// A recorded warp's state-free counters, cache-op count and repeats.
pub(crate) type Tally = (Counters, u32, Repeats);

/// The outcome of a recorded launch that left the caches LRU-equivalent
/// to how it found them.
pub(crate) struct Steady {
    pub(crate) counters: Counters,
    /// Per-SM L1 statistics of the launch.
    pub(crate) l1: Vec<CacheStats>,
    pub(crate) l2: CacheStats,
}

/// What a `DeviceState` remembers of its last launch: per warp in launch
/// order, the digest of its lanes, its state-free counters, its cache ops
/// and its [`Repeats`].
pub(crate) struct Memo {
    pub(crate) shape: LaunchShape,
    pub(crate) digests: Vec<u128>,
    /// Per warp, an index into `tallies`.
    tally_of: Vec<u32>,
    /// The distinct (state-free counters, cache-op count, repeats) of the
    /// warps, and where each is in `tallies`.
    tallies: Vec<Tally>,
    tally_index: HashMap<Tally, u32>,
    pub(crate) ops: OpLog,
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
            ops: OpLog::default(),
            steady: None,
        }
    }

    /// Warp `i`'s state-free counters, cache-op count and repeats.
    pub(crate) fn tally(&self, i: usize) -> Tally {
        self.tallies[self.tally_of[i] as usize]
    }

    /// Forget every warp from `warps` on and every op from `ops` on, and
    /// the fixed point, which was a property of the whole record.
    pub(crate) fn truncate(&mut self, warps: usize, ops: LogPos) {
        self.digests.truncate(warps);
        self.tally_of.truncate(warps);
        self.ops.truncate(ops);
        self.steady = None;
    }

    /// Append a warp with its state-free counters and repeats (as
    /// [`model_warp`](crate::warp::model_warp) counts them) and the number
    /// of cache ops it put into `ops`.
    pub(crate) fn push(&mut self, digest: u128, counters: Counters, ops: u32, repeats: Repeats) {
        let key = (counters, ops, repeats);
        let next = u32::try_from(self.tallies.len()).expect("fewer than 2^32 distinct warps");
        let tally = *self.tally_index.entry(key).or_insert(next);
        if tally == next {
            self.tallies.push(key);
        }
        self.digests.push(digest);
        self.tally_of.push(tally);
    }
}

/// Bytes per chunk of an [`OpLog`]: the log grows a chunk at a time and
/// never copies what it holds.  Tests take small chunks to cross them.
const CHUNK: usize = if cfg!(test) { 1 << 10 } else { 1 << 16 };

/// Encoded cache ops, in chunks that no op straddles.
#[derive(Default)]
pub(crate) struct OpLog {
    chunks: Vec<Vec<u8>>,
}

/// A byte of an [`OpLog`].
#[derive(Copy, Clone, Default)]
pub(crate) struct LogPos {
    chunk: usize,
    byte: usize,
}

impl OpLog {
    /// Drop every byte from `at` on.
    fn truncate(&mut self, at: LogPos) {
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
const BATCH: usize = 256;

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
    /// Where the next op is read or written.
    pub(crate) at: LogPos,
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
    /// reading, if it read.
    #[inline]
    pub(crate) fn put(&mut self, log: &mut OpLog, op: CacheOp) {
        if self.room == 0 {
            let need = BATCH * MAX_OP_BYTES;
            if log
                .chunks
                .last()
                .is_none_or(|c| c.capacity() - c.len() < need)
            {
                log.chunks.push(Vec::with_capacity(CHUNK.max(need)));
            }
            self.room = BATCH;
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

/// A 128-bit digest of one warp's lane event streams, taken lane by lane
/// as each lane finishes.  The warp contributes its phase, index and
/// active lane count, then each lane's stream length and events, so equal
/// digests mean (up to an accident of about 2^-100) equal streams, split
/// into the same lanes.
///
/// Every word `w` at position `i` of that sequence adds the full 128-bit
/// product `(x ^ A) · (x ^ B)` with `x = w ^ (i · K)` into a wrapping
/// sum.  The product is nonlinear in `x`, and the position enters each
/// term, so reordered, moved or changed words change the sum.  Unlike a
/// hash chain, no term waits for the one before it, so the digest runs at
/// multiplier throughput rather than latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StreamDigest {
    sum: u128,
    /// `i · K` for the next word's position `i`.
    position: u64,
}

/// Odd Weyl increment giving each position its own 64-bit mask.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
const A: u64 = 0x243F_6A88_85A3_08D3;
const B: u64 = 0xA409_3822_299F_31D0;
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
        let x = w ^ self.position;
        self.position = self.position.wrapping_add(K);
        self.sum = self
            .sum
            .wrapping_add(((x ^ A) as u128).wrapping_mul((x ^ B) as u128));
    }

    /// Fold in one lane's stream.  Called right after the lane ran, while
    /// its stream is still in the host's L1 cache.
    pub(crate) fn lane(&mut self, stream: &[Event]) {
        self.word(LANE | stream.len() as u64);
        for event in stream {
            self.word(word(event));
        }
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

    fn encode(coder: &mut OpCoder, log: &mut OpLog, ops: &[CacheOp]) {
        ops.iter().for_each(|&op| coder.put(log, op));
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
            repeat in 1usize..100,
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
            log.truncate(reader.at);
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
