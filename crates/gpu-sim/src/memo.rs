//! The steady-state launch memo: what a [`DeviceState`](crate::DeviceState)
//! remembers of its last launch so that a repeat of it can skip warp
//! replay.
//!
//! A Dslash launch in a CG loop gathers through neighbor tables that
//! never change, so from its second launch on a `DeviceState` usually
//! sees the same address streams on the same cache contents: the launch
//! leaves every cache set holding the lines it found, in the same LRU
//! order.  Replaying such a launch again only recomputes counters that
//! are already known.  The engine (`engine.rs`) therefore keeps, per
//! state, the last launch's [`LaunchShape`], and — when that launch
//! started and ended on LRU-equivalent cache contents
//! ([`LruSnapshot`](crate::cache::LruSnapshot)) — its [`Steady`] outcome
//! keyed by a [`StreamDigest`] of every lane's events.  A later launch
//! with the same shape runs its lanes speculatively, and reuses the
//! outcome only if its own digest matches.

use crate::cache::CacheStats;
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::event::Event;
use crate::kernel::KernelResources;
use crate::ndrange::NdRange;

/// Everything besides the lanes' event streams that a launch's replay
/// outcome depends on.
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
}

/// The outcome of a launch that left the caches LRU-equivalent to how
/// it found them, and the digest of the streams that produced it.
pub(crate) struct Steady {
    pub(crate) digest: StreamDigest,
    pub(crate) counters: Counters,
    /// Per-SM L1 statistics of the launch.
    pub(crate) l1: Vec<CacheStats>,
    pub(crate) l2: CacheStats,
}

/// What a `DeviceState` remembers of its last launch.
pub(crate) struct Memo {
    pub(crate) shape: LaunchShape,
    /// `Some` when the launch was at a cache fixed point.
    pub(crate) steady: Option<Steady>,
}

/// A 128-bit digest of a launch's lane event streams, taken lane by lane
/// in launch order as each lane finishes.  Each warp
/// contributes its phase, index and active lane count, then each lane's
/// stream length and events, so equal digests mean (up to an accident of
/// about 2^-100) equal streams, split into the same lanes and warps.
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
    pub(crate) fn new() -> Self {
        Self {
            sum: 0,
            position: K,
        }
    }

    #[inline(always)]
    fn word(&mut self, w: u64) {
        let x = w ^ self.position;
        self.position = self.position.wrapping_add(K);
        self.sum = self
            .sum
            .wrapping_add(((x ^ A) as u128).wrapping_mul((x ^ B) as u128));
    }

    /// Start a warp: its phase, index in the group and active lanes.
    pub(crate) fn begin_warp(&mut self, phase: usize, warp: u32, lanes: u32) {
        self.word(WARP | (phase as u64) << 40 | (lanes as u64) << 32 | warp as u64);
    }

    /// Fold in one lane's stream.  Called right after the lane ran, while
    /// its stream is still in the host's L1 cache.
    pub(crate) fn lane(&mut self, stream: &[Event]) {
        self.word(LANE | stream.len() as u64);
        for event in stream {
            self.word(word(event));
        }
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

    fn digest(warps: &[(usize, u32, Vec<Vec<Event>>)]) -> StreamDigest {
        let mut d = StreamDigest::new();
        for (phase, w, streams) in warps {
            d.begin_warp(*phase, *w, streams.len() as u32);
            for stream in streams {
                d.lane(stream);
            }
        }
        d
    }

    #[test]
    fn digest_separates_operands_kinds_lanes_and_boundaries() {
        let ld = |addr| Event::GlobalLoad { addr, bytes: 8 };
        let st = |addr| Event::GlobalStore { addr, bytes: 8 };
        let base = digest(&[(0, 0, vec![vec![ld(64), ld(72)], vec![ld(80)]])]);
        assert_eq!(
            base,
            digest(&[(0, 0, vec![vec![ld(64), ld(72)], vec![ld(80)]])])
        );
        let variants = [
            // Another address.
            digest(&[(0, 0, vec![vec![ld(64), ld(72)], vec![ld(88)]])]),
            // Another kind at the same address.
            digest(&[(0, 0, vec![vec![ld(64), ld(72)], vec![st(80)]])]),
            // Another width.
            digest(&[(
                0,
                0,
                vec![
                    vec![ld(64), ld(72)],
                    vec![Event::GlobalLoad { addr: 80, bytes: 4 }],
                ],
            )]),
            // The same events split differently between lanes.
            digest(&[(0, 0, vec![vec![ld(64)], vec![ld(72), ld(80)]])]),
            // The same lanes in another phase or warp.
            digest(&[(1, 0, vec![vec![ld(64), ld(72)], vec![ld(80)]])]),
            digest(&[(0, 1, vec![vec![ld(64), ld(72)], vec![ld(80)]])]),
            // An extra empty lane.
            digest(&[(0, 0, vec![vec![ld(64), ld(72)], vec![ld(80)], vec![]])]),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, base, "variant {i} collides");
        }
    }
}
