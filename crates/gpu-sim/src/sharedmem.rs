//! Work-group local memory: storage and the bank-conflict model.
//!
//! The data side is a plain per-work-group byte array (`LocalMem`),
//! recreated for every work-group like SYCL `local_accessor` storage.
//!
//! The performance side models the A100's 32 four-byte-wide banks:
//! a warp-level shared-memory instruction is split into 4-byte *phases*
//! sized by the widest access in the warp — the Dslash kernels' 16-byte
//! `double_complex` (c64) loads and stores are four phases each, the
//! plain `f64` path two.  Within each phase every active lane presents
//! one word address, words are deduplicated (hardware broadcast), and
//! the number of *wavefronts* the phase needs is the maximum number of
//! distinct words that map to one bank.  The *ideal* count is the
//! larger of two lower bounds: the deduplicated data volume spread
//! perfectly over the banks, and one wavefront per phase that has any
//! active lane (a phase cannot take zero wavefronts, no matter the
//! layout — a partial-warp c64 access still issues its four phases).
//! `excessive = actual - ideal` wavefronts is Table I row 12 ("the
//! difference between memory_l1_wavefronts_shared and
//! memory_l1_wavefronts_shared_ideal"); a conflict-free layout is one
//! that drives it to zero.

use crate::warp::STACK_LANES;

/// Per-work-group local memory storage.
pub struct LocalMem {
    bytes: Vec<u8>,
}

impl LocalMem {
    /// Allocate `size` bytes of zeroed local memory.
    pub fn new(size: u32) -> Self {
        Self {
            bytes: vec![0; size as usize],
        }
    }

    /// Size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the allocation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Zero the contents (work-group local memory contents are undefined
    /// across work-groups; zeroing makes accidental reliance detectable
    /// and deterministic).
    pub fn reset(&mut self) {
        self.bytes.fill(0);
    }

    /// Read an `f64` at byte offset `off`.
    #[inline]
    pub fn read_f64(&self, off: u32) -> f64 {
        let off = off as usize;
        let arr: [u8; 8] = self.bytes[off..off + 8].try_into().unwrap();
        f64::from_le_bytes(arr)
    }

    /// Write an `f64` at byte offset `off`.
    #[inline]
    pub fn write_f64(&mut self, off: u32, v: f64) {
        let off = off as usize;
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Result of modelling one warp-level shared-memory instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SharedAccess {
    /// Wavefronts actually needed (sum over 4-byte phases of the worst
    /// per-bank word count).
    pub wavefronts: u64,
    /// Minimum wavefronts the data volume would need with a perfect
    /// bank mapping.
    pub ideal_wavefronts: u64,
}

impl SharedAccess {
    /// Excess wavefronts caused by bank conflicts.
    #[inline]
    pub fn excessive(&self) -> u64 {
        self.wavefronts - self.ideal_wavefronts
    }
}

/// Model one warp-level shared-memory instruction.
///
/// `accesses` holds `(byte_offset, access_bytes)` for every *active* lane.
/// `banks` is the bank count (32) and `bank_width` the bank width in
/// bytes (4).
///
/// ```
/// use gpu_sim::sharedmem::model_shared_instruction;
/// // The 3LP-1 `c[local_id]` pattern: 16-byte complex elements at
/// // 16-byte stride — a 4-way conflict on every 4-byte phase.
/// let acc: Vec<(u32, u8)> = (0..32).map(|i| (i * 16, 16)).collect();
/// let r = model_shared_instruction(&acc, 32, 4);
/// assert_eq!(r.wavefronts, 16);
/// assert_eq!(r.excessive(), 12);
/// ```
pub fn model_shared_instruction(
    accesses: &[(u32, u8)],
    banks: u32,
    bank_width: u32,
) -> SharedAccess {
    let Some(max_bytes) = accesses.iter().map(|&(_, b)| b as u32).max() else {
        return SharedAccess {
            wavefronts: 0,
            ideal_wavefronts: 0,
        };
    };
    let phases = max_bytes.div_ceil(bank_width);
    let mut wavefronts = 0u64;
    let mut total_words = 0u64;
    let mut active_phases = 0u64;
    // Scratch: one `(bank, word)` key per active lane of the current
    // phase, on the stack for any warp up to `STACK_LANES` wide.
    let mut stack = [0u64; STACK_LANES];
    let mut heap = Vec::new();
    let keys: &mut [u64] = if accesses.len() <= STACK_LANES {
        &mut stack[..accesses.len()]
    } else {
        heap.resize(accesses.len(), 0);
        &mut heap
    };
    for phase in 0..phases {
        let byte = phase * bank_width;
        let mut n = 0;
        for &(off, bytes) in accesses {
            if byte >= bytes as u32 {
                continue; // narrower access: inactive in this phase
            }
            let word = (off + byte) / bank_width;
            keys[n] = (((word % banks) as u64) << 32) | word as u64;
            n += 1;
        }
        // Sorted, a bank's words are adjacent: equal keys are one word
        // broadcast to several lanes, and the run of distinct words in
        // one bank is that bank's wavefront count.
        let keys = &mut keys[..n];
        keys.sort_unstable();
        let (mut worst, mut run) = (0u64, 0u64);
        let mut prev: Option<u64> = None;
        for &k in keys.iter() {
            if prev == Some(k) {
                continue;
            }
            run = match prev {
                Some(p) if p >> 32 == k >> 32 => run + 1,
                _ => 1,
            };
            worst = worst.max(run);
            total_words += 1;
            prev = Some(k);
        }
        wavefronts += worst;
        if worst > 0 {
            active_phases += 1;
        }
    }
    // Ideal: the larger of the two lower bounds — the deduplicated
    // words spread perfectly over the banks, and one wavefront per
    // phase that had any active lane (no layout can make a phase free).
    let ideal = total_words.div_ceil(banks as u64).max(active_phases);
    SharedAccess {
        wavefronts,
        ideal_wavefronts: ideal.min(wavefronts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    const BANKS: u32 = 32;
    const WIDTH: u32 = 4;

    #[test]
    fn storage_roundtrip() {
        let mut lm = LocalMem::new(64);
        lm.write_f64(16, 2.75);
        assert_eq!(lm.read_f64(16), 2.75);
        assert_eq!(lm.read_f64(0), 0.0);
        lm.reset();
        assert_eq!(lm.read_f64(16), 0.0);
    }

    #[test]
    fn conflict_free_unit_stride_f32() {
        // 32 lanes reading consecutive 4-byte words: one wavefront.
        let acc: Vec<(u32, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 1);
        assert_eq!(r.excessive(), 0);
    }

    #[test]
    fn unit_stride_f64_wavefronts() {
        // 32 lanes reading consecutive f64s = 64 words over 32 banks.
        // The whole-warp per-word phase model charges 2 wavefronts per
        // phase (even words of all 32 lanes alias 16 banks), 4 total —
        // deliberately conservative versus hardware's half-warp split
        // (which would need 2); the constant factor calibrates out in
        // the timing fit, while *strided* conflict patterns (the ones
        // the paper's Table I row 12 reports) keep their structure.
        let acc: Vec<(u32, u8)> = (0..32).map(|i| (i * 8, 8)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 4);
        assert_eq!(r.ideal_wavefronts, 2);
    }

    #[test]
    fn stride_16_complex_store_conflicts() {
        // The 3LP-1 pattern: c[local_id] with 16-byte complex elements.
        // Lane addresses stride 16 bytes -> word stride 4 -> lanes 0..7
        // cover banks {0,4,8,...,28} and lanes 8..15 hit them again:
        // 4-way conflict per phase, 4 phases -> 16 wavefronts vs ideal 4.
        let acc: Vec<(u32, u8)> = (0..32).map(|i| (i * 16, 16)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 16);
        assert_eq!(r.ideal_wavefronts, 4);
        assert_eq!(r.excessive(), 12);
    }

    #[test]
    fn broadcast_is_free() {
        // All lanes read the same word: one wavefront per phase.
        let acc: Vec<(u32, u8)> = (0..32).map(|_| (64, 8)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 2);
        assert_eq!(r.excessive(), 2 - r.ideal_wavefronts.min(2));
    }

    #[test]
    fn worst_case_same_bank() {
        // 32 lanes, stride 128 bytes = 32 words: all in bank 0.
        let acc: Vec<(u32, u8)> = (0..32).map(|i| (i * 128, 4)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 32);
        assert_eq!(r.ideal_wavefronts, 1);
        assert_eq!(r.excessive(), 31);
    }

    #[test]
    fn partial_warp() {
        let acc: Vec<(u32, u8)> = (0..8).map(|i| (i * 4, 4)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 1);
        assert_eq!(r.excessive(), 0);
    }

    #[test]
    fn partial_warp_c64_ideal_counts_phases() {
        // 8 lanes × 16-byte accesses: the data volume alone would allow
        // ceil(32 words / 32 banks) = 1 wavefront, but the instruction
        // still issues four 4-byte phases — the layout-independent
        // floor.  Conflict-free words, so actual == ideal.
        let acc: Vec<(u32, u8)> = (0..8).map(|i| (i * 16, 16)).collect();
        let r = model_shared_instruction(&acc, BANKS, WIDTH);
        assert_eq!(r.wavefronts, 4);
        assert_eq!(r.ideal_wavefronts, 4);
        assert_eq!(r.excessive(), 0);
    }

    #[test]
    fn empty_access_list() {
        let r = model_shared_instruction(&[], BANKS, WIDTH);
        assert_eq!(r.wavefronts, 0);
        assert_eq!(r.ideal_wavefronts, 0);
    }

    /// The bank model's definition, spelled out with one set of
    /// distinct words per bank.
    fn reference(accesses: &[(u32, u8)], banks: u32) -> SharedAccess {
        let max_bytes = accesses.iter().map(|&(_, b)| b as u32).max().unwrap_or(0);
        let (mut wavefronts, mut words, mut active_phases) = (0u64, 0u64, 0u64);
        for phase in 0..max_bytes.div_ceil(WIDTH) {
            let mut per_bank = HashMap::<u32, HashSet<u32>>::new();
            for &(off, bytes) in accesses {
                if phase * WIDTH < bytes as u32 {
                    let word = (off + phase * WIDTH) / WIDTH;
                    per_bank.entry(word % banks).or_default().insert(word);
                }
            }
            let worst = per_bank.values().map(|w| w.len() as u64).max().unwrap_or(0);
            wavefronts += worst;
            active_phases += u64::from(worst > 0);
            words += per_bank.values().map(|w| w.len() as u64).sum::<u64>();
        }
        SharedAccess {
            wavefronts,
            ideal_wavefronts: words
                .div_ceil(banks as u64)
                .max(active_phases)
                .min(wavefronts),
        }
    }

    proptest! {
        /// Partial and full warps (and wider ones, which spill the
        /// stack scratch) of unaligned, colliding 4/8/16-byte accesses.
        #[test]
        fn matches_the_per_bank_set_reference(
            raw in proptest::collection::vec((0u32..2048, 0usize..3), 0..97),
            banks in 0usize..2,
        ) {
            let acc: Vec<(u32, u8)> = raw.iter().map(|&(o, w)| (o, [4u8, 8, 16][w])).collect();
            let banks = [16, 32][banks];
            prop_assert_eq!(model_shared_instruction(&acc, banks, WIDTH), reference(&acc, banks));
        }
    }
}
