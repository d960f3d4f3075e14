//! Global-memory coalescing: mapping one warp-level memory instruction
//! onto cache lines and sectors.
//!
//! The L1 front end looks one instruction at a time at the addresses of
//! all active lanes, merges them into 128-byte cache-line *tag lookups*
//! and 32-byte *sector requests* (Section IV-D7 of the paper analyses
//! exactly this merging for the k- and i-major work-item orders).

/// Coalescing result for one warp-level global-memory instruction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoalescedAccess {
    /// Unique `(line base, sector mask)` pairs in ascending line order:
    /// for each touched 128-byte line (one tag request), the bitmask of
    /// its touched 32-byte sectors.
    pub sector_masks: Vec<(u64, u8)>,
}

impl CoalescedAccess {
    /// Number of tag (line) requests.
    #[inline]
    pub fn tag_requests(&self) -> u64 {
        self.sector_masks.len() as u64
    }

    /// Number of 32-byte sector requests.
    #[inline]
    pub fn sector_requests(&self) -> u64 {
        self.sector_masks
            .iter()
            .map(|&(_, m)| m.count_ones() as u64)
            .sum()
    }
}

/// Coalesce the active lanes' `(addr, bytes)` accesses of one warp
/// instruction into lines and sectors.
///
/// `line_bytes` must be a power of two and a multiple of `sector_bytes`.
/// A thin wrapper over [`coalesce_into`].
///
/// ```
/// use gpu_sim::coalesce::coalesce;
/// // 32 lanes reading consecutive f64s: 256 B = 2 lines, 8 sectors.
/// let dense: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
/// let c = coalesce(&dense, 128, 32);
/// assert_eq!((c.tag_requests(), c.sector_requests()), (2, 8));
/// // The 1LP pattern (576-byte stride): every lane its own line.
/// let sparse: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 576, 8)).collect();
/// assert_eq!(coalesce(&sparse, 128, 32).tag_requests(), 32);
/// ```
pub fn coalesce(accesses: &[(u64, u8)], line_bytes: u32, sector_bytes: u32) -> CoalescedAccess {
    let mut sector_masks = Vec::with_capacity(8);
    coalesce_into(accesses, line_bytes, sector_bytes, &mut sector_masks);
    CoalescedAccess { sector_masks }
}

/// [`coalesce`] into a caller-owned buffer: `out` is cleared, then
/// holds the unique `(line base, sector mask)` pairs in ascending line
/// order.  Coalescing allocates nothing once the buffer has grown.
pub fn coalesce_into(
    accesses: &[(u64, u8)],
    line_bytes: u32,
    sector_bytes: u32,
    out: &mut Vec<(u64, u8)>,
) {
    out.clear();
    for &(addr, bytes) in accesses {
        access_lines(addr, bytes, line_bytes, sector_bytes, |line, mask| {
            merge_line(out, line, mask)
        });
    }
}

/// The lines one `(addr, bytes)` access touches, in ascending order, each
/// with the mask of its sectors the access touches: one line, or two for
/// an access that straddles a line boundary.
///
/// `line_bytes` must be a power of two and a multiple of `sector_bytes`.
#[inline]
pub(crate) fn access_lines(
    addr: u64,
    bytes: u8,
    line_bytes: u32,
    sector_bytes: u32,
    mut each: impl FnMut(u64, u8),
) {
    debug_assert!(line_bytes.is_power_of_two());
    debug_assert_eq!(line_bytes % sector_bytes, 0);
    debug_assert!(line_bytes / sector_bytes <= 8, "sector mask is a u8");
    // A divisor of a power of two is one too, so both are shifts/masks.
    let line_mask = !(line_bytes as u64 - 1);
    let sector_shift = sector_bytes.trailing_zeros();
    // A wild access may end past 2^64: cut at its last byte's sector.
    let end = addr.saturating_add(bytes as u64);
    let mut a = addr;
    while a < end {
        let line = a & line_mask;
        let last = (end - 1).min(line + (line_bytes as u64 - 1));
        let (first, last) = ((a - line) >> sector_shift, (last - line) >> sector_shift);
        each(line, ((2u16 << last) - (1u16 << first)) as u8);
        a = line.saturating_add(line_bytes as u64);
    }
}

/// OR `mask` into `line`'s entry of `out`, which holds unique lines in
/// ascending order.  Lanes usually walk memory upward, so a line at or
/// past the last one is merged or appended in place; only an
/// out-of-order line pays a binary search and insert.
#[inline]
pub(crate) fn merge_line(out: &mut Vec<(u64, u8)>, line: u64, mask: u8) {
    match out.last_mut() {
        Some(last) if last.0 == line => last.1 |= mask,
        Some(last) if last.0 > line => match out.binary_search_by_key(&line, |&(l, _)| l) {
            Ok(idx) => out[idx].1 |= mask,
            Err(idx) => out.insert(idx, (line, mask)),
        },
        _ => out.push((line, mask)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LINE: u32 = 128;
    const SECTOR: u32 = 32;

    #[test]
    fn fully_coalesced_warp() {
        // 32 lanes x consecutive f64: 256 bytes = 2 lines, 8 sectors.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
        let c = coalesce(&acc, LINE, SECTOR);
        assert_eq!(c.tag_requests(), 2);
        assert_eq!(c.sector_requests(), 8);
    }

    #[test]
    fn fully_scattered_warp() {
        // 32 lanes with 576-byte stride (the 1LP U-matrix pattern):
        // every lane its own line and sector.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| (8192 + i * 576, 8)).collect();
        let c = coalesce(&acc, LINE, SECTOR);
        assert_eq!(c.tag_requests(), 32);
        assert_eq!(c.sector_requests(), 32);
    }

    #[test]
    fn same_address_broadcast() {
        let acc: Vec<(u64, u8)> = (0..32).map(|_| (512, 8)).collect();
        let c = coalesce(&acc, LINE, SECTOR);
        assert_eq!(c.tag_requests(), 1);
        assert_eq!(c.sector_requests(), 1);
    }

    #[test]
    fn stride_48_the_3lp_row_pattern() {
        // Lanes stride 48 bytes (one SU(3) row apart): 32 lanes span
        // 1536 bytes = 12 lines; sectors: addresses i*48 hit sector
        // floor(48i/32)%4 of each line — 3 words per 2 sectors.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| ((i * 48), 8)).collect();
        let c = coalesce(&acc, LINE, SECTOR);
        assert_eq!(c.tag_requests(), 12);
        // Each 8B access at multiple of 48 touches exactly 1 sector
        // (48*i % 32 is 0 or 16), and distinct i never share a sector
        // except when 48i and 48(i+... ) land in the same 32B window —
        // 48i/32 = 3i/2, distinct for all i. So 32 sectors? No: 3i/2
        // floors collide for i=2j, 2j+1? floor(3*0/2)=0, floor(3/2)=1,
        // floor(6/2)=3, floor(9/2)=4 ... no collisions.
        assert_eq!(c.sector_requests(), 32);
    }

    #[test]
    fn straddling_access_touches_two_sectors() {
        // An 8-byte access at offset 28 crosses the sector boundary.
        let c = coalesce(&[(28, 8)], LINE, SECTOR);
        assert_eq!(c.tag_requests(), 1);
        assert_eq!(c.sector_requests(), 2);
    }

    #[test]
    fn straddling_line_boundary() {
        let c = coalesce(&[(124, 8)], LINE, SECTOR);
        assert_eq!(c.tag_requests(), 2);
        assert_eq!(c.sector_requests(), 2);
    }

    #[test]
    fn lines_are_sorted_and_unique() {
        let acc = [(700u64, 8u8), (100, 8), (700, 8), (300, 8)];
        let c = coalesce(&acc, LINE, SECTOR);
        let lines: Vec<u64> = c.sector_masks.iter().map(|&(l, _)| l).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn into_reuses_and_clears_the_buffer() {
        let mut out = vec![(1 << 40, 0xff); 3];
        coalesce_into(&[(124, 8)], LINE, SECTOR, &mut out);
        assert_eq!(out, vec![(0, 0b1000), (128, 0b0001)]);
        coalesce_into(&[], LINE, SECTOR, &mut out);
        assert!(out.is_empty());
    }

    /// The coalescer's definition, spelled out with a map: every byte
    /// range is cut at sector boundaries and OR-ed into its line's mask.
    fn reference(accesses: &[(u64, u8)]) -> Vec<(u64, u8)> {
        let mut lines = std::collections::BTreeMap::<u64, u8>::new();
        for &(addr, bytes) in accesses {
            for byte in addr..addr + bytes as u64 {
                let line = byte / LINE as u64 * LINE as u64;
                *lines.entry(line).or_default() |= 1 << ((byte - line) / SECTOR as u64);
            }
        }
        lines.into_iter().collect()
    }

    proptest! {
        #[test]
        fn bounds_hold(addrs in proptest::collection::vec(0u64..100_000, 1..32)) {
            let acc: Vec<(u64, u8)> = addrs.iter().map(|&a| (a, 8)).collect();
            let c = coalesce(&acc, LINE, SECTOR);
            // At least 1 line, at most 2 per lane (straddle).
            prop_assert!(c.tag_requests() >= 1);
            prop_assert!(c.tag_requests() <= 2 * acc.len() as u64);
            prop_assert!(c.sector_requests() >= c.tag_requests());
            prop_assert!(c.sector_requests() <= 2 * acc.len() as u64);
        }

        #[test]
        fn sector_mask_consistent(addrs in proptest::collection::vec(0u64..10_000, 1..32)) {
            let acc: Vec<(u64, u8)> = addrs.iter().map(|&a| (a, 8)).collect();
            let c = coalesce(&acc, LINE, SECTOR);
            for &(line, mask) in &c.sector_masks {
                prop_assert_eq!(line % LINE as u64, 0);
                prop_assert!(mask != 0);
            }
        }

        /// Unsorted accesses over a few lines: duplicates, sector and
        /// line straddles, widths 4, 8 and 16, and warps of 0..=64 lanes.
        #[test]
        fn coalesce_into_matches_the_map_reference(
            raw in proptest::collection::vec((0u64..1024, 0usize..3), 0..65),
            dirty in 0usize..4,
        ) {
            let acc: Vec<(u64, u8)> = raw.iter().map(|&(a, w)| (a, [4u8, 8, 16][w])).collect();
            let mut out = vec![(7, 7); dirty];
            coalesce_into(&acc, LINE, SECTOR, &mut out);
            prop_assert_eq!(&out, &reference(&acc));
            prop_assert_eq!(coalesce(&acc, LINE, SECTOR).sector_masks, out);
        }
    }
}
