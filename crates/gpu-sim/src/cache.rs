//! Sectored, set-associative cache model (used for both L1 and L2).
//!
//! Modern NVIDIA caches are *sectored*: tags are kept per 128-byte line,
//! but data is filled and transferred in 32-byte sectors.  A request for
//! a sector whose line is resident but whose sector bit is clear is a
//! "sector miss on a tag hit" — it fetches only that sector.  This is the
//! structure behind Table I's distinction between tag requests (row 10)
//! and the L1/L2 miss rates (rows 7–8), which are sector-level.
//!
//! Replacement is LRU within a set.  The model is demand-fetch,
//! write-allocate, write-back — a reasonable approximation of the A100's
//! L1/L2 policies for this workload (streaming reads dominate).

/// Configuration of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line (tag granularity) size in bytes; power of two.
    pub line_bytes: u32,
    /// Sector (fill granularity) size in bytes; divides `line_bytes`.
    pub sector_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.capacity / self.line_bytes as u64 / self.ways as u64).max(1)
    }

    /// The first field in which `other` differs from `self`, as
    /// `(name, self's value, other's value)`.
    pub fn first_difference(&self, other: &CacheConfig) -> Option<(&'static str, u64, u64)> {
        [
            ("capacity", self.capacity, other.capacity),
            (
                "line_bytes",
                self.line_bytes as u64,
                other.line_bytes as u64,
            ),
            (
                "sector_bytes",
                self.sector_bytes as u64,
                other.sector_bytes as u64,
            ),
            ("ways", self.ways as u64, other.ways as u64),
        ]
        .into_iter()
        .find(|&(_, a, b)| a != b)
    }
}

/// Per-access outcome at one cache level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Sectors already resident.
    pub sector_hits: u32,
    /// Sectors that had to be filled from the level below.
    pub sector_misses: u32,
    /// Bitmask of the sectors that missed (what the level below must
    /// serve).
    pub missed_mask: u8,
    /// Whether the line's tag was resident before the access.
    pub tag_hit: bool,
}

/// Aggregate statistics of one cache instance.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular tag lookups.
    pub tag_requests: u64,
    /// Sector-granular requests.
    pub sector_requests: u64,
    /// Sector-granular misses (fills from below).
    pub sector_misses: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty sectors written back to the level below on eviction
    /// (write-back policy; zero for a cache used read-only).
    pub writeback_sectors: u64,
}

impl CacheStats {
    /// Merge another instance's counts (used when combining per-SM L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.tag_requests += other.tag_requests;
        self.sector_requests += other.sector_requests;
        self.sector_misses += other.sector_misses;
        self.evictions += other.evictions;
        self.writeback_sectors += other.writeback_sectors;
    }
}

#[derive(Copy, Clone, Default)]
struct LineState {
    /// Line base address.
    tag: u64,
    /// Bitmask of resident sectors.
    sectors: u8,
    /// Bitmask of dirty sectors (written, not yet flushed below).
    dirty: u8,
    /// LRU timestamp: the clock of the line's last access.  A line is
    /// valid only if stamped after the cache's `epoch`.
    stamp: u64,
}

/// A line number's set, without a divide.  A power-of-two set count (every
/// L1) takes a mask.  Any other count (the L2 scaled to a lattice volume:
/// 80 sets at L = 8) takes Lemire's direct remainder: with
/// `magic = ceil(2^64 / sets)`, `line % sets` is the high word of
/// `(magic · line mod 2^64) · sets`, exactly, for `line` and `sets` below
/// 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019).  Line numbers from 2^32 on, which the arena never reaches, take
/// the `%`.
#[derive(Copy, Clone, Debug)]
enum SetIndex {
    Mask(u64),
    Remainder { sets: u64, magic: u64 },
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        if sets.is_power_of_two() {
            Self::Mask(sets - 1)
        } else {
            // `sets` is not a power of two, so `2^64 / sets` is not whole.
            Self::Remainder {
                sets,
                magic: u64::MAX / sets + 1,
            }
        }
    }

    #[inline]
    fn of(self, line: u64) -> u64 {
        match self {
            Self::Mask(mask) => line & mask,
            Self::Remainder { sets, magic } if (line | sets) >> 32 == 0 => {
                ((magic.wrapping_mul(line) as u128 * sets as u128) >> 64) as u64
            }
            Self::Remainder { sets, .. } => line % sets,
        }
    }
}

/// A sectored set-associative cache.
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: a line address shifted right is its line number.
    line_shift: u32,
    set_index: SetIndex,
    lines: Vec<LineState>,
    clock: u64,
    /// The clock at the last [`reset`](Self::reset): lines stamped at or
    /// before it are invalid, so a reset need not touch the lines.
    epoch: u64,
    stats: CacheStats,
    /// Lines per set, for [`fits`](Self::fits): all zeros between calls.
    per_set: Vec<u8>,
}

impl Cache {
    /// Build a cache from a configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        debug_assert!(cfg.line_bytes.is_power_of_two());
        Self {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_index: SetIndex::new(sets),
            lines: vec![LineState::default(); (sets * cfg.ways as u64) as usize],
            clock: 0,
            epoch: 0,
            stats: CacheStats::default(),
            per_set: vec![0; sets as usize],
        }
    }

    /// Configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clear contents and statistics, in constant time: every line
    /// stamped so far becomes invalid.
    pub fn reset(&mut self) {
        self.epoch = self.clock;
        self.stats = CacheStats::default();
    }

    /// Count `delta` into the statistics without touching the lines:
    /// a launch whose accesses are known to leave the contents as they
    /// were still adds its requests and misses.
    pub(crate) fn add_stats(&mut self, delta: &CacheStats) {
        self.stats.merge(delta);
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> u64 {
        self.set_index.of(line_addr >> self.line_shift)
    }

    /// Whether `lines`, ascending as coalesced, fit this cache: no set
    /// receives more of them than it has ways.  Lines that number no more
    /// than the ways, or span fewer line numbers than there are sets, fit
    /// at once.  Any others are counted set by set.
    pub(crate) fn fits(&mut self, lines: &[(u64, u8)]) -> bool {
        let (index, shift, ways) = (self.set_index, self.line_shift, self.cfg.ways as usize);
        let span = lines
            .first()
            .zip(lines.last())
            .map_or(0, |(f, l)| (l.0 - f.0) >> shift);
        if lines.len() <= ways || span < self.per_set.len() as u64 {
            return true;
        }
        let set = |line: u64| index.of(line >> shift) as usize;
        let fits = lines.iter().all(|&(line, _)| {
            let n = &mut self.per_set[set(line)];
            *n += 1;
            usize::from(*n) <= ways
        });
        lines
            .iter()
            .for_each(|&(line, _)| self.per_set[set(line)] = 0);
        fits
    }

    /// Access one line with a mask of requested sectors (read).  Returns
    /// the per-sector outcome; missing sectors are filled (demand fetch).
    pub fn access(&mut self, line_addr: u64, sector_mask: u8) -> CacheOutcome {
        self.access_inner(line_addr, sector_mask, false)
    }

    /// Write access: like [`access`](Self::access) but marks the touched
    /// sectors dirty (write-back, write-allocate).  Evicting a line with
    /// dirty sectors counts them into
    /// [`CacheStats::writeback_sectors`].
    pub fn access_write(&mut self, line_addr: u64, sector_mask: u8) -> CacheOutcome {
        self.access_inner(line_addr, sector_mask, true)
    }

    /// [`access_write`](Self::access_write) if `write`, else
    /// [`access`](Self::access).
    pub(crate) fn access_inner(
        &mut self,
        line_addr: u64,
        sector_mask: u8,
        write: bool,
    ) -> CacheOutcome {
        debug_assert_eq!(line_addr % self.cfg.line_bytes as u64, 0);
        debug_assert!(sector_mask != 0);
        self.clock += 1;
        self.stats.tag_requests += 1;
        let requested = sector_mask.count_ones();
        self.stats.sector_requests += requested as u64;

        let ways = self.cfg.ways as usize;
        let base = (self.set_of(line_addr) * ways as u64) as usize;
        let set = &mut self.lines[base..base + ways];
        let epoch = self.epoch;

        // Tag lookup.
        if let Some(line) = set
            .iter_mut()
            .find(|l| l.tag == line_addr && l.stamp > epoch)
        {
            let missed_mask = sector_mask & !line.sectors;
            let hits = (sector_mask & line.sectors).count_ones();
            let misses = requested - hits;
            line.sectors |= sector_mask;
            if write {
                line.dirty |= sector_mask;
            }
            line.stamp = self.clock;
            self.stats.sector_misses += misses as u64;
            return CacheOutcome {
                sector_hits: hits,
                sector_misses: misses,
                missed_mask,
                tag_hit: true,
            };
        }

        // Tag miss: victim = invalid line if any, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.stamp > epoch { l.stamp } else { 0 })
            .expect("cache set cannot be empty");
        if victim.stamp > epoch {
            self.stats.evictions += 1;
            self.stats.writeback_sectors += victim.dirty.count_ones() as u64;
        }
        victim.tag = line_addr;
        victim.sectors = sector_mask;
        victim.dirty = if write { sector_mask } else { 0 };
        victim.stamp = self.clock;
        self.stats.sector_misses += requested as u64;
        CacheOutcome {
            sector_hits: 0,
            sector_misses: requested,
            missed_mask: sector_mask,
            tag_hit: false,
        }
    }
}

/// The contents of one or more caches in LRU-canonical form: set by set,
/// each set's valid lines (tag, resident sectors, dirty sectors) from
/// least to most recently used.
///
/// Every hit, miss, fill and victim choice depends only on this: an
/// access finds its line by tag, and a tag miss evicts the least
/// recently used valid line (or takes an invalid slot first, and all
/// invalid slots are alike).  Absolute stamps, the clock and which slot
/// holds which line do not matter.  So two caches with equal snapshots
/// give the same outcome for any access sequence, and their snapshots
/// stay equal afterwards.
#[derive(Default)]
pub(crate) struct LruSnapshot {
    /// Valid lines, sets in index order; within a set, ascending stamp.
    /// The set of a line follows from its tag, so no set boundaries are
    /// stored.
    lines: Vec<LineState>,
    /// Where each pushed cache's lines end in `lines`.
    ends: Vec<usize>,
}

impl LruSnapshot {
    /// Empty the snapshot, keeping its buffer.
    pub(crate) fn clear(&mut self) {
        self.lines.clear();
        self.ends.clear();
    }

    /// Append `cache`'s contents.
    pub(crate) fn push(&mut self, cache: &Cache) {
        let ways = cache.cfg.ways as usize;
        for set in cache.lines.chunks_exact(ways) {
            let start = self.lines.len();
            self.lines
                .extend(set.iter().filter(|l| l.stamp > cache.epoch).copied());
            self.lines[start..].sort_unstable_by_key(|l| l.stamp);
        }
        self.ends.push(self.lines.len());
    }

    /// Whether both snapshots hold the same lines in the same LRU order.
    pub(crate) fn equivalent(&self, other: &LruSnapshot) -> bool {
        self.ends == other.ends
            && self
                .lines
                .iter()
                .zip(&other.lines)
                .all(|(a, b)| a.tag == b.tag && a.sectors == b.sectors && a.dirty == b.dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            capacity: 1024, // 8 lines
            line_bytes: 128,
            sector_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn set_count() {
        assert_eq!(small().config().sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let first = c.access(0, 0b0001);
        assert_eq!(first.sector_misses, 1);
        assert!(!first.tag_hit);
        let second = c.access(0, 0b0001);
        assert_eq!(second.sector_hits, 1);
        assert!(second.tag_hit);
    }

    #[test]
    fn sector_miss_on_tag_hit() {
        let mut c = small();
        c.access(0, 0b0001);
        let o = c.access(0, 0b0110);
        assert!(o.tag_hit);
        assert_eq!(o.sector_misses, 2);
        assert_eq!(o.sector_hits, 0);
        // All three sectors now resident.
        let o = c.access(0, 0b0111);
        assert_eq!(o.sector_hits, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 in a 2-way cache:
        // set = (addr/128) % 4, so addresses 0, 512, 1024 share set 0.
        c.access(0, 1);
        c.access(512, 1);
        c.access(0, 1); // refresh line 0 -> LRU is 512
        c.access(1024, 1); // evicts 512
        assert!(c.access(0, 1).tag_hit);
        assert!(!c.access(512, 1).tag_hit); // was evicted
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.access(0, 0b1111);
        c.access(0, 0b1111);
        let s = c.stats();
        assert_eq!(s.tag_requests, 2);
        assert_eq!(s.sector_requests, 8);
        assert_eq!(s.sector_misses, 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small();
        c.access(0, 1);
        c.reset();
        assert_eq!(c.stats().tag_requests, 0);
        assert!(!c.access(0, 1).tag_hit);
    }

    #[test]
    fn merge_stats() {
        let mut a = CacheStats {
            tag_requests: 1,
            sector_requests: 2,
            sector_misses: 1,
            evictions: 0,
            writeback_sectors: 3,
        };
        let b = CacheStats {
            tag_requests: 10,
            sector_requests: 20,
            sector_misses: 5,
            evictions: 2,
            writeback_sectors: 4,
        };
        a.merge(&b);
        assert_eq!(a.tag_requests, 11);
        assert_eq!(a.sector_requests, 22);
        assert_eq!(a.sector_misses, 6);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.writeback_sectors, 7);
    }

    #[test]
    fn streaming_through_small_cache_thrashes() {
        let mut c = small();
        // Stream 64 distinct lines twice; capacity 8 lines -> second
        // pass must miss everywhere.
        for pass in 0..2 {
            for i in 0..64u64 {
                let o = c.access(i * 128, 0b1111);
                if pass == 1 {
                    assert!(!o.tag_hit, "line {i} unexpectedly survived");
                }
            }
        }
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut c = small();
        // Dirty a line in set 0, then evict it with two more lines.
        c.access_write(0, 0b0011);
        c.access(512, 1);
        c.access(1024, 1); // evicts line 0 (LRU), which has 2 dirty sectors
        assert_eq!(c.stats().writeback_sectors, 2);
        // Clean evictions add nothing.
        c.access(1536, 1);
        assert_eq!(c.stats().writeback_sectors, 2);
    }

    #[test]
    fn rewriting_resident_sectors_keeps_single_dirty_mask() {
        let mut c = small();
        c.access_write(0, 0b0001);
        c.access_write(0, 0b0001); // same sector dirtied twice
        c.access(512, 1);
        c.access(1024, 1);
        assert_eq!(c.stats().writeback_sectors, 1);
    }

    #[test]
    fn lru_snapshots_see_order_and_dirt_but_not_slots_or_stamps() {
        let snap = |ops: &[(u64, bool)]| {
            let mut c = small();
            for &(line, write) in ops {
                if write {
                    c.access_write(line, 1);
                } else {
                    c.access(line, 1);
                }
            }
            let mut s = LruSnapshot::default();
            s.push(&c);
            s
        };
        // Lines 0 and 512 share set 0.  `b` holds them in swapped slots,
        // with other stamps, but in the same LRU order.
        let a = snap(&[(0, false), (512, false)]);
        let b = snap(&[(512, false), (0, false), (512, false)]);
        assert!(a.equivalent(&b));
        // Another order, another dirty mask, another line.
        assert!(!a.equivalent(&snap(&[(512, false), (0, false)])));
        assert!(!a.equivalent(&snap(&[(0, false), (512, true)])));
        assert!(!a.equivalent(&snap(&[(0, false), (1024, false)])));
        // The same lines split differently between two caches.
        let mut one = LruSnapshot::default();
        let (mut full, empty) = (small(), small());
        full.access(0, 1);
        full.access(128, 1);
        one.push(&full);
        one.push(&empty);
        let mut two = LruSnapshot::default();
        let (mut first, mut second) = (small(), small());
        first.access(0, 1);
        second.access(128, 1);
        two.push(&first);
        two.push(&second);
        assert!(!one.equivalent(&two));
    }

    proptest! {
        #[test]
        fn invariants(ops in proptest::collection::vec((0u64..64, 1u8..16), 1..200)) {
            let mut c = small();
            for (line, mask) in ops {
                let o = c.access(line * 128, mask);
                prop_assert_eq!(o.sector_hits + o.sector_misses, mask.count_ones());
            }
            let s = c.stats();
            prop_assert!(s.sector_misses <= s.sector_requests);
        }

        /// A reset cache replays any access sequence exactly like a
        /// fresh one, whatever it held before.
        #[test]
        fn reset_is_as_good_as_new(
            before in proptest::collection::vec((0u64..64, 1u8..16, 0u8..2), 0..100),
            after in proptest::collection::vec((0u64..64, 1u8..16, 0u8..2), 1..100),
        ) {
            let run = |c: &mut Cache, ops: &[(u64, u8, u8)]| -> Vec<CacheOutcome> {
                ops.iter()
                    .map(|&(line, mask, write)| if write == 1 {
                        c.access_write(line * 128, mask)
                    } else {
                        c.access(line * 128, mask)
                    })
                    .collect()
            };
            let mut reused = small();
            run(&mut reused, &before);
            reused.reset();
            let mut fresh = small();
            prop_assert_eq!(run(&mut reused, &after), run(&mut fresh, &after));
            prop_assert_eq!(reused.stats(), fresh.stats());
        }

        /// The divide-free set index is the remainder, for every set count
        /// a cache may have, below 2^32 and above.
        #[test]
        fn set_index_is_the_remainder(
            sets in 1u64..=4096,
            low in 0u64..(1 << 32),
            high in 0u64..u64::MAX,
        ) {
            let index = SetIndex::new(sets);
            for line in [low, high, (1 << 32) - 1 - low % sets] {
                prop_assert_eq!(index.of(line), line % sets);
            }
        }

        #[test]
        fn repeat_access_always_hits(line in 0u64..32, mask in 1u8..16) {
            let mut c = small();
            c.access(line * 128, mask);
            let o = c.access(line * 128, mask);
            prop_assert_eq!(o.sector_misses, 0);
            prop_assert!(o.tag_hit);
        }
    }
}
