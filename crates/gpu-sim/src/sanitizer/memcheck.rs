//! Bounds, alignment, and initialization checking.
//!
//! Global accesses are validated against the launch's allocation table
//! (the simulator's `malloc_device` log), not just
//! the arena range: an access that lands in the 256-byte alignment
//! padding between two buffers, or that starts inside a buffer and runs
//! past its end, is as out-of-bounds as one past the arena — exactly the
//! class of indexing bug the composed MILC index arithmetic invites.
//!
//! Initialization is tracked at 4-byte granularity.  The checker seeds
//! its bitmap from the device's own at launch start (host writes before
//! the launch count as initialization) and then maintains *its own
//! copy* from the observed store/atomic events.  It must not consult
//! the live device bitmap: lanes execute before their events are
//! processed, so a kernel that reads a location and then writes it
//! would have already marked the device bitmap by the time the read
//! event is inspected, masking the read-before-write.

use super::FindingKind;
use crate::memory::{DeviceMemory, BASE_ADDR};

pub(super) struct MemChecker<'m> {
    /// The launch's memory.  Its allocation table cannot change while the
    /// launch runs: allocating needs `&mut DeviceMemory`.
    mem: &'m DeviceMemory,
    /// Global init bitmap: bit per 4-byte granule (snapshot + events).
    init: Vec<u64>,
    /// Local init bitmap for the current group.
    local_init: Vec<u64>,
    /// Declared local-memory bytes per group.
    local_len: u32,
}

impl<'m> MemChecker<'m> {
    pub(super) fn new(mem: &'m DeviceMemory, local_mem_bytes: u32) -> Self {
        Self {
            mem,
            init: mem.init_snapshot(),
            local_init: vec![0; ((local_mem_bytes as usize).div_ceil(4)).div_ceil(64)],
            local_len: local_mem_bytes,
        }
    }

    pub(super) fn begin_group(&mut self) {
        self.local_init.fill(0);
    }

    /// Label of the allocation containing `addr`, if any.
    pub(super) fn label_of(&self, addr: u64) -> Option<&'m str> {
        self.mem.find_allocation(addr).map(|(_, _, s)| s)
    }

    /// Whether `[addr, addr + bytes)` lies inside the arena (the cheap
    /// gate the race/init checks need even when memcheck is disabled).
    pub(super) fn global_in_bounds(&self, addr: u64, bytes: u8) -> bool {
        self.mem.check(addr, bytes as u64).is_ok()
    }

    /// Full bounds + alignment check of one global access; returns
    /// whether the access may be fed to the downstream checks.
    pub(super) fn check_global(
        &self,
        addr: u64,
        bytes: u8,
        out: &mut Vec<(FindingKind, String)>,
    ) -> bool {
        match self.mem.find_allocation(addr) {
            None => {
                // Outside every allocation: past the arena, before it,
                // or inside inter-allocation alignment padding.
                let label = self
                    .mem
                    .allocations()
                    .take_while(|&(b, _, _)| b <= addr)
                    .last()
                    .map(|(_, _, s)| s.to_string());
                out.push((
                    FindingKind::GlobalOutOfBounds { label },
                    format!("{bytes}-byte access at {addr:#x} hits no allocation"),
                ));
                false
            }
            Some((base, len, label)) if addr + bytes as u64 > base + len => {
                out.push((
                    FindingKind::GlobalOutOfBounds {
                        label: Some(label.to_string()),
                    },
                    format!(
                        "{bytes}-byte access at {addr:#x} overruns `{label}` \
                         ([{base:#x}, {:#x}))",
                        base + len
                    ),
                ));
                false
            }
            Some((_, _, label)) => {
                if !addr.is_multiple_of(bytes as u64) {
                    out.push((
                        FindingKind::GlobalMisaligned {
                            label: label.to_string(),
                        },
                        format!("{bytes}-byte access at {addr:#x} is not naturally aligned"),
                    ));
                    // Misaligned but in-bounds: still check races/init.
                }
                true
            }
        }
    }

    /// Whether a local access fits the declared allocation.
    pub(super) fn local_in_bounds(&self, offset: u32, bytes: u8) -> bool {
        offset as u64 + bytes as u64 <= self.local_len as u64
    }

    /// Bounds check of one local-memory access.
    pub(super) fn check_local(
        &self,
        offset: u32,
        bytes: u8,
        out: &mut Vec<(FindingKind, String)>,
    ) -> bool {
        if self.local_in_bounds(offset, bytes) {
            true
        } else {
            out.push((
                FindingKind::LocalOutOfBounds,
                format!(
                    "{bytes}-byte local access at offset {offset} exceeds the \
                     declared {} bytes",
                    self.local_len
                ),
            ));
            false
        }
    }

    pub(super) fn mark_global_init(&mut self, addr: u64, bytes: u8) {
        let start = (addr - BASE_ADDR) / 4;
        let end = (addr - BASE_ADDR + bytes as u64).div_ceil(4);
        for g in start..end {
            if let Some(w) = self.init.get_mut((g / 64) as usize) {
                *w |= 1 << (g % 64);
            }
        }
    }

    pub(super) fn check_global_init(
        &self,
        addr: u64,
        bytes: u8,
        out: &mut Vec<(FindingKind, String)>,
    ) {
        let start = (addr - BASE_ADDR) / 4;
        let end = (addr - BASE_ADDR + bytes as u64).div_ceil(4);
        for g in start..end {
            let set = self
                .init
                .get((g / 64) as usize)
                .is_some_and(|w| w >> (g % 64) & 1 == 1);
            if !set {
                out.push((
                    FindingKind::GlobalUninitRead {
                        label: self.label_of(addr).unwrap_or("<unlabelled>").to_string(),
                    },
                    format!("{bytes}-byte read at {addr:#x} covers never-written bytes"),
                ));
                return; // one report per access, not per granule
            }
        }
    }

    pub(super) fn mark_local_init(&mut self, offset: u32, bytes: u8) {
        let start = offset / 4;
        let end = (offset + bytes as u32).div_ceil(4);
        for g in start..end {
            if let Some(w) = self.local_init.get_mut((g / 64) as usize) {
                *w |= 1 << (g % 64);
            }
        }
    }

    pub(super) fn check_local_init(
        &self,
        offset: u32,
        bytes: u8,
        out: &mut Vec<(FindingKind, String)>,
    ) {
        let start = offset / 4;
        let end = (offset + bytes as u32).div_ceil(4);
        for g in start..end {
            let set = self
                .local_init
                .get((g / 64) as usize)
                .is_some_and(|w| w >> (g % 64) & 1 == 1);
            if !set {
                out.push((
                    FindingKind::LocalUninitRead,
                    format!(
                        "{bytes}-byte local read at offset {offset} covers \
                         never-written bytes"
                    ),
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> (
        MemChecker<'static>,
        crate::memory::Buffer,
        crate::memory::Buffer,
    ) {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(100, "a");
        let b = mem.alloc(64, "b");
        mem.write_f64(a.addr(0), 1.0);
        // The checker borrows the memory it checks; a test leaks it.
        (MemChecker::new(Box::leak(Box::new(mem)), 32), a, b)
    }

    #[test]
    fn padding_and_overrun_are_out_of_bounds() {
        let (mc, a, b) = checker();
        let mut out = Vec::new();
        assert!(mc.check_global(a.addr(0), 8, &mut out));
        assert!(mc.check_global(b.addr(56), 8, &mut out));
        assert!(out.is_empty());
        // Into the padding after `a` (100 rounds up to 256).
        assert!(!mc.check_global(a.base() + 104, 8, &mut out));
        // Starts inside `b` but runs past its end.
        assert!(!mc.check_global(b.addr(60), 8, &mut out));
        // Far past the arena.
        assert!(!mc.check_global(1 << 40, 8, &mut out));
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|(k, _)| matches!(k, FindingKind::GlobalOutOfBounds { .. })));
    }

    #[test]
    fn misaligned_in_bounds_access_is_flagged_but_continues() {
        let (mc, a, _) = checker();
        let mut out = Vec::new();
        assert!(mc.check_global(a.addr(4), 8, &mut out));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].0,
            FindingKind::GlobalMisaligned { ref label } if label == "a"
        ));
    }

    #[test]
    fn uninit_tracking_sees_host_writes_and_event_marks() {
        let (mut mc, a, _) = checker();
        let mut out = Vec::new();
        // Host wrote a[0..8] before the snapshot.
        mc.check_global_init(a.addr(0), 8, &mut out);
        assert!(out.is_empty());
        // a[8..16] untouched.
        mc.check_global_init(a.addr(8), 8, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].0, FindingKind::GlobalUninitRead { ref label } if label == "a"));
        // A kernel store marks it; the next read is clean.
        out.clear();
        mc.mark_global_init(a.addr(8), 8);
        mc.check_global_init(a.addr(8), 8, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn local_bounds_and_init_reset_per_group() {
        let (mut mc, _, _) = checker();
        let mut out = Vec::new();
        assert!(mc.check_local(16, 16, &mut out));
        assert!(!mc.check_local(24, 16, &mut out));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].0, FindingKind::LocalOutOfBounds));
        out.clear();
        mc.mark_local_init(0, 16);
        mc.check_local_init(0, 16, &mut out);
        assert!(out.is_empty());
        mc.begin_group();
        mc.check_local_init(0, 16, &mut out);
        assert_eq!(out.len(), 1, "init state must not leak across groups");
    }
}
