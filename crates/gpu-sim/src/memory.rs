//! Simulated device global memory.
//!
//! A single flat address space backed by 8-byte words stored in
//! `AtomicU64` cells.  Atomic cells let every lane store through a
//! shared `&DeviceMemory` without locks or `unsafe`: ordinary
//! loads/stores use relaxed atomics (racing plain stores to one word
//! within a phase are the kernel's bug, mirroring the data-race-freedom
//! the SYCL kernels must themselves guarantee), and device atomics use
//! a compare-exchange loop on the same cells.
//!
//! Allocations mimic `sycl::malloc_device`/USM: 256-byte aligned,
//! monotonically increasing, with a non-zero base so that address 0 is
//! never valid.

use crate::error::SimError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Base device address of the first allocation.  Non-zero so stray null
/// pointers fault instead of silently reading allocation zero.
pub const BASE_ADDR: u64 = 0x1000;

/// Allocation alignment (matches CUDA's 256-byte `cudaMalloc` guarantee,
/// which the paper's coalescing analysis implicitly relies on: buffers
/// start cache-line aligned).
const ALIGN: u64 = 256;

/// A device allocation: a `[base, base + len)` range of device addresses.
/// The `Default` value is the empty null buffer (useful for array
/// initialization before real allocations are assigned).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Buffer {
    base: u64,
    len: u64,
}

impl Buffer {
    /// First device address of the buffer.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Device address at byte offset `off`.
    ///
    /// # Panics
    /// Panics (debug) if `off` is out of bounds.
    #[inline]
    pub fn addr(&self, off: u64) -> u64 {
        debug_assert!(off < self.len, "offset {off} out of bounds ({})", self.len);
        self.base + off
    }

    /// Whether the buffer contains `addr`.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// The simulated global memory of one device.
pub struct DeviceMemory {
    /// Backing words; index `w` holds device bytes
    /// `[BASE_ADDR + 8w, BASE_ADDR + 8w + 8)`.
    words: Vec<AtomicU64>,
    /// Next free (aligned) device address.
    next: u64,
    /// Allocation log: (base, len, label).
    allocs: Vec<(u64, u64, String)>,
    /// Initialization bitmap: one bit per 4-byte granule of the arena,
    /// set by every host or device write.  The sanitizer's memcheck
    /// snapshots this at launch start to seed its uninitialized-read
    /// tracking (device `malloc` returns uninitialized storage on real
    /// hardware even though this arena is zero-backed).
    init: Vec<AtomicU64>,
}

impl DeviceMemory {
    /// Create an empty memory (grows on demand at allocation time).
    pub fn new() -> Self {
        Self {
            words: Vec::new(),
            next: BASE_ADDR,
            allocs: Vec::new(),
            init: Vec::new(),
        }
    }

    /// Allocate `bytes` of device memory, 256-byte aligned.
    pub fn alloc(&mut self, bytes: u64, label: &str) -> Buffer {
        let base = self.next;
        let len = bytes.max(1);
        self.next = (base + len).div_ceil(ALIGN) * ALIGN;
        let needed_words = ((self.next - BASE_ADDR) / 8) as usize;
        if self.words.len() < needed_words {
            self.words.resize_with(needed_words, || AtomicU64::new(0));
        }
        // Two 4-byte granules per word, 64 granule bits per bitmap word.
        let needed_bits = (needed_words * 2).div_ceil(64);
        if self.init.len() < needed_bits {
            self.init.resize_with(needed_bits, || AtomicU64::new(0));
        }
        self.allocs.push((base, len, label.to_string()));
        Buffer { base, len }
    }

    /// The allocation log: `(base, len, label)` per allocation.
    pub fn allocations(&self) -> impl Iterator<Item = (u64, u64, &str)> {
        self.allocs.iter().map(|(b, l, s)| (*b, *l, s.as_str()))
    }

    /// The allocation containing `addr`, if any, as `(base, len, label)`.
    /// Alignment padding between allocations belongs to none of them.
    /// Allocations are appended at ascending bases, so this is a binary
    /// search for the last allocation starting at or below `addr`.
    pub fn find_allocation(&self, addr: u64) -> Option<(u64, u64, &str)> {
        let i = self.allocs.partition_point(|&(b, _, _)| b <= addr);
        let (b, l, s) = self.allocs.get(i.checked_sub(1)?)?;
        (addr < b + l).then_some((*b, *l, s.as_str()))
    }

    /// One past the highest allocated device address (aligned).
    #[inline]
    pub fn arena_end(&self) -> u64 {
        self.next
    }

    /// Copy of the initialization bitmap: bit `g` of word `g / 64` covers
    /// the 4-byte granule at device address `BASE_ADDR + 4g`.
    pub fn init_snapshot(&self) -> Vec<u64> {
        self.init
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Mark `[addr, addr + bytes)` as initialized.
    #[inline]
    fn mark_init(&self, addr: u64, bytes: u64) {
        if addr < BASE_ADDR {
            return;
        }
        let start = (addr - BASE_ADDR) / 4;
        let end = (addr - BASE_ADDR + bytes).div_ceil(4);
        for g in start..end {
            if let Some(cell) = self.init.get((g / 64) as usize) {
                cell.fetch_or(1 << (g % 64), Ordering::Relaxed);
            }
        }
    }

    /// Validate that `[addr, addr + bytes)` lies inside the allocated
    /// range (cheap range check, not per-buffer).
    #[inline]
    pub fn check(&self, addr: u64, bytes: u64) -> Result<(), SimError> {
        if addr < BASE_ADDR || addr + bytes > self.next {
            Err(SimError::OutOfBoundsAccess { addr })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn word(&self, addr: u64) -> &AtomicU64 {
        debug_assert!(
            addr >= BASE_ADDR && addr < self.next,
            "device access at {addr:#x} outside allocated range [{BASE_ADDR:#x}, {:#x})",
            self.next
        );
        &self.words[((addr - BASE_ADDR) / 8) as usize]
    }

    /// Read an `f64` at an 8-byte-aligned device address.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        debug_assert_eq!(addr % 8, 0, "unaligned f64 read at {addr:#x}");
        f64::from_bits(self.word(addr).load(Ordering::Relaxed))
    }

    /// Write an `f64` at an 8-byte-aligned device address.
    #[inline]
    pub fn write_f64(&self, addr: u64, v: f64) {
        debug_assert_eq!(addr % 8, 0, "unaligned f64 write at {addr:#x}");
        self.word(addr).store(v.to_bits(), Ordering::Relaxed);
        self.mark_init(addr, 8);
    }

    /// Read a `u32` at a 4-byte-aligned device address.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 read at {addr:#x}");
        let w = self.word(addr & !7).load(Ordering::Relaxed);
        if addr.is_multiple_of(8) {
            w as u32
        } else {
            (w >> 32) as u32
        }
    }

    /// Write a `u32` at a 4-byte-aligned device address.
    ///
    /// Not atomic with respect to a concurrent write of the *other* u32
    /// in the same word; the engine never issues such races (host-side
    /// setup is single-threaded).
    #[inline]
    pub fn write_u32(&self, addr: u64, v: u32) {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 write at {addr:#x}");
        let cell = self.word(addr & !7);
        let old = cell.load(Ordering::Relaxed);
        let new = if addr.is_multiple_of(8) {
            (old & 0xFFFF_FFFF_0000_0000) | v as u64
        } else {
            (old & 0x0000_0000_FFFF_FFFF) | ((v as u64) << 32)
        };
        cell.store(new, Ordering::Relaxed);
        self.mark_init(addr, 4);
    }

    /// Atomic `f64` add (relaxed), returning the previous value —
    /// the simulated `atomic_ref<double, memory_order::relaxed, ...>`
    /// the 3LP-2/3LP-3 kernels use.
    #[inline]
    pub fn atomic_add_f64(&self, addr: u64, v: f64) -> f64 {
        debug_assert_eq!(addr % 8, 0, "unaligned atomic f64 at {addr:#x}");
        let cell = self.word(addr);
        self.mark_init(addr, 8);
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(cur),
                Err(c) => cur = c,
            }
        }
    }

    /// Bulk-write a slice of `f64`s starting at `buf[offset_bytes]`.
    pub fn write_f64_slice(&self, buf: &Buffer, offset_bytes: u64, vals: &[f64]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write_f64(buf.addr(offset_bytes + 8 * i as u64), v);
        }
    }

    /// Zero-fill a buffer.
    pub fn zero(&self, buf: &Buffer) {
        let mut addr = buf.base & !7;
        while addr < buf.base + buf.len {
            if addr >= BASE_ADDR && addr < self.next {
                self.word(addr).store(0, Ordering::Relaxed);
                self.mark_init(addr, 8);
            }
            addr += 8;
        }
    }
}

impl Default for DeviceMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(100, "a");
        let b = m.alloc(300, "b");
        assert_eq!(a.base() % 256, 0);
        assert_eq!(b.base() % 256, 0);
        assert!(a.base() + a.len() <= b.base());
        assert_eq!(m.allocations().count(), 2);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(64, "b");
        m.write_f64(b.addr(8), -3.25);
        assert_eq!(m.read_f64(b.addr(8)), -3.25);
        assert_eq!(m.read_f64(b.addr(0)), 0.0);
    }

    #[test]
    fn u32_halves_are_independent() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(16, "b");
        m.write_u32(b.addr(0), 0xDEAD_BEEF);
        m.write_u32(b.addr(4), 0x1234_5678);
        assert_eq!(m.read_u32(b.addr(0)), 0xDEAD_BEEF);
        assert_eq!(m.read_u32(b.addr(4)), 0x1234_5678);
        m.write_u32(b.addr(0), 1);
        assert_eq!(m.read_u32(b.addr(4)), 0x1234_5678);
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(8, "acc");
        m.write_f64(b.addr(0), 1.0);
        let old = m.atomic_add_f64(b.addr(0), 2.5);
        assert_eq!(old, 1.0);
        assert_eq!(m.read_f64(b.addr(0)), 3.5);
    }

    #[test]
    fn slices_roundtrip() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(80, "v");
        let vals: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        m.write_f64_slice(&b, 0, &vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(m.read_f64(b.addr(8 * i as u64)), v);
        }
    }

    #[test]
    fn zero_clears_buffer() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(64, "z");
        m.write_f64_slice(&b, 0, &[1.0; 8]);
        m.zero(&b);
        assert!((0..8).all(|i| m.read_f64(b.addr(8 * i)) == 0.0));
    }

    #[test]
    fn check_detects_out_of_bounds() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(64, "b");
        assert!(m.check(b.base(), 64).is_ok());
        assert_eq!(m.check(0, 8), Err(SimError::OutOfBoundsAccess { addr: 0 }));
        assert!(m.check((b.base() + 1) << 30, 8).is_err());
    }

    #[test]
    fn find_allocation_maps_addresses_to_labels() {
        let mut m = DeviceMemory::new();
        assert!(m.find_allocation(BASE_ADDR).is_none());
        let a = m.alloc(100, "a");
        let b = m.alloc(300, "b");
        let c = m.alloc(256, "c");
        let label = |addr: u64| m.find_allocation(addr).map(|(_, _, l)| l);
        assert!(label(0).is_none());
        assert!(label(a.base() - 1).is_none());
        // First and last byte of each allocation.
        assert_eq!(m.find_allocation(a.base()), Some((a.base(), 100, "a")));
        assert_eq!(label(a.addr(99)), Some("a"));
        assert_eq!(m.find_allocation(b.base()), Some((b.base(), 300, "b")));
        assert_eq!(label(b.addr(299)), Some("b"));
        assert_eq!(label(c.base()), Some("c"));
        assert_eq!(label(c.addr(255)), Some("c"));
        // Alignment padding between allocations belongs to neither.
        assert!(label(a.base() + 100).is_none());
        assert!(label(b.base() - 1).is_none());
        assert!(label(b.base() + 300).is_none());
        assert!(label(c.base() - 1).is_none());
        // `c` fills its last 256-byte block, so the arena ends right
        // after its last byte.
        assert_eq!(m.arena_end(), c.base() + 256);
        assert!(label(m.arena_end()).is_none());
        assert!(label(u64::MAX).is_none());
    }

    #[test]
    fn init_bitmap_tracks_writes() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(64, "b");
        let granule = |addr: u64| ((addr - BASE_ADDR) / 4) as usize;
        let bit = |snap: &[u64], g: usize| snap[g / 64] >> (g % 64) & 1 == 1;
        let before = m.init_snapshot();
        assert!(!bit(&before, granule(b.addr(8))));
        m.write_f64(b.addr(8), 1.0);
        m.write_u32(b.addr(20), 7);
        m.atomic_add_f64(b.addr(32), 1.0);
        let after = m.init_snapshot();
        // f64 covers two granules, u32 exactly one, atomic two.
        assert!(bit(&after, granule(b.addr(8))) && bit(&after, granule(b.addr(12))));
        assert!(bit(&after, granule(b.addr(20))) && !bit(&after, granule(b.addr(16))));
        assert!(bit(&after, granule(b.addr(32))));
        assert!(!bit(&after, granule(b.addr(0))));
    }

    #[test]
    fn concurrent_atomic_adds_from_threads() {
        let mut m = DeviceMemory::new();
        let b = m.alloc(8, "acc");
        let m = std::sync::Arc::new(m);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.atomic_add_f64(b.base(), 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.read_f64(b.base()), 4000.0);
    }
}
