//! The kernel authoring API: [`Kernel`] and [`Lane`].
//!
//! Kernels are written in *barrier-phase* style: the body is split at
//! every `group_barrier` into consecutive phases, and the engine runs
//! phase `p` for every work-item of a work-group before phase `p + 1` —
//! which is exactly the synchronization `group_barrier` provides.  The
//! 3LP-1 kernel, for example, has two phases (accumulate into local
//! memory; collapse and write `C`), and 4LP has three (its two barriers).
//!
//! A [`Lane`] is the executing work-item's view of the machine: its IDs,
//! global memory, the work-group's local memory, and the event recorder.
//! Every architectural action — loads, stores, atomics, FLOPs, integer
//! index arithmetic, control-flow path changes — goes through `Lane`, so
//! executing the kernel *is* instrumenting it.

use crate::event::Event;
use crate::memory::DeviceMemory;
use crate::sharedmem::LocalMem;

/// Static resource demand of a kernel, consumed by the occupancy
/// calculator exactly like `-Xptxas -v` output feeds CUDA's.
///
/// The simulator cannot count register allocation the way a compiler
/// back end does, so kernels *declare* a per-work-item register estimate;
/// the MILC-Dslash kernels use estimates justified in
/// `milc-dslash::kernels` (coarser strategies hold more live state).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers per work-item (32-bit registers).
    pub registers_per_item: u32,
    /// Work-group local memory the kernel allocates, bytes per group
    /// (the `local_accessor` allocation; may depend on local size).
    pub local_mem_bytes_per_group: u32,
}

/// A simulated device kernel.
pub trait Kernel: Sync {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Number of barrier-separated phases (1 = no barriers).
    fn num_phases(&self) -> usize {
        1
    }

    /// Resource demand at the given local size.
    fn resources(&self, local_size: u32) -> KernelResources;

    /// The work-group size granularity this kernel's indexing assumes:
    /// local sizes that are not a multiple of this value leave some
    /// work-groups spanning a site block, which the paper's strategies
    /// forbid (DESIGN §4's divisibility rule).  `1` means any local
    /// size that divides the global size is fine.  Consumed by the
    /// launch-config linter.
    fn local_size_multiple(&self) -> u32 {
        1
    }

    /// Execute one work-item's portion of one phase.
    fn run_phase(&self, phase: usize, lane: &mut Lane<'_>);
}

/// The executing work-item's context: IDs, memory access, and the event
/// recorder.
pub struct Lane<'a> {
    global_id: u64,
    local_id: u32,
    group_id: u64,
    local_size: u32,
    mem: &'a DeviceMemory,
    local: &'a mut LocalMem,
    events: &'a mut Vec<Event>,
    /// Tolerant mode (sanitized launches): invalid accesses are still
    /// *recorded* — so memcheck can report them — but the backing memory
    /// operation is skipped (loads return 0.0) instead of panicking.
    tolerant: bool,
    /// Probe mode (static analysis): the lane records its event stream
    /// but never mutates device state — stores and atomics are dropped
    /// (atomics read back 0.0) so a symbolic probe run leaves memory,
    /// including the init-tracking bitmap, exactly as it found it.
    /// Implies tolerant gating.
    probe: bool,
    /// Probe-mode capture of 4-byte load values, `(event_index, value)`:
    /// the index tables a kernel gathers through.  The footprint fitter
    /// uses these to explain data-dependent addresses.
    u32_log: Option<&'a mut Vec<(usize, u32)>>,
}

impl<'a> Lane<'a> {
    /// Construct a lane context (engine-internal, public for the engine
    /// and for tests that drive kernels directly).
    pub fn new(
        global_id: u64,
        local_id: u32,
        group_id: u64,
        local_size: u32,
        mem: &'a DeviceMemory,
        local: &'a mut LocalMem,
        events: &'a mut Vec<Event>,
    ) -> Self {
        Self {
            global_id,
            local_id,
            group_id,
            local_size,
            mem,
            local,
            events,
            tolerant: false,
            probe: false,
            u32_log: None,
        }
    }

    /// Construct a *probe* lane for the static analyzer: tolerant,
    /// side-effect free (stores and atomics record their event but never
    /// touch memory), and logging every 4-byte load value into `u32_log`
    /// keyed by event index.
    #[allow(clippy::too_many_arguments)]
    pub fn new_probe(
        global_id: u64,
        local_id: u32,
        group_id: u64,
        local_size: u32,
        mem: &'a DeviceMemory,
        local: &'a mut LocalMem,
        events: &'a mut Vec<Event>,
        u32_log: &'a mut Vec<(usize, u32)>,
    ) -> Self {
        let mut lane = Self::new(
            global_id, local_id, group_id, local_size, mem, local, events,
        );
        lane.tolerant = true;
        lane.probe = true;
        lane.u32_log = Some(u32_log);
        lane
    }

    /// Switch this lane to tolerant mode (used by sanitized launches so
    /// that deliberately-broken kernels can run to completion and have
    /// their invalid accesses reported rather than panicking the host).
    #[inline]
    pub fn set_tolerant(&mut self) {
        self.tolerant = true;
    }

    /// Whether a global access may actually touch the arena: always in
    /// normal mode; in tolerant mode only when aligned and in bounds.
    #[inline]
    fn global_ok(&self, addr: u64, align: u64, bytes: u64) -> bool {
        !self.tolerant || (addr.is_multiple_of(align) && self.mem.check(addr, bytes).is_ok())
    }

    /// Same gate for work-group local memory.
    #[inline]
    fn local_ok(&self, off: u32, bytes: u32) -> bool {
        !self.tolerant || (off as usize + bytes as usize <= self.local.len())
    }

    /// `item.get_global_id(0)`.
    #[inline]
    pub fn global_id(&self) -> u64 {
        self.global_id
    }

    /// `item.get_local_id(0)`.
    #[inline]
    pub fn local_id(&self) -> u32 {
        self.local_id
    }

    /// `item.get_group(0)`.
    #[inline]
    pub fn group_id(&self) -> u64 {
        self.group_id
    }

    /// `item.get_local_range(0)`.
    #[inline]
    pub fn local_size(&self) -> u32 {
        self.local_size
    }

    // ---- global memory ----------------------------------------------

    /// 8-byte global load.
    #[inline]
    pub fn ld_global_f64(&mut self, addr: u64) -> f64 {
        self.events.push(Event::GlobalLoad { addr, bytes: 8 });
        if !self.global_ok(addr, 8, 8) {
            return 0.0;
        }
        self.mem.read_f64(addr)
    }

    /// 8-byte global store.
    #[inline]
    pub fn st_global_f64(&mut self, addr: u64, v: f64) {
        self.events.push(Event::GlobalStore { addr, bytes: 8 });
        if !self.probe && self.global_ok(addr, 8, 8) {
            self.mem.write_f64(addr, v);
        }
    }

    /// 4-byte global load (neighbor tables).
    #[inline]
    pub fn ld_global_u32(&mut self, addr: u64) -> u32 {
        self.events.push(Event::GlobalLoad { addr, bytes: 4 });
        let v = if self.global_ok(addr, 4, 4) {
            self.mem.read_u32(addr)
        } else {
            0
        };
        if let Some(log) = self.u32_log.as_deref_mut() {
            log.push((self.events.len() - 1, v));
        }
        v
    }

    /// Load a complex number (two consecutive 8-byte words, issued as
    /// two loads — the paper's coalescing analysis is phrased in 8-byte
    /// words, and `double2` loads on the A100 split into two 64-bit
    /// transactions per lane at the LSU).
    #[inline]
    pub fn ld_global_c64(&mut self, addr: u64) -> (f64, f64) {
        let re = self.ld_global_f64(addr);
        let im = self.ld_global_f64(addr + 8);
        (re, im)
    }

    /// Store a complex number as two 8-byte stores.
    #[inline]
    pub fn st_global_c64(&mut self, addr: u64, re: f64, im: f64) {
        self.st_global_f64(addr, re);
        self.st_global_f64(addr + 8, im);
    }

    /// Vectorized complex load: one 16-byte (`double2`) transaction, the
    /// access width QUDA's fields are laid out for.  Same data as
    /// [`ld_global_c64`](Self::ld_global_c64) but half the instructions
    /// and no duplicate sector requests.
    #[inline]
    pub fn ld_global_c64_vec(&mut self, addr: u64) -> (f64, f64) {
        self.events.push(Event::GlobalLoad { addr, bytes: 16 });
        if !self.global_ok(addr, 8, 16) {
            return (0.0, 0.0);
        }
        (self.mem.read_f64(addr), self.mem.read_f64(addr + 8))
    }

    /// Vectorized complex store: one 16-byte (`double2`) transaction.
    #[inline]
    pub fn st_global_c64_vec(&mut self, addr: u64, re: f64, im: f64) {
        self.events.push(Event::GlobalStore { addr, bytes: 16 });
        if !self.probe && self.global_ok(addr, 8, 16) {
            self.mem.write_f64(addr, re);
            self.mem.write_f64(addr + 8, im);
        }
    }

    /// Relaxed global atomic f64 add (the 3LP-2/3LP-3 `atomic_ref` op).
    /// Returns the previous value.
    #[inline]
    pub fn atomic_add_global_f64(&mut self, addr: u64, v: f64) -> f64 {
        self.events.push(Event::AtomicRmw { addr, bytes: 8 });
        if self.probe || !self.global_ok(addr, 8, 8) {
            return 0.0;
        }
        self.mem.atomic_add_f64(addr, v)
    }

    // ---- work-group local memory --------------------------------------

    /// 8-byte local-memory load at byte offset `off`.
    #[inline]
    pub fn ld_local_f64(&mut self, off: u32) -> f64 {
        self.events.push(Event::LocalLoad {
            offset: off,
            bytes: 8,
        });
        if !self.local_ok(off, 8) {
            return 0.0;
        }
        self.local.read_f64(off)
    }

    /// 8-byte local-memory store.
    #[inline]
    pub fn st_local_f64(&mut self, off: u32, v: f64) {
        self.events.push(Event::LocalStore {
            offset: off,
            bytes: 8,
        });
        if !self.probe && self.local_ok(off, 8) {
            self.local.write_f64(off, v);
        }
    }

    /// Load a complex from local memory (one 16-byte access: the
    /// `double_complex` struct loads as a vectorized pair).
    #[inline]
    pub fn ld_local_c64(&mut self, off: u32) -> (f64, f64) {
        self.events.push(Event::LocalLoad {
            offset: off,
            bytes: 16,
        });
        if !self.local_ok(off, 16) {
            return (0.0, 0.0);
        }
        (self.local.read_f64(off), self.local.read_f64(off + 8))
    }

    /// Store a complex to local memory (one 16-byte access).
    #[inline]
    pub fn st_local_c64(&mut self, off: u32, re: f64, im: f64) {
        self.events.push(Event::LocalStore {
            offset: off,
            bytes: 16,
        });
        if !self.probe && self.local_ok(off, 16) {
            self.local.write_f64(off, re);
            self.local.write_f64(off + 8, im);
        }
    }

    // ---- instruction accounting ---------------------------------------

    /// Record `n` floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u32) {
        self.events.push(Event::Flops(n));
    }

    /// Record `n` integer index-arithmetic operations.
    #[inline]
    pub fn iops(&mut self, n: u32) {
        self.events.push(Event::Iops(n));
    }

    /// Declare that this lane is now on control-flow path `path`.
    /// Call it at every kernel branch whose condition can differ between
    /// lanes of one warp (e.g. the 4LP `if (l == 0) ... else if ...`
    /// chain, or the single-writer `if (k == 0)` collapse).
    #[inline]
    pub fn set_path(&mut self, path: u32) {
        self.events.push(Event::SetPath(path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_records_and_executes() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(64, "t");
        mem.write_f64(buf.addr(0), 4.0);
        let mut local = LocalMem::new(32);
        let mut events = Vec::new();
        {
            let mut lane = Lane::new(5, 1, 0, 4, &mem, &mut local, &mut events);
            assert_eq!(lane.global_id(), 5);
            assert_eq!(lane.local_id(), 1);
            assert_eq!(lane.local_size(), 4);
            let v = lane.ld_global_f64(buf.addr(0));
            assert_eq!(v, 4.0);
            lane.st_global_f64(buf.addr(8), v * 2.0);
            lane.flops(1);
            lane.st_local_f64(0, 7.0);
            assert_eq!(lane.ld_local_f64(0), 7.0);
            lane.set_path(3);
            let old = lane.atomic_add_global_f64(buf.addr(0), 1.0);
            assert_eq!(old, 4.0);
        }
        assert_eq!(mem.read_f64(buf.addr(8)), 8.0);
        assert_eq!(mem.read_f64(buf.addr(0)), 5.0);
        assert_eq!(events.len(), 7);
        assert_eq!(
            events[0],
            Event::GlobalLoad {
                addr: buf.addr(0),
                bytes: 8
            }
        );
        assert!(matches!(events[5], Event::SetPath(3)));
    }

    #[test]
    fn tolerant_lane_skips_invalid_accesses_but_records_them() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(64, "t");
        mem.write_f64(buf.addr(0), 4.0);
        let mut local = LocalMem::new(16);
        let mut events = Vec::new();
        let mut lane = Lane::new(0, 0, 0, 1, &mem, &mut local, &mut events);
        lane.set_tolerant();
        // Far out-of-bounds and misaligned loads return 0.0 instead of
        // panicking; the matching stores are dropped.
        assert_eq!(lane.ld_global_f64(1 << 40), 0.0);
        assert_eq!(lane.ld_global_f64(buf.addr(0) + 3), 0.0);
        lane.st_global_f64(1 << 40, 9.0);
        // Local accesses past the declared allocation are dropped too.
        lane.st_local_f64(64, 1.0);
        assert_eq!(lane.ld_local_f64(64), 0.0);
        // Valid accesses still execute normally.
        assert_eq!(lane.ld_global_f64(buf.addr(0)), 4.0);
        // Every access was recorded regardless, for the sanitizer.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn probe_lane_records_without_side_effects() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(64, "t");
        mem.write_f64(buf.addr(0), 4.0);
        mem.write_u32(buf.addr(32), 17);
        let mut local = LocalMem::new(32);
        let mut events = Vec::new();
        let mut log = Vec::new();
        {
            let mut lane = Lane::new_probe(0, 0, 0, 1, &mem, &mut local, &mut events, &mut log);
            // Loads still observe real values (gather tables)...
            assert_eq!(lane.ld_global_f64(buf.addr(0)), 4.0);
            assert_eq!(lane.ld_global_u32(buf.addr(32)), 17);
            // ...but stores and atomics are recorded without executing.
            lane.st_global_f64(buf.addr(8), 9.0);
            lane.st_global_c64_vec(buf.addr(16), 1.0, 2.0);
            assert_eq!(lane.atomic_add_global_f64(buf.addr(0), 1.0), 0.0);
            lane.st_local_f64(0, 5.0);
            lane.st_local_c64(16, 5.0, 6.0);
            // Out-of-arena access is tolerated (recorded, skipped).
            assert_eq!(lane.ld_global_f64(1 << 40), 0.0);
        }
        assert_eq!(mem.read_f64(buf.addr(0)), 4.0);
        assert_eq!(mem.read_f64(buf.addr(8)), 0.0);
        assert_eq!(local.read_f64(0), 0.0);
        assert_eq!(local.read_f64(16), 0.0);
        assert_eq!(events.len(), 8);
        // The 4-byte load value was captured, keyed by event index.
        assert_eq!(log, vec![(1, 17)]);
    }

    #[test]
    fn complex_load_issues_two_words() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(32, "c");
        mem.write_f64(buf.addr(0), 1.5);
        mem.write_f64(buf.addr(8), -2.5);
        let mut local = LocalMem::new(0);
        let mut events = Vec::new();
        let mut lane = Lane::new(0, 0, 0, 1, &mem, &mut local, &mut events);
        let (re, im) = lane.ld_global_c64(buf.addr(0));
        assert_eq!((re, im), (1.5, -2.5));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn local_complex_is_one_16_byte_access() {
        let mut mem = DeviceMemory::new();
        let mut local = LocalMem::new(64);
        let mut events = Vec::new();
        let mut lane = Lane::new(0, 0, 0, 1, &mem, &mut local, &mut events);
        lane.st_local_c64(16, 1.0, 2.0);
        assert_eq!(lane.ld_local_c64(16), (1.0, 2.0));
        let _ = &mut mem;
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::LocalStore {
                offset: 16,
                bytes: 16
            }
        );
    }
}
