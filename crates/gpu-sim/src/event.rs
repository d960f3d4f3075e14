//! Per-lane execution events.
//!
//! While a work-item executes, its [`Lane`](crate::kernel::Lane) records
//! a compact event for every architectural action.  After all lanes of a
//! warp have run a phase, the warp replayer (`warp.rs`) aligns the 32
//! event streams instruction-by-instruction to model coalescing, bank
//! conflicts, atomic serialization and branch divergence — the alignment
//! is valid because all lanes execute the same program, so lanes on the
//! same control-flow path produce the same event *kinds* in the same
//! order (checked in every build profile: a violation fails the launch
//! with [`SimError::LaneDivergenceMismatch`](crate::SimError::LaneDivergenceMismatch)).

/// One recorded per-lane event.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Event {
    /// Global-memory load of `bytes` at device address `addr`.
    GlobalLoad {
        /// Device address.
        addr: u64,
        /// Access width in bytes (4 or 8).
        bytes: u8,
    },
    /// Global-memory store.
    GlobalStore {
        /// Device address.
        addr: u64,
        /// Access width in bytes.
        bytes: u8,
    },
    /// Global-memory atomic read-modify-write (resolved at L2 on
    /// NVIDIA hardware; serialized per address within a warp).
    AtomicRmw {
        /// Device address.
        addr: u64,
        /// Access width in bytes.
        bytes: u8,
    },
    /// Work-group local-memory load at byte `offset` within the group's
    /// allocation.
    LocalLoad {
        /// Byte offset within the work-group's local memory.
        offset: u32,
        /// Access width in bytes.
        bytes: u8,
    },
    /// Work-group local-memory store.
    LocalStore {
        /// Byte offset within the work-group's local memory.
        offset: u32,
        /// Access width in bytes.
        bytes: u8,
    },
    /// `n` floating-point operations executed.
    Flops(u32),
    /// `n` integer (index-arithmetic) operations executed — the channel
    /// through which the SYCLomatic composed-indexing penalty acts.
    Iops(u32),
    /// The lane enters control-flow path `path` (a kernel-chosen tag).
    /// Lanes of one warp whose current paths differ are serialized by
    /// the replayer and counted as divergent branches.
    SetPath(u32),
}

impl Event {
    /// Human-readable event kind, used by the replayer's lockstep
    /// diagnostics
    /// ([`SimError::LaneDivergenceMismatch`](crate::SimError::LaneDivergenceMismatch)).
    #[inline]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::GlobalLoad { .. } => "global load",
            Event::GlobalStore { .. } => "global store",
            Event::AtomicRmw { .. } => "atomic rmw",
            Event::LocalLoad { .. } => "local load",
            Event::LocalStore { .. } => "local store",
            Event::Flops(_) => "flops",
            Event::Iops(_) => "iops",
            Event::SetPath(_) => "set-path",
        }
    }

    /// A small integer identifying the event *kind*, used by the
    /// lockstep check in the replayer.
    #[inline]
    pub fn kind_id(&self) -> u8 {
        match self {
            Event::GlobalLoad { .. } => 0,
            Event::GlobalStore { .. } => 1,
            Event::AtomicRmw { .. } => 2,
            Event::LocalLoad { .. } => 3,
            Event::LocalStore { .. } => 4,
            Event::Flops(_) => 5,
            Event::Iops(_) => 6,
            Event::SetPath(_) => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ids_are_distinct() {
        let evs = [
            Event::GlobalLoad { addr: 0, bytes: 8 },
            Event::GlobalStore { addr: 0, bytes: 8 },
            Event::AtomicRmw { addr: 0, bytes: 8 },
            Event::LocalLoad {
                offset: 0,
                bytes: 8,
            },
            Event::LocalStore {
                offset: 0,
                bytes: 8,
            },
            Event::Flops(1),
            Event::Iops(1),
            Event::SetPath(0),
        ];
        let mut ids: Vec<u8> = evs.iter().map(|e| e.kind_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), evs.len());
    }

    #[test]
    fn event_is_compact() {
        // The hot simulation path stores millions of these; keep them
        // within two words.
        assert!(core::mem::size_of::<Event>() <= 16);
    }
}
