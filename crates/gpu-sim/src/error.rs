//! Simulator error types.

use core::fmt;

/// Errors reported by launch validation and execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The local size does not evenly divide the global size — the paper's
    /// own constraint: "the remainder of global size upon division by
    /// local size must be zero" (Section III-C).
    IndivisibleGlobalSize {
        /// Requested global size.
        global: u64,
        /// Requested local size.
        local: u32,
    },
    /// Local size is zero or exceeds the device's maximum work-group size.
    InvalidLocalSize {
        /// Requested local size.
        local: u32,
        /// Device maximum.
        max: u32,
    },
    /// The kernel requests more work-group local memory than one SM has.
    LocalMemTooLarge {
        /// Requested bytes per work-group.
        requested: u32,
        /// Device shared memory per SM.
        available: u32,
    },
    /// The kernel's register demand makes even a single work-group
    /// unschedulable.
    RegistersExhausted {
        /// Registers needed by one work-group.
        requested: u32,
        /// Register file size per SM.
        available: u32,
    },
    /// A device-memory access fell outside every allocation.
    OutOfBoundsAccess {
        /// Offending device address.
        addr: u64,
    },
    /// A halo message between two ranks of a device group was lost or
    /// truncated in transit: the receiver's ghost region got fewer
    /// bytes than the exchange plan promised (`got_bytes == 0` is a
    /// dropped message).  Recoverable — the exchange reports it and the
    /// caller decides whether to retry or fail the run.
    HaloMessageFault {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
        /// Bytes the exchange plan promised.
        expected_bytes: u64,
        /// Bytes that actually arrived.
        got_bytes: u64,
    },
    /// Lanes of one warp fell out of lockstep during replay: two lanes
    /// on the *same* control-flow path produced different event kinds at
    /// the same step.  This means the kernel branched divergently
    /// without declaring a path via `Lane::set_path`, so the warp-level
    /// performance model (coalescing, bank conflicts, divergence
    /// counting) would silently mis-attribute its transactions.
    /// Previously a debug-only assertion; now surfaced in release
    /// builds too.
    LaneDivergenceMismatch {
        /// Lane whose event disagreed with the path group's leader.
        lane: u32,
        /// Event kind the path group's leader issued at this step.
        expected: &'static str,
        /// Event kind the offending lane issued instead.
        found: &'static str,
    },
    /// A launch was handed a [`DeviceState`](crate::DeviceState) built
    /// for a device with a different SM count: its per-SM L1 caches
    /// cannot be mapped onto this device's SMs.
    DeviceStateMismatch {
        /// SMs the state was built for.
        state_sms: u32,
        /// SMs of the device being launched on.
        device_sms: u32,
    },
    /// A launch was handed a [`DeviceState`](crate::DeviceState) whose
    /// L1 or L2 geometry differs from the device's, e.g. a state built
    /// for another lattice's volume-matched device with the same SM
    /// count: its caches would model the wrong capacity.
    DeviceStateCacheMismatch {
        /// `"L1"` or `"L2"`.
        level: &'static str,
        /// The first differing [`CacheConfig`](crate::cache::CacheConfig)
        /// field.
        field: &'static str,
        /// The state's value of that field.
        state: u64,
        /// The device's value of that field.
        device: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IndivisibleGlobalSize { global, local } => write!(
                f,
                "global size {global} is not divisible by local size {local}"
            ),
            SimError::InvalidLocalSize { local, max } => {
                write!(f, "local size {local} invalid (must be 1..={max})")
            }
            SimError::LocalMemTooLarge {
                requested,
                available,
            } => write!(
                f,
                "work-group local memory {requested} B exceeds the {available} B available per SM"
            ),
            SimError::RegistersExhausted {
                requested,
                available,
            } => write!(
                f,
                "work-group needs {requested} registers but the SM has {available}"
            ),
            SimError::OutOfBoundsAccess { addr } => {
                write!(f, "device access at {addr:#x} is outside every allocation")
            }
            SimError::HaloMessageFault {
                from,
                to,
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "halo message rank{from}->rank{to} faulted: expected {expected_bytes} B, \
                 got {got_bytes} B"
            ),
            SimError::LaneDivergenceMismatch {
                lane,
                expected,
                found,
            } => write!(
                f,
                "lane {lane} out of lockstep: expected {expected}, found {found} \
                 (undeclared divergent branch — missing Lane::set_path)"
            ),
            SimError::DeviceStateMismatch {
                state_sms,
                device_sms,
            } => write!(
                f,
                "device state was built for {state_sms} SMs but the device has {device_sms}"
            ),
            SimError::DeviceStateCacheMismatch {
                level,
                field,
                state,
                device,
            } => write!(
                f,
                "device state's {level} {field} is {state} but the device's is {device}"
            ),
        }
    }
}

impl std::error::Error for SimError {}
