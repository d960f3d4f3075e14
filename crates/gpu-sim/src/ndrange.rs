//! ND-range launch geometry.
//!
//! The paper's kernels are all launched over a one-dimensional
//! `nd_range<1>{global_size, local_size}` (Section III); the simulator
//! keeps that shape.  Multi-dimensional index spaces (the SYCLomatic
//! migration produces a 3-D one) are linearized by the `syclomatic-sim`
//! crate before launch — the paper itself found that 1-D versus 3-D
//! index spaces "do not affect performance" (Section IV-D6, item (i)).

use crate::device::DeviceSpec;
use crate::error::SimError;

/// A one-dimensional ND-range: global size and work-group (local) size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NdRange {
    /// Total number of work-items.
    pub global: u64,
    /// Work-items per work-group.
    pub local: u32,
}

impl NdRange {
    /// Create a linear ND-range.
    pub fn linear(global: u64, local: u32) -> Self {
        Self { global, local }
    }

    /// Validate against device limits and the exact-division rule the
    /// paper states ("the division of global size by local size is
    /// exact, i.e. the number of work-groups is an integer value").
    pub fn validate(&self, device: &DeviceSpec) -> Result<(), SimError> {
        if self.local == 0 || self.local > device.max_group_size {
            return Err(SimError::InvalidLocalSize {
                local: self.local,
                max: device.max_group_size,
            });
        }
        if self.global == 0 || !self.global.is_multiple_of(self.local as u64) {
            return Err(SimError::IndivisibleGlobalSize {
                global: self.global,
                local: self.local,
            });
        }
        Ok(())
    }

    /// Number of work-groups.
    #[inline]
    pub fn num_groups(&self) -> u64 {
        self.global / self.local as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range_passes() {
        let d = DeviceSpec::a100();
        assert!(NdRange::linear(6 * 768, 768).validate(&d).is_ok());
    }

    #[test]
    fn indivisible_global_rejected() {
        let d = DeviceSpec::a100();
        let r = NdRange::linear(1000, 768);
        assert_eq!(
            r.validate(&d),
            Err(SimError::IndivisibleGlobalSize {
                global: 1000,
                local: 768
            })
        );
    }

    #[test]
    fn oversized_local_rejected() {
        let d = DeviceSpec::a100();
        let r = NdRange::linear(4096, 2048);
        assert_eq!(
            r.validate(&d),
            Err(SimError::InvalidLocalSize {
                local: 2048,
                max: 1024
            })
        );
    }

    #[test]
    fn zero_local_rejected() {
        let d = DeviceSpec::a100();
        assert!(NdRange::linear(128, 0).validate(&d).is_err());
    }

    #[test]
    fn zero_global_rejected() {
        let d = DeviceSpec::a100();
        assert!(NdRange::linear(0, 32).validate(&d).is_err());
    }

    #[test]
    fn group_accounting() {
        assert_eq!(NdRange::linear(768 * 10, 768).num_groups(), 10);
    }
}
