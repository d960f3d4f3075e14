//! Atomic-operation serialization model.
//!
//! Global atomics on NVIDIA hardware are resolved by the L2 "red"/"atom"
//! units: lanes of one warp targeting *distinct* addresses proceed in
//! parallel across L2 slices, but lanes targeting the *same* address are
//! serialized — the unit performs one read-modify-write at a time per
//! address.  The paper attributes the 3LP-2/3LP-3 slowdown (up to 8.4% /
//! 7.4%, Section IV-D2) to "hundreds of work-items within the same
//! work-group competing for an atomic region"; this module counts that
//! competition.

use crate::warp::STACK_LANES;

/// Serialization profile of one warp-level atomic instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AtomicAccess {
    /// Number of serialized passes the instruction needs: the maximum
    /// number of active lanes that share one address.
    pub passes: u64,
    /// Number of distinct addresses targeted.
    pub unique_addresses: u64,
}

/// Model one warp-level atomic instruction over the active lanes'
/// addresses.
///
/// ```
/// use gpu_sim::atomics::model_atomic_instruction;
/// // The 3LP-2 pattern: four k-lanes per (site, row) collide on one
/// // C(i, s) component.
/// let addrs: Vec<u64> = (0..32).map(|lane| 4096 + (lane % 8) * 16).collect();
/// assert_eq!(model_atomic_instruction(&addrs).passes, 4);
/// ```
pub fn model_atomic_instruction(addrs: &[u64]) -> AtomicAccess {
    if addrs.is_empty() {
        return AtomicAccess {
            passes: 0,
            unique_addresses: 0,
        };
    }
    // Sort a copy: on the stack for any warp up to `STACK_LANES` wide.
    let mut stack = [0u64; STACK_LANES];
    let mut heap = Vec::new();
    let sorted: &mut [u64] = if addrs.len() <= STACK_LANES {
        &mut stack[..addrs.len()]
    } else {
        heap.resize(addrs.len(), 0);
        &mut heap
    };
    sorted.copy_from_slice(addrs);
    sorted.sort_unstable();
    let mut unique = 0u64;
    let mut worst = 0u64;
    let mut run = 0u64;
    let mut prev = None;
    for &a in sorted.iter() {
        if prev == Some(a) {
            run += 1;
        } else {
            unique += 1;
            run = 1;
            prev = Some(a);
        }
        worst = worst.max(run);
    }
    AtomicAccess {
        passes: worst,
        unique_addresses: unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distinct_addresses_single_pass() {
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 8).collect();
        let a = model_atomic_instruction(&addrs);
        assert_eq!(a.passes, 1);
        assert_eq!(a.unique_addresses, 32);
    }

    #[test]
    fn full_collision_serializes() {
        let addrs = vec![512u64; 32];
        let a = model_atomic_instruction(&addrs);
        assert_eq!(a.passes, 32);
        assert_eq!(a.unique_addresses, 1);
    }

    #[test]
    fn the_3lp2_pattern() {
        // 3LP-2 k-major: lanes (i, k) atomically add to C(i, s): the four
        // k lanes of each (site, i) collide -> 4-way serialization.
        let mut addrs = Vec::new();
        for site in 0..2u64 {
            for _k in 0..4u64 {
                for i in 0..3u64 {
                    addrs.push(1000 + site * 48 + i * 16);
                }
            }
        }
        let a = model_atomic_instruction(&addrs[..24.min(addrs.len())]);
        assert_eq!(a.passes, 4);
        assert_eq!(a.unique_addresses, 6);
    }

    #[test]
    fn more_lanes_than_the_stack_copy_holds() {
        let addrs: Vec<u64> = (0..100).map(|i| 64 * (i % 10)).collect();
        let a = model_atomic_instruction(&addrs);
        assert_eq!(a.passes, 10);
        assert_eq!(a.unique_addresses, 10);
    }

    #[test]
    fn empty_is_zero() {
        let a = model_atomic_instruction(&[]);
        assert_eq!(a.passes, 0);
        assert_eq!(a.unique_addresses, 0);
    }

    proptest! {
        #[test]
        fn bounds(addrs in proptest::collection::vec(0u64..64, 1..32)) {
            let a = model_atomic_instruction(&addrs);
            prop_assert!(a.passes >= 1);
            prop_assert!(a.passes <= addrs.len() as u64);
            prop_assert!(a.unique_addresses >= 1);
            prop_assert!(a.unique_addresses <= addrs.len() as u64);
            // passes * unique >= n is NOT generally true; but
            // passes + unique <= n + 1 when all collide or all distinct.
            prop_assert!(a.passes * a.unique_addresses >= addrs.len() as u64 / a.unique_addresses.max(1) );
        }
    }
}
