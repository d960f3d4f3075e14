//! Multi-device groups with a modelled inter-device interconnect.
//!
//! The paper benchmarks a single A100, but real MILC deployments shard
//! the lattice across many GPUs and their performance is dominated by
//! boundary (halo) traffic over the interconnect.  This module is the
//! device-side half of that story: a [`DeviceGroup`] holds one
//! [`DeviceSpec`] per simulated rank plus an [`Interconnect`] whose
//! bandwidth/latency model prices every halo message, the same way the
//! launch engine prices kernel time from counters.
//!
//! Two transfer disciplines are exposed, matching the two submission
//! modes a sharded Dslash runs under:
//!
//! * **serialized** — each message pays its own latency plus its
//!   serialization time (a blocking exchange loop: post, wait, post,
//!   wait …);
//! * **pipelined** — messages are posted back-to-back, so the link pays
//!   one latency and then streams all bytes (what an async exchange
//!   overlapped with interior compute achieves).
//!
//! `pipelined ≤ serialized` always, with equality exactly when at most
//! one message is in flight — which is why an overlapped sharded run
//! strictly beats an in-order one as soon as a rank receives two halo
//! messages, even when there is no interior compute left to hide the
//! transfer behind.

use crate::device::DeviceSpec;

/// A point-to-point interconnect model: fixed per-message latency plus
/// a bandwidth term.  Both transfer disciplines are derived from these
/// two numbers; there is no hidden state.
#[derive(Clone, Debug, PartialEq)]
pub struct Interconnect {
    /// Sustained per-direction bandwidth between two devices, GB/s.
    pub bandwidth_gbps: f64,
    /// Fixed per-message cost (post + completion + driver), µs.
    pub latency_us: f64,
}

impl Interconnect {
    /// NVLink 3 class link (A100 systems): ~50 GB/s effective per peer
    /// direction, ~2 µs per-message overhead.
    pub fn nvlink() -> Self {
        Self {
            bandwidth_gbps: 50.0,
            latency_us: 2.0,
        }
    }

    /// Time to move one message of `bytes`, µs (latency + streaming).
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        // bytes / (GB/s) = bytes / (bw * 1e9) s = bytes / (bw * 1e3) µs.
        self.latency_us + bytes as f64 / (self.bandwidth_gbps * 1e3)
    }

    /// Blocking-exchange cost of a message set, µs: every message pays
    /// its own latency and streams alone.
    pub fn serialized_us(&self, sizes: impl IntoIterator<Item = u64>) -> f64 {
        sizes.into_iter().map(|b| self.transfer_us(b)).sum()
    }

    /// Pipelined cost of a message set, µs: one latency, then the link
    /// streams the total payload.  Zero for an empty set.
    pub fn pipelined_us(&self, sizes: impl IntoIterator<Item = u64>) -> f64 {
        let mut total = 0u64;
        let mut any = false;
        for b in sizes {
            total += b;
            any = true;
        }
        if !any {
            return 0.0;
        }
        self.latency_us + total as f64 / (self.bandwidth_gbps * 1e3)
    }
}

/// N simulated devices joined by one interconnect model — the hardware
/// a domain-decomposed (sharded) run executes on.  Ranks are indexed
/// `0..len()`.
#[derive(Clone, Debug)]
pub struct DeviceGroup {
    devices: Vec<DeviceSpec>,
    /// The inter-device link model shared by every rank pair.
    pub link: Interconnect,
}

impl DeviceGroup {
    /// A group of `n` identical devices (the strong-scaling setup).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn homogeneous(device: DeviceSpec, n: usize, link: Interconnect) -> Self {
        assert!(n > 0, "a device group needs at least one device");
        Self {
            devices: vec![device; n],
            link,
        }
    }

    /// A group from explicit per-rank specs.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceSpec>, link: Interconnect) -> Self {
        assert!(
            !devices.is_empty(),
            "a device group needs at least one device"
        );
        Self { devices, link }
    }

    /// Number of devices (ranks).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty (never true for a constructed group).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device of one rank.
    pub fn device(&self, rank: usize) -> &DeviceSpec {
        &self.devices[rank]
    }

    /// All devices, rank order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_latency_plus_streaming() {
        let link = Interconnect {
            bandwidth_gbps: 50.0,
            latency_us: 2.0,
        };
        // 1 MB at 50 GB/s = 20 µs of streaming.
        let us = link.transfer_us(1_000_000);
        assert!((us - 22.0).abs() < 1e-9);
        assert_eq!(link.transfer_us(0), 2.0);
    }

    #[test]
    fn pipelined_never_exceeds_serialized() {
        let link = Interconnect::nvlink();
        let sizes = [100_000u64, 250_000, 4_000, 1_000_000];
        let ser = link.serialized_us(sizes);
        let pipe = link.pipelined_us(sizes);
        assert!(pipe < ser);
        // The gap is exactly the saved latencies.
        assert!((ser - pipe - 3.0 * link.latency_us).abs() < 1e-9);
    }

    #[test]
    fn single_message_pipelined_equals_serialized() {
        let link = Interconnect::nvlink();
        let one = [123_456u64];
        assert!((link.serialized_us(one) - link.pipelined_us(one)).abs() < 1e-12);
        assert_eq!(link.pipelined_us(std::iter::empty()), 0.0);
        assert_eq!(link.serialized_us(std::iter::empty()), 0.0);
    }

    #[test]
    fn homogeneous_group_replicates_the_spec() {
        let g = DeviceGroup::homogeneous(DeviceSpec::test_small(), 4, Interconnect::nvlink());
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        for r in 0..4 {
            assert_eq!(g.device(r).num_sms, DeviceSpec::test_small().num_sms);
        }
        assert_eq!(g.devices().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_group_rejected() {
        let _ = DeviceGroup::homogeneous(DeviceSpec::test_small(), 0, Interconnect::nvlink());
    }
}
