//! Warp-level replay: turning 32 per-lane event streams into
//! architectural transactions.
//!
//! After the engine executes every lane of a warp for one phase, this
//! module aligns the lanes' event streams and models the warp the way
//! the hardware issues it:
//!
//! * lane streams are split into *segments* at every
//!   [`Lane::set_path`](crate::kernel::Lane::set_path) call;
//! * within a segment index, lanes are grouped by their path value;
//!   multiple groups mean a **divergent branch** — the groups issue
//!   serially, exactly like SIMT path serialization (Section IV-D8:
//!   "all warp threads take the path through the conditional branches,
//!   one branch at a time, with a fraction of the warp threads masked
//!   off");
//! * within a path group, lanes advance in lockstep; each aligned step is
//!   one warp instruction, dispatched to the coalescer + cache hierarchy
//!   (global), the bank model (shared) or the serialization model
//!   (atomics).
//!
//! The alignment contract: lanes on the same path must produce the same
//! event kinds in the same order (true by construction for structured
//! SPMD kernels), and every lane of a warp must call `set_path` the
//! same number of times in a phase, even if only to re-state its
//! current path.  A violation — an undeclared divergent branch — is
//! reported as [`SimError::LaneDivergenceMismatch`] in *all* build
//! profiles, so release-mode launches fail loudly instead of silently
//! mis-attributing transactions (this used to be a debug-only
//! assertion).

use crate::atomics::model_atomic_instruction;
use crate::cache::Cache;
use crate::coalesce::coalesce;
use crate::counters::Counters;
use crate::error::SimError;
use crate::event::Event;
use crate::sharedmem::model_shared_instruction;

/// Mutable simulation state one warp replay writes into.
pub struct ReplaySinks<'a> {
    /// This SM's L1 cache.
    pub l1: &'a mut Cache,
    /// The device L2.
    pub l2: &'a mut Cache,
    /// Launch-wide counters.
    pub counters: &'a mut Counters,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Sector size in bytes.
    pub sector_bytes: u32,
    /// Shared-memory bank count.
    pub banks: u32,
    /// Shared-memory bank width in bytes.
    pub bank_width: u32,
}

/// One lane's stream split into `(path, start, end)` segments.
/// Shared with the static analyzer (`staticcheck`), which replays
/// *predicted* streams through the same alignment rules.
pub(crate) fn segment(stream: &[Event]) -> Vec<(u32, usize, usize)> {
    let mut segs = Vec::with_capacity(4);
    let mut path = 0u32;
    let mut start = 0usize;
    for (idx, ev) in stream.iter().enumerate() {
        if let Event::SetPath(p) = ev {
            segs.push((path, start, idx));
            path = *p;
            start = idx + 1;
        }
    }
    segs.push((path, start, stream.len()));
    segs
}

/// Replay one warp's per-lane event streams (one phase) into the sinks.
///
/// `streams[lane]` is the ordered event list lane `lane` produced;
/// lanes beyond the launch boundary simply pass empty streams.
///
/// Returns [`SimError::LaneDivergenceMismatch`] if lanes sharing a path
/// fall out of lockstep (an undeclared divergent branch in the kernel).
pub fn replay_warp(streams: &[Vec<Event>], sinks: &mut ReplaySinks<'_>) -> Result<(), SimError> {
    let segs: Vec<Vec<(u32, usize, usize)>> = streams.iter().map(|s| segment(s)).collect();
    let max_segs = segs.iter().map(|s| s.len()).max().unwrap_or(0);

    // Scratch buffers reused across steps.
    let mut group_lanes: Vec<usize> = Vec::with_capacity(32);
    let mut addrs: Vec<(u64, u8)> = Vec::with_capacity(32);
    let mut local_accs: Vec<(u32, u8)> = Vec::with_capacity(32);
    let mut atomic_addrs: Vec<u64> = Vec::with_capacity(32);

    for seg_idx in 0..max_segs {
        // Lanes that have this segment (an early-returning lane has
        // fewer segments and simply drops out).
        let mut paths: Vec<u32> = Vec::with_capacity(4);
        for (lane, ls) in segs.iter().enumerate() {
            if let Some(&(path, start, end)) = ls.get(seg_idx) {
                if !paths.contains(&path) {
                    paths.push(path);
                }
                let _ = (lane, start, end);
            }
        }
        if paths.is_empty() {
            continue;
        }
        paths.sort_unstable();

        // Divergence is counted over the path groups that actually issue
        // instructions: a one-sided `if (k == 0) ...` whose other arm is
        // empty compiles to predication, not a divergent branch — which
        // is why Table I row 13 is zero for every 3LP variant despite
        // their single-writer collapses.
        let mut executed_groups = 0u64;

        for &path in paths.iter() {
            group_lanes.clear();
            for (lane, ls) in segs.iter().enumerate() {
                if let Some(&(p, start, end)) = ls.get(seg_idx) {
                    if p == path && end > start {
                        group_lanes.push(lane);
                    }
                }
            }
            if group_lanes.is_empty() {
                continue; // predicated-off empty branch arm
            }
            executed_groups += 1;
            let group_ord = executed_groups - 1;
            // Lanes of one path group advance in lockstep, but a lane
            // may *return early* (e.g. the bounds guard of a padded
            // CUDA-style grid): it simply stops issuing while the rest
            // of the group continues — so each step only involves the
            // lanes whose stream still has events.
            let steps = group_lanes
                .iter()
                .map(|&l| {
                    let (_, s, e) = segs[l][seg_idx];
                    e - s
                })
                .max()
                .expect("non-empty group");

            let mut active: Vec<usize> = Vec::with_capacity(group_lanes.len());
            for step in 0..steps {
                active.clear();
                active.extend(group_lanes.iter().copied().filter(|&l| {
                    let (_, s, e) = segs[l][seg_idx];
                    e - s > step
                }));
                let group_lanes: &[usize] = &active;
                let leader = {
                    let (_, s, _) = segs[group_lanes[0]][seg_idx];
                    &streams[group_lanes[0]][s + step]
                };
                if group_ord > 0 {
                    sinks.counters.replayed_instructions += 1;
                }

                match *leader {
                    Event::GlobalLoad { .. } | Event::GlobalStore { .. } => {
                        addrs.clear();
                        let mut is_store = false;
                        for &l in group_lanes {
                            let (_, s, _) = segs[l][seg_idx];
                            match streams[l][s + step] {
                                Event::GlobalLoad { addr, bytes } => addrs.push((addr, bytes)),
                                Event::GlobalStore { addr, bytes } => {
                                    is_store = true;
                                    addrs.push((addr, bytes));
                                }
                                ref other => {
                                    return Err(SimError::LaneDivergenceMismatch {
                                        lane: l as u32,
                                        expected: "global access",
                                        found: other.kind_name(),
                                    })
                                }
                            }
                        }
                        let c = coalesce(&addrs, sinks.line_bytes, sinks.sector_bytes);
                        sinks.counters.l1_tag_requests_global += c.tag_requests();
                        sinks.counters.l1_sector_requests += c.sector_requests();
                        for &(line, mask) in &c.sector_masks {
                            let o = if is_store {
                                sinks.l1.access_write(line, mask)
                            } else {
                                sinks.l1.access(line, mask)
                            };
                            sinks.counters.l1_sector_misses += o.sector_misses as u64;
                            if o.missed_mask != 0 {
                                let o2 = if is_store {
                                    sinks.l2.access_write(line, o.missed_mask)
                                } else {
                                    sinks.l2.access(line, o.missed_mask)
                                };
                                sinks.counters.l2_sector_requests += o.sector_misses as u64;
                                sinks.counters.l2_sector_misses += o2.sector_misses as u64;
                            }
                        }
                        if is_store {
                            sinks.counters.global_store_instructions += 1;
                        } else {
                            sinks.counters.global_load_instructions += 1;
                        }
                        sinks.counters.warp_instructions += 1;
                    }
                    Event::AtomicRmw { .. } => {
                        atomic_addrs.clear();
                        addrs.clear();
                        for &l in group_lanes {
                            let (_, s, _) = segs[l][seg_idx];
                            if let Event::AtomicRmw { addr, bytes } = streams[l][s + step] {
                                atomic_addrs.push(addr);
                                addrs.push((addr, bytes));
                            } else {
                                return Err(SimError::LaneDivergenceMismatch {
                                    lane: l as u32,
                                    expected: "atomic rmw",
                                    found: streams[l][s + step].kind_name(),
                                });
                            }
                        }
                        let a = model_atomic_instruction(&atomic_addrs);
                        sinks.counters.atomic_passes += a.passes;
                        sinks.counters.atomic_instructions += 1;
                        // Atomics resolve at L2, bypassing L1, and dirty
                        // their sectors (read-modify-write).
                        let c = coalesce(&addrs, sinks.line_bytes, sinks.sector_bytes);
                        for &(line, mask) in &c.sector_masks {
                            let o2 = sinks.l2.access_write(line, mask);
                            sinks.counters.l2_sector_requests += mask.count_ones() as u64;
                            sinks.counters.l2_sector_misses += o2.sector_misses as u64;
                        }
                        sinks.counters.warp_instructions += a.passes;
                    }
                    Event::LocalLoad { .. } | Event::LocalStore { .. } => {
                        local_accs.clear();
                        for &l in group_lanes {
                            let (_, s, _) = segs[l][seg_idx];
                            match streams[l][s + step] {
                                Event::LocalLoad { offset, bytes }
                                | Event::LocalStore { offset, bytes } => {
                                    local_accs.push((offset, bytes))
                                }
                                ref other => {
                                    return Err(SimError::LaneDivergenceMismatch {
                                        lane: l as u32,
                                        expected: "local access",
                                        found: other.kind_name(),
                                    })
                                }
                            }
                        }
                        let r =
                            model_shared_instruction(&local_accs, sinks.banks, sinks.bank_width);
                        sinks.counters.shared_wavefronts += r.wavefronts;
                        sinks.counters.shared_wavefronts_ideal += r.ideal_wavefronts;
                        sinks.counters.local_instructions += 1;
                        sinks.counters.warp_instructions += r.wavefronts.max(1);
                    }
                    Event::Flops(_) => {
                        let mut worst = 0u64;
                        for &l in group_lanes {
                            let (_, s, _) = segs[l][seg_idx];
                            if let Event::Flops(n) = streams[l][s + step] {
                                sinks.counters.flops += n as u64;
                                worst = worst.max(n as u64);
                            } else {
                                return Err(SimError::LaneDivergenceMismatch {
                                    lane: l as u32,
                                    expected: "flops",
                                    found: streams[l][s + step].kind_name(),
                                });
                            }
                        }
                        // An fp64 FMA retires 2 FLOPs per lane per slot,
                        // so a batched Flops(n) event occupies ceil(n/2)
                        // issue slots (the A100's fp64 pipe issues one
                        // warp FMA per SM per cycle).
                        sinks.counters.warp_instructions += worst.div_ceil(2).max(1);
                    }
                    Event::Iops(_) => {
                        for &l in group_lanes {
                            let (_, s, _) = segs[l][seg_idx];
                            if let Event::Iops(n) = streams[l][s + step] {
                                sinks.counters.iops += n as u64;
                            } else {
                                return Err(SimError::LaneDivergenceMismatch {
                                    lane: l as u32,
                                    expected: "iops",
                                    found: streams[l][s + step].kind_name(),
                                });
                            }
                        }
                        sinks.counters.warp_instructions += 1;
                    }
                    Event::SetPath(_) => {
                        debug_assert!(false, "SetPath inside a segment is impossible");
                    }
                }
            }
        }
        if executed_groups > 1 {
            sinks.counters.divergent_branches += executed_groups - 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn sinks_with<'a>(
        l1: &'a mut Cache,
        l2: &'a mut Cache,
        counters: &'a mut Counters,
    ) -> ReplaySinks<'a> {
        ReplaySinks {
            l1,
            l2,
            counters,
            line_bytes: 128,
            sector_bytes: 32,
            banks: 32,
            bank_width: 4,
        }
    }

    fn caches() -> (Cache, Cache) {
        let l1 = Cache::new(CacheConfig {
            capacity: 128 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        let l2 = Cache::new(CacheConfig {
            capacity: 1024 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 16,
        });
        (l1, l2)
    }

    #[test]
    fn coalesced_warp_load() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 4096 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_tag_requests_global, 2); // 256 B = 2 lines
        assert_eq!(c.l1_sector_requests, 8);
        assert_eq!(c.l1_sector_misses, 8); // cold
        assert_eq!(c.l2_sector_misses, 8);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn second_pass_hits_l1() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.l1_sector_requests, 16);
        assert_eq!(c.l1_sector_misses, 8); // second instruction hits
    }

    #[test]
    fn divergent_paths_are_serialized_and_counted() {
        // Even lanes take path 1, odd lanes path 2; each does one flop op.
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![
                    Event::SetPath(1 + (i % 2)),
                    Event::Flops(1),
                    Event::SetPath(0),
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 1);
        assert_eq!(c.flops, 32);
        // Two serialized path groups, one flop step each.
        assert_eq!(c.warp_instructions, 2);
        assert_eq!(c.replayed_instructions, 1);
    }

    #[test]
    fn uniform_path_is_not_divergent() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| vec![Event::SetPath(7), Event::Flops(2), Event::SetPath(0)])
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 0);
        assert_eq!(c.flops, 64);
    }

    #[test]
    fn atomic_collision_passes() {
        // All 32 lanes atomically update the same address.
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| {
                vec![Event::AtomicRmw {
                    addr: 8192,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.atomic_instructions, 1);
        assert_eq!(c.atomic_passes, 32);
        // Atomics bypass L1 entirely.
        assert_eq!(c.l1_sector_requests, 0);
        assert_eq!(c.l2_sector_requests, 1);
    }

    #[test]
    fn shared_conflicts_counted() {
        // The 16-byte-stride local store pattern (4-way conflict).
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![Event::LocalStore {
                    offset: i * 16,
                    bytes: 16,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.local_instructions, 1);
        assert_eq!(c.shared_wavefronts, 16);
        assert_eq!(c.excessive_shared_wavefronts(), 12);
    }

    #[test]
    fn early_exit_lanes_drop_out() {
        // Lanes 0..8 do work; the rest returned immediately.
        let mut streams: Vec<Vec<Event>> = (0..8)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 1024 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        streams.extend((8..32).map(|_| Vec::new()));
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_sector_requests, 2); // 64 contiguous bytes
    }

    #[test]
    fn ragged_early_return_lanes_are_handled() {
        // A padded-grid bounds guard: half the lanes emit one event and
        // return; the rest continue with more work.  The replayer must
        // keep the survivors in lockstep instead of misaligning events.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i < 16 {
                    vec![
                        Event::Iops(1),
                        Event::GlobalLoad {
                            addr: 4096 + i * 8,
                            bytes: 8,
                        },
                        Event::Flops(2),
                    ]
                } else {
                    vec![Event::Iops(1)]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        // Only the 16 surviving lanes' addresses coalesce: 128 B = 1 line.
        assert_eq!(c.l1_tag_requests_global, 1);
        assert_eq!(c.flops, 32);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn undeclared_divergence_is_an_error() {
        // Lane 1 issues a store where the rest of the warp issues a
        // load, without any set_path declaration: the replayer must
        // surface a recoverable error, not a debug-only assertion.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i == 1 {
                    vec![Event::LocalStore {
                        offset: 0,
                        bytes: 8,
                    }]
                } else {
                    vec![Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    }]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        let err = replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap_err();
        assert_eq!(
            err,
            SimError::LaneDivergenceMismatch {
                lane: 1,
                expected: "global access",
                found: "local store",
            }
        );
    }

    #[test]
    fn empty_warp_is_noop() {
        let streams: Vec<Vec<Event>> = (0..32).map(|_| Vec::new()).collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c, Counters::default());
    }
}
