//! Offline drop-in subset of [rayon](https://crates.io/crates/rayon).
//!
//! The build environment for this repository has no crates.io access, so
//! the workspace vendors the *exact* rayon surface it uses — range
//! `into_par_iter().map().collect()`, `par_iter_mut().enumerate()
//! .for_each()` and `par_chunks_mut(n).enumerate().for_each()` — on top
//! of `std::thread::scope`.  Semantics match rayon for this subset:
//! contiguous chunking, order-preserving `collect`, and the same
//! `Fn + Sync` closure bounds (so code written against this shim still
//! compiles against real rayon).
//!
//! Not a general work-stealing pool: each parallel call spawns up to
//! `available_parallelism()` scoped threads.  The workloads here (the
//! per-site lattice loops of the parallel CPU reference, `parallel_cpu`,
//! and the optimized CPU Dslash, `cpu_opt`) are coarse and uniform, which
//! is the one shape where eager contiguous chunking and work stealing
//! behave the same.

use std::ops::Range;

/// Threads to use for one parallel call: the host parallelism, capped by
/// the number of work units.
fn threads_for(units: usize) -> usize {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    host.min(units).max(1)
}

/// Everything user code needs in scope, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

// ---- range -> map -> collect ---------------------------------------------

/// Conversion into a parallel iterator (ranges of `usize`/`u64`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// The parallel iterator.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over a contiguous index range.
pub struct RangePar<T> {
    range: Range<T>,
}

/// A mapped parallel range, ready to `collect`.
pub struct MapPar<T, F> {
    range: Range<T>,
    f: F,
}

macro_rules! impl_range_par {
    ($t:ty) => {
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = RangePar<$t>;
            fn into_par_iter(self) -> RangePar<$t> {
                RangePar { range: self }
            }
        }

        impl RangePar<$t> {
            /// Map each index through `f` (applied in parallel at collect
            /// time).
            pub fn map<F, R>(self, f: F) -> MapPar<$t, F>
            where
                F: Fn($t) -> R + Sync,
                R: Send,
            {
                MapPar {
                    range: self.range,
                    f,
                }
            }
        }

        impl<F, R> MapPar<$t, F>
        where
            F: Fn($t) -> R + Sync,
            R: Send,
        {
            /// Evaluate in parallel, preserving index order.
            pub fn collect<C: FromIterator<R>>(self) -> C {
                let n = (self.range.end.saturating_sub(self.range.start)) as usize;
                let nt = threads_for(n);
                let f = &self.f;
                if nt <= 1 {
                    return self.range.map(f).collect();
                }
                let chunk = n.div_ceil(nt);
                let mut parts: Vec<Vec<R>> = Vec::with_capacity(nt);
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..nt)
                        .map(|t| {
                            let lo = self.range.start + (t * chunk) as $t;
                            let hi = (lo + chunk as $t).min(self.range.end);
                            s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
                        })
                        .collect();
                    for h in handles {
                        parts.push(h.join().expect("rayon-shim worker panicked"));
                    }
                });
                parts.into_iter().flatten().collect()
            }
        }
    };
}

impl_range_par!(usize);
impl_range_par!(u64);

// ---- mutable slice iteration ---------------------------------------------

/// `par_iter_mut` / `par_chunks_mut` on slices (and `Vec` via deref).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T` elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over `&mut [T]` chunks of length `n` (last may
    /// be shorter).
    fn par_chunks_mut(&mut self, n: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, n: usize) -> ParChunksMut<'_, T> {
        assert!(n > 0, "chunk size must be non-zero");
        ParChunksMut { slice: self, n }
    }
}

/// Parallel `&mut` element iterator.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

/// Enumerated parallel `&mut` element iterator.
pub struct EnumIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pair each element with its index.
    pub fn enumerate(self) -> EnumIterMut<'a, T> {
        EnumIterMut { slice: self.slice }
    }

    /// Apply `f` to every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut T) + Sync,
    {
        self.enumerate().for_each(|(_, item)| f(item));
    }
}

impl<'a, T: Send> EnumIterMut<'a, T> {
    /// Apply `f` to every `(index, element)` in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut T)) + Sync,
    {
        let n = self.slice.len();
        let nt = threads_for(n);
        let chunk = n.div_ceil(nt.max(1)).max(1);
        let f = &f;
        std::thread::scope(|s| {
            let mut rest: &'a mut [T] = self.slice;
            let mut base = 0usize;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                s.spawn(move || {
                    for (i, item) in head.iter_mut().enumerate() {
                        f((base + i, item));
                    }
                });
                base += take;
                rest = tail;
            }
        });
    }
}

/// Parallel chunk iterator.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    n: usize,
}

/// Enumerated parallel chunk iterator.
pub struct EnumChunksMut<'a, T> {
    chunks: Vec<(usize, &'a mut [T])>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its chunk index.
    pub fn enumerate(self) -> EnumChunksMut<'a, T> {
        EnumChunksMut {
            chunks: self.slice.chunks_mut(self.n).enumerate().collect(),
        }
    }

    /// Apply `f` to every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

impl<'a, T: Send> EnumChunksMut<'a, T> {
    /// Apply `f` to every `(chunk_index, chunk)` in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Sync,
    {
        let n = self.chunks.len();
        let nt = threads_for(n);
        let per = n.div_ceil(nt.max(1)).max(1);
        let f = &f;
        let mut work = self.chunks;
        std::thread::scope(|s| {
            while !work.is_empty() {
                let take = per.min(work.len());
                let batch: Vec<(usize, &'a mut [T])> = work.drain(..take).collect();
                s.spawn(move || {
                    for (i, c) in batch {
                        f((i, c));
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_collects_empty() {
        let v: Vec<u64> = (0..0u64).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn par_iter_mut_enumerate_touches_every_element_once() {
        let mut v = vec![0usize; 777];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i + 1);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
    }

    #[test]
    fn par_chunks_mut_enumerate_covers_ragged_tail() {
        let mut v = vec![0usize; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(c, chunk)| {
            for x in chunk.iter_mut() {
                *x = c;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i / 10);
        }
    }
}
