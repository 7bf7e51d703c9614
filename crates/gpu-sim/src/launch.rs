//! Kernel launch primitives: chunked parallel-for and atomic double-precision adds.
//!
//! The CountSketch kernel of Algorithm 2 is "parallel for j in 0..d { atomicAdd(...) }".
//! On the simulated device the grid is a rayon parallel iterator over index chunks and
//! `atomicAdd(double*, double)` is a compare-and-swap loop over the bit pattern — the
//! exact strategy CUDA used before native double atomics existed, and semantically
//! identical to the hardware instruction.
//!
//! **Determinism caveat.**  The workspace's rayon shim runs on real threads, so
//! the *order* in which concurrent [`AtomicF64`] adds land on one cell is
//! scheduling-dependent; f64 addition is not associative, so a sum accumulated
//! through atomics is reproducible only up to rounding.  That mirrors the GPU
//! exactly — and is why the workspace's bit-exact kernels fold in a fixed order
//! instead of through atomics: the CountSketch as a serial ascending-row
//! scatter, SpMM as gathers over *disjoint* output rows.  [`parallel_for`] / [`parallel_for_chunks`] themselves cut blocks
//! by length only and stay deterministic whenever block writes are disjoint.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of indices processed per simulated thread block.
pub const DEFAULT_BLOCK: usize = 4096;

/// Run `body(i)` for every `i in 0..n` in parallel.
///
/// The iteration space is split into blocks of `DEFAULT_BLOCK` indices; each block is a
/// rayon task, mirroring a CUDA thread block.
pub fn parallel_for<F>(n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let blocks = n.div_ceil(DEFAULT_BLOCK);
    (0..blocks).into_par_iter().for_each(|b| {
        let start = b * DEFAULT_BLOCK;
        let end = (start + DEFAULT_BLOCK).min(n);
        for i in start..end {
            body(i);
        }
    });
}

/// Run `body(start, end)` over contiguous index ranges covering `0..n`.
///
/// Useful when the body wants to amortise per-block setup (e.g. creating a Philox
/// stream per block).
pub fn parallel_for_chunks<F>(n: usize, block: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let block = block.max(1);
    let blocks = n.div_ceil(block);
    (0..blocks).into_par_iter().for_each(|b| {
        let start = b * block;
        let end = (start + block).min(n);
        body(start, end);
    });
}

/// A double precision value supporting atomic add, stored as its IEEE-754 bit pattern.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Create from an initial value.
    #[inline]
    pub fn new(value: f64) -> Self {
        Self {
            bits: AtomicU64::new(value.to_bits()),
        }
    }

    /// Load the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Store a value.
    #[inline]
    pub fn store(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `delta`, returning the previous value.
    ///
    /// This is the CAS loop CUDA documents for `atomicAdd(double*)` emulation.
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return f64::from_bits(current),
                Err(actual) => current = actual,
            }
        }
    }
}

/// A shared atomic view over a mutable `f64` buffer.
///
/// Holding the exclusive borrow of the underlying slice for the lifetime of the view
/// guarantees no non-atomic access can alias the atomic cells, so reinterpreting the
/// memory as [`AtomicF64`] (same size, alignment and bit layout as `u64`) is sound.
/// This is how the simulated kernel writes into the output matrix `Y` concurrently.
pub struct AtomicF64View<'a> {
    cells: &'a [AtomicF64],
}

impl<'a> AtomicF64View<'a> {
    /// Create an atomic view over `data`.
    pub fn new(data: &'a mut [f64]) -> Self {
        const _: () = assert!(std::mem::size_of::<AtomicF64>() == std::mem::size_of::<f64>());
        const _: () = assert!(std::mem::align_of::<AtomicF64>() == std::mem::align_of::<f64>());
        // SAFETY: `AtomicF64` is repr(transparent) over AtomicU64, which has the same
        // size and alignment as f64/u64. The exclusive borrow of `data` is held by this
        // view for its whole lifetime, so all access goes through the atomics.
        let cells = unsafe {
            std::slice::from_raw_parts(data.as_mut_ptr() as *const AtomicF64, data.len())
        };
        Self { cells }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomically add `delta` to element `i`.
    #[inline]
    pub fn add(&self, i: usize, delta: f64) {
        self.cells[i].fetch_add(delta);
    }

    /// Read element `i` (relaxed).
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        self.cells[i].load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_is_noop() {
        parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_chunks_covers_range_without_overlap() {
        let n = 10_001;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_chunks(n, 97, |start, end| {
            assert!(start < end && end <= n);
            for i in start..end {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_chunks_accepts_zero_block_size() {
        let hits = AtomicUsize::new(0);
        parallel_for_chunks(10, 0, |s, e| {
            hits.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn atomic_f64_fetch_add_sums_correctly() {
        let cell = AtomicF64::new(1.5);
        let prev = cell.fetch_add(2.5);
        assert_eq!(prev, 1.5);
        assert_eq!(cell.load(), 4.0);
        cell.store(-1.0);
        assert_eq!(cell.load(), -1.0);
    }

    #[test]
    fn atomic_view_concurrent_adds_are_lossless() {
        let mut data = vec![0.0f64; 8];
        {
            let view = AtomicF64View::new(&mut data);
            parallel_for(80_000, |i| {
                view.add(i % 8, 1.0);
            });
            assert_eq!(view.len(), 8);
            assert!(!view.is_empty());
        }
        assert!(data.iter().all(|&x| x == 10_000.0));
    }

    #[test]
    fn atomic_view_reflects_initial_contents() {
        let mut data = vec![3.0, -4.0];
        let view = AtomicF64View::new(&mut data);
        assert_eq!(view.load(0), 3.0);
        assert_eq!(view.load(1), -4.0);
        view.add(1, 1.0);
        assert_eq!(view.load(1), -3.0);
    }
}
