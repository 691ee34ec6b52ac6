//! A reusable tensor-buffer pool.
//!
//! Every [`Graph`](crate::Graph) op allocates an output tensor, and a
//! training iteration builds thousands of short-lived tapes — without
//! reuse that is a steady stream of `malloc`/`free` of identical sizes.
//! [`TensorArena`] keeps the freed buffers: a graph created with
//! [`Graph::with_arena`](crate::Graph::with_arena) draws its allocations
//! from the pool and returns them all when dropped, so steady-state
//! training and serving run with near-zero allocator traffic.
//!
//! Buffers are binned by power-of-two capacity class, so `alloc` and
//! `recycle` are O(1) with no size scans, and each bin carries its own
//! lock — concurrent users (the serving layer's workers all draw from
//! the trainer's arena) contend only when they want the same size class
//! at the same instant, not on one global pool mutex.

#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::tensor::Tensor;

/// Number of power-of-two size classes (covers buffers up to 2⁶³).
const CLASSES: usize = 64;

/// Buffers kept per size class; excess recycles are released to the
/// allocator so one giant graph cannot pin memory forever.
const PER_CLASS_CAP: usize = 64;

/// How many bins above the request's own an `alloc` probes before
/// giving up and taking a fresh allocation. Bounds both the number of
/// lock acquisitions per miss and the capacity waste of a reused buffer
/// (at most ~16× the request).
const SEARCH_SPAN: usize = 4;

/// Point-in-time counters of a [`TensorArena`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ArenaStats {
    /// Allocations served from the pool.
    pub(crate) reused: u64,
    /// Allocations that fell through to the system allocator.
    pub(crate) fresh: u64,
    /// Buffers currently pooled.
    pub(crate) pooled: usize,
}

/// A thread-safe pool of recycled tensor buffers. The `reused` /
/// `fresh` counters exist in test builds only, where `stats()`
/// reads them; a release tape allocation bumps no atomic.
#[derive(Debug)]
pub struct TensorArena {
    bins: Vec<Mutex<Vec<Vec<f32>>>>,
    #[cfg(test)]
    reused: AtomicU64,
    #[cfg(test)]
    fresh: AtomicU64,
}

impl Default for TensorArena {
    fn default() -> Self {
        TensorArena {
            bins: (0..CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            #[cfg(test)]
            reused: AtomicU64::new(0),
            #[cfg(test)]
            fresh: AtomicU64::new(0),
        }
    }
}

/// Bin of a buffer with capacity `c`: `floor(log2(c))`. Every buffer in
/// bin `b` has capacity in `[2^b, 2^(b+1))`, so bins strictly above
/// `floor(log2(n))` always satisfy a request for `n` elements, and the
/// request's own bin may after a capacity check.
fn bin_of(c: usize) -> usize {
    (usize::BITS - 1 - c.max(1).leading_zeros()) as usize
}

impl TensorArena {
    /// An empty pool.
    pub fn new() -> Self {
        TensorArena::default()
    }

    /// A zeroed `rows × cols` tensor, reusing a pooled buffer when one of
    /// sufficient capacity exists in the request's own bin or the next
    /// few above it.
    pub(crate) fn alloc(&self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        let own = bin_of(n);
        let mut found = None;
        for b in own..(own + SEARCH_SPAN).min(CLASSES) {
            let mut bin = self.bins[b].lock().unwrap_or_else(|e| e.into_inner());
            if b == own {
                // The request's own bin holds capacities [2^b, 2^(b+1)),
                // which may straddle n — check before taking.
                if let Some(pos) = bin.iter().rposition(|v| v.capacity() >= n) {
                    found = Some(bin.swap_remove(pos));
                }
            } else {
                // Every buffer in a higher bin is large enough.
                found = bin.pop();
            }
            if found.is_some() {
                break;
            }
        }
        match found {
            Some(mut b) => {
                #[cfg(test)]
                self.reused.fetch_add(1, Ordering::Relaxed);
                b.clear();
                b.resize(n, 0.0);
                Tensor::from_vec(rows, cols, b)
            }
            None => {
                #[cfg(test)]
                self.fresh.fetch_add(1, Ordering::Relaxed);
                Tensor::zeros(rows, cols)
            }
        }
    }

    /// Returns a tensor's buffer to the pool.
    pub fn recycle(&self, t: Tensor) {
        let buf = t.into_data();
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let mut bin = self.bins[bin_of(cap)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if bin.len() < PER_CLASS_CAP {
            bin.push(buf);
        }
    }

    /// Current counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> ArenaStats {
        ArenaStats {
            reused: self.reused.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            pooled: self
                .bins
                .iter()
                .map(|b| b.lock().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_even_after_recycle() {
        let arena = TensorArena::new();
        let mut t = arena.alloc(3, 4);
        t.data_mut().fill(7.0);
        arena.recycle(t);
        let t2 = arena.alloc(2, 5);
        assert_eq!(t2.shape(), (2, 5));
        assert!(
            t2.data().iter().all(|&x| x == 0.0),
            "recycled buffer leaked data"
        );
        assert_eq!(
            arena.stats().reused,
            1,
            "second alloc should reuse the buffer"
        );
    }

    #[test]
    fn larger_requests_fall_through_to_fresh_allocation() {
        let arena = TensorArena::new();
        arena.recycle(arena.alloc(1, 2));
        let big = arena.alloc(64, 64);
        assert_eq!(big.len(), 4096);
        let s = arena.stats();
        assert_eq!(s.reused, 0);
        assert_eq!(s.fresh, 2);
        assert_eq!(s.pooled, 1, "the small buffer must still be pooled");
    }

    #[test]
    fn binning_never_hands_out_undersized_buffers() {
        let arena = TensorArena::new();
        for n in [1usize, 2, 3, 63, 64, 65, 1000] {
            arena.recycle(arena.alloc(1, n));
        }
        for n in [1usize, 5, 64, 100, 900] {
            let t = arena.alloc(n, 1);
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn pool_is_bounded() {
        let arena = TensorArena::new();
        for _ in 0..(PER_CLASS_CAP + 50) {
            arena.recycle(Tensor::zeros(4, 4));
        }
        assert!(arena.stats().pooled <= PER_CLASS_CAP);
    }

    #[test]
    fn concurrent_use_is_safe() {
        let arena = std::sync::Arc::new(TensorArena::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = std::sync::Arc::clone(&arena);
                s.spawn(move || {
                    for i in 1..200usize {
                        let t = a.alloc(1 + i % 17, 1 + i % 23);
                        a.recycle(t);
                    }
                });
            }
        });
        let stats = arena.stats();
        assert_eq!(stats.reused + stats.fresh, 4 * 199);
    }
}
