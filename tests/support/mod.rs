//! The counting allocator of the allocation tests: it counts every call
//! to the allocator and every byte asked of it. A test includes it with
//! `mod support;` in its own integration-test binary, so the counts are
//! that test's allocations and no other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// `realloc` and `alloc_zeroed` keep their default bodies, which come
// through `alloc` and are counted there, a `realloc` at its full new size.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`; returns the allocator calls and the bytes allocated while it
/// ran, on any thread, and what it returned.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}
