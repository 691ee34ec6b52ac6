//! What one decision allocates: after a warm-up call, `predict_batch` of
//! one paper-size loop takes a few kilobytes from the allocator (the
//! tape's bookkeeping, the 340-wide embedding, the answer) and nothing
//! the size of a weight matrix — `policy.l0.w` alone is 87 KB. The tape
//! borrows its parameters (`crates/nn/src/graph.rs` holds the
//! pointer-equality test) and draws its own tensors from the trainer's
//! arena, so a flush that starts allocating per call shows up here.
//!
//! Its own integration-test binary, so the counting allocator sees this
//! test's allocations and no other's. It runs one pass per kernel mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use neurovectorizer::{NeuroVectorizer, NvConfig};
use nvc_embed::extract_loop_samples;
use nvc_nn::{kernels, KernelMode};

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// `realloc` and `alloc_zeroed` keep their default bodies, which come
// through `alloc` and are counted there at their full new size.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SOURCE: &str = "int a[4096]; int b[8192]; int c[4096]; int d[4100];\n\
    void kernel(int n, int s) {\n    \
    for (int i = 0; i < n; i++) { a[i] = b[2 * i] * c[i] + (d[i + 4] >> 3) - s; }\n}\n";

#[test]
fn deciding_one_paper_size_loop_allocates_under_16_kib() {
    for mode in [KernelMode::Strict, KernelMode::Fast] {
        let cfg = NvConfig::paper().with_seed(3).with_kernel_mode(mode);
        let sites = extract_loop_samples(SOURCE, &cfg.embed).expect("SOURCE parses");
        let sample = &sites[0].sample;
        let nv = NeuroVectorizer::new(cfg);
        assert_eq!(kernels::kernel_mode(), mode);
        // Fills the arena, the encoder's scratch and, in fast mode, the
        // projected rows this sample touches.
        let warm = nv.trainer().predict_batch(&[sample]);

        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let decided = nv.trainer().predict_batch(&[sample]);
        let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        assert_eq!(decided, warm);
        assert!(
            allocated < 16 * 1024,
            "{mode}: one warm predict_batch allocated {allocated} B ({} contexts)",
            sample.len()
        );
    }
}
