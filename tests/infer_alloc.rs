//! What one decision allocates: after a warm-up call, `predict_batch` of
//! one paper-size loop takes a few kilobytes from the allocator (the
//! tape's bookkeeping, the 340-wide embedding, the answer) and nothing
//! the size of a weight matrix — `policy.l0.w` alone is 87 KB. The tape
//! borrows its parameters (`crates/nn/src/graph.rs` holds the
//! pointer-equality test) and draws its own tensors from the trainer's
//! arena, so a flush that starts allocating per call shows up here.
//!
//! Its own integration-test binary, so the counting allocator
//! (`support`) sees this test's allocations and no other's. It runs one pass per kernel mode.

mod support;

use neurovectorizer::{NeuroVectorizer, NvConfig};
use nvc_embed::extract_loop_samples;
use nvc_nn::{kernels, KernelMode};
use support::allocations;

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

        let (_, allocated, decided) = allocations(|| nv.trainer().predict_batch(&[sample]));
        assert_eq!(decided, warm);
        assert!(
            allocated < 16 * 1024,
            "{mode}: one warm predict_batch allocated {allocated} B ({} contexts)",
            sample.len()
        );
    }
}
