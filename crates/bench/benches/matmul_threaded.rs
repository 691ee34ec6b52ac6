//! Criterion microbenchmarks for the threaded matmul kernel family.
//!
//! The same embed/policy/backward shapes as the `matmul` bench, swept
//! over 1/2/4/8 kernel worker threads; the one-thread run of the deployed
//! kernel is each shape's baseline. The work floor is dropped to 1 so
//! the labelled thread count is the thread count that actually runs —
//! on small shapes that makes thread overhead visible on purpose, which
//! is exactly what the production work floor exists to avoid. Run with:
//!
//! ```text
//! cargo bench -p nv-bench --bench matmul_threaded
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nvc_nn::{kernels, Tensor};

/// Deterministic pseudo-random tensor (no RNG dependency needed here).
fn filled(rows: usize, cols: usize, phase: f32) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + phase).sin())
            .collect(),
    )
}

fn bench_matmul_threaded(c: &mut Criterion) {
    kernels::set_matmul_grain(1);

    // Forward shapes: the stacked segmented projection over a rollout
    // batch (the system's flop-dominant matmul), the batched policy
    // input layer, and the small hidden layer where threading can only
    // lose.
    for &(name, m, k, n) in &[
        (
            "embed_project_512x384_384x340",
            512usize,
            384usize,
            340usize,
        ),
        ("embed_project_60x384_384x340", 60, 384, 340),
        ("policy_input_64x340_340x64", 64, 340, 64),
        ("policy_hidden_64x64_64x64", 64, 64, 64),
    ] {
        let a = filled(m, k, 0.1);
        let b = filled(k, n, 0.7);
        for threads in [1usize, 2, 4, 8] {
            kernels::set_matmul_threads(threads);
            c.bench_function(&format!("matmul_threaded/{name}/t{threads}"), |bch| {
                bch.iter(|| black_box(&a).matmul(black_box(&b)))
            });
        }
    }

    // Backward shapes: xᵀ·g (weight gradient of the stacked projection)
    // and g·wᵀ (input gradient of the policy layer).
    let x = filled(512, 384, 0.3);
    let dproj = filled(512, 340, 0.9);
    let g = filled(64, 64, 0.2);
    let w = filled(340, 64, 0.4);
    for threads in [1usize, 2, 4, 8] {
        kernels::set_matmul_threads(threads);
        c.bench_function(
            &format!("matmul_threaded/embed_dw_tn_384x512_512x340/t{threads}"),
            |bch| bch.iter(|| black_box(&x).matmul_tn(black_box(&dproj))),
        );
        c.bench_function(
            &format!("matmul_threaded/policy_dx_nt_64x64_340x64/t{threads}"),
            |bch| bch.iter(|| black_box(&g).matmul_nt(black_box(&w))),
        );
    }

    kernels::set_matmul_threads(1);
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
}

criterion_group!(
    name = matmul_threaded;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul_threaded
);
criterion_main!(matmul_threaded);
