//! Criterion microbenchmarks for the `nvc-nn` matmul kernels.
//!
//! Sizes span the shapes the hot path actually runs: the code2vec
//! projection (`n_paths × context_width · context_width × code_dim`),
//! the batched policy layers, the transpose-free backward kernels, the
//! elementwise `tanh` over one sample's projection, and the
//! attention-score dot of a one-loop and an eight-loop inference flush.
//! Run with:
//!
//! ```text
//! cargo bench -p nv-bench --bench matmul
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nvc_nn::{kernels, KernelMode, Tensor};

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

fn bench_matmul(c: &mut Criterion) {
    // Forward shapes: embed projection and batched policy stages
    // (EmbedConfig::paper: context_width 384, code_dim 340; policy 64×64
    // over a 64-row training batch).
    for &(name, m, k, n) in &[
        (
            "matmul/embed_project_60x384_384x340",
            60usize,
            384usize,
            340usize,
        ),
        ("matmul/policy_input_64x340_340x64", 64, 340, 64),
        ("matmul/policy_hidden_64x64_64x64", 64, 64, 64),
        ("matmul/attention_60x340_340x1", 60, 340, 1),
    ] {
        let a = filled(m, k, 0.1);
        let b = filled(k, n, 0.7);
        c.bench_function(name, |bch| bch.iter(|| black_box(&a).matmul(black_box(&b))));
    }

    // Backward shapes: xᵀ·g (weight gradients) and g·wᵀ (input
    // gradients) via the transpose-free kernels.
    let x = filled(60, 384, 0.3);
    let dproj = filled(60, 340, 0.9);
    c.bench_function("matmul_tn/embed_dw_384x60_60x340", |bch| {
        bch.iter(|| black_box(&x).matmul_tn(black_box(&dproj)))
    });
    let g = filled(64, 64, 0.2);
    let w = filled(340, 64, 0.4);
    c.bench_function("matmul_nt/policy_dx_64x64_340x64", |bch| {
        bch.iter(|| black_box(&g).matmul_nt(black_box(&w)))
    });
}

/// `tanh` over one paper-size sample's projection (100 contexts × 340):
/// libm per element in strict mode, the polynomial body in fast mode.
fn bench_tanh(c: &mut Criterion) {
    let proj = filled(100, 340, 0.5);
    for mode in [KernelMode::Strict, KernelMode::Fast] {
        kernels::set_kernel_mode(mode);
        c.bench_function(&format!("tanh_inplace_34k/{mode}"), |bch| {
            let mut buf = proj.data().to_vec();
            bch.iter(|| {
                buf.copy_from_slice(proj.data());
                kernels::tanh_inplace(black_box(&mut buf));
            })
        });
    }
    kernels::set_kernel_mode(kernels::default_kernel_mode());
}

/// The inference forward's score product, `N×340 · 340` for one loop's
/// 100 contexts and for eight loops': one ascending-`k` chain per row in
/// strict mode, 32 accumulator lanes and a fixed tree in fast mode.
fn bench_score_dot(c: &mut Criterion) {
    let attn = filled(340, 1, 0.8);
    for rows in [100usize, 800] {
        let proj = filled(rows, 340, 0.6);
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            kernels::set_kernel_mode(mode);
            c.bench_function(&format!("score_dot_{rows}x340/{mode}"), |bch| {
                let mut scores = vec![0.0f32; rows];
                bch.iter(|| {
                    scores.fill(0.0);
                    kernels::row_dots_accum(
                        black_box(proj.data()),
                        black_box(attn.data()),
                        rows,
                        340,
                        &mut scores,
                    );
                    scores[rows - 1]
                })
            });
        }
    }
    kernels::set_kernel_mode(kernels::default_kernel_mode());
}

criterion_group!(
    name = matmul;
    config = Criterion::default().sample_size(30);
    targets = bench_matmul, bench_tanh, bench_score_dot
);
criterion_main!(matmul);
