//! Criterion microbenchmarks for the `nvc-nn` segment kernels — the
//! ragged-batch attention primitives the segmented encoder runs per
//! flush/training batch (`segment_softmax_rows` + `segment_weighted_sum`
//! over a shared `Segments` partition, plus the `segment_matmul`
//! backward with its per-segment reduction order).
//!
//! Shapes span realistic serving/training batches: 8–64 segments
//! (loops per batch) × 4–200 rows (path contexts per loop) at the
//! paper's 340-wide code vectors. Run with:
//!
//! ```text
//! cargo bench -p nv-bench --bench segments
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nvc_nn::{Graph, ParamStore, RowAlias, Segments, Tensor, TensorArena};

const CODE_DIM: usize = 340;

/// Deterministic ragged segment lengths in `[lo, hi]`.
fn ragged_lens(segments: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..segments)
        .map(|s| lo + (s * 7919 + 13) % (hi - lo + 1))
        .collect()
}

fn filled(rows: usize, cols: usize, phase: f32) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (i as f32 * 0.43 + phase).sin())
            .collect(),
    )
}

/// An arena-backed copy of `t`: the buffer recycles into the pool when
/// the graph drops, so per-iteration input setup is a memcpy instead of
/// a multi-megabyte `malloc`/`free` round trip (which would dominate the
/// kernels being measured).
fn arena_copy(arena: &TensorArena, t: &Tensor) -> Tensor {
    let mut out = arena.alloc(t.rows(), t.cols());
    out.data_mut().copy_from_slice(t.data());
    out
}

fn bench_segments(c: &mut Criterion) {
    let store = ParamStore::new(0);
    let arena = TensorArena::new();
    for &(name, segments, lo, hi) in &[
        ("seg/8x4-32", 8usize, 4usize, 32usize),
        ("seg/32x4-100", 32, 4, 100),
        ("seg/64x4-200", 64, 4, 200),
    ] {
        let lens = ragged_lens(segments, lo, hi);
        let segs = Segments::from_lens(lens.iter().copied());
        let n = segs.total_rows();
        let scores = filled(n, 1, 0.2);
        let values = filled(n, CODE_DIM, 0.8);

        c.bench_function(&format!("segment_softmax_rows/{name}"), |bch| {
            bch.iter(|| {
                let mut g = Graph::with_arena(&store, &arena);
                let s = g.input(arena_copy(&arena, black_box(&scores)));
                let a = g.segment_softmax_rows(s, &segs);
                black_box(g.value(a).data()[0])
            })
        });

        c.bench_function(&format!("segment_weighted_sum/{name}"), |bch| {
            bch.iter(|| {
                let mut g = Graph::with_arena(&store, &arena);
                let s = g.input(arena_copy(&arena, black_box(&scores)));
                let v = g.input(arena_copy(&arena, black_box(&values)));
                let a = g.segment_softmax_rows(s, &segs);
                let pooled = g.segment_weighted_sum(a, v, &segs);
                black_box(g.value(pooled).data()[0])
            })
        });

        // The full segmented attention block, backward included — the
        // per-batch cost the encoder pays during training.
        let ctx = filled(n, 384, 0.5);
        let mut store_p = ParamStore::new(1);
        let w = store_p.param_xavier("w", 384, CODE_DIM);
        let attn = store_p.param_xavier("attn", CODE_DIM, 1);
        // No row is named a repeat: every row is computed.
        let no_repeats = RowAlias::from_keys(0..n);
        c.bench_function(&format!("segment_attention_fwd_bwd/{name}"), |bch| {
            bch.iter(|| {
                let mut g = Graph::with_arena(&store_p, &arena);
                let x = g.input(arena_copy(&arena, black_box(&ctx)));
                let (wn, an) = (g.param(w), g.param(attn));
                let proj = g.segment_matmul(x, wn, &segs, &no_repeats);
                let cc = g.tanh(proj);
                let scores = g.segment_matmul(cc, an, &segs, &no_repeats);
                let alpha = g.segment_softmax_rows(scores, &segs);
                let pooled = g.segment_weighted_sum(alpha, cc, &segs);
                let loss = g.mean_all(pooled);
                g.backward(loss);
                black_box(g.param_grads().len())
            })
        });
    }
}

criterion_group!(
    name = segments;
    config = Criterion::default().sample_size(20);
    targets = bench_segments
);
criterion_main!(segments);
