//! The segmented tape forward on batches **built to repeat**.
//!
//! [`CodeEmbedder::forward_batch`] projects, `tanh`s and scores each
//! distinct `(start, path, end)` context row once and copies the result
//! to the row's repeats. The parity fixtures elsewhere draw indices over
//! 256 × 512 × 256 buckets and repeat a row only by accident, so the
//! batches here repeat on purpose: inside one sample, across samples,
//! everywhere, around an empty sample — and not at all.
//!
//! * **strict** — values and all four parameter gradients bitwise-equal
//!   to the per-sample spelling ([`forward_batch_reference`]), which
//!   computes every row;
//! * **fast** — the same bits from run to run (its ε against strict is
//!   `tests/fast_parity.rs`'s business).
//!
//! The kernel mode is process-wide, so every test here holds one mutex.

use std::collections::HashMap;

use nvc_embed::{CodeEmbedder, EmbedConfig, PathSample};
use nvc_nn::{kernels, Graph, KernelMode, NodeId, ParamId, ParamStore, Tensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn restore_defaults() {
    kernels::set_kernel_mode(KernelMode::Strict);
}

fn sample(triples: &[(u32, u32, u32)]) -> PathSample {
    PathSample {
        starts: triples.iter().map(|t| t.0).collect(),
        paths: triples.iter().map(|t| t.1).collect(),
        ends: triples.iter().map(|t| t.2).collect(),
    }
}

/// The batches, by what repeats in them.
fn batches() -> Vec<(&'static str, Vec<PathSample>)> {
    let (a, b, c, d) = ((3, 40, 7), (7, 41, 3), (3, 41, 9), (200, 500, 201));
    vec![
        (
            "twice inside one sample",
            vec![sample(&[a, b, a, c]), sample(&[d])],
        ),
        (
            "across samples",
            vec![sample(&[a, b]), sample(&[c, a, d]), sample(&[b])],
        ),
        (
            "every row identical",
            vec![sample(&[a, a, a]), sample(&[a]), sample(&[a, a])],
        ),
        (
            "an empty sample between repeats",
            vec![sample(&[a, b]), sample(&[]), sample(&[b, a, a])],
        ),
        // Same tokens and paths throughout, but no triple twice: the
        // tables' rows repeat, the context rows do not.
        (
            "no repeat",
            vec![sample(&[a, b, c]), sample(&[(3, 40, 9), (7, 40, 7), d])],
        ),
    ]
}

/// The oracle: one [`CodeEmbedder::forward`] chain per sample, stacked
/// with `concat_rows`.
fn forward_batch_reference(e: &CodeEmbedder, g: &mut Graph<'_>, batch: &[&PathSample]) -> NodeId {
    let rows: Vec<NodeId> = batch.iter().map(|s| e.forward(g, s)).collect();
    if rows.len() == 1 {
        rows[0]
    } else {
        g.concat_rows(&rows)
    }
}

/// Forward + backward of `batch` through `build`: the stacked values and
/// every parameter gradient. The loss (`Σ out ⊙ sel`, `sel` random) gives
/// every output element its own gradient, so a repeated row's copies
/// carry different gradients back.
fn values_and_grads(
    store: &ParamStore,
    batch: &[&PathSample],
    sel: &Tensor,
    build: impl Fn(&mut Graph<'_>, &[&PathSample]) -> NodeId,
) -> (Tensor, HashMap<ParamId, Tensor>) {
    let mut g = Graph::new(store);
    let out = build(&mut g, batch);
    let seln = g.input(sel.clone());
    let prod = g.mul_elem(out, seln);
    let loss = g.sum_all(prod);
    g.backward(loss);
    (g.value(out).clone(), g.param_grads())
}

fn selector(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

#[test]
fn strict_forward_batch_on_repeated_rows_is_the_reference_bitwise() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Strict);
    let cfg = EmbedConfig::fast();
    let mut store = ParamStore::new(29);
    let e = CodeEmbedder::new(&mut store, &cfg);
    for (what, batch) in batches() {
        let refs: Vec<&PathSample> = batch.iter().collect();
        let sel = selector(refs.len(), cfg.code_dim, 31);
        let (ref_vals, ref_grads) = values_and_grads(&store, &refs, &sel, |g, ss| {
            forward_batch_reference(&e, g, ss)
        });
        let (vals, grads) = values_and_grads(&store, &refs, &sel, |g, ss| e.forward_batch(g, ss));
        assert_eq!(ref_vals, vals, "values diverged: {what}");
        for (name, p) in [
            ("token table", e.token_table()),
            ("path table", e.path_table()),
            ("projection", e.context_weight()),
            ("attention", e.attention_vector()),
        ] {
            assert!(ref_grads.contains_key(&p), "no {name} gradient: {what}");
            assert_eq!(
                ref_grads.get(&p),
                grads.get(&p),
                "{name} gradient diverged: {what}"
            );
        }
    }
    restore_defaults();
}

#[test]
fn fast_forward_batch_on_repeated_rows_repeats_its_own_bits() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Fast);
    let cfg = EmbedConfig::fast();
    let mut store = ParamStore::new(29);
    let e = CodeEmbedder::new(&mut store, &cfg);
    for (what, batch) in batches() {
        let refs: Vec<&PathSample> = batch.iter().collect();
        let sel = selector(refs.len(), cfg.code_dim, 31);
        let run = || {
            let (vals, grads) =
                values_and_grads(&store, &refs, &sel, |g, ss| e.forward_batch(g, ss));
            let mut all: Vec<u32> = vals.data().iter().map(|x| x.to_bits()).collect();
            for p in [
                e.token_table(),
                e.path_table(),
                e.context_weight(),
                e.attention_vector(),
            ] {
                all.extend(grads[&p].data().iter().map(|x| x.to_bits()));
            }
            all
        };
        assert_eq!(run(), run(), "{what}");
    }
    restore_defaults();
}
