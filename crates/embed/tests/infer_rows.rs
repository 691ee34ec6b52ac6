//! The tape-free forward against its oracle.
//!
//! [`CodeEmbedder::infer_rows`] is what every no-gradient consumer runs;
//! the tape forward (`forward_batch` / `forward`) is what it must agree
//! with:
//!
//! * **strict** — bitwise-equal to `forward_batch`, and row by row to
//!   `forward`, over ragged batches (empty, 1-context and max-width
//!   samples, repeated samples, repeated table indices);
//! * **fast** — the factored projection and the polynomial `tanh` are
//!   ε-close to strict and the same bits from run to run at every
//!   thread count;
//! * the work counters say what the projection multiplied.
//!
//! Kernel mode, thread count and the op-timing flag are process-wide, so
//! every test here holds one mutex.

use nvc_embed::{CodeEmbedder, EmbedConfig, PathSample};
use nvc_nn::{kernels, obs, Graph, KernelMode, ParamStore, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn restore_defaults() {
    kernels::set_kernel_mode(kernels::default_kernel_mode());
    kernels::set_matmul_threads(kernels::default_matmul_threads());
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn model(seed: u64) -> (EmbedConfig, ParamStore, CodeEmbedder) {
    let cfg = EmbedConfig::fast();
    let mut store = ParamStore::new(seed);
    let e = CodeEmbedder::new(&mut store, &cfg);
    (cfg, store, e)
}

/// `n` contexts over a handful of leaves and paths, so table rows repeat
/// within the sample the way a real loop's leaf pairs do.
fn random_sample(n: usize, cfg: &EmbedConfig, rng: &mut ChaCha8Rng) -> PathSample {
    let leaves: Vec<usize> = (0..1 + n / 3)
        .map(|_| rng.gen_range(0..cfg.token_buckets))
        .collect();
    let paths: Vec<usize> = (0..1 + n / 2)
        .map(|_| rng.gen_range(0..cfg.path_buckets))
        .collect();
    let pick = |from: &[usize], rng: &mut ChaCha8Rng| from[rng.gen_range(0..from.len())];
    PathSample {
        starts: (0..n).map(|_| pick(&leaves, rng)).collect(),
        paths: (0..n).map(|_| pick(&paths, rng)).collect(),
        ends: (0..n).map(|_| pick(&leaves, rng)).collect(),
    }
}

/// A ragged batch that regularly holds the edge widths and, when
/// `repeat`, the same sample twice.
fn ragged_batch(n_samples: usize, seed: u64, repeat: bool, cfg: &EmbedConfig) -> Vec<PathSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch: Vec<PathSample> = (0..n_samples)
        .map(|i| {
            let n = match (seed as usize + i) % 5 {
                0 => 0,
                1 => 1,
                2 => cfg.max_paths,
                _ => rng.gen_range(0..=cfg.max_paths),
            };
            random_sample(n, cfg, &mut rng)
        })
        .collect();
    if repeat {
        let again = batch[rng.gen_range(0..batch.len())].clone();
        batch.insert(rng.gen_range(0..=batch.len()), again);
    }
    batch
}

fn tape_batch(e: &CodeEmbedder, store: &ParamStore, refs: &[&PathSample]) -> Tensor {
    let mut g = Graph::new(store);
    let node = e.forward_batch(&mut g, refs).expect("non-empty batch");
    g.value(node).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strict `infer_rows` is the tape's values, bit for bit: against the
    /// segmented `forward_batch` as a whole and the per-sample `forward`
    /// row by row.
    #[test]
    fn prop_strict_infer_rows_is_the_tape_forward_bitwise(
        n_samples in 1usize..7,
        seed in 0u64..10_000,
        repeat in 0u8..2,
    ) {
        let _guard = lock_knobs();
        kernels::set_kernel_mode(KernelMode::Strict);
        let (cfg, store, e) = model(23);
        let batch = ragged_batch(n_samples, seed, repeat == 1, &cfg);
        let refs: Vec<&PathSample> = batch.iter().collect();
        let got = e.infer_rows(&store, &refs);
        prop_assert_eq!(got.shape(), (refs.len(), cfg.code_dim));
        prop_assert_eq!(bits(&got), bits(&tape_batch(&e, &store, &refs)));
        for (r, s) in batch.iter().enumerate() {
            let mut g = Graph::new(&store);
            let node = e.forward(&mut g, s);
            prop_assert_eq!(
                got.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                bits(g.value(node))
            );
        }
        restore_defaults();
    }

    /// Fast `infer_rows` — factored projection, polynomial `tanh` — stays
    /// within ε of strict (embeddings live in [−1, 1], so a flat bound)
    /// and reproduces its own bits at every thread count.
    #[test]
    fn prop_fast_infer_rows_is_eps_close_and_repeatable(
        n_samples in 1usize..7,
        seed in 0u64..10_000,
        repeat in 0u8..2,
    ) {
        let _guard = lock_knobs();
        let (cfg, store, e) = model(29);
        let batch = ragged_batch(n_samples, seed, repeat == 1, &cfg);
        let refs: Vec<&PathSample> = batch.iter().collect();
        kernels::set_kernel_mode(KernelMode::Strict);
        kernels::set_matmul_threads(1);
        let strict = e.infer_rows(&store, &refs);
        kernels::set_kernel_mode(KernelMode::Fast);
        // Force sharding (and `k`-splits of the few-row products) on
        // these small shapes.
        kernels::set_matmul_grain(1);
        for threads in [1usize, 2, 3, 8] {
            kernels::set_matmul_threads(threads);
            let fast = e.infer_rows(&store, &refs);
            prop_assert_eq!(bits(&fast), bits(&e.infer_rows(&store, &refs)));
            for (f, s) in fast.data().iter().zip(strict.data()) {
                prop_assert!((f - s).abs() <= 1e-4, "fast={} strict={} threads={}", f, s, threads);
            }
        }
        restore_defaults();
    }
}

#[test]
fn degenerate_batches_embed_to_zero_rows() {
    let _guard = lock_knobs();
    let (cfg, store, e) = model(5);
    let empty = PathSample {
        starts: vec![],
        paths: vec![],
        ends: vec![],
    };
    for mode in [KernelMode::Strict, KernelMode::Fast] {
        kernels::set_kernel_mode(mode);
        assert_eq!(e.infer_rows(&store, &[]).shape(), (0, cfg.code_dim));
        let out = e.infer_rows(&store, &[&empty, &empty]);
        assert_eq!(out.shape(), (2, cfg.code_dim));
        assert!(out.data().iter().all(|&x| x == 0.0));
        assert!(e.encode_batch(&store, &[]).is_empty());
        assert!(e.encode(&store, &empty).iter().all(|&x| x == 0.0));
    }
    restore_defaults();
}

/// Special values in the weights reach the same elements in both modes:
/// the factored sum and the polynomial `tanh` may round differently,
/// never turn a number into a `NaN` or back.
#[test]
fn fast_infer_rows_propagates_special_values_like_strict() {
    let _guard = lock_knobs();
    let (cfg, mut store, e) = model(31);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let batch: Vec<PathSample> = (0..4).map(|_| random_sample(9, &cfg, &mut rng)).collect();
    let refs: Vec<&PathSample> = batch.iter().collect();
    for (param, at, v) in [
        (e.context_weight(), 7, f32::NAN),
        (
            e.context_weight(),
            cfg.token_dim * cfg.code_dim + 3,
            f32::INFINITY,
        ),
        (
            e.token_table(),
            batch[1].starts[0] * cfg.token_dim,
            f32::NEG_INFINITY,
        ),
    ] {
        let saved = store.get(param).data()[at];
        store.get_mut(param).data_mut()[at] = v;
        kernels::set_kernel_mode(KernelMode::Strict);
        let strict = e.infer_rows(&store, &refs);
        kernels::set_kernel_mode(KernelMode::Fast);
        let fast = e.infer_rows(&store, &refs);
        for (i, (f, s)) in fast.data().iter().zip(strict.data()).enumerate() {
            assert_eq!(f.is_nan(), s.is_nan(), "NaN-ness diverged at {i} for {v}");
        }
        store.get_mut(param).data_mut()[at] = saved;
    }
    restore_defaults();
}

/// The counters report what the projection did: strict multiplies every
/// looked-up row, fast only the distinct ones — and nothing is recorded
/// while op timing is off.
#[test]
fn work_counters_expose_the_dedup_factor() {
    let _guard = lock_knobs();
    let (_, store, e) = model(7);
    // 6 contexts over leaves {1, 2, 3} and paths {10, 11}.
    let s = PathSample {
        starts: vec![1, 1, 2, 2, 3, 1],
        paths: vec![10, 11, 10, 11, 10, 10],
        ends: vec![2, 3, 3, 1, 1, 2],
    };
    obs::set_ops_enabled(false);
    obs::reset_ops();
    kernels::set_kernel_mode(KernelMode::Fast);
    e.infer_rows(&store, &[&s]);
    assert_eq!(obs::embed_rows_snapshot(), obs::EmbedRows::default());

    obs::set_ops_enabled(true);
    e.infer_rows(&store, &[&s]);
    let fast = obs::embed_rows_snapshot();
    assert_eq!((fast.context_rows, fast.projected_rows), (18, 3 + 2 + 3));
    let tanh_calls = |snap: Vec<obs::OpStat>| snap[obs::Op::Tanh as usize].calls;
    assert_eq!(tanh_calls(obs::ops_snapshot()), 1);

    obs::reset_ops();
    kernels::set_kernel_mode(KernelMode::Strict);
    // The same sample twice embeds once.
    e.infer_rows(&store, &[&s, &s]);
    let strict = obs::embed_rows_snapshot();
    assert_eq!((strict.context_rows, strict.projected_rows), (18, 18));

    obs::set_ops_enabled(false);
    obs::reset_ops();
    restore_defaults();
}
