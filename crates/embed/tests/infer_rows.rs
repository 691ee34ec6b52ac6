//! The tape-free forward against its oracle.
//!
//! [`CodeEmbedder::infer_rows`] is what every no-gradient consumer runs;
//! the tape forward (`forward_batch` / `forward`) is what it must agree
//! with:
//!
//! * **strict** — bitwise-equal to `forward_batch`, and row by row to
//!   `forward`, over ragged batches (empty, 1-context and max-width
//!   samples, repeated samples, repeated table indices);
//! * **fast** — the factored projection and the rational `tanh` are
//!   ε-close to strict and the same bits from run to run;
//! * **fast, the kept projections** — every kept row is the one-row
//!   product bit for bit; whatever can change a weight drops them; threads
//!   racing on a cold memo fill each row once and agree with a serial
//!   run; a sample's embedding does not depend on its batch-mates; the
//!   bytes kept stay under the stated bound and are given back with the
//!   embedder;
//! * the work counters say what the projection multiplied.
//!
//! Kernel mode, the op-timing flag and the memo gauge are process-wide,
//! so every test here holds one mutex.

use nvc_embed::{CodeEmbedder, EmbedConfig, PathSample};
use nvc_nn::{kernels, obs, serialize, Adam, Graph, KernelMode, ParamStore, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn restore_defaults() {
    kernels::set_kernel_mode(KernelMode::Strict);
}

fn bits(t: &Tensor) -> Vec<u32> {
    slice_bits(t.data())
}

fn slice_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn model(seed: u64) -> (EmbedConfig, ParamStore, CodeEmbedder) {
    model_of(EmbedConfig::fast(), seed)
}

fn model_of(cfg: EmbedConfig, seed: u64) -> (EmbedConfig, ParamStore, CodeEmbedder) {
    let mut store = ParamStore::new(seed);
    let e = CodeEmbedder::new(&mut store, &cfg);
    (cfg, store, e)
}

/// A newly built embedder over a newly built store holding `store`'s
/// values: nothing it computes can come from an earlier call.
fn rebuilt(cfg: &EmbedConfig, store: &ParamStore) -> (ParamStore, CodeEmbedder) {
    let (_, mut fresh, e) = model_of(cfg.clone(), 0);
    serialize::load_into(&mut fresh, &serialize::to_string(store)).expect("same parameters");
    (fresh, e)
}

/// Every `(role, table row)` the batch looks up, once: role 0 start,
/// 1 path, 2 end.
fn touched_rows(batch: &[PathSample]) -> std::collections::BTreeSet<(usize, usize)> {
    batch
        .iter()
        .flat_map(|s| {
            let role = |r: usize, idx: &[u32]| {
                idx.iter()
                    .map(move |&i| (r, i as usize))
                    .collect::<Vec<_>>()
            };
            [role(0, &s.starts), role(1, &s.paths), role(2, &s.ends)].concat()
        })
        .collect()
}

/// `n` contexts over a handful of leaves and paths, so table rows repeat
/// within the sample the way a real loop's leaf pairs do.
fn random_sample(n: usize, cfg: &EmbedConfig, rng: &mut ChaCha8Rng) -> PathSample {
    let leaves: Vec<u32> = (0..1 + n / 3)
        .map(|_| rng.gen_range(0..cfg.token_buckets) as u32)
        .collect();
    let paths: Vec<u32> = (0..1 + n / 2)
        .map(|_| rng.gen_range(0..cfg.path_buckets) as u32)
        .collect();
    let pick = |from: &[u32], rng: &mut ChaCha8Rng| from[rng.gen_range(0..from.len())];
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
    let node = e.forward_batch(&mut g, refs);
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
                slice_bits(got.row(r)),
                bits(g.value(node))
            );
        }
        restore_defaults();
    }

    /// Fast `infer_rows` — factored projection, rational `tanh` — stays
    /// within ε of strict (embeddings live in [−1, 1], so a flat bound)
    /// and reproduces its own bits.
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
        let strict = e.infer_rows(&store, &refs);
        kernels::set_kernel_mode(KernelMode::Fast);
        let fast = e.infer_rows(&store, &refs);
        prop_assert_eq!(bits(&fast), bits(&e.infer_rows(&store, &refs)));
        for (f, s) in fast.data().iter().zip(strict.data()) {
            prop_assert!((f - s).abs() <= 1e-4, "fast={} strict={}", f, s);
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
    }
    restore_defaults();
}

/// Special values in the weights reach the same elements in both modes:
/// the factored sum and the rational `tanh` may round differently,
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
            batch[1].starts[0] as usize * cfg.token_dim,
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
/// looked-up row; fast multiplies a row the first time these weights meet
/// it and never again — and nothing is recorded while op timing is off.
#[test]
fn work_counters_expose_the_dedup_factor() {
    let _guard = lock_knobs();
    let (_, mut store, e) = model(7);
    // 6 contexts over leaves {1, 2, 3} and paths {10, 11}.
    let s = PathSample {
        starts: vec![1, 1, 2, 2, 3, 1],
        paths: vec![10, 11, 10, 11, 10, 10],
        ends: vec![2, 3, 3, 1, 1, 2],
    };
    let counted = |store: &ParamStore| {
        obs::reset_ops();
        e.infer_rows(store, &[&s]);
        let rows = obs::embed_rows_snapshot();
        (rows.context_rows, rows.projected_rows)
    };
    obs::set_ops_enabled(false);
    kernels::set_kernel_mode(KernelMode::Fast);
    // Off: the rows are computed and kept, and none of it is recorded.
    assert_eq!(counted(&store), (0, 0));

    obs::set_ops_enabled(true);
    let _ = store.get_mut(e.context_weight());
    assert_eq!(
        counted(&store),
        (18, 3 + 2 + 3),
        "a cold memo fills every row"
    );
    let tanh_calls = |snap: Vec<obs::OpStat>| snap[obs::Op::Tanh as usize].calls;
    assert_eq!(tanh_calls(obs::ops_snapshot()), 1);
    assert_eq!(counted(&store), (18, 0), "a warm memo multiplies nothing");
    let _ = store.get_mut(e.context_weight());
    assert_eq!(
        counted(&store),
        (18, 8),
        "a handed-out weight drops the memo"
    );

    obs::reset_ops();
    kernels::set_kernel_mode(KernelMode::Strict);
    // The same sample twice embeds once, and its repeated context
    // (1, 10, 2) is projected once: 5 distinct rows of 6.
    e.infer_rows(&store, &[&s, &s]);
    let strict = obs::embed_rows_snapshot();
    assert_eq!((strict.context_rows, strict.projected_rows), (18, 15));

    obs::set_ops_enabled(false);
    obs::reset_ops();
    restore_defaults();
}

/// "The same bits as the factored projection", executable: after a fast
/// forward every kept row equals the one-row product
/// `table_row · W[role's rows]` of the deployed fast matmul, bit for bit,
/// and rows no context named are not kept.
#[test]
fn kept_rows_are_the_one_row_products_bitwise() {
    let _guard = lock_knobs();
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        let (cfg, store, e) = model_of(cfg, 37);
        let batch = ragged_batch(4, 11, false, &cfg);
        let refs: Vec<&PathSample> = batch.iter().collect();
        let (dt, dp, code) = (cfg.token_dim, cfg.path_dim, cfg.code_dim);
        let w = store.get(e.context_weight()).data();
        let role_of = |role: usize| match role {
            0 => (e.token_table(), &w[..dt * code]),
            1 => (e.path_table(), &w[dt * code..(dt + dp) * code]),
            _ => (e.token_table(), &w[(dt + dp) * code..]),
        };
        kernels::set_kernel_mode(KernelMode::Fast);
        e.infer_rows(&store, &refs);
        let touched = touched_rows(&batch);
        for &(role, idx) in &touched {
            let (table, w_role) = role_of(role);
            let row = store.get(table).row(idx);
            let mut want = vec![0.0f32; code];
            kernels::matmul_accum(row, w_role, 1, row.len(), code, &mut want);
            let kept = e
                .memo_row(&store, role, idx)
                .expect("a looked-up row is kept");
            assert_eq!(
                slice_bits(&kept),
                slice_bits(&want),
                "role {role} row {idx}"
            );
        }
        let unused = (0..cfg.path_buckets)
            .find(|&i| !touched.contains(&(1, i)))
            .expect("a path row no context names");
        assert_eq!(e.memo_row(&store, 1, unused), None);
    }
    restore_defaults();
}

/// Invalidation by construction: after anything that can change a weight
/// — one element of `W`, one element of a token row, another checkpoint
/// loaded, one optimizer step — the embedder that served the old weights
/// answers exactly as one built from scratch over the new ones.
#[test]
fn every_mutation_drops_the_kept_rows() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Fast);
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        let (cfg, mut store, e) = model_of(cfg, 41);
        let batch = ragged_batch(5, 8, true, &cfg);
        let refs: Vec<&PathSample> = batch.iter().collect();
        let other = serialize::to_string(&model_of(cfg.clone(), 42).1);
        let a_start = batch
            .iter()
            .find_map(|s| s.starts.first().map(|&i| i as usize))
            .expect("a context");
        type Mutation<'a> = &'a dyn Fn(&mut ParamStore);
        let mutations: [(&str, Mutation); 4] = [
            ("W element", &|st| {
                st.get_mut(e.context_weight()).data_mut()[5] += 0.5
            }),
            ("token row element", &|st| {
                st.get_mut(e.token_table()).data_mut()[a_start * cfg.token_dim] -= 0.5
            }),
            ("checkpoint restored", &|st| {
                serialize::load_into(st, &other).expect("loads")
            }),
            ("Adam step", &|st| {
                for p in [e.token_table(), e.path_table(), e.context_weight()] {
                    st.grad_tensor_mut(p).data_mut().fill(0.25);
                }
                Adam::new(0.05).step(st);
            }),
        ];
        let mut last = bits(&e.infer_rows(&store, &refs));
        for (what, mutate) in mutations {
            mutate(&mut store);
            let got = bits(&e.infer_rows(&store, &refs));
            let (fresh_store, fresh) = rebuilt(&cfg, &store);
            assert_eq!(
                got,
                bits(&fresh.infer_rows(&fresh_store, &refs)),
                "stale after: {what}"
            );
            assert_ne!(
                got, last,
                "{what} changed no embedding: the case tests nothing"
            );
            last = got;
        }
    }
    restore_defaults();
}

/// Eight threads meet a cold memo at once: every one of them gets the
/// serial run's bits, and each looked-up row is multiplied exactly once
/// between them.
#[test]
fn racing_threads_fill_each_row_once_and_agree_with_a_serial_run() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Fast);
    obs::set_ops_enabled(true);
    let (cfg, store, e) = model(53);
    let batch = ragged_batch(6, 21, true, &cfg);
    let refs: Vec<&PathSample> = batch.iter().collect();
    let distinct = touched_rows(&batch).len() as u64;

    obs::reset_ops();
    let serial = bits(&e.clone().infer_rows(&store, &refs));
    assert_eq!(obs::embed_rows_snapshot().projected_rows, distinct);

    obs::reset_ops();
    let kept_before = obs::embed_memo_bytes();
    let gate = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    bits(&e.infer_rows(&store, &refs))
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().expect("racer panicked"), serial);
        }
    });
    assert_eq!(obs::embed_rows_snapshot().projected_rows, distinct);
    assert_eq!(
        obs::embed_memo_bytes() - kept_before,
        distinct * (cfg.code_dim * 4) as u64
    );
    obs::set_ops_enabled(false);
    obs::reset_ops();
    restore_defaults();
}

/// A sample embedded alone and the same sample among seven batch-mates:
/// the same bits.
#[test]
fn a_sample_does_not_depend_on_its_batch_mates() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Fast);
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        let (cfg, store, e) = model_of(cfg, 59);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let batch: Vec<PathSample> = (0..8)
            .map(|i| random_sample(1 + (i * 5) % cfg.max_paths, &cfg, &mut rng))
            .collect();
        let refs: Vec<&PathSample> = batch.iter().collect();
        // Cold for the batch, cold again for the lone samples.
        let together = e.clone().infer_rows(&store, &refs);
        for (r, s) in batch.iter().enumerate() {
            let alone = e.infer_rows(&store, &[s]);
            assert_eq!(bits(&alone), slice_bits(together.row(r)), "sample {r}");
        }
    }
    restore_defaults();
}

/// The stated bound, and who pays it back: sweeping every row of both
/// tables through every role fills the memo to exactly
/// `(2·token_buckets + path_buckets)·code_dim·4` bytes and never past it,
/// new weights start it over, and dropping the embedder returns the gauge
/// to where it was — zero, every other test here having dropped its own.
#[test]
fn kept_bytes_stay_under_the_bound_and_are_returned_on_drop() {
    let _guard = lock_knobs();
    kernels::set_kernel_mode(KernelMode::Fast);
    assert_eq!(
        obs::embed_memo_bytes(),
        0,
        "an earlier embedder leaked its memo"
    );
    let (cfg, mut store, e) = model(61);
    let (tb, pb) = (cfg.token_buckets, cfg.path_buckets);
    let bound = ((2 * tb + pb) * cfg.code_dim * 4) as u64;
    assert_eq!(bound, 128 * 1024);
    let sweep = |store: &ParamStore| {
        let mut kept = obs::embed_memo_bytes();
        let (tb, pb) = (tb as u32, pb as u32);
        for chunk in (0..pb.max(tb)).collect::<Vec<_>>().chunks(64) {
            let s = PathSample {
                starts: chunk.iter().map(|i| i % tb).collect(),
                paths: chunk.iter().map(|i| i % pb).collect(),
                ends: chunk.iter().map(|i| tb - 1 - i % tb).collect(),
            };
            e.infer_rows(store, &[&s]);
            let now = obs::embed_memo_bytes();
            assert!(kept <= now && now <= bound, "{kept} -> {now} of {bound}");
            kept = now;
        }
        kept
    };
    assert_eq!(sweep(&store), bound);
    assert_eq!(sweep(&store), bound, "a second sweep keeps nothing new");
    let _ = store.get_mut(e.attention_vector());
    e.infer_rows(
        &store,
        &[&PathSample {
            starts: vec![0],
            paths: vec![0],
            ends: vec![0],
        }],
    );
    assert_eq!(obs::embed_memo_bytes(), (3 * cfg.code_dim * 4) as u64);
    assert_eq!(sweep(&store), bound);
    // A copy keeps its own rows and pays back its own.
    let copy = e.clone();
    copy.infer_rows(
        &store,
        &[&PathSample {
            starts: vec![1],
            paths: vec![1],
            ends: vec![1],
        }],
    );
    assert_eq!(
        obs::embed_memo_bytes(),
        bound + (3 * cfg.code_dim * 4) as u64
    );
    drop(copy);
    assert_eq!(obs::embed_memo_bytes(), bound);
    drop(e);
    assert_eq!(obs::embed_memo_bytes(), 0);
    let p = EmbedConfig::paper();
    assert_eq!(
        (2 * p.token_buckets + p.path_buckets) * p.code_dim * 4,
        11_141_120,
        "README and infer_rows quote 10.6 MiB"
    );
    restore_defaults();
}
