//! Fast-kernel ε-parity tier: the `KernelMode::Fast` kernels (fused-FMA
//! accumulators, single-pass online softmax, rational `tanh`, the
//! inference forward's factored projection, and its lane-split
//! attention-score dot) reassociate or
//! re-round floating-point results, so they are *not* held to the strict
//! tier's bitwise bar. Their contract, gated here, is:
//!
//! * **ε-parity** — every finite output is within a relative bound of the
//!   strict kernel's answer, over random shapes *and* hostile payloads;
//! * **special-value identity** — NaN/±∞ payloads propagate exactly as
//!   strict propagates them (same NaN-ness per element; non-finite
//!   outputs bit-identical);
//! * **run-to-run identity** — the same mode gives the same bits;
//! * **`tanh`** — the one-division rational body is within 5 ulp of the
//!   correctly rounded value (7 on a host without FMA; the exhaustive
//!   scan that finds both numbers is an ignored unit test beside the body,
//!   `crates/nn/src/kernels/fast.rs`), exactly odd, bounded by 1, exact on
//!   the special values, and blind to where in a slice an element sits;
//! * **the score dot** — the lane-split row dots are ε-close to the
//!   strict chain, a function of the row alone (same bits alone or in a
//!   batch, run after run), and meet `NaN`/`±∞` as the chain does;
//! * **decision equivalence** — serving the full fixed corpus (the
//!   12-loop LLVM suite plus polybench- and mibench-lite) in fast mode
//!   yields exactly the strict decisions, and so do thousands of
//!   synthesized loop shapes at batch 1 and batch 8 under both the fast
//!   and the paper-size configuration, and every source of the
//!   repository benchmark against its three committed strict tables —
//!   whether the projections the inference forward keeps between calls
//!   are cold or warm (keeping them is *not* a departure: a kept row is
//!   the bits the call would have computed).
//!
//! The kernel mode is a process-global knob and fast mode is *not*
//! result-neutral, so every test here serializes on one mutex.

use neurovectorizer::{NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_datasets::{mibench, polybench, suite};
use nvc_embed::{extract_loop_samples, EmbedConfig, PathSample};
use nvc_nn::{kernels, Graph, KernelMode, ParamStore, Segments, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Relative ε for fast-vs-strict parity. Fast mode reorders at most
/// `kd`-term f32 sums (8-wide lanes, `k`-range partials, FMA contraction);
/// 1e-4 of the accumulated magnitude is orders of magnitude above any
/// reassociation drift at the shapes under test while still far below
/// anything that could flip a decision.
const REL_EPS: f32 = 1e-4;
const ABS_EPS: f32 = 1e-6;

static MODE_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

fn restore_defaults() {
    kernels::set_kernel_mode(kernels::default_kernel_mode());
}

/// Bit patterns spanning every special f32 class (same generator as the
/// strict parity tier): ±0, quiet NaN with payload, signalling NaN, ±∞,
/// subnormals.
fn special_f32(class: u64, bits: u32) -> f32 {
    f32::from_bits(match class % 7 {
        0 => 0x0000_0000,
        1 => 0x8000_0000,
        2 => 0x7FC0_0001,
        3 => 0x7F80_0001,
        4 => 0x7F80_0000 | (bits & 0x8000_0000),
        5 => bits & 0x007F_FFFF | 1,
        _ => 0x0000_0001,
    })
}

/// Mostly ordinary values with ~25% special payloads mixed in.
fn wild_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..4usize) == 0 {
                    special_f32(rng.gen_range(0..7u64), rng.gen_range(0..u32::MAX))
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect(),
    )
}

fn finite_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Σ_k |a_ik|·|b_kj| — the accumulated magnitude each output element saw,
/// the natural scale for a relative reassociation bound.
fn abs_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, k)].abs() * b[(k, j)].abs();
            }
        }
    }
    out
}

/// The ε-parity + special-value-identity assertion, element by element.
fn assert_eps_parity(fast: &[f32], strict: &[f32], scale: impl Fn(usize) -> f32, ctx: &str) {
    assert_eq!(fast.len(), strict.len(), "shape diverged [{ctx}]");
    for (i, (&f, &s)) in fast.iter().zip(strict.iter()).enumerate() {
        assert_eq!(
            f.is_nan(),
            s.is_nan(),
            "NaN-ness diverged at {i}: fast={f} strict={s} [{ctx}]"
        );
        if s.is_nan() {
            continue;
        }
        if !s.is_finite() || !f.is_finite() {
            assert_eq!(
                f.to_bits(),
                s.to_bits(),
                "non-finite values must propagate identically at {i}: fast={f} strict={s} [{ctx}]"
            );
            continue;
        }
        let tol = REL_EPS * scale(i) + ABS_EPS;
        assert!(
            (f - s).abs() <= tol,
            "ε-parity violated at {i}: fast={f} strict={s} tol={tol} [{ctx}]"
        );
    }
}

/// Fast vs strict for the whole deployed matmul family, over hostile
/// payloads. Also pins fast-mode run-to-run determinism (same mode ⇒
/// same bits).
fn check_family_eps(m: usize, k: usize, n: usize, seed: u64) {
    let ctx = format!("m={m} k={k} n={n} seed={seed}");

    let a = wild_tensor(m, k, seed);
    let b = wild_tensor(k, n, seed ^ 0x5DEECE66);
    let at = wild_tensor(k, m, seed ^ 0xA5A5);
    let w = wild_tensor(n, k, seed ^ 0xC3C3);

    kernels::set_kernel_mode(KernelMode::Strict);
    let (s_mm, s_tn, s_nt) = (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&w));
    kernels::set_kernel_mode(KernelMode::Fast);
    let (f_mm, f_tn, f_nt) = (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&w));
    let bits = |ts: [&Tensor; 3]| -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
            .collect()
    };
    assert_eq!(
        bits([&f_mm, &f_tn, &f_nt]),
        bits([&a.matmul(&b), &at.matmul_tn(&b), &a.matmul_nt(&w)]),
        "the fast matmul family must be run-to-run deterministic [{ctx}]"
    );

    let mm_scale = abs_matmul(&a, &b);
    let tn_scale = abs_matmul(&at.transposed(), &b);
    let nt_scale = abs_matmul(&a, &w.transposed());
    assert_eps_parity(
        f_mm.data(),
        s_mm.data(),
        |i| mm_scale.data()[i],
        &format!("matmul {ctx}"),
    );
    assert_eps_parity(
        f_tn.data(),
        s_tn.data(),
        |i| tn_scale.data()[i],
        &format!("matmul_tn {ctx}"),
    );
    assert_eps_parity(
        f_nt.data(),
        s_nt.data(),
        |i| nt_scale.data()[i],
        &format!("matmul_nt {ctx}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes × hostile payloads: every fast kernel is ε-close to
    /// strict with identical special-value propagation.
    #[test]
    fn prop_fast_kernels_are_eps_close_to_strict(
        m in 0usize..12,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let _guard = lock_mode();
        check_family_eps(m, k, n, seed);
        restore_defaults();
    }
}

/// The fused fast segment ops (online softmax, `mul_add` weighted sum)
/// vs their strict three-pass / plain spellings, over hostile payloads
/// and the layouts the strict tier pins — ε-close, NaN-ness identical.
#[test]
fn fast_segment_ops_are_eps_close_to_strict() {
    let _guard = lock_mode();
    let store = ParamStore::new(7);
    let layouts: &[(&[usize], usize)] = &[
        (&[5], 3),
        (&[3, 0, 5, 1, 8], 7),
        (&[1; 19], 4),
        (&[0, 0, 6, 2, 0, 9, 1, 4], 1),
    ];
    for (li, &(lens, cols)) in layouts.iter().enumerate() {
        let seed = 777 + li as u64;
        let segs = Segments::from_lens(lens.iter().copied());
        let rows = segs.total_rows();
        let scores = wild_tensor(rows, cols, seed);
        let wts = wild_tensor(rows, 1, seed ^ 0x77);
        let vals = wild_tensor(rows, cols, seed ^ 0x88);
        let run = |mode: KernelMode| {
            kernels::set_kernel_mode(mode);
            let mut g = Graph::new(&store);
            let sc = g.input(scores.clone());
            let sm = g.segment_softmax_rows(sc, &segs);
            let wn = g.input(wts.clone());
            let vn = g.input(vals.clone());
            let ws = g.segment_weighted_sum(wn, vn, &segs);
            (g.value(sm).data().to_vec(), g.value(ws).data().to_vec())
        };
        let (s_sm, s_ws) = run(KernelMode::Strict);
        // Weighted-sum magnitude scale: Σ_r |w_r|·|v_rd| per segment.
        let mut ws_scale = vec![0.0f32; segs.len() * cols.max(1)];
        for (s, (r0, r1)) in (0..segs.len()).map(|s| (s, segs.bounds(s))) {
            for r in r0..r1 {
                for d in 0..cols {
                    ws_scale[s * cols + d] += wts[(r, 0)].abs() * vals[(r, d)].abs();
                }
            }
        }
        let (f_sm, f_ws) = run(KernelMode::Fast);
        let ctx = format!("lens={lens:?} cols={cols}");
        // Softmax outputs live in [0, 1]: a flat absolute ε suffices.
        assert_eps_parity(&f_sm, &s_sm, |_| 1.0, &format!("segment_softmax {ctx}"));
        assert_eps_parity(
            &f_ws,
            &s_ws,
            |i| ws_scale[i],
            &format!("segment_weighted_sum {ctx}"),
        );
    }
    restore_defaults();
}

/// The end-to-end gate: train on the full fixed corpus (LLVM 12-loop
/// suite + polybench-lite + mibench-lite) in strict mode, then serve the
/// checkpoint through the batched serving path in both modes. Fast mode
/// must reproduce the strict decisions exactly, loop for loop — the
/// product-level guarantee all the ε bounds above exist to protect.
#[test]
fn fast_serving_decisions_match_strict_on_the_full_corpus() {
    let _guard = lock_mode();
    let mut corpus = suite::llvm_suite();
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    assert!(corpus.len() >= 24, "corpus shrank: {}", corpus.len());

    let mut cfg = NvConfig::fast()
        .with_seed(1729)
        .with_kernel_mode(KernelMode::Strict);
    cfg.ppo.train_batch = 24;
    cfg.ppo.minibatch = 8;
    cfg.ppo.epochs = 2;
    let mut env = VectorizeEnv::new(corpus, cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.train(&mut env, 2);
    let checkpoint = nv.checkpoint();
    let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();
    assert!(
        samples.len() >= 24,
        "corpus lost loops: {} contexts",
        samples.len()
    );

    let serve_decisions = |mode: KernelMode| {
        let mut m = NeuroVectorizer::new(cfg.clone().with_kernel_mode(mode));
        m.restore(&checkpoint).expect("restore");
        let handle = m.serve();
        let decisions: Vec<(usize, usize)> = samples
            .iter()
            .map(|s| handle.decide_sample(s).expect("serve decision").0)
            .collect();
        handle.shutdown();
        decisions
    };

    let strict = serve_decisions(KernelMode::Strict);
    let fast = serve_decisions(KernelMode::Fast);
    assert_eq!(fast, strict, "fast-mode serving changed a corpus decision");
    restore_defaults();
}

/// Direct (unbatched) inference agrees too: `decide` over every corpus
/// sample is mode-invariant on a freshly seeded (untrained) model, where
/// logits sit closest together and a reassociation flip would be likeliest.
#[test]
fn fast_direct_inference_matches_strict_on_fresh_weights() {
    let _guard = lock_mode();
    let cfg = NvConfig::fast().with_seed(5);
    let mut corpus = suite::llvm_suite();
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    let env = VectorizeEnv::new(corpus, cfg.target.clone(), &cfg.embed);
    let space = env.space();
    let decide_all = |mode: KernelMode| {
        let m = NeuroVectorizer::new(cfg.clone().with_kernel_mode(mode));
        env.contexts()
            .iter()
            .map(|c| m.decide(&c.sample, space))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        decide_all(KernelMode::Fast),
        decide_all(KernelMode::Strict),
        "fast-mode direct inference changed a decision"
    );
    restore_defaults();
}

/// Finite well-scaled gradients flow through the fast kernels ε-close to
/// strict: one fused `linear → tanh → sum` backward pass (dx, dW, db all
/// bounded by the forward magnitudes).
#[test]
fn fast_gradients_are_eps_close_to_strict() {
    let _guard = lock_mode();
    let (m, k, n) = (4usize, 340usize, 24usize);
    let mut store = ParamStore::new(11);
    let x_init = finite_tensor(m, k, 21);
    let w = store.param("w", finite_tensor(k, n, 22));
    let b = store.param("b", finite_tensor(1, n, 23));
    let run = |mode: KernelMode| {
        kernels::set_kernel_mode(mode);
        let mut g = Graph::new(&store);
        let x = g.input(x_init.clone());
        let (wn, bn) = (g.param(w), g.param(b));
        let y = g.linear(x, wn, bn);
        let t = g.tanh(y);
        let loss = g.sum_all(t);
        g.backward(loss);
        let grads = g.param_grads();
        let mut all = g.grad(x).expect("dx").data().to_vec();
        all.extend_from_slice(grads[&w].data());
        all.extend_from_slice(grads[&b].data());
        all
    };
    let (strict, fast) = (run(KernelMode::Strict), run(KernelMode::Fast));
    // tanh'·sums keep every gradient O(k); scale by the reduction
    // depth for the dW entries accumulated over m·k products.
    assert_eps_parity(&fast, &strict, |_| k as f32, "gradients");
    restore_defaults();
}

/// The encoder's tape forward computes each distinct context row once
/// and copies it to its repeats; in fast mode the distinct rows are a
/// different (smaller) product than the full stack, so the batch is held
/// to ε here, values and all four parameter gradients, on a batch whose
/// rows repeat inside a sample, across samples and around an empty one.
#[test]
fn fast_encoder_on_repeated_rows_is_eps_close_to_strict() {
    let _guard = lock_mode();
    let cfg = EmbedConfig::fast();
    let mut store = ParamStore::new(43);
    let e = nvc_embed::CodeEmbedder::new(&mut store, &cfg);
    let sample = |triples: &[(usize, usize, usize)]| PathSample {
        starts: triples.iter().map(|t| t.0).collect(),
        paths: triples.iter().map(|t| t.1).collect(),
        ends: triples.iter().map(|t| t.2).collect(),
    };
    let (a, b, c) = ((3, 40, 7), (7, 41, 3), (200, 500, 201));
    let batch = [
        sample(&[a, b, a, c]),
        sample(&[]),
        sample(&[b, a]),
        sample(&[c, c, c]),
    ];
    let refs: Vec<&PathSample> = batch.iter().collect();
    let rows: usize = batch.iter().map(|s| s.len()).sum();
    let sel = finite_tensor(refs.len(), cfg.code_dim, 47);
    let run = |mode: KernelMode| {
        kernels::set_kernel_mode(mode);
        let mut g = Graph::new(&store);
        let out = e.forward_batch(&mut g, &refs).expect("non-empty batch");
        let seln = g.input(sel.clone());
        let prod = g.mul_elem(out, seln);
        let loss = g.sum_all(prod);
        g.backward(loss);
        let grads = g.param_grads();
        let mut all = g.value(out).data().to_vec();
        for p in [
            e.token_table(),
            e.path_table(),
            e.context_weight(),
            e.attention_vector(),
        ] {
            all.extend_from_slice(grads[&p].data());
        }
        all
    };
    let (strict, fast) = (run(KernelMode::Strict), run(KernelMode::Fast));
    // Embeddings are convex combinations of tanh outputs (≤ 1); a
    // gradient element sums at most one O(1) term per context row.
    let n_values = refs.len() * cfg.code_dim;
    assert_eps_parity(
        &fast,
        &strict,
        |i| if i < n_values { 1.0 } else { rows as f32 },
        "repeated-row encoder",
    );
    assert_eq!(
        to_bits(&fast),
        to_bits(&run(KernelMode::Fast)),
        "fast encoder bits changed between runs"
    );
    restore_defaults();
}

// ---- tanh ---------------------------------------------------------------

fn fast_tanh(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    kernels::tanh_inplace(&mut out);
    out
}

#[test]
fn fast_tanh_is_exact_on_special_values() {
    let _guard = lock_mode();
    kernels::set_kernel_mode(KernelMode::Fast);
    let sub = f32::from_bits(0x0000_0001);
    let big_sub = f32::from_bits(0x007F_FFFF);
    let cases = [
        (0.0f32, 0.0f32),
        (-0.0, -0.0),
        (f32::INFINITY, 1.0),
        (f32::NEG_INFINITY, -1.0),
        (sub, sub),
        (-sub, -sub),
        (big_sub, big_sub),
        (f32::MIN_POSITIVE, f32::MIN_POSITIVE),
        (9.1, 1.0),
        (-9.1, -1.0),
        (88.0, 1.0),
        (-1e30, -1.0),
        (f32::MAX, 1.0),
    ];
    let got = fast_tanh(&cases.map(|(x, _)| x));
    for ((x, want), y) in cases.iter().zip(got) {
        assert_eq!(y.to_bits(), want.to_bits(), "tanh({x:e}) = {y:e}");
    }
    for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
        assert!(fast_tanh(&[nan])[0].is_nan(), "tanh(NaN) must stay NaN");
    }
    restore_defaults();
}

#[test]
fn fast_tanh_is_within_its_ulp_bound_odd_and_bounded() {
    let _guard = lock_mode();
    kernels::set_kernel_mode(KernelMode::Fast);
    // The entry point runs the fused body where the CPU has FMA and the
    // plain one elsewhere; these are the worst cases of each over every
    // float below the clamp.
    let max_ulps = if kernels::fast::fused_available() {
        5
    } else {
        7
    };
    // A dense sweep of [0, 12] (the negative half follows from oddness,
    // asserted below) plus every binade down through the subnormals.
    let mut xs: Vec<f32> = (0..=480_000).map(|i| i as f32 * 2.5e-5).collect();
    xs.extend(
        (1..0x4140_0000u32)
            .step_by(0x0080_0000 / 64)
            .map(f32::from_bits),
    );
    let ys = fast_tanh(&xs);
    let negated = fast_tanh(&xs.iter().map(|x| -x).collect::<Vec<f32>>());
    for ((&x, &y), &ny) in xs.iter().zip(&ys).zip(&negated) {
        let exact = (x as f64).tanh() as f32;
        let ulps = y.to_bits().abs_diff(exact.to_bits());
        assert!(
            ulps <= max_ulps,
            "tanh({x:e}) = {y:e}, correctly rounded {exact:e}"
        );
        assert!(y <= 1.0, "tanh({x:e}) = {y:e} exceeds 1");
        assert_eq!(ny.to_bits(), (-y).to_bits(), "tanh(-{x:e}) != -tanh({x:e})");
    }
    restore_defaults();
}

/// Vector body or scalar tail, whichever lane: an element's result is a
/// function of the element alone.
#[test]
fn fast_tanh_does_not_depend_on_slice_position() {
    let _guard = lock_mode();
    kernels::set_kernel_mode(KernelMode::Fast);
    let xs: Vec<f32> = (0..257)
        .map(|i| ((i as f32) * 0.731).sin() * 10.0)
        .collect();
    let whole: Vec<u32> = fast_tanh(&xs).iter().map(|y| y.to_bits()).collect();
    for piece in 1..=9usize {
        let pieced: Vec<u32> = xs
            .chunks(piece)
            .flat_map(fast_tanh)
            .map(|y| y.to_bits())
            .collect();
        assert_eq!(
            pieced, whole,
            "pieces of {piece} diverged from the whole slice"
        );
    }
    restore_defaults();
}

// ---- the lane-split score dot and the kept-row product ------------------

/// `start + a·v` row by row through the deployed score-dot entry point.
fn row_dots(mode: KernelMode, a: &Tensor, v: &Tensor, start: &Tensor) -> Vec<f32> {
    kernels::set_kernel_mode(mode);
    let mut out = start.data().to_vec();
    kernels::row_dots_accum(a.data(), v.data(), a.rows(), a.cols(), &mut out);
    out
}

fn to_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fast mode's fifth departure against the chain it replaces: reductions
/// from empty through every block boundary of the 4 × 8 lanes to the
/// encoder's 340 and one past it, row counts from none to a flush of
/// eight full loops, ordinary and hostile payloads, a non-zero starting
/// `out`. ε-close with identical special values; the same bits run after
/// run, and for a row taken out of its matrix.
#[test]
fn lane_split_row_dots_are_eps_close_to_the_strict_chain_and_a_function_of_the_row() {
    let _guard = lock_mode();
    for kd in [0usize, 1, 7, 8, 31, 32, 33, 64, 340, 341] {
        for m in [0usize, 1, 100, 800] {
            let seed = (kd * 1000 + m) as u64;
            for (kind, make) in [
                ("finite", finite_tensor as fn(usize, usize, u64) -> Tensor),
                ("wild", wild_tensor),
            ] {
                let ctx = format!("{kind} m={m} kd={kd}");
                let (a, v) = (make(m, kd, seed ^ 0x1D), make(kd, 1, seed ^ 0x2D));
                let start = make(m, 1, seed ^ 0x3D);
                let strict = row_dots(KernelMode::Strict, &a, &v, &start);
                let fast = row_dots(KernelMode::Fast, &a, &v, &start);
                let scale = abs_matmul(&a, &v);
                assert_eps_parity(
                    &fast,
                    &strict,
                    |i| start.data()[i].abs() + scale.data()[i],
                    &ctx,
                );
                assert_eq!(
                    to_bits(&row_dots(KernelMode::Fast, &a, &v, &start)),
                    to_bits(&fast),
                    "bits moved between runs [{ctx}]"
                );
                for r in [0, m / 2, m.saturating_sub(1)]
                    .into_iter()
                    .filter(|&r| r < m)
                {
                    let row = Tensor::from_vec(1, kd, a.row(r).to_vec());
                    let from = Tensor::scalar(start.data()[r]);
                    assert_eq!(
                        to_bits(&row_dots(KernelMode::Fast, &row, &v, &from)),
                        to_bits(&fast[r..r + 1]),
                        "row {r} alone differs from row {r} in its batch [{ctx}]"
                    );
                }
            }
        }
    }
    restore_defaults();
}

/// Special values reach the score as they would through one chain: a
/// `NaN` in any lane, block or tail poisons it; opposite infinities give
/// `NaN` whether they share a lane or first meet in the reduction tree; a
/// lone infinity survives with its sign; and lanes start at `+0`, so a row
/// of `−0`s adds `+0` — `+0` stays `+0`, anything else stays itself.
#[test]
fn lane_split_row_dots_meet_special_values_like_the_chain() {
    let _guard = lock_mode();
    let kd = 340;
    let v = Tensor::from_vec(
        kd,
        1,
        (0..kd).map(|k| 0.5 + (k % 7) as f32 * 0.25).collect(),
    );
    let base: Vec<f32> = (0..kd).map(|k| ((k as f32) * 0.37).sin()).collect();
    let dot = |mode: KernelMode, row: &[f32], start: f32| {
        let a = Tensor::from_vec(1, kd, row.to_vec());
        row_dots(mode, &a, &v, &Tensor::scalar(start))[0]
    };
    let planted = |at: &[(usize, f32)]| {
        let mut row = base.clone();
        for &(k, x) in at {
            row[k] = x;
        }
        row
    };
    let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
    for k in [0usize, 7, 8, 31, 32, 319, 320, 335, 336, 339] {
        for nan in [f32::NAN, f32::from_bits(0x7F80_0001)] {
            assert!(
                dot(KernelMode::Fast, &planted(&[(k, nan)]), 1.0).is_nan(),
                "NaN at {k}"
            );
        }
        for x in [inf, ninf] {
            let row = planted(&[(k, x)]);
            assert_eq!(dot(KernelMode::Fast, &row, 1.0), x, "lone infinity at {k}");
            assert_eq!(dot(KernelMode::Strict, &row, 1.0), x);
        }
    }
    for (p, n) in [
        (3usize, 12usize),
        (3, 35),
        (3, 338),
        (336, 339),
        (40, 8),
        (100, 4),
    ] {
        let row = planted(&[(p, inf), (n, ninf)]);
        assert!(dot(KernelMode::Strict, &row, 0.0).is_nan());
        assert!(
            dot(KernelMode::Fast, &row, 0.0).is_nan(),
            "+inf at {p}, -inf at {n}"
        );
    }
    let zeros = vec![-0.0f32; kd];
    for start in [0.0f32, 1.5, -2.25e-30, inf] {
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            let got = dot(mode, &zeros, start);
            assert_eq!(got.to_bits(), start.to_bits(), "{mode} from {start}");
        }
    }
    restore_defaults();
}

/// What the inference forward keeps per table row: `row_matmul_accum_fast`
/// is fast `matmul_accum` of that one row, bit for bit, **whatever** the
/// process mode when it runs, so a kept row cannot depend on when it was
/// filled.
#[test]
fn row_matmul_fast_is_the_serial_one_row_fast_product_whenever_it_runs() {
    let _guard = lock_mode();
    for (kd, n) in [(16usize, 32usize), (128, 340), (0, 5), (7, 1), (65, 33)] {
        let seed = (kd * 1000 + n) as u64;
        let (row, b) = (
            wild_tensor(1, kd, seed ^ 0x4D),
            wild_tensor(kd, n, seed ^ 0x5D),
        );
        let start = wild_tensor(1, n, seed ^ 0x6D);
        kernels::set_kernel_mode(KernelMode::Fast);
        let mut want = start.data().to_vec();
        kernels::matmul_accum(row.data(), b.data(), 1, kd, n, &mut want);
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            kernels::set_kernel_mode(mode);
            let mut got = start.data().to_vec();
            kernels::row_matmul_accum_fast(row.data(), b.data(), kd, n, &mut got);
            assert_eq!(
                to_bits(&got),
                to_bits(&want),
                "kd={kd} n={n} filled in {mode} mode"
            );
        }
    }
    restore_defaults();
}

// ---- decision equivalence at bench scale --------------------------------

/// A random loop-body expression: depth ≤ 4 over array reads, a scalar and
/// one literal per bucket of the embedder's literal normalization — the
/// grammar of the repo benchmark's never-seen shapes, whose *structure*
/// path-context normalization cannot collapse.
fn synth_expr(rng: &mut ChaCha8Rng, depth: u32, out: &mut String) {
    const LEAVES: [&str; 10] = [
        "b[i]", "c[i]", "d[i + 1]", "b[i * 2]", "s", "1", "2", "5", "8", "100",
    ];
    const OPS: [&str; 6] = ["+", "-", "*", "&", "|", "^"];
    if depth >= 4 || (depth > 0 && rng.gen_range(0..4u32) < depth) {
        out.push_str(LEAVES[rng.gen_range(0..LEAVES.len())]);
        return;
    }
    out.push('(');
    synth_expr(rng, depth + 1, out);
    out.push(' ');
    out.push_str(OPS[rng.gen_range(0..OPS.len())]);
    out.push(' ');
    synth_expr(rng, depth + 1, out);
    out.push(')');
}

/// `count` distinct samples of synthesized loops.
fn synth_samples(seed: u64, count: usize, cfg: &EmbedConfig) -> Vec<PathSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut body = String::new();
        synth_expr(&mut rng, 0, &mut body);
        let src = format!("for (int i = 0; i < n; i++) {{ a[i] = {body}; }}");
        let stmt = nvc_frontend::parse_statement(&src).expect("synthesized loop parses");
        let sample = PathSample::from_stmt(&stmt, cfg);
        if seen.insert(sample.clone()) {
            out.push(sample);
        }
    }
    out
}

/// Fast decisions at batch 1 and batch 8 against strict, on a freshly
/// seeded model (untrained logits sit closest together, so a re-rounding
/// flip is likeliest here) — batch 1 from a cold memo that warms as it
/// goes, batch 8 on the warm one, then batch 8 again from cold (reloading
/// the model's own checkpoint renews the store's stamp); and fast
/// embeddings of a sample alone against the same sample among seven
/// batch-mates: kept or computed, a projection is a function of its table
/// row, never of the batch.
fn assert_synth_decisions_match(cfg: NvConfig, seed: u64, count: usize) {
    let samples = synth_samples(seed, count, &cfg.embed);
    let refs: Vec<&PathSample> = samples.iter().collect();
    let mut nv = NeuroVectorizer::new(cfg);
    let batched = |nv: &NeuroVectorizer, chunk: usize| -> Vec<(usize, usize)> {
        refs.chunks(chunk)
            .flat_map(|c| nv.trainer().predict_batch(c))
            .collect()
    };
    kernels::set_kernel_mode(KernelMode::Strict);
    let strict = batched(&nv, 8);
    kernels::set_kernel_mode(KernelMode::Fast);
    assert_eq!(batched(&nv, 1), strict, "fast batch-1 decisions diverged");
    assert_eq!(batched(&nv, 8), strict, "fast batch-8 decisions diverged");
    let own = nv.checkpoint();
    nv.restore(&own).expect("own checkpoint");
    assert_eq!(
        batched(&nv, 8),
        strict,
        "fast batch-8 decisions diverged from a cold memo"
    );
    for chunk in refs.chunks(8).take(16) {
        for (together, alone) in nv.encode_batch(chunk).iter().zip(chunk) {
            assert_eq!(
                to_bits(together),
                to_bits(&nv.encode(alone)),
                "a sample's fast embedding depends on its batch-mates"
            );
        }
    }
}

#[test]
fn fast_decisions_match_strict_on_synthesized_loops() {
    let _guard = lock_mode();
    assert_synth_decisions_match(NvConfig::fast(), 11, 2_000);
    assert_synth_decisions_match(NvConfig::paper().with_seed(3), 12, 200);
    restore_defaults();
}

/// The paper-size sweep at the benchmark's scale. Minutes unoptimized, so
/// debug builds skip it; CI runs it in release on every push.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-size sweep: run with --release")]
fn fast_decisions_match_strict_on_synthesized_loops_at_paper_size() {
    let _guard = lock_mode();
    assert_synth_decisions_match(NvConfig::paper().with_seed(3), 13, 2_000);
    restore_defaults();
}

// ---- the repository benchmark's committed strict tables -----------------

/// `bench/fixtures/<name>`, read-only: the benchmark owns these files.
fn bench_fixture(name: &str) -> String {
    let path = format!("{}/bench/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The benchmark's source catalog in table order: the generator pool,
/// then every synthesized loop body in the translation unit the harness
/// wraps it in (`bench/src/synth.rs::shape_source`).
fn bench_catalog() -> Vec<String> {
    let strings = |name: &str| -> Vec<String> {
        bench_fixture(name)
            .lines()
            .map(|l| match nvc_serve::Json::parse(l) {
                Ok(nvc_serve::Json::Str(s)) => s,
                _ => panic!("{name}: every line is one JSON string"),
            })
            .collect()
    };
    let mut sources = strings("pool.jsonl");
    sources.extend(strings("shapes.jsonl").iter().map(|body| {
        format!(
            "int a[4096]; int b[8192]; int c[4096]; int d[4100];\n\
             void kernel(int n, int s) {{\n    \
             for (int i = 0; i < n; i++) {{ a[i] = {body}; }}\n}}\n"
        )
    }));
    sources
}

/// Fast mode decides every loop of the benchmark's catalog exactly as
/// `expected_<table>.tsv` — computed in strict mode, committed with the
/// benchmark — says: one loop at a time from a cold memo that warms as
/// the catalog goes by, then eight at a time on the warm one.
fn assert_fast_decides_like_the_committed_table(table: &str, nv: &NeuroVectorizer) {
    let text = bench_fixture(&format!("expected_{table}.tsv"));
    let mut lines = text.lines();
    let stamp = format!("# checkpoint_hash {:016x}", nv.checkpoint_hash());
    assert_eq!(
        lines.next(),
        Some(stamp.as_str()),
        "{table}: not this model's table"
    );
    let want: Vec<(u32, u32)> = lines
        .flat_map(|row| row.split('\t').filter(|cell| !cell.is_empty()))
        .map(|cell| {
            let (vf, if_) = cell.split_once(':').expect("vf:if cell");
            (vf.parse().expect("vf"), if_.parse().expect("if"))
        })
        .collect();
    let samples: Vec<PathSample> = bench_catalog()
        .iter()
        .flat_map(|src| extract_loop_samples(src, &nv.config().embed).expect("catalog parses"))
        .map(|site| site.sample)
        .collect();
    assert_eq!(samples.len(), want.len(), "{table}: loop count");
    let refs: Vec<&PathSample> = samples.iter().collect();
    let space = nvc_vectorizer::ActionSpace::for_target(&nv.config().target);
    kernels::set_kernel_mode(KernelMode::Fast);
    for chunk in [1usize, 8] {
        let got = refs
            .chunks(chunk)
            .flat_map(|c| nv.trainer().predict_batch(c))
            .map(|(v, i)| space.decision_from_pair(v, i))
            .map(|d| (d.vf, d.if_));
        for (at, (got, want)) in got.zip(&want).enumerate() {
            assert_eq!(got, *want, "{table}: loop {at} at batch {chunk}");
        }
    }
}

#[test]
fn fast_decisions_match_the_committed_tables_of_the_trained_checkpoints() {
    let _guard = lock_mode();
    for table in ["A", "B"] {
        let mut nv = NeuroVectorizer::new(NvConfig::fast());
        nv.restore(&bench_fixture(&format!("ckpt_{table}")))
            .expect("committed checkpoint");
        assert_fast_decides_like_the_committed_table(table, &nv);
    }
    restore_defaults();
}

/// The table `hub_cold` is verified against: the untrained paper-size
/// model (`bench/src/fixtures.rs::PAPER_SEED`). Minutes unoptimized, so
/// debug builds skip it; CI runs it in release on every push.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-size catalog: run with --release")]
fn fast_decisions_match_the_committed_table_at_paper_size() {
    let _guard = lock_mode();
    let nv = NeuroVectorizer::new(NvConfig::paper().with_seed(3));
    assert_fast_decides_like_the_committed_table("paper", &nv);
    restore_defaults();
}
