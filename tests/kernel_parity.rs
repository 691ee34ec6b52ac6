//! Kernel-parity tier: the SIMD-unrolled matmul kernels must be
//! **bitwise**-identical to their textbook
//! spellings — values and gradients — over arbitrary shapes (including
//! `m = 0`, `k = 0`, `n = 1` and widths straddling the 8-wide unroll
//! blocks) and over hostile payloads (±0, quiet/signalling NaNs, ±∞,
//! subnormals). The textbook i-k-j loop is the one oracle: there is no
//! intermediate reference kernel between it and what is deployed.
//!
//! "Bitwise" stops at NaN *payloads* ([`bits`]): where a NaN appears,
//! the sign of every zero, ±∞ and every subnormal are compared bit for
//! bit, but which payload survives when two NaNs meet is unspecified for
//! arithmetic results in Rust — LLVM may commute the operands of an
//! `fadd`/`fmul`, and the hardware keeps the first one's — so it is a
//! property of the build, not of the kernel. With that one
//! canonicalisation the tier holds in debug **and** `--release` builds.
//!
//! The kernel *mode* is process-global and not result-neutral: every
//! test holds [`MODE`] shared and runs strict, except the one that sweeps
//! both modes and holds it exclusively.

use std::sync::{RwLock, RwLockReadGuard};

use nvc_nn::{kernels, Graph, KernelMode, ParamStore, Segments, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Guards the process-wide kernel mode: shared by the tests that pin
/// strict, exclusive for the one that also runs fast.
static MODE: RwLock<()> = RwLock::new(());

/// Pins the strict kernel contract for as long as the guard lives — this
/// tier *is* the bitwise guarantee (idempotent, so concurrent holders
/// agree).
fn pin_strict() -> RwLockReadGuard<'static, ()> {
    let guard = MODE.read().unwrap_or_else(|e| e.into_inner());
    kernels::set_kernel_mode(KernelMode::Strict);
    guard
}

/// Bit patterns spanning every special f32 class (mirrors the
/// `serialize` roundtrip proptest): ±0, quiet NaN with payload,
/// signalling NaN, ±∞, subnormals.
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

/// A tensor of mostly ordinary values with ~25% special payloads mixed
/// in, so every kernel path sees NaN/∞/subnormal arithmetic.
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

/// Bit view with every NaN mapped to the one canonical quiet NaN: NaN
/// payloads of arithmetic results are unspecified in Rust (see the module
/// docs), everything else — a NaN's position included — compares exactly.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Textbook i-k-j matmul — the parity reference. Ascending-`k`
/// accumulation per output element, exactly the order the tiled,
/// unrolled deployed kernel preserves.
fn matmul_textbook(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows());
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, k)] * b[(k, j)];
            }
        }
    }
    out
}

/// Deployed matmul/tn/nt vs their textbook spellings, bit for bit.
fn check_kernel_family(m: usize, k: usize, n: usize, seed: u64) {
    let ctx = format!("m={m} k={k} n={n} seed={seed}");

    // matmul: m×k · k×n.
    let a = wild_tensor(m, k, seed);
    let b = wild_tensor(k, n, seed ^ 0x5DEECE66);
    let want = matmul_textbook(&a, &b);
    assert_eq!(bits(&a.matmul(&b)), bits(&want), "matmul diverged [{ctx}]");

    // matmul_tn: (k×m)ᵀ · k×n — shared leading dim k.
    let at = wild_tensor(k, m, seed ^ 0xA5A5);
    let want_tn = matmul_textbook(&at.transposed(), &b);
    assert_eq!(
        bits(&at.matmul_tn(&b)),
        bits(&want_tn),
        "matmul_tn diverged [{ctx}]"
    );

    // matmul_nt: m×k · (n×k)ᵀ — shared trailing dim k.
    let w = wild_tensor(n, k, seed ^ 0xC3C3);
    let want_nt = matmul_textbook(&a, &w.transposed());
    assert_eq!(
        bits(&a.matmul_nt(&w)),
        bits(&want_nt),
        "matmul_nt diverged [{ctx}]"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes (zero dims and unroll-straddling widths included) ×
    /// hostile payloads: every deployed kernel matches the textbook bits.
    #[test]
    fn prop_threaded_unrolled_kernels_match_textbook_bitwise(
        m in 0usize..12,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let _strict = pin_strict();
        check_kernel_family(m, k, n, seed);
    }

    /// The fused `Graph::linear` — forward values AND the gradients that
    /// flow back through `matmul_nt` (dx), `matmul_tn` (dW) and the bias
    /// column sum (db) — equals the unfused matmul + broadcast spelling
    /// bit for bit, in **both** kernel modes: the fused op runs the
    /// deployed matmul (one case in four is the policy head's tall-thin
    /// 2×340·340×64).
    #[test]
    fn prop_linear_values_and_grads_bitwise_across_threads(
        m in 1usize..10,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..10_000,
        fast in 0usize..2,
        policy_shape in 0usize..4,
    ) {
        let _exclusive = MODE.write().unwrap_or_else(|e| e.into_inner());
        let mode = if fast == 1 { KernelMode::Fast } else { KernelMode::Strict };
        kernels::set_kernel_mode(mode);
        let (m, k, n) = if policy_shape == 0 { (2, 340, 64) } else { (m, k, n) };
        let mut store = ParamStore::new(seed);
        let x_init = finite_tensor(m, k, seed ^ 0x11);
        let w = store.param("w", finite_tensor(k, n, seed ^ 0x22));
        let b = store.param("b", finite_tensor(1, n, seed ^ 0x33));

        let run = |fused: bool| {
            let mut g = Graph::new(&store);
            let x = g.input(x_init.clone());
            let (wn, bn) = (g.param(w), g.param(b));
            let y = if fused {
                g.linear(x, wn, bn)
            } else {
                let mm = g.matmul(x, wn);
                g.add_row_broadcast(mm, bn)
            };
            let t = g.tanh(y);
            let loss = g.sum_all(t);
            g.backward(loss);
            let grads = g.param_grads();
            (
                bits(g.value(y)),
                bits(g.grad(x).expect("dx")),
                bits(&grads[&w]),
                bits(&grads[&b]),
            )
        };

        prop_assert_eq!(&run(false), &run(true), "{} unfused != fused", mode);
    }
}

/// The deliberate edge shapes, spelled out so a proptest sampling miss
/// can never lose them: empty products, single columns, exact unroll
/// multiples and their off-by-ones, and a tile-boundary straddler.
#[test]
fn edge_shapes_match_textbook_at_every_thread_count() {
    let _strict = pin_strict();
    for &(m, k, n) in &[
        (0usize, 5usize, 3usize), // no output rows
        (4, 0, 3),                // empty reduction
        (3, 7, 1),                // single output column
        (1, 1, 1),
        (2, 3, 8),    // exact unroll width
        (2, 3, 16),   // two unroll blocks
        (5, 9, 7),    // below the unroll width
        (5, 9, 9),    // unroll + 1 tail
        (9, 130, 67), // straddles the 64-wide k/j tiles
    ] {
        check_kernel_family(m, k, n, 1234);
    }
}

/// The two backward kernels against the chain they promise, spelled out:
/// `g·wᵀ` sums each dot product from zero in ascending `k` and only then
/// meets the output; `xᵀ·g` accumulates into the output itself in
/// ascending `k` over the row window. The output starts **non-zero** (and
/// hostile), every block width and its off-by-ones appears as an output
/// width, the reduction runs from empty to longer than a cache tile, and
/// the row windows include the empty and the single-row one — bit for
/// bit.
#[test]
fn backward_kernels_match_their_textbook_chains_on_a_nonzero_output() {
    let _strict = pin_strict();
    const WIDTHS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 48, 340];
    const DEPTHS: [usize; 5] = [0, 1, 32, 65, 384];
    for n in WIDTHS {
        for kd in DEPTHS {
            let seed = (n * 1000 + kd) as u64;

            // nt: out (m×n) += a (m×kd) · bᵀ (b: n×kd).
            let m = 5;
            let a = wild_tensor(m, kd, seed ^ 0x01);
            let b = wild_tensor(n, kd, seed ^ 0x02);
            let start = wild_tensor(m, n, seed ^ 0x03);
            let mut want = start.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for k in 0..kd {
                        s += a[(i, k)] * b[(j, k)];
                    }
                    want[(i, j)] += s;
                }
            }
            let mut got = start.clone();
            a.matmul_nt_accum_into(&b, &mut got);
            assert_eq!(bits(&got), bits(&want), "nt diverged [n={n} kd={kd}]");

            // tn over a row window: out (m×n) += x[r0..r1]ᵀ · g[r0..r1]
            // (x: kd×m, g: kd×n). 19 output rows: one 16-lane block and a
            // scalar tail down a leftover column.
            let m = 19;
            let x = wild_tensor(kd, m, seed ^ 0x04);
            let g = wild_tensor(kd, n, seed ^ 0x05);
            let start = wild_tensor(m, n, seed ^ 0x06);
            let mut windows = vec![(0, kd), (0, 0), (kd / 3, kd)];
            if kd > 0 {
                windows.push((kd / 2, kd / 2 + 1));
            }
            for (r0, r1) in windows {
                let mut want = start.clone();
                for i in 0..m {
                    for j in 0..n {
                        for k in r0..r1 {
                            want[(i, j)] += x[(k, i)] * g[(k, j)];
                        }
                    }
                }
                let mut got = start.clone();
                kernels::matmul_tn_accum(
                    &x.data()[r0 * m..r1 * m],
                    &g.data()[r0 * n..r1 * n],
                    r1 - r0,
                    m,
                    n,
                    got.data_mut(),
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "tn diverged [n={n} kd={kd} rows {r0}..{r1}]"
                );
            }
        }
    }

    // The narrow outputs (score column, policy heads) run lanes down the
    // output rows: every row-block width and its off-by-ones.
    for n in [1usize, 7] {
        for m in [1usize, 7, 8, 9, 16, 17, 40] {
            let (kr, seed) = (23, (n * 100 + m) as u64);
            let x = wild_tensor(kr, m, seed ^ 0x07);
            let g = wild_tensor(kr, n, seed ^ 0x08);
            let start = wild_tensor(m, n, seed ^ 0x09);
            let mut want = start.clone();
            for i in 0..m {
                for j in 0..n {
                    for k in 0..kr {
                        want[(i, j)] += x[(k, i)] * g[(k, j)];
                    }
                }
            }
            let mut got = start.clone();
            x.matmul_tn_accum_into(&g, &mut got);
            assert_eq!(bits(&got), bits(&want), "narrow tn diverged [m={m} n={n}]");
        }
    }
}

/// The segmented weight gradient against what it replaces: per row
/// window, last first, a zeroed partial, the textbook i-k-j `xᵀ·g` over
/// the window into it, then the partial added into the output. The left
/// operand's rows are read through a row list that repeats rows and
/// takes them out of order, as the encoder reads its distinct rows. The
/// output starts non-zero and hostile; windows are ragged, empty at
/// either end and in the middle; `m` straddles the 4-row blocks and `n`
/// every column block, its off-by-ones and the single score column.
#[test]
fn segment_tn_sums_each_window_like_a_zeroed_partial() {
    let _strict = pin_strict();
    let layouts: [&[usize]; 4] = [&[0, 5, 0, 3, 1, 0], &[9], &[1; 7], &[2, 0, 0, 17, 4]];
    for (li, lens) in layouts.iter().enumerate() {
        let segs = Segments::from_lens(lens.iter().copied());
        let bounds: Vec<(usize, usize)> = segs.iter().collect();
        let kr = segs.total_rows();
        for m in [1usize, 3, 4, 5, 7, 8, 9, 12, 19] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 32, 48] {
                let seed = (li * 1_000_000 + m * 1000 + n) as u64;
                // Logical row `k` is stored row `rows[k]` of `x`.
                let stored = kr.div_ceil(2).max(1);
                let rows: Vec<usize> = (0..kr).map(|k| (5 * k + 1) % stored).collect();
                let x = wild_tensor(stored, m, seed ^ 0x0D);
                let g = wild_tensor(kr, n, seed ^ 0x0E);
                let start = wild_tensor(m, n, seed ^ 0x0F);
                let mut want = start.clone();
                for &(r0, r1) in bounds.iter().rev() {
                    if r0 == r1 {
                        continue;
                    }
                    let mut partial = Tensor::zeros(m, n);
                    for i in 0..m {
                        for k in r0..r1 {
                            for j in 0..n {
                                partial[(i, j)] += x[(rows[k], i)] * g[(k, j)];
                            }
                        }
                    }
                    want.add_scaled(&partial, 1.0);
                }
                let mut got = start.clone();
                let mut window = vec![0.0; kr * m];
                kernels::segment_matmul_tn_accum(
                    &bounds,
                    x.data(),
                    &rows,
                    g.data(),
                    m,
                    n,
                    &mut window,
                    got.data_mut(),
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "segment tn diverged [lens={lens:?} m={m} n={n}]"
                );
            }
        }
    }
}

/// The attention-score product's strict side: `row_dots_accum` is the
/// single-column `matmul_accum` — one ascending-`k` chain per row,
/// starting from whatever `out` held — over hostile payloads, reductions
/// from empty to past the lane-split kernel's 32-wide blocks, and row
/// counts from none to a batch of eight loops.
#[test]
fn strict_row_dots_are_the_single_column_matmul_chain() {
    let _strict = pin_strict();
    for kd in [0usize, 1, 7, 8, 31, 32, 33, 64, 340, 341] {
        for m in [0usize, 1, 100, 800] {
            let seed = (kd * 1000 + m) as u64;
            let a = wild_tensor(m, kd, seed ^ 0x0A);
            let v = wild_tensor(kd, 1, seed ^ 0x0B);
            let start = wild_tensor(m, 1, seed ^ 0x0C);
            let mut want = start.clone();
            for i in 0..m {
                for k in 0..kd {
                    want[(i, 0)] += a[(i, k)] * v[(k, 0)];
                }
            }
            let mut got = start.clone();
            kernels::row_dots_accum(a.data(), v.data(), m, kd, got.data_mut());
            assert_eq!(
                bits(&got),
                bits(&want),
                "row dots left the chain [m={m} kd={kd}]"
            );
            let mut column = start.clone();
            kernels::matmul_accum(a.data(), v.data(), m, kd, 1, column.data_mut());
            assert_eq!(bits(&got), bits(&column), "[m={m} kd={kd}]");
        }
    }
}

/// The segment ops (attention softmax + per-segment weighted sum) against
/// their serial spellings: per segment and column a max fold, an
/// exp-and-sum pass and a divide pass in ascending row order, resp. one
/// ascending-row `acc + w·v` chain per pooled element — over hostile
/// payloads too (NaN/∞ propagate identically).
#[test]
fn segment_ops_match_serial_bits_at_every_thread_count() {
    let _strict = pin_strict();
    let store = ParamStore::new(7);
    let layouts: &[(&[usize], usize)] = &[
        (&[5], 3),                      // one segment
        (&[3, 0, 5, 1, 8], 7),          // zero-row segment in the middle
        (&[1; 19], 4),                  // many tiny segments
        (&[0, 0, 6, 2, 0, 9, 1, 4], 1), // single column, empty edges
    ];
    for (i, &(lens, cols)) in layouts.iter().enumerate() {
        let seed = 4242 + i as u64;
        let segs = Segments::from_lens(lens.iter().copied());
        let rows = segs.total_rows();
        let scores = wild_tensor(rows, cols, seed);
        let weights = wild_tensor(rows, 1, seed ^ 0x77);
        let values = wild_tensor(rows, cols, seed ^ 0x88);

        let mut g = Graph::new(&store);
        let sn = g.input(scores.clone());
        let sm = g.segment_softmax_rows(sn, &segs);
        let (w, v) = (g.input(weights.clone()), g.input(values.clone()));
        let ws = g.segment_weighted_sum(w, v, &segs);

        let mut want_sm = scores;
        let mut want_ws = Tensor::zeros(lens.len(), cols);
        for (s, (r0, r1)) in segs.iter().enumerate() {
            for c in 0..cols {
                for r in r0..r1 {
                    want_ws[(s, c)] += weights[(r, 0)] * values[(r, c)];
                }
                if r0 == r1 {
                    continue;
                }
                let max = (r0..r1).fold(f32::NEG_INFINITY, |m, r| m.max(want_sm[(r, c)]));
                let mut sum = 0.0f32;
                for r in r0..r1 {
                    want_sm[(r, c)] = (want_sm[(r, c)] - max).exp();
                    sum += want_sm[(r, c)];
                }
                for r in r0..r1 {
                    want_sm[(r, c)] /= sum;
                }
            }
        }
        let ctx = format!("lens={lens:?} cols={cols}");
        assert_eq!(
            bits(g.value(sm)),
            bits(&want_sm),
            "softmax diverged [{ctx}]"
        );
        assert_eq!(bits(g.value(ws)), bits(&want_ws), "pool diverged [{ctx}]");
    }
}
