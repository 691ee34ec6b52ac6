//! The arithmetic bodies of the kernel family — both modes' — plus fast
//! mode's own algorithms (lane-split dot, rational `tanh`, single-pass
//! online-max softmax).
//!
//! Every loop nest is written once, generic over a [`Madd`] step — the
//! one expression the two numeric contracts disagree on — and
//! instantiated twice:
//!
//! * [`Unfused`], plain `acc + a * b`, **is strict mode**, and is fast
//!   mode on a host without FMA (fast mode's other departures — online
//!   softmax, rational `tanh`, lane-split score dot — still apply
//!   there).
//! * [`Fused`] uses `f32::mul_add`. That intrinsic is only fast when the
//!   compiler can emit a hardware `vfmadd`; without the `fma` target
//!   feature it lowers to the correctly-rounded-but-slow libm `fmaf`. So
//!   the fused instantiations live behind
//!   `#[target_feature(enable = "avx2", enable = "fma")]` wrappers, which
//!   is also where the 8-wide blocks pick up 256-bit vectorization.
//!
//! Strict and fast therefore run the same loop nests — same block
//! shapes, same ascending-`k` chain per output element — and cannot drift
//! apart in loop order. Which instantiation a call runs is a
//! [`MaddChoice`], resolved in one place ([`MaddChoice::current`]) and
//! handed to the kernel's single entry point, which the `kernel!` macro
//! generates; callers never branch between bodies.
//!
//! The FMA detection is made once per process and shared by every
//! kernel: mixed fused/unfused chains inside one process would break the
//! chain-equality arguments the fast test tier relies on (e.g. fast
//! `tn`/`nt` must equal transpose-then-`matmul` bit for bit, which holds
//! only if both picked the same madd).

use std::sync::atomic::{AtomicU8, Ordering};

use super::KernelMode;

/// One multiply-accumulate step — the only thing the two instantiations
/// disagree on.
pub(crate) trait Madd {
    fn madd(a: f32, b: f32, acc: f32) -> f32;
}

/// Hardware-FMA fold (`a.mul_add(b, acc)`, one rounding).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Fused;
impl Madd for Fused {
    #[inline(always)]
    fn madd(a: f32, b: f32, acc: f32) -> f32 {
        a.mul_add(b, acc)
    }
}

/// Plain fold (`acc + a * b`, two roundings) — the strict contract's
/// expression.
pub(crate) struct Unfused;
impl Madd for Unfused {
    #[inline(always)]
    fn madd(a: f32, b: f32, acc: f32) -> f32 {
        acc + a * b
    }
}

/// Whether this process dispatches the [`Fused`] instantiations in fast
/// mode. Decided once (AVX2 + FMA detected at runtime on x86-64; `false`
/// elsewhere) and cached, so every fast kernel in the process agrees.
pub fn fused_available() -> bool {
    static FMA: AtomicU8 = AtomicU8::new(2);
    match FMA.load(Ordering::Relaxed) {
        2 => {
            #[cfg(target_arch = "x86_64")]
            let v = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
            #[cfg(not(target_arch = "x86_64"))]
            let v = false;
            FMA.store(v as u8, Ordering::Relaxed);
            v
        }
        v => v == 1,
    }
}

/// Which instantiation of the bodies a call runs. The field is private to
/// this module so that a fused choice exists only where
/// [`fused_available`] vouched for the CPU — what makes the entry points
/// safe to call with any value of this type.
#[derive(Clone, Copy)]
pub(crate) struct MaddChoice {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fused: bool,
}

impl MaddChoice {
    /// The plain step: strict mode's arithmetic.
    const PLAIN: MaddChoice = MaddChoice { fused: false };

    /// Fast-mode arithmetic whatever the process mode: fused where the CPU
    /// has FMA, plain elsewhere. For fast mode's own algorithms, which have
    /// already read the mode, and for [`super::row_matmul_accum_fast`].
    pub(crate) fn fast() -> Self {
        MaddChoice {
            fused: fused_available(),
        }
    }

    /// The arithmetic of the process's [`KernelMode`] — the one place a
    /// mode picks between the instantiations.
    pub(crate) fn current() -> Self {
        match super::kernel_mode() {
            KernelMode::Strict => Self::PLAIN,
            KernelMode::Fast => Self::fast(),
        }
    }
}

/// `out += a × b` for an `m×kd · kd×n` product — the tiled i-k-j loop
/// with the inner columns run as register accumulator blocks
/// ([`mm_tile_row_g`]).
#[inline(always)]
fn mm_rows_g<M: Madd>(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    const KB: usize = 64;
    const JB: usize = 64;
    let mut kb = 0;
    while kb < kd {
        let k_end = (kb + KB).min(kd);
        let mut jb = 0;
        while jb < n {
            let j_end = (jb + JB).min(n);
            for i in 0..m {
                let a_row = &a[i * kd..(i + 1) * kd];
                let base = i * n;
                mm_tile_row_g::<M>(
                    a_row,
                    b,
                    n,
                    kb,
                    k_end,
                    jb,
                    &mut out[base + jb..base + j_end],
                );
            }
            jb = j_end;
        }
        kb = k_end;
    }
}

/// One row × one `(kb..k_end, jb..)` tile of the right operand. Each
/// block of columns holds its partial sums in explicit `[f32; 8]`
/// register blocks across the whole `k` tile; lanes are independent
/// output elements, and within a lane the products accumulate in
/// ascending `k` — the parity order.
///
/// The main block is 32 columns wide: four independent 8-lane
/// accumulators in flight per `k` step, because a *single* chain is
/// latency-bound (one ~4-cycle add or FMA per step). Column blocking is
/// pure instruction-level parallelism: every output element still folds
/// its own ascending-`k` madd chain, so the block width changes no bits.
#[inline(always)]
fn mm_tile_row_g<M: Madd>(
    a_row: &[f32],
    b: &[f32],
    n: usize,
    kb: usize,
    k_end: usize,
    jb: usize,
    out_tile: &mut [f32],
) {
    let width = out_tile.len();
    let mut j = 0;
    while j + 32 <= width {
        let mut acc = [[0.0f32; 8]; 4];
        for (q, chunk) in out_tile[j..j + 32].chunks_exact(8).enumerate() {
            acc[q].copy_from_slice(chunk);
        }
        for k in kb..k_end {
            let av = a_row[k];
            let base = k * n + jb + j;
            let b_blk = &b[base..base + 32];
            for q in 0..4 {
                for l in 0..8 {
                    acc[q][l] = M::madd(av, b_blk[q * 8 + l], acc[q][l]);
                }
            }
        }
        for (q, chunk) in out_tile[j..j + 32].chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&acc[q]);
        }
        j += 32;
    }
    while j + 8 <= width {
        let mut acc = [0.0f32; 8];
        acc.copy_from_slice(&out_tile[j..j + 8]);
        for k in kb..k_end {
            let av = a_row[k];
            let b_blk = &b[k * n + jb + j..k * n + jb + j + 8];
            acc[0] = M::madd(av, b_blk[0], acc[0]);
            acc[1] = M::madd(av, b_blk[1], acc[1]);
            acc[2] = M::madd(av, b_blk[2], acc[2]);
            acc[3] = M::madd(av, b_blk[3], acc[3]);
            acc[4] = M::madd(av, b_blk[4], acc[4]);
            acc[5] = M::madd(av, b_blk[5], acc[5]);
            acc[6] = M::madd(av, b_blk[6], acc[6]);
            acc[7] = M::madd(av, b_blk[7], acc[7]);
        }
        out_tile[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    while j < width {
        let mut acc = out_tile[j];
        for k in kb..k_end {
            acc = M::madd(a_row[k], b[k * n + jb + j], acc);
        }
        out_tile[j] = acc;
        j += 1;
    }
}

/// `out += aᵀ × b` for `a: kr×m`, `b: kr×n` (`kr` is however many whole
/// rows the slices hold) — the `xᵀ·g` backward kernel.
///
/// Each block of output elements sits in a register accumulator,
/// initialised from `out`, while `k` runs over every row of the window:
/// per element `out = madd(a[k][i], b[k][j], out)` for ascending `k`, with
/// one load and one store of the output instead of one per `k`. Blocks are
/// 16 or 8 adjacent columns of one output row (lanes read a row of `b`);
/// the `n % 8` columns left over — all of them for the `n == 1` score
/// column — run 16 or 8 adjacent output *rows* as lanes instead (lanes
/// read a row of `a`). Lanes never share an accumulator, so the block
/// shape changes no bits. Column blocks are the outer loop, so a block's
/// `kr×16` strip of `b` stays cached while the output rows pass over it.
#[inline(always)]
fn tn_rows_g<M: Madd>(a: &[f32], b: &[f32], m: usize, n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j + 8 <= n {
        let lanes = if j + 16 <= n { 16 } else { 8 };
        for i in 0..m {
            let block = &mut out[i * n + j..i * n + j + lanes];
            match lanes {
                16 => tn_block_j::<M, 16>(a, b, m, n, i, j, block),
                _ => tn_block_j::<M, 8>(a, b, m, n, i, j, block),
            }
        }
        j += lanes;
    }
    for j in j..n {
        let mut i = 0;
        while i + 8 <= m {
            let lanes = if i + 16 <= m { 16 } else { 8 };
            let column = &mut out[i * n + j..];
            match lanes {
                16 => tn_block_i::<M, 16>(a, b, m, n, i, j, column),
                _ => tn_block_i::<M, 8>(a, b, m, n, i, j, column),
            }
            i += lanes;
        }
        for i in i..m {
            let mut acc = out[i * n + j];
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                acc = M::madd(a_row[i], b_row[j], acc);
            }
            out[i * n + j] = acc;
        }
    }
}

/// `out[l] (+)= Σ_k a[k][i]·b[k][j + l]`: `L` adjacent columns of output
/// row `i`, one lane each.
#[inline(always)]
fn tn_block_j<M: Madd, const L: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; L];
    acc.copy_from_slice(out);
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let av = a_row[i];
        let b_blk = &b_row[j..j + L];
        for l in 0..L {
            acc[l] = M::madd(av, b_blk[l], acc[l]);
        }
    }
    out.copy_from_slice(&acc);
}

/// `column[l·n] (+)= Σ_k a[k][i + l]·b[k][j]`: `L` adjacent rows of
/// output column `j` (`column` starts at element `(i, j)`), one lane each.
#[inline(always)]
fn tn_block_i<M: Madd, const L: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    column: &mut [f32],
) {
    let mut acc = [0.0f32; L];
    for l in 0..L {
        acc[l] = column[l * n];
    }
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let bv = b_row[j];
        let a_blk = &a_row[i..i + L];
        for l in 0..L {
            acc[l] = M::madd(a_blk[l], bv, acc[l]);
        }
    }
    for l in 0..L {
        column[l * n] = acc[l];
    }
}

/// Width of the [`pack_nt_panels`] panel that starts at column `j` of
/// `n`: 16 while that many columns remain, then 8, then 4, then single
/// columns.
fn nt_panel_width(j: usize, n: usize) -> usize {
    match n - j {
        16.. => 16,
        8.. => 8,
        4.. => 4,
        _ => 1,
    }
}

/// `bᵀ` in column panels for [`nt_rows`]: the panel covering columns
/// `j..j + L` of the product (rows of `b: n×kd`) is the `kd×L` matrix
/// `panel[k][l] = b[j + l][k]`, stored at offset `j·kd`, so the `L`
/// operands of one `k` step are adjacent. Widths follow
/// [`nt_panel_width`].
pub(crate) fn pack_nt_panels(b: &[f32], kd: usize, n: usize) -> Vec<f32> {
    let mut panels = vec![0.0f32; n * kd];
    let mut j = 0;
    while j < n {
        let lanes = nt_panel_width(j, n);
        let panel = &mut panels[j * kd..(j + lanes) * kd];
        for l in 0..lanes {
            let b_row = &b[(j + l) * kd..(j + l + 1) * kd];
            for (k, &v) in b_row.iter().enumerate() {
                panel[k * lanes + l] = v;
            }
        }
        j += lanes;
    }
    panels
}

/// `out += a × bᵀ` for `a: m×kd`, `b: n×kd` — the `g·wᵀ` backward
/// kernel, over `panels` = [`pack_nt_panels`]`(b)`.
///
/// The 16, 8 or 4 output columns of a panel run as lanes: each lane is
/// one output element's dot product, `s = 0; s = madd(a[i][k], b[j][k], s)`
/// for ascending `k`, then `out[i][j] += s` — the chain a lone scalar dot
/// runs, which is what the one-column panels of the last `n % 4` columns
/// are. Panels are the outer loop, so a panel (`kd×16` floats) stays
/// cached while the rows of `a` stream past it.
#[inline(always)]
fn nt_rows_g<M: Madd>(a: &[f32], panels: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let lanes = nt_panel_width(j, n);
        let panel = &panels[j * kd..(j + lanes) * kd];
        for i in 0..m {
            let a_row = &a[i * kd..(i + 1) * kd];
            let block = &mut out[i * n + j..i * n + j + lanes];
            match lanes {
                16 => nt_block::<M, 16>(a_row, panel, block),
                8 => nt_block::<M, 8>(a_row, panel, block),
                4 => nt_block::<M, 4>(a_row, panel, block),
                _ => nt_block::<M, 1>(a_row, panel, block),
            }
        }
        j += lanes;
    }
}

/// `out[l] += Σ_k a_row[k]·panel[k][l]`, each lane summed from zero in
/// ascending `k` before it meets `out`.
#[inline(always)]
fn nt_block<M: Madd, const L: usize>(a_row: &[f32], panel: &[f32], out: &mut [f32]) {
    let mut s = [0.0f32; L];
    for (&av, p) in a_row.iter().zip(panel.chunks_exact(L)) {
        for l in 0..L {
            s[l] = M::madd(av, p[l], s[l]);
        }
    }
    for l in 0..L {
        out[l] += s[l];
    }
}

/// `out_row += Σ_r alpha[r] · x[r, :]` over rows `r0..r1` of `x` — the
/// attention-pooling body (madd fold in ascending `r`).
#[inline(always)]
fn weighted_sum_g<M: Madd>(
    alpha: &[f32],
    x: &[f32],
    d: usize,
    r0: usize,
    r1: usize,
    out_row: &mut [f32],
) {
    for r in r0..r1 {
        let av = alpha[r];
        let x_row = &x[r * d..(r + 1) * d];
        for (o, &xv) in out_row.iter_mut().zip(x_row.iter()) {
            *o = M::madd(av, xv, *o);
        }
    }
}

/// Madd-fold dot product in ascending index order — the chain of one
/// `nt` output element, used by segment backward passes so their
/// per-row dots stay bitwise-equal to the per-sample `matmul_nt` chain.
#[inline(always)]
fn dot_g<M: Madd>(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc = M::madd(x, y, acc);
    }
    acc
}

/// `out[r] += a[r] · v` for every row of `a` (`kd` wide, one per element
/// of `out`), each dot by [`lane_dot_g`].
#[inline(always)]
fn row_dots_g<M: Madd>(a: &[f32], v: &[f32], kd: usize, out: &mut [f32]) {
    for (r, o) in out.iter_mut().enumerate() {
        *o += lane_dot_g::<M>(&a[r * kd..(r + 1) * kd], v);
    }
}

/// Lane-split dot product — see [`super::row_dots_accum`] for the
/// contract. Element `k` folds into lane `k mod 32` of four 8-wide
/// accumulators (all starting at `+0`, ascending `k` within a lane); the
/// accumulators are added pairwise, `(A₀ + A₁) + (A₂ + A₃)`, and the eight
/// sums by one fixed tree. Which lane an element lands in and how lanes
/// combine depend on `k` alone, never on the slice's address or length
/// class, so the result is a function of the two operands.
///
/// Special values meet exactly as in a single chain, only later: a `NaN`
/// product poisons its lane and every sum above it; `+∞` and `−∞` in
/// different lanes meet in the tree and give `NaN`. Lanes start at `+0`, so
/// a dot whose products are all `−0` totals `+0`.
#[inline(always)]
fn lane_dot_g<M: Madd>(x: &[f32], v: &[f32]) -> f32 {
    let mut acc = [[0.0f32; 8]; 4];
    let mut xc = x.chunks_exact(32);
    let mut vc = v.chunks_exact(32);
    for (xb, vb) in (&mut xc).zip(&mut vc) {
        for q in 0..4 {
            for l in 0..8 {
                acc[q][l] = M::madd(xb[q * 8 + l], vb[q * 8 + l], acc[q][l]);
            }
        }
    }
    // The last `kd mod 32` elements: whole 8-blocks, then a short one,
    // into the lanes their index names.
    let mut rest = xc.remainder().chunks(8).zip(vc.remainder().chunks(8));
    for lanes in acc.iter_mut() {
        let Some((xb, vb)) = rest.next() else { break };
        for ((&xv, &vv), s) in xb.iter().zip(vb).zip(lanes.iter_mut()) {
            *s = M::madd(xv, vv, *s);
        }
    }
    let mut s = [0.0f32; 8];
    for l in 0..8 {
        s[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
    }
    ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

/// Rational `tanh` of every element, in place — see
/// [`super::tanh_inplace`] for the contract. Straight-line code (selects,
/// no branch), so the loop vectorizes.
#[inline(always)]
fn tanh_g<M: Madd>(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = tanh_one::<M>(*x);
    }
}

/// `tanh(x) ≈ c·P(c²) / Q(c²)` with `c` = `x` clamped to ±9: the
/// (13, 6) minimax rational Eigen and XLA ship for `float` (Eigen's
/// `generic_fast_tanh_float`; the coefficients below are its α₁…α₁₃ and
/// β₀…β₆), both polynomials by Horner from the highest degree, one
/// division.
///
/// * The numerator is odd in `c` and the denominator even, so the
///   quotient is exactly odd and `−0 → −0`.
/// * The clamp is ±9.0, not Eigen's 7.905: there the fit still reads
///   `0.99999976`, which is what `tanh(∞)` would return; at 9.0 it reads
///   exactly 1, so every `|x| ≥ 9` — `±∞` included — gives `±1`.
/// * The quotient is clamped to [−1, 1]: unclamped it rounds to
///   `1.0000001` for tens of thousands of inputs from about 8.05 up,
///   and `|tanh| ≤ 1` is part of the contract.
/// * Below 0.0004 `x` is returned: it is within an ulp of `tanh(x)`
///   there (they differ by `x³/3`), while the quotient's numerator
///   underflows for subnormals, which must come back unchanged.
///
/// Every select keeps its operand when the comparison fails, so `NaN`
/// passes both clamps and the small-`x` test and comes out of the
/// division.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the coefficients as published
fn tanh_one<M: Madd>(x: f32) -> f32 {
    let c = if x > 9.0 { 9.0 } else { x };
    let c = if c < -9.0 { -9.0 } else { c };
    let z = c * c;

    let mut p = -2.76076847742355e-16f32;
    p = M::madd(p, z, 2.00018790482477e-13);
    p = M::madd(p, z, -8.60467152213735e-11);
    p = M::madd(p, z, 5.12229709037114e-08);
    p = M::madd(p, z, 1.48572235717979e-05);
    p = M::madd(p, z, 6.37261928875436e-04);
    p = M::madd(p, z, 4.89352455891786e-03);

    let mut q = 1.19825839466702e-06f32;
    q = M::madd(q, z, 1.18534705686654e-04);
    q = M::madd(q, z, 2.26843463243900e-03);
    q = M::madd(q, z, 4.89352518554385e-03);

    let y = c * p / q;
    let y = if y > 1.0 { 1.0 } else { y };
    let y = if y < -1.0 { -1.0 } else { y };
    if x.abs() < 0.0004 {
        x
    } else {
        y
    }
}

// --- Entry points -------------------------------------------------------

/// Generates a kernel's one entry point from its generic body: the
/// [`Unfused`] instantiation, compiled at the crate's baseline target, and
/// on x86-64 the [`Fused`] one inside a `#[target_feature]` function —
/// where the `#[inline(always)]` body picks up hardware `vfmadd` codegen
/// and 256-bit vectorization of the 8-wide blocks — selected by the
/// caller's [`MaddChoice`].
macro_rules! kernel {
    (
        $(#[$doc:meta])*
        $name:ident = $generic:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
    ) => {
        $(#[$doc])*
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        pub(crate) fn $name(madd: MaddChoice, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if madd.fused {
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn fused($($arg: $ty),*) $(-> $ret)? {
                    $generic::<Fused>($($arg),*)
                }
                // SAFETY: `fused` is set only by `MaddChoice::fast`, after
                // `fused_available` verified avx2+fma on this CPU.
                return unsafe { fused($($arg),*) };
            }
            $generic::<Unfused>($($arg),*)
        }
    };
}

kernel! {
    /// `out += a × b` ([`mm_rows_g`]).
    mm_rows = mm_rows_g(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32])
}
kernel! {
    /// `out += aᵀ × b` ([`tn_rows_g`]).
    tn_rows = tn_rows_g(a: &[f32], b: &[f32], m: usize, n: usize, out: &mut [f32])
}
kernel! {
    /// `out += a × bᵀ` over `panels` = [`pack_nt_panels`]`(b)`
    /// ([`nt_rows_g`]).
    nt_rows = nt_rows_g(
        a: &[f32], panels: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32],
    )
}
kernel! {
    /// `out_row += Σ_r alpha[r] · x[r, :]` for `r` in `r0..r1`
    /// ([`weighted_sum_g`]).
    weighted_sum = weighted_sum_g(
        alpha: &[f32], x: &[f32], d: usize, r0: usize, r1: usize, out_row: &mut [f32],
    )
}
kernel! {
    /// Ascending madd-fold dot product ([`dot_g`]).
    dot = dot_g(a: &[f32], b: &[f32]) -> f32
}
kernel! {
    /// `out[r] += a[r] · v`, lane-split ([`row_dots_g`]) — fast mode only.
    row_dots = row_dots_g(a: &[f32], v: &[f32], kd: usize, out: &mut [f32])
}
kernel! {
    /// Rational `tanh` in place ([`tanh_g`]) — fast mode only.
    tanh = tanh_g(xs: &mut [f32])
}

/// Single-pass online-max softmax over the strided column
/// `buf[start + i·stride]`, `i` in `0..count` — one data pass for max and
/// sum together, then one scaling pass, instead of strict's separate
/// max / exp-sum / divide passes.
///
/// Special values propagate exactly as in the strict three-pass kernel:
///
/// * a `NaN` element poisons the running sum (every output `NaN`, like
///   strict, whose `NaN`-skipping max fold still hits `exp(NaN)`);
/// * a `+∞` element drives `m` to `+∞`, so its own contribution is
///   `exp(∞−∞) = NaN` (every output `NaN`, like strict);
/// * `−∞` elements are *skipped* by the sum update — they contribute
///   `exp(−∞) = 0` in strict, and skipping (rather than folding
///   `exp(m_old − x) = exp(NaN)` when the running max is still `−∞`)
///   keeps an all-`−∞` prefix from spuriously poisoning a finite row;
/// * an all-`−∞` (or empty) column leaves `sum = 0`, and the output pass
///   produces `exp(−∞ − −∞) · ∞ = NaN` — strict's `0/0` on such rows.
///
/// The two `if`s must stay separate and in this order: the current
/// element's own contribution has to be computed *after* the max update
/// so it is `exp(x − x) = 1` for a new maximum (or `NaN` for `+∞`).
pub(crate) fn online_softmax_strided(buf: &mut [f32], start: usize, stride: usize, count: usize) {
    let mut m = f32::NEG_INFINITY;
    let mut sum = 0.0f32;
    for i in 0..count {
        let x = buf[start + i * stride];
        if x > m {
            sum *= (m - x).exp();
            m = x;
        }
        if x != f32::NEG_INFINITY {
            sum += (x - m).exp();
        }
    }
    let inv = 1.0 / sum;
    for i in 0..count {
        let idx = start + i * stride;
        buf[idx] = (buf[idx] - m).exp() * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_softmax(xs: &[f32]) -> Vec<f32> {
        // The strict kernel's exact shape: NaN-skipping max fold, then
        // exp-sum, then divide.
        let m = xs.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
        let exps: Vec<f32> = xs.iter().map(|&x| (x - m).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&e| e / sum).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn online_softmax_matches_strict_on_special_rows() {
        let rows: &[&[f32]] = &[
            &[1.0, 2.0, 3.0],
            &[5.0],
            &[],
            &[f32::NAN, 1.0, 2.0],
            &[1.0, f32::INFINITY, 2.0],
            &[f32::INFINITY, 5.0],
            &[f32::NEG_INFINITY, 5.0, 6.0],
            &[5.0, f32::NEG_INFINITY],
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[f32::NAN, f32::INFINITY],
            &[f32::NEG_INFINITY, f32::INFINITY],
            &[-1e30, 1e30, 0.0],
        ];
        for row in rows {
            let strict = strict_softmax(row);
            let mut fast = row.to_vec();
            let count = fast.len();
            online_softmax_strided(&mut fast, 0, 1, count);
            for (i, (&f, &s)) in fast.iter().zip(strict.iter()).enumerate() {
                assert_eq!(
                    f.is_nan(),
                    s.is_nan(),
                    "NaN-ness diverged at {i} for {row:?}: fast={f} strict={s}"
                );
                if !f.is_nan() {
                    assert!(
                        (f - s).abs() <= 1e-6,
                        "value diverged at {i} for {row:?}: fast={f} strict={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn online_softmax_respects_stride() {
        // Two interleaved columns: softmax each independently.
        let mut buf = vec![1.0f32, 10.0, 2.0, 20.0, 3.0, 30.0];
        online_softmax_strided(&mut buf, 0, 2, 3);
        online_softmax_strided(&mut buf, 1, 2, 3);
        let c0 = strict_softmax(&[1.0, 2.0, 3.0]);
        let c1 = strict_softmax(&[10.0, 20.0, 30.0]);
        for i in 0..3 {
            assert!((buf[2 * i] - c0[i]).abs() <= 1e-6);
            assert!((buf[2 * i + 1] - c1[i]).abs() <= 1e-6);
        }
    }

    /// Worst bit distance of the rational `tanh` from the correctly
    /// rounded value — what the exhaustive scan below finds for each
    /// instantiation (the plain one rounds twice per Horner step).
    const FUSED_TANH_MAX_ULPS: u32 = 5;
    const PLAIN_TANH_MAX_ULPS: u32 = 7;

    /// Bit distances of a `tanh` body from the correctly rounded values:
    /// `hist[d]` elements were `d` ulp away, the last of the farthest at
    /// `worst_at`.
    #[derive(Default)]
    struct UlpTally {
        hist: Vec<u64>,
        worst_at: f32,
    }

    impl UlpTally {
        /// Runs non-negative `xs` and their negations through the body
        /// `madd` names, tallies each result's distance from `exact` (the
        /// correctly rounded values) and holds it to the rest of the
        /// contract: at most 1, exactly odd.
        fn add(&mut self, madd: MaddChoice, xs: &[f32], exact: &[f32]) {
            let mut ys = xs.to_vec();
            tanh(madd, &mut ys);
            let mut negated: Vec<f32> = xs.iter().map(|x| -x).collect();
            tanh(madd, &mut negated);
            for (((&x, &y), &ny), &exact) in xs.iter().zip(&ys).zip(&negated).zip(exact) {
                assert!(y <= 1.0, "tanh({x:e}) = {y:e} exceeds 1");
                assert_eq!(ny.to_bits(), (-y).to_bits(), "tanh(-{x:e}) != -tanh({x:e})");
                let ulps = y.to_bits().abs_diff(exact.to_bits()) as usize;
                if ulps >= self.hist.len() {
                    self.hist.resize(ulps + 1, 0);
                    self.worst_at = x;
                }
                self.hist[ulps] += 1;
            }
        }

        fn worst(&self) -> u32 {
            self.hist.len() as u32 - 1
        }
    }

    fn correctly_rounded_tanh(xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| (x as f64).tanh() as f32).collect()
    }

    /// The public entry dispatches one instantiation per host (and
    /// `tests/fast_parity.rs` sweeps that one); the plain-madd body must
    /// honour the same bound on hosts without FMA, so it is held to it
    /// here, where it can be named.
    #[test]
    fn plain_madd_tanh_body_is_within_seven_ulps() {
        let mut xs: Vec<f32> = (0..=96_000).map(|i| i as f32 * 1.25e-4).collect();
        // Every binade from the clamp down through the subnormals.
        xs.extend(
            (1..0x4120_0000u32)
                .step_by(0x0008_0000 / 3)
                .map(f32::from_bits),
        );
        // Either side of the pass-through threshold and of the clamp.
        for edge in [0.0004f32, 9.0] {
            xs.extend((edge.to_bits() - 2..=edge.to_bits() + 2).map(f32::from_bits));
        }
        xs.extend([9.1, 40.0]);
        let mut tally = UlpTally::default();
        tally.add(MaddChoice::PLAIN, &xs, &correctly_rounded_tanh(&xs));
        assert!(
            tally.worst() <= PLAIN_TANH_MAX_ULPS,
            "{} ulp at {:e}",
            tally.worst(),
            tally.worst_at
        );
    }

    /// Where the two bounds come from: every positive `f32` below 9.1
    /// (from there on the result is exactly 1) through each instantiation
    /// this host can run, with the ulp histograms printed.
    #[test]
    #[ignore = "1.1e9 values, a minute in release: run with --release -- --ignored"]
    fn tanh_bodies_attain_their_bounds_over_every_float_below_the_clamp() {
        let mut bodies = vec![(
            "plain",
            MaddChoice::PLAIN,
            PLAIN_TANH_MAX_ULPS,
            UlpTally::default(),
        )];
        if fused_available() {
            bodies.push((
                "fused",
                MaddChoice::fast(),
                FUSED_TANH_MAX_ULPS,
                UlpTally::default(),
            ));
        }
        let end = 9.1f32.to_bits();
        for lo in (1..end).step_by(1 << 16) {
            let xs: Vec<f32> = (lo..end.min(lo + (1 << 16))).map(f32::from_bits).collect();
            let exact = correctly_rounded_tanh(&xs);
            for (_, madd, _, tally) in bodies.iter_mut() {
                tally.add(*madd, &xs, &exact);
            }
        }
        for (name, _, _, tally) in &bodies {
            println!(
                "{name} tanh: values at 0, 1, … ulp {:?}, worst at {:e}",
                tally.hist, tally.worst_at
            );
        }
        for (name, _, bound, tally) in &bodies {
            assert_eq!(tally.worst(), *bound, "{name}");
        }
    }

    #[test]
    fn fast_matmul_families_are_close_to_strict_and_internally_deterministic() {
        let (m, kd, n) = (5usize, 17usize, 9usize);
        let a: Vec<f32> = (0..m * kd).map(|i| ((i as f32) * 0.37).sin()).collect();
        let b: Vec<f32> = (0..kd * n).map(|i| ((i as f32) * 0.71).cos()).collect();
        let mut strict = vec![0.0f32; m * n];
        mm_rows(MaddChoice::PLAIN, &a, &b, m, kd, n, &mut strict);
        let mut fast = vec![0.0f32; m * n];
        mm_rows(MaddChoice::fast(), &a, &b, m, kd, n, &mut fast);
        for (f, s) in fast.iter().zip(strict.iter()) {
            assert!((f - s).abs() <= 1e-4 * s.abs().max(1.0));
        }
        // The dispatch is stable: a second call reproduces the same bits.
        let mut again = vec![0.0f32; m * n];
        mm_rows(MaddChoice::fast(), &a, &b, m, kd, n, &mut again);
        assert_eq!(bits(&fast), bits(&again));
    }
}
