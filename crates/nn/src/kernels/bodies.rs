//! The arithmetic bodies of the kernel family — both modes' — plus
//! strict mode's `tanh` (fdlibm's `tanhf`, branch-free so that it runs in
//! lanes) and fast mode's own algorithms (lane-split dot, rational
//! `tanh`, single-pass online-max softmax).
//!
//! Every loop nest is written once, generic over a `Madd` step — the
//! one expression the two numeric contracts disagree on — and compiled
//! three times (the `MaddChoice`s):
//!
//! * `Unfused`, plain `acc + a * b`, **is strict mode**, and is fast
//!   mode on a host without FMA (fast mode's other departures — online
//!   softmax, rational `tanh`, lane-split score dot — still apply
//!   there). It is instantiated twice: inside a
//!   `#[target_feature(enable = "avx2")]` wrapper, where the 8- to
//!   32-wide register blocks become 256-bit vectors, which is what runs
//!   wherever the CPU has AVX2; and at the crate's baseline target
//!   (128-bit SSE2 on x86-64), the fallback for a CPU without AVX2 and
//!   for other architectures. The two compute the same bits: Rust never
//!   contracts `acc + a * b` into an FMA, and lanes never share an
//!   accumulator, so the vector width changes no element's chain (the
//!   unit test `plain_instantiations_are_bit_equal` holds them to it).
//! * `Fused` uses `f32::mul_add`. That intrinsic is only fast when the
//!   compiler can emit a hardware `vfmadd`; without the `fma` target
//!   feature it lowers to the correctly-rounded-but-slow libm `fmaf`. So
//!   the fused instantiation lives behind
//!   `#[target_feature(enable = "avx2", enable = "fma")]` wrappers.
//!
//! One kernel has a fourth build: fast mode's context-row pass
//! (`context_row_g`, the encoder's `(S + P) + E`, `tanh` and score) is
//! declared `wide`, and its `Fused` instantiation is compiled a second
//! time under `#[target_feature(enable = "avx512f", enable = "avx2",
//! enable = "fma")]`, which runs where the CPU has AVX-512F
//! (`Isa::Avx512Fma`). Its bits are the AVX2+FMA build's for the same
//! reasons as above: `mul_add` is explicit and nothing else is contracted
//! or reassociated, and no lane shares an accumulator, so 16-wide vectors
//! change no element's arithmetic (the unit test
//! `context_row_avx512_build_equals_the_avx2_build` holds them to it).
//! The row is `tanh`-bound at 256 bits — port-bound on the rational
//! body's madds and division — so only there does the width pay; the
//! other kernels run their AVX2+FMA build on such a CPU.
//!
//! Strict and fast therefore run the same loop nests — same block
//! shapes, same ascending-`k` chain per output element — and cannot drift
//! apart in loop order. Which instantiation a call runs is a
//! `MaddChoice`, resolved in one place (`MaddChoice::current`) and
//! handed to the kernel's single entry point, which the `kernel!` macro
//! generates; callers never branch between bodies.
//!
//! The CPU detection is made once per process and shared by every
//! kernel: mixed fused/unfused chains inside one process would break the
//! chain-equality arguments the fast test tier relies on (e.g. fast
//! `tn`/`nt` must equal transpose-then-`matmul` bit for bit, which holds
//! only if both picked the same madd).

use std::sync::atomic::{AtomicU8, Ordering};

use super::KernelMode;

/// One multiply-accumulate step — the only thing the two arithmetics
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

/// The instruction sets a kernel instantiation is compiled for, widest
/// last — what the CPU offers ([`host_isa`]) and what a [`MaddChoice`]
/// runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    /// The crate's compile target: [`Unfused`] at 128-bit SSE2 width on
    /// x86-64.
    Baseline,
    /// [`Unfused`] under `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// [`Fused`] under `#[target_feature(enable = "avx2", enable = "fma")]`.
    Avx2Fma,
    /// [`Avx2Fma`](Isa::Avx2Fma) on a CPU that also has AVX-512F: the
    /// kernels generated with `wide` run [`Fused`] under
    /// `#[target_feature(enable = "avx512f", enable = "avx2", enable =
    /// "fma")]`, every other kernel its `Avx2Fma` build. Same bits.
    Avx512Fma,
}

/// The widest [`Isa`] this CPU runs: detected at runtime on x86-64 (AVX2,
/// then FMA on top, then AVX-512F on top of both), [`Isa::Baseline`]
/// elsewhere. Decided once and cached, so every kernel in the process
/// agrees.
fn host_isa() -> Isa {
    static ISA: AtomicU8 = AtomicU8::new(u8::MAX);
    match ISA.load(Ordering::Relaxed) {
        0 => Isa::Baseline,
        1 => Isa::Avx2,
        2 => Isa::Avx2Fma,
        3 => Isa::Avx512Fma,
        _ => {
            #[cfg(target_arch = "x86_64")]
            let isa = match (
                std::is_x86_feature_detected!("avx2"),
                std::is_x86_feature_detected!("fma"),
                std::is_x86_feature_detected!("avx512f"),
            ) {
                (true, true, true) => Isa::Avx512Fma,
                (true, true, false) => Isa::Avx2Fma,
                (true, false, _) => Isa::Avx2,
                (false, _, _) => Isa::Baseline,
            };
            #[cfg(not(target_arch = "x86_64"))]
            let isa = Isa::Baseline;
            ISA.store(isa as u8, Ordering::Relaxed);
            isa
        }
    }
}

/// Whether this process dispatches the `Fused` instantiations in fast
/// mode: the CPU has AVX2 and FMA (detected once, on x86-64; `false`
/// elsewhere).
pub fn fused_available() -> bool {
    host_isa() >= Isa::Avx2Fma
}

/// Which instantiation of the bodies a call runs. The field is private to
/// this module so that an AVX2 or fused choice exists only where
/// [`host_isa`] vouched for the CPU — what makes the entry points safe to
/// call with any value of this type.
#[derive(Clone, Copy)]
pub(crate) struct MaddChoice {
    isa: Isa,
}

impl MaddChoice {
    /// The plain step — strict mode's arithmetic — at the widest
    /// instantiation this CPU runs.
    fn plain() -> Self {
        MaddChoice {
            isa: host_isa().min(Isa::Avx2),
        }
    }

    /// Fast-mode arithmetic whatever the process mode: fused where the CPU
    /// has FMA, plain elsewhere. For fast mode's own algorithms, which have
    /// already read the mode, and for [`super::row_matmul_accum_fast`].
    pub(crate) fn fast() -> Self {
        MaddChoice { isa: host_isa() }
    }

    /// The arithmetic of the process's [`KernelMode`] — the one place a
    /// mode picks between the instantiations.
    pub(crate) fn current() -> Self {
        match super::kernel_mode() {
            KernelMode::Strict => Self::plain(),
            KernelMode::Fast => Self::fast(),
        }
    }

    /// The bit contract this choice runs, as [`super::kernel_isa`]
    /// reports it: the AVX-512 build of the `wide` kernels is the
    /// `"avx2+fma"` arithmetic at another width.
    pub(crate) fn name(self) -> &'static str {
        match self.isa {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx2Fma | Isa::Avx512Fma => "avx2+fma",
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
        // `k` also picks the row of `b`; this loop shape is what
        // vectorizes, and its order is what the strict bits pin.
        #[allow(clippy::needless_range_loop)]
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
/// rows the slices hold) — the `xᵀ·g` backward kernel: [`tn_window_g`]
/// with every lane starting from `out`.
#[inline(always)]
fn tn_rows_g<M: Madd>(a: &[f32], b: &[f32], m: usize, n: usize, out: &mut [f32]) {
    tn_window_g::<M, false>(a, b, m, n, out);
}

/// `out += Σ_s a[s]ᵀ × b[s]` over the row windows `bounds` of a `kr`-row
/// left operand whose logical row `k` is stored row `rows[k]` of `a` (any
/// number of `m`-wide rows) and `b: kr×n`, taken in **reverse** order —
/// the encoder's weight gradients. Each window's rows are copied into
/// `window` (at least the widest window's rows × `m`), a few kilobytes
/// that stay in cache while the loop nest passes over them, and its
/// product is summed from `+0` in registers and added into `out` once
/// ([`tn_window_g`]): per element, exactly "zero a partial, run the
/// window's `tn` into it, add it to `out`", window by window from the
/// last. Empty windows add nothing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn segment_tn_rows_g<M: Madd>(
    bounds: &[(usize, usize)],
    a: &[f32],
    rows: &[usize],
    b: &[f32],
    m: usize,
    n: usize,
    window: &mut [f32],
    out: &mut [f32],
) {
    for &(r0, r1) in bounds.iter().rev() {
        if r0 < r1 && m > 0 {
            let local = &mut window[..(r1 - r0) * m];
            for (dst, &r) in local.chunks_exact_mut(m).zip(&rows[r0..r1]) {
                dst.copy_from_slice(&a[r * m..(r + 1) * m]);
            }
            tn_window_g::<M, true>(local, &b[r0 * n..r1 * n], m, n, out);
        }
    }
}

/// The `tn` loop nest over one row window. Each block of output elements
/// sits in register accumulators while `k` runs over every row of the
/// window: per element `acc = madd(a[k][i], b[k][j], acc)` for ascending
/// `k`. With `FROM_ZERO` false the lanes start from `out` and are stored
/// back (`out` *is* the chain); with it true they start from `+0` and are
/// then added into `out` (`out += chain`).
///
/// Blocks are 4 output rows × 16 or 8 adjacent columns (lanes read a row
/// of `b`; eight independent 8-wide accumulators in flight), then single
/// rows for the `m % 4` left over; the `n % 8` columns left over — all of
/// them for the `n == 1` score column — run 16 or 8 adjacent output
/// *rows* as lanes instead (lanes read a row of `a`). Lanes never share an
/// accumulator, so the block shape changes no bits. Column blocks are the
/// outer loop, so a block's `kr×16` strip of `b` stays cached while the
/// output rows pass over it.
#[inline(always)]
fn tn_window_g<M: Madd, const FROM_ZERO: bool>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 8 <= n {
        let lanes = if j + 16 <= n { 16 } else { 8 };
        let mut i = 0;
        while i + 4 <= m {
            match lanes {
                16 => tn_block_j::<M, 4, 16, FROM_ZERO>(a, b, m, n, i, j, out),
                _ => tn_block_j::<M, 4, 8, FROM_ZERO>(a, b, m, n, i, j, out),
            }
            i += 4;
        }
        for i in i..m {
            match lanes {
                16 => tn_block_j::<M, 1, 16, FROM_ZERO>(a, b, m, n, i, j, out),
                _ => tn_block_j::<M, 1, 8, FROM_ZERO>(a, b, m, n, i, j, out),
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
                16 => tn_block_i::<M, 16, FROM_ZERO>(a, b, m, n, i, j, column),
                _ => tn_block_i::<M, 8, FROM_ZERO>(a, b, m, n, i, j, column),
            }
            i += lanes;
        }
        for i in i..m {
            let mut acc = if FROM_ZERO { 0.0 } else { out[i * n + j] };
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                acc = M::madd(a_row[i], b_row[j], acc);
            }
            out[i * n + j] = if FROM_ZERO { out[i * n + j] + acc } else { acc };
        }
    }
}

/// `out[i + r][j + l] (+)= Σ_k a[k][i + r]·b[k][j + l]`: `R` adjacent
/// output rows × `L` adjacent columns, one lane each.
#[inline(always)]
fn tn_block_j<M: Madd, const R: usize, const L: usize, const FROM_ZERO: bool>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; L]; R];
    if !FROM_ZERO {
        for (r, lanes) in acc.iter_mut().enumerate() {
            lanes.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + L]);
        }
    }
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let a_blk = &a_row[i..i + R];
        let b_blk = &b_row[j..j + L];
        for r in 0..R {
            for l in 0..L {
                acc[r][l] = M::madd(a_blk[r], b_blk[l], acc[r][l]);
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let o = &mut out[(i + r) * n + j..(i + r) * n + j + L];
        if FROM_ZERO {
            for l in 0..L {
                o[l] += lanes[l];
            }
        } else {
            o.copy_from_slice(lanes);
        }
    }
}

/// `column[l·n] (+)= Σ_k a[k][i + l]·b[k][j]`: `L` adjacent rows of
/// output column `j` (`column` starts at element `(i, j)`), one lane each.
#[inline(always)]
fn tn_block_i<M: Madd, const L: usize, const FROM_ZERO: bool>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    column: &mut [f32],
) {
    let mut acc = [0.0f32; L];
    if !FROM_ZERO {
        for l in 0..L {
            acc[l] = column[l * n];
        }
    }
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let bv = b_row[j];
        let a_blk = &a_row[i..i + L];
        for l in 0..L {
            acc[l] = M::madd(a_blk[l], bv, acc[l]);
        }
    }
    for l in 0..L {
        column[l * n] = if FROM_ZERO {
            column[l * n] + acc[l]
        } else {
            acc[l]
        };
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

/// `out_row += Σ_r alpha[r] · x_row(r)` over rows `r0..r1` — the
/// attention-pooling body (madd fold in ascending `r`), wherever row `r`
/// of the values lies.
///
/// The output row is taken in blocks of [`POOL_BLOCK`] columns held in
/// register accumulators while every row of the segment folds into them,
/// so each block is loaded and stored once per segment rather than once
/// per row; the last `d mod POOL_BLOCK` columns fold row by row in
/// memory. Every element still folds the rows in ascending `r` from its
/// own value, so the blocking changes no bits.
#[inline(always)]
fn pool_g<'x, M: Madd>(
    alpha: &[f32],
    r0: usize,
    r1: usize,
    x_row: impl Fn(usize) -> &'x [f32],
    out_row: &mut [f32],
) {
    let weights = || (r0..r1).zip(&alpha[r0..r1]);
    let split = out_row.len() - out_row.len() % POOL_BLOCK;
    let (blocks, tail) = out_row.split_at_mut(split);
    for (b, block) in blocks.chunks_exact_mut(POOL_BLOCK).enumerate() {
        let j = b * POOL_BLOCK;
        let mut acc = [0.0f32; POOL_BLOCK];
        acc.copy_from_slice(block);
        for (r, &av) in weights() {
            let xb = &x_row(r)[j..j + POOL_BLOCK];
            for l in 0..POOL_BLOCK {
                acc[l] = M::madd(av, xb[l], acc[l]);
            }
        }
        block.copy_from_slice(&acc);
    }
    for (r, &av) in weights() {
        for (o, &xv) in tail.iter_mut().zip(&x_row(r)[split..]) {
            *o = M::madd(av, xv, *o);
        }
    }
}

/// Columns of one [`pool_g`] register block: eight 256-bit accumulators.
const POOL_BLOCK: usize = 64;

/// [`pool_g`] over the rows `r0..r1` of `x`.
#[inline(always)]
fn weighted_sum_g<M: Madd>(
    alpha: &[f32],
    x: &[f32],
    d: usize,
    r0: usize,
    r1: usize,
    out_row: &mut [f32],
) {
    pool_g::<M>(alpha, r0, r1, |r| &x[r * d..(r + 1) * d], out_row);
}

/// [`pool_g`] with row `r` of the values at row `rows[r]` of `x`.
#[inline(always)]
fn weighted_sum_via_g<M: Madd>(
    alpha: &[f32],
    x: &[f32],
    rows: &[usize],
    d: usize,
    r0: usize,
    r1: usize,
    out_row: &mut [f32],
) {
    pool_g::<M>(
        alpha,
        r0,
        r1,
        |r| &x[rows[r] * d..(rows[r] + 1) * d],
        out_row,
    );
}

/// The path-attention encoder's row-wise backward, segment by segment
/// (see [`super::attention_backward_rows`] for the contract). For
/// segment `s` with upstream row `g[s]` and each of its context rows `r`,
/// whose `tanh` output is `y = c[rows[r]]`:
///
/// 1. `dα[r] = dot(g[s], y)` — the pool's weight gradient, a chain from
///    `+0` ([`dot_g`]);
/// 2. the segment softmax's backward, as the tape spells it:
///    `dot = Σ dα·α`, then `gs[r] = α[r]·(dα[r] − dot)`;
/// 3. per element `gproj[r][j] = ((α[r]·g[s][j]) + (0 + madd(gs[r],
///    attn[j], 0))) · (1 − y[j]·y[j])` — the pool's value gradient plus
///    the score product's `nt` gradient (a one-step chain from `+0` added
///    to a zeroed output), through `tanh`'s derivative.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn attention_backward_g<M: Madd>(
    bounds: &[(usize, usize)],
    rows: &[usize],
    alpha: &[f32],
    g: &[f32],
    c: &[f32],
    attn: &[f32],
    gs: &mut [f32],
    gproj: &mut [f32],
) {
    let code = attn.len();
    let y_of = |r: usize| &c[rows[r] * code..(rows[r] + 1) * code];
    for (s, &(r0, r1)) in bounds.iter().enumerate() {
        let g_row = &g[s * code..(s + 1) * code];
        // `r` also picks the row of `c`; the order is what the strict bits
        // pin.
        #[allow(clippy::needless_range_loop)]
        for r in r0..r1 {
            gs[r] = dot_g::<M>(g_row, y_of(r));
        }
        let dot: f32 = (r0..r1).map(|r| gs[r] * alpha[r]).sum();
        for r in r0..r1 {
            gs[r] = alpha[r] * (gs[r] - dot);
        }
        for r in r0..r1 {
            let (a, d) = (alpha[r], gs[r]);
            let out = &mut gproj[r * code..(r + 1) * code];
            for (((o, &gx), &w), &y) in out.iter_mut().zip(g_row).zip(attn).zip(y_of(r)) {
                *o = (a * gx + (0.0 + M::madd(d, w, 0.0))) * (1.0 - y * y);
            }
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

/// One context row of fast mode's encoder forward — see
/// [`super::context_row_fast`] for the contract: `out = (s + p) + e`
/// elementwise, then [`tanh_g`] over it, then the row's attention score
/// `+0 + `[`lane_dot_g`]`(out, attn)`, the value [`row_dots_g`] adds into
/// a zeroed score. Three sub-passes over one row, which stays in L1
/// between them; each element's arithmetic is that of the whole-buffer
/// passes it replaces.
#[inline(always)]
fn context_row_g<M: Madd>(s: &[f32], p: &[f32], e: &[f32], attn: &[f32], out: &mut [f32]) -> f32 {
    for (((o, &x), &y), &z) in out.iter_mut().zip(s).zip(p).zip(e) {
        *o = (x + y) + z;
    }
    tanh_g::<M>(out);
    0.0 + lane_dot_g::<M>(out, attn)
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

/// Strict `tanh` of every element, in place — see
/// [`super::tanh_inplace`] for the contract. No madd step: every
/// instantiation computes the same bits.
#[inline(always)]
fn tanh_fdlibm_g<M: Madd>(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = fdlibm_tanhf(*x);
    }
}

/// fdlibm's single-precision constants, by their bit patterns.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// fdlibm's `tanhf` with its `expm1f` inlined — the scalar code glibc
/// ships — rewritten without branches so that every lane runs the same
/// instructions. Each operation is the C source's, in its order, on the
/// same `f32` values (nothing fuses), so the result is bit for bit
/// fdlibm's for every input, `NaN` payloads included.
///
/// `tanhf` works on `|x|` and applies the sign last: `±0` and
/// `|x| < 2⁻⁵⁵` give `x`; `|x| < 1` gives `−t / (t + 2)` with
/// `t = expm1f(−2|x|)`; `1 ≤ |x| < 22` gives `1 − 2 / (t + 2)` with
/// `t = expm1f(2|x|)`; `|x| ≥ 22` gives `1`; `±∞` and `NaN` give
/// `1/|x| + 1`. The two quotients and that last one are a single
/// division whose operands are selected first.
///
/// `expm1f(u)` reduces `u = k·ln2 + r` with `k` 0 for `|u| ≤ ½ln2`, ±1
/// below `1.5 ln2` and `trunc(u/ln2 ± ½)` above; the one
/// `hi = u − k·ln2_hi`, `lo = k·ln2_lo` formula is exact in all three
/// cases (for `k = 0` it leaves `u`). Every result formula that a `k`
/// of `tanhf`'s arguments can reach is computed and one is selected.
/// Those arguments give `k ∈ {0, −1, −2, −3}` below `|x| = 1` and
/// `k ∈ 3..=63` above, so `expm1f`'s `k = 1` formula is left out, as are
/// its overflow and `u ≤ −27 ln2` exits (`|u| < 44`). Below
/// `|u| = 2⁻²⁵` it returns `u`.
#[inline(always)]
fn fdlibm_tanhf(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;

    // expm1f(u), u = 2|x| from |x| = 1 up, −2|x| below.
    let u = if big { 2.0 * ax } else { -2.0 * ax };
    let hu = (2.0 * ax).to_bits();
    // `as i32` saturates, which does not vectorize (the AVX2 body took
    // about a fifth longer with it). The lanes that use `k_far` hold
    // |v| < 64, and the select keeps every other lane in range too (NaN
    // fails the comparison).
    let v = INV_LN2 * u + if big { 0.5 } else { -0.5 };
    let v = if v.abs() < 128.0 { v } else { 0.0 };
    // SAFETY: `v` is finite and |v| < 128, so it truncates into `i32`.
    let k_far: i32 = unsafe { v.to_int_unchecked() };
    // fdlibm's ±1 below 1.5 ln2 is always −1 here: only `u < 0`
    // (|x| < 1) is that small.
    let k: i32 = if hu <= 0x3eb1_7218 {
        0
    } else if hu < 0x3f85_1592 {
        -1
    } else {
        k_far
    };
    let kf = k as f32;
    let hi = u - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let em_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let em_km1 = 0.5 * (r - e) - 0.5;
    // 2^-k, and `y·2^k` by adding `k` to the exponent field; lanes whose
    // `k` is out of range compute garbage that no select picks.
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let em_far = scale(1.0 - (e - r)) - 1.0;
    let em_mid = scale((1.0 - two_mk) - (e - r));
    let em_high = scale((r - (e + two_mk)) + 1.0);
    let em = if hu < 0x3300_0000 {
        u
    } else if k == 0 {
        em_k0
    } else if k == -1 {
        em_km1
    } else if k <= -2 || k > 56 {
        em_far
    } else if k < 23 {
        em_mid
    } else {
        em_high
    };

    let nonfinite = ix >= 0x7f80_0000;
    let (num, den) = if nonfinite {
        (1.0, ax)
    } else if big {
        (2.0, em + 2.0)
    } else {
        (-em, em + 2.0)
    };
    let q = num / den;
    let z = if nonfinite {
        q + 1.0
    } else if ix >= 0x41b0_0000 {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    let z = if ix < 0x2400_0000 { ax } else { z };
    f32::from_bits(z.to_bits() ^ sign)
}

// --- Entry points -------------------------------------------------------

/// Generates a kernel's one entry point from its generic body, selected by
/// the caller's [`MaddChoice`]: on x86-64 the [`Fused`] instantiation
/// inside an avx2+fma `#[target_feature]` function and the [`Unfused`] one
/// inside an avx2 function — where the `#[inline(always)]` body picks up
/// 256-bit vectorization of its register blocks (and, fused, hardware
/// `vfmadd`) — and the [`Unfused`] one compiled at the crate's baseline
/// target. A kernel declared `wide` has a fourth build, the [`Fused`]
/// instantiation inside an avx512f+avx2+fma function, which
/// [`Isa::Avx512Fma`] runs; every other kernel runs its avx2+fma build
/// there.
macro_rules! kernel {
    (
        $(#[$doc:meta])*
        wide $name:ident = $generic:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
    ) => {
        kernel!(@entry [
            Isa::Avx512Fma => {
                #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $generic::<Fused>($($arg),*)
                }
                // SAFETY: `Avx512Fma` is only ever `host_isa`'s answer,
                // which verified avx512f+avx2+fma on this CPU.
                return unsafe { avx512($($arg),*) };
            }
        ] $(#[$doc])* $name = $generic($($arg: $ty),*) $(-> $ret)?);
    };
    (
        $(#[$doc:meta])*
        $name:ident = $generic:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
    ) => {
        kernel!(@entry [] $(#[$doc])* $name = $generic($($arg: $ty),*) $(-> $ret)?);
    };
    (
        @entry [$($avx512_arm:tt)*]
        $(#[$doc:meta])*
        $name:ident = $generic:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?
    ) => {
        $(#[$doc])*
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        // The entry and its per-ISA copies take the generic body's
        // arguments as they are.
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name(madd: MaddChoice, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[allow(unreachable_patterns)] // `Avx512Fma` below, for a `wide` kernel
            match madd.isa {
                $($avx512_arm)*
                Isa::Avx2Fma | Isa::Avx512Fma => {
                    #[target_feature(enable = "avx2", enable = "fma")]
                    unsafe fn fused($($arg: $ty),*) $(-> $ret)? {
                        $generic::<Fused>($($arg),*)
                    }
                    // SAFETY: `Avx2Fma` and `Avx512Fma` are only ever
                    // `host_isa`'s answers, which verified avx2+fma on
                    // this CPU.
                    return unsafe { fused($($arg),*) };
                }
                Isa::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                        $generic::<Unfused>($($arg),*)
                    }
                    // SAFETY: `Avx2` is `host_isa`'s answer or its
                    // `Avx2Fma` capped by `MaddChoice::plain`; either way
                    // avx2 was verified on this CPU.
                    return unsafe { avx2($($arg),*) };
                }
                Isa::Baseline => {}
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
    /// `out += Σ_s a[s]ᵀ × b[s]` over row windows, the last first, `a`'s
    /// logical row `k` at stored row `rows[k]` ([`segment_tn_rows_g`]).
    segment_tn_rows = segment_tn_rows_g(
        bounds: &[(usize, usize)], a: &[f32], rows: &[usize], b: &[f32], m: usize, n: usize,
        window: &mut [f32], out: &mut [f32],
    )
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
    /// [`weighted_sum`] with row `r` of the values at row `rows[r]` of `x`
    /// ([`weighted_sum_via_g`]).
    weighted_sum_via = weighted_sum_via_g(
        alpha: &[f32], x: &[f32], rows: &[usize], d: usize, r0: usize, r1: usize,
        out_row: &mut [f32],
    )
}
kernel! {
    /// The path-attention encoder's row-wise backward
    /// ([`attention_backward_g`]).
    attention_backward = attention_backward_g(
        bounds: &[(usize, usize)], rows: &[usize], alpha: &[f32], g: &[f32], c: &[f32],
        attn: &[f32], gs: &mut [f32], gproj: &mut [f32],
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
kernel! {
    /// One context row: `tanh((s + p) + e)` into `out`, its lane-split
    /// score returned ([`context_row_g`]) — fast mode only.
    wide context_row = context_row_g(
        s: &[f32], p: &[f32], e: &[f32], attn: &[f32], out: &mut [f32],
    ) -> f32
}
kernel! {
    /// fdlibm's `tanhf` in place ([`tanh_fdlibm_g`]) — strict mode only.
    tanh_fdlibm = tanh_fdlibm_g(xs: &mut [f32])
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
    use crate::kernels;

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
    /// here, where it can be named (at this host's widest plain
    /// instantiation: `plain_instantiations_are_bit_equal` holds the
    /// other to the same bits).
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
        tally.add(MaddChoice::plain(), &xs, &correctly_rounded_tanh(&xs));
        assert!(
            tally.worst() <= PLAIN_TANH_MAX_ULPS,
            "{} ulp at {:e}",
            tally.worst(),
            tally.worst_at
        );
    }

    /// Where the two bounds come from: every positive `f32` below 9.1
    /// (from there on the result is exactly 1) through the fused body, if
    /// this host runs it, and this host's widest plain one, with the ulp
    /// histograms printed under the instantiations' names.
    #[test]
    #[ignore = "1.1e9 values, a minute in release: run with --release -- --ignored"]
    fn tanh_bodies_attain_their_bounds_over_every_float_below_the_clamp() {
        let plain = MaddChoice::plain();
        let mut bodies = vec![(
            format!("plain ({})", plain.name()),
            plain,
            PLAIN_TANH_MAX_ULPS,
            UlpTally::default(),
        )];
        if fused_available() {
            let fused = MaddChoice::fast();
            bodies.push((
                format!("fused ({})", fused.name()),
                fused,
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

    /// The builds of the strict `tanh` this CPU runs, by name: the
    /// baseline one, and the AVX2 one where the CPU has AVX2.
    fn strict_tanh_builds() -> Vec<(&'static str, MaddChoice)> {
        let mut builds = vec![("baseline", MaddChoice { isa: Isa::Baseline })];
        if host_isa() >= Isa::Avx2 {
            builds.push(("avx2", MaddChoice { isa: Isa::Avx2 }));
        }
        builds
    }

    /// Where the strict `tanh` builds differ from `f32::tanh` on `xs` in
    /// any bit, `NaN` payloads included: a count per build (in
    /// [`strict_tanh_builds`] order) and the first few mismatches as
    /// `(build, input, got, libm)` bit patterns.
    #[derive(Default)]
    struct Mismatches {
        count: [u64; 2],
        first: Vec<(&'static str, u32, u32, u32)>,
    }

    impl Mismatches {
        fn add(&mut self, xs: &[f32]) {
            let want: Vec<f32> = xs.iter().map(|x| x.tanh()).collect();
            for (b, (name, madd)) in strict_tanh_builds().into_iter().enumerate() {
                let mut got = xs.to_vec();
                tanh_fdlibm(madd, &mut got);
                for ((x, g), w) in xs.iter().zip(&got).zip(&want) {
                    if g.to_bits() != w.to_bits() {
                        self.count[b] += 1;
                        if self.first.len() < 8 {
                            self.first
                                .push((name, x.to_bits(), g.to_bits(), w.to_bits()));
                        }
                    }
                }
            }
        }

        fn merge(mut self, other: Mismatches) -> Mismatches {
            for (c, o) in self.count.iter_mut().zip(other.count) {
                *c += o;
            }
            self.first.extend(other.first);
            self.first.truncate(8);
            self
        }

        fn assert_none(&self) {
            assert!(
                self.count == [0, 0],
                "{:?} differ; (build, x, got, libm): {:08x?}",
                self.count,
                self.first
            );
        }
    }

    /// The least `x ≥ 1` whose `expm1f(2x)` reduction reaches `k`.
    fn first_x_with_k(k: i32) -> f32 {
        let reaches = |bits: u32| (INV_LN2 * (2.0 * f32::from_bits(bits)) + 0.5) as i32 >= k;
        let (mut lo, mut hi) = (1.0f32.to_bits(), 22.0f32.to_bits());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        f32::from_bits(lo)
    }

    /// Both builds of the strict body equal libm at every branch edge of
    /// fdlibm's `tanhf` and `expm1f` (±4 ulp), on the special values and
    /// on a stride through every binade, in both signs.
    #[test]
    fn strict_tanh_equals_libm_at_every_branch_edge() {
        let (k23, k57) = (first_x_with_k(23), first_x_with_k(57));
        assert!((7.79..7.81).contains(&k23) && (19.57..19.59).contains(&k57));
        let edges = [
            0x2400_0000, // 2⁻⁵⁵: x·(1 + x) below
            0x3280_0000, // 2⁻²⁶: expm1f returns its argument below
            0x3e31_7218, // ≈ 0.1733: k leaves 0
            0x3f05_1592, // ≈ 0.5199: k leaves −1
            0x3f80_0000, // 1: expm1f(2|x|) from here
            k23.to_bits(),
            k57.to_bits(),
            0x41b0_0000, // 22: ±1 from here
        ];
        let mut xs: Vec<u32> = edges.iter().flat_map(|&e| e - 4..=e + 4).collect();
        xs.extend([0, 1, 2, 0x0000_1234, 0x0040_0000, 0x007f_ffff, 0x0080_0000]);
        xs.extend([0x7f80_0000, 0x7fc0_0000, 0x7fc0_0001, 0x7fff_ffff]);
        xs.extend([0x7f80_0001, 0x7fa0_0000, 0x7fbf_ffff]);
        xs.extend((0..0x7f80_0000).step_by(4099));
        let xs: Vec<f32> = xs
            .iter()
            .flat_map(|&b| [b, b | 0x8000_0000])
            .map(f32::from_bits)
            .collect();
        let mut bad = Mismatches::default();
        bad.add(&xs);
        bad.assert_none();
    }

    /// The oracle behind the strict `tanh` contract: every one of the 2³²
    /// bit patterns through both builds, compared with libm's `tanhf` by
    /// raw bits, split across the CPUs.
    #[test]
    #[ignore = "2³² values through libm and two builds, about two minutes in release: run with --release -- --ignored"]
    fn strict_tanh_equals_libm_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per_thread = ((1u64 << 32) / CHUNK).div_ceil(threads) * CHUNK;
        let bad = std::thread::scope(|s| {
            let scans: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let end = ((t + 1) * per_thread).min(1 << 32);
                        let mut bad = Mismatches::default();
                        for lo in (t * per_thread..end).step_by(CHUNK as usize) {
                            let xs: Vec<f32> =
                                (lo..lo + CHUNK).map(|b| f32::from_bits(b as u32)).collect();
                            bad.add(&xs);
                        }
                        bad
                    })
                })
                .collect();
            let scans = scans.into_iter().map(|s| s.join().unwrap());
            scans.fold(Mismatches::default(), Mismatches::merge)
        });
        for ((name, _), n) in strict_tanh_builds().iter().zip(bad.count) {
            println!("strict tanh ({name}): {n} of 2^32 differ from libm");
        }
        bad.assert_none();
    }

    #[test]
    fn fast_matmul_families_are_close_to_strict_and_internally_deterministic() {
        let (m, kd, n) = (5usize, 17usize, 9usize);
        let a: Vec<f32> = (0..m * kd).map(|i| ((i as f32) * 0.37).sin()).collect();
        let b: Vec<f32> = (0..kd * n).map(|i| ((i as f32) * 0.71).cos()).collect();
        let mut strict = vec![0.0f32; m * n];
        mm_rows(MaddChoice::plain(), &a, &b, m, kd, n, &mut strict);
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

    /// `len` operands from `seed`. Ordinary values in [−2, 2) with, when
    /// `wild`, one in four drawn from ±0, quiet and signalling NaNs, ±∞
    /// and ± subnormals; otherwise one in eight from ±0 and ± subnormals
    /// only, so most outputs stay finite and their rounding is compared.
    fn operand(len: usize, seed: u64, wild: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (state >> 32) as u32;
                let subnormal = f32::from_bits(r >> 9 | 1);
                let specials = [
                    0.0,
                    -0.0,
                    subnormal,
                    -subnormal,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::from_bits(0x7FC0_0001),
                    f32::from_bits(0x7F80_0001),
                ];
                match (wild, r % 8) {
                    (true, 0 | 1) => specials[(r >> 3) as usize % 8],
                    (false, 0) => specials[(r >> 3) as usize % 4],
                    _ => (r >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0,
                }
            })
            .collect()
    }

    /// Bit view with every NaN mapped to the one canonical quiet NaN —
    /// which payload survives when two NaNs meet is a property of the
    /// build, not of the kernel (see `tests/kernel_parity.rs`).
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Every kernel entry at one shape through the instantiation `madd`
    /// names, all outputs concatenated. `kd` is the reduction length (the
    /// rows of `tn`'s operands and of the weighted sum's window), `n` the
    /// output width.
    fn every_kernel(madd: MaddChoice, m: usize, kd: usize, n: usize, wild: bool) -> Vec<f32> {
        let seed = (m * 1_000_000 + kd * 1_000 + n) as u64 * 2 + wild as u64;
        let input = |len: usize, salt: u64| operand(len, seed * 16 + salt, wild);
        let mut out = Vec::new();

        let mut mm = input(m * n, 0);
        let (a, b) = (input(m * kd, 1), input(kd * n, 2));
        mm_rows(madd, &a, &b, m, kd, n, &mut mm);
        out.extend(mm);

        let mut tn = input(m * n, 3);
        let (x, g) = (input(kd * m, 4), input(kd * n, 5));
        tn_rows(madd, &x, &g, m, n, &mut tn);
        out.extend(tn);

        let bounds = [
            (0, kd / 3),
            (kd / 3, kd / 3),
            (kd / 3, kd - kd / 4),
            (kd - kd / 4, kd),
        ];
        // Logical row `k` read at stored row `(7k + 3) mod kd`: rows
        // repeat and come out of order.
        let via: Vec<usize> = (0..kd).map(|k| (7 * k + 3) % kd).collect();
        let mut seg_tn = input(m * n, 17);
        let mut window = vec![0.0; kd * m];
        segment_tn_rows(madd, &bounds, &x, &via, &g, m, n, &mut window, &mut seg_tn);
        out.extend(seg_tn);

        let mut nt = input(m * n, 6);
        let panels = pack_nt_panels(&input(n * kd, 7), kd, n);
        nt_rows(madd, &input(m * kd, 8), &panels, m, kd, n, &mut nt);
        out.extend(nt);

        let mut pooled = input(n, 9);
        let (alpha, x) = (input(kd, 10), input(kd * n, 11));
        weighted_sum(madd, &alpha, &x, n, kd / 3, kd, &mut pooled);
        out.extend(pooled);

        let mut pooled = input(n, 19);
        weighted_sum_via(madd, &alpha, &x, &via, n, kd / 3, kd, &mut pooled);
        out.extend(pooled);

        // `kd` context rows in the four windows above, `n` wide.
        let (mut gs, mut gproj) = (vec![0.0; kd], vec![0.0; kd * n]);
        let (upstream, c) = (input(bounds.len() * n, 20), input(kd * n, 21));
        let attn = input(n, 22);
        attention_backward(
            madd, &bounds, &via, &alpha, &upstream, &c, &attn, &mut gs, &mut gproj,
        );
        out.extend(gs);
        out.extend(gproj);

        out.push(dot(madd, &input(kd, 12), &input(kd, 13)));

        let mut scores = input(m, 14);
        row_dots(madd, &input(m * kd, 15), &input(kd, 12), kd, &mut scores);
        out.extend(scores);

        let mut t: Vec<f32> = input(m * kd + n, 1).iter().map(|x| x * 5.0).collect();
        tanh(madd, &mut t);
        out.extend(t);

        let (s, p, e, attn) = (input(n, 23), input(n, 24), input(n, 25), input(n, 26));
        let mut row = vec![0.0; n];
        out.push(context_row(madd, &s, &p, &e, &attn, &mut row));
        out.extend(row);

        // ±24 spans every branch of the fdlibm body, the ±22 cut included.
        let mut t: Vec<f32> = input(m * kd + n, 16).iter().map(|x| x * 12.0).collect();
        tanh_fdlibm(madd, &mut t);
        out.extend(t);
        out
    }

    /// Widths of the context-row sweeps: empty, the lane-dot's 8- and
    /// 32-element blocks and their tails, the paper's 340 and one past.
    const ROW_WIDTHS: [usize; 10] = [0, 1, 7, 8, 31, 32, 33, 64, 340, 341];

    /// Five `d`-wide context rows' `S`, `P` and `E` projections and an
    /// attention vector, from [`operand`]. `S` is scaled by 5 so that the
    /// sums reach past `tanh`'s clamp at ±9.
    fn context_operands(d: usize, wild: bool) -> [Vec<f32>; 4] {
        let seed = 7_000 + d as u64 * 2 + wild as u64;
        let s = operand(5 * d, seed * 4, wild)
            .iter()
            .map(|x| x * 5.0)
            .collect();
        let [p, e] = [1, 2].map(|salt| operand(5 * d, seed * 4 + salt, wild));
        [s, p, e, operand(d, seed * 4 + 3, wild)]
    }

    /// A context-row kernel's output over every row of
    /// [`context_operands`]: the `tanh` rows, then the scores.
    fn context_rows(
        row: impl Fn(&[f32], &[f32], &[f32], &[f32], &mut [f32]) -> f32,
        d: usize,
        wild: bool,
    ) -> Vec<f32> {
        let [s, p, e, attn] = context_operands(d, wild);
        let mut rows = vec![f32::NAN; 5 * d];
        let mut scores = Vec::new();
        for r in 0..5 {
            let at = r * d..(r + 1) * d;
            let (s, p, e) = (&s[at.clone()], &p[at.clone()], &e[at.clone()]);
            scores.push(row(s, p, e, &attn, &mut rows[at]));
        }
        rows.extend(scores);
        rows
    }

    /// The row kernel is the three whole-buffer passes it replaced in the
    /// encoder's fast forward — `(S + P) + E`, fast `tanh_inplace`, fast
    /// `row_dots_accum` into a zeroed score — bit for bit (NaN payloads
    /// canonicalised), over finite and hostile payloads: `NaN`, `±∞`,
    /// `−0`, subnormals and sums beyond ±9.
    #[test]
    fn context_row_is_the_whole_buffer_passes_bitwise() {
        let _guard = kernels::KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        kernels::set_kernel_mode(KernelMode::Fast);
        for d in ROW_WIDTHS {
            for wild in [false, true] {
                let [s, p, e, attn] = context_operands(d, wild);
                let mut want: Vec<f32> = (s.iter().zip(&p).zip(&e))
                    .map(|((&x, &y), &z)| (x + y) + z)
                    .collect();
                kernels::tanh_inplace(&mut want);
                let mut scores = vec![0.0; 5];
                kernels::row_dots_accum(&want, &attn, 5, d, &mut scores);
                want.extend(scores);
                let got = context_rows(kernels::context_row_fast, d, wild);
                assert!(
                    canonical_bits(&got) == canonical_bits(&want),
                    "context row differs from the passes at d={d} wild={wild}"
                );
            }
        }
        kernels::set_kernel_mode(KernelMode::Strict);
    }

    /// The 512-bit build of the row kernel computes the AVX2+FMA build's
    /// bits: the same `mul_add`s on the same lanes, at another width.
    #[test]
    fn context_row_avx512_build_equals_the_avx2_build() {
        if host_isa() < Isa::Avx512Fma {
            eprintln!("no AVX-512F (with AVX2 and FMA) on this CPU: its build cannot run here");
            return;
        }
        let build = |isa| {
            move |s: &_, p: &_, e: &_, attn: &_, out: &mut _| {
                context_row(MaddChoice { isa }, s, p, e, attn, out)
            }
        };
        for d in ROW_WIDTHS {
            for wild in [false, true] {
                assert!(
                    canonical_bits(&context_rows(build(Isa::Avx2Fma), d, wild))
                        == canonical_bits(&context_rows(build(Isa::Avx512Fma), d, wild)),
                    "avx2+fma and avx512 builds differ at d={d} wild={wild}"
                );
            }
        }
    }

    /// The register-blocked pool is the plain fold, per element
    /// `acc = madd(w[r], v[r][j], acc)` for ascending `r` from the
    /// output's own value, in either mode and through the row
    /// indirection, at widths below, on and past the 64-column block.
    #[test]
    fn pooled_rows_are_the_ascending_fold() {
        let _guard = kernels::KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let bounds = [(0, 3), (3, 3), (3, 10), (10, 11)];
        let rows = 11;
        let via: Vec<usize> = (0..rows).map(|r| (5 * r + 2) % rows).collect();
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            kernels::set_kernel_mode(mode);
            let fused = mode == KernelMode::Fast && fused_available();
            let madd = |a: f32, b: f32, acc: f32| {
                if fused {
                    a.mul_add(b, acc)
                } else {
                    acc + a * b
                }
            };
            for d in [1, 63, 64, 65, 128, 340] {
                for wild in [false, true] {
                    let seed = d as u64 * 2 + wild as u64;
                    let (w, x) = (
                        operand(rows, seed * 3, wild),
                        operand(rows * d, seed * 3 + 1, wild),
                    );
                    let start = operand(bounds.len() * d, seed * 3 + 2, wild);
                    let fold = |row_of: &dyn Fn(usize) -> usize| {
                        let mut want = start.clone();
                        for (s, &(r0, r1)) in bounds.iter().enumerate() {
                            for j in 0..d {
                                let o = &mut want[s * d + j];
                                for r in r0..r1 {
                                    *o = madd(w[r], x[row_of(r) * d + j], *o);
                                }
                            }
                        }
                        want
                    };
                    let mut got = start.clone();
                    kernels::segment_weighted_sum(&bounds, &w, &x, d, &mut got);
                    let ctx = format!("mode={mode} d={d} wild={wild}");
                    assert!(
                        canonical_bits(&got) == canonical_bits(&fold(&|r| r)),
                        "{ctx}"
                    );
                    let mut got = start.clone();
                    kernels::segment_weighted_sum_via(&bounds, &w, &x, &via, d, &mut got);
                    assert!(
                        canonical_bits(&got) == canonical_bits(&fold(&|r| via[r])),
                        "via {ctx}"
                    );
                }
            }
        }
        kernels::set_kernel_mode(KernelMode::Strict);
    }

    /// The baseline and the AVX2 build of the plain bodies compute the
    /// same bits. On an AVX2 host the baseline build never runs otherwise,
    /// so this is what keeps it honest as the fallback. Shapes straddle
    /// the 4-, 8-, 16- and 32-wide blocks (`tn`'s 4-row blocks too),
    /// their tails and `mm`'s 64-wide tiles, with zero-size dimensions,
    /// `n == 1` and empty segment windows; inputs carry every special
    /// value.
    #[test]
    fn plain_instantiations_are_bit_equal() {
        let baseline = MaddChoice { isa: Isa::Baseline };
        if host_isa() < Isa::Avx2 {
            eprintln!("no AVX2 on this CPU: the baseline build is the one that runs");
            return;
        }
        let avx2 = MaddChoice { isa: Isa::Avx2 };
        let widths = [
            0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 70,
        ];
        for m in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
            for kd in [0, 1, 5, 8, 31, 33, 64, 70] {
                for n in widths {
                    for wild in [false, true] {
                        let want = canonical_bits(&every_kernel(baseline, m, kd, n, wild));
                        let got = canonical_bits(&every_kernel(avx2, m, kd, n, wild));
                        assert!(
                            want == got,
                            "baseline and avx2 differ at m={m} kd={kd} n={n} wild={wild}"
                        );
                    }
                }
            }
        }
    }
}
