//! SIMD-explicit matmul kernels behind a two-mode numeric contract.
//!
//! The process-wide [`KernelMode`] selects which contract the deployed
//! kernels honour:
//!
//! * [`KernelMode::Strict`] (the mode a process starts in) is the
//!   bitwise-parity contract proven by the kernel test tier, described
//!   below. Training, the figures and every `nvc` subcommand but the two
//!   servers run it.
//! * [`KernelMode::Fast`] (what `nvc serve` / `nvc hub` run, through
//!   `NvConfig::kernel_mode`) relaxes exactly five things, each gated by
//!   the ε-parity and decision-equivalence suites in
//!   `tests/fast_parity.rs`: fused `mul_add` accumulators (hardware FMA
//!   when the CPU has AVX2+FMA, see [`bodies`]), a single-pass online-max
//!   softmax, a one-division rational `tanh` within 5 ulp of the
//!   correctly rounded value (7 without FMA; [`tanh_inplace`]), and —
//!   for the encoder's inference forward only — a projection factored
//!   over the three `k`-ranges of a context row and an attention-score
//!   dot split over 32 accumulator lanes ([`row_dots_accum`]). None of
//!   them reads a runtime setting, so a fast result is a function of the
//!   weights and the input alone. Fast mode never changes which special
//!   values (`NaN`/`±∞`) appear — only the rounding of finite results.
//!   That the inference forward *keeps* each table row's factored product
//!   for as long as the weights stand ([`row_matmul_accum_fast`]) is not a
//!   sixth: a kept row is bit for bit the row it would compute again, and
//!   neither is that it runs the sum, `tanh` and score of each context row
//!   in one pass ([`context_row_fast`]): per element, the same arithmetic.
//!
//! Both modes run the **same loop nests** ([`bodies`] holds each body once,
//! generic over the multiply-add step): strict is the plain `acc + a * b`
//! instantiation — compiled for AVX2 and run wherever the CPU has it, with
//! the baseline build as the fallback ([`kernel_isa`] names the one that
//! runs) — fast the fused one where the CPU has FMA, and what else differs
//! is the list above. Which instantiation a call runs is resolved in one
//! place (`bodies::MaddChoice::current`); the entry points below never
//! branch between two bodies of the same arithmetic, and each is its shape
//! checks, its op timer and one call of its body on the calling thread.
//!
//! The **strict** contract is one ascending-`k` chain per output element:
//! every kernel computes each element's partial products in exactly the
//! order of the textbook i-k-j loop — the one oracle
//! `tests/kernel_parity.rs` compares the deployed kernels with, bit for
//! bit. The one transformation layered on top is chosen because it
//! *cannot* change that order: the inner loops of the `mm`, `tn` and `nt`
//! bodies ([`bodies`]) run over **register blocks** of 8 to 32
//! *independent* output accumulators (manual `f32x8`-style blocks — no
//! unstable `std::simd`, and in this mode no `mul_add` fusion), held in
//! registers across the reduction. Lanes never share an accumulator, so
//! each element's chain is untouched, whatever vector width the blocks
//! compile to (256-bit under AVX2, 128-bit at the baseline).

pub mod bodies;

use std::sync::atomic::{AtomicUsize, Ordering};

use bodies::MaddChoice;

/// Numeric contract of the deployed kernels — see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum KernelMode {
    /// Bitwise-parity kernels: one ascending-`k` chain per output
    /// element, no `mul_add` — the bits of the textbook i-k-j loop.
    Strict,
    /// Reassociated kernels: FMA accumulators, online-max softmax,
    /// rational `tanh`, and in the encoder's inference forward a
    /// factored projection and a lane-split score dot. ε-close to strict;
    /// identical decisions and identical special-value (`NaN`/`±∞`)
    /// propagation.
    Fast,
}

impl KernelMode {
    /// Stable lowercase name — the spelling of the `nvc` banners and of
    /// the `kernel_mode` field that `stats` answers.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Strict => "strict",
            KernelMode::Fast => "fast",
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide kernel mode, as `KernelMode as usize`.
static MODE: AtomicUsize = AtomicUsize::new(KernelMode::Strict as usize);

/// Failure-injection hook: output row count of the marked product (tests
/// only).
static PANIC_ROWS: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Current process-wide kernel mode: [`KernelMode::Strict`] until
/// [`set_kernel_mode`] says otherwise.
pub fn kernel_mode() -> KernelMode {
    if MODE.load(Ordering::Relaxed) == KernelMode::Fast as usize {
        KernelMode::Fast
    } else {
        KernelMode::Strict
    }
}

/// Sets the process-wide kernel mode. Strict and fast differ in
/// low-order bits (not in decisions), so flip it at process scope —
/// config application, test pins — not mid-computation.
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(mode as usize, Ordering::Relaxed);
}

/// Which build of the kernel bodies the process's mode runs on this CPU:
/// `"avx2+fma"` (fast mode's fused bodies), `"avx2"` (the plain bodies at
/// 256-bit width — strict mode, or fast mode without FMA) or `"baseline"`
/// (the plain bodies at the crate's compile target: a CPU without AVX2,
/// or not x86-64). Detected once per process. Strict bits do not depend
/// on it, only how fast they are computed; fast mode's do (fused or not).
///
/// These three answers name the bit contract, not the vector width: on a
/// CPU with AVX-512F fast mode's context-row pass ([`context_row_fast`])
/// runs a 512-bit build whose bits are the AVX2+FMA build's, and the
/// answer is still `"avx2+fma"`.
pub fn kernel_isa() -> &'static str {
    MaddChoice::current().name()
}

/// Arms the failure-injection hook: the next `A·B` products with
/// `rows` output rows panic (the marker keeps concurrently running tests
/// out of the blast radius).
#[doc(hidden)]
pub fn inject_worker_panic(rows: usize) {
    PANIC_ROWS.store(rows, Ordering::Relaxed);
}

/// Disarms [`inject_worker_panic`].
#[doc(hidden)]
pub fn clear_worker_panic() {
    PANIC_ROWS.store(usize::MAX, Ordering::Relaxed);
}

/// `out += a × b` over row-major slices (`a`: `m×kd`, `b`: `kd×n`, `out`:
/// `m×n`) — the deployed matmul, callable on any window of a larger
/// buffer, so a row range of a weight matrix is multiplied where it lies.
/// `Tensor::matmul_accum_into` is this function behind shape checks;
/// its docs state the two modes' contracts.
///
/// # Panics
///
/// Panics when a slice length disagrees with `m`, `kd`, `n`.
pub fn matmul_accum(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * kd, "matmul left operand is not {m}x{kd}");
    assert_eq!(b.len(), kd * n, "matmul right operand is not {kd}x{n}");
    assert_eq!(out.len(), m * n, "matmul output is not {m}x{n}");
    let _timer = nvc_obs::time_op(nvc_obs::Op::MatMul);
    matmul_untimed(a, b, m, kd, n, out);
}

/// [`matmul_accum`] without its shape checks and without a timer, for the
/// callers that charge the product to an op of their own
/// ([`Graph::linear`](crate::Graph::linear)).
pub(crate) fn matmul_untimed(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    if PANIC_ROWS.load(Ordering::Relaxed) == m {
        panic!("injected panic in a matmul with {m} output rows");
    }
    bodies::mm_rows(MaddChoice::current(), a, b, m, kd, n, out);
}

/// `out += row × b` for one `kd`-wide row against `b: kd×n`, in **fast-mode
/// arithmetic whatever the process mode**. The result is a function of
/// `row` and `b` alone — the same bits as fast
/// [`matmul_accum`]`(row, b, 1, kd, n, out)` — which is what lets the
/// encoder's inference forward compute a table row's projection once and
/// keep it.
///
/// # Panics
///
/// Panics when a slice length disagrees with `kd`, `n`.
pub fn row_matmul_accum_fast(row: &[f32], b: &[f32], kd: usize, n: usize, out: &mut [f32]) {
    assert_eq!(row.len(), kd, "row_matmul row is not {kd} wide");
    assert_eq!(b.len(), kd * n, "row_matmul right operand is not {kd}x{n}");
    assert_eq!(out.len(), n, "row_matmul output is not {n} wide");
    let _timer = nvc_obs::time_op(nvc_obs::Op::MatMul);
    bodies::mm_rows(MaddChoice::fast(), row, b, 1, kd, n, out);
}

/// `out[r] += a[r] · v` for every row of `a: m×kd` — the attention-score
/// contract of the encoder's inference forward, which computes the fast
/// side row by row inside [`context_row_fast`] (the same bits, added into
/// a zeroed score) and calls no whole-matrix pass.
///
/// Strict is [`matmul_accum`] with `n = 1`: one ascending-`k` chain per
/// row, starting from `out[r]`. Fast is a lane-split dot
/// (`bodies::lane_dot_g`): element `k` folds into accumulator lane
/// `k mod 32` (four 8-wide registers, ascending `k` within a lane, every
/// lane from zero), the 32 lanes meet in one fixed reduction tree, and the
/// total is added to `out[r]`. The tree is the same for every row, so a
/// row's score does not depend on its batch-mates. A single chain is
/// latency-bound (one madd per ~4 cycles); 32 independent lanes are not.
///
/// This is a separate entry point rather than `matmul_accum`'s `n == 1`
/// case because the tape keeps **one** matmul family: fast `tn`/`nt` are
/// pinned bitwise to transpose-then-`matmul`, which a reassociated
/// single-column product would break.
///
/// # Panics
///
/// Panics when a slice length disagrees with `m`, `kd`.
pub fn row_dots_accum(a: &[f32], v: &[f32], m: usize, kd: usize, out: &mut [f32]) {
    if kernel_mode() != KernelMode::Fast {
        return matmul_accum(a, v, m, kd, 1, out);
    }
    assert_eq!(a.len(), m * kd, "row_dots left operand is not {m}x{kd}");
    assert_eq!(v.len(), kd, "row_dots vector is not {kd} long");
    assert_eq!(out.len(), m, "row_dots output is not {m} long");
    let _timer = nvc_obs::time_op(nvc_obs::Op::MatMul);
    bodies::row_dots(MaddChoice::fast(), a, v, kd, out);
}

/// One context row of the encoder's fast inference forward, in **fast-mode
/// arithmetic whatever the process mode**: `out[j] = tanh((s[j] + p[j]) +
/// e[j])` for every column, and the row's attention score returned. Per
/// element and per score these are exactly the bits of the whole-buffer
/// passes — `(S + P) + E`, fast [`tanh_inplace`], then fast
/// [`row_dots_accum`] into a zeroed score, which makes the score `+0 +`
/// the row's lane-split dot with `attn` — computed in one pass over the
/// row while it is in L1. Where the CPU has AVX-512F this runs the
/// 512-bit build of the fused body; its bits are the AVX2+FMA build's
/// ([`bodies`]).
///
/// Untimed: its caller charges the loop over a batch's rows to
/// [`Op::Tanh`](nvc_obs::Op::Tanh), once per call.
///
/// # Panics
///
/// Panics when `s`, `p`, `e`, `attn` and `out` differ in length.
pub fn context_row_fast(s: &[f32], p: &[f32], e: &[f32], attn: &[f32], out: &mut [f32]) -> f32 {
    let d = out.len();
    assert!(
        s.len() == d && p.len() == d && e.len() == d && attn.len() == d,
        "context row operands are not {d} wide"
    );
    bodies::context_row(MaddChoice::fast(), s, p, e, attn, out)
}

/// Elementwise `tanh` in place — the one `tanh` of each mode, wherever
/// `tanh` runs (the tape's [`Graph::tanh`](crate::Graph::tanh), the
/// encoder's tape-free forward, the policy net).
///
/// Strict is fdlibm's `tanhf` (with its `expm1f`) computed in lanes
/// ([`bodies`]): the bits of the scalar C code for every `f32`, `NaN`
/// payloads included. That is glibc's `tanhf` wherever glibc ships
/// fdlibm's (an ignored unit test beside the body scans all 2³² inputs
/// against the build host's `f32::tanh`), and strict bits do not depend
/// on which libm the host has.
///
/// Fast is a branch-free rational body ([`bodies`]: Eigen's (13, 6)
/// minimax fit, one division) with no libm call and no table: within 5
/// ulp of the correctly rounded value in bit distance where the madds
/// fuse and 7 where they do not (the worst cases over every `f32`;
/// 91.6 % of results are exact and 99.7 % within 2), odd, `|tanh| ≤ 1`,
/// `NaN → NaN`, `±∞ → ±1`, `±0 → ±0`, subnormals → themselves,
/// `|x| ≥ 9 → ±1` exactly.
///
/// In both modes each element is a pure function of itself, so results
/// do not depend on where in a slice (vector body or tail) an element
/// sits.
pub fn tanh_inplace(xs: &mut [f32]) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::Tanh);
    match kernel_mode() {
        KernelMode::Strict => bodies::tanh_fdlibm(MaddChoice::current(), xs),
        KernelMode::Fast => bodies::tanh(MaddChoice::fast(), xs),
    }
}

/// Softmax down the rows of each segment of a `rows × cols` matrix, in
/// place, independently per column. `bounds[s]` is segment `s`'s row
/// range (contiguous, ascending, covering `data`); zero-row segments are
/// skipped.
///
/// Strict runs the three-pass max / exp-sum / divide; fast the
/// single-pass online-max kernel in the same element order.
pub fn segment_softmax(bounds: &[(usize, usize)], cols: usize, data: &mut [f32]) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentSoftmax);
    debug_assert_eq!(data.len(), bounds.last().map_or(0, |&(_, r1)| r1) * cols);
    let fast = kernel_mode() == KernelMode::Fast;
    for &(r0, r1) in bounds {
        if r0 == r1 {
            continue;
        }
        for c in 0..cols {
            if fast {
                bodies::online_softmax_strided(data, r0 * cols + c, cols, r1 - r0);
                continue;
            }
            let at = |r: usize| r * cols + c;
            let m = (r0..r1).fold(f32::NEG_INFINITY, |m, r| m.max(data[at(r)]));
            let mut sum = 0.0f32;
            for r in r0..r1 {
                let e = (data[at(r)] - m).exp();
                data[at(r)] = e;
                sum += e;
            }
            for r in r0..r1 {
                data[at(r)] /= sum;
            }
        }
    }
}

/// Attention pool: `out[s] += Σ_r weights[r] · values[r]` over segment
/// `s`'s rows, accumulated in ascending row order (`values`: `rows × d`,
/// `out`: `bounds.len() × d`). Zero-row segments add nothing.
pub fn segment_weighted_sum(
    bounds: &[(usize, usize)],
    weights: &[f32],
    values: &[f32],
    d: usize,
    out: &mut [f32],
) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentWeightedSum);
    debug_assert_eq!(out.len(), bounds.len() * d);
    let madd = MaddChoice::current();
    for (s, &(r0, r1)) in bounds.iter().enumerate() {
        let orow = &mut out[s * d..(s + 1) * d];
        bodies::weighted_sum(madd, weights, values, d, r0, r1, orow);
    }
}

/// [`segment_weighted_sum`] with logical row `r` of `values` read at
/// stored row `rows[r]` (`rows` covers every row the bounds do) — the
/// encoder's pool over a batch's distinct `tanh` rows, straight through
/// its repeats.
pub(crate) fn segment_weighted_sum_via(
    bounds: &[(usize, usize)],
    weights: &[f32],
    values: &[f32],
    rows: &[usize],
    d: usize,
    out: &mut [f32],
) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentWeightedSum);
    debug_assert_eq!(out.len(), bounds.len() * d);
    let madd = MaddChoice::current();
    for (s, &(r0, r1)) in bounds.iter().enumerate() {
        let orow = &mut out[s * d..(s + 1) * d];
        bodies::weighted_sum_via(madd, weights, values, rows, d, r0, r1, orow);
    }
}

/// `out += aᵀ × b` over row-major slices (`a`: `kr×m`, `b`: `kr×n`, `out`:
/// `m×n`) — the `xᵀ·g` weight-gradient product. A row window of a taller
/// pair is the same call on the window's sub-slices. Every output element
/// accumulates in ascending `k` in both modes.
///
/// Not timed here: the caller charges the call to an op of its own
/// ([`Tensor::matmul_tn_accum_into`](crate::Tensor::matmul_tn_accum_into)).
///
/// # Panics
///
/// Panics when a slice length disagrees with `kr`, `m`, `n`.
pub fn matmul_tn_accum(a: &[f32], b: &[f32], kr: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), kr * m, "matmul_tn left operand is not {kr}x{m}");
    assert_eq!(b.len(), kr * n, "matmul_tn right operand is not {kr}x{n}");
    assert_eq!(out.len(), m * n, "matmul_tn output is not {m}x{n}");
    bodies::tn_rows(MaddChoice::current(), a, b, m, n, out);
}

/// `out += Σ_s a[r0..r1]ᵀ × b[r0..r1]` for the row windows `bounds[s] =
/// (r0, r1)` of a `kr`-row left operand and `b: kr×n`, **last window
/// first** — the encoder's weight gradients
/// ([`Graph::path_attention`](crate::Graph::path_attention)). Logical row
/// `k` of the left operand is row `rows[k]` of `a` (`a` holds any number
/// of `m`-wide rows; `kr = rows.len()`), so a batch's repeated rows are
/// read from its distinct ones; each window is copied into `window` (at
/// least the widest window's rows × `m`) before its product runs. Per
/// output element and window: a chain from `+0` over the window's rows in
/// ascending `k`, then added into `out`. That is exactly "zero a partial,
/// [`matmul_tn_accum`] the window into it, add the partial to `out`",
/// window by window — without the partial: the window's sum stays in
/// registers. Empty windows add nothing.
///
/// # Panics
///
/// Panics when a slice length disagrees with `rows.len()`, `m`, `n`, a
/// window is not inside `0..rows.len()` or wider than `window`, or a row
/// number is outside `a`.
#[allow(clippy::too_many_arguments)]
pub fn segment_matmul_tn_accum(
    bounds: &[(usize, usize)],
    a: &[f32],
    rows: &[usize],
    b: &[f32],
    m: usize,
    n: usize,
    window: &mut [f32],
    out: &mut [f32],
) {
    let kr = rows.len();
    assert_eq!(b.len(), kr * n, "matmul_tn right operand is not {kr}x{n}");
    assert_eq!(out.len(), m * n, "matmul_tn output is not {m}x{n}");
    assert!(
        bounds
            .iter()
            .all(|&(r0, r1)| r0 <= r1 && r1 <= kr && (r1 - r0) * m <= window.len()),
        "segment window outside the {kr} rows or wider than the scratch"
    );
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentMatMulTn);
    bodies::segment_tn_rows(MaddChoice::current(), bounds, a, rows, b, m, n, window, out);
}

/// The path-attention encoder's row-wise backward
/// ([`Graph::path_attention`](crate::Graph::path_attention)), segment by
/// segment: from the upstream gradient `g` (`bounds.len() × code`), the
/// attention weights `alpha` and the `tanh` rows `c` (logical row `r` at
/// stored row `rows[r]`), it writes each row's score gradient `gs[r]` and
/// projection gradient `gproj[r]` (`rows.len() × code`). Per row these
/// are the tape's expressions for the pool, segment-softmax, score-product
/// and `tanh` backward steps, in the tape's order ([`bodies`] spells them
/// out), so the result is bit for bit what those four tape ops give.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_backward_rows(
    bounds: &[(usize, usize)],
    rows: &[usize],
    alpha: &[f32],
    g: &[f32],
    c: &[f32],
    attn: &[f32],
    gs: &mut [f32],
    gproj: &mut [f32],
) {
    let n = rows.len();
    assert!(
        alpha.len() == n && gs.len() == n && gproj.len() == n * attn.len(),
        "attention backward: operands disagree on the rows"
    );
    assert_eq!(
        g.len(),
        bounds.len() * attn.len(),
        "attention backward: upstream shape"
    );
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentWeightedSum);
    bodies::attention_backward(
        MaddChoice::current(),
        bounds,
        rows,
        alpha,
        g,
        c,
        attn,
        gs,
        gproj,
    );
}

/// `Σ_k a[k]·b[k]` from zero in ascending `k` — the chain of one
/// [`matmul_nt_accum`] output element.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    bodies::dot(MaddChoice::current(), a, b)
}

/// `out += a × bᵀ` over row-major slices (`a`: `m×kd`, `b`: `n×kd`, `out`:
/// `m×n`) — the `g·wᵀ` input-gradient product behind
/// [`Tensor::matmul_nt_accum_into`](crate::Tensor::matmul_nt_accum_into).
/// `bᵀ` is packed once per call ([`bodies::pack_nt_panels`]).
///
/// # Panics
///
/// Panics when a slice length disagrees with `m`, `kd`, `n`.
pub(crate) fn matmul_nt_accum(
    a: &[f32],
    b: &[f32],
    m: usize,
    kd: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * kd, "matmul_nt left operand is not {m}x{kd}");
    assert_eq!(b.len(), n * kd, "matmul_nt right operand is not {n}x{kd}");
    assert_eq!(out.len(), m * n, "matmul_nt output is not {m}x{n}");
    let panels = bodies::pack_nt_panels(b, kd, n);
    bodies::nt_rows(MaddChoice::current(), a, &panels, m, kd, n, out);
}

/// Serializes tests that assert on (rather than merely set) the global
/// kernel mode — without it, concurrently running unit tests would race
/// on the process-wide atomic and flake.
#[cfg(test)]
pub(crate) static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_mode_knob_sticks() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Strict);
        assert_eq!(kernel_mode(), KernelMode::Strict);
        assert_eq!(KernelMode::Fast.name(), "fast");
    }

    #[test]
    fn kernel_isa_names_the_avx2_build_where_the_cpu_has_it() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        let plain = if avx2 { "avx2" } else { "baseline" };
        set_kernel_mode(KernelMode::Strict);
        assert_eq!(kernel_isa(), plain);
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_isa(), if avx2 && fma { "avx2+fma" } else { plain });
        set_kernel_mode(KernelMode::Strict);
    }

    #[test]
    fn injected_panic_only_fires_on_the_marked_product() {
        // 251 rows: outside the shape range of every concurrently
        // running kernel/graph test, so arming the hook cannot hit them.
        inject_worker_panic(251);
        let (a, b) = (vec![0.0f32; 251 * 2], vec![0.0f32; 2 * 2]);
        // A different output row count is untouched.
        matmul_accum(&a[..4 * 2], &b, 4, 2, 2, &mut [0.0f32; 4 * 2]);
        let product =
            || std::panic::catch_unwind(|| matmul_accum(&a, &b, 251, 2, 2, &mut [0.0f32; 251 * 2]));
        let hit = product();
        clear_worker_panic();
        assert!(hit.is_err(), "armed product must panic");
        assert!(product().is_ok(), "disarmed hook must not fire");
    }
}
