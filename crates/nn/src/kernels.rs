//! Threaded, SIMD-explicit matmul kernels behind a two-mode numeric
//! contract.
//!
//! The process-wide [`KernelMode`] selects which contract the deployed
//! kernels honour:
//!
//! * [`KernelMode::Strict`] (the default) is the bitwise-parity contract
//!   proven by the kernel test tier, described below. Training and
//!   reproduction runs use it.
//! * [`KernelMode::Fast`] (the serving default — `nvc serve` / `nvc hub`)
//!   relaxes exactly six things, each gated by the ε-parity and
//!   decision-equivalence suites in `tests/fast_parity.rs`: fused
//!   `mul_add` accumulators (hardware FMA when the CPU has AVX2+FMA, see
//!   [`fast`]), reduction-dimension (`k`-split) sharding for tall-thin
//!   products ([`k_split_shards`]), a single-pass online-max softmax, a
//!   polynomial `tanh` within 2 ulp of the correctly rounded value
//!   ([`tanh_inplace`]), and — for the encoder's inference forward only —
//!   a projection factored over the three `k`-ranges of a context row and
//!   an attention-score dot split over 32 accumulator lanes
//!   ([`row_dots_accum`]). Fast mode never changes which special values
//!   (`NaN`/`±∞`) appear — only the rounding of finite results. That the
//!   inference forward *keeps* each table row's factored product for as
//!   long as the weights stand ([`row_matmul_accum_fast`]) is not a
//!   seventh: a kept row is bit for bit the row it would compute again.
//!
//! Both modes run the **same loop nests** ([`fast`] holds each body once,
//! generic over the multiply-add step): strict is the plain `acc + a * b`
//! instantiation, fast the fused one where the CPU has FMA, and what else
//! differs is the list above. Which instantiation a call runs is resolved
//! in one place ([`fast::MaddChoice::current`]); the entry points below
//! never branch between two bodies of the same arithmetic.
//!
//! Everything below this paragraph describes the **strict** contract.
//! Every kernel computes each output element's partial products in
//! exactly the ascending-`k` order of the textbook i-k-j loop — the one
//! oracle `tests/kernel_parity.rs` compares the deployed kernels with,
//! bit for bit. Two mechanical transformations are layered on top, and
//! both are chosen because they *cannot* change that order:
//!
//! * **Row sharding** ([`run_row_sharded`]): the output rows are split
//!   into contiguous shards, executed by the persistent worker pool
//!   ([`pool`]). Every output row of `A·B`, `Aᵀ·B` and `A·Bᵀ` depends
//!   only on whole input rows and is reduced independently, so any shard
//!   assignment — any thread count — produces the single-threaded bits.
//!   (Splitting the reduction dimension `k` instead would need
//!   per-thread partials whose combination reassociates the sum; that is
//!   why only rows are split.)
//! * **Register blocks of independent lanes** (the `mm`, `tn` and `nt`
//!   bodies in [`fast`]): the inner loops run over blocks of 8 to 32
//!   *independent* output accumulators (manual `f32x8`-style register
//!   blocks — no unstable `std::simd`, and in this mode no `mul_add`
//!   fusion), held in registers across the reduction. Lanes never share
//!   an accumulator, so each element's chain is untouched.
//!
//! The thread count is a process-wide knob ([`set_matmul_threads`],
//! `NVC_MATMUL_THREADS` in the environment, surfaced as
//! `NvConfig::matmul_threads` and `--matmul-threads` on the CLI). Because
//! of the parity contract the knob is *purely* a throughput dial: races
//! on it (e.g. two models configured differently) can change how fast an
//! answer arrives, never which answer arrives. Small products stay
//! single-threaded via a work floor ([`DEFAULT_MATMUL_GRAIN`]) so the
//! pool's condvar handoff never costs more than it saves.

pub mod fast;
pub mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};

use fast::MaddChoice;

/// Sentinel for "not yet initialized from the environment".
const UNSET: usize = usize::MAX;

/// Numeric contract of the deployed kernels — see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum KernelMode {
    /// Bitwise-parity kernels: ascending-`k` accumulation, rows-only
    /// sharding, no `mul_add`. Identical bits at any thread count.
    #[default]
    Strict,
    /// Reassociated kernels: FMA accumulators, `k`-split sharding,
    /// online-max softmax, polynomial `tanh`, and in the encoder's
    /// inference forward a factored projection and a lane-split score
    /// dot. ε-close to strict; identical decisions and identical
    /// special-value (`NaN`/`±∞`) propagation.
    Fast,
}

impl KernelMode {
    /// Stable lowercase name — the spelling used by `NVC_KERNEL_MODE`,
    /// `--kernel-mode` and the observability surfaces.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Strict => "strict",
            KernelMode::Fast => "fast",
        }
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "strict" => Ok(KernelMode::Strict),
            "fast" => Ok(KernelMode::Fast),
            other => Err(format!("unknown kernel mode {other:?} (strict|fast)")),
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel-mode sentinel/values (`UNSET` → read `NVC_KERNEL_MODE`).
static MODE: AtomicUsize = AtomicUsize::new(UNSET);

/// Requested worker count (`0`/`1` = single-threaded).
static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Minimum multiply-adds per *additional* worker.
static GRAIN: AtomicUsize = AtomicUsize::new(DEFAULT_MATMUL_GRAIN);

/// Failure-injection hook: worker row / total-row marker (tests only).
static PANIC_ROW: AtomicUsize = AtomicUsize::new(usize::MAX);
static PANIC_ROWS_TOTAL: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Default work floor: a worker is only added once it has at least this
/// many multiply-adds to itself (~a microsecond of FLOPs — the same
/// order as the pool's condvar handoff), which makes mid-sized products
/// (the 64×340·340×64 policy layers) profitable to shard.
pub const DEFAULT_MATMUL_GRAIN: usize = 16 * 1024;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The thread count `NVC_MATMUL_THREADS` asks for (`1` when unset or
/// unparsable) — the default [`NvConfig`-level](matmul_threads) value, so
/// a CI leg can drive the threaded path through every existing test
/// without touching configs.
pub fn default_matmul_threads() -> usize {
    env_usize("NVC_MATMUL_THREADS").unwrap_or(1).max(1)
}

/// Current requested matmul worker count.
pub fn matmul_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        UNSET => {
            let v = default_matmul_threads();
            THREADS.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Sets the process-wide matmul worker count (`0` and `1` both mean
/// single-threaded). Bitwise parity makes this safe to flip at any time.
pub fn set_matmul_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current work floor in multiply-adds per additional worker.
pub fn matmul_grain() -> usize {
    GRAIN.load(Ordering::Relaxed)
}

/// Sets the work floor (multiply-adds per additional worker). Production
/// runs at [`DEFAULT_MATMUL_GRAIN`]; benches and parity tests set `1` to
/// force sharding on deliberately tiny shapes.
pub fn set_matmul_grain(madds: usize) {
    GRAIN.store(madds.max(1), Ordering::Relaxed);
}

/// The mode `NVC_KERNEL_MODE` asks for ([`KernelMode::Strict`] when unset
/// or unparsable) — the default `NvConfig`-level value, so a CI leg can
/// drive the fast path through every existing test without touching
/// configs.
pub fn default_kernel_mode() -> KernelMode {
    match std::env::var("NVC_KERNEL_MODE") {
        Ok(v) => v.parse().unwrap_or(KernelMode::Strict),
        Err(_) => KernelMode::Strict,
    }
}

/// Current process-wide kernel mode.
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        UNSET => {
            let v = default_kernel_mode();
            MODE.store(v as usize, Ordering::Relaxed);
            v
        }
        v if v == KernelMode::Fast as usize => KernelMode::Fast,
        _ => KernelMode::Strict,
    }
}

/// Sets the process-wide kernel mode. Unlike the thread-count knob this
/// is *not* result-neutral: strict and fast differ in low-order bits (not
/// in decisions), so flip it at process scope — config application,
/// test pins — not mid-computation.
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(mode as usize, Ordering::Relaxed);
}

/// Workers actually engaged for a product with `rows` output rows and
/// `madds` total multiply-adds: the requested count, capped by the row
/// count (shards are whole rows) and by the work floor.
pub(crate) fn effective_threads(rows: usize, madds: usize) -> usize {
    let requested = matmul_threads();
    if requested <= 1 || rows <= 1 {
        return 1;
    }
    requested.min(rows).min(1 + madds / matmul_grain())
}

/// Fast-mode-only scheduler: how many reduction-dimension (`k`) shards a
/// `rows × kd` product should split into, or `None` when row sharding
/// (or staying serial) already uses every funded worker. `k`-splitting
/// only wins on tall-thin products — the 340-wide policy shapes — where
/// the output row count is what caps [`effective_threads`]; per-shard
/// partial sums reassociate the reduction, which is why strict mode
/// never takes this path.
pub(crate) fn k_split_shards(rows: usize, kd: usize, madds: usize) -> Option<usize> {
    let requested = matmul_threads();
    if requested <= 1 || kd < 2 || rows == 0 {
        return None;
    }
    let funded = requested.min(1 + madds / matmul_grain());
    if funded <= rows.max(1) {
        return None;
    }
    Some(funded.min(kd))
}

/// Fast-mode `k`-split driver: runs `kernel(k0, k1, partial)` once per
/// `k` window, each window accumulating the full `m × n` output into its
/// own zeroed partial buffer, then combines the partials into `out` in
/// ascending window order on the caller. The shard list goes to the same
/// [`pool::run_spans`] as row sharding, so a `k`-split shard's panic
/// resurfaces like a row shard's (the injection marker stays the
/// *output* row count `m`; an armed "row" index is interpreted as a `k`
/// index here).
pub(crate) fn run_mm_k_split(
    shards: usize,
    m: usize,
    n: usize,
    kd: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(shards >= 2 && shards <= kd);
    let per = kd.div_ceil(shards);
    let nwin = kd.div_ceil(per);
    let mut partials = vec![0.0f32; nwin * m * n];
    let mut spans = Vec::with_capacity(nwin);
    let mut rest = partials.as_mut_slice();
    let mut k0 = 0;
    while k0 < kd {
        let k1 = (k0 + per).min(kd);
        let (window, tail) = rest.split_at_mut(m * n);
        rest = tail;
        spans.push((k0, k1, window));
        k0 = k1;
    }
    pool::run_spans(spans, m, kernel);
    for window in partials.chunks_exact(m * n) {
        for (o, &p) in out.iter_mut().zip(window.iter()) {
            *o += p;
        }
    }
}

/// Arms the failure-injection hook: the shard owning `row` panics, but
/// only in products whose total output row count is `rows_total` (the
/// marker keeps concurrently running tests out of the blast radius).
#[doc(hidden)]
pub fn inject_worker_panic(row: usize, rows_total: usize) {
    PANIC_ROW.store(row, Ordering::Relaxed);
    PANIC_ROWS_TOTAL.store(rows_total, Ordering::Relaxed);
}

/// Disarms [`inject_worker_panic`].
#[doc(hidden)]
pub fn clear_worker_panic() {
    PANIC_ROW.store(usize::MAX, Ordering::Relaxed);
    PANIC_ROWS_TOTAL.store(usize::MAX, Ordering::Relaxed);
}

fn check_injected_panic(r0: usize, r1: usize, rows_total: usize) {
    if PANIC_ROWS_TOTAL.load(Ordering::Relaxed) == rows_total {
        let row = PANIC_ROW.load(Ordering::Relaxed);
        if (r0..r1).contains(&row) {
            panic!("injected panic in matmul worker for rows {r0}..{r1}");
        }
    }
}

/// Runs `kernel(r0, r1, rows_slice)` over contiguous shards of `out`'s
/// `rows × cols` row-major buffer.
///
/// With `threads <= 1` the kernel runs on the calling thread. Otherwise
/// the shard list goes to the persistent worker pool
/// ([`pool::run_spans`]), which makes a panicking shard re-panic on the
/// caller only after every shard has been accounted for — a dead shard
/// can neither hang the product nor let a half-written output escape as
/// if it were complete.
pub(crate) fn run_row_sharded(
    threads: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), rows * cols);
    if threads <= 1 || rows <= 1 {
        check_injected_panic(0, rows, rows);
        kernel(0, rows, out);
        return;
    }
    let per_shard = rows.div_ceil(threads);
    let mut spans = Vec::with_capacity(threads);
    let mut rest = out;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + per_shard).min(rows);
        let (shard, tail) = rest.split_at_mut((r1 - r0) * cols);
        rest = tail;
        spans.push((r0, r1, shard));
        r0 = r1;
    }
    pool::run_spans(spans, rows, kernel);
}

/// Runs `kernel(s0, s1, segments_slice)` over shards of whole *segments*
/// (`bounds[s]` = the row range of segment `s`, contiguous and
/// ascending). Shards are cut only between segments, balanced by row
/// count, so per-segment computation order — and therefore every output
/// bit — is identical at any thread count. The injection marker is the
/// covered row total, like the row driver's.
pub(crate) fn run_segment_sharded(
    threads: usize,
    bounds: &[(usize, usize)],
    cols: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    let nsegs = bounds.len();
    let rows_total = bounds.last().map_or(0, |&(_, r1)| r1);
    debug_assert_eq!(out.len(), rows_total * cols);
    if threads <= 1 || nsegs <= 1 {
        check_injected_panic(0, nsegs, rows_total);
        kernel(0, nsegs, out);
        return;
    }
    let target = rows_total.div_ceil(threads).max(1);
    let mut spans = Vec::with_capacity(threads);
    let mut rest = out;
    let mut s0 = 0;
    while s0 < nsegs {
        let row_base = bounds[s0].0;
        let mut s1 = s0 + 1;
        while s1 < nsegs && bounds[s1 - 1].1 - row_base < target {
            s1 += 1;
        }
        let (shard, tail) = rest.split_at_mut((bounds[s1 - 1].1 - row_base) * cols);
        rest = tail;
        spans.push((s0, s1, shard));
        s0 = s1;
    }
    pool::run_spans(spans, rows_total, kernel);
}

/// `out += a × b` over row-major slices (`a`: `m×kd`, `b`: `kd×n`, `out`:
/// `m×n`) — the deployed matmul, callable on any window of a larger
/// buffer, so a row range of a weight matrix is multiplied where it lies.
/// [`Tensor::matmul_accum_into`](crate::Tensor::matmul_accum_into) is
/// this function behind shape checks; its docs state the two modes'
/// contracts.
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
/// ([`Graph::linear`](crate::Graph::linear)): fast mode `k`-splits where
/// that funds more workers than the rows do, everything else shards rows.
pub(crate) fn matmul_untimed(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    let madds = m.saturating_mul(kd).saturating_mul(n);
    let madd = MaddChoice::current();
    if kernel_mode() == KernelMode::Fast {
        if let Some(shards) = k_split_shards(m, kd, madds) {
            run_mm_k_split(shards, m, n, kd, out, &|k0, k1, partial| {
                fast::mm_rows(madd, a, b, kd, n, k0, k1, 0, m, partial);
            });
            return;
        }
    }
    run_row_sharded(effective_threads(m, madds), m, n, out, &|r0, r1, rows| {
        fast::mm_rows(madd, a, b, kd, n, 0, kd, r0, r1, rows);
    });
}

/// `out += row × b` for one `kd`-wide row against `b: kd×n`, in **fast-mode
/// arithmetic whatever the process mode** and always on the calling
/// thread: never row-sharded (there is one row), never `k`-split. The
/// result is therefore a function of `row` and `b` alone — the same bits
/// as fast [`matmul_accum`]`(row, b, 1, kd, n, out)` at one kernel thread,
/// at every thread count — which is what lets the encoder's inference
/// forward compute a table row's projection once and keep it.
///
/// # Panics
///
/// Panics when a slice length disagrees with `kd`, `n`.
pub fn row_matmul_accum_fast(row: &[f32], b: &[f32], kd: usize, n: usize, out: &mut [f32]) {
    assert_eq!(row.len(), kd, "row_matmul row is not {kd} wide");
    assert_eq!(b.len(), kd * n, "row_matmul right operand is not {kd}x{n}");
    assert_eq!(out.len(), n, "row_matmul output is not {n} wide");
    let _timer = nvc_obs::time_op(nvc_obs::Op::MatMul);
    fast::mm_rows(MaddChoice::fast(), row, b, kd, n, 0, kd, 0, 1, out);
}

/// `out[r] += a[r] · v` for every row of `a: m×kd` — the attention-score
/// product of the encoder's inference forward, its only caller.
///
/// Strict is [`matmul_accum`] with `n = 1`: one ascending-`k` chain per
/// row, starting from `out[r]`. Fast is a lane-split dot
/// (`fast::lane_dot_g`): element `k` folds into accumulator lane
/// `k mod 32` (four 8-wide registers, ascending `k` within a lane, every
/// lane from zero), the 32 lanes meet in one fixed reduction tree, and the
/// total is added to `out[r]`. The tree is the same for every row, so a
/// row's score does not depend on its batch-mates, on where a row shard
/// was cut or on the thread count, and this product never `k`-splits. A
/// single chain is latency-bound (one madd per ~4 cycles); 32 independent
/// lanes are not.
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
    let threads = effective_threads(m, m.saturating_mul(kd));
    let madd = MaddChoice::fast();
    run_row_sharded(threads, m, 1, out, &|r0, r1, rows| {
        fast::row_dots(madd, a, v, kd, r0, r1, rows);
    });
}

/// Elementwise `tanh` in place — the one `tanh` of each mode, wherever
/// `tanh` runs (the tape's [`Graph::tanh`](crate::Graph::tanh), the
/// encoder's tape-free forward, the policy net).
///
/// Strict is `f32::tanh` per element. Fast is a branch-free polynomial
/// body ([`fast`]) with no libm call and no table: within 2 ulp of the
/// correctly rounded value, odd, `|tanh| ≤ 1`, `NaN → NaN`, `±∞ → ±1`,
/// `±0 → ±0`, subnormals → themselves, `|x| ≥ 9.1 → ±1` exactly. Each
/// element is a pure function of itself, so results do not depend on
/// where in a slice (vector body or tail) an element sits.
pub fn tanh_inplace(xs: &mut [f32]) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::Tanh);
    if kernel_mode() == KernelMode::Fast {
        fast::tanh(MaddChoice::fast(), xs);
        return;
    }
    for x in xs.iter_mut() {
        *x = x.tanh();
    }
}

/// Softmax down the rows of each segment of a `rows × cols` matrix, in
/// place, independently per column. `bounds[s]` is segment `s`'s row
/// range (contiguous, ascending, covering `data`); zero-row segments are
/// skipped.
///
/// Sharded over whole segments (cuts only between segments), so each
/// segment's max/exp/sum/divide order is untouched and the threaded bits
/// equal the serial ones. Strict runs the three-pass max / exp-sum /
/// divide; fast the single-pass online-max kernel in the same element
/// order.
pub fn segment_softmax(bounds: &[(usize, usize)], cols: usize, data: &mut [f32]) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentSoftmax);
    let rows_total = bounds.last().map_or(0, |&(_, r1)| r1);
    // The ×8 scales the element count to a multiply-add-equivalent cost
    // (max + exp + sum + divide passes, exp being the expensive one).
    let threads = effective_threads(
        bounds.len(),
        rows_total.saturating_mul(cols).saturating_mul(8),
    );
    let fast = kernel_mode() == KernelMode::Fast;
    run_segment_sharded(threads, bounds, cols, data, &|s0, s1, slice| {
        let base = bounds[s0].0;
        for &(r0, r1) in &bounds[s0..s1] {
            if r0 == r1 {
                continue;
            }
            for c in 0..cols {
                if fast {
                    fast::online_softmax_strided(slice, (r0 - base) * cols + c, cols, r1 - r0);
                    continue;
                }
                let at = |r: usize| (r - base) * cols + c;
                let m = (r0..r1).fold(f32::NEG_INFINITY, |m, r| m.max(slice[at(r)]));
                let mut sum = 0.0f32;
                for r in r0..r1 {
                    let e = (slice[at(r)] - m).exp();
                    slice[at(r)] = e;
                    sum += e;
                }
                for r in r0..r1 {
                    slice[at(r)] /= sum;
                }
            }
        }
    });
}

/// Attention pool: `out[s] += Σ_r weights[r] · values[r]` over segment
/// `s`'s rows, accumulated in ascending row order (`values`: `rows × d`,
/// `out`: `bounds.len() × d`). Zero-row segments add nothing.
///
/// Output row `s` is segment `s`'s pooled row, so row sharding *is*
/// segment sharding here: a shard owns whole segments and within each the
/// ascending-`r` accumulation is unchanged — threaded bits equal serial
/// bits.
pub fn segment_weighted_sum(
    bounds: &[(usize, usize)],
    weights: &[f32],
    values: &[f32],
    d: usize,
    out: &mut [f32],
) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::SegmentWeightedSum);
    let rows_total = bounds.last().map_or(0, |&(_, r1)| r1);
    let threads = effective_threads(bounds.len(), rows_total.saturating_mul(d));
    let madd = MaddChoice::current();
    run_row_sharded(threads, bounds.len(), d, out, &|s0, s1, out_rows| {
        for (s, &(r0, r1)) in bounds[s0..s1].iter().enumerate() {
            let orow = &mut out_rows[s * d..(s + 1) * d];
            fast::weighted_sum(madd, weights, values, d, r0, r1, orow);
        }
    });
}

/// `out += aᵀ × b` over row-major slices (`a`: `kr×m`, `b`: `kr×n`, `out`:
/// `m×n`) — the `xᵀ·g` weight-gradient product. A row window of a taller
/// pair is the same call on the window's sub-slices. Output rows shard
/// across the kernel pool; every output element accumulates in ascending
/// `k` in both modes.
///
/// Not timed here: [`Tensor::matmul_tn_accum_into`](crate::Tensor::matmul_tn_accum_into)
/// charges the call to its own op.
///
/// # Panics
///
/// Panics when a slice length disagrees with `kr`, `m`, `n`.
pub fn matmul_tn_accum(a: &[f32], b: &[f32], kr: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), kr * m, "matmul_tn left operand is not {kr}x{m}");
    assert_eq!(b.len(), kr * n, "matmul_tn right operand is not {kr}x{n}");
    assert_eq!(out.len(), m * n, "matmul_tn output is not {m}x{n}");
    let threads = effective_threads(m, kr.saturating_mul(m).saturating_mul(n));
    let madd = MaddChoice::current();
    run_row_sharded(threads, m, n, out, &|i0, i1, rows| {
        fast::tn_rows(madd, a, b, m, n, i0, i1, rows);
    });
}

/// [`matmul_tn_accum`] on the calling thread whatever the thread count,
/// for products too small for a pool hand-off (`SegmentMatMul`'s backward
/// runs one per segment).
pub(crate) fn matmul_tn_accum_here(a: &[f32], b: &[f32], m: usize, n: usize, out: &mut [f32]) {
    fast::tn_rows(MaddChoice::current(), a, b, m, n, 0, m, out);
}

/// `Σ_k a[k]·b[k]` from zero in ascending `k` — the chain of one
/// [`matmul_nt_accum`] output element.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    fast::dot(MaddChoice::current(), a, b)
}

/// `out += a × bᵀ` over row-major slices (`a`: `m×kd`, `b`: `n×kd`, `out`:
/// `m×n`) — the `g·wᵀ` input-gradient product behind
/// [`Tensor::matmul_nt_accum_into`](crate::Tensor::matmul_nt_accum_into).
/// Output rows shard across the kernel pool; `bᵀ` is packed once per call
/// ([`fast::pack_nt_panels`]), so every shard reads the same panels.
///
/// # Panics
///
/// Panics when a slice length disagrees with `m`, `kd`, `n`.
pub fn matmul_nt_accum(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * kd, "matmul_nt left operand is not {m}x{kd}");
    assert_eq!(b.len(), n * kd, "matmul_nt right operand is not {n}x{kd}");
    assert_eq!(out.len(), m * n, "matmul_nt output is not {m}x{n}");
    let threads = effective_threads(m, m.saturating_mul(kd).saturating_mul(n));
    let madd = MaddChoice::current();
    let panels = fast::pack_nt_panels(b, kd, n);
    run_row_sharded(threads, m, n, out, &|i0, i1, rows| {
        fast::nt_rows(madd, a, &panels, kd, n, i0, i1, rows);
    });
}

/// Serializes tests that assert on (rather than merely set) the global
/// knobs — without it, concurrently running unit tests would race on the
/// process-wide atomics and flake.
#[cfg(test)]
pub(crate) static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_clamp_and_stick() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(0);
        assert_eq!(matmul_threads(), 1);
        set_matmul_threads(6);
        assert_eq!(matmul_threads(), 6);
        set_matmul_grain(0);
        assert_eq!(matmul_grain(), 1);
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        set_matmul_threads(default_matmul_threads());
    }

    #[test]
    fn effective_threads_respects_rows_and_grain() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(8);
        set_matmul_grain(1000);
        // 3 rows cap the shard count regardless of the request.
        assert_eq!(effective_threads(3, usize::MAX / 2), 3);
        // 2500 madds at grain 1000 fund 1 + 2 workers.
        assert_eq!(effective_threads(100, 2500), 3);
        // Tiny products stay serial.
        assert_eq!(effective_threads(100, 10), 1);
        assert_eq!(effective_threads(1, usize::MAX / 2), 1);
        set_matmul_threads(1);
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        assert_eq!(effective_threads(100, usize::MAX / 2), 1);
        set_matmul_threads(default_matmul_threads());
    }

    #[test]
    fn sharded_driver_covers_every_row_exactly_once() {
        for (threads, rows) in [(1usize, 5usize), (2, 5), (3, 7), (8, 3), (4, 0), (5, 100)] {
            let cols = 3;
            let mut out = vec![0.0f32; rows * cols];
            run_row_sharded(threads, rows, cols, &mut out, &|r0, r1, slice| {
                for i in r0..r1 {
                    for c in 0..cols {
                        slice[(i - r0) * cols + c] += (i * cols + c) as f32;
                    }
                }
            });
            let want: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
            assert_eq!(out, want, "threads={threads} rows={rows}");
        }
    }

    #[test]
    fn kernel_mode_knob_parses_and_sticks() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Strict);
        assert_eq!(kernel_mode(), KernelMode::Strict);
        assert_eq!("fast".parse(), Ok(KernelMode::Fast));
        assert_eq!(" Strict ".parse(), Ok(KernelMode::Strict));
        assert!("blazing".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::Fast.name(), "fast");
        set_kernel_mode(default_kernel_mode());
    }

    #[test]
    fn k_split_engages_only_on_tall_thin_funded_products() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(8);
        set_matmul_grain(1);
        // The 2×340·340×64 policy shape: rows cap row sharding at 2, so
        // the 8 funded workers split the 340-deep reduction instead.
        assert_eq!(k_split_shards(2, 340, 2 * 340 * 64), Some(8));
        // Short reductions can't hand every worker a window.
        assert_eq!(k_split_shards(2, 3, usize::MAX / 2), Some(3));
        // Wide-enough outputs keep row sharding (it funds all workers).
        assert_eq!(k_split_shards(512, 340, usize::MAX / 2), None);
        // Degenerate shapes never split.
        assert_eq!(k_split_shards(2, 1, usize::MAX / 2), None);
        assert_eq!(k_split_shards(0, 340, usize::MAX / 2), None);
        // The work floor still gates the split.
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        assert_eq!(k_split_shards(2, 340, 10), None);
        set_matmul_threads(1);
        assert_eq!(k_split_shards(2, 340, usize::MAX / 2), None);
        set_matmul_threads(default_matmul_threads());
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
    }

    #[test]
    fn k_split_driver_accumulates_every_window_into_out() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (m, n, kd, shards) = (3usize, 2usize, 10usize, 4usize);
        // Integer-valued work keeps float addition exact, so the partial
        // combine must reproduce the serial sum bit-for-bit.
        let mut out = vec![1.0f32; m * n];
        run_mm_k_split(shards, m, n, kd, &mut out, &|k0, k1, partial| {
            for i in 0..m {
                for j in 0..n {
                    for k in k0..k1 {
                        partial[i * n + j] += (i * 100 + j * 10 + k) as f32;
                    }
                }
            }
        });
        for i in 0..m {
            for j in 0..n {
                let want: f32 = 1.0 + (0..kd).map(|k| (i * 100 + j * 10 + k) as f32).sum::<f32>();
                assert_eq!(out[i * n + j], want, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn injected_panic_only_fires_on_the_marked_product() {
        // 251 rows: outside the shape range of every concurrently
        // running kernel/graph test, so arming the hook cannot hit them.
        inject_worker_panic(1, 251);
        // A different total row count is untouched.
        let mut out = vec![0.0f32; 4 * 2];
        run_row_sharded(2, 4, 2, &mut out, &|_, _, _| {});
        // The marked one panics (and the scope joins, so no hang).
        let hit = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 251 * 2];
            run_row_sharded(3, 251, 2, &mut out, &|_, _, _| {});
        });
        clear_worker_panic();
        assert!(hit.is_err(), "armed shard must panic");
        let again = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 251 * 2];
            run_row_sharded(3, 251, 2, &mut out, &|_, _, _| {});
        });
        assert!(again.is_ok(), "disarmed hook must not fire");
    }
}
