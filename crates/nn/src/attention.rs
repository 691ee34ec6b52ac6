//! The path-attention encoder's forward — code2vec's network half (§3.1)
//! over a ragged batch: each sample's path contexts `[T[start] | P[path]
//! | T[end]]` are projected by `W`, squashed by `tanh`, scored against
//! the attention vector, softmaxed within the sample and pooled into one
//! `code`-wide row per sample.
//!
//! A loop's contexts pair up its few leaves and a batch's loops share
//! most of them, so the same `(start, path, end)` triple recurs many
//! times over, and everything up to the attention score is a function of
//! that triple alone. The forward therefore keys the rows
//! ([`RowAlias`]), gathers only the distinct rows from the two tables and
//! runs projection, `tanh` and scores on those; the scores fan out to
//! every row through the alias for the softmax, and the pool reads each
//! row's `tanh` output through it too. Every value is the bits of
//! computing all rows: a row's products depend on that row alone.
//!
//! One forward, two callers: the tape op
//! [`Graph::path_attention`](crate::Graph::path_attention), which keeps
//! the distinct rows for its backward, and [`path_attention`], which
//! keeps nothing (the encoder's tape-free forward).

use crate::graph::RowAlias;
use crate::kernels;
use crate::tensor::Tensor;

/// The encoder's four parameters, read where they lie.
#[derive(Clone, Copy, Debug)]
pub struct AttentionWeights<'a> {
    /// Terminal-token table, `token_rows × dt`.
    pub tokens: &'a Tensor,
    /// Path table, `path_rows × dp`.
    pub paths: &'a Tensor,
    /// Context projection, `(2·dt + dp) × code`.
    pub w: &'a Tensor,
    /// Attention vector, `code × 1`.
    pub attn: &'a Tensor,
}

impl AttentionWeights<'_> {
    /// Width of one context row, `2·dt + dp`.
    pub(crate) fn width(&self) -> usize {
        2 * self.tokens.cols() + self.paths.cols()
    }

    /// Width of the code vector.
    pub(crate) fn code(&self) -> usize {
        self.w.cols()
    }
}

/// Buffers the tape-free [`path_attention`] reuses from call to call.
/// Holds no value a later call reads.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    ctx: Vec<f32>,
    c: Vec<f32>,
    scores: Vec<f32>,
    alpha: Vec<f32>,
}

/// The forward of the path-attention encoder without a tape: `out` (the
/// zeroed `bounds.len() × code` result) receives one pooled row per
/// segment. Context row `r` is `(columns[0][r], columns[1][r],
/// columns[2][r])` — start token, path, end token — and `bounds[s]` is
/// segment `s`'s row range; a zero-row segment pools to zeros. The values
/// are bit for bit those of [`Graph::path_attention`](crate::Graph::path_attention).
///
/// # Panics
///
/// Panics when the columns, the bounds and `out` disagree on the shape,
/// the weights disagree on the widths, or an index is outside its table.
pub fn path_attention(
    weights: AttentionWeights<'_>,
    [s, m, e]: &[Vec<usize>; 3],
    bounds: &[(usize, usize)],
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) {
    let columns = [&s[..], &m[..], &e[..]];
    let alias = context_alias(weights, columns);
    let (d, n) = (alias.distinct_rows(), alias.len());
    let (width, code) = (weights.width(), weights.code());
    let bufs = Distinct {
        ctx: resized(&mut scratch.ctx, d * width),
        c: zeroed(&mut scratch.c, d * code),
        scores: zeroed(&mut scratch.scores, d),
        alpha: resized(&mut scratch.alpha, n),
    };
    forward(weights, columns, bounds, &alias, bufs, out);
}

/// Keys every context row by its triple and groups the repeats: one
/// `u64` per row (a third of the hashing a tuple key costs), injective
/// because every index is checked to be inside its table. Records the
/// rows looked up and the rows that will be projected.
pub(crate) fn context_alias(
    weights: AttentionWeights<'_>,
    [starts, mids, ends]: [&[usize]; 3],
) -> RowAlias {
    assert!(
        mids.len() == starts.len() && ends.len() == starts.len(),
        "path attention: index columns differ in length"
    );
    let (nt, np) = (weights.tokens.rows() as u64, weights.paths.rows() as u64);
    let keyspace = nt.checked_mul(np).and_then(|k| k.checked_mul(nt));
    assert!(keyspace.is_some(), "embedding tables too large to key");
    let alias = RowAlias::from_keys(starts.iter().zip(mids).zip(ends).map(|((&a, &p), &b)| {
        let (ka, kp, kb) = (a as u64, p as u64, b as u64);
        assert!(ka < nt && kp < np && kb < nt, "gather index out of bounds");
        (ka * np + kp) * nt + kb
    }));
    nvc_obs::record_embed_rows(3 * alias.len(), 3 * alias.distinct_rows());
    alias
}

/// What the forward computes on the `D` distinct rows, and the `N`-row
/// attention weights.
pub(crate) struct Distinct<'b> {
    /// `D × width`: the gathered context rows (written here).
    pub(crate) ctx: &'b mut [f32],
    /// `D × code`: the projection, then its `tanh` in place (zeroed on
    /// entry).
    pub(crate) c: &'b mut [f32],
    /// `D`: the attention scores (zeroed on entry).
    pub(crate) scores: &'b mut [f32],
    /// `N`: every row's score, then its attention weight (written here).
    pub(crate) alpha: &'b mut [f32],
}

/// The forward over the distinct rows `alias` names: gather, `ctx·W`,
/// `tanh`, scores, then the fan-out to all `N` rows, the segment softmax
/// and the pool into `out` (zeroed, `bounds.len() × code`). Each step
/// times itself on its own op line.
pub(crate) fn forward(
    weights: AttentionWeights<'_>,
    [starts, mids, ends]: [&[usize]; 3],
    bounds: &[(usize, usize)],
    alias: &RowAlias,
    bufs: Distinct<'_>,
    out: &mut [f32],
) {
    let AttentionWeights {
        tokens,
        paths,
        w,
        attn,
    } = weights;
    let (dt, dp) = (tokens.cols(), paths.cols());
    let (width, code, d) = (weights.width(), weights.code(), alias.distinct_rows());
    assert!(
        w.rows() == width && attn.shape() == (code, 1) && out.len() == bounds.len() * code,
        "path attention: W, the attention vector or the output disagrees on the widths"
    );
    assert_eq!(
        bounds.last().map_or(0, |&(_, r1)| r1),
        alias.len(),
        "path attention: segments must cover the context rows"
    );
    {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Gather);
        for (row, &r) in bufs.ctx.chunks_exact_mut(width).zip(alias.firsts()) {
            row[..dt].copy_from_slice(tokens.row(starts[r]));
            row[dt..dt + dp].copy_from_slice(paths.row(mids[r]));
            row[dt + dp..].copy_from_slice(tokens.row(ends[r]));
        }
    }
    kernels::matmul_accum(bufs.ctx, w.data(), d, width, code, bufs.c);
    kernels::tanh_inplace(bufs.c);
    kernels::matmul_accum(bufs.c, attn.data(), d, code, 1, bufs.scores);
    {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Gather);
        for (a, &slot) in bufs.alpha.iter_mut().zip(alias.slots()) {
            *a = bufs.scores[slot];
        }
    }
    kernels::segment_softmax(bounds, 1, bufs.alpha);
    kernels::segment_weighted_sum_via(bounds, bufs.alpha, bufs.c, alias.slots(), code, out);
}

/// `buf` as `n` zeros.
fn zeroed(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

/// `buf` as `n` elements the caller overwrites entirely.
fn resized(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    buf.resize(n, 0.0);
    buf
}
