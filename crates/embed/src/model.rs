//! The attention-based code encoder (code2vec's network half).

use std::cell::Cell;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

use serde::{Deserialize, Serialize};

use nvc_nn::{
    kernels, obs, Graph, KernelMode, NodeId, ParamId, ParamStore, RowAlias, Segments, Tensor,
};

use crate::vocab::PathSample;

/// Hyperparameters of the embedding network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbedConfig {
    /// Rows of the terminal-token embedding table.
    pub token_buckets: usize,
    /// Rows of the path embedding table.
    pub path_buckets: usize,
    /// Terminal embedding width.
    pub token_dim: usize,
    /// Path embedding width.
    pub path_dim: usize,
    /// Code-vector width (the observation the agent sees).
    pub code_dim: usize,
    /// Maximum path contexts per loop.
    pub max_paths: usize,
}

impl EmbedConfig {
    /// The paper's configuration: a 340-feature code vector (§3.1).
    pub fn paper() -> Self {
        EmbedConfig {
            token_buckets: 2048,
            path_buckets: 4096,
            token_dim: 128,
            path_dim: 128,
            code_dim: 340,
            max_paths: 100,
        }
    }

    /// A small configuration for tests and fast experimentation.
    pub fn fast() -> Self {
        EmbedConfig {
            token_buckets: 256,
            path_buckets: 512,
            token_dim: 16,
            path_dim: 16,
            code_dim: 32,
            max_paths: 24,
        }
    }

    /// Width of one concatenated path-context row.
    pub fn context_width(&self) -> usize {
        2 * self.token_dim + self.path_dim
    }
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The code2vec-style encoder. Owns parameter handles; weights live in the
/// shared [`ParamStore`] so the PPO update trains them end-to-end.
#[derive(Debug, Clone)]
pub struct CodeEmbedder {
    cfg: EmbedConfig,
    token_table: ParamId,
    path_table: ParamId,
    w_context: ParamId,
    attention: ParamId,
    /// Fast-mode inference's projected table rows (see
    /// [`CodeEmbedder::infer_rows`]); empty until that path first runs.
    memo: ProjectionMemo,
}

impl CodeEmbedder {
    /// Registers the encoder's parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: &EmbedConfig) -> Self {
        let token_table =
            store.param_uniform("embed.tokens", cfg.token_buckets, cfg.token_dim, 0.25);
        let path_table = store.param_uniform("embed.paths", cfg.path_buckets, cfg.path_dim, 0.25);
        let w_context = store.param_xavier("embed.w", cfg.context_width(), cfg.code_dim);
        let attention = store.param_xavier("embed.attn", cfg.code_dim, 1);
        CodeEmbedder {
            cfg: cfg.clone(),
            token_table,
            path_table,
            w_context,
            attention,
            memo: ProjectionMemo::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &EmbedConfig {
        &self.cfg
    }

    /// Terminal table handle (for tests/inspection).
    pub fn token_table(&self) -> ParamId {
        self.token_table
    }

    /// Path table handle.
    pub fn path_table(&self) -> ParamId {
        self.path_table
    }

    /// Context transform handle.
    pub fn context_weight(&self) -> ParamId {
        self.w_context
    }

    /// Attention vector handle.
    pub fn attention_vector(&self) -> ParamId {
        self.attention
    }

    /// Encodes one loop sample into a `1×code_dim` vector node.
    ///
    /// Empty samples (loops with fewer than two leaves) embed to zero.
    ///
    /// The embedding tables are never cloned onto the tape: the per-path
    /// rows are gathered straight from the parameter store
    /// ([`Graph::gather_param_rows`]), which removes the multi-megabyte
    /// table copy each sample's graph used to start with. Gradients still
    /// scatter-add into the tables as before. The small dense parameters
    /// (`W`, attention) are memoized per graph, so a batched forward
    /// reads them once, not once per sample.
    pub fn forward(&self, g: &mut Graph<'_>, sample: &PathSample) -> NodeId {
        if sample.is_empty() {
            return g.input(Tensor::zeros(1, self.cfg.code_dim));
        }
        let w = g.param(self.w_context);
        let attn = g.param(self.attention);

        let starts = g.gather_param_rows(self.token_table, &sample.starts); // n × dt
        let mids = g.gather_param_rows(self.path_table, &sample.paths); // n × dp
        let ends = g.gather_param_rows(self.token_table, &sample.ends); // n × dt
        let ctx = g.concat_cols(&[starts, mids, ends]); // n × (2dt+dp)
        let proj = g.matmul(ctx, w); // n × code
        let c = g.tanh(proj);

        let scores = g.matmul(c, attn); // n × 1
        let scores_row = g.transpose(scores); // 1 × n
        let alpha = g.softmax_rows(scores_row); // 1 × n
        g.matmul(alpha, c) // 1 × code
    }

    /// Encodes a batch of samples into one `n × code_dim` node (row `i`
    /// is exactly [`CodeEmbedder::forward`] of `samples[i]`, bitwise).
    /// PPO's rollout collection and minibatch updates stack their distinct
    /// samples here and run the policy once over all rows; consumers that
    /// need no gradients take [`CodeEmbedder::infer_rows`].
    ///
    /// Context counts are ragged, so the batch runs as a **segmented**
    /// forward rather than a per-sample loop: the whole `N × context_width`
    /// context matrix is written straight from the two tables by one
    /// [`Graph::gather_contexts`] (whose table gradients scatter in the
    /// per-sample order: per sample its starts, then its ends), goes
    /// through one projection + `tanh`, and attention is one
    /// `segment_softmax_rows` + `segment_weighted_sum` over a
    /// [`Segments`] row partition. That single stacked `N×context_width ·
    /// context_width×code_dim` projection is the flop-dominant matmul of
    /// the whole system; the `nvc-nn` kernel runs it in register blocks
    /// while keeping every row's accumulation order — and thus bitwise
    /// parity — intact. The segment kernels fix their reduction order per
    /// segment, so values *and* parameter gradients stay
    /// bitwise-identical to the per-sample spelling (one [`forward`] chain
    /// per sample, stacked with `concat_rows` — the oracle of this crate's
    /// parity tests).
    ///
    /// A `(start, path, end)` triple that recurs in the batch — most do:
    /// a loop's contexts pair up its few leaves, and a batch's loops
    /// share them — is projected, `tanh`ed and scored **once**, and the
    /// result copied to its repeats ([`RowAlias`]): the same bytes as
    /// computing every row. Only the forward is shared. The backward
    /// runs over all `N` rows, because the per-sample tape sums a
    /// repeated row's gradients one sample at a time and adding them
    /// together first would regroup those sums.
    ///
    /// Empty samples embed to zero rows, exactly as in [`forward`], and an
    /// empty `samples` gives a `0 × code_dim` node, as in
    /// [`CodeEmbedder::infer_rows`].
    ///
    /// # Panics
    ///
    /// Panics when a sample indexes past a table.
    ///
    /// [`forward`]: CodeEmbedder::forward
    pub fn forward_batch(&self, g: &mut Graph<'_>, samples: &[&PathSample]) -> NodeId {
        let segs = Segments::from_lens(samples.iter().map(|s| s.len()));
        let total = segs.total_rows();
        if total == 0 {
            // No sample has a context: the whole batch embeds to zero and
            // no parameter is touched (mirrors `forward`'s empty case).
            return g.input(Tensor::zeros(samples.len(), self.cfg.code_dim));
        }

        // One pass over the samples builds the three index columns of
        // the context matrix and keys its rows. A loop's contexts pair up
        // its few leaves and a batch's loops share most of them, so the
        // same (start, path, end) row recurs many times over, and
        // everything up to the attention score is a function of that row
        // alone. Key the rows — one u64 per triple (a third of the hashing
        // a tuple key costs), injective because every index is checked to
        // be inside its table — so those stages run once per distinct
        // triple.
        let keying = obs::time_op(obs::Op::Dedup);
        let (nt, np) = (self.cfg.token_buckets as u64, self.cfg.path_buckets as u64);
        let keyspace = nt.checked_mul(np).and_then(|k| k.checked_mul(nt));
        assert!(keyspace.is_some(), "embedding tables too large to key");
        let mut columns = [(); 3].map(|()| Vec::with_capacity(total));
        let mut keys = Vec::with_capacity(total);
        for s in samples {
            for ((&a, &p), &b) in s.starts.iter().zip(&s.paths).zip(&s.ends) {
                let (ka, kp, kb) = (a as u64, p as u64, b as u64);
                assert!(ka < nt && kp < np && kb < nt, "gather index out of bounds");
                keys.push((ka * np + kp) * nt + kb);
                columns[0].push(a);
                columns[1].push(p);
                columns[2].push(b);
            }
        }
        drop(keying);
        let repeats = RowAlias::from_keys(keys);
        obs::record_embed_rows(3 * total, 3 * repeats.distinct_rows());

        let w = g.param(self.w_context);
        let attn = g.param(self.attention);
        let ctx = g.gather_contexts(self.token_table, self.path_table, columns, &segs); // N × (2dt+dp)
        let proj = g.segment_matmul(ctx, w, &segs, &repeats); // N × code
        let c = g.tanh_rows(proj, &repeats);
        let scores = g.segment_matmul(c, attn, &segs, &repeats); // N × 1
        let alpha = g.segment_softmax_rows(scores, &segs); // N × 1
        g.segment_weighted_sum(alpha, c, &segs) // n × code
    }

    /// The tape-free forward every **no-gradient** consumer runs: one
    /// `code_dim`-wide embedding row per input sample, read straight from
    /// the store — no [`Graph`], no tape nodes, no copy of `W`. Greedy
    /// inference (the trainer's `predict_batch`, hence every serve flush)
    /// and the supervised agents' labelling passes enter here; whatever
    /// needs gradients stays on [`forward_batch`], which with the
    /// per-sample [`forward`] is also this function's oracle.
    ///
    /// Repeated samples (content equality, grouped by a [`RowAlias`]) embed
    /// once and fan out. Empty samples embed to zero rows; an empty `rows`
    /// gives a `0 × code_dim` tensor.
    ///
    /// **Strict mode** gathers the `N × context_width` context matrix,
    /// multiplies it by `W` once, then `tanh`, scores, segment softmax and
    /// weighted sum — the tape's kernels in the tape's order, so every
    /// value is bitwise-equal to [`forward_batch`].
    ///
    /// **Fast mode** uses that `ctx·W = e_start·W[..dt] +
    /// e_path·W[dt..dt+dp] + e_end·W[dt+dp..]` and that at inference each
    /// term is a constant of the weights: identifiers are alpha-renamed and
    /// literals bucketed before hashing, so traffic touches a few hundred
    /// of the tables' rows over and over. The first time a `(role, row)`
    /// is looked up its product with the role's row range of `W` is
    /// computed — by [`kernels::row_matmul_accum_fast`], on that row alone
    /// — and **kept for the life of those weights**; every later context,
    /// in this call or any other, on this thread or any other, reads it.
    /// Context `r`'s projection is assembled as `(S[r] + P[r]) + E[r]`, in
    /// that order. Per element that is three `k`-range partials summed
    /// instead of one chain — a reassociation under fast mode's contract:
    /// ε-close to strict, special values propagated identically,
    /// decisions identical. Keeping the products changes no bit (a kept
    /// row is a pure function of the weights, the role and the row), and
    /// the attention scores come from the lane-split
    /// [`kernels::row_dots_accum`]; so a sample's embedding does not
    /// depend on its batch-mates or on what was served before it.
    ///
    /// The kept rows are valid for exactly one [`ParamStore::stamp`]: a
    /// call that sees another stamp — anything that could have changed a
    /// weight renews it — drops them all and starts over, and they are
    /// freed with the embedder. Nothing is evicted and nothing needs to be:
    /// at most every table row is kept once per role,
    /// `(2·token_buckets + path_buckets) · code_dim · 4` bytes (10.6 MiB
    /// at [`EmbedConfig::paper`], 128 KiB at [`EmbedConfig::fast`]; plus 24
    /// bytes of slot per table row and role), of which real traffic fills
    /// a few percent. The process-wide total is the always-on
    /// `embed_memo_bytes` gauge.
    ///
    /// The other intermediates live in per-thread buffers reused from call
    /// to call; in steady state only the result is allocated.
    ///
    /// # Panics
    ///
    /// Panics when a sample's index vectors differ in length or index
    /// past a table.
    ///
    /// [`forward`]: CodeEmbedder::forward
    /// [`forward_batch`]: CodeEmbedder::forward_batch
    pub fn infer_rows(&self, store: &ParamStore, rows: &[&PathSample]) -> Tensor {
        let code = self.cfg.code_dim;
        let repeats = RowAlias::from_keys(rows.iter().copied());
        let distinct: Vec<&PathSample> = repeats.firsts().iter().map(|&r| rows[r]).collect();
        let mut bounds = Vec::with_capacity(distinct.len());
        let mut total = 0usize;
        for s in &distinct {
            let n = s.len();
            assert!(
                s.starts.len() == n && s.ends.len() == n,
                "path sample index vectors differ in length"
            );
            bounds.push((total, total + n));
            total += n;
        }
        let mut out = Tensor::zeros(distinct.len(), code);
        if total > 0 {
            // Taken, not borrowed: a panic below leaves an empty set
            // behind instead of a poisoned one.
            let mut scratch = INFER_SCRATCH.with(Cell::take);
            self.infer_into(store, &distinct, &bounds, &mut scratch, out.data_mut());
            INFER_SCRATCH.with(|cell| cell.set(scratch));
        }
        if distinct.len() == rows.len() {
            return out;
        }
        let mut fanned = Tensor::zeros(rows.len(), code);
        for (r, &u) in repeats.slots().iter().enumerate() {
            fanned.data_mut()[r * code..(r + 1) * code].copy_from_slice(out.row(u));
        }
        fanned
    }

    /// The forward over distinct samples with `total > 0` contexts:
    /// projection by the current mode's spelling, then the shared tail.
    /// `out` is the zeroed `samples.len() × code_dim` result.
    fn infer_into(
        &self,
        store: &ParamStore,
        samples: &[&PathSample],
        bounds: &[(usize, usize)],
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) {
        let code = self.cfg.code_dim;
        let n = bounds.last().map_or(0, |&(_, r1)| r1);
        if kernels::kernel_mode() == KernelMode::Fast {
            self.project_memoized(store, samples, n, scratch);
        } else {
            self.project_stacked(store, samples, n, scratch);
        }
        let proj = &mut scratch.proj[..n * code];
        kernels::tanh_inplace(proj);
        let scores = zeroed(&mut scratch.scores, n);
        kernels::row_dots_accum(proj, store.get(self.attention).data(), n, code, scores);
        kernels::segment_softmax(bounds, 1, scores);
        kernels::segment_weighted_sum(bounds, scores, proj, code, out);
    }

    /// Strict projection: `scratch.proj = ctx · W` over the gathered
    /// `n × context_width` context matrix — the tape's one stacked
    /// product.
    fn project_stacked(
        &self,
        store: &ParamStore,
        samples: &[&PathSample],
        n: usize,
        scratch: &mut InferScratch,
    ) {
        let (dt, dp) = (self.cfg.token_dim, self.cfg.path_dim);
        let cw = self.cfg.context_width();
        let (tokens, paths) = (store.get(self.token_table), store.get(self.path_table));
        let ctx = resized(&mut scratch.gathered, n * cw);
        {
            let _timer = obs::time_op(obs::Op::Gather);
            for (row, (a, p, b)) in ctx.chunks_exact_mut(cw).zip(contexts(samples)) {
                row[..dt].copy_from_slice(tokens.row(a));
                row[dt..dt + dp].copy_from_slice(paths.row(p));
                row[dt + dp..].copy_from_slice(tokens.row(b));
            }
        }
        let proj = zeroed(&mut scratch.proj, n * self.cfg.code_dim);
        let w = store.get(self.w_context).data();
        kernels::matmul_accum(ctx, w, n, cw, self.cfg.code_dim, proj);
        obs::record_embed_rows(3 * n, 3 * n);
    }

    /// Fast projection: `scratch.proj[r] = (S + P) + E` per context, each
    /// term the kept product of a table row with its row range of `W`,
    /// computed here if this is the first time these weights meet that
    /// row (see [`CodeEmbedder::infer_rows`]).
    fn project_memoized(
        &self,
        store: &ParamStore,
        samples: &[&PathSample],
        n: usize,
        scratch: &mut InferScratch,
    ) {
        let (dt, dp, code) = (self.cfg.token_dim, self.cfg.path_dim, self.cfg.code_dim);
        let (tokens, paths) = (store.get(self.token_table), store.get(self.path_table));
        let (w_s, rest) = store.get(self.w_context).data().split_at(dt * code);
        let (w_p, w_e) = rest.split_at(dp * code);
        let memo = self.memo.for_weights(store.stamp(), &self.cfg);
        let mut fills = 0usize;
        let mut fill = |table: &Tensor, idx: usize, w_role: &[f32]| {
            fills += 1;
            let mut row = vec![0.0f32; code].into_boxed_slice();
            kernels::row_matmul_accum_fast(table.row(idx), w_role, table.cols(), code, &mut row);
            obs::embed_memo_grew(std::mem::size_of_val(&*row));
            row
        };
        let proj = resized(&mut scratch.proj, n * code);
        let [starts, mids, ends] = &memo.roles;
        for (out_row, (a, p, b)) in proj.chunks_exact_mut(code).zip(contexts(samples)) {
            let s = starts[a].get_or_init(|| fill(tokens, a, w_s));
            let p = mids[p].get_or_init(|| fill(paths, p, w_p));
            let e = ends[b].get_or_init(|| fill(tokens, b, w_e));
            for (((o, &x), &y), &z) in out_row.iter_mut().zip(&**s).zip(&**p).zip(&**e) {
                *o = (x + y) + z;
            }
        }
        obs::record_embed_rows(3 * n, fills);
    }

    /// The kept projection of table row `row` in `role` (0 start, 1 path,
    /// 2 end) under `store`'s weights, if fast inference has computed it —
    /// test access to what [`CodeEmbedder::infer_rows`] assembles contexts
    /// from.
    #[doc(hidden)]
    pub fn memo_row(&self, store: &ParamStore, role: usize, row: usize) -> Option<Vec<f32>> {
        let state = self.memo.state.read().expect(MEMO_POISONED);
        if state.stamp != Some(store.stamp()) {
            return None;
        }
        state.roles[role][row].get().map(|kept| kept.to_vec())
    }
}

/// Every sample's `(start, path, end)` table-row triples, in batch order.
fn contexts<'a>(samples: &'a [&PathSample]) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    samples.iter().flat_map(|s| {
        s.starts
            .iter()
            .zip(s.paths.iter())
            .zip(s.ends.iter())
            .map(|((&a, &p), &b)| (a, p, b))
    })
}

/// One role's kept projections: slot `i` holds table row `i` times the
/// role's row range of `W`, once some context has looked it up.
type MemoRows = Box<[OnceLock<Box<[f32]>>]>;

const MEMO_POISONED: &str = "projection memo lock poisoned: a reset panicked";

/// What fast-mode [`CodeEmbedder::infer_rows`] keeps between calls. A kept
/// row is a pure function of (weights, role, table row), so sharing it —
/// across calls, batches and threads — changes no bit.
///
/// The steady path takes the lock shared (one read guard per call) and
/// reads filled [`OnceLock`]s; threads racing for an empty slot compute it
/// once. Only a change of weights takes the lock exclusively.
#[derive(Default)]
struct ProjectionMemo {
    state: RwLock<MemoState>,
}

#[derive(Default)]
struct MemoState {
    /// The [`ParamStore::stamp`] every kept row was computed under;
    /// `None` (and no slots) until fast inference first runs.
    stamp: Option<u64>,
    /// Start, path and end rows, in that order.
    roles: [MemoRows; 3],
}

impl ProjectionMemo {
    /// The rows kept for the weights `stamp` names, shared; whatever was
    /// kept for other weights is dropped first.
    fn for_weights(&self, stamp: u64, cfg: &EmbedConfig) -> RwLockReadGuard<'_, MemoState> {
        loop {
            let state = self.state.read().expect(MEMO_POISONED);
            if state.stamp == Some(stamp) {
                return state;
            }
            drop(state);
            let mut state = self.state.write().expect(MEMO_POISONED);
            if state.stamp != Some(stamp) {
                let empty = |rows: usize| (0..rows).map(|_| OnceLock::new()).collect();
                *state = MemoState {
                    stamp: Some(stamp),
                    roles: [cfg.token_buckets, cfg.path_buckets, cfg.token_buckets].map(empty),
                };
            }
        }
    }
}

impl Drop for MemoState {
    fn drop(&mut self) {
        let kept: usize = self
            .roles
            .iter()
            .flat_map(|slots| slots.iter())
            .filter_map(OnceLock::get)
            .map(|row| std::mem::size_of_val(&**row))
            .sum();
        obs::embed_memo_shrank(kept);
    }
}

/// A copy of an embedder starts with nothing kept: rows are recomputed on
/// demand to the same bits, and the copy shares no lock with the original.
impl Clone for ProjectionMemo {
    fn clone(&self) -> Self {
        ProjectionMemo::default()
    }
}

impl std::fmt::Debug for ProjectionMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProjectionMemo").finish_non_exhaustive()
    }
}

/// Buffers [`CodeEmbedder::infer_rows`] reuses from call to call, one set
/// per thread (serve workers are long-lived, so a steady-state flush
/// allocates only its result). Sized by the largest batch the thread has
/// seen; holds no values between calls that a later call reads — what is
/// kept across calls lives in the embedder's [`ProjectionMemo`].
#[derive(Default)]
struct InferScratch {
    /// Strict: the gathered `N × context_width` context matrix.
    gathered: Vec<f32>,
    /// `N × code_dim`: the projection, then its `tanh` in place.
    proj: Vec<f32>,
    /// `N`: attention scores, then weights in place.
    scores: Vec<f32>,
}

thread_local! {
    static INFER_SCRATCH: Cell<InferScratch> = Cell::default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_statement;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sample(src: &str, cfg: &EmbedConfig) -> PathSample {
        PathSample::from_stmt(&parse_statement(src).unwrap(), cfg)
    }

    /// One sample's tape-free embedding.
    fn encode(e: &CodeEmbedder, store: &ParamStore, s: &PathSample) -> Vec<f32> {
        e.infer_rows(store, &[s]).into_data()
    }

    /// A synthetic sample with `n` contexts drawn from `rng`. Small table
    /// sizes (the fast config) make repeated indices — the case where
    /// scatter-order bugs would surface — common.
    fn random_sample(n: usize, cfg: &EmbedConfig, rng: &mut ChaCha8Rng) -> PathSample {
        PathSample {
            starts: (0..n)
                .map(|_| rng.gen_range(0..cfg.token_buckets))
                .collect(),
            paths: (0..n).map(|_| rng.gen_range(0..cfg.path_buckets)).collect(),
            ends: (0..n)
                .map(|_| rng.gen_range(0..cfg.token_buckets))
                .collect(),
        }
    }

    /// The per-sample spelling of [`CodeEmbedder::forward_batch`], its
    /// oracle: one [`CodeEmbedder::forward`] chain per sample, stacked
    /// with `concat_rows`.
    fn forward_batch_reference(
        e: &CodeEmbedder,
        g: &mut Graph<'_>,
        samples: &[&PathSample],
    ) -> NodeId {
        let rows: Vec<NodeId> = samples.iter().map(|s| e.forward(g, s)).collect();
        if rows.len() == 1 {
            rows[0]
        } else {
            g.concat_rows(&rows)
        }
    }

    /// Runs a full forward + backward of `samples` through `build`,
    /// returning the stacked values and all parameter gradients. The loss
    /// (`Σ out ⊙ sel` for a fixed random `sel`) makes every output row
    /// contribute a distinct gradient.
    #[allow(clippy::type_complexity)]
    fn values_and_grads(
        store: &ParamStore,
        samples: &[&PathSample],
        sel: &Tensor,
        build: impl Fn(&mut Graph<'_>, &[&PathSample]) -> NodeId,
    ) -> (Tensor, std::collections::HashMap<ParamId, Tensor>) {
        let mut g = Graph::new(store);
        let out = build(&mut g, samples);
        let seln = g.input(sel.clone());
        let prod = g.mul_elem(out, seln);
        let loss = g.sum_all(prod);
        g.backward(loss);
        (g.value(out).clone(), g.param_grads())
    }

    #[test]
    fn paper_config_is_340_dim() {
        assert_eq!(EmbedConfig::paper().code_dim, 340);
        assert_eq!(EmbedConfig::paper().context_width(), 384);
    }

    #[test]
    fn encode_returns_code_dim_vector() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = encode(
            &e,
            &store,
            &sample("for (int i=0;i<n;i++) { a[i] = 0; }", &cfg),
        );
        assert_eq!(v.len(), cfg.code_dim);
    }

    #[test]
    fn empty_sample_encodes_to_zero() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = encode(
            &e,
            &store,
            &PathSample {
                starts: vec![],
                paths: vec![],
                ends: vec![],
            },
        );
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn attention_weights_depend_on_content() {
        // Two structurally different loops must produce different vectors
        // under the same (random) weights.
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v1 = encode(
            &e,
            &store,
            &sample("for (int i=0;i<n;i++) { s += a[i]; }", &cfg),
        );
        let v2 = encode(
            &e,
            &store,
            &sample("for (int i=0;i<n;i++) { a[i] = b[2*i] * c[i]; }", &cfg),
        );
        let dist: f32 = v1
            .iter()
            .zip(v2.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(dist > 1e-6, "different loops should embed differently");
    }

    #[test]
    fn both_batched_forwards_embed_an_empty_slice_to_no_rows() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let mut g = Graph::new(&store);
        let out = e.forward_batch(&mut g, &[]);
        assert_eq!(g.value(out).shape(), (0, cfg.code_dim));
        assert_eq!(e.infer_rows(&store, &[]).shape(), (0, cfg.code_dim));
    }

    #[test]
    fn all_empty_batch_embeds_to_zero_rows() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let empty = PathSample {
            starts: vec![],
            paths: vec![],
            ends: vec![],
        };
        let mut g = Graph::new(&store);
        let out = e.forward_batch(&mut g, &[&empty, &empty]);
        assert_eq!(g.value(out).shape(), (2, cfg.code_dim));
        assert!(g.value(out).data().iter().all(|&x| x == 0.0));
    }

    /// The tentpole invariant at the encoder level: the segmented batched
    /// forward must be bitwise-identical to the per-sample reference —
    /// stacked values AND the gradients of all four parameters (both
    /// embedding tables, the projection, the attention vector) — across
    /// ragged context counts including empty, single-context and
    /// max-width samples.
    #[test]
    fn segmented_forward_batch_matches_reference_bitwise() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(13);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for lens in [
            vec![3usize, 7, 1],
            vec![1],
            vec![cfg.max_paths, 1, cfg.max_paths],
            vec![5, 0, 2, 0, 9],
        ] {
            let samples: Vec<PathSample> = lens
                .iter()
                .map(|&n| random_sample(n, &cfg, &mut rng))
                .collect();
            let refs: Vec<&PathSample> = samples.iter().collect();
            let sel = Tensor::from_vec(
                refs.len(),
                cfg.code_dim,
                (0..refs.len() * cfg.code_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let (ref_vals, ref_grads) = values_and_grads(&store, &refs, &sel, |g, ss| {
                forward_batch_reference(&e, g, ss)
            });
            let (seg_vals, seg_grads) =
                values_and_grads(&store, &refs, &sel, |g, ss| e.forward_batch(g, ss));
            assert_eq!(ref_vals, seg_vals, "values diverged for lens {lens:?}");
            for (name, p) in [
                ("token table", e.token_table()),
                ("path table", e.path_table()),
                ("projection", e.context_weight()),
                ("attention", e.attention_vector()),
            ] {
                assert_eq!(
                    ref_grads.get(&p),
                    seg_grads.get(&p),
                    "{name} gradient diverged for lens {lens:?}"
                );
            }
        }
    }

    proptest! {
        /// Property form of the parity bar: arbitrary ragged batches
        /// (lengths 0..=max_paths, duplicate indices likely) are
        /// bitwise-identical between the segmented and per-sample
        /// spellings — values and all parameter gradients.
        #[test]
        fn prop_segmented_encode_is_bitwise_identical(
            n_samples in 1usize..6,
            shape_seed in 0u64..10_000,
        ) {
            let cfg = EmbedConfig::fast();
            let mut store = ParamStore::new(23);
            let e = CodeEmbedder::new(&mut store, &cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(shape_seed);
            let samples: Vec<PathSample> = (0..n_samples)
                .map(|i| {
                    // Force the edge widths into the mix: a 1-context
                    // sample and a max-width sample appear regularly.
                    let n = match (shape_seed as usize + i) % 5 {
                        0 => 1,
                        1 => cfg.max_paths,
                        _ => rng.gen_range(0..=cfg.max_paths),
                    };
                    random_sample(n, &cfg, &mut rng)
                })
                .collect();
            let refs: Vec<&PathSample> = samples.iter().collect();
            let sel = Tensor::from_vec(
                refs.len(),
                cfg.code_dim,
                (0..refs.len() * cfg.code_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let (ref_vals, ref_grads) = values_and_grads(&store, &refs, &sel, |g, ss| {
                forward_batch_reference(&e, g, ss)
            });
            let (seg_vals, seg_grads) =
                values_and_grads(&store, &refs, &sel, |g, ss| e.forward_batch(g, ss));
            prop_assert_eq!(ref_vals, seg_vals);
            for p in [
                e.token_table(),
                e.path_table(),
                e.context_weight(),
                e.attention_vector(),
            ] {
                prop_assert_eq!(ref_grads.get(&p), seg_grads.get(&p));
            }
        }
    }

    #[test]
    fn embeddings_are_bounded_by_tanh() {
        // The code vector is a convex combination of tanh outputs.
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(5);
        let e = CodeEmbedder::new(&mut store, &cfg);
        let v = encode(
            &e,
            &store,
            &sample("for (int i=0;i<n;i++) { a[i] = b[i]*c[i]+d[i]; }", &cfg),
        );
        assert!(v.iter().all(|x| x.abs() <= 1.0));
    }
}
