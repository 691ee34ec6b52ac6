//! The attention-based code encoder (code2vec's network half).

use std::cell::Cell;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

use serde::{Deserialize, Serialize};

use nvc_nn::attention::path_attention;
use nvc_nn::{
    kernels, obs, AttentionScratch, AttentionWeights, Graph, KernelMode, NodeId, ParamId,
    ParamStore, RowAlias, Segments, Tensor,
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
    pub(crate) fn context_width(&self) -> usize {
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
    /// PPO's minibatch updates stack their distinct samples here and run
    /// the policy once over all rows; consumers that need no gradients
    /// take [`CodeEmbedder::forward_rows`] or
    /// [`CodeEmbedder::infer_rows`].
    ///
    /// The whole encoder is one tape node, [`Graph::path_attention`],
    /// over the batch's context rows with one [`Segments`] segment per
    /// sample. A `(start, path, end)` triple that recurs in the batch —
    /// most do: a loop's contexts pair up its few leaves, and a batch's
    /// loops share them — is gathered, projected, `tanh`ed and scored
    /// **once** ([`RowAlias`]), and every row reads its values through
    /// the alias: the same bytes as computing every row. The backward is
    /// one fused pass over all `N` rows, because the per-sample tape sums
    /// a repeated row's gradients one sample at a time and adding them
    /// together first would regroup those sums; the table gradients
    /// scatter in the per-sample order (per sample its starts, then its
    /// ends). Values *and* parameter gradients are bitwise-identical to
    /// the per-sample spelling (one [`forward`] chain per sample, stacked
    /// with `concat_rows` — the oracle of this crate's parity tests).
    ///
    /// Empty samples embed to zero rows, exactly as in [`forward`], and an
    /// empty `samples` gives a `0 × code_dim` node, as in
    /// [`CodeEmbedder::infer_rows`].
    ///
    /// # Panics
    ///
    /// Panics when a sample's index vectors differ in length or index
    /// past a table.
    ///
    /// [`forward`]: CodeEmbedder::forward
    pub fn forward_batch(&self, g: &mut Graph<'_>, samples: &[&PathSample]) -> NodeId {
        let segs = Segments::from_lens(samples.iter().map(|s| s.len()));
        let mut columns = Default::default();
        context_columns(samples, &mut columns);
        g.path_attention(
            self.token_table,
            self.path_table,
            self.w_context,
            self.attention,
            columns,
            &segs,
        )
    }

    /// The values of [`CodeEmbedder::forward_batch`] without a tape: one
    /// `code_dim`-wide row per input sample, in the process mode's
    /// kernels, bit for bit what the tape computes. Repeated samples
    /// (content equality, grouped by a [`RowAlias`]) embed once and fan
    /// out; empty samples embed to zero rows; an empty `rows` gives a
    /// `0 × code_dim` tensor. PPO's rollout collection enters here, so
    /// the actions it samples come from the forward its update
    /// differentiates, in either mode; [`CodeEmbedder::infer_rows`] is
    /// this function in strict mode.
    ///
    /// # Panics
    ///
    /// Panics when a sample's index vectors differ in length or index
    /// past a table.
    pub fn forward_rows(&self, store: &ParamStore, rows: &[&PathSample]) -> Tensor {
        self.embed_distinct(store, rows, false)
    }

    /// The tape-free forward every **no-gradient** consumer that does not
    /// train runs: one `code_dim`-wide embedding row per input sample,
    /// read straight from the store — no [`Graph`], no tape nodes, no
    /// copy of `W`. Greedy inference (the trainer's `predict_batch`,
    /// hence every serve flush) and the supervised agents' labelling
    /// passes enter here; whatever needs gradients stays on
    /// [`forward_batch`], which with the per-sample [`forward`] is also
    /// this function's oracle.
    ///
    /// Repeated samples (content equality, grouped by a [`RowAlias`]) embed
    /// once and fan out. Empty samples embed to zero rows; an empty `rows`
    /// gives a `0 × code_dim` tensor.
    ///
    /// **Strict mode** is [`CodeEmbedder::forward_rows`]: the tape's one
    /// forward ([`nvc_nn::attention::path_attention`]), projection, `tanh`
    /// and scores once per distinct context row, so every value is
    /// bitwise-equal to [`forward_batch`].
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
    ///
    /// The forward then runs in two steps. First every `(role, row)` the
    /// batch's contexts name is looked up, and the ones these weights have
    /// not met are filled. Then one pass per context row
    /// ([`kernels::context_row_fast`], timed as one `tanh` op per call)
    /// assembles its projection as `(S[r] + P[r]) + E[r]`, in that order,
    /// takes the rational `tanh` of it and its attention score by the
    /// lane-split dot, while the row is in L1 — the bits of the
    /// whole-buffer passes [`kernels::tanh_inplace`] and
    /// [`kernels::row_dots_accum`]. The segment softmax and the attention
    /// pool follow. Per element the projection is three `k`-range partials
    /// summed instead of one chain — a reassociation under fast mode's
    /// contract: ε-close to strict, special values propagated identically,
    /// decisions identical. Keeping the products changes no bit (a kept
    /// row is a pure function of the weights, the role and the row), and a
    /// row's score is a function of the row; so a sample's embedding does
    /// not depend on its batch-mates or on what was served before it.
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
        self.embed_distinct(store, rows, kernels::kernel_mode() == KernelMode::Fast)
    }

    /// Embeds each distinct sample of `rows` once — through the kept
    /// projections when `memoized`, else through the tape's forward — and
    /// fans the result out to every row.
    fn embed_distinct(&self, store: &ParamStore, rows: &[&PathSample], memoized: bool) -> Tensor {
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
            if memoized {
                self.infer_memoized(store, &distinct, &bounds, &mut scratch, out.data_mut());
            } else {
                context_columns(&distinct, &mut scratch.columns);
                let weights = AttentionWeights {
                    tokens: store.get(self.token_table),
                    paths: store.get(self.path_table),
                    w: store.get(self.w_context),
                    attn: store.get(self.attention),
                };
                let (columns, buffers) = (&scratch.columns, &mut scratch.attention);
                path_attention(weights, columns, &bounds, buffers, out.data_mut());
            }
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

    /// Fast mode's forward over distinct samples with contexts: each
    /// context row in one pass from its kept projections — `(S + P) + E`,
    /// `tanh` and the row's lane-split score
    /// ([`kernels::context_row_fast`]) — then segment softmax and weighted
    /// sum into `out`, the zeroed `bounds.len() × code_dim` result.
    fn infer_memoized(
        &self,
        store: &ParamStore,
        samples: &[&PathSample],
        bounds: &[(usize, usize)],
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) {
        let code = self.cfg.code_dim;
        let n = bounds.last().map_or(0, |&(_, r1)| r1);
        let memo = self.kept_rows(store, samples, n);
        let attn = store.get(self.attention).data();
        let values = resized(&mut scratch.values, n * code);
        let scores = resized(&mut scratch.scores, n);
        {
            let _timer = obs::time_op(obs::Op::Tanh);
            let [starts, mids, ends] = &memo.roles;
            let rows = values.chunks_exact_mut(code).zip(scores.iter_mut());
            for ((row, score), (a, p, b)) in rows.zip(contexts(samples)) {
                let (s, p, e) = (kept(&starts[a]), kept(&mids[p]), kept(&ends[b]));
                *score = kernels::context_row_fast(s, p, e, attn, row);
            }
        }
        kernels::segment_softmax(bounds, 1, scores);
        kernels::segment_weighted_sum(bounds, scores, values, code, out);
    }

    /// The kept projections under `store`'s weights, with every table row
    /// the `n` contexts of `samples` name filled in: each is the product
    /// of the row with its role's row range of `W`, computed here if this
    /// is the first time these weights meet that row (see
    /// [`CodeEmbedder::infer_rows`]).
    fn kept_rows(
        &self,
        store: &ParamStore,
        samples: &[&PathSample],
        n: usize,
    ) -> RwLockReadGuard<'_, MemoState> {
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
        let [starts, mids, ends] = &memo.roles;
        for (a, p, b) in contexts(samples) {
            starts[a].get_or_init(|| fill(tokens, a, w_s));
            mids[p].get_or_init(|| fill(paths, p, w_p));
            ends[b].get_or_init(|| fill(tokens, b, w_e));
        }
        obs::record_embed_rows(3 * n, fills);
        memo
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

/// Every sample's start, path and end indices, in batch order, into
/// `columns` (cleared first).
///
/// # Panics
///
/// Panics when a sample's index vectors differ in length.
fn context_columns(samples: &[&PathSample], columns: &mut [Vec<usize>; 3]) {
    let _timer = obs::time_op(obs::Op::Dedup);
    let total = samples.iter().map(|s| s.len()).sum();
    for column in columns.iter_mut() {
        column.clear();
        column.reserve(total);
    }
    let [starts, paths, ends] = columns;
    for s in samples {
        assert!(
            s.starts.len() == s.len() && s.ends.len() == s.len(),
            "path sample index vectors differ in length"
        );
        starts.extend_from_slice(&s.starts);
        paths.extend_from_slice(&s.paths);
        ends.extend_from_slice(&s.ends);
    }
}

/// One role's kept projections: slot `i` holds table row `i` times the
/// role's row range of `W`, once some context has looked it up.
type MemoRows = Box<[OnceLock<Box<[f32]>>]>;

/// A slot [`CodeEmbedder::kept_rows`] has filled.
fn kept(slot: &OnceLock<Box<[f32]>>) -> &[f32] {
    slot.get()
        .expect("every row a context names is kept before it is read")
}

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
    /// Strict: the start, path and end index of every context.
    columns: [Vec<usize>; 3],
    /// Strict: the tape forward's buffers.
    attention: AttentionScratch,
    /// Fast: `N × code_dim`, each context's `tanh` row.
    values: Vec<f32>,
    /// Fast: `N`, attention scores, then weights in place.
    scores: Vec<f32>,
}

thread_local! {
    static INFER_SCRATCH: Cell<InferScratch> = Cell::default();
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

    /// Bit patterns with every NaN canonicalised: which NaN payload an
    /// operation propagates is the hardware's choice, not the spelling's.
    fn canonical_bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// A special value — `±0`, `±∞`, quiet or signalling NaN with a
    /// payload — drawn from `rng`.
    fn special(rng: &mut ChaCha8Rng) -> f32 {
        [
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0123),
            f32::from_bits(0xFFC0_0042),
            f32::from_bits(0x7F80_0456),
        ][rng.gen_range(0..7usize)]
    }

    /// A `rows × cols` upstream gradient; with `hostile`, one element in
    /// eight is [`special`].
    fn upstream(rows: usize, cols: usize, hostile: bool, rng: &mut ChaCha8Rng) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..8) {
                0 if hostile => special(rng),
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// An encoder whose tables, with `hostile`, hold a special value in
    /// one element in sixty — enough to poison some context rows and
    /// leave others clean.
    fn encoder(cfg: &EmbedConfig, seed: u64, hostile: bool) -> (ParamStore, CodeEmbedder) {
        let mut store = ParamStore::new(seed);
        let e = CodeEmbedder::new(&mut store, cfg);
        if hostile {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for table in [e.token_table(), e.path_table()] {
                for x in store.get_mut(table).data_mut() {
                    if rng.gen_range(0..60) == 0 {
                        *x = special(&mut rng);
                    }
                }
            }
        }
        (store, e)
    }

    /// Whether `forward_batch` is the per-sample reference on `samples`,
    /// bit for bit with NaNs canonicalised: the stacked values and the
    /// gradients of all four parameters under the upstream gradient
    /// `sel`. `Err` names what diverged.
    fn matches_reference(
        e: &CodeEmbedder,
        store: &ParamStore,
        samples: &[PathSample],
        sel: &Tensor,
    ) -> Result<(), String> {
        let refs: Vec<&PathSample> = samples.iter().collect();
        let (ref_vals, ref_grads) =
            values_and_grads(store, &refs, sel, |g, ss| forward_batch_reference(e, g, ss));
        let (seg_vals, seg_grads) =
            values_and_grads(store, &refs, sel, |g, ss| e.forward_batch(g, ss));
        if canonical_bits(&ref_vals) != canonical_bits(&seg_vals) {
            return Err("values".to_string());
        }
        for (name, p) in [
            ("token table", e.token_table()),
            ("path table", e.path_table()),
            ("projection", e.context_weight()),
            ("attention", e.attention_vector()),
        ] {
            let bits = |grads: &std::collections::HashMap<ParamId, Tensor>| {
                grads.get(&p).map(canonical_bits)
            };
            if bits(&ref_grads) != bits(&seg_grads) {
                return Err(format!("{name} gradient"));
            }
        }
        Ok(())
    }

    /// A sample of the given `(start, path, end)` triples.
    fn of_triples(triples: &[(usize, usize, usize)]) -> PathSample {
        PathSample {
            starts: triples.iter().map(|t| t.0).collect(),
            paths: triples.iter().map(|t| t.1).collect(),
            ends: triples.iter().map(|t| t.2).collect(),
        }
    }

    /// The tentpole invariant at the encoder level: the batched forward
    /// must be bitwise-identical to the per-sample reference — stacked
    /// values AND the gradients of all four parameters (both embedding
    /// tables, the projection, the attention vector) — across ragged
    /// context counts including empty, single-context and max-width
    /// samples, and across batches that repeat rows the way real ones do:
    /// a whole sample repeated (the update's context-keyed minibatches),
    /// triples shared across samples, a triple repeated inside one
    /// sample, empty samples at both ends and in the middle. Each batch
    /// runs on clean weights and again with `±0`, `±∞` and NaN payloads
    /// in the tables and the upstream gradient.
    #[test]
    fn segmented_forward_batch_matches_reference_bitwise() {
        let cfg = EmbedConfig::fast();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut batches: Vec<Vec<PathSample>> = [
            vec![3usize, 7, 1],
            vec![1],
            vec![cfg.max_paths, 1, cfg.max_paths],
            vec![5, 0, 2, 0, 9],
        ]
        .iter()
        .map(|lens| {
            lens.iter()
                .map(|&n| random_sample(n, &cfg, &mut rng))
                .collect()
        })
        .collect();
        let (x, y) = (
            random_sample(5, &cfg, &mut rng),
            random_sample(3, &cfg, &mut rng),
        );
        let t: Vec<(usize, usize, usize)> = (0..4)
            .map(|i| {
                let s = random_sample(1, &cfg, &mut rng);
                (s.starts[0], s.paths[0] + i, s.ends[0])
            })
            .collect();
        let empty = random_sample(0, &cfg, &mut rng);
        batches.extend([
            vec![x.clone(), y.clone(), x.clone(), x.clone()],
            vec![
                of_triples(&[t[0], t[1]]),
                of_triples(&[t[2], t[0], t[3]]),
                of_triples(&[t[1]]),
            ],
            vec![
                of_triples(&[t[0], t[1], t[0], t[2], t[0]]),
                of_triples(&[t[3]]),
            ],
            vec![empty.clone(), x, empty.clone(), y, empty],
        ]);
        for hostile in [false, true] {
            let (store, e) = encoder(&cfg, 13, hostile);
            for batch in &batches {
                let sel = upstream(batch.len(), cfg.code_dim, hostile, &mut rng);
                let lens: Vec<usize> = batch.iter().map(PathSample::len).collect();
                if let Err(what) = matches_reference(&e, &store, batch, &sel) {
                    panic!("{what} diverged for lens {lens:?}, hostile {hostile}");
                }
            }
        }
    }

    proptest! {
        /// Property form of the parity bar: arbitrary ragged batches
        /// (lengths 0..=max_paths), bitwise-identical between the batched
        /// and per-sample spellings — values and all parameter gradients.
        /// Half the batches draw their triples from a pool of six, so rows
        /// repeat inside samples and across them.
        #[test]
        fn prop_segmented_encode_is_bitwise_identical(
            n_samples in 1usize..6,
            shape_seed in 0u64..10_000,
            hostile in 0u8..2,
        ) {
            let cfg = EmbedConfig::fast();
            let hostile = hostile == 1;
            let (store, e) = encoder(&cfg, 23, hostile);
            let mut rng = ChaCha8Rng::seed_from_u64(shape_seed);
            let pool: Vec<(usize, usize, usize)> = (0..6)
                .map(|_| {
                    let s = random_sample(1, &cfg, &mut rng);
                    (s.starts[0], s.paths[0], s.ends[0])
                })
                .collect();
            let samples: Vec<PathSample> = (0..n_samples)
                .map(|i| {
                    // Force the edge widths into the mix: a 1-context
                    // sample and a max-width sample appear regularly.
                    let n = match (shape_seed as usize + i) % 5 {
                        0 => 1,
                        1 => cfg.max_paths,
                        _ => rng.gen_range(0..=cfg.max_paths),
                    };
                    if shape_seed % 2 == 0 {
                        let triples: Vec<_> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                        of_triples(&triples)
                    } else {
                        random_sample(n, &cfg, &mut rng)
                    }
                })
                .collect();
            let sel = upstream(samples.len(), cfg.code_dim, hostile, &mut rng);
            prop_assert_eq!(matches_reference(&e, &store, &samples, &sel), Ok(()));
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
