//! Reverse-mode automatic differentiation over a tape of tensor ops.
//!
//! Values are computed eagerly as nodes are added; [`Graph::backward`]
//! walks the tape in reverse accumulating gradients. Gradients of
//! parameter nodes leave the tape through [`Graph::param_grads`] and
//! reach the owning [`ParamStore`] via [`ParamStore::apply_grads`].
//!
//! The tape is allocation-lean: a graph built with
//! [`Graph::with_arena`] draws every output tensor from a shared
//! [`TensorArena`] and returns them all on drop, so steady-state training
//! loops reuse the same buffers tape after tape. A parameter is never
//! copied: [`Graph::param`] pushes each `ParamId` once, as a borrow of the
//! store's own tensor (the tape holds the store for `'s` anyway), so a
//! forward multiplies by the weights where they lie; embedding
//! lookups gather straight from the store without materializing the
//! table ([`Graph::gather_param_rows`]), the whole path-attention encoder
//! is one node that reads its tables the same way
//! ([`Graph::path_attention`]), and the fused [`Graph::linear`] runs
//! matmul + bias broadcast as one node with one output allocation.
//!
//! Every operation's gradient is validated against central finite
//! differences in this module's tests.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::arena::TensorArena;
use crate::attention::{self, AttentionWeights, Distinct};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Row partition of a stacked (ragged-batch) matrix: segment `s` owns the
/// contiguous row range `[offsets[s], offsets[s+1])`. Shared by the
/// forward and backward kernels of the segment ops
/// ([`Graph::path_attention`], [`Graph::segment_softmax_rows`],
/// [`Graph::segment_weighted_sum`]) so both sides agree on reduction
/// boundaries — the property that keeps a segmented batched forward
/// bitwise-identical to the per-sample spelling it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    /// `len() + 1` monotonically non-decreasing row offsets, starting at 0.
    offsets: Vec<usize>,
}

impl Segments {
    /// Builds a partition from per-segment row counts (zero-row segments
    /// are allowed — they stand for empty samples).
    pub fn from_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        let mut total = 0usize;
        for l in lens {
            total += l;
            offsets.push(total);
        }
        Segments { offsets }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the partition has no segments at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stacked rows covered (`offsets.last()`).
    pub fn total_rows(&self) -> usize {
        *self.offsets.last().expect("offsets is never empty")
    }

    /// Row bounds `[start, end)` of segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= len()`.
    pub fn bounds(&self, s: usize) -> (usize, usize) {
        (self.offsets[s], self.offsets[s + 1])
    }

    /// Iterates `(start, end)` bounds in segment order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (usize, usize)> + '_ {
        self.offsets.windows(2).map(|w| (w[0], w[1]))
    }
}

/// Which rows of a batch repeat an earlier row — the stack's one dedup.
/// A ragged batch of path contexts holds each distinct `(start, path,
/// end)` row several times over; the encoder
/// ([`Graph::path_attention`]) projects, `tanh`s and scores each
/// distinct row once — byte for byte what computing every row gives —
/// and reads every row's values through the alias. Its backward reads
/// values through the alias too, but never regroups gradients: each row
/// keeps its own gradient, summed in the per-row order. Whole samples are
/// grouped the same way (the encoder's tape-free forward, PPO's
/// minibatch rows): embed [`RowAlias::firsts`], then fan the result out
/// by [`RowAlias::slots`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowAlias {
    /// The first-occurrence rows, ascending.
    distinct: Vec<usize>,
    /// For every row, the position in `distinct` of the row it repeats
    /// (of itself, for a first occurrence).
    slots: Vec<usize>,
}

impl RowAlias {
    /// Groups rows by key in first-seen order: two rows alias exactly
    /// when their keys are equal. The caller vouches that equal keys mean
    /// equal row contents in every matrix the alias is applied to.
    pub fn from_keys<K: std::hash::Hash + Eq>(keys: impl IntoIterator<Item = K>) -> Self {
        let keys = keys.into_iter();
        // A lone row — every depth-1 serve flush — is its own dedup.
        if keys.size_hint().1 == Some(1) {
            let rows = keys.count();
            return RowAlias {
                distinct: (0..rows).collect(),
                slots: (0..rows).collect(),
            };
        }
        let _timer = nvc_obs::time_op(nvc_obs::Op::Dedup);
        let mut distinct = Vec::new();
        let mut slot_of: HashMap<K, usize> = HashMap::with_capacity(keys.size_hint().0);
        let slots = keys
            .enumerate()
            .map(|(row, key)| {
                *slot_of.entry(key).or_insert_with(|| {
                    distinct.push(row);
                    distinct.len() - 1
                })
            })
            .collect();
        RowAlias { distinct, slots }
    }

    /// Rows covered.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// How many rows are first occurrences.
    pub(crate) fn distinct_rows(&self) -> usize {
        self.distinct.len()
    }

    /// The first-occurrence rows, ascending: one row per distinct key.
    pub fn firsts(&self) -> &[usize] {
        &self.distinct
    }

    /// For every row, the position in [`RowAlias::firsts`] of the row it
    /// repeats (of itself, for a first occurrence).
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }
}

/// What a [`Graph::path_attention`] node keeps for its backward. Its
/// tensors come from the tape's arena and go back to it on drop.
#[derive(Debug, Clone)]
struct PathAttention {
    tokens: ParamId,
    paths: ParamId,
    /// The parameter nodes of `W` and the attention vector.
    w: NodeId,
    attn: NodeId,
    /// Start, path and end index of every context row.
    columns: [Vec<usize>; 3],
    /// Each sample's row range.
    bounds: Vec<(usize, usize)>,
    /// The rows' repeats: row `r` reads distinct row `alias.slots()[r]`.
    alias: RowAlias,
    /// `D × width`: the distinct context rows.
    ctx: Tensor,
    /// `D × code`: their `tanh` outputs.
    c: Tensor,
    /// `N × 1`: every row's attention weight.
    alpha: Tensor,
    /// `N × width`: the context rows' gradient, once backward has run;
    /// [`Graph::param_grads`] scatters it into the tables.
    d_ctx: Option<Tensor>,
}

impl PathAttention {
    /// The kept tensors, for the arena.
    fn into_tensors(self) -> impl Iterator<Item = Tensor> {
        [self.ctx, self.c, self.alpha].into_iter().chain(self.d_ctx)
    }
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // constant operands are kept for Debug output even where backward ignores them
enum Op {
    Input,
    Param(ParamId),
    /// Rows of a parameter table gathered without materializing the table.
    GatherParamRows(ParamId, Vec<usize>),
    /// The path-attention encoder over a ragged batch, one segment per
    /// sample.
    PathAttention(Box<PathAttention>),
    MatMul(NodeId, NodeId),
    /// Softmax down the rows of each segment, per column.
    SegmentSoftmaxRows(NodeId, Segments),
    /// Attention pool: per-segment weighted sum of value rows.
    SegmentWeightedSum(NodeId, NodeId, Segments),
    /// Fused `x·W + b` (bias row-broadcast), one node and one output.
    Linear(NodeId, NodeId, NodeId),
    AddRowBroadcast(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Minimum(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId, f32),
    Clamp(NodeId, f32, f32),
    Tanh(NodeId),
    Exp(NodeId),
    SoftmaxRows(NodeId),
    LogSoftmaxRows(NodeId),
    Transpose(NodeId),
    GatherRows(NodeId, Vec<usize>),
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    PickPerRow(NodeId, Vec<usize>),
    SumAll(NodeId),
    MeanAll(NodeId),
}

/// A node's value: a tensor the tape computed and owns (its buffer goes
/// back to the arena when the tape drops), or a parameter read in place
/// from the store.
#[derive(Debug)]
enum Value<'s> {
    Owned(Tensor),
    Param(&'s Tensor),
}

impl std::ops::Deref for Value<'_> {
    type Target = Tensor;
    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Param(t) => t,
        }
    }
}

/// A tape of tensor operations with eager forward evaluation and
/// reverse-mode gradients.
#[derive(Debug)]
pub struct Graph<'s> {
    store: &'s ParamStore,
    arena: Option<&'s TensorArena>,
    ops: Vec<Op>,
    values: Vec<Value<'s>>,
    grads: Vec<Option<Tensor>>,
    param_nodes: HashMap<ParamId, NodeId>,
    ran_backward: bool,
}

impl<'s> Graph<'s> {
    /// Creates an empty tape reading parameters from `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Graph {
            store,
            arena: None,
            ops: Vec::new(),
            values: Vec::new(),
            grads: Vec::new(),
            param_nodes: HashMap::new(),
            ran_backward: false,
        }
    }

    /// Like [`Graph::new`], but every tensor the tape allocates comes
    /// from (and on drop returns to) `arena`.
    pub fn with_arena(store: &'s ParamStore, arena: &'s TensorArena) -> Self {
        let mut g = Graph::new(store);
        g.arena = Some(arena);
        g
    }

    /// A zeroed `rows × cols` tensor from the arena (or the allocator
    /// when the graph has none).
    fn alloc(&self, rows: usize, cols: usize) -> Tensor {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Alloc);
        match self.arena {
            Some(a) => a.alloc(rows, cols),
            None => Tensor::zeros(rows, cols),
        }
    }

    /// Returns a spent tensor's buffer to the arena, if there is one.
    fn recycle(&self, t: Tensor) {
        if let Some(arena) = self.arena {
            arena.recycle(t);
        }
    }

    /// An arena-backed copy of `t`.
    fn dup(&self, t: &Tensor) -> Tensor {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Alloc);
        let mut out = self.alloc(t.rows(), t.cols());
        out.data_mut().copy_from_slice(t.data());
        out
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.push_value(op, Value::Owned(value))
    }

    fn push_value(&mut self, op: Op, value: Value<'s>) -> NodeId {
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        NodeId(self.ops.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, n: NodeId) -> &Tensor {
        &self.values[n.0]
    }

    /// Gradient of a node (available after [`Graph::backward`]).
    pub fn grad(&self, n: NodeId) -> Option<&Tensor> {
        self.grads[n.0].as_ref()
    }

    // ---- leaf nodes ---------------------------------------------------

    /// A constant input (no gradient flows out of the graph).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Input, t)
    }

    /// A parameter leaf; its gradient is exported to the store.
    ///
    /// The node's value is the store's tensor itself, borrowed, and
    /// repeated calls with the same `ParamId` return the same node
    /// (gradient accumulation over shared uses is unaffected).
    pub fn param(&mut self, p: ParamId) -> NodeId {
        if let Some(&n) = self.param_nodes.get(&p) {
            return n;
        }
        let n = self.push_value(Op::Param(p), Value::Param(self.store.get(p)));
        self.param_nodes.insert(p, n);
        n
    }

    // ---- operations ----------------------------------------------------

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let rows = self.values[a.0].rows();
        let cols = self.values[b.0].cols();
        let mut out = self.alloc(rows, cols);
        self.values[a.0].matmul_accum_into(&self.values[b.0], &mut out);
        self.push(Op::MatMul(a, b), out)
    }

    /// Softmax down the rows of each segment, independently per column —
    /// the ragged-batch form of "softmax over each sample's score
    /// vector". For an `n×1` score column this computes, per segment,
    /// exactly what [`Graph::softmax_rows`] computes on the transposed
    /// `1×n` row (same max/exp/sum order), so values and gradients match
    /// the per-sample `transpose → softmax_rows` spelling bitwise.
    ///
    /// Zero-row segments are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `segs` does not cover `a`'s rows exactly.
    pub fn segment_softmax_rows(&mut self, a: NodeId, segs: &Segments) -> NodeId {
        let av = &self.values[a.0];
        assert_eq!(
            av.rows(),
            segs.total_rows(),
            "segment_softmax_rows: segments must cover the input's rows"
        );
        let cols = av.cols();
        let mut out = self.dup(av);
        let bounds: Vec<(usize, usize)> = segs.iter().collect();
        crate::kernels::segment_softmax(&bounds, cols, out.data_mut());
        self.push(Op::SegmentSoftmaxRows(a, segs.clone()), out)
    }

    /// Attention pool over a stacked ragged batch: row `s` of the output
    /// is `Σ_r weights[r] · values[r]` over segment `s`'s rows, i.e. the
    /// per-segment `α · C` product, accumulated in ascending row order —
    /// bitwise-identical to the per-sample `1×n × n×d` matmul.
    ///
    /// Zero-row segments produce zero rows (empty samples embed to zero).
    ///
    /// # Panics
    ///
    /// Panics unless `weights` is a `total_rows × 1` column and `values`
    /// has `total_rows` rows.
    pub fn segment_weighted_sum(
        &mut self,
        weights: NodeId,
        values: NodeId,
        segs: &Segments,
    ) -> NodeId {
        let (wv, vv) = (&self.values[weights.0], &self.values[values.0]);
        assert_eq!(wv.cols(), 1, "weights must be a column vector");
        assert_eq!(
            wv.rows(),
            segs.total_rows(),
            "segment_weighted_sum: segments must cover the weight rows"
        );
        assert_eq!(
            vv.rows(),
            segs.total_rows(),
            "segment_weighted_sum: segments must cover the value rows"
        );
        let d = vv.cols();
        let mut out = self.alloc(segs.len(), d);
        let bounds: Vec<(usize, usize)> = segs.iter().collect();
        crate::kernels::segment_weighted_sum(&bounds, wv.data(), vv.data(), d, out.data_mut());
        self.push(Op::SegmentWeightedSum(weights, values, segs.clone()), out)
    }

    /// Fused affine map `x·W + b` where `b` is a `1×d` bias row added to
    /// every output row: one tape node, one output allocation, and
    /// results bitwise-identical to `matmul` followed by
    /// [`Graph::add_row_broadcast`].
    ///
    /// The product is the deployed matmul, charged to this op's own
    /// timer, and the bias then lands on each element after its complete
    /// product chain: `(0 + chain) + bias`, exactly the unfused order, so
    /// the fused and unfused spellings are bitwise-identical in both modes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or when `b` is not `1 × W.cols()`.
    pub fn linear(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let (rows, kd) = self.values[x.0].shape();
        let cols = self.values[w.0].cols();
        {
            let bv = &self.values[b.0];
            assert_eq!(bv.rows(), 1, "bias must be a row vector");
            assert_eq!(bv.cols(), cols, "bias width mismatch");
        }
        assert_eq!(
            kd,
            self.values[w.0].rows(),
            "matmul shape mismatch: {}x{} × {}x{}",
            rows,
            kd,
            self.values[w.0].rows(),
            cols
        );
        let mut out = self.alloc(rows, cols);
        {
            let _timer = nvc_obs::time_op(nvc_obs::Op::Linear);
            let (xv, wv) = (self.values[x.0].data(), self.values[w.0].data());
            crate::kernels::matmul_untimed(xv, wv, rows, kd, cols, out.data_mut());
            let bias = self.values[b.0].data();
            if cols > 0 {
                for row in out.data_mut().chunks_exact_mut(cols) {
                    for (o, &bb) in row.iter_mut().zip(bias.iter()) {
                        *o += bb;
                    }
                }
            }
        }
        self.push(Op::Linear(x, w, b), out)
    }

    /// Adds a `1×d` bias row to every row of an `n×d` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1×d`.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (&self.values[a.0], &self.values[bias.0]);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let (rows, cols) = av.shape();
        let mut out = self.dup(av);
        let bias_row = self.values[bias.0].data();
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            for (o, &bb) in row.iter_mut().zip(bias_row.iter()) {
                *o += bb;
            }
        }
        self.push(Op::AddRowBroadcast(a, bias), out)
    }

    /// Arena-backed elementwise unary output.
    fn unary_value(&self, a: NodeId, f: impl Fn(f32) -> f32) -> Tensor {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Elementwise);
        let av = &self.values[a.0];
        let mut out = self.alloc(av.rows(), av.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(av.data().iter()) {
            *o = f(x);
        }
        out
    }

    /// Arena-backed elementwise binary output.
    fn binary_value(&self, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Elementwise);
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(av.shape(), bv.shape(), "elementwise shape mismatch");
        let mut out = self.alloc(av.rows(), av.cols());
        for ((o, &x), &y) in out
            .data_mut()
            .iter_mut()
            .zip(av.data().iter())
            .zip(bv.data().iter())
        {
            *o = f(x, y);
        }
        out
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.binary_value(a, b, |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.binary_value(a, b, |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise product.
    pub fn mul_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.binary_value(a, b, |x, y| x * y);
        self.push(Op::MulElem(a, b), v)
    }

    /// Elementwise minimum (PPO's clipped-surrogate uses this).
    pub fn minimum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.binary_value(a, b, f32::min);
        self.push(Op::Minimum(a, b), v)
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.unary_value(a, |x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    /// Adds a constant.
    pub fn add_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.unary_value(a, |x| x + c);
        self.push(Op::AddScalar(a, c), v)
    }

    /// Clamps to `[lo, hi]` (zero gradient outside).
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        let v = self.unary_value(a, |x| x.clamp(lo, hi));
        self.push(Op::Clamp(a, lo, hi), v)
    }

    /// Hyperbolic tangent ([`crate::kernels::tanh_inplace`]: fdlibm's
    /// `tanhf` in lanes in strict mode, the rational body in fast mode).
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut v = self.dup(&self.values[a.0]);
        crate::kernels::tanh_inplace(v.data_mut());
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.unary_value(a, f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let mut out = self.dup(av);
        softmax_rows_inplace(&mut out);
        self.push(Op::SoftmaxRows(a), out)
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&mut self, a: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let (rows, cols) = av.shape();
        let mut out = self.dup(av);
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        self.push(Op::LogSoftmaxRows(a), out)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let av = &self.values[a.0];
        let (rows, cols) = av.shape();
        let mut out = self.alloc(cols, rows);
        for i in 0..rows {
            for j in 0..cols {
                out.data_mut()[j * rows + i] = av.data()[i * cols + j];
            }
        }
        self.push(Op::Transpose(a), out)
    }

    /// Selects rows of `table` by index (embedding lookup). Gradients
    /// scatter-add back into the table.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, table: NodeId, indices: &[usize]) -> NodeId {
        let cols = self.values[table.0].cols();
        let mut out = self.alloc(indices.len(), cols);
        gather_into(&self.values[table.0], indices, &mut out);
        self.push(Op::GatherRows(table, indices.to_vec()), out)
    }

    /// Selects rows of parameter `p` by index, reading straight from the
    /// store — the table itself is never cloned onto the tape (a full
    /// copy of an embedding table per graph is the single largest
    /// allocation the encoder used to make). Gradients scatter-add into
    /// the parameter exactly as `param` + `gather_rows` would.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_param_rows(&mut self, p: ParamId, indices: &[usize]) -> NodeId {
        let table = self.store.get(p);
        let mut out = self.alloc(indices.len(), table.cols());
        gather_into(table, indices, &mut out);
        self.push(Op::GatherParamRows(p, indices.to_vec()), out)
    }

    /// The path-attention encoder over a ragged batch, as one node: for
    /// each sample (segment) of `segs`, its context rows `[T[start] |
    /// P[path] | T[end]]` (`T` = `tokens`, `P` = `paths`; row `r`'s
    /// indices are `columns[0..3][r]`) are projected by `w`, squashed by
    /// `tanh`, scored against `attn`, softmaxed within the segment and
    /// pooled: `segs.len() × code`, a zero row for an empty segment (and
    /// a constant, touching no parameter, when every segment is empty).
    ///
    /// The forward ([`crate::attention`]) runs projection, `tanh` and
    /// scores once per distinct context row and keeps only the distinct
    /// rows, their `tanh` outputs and the attention weights. The value,
    /// and every gradient, is the bits of the per-sample spelling —
    /// `gather_param_rows` ×3, `concat_cols`, `matmul`, `tanh`, `matmul`,
    /// `transpose`, `softmax_rows`, `matmul` per sample, stacked. The
    /// backward is one pass: per row, the pool's, the softmax's, the
    /// score product's and `tanh`'s gradient steps in that spelling's
    /// expressions ([`crate::kernels`]); then `d_attn` and `dW`, each
    /// segment's `xᵀ·g` summed on its own and added in reverse segment
    /// order (the per-sample tape's accumulation order), reading the
    /// distinct rows through the alias; and the context rows' gradient
    /// `gproj·Wᵀ`, which [`Graph::param_grads`] scatters into the tables
    /// in the per-sample order: into `T`, per sample its start rows
    /// ascending, then its end rows ascending; into `P`, every row
    /// ascending. A repeated row's gradients are never summed before they
    /// reach the tables, because the per-sample tape does not sum them.
    ///
    /// # Panics
    ///
    /// Panics when the columns and `segs` disagree on the row count, an
    /// index is outside its table, or the four parameters disagree on the
    /// widths.
    pub fn path_attention(
        &mut self,
        tokens: ParamId,
        paths: ParamId,
        w: ParamId,
        attn: ParamId,
        columns: [Vec<usize>; 3],
        segs: &Segments,
    ) -> NodeId {
        let store = self.store;
        let weights = AttentionWeights {
            tokens: store.get(tokens),
            paths: store.get(paths),
            w: store.get(w),
            attn: store.get(attn),
        };
        if columns.iter().all(Vec::is_empty) {
            // No sample has a context: the batch embeds to zero rows and
            // no parameter is touched, as in the per-sample spelling.
            assert_eq!(
                segs.total_rows(),
                0,
                "path_attention: segments cover missing rows"
            );
            let zeros = self.alloc(segs.len(), weights.code());
            return self.input(zeros);
        }
        let [s, m, e] = &columns;
        let alias = attention::context_alias(weights, [s, m, e]);
        let bounds: Vec<(usize, usize)> = segs.iter().collect();
        let (d, n, code) = (alias.distinct_rows(), alias.len(), weights.code());
        let mut ctx = self.alloc(d, weights.width());
        let mut c = self.alloc(d, code);
        let mut scores = self.alloc(d, 1);
        let mut alpha = self.alloc(n, 1);
        let mut out = self.alloc(bounds.len(), code);
        let bufs = Distinct {
            ctx: ctx.data_mut(),
            c: c.data_mut(),
            scores: scores.data_mut(),
            alpha: alpha.data_mut(),
        };
        attention::forward(weights, [s, m, e], &bounds, &alias, bufs, out.data_mut());
        self.recycle(scores);
        let (w, attn) = (self.param(w), self.param(attn));
        let kept = PathAttention {
            tokens,
            paths,
            w,
            attn,
            columns,
            bounds,
            alias,
            ctx,
            c,
            alpha,
            d_ctx: None,
        };
        self.push(Op::PathAttention(Box::new(kept)), out)
    }

    /// Concatenates tensors with equal row counts along columns.
    ///
    /// # Panics
    ///
    /// Panics when row counts differ or `parts` is empty.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let _timer = nvc_obs::time_op(nvc_obs::Op::Concat);
        let rows = self.values[parts[0].0].rows();
        let total: usize = parts.iter().map(|p| self.values[p.0].cols()).sum();
        let mut out = self.alloc(rows, total);
        let mut col = 0;
        for p in parts {
            let v = &self.values[p.0];
            assert_eq!(v.rows(), rows, "concat_cols row mismatch");
            let w = v.cols();
            for r in 0..rows {
                out.data_mut()[r * total + col..r * total + col + w]
                    .copy_from_slice(&v.data()[r * w..(r + 1) * w]);
            }
            col += w;
        }
        self.push(Op::ConcatCols(parts.to_vec()), out)
    }

    /// Stacks tensors with equal column counts along rows.
    ///
    /// # Panics
    ///
    /// Panics when column counts differ or `parts` is empty.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let _timer = nvc_obs::time_op(nvc_obs::Op::Concat);
        let cols = self.values[parts[0].0].cols();
        let total: usize = parts.iter().map(|p| self.values[p.0].rows()).sum();
        let mut out = self.alloc(total, cols);
        let mut row = 0;
        for p in parts {
            let v = &self.values[p.0];
            assert_eq!(v.cols(), cols, "concat_rows col mismatch");
            let n = v.len();
            out.data_mut()[row * cols..row * cols + n].copy_from_slice(v.data());
            row += v.rows();
        }
        self.push(Op::ConcatRows(parts.to_vec()), out)
    }

    /// Picks one element per row (e.g. the log-probability of the action
    /// taken), returning `n×1`.
    ///
    /// # Panics
    ///
    /// Panics when `indices.len()` differs from the row count or any index
    /// is out of bounds.
    pub fn pick_per_row(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let v = &self.values[a.0];
        assert_eq!(v.rows(), indices.len(), "one index per row required");
        let mut out = self.alloc(v.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < v.cols(), "pick index out of bounds");
            out.data_mut()[r] = v[(r, c)];
        }
        self.push(Op::PickPerRow(a, indices.to_vec()), out)
    }

    /// Sum of all elements, as `1×1`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let mut v = self.alloc(1, 1);
        v.data_mut()[0] = self.values[a.0].sum();
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements, as `1×1`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let t = &self.values[a.0];
        let mean = t.sum() / t.len() as f32;
        let mut v = self.alloc(1, 1);
        v.data_mut()[0] = mean;
        self.push(Op::MeanAll(a), v)
    }

    // ---- backward -------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` (must be `1×1`).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar or `backward` was already run.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.values[loss.0].shape(), (1, 1), "loss must be a scalar");
        let mut seed = self.alloc(1, 1);
        seed.data_mut()[0] = 1.0;
        self.backward_from(loss, seed);
    }

    /// [`Graph::backward`] from an arbitrary node whose gradient is `seed`.
    fn backward_from(&mut self, node: NodeId, seed: Tensor) {
        assert!(!self.ran_backward, "backward may only run once per graph");
        assert_eq!(self.values[node.0].shape(), seed.shape(), "seed shape");
        self.ran_backward = true;
        self.grads[node.0] = Some(seed);

        for i in (0..self.ops.len()).rev() {
            // Take the node's gradient for the duration of its backward
            // step (no clone); restored below so `grad()` keeps working.
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            // Likewise the op (some carry index vectors); put back below.
            let mut op = std::mem::replace(&mut self.ops[i], Op::Input);
            // The matmul family's kernels time themselves.
            let _timer = match op {
                Op::SegmentSoftmaxRows(..) => Some(nvc_obs::Op::SegmentSoftmax),
                Op::SegmentWeightedSum(..) => Some(nvc_obs::Op::SegmentWeightedSum),
                Op::GatherRows(..) => Some(nvc_obs::Op::Scatter),
                Op::ConcatCols(_) | Op::ConcatRows(_) => Some(nvc_obs::Op::Concat),
                Op::Add(..)
                | Op::Sub(..)
                | Op::MulElem(..)
                | Op::Minimum(..)
                | Op::Scale(..)
                | Op::AddScalar(..)
                | Op::Clamp(..)
                | Op::Tanh(_)
                | Op::Exp(_) => Some(nvc_obs::Op::Elementwise),
                _ => None,
            }
            .map(nvc_obs::time_op);
            match op {
                Op::Input | Op::Param(_) | Op::GatherParamRows(..) => {}
                Op::PathAttention(ref mut pa) => self.path_attention_backward(pa, &g),
                Op::MatMul(a, b) => {
                    let mut da = self.alloc(g.rows(), self.values[a.0].cols());
                    g.matmul_nt_accum_into(&self.values[b.0], &mut da);
                    let mut db = self.alloc(self.values[a.0].cols(), g.cols());
                    self.values[a.0].matmul_tn_accum_into(&g, &mut db);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::SegmentSoftmaxRows(a, ref segs) => {
                    let y = &self.values[i];
                    let cols = y.cols();
                    let mut da = self.alloc(y.rows(), cols);
                    for (r0, r1) in segs.iter() {
                        for c in 0..cols {
                            let dot: f32 = (r0..r1).map(|r| g[(r, c)] * y[(r, c)]).sum();
                            for r in r0..r1 {
                                da[(r, c)] = y[(r, c)] * (g[(r, c)] - dot);
                            }
                        }
                    }
                    self.accum(a, da);
                }
                Op::SegmentWeightedSum(w, v, ref segs) => {
                    // dw[r] = g[s]·v[r] (ascending-column dot, matching
                    // matmul_nt); dv[r] = w[r]·g[s] (single product,
                    // matching matmul_tn with one shared row).
                    let d = self.values[v.0].cols();
                    let mut dw = self.alloc(self.values[w.0].rows(), 1);
                    let mut dv = self.alloc(self.values[v.0].rows(), d);
                    {
                        let (wv, vv) = (&self.values[w.0], &self.values[v.0]);
                        for (s, (r0, r1)) in segs.iter().enumerate() {
                            let grow = &g.data()[s * d..(s + 1) * d];
                            for r in r0..r1 {
                                let vrow = &vv.data()[r * d..(r + 1) * d];
                                dw.data_mut()[r] = crate::kernels::dot(grow, vrow);
                                let a = wv.data()[r];
                                let dvrow = &mut dv.data_mut()[r * d..(r + 1) * d];
                                for (o, &gx) in dvrow.iter_mut().zip(grow.iter()) {
                                    *o = a * gx;
                                }
                            }
                        }
                    }
                    self.accum(w, dw);
                    self.accum(v, dv);
                }
                Op::Linear(x, w, b) => {
                    let mut dx = self.alloc(g.rows(), self.values[x.0].cols());
                    g.matmul_nt_accum_into(&self.values[w.0], &mut dx);
                    let mut dw = self.alloc(self.values[x.0].cols(), g.cols());
                    self.values[x.0].matmul_tn_accum_into(&g, &mut dw);
                    let db = colsum(self, &g);
                    self.accum(x, dx);
                    self.accum(w, dw);
                    self.accum(b, db);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let db = colsum(self, &g);
                    let da = self.dup(&g);
                    self.accum(a, da);
                    self.accum(bias, db);
                }
                Op::Add(a, b) => {
                    let da = self.dup(&g);
                    let db = self.dup(&g);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Sub(a, b) => {
                    let da = self.dup(&g);
                    let mut db = self.dup(&g);
                    db.map_inplace(|x| -x);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::MulElem(a, b) => {
                    let mut da = self.dup(&g);
                    da.zip_inplace(&self.values[b.0], |x, y| x * y);
                    let mut db = self.dup(&g);
                    db.zip_inplace(&self.values[a.0], |x, y| x * y);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Minimum(a, b) => {
                    let (av, bv) = (&self.values[a.0], &self.values[b.0]);
                    let mut da = self.alloc(g.rows(), g.cols());
                    let mut db = self.alloc(g.rows(), g.cols());
                    for (((da_i, db_i), &gd), (&x, &y)) in da
                        .data_mut()
                        .iter_mut()
                        .zip(db.data_mut().iter_mut())
                        .zip(g.data().iter())
                        .zip(av.data().iter().zip(bv.data().iter()))
                    {
                        if x <= y {
                            *da_i = gd;
                        } else {
                            *db_i = gd;
                        }
                    }
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Scale(a, c) => {
                    let mut da = self.dup(&g);
                    da.map_inplace(|x| x * c);
                    self.accum(a, da);
                }
                Op::AddScalar(a, _) => {
                    let da = self.dup(&g);
                    self.accum(a, da);
                }
                Op::Clamp(a, lo, hi) => {
                    let mut da = self.dup(&g);
                    da.zip_inplace(
                        &self.values[a.0],
                        |gd, x| {
                            if x > lo && x < hi {
                                gd
                            } else {
                                0.0
                            }
                        },
                    );
                    self.accum(a, da);
                }
                Op::Tanh(a) => {
                    let mut da = self.dup(&g);
                    da.zip_inplace(&self.values[i], |gd, y| gd * (1.0 - y * y));
                    self.accum(a, da);
                }
                Op::Exp(a) => {
                    let mut da = self.dup(&g);
                    da.zip_inplace(&self.values[i], |gd, y| gd * y);
                    self.accum(a, da);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.values[i];
                    let mut da = self.alloc(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|c| g[(r, c)] * y[(r, c)]).sum();
                        for c in 0..y.cols() {
                            da[(r, c)] = y[(r, c)] * (g[(r, c)] - dot);
                        }
                    }
                    self.accum(a, da);
                }
                Op::LogSoftmaxRows(a) => {
                    let y = &self.values[i]; // log-probs
                    let mut da = self.alloc(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = (0..y.cols()).map(|c| g[(r, c)]).sum();
                        for c in 0..y.cols() {
                            da[(r, c)] = g[(r, c)] - y[(r, c)].exp() * gsum;
                        }
                    }
                    self.accum(a, da);
                }
                Op::Transpose(a) => {
                    let (rows, cols) = (g.rows(), g.cols());
                    let mut da = self.alloc(cols, rows);
                    for r in 0..rows {
                        for c in 0..cols {
                            da.data_mut()[c * rows + r] = g.data()[r * cols + c];
                        }
                    }
                    self.accum(a, da);
                }
                Op::GatherRows(table, ref indices) => {
                    let t = &self.values[table.0];
                    let mut dt = self.alloc(t.rows(), t.cols());
                    scatter_add_rows(&g, indices, &mut dt);
                    self.accum(table, dt);
                }
                Op::ConcatCols(ref parts) => {
                    let total = g.cols();
                    let mut col = 0;
                    for &p in parts {
                        let w = self.values[p.0].cols();
                        let rows = self.values[p.0].rows();
                        let mut dp = self.alloc(rows, w);
                        for r in 0..rows {
                            dp.data_mut()[r * w..(r + 1) * w]
                                .copy_from_slice(&g.data()[r * total + col..r * total + col + w]);
                        }
                        self.accum(p, dp);
                        col += w;
                    }
                }
                Op::ConcatRows(ref parts) => {
                    let cols = g.cols();
                    let mut row = 0;
                    for &p in parts {
                        let h = self.values[p.0].rows();
                        let mut dp = self.alloc(h, cols);
                        let n = h * cols;
                        dp.data_mut()
                            .copy_from_slice(&g.data()[row * cols..row * cols + n]);
                        self.accum(p, dp);
                        row += h;
                    }
                }
                Op::PickPerRow(a, ref indices) => {
                    let v = &self.values[a.0];
                    let mut da = self.alloc(v.rows(), v.cols());
                    for (r, &c) in indices.iter().enumerate() {
                        da[(r, c)] += g[(r, 0)];
                    }
                    self.accum(a, da);
                }
                Op::SumAll(a) => {
                    let gv = g[(0, 0)];
                    let v = &self.values[a.0];
                    let mut da = self.alloc(v.rows(), v.cols());
                    da.data_mut().fill(gv);
                    self.accum(a, da);
                }
                Op::MeanAll(a) => {
                    let v = &self.values[a.0];
                    let gv = g[(0, 0)] / v.len() as f32;
                    let mut da = self.alloc(v.rows(), v.cols());
                    da.data_mut().fill(gv);
                    self.accum(a, da);
                }
            }
            self.ops[i] = op;
            self.grads[i] = Some(g);
        }
    }

    /// [`Graph::path_attention`]'s backward from its upstream gradient
    /// `g`: `dW` and `d_attn` into the parameter nodes, the context rows'
    /// gradient into `pa` for [`Graph::param_grads`].
    fn path_attention_backward(&mut self, pa: &mut PathAttention, g: &Tensor) {
        let (n, code) = (pa.alias.len(), pa.c.cols());
        let width = pa.ctx.cols();
        let rows = pa.alias.slots();
        let mut gs = self.alloc(n, 1);
        let mut gproj = self.alloc(n, code);
        crate::kernels::attention_backward_rows(
            &pa.bounds,
            rows,
            pa.alpha.data(),
            g.data(),
            pa.c.data(),
            self.values[pa.attn.0].data(),
            gs.data_mut(),
            gproj.data_mut(),
        );
        let widest = pa.bounds.iter().map(|&(r0, r1)| r1 - r0).max().unwrap_or(0);
        let mut window = self.alloc(widest, width.max(code));
        let mut d_attn = self.alloc(code, 1);
        crate::kernels::segment_matmul_tn_accum(
            &pa.bounds,
            pa.c.data(),
            rows,
            gs.data(),
            code,
            1,
            window.data_mut(),
            d_attn.data_mut(),
        );
        let mut d_ctx = self.alloc(n, width);
        gproj.matmul_nt_accum_into(&self.values[pa.w.0], &mut d_ctx);
        let mut dw = self.alloc(width, code);
        crate::kernels::segment_matmul_tn_accum(
            &pa.bounds,
            pa.ctx.data(),
            rows,
            gproj.data(),
            width,
            code,
            window.data_mut(),
            dw.data_mut(),
        );
        for spent in [gs, gproj, window] {
            self.recycle(spent);
        }
        pa.d_ctx = Some(d_ctx);
        self.accum(pa.attn, d_attn);
        self.accum(pa.w, dw);
    }

    fn accum(&mut self, n: NodeId, g: Tensor) {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Elementwise);
        match &mut self.grads[n.0] {
            Some(existing) => {
                existing.add_scaled(&g, 1.0);
                if let Some(arena) = self.arena {
                    arena.recycle(g);
                }
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Gradients of every parameter node, merged by [`ParamId`] in tape
    /// order. Gathered-parameter nodes ([`Graph::gather_param_rows`],
    /// [`Graph::path_attention`]) scatter their row gradients into
    /// table-shaped tensors here.
    ///
    /// The tensors are handed over, not copied: a parameter node's
    /// gradient leaves the tape (its [`Graph::grad`] reads `None`
    /// afterwards) and the table-shaped ones come from the arena, so a
    /// caller that owns the arena can recycle all of them once applied.
    pub fn param_grads(&mut self) -> HashMap<ParamId, Tensor> {
        let _timer = nvc_obs::time_op(nvc_obs::Op::Scatter);
        let mut out: HashMap<ParamId, Tensor> = HashMap::new();
        for i in 0..self.ops.len() {
            match &self.ops[i] {
                Op::Param(p) => {
                    if let Some(g) = self.grads[i].take() {
                        match out.entry(*p) {
                            Entry::Occupied(mut acc) => {
                                acc.get_mut().add_scaled(&g, 1.0);
                                self.recycle(g);
                            }
                            Entry::Vacant(slot) => {
                                slot.insert(g);
                            }
                        }
                    }
                }
                Op::GatherParamRows(p, indices) => {
                    if let Some(g) = &self.grads[i] {
                        let table = self.table_grad(&mut out, *p);
                        scatter_add_rows(g, indices, table);
                    }
                }
                Op::PathAttention(pa) => {
                    if let Some(g) = &pa.d_ctx {
                        let dt = self.store.get(pa.tokens).cols();
                        let dp = g.cols() - 2 * dt;
                        let grad = |r: usize, col: usize, w: usize| {
                            &g.data()[r * g.cols() + col..r * g.cols() + col + w]
                        };
                        let [starts, mids, ends] = &pa.columns;
                        let tokens = self.table_grad(&mut out, pa.tokens);
                        for &(r0, r1) in &pa.bounds {
                            for r in r0..r1 {
                                add_row(tokens, starts[r], grad(r, 0, dt));
                            }
                            for r in r0..r1 {
                                add_row(tokens, ends[r], grad(r, dt + dp, dt));
                            }
                        }
                        let paths = self.table_grad(&mut out, pa.paths);
                        for (r, &idx) in mids.iter().enumerate() {
                            add_row(paths, idx, grad(r, dt, dp));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// `p`'s entry in `grads`, a zeroed table-shaped tensor if it has none.
    fn table_grad<'m>(
        &self,
        grads: &'m mut HashMap<ParamId, Tensor>,
        p: ParamId,
    ) -> &'m mut Tensor {
        let table = self.store.get(p);
        grads
            .entry(p)
            .or_insert_with(|| self.alloc(table.rows(), table.cols()))
    }
}

impl Drop for Graph<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena {
            for op in self.ops.drain(..) {
                if let Op::PathAttention(pa) = op {
                    pa.into_tensors().for_each(|t| arena.recycle(t));
                }
            }
            for v in self.values.drain(..) {
                if let Value::Owned(t) = v {
                    arena.recycle(t);
                }
            }
            for g in self.grads.drain(..).flatten() {
                arena.recycle(g);
            }
        }
    }
}

/// Column sums of `g` as a `1×d` arena-backed tensor (bias gradients).
fn colsum(g_ref: &Graph<'_>, g: &Tensor) -> Tensor {
    let cols = g.cols();
    let mut out = g_ref.alloc(1, cols);
    for r in 0..g.rows() {
        let row = &g.data()[r * cols..(r + 1) * cols];
        for (o, &x) in out.data_mut().iter_mut().zip(row.iter()) {
            *o += x;
        }
    }
    out
}

/// `table[indices[r]] += rows[r]` for ascending `r` — the backward of a
/// row gather.
fn scatter_add_rows(rows: &Tensor, indices: &[usize], table: &mut Tensor) {
    let cols = table.cols();
    for (r, &idx) in indices.iter().enumerate() {
        add_row(table, idx, &rows.data()[r * cols..(r + 1) * cols]);
    }
}

/// `table[idx] += grad`.
fn add_row(table: &mut Tensor, idx: usize, grad: &[f32]) {
    let cols = table.cols();
    let dst = &mut table.data_mut()[idx * cols..(idx + 1) * cols];
    for (d, &gd) in dst.iter_mut().zip(grad) {
        *d += gd;
    }
}

fn gather_into(table: &Tensor, indices: &[usize], out: &mut Tensor) {
    let _timer = nvc_obs::time_op(nvc_obs::Op::Gather);
    let cols = table.cols();
    for (i, &idx) in indices.iter().enumerate() {
        assert!(idx < table.rows(), "gather index out of bounds");
        out.data_mut()[i * cols..(i + 1) * cols].copy_from_slice(table.row(idx));
    }
}

fn softmax_rows_inplace(t: &mut Tensor) {
    let (rows, cols) = t.shape();
    if crate::kernels::kernel_mode() == crate::kernels::KernelMode::Fast {
        // Same single-pass online-max kernel the segmented spelling uses
        // (stride 1 over a contiguous row), so the per-sample `transpose
        // → softmax_rows` chain stays bitwise-equal to
        // `segment_softmax_rows` in fast mode too.
        for r in 0..rows {
            crate::kernels::bodies::online_softmax_strided(t.data_mut(), r * cols, 1, cols);
        }
        return;
    }
    for r in 0..rows {
        let row = &mut t.data_mut()[r * cols..(r + 1) * cols];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            let e = (*x - m).exp();
            *x = e;
            sum += e;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Central finite-difference check of `d loss / d param` for an
    /// arbitrary graph builder.
    fn grad_check(
        shape: (usize, usize),
        build: impl Fn(&mut Graph<'_>, NodeId) -> NodeId,
        seed: u64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut store = ParamStore::new(seed);
        let init = Tensor::from_vec(
            shape.0,
            shape.1,
            (0..shape.0 * shape.1)
                .map(|_| rng.gen_range(-0.9..0.9f32))
                .collect(),
        );
        let p = store.param("p", init);

        // Analytic gradient (scoped: Graph's Drop holds the store borrow).
        let analytic = {
            let mut g = Graph::new(&store);
            let leaf = g.param(p);
            let loss = build(&mut g, leaf);
            g.backward(loss);
            g.param_grads().remove(&p).expect("param grad")
        };

        // Numeric gradient.
        let eps = 1e-3f32;
        for i in 0..store.get(p).len() {
            let orig = store.get(p).data()[i];
            store.get_mut(p).data_mut()[i] = orig + eps;
            let f1 = {
                let mut g1 = Graph::new(&store);
                let leaf = g1.param(p);
                let l1 = build(&mut g1, leaf);
                g1.value(l1).data()[0]
            };

            store.get_mut(p).data_mut()[i] = orig - eps;
            let f2 = {
                let mut g2 = Graph::new(&store);
                let leaf = g2.param(p);
                let l2 = build(&mut g2, leaf);
                g2.value(l2).data()[0]
            };

            store.get_mut(p).data_mut()[i] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {i}: analytic={a} numeric={numeric}"
            );
        }
    }

    #[test]
    fn row_alias_groups_equal_keys_in_first_seen_order() {
        let alias = RowAlias::from_keys(["b", "a", "b", "c", "a"]);
        assert_eq!(alias.firsts(), [0, 1, 3]);
        assert_eq!(alias.slots(), [0, 1, 0, 2, 1]);
        assert_eq!((alias.len(), alias.distinct_rows()), (5, 3));
        let lone = RowAlias::from_keys(std::iter::once(7u64));
        assert_eq!((lone.firsts(), lone.slots()), (&[0][..], &[0][..]));
        let none = RowAlias::from_keys(std::iter::empty::<u64>());
        assert!(none.len() == 0 && none.firsts().is_empty());
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            (3, 4),
            |g, p| {
                let w = g.input(Tensor::from_vec(
                    4,
                    2,
                    (0..8).map(|i| i as f32 * 0.1).collect(),
                ));
                let y = g.matmul(p, w);
                g.sum_all(y)
            },
            1,
        );
    }

    #[test]
    fn grad_matmul_rhs() {
        grad_check(
            (4, 2),
            |g, p| {
                let x = g.input(Tensor::from_vec(
                    3,
                    4,
                    (0..12).map(|i| i as f32 * 0.1 - 0.5).collect(),
                ));
                let y = g.matmul(x, p);
                g.sum_all(y)
            },
            2,
        );
    }

    #[test]
    fn grad_linear_wrt_input() {
        grad_check(
            (3, 4),
            |g, p| {
                let w = g.input(Tensor::from_vec(
                    4,
                    2,
                    (0..8).map(|i| i as f32 * 0.1 - 0.3).collect(),
                ));
                let b = g.input(Tensor::from_vec(1, 2, vec![0.5, -0.25]));
                let y = g.linear(p, w, b);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            21,
        );
    }

    #[test]
    fn grad_linear_wrt_weight() {
        grad_check(
            (4, 2),
            |g, p| {
                let x = g.input(Tensor::from_vec(
                    3,
                    4,
                    (0..12).map(|i| i as f32 * 0.07 - 0.4).collect(),
                ));
                let b = g.input(Tensor::from_vec(1, 2, vec![0.1, 0.2]));
                let y = g.linear(x, p, b);
                let sq = g.mul_elem(y, y);
                g.mean_all(sq)
            },
            22,
        );
    }

    #[test]
    fn grad_linear_wrt_bias() {
        grad_check(
            (1, 3),
            |g, p| {
                let x = g.input(Tensor::from_vec(
                    4,
                    2,
                    (0..8).map(|i| i as f32 * 0.1).collect(),
                ));
                let w = g.input(Tensor::from_vec(
                    2,
                    3,
                    (0..6).map(|i| i as f32 * 0.2).collect(),
                ));
                let y = g.linear(x, w, p);
                let e = g.exp(y);
                g.sum_all(e)
            },
            23,
        );
    }

    /// The fused op must be bitwise-identical to the two-op spelling —
    /// forward values and all parameter gradients.
    #[test]
    fn linear_matches_matmul_plus_broadcast_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut store = ParamStore::new(31);
        let x_init = Tensor::from_vec(5, 7, (0..35).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let w = store.param(
            "w",
            Tensor::from_vec(7, 3, (0..21).map(|_| rng.gen_range(-1.0..1.0)).collect()),
        );
        let b = store.param(
            "b",
            Tensor::from_vec(1, 3, (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()),
        );

        let mut g1 = Graph::new(&store);
        let x1 = g1.input(x_init.clone());
        let (wn, bn) = (g1.param(w), g1.param(b));
        let fused = g1.linear(x1, wn, bn);
        let t1 = g1.tanh(fused);
        let l1 = g1.sum_all(t1);
        g1.backward(l1);
        let grads1 = g1.param_grads();

        let mut g2 = Graph::new(&store);
        let x2 = g2.input(x_init);
        let (wn2, bn2) = (g2.param(w), g2.param(b));
        let mm = g2.matmul(x2, wn2);
        let unfused = g2.add_row_broadcast(mm, bn2);
        let t2 = g2.tanh(unfused);
        let l2 = g2.sum_all(t2);
        g2.backward(l2);
        let grads2 = g2.param_grads();

        assert_eq!(g1.value(fused), g2.value(unfused), "forward diverged");
        assert_eq!(grads1[&w], grads2[&w], "dW diverged");
        assert_eq!(grads1[&b], grads2[&b], "db diverged");
    }

    /// Direct-from-store gathers must match the param + gather_rows
    /// spelling bitwise, values and gradients both.
    #[test]
    fn gather_param_rows_matches_param_gather() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut store = ParamStore::new(37);
        let table = store.param(
            "table",
            Tensor::from_vec(6, 4, (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect()),
        );
        let idxs = [0usize, 3, 3, 5, 1];

        let mut g1 = Graph::new(&store);
        let rows1 = g1.gather_param_rows(table, &idxs);
        let sq1 = g1.mul_elem(rows1, rows1);
        let l1 = g1.sum_all(sq1);
        g1.backward(l1);
        let grads1 = g1.param_grads();

        let mut g2 = Graph::new(&store);
        let t = g2.param(table);
        let rows2 = g2.gather_rows(t, &idxs);
        let sq2 = g2.mul_elem(rows2, rows2);
        let l2 = g2.sum_all(sq2);
        g2.backward(l2);
        let grads2 = g2.param_grads();

        assert_eq!(g1.value(rows1), g2.value(rows2));
        assert_eq!(grads1[&table], grads2[&table]);
    }

    /// `len` values, one in three from `−0`, `+0`, quiet and signalling
    /// NaNs of either sign and `±∞` when `hostile`, else all in `±2`.
    fn values(rng: &mut ChaCha8Rng, len: usize, hostile: bool) -> Vec<f32> {
        let special = [
            -0.0,
            0.0,
            f32::from_bits(0x7FC0_0123),
            f32::from_bits(0xFFC0_0042),
            f32::from_bits(0x7F80_0456),
            f32::from_bits(0xFF80_0007),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        (0..len)
            .map(|_| match rng.gen_range(0..3) {
                0 if hostile => special[rng.gen_range(0..special.len())],
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    }

    /// Bit patterns with every NaN canonicalised: a NaN's payload depends
    /// on which operand the hardware propagates, which no spelling pins.
    fn canonical_bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// The encoder's parameters at toy size: tokens `5×3`, paths `4×2`,
    /// `W` `8×4`, attention `4×1`.
    fn attention_params(
        store: &mut ParamStore,
        rng: &mut ChaCha8Rng,
        hostile: bool,
    ) -> [ParamId; 4] {
        let mut param = |name: &str, rows: usize, cols: usize, hostile: bool| {
            store.param(
                name,
                Tensor::from_vec(rows, cols, values(rng, rows * cols, hostile)),
            )
        };
        [
            param("tokens", 5, 3, hostile),
            param("paths", 4, 2, hostile),
            param("w", 8, 4, false),
            param("attn", 4, 1, false),
        ]
    }

    /// One sample's `(start, path, end)` triples.
    type Triples = Vec<(usize, usize, usize)>;

    /// The per-sample spelling of [`Graph::path_attention`]: per sample
    /// `gather_param_rows` ×3, `concat_cols`, `matmul`, `tanh`, `matmul`,
    /// `transpose`, `softmax_rows`, `matmul` (a zero row for an empty
    /// sample), stacked with `concat_rows`.
    fn attention_per_sample(
        g: &mut Graph<'_>,
        [t, p, w, a]: [ParamId; 4],
        batch: &[Triples],
    ) -> NodeId {
        let code = g.store.get(w).cols();
        let rows: Vec<NodeId> = batch
            .iter()
            .map(|sample| {
                if sample.is_empty() {
                    return g.input(Tensor::zeros(1, code));
                }
                let column = |f: fn(&(usize, usize, usize)) -> usize| -> Vec<usize> {
                    sample.iter().map(f).collect()
                };
                let (wn, an) = (g.param(w), g.param(a));
                let s = g.gather_param_rows(t, &column(|x| x.0));
                let m = g.gather_param_rows(p, &column(|x| x.1));
                let e = g.gather_param_rows(t, &column(|x| x.2));
                let ctx = g.concat_cols(&[s, m, e]);
                let proj = g.matmul(ctx, wn);
                let c = g.tanh(proj);
                let scores = g.matmul(c, an);
                let row = g.transpose(scores);
                let alpha = g.softmax_rows(row);
                g.matmul(alpha, c)
            })
            .collect();
        if rows.len() == 1 {
            rows[0]
        } else {
            g.concat_rows(&rows)
        }
    }

    /// The op itself over `batch`.
    fn attention_op(g: &mut Graph<'_>, [t, p, w, a]: [ParamId; 4], batch: &[Triples]) -> NodeId {
        let segs = Segments::from_lens(batch.iter().map(Vec::len));
        let flat: Vec<&(usize, usize, usize)> = batch.iter().flatten().collect();
        let columns = [
            flat.iter().map(|x| x.0).collect(),
            flat.iter().map(|x| x.1).collect(),
            flat.iter().map(|x| x.2).collect(),
        ];
        g.path_attention(t, p, w, a, columns, &segs)
    }

    /// The batches the op's tests run: each repeats rows in one of the
    /// ways real batches do — none of them by accident.
    fn attention_batches(rng: &mut ChaCha8Rng) -> Vec<(&'static str, Vec<Triples>)> {
        let mut triple = || {
            (
                rng.gen_range(0..5),
                rng.gen_range(0..4),
                rng.gen_range(0..5),
            )
        };
        let (a, b, c, d) = (triple(), triple(), triple(), triple());
        let (x, y) = (vec![a, b, c], vec![d, b]);
        vec![
            (
                "a whole sample repeated",
                vec![x.clone(), y.clone(), x.clone(), x.clone()],
            ),
            (
                "triples shared across samples",
                vec![vec![a, b], vec![c, a, d], vec![b]],
            ),
            (
                "a triple repeated inside a sample",
                vec![vec![a, b, a, c, a], vec![d]],
            ),
            (
                "every row the same",
                vec![vec![a, a, a], vec![a], vec![a, a]],
            ),
            (
                "empty at both ends and in the middle",
                vec![vec![], x.clone(), vec![], y, vec![]],
            ),
            ("a lone sample", vec![vec![c, d, c]]),
            ("only empty samples", vec![vec![], vec![]]),
        ]
    }

    /// [`Graph::path_attention`] against the per-sample spelling it
    /// stands for, bit for bit with NaN payloads canonicalised: the value
    /// and the gradients of all four parameters, seeded by an upstream
    /// gradient. Batches repeat whole samples, triples across samples and
    /// triples inside a sample, and hold empty samples at both ends and
    /// in the middle; the tables and the upstream gradient carry `±0`,
    /// `±∞` and NaN payloads in the hostile rounds.
    #[test]
    fn path_attention_matches_per_sample_spelling_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for hostile in [false, true] {
            let mut store = ParamStore::new(41);
            let params = attention_params(&mut store, &mut rng, hostile);
            for (name, batch) in attention_batches(&mut rng) {
                let upstream =
                    Tensor::from_vec(batch.len(), 4, values(&mut rng, batch.len() * 4, hostile));
                let run = |build: &dyn Fn(&mut Graph<'_>) -> NodeId| {
                    let mut g = Graph::new(&store);
                    let out = build(&mut g);
                    let value = g.value(out).clone();
                    g.backward_from(out, upstream.clone());
                    let grads = g.param_grads();
                    let grad = |p: &ParamId| grads.get(p).map(canonical_bits);
                    (
                        canonical_bits(&value),
                        params.iter().map(grad).collect::<Vec<_>>(),
                    )
                };
                let fused = run(&|g| attention_op(g, params, &batch));
                let spelled = run(&|g| attention_per_sample(g, params, &batch));
                assert_eq!(fused.0, spelled.0, "value: {name}, hostile {hostile}");
                for (i, p) in ["tokens", "paths", "W", "attention"].iter().enumerate() {
                    assert_eq!(
                        fused.1[i], spelled.1[i],
                        "{p} gradient: {name}, hostile {hostile}"
                    );
                }
            }
        }
    }

    /// [`Graph::path_attention`]'s gradient of every parameter element
    /// against central finite differences, on a batch with repeats and an
    /// empty sample.
    #[test]
    fn grad_path_attention() {
        let mut rng = ChaCha8Rng::seed_from_u64(57);
        let mut store = ParamStore::new(57);
        let params = attention_params(&mut store, &mut rng, false);
        let batch = vec![
            vec![(1, 2, 3), (0, 1, 4), (1, 2, 3)],
            vec![],
            vec![(0, 1, 4), (2, 3, 2)],
        ];
        let sel = Tensor::from_vec(3, 4, values(&mut rng, 12, false));
        let loss = |g: &mut Graph<'_>| {
            let out = attention_op(g, params, &batch);
            let s = g.input(sel.clone());
            let prod = g.mul_elem(out, s);
            g.sum_all(prod)
        };
        let analytic = {
            let mut g = Graph::new(&store);
            let l = loss(&mut g);
            g.backward(l);
            g.param_grads()
        };
        let eps = 1e-3f32;
        for p in params {
            for i in 0..store.get(p).len() {
                let orig = store.get(p).data()[i];
                let mut at = |x: f32| {
                    store.get_mut(p).data_mut()[i] = x;
                    let mut g = Graph::new(&store);
                    let l = loss(&mut g);
                    g.value(l).data()[0]
                };
                let numeric = (at(orig + eps) - at(orig - eps)) / (2.0 * eps);
                store.get_mut(p).data_mut()[i] = orig;
                let a = analytic[&p].data()[i];
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                    "grad mismatch at {i}: analytic={a} numeric={numeric}"
                );
            }
        }
    }

    /// On an arena tape the op's kept tensors go back to the arena with
    /// the tape, and a second tape runs on recycled buffers alone.
    #[test]
    fn path_attention_returns_its_buffers_to_the_arena() {
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let mut store = ParamStore::new(63);
        let params = attention_params(&mut store, &mut rng, false);
        let batch = attention_batches(&mut rng).remove(0).1;
        let arena = TensorArena::new();
        let run = || {
            let mut g = Graph::with_arena(&store, &arena);
            let out = attention_op(&mut g, params, &batch);
            let l = g.sum_all(out);
            g.backward(l);
            for grad in g.param_grads().into_values() {
                arena.recycle(grad);
            }
        };
        run();
        let fresh = arena.stats().fresh;
        run();
        assert_eq!(arena.stats().fresh, fresh, "{:?}", arena.stats());
    }

    /// A parameter node is the store's tensor, read in place: one node
    /// per `ParamId`, no copy, nothing drawn from the arena.
    #[test]
    fn param_nodes_are_memoized_borrows_of_the_store() {
        let mut store = ParamStore::new(0);
        let p = store.param_xavier("p", 6, 4);
        let arena = TensorArena::new();
        let mut g = Graph::with_arena(&store, &arena);
        let a = g.param(p);
        let b = g.param(p);
        assert_eq!(a, b, "same ParamId must map to one tape node");
        assert_eq!(
            g.value(a).data().as_ptr(),
            store.get(p).data().as_ptr(),
            "the tape must hold the store's tensor, not a copy"
        );
        let stats = arena.stats();
        assert_eq!((stats.fresh, stats.reused), (0, 0), "{stats:?}");
    }

    /// Backward through a borrowed parameter gives, bit for bit, the
    /// gradients the same tape gives for a copy of the weights fed in as
    /// an operand it owns.
    #[test]
    fn borrowed_param_gradients_match_an_owned_copy_bitwise() {
        let mut store = ParamStore::new(41);
        let w = store.param_xavier("w", 7, 3);
        let b = store.param_xavier("b", 1, 3);
        let x = Tensor::from_vec(5, 7, (0..35).map(|i| (i as f32 * 0.37).sin()).collect());

        let run = |g: &mut Graph<'_>, wn: NodeId, bn: NodeId| {
            let xn = g.input(x.clone());
            let y = g.linear(xn, wn, bn);
            let t = g.tanh(y);
            // A second use of `w`, so its gradient accumulates.
            let wt = g.transpose(wn);
            let scores = g.matmul(t, wt);
            let l = g.mean_all(scores);
            g.backward(l);
            g.value(scores).clone()
        };

        let mut borrowed = Graph::new(&store);
        let (wn, bn) = (borrowed.param(w), borrowed.param(b));
        let v1 = run(&mut borrowed, wn, bn);
        let grads = borrowed.param_grads();

        let mut owned = Graph::new(&store);
        let wn = owned.input(store.get(w).clone());
        let bn = owned.input(store.get(b).clone());
        let v2 = run(&mut owned, wn, bn);

        assert_eq!(v1, v2, "forward diverged");
        assert_eq!(&grads[&w], owned.grad(wn).expect("dW"), "dW diverged");
        assert_eq!(&grads[&b], owned.grad(bn).expect("db"), "db diverged");
    }

    /// An arena-backed graph computes the same values as a plain one and
    /// actually reuses buffers on the second tape.
    #[test]
    fn arena_graphs_match_plain_graphs_and_reuse_buffers() {
        let mut store = ParamStore::new(5);
        let w = store.param_xavier("w", 6, 4);
        let b = store.param("b", Tensor::zeros(1, 4));
        let arena = TensorArena::new();
        let x = Tensor::from_vec(3, 6, (0..18).map(|i| (i as f32).sin()).collect());

        let run = |g: &mut Graph<'_>| {
            let xn = g.input(x.clone());
            let (wn, bn) = (g.param(w), g.param(b));
            let y = g.linear(xn, wn, bn);
            let t = g.tanh(y);
            let l = g.mean_all(t);
            g.backward(l);
            (g.value(t).clone(), g.param_grads())
        };

        let (plain_v, plain_g) = {
            let mut g = Graph::new(&store);
            run(&mut g)
        };
        for pass in 0..2 {
            let mut g = Graph::with_arena(&store, &arena);
            let (v, grads) = run(&mut g);
            assert_eq!(v, plain_v, "arena pass {pass} changed forward values");
            assert_eq!(grads[&w], plain_g[&w]);
            assert_eq!(grads[&b], plain_g[&b]);
        }
        let stats = arena.stats();
        assert!(
            stats.reused > 0,
            "second arena tape must reuse buffers: {stats:?}"
        );
    }

    #[test]
    fn segments_partition_rows() {
        let segs = Segments::from_lens([3, 0, 2]);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs.total_rows(), 5);
        assert_eq!(segs.bounds(0), (0, 3));
        assert_eq!(segs.bounds(1), (3, 3));
        assert_eq!(segs.bounds(2), (3, 5));
        let bounds: Vec<_> = segs.iter().collect();
        assert_eq!(bounds, vec![(0, 3), (3, 3), (3, 5)]);
        assert!(!segs.is_empty());
        assert!(Segments::from_lens([]).is_empty());
    }

    #[test]
    fn grad_segment_softmax_rows() {
        let segs = Segments::from_lens([3, 1, 2]);
        grad_check(
            (6, 1),
            move |g, p| {
                let s = g.segment_softmax_rows(p, &segs);
                let w = g.input(Tensor::from_vec(6, 1, vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4]));
                let m = g.mul_elem(s, w);
                g.sum_all(m)
            },
            53,
        );
    }

    #[test]
    fn grad_segment_weighted_sum_wrt_weights() {
        let segs = Segments::from_lens([2, 3]);
        grad_check(
            (5, 1),
            move |g, p| {
                let v = g.input(Tensor::from_vec(
                    5,
                    3,
                    (0..15).map(|i| (i as f32 * 0.7).cos()).collect(),
                ));
                let pooled = g.segment_weighted_sum(p, v, &segs);
                let sq = g.mul_elem(pooled, pooled);
                g.sum_all(sq)
            },
            54,
        );
    }

    #[test]
    fn grad_segment_weighted_sum_wrt_values() {
        let segs = Segments::from_lens([2, 0, 3]);
        grad_check(
            (5, 3),
            move |g, p| {
                let w = g.input(Tensor::from_vec(5, 1, vec![0.2, 0.8, 0.5, -0.3, 0.6]));
                let pooled = g.segment_weighted_sum(w, p, &segs);
                let t = g.tanh(pooled);
                g.sum_all(t)
            },
            55,
        );
    }

    #[test]
    fn grad_tanh_exp() {
        grad_check(
            (2, 3),
            |g, p| {
                let t = g.tanh(p);
                let e = g.exp(t);
                g.sum_all(e)
            },
            3,
        );
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check(
            (2, 4),
            |g, p| {
                let s = g.softmax_rows(p);
                let w = g.input(Tensor::from_vec(
                    2,
                    4,
                    vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4, 0.8, -0.5],
                ));
                let m = g.mul_elem(s, w);
                g.sum_all(m)
            },
            4,
        );
    }

    #[test]
    fn grad_log_softmax_rows() {
        grad_check(
            (2, 5),
            |g, p| {
                let s = g.log_softmax_rows(p);
                let picked = g.pick_per_row(s, &[1, 3]);
                g.sum_all(picked)
            },
            5,
        );
    }

    #[test]
    fn grad_gather_rows() {
        grad_check(
            (5, 3),
            |g, p| {
                let rows = g.gather_rows(p, &[0, 2, 2, 4]);
                let sq = g.mul_elem(rows, rows);
                g.sum_all(sq)
            },
            6,
        );
    }

    #[test]
    fn grad_concat_and_transpose() {
        grad_check(
            (2, 3),
            |g, p| {
                let t = g.transpose(p); // 3x2
                let c = g.concat_cols(&[t, t]); // 3x4
                let r = g.concat_rows(&[c, c]); // 6x4
                let sq = g.mul_elem(r, r);
                g.mean_all(sq)
            },
            7,
        );
    }

    #[test]
    fn grad_minimum_and_clamp() {
        grad_check(
            (3, 3),
            |g, p| {
                let s = g.scale(p, 2.0);
                let c = g.clamp(s, -0.8, 0.8);
                let m = g.minimum(s, c);
                g.sum_all(m)
            },
            8,
        );
    }

    #[test]
    fn grad_add_sub_broadcast() {
        grad_check(
            (1, 4),
            |g, p| {
                let x = g.input(Tensor::from_vec(
                    3,
                    4,
                    (0..12).map(|i| i as f32 * 0.05).collect(),
                ));
                let y = g.add_row_broadcast(x, p);
                let z = g.sub(y, x);
                let w = g.add(z, y);
                g.mean_all(w)
            },
            9,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let store = ParamStore::new(0);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::from_vec(
            3,
            4,
            (0..12).map(|i| (i as f32).sin()).collect(),
        ));
        let s = g.softmax_rows(x);
        for r in 0..3 {
            let sum: f32 = g.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let store = ParamStore::new(0);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let ls = g.log_softmax_rows(x);
        let s = g.softmax_rows(x);
        for i in 0..6 {
            assert!((g.value(ls).data()[i] - g.value(s).data()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "loss must be a scalar")]
    fn backward_requires_scalar() {
        let store = ParamStore::new(0);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn shared_param_grads_accumulate() {
        let mut store = ParamStore::new(0);
        let p = store.param("p", Tensor::scalar(3.0));
        let mut g = Graph::new(&store);
        let a = g.param(p);
        let b = g.param(p);
        // loss = a * b = p^2 → dp = 2p = 6.
        let loss = g.mul_elem(a, b);
        g.backward(loss);
        let grads = g.param_grads();
        assert!((grads[&p].data()[0] - 6.0).abs() < 1e-5);
    }
}
