//! Aggregate per-op kernel timers: a `(calls, total_ns)` relaxed-atomic
//! pair per instrumented kernel family, gated by `NVC_OPS=1` (or
//! [`set_ops_enabled`] in-process, which the metrics renderers and the
//! bench harness use).
//!
//! The instrumented sites are the kernels that dominate forward/backward
//! time: the three matmul orientations at the kernel layer, the graph's
//! fused `linear`, the two segment reductions, the shared row-gather
//! helper, and `tanh`; then the update path's own work — the segmented
//! matmul's per-segment `xᵀ·g`, the row scatters of the gathers'
//! backward, concatenation, the tape's elementwise maps, repeated-row
//! indexing, the optimizer step and the environment's reward oracle.
//! `segment_matmul`'s forward and the
//! `matmul`/`matmul_tn`/`matmul_nt` graph wrappers delegate to the
//! instrumented accumulate kernels, so they are deliberately *not* timed
//! — one site per flop, no timer inside another, so the per-op times of a
//! training iteration add up to at most its wall-clock.
//!
//! Beside the timers sit the encoder's two work counters
//! ([`record_embed_rows`]): table rows looked up and table rows actually
//! multiplied through the projection. Their ratio is the dedup factor of
//! the encoder's forward (tape-free or on the tape) — useful work over
//! attempts for that layer, and for the fast tape-free forward the miss
//! ratio of its projected-row memo — read from the running process
//! instead of inferred from shapes. That memo's size is the one
//! instrument here that is **always on**: the [`embed_memo_bytes`] gauge.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// The instrumented kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// `C += A·B` (row-sharded).
    MatMul = 0,
    /// `C += Aᵀ·B` (the backward-pass weight-gradient orientation).
    MatMulTn = 1,
    /// `C += A·Bᵀ` (the backward-pass input-gradient orientation).
    MatMulNt = 2,
    /// The graph's fused `x·W + b` forward.
    Linear = 3,
    /// Per-segment softmax over ragged rows, and its backward.
    SegmentSoftmax = 4,
    /// Per-segment weighted sum (attention pooling), and its backward.
    SegmentWeightedSum = 5,
    /// Row gather (embedding lookups, both tape and parameter-direct).
    Gather = 6,
    /// Elementwise `tanh` (encoder activation, policy hidden layers).
    Tanh = 7,
    /// The segmented matmul's weight gradient: one `xᵀ·g` partial per
    /// segment, combined in reverse segment order.
    SegmentMatMulTn = 8,
    /// Row scatter-add — the backward of the gathers, on the tape and
    /// into the table-shaped parameter gradients.
    Scatter = 9,
    /// Optimizer step: gradients into the store, norm clip, Adam, reset.
    OptimStep = 10,
    /// Column/row concatenation (a context row from its three
    /// embeddings) and the split that is its backward.
    Concat = 11,
    /// The tape's elementwise maps other than `tanh`'s forward: loss
    /// arithmetic, and every activation's derivative in the backward.
    Elementwise = 12,
    /// Finding a batch's repeated samples and repeated context rows —
    /// what computing each distinct one once costs up front.
    Dedup = 13,
    /// The environment's reward oracle, one call per collected episode.
    Reward = 14,
}

/// How many [`Op`] variants exist.
pub const OP_COUNT: usize = 15;

impl Op {
    /// Every op, in stable display order.
    pub const ALL: [Op; OP_COUNT] = [
        Op::MatMul,
        Op::MatMulTn,
        Op::MatMulNt,
        Op::Linear,
        Op::SegmentSoftmax,
        Op::SegmentWeightedSum,
        Op::Gather,
        Op::Tanh,
        Op::SegmentMatMulTn,
        Op::Scatter,
        Op::OptimStep,
        Op::Concat,
        Op::Elementwise,
        Op::Dedup,
        Op::Reward,
    ];

    /// Stable snake_case name (metrics keys, JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            Op::MatMul => "matmul",
            Op::MatMulTn => "matmul_tn",
            Op::MatMulNt => "matmul_nt",
            Op::Linear => "linear",
            Op::SegmentSoftmax => "segment_softmax",
            Op::SegmentWeightedSum => "segment_weighted_sum",
            Op::Gather => "gather",
            Op::Tanh => "tanh",
            Op::SegmentMatMulTn => "segment_matmul_tn",
            Op::Scatter => "scatter",
            Op::OptimStep => "optim_step",
            Op::Concat => "concat",
            Op::Elementwise => "elementwise",
            Op::Dedup => "dedup",
            Op::Reward => "reward",
        }
    }
}

/// Tri-state enable flag: 0 = off, 1 = on, UNSET = consult `NVC_OPS`
/// once (the same lazy-env idiom as the kernel threading knobs).
const UNSET: u8 = 2;
static ENABLED: AtomicU8 = AtomicU8::new(UNSET);

static CALLS: [AtomicU64; OP_COUNT] = [const { AtomicU64::new(0) }; OP_COUNT];
static TOTAL_NS: [AtomicU64; OP_COUNT] = [const { AtomicU64::new(0) }; OP_COUNT];

static EMBED_CONTEXT_ROWS: AtomicU64 = AtomicU64::new(0);
static EMBED_PROJECTED_ROWS: AtomicU64 = AtomicU64::new(0);
static EMBED_MEMO_BYTES: AtomicU64 = AtomicU64::new(0);

/// True while op timers record. After the first call this is one
/// relaxed load.
#[inline]
pub fn ops_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = std::env::var_os("NVC_OPS").is_some_and(|v| v != "0" && !v.is_empty());
            ENABLED.store(on as u8, Ordering::Relaxed);
            on
        }
    }
}

/// Forces op timing on or off, overriding `NVC_OPS`.
pub fn set_ops_enabled(on: bool) {
    ENABLED.store(on as u8, Ordering::Relaxed);
}

/// A running op timer; accumulates into the op's aggregate on drop.
/// Obtain via [`time_op`].
#[must_use = "the op's duration accumulates when this guard drops"]
pub struct OpTimer {
    op: Op,
    start: Option<Instant>,
}

/// Starts timing one invocation of `op`. Disabled: one relaxed load,
/// no clock read, nothing recorded.
#[inline]
pub fn time_op(op: Op) -> OpTimer {
    OpTimer {
        op,
        start: ops_enabled().then(Instant::now),
    }
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            CALLS[self.op as usize].fetch_add(1, Ordering::Relaxed);
            TOTAL_NS[self.op as usize].fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// Aggregate for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStat {
    /// Which kernel family.
    pub op: Op,
    /// Invocations timed.
    pub calls: u64,
    /// Total time across those invocations, nanoseconds.
    pub total_ns: u64,
}

/// Every op's aggregate, in [`Op::ALL`] order (including zero-call
/// ops — renderers filter).
pub fn ops_snapshot() -> Vec<OpStat> {
    Op::ALL
        .iter()
        .map(|&op| OpStat {
            op,
            calls: CALLS[op as usize].load(Ordering::Relaxed),
            total_ns: TOTAL_NS[op as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// The encoder's work counters; see [`record_embed_rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmbedRows {
    /// Embedding-table rows looked up (three per path context).
    pub context_rows: u64,
    /// Table rows multiplied through the projection: equal to
    /// `context_rows` where every context row is projected (the strict
    /// tape-free forward), smaller where each distinct context row is
    /// projected once (the tape forward: three table rows apiece). The
    /// fast tape-free forward multiplies a `(role, row)` once per set of
    /// weights and keeps the product, so there this counts **memo
    /// fills**: the first requests after a load move it, steady traffic
    /// does not.
    pub projected_rows: u64,
}

impl EmbedRows {
    /// Stable metric names and values, in display order.
    pub fn named(self) -> [(&'static str, u64); 2] {
        [
            ("embed_context_rows_total", self.context_rows),
            ("embed_projected_rows_total", self.projected_rows),
        ]
    }
}

/// Adds one encoder forward's row counts. Recorded only while op
/// timing is on, like the timers.
#[inline]
pub fn record_embed_rows(context_rows: usize, projected_rows: usize) {
    if ops_enabled() {
        EMBED_CONTEXT_ROWS.fetch_add(context_rows as u64, Ordering::Relaxed);
        EMBED_PROJECTED_ROWS.fetch_add(projected_rows as u64, Ordering::Relaxed);
    }
}

/// Current totals of the encoder's work counters.
pub fn embed_rows_snapshot() -> EmbedRows {
    EmbedRows {
        context_rows: EMBED_CONTEXT_ROWS.load(Ordering::Relaxed),
        projected_rows: EMBED_PROJECTED_ROWS.load(Ordering::Relaxed),
    }
}

/// Bytes of projected embedding-table rows the fast tape-free forward
/// currently keeps, over every live encoder in the process. Always on —
/// a gauge of memory held, not a profile — and bounded per encoder by
/// `(2·token_buckets + path_buckets) · code_dim · 4`.
pub fn embed_memo_bytes() -> u64 {
    EMBED_MEMO_BYTES.load(Ordering::Relaxed)
}

/// A memo row of `bytes` was filled.
pub fn embed_memo_grew(bytes: usize) {
    EMBED_MEMO_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Memo rows totalling `bytes` were freed (weights changed, or their
/// encoder dropped).
pub fn embed_memo_shrank(bytes: usize) {
    EMBED_MEMO_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Zeroes every op aggregate and the encoder's work counters (bench
/// harness A/B legs). The memo gauge measures live memory and stays.
pub fn reset_ops() {
    for i in 0..OP_COUNT {
        CALLS[i].store(0, Ordering::Relaxed);
        TOTAL_NS[i].store(0, Ordering::Relaxed);
    }
    EMBED_CONTEXT_ROWS.store(0, Ordering::Relaxed);
    EMBED_PROJECTED_ROWS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state again: one test, deterministic ordering.
    #[test]
    fn timers_accumulate_only_while_enabled() {
        set_ops_enabled(false);
        reset_ops();
        {
            let _t = time_op(Op::MatMul);
        }
        assert_eq!(ops_snapshot()[Op::MatMul as usize].calls, 0);
        record_embed_rows(300, 74);
        assert_eq!(embed_rows_snapshot(), EmbedRows::default());

        set_ops_enabled(true);
        {
            let _t = time_op(Op::MatMul);
        }
        {
            let _t = time_op(Op::Gather);
        }
        let snap = ops_snapshot();
        assert_eq!(snap[Op::MatMul as usize].calls, 1);
        assert_eq!(snap[Op::Gather as usize].calls, 1);
        assert_eq!(snap[Op::Linear as usize].calls, 0);
        assert_eq!(snap.len(), OP_COUNT);
        for (i, s) in snap.iter().enumerate() {
            assert_eq!(s.op, Op::ALL[i]);
        }

        record_embed_rows(300, 74);
        record_embed_rows(30, 30);
        assert_eq!(
            embed_rows_snapshot().named(),
            [
                ("embed_context_rows_total", 330),
                ("embed_projected_rows_total", 104)
            ]
        );

        set_ops_enabled(false);
        {
            let _t = time_op(Op::MatMul);
        }
        assert_eq!(ops_snapshot()[Op::MatMul as usize].calls, 1);

        reset_ops();
        assert!(ops_snapshot()
            .iter()
            .all(|s| s.calls == 0 && s.total_ns == 0));
        assert_eq!(embed_rows_snapshot(), EmbedRows::default());
    }

    #[test]
    fn op_names_are_stable() {
        let names: Vec<_> = Op::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            [
                "matmul",
                "matmul_tn",
                "matmul_nt",
                "linear",
                "segment_softmax",
                "segment_weighted_sum",
                "gather",
                "tanh",
                "segment_matmul_tn",
                "scatter",
                "optim_step",
                "concat",
                "elementwise",
                "dedup",
                "reward"
            ]
        );
    }
}
