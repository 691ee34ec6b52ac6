//! `nvc-obs` — the observability substrate every other crate leans on.
//!
//! Zero dependencies by design: the stack runs offline, and instrumentation
//! that drags a dependency tree behind it ends up compiled out instead of
//! turned on. Six small pieces, each usable alone:
//!
//! * [`fnv`] — the stack's one 64-bit hash ([`Fnv1a`]), with a fixed
//!   string compiled into one step ([`fnv::Step`]) and zero high bytes
//!   folded, bit-equal to the byte loop;
//! * [`json`] — the stack's one JSON reader/writer ([`Json`]): every line
//!   a server, the tracer or the trainer emits is built through it, and
//!   [`json::with_id`] / [`json::fail`] are the protocol reply shapes;
//! * `metrics` — [`Counter`]s, [`Gauge`]s, and log₂-bucketed
//!   [`LatencyHistogram`]s, held as plain fields by the server, model
//!   handle or learner they count and rendered by its `stats`. The
//!   histogram interpolates within buckets, so quantiles are tighter than
//!   the power-of-2 upper bound;
//! * `trace` — per-request trace ids and scoped spans recorded into a
//!   fixed-size lock-free ring buffer. Disabled (the default) a span
//!   costs one relaxed atomic load and zero allocations; enabled via
//!   `NVC_TRACE=path` or [`trace::enable_tracing`], records export as
//!   JSON lines;
//! * `ops` — aggregate per-kernel timers (matmul family, segment ops,
//!   gather, `tanh`) and the encoder's rows-looked-up / rows-multiplied
//!   counters: relaxed atomics, gated by `NVC_OPS=1` or
//!   [`ops::set_ops_enabled`], free when off, rendered as JSON — absolute
//!   or per training iteration — by one [`OpProfile`];
//! * `journal` — an append-only JSONL sink for training telemetry
//!   (one record per PPO iteration).
//!
//! # Threading model
//!
//! Everything here is safe to hammer from any thread. Counters, gauges,
//! histograms, and op timers are plain relaxed atomics. The trace ring
//! uses a seqlock per slot: writers never block, readers detect and skip
//! torn slots. The only mutexes guard the journal and the trace sink
//! (coarse, low frequency).

pub mod fnv;
pub(crate) mod journal;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod ops;
pub(crate) mod trace;
pub use fnv::Fnv1a;
pub use journal::Journal;
pub use json::Json;
pub use metrics::{Counter, Gauge, LatencyHistogram};
pub use ops::{
    embed_memo_bytes, embed_memo_grew, embed_memo_shrank, embed_rows_snapshot, ops_enabled,
    ops_snapshot, record_embed_rows, reset_ops, set_ops_enabled, time_op, EmbedRows, Op, OpProfile,
    OpStat, OpTimer,
};
pub use trace::{
    current_trace, disable_tracing, enable_tracing, export_records, flush_trace, init_from_env,
    marker, next_trace_id, record_span, request_scope, set_trace_output, span, trace_scope,
    tracing_enabled, SpanGuard, TraceRecord, TraceScope,
};
