//! End-to-end trace attribution: every served decision must be
//! attributable from the span ring — a trace id set at the request
//! boundary reaches the spans recorded on *other* threads (the batch
//! worker), and a cache hit is distinguishable from a batched forward by
//! span names alone.
//!
//! One `#[test]` reads the trace ring on purpose: it is process-global,
//! so a single reader keeps the record stream deterministic. The kernel
//! profile test beside it only reads the op aggregates.

use neurovectorizer::{NeuroVectorizer, NvConfig, ServeConfig};
use nvc_obs::{enable_tracing, export_records, next_trace_id, trace_scope, Json, TraceRecord};

const SRC: &str = "float a[1024]; float b[1024];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] + b[i] * 2.0;
    }
}";

/// Constructing a model applies its kernel mode process-wide, so the two
/// tests take turns.
static MODEL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn names_of(records: &[TraceRecord], trace: u64) -> Vec<&'static str> {
    records
        .iter()
        .filter(|r| r.trace == trace)
        .map(|r| r.name)
        .collect()
}

#[test]
fn served_decisions_are_attributable_by_trace_id() {
    let _guard = MODEL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    enable_tracing();
    let mut cfg = NvConfig::fast();
    cfg.serve = ServeConfig::default().with_workers(1).with_batch_size(1);
    let handle = NeuroVectorizer::new(cfg).serve();

    // Request 1: a cold miss — must travel through the batcher. The
    // explicit outer scope stands in for the hub's per-line trace mint;
    // `request_scope` inside `vectorize` must defer to it (outermost
    // boundary wins), so every span lands under OUR id.
    let miss_trace = next_trace_id();
    {
        let _scope = trace_scope(miss_trace);
        handle.vectorize(SRC).expect("miss request");
    }

    // Request 2: the same source again — a pure cache hit.
    let hit_trace = next_trace_id();
    {
        let _scope = trace_scope(hit_trace);
        handle.vectorize(SRC).expect("hit request");
    }
    handle.shutdown();

    let records = export_records();
    let miss = names_of(&records, miss_trace);
    let hit = names_of(&records, hit_trace);

    // The miss is fully attributable: frontend, cache probe, the
    // batcher's queue-wait + forward, and the boundary span the batch
    // worker closed when it completed the request — all under the one
    // trace id.
    for name in [
        "request",
        "frontend",
        "cache_lookup",
        "queue_wait",
        "batch_forward",
    ] {
        assert!(
            miss.contains(&name),
            "miss trace {miss_trace} lacks `{name}`: {miss:?}"
        );
    }
    assert!(
        !miss.contains(&"cache_hit"),
        "cold request cannot be a cache hit: {miss:?}"
    );

    // The hit never reaches the batcher and says why it was fast.
    for name in ["request", "cache_lookup", "cache_hit"] {
        assert!(
            hit.contains(&name),
            "hit trace {hit_trace} lacks `{name}`: {hit:?}"
        );
    }
    for name in ["queue_wait", "batch_forward"] {
        assert!(
            !hit.contains(&name),
            "cache hit must not run the model: {hit:?}"
        );
    }

    // Cross-thread inheritance: the request began on the caller's
    // thread (frontend, cache probe) and was completed by the batch
    // worker, which recorded the forward and the request span under the
    // request's trace id from a *different* thread. A hit never leaves
    // the caller's.
    let span_of = |trace: u64, name: &str| {
        records
            .iter()
            .find(|r| r.trace == trace && r.name == name)
            .unwrap_or_else(|| panic!("trace {trace} has no `{name}` span"))
    };
    let caller_thread = span_of(miss_trace, "frontend").thread;
    let forward = span_of(miss_trace, "batch_forward");
    assert_ne!(
        forward.thread, caller_thread,
        "batch_forward should run on the worker thread, not the caller's"
    );
    assert_eq!(
        span_of(miss_trace, "request").thread,
        forward.thread,
        "a miss is completed where its forward ran"
    );
    assert_eq!(
        span_of(hit_trace, "request").thread,
        span_of(hit_trace, "cache_lookup").thread,
        "a hit is completed where it began"
    );
    // (Starts and durations are truncated to whole µs separately.)
    let request = span_of(miss_trace, "request");
    assert!(
        request.start_us <= span_of(miss_trace, "frontend").start_us
            && request.start_us + request.dur_us + 2 >= forward.start_us + forward.dur_us,
        "the request span covers the request, begin to completion"
    );

    // The export format carries the attribution: one JSON line per span,
    // with the trace id intact.
    let line = forward.to_json_line();
    let exported = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(
        exported.get("trace").and_then(Json::as_f64),
        Some(miss_trace as f64),
        "JSON export lost the trace id: {line}"
    );
    assert_eq!(
        exported.get("name").and_then(Json::as_str),
        Some("batch_forward")
    );
}

/// The kernel profile of a served miss, read from the surfaces an operator
/// has: `tanh` is a timed op like the matmuls, and the encoder's work
/// counters give the dedup factor of the fast projection — rows looked up
/// over rows multiplied — without inferring it from shapes.
#[test]
fn kernel_profile_reports_tanh_and_the_projection_dedup_factor() {
    let _guard = MODEL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    nvc_obs::set_ops_enabled(true);
    let mut cfg = NvConfig::fast().with_kernel_mode(nvc_nn::KernelMode::Fast);
    cfg.serve = ServeConfig::default().with_workers(1).with_batch_size(1);
    let handle = NeuroVectorizer::new(cfg).serve();
    handle.vectorize(SRC).expect("miss request");

    let stats = handle.stats_json();
    let number = |path: [&str; 2]| {
        let section = stats.get(path[0]).unwrap_or_else(|| panic!("no {path:?}"));
        section
            .get(path[1])
            .unwrap_or_else(|| panic!("no {path:?}"))
    };
    let calls = number(["ops", "tanh"])
        .get("calls")
        .and_then(|c| c.as_f64());
    assert!(calls >= Some(1.0), "the forward's tanh was not timed");
    let looked_up = number(["op_counters", "embed_context_rows_total"]).as_f64();
    let multiplied = number(["op_counters", "embed_projected_rows_total"]).as_f64();
    assert!(
        multiplied > Some(0.0) && multiplied < looked_up,
        "a loop's contexts share leaves: {multiplied:?} of {looked_up:?} rows multiplied"
    );
    // What was multiplied is kept: this model's memo is live, so the
    // process-wide gauge holds at least something.
    let kept = number(["op_counters", "embed_memo_bytes"]).as_f64();
    assert!(kept > Some(0.0), "the served miss kept no projection");

    handle.shutdown();
    nvc_obs::set_ops_enabled(false);
    nvc_nn::kernels::set_kernel_mode(nvc_nn::KernelMode::Strict);
}
