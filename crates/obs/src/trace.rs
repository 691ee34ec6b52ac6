//! Request tracing: trace ids, scoped spans, and a fixed-size lock-free
//! ring of span records exportable as JSON lines.
//!
//! # Design
//!
//! * **Off by default, free when off.** [`span`] and [`request_scope`]
//!   cost one relaxed atomic load and allocate nothing until tracing is
//!   enabled (`NVC_TRACE=path` in the environment, `--trace` on the
//!   CLI, or [`enable_tracing`] in-process).
//! * **Trace ids ride thread-locals.** The service mints an id at the
//!   request boundary ([`request_scope`]); everything that runs on that
//!   thread inside the scope inherits it. Work that hops threads (the
//!   batch worker) carries the id explicitly on its job and records via
//!   [`record_span`], so a request's queue-wait and forward-pass spans
//!   land under the same trace id as its cache lookup.
//! * **Seqlock slots, never blocking.** Writers claim a monotonically
//!   increasing sequence number, zero the slot's seq, write the record
//!   fields, then publish the real seq. Readers load seq before and
//!   after the field reads and drop the record if it changed. A full
//!   ring overwrites the oldest slots — tracing is a window, not a log.
//!
//! # Record format
//!
//! One JSON object per line: `{"seq":17,"trace":3,"thread":2,
//! "name":"queue_wait","start_us":1204,"dur_us":88}`. `start_us` is
//! relative to the ring's creation; `trace` 0 means "outside any
//! request". Names are `&'static str` by construction, stored in the
//! ring as pointer + length.

use std::cell::Cell;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use crate::json::{obj, Json};

/// Slots in the ring; at ~56 bytes each the ring is ≈ 3.7 MB, allocated
/// only once tracing is first enabled.
const RING_CAP: usize = 65_536;

struct Slot {
    /// 0 = empty or mid-write; otherwise the record's sequence number.
    seq: AtomicU64,
    trace: AtomicU64,
    thread: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Last sequence number claimed (seqs start at 1).
    head: AtomicU64,
    /// Time zero for `start_us`.
    epoch: Instant,
    /// Highest seq already written by [`flush_trace`].
    last_flushed: AtomicU64,
    /// Where flushes append, if configured. Also serializes flushers.
    path: Mutex<Option<PathBuf>>,
}

static RING: OnceLock<Ring> = OnceLock::new();
static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static ENV_INIT: Once = Once::new();

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
}

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAP)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                thread: AtomicU64::new(0),
                start_us: AtomicU64::new(0),
                dur_us: AtomicU64::new(0),
                name_ptr: AtomicUsize::new(0),
                name_len: AtomicUsize::new(0),
            })
            .collect(),
        head: AtomicU64::new(0),
        epoch: Instant::now(),
        last_flushed: AtomicU64::new(0),
        path: Mutex::new(None),
    })
}

fn thread_tag() -> u64 {
    THREAD_TAG.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// True while spans are being recorded. One relaxed load.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns span recording on (allocating the ring on first use).
pub fn enable_tracing() {
    let _ = ring();
    TRACING.store(true, Ordering::Relaxed);
}

/// Turns span recording off. The ring keeps its records; [`flush_trace`]
/// and [`export_records`] still see them.
pub fn disable_tracing() {
    TRACING.store(false, Ordering::Relaxed);
}

/// Points [`flush_trace`] at `path` (JSON lines, appended) and enables
/// tracing.
pub fn set_trace_output(path: impl Into<PathBuf>) {
    enable_tracing();
    *ring().path.lock().unwrap_or_else(|e| e.into_inner()) = Some(path.into());
}

/// Reads `NVC_TRACE` once per process: when set to a non-empty path,
/// tracing turns on and flushes append there. Idempotent — every
/// entrypoint (serve workers, hub, CLI) may call it.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Some(path) = std::env::var_os("NVC_TRACE") {
            if !path.is_empty() {
                set_trace_output(PathBuf::from(path));
            }
        }
    });
}

/// Mints a fresh, process-unique trace id (never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id active on this thread (0 = none).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// RAII guard restoring the previous thread-local trace id on drop.
#[must_use = "the trace id reverts when this guard drops"]
pub struct TraceScope {
    prev: u64,
    set: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.set {
            CURRENT_TRACE.with(|c| c.set(self.prev));
        }
    }
}

/// Installs `id` as this thread's trace id until the guard drops.
pub fn trace_scope(id: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceScope { prev, set: true }
}

/// The request boundary: mints and installs a fresh trace id — unless
/// tracing is off (free no-op) or a trace id is already active, in
/// which case the outermost boundary wins and this scope does nothing.
/// (The hub mints per connection line; serve's `vectorize` then sees
/// that id already set and leaves it alone.)
pub fn request_scope() -> TraceScope {
    if !tracing_enabled() || current_trace() != 0 {
        return TraceScope {
            prev: 0,
            set: false,
        };
    }
    trace_scope(next_trace_id())
}

/// A span being timed; records into the ring on drop. Obtain via
/// [`span`].
#[must_use = "the span records its duration when this guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name` under the current trace id. When tracing
/// is disabled this is one relaxed load, no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: tracing_enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_span(self.name, current_trace(), start, start.elapsed());
        }
    }
}

/// Records an instantaneous event (duration 0) under the current trace
/// — cache hits, dedup waits, anything that is a fact rather than a
/// duration.
#[inline]
pub fn marker(name: &'static str) {
    if tracing_enabled() {
        let now = Instant::now();
        record_span(name, current_trace(), now, Duration::ZERO);
    }
}

/// Writes one span record explicitly — the cross-thread path. The batch
/// worker calls this with the *job's* trace id and the timestamps it
/// measured, so the span lands under the originating request even
/// though it ran on a worker thread.
pub fn record_span(name: &'static str, trace: u64, start: Instant, dur: Duration) {
    if !tracing_enabled() {
        return;
    }
    let r = ring();
    let seq = r.head.fetch_add(1, Ordering::Relaxed) + 1;
    let slot = &r.slots[((seq - 1) % RING_CAP as u64) as usize];
    // Seqlock write: invalidate, fill, publish.
    slot.seq.store(0, Ordering::Release);
    slot.trace.store(trace, Ordering::Relaxed);
    slot.thread.store(thread_tag(), Ordering::Relaxed);
    slot.start_us.store(
        start.saturating_duration_since(r.epoch).as_micros() as u64,
        Ordering::Relaxed,
    );
    slot.dur_us.store(dur.as_micros() as u64, Ordering::Relaxed);
    slot.name_ptr
        .store(name.as_ptr() as usize, Ordering::Relaxed);
    slot.name_len.store(name.len(), Ordering::Relaxed);
    slot.seq.store(seq, Ordering::Release);
}

/// One exported span record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number (records are totally ordered).
    pub(crate) seq: u64,
    /// Trace id the span belongs to (0 = outside any request).
    pub trace: u64,
    /// Small per-thread tag (1, 2, …) — distinguishes threads without
    /// leaking OS ids.
    pub thread: u64,
    /// Span name.
    pub name: &'static str,
    /// Span start, µs since the ring's creation.
    pub start_us: u64,
    /// Span duration in µs (0 for markers).
    pub dur_us: u64,
}

impl TraceRecord {
    /// The record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        obj(vec![
            ("seq", Json::from(self.seq)),
            ("trace", Json::from(self.trace)),
            ("thread", Json::from(self.thread)),
            ("name", Json::from(self.name)),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(self.dur_us)),
        ])
        .render()
    }
}

fn read_slot(slot: &Slot) -> Option<TraceRecord> {
    let seq = slot.seq.load(Ordering::Acquire);
    if seq == 0 {
        return None;
    }
    let rec = TraceRecord {
        seq,
        trace: slot.trace.load(Ordering::Relaxed),
        thread: slot.thread.load(Ordering::Relaxed),
        name: "", // filled in below, once the seq re-check proves the read untorn
        start_us: slot.start_us.load(Ordering::Relaxed),
        dur_us: slot.dur_us.load(Ordering::Relaxed),
    };
    let ptr = slot.name_ptr.load(Ordering::Relaxed);
    let len = slot.name_len.load(Ordering::Relaxed);
    if slot.seq.load(Ordering::Acquire) != seq {
        return None; // torn: a writer got in between.
    }
    // SAFETY: seq was stable across every field read, so ptr/len are the
    // pair one `record_span` call stored, and that call took a
    // `&'static str` — the bytes are static and valid UTF-8 forever.
    let name =
        unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len)) };
    Some(TraceRecord { name, ..rec })
}

/// Copies every currently valid record out of the ring, ordered by
/// sequence number. Allocates; meant for tests and exporters, not hot
/// paths.
pub fn export_records() -> Vec<TraceRecord> {
    let Some(r) = RING.get() else {
        return Vec::new();
    };
    let mut out: Vec<TraceRecord> = r.slots.iter().filter_map(read_slot).collect();
    out.sort_by_key(|rec| rec.seq);
    out
}

/// Appends every record newer than the previous flush to the configured
/// `NVC_TRACE` path as JSON lines. No-op when no path is set. Records
/// overwritten before a flush reaches them are lost (the ring is a
/// window); flush at request-burst boundaries (serve shutdown does).
pub fn flush_trace() {
    let Some(r) = RING.get() else {
        return;
    };
    // The path lock doubles as the flusher lock: one flusher at a time,
    // so last_flushed advances without racing appends.
    let path_guard = r.path.lock().unwrap_or_else(|e| e.into_inner());
    let Some(path) = path_guard.as_ref() else {
        return;
    };
    let head = r.head.load(Ordering::Relaxed);
    let from = r
        .last_flushed
        .load(Ordering::Relaxed)
        // Records more than a ring behind head are already overwritten.
        .max(head.saturating_sub(RING_CAP as u64));
    if head == from {
        return;
    }
    let mut file = match OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => f,
        Err(_) => return, // tracing must never take the service down.
    };
    let mut buf = String::new();
    for seq in from + 1..=head {
        let slot = &r.slots[((seq - 1) % RING_CAP as u64) as usize];
        if let Some(rec) = read_slot(slot) {
            if rec.seq == seq {
                buf.push_str(&rec.to_json_line());
                buf.push('\n');
            }
        }
    }
    let _ = file.write_all(buf.as_bytes());
    r.last_flushed.store(head, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; keep everything in one test so
    // enable/disable ordering is deterministic under the parallel
    // harness.
    #[test]
    fn spans_scopes_and_the_ring_work_end_to_end() {
        assert!(!tracing_enabled());
        // Disabled: spans are inert and record nothing.
        {
            let _g = span("ignored");
        }
        assert!(export_records().is_empty());
        assert_eq!(current_trace(), 0);

        enable_tracing();
        let t1 = next_trace_id();
        {
            let _scope = trace_scope(t1);
            assert_eq!(current_trace(), t1);
            {
                // Nested request_scope must defer to the outer id.
                let _inner = request_scope();
                assert_eq!(current_trace(), t1);
            }
            let _g = span("outer_work");
            marker("hit");
        }
        assert_eq!(current_trace(), 0, "scope must restore on drop");

        // A fresh request boundary mints its own id.
        let minted = {
            let _scope = request_scope();
            let id = current_trace();
            assert_ne!(id, 0);
            let _g = span("request");
            id
        };
        assert_ne!(minted, t1);

        // Cross-thread explicit recording carries the chosen trace id.
        let start = Instant::now();
        std::thread::spawn(move || {
            record_span("worker_leg", t1, start, Duration::from_micros(7));
        })
        .join()
        .unwrap();

        let records = export_records();
        let names: Vec<_> = records.iter().map(|r| (r.name, r.trace)).collect();
        assert!(names.contains(&("outer_work", t1)));
        assert!(names.contains(&("hit", t1)));
        assert!(names.contains(&("request", minted)));
        assert!(names.contains(&("worker_leg", t1)));
        // Seqs are unique and ordered.
        for w in records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // The worker thread got a distinct tag.
        let worker = records.iter().find(|r| r.name == "worker_leg").unwrap();
        let local = records.iter().find(|r| r.name == "outer_work").unwrap();
        assert_ne!(worker.thread, local.thread);

        // JSON line shape.
        let line = Json::parse(&worker.to_json_line()).unwrap();
        assert_eq!(line.get("name").and_then(Json::as_str), Some("worker_leg"));
        assert_eq!(line.get("trace").and_then(Json::as_f64), Some(t1 as f64));
        assert_eq!(line.get("dur_us").and_then(Json::as_f64), Some(7.0));

        // Flush appends only new records.
        let dir = std::env::temp_dir().join(format!("nvc-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        set_trace_output(&path);
        flush_trace();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.lines().count() >= 4);
        marker("late");
        flush_trace();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(second.lines().count(), first.lines().count() + 1);
        assert!(second.contains("\"name\":\"late\""));

        disable_tracing();
        {
            let _g = span("after_disable");
        }
        assert!(!export_records().iter().any(|r| r.name == "after_disable"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
