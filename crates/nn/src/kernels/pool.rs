//! Lazily-started persistent worker pool — the one driver of every
//! threaded product ([`run_row_sharded`](super::run_row_sharded) and its
//! segment and `k`-split siblings).
//!
//! A threaded product costs a condvar handoff to workers that live for
//! the rest of the process, not a thread spawn + join:
//!
//! * **Same shards, same bits.** The pool executes exactly the shard
//!   list its caller cut — contiguous whole-row shards, each reduced in
//!   ascending `k` by the kernel itself — so the bitwise-parity contract
//!   of the module carries over verbatim. Which thread runs which shard
//!   is a scheduling detail; shard *contents* never depend on it.
//! * **Caller participates.** The submitting thread claims shards from
//!   the same atomic cursor as the workers, so a product makes progress
//!   even before the first worker has woken (and the pool can never
//!   deadlock a caller: with zero workers the caller simply runs every
//!   shard itself).
//! * **Scoped panic semantics.** A panicking shard is caught in place,
//!   its payload parked on the job, and the remaining shards still run
//!   to completion — then the *caller* re-panics with the original
//!   payload after the handoff, exactly like `std::thread::scope`'s
//!   join does. A poisoned product therefore never returns normally and
//!   never reaches the autodiff tape.
//! * **Lazy.** No thread exists until the first threaded product; the
//!   pool then grows to the largest shard count it has seen (capped).
//!
//! Concurrent submitters (serve workers, rollout shards) enqueue
//! independent jobs; workers drain the queue FIFO, stealing shards
//! within a job through its claim cursor.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use super::check_injected_panic;

/// Hard cap on pool size; `effective_threads` caps shard counts far
/// below this in practice, the constant only bounds a hostile
/// `NVC_MATMUL_THREADS`.
const MAX_WORKERS: usize = 256;

/// One row shard of a queued product: rows `r0..r1` writing the
/// disjoint `rows × cols` window starting at `ptr`.
struct Shard {
    r0: usize,
    r1: usize,
    ptr: *mut f32,
    len: usize,
}

/// The stack-held context a job's shards execute against. It outlives
/// the job because the submitting caller blocks until every shard is
/// done before returning.
struct Ctx<'k> {
    kernel: &'k (dyn Fn(usize, usize, &mut [f32]) + Sync),
    shards: Vec<Shard>,
    rows_total: usize,
}

/// A queued sharded product. Workers and the submitting caller claim
/// shard indices from `next`; the last finisher flips `finished` under
/// `sync` and wakes the caller.
struct Job {
    ctx: *const (),
    shards: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    sync: Mutex<bool>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// The raw ctx pointer is only dereferenced by a thread that claimed a
// shard, and the submitter keeps the pointee alive until all claims
// complete — the Job is then inert even if it briefly lingers in the
// queue.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs shards until the cursor is exhausted. Returns
    /// `true` if the cursor is exhausted (the job can leave the queue).
    fn work(&self) -> bool {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.shards {
                return true;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Safety: idx was claimed exactly once, so this thread
                // has exclusive access to that shard's output window;
                // the submitter keeps `ctx` alive until `done` says
                // every claim completed.
                let ctx = unsafe { &*(self.ctx as *const Ctx) };
                let s = &ctx.shards[idx];
                let out = unsafe { std::slice::from_raw_parts_mut(s.ptr, s.len) };
                check_injected_panic(s.r0, s.r1, ctx.rows_total);
                (ctx.kernel)(s.r0, s.r1, out);
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.shards {
                *self.sync.lock().unwrap_or_else(|e| e.into_inner()) = true;
                self.cv.notify_all();
            }
        }
    }
}

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

fn worker_loop() {
    let p = pool();
    let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(job) = st.queue.front().map(Arc::clone) {
            drop(st);
            let exhausted = job.work();
            st = p.state.lock().unwrap_or_else(|e| e.into_inner());
            if exhausted {
                if let Some(front) = st.queue.front() {
                    if Arc::ptr_eq(front, &job) {
                        st.queue.pop_front();
                    }
                }
            }
        } else {
            st = p.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Executes an explicit shard list (disjoint windows of one output
/// buffer) — the shared tail of every sharding geometry. A shard's panic
/// resurfaces on the caller verbatim, and only after every shard is
/// accounted for. `marker` is the failure-injection marker the shards
/// check against (total row count for both sharding geometries).
pub(crate) fn run_spans(
    spans: Vec<(usize, usize, &mut [f32])>,
    marker: usize,
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert!(!spans.is_empty());
    let shards: Vec<Shard> = spans
        .into_iter()
        .map(|(r0, r1, slice)| Shard {
            r0,
            r1,
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        })
        .collect();
    let ctx = Ctx {
        kernel,
        shards,
        rows_total: marker,
    };
    let job = Arc::new(Job {
        ctx: &ctx as *const Ctx as *const (),
        shards: ctx.shards.len(),
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        sync: Mutex::new(false),
        cv: Condvar::new(),
        panic: Mutex::new(None),
    });

    let p = pool();
    {
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        st.queue.push_back(Arc::clone(&job));
        // Helpers beyond the caller itself; grow lazily, never shrink.
        let wanted = (job.shards - 1).min(MAX_WORKERS);
        while st.workers < wanted {
            let index = st.workers;
            std::thread::Builder::new()
                .name(format!("nvc-kpool-{index}"))
                .spawn(worker_loop)
                .expect("spawn kernel pool worker");
            st.workers += 1;
        }
        p.work_cv.notify_all();
    }

    // Claim shards alongside the workers, then wait out the stragglers.
    let exhausted = job.work();
    debug_assert!(exhausted);
    {
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(front) = st.queue.front() {
            if Arc::ptr_eq(front, &job) {
                st.queue.pop_front();
            }
        }
    }
    let mut finished = job.sync.lock().unwrap_or_else(|e| e.into_inner());
    while !*finished {
        finished = job.cv.wait(finished).unwrap_or_else(|e| e.into_inner());
    }
    drop(finished);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    drop(job);
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{clear_worker_panic, inject_worker_panic};
    use super::*;

    /// Row spans exactly as `run_row_sharded` would cut them.
    fn row_spans(
        threads: usize,
        rows: usize,
        cols: usize,
        out: &mut [f32],
    ) -> Vec<(usize, usize, &mut [f32])> {
        let per_shard = rows.div_ceil(threads);
        let mut spans = Vec::new();
        let mut rest = out;
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + per_shard).min(rows);
            let (shard, tail) = rest.split_at_mut((r1 - r0) * cols);
            rest = tail;
            spans.push((r0, r1, shard));
            r0 = r1;
        }
        spans
    }

    #[test]
    fn caller_alone_finishes_a_job_and_pool_stays_bounded() {
        let rows = 6;
        let cols = 4;
        let mut out = vec![0.0f32; rows * cols];
        let spans = row_spans(3, rows, cols, &mut out);
        run_spans(spans, rows, &|r0, r1, slice| {
            for i in r0..r1 {
                for c in 0..cols {
                    slice[(i - r0) * cols + c] = (i * cols + c) as f32;
                }
            }
        });
        let want: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
        assert_eq!(out, want);
        let spawned = pool()
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .workers;
        assert!(spawned <= MAX_WORKERS);
    }

    #[test]
    fn injected_panic_resurfaces_on_the_caller_with_its_payload() {
        // 263 rows: a marker no other concurrently running test uses.
        inject_worker_panic(1, 263);
        let hit = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 263 * 2];
            let spans = row_spans(3, 263, 2, &mut out);
            run_spans(spans, 263, &|_, _, _| {});
        });
        clear_worker_panic();
        let payload = hit.expect_err("armed shard must re-panic on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("injected panic in matmul worker"),
            "original payload must survive the handoff: {msg:?}"
        );
        // The pool survives a poisoned job: the next product is clean.
        let mut out = vec![0.0f32; 263 * 2];
        let spans = row_spans(3, 263, 2, &mut out);
        run_spans(spans, 263, &|r0, r1, s| {
            for v in s.iter_mut() {
                *v = (r0 + r1) as f32;
            }
        });
        assert!(out.iter().all(|&v| v != 0.0));
    }
}
