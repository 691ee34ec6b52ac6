//! The batching layer: cache misses from all requests funnel into one
//! bounded queue; worker threads drain it in batches and run a single
//! model forward pass per batch.
//!
//! ```text
//!  caller ── submit(sample, done) ─┐            ┌─ worker: take ≤ batch_size
//!  caller ── submit(sample, done) ─┼─► queue ──►│   decide_batch(samples)
//!  caller ── wake() ───────────────┘            └─ done(decision) per job
//! ```
//!
//! There is no flush timer. The **wake rule** forms the batches:
//!
//! * [`Batcher::submit`] enqueues and wakes nobody — unless a full
//!   `batch_size` is waiting, which flushes on its own;
//! * a caller that has submitted all it has calls [`Batcher::wake`], which
//!   wakes one idle worker;
//! * an awake worker takes whatever is queued (at most `batch_size`) and
//!   never sleeps with work in the queue.
//!
//! So a batch is what was submitted together plus what arrived during the
//! previous forward: a lone request pays two thread wake-ups and no wait,
//! a burst rides one forward, and under load the queue fills while the
//! workers compute.
//!
//! Nothing here blocks a submitter. Every job carries a [`Completion`]
//! that is called **exactly once**, on the worker thread: with the job's
//! decision, or with an error when the job leaves unanswered (the model
//! panicked or answered short, the queue shut down). The queue is
//! bounded by agreement rather than by blocking `submit`: callers that
//! may block wait in [`Batcher::wait_for_space`] first, callers that may
//! not check [`Batcher::is_full`] and take their request elsewhere, so
//! the queue holds at most `capacity` jobs plus one request's worth per
//! concurrent caller.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use nvc_embed::PathSample;

use crate::metrics::Metrics;
use crate::{DecisionModel, ServeError};

/// Where a job's outcome goes. Called exactly once, usually on a batch
/// worker: keep it short and never block in it.
pub(crate) type Completion = Box<dyn FnOnce(Result<(usize, usize), ServeError>) + Send>;

/// One pending decision: the sample to embed and where to send the result.
struct Job {
    sample: Arc<PathSample>,
    /// Taken when the job is answered. A job dropped with it still in
    /// place answers [`ServeError::ShuttingDown`] from `Drop`, which is
    /// what makes "exactly once" hold on every exit path.
    done: Option<Completion>,
    /// Trace id of the request that submitted this job (0 = untraced).
    /// The worker thread records the job's queue-wait and forward spans
    /// under this id, so a request's spans stay together across the
    /// thread hop.
    trace: u64,
    /// When the job entered the queue (queue-wait span start).
    submitted: Instant,
}

impl Job {
    fn complete(mut self, outcome: Result<(usize, usize), ServeError>) {
        if let Some(done) = self.done.take() {
            done(outcome);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(ServeError::ShuttingDown));
        }
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Workers parked on `available` (maintained under the lock, so a
    /// submitter that saw a parked worker can rely on its notify landing).
    idle: usize,
}

/// The shared miss queue.
pub(crate) struct Batcher {
    queue: Mutex<Queue>,
    available: Condvar,
    space: Condvar,
    shutdown: AtomicBool,
    batch_size: usize,
    capacity: usize,
}

impl Batcher {
    /// Builds a queue whose workers take up to `batch_size` jobs per
    /// forward and whose callers keep it at `capacity` pending jobs (see
    /// the module docs for how).
    pub(crate) fn new(batch_size: usize, capacity: usize) -> Self {
        Batcher {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                idle: 0,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch_size: batch_size.max(1),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Every update leaves the queue valid at every step (a push, a
        // drain, a counter), so a poisoned lock is still usable.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a sample; `done` is called with its decision. Never
    /// blocks and wakes a worker only when a full batch is waiting — the
    /// caller owes a [`Batcher::wake`] once it has submitted all it has.
    /// After [`Batcher::stop`], `done` is called at once with
    /// [`ServeError::ShuttingDown`].
    pub(crate) fn submit(&self, sample: Arc<PathSample>, done: Completion) {
        let job = Job {
            sample,
            done: Some(done),
            trace: nvc_obs::current_trace(),
            submitted: Instant::now(),
        };
        let mut q = self.lock();
        // Checked under the lock: a worker only exits after observing
        // shutdown with an *empty* queue while holding this lock, so if
        // the flag is still clear here, whoever exits later must first
        // see (and drain) the job we are about to push.
        if self.is_shut_down() {
            drop(q);
            drop(job); // answers ShuttingDown, outside the lock
            return;
        }
        q.jobs.push_back(job);
        let full_batch = q.jobs.len() >= self.batch_size && q.idle > 0;
        drop(q);
        if full_batch {
            self.available.notify_one();
        }
    }

    /// The caller has submitted all it has: wakes one idle worker if
    /// anything is queued. Cheap when there is nothing to do.
    pub(crate) fn wake(&self) {
        let q = self.lock();
        let wanted = !q.jobs.is_empty() && q.idle > 0;
        drop(q);
        if wanted {
            self.available.notify_one();
        }
    }

    /// Jobs queued and not yet taken by a worker.
    pub(crate) fn queued(&self) -> usize {
        self.lock().jobs.len()
    }

    /// True while the queue holds `capacity` jobs or more.
    pub(crate) fn is_full(&self) -> bool {
        self.queued() >= self.capacity
    }

    /// Blocks while the queue is full (backpressure for callers that may
    /// block). Returns at once after [`Batcher::stop`].
    pub(crate) fn wait_for_space(&self) {
        let mut q = self.lock();
        while q.jobs.len() >= self.capacity && !self.is_shut_down() {
            q = self.space.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Workers parked waiting for work — what a test waits on before it
    /// relies on the wake rule.
    #[cfg(test)]
    pub(crate) fn idle_workers(&self) -> usize {
        self.lock().idle
    }

    /// True once [`Batcher::stop`] was called.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Wakes every worker and makes them exit after draining the queue.
    pub(crate) fn stop(&self) {
        // Set under the lock: a worker checks the flag and parks in one
        // critical section, so it either sees the flag or is already
        // waiting when the notify below lands.
        let q = self.lock();
        self.shutdown.store(true, Ordering::Release);
        drop(q);
        self.available.notify_all();
        self.space.notify_all();
    }

    /// Worker body: drain batches and run the model until shutdown.
    /// Spawn one thread per configured worker with this.
    pub(crate) fn worker_loop(&self, model: &dyn DecisionModel, metrics: &Metrics) {
        loop {
            let mut q = self.lock();
            while q.jobs.is_empty() {
                if self.is_shut_down() {
                    return;
                }
                q.idle += 1;
                q = self.available.wait(q).unwrap_or_else(|e| e.into_inner());
                q.idle -= 1;
            }
            let take = q.jobs.len().min(self.batch_size);
            let jobs: Vec<Job> = q.jobs.drain(..take).collect();
            let sibling = !q.jobs.is_empty() && q.idle > 0;
            drop(q);
            self.space.notify_all();
            if sibling {
                // Let a sibling worker start on the remainder immediately.
                self.available.notify_one();
            }
            run_batch(model, metrics, jobs);
        }
    }
}

/// One forward over `jobs` (never empty), then every job's completion.
fn run_batch(model: &dyn DecisionModel, metrics: &Metrics, jobs: Vec<Job>) {
    let samples: Vec<&PathSample> = jobs.iter().map(|j| &*j.sample).collect();
    let drained_at = Instant::now();
    // A panicking model must cost its batch, not its worker: nothing
    // restarts a worker thread, and a pool that lost them all would
    // leave every later miss queued for good.
    let forward = catch_unwind(AssertUnwindSafe(|| model.decide_batch(&samples)));
    drop(samples);
    if nvc_obs::tracing_enabled() {
        // Per-job spans under each *submitter's* trace id: how
        // long the job sat queued, and the forward pass it rode.
        let forward_dur = drained_at.elapsed();
        for job in &jobs {
            nvc_obs::record_span(
                "queue_wait",
                job.trace,
                job.submitted,
                drained_at.saturating_duration_since(job.submitted),
            );
            nvc_obs::record_span("batch_forward", job.trace, drained_at, forward_dur);
        }
    }
    let decisions = match forward {
        Ok(decisions) => decisions,
        Err(panic) => {
            metrics.failed_batches.inc();
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            let err = ServeError::Model(format!("forward panicked: {why}"));
            for job in jobs {
                job.complete(Err(err.clone()));
            }
            return;
        }
    };
    metrics.record_batch(jobs.len());
    let (asked, answered) = (jobs.len(), decisions.len());
    if answered < asked {
        metrics.failed_batches.inc();
    }
    let mut decisions = decisions.into_iter();
    for job in jobs {
        match decisions.next() {
            Some(pair) => job.complete(Ok(pair)),
            // A model that answers short (it reports empty on an
            // input it refuses) fails the unmatched jobs fast.
            None => job.complete(Err(ServeError::Model(format!(
                "model answered {answered} of {asked} samples"
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_embed::EmbedConfig;
    use nvc_machine::TargetConfig;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Arc;
    use std::time::Duration;

    /// `starts[0]` of a sample the stub panics on.
    const POISON: u32 = 666;
    /// `starts[0]` of a sample the stub leaves unanswered (with every
    /// sample after it in the batch).
    const REFUSED: u32 = 777;

    /// Deterministic stub: decision derived from the sample itself;
    /// records the batch sizes it sees.
    struct Stub {
        embed: EmbedConfig,
        target: TargetConfig,
        calls: AtomicU64,
        largest_batch: AtomicU64,
    }

    impl Stub {
        fn new() -> Self {
            Stub {
                embed: EmbedConfig::fast(),
                target: TargetConfig::i7_8559u(),
                calls: AtomicU64::new(0),
                largest_batch: AtomicU64::new(0),
            }
        }
    }

    impl DecisionModel for Stub {
        fn embed_config(&self) -> &EmbedConfig {
            &self.embed
        }

        fn target(&self) -> &TargetConfig {
            &self.target
        }

        fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.largest_batch
                .fetch_max(samples.len() as u64, Ordering::Relaxed);
            assert!(
                samples.iter().all(|s| s.starts[0] != POISON),
                "poisoned sample"
            );
            samples
                .iter()
                .take_while(|s| s.starts[0] != REFUSED)
                .map(|s| (s.starts[0] as usize % 7, s.paths[0] as usize % 5))
                .collect()
        }
    }

    fn sample(tag: u32) -> PathSample {
        PathSample {
            starts: vec![tag, tag + 1],
            paths: vec![tag * 3],
            ends: vec![tag + 2],
        }
    }

    type Outcome = Result<(usize, usize), ServeError>;

    /// Submits `sample(tag)`; the receiver yields every call of the
    /// job's completion (so "exactly once" is checkable).
    fn submit(batcher: &Batcher, tag: u32) -> Receiver<Outcome> {
        let (tx, rx) = channel();
        batcher.submit(
            Arc::new(sample(tag)),
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        rx
    }

    fn answer(rx: &Receiver<Outcome>) -> Outcome {
        let first = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("completion never ran");
        assert!(
            rx.recv_timeout(Duration::from_millis(20)).is_err(),
            "completion ran twice"
        );
        first
    }

    struct Pool {
        batcher: Arc<Batcher>,
        model: Arc<Stub>,
        metrics: Arc<Metrics>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl Pool {
        /// `workers` threads around a fresh stub, all parked before this
        /// returns — so what a test submits next is seen by nobody until
        /// the wake rule says so.
        fn start(batch_size: usize, workers: usize) -> Pool {
            let batcher = Arc::new(Batcher::new(batch_size, 1024));
            let model = Arc::new(Stub::new());
            let metrics = Arc::new(Metrics::default());
            let workers = (0..workers)
                .map(|_| {
                    let (b, m, mm) = (
                        Arc::clone(&batcher),
                        Arc::clone(&model),
                        Arc::clone(&metrics),
                    );
                    std::thread::spawn(move || b.worker_loop(&*m, &mm))
                })
                .collect::<Vec<_>>();
            let pool = Pool {
                batcher,
                model,
                metrics,
                workers,
            };
            pool.wait_until_parked();
            pool
        }

        fn wait_until_parked(&self) {
            while self.batcher.idle_workers() < self.workers.len() {
                std::thread::yield_now();
            }
        }

        fn calls(&self) -> u64 {
            self.model.calls.load(Ordering::Relaxed)
        }

        fn stop(self) -> (Arc<Stub>, Arc<Metrics>) {
            self.batcher.stop();
            for w in self.workers {
                w.join().expect("a batch worker died");
            }
            (self.model, self.metrics)
        }
    }

    #[test]
    fn submits_then_one_wake_are_one_forward_and_answers_route_back() {
        let pool = Pool::start(64, 2);
        let receivers: Vec<_> = (0..40).map(|i| submit(&pool.batcher, i)).collect();
        assert_eq!(pool.calls(), 0, "nothing may run before the wake");
        pool.batcher.wake();
        for (i, rx) in receivers.iter().enumerate() {
            assert_eq!(
                answer(rx),
                Ok((i % 7, (i * 3) % 5)),
                "job {i} got the wrong reply"
            );
        }
        let (model, metrics) = pool.stop();
        assert_eq!(model.calls.load(Ordering::Relaxed), 1);
        assert_eq!(model.largest_batch.load(Ordering::Relaxed), 40);
        assert_eq!(
            (metrics.batches.get(), metrics.batched_loops.get()),
            (1, 40)
        );
    }

    #[test]
    fn a_full_batch_flushes_without_a_wake() {
        let pool = Pool::start(8, 1);
        let receivers: Vec<_> = (0..8).map(|i| submit(&pool.batcher, i)).collect();
        for rx in &receivers {
            assert!(answer(rx).is_ok());
        }
        let (model, _) = pool.stop();
        assert_eq!(model.calls.load(Ordering::Relaxed), 1);
        assert_eq!(model.largest_batch.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn an_awake_worker_takes_what_queued_up_behind_it() {
        // 20 jobs, batch 8, one worker, one wake: 8 + 8 + 4 with no
        // further wake — the worker never sleeps with work queued.
        let pool = Pool::start(8, 1);
        // Fewer than a batch at a time reach the queue before the wake…
        let mut receivers: Vec<_> = (0..7).map(|i| submit(&pool.batcher, i)).collect();
        pool.batcher.wake();
        // …and the rest arrive while it is (or is about to be) awake.
        receivers.extend((7..20).map(|i| submit(&pool.batcher, i)));
        pool.batcher.wake();
        for rx in &receivers {
            assert!(answer(rx).is_ok());
        }
        let (_, metrics) = pool.stop();
        assert_eq!(metrics.batched_loops.get(), 20);
    }

    #[test]
    fn batch_size_one_never_coalesces() {
        let pool = Pool::start(1, 1);
        for i in 0..20 {
            assert!(answer(&submit(&pool.batcher, i)).is_ok());
        }
        let (model, _) = pool.stop();
        assert_eq!(model.largest_batch.load(Ordering::Relaxed), 1);
        assert_eq!(model.calls.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn a_panicking_forward_fails_its_batch_and_keeps_its_worker() {
        let pool = Pool::start(8, 1);
        let doomed = [submit(&pool.batcher, 1), submit(&pool.batcher, POISON)];
        pool.batcher.wake();
        for rx in &doomed {
            match answer(rx) {
                Err(ServeError::Model(why)) => assert!(why.contains("poisoned sample"), "{why}"),
                other => panic!("expected a model failure, got {other:?}"),
            }
        }
        // The same (only) worker answers the next job.
        pool.wait_until_parked();
        let next = submit(&pool.batcher, 2);
        pool.batcher.wake();
        assert_eq!(answer(&next), Ok((2, 1)));
        let (_, metrics) = pool.stop(); // joins: the worker is still there
        assert_eq!(metrics.failed_batches.get(), 1);
        assert_eq!((metrics.batches.get(), metrics.batched_loops.get()), (1, 1));
    }

    #[test]
    fn jobs_dropped_unanswered_complete_with_an_error_once() {
        // A short answer fails the unmatched tail of its batch.
        let pool = Pool::start(8, 1);
        let receivers: Vec<_> = [0, REFUSED, 2]
            .iter()
            .map(|&tag| submit(&pool.batcher, tag))
            .collect();
        pool.batcher.wake();
        assert_eq!(answer(&receivers[0]), Ok((0, 0)));
        for rx in &receivers[1..] {
            assert!(matches!(answer(rx), Err(ServeError::Model(_))));
        }
        let (_, metrics) = pool.stop();
        assert_eq!(metrics.failed_batches.get(), 1);

        // A queue dropped with jobs in it (no worker ever ran) and a
        // submit after stop both answer ShuttingDown.
        let batcher = Batcher::new(4, 1024);
        let queued = submit(&batcher, 0);
        batcher.stop();
        let late = submit(&batcher, 1);
        assert_eq!(answer(&late), Err(ServeError::ShuttingDown));
        drop(batcher);
        assert_eq!(answer(&queued), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn a_full_queue_holds_back_callers_that_may_block() {
        // No workers: the queue can only fill. Capacity 4.
        let batcher = Arc::new(Batcher::new(1, 4));
        assert!(!batcher.is_full());
        let _held: Vec<_> = (0..4).map(|i| submit(&batcher, i)).collect();
        assert!(batcher.is_full());
        let (entered, blocked) = {
            let b = Arc::clone(&batcher);
            let (tx, rx) = channel();
            let t = std::thread::spawn(move || {
                tx.send(()).unwrap();
                b.wait_for_space();
            });
            (rx, t)
        };
        entered.recv().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !blocked.is_finished(),
            "a capacity-4 queue holding 4 has no space"
        );
        batcher.stop();
        blocked.join().unwrap();
    }

    #[test]
    fn stop_unblocks_idle_workers() {
        let pool = Pool::start(8, 2);
        pool.stop();
    }
}
