//! The service itself: [`ServeHandle`], the in-process API one model is
//! served through. Its wire protocol is the hub's (`nvc_hub`), which
//! routes each line to a handle.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nvc_embed::{extract_loop_samples, LoopSite, PathSample};
use nvc_frontend::{inject_pragmas_at, LoopPragma};
use nvc_obs::json::{obj, Json};
use nvc_vectorizer::ActionSpace;

use crate::batch::{Batcher, Completion};
use crate::cache::{CacheStats, ContentStore};
use crate::metrics::Metrics;
use crate::{sample_key, DecisionModel, ServeConfig, SharedDecisionStore};

/// How long a blocking caller waits for the batch workers before giving
/// up.
const DECISION_TIMEOUT: Duration = Duration::from_secs(30);

/// How many recently decided samples the handle keeps around for
/// post-reload warmup replay (the cache itself only holds one-way
/// hashes, which cannot be re-decided under a new checkpoint).
///
/// In bytes: a sample holds at most `max_paths` contexts of three `u32`
/// indices (12 B each), plus 88 B of `Arc` and struct, about 34 B of
/// map slot and 8 B of ring slot, so a full set holds at most
/// 4 096 × 1 330 B ≈ 5.4 MB at
/// [`EmbedConfig::paper`](nvc_embed::EmbedConfig::paper) (100 contexts)
/// and 4 096 × 418 B ≈ 1.7 MB at
/// [`EmbedConfig::fast`](nvc_embed::EmbedConfig::fast) (24). A reload
/// replays the set into the replacement handle without copying it.
const WARM_SAMPLE_CAPACITY: usize = 4096;

/// Maximum pending (not yet batched) loops; when full, callers that may
/// block do (the blocking wrappers, the hub's request workers) and
/// callers that may not hand their request to one that may —
/// backpressure instead of unbounded memory growth.
const QUEUE_CAPACITY: usize = 4096;

/// Service failures surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The source did not parse.
    Frontend(String),
    /// The batch workers did not answer in time (service overloaded).
    Timeout,
    /// The worker pool has been shut down.
    ShuttingDown,
    /// The model failed on the batch this decision rode in (it panicked
    /// or answered short); the worker that ran it keeps serving.
    Model(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frontend(e) => write!(f, "frontend: {e}"),
            ServeError::Timeout => write!(f, "decision timed out"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Model(e) => write!(f, "model failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The one place a thread waits on the batch workers: what the blocking
/// callers ([`ServeHandle::vectorize`] and [`ServeHandle::decide_sample`]
/// through `block_on`, [`ServeHandle::warm_replay`]) do after they have
/// begun their work and woken the batcher.
fn wait_for<T>(rx: &Receiver<T>) -> Result<T, ServeError> {
    rx.recv_timeout(DECISION_TIMEOUT).map_err(|e| match e {
        RecvTimeoutError::Timeout => ServeError::Timeout,
        RecvTimeoutError::Disconnected => ServeError::ShuttingDown,
    })
}

/// Result of one vectorize request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorizeOutput {
    /// The source with pragmas injected above every decided loop.
    pub source: String,
    /// Per-loop decisions, in source order.
    pub loops: Vec<LoopReport>,
    /// End-to-end service latency for this request.
    pub latency_us: u64,
}

/// Per-loop decision detail included in a vectorize response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// Enclosing function name.
    pub function: String,
    /// 1-based header line the pragma was inserted above.
    pub line: u32,
    /// Chosen vectorization factor.
    pub vf: u32,
    /// Chosen interleave factor.
    pub if_: u32,
    /// True when the decision came from the cache.
    pub cached: bool,
    /// The loop's sample hash — the correlation key a client echoes back
    /// in a `report` request to attribute a measured reward to this
    /// decision. The hub renders it as 16 lowercase hex digits (JSON
    /// numbers lose u64 precision).
    pub key: u64,
}

/// One distinct key's decision within a request: the key, the action
/// pair, and whether a cache answered it.
type Resolved = (u64, (usize, usize), bool);

struct Inner {
    model: Arc<dyn DecisionModel>,
    space: ActionSpace,
    /// The decision store — private, or shared by every handle of a hub
    /// — and the checkpoint hash this handle reads and writes it under.
    store: Arc<ContentStore>,
    checkpoint_hash: u64,
    batcher: Batcher,
    metrics: Metrics,
    /// When this handle started (drives `uptime_us`).
    started: Instant,
    /// Single-flight registry: keys whose decision is being computed
    /// right now, with the completion of every request waiting on them
    /// (the leader's — the one that queued the sample — first).
    /// Concurrent misses on the same key coalesce onto one model
    /// forward instead of embedding the same loop twice.
    inflight: Mutex<HashMap<u64, Vec<Completion>>>,
    /// Recently decided samples by cache key, kept (bounded) so a
    /// hot-swap reload can replay them as shadow traffic against the
    /// fresh checkpoint — the cache keys alone are one-way hashes. Each
    /// is the allocation its miss queued: the batcher's job, this set,
    /// [`ServeHandle::warm_samples`] and the replacement handle a reload
    /// replays into share it.
    warm: Mutex<WarmSet>,
    /// How many samples [`ServeHandle::warm_replay`] begins before it
    /// collects: whole batches, at most half the miss queue, so shadow
    /// traffic never fills it against real requests.
    replay_window: usize,
}

/// The warm set: samples by cache key, and their keys oldest first.
#[derive(Default)]
struct WarmSet {
    samples: HashMap<u64, Arc<PathSample>>,
    order: VecDeque<u64>,
}

impl Inner {
    /// The hit path, on the caller's thread: one store probe. A hit may
    /// have been computed by this handle, its A/B twin, a previous
    /// incarnation of this checkpoint, or a peer node.
    fn probe(&self, key: u64) -> Option<(usize, usize)> {
        let hit = {
            let _span = nvc_obs::span("cache_lookup");
            self.store.get(self.checkpoint_hash, key)
        };
        if hit.is_some() {
            self.metrics.cache_hits.inc();
            nvc_obs::marker("cache_hit");
        } else {
            self.metrics.cache_misses.inc();
        }
        hit
    }

    /// The miss path, still on the caller's thread and never blocking:
    /// records the sample for warmup replay, then joins the key's
    /// in-flight computation, or becomes its leader and queues the
    /// sample. Either way `done` is called exactly once, by
    /// [`Inner::publish`].
    fn queue_miss(self: &Arc<Self>, key: u64, sample: Arc<PathSample>, done: Completion) {
        // Off the hit path (one global lock would contend the warm
        // loop): every *miss* records its sample.
        self.retain_warm_sample(key, &sample);
        {
            let mut inflight = self.inflight.lock();
            if let Some(waiting) = inflight.get_mut(&key) {
                waiting.push(done);
                self.metrics.dedup_waits.inc();
                nvc_obs::marker("dedup_wait");
                return;
            }
            inflight.insert(key, vec![done]);
        }
        let inner = Arc::clone(self);
        self.batcher
            .submit(sample, Box::new(move |outcome| inner.publish(key, outcome)));
    }

    /// A leader's job has completed (on the batch worker, or on the
    /// submitter when the queue is already shut down): stores the
    /// decision, then answers everyone waiting on the key — with the
    /// same error when there is none.
    fn publish(&self, key: u64, outcome: Result<(usize, usize), ServeError>) {
        if let Ok(pair) = outcome {
            if self.store.insert(self.checkpoint_hash, key, pair) {
                self.metrics.cache_insertions.inc();
            }
        }
        // Cached before it leaves `inflight`: a concurrent miss on the
        // key either joins here or finds the entry.
        let waiting = self.inflight.lock().remove(&key).unwrap_or_default();
        for done in waiting {
            done(outcome.clone());
        }
    }

    /// Remembers `sample` under its key for post-reload warmup replay.
    /// Bounded: a new key in a full set evicts the oldest one, so the set
    /// holds the keys most recently missed — the replay set is
    /// best-effort shadow traffic, not a ledger.
    fn retain_warm_sample(&self, key: u64, sample: &Arc<PathSample>) {
        let mut warm = self.warm.lock();
        if !warm.samples.contains_key(&key) {
            if warm.order.len() == WARM_SAMPLE_CAPACITY {
                let oldest = warm.order.pop_front().expect("a full set has keys");
                warm.samples.remove(&oldest);
            }
            warm.order.push_back(key);
            warm.samples.insert(key, Arc::clone(sample));
        }
    }

    /// Turns a request's decisions into its answer: per-loop reports and
    /// the source with pragmas injected. `sites` — each loop's key,
    /// function, header line and column — come in source order, and so
    /// do the reports.
    fn assemble(
        &self,
        source: &str,
        sites: impl ExactSizeIterator<Item = (u64, String, u32, u32)>,
        resolved: &[Resolved],
        t0: Instant,
    ) -> VectorizeOutput {
        let mut pragmas = Vec::with_capacity(sites.len());
        let loops: Vec<LoopReport> = sites
            .map(|(key, function, line, col)| {
                let &(_, (vf_idx, if_idx), cached) = resolved
                    .iter()
                    .find(|(k, _, _)| *k == key)
                    .expect("every distinct key was resolved");
                let d = self.space.decision_from_pair(vf_idx, if_idx);
                let pragma = LoopPragma {
                    vectorize_width: d.vf,
                    interleave_count: d.if_,
                };
                pragmas.push((line, col, pragma));
                LoopReport {
                    function,
                    line,
                    vf: d.vf,
                    if_: d.if_,
                    cached,
                    key,
                }
            })
            .collect();
        self.metrics.loops_served.add(loops.len() as u64);
        VectorizeOutput {
            source: inject_pragmas_at(source, &pragmas),
            loops,
            latency_us: t0.elapsed().as_micros() as u64,
        }
    }

    /// The end of every request, whichever thread reaches it: counters,
    /// the `request` span (recorded here under the submitter's trace id,
    /// because a scope guard would have ended with `begin_vectorize`),
    /// then the caller's completion.
    fn conclude(
        &self,
        outcome: Result<VectorizeOutput, ServeError>,
        t0: Instant,
        trace: u64,
        done: impl FnOnce(Result<VectorizeOutput, ServeError>),
    ) {
        let elapsed = t0.elapsed();
        match &outcome {
            Ok(_) => self.metrics.latency.record(elapsed.as_micros() as u64),
            Err(_) => self.metrics.errors.inc(),
        }
        nvc_obs::record_span("request", trace, t0, elapsed);
        done(outcome);
    }
}

/// Where a finished vectorize request goes (boxed only once it has to
/// outlive `begin_vectorize`).
type VectorizeDone = Box<dyn FnOnce(Result<VectorizeOutput, ServeError>) + Send>;

/// A vectorize request with misses outstanding: what `begin_vectorize`
/// knew when it returned, and what its misses have answered since.
/// Whichever miss resolves last assembles the output and calls `done`.
struct Assembly {
    inner: Arc<Inner>,
    source: String,
    keyed: Vec<(u64, LoopSite)>,
    t0: Instant,
    trace: u64,
    state: Mutex<AssemblyState>,
}

struct AssemblyState {
    resolved: Vec<Resolved>,
    /// Misses not yet answered.
    remaining: usize,
    first_err: Option<ServeError>,
    done: Option<VectorizeDone>,
}

impl Assembly {
    fn resolve(&self, key: u64, outcome: Result<(usize, usize), ServeError>) {
        let (resolved, first_err, done) = {
            let mut st = self.state.lock();
            match outcome {
                Ok(pair) => st.resolved.push((key, pair, false)),
                Err(e) => {
                    st.first_err.get_or_insert(e);
                }
            }
            st.remaining -= 1;
            if st.remaining > 0 {
                return;
            }
            (
                std::mem::take(&mut st.resolved),
                st.first_err.take(),
                st.done.take().expect("the last miss resolves once"),
            )
        };
        let outcome = match first_err {
            Some(e) => Err(e),
            None => {
                let sites = self.keyed.iter().map(|(key, site)| {
                    let function = site.function.clone();
                    (*key, function, site.header_line, site.header_col)
                });
                Ok(self.inner.assemble(&self.source, sites, &resolved, self.t0))
            }
        };
        self.inner.conclude(outcome, self.t0, self.trace, done);
    }
}

/// A running vectorization service: worker threads + decision store +
/// metrics.
///
/// Dropping the handle stops the workers. All request methods take `&self`
/// and are safe to call from many threads at once.
pub struct ServeHandle {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServeHandle {
    /// Starts the worker pool around `model`.
    ///
    /// Each worker's flush batches run the model's batched forward on
    /// the worker's own thread; the workers are the only parallelism
    /// under a forward, and their concurrency never changes a decision,
    /// only its latency.
    /// The handle owns a private decision store sized by
    /// `cfg.cache_capacity` / `cfg.cache_shards`.
    pub fn start(model: Arc<dyn DecisionModel>, cfg: ServeConfig) -> Self {
        let store = Arc::new(ContentStore::new(cfg.cache_capacity, cfg.cache_shards));
        ServeHandle::start_with_store(model, cfg, 0, store)
    }

    /// [`ServeHandle::start`] over a decision store shared beyond this
    /// handle (`cfg`'s cache sizes are the store's business, not read
    /// here). Decisions are read and written under `checkpoint_hash`, so
    /// entries flow exactly between handles serving the *same*
    /// checkpoint, however many handles (A/B sides, reload generations)
    /// share the store.
    pub fn start_with_store(
        model: Arc<dyn DecisionModel>,
        cfg: ServeConfig,
        checkpoint_hash: u64,
        store: Arc<ContentStore>,
    ) -> Self {
        // `NVC_TRACE=path` turns request tracing on for any embedding of
        // the service — daemon, hub, tests — without CLI plumbing.
        nvc_obs::init_from_env();
        let space = ActionSpace::for_target(model.target());
        let batch_size = cfg.batch_size.max(1);
        let inner = Arc::new(Inner {
            space,
            store,
            checkpoint_hash,
            batcher: Batcher::new(batch_size, QUEUE_CAPACITY),
            metrics: Metrics::default(),
            started: Instant::now(),
            inflight: Mutex::new(HashMap::new()),
            warm: Mutex::default(),
            replay_window: (QUEUE_CAPACITY / 2 / batch_size).max(1) * batch_size,
            model,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nv-serve-worker-{i}"))
                    .spawn(move || {
                        inner
                            .batcher
                            .worker_loop(inner.model.as_ref(), &inner.metrics)
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        ServeHandle {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The action space decisions index into.
    pub fn space(&self) -> &ActionSpace {
        &self.inner.space
    }

    /// Begins one vectorize request and never blocks: frontend, keys and
    /// the store probes run here, on the caller's thread.
    ///
    /// When every loop hits (or the source does not parse) `done` is
    /// called before this returns, and the result is `false`. Otherwise
    /// each distinct miss joins its key's in-flight computation or goes
    /// to the batcher, the result is `true`, and whichever miss resolves
    /// last — on a batch worker — assembles the output and calls `done`
    /// there: keep it short, and never block in it. A `true` also means
    /// the caller owes the batcher a [`ServeHandle::wake`] once it has
    /// begun everything it has; until then the misses only queue, which
    /// is what lets requests begun together share one forward.
    ///
    /// This is the one request path. [`ServeHandle::vectorize`] is begin,
    /// wake, wait.
    pub fn begin_vectorize(
        &self,
        source: &str,
        done: impl FnOnce(Result<VectorizeOutput, ServeError>) + Send + 'static,
    ) -> bool {
        let t0 = Instant::now();
        // Mint a trace id unless the caller (the hub, per line) already
        // scoped one over this request. The scope ends with this call;
        // what completes later records under `trace` explicitly.
        let _trace = nvc_obs::request_scope();
        let trace = nvc_obs::current_trace();
        let inner = &self.inner;
        inner.metrics.requests.inc();
        // The same extraction pipeline as `NeuroVectorizer::vectorize_source`
        // — decisions and cache keys must agree with the direct path.
        let sites = {
            let _span = nvc_obs::span("frontend");
            extract_loop_samples(source, inner.model.embed_config())
        };
        let sites = match sites {
            Ok(sites) => sites,
            Err(e) => {
                inner.conclude(Err(ServeError::Frontend(e.to_string())), t0, trace, done);
                return false;
            }
        };
        let mut keyed: Vec<(u64, LoopSite)> = sites
            .into_iter()
            .map(|s| (sample_key(&s.sample), s))
            .collect();

        // Probe each distinct key once (identical loop shapes in one
        // file embed once). Every probe comes before the first
        // submission: a miss may resolve on a worker while this thread
        // is still here, and must find `remaining` already final.
        let mut resolved: Vec<Resolved> = Vec::with_capacity(keyed.len());
        let mut misses: Vec<(u64, Arc<PathSample>)> = Vec::new();
        for (key, site) in keyed.iter_mut() {
            let key = *key;
            let seen =
                resolved.iter().any(|&(k, _, _)| k == key) || misses.iter().any(|&(k, _)| k == key);
            if seen {
                continue;
            }
            match inner.probe(key) {
                Some(pair) => resolved.push((key, pair, true)),
                // The sample moves into the one allocation its job, the
                // warm set and a later reload share; the assembly keeps
                // only where each loop is.
                None => misses.push((key, Arc::new(std::mem::take(&mut site.sample)))),
            }
        }
        if misses.is_empty() {
            let sites = keyed
                .into_iter()
                .map(|(key, site)| (key, site.function, site.header_line, site.header_col));
            let out = inner.assemble(source, sites, &resolved, t0);
            inner.conclude(Ok(out), t0, trace, done);
            return false;
        }

        let request = Arc::new(Assembly {
            inner: Arc::clone(inner),
            source: source.to_string(),
            keyed,
            t0,
            trace,
            state: Mutex::new(AssemblyState {
                resolved,
                remaining: misses.len(),
                first_err: None,
                done: Some(Box::new(done)),
            }),
        });
        for (key, sample) in misses {
            let waiter = Arc::clone(&request);
            inner.queue_miss(
                key,
                sample,
                Box::new(move |outcome| waiter.resolve(key, outcome)),
            );
        }
        true
    }

    /// Begins deciding one already-extracted sample: `done` gets the
    /// action pair and whether it was cached — before this returns
    /// (`false`) on a hit, from a batch worker (`true`) on a miss. Same
    /// contract as [`ServeHandle::begin_vectorize`]. Only a miss calls
    /// `shared` for the allocation it queues and retains, so a hit
    /// allocates nothing for its sample.
    fn begin_decision(
        &self,
        sample: &PathSample,
        shared: impl FnOnce() -> Arc<PathSample>,
        done: impl FnOnce(Result<((usize, usize), bool), ServeError>) + Send + 'static,
    ) -> bool {
        let key = sample_key(sample);
        if let Some(pair) = self.inner.probe(key) {
            done(Ok((pair, true)));
            return false;
        }
        self.inner.queue_miss(
            key,
            shared(),
            Box::new(move |outcome| done(outcome.map(|pair| (pair, false)))),
        );
        true
    }

    /// The caller has begun everything it has: lets the batch workers at
    /// what was queued. Cheap when nothing was.
    pub fn wake(&self) {
        self.inner.batcher.wake();
    }

    /// True while the miss queue is at capacity. `begin_vectorize`
    /// never refuses and never blocks, so the bound is kept by its
    /// callers: one that must not block checks this and takes its
    /// request elsewhere, one that may calls
    /// [`ServeHandle::wait_for_space`] first (the blocking wrappers do).
    pub fn queue_is_full(&self) -> bool {
        self.inner.batcher.is_full()
    }

    /// Blocks while the miss queue is at capacity — backpressure instead
    /// of unbounded memory growth. Returns at once after shutdown.
    pub fn wait_for_space(&self) {
        self.inner.batcher.wait_for_space();
    }

    /// What every blocking wrapper does around its begin: wait for queue
    /// space, begin (with the sender its completion answers through —
    /// one answer ever, so a one-slot channel that `try_send` never finds
    /// full), wake the batcher if anything was queued, wait.
    fn block_on<T>(&self, begin: impl FnOnce(SyncSender<T>) -> bool) -> Result<T, ServeError> {
        self.wait_for_space();
        let (tx, rx) = sync_channel(1);
        if begin(tx) {
            self.wake();
        }
        wait_for(&rx)
    }

    /// Decides one already-extracted sample: cache lookup, then
    /// single-flight batched model fallback (a concurrent identical miss
    /// waits for the in-flight decision instead of embedding the loop
    /// again). Returns the action pair and whether it was cached.
    /// Blocking wrapper over the begin path.
    pub fn decide_sample(&self, sample: &PathSample) -> Result<((usize, usize), bool), ServeError> {
        self.block_on(|tx| {
            let shared = || Arc::new(sample.clone());
            self.begin_decision(sample, shared, move |outcome| {
                // A caller that timed out and left is not an error.
                let _ = tx.try_send(outcome);
            })
        })?
    }

    /// The full inference product over a source file: decide `(VF, IF)`
    /// for every innermost loop and return the source with pragmas
    /// injected (plus per-loop detail). Blocking wrapper over
    /// [`ServeHandle::begin_vectorize`].
    pub fn vectorize(&self, source: &str) -> Result<VectorizeOutput, ServeError> {
        self.block_on(|tx| {
            self.begin_vectorize(source, move |outcome| {
                let _ = tx.try_send(outcome);
            })
        })?
    }

    /// The handle's live instruments.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Point-in-time cache counters: this handle's hits, misses and
    /// insertions; the store's occupancy, capacity and evictions.
    pub fn cache_stats(&self) -> CacheStats {
        let m = &self.inner.metrics;
        CacheStats {
            hits: m.cache_hits.get(),
            misses: m.cache_misses.get(),
            insertions: m.cache_insertions.get(),
            ..self.inner.store.stats()
        }
    }

    /// The full introspection surface as one JSON object.
    pub fn stats_json(&self) -> Json {
        let m = &self.inner.metrics;
        let c = self.cache_stats();
        let (batches, batched_loops) = (m.batches.get(), m.batched_loops.get());
        let mean_batch = if batches == 0 {
            0.0
        } else {
            batched_loops as f64 / batches as f64
        };
        let ops = nvc_obs::OpProfile::now();
        obj(vec![
            (
                "uptime_us",
                Json::from(self.inner.started.elapsed().as_micros() as u64),
            ),
            (
                "kernel_mode",
                Json::from(nvc_nn::kernels::kernel_mode().name()),
            ),
            ("kernel_isa", Json::from(nvc_nn::kernels::kernel_isa())),
            ("requests", Json::from(m.requests.get())),
            ("errors", Json::from(m.errors.get())),
            ("loops_served", Json::from(m.loops_served.get())),
            ("warmup_replayed", Json::from(m.warmup_replayed.get())),
            (
                "cache",
                obj(vec![
                    ("hits", Json::from(c.hits)),
                    ("misses", Json::from(c.misses)),
                    ("hit_rate", Json::from(c.hit_rate())),
                    ("evictions", Json::from(c.evictions)),
                    ("insertions", Json::from(c.insertions)),
                    ("entries", Json::from(c.len())),
                    ("shards", Json::from(c.occupancy.len())),
                    ("shard_capacity", Json::from(c.shard_capacity)),
                    ("entries_restored", Json::from(m.entries_restored.get())),
                    (
                        "entries_invalidated_by_version",
                        Json::from(m.entries_invalidated_by_version.get()),
                    ),
                    (
                        "occupancy",
                        Json::Arr(c.occupancy.iter().map(|&o| Json::from(o)).collect()),
                    ),
                ]),
            ),
            (
                "batch",
                obj(vec![
                    ("batches", Json::from(batches)),
                    ("batched_loops", Json::from(batched_loops)),
                    ("failed_batches", Json::from(m.failed_batches.get())),
                    ("dedup_waits", Json::from(m.dedup_waits.get())),
                    (
                        "queue_depth",
                        Json::from(self.inner.batcher.queued() as u64),
                    ),
                    ("mean_batch", Json::from(mean_batch)),
                    ("size_histogram", m.batch_sizes.buckets_json()),
                ]),
            ),
            (
                "latency",
                obj(vec![
                    ("count", Json::from(m.latency.count())),
                    ("mean_us", Json::from(m.latency.mean_us())),
                    ("p50_us", Json::from(m.latency.quantile_us(0.50))),
                    ("p99_us", Json::from(m.latency.quantile_us(0.99))),
                    ("histogram_us", m.latency.buckets_json()),
                ]),
            ),
            ("ops", ops.ops_json()),
            // Rows looked up and multiplied (zero while `NVC_OPS` is off),
            // and the bytes the fast forward's projected-row memo keeps —
            // process-wide and always on.
            (
                "op_counters",
                ops.counters_json(&[("embed_memo_bytes", nvc_obs::embed_memo_bytes())]),
            ),
        ])
    }

    /// Stops the worker pool, letting in-flight batches complete (the
    /// workers drain the queue before exiting). Idempotent, takes
    /// `&self` so daemons can drain on a shared handle; also done on
    /// drop.
    pub fn shutdown(&self) {
        self.inner.batcher.stop();
        let workers: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Push any still-buffered span records to the `NVC_TRACE` sink
        // before the process (or test) moves on.
        nvc_obs::flush_trace();
    }

    /// Every stored decision under this handle's checkpoint, coldest
    /// first per shard — the image the hub persists and exports
    /// ([`ContentStore::entries_for`]).
    pub fn cache_snapshot(&self) -> Vec<(u64, (usize, usize))> {
        self.inner.store.entries_for(self.inner.checkpoint_hash)
    }

    /// Seeds the store under this handle's checkpoint from a persisted
    /// snapshot or a peer's export (coldest first) and counts what it
    /// added in `entries_restored` and `insertions`. The caller admits
    /// the entries first — computed under this checkpoint, every index
    /// inside [`ServeHandle::space`] — as a hub's `absorb` does, so that a
    /// cache hit can index the space unchecked.
    pub fn restore_cache(&self, entries: Vec<(u64, (usize, usize))>) -> usize {
        let n = self.inner.store.absorb(self.inner.checkpoint_hash, entries);
        self.inner.metrics.entries_restored.add(n as u64);
        self.inner.metrics.cache_insertions.add(n as u64);
        n
    }

    /// Records `n` persisted or gossiped entries named after this model
    /// that were not restored through it: computed under another
    /// checkpoint, or with an index outside an action space.
    pub fn record_invalidated_entries(&self, n: u64) {
        self.inner.metrics.entries_invalidated_by_version.add(n);
    }

    /// The samples this handle has decided most recently (bounded,
    /// miss-path only, oldest first) — the shadow-traffic set a hot-swap reload replays against the
    /// replacement handle so it starts warm. Shared, not copied: each is
    /// the allocation the warm set holds.
    pub fn warm_samples(&self) -> Vec<Arc<PathSample>> {
        let warm = self.inner.warm.lock();
        warm.order
            .iter()
            .map(|key| Arc::clone(&warm.samples[key]))
            .collect()
    }

    /// The embedding vocabulary configuration of the underlying model —
    /// what a caller needs to re-extract samples from source text with
    /// keys that agree with this handle's decisions.
    pub fn embed_config(&self) -> nvc_embed::EmbedConfig {
        self.inner.model.embed_config().clone()
    }

    /// The sample behind a decision `key`, if this handle still holds it
    /// in its warm set. The online-learning loop uses this to correlate a
    /// client's `report` (which echoes the key from a vectorize response)
    /// back to the path-context sample the decision was made on. The warm
    /// set is bounded and miss-path-only, so `None` is an expected answer
    /// for old or cache-hit-only keys — callers fall back to re-extracting
    /// from the reported source.
    pub fn lookup_sample(&self, key: u64) -> Option<Arc<PathSample>> {
        self.inner.warm.lock().samples.get(&key).cloned()
    }

    /// The cached decision for `key`, if still resident. Pure probe: no
    /// model fallback, no LRU-order perturbation beyond the read itself.
    pub fn lookup_decision(&self, key: u64) -> Option<(usize, usize)> {
        self.inner.store.get(self.inner.checkpoint_hash, key)
    }

    /// Replays `samples` as shadow traffic: each one is decided through
    /// the normal store → model path (so already-warm
    /// keys cost a probe, not a forward) and counted in
    /// `warmup_replayed`. The one in-process caller with a burst: it
    /// begins a whole window of samples, wakes the batcher once, then
    /// collects — ⌈misses / `batch_size`⌉ forwards per window, not one
    /// per sample. A miss queues and retains the caller's allocation,
    /// so replaying another handle's [`ServeHandle::warm_samples`] copies
    /// no sample. Returns how many were decided; stops early if the
    /// handle shuts down (or stops answering) mid-replay.
    pub fn warm_replay(&self, samples: &[Arc<PathSample>]) -> usize {
        let mut replayed = 0;
        for window in samples.chunks(self.inner.replay_window) {
            let (tx, rx) = channel();
            for s in window {
                let tx = tx.clone();
                self.begin_decision(
                    s,
                    || Arc::clone(s),
                    move |outcome| {
                        let _ = tx.send(outcome);
                    },
                );
            }
            self.wake();
            for _ in window {
                match wait_for(&rx).and_then(|outcome| outcome) {
                    Ok(_) => {
                        self.inner.metrics.warmup_replayed.inc();
                        replayed += 1;
                    }
                    Err(ServeError::ShuttingDown | ServeError::Timeout) => return replayed,
                    Err(_) => {}
                }
            }
        }
        replayed
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_embed::EmbedConfig;
    use nvc_machine::TargetConfig;

    /// Deterministic model: the decision is a function of the sample.
    struct Stub {
        embed: EmbedConfig,
        target: TargetConfig,
    }

    impl Stub {
        fn new() -> Self {
            Stub {
                embed: EmbedConfig::fast(),
                target: TargetConfig::i7_8559u(),
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
            let dims = (
                self.target.vf_candidates().len(),
                self.target.if_candidates().len(),
            );
            samples
                .iter()
                .map(|s| {
                    (
                        s.len() % dims.0,
                        s.starts.first().map_or(0, |&i| i as usize) % dims.1,
                    )
                })
                .collect()
        }
    }

    fn start(cfg: ServeConfig) -> ServeHandle {
        ServeHandle::start(Arc::new(Stub::new()), cfg)
    }

    /// A sample of one `(start, path, end)` context.
    fn one_context(start: u32, path: u32, end: u32) -> Arc<PathSample> {
        let (starts, paths, ends) = (vec![start], vec![path], vec![end]);
        Arc::new(PathSample {
            starts,
            paths,
            ends,
        })
    }

    const SRC: &str = "float a[512]; float b[512]; float M[32][32];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) {
            M[i][j] = 0.0;
        }
    }
}";

    #[test]
    fn vectorize_annotates_all_innermost_loops() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        assert_eq!(out.loops.len(), 2);
        assert_eq!(out.source.matches("#pragma clang loop").count(), 2);
        assert!(out.loops.iter().all(|l| !l.cached), "first request is cold");
        // Same file again: every loop now comes from the cache.
        let again = h.vectorize(SRC).unwrap();
        assert!(again.loops.iter().all(|l| l.cached));
        assert_eq!(again.source, out.source, "cache must not change decisions");
        let stats = h.cache_stats();
        assert!(stats.hits >= 2);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let h = start(ServeConfig::default());
        let err = h.vectorize("void f( {{{").unwrap_err();
        assert!(matches!(err, ServeError::Frontend(_)));
        assert_eq!(h.metrics().errors.get(), 1);
    }

    #[test]
    fn identical_loop_shapes_dedupe_within_one_request() {
        // Two alpha-renamed copies of the same loop: one model decision,
        // one cache entry.
        let src = "float a[64]; float b[64]; float c[64]; float d[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i];
    }
    for (int k = 0; k < n; k++) {
        c[k] = d[k];
    }
}";
        let h = start(ServeConfig::default());
        let out = h.vectorize(src).unwrap();
        assert_eq!(out.loops.len(), 2);
        assert_eq!(h.cache_stats().insertions, 1, "renamed loops share a key");
        assert_eq!(out.loops[0].vf, out.loops[1].vf);
        assert_eq!(out.loops[0].if_, out.loops[1].if_);
    }

    /// A model slow enough that a second request on the same key arrives
    /// while the first is still in flight; counts the rows it embeds.
    struct SlowStub {
        embed: EmbedConfig,
        target: TargetConfig,
        rows_seen: std::sync::atomic::AtomicU64,
    }

    impl DecisionModel for SlowStub {
        fn embed_config(&self) -> &EmbedConfig {
            &self.embed
        }

        fn target(&self) -> &TargetConfig {
            &self.target
        }

        fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
            self.rows_seen
                .fetch_add(samples.len() as u64, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(300));
            samples.iter().map(|s| (s.len() % 3, 1)).collect()
        }
    }

    #[test]
    fn concurrent_identical_misses_coalesce_into_one_forward() {
        let model = Arc::new(SlowStub {
            embed: EmbedConfig::fast(),
            target: TargetConfig::i7_8559u(),
            rows_seen: std::sync::atomic::AtomicU64::new(0),
        });
        // Batch size 1 so each submission is its own forward: without
        // single-flight the second request would run a second forward.
        let h = ServeHandle::start(
            Arc::clone(&model) as Arc<dyn DecisionModel>,
            ServeConfig::default().with_batch_size(1).with_workers(2),
        );
        let sample = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        let (first, second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| h.decide_sample(&sample).unwrap());
            // Stagger so the leader is in flight (the model sleeps 300ms).
            std::thread::sleep(Duration::from_millis(100));
            let b = scope.spawn(|| h.decide_sample(&sample).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(first.0, second.0, "coalesced requests must agree");
        assert_eq!(
            model.rows_seen.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "the identical concurrent miss must not embed again"
        );
        assert_eq!(h.metrics().dedup_waits.get(), 1);
    }

    #[test]
    fn requests_after_shutdown_fail_fast() {
        let h = start(ServeConfig::default());
        h.shutdown();
        h.shutdown(); // idempotent
        let t0 = std::time::Instant::now();
        let err = h.vectorize(SRC).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "post-shutdown requests must not wait out the decision timeout"
        );
    }

    #[test]
    fn restored_cache_serves_hits_and_counts() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        let snap = h.cache_snapshot();
        assert!(!snap.is_empty());

        // A second handle seeded from the snapshot serves the same file
        // entirely from cache — no model forward at all.
        let h2 = start(ServeConfig::default());
        assert_eq!(h2.restore_cache(snap.clone()), snap.len());
        let again = h2.vectorize(SRC).unwrap();
        assert_eq!(again.source, out.source, "restored decisions must agree");
        assert!(again.loops.iter().all(|l| l.cached));
        let m = h2.metrics();
        assert_eq!(m.entries_restored.get(), snap.len() as u64);
        assert_eq!(m.batches.get(), 0, "restored entries must skip the model");

        h2.record_invalidated_entries(9);
        assert_eq!(m.entries_invalidated_by_version.get(), 9);
    }

    #[test]
    fn stats_json_has_the_full_surface() {
        let h = start(ServeConfig::default());
        h.vectorize(SRC).unwrap();
        let s = h.stats_json();
        for path in [
            vec!["requests"],
            vec!["uptime_us"],
            vec!["kernel_isa"],
            vec!["cache", "hits"],
            vec!["cache", "hit_rate"],
            vec!["cache", "occupancy"],
            vec!["cache", "entries_restored"],
            vec!["cache", "entries_invalidated_by_version"],
            vec!["batch", "mean_batch"],
            vec!["batch", "queue_depth"],
            vec!["batch", "failed_batches"],
            vec!["batch", "size_histogram"],
            vec!["latency", "p99_us"],
            vec!["latency", "histogram_us"],
            vec!["ops"],
            vec!["op_counters", "embed_context_rows_total"],
            vec!["op_counters", "embed_projected_rows_total"],
            vec!["op_counters", "embed_memo_bytes"],
        ] {
            let mut v = &s;
            for k in path.iter() {
                v = v
                    .get(k)
                    .unwrap_or_else(|| panic!("missing stats key {path:?}"));
            }
        }
        // The histogram dump carries the latency observation.
        let buckets = s
            .get("latency")
            .unwrap()
            .get("histogram_us")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(!buckets.is_empty(), "one request must fill one bucket");
        let total: f64 = buckets
            .iter()
            .map(|b| b.as_array().unwrap()[1].as_f64().unwrap())
            .sum();
        assert_eq!(total, 1.0);
        // So does the batch-size distribution: SRC's two misses rode one
        // forward, which lands in the [2, 4) bucket.
        let batch = s.get("batch").unwrap();
        assert_eq!(
            batch.get("size_histogram").unwrap().render(),
            "[[4,1]]",
            "one batch of two"
        );
        assert_eq!(batch.get("mean_batch").unwrap().as_f64(), Some(2.0));
        assert_eq!(batch.get("queue_depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(batch.get("failed_batches").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn shared_store_spans_handles_of_one_checkpoint_only() {
        let store = Arc::new(ContentStore::default());
        let on = |ckpt: u64| {
            let model = Arc::new(Stub::new());
            ServeHandle::start_with_store(model, ServeConfig::default(), ckpt, Arc::clone(&store))
        };
        let h1 = on(7);
        let out = h1.vectorize(SRC).unwrap();
        assert_eq!(h1.cache_stats().insertions, 2, "both loops stored");

        // A second handle under the same checkpoint hash serves the
        // whole file from the store: zero model forwards, and the
        // decisions are bitwise identical.
        let h2 = on(7);
        let again = h2.vectorize(SRC).unwrap();
        assert_eq!(again.source, out.source);
        assert!(again.loops.iter().all(|l| l.cached));
        assert_eq!(h2.cache_stats().hits, 2);
        assert_eq!(
            h2.metrics().batches.get(),
            0,
            "shared hits must skip the model"
        );

        // A different checkpoint hash must never see those entries.
        let h3 = on(9);
        h3.vectorize(SRC).unwrap();
        assert_eq!(h3.cache_stats().hits, 0, "cross-checkpoint leak");
        assert!(
            h3.metrics().batches.get() > 0,
            "other checkpoint must recompute"
        );
        // One store holds both checkpoints' decisions, once each.
        assert_eq!(store.len(), 4);
        assert_eq!(h3.cache_stats().len(), 4);
    }

    #[test]
    fn warm_replay_decides_counts_and_heats_the_cache() {
        let h = start(ServeConfig::default());
        let out = h.vectorize(SRC).unwrap();
        let samples = h.warm_samples();
        assert_eq!(samples.len(), 2, "both misses must be retained");

        let h2 = start(ServeConfig::default());
        let replayed = h2.warm_replay(&samples);
        assert_eq!(replayed, samples.len());
        assert_eq!(h2.metrics().warmup_replayed.get(), replayed as u64);

        // The replay begins its whole set before it waits: 20 never-seen
        // samples (fewer than a batch) are one forward, not 20. Parked
        // workers first, so none of them catches the set half submitted.
        let burst: Vec<_> = (0..20).map(|i| one_context(1000 + i, i, i + 1)).collect();
        while h2.inner.batcher.idle_workers() < ServeConfig::default().workers {
            std::thread::yield_now();
        }
        let m = h2.metrics();
        let before = (m.batches.get(), m.batched_loops.get());
        assert_eq!(h2.warm_replay(&burst), 20);
        assert_eq!(m.batches.get() - before.0, 1);
        assert_eq!(m.batched_loops.get() - before.1, 20);
        assert_eq!(m.warmup_replayed.get(), replayed as u64 + 20);
        // The replayed keys now serve the original file entirely warm.
        let warm = h2.vectorize(SRC).unwrap();
        assert!(warm.loops.iter().all(|l| l.cached));
        assert_eq!(warm.source, out.source);

        // Replay against a drained handle reports zero, not a hang.
        let h3 = start(ServeConfig::default());
        h3.shutdown();
        assert_eq!(h3.warm_replay(&samples), 0);
    }

    /// A full warm set evicts its oldest keys: after
    /// `WARM_SAMPLE_CAPACITY + 10` distinct misses it holds the newest
    /// samples, oldest first, and not the 10 it saw first.
    #[test]
    fn a_full_warm_set_keeps_the_newest_samples() {
        let h = start(ServeConfig::default());
        let n = WARM_SAMPLE_CAPACITY as u32 + 10;
        let samples: Vec<_> = (0..n).map(|i| one_context(i, i, i)).collect();
        assert_eq!(h.warm_replay(&samples), samples.len());
        let kept = h.warm_samples();
        assert_eq!(kept.len(), WARM_SAMPLE_CAPACITY);
        assert!(kept
            .iter()
            .zip(&samples[10..])
            .all(|(k, s)| Arc::ptr_eq(k, s)));
        assert!(h.lookup_sample(sample_key(&samples[9])).is_none());
        let newest = &samples[samples.len() - 1];
        assert!(h
            .lookup_sample(sample_key(newest))
            .is_some_and(|s| Arc::ptr_eq(&s, newest)));
    }
}
