//! The service itself: [`ServeHandle`] (in-process API) and
//! [`run_daemon`] (JSON-lines loop over arbitrary reader/writer pairs —
//! stdin/stdout in production, byte buffers in tests).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nvc_embed::{extract_loop_samples, LoopSite, PathSample};
use nvc_frontend::{inject_pragmas, LoopPragma};
use nvc_vectorizer::ActionSpace;

use crate::batch::{Batcher, Completion};
use crate::cache::{CacheStats, ShardedLruCache};
use crate::json::{obj, Json};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{LoopReport, Request};
use crate::{sample_key, DecisionModel, ServeConfig, SharedDecisionStore};

/// How long a blocking caller waits for the batch workers before giving
/// up.
const DECISION_TIMEOUT: Duration = Duration::from_secs(30);

/// How many recently decided samples the handle keeps around for
/// post-reload warmup replay (the cache itself only holds one-way
/// hashes, which cannot be re-decided under a new checkpoint).
const WARM_SAMPLE_CAPACITY: usize = 4096;

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

/// One distinct key's decision within a request: the key, the action
/// pair, and whether a cache answered it.
type Resolved = (u64, (usize, usize), bool);

struct Inner {
    model: Arc<dyn DecisionModel>,
    space: ActionSpace,
    cache: ShardedLruCache<(usize, usize)>,
    batcher: Batcher,
    metrics: Metrics,
    /// Single-flight registry: keys whose decision is being computed
    /// right now, with the completion of every request waiting on them
    /// (the leader's — the one that queued the sample — first).
    /// Concurrent misses on the same key coalesce onto one model
    /// forward instead of embedding the same loop twice.
    inflight: Mutex<HashMap<u64, Vec<Completion>>>,
    /// Second-level decision store shared beyond this handle (A/B
    /// sides, reloads, peer nodes), with the checkpoint hash this
    /// handle's decisions are content-addressed under. `None` keeps the
    /// pre-fleet single-cache behavior.
    shared: Option<(u64, Arc<dyn SharedDecisionStore>)>,
    /// Recently decided samples by cache key, kept (bounded) so a
    /// hot-swap reload can replay them as shadow traffic against the
    /// fresh checkpoint — the cache keys alone are one-way hashes.
    warm: Mutex<HashMap<u64, PathSample>>,
    /// How many samples [`ServeHandle::warm_replay`] begins before it
    /// collects: whole batches, at most half the miss queue, so shadow
    /// traffic never fills it against real requests.
    replay_window: usize,
}

impl Inner {
    /// The hit path, on the caller's thread: the LRU, then the shared
    /// content-addressed store. A hit there (computed by the A/B twin, a
    /// previous incarnation of this checkpoint, or a peer node)
    /// back-fills the LRU so the next probe stays local.
    fn probe(&self, key: u64, sample: &PathSample) -> Option<(usize, usize)> {
        let hit = {
            let _span = nvc_obs::span("cache_lookup");
            self.cache.get(key)
        };
        if let Some(pair) = hit {
            nvc_obs::marker("cache_hit");
            return Some(pair);
        }
        // Off the hit path (one global lock would contend the warm
        // loop): every *miss* records its sample for warmup replay.
        self.retain_warm_sample(key, sample);
        let (ckpt, store) = self.shared.as_ref()?;
        let pair = store.get(*ckpt, key)?;
        self.cache.insert(key, pair);
        self.metrics.shared_hits.inc();
        nvc_obs::marker("shared_hit");
        Some(pair)
    }

    /// The miss path, still on the caller's thread and never blocking:
    /// joins the key's in-flight computation, or becomes its leader and
    /// queues the sample. Either way `done` is called exactly once, by
    /// [`Inner::publish`].
    fn queue_miss(self: &Arc<Self>, key: u64, sample: &PathSample, done: Completion) {
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
        self.batcher.submit(
            sample.clone(),
            Box::new(move |outcome| inner.publish(key, outcome)),
        );
    }

    /// A leader's job has completed (on the batch worker, or on the
    /// submitter when the queue is already shut down): publishes the
    /// decision to the cache and the shared store, then answers everyone
    /// waiting on the key — with the same error when there is none.
    fn publish(&self, key: u64, outcome: Result<(usize, usize), ServeError>) {
        if let Ok(pair) = outcome {
            self.cache.insert(key, pair);
            if let Some((ckpt, store)) = &self.shared {
                store.put(*ckpt, key, pair);
                self.metrics.shared_publishes.inc();
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
    /// Bounded: once full, already-known keys keep refreshing knowledge
    /// of nothing (they are present) and new keys are dropped — the
    /// replay set is best-effort shadow traffic, not a ledger.
    fn retain_warm_sample(&self, key: u64, sample: &PathSample) {
        let mut warm = self.warm.lock();
        if warm.len() < WARM_SAMPLE_CAPACITY || warm.contains_key(&key) {
            warm.entry(key).or_insert_with(|| sample.clone());
        }
    }

    /// Turns a request's decisions into its answer: per-loop reports and
    /// the source with pragmas injected.
    fn assemble(
        &self,
        source: &str,
        keyed: &[(u64, LoopSite)],
        resolved: &[Resolved],
        t0: Instant,
    ) -> VectorizeOutput {
        let mut reports: Vec<LoopReport> = keyed
            .iter()
            .map(|(key, site)| {
                let &(_, (vf_idx, if_idx), cached) = resolved
                    .iter()
                    .find(|(k, _, _)| k == key)
                    .expect("every distinct key was resolved");
                let d = self.space.decision_from_pair(vf_idx, if_idx);
                LoopReport {
                    function: site.function.clone(),
                    line: site.header_line,
                    vf: d.vf,
                    if_: d.if_,
                    cached,
                    key: *key,
                }
            })
            .collect();
        let pragmas: Vec<(u32, LoopPragma)> = reports
            .iter()
            .map(|r| {
                (
                    r.line,
                    LoopPragma {
                        vectorize_width: r.vf,
                        interleave_count: r.if_,
                    },
                )
            })
            .collect();
        let out = inject_pragmas(source, &pragmas);
        reports.sort_by_key(|r| r.line);
        self.metrics.loops_served.add(reports.len() as u64);
        VectorizeOutput {
            source: out,
            loops: reports,
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
            None => Ok(self
                .inner
                .assemble(&self.source, &self.keyed, &resolved, self.t0)),
        };
        self.inner.conclude(outcome, self.t0, self.trace, done);
    }
}

/// A running vectorization service: worker threads + cache + metrics.
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
    pub fn start(model: Arc<dyn DecisionModel>, cfg: ServeConfig) -> Self {
        ServeHandle::start_with_store(model, cfg, None)
    }

    /// [`ServeHandle::start`] with a second-level decision store shared
    /// beyond this handle. `shared` carries the checkpoint hash this
    /// handle's decisions are content-addressed under — entries only
    /// flow between handles serving the *same* checkpoint, no matter
    /// how many handles (A/B sides, reload generations, peers via
    /// gossip) share the store object.
    pub fn start_with_store(
        model: Arc<dyn DecisionModel>,
        cfg: ServeConfig,
        shared: Option<(u64, Arc<dyn SharedDecisionStore>)>,
    ) -> Self {
        // `NVC_TRACE=path` turns request tracing on for any embedding of
        // the service — daemon, hub, tests — without CLI plumbing.
        nvc_obs::init_from_env();
        let space = ActionSpace::for_target(model.target());
        let batch_size = cfg.batch_size.max(1);
        let inner = Arc::new(Inner {
            space,
            cache: ShardedLruCache::new(cfg.cache_capacity, cfg.cache_shards),
            batcher: Batcher::new(batch_size, cfg.queue_capacity),
            metrics: Metrics::default(),
            inflight: Mutex::new(HashMap::new()),
            shared,
            warm: Mutex::new(HashMap::new()),
            replay_window: (cfg.queue_capacity / 2 / batch_size).max(1) * batch_size,
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
    /// the cache / shared-store probes run here, on the caller's thread.
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
        let keyed: Vec<(u64, LoopSite)> = sites
            .into_iter()
            .map(|s| (sample_key(&s.sample), s))
            .collect();

        // Probe each distinct key once (identical loop shapes in one
        // file embed once). Every probe comes before the first
        // submission: a miss may resolve on a worker while this thread
        // is still here, and must find `remaining` already final.
        let mut resolved: Vec<Resolved> = Vec::with_capacity(keyed.len());
        let mut misses: Vec<usize> = Vec::new();
        for (i, (key, site)) in keyed.iter().enumerate() {
            let seen = resolved.iter().any(|(k, _, _)| k == key)
                || misses.iter().any(|&m| keyed[m].0 == *key);
            if seen {
                continue;
            }
            match inner.probe(*key, &site.sample) {
                Some(pair) => resolved.push((*key, pair, true)),
                None => misses.push(i),
            }
        }
        if misses.is_empty() {
            let out = inner.assemble(source, &keyed, &resolved, t0);
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
        for i in misses {
            let (key, site) = &request.keyed[i];
            let (key, waiter) = (*key, Arc::clone(&request));
            inner.queue_miss(
                key,
                &site.sample,
                Box::new(move |outcome| waiter.resolve(key, outcome)),
            );
        }
        true
    }

    /// Begins deciding one already-extracted sample: `done` gets the
    /// action pair and whether it was cached — before this returns
    /// (`false`) on a hit, from a batch worker (`true`) on a miss. Same
    /// contract as [`ServeHandle::begin_vectorize`].
    fn begin_decision(
        &self,
        sample: &PathSample,
        done: impl FnOnce(Result<((usize, usize), bool), ServeError>) + Send + 'static,
    ) -> bool {
        let key = sample_key(sample);
        if let Some(pair) = self.inner.probe(key, sample) {
            done(Ok((pair, true)));
            return false;
        }
        self.inner.queue_miss(
            key,
            sample,
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
            self.begin_decision(sample, move |outcome| {
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

    /// Point-in-time service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.sample_queue_depth();
        self.inner.metrics.snapshot()
    }

    /// The queue-depth gauge is sampled when somebody reads it, not
    /// maintained on the submit path.
    fn sample_queue_depth(&self) {
        let depth = self.inner.batcher.queued();
        self.inner.metrics.queue_depth.set(depth as i64);
    }

    /// Point-in-time cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The full introspection surface as one JSON object.
    pub fn stats_json(&self) -> Json {
        let m = self.metrics();
        let c = self.cache_stats();
        obj(vec![
            ("uptime_us", Json::from(m.uptime_us)),
            (
                "kernel_mode",
                Json::from(nvc_nn::kernels::kernel_mode().name()),
            ),
            ("requests", Json::from(m.requests)),
            ("errors", Json::from(m.errors)),
            ("loops_served", Json::from(m.loops_served)),
            ("warmup_replayed", Json::from(m.warmup_replayed)),
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
                    ("entries_restored", Json::from(m.entries_restored)),
                    (
                        "entries_invalidated_by_version",
                        Json::from(m.entries_invalidated_by_version),
                    ),
                    ("shared_hits", Json::from(m.shared_hits)),
                    ("shared_publishes", Json::from(m.shared_publishes)),
                    (
                        "occupancy",
                        Json::Arr(c.occupancy.iter().map(|&o| Json::from(o)).collect()),
                    ),
                ]),
            ),
            (
                "batch",
                obj(vec![
                    ("batches", Json::from(m.batches)),
                    ("batched_loops", Json::from(m.batched_loops)),
                    ("failed_batches", Json::from(m.failed_batches)),
                    ("dedup_waits", Json::from(m.dedup_waits)),
                    ("queue_depth", Json::from(m.queue_depth)),
                    ("mean_batch", Json::from(m.mean_batch)),
                    (
                        "size_histogram",
                        buckets_json(&self.inner.metrics.batch_sizes),
                    ),
                ]),
            ),
            (
                "latency",
                obj(vec![
                    ("count", Json::from(m.latency_count)),
                    ("mean_us", Json::from(m.latency_mean_us)),
                    ("p50_us", Json::from(m.latency_p50_us)),
                    ("p99_us", Json::from(m.latency_p99_us)),
                    ("histogram_us", buckets_json(&self.inner.metrics.latency)),
                ]),
            ),
            ("ops", ops_json()),
            ("op_counters", op_counters_json()),
        ])
    }

    /// Prometheus text exposition of this service's metrics registry,
    /// followed by the kernel op timers (each op sample labelled with the
    /// active `kernel_mode` so dashboards can split strict vs fast
    /// traffic). `labels` is spliced into every sample (`""` for none).
    pub fn render_prometheus(&self, labels: &str) -> String {
        let mut out =
            nvc_obs::RegistrySnapshot::render_prometheus(&[(labels, &self.metrics_snapshot())]);
        out.push_str(&render_ops_prometheus(labels));
        out
    }

    /// A copy of this handle's own instruments (queue depth sampled now) —
    /// what a server of several handles renders together, per family,
    /// beside one [`render_ops_prometheus`].
    pub fn metrics_snapshot(&self) -> nvc_obs::RegistrySnapshot {
        self.sample_queue_depth();
        self.inner.metrics.registry().snapshot()
    }

    /// Handles one protocol line; returns the response line and whether
    /// the daemon should keep running.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let with_id = |id: Option<&str>, mut members: Vec<(&str, Json)>| {
            if let Some(id) = id {
                members.insert(0, ("id", Json::from(id)));
            }
            obj(members).render()
        };
        // Parse the line once; an invalid request may still carry a
        // correlation id the client needs to pair the error with.
        let parsed = Json::parse(line)
            .map_err(|e| (None, format!("invalid JSON: {e}")))
            .and_then(|v| {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                Request::from_json(&v).map_err(|e| (id, e))
            });
        match parsed {
            Err((id, e)) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(false)), ("error", Json::from(e))],
                ),
                true,
            ),
            Ok(Request::Stats { id }) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(true)), ("stats", self.stats_json())],
                ),
                true,
            ),
            Ok(Request::Shutdown { id }) => (
                with_id(
                    id.as_deref(),
                    vec![("ok", Json::from(true)), ("shutdown", Json::from(true))],
                ),
                false,
            ),
            Ok(Request::Vectorize { id, source }) => match self.vectorize(&source) {
                Ok(out) => (
                    with_id(
                        id.as_deref(),
                        vec![
                            ("ok", Json::from(true)),
                            ("source", Json::from(out.source)),
                            (
                                "loops",
                                Json::Arr(out.loops.iter().map(LoopReport::to_json).collect()),
                            ),
                            ("latency_us", Json::from(out.latency_us)),
                        ],
                    ),
                    true,
                ),
                Err(e) => (
                    with_id(
                        id.as_deref(),
                        vec![
                            ("ok", Json::from(false)),
                            ("error", Json::from(e.to_string())),
                        ],
                    ),
                    true,
                ),
            },
        }
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

    /// Every cached decision, coldest first per shard — the persistence
    /// image the hub writes to disk on shutdown
    /// (see [`ShardedLruCache::snapshot`] for the recency guarantee).
    pub fn cache_snapshot(&self) -> Vec<(u64, (usize, usize))> {
        self.inner.cache.snapshot()
    }

    /// Seeds the decision cache from a persisted snapshot (coldest
    /// first) and counts the entries in `entries_restored`. The caller
    /// is responsible for version-checking the snapshot against the
    /// model's checkpoint hash *before* restoring — a stale snapshot
    /// must go through [`ServeHandle::record_invalidated_entries`]
    /// instead of here.
    pub fn restore_cache(&self, entries: impl IntoIterator<Item = (u64, (usize, usize))>) -> usize {
        let n = self.inner.cache.restore(entries);
        self.inner.metrics.entries_restored.add(n as u64);
        n
    }

    /// Records `n` persisted cache entries that were discarded because
    /// their snapshot was taken under a different checkpoint.
    pub fn record_invalidated_entries(&self, n: u64) {
        self.inner.metrics.entries_invalidated_by_version.add(n);
    }

    /// The samples this handle has decided (bounded, miss-path only) —
    /// the shadow-traffic set a hot-swap reload replays against the
    /// replacement handle so it starts warm.
    pub fn warm_samples(&self) -> Vec<PathSample> {
        self.inner.warm.lock().values().cloned().collect()
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
    pub fn lookup_sample(&self, key: u64) -> Option<PathSample> {
        self.inner.warm.lock().get(&key).cloned()
    }

    /// The cached decision for `key`, if still resident. Pure probe: no
    /// model fallback, no LRU-order perturbation beyond the read itself.
    pub fn lookup_decision(&self, key: u64) -> Option<(usize, usize)> {
        self.inner.cache.get(key)
    }

    /// Replays `samples` as shadow traffic: each one is decided through
    /// the normal cache → shared-store → model path (so already-warm
    /// keys cost a probe, not a forward) and counted in
    /// `warmup_replayed`. The one in-process caller with a burst: it
    /// begins a whole window of samples, wakes the batcher once, then
    /// collects — ⌈misses / `batch_size`⌉ forwards per window, not one
    /// per sample. Returns how many were decided; stops early if the
    /// handle shuts down (or stops answering) mid-replay.
    pub fn warm_replay(&self, samples: &[PathSample]) -> usize {
        let mut replayed = 0;
        for window in samples.chunks(self.inner.replay_window) {
            let (tx, rx) = channel();
            for s in window {
                let tx = tx.clone();
                self.begin_decision(s, move |outcome| {
                    let _ = tx.send(outcome);
                });
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

/// Prometheus exposition of the kernel op timers, then the encoder's
/// work counters (`nvc_embed_context_rows_total` /
/// `nvc_embed_projected_rows_total`, once either has moved), then the
/// `nvc_embed_memo_bytes` gauge. Timers and counters mirror
/// [`ops_json`]'s filter (only ops that ran; none while `NVC_OPS` is
/// off); the gauge is always there. `labels` is spliced in front of the
/// per-sample label set the same way the metrics registry does. All of
/// it is **process-wide** — every handle in the process would render the
/// same numbers — so a server of several handles emits it once.
pub fn render_ops_prometheus(labels: &str) -> String {
    use std::fmt::Write as _;
    let snap: Vec<_> = nvc_obs::ops_snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .collect();
    let sep = if labels.is_empty() { "" } else { "," };
    let mode = format!("kernel_mode=\"{}\"", nvc_nn::kernels::kernel_mode().name());
    let set = |op: &str| format!("{labels}{sep}op=\"{op}\",{mode}");
    let mut out = String::new();
    if !snap.is_empty() {
        out.push_str("# TYPE nvc_kernel_op_calls_total counter\n");
        for s in &snap {
            let _ = writeln!(
                out,
                "nvc_kernel_op_calls_total{{{}}} {}",
                set(s.op.name()),
                s.calls
            );
        }
        out.push_str("# TYPE nvc_kernel_op_time_us_total counter\n");
        for s in &snap {
            let _ = writeln!(
                out,
                "nvc_kernel_op_time_us_total{{{}}} {}",
                set(s.op.name()),
                s.total_ns as f64 / 1_000.0
            );
        }
        for (name, value) in nvc_obs::embed_rows_snapshot().named() {
            if value > 0 {
                let _ = writeln!(out, "# TYPE nvc_{name} counter");
                let _ = writeln!(out, "nvc_{name}{{{labels}{sep}{mode}}} {value}");
            }
        }
    }
    out.push_str("# TYPE nvc_embed_memo_bytes gauge\n");
    let _ = writeln!(
        out,
        "nvc_embed_memo_bytes{{{labels}{sep}{mode}}} {}",
        nvc_obs::embed_memo_bytes()
    );
    out
}

/// A histogram's non-empty buckets as `[[le, count], …]`.
fn buckets_json(h: &nvc_obs::LatencyHistogram) -> Json {
    Json::Arr(
        h.nonzero_buckets()
            .into_iter()
            .map(|(le, n)| Json::Arr(vec![Json::from(le), Json::from(n)]))
            .collect(),
    )
}

/// The kernel op-timer aggregates as one JSON object: op name →
/// `{calls, total_us}`, only ops that ran (empty when `NVC_OPS` is off —
/// the section is always present so consumers need no feature probe).
fn ops_json() -> Json {
    obj(nvc_obs::ops_snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| {
            (
                s.op.name(),
                obj(vec![
                    ("calls", Json::from(s.calls)),
                    ("total_us", Json::from(s.total_ns as f64 / 1_000.0)),
                ]),
            )
        })
        .collect())
}

/// The encoder's instruments beside the op timers: table rows looked up
/// and table rows multiplied (both zero while `NVC_OPS` is off) — for
/// fast-mode inference the second counts fills of the projected-row
/// memo, so multiplied over looked-up is its miss ratio — and the bytes
/// that memo keeps, process-wide and always on.
fn op_counters_json() -> Json {
    let mut members: Vec<_> = nvc_obs::embed_rows_snapshot()
        .named()
        .into_iter()
        .map(|(name, value)| (name, Json::from(value)))
        .collect();
    members.push(("embed_memo_bytes", Json::from(nvc_obs::embed_memo_bytes())));
    obj(members)
}

/// The daemon loop: one JSON request per input line, one JSON response
/// per output line, until EOF or a `shutdown` request.
///
/// Both exits drain gracefully: [`ServeHandle::shutdown`] lets in-flight
/// batches complete, then one final line
/// `{"final_stats": …}` (the full [`MetricsSnapshot`]/cache surface) is
/// emitted so operators keep the session's counters even when the client
/// just closed stdin (`Ctrl-D`).
pub fn run_daemon<R: BufRead, W: Write>(
    handle: &ServeHandle,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, keep_going) = handle.handle_line(&line);
        writeln!(output, "{response}")?;
        output.flush()?;
        if !keep_going {
            break;
        }
    }
    handle.shutdown();
    writeln!(
        output,
        "{}",
        obj(vec![("final_stats", handle.stats_json())]).render()
    )?;
    output.flush()?;
    Ok(())
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
                        s.starts.first().copied().unwrap_or(0) % dims.1,
                    )
                })
                .collect()
        }
    }

    fn start(cfg: ServeConfig) -> ServeHandle {
        ServeHandle::start(Arc::new(Stub::new()), cfg)
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
        assert_eq!(h.metrics().errors, 1);
    }

    #[test]
    fn daemon_speaks_json_lines() {
        let h = start(ServeConfig::default());
        let src_json = Json::from(SRC).render();
        let input = format!(
            "{{\"op\":\"vectorize\",\"id\":\"r1\",\"source\":{src_json}}}\n\
             {{\"op\":\"stats\"}}\n\
             not json\n\
             {{\"op\":\"shutdown\",\"id\":\"bye\"}}\n\
             {{\"op\":\"stats\"}}\n"
        );
        let mut out = Vec::new();
        run_daemon(&h, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "daemon must stop at shutdown, then emit one final_stats line"
        );

        let r1 = Json::parse(lines[0]).unwrap();
        assert_eq!(r1.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(r1.get("ok").unwrap().as_bool(), Some(true));
        assert!(r1
            .get("source")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("#pragma clang loop"));
        assert_eq!(r1.get("loops").unwrap().as_array().unwrap().len(), 2);

        let stats = Json::parse(lines[1]).unwrap();
        assert_eq!(
            stats
                .get("stats")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );

        let bad = Json::parse(lines[2]).unwrap();
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));

        let bye = Json::parse(lines[3]).unwrap();
        assert_eq!(bye.get("shutdown").unwrap().as_bool(), Some(true));
        assert_eq!(bye.get("id").unwrap().as_str(), Some("bye"));

        // Graceful drain: the last line is the session's final counters.
        let fin = Json::parse(lines[4]).unwrap();
        let stats = fin.get("final_stats").expect("final_stats line");
        assert_eq!(stats.get("requests").unwrap().as_f64(), Some(1.0));
        assert!(stats.get("uptime_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            h.inner.batcher.is_shut_down(),
            "daemon exit must drain the worker pool"
        );
    }

    #[test]
    fn daemon_drains_and_reports_on_eof() {
        // No shutdown request: the client just closes stdin (Ctrl-D).
        let h = start(ServeConfig::default());
        let src_json = Json::from(SRC).render();
        let input = format!("{{\"op\":\"vectorize\",\"source\":{src_json}}}\n");
        let mut out = Vec::new();
        run_daemon(&h, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 2, "response + final_stats");
        let fin = Json::parse(lines[1]).unwrap();
        let stats = fin.get("final_stats").expect("EOF must emit final stats");
        assert_eq!(stats.get("loops_served").unwrap().as_f64(), Some(2.0));
        assert!(
            h.inner.batcher.is_shut_down(),
            "EOF must shut the worker pool down, not just drop it"
        );
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
        assert_eq!(h.metrics().dedup_waits, 1);
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
        assert_eq!(m.entries_restored, snap.len() as u64);
        assert_eq!(m.batches, 0, "restored entries must skip the model");

        h2.record_invalidated_entries(9);
        assert_eq!(h2.metrics().entries_invalidated_by_version, 9);
    }

    #[test]
    fn error_responses_echo_the_request_id() {
        let h = start(ServeConfig::default());
        for bad in [
            r#"{"op":"vectorize","id":"r7"}"#,
            r#"{"op":"explode","id":"r7"}"#,
            r#"{"op":"vectorize","id":"r7","source":"void f( {{{"}"#,
        ] {
            let (resp, keep) = h.handle_line(bad);
            assert!(keep);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(
                v.get("id").unwrap().as_str(),
                Some("r7"),
                "error response dropped the id: {resp}"
            );
        }
        // Unparsable lines genuinely have no id to echo.
        let (resp, _) = h.handle_line("not json");
        assert!(Json::parse(&resp).unwrap().get("id").is_none());
    }

    #[test]
    fn stats_json_has_the_full_surface() {
        let h = start(ServeConfig::default());
        h.vectorize(SRC).unwrap();
        let s = h.stats_json();
        for path in [
            vec!["requests"],
            vec!["uptime_us"],
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
        assert_eq!(batch.get("queue_depth").unwrap().as_f64(), Some(0.0));
        let text = h.render_prometheus("");
        for line in [
            "serve_batch_queue_depth 0",
            "serve_batch_size_bucket{le=\"4\"} 1",
            "serve_batch_size_sum 2",
            "serve_failed_batches_total 0",
        ] {
            assert!(text.contains(line), "exposition lacks `{line}`:\n{text}");
        }
    }

    /// Plain map-backed shared store for exercising the two-level path.
    #[derive(Default)]
    struct MapStore(Mutex<HashMap<(u64, u64), (usize, usize)>>);

    impl SharedDecisionStore for MapStore {
        fn get(&self, ckpt: u64, key: u64) -> Option<(usize, usize)> {
            self.0.lock().get(&(ckpt, key)).copied()
        }

        fn put(&self, ckpt: u64, key: u64, pair: (usize, usize)) {
            self.0.lock().insert((ckpt, key), pair);
        }
    }

    #[test]
    fn shared_store_spans_handles_of_one_checkpoint_only() {
        let store: Arc<MapStore> = Arc::new(MapStore::default());
        let shared = |ckpt: u64| Some((ckpt, Arc::clone(&store) as Arc<dyn SharedDecisionStore>));
        let h1 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(7));
        let out = h1.vectorize(SRC).unwrap();
        assert!(h1.metrics().shared_publishes > 0, "leader must publish");

        // A second handle under the same checkpoint hash serves the
        // whole file from the shared store: zero model forwards, and
        // the decisions are bitwise identical.
        let h2 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(7));
        let again = h2.vectorize(SRC).unwrap();
        assert_eq!(again.source, out.source);
        assert!(again.loops.iter().all(|l| l.cached));
        let m = h2.metrics();
        assert!(m.shared_hits > 0);
        assert_eq!(m.batches, 0, "shared hits must skip the model");

        // A different checkpoint hash must never see those entries.
        let h3 =
            ServeHandle::start_with_store(Arc::new(Stub::new()), ServeConfig::default(), shared(9));
        h3.vectorize(SRC).unwrap();
        let m = h3.metrics();
        assert_eq!(m.shared_hits, 0, "cross-checkpoint leak");
        assert!(m.batches > 0, "other checkpoint must recompute");
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
        assert_eq!(h2.metrics().warmup_replayed, replayed as u64);

        // The replay begins its whole set before it waits: 20 never-seen
        // samples (fewer than a batch) are one forward, not 20. Parked
        // workers first, so none of them catches the set half submitted.
        let burst: Vec<PathSample> = (0..20)
            .map(|i| PathSample {
                starts: vec![1000 + i],
                paths: vec![i],
                ends: vec![i + 1],
            })
            .collect();
        while h2.inner.batcher.idle_workers() < ServeConfig::default().workers {
            std::thread::yield_now();
        }
        let before = h2.metrics();
        assert_eq!(h2.warm_replay(&burst), 20);
        let after = h2.metrics();
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.batched_loops - before.batched_loops, 20);
        assert_eq!(after.warmup_replayed, replayed as u64 + 20);
        // The replayed keys now serve the original file entirely warm.
        let warm = h2.vectorize(SRC).unwrap();
        assert!(warm.loops.iter().all(|l| l.cached));
        assert_eq!(warm.source, out.source);

        // Replay against a drained handle reports zero, not a hang.
        let h3 = start(ServeConfig::default());
        h3.shutdown();
        assert_eq!(h3.warm_replay(&samples), 0);
    }

    #[test]
    fn prometheus_exposition_covers_the_serve_registry() {
        let h = start(ServeConfig::default());
        h.vectorize(SRC).unwrap();
        let text = h.render_prometheus("");
        assert!(text.contains("serve_requests_total 1"));
        assert!(text.contains("serve_request_latency_us_count 1"));
        // The memo gauge needs no `NVC_OPS`.
        assert!(
            text.contains("# TYPE nvc_embed_memo_bytes gauge\nnvc_embed_memo_bytes{kernel_mode=")
        );
        let labeled = h.render_prometheus("model=\"m\"");
        assert!(labeled.contains("serve_requests_total{model=\"m\"} 1"));
        assert!(labeled.contains("nvc_embed_memo_bytes{model=\"m\",kernel_mode="));
    }
}
