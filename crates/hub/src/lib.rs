//! `nvc-hub` — the networked multi-model serving tier.
//!
//! `nvc-serve` made one model fast *inside* one process; a build farm has
//! many processes on many machines, and retraining ships new checkpoints
//! while builds are running. This crate is the layer between the two:
//!
//! * [`server`] — the **TCP front-ends**: one selector thread drives
//!   every connection nonblocking and answers what needs no waiting
//!   itself — `ping`, and a `vectorize` whose every loop hits the cache;
//!   a `vectorize` with misses is completed by the batch worker that ran
//!   its forward, and a few request workers take the verbs that block
//!   (`metrics` / `reload` / `cache_export` / `report` / `shutdown`).
//!   Same JSON-lines protocol as the stdin daemon. Any number of
//!   concurrent build processes share one warm hub; the fleet's
//!   discovery registry (`nvc registry`) is served by the same loop;
//! * [`registry`] — a **model registry**: N named checkpoints, each
//!   behind its own `ServeHandle` (private cache + batcher + workers),
//!   routed by explicit `"model"` field or a deterministic weighted A/B
//!   split, with atomic hot-swap (`reload`) that never drops in-flight
//!   requests;
//! * [`persist`] — a **persistent decision cache**: each model's sharded
//!   LRU cache is serialized on shutdown and restored on start, stamped
//!   with the owning checkpoint's content hash so a changed checkpoint
//!   invalidates stale entries instead of serving wrong decisions.
//!
//! # Wire protocol
//!
//! Everything the stdin daemon accepts, plus:
//!
//! ```text
//! → {"op":"vectorize","id":"r1","source":"…","model":"prod"}      # pin a model
//! → {"op":"vectorize","id":"r2","source":"…","route":"host42"}    # A/B by key
//! ← {"id":"r2","ok":true,"model":"prod","source":"…","loops":[…],"latency_us":412}
//! → {"op":"ping"}                      ← {"ok":true,"pong":true,"uptime_us":…}
//! → {"op":"metrics"}                   ← {"ok":true,"stats":{…,"models":{…}}}
//! → {"op":"reload","model":"prod","checkpoint":"new.ckpt"}
//! ← {"ok":true,"reloaded":"prod","checkpoint_hash":"…"}
//! → {"op":"report","model":"prod","key":"…","reward":0.31}   # measured reward
//! ← {"ok":true,"recorded":true,"reports":…}   # (learning hubs; see `learn`)
//! → {"op":"cache_export"}              ← every model's cache image (gossip)
//! → {"op":"shutdown"}                  ← ack, then the hub drains and persists
//! ```
//!
//! # Fleet integration
//!
//! A hub becomes a fleet node through three optional attachments:
//! a **shared decision store** ([`Hub::with_shared_store`]) layered
//! behind every model's LRU, a **registry announcer**
//! ([`announce::spawn_announcer`]) heartbeating `(model,
//! checkpoint_hash, addr)` to an `nvc registry`, and **warm-join
//! gossip** ([`Hub::warm_from_peers`]) that pulls a peer's cache image
//! over the `cache_export` verb before taking traffic. Every
//! `vectorize` response is stamped with the serving checkpoint's
//! content hash so fleet clients can verify versions end-to-end.

pub mod announce;
mod framing;
pub mod learn;
mod line_server;
pub mod persist;
pub mod registry;
pub mod server;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use nvc_obs::{Counter, Gauge, MetricsRegistry};
use nvc_serve::json::obj;
use nvc_serve::{DecisionModel, Json, LoopReport, ServeConfig};

pub use announce::{spawn_announcer, AnnounceConfig, Announcer};
pub use learn::{
    spawn_learner, welch_z, ChallengerTrainer, Cohort, LearnConfig, LearnEvent, LearnState,
    ReportRecord,
};
pub use persist::CacheSection;
pub use registry::{ModelEntry, ModelRegistry, ModelSpec};
pub use server::{serve_registry, serve_registry_on, HubHandle, RegistryHandle};

/// Tuning knobs for the hub tier (`NvConfig.hub`, `nvc hub` flags).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HubConfig {
    /// Address the TCP listener binds (`host:port`; port 0 lets the OS
    /// pick — tests and benches use this).
    pub listen: String,
    /// Where the decision cache persists across restarts (`None`
    /// disables persistence).
    pub cache_path: Option<String>,
    /// Worker threads executing the protocol requests that may block —
    /// every verb but `ping` and `vectorize`, lines over 16 KiB, and
    /// `vectorize` while a miss queue is full — off the event loop
    /// (clamped to ≥ 1). Responses are written back in per-connection
    /// request order regardless.
    pub request_threads: usize,
    /// Backpressure bound: once a connection's queued unsent output
    /// exceeds this many bytes the loop stops *reading* from it until the
    /// peer drains below half — a slow reader throttles only itself.
    pub max_output_buffer: usize,
    /// Background cache-checkpoint interval in seconds (0 disables).
    /// With persistence configured, the cache image is rewritten every
    /// interval so a crash loses at most one interval of decisions
    /// instead of everything since startup.
    pub cache_checkpoint_secs: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            listen: "127.0.0.1:7199".to_string(),
            cache_path: None,
            request_threads: 4,
            max_output_buffer: 256 * 1024,
            cache_checkpoint_secs: 0,
        }
    }
}

impl HubConfig {
    /// Builder-style listen-address override.
    pub fn with_listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Builder-style cache-path override.
    pub fn with_cache_path(mut self, path: impl Into<String>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Builder-style cache-checkpoint-interval override.
    pub fn with_cache_checkpoint_secs(mut self, secs: u64) -> Self {
        self.cache_checkpoint_secs = secs;
        self
    }
}

/// Hub failures surfaced to clients and operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HubError {
    /// A request named a model the registry does not hold.
    UnknownModel(String),
    /// A model name the snapshot format cannot represent (empty, or
    /// containing whitespace).
    BadModelName(String),
    /// Registering under a name that is already taken.
    DuplicateModel(String),
    /// Routing with an empty registry.
    NoModels,
    /// The hub was built without a checkpoint loader (`reload` needs one).
    NoLoader,
    /// Loading a checkpoint failed (I/O or parse).
    Loader(String),
    /// Filesystem problems while persisting/restoring the cache.
    Io(String),
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownModel(n) => write!(f, "unknown model `{n}`"),
            HubError::BadModelName(n) => {
                write!(f, "bad model name `{n}` (must be non-empty, no whitespace)")
            }
            HubError::DuplicateModel(n) => write!(f, "model `{n}` already registered"),
            HubError::NoModels => write!(f, "no models registered"),
            HubError::NoLoader => write!(f, "hub has no checkpoint loader"),
            HubError::Loader(e) => write!(f, "checkpoint load failed: {e}"),
            HubError::Io(e) => write!(f, "cache persistence: {e}"),
        }
    }
}

impl std::error::Error for HubError {}

/// Loads a checkpoint file into a servable model: returns the model and
/// its content hash. The CLI wires this to `NeuroVectorizer::restore` +
/// `nvc_nn::serialize::checkpoint_hash_text`; tests use stubs. A loader
/// built from an `NvConfig` (`NeuroVectorizer::hub_loader`) re-applies
/// that config's `kernel_mode` on every `reload`, so hot-swapped models
/// keep running the configured kernels.
pub type CheckpointLoader =
    Box<dyn Fn(&str) -> Result<(Arc<dyn DecisionModel>, u64), String> + Send + Sync>;

/// Lines longer than this are not parsed on the selector thread: a
/// request worker takes them, so one huge source costs the other
/// connections nothing.
pub(crate) const INLINE_LINE_MAX: usize = 16 * 1024;

/// How long [`Hub::handle_line`] waits for a batch worker's answer
/// before it reports the model as not answering.
const DECISION_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a line's answer goes once it exists: back to the TCP server's
/// selector, or to the thread blocked in [`Hub::handle_line`].
pub(crate) trait Answer: Send + 'static {
    /// Delivers the response line and whether the connection keeps going
    /// (`false` after `shutdown`).
    fn send(self, response: String, keep_going: bool);
}

impl Answer for std::sync::mpsc::SyncSender<(String, bool)> {
    fn send(self, response: String, keep_going: bool) {
        // One answer into a one-slot channel: never full. A caller that
        // timed out and left is not an error.
        let _ = self.try_send((response, keep_going));
    }
}

fn with_id(id: Option<&str>, mut members: Vec<(&str, Json)>) -> String {
    if let Some(id) = id {
        members.insert(0, ("id", Json::from(id)));
    }
    obj(members).render()
}

fn fail(id: Option<&str>, e: String) -> (String, bool) {
    let members = vec![("ok", Json::from(false)), ("error", Json::from(e))];
    (with_id(id, members), true)
}

/// The hub itself: registry + persistence + protocol handling. The TCP
/// layer ([`server::serve_tcp`]) and tests drive it through
/// [`Hub::handle_line`].
pub struct Hub {
    registry: ModelRegistry,
    cfg: HubConfig,
    loader: Option<CheckpointLoader>,
    started: Instant,
    /// Hub-level instruments (`hub_*` names) live here; each model's
    /// `serve_*` instruments live in its own handle's registry.
    obs: Arc<MetricsRegistry>,
    /// Protocol requests handled (all verbs, all connections).
    requests: Arc<Counter>,
    /// Lines the TCP server's selector thread answered itself: `ping`,
    /// all-hit `vectorize`, and anything refused before it reached a
    /// model.
    lines_on_selector: Arc<Counter>,
    /// `vectorize` lines with misses, begun on the selector and
    /// completed by the batch worker that ran their forward.
    lines_by_batch_worker: Arc<Counter>,
    /// Lines handed to a request worker: a verb that may block, a line
    /// over [`INLINE_LINE_MAX`], a full miss queue.
    lines_to_request_worker: Arc<Counter>,
    /// Models with misses queued and not yet woken: the selector begins
    /// every line of a wake-up before [`Hub::wake_batchers`] lets the
    /// batch workers at them, so lines that arrived together ride one
    /// forward.
    owed_wakes: parking_lot::Mutex<Vec<Arc<ModelEntry>>>,
    /// Connections accepted since start (maintained by the TCP layer).
    pub(crate) connections: Arc<Counter>,
    /// Connections currently open (maintained by the TCP layer).
    pub(crate) active_connections: Arc<Gauge>,
    /// Background cache checkpoints written (the periodic persister).
    pub(crate) cache_checkpoints: Arc<Counter>,
    /// Successful warm-join transfers pulled from peers.
    transfers: Arc<Counter>,
    /// Cache entries absorbed across all warm-join transfers.
    transfer_entries: Arc<Counter>,
    /// The fleet's content-addressed shared store, when attached.
    shared: Option<Arc<nvc_fleet::ContentStore>>,
    /// The online-learning loop's state, when enabled
    /// ([`Hub::with_learning`]).
    learn: Option<Arc<learn::LearnState>>,
    /// Serializes snapshot writes: the periodic checkpointer, `reload`'s
    /// pre-swap persist, and shutdown's final persist all target the
    /// same temp path.
    persist_lock: parking_lot::Mutex<()>,
    /// Set once shutdown begins; the TCP layer polls it.
    shutting_down: AtomicBool,
    /// Guards the persist-and-drain sequence (runs exactly once).
    drained: AtomicBool,
}

impl Hub {
    /// An empty hub; register models with [`Hub::register`].
    pub fn new(cfg: HubConfig, serve_cfg: ServeConfig) -> Self {
        nvc_obs::init_from_env();
        let obs = Arc::new(MetricsRegistry::default());
        Hub {
            registry: ModelRegistry::new(serve_cfg),
            cfg,
            loader: None,
            started: Instant::now(),
            requests: obs.counter("hub_requests_total"),
            lines_on_selector: obs.counter("hub_lines_answered_on_selector_total"),
            lines_by_batch_worker: obs.counter("hub_lines_completed_by_batch_worker_total"),
            lines_to_request_worker: obs.counter("hub_lines_handed_to_request_worker_total"),
            owed_wakes: parking_lot::Mutex::new(Vec::new()),
            connections: obs.counter("hub_connections_total"),
            active_connections: obs.gauge("hub_active_connections"),
            cache_checkpoints: obs.counter("hub_cache_checkpoints_total"),
            transfers: obs.counter("hub_transfers_total"),
            transfer_entries: obs.counter("hub_transfer_entries_total"),
            shared: None,
            learn: None,
            persist_lock: parking_lot::Mutex::new(()),
            obs,
            shutting_down: AtomicBool::new(false),
            drained: AtomicBool::new(false),
        }
    }

    /// Attaches the checkpoint loader the `reload` verb uses.
    pub fn with_loader(mut self, loader: CheckpointLoader) -> Self {
        self.loader = Some(loader);
        self
    }

    /// Attaches the fleet's content-addressed shared decision store.
    /// Every model registered *afterwards* probes it on LRU miss and
    /// publishes every computed decision to it; warm-join transfers
    /// absorb peer entries into it. Attach before registering models.
    pub fn with_shared_store(mut self, store: Arc<nvc_fleet::ContentStore>) -> Self {
        self.registry
            .set_shared_store(Arc::clone(&store) as Arc<dyn nvc_serve::SharedDecisionStore>);
        self.shared = Some(store);
        self
    }

    /// The attached shared decision store, if any.
    pub fn shared_store(&self) -> Option<&Arc<nvc_fleet::ContentStore>> {
        self.shared.as_ref()
    }

    /// Enables online learning: opens the corpus journal (append mode —
    /// existing reports replay into memory), the promotion log, and the
    /// `report` verb, and arms [`Hub::learn_step`] /
    /// [`learn::spawn_learner`].
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when a journal cannot be opened or the existing
    /// corpus is corrupt.
    pub fn with_learning(
        mut self,
        cfg: learn::LearnConfig,
        trainer: learn::ChallengerTrainer,
    ) -> Result<Self, HubError> {
        let state = learn::LearnState::new(cfg, trainer, &self.obs)?;
        self.learn = Some(Arc::new(state));
        Ok(self)
    }

    /// The online-learning state, when enabled.
    pub fn learning(&self) -> Option<&Arc<learn::LearnState>> {
        self.learn.as_ref()
    }

    /// The hub's configuration.
    pub fn config(&self) -> &HubConfig {
        &self.cfg
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Registers a model (see [`ModelRegistry::register`]).
    ///
    /// # Errors
    ///
    /// [`HubError::DuplicateModel`] when the name is taken.
    pub fn register(&self, spec: ModelSpec) -> Result<(), HubError> {
        self.registry.register(spec)
    }

    /// True once shutdown has begun (the TCP layer polls this).
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Restores each model's decision cache from the configured
    /// `cache_path`, version-checked: a section whose checkpoint hash
    /// matches the registered model of the same name is restored
    /// (counted in that model's `entries_restored`); a mismatched or
    /// orphaned section is discarded (counted in
    /// `entries_invalidated_by_version` when the model exists).
    /// A missing file is a cold start, not an error.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] on unreadable or corrupt snapshot files.
    pub fn restore_cache(&self) -> Result<(), HubError> {
        let Some(path) = self.cfg.cache_path.as_deref() else {
            return Ok(());
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(HubError::Io(format!("read {path}: {e}"))),
        };
        let sections = persist::parse(&text).map_err(|e| HubError::Io(e.to_string()))?;
        for section in sections {
            let Some(entry) = self.registry.get(&section.model) else {
                continue; // model no longer configured; silently dropped
            };
            if entry.checkpoint_hash == section.checkpoint_hash {
                entry.handle.restore_cache(section.entries);
            } else {
                entry
                    .handle
                    .record_invalidated_entries(section.entries.len() as u64);
            }
        }
        Ok(())
    }

    /// Writes every model's cache image to the configured `cache_path`
    /// (no-op when persistence is disabled). Written via a temp file +
    /// rename so a crash mid-write never leaves a truncated snapshot.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when writing fails.
    pub fn persist_cache(&self) -> Result<(), HubError> {
        let Some(path) = self.cfg.cache_path.as_deref() else {
            return Ok(());
        };
        // The periodic checkpointer, reload's pre-swap persist, and the
        // shutdown persist share one temp path; serialize them.
        let _persisting = self.persist_lock.lock();
        let sections: Vec<CacheSection> = self
            .registry
            .entries()
            .iter()
            .map(|e| CacheSection {
                model: e.name.clone(),
                checkpoint_hash: e.checkpoint_hash,
                entries: e.handle.cache_snapshot(),
            })
            .collect();
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, persist::to_string(&sections))
            .map_err(|e| HubError::Io(format!("write {tmp}: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| HubError::Io(format!("rename {tmp}: {e}")))
    }

    /// Initiates shutdown: marks the hub as draining, drains every
    /// model's worker pool (in-flight batches complete), then persists
    /// the cache. Idempotent; safe from any thread — including the
    /// server's selector thread after a `shutdown` verb.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        if self.drained.swap(true, Ordering::AcqRel) {
            return;
        }
        self.registry.shutdown_all();
        if let Err(e) = self.persist_cache() {
            eprintln!("nvc hub: cache persistence failed: {e}");
        }
        nvc_obs::flush_trace();
    }

    /// Crash simulation for resilience tests: flags shutdown so every
    /// loop exits, but *skips* the final cache persist — whatever the
    /// periodic checkpointer last wrote is all that survives, exactly
    /// like a process kill. Worker pools still drain on drop.
    pub fn abort(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.drained.store(true, Ordering::Release);
    }

    /// Routing key for a request: the explicit `"route"` field when
    /// present (stable client identity), else the source text — so one
    /// file keeps hitting the model whose cache holds its loops.
    fn routing_key(route: Option<&str>, source: &str) -> u64 {
        let mut h = nvc_embed::Fnv1a::new();
        h.write(route.unwrap_or(source).as_bytes());
        h.finish()
    }

    /// The hub-wide introspection surface: uptime, totals, and one
    /// stats object per model (each carrying its own request count and
    /// cache-persistence counters).
    pub fn stats_json(&self) -> Json {
        let models: Vec<(String, Json)> = self
            .registry
            .entries()
            .iter()
            .map(|e| {
                let Json::Obj(mut members) = e.handle.stats_json() else {
                    unreachable!("stats_json renders an object");
                };
                members.insert(
                    0,
                    (
                        "in_flight".to_string(),
                        Json::from(e.in_flight.get().max(0) as u64),
                    ),
                );
                members.insert(0, ("weight".to_string(), Json::from(u64::from(e.weight))));
                members.insert(
                    0,
                    (
                        "checkpoint_hash".to_string(),
                        Json::from(format!("{:016x}", e.checkpoint_hash)),
                    ),
                );
                (e.name.clone(), Json::Obj(members))
            })
            .collect();
        obj(vec![
            (
                "uptime_us",
                Json::from(self.started.elapsed().as_micros() as u64),
            ),
            (
                "kernel_mode",
                Json::from(nvc_nn::kernels::kernel_mode().name()),
            ),
            ("requests", Json::from(self.requests.get())),
            (
                "lines",
                obj(vec![
                    (
                        "answered_on_selector",
                        Json::from(self.lines_on_selector.get()),
                    ),
                    (
                        "completed_by_batch_worker",
                        Json::from(self.lines_by_batch_worker.get()),
                    ),
                    (
                        "handed_to_request_worker",
                        Json::from(self.lines_to_request_worker.get()),
                    ),
                ]),
            ),
            ("connections", Json::from(self.connections.get())),
            (
                "active_connections",
                Json::from(self.active_connections.get().max(0) as u64),
            ),
            (
                "cache_checkpoints",
                Json::from(self.cache_checkpoints.get()),
            ),
            ("transfers", Json::from(self.transfers.get())),
            ("transfer_entries", Json::from(self.transfer_entries.get())),
            (
                "shared_store",
                match &self.shared {
                    Some(store) => {
                        let s = store.stats();
                        obj(vec![
                            ("entries", Json::from(s.entries as u64)),
                            ("hits", Json::from(s.hits)),
                            ("misses", Json::from(s.misses)),
                            ("publishes", Json::from(s.publishes)),
                            ("evictions", Json::from(s.evictions)),
                            ("transfers_in", Json::from(s.transfers_in)),
                        ])
                    }
                    None => Json::Null,
                },
            ),
            (
                "learning",
                match &self.learn {
                    Some(ls) => obj(vec![
                        ("reports", Json::from(ls.reports.get())),
                        ("report_errors", Json::from(ls.report_errors.get())),
                        ("corpus", Json::from(ls.corpus_len() as u64)),
                        ("trains", Json::from(ls.trains.get())),
                        ("promotions", Json::from(ls.promotions.get())),
                        ("demotions", Json::from(ls.demotions.get())),
                        ("rollbacks", Json::from(ls.rollbacks.get())),
                    ]),
                    None => Json::Null,
                },
            ),
            ("models", Json::Obj(models)),
        ])
    }

    /// Prometheus text exposition, one document: hub-level instruments
    /// unlabeled and each model's serve instruments labeled
    /// `model="name"`, rendered per metric family (the models share
    /// instrument names, and a family takes one `TYPE` line with all its
    /// samples after it), then the process-wide kernel instruments once,
    /// with no `model` label to double-count them over.
    pub fn render_prometheus(&self) -> String {
        let hub = self.obs.snapshot();
        let entries = self.registry.entries();
        let models: Vec<(String, nvc_obs::RegistrySnapshot)> = entries
            .iter()
            .map(|e| (format!("model=\"{}\"", e.name), e.handle.metrics_snapshot()))
            .collect();
        let sets: Vec<(&str, &nvc_obs::RegistrySnapshot)> = std::iter::once(("", &hub))
            .chain(models.iter().map(|(labels, snap)| (labels.as_str(), snap)))
            .collect();
        let mut out = nvc_obs::RegistrySnapshot::render_prometheus(&sets);
        out.push_str(&nvc_serve::service::render_ops_prometheus(""));
        out
    }

    /// Handles one protocol line; returns the response line and whether
    /// the connection should keep reading (`false` after `shutdown`).
    /// The blocking wrapper over [`Hub::begin`]: begin with leave to
    /// block, then wait for the answer — which is already there unless
    /// the line was a `vectorize` with misses.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.requests.inc();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        if self.begin(line, true, tx).is_err() {
            unreachable!("a caller that may block is never handed its line back");
        }
        rx.recv_timeout(DECISION_TIMEOUT).unwrap_or_else(|_| {
            // The model has stopped answering. Parsed again, for the id,
            // only here.
            let v = Json::parse(line).ok();
            let id = v.as_ref().and_then(|v| v.get("id")).and_then(Json::as_str);
            fail(id, "decision timed out".to_string())
        })
    }

    /// The one request path: begins a protocol line and sends its answer
    /// to `to` — before returning, except for a `vectorize` with misses,
    /// which the batch worker that ran its forward answers (`Ok(true)`).
    ///
    /// With `may_block` unset this runs on the TCP server's selector
    /// thread and never waits for anything: what could (every verb but
    /// `ping` and `vectorize`, or a `vectorize` routed to a full miss
    /// queue) comes back untouched as `Err(to)`, for a request worker's
    /// [`Hub::handle_line`]; queued misses wait for
    /// [`Hub::wake_batchers`]. With it set, every verb runs here and now.
    pub(crate) fn begin<A: Answer>(&self, line: &str, may_block: bool, to: A) -> Result<bool, A> {
        // One trace id per protocol line, whoever the caller is (the TCP
        // server, tests, in-process embedding). The scope ends with this
        // call; an answer that comes later closes the `hub_request` span
        // under the id it captured here.
        let _trace = nvc_obs::request_scope();
        let span = nvc_obs::tracing_enabled().then(|| (Instant::now(), nvc_obs::current_trace()));
        let answer = move |to: A, (response, keep_going): (String, bool)| {
            if let Some((t0, trace)) = span {
                nvc_obs::record_span("hub_request", trace, t0, t0.elapsed());
            }
            to.send(response, keep_going);
        };
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                answer(to, fail(None, format!("invalid JSON: {e}")));
                return Ok(false);
            }
        };
        let id = v.get("id").and_then(Json::as_str);
        let op = v.get("op").and_then(Json::as_str);
        match op {
            Some("ping") => {
                let pong = vec![
                    ("ok", Json::from(true)),
                    ("pong", Json::from(true)),
                    (
                        "uptime_us",
                        Json::from(self.started.elapsed().as_micros() as u64),
                    ),
                ];
                answer(to, (with_id(id, pong), true));
                Ok(false)
            }
            Some("vectorize") | None => {
                let Some(source) = v.get("source").and_then(Json::as_str) else {
                    answer(to, fail(id, "missing `source` field".into()));
                    return Ok(false);
                };
                let explicit = v.get("model").and_then(Json::as_str);
                let route = v.get("route").and_then(Json::as_str);
                let entry = match self
                    .registry
                    .route(explicit, Self::routing_key(route, source))
                {
                    Ok(e) => e,
                    Err(e) => {
                        answer(to, fail(id, e.to_string()));
                        return Ok(false);
                    }
                };
                if may_block {
                    entry.handle.wait_for_space();
                } else if entry.handle.queue_is_full() {
                    return Err(to);
                }
                // Guard-decremented so the gauge stays correct on every
                // way out of the request, a dropped completion included.
                struct InFlight(Arc<Gauge>);
                impl Drop for InFlight {
                    fn drop(&mut self) {
                        self.0.dec();
                    }
                }
                entry.in_flight.inc();
                let in_flight = InFlight(Arc::clone(&entry.in_flight));
                // The completion may run on this entry's own batch
                // worker, so it owns copies of what it renders and no
                // `Arc<ModelEntry>`: dropping the last reference to a
                // reloaded-away entry there would have its worker pool
                // join itself.
                let (id, model) = (id.map(str::to_string), entry.name.clone());
                let hash = entry.checkpoint_hash;
                let queued = entry.handle.begin_vectorize(source, move |outcome| {
                    let id = id.as_deref();
                    let response = match outcome {
                        Ok(out) => (
                            with_id(
                                id,
                                vec![
                                    ("ok", Json::from(true)),
                                    ("model", Json::from(model)),
                                    // Version stamp: fleet clients verify
                                    // this against the registry's ad, which
                                    // is what makes wrong-version decisions
                                    // impossible to accept.
                                    ("checkpoint_hash", Json::from(format!("{hash:016x}"))),
                                    ("source", Json::from(out.source)),
                                    (
                                        "loops",
                                        Json::Arr(
                                            out.loops.iter().map(LoopReport::to_json).collect(),
                                        ),
                                    ),
                                    ("latency_us", Json::from(out.latency_us)),
                                ],
                            ),
                            true,
                        ),
                        Err(e) => fail(id, e.to_string()),
                    };
                    drop(in_flight);
                    answer(to, response);
                });
                if queued && may_block {
                    entry.handle.wake();
                } else if queued {
                    let mut owed = self.owed_wakes.lock();
                    if !owed.iter().any(|e| Arc::ptr_eq(e, &entry)) {
                        owed.push(entry);
                    }
                }
                Ok(queued)
            }
            _ if !may_block => Err(to),
            _ => {
                answer(to, self.blocking_verb(&v, id, op));
                Ok(false)
            }
        }
    }

    /// The selector has begun every line of one wake-up: wakes the batch
    /// workers of every model those lines queued misses on.
    pub(crate) fn wake_batchers(&self) {
        let owed = std::mem::take(&mut *self.owed_wakes.lock());
        for entry in owed {
            entry.handle.wake();
        }
    }

    /// Every verb that may block (a file write, a checkpoint load, a
    /// model forward, a walk over every cache) or is simply not worth the
    /// selector's time. Only ever runs where blocking is allowed.
    fn blocking_verb(&self, v: &Json, id: Option<&str>, op: Option<&str>) -> (String, bool) {
        match op {
            Some("metrics") | Some("stats") => (
                with_id(
                    id,
                    vec![("ok", Json::from(true)), ("stats", self.stats_json())],
                ),
                true,
            ),
            Some("shutdown") => {
                // Only *flag* shutdown here: the server flushes this
                // ack first and then runs the full drain
                // (`Hub::shutdown`), so the requesting client gets its
                // response before models drain and the cache persists.
                self.shutting_down.store(true, Ordering::Release);
                (
                    with_id(
                        id,
                        vec![("ok", Json::from(true)), ("shutdown", Json::from(true))],
                    ),
                    false,
                )
            }
            Some("cache_export") => {
                // Gossip transfer: ship every model's cache image (plus
                // the shared store's per-checkpoint entries) so a
                // joining peer starts warm. Content-addressed by
                // checkpoint hash, so the receiver can verify validity
                // per section.
                let sections: Vec<Json> = self
                    .registry
                    .entries()
                    .iter()
                    .map(|e| {
                        let mut entries = e.handle.cache_snapshot();
                        if let Some(store) = &self.shared {
                            // The shared store may hold entries the LRU
                            // evicted (or absorbed from elsewhere);
                            // export the union, deduplicated by key.
                            let mut seen: std::collections::HashSet<u64> =
                                entries.iter().map(|(k, _)| *k).collect();
                            for (k, pair) in store.entries_for(e.checkpoint_hash) {
                                if seen.insert(k) {
                                    entries.push((k, pair));
                                }
                            }
                        }
                        obj(vec![
                            ("model", Json::from(e.name.as_str())),
                            (
                                "checkpoint_hash",
                                Json::from(format!("{:016x}", e.checkpoint_hash)),
                            ),
                            (
                                "entries",
                                Json::Arr(
                                    entries
                                        .iter()
                                        .map(|(k, (vf, ifac))| {
                                            Json::Arr(vec![
                                                Json::from(format!("{k:016x}")),
                                                Json::from(*vf as u64),
                                                Json::from(*ifac as u64),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                (
                    with_id(
                        id,
                        vec![("ok", Json::from(true)), ("sections", Json::Arr(sections))],
                    ),
                    true,
                )
            }
            Some("report") => {
                // Online-learning feedback: a client echoes the `key`
                // from a vectorize response together with the reward it
                // measured for that decision. See `learn` module docs.
                let Some(ls) = &self.learn else {
                    return fail(id, "learning is not enabled on this hub".into());
                };
                let refuse = |e: String| {
                    ls.report_errors.inc();
                    fail(id, e)
                };
                let Some(model) = v.get("model").and_then(Json::as_str) else {
                    return refuse("report requires a `model` field".into());
                };
                let Some(key) = v
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                else {
                    return refuse("report requires a hex `key` field".into());
                };
                let Some(reward) = v
                    .get("reward")
                    .and_then(Json::as_f64)
                    .filter(|r| r.is_finite())
                else {
                    return refuse("report requires a finite numeric `reward`".into());
                };
                let Some(entry) = self.registry.get(model) else {
                    return refuse(HubError::UnknownModel(model.to_string()).to_string());
                };
                // Resolve the key to the decided sample: warm set first,
                // then re-extraction from a client-provided `source`
                // (the warm set is bounded, so old keys age out of it).
                let sample = entry.handle.lookup_sample(key).or_else(|| {
                    let src = v.get("source").and_then(Json::as_str)?;
                    let embed = entry.handle.embed_config();
                    nvc_embed::extract_loop_samples(src, &embed)
                        .ok()?
                        .into_iter()
                        .map(|site| site.sample)
                        .find(|s| nvc_serve::sample_key(s) == key)
                });
                let Some(sample) = sample else {
                    return refuse(format!(
                        "unknown report key {key:016x} (include `source` to re-correlate)"
                    ));
                };
                // The decision the reward belongs to: cache probe, then
                // the deterministic decide path recomputes it.
                let decision = entry
                    .handle
                    .lookup_decision(key)
                    .or_else(|| entry.handle.decide_sample(&sample).ok().map(|(p, _)| p));
                let Some((vf_idx, if_idx)) = decision else {
                    return refuse(format!("no decision available for key {key:016x}"));
                };
                ls.record(learn::ReportRecord {
                    model: entry.name.clone(),
                    checkpoint_hash: entry.checkpoint_hash,
                    key,
                    vf_idx,
                    if_idx,
                    reward,
                    sample,
                });
                (
                    with_id(
                        id,
                        vec![
                            ("ok", Json::from(true)),
                            ("recorded", Json::from(true)),
                            ("reports", Json::from(ls.reports.get())),
                        ],
                    ),
                    true,
                )
            }
            Some("reload") => {
                let Some(name) = v.get("model").and_then(Json::as_str) else {
                    return fail(id, "reload requires a `model` field".into());
                };
                let Some(path) = v.get("checkpoint").and_then(Json::as_str) else {
                    return fail(id, "reload requires a `checkpoint` field".into());
                };
                // Outside input: a cast would park the model on `-1`,
                // truncate `2.7` and saturate `1e99`.
                let in_range =
                    |n: &f64| n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(n);
                let weight = match v.get("weight") {
                    None => None,
                    Some(w) => match w.as_f64().filter(in_range) {
                        Some(n) => Some(n as u32),
                        None => {
                            let got = w.render();
                            return fail(id, format!("reload `weight` must be a u32, got {got}"));
                        }
                    },
                };
                match self.reload(name, path, weight) {
                    Ok(hash) => (
                        with_id(
                            id,
                            vec![
                                ("ok", Json::from(true)),
                                ("reloaded", Json::from(name)),
                                ("checkpoint_hash", Json::from(format!("{hash:016x}"))),
                            ],
                        ),
                        true,
                    ),
                    Err(e) => fail(id, e.to_string()),
                }
            }
            Some(other) => fail(id, format!("unknown op `{other}`")),
            None => unreachable!("a line without an op is a vectorize"),
        }
    }

    /// Hot-swaps `name` to the checkpoint at `path` via the loader.
    /// Returns the new checkpoint hash. The replaced entry keeps serving
    /// its in-flight requests and is drained when the last one finishes.
    ///
    /// # Errors
    ///
    /// [`HubError::NoLoader`] without a loader, [`HubError::Loader`] on
    /// load failure, [`HubError::UnknownModel`] for an unknown name.
    pub fn reload(&self, name: &str, path: &str, weight: Option<u32>) -> Result<u64, HubError> {
        let loader = self.loader.as_ref().ok_or(HubError::NoLoader)?;
        let old = self
            .registry
            .get(name)
            .ok_or_else(|| HubError::UnknownModel(name.to_string()))?;
        let (model, hash) = loader(path).map_err(HubError::Loader)?;
        // Snapshot *before* the swap: the outgoing model's decisions are
        // about to leave the registry, and "persist only on clean
        // shutdown" would lose them entirely if the process dies while
        // the new checkpoint serves. Best-effort — a full disk must not
        // block the reload itself.
        if let Err(e) = self.persist_cache() {
            eprintln!("nvc hub: pre-reload cache persistence failed: {e}");
        }
        let displaced = self.registry.reload(ModelSpec {
            name: name.to_string(),
            weight: weight.unwrap_or(old.weight),
            checkpoint_hash: hash,
            model,
        })?;
        // Warm the fresh checkpoint in the background: replay the keys
        // the displaced handle saw as shadow traffic, so the first real
        // requests hit a heated cache instead of a cold model. The
        // replay thread owns the displaced Arc; its pool drains when the
        // replay (and any in-flight requests) finish with it.
        if let Some(new_entry) = self.registry.get(name) {
            let samples = displaced.handle.warm_samples();
            if !samples.is_empty() {
                let spawned = std::thread::Builder::new()
                    .name("nvc-hub-warmup".to_string())
                    .spawn(move || {
                        let _displaced = displaced;
                        new_entry.handle.warm_replay(&samples);
                    });
                if let Err(e) = spawned {
                    eprintln!("nvc hub: warmup thread failed to start: {e}");
                }
            }
        }
        Ok(hash)
    }

    /// Warm-join gossip: pulls `cache_export` from the first reachable
    /// peer and absorbs it — sections whose checkpoint hash matches a
    /// registered model seed that model's LRU, and *every* section
    /// lands in the shared store (content addressing makes entries from
    /// any checkpoint safe to hold). Returns how many entries were
    /// absorbed.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when no peer could be reached or answered a
    /// usable export.
    pub fn warm_from_peers(&self, peers: &[String]) -> Result<usize, HubError> {
        use nvc_fleet::client::{round_trip, PEER_LIMITS};
        let mut last_err = String::from("no peers given");
        for peer in peers {
            let attempt = (|| -> Result<usize, String> {
                let v = round_trip(&mut None, peer, r#"{"op":"cache_export"}"#, &PEER_LIMITS)?;
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err("peer rejected cache_export".to_string());
                }
                let mut absorbed = 0usize;
                for section in v.get("sections").and_then(Json::as_array).unwrap_or(&[]) {
                    let Some(hash) = section
                        .get("checkpoint_hash")
                        .and_then(Json::as_str)
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                    else {
                        continue;
                    };
                    let mut entries: Vec<(u64, (usize, usize))> = Vec::new();
                    for e in section
                        .get("entries")
                        .and_then(Json::as_array)
                        .unwrap_or(&[])
                    {
                        let Some(items) = e.as_array() else { continue };
                        let (Some(key), Some(vf), Some(ifac)) = (
                            items
                                .first()
                                .and_then(Json::as_str)
                                .and_then(|s| u64::from_str_radix(s, 16).ok()),
                            items.get(1).and_then(Json::as_f64),
                            items.get(2).and_then(Json::as_f64),
                        ) else {
                            continue;
                        };
                        entries.push((key, (vf as usize, ifac as usize)));
                    }
                    if entries.is_empty() {
                        continue;
                    }
                    // Hash-matching model: seed its private LRU directly.
                    let model = section.get("model").and_then(Json::as_str).unwrap_or("");
                    let mut taken = 0usize;
                    if let Some(entry) = self.registry.get(model) {
                        if entry.checkpoint_hash == hash {
                            taken = entry.handle.restore_cache(entries.iter().copied());
                        }
                    }
                    // Shared store: always valid under content addressing.
                    if let Some(store) = &self.shared {
                        taken = taken.max(store.absorb(hash, entries.iter().copied()));
                    }
                    absorbed += taken;
                }
                Ok(absorbed)
            })();
            match attempt {
                Ok(n) => {
                    self.transfers.inc();
                    self.transfer_entries.add(n as u64);
                    return Ok(n);
                }
                Err(e) => last_err = format!("{peer}: {e}"),
            }
        }
        Err(HubError::Io(format!("warm-join failed: {last_err}")))
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nvc_embed::{EmbedConfig, PathSample};
    use nvc_machine::TargetConfig;

    /// Deterministic stub model: decisions are a function of the sample
    /// and a per-model tag, so two stubs with different tags are
    /// distinguishable (stand-ins for different checkpoints).
    pub(crate) struct StubModel {
        embed: EmbedConfig,
        target: TargetConfig,
        tag: usize,
    }

    impl StubModel {
        pub(crate) fn new(tag: usize) -> Self {
            StubModel {
                embed: EmbedConfig::fast(),
                target: TargetConfig::i7_8559u(),
                tag,
            }
        }
    }

    impl DecisionModel for StubModel {
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
                .map(|s| ((s.len() + self.tag) % dims.0, self.tag % dims.1))
                .collect()
        }
    }

    pub(crate) fn stub_spec(name: &str, weight: u32, tag: usize) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            weight,
            checkpoint_hash: tag as u64,
            model: Arc::new(StubModel::new(tag)),
        }
    }

    pub(crate) const SRC: &str = "float a[512]; float b[512];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
}";

    fn hub_with(models: &[(&str, u32, usize)]) -> Hub {
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1));
        for &(name, weight, tag) in models {
            hub.register(stub_spec(name, weight, tag)).unwrap();
        }
        hub
    }

    #[test]
    fn ping_metrics_and_unknown_op() {
        let hub = hub_with(&[("m", 1, 0)]);
        let (resp, keep) = hub.handle_line(r#"{"op":"ping","id":"p"}"#);
        assert!(keep);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("id").unwrap().as_str(), Some("p"));
        assert!(v.get("uptime_us").unwrap().as_f64().is_some());

        let (resp, _) = hub.handle_line(r#"{"op":"metrics"}"#);
        let v = Json::parse(&resp).unwrap();
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("requests").unwrap().as_f64(), Some(2.0));
        let m = stats.get("models").unwrap().get("m").unwrap();
        assert_eq!(m.get("weight").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            m.get("checkpoint_hash").unwrap().as_str(),
            Some("0000000000000000")
        );
        assert!(m.get("cache").unwrap().get("entries_restored").is_some());
        // Observability satellite: connection gauge + per-model in-flight.
        assert_eq!(stats.get("active_connections").unwrap().as_f64(), Some(0.0));
        assert_eq!(m.get("in_flight").unwrap().as_f64(), Some(0.0));
        // Which path answered a line (all zero here: nothing came over
        // TCP), and each model's batch formation, under the same names in
        // the Prometheus text.
        let lines = stats.get("lines").unwrap();
        for path in [
            "answered_on_selector",
            "completed_by_batch_worker",
            "handed_to_request_worker",
        ] {
            assert_eq!(lines.get(path).unwrap().as_f64(), Some(0.0), "{path}");
        }
        let batch = m.get("batch").unwrap();
        assert_eq!(batch.get("queue_depth").unwrap().as_f64(), Some(0.0));
        assert!(batch.get("size_histogram").unwrap().as_array().is_some());
        // The projected-row memo's size is always reported, per model.
        let counters = m.get("op_counters").unwrap();
        assert!(counters.get("embed_memo_bytes").unwrap().as_f64().is_some());
        let text = hub.render_prometheus();
        for name in [
            "hub_lines_answered_on_selector_total 0",
            "hub_lines_completed_by_batch_worker_total 0",
            "hub_lines_handed_to_request_worker_total 0",
            "serve_batch_queue_depth{model=\"m\"} 0",
            "serve_batch_size_count{model=\"m\"} 0",
            "nvc_embed_memo_bytes{kernel_mode=",
        ] {
            assert!(text.contains(name), "exposition lacks `{name}`:\n{text}");
        }

        let (resp, keep) = hub.handle_line(r#"{"op":"explode","id":"x"}"#);
        assert!(keep);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("id").unwrap().as_str(), Some("x"));
    }

    /// With two models the exposition is still one valid document: every
    /// family declared once with all its samples right after, and the
    /// process-wide instruments there once, not once per model.
    #[test]
    fn two_model_exposition_declares_each_family_once() {
        let hub = hub_with(&[("a", 1, 0), ("b", 1, 3)]);
        let text = hub.render_prometheus();
        let mut declared = std::collections::HashSet::new();
        let mut family = "";
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                family = decl.split(' ').next().unwrap();
                assert!(declared.insert(family), "second `{line}`:\n{text}");
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let member = name
                .strip_prefix(family)
                .is_some_and(|suffix| matches!(suffix, "" | "_bucket" | "_sum" | "_count"));
            assert!(
                member,
                "`{line}` is not under its family's TYPE line:\n{text}"
            );
        }
        for per_model in ["serve_requests_total", "serve_batch_queue_depth"] {
            for model in ["a", "b"] {
                let sample = format!("{per_model}{{model=\"{model}\"}} ");
                assert!(
                    text.contains(&sample),
                    "exposition lacks `{sample}`:\n{text}"
                );
            }
        }
        let memo: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("nvc_embed_memo_bytes"))
            .collect();
        assert_eq!(memo.len(), 1, "{memo:?}");
        assert!(memo[0].starts_with("nvc_embed_memo_bytes{kernel_mode="));
    }

    #[test]
    fn vectorize_routes_and_reports_model() {
        let hub = hub_with(&[("a", 1, 0), ("b", 0, 3)]);
        let req = obj(vec![
            ("op", Json::from("vectorize")),
            ("source", Json::from(SRC)),
            ("model", Json::from("b")),
        ])
        .render();
        let (resp, _) = hub.handle_line(&req);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(v.get("model").unwrap().as_str(), Some("b"));
        assert_eq!(v.get("loops").unwrap().as_array().unwrap().len(), 1);

        // Weight 0 means b never takes un-pinned traffic.
        let unpinned = obj(vec![("source", Json::from(SRC))]).render();
        let (resp, _) = hub.handle_line(&unpinned);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("a"));

        let bad = obj(vec![
            ("source", Json::from(SRC)),
            ("model", Json::from("ghost")),
        ])
        .render();
        let (resp, _) = hub.handle_line(&bad);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn route_field_pins_the_split_deterministically() {
        let hub = hub_with(&[("a", 1, 0), ("b", 1, 3)]);
        let req = |route: &str| {
            obj(vec![
                ("source", Json::from(SRC)),
                ("route", Json::from(route)),
            ])
            .render()
        };
        // The same route key always lands on the same model…
        let first = Json::parse(&hub.handle_line(&req("client-1")).0)
            .unwrap()
            .get("model")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        for _ in 0..5 {
            let again = hub.handle_line(&req("client-1")).0;
            assert_eq!(
                Json::parse(&again).unwrap().get("model").unwrap().as_str(),
                Some(first.as_str())
            );
        }
        // …and different keys spread across both models.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let resp = hub.handle_line(&req(&format!("client-{i}"))).0;
            seen.insert(
                Json::parse(&resp)
                    .unwrap()
                    .get("model")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(seen.len(), 2, "1:1 split must reach both models");
    }

    #[test]
    fn shutdown_verb_acks_then_flags_shutdown() {
        let hub = hub_with(&[("m", 1, 0)]);
        let (resp, keep) = hub.handle_line(r#"{"op":"shutdown","id":"bye"}"#);
        assert!(!keep);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        // handle_line only flags; the caller (the TCP server, a daemon
        // loop) runs the drain after writing the ack.
        assert!(hub.is_shutting_down());
        hub.shutdown();
    }

    #[test]
    fn reload_without_loader_is_an_error() {
        let hub = hub_with(&[("m", 1, 0)]);
        let (resp, _) = hub.handle_line(r#"{"op":"reload","model":"m","checkpoint":"x.ckpt"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("loader"));
    }

    #[test]
    fn reload_swaps_model_and_flushes_nothing_else() {
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1))
            .with_loader(Box::new(|path| {
                let tag: usize = path.parse().map_err(|_| format!("bad path {path}"))?;
                Ok((
                    Arc::new(StubModel::new(tag)) as Arc<dyn DecisionModel>,
                    tag as u64,
                ))
            }));
        hub.register(stub_spec("m", 2, 0)).unwrap();
        let vec_req = obj(vec![("source", Json::from(SRC))]).render();
        let before = Json::parse(&hub.handle_line(&vec_req).0).unwrap();

        let (resp, _) = hub.handle_line(r#"{"op":"reload","model":"m","checkpoint":"3"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(v.get("reloaded").unwrap().as_str(), Some("m"));
        let entry = hub.registry().get("m").unwrap();
        assert_eq!(entry.checkpoint_hash, 3);
        assert_eq!(entry.weight, 2, "reload keeps the old weight by default");

        // The new model really answers (tag 3 shifts the decision).
        let after = Json::parse(&hub.handle_line(&vec_req).0).unwrap();
        let vf = |v: &Json| {
            v.get("loops").unwrap().as_array().unwrap()[0]
                .get("vf")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_ne!(vf(&before), vf(&after), "reload must change decisions");

        // A weight that is not a non-negative integer a u32 holds is
        // refused by name, and the registry keeps model and weight.
        for bad in ["-1", "2.7", "1e99", "\"3\""] {
            let line = format!(r#"{{"op":"reload","model":"m","checkpoint":"4","weight":{bad}}}"#);
            let v = Json::parse(&hub.handle_line(&line).0).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            let error = v.get("error").unwrap().as_str().unwrap();
            assert!(error.contains("`weight`"), "{bad}: {error}");
            let entry = hub.registry().get("m").unwrap();
            assert_eq!((entry.checkpoint_hash, entry.weight), (3, 2), "{bad}");
        }

        let ok = hub.handle_line(r#"{"op":"reload","model":"m","checkpoint":"3","weight":7}"#);
        assert!(ok.0.contains(r#""ok":true"#), "{}", ok.0);
        assert_eq!(hub.registry().get("m").unwrap().weight, 7);

        // Unknown model still errors.
        let (resp, _) = hub.handle_line(r#"{"op":"reload","model":"nope","checkpoint":"3"}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("ok").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn persist_restore_roundtrip_with_version_check() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let cfg = HubConfig::default().with_cache_path(path.clone());

        // Warm a hub, shut it down: the cache lands on disk.
        let hub = Hub::new(cfg.clone(), ServeConfig::default().with_workers(1));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        let vec_req = obj(vec![("source", Json::from(SRC))]).render();
        let first = Json::parse(&hub.handle_line(&vec_req).0).unwrap();
        hub.shutdown();
        drop(hub);

        // Same checkpoint: entries restore and serve as hits.
        let hub2 = Hub::new(cfg.clone(), ServeConfig::default().with_workers(1));
        hub2.register(stub_spec("m", 1, 0)).unwrap();
        hub2.restore_cache().unwrap();
        let again = Json::parse(&hub2.handle_line(&vec_req).0).unwrap();
        assert_eq!(
            again.get("source").unwrap().as_str(),
            first.get("source").unwrap().as_str()
        );
        let loops = again.get("loops").unwrap().as_array().unwrap();
        assert_eq!(
            loops[0].get("cached").unwrap().as_bool(),
            Some(true),
            "restored entry must serve as a hit"
        );
        let m = hub2.registry().get("m").unwrap().handle.metrics();
        assert!(m.entries_restored > 0);
        assert_eq!(m.entries_invalidated_by_version, 0);
        drop(hub2);

        // Different checkpoint (tag 1 → different hash): entries are
        // invalidated, the request recomputes.
        let hub3 = Hub::new(cfg, ServeConfig::default().with_workers(1));
        hub3.register(stub_spec("m", 1, 1)).unwrap();
        hub3.restore_cache().unwrap();
        let recomputed = Json::parse(&hub3.handle_line(&vec_req).0).unwrap();
        let loops = recomputed.get("loops").unwrap().as_array().unwrap();
        assert_eq!(
            loops[0].get("cached").unwrap().as_bool(),
            Some(false),
            "stale snapshot must not serve"
        );
        let m = hub3.registry().get("m").unwrap().handle.metrics();
        assert_eq!(m.entries_restored, 0);
        assert!(m.entries_invalidated_by_version > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_cache_file_is_a_cold_start() {
        let cfg = HubConfig::default().with_cache_path("/nonexistent/dir/cache.nvc");
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        assert!(hub.restore_cache().is_ok());
    }

    fn cached_flags(v: &Json) -> Vec<bool> {
        v.get("loops")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|l| l.get("cached").unwrap().as_bool().unwrap())
            .collect()
    }

    #[test]
    fn shared_store_spans_ab_sides_of_one_checkpoint() {
        // Two registry entries serving the *same* checkpoint (an A/B
        // split over one model, e.g. to compare serve configs) share
        // every decision through the content store; a third entry on a
        // different checkpoint shares nothing.
        let store = Arc::new(nvc_fleet::ContentStore::default());
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1))
            .with_shared_store(Arc::clone(&store));
        hub.register(stub_spec("a", 1, 5)).unwrap();
        hub.register(stub_spec("b", 1, 5)).unwrap(); // same hash as a
        hub.register(stub_spec("c", 1, 9)).unwrap(); // different hash
        let req = |model: &str| {
            obj(vec![
                ("source", Json::from(SRC)),
                ("model", Json::from(model)),
            ])
            .render()
        };
        let first = Json::parse(&hub.handle_line(&req("a")).0).unwrap();
        assert_eq!(cached_flags(&first), vec![false]);
        assert_eq!(
            first.get("checkpoint_hash").unwrap().as_str(),
            Some("0000000000000005"),
            "vectorize responses carry the version stamp"
        );

        // Same checkpoint, different entry: served from the shared
        // store without touching b's model, bitwise-equal output.
        let via_b = Json::parse(&hub.handle_line(&req("b")).0).unwrap();
        assert_eq!(cached_flags(&via_b), vec![true]);
        assert_eq!(
            via_b.get("source").unwrap().as_str(),
            first.get("source").unwrap().as_str()
        );

        // Different checkpoint: must compute its own decision.
        let via_c = Json::parse(&hub.handle_line(&req("c")).0).unwrap();
        assert_eq!(cached_flags(&via_c), vec![false]);
        assert!(store.stats().hits > 0);
    }

    #[test]
    fn reload_persists_the_outgoing_cache_and_warms_the_incoming_model() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let hub = Hub::new(
            HubConfig::default().with_cache_path(path.clone()),
            ServeConfig::default().with_workers(1),
        )
        .with_loader(Box::new(|path| {
            let tag: usize = path.parse().map_err(|_| format!("bad path {path}"))?;
            Ok((
                Arc::new(StubModel::new(tag)) as Arc<dyn DecisionModel>,
                tag as u64,
            ))
        }));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        let vec_req = obj(vec![("source", Json::from(SRC))]).render();
        hub.handle_line(&vec_req);

        let (resp, _) = hub.handle_line(r#"{"op":"reload","model":"m","checkpoint":"3"}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("ok").unwrap().as_bool(),
            Some(true),
            "{resp}"
        );

        // Satellite: the snapshot on disk was written *before* the swap
        // — it still carries the displaced checkpoint's section, with
        // entries, even though no shutdown has happened.
        let text = std::fs::read_to_string(&path).expect("pre-reload snapshot must exist");
        let sections = persist::parse(&text).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].checkpoint_hash, 0, "old checkpoint persisted");
        assert!(!sections[0].entries.is_empty());

        // Satellite: the displaced handle's warm keys replay against
        // the new checkpoint in the background.
        let entry = hub.registry().get("m").unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while entry.handle.metrics().warmup_replayed == 0 {
            assert!(Instant::now() < deadline, "warmup never replayed");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // The replayed key now serves as a hit under the *new* model.
        let after = Json::parse(&hub.handle_line(&vec_req).0).unwrap();
        assert_eq!(cached_flags(&after), vec![true]);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_skips_the_final_persist() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-abort-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let hub = Hub::new(
            HubConfig::default().with_cache_path(path.clone()),
            ServeConfig::default().with_workers(1),
        );
        hub.register(stub_spec("m", 1, 0)).unwrap();
        hub.handle_line(&obj(vec![("source", Json::from(SRC))]).render());
        hub.abort();
        drop(hub); // Drop::shutdown must respect the abort
        assert!(
            !std::path::Path::new(&path).exists(),
            "abort must not persist the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
