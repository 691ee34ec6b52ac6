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
//!   Any number of concurrent build processes share one warm hub; the
//!   fleet's discovery registry (`nvc registry`) is served by the same
//!   loop;
//! * `stdio` — the same protocol over stdin/stdout, one line at a time
//!   through [`Hub::handle_line`]: `nvc serve` is a one-model hub on it;
//! * `registry` — a **model registry**: N named checkpoints, each
//!   behind its own `ServeHandle` (batcher + workers) over the hub's one
//!   decision store, routed by explicit `"model"` field or a
//!   deterministic weighted A/B split, with atomic hot-swap (`reload`)
//!   that never drops in-flight requests;
//! * [`persist`] — the **decision-store image**: each model's entries in
//!   the store, stamped with the owning checkpoint's content hash so a
//!   changed checkpoint never serves them. It is the cache file written on
//!   shutdown and read on start, and the `cache_export` answer a joining
//!   peer reads; `Hub::absorb` admits it either way.
//!
//! # Wire protocol
//!
//! The stack's one JSON-lines protocol: one object per line each way, on
//! TCP ([`server`]) or stdin/stdout (`stdio`). `op` defaults to
//! `vectorize` when omitted; a string `id` is echoed on every answer,
//! errors (`{"ok":false,"error":…}`) included.
//!
//! ```text
//! → {"id":"r0","source":"…"}                                      # op omitted
//! → {"op":"vectorize","id":"r1","source":"…","model":"prod"}      # pin a model
//! → {"op":"vectorize","id":"r2","source":"…","route":"host42"}    # A/B by key
//! ← {"id":"r2","ok":true,"model":"prod","checkpoint_hash":"…","source":"…",
//!    "loops":[{"function":"f","line":1,"vf":8,"if":2,"cached":false,"key":"…"}],
//!    "latency_us":412}
//! → {"op":"ping"}                      ← {"ok":true,"pong":true,"uptime_us":…}
//! → {"op":"metrics"} (or "stats")      ← {"ok":true,"stats":{…,"models":{…}}}
//! → {"op":"reload","model":"prod","checkpoint":"new.ckpt"}
//! ← {"ok":true,"reloaded":"prod","checkpoint_hash":"…"}
//! → {"op":"report","model":"prod","key":"…","reward":0.31}   # measured reward
//! ← {"ok":true,"recorded":true,"reports":…}   # (learning hubs; see `learn`)
//! → {"op":"cache_export"}              ← {"ok":true,"snapshot":"nvc-hub-cache v1\n…"}
//! → {"op":"shutdown"}                  ← ack, then the hub drains and persists
//! ```
//!
//! `nvc serve`'s hub has no checkpoint loader, no learning and no cache
//! file, so there `reload` and `report` answer errors.
//!
//! # Fleet integration
//!
//! Every hub holds its decisions once, in one content-addressed
//! [`nvc_fleet::ContentStore`] keyed by `(checkpoint_hash, sample_key)`,
//! so they are valid on any node serving that checkpoint. A hub becomes
//! a fleet node through two optional attachments: a **registry
//! announcer** ([`announce::spawn_announcer`]) heartbeating `(model,
//! checkpoint_hash, addr)` to an `nvc registry`, and **warm-join
//! gossip** ([`Hub::warm_from_peers`]) that pulls a peer's store image —
//! the [`persist`] text of its cache file — over the `cache_export` verb
//! before taking traffic. Every
//! `vectorize` response is stamped with the serving checkpoint's
//! content hash so fleet clients can verify versions end-to-end.

// The `LineService` impls forward to same-named inherent methods; if one of
// those stops being visible here, the call resolves to the trait method
// itself and recurses until the stack overflows.
#![deny(unconditional_recursion)]

pub(crate) mod announce;
mod framing;
pub mod learn;
mod line_server;
pub mod persist;
pub(crate) mod registry;
pub mod server;
pub(crate) mod stdio;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use nvc_obs::json::{fail, obj, with_id, Json, ObjectWriter};
use nvc_obs::{Counter, Gauge};
use nvc_serve::{ContentStore, DecisionModel, ServeConfig, VectorizeOutput};

pub use announce::{spawn_announcer, AnnounceConfig, Announcer};
pub use learn::{spawn_learner, ChallengerTrainer, LearnConfig, LearnEvent, ReportRecord};
pub(crate) use persist::CacheSection;
pub use registry::{ModelEntry, ModelRegistry, ModelSpec};
pub use server::{serve_registry, HubHandle};
pub use stdio::serve_stdio;

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
    /// A model name that is not one plain token (empty, or containing
    /// whitespace, `"` or `\`).
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
    /// Online learning was asked for with settings it refuses.
    Learn(learn::LearnConfigError),
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownModel(n) => write!(f, "unknown model `{n}`"),
            HubError::BadModelName(n) => {
                write!(
                    f,
                    "bad model name `{n}` (must be non-empty, no whitespace, `\"` or `\\`)"
                )
            }
            HubError::DuplicateModel(n) => write!(f, "model `{n}` already registered"),
            HubError::NoModels => write!(f, "no models registered"),
            HubError::NoLoader => write!(f, "hub has no checkpoint loader"),
            HubError::Loader(e) => write!(f, "checkpoint load failed: {e}"),
            HubError::Io(e) => write!(f, "cache persistence: {e}"),
            HubError::Learn(e) => write!(f, "online learning: {e}"),
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

/// A `vectorize` answer, written member by member into one buffer sized
/// for it: `{"id"?,"ok","model","checkpoint_hash","source","loops",
/// "latency_us"}`, each loop `{"function","line","vf","if","cached",
/// "key"}`. The checkpoint hash is the version stamp fleet clients verify
/// against the registry's ad, which is what makes wrong-version decisions
/// impossible to accept.
fn vectorize_reply(id: Option<&str>, model: &str, hash: u64, out: &VectorizeOutput) -> String {
    // Escaping grows C source by its newlines, about one byte in thirty;
    // a loop's member takes under 128 bytes besides its function's name.
    let loops: usize = out.loops.iter().map(|l| 128 + l.function.len()).sum();
    let size = out.source.len() * 17 / 16 + loops + 128 + id.map_or(0, str::len) + model.len();
    let mut line = String::with_capacity(size);
    let mut reply = ObjectWriter::new(&mut line);
    if let Some(id) = id {
        reply.str("id", id);
    }
    reply
        .bool("ok", true)
        .str("model", model)
        .hex("checkpoint_hash", hash)
        .str("source", &out.source);
    let loops = reply.key("loops");
    loops.push('[');
    for (i, l) in out.loops.iter().enumerate() {
        if i > 0 {
            loops.push(',');
        }
        let mut object = ObjectWriter::new(loops);
        object
            .str("function", &l.function)
            .num("line", f64::from(l.line))
            .num("vf", f64::from(l.vf))
            .num("if", f64::from(l.if_))
            .bool("cached", l.cached)
            .hex("key", l.key);
        object.end();
    }
    loops.push(']');
    reply.num("latency_us", out.latency_us as f64);
    reply.end();
    line
}

/// The hub itself: registry + persistence + protocol handling. The TCP
/// layer ([`server::serve_tcp`]) and tests drive it through
/// [`Hub::handle_line`].
pub struct Hub {
    registry: ModelRegistry,
    cfg: HubConfig,
    loader: Option<CheckpointLoader>,
    started: Instant,
    /// Protocol requests handled (all verbs, all connections).
    requests: Counter,
    /// Lines the TCP server's selector thread answered itself: `ping`,
    /// all-hit `vectorize`, and anything refused before it reached a
    /// model.
    lines_on_selector: Counter,
    /// `vectorize` lines with misses, begun on the selector and
    /// completed by the batch worker that ran their forward.
    lines_by_batch_worker: Counter,
    /// Lines handed to a request worker: a verb that may block, a line
    /// over [`INLINE_LINE_MAX`], a full miss queue.
    lines_to_request_worker: Counter,
    /// Models with misses queued and not yet woken: the selector begins
    /// every line of a wake-up before [`Hub::wake_batchers`] lets the
    /// batch workers at them, so lines that arrived together ride one
    /// forward.
    owed_wakes: parking_lot::Mutex<Vec<Arc<ModelEntry>>>,
    /// Connections accepted since start (maintained by the TCP layer).
    pub(crate) connections: Counter,
    /// Connections currently open (maintained by the TCP layer).
    pub(crate) active_connections: Gauge,
    /// Background cache checkpoints written (the periodic persister).
    pub(crate) cache_checkpoints: Counter,
    /// Successful warm-join transfers pulled from peers.
    transfers: Counter,
    /// Cache entries absorbed across all warm-join transfers.
    transfer_entries: Counter,
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
    /// An empty hub; register models with [`Hub::register`]. Its one
    /// decision store holds `serve_cfg.cache_capacity` entries over
    /// `serve_cfg.cache_shards` shards, for all models together.
    pub fn new(cfg: HubConfig, serve_cfg: ServeConfig) -> Self {
        nvc_obs::init_from_env();
        let store = ContentStore::new(serve_cfg.cache_capacity, serve_cfg.cache_shards);
        Hub {
            registry: ModelRegistry::new(serve_cfg, Arc::new(store)),
            cfg,
            loader: None,
            started: Instant::now(),
            requests: Counter::default(),
            lines_on_selector: Counter::default(),
            lines_by_batch_worker: Counter::default(),
            lines_to_request_worker: Counter::default(),
            owed_wakes: parking_lot::Mutex::new(Vec::new()),
            connections: Counter::default(),
            active_connections: Gauge::default(),
            cache_checkpoints: Counter::default(),
            transfers: Counter::default(),
            transfer_entries: Counter::default(),
            learn: None,
            persist_lock: parking_lot::Mutex::new(()),
            shutting_down: AtomicBool::new(false),
            drained: AtomicBool::new(false),
        }
    }

    /// Attaches the checkpoint loader the `reload` verb uses.
    pub fn with_loader(mut self, loader: CheckpointLoader) -> Self {
        self.loader = Some(loader);
        self
    }

    /// Serves every model from `store` instead of the one [`Hub::new`]
    /// sized from its `ServeConfig` — to size it apart, or to share one
    /// store between hubs in a process. A builder step: it panics once a
    /// model is registered, since that model's handle already holds the
    /// old store.
    pub fn with_shared_store(mut self, store: Arc<ContentStore>) -> Self {
        assert!(
            self.registry.is_empty(),
            "Hub::with_shared_store must come before the first register"
        );
        self.registry = ModelRegistry::new(self.registry.serve_cfg.clone(), store);
        self
    }

    /// Enables online learning: opens the corpus journal (append mode —
    /// existing reports replay into memory), the promotion log, and the
    /// `report` verb, and arms [`Hub::learn_step`] /
    /// [`learn::spawn_learner`].
    ///
    /// # Errors
    ///
    /// [`HubError::Learn`] when `cfg` could promote a loser or never decide;
    /// [`HubError::Io`] when a journal cannot be opened or the existing
    /// corpus is corrupt.
    pub fn with_learning(
        mut self,
        cfg: learn::LearnConfig,
        trainer: learn::ChallengerTrainer,
    ) -> Result<Self, HubError> {
        cfg.validate().map_err(HubError::Learn)?;
        let state = learn::LearnState::new(cfg, trainer)?;
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

    /// Registers a model (see `ModelRegistry::register`).
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

    /// Restores the decision store from the configured `cache_path`
    /// through `Hub::absorb`. A missing file is a cold start, not an
    /// error.
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
        self.absorb(sections);
        Ok(())
    }

    /// The one admission rule for decisions from outside the process — a
    /// snapshot file ([`Hub::restore_cache`]) or a peer's export
    /// ([`Hub::warm_from_peers`]). A section is admitted only when its
    /// every index lies in every registered model's action space, since
    /// any of them may reload to its checkpoint; otherwise it is
    /// discarded whole. An admitted section whose name and checkpoint hash
    /// are a registered model's is restored through that model (its
    /// `entries_restored` and `insertions` count it); any other goes into
    /// the store under its own hash, where a hot-swap back to that
    /// checkpoint finds it. A section named after a registered model and
    /// not restored through it counts in that model's
    /// `entries_invalidated_by_version`. Returns how many entries the
    /// store grew by.
    pub(crate) fn absorb(&self, sections: Vec<CacheSection>) -> usize {
        let models = self.registry.entries();
        // The action space every registered model shares.
        let (vfs, ifs) = models.iter().fold((usize::MAX, usize::MAX), |(v, i), m| {
            let space = m.handle.space();
            (v.min(space.vfs.len()), i.min(space.ifs.len()))
        });
        let mut absorbed = 0;
        for section in sections {
            let mut indexes = section.entries.iter().map(|&(_, pair)| pair);
            let admitted = indexes.all(|(vf, if_)| vf < vfs && if_ < ifs);
            let named = models.iter().find(|m| m.name == section.model);
            match named {
                Some(m) if admitted && m.checkpoint_hash == section.checkpoint_hash => {
                    absorbed += m.handle.restore_cache(section.entries);
                }
                _ => {
                    if let Some(m) = named {
                        m.handle
                            .record_invalidated_entries(section.entries.len() as u64);
                    }
                    if admitted {
                        let store = self.registry.store();
                        absorbed += store.absorb(section.checkpoint_hash, section.entries);
                    }
                }
            }
        }
        absorbed
    }

    /// The decision-store image: one section per registered model, its
    /// entries in the store under its checkpoint hash, coldest first.
    /// Rendered by [`persist::to_string`], it is both what `cache_path`
    /// holds and what `cache_export` answers.
    pub(crate) fn cache_image(&self) -> Vec<CacheSection> {
        self.registry
            .entries()
            .iter()
            .map(|e| CacheSection {
                model: e.name.clone(),
                checkpoint_hash: e.checkpoint_hash,
                entries: e.handle.cache_snapshot(),
            })
            .collect()
    }

    /// Writes the cache image to the configured `cache_path`
    /// (no-op when persistence is disabled). Written via a temp file +
    /// rename so a crash mid-write never leaves a truncated snapshot.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when writing fails.
    pub(crate) fn persist_cache(&self) -> Result<(), HubError> {
        let Some(path) = self.cfg.cache_path.as_deref() else {
            return Ok(());
        };
        // The periodic checkpointer, reload's pre-swap persist, and the
        // shutdown persist share one temp path; serialize them.
        let _persisting = self.persist_lock.lock();
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, persist::to_string(&self.cache_image()))
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
    pub(crate) fn abort(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.drained.store(true, Ordering::Release);
    }

    /// Routing key for a request: the explicit `"route"` field when
    /// present (stable client identity), else the source text — so one
    /// file keeps hitting the model whose cache holds its loops.
    fn routing_key(route: Option<&str>, source: &str) -> u64 {
        let mut h = nvc_obs::Fnv1a::new();
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
            ("kernel_isa", Json::from(nvc_nn::kernels::kernel_isa())),
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
            ("shared_store", {
                let s = self.registry.store().stats();
                obj(vec![
                    ("entries", Json::from(s.len())),
                    ("hits", Json::from(s.hits)),
                    ("misses", Json::from(s.misses)),
                    ("insertions", Json::from(s.insertions)),
                    ("evictions", Json::from(s.evictions)),
                ])
            }),
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

    /// Handles one protocol line; returns the response line and whether
    /// the connection should keep reading (`false` after `shutdown`).
    /// The blocking wrapper over `Hub::begin`: begin with leave to
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
                    .route(explicit, || Self::routing_key(route, source))
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
                        Ok(out) => (vectorize_reply(id, &model, hash, &out), true),
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
                // Gossip transfer: the cache image, as the cache file
                // holds it, so a joining peer starts warm.
                let snapshot = persist::to_string(&self.cache_image());
                (
                    with_id(
                        id,
                        vec![("ok", Json::from(true)), ("snapshot", Json::from(snapshot))],
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
    /// peer and absorbs its snapshot through `Hub::absorb`, as
    /// [`Hub::restore_cache`] absorbs the cache file. A peer that answers
    /// no snapshot, or one [`persist::parse`] refuses, counts as
    /// unreachable and the next is tried. Returns how many entries the
    /// store grew by.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when no peer could be reached or answered a
    /// usable export.
    pub fn warm_from_peers(&self, peers: &[String]) -> Result<usize, HubError> {
        use nvc_fleet::client::{round_trip, PEER_LIMITS};
        let mut last_err = String::from("no peers given");
        for peer in peers {
            let image = round_trip(&mut None, peer, r#"{"op":"cache_export"}"#, &PEER_LIMITS)
                .and_then(|v| {
                    let snapshot = v.get("snapshot").and_then(Json::as_str);
                    let snapshot = snapshot.ok_or("no snapshot in the cache_export answer")?;
                    persist::parse(snapshot).map_err(|e| e.to_string())
                });
            match image {
                Ok(sections) => {
                    let n = self.absorb(sections);
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

    /// The tree a `vectorize` answer was rendered from before the hub
    /// wrote it member by member: `with_id`'s members, each loop as
    /// `LoopReport::to_json` built it.
    fn reply_tree(id: Option<&str>, model: &str, hash: u64, out: &VectorizeOutput) -> Json {
        let loop_json = |l: &nvc_serve::LoopReport| {
            obj(vec![
                ("function", Json::from(l.function.as_str())),
                ("line", Json::from(u64::from(l.line))),
                ("vf", Json::from(l.vf)),
                ("if", Json::from(l.if_)),
                ("cached", Json::from(l.cached)),
                ("key", Json::from(format!("{:016x}", l.key))),
            ])
        };
        let mut members = vec![
            ("ok", Json::from(true)),
            ("model", Json::from(model)),
            ("checkpoint_hash", Json::from(format!("{hash:016x}"))),
            ("source", Json::from(out.source.as_str())),
            (
                "loops",
                Json::Arr(out.loops.iter().map(loop_json).collect()),
            ),
            ("latency_us", Json::from(out.latency_us)),
        ];
        if let Some(id) = id {
            members.insert(0, ("id", Json::from(id)));
        }
        obj(members)
    }

    /// Up to `max` characters drawn from what JSON escapes and what it
    /// copies: control characters, `"`, `\`, multibyte UTF-8 and ASCII.
    fn arbitrary_text(rng: &mut proptest::TestRng, max: u64) -> String {
        let len = rng.next_u64() % (max + 1);
        (0..len)
            .map(|_| {
                let r = rng.next_u64();
                match r % 5 {
                    0 => char::from_u32((r >> 8) as u32 % 0x20).unwrap(),
                    1 => ['"', '\\', '/', '\u{7f}'][(r >> 8) as usize % 4],
                    2 => ['é', '€', '😀', '\u{2028}', '\u{10ffff}'][(r >> 8) as usize % 5],
                    _ => char::from(b' ' + (r >> 8) as u8 % 95),
                }
            })
            .collect()
    }

    #[test]
    fn vectorize_reply_writes_the_expected_line() {
        let out = VectorizeOutput {
            source: "for (;;) {\n\ta[i] = \"x\";\n}".to_string(),
            loops: vec![nvc_serve::LoopReport {
                function: "f".into(),
                line: 3,
                vf: 8,
                if_: 2,
                cached: true,
                key: 0xDEAD_BEEF,
            }],
            latency_us: 41,
        };
        assert_eq!(
            vectorize_reply(Some("r-1"), "prod", 0xABC, &out),
            r#"{"id":"r-1","ok":true,"model":"prod","checkpoint_hash":"0000000000000abc","source":"for (;;) {\n\ta[i] = \"x\";\n}","loops":[{"function":"f","line":3,"vf":8,"if":2,"cached":true,"key":"00000000deadbeef"}],"latency_us":41}"#
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Whatever the id, model name, source, functions and numbers,
        /// the written answer parses to the tree it used to be rendered
        /// from.
        #[test]
        fn vectorize_reply_parses_to_the_old_tree(seed in 0u64..u64::MAX, loops in 0usize..4) {
            let mut rng = proptest::TestRng::for_test(&seed.to_string());
            let id = arbitrary_text(&mut rng, 12);
            let id = (seed % 3 != 0).then_some(id.as_str());
            let model = arbitrary_text(&mut rng, 12);
            let out = VectorizeOutput {
                source: arbitrary_text(&mut rng, 200),
                loops: (0..loops)
                    .map(|_| nvc_serve::LoopReport {
                        function: arbitrary_text(&mut rng, 12),
                        line: rng.next_u64() as u32,
                        vf: 1 << (rng.next_u64() % 7),
                        if_: 1 << (rng.next_u64() % 5),
                        cached: rng.next_u64().is_multiple_of(2),
                        key: rng.next_u64(),
                    })
                    .collect(),
                latency_us: rng.next_u64() >> 20,
            };
            let hash = rng.next_u64();
            let line = vectorize_reply(id, &model, hash, &out);
            proptest::prop_assert_eq!(Json::parse(&line), Ok(reply_tree(id, &model, hash, &out)));
        }
    }

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
        // TCP), and each model's batch formation.
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

        let (resp, keep) = hub.handle_line(r#"{"op":"explode","id":"x"}"#);
        assert!(keep);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("id").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn error_responses_echo_the_request_id() {
        let hub = hub_with(&[("m", 1, 0)]);
        for (bad, why) in [
            (r#"{"op":"vectorize","id":"r7"}"#, "missing `source`"),
            (r#"{"id":"r7"}"#, "missing `source`"),
            (r#"{"op":"explode","id":"r7"}"#, "unknown op"),
            (
                r#"{"op":"vectorize","id":"r7","source":"void f( {{{"}"#,
                "frontend",
            ),
        ] {
            let (resp, keep) = hub.handle_line(bad);
            assert!(keep);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            let error = v.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(why), "{bad}: {error}");
            assert_eq!(
                v.get("id").unwrap().as_str(),
                Some("r7"),
                "error response dropped the id: {resp}"
            );
        }
        // An omitted `op` is a vectorize, with or without an id.
        for (line, id) in [
            (r#"{"id":"a","source":"int x;"}"#, Some("a")),
            (r#"{"source":"int x;"}"#, None),
        ] {
            let v = Json::parse(&hub.handle_line(line).0).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
            assert_eq!(v.get("loops").unwrap().as_array().map(<[_]>::len), Some(0));
            assert_eq!(v.get("id").and_then(Json::as_str), id);
        }
        // Unparsable lines genuinely have no id to echo.
        let (resp, _) = hub.handle_line("not json");
        assert!(Json::parse(&resp).unwrap().get("id").is_none());
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
        let (restored, invalidated) = persisted_counts(&hub2, "m");
        assert!(restored > 0);
        assert_eq!(invalidated, 0);
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
        let (restored, invalidated) = persisted_counts(&hub3, "m");
        assert_eq!(restored, 0);
        assert!(invalidated > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Model `name`'s `(entries_restored, entries_invalidated_by_version)`.
    fn persisted_counts(hub: &Hub, name: &str) -> (u64, u64) {
        let m = hub.registry().get(name).unwrap();
        let m = m.handle.metrics();
        (
            m.entries_restored.get(),
            m.entries_invalidated_by_version.get(),
        )
    }

    /// The sample key of `SRC`'s one loop under model `m` (tag 0).
    fn src_key() -> u64 {
        let hub = hub_with(&[("m", 1, 0)]);
        hub.handle_line(&obj(vec![("source", Json::from(SRC))]).render());
        let snapshot = hub.registry().get("m").unwrap().handle.cache_snapshot();
        snapshot[0].0
    }

    #[test]
    fn snapshot_index_outside_the_action_space_is_discarded_whole() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-oob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let section = CacheSection {
            model: "m".into(),
            checkpoint_hash: 0,
            entries: vec![(src_key(), (99, 0))],
        };
        std::fs::write(&path, persist::to_string(&[section])).unwrap();

        let cfg = HubConfig::default().with_cache_path(path);
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        hub.restore_cache().unwrap();
        let req = obj(vec![("source", Json::from(SRC))]).render();
        let v = Json::parse(&hub.handle_line(&req).0).unwrap();
        assert_eq!(cached_flags(&v), [false]);
        assert_eq!(persisted_counts(&hub, "m"), (0, 1));
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer on a loopback port that answers each connection's one
    /// request with the next of `exports`, each `{"ok":true,"snapshot":…}`.
    fn fake_peer(exports: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            for snapshot in exports {
                let (mut stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(&stream).read_line(&mut line).unwrap();
                assert!(line.contains("cache_export"), "{line}");
                let export = obj(vec![
                    ("ok", Json::from(true)),
                    ("snapshot", Json::from(snapshot)),
                ]);
                stream
                    .write_all(format!("{}\n", export.render()).as_bytes())
                    .unwrap();
            }
        });
        (peer, fake)
    }

    #[test]
    fn warm_join_discards_sections_with_indexes_outside_the_action_space() {
        let key = format!("{:016x}", src_key());
        let section =
            |model: &str, hash: &str, vf: &str| format!("model {model} {hash} 1\n{key} {vf} 0\n");
        let snapshot = |sections: &[String]| format!("nvc-hub-cache v1\n{}", sections.concat());
        // Not non-negative integers: the whole export is refused, and the
        // join fails with nothing absorbed or counted.
        let mut exports: Vec<String> = ["-1", "2.7", "1e99"]
            .iter()
            .map(|vf| snapshot(&[section("other", "0000000000000005", vf)]))
            .collect();
        // Too big, under the model's name and straight into the store.
        exports.push(snapshot(&[
            section("m", "0000000000000000", "99"),
            section("other", "0000000000000005", "99"),
        ]));
        exports.push(snapshot(&[section("m", "0000000000000000", "1")]));
        let (peer, fake) = fake_peer(exports);

        let hub = hub_with(&[("m", 1, 0)]);
        for _ in 0..3 {
            assert!(hub.warm_from_peers(std::slice::from_ref(&peer)).is_err());
        }
        assert_eq!(persisted_counts(&hub, "m"), (0, 0));
        assert_eq!(hub.warm_from_peers(std::slice::from_ref(&peer)).unwrap(), 0);
        assert_eq!(hub.warm_from_peers(&[peer]).unwrap(), 1);
        fake.join().unwrap();
        assert_eq!(hub.registry().store().len(), 1, "only the sane section");
        assert_eq!(persisted_counts(&hub, "m"), (1, 1));
        let req = obj(vec![("source", Json::from(SRC))]).render();
        let v = Json::parse(&hub.handle_line(&req).0).unwrap();
        assert_eq!(cached_flags(&v), [true]);
    }

    /// Decides every loop at VF index 7: the widest of a target with
    /// twice the paper's `max_vf`, one past the end of [`StubModel`]'s
    /// action space.
    struct WideModel(StubModel);

    impl DecisionModel for WideModel {
        fn embed_config(&self) -> &EmbedConfig {
            &self.0.embed
        }

        fn target(&self) -> &TargetConfig {
            &self.0.target
        }

        fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
            vec![(7, 0); samples.len()]
        }
    }

    /// The cache file and the `cache_export` answer are one image, and
    /// restoring it from disk and warm-joining it from the peer leave
    /// equal stores and equal counts: one section at the joiners' own
    /// checkpoint, one at a checkpoint their model of that name has left,
    /// and one with an index outside their action space.
    #[test]
    fn the_cache_file_and_the_export_are_one_image() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-image-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let a = Hub::new(
            HubConfig::default()
                .with_listen("127.0.0.1:0")
                .with_cache_path(path.clone()),
            ServeConfig::default().with_workers(1),
        );
        a.register(stub_spec("m", 1, 0)).unwrap();
        a.register(stub_spec("old", 1, 5)).unwrap();
        let wide = TargetConfig {
            max_vf: 128,
            ..TargetConfig::i7_8559u()
        };
        a.register(ModelSpec {
            name: "wide".to_string(),
            weight: 1,
            checkpoint_hash: 9,
            model: Arc::new(WideModel(StubModel {
                target: wide,
                ..StubModel::new(9)
            })),
        })
        .unwrap();
        for (model, terms) in [("m", 0..5), ("old", 5..8), ("wide", 8..10)] {
            for t in terms {
                a.handle_line(&distinct_loop(model, t));
            }
        }
        let a = server::serve_tcp(Arc::new(a)).unwrap();

        let export = Json::parse(&a.hub().handle_line(r#"{"op":"cache_export"}"#).0).unwrap();
        a.hub().persist_cache().unwrap();
        let file = std::fs::read_to_string(&path).unwrap();
        assert_eq!(export.get("snapshot").and_then(Json::as_str), Some(&*file));
        let image = persist::parse(&file).unwrap();
        let sizes: Vec<(&str, u64, usize)> = image
            .iter()
            .map(|s| (s.model.as_str(), s.checkpoint_hash, s.entries.len()))
            .collect();
        assert_eq!(sizes, [("m", 0, 5), ("old", 5, 3), ("wide", 9, 2)]);

        // `old` has moved on to checkpoint 6 on both joiners.
        let joiner = |cache_path: Option<&str>| {
            let mut cfg = HubConfig::default();
            cfg.cache_path = cache_path.map(str::to_string);
            let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
            hub.register(stub_spec("m", 1, 0)).unwrap();
            hub.register(stub_spec("old", 1, 6)).unwrap();
            hub
        };
        let b = joiner(Some(&path));
        b.restore_cache().unwrap();
        let c = joiner(None);
        assert_eq!(c.warm_from_peers(&[a.addr().to_string()]).unwrap(), 8);
        a.shutdown();

        for hash in [0, 5, 6, 9] {
            let (b, c) = (b.registry().store(), c.registry().store());
            assert_eq!(b.entries_for(hash), c.entries_for(hash), "hash {hash}");
        }
        assert_eq!(b.registry().store().entries_for(0), image[0].entries);
        assert_eq!(b.registry().store().entries_for(5), image[1].entries);
        assert!(b.registry().store().entries_for(9).is_empty());
        for (name, want) in [("m", (5, 0)), ("old", (0, 3))] {
            let counts = (persisted_counts(&b, name), persisted_counts(&c, name));
            assert_eq!(counts, (want, want), "{name}");
        }
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

    /// A `vectorize` line for a loop of `terms + 1` reads, a distinct
    /// shape (and decision key) per `terms`.
    fn distinct_loop(model: &str, terms: usize) -> String {
        let body: String = (0..terms).map(|j| format!(" + b[i] * {j}.5")).collect();
        let src = format!(
            "float a[64]; float b[64];\nvoid f(int n) {{ for (int i = 0; i < n; i++) {{ a[i] = b[i]{body}; }} }}"
        );
        obj(vec![
            ("source", Json::from(src)),
            ("model", Json::from(model)),
        ])
        .render()
    }

    fn metrics(hub: &Hub) -> Json {
        let v = Json::parse(&hub.handle_line(r#"{"op":"metrics"}"#).0).unwrap();
        v.get("stats").unwrap().clone()
    }

    fn at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(v, |v, k| {
            v.get(k)
                .unwrap_or_else(|| panic!("metrics lack {path:?}: {}", v.render()))
        })
    }

    /// `--cache N` bounds the hub, not each model: two checkpoints fed
    /// more than N distinct loops hold at most N decisions together.
    #[test]
    fn one_store_bounds_every_model_together() {
        let serve = ServeConfig {
            cache_capacity: 8,
            cache_shards: 1,
            ..ServeConfig::default().with_workers(1)
        };
        let hub = Hub::new(HubConfig::default(), serve);
        hub.register(stub_spec("a", 1, 1)).unwrap();
        hub.register(stub_spec("b", 1, 2)).unwrap();
        for terms in 0..6 {
            for model in ["a", "b"] {
                let v = Json::parse(&hub.handle_line(&distinct_loop(model, terms)).0).unwrap();
                assert_eq!(cached_flags(&v), vec![false], "{model} {terms}");
            }
        }
        let stats = metrics(&hub);
        let inserted: f64 = ["a", "b"]
            .iter()
            .map(|m| {
                at(&stats, &["models", m, "cache", "insertions"])
                    .as_f64()
                    .unwrap()
            })
            .sum();
        assert_eq!(inserted, 12.0, "every model stored each of its loops");
        assert_eq!(at(&stats, &["shared_store", "entries"]).as_f64(), Some(8.0));
        assert_eq!(hub.registry().store().len(), 8);
        for m in ["a", "b"] {
            let entries = at(&stats, &["models", m, "cache", "entries"]);
            assert_eq!(entries.as_f64(), Some(8.0), "`entries` is the store's");
        }
    }

    /// The `metrics` fields the benchmark harness reads: a rename or a
    /// type change fails here, not only in the harness's smoke run.
    #[test]
    fn metrics_carry_the_fields_the_benchmark_reads() {
        let hub = hub_with(&[("prod", 1, 4)]);
        hub.handle_line(&distinct_loop("prod", 0));
        hub.handle_line(&distinct_loop("prod", 0));
        let stats = metrics(&hub);
        assert!(at(&stats, &["kernel_mode"]).as_str().is_some());
        let isa = at(&stats, &["kernel_isa"]).as_str();
        assert!(
            matches!(isa, Some("avx2+fma" | "avx2" | "baseline")),
            "{isa:?}"
        );
        let hash = at(&stats, &["models", "prod", "checkpoint_hash"]);
        assert_eq!(hash.as_str(), Some("0000000000000004"));
        for path in [
            &["transfer_entries"][..],
            &["shared_store", "hits"],
            &["shared_store", "misses"],
            &["models", "prod", "cache", "hits"],
            &["models", "prod", "cache", "misses"],
            &["models", "prod", "cache", "insertions"],
            &["models", "prod", "cache", "shards"],
            &["models", "prod", "cache", "shard_capacity"],
            &["models", "prod", "batch", "batches"],
            &["models", "prod", "batch", "batched_loops"],
        ] {
            assert!(at(&stats, path).as_f64().is_some(), "{path:?} not numeric");
        }
        let cache = at(&stats, &["models", "prod", "cache"]);
        for (field, want) in [("hits", 1.0), ("misses", 1.0), ("insertions", 1.0)] {
            assert_eq!(cache.get(field).unwrap().as_f64(), Some(want), "{field}");
        }
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
        while entry.handle.metrics().warmup_replayed.get() == 0 {
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
