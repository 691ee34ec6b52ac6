//! The model registry: named checkpoints behind per-model [`ServeHandle`]
//! pools, with deterministic routing and atomic hot-swap.
//!
//! Every registered model owns its own `ServeHandle` — its own decision
//! cache, batcher and worker pool — so a slow experimental checkpoint
//! cannot stall traffic routed to the production one, and cache entries
//! never leak across checkpoints (the per-model cache is what the
//! persistence layer versions by checkpoint hash).
//!
//! Routing precedence, per request:
//!
//! 1. an explicit `"model"` field names the entry directly;
//! 2. otherwise the request's routing key (a hash of its `"route"` field
//!    when present, else of the source text) lands in a **weighted A/B
//!    split** over every entry with a non-zero weight. The split is a
//!    pure function of the key, so a given client/loop always sees the
//!    same model between registry changes — decisions stay reproducible
//!    and per-model caches stay hot.
//!
//! [`ModelRegistry::reload`] replaces an entry atomically: a request that
//! already routed holds its `Arc` to the old entry until it has begun —
//! hits answered, misses queued — and the old entry's worker pool drains
//! its queue before it stops, so every miss in flight across the swap is
//! still answered by the checkpoint it routed to; every subsequent
//! `route` sees the new one.

use std::sync::Arc;

use parking_lot::RwLock;

use nvc_serve::{DecisionModel, ServeConfig, ServeHandle, SharedDecisionStore};

use crate::HubError;

/// What a caller registers: a named, weighted, content-hashed model.
pub struct ModelSpec {
    /// Registry name (the wire protocol's `"model"` field).
    pub name: String,
    /// Relative share of un-pinned traffic (0 = explicit-only canary).
    pub weight: u32,
    /// Content hash of the checkpoint
    /// (`nvc_nn::serialize::checkpoint_hash`); versions the persistent
    /// cache.
    pub checkpoint_hash: u64,
    /// The model itself.
    pub model: Arc<dyn DecisionModel>,
}

/// A live registry entry: the spec plus its running serving pool.
pub struct ModelEntry {
    /// Registry name.
    pub name: String,
    /// Checkpoint content hash.
    pub checkpoint_hash: u64,
    /// Traffic weight.
    pub weight: u32,
    /// The model's private cache + batcher + workers.
    pub handle: ServeHandle,
    /// Requests begun on this model and not yet answered (the hub's
    /// `metrics` verb surfaces it per model). Shared, so a request's
    /// completion can decrement it without keeping the entry alive.
    pub in_flight: Arc<nvc_obs::Gauge>,
}

/// Named models with weighted routing and hot-swap.
pub struct ModelRegistry {
    entries: RwLock<Vec<Arc<ModelEntry>>>,
    serve_cfg: ServeConfig,
    /// Second-level decision store every started handle publishes to,
    /// content-addressed by checkpoint hash (see `nvc_fleet::store`).
    store: RwLock<Option<Arc<dyn SharedDecisionStore>>>,
}

impl ModelRegistry {
    /// An empty registry; every model registered later gets its own
    /// [`ServeHandle`] built from `serve_cfg`.
    pub fn new(serve_cfg: ServeConfig) -> Self {
        ModelRegistry {
            entries: RwLock::new(Vec::new()),
            serve_cfg,
            store: RwLock::new(None),
        }
    }

    /// Attaches the shared decision store. Only entries started *after*
    /// this call publish to it — attach before registering models.
    pub fn set_shared_store(&self, store: Arc<dyn SharedDecisionStore>) {
        *self.store.write() = Some(store);
    }

    fn start_entry(&self, spec: ModelSpec) -> Result<Arc<ModelEntry>, HubError> {
        // The persistence format is whitespace-delimited, so a name the
        // snapshot cannot round-trip must be rejected at registration —
        // not discovered as a corrupt cache file on the next restart.
        if spec.name.is_empty() || spec.name.chars().any(char::is_whitespace) {
            return Err(HubError::BadModelName(spec.name));
        }
        let shared = self
            .store
            .read()
            .as_ref()
            .map(|s| (spec.checkpoint_hash, Arc::clone(s)));
        Ok(Arc::new(ModelEntry {
            handle: ServeHandle::start_with_store(spec.model, self.serve_cfg.clone(), shared),
            name: spec.name,
            checkpoint_hash: spec.checkpoint_hash,
            weight: spec.weight,
            in_flight: Arc::default(),
        }))
    }

    /// Registers a new model.
    ///
    /// # Errors
    ///
    /// [`HubError::DuplicateModel`] when the name is taken (use
    /// [`ModelRegistry::reload`] to replace);
    /// [`HubError::BadModelName`] for a name the cache-snapshot format
    /// cannot represent.
    pub fn register(&self, spec: ModelSpec) -> Result<(), HubError> {
        let entry = self.start_entry(spec)?;
        let mut entries = self.entries.write();
        if entries.iter().any(|e| e.name == entry.name) {
            return Err(HubError::DuplicateModel(entry.name.clone()));
        }
        entries.push(entry);
        Ok(())
    }

    /// Atomically replaces the entry named `spec.name` and returns the
    /// displaced entry. In-flight requests holding the old `Arc` finish
    /// against the old model; new routes see the new one immediately.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownModel`] when no entry has that name.
    pub fn reload(&self, spec: ModelSpec) -> Result<Arc<ModelEntry>, HubError> {
        // Start the replacement's worker pool *before* taking the write
        // lock, so routing is never blocked behind model startup.
        let entry = self.start_entry(spec)?;
        let mut entries = self.entries.write();
        match entries.iter().position(|e| e.name == entry.name) {
            Some(i) => Ok(std::mem::replace(&mut entries[i], entry)),
            None => Err(HubError::UnknownModel(entry.name.clone())),
        }
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.entries.read().iter().find(|e| e.name == name).cloned()
    }

    /// Routes a request: explicit name first, else the weighted split on
    /// `routing_key`.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownModel`] for a bad explicit name,
    /// [`HubError::NoModels`] when the registry is empty.
    pub fn route(
        &self,
        explicit: Option<&str>,
        routing_key: u64,
    ) -> Result<Arc<ModelEntry>, HubError> {
        let entries = self.entries.read();
        if let Some(name) = explicit {
            return entries
                .iter()
                .find(|e| e.name == name)
                .cloned()
                .ok_or_else(|| HubError::UnknownModel(name.to_string()));
        }
        if entries.is_empty() {
            return Err(HubError::NoModels);
        }
        let total: u64 = entries.iter().map(|e| u64::from(e.weight)).sum();
        if total == 0 {
            // All-canary registry: fall back to the first entry so
            // un-pinned traffic still gets answers.
            return Ok(Arc::clone(&entries[0]));
        }
        // Spread the key before reducing mod total: sequential keys
        // would otherwise stripe perfectly with small weights.
        let mut point = routing_key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % total;
        for e in entries.iter() {
            let w = u64::from(e.weight);
            if point < w {
                return Ok(Arc::clone(e));
            }
            point -= w;
        }
        unreachable!("weighted point exceeded total weight");
    }

    /// A snapshot of every entry (registration order).
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.entries.read().clone()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drains every model's worker pool (in-flight batches complete).
    pub fn shutdown_all(&self) {
        for e in self.entries() {
            e.handle.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::stub_spec;

    #[test]
    fn register_route_and_duplicate() {
        let reg = ModelRegistry::new(ServeConfig::default().with_workers(1));
        assert!(matches!(reg.route(None, 7), Err(HubError::NoModels)));
        reg.register(stub_spec("a", 1, 0xA)).unwrap();
        assert_eq!(reg.route(None, 7).unwrap().name, "a");
        assert_eq!(reg.route(Some("a"), 7).unwrap().checkpoint_hash, 0xA);
        assert!(matches!(
            reg.route(Some("ghost"), 7),
            Err(HubError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.register(stub_spec("a", 1, 0xB)),
            Err(HubError::DuplicateModel(_))
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unpersistable_names_are_rejected_at_registration() {
        let reg = ModelRegistry::new(ServeConfig::default().with_workers(1));
        for bad in ["", "my model", "tab\tname", "line\nname"] {
            assert!(
                matches!(
                    reg.register(stub_spec(bad, 1, 0)),
                    Err(HubError::BadModelName(_))
                ),
                "name {bad:?} must be rejected"
            );
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn weighted_split_is_deterministic_and_proportional() {
        let reg = ModelRegistry::new(ServeConfig::default().with_workers(1));
        reg.register(stub_spec("big", 3, 1)).unwrap();
        reg.register(stub_spec("small", 1, 2)).unwrap();
        reg.register(stub_spec("canary", 0, 3)).unwrap();
        let mut counts = std::collections::HashMap::new();
        for key in 0..4000u64 {
            let name = reg.route(None, key).unwrap().name.clone();
            // Determinism: the same key always lands on the same model.
            assert_eq!(reg.route(None, key).unwrap().name, name);
            *counts.entry(name).or_insert(0u32) += 1;
        }
        assert_eq!(counts.get("canary"), None, "weight 0 gets no split traffic");
        let big = counts["big"] as f64 / 4000.0;
        assert!(
            (0.70..0.80).contains(&big),
            "3:1 split drifted: big={big:.3}"
        );
        // Canary stays reachable by name.
        assert_eq!(reg.route(Some("canary"), 0).unwrap().checkpoint_hash, 3);
    }

    #[test]
    fn reload_swaps_atomically_and_returns_old_entry() {
        let reg = ModelRegistry::new(ServeConfig::default().with_workers(1));
        reg.register(stub_spec("m", 1, 0x1)).unwrap();
        let before = reg.route(None, 0).unwrap();
        let old = reg.reload(stub_spec("m", 1, 0x2)).unwrap();
        assert_eq!(old.checkpoint_hash, 0x1);
        assert_eq!(reg.route(None, 0).unwrap().checkpoint_hash, 0x2);
        // The pre-reload Arc still answers (in-flight requests survive).
        assert_eq!(before.checkpoint_hash, 0x1);
        assert!(matches!(
            reg.reload(stub_spec("ghost", 1, 9)),
            Err(HubError::UnknownModel(_))
        ));
    }
}
