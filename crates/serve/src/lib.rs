//! `nvc-serve` — the long-lived vectorization service.
//!
//! The paper's end product is an inference artifact: "once the RL agent is
//! trained, it can be plugged in as is for inference without further
//! retraining" (§3.5). A build farm does not call a CLI once per file — it
//! keeps a daemon warm and streams requests at it. This crate is that
//! daemon:
//!
//! * [`cache`] — the **decision store** ([`ContentStore`]), one sharded
//!   LRU keyed by content address: the checkpoint hash and a hash of the
//!   loop's normalized path-context sample ([`sample_key`]). Alpha-renamed
//!   copies of a loop produce the *same* sample (the §3.2 normalization),
//!   so repeated loop shapes across a codebase skip embedding + policy
//!   entirely, and every handle serving one checkpoint shares the entries;
//! * [`batch`] — a **batching layer**: concurrent cache misses coalesce
//!   into one embedding/policy forward pass over a worker pool (bounded
//!   queue, configurable batch size, no flush timer: a batch is what its
//!   callers submitted before they woke the workers, plus what arrived
//!   during the previous forward);
//! * [`metrics`] — the handle's counters and latency / batch-size
//!   histograms as plain fields, read by [`ServeHandle::stats_json`];
//! * [`service`] — the in-process [`ServeHandle`] API. A request's life
//!   is non-blocking: [`ServeHandle::begin_vectorize`] answers a cache hit
//!   on the caller's thread and lets a batch worker complete a miss;
//!   `vectorize` and `decide_sample` are blocking wrappers over it.
//!
//! # Protocol
//!
//! This crate speaks no wire protocol of its own. The JSON-lines protocol
//! is the hub's (`nvc_hub`, see its crate docs): `nvc hub` serves it over
//! TCP, and `nvc serve` over stdin/stdout for one model registered as
//! `default`. Its [`Json`] is `nvc_obs`'s, re-exported here for the
//! benchmark harness.
//!
//! # In-process usage
//!
//! The model side is abstracted as [`DecisionModel`] (implemented by
//! `neurovectorizer::NeuroVectorizer`); the service only needs batched
//! greedy decisions:
//!
//! ```
//! use std::sync::Arc;
//! use nvc_embed::{EmbedConfig, PathSample};
//! use nvc_machine::TargetConfig;
//! use nvc_serve::{DecisionModel, ServeConfig, ServeHandle};
//!
//! struct Fixed(EmbedConfig, TargetConfig);
//! impl DecisionModel for Fixed {
//!     fn embed_config(&self) -> &EmbedConfig { &self.0 }
//!     fn target(&self) -> &TargetConfig { &self.1 }
//!     fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
//!         samples.iter().map(|_| (2, 1)).collect()
//!     }
//! }
//!
//! let model = Arc::new(Fixed(EmbedConfig::fast(), TargetConfig::i7_8559u()));
//! let handle = ServeHandle::start(model, ServeConfig::default());
//! let out = handle
//!     .vectorize("float a[64]; float b[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }")
//!     .unwrap();
//! assert!(out.source.contains("#pragma clang loop"));
//! ```

pub mod batch;
pub mod cache;
pub mod metrics;
pub mod service;

use serde::{Deserialize, Serialize};

use nvc_embed::{EmbedConfig, PathSample};
use nvc_machine::TargetConfig;
use nvc_obs::fnv::{Fnv1a, Step};

pub use cache::{CacheStats, ContentStore, ShardedLruCache};
pub use metrics::{LatencyHistogram, Metrics};
/// Kept only because `bench/` compiles against `nvc_serve::Json` and
/// `nvc_serve::json::obj`; the crates use `nvc_obs::json`.
pub use nvc_obs::json::{self, Json};
pub use service::{LoopReport, ServeError, ServeHandle, VectorizeOutput};

/// The model half of the service: batched greedy `(vf_idx, if_idx)`
/// decisions over path-context samples. `neurovectorizer::NeuroVectorizer`
/// implements this; tests use cheap stubs.
pub trait DecisionModel: Send + Sync {
    /// The embedding configuration requests must be hashed/embedded with.
    fn embed_config(&self) -> &EmbedConfig;

    /// The target whose action space decisions index into.
    fn target(&self) -> &TargetConfig;

    /// Greedy action pairs for a batch of samples, one per input, in
    /// order. Must be deterministic: the cache stores these results.
    fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)>;
}

/// The content-addressed face of [`ContentStore`]: decisions by
/// `(checkpoint_hash, sample_key)`. A decision is a pure function of
/// both, so an entry is valid wherever that exact checkpoint serves, and
/// models with *different* checkpoints never see each other's.
pub trait SharedDecisionStore: Send + Sync {
    /// Looks up the decision for `sample_key` under `checkpoint_hash`.
    fn get(&self, checkpoint_hash: u64, sample_key: u64) -> Option<(usize, usize)>;

    /// Publishes a computed decision. Implementations must be
    /// last-write-wins idempotent: decisions are deterministic per
    /// `(checkpoint_hash, sample_key)`, so concurrent publishes agree.
    fn put(&self, checkpoint_hash: u64, sample_key: u64, decision: (usize, usize));
}

/// Tuning knobs for the service. There is no flush timer to tune: the
/// batch workers take what is queued when a caller that has submitted all
/// it has wakes them (see [`batch`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Decision-store capacity in entries (0 disables caching): the
    /// private store of [`ServeHandle::start`], the one store of a hub.
    pub cache_capacity: usize,
    /// Number of independent store shards (clamped to ≥ 1).
    pub cache_shards: usize,
    /// Maximum loops coalesced into one model forward pass (≥ 1).
    pub batch_size: usize,
    /// Worker threads running model forward passes (≥ 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 65_536,
            cache_shards: 16,
            batch_size: 32,
            workers: 2,
        }
    }
}

impl ServeConfig {
    /// Builder-style batch-size override.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }
}

/// Stable cache key of a normalized path-context sample.
///
/// FNV-1a over the little-endian `u64` bytes of the context count, then
/// of each section's table indices followed by a separator; two loops
/// that normalize to the same paths (e.g. alpha-renamed copies, the
/// paper's §3.2 dataset trick) collide *intentionally* — that is the
/// cache's whole point. The zero high bytes of each index fold into one
/// multiply and the separator is one precomputed step
/// ([`nvc_obs::fnv`]), which give the byte loop's bits.
pub fn sample_key(sample: &PathSample) -> u64 {
    static SEPARATOR: Step = Step::new(&[&0xFFFF_FFFF_FFFF_FFFEu64.to_le_bytes()]);
    let mut h = Fnv1a::new();
    h.write_u64(sample.starts.len() as u64);
    for part in [&sample.starts, &sample.paths, &sample.ends] {
        for &idx in part.iter() {
            h.write_u64(idx as u64);
        }
        h.step(&SEPARATOR);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_key_is_stable_and_content_sensitive() {
        let a = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        assert_eq!(sample_key(&a), sample_key(&a.clone()));
        let mut b = a.clone();
        b.ends[1] = 7;
        assert_ne!(sample_key(&a), sample_key(&b));
        // Moving an index across section boundaries must change the key.
        let c = PathSample {
            starts: vec![1, 2, 3],
            paths: vec![4],
            ends: vec![5, 6],
        };
        let d = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        assert_ne!(sample_key(&c), sample_key(&d));
    }

    #[test]
    fn config_builders_clamp() {
        let c = ServeConfig::default().with_batch_size(0).with_workers(0);
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.workers, 1);
    }
}
