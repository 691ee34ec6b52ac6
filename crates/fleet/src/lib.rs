//! `nvc-fleet` — the distributed serving tier.
//!
//! `nvc-hub` made one box serve many models; a build farm at the
//! paper-to-production scale the ROADMAP aims for needs many boxes. This
//! crate adds the three pieces that turn N independent hubs into one
//! fleet:
//!
//! * [`registry`] + [`service`] — a **discovery registry** (`nvc
//!   registry` on the CLI): hub nodes announce `(model,
//!   checkpoint_hash, addr)` over the same JSON-lines protocol the rest
//!   of the stack speaks, with TTL'd heartbeats — a node that stops
//!   heartbeating expires out of resolution instead of black-holing
//!   clients;
//! * [`store`] — a **content-addressed shared decision store**: one
//!   [`ContentStore`] per process, layered *behind* every model's
//!   private LRU (`nvc_serve::SharedDecisionStore`), keyed by
//!   `(checkpoint_hash, sample_key)` so entries flow across A/B sides,
//!   hot-swap reloads, and — via the hub's gossip transfer — across
//!   peer nodes, while different checkpoints can never exchange a
//!   decision;
//! * [`client`] — a **fleet-aware client** ([`FleetClient`]): resolve
//!   through the registry, pick a node by deterministic weighted split,
//!   retry on the next peer with backoff when a node dies, fall back to
//!   the last-known-good node set when the registry itself is down, and
//!   verify the `checkpoint_hash` stamped on every response so a wrong
//!   -version decision is structurally impossible to accept.
//!
//! # Wire protocol (registry)
//!
//! One JSON object per line, like every other `nvc` daemon:
//!
//! ```text
//! → {"op":"announce","node":"n1","addr":"10.0.0.5:7199","ttl_ms":3000,
//!    "models":[{"model":"prod","checkpoint_hash":"84f1…","weight":2}]}
//! ← {"ok":true,"nodes":3}
//! → {"op":"resolve","model":"prod"}
//! ← {"ok":true,"nodes":[{"node":"n1","addr":"10.0.0.5:7199","age_ms":120,
//!    "models":[…]}]}
//! → {"op":"ping"} / {"op":"metrics"} / {"op":"shutdown"}   # as elsewhere
//! ```

pub mod client;
pub mod registry;
pub mod service;
pub mod store;

pub use client::{FleetClient, FleetConfig, FleetResponse, FleetStats, RegistryClient};
pub use registry::{ModelAd, NodeAnnouncement, RegistryCore, ResolvedNode};
pub use service::RegistryService;
pub use store::{ContentStore, ContentStoreStats};

/// Failures surfaced by the fleet tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The registry could not be reached and no usable node set was
    /// cached from a previous resolution.
    Registry(String),
    /// Resolution succeeded but no live node serves the requested model.
    NoNodes(String),
    /// Every candidate peer failed (connect, I/O, or version mismatch);
    /// carries the last error.
    PeersExhausted(String),
    /// A peer answered with a protocol-level error or malformed JSON.
    Protocol(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Registry(e) => write!(f, "registry unavailable: {e}"),
            FleetError::NoNodes(what) => write!(f, "no live nodes serve {what}"),
            FleetError::PeersExhausted(e) => write!(f, "every peer failed (last: {e})"),
            FleetError::Protocol(e) => write!(f, "peer protocol error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}
