//! The discovery registry's data model: TTL'd node announcements and
//! model-filtered resolution.
//!
//! [`RegistryCore`] is transport-free — every mutation takes an explicit
//! `Instant` (`*_at` variants) so TTL expiry is unit-testable without
//! sleeping; the TCP layer (`nvc_hub::serve_registry`) and convenience wrappers
//! pass `Instant::now()`. Expiry is lazy: a node whose deadline has
//! passed is pruned the next time anything looks at the table, and
//! counted in `expirations`.

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use nvc_obs::json::{obj, Json};
use nvc_obs::Counter;

/// One model a node advertises: name, the exact checkpoint content hash
/// it is serving, and its share of that node's A/B split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelAd {
    /// Registry name on the serving hub (`"model"` on the wire).
    pub model: String,
    /// `nvc_nn::serialize::checkpoint_hash` of the running checkpoint —
    /// the version clients verify every response against.
    pub checkpoint_hash: u64,
    /// The hub-side traffic weight (0 = explicit-only canary).
    pub weight: u32,
}

impl ModelAd {
    /// Wire encoding (`checkpoint_hash` as 16 hex digits).
    pub(crate) fn to_json(&self) -> Json {
        obj(vec![
            ("model", Json::from(self.model.as_str())),
            (
                "checkpoint_hash",
                Json::from(format!("{:016x}", self.checkpoint_hash)),
            ),
            ("weight", Json::from(u64::from(self.weight))),
        ])
    }

    /// Parses the [`ModelAd::to_json`] encoding.
    pub(crate) fn from_json(v: &Json) -> Result<ModelAd, String> {
        let model = v
            .get("model")
            .and_then(Json::as_str)
            .ok_or("model ad missing `model`")?
            .to_string();
        let checkpoint_hash = v
            .get("checkpoint_hash")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("model ad missing/bad `checkpoint_hash`")?;
        let weight = v.get("weight").and_then(Json::as_f64).unwrap_or(1.0) as u32;
        Ok(ModelAd {
            model,
            checkpoint_hash,
            weight,
        })
    }
}

/// What a hub node announces (and re-announces every heartbeat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAnnouncement {
    /// Stable node name — re-announcing under the same name refreshes
    /// the TTL and replaces the model list (reloads propagate this way).
    pub node: String,
    /// The address clients connect to (`host:port`).
    pub addr: String,
    /// The models this node serves right now.
    pub models: Vec<ModelAd>,
    /// How long this announcement stays resolvable without a refresh.
    pub ttl_ms: u64,
}

impl NodeAnnouncement {
    /// Wire encoding (the `announce` verb's request body).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("op", Json::from("announce")),
            ("node", Json::from(self.node.as_str())),
            ("addr", Json::from(self.addr.as_str())),
            ("ttl_ms", Json::from(self.ttl_ms)),
            (
                "models",
                Json::Arr(self.models.iter().map(ModelAd::to_json).collect()),
            ),
        ])
    }

    /// Parses an `announce` request.
    pub(crate) fn from_json(v: &Json) -> Result<NodeAnnouncement, String> {
        let node = v
            .get("node")
            .and_then(Json::as_str)
            .ok_or("announce missing `node`")?
            .to_string();
        let addr = v
            .get("addr")
            .and_then(Json::as_str)
            .ok_or("announce missing `addr`")?
            .to_string();
        // A missing `ttl_ms` gets the default; a *present* one must be a
        // finite positive number. The old `as_f64 … as u64` coercion
        // turned NaN/negative TTLs into 0 (clamped to 1ms downstream), so
        // a buggy announcer flapped in and out of resolution instead of
        // being told its announcement is malformed.
        let ttl_ms = match v.get("ttl_ms") {
            None => 3000,
            Some(t) => {
                let f = t.as_f64().ok_or("announce `ttl_ms` must be a number")?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!(
                        "announce `ttl_ms` must be a positive number, got {}",
                        t.render()
                    ));
                }
                f as u64
            }
        };
        let mut models = Vec::new();
        for m in v
            .get("models")
            .and_then(Json::as_array)
            .ok_or("announce missing `models`")?
        {
            models.push(ModelAd::from_json(m)?);
        }
        Ok(NodeAnnouncement {
            node,
            addr,
            models,
            ttl_ms,
        })
    }
}

/// A live node as a resolver sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedNode {
    /// The announced node name.
    pub node: String,
    /// The announced connect address.
    pub addr: String,
    /// Milliseconds since the last heartbeat (staleness signal).
    pub age_ms: u64,
    /// The announced model list.
    pub models: Vec<ModelAd>,
}

impl ResolvedNode {
    /// Wire encoding (one element of a `resolve` response).
    pub(crate) fn to_json(&self) -> Json {
        obj(vec![
            ("node", Json::from(self.node.as_str())),
            ("addr", Json::from(self.addr.as_str())),
            ("age_ms", Json::from(self.age_ms)),
            (
                "models",
                Json::Arr(self.models.iter().map(ModelAd::to_json).collect()),
            ),
        ])
    }

    /// Parses the [`ResolvedNode::to_json`] encoding.
    pub(crate) fn from_json(v: &Json) -> Result<ResolvedNode, String> {
        let node = v
            .get("node")
            .and_then(Json::as_str)
            .ok_or("resolved node missing `node`")?
            .to_string();
        let addr = v
            .get("addr")
            .and_then(Json::as_str)
            .ok_or("resolved node missing `addr`")?
            .to_string();
        let age_ms = v.get("age_ms").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut models = Vec::new();
        for m in v.get("models").and_then(Json::as_array).unwrap_or(&[]) {
            models.push(ModelAd::from_json(m)?);
        }
        Ok(ResolvedNode {
            node,
            addr,
            age_ms,
            models,
        })
    }

    /// The advertised checkpoint hash for `model`, if this node serves
    /// it.
    pub fn hash_of(&self, model: &str) -> Option<u64> {
        self.models
            .iter()
            .find(|m| m.model == model)
            .map(|m| m.checkpoint_hash)
    }
}

struct NodeState {
    ann: NodeAnnouncement,
    /// Refreshed on every heartbeat; past it the node is gone.
    deadline: Instant,
    /// When the latest heartbeat arrived (drives `age_ms`).
    heard: Instant,
}

/// The registry table: announcements keyed by node name, expired lazily.
#[derive(Default)]
pub struct RegistryCore {
    nodes: Mutex<HashMap<String, NodeState>>,
    /// Announcements accepted.
    pub(crate) announces: Counter,
    /// Resolutions answered.
    pub(crate) resolves: Counter,
    /// Nodes pruned for a missed heartbeat.
    pub(crate) expirations: Counter,
}

impl RegistryCore {
    /// Records (or refreshes) `ann` as of `now`. Returns the live node
    /// count after pruning.
    pub(crate) fn announce_at(&self, ann: NodeAnnouncement, now: Instant) -> usize {
        self.announces.inc();
        let deadline = now + std::time::Duration::from_millis(ann.ttl_ms.max(1));
        let mut nodes = self.nodes.lock();
        nodes.insert(
            ann.node.clone(),
            NodeState {
                ann,
                deadline,
                heard: now,
            },
        );
        self.prune_locked(&mut nodes, now);
        nodes.len()
    }

    /// `RegistryCore::announce_at` as of now.
    pub fn announce(&self, ann: NodeAnnouncement) -> usize {
        self.announce_at(ann, Instant::now())
    }

    /// A `resolve` as of `now`: counted in `resolves`, then
    /// [`RegistryCore::live_at`].
    pub(crate) fn resolve_at(&self, model: Option<&str>, now: Instant) -> Vec<ResolvedNode> {
        self.resolves.inc();
        self.live_at(model, now)
    }

    /// Live nodes as of `now`, optionally filtered to those serving
    /// `model`, most-recently-heard first (resolvers try the freshest
    /// peer first). Prunes expired nodes first; counts no `resolve`.
    pub(crate) fn live_at(&self, model: Option<&str>, now: Instant) -> Vec<ResolvedNode> {
        let mut nodes = self.nodes.lock();
        self.prune_locked(&mut nodes, now);
        let mut out: Vec<(Instant, ResolvedNode)> = nodes
            .values()
            .filter(|s| match model {
                Some(m) => s.ann.models.iter().any(|ad| ad.model == m),
                None => true,
            })
            .map(|s| {
                (
                    s.heard,
                    ResolvedNode {
                        node: s.ann.node.clone(),
                        addr: s.ann.addr.clone(),
                        age_ms: now.saturating_duration_since(s.heard).as_millis() as u64,
                        models: s.ann.models.clone(),
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.node.cmp(&b.1.node)));
        out.into_iter().map(|(_, n)| n).collect()
    }

    /// `RegistryCore::resolve_at` as of now.
    pub fn resolve(&self, model: Option<&str>) -> Vec<ResolvedNode> {
        self.resolve_at(model, Instant::now())
    }

    fn prune_locked(&self, nodes: &mut HashMap<String, NodeState>, now: Instant) {
        let before = nodes.len();
        nodes.retain(|_, s| s.deadline > now);
        let expired = before - nodes.len();
        if expired > 0 {
            self.expirations.add(expired as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ann(node: &str, ttl_ms: u64) -> NodeAnnouncement {
        NodeAnnouncement {
            node: node.to_string(),
            addr: format!("127.0.0.1:1{node}"),
            models: vec![ModelAd {
                model: "prod".into(),
                checkpoint_hash: 0xAB,
                weight: 2,
            }],
            ttl_ms,
        }
    }

    #[test]
    fn announce_resolve_and_ttl_expiry() {
        let core = RegistryCore::default();
        let t0 = Instant::now();
        assert_eq!(core.announce_at(ann("a", 1000), t0), 1);
        assert_eq!(core.announce_at(ann("b", 3000), t0), 2);

        // Inside both TTLs: both resolve, ages measured from t0.
        let at = t0 + Duration::from_millis(500);
        let nodes = core.resolve_at(Some("prod"), at);
        assert_eq!(nodes.len(), 2);
        assert!(nodes.iter().all(|n| n.age_ms == 500));
        assert!(core.resolve_at(Some("ghost"), at).is_empty());

        // Past a's deadline: only b survives, expiry is counted.
        let later = t0 + Duration::from_millis(1500);
        let nodes = core.resolve_at(None, later);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].node, "b");
        assert_eq!(core.expirations.get(), 1);

        // A heartbeat refreshes the deadline — the node lives past its
        // original TTL as long as it keeps announcing.
        core.announce_at(ann("b", 3000), later);
        let much_later = t0 + Duration::from_millis(4000);
        assert_eq!(core.live_at(None, much_later).len(), 1);
        assert_eq!(
            core.live_at(None, later + Duration::from_millis(3001))
                .len(),
            0
        );
    }

    #[test]
    fn reannounce_replaces_the_model_list() {
        let core = RegistryCore::default();
        let t0 = Instant::now();
        core.announce_at(ann("a", 5000), t0);
        let mut upgraded = ann("a", 5000);
        upgraded.models[0].checkpoint_hash = 0xCD;
        core.announce_at(upgraded, t0 + Duration::from_millis(10));
        let nodes = core.resolve_at(Some("prod"), t0 + Duration::from_millis(20));
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].hash_of("prod"), Some(0xCD));
        assert_eq!(nodes[0].hash_of("ghost"), None);
    }

    #[test]
    fn resolve_orders_freshest_first() {
        let core = RegistryCore::default();
        let t0 = Instant::now();
        core.announce_at(ann("stale", 60_000), t0);
        core.announce_at(ann("fresh", 60_000), t0 + Duration::from_millis(100));
        let nodes = core.resolve_at(None, t0 + Duration::from_millis(200));
        assert_eq!(nodes[0].node, "fresh");
        assert_eq!(nodes[1].node, "stale");
    }

    #[test]
    fn malformed_ttl_is_rejected_not_coerced() {
        let base = ann("n1", 2500).to_json().render();
        // Sanity: the well-formed announcement parses, and one with no
        // ttl_ms at all gets the 3000ms default.
        assert!(NodeAnnouncement::from_json(&Json::parse(&base).unwrap()).is_ok());
        let missing = base.replace("\"ttl_ms\":2500,", "");
        let parsed = NodeAnnouncement::from_json(&Json::parse(&missing).unwrap()).unwrap();
        assert_eq!(parsed.ttl_ms, 3000);
        // Present-but-malformed values are errors, not 1ms flap fodder.
        for bad in ["-1", "0", "0.4", "-2e9", "\"soon\"", "null", "true"] {
            let body = base.replace("\"ttl_ms\":2500", &format!("\"ttl_ms\":{bad}"));
            let v = Json::parse(&body).unwrap();
            let err = NodeAnnouncement::from_json(&v);
            assert!(err.is_err(), "ttl_ms={bad} was accepted: {err:?}");
        }
    }

    #[test]
    fn announcement_json_roundtrips() {
        let a = NodeAnnouncement {
            node: "n1".into(),
            addr: "10.0.0.5:7199".into(),
            models: vec![
                ModelAd {
                    model: "prod".into(),
                    checkpoint_hash: u64::MAX,
                    weight: 3,
                },
                ModelAd {
                    model: "canary".into(),
                    checkpoint_hash: 0,
                    weight: 0,
                },
            ],
            ttl_ms: 2500,
        };
        let parsed =
            NodeAnnouncement::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, a);

        let r = ResolvedNode {
            node: "n1".into(),
            addr: "10.0.0.5:7199".into(),
            age_ms: 42,
            models: a.models.clone(),
        };
        let parsed = ResolvedNode::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }
}
