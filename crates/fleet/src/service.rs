//! The discovery registry's protocol: the stack-wide
//! one-JSON-object-per-line dialect over the node table (see the crate
//! docs for the verb set). The TCP server that carries it is the one
//! `nvc hub` runs too and lives with it (`nvc_hub::serve_registry`);
//! this crate holds no listener.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use nvc_obs::json::{fail, obj, with_id, Json};
use nvc_obs::{Counter, Gauge};

use crate::registry::{NodeAnnouncement, RegistryCore, ResolvedNode};

/// The wire list of `nodes`.
fn nodes_json(nodes: &[ResolvedNode]) -> Json {
    Json::Arr(nodes.iter().map(ResolvedNode::to_json).collect())
}

/// Protocol state for one registry process: the node table plus the
/// daemon plumbing (uptime, request counting, shutdown flag).
pub struct RegistryService {
    core: RegistryCore,
    started: Instant,
    shutting_down: AtomicBool,
    requests: Counter,
    connections: Counter,
    active_connections: Gauge,
}

impl Default for RegistryService {
    fn default() -> Self {
        RegistryService {
            core: RegistryCore::default(),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            requests: Counter::default(),
            connections: Counter::default(),
            active_connections: Gauge::default(),
        }
    }
}

impl RegistryService {
    /// The node table (tests drive it directly with explicit clocks).
    pub fn core(&self) -> &RegistryCore {
        &self.core
    }

    /// True once a `shutdown` verb has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flags shutdown (the server watches this).
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
    }

    /// Answers one protocol line. Returns the response and whether the
    /// connection should stay open (`false` after `shutdown`). Every
    /// answer echoes the request's string `id`, errors included.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.requests.inc();
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return fail(None, format!("bad json: {e}")),
        };
        let id = v.get("id").and_then(Json::as_str);
        let ok = |mut members: Vec<(&str, Json)>| {
            members.insert(0, ("ok", Json::from(true)));
            with_id(id, members)
        };
        match v.get("op").and_then(Json::as_str).unwrap_or("") {
            "announce" => match NodeAnnouncement::from_json(&v) {
                Ok(ann) => {
                    let nodes = self.core.announce(ann);
                    (ok(vec![("nodes", Json::from(nodes as u64))]), true)
                }
                Err(e) => fail(id, e),
            },
            "resolve" => {
                let nodes = self.core.resolve(v.get("model").and_then(Json::as_str));
                (ok(vec![("nodes", nodes_json(&nodes))]), true)
            }
            "metrics" | "stats" | "nodes" => (ok(vec![("stats", self.stats_json())]), true),
            "ping" => {
                let members = vec![
                    ("pong", Json::from(true)),
                    ("service", Json::from("nvc-registry")),
                ];
                (ok(members), true)
            }
            "shutdown" => {
                // Ack first; the caller closes after writing (mirrors
                // the hub's ack-then-drain contract).
                self.shutdown();
                (ok(vec![("shutdown", Json::from(true))]), false)
            }
            other => fail(id, format!("unknown op `{other}`")),
        }
    }

    /// The `stats` object: the hub's server-level members (`uptime_us`,
    /// `requests`, `connections`, `active_connections`), then the node
    /// table's counters and its live nodes, freshest first.
    fn stats_json(&self) -> Json {
        let core = &self.core;
        let nodes = core.live_at(None, Instant::now());
        obj(vec![
            (
                "uptime_us",
                Json::from(self.started.elapsed().as_micros() as u64),
            ),
            ("requests", Json::from(self.requests.get())),
            ("connections", Json::from(self.connections.get())),
            (
                "active_connections",
                Json::from(self.active_connections.get().max(0) as u64),
            ),
            ("announces", Json::from(core.announces.get())),
            ("resolves", Json::from(core.resolves.get())),
            ("expirations", Json::from(core.expirations.get())),
            ("live_nodes", Json::from(nodes.len() as u64)),
            ("nodes", nodes_json(&nodes)),
        ])
    }

    /// Connections accepted since start (maintained by the TCP server).
    pub fn connections(&self) -> &Counter {
        &self.connections
    }

    /// Connections currently open (maintained by the TCP server).
    pub fn active_connections(&self) -> &Gauge {
        &self.active_connections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every answer carries the request's `id` back, errors included.
    #[test]
    fn every_answer_echoes_the_request_id() {
        let service = RegistryService::default();
        for (line, ok) in [
            (r#"{"op":"ping","id":"p1"}"#, true),
            (r#"{"op":"resolve","id":"r1"}"#, true),
            (r#"{"op":"stats","id":"s1"}"#, true),
            (r#"{"op":"metrics","id":"m1"}"#, true),
            (r#"{"op":"nope","id":"p2"}"#, false),
            (r#"{"op":"announce","id":"a1","node":"n"}"#, false),
        ] {
            let (resp, keep) = service.handle_line(line);
            assert!(keep, "{line}");
            let v = Json::parse(&resp).unwrap();
            let sent = Json::parse(line).unwrap();
            assert_eq!(v.get("id"), sent.get("id"), "{line} → {resp}");
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(ok),
                "{line} → {resp}"
            );
        }
        // The counters render straight into the reply.
        let (resp, _) = service.handle_line(r#"{"op":"metrics"}"#);
        let v = Json::parse(&resp).unwrap();
        let requests = ["stats", "requests"]
            .iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(Json::as_f64);
        assert_eq!(requests, Some(7.0), "{resp}");
        // Unparsable JSON has no id to echo.
        let (resp, _) = service.handle_line("not json");
        let v = Json::parse(&resp).unwrap();
        assert!(v.get("id").is_none());
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    }

    /// `stats` lists the live nodes without counting itself as a
    /// `resolve`; only the `resolve` verb moves `resolves`.
    #[test]
    fn stats_does_not_count_as_a_resolve() {
        let service = RegistryService::default();
        let resolves = || {
            let (resp, _) = service.handle_line(r#"{"op":"stats"}"#);
            let v = Json::parse(&resp).unwrap();
            ["stats", "resolves"]
                .iter()
                .try_fold(&v, |v, k| v.get(k))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("no stats.resolves in {resp}"))
        };
        let first = resolves();
        assert_eq!(resolves(), first, "a stats answer counted as a resolve");
        service.handle_line(r#"{"op":"resolve","model":"prod"}"#);
        assert_eq!(resolves(), first + 1.0);
    }
}
