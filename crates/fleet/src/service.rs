//! The discovery registry's protocol: the stack-wide
//! one-JSON-object-per-line dialect over the node table (see the crate
//! docs for the verb set). The TCP server that carries it is the one
//! `nvc hub` runs too and lives with it (`nvc_hub::serve_registry`);
//! this crate holds no listener.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nvc_obs::json::{fail, with_id, Json};
use nvc_obs::{Counter, Gauge, MetricsRegistry};

use crate::registry::{NodeAnnouncement, RegistryCore, ResolvedNode};

/// Protocol state for one registry process: the node table plus the
/// daemon plumbing (uptime, request counting, shutdown flag).
pub struct RegistryService {
    core: RegistryCore,
    started: Instant,
    shutting_down: AtomicBool,
    requests: Arc<Counter>,
    connections: Arc<Counter>,
    active_connections: Arc<Gauge>,
}

impl Default for RegistryService {
    fn default() -> Self {
        let core = RegistryCore::default();
        let obs = core.metrics_registry();
        RegistryService {
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            requests: obs.counter("registry_requests_total"),
            connections: obs.counter("registry_connections_total"),
            active_connections: obs.gauge("registry_active_connections"),
            core,
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
        let nodes_json =
            |nodes: &[ResolvedNode]| Json::Arr(nodes.iter().map(|n| n.to_json()).collect());
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
            "nodes" | "stats" => {
                let nodes = self.core.resolve(None);
                let members = vec![
                    ("uptime_secs", Json::from(self.started.elapsed().as_secs())),
                    ("live_nodes", Json::from(nodes.len() as u64)),
                    ("nodes", nodes_json(&nodes)),
                ];
                (ok(members), true)
            }
            "ping" => {
                let members = vec![
                    ("pong", Json::from(true)),
                    ("service", Json::from("nvc-registry")),
                ];
                (ok(members), true)
            }
            "metrics" => {
                let snapshot = self.core.metrics_registry().snapshot();
                (ok(vec![("metrics", snapshot.to_json())]), true)
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

    /// The service's instruments.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.core.metrics_registry()
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
        // The instruments render straight into the reply.
        let (resp, _) = service.handle_line(r#"{"op":"metrics"}"#);
        let v = Json::parse(&resp).unwrap();
        let requests = ["metrics", "counters", "registry_requests_total"]
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
}
