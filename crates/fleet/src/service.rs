//! The discovery registry's protocol: the stack-wide
//! one-JSON-object-per-line dialect over the node table (see the crate
//! docs for the verb set). The TCP server that carries it is the one
//! `nvc hub` runs too and lives with it (`nvc_hub::serve_registry`);
//! this crate holds no listener.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nvc_obs::{Counter, Gauge, MetricsRegistry};
use nvc_serve::json::obj;
use nvc_serve::Json;

use crate::registry::{NodeAnnouncement, RegistryCore};

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
    /// connection should stay open (`false` after `shutdown`).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.requests.inc();
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return (err_response(&format!("bad json: {e}")), true),
        };
        let op = v.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "announce" => match NodeAnnouncement::from_json(&v) {
                Ok(ann) => {
                    let nodes = self.core.announce(ann);
                    (
                        obj(vec![
                            ("ok", Json::from(true)),
                            ("nodes", Json::from(nodes as u64)),
                        ])
                        .render(),
                        true,
                    )
                }
                Err(e) => (err_response(&e), true),
            },
            "resolve" => {
                let model = v.get("model").and_then(Json::as_str);
                let nodes = self.core.resolve(model);
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        (
                            "nodes",
                            Json::Arr(nodes.iter().map(|n| n.to_json()).collect()),
                        ),
                    ])
                    .render(),
                    true,
                )
            }
            "nodes" | "stats" => {
                let nodes = self.core.resolve(None);
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        ("uptime_secs", Json::from(self.started.elapsed().as_secs())),
                        ("live_nodes", Json::from(nodes.len() as u64)),
                        (
                            "nodes",
                            Json::Arr(nodes.iter().map(|n| n.to_json()).collect()),
                        ),
                    ])
                    .render(),
                    true,
                )
            }
            "ping" => (
                obj(vec![
                    ("ok", Json::from(true)),
                    ("pong", Json::from(true)),
                    ("service", Json::from("nvc-registry")),
                ])
                .render(),
                true,
            ),
            "metrics" => (
                obj(vec![
                    ("ok", Json::from(true)),
                    (
                        "metrics",
                        Json::parse(&self.core.metrics_registry().render_json())
                            .unwrap_or(Json::Null),
                    ),
                ])
                .render(),
                true,
            ),
            "shutdown" => {
                // Ack first; the caller closes after writing (mirrors
                // the hub's ack-then-drain contract).
                self.shutdown();
                (
                    obj(vec![
                        ("ok", Json::from(true)),
                        ("shutdown", Json::from(true)),
                    ])
                    .render(),
                    false,
                )
            }
            other => (err_response(&format!("unknown op `{other}`")), true),
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

fn err_response(msg: &str) -> String {
    obj(vec![("ok", Json::from(false)), ("error", Json::from(msg))]).render()
}
