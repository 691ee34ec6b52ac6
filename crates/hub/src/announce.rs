//! The registry announcer: a background heartbeat that keeps a hub
//! resolvable in an `nvc registry`.
//!
//! Every beat rebuilds the model list from the live registry — so a
//! `reload` propagates its new checkpoint hash to the fleet within one
//! heartbeat, and fleet clients verifying response hashes against the
//! registry's advertisement converge instead of failing forever. Beats
//! run at a third of the TTL: two can be lost before the node expires
//! out of resolution.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use nvc_fleet::{ModelAd, NodeAnnouncement, RegistryClient};

use crate::Hub;

/// How a hub presents itself to the discovery registry.
#[derive(Debug, Clone)]
pub struct AnnounceConfig {
    /// Registry address (`host:port`).
    pub registry: String,
    /// Stable node name (heartbeats under the same name refresh, not
    /// duplicate).
    pub node: String,
    /// The address clients should connect to — the hub's *advertised*
    /// listen address, which may differ from the bound one behind NAT
    /// or port 0.
    pub advertise: String,
    /// Announcement TTL; heartbeats run at a third of this.
    pub ttl_ms: u64,
}

impl AnnounceConfig {
    /// An announcer for `node` at `advertise`, heartbeating to
    /// `registry` with a 3-second TTL.
    pub fn new(
        registry: impl Into<String>,
        node: impl Into<String>,
        advertise: impl Into<String>,
    ) -> Self {
        AnnounceConfig {
            registry: registry.into(),
            node: node.into(),
            advertise: advertise.into(),
            ttl_ms: 3000,
        }
    }

    /// Builder-style TTL override.
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.ttl_ms = ttl_ms;
        self
    }
}

/// A running announce loop; [`Announcer::stop`] (or drop) ends it.
pub struct Announcer {
    thread: Mutex<Option<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
}

/// The hub's current model list as registry advertisements.
pub fn advertisements(hub: &Hub) -> Vec<ModelAd> {
    hub.registry()
        .entries()
        .iter()
        .map(|e| ModelAd {
            model: e.name.clone(),
            checkpoint_hash: e.checkpoint_hash,
            weight: e.weight,
        })
        .collect()
}

/// Starts heartbeating `hub`'s model list to the registry. The loop
/// exits when the hub shuts down (one final expiry-by-TTL removes the
/// node from resolution) or when [`Announcer::stop`] is called.
/// Registry outages are retried every beat — announcing is best-effort
/// by design, since resolvers fall back to their last-known node set.
pub fn spawn_announcer(hub: Arc<Hub>, cfg: AnnounceConfig) -> Announcer {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("nvc-hub-announce".to_string())
        .spawn(move || {
            let client = RegistryClient::new(cfg.registry.clone());
            let beat = Duration::from_millis((cfg.ttl_ms / 3).max(50));
            let done = |hub: &Hub| hub.is_shutting_down() || stop_flag.load(Ordering::Acquire);
            loop {
                let ann = NodeAnnouncement {
                    node: cfg.node.clone(),
                    addr: cfg.advertise.clone(),
                    models: advertisements(&hub),
                    ttl_ms: cfg.ttl_ms,
                };
                if let Err(e) = client.announce(&ann) {
                    eprintln!(
                        "nvc hub: announce to {} failed (will retry): {e}",
                        cfg.registry
                    );
                }
                // Sleep in short steps so shutdown is noticed promptly
                // even with multi-second TTLs.
                let mut remaining = beat;
                while !remaining.is_zero() {
                    if done(&hub) {
                        return;
                    }
                    let step = remaining.min(Duration::from_millis(50));
                    std::thread::sleep(step);
                    remaining = remaining.saturating_sub(step);
                }
                if done(&hub) {
                    return;
                }
            }
        })
        .expect("spawn hub announce thread");
    Announcer {
        thread: Mutex::new(Some(thread)),
        stop,
    }
}

impl Announcer {
    /// Ends the loop and waits for it (at most one poll step).
    /// Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Announcer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_registry;
    use crate::tests::{stub_spec, StubModel};
    use crate::{Hub, HubConfig};
    use nvc_fleet::RegistryService;
    use nvc_serve::{DecisionModel, ServeConfig};
    use std::time::Instant;

    #[test]
    fn heartbeats_keep_the_node_resolvable_and_propagate_reloads() {
        let registry = serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").unwrap();
        let reg_addr = registry.addr().to_string();

        let hub = Arc::new(
            Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1)).with_loader(
                Box::new(|path| {
                    let tag: usize = path.parse().map_err(|_| format!("bad path {path}"))?;
                    Ok((
                        Arc::new(StubModel::new(tag)) as Arc<dyn DecisionModel>,
                        tag as u64,
                    ))
                }),
            ),
        );
        hub.register(stub_spec("prod", 2, 0xA)).unwrap();
        let announcer = spawn_announcer(
            Arc::clone(&hub),
            AnnounceConfig::new(&reg_addr, "n1", "127.0.0.1:7199").with_ttl_ms(300),
        );

        // The node shows up and advertises its model + hash + weight.
        let client = RegistryClient::new(&reg_addr);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(nodes) = client.resolve(Some("prod")) {
                if let Some(n) = nodes.iter().find(|n| n.node == "n1") {
                    assert_eq!(n.addr, "127.0.0.1:7199");
                    assert_eq!(n.hash_of("prod"), Some(0xA));
                    assert_eq!(n.models[0].weight, 2);
                    break;
                }
            }
            assert!(Instant::now() < deadline, "announcement never arrived");
            std::thread::sleep(Duration::from_millis(20));
        }

        // A reload's new hash propagates within a heartbeat.
        hub.reload("prod", "11", None).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let nodes = client.resolve(Some("prod")).unwrap_or_default();
            if nodes.iter().any(|n| n.hash_of("prod") == Some(11)) {
                break;
            }
            assert!(Instant::now() < deadline, "reload hash never propagated");
            std::thread::sleep(Duration::from_millis(20));
        }

        // Stopping the announcer lets the TTL expire the node.
        announcer.stop();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if client.resolve(Some("prod")).unwrap_or_default().is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "node never expired after stop");
            std::thread::sleep(Duration::from_millis(50));
        }
        registry.shutdown();
    }
}
