//! Fleet-aware clients: a thin [`RegistryClient`] speaking the registry
//! protocol, and the full [`FleetClient`] that resolves, routes, fails
//! over, and version-checks every response.
//!
//! Routing is deterministic: the FNV hash of the source text picks the
//! starting node in proportion to advertised weights, so the same loop
//! nest lands on the same node while it stays alive — which keeps that
//! node's decision cache hot. When a node dies mid-request the client
//! walks the remaining peers (freshest first, with backoff), and when
//! the *registry* dies the last-known-good node set keeps serving
//! (stale-while-down).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nvc_obs::json::{obj, Json};

use crate::registry::{NodeAnnouncement, ResolvedNode};
use crate::FleetError;

/// How long a client waits on a peer, and how much it accepts from one.
#[derive(Debug, Clone, Copy)]
pub struct PeerLimits {
    /// Per resolved address.
    pub(crate) connect_timeout: Duration,
    /// Longest silence tolerated while writing the request or waiting
    /// for (more of) the response.
    pub(crate) io_timeout: Duration,
    /// Longest response line accepted.
    pub(crate) max_response_bytes: u64,
}

/// The limits every client in the stack uses. 2 s covers a connect
/// across a loaded network. The peer's longest legitimate silence is
/// rendering a full `cache_export`: a one-model hub whose store holds
/// 262 144 entries (`ContentStore::default`, four times `nvc hub`'s
/// default `--cache`) answers 5.8 MB of snapshot text, rendered in
/// 0.03 s on a 2-vCPU Xeon (release build). 30 s and
/// 64 MiB leave more than an order of magnitude above that for
/// many-model hubs on slow, loaded hosts, while a peer that accepts and
/// then never answers still becomes an error.
pub const PEER_LIMITS: PeerLimits = PeerLimits {
    connect_timeout: Duration::from_secs(2),
    io_timeout: Duration::from_secs(30),
    max_response_bytes: 64 * 1024 * 1024,
};

fn connect(addr: &str, limits: &PeerLimits) -> io::Result<BufReader<TcpStream>> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, limits.connect_timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(limits.io_timeout))?;
                stream.set_write_timeout(Some(limits.io_timeout))?;
                let _ = stream.set_nodelay(true);
                return Ok(BufReader::new(stream));
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One JSON-lines request/response with the peer at `addr` — the
/// client side of every `nvc` protocol. `conn` is the caller's cached
/// connection: reused when present, left in place on success, cleared on
/// failure. A reused connection that turns out stale (the peer restarted
/// or dropped it while idle) is replaced once; a peer that stays silent
/// past `limits.io_timeout` is an error, not a retry, so the call
/// returns within connect + I/O timeout of a stalled peer.
pub fn round_trip(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: &str,
    request: &str,
    limits: &PeerLimits,
) -> Result<Json, String> {
    loop {
        let reused = conn.is_some();
        let mut c = match conn.take() {
            Some(c) => c,
            None => connect(addr, limits).map_err(|e| e.to_string())?,
        };
        let mut response = String::new();
        let io = c
            .get_mut()
            .write_all(request.as_bytes())
            .and_then(|()| c.get_mut().write_all(b"\n"))
            .and_then(|()| {
                (&mut c)
                    .take(limits.max_response_bytes)
                    .read_line(&mut response)
            });
        let stale = match &io {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
        };
        if reused && stale {
            continue; // `conn` is empty now: the next round connects afresh
        }
        return match io {
            Ok(0) => Err("peer closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
            Ok(_) if !response.ends_with('\n') => Err(format!(
                "response cut short or longer than {} bytes",
                limits.max_response_bytes
            )),
            Ok(_) => {
                *conn = Some(c);
                Json::parse(response.trim()).map_err(|e| format!("bad response: {e}"))
            }
        };
    }
}

/// A line-oriented JSON connection to one registry, reconnecting on
/// error.
pub struct RegistryClient {
    addr: String,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl RegistryClient {
    /// A client for the registry at `addr` (connects lazily).
    pub fn new(addr: impl Into<String>) -> Self {
        RegistryClient {
            addr: addr.into(),
            conn: Mutex::new(None),
        }
    }

    /// One request/response ([`round_trip`] under [`PEER_LIMITS`]).
    pub(crate) fn request(&self, body: &Json) -> Result<Json, String> {
        round_trip(
            &mut self.conn.lock(),
            &self.addr,
            &body.render(),
            &PEER_LIMITS,
        )
    }

    /// Sends one announcement heartbeat.
    pub fn announce(&self, ann: &NodeAnnouncement) -> Result<usize, String> {
        let v = self.request(&ann.to_json())?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("announce rejected")
                .to_string());
        }
        Ok(v.get("nodes").and_then(Json::as_f64).unwrap_or(0.0) as usize)
    }

    /// Resolves the live nodes serving `model` (or all nodes).
    pub fn resolve(&self, model: Option<&str>) -> Result<Vec<ResolvedNode>, String> {
        let mut fields = vec![("op", Json::from("resolve"))];
        if let Some(m) = model {
            fields.push(("model", Json::from(m)));
        }
        let v = self.request(&obj(fields))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("resolve rejected".to_string());
        }
        let mut nodes = Vec::new();
        for n in v.get("nodes").and_then(Json::as_array).unwrap_or(&[]) {
            nodes.push(ResolvedNode::from_json(n)?);
        }
        Ok(nodes)
    }
}

/// How many peers a request tries before giving up.
const ATTEMPTS: usize = 3;

/// Knobs for a [`FleetClient`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Registry address (`host:port`).
    pub registry: String,
    /// Model to request; `None` lets each hub apply its own A/B split.
    pub model: Option<String>,
    /// Sleep between failover attempts.
    pub backoff_ms: u64,
    /// How long a resolution stays fresh before re-asking the registry.
    pub resolve_ttl_ms: u64,
}

impl FleetConfig {
    /// Sensible defaults against `registry` (50 ms backoff, 2 s resolve
    /// freshness).
    pub fn new(registry: impl Into<String>) -> Self {
        FleetConfig {
            registry: registry.into(),
            model: None,
            backoff_ms: 50,
            resolve_ttl_ms: 2000,
        }
    }

    /// Pins requests to one model (enables version verification against
    /// that model's advertised hash).
    pub fn with_model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Overrides the failover backoff.
    pub fn with_backoff_ms(mut self, ms: u64) -> Self {
        self.backoff_ms = ms;
        self
    }

    /// Overrides how long a resolution is trusted without refreshing.
    pub fn with_resolve_ttl_ms(mut self, ms: u64) -> Self {
        self.resolve_ttl_ms = ms;
        self
    }
}

/// One vectorization answered by the fleet.
#[derive(Debug, Clone)]
pub struct FleetResponse {
    /// The node that answered.
    pub node: String,
    /// The checkpoint content hash stamped on the response — already
    /// verified against the registry's advertisement.
    pub checkpoint_hash: u64,
    /// The pragma-annotated source.
    pub source: String,
    /// Per-loop decisions as returned by the hub.
    pub loops: Json,
}

/// Counters a [`FleetClient`] keeps about its own behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests attempted.
    pub requests: u64,
    /// Requests that succeeded (possibly after failover).
    pub ok: u64,
    /// Node-level failovers (connect/IO/protocol failure on a peer).
    pub failovers: u64,
    /// Requests served from a stale node set because the registry was
    /// unreachable.
    pub registry_failovers: u64,
    /// Responses rejected because the checkpoint hash did not match the
    /// (re-confirmed) advertisement.
    pub version_mismatches: u64,
    /// Successful registry resolutions.
    pub resolves: u64,
}

#[derive(Default)]
struct StatCells {
    requests: AtomicU64,
    ok: AtomicU64,
    failovers: AtomicU64,
    registry_failovers: AtomicU64,
    version_mismatches: AtomicU64,
    resolves: AtomicU64,
}

/// Resolve → weighted pick → verify → fail over. See the module docs.
pub struct FleetClient {
    cfg: FleetConfig,
    registry: RegistryClient,
    /// Last successful resolution and when it happened.
    nodes: Mutex<(Vec<ResolvedNode>, Option<Instant>)>,
    /// Cached connections per node address.
    conns: Mutex<HashMap<String, Option<BufReader<TcpStream>>>>,
    /// [`PEER_LIMITS`]; a field so the stalled-node test can shorten it.
    limits: PeerLimits,
    stats: StatCells,
}

impl FleetClient {
    /// A client over `cfg` (resolves lazily on first use).
    pub fn new(cfg: FleetConfig) -> Self {
        let registry = RegistryClient::new(cfg.registry.clone());
        FleetClient {
            cfg,
            registry,
            nodes: Mutex::new((Vec::new(), None)),
            conns: Mutex::new(HashMap::new()),
            limits: PEER_LIMITS,
            stats: StatCells::default(),
        }
    }

    /// Point-in-time client counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            ok: self.stats.ok.load(Ordering::Relaxed),
            failovers: self.stats.failovers.load(Ordering::Relaxed),
            registry_failovers: self.stats.registry_failovers.load(Ordering::Relaxed),
            version_mismatches: self.stats.version_mismatches.load(Ordering::Relaxed),
            resolves: self.stats.resolves.load(Ordering::Relaxed),
        }
    }

    /// The node set a request would consider right now (refreshing from
    /// the registry if the cached resolution is stale).
    pub fn current_nodes(&self) -> Result<Vec<ResolvedNode>, FleetError> {
        self.ensure_nodes(false)
    }

    /// Drops the cached resolution so the next request re-resolves.
    pub fn invalidate_resolution(&self) {
        self.nodes.lock().1 = None;
    }

    fn ensure_nodes(&self, force: bool) -> Result<Vec<ResolvedNode>, FleetError> {
        let ttl = Duration::from_millis(self.cfg.resolve_ttl_ms);
        {
            let cached = self.nodes.lock();
            if !force {
                if let (nodes, Some(at)) = (&cached.0, cached.1) {
                    if at.elapsed() < ttl && !nodes.is_empty() {
                        return Ok(nodes.clone());
                    }
                }
            }
        }
        match self.registry.resolve(self.cfg.model.as_deref()) {
            Ok(nodes) if !nodes.is_empty() => {
                self.stats.resolves.fetch_add(1, Ordering::Relaxed);
                *self.nodes.lock() = (nodes.clone(), Some(Instant::now()));
                Ok(nodes)
            }
            Ok(_) => {
                // The registry is up but answered empty — a stale cache
                // is *better* information than "nothing": nodes may
                // simply have missed a heartbeat under load.
                let cached = self.nodes.lock();
                if cached.0.is_empty() {
                    Err(FleetError::NoNodes(
                        self.cfg.model.clone().unwrap_or_else(|| "any model".into()),
                    ))
                } else {
                    self.stats
                        .registry_failovers
                        .fetch_add(1, Ordering::Relaxed);
                    Ok(cached.0.clone())
                }
            }
            Err(e) => {
                let cached = self.nodes.lock();
                if cached.0.is_empty() {
                    Err(FleetError::Registry(e))
                } else {
                    self.stats
                        .registry_failovers
                        .fetch_add(1, Ordering::Relaxed);
                    Ok(cached.0.clone())
                }
            }
        }
    }

    /// Vectorizes `source` somewhere in the fleet.
    ///
    /// # Errors
    ///
    /// [`FleetError::Registry`]/[`FleetError::NoNodes`] when no node set
    /// is reachable at all; [`FleetError::PeersExhausted`] when every
    /// candidate peer failed or answered a wrong version.
    pub fn vectorize(&self, source: &str) -> Result<FleetResponse, FleetError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let nodes = self.ensure_nodes(false)?;
        let start = pick_start(&nodes, self.cfg.model.as_deref(), route_key(source));
        let attempts = ATTEMPTS.min(nodes.len().max(1));
        let mut last_err = String::from("no candidate nodes");
        for i in 0..attempts {
            let node = &nodes[(start + i) % nodes.len()];
            match self.try_node(node, source) {
                Ok(resp) => {
                    self.stats.ok.fetch_add(1, Ordering::Relaxed);
                    return Ok(resp);
                }
                Err(e) => last_err = format!("{} ({}): {e}", node.node, node.addr),
            }
            // Back off only when another attempt will actually run — a
            // trailing sleep after the final failure is pure added latency
            // on the error path.
            if i + 1 < attempts {
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(self.cfg.backoff_ms));
            }
        }
        Err(FleetError::PeersExhausted(last_err))
    }

    /// One attempt against one node, including version verification.
    fn try_node(&self, node: &ResolvedNode, source: &str) -> Result<FleetResponse, String> {
        let mut fields = Vec::new();
        if let Some(m) = &self.cfg.model {
            fields.push(("model", Json::from(m.as_str())));
        }
        fields.push(("source", Json::from(source)));
        let v = self.request_node(&node.addr, &obj(fields))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request rejected")
                .to_string());
        }
        let model = v
            .get("model")
            .and_then(Json::as_str)
            .ok_or("response missing `model`")?
            .to_string();
        let got_hash = v
            .get("checkpoint_hash")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("response missing `checkpoint_hash`")?;
        self.verify_version(node, &model, got_hash)?;
        Ok(FleetResponse {
            node: node.node.clone(),
            checkpoint_hash: got_hash,
            source: v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("response missing `source`")?
                .to_string(),
            loops: v.get("loops").cloned().unwrap_or(Json::Null),
        })
    }

    /// The zero-wrong-version guarantee: the hash stamped on a response
    /// must match what the registry advertises for that node+model. A
    /// mismatch forces a re-resolve — if the *fresh* advertisement
    /// confirms the new hash the node legitimately hot-swapped and the
    /// response is accepted; otherwise the response is rejected and the
    /// request fails over.
    fn verify_version(&self, node: &ResolvedNode, model: &str, got: u64) -> Result<(), String> {
        match node.hash_of(model) {
            Some(expected) if expected == got => Ok(()),
            advertised => {
                if let Ok(fresh) = self.ensure_nodes(true) {
                    let confirmed = fresh
                        .iter()
                        .find(|n| n.node == node.node)
                        .and_then(|n| n.hash_of(model));
                    if confirmed == Some(got) {
                        return Ok(());
                    }
                }
                self.stats
                    .version_mismatches
                    .fetch_add(1, Ordering::Relaxed);
                Err(format!(
                    "version mismatch on {model}: got {got:016x}, advertised {}",
                    match advertised {
                        Some(h) => format!("{h:016x}"),
                        None => "nothing".to_string(),
                    }
                ))
            }
        }
    }

    /// One request/response against a node, using (and on failure
    /// discarding) the cached connection for its address.
    fn request_node(&self, addr: &str, body: &Json) -> Result<Json, String> {
        let mut conns = self.conns.lock();
        if !conns.contains_key(addr) {
            conns.insert(addr.to_string(), None);
        }
        let conn = conns.get_mut(addr).expect("slot just ensured");
        round_trip(conn, addr, &body.render(), &self.limits)
    }
}

/// FNV-1a over the source text — the hash the hub uses for its A/B
/// routing key, so routing stays deterministic across client restarts.
fn route_key(source: &str) -> u64 {
    let mut h = nvc_obs::Fnv1a::new();
    h.write(source.as_bytes());
    h.finish()
}

/// Picks the starting node index for a request: the route key selects a
/// slot in proportion to each node's advertised weight for `model` (any
/// model when `None`; zero-weight canaries count as weight 1 so an
/// all-canary fleet still serves). Deterministic, so a given source
/// keeps hitting the same node's warm cache while the node set is
/// stable.
pub(crate) fn pick_start(nodes: &[ResolvedNode], model: Option<&str>, route_key: u64) -> usize {
    if nodes.is_empty() {
        return 0;
    }
    let weight_of = |n: &ResolvedNode| -> u64 {
        let w: u64 = n
            .models
            .iter()
            .filter(|ad| model.is_none_or(|m| ad.model == m))
            .map(|ad| u64::from(ad.weight))
            .sum();
        w.max(1)
    };
    let total: u64 = nodes.iter().map(weight_of).sum();
    // Same spread trick as the hub's A/B router: a multiplicative mix
    // of the route key modulo the total weight.
    let mut slot = route_key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % total;
    for (i, n) in nodes.iter().enumerate() {
        let w = weight_of(n);
        if slot < w {
            return i;
        }
        slot -= w;
    }
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelAd;

    fn node(name: &str, weight: u32) -> ResolvedNode {
        ResolvedNode {
            node: name.to_string(),
            addr: format!("127.0.0.1:1{name}"),
            age_ms: 0,
            models: vec![ModelAd {
                model: "prod".into(),
                checkpoint_hash: 0xAB,
                weight,
            }],
        }
    }

    #[test]
    fn pick_start_is_deterministic_and_weight_proportional() {
        let nodes = vec![node("a", 3), node("b", 1)];
        let mut counts = [0usize; 2];
        for key in 0..4000u64 {
            let i = pick_start(&nodes, Some("prod"), key);
            assert_eq!(i, pick_start(&nodes, Some("prod"), key), "deterministic");
            counts[i] += 1;
        }
        // 3:1 split with generous tolerance.
        assert!(counts[0] > counts[1] * 2, "weights respected: {counts:?}");
        assert!(counts[1] > 0, "light node still sees traffic: {counts:?}");
    }

    /// Grabs a loopback port that nothing listens on (bind, read, drop)
    /// so connection attempts fail instantly with "refused".
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        addr
    }

    #[test]
    fn error_path_skips_the_trailing_backoff_sleep() {
        let backoff_ms = 150u64;
        let cfg = FleetConfig::new("127.0.0.1:1") // never contacted
            .with_model("prod")
            .with_backoff_ms(backoff_ms)
            .with_resolve_ttl_ms(3_600_000);
        let client = FleetClient::new(cfg);
        // Seed the resolution cache directly: two dead nodes, fresh TTL,
        // so vectorize never talks to a registry.
        let dead: Vec<ResolvedNode> = ["a", "b"]
            .iter()
            .map(|n| ResolvedNode {
                node: n.to_string(),
                addr: dead_addr(),
                age_ms: 0,
                models: vec![ModelAd {
                    model: "prod".into(),
                    checkpoint_hash: 0xAB,
                    weight: 1,
                }],
            })
            .collect();
        *client.nodes.lock() = (dead, Some(Instant::now()));

        let t = Instant::now();
        let err = client.vectorize("int f(){return 0;}");
        let elapsed = t.elapsed();
        assert!(matches!(err, Err(FleetError::PeersExhausted(_))));
        // Two attempts → exactly one backoff between them; a trailing
        // sleep after the final failure would push this past 2×.
        assert!(
            elapsed >= Duration::from_millis(backoff_ms),
            "missing inter-attempt backoff: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(2 * backoff_ms),
            "trailing backoff slept after the final attempt: {elapsed:?}"
        );
        assert_eq!(client.stats().failovers, 1, "one backoff, not two");
    }

    /// A peer that completes the TCP handshake (the kernel does, from the
    /// listen backlog) and then never reads or writes.
    fn stalled_peer() -> (std::net::TcpListener, String) {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        (l, addr)
    }

    const SHORT: PeerLimits = PeerLimits {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_millis(150),
        max_response_bytes: 1024,
    };

    #[test]
    fn a_peer_that_never_answers_is_an_error_within_the_timeout() {
        let (_stalled, addr) = stalled_peer();
        let mut conn = None;
        let t = Instant::now();
        let got = round_trip(&mut conn, &addr, "{\"op\":\"ping\"}", &SHORT);
        let elapsed = t.elapsed();
        assert!(got.is_err(), "a silent peer must not look like an answer");
        assert!(conn.is_none(), "the failed connection is not kept");
        assert!(
            elapsed >= SHORT.io_timeout && elapsed < 10 * SHORT.io_timeout,
            "one I/O timeout, no retry: {elapsed:?}"
        );

        // The cap: a peer answering more than `max_response_bytes`
        // without a newline is cut off, not buffered.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let flood = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let _ = s.write_all(&vec![b'x'; 4096]);
        });
        let got = round_trip(&mut None, &addr, "{}", &SHORT);
        assert!(got.unwrap_err().contains("longer than 1024 bytes"));
        flood.join().unwrap();
    }

    #[test]
    fn a_stalled_node_is_failed_over_like_a_dead_one() {
        let (_stalled, stalled_addr) = stalled_peer();
        let live = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap().to_string();
        let answer = std::thread::spawn(move || {
            let (stream, _) = live.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            reader
                .get_mut()
                .write_all(
                    b"{\"ok\":true,\"model\":\"prod\",\"checkpoint_hash\":\"00000000000000ab\",\
                      \"source\":\"decided\",\"loops\":[],\"latency_us\":1}\n",
                )
                .unwrap();
        });

        let cfg = FleetConfig::new("127.0.0.1:1") // never contacted
            .with_model("prod")
            .with_backoff_ms(1)
            .with_resolve_ttl_ms(3_600_000);
        let mut client = FleetClient::new(cfg);
        client.limits = SHORT;
        let mut nodes = vec![node("stalled", 1), node("live", 1)];
        nodes[0].addr = stalled_addr;
        nodes[1].addr = live_addr;
        // A source the weighted split starts on the stalled node.
        let source = (0..64)
            .map(|i| format!("int f{i}(){{return 0;}}"))
            .find(|s| pick_start(&nodes, Some("prod"), route_key(s)) == 0)
            .expect("some source routes to node 0");
        *client.nodes.lock() = (nodes, Some(Instant::now()));

        let t = Instant::now();
        let resp = client.vectorize(&source).expect("the live node answers");
        assert_eq!(
            (resp.node.as_str(), resp.source.as_str()),
            ("live", "decided")
        );
        assert_eq!(client.stats().failovers, 1);
        assert!(t.elapsed() < 10 * SHORT.io_timeout, "{:?}", t.elapsed());
        answer.join().unwrap();
    }

    #[test]
    fn pick_start_handles_canaries_and_unknown_models() {
        // All-zero weights must not divide by zero and must still route.
        let nodes = vec![node("a", 0), node("b", 0)];
        let picked: std::collections::HashSet<usize> = (0..100u64)
            .map(|k| pick_start(&nodes, Some("prod"), k))
            .collect();
        assert_eq!(picked.len(), 2, "both canaries reachable");
        // A model nobody advertises falls back to uniform weight 1.
        let i = pick_start(&nodes, Some("ghost"), 7);
        assert!(i < nodes.len());
        assert_eq!(pick_start(&[], Some("prod"), 7), 0);
    }
}
