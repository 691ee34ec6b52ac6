//! The TCP front-ends: `nvc hub` ([`serve_tcp`]) and `nvc registry`
//! ([`serve_registry`]).
//!
//! Both run the one line server ([`crate::line_server`]): a single
//! selector thread drives every connection nonblocking via the vendored
//! `polling` crate and answers what the service can answer without
//! blocking — for the registry, everything; for the hub, `ping` and
//! cache-hit `vectorize`, with misses completed by the batch workers and
//! a small worker pool for the verbs that block. Idle connections cost
//! zero CPU, lines are bounded, slow readers are back-pressured. What
//! this module adds per service is the handle — and, for the hub, the
//! periodic cache checkpointer.
//!
//! A `shutdown` verb from *any* client quiesces the whole service: the
//! acceptor stops, the ack is flushed, in-flight requests finish, idle
//! connections close, and (hub) models drain and the cache persists.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use nvc_fleet::RegistryService;
use nvc_obs::{Counter, Gauge};

use crate::line_server::{self, LineServer, LineService, Reply};
use crate::{Answer, Hub, INLINE_LINE_MAX};

impl Answer for Reply {
    fn send(self, response: String, keep_going: bool) {
        Reply::send(self, response, keep_going)
    }
}

impl LineService for Hub {
    fn offer(&self, line: String, reply: Reply) -> Option<(String, Reply)> {
        let begun = if line.len() > INLINE_LINE_MAX {
            Err(reply)
        } else {
            self.begin(&line, false, reply)
        };
        match begun {
            Ok(queued) => {
                self.requests.inc();
                match queued {
                    false => self.lines_on_selector.inc(),
                    true => self.lines_by_batch_worker.inc(),
                }
                None
            }
            Err(reply) => {
                self.lines_to_request_worker.inc();
                Some((line, reply))
            }
        }
    }
    fn end_of_event(&self) {
        self.wake_batchers()
    }
    fn handle_line(&self, line: &str) -> (String, bool) {
        Hub::handle_line(self, line)
    }
    fn is_shutting_down(&self) -> bool {
        Hub::is_shutting_down(self)
    }
    fn shutdown(&self) {
        Hub::shutdown(self)
    }
    fn connections(&self) -> &Counter {
        &self.connections
    }
    fn active_connections(&self) -> &Gauge {
        &self.active_connections
    }
}

impl LineService for RegistryService {
    /// Every registry verb is an in-memory table lookup (a heartbeat per
    /// node per second, a resolve per client per TTL window): answered
    /// where its bytes arrive, so the registry runs no request worker.
    fn offer(&self, line: String, reply: Reply) -> Option<(String, Reply)> {
        let (response, keep_going) = RegistryService::handle_line(self, &line);
        reply.send(response, keep_going);
        None
    }
    fn handle_line(&self, line: &str) -> (String, bool) {
        RegistryService::handle_line(self, line)
    }
    fn is_shutting_down(&self) -> bool {
        RegistryService::is_shutting_down(self)
    }
    fn shutdown(&self) {
        RegistryService::shutdown(self)
    }
    fn connections(&self) -> &Counter {
        RegistryService::connections(self)
    }
    fn active_connections(&self) -> &Gauge {
        RegistryService::active_connections(self)
    }
}

/// The registry's per-connection output bound — the hub's default.
const REGISTRY_MAX_OUTPUT_BUFFER: usize = 256 * 1024;

/// A running hub server. Dropping the handle shuts the hub down (drain +
/// persist) and joins every thread.
pub struct HubHandle {
    hub: Arc<Hub>,
    addr: SocketAddr,
    server: LineServer,
    /// The periodic cache checkpointer (crash-loss bound), when
    /// `cache_checkpoint_secs` and a cache path are both configured.
    checkpointer: Mutex<Option<JoinHandle<()>>>,
}

/// Spawns the background cache checkpointer when configured: every
/// `cache_checkpoint_secs` the full cache image is rewritten through
/// the same temp-file + rename path the shutdown persist uses, so a
/// crash (or [`HubHandle::abort`]) loses at most one interval of
/// decisions.
fn spawn_checkpointer(hub: &Arc<Hub>) -> Option<JoinHandle<()>> {
    let interval_secs = hub.config().cache_checkpoint_secs;
    if interval_secs == 0 || hub.config().cache_path.is_none() {
        return None;
    }
    let hub = Arc::clone(hub);
    let interval = Duration::from_secs(interval_secs);
    Some(
        std::thread::Builder::new()
            .name("nvc-hub-checkpoint".to_string())
            .spawn(move || loop {
                // Sleep in short steps so shutdown is noticed promptly.
                let mut remaining = interval;
                while !remaining.is_zero() {
                    if hub.is_shutting_down() {
                        return;
                    }
                    let step = remaining.min(Duration::from_millis(100));
                    std::thread::sleep(step);
                    remaining = remaining.saturating_sub(step);
                }
                if hub.is_shutting_down() {
                    return;
                }
                match hub.persist_cache() {
                    Ok(()) => hub.cache_checkpoints.inc(),
                    Err(e) => eprintln!("nvc hub: cache checkpoint failed (will retry): {e}"),
                }
            })
            .expect("spawn hub checkpoint thread"),
    )
}

/// Binds `hub.config().listen` and starts serving.
///
/// # Errors
///
/// Returns the bind error (address in use, bad address syntax, …).
pub fn serve_tcp(hub: Arc<Hub>) -> std::io::Result<HubHandle> {
    let listener = TcpListener::bind(&hub.config().listen)?;
    serve_on(hub, listener)
}

/// Starts serving on an already-bound listener (tests bind port 0 and
/// read the ephemeral address back).
///
/// # Errors
///
/// Returns an error when the listener cannot report its local address
/// or switch to nonblocking mode, or a thread cannot be spawned.
pub fn serve_on(hub: Arc<Hub>, listener: TcpListener) -> std::io::Result<HubHandle> {
    let addr = listener.local_addr()?;
    let server = line_server::serve(
        Arc::clone(&hub) as Arc<dyn LineService>,
        listener,
        "nvc-hub",
        hub.config().request_threads.max(1),
        hub.config().max_output_buffer,
    )?;
    let checkpointer = Mutex::new(spawn_checkpointer(&hub));
    Ok(HubHandle {
        hub,
        addr,
        server,
        checkpointer,
    })
}

impl HubHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub being served.
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
    }

    /// Shuts the whole tier down: hub drain + cache persist, then joins
    /// every server thread. Idempotent.
    pub fn shutdown(&self) {
        self.hub.shutdown();
        self.join_threads();
    }

    /// Crash simulation ([`Hub::abort`] plus thread teardown): every
    /// loop exits but the final cache persist is *skipped* — only what
    /// the periodic checkpointer already wrote survives, exactly like a
    /// process kill. Resilience tests use this to measure crash loss.
    pub fn abort(&self) {
        self.hub.abort();
        self.join_threads();
    }

    fn join_threads(&self) {
        if let Some(ckpt) = self.checkpointer.lock().take() {
            let _ = ckpt.join();
        }
        self.server.join();
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running registry server. Dropping the handle shuts it down and
/// joins every thread.
pub struct RegistryHandle {
    service: Arc<RegistryService>,
    addr: SocketAddr,
    server: LineServer,
}

/// Binds `listen` and starts the registry.
///
/// # Errors
///
/// Returns the bind error (address in use, bad syntax, …).
pub fn serve_registry(
    service: Arc<RegistryService>,
    listen: &str,
) -> std::io::Result<RegistryHandle> {
    let listener = TcpListener::bind(listen)?;
    serve_registry_on(service, listener)
}

/// Starts the registry on an already-bound listener (tests bind port 0
/// and read the ephemeral address back).
///
/// # Errors
///
/// Returns an error when the listener cannot report its local address
/// or switch to nonblocking mode, or a thread cannot be spawned.
pub fn serve_registry_on(
    service: Arc<RegistryService>,
    listener: TcpListener,
) -> std::io::Result<RegistryHandle> {
    let addr = listener.local_addr()?;
    let server = line_server::serve(
        Arc::clone(&service) as Arc<dyn LineService>,
        listener,
        "nvc-registry",
        0, // `offer` answers every verb
        REGISTRY_MAX_OUTPUT_BUFFER,
    )?;
    Ok(RegistryHandle {
        service,
        addr,
        server,
    })
}

impl RegistryHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service being served.
    pub fn service(&self) -> &Arc<RegistryService> {
        &self.service
    }

    /// Stops accepting, closes connections, joins every thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.service.shutdown();
        self.server.join();
    }
}

impl Drop for RegistryHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{stub_spec, SRC};
    use crate::HubConfig;
    use nvc_serve::{Json, ServeConfig};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn start(models: &[(&str, u32, usize)]) -> HubHandle {
        let cfg = HubConfig::default().with_listen("127.0.0.1:0");
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        for &(name, weight, tag) in models {
            hub.register(stub_spec(name, weight, tag)).unwrap();
        }
        serve_tcp(Arc::new(hub)).expect("bind loopback")
    }

    fn start_registry() -> RegistryHandle {
        serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").expect("bind loopback")
    }

    /// One request/response over a fresh connection.
    fn roundtrip(addr: SocketAddr, line: &str) -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        read_json(&mut BufReader::new(stream))
    }

    fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).expect("parse response")
    }

    fn is_pong(v: &Json) -> bool {
        v.get("pong").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn tcp_ping_and_vectorize() {
        let handle = start(&[("m", 1, 0)]);
        let v = roundtrip(handle.addr(), r#"{"op":"ping"}"#);
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        let v = roundtrip(handle.addr(), &req);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("model").unwrap().as_str(), Some("m"));
        assert!(v
            .get("source")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("#pragma clang loop"));
    }

    /// What the transport cases need from a running service of either
    /// kind.
    trait Served {
        fn addr(&self) -> SocketAddr;
        fn active_connections(&self) -> i64;
        fn stop(&self);
        fn is_shutting_down(&self) -> bool;
    }

    impl Served for HubHandle {
        fn addr(&self) -> SocketAddr {
            HubHandle::addr(self)
        }
        fn active_connections(&self) -> i64 {
            self.hub().active_connections.get()
        }
        fn stop(&self) {
            self.shutdown()
        }
        fn is_shutting_down(&self) -> bool {
            self.hub().is_shutting_down()
        }
    }

    impl Served for RegistryHandle {
        fn addr(&self) -> SocketAddr {
            RegistryHandle::addr(self)
        }
        fn active_connections(&self) -> i64 {
            self.service().active_connections().get()
        }
        fn stop(&self) {
            self.shutdown()
        }
        fn is_shutting_down(&self) -> bool {
            self.service().is_shutting_down()
        }
    }

    /// Both verb sets answer `ping` and ignore its extra members, so the
    /// cases below speak only that.
    const PING: &str = r#"{"op":"ping"}"#;

    /// A request split mid-JSON across two writes reassembles, and a
    /// second request sent behind it is answered second.
    fn split_request_across_reads(s: &dyn Served) {
        let mut stream = TcpStream::connect(s.addr()).unwrap();
        let req = format!(r#"{{"op":"ping","id":"{}"}}"#, "a".repeat(200));
        let (head, tail) = req.split_at(req.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(tail.as_bytes()).unwrap();
        stream
            .write_all(b"\n{\"op\":\"ping\",\"id\":\"second\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        assert!(is_pong(&read_json(&mut reader)), "split request lost");
        assert!(is_pong(&read_json(&mut reader)));
    }

    /// A peer dripping one byte at a time must still get its response:
    /// partial lines survive arbitrarily many selector wakeups.
    fn slow_loris_single_byte_writes(s: &dyn Served) {
        let mut stream = TcpStream::connect(s.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for b in PING.as_bytes().iter().chain(b"\n") {
            stream.write_all(std::slice::from_ref(b)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(is_pong(&read_json(&mut BufReader::new(stream))));
    }

    /// A single line far larger than the read chunk (8 KiB) spans many
    /// reads; the buffer must grow and the line dispatch exactly once.
    fn giant_line_spanning_many_read_chunks(s: &dyn Served) {
        let pad = "x".repeat(64 * 1024);
        let line = format!(r#"{{"op":"ping","pad":"{pad}"}}"#);
        assert!(is_pong(&roundtrip(s.addr(), &line)));
    }

    /// Two connections interleave partial writes; each must get its own
    /// answer (per-connection buffers never bleed into each other).
    fn interleaved_partial_writes_across_connections(s: &dyn Served) {
        let mut a = TcpStream::connect(s.addr()).unwrap();
        let mut b = TcpStream::connect(s.addr()).unwrap();
        a.write_all(br#"{"op":"ping","id""#).unwrap();
        b.write_all(br#"{"op":"pi"#).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        a.write_all(b":\"conn-a\"}\n").unwrap();
        b.write_all(b"ng\"}\n").unwrap();
        assert!(is_pong(&read_json(&mut BufReader::new(a))), "conn A");
        assert!(is_pong(&read_json(&mut BufReader::new(b))), "conn B");
    }

    /// Sockets dropped without any protocol goodbye must release the
    /// active-connections gauge — the selector observes EOF/error and
    /// decrements, not just the clean-close path.
    fn abruptly_dropped_sockets_release_the_gauge(s: &dyn Served) {
        let mut streams = Vec::new();
        for _ in 0..8 {
            let mut stream = TcpStream::connect(s.addr()).unwrap();
            // Prove the connection is fully established and registered.
            stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            read_json(&mut BufReader::new(stream.try_clone().unwrap()));
            streams.push(stream);
        }
        assert_eq!(s.active_connections(), 8);
        drop(streams); // no shutdown verb, no half-close dance
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.active_connections() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "gauge stuck at {} after abrupt drops",
                s.active_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A peer streaming an unterminated "line" past the bound is cut
    /// off, and the service keeps answering everyone else.
    fn overlong_line_is_cut_off_and_others_are_still_served(s: &dyn Served) {
        let mut hog = TcpStream::connect(s.addr()).unwrap();
        hog.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let block = vec![b'x'; 1 << 20];
        let mut refused = false;
        for _ in 0..=(crate::framing::MAX_LINE >> 20) {
            if hog.write_all(&block).is_err() {
                refused = true; // reset: the server already closed
                break;
            }
        }
        // Closed by the server: EOF or reset, never a response.
        let mut byte = [0u8; 1];
        assert!(
            refused || !matches!(hog.read(&mut byte), Ok(n) if n > 0),
            "the server answered an unbounded line"
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.active_connections() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the overlong peer's connection was never closed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(is_pong(&roundtrip(s.addr(), PING)));
    }

    /// The `shutdown` verb is acknowledged before the service stops.
    fn shutdown_verb_acks_then_quiesces(s: &dyn Served) {
        let v = roundtrip(s.addr(), r#"{"op":"shutdown"}"#);
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        s.stop();
        assert!(s.is_shutting_down());
    }

    /// The transport's contract, on a fresh instance of each service the
    /// shared server carries.
    #[test]
    fn transport_cases_hold_for_both_services() {
        type Case = (&'static str, fn(&dyn Served));
        let cases: [Case; 7] = [
            ("split request", split_request_across_reads),
            ("slow loris", slow_loris_single_byte_writes),
            ("giant line", giant_line_spanning_many_read_chunks),
            (
                "interleaved partial writes",
                interleaved_partial_writes_across_connections,
            ),
            ("abrupt drops", abruptly_dropped_sockets_release_the_gauge),
            (
                "overlong line",
                overlong_line_is_cut_off_and_others_are_still_served,
            ),
            ("shutdown verb", shutdown_verb_acks_then_quiesces),
        ];
        for (name, case) in cases {
            eprintln!("hub: {name}");
            case(&start(&[("m", 1, 0)]));
            eprintln!("registry: {name}");
            case(&start_registry());
        }
    }

    /// A source whose one loop has a shape no other `k` gives: `k` extra
    /// terms in the body.
    fn fresh_source(k: usize) -> String {
        let terms: String = (0..k).map(|j| format!(" + b[i] * {j}.5")).collect();
        format!(
            "float a[512]; float b[512];\nvoid f(int n) {{\n    for (int i = 0; i < n; i++) {{\n        a[i] = b[i]{terms};\n    }}\n}}"
        )
    }

    fn vectorize_request(id: &str, source: &str) -> String {
        let members = vec![("id", Json::from(id)), ("source", Json::from(source))];
        nvc_serve::json::obj(members).render()
    }

    /// `(answered_on_selector, completed_by_batch_worker,
    /// handed_to_request_worker)` as the `metrics` verb reports them.
    fn answer_paths(hub: &Hub) -> (u64, u64, u64) {
        let stats = hub.stats_json();
        let lines = stats.get("lines").expect("stats.lines");
        let n = |key: &str| lines.get(key).and_then(Json::as_f64).expect(key) as u64;
        (
            n("answered_on_selector"),
            n("completed_by_batch_worker"),
            n("handed_to_request_worker"),
        )
    }

    /// Which path answered is countable: hits and pings on the selector,
    /// misses by the batch worker, long lines and slow verbs by a request
    /// worker — and each line moves exactly one counter.
    #[test]
    fn each_line_moves_exactly_one_answer_path_counter() {
        let handle = start(&[("m", 1, 0)]);
        let hub = handle.hub();
        let vectorize = vectorize_request("v", SRC);
        let long_ping = format!(
            r#"{{"op":"ping","pad":"{}"}}"#,
            "x".repeat(crate::INLINE_LINE_MAX + 1024)
        );
        type Check = fn(&Json) -> bool;
        let served: Check = |v| v.get("ok").and_then(Json::as_bool) == Some(true);
        let refused: Check = |v| v.get("ok").and_then(Json::as_bool) == Some(false);
        type Case<'a> = (&'a str, &'a str, Check, (u64, u64, u64));
        let cases: [Case; 6] = [
            ("a miss", &vectorize, served, (0, 1, 0)),
            ("an all-hit vectorize", &vectorize, served, (1, 0, 0)),
            ("a ping", PING, is_pong, (1, 0, 0)),
            (
                "a line over the inline bound",
                &long_ping,
                is_pong,
                (0, 0, 1),
            ),
            (
                "a metrics request",
                r#"{"op":"metrics"}"#,
                served,
                (0, 0, 1),
            ),
            ("an unparsable line", "not json", refused, (1, 0, 0)),
        ];
        for (what, line, accepts, (on_selector, by_worker, handed)) in cases {
            let before = answer_paths(hub);
            let v = roundtrip(handle.addr(), line);
            assert!(accepts(&v), "{what}: {}", v.render());
            let after = answer_paths(hub);
            assert_eq!(
                (after.0 - before.0, after.1 - before.1, after.2 - before.2),
                (on_selector, by_worker, handed),
                "{what}"
            );
        }
        assert_eq!(
            hub.stats_json().get("requests").unwrap().as_f64(),
            Some(6.0)
        );
        let text = hub.render_prometheus();
        for line in [
            "hub_lines_answered_on_selector_total 3",
            "hub_lines_completed_by_batch_worker_total 1",
            "hub_lines_handed_to_request_worker_total 2",
        ] {
            assert!(text.contains(line), "exposition lacks `{line}`:\n{text}");
        }
    }

    /// Holds a thread at a known point: [`Gate::pass`] reports that it
    /// arrived, then blocks until the test sends a permit.
    struct Gate {
        arrived: parking_lot::Mutex<std::sync::mpsc::Sender<()>>,
        permits: parking_lot::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    struct GateKeeper {
        arrived: std::sync::mpsc::Receiver<()>,
        permits: std::sync::mpsc::Sender<()>,
    }

    fn gate() -> (Arc<Gate>, GateKeeper) {
        let (arrived_tx, arrived_rx) = std::sync::mpsc::channel();
        let (permit_tx, permit_rx) = std::sync::mpsc::channel();
        let gate = Gate {
            arrived: parking_lot::Mutex::new(arrived_tx),
            permits: parking_lot::Mutex::new(permit_rx),
        };
        let keeper = GateKeeper {
            arrived: arrived_rx,
            permits: permit_tx,
        };
        (Arc::new(gate), keeper)
    }

    impl Gate {
        fn pass(&self) {
            let _ = self.arrived.lock().send(());
            let _ = self.permits.lock().recv();
        }
    }

    impl GateKeeper {
        fn wait_until_held(&self) {
            self.arrived
                .recv_timeout(Duration::from_secs(10))
                .expect("nothing reached the gate");
        }
        fn let_one_pass(&self) {
            self.permits.send(()).unwrap();
        }
    }

    /// A stub whose every forward waits at a gate.
    struct GatedModel(crate::tests::StubModel, Arc<Gate>);

    impl nvc_serve::DecisionModel for GatedModel {
        fn embed_config(&self) -> &nvc_embed::EmbedConfig {
            self.0.embed_config()
        }
        fn target(&self) -> &nvc_machine::TargetConfig {
            self.0.target()
        }
        fn decide_batch(&self, samples: &[&nvc_embed::PathSample]) -> Vec<(usize, usize)> {
            self.1.pass();
            self.0.decide_batch(samples)
        }
    }

    /// Nothing holds a thread from its first byte to its last: while one
    /// miss sits in a blocked forward and the only request worker sits in
    /// a blocked `reload`, hits and pings are still answered — and a hit
    /// pipelined behind the miss waits its turn.
    #[test]
    fn a_blocked_forward_and_a_blocked_verb_stall_nobody_else() {
        let (model_gate, forwards) = gate();
        let (loader_gate, loads) = gate();
        let mut cfg = HubConfig::default().with_listen("127.0.0.1:0");
        cfg.request_threads = 1;
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1)).with_loader(Box::new(
            move |_path| {
                loader_gate.pass();
                Err("no such checkpoint".to_string())
            },
        ));
        hub.register(crate::ModelSpec {
            name: "m".to_string(),
            weight: 1,
            checkpoint_hash: 1,
            model: Arc::new(GatedModel(crate::tests::StubModel::new(0), model_gate)),
        })
        .unwrap();
        let handle = serve_tcp(Arc::new(hub)).expect("bind loopback");
        let connect = || {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        };
        let id_of = |v: &Json| v.get("id").and_then(Json::as_str).map(str::to_string);

        // Cache SRC's decision (one forward, let through).
        let (mut a, mut a_reader) = connect();
        forwards.let_one_pass();
        a.write_all((vectorize_request("warm", SRC) + "\n").as_bytes())
            .unwrap();
        assert_eq!(id_of(&read_json(&mut a_reader)).as_deref(), Some("warm"));
        forwards.wait_until_held(); // (the report of that first arrival)

        // A miss, and a hit pipelined behind it, in one write. The miss's
        // forward starts and stays at the gate.
        let pair = vectorize_request("miss", &fresh_source(3))
            + "\n"
            + &vectorize_request("hit-behind", SRC)
            + "\n";
        a.write_all(pair.as_bytes()).unwrap();
        forwards.wait_until_held();

        // A hit on a second connection is answered meanwhile…
        let (mut b, mut b_reader) = connect();
        b.write_all((vectorize_request("hit-beside", SRC) + "\n").as_bytes())
            .unwrap();
        assert_eq!(
            id_of(&read_json(&mut b_reader)).as_deref(),
            Some("hit-beside")
        );
        // …and so is a ping while the one request worker is inside a
        // reload that is going nowhere.
        let (mut c, mut c_reader) = connect();
        c.write_all(b"{\"op\":\"reload\",\"model\":\"m\",\"checkpoint\":\"x\"}\n")
            .unwrap();
        loads.wait_until_held();
        b.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert!(is_pong(&read_json(&mut b_reader)));

        // The hit behind the miss has long been decided (it was begun
        // before the forward started) and has not been written: the
        // connection's answers go out in request order.
        a_reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut early = String::new();
        assert!(
            a_reader.read_line(&mut early).is_err() && early.is_empty(),
            "answered ahead of the miss before it: {early}"
        );
        a_reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        loads.let_one_pass();
        let reloaded = read_json(&mut c_reader);
        assert_eq!(reloaded.get("ok").and_then(Json::as_bool), Some(false));
        forwards.let_one_pass();
        assert_eq!(id_of(&read_json(&mut a_reader)).as_deref(), Some("miss"));
        let behind = read_json(&mut a_reader);
        assert_eq!(id_of(&behind).as_deref(), Some("hit-behind"));
        let loops = behind.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops[0].get("cached").unwrap().as_bool(), Some(true));
    }

    /// Gossip transfer: a joining hub pulls a warm peer's cache image
    /// and serves the same sources as hits with bitwise-equal output.
    #[test]
    fn warm_from_peers_transfers_the_cache() {
        let warm = start(&[("m", 1, 7)]);
        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        let first = roundtrip(warm.addr(), &req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));

        // The export verb itself carries the section.
        let export = roundtrip(warm.addr(), r#"{"op":"cache_export"}"#);
        let sections = export.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            sections[0].get("checkpoint_hash").unwrap().as_str(),
            Some("0000000000000007")
        );
        assert!(!sections[0]
            .get("entries")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // A joining node with the same checkpoint absorbs it…
        let store = Arc::new(nvc_fleet::ContentStore::default());
        let joiner = Hub::new(
            HubConfig::default().with_listen("127.0.0.1:0"),
            ServeConfig::default().with_workers(1),
        )
        .with_shared_store(Arc::clone(&store));
        joiner.register(stub_spec("m", 1, 7)).unwrap();
        let n = joiner
            .warm_from_peers(&["127.0.0.1:1".to_string(), warm.addr().to_string()])
            .expect("dead first peer must fail over to the live one");
        assert!(n > 0, "transfer must absorb entries");
        assert!(store.len() > 0, "shared store holds the transfer");

        // …and serves the transferred decision as a hit, bitwise-equal.
        let (resp, _) = joiner.handle_line(&req);
        let v = Json::parse(&resp).unwrap();
        let loops = v.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops[0].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("source").unwrap().as_str(),
            first.get("source").unwrap().as_str(),
            "gossip-transferred decisions must be bitwise-equal"
        );

        // A hash-mismatched joiner keeps entries only in the shared
        // store (content-addressed), never in the model's own LRU.
        let mismatched = Hub::new(
            HubConfig::default().with_listen("127.0.0.1:0"),
            ServeConfig::default().with_workers(1),
        );
        mismatched.register(stub_spec("m", 1, 8)).unwrap();
        mismatched.warm_from_peers(&[warm.addr().to_string()]).ok();
        let (resp, _) = mismatched.handle_line(&req);
        let v = Json::parse(&resp).unwrap();
        let loops = v.get("loops").unwrap().as_array().unwrap();
        assert_eq!(
            loops[0].get("cached").unwrap().as_bool(),
            Some(false),
            "wrong-version entries must never serve from the LRU"
        );
    }

    /// The periodic checkpointer bounds crash loss: after an abort (no
    /// final persist) the snapshot written mid-run is all that
    /// survives — and it is present.
    #[test]
    fn periodic_checkpoint_bounds_crash_loss() {
        let dir = std::env::temp_dir().join(format!("nvc-hub-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.nvc").to_string_lossy().to_string();
        let cfg = HubConfig::default()
            .with_listen("127.0.0.1:0")
            .with_cache_path(path.clone())
            .with_cache_checkpoint_secs(1);
        let hub = Hub::new(cfg, ServeConfig::default().with_workers(1));
        hub.register(stub_spec("m", 1, 0)).unwrap();
        let handle = serve_tcp(Arc::new(hub)).unwrap();
        let req = nvc_serve::json::obj(vec![("source", Json::from(SRC))]).render();
        roundtrip(handle.addr(), &req);

        // Wait for a checkpoint to land, then crash.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.hub().cache_checkpoints.get() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "checkpointer never fired"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.abort();
        drop(handle);

        let text = std::fs::read_to_string(&path).expect("periodic snapshot must exist");
        let sections = crate::persist::parse(&text).unwrap();
        assert_eq!(sections.len(), 1);
        assert!(
            !sections[0].entries.is_empty(),
            "pre-crash decisions survive in the periodic snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The registry's own protocol over the shared server.
    mod registry {
        use super::*;
        use nvc_fleet::{ModelAd, NodeAnnouncement};

        fn start() -> RegistryHandle {
            start_registry()
        }

        fn announcement(node: &str, ttl_ms: u64) -> NodeAnnouncement {
            NodeAnnouncement {
                node: node.to_string(),
                addr: format!("127.0.0.1:9{node}"),
                models: vec![ModelAd {
                    model: "prod".into(),
                    checkpoint_hash: 0x1234,
                    weight: 1,
                }],
                ttl_ms,
            }
        }

        #[test]
        fn malformed_ttl_announce_gets_an_error_response() {
            let handle = start();
            let body = announcement("bad", 60_000)
                .to_json()
                .render()
                .replace("\"ttl_ms\":60000", "\"ttl_ms\":-5");
            let resp = roundtrip(handle.addr(), &body);
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
            assert!(resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("ttl_ms"));
            // The malformed node must not have been registered.
            let nodes = roundtrip(handle.addr(), "{\"op\":\"resolve\"}");
            assert_eq!(nodes.get("nodes").unwrap().as_array().unwrap().len(), 0);
            handle.shutdown();
        }

        #[test]
        fn announce_then_resolve_over_tcp() {
            let handle = start();
            let ack = roundtrip(
                handle.addr(),
                &announcement("n1", 60_000).to_json().render(),
            );
            assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(ack.get("nodes").unwrap().as_f64(), Some(1.0));

            let v = roundtrip(handle.addr(), r#"{"op":"resolve","model":"prod"}"#);
            let nodes = v.get("nodes").unwrap().as_array().unwrap();
            assert_eq!(nodes.len(), 1);
            assert_eq!(nodes[0].get("node").unwrap().as_str(), Some("n1"));

            let v = roundtrip(handle.addr(), r#"{"op":"resolve","model":"ghost"}"#);
            assert!(v.get("nodes").unwrap().as_array().unwrap().is_empty());
        }

        #[test]
        fn ttl_expiry_over_tcp() {
            let handle = start();
            roundtrip(handle.addr(), &announcement("gone", 80).to_json().render());
            std::thread::sleep(Duration::from_millis(150));
            let v = roundtrip(handle.addr(), r#"{"op":"resolve"}"#);
            assert!(
                v.get("nodes").unwrap().as_array().unwrap().is_empty(),
                "expired announcement must not resolve"
            );
        }

        #[test]
        fn ping_stats_metrics_and_bad_input() {
            let handle = start();
            let v = roundtrip(handle.addr(), r#"{"op":"ping"}"#);
            assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
            assert_eq!(v.get("service").unwrap().as_str(), Some("nvc-registry"));

            roundtrip(
                handle.addr(),
                &announcement("n1", 60_000).to_json().render(),
            );
            let v = roundtrip(handle.addr(), r#"{"op":"stats"}"#);
            assert_eq!(v.get("live_nodes").unwrap().as_f64(), Some(1.0));

            let v = roundtrip(handle.addr(), r#"{"op":"metrics"}"#);
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

            let v = roundtrip(handle.addr(), "not json at all");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            let v = roundtrip(handle.addr(), r#"{"op":"warp"}"#);
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            let v = roundtrip(handle.addr(), r#"{"op":"announce"}"#);
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        }

        #[test]
        fn shutdown_verb_quiesces_the_registry() {
            let handle = start();
            let v = roundtrip(handle.addr(), r#"{"op":"shutdown"}"#);
            assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
            handle.shutdown();
            assert!(handle.service().is_shutting_down());
            assert!(
                TcpStream::connect(handle.addr()).is_err() || {
                    // The OS may still accept into the backlog briefly; a write
                    // + read must fail or return nothing either way.
                    let mut s = TcpStream::connect(handle.addr()).unwrap();
                    s.write_all(b"{\"op\":\"ping\"}\n").ok();
                    let mut r = BufReader::new(s);
                    let mut line = String::new();
                    r.read_line(&mut line).map(|n| n == 0).unwrap_or(true)
                }
            );
        }
    }
}
