//! Extension experiment: fleet warm-join throughput over loopback TCP.
//!
//! When a node joins a serving fleet it can either start cold — paying
//! a full embedding + policy forward for every distinct loop shape the
//! fleet has already decided — or warm-join: pull the decision-cache
//! image from a live peer (the hub `cache_export` verb) and serve those
//! decisions as cache hits from request one. This bench measures that
//! difference end to end through the real TCP transport with the
//! paper-sized model (340-dim code vectors, 64×64 policy):
//!
//! 1. **warm peer** — a node that has already served the workload;
//! 2. **cold join** — a fresh node with the same checkpoint and an
//!    empty cache answers the workload from scratch;
//! 3. **warm join** — another fresh node first runs
//!    `warm_from_peers` against the warm peer, then answers the same
//!    workload entirely from the transferred cache.
//!
//! Acceptance: warm-join req/s ≥ 2× cold-join req/s, the transfer
//! really happened (entries ≥ workload size), and the warm-joined node
//! ran **zero** model batches. A fleet-routing section then drives the
//! same workload through `FleetClient` (registry resolve → weighted
//! pick → failover) across both live nodes and asserts zero
//! wrong-version decisions. Results land in `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p nv-bench --bin ext_fleet_throughput
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use neurovectorizer::{
    AnnounceConfig, ContentStore, FleetClient, FleetConfig, Hub, HubConfig, ModelSpec,
    NeuroVectorizer, NvConfig, RegistryService, ServeConfig,
};
use nvc_datasets::generator;
use nvc_hub::server::{serve_tcp, HubHandle};
use nvc_hub::{serve_registry, spawn_announcer};
use nvc_serve::json::obj;
use nvc_serve::Json;

const ACCEPTANCE_RATIO: f64 = 2.0;
const CLIENTS: usize = 4;
const FLEET_PASSES: usize = 3;

fn model(seed: u64) -> NeuroVectorizer {
    NeuroVectorizer::new(NvConfig::paper().with_seed(seed))
}

fn start_node(nv: NeuroVectorizer) -> HubHandle {
    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default(),
    )
    .with_shared_store(Arc::new(ContentStore::default()));
    let hash = nv.checkpoint_hash();
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash,
        model: Arc::new(nv),
    })
    .expect("register");
    serve_tcp(Arc::new(hub)).expect("bind loopback")
}

/// Drives every source `passes` times from `clients` persistent TCP
/// connections straight at one hub; returns req/s.
fn drive(addr: SocketAddr, sources: &[String], clients: usize, passes: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream);
                for _ in 0..passes {
                    for src in sources {
                        let mut line = obj(vec![("source", Json::from(src.as_str()))]).render();
                        line.push('\n');
                        let s = reader.get_mut();
                        s.write_all(line.as_bytes()).unwrap();
                        s.flush().unwrap();
                        let mut response = String::new();
                        reader.read_line(&mut response).expect("response");
                        let v = Json::parse(response.trim()).expect("json");
                        assert_eq!(
                            v.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "request failed: {response}"
                        );
                    }
                }
            });
        }
    });
    (clients * passes * sources.len()) as f64 / t0.elapsed().as_secs_f64()
}

fn node_metrics(handle: &HubHandle) -> (u64, u64) {
    let entry = handle.hub().registry().get("prod").unwrap();
    let m = entry.handle.metrics();
    (m.batches, entry.handle.cache_stats().hits)
}

fn main() -> ExitCode {
    let pool = generator::generate(17, 24);
    let sources: Vec<String> = pool.iter().map(|k| k.source.clone()).collect();
    println!(
        "== ext: fleet warm-join throughput over loopback TCP ({} kernels, {CLIENTS} clients, paper-size model) ==\n",
        sources.len()
    );
    println!(
        "{:<38} {:>12} {:>10} {:>10}",
        "configuration", "req/s", "batches", "hits"
    );

    // Warm peer: serve the whole workload once so its cache holds every
    // decision the fleet knows. Distinct kernels can share a loop shape
    // (and thus a cache key), so the peer's entry count — not the kernel
    // count — is what a complete transfer must carry.
    let warm_peer = start_node(model(3));
    drive(warm_peer.addr(), &sources, CLIENTS, 1);
    let peer_entries = {
        let entry = warm_peer.hub().registry().get("prod").unwrap();
        entry.handle.cache_stats().len()
    };

    // Cold join: same checkpoint, empty cache — pays the model.
    let (cold_rps, cold_batches) = {
        let node = start_node(model(3));
        let rps = drive(node.addr(), &sources, CLIENTS, 1);
        let (batches, hits) = node_metrics(&node);
        println!(
            "{:<38} {:>12.1} {:>10} {:>10}",
            "cold join (empty cache)", rps, batches, hits
        );
        node.shutdown();
        (rps, batches)
    };

    // Warm join: gossip-transfer the peer's cache image first, then the
    // identical workload must be hits only.
    let warm_node = start_node(model(3));
    let transferred = warm_node
        .hub()
        .warm_from_peers(&[warm_peer.addr().to_string()])
        .expect("warm join");
    let (warm_rps, warm_batches) = {
        let rps = drive(warm_node.addr(), &sources, CLIENTS, 1);
        let (batches, hits) = node_metrics(&warm_node);
        println!(
            "{:<38} {:>12.1} {:>10} {:>10}",
            format!("warm join ({transferred} entries)"),
            rps,
            batches,
            hits
        );
        (rps, batches)
    };

    // Fleet routing: a registry over both live nodes, driven through
    // FleetClient (resolve → weighted pick → verify hash).
    let registry =
        serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").expect("bind registry");
    let reg_addr = registry.addr().to_string();
    let ann_a = spawn_announcer(
        Arc::clone(warm_peer.hub()),
        AnnounceConfig::new(&reg_addr, "warm-peer", warm_peer.addr().to_string()),
    );
    let ann_b = spawn_announcer(
        Arc::clone(warm_node.hub()),
        AnnounceConfig::new(&reg_addr, "warm-join", warm_node.addr().to_string()),
    );
    let (fleet_rps, fleet_requests, fleet_mismatches) = {
        // Wait until both nodes are resolvable.
        let probe = FleetClient::new(FleetConfig::new(&reg_addr).with_model("prod"));
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            probe.invalidate_resolution();
            if probe.current_nodes().map(|n| n.len()).unwrap_or(0) >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "nodes never announced");
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        let t0 = Instant::now();
        let stats: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let reg = reg_addr.clone();
                    let sources = &sources;
                    scope.spawn(move || {
                        let client = FleetClient::new(FleetConfig::new(&reg).with_model("prod"));
                        for _ in 0..FLEET_PASSES {
                            for src in sources {
                                client.vectorize(src).expect("fleet vectorize");
                            }
                        }
                        client.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let rps = (CLIENTS * FLEET_PASSES * sources.len()) as f64 / t0.elapsed().as_secs_f64();
        let requests: u64 = stats.iter().map(|s| s.requests).sum();
        let mismatches: u64 = stats.iter().map(|s| s.version_mismatches).sum();
        println!(
            "{:<38} {:>12.1} {:>10} {:>10}",
            "fleet-routed (2 nodes, registry)", rps, "-", "-"
        );
        (rps, requests, mismatches)
    };
    ann_a.stop();
    ann_b.stop();
    registry.shutdown();
    warm_node.shutdown();
    warm_peer.shutdown();

    let ratio = warm_rps / cold_rps;
    println!("\nwarm-join/cold-join speedup: {ratio:.1}x (acceptance: >= {ACCEPTANCE_RATIO:.0}x)");

    let report = obj(vec![
        ("bench", Json::from("fleet_throughput")),
        ("kernels", Json::from(sources.len())),
        ("clients", Json::from(CLIENTS)),
        ("cold_join_rps", Json::from(cold_rps)),
        ("warm_join_rps", Json::from(warm_rps)),
        ("ratio", Json::from(ratio)),
        ("acceptance_ratio", Json::from(ACCEPTANCE_RATIO)),
        ("transferred_entries", Json::from(transferred)),
        ("peer_cache_entries", Json::from(peer_entries)),
        ("cold_join_batches", Json::from(cold_batches)),
        ("warm_join_batches", Json::from(warm_batches)),
        ("fleet_routed_rps", Json::from(fleet_rps)),
        ("fleet_requests", Json::from(fleet_requests)),
        ("fleet_version_mismatches", Json::from(fleet_mismatches)),
        ("fleet_passes", Json::from(FLEET_PASSES)),
    ]);
    match std::fs::write("BENCH_fleet.json", report.render() + "\n") {
        Ok(()) => println!("wrote BENCH_fleet.json"),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }

    let mut ok = true;
    if transferred < peer_entries || transferred == 0 {
        println!("FAIL: transfer carried {transferred} entries (peer held {peer_entries})");
        ok = false;
    }
    if warm_batches != 0 {
        println!("FAIL: warm join ran {warm_batches} model batches (expected 0)");
        ok = false;
    }
    if fleet_mismatches != 0 {
        println!("FAIL: fleet routing accepted {fleet_mismatches} wrong-version decisions");
        ok = false;
    }
    if ratio < ACCEPTANCE_RATIO {
        println!("FAIL: warm-join speedup below acceptance");
        ok = false;
    }
    if ok {
        println!("PASS");
        ExitCode::SUCCESS
    } else {
        println!("(fleet_rps {fleet_rps:.1}, requests {fleet_requests})");
        ExitCode::FAILURE
    }
}
