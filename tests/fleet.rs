//! Integration tests for the fleet tier: a discovery registry plus
//! several hub nodes under concurrent client fire, with node kills,
//! restarts from periodic cache checkpoints, warm-join gossip, registry
//! outage, and hot-swap reloads — asserting the fleet contract: zero
//! wrong-version decisions, failover instead of failures, and bounded
//! decision loss on crash.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neurovectorizer::{
    AnnounceConfig, FleetClient, FleetConfig, Hub, HubConfig, ModelSpec, NeuroVectorizer, NvConfig,
    ServeConfig, VectorizeEnv,
};
use nvc_datasets::generator;
use nvc_fleet::RegistryService;
use nvc_hub::serve_registry;
use nvc_hub::server::{serve_tcp, HubHandle};
use nvc_nn::KernelMode;

/// The config of every model here: `nvc serve` and `nvc hub` run the
/// fast kernels, so this tier runs them too.
fn served_config() -> NvConfig {
    NvConfig::fast().with_kernel_mode(KernelMode::Fast)
}

fn trained_checkpoint(seed: u64) -> String {
    let cfg = served_config().with_seed(seed);
    let mut env = VectorizeEnv::new(
        generator::generate(seed, 12),
        cfg.target.clone(),
        &cfg.embed,
    );
    let mut nv = NeuroVectorizer::new(cfg);
    nv.train(&mut env, 2);
    nv.checkpoint()
}

fn restored(ckpt: &str) -> NeuroVectorizer {
    let mut nv = NeuroVectorizer::new(served_config().with_seed(987));
    nv.restore(ckpt).expect("restore checkpoint");
    nv
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nvc-fleet-it-{tag}-{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// A pool of structurally distinct sources (the decision-cache key
/// hashes code2vec path contexts, so the kernels must differ in shape,
/// not just constants — the generator guarantees that).
fn sources(n: usize) -> Vec<String> {
    generator::generate(91, n)
        .into_iter()
        .map(|k| k.source)
        .collect()
}

fn start_node(
    name: &str,
    ckpt: &str,
    registry_addr: &str,
    cache_path: Option<String>,
    checkpoint_secs: u64,
) -> HubHandle {
    let nv = restored(ckpt);
    let hash = nv.checkpoint_hash();
    let mut hub_cfg = HubConfig::default()
        .with_listen("127.0.0.1:0")
        .with_cache_checkpoint_secs(checkpoint_secs);
    if let Some(path) = cache_path {
        hub_cfg = hub_cfg.with_cache_path(path);
    }
    let hub = Hub::new(hub_cfg, ServeConfig::default().with_workers(1));
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash,
        model: Arc::new(nv),
    })
    .unwrap();
    hub.restore_cache().unwrap();
    let handle = serve_tcp(Arc::new(hub)).expect("bind loopback");
    handle.announce(
        AnnounceConfig::new(registry_addr, name, handle.addr().to_string()).with_ttl_ms(600),
    );
    handle
}

fn wait_for_nodes(client: &FleetClient, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.invalidate_resolution();
        if client.current_nodes().map(|n| n.len()).unwrap_or(0) >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never reached {want} nodes"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// The headline resilience scenario: 3 nodes under concurrent client
/// fire, one killed mid-fire without a clean shutdown. Every request
/// must still succeed (failover), every accepted decision must carry
/// the expected checkpoint hash (zero wrong-version), and the killed
/// node's periodic cache checkpoint must bound its decision loss — a
/// restart from that file serves pre-crash decisions as cache hits.
#[test]
fn kill_and_restart_under_concurrent_fire() {
    let ckpt = trained_checkpoint(5);
    let expected_hash = restored(&ckpt).checkpoint_hash();
    let registry = serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").unwrap();
    let reg_addr = registry.addr().to_string();

    let victim_cache = tmp_path("victim");
    let _ = std::fs::remove_file(&victim_cache);
    let victim = start_node("victim", &ckpt, &reg_addr, Some(victim_cache.clone()), 1);
    // The survivors serve until they drop at the end of the test.
    let _survivor_a = start_node("sa", &ckpt, &reg_addr, None, 0);
    let _survivor_b = start_node("sb", &ckpt, &reg_addr, None, 0);

    let client = Arc::new(FleetClient::new(
        FleetConfig::new(&reg_addr)
            .with_model("prod")
            .with_backoff_ms(10)
            .with_resolve_ttl_ms(200),
    ));
    wait_for_nodes(&client, 3);

    let srcs = Arc::new(sources(12));
    // Pre-fire pass: warm the fleet and the victim's cache, then wait
    // for the victim's periodic checkpointer to capture it.
    for s in srcs.iter() {
        let resp = client.vectorize(s).expect("warm pass");
        assert_eq!(resp.checkpoint_hash, expected_hash);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !std::fs::metadata(&victim_cache)
        .map(|m| m.len() > 0)
        .unwrap_or(false)
    {
        assert!(Instant::now() < deadline, "victim checkpointer never fired");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Concurrent fire while the victim dies mid-flight.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let fire: Vec<_> = (0..3)
        .map(|t| {
            let client = Arc::clone(&client);
            let srcs = Arc::clone(&srcs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut done = 0usize;
                for pass in 0.. {
                    for s in srcs.iter() {
                        let resp = client
                            .vectorize(s)
                            .unwrap_or_else(|e| panic!("thread {t} pass {pass}: {e}"));
                        assert_eq!(
                            resp.checkpoint_hash, expected_hash,
                            "wrong-version decision accepted"
                        );
                        done += 1;
                    }
                    if stop.load(std::sync::atomic::Ordering::Acquire) && pass >= 2 {
                        return done;
                    }
                }
                done
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    victim.abort(); // crash: no final persist
    std::thread::sleep(Duration::from_millis(700)); // fire through TTL expiry
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total: usize = fire.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        total >= 72,
        "fire must cover every source repeatedly: {total}"
    );

    // The dead node triggered failovers but zero wrong versions.
    let stats = client.stats();
    assert_eq!(stats.requests, stats.ok, "every request must succeed");
    assert!(
        stats.failovers > 0,
        "the kill must have been felt: {stats:?}"
    );
    assert_eq!(stats.version_mismatches, 0);

    // Bounded loss: the periodic checkpoint survived the crash and a
    // restart serves pre-crash decisions as hits.
    let reborn = start_node("victim2", &ckpt, &reg_addr, Some(victim_cache.clone()), 0);
    let m = reborn.hub().registry().get("prod").unwrap();
    assert!(
        m.handle.metrics().entries_restored.get() > 0,
        "restart must restore the periodic checkpoint"
    );

    registry.shutdown();
    let _ = std::fs::remove_file(&victim_cache);
}

/// Warm-join gossip parity: a joining node pulls the warm peer's cache
/// image and must answer the same sources bitwise-identically, entirely
/// from cache, without its model computing anything new.
#[test]
fn gossip_transfer_is_bitwise_equal() {
    let ckpt = trained_checkpoint(11);
    let registry = serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").unwrap();
    let reg_addr = registry.addr().to_string();
    let warm = start_node("warm", &ckpt, &reg_addr, None, 0);

    let srcs = sources(8);
    let client = FleetClient::new(FleetConfig::new(&reg_addr).with_model("prod"));
    wait_for_nodes(&client, 1);
    let warm_answers: Vec<String> = srcs
        .iter()
        .map(|s| client.vectorize(s).unwrap().source)
        .collect();

    // Join a fresh node and gossip-transfer the warm cache into it.
    let joiner = start_node("joiner", &ckpt, &reg_addr, None, 0);
    let n = joiner
        .hub()
        .warm_from_peers(&[warm.addr().to_string()])
        .expect("warm join");
    let warm_prod = warm.hub().registry().get("prod").unwrap();
    let decided = warm_prod.handle.cache_stats().insertions;
    assert!(decided >= srcs.len() as u64);
    assert_eq!(
        n as u64, decided,
        "transfer must carry every warm entry once"
    );

    // Kill the warm node so only the joiner can answer.
    warm.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.invalidate_resolution();
        let nodes = client.current_nodes().unwrap_or_default();
        if nodes.len() == 1 && nodes[0].node == "joiner" {
            break;
        }
        assert!(Instant::now() < deadline, "warm node never expired");
        std::thread::sleep(Duration::from_millis(50));
    }

    let m = joiner.hub().registry().get("prod").unwrap();
    let batches_before = m.handle.metrics().batches.get();
    for (s, expected) in srcs.iter().zip(&warm_answers) {
        let resp = client.vectorize(s).expect("joiner must answer");
        assert_eq!(resp.node, "joiner");
        assert_eq!(
            &resp.source, expected,
            "gossip-transferred decisions must be bitwise-equal"
        );
    }
    assert_eq!(
        m.handle.metrics().batches.get(),
        batches_before,
        "every transferred decision must serve from cache, not the model"
    );

    registry.shutdown();
}

/// Registry outage: clients keep serving from the last-known-good node
/// set (stale-while-down) instead of failing.
#[test]
fn registry_outage_serves_from_stale_node_set() {
    let ckpt = trained_checkpoint(23);
    let registry = serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").unwrap();
    let reg_addr = registry.addr().to_string();
    let node = start_node("solo", &ckpt, &reg_addr, None, 0);

    let client = FleetClient::new(
        FleetConfig::new(&reg_addr)
            .with_model("prod")
            .with_resolve_ttl_ms(50),
    );
    wait_for_nodes(&client, 1);
    let srcs = sources(4);
    client.vectorize(&srcs[0]).expect("pre-outage request");

    registry.shutdown(); // the node's heartbeats now fail, which only logs
    std::thread::sleep(Duration::from_millis(120)); // let the resolution go stale

    for s in &srcs {
        client
            .vectorize(s)
            .expect("stale node set must keep serving");
    }
    assert!(
        client.stats().registry_failovers > 0,
        "the outage must be visible in stats: {:?}",
        client.stats()
    );
    node.shutdown();
}

/// Hot-swap reload: the node's announcement picks up the new checkpoint
/// hash within a heartbeat, and the client accepts the new version via
/// its re-resolve path — never serving a hash the registry doesn't
/// (eventually) confirm.
#[test]
fn reload_propagates_version_without_mismatched_decisions() {
    let ckpt_a = trained_checkpoint(31);
    let ckpt_b = trained_checkpoint(37);
    let hash_a = restored(&ckpt_a).checkpoint_hash();
    let hash_b = restored(&ckpt_b).checkpoint_hash();
    assert_ne!(hash_a, hash_b);
    let ckpt_b_path = tmp_path("reload-b.ckpt");
    std::fs::write(&ckpt_b_path, &ckpt_b).unwrap();

    let registry = serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").unwrap();
    let reg_addr = registry.addr().to_string();

    // A node with a loader, announced with a short TTL.
    let nv = restored(&ckpt_a);
    let cfg = served_config();
    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default().with_workers(1),
    )
    .with_loader(NeuroVectorizer::hub_loader(cfg));
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash_a,
        model: Arc::new(nv),
    })
    .unwrap();
    let handle = serve_tcp(Arc::new(hub)).unwrap();
    handle
        .announce(AnnounceConfig::new(&reg_addr, "n1", handle.addr().to_string()).with_ttl_ms(400));

    let client = FleetClient::new(
        FleetConfig::new(&reg_addr)
            .with_model("prod")
            .with_resolve_ttl_ms(100),
    );
    wait_for_nodes(&client, 1);
    let srcs = sources(3);
    assert_eq!(client.vectorize(&srcs[0]).unwrap().checkpoint_hash, hash_a);

    handle.hub().reload("prod", &ckpt_b_path, None).unwrap();
    // In the window between the swap and the next heartbeat the client
    // may *reject* responses (the stamp isn't registry-confirmed yet) —
    // that's the contract: error out rather than accept an unconfirmed
    // version. It must never return hash_a labelled as anything else,
    // and once the heartbeat lands it must serve hash_b.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // An error is a rejected unconfirmed version: retry.
        if let Ok(resp) = client.vectorize(&srcs[1]) {
            assert!(
                resp.checkpoint_hash == hash_a || resp.checkpoint_hash == hash_b,
                "impossible hash {:016x}",
                resp.checkpoint_hash
            );
            if resp.checkpoint_hash == hash_b {
                break;
            }
        }
        assert!(Instant::now() < deadline, "new version never served");
        std::thread::sleep(Duration::from_millis(50));
    }

    registry.shutdown();
    let _ = std::fs::remove_file(&ckpt_b_path);
}
