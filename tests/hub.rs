//! Integration tests for the hub tier: routing parity against a bare
//! `ServeHandle` over loopback TCP under concurrency, persistent-cache
//! restarts (same and changed checkpoint), A/B routing parity, and
//! hot-swap reload with requests — hits and misses — in flight.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use neurovectorizer::{
    Hub, HubConfig, ModelSpec, NeuroVectorizer, NvConfig, ServeConfig, VectorizeEnv,
};
use nvc_datasets::generator;
use nvc_hub::server::{serve_tcp, HubHandle};
use nvc_nn::KernelMode;
use nvc_obs::Json;

/// The config of every model here: `nvc serve` and `nvc hub` run the
/// fast kernels, so this tier runs them too.
fn served_config() -> NvConfig {
    NvConfig::fast().with_kernel_mode(KernelMode::Fast)
}

fn trained_nv(seed: u64) -> NeuroVectorizer {
    let cfg = served_config().with_seed(seed);
    let mut env = VectorizeEnv::new(
        generator::generate(seed, 12),
        cfg.target.clone(),
        &cfg.embed,
    );
    let mut nv = NeuroVectorizer::new(cfg);
    nv.train(&mut env, 2);
    nv
}

/// A fresh model restored from `ckpt` (the hub side and the bare-handle
/// side must not share an instance for parity to mean anything).
fn restored(ckpt: &str) -> NeuroVectorizer {
    let mut nv = NeuroVectorizer::new(served_config().with_seed(987));
    nv.restore(ckpt).expect("restore checkpoint");
    nv
}

fn spec(nv: NeuroVectorizer, name: &str, weight: u32) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        weight,
        checkpoint_hash: nv.checkpoint_hash(),
        model: Arc::new(nv),
    }
}

fn start_hub(cfg: HubConfig, specs: Vec<ModelSpec>) -> HubHandle {
    let hub = Hub::new(cfg, ServeConfig::default());
    for s in specs {
        hub.register(s).unwrap();
    }
    hub.restore_cache().unwrap();
    serve_tcp(Arc::new(hub)).expect("bind loopback")
}

/// Sends one vectorize request on an open connection; returns the
/// parsed response.
fn request_on(reader: &mut BufReader<TcpStream>, extra: Vec<(&str, Json)>, source: &str) -> Json {
    let mut members = vec![("source", Json::from(source))];
    members.extend(extra);
    let line = nvc_obs::json::obj(members).render();
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim()).expect("parse response")
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nvc-hub-it-{tag}-{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

#[test]
fn hub_decisions_match_bare_serve_handle_under_tcp_concurrency() {
    let nv = trained_nv(21);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(33, 10)
        .into_iter()
        .map(|k| k.source)
        .collect();

    // Ground truth: a bare in-process ServeHandle over the same weights.
    let expected: Vec<String> = {
        let handle = restored(&ckpt).serve();
        sources
            .iter()
            .map(|s| handle.vectorize(s).expect("bare vectorize").source)
            .collect()
    };

    let handle = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "prod", 1)],
    );
    let addr = handle.addr();

    // ≥ 8 concurrent client connections, every one comparing against
    // the bare-handle ground truth bitwise.
    std::thread::scope(|scope| {
        for c in 0..8 {
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let mut conn = connect(addr);
                for pass in 0..2 {
                    for (src, want) in sources.iter().zip(expected) {
                        let v = request_on(&mut conn, vec![], src);
                        assert_eq!(
                            v.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "client {c} pass {pass}: {}",
                            v.render()
                        );
                        assert_eq!(v.get("model").unwrap().as_str(), Some("prod"));
                        assert_eq!(
                            v.get("source").unwrap().as_str(),
                            Some(want.as_str()),
                            "hub decision diverged from bare ServeHandle"
                        );
                    }
                }
            });
        }
    });
    let stats = handle.hub().stats_json();
    let requests = stats
        .get("models")
        .unwrap()
        .get("prod")
        .unwrap()
        .get("requests")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(requests as u64, 8 * 2 * sources.len() as u64);
    handle.shutdown();
}

#[test]
fn warm_restart_restores_cache_and_changed_checkpoint_invalidates() {
    let nv = trained_nv(5);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(44, 6)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let cache_path = tmp_path("restart");
    let cfg = HubConfig::default()
        .with_listen("127.0.0.1:0")
        .with_cache_path(cache_path.clone());

    // Cold hub: prime the cache over TCP, then shut down (persists).
    let first_pass: Vec<String> = {
        let handle = start_hub(cfg.clone(), vec![spec(restored(&ckpt), "prod", 1)]);
        let mut conn = connect(handle.addr());
        let out = sources
            .iter()
            .map(|s| {
                let v = request_on(&mut conn, vec![], s);
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
                v.get("source").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        handle.shutdown();
        out
    };
    assert!(
        std::fs::metadata(&cache_path).is_ok(),
        "shutdown must write the cache snapshot"
    );

    // Warm restart, same checkpoint: every loop is a hit and decisions
    // are unchanged.
    {
        let handle = start_hub(cfg.clone(), vec![spec(restored(&ckpt), "prod", 1)]);
        let mut conn = connect(handle.addr());
        for (src, want) in sources.iter().zip(&first_pass) {
            let v = request_on(&mut conn, vec![], src);
            assert_eq!(v.get("source").unwrap().as_str(), Some(want.as_str()));
            for l in v.get("loops").unwrap().as_array().unwrap() {
                assert_eq!(
                    l.get("cached").unwrap().as_bool(),
                    Some(true),
                    "warm restart must serve every loop from the restored cache"
                );
            }
        }
        let prod = handle.hub().registry().get("prod").unwrap();
        let m = prod.handle.metrics();
        assert!(m.entries_restored.get() > 0, "nothing restored");
        assert_eq!(m.entries_invalidated_by_version.get(), 0);
        assert_eq!(m.batches.get(), 0, "warm restart must not run the model");
        handle.shutdown();
    }

    // Restart with a *different* checkpoint: the snapshot is versioned
    // out, nothing is served stale.
    {
        let other = trained_nv(99);
        assert_ne!(other.checkpoint_hash(), restored(&ckpt).checkpoint_hash());
        let handle = start_hub(cfg, vec![spec(other, "prod", 1)]);
        let mut conn = connect(handle.addr());
        let v = request_on(&mut conn, vec![], &sources[0]);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        for l in v.get("loops").unwrap().as_array().unwrap() {
            assert_eq!(
                l.get("cached").unwrap().as_bool(),
                Some(false),
                "stale snapshot entries must not serve under a new checkpoint"
            );
        }
        let prod = handle.hub().registry().get("prod").unwrap();
        let m = prod.handle.metrics();
        assert_eq!(m.entries_restored.get(), 0);
        assert!(
            m.entries_invalidated_by_version.get() > 0,
            "mismatch not counted"
        );
        handle.shutdown();
    }
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn ab_split_of_identical_checkpoints_matches_single_model_hub() {
    let nv = trained_nv(13);
    let ckpt = nv.checkpoint();
    let sources: Vec<String> = generator::generate(55, 8)
        .into_iter()
        .map(|k| k.source)
        .collect();

    let single = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "only", 1)],
    );
    let ab = start_hub(
        HubConfig::default().with_listen("127.0.0.1:0"),
        vec![spec(restored(&ckpt), "a", 1), spec(restored(&ckpt), "b", 1)],
    );
    let mut single_conn = connect(single.addr());
    let mut ab_conn = connect(ab.addr());
    let mut models_seen = std::collections::HashSet::new();
    for (i, src) in sources.iter().enumerate() {
        let want = request_on(&mut single_conn, vec![], src);
        // Spread the split with distinct route keys; decisions must not
        // depend on which side serves (same checkpoint both sides).
        let route = format!("client-{i}");
        let got = request_on(
            &mut ab_conn,
            vec![("route", Json::from(route.as_str()))],
            src,
        );
        assert_eq!(
            got.get("source").unwrap().as_str(),
            want.get("source").unwrap().as_str(),
            "A/B split of one checkpoint changed a decision"
        );
        models_seen.insert(got.get("model").unwrap().as_str().unwrap().to_string());
    }
    assert_eq!(
        models_seen.len(),
        2,
        "route keys never reached both sides of a 1:1 split: {models_seen:?}"
    );
    single.shutdown();
    ab.shutdown();
}

/// No thread per request: eight never-seen sources written in one
/// `write` on one connection are all in the batcher at once and ride one
/// forward — though the hub has a single request worker, which they
/// never touch. (A thread per request made this eight batches of one.)
#[test]
fn pipelined_misses_form_one_batch_with_one_request_worker() {
    let nv = trained_nv(31);
    let embed = NvConfig::fast().embed;
    // Eight sources of one loop each, no two of the same shape.
    let mut keys = std::collections::HashSet::new();
    let sources: Vec<String> = generator::generate(77, 64)
        .into_iter()
        .map(|k| k.source)
        .filter(|src| {
            let sites = nvc_embed::extract_loop_samples(src, &embed).unwrap();
            sites.len() == 1 && keys.insert(nvc_serve::sample_key(&sites[0].sample))
        })
        .take(8)
        .collect();
    assert_eq!(sources.len(), 8, "the generator ran out of shapes");

    let mut cfg = HubConfig::default().with_listen("127.0.0.1:0");
    cfg.request_threads = 1;
    let handle = start_hub(cfg, vec![spec(nv, "prod", 1)]);
    let model = handle.hub().registry().get("prod").unwrap();
    let lines = |hub: &Hub| {
        let stats = hub.stats_json();
        let lines = stats.get("lines").unwrap();
        ["completed_by_batch_worker", "handed_to_request_worker"]
            .map(|key| lines.get(key).and_then(Json::as_f64).unwrap() as u64)
    };

    let mut conn = connect(handle.addr());
    // The batch workers have been starting since `register`; a round trip
    // and a pause later they are parked, and see the eight only when the
    // selector wakes one.
    conn.get_mut().write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    conn.read_line(&mut pong).unwrap();
    assert!(pong.contains("pong"), "{pong}");
    std::thread::sleep(std::time::Duration::from_millis(50));

    let m = model.handle.metrics();
    let (batches, batched_loops) = (m.batches.get(), m.batched_loops.get());
    let lines_before = lines(handle.hub());
    let burst: String = sources
        .iter()
        .enumerate()
        .map(|(k, src)| {
            let members = vec![
                ("id", Json::from(format!("r{k}"))),
                ("source", Json::from(src.as_str())),
            ];
            nvc_obs::json::obj(members).render() + "\n"
        })
        .collect();
    conn.get_mut().write_all(burst.as_bytes()).unwrap(); // one write
    for k in 0..8 {
        let mut response = String::new();
        conn.read_line(&mut response).expect("read response");
        let v = Json::parse(response.trim()).expect("parse response");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        let want = format!("r{k}");
        assert_eq!(
            v.get("id").and_then(Json::as_str),
            Some(want.as_str()),
            "responses leave in request order"
        );
    }
    let lines_after = lines(handle.hub());
    assert_eq!(m.batched_loops.get() - batched_loops, 8);
    assert_eq!(
        m.batches.get() - batches,
        1,
        "eight misses read in one event must ride one forward"
    );
    assert_eq!(
        lines_after[0] - lines_before[0],
        8,
        "completed by the batch worker"
    );
    assert_eq!(
        lines_after[1], lines_before[1],
        "none needed the request worker"
    );

    // The distribution is on the wire, too: one batch in [8, 16).
    let mut conn = connect(handle.addr());
    conn.get_mut().write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).unwrap();
    let v = Json::parse(response.trim()).unwrap();
    let batch = v.get("stats").unwrap().get("models").unwrap();
    let batch = batch.get("prod").unwrap().get("batch").unwrap();
    assert_eq!(batch.get("size_histogram").unwrap().render(), "[[16,1]]");
    assert_eq!(batch.get("queue_depth").unwrap().as_f64(), Some(0.0));
    handle.shutdown();
}

#[test]
fn reload_hot_swaps_without_dropping_inflight_requests() {
    let nv = trained_nv(7);
    let ckpt_a = nv.checkpoint();
    let other = trained_nv(77);
    let ckpt_b = other.checkpoint();
    let dir = tmp_path("reload");
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = format!("{dir}/b.ckpt");
    std::fs::write(&path_b, &ckpt_b).unwrap();

    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default(),
    )
    .with_loader(NeuroVectorizer::hub_loader(served_config()));
    hub.register(spec(restored(&ckpt_a), "prod", 1)).unwrap();
    let old_hash = hub.registry().get("prod").unwrap().checkpoint_hash;
    // Watches the entry the reload displaces: it is gone once its worker
    // pool has been drained and joined.
    let displaced = Arc::downgrade(&hub.registry().get("prod").unwrap());
    let handle = serve_tcp(Arc::new(hub)).unwrap();
    let addr = handle.addr();

    let sources: Vec<String> = generator::generate(66, 8)
        .into_iter()
        .map(|k| k.source)
        .collect();

    // Clients hammer vectorize while another connection reloads: the
    // shared sources (hits after the first pass) interleaved with each
    // client's own never-seen ones, so misses are queued on the old
    // checkpoint's batcher, and completed by its workers, across the swap.
    std::thread::scope(|scope| {
        for client in 0..4 {
            let sources = &sources;
            scope.spawn(move || {
                let mut own = generator::generate(600 + client, 48)
                    .into_iter()
                    .map(|k| k.source);
                let mut conn = connect(addr);
                for pass in 0..6 {
                    for src in sources {
                        for src in [Some(src.clone()), own.next()].into_iter().flatten() {
                            let v = request_on(&mut conn, vec![], &src);
                            assert_eq!(
                                v.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "request dropped during reload (pass {pass}): {}",
                                v.render()
                            );
                        }
                    }
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut conn = connect(addr);
            let line = nvc_obs::json::obj(vec![
                ("op", Json::from("reload")),
                ("model", Json::from("prod")),
                ("checkpoint", Json::from(path_b.as_str())),
            ])
            .render();
            let stream = conn.get_mut();
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            conn.read_line(&mut response).unwrap();
            let v = Json::parse(response.trim()).unwrap();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "reload failed: {response}"
            );
        });
    });

    let entry = handle.hub().registry().get("prod").unwrap();
    assert_ne!(entry.checkpoint_hash, old_hash, "reload did not swap");
    // The displaced pool answered what it had queued (no client saw an
    // error) and was then joined — by the thread that replayed its warm
    // set, never by one of its own workers, which a completion holding
    // the last reference to the entry would have made it do.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while displaced.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "the displaced checkpoint's worker pool was never joined"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // And the hub now answers with the new checkpoint's decisions.
    let reference = restored(&ckpt_b).serve();
    let mut conn = connect(addr);
    for src in &sources {
        let want = reference.vectorize(src).unwrap().source;
        let got = request_on(&mut conn, vec![], src);
        assert_eq!(got.get("source").unwrap().as_str(), Some(want.as_str()));
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
