//! End-to-end online-learning tests: a hub serving a real trained
//! champion ingests measured rewards over the `report` verb, fine-tunes
//! a challenger in-process, canaries it through the A/B registry, and
//! promotes (or refuses to promote) it — all without restarting the
//! hub.
//!
//! Artifacts (the learning journal and the promotion log) are written
//! under `target/learning/` so CI can upload them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use neurovectorizer::{
    Hub, HubConfig, LearnConfig, LearnEvent, ModelSpec, NeuroVectorizer, NvConfig, ServeConfig,
    VectorizeEnv,
};
use nvc_datasets::generator;
use nvc_hub::server::{serve_tcp, HubHandle};
use nvc_nn::KernelMode;
use nvc_obs::Json;

/// Directory the CI workflow uploads as the `learning-artifacts`
/// bundle.
fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/learning");
    std::fs::create_dir_all(&dir).expect("create target/learning");
    dir
}

fn trained_champion(seed: u64) -> (NvConfig, NeuroVectorizer) {
    // `nvc hub` runs the fast kernels, and so does this tier.
    let cfg = NvConfig::fast()
        .with_seed(seed)
        .with_kernel_mode(KernelMode::Fast);
    let mut env = VectorizeEnv::new(
        generator::generate(seed, 12),
        cfg.target.clone(),
        &cfg.embed,
    );
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.train(&mut env, 2);
    (cfg, nv)
}

fn restored(cfg: &NvConfig, ckpt_path: &str) -> NeuroVectorizer {
    let text = std::fs::read_to_string(ckpt_path).expect("read checkpoint");
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.restore(&text).expect("restore checkpoint");
    nv
}

/// A learning hub over loopback TCP: real champion, real
/// `challenger_trainer`, journal + promotion log under
/// `target/learning/{tag}-*.jsonl`.
fn start_learning_hub(tag: &str, seed: u64) -> (NvConfig, HubHandle, String) {
    let dir = artifact_dir();
    let journal = dir.join(format!("{tag}-journal.jsonl"));
    let promotions = dir.join(format!("{tag}-promotions.jsonl"));
    let champion_ckpt = dir.join(format!("{tag}-champion.ckpt"));
    let challenger_ckpt = dir.join(format!("{tag}-challenger.ckpt"));
    // Stale state from a previous run must not replay into this one.
    for p in [&journal, &promotions, &challenger_ckpt] {
        let _ = std::fs::remove_file(p);
    }

    let (cfg, champ) = trained_champion(seed);
    std::fs::write(&champion_ckpt, champ.checkpoint()).expect("write champion checkpoint");

    let lcfg = LearnConfig {
        journal_path: journal.to_string_lossy().into_owned(),
        promotion_log_path: Some(promotions.to_string_lossy().into_owned()),
        champion: "prod".to_string(),
        challenger: "challenger".to_string(),
        champion_checkpoint: champion_ckpt.to_string_lossy().into_owned(),
        challenger_checkpoint: challenger_ckpt.to_string_lossy().into_owned(),
        min_reports: 20,
        min_cohort: 6,
    };
    let ckpt_path = champion_ckpt.to_string_lossy().into_owned();
    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default(),
    )
    .with_loader(NeuroVectorizer::hub_loader(cfg.clone()))
    .with_learning(lcfg, NeuroVectorizer::challenger_trainer(cfg.clone(), 4))
    .expect("enable learning");
    let nv = restored(&cfg, &ckpt_path);
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 3,
        checkpoint_hash: nv.checkpoint_hash(),
        model: Arc::new(nv),
    })
    .unwrap();
    let handle = serve_tcp(Arc::new(hub)).expect("bind loopback");
    (cfg, handle, ckpt_path)
}

fn request(reader: &mut BufReader<TcpStream>, members: Vec<(&str, Json)>) -> Json {
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

/// Vectorizes every drift source against `model` and returns one
/// `(source, loop key)` pair per decided loop.
fn mint_keys(
    conn: &mut BufReader<TcpStream>,
    model: &str,
    sources: &[String],
) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    for src in sources {
        let v = request(
            conn,
            vec![
                ("op", Json::from("vectorize")),
                ("model", Json::from(model)),
                ("source", Json::from(src.as_str())),
            ],
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        for l in v.get("loops").unwrap().as_array().unwrap() {
            let key = l.get("key").unwrap().as_str().unwrap().to_string();
            pairs.push((src.clone(), key));
        }
    }
    pairs
}

/// Deterministic per-report jitter in `[-0.05, 0.05]` so reward cohorts
/// have nonzero variance (a Welch z needs one).
fn jitter(i: usize) -> f64 {
    ((i.wrapping_mul(2654435761) % 97) as f64 / 97.0 - 0.5) * 0.1
}

/// Posts `count` reports for `model`, cycling over the minted keys,
/// centered on `reward`. Includes `source` so keys re-correlate even
/// when they have aged out of the serving warm set.
fn report(
    conn: &mut BufReader<TcpStream>,
    model: &str,
    pairs: &[(String, String)],
    reward: f64,
    count: usize,
    salt: usize,
) {
    for i in 0..count {
        let (src, key) = &pairs[i % pairs.len()];
        let v = request(
            conn,
            vec![
                ("op", Json::from("report")),
                ("model", Json::from(model)),
                ("key", Json::from(key.as_str())),
                ("reward", Json::from(reward + jitter(i + salt))),
                ("source", Json::from(src.as_str())),
            ],
        );
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "report refused: {}",
            v.render()
        );
        assert_eq!(v.get("recorded").and_then(Json::as_bool), Some(true));
    }
}

/// The acceptance e2e: injected drift (a loop family the champion never
/// trained on) is recovered — reports journaled, challenger fine-tuned
/// from the champion's weights, canaried through the A/B split, and
/// promoted — with the hub serving throughout (no restart: one
/// `HubHandle`, one listener, start to finish).
#[test]
fn injected_drift_is_recovered_without_restarting_the_hub() {
    let (_cfg, handle, _ckpt) = start_learning_hub("drift", 42);
    let hub = Arc::clone(handle.hub());
    let mut conn = connect(handle.addr());
    let champion_hash = hub.registry().get("prod").unwrap().checkpoint_hash;

    // Drift: a different generator seed yields loop shapes the champion
    // never saw in training. Serve them (minting correlation keys) and
    // report poor measured rewards for the champion's decisions.
    let drift: Vec<String> = generator::generate(4242, 12)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let pairs = mint_keys(&mut conn, "prod", &drift);
    assert!(!pairs.is_empty(), "drift sources must contain loops");
    report(&mut conn, "prod", &pairs, -0.5, 20, 0);

    // Controller step 1: the corpus crossed `min_reports`, so the
    // background trainer fine-tunes a challenger from the champion's
    // checkpoint and deploys it at canary weight.
    let events = hub.learn_step();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, LearnEvent::Trained { reports: 20 })),
        "expected a fine-tune, got {events:?}"
    );
    let canary_hash = events
        .iter()
        .find_map(|e| match e {
            LearnEvent::Canary { checkpoint_hash } => Some(*checkpoint_hash),
            _ => None,
        })
        .expect("challenger must canary");
    let chall = hub.registry().get("challenger").expect("canary registered");
    assert_eq!(chall.weight, 1);
    assert_eq!(chall.checkpoint_hash, canary_hash);
    assert_ne!(canary_hash, champion_hash, "fine-tune must change weights");

    // A/B: the challenger measures clearly better on the drifted
    // traffic. Fewer than `min_reports` new observations arrive before
    // the verdict, so the cadence guard keeps this cohort live.
    report(&mut conn, "challenger", &pairs, 0.5, 8, 100);
    let events = hub.learn_step();
    let (z, promoted_hash) = events
        .iter()
        .find_map(|e| match e {
            LearnEvent::Promoted { z, checkpoint_hash } => Some((*z, *checkpoint_hash)),
            _ => None,
        })
        .expect("winning challenger must promote");
    assert!(z >= 2.0, "promotion z {z} must clear the threshold");
    assert_eq!(promoted_hash, canary_hash);
    eprintln!("drift e2e: promoted challenger {promoted_hash:016x} at z = {z:+.1}");

    // The champion entry now serves the challenger's weights — same
    // name, same A/B weight, new content — and the canary is parked.
    let champ = hub.registry().get("prod").unwrap();
    assert_eq!(champ.checkpoint_hash, canary_hash);
    assert_eq!(champ.weight, 3);
    assert_eq!(hub.registry().get("challenger").unwrap().weight, 0);

    // Still serving on the same connection: responses stamp the
    // promoted hash.
    let v = request(
        &mut conn,
        vec![
            ("op", Json::from("vectorize")),
            ("model", Json::from("prod")),
            ("source", Json::from(drift[0].as_str())),
        ],
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("checkpoint_hash").unwrap().as_str(),
        Some(format!("{canary_hash:016x}").as_str())
    );

    // Durable artifacts: every report is journaled, and the promotion
    // log recorded the full lifecycle.
    let journal =
        std::fs::read_to_string(hub.learning().unwrap().config().journal_path.clone()).unwrap();
    assert_eq!(journal.lines().count(), 28, "20 champion + 8 challenger");
    let log = std::fs::read_to_string(
        hub.learning()
            .unwrap()
            .config()
            .promotion_log_path
            .clone()
            .unwrap(),
    )
    .unwrap();
    for event in [
        "\"event\":\"trained\"",
        "\"event\":\"canary\"",
        "\"event\":\"promoted\"",
    ] {
        assert!(log.contains(event), "promotion log missing {event}: {log}");
    }

    handle.shutdown();
}

/// Promotion safety, end to end: a challenger that measures *worse* on
/// live traffic is demoted to weight 0 and the champion's weights never
/// change — across several report/verdict rounds with noisy rewards.
#[test]
fn losing_challenger_is_never_promoted_end_to_end() {
    let (_cfg, handle, _ckpt) = start_learning_hub("safety", 7);
    let hub = Arc::clone(handle.hub());
    let mut conn = connect(handle.addr());
    let champion_hash = hub.registry().get("prod").unwrap().checkpoint_hash;

    let drift: Vec<String> = generator::generate(777, 12)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let pairs = mint_keys(&mut conn, "prod", &drift);
    report(&mut conn, "prod", &pairs, 0.5, 20, 0);
    let events = hub.learn_step();
    assert!(events
        .iter()
        .any(|e| matches!(e, LearnEvent::Canary { .. })));

    // Noisy but truly worse challenger measurements, in slices with a
    // verdict attempt after each: no round may promote.
    let mut demoted_z = None;
    for round in 0..3 {
        report(&mut conn, "challenger", &pairs, 0.1, 6, 1000 + round * 17);
        for e in hub.learn_step() {
            assert!(
                !matches!(e, LearnEvent::Promoted { .. }),
                "losing challenger promoted in round {round}"
            );
            if let LearnEvent::Demoted { z } = e {
                demoted_z.get_or_insert(z);
            }
        }
    }
    let z = demoted_z.expect("a clearly losing challenger must be demoted");
    eprintln!("safety e2e: losing challenger demoted at z = {z:+.1}, zero promotions");
    assert_eq!(hub.registry().get("challenger").unwrap().weight, 0);
    assert_eq!(
        hub.registry().get("prod").unwrap().checkpoint_hash,
        champion_hash,
        "champion weights must survive a losing challenger"
    );
    let stats = request(&mut conn, vec![("op", Json::from("stats"))]);
    let learning = stats
        .get("stats")
        .and_then(|s| s.get("learning"))
        .expect("stats exposes learning");
    assert_eq!(learning.get("promotions").and_then(Json::as_f64), Some(0.0));
    assert!(learning.get("demotions").and_then(Json::as_f64) >= Some(1.0));

    handle.shutdown();
}
