//! What a warm hit allocates around its decision. `Hub::handle_line` on a
//! line whose every loop is cached does four things that have their own
//! owners — sampling the file (`extract_loop_samples`, which
//! `frontend_alloc.rs` bounds), parsing the request (`Json::parse`) and
//! creating the blocking wrapper's one-slot channel — and the rest is the
//! envelope: routing, keying and probing, the per-loop reports, the
//! pragma splice and the reply. The envelope writes its reply straight
//! into one buffer and splices in one pass, so it allocates a handful of
//! times per hit, not once per JSON member, key or source line.
//!
//! Its own integration-test binary, so the counting allocator
//! (`support`) sees this test's allocations and no other's.

mod support;

use std::sync::Arc;

use neurovectorizer::{Hub, HubConfig, ModelSpec, NeuroVectorizer, NvConfig, ServeConfig};
use nvc_embed::extract_loop_samples;
use nvc_obs::json::Json;
use support::allocations;

/// The envelope's budget per warm hit, on average over the pool.
const ENVELOPE_PER_HIT: f64 = 12.0;

#[test]
fn a_warm_hit_allocates_a_handful_of_times_around_its_decision() {
    // The benchmark's `hub_warm` pool, one JSON string per line, sent the
    // way its client sends them.
    let pool = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/bench/fixtures/pool.jsonl"
    ))
    .expect("the benchmark's source pool");
    let sources: Vec<String> = pool
        .lines()
        .map(|l| match Json::parse(l) {
            Ok(Json::Str(source)) => source,
            other => panic!("not a JSON string: {other:?}"),
        })
        .collect();
    let lines: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let source = Json::from(source.as_str()).render();
            format!(r#"{{"op":"vectorize","id":"{i}","model":"prod","source":{source}}}"#)
        })
        .collect();

    let cfg = NvConfig::fast();
    let hub = Hub::new(HubConfig::default(), ServeConfig::default());
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: 1,
        model: Arc::new(NeuroVectorizer::new(cfg.clone())),
    })
    .expect("register");
    for line in &lines {
        let (reply, _) = hub.handle_line(line);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }

    let mut envelope = 0;
    for (line, source) in lines.iter().zip(&sources) {
        let (whole, _, (reply, _)) = allocations(|| hub.handle_line(line));
        assert!(
            reply.contains(r#""cached":true"#) && !reply.contains(r#""cached":false"#),
            "not a warm hit: {reply}"
        );
        let (sampling, _, _) = allocations(|| extract_loop_samples(source, &cfg.embed));
        let (parsing, _, _) = allocations(|| Json::parse(line));
        let (channel, _, _) = allocations(|| std::sync::mpsc::sync_channel::<(String, bool)>(1));
        envelope += whole - sampling - parsing - channel;
    }
    let per_hit = envelope as f64 / lines.len() as f64;
    eprintln!("the envelope allocates {per_hit:.1} times per warm hit");
    assert!(
        per_hit <= ENVELOPE_PER_HIT,
        "the envelope allocates {per_hit:.1} times per warm hit, over its budget of \
         {ENVELOPE_PER_HIT}"
    );
}
