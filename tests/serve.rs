//! Integration tests for the serving subsystem: cache semantics under
//! concurrency, batched-vs-single decision parity through the full
//! trained model, and `nvc serve`'s end-to-end JSON-lines protocol (the
//! hub's, over a byte stream).

use std::sync::Arc;

use neurovectorizer::{NeuroVectorizer, NvConfig, ServeConfig, VectorizeEnv};
use nvc_datasets::generator;
use nvc_nn::KernelMode;
use nvc_obs::json::{obj, Json};
use nvc_serve::{sample_key, ShardedLruCache};

fn trained_nv(seed: u64) -> (NeuroVectorizer, VectorizeEnv) {
    // `nvc serve` and `nvc hub` run the fast kernels, and so does this tier.
    let cfg = NvConfig::fast()
        .with_seed(seed)
        .with_kernel_mode(KernelMode::Fast);
    let mut env = VectorizeEnv::new(
        generator::generate(seed, 12),
        cfg.target.clone(),
        &cfg.embed,
    );
    let mut nv = NeuroVectorizer::new(cfg);
    nv.train(&mut env, 2);
    (nv, env)
}

#[test]
fn cache_survives_concurrent_hammering() {
    // Total live keys (16 hot + 8×200 cold = 1616) stay far below every
    // shard's capacity (4096 / 8 = 512 per shard, spread ~200 each), so
    // "no evictions" is a guaranteed property: hot keys must stay
    // resident and each cold key misses exactly once, regardless of
    // thread scheduling.
    let cache: Arc<ShardedLruCache<(usize, usize)>> = Arc::new(ShardedLruCache::new(4096, 8));
    let threads = 8;
    let hot_keys: Vec<u64> = (0..16).map(|i| 0xABCD_0000 + i * 7919).collect();
    for &k in &hot_keys {
        cache.insert(k, (k as usize % 7, k as usize % 5));
    }
    let lookups_per_thread = 400u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let hot = hot_keys.clone();
            scope.spawn(move || {
                for i in 0..lookups_per_thread {
                    // Mix of shared hot keys and thread-distinct cold keys.
                    if i % 2 == 0 {
                        let k = hot[(i as usize) % hot.len()];
                        let got = cache.get(k).expect("hot key must stay resident");
                        assert_eq!(got, (k as usize % 7, k as usize % 5), "lost update");
                    } else {
                        let k = 0xF000_0000 + t as u64 * 1_000_000 + i;
                        assert!(cache.get(k).is_none());
                        cache.insert(k, (t, i as usize));
                        assert_eq!(cache.get(k), Some((t, i as usize)));
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    // Every lookup is accounted for: hits + misses == total gets issued.
    let gets = threads as u64 * lookups_per_thread * 3 / 2;
    assert_eq!(stats.hits + stats.misses, gets, "lost lookup accounting");
    // Hot keys were always hits after priming; each cold key missed once.
    let cold = threads as u64 * lookups_per_thread / 2;
    assert_eq!(stats.misses, cold);
    assert_eq!(stats.hits, gets - cold);
    assert_eq!(stats.evictions, 0, "workload must fit under capacity");
    assert_eq!(stats.len() as u64, cold + 16);
    // All shards participated.
    assert!(
        stats.occupancy.iter().all(|&o| o > 0),
        "idle shard: {:?}",
        stats.occupancy
    );
}

#[test]
fn served_decisions_match_direct_inference_bitwise() {
    let (nv, env) = trained_nv(11);
    let space = env.space().clone();
    // Ground truth: one-at-a-time greedy decisions from the trainer.
    let direct: Vec<_> = env
        .contexts()
        .iter()
        .map(|c| nv.decide(&c.sample, &space))
        .collect();
    let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();

    // Batched path through the serving layer (batch size > 1, 2 workers).
    let mut cfg = nv.config().clone();
    cfg.serve = ServeConfig::default().with_batch_size(8).with_workers(2);
    let mut nv2 = NeuroVectorizer::new(cfg);
    nv2.restore(&nv.checkpoint()).expect("restore");
    let handle = nv2.serve();
    for (sample, want) in samples.iter().zip(&direct) {
        let ((vf_idx, if_idx), _) = handle.decide_sample(sample).expect("decide");
        let got = space.decision_from_pair(vf_idx, if_idx);
        assert_eq!(got, *want, "batched decision diverged from single-path");
    }
    // Second round: identical answers, now from the cache.
    for (sample, want) in samples.iter().zip(&direct) {
        let (pair, cached) = handle.decide_sample(sample).expect("decide");
        assert!(cached, "repeat lookups must hit the cache");
        assert_eq!(space.decision_from_pair(pair.0, pair.1), *want);
    }
}

#[test]
fn serve_vectorize_matches_vectorize_source() {
    let (nv, _) = trained_nv(3);
    let sources: Vec<String> = generator::generate(29, 6)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let expected: Vec<String> = sources
        .iter()
        .map(|s| nv.vectorize_source(s).expect("vectorize_source"))
        .collect();
    let handle = nv.serve();
    for (src, want) in sources.iter().zip(&expected) {
        let out = handle.vectorize(src).expect("serve vectorize");
        assert_eq!(&out.source, want, "serve path must reproduce the CLI path");
        assert!(!out.loops.is_empty());
    }
}

#[test]
fn concurrent_requests_agree_and_hit_counts_are_stable() {
    let (nv, _) = trained_nv(17);
    let sources: Vec<String> = generator::generate(31, 8)
        .into_iter()
        .map(|k| k.source)
        .collect();
    let handle = nv.serve();
    // Reference pass (cold) and expected per-source loop counts.
    let reference: Vec<String> = sources
        .iter()
        .map(|s| handle.vectorize(s).expect("prime").source)
        .collect();
    let threads = 6;
    let passes = 3;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let handle = &handle;
            let sources = &sources;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..passes {
                    for (src, want) in sources.iter().zip(reference) {
                        let out = handle.vectorize(src).expect("vectorize");
                        assert_eq!(&out.source, want, "decision changed under concurrency");
                        assert!(out.loops.iter().all(|l| l.cached), "warm request missed");
                    }
                }
            });
        }
    });
    let m = handle.metrics();
    assert_eq!(
        m.requests.get(),
        (sources.len() * (1 + threads * passes)) as u64,
        "request accounting drifted"
    );
    assert_eq!(m.errors.get(), 0);
    let stats = handle.cache_stats();
    // Each distinct loop shape missed exactly once (the priming pass);
    // everything afterwards hit.
    assert_eq!(stats.misses, stats.insertions);
    assert!(stats.hits >= (threads * passes) as u64 * stats.insertions);
}

#[test]
fn daemon_end_to_end_with_trained_model() {
    let (nv, _) = trained_nv(5);
    let src = "float a[256]; float b[256];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i] * 3.0; } }";
    let direct = nv.vectorize_source(src).unwrap();
    let hub = nv.into_hub();
    let vectorize = |id: &str| {
        obj(vec![
            ("op", Json::from("vectorize")),
            ("id", Json::from(id)),
            ("source", Json::from(src)),
        ])
        .render()
    };
    let request = format!(
        "{}\n{}\n{{\"op\":\"stats\",\"id\":\"s\"}}\n{{\"op\":\"shutdown\"}}\n",
        vectorize("warmup"),
        vectorize("repeat"),
    );
    let mut out = Vec::new();
    nvc_hub::serve_stdio(&hub, request.as_bytes(), &mut out).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
    assert_eq!(lines.len(), 5, "4 responses + the final drain stats line");

    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
    let annotated = first.get("source").unwrap().as_str().unwrap();
    assert!(annotated.contains("#pragma clang loop vectorize_width"));
    assert_eq!(
        annotated, direct,
        "daemon output must match direct inference"
    );
    let loops = first.get("loops").unwrap().as_array().unwrap();
    assert_eq!(loops.len(), 1);
    assert_eq!(loops[0].get("cached").unwrap().as_bool(), Some(false));

    let second = Json::parse(lines[1]).unwrap();
    assert_eq!(second.get("id").unwrap().as_str(), Some("repeat"));
    let loops2 = second.get("loops").unwrap().as_array().unwrap();
    assert_eq!(loops2[0].get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        second.get("source").unwrap().as_str(),
        first.get("source").unwrap().as_str()
    );

    let stats = Json::parse(lines[2]).unwrap();
    assert_eq!(stats.get("id").unwrap().as_str(), Some("s"));
    let model = stats.get("stats").unwrap().get("models").unwrap();
    let cache = model.get("default").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
    assert_eq!(cache.get("misses").unwrap().as_f64(), Some(1.0));

    let bye = Json::parse(lines[3]).unwrap();
    assert_eq!(bye.get("shutdown").unwrap().as_bool(), Some(true));

    // Graceful drain: the daemon's last words are the session counters.
    let fin = Json::parse(lines[4]).unwrap();
    let final_stats = fin.get("final_stats").expect("final_stats after shutdown");
    let model = final_stats.get("models").unwrap().get("default").unwrap();
    assert_eq!(model.get("requests").unwrap().as_f64(), Some(2.0));
}

#[test]
fn alpha_renamed_loops_share_cache_entries_across_requests() {
    let (nv, _) = trained_nv(13);
    let handle = nv.serve();
    let a = "float x[128]; float y[128];\nvoid f(int n) { for (int i = 0; i < n; i++) { x[i] = y[i]; } }";
    // Same loop shape, different names: must be a cache hit.
    let b = "float p[128]; float q[128];\nvoid g(int m) { for (int k = 0; k < m; k++) { p[k] = q[k]; } }";
    let first = handle.vectorize(a).unwrap();
    let second = handle.vectorize(b).unwrap();
    assert!(!first.loops[0].cached);
    assert!(
        second.loops[0].cached,
        "alpha-renamed loop must reuse the cached decision (sample_key normalization)"
    );
    assert_eq!(
        (first.loops[0].vf, first.loops[0].if_),
        (second.loops[0].vf, second.loops[0].if_)
    );
    // Keys really are equal at the sample level.
    let cfg = NvConfig::fast();
    let stmt_a =
        nvc_frontend::parse_statement("for (int i = 0; i < n; i++) { x[i] = y[i]; }").unwrap();
    let stmt_b =
        nvc_frontend::parse_statement("for (int k = 0; k < m; k++) { p[k] = q[k]; }").unwrap();
    let sa = nvc_embed::PathSample::from_contexts(
        &nvc_embed::extract_path_contexts(&stmt_a, cfg.embed.max_paths),
        &cfg.embed,
    );
    let sb = nvc_embed::PathSample::from_contexts(
        &nvc_embed::extract_path_contexts(&stmt_b, cfg.embed.max_paths),
        &cfg.embed,
    );
    assert_eq!(sample_key(&sa), sample_key(&sb));
}
