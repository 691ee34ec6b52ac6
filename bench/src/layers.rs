//! The traced run's second half: replay the workload's own seeded inputs
//! in-process through the public entry points of each layer, every call
//! wrapped in a span, and turn the spans into the per-layer metrics.
//!
//! Single-threaded; a metric is the median microseconds per call unless
//! its unit says otherwise. A replay span's `parent` names the call it is
//! a *part of*; children are re-timed on their own after the parent, so a
//! parent's self time is its median minus its children's medians.

use std::fmt::Write as _;
use std::sync::Arc;

use neurovectorizer::{ContentStore, Hub, ModelSpec, NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_embed::{extract_loop_samples, extract_path_contexts, PathSample};
use nvc_fleet::{ModelAd, NodeAnnouncement, RegistryService};
use nvc_frontend::{
    extract_loops, inject_pragmas, parse_statement, parse_translation_unit, Lexer, LoopPragma,
};
use nvc_hub::persist::{self, CacheSection};
use nvc_nn::{kernels, Graph, KernelMode, ParamStore, Segments, Tensor};
use nvc_rl::{PolicyConfig, PolicyNet, PpoTrainer};
use nvc_serve::{
    sample_key, DecisionModel, Json, ServeHandle, ShardedLruCache, SharedDecisionStore,
};
use nvc_vectorizer::ActionSpace;
use rand::SeedableRng;

use crate::client::vectorize_line;
use crate::fixtures::{fast_config, paper_config};
use crate::procfs;
use crate::spans::SpanLog;
use crate::synth::Rng;
use crate::workloads::{self, Ctx, Measured};

/// Sources replayed per traced run.
const OPS: usize = 256;
/// Repetitions of the calls that take milliseconds.
const SLOW_REPS: usize = 5;

/// What a workload's replay runs on.
struct Input {
    /// The sources the traced run sent (a prefix of them).
    sources: Vec<String>,
    /// The model the workload's servers run, as they run it.
    cfg: NvConfig,
    checkpoint: Option<String>,
    /// Entries the decision cache holds while the workload runs.
    working_set: usize,
}

/// The ops of a single-hub `lat` phase that were sent with spans on: the
/// second half of its first `lat_ops` ops (see `workloads::TimedPhases`).
fn traced_half(mut order: Vec<usize>, lat_ops: usize) -> Vec<usize> {
    order.truncate(lat_ops);
    order.split_off(order.len() / 2)
}

fn input(ctx: &Ctx<'_>, workload: &str) -> Input {
    let catalog = |order: Vec<usize>| -> Vec<String> {
        order
            .into_iter()
            .take(OPS)
            .map(|i| ctx.fx.kernels[i].source.clone())
            .collect()
    };
    let served = |cfg: NvConfig| cfg.with_kernel_mode(KernelMode::Fast);
    let warm_keys = 4064;
    match workload {
        "hub_warm" => Input {
            sources: catalog(traced_half(
                workloads::hub_warm::draws(ctx, ctx.count(workloads::sizes::WARM_LAT_OPS)),
                usize::MAX,
            )),
            cfg: served(fast_config()),
            checkpoint: Some(ctx.fixture("ckpt_A")),
            working_set: warm_keys,
        },
        "hub_cold" => Input {
            sources: catalog(traced_half(
                workloads::hub_cold::order(ctx),
                ctx.count(workloads::sizes::COLD_LAT_OPS),
            )),
            cfg: served(paper_config()),
            checkpoint: None,
            working_set: workloads::sizes::COLD_WARMUP
                + workloads::sizes::COLD_LAT_OPS
                + workloads::sizes::COLD_CAP_OPS,
        },
        "fleet_mix" => Input {
            sources: catalog(workloads::fleet_mix::order(ctx, OPS)),
            cfg: served(fast_config()),
            checkpoint: Some(ctx.fixture("ckpt_A")),
            working_set: warm_keys + workloads::sizes::FLEET_MISS_OPS,
        },
        _ => Input {
            sources: nvc_datasets::generator::generate(ctx.seed, OPS)
                .into_iter()
                .map(|k| k.source)
                .collect(),
            cfg: fast_config().with_seed(ctx.seed),
            checkpoint: None,
            working_set: warm_keys,
        },
    }
}

fn gflops(flop: f64, us: f64) -> f64 {
    if us > 0.0 {
        flop / us * 1e-3
    } else {
        0.0
    }
}

/// Adds every per-layer metric the replay can measure to `m.layers` and
/// its spans to `m.spans`.
pub fn replay(ctx: &Ctx<'_>, workload: &str, m: &mut Measured) -> Result<(), String> {
    let input = input(ctx, workload);
    let mut t = m.spans.take().unwrap_or_default();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();

    // The model, built the way the workload's server builds it.
    let mut nv = NeuroVectorizer::new(input.cfg.clone());
    if let Some(path) = &input.checkpoint {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        nv.restore(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    let hash = nv.checkpoint_hash();
    let nv = Arc::new(nv);
    let embed = input.cfg.embed.clone();

    // --- The envelope: JSON, frontend, embedding input, cache, serve, hub.
    let handle = ServeHandle::start(nv.clone(), input.cfg.serve.clone());
    let hub = Hub::new(input.cfg.hub.clone(), input.cfg.serve.clone())
        .with_shared_store(Arc::new(ContentStore::default()));
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash,
        model: nv.clone(),
    })
    .map_err(|e| e.to_string())?;
    let cache: ShardedLruCache<(usize, usize)> =
        ShardedLruCache::new(input.cfg.serve.cache_capacity, input.cfg.serve.cache_shards);
    let mut synthetic = Rng::new(0xCAC4E);
    for _ in 0..input.working_set {
        cache.insert(synthetic.next_u64(), (0, 0));
    }
    let mut line = Vec::new();
    let mut lines = Vec::new();
    let mut samples: Vec<PathSample> = Vec::new();
    let (mut tokens, mut contexts, mut loops_seen) = (0usize, 0usize, 0usize);
    for (op, src) in input.sources.iter().enumerate() {
        vectorize_line(&mut line, op, &Json::from(src.as_str()).render());
        let text = String::from_utf8_lossy(&line).trim_end().to_string();
        // First pass fills the serve handle's and the hub's caches.
        handle.vectorize(src).map_err(|e| e.to_string())?;
        hub.handle_line(&text);
        lines.push(text);
    }
    for (op, src) in input.sources.iter().enumerate() {
        let text = &lines[op];
        let (response, handle_line) =
            t.time("hub.handle_line_warm", op, None, || hub.handle_line(text).0);
        t.time("serve.json.parse", op, Some(handle_line), || {
            Json::parse(text).is_ok()
        });
        let response = Json::parse(&response).map_err(|e| e.to_string())?;
        t.time("serve.json.render", op, Some(handle_line), || {
            response.render()
        });
        let (_, vectorize) = t.time("serve.vectorize_warm", op, Some(handle_line), || {
            handle.vectorize(src)
        });
        let (sites, extract) = t.time("embed.sites.extract", op, Some(vectorize), || {
            extract_loop_samples(src, &embed)
        });
        let sites = sites.map_err(|e| e.to_string())?;
        let (lexed, _) = t.time("frontend.lex", op, Some(extract), || {
            Lexer::new(src).tokenize()
        });
        tokens += lexed.map_or(0, |v| v.len());
        let (tu, _) = t.time("frontend.parse_tu", op, Some(extract), || {
            parse_translation_unit(src)
        });
        let tu = tu.map_err(|e| e.to_string())?;
        let (loops, _) = t.time("frontend.extract_loops", op, Some(extract), || {
            extract_loops(&tu, src)
        });
        for l in loops.iter().filter(|l| l.is_innermost) {
            let Ok(stmt) = parse_statement(&l.nest_text) else {
                continue;
            };
            let (n, _) = t.time("embed.paths.contexts", op, Some(extract), || {
                let found = extract_path_contexts(&stmt, embed.max_paths);
                PathSample::from_contexts(&found, &embed);
                found.len()
            });
            contexts += n;
            loops_seen += 1;
        }
        let mut pragmas = Vec::new();
        for site in &sites {
            let (key, _) = t.time("serve.sample_key", op, Some(vectorize), || {
                sample_key(&site.sample)
            });
            cache.insert(key, (0, 0));
            t.time("serve.cache.get", op, Some(vectorize), || cache.get(key));
            pragmas.push((
                site.header_line,
                LoopPragma {
                    vectorize_width: 4,
                    interleave_count: 2,
                },
            ));
            if !samples.contains(&site.sample) {
                samples.push(site.sample.clone());
            }
        }
        t.time("frontend.pragma.inject", op, Some(vectorize), || {
            inject_pragmas(src, &pragmas)
        });
    }
    for op in 0..OPS {
        let key = synthetic.next_u64();
        t.time("serve.cache.insert", op, None, || cache.insert(key, (1, 1)));
    }
    // CPU per `handle_line`, from the thread's own clock (10 ms ticks, so
    // loop for about a second).
    let cpu0 = procfs::thread_cpu_us();
    let mut calls = 0usize;
    let started = std::time::Instant::now();
    while started.elapsed().as_secs_f64() < 1.0 {
        for text in &lines {
            std::hint::black_box(hub.handle_line(text));
        }
        calls += lines.len();
    }
    let handle_line_cpu_us = (procfs::thread_cpu_us() - cpu0) as f64 / calls.max(1) as f64;
    let ops = input.sources.len().max(1) as f64;
    for name in [
        "serve.json.parse",
        "serve.json.render",
        "frontend.lex",
        "frontend.parse_tu",
        "frontend.extract_loops",
        "frontend.pragma.inject",
        "embed.sites.extract",
        "embed.paths.contexts",
        "serve.sample_key",
        "serve.cache.get",
        "serve.cache.insert",
        "serve.vectorize_warm",
        "hub.handle_line_warm",
    ] {
        layers.push((metric_name(name), t.median_of(name)));
    }
    layers.push(("frontend.tokens_per_op", tokens as f64 / ops));
    layers.push((
        "embed.paths.contexts_per_loop",
        contexts as f64 / loops_seen.max(1) as f64,
    ));
    let med = |t: &SpanLog, name: &str| t.median_of(name);
    let vectorize_self = med(&t, "serve.vectorize_warm")
        - med(&t, "embed.sites.extract")
        - med(&t, "serve.cache.get")
        - med(&t, "frontend.pragma.inject");
    layers.push(("serve.vectorize_self_us", vectorize_self));
    let route_self = med(&t, "hub.handle_line_warm")
        - med(&t, "serve.vectorize_warm")
        - med(&t, "serve.json.parse")
        - med(&t, "serve.json.render");
    layers.push(("hub.route_self_us", route_self));

    // --- The model: encoder and policy forward at batch 1 and 8, and a
    // never-seen sample through the serving path (queue + flush deadline).
    let refs: Vec<&PathSample> = samples.iter().collect();
    let fresh = ServeHandle::start(nv.clone(), input.cfg.serve.clone());
    // Differences are taken sample by sample: the forward pass of one
    // sample varies more with its size than the policy or the queue add.
    let mut wait = Vec::new();
    for (op, s) in refs.iter().enumerate() {
        t.time("core.encode_b1", op, None, || nv.encode_batch(&[s]));
        let (_, decide) = t.time("core.decide_b1", op, None, || nv.decide_batch(&[s]));
        let (_, miss) = t.time("serve.decide_miss", op, None, || {
            fresh.decide_sample(s).is_ok()
        });
        let us = |i: usize| t.spans()[i].duration_us();
        wait.push(us(miss) - us(decide));
    }
    for (op, chunk) in refs.chunks_exact(8).enumerate() {
        t.time("core.encode_b8", op, None, || nv.encode_batch(chunk));
        t.time("core.decide_b8", op, None, || nv.decide_batch(chunk));
    }
    // The policy forward on its own, through a network of the served
    // shape. (`decide − encode` does not isolate it: `encode_batch` and
    // `decide_batch` build their graphs differently, and the difference
    // of the two comes out negative.)
    let mut policy_store = ParamStore::new(input.cfg.seed);
    let policy = PolicyNet::new(
        &mut policy_store,
        &PolicyConfig {
            input_dim: embed.code_dim,
            hidden: input.cfg.ppo.hidden.clone(),
            dims: input.cfg.ppo.action_dims,
            kind: input.cfg.ppo.action_space,
        },
    );
    for (name, rows) in [("rl.policy.forward_b1", 1), ("rl.policy.forward_b8", 8)] {
        let codes = Tensor::full(rows, embed.code_dim, 0.25);
        for op in 0..OPS {
            t.time(name, op, None, || {
                let mut g = Graph::new(&policy_store);
                let obs = g.input(codes.clone());
                policy.forward(&mut g, obs).value
            });
        }
        layers.push((metric_name(name), t.median_of(name)));
    }
    for name in [
        "core.encode_b1",
        "core.encode_b8",
        "core.decide_b1",
        "core.decide_b8",
    ] {
        layers.push((metric_name(name), t.median_of(name)));
    }
    let paired = |v: &[f64]| crate::stats::median_of(v).unwrap_or(0.0);
    layers.push(("serve.decide_miss_us", med(&t, "serve.decide_miss")));
    layers.push(("serve.batch.wait_us", paired(&wait)));
    fresh.shutdown();
    handle.shutdown();

    // --- The kernels underneath, at the paper's shapes: serve shapes in
    // fast mode, train shapes in strict mode.
    let filled = |rows: usize, cols: usize| {
        let mut rng = Rng::new((rows * 31 + cols) as u64);
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect(),
        )
    };
    let (contexts_x, weight) = (filled(512, 384), filled(384, 340));
    let (codes, policy_w) = (filled(64, 340), filled(340, 64));
    let (acts, grads) = (filled(256, 384), filled(256, 340));
    let scores = filled(512, 1);
    let segments = Segments::from_lens([8usize; 64]);
    let store = ParamStore::new(1);
    kernels::set_kernel_mode(KernelMode::Fast);
    for op in 0..SLOW_REPS {
        t.time("nn.kernels.matmul_embed", op, None, || {
            contexts_x.matmul(&weight)
        });
    }
    for op in 0..OPS {
        t.time("nn.kernels.matmul_policy", op, None, || {
            codes.matmul(&policy_w)
        });
        t.time("nn.kernels.segment_softmax", op, None, || {
            let mut g = Graph::new(&store);
            let a = g.input(scores.clone());
            g.segment_softmax_rows(a, &segments)
        });
    }
    kernels::set_kernel_mode(KernelMode::Strict);
    for op in 0..SLOW_REPS {
        // dW = Xᵀ·dY and dX = dY·Wᵀ of the embedding layer, batch 256.
        t.time("nn.kernels.matmul_tn", op, None, || acts.matmul_tn(&grads));
        t.time("nn.kernels.matmul_nt", op, None, || {
            grads.matmul_nt(&weight)
        });
    }
    kernels::set_kernel_mode(input.cfg.kernel_mode);
    for (name, flop) in [
        ("nn.kernels.matmul_embed", 2.0 * 512.0 * 384.0 * 340.0),
        ("nn.kernels.matmul_policy", 2.0 * 64.0 * 340.0 * 64.0),
        ("nn.kernels.matmul_tn", 2.0 * 384.0 * 256.0 * 340.0),
        ("nn.kernels.matmul_nt", 2.0 * 256.0 * 340.0 * 384.0),
        // max, subtract + exp, sum, divide per element.
        ("nn.kernels.segment_softmax", 4.0 * 512.0),
    ] {
        let us = t.median_of(name);
        layers.push((metric_name(name), us));
        layers.push((layer_name(name, "_gflops"), gflops(flop, us)));
    }

    // --- Checkpoint parse and hash.
    let ckpt = std::fs::read_to_string(ctx.fixture("ckpt_A")).map_err(|e| e.to_string())?;
    for op in 0..SLOW_REPS {
        t.time("nn.serialize.load", op, None, || {
            nvc_nn::serialize::parse(&ckpt).is_ok()
        });
        t.time("nn.serialize.hash", op, None, || {
            nvc_nn::serialize::checkpoint_hash_text(&ckpt).is_ok()
        });
    }

    // --- Fleet: content store, registry, cache snapshot.
    let store = ContentStore::default();
    let entries: Vec<(u64, (usize, usize))> = (0..input.working_set)
        .map(|i| (synthetic.next_u64(), (i % 7, i % 5)))
        .collect();
    for (op, (key, pair)) in entries.iter().enumerate().take(OPS) {
        t.time("fleet.store.put", op, None, || store.put(hash, *key, *pair));
        t.time("fleet.store.get", op, None, || store.get(hash, *key));
    }
    let registry = RegistryService::default();
    for op in 0..OPS {
        let ann = NodeAnnouncement {
            node: format!("n{}", op % 2),
            addr: "127.0.0.1:1".to_string(),
            models: vec![ModelAd {
                model: "prod".to_string(),
                checkpoint_hash: hash,
                weight: 1,
            }],
            ttl_ms: 3000,
        };
        t.time("fleet.registry.announce", op, None, || {
            registry.core().announce(ann)
        });
        t.time("fleet.registry.resolve", op, None, || {
            registry.core().resolve(Some("prod"))
        });
    }
    let image = vec![CacheSection {
        model: "prod".to_string(),
        checkpoint_hash: hash,
        entries,
    }];
    for op in 0..SLOW_REPS {
        let (text, _) = t.time("hub.persist.snapshot", op, None, || {
            persist::to_string(&image)
        });
        t.time("hub.persist.restore", op, None, || {
            persist::parse(&text).is_ok()
        });
    }
    for name in [
        "nn.serialize.load",
        "nn.serialize.hash",
        "fleet.store.get",
        "fleet.store.put",
        "fleet.registry.announce",
        "fleet.registry.resolve",
        "hub.persist.snapshot",
        "hub.persist.restore",
    ] {
        layers.push((metric_name(name), t.median_of(name)));
    }

    // --- Training: kernel generation, environment build, lowering, the
    // reward path, and PPO's two phases at the `nvc train` configuration.
    let train_cfg = fast_config().with_seed(ctx.seed);
    kernels::set_kernel_mode(KernelMode::Strict);
    let (generated, _) = t.time("datasets.generate", 0, None, || {
        nvc_datasets::generator::generate(ctx.seed, 2 * OPS)
    });
    let mut lowered_loops = 0usize;
    for (op, k) in generated.iter().take(OPS).enumerate() {
        let tu = parse_translation_unit(&k.source).map_err(|e| e.to_string())?;
        let (lowered, _) = t.time("ir.lower", op, None, || {
            nvc_ir::lower_innermost_loops(&tu, &k.source, &k.env)
        });
        lowered_loops += lowered.map_or(0, |l| l.len());
    }
    let n_kernels = generated.len() as f64;
    let (mut env, _) = t.time("core.env.build", 0, None, || {
        VectorizeEnv::new(generated, train_cfg.target.clone(), &train_cfg.embed)
    });
    let space = ActionSpace::for_target(&train_cfg.target);
    let (n_vf, n_if) = (
        train_cfg.ppo.action_dims.n_vf,
        train_cfg.ppo.action_dims.n_if,
    );
    for op in 0..OPS {
        let decision = space.decision_from_pair(op % n_vf, (op / n_vf) % n_if);
        let idx = op % env.contexts().len();
        t.time("core.env.reward", op, None, || {
            env.reward_of_decision(idx, decision)
        });
    }
    let mut trainer = PpoTrainer::new(&train_cfg.ppo, &train_cfg.embed, ctx.seed);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ctx.seed);
    for op in 0..SLOW_REPS {
        t.time("rl.ppo.collect", op, None, || {
            trainer.collect(&mut env, &mut rng)
        });
        t.time("rl.ppo.iteration", op, None, || {
            trainer.train_iteration(&mut env, &mut rng)
        });
    }
    kernels::set_kernel_mode(input.cfg.kernel_mode);
    let sum = |t: &SpanLog, name: &str| t.durations_of(name).iter().sum::<f64>();
    layers.push((
        "datasets.generate_us_per_kernel",
        sum(&t, "datasets.generate") / n_kernels,
    ));
    layers.push((
        "core.env.build_us_per_kernel",
        sum(&t, "core.env.build") / n_kernels,
    ));
    layers.push((
        "ir.lower_us_per_loop",
        sum(&t, "ir.lower") / lowered_loops.max(1) as f64,
    ));
    layers.push(("core.env.reward_us", med(&t, "core.env.reward")));
    layers.push(("rl.ppo.collect_us", med(&t, "rl.ppo.collect")));
    layers.push((
        "rl.ppo.update_us",
        med(&t, "rl.ppo.iteration") - med(&t, "rl.ppo.collect"),
    ));

    // --- What the in-process calls cannot explain of the end-to-end trip.
    if matches!(workload, "hub_warm" | "hub_cold") {
        // As measured: the replay's times are not speed-corrected either.
        let (p50, cpu) = (
            m.info_value("latency_p50_as_measured_us").unwrap_or(0.0),
            m.info_value("server_cpu_as_measured_us_per_op")
                .unwrap_or(0.0),
        );
        let in_process = match workload {
            "hub_warm" => med(&t, "hub.handle_line_warm"),
            // A miss: the warm envelope plus the trip through the model.
            _ => med(&t, "hub.handle_line_warm") + med(&t, "serve.decide_miss"),
        };
        layers.push(("hub.transport_residual_us", p50 - in_process));
        layers.push(("hub.transport_cpu_residual_us", cpu - handle_line_cpu_us));
        m.info("hub.handle_line_cpu_us", handle_line_cpu_us);
    }

    m.layers.extend(layers);
    m.spans = Some(t);
    Ok(())
}

/// The per-layer metric a span feeds: its name plus a unit suffix
/// (`serve.json.parse` → `serve.json.parse_us`).
fn layer_name(span: &str, suffix: &str) -> &'static str {
    crate::report::manifest()
        .layers
        .iter()
        .map(|l| l.name.as_str())
        .find(|name| name.strip_suffix(suffix) == Some(span))
        .unwrap_or_else(|| panic!("no per-layer metric `{span}{suffix}`"))
}

fn metric_name(span: &str) -> &'static str {
    layer_name(span, "_us")
}

/// One budget line: a layer's self time and its share of the total.
fn budget_line(out: &mut String, name: &str, us: f64, total: f64) {
    let _ = writeln!(
        out,
        "    {name:<34} {us:>10.2} us {:>6.1} %",
        100.0 * us / total
    );
}

/// The latency budget of a single-hub workload: layer self times summed
/// against the traced run's end-to-end median, the rest stated as the
/// transport residual and flagged when it cannot be attributed.
pub fn budget(workload: &str, m: &Measured) -> String {
    if !matches!(workload, "hub_warm" | "hub_cold") {
        return String::new();
    }
    let Some(p50) = m.info_value("latency_p50_as_measured_us") else {
        return String::new();
    };
    let layer = |name: &str| m.layer_value(name).unwrap_or(0.0);
    let mut parts: Vec<(&str, f64)> = vec![
        ("serve.json.parse_us", layer("serve.json.parse_us")),
        ("serve.json.render_us", layer("serve.json.render_us")),
        ("hub.route_self_us", layer("hub.route_self_us")),
        ("serve.vectorize_self_us", layer("serve.vectorize_self_us")),
        ("embed.sites.extract_us", layer("embed.sites.extract_us")),
        ("serve.cache.get_us", layer("serve.cache.get_us")),
        (
            "frontend.pragma.inject_us",
            layer("frontend.pragma.inject_us"),
        ),
    ];
    if workload == "hub_cold" {
        // The trip through the model, then its three parts; the parts are
        // medians of per-sample differences, so "other" closes the gap.
        let (wait, encode, policy) = (
            layer("serve.batch.wait_us"),
            layer("core.encode_b1_us"),
            layer("rl.policy.forward_b1_us"),
        );
        parts.push(("serve.batch.wait_us", wait));
        parts.push(("core.encode_b1_us", encode));
        parts.push(("rl.policy.forward_b1_us", policy));
        parts.push((
            "serve.decide_miss_us (other)",
            layer("serve.decide_miss_us") - wait - encode - policy,
        ));
    }
    let residual = layer("hub.transport_residual_us");
    let mut out = format!("  latency budget of {workload} (traced run, depth 1):\n");
    for (name, us) in &parts {
        budget_line(&mut out, name, *us, p50);
    }
    budget_line(&mut out, "hub.transport_residual_us", residual, p50);
    let sum: f64 = parts.iter().map(|(_, us)| us).sum::<f64>() + residual;
    budget_line(&mut out, "= sum", sum, p50);
    budget_line(&mut out, "latency p50 as measured", p50, p50);
    if residual < 0.0 || residual > 0.8 * p50 {
        let _ = writeln!(
            out,
            "    FLAG: the residual is {:.0} % of the trip; no layer above accounts for it",
            100.0 * residual / p50
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_span_has_a_metric() {
        for span in [
            "serve.json.parse",
            "hub.handle_line_warm",
            "nn.kernels.matmul_tn",
            "hub.persist.restore",
        ] {
            assert_eq!(metric_name(span), format!("{span}_us"));
        }
        assert_eq!(
            layer_name("nn.kernels.matmul_embed", "_gflops"),
            "nn.kernels.matmul_embed_gflops"
        );
    }

    #[test]
    fn budget_parts_and_residual_add_up_to_the_end_to_end_median() {
        let mut m = Measured::default();
        m.info("latency_p50_as_measured_us", 180.0);
        for (name, v) in [
            ("serve.json.parse_us", 1.0),
            ("serve.json.render_us", 2.0),
            ("hub.route_self_us", 3.0),
            ("serve.vectorize_self_us", 4.0),
            ("embed.sites.extract_us", 38.0),
            ("serve.cache.get_us", 0.5),
            ("frontend.pragma.inject_us", 1.5),
            ("hub.transport_residual_us", 130.0),
        ] {
            m.layers.push((name, v));
        }
        let text = budget("hub_warm", &m);
        assert!(text.contains("= sum"), "{text}");
        let sum_line = text.lines().find(|l| l.contains("= sum")).unwrap();
        assert!(sum_line.contains("180.00"), "{sum_line}");
        assert!(!text.contains("FLAG"), "{text}");
        assert_eq!(budget("train", &m), "");
    }
}
