//! `nvc` — the NeuroVectorizer command-line tool.
//!
//! The deployment story of §4.2: train once, ship the weights, and use the
//! model as a drop-in pragma injector at build time.
//!
//! ```text
//! nvc train --kernels 160 --iterations 30 --seed 17 --out model.ckpt
//! nvc vectorize file.c --model model.ckpt        # annotated source on stdout
//! nvc inspect file.c [--n 1024]                  # per-loop analysis report
//! nvc serve --model model.ckpt                   # JSON-lines daemon on stdin/stdout
//! nvc hub --model prod=model.ckpt --listen 127.0.0.1:7199
//! nvc experiment fig7                            # one of the paper's figures, or `all`
//! ```
//!
//! `serve` keeps one model warm on stdin/stdout; `hub` is the networked
//! tier — N named checkpoints behind one TCP endpoint, weighted A/B
//! routing, hot-swap `reload`, and a decision cache that persists across
//! restarts versioned by checkpoint hash (see `nvc-hub`).
//!
//! Every subcommand rejects unknown flags with its usage text instead of
//! silently ignoring them (`neurovectorizer::cli`).

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use neurovectorizer::cli::{parse_args, Flag, ParsedArgs};
use neurovectorizer::experiments::report;
use neurovectorizer::{Compiler, Hub, ModelSpec, NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_datasets::{generator, Kernel};
use nvc_ir::ParamEnv;
use nvc_vectorizer::ActionSpace;

const USAGE: &str = "usage:
  nvc train [--kernels N] [--iterations N] [--seed N] [--kernel-mode strict|fast]
            [--trace FILE] [--journal FILE] --out FILE
  nvc vectorize FILE.c [--model FILE]
  nvc inspect FILE.c [--n VALUE]
  nvc serve [--model FILE] [--workers N] [--batch N] [--cache N] [--shards N]
            [--kernel-mode strict|fast] [--trace FILE]
  nvc hub --model NAME=FILE [--model NAME=FILE…] [--weight NAME=N…] [--listen ADDR]
          [--cache-file PATH] [--cache-checkpoint-secs N] [--request-threads N]
          [--announce REGISTRY_ADDR] [--node NAME] [--advertise ADDR]
          [--announce-ttl-ms N] [--peers ADDR[,ADDR…]]
          [--workers N] [--batch N] [--cache N] [--shards N]
          [--kernel-mode strict|fast] [--trace FILE]
          [--learn] [--learn-journal FILE] [--learn-promotion-log FILE]
          [--learn-model NAME] [--learn-challenger NAME] [--learn-checkpoint FILE]
          [--learn-interval-ms N] [--learn-min-reports N] [--learn-canary-weight N]
          [--learn-z Z] [--learn-min-cohort N] [--learn-iters N]
  nvc registry [--listen ADDR]
  nvc resolve --registry ADDR [--model NAME]
  nvc experiment fig1|fig2|fig5|fig6|fig7|fig8|fig9|headline|ext_ranker|
                 ext_reward_shaping|all

--kernel-mode picks the kernel numeric contract (default: NVC_KERNEL_MODE,
else `fast` for serve/hub and `strict` everywhere else): `strict` is
bitwise-reproducible; `fast` runs FMA + online-softmax + rational-tanh
kernels that are ε-close with identical decisions.
The hub's connections are driven nonblocking by one selector thread, which
answers `ping` and cache-hit `vectorize` itself; misses are answered by the
--workers batch workers, which take up to --batch queued misses per forward
as soon as the lines that arrived together have been read (no flush timer);
--request-threads sets how many workers run the verbs that may block.
--trace FILE exports per-request spans as JSON lines (equivalent to
NVC_TRACE=FILE); --journal FILE appends one JSON line of training
telemetry per iteration. Tracing never changes decisions or weights.

--learn enables online learning from serve traffic: clients post measured
rewards back through the `report` verb (correlated by the `key` stamped on
each vectorize loop report); the hub journals them (--learn-journal,
append mode — the corpus survives restarts), periodically fine-tunes a
challenger from the champion's weights (--learn-iters PPO iterations once
--learn-min-reports accumulate), canaries it at --learn-canary-weight
through the registry A/B split, and promotes it over --learn-model via the
atomic reload once its reward cohort clears a Welch z of --learn-z with
--learn-min-cohort observations per side — or parks it at weight 0 on a
loss. A regressing promotion is rolled back automatically. Lifecycle
events append to --learn-promotion-log.

Fleet: `nvc registry` runs the discovery registry (on the same
connection loop as the hub); `nvc hub --announce
REGISTRY` heartbeats (model, checkpoint hash, address) there so `nvc
resolve` and fleet clients find it; `--peers` pulls a warm cache image
from a running peer before taking traffic; --cache-checkpoint-secs
writes the decision cache every N seconds so a crash loses at most one
interval. Hub and registry also shut down cleanly on stdin EOF
(supervisor exit), persisting the cache like the shutdown verb.
`nvc experiment` prints one of the paper's figures, or `all`, at a fixed
scale and seed: it takes no flags and two runs print the same bytes.";

/// Honors a parsed `--trace FILE` flag (the CLI spelling of
/// `NVC_TRACE=FILE`).
fn apply_trace_flag(p: &ParsedArgs) {
    if let Some(path) = p.get("--trace") {
        nvc_obs::set_trace_output(path);
    }
}

fn main() -> ExitCode {
    // NVC_TRACE=FILE enables span tracing for any subcommand; the
    // per-subcommand --trace flag does the same thing explicitly.
    nvc_obs::init_from_env();
    if let Err(e) = check_kernel_mode_env() {
        eprintln!("nvc: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("vectorize") => cmd_vectorize(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("hub") => cmd_hub(&args[1..]),
        Some("registry") => cmd_registry(&args[1..]),
        Some("resolve") => cmd_resolve(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Drain any spans still in the ring before the process exits (the
    // flush is incremental, so this is a no-op when tracing is off).
    nvc_obs::flush_trace();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nvc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A set but unparsable `NVC_KERNEL_MODE` is an error, by the same
/// `FromStr` as `--kernel-mode`: the library default would read it as
/// `strict`, and because the variable *is* set `serve`/`hub` would not
/// default to `fast` either — a typo silently serving ~30× slower.
fn check_kernel_mode_env() -> Result<(), String> {
    match std::env::var("NVC_KERNEL_MODE") {
        Ok(v) => v
            .parse::<nvc_nn::KernelMode>()
            .map(drop)
            .map_err(|e| format!("NVC_KERNEL_MODE: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(()),
        Err(e) => Err(format!("NVC_KERNEL_MODE: {e} (strict|fast)")),
    }
}

const TRAIN_FLAGS: &[Flag] = &[
    Flag::value("--kernels"),
    Flag::value("--iterations"),
    Flag::value("--seed"),
    Flag::value("--out"),
    Flag::value("--kernel-mode"),
    Flag::value("--trace"),
    Flag::value("--journal"),
];
const VECTORIZE_FLAGS: &[Flag] = &[Flag::value("--model")];
const INSPECT_FLAGS: &[Flag] = &[Flag::value("--n")];
const REGISTRY_FLAGS: &[Flag] = &[Flag::value("--listen"), Flag::value("--trace")];
const RESOLVE_FLAGS: &[Flag] = &[Flag::value("--registry"), Flag::value("--model")];
const EXPERIMENT_FLAGS: &[Flag] = &[];

fn cmd_train(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, TRAIN_FLAGS, USAGE)?;
    no_positionals(&p, "train")?;
    apply_trace_flag(&p);
    let kernels: usize = p.parse_value("--kernels")?.unwrap_or(96);
    let iterations: usize = p.parse_value("--iterations")?.unwrap_or(20);
    let seed: u64 = p.parse_value("--seed")?.unwrap_or(17);
    let out = p
        .get("--out")
        .ok_or("train requires --out FILE")?
        .to_string();

    let mut cfg = NvConfig::fast().with_seed(seed);
    if let Some(mode) = p.parse_value("--kernel-mode")? {
        cfg.kernel_mode = mode;
    }
    let pool = generator::generate(seed, kernels);
    eprintln!(
        "training on {} kernels, {iterations} iterations…",
        pool.len()
    );
    let mut env = VectorizeEnv::new(pool, cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg);
    if let Some(path) = p.get("--journal") {
        nv.set_train_journal(Some(nvc_obs::Journal::create(path)?));
        eprintln!("journaling per-iteration telemetry to {path}");
    }
    let stats = nv.train(&mut env, iterations);
    for s in stats.iter().step_by(iterations.div_ceil(10).max(1)) {
        eprintln!(
            "  steps {:>7}  reward_mean {:+.3}  loss {:+.3}",
            s.steps, s.reward_mean, s.loss
        );
    }
    std::fs::write(&out, nv.checkpoint())?;
    eprintln!("wrote checkpoint to {out}");
    Ok(())
}

fn read_source(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        Ok(std::fs::read_to_string(path)?)
    }
}

fn one_positional(p: &ParsedArgs, what: &str) -> Result<String, String> {
    match p.positionals() {
        [one] => Ok(one.clone()),
        [] => Err(format!("{what} requires a source file (or `-` for stdin)")),
        many => Err(format!("{what} takes one source file, got {}", many.len())),
    }
}

/// Subcommands without positionals reject strays loudly — `nvc serve
/// model.ckpt` (forgotten `--model`) must not silently start an
/// untrained daemon.
fn no_positionals(p: &ParsedArgs, what: &str) -> Result<(), String> {
    match p.positionals() {
        [] => Ok(()),
        strays => Err(format!(
            "{what} takes no positional arguments, got {strays:?}\n{USAGE}"
        )),
    }
}

fn cmd_vectorize(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, VECTORIZE_FLAGS, USAGE)?;
    let file = one_positional(&p, "vectorize")?;
    let source = read_source(&file)?;
    let mut nv = NeuroVectorizer::new(NvConfig::fast());
    if let Some(model) = p.get("--model") {
        let ckpt = std::fs::read_to_string(model)?;
        nv.restore(&ckpt)?;
    }
    let annotated = nv.vectorize_source(&source)?;
    println!("{annotated}");
    Ok(())
}

/// Applies the serving knobs shared by `serve` and `hub`.
fn apply_serve_flags(cfg: &mut NvConfig, p: &ParsedArgs) -> Result<(), String> {
    if let Some(n) = p.parse_value::<usize>("--workers")? {
        cfg.serve.workers = n.max(1);
    }
    if let Some(n) = p.parse_value::<usize>("--batch")? {
        cfg.serve.batch_size = n.max(1);
    }
    if let Some(n) = p.parse_value("--cache")? {
        cfg.serve.cache_capacity = n;
    }
    if let Some(n) = p.parse_value::<usize>("--shards")? {
        cfg.serve.cache_shards = n.max(1);
    }
    if let Some(mode) = p.parse_value("--kernel-mode")? {
        cfg.kernel_mode = mode;
    }
    Ok(())
}

/// The serving binaries default to the fast kernels — their job is
/// decision throughput, and fast mode is decision-identical. An explicit
/// `NVC_KERNEL_MODE` still wins (it seeded `cfg.kernel_mode` already),
/// as does a later `--kernel-mode` flag.
fn default_serving_to_fast(cfg: &mut NvConfig) {
    if std::env::var_os("NVC_KERNEL_MODE").is_none() {
        cfg.kernel_mode = nvc_nn::KernelMode::Fast;
    }
}

const SERVE_KNOBS: [Flag; 5] = [
    Flag::value("--workers"),
    Flag::value("--batch"),
    Flag::value("--cache"),
    Flag::value("--shards"),
    Flag::value("--kernel-mode"),
];

fn serve_flags() -> Vec<Flag> {
    let mut flags = vec![Flag::value("--model"), Flag::value("--trace")];
    flags.extend(SERVE_KNOBS);
    flags
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, &serve_flags(), USAGE)?;
    no_positionals(&p, "serve")?;
    apply_trace_flag(&p);
    let mut cfg = NvConfig::fast();
    default_serving_to_fast(&mut cfg);
    apply_serve_flags(&mut cfg, &p)?;
    let mut nv = NeuroVectorizer::new(cfg);
    if let Some(model) = p.get("--model") {
        let ckpt = std::fs::read_to_string(model)?;
        nv.restore(&ckpt)?;
        eprintln!("nvc serve: restored weights from {model}");
    } else {
        eprintln!("nvc serve: WARNING — serving an untrained model (pass --model FILE)");
    }
    let serve_cfg = nv.config().serve.clone();
    eprintln!(
        "nvc serve: ready ({} workers, batch {}, cache {} entries / {} shards, {} kernels); one JSON request per line",
        serve_cfg.workers,
        serve_cfg.batch_size,
        serve_cfg.cache_capacity,
        serve_cfg.cache_shards,
        nv.config().kernel_mode
    );
    let handle = nv.serve();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    neurovectorizer::run_daemon(&handle, stdin.lock(), &mut stdout)?;
    eprintln!("nvc serve: drained; final stats emitted");
    Ok(())
}

/// Watches stdin for EOF — the supervisor-exit signal — and initiates a
/// clean hub/registry shutdown (drain + cache persist) when it arrives.
/// The thread is detached: it either triggers shutdown or blocks on a
/// TTY until the process exits some other way.
fn watch_stdin_eof(on_eof: impl FnOnce() + Send + 'static) {
    let _ = std::thread::Builder::new()
        .name("nvc-stdin-eof".to_string())
        .spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {} // discard; the hub speaks TCP, not stdin
                }
            }
            on_eof();
        });
}

fn hub_flags() -> Vec<Flag> {
    let mut flags = vec![
        Flag::repeated("--model"),
        Flag::repeated("--weight"),
        Flag::value("--listen"),
        Flag::value("--cache-file"),
        Flag::value("--cache-checkpoint-secs"),
        Flag::value("--trace"),
        Flag::value("--request-threads"),
        Flag::value("--announce"),
        Flag::value("--node"),
        Flag::value("--advertise"),
        Flag::value("--announce-ttl-ms"),
        Flag::value("--peers"),
        Flag::switch("--learn"),
        Flag::value("--learn-journal"),
        Flag::value("--learn-promotion-log"),
        Flag::value("--learn-model"),
        Flag::value("--learn-challenger"),
        Flag::value("--learn-checkpoint"),
        Flag::value("--learn-interval-ms"),
        Flag::value("--learn-min-reports"),
        Flag::value("--learn-canary-weight"),
        Flag::value("--learn-z"),
        Flag::value("--learn-min-cohort"),
        Flag::value("--learn-iters"),
    ];
    flags.extend(SERVE_KNOBS);
    flags
}

fn cmd_hub(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, &hub_flags(), USAGE)?;
    no_positionals(&p, "hub")?;
    apply_trace_flag(&p);

    let mut cfg = NvConfig::fast();
    default_serving_to_fast(&mut cfg);
    apply_serve_flags(&mut cfg, &p)?;
    if let Some(listen) = p.get("--listen") {
        cfg.hub.listen = listen.to_string();
    }
    if let Some(path) = p.get("--cache-file") {
        cfg.hub.cache_path = Some(path.to_string());
    }
    if let Some(n) = p.parse_value::<u64>("--cache-checkpoint-secs")? {
        cfg.hub.cache_checkpoint_secs = n;
    }
    if let Some(n) = p.get("--request-threads") {
        cfg.hub.request_threads = n
            .parse::<usize>()
            .map_err(|_| format!("invalid --request-threads `{n}`"))?
            .max(1);
    }

    let models = p.get_all("--model");
    if models.is_empty() {
        return Err("hub requires at least one --model NAME=CHECKPOINT".into());
    }
    let mut weights: Vec<(String, u32)> = Vec::new();
    for w in p.get_all("--weight") {
        let (name, value) = w
            .split_once('=')
            .ok_or_else(|| format!("--weight wants NAME=N, got `{w}`"))?;
        let value: u32 = value
            .parse()
            .map_err(|_| format!("invalid weight `{value}` for model `{name}`"))?;
        weights.push((name.to_string(), value));
    }

    let loader = NeuroVectorizer::hub_loader(cfg.clone());
    // Every hub runs the content-addressed shared store: it deduplicates
    // decisions across A/B sides and reloads locally, and is what peer
    // gossip transfers land in.
    let mut hub = Hub::new(cfg.hub.clone(), cfg.serve.clone())
        .with_loader(loader)
        .with_shared_store(Arc::new(neurovectorizer::ContentStore::default()));
    if p.has("--learn") {
        // The champion defaults to the first --model spec; its
        // checkpoint file is the fine-tune warm start.
        let first_name = models[0]
            .split_once('=')
            .map(|(n, _)| n.to_string())
            .ok_or_else(|| format!("--model wants NAME=CHECKPOINT, got `{}`", models[0]))?;
        let champion = p
            .get("--learn-model")
            .map(str::to_string)
            .unwrap_or(first_name);
        let champion_checkpoint = models
            .iter()
            .find_map(|spec| {
                spec.split_once('=')
                    .filter(|(n, _)| *n == champion)
                    .map(|(_, path)| path.to_string())
            })
            .ok_or_else(|| format!("--learn-model `{champion}` has no --model NAME=CHECKPOINT"))?;
        let lcfg = neurovectorizer::LearnConfig {
            journal_path: p
                .get("--learn-journal")
                .unwrap_or("nvc-learn.jsonl")
                .to_string(),
            promotion_log_path: p.get("--learn-promotion-log").map(str::to_string),
            champion: champion.clone(),
            challenger: p
                .get("--learn-challenger")
                .unwrap_or("challenger")
                .to_string(),
            champion_checkpoint,
            challenger_checkpoint: p
                .get("--learn-checkpoint")
                .unwrap_or("nvc-challenger.ckpt")
                .to_string(),
            min_reports: p.parse_value::<usize>("--learn-min-reports")?.unwrap_or(50),
            canary_weight: p.parse_value::<u32>("--learn-canary-weight")?.unwrap_or(1),
            z_threshold: p.parse_value::<f64>("--learn-z")?.unwrap_or(2.0),
            min_cohort: p.parse_value::<u64>("--learn-min-cohort")?.unwrap_or(20),
            interval_ms: p.parse_value::<u64>("--learn-interval-ms")?.unwrap_or(1000),
        };
        let iters = p.parse_value::<usize>("--learn-iters")?.unwrap_or(20);
        eprintln!(
            "nvc hub: online learning on (champion `{champion}`, journal {}, z {}, canary weight {})",
            lcfg.journal_path, lcfg.z_threshold, lcfg.canary_weight
        );
        hub = hub.with_learning(
            lcfg,
            NeuroVectorizer::challenger_trainer(cfg.clone(), iters),
        )?;
    }
    let hub = hub;
    for spec in models {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--model wants NAME=CHECKPOINT, got `{spec}`"))?;
        let ckpt = std::fs::read_to_string(path)?;
        let mut nv = NeuroVectorizer::new(cfg.clone());
        nv.restore(&ckpt)?;
        let hash = nv.checkpoint_hash();
        let weight = weights
            .iter()
            .find(|(n, _)| n == name)
            .map_or(1, |(_, w)| *w);
        hub.register(ModelSpec {
            name: name.to_string(),
            weight,
            checkpoint_hash: hash,
            model: Arc::new(nv),
        })?;
        eprintln!(
            "nvc hub: registered `{name}` (weight {weight}, checkpoint {hash:016x}) from {path}"
        );
    }
    // A weight naming no registered model is a typo, not a no-op:
    // `--weight prd=9` silently leaving `prod` at weight 1 is exactly
    // the misconfiguration class the strict parser exists to catch.
    for (name, _) in &weights {
        if hub.registry().get(name).is_none() {
            return Err(format!("--weight names unknown model `{name}`").into());
        }
    }
    hub.restore_cache()?;

    // Warm-join gossip: pull a peer's cache image before taking traffic.
    if let Some(peers) = p.get("--peers") {
        let peers: Vec<String> = peers
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        match hub.warm_from_peers(&peers) {
            Ok(n) => eprintln!("nvc hub: warm-joined with {n} cache entries from peers"),
            Err(e) => eprintln!("nvc hub: warm-join failed (starting cold): {e}"),
        }
    }

    let handle = nvc_hub::server::serve_tcp(Arc::new(hub))?;
    eprintln!(
        "nvc hub: listening on {} ({} models, {} kernels{}); send {{\"op\":\"shutdown\"}} to stop",
        handle.addr(),
        handle.hub().registry().len(),
        cfg.kernel_mode,
        match handle.hub().config().cache_path.as_deref() {
            Some(p) => format!(", cache persisted to {p}"),
            None => String::new(),
        }
    );

    // The background learner: journal → fine-tune → A/B → promote.
    let learner = handle
        .hub()
        .learning()
        .is_some()
        .then(|| neurovectorizer::spawn_learner(Arc::clone(handle.hub())));

    // Registry announcements: heartbeat (model, hash, addr) so fleet
    // clients can resolve this node.
    let announcer = p.get("--announce").map(|registry| {
        let node = p
            .get("--node")
            .map(str::to_string)
            .unwrap_or_else(|| format!("hub-{}", std::process::id()));
        let advertise = p
            .get("--advertise")
            .map(str::to_string)
            .unwrap_or_else(|| handle.addr().to_string());
        let mut ann = neurovectorizer::AnnounceConfig::new(registry, &node, &advertise);
        if let Ok(Some(ttl)) = p.parse_value::<u64>("--announce-ttl-ms") {
            ann = ann.with_ttl_ms(ttl);
        }
        eprintln!("nvc hub: announcing as `{node}` ({advertise}) to {registry}");
        neurovectorizer::spawn_announcer(Arc::clone(handle.hub()), ann)
    });

    // Supervisor exit (stdin EOF) shuts down as cleanly as the protocol
    // verb: drain + cache persist, not a snapshot-losing kill.
    {
        let hub = Arc::clone(handle.hub());
        watch_stdin_eof(move || hub.shutdown());
    }

    // Serve until some client sends the shutdown verb (or stdin EOF).
    while !handle.hub().is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    if let Some(a) = announcer {
        a.stop();
    }
    if let Some(l) = learner {
        let _ = l.join();
    }
    handle.shutdown();
    eprintln!("nvc hub: drained and persisted; bye");
    Ok(())
}

fn cmd_registry(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, REGISTRY_FLAGS, USAGE)?;
    no_positionals(&p, "registry")?;
    apply_trace_flag(&p);
    let listen = p.get("--listen").unwrap_or("127.0.0.1:7209");
    let service = Arc::new(neurovectorizer::RegistryService::default());
    let handle = neurovectorizer::serve_registry(Arc::clone(&service), listen)?;
    eprintln!(
        "nvc registry: listening on {}; hubs announce with --announce, clients resolve with `nvc resolve`",
        handle.addr()
    );
    {
        let service = Arc::clone(&service);
        watch_stdin_eof(move || service.shutdown());
    }
    while !service.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    handle.shutdown();
    eprintln!("nvc registry: bye");
    Ok(())
}

fn cmd_resolve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, RESOLVE_FLAGS, USAGE)?;
    no_positionals(&p, "resolve")?;
    let registry = p
        .get("--registry")
        .ok_or("resolve requires --registry ADDR")?;
    let client = neurovectorizer::RegistryClient::new(registry);
    let nodes = client
        .resolve(p.get("--model"))
        .map_err(|e| format!("resolve against {registry} failed: {e}"))?;
    if nodes.is_empty() {
        println!("no live nodes");
        return Ok(());
    }
    for n in &nodes {
        println!("{} {} (heard {}ms ago)", n.node, n.addr, n.age_ms);
        for m in &n.models {
            println!(
                "  {} checkpoint {:016x} weight {}",
                m.model, m.checkpoint_hash, m.weight
            );
        }
    }
    Ok(())
}

fn cmd_experiment(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, EXPERIMENT_FLAGS, USAGE)?;
    let [id] = p.positionals() else {
        return Err(format!(
            "experiment takes one id ({}, or all)",
            report::IDS.join(", ")
        )
        .into());
    };
    Ok(report::run(id, &mut std::io::stdout().lock())?)
}

fn cmd_inspect(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse_args(args, INSPECT_FLAGS, USAGE)?;
    let file = one_positional(&p, "inspect")?;
    let source = read_source(&file)?;
    let mut env = ParamEnv::new();
    if let Some(n) = p.parse_value("--n")? {
        env = env.with("n", n);
    }
    let kernel = Kernel::new(file.clone(), "cli", source, env);
    let compiler = Compiler::default();
    let loops = compiler.front_end(&kernel)?;
    let space = ActionSpace::for_target(compiler.target());
    println!("{} innermost loop(s)\n", loops.len());
    for l in &loops {
        println!(
            "loop #{} in `{}` (line {}):",
            l.loop_index, l.function, l.header_line
        );
        println!("  trip: {:?}, step {}", l.ir.trip, l.ir.step);
        println!(
            "  accesses: {} ({} loads, {} stores), reductions: {}",
            l.ir.accesses.len(),
            l.ir.loads().count(),
            l.ir.stores().count(),
            l.ir.reductions.len()
        );
        if let Some(b) = &l.ir.blocker {
            println!("  not vectorizable: {b}");
        } else {
            println!("  legal max VF: {}", nvc_ir::legal_max_vf(&l.ir));
        }
        let baseline = compiler.vectorizer().baseline_decision(&l.ir);
        let base = compiler.vectorizer().compile(&l.ir, baseline);
        println!(
            "  baseline: {} → {:.0} cycles/execution",
            baseline, base.timing.cycles
        );
        // Best by exhaustive search.
        let mut best = (baseline, base.timing.cycles);
        for d in space.iter() {
            let c = compiler.vectorizer().compile(&l.ir, d);
            if c.timing.cycles < best.1 {
                best = (c.decision, c.timing.cycles);
            }
        }
        println!(
            "  best:     {} → {:.0} cycles/execution ({:.2}x)",
            best.0,
            best.1,
            base.timing.cycles / best.1
        );
        println!();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `USAGE` and the subcommands' flag tables name the same flags: a
    /// flag documented but no longer accepted, or accepted but never
    /// documented, fails here.
    #[test]
    fn usage_and_flag_tables_name_the_same_flags() {
        let (serve, hub) = (serve_flags(), hub_flags());
        let accepted: BTreeSet<&str> = [
            TRAIN_FLAGS,
            VECTORIZE_FLAGS,
            INSPECT_FLAGS,
            &serve,
            &hub,
            REGISTRY_FLAGS,
            RESOLVE_FLAGS,
            EXPERIMENT_FLAGS,
        ]
        .iter()
        .flat_map(|table| table.iter().map(|f| f.name))
        .collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|word| word.starts_with("--") && word.len() > 2)
            .collect();
        assert_eq!(documented, accepted);
        for id in report::IDS {
            assert!(USAGE.contains(id), "USAGE does not name experiment `{id}`");
        }
    }
}
