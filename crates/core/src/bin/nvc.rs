//! `nvc` — the NeuroVectorizer command-line tool.
//!
//! The deployment story of §4.2: train once, ship the weights, and use the
//! model as a drop-in pragma injector at build time.
//!
//! ```text
//! nvc train --kernels 160 --iterations 30 --seed 17 --out model.ckpt
//! nvc vectorize file.c --model model.ckpt        # annotated source on stdout
//! nvc inspect file.c [--n 1024]                  # per-loop analysis report
//! nvc serve --model model.ckpt                   # hub protocol on stdin/stdout
//! nvc hub --model prod=model.ckpt --listen 127.0.0.1:7199
//! nvc experiment fig7                            # one of the paper's figures, or `all`
//! ```
//!
//! Both servers speak the hub's one JSON-lines protocol (see `nvc-hub`).
//! `serve` keeps one model warm on stdin/stdout, registered as `default`;
//! `hub` is the networked tier — N named checkpoints behind one TCP
//! endpoint, weighted A/B routing, hot-swap `reload`, and a decision
//! cache that persists across restarts versioned by checkpoint hash.
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
  nvc train [--kernels N] [--iterations N] [--seed N] [--trace FILE]
            [--journal FILE] --out FILE
  nvc vectorize FILE.c [--model FILE]
  nvc inspect FILE.c [--n VALUE]
  nvc serve [--model FILE] [--workers N] [--batch N] [--cache N] [--shards N]
            [--kernel-mode strict|fast] [--trace FILE]
  nvc hub --model NAME=FILE [--model NAME=FILE…] [--weight NAME=N…] [--listen ADDR]
          [--cache-file PATH] [--cache-checkpoint-secs N] [--request-threads N]
          [--announce REGISTRY_ADDR] [--node NAME] [--advertise ADDR]
          [--peers ADDR[,ADDR…]]
          [--workers N] [--batch N] [--cache N] [--shards N]
          [--kernel-mode strict|fast] [--trace FILE]
          [--learn] [--learn-journal FILE] [--learn-promotion-log FILE]
          [--learn-checkpoint FILE]
  nvc registry [--listen ADDR]
  nvc resolve --registry ADDR [--model NAME]
  nvc experiment fig1|fig2|fig5|fig6|fig7|fig8|fig9|headline|ext_ranker|
                 ext_reward_shaping|all

--kernel-mode picks serve's and hub's kernel numeric contract (default:
NVC_KERNEL_MODE, else `fast`; everything else follows NVC_KERNEL_MODE,
else `strict`): `strict` is bitwise-reproducible; `fast` runs FMA +
online-softmax + rational-tanh kernels that are ε-close with identical
decisions.
`serve` speaks the hub's JSON-lines protocol on stdin/stdout for its one
model, registered as `default`; a bad line gets an error answer, and
`shutdown`, EOF or a line over 16 MiB drain it and print `final_stats`.
The hub's connections are driven nonblocking by one selector thread, which
answers `ping` and cache-hit `vectorize` itself; misses are answered by the
--workers batch workers, which take up to --batch queued misses per forward
as soon as the lines that arrived together have been read (no flush timer);
--request-threads sets how many workers run the verbs that may block.
A hub keeps every model's decisions in one store: --cache and --shards
bound it for all models together.
--trace FILE exports per-request spans as JSON lines (equivalent to
NVC_TRACE=FILE); --journal FILE appends one JSON line of training
telemetry per iteration. Tracing never changes decisions or weights.

--learn enables online learning from serve traffic: clients post measured
rewards back through the `report` verb (correlated by the `key` stamped on
each vectorize loop report); the hub journals them (--learn-journal,
append mode — the corpus survives restarts), fine-tunes a challenger
(--learn-checkpoint) from the first --model's weights once enough reports
accumulate, canaries it through the registry A/B split, and promotes it
over that model via the atomic reload once its reward cohort clears a
Welch z test — or parks it at weight 0 on a loss; the thresholds are
`LearnConfig`'s defaults. A regressing promotion is rolled back
automatically. Lifecycle events append to --learn-promotion-log.

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

    let cfg = NvConfig::fast().with_seed(seed);
    let pool = generator::generate(seed, kernels);
    let mut nv = NeuroVectorizer::new(cfg);
    eprintln!(
        "training on {} kernels, {iterations} iterations, {} kernels ({})…",
        pool.len(),
        nv.config().kernel_mode,
        nvc_nn::kernels::kernel_isa()
    );
    let cfg = nv.config();
    let mut env = VectorizeEnv::new(pool, cfg.target.clone(), &cfg.embed);
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
    let hub = nv.into_hub();
    nvc_hub::serve_stdio(&hub, std::io::stdin().lock(), &mut std::io::stdout())?;
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
        Flag::value("--peers"),
        Flag::switch("--learn"),
        Flag::value("--learn-journal"),
        Flag::value("--learn-promotion-log"),
        Flag::value("--learn-checkpoint"),
    ];
    flags.extend(SERVE_KNOBS);
    flags
}

/// PPO iterations per challenger fine-tune under `--learn`.
const LEARN_ITERS: usize = 20;

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
    if let Some(n) = p.parse_value("--request-threads")? {
        cfg.hub.request_threads = n;
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

    // Start-up loads each model the way a `reload` does.
    let load = NeuroVectorizer::hub_loader(cfg.clone());
    let mut hub = Hub::new(cfg.hub.clone(), cfg.serve.clone())
        .with_loader(NeuroVectorizer::hub_loader(cfg.clone()));
    if p.has("--learn") {
        // The champion is the first --model spec; its checkpoint file is
        // the fine-tune warm start.
        let (champion, champion_checkpoint) = models[0]
            .split_once('=')
            .ok_or_else(|| format!("--model wants NAME=CHECKPOINT, got `{}`", models[0]))?;
        let lcfg = neurovectorizer::LearnConfig {
            journal_path: p
                .get("--learn-journal")
                .unwrap_or("nvc-learn.jsonl")
                .to_string(),
            promotion_log_path: p.get("--learn-promotion-log").map(str::to_string),
            champion: champion.to_string(),
            champion_checkpoint: champion_checkpoint.to_string(),
            challenger_checkpoint: p
                .get("--learn-checkpoint")
                .unwrap_or("nvc-challenger.ckpt")
                .to_string(),
            ..neurovectorizer::LearnConfig::default()
        };
        eprintln!(
            "nvc hub: online learning on (champion `{champion}`, journal {}, z {}, canary weight {})",
            lcfg.journal_path,
            nvc_hub::learn::Z_THRESHOLD,
            nvc_hub::learn::CANARY_WEIGHT
        );
        hub = hub.with_learning(
            lcfg,
            NeuroVectorizer::challenger_trainer(cfg.clone(), LEARN_ITERS),
        )?;
    }
    let hub = hub;
    for spec in models {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--model wants NAME=CHECKPOINT, got `{spec}`"))?;
        let (model, hash) = load(path)?;
        let weight = weights
            .iter()
            .find(|(n, _)| n == name)
            .map_or(1, |(_, w)| *w);
        hub.register(ModelSpec {
            name: name.to_string(),
            weight,
            checkpoint_hash: hash,
            model,
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
        let ann = neurovectorizer::AnnounceConfig::new(registry, &node, &advertise);
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
    use std::collections::{BTreeMap, BTreeSet};

    use neurovectorizer::{AnnounceConfig, FleetConfig, HubConfig, LearnConfig, ServeConfig};
    use nvc_embed::EmbedConfig;
    use nvc_rl::PpoConfig;

    /// Every subcommand and the flags it accepts.
    fn subcommands() -> Vec<(&'static str, Vec<Flag>)> {
        vec![
            ("train", TRAIN_FLAGS.to_vec()),
            ("vectorize", VECTORIZE_FLAGS.to_vec()),
            ("inspect", INSPECT_FLAGS.to_vec()),
            ("serve", serve_flags()),
            ("hub", hub_flags()),
            ("registry", REGISTRY_FLAGS.to_vec()),
            ("resolve", RESOLVE_FLAGS.to_vec()),
            ("experiment", EXPERIMENT_FLAGS.to_vec()),
        ]
    }

    /// A file of the repository, by its path from the root.
    fn repo_file(path: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Every `nvc SUBCOMMAND …` that `text` quotes, with its `--flags`: a
    /// code line runs to its end or a `#` comment (`\` continuations
    /// joined), an inline one to its closing backtick.
    fn quoted_commands(text: &str) -> Vec<(String, Vec<String>)> {
        let names: Vec<&str> = subcommands().iter().map(|(name, _)| *name).collect();
        let mut commands = Vec::new();
        for line in text.replace("\\\n", " ").lines() {
            for (at, _) in line.match_indices("nvc ") {
                let rest = &line[at + 4..];
                let inline = line[..at].matches('`').count() % 2 == 1;
                let end = if inline {
                    rest.find('`')
                } else {
                    rest.find(" #")
                };
                let mut words = rest[..end.unwrap_or(rest.len())]
                    .split_whitespace()
                    .skip_while(|w| *w == "--");
                let Some(sub) = words.next().filter(|w| names.contains(w)) else {
                    continue;
                };
                let flags = words
                    .map(|w| w.trim_start_matches('['))
                    .filter(|w| w.starts_with("--") && w.len() > 2)
                    .map(|w| {
                        let end = w[2..]
                            .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                            .map_or(w.len(), |i| i + 2);
                        w[..end].to_string()
                    })
                    .collect();
                commands.push((sub.to_string(), flags));
            }
        }
        commands
    }

    /// `USAGE` and the subcommands' flag tables name the same flags: a
    /// flag documented but no longer accepted, or accepted but never
    /// documented, fails here. So does a command README quotes with a
    /// flag its subcommand does not accept.
    #[test]
    fn usage_and_flag_tables_name_the_same_flags() {
        let tables = subcommands();
        let accepted: BTreeSet<&str> = tables
            .iter()
            .flat_map(|(_, table)| table.iter().map(|f| f.name))
            .collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|word| word.starts_with("--") && word.len() > 2)
            .collect();
        assert_eq!(documented, accepted);
        for id in report::IDS {
            assert!(USAGE.contains(id), "USAGE does not name experiment `{id}`");
        }

        let quoted = quoted_commands(&repo_file("README.md"));
        assert!(quoted.len() >= 10, "README quotes {quoted:?}");
        for (sub, flags) in &quoted {
            let (_, table) = tables.iter().find(|(name, _)| name == sub).unwrap();
            for flag in flags {
                assert!(
                    table.iter().any(|f| f.name == flag),
                    "README quotes `nvc {sub} {flag}`, which `nvc {sub}` rejects"
                );
            }
        }
    }

    /// Why a knob exists.
    enum Use {
        /// An address, a path, a name, or host sizing (thread counts,
        /// cache sizes, the target machine): only the deployment knows it.
        Deployment,
        /// `(file, needle, value)`: `file` sets it to `value`, at `needle`
        /// — bench, CI, an integration test, an example, a figure, or an
        /// `nvc` command line README quotes, never the file that defines
        /// the knob. `value` is written in `needle` and is not the knob's
        /// default: a knob whose users only name its default is a constant.
        SetBy(&'static str, &'static str, &'static str),
    }
    use Use::{Deployment, SetBy};

    const README: &str = "README.md";
    const CI: &str = ".github/workflows/ci.yml";
    const NVC_CLI: &str = "crates/core/tests/nvc_cli.rs";
    const DETERMINISM: &str = "tests/determinism.rs";
    const FLEET: &str = "tests/fleet.rs";
    const LEARNING: &str = "tests/learning.rs";
    const SERVE: &str = "tests/serve.rs";
    const FLEET_MIX: &str = "bench/src/workloads/fleet_mix.rs";
    const FIGURES: &str = "crates/core/src/experiments.rs";
    const BOTH_EMBEDS: Use = SetBy(
        "tests/frontend_alloc.rs",
        "[EmbedConfig::fast(), EmbedConfig::paper()]",
        "EmbedConfig::paper()",
    );

    /// The options census: every `nvc` flag, config field and environment
    /// variable, and who needs it. A setting nothing sets is a constant
    /// beside its reader, not a knob.
    const CENSUS: &[(&str, Use)] = &[
        ("--advertise", Deployment),
        ("--announce", Deployment),
        ("--batch", Deployment),
        ("--cache", Deployment),
        (
            "--cache-checkpoint-secs",
            SetBy(FLEET_MIX, r#""--cache-checkpoint-secs", "2""#, "2"),
        ),
        ("--cache-file", Deployment),
        ("--iterations", SetBy(README, "--iterations 30", "30")),
        ("--journal", Deployment),
        (
            "--kernel-mode",
            SetBy(NVC_CLI, r#"[("fast", "strict")"#, "strict"),
        ),
        ("--kernels", SetBy(README, "nvc train --kernels 160", "160")),
        ("--learn", SetBy(NVC_CLI, r#""--learn","#, "--learn")),
        ("--learn-checkpoint", Deployment),
        ("--learn-journal", Deployment),
        ("--learn-promotion-log", Deployment),
        ("--listen", Deployment),
        ("--model", Deployment),
        ("--n", SetBy(README, "inspect file.c --n 1024", "1024")),
        ("--node", SetBy(README, "--node hub-a", "hub-a")),
        ("--out", Deployment),
        ("--peers", Deployment),
        ("--registry", Deployment),
        ("--request-threads", Deployment),
        ("--seed", SetBy(README, "--seed 99", "99")),
        ("--shards", Deployment),
        ("--trace", Deployment),
        ("--weight", SetBy(README, "--weight prod=9", "prod=9")),
        ("--workers", Deployment),
        ("NvConfig::target", Deployment),
        (
            "NvConfig::embed",
            SetBy("tests/infer_alloc.rs", "NvConfig::paper()", "paper()"),
        ),
        (
            "NvConfig::ppo",
            SetBy(DETERMINISM, "cfg.ppo.train_batch = 24", "24"),
        ),
        (
            "NvConfig::serve",
            SetBy(
                SERVE,
                "cfg.serve = ServeConfig::default().with_batch_size(8)",
                "8",
            ),
        ),
        (
            "NvConfig::hub",
            SetBy(
                README,
                "nvc hub --model prod=prod.ckpt --listen",
                "--listen",
            ),
        ),
        (
            "NvConfig::kernel_mode",
            SetBy(
                DETERMINISM,
                "serve_decisions(nvc_nn::KernelMode::Fast)",
                "Fast",
            ),
        ),
        (
            "NvConfig::seed",
            SetBy(
                "tests/end_to_end.rs",
                "NvConfig::fast().with_seed(11)",
                "11",
            ),
        ),
        ("ServeConfig::cache_capacity", Deployment),
        ("ServeConfig::cache_shards", Deployment),
        (
            "ServeConfig::batch_size",
            SetBy(SERVE, "with_batch_size(8)", "8"),
        ),
        ("ServeConfig::workers", Deployment),
        ("HubConfig::listen", Deployment),
        ("HubConfig::cache_path", Deployment),
        ("HubConfig::request_threads", Deployment),
        (
            "HubConfig::cache_checkpoint_secs",
            SetBy(FLEET, "Some(victim_cache.clone()), 1)", "1"),
        ),
        (
            "PpoConfig::lr",
            SetBy(FIGURES, "for lr in [5e-5f32, 5e-4, 5e-3]", "5e-3"),
        ),
        (
            "PpoConfig::train_batch",
            SetBy(DETERMINISM, "cfg.ppo.train_batch = 24", "24"),
        ),
        (
            "PpoConfig::minibatch",
            SetBy(DETERMINISM, "cfg.ppo.minibatch = 8", "8"),
        ),
        (
            "PpoConfig::epochs",
            SetBy(DETERMINISM, "cfg.ppo.epochs = 2", "2"),
        ),
        (
            "PpoConfig::hidden",
            SetBy(FIGURES, "vec![128, 128]", "[128, 128]"),
        ),
        (
            "PpoConfig::action_space",
            SetBy(
                DETERMINISM,
                "ActionSpaceKind::Continuous1D,",
                "Continuous1D",
            ),
        ),
        ("PpoConfig::action_dims", Deployment),
        ("EmbedConfig::token_buckets", BOTH_EMBEDS),
        ("EmbedConfig::path_buckets", BOTH_EMBEDS),
        ("EmbedConfig::token_dim", BOTH_EMBEDS),
        ("EmbedConfig::path_dim", BOTH_EMBEDS),
        ("EmbedConfig::code_dim", BOTH_EMBEDS),
        (
            "EmbedConfig::max_paths",
            SetBy("tests/frontend_parity.rs", "for max_paths in [0, 1,", "0"),
        ),
        ("LearnConfig::journal_path", Deployment),
        ("LearnConfig::promotion_log_path", Deployment),
        ("LearnConfig::champion", Deployment),
        ("LearnConfig::challenger", Deployment),
        ("LearnConfig::champion_checkpoint", Deployment),
        ("LearnConfig::challenger_checkpoint", Deployment),
        (
            "LearnConfig::min_reports",
            SetBy(LEARNING, "min_reports: 20", "20"),
        ),
        (
            "LearnConfig::min_cohort",
            SetBy(LEARNING, "min_cohort: 6", "6"),
        ),
        (
            "LearnConfig::interval_ms",
            SetBy(LEARNING, "interval_ms: 10", "10"),
        ),
        ("AnnounceConfig::registry", Deployment),
        ("AnnounceConfig::node", Deployment),
        ("AnnounceConfig::advertise", Deployment),
        (
            "AnnounceConfig::ttl_ms",
            SetBy(FLEET, ".with_ttl_ms(600)", "600"),
        ),
        ("FleetConfig::registry", Deployment),
        (
            "FleetConfig::model",
            SetBy(FLEET_MIX, r#".with_model("prod")"#, r#""prod""#),
        ),
        (
            "FleetConfig::backoff_ms",
            SetBy(FLEET, ".with_backoff_ms(10)", "10"),
        ),
        (
            "FleetConfig::resolve_ttl_ms",
            SetBy(FLEET, ".with_resolve_ttl_ms(200)", "200"),
        ),
        (
            "NVC_KERNEL_MODE",
            SetBy(CI, r#"NVC_KERNEL_MODE: "fast""#, "fast"),
        ),
        (
            "NVC_TRACE",
            SetBy(
                CI,
                "NVC_TRACE: ${{ github.workspace }}/nvc-trace.jsonl",
                "nvc-trace.jsonl",
            ),
        ),
        ("NVC_OPS", SetBy(README, "NVC_OPS=1 nvc", "1")),
    ];

    /// `("Type::field", home, default)` for every field of `value`, by
    /// exhaustive destructuring: a new field does not compile until it is
    /// listed here, and then fails the census until it has a row. The
    /// default is the field's `Debug` text in `value`.
    macro_rules! fields {
        ($home:literal, $value:expr => $ty:ident [$($field:ident),* $(,)?]) => {{
            let $ty { $($field),* } = $value;
            [$((concat!(stringify!($ty), "::", stringify!($field)), $home, format!("{:?}", $field))),*]
        }};
    }

    /// Every knob, with the file that defines it and its default: a
    /// flag's is the literal `nvc` falls back to when it is absent (empty
    /// when there is none), a variable's is what an unset one means.
    fn knobs() -> Vec<(&'static str, &'static str, String)> {
        const NVC: &str = "crates/core/src/bin/nvc.rs";
        let source = repo_file(NVC);
        let flags: BTreeSet<&str> = subcommands()
            .iter()
            .flat_map(|(_, table)| table.iter().map(|f| f.name))
            .collect();
        let mut knobs: Vec<_> = flags
            .into_iter()
            .map(|flag| {
                let fallback = format!("parse_value(\"{flag}\")?.unwrap_or(");
                let default = source
                    .split_once(fallback.as_str())
                    .map_or("", |(_, rest)| {
                        &rest[..rest.find(')').expect("unwrap_or( is closed")]
                    });
                (flag, NVC, default.to_string())
            })
            .collect();
        // `NVC_KERNEL_MODE` is a knob of its own; the field's default is
        // the library's, whatever the variable says in this process.
        let nv = NvConfig {
            kernel_mode: nvc_nn::KernelMode::default(),
            ..NvConfig::fast()
        };
        knobs.extend(fields!("crates/core/src/framework.rs", nv =>
            NvConfig [target, embed, ppo, serve, hub, kernel_mode, seed]));
        knobs.extend(fields!("crates/serve/src/lib.rs", ServeConfig::default() =>
            ServeConfig [cache_capacity, cache_shards, batch_size, workers]));
        knobs.extend(fields!("crates/hub/src/lib.rs", HubConfig::default() =>
            HubConfig [listen, cache_path, request_threads, cache_checkpoint_secs]));
        knobs.extend(fields!("crates/rl/src/ppo.rs", PpoConfig::default() =>
            PpoConfig [lr, train_batch, minibatch, epochs, hidden, action_space, action_dims]));
        knobs.extend(
            fields!("crates/embed/src/model.rs", EmbedConfig::default() =>
            EmbedConfig [token_buckets, path_buckets, token_dim, path_dim, code_dim, max_paths]),
        );
        knobs.extend(fields!("crates/hub/src/learn.rs", LearnConfig::default() =>
            LearnConfig [journal_path, promotion_log_path, champion, challenger,
                champion_checkpoint, challenger_checkpoint, min_reports, min_cohort, interval_ms]));
        knobs.extend(
            fields!("crates/hub/src/announce.rs", AnnounceConfig::new("", "", "") =>
            AnnounceConfig [registry, node, advertise, ttl_ms]),
        );
        knobs.extend(
            fields!("crates/fleet/src/client.rs", FleetConfig::new("") =>
            FleetConfig [registry, model, backoff_ms, resolve_ttl_ms]),
        );
        knobs.extend([
            (
                "NVC_KERNEL_MODE",
                "crates/nn/src/kernels.rs",
                nvc_nn::KernelMode::default().to_string(),
            ),
            ("NVC_TRACE", "crates/obs/src/trace.rs", String::new()),
            ("NVC_OPS", "crates/obs/src/ops.rs", String::new()),
        ]);
        knobs
    }

    /// `value` spells `default`, as text or as the same number.
    fn is_default(value: &str, default: &str) -> bool {
        let number = |s: &str| s.trim_end_matches("f32").parse::<f64>().ok();
        value == default || number(value).is_some_and(|v| number(default) == Some(v))
    }

    /// Every knob has a census row and every row a knob; every `SetBy`
    /// file lies outside the knob's own and sets it to a value other than
    /// its default.
    #[test]
    fn every_knob_has_a_user() {
        let census: BTreeMap<&str, &Use> = CENSUS.iter().map(|(knob, u)| (*knob, u)).collect();
        assert_eq!(census.len(), CENSUS.len(), "a knob has two rows");
        let knobs = knobs();
        let mut failures = Vec::new();
        for (knob, home, default) in &knobs {
            match census.get(knob) {
                None => failures.push(format!("{knob}: no user outside {home}")),
                Some(Deployment) => {}
                Some(SetBy(file, needle, _)) if file == home => {
                    failures.push(format!("{knob}: `{needle}` is in its own {home}"));
                }
                Some(SetBy(file, needle, value)) => {
                    if !repo_file(file).contains(needle) {
                        failures.push(format!("{knob}: `{needle}` is not in {file}"));
                    }
                    if value.is_empty() || !needle.contains(value) {
                        failures.push(format!("{knob}: `{needle}` does not write `{value}`"));
                    }
                    if is_default(value, default) {
                        failures.push(format!("{knob}: `{value}` is its default"));
                    }
                }
            }
        }
        for knob in census.keys() {
            if !knobs.iter().any(|(k, _, _)| k == knob) {
                failures.push(format!("{knob}: a row for a knob that is gone"));
            }
        }
        assert!(
            failures.is_empty(),
            "options census:\n  {}",
            failures.join("\n  ")
        );
    }
}
