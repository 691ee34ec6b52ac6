//! `fleet_mix`: registry + two hubs, open-loop traffic through
//! `FleetClient`, two hot-swap reloads on the way.
//!
//! The cache and registry layers used the other way: inserts, periodic
//! snapshot writes, invalidation and version propagation beside reads —
//! at a fixed arrival rate, so queueing shows in latency (measured from
//! each op's due time) rather than in a reduced load. A read-path gain
//! that taxes writes or reloads shows here.

use std::time::Instant;

use nvc_fleet::{FleetClient, FleetConfig, FleetStats};
use nvc_serve::Json;

use crate::client::Conn;
use crate::fixtures::{Fixtures, FLEET_MISSES};
use crate::openloop::{poisson_schedule, run_open, Clock, OpTiming, WallClock};
use crate::procfs;
use crate::server::Server;
use crate::spans::SpanLog;
use crate::stats;
use crate::synth::{Rng, Zipf};
use crate::verify::Tally;

use super::{
    fill, num, peak_rss_mb, record_latency, repeated_setups, server_defaults, sizes, Ctx, Measured,
    SourceJson, SERVER_TAIL_PCT,
};

const THREADS: usize = 2;

struct Fleet {
    registry: Server,
    n1: Server,
    n2: Server,
}

impl Fleet {
    fn servers(&self) -> [&Server; 3] {
        [&self.registry, &self.n1, &self.n2]
    }

    fn cpu_us(&self) -> u64 {
        self.servers().iter().map(|s| s.cpu_us()).sum()
    }

    fn shutdown(self) -> Result<(), String> {
        // Hubs first: their announcers talk to the registry until they stop.
        Server::shutdown(self.n2)?;
        Server::shutdown(self.n1)?;
        Server::shutdown(self.registry)
    }
}

fn client(registry: &Server) -> FleetClient {
    FleetClient::new(FleetConfig::new(registry.addr.clone()).with_model("prod"))
}

/// One set-up: spawn all three, cold-fill `n1`, warm-join `n2` from it,
/// and wait until a fleet client resolves both. Returns the fleet and how
/// long each part took: `[spawn registry + n1, fill n1, spawn n2 (the
/// warm join), first resolve of both]`.
fn set_up(
    ctx: &Ctx<'_>,
    json: &SourceJson,
    pool: &[usize],
    tally: &mut Tally<'_>,
) -> Result<(Fleet, [f64; 4]), String> {
    let mut laps = vec![Instant::now()];
    let registry = Server::spawn(
        "registry",
        &ctx.nvc,
        &["registry", "--listen", "127.0.0.1:0"],
        &ctx.out_dir,
    )?;
    let model = format!("prod={}", ctx.fixture("ckpt_A"));
    let hub = |node: &str, peers: Option<&str>| {
        let cache = ctx.out(&format!("{node}.cache"));
        // A snapshot left by an earlier run would turn the cold fill into
        // a restore.
        let _ = std::fs::remove_file(&cache);
        let mut args = vec!["hub", "--model", &model, "--listen", "127.0.0.1:0"];
        args.extend(["--announce", &registry.addr, "--node", node]);
        args.extend(["--cache-file", &cache, "--cache-checkpoint-secs", "2"]);
        if let Some(peers) = peers {
            args.extend(["--peers", peers]);
        }
        Server::spawn(node, &ctx.nvc, &args, &ctx.out_dir)
    };
    let n1 = hub("n1", None)?;
    laps.push(Instant::now());
    fill(&mut Conn::connect(&n1.addr)?, json, pool, tally, ctx.meter)?;
    laps.push(Instant::now());
    let n2 = hub("n2", Some(&n1.addr))?;
    laps.push(Instant::now());
    let probe = client(&registry);
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        probe.invalidate_resolution();
        match probe.current_nodes() {
            Ok(nodes) if nodes.len() == 2 => break,
            _ if Instant::now() > deadline => {
                return Err("fleet_mix: the registry never resolved both hubs".into())
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    laps.push(Instant::now());
    let mut parts = [0.0; 4];
    for (part, lap) in parts.iter_mut().zip(laps.windows(2)) {
        *part = (lap[1] - lap[0]).as_secs_f64();
    }
    Ok((Fleet { registry, n1, n2 }, parts))
}

/// The schedule: Poisson arrival times and the source each op sends —
/// 85 % Zipf(1.0) draws from the warm pool (ranked in a fixed shuffled
/// order, so the hot set mixes both kinds of source and is the same for
/// every seed), 15 % never-seen shapes at seeded positions.
fn schedule(ctx: &Ctx<'_>, ops: usize, miss_ops: usize) -> (Vec<f64>, Vec<usize>) {
    let mut rng = Rng::new(ctx.seed);
    let due_us = poisson_schedule(&mut rng, ops, sizes::FLEET_RATE_PER_S);
    let ranked = ranked_hot(usize::MAX);
    let zipf = Zipf::new(ranked.len());
    let mut misses: Vec<usize> = FLEET_MISSES.map(Fixtures::shape).collect();
    rng.shuffle(&mut misses);
    let mut is_miss = vec![false; ops];
    is_miss[..miss_ops].fill(true);
    rng.shuffle(&mut is_miss);
    let mut next_miss = misses.iter();
    let order = is_miss
        .iter()
        .map(|&miss| match miss {
            true => *next_miss.next().expect("one shape per miss op"),
            false => ranked[zipf.draw(&mut rng)],
        })
        .collect();
    (due_us, order)
}

/// The `n` hottest sources of the Zipf ranking.
fn ranked_hot(n: usize) -> Vec<usize> {
    let mut ranked = Fixtures::warm_pool();
    Rng::new(crate::fixtures::POOL_SEED).shuffle(&mut ranked);
    ranked.truncate(n);
    ranked
}

/// Traced runs only, after the schedule: the same warm sources closed-loop
/// through a `FleetClient` and straight to a hub, and the registry's
/// `resolve` round trip. Returns `(fleet p50 − direct p50, resolve p50)`
/// in microseconds.
fn probe_client_overhead(
    ctx: &Ctx<'_>,
    fleet: &Fleet,
    json: &SourceJson,
    sources: &[usize],
) -> Result<(f64, f64), String> {
    // Let the last reload's advertisement reach the registry (heartbeats
    // are a second apart), so the probe measures routing, not failover.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    let time = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let t0 = Instant::now();
        f()?;
        Ok(t0.elapsed().as_secs_f64() * 1e6)
    };
    let fleet_client = client(&fleet.registry);
    let mut direct = [
        Conn::connect(&fleet.n1.addr)?,
        Conn::connect(&fleet.n2.addr)?,
    ];
    let mut line = Vec::new();
    let (mut via_fleet, mut via_conn) = (Vec::new(), Vec::new());
    // Pass 0 warms both hubs' caches for these sources; passes 1–4 count.
    for pass in 0..5 {
        for (k, &idx) in sources.iter().enumerate() {
            let source = &ctx.fx.kernels[idx].source;
            let f = time(&mut || {
                fleet_client
                    .vectorize(source)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
            crate::client::vectorize_line(&mut line, k, json.get(idx));
            let text = String::from_utf8_lossy(&line).trim_end().to_string();
            let mut d = 0.0;
            for conn in &mut direct {
                d = time(&mut || conn.request(&text).map(|_| ()))?;
            }
            if pass > 0 {
                via_fleet.push(f);
                via_conn.push(d);
            }
        }
    }
    let registry = nvc_fleet::RegistryClient::new(fleet.registry.addr.clone());
    let resolves: Vec<f64> = (0..200)
        .map(|_| time(&mut || registry.resolve(Some("prod")).map(|_| ())))
        .collect::<Result<_, _>>()?;
    let p50 = |v: &[f64]| stats::median_of(v).unwrap_or(f64::NAN);
    Ok((p50(&via_fleet) - p50(&via_conn), p50(&resolves)))
}

/// The first `n` sources of this seed's traced schedule.
pub fn order(ctx: &Ctx<'_>, n: usize) -> Vec<usize> {
    let (_, mut order) = schedule(
        ctx,
        ctx.count(sizes::FLEET_OPS),
        ctx.count(sizes::FLEET_MISS_OPS),
    );
    order.truncate(n);
    order
}

/// What an op got back: the stamped decisions, or why it failed.
type Answer = Result<(u64, Json), String>;

/// What one load thread brings back.
struct ThreadLog {
    timings: Vec<OpTiming>,
    answers: Vec<Answer>,
    stats: FleetStats,
    cpu_us: u64,
}

pub fn run(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let mut m = Measured::default();
    let json = SourceJson::new(ctx.fx);
    let pool = Fixtures::warm_pool();
    let mut tally = Tally::new(ctx.fx, &["A", "B"]);

    let (fleet, parts) = repeated_setups(
        &mut m,
        ctx,
        ctx.setups(5),
        || set_up(ctx, &json, &pool, &mut tally),
        |(fleet, _)| Fleet::shutdown(fleet),
    )?;
    for (name, s) in ["spawn_n1", "fill_n1", "spawn_n2_warm_join", "resolve_both"]
        .iter()
        .zip(parts)
    {
        m.info(&format!("last_setup_{name}_s"), s);
    }
    m.layers.push(("hub.warm_join_s", parts[2]));
    m.server_defaults = server_defaults(&fleet.n1)?;
    m.server_defaults.extend(server_defaults(&fleet.n2)?);
    let joined = num(&fleet.n2.metrics()?, &["transfer_entries"]);
    let filled = num(
        &fleet.n1.metrics()?,
        &["models", "prod", "cache", "insertions"],
    );
    m.info("warm_join_entries", joined);
    m.require(joined == filled && joined > 0.0, || {
        format!("fleet_mix: n2 warm-joined {joined} entries of the {filled} n1 decided")
    });

    let ops = ctx.count(sizes::FLEET_OPS);
    let miss_ops = ctx.count(sizes::FLEET_MISS_OPS);
    let (due_us, order) = schedule(ctx, ops, miss_ops);

    // Reloads: `n1` when a third of the ops are due, `n2` at two thirds —
    // but never less than 1.2 s after `n1`: until a reloaded hub's next
    // heartbeat (one a second) the registry advertises its old checkpoint
    // and fleet clients refuse its answers, so two hubs reloaded within
    // one heartbeat would leave them nowhere to fail over to. A
    // scaled-down schedule may end before the second reload.
    let ckpt_b = ctx.fixture("ckpt_B");
    let reload_line = format!(
        "{{\"op\":\"reload\",\"model\":\"prod\",\"checkpoint\":{}}}",
        Json::from(ckpt_b.as_str()).render()
    );
    let first_reload_us = due_us[ops / 3];
    let reloads = [
        (&fleet.n1, first_reload_us),
        (&fleet.n2, due_us[2 * ops / 3].max(first_reload_us + 1.2e6)),
    ];

    let server_cpu0 = fleet.cpu_us();
    let origin = Instant::now();
    let origin_us = ctx.meter.at_us(origin);
    let registry = &fleet.registry;
    let (logs, reload_us) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (due_us, order) = (&due_us, &order);
                scope.spawn(move || {
                    let mine: Vec<usize> = (t..due_us.len()).step_by(THREADS).collect();
                    let my_due: Vec<f64> = mine.iter().map(|&i| due_us[i]).collect();
                    let fleet_client = client(registry);
                    let mut answers = Vec::with_capacity(mine.len());
                    let cpu0 = procfs::thread_cpu_us();
                    let timings = run_open(&my_due, &mut WallClock(origin), |k, _| {
                        let source = &ctx.fx.kernels[order[mine[k]]].source;
                        answers.push(
                            fleet_client
                                .vectorize(source)
                                .map(|r| (r.checkpoint_hash, r.loops))
                                .map_err(|e| e.to_string()),
                        );
                    });
                    ThreadLog {
                        timings,
                        answers,
                        stats: fleet_client.stats(),
                        cpu_us: procfs::thread_cpu_us() - cpu0,
                    }
                })
            })
            .collect();
        let mut clock = WallClock(origin);
        let reload_us: Vec<Result<f64, String>> = reloads
            .iter()
            .map(|(server, at_us)| {
                clock.sleep_until_us(*at_us);
                let t0 = clock.now_us();
                let v = server.request(&reload_line)?;
                match v.get("ok").and_then(Json::as_bool) {
                    Some(true) => Ok(clock.now_us() - t0),
                    _ => Err(format!("{}: reload refused: {}", server.name, v.render())),
                }
            })
            .collect();
        let logs: Vec<ThreadLog> = threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect();
        (logs, reload_us)
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let server_cpu_us = fleet.cpu_us() - server_cpu0;
    // The load leaves the CPU idle three quarters of the time, so the
    // idle-class sampler covered the whole schedule.
    let series = ctx.meter.series();
    let share = series.share_at_best(origin_us, origin_us + elapsed_s * 1e6, ctx.sens.capacity);
    let reload_us: Vec<f64> = reload_us.into_iter().collect::<Result<_, _>>()?;

    // Merge the threads back into schedule order.
    let mut merged: Vec<(usize, OpTiming, &Answer)> = logs
        .iter()
        .enumerate()
        .flat_map(|(t, log)| {
            log.timings
                .iter()
                .zip(&log.answers)
                .enumerate()
                .map(move |(k, (timing, answer))| (t + k * THREADS, *timing, answer))
        })
        .collect();
    merged.sort_by_key(|(i, _, _)| *i);
    for (i, _, answer) in &merged {
        match answer {
            Ok((hash, loops)) => tally.check(order[*i], *i, Some(*hash), Some(loops)),
            Err(e) => tally.fail(format!("op {i}: {e}")),
        }
    }
    let latencies: Vec<f64> = merged.iter().map(|(_, t, _)| t.latency_us()).collect();
    let done_us: Vec<f64> = merged
        .iter()
        .map(|(_, t, _)| origin_us + t.end_us)
        .collect();
    let late = stats::sorted(
        &merged
            .iter()
            .map(|(_, t, _)| t.late_us())
            .collect::<Vec<_>>(),
    );

    // The schedule sets the rate, not the CPU: nothing to correct.
    m.e2e.push(("throughput_ops_s", ops as f64 / elapsed_s));
    record_latency(
        &mut m,
        &series,
        &latencies,
        &done_us,
        ctx.sens,
        SERVER_TAIL_PCT,
    );
    m.e2e.push((
        "server_cpu_us_per_op",
        server_cpu_us as f64 * share / ops as f64,
    ));
    m.info(
        "server_cpu_as_measured_us_per_op",
        server_cpu_us as f64 / ops as f64,
    );
    m.info(
        "schedule_slowdown",
        series.mean_slowdown(origin_us, origin_us + elapsed_s * 1e6),
    );
    m.e2e.push(("peak_rss_mb", peak_rss_mb(&fleet.servers())));
    m.e2e.push((
        "decision_speedup_geomean",
        tally.speedup_geomean().unwrap_or(f64::NAN),
    ));
    m.info("ops", ops as f64);
    m.info("never_seen_ops", miss_ops as f64);
    m.info("distinct_sources_served", tally.distinct_served() as f64);
    for (name, hash) in [("A", "responses_stamped_A"), ("B", "responses_stamped_B")] {
        let stamp = ctx.fx.expected[name].checkpoint_hash;
        m.info(hash, *tally.by_stamp.get(&stamp).unwrap_or(&0) as f64);
    }
    m.require(
        tally.by_stamp.len() == 2 || ctx.scale < 1.0 || ctx.trace,
        || {
            format!(
                "fleet_mix: served stamps {:x?}, expected both A and B",
                tally.by_stamp.keys()
            )
        },
    );

    m.layers.push((
        "loadgen.late_us_p99",
        stats::percentile(&late, 99.0).unwrap_or(f64::NAN),
    ));
    m.layers.push((
        "loadgen.client_cpu_us_per_op",
        logs.iter().map(|l| l.cpu_us).sum::<u64>() as f64 / ops as f64,
    ));
    m.layers.push((
        "hub.reload_us",
        stats::median_of(&reload_us).unwrap_or(f64::NAN),
    ));
    let sum = |f: fn(&FleetStats) -> u64| logs.iter().map(|l| f(&l.stats)).sum::<u64>() as f64;
    m.layers
        .push(("fleet.client.resolves", sum(|s| s.resolves)));
    m.layers
        .push(("fleet.client.failovers", sum(|s| s.failovers)));
    m.info(
        "fleet.client.version_mismatches",
        sum(|s| s.version_mismatches),
    );
    // How long the slowest op after each reload waited: the version
    // propagation window (reload → next heartbeat) as a user saw it.
    for (k, (_, at_us)) in reloads.iter().enumerate() {
        let worst = merged
            .iter()
            .filter(|(_, t, _)| t.due_us >= *at_us && t.due_us < at_us + 2e6)
            .map(|(_, t, _)| t.latency_us())
            .fold(0.0, f64::max);
        m.info(&format!("reload_{k}_worst_latency_us"), worst);
    }
    for (node, server) in [("n1", &fleet.n1), ("n2", &fleet.n2)] {
        let stats = server.metrics()?;
        m.info(
            &format!("{node}_cache_checkpoints"),
            num(&stats, &["cache_checkpoints"]),
        );
        m.info(
            &format!("{node}_shared_store_entries"),
            num(&stats, &["shared_store", "entries"]),
        );
    }
    let store = fleet.n1.metrics()?;
    let (hits, misses) = (
        num(&store, &["shared_store", "hits"]),
        num(&store, &["shared_store", "misses"]),
    );
    m.layers
        .push(("fleet.store.hit_ratio", hits / (hits + misses)));

    if ctx.trace {
        let (overhead_us, resolve_us) = probe_client_overhead(ctx, &fleet, &json, &ranked_hot(64))?;
        m.layers.push(("fleet.client.overhead_us", overhead_us));
        m.layers.push(("fleet.client.resolve_us", resolve_us));
        // One span per op, with the generator's lateness as a child.
        let mut spans = SpanLog::with_capacity(2 * ops);
        for (i, t, _) in &merged {
            let op = spans.record("op", *i as u64, None, t.due_us, t.end_us);
            spans.record("loadgen.late", *i as u64, Some(op), t.due_us, t.start_us);
            spans.record("client.wait", *i as u64, Some(op), t.start_us, t.end_us);
        }
        m.spans = Some(spans);
    }
    m.absorb(&tally);
    Fleet::shutdown(fleet)?;
    Ok(m)
}
