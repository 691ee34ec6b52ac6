//! The four workloads and what they share: op counts scaled from
//! `--seconds`, the closed-loop `lat` + `cap` phases of the two
//! single-hub workloads, and the record a run produces.

pub mod fleet_mix;
pub mod hub_cold;
pub mod hub_warm;
pub mod train;

use std::path::PathBuf;

use nvc_serve::Json;

use crate::client::{run_closed, vectorize_line, Conn, PhaseLog};
use crate::fixtures::Fixtures;
use crate::procfs;
use crate::server::Server;
use crate::spans::SpanLog;
use crate::speed::{Series, SpeedMeter};
use crate::stats;
use crate::verify::Tally;

pub const NAMES: [&str; 4] = ["hub_warm", "hub_cold", "fleet_mix", "train"];

/// Op counts at the committed `run_seconds`. ISSUE 12 sized every timed
/// phase for 15–20 s unpinned; the driver's total-time cap is tighter and
/// pinning changed the rates, so the counts are re-sized for the pinned
/// rates of the 2-core reference host: each timed phase lasts 7–15 s and
/// a whole run, set-ups included, 18–24 s (`README.md` has the table). A
/// smaller `--seconds` scales them down linearly; a larger one is
/// refused, because the committed fixtures hold exactly this many
/// never-seen shapes.
pub mod sizes {
    /// Synthesized shapes in the warm pool (plus the 512 generator
    /// sources).
    pub const WARM_SHAPES: usize = 4000;
    pub const WARM_LAT_OPS: usize = 100_000;
    pub const WARM_CAP_OPS: usize = 160_000;

    /// Shapes the cold node decides in set-up, outside the timed set.
    pub const COLD_WARMUP: usize = 256;
    pub const COLD_LAT_OPS: usize = 3_200;
    pub const COLD_CAP_OPS: usize = 6_000;

    pub const FLEET_OPS: usize = 8_000;
    pub const FLEET_RATE_PER_S: f64 = 500.0;
    /// 15 % of the fleet's ops are never-seen shapes.
    pub const FLEET_MISS_OPS: usize = 1_200;

    /// Training-set size: a working-set size, not a duration, so it does
    /// not scale with `--seconds`.
    pub const TRAIN_KERNELS: usize = 8_192;
    pub const TRAIN_ITERATIONS: usize = 300;
}

/// Pipelining depth of the `cap` phases (and of cache fills).
pub const CAP_DEPTH: usize = 8;

/// The tail percentile of the three server workloads (≥ 3 200 samples).
pub const SERVER_TAIL_PCT: f64 = 99.0;

/// Blocks a latency sample is cut into for the median
/// (`stats::blocked_percentile`).
pub const BLOCKS: usize = 32;

/// Blocks it is cut into for the tail, when that leaves each block a
/// hundred samples (one beyond its p99); otherwise the tail is that of
/// the whole sample.
pub const TAIL_BLOCKS: usize = 16;

/// How strongly each of a workload's timings follows the speed probe:
/// work that slows down exactly as the probe does has sensitivity 1, time
/// spent waiting on a timer 0. A timing taken while the probe ran `s`
/// times slower than on the reference host at its best is divided by
/// `1 + sensitivity × (s − 1)` (`speed::Series::at_best`). Fitted once on
/// the reference host, from some eighty runs that straddled its speeds:
/// each phase's figure as measured against the phase's mean slowdown
/// (`README.md`, *The host*).
#[derive(Debug, Clone, Copy)]
pub struct Sensitivities {
    /// Set-up wall time.
    pub setup: f64,
    /// Per-op latency, for the median (the `lat` phase; `fleet_mix`: from
    /// due time).
    pub latency: f64,
    /// Per-op latency, for the tail percentile: the tail is made of the
    /// ops a disturbance hit, and a slowed CPU is disturbed for longer.
    pub tail: f64,
    /// Throughput and server CPU per op (the `cap` phase).
    pub capacity: f64,
}

pub fn sensitivities(workload: &str) -> Sensitivities {
    let (setup, latency, tail, capacity) = match workload {
        // Client, server and kernel take turns on the one CPU: wake-ups
        // and cache refills grow with the slowdown, beyond the computing.
        "hub_warm" => (0.9, 1.2, 2.0, 1.2),
        // A depth-1 miss sleeps out the batcher's flush deadline, and the
        // fast kernels are bound by memory more than the probe is.
        "hub_cold" => (0.75, 0.6, 1.4, 0.8),
        // An open loop queues: what slows service slows waiting too.
        "fleet_mix" => (0.85, 1.3, 2.0, 1.2),
        // `train`: all computing.
        _ => (0.9, 1.0, 1.8, 1.0),
    };
    Sensitivities {
        setup,
        latency,
        tail,
        capacity,
    }
}

/// Everything a workload run is parameterised by.
pub struct Ctx<'a> {
    pub fx: &'a Fixtures,
    pub nvc: PathBuf,
    pub paper_node: PathBuf,
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Share of the committed op counts to run (`--seconds / run_seconds`).
    pub scale: f64,
    pub trace: bool,
    /// Samples the measured CPU's speed for as long as the run lasts.
    pub meter: &'a SpeedMeter,
    pub sens: Sensitivities,
}

impl Ctx<'_> {
    /// A committed count brought to this run's scale (a traced run does a
    /// tenth of it).
    pub fn count(&self, committed: usize) -> usize {
        let scale = if self.trace {
            self.scale / 10.0
        } else {
            self.scale
        };
        ((committed as f64 * scale).round() as usize).max(1)
    }

    /// How often a set-up is repeated (its median is `setup_s`). Traced
    /// and smoke runs gate no timing and set up once.
    pub fn setups(&self, full: usize) -> usize {
        if self.trace || self.scale < 0.05 {
            1
        } else {
            full
        }
    }

    pub fn fixture(&self, name: &str) -> String {
        self.fx.dir.join(name).display().to_string()
    }

    pub fn out(&self, name: &str) -> String {
        self.out_dir.join(name).display().to_string()
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// End-to-end metrics by name (all six, every workload).
    pub e2e: Vec<(&'static str, f64)>,
    /// Supporting numbers: op counts, hit/miss counts, the highest
    /// supported percentile — printed and stored, never gated.
    pub info: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    /// Latency samples behind `latency_*`.
    pub samples: usize,
    /// Failed assertions; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Server settings as reported by `metrics` (shipped defaults).
    pub server_defaults: Vec<(String, String)>,
    /// Spans of the traced run.
    pub spans: Option<SpanLog>,
}

impl Measured {
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn info_value(&self, name: &str) -> Option<f64> {
        self.info.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Folds a verification tally into the record.
    pub fn absorb(&mut self, tally: &Tally<'_>) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.problems.extend(tally.failures.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The member at `path` of a JSON object tree.
fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Numeric member at `path` of a JSON object tree (NaN when absent).
pub fn num(v: &Json, path: &[&str]) -> f64 {
    at(v, path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Counters of the `prod` model out of a hub's `metrics`.
#[derive(Debug, Clone, Copy)]
pub struct ModelCounters {
    pub hits: f64,
    pub misses: f64,
    pub batches: f64,
    pub batched_loops: f64,
}

impl ModelCounters {
    pub fn read(server: &Server) -> Result<ModelCounters, String> {
        let stats = server.metrics()?;
        let prod = |path: &[&str]| num(&stats, &[&["models", "prod"], path].concat());
        Ok(ModelCounters {
            hits: prod(&["cache", "hits"]),
            misses: prod(&["cache", "misses"]),
            batches: prod(&["batch", "batches"]),
            batched_loops: prod(&["batch", "batched_loops"]),
        })
    }

    pub fn since(&self, earlier: &ModelCounters) -> ModelCounters {
        ModelCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            batches: self.batches - earlier.batches,
            batched_loops: self.batched_loops - earlier.batched_loops,
        }
    }

    pub fn mean_batch(&self) -> f64 {
        if self.batches > 0.0 {
            self.batched_loops / self.batches
        } else {
            0.0
        }
    }
}

/// The settings a hub runs with, read back from `metrics` so the record
/// shows the shipped defaults rather than assuming them.
pub fn server_defaults(server: &Server) -> Result<Vec<(String, String)>, String> {
    let stats = server.metrics()?;
    let text = |path: &[&str]| match at(&stats, path) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "absent".to_string(),
    };
    Ok([
        ("kernel_mode", &["kernel_mode"][..]),
        ("cache_shards", &["models", "prod", "cache", "shards"]),
        (
            "cache_shard_capacity",
            &["models", "prod", "cache", "shard_capacity"],
        ),
        ("checkpoint_hash", &["models", "prod", "checkpoint_hash"]),
    ]
    .iter()
    .map(|(name, path)| (format!("{}.{name}", server.name), text(path)))
    .collect())
}

/// Pre-rendered JSON string literals of catalog sources, so building a
/// request line in a timed loop is two copies and an integer.
pub struct SourceJson(Vec<String>);

impl SourceJson {
    pub fn new(fx: &Fixtures) -> Self {
        SourceJson(
            fx.kernels
                .iter()
                .map(|k| Json::from(k.source.as_str()).render())
                .collect(),
        )
    }

    pub fn get(&self, idx: usize) -> &str {
        &self.0[idx]
    }
}

/// Sends every source of `order` once at `CAP_DEPTH` and verifies the
/// answers — cache fills and warm-ups, outside the timed phases.
pub fn fill(
    conn: &mut Conn,
    json: &SourceJson,
    order: &[usize],
    tally: &mut Tally<'_>,
    meter: &SpeedMeter,
) -> Result<(), String> {
    let log = run_closed(
        conn,
        order.len(),
        CAP_DEPTH,
        |i, buf| vectorize_line(buf, i, json.get(order[i])),
        None,
        meter,
    );
    verify_phase(&log, order, 0, tally);
    match log.transport_error {
        Some(e) => Err(format!("fill: {e}")),
        None => Ok(()),
    }
}

/// Verifies a phase's raw responses; op `i` asked for `order[i]` under
/// request id `id_base + i`. Ops without a response count as failed.
pub fn verify_phase(log: &PhaseLog, order: &[usize], id_base: usize, tally: &mut Tally<'_>) {
    for (i, line) in log.responses().enumerate() {
        tally.check_line(order[i], id_base + i, line);
    }
    let missing = order.len() - log.completed();
    if missing > 0 {
        let why = log.transport_error.as_deref().unwrap_or("no response");
        tally.fail_missing(missing, why);
    }
}

/// The timed part of a single-hub workload: a depth-1 `lat` phase, then
/// a depth-8 `cap` phase with the server's CPU time read around it. A
/// traced run sends the first half of the `lat` ops without spans
/// (`plain`) and the second half with them, so the two medians give the
/// tracing overhead on inputs drawn the same way.
pub struct TimedPhases {
    pub plain: Option<PhaseLog>,
    pub lat: PhaseLog,
    pub cap: PhaseLog,
    pub cap_cpu_us: u64,
    /// Harness CPU over all phases, per op.
    pub client_cpu_us_per_op: f64,
    /// Counter movement over the `lat` ops (both halves) and the `cap` ops.
    pub lat_delta: ModelCounters,
    pub cap_delta: ModelCounters,
}

impl TimedPhases {
    /// Verifies every response of every phase.
    pub fn verify(&self, lat_order: &[usize], cap_order: &[usize], tally: &mut Tally<'_>) {
        let split = self.plain.as_ref().map_or(0, |_| lat_order.len() / 2);
        if let Some(plain) = &self.plain {
            verify_phase(plain, &lat_order[..split], 0, tally);
        }
        verify_phase(&self.lat, &lat_order[split..], split, tally);
        verify_phase(&self.cap, cap_order, lat_order.len(), tally);
    }
}

pub fn timed_phases(
    server: &Server,
    conn: &mut Conn,
    json: &SourceJson,
    lat_order: &[usize],
    cap_order: &[usize],
    spans: Option<&mut SpanLog>,
    meter: &SpeedMeter,
) -> Result<TimedPhases, String> {
    // This thread's CPU, not the process's: the harness also runs a
    // keep-awake spinner.
    let own_cpu = procfs::thread_cpu_us;
    let client_cpu0 = own_cpu();
    let c0 = ModelCounters::read(server)?;
    let split = spans.as_ref().map_or(0, |_| lat_order.len() / 2);
    let mut closed = |ids: std::ops::Range<usize>, order: &[usize], depth, spans| {
        let base = ids.start;
        run_closed(
            conn,
            ids.len(),
            depth,
            |i, buf| vectorize_line(buf, base + i, json.get(order[i])),
            spans,
            meter,
        )
    };
    let plain = (split > 0).then(|| closed(0..split, &lat_order[..split], 1, None));
    let lat = closed(split..lat_order.len(), &lat_order[split..], 1, spans);
    let c1 = ModelCounters::read(server)?;
    let cpu0 = server.cpu_us();
    let n = lat_order.len();
    let cap = closed(n..n + cap_order.len(), cap_order, CAP_DEPTH, None);
    let cap_cpu_us = server.cpu_us() - cpu0;
    let c2 = ModelCounters::read(server)?;
    let ops = (lat_order.len() + cap_order.len()) as f64;
    Ok(TimedPhases {
        plain,
        lat,
        cap,
        cap_cpu_us,
        client_cpu_us_per_op: (own_cpu() - client_cpu0) as f64 / ops,
        lat_delta: c1.since(&c0),
        cap_delta: c2.since(&c1),
    })
}

/// Latencies as they would have been at the CPU's best speed: each is
/// divided by what the speed probe says about the moment it ended.
fn at_best(series: &Series, latencies_us: &[f64], done_us: &[f64], sensitivity: f64) -> Vec<f64> {
    latencies_us
        .iter()
        .zip(done_us)
        .map(|(&l, &t)| series.at_best(l, t, sensitivity))
        .collect()
}

/// The latency part of the record: the median and the tail percentile,
/// each the median of what the blocks of the sample give, of latencies
/// brought to the CPU's best speed (`done_us[i]` is when op `i` ended);
/// and — printed and stored, not gated — the highest percentile the whole
/// sample supports, and median and tail as measured.
pub fn record_latency(
    m: &mut Measured,
    series: &Series,
    latencies_us: &[f64],
    done_us: &[f64],
    sens: Sensitivities,
    tail_pct: f64,
) {
    let p50 = |v: &[f64]| stats::blocked_percentile(v, 50.0, BLOCKS, 20).unwrap_or(f64::NAN);
    let tail =
        |v: &[f64]| stats::blocked_percentile(v, tail_pct, TAIL_BLOCKS, 100).unwrap_or(f64::NAN);
    let for_tail = at_best(series, latencies_us, done_us, sens.tail);
    m.samples = latencies_us.len();
    m.e2e.push((
        "latency_p50_us",
        p50(&at_best(series, latencies_us, done_us, sens.latency)),
    ));
    m.e2e.push(("latency_tail_us", tail(&for_tail)));
    m.info("latency_tail_percentile", tail_pct);
    if let Some((pct, v)) = stats::highest_supported(&stats::sorted(&for_tail)) {
        m.info("latency_highest_supported_percentile", pct);
        m.info("latency_highest_supported_us", v);
    }
    m.info("latency_p50_as_measured_us", p50(latencies_us));
    m.info("latency_tail_as_measured_us", tail(latencies_us));
}

/// Fills the end-to-end record of a single-hub workload from its phases.
pub fn record_phases(m: &mut Measured, phases: &TimedPhases, series: &Series, sens: Sensitivities) {
    let cap = &phases.cap;
    let share = series.share_at_best(cap.start_us, cap.end_us, sens.capacity);
    let ops = cap.completed().max(1) as f64;
    m.e2e
        .push(("throughput_ops_s", ops / (cap.elapsed_s() * share)));
    let lat = &phases.lat;
    record_latency(
        m,
        series,
        &lat.latencies_us,
        &lat.done_us,
        sens,
        SERVER_TAIL_PCT,
    );
    m.e2e.push((
        "server_cpu_us_per_op",
        phases.cap_cpu_us as f64 * share / ops,
    ));
    m.info("throughput_as_measured_ops_s", ops / cap.elapsed_s());
    m.info(
        "server_cpu_as_measured_us_per_op",
        phases.cap_cpu_us as f64 / ops,
    );
    m.info(
        "lat_slowdown",
        series.mean_slowdown(lat.start_us, lat.end_us),
    );
    m.info(
        "cap_slowdown",
        series.mean_slowdown(cap.start_us, cap.end_us),
    );
    m.info("lat_ops", lat.completed() as f64);
    m.info("cap_ops", cap.completed() as f64);
    m.layers
        .push(("loadgen.client_cpu_us_per_op", phases.client_cpu_us_per_op));
}

/// Sets up `n` times, each on fresh processes (`tear_down` ends the
/// previous one first); returns the last set-up, kept alive for the timed
/// phases, and records the median wall time as `setup_s`.
pub fn repeated_setups<T>(
    m: &mut Measured,
    ctx: &Ctx<'_>,
    n: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
    tear_down: impl Fn(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut spans = Vec::with_capacity(n);
    let mut live = None;
    for _ in 0..n.max(1) {
        if let Some(previous) = live.take() {
            tear_down(previous)?;
        }
        let started = ctx.meter.now_us();
        live = Some(set_up()?);
        spans.push((started, ctx.meter.now_us()));
    }
    setup_median(m, ctx, &spans);
    Ok(live.expect("set up at least once"))
}

/// Median of the set-up repetitions, each `(start, end)` on the speed
/// meter's time base and brought to the CPU's best speed.
pub fn setup_median(m: &mut Measured, ctx: &Ctx<'_>, setups_us: &[(f64, f64)]) {
    let series = ctx.meter.series();
    let mut at_best = Vec::with_capacity(setups_us.len());
    for (i, &(t0, t1)) in setups_us.iter().enumerate() {
        let wall_s = (t1 - t0) * 1e-6;
        m.info(&format!("setup_{i}_as_measured_s"), wall_s);
        m.info(&format!("setup_{i}_slowdown"), series.mean_slowdown(t0, t1));
        at_best.push(wall_s * series.share_at_best(t0, t1, ctx.sens.setup));
    }
    m.e2e.push((
        "setup_s",
        stats::median_of(&at_best).expect("at least one set-up"),
    ));
}

/// Sum of the servers' peak resident sets, in MB.
pub fn peak_rss_mb(servers: &[&Server]) -> f64 {
    servers.iter().map(|s| s.hwm_kb()).sum::<u64>() as f64 / 1024.0
}

/// One single-hub workload, as data: `hub_warm` and `hub_cold` differ in
/// the server they start, what set-up sends, and what the timed ops are.
pub struct SingleHub<'a> {
    pub spawn: &'a dyn Fn() -> Result<Server, String>,
    /// Expected table of the checkpoint the server runs.
    pub table: &'static str,
    /// Sources set-up sends before the clock starts.
    pub setup_fill: &'a [usize],
    pub setups: usize,
    pub lat_order: Vec<usize>,
    pub cap_order: Vec<usize>,
    /// Traced runs only: ops of one more `cap` phase, run with the server
    /// let onto both CPUs (as many as `cap_order`, drawn the same way).
    pub two_cpu_order: Vec<usize>,
}

/// What `run_single_hub` hands back for workload-specific assertions.
pub struct SingleHubRun {
    pub m: Measured,
    pub lat_delta: ModelCounters,
    pub cap_delta: ModelCounters,
}

/// Set-up (repeated on fresh processes, the last one kept), the timed
/// phases, verification, and the end-to-end record.
pub fn run_single_hub(ctx: &Ctx<'_>, w: SingleHub<'_>) -> Result<SingleHubRun, String> {
    let mut m = Measured::default();
    let json = SourceJson::new(ctx.fx);
    let mut tally = Tally::new(ctx.fx, &[w.table]);

    let (server, mut conn) = repeated_setups(
        &mut m,
        ctx,
        w.setups,
        || {
            let server = (w.spawn)()?;
            let mut conn = Conn::connect(&server.addr)?;
            fill(&mut conn, &json, w.setup_fill, &mut tally, ctx.meter)?;
            Ok((server, conn))
        },
        |(server, _)| Server::shutdown(server),
    )?;
    m.server_defaults = server_defaults(&server)?;

    let mut spans = ctx
        .trace
        .then(|| SpanLog::with_capacity(3 * w.lat_order.len()));
    let phases = timed_phases(
        &server,
        &mut conn,
        &json,
        &w.lat_order,
        &w.cap_order,
        spans.as_mut(),
        ctx.meter,
    )?;
    let series = ctx.meter.series();
    record_phases(&mut m, &phases, &series, ctx.sens);

    m.e2e.push(("peak_rss_mb", peak_rss_mb(&[&server])));

    let verify_started = spans.as_ref().map(SpanLog::now_us);
    phases.verify(&w.lat_order, &w.cap_order, &mut tally);
    if let (Some(s), Some(t0)) = (spans.as_mut(), verify_started) {
        let t1 = s.now_us();
        s.record("client.verify", u64::MAX, None, t0, t1);
    }
    if let Some(s) = &spans {
        // What the harness itself spends per op outside write and wait.
        let own = stats::median_of(&s.self_times_of("op")).unwrap_or(f64::NAN);
        m.info("client_op_self_us", own);
    }
    if let Some(plain) = &phases.plain {
        let p50 = |log: &PhaseLog| stats::median_of(&log.latencies_us).unwrap_or(f64::NAN);
        let (traced, untraced) = (p50(&phases.lat), p50(plain));
        m.layers
            .push(("trace.overhead_pct", 100.0 * (traced / untraced - 1.0)));
    }

    // The gated phases run on one CPU and cannot see what the server's
    // threads gain from a second one; a traced run measures it, un-gated:
    // the same `cap` phase again with the server on both CPUs (the load
    // generator stays where it was).
    if !w.two_cpu_order.is_empty() {
        let both: Vec<usize> = (0..procfs::MEASURED_CPU + 2).collect();
        procfs::move_process_to_cpus(&server.pid(), &both)?;
        let base = w.lat_order.len() + w.cap_order.len();
        let log = run_closed(
            &mut conn,
            w.two_cpu_order.len(),
            CAP_DEPTH,
            |i, buf| vectorize_line(buf, base + i, json.get(w.two_cpu_order[i])),
            None,
            ctx.meter,
        );
        verify_phase(&log, &w.two_cpu_order, base, &mut tally);
        let two = log.completed() as f64 / log.elapsed_s();
        let one = phases.cap.completed() as f64 / phases.cap.elapsed_s();
        m.layers.push(("hub.cap_two_cpus_ops_s", two));
        m.layers.push(("hub.two_cpus_gain", two / one));
    }

    for (phase, d) in [("lat", phases.lat_delta), ("cap", phases.cap_delta)] {
        m.info(&format!("{phase}_cache_hits"), d.hits);
        m.info(&format!("{phase}_cache_misses"), d.misses);
        m.info(&format!("{phase}_model_batches"), d.batches);
    }
    let hits = phases.lat_delta.hits + phases.cap_delta.hits;
    let probes = hits + phases.lat_delta.misses + phases.cap_delta.misses;
    m.layers.push(("serve.cache.hit_ratio", hits / probes));
    m.layers
        .push(("serve.batch.mean_batch_lat", phases.lat_delta.mean_batch()));
    m.layers
        .push(("serve.batch.mean_batch_cap", phases.cap_delta.mean_batch()));

    m.e2e.push((
        "decision_speedup_geomean",
        tally.speedup_geomean().unwrap_or(f64::NAN),
    ));
    m.info("distinct_sources_served", tally.distinct_served() as f64);
    m.absorb(&tally);
    m.spans = spans;
    Server::shutdown(server)?;
    Ok(SingleHubRun {
        m,
        lat_delta: phases.lat_delta,
        cap_delta: phases.cap_delta,
    })
}
