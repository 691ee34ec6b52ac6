//! `bench` — the repository's benchmark harness.
//!
//! Spawns the release binaries (`nvc hub`, `nvc registry`, `nvc train`,
//! and the bench-owned `paper_node`) as OS processes, drives them over
//! loopback TCP with seeded inputs, verifies every response against the
//! committed expected tables, and reports end-to-end metrics (untraced)
//! or per-layer metrics (traced). See `README.md`.

mod client;
mod fixtures;
mod layers;
mod openloop;
mod procfs;
mod report;
mod server;
mod spans;
mod speed;
mod stats;
mod synth;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fixtures::Fixtures;
use procfs::HostStamp;
use workloads::{Ctx, Measured};

const USAGE: &str = "usage:
  bench --workload NAME --seed N --seconds S --trace 0|1
        one workload, one run; the last line of stdout is the result JSON
        (end-to-end metrics untraced, per-layer metrics traced)
  bench run [--seeds N[,N…]] [--seconds S] [--trace 0|1] [--out FILE]
        all four workloads per seed; prints every metric, writes a result file
  bench smoke
        all four workloads at 1/100 of the counts, every correctness check on
  bench fixtures --regen | --check
  bench compare A.json B.json
  bench selfcheck [--seeds N[,N…]] [--seconds S]
        runs the whole set twice and compares it to itself (the A/A gate)
workloads: hub_warm hub_cold fleet_mix train";

/// A workload's calibration drift above this re-runs it once.
const NOISY_DRIFT_PCT: f64 = 15.0;

/// Where things are. The harness runs from the repository root.
struct Paths {
    fixtures: PathBuf,
    out: PathBuf,
    nvc: PathBuf,
    paper_node: PathBuf,
}

impl Paths {
    fn find() -> Result<Paths, String> {
        let bench = Path::new("bench");
        if !bench.join("fixtures").is_dir() {
            return Err("run from the repository root (no bench/fixtures here)".into());
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let beside = |name: &str| exe.with_file_name(name);
        // `run.sh` says where it built `nvc`; otherwise it is beside this
        // binary (shared CARGO_TARGET_DIR) or in the root target dir.
        let nvc = std::env::var_os("NVC_BIN")
            .map(PathBuf::from)
            .into_iter()
            .chain([beside("nvc"), PathBuf::from("target/release/nvc")])
            .find(|p| p.is_file())
            .ok_or("no `nvc` release binary; run bench/run.sh, which builds it")?;
        let out = bench.join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(Paths {
            fixtures: bench.join("fixtures"),
            out,
            nvc,
            paper_node: beside("paper_node"),
        })
    }
}

/// A fixed integer spin (about 200 ms on the reference host), timed
/// before and after each workload: if the two disagree the host changed
/// speed under the run.
fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..120_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// Runs one workload, with the host noise guard around it: a run whose
/// calibration drifts more than 15 % is repeated once, and marked noisy
/// if the repeat drifts too, rather than silently averaged in.
fn run_guarded(ctx: &Ctx<'_>, workload: &str) -> Result<(Measured, bool), String> {
    let mut noisy = false;
    loop {
        let before = calibrate();
        let mut m = match workload {
            "hub_warm" => workloads::hub_warm::run(ctx),
            "hub_cold" => workloads::hub_cold::run(ctx),
            "fleet_mix" => workloads::fleet_mix::run(ctx),
            "train" => workloads::train::run(ctx),
            other => Err(format!("unknown workload `{other}`\n{USAGE}")),
        }?;
        if ctx.trace {
            layers::replay(ctx, workload, &mut m)?;
        }
        let drift = 100.0 * (calibrate() / before - 1.0).abs();
        m.layers.push(("host.calib_drift_pct", drift));
        m.info("host.calib_before_ms", before * 1e3);
        let missing = report::missing_metrics(&m, ctx.trace);
        m.problems.extend(missing);
        if drift <= NOISY_DRIFT_PCT || noisy {
            return Ok((m, drift > NOISY_DRIFT_PCT));
        }
        eprintln!("bench: {workload}: host calibration drifted {drift:.1} %; running it once more");
        noisy = true;
    }
}

/// Writes a traced run's spans to `bench/out/<workload>.trace.jsonl`.
fn write_trace(paths: &Paths, workload: &str, m: &Measured) -> Result<(), String> {
    let Some(spans) = &m.spans else { return Ok(()) };
    let path = paths.out.join(format!("{workload}.trace.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    spans
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "bench: wrote {} spans to {}",
        spans.spans().len(),
        path.display()
    );
    Ok(())
}

struct RunArgs {
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    workload: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seeds: vec![1],
        seconds: report::manifest().run_seconds,
        trace: false,
        out: None,
        workload: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" | "--seeds" => {
                parsed.seeds = value
                    .split(',')
                    .map(|s| s.parse().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?
            }
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let max = report::manifest().run_seconds;
    if !(parsed.seconds > 0.0 && parsed.seconds <= max) {
        return Err(format!(
            "--seconds must be in (0, {max}]: the committed fixtures hold exactly the \
             never-seen shapes a {max} s run sends"
        ));
    }
    Ok(parsed)
}

/// One guarded run with its trace file written; returns the record,
/// whether the host was noisy, and the printable report.
fn run_and_report(
    paths: &Paths,
    fx: &Fixtures,
    seed: u64,
    a: &RunArgs,
    workload: &str,
) -> Result<(Measured, bool, String), String> {
    let meter = speed::SpeedMeter::start()?;
    let ctx = Ctx {
        fx,
        nvc: paths.nvc.clone(),
        paper_node: paths.paper_node.clone(),
        out_dir: paths.out.clone(),
        seed,
        scale: a.seconds / report::manifest().run_seconds,
        trace: a.trace,
        meter: &meter,
        sens: workloads::sensitivities(workload),
    };
    let (m, noisy) = run_guarded(&ctx, workload)?;
    write_trace(paths, workload, &m)?;
    let mut text = report::human(workload, seed, &m, noisy);
    if a.trace {
        text.push_str(&layers::budget(workload, &m));
    }
    Ok((m, noisy, text))
}

/// The driver's form: one workload, one run, one JSON line.
fn cmd_driver(args: &[String]) -> Result<bool, String> {
    let a = parse_run_args(args)?;
    let workload = a
        .workload
        .clone()
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let paths = Paths::find()?;
    let fx = Fixtures::load(&paths.fixtures)?;
    let (m, _, text) = run_and_report(&paths, &fx, a.seeds[0], &a, &workload)?;
    eprintln!("bench: host {}", HostStamp::collect().to_json());
    eprint!("{text}");
    // The line says whether the run was correct; the exit code only says
    // that there is a line.
    println!("{}", report::driver_line(&m, a.trace));
    Ok(true)
}

/// All four workloads for every seed; returns the result file's text and
/// whether every run was correct.
fn run_set(paths: &Paths, fx: &Fixtures, a: &RunArgs) -> Result<(String, bool), String> {
    let host = HostStamp::collect();
    eprintln!("bench: host {}", host.to_json());
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &seed in &a.seeds {
        for workload in workloads::NAMES {
            let (m, noisy, text) = run_and_report(paths, fx, seed, a, workload)?;
            print!("{text}");
            all_correct &= m.correct();
            runs.push(report::run_record(workload, seed, &m, noisy));
        }
    }
    Ok((report::result_file(&host, runs), all_correct))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let a = parse_run_args(args)?;
    let paths = Paths::find()?;
    // The full check — shapes regenerated, tables spot-checked — so a
    // stale fixture fails now and not after minutes of timing.
    let fx = fixtures::check(&paths.fixtures)?;
    let (text, correct) = run_set(&paths, &fx, &a)?;
    let out = a
        .out
        .map(PathBuf::from)
        .unwrap_or_else(|| paths.out.join("result.json"));
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("bench: wrote {}", out.display());
    Ok(correct)
}

fn cmd_smoke() -> Result<bool, String> {
    let paths = Paths::find()?;
    let fx = fixtures::check(&paths.fixtures)?;
    let a = RunArgs {
        seeds: vec![1],
        seconds: report::manifest().run_seconds / 100.0,
        trace: false,
        out: None,
        workload: None,
    };
    let started = Instant::now();
    let (_, correct) = run_set(&paths, &fx, &a)?;
    println!(
        "bench smoke: {} in {:.1} s",
        if correct { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(correct)
}

fn cmd_fixtures(args: &[String]) -> Result<bool, String> {
    let paths = Paths::find()?;
    match args {
        [flag] if flag == "--regen" => fixtures::regen(&paths.fixtures, &paths.nvc).map(|()| true),
        [flag] if flag == "--check" => fixtures::check(&paths.fixtures).map(|_| true),
        _ => Err(USAGE.to_string()),
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, acceptable) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(acceptable)
}

fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let a = parse_run_args(args)?;
    let paths = Paths::find()?;
    let fx = fixtures::check(&paths.fixtures)?;
    let mut sides = Vec::new();
    let mut correct = true;
    for side in ["A", "B"] {
        let (text, ok) = run_set(&paths, &fx, &a)?;
        let path = paths.out.join(format!("selfcheck_{side}.json"));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        correct &= ok;
        sides.push(text);
    }
    let (table, acceptable) = report::compare(&sides[0], &sides[1])?;
    print!("{table}");
    println!(
        "bench selfcheck: {}",
        if correct && acceptable {
            "ok"
        } else {
            "FAILED"
        }
    );
    Ok(correct && acceptable)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    // Everything that measures runs in the one CPU layout, or not at all:
    // numbers taken in another could not be compared with committed ones.
    if !matches!(command, Some("compare" | "fixtures") | None) {
        if let Err(e) = procfs::pin_to_cpus(&[procfs::MEASURED_CPU]) {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match command {
        Some("run") => cmd_run(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some("fixtures") => cmd_fixtures(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("selfcheck") => cmd_selfcheck(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => cmd_driver(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
