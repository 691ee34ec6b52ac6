//! `train`: `nvc train` as a process, strict kernels (the default).
//!
//! `rl`'s collect/update, the `nn` backward kernels and the
//! `vectorizer`/`machine` reward path do the work and no server code
//! runs; it is the "`nvc train` wall-clock" half of the north star. An
//! envelope or cache optimisation predicts no change here.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use neurovectorizer::{Compiler, NeuroVectorizer};
use nvc_serve::Json;
use nvc_vectorizer::ActionSpace;

use crate::fixtures::{self, fast_config};
use crate::procfs;
use crate::spans::SpanLog;
use crate::stats;

use super::{num, record_latency, setup_median, sizes, Ctx, Measured};

/// What one `nvc train` process cost.
struct TrainRun {
    /// Spawn and exit on the speed meter's time base.
    start_us: f64,
    end_us: f64,
    wall_s: f64,
    cpu_us: u64,
    hwm_kb: u64,
}

fn nvc_train(
    ctx: &Ctx<'_>,
    iterations: usize,
    journal: &str,
    out: &str,
) -> Result<TrainRun, String> {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(out);
    let log = std::fs::File::create(ctx.out("train.log")).map_err(|e| e.to_string())?;
    let cpu0 = procfs::cpu_times("self").map_or(0, |t| t.children_us);
    let started = Instant::now();
    let start_us = ctx.meter.at_us(started);
    let mut child = Command::new(&ctx.nvc)
        .args(["train", "--kernels", &sizes::TRAIN_KERNELS.to_string()])
        .args(["--iterations", &iterations.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--journal", journal, "--out", out])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ctx.nvc.display()))?;
    // The peak resident set can only be read while the process lives;
    // it is reached within the first iteration and never falls. The
    // process saturates the CPU, so this loop also runs the speed probe.
    let pid = child.id().to_string();
    let mut hwm_kb = 0;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None => {
                hwm_kb = procfs::vm_hwm_kb(&pid).unwrap_or(hwm_kb);
                ctx.meter.sample_if_due();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let end_us = ctx.meter.now_us();
    if !status.success() {
        return Err(format!(
            "`nvc train` failed ({status}); see {}",
            ctx.out("train.log")
        ));
    }
    // The child was waited for, so its CPU time has moved into ours.
    let cpu_us = procfs::cpu_times("self").map_or(0, |t| t.children_us) - cpu0;
    Ok(TrainRun {
        start_us,
        end_us,
        wall_s,
        cpu_us,
        hwm_kb,
    })
}

/// Geomean over the evaluation benchmarks of baseline cycles ÷ cycles
/// under the checkpoint's greedy decisions, decided in-process in strict
/// mode.
pub fn eval_speedup_geomean(checkpoint: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(checkpoint)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    let mut nv = NeuroVectorizer::new(fast_config());
    nv.restore(&text)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    let space = ActionSpace::for_target(&nv.config().target);
    let compiler = Compiler::new(nv.config().target.clone());
    let speedups = nvc_datasets::eval::eval_benchmarks()
        .into_iter()
        .map(|kernel| {
            let served: Vec<(u32, u32, u32)> =
                nvc_embed::extract_loop_samples(&kernel.source, &nv.config().embed)
                    .expect("evaluation benchmarks parse")
                    .iter()
                    .map(|site| {
                        let d = nv.decide(&site.sample, &space);
                        (site.header_line, d.vf, d.if_)
                    })
                    .collect();
            fixtures::kernel_speedup(&compiler, &kernel, &served)
        });
    stats::geomean(speedups).ok_or_else(|| "no evaluation benchmarks".to_string())
}

pub fn run(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let mut m = Measured::default();
    let iterations = ctx.count(sizes::TRAIN_ITERATIONS);
    let (journal, out) = (ctx.out("train.journal"), ctx.out("train.ckpt"));

    // Set-up: the same command with no iterations — generate the kernels,
    // build the environment, write an untrained checkpoint.
    let setups: Vec<TrainRun> = (0..ctx.setups(5))
        .map(|_| nvc_train(ctx, 0, &journal, &out))
        .collect::<Result<_, _>>()?;
    let setup_spans: Vec<(f64, f64)> = setups.iter().map(|s| (s.start_us, s.end_us)).collect();
    setup_median(&mut m, ctx, &setup_spans);
    let setup_wall_s = stats::median_of(&setups.iter().map(|s| s.wall_s).collect::<Vec<_>>())
        .expect("at least one set-up");
    let setup_cpu_us =
        stats::median_of(&setups.iter().map(|s| s.cpu_us as f64).collect::<Vec<_>>())
            .expect("at least one set-up");

    let run = nvc_train(ctx, iterations, &journal, &out)?;

    // One journal line per iteration.
    let lines: Vec<Json> = std::fs::read_to_string(&journal)
        .map_err(|e| format!("{journal}: {e}"))?
        .lines()
        .map(|l| Json::parse(l).map_err(|e| format!("{journal}: {e}")))
        .collect::<Result<_, _>>()?;
    m.attempted = iterations;
    m.failed = iterations.saturating_sub(lines.len());
    for (k, line) in lines.iter().enumerate() {
        let ok = num(line, &["iter"]) == (k + 1) as f64
            && num(line, &["reward_mean"]).is_finite()
            && num(line, &["loss"]).is_finite();
        if !ok {
            m.failed += 1;
            m.problems.push(format!(
                "train: journal line {} is {}",
                k + 1,
                line.render()
            ));
        }
    }
    m.require(lines.len() == iterations, || {
        format!(
            "train: {} journal lines for {iterations} iterations",
            lines.len()
        )
    });
    let collect: Vec<f64> = lines.iter().map(|l| num(l, &["collect_us"])).collect();
    let update: Vec<f64> = lines.iter().map(|l| num(l, &["update_us"])).collect();
    let per_iteration: Vec<f64> = collect.iter().zip(&update).map(|(c, u)| c + u).collect();

    // When each iteration ended, for the speed correction: the journal
    // carries durations only, the iterations run back to back, and the
    // last one ends when the process does (all that follows it is writing
    // the checkpoint), so they are laid out backwards from the exit.
    let series = ctx.meter.series();
    let mut done_us = vec![0.0; per_iteration.len()];
    let mut t = run.end_us;
    for (done, d) in done_us.iter_mut().zip(&per_iteration).rev() {
        *done = t;
        t -= d;
    }
    let iterations_start_us = t.max(run.start_us);
    let at_best: Vec<f64> = per_iteration
        .iter()
        .zip(&done_us)
        .map(|(&d, &t)| series.at_best(d, t, ctx.sens.capacity))
        .collect();

    // Iterations per second over the journal's own per-iteration times
    // (the whole process's figure, wall minus set-up, is printed beside it).
    m.e2e.push((
        "throughput_ops_s",
        iterations as f64 / (at_best.iter().sum::<f64>() * 1e-6),
    ));
    m.info(
        "throughput_as_measured_ops_s",
        iterations as f64 / (per_iteration.iter().sum::<f64>() * 1e-6),
    );
    m.info(
        "whole_process_iterations_per_s",
        iterations as f64 / (run.wall_s - setup_wall_s),
    );
    // 300 iterations support a p90 (30 beyond it), not a p99.
    record_latency(&mut m, &series, &per_iteration, &done_us, ctx.sens, 90.0);
    let cpu_us_per_op = (run.cpu_us as f64 - setup_cpu_us) / iterations as f64;
    let share = series.share_at_best(iterations_start_us, run.end_us, ctx.sens.capacity);
    m.e2e.push(("server_cpu_us_per_op", cpu_us_per_op * share));
    m.info("server_cpu_as_measured_us_per_op", cpu_us_per_op);
    m.info(
        "iterations_slowdown",
        series.mean_slowdown(iterations_start_us, run.end_us),
    );
    m.e2e.push(("peak_rss_mb", run.hwm_kb as f64 / 1024.0));
    let geomean = eval_speedup_geomean(Path::new(&out))?;
    m.e2e.push(("decision_speedup_geomean", geomean));
    // Training is deterministic for a seed, so for the reference seeds
    // the written checkpoint must decide exactly as the committed one did.
    let committed = ctx.fx.train_geomeans.get(&(ctx.seed, iterations));
    m.info("geomean_has_fixture", committed.is_some() as u8 as f64);
    if let Some(&expected) = committed {
        m.require(geomean == expected, || {
            format!(
                "train: the checkpoint of seed {} after {iterations} iterations has an \
                 evaluation geomean of {geomean}, the fixture says {expected}",
                ctx.seed
            )
        });
    }
    m.info("iterations", iterations as f64);
    m.info("process_wall_s", run.wall_s);
    m.info("process_cpu_s", run.cpu_us as f64 * 1e-6);
    if let Some(last) = lines.last() {
        m.info("final_reward_mean", num(last, &["reward_mean"]));
    }
    m.layers.push((
        "rl.ppo.journal_collect_us",
        stats::median_of(&collect).unwrap_or(f64::NAN),
    ));
    m.layers.push((
        "rl.ppo.journal_update_us",
        stats::median_of(&update).unwrap_or(f64::NAN),
    ));

    if ctx.trace {
        // The journal's two phases per iteration, laid end to end.
        let mut spans = SpanLog::with_capacity(3 * lines.len());
        let mut t = 0.0;
        for (k, (c, u)) in collect.iter().zip(&update).enumerate() {
            let op = spans.record("op", k as u64, None, t, t + c + u);
            spans.record("rl.ppo.collect", k as u64, Some(op), t, t + c);
            spans.record("rl.ppo.update", k as u64, Some(op), t + c, t + c + u);
            t += c + u;
        }
        m.spans = Some(spans);
    }
    Ok(m)
}
