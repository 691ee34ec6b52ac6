//! The metric tables, the result record, and `compare`.
//!
//! `BENCHMARK.json` at the repository root is the one place that names
//! the workloads, the metrics, their units, directions and bounds: the
//! driver reads it, and so does the harness (compiled in).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use nvc_serve::json::obj;
use nvc_serve::Json;

use crate::procfs::HostStamp;
use crate::stats;
use crate::workloads::Measured;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
pub struct E2e {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected.
    pub bound: f64,
}

/// A per-layer metric. Layer = crate/module name.
pub struct Layer {
    pub name: String,
    pub unit: String,
}

/// `BENCHMARK.json`, parsed.
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub e2e: Vec<E2e>,
    pub layers: Vec<Layer>,
}

/// The committed `BENCHMARK.json`. It is compiled in, so a malformed one
/// is a bug in this repository, caught by the first unit test that runs.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        parse_manifest(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = |key: &str| {
        v.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("no `{key}` list"))
    };
    let text_of = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a row without `{key}`: {}", row.render()))
    };
    let better_of = |row: &Json| match text_of(row, "better")?.as_str() {
        "lower" => Ok(Better::Lower),
        "higher" => Ok(Better::Higher),
        other => Err(format!("`better` is `{other}`")),
    };
    Ok(Manifest {
        run_seconds: v
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no `run_seconds`")?,
        workloads: rows("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        e2e: rows("end_to_end")?
            .iter()
            .map(|row| {
                Ok(E2e {
                    name: text_of(row, "name")?,
                    unit: text_of(row, "unit")?,
                    better: better_of(row)?,
                    bound: row
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("a metric without `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?,
        layers: rows("per_layer")?
            .iter()
            .map(|row| {
                better_of(row)?;
                Ok(Layer {
                    name: text_of(row, "name")?,
                    unit: text_of(row, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// A number as JSON can carry it: NaN and ±∞ become `null`, which reads
/// back as NaN, so a value that was never measured cannot pass for 0.
fn finite(v: f64) -> Json {
    if v.is_finite() {
        Json::from(v)
    } else {
        Json::Null
    }
}

fn metric(value: f64, unit: &str) -> Json {
    obj(vec![("value", finite(value)), ("unit", Json::from(unit))])
}

/// The one line the driver reads: end-to-end metrics from an untraced
/// run, per-layer metrics from a traced one.
pub fn driver_line(m: &Measured, trace: bool) -> String {
    // A layer the workload does not run reports 0: the driver wants
    // every per-layer metric in every traced line.
    let metrics: Vec<(String, Json)> = if trace {
        manifest()
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    metric(m.layer_value(&l.name).unwrap_or(0.0), &l.unit),
                )
            })
            .collect()
    } else {
        manifest()
            .e2e
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    metric(m.e2e_value(&e.name).unwrap_or(f64::NAN), &e.unit),
                )
            })
            .collect()
    };
    obj(vec![
        ("correct", Json::from(m.correct())),
        ("attempted", Json::from(m.attempted.max(1) as u64)),
        ("failed", Json::from(m.failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Problems of a record the metric tables can see: a missing or
/// non-finite end-to-end value.
pub fn missing_metrics(m: &Measured, trace: bool) -> Vec<String> {
    if trace {
        return Vec::new();
    }
    manifest()
        .e2e
        .iter()
        .filter(|e| {
            !m.e2e_value(&e.name)
                .is_some_and(|v| v.is_finite() && v != 0.0)
        })
        .map(|e| format!("end-to-end metric `{}` was not measured", e.name))
        .collect()
}

/// Every metric by name with its unit, sample count and bound.
pub fn human(workload: &str, seed: u64, m: &Measured, noisy: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {workload} (seed {seed}): {} ops attempted, {} failed, {} latency samples{}",
        m.attempted,
        m.failed,
        m.samples,
        if noisy { ", NOISY host" } else { "" }
    );
    for e in &manifest().e2e {
        if let Some(v) = m.e2e_value(&e.name) {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.4} {:<8} ({} is better, bound {:.1} %)",
                e.name,
                v,
                e.unit,
                e.better.name(),
                e.bound * 100.0
            );
        }
    }
    for (name, v) in &m.info {
        let _ = writeln!(out, "    {name:<38} {v:>14.4}");
    }
    for l in &manifest().layers {
        if let Some(v) = m.layer_value(&l.name) {
            let _ = writeln!(out, "  layer {:<34} {v:>12.4} {}", l.name, l.unit);
        }
    }
    for (name, v) in &m.server_defaults {
        let _ = writeln!(out, "    server default {name} = {v}");
    }
    for p in &m.problems {
        let _ = writeln!(out, "  PROBLEM: {p}");
    }
    out
}

/// One workload run as stored in a result file.
pub fn run_record(workload: &str, seed: u64, m: &Measured, noisy: bool) -> Json {
    let pairs = |items: &[(&'static str, f64)]| {
        Json::Obj(
            items
                .iter()
                .map(|(n, v)| (n.to_string(), finite(*v)))
                .collect(),
        )
    };
    obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("correct", Json::from(m.correct())),
        ("noisy", Json::from(noisy)),
        ("ops_attempted", Json::from(m.attempted as u64)),
        ("ops_failed", Json::from(m.failed as u64)),
        ("samples", Json::from(m.samples as u64)),
        ("e2e", pairs(&m.e2e)),
        ("layers", pairs(&m.layers)),
        (
            "info",
            Json::Obj(
                m.info
                    .iter()
                    .map(|(n, v)| (n.clone(), finite(*v)))
                    .collect(),
            ),
        ),
        (
            "server_defaults",
            Json::Obj(
                m.server_defaults
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::from(v.as_str())))
                    .collect(),
            ),
        ),
        (
            "problems",
            Json::Arr(m.problems.iter().map(|p| Json::from(p.as_str())).collect()),
        ),
    ])
}

/// A result file: the host stamp and every run.
pub fn result_file(host: &HostStamp, runs: Vec<Json>) -> String {
    let host = Json::parse(&host.to_json()).expect("host stamp renders JSON");
    let mut out = obj(vec![("host", host), ("runs", Json::Arr(runs))]).render();
    out.push('\n');
    out
}

/// Per workload, per end-to-end metric: the values of every run, plus
/// the share of ops that failed and the runs that were not correct.
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: BTreeMap<String, f64>,
    failed: BTreeMap<String, f64>,
    incorrect: Vec<String>,
}

fn read_side(text: &str) -> Result<Side, String> {
    let v = Json::parse(text.trim()).map_err(|e| e.to_string())?;
    let mut side = Side {
        values: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        incorrect: Vec::new(),
    };
    for run in v
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result file has no `runs`")?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without `workload`")?;
        let count = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        *side.attempted.entry(workload.to_string()).or_default() += count("ops_attempted");
        *side.failed.entry(workload.to_string()).or_default() += count("ops_failed");
        let problems = run.get("problems").and_then(Json::as_array);
        if run.get("correct").and_then(Json::as_bool) != Some(true)
            || problems.is_some_and(|p| !p.is_empty())
        {
            side.incorrect
                .push(format!("{workload} seed {}", count("seed")));
        }
        let Some(Json::Obj(e2e)) = run.get("e2e") else {
            return Err(format!("run of {workload} without `e2e`"));
        };
        for (name, value) in e2e {
            // `null` is a value that was not measured.
            side.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value.as_f64().unwrap_or(f64::NAN));
        }
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
}

/// Judges one metric: `a` is the base, `b` the candidate.
pub fn judge(e: &E2e, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (
        stats::median_of(a).unwrap_or(f64::NAN),
        stats::median_of(b).unwrap_or(f64::NAN),
    );
    let ratio = mb / ma;
    let worse_by = match e.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::iqr_share(v))
        .fold(0.0, f64::max);
    // A vanished metric (NaN) is worse, not ok.
    let verdict = if worse_by.is_nan() || worse_by > e.bound {
        Verdict::Worse
    } else if spread > e.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, verdict)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric.
/// Returns the table and whether B is acceptable: nothing `worse`, no
/// higher share of failed ops, every run on both sides correct, and no
/// metric measured on one side only.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_side(a_text)?, read_side(b_text)?);
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:>14} {:>14} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B ÷ A", "spread", "bound"
    );
    for workload in &manifest().workloads {
        for e in &manifest().e2e {
            let key = (workload.clone(), e.name.clone());
            let (va, vb) = match (a.values.get(&key), b.values.get(&key)) {
                (Some(va), Some(vb)) => (va, vb),
                // A workload neither file ran.
                (None, None) => continue,
                (in_a, _) => {
                    acceptable = false;
                    let _ = writeln!(
                        out,
                        "{workload:<10} {:<26} only in {}  MISSING",
                        e.name,
                        if in_a.is_some() { "A" } else { "B" }
                    );
                    continue;
                }
            };
            let (ma, mb, spread, verdict) = judge(e, va, vb);
            acceptable &= verdict != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<10} {:<26} {:>14.4} {:>14.4} {:>10.4} A {:>7.2}% {:>6.1}%  {}",
                workload,
                e.name,
                ma,
                mb,
                mb / ma,
                spread * 100.0,
                e.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |s: &Side| {
            let attempted = s.attempted.get(workload).copied().unwrap_or(0.0);
            s.failed.get(workload).copied().unwrap_or(0.0) / attempted.max(1.0)
        };
        let (fa, fb) = (share(&a), share(&b));
        if fb > fa {
            acceptable = false;
        }
        let _ = writeln!(
            out,
            "{:<10} {:<26} {:>14.6} {:>14.6} {:>38}",
            workload,
            "failed_op_share",
            fa,
            fb,
            if fb > fa { "WORSE" } else { "ok" }
        );
    }
    for (side, runs) in [("A", &a.incorrect), ("B", &b.incorrect)] {
        for run in runs {
            acceptable = false;
            let _ = writeln!(out, "{side}: {run} was not correct  INCORRECT");
        }
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_named(name: &str) -> &'static E2e {
        manifest().e2e.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let p50 = metric_named("latency_p50_us"); // lower is better
        let quiet = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = quiet.iter().map(|v| v * 1.4).collect();
        let faster: Vec<f64> = quiet.iter().map(|v| v * 0.5).collect();
        assert_eq!(judge(p50, &quiet, &slower).3, Verdict::Worse);
        assert_eq!(judge(p50, &quiet, &faster).3, Verdict::Ok);
        assert_eq!(judge(p50, &quiet, &quiet).3, Verdict::Ok);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(p50, &noisy, &noisy).3, Verdict::Unresolved);
        let tput = metric_named("throughput_ops_s"); // higher is better
        assert_eq!(judge(tput, &quiet, &faster).3, Verdict::Worse);
        assert_eq!(judge(tput, &quiet, &slower).3, Verdict::Ok);
        // A metric that was not measured (NaN) is worse, not ok.
        assert_eq!(judge(p50, &quiet, &[f64::NAN]).3, Verdict::Worse);
    }

    /// The committed `BENCHMARK.json` parses, stays inside the driver's
    /// contract, and agrees with what the harness does.
    #[test]
    fn benchmark_json_is_within_the_contract_and_matches_the_harness() {
        let m = manifest();
        let mut seen = std::collections::HashSet::new();
        let names = m
            .e2e
            .iter()
            .map(|e| (&e.name, &e.unit))
            .chain(m.layers.iter().map(|l| (&l.name, &l.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&m.e2e.len()) && (1..=128).contains(&m.layers.len()));
        assert!(m.e2e.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        // Set-up time carries the largest bound, as the driver asks.
        let widest = m.e2e.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(metric_named("setup_s").bound, widest);
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);

        // Every workload the file names is one the harness can run, and
        // its one-line reason states the rate the code really uses.
        assert_eq!(m.workloads, crate::workloads::NAMES);
        let v = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for w in v.get("workloads").and_then(Json::as_array).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            if w.get("name").and_then(Json::as_str) == Some("fleet_mix") {
                let rate = format!("{} ops/s", crate::workloads::sizes::FLEET_RATE_PER_S);
                assert!(why.contains(&rate), "`{why}` does not say {rate}");
            }
        }
    }

    fn result_file_of(runs: Vec<Json>) -> String {
        obj(vec![("runs", Json::Arr(runs))]).render()
    }

    fn run_of(p50: f64, failed: u64, correct: bool) -> Json {
        obj(vec![
            ("workload", Json::from("hub_warm")),
            ("seed", Json::from(1u64)),
            ("correct", Json::from(correct)),
            ("ops_attempted", Json::from(1000u64)),
            ("ops_failed", Json::from(failed)),
            ("e2e", obj(vec![("latency_p50_us", finite(p50))])),
        ])
    }

    #[test]
    fn compare_flags_a_regression_and_a_higher_failure_share() {
        let file = |p50: f64, failed: u64| {
            result_file_of(
                (0..3)
                    .map(|i| run_of(p50 + i as f64, failed, true))
                    .collect(),
            )
        };
        let (table, ok) = compare(&file(100.0, 0), &file(101.0, 0)).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = compare(&file(100.0, 0), &file(130.0, 0)).unwrap();
        assert!(!ok && table.contains("WORSE"), "{table}");
        let (_, ok) = compare(&file(100.0, 0), &file(100.0, 2)).unwrap();
        assert!(!ok, "more failed ops is a regression");
    }

    #[test]
    fn compare_refuses_unmeasured_missing_and_incorrect() {
        let good = result_file_of(vec![run_of(100.0, 0, true)]);
        // A value that was not measured is stored as null, reads back as
        // NaN, and is worse — not a 100 % improvement.
        let unmeasured = result_file_of(vec![run_of(f64::NAN, 0, true)]);
        assert!(unmeasured.contains("null"), "{unmeasured}");
        let (table, ok) = compare(&good, &unmeasured).unwrap();
        assert!(!ok && table.contains("WORSE"), "{table}");
        // A metric only one side has.
        let mut bare = run_of(100.0, 0, true);
        if let Json::Obj(members) = &mut bare {
            members.retain(|(k, _)| k != "e2e");
            members.push(("e2e".to_string(), obj(vec![])));
        }
        let (table, ok) = compare(&good, &result_file_of(vec![bare])).unwrap();
        assert!(!ok && table.contains("MISSING"), "{table}");
        // A run that says it was not correct.
        let wrong = result_file_of(vec![run_of(100.0, 0, false)]);
        let (table, ok) = compare(&good, &wrong).unwrap();
        assert!(!ok && table.contains("INCORRECT"), "{table}");
    }
}
